from fractions import Fraction

import pytest

import cayleycubic
from cayleycubic import errors, markov, pell, search, sequences, triples

# the public API, by defining module
PUBLIC = {
    errors: [
        "BudgetExceededError",
        "CayleyError",
        "DegeneratePellError",
        "InvariantError",
        "NonIntegralFamilyError",
        "NotASolutionError",
    ],
    markov: [
        "MAX_TREE_DEPTH",
        "MarkovTriple",
        "OverlapReport",
        "continuant",
        "continuant_drop_last",
        "continuant_interior",
        "continuant_power_sequence",
        "markov_neighbor",
        "markov_tree",
        "markov_tree_dot",
        "markov_tree_json",
        "markov_value",
        "sequence_overlap_search",
        "splitting_identity_holds",
    ],
    pell: [
        "FORM_A",
        "FORM_Z",
        "PellInstance",
        "PellSolution",
        "family_one_instance",
        "family_two_instance",
        "pell_family_one",
        "pell_family_one_members",
        "pell_family_two",
        "pell_oracle",
        "verify_pell",
    ],
    search: [
        "TAG_ORDER",
        "Classification",
        "classifications_to_csv",
        "classifications_to_jsonl",
        "classify",
        "enumerate_solutions",
        "family_membership",
        "triples_to_csv",
        "triples_to_jsonl",
    ],
    sequences: [
        "cheb_t",
        "cheb_u",
        "family_multiplier",
        "lucas_u",
        "lucas_v",
        "scaled_cheb_t",
        "scaled_cheb_u",
    ],
    triples: [
        "COMPONENT_NAMES",
        "SolutionGraph",
        "Triple",
        "base_value",
        "cayley_value",
        "conjugate_component",
        "euclid_index_path",
        "family_triple",
        "is_base",
        "is_singular",
        "neighbors",
        "reduction_trace",
        "solution_graph",
    ],
}


def test_package_exports_exactly_the_public_names():
    names = [name for module_names in PUBLIC.values() for name in module_names]
    assert len(names) == len(set(names)) == 60
    assert len(cayleycubic.__all__) == 60
    assert set(cayleycubic.__all__) == set(names)


def test_each_export_is_the_object_of_its_module():
    for module, names in PUBLIC.items():
        assert set(module.__all__) == set(names)
        for name in names:
            assert getattr(cayleycubic, name) is getattr(module, name)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from cayleycubic import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(cayleycubic.__all__)
    assert all(namespace[name] is getattr(cayleycubic, name) for name in namespace)


# The value types as callers see them today: the repr, equality and hashing the
# dataclass decorator generates, and read-only fields for the frozen ones.  A
# lighter rewrite of these classes must keep every line below passing.
VALUE_TYPES = [
    # (a value, an equal value built apart, a different value, its repr, its fields)
    (
        triples.Triple(1, 1, 1, 1),
        triples.Triple(1, 1, 1, 1),
        triples.Triple(1, 1, 2, 2),
        "Triple(s=1, a=1, b=1, c=1)",
        ("s", "a", "b", "c"),
    ),
    (
        search.Classification(
            triples.Triple(1, 1, 2, 2),
            ("base", "r-family", "frontier-limited"),
            (2, 0, 1),
            1,
            (Fraction(7), Fraction(2), Fraction(2)),
        ),
        search.classify(1, 2)[1],
        search.classify(1, 2)[0],
        "Classification(triple=Triple(s=1, a=1, b=2, c=2), tags=('base', 'r-family', 'frontier-limited'), "
        "family=(2, 0, 1), component=1, conjugates=(Fraction(7, 1), Fraction(2, 1), Fraction(2, 1)))",
        ("triple", "tags", "family", "component", "conjugates"),
    ),
    (
        triples.SolutionGraph(12, 100, ((13, 15, 20), (15, 20, 37)), ((0, 1, 0),), ()),
        triples.solution_graph(triples.Triple(12, 13, 15, 20), 100),
        triples.solution_graph(triples.Triple(12, 13, 15, 20), 30),
        "SolutionGraph(s=12, bound=100, vertices=((13, 15, 20), (15, 20, 37)), edges=((0, 1, 0),), frontier=())",
        ("s", "bound", "vertices", "edges", "frontier"),
    ),
    (
        pell.PellInstance(3, 1),
        pell.PellInstance(3, 1, pell.FORM_Z),
        pell.PellInstance(3, 1, pell.FORM_A),
        "PellInstance(d=3, rhs=1, form='z2-da2')",
        ("d", "rhs", "form"),
    ),
]


@pytest.mark.parametrize(
    "value, same, other, text, fields", VALUE_TYPES, ids=["Triple", "Classification", "SolutionGraph", "PellInstance"]
)
def test_frozen_value_types_keep_their_repr_equality_and_hash(value, same, other, text, fields):
    assert repr(value) == text
    assert value == same and hash(value) == hash(same) and not value != same
    assert value != other and not value == other
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(other, name))
    assert value == same
    # equality is by class and fields, so the tuple of the fields is not equal; there is no order
    assert value != tuple(getattr(value, name) for name in fields)
    with pytest.raises(TypeError):
        value < other


def test_triple_is_not_a_tuple():
    t = triples.Triple(1, 1, 1, 1)
    assert t != (1, 1, 1, 1) and (1, 1, 1, 1) != t
    assert {t: 1}.get((1, 1, 1, 1)) is None


def test_overlap_report_is_a_mutable_unhashable_value():
    report = markov.sequence_overlap_search(1, 2, 3)
    assert repr(report) == (
        "OverlapReport(bounds={'max_entry': 1, 'max_block_len': 2, 'max_terms': 3}, matches_s_ge_2=[], s1_coincidences=[])"
    )
    same = markov.OverlapReport({"max_entry": 1, "max_block_len": 2, "max_terms": 3}, [], [])
    assert report == same and report != markov.OverlapReport({}, [], [])
    assert report != (report.bounds, [], [])
    with pytest.raises(TypeError):
        hash(report)
    same.matches_s_ge_2 = [1]
    assert report != same
