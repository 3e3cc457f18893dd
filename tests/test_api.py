import copy
import pickle
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


# One value of each of the five types, with its fields in order.
RECORDS = [(value, fields) for value, _, _, _, fields in VALUE_TYPES] + [
    (markov.OverlapReport({"max_entry": 1}, [], []), ("bounds", "matches_s_ge_2", "s1_coincidences"))
]
RECORD_IDS = ["Triple", "Classification", "SolutionGraph", "PellInstance", "OverlapReport"]


def _by_position(value):
    match value:
        case triples.Triple(s, a, b, c):
            return s, a, b, c
        case search.Classification(triple, tags, family, component, conjugates):
            return triple, tags, family, component, conjugates
        case triples.SolutionGraph(s, bound, vertices, edges, frontier):
            return s, bound, vertices, edges, frontier
        case pell.PellInstance(d, rhs, form):
            return d, rhs, form
        case markov.OverlapReport(bounds, matches, coincidences):
            return bounds, matches, coincidences


@pytest.mark.parametrize("value, fields", RECORDS, ids=RECORD_IDS)
def test_value_types_survive_pickle_and_copy(value, fields):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value and back is not value
    assert copy.copy(value) == value
    deep = copy.deepcopy(value)
    assert deep == value
    # a deep copy shares no mutable field with the original
    for name in fields:
        if isinstance(getattr(value, name), (list, dict)):
            assert getattr(deep, name) is not getattr(value, name)


@pytest.mark.parametrize("value, fields", RECORDS, ids=RECORD_IDS)
def test_value_types_match_and_build_by_field_name(value, fields):
    assert type(value).__match_args__ == fields
    assert _by_position(value) == tuple(getattr(value, name) for name in fields)
    assert type(value)(**{name: getattr(value, name) for name in fields}) == value
    # the fields live in slots: no instance dict, and no field outside the declared ones
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value, fields", RECORDS[:4], ids=RECORD_IDS[:4])
def test_frozen_value_types_refuse_deletes(value, fields):
    before = copy.copy(value)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == before and _by_position(value) == _by_position(before)


@pytest.mark.parametrize("cls, args", [(triples.Triple, (3, 3, 70, 70)), (pell.PellInstance, (3, 1))])
def test_construction_and_copies_call_post_init(monkeypatch, cls, args):
    # the CLI tests count the objects a command builds by patching __post_init__
    built = []
    post_init = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(self) or post_init(self))
    value = cls(*args)
    copy.copy(value)
    copy.deepcopy(value)
    pickle.loads(pickle.dumps(value))
    assert built == [value] * 4
    # and so the checks run for keyword construction too
    with pytest.raises(ValueError, match="^a must be a positive integer, got 0$"):
        triples.Triple(s=1, a=0, b=1, c=1)
    with pytest.raises(errors.DegeneratePellError):
        pell.PellInstance(d=4, rhs=1)


def test_overlap_report_as_dict_returns_fresh_containers():
    report = markov.sequence_overlap_search(1, 2, 3)
    first, second = report.as_dict(), report.as_dict()
    assert first == second == {
        "bounds": {"max_entry": 1, "max_block_len": 2, "max_terms": 3},
        "matches_s_ge_2": [],
        "s1_coincidences": [],
    }
    for name in ("bounds", "matches_s_ge_2", "s1_coincidences"):
        assert first[name] is not getattr(report, name) and first[name] is not second[name]
    first["matches_s_ge_2"].append(1)
    first["bounds"]["max_entry"] = 9
    assert report.matches_s_ge_2 == [] and report.bounds["max_entry"] == 1
    # fields can be assigned and deleted, as on a plain class
    report.s1_coincidences = [2]
    assert report.as_dict()["s1_coincidences"] == [2]
    del report.s1_coincidences
    with pytest.raises(AttributeError):
        report.s1_coincidences
    # a report that holds itself prints as the dataclass printed it
    report.s1_coincidences = [report]
    assert repr(report).endswith("s1_coincidences=[...])")


def test_pell_solution_is_a_named_pair():
    sol = pell.PellSolution(2, 1)
    assert sol == (2, 1) and sol.z == 2 and sol.a == 1 and repr(sol) == "PellSolution(z=2, a=1)"
    assert pell.PellSolution(a=1, z=2) == sol and pickle.loads(pickle.dumps(sol)) == sol
    assert pell.PellSolution._fields == ("z", "a")
