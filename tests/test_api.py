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
