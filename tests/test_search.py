import json
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cayleycubic import (
    BudgetExceededError,
    InvariantError,
    Triple,
    classifications_to_csv,
    classifications_to_jsonl,
    classify,
    conjugate_component,
    enumerate_solutions,
    family_membership,
    family_triple,
    triples_to_csv,
    triples_to_jsonl,
)
from cayleycubic import search as sr


def _grid_enumerate(s, bound):
    """Reference oracle: solve the quadratic in c at every (a, b) grid pair."""
    rows = []
    ss = s * s
    for a in range(1, bound + 1):
        da = a * a - ss
        for b in range(a, bound + 1):
            disc = da * (b * b - ss)
            if disc < 0:
                continue
            r = isqrt(disc)
            if r * r != disc:
                continue
            for num in {a * b - r, a * b + r}:
                if num <= 0:
                    continue
                c, rem = divmod(num, s)
                if rem == 0 and b <= c <= bound:
                    rows.append((a, b, c))
    return sorted(rows)


@given(s=st.integers(1, 40), bound=st.integers(1, 400))
@settings(max_examples=60, deadline=None)
def test_enumerate_matches_grid_oracle(s, bound):
    assert [t.components for t in enumerate_solutions(s, bound)] == _grid_enumerate(s, bound)


@pytest.mark.parametrize(
    "s, bound",
    [
        (30, 29),  # bound < s: only the a < s region can hold solutions
        (100, 300),  # a < s region with many rows below s
        (40, 400),
        (70, 40),  # 3*bound^2 < s^2: no solution at all
        (70, 41),
    ],
)
def test_enumerate_pinned_against_grid_oracle(s, bound):
    assert [t.components for t in enumerate_solutions(s, bound)] == _grid_enumerate(s, bound)


def test_enumerate_small_s5():
    got = [t.components for t in enumerate_solutions(5, 10)]
    assert got == [
        (1, 1, 5),
        (2, 2, 5),
        (3, 3, 5),
        (4, 4, 5),
        (5, 5, 5),
        (5, 6, 6),
        (5, 7, 7),
        (5, 8, 8),
        (5, 9, 9),
        (5, 10, 10),
    ]


def test_enumerate_s12_nonbase():
    base_shapes = {tuple(sorted((12, p, p))) for p in range(1, 41)}
    nonbase = [
        t.components for t in enumerate_solutions(12, 40) if t.components not in base_shapes
    ]
    assert nonbase == [(13, 15, 20), (15, 20, 37)]


def test_enumerate_s24_nonbase():
    base_shapes = {tuple(sorted((24, p, p))) for p in range(1, 81)}
    nonbase = [
        t.components for t in enumerate_solutions(24, 80) if t.components not in base_shapes
    ]
    assert nonbase == [
        (3, 18, 18),
        (25, 26, 30),
        (25, 40, 51),
        (26, 30, 40),
        (26, 51, 74),
        (30, 30, 51),
        (30, 40, 74),
    ]


def test_enumerate_is_sound_and_deterministic(s1_solutions_2000):
    assert all(t.is_solution for t in s1_solutions_2000)
    comps = [t.components for t in s1_solutions_2000]
    assert comps == sorted(comps)
    assert len(set(comps)) == len(comps)
    again = enumerate_solutions(1, 2000)
    assert [t.components for t in again] == comps


def test_enumerate_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_solutions(1, 100, budget=10)
    # the plan is bound*(bound+1)/2 quadratic solves; exactly that much is fine
    assert len(enumerate_solutions(1, 100, budget=5050)) == 109
    with pytest.raises(BudgetExceededError):
        classify(1, 100, budget=10)


def test_family_membership_examples():
    assert family_membership(Triple(3, 21, 4053, 291)) == (21, 1, 2)
    assert family_membership(Triple(1, 2, 26, 7)) == (2, 1, 2)
    assert family_membership(Triple(12, 18, 18, 12)) == (18, 0, 1)
    assert family_membership(Triple(1, 1, 1, 1)) == (1, 0, 1)
    assert family_membership(Triple(1, 1, 5, 5)) == (5, 0, 1)


def test_family_membership_rejections():
    # no integral conjugation move at all
    assert family_membership(Triple(24, 26, 51, 74)) is None
    # reducible component that never reaches a (s, p, p) terminal
    assert family_membership(Triple(12, 13, 15, 20)) is None
    assert family_membership(Triple(24, 3, 18, 18)) is None
    # base-shaped but the chain multiplier 2*18/24 is not integral
    assert family_membership(Triple(24, 24, 18, 18)) is None


@given(
    s=st.integers(1, 8),
    mult=st.integers(2, 12),
    n=st.integers(0, 8),
    m=st.integers(0, 8),
)
@settings(max_examples=150, deadline=None)
def test_family_membership_roundtrip(s, mult, n, m):
    # base b with chain multiplier 2b/s = mult, so s | 2b
    assume((s * mult) % 2 == 0 and (n, m) != (0, 0))
    b = s * mult // 2
    t = family_triple(s, b, n, m)
    assert t.is_solution
    fam = family_membership(t)
    assert fam is not None, (s, b, n, m)
    bb, nn, mm = fam
    assert nn <= mm
    rebuilt = family_triple(s, bb, nn, mm)
    assert sorted(rebuilt.components) == sorted(t.components)


def _fake_trace(monkeypatch, *steps):
    monkeypatch.setattr(sr, "reduction_trace", lambda t: [Triple(1, *c) for c in steps])


def test_family_membership_rejects_a_step_changing_two_components(monkeypatch):
    _fake_trace(monkeypatch, (5, 6, 7), (1, 2, 2))
    with pytest.raises(InvariantError, match="exactly one component"):
        family_membership(Triple(1, 5, 6, 7))


def test_family_membership_rejects_a_step_at_the_wrong_index(monkeypatch):
    # from (2, 2, 7) = (X_1, X_1, X_2) on base (1, 2) the step must replace
    # an X_1; replacing X_2 breaks the index replay
    _fake_trace(monkeypatch, (2, 2, 1000), (2, 2, 7), (1, 2, 2))
    with pytest.raises(InvariantError, match="replaces index 2, not 0"):
        family_membership(Triple(1, 2, 2, 1000))


def test_family_membership_rejects_a_replay_off_the_chain(monkeypatch):
    # consistent indices (0, 1, 1), but 8 is not X_1 = 2 of base (1, 2)
    _fake_trace(monkeypatch, (1, 2, 8), (1, 2, 2))
    with pytest.raises(InvariantError, match=r"gives \[1, 2, 2\], not \(1, 2, 8\)"):
        family_membership(Triple(1, 1, 2, 8))


def test_classify_s24_isolated():
    rows = classify(24, 80)
    assert len(rows) == 87
    by = {r.triple.components: r for r in rows}
    iso = by[(26, 51, 74)]
    assert iso.tags == ("isolated",)
    assert iso.family is None
    assert iso.conjugates == (Fraction(577, 2), Fraction(328, 3), Fraction(73, 2))
    # isolation means no *other* solution is reachable; triples whose only
    # integral conjugate is out of bound are tagged frontier-limited instead
    assert by[(25, 40, 51)].tags == ("frontier-limited",)
    assert by[(25, 40, 51)].conjugates[0] == 145


def test_classify_s24_components():
    rows = classify(24, 80)
    by = {r.triple.components: r for r in rows}
    # (3,18,18) <-> (18,18,24): conjugating 24 gives 2*18*18/24 - 24 = 3
    assert by[(3, 18, 18)].component == by[(18, 18, 24)].component
    assert by[(3, 18, 18)].tags == ()
    # the central non-base cluster
    cluster = {(25, 26, 30), (26, 30, 40), (30, 40, 74)}
    ids = {by[c].component for c in cluster}
    assert len(ids) == 1
    # (30,30,51) joins the base triple (24,30,30) via its third conjugate
    assert by[(30, 30, 51)].component == by[(24, 30, 30)].component
    assert by[(30, 30, 51)].conjugates[2] == 24


def test_classify_s12_pair_component():
    rows = classify(12, 40)
    by = {r.triple.components: r for r in rows}
    a, b = by[(13, 15, 20)], by[(15, 20, 37)]
    assert a.component == b.component
    members = [r.triple.components for r in rows if r.component == a.component]
    assert members == [(13, 15, 20), (15, 20, 37)]
    assert "r-family" not in a.tags and "r-family" not in b.tags
    assert a.tags == () and b.tags == ()
    assert a.family is None and b.family is None


def test_classify_s12_family_column():
    rows = classify(12, 40)
    by = {r.triple.components: r for r in rows}
    assert by[(6, 6, 12)].family == (6, 0, 1)
    assert by[(12, 12, 12)].family == (12, 0, 1)
    assert by[(12, 18, 18)].family == (18, 0, 1)
    assert by[(12, 18, 18)].tags == ("base", "r-family", "frontier-limited")
    assert by[(5, 5, 12)].family is None
    assert by[(5, 5, 12)].tags == ("base",)


def test_classify_s1_everything_in_family():
    rows = classify(1, 100)
    assert len(rows) == 109
    for r in rows:
        assert "r-family" in r.tags
        assert r.family is not None
        b, n, m = r.family
        rebuilt = family_triple(1, b, n, m)
        assert sorted(rebuilt.components) == list(r.triple.components)


def test_serialization_bytes():
    sols = enumerate_solutions(12, 40)
    assert triples_to_csv(sols[:2]) == "s,a,b,c\r\n12,1,1,12\r\n12,2,2,12\r\n"
    assert (
        triples_to_jsonl(sols[:2])
        == '{"s": 12, "triple": [1, 1, 12]}\n{"s": 12, "triple": [2, 2, 12]}\n'
    )
    rows = [r for r in classify(24, 80) if r.triple.components == (26, 51, 74)]
    assert classifications_to_csv(rows) == (
        "s,a,b,c,tags,conj_a,conj_b,conj_c\r\n24,26,51,74,isolated,577/2,328/3,73/2\r\n"
    )
    blob = json.loads(classifications_to_jsonl(rows))
    assert blob == {
        "s": 24,
        "triple": [26, 51, 74],
        "tags": ["isolated"],
        "family": None,
        "component": 84,
        "conjugates": ["577/2", "328/3", "73/2"],
    }


def test_big_component_exactness():
    # discriminant square tests must stay exact far beyond 64-bit floats
    big = 10**20
    t = family_triple(1, big, 1, 2)
    assert t.is_solution
    conj = conjugate_component(t, 0)
    assert conj.denominator == 1
    u = t.replace(0, int(conj))
    assert u.is_solution


@given(n=st.integers(min_value=2**255, max_value=2**256))
@settings(max_examples=30, deadline=None)
def test_square_discriminants_at_scale(n):
    # (n, n, 1) is a singular s=1 solution no matter how large n gets, and
    # conjugating the 1 walks up to the next chain element exactly
    t = Triple(1, n, n, 1)
    assert t.is_solution
    conj = conjugate_component(t, 2)
    assert conj == 2 * n * n - 1
