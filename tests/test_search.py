import csv
import gc
import io
import json
import tracemalloc
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cayleycubic import (
    BudgetExceededError,
    InvariantError,
    NotASolutionError,
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
from cayleycubic import triples
from cayleycubic.cli import run
from cayleycubic.search import TAG_ORDER, Classification
from cayleycubic.triples import base_value
from conftest import chunk_sizes, fraction_conjugate


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


@given(s=st.integers(1, 40), bound=st.integers(1, 400))
@settings(max_examples=60, deadline=None)
def test_base_run_and_diagonal_facts_against_grid_oracle(s, bound):
    grid = _grid_enumerate(s, bound)
    # a = s: the cubic is s(b - c)^2 = 0
    assert all(b == c for a, b, c in grid if a == s)
    # a = b: the roots in c are s and (2a^2 - s^2)/s
    assert all(c == s or s * c == 2 * a * a - s * s for a, b, c in grid if a == b)
    # the square-class join, each member also paired with itself, gives every grid row but the base run
    assert sorted(sr._enumerate_range(s, bound)) == [r for r in grid if r[0] != s]
    assert [r for r in grid if r[0] == s] == [(s, p, p) for p in range(s, bound + 1)]


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


def _square_class_scan(s, bound):
    """Reference oracle: for each a, scan the w of its square class.

    The quadratic in c has the roots (ab +- r)/s with r^2 = (a^2-s^2)(b^2-s^2).
    For a > s write a^2 - s^2 = f*g^2 with f squarefree: the product is a
    square exactly when b^2 - s^2 = f*w^2, and then r = f*g*w, so only those
    b are visited.  a = s gives the rows (s, b, b); for a < s only b < s can
    give a root c >= b, and then s^2 - b^2 = f*w^2 with 1 <= w <= g.
    """
    rows = []
    if s * s > 3 * bound * bound:
        return rows
    ss, bb = s * s, bound * bound
    core = sr._squarefree_cores(bound + s)
    for a in range(1, bound + 1):
        if a == s:
            rows.extend((s, b, b) for b in range(s, bound + 1))
            continue
        u, v = core[abs(a - s)], core[a + s]
        h = gcd(u, v)
        f = (u // h) * (v // h)
        g = isqrt(abs(a * a - ss) // f)
        # b^2 - s^2 = sf*w^2 takes the sign of a^2 - s^2
        if a > s:
            sf, ws = f, range(g, isqrt((bb - ss) // f) + 1)
        else:
            sf, ws = -f, range(1, g + 1)
        for w in ws:
            b2 = ss + sf * w * w
            b = isqrt(b2)
            if b * b != b2:
                continue
            c, rem = divmod(a * b + f * g * w, s)
            if rem == 0 and b <= c <= bound:
                rows.append((a, b, c))
    return sorted(rows)


# up to 3 no prime runs, up to 15 only the strides p^2, 16 and 63 add 2^4, 64 adds 2^6
@pytest.mark.parametrize("n", [1, 2, 3, 4, 15, 16, 63, 64, 5000])
def test_squarefree_cores_match_trial_division(n):
    # the core of k is the product of the primes that divide k an odd number of times
    def core(k):
        out, p = 1, 2
        while p * p <= k:
            e = 0
            while k % p == 0:
                k, e = k // p, e + 1
            out *= p ** (e % 2)
            p += 1
        return out * k  # what is left is 1 or a prime

    table = sr._squarefree_cores(n)
    assert len(table) == n + 1 and table[0] == 0
    for k in range(1, n + 1):
        assert table[k] == core(k), k


@pytest.mark.parametrize("bound", [1, 2, 7, 50, 400, 2010])
def test_enumerate_matches_square_class_scan(bound):
    for s in [*range(1, 41), 48, 60, 100]:
        got = [t.components for t in enumerate_solutions(s, bound)]
        assert got == _square_class_scan(s, bound), (s, bound)


@pytest.mark.parametrize(
    "s, bound",
    [
        (1, 20000),
        (7, 20000),
        # the search shapes of the benchmark's scan workload
        (1, 2020),
        (12, 2004),
        (24, 2018),
        (16, 2500),
        (11, 3004),
        (37, 2518),
    ],
)
def test_enumerate_pinned_against_square_class_scan(s, bound):
    assert [t.components for t in enumerate_solutions(s, bound)] == _square_class_scan(s, bound)


@pytest.mark.parametrize(
    "s, row",
    [
        # a = b in the class +3: 2^2 - 1 = 3*1^2, r = 3, c = (4 + 3)/1
        (1, (2, 2, 7)),
        # a < s in the class -7: 3^2 - 24^2 = -7*9^2, 18^2 - 24^2 = -7*6^2,
        # r = 7*9*6 = 378, c = (54 + 378)/24
        (24, (3, 18, 18)),
        # a < b in the class +1: 13^2 - 12^2 = 5^2, 15^2 - 12^2 = 9^2,
        # r = 45, c = (195 + 45)/12; a sits on the bound of the small members,
        # isqrt(12*(20 + 12)/2) = 13, as in each row below
        (12, (13, 15, 20)),
        # the class +2: 9^2 - 7^2 = 2*4^2, 11^2 - 7^2 = 2*6^2, r = 48, c = (99 + 48)/7;
        # isqrt(7*(21 + 7)/2) = 9
        (7, (9, 11, 21)),
        # the class +1: 25^2 - 24^2 = 7^2, 26^2 - 24^2 = 10^2, r = 70, c = (650 + 70)/24;
        # isqrt(24*(30 + 24)/2) = 25
        (24, (25, 26, 30)),
        # the class +1: 50^2 - 48^2 = 14^2, 52^2 - 48^2 = 20^2, r = 280, c = (2600 + 280)/48;
        # isqrt(48*(60 + 48)/2) = 50
        (48, (50, 52, 60)),
    ],
)
def test_enumerate_finds_each_kind_of_class_pair(s, row):
    assert Triple(s, *row).is_solution
    assert row in [t.components for t in enumerate_solutions(s, row[2])]


def test_enumerate_with_no_room_builds_no_core_table(monkeypatch):
    def no_table(n):
        raise RuntimeError(f"core table of {n} built")

    monkeypatch.setattr(sr, "_squarefree_cores", no_table)
    # 3*bound^2 < s^2: no solution fits, however large s is
    assert enumerate_solutions(70, 40) == []
    assert enumerate_solutions(10**9, 10) == []


@pytest.mark.parametrize("s", [1, 2])
def test_chain_rows_match_the_join_at_every_bound_to_3000(s):
    # the join's rows within a bound B are its rows within 3000 that have c <= B
    join = sorted(sr._enumerate_range(s, 3000))
    for bound in range(1, 3001):
        assert sorted(sr._chain_rows(s, bound)) == [r for r in join if r[2] <= bound], bound


@pytest.mark.parametrize("s", [1, 2])
def test_chain_rows_match_the_join_across_chain_values_and_the_last_base(s):
    # X_2 = 2p^2/s - s of base p is the least bound whose walk reaches p (p = 17 = X_2 of
    # base 3 at s = 1 is not primitive); each X_k is where a triple (X_i, X_j, X_k) enters
    bounds = set()
    for p in (3, 17, 200, 201):
        xs = sr._chain_values(s, p, 130000)
        bounds |= {x + d for x in xs[2:] for d in (-1, 0, 1)}
        split = [isqrt(s * (x + s) // 2) for x in (xs[2] - 1, xs[2])]
        assert split == [p - 1, p]
    for bound in sorted(bounds):
        assert sorted(sr._chain_rows(s, bound)) == sorted(sr._enumerate_range(s, bound)), bound


@pytest.mark.parametrize("s", [1, 2])
def test_chain_rows_build_no_class_table(monkeypatch, capsys, s):
    def no_table(*args):
        raise RuntimeError("the class table or the join was built")

    rows = sr._solution_rows(s, 20000, None)
    monkeypatch.setattr(sr, "_squarefree_cores", no_table)
    monkeypatch.setattr(sr, "_enumerate_range", no_table)
    assert sr._solution_rows(s, 20000, None) == rows
    assert len(classify(s, 2000)) == len(enumerate_solutions(s, 2000))
    for cmd in ("search", "classify"):
        assert run([cmd, "--s", str(s), "--bound", "20000"]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        sr._solution_rows(s, 10**6, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # 828 rows at s = 1, 1 207 at s = 2; the join's class table took about 100 MB


def _held_after(call):
    """(the result of call(), the bytes it allocated that are still held when it returns).

    A full collection empties CPython's free lists, before the call and before the reading:
    a tuple the call takes from a free list filled earlier is not traced, and one it frees
    stays there and stays counted, so without them the reading depends on what ran before."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("s", [1, 12, 30])
def test_enumerate_holds_one_copy_of_its_rows(s):
    # the rows hold no base row (s, p, p), so what stays held grows with the
    # non-base rows, about sqrt(bound), not with the bound: under 3x for 4x the bound
    held = {}
    for bound in (20000, 80000):
        rows, held[bound] = _held_after(lambda: sr._solution_rows(s, bound, None))
        assert rows == sorted(rows) and all(a != s for a, _, _ in rows)
        assert len(rows) < 4 * isqrt(bound)
    assert held[80000] < 3 * held[20000]
    assert held[20000] < 8 * 20000  # less than one pointer per base row


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


def _chain(s, b, length):
    """X_0 .. X_{length-1} of the chain at base (s, b), from its recurrence."""
    xs = [s, b]
    while len(xs) < length:
        xs.append(2 * b // s * xs[-1] - xs[-2])
    return xs[:length]


def _scan_family(s, b, t):
    """Brute-force membership of t in the chain at base (s, b): the least
    index pair i <= j, 0 < j <= 16, whose (X_i, X_{i+j}, X_j) is a permutation
    of t, then, with g = gcd(i, j), base X_g and the pair found by scanning
    the chain at base (s, X_g) in the same way."""
    xs = _chain(s, b, 33)
    want = sorted(t.components)
    pairs = [(i, j) for j in range(1, 17) for i in range(j + 1) if sorted((xs[i], xs[i + j], xs[j])) == want]
    if 2 * b // s >= 3:  # the chain strictly increases: the pair is unique
        assert len(pairs) == 1, (s, b, t, pairs)
    i, j = min(pairs)
    g = gcd(i, j)
    if g == 1:
        return (b, i, j)
    inner = _scan_family(s, xs[g], t)
    assert inner[1:] == (i // g, j // g), (s, b, t, inner)
    return inner


def test_family_membership_matches_a_scan_of_index_pairs():
    inputs = 0
    for s in range(1, 9):
        for mult in range(3, 13):
            if s * mult % 2:
                continue
            b = s * mult // 2
            for n in range(9):
                for m in range(9):
                    if (n, m) == (0, 0):
                        continue
                    t = family_triple(s, b, n, m)
                    assert family_membership(t) == _scan_family(s, b, t), (s, b, n, m)
                    inputs += 1
    assert inputs == 4800
    # the terminals of multipliers 1 and 2 at s = 12, whose chains do not increase
    for b, t in ((6, Triple(12, 6, 6, 12)), (12, Triple(12, 12, 12, 12))):
        assert family_membership(t) == _scan_family(12, b, t) == (b, 0, 1)


def _fake_trace(monkeypatch, *steps):
    monkeypatch.setattr(sr, "reduction_trace", lambda t: [Triple(1, *c) for c in steps])


# Each fake trace ends at the terminal (1, 2, 2) of the chain 1, 2, 7, 26, 97, ...


def test_family_membership_rejects_a_step_changing_two_components(monkeypatch):
    _fake_trace(monkeypatch, (5, 6, 7), (1, 2, 2))
    with pytest.raises(InvariantError, match=r"\(5, 6, 7\) has a component off the chain at base \(1, 2\)"):
        family_membership(Triple(1, 5, 6, 7))


def test_family_membership_rejects_a_step_at_the_wrong_index(monkeypatch):
    # 2 = X_1 twice, but 1000 is no chain value
    _fake_trace(monkeypatch, (2, 2, 1000), (2, 2, 7), (1, 2, 2))
    with pytest.raises(InvariantError, match=r"\(2, 2, 1000\) has a component off the chain"):
        family_membership(Triple(1, 2, 2, 1000))
    # every value on the chain, at indices (1, 2, 4): not of the form (n, m, n + m)
    _fake_trace(monkeypatch, (2, 7, 97), (1, 2, 2))
    with pytest.raises(InvariantError, match=r"indices \(1, 2, 4\), not \(n, m, n \+ m\)"):
        family_membership(Triple(1, 2, 7, 97))


def test_family_membership_rejects_a_replay_off_the_chain(monkeypatch):
    # 1 and 2 are X_0 and X_1, but 8 is no chain value
    _fake_trace(monkeypatch, (1, 2, 8), (1, 2, 2))
    with pytest.raises(InvariantError, match=r"\(1, 2, 8\) has a component off the chain"):
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


def _reference_classify(s, bound):
    """Reference for classify: the per-triple post-pass, one family_membership
    (one whole reduction trace) and three Fraction subtractions per solution."""
    sols = enumerate_solutions(s, bound)
    verts = [t.components for t in sols]
    index = {v: i for i, v in enumerate(verts)}
    parent = list(range(len(verts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    frontier = [False] * len(verts)
    isolated = [True] * len(verts)
    for i, v in enumerate(verts):
        for k in range(3):
            cv = fraction_conjugate(s, v, k)
            if cv is None or cv < 1:
                continue
            isolated[i] = False
            if cv == v[k]:
                continue
            w = tuple(sorted(v[:k] + (cv,) + v[k + 1 :]))
            if max(w) <= bound:
                union(i, index[w])
            else:
                frontier[i] = True
    roots = [find(i) for i in range(len(verts))]
    component_of = {}
    for i, r in enumerate(roots):
        component_of.setdefault(r, i)
    out = []
    for i, t in enumerate(sols):
        fam = family_membership(t)
        tags = []
        if base_value(t) is not None:
            tags.append("base")
        if fam is not None:
            tags.append("r-family")
        if isolated[i]:
            tags.append("isolated")
        if frontier[i]:
            tags.append("frontier-limited")
        out.append(
            Classification(
                triple=t,
                tags=tuple(tags),
                family=fam,
                component=component_of[roots[i]],
                conjugates=tuple(conjugate_component(Triple(s, *verts[i]), k) for k in range(3)),
            )
        )
    return out


def _triples_csv_oracle(sols):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["s", "a", "b", "c"])
    for t in sols:
        w.writerow([t.s, t.a, t.b, t.c])
    return buf.getvalue()


def _triples_jsonl_oracle(sols):
    lines = [json.dumps({"s": t.s, "triple": [t.a, t.b, t.c]}) for t in sols]
    return "\n".join(lines) + ("\n" if lines else "")


def _classifications_csv_oracle(rows):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["s", "a", "b", "c", "tags", "conj_a", "conj_b", "conj_c"])
    for r in rows:
        a, b, c = r.triple.components
        w.writerow([r.triple.s, a, b, c, "|".join(r.tags), *[str(f) for f in r.conjugates]])
    return buf.getvalue()


def _classifications_jsonl_oracle(rows):
    lines = [
        json.dumps(
            {
                "s": r.triple.s,
                "triple": list(r.triple.components),
                "tags": list(r.tags),
                "family": list(r.family) if r.family is not None else None,
                "component": r.component,
                "conjugates": [str(f) for f in r.conjugates],
            }
        )
        for r in rows
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _assert_same_text(got, want):
    # report the first differing line: pytest's diff of two long strings takes minutes
    for k, (g, w) in enumerate(zip(got.splitlines(True), want.splitlines(True))):
        assert g == w, f"line {k}"
    assert len(got) == len(want) and got == want


def test_search_base_blocks_match_the_line_formula(monkeypatch):
    # search writes the base lines of p >= 10 by blocks of 100 consecutive p; the base run
    # starts (p = s) and ends (p = bound) on each side of 10, 100, 1000 and 10000, and chunks
    # of 7 and 100 lines cut it at other places; each bound's rows are enumerated once
    solution_rows = sr._solution_rows
    for s in (1, 2, 9, 10, 11, 99, 100, 101, 1000):
        for bound in (9, 10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10000, 10001):
            rows = solution_rows(s, bound, None)
            monkeypatch.setattr(sr, "_solution_rows", lambda *a, rows=list(rows): rows)
            nlow = bisect_left(rows, (s,))
            rows[nlow:nlow] = [(s, p, p) for p in range(s, bound + 1)]
            csv_lines = ["s,a,b,c\r\n", *(f"{s},{a},{b},{c}\r\n" for a, b, c in rows)]
            jsonl_lines = [f'{{"s": {s}, "triple": [{a}, {b}, {c}]}}\n' for a, b, c in rows]
            for size in (7, 100):
                monkeypatch.setattr(triples, "_CHUNK_LINES", size)
                for csv_format, lines in ((True, csv_lines), (False, jsonl_lines)):
                    got, want = "".join(sr._chunks(s, bound, None, csv_format, False)), "".join(lines)
                    if got != want:  # the line diff only on a failure: it is the slow part
                        _assert_same_text(got, want)


def _assert_writers_match_oracles(sols, rows):
    _assert_same_text(sr.triples_to_csv(sols), _triples_csv_oracle(sols))
    _assert_same_text(sr.triples_to_jsonl(sols), _triples_jsonl_oracle(sols))
    _assert_same_text(sr.classifications_to_csv(rows), _classifications_csv_oracle(rows))
    _assert_same_text(sr.classifications_to_jsonl(rows), _classifications_jsonl_oracle(rows))


@given(s=st.integers(1, 40), bound=st.integers(1, 400))
@settings(max_examples=60, deadline=None)
def test_classify_matches_reference(s, bound):
    assert classify(s, bound) == _reference_classify(s, bound)


@pytest.mark.parametrize("s", [1, 12, 24])
@pytest.mark.parametrize("bound", [2000, 2013, 2020])
def test_classify_matches_reference_at_scan_shapes(s, bound):
    rows = classify(s, bound)
    ref = _reference_classify(s, bound)
    assert rows == ref
    _assert_writers_match_oracles([r.triple for r in rows], rows)


@pytest.mark.parametrize(
    "s, bound, shapes",
    [
        # multiplier 2p/s = 1 (p = s/2) and 2 (p = s, a = b = c); a = b and b = c ties
        (12, 40, [(6, 6, 12), (12, 12, 12), (12, 18, 18), (13, 15, 20)]),
        (24, 80, [(12, 12, 24), (24, 24, 24), (3, 18, 18), (30, 30, 51), (24, 30, 30)]),
        (2, 60, [(1, 1, 2), (2, 2, 2), (2, 3, 3)]),
        (1, 60, [(1, 1, 1), (1, 2, 2), (2, 2, 7)]),
        (6, 100, [(3, 3, 6), (6, 6, 6), (6, 9, 9), (9, 9, 21)]),
        # the closed form of the base rows (s, p, p): p = s has no move; 8 does not
        # divide 2 * 9**2, so (8, 9, 9) has no move either; 8 | 2 * 10**2 but not
        # 2 * 10, so (8, 10, 10) moves to (10, 10, 17), a union at 17 and past the
        # bound at 16, with no family; (8, 16, 16) has a family and is frontier-limited
        (8, 16, [(8, 8, 8), (8, 9, 9), (8, 10, 10), (8, 16, 16)]),
        (8, 17, [(8, 8, 8), (8, 9, 9), (8, 10, 10), (8, 16, 16), (10, 10, 17)]),
        # 3 does not divide 2 * 4**2: no move
        (3, 6, [(3, 4, 4)]),
    ],
)
def test_classify_matches_reference_on_bases_and_ties(s, bound, shapes):
    rows = classify(s, bound)
    assert rows == _reference_classify(s, bound)
    comps = {r.triple.components for r in rows}
    assert set(shapes) <= comps


def _shrinks_by_c(s, comps):
    """Whether the move of c, the maximal component, lands on a smaller triple."""
    cv = fraction_conjugate(s, comps, 2)
    return cv is not None and 0 < cv < comps[2]


@pytest.mark.parametrize("s", range(1, 41))
def test_base_rows_are_the_roots_of_a_forest(s):
    # the facts that let classify write each base row's component as its own index, on the
    # reference pass's components; s - 1 and s are the bounds below and at the base run
    for bound in sorted({max(s - 1, 1), s, s + 1, 3 * s, 400}):
        rows = _reference_classify(s, bound)
        assert classify(s, bound) == rows
        members = {}
        for i, r in enumerate(rows):
            if r.triple.a == s:
                assert r.component == i, (bound, r.triple)
            members.setdefault(r.component, []).append((i, r.triple.components))
        for k, group in members.items():
            box = {comps[0] < s for _, comps in group}
            # a move keeps two components, so no component mixes a < s with a >= s
            assert len(box) == 1, (bound, group)
            if box == {False}:
                # a tree: one row has no parent by its move of c, and it is the least
                assert [i for i, comps in group if not _shrinks_by_c(s, comps)] == [k], (bound, group)


@pytest.mark.parametrize("bound", [13, 14, 40])
def test_box_rows_join_two_descent_roots(bound):
    # why the union-find stays: at s = 14 neither (2, 7, 13) nor (7, 11, 13) has a move of c
    # that shrinks it, yet the move of a joins them; only box rows (a < s) can do this
    assert not _shrinks_by_c(14, (2, 7, 13)) and not _shrinks_by_c(14, (7, 11, 13))
    rows = classify(14, bound)
    by = {r.triple.components: (i, r) for i, r in enumerate(rows)}
    (i, low), (_, high) = by[(2, 7, 13)], by[(7, 11, 13)]
    assert low.component == high.component == i
    assert rows == _reference_classify(14, bound)


def test_box_rows_join_rows_with_no_earlier_neighbour():
    # at s = 128 neither (47, 96, 114) nor (72, 96, 124) has a neighbour that sorts earlier;
    # only the later (96, 114, 124) joins them, so a pass that gave each row the component
    # of its first earlier neighbour would split them
    joined = [(47, 96, 114), (72, 96, 124), (96, 114, 124)]
    for t in joined[:2]:
        assert all(moved > t for _, v, moved in sr._row_moves(128, *t) if v <= 124), t
    rows = classify(128, 124)
    by = {r.triple.components: r for r in rows}
    assert [by[t].component for t in joined] == [8, 8, 8]
    assert rows == _reference_classify(128, 124)


@pytest.mark.parametrize("s", [176, 189, 207])
def test_classify_matches_reference_where_a_later_box_row_joins(s):
    # the next components, after s = 128, that only a later box row joins, at bound 2s + 2;
    # s <= 40, the range of the property test, has none
    assert classify(s, 2 * s + 2) == _reference_classify(s, 2 * s + 2)


def test_classify_runs_no_trace_and_no_membership(monkeypatch):
    calls = {"reduction_trace": 0, "family_membership": 0}

    def counting(name):
        real = getattr(sr, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(sr, name, counting(name))
    rows = classify(1, 2020)
    assert calls == {"reduction_trace": 0, "family_membership": 0}
    assert len(rows) > 2020 and all(r.family is not None for r in rows)


def test_classify_checks_every_triple_solves(monkeypatch, capsys):
    # the non-solution enters below the row pass, so the library and the CLI both meet it;
    # s = 1 enumerates from the chain bases
    real = sr._chain_rows
    monkeypatch.setattr(sr, "_chain_rows", lambda *a: real(*a) + [(60, 60, 61)])
    with pytest.raises(NotASolutionError, match=r"\(s=1; 60,60,61\) is not a solution \(value -428280\)"):
        classify(1, 61)
    for fmt in ("jsonl", "csv"):
        assert run(["classify", "--s", "1", "--bound", "61", "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: (s=1; 60,60,61) is not a solution (value -428280)\n"


@pytest.mark.parametrize(
    "s, bound, dropped, mover",
    [
        # the move of (2, 7, 26) lands inside the list, where (2, 2, 7) would sort
        (1, 30, (2, 2, 7), (2, 7, 26)),
        # (9, 21, 43) is the last row: the move of (9, 11, 21) lands past the end of the list
        (7, 43, (9, 21, 43), (9, 11, 21)),
    ],
)
def test_classify_requires_every_moved_row_enumerated(monkeypatch, capsys, s, bound, dropped, mover):
    kernel = "_chain_rows" if s <= 2 else "_enumerate_range"  # the enumeration kernel of s
    real = getattr(sr, kernel)
    monkeypatch.setattr(sr, kernel, lambda *a: [r for r in real(*a) if r != dropped])
    message = f"the move of {mover} lands on {dropped}, which was not enumerated"
    with pytest.raises(InvariantError) as exc:
        classify(s, bound)
    assert str(exc.value) == message
    for fmt in ("jsonl", "csv"):
        assert run(["classify", "--s", str(s), "--bound", str(bound), "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_classify_refuses_a_move_onto_a_row_at_a_s_off_the_base_run(monkeypatch, capsys):
    # a row with a = s is a base row only when it is (s, p, p): a move onto (12, 30, 31),
    # which is not one and was not enumerated, is refused, not taken for the base row of 30
    real = sr._row_moves

    def moves(s, a, b, c):
        yield from real(s, a, b, c)
        if (s, a, b, c) == (12, 13, 15, 20):
            yield 2, 30, (12, 30, 31)

    monkeypatch.setattr(sr, "_row_moves", moves)
    message = "the move of (13, 15, 20) lands on (12, 30, 31), which was not enumerated"
    with pytest.raises(InvariantError) as exc:
        classify(12, 100)
    assert str(exc.value) == message
    for fmt in ("jsonl", "csv"):
        assert run(["classify", "--s", "12", "--bound", "100", "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("s", [12, 30])
def test_classify_pass_keeps_no_component_list(s):
    # once _chunks returns, the pass has run; what it holds is a tag and a family per
    # non-base row and the components of the rows a move touched, nothing per base row,
    # so it grows with the non-base rows, about sqrt(bound): under 3x for 4x the bound
    held = {}
    for bound in (20000, 80000):
        chunks, held[bound] = _held_after(lambda: sr._chunks(s, bound, None, False, True))
        assert next(chunks).startswith(f'{{"s": {s}, "triple": [1, ')
    assert held[80000] < 3 * held[20000]
    assert held[20000] < 8 * 20000  # less than one pointer per base row


def _patch_chain(monkeypatch, edit):
    """Make search read the chain at base (1, 2) through `edit`; bound 100
    gives 1, 2, 7, 26, 97.  The rows of s = 1 are enumerated first, from the
    true chain, so that only the classify pass reads the edited one."""
    real, rows = sr._chain_values, sr._chain_rows(1, 100)
    monkeypatch.setattr(sr, "_chain_rows", lambda s, bound: list(rows))

    def patched(s, p, bound):
        xs = real(s, p, bound)
        return edit(xs) if (s, p) == (1, 2) else xs

    monkeypatch.setattr(sr, "_chain_values", patched)


def test_classify_rejects_a_step_changing_two_components(monkeypatch):
    # X_2 = 7 dropped: (2, 2, 7), the first member past a terminal, is off the chain
    _patch_chain(monkeypatch, lambda xs: xs[:2] + xs[3:])
    with pytest.raises(InvariantError, match=r"\(2, 2, 7\) has a component off the chain at base \(1, 2\)"):
        classify(1, 100)


def test_classify_rejects_a_step_at_the_wrong_index(monkeypatch):
    # X_3 and X_4 swapped: (2, 7, 26) sits at indices (1, 2, 4)
    _patch_chain(monkeypatch, lambda xs: xs[:3] + [xs[4], xs[3]] + xs[5:])
    with pytest.raises(InvariantError, match=r"\(2, 7, 26\) sits at chain indices \(1, 2, 4\), not \(n, m, n \+ m\)"):
        classify(1, 100)


def test_classify_rejects_a_replay_off_the_chain(monkeypatch):
    # the chain shifted by one index: (2, 2, 7) sits at indices (0, 0, 1)
    _patch_chain(monkeypatch, lambda xs: xs[1:])
    with pytest.raises(InvariantError, match=r"\(2, 2, 7\) sits at chain indices \(0, 0, 1\)"):
        classify(1, 100)
    # family_membership reads the same kernel
    with pytest.raises(InvariantError, match=r"sits at chain indices \(0, 0, 1\)"):
        family_membership(Triple(1, 2, 2, 7))


def _hand_row(tags, family, conjugates, s=5, triple=(1, 1, 5), component=0):
    return Classification(Triple(s, *triple), tags, family, component, conjugates)


def test_writers_match_oracles_on_hand_rows():
    conj = [
        (Fraction(-24, 5), Fraction(-24, 5), Fraction(-23, 5)),  # negative, denominator > 1
        (Fraction(7), Fraction(-3), Fraction(0)),  # denominator 1, negative and zero
        (Fraction(577, 2), Fraction(328, 3), Fraction(73, 2)),
    ]
    every_tags = [combo for n in range(5) for combo in combinations(TAG_ORDER, n)]
    assert len(every_tags) == 16
    rows = [
        _hand_row(tags, (2, 1, 2) if k % 2 else None, conj[k % 3], component=k)
        for k, tags in enumerate(every_tags)
    ]
    _assert_writers_match_oracles([r.triple for r in rows], rows)
    big = family_triple(1, 10**40, 1, 2)
    _assert_writers_match_oracles([big], [_hand_row(("r-family",), (10**40, 1, 2), conj[1], 1, big.components, 7)])


@pytest.mark.parametrize("s", [1, 2, 3, 5, 7, 12, 24, 30, 40, 100])
def test_writers_match_oracles_on_classified_rows(s):
    rows = classify(s, 300)
    _assert_writers_match_oracles(enumerate_solutions(s, 300), rows)


def test_writers_on_a_bound_without_solutions(capsys):
    # 3 * 40**2 < 70**2: no solution at all
    assert classify(70, 40) == [] and enumerate_solutions(70, 40) == []
    _assert_writers_match_oracles([], [])
    for cmd, fmt, want in (
        ("search", "csv", "s,a,b,c\r\n"),
        ("search", "jsonl", ""),
        ("classify", "csv", "s,a,b,c,tags,conj_a,conj_b,conj_c\r\n"),
        ("classify", "jsonl", ""),
    ):
        assert run([cmd, "--s", "70", "--bound", "40", "--format", fmt]) == 0
        assert capsys.readouterr().out == want


# 8, 18 and 50 have a square factor, so a base row's first conjugate reduces: (8; 9, 9) gives 49/4
@pytest.mark.parametrize("s", [1, 12, 24, 8, 18, 50])
def test_cli_stdout_matches_oracle_writers(capsys, s):
    sols, ref = enumerate_solutions(s, 300), _reference_classify(s, 300)
    for cmd, fmt, want in (
        ("search", "csv", _triples_csv_oracle(sols)),
        ("search", "jsonl", _triples_jsonl_oracle(sols)),
        ("classify", "csv", _classifications_csv_oracle(ref)),
        ("classify", "jsonl", _classifications_jsonl_oracle(ref)),
    ):
        assert run([cmd, "--s", str(s), "--bound", "300", "--format", fmt]) == 0
        _assert_same_text(capsys.readouterr().out, want)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: enumerate_solutions(0, 10), ValueError, "s must be a positive integer, got 0"),
        (lambda: enumerate_solutions(1, 0), ValueError, "bound must be >= 1, got 0"),
        # a float is refused, not carried into a float result
        (lambda: enumerate_solutions(1, 10.5), ValueError, "^bound must be >= 1, got 10.5$"),
        (lambda: classify(1.0, 5), ValueError, "^s must be a positive integer, got 1.0$"),
    ],
)
def test_search_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("s, bound", [(1, 120), (12, 150), (24, 200)])
def test_cli_chunks_at_their_boundaries(monkeypatch, capsys, s, bound):
    sols, ref = enumerate_solutions(s, bound), _reference_classify(s, bound)
    nlow, nbase = sum(t.a < s for t in sols), bound - s + 1  # the rows below s, the base run
    runs = (nlow, nbase, len(sols) - nlow - nbase)
    for k in chunk_sizes(*runs):
        monkeypatch.setattr(triples, "_CHUNK_LINES", k)
        for cmd, fmt, want in (
            ("search", "csv", _triples_csv_oracle(sols)),
            ("search", "jsonl", _triples_jsonl_oracle(sols)),
            ("classify", "csv", _classifications_csv_oracle(ref)),
            ("classify", "jsonl", _classifications_jsonl_oracle(ref)),
        ):
            chunks = list(sr._chunks(s, bound, None, fmt == "csv", cmd == "classify"))
            # each run of rows in ceil(run / k) chunks, after a CSV header; no chunk holds more than k lines
            assert len(chunks) == sum(-(-n // k) for n in runs) + (fmt == "csv")
            assert all(chunk.count("\n") <= k for chunk in chunks)
            _assert_same_text("".join(chunks), want)
            assert run([cmd, "--s", str(s), "--bound", str(bound), "--format", fmt]) == 0
            _assert_same_text(capsys.readouterr().out, want)


def test_cli_past_two_default_chunks(capsys):
    # 8 286 rows: two whole chunks of 4096 and a part of a third
    sols = enumerate_solutions(1, 8200)
    assert len(sols) > 2 * triples._CHUNK_LINES
    assert run(["search", "--s", "1", "--bound", "8200", "--format", "csv"]) == 0
    _assert_same_text(capsys.readouterr().out, _triples_csv_oracle(sols))
    assert run(["classify", "--s", "1", "--bound", "8200"]) == 0
    _assert_same_text(capsys.readouterr().out, _classifications_jsonl_oracle(_reference_classify(1, 8200)))


@pytest.mark.parametrize("cmd", ["search", "classify"])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_cli_refusals_write_no_chunk(monkeypatch, capsys, cmd, fmt):
    monkeypatch.setattr(triples, "_CHUNK_LINES", 2)
    assert run([cmd, "--s", "1", "--bound", "100", "--budget", "5049", "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: enumeration at bound 100 needs 5050 quadratic solves, budget is 5049\n"
    if cmd == "classify":
        # the non-solution sorts last, past every chunk of good rows the pass has seen
        real = sr._chain_rows
        monkeypatch.setattr(sr, "_chain_rows", lambda *a: real(*a) + [(60, 60, 61)])
        assert run([cmd, "--s", "1", "--bound", "61", "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: (s=1; 60,60,61) is not a solution")
