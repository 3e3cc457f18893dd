import json
import tracemalloc
from collections import deque
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cayleycubic import (
    BudgetExceededError,
    InvariantError,
    NonIntegralFamilyError,
    NotASolutionError,
    SolutionGraph,
    Triple,
    base_value,
    cayley_value,
    conjugate_component,
    enumerate_solutions,
    euclid_index_path,
    family_triple,
    is_base,
    is_singular,
    neighbors,
    reduction_trace,
    scaled_cheb_t,
    solution_graph,
)
from cayleycubic import triples
from cayleycubic.cli import run
from cayleycubic.triples import _conjugate
from conftest import chunk_pieces, chunk_sizes, fraction_conjugate


def conjugate_roots(s, y, z):
    """Both roots of the quadratic w^2 - (2yz/s) w + (y^2 + z^2 - s^2) = 0.

    Test-side oracle for the conjugation map: fixing two components of a
    solution, the third satisfies this quadratic, so the conjugate is the
    other root (yz +- sqrt((y^2-s^2)(z^2-s^2))) / s.
    """
    disc = (y * y - s * s) * (z * z - s * s)
    assert disc >= 0
    r = isqrt(disc)
    assert r * r == disc
    return Fraction(y * z - r, s), Fraction(y * z + r, s)


def moves_oracle(s, comps):
    """(component, sorted moved triple) for each conjugate that is a positive
    integer other than the component: the other root of `conjugate_roots`,
    so the graph oracle shares no code with the kernel it checks."""
    for i in range(3):
        lo, hi = conjugate_roots(s, *(comps[j] for j in range(3) if j != i))
        v = lo + hi - comps[i]
        if v.denominator == 1 and v >= 1 and v != comps[i]:
            yield i, tuple(sorted(comps[:i] + (int(v),) + comps[i + 1 :]))


def test_cayley_value_examples():
    assert cayley_value(1, 1, 1, 1) == 0
    assert cayley_value(1, 2, 7, 26) == 0
    assert cayley_value(3, 21, 4053, 291) == 0
    assert cayley_value(5, 5, 9, 9) == 0
    # near-miss from a plausible-looking chain triple with mismatched indices
    assert cayley_value(3, 21, 78, 291) == -679725
    assert cayley_value(2, 3, 4, 5) == 2 * 50 - 8 - 120


def test_triple_validation():
    with pytest.raises(ValueError):
        Triple(0, 1, 1, 1)
    with pytest.raises(ValueError):
        Triple(1, 0, 1, 1)
    with pytest.raises(ValueError):
        Triple(1, 1, -3, 1)


def test_triple_properties():
    t = Triple(3, 4053, 21, 291)
    assert t.components == (4053, 21, 291)
    assert t.value == 0
    assert t.is_solution
    assert t.canonical().components == (21, 291, 4053)
    assert t.replace(1, 9).components == (4053, 9, 291)
    assert not Triple(3, 1, 1, 1).is_solution


def test_conjugate_requires_solution():
    with pytest.raises(NotASolutionError):
        conjugate_component(Triple(3, 1, 1, 1), 0)


def test_conjugate_matches_quadratic_roots(s1_solutions_2000):
    for t in s1_solutions_2000[:300]:
        x, y, z = t.components
        for idx, (kept1, kept2) in ((0, (y, z)), (1, (x, z)), (2, (x, y))):
            lo, hi = conjugate_roots(t.s, kept1, kept2)
            conj = conjugate_component(t, idx)
            fixed = t.components[idx]
            assert conj in (lo, hi)
            # the two roots are the component and its conjugate
            assert {lo, hi} == {Fraction(fixed), conj}


def test_conjugate_vieta_relations():
    cases = [Triple(3, 21, 291, 4053), Triple(12, 13, 15, 20), Triple(24, 26, 51, 74)]
    for t in cases:
        for idx in range(3):
            others = [v for j, v in enumerate(t.components) if j != idx]
            conj = conjugate_component(t, idx)
            fixed = t.components[idx]
            assert fixed + conj == Fraction(2 * others[0] * others[1], t.s)
            assert fixed * conj == others[0] ** 2 + others[1] ** 2 - t.s**2


def test_conjugation_is_involutive(s1_solutions_2000):
    for t in s1_solutions_2000[:200]:
        for idx in range(3):
            conj = conjugate_component(t, idx)
            if conj.denominator != 1 or conj < 1:
                continue
            u = t.replace(idx, int(conj))
            assert u.is_solution
            assert conjugate_component(u, idx) == t.components[idx]


def test_neighbors_of_chain_example():
    t = family_triple(3, 6, 2, 4)
    assert t.components == (21, 4053, 291)
    assert t.value == 0
    got = [n.components for n in neighbors(t)]
    assert got == [(786261, 4053, 291), (21, 21, 291), (21, 4053, 56451)]


def test_neighbors_skip_non_integral_and_fixed():
    # (26,51,74) at s=24 has no integral conjugate at all
    assert neighbors(Triple(24, 26, 51, 74)) == []
    # a base triple (s,p,p): conjugating the repeated entry is the identity,
    # so it is dropped; only the s slot can move (here it cannot, 2*9*9/7 is
    # not integral)
    assert neighbors(Triple(7, 7, 9, 9)) == []


def assert_kernel_matches_oracle(s, comps):
    for i in range(3):
        y, z = (comps[j] for j in range(3) if j != i)
        assert _conjugate(s, comps[i], y, z) == fraction_conjugate(s, comps, i)


@given(s=st.integers(min_value=1, max_value=40), bound=st.integers(min_value=1, max_value=200))
@settings(max_examples=40, deadline=None)
def test_conjugate_kernel_on_enumerated_solutions(s, bound):
    for t in enumerate_solutions(s, bound):
        assert_kernel_matches_oracle(s, t.components)


@given(
    s=st.integers(min_value=1, max_value=12),
    mult=st.integers(min_value=3, max_value=12),
    n=st.integers(min_value=100, max_value=999),
    m=st.integers(min_value=100, max_value=999),
)
@settings(max_examples=30, deadline=None)
def test_conjugate_kernel_on_chain_triples(s, mult, n, m):
    assume(s * mult % 2 == 0)
    t = family_triple(s, s * mult // 2, n, m)
    assert_kernel_matches_oracle(s, t.components)
    # read at s + 1 the same components are no solution, and a conjugate
    # with hundreds of digits can be non-integral
    assert_kernel_matches_oracle(s + 1, t.components)


def test_neighbors_solve_the_cubic(s1_solutions_2000):
    triples = list(s1_solutions_2000)
    triples += enumerate_solutions(12, 400) + enumerate_solutions(24, 400)
    triples += [family_triple(3, 6, 40, 27), family_triple(2, 5, 300, 131)]
    moved = 0
    for t in triples:
        for nt in neighbors(t):
            assert nt.is_solution
            moved += 1
    assert moved


def test_family_triple_values():
    t = family_triple(1, 2, 1, 2)
    assert t.components == (2, 26, 7)
    assert family_triple(3, 6, 0, 1).components == (3, 6, 6)
    # 2b/s = 1: the chain 4, 2, -2, -4, -2, 2 repeats, and these indices stay on its positive terms
    assert family_triple(4, 2, 6, 1).components == (4, 2, 2)
    with pytest.raises(ValueError):
        family_triple(1, 2, 0, 0)
    with pytest.raises(NonIntegralFamilyError):
        family_triple(4, 3, 1, 1)


def test_singular_and_base_predicates():
    assert is_singular(Triple(1, 1, 5, 5))
    assert is_singular(Triple(1, 5, 1, 5))
    assert not is_singular(Triple(1, 2, 7, 26))
    assert base_value(Triple(3, 3, 7, 7)) == 7
    assert base_value(Triple(3, 21, 21, 3)) == 21
    assert base_value(Triple(3, 21, 291, 4053)) is None
    assert is_base(Triple(5, 5, 9, 9))
    assert not is_base(Triple(5, 9, 9, 9))


def test_reduction_trace_small():
    t = Triple(1, 2, 26, 7)
    trace = reduction_trace(t)
    assert [x.components for x in trace] == [(2, 7, 26), (2, 2, 7), (1, 2, 2)]


def test_reduction_trace_chain_example():
    t = Triple(3, 21, 4053, 291)
    trace = reduction_trace(t)
    assert [x.components for x in trace] == [
        (21, 291, 4053),
        (21, 21, 291),
        (3, 21, 21),
    ]
    assert is_base(trace[-1])


def test_reduction_terminal_is_chain_gcd():
    # the terminal of (R_n, R_{n+m}, R_m) is (s, R_g, R_g) with g = gcd(n, m)
    for s, b in ((1, 2), (1, 3), (3, 6), (2, 5)):
        for n in range(0, 6):
            for m in range(0, 6):
                if n == 0 and m == 0:
                    continue
                t = family_triple(s, b, n, m)
                g = gcd(n, m)
                want = tuple(sorted((s, scaled_cheb_t(s, b, g), scaled_cheb_t(s, b, g))))
                assert reduction_trace(t)[-1].components == want


def _reduction_by_max_index(t):
    """Reference for reduction_trace: conjugate the first maximal component
    of the canonical triple, as comps.index(max(comps)) names it, and sort
    the result again."""
    cur = t.canonical()
    trace = [cur]
    while True:
        comps = cur.components
        idx = comps.index(max(comps))
        v = fraction_conjugate(cur.s, comps, idx)
        if v is None or v < 1 or v >= comps[idx]:
            return trace
        cur = cur.replace(idx, v).canonical()
        trace.append(cur)


def _reduction_cases():
    for s in range(1, 13):
        yield from enumerate_solutions(s, 400)
        # (s, p, p) ties the maximum for p >= s, all three components at p == s
        yield from (Triple(s, s, p, p) for p in range(1, 41))
    yield Triple(3, 21, 291, 4053)  # its trace passes through (21, 21, 291)
    # (X_n, X_n, X_2n) reduces to the tie (s, X_n, X_n)
    for s in range(1, 7):
        for mult in (3, 4, 5, 6):
            if mult * s % 2 == 0:
                yield from (family_triple(s, mult * s // 2, n, n) for n in range(1, 9))


def test_reduction_trace_matches_the_max_index_oracle():
    ties = 0
    for t in _reduction_cases():
        trace = reduction_trace(t)
        assert trace == _reduction_by_max_index(t)
        ties += any(x.b == x.c for x in trace)
    assert ties > 500


def test_reduction_terminates_on_non_family_solutions():
    # isolated solution: the trace is just the triple itself
    trace = reduction_trace(Triple(24, 26, 51, 74))
    assert [x.components for x in trace] == [(26, 51, 74)]
    # base triple whose repeated value is below s still reduces no further
    # down the family ladder than its own shape allows
    trace = reduction_trace(Triple(24, 24, 18, 18))
    assert [x.components for x in trace] == [(18, 18, 24), (3, 18, 18)]


def test_euclid_index_path():
    assert euclid_index_path(2, 4) == [(2, 4), (2, 2), (2, 0)]
    assert euclid_index_path(1, 1) == [(1, 1), (1, 0)]
    assert euclid_index_path(5, 3) == [(5, 3), (2, 3), (2, 1), (1, 1), (1, 0)]
    assert euclid_index_path(0, 3) == [(0, 3)]
    with pytest.raises(ValueError):
        euclid_index_path(0, 0)


def test_euclid_path_length_matches_trace_length():
    # one subtractive Euclid step per reduction step (base value >= 2 so the
    # chain is strictly increasing and every step is visible)
    for p in (2, 3, 5):
        for n in range(0, 7):
            for m in range(0, 7):
                if n == 0 and m == 0:
                    continue
                t = family_triple(1, p, n, m)
                assert len(euclid_index_path(n, m)) == len(reduction_trace(t))


def test_graph_two_vertex_component():
    g = solution_graph(Triple(12, 13, 15, 20), 100)
    assert g.s == 12 and g.bound == 100
    assert g.vertices == ((13, 15, 20), (15, 20, 37))
    assert g.edges == ((0, 1, 0),)
    assert g.frontier == ()


def test_graph_single_vertex():
    g = solution_graph(Triple(7, 3, 3, 7), 1000)
    assert g.vertices == ((3, 3, 7),)
    assert g.edges == ()
    assert g.frontier == ()


def test_graph_base_pair():
    g = solution_graph(Triple(9, 9, 12, 12), 10**6)
    assert g.vertices == ((9, 12, 12), (12, 12, 23))
    assert g.edges == ((0, 1, 0),)


def test_graph_chain_with_frontier():
    g = solution_graph(Triple(3, 3, 6, 6), 300)
    assert g.vertices == (
        (3, 6, 6),
        (6, 6, 21),
        (6, 21, 78),
        (6, 78, 291),
    )
    assert g.edges == ((0, 1, 0), (1, 2, 0), (2, 3, 1))
    assert g.frontier == (2, 3)


def test_graph_million_bound_contains_conjugation_example():
    t = family_triple(3, 6, 2, 4)
    g = solution_graph(t, 10**6)
    flat = {v for vert in g.vertices for v in vert}
    assert 56451 in flat and 786261 in flat
    assert (21, 291, 4053) in g.vertices
    # every edge joins two listed vertices and conjugation moves between them
    for i, j, k in g.edges:
        assert 0 <= i < j < len(g.vertices)


def test_graph_exports():
    g = solution_graph(Triple(12, 13, 15, 20), 100)
    blob = json.loads(g.to_json())
    assert blob == {
        "s": 12,
        "bound": 100,
        "vertices": [[13, 15, 20], [15, 20, 37]],
        "edges": [[0, 1, 0]],
        "frontier": [],
    }
    dot = g.to_dot()
    assert '"13,15,20" -- "15,20,37" [label="a"]' in dot
    assert dot.startswith("graph ")


def test_graph_frontier_marked_in_dot():
    g = solution_graph(Triple(3, 3, 6, 6), 300)
    dot = g.to_dot()
    assert "peripheries=2" in dot


def test_seed_must_solve():
    with pytest.raises(NotASolutionError):
        solution_graph(Triple(3, 1, 2, 3), 100)


def test_graph_checks_the_seed_once_and_before_the_bound(monkeypatch, capsys):
    # a non-solution seed is refused as one, whatever the bound
    with pytest.raises(NotASolutionError, match=r"\(s=3; 1,2,30\) is not a solution"):
        solution_graph(Triple(3, 1, 2, 30), 10)
    assert run(["--no-note-corrections", "graph", "--s", "3", "--seed", "1,2,30", "--bound", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: (s=3; 1,2,30) is not a solution (value 2568)\n"
    # a solution below the bound is refused for the bound, a ValueError that is not NotASolutionError
    with pytest.raises(ValueError, match="bound must cover") as exc:
        solution_graph(Triple(3, 21, 4053, 291), 300)
    assert not isinstance(exc.value, NotASolutionError)
    checks = []
    require = triples._require_solution
    monkeypatch.setattr(triples, "_require_solution", lambda t: checks.append(t) or require(t))
    for seed in (Triple(1, 2, 7, 26), Triple(10, 11, 17, 25)):
        solution_graph(seed, 300)
    assert checks == [Triple(1, 2, 7, 26), Triple(10, 11, 17, 25)]


def two_pass_solution_graph(seed, bound):
    """Reference for solution_graph: a BFS for the vertex set, then a second
    pass over the sorted vertices that recomputes every vertex's moves for
    the edges and the frontier."""
    start = tuple(sorted(seed.components))
    s = seed.s
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for _, nxt in moves_oracle(s, cur):
            if max(nxt) <= bound and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    vertices = sorted(seen)
    index = {v: i for i, v in enumerate(vertices)}
    labels = {}
    frontier = set()
    for v in vertices:
        i = index[v]
        for comp, w in moves_oracle(s, v):
            if max(w) > bound:
                frontier.add(i)
                continue
            j = index[w]
            if i < j and ((i, j) not in labels or comp < labels[(i, j)]):
                labels[(i, j)] = comp
    edges = tuple(sorted((i, j, k) for (i, j), k in labels.items()))
    return SolutionGraph(s, bound, tuple(vertices), edges, tuple(sorted(frontier)))


def dot_oracle(g):
    """The DOT writer as it was before it formatted each distinct integer once."""
    lines = ["graph cayley {"]
    names = ["{},{},{}".format(*v) for v in g.vertices]
    frontier = set(g.frontier)
    for i, name in enumerate(names):
        mark = " [peripheries=2]" if i in frontier else ""
        lines.append(f'  "{name}"{mark};')
    for i, j, k in g.edges:
        lines.append(f'  "{names[i]}" -- "{names[j]}" [label="{"abc"[k]}"];')
    lines.append("}\n")
    return "\n".join(lines)


def kernel_chunks(seed, bound, dot):
    """What the CLI streams: the component kernel through the one writer, with the per-index decimals."""
    xs, vertices, edges, frontier = triples._component(seed, bound, None)
    return triples._graph_chunks(seed.s, bound, vertices, edges, frontier, [str(x) for x in xs], dot)


def assert_matches_oracle(seed, bound):
    g = solution_graph(seed, bound)
    ref = two_pass_solution_graph(seed, bound)
    assert g == ref
    assert g.to_json() == "".join(kernel_chunks(seed, bound, False)) == json.dumps(ref.as_dict())
    assert g.to_dot() == "".join(kernel_chunks(seed, bound, True)) == dot_oracle(ref)


@given(
    s=st.integers(min_value=1, max_value=6),
    mult=st.integers(min_value=3, max_value=8),
    n=st.integers(min_value=0, max_value=30),
    m=st.integers(min_value=1, max_value=30),
    scale=st.integers(min_value=1, max_value=3),
    extra=st.integers(min_value=0, max_value=12),
    where=st.sampled_from(["at", "below", "between"]),
)
@settings(max_examples=80, deadline=None)
def test_solution_graph_matches_two_pass_oracle(s, mult, n, m, scale, extra, where):
    # scale > 1 gives index gcd > 1 (the seed belongs to base X_scale); the
    # bound sits at a chain value X_N, one below it, or between X_N and X_{N+1}
    assume(s * mult % 2 == 0)
    b = s * mult // 2
    seed = family_triple(s, b, scale * n, scale * m)
    top = scale * (n + m) + extra
    x, nxt = scaled_cheb_t(s, b, top), scaled_cheb_t(s, b, top + 1)
    bound = {"at": x, "below": x - 1, "between": (x + nxt) // 2}[where]
    assume(bound >= max(seed.components))
    assert_matches_oracle(seed, bound)


@pytest.mark.parametrize(
    "s, b, n, m",
    [
        (1, 5, 0, 7),  # n = 0: (s, X_m, X_m) is the base row of X_m
        (2, 3, 0, 1),  # the terminal itself, multiplier 3 with even s
        (2, 3, 4, 7),
        (4, 6, 5, 2),
        (1, 2, 6, 9),  # index gcd 3: base X_3 = 26
        (3, 6, 4, 8),  # index gcd 4
    ],
)
def test_solution_graph_chain_cases_match_oracle(s, b, n, m):
    seed = family_triple(s, b, n, m)
    for top in (n + m, n + m + 1, n + m + 5):
        x = scaled_cheb_t(s, b, top)
        assert_matches_oracle(seed, x)
        if x - 1 >= max(seed.components):
            assert_matches_oracle(seed, x - 1)


def test_solution_graph_matches_two_pass_oracle_on_non_chain_seeds(monkeypatch):
    def no_chain(*args):
        raise AssertionError("the index-space path ran for a seed outside any chain")

    monkeypatch.setattr(triples, "_chain_values", no_chain)
    for seed, bound in (
        (Triple(12, 13, 15, 20), 10**6),  # terminal not base-shaped
        (Triple(24, 26, 51, 74), 10**4),  # isolated
        (Triple(7, 3, 3, 7), 50),  # base row with p < s
        (Triple(3, 3, 4, 4), 10**5),  # base row with s not dividing 2p
        (Triple(3, 3, 3, 3), 10),  # p = s: the chain is constant
        (Triple(24, 24, 18, 18), 10**4),  # descends to (3, 18, 18), p < s
    ):
        assert_matches_oracle(seed, bound)


def test_chain_graph_needs_no_conjugation_per_vertex(monkeypatch):
    seed = family_triple(2, 4, 100, 151)
    steps = len(reduction_trace(seed))
    calls = 0
    conjugate = triples._conjugate

    def counted(*args):
        nonlocal calls
        calls += 1
        return conjugate(*args)

    monkeypatch.setattr(triples, "_conjugate", counted)
    g = solution_graph(seed, 10**300)
    assert len(g.vertices) == 41846
    assert calls <= steps + 3


def matrix_power_chain(s, p, bound):
    """X_0, X_1, ... up to the bound, X_n = s*tr(M^n)/2 with M = [[2p/s, -1], [1, 0]], by repeated
    2x2 products: no recurrence and no index doubling."""
    (e, f), (g, h) = (2 * p // s, -1), (1, 0)
    (a, b), (c, d) = (1, 0), (0, 1)
    xs = []
    while (x := s * (a + d)) <= 2 * bound:
        assert x % 2 == 0
        xs.append(x // 2)
        (a, b), (c, d) = (a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)
    return xs


@pytest.mark.parametrize(
    "s, p, bound, size", [(2, 4, 10**40, 736), (1, 5, 10**40, 246), (3, 6, 10**30, 416), (6, 9, 10**30, 748)]
)
def test_chain_component_matches_matrix_powers(s, p, bound, size):
    # a chain vertex (i, j) is (X_i, X_j, X_{i+j}), since M^i M^j = M^(i+j)
    xs = matrix_power_chain(s, p, bound)
    top = len(xs) - 1
    seed = Triple(s, s, p, p)
    assert triples._component(seed, bound, None)[0] == xs
    want = {
        tuple(sorted((xs[i], xs[j], xs[i + j]))) for i in range(top + 1) for j in range(i, top + 1 - i) if gcd(i, j) == 1
    }
    assert list(solution_graph(seed, bound).vertices) == sorted(want)
    assert len(want) == size


def test_chain_graph_checks_the_seed_is_a_vertex(monkeypatch):
    chain_values = triples._chain_values
    # the values of another chain: the seed's component is not among them
    monkeypatch.setattr(triples, "_chain_values", lambda s, p, bound: chain_values(s, p + s, bound))
    with pytest.raises(InvariantError, match="not in the index-space component"):
        solution_graph(family_triple(1, 5, 3, 4), 10**20)


@pytest.mark.parametrize(
    "s, p, bound, count",
    [
        (2, 4, 10**300, 41846),
        (1, 5, 10**300, 13826),
        (1, 2, 10**100, 4686),
        (3, 6, 10**50, 1165),
        (1, 2, 6, 1),  # N = 1: X_2 = 7 is past the bound, (1, 2, 2) alone
        (1, 2, 25, 2),  # N = 2: (1, 2, 2) and (2, 2, 7)
    ],
)
def test_chain_plan_is_the_vertex_count(monkeypatch, s, p, bound, count):
    seed = Triple(s, s, p, p)
    assert len(solution_graph(seed, bound, budget=count).vertices) == count
    # the plan needs N and the totient sieve alone: the refusal builds no row and no list of chain values
    monkeypatch.setattr(triples, "compress", lambda *args: pytest.fail("a row was built"))
    monkeypatch.setattr(triples, "_chain_values", lambda *args: pytest.fail("the chain values were listed"))
    with pytest.raises(BudgetExceededError, match=rf"^graph needs {count} vertices, budget is {count - 1}$"):
        solution_graph(seed, bound, budget=count - 1)


@given(
    s=st.integers(min_value=1, max_value=6),
    mult=st.integers(min_value=3, max_value=8),
    top=st.integers(min_value=1, max_value=60),
    where=st.sampled_from(["at", "between"]),
)
@settings(max_examples=60, deadline=None)
def test_chain_plan_on_small_bases(s, mult, top, where):
    # the budget passes at the vertex count and refuses one below it, so the plan is that count
    assume(s * mult % 2 == 0)
    b = s * mult // 2
    x, nxt = scaled_cheb_t(s, b, top), scaled_cheb_t(s, b, top + 1)
    bound = x if where == "at" else (x + nxt) // 2
    seed = Triple(s, s, b, b)
    count = len(two_pass_solution_graph(seed, bound).vertices)
    assert len(solution_graph(seed, bound, budget=count).vertices) == count
    with pytest.raises(BudgetExceededError, match=rf"^graph needs {count} vertices"):
        solution_graph(seed, bound, budget=count - 1)


def test_value_space_graph_refuses_once_past_its_budget():
    seed = Triple(7, 8, 17, 28)
    assert len(solution_graph(seed, 10**30, budget=65).vertices) == 65
    with pytest.raises(BudgetExceededError, match=r"^graph needs more than 64 vertices, budget is 64$"):
        solution_graph(seed, 10**30, budget=64)
    with pytest.raises(BudgetExceededError, match=r"^graph needs more than 0 vertices, budget is 0$"):
        solution_graph(Triple(7, 3, 3, 7), 1000, budget=0)


def test_totient_sieve():
    phi, primes = triples._totients(200)
    for n in range(1, 201):
        assert phi[n] == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert primes[n] == [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]
    assert phi[0] == 0 and primes[0] == []


def test_chain_values_refuses_a_chain_that_does_not_increase():
    assert triples._chain_values(1, 2, 100) == [1, 2, 7, 26, 97]
    assert triples._chain_values(4, 6, 100) == [4, 6, 14, 36, 94]
    # p = s (constant), p < s (multiplier 1) and s not dividing 2p
    for s, p in ((2, 2), (12, 12), (12, 6), (3, 4), (5, 6)):
        with pytest.raises(InvariantError, match=rf"base \({s}, {p}\) has no increasing integral chain"):
            triples._chain_values(s, p, 10)


@pytest.mark.parametrize(
    "g",
    [
        solution_graph(family_triple(2, 4, 10, 13), 10**40),
        solution_graph(family_triple(2, 4, 0, 1), 10**100),  # past one chunk of vertices and of edges
        solution_graph(family_triple(1, 5, 0, 1), 10**30),
        solution_graph(Triple(3, 3, 6, 6), 300),
        solution_graph(Triple(12, 13, 15, 20), 100),  # empty frontier
        solution_graph(Triple(7, 3, 3, 7), 1000),  # one vertex
        solution_graph(Triple(3, 3, 4, 4), 10**5),
        SolutionGraph(5, 7, (), (), ()),
    ],
)
def test_writers_match_their_oracles(g):
    assert g.to_json() == json.dumps(g.as_dict())
    assert g.to_dot() == dot_oracle(g)


@pytest.mark.parametrize(
    "seed, bound",
    [
        (Triple(1, 1, 2, 2), 10**20),  # a chain seed: 193 vertices, 192 edges
        (Triple(7, 8, 17, 28), 10**30),  # value space: 65 vertices, 64 edges
        (Triple(3, 3, 4, 4), 10**5),  # one vertex, no edges
    ],
)
def test_graph_writers_at_chunk_boundaries(monkeypatch, capsys, seed, bound):
    g = solution_graph(seed, bound)
    v, e, f = len(g.vertices), len(g.edges), len(g.frontier)
    want_json, want_dot = json.dumps(g.as_dict()), dot_oracle(g)
    argv = ["graph", "--s", str(seed.s), "--seed", ",".join(map(str, seed.components)), "--bound", str(bound)]
    for k in chunk_sizes(v, e, f):
        monkeypatch.setattr(triples, "_CHUNK_LINES", k)
        # the head, '], "edges": [', '], "frontier": [' and the tail, around the vertex, edge
        # and frontier chunks and their ", " pieces
        json_pieces = 4 + chunk_pieces(v, k, True) + chunk_pieces(e, k, True) + chunk_pieces(f, k, True)
        chunks = list(g._chunks(dot=False))
        assert len(chunks) == json_pieces
        assert "".join(chunks) == g.to_json() == want_json
        chunks = list(g._chunks(dot=True))
        assert len(chunks) == 2 + chunk_pieces(v, k, False) + chunk_pieces(e, k, False)
        assert "".join(chunks) == g.to_dot() == want_dot
        # the kernel's chunks, which the CLI streams, break at the same places
        for dot, want, pieces in ((False, want_json, json_pieces),
                                  (True, want_dot, 2 + chunk_pieces(v, k, False) + chunk_pieces(e, k, False))):
            chunks = list(kernel_chunks(seed, bound, dot))
            assert len(chunks) == pieces
            assert "".join(chunks) == want
        assert run(argv) == 0
        assert capsys.readouterr().out == want_json + "\n"
        assert run(argv + ["--format", "dot"]) == 0
        assert capsys.readouterr().out == want_dot


def test_dot_writer_keeps_no_vertex_names(monkeypatch):
    # each vertex and edge line is built from the decimal table as its chunk is written,
    # so draining the DOT text holds far less than a table of the vertex names would;
    # the JSON text streams its frontier indices in chunks too, where one json.dumps
    # of the 12 445 of them peaked near 1 MB on 3.10 and 3.11
    monkeypatch.setattr(triples, "_CHUNK_LINES", 256)
    g = solution_graph(Triple(1, 1, 2, 2), 10**200)
    assert len(g.vertices) == 18666
    text = triples._decimal_table(g.vertices)

    def traced_peak(work):
        tracemalloc.start()
        try:
            work()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    names = traced_peak(lambda: [f'"{text[a]},{text[b]},{text[c]}"' for a, b, c in g.vertices])
    dot = traced_peak(lambda: sum(map(len, g._chunks(dot=True))))
    # on 3.10 to 3.13 the names take about 6.0 MB and the drain peaks near 0.6 MB, at a chunk of edge lines
    assert dot <= names // 4
    # the JSON drain peaks near 0.28 MB on 3.10 to 3.13
    assert traced_peak(lambda: sum(map(len, g._chunks(dot=False)))) <= names // 10


def test_s1_ordering_invariant(s1_solutions_2000):
    # for a canonical non-singular s=1 solution a<=b<=c, the top component is
    # determined by the lower two: c = ab + sqrt((a^2-1)(b^2-1))
    seen = 0
    for t in s1_solutions_2000:
        a, b, c = t.components
        if a == 1:
            assert b == c  # singular shape
            continue
        r = isqrt((a * a - 1) * (b * b - 1))
        assert r * r == (a * a - 1) * (b * b - 1)
        assert c == a * b + r
        seen += 1
    # 2000 singular rows (1,p,p) plus exactly 42 non-singular solutions
    assert seen == 42
    assert len(s1_solutions_2000) == 2042


def test_s1_solutions_match_generated_chain_set(s1_solutions_2000):
    bound = 2000
    generated = {(1, 1, 1)}
    for p in range(2, bound + 1):
        chain = [1, p]
        while chain[-1] <= bound:
            chain.append(2 * p * chain[-1] - chain[-2])
        top = len(chain) - 2
        for total in range(top + 1):
            for n in range(total + 1):
                generated.add(tuple(sorted((chain[n], chain[total], chain[total - n]))))
    assert {t.components for t in s1_solutions_2000} == generated


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: conjugate_component(Triple(1, 1, 1, 1), 3), ValueError, "component index must be 0, 1 or 2, got 3"),
        (lambda: family_triple(1, 2, -1, 1), ValueError, r"chain indices must be non-negative, got \(-1, 1\)"),
        # 2b/s = 1: the first negative value of (X_n, X_{n+m}, X_m) is named, not a Triple field
        (lambda: family_triple(4, 2, 3, 2), ValueError, r"^chain value X_3 = -4 of base \(4, 2\) is not positive$"),
        (lambda: family_triple(4, 2, 0, 2), ValueError, r"^chain value X_2 = -2 of base \(4, 2\) is not positive$"),
        (lambda: euclid_index_path(-1, 2), ValueError, r"indices must be non-negative, got \(-1, 2\)"),
        # a float is refused, not carried into a float result
        (lambda: Triple(1, 2.0, 2, 1), ValueError, "^a must be a positive integer, got 2.0$"),
        (lambda: family_triple(2, 4.0, 3, 2), ValueError, "^b must be a positive integer, got 4.0$"),
        (lambda: euclid_index_path(2.0, 1), ValueError, r"^indices must be integers, got \(2.0, 1\)$"),
        (lambda: family_triple(2, 4, 3.0, 2), ValueError, "^sequence index must be non-negative, got 3.0$"),
        (lambda: solution_graph(Triple(2, 2, 4, 4), 3), ValueError, "^bound must cover the seed's maximal component$"),
        (lambda: solution_graph(Triple(2, 2, 4, 4), 100.5), ValueError, "^bound must be an integer, got 100.5$"),
    ],
)
def test_triples_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
