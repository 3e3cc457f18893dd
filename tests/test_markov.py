import json
import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from cayleycubic import (
    MAX_TREE_DEPTH,
    BudgetExceededError,
    InvariantError,
    NotASolutionError,
    continuant,
    continuant_drop_last,
    continuant_interior,
    continuant_power_sequence,
    markov_neighbor,
    markov_tree,
    markov_tree_dot,
    markov_tree_json,
    markov_value,
    sequence_overlap_search,
    splitting_identity_holds,
)
from cayleycubic import markov as mk
from cayleycubic import triples
from cayleycubic.cli import run
from conftest import chunk_lines, chunk_pieces, chunk_sizes, run_lengths


def drop_last_or_zero(word):
    # the ratio identity below needs the empty word to count as 0
    return 0 if len(word) == 0 else continuant_drop_last(word)


def test_markov_value():
    assert markov_value(1, 1, 1) == 0
    assert markov_value(1, 2, 5) == 0
    assert markov_value(2, 5, 29) == 0
    assert markov_value(1, 2, 3) == -4


def test_markov_neighbor():
    assert markov_neighbor((1, 2, 5), 0) == (29, 2, 5)
    assert markov_neighbor((1, 2, 5), 2) == (1, 2, 1)
    assert markov_neighbor((1, 1, 1), 0) == (2, 1, 1)
    with pytest.raises(NotASolutionError):
        markov_neighbor((1, 2, 3), 0)
    with pytest.raises(ValueError):
        markov_neighbor((1, 2, 5), 3)


def test_markov_neighbor_checks_its_result(monkeypatch):
    # a value test that accepts the input but no other triple
    monkeypatch.setattr(mk, "markov_value", lambda x, y, z: 0 if (x, y, z) == (1, 1, 1) else 1)
    with pytest.raises(InvariantError):
        markov_neighbor((1, 1, 1), 0)


def test_markov_neighbor_is_involutive():
    for t in markov_tree(5):
        for i in range(3):
            w = markov_neighbor(t, i)
            assert markov_value(*w) == 0
            assert markov_neighbor(w, i) == t


def test_markov_neighbor_stays_positive():
    # the roots of X^2 - 3yz*X + y^2 + z^2 have a positive sum and product,
    # so markov_neighbor needs no positivity check on its result
    for t in markov_tree(10):
        for i in range(3):
            assert min(markov_neighbor(t, i)) >= 1


def test_markov_tree_levels():
    assert markov_tree(0) == [(1, 1, 1)]
    assert markov_tree(2) == [(1, 1, 1), (1, 1, 2), (1, 2, 5)]
    assert [len(markov_tree(d)) for d in range(7)] == [1, 2, 3, 5, 9, 17, 33]
    five = markov_tree(5)
    assert (2, 5, 29) in five
    assert (1, 13, 34) in five
    assert all(markov_value(*t) == 0 for t in five)


def test_markov_tree_depth_validation():
    with pytest.raises(ValueError):
        markov_tree(-1)
    with pytest.raises(ValueError):
        markov_tree(MAX_TREE_DEPTH + 1)


def test_markov_tree_dot():
    dot = markov_tree_dot(2)
    assert dot.startswith("digraph ")
    assert '"1,1,1" -> "1,1,2";' in dot
    assert '"1,1,2" -> "1,2,5";' in dot


def neighbor_bfs_levels(depth):
    """Reference for the tree: a markov_neighbor call per move, so each
    triple is checked on the way in and on the way out of every move."""
    root = (1, 1, 1)
    seen = {root}
    parents = {}
    level = [root]
    for _ in range(depth):
        nxt = []
        for t in level:
            for i in range(3):
                w = tuple(sorted(markov_neighbor(t, i)))
                if w not in seen:
                    seen.add(w)
                    parents[w] = t
                    nxt.append(w)
        level = sorted(nxt)
    return seen, parents


def reference_tree_dot(seen, parents):
    """Reference for markov_tree_dot: every name formatted where it is used."""
    lines = ["digraph markov {"]
    for t in sorted(seen):
        lines.append('  "{},{},{}";'.format(*t))
    for child in sorted(parents):
        parent = parents[child]
        lines.append('  "{},{},{}" -> "{},{},{}";'.format(*parent, *child))
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("depth", range(17))
def test_markov_tree_matches_neighbor_bfs(depth):
    seen, parents = neighbor_bfs_levels(depth)
    assert markov_tree(depth) == sorted(seen)
    assert markov_tree_dot(depth) == reference_tree_dot(seen, parents)
    # the JSON writer against json.dumps of the reference triples
    assert markov_tree_json(depth) == json.dumps({"depth": depth, "triples": [list(t) for t in sorted(seen)]})


def mat_mul(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def cohn_tree(depth):
    """Reference for the tree that makes no Markov move: {triple: parent} from Cohn matrices.

    Past (1, 1, 1) and (1, 1, 2), each node is a matrix triple (L, LR, R), starting from
    (A, AB, B), with children (L, L*LR, LR) and (LR, LR*R, R); its Markov triple is a third of
    each trace (M. Aigner, Markov's Theorem and 100 Years of the Uniqueness Conjecture, 2013).
    """
    parents = {(1, 1, 1): None}
    if depth >= 1:
        parents[(1, 1, 2)] = (1, 1, 1)
    a, b = ((2, 1), (1, 1)), ((5, 2), (2, 1))
    level = [((a, mat_mul(a, b), b), (1, 1, 2))]
    for _ in range(2, depth + 1):
        nxt = []
        for (left, mid, right), parent in level:
            traces = [m[0][0] + m[1][1] for m in (left, mid, right)]
            assert all(tr % 3 == 0 for tr in traces)
            t = tuple(sorted(tr // 3 for tr in traces))
            assert t not in parents
            parents[t] = parent
            nxt += [((left, mat_mul(left, mid), mid), t), ((mid, mat_mul(mid, right), right), t)]
        level = nxt
    return parents


@pytest.mark.parametrize("depth", range(13))
def test_markov_tree_matches_cohn_matrices(depth):
    parents = cohn_tree(depth)
    assert markov_tree(depth) == sorted(parents)
    assert markov_tree_dot(depth) == reference_tree_dot(parents, {t: p for t, p in parents.items() if p})


@pytest.mark.parametrize("depth", [1, 6, 9])
def test_markov_tree_writers_at_chunk_boundaries(monkeypatch, capsys, depth):
    seen, parents = neighbor_bfs_levels(depth)
    n = len(seen)
    want_json = json.dumps({"depth": depth, "triples": [list(t) for t in sorted(seen)]})
    want_dot = reference_tree_dot(seen, parents)
    # a line carries at most three decimals of the tree's largest number, an edge line six
    width = 3 * len(str(max(map(max, seen))))
    for k in chunk_sizes(n, n - 1):
        monkeypatch.setattr(triples, "_CHUNK_LINES", k)
        lines, edge_lines = chunk_lines(width), chunk_lines(2 * width)
        chunks = list(mk._tree_chunks(depth, None, dot=False))
        assert len(chunks) == 2 + chunk_pieces(n, lines, True)
        assert "".join(chunks) == markov_tree_json(depth) == want_json
        # n triples, then the n - 1 edges: every triple but (1, 1, 1) has a parent
        chunks = list(mk._tree_chunks(depth, None, dot=True))
        assert len(chunks) == 2 + chunk_pieces(n, lines, False) + chunk_pieces(n - 1, edge_lines, False)
        assert "".join(chunks) == markov_tree_dot(depth) == want_dot
        assert run(["markov-tree", "--depth", str(depth)]) == 0
        assert capsys.readouterr().out == want_json + "\n"
        assert run(["markov-tree", "--depth", str(depth), "--format", "dot"]) == 0
        assert capsys.readouterr().out == want_dot


@pytest.mark.parametrize("depth", [6, 9])
def test_markov_tree_wide_lines_cut_by_size(monkeypatch, capsys, depth):
    # a character budget of 20 widest triples: the triples split every 20 lines, long before
    # _CHUNK_LINES, and the edge lines, two triples each, every 16, the floor
    seen, parents = neighbor_bfs_levels(depth)
    n = len(seen)
    width = 3 * len(str(max(map(max, seen))))
    monkeypatch.setattr(triples, "_CHUNK_CHARS", 20 * width)
    assert (chunk_lines(width), chunk_lines(2 * width)) == (20, 16)
    want_json = json.dumps({"depth": depth, "triples": [list(t) for t in sorted(seen)]})
    want_dot = reference_tree_dot(seen, parents)
    chunks = list(mk._tree_chunks(depth, None, dot=False))
    # the head, the tail, and each ", " piece between two chunks
    assert [c.count("[") for c in chunks[1:-1:2]] == run_lengths(n, 20)
    assert "".join(chunks) == want_json
    chunks = list(mk._tree_chunks(depth, None, dot=True))
    assert [c.count("\n") for c in chunks[1:-1]] == run_lengths(n, 20) + run_lengths(n - 1, 16)
    assert "".join(chunks) == want_dot
    assert run(["markov-tree", "--depth", str(depth)]) == 0
    assert capsys.readouterr().out == want_json + "\n"
    assert run(["markov-tree", "--depth", str(depth), "--format", "dot"]) == 0
    assert capsys.readouterr().out == want_dot


def test_markov_tree_drain_holds_about_two_chunks_over_its_rows():
    # a chunk holds about _CHUNK_CHARS digits, alive at most twice, as its lines and joined; at
    # 4096 lines a chunk, depth 14 drained 4.4 MB (DOT) and 2.7 MB (JSON) over its rows
    tracemalloc.start()
    try:
        rows = mk._tree_rows(14, None)
        held = tracemalloc.get_traced_memory()[0]  # 2.8 MB on 3.11
        del rows
        for dot in (True, False):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            assert sum(map(len, mk._tree_chunks(14, None, dot=dot))) > 0
            # on 3.11 both drains peak about 0.7 MB over the rows
            assert tracemalloc.get_traced_memory()[1] - start - held <= 2 * triples._CHUNK_CHARS
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "where, copies, reached, repeated",
    [
        (slice(5, 6), 1, 9, 1),  # (2, 5, 29) overwritten by (1, 13, 34)
        (slice(5, 5), 1, 10, 1),  # (1, 13, 34) added a second time
        (slice(5, 8), 3, 9, 3),  # three rows overwritten by (1, 13, 34)
    ],
    ids=["overwrite-one", "insert-one", "overwrite-three"],
)
def test_markov_tree_raises_on_a_repeated_row(monkeypatch, where, copies, reached, repeated):
    # every move is checked against the equation, so no move can repeat a triple: the repeat is
    # injected as `_tree_rows` sorts its row list, which it builds with the module's name `list`
    class Twinned(list):
        def sort(self):
            super().sort()
            self[where] = [self[4]] * copies

    monkeypatch.setattr(mk, "list", Twinned, raising=False)
    message = f"the tree of depth 4 reached {reached} triples, {repeated} repeated, not 9"
    for build in (markov_tree, markov_tree_json, markov_tree_dot):
        with pytest.raises(InvariantError, match=re.escape(message)):
            build(4)
    monkeypatch.undo()
    assert len(markov_tree(4)) == 9


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit before 3.11")
def test_markov_tree_formats_no_decimals():
    # depth 16 reaches a 1005-digit Markov number: only the writers turn it into decimal
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert len(markov_tree(16)) == 2**15 + 1
        with pytest.raises(ValueError):
            markov_tree_json(16)
    finally:
        sys.set_int_max_str_digits(previous)


def test_markov_tree_size_closed_form():
    # the budget plans 2**(d-1) + 1 triples for depth d >= 1
    assert len(markov_tree(0)) == 1
    for d in range(1, 13):
        assert len(markov_tree(d)) == 2 ** (d - 1) + 1
        assert len(markov_tree(d, budget=2 ** (d - 1) + 1)) == 2 ** (d - 1) + 1
        with pytest.raises(BudgetExceededError):
            markov_tree(d, budget=2 ** (d - 1))


def _moves(monkeypatch, depth):
    """markov_tree(depth) and every (triple, index) move it makes, in order, each with its new value."""
    moves = []
    flip = mk._flip

    def recorded(t, i):
        moves.append((t, i, flip(t, i)))
        return moves[-1][2]

    with monkeypatch.context() as m:
        m.setattr(mk, "_flip", recorded)
        tree = markov_tree(depth)
    return tree, moves


def _flip_off_at(monkeypatch, move, delta):
    """Patch _flip to be off by `delta` at `move` alone."""
    flip = mk._flip

    def off_flip(t, i):
        return flip(t, i) + delta if (t, i) == move else flip(t, i)

    monkeypatch.setattr(mk, "_flip", off_flip)


def test_markov_tree_checks_each_new_triple_once(monkeypatch):
    tree, moves = _moves(monkeypatch, 10)
    # one move per triple but the root (1, 1, 1): moving the maximum of a
    # sorted triple leads back to its parent, and the two moves of (1, 1, 1)
    # and of (1, 1, 2) are one
    assert len(moves) == len(tree) - 1 == 2**9
    assert len(set(moves)) == len(moves)
    # each move's value is the maximum of its child, and the component markov_neighbor puts there
    assert sorted(w for _, _, w in moves) == sorted(t[2] for t in tree[1:])
    assert all(type(w) is int for _, _, w in moves)
    assert all(markov_neighbor(t, i)[i] == w for t, i, w in moves)
    # and each move is checked: one that is off by one there alone raises
    _, moves = _moves(monkeypatch, 6)
    assert len(moves) == 32
    for t, i, _ in moves:
        for delta in (1, -1):
            with monkeypatch.context() as m:
                _flip_off_at(m, (t, i), delta)
                with pytest.raises(InvariantError):
                    markov_tree(6)


def test_markov_tree_raises_on_a_bad_new_triple(monkeypatch):
    # a move that gives a wrong value deep in the tree: (2, 5, 29) at 5 leads to (2, 29, 169)
    assert mk._flip((2, 5, 29), 1) == 169
    _flip_off_at(monkeypatch, ((2, 5, 29), 1), 1)
    assert len(markov_tree(3)) == 5
    with pytest.raises(InvariantError):
        markov_tree(4)
    with pytest.raises(InvariantError):
        markov_tree_dot(4)


@pytest.mark.parametrize("bad", [(1, 1, 0), (1, 1, -2)])
def test_markov_tree_raises_on_a_non_positive_component(monkeypatch, bad):
    # the only move of (1, 1, 1) gives the child (1, 1, w); a non-positive w fails both
    # w > c and the Vieta product 1*w == 1 + 1
    monkeypatch.setattr(mk, "_flip", lambda t, i: bad[2])
    with pytest.raises(InvariantError, match=re.escape(f"gave the non-solution {bad}")):
        markov_tree(1)


def test_markov_tree_budget():
    assert markov_tree_dot(5, budget=17) == markov_tree_dot(5)
    with pytest.raises(BudgetExceededError):
        markov_tree_dot(5, budget=16)
    assert markov_tree_json(5, budget=17) == markov_tree_json(5)
    with pytest.raises(BudgetExceededError):
        markov_tree_json(5, budget=16)
    assert markov_tree(0, budget=1) == [(1, 1, 1)]
    with pytest.raises(BudgetExceededError):
        markov_tree(0, budget=0)


def test_markov_tree_refusal_does_no_work(monkeypatch):
    def fail(*args):
        raise AssertionError("a refused tree must not make a move")

    monkeypatch.setattr(mk, "_flip", fail)
    monkeypatch.setattr(mk, "markov_value", fail)
    with pytest.raises(BudgetExceededError):
        markov_tree(MAX_TREE_DEPTH, budget=10**6)
    with pytest.raises(BudgetExceededError):
        markov_tree_dot(20, budget=2**19)
    with pytest.raises(BudgetExceededError):
        markov_tree_json(20, budget=2**19)


def test_continuant_values():
    assert continuant(()) == 1
    assert continuant((7,)) == 7
    assert continuant((2, 1, 1)) == 5
    assert continuant((1, 2, 3)) == 10
    # all-ones words give Fibonacci numbers
    assert [continuant((1,) * n) for n in range(1, 8)] == [1, 2, 3, 5, 8, 13, 21]


def test_continuant_word_validation():
    with pytest.raises(ValueError):
        continuant((1, 0, 2))
    with pytest.raises(ValueError):
        continuant((1, -1))
    with pytest.raises(ValueError):
        continuant_drop_last(())
    with pytest.raises(ValueError):
        continuant_interior((5,))


def test_continuant_recurrence_and_mirror():
    words = [w for n in range(0, 5) for w in product((1, 2, 3), repeat=n)]
    for w in words:
        assert continuant(w) == continuant(tuple(reversed(w)))
    # K(w + a) = a*K(w) + K(w[:-1]), with K of the empty word equal to 1
    for w in words:
        if not w:
            continue
        for a in (1, 2, 5):
            assert continuant(w + (a,)) == a * continuant(w) + continuant(w[:-1])


def test_continuant_truncations():
    assert continuant_drop_last((2,)) == 1
    assert continuant_drop_last((2, 1, 1)) == continuant((2, 1))
    assert continuant_interior((3, 4)) == 1
    assert continuant_interior((2, 1, 1, 3)) == continuant((1, 1))


def test_power_sequence_values():
    assert continuant_power_sequence((1, 1), (2,), 4) == [1, 2, 5, 13]
    assert continuant_power_sequence((1, 1), (), 3) == [0, 1, 3]
    assert continuant_power_sequence((2, 2), (1,), 5) == [1, 5, 29, 169, 985]
    assert continuant_power_sequence((1, 1), (2,), 1) == [1]


def test_power_sequence_recurrence():
    # terms obey x_{k+1} = q x_k - x_{k-1} with q = K'(aa)/K'(a); the module
    # cross-checks each term against the direct continuant, so here we only
    # confirm the advertised shape
    for alpha in ((1, 1), (1, 2), (2, 2), (1, 1, 2, 2)):
        q = Fraction(continuant_drop_last(alpha + alpha), continuant_drop_last(alpha))
        for beta in ((), (1,), (2, 1)):
            seq = continuant_power_sequence(alpha, beta, 6)
            for k in range(2, 6):
                assert seq[k] == q * seq[k - 1] - seq[k - 2]


def test_trace_is_power_ratio():
    # the integer trace is the rational multiplier K'(aa)/K'(a) of the power sequences
    count = 0
    for alen in (2, 4):
        for alpha in product((1, 2, 3), repeat=alen):
            q = Fraction(continuant_drop_last(alpha + alpha), continuant_drop_last(alpha))
            assert mk._matrix_sweep(alpha)[2] == q
            count += 1
    assert count == 90


def test_power_sequence_checks_each_term(monkeypatch):
    # a wrong multiplier keeps the first two (direct) terms and fails the third
    monkeypatch.setattr(mk, "_matrix_sweep", lambda a: (0, 0, 4))
    assert continuant_power_sequence((1, 1), (2,), 2) == [1, 2]
    with pytest.raises(InvariantError):
        continuant_power_sequence((1, 1), (2,), 3)


def test_power_sequence_validation():
    with pytest.raises(ValueError):
        continuant_power_sequence((1,), (2,), 3)
    with pytest.raises(ValueError):
        continuant_power_sequence((), (2,), 3)


def test_splitting_identity_bounded_space():
    count = 0
    for alen in (2, 4):
        for alpha in product((1, 2, 3), repeat=alen):
            for blen in (1, 2, 3):
                for beta in product((1, 2, 3), repeat=blen):
                    assert splitting_identity_holds(alpha, beta)
                    lhs = drop_last_or_zero(alpha + alpha + beta)
                    rhs = continuant(alpha) * drop_last_or_zero(alpha + beta)
                    rhs += drop_last_or_zero(alpha) * continuant_interior(alpha + beta)
                    assert lhs == rhs
                    count += 1
    # a one-entry alpha with the empty beta, reading K'' of the one-entry word alpha beta as 0
    for x in (1, 2, 3):
        assert splitting_identity_holds((x,), ())
        assert drop_last_or_zero((x, x)) == continuant((x,)) * drop_last_or_zero((x,)) + drop_last_or_zero((x,)) * 0
        count += 1
    assert count == 3513


@pytest.mark.parametrize("x", range(1, 10))
def test_splitting_identity_holds_for_a_one_entry_alpha_and_empty_beta(x):
    # K'(x x) = x = K(x)*K'(x) + K'(x)*K''(x), with K'(x) = K() = 1 and K''(x) = 0
    assert splitting_identity_holds((x,), ())


def test_ratio_identity_bounded_space():
    # K'(aa)/K'(a) == (K'(l aa r) + K'(l r)) / K'(l a r), cross-multiplied;
    # the empty-word value 0 makes the bare l = r = () case work too
    count = 0
    for alen in (2, 4):
        for alpha in product((1, 2, 3), repeat=alen):
            for llen in (0, 1, 2):
                for rlen in (0, 1, 2):
                    for lam in product((1, 2), repeat=llen):
                        for rho in product((1, 2), repeat=rlen):
                            lhs = drop_last_or_zero(alpha + alpha) * drop_last_or_zero(lam + alpha + rho)
                            rhs = drop_last_or_zero(alpha) * (
                                drop_last_or_zero(lam + alpha + alpha + rho)
                                + drop_last_or_zero(lam + rho)
                            )
                            assert lhs == rhs, (alpha, lam, rho)
                            count += 1
    assert count == 4410


def test_one_entry_beta_has_interior_zero():
    # K'(alpha beta) = K(alpha)K'(beta) + K'(alpha)K''(beta); for a one-entry
    # beta, K'(alpha b) = K(alpha) and K'(b) = 1, so K''(b) must count as 0
    for alen in (2, 4):
        for alpha in product((1, 2, 3), repeat=alen):
            for b in (1, 2, 3, 7):
                assert continuant_drop_last(alpha + (b,)) == continuant(alpha)
                assert continuant_drop_last((b,)) == 1
                lhs = continuant_drop_last(alpha + (b,))
                assert lhs == continuant(alpha) * 1 + continuant_drop_last(alpha) * 0
            for blen in (2, 3, 4):
                for beta in product((1, 3), repeat=blen):
                    lhs = continuant_drop_last(alpha + beta)
                    rhs = continuant(alpha) * continuant_drop_last(beta)
                    rhs += continuant_drop_last(alpha) * continuant_interior(beta)
                    assert lhs == rhs


@pytest.mark.parametrize("shift", [0, 1])
def test_overlap_search_pairs_agree_with_direct_continuants(monkeypatch, shift):
    # no pair passes the real test; a trace patched to 2*(K(alpha) +
    # shift*K'(alpha)) at one alpha at a time lets pairs pass, and the search
    # must raise at the first beta whose direct values satisfy the same test
    real_sweeps = mk._matrix_sweep
    fake_trace = lambda a: 2 * (continuant(a) + shift * continuant_drop_last(a))
    betas = [beta for blen in range(1, 5) for beta in product((1, 2, 3), repeat=blen)]
    raised = 0
    for alpha in [a for alen in (2, 4) for a in product((1, 2, 3), repeat=alen)]:
        monkeypatch.setattr(
            mk, "_matrix_sweep", lambda a: (*real_sweeps(a)[:2], fake_trace(a)) if a == alpha else real_sweeps(a)
        )
        want = [
            beta
            for beta in betas
            if 2 * continuant_drop_last(alpha + beta) == fake_trace(alpha) * continuant_drop_last(beta)
        ]
        if not want:
            assert sequence_overlap_search(3, 4, 3).s1_coincidences == []
            continue
        with pytest.raises(InvariantError, match=re.escape(f"alpha={list(alpha)}, beta={list(want[0])} ")):
            sequence_overlap_search(3, 4, 3)
        raised += 1
    assert raised > 0


def test_overlap_search_checks_reported_pairs(monkeypatch):
    # K''(2, 2) = K'(2) read as 9 makes tr = 14 and b = 7 at alpha = (2, 2),
    # beta = (1, 1), so the pair passes the test, against the lemma: the search
    # raises.  The patched sweep of (2,) reaches no earlier pair that passes.
    real = mk._sweep
    monkeypatch.setattr(mk, "_sweep", lambda w: (2, 9) if tuple(w) == (2,) else real(w))
    with pytest.raises(InvariantError, match=re.escape("alpha=[2, 2], beta=[1, 1] ")):
        sequence_overlap_search(2, 2, 3)


def test_overlap_search_sweeps_each_word_twice(monkeypatch):
    # 90 alphas and 120 betas at the defaults, two sweeps each: the trace of an alpha
    # comes from the sweep of alpha[1:], next to the sweep of alpha that gives K and K'
    real = mk._sweep
    words = []
    monkeypatch.setattr(mk, "_sweep", lambda w: words.append(w) or real(w))
    sequence_overlap_search()
    assert len(words) == 420 == 2 * (90 + 120)


def test_overlap_search_defaults_find_nothing():
    report = sequence_overlap_search()
    assert report.bounds == {"max_entry": 3, "max_block_len": 4, "max_terms": 6}
    assert report.matches_s_ge_2 == []
    assert report.s1_coincidences == []


def test_overlap_search_small_bounds():
    report = sequence_overlap_search(max_entry=2, max_block_len=2, max_terms=5)
    assert report.matches_s_ge_2 == []
    assert report.s1_coincidences == []
    blob = report.as_dict()
    assert sorted(blob) == ["bounds", "matches_s_ge_2", "s1_coincidences"]


def overlap_search_oracle(max_entry, max_block_len, max_terms):
    """Reference for sequence_overlap_search: every pair's power sequence in
    full, by direct continuants, replayed against the chain in Fractions."""
    matches, coincidences = [], []
    entries = range(1, max_entry + 1)
    for alen in range(2, max_block_len + 1, 2):
        for alpha in product(entries, repeat=alen):
            for blen in range(1, max_block_len + 1):
                for beta in product(entries, repeat=blen):
                    seq = [drop_last_or_zero(alpha * k + beta) for k in range(max_terms)]
                    s0, b0 = seq[0], seq[1]
                    x0, x1 = Fraction(s0), Fraction(b0)
                    mult = Fraction(2 * b0, s0)
                    ok = True
                    for k in range(2, max_terms):
                        x0, x1 = x1, mult * x1 - x0
                        if x1 != seq[k]:
                            ok = False
                            break
                    if ok:
                        finding = {"alpha": list(alpha), "beta": list(beta), "s": s0, "b": b0, "terms": seq}
                        (matches if s0 >= 2 else coincidences).append(finding)
    bounds = {"max_entry": max_entry, "max_block_len": max_block_len, "max_terms": max_terms}
    return {"bounds": bounds, "matches_s_ge_2": matches, "s1_coincidences": coincidences}


@pytest.mark.parametrize("max_terms", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("max_block_len", [2, 3, 4])
@pytest.mark.parametrize("max_entry", [1, 2, 3])
def test_overlap_search_matches_replay_oracle(max_entry, max_block_len, max_terms):
    report = sequence_overlap_search(max_entry, max_block_len, max_terms)
    assert report.as_dict() == overlap_search_oracle(max_entry, max_block_len, max_terms)


def test_overlap_search_validation():
    with pytest.raises(ValueError):
        sequence_overlap_search(max_terms=2)
    with pytest.raises(ValueError):
        sequence_overlap_search(max_entry=0)
    with pytest.raises(ValueError):
        sequence_overlap_search(max_block_len=1)


@pytest.mark.parametrize("max_entry, max_block_len", [(1, 2), (2, 2), (3, 3), (3, 4)])
def test_overlap_search_budget_refuses_before_any_continuant(monkeypatch, max_entry, max_block_len):
    # the plan is one test per (alpha, beta) pair, counted here word by word
    entries = range(1, max_entry + 1)
    alphas = sum(1 for alen in range(2, max_block_len + 1, 2) for _ in product(entries, repeat=alen))
    betas = sum(1 for blen in range(1, max_block_len + 1) for _ in product(entries, repeat=blen))
    plan = alphas * betas
    assert sequence_overlap_search(max_entry, max_block_len, 3, budget=plan).as_dict() == (
        sequence_overlap_search(max_entry, max_block_len, 3).as_dict()
    )

    def no_continuant(word):
        raise AssertionError("a refused search must not compute a continuant")

    for name in ("_sweep", "continuant", "continuant_drop_last", "continuant_interior", "_matrix_sweep"):
        monkeypatch.setattr(mk, name, no_continuant)
    with pytest.raises(BudgetExceededError, match=f"needs {plan} pair tests, budget is {plan - 1}"):
        sequence_overlap_search(max_entry, max_block_len, 3, budget=plan - 1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: markov_neighbor((0, 1, 1), 0), ValueError, r"components must be positive integers, got \(0, 1, 1\)"),
        (lambda: continuant_power_sequence((1, 2), (1,), 0), ValueError, "count must be >= 1, got 0"),
        (lambda: splitting_identity_holds((), (1,)), ValueError, "alpha must be non-empty"),
        # a float is refused, not carried into a float result
        (lambda: markov_neighbor((1.0, 1, 1), 0), ValueError, r"^components must be positive integers, got \(1.0, 1, 1\)$"),
        (lambda: continuant((2.5, 1)), ValueError, "^word entries must be positive integers, got 2.5$"),
        (lambda: markov_tree(2.0), ValueError, "^depth must be non-negative, got 2.0$"),
        (lambda: continuant_power_sequence((1, 1), (2,), 2.0), ValueError, "^count must be >= 1, got 2.0$"),
        (lambda: sequence_overlap_search(0, 2, 3), ValueError, "^need max_entry >= 1 and max_block_len >= 2$"),
        (lambda: sequence_overlap_search(2.0, 2, 3), ValueError, "^max_entry must be an integer, got 2.0$"),
        (lambda: sequence_overlap_search(2, 2.5, 3), ValueError, "^max_block_len must be an integer, got 2.5$"),
    ],
)
def test_markov_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
