"""Markov triples and the continuant calculus used to compare them with
the Cayley solution chains.

Markov's equation x^2 + y^2 + z^2 = 3xyz has its own tree of solutions.
Continuants (numerators of finite continued fractions) encode its vertices;
the same drop-last continuants of repeated words obey a two-term recurrence,
which is what makes a term-by-term comparison with the scaled Chebyshev
chains possible at all.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import islice, product

from .errors import BudgetExceededError, InvariantError, NotASolutionError
from .sequences import _recurrence
from .triples import _chunked

__all__ = [
    "MarkovTriple",
    "markov_value",
    "markov_neighbor",
    "markov_tree",
    "markov_tree_dot",
    "markov_tree_json",
    "continuant",
    "continuant_drop_last",
    "continuant_interior",
    "continuant_power_sequence",
    "splitting_identity_holds",
    "OverlapReport",
    "sequence_overlap_search",
    "MAX_TREE_DEPTH",
]

MarkovTriple = tuple[int, int, int]

MAX_TREE_DEPTH = 64


def markov_value(x: int, y: int, z: int) -> int:
    """x^2 + y^2 + z^2 - 3xyz; zero exactly on Markov triples."""
    return x * x + y * y + z * z - 3 * x * y * z


def _flip(t: MarkovTriple, index: int) -> int:
    """The value markov_neighbor puts at `index`, 3*(product of the others) - t[index], unchecked."""
    return 3 * t[index - 1] * t[index - 2] - t[index]


def markov_neighbor(t: MarkovTriple, index: int) -> MarkovTriple:
    """Replace one component by 3*(product of the others) - component.

    The input must be a Markov triple; the output is one as well (the move
    swaps the component between the two roots of the quadratic it solves).
    """
    if index not in (0, 1, 2):
        raise ValueError(f"component index must be 0, 1 or 2, got {index}")
    if not all(isinstance(v, int) for v in t) or min(t) < 1:
        raise ValueError(f"components must be positive integers, got {t}")
    if markov_value(*t) != 0:
        raise NotASolutionError(f"{t} does not solve the Markov equation")
    # the two roots have product y^2 + z^2 > 0 and sum 3yz > 0 (Vieta), so both are positive
    result = (*t[:index], _flip(t, index), *t[index + 1:])
    if markov_value(*result) != 0:
        raise InvariantError(f"the move from {t} at {index} gave the non-solution {result}")
    return result


def _tree_rows(depth: int, budget: int | None, decimal: bool = True) -> list[tuple]:
    """The tree as rows (a, b, c, str(a), str(b), str(c), parent row), sorted.

    A sorted parent (a, b, c) has the sorted children (b, c, 3bc - a) and
    (a, c, 3ac - b), one when a == b; moving c leads back.  The parent solves
    the equation, so the moved component v is a root of X^2 - 3uc*X + u^2 + c^2,
    and the child (u, c, w), with w = _flip(t, i), solves it exactly when w > c and
    v*w == u^2 + c^2 (Vieta): by induction from the literal root, every triple is checked.  A
    number becomes decimal once, in the row it is the new maximum of (None with
    decimal=False).  InvariantError on a failed check, a count off plan or a repeat.
    """
    if not isinstance(depth, int) or depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    if depth > MAX_TREE_DEPTH:
        raise ValueError(f"depth {depth} exceeds the cap of {MAX_TREE_DEPTH}")
    # past (1, 1, 2) every triple has two children: its moves that do not lead back
    planned = 2 ** (depth - 1) + 1 if depth else 1
    if budget is not None and planned > budget:
        raise BudgetExceededError(
            f"a Markov tree of depth {depth} has {planned} triples, budget is {budget}"
        )
    level = [(1, 1, 1, "1", "1", "1", None)]
    rows = list(level)
    for _ in range(depth):
        nxt = []
        for row in level:
            a, b, c, sa, sb, sc, _ = row
            t = (a, b, c)
            cc = c * c
            for i, u, su in ((0, b, sb), (1, a, sa)) if a != b else ((0, b, sb),):
                w = _flip(t, i)
                if not (w > c and t[i] * w == u * u + cc):
                    raise InvariantError(f"the move from {t} at {i} gave the non-solution {(u, c, w)}")
                nxt.append((u, c, w, su, sc, str(w) if decimal else None, row))
        rows += nxt
        level = nxt
    # distinct triples differ within (a, b, c), so the sort never compares further
    rows.sort()
    repeats = sum(x[2] == y[2] and x[:3] == y[:3] for x, y in zip(rows, rows[1:]))
    if len(rows) != planned or repeats:
        raise InvariantError(
            f"the tree of depth {depth} reached {len(rows)} triples, {repeats} repeated, not {planned}"
        )
    return rows


def markov_tree(depth: int, budget: int | None = None) -> list[MarkovTriple]:
    """All canonical (sorted) Markov triples within `depth` moves of (1, 1, 1).

    Each triple past the root is checked once against the equation, in Vieta
    form, as it is first reached (InvariantError on a failure).  Depth d >= 1
    gives 2**(d-1) + 1 triples; BudgetExceededError, before any work, when
    that exceeds `budget`.
    """
    return [row[:3] for row in _tree_rows(depth, budget, decimal=False)]


def _tree_chunks(depth: int, budget: int | None, dot: bool):
    """markov_tree_dot() or markov_tree_json() in the chunks of `_chunked`; checks run before the first."""
    rows = _tree_rows(depth, budget)
    if dot:
        yield "digraph markov {\n"
        yield from _chunked(rows, lambda batch: "".join([f'  "{r[3]},{r[4]},{r[5]}";\n' for r in batch]))
        # (1, 1, 1), the least triple, is the only one without a parent
        yield from _chunked(
            islice(rows, 1, None),
            lambda batch: "".join([f'  "{p[3]},{p[4]},{p[5]}" -> "{x},{y},{z}";\n' for _, _, _, x, y, z, p in batch]),
        )
        yield "}\n"
        return
    yield f'{{"depth": {depth}, "triples": ['
    yield from _chunked(rows, lambda batch: ", ".join([f"[{r[3]}, {r[4]}, {r[5]}]" for r in batch]), ", ")
    yield "]}"


def markov_tree_json(depth: int, budget: int | None = None) -> str:
    """json.dumps of {"depth": depth, "triples": [[a, b, c], ...]}, byte for byte."""
    return "".join(_tree_chunks(depth, budget, dot=False))


def markov_tree_dot(depth: int, budget: int | None = None) -> str:
    """The same tree as a DOT digraph, parent pointing at child."""
    return "".join(_tree_chunks(depth, budget, dot=True))


def _check_word(word) -> tuple[int, ...]:
    w = tuple(word)
    for v in w:
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"word entries must be positive integers, got {v}")
    return w


def _sweep(w: tuple[int, ...]) -> tuple[int, int]:
    """(K(w), K'(w)) of a checked word by the forward sweep p[k] = a[k]*p[k-1] + p[k-2] (it gives K by
    mirror symmetry) from K() = 1 and K'() = 0, so K''(w) = K'(w[1:]) is 0 for a one-entry w."""
    back, cur = 0, 1
    for a in w:
        back, cur = cur, a * cur + back
    return cur, back


def continuant(word) -> int:
    """K(word): K() = 1, K(x) = x, K(x0..xm) = x0*K(x1..xm) + K(x2..xm)."""
    return _sweep(_check_word(word))[0]


def continuant_drop_last(word) -> int:
    """K of the word with its last entry removed; 1 for single-entry words."""
    w = _check_word(word)
    if not w:
        raise ValueError("need at least one entry to drop")
    return _sweep(w)[1]


def continuant_interior(word) -> int:
    """K of the word with first and last entries removed; needs length >= 2."""
    w = _check_word(word)
    if len(w) < 2:
        raise ValueError("need at least two entries to drop both ends")
    return _sweep(w[1:])[1]


def _matrix_sweep(alpha: tuple[int, ...]) -> tuple[int, int, int]:
    # (K(alpha), K'(alpha), tr) in two sweeps.  M_alpha = prod [[a, 1], [1, 0]] has
    # K(alpha), K''(alpha) on its diagonal and K'(alpha) top right, tr = K + K''.  For even
    # length det M_alpha = 1, so M^2 = tr*M - I: each entry of M^k M_beta, such as
    # K'(alpha^k beta), obeys x[k+1] = tr*x[k] - x[k-1].
    k, k_drop = _sweep(alpha)
    return k, k_drop, k + _sweep(alpha[1:])[1]


def continuant_power_sequence(alpha, beta, count: int) -> list[int]:
    """[K'(beta), K'(alpha beta), K'(alpha^2 beta), ...] for even-length alpha.

    K' drops the last entry.  Each term is a direct continuant, checked
    against the two-term recurrence whose integer multiplier is the trace
    K(alpha) + K''(alpha) of alpha's continuant matrix (equal to
    K'(alpha^2)/K'(alpha)); a disagreement raises InvariantError.
    """
    a = _check_word(alpha)
    b = _check_word(beta)
    if not a or len(a) % 2:
        raise ValueError(f"alpha must be a non-empty word of even length, got {a}")
    if not isinstance(count, int) or count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    # the k = 0 term of an empty beta is the sweep's start value K'() = 0
    direct = [_sweep(a * k + b)[1] for k in range(count)]
    if count > 1:
        for k, (want, nxt) in enumerate(zip(direct, _recurrence(_matrix_sweep(a)[2], 1, *direct[:2]))):
            if nxt != want:
                raise InvariantError(
                    f"recurrence term {nxt} disagrees with direct value {want} at k={k}"
                )
    return direct


def splitting_identity_holds(alpha, beta) -> bool:
    """K'(a a b) == K(a)*K'(a b) + K'(a)*K''(a b), with K'' the interior continuant (0 for a one-entry a b)."""
    a = _check_word(alpha)
    b = _check_word(beta)
    if not a:
        raise ValueError("alpha must be non-empty")
    ab = a + b
    k, k_drop = _sweep(a)
    return _sweep(a + ab)[1] == k * _sweep(ab)[1] + k_drop * _sweep(ab[1:])[1]


@dataclass
class OverlapReport:
    """Findings of sequence_overlap_search, JSON-ready via as_dict()."""

    bounds: dict
    matches_s_ge_2: list
    s1_coincidences: list

    def as_dict(self) -> dict:
        return asdict(self)


def sequence_overlap_search(
    max_entry: int = 3,
    max_block_len: int = 4,
    max_terms: int = 6,
    budget: int | None = None,
) -> OverlapReport:
    """Check every word pair for a power sequence that replays a scaled Chebyshev chain.

    For every alpha (even length <= max_block_len) and non-empty beta (length
    <= max_block_len) with entries <= max_entry, the first two power-sequence
    terms define s = K'(beta) and b = K'(alpha beta) of the chain X0 = s, X1 =
    b, X[k+1] = (2b/s)X[k] - X[k-1].  The power sequence obeys the same
    recurrence with the trace tr = K(alpha) + K''(alpha) of alpha's continuant
    matrix as multiplier, and b >= 1, so the two agree at the third term, and
    then at every term, exactly when 2b = tr*s.  The product of continuant
    matrices gives b = K(alpha)K'(beta) + K'(alpha)K''(beta) (Aigner 2013;
    K'' = 0 for a one-entry beta), so the test reads K(alpha)K'(beta) +
    2K'(alpha)K''(beta) = K''(alpha)K'(beta), which never holds: K(alpha) >
    K''(alpha) >= 0, K'(beta) >= 1 and K''(beta) >= 0.  Both report lists are
    always empty.  The test still runs on every pair as exhaustive evidence,
    with K(alpha), K'(alpha), tr from two sweeps per alpha (`_matrix_sweep`)
    and K'(beta), K''(beta) from two per beta; a pair that passes it raises
    InvariantError.  The first two
    terms agree by construction, so max_terms must be >= 3.  The plan is one
    test per (alpha, beta) pair; BudgetExceededError, before any continuant
    is computed, when that exceeds `budget`.
    """
    if not isinstance(max_terms, int) or max_terms < 3:
        raise ValueError(f"max_terms must be >= 3, got {max_terms}")
    if not (isinstance(max_entry, int) and isinstance(max_block_len, int)) or max_entry < 1 or max_block_len < 2:
        raise ValueError("need max_entry >= 1 and max_block_len >= 2")
    planned = sum(max_entry**alen for alen in range(2, max_block_len + 1, 2)) * sum(
        max_entry**blen for blen in range(1, max_block_len + 1)
    )
    if budget is not None and planned > budget:
        raise BudgetExceededError(f"r-match needs {planned} pair tests, budget is {budget}")
    entries = range(1, max_entry + 1)
    # (beta, K'(beta), K''(beta)) once per beta; the words are built from entries >= 1
    betas = [
        (beta, _sweep(beta)[1], _sweep(beta[1:])[1])
        for blen in range(1, max_block_len + 1)
        for beta in product(entries, repeat=blen)
    ]
    for alen in range(2, max_block_len + 1, 2):
        for alpha in product(entries, repeat=alen):
            k, k_drop, tr = _matrix_sweep(alpha)
            for beta, s0, inner in betas:
                if 2 * (k * s0 + k_drop * inner) == tr * s0:
                    raise InvariantError(
                        f"alpha={list(alpha)}, beta={list(beta)} replays a chain, which the lemma rules out"
                    )
    bounds = {
        "max_entry": max_entry,
        "max_block_len": max_block_len,
        "max_terms": max_terms,
    }
    return OverlapReport(bounds, [], [])
