"""Triples on Cayley's cubic surface: conjugation, reduction, solution graphs.

The surface is s*(x^2 + y^2 + z^2) - s^3 - 2xyz = 0 over positive integers.
Fixing two components turns it into a quadratic in the third, so every
component x of a solution has a conjugate 2yz/s - x.  Swapping a component
for its conjugate is the move that grows and shrinks solutions; everything
in this module is built out of that move.  The move is one integer kernel
(2yz divided by s with remainder); a conjugate becomes a `Fraction` only
where one is returned.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from math import gcd

from .errors import BudgetExceededError, InvariantError, NotASolutionError
from .sequences import _chain_values, _terms, family_multiplier

__all__ = [
    "COMPONENT_NAMES",
    "Triple",
    "SolutionGraph",
    "cayley_value",
    "conjugate_component",
    "neighbors",
    "family_triple",
    "is_singular",
    "is_base",
    "base_value",
    "reduction_trace",
    "euclid_index_path",
    "solution_graph",
]

COMPONENT_NAMES = ("a", "b", "c")

# lines per chunk of every streamed writer; 1024 used less RSS, but the next operations ran ~2% slower
_CHUNK_LINES = 4096


def _chunked(items, fmt, sep: str = ""):
    """fmt(batch) for each batch of up to _CHUNK_LINES `items`, and `sep` as a piece of its own
    between two chunks, so no chunk is copied; no chunk is kept once it is yielded."""
    items = iter(items)
    for k, first in enumerate(items):
        if k and sep:
            yield sep
        yield fmt(chain((first,), islice(items, _CHUNK_LINES - 1)))


def _decimal_table(triples) -> dict[int, str]:
    """{x: str(x)} over the components of some triples: each distinct value formatted once."""
    return {x: str(x) for x in set().union(*triples)}


def cayley_value(s: int, x: int, y: int, z: int) -> int:
    """s*(x^2+y^2+z^2) - s^3 - 2xyz; zero exactly when (x, y, z) solves the surface."""
    return s * (x * x + y * y + z * z) - s * s * s - 2 * x * y * z


@dataclass(frozen=True)
class Triple:
    """A positive component triple attached to the surface parameter s.

    Components keep the order they were built with; canonical() sorts them
    ascending, which is the form used by graphs and search output.
    """

    s: int
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        for name, v in (("s", self.s), ("a", self.a), ("b", self.b), ("c", self.c)):
            if v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v}")

    @property
    def components(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    @property
    def value(self) -> int:
        return cayley_value(self.s, self.a, self.b, self.c)

    @property
    def is_solution(self) -> bool:
        return self.value == 0

    def canonical(self) -> "Triple":
        x, y, z = sorted(self.components)
        return Triple(self.s, x, y, z)

    def replace(self, index: int, value: int) -> "Triple":
        comps = list(self.components)
        comps[index] = value
        return Triple(self.s, *comps)


def _require_solution(t: Triple) -> None:
    if not t.is_solution:
        raise NotASolutionError(
            f"(s={t.s}; {t.a},{t.b},{t.c}) is not a solution (value {t.value})"
        )


def _conjugate(s: int, x: int, y: int, z: int) -> int | None:
    """The conjugate 2yz/s - x of component x, y and z being the other two, or None when
    it is not an integer: the one integer move, a single divmod(2yz, s)."""
    q, r = divmod(2 * y * z, s)
    return None if r else q - x


def _conjugate_numerators(s: int, a: int, b: int, c: int) -> tuple[int, int, int]:
    """2yz - s*x for each component x of (a, b, c): its conjugate times s."""
    return (2 * b * c - s * a, 2 * a * c - s * b, 2 * a * b - s * c)


def _row_moves(s: int, a: int, b: int, c: int):
    """(k, v, moved row) for each component k of a row (a, b, c) whose conjugate v is a
    positive integer, fixed points included: one `_conjugate` per component, y and z the
    other two; when the row is sorted, so is the moved row, v inserted between y <= z."""
    for k, x, y, z in ((0, a, b, c), (1, b, a, c), (2, c, a, b)):
        if (v := _conjugate(s, x, y, z)) is not None and v >= 1:
            yield k, v, (v, y, z) if v <= y else (y, v, z) if v <= z else (y, z, v)


def conjugate_component(t: Triple, index: int) -> Fraction:
    """The other root of the surface read as a quadratic in the chosen component."""
    _require_solution(t)
    if index not in (0, 1, 2):
        raise ValueError(f"component index must be 0, 1 or 2, got {index}")
    return Fraction(_conjugate_numerators(t.s, *t.components)[index], t.s)


def neighbors(t: Triple) -> list[Triple]:
    """Solutions reached by one conjugation move, in component order.

    A conjugate produces a neighbor only if it is a positive integer and
    differs from the component it replaces, so fixed points yield nothing.
    Results keep the component positions of t; identical solutions reached
    through different components are not merged here.
    """
    _require_solution(t)
    return [t.replace(k, v) for k, v, _ in _row_moves(t.s, *t.components) if v != t.components[k]]


def family_triple(s: int, b: int, n: int, m: int, *, budget: int | None = None) -> Triple:
    """(X_n, X_{n+m}, X_m) of the scaled Chebyshev chain at base (s, b), each by index doubling.

    The plan bounds the decimal digits of each value, from none of them: with
    d = 2b/s, the chain stays within s when d <= 2, and when d >= 3 it grows,
    by at most d a step, so each value is at most b*d^(n+m-1) < 2^L with
    L = bl(b) + (n+m-1)*bl(d^64)/64 (bl the bit length); log10(2) < 0.30103.
    BudgetExceededError, before any term is computed, when it exceeds `budget`.
    """
    if n < 0 or m < 0:
        raise ValueError(f"chain indices must be non-negative, got ({n}, {m})")
    if n == 0 and m == 0:
        raise ValueError("indices (0, 0) give the degenerate triple (s, s, s) twice over")
    mult = family_multiplier(s, b)
    if budget is not None:
        growth = (n + m - 1) * (mult**64).bit_length() if mult > 2 else 0
        bits64 = 64 * max(s, b).bit_length() + growth
        if (planned := bits64 * 30103 // 6_400_000 + 1) > budget:
            raise BudgetExceededError(f"family needs up to {planned} digits per value, budget is {budget}")
    return Triple(s, *_terms(mult, 1, s, b, n, n + m, m))


def is_singular(t: Triple) -> bool:
    """Shape {x, x, 1}: the terminal shape of reduction on the s = 1 surface."""
    x0, x1, x2 = sorted(t.components)
    return x0 == 1 and x1 == x2


def base_value(t: Triple) -> int | None:
    """The p with component multiset {s, p, p}, or None if t is not base-shaped."""
    x0, x1, x2 = sorted(t.components)
    if x1 == x2 and x0 == t.s:
        return x1
    if x0 == x1 and x2 == t.s:
        return x0
    return None


def is_base(t: Triple) -> bool:
    """Shape {s, p, p}: the one-parameter family solving the surface for every p."""
    return base_value(t) is not None


def reduction_trace(t: Triple) -> list[Triple]:
    """Canonical triples visited while the maximal component can still shrink.

    Each step replaces the maximal component, the last of the sorted triple,
    by its conjugate while that is an integer, positive and strictly smaller
    (on a tie every maximal component gives the same move).  The maximum
    strictly decreases, so this terminates.
    """
    _require_solution(t)
    s = t.s
    a, b, c = sorted(t.components)
    trace = [Triple(s, a, b, c)]
    while (v := _conjugate(s, c, a, b)) is not None and 1 <= v < c:
        a, b, c = sorted((a, b, v))
        trace.append(Triple(s, a, b, c))
    return trace


def euclid_index_path(n: int, m: int) -> list[tuple[int, int]]:
    """Subtractive-Euclid trail from (n, m) down to a pair containing zero.

    The larger entry is replaced by the difference (ties subtract from the
    second entry).  The path mirrors reduction_trace on the corresponding
    chain triple: both visit one state per step.
    """
    if n < 0 or m < 0:
        raise ValueError(f"indices must be non-negative, got ({n}, {m})")
    if n == 0 and m == 0:
        raise ValueError("(0, 0) has no reduction path")
    path = [(n, m)]
    while n != 0 and m != 0:
        if n > m:
            n -= m
        else:
            m -= n
        path.append((n, m))
    return path


@dataclass(frozen=True)
class SolutionGraph:
    """Bounded conjugation closure of one seed solution.

    vertices: canonical (ascending) component triples, sorted.
    edges: (i, j, k) with vertex indices i < j; k is the position in
        vertices[i] whose conjugation yields vertices[j] (smallest such k).
    frontier: indices of vertices having an integral positive conjugate
        whose triple would exceed the bound.
    """

    s: int
    bound: int
    vertices: tuple[tuple[int, int, int], ...]
    edges: tuple[tuple[int, int, int], ...]
    frontier: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "s": self.s,
            "bound": self.bound,
            "vertices": [list(v) for v in self.vertices],
            "edges": [list(e) for e in self.edges],
            "frontier": list(self.frontier),
        }

    def _chunks(self, dot: bool):
        """to_dot() or to_json() in pieces of _CHUNK_LINES vertices or edges."""
        text = _decimal_table(self.vertices)
        if dot:
            vs, frontier = self.vertices, dict.fromkeys(self.frontier, " [peripheries=2]")
            yield "graph cayley {\n"
            yield from _chunked(
                enumerate(vs),
                lambda batch: "".join([f'  "{text[a]},{text[b]},{text[c]}"{frontier.get(i, "")};\n' for i, (a, b, c) in batch]),
            )
            yield from _chunked(
                self.edges,
                lambda batch: "".join([
                    f'  "{text[a]},{text[b]},{text[c]}" -- "{text[x]},{text[y]},{text[z]}" [label="{COMPONENT_NAMES[k]}"];\n'
                    for i, j, k in batch for (a, b, c), (x, y, z) in [(vs[i], vs[j])]
                ]),
            )
            yield "}\n"
            return
        yield f'{{"s": {self.s}, "bound": {self.bound}, "vertices": ['
        yield from _chunked(
            self.vertices, lambda batch: ", ".join([f"[{text[a]}, {text[b]}, {text[c]}]" for a, b, c in batch]), ", "
        )
        yield '], "edges": ['
        yield from _chunked(self.edges, lambda batch: json.dumps(list(batch))[1:-1], ", ")
        yield f'], "frontier": {json.dumps(self.frontier)}}}'

    def to_json(self) -> str:
        """json.dumps(self.as_dict()), formatting each distinct component once."""
        return "".join(self._chunks(dot=False))

    def to_dot(self) -> str:
        return "".join(self._chunks(dot=True))


def solution_graph(seed: Triple, bound: int) -> SolutionGraph:
    """Conjugation closure of seed among triples with max <= bound.

    Chain seeds, whose reduction ends at (s, p, p) with p > s and s | 2p, are
    read off in index space.  The chain X_0 = s, X_1 = p,
    X_{k+1} = (2p/s) X_k - X_{k-1} strictly increases (2p/s >= 3); let
    X_N <= bound < X_{N+1}.  The component is exactly the triples
    (X_i, X_j, X_{i+j}) over coprime 0 <= i <= j with i + j <= N:

    - by 2 X_a X_b / s = X_{a+b} + X_{|a-b|}, the three moves of (i, j) give
      the pairs (j, i+j), (i, i+j) and (|i-j|, min(i, j)), so every move keeps
      the gcd and the set is closed under the moves that stay in bound;
    - the descent of a coprime pair is the subtractive Euclid path down to
      (0, 1), the terminal (s, p, p); its maximal index only falls, so the
      path stays in bound and, read backwards, reaches the pair.

    Seeds of a base X_g with g > 1 reduce to (s, X_g, X_g) and so are chain
    seeds of that base.  Values grow with the index, so the pairs in
    lexicographic order are the vertices in order; (i, j) moves up to
    (j, i+j) by component 0 and, when 0 < i < j, to (i, i+j) by component 1,
    and it is on the frontier exactly when i + 2j > N.

    Every other seed gets a breadth-first search in value space.  Each
    vertex's moves are computed once, when it leaves the queue; edges (at
    their smaller end) and frontier vertices are recorded as triples and
    renumbered after the sort, which keeps v < w exactly when i < j.
    """
    # the trace checks the seed first: a non-solution is refused before the bound is read
    low, p, high = reduction_trace(seed)[-1].components
    start = tuple(sorted(seed.components))
    if bound < max(start):
        raise ValueError("bound must cover the seed's maximal component")
    s = seed.s
    if low == s < p == high and 2 * p % s == 0:
        xs = _chain_values(s, p, bound)
        top = len(xs) - 1
        # numbered only once all coprime pairs are in, so the numbers the edges keep sit apart from the freed pairs
        index = dict.fromkeys((i, j) for i in range(top // 2 + 1) for j in range(max(i, 1), top - i + 1) if gcd(i, j) == 1)
        for k, pair in enumerate(index):
            index[pair] = k
        vertices = tuple((xs[i], xs[j], xs[i + j]) for i, j in index)
        edges, frontier = [], []
        for k, (i, j) in enumerate(index):
            # (i, i+j) sorts before (j, i+j), so the edges come out sorted
            if 0 < i < j and 2 * i + j <= top:
                edges.append((k, index[i, i + j], 1))
            if i + 2 * j <= top:
                edges.append((k, index[j, i + j], 0))
            else:
                frontier.append(k)
        at = bisect_left(vertices, start)
        if at == len(vertices) or vertices[at] != start:
            raise InvariantError(f"seed {start} is not in the index-space component of base ({s}, {p})")
        return SolutionGraph(s, bound, vertices, tuple(edges), tuple(frontier))
    seen = {start}
    queue = deque([start])
    labels: dict[tuple, int] = {}
    frontier = set()
    while queue:
        cur = queue.popleft()
        # moves come in component order, so the first label of an edge is its least;
        # a fixed point moves onto cur itself and adds nothing
        for comp, v, nxt in _row_moves(s, *cur):
            if v > bound:
                frontier.add(cur)
                continue
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
            if cur < nxt:
                labels.setdefault((cur, nxt), comp)
    vertices = sorted(seen)
    index = {v: i for i, v in enumerate(vertices)}
    edges = tuple(sorted((index[v], index[w], k) for (v, w), k in labels.items()))
    return SolutionGraph(s, bound, tuple(vertices), edges, tuple(sorted(index[v] for v in frontier)))
