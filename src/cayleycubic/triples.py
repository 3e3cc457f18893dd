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

from bisect import bisect_left, bisect_right
from collections import deque
from itertools import accumulate, chain, compress, islice, takewhile
from math import gcd
from operator import attrgetter
from reprlib import recursive_repr

from .errors import BudgetExceededError, InvariantError, NotASolutionError
from .sequences import _chain_values, _recurrence, _terms, family_multiplier

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

_set = object.__setattr__  # how a record's __init__ writes a field past the refusing __setattr__


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


class _Record:
    """What `dataclass(frozen=True)` made of a value type, on the fields its `__slots__` names in
    order: read-only fields, equality and hash by class and fields, its repr, positional `match`,
    and pickling and copying through the constructor.  `__init__` writes the fields with `_fill`."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        return self._values(self) == other._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    @recursive_repr()
    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self))])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of {type(self).__name__} is read-only")

    __delattr__ = __setattr__


class Triple(_Record):
    """A positive component triple attached to the surface parameter s.

    Components keep the order they were built with; canonical() sorts them
    ascending, which is the form used by graphs and search output.
    """

    __slots__ = ("s", "a", "b", "c")

    # `_fill` and the record's equality and hash, unrolled: Triples are built, hashed and compared in bulk
    def __init__(self, s: int, a: int, b: int, c: int) -> None:
        _set(self, "s", s)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.s, self.a, self.b, self.c) == (other.s, other.a, other.b, other.c)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.s, self.a, self.b, self.c))

    def __post_init__(self) -> None:
        for name, v in (("s", self.s), ("a", self.a), ("b", self.b), ("c", self.c)):
            if not isinstance(v, int) or v < 1:
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
    from fractions import Fraction  # on call: no command builds one, and the import costs a cold start
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

    The plan bounds the decimal digits of each value, from none of them: with d = 2b/s, the
    chain stays within s when d <= 2 (d = 1 goes negative, s, s/2, -s/2, -s, ...: ValueError),
    and when d >= 3 it grows, by at most d a step, so each value is at most b*d^(n+m-1) < 2^L
    with L = bl(b) + (n+m-1)*bl(d^64)/64 (bl the bit length); log10(2) < 0.30103.
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
    xs = _terms(mult, 1, s, b, n, n + m, m)
    if bad := [(k, x) for k, x in zip((n, n + m, m), xs) if x < 1]:
        raise ValueError(f"chain value X_{bad[0][0]} = {bad[0][1]} of base ({s}, {b}) is not positive")
    return Triple(s, *xs)


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


def _descent(t: Triple):
    """The sorted rows (a, b, c) of reduction_trace(t) as int tuples, after the check that t
    is a solution: the one descent, for callers that build no `Triple` per step."""
    _require_solution(t)
    s = t.s
    a, b, c = sorted(t.components)
    yield a, b, c
    while (v := _conjugate(s, c, a, b)) is not None and 1 <= v < c:
        a, b, c = sorted((a, b, v))
        yield a, b, c


def reduction_trace(t: Triple) -> list[Triple]:
    """Canonical triples visited while the maximal component can still shrink.

    Each step replaces the maximal component, the last of the sorted triple,
    by its conjugate while that is an integer, positive and strictly smaller
    (on a tie every maximal component gives the same move).  The maximum
    strictly decreases, so this terminates.
    """
    return [Triple(t.s, *row) for row in _descent(t)]


def euclid_index_path(n: int, m: int) -> list[tuple[int, int]]:
    """Subtractive-Euclid trail from (n, m) down to a pair containing zero.

    The larger entry is replaced by the difference (ties subtract from the
    second entry).  The path mirrors reduction_trace on the corresponding
    chain triple: both visit one state per step.
    """
    if not (isinstance(n, int) and isinstance(m, int)):
        raise ValueError(f"indices must be integers, got ({n}, {m})")
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


class SolutionGraph(_Record):
    """Bounded conjugation closure of one seed solution.

    vertices: canonical (ascending) component triples, sorted.
    edges: (i, j, k) with vertex indices i < j; k is the position in
        vertices[i] whose conjugation yields vertices[j] (smallest such k).
    frontier: indices of vertices having an integral positive conjugate
        whose triple would exceed the bound.
    """

    __slots__ = ("s", "bound", "vertices", "edges", "frontier")

    def __init__(self, s: int, bound: int, vertices: tuple, edges: tuple, frontier: tuple[int, ...]) -> None:
        self._fill(s, bound, vertices, edges, frontier)

    def as_dict(self) -> dict:
        return {
            "s": self.s,
            "bound": self.bound,
            "vertices": [list(v) for v in self.vertices],
            "edges": [list(e) for e in self.edges],
            "frontier": list(self.frontier),
        }

    def _chunks(self, dot: bool):
        """to_dot() or to_json() in pieces of _CHUNK_LINES vertices, edges or frontier indices."""
        return _graph_chunks(self.s, self.bound, self.vertices, self.edges, self.frontier, _decimal_table(self.vertices), dot)

    def to_json(self) -> str:
        """json.dumps(self.as_dict()), formatting each distinct component once."""
        return "".join(self._chunks(dot=False))

    def to_dot(self) -> str:
        return "".join(self._chunks(dot=True))


def _graph_chunks(s: int, bound: int, vertices, edges, frontier, text, dot: bool):
    """The JSON or DOT text of a graph in pieces of _CHUNK_LINES vertices, edges or frontier indices.

    The one writer.  vertices: a sequence of key triples, text[key] the decimal of a component;
    edges: an iterable of (i, j, k) in order; frontier: the sorted frontier indices.
    """
    if dot:
        marks = bytearray(len(vertices))  # one byte a vertex, 1 on the frontier
        for i in frontier:
            marks[i] = 1
        yield "graph cayley {\n"
        yield from _chunked(
            zip(vertices, marks),
            lambda batch: "".join([f'  "{text[a]},{text[b]},{text[c]}"{" [peripheries=2]" * m};\n' for (a, b, c), m in batch]),
        )
        yield from _chunked(
            edges,
            lambda batch: "".join([
                f'  "{text[a]},{text[b]},{text[c]}" -- "{text[x]},{text[y]},{text[z]}" [label="{COMPONENT_NAMES[k]}"];\n'
                for i, j, k in batch for (a, b, c), (x, y, z) in [(vertices[i], vertices[j])]
            ]),
        )
        yield "}\n"
        return
    yield f'{{"s": {s}, "bound": {bound}, "vertices": ['
    yield from _chunked(vertices, lambda batch: ", ".join([f"[{text[a]}, {text[b]}, {text[c]}]" for a, b, c in batch]), ", ")
    yield '], "edges": ['
    yield from _chunked(edges, lambda batch: ", ".join([f"[{i}, {j}, {k}]" for i, j, k in batch]), ", ")
    yield '], "frontier": ['
    yield from _chunked(frontier, lambda batch: ", ".join(map(str, batch)), ", ")
    yield "]}"


def _totients(n: int) -> tuple[list[int], list[list[int]]]:
    """phi(0..n) and the primes dividing each of 0..n, from one sieve over the primes p <= n."""
    phi, primes = list(range(n + 1)), [[] for _ in range(n + 1)]
    for p in range(2, n + 1):
        if not primes[p]:
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
                primes[m].append(p)
    return phi, primes


def _chain_component(top: int, budget: int | None):
    """(vertices, edges, frontier) of the chain component up to X_top in index space, as in
    solution_graph: vertex k is the index triple (i, j, i+j) of the k-th coprime pair."""
    phi, primes = _totients(top)
    count = 1 if top == 1 else 2 + sum(phi[3:]) // 2
    if budget is not None and count > budget:
        raise BudgetExceededError(f"graph needs {count} vertices, budget is {budget}")
    index = list(range(top + 1))  # the rows and vertices share these ints: no copy per vertex
    rows = [[1]]  # gcd(0, j) = j
    for i in range(1, top // 2 + 1):
        coprime = bytearray(b"\1") * (top + 1)
        for p in primes[i]:
            coprime[::p] = bytes(top // p + 1)
        rows.append(list(compress(index[i : top - i + 1], coprime[i : top - i + 1])))
    first = list(accumulate(map(len, rows), initial=0))
    vertices = [(i, j, index[i + j]) for i, js in enumerate(rows) for j in js]
    frontier = [k for i, js in enumerate(rows) for k in range(first[i] + bisect_right(js, (top - i) // 2), first[i + 1])]

    def edges():
        slot = first[:-1]  # the next unused vertex of each row
        k = 0
        for i, js in enumerate(rows):
            step, last1, last0 = phi[i], top - 2 * i, (top - i) // 2
            for j in js:
                # (i, i+j) sorts before (j, i+j), so the edges come out sorted
                if 0 < i < j <= last1:
                    yield k, k + step, 1
                if j <= last0:
                    yield k, slot[j], 0
                    slot[j] += 1
                k += 1

    return vertices, edges(), frontier


def _component(seed: Triple, bound: int, budget: int | None):
    """(xs, vertices, edges, frontier) of solution_graph(seed, bound) with every check run, each
    vertex an index triple into the ascending values xs; the edges are iterated once."""
    # the descent checks the seed first: a non-solution is refused before the bound is read
    *_, (low, p, high) = _descent(seed)
    start = tuple(sorted(seed.components))
    if not isinstance(bound, int):
        raise ValueError(f"bound must be an integer, got {bound}")
    if bound < start[2]:
        raise ValueError("bound must cover the seed's maximal component")
    s = seed.s
    if low == s < p == high and 2 * p % s == 0:
        # the plan needs N alone: count the chain values, keeping none, so a refusal holds no list of them
        top = sum(1 for _ in takewhile(lambda x: x <= bound, _recurrence(2 * p // s, 1, s, p))) - 1
        vertices, edges, frontier = _chain_component(top, budget)
        xs = _chain_values(s, p, bound)
        i, j, n = (bisect_left(xs, x) for x in start)
        if n >= len(xs) or (xs[i], xs[j], xs[n]) != start or i + j != n or gcd(i, j) != 1:
            raise InvariantError(f"seed {start} is not in the index-space component of base ({s}, {p})")
        return xs, vertices, edges, frontier
    seen = {start}
    queue = deque([start])
    labels: dict[tuple, int] = {}
    frontier = set()
    while queue:
        if budget is not None and len(seen) > budget:
            raise BudgetExceededError(f"graph needs more than {budget} vertices, budget is {budget}")
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
    xs = sorted(set().union(*vertices))
    at = {x: i for i, x in enumerate(xs)}
    edges = sorted((index[v], index[w], k) for (v, w), k in labels.items())
    return xs, [(at[a], at[b], at[c]) for a, b, c in vertices], edges, sorted(index[v] for v in frontier)


def solution_graph(seed: Triple, bound: int, *, budget: int | None = None) -> SolutionGraph:
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
    seeds of that base.  Values grow with the index, so vertex k is the k-th
    pair in lexicographic order; row i holds the coprime j in
    [max(i, 1), N - i].  Component 0 moves (i, j) to (j, i+j), component 1
    (when 0 < i < j) to (i, i+j), and each end is found by arithmetic:

    - (i, i+j), a vertex when 2i + j <= N, is vertex k + phi(i): since
      gcd(i, j) = gcd(i, i + j), row i repeats with period i, phi(i) entries
      per period, and phi(i) of them lie in (j, i + j];
    - (j, i+j) is the next unused vertex of row j: the entries of row j
      below 2j are j + i over the coprime i < j (i = 0, 1 when j = 1), and
      their sources (i, j) come before row j in increasing i, those in
      bound (i <= N - 2j) first;
    - (i, j) is on the frontier exactly when j > (N - i)/2, that is when its
      component-0 move, to index i + 2j >= 2i + j, passes N; the move down
      stays in bound.

    One totient sieve gives phi and the vertex count: 1 when N = 1, else
    2 + sum_{n=3..N} phi(n)/2, as a sum n = i + j >= 3 has phi(n)/2 coprime
    pairs i < j and n = 1, 2 give (0, 1) and (1, 1).  BudgetExceededError,
    before any vertex is built, when that count exceeds `budget`.

    Every other seed gets a breadth-first search in value space.  Each
    vertex's moves are computed once, when it leaves the queue; edges (at
    their smaller end) and frontier vertices are recorded as triples and
    renumbered after the sort, which keeps v < w exactly when i < j.
    BudgetExceededError once it has seen more than `budget` vertices.
    """
    xs, vertices, edges, frontier = _component(seed, bound, budget)
    return SolutionGraph(seed.s, bound, tuple((xs[a], xs[b], xs[c]) for a, b, c in vertices), tuple(edges), tuple(frontier))
