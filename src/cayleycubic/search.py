"""Bounded exhaustive enumeration and classification of surface solutions.

Enumeration fixes the two smallest components a <= b and solves the
quadratic in the largest one.  It has a rational root only when
(a^2 - s^2)(b^2 - s^2) is a square, that is when both factors lie in the
same signed square class (+- their squarefree part).  So one O(B) pass
gives each x <= B its class, and only the pairs within a class are tried:
about B of them for a bound B (most classes hold one x), instead of the
B^2/2 pairs of the (a, b) grid.  The search stays exhaustive and runs in
one process.  Classification then connects the enumerated solutions
by conjugation moves and tags each one, in one pass over the sorted list:
a solution's reduction parent is enumerated and sorts before it, so its
terminal base is its parent's, and its family is the positions of its
components in that base's chain (see `_classify_rows`); the base rows
(s, p, p), nearly all of the output, are settled in closed form.  The pass
and the writers work on int rows (a, b, c) and write text in chunks;
`Triple`, `Fraction` and `Classification` objects are built only for
library callers.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import BudgetExceededError, InvariantError, NotASolutionError
from .sequences import _chain_values
from .triples import Triple, _chunked, _conjugate_numerators, _row_moves, base_value, reduction_trace

__all__ = [
    "Classification",
    "enumerate_solutions",
    "family_membership",
    "classify",
    "triples_to_csv",
    "triples_to_jsonl",
    "classifications_to_csv",
    "classifications_to_jsonl",
    "TAG_ORDER",
]

TAG_ORDER = ("base", "r-family", "isolated", "frontier-limited")


def _squarefree_cores(n: int) -> list[int]:
    """core[k] for 0 <= k <= n: k with every square factor divided out."""
    core = list(range(n + 1))
    for k in range(2, isqrt(n) + 1):
        kk = k * k
        # a composite k never divides: its primes' squares are already gone
        for m in range(kk, n + 1, kk):
            while core[m] % kk == 0:
                core[m] //= kk
    return core


def _enumerate_range(s: int, bound: int) -> list[tuple[int, int, int]]:
    """Solutions (a, b, c) with 1 <= a <= b <= c <= bound, in no set order.

    The quadratic in c has the roots (ab +- r)/s with r^2 = (a^2-s^2)(b^2-s^2).
    With x^2 - s^2 = +-f*g^2, f squarefree, the product is a square exactly
    when a and b share the signed class +-f, and then r = f*g_a*g_b.  So only
    the pairs a <= b within a class are tried (a < s < b never is one), and
    a = s gives the rows (s, b, b).

    Only (ab + r)/s is tried: the smaller root is below b.  For a > s the
    quadratic at c = b, (s - a)(2b^2 - s(a + s)), is negative; for a < s
    the smaller root is below the vertex ab/s < b.
    """
    # A solution has a^2 + b^2 + c^2 = s^2 + 2abc/s > s^2, so there is none when
    # 3*bound^2 < s^2; returning here keeps the core table O(bound) however large s is.
    if s * s > 3 * bound * bound:
        return []
    core = _squarefree_cores(bound + s)
    # the signed class of x^2 - s^2; x = s (core[0] = 0) gets class 0
    key = [0] * (bound + 1)
    for x in range(1, bound + 1):
        u, v = core[abs(x - s)], core[x + s]
        f = u * v // gcd(u, v) ** 2
        key[x] = f if x > s else -f
    del core
    ss = s * s
    # the sort is stable: each class is one ascending run, and b pairs with
    # every member so far, itself included
    rows, members, last = [], [], 0
    for b in sorted(range(1, bound + 1), key=key.__getitem__):
        sf = key[b]
        if sf == 0:
            continue
        if sf != last:
            members, last, f = [], sf, abs(sf)
        gb = isqrt(abs(b * b - ss) // f)
        members.append((b, gb))
        for a, ga in members:
            c, rem = divmod(a * b + f * ga * gb, s)
            if rem == 0 and b <= c <= bound:
                rows.append((a, b, c))
    del key  # freed first: the class table and the base run's tuples are never alive together
    rows += [(s, b, b) for b in range(s, bound + 1)]
    return rows


def _solution_rows(s: int, bound: int, budget: int | None) -> list[tuple[int, int, int]]:
    """The rows of `enumerate_solutions` as sorted int tuples (a, b, c), after its checks."""
    if s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    planned = bound * (bound + 1) // 2
    if budget is not None and planned > budget:
        raise BudgetExceededError(f"enumeration at bound {bound} needs {planned} quadratic solves, budget is {budget}")
    return sorted(_enumerate_range(s, bound))


def enumerate_solutions(s: int, bound: int, *, budget: int | None = None) -> list[Triple]:
    """All solutions with 1 <= a <= b <= c <= bound, canonical and sorted.

    The plan is bound*(bound+1)/2 quadratic solves, one per (a, b) pair of
    the grid: an upper bound on the pairs the square-class join tries, about
    bound of them.  If a budget is given and the plan exceeds it, the call
    fails up front rather than part-way.  The join runs in this process.
    """
    return [Triple(s, *r) for r in _solution_rows(s, bound, budget)]


def _chain_family(s: int, comps: tuple[int, int, int], p: int, index: dict[int, int]) -> tuple[int, int, int]:
    """(p, n, m) with comps a permutation of (X_n, X_{n+m}, X_m), n <= m, read
    off `index`, the chain position k of each value X_k at base (s, p)."""
    try:
        n, m, top = sorted(index[x] for x in comps)
    except KeyError:
        raise InvariantError(f"{comps} has a component off the chain at base ({s}, {p})") from None
    if top != n + m:
        raise InvariantError(f"{comps} sits at chain indices ({n}, {m}, {top}), not (n, m, n + m)")
    return (p, n, m)


def family_membership(t: Triple) -> tuple[int, int, int] | None:
    """(b, n, m) such that t is a permutation of chain values (X_n, X_{n+m}, X_m).

    b is the base value of the triple's reduction terminal (s, b, b), which
    is (X_0, X_1, X_1).  Any other member has b > s, so its chain strictly
    increases and (n, m) are the positions of its components in it; they
    must have the form {n, m, n + m}.  Returns None when the terminal is not
    base-shaped or when its base value fails the s | 2b integrality gate.
    """
    trace = reduction_trace(t)
    p = base_value(trace[-1])
    if p is None or 2 * p % t.s:
        return None
    if len(trace) == 1:
        return (p, 0, 1)
    index = {x: k for k, x in enumerate(_chain_values(t.s, p, max(t.components)))}
    return _chain_family(t.s, t.components, p, index)


@dataclass(frozen=True)
class Classification:
    """One enumerated solution with its tags and exact conjugate data.

    tags is an ordered subset of ("base", "r-family", "isolated",
    "frontier-limited"); component is the vertex index of the smallest
    member of the triple's conjugation component within the bound.
    """

    triple: Triple
    tags: tuple[str, ...]
    family: tuple[int, int, int] | None
    component: int
    conjugates: tuple[Fraction, Fraction, Fraction]


# the tags of a row by bit mask: base 1, r-family 2, isolated 4, frontier-limited 8
_TAG_SETS = [tuple(tag for bit, tag in enumerate(TAG_ORDER) if mask >> bit & 1) for mask in range(16)]
_TAG_JSON = {tags: json.dumps(list(tags)) for tags in _TAG_SETS}


def _classify_rows(s: int, bound: int, rows: list[tuple[int, int, int]]):
    """The pass of `classify`: each sorted row's (tags, family, component), by an iterator that finds components as read.

    Each row is first checked to solve the cubic, exactly in integers.  A
    base row (s, p, p), p >= s, most of the output, is then settled in
    closed form: both p components are fixed points (2sp/s - p = p), so it
    is not isolated and is a terminal, and s moves up to (p, p, 2p^2/s - s)
    when s | 2p^2.  Past the bound that move makes it frontier-limited;
    within it, the union comes from the row it lands on, whose move of its
    largest component comes back (p = s moves onto itself).  For the other
    rows, the moves of `_row_moves` give the union/find edges and both tags.
    The conjugate of c, the last and maximal component, is the move of
    `reduction_trace`.  When it shrinks the row it lands on the
    reduction parent, which is enumerated (positive, within the bound) and
    sorts earlier (one component got smaller), so each row takes its
    parent's terminal base; one without such a move is a terminal.  The
    family is then read off that base's chain with the checks of
    `family_membership`, one value-to-index table per base.  Moved rows are
    found by bisection; `parent` holds only the rows a move touched.
    """
    parent = {}

    def find(i: int) -> int:
        while (up := parent.get(i, i)) != i:
            parent[i] = parent.get(up, up)
            i = parent[i]
        return i

    sss = s * s * s
    chains = {}  # {X_k: k} of each base p met off its terminal
    tags, fams = [], []
    for i, (a, b, c) in enumerate(rows):
        value = s * (a * a + b * b + c * c) - sss - 2 * a * b * c
        if value:
            raise NotASolutionError(f"(s={s}; {a},{b},{c}) is not a solution (value {value})")
        if a == s and b == c:
            q, r = divmod(2 * b * b, s)
            fam = None if 2 * b % s else (b, 0, 1)
            tags.append(_TAG_SETS[1 | (fam is not None) << 1 | (not r and q - s > bound) << 3])
            fams.append(fam)
            continue
        isolated, frontier, up = True, False, None
        for k, cv, moved in _row_moves(s, a, b, c):
            # a fixed point moves onto the row itself: not isolated, but it joins nothing
            isolated = False
            if cv > bound:
                frontier = True
                continue
            j = bisect_left(rows, moved)
            if j == len(rows) or rows[j] != moved:
                raise InvariantError(f"the move of {(a, b, c)} lands on {moved}, which was not enumerated")
            ri, rj = find(i), find(j)
            # the smaller root stays, so find(i) ends as the least index of i's component
            parent[max(ri, rj)] = min(ri, rj)
            if k == 2 and cv < c:
                up = j
        # base_value of a sorted row other than (s, p, p): (p, p, s) with p < s
        base = a if a == b and c == s else None
        if up is None:
            # a terminal (p, p, s), p < s, is its own base when s | 2p
            fam = None if base is None or 2 * base % s else (base, 0, 1)
        elif fams[up] is None:
            fam = None
        else:
            p = fams[up][0]  # the parent's terminal base
            if p not in chains:
                chains[p] = {x: k for k, x in enumerate(_chain_values(s, p, bound))}
            fam = _chain_family(s, (a, b, c), p, chains[p])
        tags.append(_TAG_SETS[(base is not None) | (fam is not None) << 1 | isolated << 2 | frontier << 3])
        fams.append(fam)
    return zip(tags, fams, (find(i) if i in parent else i for i in range(len(rows))))


def classify(s: int, bound: int, *, budget: int | None = None) -> list[Classification]:
    """Classify every solution within the bound; deterministic triple order.

    The pass is `_classify_rows`, over int rows; the objects are built here, for library callers.
    """
    rows = _solution_rows(s, bound, budget)
    return [
        Classification(Triple(s, a, b, c), t, f, k, tuple(Fraction(n, s) for n in _conjugate_numerators(s, a, b, c)))
        for (a, b, c), (t, f, k) in zip(rows, _classify_rows(s, bound, rows))
    ]


def _conjugate_texts(s: int, a: int, b: int, c: int) -> list[str]:
    """str() of the row's conjugates as `Fraction`s, each reduced by one gcd.  Those
    of a base row (s, p, p) are (2p^2 - s^2)/s, p and p: one gcd in all."""
    if a == s and b == c:
        n, p = 2 * b * b - s * s, str(b)
        return [str(n // s) if (g := gcd(n, s)) == s else f"{n // g}/{s // g}", p, p]
    return [str(n // s) if (g := gcd(n, s)) == s else f"{n // g}/{s // g}" for n in _conjugate_numerators(s, a, b, c)]


# the four writers' chunk formats, by (csv, classified)
_ROW_FORMATS = {
    (True, False): lambda batch: "".join([f"{s},{a},{b},{c}\r\n" for s, a, b, c in batch]),
    (False, False): lambda batch: "".join([f'{{"s": {s}, "triple": [{a}, {b}, {c}]}}\n' for s, a, b, c in batch]),
    (True, True): lambda batch: "".join(
        [f"{s},{a},{b},{c},{'|'.join(t)},{x},{y},{z}\r\n" for s, a, b, c, t, _, _, (x, y, z) in batch]
    ),
    (False, True): lambda batch: "".join([
        f'{{"s": {s}, "triple": [{a}, {b}, {c}], "tags": {_TAG_JSON.get(t) or json.dumps(list(t))}, "family": '
        f'{"null" if f is None else f"[{f[0]}, {f[1]}, {f[2]}]"}, "component": {k}, "conjugates": ["{x}", "{y}", "{z}"]}}\n'
        for s, a, b, c, t, f, k, (x, y, z) in batch
    ]),
}


def _row_chunks(records, csv: bool, classified: bool):
    """The four writers' text in the chunks of `_chunked`, from records (s, a, b, c),
    or (s, a, b, c, tags, family, component, conjugates) for a classification,
    each conjugate a str or a Fraction.  Each record is unpacked as it is
    formatted; none is kept past its line."""
    if csv:
        yield "s,a,b,c,tags,conj_a,conj_b,conj_c\r\n" if classified else "s,a,b,c\r\n"
    yield from _chunked(records, _ROW_FORMATS[csv, classified])


def _chunks(s: int, bound: int, budget: int | None, csv: bool, classified: bool):
    """`search` or `classify` output in chunks, from int rows.  Every check and
    the whole classify pass run in this call, before the first chunk: a later
    row can still join two earlier components."""
    rows = _solution_rows(s, bound, budget)
    if not classified:
        return _row_chunks(((s, a, b, c) for a, b, c in rows), csv, False)
    tagged = zip(rows, _classify_rows(s, bound, rows))
    return _row_chunks(((s, a, b, c, t, f, k, _conjugate_texts(s, a, b, c)) for (a, b, c), (t, f, k) in tagged), csv, True)


def triples_to_csv(sols: list[Triple]) -> str:
    """CSV with a header, byte for byte what `csv.writer` writes (CRLF line ends)."""
    return "".join(_row_chunks(((t.s, t.a, t.b, t.c) for t in sols), True, False))


def triples_to_jsonl(sols: list[Triple]) -> str:
    """One JSON object per line, byte for byte what `json.dumps` writes."""
    return "".join(_row_chunks(((t.s, t.a, t.b, t.c) for t in sols), False, False))


def _classification_text(rows: list[Classification], csv: bool) -> str:
    records = ((r.triple.s, r.triple.a, r.triple.b, r.triple.c, r.tags, r.family, r.component, r.conjugates) for r in rows)
    return "".join(_row_chunks(records, csv, True))


def classifications_to_csv(rows: list[Classification]) -> str:
    """CSV with a header, byte for byte what `csv.writer` writes: no field needs quoting."""
    return _classification_text(rows, csv=True)


def classifications_to_jsonl(rows: list[Classification]) -> str:
    """One JSON object per line, byte for byte what `json.dumps` writes."""
    return _classification_text(rows, csv=False)
