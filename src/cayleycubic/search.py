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
components in that base's chain (see `classify`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import BudgetExceededError, InvariantError
from .sequences import _chain_values
from .triples import Triple, _require_solution, base_value, reduction_trace

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
    rows = [(s, b, b) for b in range(s, bound + 1)]
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
    members, last = [], 0
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
    return rows


def enumerate_solutions(
    s: int,
    bound: int,
    *,
    budget: int | None = None,
) -> list[Triple]:
    """All solutions with 1 <= a <= b <= c <= bound, canonical and sorted.

    The plan is bound*(bound+1)/2 quadratic solves, one per (a, b) pair of
    the grid: an upper bound on the pairs the square-class join tries, about
    bound of them.  If a budget is given and the plan exceeds it, the call
    fails up front rather than part-way.  The join runs in this process.
    """
    if s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    planned = bound * (bound + 1) // 2
    if budget is not None and planned > budget:
        raise BudgetExceededError(
            f"enumeration at bound {bound} needs {planned} quadratic solves, budget is {budget}"
        )
    rows = _enumerate_range(s, bound)
    rows.sort()
    return [Triple(s, *r) for r in rows]


def _terminal_base(t: Triple) -> int | None:
    """The base p of a reduction terminal (s, p, p) with s | 2p, which is
    (X_0, X_1, X_1) of the chain at base (s, p); None for any other terminal."""
    p = base_value(t)
    return None if p is None or 2 * p % t.s else p


def _chain_family(t: Triple, p: int, index: dict[int, int]) -> tuple[int, int, int]:
    """(p, n, m) with t a permutation of (X_n, X_{n+m}, X_m), n <= m, read off
    `index`, the chain position k of each value X_k at base (s, p)."""
    try:
        n, m, top = sorted(index[x] for x in t.components)
    except KeyError:
        raise InvariantError(f"{t.components} has a component off the chain at base ({t.s}, {p})") from None
    if top != n + m:
        raise InvariantError(f"{t.components} sits at chain indices ({n}, {m}, {top}), not (n, m, n + m)")
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
    p = _terminal_base(trace[-1])
    if p is None:
        return None
    if len(trace) == 1:
        return (p, 0, 1)
    index = {x: k for k, x in enumerate(_chain_values(t.s, p, max(t.components)))}
    return _chain_family(t, p, index)


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


def classify(
    s: int,
    bound: int,
    *,
    budget: int | None = None,
) -> list[Classification]:
    """Classify every solution within the bound; deterministic triple order.

    One pass over the sorted solutions: one divmod(2yz, s) per component
    gives the conjugate, the union/find edge and the isolated and
    frontier-limited tags.  The conjugate of c, the last and maximal
    component, is the move of `reduction_trace`.  When it shrinks the
    triple it lands on the reduction parent, which is enumerated (positive,
    within the bound) and sorts earlier (one component got smaller), so each
    solution takes its parent's terminal base; one without such a move is a
    terminal.  The family is then read off that base's chain with the checks
    of `family_membership`, one value-to-index table per base.
    """
    sols = enumerate_solutions(s, bound, budget=budget)
    index = {t.components: i for i, t in enumerate(sols)}

    parent = list(range(len(sols)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    bases = []  # the terminal base p of each solution, None outside the families
    chains = {}  # {X_k: k} of each base p met off its terminal
    rows = []  # (tags, family, conjugates) per solution
    for i, t in enumerate(sols):
        _require_solution(t)
        a, b, c = t.components
        conjugates = []
        isolated, frontier, up = True, False, None
        # x is component k, y <= z the other two
        for k, x, y, z in ((0, a, b, c), (1, b, a, c), (2, c, a, b)):
            yz2 = 2 * y * z
            q, r = divmod(yz2, s)
            conjugates.append(Fraction(yz2 - s * x, s))
            cv = q - x
            if r or cv < 1:
                continue
            # a fixed point (cv == x) is no move, but still not isolated
            isolated = False
            if cv == x:
                continue
            if cv > bound:
                frontier = True
                continue
            j = index[(cv, y, z) if cv <= y else (y, cv, z) if cv <= z else (y, z, cv)]
            union(i, j)
            if k == 2 and cv < c:
                up = j
        p = _terminal_base(t) if up is None else bases[up]
        bases.append(p)
        if p is None:
            fam = None
        elif up is None:
            fam = (p, 0, 1)
        else:
            if p not in chains:
                chains[p] = {x: k for k, x in enumerate(_chain_values(s, p, bound))}
            fam = _chain_family(t, p, chains[p])
        tags = []
        if base_value(t) is not None:
            tags.append("base")
        if fam is not None:
            tags.append("r-family")
        if isolated:
            tags.append("isolated")
        if frontier:
            tags.append("frontier-limited")
        rows.append((tuple(tags), fam, tuple(conjugates)))

    # union keeps the smaller root, so find(i) is the least index of i's component
    return [
        Classification(triple=t, tags=tags, family=fam, component=find(i), conjugates=conjugates)
        for i, (t, (tags, fam, conjugates)) in enumerate(zip(sols, rows))
    ]


def triples_to_csv(sols: list[Triple]) -> str:
    """CSV with a header, byte for byte what `csv.writer` writes (CRLF line ends)."""
    return "s,a,b,c\r\n" + "".join(f"{t.s},{t.a},{t.b},{t.c}\r\n" for t in sols)


def triples_to_jsonl(sols: list[Triple]) -> str:
    """One JSON object per line, byte for byte what `json.dumps` writes."""
    return "".join(f'{{"s": {t.s}, "triple": [{t.a}, {t.b}, {t.c}]}}\n' for t in sols)


def classifications_to_csv(rows: list[Classification]) -> str:
    """CSV with a header, byte for byte what `csv.writer` writes: no field needs quoting."""
    lines = ["s,a,b,c,tags,conj_a,conj_b,conj_c\r\n"]
    for r in rows:
        t, (ca, cb, cc) = r.triple, r.conjugates
        lines.append(f"{t.s},{t.a},{t.b},{t.c},{'|'.join(r.tags)},{ca},{cb},{cc}\r\n")
    return "".join(lines)


def classifications_to_jsonl(rows: list[Classification]) -> str:
    """One JSON object per line, byte for byte what `json.dumps` writes."""
    tag_json = {}  # at most 16 tag tuples
    lines = []
    for r in rows:
        t, (ca, cb, cc) = r.triple, r.conjugates
        tags = tag_json.get(r.tags)
        if tags is None:
            tags = tag_json[r.tags] = json.dumps(list(r.tags))
        fam = "null" if r.family is None else "[{}, {}, {}]".format(*r.family)
        lines.append(
            f'{{"s": {t.s}, "triple": [{t.a}, {t.b}, {t.c}], "tags": {tags}, "family": {fam}, '
            f'"component": {r.component}, "conjugates": ["{ca}", "{cb}", "{cc}"]}}\n'
        )
    return "".join(lines)
