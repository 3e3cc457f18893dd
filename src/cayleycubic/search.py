"""Bounded exhaustive enumeration and classification of surface solutions.

Enumeration fixes the two smallest components a <= b and solves the
quadratic in the largest one.  It has a rational root only when
(a^2 - s^2)(b^2 - s^2) is a square, that is when both factors lie in the
same square class f (their squarefree part), so for each a only the b with
b^2 - s^2 = +-f*w^2 are visited: about B*log(B)^2 candidates for a bound B
instead of the B^2/2 pairs of the (a, b) grid.  The search stays exhaustive
and runs in one process: the work per a falls off like B/a, so equal spans
of a never split it.  Classification then connects the enumerated solutions
by conjugation moves and tags each one, in one pass over the sorted list:
a solution's reduction parent is enumerated and sorts before it, so its
family is one replay step from its parent's (see `classify`).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import BudgetExceededError, InvariantError
from .sequences import scaled_cheb_t
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
    """Solutions (a, b, c) with 1 <= a <= b <= c <= bound.

    The quadratic in c has the roots (ab +- r)/s with r^2 = (a^2-s^2)(b^2-s^2).
    For a > s write a^2 - s^2 = f*g^2 with f squarefree: the product is a
    square exactly when b^2 - s^2 = f*w^2, and then r = f*g*w, so only those
    b are visited.  a = s gives the rows (s, b, b); for a < s only b < s can
    give a root c >= b, and then s^2 - b^2 = f*w^2 with 1 <= w <= g.

    For a != s only (ab + r)/s is tried: the smaller root is below b.  For
    a > s the quadratic at c = b, (s - a)(2b^2 - s(a + s)), is negative; for
    a < s the smaller root is below the vertex ab/s < b.
    """
    rows = []
    # A solution has a^2 + b^2 + c^2 = s^2 + 2abc/s > s^2, so there is none
    # when 3*bound^2 < s^2; returning here keeps the core table O(bound)
    # however large s is.
    if s * s > 3 * bound * bound:
        return rows
    ss, bb = s * s, bound * bound
    core = _squarefree_cores(bound + s)
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
    return rows


def enumerate_solutions(
    s: int,
    bound: int,
    *,
    budget: int | None = None,
) -> list[Triple]:
    """All solutions with 1 <= a <= b <= c <= bound, canonical and sorted.

    The plan is bound*(bound+1)/2 quadratic solves, one per (a, b) pair of
    the grid; the square-class scan visits far fewer, so the plan is an upper
    bound on the work.  If a budget is given and the plan exceeds it, the
    call fails up front rather than part-way.  The scan runs in this process.
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


def _terminal_state(t: Triple) -> tuple[int, list[tuple[int, int]]] | None:
    """(p, [(value, chain index)] * 3) for a reduction terminal (s, p, p) with
    s | 2p, the start of the index replay; None for any other terminal."""
    p = base_value(t)
    if p is None or (2 * p) % t.s:
        return None
    # the terminal is (X_0, X_1, X_1) = (s, p, p)
    x0, x1, x2 = t.components
    if x1 == x2 and x0 == t.s:
        return p, [(x0, 0), (x1, 1), (x2, 1)]
    return p, [(x2, 0), (x0, 1), (x1, 1)]


def _replay_step(cur: list[tuple[int, int]], prev: Triple) -> list[tuple[int, int]]:
    """The indexed components of `prev`, one reduction step above `cur`.

    Walking a trace back up, the replaced component always sits at index
    |i - j| and moves to i + j, where i, j are the indices of the two
    untouched components; a step that breaks this raises InvariantError.
    """
    pc = Counter(prev.components)
    cc = Counter(v for v, _ in cur)
    added = list((pc - cc).elements())
    removed = list((cc - pc).elements())
    if len(added) != 1 or len(removed) != 1:
        raise InvariantError(f"trace step to {prev} does not replace exactly one component")
    v_new, v_old = added[0], removed[0]
    pos = next(k for k, (v, _) in enumerate(cur) if v == v_old)
    old_idx = cur[pos][1]
    rest = cur[:pos] + cur[pos + 1 :]
    (i1, i2) = (rest[0][1], rest[1][1])
    if old_idx != abs(i1 - i2):
        raise InvariantError(f"trace step to {prev} replaces index {old_idx}, not {abs(i1 - i2)}")
    return rest + [(v_new, i1 + i2)]


def _chain_family(p: int, cur: list[tuple[int, int]], t: Triple) -> tuple[int, int, int]:
    """(p, n, m) of a finished replay, checked against the chain values."""
    # _replay_step keeps the indices of the form {i, j, i + j}
    n, m, top = sorted(idx for _, idx in cur)
    # X_0 = s and X_1 = p are the seeds: only later values need the recurrence
    seeds = (t.s, p)
    expect = sorted(seeds[i] if i < 2 else scaled_cheb_t(t.s, p, i) for i in (n, m, top))
    if expect != sorted(t.components):
        raise InvariantError(f"chain ({p}, {n}, {m}) gives {expect}, not {t.components}")
    return (p, n, m)


def family_membership(t: Triple) -> tuple[int, int, int] | None:
    """(b, n, m) such that t is a permutation of chain values (X_n, X_{n+m}, X_m).

    b is the base value of the triple's reduction terminal, and (n, m) are
    replayed from the trace (one index step per reduction step), so no grid
    search happens.  Returns None when the terminal is not base-shaped or
    when its base value fails the s | 2b integrality gate.  `classify` runs
    the same replay one step per solution along reduction parents.
    """
    trace = reduction_trace(t)
    state = _terminal_state(trace[-1])
    if state is None:
        return None
    p, cur = state
    for prev in reversed(trace[:-1]):
        cur = _replay_step(cur, prev)
    return _chain_family(p, cur, t)


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
    frontier-limited tags.  The conjugate of the maximum is the move of
    `reduction_trace` (ties give the same triple).  When it shrinks the
    triple it lands on the reduction parent, which is enumerated (positive,
    within the bound) and sorts earlier (one component got smaller), so each
    solution extends its parent's family replay by one `_replay_step`, with
    the checks of `family_membership`; one without such a move is a terminal.
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

    # replay state (p, indexed components) of each family member that is not
    # a terminal; a terminal's state is rebuilt from the triple when needed
    replays = {}
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
        if up is None:
            state = _terminal_state(t)
        elif rows[up][1] is None:  # the parent is in no family
            state = None
        else:
            p, cur = replays[up] if up in replays else _terminal_state(sols[up])
            state = replays[i] = p, _replay_step(cur, t)
        fam = None if state is None else _chain_family(*state, t)
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

    component_of = {}
    out = []
    for i, (t, (tags, fam, conjugates)) in enumerate(zip(sols, rows)):
        out.append(
            Classification(
                triple=t,
                tags=tags,
                family=fam,
                component=component_of.setdefault(find(i), i),
                conjugates=conjugates,
            )
        )
    return out


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
