"""Bounded exhaustive enumeration and classification of surface solutions.

Enumeration fixes the two smallest components a <= b and solves the
quadratic in the largest one.  It has a rational root only when
(a^2 - s^2)(b^2 - s^2) is a square, that is when both factors lie in the
same square class f (their squarefree part), so for each a only the b with
b^2 - s^2 = +-f*w^2 are visited: about B*log(B)^2 candidates for a bound B
instead of the B^2/2 pairs of the (a, b) grid.  The search stays exhaustive
and runs in one process: the work per a falls off like B/a, so equal spans
of a never split it.  Classification then connects the enumerated solutions
by conjugation moves and tags each one.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import BudgetExceededError, InvariantError
from .sequences import scaled_cheb_t
from .triples import Triple, _conjugate, _conjugate_fraction, base_value, reduction_trace

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


def family_membership(t: Triple) -> tuple[int, int, int] | None:
    """(b, n, m) such that t is a permutation of chain values (X_n, X_{n+m}, X_m).

    b is the base value of the triple's reduction terminal, and (n, m) are
    replayed from the trace (one index step per reduction step), so no grid
    search happens.  Returns None when the terminal is not base-shaped or
    when its base value fails the s | 2b integrality gate.
    """
    trace = reduction_trace(t)
    term = trace[-1]
    p = base_value(term)
    if p is None:
        return None
    s = t.s
    if (2 * p) % s:
        return None
    # Terminal is (X_0, X_1, X_1) = (s, p, p).  Walking the trace back up,
    # the replaced component always sits at index |i - j| and moves to i + j,
    # where i, j are the indices of the two untouched components.
    x0, x1, x2 = term.components
    if x1 == x2 and x0 == s:
        cur = [(x0, 0), (x1, 1), (x2, 1)]
    else:
        cur = [(x2, 0), (x0, 1), (x1, 1)]
    for prev in reversed(trace[:-1]):
        pc = Counter(prev.components)
        cc = Counter(v for v, _ in cur)
        added = list((pc - cc).elements())
        removed = list((cc - pc).elements())
        if len(added) != 1 or len(removed) != 1:
            raise InvariantError(f"trace step to {prev} does not replace exactly one component")
        v_new, v_old = added[0], removed[0]
        pos = next(k for k, (v, _) in enumerate(cur) if v == v_old)
        old_idx = cur[pos][1]
        del cur[pos]
        (i1, i2) = (cur[0][1], cur[1][1])
        if old_idx != abs(i1 - i2):
            raise InvariantError(
                f"trace step to {prev} replaces index {old_idx}, not {abs(i1 - i2)}"
            )
        cur.append((v_new, i1 + i2))
    # the check above keeps the indices of the form {i, j, i + j}
    n, m, top = sorted(idx for _, idx in cur)
    expect = sorted(scaled_cheb_t(s, p, i) for i in (n, m, top))
    if expect != sorted(t.components):
        raise InvariantError(f"chain ({p}, {n}, {m}) gives {expect}, not {t.components}")
    return (p, n, m)


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
    """Classify every solution within the bound; deterministic triple order."""
    sols = enumerate_solutions(s, bound, budget=budget)
    verts = [t.components for t in sols]
    index = {v: i for i, v in enumerate(verts)}

    parent = list(range(len(verts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    frontier = [False] * len(verts)
    isolated = [True] * len(verts)
    for i, v in enumerate(verts):
        for k in range(3):
            cv = _conjugate(s, v, k)
            if cv is None or cv < 1:
                continue
            # a fixed point (cv == v[k]) is no move, but still not isolated
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
                conjugates=tuple(_conjugate_fraction(s, verts[i], k) for k in range(3)),
            )
        )
    return out


def triples_to_csv(sols: list[Triple]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["s", "a", "b", "c"])
    for t in sols:
        w.writerow([t.s, t.a, t.b, t.c])
    return buf.getvalue()


def triples_to_jsonl(sols: list[Triple]) -> str:
    lines = [json.dumps({"s": t.s, "triple": [t.a, t.b, t.c]}) for t in sols]
    return "\n".join(lines) + ("\n" if lines else "")


def classifications_to_csv(rows: list[Classification]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["s", "a", "b", "c", "tags", "conj_a", "conj_b", "conj_c"])
    for r in rows:
        a, b, c = r.triple.components
        w.writerow([r.triple.s, a, b, c, "|".join(r.tags), *[str(f) for f in r.conjugates]])
    return buf.getvalue()


def classifications_to_jsonl(rows: list[Classification]) -> str:
    lines = []
    for r in rows:
        lines.append(
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
        )
    return "\n".join(lines) + ("\n" if lines else "")
