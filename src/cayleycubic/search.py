"""Bounded exhaustive enumeration and classification of surface solutions.

At a = s the cubic reads s(b - c)^2 = 0, so the rows with a = s are the base
run (s, p, p), s <= p <= B: nearly all of the solutions within a bound B.
The run is never built: enumeration and classification keep state only for
the other rows, about sqrt(B) of them, and the writers write each base line
from p alone, between the rows below s and those above it.  For every other
pair a <= b, the quadratic in c has a rational root only when
(a^2 - s^2)(b^2 - s^2) is a square, that is when both factors lie in the
same signed square class (+- their squarefree part); a member paired with
itself gives the diagonal row (b, b, c).  At s >= 3, one O(B) pass gives each x <= B
its class, and only the pairs within the classes of the x <= sqrt(s(B + s)/2)
are tried, instead of the B^2/2 pairs of the (a, b) grid.  Classification
checks each row but for the base run against the cubic, then connects the rows
by conjugation moves and tags each one, in one pass over the sorted list (see
`_classify_rows`).  A base row needs no check, by the a = s argument above, and
is settled in closed form; it is the least row of its component.  A move keeps
two components, and a < s gives b < s (a < s < b makes the discriminant
negative, b = s forces a = c = s), so rows with a >= s move only among
themselves.  From one with a > s the moves of a and b raise the maximum
(2bc/s - a > c), so its only other neighbour is where its move of c leads: its
parent, which sorts earlier, when c shrinks.  A base row's one move leads to its
child (p, p, 2p^2/s - s).  So the rows with a >= s form a forest with every base
row a root, and only a box row (a < s) can join two trees.  The pass and the
writers work on int rows and write text in chunks; `Triple`, `Fraction` and
`Classification` objects are built only for library callers.

At s in {1, 2} every move is integral (s | 2yz), and `_chain_rows` lists the rows from
the chain bases.  A row with a > s moves c to (a^2 + b^2 - s^2)/c, in (0, b) (see
`_enumerate_range`) and not below s (a < s gives b < s): it descends to a base row
(s, p, p).  The chain X_k = s*T_k(p/s) of base p has 2X_m*X_n/s = X_{m+n} + X_{|m-n|},
so the triples (X_i, X_j, X_{i+j}), 0 <= i <= j, are closed under moves (to (j, i+j),
(i, i+j) and (|j-i|, min(i, j))); they hold (s, p, p) = (X_0, X_1, X_1), so the row too,
with 1 <= i <= j and X_{i+j} <= B, hence X_2 = 2p^2/s - s <= B, p <= sqrt(s(B + s)/2).
A base p = X_k (k >= 2) of a smaller q has the chain X_{kn} of q's, so only primitive
bases, no such X_k, are walked.  No row comes twice: the X_k increase, and X_n^2 - s^2 =
(p^2 - s^2)*W_{n-1}^2 (W the companion of `pell`) puts the rows of p in p's square class
f, whose members x, at s^2 in {1, 4}, are those of the powers of the least solution of
x^2 - f*y^2 = s^2 (Pell): one chain, of f's one primitive base.  The one box row: (1, 1, 2), at s = 2.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from itertools import chain, compress, cycle, filterfalse, repeat
from math import gcd, isqrt
from operator import floordiv

from . import triples
from .errors import BudgetExceededError, InvariantError, NotASolutionError
from .sequences import _chain_values
from .triples import Triple, _chunked, _conjugate_numerators, _Record, _row_moves, base_value, cayley_value, reduction_trace

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
    """core[k] for 0 <= k <= n: k with every square factor divided out.  For each prime p <= sqrt(n)
    (a bytearray sieve), the slices at the strides p^2, p^4, ... <= n are divided by p^2: k lies on
    e // 2 of them when p^e exactly divides it."""
    core, r = list(range(n + 1)), isqrt(n)
    sieve = bytearray([0, 0]) + bytearray([1]) * (r - 1)
    for p in range(2, isqrt(r) + 1):
        sieve[p * p :: p] = bytes(len(sieve[p * p :: p]))
    for p in compress(range(r + 1), sieve):
        q = pp = p * p
        while q <= n:
            core[q::q] = map(floordiv, core[q::q], repeat(pp))
            q *= pp
    return core


def _enumerate_range(s: int, bound: int) -> list[tuple[int, int, int]]:
    """Solutions (a, b, c), 1 <= a <= b <= c <= bound, but for the base run, in no set order.

    At a = s the cubic is s(b - c)^2 = 0: those rows are the base run (s, p, p),
    s <= p <= bound.  For a <= b the quadratic in c has the roots (ab +- r)/s
    with r^2 = (a^2-s^2)(b^2-s^2).  With x^2 - s^2 = +-f*g^2, f squarefree, that
    is a square exactly when a and b share the signed class +-f, and then
    r = f*g_a*g_b: only the pairs a <= b within one class are tried, a member
    with itself included (a < s < b never is one).  Only (ab + r)/s is tried:
    the smaller root is below b.  For a > s the quadratic at c = b,
    (s - a)(2b^2 - s(a + s)), is negative; for a < s the smaller root is below
    the vertex ab/s < b.

    Only the classes of the small members, x < s or s < x <= split =
    isqrt(s(bound + s)/2), are gathered: in a row's pair a <= b either b < s, or
    s < a and r^2 = (a^2 - s^2)(b^2 - s^2) >= (a^2 - s^2)^2, so s*c = ab + r >=
    2a^2 - s^2, and c <= bound gives 2a^2 <= s(bound + s), that is a <= split.
    """
    # A solution has a^2 + b^2 + c^2 = s^2 + 2abc/s > s^2, so there is none when
    # 3*bound^2 < s^2; returning here keeps the core table O(bound) however large s is.
    if s * s > 3 * bound * bound:
        return []
    rows, split = [], isqrt(s * (bound + s) // 2)
    core, m = _squarefree_cores(bound + s), min(s - 1, bound)
    # the signed class of x^2 - s^2 = (x - s)(x + s), for x = 1..m and then x = s+1..bound:
    # the squarefree part of core(|x - s|)*core(x + s)
    key = [-(u * v // gcd(u, v) ** 2) for u, v in zip(core[s - m : s][::-1], core[s + 1 : s + m + 1])]
    key += [u * v // gcd(u, v) ** 2 for u, v in zip(core[1 : bound - s + 1], core[2 * s + 1 : bound + s + 1])]
    small = set(key[: m + max(split - s, 0)])  # the classes of x = 1..m and x = s+1..split
    classes = {}
    for x, sf in compress(zip(chain(range(1, m + 1), range(s + 1, bound + 1)), key), map(small.__contains__, key)):
        classes.setdefault(sf, []).append(x)
    ss = s * s
    for sf, members in classes.items():
        f, seen = abs(sf), []
        for b in members:
            seen.append((b, gb := isqrt(abs(b * b - ss) // f)))
            for a, ga in seen:
                c, rem = divmod(a * b + f * ga * gb, s)
                if rem == 0 and b <= c <= bound:
                    rows.append((a, b, c))
    return rows


def _chain_rows(s: int, bound: int) -> list[tuple[int, int, int]]:
    """`_enumerate_range` at s in {1, 2}: the box row and the chain triples of each primitive
    base p <= sqrt(s(B + s)/2) (see the module docstring); `taken` holds the X_k, k >= 2, walked."""
    rows, taken = [(1, 1, 2)] if s == 2 and bound >= 2 else [], set()
    for p in filterfalse(taken.__contains__, range(s + 1, isqrt(s * (bound + s) // 2) + 1)):
        xs = _chain_values(s, p, bound)
        taken.update(xs[2:])
        rows += [(xs[i], xs[j], xs[i + j]) for j in range(1, len(xs)) for i in range(1, min(j, len(xs) - 1 - j) + 1)]
    return rows


def _solution_rows(s: int, bound: int, budget: int | None) -> list[tuple[int, int, int]]:
    """The rows of `enumerate_solutions` but for the base run, as sorted int tuples (a, b, c), after its checks."""
    if not isinstance(s, int) or s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")
    if not isinstance(bound, int) or bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    planned = bound * (bound + 1) // 2
    if budget is not None and planned > budget:
        raise BudgetExceededError(f"enumeration at bound {bound} needs {planned} quadratic solves, budget is {budget}")
    return sorted(_chain_rows(s, bound) if s <= 2 else _enumerate_range(s, bound))


def enumerate_solutions(s: int, bound: int, *, budget: int | None = None) -> list[Triple]:
    """All solutions with 1 <= a <= b <= c <= bound, canonical and sorted.

    The plan is bound*(bound+1)/2 quadratic solves, one per (a, b) pair of the grid: an upper
    bound on the pairs the square-class join tries, or on the rows of the chain walk at s <= 2.
    If a budget is given and the plan exceeds it, the call fails up front rather than part-way.
    """
    rows = _solution_rows(s, bound, budget)
    nlow = bisect_left(rows, (s,))
    return [Triple(s, *r) for r in chain(rows[:nlow], ((s, p, p) for p in range(s, bound + 1)), rows[nlow:])]


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


class Classification(_Record):
    """One enumerated solution with its tags and exact conjugate data.

    tags is an ordered subset of ("base", "r-family", "isolated",
    "frontier-limited"); component is the vertex index of the smallest
    member of the triple's conjugation component within the bound.
    """

    __slots__ = ("triple", "tags", "family", "component", "conjugates")

    def __init__(self, triple: Triple, tags: tuple[str, ...], family: tuple | None, component: int, conjugates: tuple) -> None:
        self._fill(triple, tags, family, component, conjugates)


# the tags of a row by bit mask: base 1, r-family 2, isolated 4, frontier-limited 8
_TAG_SETS = [tuple(tag for bit, tag in enumerate(TAG_ORDER) if mask >> bit & 1) for mask in range(16)]
_TAG_JSON = {tags: json.dumps(list(tags)) for tags in _TAG_SETS}


def _base_class(s: int, bound: int, p: int) -> tuple[tuple[str, ...], tuple[int, int, int] | None]:
    """(tags, family) of the base row (s, p, p), in closed form: both p are fixed points
    (2sp/s - p = p), so it is not isolated; s moves up to (p, p, 2p^2/s - s) when s | 2p^2,
    a frontier past the bound; and it is (X_0, X_1, X_1) of the chain at base p when s | 2p."""
    q, r = divmod(2 * p * p, s)
    fam = None if 2 * p % s else (p, 0, 1)
    return _TAG_SETS[1 | (fam is not None) << 1 | (not r and q - s > bound) << 3], fam


def _classify_rows(s: int, bound: int, rows: list[tuple[int, int, int]]):
    """The pass of `classify`: (tags, family, component) of each sorted row but for the base run.

    The union-find and the (tags, family) table are keyed by the row itself: `rows` sorts in
    output order, so a component's least row is its least index.  Only the roots are mapped to
    indices, (s, p, p) to nlow + p - s and any other by bisection in `rows`, past the base run
    when a > s.  Each row is first checked to solve the cubic, exactly in integers; a base row
    needs none (at a = s the cubic reads s(b - c)^2 = 0) and keeps no state: `_base_class`
    settles it, and it is its component's root (the module docstring).  For the other rows the
    moves of `_row_moves` give the union/find edges and both tags; a moved row is a base row
    only when it is (s, p, p), any other must be in `rows`.  The move of c, the last and maximal
    component, is that of `reduction_trace`: when it shrinks the row it lands on the reduction
    parent, enumerated (positive, within the bound) and sorting earlier (one component got
    smaller); the row reads its family off the chain of its parent's terminal base with the
    checks of `family_membership`.  A row without such a move is a terminal."""
    table, parent, chains = dict.fromkeys(rows), {}, {}  # chains: {X_k: k} of each base p met off its terminal

    def find(r: tuple[int, int, int]) -> tuple[int, int, int]:
        while (up := parent.get(r, r)) != r:
            parent[r] = parent.get(up, up)
            r = parent[r]
        return r

    for row in rows:
        a, b, c = row
        if value := cayley_value(s, a, b, c):
            raise NotASolutionError(f"(s={s}; {a},{b},{c}) is not a solution (value {value})")
        isolated, frontier, up = True, False, None
        for k, cv, moved in _row_moves(s, a, b, c):
            # a fixed point moves onto the row itself: not isolated, but it joins nothing
            isolated = False
            if cv > bound:
                frontier = True
                continue
            if not (moved[0] == s and moved[1] == moved[2] or moved in table):
                raise InvariantError(f"the move of {row} lands on {moved}, which was not enumerated")
            ri, rj = find(row), find(moved)
            if ri != rj:  # the smaller root stays, so find(row) ends as the least row of its component
                parent[max(ri, rj)] = min(ri, rj)
            if k == 2 and cv < c:
                up = moved
        # base_value of a sorted row other than (s, p, p): (p, p, s) with p < s
        base = a if a == b and c == s else None
        if up is None:
            # a terminal (p, p, s), p < s, is its own base when s | 2p
            fam = None if base is None or 2 * base % s else (base, 0, 1)
        elif (fam := _base_class(s, bound, up[1])[1] if up[0] == s else table[up][1]) is not None:
            p = fam[0]  # the parent's terminal base
            if p not in chains:
                chains[p] = {x: k for k, x in enumerate(_chain_values(s, p, bound))}
            fam = _chain_family(s, row, p, chains[p])
        table[row] = (_TAG_SETS[(base is not None) | (fam is not None) << 1 | isolated << 2 | frontier << 3], fam)
    nlow = bisect_left(rows, (s,))
    return [(t, f, nlow + r[1] - s if (r := find(row))[0] == s else bisect_left(rows, r) + (r[0] > s) * (bound - s + 1))
            for row, (t, f) in table.items()]


def classify(s: int, bound: int, *, budget: int | None = None) -> list[Classification]:
    """Classify every solution within the bound; deterministic triple order.

    The pass is `_classify_rows`, over int rows; the objects are built here, for library callers.
    """
    from fractions import Fraction  # on call: the CLI writes the conjugates from ints
    rows = _solution_rows(s, bound, budget)
    records, nlow = _classify_rows(s, bound, rows), bisect_left(rows, (s,))
    base = (((s, p, p), (*_base_class(s, bound, p), nlow + p - s)) for p in range(s, bound + 1))
    return [
        Classification(Triple(s, *r), t, f, k, tuple(Fraction(n, s) for n in _conjugate_numerators(s, *r)))
        for r, (t, f, k) in chain(zip(rows[:nlow], records), base, zip(rows[nlow:], records[nlow:]))
    ]


# the four writers' chunk formats and CSV headers, by (csv, classified)
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
_HEADERS = {(True, False): "s,a,b,c\r\n", (True, True): "s,a,b,c,tags,conj_a,conj_b,conj_c\r\n"}


def _base_text(s: int, bound: int, ps: range, off: int, csv: bool, classified: bool, tmpl: str | None) -> str:
    """The lines of the base rows (s, p, p), p in ps, each written from p in the format of
    `_ROW_FORMATS[csv, classified]`: for `classify`, the tags and family of `_base_class`, the
    component p + off (a base row is its component's root), the conjugates (2p^2 - s^2)/s, p, p.
    For `search`, the p >= 10 go by blocks of 100 consecutive p, which share all but their
    last two digits: tmpl is the text of (s, s, "@00", "@00") ... (s, s, "@99", "@99"), 100 lines
    of one width w, "@" for the digits of p // 100."""
    if not classified:
        lo, w = max(ps.start, 10), len(tmpl) // 100
        blocks = (tmpl[w * max(lo - 100 * k, 0) : w * (ps.stop - 100 * k)].replace("@", str(k) if k else "")
                  for k in range(lo // 100, -(-ps.stop // 100)))
        return "".join([_ROW_FORMATS[csv, False]([(s, s, p, p) for p in ps[: max(10 - ps.start, 0)]]), *blocks])
    head = f"{s},{s}," if csv else f'{{"s": {s}, "triple": [{s}, '
    ss, split, lines = s * s, isqrt(s * (bound + s) // 2), []
    # the tags, the family's presence and gcd(2p^2 - s^2, s) = gcd(2p^2, s) depend only on
    # p mod s and on p > split, past which a move of s (when s | 2p^2) leaves the bound
    for seg in (range(ps.start, min(ps.stop, split + 1)), range(max(ps.start, split + 1), ps.stop)):
        kinds = []
        for p in seg[:s]:
            (tags, fam), g = _base_class(s, bound, p), gcd(2 * p * p - ss, s)
            kinds.append(("|".join(tags) if csv else _TAG_JSON[tags], fam is None, g, "" if g == s else f"/{s // g}"))
        for p, (tags, nofam, g, den) in zip(seg, cycle(kinds)):
            x, q = f"{(2 * p * p - ss) // g}{den}", str(p)
            lines.append(
                f"{head}{q},{q},{tags},{x},{q},{q}\r\n" if csv else f'{head}{q}, {q}], "tags": {tags}, "family": '
                f'{"null" if nofam else f"[{q}, 0, 1]"}, "component": {p + off}, "conjugates": ["{x}", "{q}", "{q}"]}}\n'
            )
    return "".join(lines)


def _row_text(records, csv: bool, classified: bool) -> str:
    """The four writers' text in the chunks of `_chunked`, from records (s, a, b, c), or
    (s, a, b, c, tags, family, component, conjugates) for a classification, each conjugate
    a str or a Fraction.  Each record is unpacked as it is formatted; none is kept past its line."""
    return "".join([_HEADERS.get((csv, classified), ""), *_chunked(records, _ROW_FORMATS[csv, classified])])


def _chunks(s: int, bound: int, budget: int | None, csv: bool, classified: bool):
    """`search` or `classify` output in chunks of `_CHUNK_LINES` lines, in sorted order: the
    records of the rows below s, the base run from `_base_text`, the records of the rows
    above s.  Every check and the whole classify pass run in this call, before the first
    chunk: a later box row (a < s) can still join two earlier components."""
    rows = _solution_rows(s, bound, budget)
    nlow, nbase, fmt = bisect_left(rows, (s,)), max(bound - s + 1, 0), _ROW_FORMATS[csv, classified]
    # each conjugate n/s as str(Fraction(n, s)), reduced by one gcd
    records = [
        (s, *r, *rec, [str(n // s) if (g := gcd(n, s)) == s else f"{n // g}/{s // g}" for n in _conjugate_numerators(s, *r)])
        for r, rec in zip(rows, _classify_rows(s, bound, rows))
    ] if classified else [(s, *r) for r in rows]
    top, size = nlow + nbase, triples._CHUNK_LINES  # top: the row index past the base run
    tmpl = None if classified else fmt([(s, s, f"@{j:02d}", f"@{j:02d}") for j in range(100)])
    return chain([_HEADERS[csv, classified]] if csv else [], (
        fmt(records[lo : min(lo + size, nlow)])
        + _base_text(s, bound, range(max(lo, nlow) - nlow + s, min(lo + size, top) - nlow + s), nlow - s, csv, classified, tmpl)
        + fmt(records[max(lo, top) - nbase : max(lo + size - nbase, 0)])
        for lo in range(0, len(rows) + nbase, size)
    ))


def triples_to_csv(sols: list[Triple]) -> str:
    """CSV with a header, byte for byte what `csv.writer` writes (CRLF line ends)."""
    return _row_text(((t.s, t.a, t.b, t.c) for t in sols), True, False)


def triples_to_jsonl(sols: list[Triple]) -> str:
    """One JSON object per line, byte for byte what `json.dumps` writes."""
    return _row_text(((t.s, t.a, t.b, t.c) for t in sols), False, False)


def _classification_text(rows: list[Classification], csv: bool) -> str:
    records = ((r.triple.s, r.triple.a, r.triple.b, r.triple.c, r.tags, r.family, r.component, r.conjugates) for r in rows)
    return _row_text(records, csv, True)


def classifications_to_csv(rows: list[Classification]) -> str:
    """CSV with a header, byte for byte what `csv.writer` writes: no field needs quoting."""
    return _classification_text(rows, csv=True)


def classifications_to_jsonl(rows: list[Classification]) -> str:
    """One JSON object per line, byte for byte what `json.dumps` writes."""
    return _classification_text(rows, csv=False)
