"""Independent checks of cayleycubic CLI output.

Nothing here imports cayleycubic or compares against saved output: every
property is recomputed from the inputs with the benchmark's own arithmetic
(the cubic form, a 2x2 matrix kernel for chains and continuants, an own
descent, union-find and brute-force loops).  Each check raises CheckFailed
with a one-line reason.

Python refuses to convert integers longer than 4300 digits to and from
strings by default.  The program runs under that default; only the code in
this module lifts it, inside unlimited_int_digits(), and restores it after.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import sys
from fractions import Fraction
from itertools import product
from math import isqrt


class CheckFailed(Exception):
    """An output does not have a property it must have."""


def require(cond: bool, msg: str, *args) -> None:
    """Fail with msg, formatted with args only on failure (large ints print slowly)."""
    if not cond:
        raise CheckFailed(msg.format(*args) if args else msg)


@contextlib.contextmanager
def unlimited_int_digits():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# ---- arithmetic kernels -------------------------------------------------


def cubic(s: int, x: int, y: int, z: int) -> int:
    return s * (x * x + y * y + z * z) - s**3 - 2 * x * y * z


def mat_mul(p, q):
    (a, b), (c, d) = p
    (e, f), (g, h) = q
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def mat_pow(m, n: int):
    out = ((1, 0), (0, 1))
    while n:
        if n & 1:
            out = mat_mul(out, m)
        m = mat_mul(m, m)
        n >>= 1
    return out


def chain_value(s: int, b: int, n: int) -> int:
    """X_n of X_0 = s, X_1 = b, X_{k+1} = (2b/s) X_k - X_{k-1}, by matrix power."""
    # (X_{n+1}, X_n) = M^n (X_1, X_0) with M = [[2b/s, -1], [1, 0]]
    _, (w, x) = mat_pow(((2 * b // s, -1), (1, 0)), n)
    return w * b + x * s


def chain_values(s: int, b: int, count: int, seeds: tuple[int, int] | None = None) -> list[int]:
    """First `count` terms of the chain (or of the same recurrence from other seeds)."""
    mult = 2 * b // s
    x0, x1 = seeds if seeds is not None else (s, b)
    out = []
    for _ in range(count):
        out.append(x0)
        x0, x1 = x1, mult * x1 - x0
    return out


def continuant(word) -> int:
    """K(word) as the top-left entry of the product of [[a, 1], [1, 0]]."""
    m = ((1, 0), (0, 1))
    for a in word:
        m = mat_mul(m, ((a, 1), (1, 0)))
    return m[0][0]


def euclid_path_length(n: int, m: int) -> int:
    steps = 1
    while n and m:
        if n > m:
            n -= m
        else:
            m -= n
        steps += 1
    return steps


def moves(s: int, t: tuple[int, int, int]):
    """(position, sorted result) for each conjugate that is a positive integer
    different from the component it replaces."""
    for k in range(3):
        y, z = (t[j] for j in range(3) if j != k)
        q, r = divmod(2 * y * z, s)
        v = q - t[k]
        if r == 0 and v >= 1 and v != t[k]:
            w = list(t)
            w[k] = v
            yield k, tuple(sorted(w))


def shrink(s: int, t: tuple[int, int, int]) -> tuple[int, int, int] | None:
    """t (sorted) with its maximum replaced by its conjugate, if that is a
    smaller positive integer; None otherwise."""
    q, r = divmod(2 * t[0] * t[1], s)
    v = q - t[2]
    if r or v < 1 or v >= t[2]:
        return None
    return tuple(sorted((t[0], t[1], v)))


def descend(s: int, t) -> tuple[int, int, int]:
    """The terminal of repeated shrink steps from t."""
    cur = tuple(sorted(t))
    while (nxt := shrink(s, cur)) is not None:
        cur = nxt
    return cur


def base_shape(s: int, t) -> int | None:
    x0, x1, x2 = sorted(t)
    if x1 == x2 and x0 == s:
        return x1
    if x0 == x1 and x2 == s:
        return x0
    return None


def _ints(row, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in row)
    except (TypeError, ValueError):
        raise CheckFailed(f"{what}: non-integer entry in {row!r}")


def _json(text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CheckFailed(f"{what}: output is not JSON ({exc})")


def _solution(s: int, t, bound: int | None, what: str) -> tuple[int, int, int]:
    t = _ints(t, what)
    require(len(t) == 3, "{}: {} is not a triple", what, t)
    require(cubic(s, *t) == 0, "{}: {} does not solve the cubic at s={}", what, t, s)
    if bound is not None:
        require(1 <= t[0] <= t[1] <= t[2] <= bound, "{}: {} not canonical within the bound", what, t)
    return t


# ---- verify ---------------------------------------------------------------


def check_verify(out: str, s: int, triple) -> None:
    doc = _json(out, "verify")
    require(doc.get("s") == s and doc.get("triple") == list(triple), "verify: echo mismatch")
    value = cubic(s, *triple)
    require(doc.get("value") == value, f"verify: value {doc.get('value')} != {value}")
    require(doc.get("solution") is (value == 0), "verify: solution flag wrong")


# ---- search and classify ----------------------------------------------------

_BRUTE_CACHE: dict[tuple[int, int], set] = {}
BRUTE_LIMIT = 120


def brute_force(s: int, limit: int) -> set:
    """Every canonical solution with c <= limit, by a plain triple loop."""
    key = (s, limit)
    if key not in _BRUTE_CACHE:
        found = set()
        for a in range(1, limit + 1):
            for b in range(a, limit + 1):
                for c in range(b, limit + 1):
                    if cubic(s, a, b, c) == 0:
                        found.add((a, b, c))
        _BRUTE_CACHE[key] = found
    return _BRUTE_CACHE[key]


def check_solution_set(s: int, bound: int, triples: list, what: str) -> None:
    """Properties of a complete enumeration within the bound."""
    for t in triples:
        _solution(s, t, bound, what)
    require(triples == sorted(set(triples)), f"{what}: rows not sorted and distinct")
    have = set(triples)
    for t in triples:
        for _, w in moves(s, t):
            require(w[2] > bound or w in have, "{}: move {} -> {} stays in bound but is missing", what, t, w)
    for p in range(1, bound + 1):
        base = tuple(sorted((s, p, p)))
        require(base[2] > bound or base in have, "{}: base row {} missing", what, base)
    for p in range(s + 1, bound + 1):
        if (2 * p) % s:
            continue
        xs = [s, p]
        while xs[-1] <= bound:
            xs.append(2 * p // s * xs[-1] - xs[-2])
        xs.pop()
        for n in range(len(xs)):
            for m in range(n, len(xs) - n):
                if n + m == 0:
                    continue
                t = tuple(sorted((xs[n], xs[n + m], xs[m])))
                require(t in have, "{}: chain triple {} of base ({}, {}) missing", what, t, s, p)
    limit = min(bound, BRUTE_LIMIT)
    small = {t for t in have if t[2] <= limit}
    require(small == brute_force(s, limit), f"{what}: rows with c <= {limit} differ from brute force")


def _csv_rows(out: str, header: list[str], what: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(out)))
    require(bool(rows) and rows[0] == header, f"{what}: bad CSV header")
    return rows[1:]


def _search_triples(out: str, s: int, fmt: str, what: str) -> list[tuple[int, int, int]]:
    if fmt == "csv":
        rows = _csv_rows(out, ["s", "a", "b", "c"], what)
        triples = []
        for row in rows:
            require(len(row) == 4 and row[0] == str(s), "{}: bad row {}", what, row)
            triples.append(_ints(row[1:], what))
        return triples
    triples = []
    for line in out.splitlines():
        doc = _json(line, what)
        require(doc.get("s") == s, "{}: wrong s in {}", what, line)
        triples.append(_ints(doc.get("triple"), what))
    return triples


def check_search(out: str, s: int, bound: int, fmt: str) -> None:
    check_solution_set(s, bound, _search_triples(out, s, fmt, "search"), "search")


def _components(s: int, bound: int, verts: list) -> list[int]:
    index = {v: i for i, v in enumerate(verts)}
    parent = list(range(len(verts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, v in enumerate(verts):
        for _, w in moves(s, v):
            if w[2] <= bound:
                a, b = find(i), find(index[w])
                parent[max(a, b)] = min(a, b)
    return [find(i) for i in range(len(verts))]


def expected_tags(s: int, bound: int, t) -> tuple[list[str], int | None]:
    """(tags, base value of the descent terminal when it names a chain)."""
    conjs = []
    for k in range(3):
        y, z = (t[j] for j in range(3) if j != k)
        conjs.append(Fraction(2 * y * z, s) - t[k])
    integral = [c.denominator == 1 and c >= 1 for c in conjs]
    p = base_shape(s, descend(s, t))
    fam = p if p is not None and (2 * p) % s == 0 else None
    tags = []
    if base_shape(s, t) is not None:
        tags.append("base")
    if fam is not None:
        tags.append("r-family")
    if not any(integral):
        tags.append("isolated")
    if any(w[2] > bound for _, w in moves(s, t)):
        tags.append("frontier-limited")
    return tags, fam


def check_classify(out: str, s: int, bound: int, fmt: str) -> None:
    what = "classify"
    rows = []
    if fmt == "csv":
        for row in _csv_rows(out, ["s", "a", "b", "c", "tags", "conj_a", "conj_b", "conj_c"], what):
            require(len(row) == 8 and row[0] == str(s), "{}: bad row {}", what, row)
            tags = row[4].split("|") if row[4] else []
            rows.append((_ints(row[1:4], what), tags, row[5:], None, None))
    else:
        for line in out.splitlines():
            doc = _json(line, what)
            require(doc.get("s") == s, "{}: wrong s in {}", what, line[:80])
            rows.append(
                (_ints(doc.get("triple"), what), doc.get("tags"), doc.get("conjugates"), doc.get("family"), doc.get("component"))
            )
    verts = [r[0] for r in rows]
    check_solution_set(s, bound, verts, what)
    roots = _components(s, bound, verts) if fmt != "csv" else None
    first = {}
    for i, (t, tags, conjs, family, component) in enumerate(rows):
        want = [str(Fraction(2 * t[(k + 1) % 3] * t[(k + 2) % 3], s) - t[k]) for k in range(3)]
        require(conjs == want, "{}: conjugates of {} are {}, expected {}", what, t, conjs, want)
        want_tags, fam = expected_tags(s, bound, t)
        require(tags == want_tags, "{}: tags of {} are {}, expected {}", what, t, tags, want_tags)
        if roots is None:
            continue
        require(component == first.setdefault(roots[i], i), "{}: component of {} is {}", what, t, component)
        if fam is None:
            require(family is None, "{}: {} has family {} but is not in a chain", what, t, family)
            continue
        require(isinstance(family, list) and len(family) == 3, "{}: {} lacks its family", what, t)
        b, n, m = _ints(family, what)
        require(b == fam and n >= 0 and m >= 0, "{}: family {} of {} has the wrong base", what, family, t)
        replay = tuple(sorted(chain_value(s, b, k) for k in (n, n + m, m)))
        require(replay == t, "{}: family {} replays to {}, not {}", what, family, replay, t)


# ---- Pell ---------------------------------------------------------------------

FORM_Z = "z2-da2"
FORM_A = "a2-dz2"


def _pell_holds(d: int, rhs: int, form: str, z: int, a: int) -> bool:
    if form == FORM_Z:
        return z * z - d * a * a == rhs
    return a * a - d * z * z == rhs


def _pell_doc(out: str, d: int, rhs: int, form: str, what: str) -> list[tuple[int, int]]:
    doc = _json(out, what)
    require((doc.get("d"), doc.get("rhs"), doc.get("form")) == (d, rhs, form), f"{what}: instance echo mismatch")
    sols = [_ints(p, what) for p in doc.get("solutions", [])]
    for z, a in sols:
        require(_pell_holds(d, rhs, form, z, a), "{}: ({}, {}) fails the equation", what, z, a)
    zs = [z for z, _ in sols]
    require(zs == sorted(set(zs)), f"{what}: z values not strictly ascending")
    return sols


def family_one_solutions(s: int, y: int, count: int) -> list[tuple[int, int]]:
    """(X_n, U_{n-1}) for n = 1..count; U is the same recurrence from seeds (1, 2y/s)."""
    xs = chain_values(s, y, count + 1)
    us = chain_values(s, y, count, seeds=(1, 2 * y // s))
    return [(xs[n], us[n - 1]) for n in range(1, count + 1)]


def family_two_solutions(s: int, p: int, n: int, count: int) -> list[tuple[int, int]]:
    xs = chain_values(s, p, n + count + 1)
    return [(xs[m], s * (xs[n + m] - xs[abs(n - m)]) // 2) for m in range(1, count + 1)]


def check_pell_oracle(out: str, d: int, rhs: int, form: str, bound: int, chain: list, seed: int) -> None:
    what = "pell-oracle"
    sols = _pell_doc(out, d, rhs, form, what)
    require(_json(out, what).get("provenance") == f"exhaustive-scan(z<={bound})", f"{what}: provenance")
    for z, a in sols:
        require(1 <= z <= bound and a >= 1, "{}: ({}, {}) outside 1 <= z <= {}, a >= 1", what, z, a, bound)
    have = set(sols)
    for z, a in chain:
        if z <= bound:
            require((z, a) in have, f"{what}: chain solution ({z}, {a}) missing")
    found = {z for z, _ in sols}
    rng = random.Random(seed)
    for z in (rng.randint(1, bound) for _ in range(2000)):
        if z in found:
            continue
        if form == FORM_Z:
            q, r = divmod(z * z - rhs, d)
            hit = r == 0 and q > 0 and isqrt(q) ** 2 == q
        else:
            q = rhs + d * z * z
            hit = q > 0 and isqrt(q) ** 2 == q
        require(not hit, f"{what}: z={z} solves the equation but is missing")


def check_pell_one(out: str, s: int, y: int, count: int) -> None:
    what = "pell-one"
    sols = _pell_doc(out, y * y - s * s, s * s, FORM_Z, what)
    require(sols == family_one_solutions(s, y, count), f"{what}: solutions are not the chain pairs")


def check_pell_two(out: str, s: int, p: int, n: int, count: int) -> None:
    what = "pell-two"
    y = chain_value(s, p, n)
    d = y * y - s * s
    sols = _pell_doc(out, d, -(s * s) * d, FORM_A, what)
    require(sols == family_two_solutions(s, p, n, count), f"{what}: solutions are not the chain differences")


# ---- chains -----------------------------------------------------------------------


def check_family(out: str, s: int, b: int, n: int, m: int, fmt: str) -> None:
    what = "family"
    want = tuple(chain_value(s, b, k) for k in (n, n + m, m))
    if fmt == "json":
        doc = _json(out, what)
        require([doc.get(k) for k in ("s", "b", "n", "m")] == [s, b, n, m], f"{what}: echo mismatch")
        got = _ints(doc.get("triple"), what)
        require(doc.get("value") == 0, f"{what}: value is not 0")
    else:
        got = _ints(out.strip().split(","), what)
    require(got == want, f"{what}: triple differs from the chain at ({s}, {b}, {n}, {m})")
    require(cubic(s, *got) == 0, f"{what}: triple does not solve the cubic")


def check_reduce(out: str, s: int, b: int, n: int, m: int) -> None:
    what = "reduce"
    doc = _json(out, what)
    require(doc.get("s") == s, f"{what}: wrong s")
    trace = [_solution(s, t, None, what) for t in doc.get("trace", [])]
    start = tuple(sorted(chain_value(s, b, k) for k in (n, n + m, m)))
    require(trace and trace[0] == start, f"{what}: trace does not start at the input")
    for prev, cur in zip(trace, trace[1:]):
        require(list(prev) == sorted(prev) and max(cur) < max(prev), "{}: step does not shrink the maximum", what)
        require(shrink(s, prev) == cur, "{}: step is not a move", what)
    term = trace[-1]
    require(shrink(s, term) is None, "{}: terminal can still shrink", what)
    require(_ints(doc.get("terminal"), what) == term, f"{what}: terminal differs from the last trace entry")
    require(doc.get("base") is (base_shape(s, term) is not None), f"{what}: base flag wrong")
    require(doc.get("singular") is (term[0] == 1 and term[1] == term[2]), f"{what}: singular flag wrong")
    require(term == (s, b, b), f"{what}: chain triple ends at {term}, not ({s}, {b}, {b})")
    require(len(trace) == euclid_path_length(n, m), f"{what}: {len(trace) - 1} steps, Euclid path says otherwise")


def _graph_from_dot(out: str, what: str):
    lines = out.splitlines()
    require(lines[:1] == ["graph cayley {"] and lines[-1:] == ["}"], f"{what}: bad DOT frame")
    verts, frontier, edges = [], [], []
    for line in lines[1:-1]:
        if " -- " in line:
            left, rest = line.strip().split(" -- ")
            right, label = rest.split(" [label=")
            edges.append((left.strip('"'), right.strip('"'), label[1:-3]))
            continue
        name, _, mark = line.strip().rstrip(";").partition(" ")
        require(mark in ("", "[peripheries=2]"), "{}: bad node line {}", what, line[:60])
        if mark:
            frontier.append(len(verts))
        verts.append(_ints(name.strip('"').split(","), what))
    index = {"{},{},{}".format(*v): i for i, v in enumerate(verts)}
    out_edges = []
    for left, right, label in edges:
        require(left in index and right in index and label in ("a", "b", "c"), f"{what}: bad edge")
        out_edges.append((index[left], index[right], "abc".index(label)))
    return verts, sorted(out_edges), frontier


def check_graph(out: str, s: int, seed, bound: int, fmt: str) -> None:
    what = "graph"
    if fmt == "dot":
        verts, edges, frontier = _graph_from_dot(out, what)
    else:
        doc = _json(out, what)
        require(doc.get("s") == s and doc.get("bound") == bound, f"{what}: echo mismatch")
        verts = [_ints(v, what) for v in doc.get("vertices", [])]
        edges = [_ints(e, what) for e in doc.get("edges", [])]
        frontier = doc.get("frontier")
    for v in verts:
        _solution(s, v, bound, what)
    require(verts == sorted(set(verts)), f"{what}: vertices not sorted and distinct")
    index = {v: i for i, v in enumerate(verts)}
    require(tuple(sorted(seed)) in index, f"{what}: seed missing")
    want_edges, want_frontier = {}, []
    for i, v in enumerate(verts):
        leaves = False
        for k, w in moves(s, v):
            if w[2] > bound:
                leaves = True
                continue
            require(w in index, "{}: move {} -> {} stays in bound but is missing", what, v, w)
            j = index[w]
            if i < j:
                want_edges[(i, j)] = min(k, want_edges.get((i, j), 3))
        if leaves:
            want_frontier.append(i)
    got = {(i, j): k for i, j, k in edges}
    require(len(got) == len(edges) == len(want_edges), f"{what}: {len(edges)} edges, expected {len(want_edges)}")
    require(got == want_edges, f"{what}: an edge is not a conjugation move")
    require(frontier == want_frontier, f"{what}: frontier differs")
    # connected: every vertex reaches the seed through edges
    adj = [[] for _ in verts]
    for i, j in got:
        adj[i].append(j)
        adj[j].append(i)
    seen = {index[tuple(sorted(seed))]}
    todo = list(seen)
    while todo:
        for j in adj[todo.pop()]:
            if j not in seen:
                seen.add(j)
                todo.append(j)
    require(len(seen) == len(verts), f"{what}: graph is not connected to the seed")


# ---- Markov -----------------------------------------------------------------------


def markov(x: int, y: int, z: int) -> int:
    return x * x + y * y + z * z - 3 * x * y * z


def _check_markov_set(triples: list, depth: int, what: str) -> set:
    for t in triples:
        require(len(t) == 3 and min(t) >= 1 and markov(*t) == 0, "{}: {} is not a Markov triple", what, t)
    have = set(triples)
    require(len(have) == len(triples), f"{what}: repeated triple")
    want = 2 ** (depth - 1) + 1 if depth >= 1 else 1
    require(len(triples) == want, f"{what}: {len(triples)} triples at depth {depth}, expected {want}")
    require((1, 1, 1) in have, f"{what}: root missing")
    return have


def check_markov_tree(out: str, depth: int, fmt: str) -> None:
    what = "markov-tree"
    if fmt == "json":
        doc = _json(out, what)
        require(doc.get("depth") == depth, f"{what}: depth echo")
        triples = [_ints(t, what) for t in doc.get("triples", [])]
        require(triples == sorted(triples), f"{what}: triples not sorted")
        for t in triples:
            require(list(t) == sorted(t), "{}: {} not canonical", what, t)
        have = _check_markov_set(triples, depth, what)
        for t in triples:
            if t[2] > 2:
                x, y, z = t
                parent = tuple(sorted((x, y, 3 * x * y - z)))
                require(parent in have, "{}: parent of {} missing", what, t)
        return
    lines = out.splitlines()
    require(lines[:1] == ["digraph markov {"] and lines[-1:] == ["}"], f"{what}: bad DOT frame")
    nodes, edges = [], []
    for line in lines[1:-1]:
        parts = [p.strip('"') for p in line.strip().rstrip(";").split(" -> ")]
        tri = [_ints(p.split(","), what) for p in parts]
        (nodes if len(tri) == 1 else edges).append(tri[0] if len(tri) == 1 else tuple(tri))
    have = _check_markov_set(nodes, depth, what)
    require(len(edges) == len(nodes) - 1, f"{what}: {len(edges)} edges for {len(nodes)} nodes")
    children = set()
    for parent, child in edges:
        require(parent in have and child in have, f"{what}: edge to an unknown node")
        steps = [tuple(sorted(parent[:k] + (3 * parent[(k + 1) % 3] * parent[(k + 2) % 3] - parent[k],) + parent[k + 1 :])) for k in range(3)]
        require(child in steps, "{}: {} -> {} is not a Markov move", what, parent, child)
        require(child not in children, "{}: {} has two parents", what, child)
        children.add(child)


def power_sequence(alpha, beta, count: int) -> list[int]:
    """[K'(beta), K'(alpha beta), K'(alpha^2 beta), ...] by matrix products."""
    return [continuant((tuple(alpha) * k + tuple(beta))[:-1]) for k in range(count)]


def replays_chain(terms: list[int]) -> bool:
    s, b = terms[0], terms[1]
    x0, x1 = Fraction(s), Fraction(b)
    for t in terms[2:]:
        x0, x1 = x1, Fraction(2 * b, s) * x1 - x0
        if x1 != t:
            return False
    return True


def check_r_match(out: str, max_entry: int, max_block: int, terms: int, seed: int) -> None:
    what = "r-match"
    doc = _json(out, what)
    bounds = {"max_entry": max_entry, "max_block_len": max_block, "max_terms": terms}
    require(doc.get("bounds") == bounds, f"{what}: bounds echo")
    require(doc.get("matches_s_ge_2") == [], f"{what}: reports s >= 2 matches")
    listed = set()
    for f in doc.get("s1_coincidences", []):
        alpha, beta = tuple(f["alpha"]), tuple(f["beta"])
        require(2 <= len(alpha) <= max_block and len(alpha) % 2 == 0, f"{what}: bad alpha {alpha}")
        require(1 <= len(beta) <= max_block, f"{what}: bad beta {beta}")
        require(all(1 <= v <= max_entry for v in alpha + beta), f"{what}: entry out of range")
        seq = power_sequence(alpha, beta, terms)
        require(f["terms"] == seq and f["s"] == seq[0] == 1 and f["b"] == seq[1], f"{what}: terms of {alpha},{beta}")
        require(replays_chain(seq), f"{what}: {alpha},{beta} does not replay a chain")
        require((alpha, beta) not in listed, f"{what}: repeated finding")
        listed.add((alpha, beta))
    # every pair when there are few, else a seeded sample
    entries = range(1, max_entry + 1)
    alphas = [w for n in range(2, max_block + 1, 2) for w in product(entries, repeat=n)]
    betas = [w for n in range(1, max_block + 1) for w in product(entries, repeat=n)]
    if len(alphas) * len(betas) <= 1000:
        pairs = list(product(alphas, betas))
    else:
        rng = random.Random(seed)
        pairs = [(rng.choice(alphas), rng.choice(betas)) for _ in range(300)]
    for alpha, beta in pairs:
        seq = power_sequence(alpha, beta, terms)
        match = replays_chain(seq)
        require(not (match and seq[0] >= 2), f"{what}: {alpha},{beta} matches with s >= 2 but is not reported")
        require(match == ((alpha, beta) in listed), f"{what}: sample {alpha},{beta} listed wrongly")


def check_continuant(out: str, word, kind: str, fmt: str) -> None:
    what = "continuant"
    part = {"full": word, "drop-last": word[:-1], "interior": word[1:-1]}[kind]
    want = continuant(part)
    if fmt == "text":
        got = _ints([out.strip()], what)[0]
    else:
        doc = _json(out, what)
        require(doc.get("word") == list(word) and doc.get("kind") == kind, f"{what}: echo mismatch")
        got = doc.get("value")
    require(got == want, f"{what}: {kind} value differs from the matrix product")


CHECKS = {
    "verify": check_verify,
    "search": check_search,
    "classify": check_classify,
    "pell-oracle": check_pell_oracle,
    "pell-one": check_pell_one,
    "pell-two": check_pell_two,
    "family": check_family,
    "reduce": check_reduce,
    "graph": check_graph,
    "markov-tree": check_markov_tree,
    "r-match": check_r_match,
    "continuant": check_continuant,
}


def check(kind: str, out: str, params: dict) -> None:
    with unlimited_int_digits():
        CHECKS[kind](out, **params)
