"""Seeded operation lists for the three benchmark workloads.

An operation is a CLI argv plus the check that its output must pass.  The
seed picks the concrete inputs; the shapes that set the cost (bounds,
chain multipliers, indices, counts, depths) stay within a narrow band, so
every seed asks for about the same work.

scan    exhaustive scans: classify, search (one with --workers 2) and the
        Pell oracle; the sequences and markov layers are idle or nearly so.
chains  big-integer chain algebra on a few bases, each revisited by several
        commands so that the sequence caches are used; no enumeration.
markov  the Markov tree (JSON and DOT), the continuant overlap search and
        continuants of long words; the only workload for the markov layer.
"""

from __future__ import annotations

import random
from math import gcd

from checks import chain_value, family_one_solutions, family_two_solutions

WORKLOADS = ("scan", "chains", "markov")

GRAPH_BOUND = 10**300
PELL_BOUND = 1_000_000

# The one operation expected to fail: its last component has 4576 digits, and
# Python refuses to print an int of more than 4300 digits by default, so the
# CLI exits 2 although its docstring promises every number in full decimal.
DIGIT_LIMIT_OP = {
    "argv": ["family", "--s", "3", "--b", "6", "--n", "8000", "--m", "1"],
    "check": "family",
    "params": {"s": 3, "b": 6, "n": 8000, "m": 1, "fmt": "text"},
}


def _op(argv: list, check: str, **params) -> dict:
    return {"argv": [str(a) for a in argv], "check": check, "params": params}


def _base(rng: random.Random, mult: int) -> tuple[int, int]:
    """A base (s, b) with 2b/s == mult, so s | 2b and b > s."""
    s = rng.randint(1, 6)
    if mult % 2:
        s += s % 2
    return s, mult * s // 2


def _triple_text(t) -> str:
    return ",".join(str(v) for v in t)


def scan(rng: random.Random) -> list[dict]:
    ops = []
    for s, fmt in ((1, "jsonl"), (12, "csv"), (24, "jsonl")):
        bound = 2000 + rng.randrange(21)
        ops.append(_op(["classify", "--s", s, "--bound", bound, "--format", fmt], "classify", s=s, bound=bound, fmt=fmt))
    for bound, fmt, workers in ((2500, "jsonl", 1), (3000, "csv", 1), (2500, "jsonl", 2)):
        s = rng.randint(2, 40)
        bound += rng.randrange(21)
        ops.append(
            _op(
                ["search", "--s", s, "--bound", bound, "--format", fmt, "--workers", workers],
                "search",
                s=s,
                bound=bound,
                fmt=fmt,
            )
        )
    s, y = _base(rng, rng.choice((4, 6)))
    bound = PELL_BOUND + rng.randrange(1000)
    d, rhs = y * y - s * s, s * s
    chain = family_one_solutions(s, y, 40)
    ops.append(
        _op(
            ["pell-oracle", "--d", d, "--rhs", rhs, "--bound", bound],
            "pell-oracle",
            d=d,
            rhs=rhs,
            form="z2-da2",
            bound=bound,
            chain=chain,
            seed=rng.randrange(2**32),
        )
    )
    for n in (2, 3):
        x = chain_value(s, y, n)
        d = x * x - s * s
        rhs = -(s * s) * d
        chain = family_two_solutions(s, y, n, 40)
        ops.append(
            _op(
                ["pell-oracle", "--d", d, "--rhs", rhs, "--form", "a2-dz2", "--bound", bound],
                "pell-oracle",
                d=d,
                rhs=rhs,
                form="a2-dz2",
                bound=bound,
                chain=chain,
                seed=rng.randrange(2**32),
            )
        )
    return ops


def _chain_seed(rng: random.Random, s: int, b: int, top: int) -> list[int]:
    """A chain triple (X_n, X_{n+m}, X_m) of base (s, b) with gcd(n, m) = 1;
    a common factor g would put it in the component of base (s, X_g)."""
    while True:
        n, m = rng.randint(1, top), rng.randint(1, top)
        if gcd(n, m) == 1:
            return [chain_value(s, b, k) for k in (n, n + m, m)]


def chains(rng: random.Random) -> list[dict]:
    ops = []
    for mult in (4, 6, 3):
        s, b = _base(rng, mult)
        # (n, n - 1) is coprime and its Euclid path has exactly n states,
        # so every seed asks reduce for the same number of steps.
        n = rng.randint(1400, 1450)
        m = n - 1
        triple = [chain_value(s, b, k) for k in (n, n + m, m)]
        count = 1200 + rng.randrange(21)
        ops += [
            _op(["family", "--s", s, "--b", b, "--n", n, "--m", m], "family", s=s, b=b, n=n, m=m, fmt="text"),
            _op(
                ["family", "--s", s, "--b", b, "--n", n, "--m", m, "--format", "json"],
                "family",
                s=s,
                b=b,
                n=n,
                m=m,
                fmt="json",
            ),
            # X_{2n-1} is cached by now, X_{2n} is not
            _op(["family", "--s", s, "--b", b, "--n", 2 * n - 1, "--m", 1], "family", s=s, b=b, n=2 * n - 1, m=1, fmt="text"),
            _op(["reduce", "--s", s, "--triple", _triple_text(triple)], "reduce", s=s, b=b, n=n, m=m),
            _op(["pell-one", "--s", s, "--y", b, "--count", count], "pell-one", s=s, y=b, count=count),
            _op(["pell-two", "--s", s, "--p", b, "--n", n, "--count", 3], "pell-two", s=s, p=b, n=n, count=3),
        ]
    # Both graphs are whole components: any chain seed of the base gives the
    # same vertex set, so the seed changes the input but not the work.
    for s, b, top, fmt in ((2, 4, 250, "json"), (1, 5, 140, "dot")):
        seed = _chain_seed(rng, s, b, top)
        ops.append(
            _op(
                ["graph", "--s", s, "--seed", _triple_text(seed), "--bound", GRAPH_BOUND, "--format", fmt],
                "graph",
                s=s,
                seed=seed,
                bound=GRAPH_BOUND,
                fmt=fmt,
            )
        )
    ops.append(dict(DIGIT_LIMIT_OP))
    return ops


def _word(rng: random.Random) -> list[int]:
    return [rng.randint(1, 9) for _ in range(1000)]


def markov(rng: random.Random) -> list[dict]:
    ops = [
        _op(["markov-tree", "--depth", 16], "markov-tree", depth=16, fmt="json"),
        _op(["markov-tree", "--depth", 16, "--format", "dot"], "markov-tree", depth=16, fmt="dot"),
    ]
    for entry in (3, 4):
        ops.append(
            _op(
                ["r-match", "--max-entry", entry, "--max-block", 4, "--terms", 6],
                "r-match",
                max_entry=entry,
                max_block=4,
                terms=6,
                seed=rng.randrange(2**32),
            )
        )
    # seven short operations against four long ones, so that the median
    # operation is a continuant and not one of the long ones at a boundary
    kinds = ((None, "full"), ("--drop-last", "drop-last"), ("--interior", "interior"))
    for i in range(7):
        flag, kind = kinds[i % 3]
        fmt = ("json", "text")[i % 2]
        word = _word(rng)
        argv = ["continuant", "--word", ",".join(map(str, word)), "--format", fmt]
        if flag:
            argv.append(flag)
        ops.append(_op(argv, "continuant", word=word, kind=kind, fmt=fmt))
    return ops


def build(name: str, seed: int) -> list[dict]:
    """The operation list of one round of the named workload."""
    rng = random.Random(f"{name}:{seed}")
    return {"scan": scan, "chains": chains, "markov": markov}[name](rng)


def setup_op(seed: int) -> dict:
    """A trivial verify of a base row (s, p, p), used to time a cold start."""
    rng = random.Random(f"setup:{seed}")
    s, p = rng.randint(1, 50), rng.randint(51, 500)
    return _op(["verify", "--s", s, "--triple", f"{s},{p},{p}"], "verify", s=s, triple=[s, p, p])
