"""Golden CLI outputs: each row runs `line` through `cli.run` in process and compares what
`pick` reads from stdout with `want`, a literal or an oracle of the whole stdout. In `line`,
`10**k` is written out in decimal and WORD is the 2000-entry word k % 3 + 1. A literal is
never regenerated from the code under test: a new row takes it from the parent commit."""
import hashlib
import json

import pytest

from cayleycubic import (
    Triple,
    classifications_to_csv,
    classifications_to_jsonl,
    classify,
    enumerate_solutions,
    solution_graph,
    triples_to_csv,
)
from cayleycubic.cli import run
from conftest import unlimited_digits

WORD = ",".join(str(k % 3 + 1) for k in range(2000))
STATUS = None  # the row pins the exit status, not stdout


def sha256(out):
    return hashlib.sha256(out.encode()).hexdigest()


def text(out):  # less the final newline, as the shell's $(...) reads it
    return out.removesuffix("\n")


def grep(pattern):
    return lambda out: "\n".join(line for line in out.splitlines() if pattern in line)


def tail(n):
    return lambda out: "\n".join(out.splitlines()[-n:])


def ladder():
    """X_8000, X_8001 and X_1 of base (3, 6), by the plain loop X_{k+1} = 4 X_k - X_{k-1}."""
    xs = [3, 6]
    while len(xs) < 8002:
        xs.append(4 * xs[-1] - xs[-2])
    return f"{xs[8000]},{xs[8001]},{xs[1]}\n"


def head_recursion(kind):
    """One continuant kind of the 2000-entry word, by the head recursion run from the end."""
    w = [k % 3 + 1 for k in range(2000)]
    nxt, cur = 0, 1
    for a in reversed({"full": w, "drop-last": w[:-1], "interior": w[1:-1]}[kind]):
        nxt, cur = cur, a * cur + nxt
    return json.dumps({"word": w, "kind": kind, "value": cur}) + "\n"


GOLDEN = [
    # the continuant kind flags are exclusive: both together is a usage error
    ("continuant --word 2,1,1,3 --drop-last --interior", STATUS, 2),
    ("continuant --word 2,1,1,3 --interior --format text", text, '2'),
    ("pell-oracle --d 3 --rhs 1 --bound 30 --format text", text, '2,1\n7,4\n26,15'),
    ("r-match --max-entry 2 --max-block 2 --terms 3", text,
     '{"bounds": {"max_entry": 2, "max_block_len": 2, "max_terms": 3}, "matches_s_ge_2": [], "s1_coincidences": []}'),
    ("markov-tree --depth 2", text, '{"depth": 2, "triples": [[1, 1, 1], [1, 1, 2], [1, 2, 5]]}'),
    ("markov-tree --depth 2 --format dot", text, "\n".join(
        ['digraph markov {', '  "1,1,1";', '  "1,1,2";', '  "1,2,5";', '  "1,1,1" -> "1,1,2";', '  "1,1,2" -> "1,2,5";', '}'])),
    # the 32 769 triples of depth 16
    ("markov-tree --depth 16", sha256, "669d7f422549842bc6d0d106f182dff62ce0dd2618d010c7f38f06325b9cc394"),
    ("markov-tree --depth 16 --format dot", sha256, "90906f35f00adf8e05797d513d011d79c8b77952e6cc07cd8c3f4a196d29dbc6"),
    # the graph of a chain seed, written in chunks: 6 684 vertices, two chunks of each kind
    ("graph --s 2 --seed 2,4,4 --bound 10**120", sha256, lambda: solution_graph(Triple(2, 2, 4, 4), 10**120).to_json() + "\n"),
    ("graph --s 2 --seed 2,4,4 --bound 10**120 --format dot", sha256, lambda: solution_graph(Triple(2, 2, 4, 4), 10**120).to_dot()),
    # a value-space seed: 4 vertices, 2 of them on the frontier
    ("graph --s 10 --seed 11,17,25 --bound 300 --format dot", sha256, lambda: solution_graph(Triple(10, 11, 17, 25), 300).to_dot()),
    # search and classify rows, written in chunks from one pass over int rows; s = 12 and 30
    # have many rows that are not base rows, each move's landing row found by bisection
    ("classify --s 1 --bound 3000 --format jsonl", sha256, lambda: classifications_to_jsonl(classify(1, 3000))),
    ("classify --s 12 --bound 3000 --format csv", sha256, lambda: classifications_to_csv(classify(12, 3000))),
    ("classify --s 30 --bound 3000 --format jsonl", sha256, lambda: classifications_to_jsonl(classify(30, 3000))),
    ("search --s 24 --bound 3000 --format csv", sha256, lambda: triples_to_csv(enumerate_solutions(24, 3000))),
    # the CLI and the library share their writers: these pin outputs on their own, nearly
    # all of them base rows written from p alone; s = 1000 up to 5000 has 1 013 diagonal rows
    ("--no-note-corrections graph --s 1 --seed 1,2,2 --bound 10**200 --format dot", sha256,
     "5b423f3338814dd0fefb751e488bad98893a1d39ecb10a0c378d5235b13f4638"),
    ("search --s 1 --bound 20000 --format csv", sha256, "8e7de3812fcabd2aef84c9fe76f8b22d6dfc527cefb99fcabbac4366274c6af5"),
    ("classify --s 12 --bound 20000 --format jsonl", sha256, "a86a8c1727b0911071ab9c40ba73e1e19eaa2d833f8afbc806949344e2d77166"),
    ("classify --s 1 --bound 20000 --format jsonl", sha256, "8a8957e3a8b8c3419b6b0f7f6bdd1e20969280029749f9f5161f3bebdb941457"),
    ("classify --s 30 --bound 20000 --format csv", sha256, "90c949bb5ddfbb30609dcb69b45c9c9d9dc8054e307ebb70556591460bc590f4"),
    ("search --s 1000 --bound 5000 --format csv", sha256, "22b85ae4362470d456ab5621e56273e065f6f60e4e45d19d292c4ac1ed5b5789"),
    ("classify --s 1000 --bound 5000 --format jsonl", sha256, "ed1c979e63b492b4418fd8261ac02fc1325684d19e818d2c5b2d25f381631e83"),
    # the index-space graph writer at the benchmark's two shapes: (2, 4) JSON, 41 846 vertices
    ("--no-note-corrections graph --s 2 --seed 2,4,4 --bound 10**300", sha256,
     "003038fa0fe5bcec75fc1b237d87ef86a7cbd8e77395c332dff32ee1861e9b64"),
    ("--no-note-corrections graph --s 1 --seed 1,5,5 --bound 10**300 --format dot", sha256,
     "f27925770293973c61246863bcc6df9afe0bfde629ddf0ffe8a90673e87bed05"),
    # (2, 7, 26) is two moves past its terminal (1, 2, 2): its family comes from the chain lookup
    ("classify --s 1 --bound 30 --format jsonl", grep('"triple": [2, 7, 26]'),
     '{"s": 1, "triple": [2, 7, 26], "tags": ["r-family", "frontier-limited"], "family": [2, 1, 2], "component": 1, "conjugates": ["362", "97", "2"]}'),
    # a base row in closed form: 8 | 2*10^2, so 8 moves to (10, 10, 17), within the bound; 8 does not divide 2*10, so no family
    ("classify --s 8 --bound 17 --format jsonl", grep('"triple": [8, 10, 10]'),
     '{"s": 8, "triple": [8, 10, 10], "tags": ["base"], "family": null, "component": 10, "conjugates": ["17", "10", "10"]}'),
    # the two rows of s = 12 up to 40 that are not base triples; at bound 20, (13, 15, 20) is the
    # last, and tight: its a = 13 is the largest member whose class the join gathers
    ("search --s 12 --bound 40 --format jsonl", tail(2), "\n".join(['{"s": 12, "triple": [13, 15, 20]}', '{"s": 12, "triple": [15, 20, 37]}'])),
    ("search --s 12 --bound 20 --format jsonl", tail(1), '{"s": 12, "triple": [13, 15, 20]}'),
    # chain values by index doubling, and the Pell family members read in one walk
    ("family --s 2 --b 4 --n 3 --m 2 --format text", text, '52,724,14'),
    ("pell-one --s 1 --y 2 --count 3 --format text", text, '2,1\n7,4\n26,15'),
    ("pell-two --s 1 --p 4 --n 2 --count 3 --format text", text, '4,120\n31,960\n244,7560'),
    ("family --s 3 --b 6 --n 8000 --m 1 --format text", sha256, ladder),
    # 5 family-two members at n = 300; 1208 family-one members of base (6, 12); the oracle on the
    # unit-orbit path, on the direct scan (d = 61: the unit passes the cap), and with z^2 - rhs < 0
    ("pell-two --s 2 --p 4 --n 300 --count 5", sha256, "bc7e6f9505fff41987eb2c3f3ca8eeb1670db1d26eaf72d193c754c4c335840e"),
    ("pell-one --s 6 --y 12 --count 1208", sha256, "89188cfe995ba4a72f154ad7ce1a2131f3588cf7eb31444fbe1e670d98016a96"),
    ("pell-oracle --d 156800 --rhs -2508800 --form a2-dz2 --bound 1000000", sha256,
     "f2880b17f2de9f58c69b3a2e1594dbb89615704b7715b75a5ff16884be355d9c"),
    ("pell-oracle --d 61 --rhs -52 --bound 200000 --format text", sha256, "710fac14aca077db1cb53a7a75031e7caf9a0e1f6fb3b89bfbce5f330c4e0d6a"),
    ("pell-oracle --d 128 --rhs 16 --bound 1000000 --format text", sha256, "d44754ffa536ac23ec61f5235048adce3fc81fb70f527095f1f0b1422cfdd2c7"),
    # a count past sys.maxsize is refused with the module's own message
    ("pell-one --s 1 --y 3 --count 10**20", STATUS, 2),
    ("continuant --word WORD", sha256, lambda: head_recursion("full")),
    ("continuant --word WORD --drop-last", sha256, lambda: head_recursion("drop-last")),
    ("continuant --word WORD --interior", sha256, lambda: head_recursion("interior")),
    # the README examples; the reduce trace passes through the tie (21, 21, 291)
    ("verify --s 3 --triple 21,4053,291", text, '{"s": 3, "triple": [21, 4053, 291], "value": 0, "solution": true}'),
    ("reduce --s 3 --triple 21,4053,291", text,
     '{"s": 3, "trace": [[21, 291, 4053], [21, 21, 291], [3, 21, 21]], "terminal": [3, 21, 21], "base": true, "singular": false}'),
    ("--no-note-corrections graph --s 12 --seed 13,15,20 --bound 100", text,
     '{"s": 12, "bound": 100, "vertices": [[13, 15, 20], [15, 20, 37]], "edges": [[0, 1, 0]], "frontier": []}'),
]


@pytest.mark.parametrize("line, pick, want", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_golden(capsys, line, pick, want):
    argv = [WORD if a == "WORD" else str(10 ** int(a[4:])) if a.startswith("10**") else a for a in line.split()]
    try:
        code = run(argv)
    except SystemExit as exc:  # a usage error
        code = exc.code
    out = capsys.readouterr().out
    assert code == (want if pick is STATUS else 0)
    if callable(want):
        with unlimited_digits():  # the oracles print numbers past the int/str digit limit
            want = pick(want())
    assert pick is STATUS or pick(out) == want
