"""Each output check accepts the program's real output and rejects the same
output corrupted in one place.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from cayleycubic import cli  # noqa: E402


def run_cli(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run([str(a) for a in argv])
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def output(argv: list) -> str:
    rc, out, err = run_cli(argv)
    assert rc == 0, err
    return out


def rejects(name: str, out: str, /, **params) -> None:
    with pytest.raises(checks.CheckFailed):
        checks.check(name, out, params)


def edit_json(out: str, fn) -> str:
    doc = json.loads(out)
    fn(doc)
    return json.dumps(doc)


def edit_lines(out: str, index: int, fn) -> str:
    lines = out.splitlines()
    lines[index] = fn(lines[index])
    return "\n".join(lines) + "\n"


def test_verify():
    out = output(["verify", "--s", 3, "--triple", "3,7,7"])
    checks.check("verify", out, {"s": 3, "triple": [3, 7, 7]})
    rejects("verify", out.replace('"value": 0', '"value": 1'), s=3, triple=[3, 7, 7])


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_search(fmt):
    params = {"s": 6, "bound": 300, "fmt": fmt}
    out = output(["search", "--s", 6, "--bound", 300, "--format", fmt])
    checks.check("search", out, params)
    lines = out.splitlines(keepends=True)
    first = 1 if fmt == "csv" else 0
    # one row dropped (the move closure or the brute-force restriction notices)
    for i in (first, len(lines) // 2, len(lines) - 1):
        rejects("search", "".join(lines[:i] + lines[i + 1 :]), **params)
    # one component off by one
    if fmt == "csv":
        bad = edit_lines(out, 5, lambda line: line[: line.rindex(",") + 1] + str(int(line.split(",")[-1]) + 1))
    else:
        bad = edit_lines(out, 5, lambda line: edit_json(line, lambda d: d["triple"].__setitem__(2, d["triple"][2] + 1)))
    rejects("search", bad, **params)


def test_classify_jsonl():
    params = {"s": 2, "bound": 200, "fmt": "jsonl"}
    out = output(["classify", "--s", 2, "--bound", 200])
    checks.check("classify", out, params)
    rows = [json.loads(line) for line in out.splitlines()]
    tagged = next(i for i, r in enumerate(rows) if "r-family" in r["tags"] and r["family"][1] > 0)
    frontier = next(i for i, r in enumerate(rows) if "frontier-limited" in r["tags"])

    def bad(i, fn):
        return edit_lines(out, i, lambda line: edit_json(line, fn))

    rejects("classify", bad(tagged, lambda d: d["tags"].remove("r-family")), **params)
    rejects("classify", bad(frontier, lambda d: d["tags"].remove("frontier-limited")), **params)
    rejects("classify", bad(tagged, lambda d: d["family"].__setitem__(1, d["family"][1] + 1)), **params)
    rejects("classify", bad(tagged, lambda d: d.__setitem__("family", None)), **params)
    rejects("classify", bad(tagged, lambda d: d["conjugates"].__setitem__(0, "1/3")), **params)
    rejects("classify", bad(len(rows) - 1, lambda d: d.__setitem__("component", 0)), **params)


def test_classify_csv():
    params = {"s": 12, "bound": 150, "fmt": "csv"}
    out = output(["classify", "--s", 12, "--bound", 150, "--format", "csv"])
    checks.check("classify", out, params)
    rejects("classify", out.replace("base|", "", 1), **params)


def test_pell_oracle():
    s, y, bound = 2, 4, 100000
    d, rhs = y * y - s * s, s * s
    params = {"d": d, "rhs": rhs, "form": "z2-da2", "bound": bound, "chain": checks.family_one_solutions(s, y, 20), "seed": 5}
    out = output(["pell-oracle", "--d", d, "--rhs", rhs, "--bound", bound])
    checks.check("pell-oracle", out, params)
    rejects("pell-oracle", edit_json(out, lambda doc: doc["solutions"][1].__setitem__(1, doc["solutions"][1][1] + 1)), **params)
    rejects("pell-oracle", edit_json(out, lambda doc: doc["solutions"].pop(2)), **params)


def test_pell_oracle_sampled_completeness():
    # a missing solution that no chain predicts is found by the z sample
    d, rhs, bound = 7, 2, 60
    params = {"d": d, "rhs": rhs, "form": "z2-da2", "bound": bound, "chain": [], "seed": 1}
    out = output(["pell-oracle", "--d", d, "--rhs", rhs, "--bound", bound])
    checks.check("pell-oracle", out, params)
    rejects("pell-oracle", edit_json(out, lambda doc: doc["solutions"].pop(0)), **params)


def test_pell_one_and_two():
    out = output(["pell-one", "--s", 3, "--y", 9, "--count", 30])
    checks.check("pell-one", out, {"s": 3, "y": 9, "count": 30})
    rejects("pell-one", edit_json(out, lambda doc: doc["solutions"][7].__setitem__(0, doc["solutions"][7][0] + 1)), s=3, y=9, count=30)
    rejects("pell-one", edit_json(out, lambda doc: doc["solutions"].pop()), s=3, y=9, count=30)
    params = {"s": 2, "p": 4, "n": 40, "count": 3}
    out = output(["pell-two", "--s", 2, "--p", 4, "--n", 40])
    checks.check("pell-two", out, params)
    rejects("pell-two", edit_json(out, lambda doc: doc["solutions"][1].__setitem__(1, doc["solutions"][1][1] - 2)), **params)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_family(fmt):
    params = {"s": 2, "b": 6, "n": 40, "m": 17, "fmt": fmt}
    out = output(["family", "--s", 2, "--b", 6, "--n", 40, "--m", 17, "--format", fmt])
    checks.check("family", out, params)
    if fmt == "text":
        a, b, c = out.strip().split(",")
        bad = f"{a},{int(b) + 1},{c}\n"
    else:
        bad = edit_json(out, lambda doc: doc["triple"].__setitem__(0, doc["triple"][0] + 1))
    rejects("family", bad, **params)


def test_family_past_the_digit_limit():
    # the check handles the >4300-digit triple the CLI cannot print today,
    # and leaves the interpreter's limit as it found it
    limit = sys.get_int_max_str_digits()
    op = workloads.DIGIT_LIMIT_OP
    rc, _, err = run_cli(op["argv"])
    assert rc == 2 and "Exceeds the limit" in err
    p = op["params"]
    with checks.unlimited_int_digits():
        text = ",".join(str(checks.chain_value(p["s"], p["b"], k)) for k in (p["n"], p["n"] + p["m"], p["m"]))
    checks.check("family", text, p)
    rejects("family", text[:-1] + str((int(text[-1]) + 1) % 10), **p)
    assert sys.get_int_max_str_digits() == limit


def test_reduce():
    s, b, n, m = 2, 4, 30, 29
    triple = ",".join(str(checks.chain_value(s, b, k)) for k in (n, n + m, m))
    params = {"s": s, "b": b, "n": n, "m": m}
    out = output(["reduce", "--s", s, "--triple", triple])
    checks.check("reduce", out, params)
    rejects("reduce", edit_json(out, lambda doc: doc["trace"].pop(3)), **params)
    rejects("reduce", edit_json(out, lambda doc: doc.__setitem__("base", False)), **params)
    rejects("reduce", edit_json(out, lambda doc: doc["trace"][2].__setitem__(0, doc["trace"][2][0] + 1)), **params)


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_graph(fmt):
    seed = [checks.chain_value(1, 3, k) for k in (4, 9, 5)]
    bound = 10**12
    params = {"s": 1, "seed": seed, "bound": bound, "fmt": fmt}
    out = output(["graph", "--s", 1, "--seed", ",".join(map(str, seed)), "--bound", bound, "--format", fmt])
    checks.check("graph", out, params)
    if fmt == "json":
        rejects("graph", edit_json(out, lambda doc: doc["edges"].pop(4)), **params)
        rejects("graph", edit_json(out, lambda doc: doc["frontier"].pop()), **params)
        rejects("graph", edit_json(out, lambda doc: doc["edges"][2].__setitem__(2, (doc["edges"][2][2] + 1) % 3)), **params)
    else:
        rejects("graph", out.replace(" [peripheries=2]", "", 1), **params)
        rejects("graph", out.replace('[label="a"]', '[label="b"]', 1), **params)


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_markov_tree(fmt):
    argv = ["markov-tree", "--depth", 7] + (["--format", "dot"] if fmt == "dot" else [])
    out = output(argv)
    checks.check("markov-tree", out, {"depth": 7, "fmt": fmt})
    if fmt == "json":
        rejects("markov-tree", edit_json(out, lambda doc: doc["triples"].pop(10)), depth=7, fmt=fmt)
        rejects("markov-tree", edit_json(out, lambda doc: doc["triples"][10].__setitem__(2, doc["triples"][10][2] + 1)), depth=7, fmt=fmt)
    else:
        lines = out.splitlines()
        edge = next(i for i, line in enumerate(lines) if " -> " in line)
        rejects("markov-tree", "\n".join(lines[:edge] + lines[edge + 1 :]) + "\n", depth=7, fmt=fmt)


def test_r_match():
    params = {"max_entry": 2, "max_block": 4, "terms": 5, "seed": 3}
    out = output(["r-match", "--max-entry", 2, "--max-block", 4, "--terms", 5])
    checks.check("r-match", out, params)
    fake = {"alpha": [1, 2], "beta": [2], "s": 2, "b": 5, "terms": [2, 5, 8, 11, 14]}
    rejects("r-match", edit_json(out, lambda d: d["matches_s_ge_2"].append(fake)), **params)
    terms = checks.power_sequence([1, 1], [1], 5)
    listed = {"alpha": [1, 1], "beta": [1], "s": terms[0], "b": terms[1], "terms": terms}
    rejects("r-match", edit_json(out, lambda d: d["s1_coincidences"].append(listed)), **params)
    rejects("r-match", edit_json(out, lambda d: d["bounds"].__setitem__("max_terms", 6)), **params)


@pytest.mark.parametrize("kind,flag,fmt", [("full", None, "json"), ("drop-last", "--drop-last", "text"), ("interior", "--interior", "json")])
def test_continuant(kind, flag, fmt):
    word = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
    argv = ["continuant", "--word", ",".join(map(str, word)), "--format", fmt] + ([flag] if flag else [])
    out = output(argv)
    checks.check("continuant", out, {"word": word, "kind": kind, "fmt": fmt})
    bad = str(int(out) + 1) if fmt == "text" else edit_json(out, lambda d: d.__setitem__("value", d["value"] + 1))
    rejects("continuant", bad, word=word, kind=kind, fmt=fmt)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workloads_are_seeded(name):
    a, b = workloads.build(name, 1), workloads.build(name, 2)
    assert a == workloads.build(name, 1)
    assert a != b
    assert [op["argv"][0] for op in a] == [op["argv"][0] for op in b]
