import itertools
import json
import os
import subprocess
import sys

import pytest

from cayleycubic import (
    Triple,
    continuant,
    continuant_drop_last,
    continuant_interior,
    family_one_instance,
    family_triple,
    family_two_instance,
    is_base,
    is_singular,
    pell_family_one_members,
    pell_family_two,
    pell_oracle,
    PellInstance,
    reduction_trace,
    solution_graph,
)
from cayleycubic.cli import CORRECTION_NOTES, run
from conftest import HAS_DIGIT_LIMIT, unlimited_digits


def test_verify_solution(capsys):
    code = run(["verify", "--s", "3", "--triple", "21,4053,291"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out) == {
        "s": 3,
        "triple": [21, 4053, 291],
        "value": 0,
        "solution": True,
    }


def test_verify_non_solution(capsys):
    code = run(["verify", "--s", "3", "--triple", "1,2,3"])
    blob = json.loads(capsys.readouterr().out)
    assert code == 1
    assert blob["solution"] is False
    assert blob["value"] != 0


def test_verify_text_format(capsys):
    code = run(["verify", "--s", "1", "--triple", "2,7,26", "--format", "text"])
    assert code == 0
    assert capsys.readouterr().out == "value 0: solution\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("triple, value", [((21, 4053, 291), 0), ((1, 2, 3), 3)])
def test_verify_evaluates_the_cubic_once(capsys, monkeypatch, fmt, triple, value):
    reads = []
    real = Triple.value.fget
    monkeypatch.setattr(Triple, "value", property(lambda t: reads.append(t) or real(t)))
    code = run(["verify", "--s", "3", "--triple", ",".join(map(str, triple)), "--format", fmt])
    assert code == (0 if value == 0 else 1)
    assert reads == [Triple(3, *triple)]
    verdict = "solution" if value == 0 else "not a solution"
    blob = {"s": 3, "triple": list(triple), "value": value, "solution": value == 0}
    assert capsys.readouterr().out == (json.dumps(blob) if fmt == "json" else f"value {value}: {verdict}") + "\n"


def test_verify_rejects_bad_component():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--s", "1", "--triple", "0,1,1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--s", "1", "--triple", "1,x,2"], "triple must be comma-separated integers, got '1,x,2'"),
        (["continuant", "--word", "1,x"], "word must be comma-separated integers, got '1,x'"),
    ],
)
def test_cli_rejects_non_integer_lists(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_family_text_and_note(capsys):
    code = run(["family", "--s", "3", "--b", "6", "--n", "2", "--m", "4"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "21,4053,291\n"
    assert "first-kind seeds" in captured.err


def test_family_note_suppression(capsys):
    code = run(["--no-note-corrections", "family", "--s", "3", "--b", "6", "--n", "2", "--m", "4"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""


def test_family_json(capsys):
    run(["family", "--s", "1", "--b", "2", "--n", "1", "--m", "2", "--format", "json"])
    blob = json.loads(capsys.readouterr().out)
    assert blob == {"s": 1, "b": 2, "n": 1, "m": 2, "triple": [2, 26, 7], "value": 0}


def test_family_prints_components_past_the_digit_limit(capsys):
    argv = ["family", "--s", "3", "--b", "6", "--n", "8000", "--m", "1"]
    assert run(argv) == 0
    text = capsys.readouterr().out
    assert run(argv + ["--format", "json"]) == 0
    blob = capsys.readouterr().out
    t = family_triple(3, 6, 8000, 1)
    with unlimited_digits():
        assert len(str(t.a)) == 4576
        assert text == "{},{},{}\n".format(*t.components)
        assert json.loads(blob)["triple"] == list(t.components)


def test_family_budget_refuses_before_any_term(capsys, monkeypatch):
    from cayleycubic import triples

    def no_terms(*args):
        raise AssertionError("a refused family must not compute a term")

    argv = ["family", "--s", "3", "--b", "6", "--n", "1000000000", "--m", "1"]
    with monkeypatch.context() as m:
        m.setattr(triples, "_terms", no_terms)
        for fmt in ("text", "json"):
            assert run(argv + ["--budget", "1000000", "--format", fmt]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error: family needs up to 606763595 digits per value, budget is 1000000" in captured.err
        monkeypatch.setenv("CAYLEY_BUDGET", "1000000")
        assert run(argv) == 1
        assert capsys.readouterr().out == ""
    # X_8001 has 4576 digits; the plan bounds it by 4856
    argv = ["family", "--s", "3", "--b", "6", "--n", "8000", "--m", "1"]
    assert run(argv + ["--budget", "4855"]) == 1
    assert "needs up to 4856 digits per value, budget is 4855" in capsys.readouterr().err
    monkeypatch.setenv("CAYLEY_BUDGET", "4856")
    assert run(argv) == 0
    t = family_triple(3, 6, 8000, 1)
    with unlimited_digits():
        assert capsys.readouterr().out == "{},{},{}\n".format(*t.components)


def test_family_on_a_periodic_base_names_the_chain_value(capsys):
    # 2b/s = 1: the chain 4, 2, -2, -4, -2, 2, 4, ... goes negative; the refusal names X_3, not a Triple field
    with pytest.raises(SystemExit) as exc:
        run(["family", "--s", "4", "--b", "2", "--n", "3", "--m", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: chain value X_3 = -4 of base (4, 2) is not positive\n" in captured.err


def test_reduce_accepts_components_past_the_digit_limit(capsys):
    t = family_triple(3, 6, 8000, 4000)
    with unlimited_digits():
        arg = "{},{},{}".format(*t.components)
        payload, text = reduce_forms(3, t.components)
    assert len(arg) > 3 * 4300
    assert run(["reduce", "--s", "3", "--triple", arg, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out == text + "\n"
    assert out.endswith("\n3,{0},{0}\n".format(family_triple(3, 6, 4000, 0).a))
    assert run(["reduce", "--s", "3", "--triple", arg, "--format", "json"]) == 0
    with unlimited_digits():
        assert capsys.readouterr().out == json.dumps(payload) + "\n"


# Reference forms of each command: json.dumps of the payload built from library
# values, and the joined text lines. The CLI prints exactly the one --format selects.


def verify_forms(s, triple):
    t = Triple(s, *triple)
    payload = {"s": s, "triple": list(triple), "value": t.value, "solution": t.is_solution}
    return payload, f"value {t.value}: {'solution' if t.is_solution else 'not a solution'}"


def family_forms(s, b, n, m):
    t = family_triple(s, b, n, m)
    payload = {"s": s, "b": b, "n": n, "m": m, "triple": list(t.components), "value": t.value}
    return payload, "{},{},{}".format(*t.components)


def reduce_forms(s, triple):
    trace = reduction_trace(Triple(s, *triple))
    term = trace[-1]
    payload = {
        "s": s,
        "trace": [list(x.components) for x in trace],
        "terminal": list(term.components),
        "base": is_base(term),
        "singular": is_singular(term),
    }
    return payload, "\n".join("{},{},{}".format(*x.components) for x in trace)


def pell_forms(inst, sols, **rest):
    payload = {"d": inst.d, "rhs": inst.rhs, "form": inst.form, "solutions": [[z, a] for z, a in sols], **rest}
    return payload, "\n".join(f"{z},{a}" for z, a in sols)


def continuant_forms(word, kind, fn):
    return {"word": list(word), "kind": kind, "value": fn(word)}, str(fn(word))


LONG_CHAIN = family_triple(2, 4, 40, 39).components  # 40 reduction steps, values of ~40 digits
EMIT_CASES = [
    (["verify", "--s", "3", "--triple", "21,4053,291"], 0, lambda: verify_forms(3, (21, 4053, 291))),
    (["verify", "--s", "3", "--triple", "1,2,3"], 1, lambda: verify_forms(3, (1, 2, 3))),
    (["family", "--s", "3", "--b", "6", "--n", "2", "--m", "4"], 0, lambda: family_forms(3, 6, 2, 4)),
    (["family", "--s", "1", "--b", "2", "--n", "0", "--m", "3"], 0, lambda: family_forms(1, 2, 0, 3)),
    # a base terminal after two steps
    (["reduce", "--s", "3", "--triple", "21,4053,291"], 0, lambda: reduce_forms(3, (21, 4053, 291))),
    (["reduce", "--s", "2", "--triple", ",".join(map(str, LONG_CHAIN))], 0, lambda: reduce_forms(2, LONG_CHAIN)),
    # singular terminals, (1, 1, 1) also base, and zero steps
    (["reduce", "--s", "1", "--triple", "1,1,1"], 0, lambda: reduce_forms(1, (1, 1, 1))),
    (["reduce", "--s", "8", "--triple", "6,1,6"], 0, lambda: reduce_forms(8, (6, 1, 6))),
    # neither base nor singular, zero steps
    (["reduce", "--s", "3", "--triple", "4,11,24"], 0, lambda: reduce_forms(3, (4, 11, 24))),
    (
        ["pell-one", "--s", "3", "--y", "6", "--count", "5"],
        0,
        lambda: pell_forms(
            family_one_instance(3, 6),
            pell_family_one_members(3, 6, 5),
            provenance="chain-family-one",
            convention={"companion_index": "n-1"},
            s=3,
            y=6,
        ),
    ),
    (
        ["pell-one", "--s", "2", "--y", "4", "--count", "0"],
        0,
        lambda: pell_forms(
            family_one_instance(2, 4), [], provenance="chain-family-one", convention={"companion_index": "n-1"}, s=2, y=4
        ),
    ),
    (
        ["pell-two", "--s", "1", "--p", "4", "--n", "2", "--count", "3"],
        0,
        lambda: pell_forms(
            family_two_instance(1, 4, 2),
            [pell_family_two(1, 4, 2, m) for m in (1, 2, 3)],
            provenance="chain-family-two",
            convention={"difference_scale": "s/2"},
            s=1,
            p=4,
            n=2,
        ),
    ),
    (
        ["pell-oracle", "--d", "3", "--rhs", "1", "--bound", "30"],
        0,
        lambda: pell_forms(
            PellInstance(3, 1, "z2-da2"), pell_oracle(PellInstance(3, 1, "z2-da2"), 30), provenance="exhaustive-scan(z<=30)"
        ),
    ),
    # no solutions: the text form is empty
    (
        ["pell-oracle", "--d", "3", "--rhs", "2", "--bound", "30"],
        0,
        lambda: pell_forms(PellInstance(3, 2, "z2-da2"), [], provenance="exhaustive-scan(z<=30)"),
    ),
    (["continuant", "--word", "2,1,1,3"], 0, lambda: continuant_forms((2, 1, 1, 3), "full", continuant)),
    (
        ["continuant", "--word", "2,1,1,3", "--drop-last"],
        0,
        lambda: continuant_forms((2, 1, 1, 3), "drop-last", continuant_drop_last),
    ),
    (
        ["continuant", "--word", "2,1,1,3", "--interior"],
        0,
        lambda: continuant_forms((2, 1, 1, 3), "interior", continuant_interior),
    ),
]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv, code, forms", EMIT_CASES, ids=[" ".join(c[0])[:50] for c in EMIT_CASES])
def test_emit_prints_the_selected_form(capsys, argv, code, forms, fmt):
    payload, text = forms()
    assert run(["--no-note-corrections"] + argv + ["--format", fmt]) == code
    captured = capsys.readouterr()
    assert captured.out == (json.dumps(payload) if fmt == "json" else text) + "\n"
    assert captured.err == ""


def test_family_text_computes_no_surface_value(capsys, monkeypatch):
    def no_value(self):
        raise AssertionError("the text form prints no surface value")

    monkeypatch.setattr(Triple, "value", property(no_value))
    assert run(["family", "--s", "3", "--b", "6", "--n", "2", "--m", "4", "--format", "text"]) == 0
    assert capsys.readouterr().out == "21,4053,291\n"


@pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="Python < 3.11 has no int/str digit limit")
def test_run_restores_the_digit_limit(capsys):
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert run(["family", "--s", "3", "--b", "6", "--n", "8000", "--m", "1"]) == 0
        assert sys.get_int_max_str_digits() == 5000
        with pytest.raises(SystemExit):
            run(["verify", "--s", "1", "--triple", "1,2"])
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(previous)


def test_family_rejects_bad_multiplier():
    with pytest.raises(SystemExit) as exc:
        run(["family", "--s", "4", "--b", "3", "--n", "1", "--m", "1"])
    assert exc.value.code == 2


def test_graph_json_matches_library(capsys):
    code = run(["graph", "--s", "12", "--seed", "13,15,20", "--bound", "100"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == solution_graph(Triple(12, 13, 15, 20), 100).to_json()


def test_graph_dot(capsys):
    run(["graph", "--s", "12", "--seed", "13,15,20", "--bound", "100", "--format", "dot"])
    out = capsys.readouterr().out
    assert out.startswith("graph ")
    assert '"13,15,20" -- "15,20,37"' in out


def test_graph_rejects_non_solution_seed(capsys):
    code = run(["graph", "--s", "3", "--seed", "1,2,3", "--bound", "100"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error:" in captured.err


def test_graph_refuses_a_bound_below_the_seed_before_any_output(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["graph", "--s", "2", "--seed", "2,4,4", "--bound", "3"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "bound must cover" in captured.err


@pytest.mark.parametrize(
    "s, seed, bound",
    [
        (2, (2, 4, 4), 10**60),  # a chain seed, read in index space
        (2, (2, 4, 4), 10**100),  # 4626 vertices and 4625 edges: two chunks of each
        (7, (8, 17, 28), 10**30),  # value space
        (1, (1, 1, 1), 10),  # one vertex, no edges
    ],
    ids=["chain", "chain-two-chunks", "value-space", "one-vertex"],
)
def test_graph_streams_the_library_strings(capsys, s, seed, bound):
    g = solution_graph(Triple(s, *seed), bound)
    argv = ["graph", "--s", str(s), "--seed", ",".join(map(str, seed)), "--bound", str(bound)]
    assert run(argv) == 0
    assert capsys.readouterr().out == g.to_json() + "\n"
    assert run(argv + ["--format", "dot"]) == 0
    assert capsys.readouterr().out == g.to_dot()


@pytest.mark.parametrize(
    "s, seed, bound, count, message",
    [
        # a chain seed: the plan is the vertex count, read off a totient sieve
        (2, "2,4,4", 10**300, 41846, "graph needs 41846 vertices, budget is 41845"),
        # value space: the search stops once it has seen more vertices than the budget
        (7, "8,17,28", 10**30, 65, "graph needs more than 64 vertices, budget is 64"),
    ],
    ids=["chain", "value-space"],
)
def test_graph_budget_refuses_before_any_output(capsys, monkeypatch, s, seed, bound, count, message):
    argv = ["--no-note-corrections", "graph", "--s", str(s), "--seed", seed, "--bound", str(bound)]
    for fmt in ("json", "dot"):
        assert run(argv + ["--format", fmt, "--budget", str(count - 1)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        monkeypatch.setenv("CAYLEY_BUDGET", str(count - 1))
        assert run(argv + ["--format", fmt]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        monkeypatch.setenv("CAYLEY_BUDGET", str(count))
        assert run(argv + ["--format", fmt]) == 0
        want = solution_graph(Triple(s, *map(int, seed.split(","))), bound)
        assert capsys.readouterr().out == (want.to_dot() if fmt == "dot" else want.to_json() + "\n")
        monkeypatch.delenv("CAYLEY_BUDGET")


def test_graph_reader_closing_mid_output_exits_1_quietly():
    # the graph streams in chunks, so the pipe can break after the first bytes went out
    proc = subprocess.Popen(
        [sys.executable, "-m", "cayleycubic", "--no-note-corrections", "graph", "--s", "1", "--seed", "1,2,2"]
        + ["--bound", str(10**100), "--format", "dot"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        head = proc.stdout.read(80)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 1
    assert head.startswith(b'graph cayley {\n  "1,2,2";\n')
    assert err == b""


def test_reduce_builds_no_triple_per_step(capsys, monkeypatch):
    # the descent runs on int rows: a Triple for the input and one for the terminal's flags
    want, built = [Triple(2, *LONG_CHAIN), Triple(2, 2, 4, 4)], []
    post_init = Triple.__post_init__
    monkeypatch.setattr(Triple, "__post_init__", lambda t: built.append(t) or post_init(t))
    for fmt in ("json", "text"):
        assert run(["reduce", "--s", "2", "--triple", ",".join(map(str, LONG_CHAIN)), "--format", fmt]) == 0
        assert len(capsys.readouterr().out.splitlines()) == (1 if fmt == "json" else 41)
        assert built == want
        built.clear()


def test_reduce_json(capsys):
    code = run(["reduce", "--s", "3", "--triple", "21,4053,291"])
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob == {
        "s": 3,
        "trace": [[21, 291, 4053], [21, 21, 291], [3, 21, 21]],
        "terminal": [3, 21, 21],
        "base": True,
        "singular": False,
    }


def test_reduce_text(capsys):
    run(["reduce", "--s", "1", "--triple", "2,26,7", "--format", "text"])
    assert capsys.readouterr().out == "2,7,26\n2,2,7\n1,2,2\n"


def test_pell_one_payload(capsys):
    code = run(["pell-one", "--s", "1", "--y", "2", "--count", "6"])
    captured = capsys.readouterr()
    blob = json.loads(captured.out)
    assert code == 0
    assert blob == {
        "d": 3,
        "rhs": 1,
        "form": "z2-da2",
        "solutions": [[2, 1], [7, 4], [26, 15], [97, 56], [362, 209], [1351, 780]],
        "provenance": "chain-family-one",
        "convention": {"companion_index": "n-1"},
        "s": 1,
        "y": 2,
    }
    assert "index" in captured.err  # companion-index note


def test_pell_one_text(capsys):
    run(["pell-one", "--s", "3", "--y", "6", "--count", "3", "--format", "text"])
    assert capsys.readouterr().out == "6,1\n21,4\n78,15\n"


@pytest.mark.parametrize("count", ["0", "-1", "1"])
def test_pell_one_checks_the_base_for_any_count(count, capsys):
    # 3 does not divide 2*4: refused even when no member is asked for
    with pytest.raises(SystemExit) as exc:
        run(["pell-one", "--s", "3", "--y", "4", "--count", count])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "does not divide" in captured.err


def test_pell_one_count_zero_on_a_valid_base(capsys):
    code = run(["pell-one", "--s", "2", "--y", "4", "--count", "0", "--format", "text"])
    assert code == 0
    assert capsys.readouterr().out == "\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_pell_one_builds_one_instance(capsys, monkeypatch, fmt):
    # the members are checked against the instance the command prints: it is built once
    built = []
    post_init = PellInstance.__post_init__
    monkeypatch.setattr(PellInstance, "__post_init__", lambda inst: built.append(inst) or post_init(inst))
    assert run(["pell-one", "--s", "3", "--y", "6", "--count", "3", "--format", fmt]) == 0
    assert "78" in capsys.readouterr().out
    assert [(inst.d, inst.rhs) for inst in built] == [(27, 9)]


def test_pell_two_payload(capsys):
    code = run(["pell-two", "--s", "1", "--p", "4", "--n", "2", "--count", "3"])
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob == {
        "d": 960,
        "rhs": -960,
        "form": "a2-dz2",
        "solutions": [[4, 120], [31, 960], [244, 7560]],
        "provenance": "chain-family-two",
        "convention": {"difference_scale": "s/2"},
        "s": 1,
        "p": 4,
        "n": 2,
    }


@pytest.mark.parametrize("count", ["0", "-2"])
def test_pell_two_count_below_one_prints_the_instance(count, capsys):
    # no member asked for: the instance alone, read in one _terms call over no indices
    code = run(["pell-two", "--s", "1", "--p", "4", "--n", "2", "--count", count])
    assert code == 0
    assert capsys.readouterr().out == (
        '{"d": 960, "rhs": -960, "form": "a2-dz2", "solutions": [], "provenance": "chain-family-two", '
        '"convention": {"difference_scale": "s/2"}, "s": 1, "p": 4, "n": 2}\n'
    )
    assert run(["pell-two", "--s", "1", "--p", "4", "--n", "2", "--count", count, "--format", "text"]) == 0
    assert capsys.readouterr().out == "\n"


def test_pell_two_refuses_a_count_past_maxsize_before_any_term(capsys, monkeypatch):
    # the members' indices would be expanded into one _terms call that never returns
    from cayleycubic import pell

    monkeypatch.setattr(pell, "_terms", lambda *args: 1 // 0)
    with pytest.raises(SystemExit) as exc:
        run(["pell-two", "--s", "1", "--p", "4", "--n", "2", "--count", str(10**20)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith(f"error: count must be at most {sys.maxsize}, got {10**20}\n")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_pell_two_builds_one_instance_and_climbs_x_n_once(capsys, monkeypatch, fmt):
    # all members share the instance of X_n: it is built, and X_n climbed in the one _terms call
    # beside the members' indices, once per command, with one check of the base
    from cayleycubic import pell, sequences

    counts = {"instances": 0, "_terms": 0, "family_multiplier": 0}
    post_init = PellInstance.__post_init__

    def counted_post_init(self):
        counts["instances"] += 1
        post_init(self)

    def counted(name):
        real = getattr(sequences, name)

        def call(*args):
            counts[name] += 1
            return real(*args)

        return call

    monkeypatch.setattr(PellInstance, "__post_init__", counted_post_init)
    # pell imports both by name; the sequences functions it may call look them up in sequences
    for name in ("_terms", "family_multiplier"):
        for module in (pell, sequences):
            monkeypatch.setattr(module, name, counted(name))
    assert run(["pell-two", "--s", "1", "--p", "4", "--n", "2", "--count", "3", "--format", fmt]) == 0
    assert "244" in capsys.readouterr().out
    assert counts == {"instances": 1, "_terms": 1, "family_multiplier": 1}


def test_pell_oracle_payload(capsys):
    code = run(["pell-oracle", "--d", "3", "--rhs", "1", "--bound", "30"])
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob == {
        "d": 3,
        "rhs": 1,
        "form": "z2-da2",
        "solutions": [[2, 1], [7, 4], [26, 15]],
        "provenance": "exhaustive-scan(z<=30)",
    }


def test_pell_oracle_include_zero(capsys):
    run(["pell-oracle", "--d", "3", "--rhs", "1", "--bound", "5", "--include-zero"])
    blob = json.loads(capsys.readouterr().out)
    assert blob["solutions"] == [[1, 0], [2, 1]]


def test_pell_oracle_budget(capsys, monkeypatch):
    # d = 3, rhs = 1: the seeds X = 0, 1 below the unit 2 + sqrt(3) are the plan
    argv = ["pell-oracle", "--d", "3", "--rhs", "1", "--bound", "30"]
    assert run(argv + ["--budget", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs 2 scanned values, budget is 1" in captured.err
    assert run(argv + ["--budget", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["solutions"] == [[2, 1], [7, 4], [26, 15]]
    monkeypatch.setenv("CAYLEY_BUDGET", "1")
    assert run(argv) == 1
    assert "budget" in capsys.readouterr().err
    monkeypatch.setenv("CAYLEY_BUDGET", "2")
    assert run(argv) == 0


def test_pell_oracle_rejects_square_d():
    with pytest.raises(SystemExit) as exc:
        run(["pell-oracle", "--d", "4", "--rhs", "1", "--bound", "10"])
    assert exc.value.code == 2


def test_search_csv(capsys):
    code = run(["search", "--s", "5", "--bound", "10", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s,a,b,c"
    assert lines[1] == "5,1,1,5"
    assert lines[-1] == "5,5,10,10"
    assert "5,5,9,9" in lines


def test_search_jsonl(capsys):
    run(["search", "--s", "5", "--bound", "10"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert json.loads(lines[0]) == {"s": 5, "triple": [1, 1, 5]}
    assert json.loads(lines[-1]) == {"s": 5, "triple": [5, 10, 10]}


def test_pell_oracle_refuses_its_trial_divisions_up_front(capsys):
    # d = 10^14 + 31: the factoring of d alone would take 10^7 - 1 trial divisions
    d = str(10**14 + 31)
    assert run(["pell-oracle", "--d", d, "--rhs", "1", "--bound", d, "--budget", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pell-oracle needs up to 9999999 trial divisions, budget is 1\n"


def test_search_budget_flag(capsys):
    code = run(["search", "--s", "1", "--bound", "100", "--budget", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert "budget" in captured.err


def test_failed_result_check_exits_1(capsys, monkeypatch):
    from cayleycubic import pell

    # a companion of zeros: the first member (2, 0) already fails z^2 - 3a^2 = 1
    monkeypatch.setattr(pell, "_recurrence", lambda *args: itertools.repeat(0))
    code = run(["pell-one", "--s", "1", "--y", "2", "--count", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: chain solution")


def test_interrupt_exits_1(capsys, monkeypatch):
    from cayleycubic import search

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    # the enumeration kernel of s = 1 under both enumerate_solutions and the CLI's row chunks
    monkeypatch.setattr(search, "_chain_rows", interrupted)
    code = run(["search", "--s", "1", "--bound", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: interrupted\n"
    # any other error propagates
    monkeypatch.setattr(search, "_chain_rows", lambda *args, **kwargs: 1 // 0)
    with pytest.raises(ZeroDivisionError):
        run(["search", "--s", "1", "--bound", "10"])


def test_broken_pipe_exits_1_quietly():
    # a reader that closes the pipe early, as `| head` does, gets no traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cayleycubic", "markov-tree", "--depth", "5"],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--s", "24", "--bound", "300"],
    ],
)
def test_workers_flag_is_ignored(capsys, argv):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert run(argv + ["--workers", "2"]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--s", "12", "--bound", "200", "--format", "csv"],
        ["pell-oracle", "--d", "61", "--rhs", "36", "--bound", "2000"],
    ],
)
def test_workers_flag_is_refused_outside_search(capsys, argv):
    assert run(argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--workers", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --workers 2" in captured.err


def test_search_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("CAYLEY_BUDGET", "10")
    code = run(["search", "--s", "1", "--bound", "100"])
    assert code == 1
    captured = capsys.readouterr()
    assert "budget" in captured.err
    monkeypatch.setenv("CAYLEY_BUDGET", "5050")
    code = run(["search", "--s", "1", "--bound", "100"])
    assert code == 0


def test_search_budget_env_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("CAYLEY_BUDGET", "abc")
    with pytest.raises(SystemExit) as exc:
        run(["search", "--s", "1", "--bound", "100"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: CAYLEY_BUDGET must be an integer, got 'abc'\n"


def test_classify_csv_header(capsys):
    run(["classify", "--s", "12", "--bound", "40", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "s,a,b,c,tags,conj_a,conj_b,conj_c"
    assert any(line.startswith("12,13,15,20,") for line in lines)


def test_classify_jsonl_fields(capsys):
    run(["classify", "--s", "24", "--bound", "80"])
    lines = capsys.readouterr().out.splitlines()
    rows = [json.loads(line) for line in lines]
    iso = [r for r in rows if r["triple"] == [26, 51, 74]]
    assert iso == [
        {
            "s": 24,
            "triple": [26, 51, 74],
            "tags": ["isolated"],
            "family": None,
            "component": 84,
            "conjugates": ["577/2", "328/3", "73/2"],
        }
    ]


def test_markov_tree_json(capsys):
    code = run(["markov-tree", "--depth", "2"])
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob == {"depth": 2, "triples": [[1, 1, 1], [1, 1, 2], [1, 2, 5]]}


def test_markov_tree_dot(capsys):
    run(["markov-tree", "--depth", "2", "--format", "dot"])
    out = capsys.readouterr().out
    assert out.startswith("digraph ")
    assert '"1,1,2" -> "1,2,5";' in out


def test_markov_tree_budget_flag(capsys):
    for fmt in ("json", "dot"):
        code = run(["markov-tree", "--depth", "5", "--budget", "16", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "budget" in captured.err
    code = run(["markov-tree", "--depth", "5", "--budget", "17"])
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["triples"]) == 17


def test_markov_tree_budget_env(capsys, monkeypatch):
    from cayleycubic import markov

    def no_moves(*args):
        raise AssertionError("a refused tree must not make a move")

    monkeypatch.setenv("CAYLEY_BUDGET", "8")
    with monkeypatch.context() as m:
        m.setattr(markov, "_flip", no_moves)
        for depth in ("5", "64"):
            code = run(["markov-tree", "--depth", depth, "--format", "dot"])
            assert code == 1
            assert "budget" in capsys.readouterr().err
    monkeypatch.setenv("CAYLEY_BUDGET", "9")
    assert run(["markov-tree", "--depth", "4"]) == 0


@pytest.mark.parametrize("depth", range(17))
def test_markov_tree_streams_the_library_strings(capsys, depth):
    from cayleycubic.markov import markov_tree_dot, markov_tree_json

    assert run(["markov-tree", "--depth", str(depth)]) == 0
    assert capsys.readouterr().out == markov_tree_json(depth) + "\n"
    assert run(["markov-tree", "--depth", str(depth), "--format", "dot"]) == 0
    assert capsys.readouterr().out == markov_tree_dot(depth)


def test_markov_tree_failed_check_writes_nothing(capsys, monkeypatch):
    from cayleycubic import markov

    flip = markov._flip

    def off_flip(t, i):
        # (2, 5, 29) at 1 leads to (2, 29, 169); make it 170
        return 170 if (t, i) == ((2, 5, 29), 1) else flip(t, i)

    monkeypatch.setattr(markov, "_flip", off_flip)
    for fmt in ("json", "dot"):
        code = run(["markov-tree", "--depth", "4", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "non-solution" in captured.err


def test_markov_tree_reader_closing_mid_output_exits_1_quietly():
    # the tree streams in chunks, so the pipe can break after the first bytes went out
    proc = subprocess.Popen(
        [sys.executable, "-m", "cayleycubic", "markov-tree", "--depth", "16", "--format", "dot"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        head = proc.stdout.read(80)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 1
    assert head.startswith(b'digraph markov {\n  "1,1,1";\n')
    assert err == b""


def test_continuant_kinds(capsys):
    run(["continuant", "--word", "2,1,1"])
    assert json.loads(capsys.readouterr().out) == {"word": [2, 1, 1], "kind": "full", "value": 5}
    run(["continuant", "--word", "2,1,1", "--drop-last"])
    assert json.loads(capsys.readouterr().out)["value"] == 3
    run(["continuant", "--word", "2,1,1", "--interior"])
    assert json.loads(capsys.readouterr().out)["value"] == 1
    run(["continuant", "--word", "", "--format", "text"])
    assert capsys.readouterr().out == "1\n"


def test_continuant_kind_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["continuant", "--word", "2,1,1,3", "--drop-last", "--interior"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--interior: not allowed with argument --drop-last" in captured.err


def test_continuant_empty_word_drop_last_fails():
    with pytest.raises(SystemExit) as exc:
        run(["continuant", "--word", "", "--drop-last"])
    assert exc.value.code == 2


def test_r_match_report(capsys):
    code = run(["r-match", "--max-entry", "2", "--max-block", "2", "--terms", "4"])
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob == {
        "bounds": {"max_entry": 2, "max_block_len": 2, "max_terms": 4},
        "matches_s_ge_2": [],
        "s1_coincidences": [],
    }


def test_r_match_budget(capsys, monkeypatch):
    # max entry 2, blocks up to 2: 4 alphas times 6 betas = 24 pair tests
    argv = ["r-match", "--max-entry", "2", "--max-block", "2", "--terms", "3"]
    assert run(argv + ["--budget", "23"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs 24 pair tests, budget is 23" in captured.err
    assert run(argv + ["--budget", "24"]) == 0
    assert json.loads(capsys.readouterr().out)["matches_s_ge_2"] == []
    monkeypatch.setenv("CAYLEY_BUDGET", "23")
    assert run(argv) == 1
    assert "budget" in capsys.readouterr().err
    monkeypatch.setenv("CAYLEY_BUDGET", "24")
    assert run(argv) == 0


# one short line per subcommand, with the convention notes it prints on stderr, in order
NOTE_CASES = [
    (["verify", "--s", "1", "--triple", "1,1,1"], ()),
    (["family", "--s", "3", "--b", "6", "--n", "2", "--m", "4"], ("chebyshev",)),
    (["graph", "--s", "2", "--seed", "2,4,4", "--bound", "1000"], ("chebyshev",)),
    (["reduce", "--s", "1", "--triple", "2,26,7"], ()),
    (["pell-one", "--s", "1", "--y", "2", "--count", "2"], ("chebyshev", "pell-one-index")),
    (["pell-two", "--s", "1", "--p", "4", "--n", "2", "--count", "2"], ("chebyshev", "pell-two-scale")),
    (["pell-oracle", "--d", "3", "--rhs", "1", "--bound", "30"], ()),
    (["search", "--s", "1", "--bound", "5"], ()),
    (["classify", "--s", "1", "--bound", "5"], ()),
    (["markov-tree", "--depth", "2"], ()),
    (["continuant", "--word", "2,1,1"], ()),
    (["r-match", "--max-entry", "2", "--max-block", "2", "--terms", "3"], ()),
]


@pytest.mark.parametrize("corrections", [True, False], ids=["notes", "no-notes"])
@pytest.mark.parametrize("argv, keys", NOTE_CASES, ids=[c[0][0] for c in NOTE_CASES])
def test_notes_on_stderr(capsys, argv, keys, corrections):
    flag = [] if corrections else ["--no-note-corrections"]
    assert run(flag + argv) == 0
    want = "".join(CORRECTION_NOTES[key] + "\n" for key in keys) if corrections else ""
    assert capsys.readouterr().err == want


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--s", "1", "--triple", "1,2"])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cayleycubic", "verify", "--s", "1", "--triple", "1,1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["solution"] is True


# run one after another against one parser: a default that leaked from one call
# into the next would show as a difference from a run on a freshly built parser
PARSER_REUSE_SEQUENCE = [
    ["family", "--s", "3", "--b", "6", "--n", "2", "--m", "4"],
    ["--no-note-corrections", "family", "--s", "3", "--b", "6", "--n", "2", "--m", "4"],
    ["continuant", "--word", "2,1,1,3", "--interior"],
    ["continuant", "--word", "2,1,1,3"],
    ["continuant", "--word", "2,1,1,3", "--drop-last", "--interior"],
    ["verify", "--s", "3", "--triple", "21,4053,291"],
]


def _outcome(capsys, argv):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_leaks_no_default(capsys):
    from cayleycubic import cli

    cli._parser.cache_clear()
    shared = [_outcome(capsys, argv) for argv in PARSER_REUSE_SEQUENCE]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in PARSER_REUSE_SEQUENCE:
        cli._parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert shared == fresh
    codes = [code for code, _, _ in shared]
    assert codes == [0, 0, 0, 0, 2, 0]
    assert shared[0][2] == CORRECTION_NOTES["chebyshev"] + "\n" and shared[1][2] == ""
    assert [json.loads(out)["kind"] for _, out, _ in shared[2:4]] == ["interior", "full"]
