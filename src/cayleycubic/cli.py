"""Command-line front end.

Every number is printed in full decimal (no scientific notation, no
truncation); exact rationals print as "num/den".  Exit codes: 0 on success,
1 when a verification fails, a run is aborted or the reader closes stdout
early, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import markov as mk
from . import pell as pl
from . import search as sr
from . import triples as tr
from .errors import BudgetExceededError, CayleyError, InvariantError, NotASolutionError

CORRECTION_NOTES = {
    "chebyshev": (
        "note: Chebyshev values use first-kind seeds (1, x); the Lucas-form "
        "alias U_{n+1}(2x, 1) yields second-kind seeds (1, 2x) and breaks the "
        "product and composition identities the solution chains rely on."
    ),
    "pell-one-index": (
        "note: the second solution member is the companion value at index "
        "n - 1; taking it at index n fails z^2 - d*a^2 = s^2 for n >= 2."
    ),
    "pell-two-scale": (
        "note: the chain difference is scaled by s/2; without that factor "
        "a^2 - d*z^2 = -s^2*d fails for every s != 2."
    ),
}

def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be comma-separated integers, got {text!r}")


def _triple_arg(text: str) -> tuple[int, int, int]:
    vals = _parse_ints(text, "triple")
    if len(vals) != 3:
        raise argparse.ArgumentTypeError(f"triple needs exactly three components, got {text!r}")
    return vals


def _word_arg(text: str) -> tuple[int, ...]:
    if text == "":
        return ()
    return _parse_ints(text, "word")


def _emit(args, as_json, as_text) -> None:
    """Print the one form --format selects; each form is a zero-argument callable returning a str."""
    print(as_json() if args.format == "json" else as_text())


def _stream(args, chunks) -> None:
    """Write an output's chunks as they come; a JSON document ends with a newline."""
    sys.stdout.writelines(chunks)
    if args.format == "json":
        sys.stdout.write("\n")


def _emit_pell(args, inst, sols, provenance, **params) -> None:
    payload = {"d": inst.d, "rhs": inst.rhs, "form": inst.form, "solutions": sols, "provenance": provenance, **params}
    _emit(args, lambda: json.dumps(payload), lambda: "\n".join(f"{z},{a}" for z, a in sols))


def _budget(args) -> int | None:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("CAYLEY_BUDGET")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"CAYLEY_BUDGET must be an integer, got {env!r}") from None


def _notes(args) -> None:
    if args.note_corrections:
        for key in args.notes:
            print(CORRECTION_NOTES[key], file=sys.stderr)


def _cmd_verify(args) -> int:
    t = tr.Triple(args.s, *args.triple)
    value = t.value
    _emit(
        args,
        lambda: json.dumps({"s": t.s, "triple": list(t.components), "value": value, "solution": value == 0}),
        lambda: f"value {value}: {'solution' if value == 0 else 'not a solution'}",
    )
    return 0 if value == 0 else 1


def _cmd_family(args) -> int:
    t = tr.family_triple(args.s, args.b, args.n, args.m, budget=_budget(args))
    payload = {"s": args.s, "b": args.b, "n": args.n, "m": args.m}
    _emit(
        args,
        lambda: json.dumps({**payload, "triple": list(t.components), "value": t.value}),
        lambda: "{},{},{}".format(*t.components),
    )
    return 0


def _cmd_graph(args) -> int:
    # every check runs here, before the first chunk: a refused graph writes nothing
    xs, vertices, edges, frontier = tr._component(tr.Triple(args.s, *args.seed), args.bound, _budget(args))
    _stream(args, tr._graph_chunks(args.s, args.bound, vertices, edges, frontier, [str(x) for x in xs], args.format == "dot"))
    return 0


def _cmd_reduce(args) -> int:
    comps = list(tr._descent(tr.Triple(args.s, *args.triple)))
    # a step replaces one component, so each value sits in up to three triples: format it once
    text = tr._decimal_table(comps)
    terminal = tr.Triple(args.s, *comps[-1])

    def as_json() -> str:
        # json.dumps of {"s", "trace", "terminal", "base", "singular"}, byte for byte
        rows = [f"[{text[a]}, {text[b]}, {text[c]}]" for a, b, c in comps]
        flags = f'"base": {json.dumps(tr.is_base(terminal))}, "singular": {json.dumps(tr.is_singular(terminal))}'
        return f'{{"s": {args.s}, "trace": [{", ".join(rows)}], "terminal": {rows[-1]}, {flags}}}'

    _emit(args, as_json, lambda: "\n".join([f"{text[a]},{text[b]},{text[c]}" for a, b, c in comps]))
    return 0


def _cmd_pell_one(args) -> int:
    inst, sols = pl._family_one(args.s, args.y, args.count)
    _emit_pell(args, inst, sols, "chain-family-one", convention={"companion_index": "n-1"}, s=args.s, y=args.y)
    return 0


def _cmd_pell_two(args) -> int:
    inst, sols = pl._family_two(args.s, args.p, args.n, range(1, args.count + 1))
    _emit_pell(args, inst, sols, "chain-family-two", convention={"difference_scale": "s/2"}, s=args.s, p=args.p, n=args.n)
    return 0


def _cmd_pell_oracle(args) -> int:
    inst = pl.PellInstance(args.d, args.rhs, args.form)
    sols = pl.pell_oracle(inst, args.bound, include_zero=args.include_zero, budget=_budget(args))
    _emit_pell(args, inst, sols, f"exhaustive-scan(z<={args.bound})")
    return 0


def _cmd_rows(args) -> int:
    # search or classify: every check runs before the first chunk, so a refused or failed run writes nothing
    _stream(args, sr._chunks(args.s, args.bound, _budget(args), args.format == "csv", args.command == "classify"))
    return 0


def _cmd_markov_tree(args) -> int:
    # every check runs before the first chunk: a refused or failed tree writes nothing
    _stream(args, mk._tree_chunks(args.depth, _budget(args), dot=args.format == "dot"))
    return 0


def _cmd_continuant(args) -> int:
    # built per call from mk, not at import: the function bound in mk when the command runs is called
    kinds = {"full": mk.continuant, "drop-last": mk.continuant_drop_last, "interior": mk.continuant_interior}
    value = kinds[args.kind](args.word)
    _emit(args, lambda: json.dumps({"word": list(args.word), "kind": args.kind, "value": value}), lambda: str(value))
    return 0


def _cmd_r_match(args) -> int:
    report = mk.sequence_overlap_search(args.max_entry, args.max_block, args.terms, budget=_budget(args))
    print(json.dumps(report.as_dict()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleycubic",
        description="Exact solutions of s*(x^2+y^2+z^2) - s^3 - 2xyz = 0 and their relatives.",
        # without this, a subcommand flag like "family --n" is grabbed by the
        # top-level parser as an abbreviation of --note-corrections
        allow_abbrev=False,
    )
    parser.add_argument(
        "--note-corrections",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="print convention notes for operations with known formula pitfalls (stderr)",
    )
    parser.set_defaults(notes=())
    sub = parser.add_subparsers(dest="command", required=True)

    def fmt(p, choices, default):
        p.add_argument("--format", choices=choices, default=default)

    p = sub.add_parser("verify", help="check whether a triple solves the surface")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--triple", type=_triple_arg, required=True)
    fmt(p, ("json", "text"), "json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("family", help="chain triple (X_n, X_{n+m}, X_m) at base (s, b)")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, help="cap on the digits of a value (env CAYLEY_BUDGET)")
    fmt(p, ("json", "text"), "text")
    p.set_defaults(func=_cmd_family, notes=("chebyshev",))

    p = sub.add_parser("graph", help="bounded conjugation closure of a seed solution")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--seed", type=_triple_arg, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, help="cap on graph vertices (env CAYLEY_BUDGET)")
    fmt(p, ("json", "dot"), "json")
    p.set_defaults(func=_cmd_graph, notes=("chebyshev",))

    p = sub.add_parser("reduce", help="shrink a solution by conjugating its maximum")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--triple", type=_triple_arg, required=True)
    fmt(p, ("json", "text"), "json")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("pell-one", help="solutions of z^2 - (y^2-s^2)a^2 = s^2 from the chain")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--count", type=int, default=6, help="emit solutions for n = 1..count")
    fmt(p, ("json", "text"), "json")
    p.set_defaults(func=_cmd_pell_one, notes=("chebyshev", "pell-one-index"))

    p = sub.add_parser("pell-two", help="solutions of a^2 - d*z^2 = -s^2*d from chain differences")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=3, help="emit solutions for m = 1..count")
    fmt(p, ("json", "text"), "json")
    p.set_defaults(func=_cmd_pell_two, notes=("chebyshev", "pell-two-scale"))

    p = sub.add_parser("pell-oracle", help="exhaustive scan for Pell solutions up to a bound")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--rhs", type=int, required=True)
    p.add_argument("--form", choices=(pl.FORM_Z, pl.FORM_A), default=pl.FORM_Z)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--include-zero", action="store_true", help="keep a = 0 solutions")
    p.add_argument("--budget", type=int, default=None, help="cap on scanned values (env CAYLEY_BUDGET)")
    fmt(p, ("json", "text"), "json")
    p.set_defaults(func=_cmd_pell_oracle)

    p = sub.add_parser("search", help="enumerate all solutions with components <= bound")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, help="cap on quadratic solves (env CAYLEY_BUDGET)")
    p.add_argument("--workers", type=int, default=1, help="ignored: scans run in one process")
    fmt(p, ("jsonl", "csv"), "jsonl")
    p.set_defaults(func=_cmd_rows)

    p = sub.add_parser("classify", help="enumerate and tag solutions within a bound")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, help="cap on quadratic solves (env CAYLEY_BUDGET)")
    fmt(p, ("jsonl", "csv"), "jsonl")
    p.set_defaults(func=_cmd_rows)

    p = sub.add_parser("markov-tree", help="Markov triples within a move depth of (1,1,1)")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, help="cap on tree triples (env CAYLEY_BUDGET)")
    fmt(p, ("json", "dot"), "json")
    p.set_defaults(func=_cmd_markov_tree)

    p = sub.add_parser("continuant", help="continuant of a word, optionally with ends dropped")
    p.add_argument("--word", type=_word_arg, required=True)
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--drop-last", dest="kind", action="store_const", const="drop-last")
    kind.add_argument("--interior", dest="kind", action="store_const", const="interior")
    fmt(p, ("json", "text"), "json")
    p.set_defaults(func=_cmd_continuant, kind="full")

    p = sub.add_parser("r-match", help="search for chain/continuant sequence overlaps")
    p.add_argument("--max-entry", type=int, default=3)
    p.add_argument("--max-block", type=int, default=4)
    p.add_argument("--terms", type=int, default=6)
    p.add_argument("--budget", type=int, default=None, help="cap on word-pair tests (env CAYLEY_BUDGET)")
    p.set_defaults(func=_cmd_r_match)

    return parser


# built once per process: parse_args fills a fresh Namespace on every call, and
# building reads nothing that can change between calls
_parser = functools.cache(build_parser)


def run(argv: list[str] | None = None) -> int:
    # Numbers are read and printed in full decimal, however long: lift the
    # int/str digit limit of Python >= 3.11 for this call, then restore it.
    previous = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if previous is not None:
        sys.set_int_max_str_digits(0)
    try:
        parser = _parser()
        args = parser.parse_args(argv)
        _notes(args)
        try:
            return args.func(args)
        except (NotASolutionError, BudgetExceededError, InvariantError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (CayleyError, ValueError) as exc:
            parser.exit(2, f"error: {exc}\n")
        except KeyboardInterrupt:
            print("error: interrupted", file=sys.stderr)
            return 1
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a pipe buffers stdout: a closed one raises here, in the try
    except BrokenPipeError:
        # the reader stopped early (| head): exit quietly, with stdout on devnull so
        # that the flush at exit cannot raise again (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
