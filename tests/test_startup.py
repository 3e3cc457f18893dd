"""What a cold start of the CLI imports.

The package and the CLI import every module they use at start-up, but none
of the standard-library modules below: `dataclasses` pulls in `inspect`,
`ast` and `dis`, and `fractions` pulls in `decimal` and `numbers`.  Each
check runs in a fresh interpreter under -S, so that no site `.pth` file
adds imports of its own.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import cayleycubic
from cayleycubic import Triple, classify, conjugate_component

DEFERRED = {"dataclasses", "inspect", "fractions", "decimal", "typing"}
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cayleycubic.__file__)))

# one small run of every command, as the CLI parses it
COMMANDS = [
    ["verify", "--s", "3", "--triple", "3,70,70"],
    ["family", "--s", "2", "--b", "4", "--n", "3", "--m", "2"],
    ["graph", "--s", "12", "--seed", "13,15,20", "--bound", "100", "--format", "dot"],
    ["reduce", "--s", "3", "--triple", "21,4053,291"],
    ["pell-one", "--s", "1", "--y", "2", "--count", "3"],
    ["pell-two", "--s", "1", "--p", "4", "--n", "2"],
    ["pell-oracle", "--d", "3", "--rhs", "1", "--bound", "30", "--form", "a2-dz2"],
    ["search", "--s", "12", "--bound", "40", "--format", "csv"],
    ["classify", "--s", "12", "--bound", "40"],
    ["classify", "--s", "1", "--bound", "30", "--format", "csv"],
    ["markov-tree", "--depth", "3", "--format", "dot"],
    ["continuant", "--word", "2,1,1,3", "--interior"],
    ["r-match", "--max-entry", "2", "--max-block", "2", "--terms", "3"],
]


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True, env=env, timeout=60, check=True)


def test_importing_the_cli_loads_no_deferred_module():
    proc = _python("-c", "import json, sys, cayleycubic.cli; print(json.dumps(sorted(sys.modules)))")
    assert DEFERRED.isdisjoint(json.loads(proc.stdout))


def test_a_verify_cold_start_imports_no_deferred_module():
    proc = _python("-X", "importtime", "-m", "cayleycubic", "verify", "--s", "3", "--triple", "3,70,70")
    assert proc.stdout == '{"s": 3, "triple": [3, 70, 70], "value": 0, "solution": true}\n'
    # each line reads "import time: self | cumulative | name", the name indented by its depth
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "cayleycubic.cli" in imported and DEFERRED.isdisjoint(imported)


def test_no_command_loads_a_deferred_module():
    script = (
        "import contextlib, io, json, sys\n"
        "from cayleycubic import cli\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(cli.run(argv))\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n"
    )
    codes, modules = json.loads(_python("-c", script, json.dumps(COMMANDS)).stdout)
    assert codes == [0] * len(COMMANDS)
    assert DEFERRED.isdisjoint(modules)


def test_the_library_still_returns_fractions():
    t = Triple(1, 1, 2, 2)
    assert conjugate_component(t, 0) == Fraction(7) and type(conjugate_component(t, 0)) is Fraction
    conjugates = classify(12, 40)[-1].conjugates
    assert all(type(x) is Fraction for x in conjugates)
    assert conjugates == tuple(Fraction(2 * y * z - 12 * x, 12) for x, y, z in [(15, 20, 37), (20, 15, 37), (37, 15, 20)])
