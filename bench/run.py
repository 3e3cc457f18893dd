"""Benchmark of the cayleycubic CLI: one workload, one seed, one run.

    python3 bench/run.py --workload scan|chains|markov --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/.
A run measures set-up (several cold starts of `python -m cayleycubic verify`),
then repeats whole rounds of the workload's operations until S seconds have
passed.  Each round runs in a fresh interpreter (bench/worker.py), so the
library's caches start cold as they do for a CLI user; within a round the
operations share that interpreter, one after the other (a closed loop with
one client).  Every output is checked by bench/checks.py between operations,
outside the timed region.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced rounds and reports the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate
import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_STARTS = 7


def child_env() -> dict:
    env = dict(os.environ)
    # the program receives only the generated inputs: no budget from outside
    env.pop("CAYLEY_BUDGET", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Run:
    """Tallies of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.verified: dict[int, bytes] = {}  # op position -> digest of a checked output

    def judge(self, pos: int, op: dict, rc: int, out: bytes, err: bytes) -> None:
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            if self.failed == 1:
                last = err.decode().strip().splitlines()[-1:] or [""]
                print(f"failed (exit {rc}): {' '.join(op['argv'])[:100]}: {last[0][:160]}", file=sys.stderr)
            return
        # An output byte-identical to one that passed its check passes too;
        # this keeps checking time from crowding out rounds.
        digest = hashlib.sha256(out).digest()
        if self.verified.get(pos) == digest:
            return
        try:
            checks.check(op["check"], out.decode(), op["params"])
        except checks.CheckFailed as exc:
            self.problems.append(str(exc))
        else:
            self.verified[pos] = digest


def measure_setup(seed: int, run: Run) -> tuple[float, float]:
    """Median time of cold starts that import the package and verify a triple,
    scaled and as measured."""
    op = workloads.setup_op(seed)
    times, cals = [], []
    for i in range(SETUP_STARTS + 1):
        cals.append(calibrate.sample())
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "cayleycubic", *op["argv"]],
            capture_output=True,
            env=child_env(),
            cwd=ROOT,
            timeout=60,
        )
        elapsed = time.perf_counter() - start
        if i == 0:
            continue  # warms the bytecode and file caches; not a sample
        times.append(elapsed)
        # judged for correctness only: set-up starts are not counted as operations
        if proc.returncode != 0:
            run.problems.append(f"setup: verify exited {proc.returncode}: {proc.stderr.decode()[-200:]}")
            continue
        try:
            checks.check(op["check"], proc.stdout.decode(), op["params"])
        except checks.CheckFailed as exc:
            run.problems.append(f"setup: {exc}")
    raw = statistics.median(times)
    return raw * calibrate.REFERENCE_S / statistics.median(cals), raw


def run_round(ops: list[dict], run: Run, spans: str | None) -> dict:
    """One round in a fresh worker; returns its latencies, RSS and trace summary."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT]
    if spans is not None:
        cmd.append(spans)
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    lat, cal, rss_kb, out_bytes = [], [], 0, 0
    try:
        proc.stdin.write(json.dumps([op["argv"] for op in ops]).encode() + b"\n")
        proc.stdin.flush()
        for pos, op in enumerate(ops):
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"worker ended during {' '.join(op['argv'])[:100]}")
            head = json.loads(line)
            out = proc.stdout.read(head["out"])
            err = proc.stdout.read(head["err"])
            lat.append(head["ns"] / 1e9)
            cal.append(head["cal"])
            rss_kb = max(rss_kb, head["rss_kb"])
            out_bytes += head["out"]
            run.judge(pos, op, head["rc"], out, err)
            del out, err
            proc.stdin.write(b"\n")
            proc.stdin.flush()
        summary = json.loads(proc.stdout.readline())
        proc.wait(timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    # times of this round in reference-speed seconds (see calibrate.py)
    scale = calibrate.REFERENCE_S / statistics.median(cal)
    lat = [x * scale for x in lat]
    return {"lat": lat, "wall": sum(lat), "scale": scale, "rss_kb": rss_kb, "out_bytes": out_bytes, **summary}


def end_to_end(rounds: list[dict], setup_s: float) -> dict:
    # each operation at its median over the rounds: a burst of load from
    # outside slows one sample of an operation, not all of them
    per_op = [statistics.median(samples) for samples in zip(*(r["lat"] for r in rounds))]
    return {
        "wall_s": sum(per_op),
        "op_p50_ms": 1000 * statistics.median(per_op),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in rounds) / 1024,
        "setup_s": setup_s,
    }


def per_layer(plain: list[dict], traced: list[dict], run: Run) -> dict:
    """Per-layer metrics: medians of times over traced rounds, counts of one round.

    NAME.self_s is the self time of the span NAME, or of every span under
    NAME when NAME is a whole layer; NAME.calls counts calls of span NAME;
    other names are counters taken at the span boundaries.
    """
    first = traced[0]["trace"]
    for r in traced[1:]:
        if r["trace"]["counts"] != first["counts"] or r["trace"]["calls"] != first["calls"]:
            run.problems.append("trace: counts differ between rounds of the same inputs")
    layers = {"cli": "cli.run", "bench": "bench.op"}

    def self_s(prefix: str, r: dict) -> float:
        ns = r["trace"]["self_ns"]
        if prefix in layers:
            total = ns.get(layers[prefix], 0)
        elif "." in prefix:
            total = ns.get(prefix, 0)
        else:
            total = sum(v for k, v in ns.items() if k.startswith(prefix + "."))
        return total / 1e9 * r["scale"]

    def med(f) -> float:
        return statistics.median(f(r) for r in traced)

    values = {
        "cli.import_s": statistics.median(r["import_ns"] / 1e9 * r["scale"] for r in plain + traced),
        "cli.stdout_mb": traced[0]["out_bytes"] / 1e6,
        "trace.overhead_s": med(lambda r: r["wall"]) - statistics.median(r["wall"] for r in plain),
        "trace.accounted_share": med(lambda r: sum(r["trace"]["self_ns"].values()) / 1e9 * r["scale"] / r["wall"]),
    }
    names = set(first["self_ns"]) | {n.split(".")[0] for n in first["self_ns"]} | {"cli", "bench"}
    for name in sorted(names):
        values[f"{name}.self_s"] = med(lambda r, n=name: self_s(n, r))
        if name in first["calls"]:
            values[f"{name}.calls"] = first["calls"][name]
    values.update(first["counts"])
    share = values["trace.accounted_share"]
    if not 0.99 <= share <= 1.01:
        run.problems.append(f"trace: layer self times plus benchmark time cover {share:.4f} of the traced wall time")
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "cayleycubic", "cli.py")):
        print(f"bench: no program source at {os.path.join(ROOT, 'src', 'cayleycubic')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run = Run()
    ops = workloads.build(args.workload, args.seed)
    spans = None
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{args.workload}")
    else:
        setup_s, setup_raw = measure_setup(args.seed, run)
    plain, traced = [], []
    deadline = time.monotonic() + args.seconds
    while True:
        if not args.trace:
            plain.append(run_round(ops, run, None))
        else:
            # alternate which side goes first, so drift hits both alike
            order = (None, spans) if len(traced) % 2 == 0 else (spans, None)
            for sp in order:
                (traced if sp else plain).append(run_round(ops, run, sp))
        if time.monotonic() >= deadline:
            break
    values = per_layer(plain, traced, run) if args.trace else end_to_end(plain, setup_s)

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"bench: no metric named {m['name']}", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<44} {metrics[m['name']]['value']:>14.6f} {m['unit']}")
    for msg in run.problems[:5]:
        print(f"check failed: {msg}", file=sys.stderr)
    rounds = plain + traced
    scales = " ".join(f"{r['scale']:.3f}" for r in rounds)
    print(f"{args.workload}: {len(rounds)} rounds, {run.attempted} operations, {run.failed} failed", file=sys.stderr)
    print(f"host speed scale per round: {scales}", file=sys.stderr)
    if not args.trace:
        raw = statistics.median(r["wall"] / r["scale"] for r in plain)
        print(f"as measured: round wall {raw:.4f} s (median), setup {setup_raw:.4f} s", file=sys.stderr)
    result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
