"""One round of a workload in a fresh interpreter, driven by bench/run.py.

Usage: python3 bench/worker.py ROOT [SPANS]

With SPANS the round is traced (see tracing.py) and its spans are written to
SPANS.bin and SPANS.json at the end.

Imports cayleycubic from ROOT/src, reads the round's operations as one JSON
line on stdin, and runs each through cayleycubic.cli.run(argv) with stdout
and stderr captured in memory.  After each operation it writes a JSON header
line (exit code, latency, the host-speed kernel time taken just before it,
peak RSS, payload sizes) and the captured bytes,
then waits for one line on stdin before the next operation, so that checking
in the parent never overlaps a timed operation.  The last line it writes is
a JSON summary.  The interpreter's int-string digit limit is left as Python
sets it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import calibrate

CHUNK = 1 << 20


def _send(stream, text: str) -> None:
    # chunked, so that encoding a large output does not raise the peak RSS
    for i in range(0, len(text), CHUNK):
        stream.write(text[i : i + CHUNK].encode())


def _payload_len(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode())


def peak_rss_kb() -> int:
    """Peak resident set of this process image, in KiB.

    VmHWM starts afresh at exec; ru_maxrss does not, and would include the
    parent's memory at the time it started this worker.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    root = os.path.abspath(sys.argv[1])
    spans_path = sys.argv[2] if len(sys.argv) > 2 else None
    # The protocol gets its own descriptor; fd 1 then points at stderr, so a
    # stray write to stdout (say from a pool process) cannot corrupt it.
    proto = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter_ns()
    from cayleycubic import cli

    import_ns = time.perf_counter_ns() - t0
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"worker: cayleycubic imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    ops = json.loads(sys.stdin.readline())
    run = cli.run
    tracer = None
    if spans_path is not None:
        import tracing

        tracer = tracing.Tracer()
        run = tracer.install(cli)
    for argv in ops:
        cal = calibrate.sample()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter_ns()
        if tracer is not None:
            tracer.enter("bench.op")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = run(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except Exception:
                traceback.print_exc()
                rc = 1
        if tracer is not None:
            tracer.exit()
        ns = time.perf_counter_ns() - start
        rss_kb = peak_rss_kb()
        stdout, stderr = out.getvalue(), err.getvalue()
        del out, err
        head = {"rc": rc, "ns": ns, "cal": cal, "rss_kb": rss_kb, "out": _payload_len(stdout), "err": _payload_len(stderr)}
        proto.write(json.dumps(head).encode() + b"\n")
        _send(proto, stdout)
        _send(proto, stderr)
        proto.flush()
        del stdout, stderr
        sys.stdin.readline()
    summary = {"import_ns": import_ns}
    if tracer is not None:
        summary["trace"] = tracer.summary()
        tracer.write(spans_path)
    proto.write(json.dumps(summary).encode() + b"\n")
    proto.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
