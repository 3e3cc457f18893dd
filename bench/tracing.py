"""Spans around the public functions of cayleycubic, for the traced run.

Tracer.install() wraps every public function of the six modules (cli,
search, triples, sequences, pell, markov) in every namespace of the package
where a caller looks it up: the defining module, modules that imported the
name, and the package itself.  Each call records a span (name, parent span,
start and end in ns) into an in-memory array, and a layer's self time is
its span's duration minus the time its child spans cover.  Counters are
taken at the same boundaries, from arguments and results.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("search", "triples", "sequences", "pell", "markov")

# Public functions that share one span name; the rest are "<layer>.<name>".
GROUPS = {
    "triples_to_csv": "search.format",
    "triples_to_jsonl": "search.format",
    "classifications_to_csv": "search.format",
    "classifications_to_jsonl": "search.format",
    "pell_family_one": "pell.family",
    "pell_family_two": "pell.family",
    "markov_tree_dot": "markov.markov_tree",
}


def _count_enumerate(tracer, args, kwargs, result):
    tracer.counts["search.solutions"] += len(result)


def _count_reduction(tracer, args, kwargs, result):
    tracer.counts["triples.reduction_steps"] += len(result) - 1


def _count_graph(tracer, args, kwargs, result):
    tracer.counts["triples.graph_vertices"] += len(result.vertices)


def _count_oracle(tracer, args, kwargs, result):
    tracer.counts["pell.oracle_z_scanned"] += args[1] if len(args) > 1 else kwargs["bound"]
    tracer.counts["pell.oracle_solutions"] += len(result)


def _count_tree(tracer, args, kwargs, result):
    if isinstance(result, str):  # DOT: a header, one line per node and edge, a footer
        tracer.counts["markov.tree_nodes"] += result.count("\n") - 2 - result.count(" -> ")
    else:
        tracer.counts["markov.tree_nodes"] += len(result)


def _count_power_sequence(tracer, args, kwargs, result):
    if tracer.parent_name() == "markov.sequence_overlap_search":
        tracer.counts["markov.overlap_pairs"] += 1


COUNTERS = (
    "search.solutions",
    "triples.reduction_steps",
    "triples.graph_vertices",
    "pell.oracle_z_scanned",
    "pell.oracle_solutions",
    "markov.tree_nodes",
    "markov.overlap_pairs",
)

HOOKS = {
    "enumerate_solutions": _count_enumerate,
    "reduction_trace": _count_reduction,
    "solution_graph": _count_graph,
    "pell_oracle": _count_oracle,
    "markov_tree": _count_tree,
    "markov_tree_dot": _count_tree,
    "continuant_power_sequence": _count_power_sequence,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # four int64 per span: name id, parent span index (-1 at the root), start, end
        self.spans = array("q")
        self.stack: list[list[int]] = []  # [span index, name id, start, child ns]
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.counts: Counter = Counter(dict.fromkeys(COUNTERS, 0))
        self.cached: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return self._ids[name]

    def enter(self, name) -> None:
        nid = name if isinstance(name, int) else self._id(name)
        stack, spans = self.stack, self.spans
        parent = stack[-1][0] if stack else -1
        start = time.perf_counter_ns()
        stack.append([len(spans) // 4, nid, start, 0])
        spans.extend((nid, parent, start, 0))

    def exit(self) -> None:
        end = time.perf_counter_ns()
        idx, nid, start, child = self.stack.pop()
        self.spans[4 * idx + 3] = end
        dur = end - start
        self.self_ns[nid] += dur - child
        self.calls[nid] += 1
        if self.stack:
            self.stack[-1][3] += dur

    def parent_name(self) -> str | None:
        return self.names[self.stack[-1][1]] if self.stack else None

    def wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self, cli):
        """Wrap the library's public functions; return a traced cli.run."""
        package = sys.modules["cayleycubic"]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"cayleycubic.{layer}"]
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                cached = hasattr(fn, "cache_info")
                if not (inspect.isfunction(fn) or cached):
                    continue
                if cached:
                    self.cached.append((f"{layer}.{fname}", fn))
                name = GROUPS.get(fname, f"{layer}.{fname}")
                wrappers[id(fn)] = (fn, self.wrap(name, fn, HOOKS.get(fname)))
        for mod in [package, cli] + [sys.modules[f"cayleycubic.{layer}"] for layer in LAYERS]:
            for key, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, key, hit[1])
        graph = sys.modules["cayleycubic.triples"].SolutionGraph
        for meth in ("to_json", "to_dot"):
            setattr(graph, meth, self.wrap("triples.format", getattr(graph, meth)))
        return self.wrap("cli.run", cli.run)

    def summary(self) -> dict:
        hits = misses = entries = 0
        cached_calls = 0
        for name, fn in self.cached:
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
            entries += info.currsize
            if name in self._ids:
                cached_calls += self.calls[self._ids[name]]
        counts = dict(self.counts)
        counts.update(
            {
                "sequences.calls": cached_calls,
                "sequences.cache_hits": hits,
                "sequences.cache_misses": misses,
                "sequences.cache_entries": entries,
                "trace.spans": len(self.spans) // 4,
            }
        )
        return {
            "self_ns": dict(zip(self.names, self.self_ns)),
            "calls": dict(zip(self.names, self.calls)),
            "counts": counts,
        }

    def write(self, path: str) -> None:
        """Spans as raw int64 (name id, parent, start ns, end ns) plus a JSON index."""
        with open(path + ".bin", "wb") as fh:
            self.spans.tofile(fh)
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "parent", "start_ns", "end_ns"], "byteorder": sys.byteorder}, fh)
