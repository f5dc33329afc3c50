"""Spans at the boundaries between vertexmagic's modules, recorded from outside.

`Tracer.install` replaces every binding of each traced function in the loaded
vertexmagic modules (the defining module and every `from .x import f` copy) by
a timing wrapper, so that both cross-module calls and a module's calls to its
own traced functions open a span.  No source file is touched; `uninstall`
puts the original objects back.

A span is (name, start, end, parent).  Spans stay in compact arrays until the
run ends; `layer_table` then folds them into calls / inclusive time / self
time per name, where self time is the span's duration minus the time covered
by its direct child spans.  Counters (search nodes, witnesses, ...) are read
from return values at the same boundaries.
"""

from __future__ import annotations

import importlib
import os
import sys
from array import array
from time import perf_counter

# (span name, defining module, attribute).  The span name is the layer, i.e.
# the vertexmagic module the function belongs to; the kernels package stands
# for whichever backend it dispatches to.
TARGETS = (
    ("workbench.crosscheck", "vertexmagic.workbench", "crosscheck"),
    ("workbench.emit_records", "vertexmagic.workbench", "emit_records"),
    ("workbench.load_records", "vertexmagic.workbench", "load_records"),
    ("workbench.recheck_record", "vertexmagic.workbench", "recheck_record"),
    ("workbench.audit_families", "vertexmagic.workbench", "audit_families"),
    ("characterize.predict", "vertexmagic.characterize", "predict"),
    ("characterize.classify_group_vertex_magic", "vertexmagic.characterize",
     "classify_group_vertex_magic"),
    ("families.build", "vertexmagic.families", "build"),
    ("families.enumerate_connected", "vertexmagic.families", "enumerate_connected"),
    ("families.recognize", "vertexmagic.families", "recognize"),
    ("canon.canonical_code", "vertexmagic.canon", "canonical_code"),
    ("canon.refinement_cells", "vertexmagic.canon", "refinement_cells"),
    ("graphs.classify_vertices", "vertexmagic.graphs", "classify_vertices"),
    ("graphs.diameter", "vertexmagic.graphs", "diameter"),
    ("solver.exists_magic", "vertexmagic.solver", "exists_magic"),
    ("solver.count_magic", "vertexmagic.solver", "count_magic"),
    ("kernels.min_code", "vertexmagic.kernels", "min_code"),
    ("kernels.search_exists", "vertexmagic.kernels", "search_exists"),
    ("kernels.search_count", "vertexmagic.kernels", "search_count"),
    ("labeling.verify_magic", "vertexmagic.labeling", "verify_magic"),
    ("oracle.naive_count", "vertexmagic.oracle", "naive_count"),
    ("abelian.cayley_tables", "vertexmagic.abelian", "cayley_tables"),
    ("abelian.decompose_sum", "vertexmagic.abelian", "decompose_sum"),
)


def _count_search_exists(tr, args, result, seconds):
    tr.counters["kernels.search_exists.nodes"] += result[1]
    tr.counters["kernels.search_exists.hits"] += result[0] is not None


def _count_search_count(tr, args, result, seconds):
    tr.counters["kernels.search_count.nodes"] += result[1]


def _count_exists_magic(tr, args, result, seconds):
    tr.counters["solver.exists_magic.nodes"] += result.nodes
    tr.counters["solver.exists_magic.witnesses"] += result.is_witness


def _count_naive(tr, args, result, seconds):
    g, spec = args[0], args[1]
    tr.counters["oracle.naive_count.candidates"] += (spec.order - 1) ** g.n


def _count_emit(tr, args, result, seconds):
    tr.counters["workbench.emit_records.bytes"] += os.path.getsize(args[1])


def _count_recognize(tr, args, result, seconds):
    # recognize builds the atlas index for a vertex count on its first call
    # with that count (an lru_cache), so that call's time is the build time
    n = args[0].n
    if n not in tr.recognized_sizes:
        tr.recognized_sizes.add(n)
        tr.counters["families.recognize.index_build_s"] += seconds


COUNTERS = {
    "kernels.search_exists": _count_search_exists,
    "kernels.search_count": _count_search_count,
    "solver.exists_magic": _count_exists_magic,
    "oracle.naive_count": _count_naive,
    "workbench.emit_records": _count_emit,
    "families.recognize": _count_recognize,
}
COUNTER_NAMES = (
    "kernels.search_exists.nodes",
    "kernels.search_exists.hits",
    "kernels.search_count.nodes",
    "solver.exists_magic.nodes",
    "solver.exists_magic.witnesses",
    "oracle.naive_count.candidates",
    "workbench.emit_records.bytes",
    "families.recognize.index_build_s",
)


class Tracer:
    """Span recorder; one per traced process, installed around the timed body."""

    def __init__(self) -> None:
        self.names: list[str] = [name for name, _, _ in TARGETS]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = dict.fromkeys(COUNTER_NAMES, 0)
        self.recognized_sizes: set[int] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, nid: int, fn, counter):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                counter(self, args, result, t1 - t0)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for _, modname, _ in TARGETS:
            importlib.import_module(modname)
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "vertexmagic" or k.startswith("vertexmagic.")]
        for nid, (name, modname, attr) in enumerate(TARGETS):
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(nid, original, COUNTERS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def __len__(self) -> int:
        return len(self.start)

    def layer_table(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per span name."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        table: dict[str, dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i in range(n):
            row = table[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return table

    def top_level_seconds(self) -> float:
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.start)) if self.parent[i] < 0)

    def dump(self, path: str) -> None:
        """Write every span as `name start end parent` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]} {self.start[i]:.9f} "
                         f"{self.end[i]:.9f} {self.parent[i]}\n")


def span_cost(calls: int = 100_000) -> float:
    """Seconds one span adds to a call, measured on a wrapped no-op."""
    def noop():
        return None

    wrapped = Tracer()._wrap(0, noop, None)
    t0 = perf_counter()
    for _ in range(calls):
        wrapped()
    t1 = perf_counter()
    for _ in range(calls):
        noop()
    t2 = perf_counter()
    return max(0.0, (t1 - t0) - (t2 - t1)) / calls
