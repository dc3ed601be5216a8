"""Span tracing around the program's public functions, from outside.

A :class:`Tracer` replaces module attributes that callers look up at
call time (``multilevel.fm_refine``, ``kernels.gather_rows``, ...) with
wrappers that record a span ``[name, start, end, parent]`` in memory.
Nothing inside ``src/`` changes.  Spans recorded in forked worker
processes stay in those processes; their time shows in the parent as
the self time of the span that waited for them.

A span's self time is its duration minus the durations of its direct
children, which run inside it one after another.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

__all__ = ["LAYERS", "Tracer"]

#: (module, attribute, span name).  Names are ``<layer>`` or
#: ``<layer>.<phase>``; a layer's self time sums its phases.
LAYERS = [
    ("repro.partitioners.multilevel", "multilevel_partition", "partitioners.multilevel"),
    ("repro.partitioners.multilevel", "fm_refine", "partitioners.fm"),
    ("repro.partitioners.multilevel", "subround_coarsen_step", "partitioners.subround.coarsen"),
    ("repro.partitioners.multilevel", "subround_fm_refine", "partitioners.subround.refine"),
    ("repro.partitioners.multilevel", "rebalance", "partitioners.base.rebalance"),
    ("repro.partitioners.multilevel", "greedy_sequential_partition", "partitioners.greedy"),
    ("repro.partitioners.multilevel", "bfs_growth_partition", "partitioners.greedy"),
    ("repro.partitioners.multilevel", "random_balanced_partition", "partitioners.random_part"),
    ("repro.partitioners.base", "rebalance", "partitioners.base.rebalance"),
    ("repro.partitioners.exact", "exact_partition", "partitioners.exact"),
    ("repro.hierarchy.refine", "hierarchical_fm_refine", "hierarchy.refine"),
    ("repro.hierarchy.recursive", "recursive_hierarchical_partition", "hierarchy.recursive"),
    ("repro.hierarchy.recursive", "fm_refine", "partitioners.fm"),
    ("repro.hierarchy.recursive", "greedy_sequential_partition", "partitioners.greedy"),
    ("repro.hierarchy.two_step", "optimal_assignment", "hierarchy.assignment"),
    ("repro.hierarchy.two_step", "contract_partition", "hierarchy.assignment"),
    ("repro.hierarchy.two_step", "apply_assignment", "hierarchy.assignment"),
    ("repro.hierarchy.two_step", "exact_hierarchical_partition", "hierarchy.exact"),
    ("repro.hierarchy.two_step", "hierarchical_cost", "hierarchy.cost"),
    ("repro.hierarchy.assignment", "hierarchical_cost", "hierarchy.cost"),
    ("repro.hierarchy.cost", "hierarchical_cost", "hierarchy.cost"),
] + [
    ("repro.core.kernels", fn, "core.kernels")
    for fn in ("normalize_edges", "check_csr", "gather_rows", "edge_ids_from_ptr",
               "degrees_from_pins", "incidence_from_csr", "contract_csr",
               "merge_parallel_csr", "lambda_counts", "pin_count_matrix",
               "adjacency_csr")
]


class Tracer:
    """Records spans while installed; :meth:`remove` restores the program."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for mod_name, attr, name in LAYERS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def mark(self) -> int:
        """Position in the span list, to summarise one round."""
        return len(self.spans)

    def summary(self, start: int = 0) -> dict:
        """Per span name: ``calls``, ``total_s``, ``self_s``; plus
        ``_top_s``, the time covered by spans without a parent."""
        child_s = defaultdict(float)
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        top = 0.0
        spans = self.spans
        for name, t0, t1, parent in spans[start:]:
            if parent >= start:
                child_s[parent] += t1 - t0
        for i in range(start, len(spans)):
            name, t0, t1, parent = spans[i]
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - child_s[i]
            if parent < start:
                top += t1 - t0
        result = dict(out)
        result["_top_s"] = top
        return result

    def dump(self, path) -> None:
        """Write every span, once, at the end of the run."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
