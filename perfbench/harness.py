"""Round loop, tallies and metric assembly shared by the workloads.

A run repeats *rounds*: each round performs the same operations on the
same inputs, so the share of failed operations does not depend on how
many rounds fit in ``--seconds``.  A round times only its calls into
the program (``solve_s`` is the median round); checks against the
reference computations run after the timed phase.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Tally", "geomean", "layer_metrics", "peak_rss_mb", "percentile", "run_rounds"]


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure,
    and the cost ratios of the solved instances.

    A failed operation either returned a wrong output (a check against
    the reference failed) or returned none (refused, error status);
    ``wrong`` counts the first kind, which makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list = field(default_factory=list)
    ratios: list = field(default_factory=list)

    def op(self, what: str, problems: list, wrong_output: bool = True) -> bool:
        """Count one operation; a non-empty ``problems`` fails it."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += wrong_output
            self.problems.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def ratio(self, achieved: float, reference: float) -> None:
        self.ratios.append(achieved / reference)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Largest resident set of this process and of every process it
    started and reaped (with their reaped descendants), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@dataclass
class Round:
    seconds: float          # the timed phase: calls into the program only
    traced: bool
    spans: dict | None = None
    counters: dict | None = None


def run_rounds(do_round, seconds: float, min_rounds: int = 1, tracer=None) -> list:
    """Call ``do_round(timed)`` until the next round would overrun ``seconds``.

    ``do_round`` wraps its calls into the program in ``with timed():``;
    that block is the round's timed phase, and in traced rounds the
    only code the tracer sees.  With a tracer, rounds alternate
    untraced / traced (at least one of each), so the tracing overhead
    is measured inside one run.
    """
    from repro import instrument

    rounds: list[Round] = []
    walls: list[float] = []
    start = time.perf_counter()
    need = max(min_rounds, 2 if tracer is not None else 1)
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        phase: list[float] = []

        @contextmanager
        def timed():
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                yield
            finally:
                phase.append(time.perf_counter() - t0)
                if traced:
                    tracer.remove()

        t0 = time.perf_counter()
        instrument.reset()
        mark = tracer.mark() if traced else 0
        do_round(timed)
        rounds.append(Round(phase[0], traced, tracer.summary(mark) if traced else None,
                            instrument.snapshot() if traced else None))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(rounds) >= need and elapsed + statistics.median(walls) > seconds:
            return rounds


#: span name -> (self-time metric, calls metric or None)
_SPAN_METRICS = {
    "partitioners.fm": ("partitioners.fm.self_s", "partitioners.fm.calls"),
    "partitioners.subround.coarsen": ("partitioners.subround.coarsen_s",
                                      "partitioners.subround.coarsen_calls"),
    "partitioners.subround.refine": ("partitioners.subround.refine_s",
                                     "partitioners.subround.refine_calls"),
    "partitioners.multilevel": ("partitioners.multilevel.self_s", None),
    "partitioners.greedy": ("partitioners.greedy.self_s", None),
    "partitioners.random_part": ("partitioners.random_part.self_s", None),
    "partitioners.base.rebalance": ("partitioners.base.rebalance_s", None),
    "partitioners.exact": ("partitioners.exact.self_s", None),
    "core.kernels": ("core.kernels.self_s", "core.kernels.calls"),
    "hierarchy.refine": ("hierarchy.refine.self_s", "hierarchy.refine.calls"),
    "hierarchy.recursive": ("hierarchy.recursive.self_s", None),
    "hierarchy.assignment": ("hierarchy.assignment.self_s", None),
    "hierarchy.cost": ("hierarchy.cost.self_s", "hierarchy.cost.calls"),
    "hierarchy.exact": ("hierarchy.exact.self_s", None),
}

#: instrument counter -> metric
_COUNTER_METRICS = {
    "fm_passes": "partitioners.fm.passes",
    "coarsen_levels": "partitioners.multilevel.levels",
}


def layer_metrics(rounds: list) -> tuple[dict, dict]:
    """Per-layer metrics of the traced rounds, each a mean per round.

    Returns ``(metrics, layer_self_s)``: the metric values by name, and
    the self time per layer (a span name's first two dotted parts) for
    the human-readable report.
    """
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    n = len(traced)
    out: dict = {}
    for self_name, calls_name in _SPAN_METRICS.values():
        out[self_name] = 0.0
        if calls_name:
            out[calls_name] = 0
    for name, metric in _COUNTER_METRICS.items():
        out[metric] = sum(r.counters.get(name, 0) for r in traced) / n
    layers: dict = {}
    top = 0.0
    for r in traced:
        top += r.spans["_top_s"]
        for name, rec in r.spans.items():
            if name == "_top_s":
                continue
            self_name, calls_name = _SPAN_METRICS[name]
            out[self_name] += rec["self_s"] / n
            if calls_name:
                out[calls_name] += rec["calls"] / n
            layer = ".".join(name.split(".")[:2])
            layers[layer] = layers.get(layer, 0.0) + rec["self_s"] / n
    traced_s = sum(r.seconds for r in traced)
    out["trace.unattributed_share"] = (traced_s - top) / traced_s
    out["trace.overhead_s"] = (statistics.median(r.seconds for r in traced)
                               - statistics.median(r.seconds for r in plain))
    return out, layers
