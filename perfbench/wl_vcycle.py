"""``vcycle-small``: serial flat multilevel partitioning.

Serial V-cycles on instances of 10^3 to 10^4 pins, where the heap FM
(``partitioners.fm``) does nearly all the work; the tiny instances are
certified against the benchmark's exhaustive optimum.
"""

from __future__ import annotations

import time

import numpy as np

import instances as gen
import reference as ref
from harness import Tally, run_rounds

SETUP_REPEATS = 3


def _program():
    """Import the program's entry points (timed as part of set-up)."""
    from repro.core import Hypergraph
    from repro.core.cost import Metric, cost
    from repro.partitioners import exact, multilevel

    metrics = {"connectivity": Metric.CONNECTIVITY, "cut-net": Metric.CUT_NET}
    return Hypergraph, metrics, cost, multilevel, exact


def _graph(Hypergraph, inst):
    g = Hypergraph.from_csr(inst.n, inst.ptr, inst.pins)
    g.incidence()
    return g


def _check_flat(tally, program_cost, inst, g, part, metrics, what,
                optimum=None) -> int | None:
    """Check one flat partition; return its cost when it passes."""
    labels = part.labels
    problems = ref.balance_problems(labels, inst.n, inst.k, inst.eps)
    if problems:
        tally.op(what, problems)
        return None
    mine = ref.flat_cost(inst.ptr, inst.pins, labels, inst.metric)
    theirs = program_cost(g, part, metrics[inst.metric])
    if theirs != mine:
        problems.append(f"program cost {theirs} != recomputed {mine}")
    if optimum is not None and mine < optimum:
        problems.append(f"heuristic {mine} beats the exhaustive optimum {optimum}")
    tally.op(what, problems)
    return mine if not problems else None


def small_instances(seed: int) -> tuple[list, list]:
    """Many instances of a few thousand pins rather than a few of 10^4:
    one V-cycle's time varies by 20-30% with the instance and the seed,
    so ``solve_s`` sums ~30 of them to be steady across seeds."""
    rng = np.random.default_rng([seed, 1])
    flat = []
    for i in range(8):
        flat += [
            gen.planted(rng, f"planted-5u-{i}", 600, 4, 540, 60, 5, 0.03),
            gen.spmv_random(rng, f"spmv-delta2-{i}", 30, 30, 0.5, 4, 0.03, "cut-net"),
            gen.layered_hyperdag(rng, f"hyperdag-{i}", 8, 50, 0.06, 8, 0.03),
        ]
    # the 32x32 mesh has 4992 nodes, so its finest level refines with
    # the sub-round FM; the 12x12 mesh stays with the heap FM throughout
    flat += [gen.laplacian_2d(f"laplace-2d-12-{i}", 12, 4, 0.03) for i in range(4)]
    flat += [gen.laplacian_2d(f"laplace-2d-32-{i}", 32, 4, 0.03) for i in range(2)]
    tiny = [
        gen.tiny_connected(rng, "tiny-a", 12, 10, 3, 2, 0.0),
        gen.tiny_connected(rng, "tiny-b", 10, 8, 3, 2, 0.2, "cut-net"),
        gen.tiny_connected(rng, "tiny-c", 9, 8, 3, 3, 0.0),
    ]
    return flat, tiny


def run_small(seed: int, seconds: float, tracer) -> dict:
    t0 = time.perf_counter()
    Hypergraph, metrics, program_cost, multilevel, exact = _program()
    import_s = time.perf_counter() - t0

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        flat, tiny = small_instances(seed)
        graphs = [_graph(Hypergraph, inst) for inst in flat + tiny]
        warm = flat[0]      # one V-cycle warms every lazy path
        multilevel.multilevel_partition(graphs[0], warm.k, warm.eps,
                                        metrics[warm.metric], rng=seed)
        setups.append(time.perf_counter() - t0)

    ref_costs = [ref.flat_cost(i.ptr, i.pins, i.ref_labels, i.metric) for i in flat]
    optima = [ref.exhaustive_flat_optimum(i.ptr, i.pins, i.n, i.k, i.eps, i.metric)
              for i in tiny]
    tally = Tally()
    flat_graphs, tiny_graphs = graphs[:len(flat)], graphs[len(flat):]

    def do_round(timed) -> None:
        with timed():
            flat_parts = [multilevel.multilevel_partition(g, inst.k, inst.eps,
                                                          metrics[inst.metric],
                                                          rng=seed * 31 + j, n_jobs=1)
                          for j, (inst, g) in enumerate(zip(flat, flat_graphs))]
            tiny_parts = [(exact.exact_partition(g, inst.k, inst.eps, metrics[inst.metric],
                                                 relaxed=True),
                           multilevel.multilevel_partition(g, inst.k, inst.eps,
                                                           metrics[inst.metric],
                                                           rng=seed * 31 + j))
                          for j, (inst, g) in enumerate(zip(tiny, tiny_graphs))]
        for inst, g, part, rc in zip(flat, flat_graphs, flat_parts, ref_costs):
            c = _check_flat(tally, program_cost, inst, g, part, metrics,
                            f"multilevel {inst.name}")
            if c is not None:
                tally.ratio(c, rc)
        for inst, g, (ex, part), opt in zip(tiny, tiny_graphs, tiny_parts, optima):
            problems = ref.balance_problems(ex.partition.labels, inst.n, inst.k, inst.eps)
            mine = ref.flat_cost(inst.ptr, inst.pins, ex.partition.labels, inst.metric)
            if mine != ex.cost:
                problems.append(f"exact reports {ex.cost}, labels cost {mine}")
            if ex.cost != opt:
                problems.append(f"exact optimum {ex.cost} != exhaustive {opt}")
            tally.op(f"exact {inst.name}", problems)
            c = _check_flat(tally, program_cost, inst, g, part, metrics,
                            f"multilevel {inst.name}", optimum=opt)
            if c is not None:
                tally.ratio(c, opt)

    rounds = run_rounds(do_round, seconds, tracer=tracer)
    return {"tally": tally, "rounds": rounds, "import_s": import_s, "setups": setups}
