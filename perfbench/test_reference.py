"""Hand-worked examples pinning the benchmark's own reference code.

    python3 -m pytest perfbench/test_reference.py -q
"""

from __future__ import annotations

import numpy as np
import pytest

import instances as gen
import reference as ref
from spans import Tracer


def csr(edges):
    ptr = np.concatenate([[0], np.cumsum([len(e) for e in edges])]).astype(np.int64)
    return ptr, np.array([v for e in edges for v in e], dtype=np.int64)


# e0 spans parts {0, 1, 2}, e1 is uncut, e2 and e3 span two parts, e4 is a
# singleton: connectivity 2 + 0 + 1 + 1 + 0 = 4, cut-net 1 + 0 + 1 + 1 + 0 = 3
FIVE = csr([(0, 1, 2, 4), (2, 3), (3, 4), (0, 4), (1,)])
FIVE_LABELS = [0, 0, 1, 1, 2]


def test_flat_costs():
    assert ref.connectivity(*FIVE, FIVE_LABELS) == 4
    assert ref.cut_net(*FIVE, FIVE_LABELS) == 3
    assert ref.flat_cost(*FIVE, FIVE_LABELS, "cut-net") == 3
    assert ref.connectivity(*FIVE, [0] * 5) == 0
    with pytest.raises(ValueError):
        ref.flat_cost(*FIVE, FIVE_LABELS, "km1")


def test_hier_cost_definition_7_1():
    # tree (2, 2) with g = (4, 1): leaves {0, 1} and {2, 3} are siblings.
    # {0,1}: lambda = (1, 2) -> 1;  {1,2}: (2, 2) -> 4;  {0,1,2,3}: (2, 4)
    # -> 4 + 2 = 6;  {3}: 0.  Total 11; connectivity 1 + 1 + 3 + 0 = 5.
    ptr, pins = csr([(0, 1), (1, 2), (0, 1, 2, 3), (3,)])
    labels = [0, 1, 2, 3]
    assert ref.hier_cost(ptr, pins, labels, (2, 2), (4.0, 1.0)) == 11.0
    assert ref.connectivity(ptr, pins, labels) == 5
    # a depth-1 tree is g_1 times connectivity
    assert ref.hier_cost(ptr, pins, labels, (4,), (3.0,)) == 15.0


def test_balance_cap_and_check():
    assert ref.balance_cap(10, 3, 0.0, relaxed=True) == 4
    assert ref.balance_cap(10, 3, 0.0, relaxed=False) == 3
    assert ref.balance_cap(12, 2, 0.5, relaxed=False) == 9      # exact, not 8
    labels = [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert ref.balance_problems(labels, 10, 3, 0.0, relaxed=True) == []
    assert ref.balance_problems(labels, 10, 3, 0.0, relaxed=False)
    assert ref.balance_problems([0, 3], 2, 3, 0.5)               # label out of range
    assert ref.balance_problems([0], 2, 2, 0.0)                 # wrong length


def test_exhaustive_flat_optimum():
    path = csr([(0, 1), (1, 2), (2, 3)])
    cycle = csr([(0, 1), (1, 2), (2, 3), (0, 3)])
    wide = csr([(0, 1, 2), (2, 3)])      # the 3-pin edge cannot stay whole
    assert ref.exhaustive_flat_optimum(*path, 4, 2, 0.0, "connectivity") == 1
    assert ref.exhaustive_flat_optimum(*cycle, 4, 2, 0.0, "cut-net") == 2
    assert ref.exhaustive_flat_optimum(*wide, 4, 2, 0.0, "connectivity") == 1
    # eps = 1 lets one part take everything
    assert ref.exhaustive_flat_optimum(*cycle, 4, 2, 1.0, "connectivity") == 0


def test_exhaustive_hier_optimum():
    # one node per leaf: {0,1} and {2,3} go to sibling leaves (cost 1 each)
    # and the edge {1,2} must cross the top level (cost 4)
    ptr, pins = csr([(0, 1), (2, 3), (1, 2)])
    assert ref.exhaustive_hier_optimum(ptr, pins, 4, (2, 2), (4.0, 1.0), 0.0) == 6.0
    ptr, pins = csr([(0, 1), (2, 3)])
    assert ref.exhaustive_hier_optimum(ptr, pins, 4, (2, 2), (4.0, 1.0), 0.0) == 2.0


CHAIN = np.array([[0, 1], [1, 2]], dtype=np.int64)       # 0 -> 1 -> 2; 3, 4 free


def test_makespan_lower_bound():
    assert ref.makespan_lower_bound(5, CHAIN, 2) == 3      # the chain
    assert ref.makespan_lower_bound(5, CHAIN, 1) == 5      # one processor
    with pytest.raises(ValueError):
        ref.makespan_lower_bound(2, np.array([[0, 1], [1, 0]]), 1)


def test_schedule_problems():
    ok = dict(procs=[0, 0, 0, 1, 1], times=[1, 2, 3, 1, 2], makespan=3)
    assert ref.schedule_problems(5, CHAIN, 2, **ok) == []
    early = dict(ok, times=[1, 1, 3, 2, 3])                 # 1 starts with 0
    assert any("predecessor" in p for p in ref.schedule_problems(5, CHAIN, 2, **early))
    clash = dict(ok, procs=[0, 0, 0, 0, 1], times=[1, 2, 3, 1, 2])
    assert any("share" in p for p in ref.schedule_problems(5, CHAIN, 2, **clash))
    wrong = dict(ok, makespan=4)
    assert ref.schedule_problems(5, CHAIN, 2, **wrong)
    assert ref.schedule_problems(5, CHAIN, 3, procs=[0, 1, 2, 0, 1],
                                 times=[1, 2, 3, 4, 4], makespan=4) == []
    assert ref.schedule_problems(5, CHAIN, 2, procs=[0, 0, 0, 1, 2],
                                 times=[1, 2, 3, 1, 1], makespan=3)   # processor 2


def test_generators():
    rng = np.random.default_rng(0)
    inst = gen.planted(rng, "p", 200, 4, 150, 20, 3, 0.1)
    assert np.all(np.diff(inst.pins.reshape(-1, 3), axis=1) > 0)
    assert ref.connectivity(inst.ptr, inst.pins, inst.ref_labels) <= 2 * 20
    assert ref.balance_problems(inst.ref_labels, 200, 4, 0.0) == []
    spmv = gen.spmv_random(rng, "s", 20, 30, 0.2, 4, 0.0, "cut-net")
    assert np.all(np.bincount(spmv.pins, minlength=spmv.n) == 2)   # Delta = 2
    assert spmv.ptr.size - 1 == 20 + 30
    lap = gen.laplacian_2d("l", 3, 2, 0.0)
    assert lap.n == 9 + 2 * (2 * 3 * 2)                    # 33 nonzeros
    dag = gen.layered_hyperdag(rng, "d", 4, 5, 0.3, 2, 0.0)
    firsts = dag.pins[dag.ptr[:-1]]
    assert np.array_equal(firsts, np.arange(dag.n))       # node j generates edge j
    rebuilt = {(int(dag.pins[dag.ptr[j]]), int(v)) for j in range(dag.n)
               for v in dag.pins[dag.ptr[j] + 1:dag.ptr[j + 1]]}
    assert rebuilt == set(map(tuple, dag.dag_edges.tolist()))
    assert set(dag.dag_edges[:, 1].tolist()) == set(range(5, 20))  # no orphans
    tiny = gen.tiny_connected(rng, "t", 8, 4, 3, 2, 0.0)
    assert ref.exhaustive_flat_optimum(tiny.ptr, tiny.pins, 8, 2, 0.0, "connectivity") >= 1


def test_span_self_time():
    tracer = Tracer()
    tracer.spans[:] = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0],
                       ["b", 5.0, 6.0, 0], ["c", 2.0, 3.0, 1]]
    summary = tracer.summary()
    assert summary["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert summary["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert summary["c"]["self_s"] == 1.0
    assert summary["_top_s"] == 10.0
    # a summary from a mark sees only the later spans
    assert tracer.summary(3)["_top_s"] == 1.0
