"""Reference computations, written apart from ``repro``.

Everything the benchmark checks the program against is computed here
from the benchmark's own arrays: the two flat cost metrics, the
Definition 7.1 hierarchical cost, the epsilon-balance cap, exhaustive
optima for tiny instances, and a checker for unit-time schedules.  No
function here imports ``repro``; ``test_reference.py`` pins each one on
hand-worked examples.

A hypergraph is given as normalised CSR arrays ``(ptr, pins)``: edge
``j`` has pins ``pins[ptr[j]:ptr[j+1]]``, all edge weights are 1.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "balance_cap",
    "balance_problems",
    "connectivity",
    "cut_net",
    "exhaustive_flat_optimum",
    "exhaustive_hier_optimum",
    "flat_cost",
    "hier_cost",
    "makespan_lower_bound",
    "schedule_problems",
]


def _lambdas(ptr: np.ndarray, pins: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Number of distinct values of ``groups[pin]`` over each edge's pins."""
    m = ptr.size - 1
    if pins.size == 0:
        return np.zeros(m, dtype=np.int64)
    width = int(groups.max()) + 1
    eid = np.repeat(np.arange(m, dtype=np.int64), np.diff(ptr))
    codes = np.unique(eid * width + groups[pins])
    return np.bincount(codes // width, minlength=m)


def connectivity(ptr, pins, labels) -> int:
    """Sum over non-empty edges of (lambda_e - 1)."""
    lam = _lambdas(ptr, pins, np.asarray(labels, dtype=np.int64))
    return int(np.maximum(lam - 1, 0).sum())


def cut_net(ptr, pins, labels) -> int:
    """Number of edges whose pins touch more than one part."""
    lam = _lambdas(ptr, pins, np.asarray(labels, dtype=np.int64))
    return int((lam > 1).sum())


def flat_cost(ptr, pins, labels, metric: str) -> int:
    """``metric`` is ``"connectivity"`` or ``"cut-net"``."""
    if metric == "connectivity":
        return connectivity(ptr, pins, labels)
    if metric == "cut-net":
        return cut_net(ptr, pins, labels)
    raise ValueError(f"unknown metric {metric!r}")


def hier_cost(ptr, pins, labels, b: tuple, g: tuple) -> float:
    """Definition 7.1: sum over edges of sum_i g_i (lambda^(i) - lambda^(i-1)).

    Leaves are numbered in canonical tree order, so the level-``i``
    ancestor of leaf ``x`` is ``x // prod(b[i:])`` (levels 1..d, with
    level ``d`` the leaves themselves) and ``lambda^(0) = 1``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    m = ptr.size - 1
    prev = np.ones(m, dtype=np.int64)
    total = np.zeros(m, dtype=np.float64)
    nonempty = np.diff(ptr) > 0
    for level in range(1, len(b) + 1):
        below = math.prod(b[level:])
        lam = _lambdas(ptr, pins, labels // below)
        lam = np.where(nonempty, lam, 1)
        total += g[level - 1] * (lam - prev)
        prev = lam
    return float(total.sum())


def balance_cap(n: int, k: int, eps: float, relaxed: bool) -> int:
    """Largest allowed part size (1+eps)*n/k, rounded up when ``relaxed``
    and down otherwise; a value within 1e-9 of an integer is that integer."""
    exact = (1.0 + eps) * n / k
    if abs(exact - round(exact)) < 1e-9 * max(1.0, exact):
        return int(round(exact))
    return math.ceil(exact) if relaxed else math.floor(exact)


def balance_problems(labels, n: int, k: int, eps: float,
                     relaxed: bool = True) -> list[str]:
    """Empty when ``labels`` is a length-``n`` labelling into ``[0, k)``
    whose every part holds at most ``balance_cap`` nodes."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        return [f"expected {n} labels, got shape {labels.shape}"]
    if n and (labels.min() < 0 or labels.max() >= k):
        return [f"label outside [0, {k})"]
    cap = balance_cap(n, k, eps, relaxed)
    sizes = np.bincount(labels.astype(np.int64), minlength=k)
    if sizes.max(initial=0) > cap:
        return [f"part of size {int(sizes.max())} exceeds cap {cap}"]
    return []


def _balanced_labelings(n: int, k: int, cap: int):
    """Every labelling of ``n`` nodes into ``k`` parts of size <= cap."""
    labels = [0] * n
    sizes = [0] * k

    def rec(v: int):
        if v == n:
            yield labels
            return
        for p in range(k):
            if sizes[p] < cap:
                labels[v] = p
                sizes[p] += 1
                yield from rec(v + 1)
                sizes[p] -= 1

    yield from rec(0)


def _edge_lists(ptr, pins) -> list[list[int]]:
    return [pins[ptr[j]:ptr[j + 1]].tolist() for j in range(ptr.size - 1)]


def exhaustive_flat_optimum(ptr, pins, n: int, k: int, eps: float,
                            metric: str, relaxed: bool = True) -> int:
    """Minimum flat cost over every balanced labelling (tiny n only)."""
    edges = _edge_lists(ptr, pins)
    cap = balance_cap(n, k, eps, relaxed)
    best = None
    for labels in _balanced_labelings(n, k, cap):
        c = 0
        for e in edges:
            lam = len({labels[v] for v in e})
            c += (lam - 1) if metric == "connectivity" else int(lam > 1)
        if best is None or c < best:
            best = c
    if best is None:
        raise ValueError("no balanced labelling exists")
    return best


def exhaustive_hier_optimum(ptr, pins, n: int, b: tuple, g: tuple,
                            eps: float, relaxed: bool = False) -> float:
    """Minimum Definition 7.1 cost over every balanced leaf labelling."""
    edges = _edge_lists(ptr, pins)
    k = math.prod(b)
    divisors = [math.prod(b[level:]) for level in range(1, len(b) + 1)]
    cap = balance_cap(n, k, eps, relaxed)
    best = None
    for labels in _balanced_labelings(n, k, cap):
        c = 0.0
        for e in edges:
            if not e:
                continue
            prev = 1
            for level, div in enumerate(divisors):
                lam = len({labels[v] // div for v in e})
                c += g[level] * (lam - prev)
                prev = lam
        if best is None or c < best:
            best = c
    if best is None:
        raise ValueError("no balanced labelling exists")
    return best


def makespan_lower_bound(n: int, dag_edges: np.ndarray, k: int) -> int:
    """max(ceil(n/k), nodes on the longest path) for unit-time tasks."""
    if n == 0:
        return 0
    depth = np.ones(n, dtype=np.int64)
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = np.zeros(n, dtype=np.int64)
    for u, v in dag_edges.tolist():
        succ[u].append(v)
        indeg[v] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for v in succ[u]:
            depth[v] = max(depth[v], depth[u] + 1)
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    if seen != n:
        raise ValueError("dag_edges contain a cycle")
    return max(-(-n // k), int(depth.max()))


def schedule_problems(n: int, dag_edges: np.ndarray, k: int, procs, times,
                      makespan: int) -> list[str]:
    """Empty when a unit-time schedule is valid: every task on a processor
    in ``[0, k)`` at a step >= 1, at most one task per processor per step,
    every edge ``u -> v`` has ``times[u] < times[v]``, and the reported
    makespan is the last step and at least the lower bound."""
    procs = np.asarray(procs, dtype=np.int64)
    times = np.asarray(times, dtype=np.int64)
    if procs.shape != (n,) or times.shape != (n,):
        return ["schedule does not cover every task exactly once"]
    out = []
    if n and (procs.min() < 0 or procs.max() >= k):
        out.append("processor outside [0, k)")
    if n and times.min() < 1:
        out.append("time step below 1")
    slots = set(zip(procs.tolist(), times.tolist()))
    if len(slots) != n:
        out.append("two tasks share a processor in one step")
    if dag_edges.size and not np.all(times[dag_edges[:, 0]] < times[dag_edges[:, 1]]):
        out.append("a task starts before one of its predecessors finished")
    if n and int(times.max()) != makespan:
        out.append(f"reported makespan {makespan} != last step {int(times.max())}")
    if makespan < makespan_lower_bound(n, dag_edges, k):
        out.append("makespan below the lower bound")
    return out
