"""Seeded input generators, written apart from ``repro``.

The benchmark makes its own inputs so that a change to
``repro.generators`` cannot change what is measured.  Every generator
takes a ``numpy.random.Generator`` and returns normalised CSR arrays
(pins strictly increasing inside each edge) plus a reference labelling
the benchmark scores the program's result against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Instance",
    "laplacian_2d",
    "layered_hyperdag",
    "planted",
    "spmv_random",
    "tiny_connected",
]


@dataclass
class Instance:
    """One hypergraph with the parameters it is partitioned under.

    ``ref_labels`` is the labelling whose cost is the reference for
    ``cost_ratio``: the planted one where the generator plants one,
    otherwise one the benchmark builds (contiguous blocks).
    """

    name: str
    n: int
    ptr: np.ndarray
    pins: np.ndarray
    k: int
    eps: float
    metric: str = "connectivity"
    ref_labels: np.ndarray | None = None
    dag_edges: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), np.int64))


def _distinct_rows(rng, m: int, size: int, lo, hi) -> np.ndarray:
    """``m`` sorted rows of ``size`` distinct ints from ``[lo_i, hi_i)``."""
    lo = np.broadcast_to(np.asarray(lo, dtype=np.int64), (m,))
    hi = np.broadcast_to(np.asarray(hi, dtype=np.int64), (m,))
    rows = np.sort(rng.integers(lo[:, None], hi[:, None], size=(m, size)), axis=1)
    while True:
        bad = np.flatnonzero((rows[:, 1:] == rows[:, :-1]).any(axis=1))
        if bad.size == 0:
            return rows
        rows[bad] = np.sort(rng.integers(lo[bad, None], hi[bad, None],
                                         size=(bad.size, size)), axis=1)


def _csr_from_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m, size = rows.shape
    return np.arange(0, (m + 1) * size, size, dtype=np.int64), rows.reshape(-1)


def _blocks(n: int, k: int) -> np.ndarray:
    """Labels of ``k`` near-equal contiguous blocks of ``0..n-1``."""
    return (np.arange(n, dtype=np.int64) * k) // n


def planted(rng, name: str, n: int, k: int, m_intra: int, m_inter: int,
            size: int, eps: float) -> Instance:
    """``size``-uniform hypergraph with a planted balanced k-way cut.

    Parts are the contiguous blocks of a random permutation; intra edges
    draw all pins inside one part, inter edges draw them anywhere, so
    the planted labelling costs at most ``m_inter``.
    """
    perm = rng.permutation(n)
    slot_part = _blocks(n, k)
    bounds = np.searchsorted(slot_part, np.arange(k + 1))
    part = rng.integers(0, k, size=m_intra)
    intra = _distinct_rows(rng, m_intra, size, bounds[part], bounds[part + 1])
    inter = _distinct_rows(rng, m_inter, size, 0, n)
    rows = np.sort(perm[np.concatenate([intra, inter])], axis=1)
    ptr, pins = _csr_from_rows(rows)
    labels = np.empty(n, dtype=np.int64)
    labels[perm] = slot_part
    return Instance(name, n, ptr, pins, k, eps, ref_labels=labels)


def _fine_grain(mask: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Fine-grain SpMV hypergraph of a sparsity pattern: one node per
    nonzero (row-major ids), one edge per row and per column."""
    rr, cc = np.nonzero(mask)              # row-major order
    nnz = rr.size
    ids = np.arange(nnz, dtype=np.int64)
    row_ptr = np.concatenate([[0], np.cumsum(np.bincount(rr, minlength=mask.shape[0]))])
    col_order = np.lexsort((rr, cc))       # by column, then row => ids ascend
    col_ptr = np.concatenate([[0], np.cumsum(np.bincount(cc, minlength=mask.shape[1]))])
    ptr = np.concatenate([row_ptr, nnz + col_ptr[1:]]).astype(np.int64)
    pins = np.concatenate([ids, ids[col_order]])
    return nnz, ptr, pins


def spmv_random(rng, name: str, rows: int, cols: int, density: float, k: int,
                eps: float, metric: str) -> Instance:
    """Random fine-grain SpMV instance: every node lies in exactly two
    edges (its row and its column), the class of Theorem 4.1.  The
    reference cuts the row-major nonzero order into k equal blocks."""
    mask = rng.random((rows, cols)) < density
    empty = np.flatnonzero(~mask.any(axis=1))
    mask[empty, rng.integers(0, cols, size=empty.size)] = True
    empty = np.flatnonzero(~mask.any(axis=0))
    mask[rng.integers(0, rows, size=empty.size), empty] = True
    n, ptr, pins = _fine_grain(mask)
    return Instance(name, n, ptr, pins, k, eps, metric, ref_labels=_blocks(n, k))


def laplacian_2d(name: str, grid: int, k: int, eps: float) -> Instance:
    """Fine-grain instance of the 5-point Laplacian on a grid x grid
    mesh; the reference cuts the row-major nonzeros into k strips."""
    N = grid * grid
    x, y = np.divmod(np.arange(N), grid)
    mask = np.eye(N, dtype=bool)
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ok = (x + dx >= 0) & (x + dx < grid) & (y + dy >= 0) & (y + dy < grid)
        mask[np.flatnonzero(ok), ((x + dx) * grid + y + dy)[ok]] = True
    n, ptr, pins = _fine_grain(mask)
    return Instance(name, n, ptr, pins, k, eps, ref_labels=_blocks(n, k))


def layered_hyperdag(rng, name: str, layers: int, width: int, p: float,
                     k: int, eps: float) -> Instance:
    """HyperDAG of a random layered DAG.

    Edges join consecutive layers with probability ``p``; every node
    past the first layer gets at least one predecessor.  Node ``u``
    generates the hyperedge ``{u} | succ(u)``, and sinks keep their
    singleton edge, so the generator of every hyperedge is unique and
    the DAG recovered from the hypergraph is exactly ``dag_edges``.
    The reference cuts the layer-ordered node ids into k blocks.
    """
    n = layers * width
    src, dst = [], []
    for layer in range(layers - 1):
        adj = rng.random((width, width)) < p
        orphan = np.flatnonzero(~adj.any(axis=0))
        adj[rng.integers(0, width, size=orphan.size), orphan] = True
        u, v = np.nonzero(adj)
        src.append(layer * width + u)
        dst.append((layer + 1) * width + v)
    dag = np.stack([np.concatenate(src), np.concatenate(dst)], axis=1)
    dag = dag[np.lexsort((dag[:, 1], dag[:, 0]))]
    out_deg = np.bincount(dag[:, 0], minlength=n)
    ptr = np.concatenate([[0], np.cumsum(out_deg + 1)]).astype(np.int64)
    pins = np.empty(ptr[-1], dtype=np.int64)
    pins[ptr[:-1]] = np.arange(n)          # the generator leads its edge
    rest = np.ones(ptr[-1], dtype=bool)
    rest[ptr[:-1]] = False
    pins[rest] = dag[:, 1]                 # successors, ascending per source
    return Instance(name, n, ptr, pins, k, eps, ref_labels=_blocks(n, k),
                    dag_edges=dag)


def tiny_connected(rng, name: str, n: int, m: int, size: int, k: int,
                   eps: float, metric: str = "connectivity") -> Instance:
    """Small random hypergraph made connected by a spanning path of
    2-pin edges, so every balanced split has a positive optimum."""
    path = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    extra = _distinct_rows(rng, m, size, 0, n)
    edges = [tuple(e) for e in path.tolist()] + [tuple(e) for e in extra.tolist()]
    ptr = np.concatenate([[0], np.cumsum([len(e) for e in edges])]).astype(np.int64)
    pins = np.fromiter((v for e in edges for v in e), dtype=np.int64)
    return Instance(name, n, ptr, pins, k, eps, metric)
