"""Hierarchical bipartitioning of the clique-expanded graph.

Recursive sweep cuts on the second eigenvector of the symmetric normalized
Laplacian; recursion stops when the subgraph is well connected (lambda2 above
the constant ``LAMBDA2_MAX``) or a cut would leave a side under ``N_MIN``
nodes. Leaves come out as a label array, from which ``majority_subhypergraph``
rebuilds sub-hypergraphs so no node or edge is lost.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse._sparsetools import csr_matvec  # the kernel behind csr_array @ vector

from .hypergraph import LabeledHypergraph, majority_subhypergraph, to_weighted_graph

EIG_TOLERANCE = 1e-8  # residual ||L_sym v - lambda v|| that ends power iteration
EIG_MAX_ITERS = 10000
LAMBDA2_MAX = 0.8  # a subgraph whose lambda2 is above this is a leaf
N_MIN = 8  # no cut may leave fewer nodes than this on a side


class ConvergenceError(RuntimeError):
    """Eigensolver failed to reach the requested residual."""


class DisconnectedGraphError(ValueError):
    """Operation requires a connected graph."""


def second_eigenpair(g: sparse.csr_array) -> tuple[float, np.ndarray]:
    """Second-smallest eigenpair of the symmetric normalized Laplacian of the
    weighted adjacency ``g``.

    Deflated power iteration on 2I - L_sym with the trivial eigenvector
    D^(1/2)*1 projected out. Converges when the residual
    ||L_sym v - lambda v|| drops below ``EIG_TOLERANCE``; the returned
    eigenvector has its first non-negligible component positive.

    Each step does the floating-point operations of the expression form
    ``reference_second_eigenpair`` in ``tests/oracles.py``, in the same
    order, so lambda and every bit of v equal it. On subgraphs of a few
    hundred nodes a step's arithmetic costs less than its dispatch, so
    the work vectors are allocated once per solve, ufuncs write into them,
    and ``g @ z`` is the CSR kernel that ``csr_array.__matmul__`` ends in,
    called directly into a zeroed buffer, which gives its row sums the same
    bits. Over the 36 solves ``hcluster`` makes on the benchmark's dept k10
    g2 and g4 (33,434 steps, n 19-160; min of 7, one thread, Python 3.11,
    scipy 1.17), a step took 11.7-11.9 us in the expression form and
    7.9-8.0 us here.
    """
    n = g.shape[0]
    if n < 2:
        raise ValueError("graph must have at least 2 nodes")
    if csgraph.connected_components(g, directed=False, return_labels=False) != 1:
        raise DisconnectedGraphError("second_eigenpair requires a connected graph")
    deg = g.sum(axis=1)
    inv_sqrt_deg = 1.0 / np.sqrt(deg)
    trivial = np.sqrt(deg)
    trivial /= math.sqrt(trivial @ trivial)

    rng = np.random.Generator(np.random.Philox(0xC0FFEE))
    x = rng.standard_normal(n)
    x -= trivial * (trivial @ x)
    x /= math.sqrt(x @ x)

    indptr, indices, data = g.indptr, g.indices, g.data
    z, gz, lx, r, y = (np.empty(n) for _ in range(5))
    lam = 0.0
    for _ in range(EIG_MAX_ITERS):
        np.multiply(inv_sqrt_deg, x, z)
        gz.fill(0.0)  # the kernel adds each row's sum to what gz holds
        csr_matvec(n, n, indptr, indices, data, z, gz)  # g @ z
        np.multiply(inv_sqrt_deg, gz, gz)
        np.subtract(x, gz, lx)  # L_sym x
        lam = float(np.dot(x, lx))
        np.multiply(lam, x, r)
        np.subtract(lx, r, r)
        if math.sqrt(np.dot(r, r)) <= EIG_TOLERANCE:
            break
        np.multiply(2.0, x, y)
        np.subtract(y, lx, y)  # (2I - L_sym) x
        np.multiply(trivial, np.dot(trivial, y), r)  # r is free until the next step
        np.subtract(y, r, y)
        ny = math.sqrt(np.dot(y, y))
        if ny > 1e-300:
            np.divide(y, ny, x)
    else:
        raise ConvergenceError(
            f"eigensolver did not reach residual {EIG_TOLERANCE} "
            f"in {EIG_MAX_ITERS} iterations"
        )
    nz = np.flatnonzero(np.abs(x) > 1e-12)
    if len(nz) and x[nz[0]] < 0:
        x = -x
    return lam, x


def cheeger_sweep_cut(g: sparse.csr_array, v2: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Best prefix cut of the v2 ordering by conductance.

    Nodes are sorted by their eigenvector component (ties by index); among the
    n-1 prefix sets the one minimizing cut(S)/min(vol(S), vol(~S)) is
    returned as two sorted node id arrays (the prefix, then the rest) and its
    conductance, with ties going to the shortest prefix.
    """
    n = g.shape[0]
    order = np.lexsort((np.arange(n), v2))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    deg = g.sum(axis=1)
    total_vol = float(deg.sum())
    vol = np.cumsum(deg[order])[:-1]  # vol(S_k) for the prefixes S_k, k = 1..n-1
    # An edge lies inside S_k once its later-ranked end has rank < k. Each
    # edge is stored in both directions, so the running sum is twice the
    # inner weight and cut(S_k) = vol(S_k) - inner.
    entries = g.tocoo()
    later = np.maximum(rank[entries.row], rank[entries.col])
    inner = np.cumsum(np.bincount(later, weights=entries.data, minlength=n))[:-1]
    phi = (vol - inner) / np.minimum(vol, total_vol - vol)
    best_k = int(np.argmin(phi)) + 1  # argmin keeps the first (shortest) minimum
    return np.sort(order[:best_k]), np.sort(order[best_k:]), float(phi[best_k - 1])


def get_clusters(g: sparse.csr_array) -> np.ndarray:
    """Recursive sweep-cut bipartition; returns the leaf label of every node.

    Disconnected subgraphs split into their components outright (a zero-cost
    cut). A connected subgraph of fewer than ``2 * N_MIN`` nodes is a leaf
    without an eigensolve, since no cut of it could leave ``N_MIN`` nodes on
    both sides; it therefore cannot raise ``ConvergenceError``. Otherwise
    recursion stops when lambda2 exceeds ``LAMBDA2_MAX`` or the proposed cut
    leaves a side smaller than ``N_MIN``. Both constants are read when the
    function is called. Leaves are numbered in order of their smallest node id.
    """
    if g.shape[0] == 0:
        raise ValueError("graph must be non-empty")

    leaves: list[np.ndarray] = []

    def recurse(ids: np.ndarray) -> None:
        # ids: sorted node ids of g; sub is the subgraph they induce
        if len(ids) == 1:
            leaves.append(ids)
            return
        sub = g[ids][:, ids]
        n_comp, comp = csgraph.connected_components(sub, directed=False)
        if n_comp > 1:
            for ci in range(n_comp):
                recurse(ids[comp == ci])
            return
        if len(ids) < 2 * N_MIN:  # no cut of it leaves N_MIN nodes a side
            leaves.append(ids)
            return
        lam2, v2 = second_eigenpair(sub)
        if lam2 > LAMBDA2_MAX:
            leaves.append(ids)
            return
        side, rest, _ = cheeger_sweep_cut(sub, v2)
        if min(len(side), len(rest)) < N_MIN:
            leaves.append(ids)
            return
        recurse(ids[side])
        recurse(ids[rest])

    recurse(np.arange(g.shape[0]))
    labels = np.empty(g.shape[0], dtype=np.int64)
    for i, leaf in enumerate(sorted(leaves, key=lambda ids: ids[0])):
        labels[leaf] = i
    return labels


def hcluster(h: LabeledHypergraph) -> list[LabeledHypergraph]:
    """Cut the hypergraph along sparse cuts of its clique expansion.

    The leaf labels from ``get_clusters`` (stop rules ``LAMBDA2_MAX`` and
    ``N_MIN``) become sub-hypergraphs by majority rule, keeping every node and edge.
    A piece's ``own`` nodes are its leaf's: the sources it mines. Its other
    nodes, endpoints of its edges from other leaves, are only walked to.
    """
    if h.n_nodes == 0:
        raise ValueError("hypergraph must be non-empty")
    return majority_subhypergraph(h, get_clusters(to_weighted_graph(h)))
