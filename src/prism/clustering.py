"""Symmetry clustering: distance-symmetric sets refined into path-symmetric
sets (abstract concepts).

Reached nodes are grouped by a sorted sweep over hitting-time estimates, the
gap threshold coming from the distance-symmetry test. Each group is then
recursively bisected (standardized counts, 2-D principal-component
projection, 2-means) until every cluster passes the path-symmetry test.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import linalg

from .stats import CountMatrix, path_test, theta_sym
from .stats import path_symmetric  # noqa: F401  kept bound for bench/child.py's TRACED
from .walks import WalkStats

VARIANCE_FLOOR = 1e-12
PROJ_DIM = 2  # principal components kept before each 2-means bisection


@dataclass(frozen=True)
class DistanceSet:
    """Nodes whose hitting-time estimates are pairwise-mergeable, with the
    set's representative (mean) estimate."""

    members: tuple[int, ...]
    tht: float


@dataclass(frozen=True)
class SymmetryPartition:
    """Distance-symmetric sets and their path-symmetric refinement for one
    source node. ``concept_parents[i]`` is the distance set concept i came
    from and ``margins[i]`` the per-length entries of the test that accepted
    it (``()`` for a singleton). ``unreached`` holds nodes no walk ever hit."""

    source: int
    distance_sets: tuple[DistanceSet, ...]
    concepts: tuple[tuple[int, ...], ...]
    concept_parents: tuple[int, ...]
    margins: tuple[tuple[dict, ...], ...]
    unreached: tuple[int, ...]


def partition_distance_symmetric(stats: WalkStats, alpha: float) -> list[list[int]]:
    """Group reached nodes by sweeping their sorted hitting-time estimates.

    A new group starts whenever the gap between consecutive estimates
    exceeds the merge threshold. Nodes with zero hits are left out entirely.
    """
    reached = [
        v for v in range(stats.n_nodes) if v != stats.source and stats.hits[v] > 0
    ]
    if not reached:
        return []
    theta = theta_sym(alpha, stats.L, stats.N)
    reached.sort(key=lambda v: (stats.tht[v], v))
    groups: list[list[int]] = [[reached[0]]]
    for prev, v in zip(reached, reached[1:]):
        if stats.tht[v] - stats.tht[prev] > theta:
            groups.append([v])
        else:
            groups[-1].append(v)
    return [sorted(g) for g in groups]


def standardize_and_project(counts: np.ndarray) -> np.ndarray:
    """Standardize count columns and project onto the top ``PROJ_DIM``
    principal components.

    Constant columns (variance below a small floor) are dropped before
    standardization; if fewer than ``PROJ_DIM`` informative directions
    remain, the output is padded with zero columns.
    """
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.shape[0]
    if n < 2:
        raise ValueError("need at least 2 rows to project")
    var = counts.var(axis=0)
    live = counts[:, var > VARIANCE_FLOOR]
    out = np.zeros((n, PROJ_DIM))
    if live.shape[1] == 0:
        return out
    x = (live - live.mean(axis=0)) / live.std(axis=0)
    cov = (x.T @ x) / (n - 1)
    # same LAPACK routine (syevd) as np.linalg.eigh and the same bits; numpy's
    # threaded OpenBLAS took ~15 ms per 32x32 call on a 2-core x86 machine,
    # a fixed cost per prism_paths call, scipy's ~0.1 ms
    eigvals, eigvecs = linalg.eigh(cov, driver="evd")
    order = np.argsort(eigvals)[::-1][:PROJ_DIM]
    basis = eigvecs[:, order]
    # fix component signs so projections are reproducible
    for col in range(basis.shape[1]):
        pivot = np.argmax(np.abs(basis[:, col]))
        if basis[pivot, col] < 0:
            basis[:, col] = -basis[:, col]
    out[:, : basis.shape[1]] = x @ basis
    return out


def binary_split(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic 2-means split into two non-empty index sets.

    Seeds are a two-pass farthest pair (farthest point from the centroid,
    then the point farthest from it); Lloyd iterations are capped and all
    ties resolve to the lowest index.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points to split")
    spread = ((points - points.mean(axis=0)) ** 2).sum(axis=1)
    if spread.max() <= 0:
        return np.array([0]), np.arange(1, n)
    a = int(spread.argmax())
    dist_a = ((points - points[a]) ** 2).sum(axis=1)
    b = int(dist_a.argmax())
    c1, c2 = points[a].copy(), points[b].copy()
    assign = np.zeros(n, dtype=bool)
    for _ in range(100):
        d1 = ((points - c1) ** 2).sum(axis=1)
        d2 = ((points - c2) ** 2).sum(axis=1)
        new_assign = d2 < d1  # ties stay with the first cluster
        if not new_assign.any():
            new_assign[int(d1.argmax())] = True
        elif new_assign.all():
            new_assign[int(d2.argmax())] = False
        if (new_assign == assign).all():
            break
        assign = new_assign
        c1 = points[~assign].mean(axis=0)
        c2 = points[assign].mean(axis=0)
    return np.flatnonzero(~assign), np.flatnonzero(assign)


def prism_paths(
    A: Sequence[int], stats: WalkStats, alpha: float
) -> list[tuple[list[int], tuple[dict, ...]]]:
    """Partition a node set into path-symmetric clusters, each returned with
    the per-length entries of the test that accepted it (``()`` for a
    singleton).

    The whole set is returned untouched when it already passes the test at
    every exact length. Otherwise the nodes' signature counts are projected
    once and repeatedly bisected; each side is kept when it passes (or is a
    singleton) and re-queued when it fails. Every group is tested once, at
    every length in one pass over its rows of one count matrix.
    Output clusters are sorted by smallest member id.
    """
    members = sorted(A)
    if stats.source in members:
        raise ValueError("source node cannot be clustered against itself")
    if len(members) <= 1:
        return [(members, ())]
    cm = CountMatrix.from_table(stats.signatures, members)

    def accepted(rows: np.ndarray) -> tuple[dict, ...] | None:
        entries = path_test(cm, rows, stats.N, stats.L, alpha)
        return tuple(entries) if all(e["passed"] for e in entries) else None

    everyone = np.arange(len(members))
    margins = accepted(everyone)
    if margins is not None:
        return [(members, margins)]

    points = standardize_and_project(cm.counts)
    partition: list[tuple[list[int], tuple[dict, ...]]] = []
    worklist: deque[np.ndarray] = deque([everyone])
    while worklist:
        rows = worklist.popleft()
        for side in binary_split(points[rows]):
            side_rows = rows[side]  # ascending, as members are
            margins = accepted(side_rows)  # () for a singleton
            if margins is None:
                worklist.append(side_rows)
            else:
                partition.append(([members[i] for i in side_rows], margins))
    partition.sort(key=lambda cluster: cluster[0][0])
    return partition


def symmetry_clusters(stats: WalkStats, alpha: float) -> SymmetryPartition:
    """Full two-stage clustering for one source: distance sets, then their
    path-symmetric refinement."""
    groups = partition_distance_symmetric(stats, alpha)
    distance_sets = tuple(
        DistanceSet(tuple(g), float(np.mean([stats.tht[v] for v in g]))) for g in groups
    )
    concepts: list[tuple[int, ...]] = []
    parents: list[int] = []
    margins: list[tuple[dict, ...]] = []
    for parent, group in enumerate(groups):
        for cluster, entries in prism_paths(group, stats, alpha):
            concepts.append(tuple(cluster))
            parents.append(parent)
            margins.append(entries)
    unreached = tuple(
        v
        for v in range(stats.n_nodes)
        if v != stats.source and stats.hits[v] == 0
    )
    return SymmetryPartition(
        source=stats.source,
        distance_sets=distance_sets,
        concepts=tuple(concepts),
        concept_parents=tuple(parents),
        margins=tuple(margins),
        unreached=unreached,
    )
