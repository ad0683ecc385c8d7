"""Symmetry clustering: distance-symmetric sets refined into path-symmetric
sets (abstract concepts).

Reached nodes are grouped by a sorted sweep over hitting-time estimates, the
gap threshold coming from the distance-symmetry test. Each group is then
recursively bisected (standardized counts, 2-D principal-component
projection, 2-means) until every cluster passes the path-symmetry test. The
projection eigendecomposes the smaller side of a set's count block: the
columns' covariance when it has at least as many rows as live columns, else
the rows' Gram matrix.

The refinement runs over many sets at once, one bisection depth at a time:
every group of a depth is tested in one ``path_test`` call and every failing
group is bisected in one ``binary_split`` call, each computing a group from
its own rows only, so a set's concepts do not depend on the sets refined
beside it. A set is projected once, when it fails as a whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import linalg

from .stats import CountRows, PathTests, path_test, theta_sym
from .stats import path_symmetric  # noqa: F401  kept bound for bench/child.py's TRACED
from .walks import WalkStats

VARIANCE_FLOOR = 1e-12
GRAM_FLOOR = 1e-9  # share of the total variance below which a Gram-side direction is noise
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
    reached = np.flatnonzero(stats.hits > 0)
    reached = reached[reached != stats.source]
    if not len(reached):
        return []
    theta = theta_sym(alpha, stats.L, stats.N)
    tht = stats.tht[reached]
    order = np.lexsort((reached, tht))
    cuts = np.flatnonzero(np.diff(tht[order]) > theta) + 1
    return [np.sort(g).tolist() for g in np.split(reached[order], cuts)]


def standardize_and_project(counts: np.ndarray) -> np.ndarray:
    """Standardize count columns and project onto the top ``PROJ_DIM``
    principal components.

    Constant columns (variance below a small floor) are dropped before
    standardization. A block with fewer rows than live columns takes its
    directions from the rows' n x n Gram matrix instead of the columns'
    covariance (the snapshot method, Sirovich 1987), and keeps only those
    whose share of the total variance is above ``GRAM_FLOOR``. If fewer
    than ``PROJ_DIM`` directions remain, the output is padded with zero
    columns.
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
    if n < x.shape[1]:
        # x xᵀ u = w u makes xᵀu / ‖xᵀu‖ a direction of variance w / (n - 1).
        # The w sum to x.size, and eigh leaves each an error of about
        # eps * x.size; xᵀu of a w that small points anywhere, even along the
        # first direction, so the floor is a share of x.size
        w, u = linalg.eigh(x @ x.T, driver="evd")
        order = np.argsort(w)[::-1][:PROJ_DIM]
        order = order[w[order] > GRAM_FLOOR * x.size]
        basis = x.T @ u[:, order]
        basis /= np.linalg.norm(basis, axis=0)
    else:
        cov = (x.T @ x) / (n - 1)
        # this side keeps the bits of np.linalg.eigh: the same LAPACK routine
        # (syevd); numpy's threaded OpenBLAS took ~15 ms per 32x32 call on a
        # 2-core x86 machine, a fixed cost per prism_paths call, scipy's ~0.1 ms
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


def binary_split(points: np.ndarray, sizes: Sequence[int] | None = None) -> np.ndarray:
    """Deterministic 2-means split of each group of points into two
    non-empty sides; True marks a point of the second side.

    Group g is the next ``sizes[g]`` (at least 2) rows of ``points``; by
    default all rows are one group. Per group, the seeds are a two-pass
    farthest pair (farthest point from the centroid, then the point farthest
    from it), Lloyd iterations stop when the sides stop changing or after
    100 rounds, and all ties resolve to the lowest index. Every centroid is
    a ``np.bincount`` over one group's rows in row order, so a group splits
    as it would alone.
    """
    points = np.asarray(points, dtype=np.float64)
    sizes = np.array([len(points)] if sizes is None else sizes, dtype=np.intp)
    if (sizes < 2).any():
        raise ValueError("need at least 2 points to split")
    n_groups = len(sizes)
    starts = np.cumsum(sizes) - sizes
    group = np.repeat(np.arange(n_groups), sizes)

    def sums(key, n_keys):
        return np.stack([np.bincount(key, col, n_keys) for col in points.T], axis=1)

    def sq_dist(centers):
        return ((points - centers[group]) ** 2).sum(axis=1)

    def first_argmax(v):
        at = np.flatnonzero(v == np.maximum.reduceat(v, starts)[group])
        return at[np.diff(group[at], prepend=-1) > 0]

    spread = sq_dist(sums(group, n_groups) / sizes[:, None])
    moving = np.maximum.reduceat(spread, starts) > 0
    # a group with no spread puts its first point alone on the first side
    assign = ~moving[group]
    assign[starts] = False
    c1 = points[first_argmax(spread)]
    c2 = points[first_argmax(sq_dist(c1))]
    active = moving
    for _ in range(100):
        if not active.any():
            break
        d1, d2 = sq_dist(c1), sq_dist(c2)
        new = d2 < d1  # ties stay with the first cluster
        second = np.bincount(group, new, n_groups)
        if (second == 0).any():
            new[first_argmax(d1)[second == 0]] = True
        if (second == sizes).any():
            new[first_argmax(d2)[second == sizes]] = False
        active = active & (np.bincount(group, new != assign, n_groups) > 0)
        assign = np.where(active[group], new, assign)
        key = 2 * group + assign
        # a settled group keeps its sides, whatever its centroids
        means = sums(key, 2 * n_groups) / np.bincount(key, minlength=2 * n_groups)[:, None]
        c1, c2 = means[0::2], means[1::2]
    return assign


def refine_sets(
    sets: Sequence[tuple[WalkStats, Sequence[int]]], alpha: float
) -> list[list[tuple[list[int], tuple[dict, ...]]]]:
    """Partition each (walk stats, node set) pair into path-symmetric
    clusters, each returned with the per-length entries of the test that
    accepted it (``()`` for a singleton). Every pair's stats share N and L.

    A set is returned untouched when it passes the test at every exact
    length. Otherwise its signature counts are projected once and
    repeatedly bisected; each side is kept when it passes (or is a
    singleton) and bisected again when it fails. All groups of one depth,
    across sets, are tested in one ``path_test`` call and bisected in one
    ``binary_split`` call. Every group is tested once, at every length.
    Each set's clusters are sorted by smallest member id.
    """
    members = [sorted(A) for _, A in sets]
    for (stats, _), mem in zip(sets, members):
        if stats.source in mem:
            raise ValueError("source node cannot be clustered against itself")
    if len({(stats.N, stats.L) for stats, _ in sets}) > 1:
        raise ValueError("sets refined together need one walk count and length")
    partitions = [[(mem, ())] if len(mem) <= 1 else [] for mem in members]
    owner = np.array([i for i, mem in enumerate(members) if len(mem) > 1], dtype=np.intp)
    if not len(owner):
        return partitions
    cr = CountRows.from_tables(
        [(sets[i][0].source, sets[i][0].signatures, members[i]) for i in owner]
    )
    N, L = sets[owner[0]][0].N, sets[owner[0]][0].L
    sizes = np.array([len(members[i]) for i in owner], dtype=np.intp)
    rows = np.arange(sizes.sum())
    points = None
    while len(owner):
        tests = path_test(cr, rows, sizes, N, L, alpha)
        ok = tests.passed.all(axis=1)
        ends = np.cumsum(sizes).tolist()
        targets = cr.target[rows].tolist()
        margins = PathTests(*(a[ok] for a in tests)).entries()
        for g, i, entries in zip(np.flatnonzero(ok).tolist(), owner[ok].tolist(), margins):
            partitions[i].append((targets[ends[g] - sizes[g] : ends[g]], tuple(entries)))
        if points is None:  # the first depth: project each set that fails whole
            points = np.zeros((len(rows), PROJ_DIM))
            for g in np.flatnonzero(~ok).tolist():
                lo = ends[g] - sizes[g]
                points[lo : ends[g]] = standardize_and_project(cr.dense(lo, ends[g]))
        rows, sizes, owner = rows[np.repeat(~ok, sizes)], sizes[~ok], owner[~ok]
        if not len(owner):
            break
        # each group's first side, then its second, each in row order
        key = 2 * np.repeat(np.arange(len(sizes)), sizes) + binary_split(points[rows], sizes)
        rows = rows[np.argsort(key, kind="stable")]
        sizes = np.bincount(key, minlength=2 * len(sizes))
        owner = np.repeat(owner, 2)
        single = sizes == 1
        alone = rows[(np.cumsum(sizes) - sizes)[single]]
        for i, v in zip(owner[single].tolist(), cr.target[alone].tolist()):
            partitions[i].append(([v], ()))
        rows, sizes, owner = rows[np.repeat(~single, sizes)], sizes[~single], owner[~single]
    for part in partitions:
        part.sort(key=lambda cluster: cluster[0][0])
    return partitions


def prism_paths(
    A: Sequence[int], stats: WalkStats, alpha: float
) -> list[tuple[list[int], tuple[dict, ...]]]:
    """Partition one node set into path-symmetric clusters (``refine_sets``
    of the one pair), each with the per-length entries of the test that
    accepted it (``()`` for a singleton), sorted by smallest member id."""
    return refine_sets([(stats, A)], alpha)[0]


def symmetry_clusters(stats: Sequence[WalkStats], alpha: float) -> list[SymmetryPartition]:
    """Full two-stage clustering for each of several sources that share N
    and L: distance sets, then the path-symmetric refinement of all of them
    together."""
    groups = [partition_distance_symmetric(st, alpha) for st in stats]
    refined = iter(refine_sets([(st, g) for st, gs in zip(stats, groups) for g in gs], alpha))
    out = []
    for st, gs in zip(stats, groups):
        concepts: list[tuple[int, ...]] = []
        parents: list[int] = []
        margins: list[tuple[dict, ...]] = []
        for parent in range(len(gs)):
            for cluster, entries in next(refined):
                concepts.append(tuple(cluster))
                parents.append(parent)
                margins.append(entries)
        unreached = np.flatnonzero(st.hits == 0)
        out.append(
            SymmetryPartition(
                source=st.source,
                distance_sets=tuple(DistanceSet(tuple(g), float(st.tht[g].mean())) for g in gs),
                concepts=tuple(concepts),
                concept_parents=tuple(parents),
                margins=tuple(margins),
                unreached=tuple(unreached[unreached != st.source].tolist()),
            )
        )
    return out
