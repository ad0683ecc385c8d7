"""Symmetry clustering: distance-symmetric sets refined into path-symmetric
sets (abstract concepts).

Reached nodes are grouped by a sorted sweep over hitting-time estimates, the
gap threshold coming from the distance-symmetry test; one lexsort sweeps
every source of a block. Each group is then recursively bisected
(standardized counts, 2-D principal-component projection, 2-means) until
every cluster passes the path-symmetry test. The projection eigendecomposes
the smaller of x xᵀ and xᵀx, x a set's standardized count block, and keeps
the signs LAPACK returns: negating a column of points moves no 2-means split.

The refinement runs over a batch of sets (``CountRows.batches``) at once, one
bisection depth at a time: each group of a depth is tested in one ``path_test``
call and every failing group is bisected in one ``binary_split`` call, each
computing a group from its own rows only, so a set's concepts do not depend on
the sets refined beside it. A set is projected once, when it fails as a whole
(a pair, which 2-means splits one and one, not at all): the failing sets of
one row count are standardized together, in passes of about
``PROJECT_CELLS`` dense cells, and each then takes one ``linalg.eigh`` call.
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
RANK_FLOOR = 1e-9  # share of the total variance below which a direction is rounding noise
PROJ_DIM = 2  # principal components kept before each 2-means bisection
TIE_RTOL = 1e-9  # relative gap below which 2-means takes two distances as tied
# dense cells (rows × columns) per stripes array of project_rows: a batch
# bounds positive counts, not the dense blocks its failing sets project from
PROJECT_CELLS = 2**16


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


def distance_sets(stats: Sequence[WalkStats], alpha: float) -> list[list[DistanceSet]]:
    """Group each source's reached nodes by sweeping its sorted hitting-time
    estimates; every source shares N and L, so one merge threshold serves.

    A new set starts whenever the gap between consecutive estimates of one
    source exceeds the threshold. Nodes with zero hits, and the source, are
    left out entirely. One lexsort orders every reached (source, node) pair
    of the block by source, estimate and node; each set's members are
    sorted by node. The sets' mean estimates are taken one row of a C-ordered
    block per set, one block per set size, which rounds as the mean of each
    set's estimates alone.
    """
    if not len(stats):
        return []
    if len({(st.N, st.L) for st in stats}) > 1:
        raise ValueError("sources partitioned together need one walk count and length")
    reached = [np.flatnonzero(st.hits > 0) for st in stats]
    reached = [r[r != st.source] for r, st in zip(reached, stats)]
    source = np.repeat(np.arange(len(stats)), [len(r) for r in reached])
    node = np.concatenate(reached)
    tht = np.concatenate([st.tht[r] for r, st in zip(reached, stats)])
    order = np.lexsort((node, tht, source))
    source, node, tht = source[order], node[order], tht[order]
    theta = theta_sym(alpha, stats[0].L, stats[0].N)
    new = np.ones(len(node), dtype=bool)
    new[1:] = (source[1:] != source[:-1]) | (np.diff(tht) > theta)
    first = np.flatnonzero(new)
    by_node = np.lexsort((node, np.cumsum(new)))
    node, tht = node[by_node], tht[by_node]
    size = np.diff(first, append=len(node))
    mean = np.empty(len(first))
    for m in np.unique(size).tolist():
        at = np.flatnonzero(size == m)
        mean[at] = tht[first[at, None] + np.arange(m)].mean(axis=1)
    members = node.tolist()
    out: list[list[DistanceSet]] = [[] for _ in stats]
    bounds = zip(first.tolist(), (first + size).tolist())
    for s, (a, b), t in zip(source[first].tolist(), bounds, mean.tolist()):
        out[s].append(DistanceSet(tuple(members[a:b]), t))
    return out


def _project_stripes(
    stripes: np.ndarray, widths: Sequence[int], out: np.ndarray, first: Sequence[int]
) -> None:
    """Write the projection of each count matrix held in ``stripes`` to the
    zeroed rows ``out[first[s] : first[s] + n]``.

    ``stripes`` is C-ordered, one row per (matrix, column) and one column per
    matrix row: matrix s is the next ``widths[s]`` rows, all with n rows.
    The mean, deviations and variance of every column are taken once for
    all matrices. numpy sums a contiguous row pairwise, just as it sums each
    column of an F-ordered (n, w) block such as ``counts[:, mask]``, so the
    moments have the bits of a per-matrix ``live.mean(axis=0)`` and
    ``live.std(axis=0)``; the columns of a C-ordered (n, w) block it sums
    sequentially, which rounds differently once n is 8 or more. A constant
    count column has variance exactly 0 and any other about 1/n or more, so
    the live test decides alike in either order. Each matrix's standardized
    live columns ``x`` are then an F-ordered (n, w) view, and the rest is per
    matrix: one ``linalg.eigh`` call, the top ``PROJ_DIM`` directions above
    ``RANK_FLOOR`` and ``x @ basis``. ``np.linalg.eigh`` gives the same
    bits, but numpy's OpenBLAS threads it from order 32 on: twice the CPU
    time, no faster.
    """
    n = stripes.shape[1]
    mean = stripes.sum(axis=1) / n
    d = stripes - mean[:, None]
    var = (d * d).sum(axis=1) / n
    live = var > VARIANCE_FLOOR
    x_all = d[live] / np.sqrt(var[live])[:, None]
    n_live = np.bincount(np.repeat(np.arange(len(widths)), widths)[live], minlength=len(widths))
    ends = np.cumsum(n_live)
    for a, b, r in zip((ends - n_live).tolist(), ends.tolist(), first):
        if a < b:
            x = x_all[a:b].T
            wide = n < x.shape[1]
            # x xᵀ and xᵀx share their nonzero eigenvalues, which sum to
            # x.size, and eigh leaves each an error of about eps * x.size; the
            # eigenvector of a w that small points anywhere, even along the
            # first direction, so the floor is a share of x.size
            w, v = linalg.eigh(x @ x.T if wide else x.T @ x, driver="evd")
            order = np.argsort(w)[::-1][:PROJ_DIM]
            basis = v[:, order[w[order] > RANK_FLOOR * x.size]]
            if wide:  # x xᵀ u = w u makes xᵀu / ‖xᵀu‖ a direction of xᵀx
                basis = x.T @ basis
                basis /= np.linalg.norm(basis, axis=0)
            out[r : r + n, : basis.shape[1]] = x @ basis


def standardize_and_project(counts: np.ndarray) -> np.ndarray:
    """Standardize count columns and project onto the top ``PROJ_DIM``
    principal components (``project_rows`` of one dense block).

    Constant columns (variance below a small floor) are dropped before
    standardization. A block with fewer rows than live columns takes its
    directions from the rows' n x n Gram matrix instead of the columns' w x w
    one (the snapshot method, Sirovich 1987). Either side keeps only the
    directions above ``RANK_FLOOR`` of the total variance, in the signs
    LAPACK returns, and pads the output with zero columns to ``PROJ_DIM``.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape[0] < 2:
        raise ValueError("need at least 2 rows to project")
    out = np.zeros((counts.shape[0], PROJ_DIM))
    _project_stripes(np.ascontiguousarray(counts.T), [counts.shape[1]], out, [0])
    return out


def project_rows(cr: CountRows, starts: Sequence[int], heights: Sequence[int]) -> np.ndarray:
    """``standardize_and_project`` of each set of rows ``starts[s]`` ..
    ``starts[s] + heights[s] - 1`` of ``cr`` (all of one matrix), the sets'
    points stacked in the given order.

    Sets of one row count are scattered straight from the CSR into one
    stripes array (see ``_project_stripes``), in passes of about
    ``PROJECT_CELLS`` dense cells, which bounds the temporaries.
    """
    starts = np.asarray(starts, dtype=np.intp)
    heights = np.asarray(heights, dtype=np.intp)
    if (heights < 2).any():
        raise ValueError("need at least 2 rows to project")
    out = np.zeros((heights.sum(), PROJ_DIM))
    first = np.cumsum(heights) - heights
    by_height = np.argsort(heights, kind="stable")
    h = heights[by_height]
    size = cr.width[starts[by_height]] * h
    new = np.diff((np.cumsum(size) - size) // PROJECT_CELLS, prepend=-1) != 0
    new[1:] |= h[1:] != h[:-1]
    cuts = np.flatnonzero(new).tolist()
    for i, j in zip(cuts, [*cuts[1:], len(h)]):
        sets, n = by_height[i:j], int(h[i])
        widths = cr.width[starts[sets]]
        rows = (starts[sets, None] + np.arange(n)).ravel()
        nnz = cr.indptr[rows + 1] - cr.indptr[rows]
        at = np.arange(nnz.sum()) + np.repeat(cr.indptr[rows] - (np.cumsum(nnz) - nnz), nnz)
        stripes = np.zeros((widths.sum(), n))
        stripe = np.repeat(np.repeat(np.cumsum(widths) - widths, n), nnz) + cr.col[at]
        stripes[stripe, np.repeat(np.tile(np.arange(n), len(sets)), nnz)] = cr.value[at]
        _project_stripes(stripes, widths, out, first[sets].tolist())
    return out


def binary_split(points: np.ndarray, sizes: Sequence[int] | None = None) -> np.ndarray:
    """Deterministic 2-means split of each group of points into two
    non-empty sides; True marks a point of the second side.

    Group g is the next ``sizes[g]`` (at least 2) rows of ``points``; by
    default all rows are one group. Per group, the seeds are a two-pass
    farthest pair (farthest point from the centroid, then the point farthest
    from it), Lloyd iterations stop when the sides stop changing or after
    100 rounds, and squared distances within a relative ``TIE_RTOL`` tie,
    so that no split hangs on a projection's last bits; ties go to the first
    side and the lowest index. Every centroid is a ``np.bincount`` over one
    group's rows in row order, so a group splits as it would alone.
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
        at = np.flatnonzero(v >= np.maximum.reduceat(v, starts)[group] * (1 - TIE_RTOL))
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
        new = d2 < d1 - TIE_RTOL * (d1 + d2)  # near-ties stay with the first side
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
    length. Otherwise its signature counts are projected once (one
    ``project_rows`` call for every set of three or more rows that fails;
    2-means splits two points one and one whatever they are, so a failing
    pair is not projected) and repeatedly bisected; each side is kept when
    it passes (or is a singleton) and bisected again when it fails. All
    groups of one depth of a batch of sets (``CountRows.batches``) are
    tested in one ``path_test`` call and bisected in one ``binary_split``
    call; each group once, at every length. Each set's clusters are sorted
    by smallest member id.
    """
    members = [sorted(A) for _, A in sets]
    for (stats, _), mem in zip(sets, members):
        if stats.source in mem:
            raise ValueError("source node cannot be clustered against itself")
    if len({(stats.N, stats.L) for stats, _ in sets}) > 1:
        raise ValueError("sets refined together need one walk count and length")
    partitions = [[(mem, ())] if len(mem) <= 1 else [] for mem in members]
    tested = np.array([i for i, mem in enumerate(members) if len(mem) > 1], dtype=np.intp)
    if not len(tested):
        return partitions
    N, L = sets[tested[0]][0].N, sets[tested[0]][0].L
    count_sets = [(sets[i][0].source, sets[i][0].signatures, members[i]) for i in tested.tolist()]
    for n_sets, cr in CountRows.batches(count_sets):
        owner, tested = tested[:n_sets], tested[n_sets:]
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
            if points is None:  # the first depth: project every set that fails whole
                points = np.zeros((len(rows), PROJ_DIM))
                first = np.cumsum(sizes) - sizes
                # 2-means splits any two points one and one, so a pair keeps zeros
                wide = ~ok & (sizes > 2)
                points[np.repeat(wide, sizes)] = project_rows(cr, first[wide], sizes[wide])
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


def symmetry_clusters(stats: Sequence[WalkStats], alpha: float) -> list[SymmetryPartition]:
    """Full two-stage clustering for each of several sources that share N
    and L: distance sets of all of them in one pass, then the path-symmetric
    refinement of all of them together."""
    sets = distance_sets(stats, alpha)
    refined = iter(refine_sets([(st, d.members) for st, ds in zip(stats, sets) for d in ds], alpha))
    out = []
    for st, ds in zip(stats, sets):
        concepts: list[tuple[int, ...]] = []
        parents: list[int] = []
        margins: list[tuple[dict, ...]] = []
        for parent in range(len(ds)):
            for cluster, entries in next(refined):
                concepts.append(tuple(cluster))
                parents.append(parent)
                margins.append(entries)
        unreached = np.flatnonzero(st.hits == 0)
        out.append(
            SymmetryPartition(
                source=st.source,
                distance_sets=tuple(ds),
                concepts=tuple(concepts),
                concept_parents=tuple(parents),
                margins=tuple(margins),
                unreached=tuple(unreached[unreached != st.source].tolist()),
            )
        )
    return out
