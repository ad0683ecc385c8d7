import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import datasets
import oracles
from prism import clustering, stats
from prism.clustering import (
    binary_split,
    distance_sets,
    project_rows,
    refine_sets,
    standardize_and_project,
    symmetry_clusters,
)
from prism.stats import (
    CountRows,
    SignatureTable,
    path_symmetry_report,
    theta_sym,
)
from prism.pipeline import RunConfig, get_communities
from prism.walks import WalkConfig, WalkStats, run_walks


def stats_from_tht(tht, hits=None, N=1000, L=4, source=0):
    tht = np.asarray(tht, dtype=float)
    n = len(tht)
    if hits is None:
        hits = np.full(n, N, dtype=np.int64)
        hits[source] = 0
    return WalkStats(
        source=source,
        N=N,
        L=L,
        tht=tht,
        hits=np.asarray(hits, dtype=np.int64),
        signatures=SignatureTable.from_counts({}),
    )


def synthetic_count_stats(count_rows, N=2000, L=1, source=None):
    n = len(count_rows)
    source = n if source is None else source
    sig_counts = {
        i: {(j,): int(c) for j, c in enumerate(row) if c > 0}
        for i, row in enumerate(count_rows)
    }
    size = n + 1
    return WalkStats(
        source=source,
        N=N,
        L=L,
        tht=np.ones(size),
        hits=np.full(size, N, dtype=np.int64),
        signatures=SignatureTable.from_counts(sig_counts),
    )


def distance_groups(stats, alpha):
    """The members of each distance set of one source."""
    return [list(d.members) for d in distance_sets([stats], alpha)[0]]


def clusters(stats, A, alpha):
    """The clusters of one set's refinement, without their margins."""
    return [cluster for cluster, _ in refine_sets([(stats, A)], alpha)[0]]


def sides(second):
    """The two sides of a one-group ``binary_split`` result."""
    return np.flatnonzero(~second), np.flatnonzero(second)


def test_distance_partition_gap_sweep():
    st = stats_from_tht([0.0, 1.0, 1.01, 2.0, 2.02, 3.5], N=1000, L=4)
    theta = theta_sym(0.01, 4, 1000)
    assert 0.02 < theta < 0.5
    groups = distance_groups(st, 0.01)
    assert groups == [[1, 2], [3, 4], [5]]


def test_distance_partition_all_equal_single_set():
    st = stats_from_tht([0.0, 2.0, 2.0, 2.0], N=1000, L=4)
    assert distance_groups(st, 0.01) == [[1, 2, 3]]


def test_distance_partition_zero_threshold_splits_distinct_values():
    # L=1 makes the threshold exactly zero
    st = stats_from_tht([0.0, 1.0, 1.0, 0.9999], N=1000, L=1)
    groups = distance_groups(st, 0.01)
    assert groups == [[3], [1, 2]]


def test_distance_partition_drops_unreached_nodes():
    hits = [0, 1000, 0, 1000]
    st = stats_from_tht([0.0, 2.0, 4.0, 2.0], hits=hits, N=1000, L=4)
    assert distance_groups(st, 0.01) == [[1, 3]]


def test_distance_partition_keeps_hit_nodes_at_max_tht():
    # a node hit only at the final step has estimate L but is still reached
    hits = [0, 1000, 600]
    st = stats_from_tht([0.0, 4.0, 4.0], hits=hits, N=1000, L=4)
    assert distance_groups(st, 0.01) == [[1, 2]]


def test_distance_partition_physics_reference_sets(physics):
    b1 = physics.node_names.index("B1")
    st = run_walks(physics, b1, WalkConfig(L=4, N=3000, seed=0))
    groups = distance_groups(st, 0.01)
    named = [sorted(physics.node_names[v] for v in g) for g in groups]
    assert named == [
        ["P1", "P2", "P3"],
        ["P4", "P5"],
        ["P6", "P7", "P8"],
        ["B2"],
    ]


@st.composite
def walk_blocks(draw):
    """Blocks of sources over one node set, sharing N and L: estimates on a
    coarse grid (many exact ties) or spread floats, some nodes unreached,
    and sometimes a source that reaches nothing."""
    n = draw(st.integers(1, 25))
    N, L = draw(st.sampled_from([(1000, 1), (1000, 4), (200, 5)]))
    block = []
    for _ in range(draw(st.integers(1, 6))):
        source = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            est = st.integers(4, 4 * L).map(lambda k: k / 4)
        else:
            est = st.floats(1.0, float(L), allow_nan=False)
        tht = np.array(draw(st.lists(est, min_size=n, max_size=n)), dtype=float)
        hits = np.array(draw(st.lists(st.sampled_from([0, 3, N]), min_size=n, max_size=n)))
        if draw(st.integers(0, 4)) == 0:
            hits[:] = 0
        hits[source] = 0
        block.append(stats_from_tht(tht, hits=hits, N=N, L=L, source=source))
    return block


@settings(max_examples=200, deadline=None)
@given(walk_blocks(), st.sampled_from([0.01, 0.3]))
def test_distance_sets_block_equals_each_source_alone(block, alpha):
    # members and mean estimates compared with ==: the means keep the bits
    # of each set's own numpy mean
    theta = theta_sym(alpha, block[0].L, block[0].N)
    got = distance_sets(block, alpha)
    assert got == [distance_sets([s], alpha)[0] for s in block]
    for s, sets in zip(block, got):
        assert [list(d.members) for d in sets] == oracles.reference_distance_partition(s, theta)
        assert [d.tht for d in sets] == [float(s.tht[list(d.members)].mean()) for d in sets]


def test_distance_set_means_keep_their_bits_at_every_size():
    # sets of one size share one block of rows; sizes around pairwise
    # summation's 8-wide unroll and 128 block, several sets per size
    rng = np.random.default_rng(5)
    block = []
    for n in (2, 7, 8, 9, 9, 128, 129, 300, 300, 1000):
        tht = np.concatenate([[0.0], 2.0 + rng.uniform(0.0, 0.01, size=n)])
        block.append(stats_from_tht(tht, N=1000, L=4))
    got = distance_sets(block, 0.01)
    for walked, (d,) in zip(block, got):
        assert d.members == tuple(range(1, len(walked.tht)))
        assert d.tht == float(walked.tht[list(d.members)].mean())


def dense_count_rows(blocks):
    """``CountRows`` holding each dense count block as one matrix; every
    column must have a positive count, as in a block built from walks."""
    heights = [len(b) for b in blocks]
    widths = [b.shape[1] for b in blocks]
    rows = [r for b in blocks for r in b]
    nz = [np.flatnonzero(r) for r in rows]
    return CountRows(
        source=np.zeros(len(rows), dtype=np.int64),
        target=np.arange(len(rows), dtype=np.int64),
        width=np.repeat(widths, heights),
        col0=np.repeat(np.cumsum(widths) - widths, heights),
        indptr=np.cumsum([0, *map(len, nz)]),
        col=np.concatenate(nz).astype(np.int32),
        value=np.concatenate([r[c] for r, c in zip(rows, nz)]),
        col_len=np.ones(sum(widths), dtype=np.intp),
    )


def random_count_block(rng, n, m):
    lam = rng.uniform(0.05, 40.0, size=m)
    counts = rng.poisson(lam, size=(n, m)).astype(float)
    counts[:, counts.sum(axis=0) == 0] = 1.0
    return counts


def test_project_rows_bits_equal_per_set_reference():
    # the batched moments must round as the per-set numpy reductions did:
    # row counts around pairwise summation's 8-wide unroll and its 128 block,
    # sets sharing a row count, one live column, all-constant sets, wide and
    # tall sets, and over four times as many dense cells as a projection
    # pass holds, so several passes
    rng = np.random.default_rng(14)
    heights = [2, 3, 7, 8, 9, 16, 33, 64, 127, 128, 129, 140] * 3
    heights += rng.integers(2, 141, size=24).tolist()
    blocks = []
    for i, n in enumerate(heights):
        m = int(rng.integers(n + 1, 4 * n + 40)) if i % 2 else int(rng.integers(1, n + 1))
        blocks.append(random_count_block(rng, n, m))
    one_live = np.full((9, 5), 3.0)
    one_live[:, 2] = np.arange(9)
    blocks += [one_live, np.full((8, 6), 2.0), np.tile([1.0, 4.0], (140, 1))]
    for n in (7, 8, 129):  # rows repeated: exact ties between points
        b = random_count_block(rng, n, 30)
        b[1::2] = b[0]
        blocks.append(b)
    order = rng.permutation(len(blocks))
    blocks = [blocks[i] for i in order]
    cr = dense_count_rows(blocks)
    sizes = np.array([len(b) for b in blocks])
    starts = np.cumsum(sizes) - sizes
    assert (sizes * [b.shape[1] for b in blocks]).sum() > 4 * clustering.PROJECT_CELLS
    want = [oracles.reference_standardize_and_project(b) for b in blocks]
    assert np.array_equal(project_rows(cr, starts, sizes), np.vstack(want))
    # a subset of the sets, out of row order, and each block alone
    pick = rng.choice(len(blocks), size=10, replace=False)
    got = project_rows(cr, starts[pick], sizes[pick])
    assert np.array_equal(got, np.vstack([want[i] for i in pick]))
    for b, points in zip(blocks, want):
        assert np.array_equal(standardize_and_project(b), points)


def test_standardize_and_project_two_points_preserve_distance():
    counts = np.array([[10.0, 4.0, 7.0], [16.0, 4.0, 1.0]])
    pts = standardize_and_project(counts)
    # constant column dropped; remaining standardized rows are +-1 per column
    expected = np.linalg.norm([2.0, 2.0])
    assert np.linalg.norm(pts[0] - pts[1]) == pytest.approx(expected)
    assert np.allclose(pts[:, 1], 0.0, atol=1e-9)


def test_standardize_and_project_identical_counts_origin():
    counts = np.tile([5.0, 9.0], (4, 1))
    pts = standardize_and_project(counts)
    assert np.allclose(pts, 0.0)


def test_standardize_and_project_collinear_counts():
    base = np.array([1.0, -2.0, 0.5, 3.0])
    t = np.array([[0.0], [1.0], [2.0], [3.0]])
    counts = 10 + t * base  # rank-1 standardized structure
    pts = standardize_and_project(counts)
    total_var = pts.var(axis=0).sum()
    assert pts[:, 0].var() / total_var >= 0.999
    assert np.all(pts[:, 1] == 0.0)
    # matches a dense PCA of the standardized matrix
    x = (counts - counts.mean(0)) / counts.std(0)
    cov = x.T @ x / (len(x) - 1)
    w = np.linalg.eigvalsh(cov)
    assert pts[:, 0].var(ddof=1) == pytest.approx(float(w[-1]), rel=1e-6)


def test_standardize_and_project_bits_equal_numpy_eigh():
    # the projection feeds 2-means, so report bytes depend on its exact bits;
    # a block with at least as many rows as live columns must give the bits
    # of one np.linalg.eigh of its own xᵀx, whatever the stripes layout
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(2, 40))
        n = int(rng.integers(max(m, 3), 300))
        counts = rng.poisson(rng.uniform(0.5, 50.0, size=m), size=(n, m)).astype(float)
        live = counts[:, counts.var(axis=0) > 1e-12]
        x = (live - live.mean(axis=0)) / live.std(axis=0)
        w, v = np.linalg.eigh(x.T @ x)
        order = np.argsort(w)[::-1][:2]
        basis = v[:, order[w[order] > 1e-9 * x.size]]
        want = np.zeros((n, 2))
        want[:, : basis.shape[1]] = x @ basis
        assert np.array_equal(standardize_and_project(counts), want)


def test_standardize_and_project_wide_matches_reference_svd():
    # fewer rows than live columns: the Gram-side directions are the dense
    # SVD's, column by column up to sign, wherever the top two are well apart
    # from the third
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 50:
        n = int(rng.integers(3, 30))
        m = int(rng.integers(n + 1, 400))
        latent = rng.normal(size=(n, 2)) * [3.0, 1.5]
        means = 20.0 + 4.0 * latent @ rng.normal(size=(2, m))
        counts = rng.poisson(np.clip(means, 0.5, None)).astype(float)
        want, var = oracles.reference_projection(counts)
        if (counts.var(axis=0) > 1e-12).sum() <= n or var[1] < 1.5 * var[2]:
            continue
        got = standardize_and_project(counts)
        for k in range(2):
            sign = np.sign(got[:, k] @ want[:, k])
            err = np.linalg.norm(sign * got[:, k] - want[:, k])
            assert err <= 1e-9 * np.linalg.norm(want[:, k])
        checked += 1


@pytest.mark.parametrize("shape", [(12, 4), (5, 30)], ids=["tall", "wide"])
def test_standardize_and_project_identical_rows_identical_points(shape):
    rng = np.random.default_rng(3)
    n, m = shape
    counts = rng.poisson(8.0, size=(n, m)).astype(float)
    counts[3] = counts[0]
    counts[4] = counts[1]
    pts = standardize_and_project(counts)
    assert np.array_equal(pts[3], pts[0]) and np.array_equal(pts[4], pts[1])
    assert not np.array_equal(pts[0], pts[1])


@pytest.mark.parametrize(
    "n, m",
    [
        pytest.param(4, 10, id="10"),
        pytest.param(4, 1000, id="1000"),
        pytest.param(4, 20_000, id="20000"),
        pytest.param(4, 4, id="tall-4x4"),
        pytest.param(12, 3, id="tall-12x3"),
        pytest.param(300, 40, id="tall-300x40"),
    ],
)
def test_standardize_and_project_rank1_wide_second_column_is_zero(n, m):
    # the product's rounding noise grows with the block's size; a noise
    # direction kept by an absolute variance floor points anywhere, and on
    # either side the rank floor must drop it
    base = np.linspace(-2.0, 3.0, m)
    t = np.r_[0.0, 1.0, 2.0, np.arange(4.0, n + 1)][:n, None]
    counts = 10 + t * base  # n rows, rank-1 once standardized
    pts = standardize_and_project(counts)
    assert np.all(pts[:, 1] == 0.0)
    want, _ = oracles.reference_projection(counts, dim=1)
    assert np.abs(pts[:, 0]) == pytest.approx(np.abs(want[:, 0]), rel=1e-12)


def test_standardize_and_project_two_wide_points_preserve_distance():
    counts = np.array([[10.0, 4.0, 7.0, 0.0, 3.0], [16.0, 4.0, 1.0, 2.0, 5.0]])
    pts = standardize_and_project(counts)
    # four live columns, each standardized to +-1 per row
    assert np.linalg.norm(pts[0] - pts[1]) == pytest.approx(np.linalg.norm([2.0] * 4))
    assert np.all(pts[:, 1] == 0.0)


def test_standardize_and_project_wide_memory_stays_on_the_row_side():
    # the 4000 x 4000 column covariance alone would take 128 MB
    counts = np.random.default_rng(5).poisson(5.0, size=(6, 4000)).astype(float)
    tracemalloc.start()
    try:
        standardize_and_project(counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_binary_split_recovers_blobs():
    rng = np.random.default_rng(2)
    a = rng.normal(0.0, 0.05, size=(6, 2))
    b = rng.normal(5.0, 0.05, size=(5, 2)) + np.array([0.0, 3.0])
    pts = np.vstack([a, b])
    left, right = sides(binary_split(pts))
    got = {frozenset(left.tolist()), frozenset(right.tolist())}
    assert got == {frozenset(range(6)), frozenset(range(6, 11))}
    # agrees with the exhaustive minimum within-cluster sum of squares
    _, best = oracles.best_two_partition_sse(pts)
    assert got == set(best)


def test_binary_split_two_points():
    left, right = sides(binary_split(np.array([[0.0, 0.0], [1.0, 1.0]])))
    assert sorted([left.tolist(), right.tolist()]) == [[0], [1]]


def test_binary_split_duplicate_points_deterministic():
    pts = np.zeros((5, 2))
    left, right = sides(binary_split(pts))
    assert left.tolist() == [0]
    assert right.tolist() == [1, 2, 3, 4]
    again = sides(binary_split(pts))
    assert again[0].tolist() == [0] and again[1].tolist() == [1, 2, 3, 4]


def ulp_jitter(points, seed):
    """``points`` with each coordinate times 1 + k * 2**-52, k an integer in
    [-8, 8] drawn from ``seed`` (a seed or a Generator): the same values up
    to a few last bits."""
    k = np.random.default_rng(seed).integers(-8, 9, size=np.shape(points))
    return points * (1.0 + k * 2.0**-52)


@st.composite
def point_groups(draw):
    """Groups of 2-D points: grid points with many exact ties and
    duplicates, sometimes moved by a few ulps into near-ties, or spread
    floats, one group sometimes all alike."""
    groups = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(2, 40))
        grid = draw(st.booleans())
        if grid:
            coord = st.integers(-2, 2).map(float)
        else:
            coord = st.floats(-1e3, 1e3, allow_nan=False)
        pts = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
        if draw(st.integers(0, 5)) == 0:
            pts = [pts[0]] * n
        pts = np.array(pts, dtype=float)
        if grid and draw(st.booleans()):
            pts = ulp_jitter(pts, draw(st.integers(0, 2**32)))
        groups.append(pts)
    return groups


@settings(max_examples=300, deadline=None)
@given(point_groups())
def test_binary_split_batch_equals_reference_per_group(groups):
    # each group of a batch is split exactly as the one-group Lloyd loop
    # splits it, and as it is split alone
    second = binary_split(np.vstack(groups), [len(g) for g in groups])
    ends = np.cumsum([len(g) for g in groups])
    for g, pts in enumerate(groups):
        got = second[ends[g] - len(pts) : ends[g]]
        left, right = oracles.reference_binary_split(pts)
        assert np.array_equal(got, np.isin(np.arange(len(pts)), right))
        assert np.array_equal(binary_split(pts), got)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=2, max_size=40),
    st.integers(0, 2**32),
)
def test_binary_split_ignores_last_bits(pts, seed):
    # grid points tie exactly in real arithmetic and in nothing finer than
    # about 1e-7 of a distance, so a few ulps either way must not move a
    # point; a group with no spread is left out, as jitter gives it one
    pts = np.array(pts, dtype=float)
    if (pts == pts[0]).all():
        return
    assert np.array_equal(binary_split(ulp_jitter(pts, seed)), binary_split(pts))


@settings(max_examples=300, deadline=None)
@given(point_groups(), st.tuples(st.booleans(), st.booleans()), st.booleans())
def test_binary_split_ignores_column_signs(groups, flip, tiny):
    # the projection keeps the component signs LAPACK returns: negating a
    # column negates every sum and centroid and leaves every squared
    # distance alike to the bit, so no point may move; a second column of
    # rounding-noise scale stands for a direction the rank floor kept
    points = np.vstack(groups)
    if tiny:
        points[:, 1] *= 1e-16
    sizes = [len(g) for g in groups]
    flipped = points * np.where(flip, -1.0, 1.0)
    assert np.array_equal(binary_split(flipped, sizes), binary_split(points, sizes))


@st.composite
def point_pairs(draw):
    """Groups of two finite 2-D points: any two, one point twice, two a few
    ulps apart, or any of these with a zero column."""
    groups = []
    for _ in range(draw(st.integers(1, 6))):
        coord = st.floats(-1e6, 1e6, allow_nan=False)
        a = np.array(draw(st.tuples(coord, coord)))
        kind = draw(st.sampled_from(["any", "equal", "ulps"]))
        if kind == "any":
            b = np.array(draw(st.tuples(coord, coord)))
        elif kind == "equal":
            b = a.copy()
        else:
            b = ulp_jitter(a, draw(st.integers(0, 2**32)))
        pair = np.vstack([a, b])
        zero = draw(st.sampled_from([None, 0, 1]))
        if zero is not None:
            pair[:, zero] = 0.0
        groups.append(pair)
    return groups


@settings(max_examples=300, deadline=None)
@given(point_pairs())
def test_binary_split_puts_one_of_two_points_on_each_side(groups):
    # refine_sets leaves a failing pair unprojected, at zeros: that moves no
    # concept only because any two points split one and one
    second = binary_split(np.vstack(groups), [2] * len(groups))
    assert second.reshape(-1, 2).sum(axis=1).tolist() == [1] * len(groups)


def test_failing_pairs_are_not_projected(two_departments, monkeypatch):
    heights, pair_clusters = [], []
    project, refine = clustering.project_rows, clustering.refine_sets

    def project_spy(cr, starts, sizes):
        heights.extend(np.asarray(sizes).tolist())
        return project(cr, starts, sizes)

    def refine_spy(sets, alpha):
        out = refine(sets, alpha)
        pair_clusters.extend(len(part) for (_, A), part in zip(sets, out) if len(A) == 2)
        return out

    monkeypatch.setattr(clustering, "project_rows", project_spy)
    monkeypatch.setattr(clustering, "refine_sets", refine_spy)
    get_communities(two_departments, RunConfig(seed=123))
    assert 2 in pair_clusters  # a pair failed and was split
    assert heights and 2 not in heights


@pytest.mark.parametrize(
    "db_text, use_hcluster",
    [
        (datasets.bench_db("dept", 10, 1), False),
        (datasets.bench_db("dept", 10, 2), True),
        (datasets.rich_schema_db(), False),
    ],
    ids=["dept-k10-g1-flat", "dept-k10-g2-hcluster", "rich"],
)
def test_concepts_do_not_hang_on_the_projection_last_bits(monkeypatch, db_text, use_hcluster):
    # another BLAS or eigensolver may move the projected points by a few
    # ulps; not one source's concepts may move with them
    h = datasets.graph(db_text)
    cfg = RunConfig(seed=123, use_hcluster=use_hcluster)

    def concepts():
        report = get_communities(h, cfg)
        return {
            (sub.id, src.source): [c.members for c in src.concepts]
            for sub in report.subhypergraphs
            for src in sub.sources
        }

    want = concepts()
    rng = np.random.default_rng(9)
    exact = clustering.project_rows
    monkeypatch.setattr(clustering, "project_rows", lambda *a: ulp_jitter(exact(*a), rng))
    got = concepts()
    assert [key for key in want if got[key] != want[key]] == []


def test_prism_paths_singleton_passes_through():
    st = synthetic_count_stats([[100, 50]])
    assert clusters(st, [0], 0.01) == [[0]]


def test_prism_paths_returns_partition():
    rng = np.random.default_rng(7)
    profiles = [
        np.array([0.30, 0.05, 0.05]),
        np.array([0.05, 0.30, 0.05]),
        np.array([0.05, 0.05, 0.30]),
    ]
    rows = []
    for i in range(12):
        p = profiles[i % 3]
        full = np.append(p, 1 - p.sum())
        rows.append(rng.multinomial(2000, full)[:-1])
    st = synthetic_count_stats(rows)
    part = clusters(st, list(range(12)), 0.01)
    flat = sorted(v for g in part for v in g)
    assert flat == list(range(12))
    # three latent profiles should be recovered exactly
    got = {frozenset(g) for g in part}
    want = {frozenset(range(i, 12, 3)) for i in range(3)}
    assert got == want


def test_prism_paths_identical_rows_stay_together():
    rows = [[200, 100, 50]] * 6
    st = synthetic_count_stats(rows)
    assert clusters(st, list(range(6)), 0.5) == [list(range(6))]


def test_prism_paths_rejects_source_in_set():
    st = synthetic_count_stats([[10, 10]], source=0)
    with pytest.raises(ValueError):
        refine_sets([(st, [0])], alpha=0.1)


def test_prism_paths_physics_refinement(physics):
    b1 = physics.node_names.index("B1")
    st = run_walks(physics, b1, WalkConfig(L=4, N=1505, seed=2))
    ids = [physics.node_names.index(p) for p in ("P1", "P2", "P3")]
    part = clusters(st, ids, 0.01)
    named = sorted(sorted(physics.node_names[v] for v in g) for g in part)
    assert named == [["P1", "P2"], ["P3"]]


def test_prism_paths_alpha_sweep(physics):
    # at alpha near 1 every professor splits off at every seed; the full sweep
    # (one cluster at 1e-9, {P1, P2} | {P3} at 0.01) is one random outcome,
    # seen at 152 of 300 seeds, so its count over 40 seeds is checked against
    # the central 99.8% of Binomial(40, 152/300)
    b1 = physics.node_names.index("B1")
    ids = [physics.node_names.index(p) for p in ("P1", "P2", "P3")]
    sweeps = 0
    for seed in range(40):
        st = run_walks(physics, b1, WalkConfig(L=4, N=1505, seed=seed))
        by_alpha = {
            alpha: sorted(
                sorted(physics.node_names[v] for v in g)
                for g in clusters(st, ids, alpha)
            )
            for alpha in (1e-9, 0.01, 0.9999)
        }
        assert by_alpha[0.9999] == [["P1"], ["P2"], ["P3"]]
        sweeps += by_alpha[1e-9] == [["P1", "P2", "P3"]] and by_alpha[0.01] == [["P1", "P2"], ["P3"]]
    lo, hi = binom.interval(0.998, 40, 152 / 300)
    assert lo <= sweeps <= hi


def test_prism_paths_cluster_count_monotone_in_alpha(physics):
    b1 = physics.node_names.index("B1")
    st = run_walks(physics, b1, WalkConfig(L=4, N=1505, seed=2))
    reached = [v for v in range(physics.n_nodes) if v != b1]
    counts = [
        len(clusters(st, reached, alpha))
        for alpha in (1e-12, 1e-6, 0.01, 0.2, 0.9999)
    ]
    assert counts == sorted(counts)


@st.composite
def path_counts(draw):
    """Members' signature dicts: some empty, some signatures longer than L,
    counts that put category means on MIN_CATEGORY_MEAN, sometimes every
    member alike, sometimes one member."""
    L = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    signature = st.lists(st.integers(0, 1), min_size=1, max_size=L + 1).map(tuple)
    count = st.sampled_from([0, 1, 4, 5, 5, 6, 10, 30])
    rows = draw(st.lists(st.dictionaries(signature, count, max_size=6), min_size=m, max_size=m))
    if draw(st.booleans()):
        rows = [rows[0]] * m
    return L, rows


def recording(path_test, calls):
    """``path_test`` that logs each group's members with its entries."""

    def spy(cr, rows, sizes, *args):
        tests = path_test(cr, rows, sizes, *args)
        ends = np.cumsum(sizes)
        for g, entries in enumerate(tests.entries()):
            members = cr.target[rows[ends[g] - sizes[g] : ends[g]]].tolist()
            calls.append((members, entries))
        return tests

    return spy


@settings(max_examples=200, deadline=None)
@given(
    path_counts(),
    st.integers(200, 600),
    st.sampled_from([0.01, 0.3, 0.9]),
)
# the mean of (0,) is exactly MIN_CATEGORY_MEAN
@example((1, [{(0,): 4, (1,): 30}, {(0,): 6, (1,): 2}]), 300, 0.3)
# one member holds the kept column and the others are zero: their squared
# deviations are the mean's square
@example((1, [{(0,): 60}] + [{}] * 9), 600, 0.3)
# no member has a count: nothing is kept and every null column is N
@example((1, [{}, {}]), 200, 0.01)
def test_path_tests_equal_reference_report(case, N, alpha):
    L, rows = case
    m = len(rows)
    cbm = dict(enumerate(rows))
    members = list(range(m))
    oracles.assert_same_entries(
        path_symmetry_report(cbm, members, N, L, alpha),
        oracles.reference_path_symmetry_report(cbm, members, N, L, alpha),
    )

    walk_stats = WalkStats(
        source=m,
        N=N,
        L=L,
        tht=np.ones(m + 1),
        hits=np.full(m + 1, N, dtype=np.int64),
        signatures=SignatureTable.from_counts(cbm),
    )
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "path_test", recording(clustering.path_test, calls))
        (paths,) = refine_sets([(walk_stats, members)], alpha)
    # every group's test covers every length
    for group, entries in calls:
        want = oracles.reference_path_symmetry_report(cbm, group, N, L, alpha)
        oracles.assert_same_entries(entries, want)
    # a cluster keeps every entry of the test that accepted it
    assert sorted(v for cluster, _ in paths for v in cluster) == members
    for cluster, margins in paths:
        want = oracles.reference_path_symmetry_report(cbm, cluster, N, L, alpha)
        oracles.assert_same_entries(list(margins), want)


def test_symmetry_clusters_end_to_end(physics):
    b1 = physics.node_names.index("B1")
    st = run_walks(physics, b1, WalkConfig(L=4, N=1505, seed=2))
    (part,) = symmetry_clusters([st], alpha=0.01)
    named = sorted(sorted(physics.node_names[v] for v in c) for c in part.concepts)
    assert named == [
        ["B2"],
        ["P1", "P2"],
        ["P3"],
        ["P4", "P5"],
        ["P6", "P7", "P8"],
    ]
    assert part.unreached == ()
    # every concept's parent is a distance set containing it
    for concept, parent in zip(part.concepts, part.concept_parents):
        assert set(concept) <= set(part.distance_sets[parent].members)


def test_symmetry_clusters_deterministic(physics):
    b1 = physics.node_names.index("B1")
    st = run_walks(physics, b1, WalkConfig(L=4, N=1505, seed=2))
    a = symmetry_clusters([st], alpha=0.01)
    b = symmetry_clusters([st], alpha=0.01)
    assert a == b


def test_refinement_memory_follows_one_batch(monkeypatch):
    # 32 sets of 800 counts in batches of 2048 counts, 16 batches: refining
    # them all peaks near refining one batch's sets, where a block-wide
    # CountRows (25600 counts, 300 KiB) alone would triple the peak
    monkeypatch.setattr(stats, "PATH_TEST_COUNTS", 2048)
    m, k, n_sets = 4, 200, 32
    n, N = m * n_sets, 100 * k
    counts = np.random.default_rng(5).multinomial(N, np.full(k, 1 / k), size=n)
    st = synthetic_count_stats(counts, N=N)
    sets = [(st, list(range(i, i + m))) for i in range(0, n, m)]

    def peak(pairs):
        tracemalloc.start()
        try:
            refine_sets(pairs, 0.01)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert len(list(CountRows.batches([(n, st.signatures, A) for _, A in sets]))) == 16
    assert peak(sets) < 2 * peak(sets[:2])


def test_projection_memory_follows_one_set_of_wide_sets():
    # 6 sets of 64 members, each member with 64 signature columns of its own:
    # 24576 counts, one batch, but 64 x 4096 dense cells per set, all failing
    # and of one row count. Projecting them in one stripes array would take
    # about six times one set's peak; cut by PROJECT_CELLS, each goes alone
    m, w, n_sets, N = 64, 64, 6, 10**6
    n = m * n_sets
    counts = np.random.default_rng(3).integers(6 * m, 12 * m, size=(n, w))
    own = {i: {(i * w + j,): int(c) for j, c in enumerate(row)} for i, row in enumerate(counts)}
    st = WalkStats(
        source=n,
        N=N,
        L=1,
        tht=np.ones(n + 1),
        hits=np.full(n + 1, N, dtype=np.int64),
        signatures=SignatureTable.from_counts(own),
    )
    sets = [(st, list(range(i, i + m))) for i in range(0, n, m)]

    def peak(pairs):
        tracemalloc.start()
        try:
            parts = refine_sets(pairs, 0.01)
            return tracemalloc.get_traced_memory()[1], parts
        finally:
            tracemalloc.stop()

    assert len(list(CountRows.batches([(n, st.signatures, A) for _, A in sets]))) == 1
    (one, (part,)), (every, parts) = peak(sets[:1]), peak(sets)
    assert len(part) > 1 and parts[0] == part
    assert every < 2 * one


def test_refinement_does_not_depend_on_its_batch(physics):
    # a source clustered alone equals the same source clustered with every
    # other source of its piece, and a set refined alone equals the same set
    # refined beside every other set: entries compared with ==. Then again
    # with batches of 64 counts, where the sets span more batches and so
    # more path_test calls
    cfg = WalkConfig(L=4, N=1505, seed=2)
    walked = [run_walks(physics, v, cfg) for v in range(physics.n_nodes)]
    sets = [(st, g) for st in walked for g in distance_groups(st, 0.01)]
    test, batch_passes = clustering.path_test, {}
    for counts in (stats.PATH_TEST_COUNTS, 64):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stats, "PATH_TEST_COUNTS", counts)
            together = symmetry_clusters(walked, alpha=0.01)
            assert together == [symmetry_clusters([st], alpha=0.01)[0] for st in walked]
            alone = [refine_sets([pair], 0.01)[0] for pair in sets]
            assert any(len(part) > 1 for part in alone)
            passes = []
            mp.setattr(clustering, "path_test", lambda *a: passes.append(a) or test(*a))
            assert refine_sets(sets, 0.01) == alone
            batch_passes[counts] = len(passes)
    assert batch_passes[64] > batch_passes[stats.PATH_TEST_COUNTS]
