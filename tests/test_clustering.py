import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from prism import clustering
from prism.clustering import (
    binary_split,
    partition_distance_symmetric,
    prism_paths,
    standardize_and_project,
    symmetry_clusters,
)
from prism.stats import path_symmetry_report, theta_sym
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
        tht_sd=np.zeros(n),
        hits=np.asarray(hits, dtype=np.int64),
        signature_counts={v: {} for v in range(n) if v != source},
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
        tht_sd=np.zeros(size),
        hits=np.full(size, N, dtype=np.int64),
        signature_counts=sig_counts,
    )


def clusters(paths):
    """The clusters of a ``prism_paths`` result, without their margins."""
    return [cluster for cluster, _ in paths]


def test_distance_partition_gap_sweep():
    st = stats_from_tht([0.0, 1.0, 1.01, 2.0, 2.02, 3.5], N=1000, L=4)
    theta = theta_sym(0.01, 4, 1000)
    assert 0.02 < theta < 0.5
    groups = partition_distance_symmetric(st, 0.01)
    assert groups == [[1, 2], [3, 4], [5]]


def test_distance_partition_all_equal_single_set():
    st = stats_from_tht([0.0, 2.0, 2.0, 2.0], N=1000, L=4)
    assert partition_distance_symmetric(st, 0.01) == [[1, 2, 3]]


def test_distance_partition_zero_threshold_splits_distinct_values():
    # L=1 makes the threshold exactly zero
    st = stats_from_tht([0.0, 1.0, 1.0, 0.9999], N=1000, L=1)
    groups = partition_distance_symmetric(st, 0.01)
    assert groups == [[3], [1, 2]]


def test_distance_partition_drops_unreached_nodes():
    hits = [0, 1000, 0, 1000]
    st = stats_from_tht([0.0, 2.0, 4.0, 2.0], hits=hits, N=1000, L=4)
    assert partition_distance_symmetric(st, 0.01) == [[1, 3]]


def test_distance_partition_keeps_hit_nodes_at_max_tht():
    # a node hit only at the final step has estimate L but is still reached
    hits = [0, 1000, 600]
    st = stats_from_tht([0.0, 4.0, 4.0], hits=hits, N=1000, L=4)
    assert partition_distance_symmetric(st, 0.01) == [[1, 2]]


def test_distance_partition_physics_reference_sets(physics):
    b1 = physics.node_names.index("B1")
    st = run_walks(physics, b1, WalkConfig(epsilon=0.1, L=4, N=3000, seed=0))
    groups = partition_distance_symmetric(st, 0.01)
    named = [sorted(physics.node_names[v] for v in g) for g in groups]
    assert named == [
        ["P1", "P2", "P3"],
        ["P4", "P5"],
        ["P6", "P7", "P8"],
        ["B2"],
    ]


def test_standardize_and_project_two_points_preserve_distance():
    counts = np.array([[10.0, 4.0, 7.0], [16.0, 4.0, 1.0]])
    pts = standardize_and_project(counts, 2)
    # constant column dropped; remaining standardized rows are +-1 per column
    expected = np.linalg.norm([2.0, 2.0])
    assert np.linalg.norm(pts[0] - pts[1]) == pytest.approx(expected)
    assert np.allclose(pts[:, 1], 0.0, atol=1e-9)


def test_standardize_and_project_identical_counts_origin():
    counts = np.tile([5.0, 9.0], (4, 1))
    pts = standardize_and_project(counts, 2)
    assert np.allclose(pts, 0.0)


def test_standardize_and_project_collinear_counts():
    base = np.array([1.0, -2.0, 0.5, 3.0])
    t = np.array([[0.0], [1.0], [2.0], [3.0]])
    counts = 10 + t * base  # rank-1 standardized structure
    pts = standardize_and_project(counts, 2)
    total_var = pts.var(axis=0).sum()
    assert pts[:, 0].var() / total_var >= 0.999
    assert np.allclose(pts[:, 1], 0.0, atol=1e-6)
    # matches a dense PCA of the standardized matrix
    x = (counts - counts.mean(0)) / counts.std(0)
    cov = x.T @ x / (len(x) - 1)
    w = np.linalg.eigvalsh(cov)
    assert pts[:, 0].var(ddof=1) == pytest.approx(float(w[-1]), rel=1e-6)


def test_standardize_and_project_bits_equal_numpy_eigh():
    # the projection feeds 2-means, so report bytes depend on its exact bits;
    # they must equal the np.linalg.eigh (syevd) version it replaced
    rng = np.random.default_rng(7)
    for _ in range(50):
        n, m = int(rng.integers(3, 300)), int(rng.integers(2, 40))
        counts = rng.poisson(rng.uniform(0.5, 50.0, size=m), size=(n, m)).astype(float)
        live = counts[:, counts.var(axis=0) > 1e-12]
        x = (live - live.mean(axis=0)) / live.std(axis=0)
        w, v = np.linalg.eigh((x.T @ x) / (n - 1))
        basis = v[:, np.argsort(w)[::-1][:2]]
        for col in range(basis.shape[1]):
            if basis[np.argmax(np.abs(basis[:, col])), col] < 0:
                basis[:, col] = -basis[:, col]
        want = np.zeros((n, 2))
        want[:, : basis.shape[1]] = x @ basis
        assert np.array_equal(standardize_and_project(counts, 2), want)


def test_binary_split_recovers_blobs():
    rng = np.random.default_rng(2)
    a = rng.normal(0.0, 0.05, size=(6, 2))
    b = rng.normal(5.0, 0.05, size=(5, 2)) + np.array([0.0, 3.0])
    pts = np.vstack([a, b])
    left, right = binary_split(pts)
    got = {frozenset(left.tolist()), frozenset(right.tolist())}
    assert got == {frozenset(range(6)), frozenset(range(6, 11))}
    # agrees with the exhaustive minimum within-cluster sum of squares
    _, best = oracles.best_two_partition_sse(pts)
    assert got == set(best)


def test_binary_split_two_points():
    left, right = binary_split(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert sorted([left.tolist(), right.tolist()]) == [[0], [1]]


def test_binary_split_duplicate_points_deterministic():
    pts = np.zeros((5, 2))
    left, right = binary_split(pts)
    assert left.tolist() == [0]
    assert right.tolist() == [1, 2, 3, 4]
    again = binary_split(pts)
    assert again[0].tolist() == [0] and again[1].tolist() == [1, 2, 3, 4]


def test_prism_paths_singleton_passes_through():
    st = synthetic_count_stats([[100, 50]])
    assert clusters(prism_paths([0], st, alpha=0.01)) == [[0]]


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
    part = clusters(prism_paths(list(range(12)), st, alpha=0.01))
    flat = sorted(v for g in part for v in g)
    assert flat == list(range(12))
    # three latent profiles should be recovered exactly
    got = {frozenset(g) for g in part}
    want = {frozenset(range(i, 12, 3)) for i in range(3)}
    assert got == want


def test_prism_paths_identical_rows_stay_together():
    rows = [[200, 100, 50]] * 6
    st = synthetic_count_stats(rows)
    assert clusters(prism_paths(list(range(6)), st, alpha=0.5)) == [list(range(6))]


def test_prism_paths_rejects_source_in_set():
    st = synthetic_count_stats([[10, 10]], source=0)
    with pytest.raises(ValueError):
        prism_paths([0], st, alpha=0.1)


def test_prism_paths_physics_refinement(physics):
    b1 = physics.node_names.index("B1")
    st = run_walks(physics, b1, WalkConfig(epsilon=0.1, L=4, N=1505, seed=2))
    ids = [physics.node_names.index(p) for p in ("P1", "P2", "P3")]
    part = clusters(prism_paths(ids, st, alpha=0.01))
    named = sorted(sorted(physics.node_names[v] for v in g) for g in part)
    assert named == [["P1", "P2"], ["P3"]]


def test_prism_paths_alpha_sweep(physics):
    b1 = physics.node_names.index("B1")
    st = run_walks(physics, b1, WalkConfig(epsilon=0.1, L=4, N=1505, seed=2))
    ids = [physics.node_names.index(p) for p in ("P1", "P2", "P3")]
    by_alpha = {
        alpha: sorted(
            sorted(physics.node_names[v] for v in g)
            for g in clusters(prism_paths(ids, st, alpha))
        )
        for alpha in (1e-9, 0.01, 0.9999)
    }
    assert by_alpha[1e-9] == [["P1", "P2", "P3"]]
    assert by_alpha[0.01] == [["P1", "P2"], ["P3"]]
    assert by_alpha[0.9999] == [["P1"], ["P2"], ["P3"]]


def test_prism_paths_cluster_count_monotone_in_alpha(physics):
    b1 = physics.node_names.index("B1")
    st = run_walks(physics, b1, WalkConfig(epsilon=0.1, L=4, N=1505, seed=2))
    reached = [v for v in range(physics.n_nodes) if v != b1]
    counts = [
        len(clusters(prism_paths(reached, st, alpha)))
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


def recording(entries, calls):
    """``entries`` that logs each call's members with the entries drawn."""

    def spy(cm, *args):
        drawn = []
        calls.append((cm.members, drawn))
        for entry in entries(cm, *args):
            drawn.append(entry)
            yield entry

    return spy


@settings(max_examples=200, deadline=None)
@given(
    path_counts(),
    st.integers(200, 600),
    st.sampled_from([0.01, 0.3, 0.9]),
)
# the mean of (0,) is exactly MIN_CATEGORY_MEAN
@example((1, [{(0,): 4, (1,): 30}, {(0,): 6, (1,): 2}]), 300, 0.3)
def test_path_tests_equal_reference_report(case, N, alpha):
    L, rows = case
    m = len(rows)
    cbm = dict(enumerate(rows))
    members = list(range(m))
    assert path_symmetry_report(cbm, members, N, L, alpha) == (
        oracles.reference_path_symmetry_report(cbm, members, N, L, alpha)
    )

    walk_stats = WalkStats(
        source=m,
        N=N,
        L=L,
        tht=np.ones(m + 1),
        tht_sd=np.zeros(m + 1),
        hits=np.full(m + 1, N, dtype=np.int64),
        signature_counts=cbm,
    )
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            clustering, "path_test_entries", recording(clustering.path_test_entries, calls)
        )
        paths = prism_paths(members, walk_stats, alpha)
    # a failing group's test ends at its first failing length
    for group, drawn in calls:
        want = oracles.reference_path_symmetry_report(cbm, group, N, L, alpha)
        failing = [i for i, entry in enumerate(want) if not entry["passed"]]
        assert drawn == want[: failing[0] + 1 if failing else len(want)]
    # a cluster keeps every entry of the test that accepted it
    assert sorted(v for cluster, _ in paths for v in cluster) == members
    for cluster, margins in paths:
        assert list(margins) == oracles.reference_path_symmetry_report(cbm, cluster, N, L, alpha)


def test_symmetry_clusters_end_to_end(physics):
    b1 = physics.node_names.index("B1")
    st = run_walks(physics, b1, WalkConfig(epsilon=0.1, L=4, N=1505, seed=2))
    part = symmetry_clusters(st, alpha=0.01)
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
    st = run_walks(physics, b1, WalkConfig(epsilon=0.1, L=4, N=1505, seed=2))
    a = symmetry_clusters(st, alpha=0.01)
    b = symmetry_clusters(st, alpha=0.01)
    assert a == b
