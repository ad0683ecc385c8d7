import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import datasets
import oracles
from prism import spectral
from prism.hypergraph import LabeledHypergraph, to_weighted_graph
from prism.spectral import (
    EIG_TOLERANCE,
    DisconnectedGraphError,
    cheeger_sweep_cut,
    get_clusters,
    hcluster,
    second_eigenpair,
)


def graph_from_pairs(n, pair_weights):
    """Symmetric CSR adjacency with weight w on both (i, j) and (j, i)."""
    W = np.zeros((n, n))
    for (i, j), w in pair_weights.items():
        W[i, j] = W[j, i] = w
    return sparse.csr_array(W)


def graph_from_edges(n, edges):
    return graph_from_pairs(n, {(i, j): w for i, j, w in edges})


def complete_graph(n):
    return graph_from_edges(
        n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
    )


def barbell():
    """Two unit-weight triangles joined by a single edge."""
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0), (2, 3, 1.0)]
    return graph_from_edges(6, edges)


def test_second_eigenpair_k3():
    lam, v = second_eigenpair(complete_graph(3))
    assert lam == pytest.approx(1.5, abs=1e-6)


def test_second_eigenpair_p2():
    g = graph_from_edges(2, [(0, 1, 1.0)])
    lam, v = second_eigenpair(g)
    assert lam == pytest.approx(2.0, abs=1e-6)
    assert np.allclose(np.abs(v), [np.sqrt(0.5)] * 2, atol=1e-6)


def test_second_eigenpair_barbell_matches_dense_solve():
    g = barbell()
    lam, v = second_eigenpair(g)
    lam_exact, v_exact = oracles.dense_second_eigenpair(g)
    assert lam < 0.5
    assert lam == pytest.approx(lam_exact, abs=1e-6)
    align = abs(float(v @ v_exact))
    assert align == pytest.approx(1.0, abs=1e-5)


def test_second_eigenpair_residual_contract():
    g = barbell()
    lam, v = second_eigenpair(g)
    lam_o, _ = oracles.dense_second_eigenpair(g)
    W = np.zeros((6, 6))
    for (i, j), w in oracles.pair_weights(g).items():
        W[i, j] = W[j, i] = w
    d = W.sum(axis=1)
    dm = np.diag(1 / np.sqrt(d))
    lsym = np.eye(6) - dm @ W @ dm
    assert np.linalg.norm(lsym @ v - lam * v) <= EIG_TOLERANCE * 10
    # orthogonal to the trivial direction
    assert abs(np.sqrt(d) @ v) / np.linalg.norm(np.sqrt(d)) < 1e-6


def test_second_eigenpair_rejects_disconnected():
    g = graph_from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(DisconnectedGraphError):
        second_eigenpair(g)


def _outcome(solver, g):
    """lambda, v's dtype and v's bytes, or the ConvergenceError message."""
    try:
        lam, v = solver(g)
    except spectral.ConvergenceError as err:
        return str(err)
    return lam, v.dtype, v.tobytes()


@st.composite
def eigen_inputs(draw):
    """A connected weighted graph of 2-150 nodes in one of the CSR forms
    ``second_eigenpair`` can meet: unit, integer or float weights; int32 or
    int64 indices; a ``g[ids][:, ids]`` slice as ``get_clusters`` builds
    it; or rows in shuffled order with some entries split in two."""
    n = draw(st.integers(2, 150))
    shape = draw(st.sampled_from(["tree", "star", "bipartite"]))
    weights = draw(st.sampled_from(["unit", "integer", "float"]))
    form = draw(st.sampled_from(["int32", "int64", "slice", "unsorted"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "bipartite":  # each side is a tied group
        a = int(rng.integers(1, n))
        pairs = {(i, j) for i in range(a) for j in range(a, n)}
    else:  # a random tree or a star, then a few random edges
        pairs = {(0 if shape == "star" else int(rng.integers(0, i)), i) for i in range(1, n)}
        for _ in range(int(rng.integers(0, 4))):
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            pairs.add((i, j))
    i, j = np.array(sorted(pairs)).T
    if weights == "float":
        w = rng.uniform(0.2, 2.0, len(i))
    else:
        w = np.ones(len(i), dtype=np.int64) if weights == "unit" else rng.integers(1, 6, len(i))
    rows, cols, data = np.r_[i, j], np.r_[j, i], np.r_[w, w]
    if form == "slice":  # embed among extra nodes, then cut it back out
        m = n + int(rng.integers(1, 20))
        at = rng.permutation(m)
        p, q = rng.integers(0, m, (2, m))
        keep = (p != q) & (np.isin(p, at[n:]) | np.isin(q, at[n:]))  # an end outside
        p, q = p[keep], q[keep]
        ones = np.ones(len(p), dtype=data.dtype)
        big = sparse.csr_array(
            (np.r_[data, ones, ones], (np.r_[at[rows], p, q], np.r_[at[cols], q, p])), shape=(m, m)
        )
        ids = np.sort(at[:n])
        return big[ids][:, ids]
    g = sparse.csr_array((data, (rows, cols)), shape=(n, n))  # int64 indices
    if form == "int32":
        return sparse.csr_array(
            (g.data, g.indices.astype(np.int32), g.indptr.astype(np.int32)), shape=(n, n)
        )
    if form == "unsorted":  # split some entries in two, then shuffle each row
        rows = np.repeat(np.arange(n), np.diff(g.indptr))
        split = (g.data > 1) & (rng.random(g.nnz) < 0.5)
        rows = np.r_[rows, rows[split]]
        cols = np.r_[g.indices, g.indices[split]]
        data = np.r_[np.where(split, g.data - 1, g.data), np.ones(split.sum(), dtype=g.dtype)]
        order = np.lexsort((rng.random(len(rows)), rows))
        indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=n))]
        return sparse.csr_array((data[order], cols[order], indptr), shape=(n, n))
    return g


@settings(max_examples=80, deadline=None)
@given(eigen_inputs())
def test_second_eigenpair_is_bit_equal_to_the_expression_form(g):
    assert _outcome(second_eigenpair, g) == _outcome(oracles.reference_second_eigenpair, g)


@pytest.mark.parametrize("gen_seed", [2, 4])
def test_hcluster_solves_are_bit_equal_to_the_expression_form(gen_seed, monkeypatch):
    # every solve hcluster makes on a dept k10 database of the benchmark
    solved = []

    def spy(g):
        solved.append(g)
        return second_eigenpair(g)

    h = datasets.graph(datasets.bench_db("dept", 10, gen_seed))
    monkeypatch.setattr(spectral, "second_eigenpair", spy)
    hcluster(h)
    assert len(solved) >= 10
    for g in solved:
        assert _outcome(second_eigenpair, g) == _outcome(oracles.reference_second_eigenpair, g)


@pytest.mark.parametrize("max_iters", [1, 2, 7, 50])
def test_second_eigenpair_fails_exactly_when_the_expression_form_fails(max_iters, monkeypatch):
    # K3 and P2 converge on the first step, K(3,4) on the second, the
    # barbell on the 27th and the 12-node path on the 246th
    monkeypatch.setattr(spectral, "EIG_MAX_ITERS", max_iters)
    k34 = graph_from_edges(7, [(i, j, 1.0) for i in range(3) for j in range(3, 7)])
    path = graph_from_edges(12, [(i, i + 1, 1.0) for i in range(11)])
    graphs = [complete_graph(3), graph_from_edges(2, [(0, 1, 1.0)]), k34, barbell(), path]
    outcomes = [_outcome(second_eigenpair, g) for g in graphs]
    assert outcomes == [_outcome(oracles.reference_second_eigenpair, g) for g in graphs]
    failed = [isinstance(o, str) for o in outcomes]
    assert failed == [False, False, max_iters < 2, max_iters < 27, True]
    assert f"in {max_iters} iterations" in outcomes[-1]


def test_sweep_cut_barbell():
    g = barbell()
    _, v = second_eigenpair(g)
    side, rest, phi = cheeger_sweep_cut(g, v)
    assert phi == pytest.approx(1 / 7)
    assert sorted([side.tolist(), rest.tolist()]) == [[0, 1, 2], [3, 4, 5]]
    assert phi == pytest.approx(oracles.best_bipartition_conductance(g))


def test_sweep_cut_k4():
    g = complete_graph(4)
    _, v = second_eigenpair(g)
    side, rest, phi = cheeger_sweep_cut(g, v)
    assert phi == pytest.approx(2 / 3)


def test_sweep_cut_p2_only_cut():
    g = graph_from_edges(2, [(0, 1, 1.0)])
    _, v = second_eigenpair(g)
    side, rest, phi = cheeger_sweep_cut(g, v)
    assert phi == pytest.approx(1.0)
    assert len(side) == len(rest) == 1


def test_sweep_cut_matches_brute_force_prefix_minimum():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(3, 13))
        edges = {}
        for i in range(1, n):
            j = int(rng.integers(0, i))
            edges[(j, i)] = float(rng.uniform(0.2, 2.0))
        extra = int(rng.integers(0, n))
        for _ in range(extra):
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            edges[(i, j)] = float(rng.uniform(0.2, 2.0))
        g = graph_from_pairs(n, edges)
        _, v = second_eigenpair(g)
        _, _, phi = cheeger_sweep_cut(g, v)
        assert phi == pytest.approx(oracles.best_sweep_prefix_conductance(g, v))


def test_get_clusters_stops_on_lambda2():
    g = complete_graph(5)  # lambda2 = 1.25 > 0.8
    assert get_clusters(g).tolist() == [0] * 5


def test_get_clusters_respects_n_min(monkeypatch):
    # two K5 blobs joined by one edge: the cut exists but sides of 5 < N_MIN=6
    edges = [(i, j, 1.0) for i in range(5) for j in range(i + 1, 5)]
    edges += [(i, j, 1.0) for i in range(5, 10) for j in range(i + 1, 10)]
    edges += [(4, 5, 1.0)]
    g = graph_from_edges(10, edges)
    monkeypatch.setattr(spectral, "N_MIN", 6)
    assert get_clusters(g).tolist() == [0] * 10
    monkeypatch.setattr(spectral, "N_MIN", 5)
    assert get_clusters(g).tolist() == [0] * 5 + [1] * 5


@pytest.mark.parametrize("n_min", [2, 3, 8])
def test_get_clusters_small_connected_subgraph_is_a_leaf_without_eigensolve(n_min, monkeypatch):
    # below 2 * N_MIN nodes no cut can leave n_min nodes on both sides, so
    # the eigensolver is never reached and cannot fail
    def unreachable(g):
        raise spectral.ConvergenceError("stub eigensolver")

    monkeypatch.setattr(spectral, "second_eigenpair", unreachable)
    monkeypatch.setattr(spectral, "N_MIN", n_min)
    n = 2 * n_min - 1  # a path graph of n nodes, then of n + 1
    g = graph_from_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    assert get_clusters(g).tolist() == [0] * n
    g = graph_from_edges(n + 1, [(i, i + 1, 1.0) for i in range(n)])
    with pytest.raises(spectral.ConvergenceError, match="stub"):
        get_clusters(g)


def test_get_clusters_two_departments(two_departments):
    g = to_weighted_graph(two_departments)
    labels = get_clusters(g)
    physics = {f"P{i}" for i in range(1, 9)} | {"B1", "B2"}
    # node 0 is P4, so physics is leaf 0
    assert labels.tolist() == [int(n not in physics) for n in two_departments.node_names]


def test_get_clusters_partition_property(monkeypatch):
    monkeypatch.setattr(spectral, "N_MIN", 2)
    monkeypatch.setattr(spectral, "LAMBDA2_MAX", 0.5)
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(2, 20))
        edges = {}
        for i in range(1, n):
            j = int(rng.integers(0, i))
            edges[(j, i)] = 1.0
        g = graph_from_pairs(n, edges)
        labels = get_clusters(g)
        assert labels.shape == (n,)
        # leaves 0..k-1, numbered in order of their smallest node id
        leaves, first = np.unique(labels, return_index=True)
        assert leaves.tolist() == list(range(len(leaves)))
        assert first.tolist() == sorted(first.tolist())


def test_get_clusters_monotone_in_lambda2_max(monkeypatch):
    # a higher LAMBDA2_MAX stops the recursion less often, so the leaf count
    # can only grow with it
    g = to_weighted_graph(datasets.graph(datasets.two_departments_db()))
    monkeypatch.setattr(spectral, "N_MIN", 2)
    counts = []
    for lam_max in (0.2, 0.5, 0.8, 1.2, 2.0):
        monkeypatch.setattr(spectral, "LAMBDA2_MAX", lam_max)
        counts.append(int(get_clusters(g).max()) + 1)
    assert counts == sorted(counts)
    assert counts[0] >= 1 and counts[-1] >= counts[0]


def test_hcluster_two_departments(two_departments):
    from prism.hypergraph import diameter

    subs = hcluster(two_departments)
    assert len(subs) == 2
    assert sorted(diameter(s) for s in subs) == [4, 4]
    assert sum(s.n_edges for s in subs) == two_departments.n_edges


def test_hcluster_single_edge_identity():
    h = datasets.graph(datasets.single_edge_db())
    subs = hcluster(h)
    assert len(subs) == 1
    assert subs[0].n_edges == h.n_edges


def test_hcluster_disjoint_dense_components_split(monkeypatch):
    # two disjoint triangles: the free cut separates them, then each triangle
    # is well connected (lambda2 = 1.5) and survives whole
    h = LabeledHypergraph.build(
        tuple(f"v{i}" for i in range(6)),
        ("l",),
        [(0, (0, 1)), (0, (1, 2)), (0, (0, 2)), (0, (3, 4)), (0, (4, 5)), (0, (3, 5))],
    )
    monkeypatch.setattr(spectral, "N_MIN", 2)
    subs = hcluster(h)
    assert len(subs) == 2
    assert sum(s.n_edges for s in subs) == h.n_edges
    from prism.hypergraph import connected_components

    assert {tuple(s.node_names) for s in subs} == {
        tuple(c.node_names) for c in connected_components(h)
    }


def test_hcluster_losslessness_random(monkeypatch):
    monkeypatch.setattr(spectral, "N_MIN", 2)
    monkeypatch.setattr(spectral, "LAMBDA2_MAX", 0.6)
    rng = np.random.default_rng(3)
    for trial in range(8):
        n = int(rng.integers(2, 14))
        n_edges = int(rng.integers(1, 18))
        edges = []
        for _ in range(n_edges):
            size = int(rng.integers(1, min(4, n) + 1))
            members = tuple(int(x) for x in rng.choice(n, size=size, replace=False))
            edges.append((0, members))
        h = LabeledHypergraph.build(
            tuple(f"v{i}" for i in range(n)), ("l",), edges
        )
        subs = hcluster(h)
        assert sum(s.n_edges for s in subs) == h.n_edges
        covered = set()
        for s in subs:
            covered.update(s.node_names)
        assert covered == set(h.node_names)
