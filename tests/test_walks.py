import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import datasets
import oracles
from prism import walks
from prism.hypergraph import LabeledHypergraph, diameter
from prism.pipeline import RunConfig, get_communities
from prism.stats import CountRows
from prism.walks import (
    EULER_GAMMA,
    WalkConfig,
    optimal_walk_count,
    p_star,
    run_walks,
    table_peak_bytes,
    topk_walk_count,
    walk_kept_bytes,
    walk_peak_bytes,
)


def test_p_star_values():
    assert p_star(2, 9) == 1023
    assert p_star(2, 4) == 31
    assert p_star(1, 5) == 6


def test_p_star_rejects_bad_args():
    with pytest.raises(ValueError):
        p_star(0, 3)
    with pytest.raises(ValueError):
        p_star(2, 0)


def test_optimal_walk_count_terms():
    # tht term alone: (9-1)^2/(4*0.01) = 1600; the path term dominates
    n = optimal_walk_count(0.1, 2, 9)
    path_term = 1023 * (EULER_GAMMA + math.log(1023)) / 0.01
    assert n == math.ceil(path_term)
    assert n > 1600


def test_optimal_walk_count_small_alphabet():
    assert optimal_walk_count(0.5, 1, 2) == 21


def test_optimal_walk_count_degenerate_length():
    # L=1 kills the hitting-time term; result is purely the path term
    n = optimal_walk_count(0.9, 1, 1)
    assert n == math.ceil(2 * (EULER_GAMMA + math.log(2)) / 0.81)


def test_optimal_walk_count_overflow_guard():
    with pytest.raises(ValueError):
        optimal_walk_count(0.01, 10, 20)


def test_topk_walk_count_reported_cases():
    n9 = topk_walk_count(0.1, 2, 9, 3)
    n4 = topk_walk_count(0.1, 2, 4, 3)
    assert n9 == 2904
    assert n4 == 1505


def test_topk_at_most_optimal():
    for e in (1, 2, 3):
        for L in (1, 2, 4):
            full = optimal_walk_count(0.2, e, L)
            for k in range(1, min(p_star(e, L) - 1, 6) + 1):
                assert topk_walk_count(0.2, e, L, k) <= full


def test_topk_includes_tht_bound():
    # tiny alphabet, long walks: the hitting-time term dominates
    n = topk_walk_count(0.05, 1, 9, 1)
    assert n >= math.ceil(64 / (4 * 0.0025))


def test_walk_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(L=0, N=1)
    with pytest.raises(ValueError):
        WalkConfig(L=1, N=1, seed=2**64)


def test_run_walks_forced_transition():
    h = datasets.graph(datasets.single_edge_db())
    st = run_walks(h, 0, WalkConfig(L=1, N=64, seed=1))
    assert st.tht[1] == 1.0
    assert st.hits[1] == 64
    table = st.signatures
    assert (table.key // table.stride).tolist() == [1]
    assert table.count.tolist() == [64] and table.length.tolist() == [1]


def test_run_walks_star_matches_exact_oracle():
    # with L=1 a leaf is hit at step 1 or charged L=1, so the estimate is
    # exactly 1 and must equal the dynamic-programming value
    h = datasets.graph(datasets.star_db(5))
    hub = h.node_names.index("hub")
    exact = oracles.exact_tht(h, hub, 1)
    st = run_walks(h, hub, WalkConfig(L=1, N=4000, seed=3))
    for v in range(h.n_nodes):
        if v == hub:
            continue
        assert st.tht[v] == pytest.approx(exact[v], abs=1e-12)
        assert st.hits[v] > 0


def test_run_walks_star_l2_within_3_sigma():
    h = datasets.graph(datasets.star_db(4))
    hub = h.node_names.index("hub")
    L, N = 2, 6000
    exact, second = oracles.exact_tht_moments(h, hub, L)
    st = run_walks(h, hub, WalkConfig(L=L, N=N, seed=9))
    for v in range(h.n_nodes):
        if v == hub:
            continue
        sigma = math.sqrt(second[v] - exact[v] ** 2) / math.sqrt(N)
        assert abs(st.tht[v] - exact[v]) <= 3 * sigma


def test_run_walks_determinism():
    h = datasets.graph(datasets.classroom_db())
    cfg = WalkConfig(L=2, N=500, seed=42)
    a = run_walks(h, 0, cfg)
    b = run_walks(h, 0, cfg)
    assert np.array_equal(a.tht, b.tht)
    assert np.array_equal(a.hits, b.hits)
    assert all(np.array_equal(x, y) for x, y in zip(a.signatures, b.signatures))


def test_run_walks_refuses_keys_past_int64():
    # ranks of 2**62 prefixes, times the base, would pass a key's span; the
    # check comes before any buffer is allocated
    h = datasets.graph(datasets.single_edge_db())
    with pytest.raises(ValueError, match="overflow"):
        run_walks(h, 0, WalkConfig(L=1, N=2**62))


def test_run_walks_seed_changes_stream():
    h = datasets.graph(datasets.classroom_db())
    a = run_walks(h, 0, WalkConfig(L=2, N=500, seed=1))
    b = run_walks(h, 0, WalkConfig(L=2, N=500, seed=2))
    assert not np.array_equal(a.tht, b.tht)


def test_run_walks_count_conservation():
    h = datasets.graph(datasets.physics_db())
    st = run_walks(h, 0, WalkConfig(L=4, N=800, seed=5))
    table = st.signatures
    per_target = np.bincount(table.key // table.stride, weights=table.count, minlength=h.n_nodes)
    assert np.array_equal(per_target, st.hits)
    assert st.hits.max() <= st.N and st.hits[st.source] == 0


def test_run_walks_tht_bounds():
    h = datasets.graph(datasets.physics_db())
    st = run_walks(h, 2, WalkConfig(L=4, N=500, seed=8))
    for target in range(h.n_nodes):
        if target == st.source:
            continue
        assert 1.0 <= st.tht[target] <= st.L


def test_run_walks_monte_carlo_rate():
    h = datasets.graph(datasets.triangle_db())
    L = 3
    exact = oracles.exact_tht(h, 0, L)

    def mean_abs_err(N, seeds):
        errs = []
        for seed in seeds:
            st = run_walks(h, 0, WalkConfig(L=L, N=N, seed=seed))
            errs.append(np.abs(st.tht[1:] - exact[1:]).mean())
        return float(np.mean(errs))

    small = mean_abs_err(100, range(12))
    large = mean_abs_err(10000, range(12))
    # errors should shrink roughly 10x when N grows 100x
    assert large < small * 0.35
    assert large > small * 0.02


def test_exact_tht_single_edge():
    h = datasets.graph(datasets.single_edge_db())
    assert oracles.exact_tht(h, 0, 3)[1] == pytest.approx(1.0)


def test_exact_tht_triangle_three_steps():
    h = datasets.graph(datasets.triangle_db())
    vals = oracles.exact_tht(h, 0, 3)
    assert vals[h.node_names.index("b")] == pytest.approx(1.75)
    assert vals[h.node_names.index("c")] == pytest.approx(1.75)


def test_exact_tht_source_is_zero():
    h = datasets.graph(datasets.physics_db())
    assert oracles.exact_tht(h, 4, 4)[4] == 0.0


def test_exact_tht_unreachable_is_l():
    h = datasets.graph("Knows(a,b)\nKnows(c,d)\n")
    vals = oracles.exact_tht(h, 0, 5)
    assert vals[h.node_names.index("c")] == pytest.approx(5.0)


def test_transition_matrix_rows_sum_to_one():
    h = datasets.graph(datasets.physics_db())
    p = oracles.transition_matrix(h)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert (p >= 0).all()


def test_cardinality_one_edge_is_self_loop():
    h = datasets.graph("Solo(a)\nKnows(a,b)\n")
    p = oracles.transition_matrix(h)
    a = h.node_names.index("a")
    assert p[a, a] == pytest.approx(0.5)


def test_classroom_source_p1_students_symmetric(classroom):
    # the four taught nodes share the same exact hitting time; estimates agree
    # within the merge threshold at alpha=0.01
    from prism.stats import theta_sym

    p1 = classroom.node_names.index("P1")
    N = topk_walk_count(0.1, 2, diameter(classroom), 3)
    st = run_walks(classroom, p1, WalkConfig(L=2, N=N, seed=0))
    students = [classroom.node_names.index(p) for p in ("P3", "P4", "P5", "P6")]
    theta = theta_sym(0.01, st.L, st.N)
    ths = [st.tht[v] for v in students]
    assert max(ths) - min(ths) <= theta


def _ring(n, n_labels, extra, seed):
    """A ring, which keeps it connected, plus random edges of cardinality 3."""
    rng = random.Random(seed)
    edges = [(rng.randrange(n_labels), (i, (i + 1) % n)) for i in range(n)]
    edges += [(rng.randrange(n_labels), tuple(rng.sample(range(n), 3))) for _ in range(extra)]
    return LabeledHypergraph.build(
        [f"v{i}" for i in range(n)], [f"l{i}" for i in range(n_labels)], edges
    )


def _hub():
    """Node 0 in a 30-member edge and in 40 parallel binary edges to node 30:
    its row's probabilities, 1/1189 and 40/41, are three orders of magnitude
    apart, so one bucket of its guide holds many cum values."""
    edges = [(0, tuple(range(30)))] + [(0, (0, 30))] * 40
    return LabeledHypergraph.build([f"v{i}" for i in range(31)], ["l0"], edges)


@st.composite
def walk_inputs(draw):
    """Up to 12 nodes, some stranded, 1 to 3 labels, edges of cardinality 1
    to 3, and a source, L and N for one run."""
    n = draw(st.integers(1, 12))
    n_labels = draw(st.integers(1, 3))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_labels - 1),
                st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True),
            ),
            max_size=20,
        )
    )
    h = LabeledHypergraph.build(
        [f"v{i}" for i in range(n)],
        [f"l{i}" for i in range(n_labels)],
        [(label, tuple(members)) for label, members in edges],
    )
    cfg = WalkConfig(
        L=draw(st.integers(1, 6)),
        N=draw(st.integers(1, 300)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return h, draw(st.integers(0, n - 1)), cfg


@settings(max_examples=200, deadline=None)
@given(walk_inputs())
# L digits in base n_labels + 1 overflow a key in the first three, so the
# label prefixes are ranked: 3 labels and L=30; 300 labels and L=8; one
# label, where every prefix reaches its bound, with n * L = 2**12, which
# puts the first ranking at length 51, where first hits are common
@example((datasets.graph(datasets.labeled_chain_db(30)), 0, WalkConfig(L=30, N=400, seed=11)))
@example((_ring(50, 300, 30, seed=3), 0, WalkConfig(L=8, N=3000, seed=11)))
@example(
    (
        LabeledHypergraph.build(
            [f"v{i}" for i in range(64)],
            ["l0"],
            [(0, (i, j)) for i in range(64) for j in range(i + 1, 64)],
        ),
        0,
        WalkConfig(L=64, N=200, seed=11),
    )
)
# 12 steps on 5 nodes: every walk comes back to nodes it has seen
@example((_ring(5, 2, 0, seed=4), 0, WalkConfig(L=12, N=500, seed=11)))
def test_run_walks_equals_reference_walks(inputs):
    h, source, cfg = inputs
    tables = h.walk_tables
    for v, (nexts, labels, cums) in enumerate(zip(*oracles.reference_tables(h))):
        row = slice(tables.indptr[v], tables.indptr[v + 1])
        assert np.array_equal(tables.next[row], nexts)
        assert np.array_equal(tables.label[row], labels)
        assert np.array_equal(tables.cum[row], cums)
    got = run_walks(h, source, cfg)
    want = oracles.reference_walks(h, source, cfg)
    assert np.array_equal(got.tht, want.tht)
    assert np.array_equal(got.hits, want.hits)
    assert oracles.signature_dicts(got.signatures, want.signature_counts) == want.signature_counts


@st.composite
def table_hypergraphs(draw):
    """Up to 40 nodes, some stranded, 1 to 4 labels and edges of cardinality
    1 to 6, some repeated, so that one (next node, label) pair sums the
    shares of several edges."""
    n = draw(st.integers(1, 40))
    n_labels = draw(st.integers(1, 4))
    edge = st.tuples(
        st.integers(0, n_labels - 1),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True).map(tuple),
    )
    edges = draw(st.lists(edge, max_size=60))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=10))
    return LabeledHypergraph.build(
        [f"v{i}" for i in range(n)], [f"l{i}" for i in range(n_labels)], edges
    )


@settings(max_examples=200, deadline=None)
@given(table_hypergraphs())
@example(_hub())
@example(_ring(300, 3, 200, seed=5))
def test_transition_tables_equal_reference_loop(h):
    # the vectorized build keeps every bit of the per-node dict loop
    got = walks.transition_tables(h)
    for name, want in zip(got._fields, oracles.reference_transition_tables(h)):
        assert getattr(got, name).dtype == want.dtype, name
        assert np.array_equal(getattr(got, name), want), name


@settings(max_examples=100, deadline=None)
@given(walk_inputs(), st.integers(0, 2**32 - 1))
# a row whose buckets hold many cum values, where lookups step forward; a
# stranded node, whose one entry is (v, -1); a one-member edge beside a
# binary one
@example((_hub(), 0, WalkConfig(L=1, N=1)), 0)
@example(
    (LabeledHypergraph.build(["a", "b", "c"], ["l0"], [(0, (0, 2))]), 1, WalkConfig(L=1, N=1)), 0
)
@example(
    (
        LabeledHypergraph.build(["a", "b"], ["l0", "l1"], [(0, (0,)), (1, (0, 1))]),
        0,
        WalkConfig(L=1, N=1),
    ),
    0,
)
def test_table_lookup_is_searchsorted_right(inputs, seed):
    # random draws almost never land on a boundary, so put some on, just
    # below and just above every cumulative probability under 1
    h = inputs[0]
    t = h.walk_tables
    edges = t.cum[t.cum < 1.0]
    u = np.concatenate(
        [[0.0], edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
         np.random.default_rng(seed).random(20)]
    )
    u = u[u < 1.0]
    rows = np.repeat(np.arange(h.n_nodes), len(u))
    u = np.tile(u, h.n_nodes)
    want = [
        t.indptr[r] + np.searchsorted(t.cum[t.indptr[r] : t.indptr[r + 1]], x, side="right")
        for r, x in zip(rows, u)
    ]
    assert np.array_equal(walks.table_lookup(t, rows, u), want)


@settings(max_examples=100, deadline=None)
@given(walk_inputs())
@example((_hub(), 0, WalkConfig(L=1, N=1)))
def test_guide_has_at_most_its_buckets_per_entry(inputs):
    # the smallest power of two of at least 2 buckets per entry
    t = inputs[0].walk_tables
    k = np.diff(t.indptr)
    assert len(t.guide) == t.gptr[-1]
    assert np.all(t.gsize == np.diff(t.gptr))
    assert np.all((2 * k <= t.gsize) & (t.gsize < 4 * k))
    assert np.all(np.log2(t.gsize) % 1 == 0)


def test_hub_guide_scans_past_several_entries():
    # the lookup test's hub example steps forward in more than one round
    t = _hub().walk_tables
    assert t.gsize[0] == 64 and t.width >= 3


def test_run_walks_memory_has_no_walks_by_nodes_array():
    # a dense N x n int64 first-hit array would take 2000 * 10000 * 8 B = 160 MB
    n = 10_000
    rng = random.Random(0)
    edges = [(i % 2, (i, (i + 1) % n)) for i in range(n)]
    edges += [(1, (rng.randrange(n), rng.randrange(n), rng.randrange(n))) for _ in range(n // 2)]
    h = LabeledHypergraph.build([f"v{i}" for i in range(n)], ["a", "b"], edges)
    cfg = WalkConfig(L=3, N=2000, seed=1)
    tracemalloc.start()
    try:
        st_ = run_walks(h, 0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st_.hits.sum() > 0
    assert peak < 16 * 2**20
    # the pipeline's memory budget check must not undercount this case
    assert peak <= walk_peak_bytes(n, h.n_labels, cfg.N, cfg.L) + table_peak_bytes(h)


@pytest.mark.parametrize(
    "build, N, L",
    [
        (lambda: _ring(20, 3, 10, seed=20), 40_000, 5),  # few nodes, many walks
        # many labels: nearly every signature distinct
        (lambda: _ring(50, 300, 200, seed=50), 20_000, 5),
        # one 300-member edge: 89,700 table pairs outweigh 400 walk steps
        (
            lambda: LabeledHypergraph.build(
                [f"v{i}" for i in range(300)], ["l0"], [(0, tuple(range(300)))]
            ),
            200,
            2,
        ),
    ],
    ids=["walks", "labels", "wide-edge"],
)
def test_walk_peak_estimate_bounds_tracemalloc_peak(build, N, L):
    # as in the 10k-node case above, the tables are built inside the
    # measured call, as on a sub-hypergraph's first source
    h = build()
    tracemalloc.start()
    try:
        run_walks(h, 0, WalkConfig(L=L, N=N, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= walk_peak_bytes(h.n_nodes, h.n_labels, N, L) + table_peak_bytes(h)


@pytest.mark.parametrize(
    "n, n_labels, extra, N, L",
    [(20, 3, 10, 40_000, 5), (50, 300, 200, 20_000, 5), (30, 1, 0, 5_000, 2)],
    ids=["walks", "labels", "ring"],
)
def test_walk_kept_estimate_bounds_walked_source(n, n_labels, extra, N, L):
    # what a walked source keeps until its block is clustered: its table,
    # per-node arrays and count rows over every reached node, bounded both
    # where walks repeat signatures and where nearly every signature is
    # distinct
    h = _ring(n, n_labels, extra, seed=n)
    for source in (0, n // 2):
        st_ = run_walks(h, source, WalkConfig(L=L, N=N, seed=1))
        reached = np.flatnonzero(st_.hits).tolist()
        rows = CountRows.from_tables([(source, st_.signatures, reached)])
        kept = sum(a.nbytes for a in (*st_.signatures[:3], st_.tht, st_.hits, *rows))
        assert kept + 16 * len(reached) <= walk_kept_bytes(n, n_labels, N, L)


@pytest.mark.parametrize("threads", [1, 2])
def test_transition_tables_built_once_per_subhypergraph(two_departments, monkeypatch, threads):
    built = []
    build = walks.transition_tables

    def spy(h):
        built.append(h)
        return build(h)

    monkeypatch.setattr(walks, "transition_tables", spy)
    report = get_communities(two_departments, RunConfig(seed=0, threads=threads))
    assert len(report.subhypergraphs) > 1
    assert len(built) == len(report.subhypergraphs)
    assert len({id(h) for h in built}) == len(built)
