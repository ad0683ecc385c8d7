import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datasets
import oracles
from prism.hypergraph import (
    LabeledHypergraph,
    connected_components,
    diameter,
    majority_subhypergraph,
    to_weighted_graph,
)
from prism.relational import build_hypergraph, parse_database
from prism.spectral import cheeger_sweep_cut


def make(edges, n_nodes, n_labels=1):
    return LabeledHypergraph.build(
        tuple(f"v{i}" for i in range(n_nodes)),
        tuple(f"l{i}" for i in range(n_labels)),
        edges,
    )


def test_diameter_single_hyperedge():
    h = make([(0, (0, 1, 2))], 3)
    assert diameter(h) == 1


def test_diameter_chain():
    h = datasets.graph(datasets.chain_db(3))
    assert diameter(h) == 3


def test_diameter_two_departments(two_departments):
    # the joined departments span 8 hops (book to book across the bridge)
    assert diameter(two_departments) == 8


def test_diameter_department(physics):
    assert diameter(physics) == 4


def test_diameter_long_chain_spans_search_chunks():
    # 300 sources take two chunks of breadth-first searches
    h = make([(0, (i, i + 1)) for i in range(299)], 300)
    assert diameter(h) == 299


def test_clique_expansion_pair():
    g = to_weighted_graph(make([(0, (0, 1))], 2))
    assert oracles.pair_weights(g) == {(0, 1): 1.0}


def test_clique_expansion_triangle_edge():
    g = to_weighted_graph(make([(0, (0, 1, 2))], 3))
    assert oracles.pair_weights(g) == {(0, 1): 0.5, (0, 2): 0.5, (1, 2): 0.5}


def test_clique_expansion_accumulates():
    g = to_weighted_graph(make([(0, (0, 1, 2)), (0, (0, 1))], 3))
    adj = oracles.pair_weights(g)
    assert adj[(0, 1)] == pytest.approx(1.5)
    assert adj[(0, 2)] == adj[(1, 2)] == pytest.approx(0.5)


def test_cardinality_one_edge_adds_no_pairs():
    g = to_weighted_graph(make([(0, (0,)), (0, (0, 1))], 2))
    assert oracles.pair_weights(g) == {(0, 1): 1.0}


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
        min_size=1,
        max_size=10,
    )
)
def test_clique_expansion_weight_conservation(edge_sets):
    h = make([(0, tuple(e)) for e in edge_sets], 8)
    g = to_weighted_graph(h)
    total = sum(oracles.pair_weights(g).values())
    expected = sum(
        math.comb(len(m), 2) / (len(m) - 1) for _, m in h.edges if len(m) >= 2
    )
    assert total == pytest.approx(expected)


@st.composite
def random_hypergraphs(draw):
    """Up to 40 nodes, some isolated, with edges of cardinality 1 to 3."""
    n = draw(st.integers(1, 40))
    edges = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True),
            max_size=30,
        )
    )
    return make([(0, tuple(e)) for e in edges], n)


@settings(max_examples=60, deadline=None)
@given(random_hypergraphs(), st.integers(0, 2**32 - 1))
def test_sparse_graph_layer_matches_oracles(h, seed):
    assert diameter(h) == oracles.bfs_diameter(h)
    comps = connected_components(h)
    assert [(set(c.node_names), c.n_edges) for c in comps] == oracles.bfs_components(h)
    g = to_weighted_graph(h)
    assert g.shape == (h.n_nodes, h.n_nodes)
    assert (g != g.T).nnz == 0
    assert g.diagonal().tolist() == [0.0] * h.n_nodes
    got = oracles.pair_weights(g)
    expected = oracles.clique_expansion_pairs(h)
    assert got.keys() == expected.keys()
    assert all(got[k] == pytest.approx(w) for k, w in expected.items())
    # rounded values make ties in the ordering, which break by index
    rng = np.random.default_rng(seed)
    for comp in comps:
        if comp.n_nodes < 2:
            continue
        cg = to_weighted_graph(comp)
        v2 = np.round(rng.standard_normal(comp.n_nodes), 1)
        _, _, phi = cheeger_sweep_cut(cg, v2)
        assert phi == pytest.approx(oracles.best_sweep_prefix_conductance(cg, v2))


def test_majority_strict():
    h = make([(0, (0, 1, 2))], 3)
    subs = majority_subhypergraph(h, np.array([0, 0, 1]))
    assert subs[0].n_edges == 1
    assert subs[1].n_edges == 0
    assert set(subs[0].node_names) == {"v0", "v1", "v2"}
    assert set(subs[1].node_names) == {"v2"}


def test_majority_tie_break_lowest_node_id():
    h = make([(0, (0, 1))], 2)
    subs = majority_subhypergraph(h, np.array([0, 1]))
    assert [s.n_edges for s in subs] == [1, 0]
    subs = majority_subhypergraph(h, np.array([1, 0]))
    assert [s.n_edges for s in subs] == [0, 1]


def test_majority_identity():
    h = make([(0, (0, 1)), (0, (1, 2))], 3)
    subs = majority_subhypergraph(h, np.zeros(3, dtype=np.int64))
    assert len(subs) == 1
    assert subs[0].n_edges == h.n_edges


def test_majority_rejects_non_partition():
    h = make([(0, (0, 1))], 2)
    bad = {
        "short": [0],
        "long": [0, 1, 1],
        "negative": [0, -1],
        "skipped": [0, 2],
        "no part 0": [1, 1],
        "not integers": [0.0, 1.0],
    }
    for labels in bad.values():
        with pytest.raises(ValueError):
            majority_subhypergraph(h, np.array(labels))


def department_labels(h):
    """Physics (with its books B1, B2) as part 0, history as part 1."""
    physics = {f"P{i}" for i in range(1, 9)} | {"B1", "B2"}
    return np.array([0 if name in physics else 1 for name in h.node_names])


def test_majority_preserves_spurious_edge_once(two_departments):
    subs = majority_subhypergraph(two_departments, department_labels(two_departments))
    assert sum(s.n_edges for s in subs) == two_departments.n_edges
    spurious = [
        s
        for s in subs
        for lbl, members in s.edges
        if {s.node_names[v] for v in members} == {"P8", "B4"}
    ]
    assert len(spurious) == 1


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
        min_size=1,
        max_size=10,
    ),
    st.lists(st.integers(0, 2), min_size=8, max_size=8),
)
def test_majority_is_lossless(edge_sets, owner):
    h = make([(0, tuple(e)) for e in edge_sets], 8)
    labels = np.unique(owner, return_inverse=True)[1]
    subs = majority_subhypergraph(h, labels)
    assert sum(s.n_edges for s in subs) == h.n_edges


@st.composite
def partitioned_hypergraphs(draw):
    """Up to 30 nodes, some isolated, edges of cardinality 1 to 4 over 3
    labels (size-2 and size-4 edges can tie), and up to one part per node,
    each part non-empty."""
    n = draw(st.integers(1, 30))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True),
            ),
            max_size=30,
        )
    )
    owner = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    h = make([(label, tuple(m)) for label, m in edges], n, n_labels=3)
    return h, np.unique(owner, return_inverse=True)[1]


@settings(max_examples=100, deadline=None)
@given(partitioned_hypergraphs())
def test_majority_split_equals_reference(case):
    h, labels = case
    parts = [set(np.flatnonzero(labels == i).tolist()) for i in range(labels.max() + 1)]
    got = [
        (
            s.node_names,
            s.label_names,
            [(s.label_names[l], tuple(s.node_names[v] for v in m)) for l, m in s.edges],
        )
        for s in majority_subhypergraph(h, labels)
    ]
    assert got == oracles.reference_majority_split(h, parts)


@settings(max_examples=100, deadline=None)
@given(partitioned_hypergraphs())
def test_majority_split_pieces_own_their_parts(case):
    # a piece's own nodes are its part's; the rest are endpoints of its
    # edges from other parts
    h, labels = case
    for i, piece in enumerate(majority_subhypergraph(h, labels)):
        own = [piece.node_names[v] for v in piece.own]
        assert own == [h.node_names[v] for v in np.flatnonzero(labels == i)]


@settings(max_examples=100, deadline=None)
@given(partitioned_hypergraphs())
def test_restrict_equals_build(case):
    # restrict builds its pieces without build's checks and deduplication
    h, labels = case
    for piece in majority_subhypergraph(h, labels):
        assert piece == LabeledHypergraph.build(piece.node_names, piece.label_names, piece.edges)


def test_components_connected(physics):
    comps = connected_components(physics)
    assert len(comps) == 1
    assert comps[0].n_edges == physics.n_edges


def test_components_two_disjoint_edges():
    h = make([(0, (0, 1)), (0, (2, 3))], 4)
    comps = connected_components(h)
    assert len(comps) == 2
    assert {tuple(c.node_names) for c in comps} == {("v0", "v1"), ("v2", "v3")}


def test_components_empty():
    h = LabeledHypergraph.build((), (), [])
    assert connected_components(h) == []


def test_subhypergraph_diameter_never_exceeds_parent(two_departments):
    parts = majority_subhypergraph(two_departments, department_labels(two_departments))
    full = diameter(two_departments)
    for sub in parts:
        assert diameter(sub) <= full


def test_edge_member_order_is_preserved():
    h = build_hypergraph(parse_database("R(b,a)"))
    assert h.edges[0][1] == (0, 1)
    assert h.node_names == ("b", "a")
