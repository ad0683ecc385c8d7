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
    subs = majority_subhypergraph(h, [{0, 1}, {2}])
    assert subs[0].n_edges == 1
    assert subs[1].n_edges == 0
    assert set(subs[0].node_names) == {"v0", "v1", "v2"}
    assert set(subs[1].node_names) == {"v2"}


def test_majority_tie_break_lowest_node_id():
    h = make([(0, (0, 1))], 2)
    subs = majority_subhypergraph(h, [{0}, {1}])
    assert [s.n_edges for s in subs] == [1, 0]


def test_majority_identity():
    h = make([(0, (0, 1)), (0, (1, 2))], 3)
    subs = majority_subhypergraph(h, [{0, 1, 2}])
    assert len(subs) == 1
    assert subs[0].n_edges == h.n_edges


def test_majority_rejects_non_partition():
    h = make([(0, (0, 1))], 2)
    with pytest.raises(ValueError):
        majority_subhypergraph(h, [{0}])
    with pytest.raises(ValueError):
        majority_subhypergraph(h, [{0, 1}, {1}])


def test_majority_preserves_spurious_edge_once(two_departments):
    physics = {f"P{i}" for i in range(1, 9)} | {"B1", "B2"}
    history = {n for n in two_departments.node_names if n not in physics}
    parts = [
        {two_departments.node_names.index(n) for n in physics},
        {two_departments.node_names.index(n) for n in history},
    ]
    subs = majority_subhypergraph(two_departments, parts)
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
    parts = [set() for _ in range(3)]
    for v, p in enumerate(owner):
        parts[p].add(v)
    parts = [p for p in parts if p]
    subs = majority_subhypergraph(h, parts)
    assert sum(s.n_edges for s in subs) == h.n_edges


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
    physics = {f"P{i}" for i in range(1, 9)} | {"B1", "B2"}
    parts = majority_subhypergraph(
        two_departments,
        [
            {two_departments.node_names.index(n) for n in names}
            for names in (physics, set(two_departments.node_names) - physics)
        ],
    )
    full = diameter(two_departments)
    for sub in parts:
        assert diameter(sub) <= full


def test_edge_member_order_is_preserved():
    h = build_hypergraph(parse_database("R(b,a)"))
    assert h.edges[0][1] == (0, 1)
    assert h.node_names == ("b", "a")
