"""Labeled hypergraph structure and graph-level operations.

A hypergraph here is a set of named nodes plus labeled hyperedges (each a
non-empty node set). It supports diameter computation, clique expansion to a
weighted graph (a symmetric ``scipy.sparse`` CSR array), majority-rule
reconstruction of sub-hypergraphs from a node partition, and
connected-component splitting. Graph searches run in ``scipy.sparse.csgraph``
over the node adjacency B @ B.T of the node-by-edge incidence matrix B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

Edge = tuple[int, tuple[int, ...]]  # (label id, member node ids)

_DIAMETER_CHUNK = 256  # BFS sources per shortest_path call in ``diameter``


@dataclass(frozen=True)
class LabeledHypergraph:
    """Immutable labeled hypergraph over integer node ids.

    Node ids index ``node_names``; label ids index ``label_names``. Edge
    members are deduplicated but keep their first-occurrence order so the
    originating ground atoms can be recovered.
    """

    node_names: tuple[str, ...]
    label_names: tuple[str, ...]
    edges: tuple[Edge, ...]
    incidence: tuple[tuple[int, ...], ...] = field(repr=False)

    @classmethod
    def build(
        cls,
        node_names: tuple[str, ...] | list[str],
        label_names: tuple[str, ...] | list[str],
        edges: list[Edge] | tuple[Edge, ...],
    ) -> "LabeledHypergraph":
        node_names = tuple(node_names)
        label_names = tuple(label_names)
        n = len(node_names)
        if len(set(node_names)) != n:
            raise ValueError("duplicate node names")
        normalized: list[Edge] = []
        incidence: list[list[int]] = [[] for _ in range(n)]
        for eid, (label, members) in enumerate(edges):
            if not 0 <= label < len(label_names):
                raise ValueError(f"edge {eid}: unknown label id {label}")
            seen: dict[int, None] = {}
            for v in members:
                if not 0 <= v < n:
                    raise ValueError(f"edge {eid}: node id {v} out of range")
                seen.setdefault(v)
            if not seen:
                raise ValueError(f"edge {eid}: empty hyperedge")
            dedup = tuple(seen)
            normalized.append((label, dedup))
            for v in dedup:
                incidence[v].append(eid)
        return cls(
            node_names=node_names,
            label_names=label_names,
            edges=tuple(normalized),
            incidence=tuple(tuple(ids) for ids in incidence),
        )

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_labels(self) -> int:
        return len(self.label_names)

    @cached_property
    def walk_tables(self):
        """The random walk's transition tables (``walks.TransitionTables``),
        built on first use and shared by every later walk on this
        hypergraph."""
        from .walks import transition_tables  # walks imports this module

        return transition_tables(self)

    def restrict(self, edge_ids: list[int], keep_nodes: set[int]) -> "LabeledHypergraph":
        """Sub-hypergraph of the given edges plus any isolated kept nodes.

        Node and label names are preserved; ids are re-indexed in ascending
        parent-id order so results are canonical.
        """
        nodes = set(keep_nodes)
        labels_used: set[int] = set()
        for eid in edge_ids:
            label, members = self.edges[eid]
            nodes.update(members)
            labels_used.add(label)
        node_ids = sorted(nodes)
        node_map = {v: i for i, v in enumerate(node_ids)}
        label_ids = sorted(labels_used)
        label_map = {l: i for i, l in enumerate(label_ids)}
        new_edges: list[Edge] = [
            (label_map[self.edges[eid][0]], tuple(node_map[v] for v in self.edges[eid][1]))
            for eid in edge_ids
        ]
        return LabeledHypergraph.build(
            tuple(self.node_names[v] for v in node_ids),
            tuple(self.label_names[l] for l in label_ids),
            new_edges,
        )


def _incidence(h: LabeledHypergraph) -> sparse.csr_array:
    """Node-by-edge incidence matrix B, with B[v, e] = 1 when v is in edge e."""
    sizes = [len(members) for _, members in h.edges]
    rows = np.fromiter((v for _, members in h.edges for v in members), np.int64, sum(sizes))
    cols = np.repeat(np.arange(h.n_edges), sizes)
    return sparse.csr_array((np.ones(len(rows)), (rows, cols)), shape=(h.n_nodes, h.n_edges))


def diameter(h: LabeledHypergraph) -> int:
    """Longest shortest path (in edges traversed) over connected node pairs.

    Disconnected pairs are ignored; on a disconnected hypergraph this is the
    maximum over its components. Breadth-first searches run over the node
    adjacency B @ B.T, ``_DIAMETER_CHUNK`` sources at a time, so memory stays
    O(chunk * n).
    """
    if h.n_nodes == 0:
        raise ValueError("diameter of an empty hypergraph")
    b = _incidence(h)
    adj = b @ b.T
    best = 0
    for lo in range(0, h.n_nodes, _DIAMETER_CHUNK):
        sources = np.arange(lo, min(lo + _DIAMETER_CHUNK, h.n_nodes))
        dist = csgraph.shortest_path(adj, directed=False, unweighted=True, indices=sources)
        best = max(best, int(dist[np.isfinite(dist)].max()))
    return best


def to_weighted_graph(h: LabeledHypergraph) -> sparse.csr_array:
    """Clique expansion: each hyperedge of cardinality c >= 2 adds weight
    1/(c-1) to every node pair inside it, accumulated across edges in edge
    order. The result is a symmetric CSR array with sorted indices and no
    self-loops."""
    if h.n_nodes == 0:
        raise ValueError("cannot expand an empty hypergraph")
    b = _incidence(h)
    sizes = b.sum(axis=0)
    w = np.divide(1.0, sizes - 1, out=np.zeros(h.n_edges), where=sizes > 1)
    g = b @ sparse.diags_array(w) @ b.T
    g = (g - sparse.diags_array(g.diagonal())).tocsr()
    g.sort_indices()
    return g


def majority_subhypergraph(
    h: LabeledHypergraph, part: list[set[int]] | list[list[int]]
) -> list[LabeledHypergraph]:
    """Split into one sub-hypergraph per part, assigning each edge to the part
    holding a strict majority of its members.

    Edges with no strict-majority part go to the part containing their lowest
    node id, so every edge survives in exactly one output. Each output keeps
    its part's nodes plus any out-of-part endpoints of its assigned edges.
    """
    parts = [set(p) for p in part]
    covered: set[int] = set()
    total = 0
    for p in parts:
        total += len(p)
        covered |= p
    if total != h.n_nodes or covered != set(range(h.n_nodes)):
        raise ValueError("part is not a partition of the hypergraph's nodes")
    owner = np.empty(h.n_nodes, dtype=np.int64)
    for pi, p in enumerate(parts):
        for v in p:
            owner[v] = pi
    assigned: list[list[int]] = [[] for _ in parts]
    for eid, (_, members) in enumerate(h.edges):
        counts = np.bincount(owner[list(members)], minlength=len(parts))
        top = int(counts.argmax())
        if counts[top] * 2 > len(members):
            assigned[top].append(eid)
        else:
            assigned[int(owner[min(members)])].append(eid)
    return [h.restrict(eids, p) for eids, p in zip(assigned, parts)]


def connected_components(h: LabeledHypergraph) -> list[LabeledHypergraph]:
    """Maximal connected sub-hypergraphs, ordered by smallest node id."""
    if h.n_nodes == 0:
        return []
    b = _incidence(h)
    # labels are numbered in order of each component's smallest node id
    n_comp, comp = csgraph.connected_components(b @ b.T, directed=False)
    edge_comp = comp[[members[0] for _, members in h.edges]]
    return [
        h.restrict(
            np.flatnonzero(edge_comp == ci).tolist(), set(np.flatnonzero(comp == ci).tolist())
        )
        for ci in range(n_comp)
    ]
