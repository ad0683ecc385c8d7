"""Labeled hypergraph structure and graph-level operations.

A hypergraph here is a set of named nodes plus labeled hyperedges (each a
non-empty node set), indexed by one node-by-edge incidence matrix B (a
``scipy.sparse`` CSR array built on first use). Diameter, connected
components and the clique expansion to a weighted graph run on B and the
node adjacency B @ B.T in ``scipy.sparse``/``csgraph``. A node partition is
a label array, one part number per node, the form ``csgraph`` returns;
``majority_subhypergraph`` is the one split of a hypergraph by a partition,
and each piece it cuts records which of its nodes are its own part's.
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
    originating ground atoms can be recovered. ``own`` holds, ascending,
    the ids of the nodes a piece was cut for (``restrict``); its other
    nodes are endpoints of its edges from other parts. It is None, every
    node its own, for a hypergraph not cut from another, and it is not part
    of equality: it says how a piece was cut, not what it is.
    """

    node_names: tuple[str, ...]
    label_names: tuple[str, ...]
    edges: tuple[Edge, ...]
    own: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

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
            normalized.append((label, tuple(seen)))
        return cls(node_names=node_names, label_names=label_names, edges=tuple(normalized))

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
    def incidence(self) -> sparse.csr_array:
        """Node-by-edge incidence matrix B, with B[v, e] = 1 when v is in
        edge e; row v lists v's edges in ascending id order."""
        sizes = [len(members) for _, members in self.edges]
        rows = np.fromiter((v for _, members in self.edges for v in members), np.int64, sum(sizes))
        cols = np.repeat(np.arange(self.n_edges), sizes)
        return sparse.csr_array(
            (np.ones(len(rows)), (rows, cols)), shape=(self.n_nodes, self.n_edges)
        )

    @cached_property
    def walk_tables(self):
        """The random walk's transition tables (``walks.TransitionTables``),
        built on first use and shared by every later walk on this
        hypergraph."""
        from .walks import transition_tables  # walks imports this module

        return transition_tables(self)

    def restrict(self, edge_ids: list[int], keep_nodes: list[int]) -> "LabeledHypergraph":
        """Sub-hypergraph of the given edges plus any isolated kept nodes;
        the kept nodes are its ``own``.

        Node and label names are preserved; ids are re-indexed in ascending
        parent-id order so results are canonical. The parent's edges are
        already checked and deduplicated, and re-indexing is one-to-one, so
        the piece skips ``build``.
        """
        edges = [self.edges[eid] for eid in edge_ids]
        node_ids = sorted(set(keep_nodes).union(*(members for _, members in edges)))
        label_ids = sorted({label for label, _ in edges})
        node_map = {v: i for i, v in enumerate(node_ids)}
        label_map = {l: i for i, l in enumerate(label_ids)}
        return LabeledHypergraph(
            node_names=tuple(self.node_names[v] for v in node_ids),
            label_names=tuple(self.label_names[l] for l in label_ids),
            edges=tuple((label_map[l], tuple(map(node_map.get, members))) for l, members in edges),
            own=tuple(sorted({node_map[v] for v in keep_nodes})),
        )


def diameter(h: LabeledHypergraph) -> int:
    """Longest shortest path (in edges traversed) over connected node pairs.

    Disconnected pairs are ignored; on a disconnected hypergraph this is the
    maximum over its components. Breadth-first searches run over the node
    adjacency B @ B.T, ``_DIAMETER_CHUNK`` sources at a time, so memory stays
    O(chunk * n).
    """
    if h.n_nodes == 0:
        raise ValueError("diameter of an empty hypergraph")
    adj = h.incidence @ h.incidence.T
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
    b = h.incidence
    sizes = b.sum(axis=0)
    w = np.divide(1.0, sizes - 1, out=np.zeros(h.n_edges), where=sizes > 1)
    g = b @ sparse.diags_array(w) @ b.T
    g = (g - sparse.diags_array(g.diagonal())).tocsr()
    g.sort_indices()
    return g


def majority_subhypergraph(h: LabeledHypergraph, labels: np.ndarray) -> list[LabeledHypergraph]:
    """Split into one sub-hypergraph per part of the node partition
    ``labels`` (part numbers 0..k-1, one per node, none skipped), assigning
    each edge to the part holding a strict majority of its members.

    Edges with no strict-majority part go to the part containing their lowest
    node id, so every edge survives in exactly one output. Output i keeps
    part i's nodes plus any out-of-part endpoints of its assigned edges;
    part i's nodes are its ``own``, so every node is its own in exactly one
    output, and those are the nodes ``get_communities`` mines as sources.
    """
    labels = np.asarray(labels)
    if labels.shape != (h.n_nodes,) or labels.dtype.kind not in "iu" or (labels < 0).any():
        raise ValueError("labels must hold one non-negative integer part number per node")
    labels = labels.astype(np.int64)
    part_sizes = np.bincount(labels)
    if not part_sizes.all():
        raise ValueError("labels skip a part number")
    if h.n_nodes == 0:
        return []
    # members per distinct (edge, part) pair, linear in the incidence (never
    # edges x parts); an edge without a strict majority follows its lowest node
    k = len(part_sizes)
    edge = h.incidence.indices.astype(np.int64)
    node = np.repeat(np.arange(h.n_nodes), np.diff(h.incidence.indptr))
    pairs, counts = np.unique(edge * k + labels[node], return_counts=True)
    lowest = np.full(h.n_edges, h.n_nodes)
    np.minimum.at(lowest, edge, node)
    edge_part = labels[lowest]
    majority = pairs[2 * counts > np.bincount(edge, minlength=h.n_edges)[pairs // k]]
    edge_part[majority // k] = majority % k
    nodes = np.split(np.argsort(labels, kind="stable"), np.cumsum(part_sizes)[:-1])
    edge_sizes = np.bincount(edge_part, minlength=k)
    edges = np.split(np.argsort(edge_part, kind="stable"), np.cumsum(edge_sizes)[:-1])
    return [h.restrict(e.tolist(), v.tolist()) for e, v in zip(edges, nodes)]


def connected_components(h: LabeledHypergraph) -> list[LabeledHypergraph]:
    """Maximal connected sub-hypergraphs, ordered by smallest node id. Every
    edge lies inside one component, so the majority rule keeps it there."""
    # csgraph numbers components in order of their smallest node id
    _, labels = csgraph.connected_components(h.incidence @ h.incidence.T, directed=False)
    return majority_subhypergraph(h, labels)
