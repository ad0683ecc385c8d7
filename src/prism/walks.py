"""Truncated random walks: walk-count bounds, sampling, and the exact oracle.

A walk step picks an incident hyperedge uniformly at random, then a uniform
member of that edge other than the current node (a cardinality-1 edge is a
self-loop step). Per-target statistics record only the first hit within each
walk: its step count and the label sequence traversed up to it. Targets a
walk never hits contribute the full length L to the hitting-time average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hypergraph import LabeledHypergraph

EULER_GAMMA = 0.5772156649

MAX_WALK_COUNT = 2**48

Signature = tuple[int, ...]


def p_star(e: int, L: int) -> int:
    """Upper bound on the number of distinct path signatures up to length L,
    including the null path, over an alphabet of e edge labels."""
    if e < 1 or L < 1:
        raise ValueError("need e >= 1 and L >= 1")
    if e == 1:
        return 1 + L
    return 1 + e * (e**L - 1) // (e - 1)


def optimal_walk_count(epsilon: float, e: int, L: int) -> int:
    """Walks needed to keep the expected relative error of both hitting-time
    and path-probability estimates at or below epsilon."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    ps = p_star(e, L)
    tht_term = (L - 1) ** 2 / (4 * epsilon**2)
    path_term = ps * (EULER_GAMMA + math.log(ps)) / epsilon**2
    n = math.ceil(max(tht_term, path_term))
    if n > MAX_WALK_COUNT:
        raise ValueError(f"walk count {n} exceeds {MAX_WALK_COUNT}")
    return max(n, 1)


def topk_walk_count(epsilon: float, e: int, L: int, k: int = 3) -> int:
    """Walks needed so the k-th most probable path signature keeps relative
    error at or below epsilon; always at least the hitting-time bound."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if k < 1:
        raise ValueError("k must be at least 1")
    ps = p_star(e, L)
    path_term = ((k + 1) * (EULER_GAMMA + math.log(ps)) - 1) / epsilon**2
    tht_term = (L - 1) ** 2 / (4 * epsilon**2)
    n = max(math.ceil(path_term), math.ceil(tht_term), 1)
    if n > MAX_WALK_COUNT:
        raise ValueError(f"walk count {n} exceeds {MAX_WALK_COUNT}")
    return n


@dataclass(frozen=True)
class WalkConfig:
    epsilon: float
    L: int
    N: int
    k_top: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if self.L < 1 or self.N < 1 or self.k_top < 1:
            raise ValueError("L, N and k_top must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass
class WalkStats:
    """Per-target estimates from N truncated walks out of one source node.

    ``tht`` is the estimated truncated hitting time in [1, L] (L when never
    hit); ``signature_counts[target]`` maps each observed first-hit label
    sequence to its count, so its values sum to ``hits[target]``. The null
    path count is ``N - hits[target]``. Entries for the source itself are
    zeroed placeholders.
    """

    source: int
    N: int
    L: int
    tht: np.ndarray
    tht_sd: np.ndarray
    hits: np.ndarray
    signature_counts: dict[int, dict[Signature, int]] = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.tht)


def _transition_tables(
    h: LabeledHypergraph,
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Per-node categorical transition tables over (next node, label) pairs."""
    nexts: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    cums: list[np.ndarray] = []
    for v in range(h.n_nodes):
        eids = h.incidence[v]
        probs: dict[tuple[int, int], float] = {}
        if eids:
            per_edge = 1.0 / len(eids)
            for eid in eids:
                label, members = h.edges[eid]
                if len(members) == 1:
                    key = (v, label)
                    probs[key] = probs.get(key, 0.0) + per_edge
                else:
                    share = per_edge / (len(members) - 1)
                    for u in members:
                        if u != v:
                            key = (u, label)
                            probs[key] = probs.get(key, 0.0) + share
        if not probs:
            # stranded node: walks stay put without consuming a label
            probs[(v, -1)] = 1.0
        keys = sorted(probs)
        p = np.array([probs[k] for k in keys])
        cum = np.cumsum(p)
        cum /= cum[-1]
        cum[-1] = 1.0
        nexts.append(np.array([k[0] for k in keys], dtype=np.int64))
        labels.append(np.array([k[1] for k in keys], dtype=np.int64))
        cums.append(cum)
    return nexts, labels, cums


def transition_matrix(h: LabeledHypergraph) -> np.ndarray:
    """Dense single-step transition matrix of the walk process."""
    nexts, _, cums = _transition_tables(h)
    p = np.zeros((h.n_nodes, h.n_nodes))
    for v in range(h.n_nodes):
        probs = np.diff(cums[v], prepend=0.0)
        np.add.at(p[v], nexts[v], probs)
    return p


def run_walks(h: LabeledHypergraph, source: int, cfg: WalkConfig) -> WalkStats:
    """Run N independent L-step walks from ``source`` and accumulate
    first-hit statistics for every other node.

    Deterministic in (h, source, cfg): the random stream is derived from the
    seed and the source id only.
    """
    n = h.n_nodes
    if not 0 <= source < n:
        raise ValueError("source not in hypergraph")
    N, L = cfg.N, cfg.L
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(source,))
    rng = np.random.Generator(np.random.Philox(seq))
    nexts, labels, cums = _transition_tables(h)

    states = np.empty((N, L), dtype=np.int64)
    lab_buf = np.empty((N, L), dtype=np.int64)
    cur = np.full(N, source, dtype=np.int64)
    for t in range(L):
        u = rng.random(N)
        order = np.argsort(cur, kind="stable")
        sorted_cur = cur[order]
        starts = np.flatnonzero(np.diff(sorted_cur)) + 1
        for grp in np.split(order, starts):
            v = int(cur[grp[0]])
            j = np.searchsorted(cums[v], u[grp], side="right")
            j = np.minimum(j, len(cums[v]) - 1)
            cur[grp] = nexts[v][j]
            lab_buf[grp, t] = labels[v][j]
        states[:, t] = cur

    first_time = np.zeros((N, n), dtype=np.int64)
    rows = np.arange(N)
    for t in range(L):
        col = states[:, t]
        fresh = first_time[rows, col] == 0
        first_time[rows[fresh], col[fresh]] = t + 1

    tht = np.zeros(n)
    tht_sd = np.zeros(n)
    hits = np.zeros(n, dtype=np.int64)
    signature_counts: dict[int, dict[Signature, int]] = {}
    for target in range(n):
        if target == source:
            continue
        ft = first_time[:, target]
        hit_rows = np.flatnonzero(ft)
        hits[target] = len(hit_rows)
        total = float(ft[hit_rows].sum() + (N - len(hit_rows)) * L)
        tht[target] = total / N
        sumsq = float((ft[hit_rows] ** 2).sum() + (N - len(hit_rows)) * L * L)
        if N > 1:
            var = max(0.0, (sumsq - total * total / N) / (N - 1))
            tht_sd[target] = math.sqrt(var)
        counts: dict[Signature, int] = {}
        for t in np.unique(ft[hit_rows]):
            sel = hit_rows[ft[hit_rows] == t]
            uniq, cnt = np.unique(lab_buf[sel, :t], axis=0, return_counts=True)
            for row, c in zip(uniq, cnt):
                counts[tuple(int(x) for x in row)] = int(c)
        signature_counts[target] = counts
    return WalkStats(
        source=source,
        N=N,
        L=L,
        tht=tht,
        tht_sd=tht_sd,
        hits=hits,
        signature_counts=signature_counts,
    )


def exact_tht(h: LabeledHypergraph, source: int, L: int) -> np.ndarray:
    """Exact truncated hitting times from ``source`` under the same walk
    process, by dynamic programming; h[target] = L when unreachable in L
    steps and 0 for the source itself."""
    if not 0 <= source < h.n_nodes:
        raise ValueError("source not in hypergraph")
    if L < 1:
        raise ValueError("L must be at least 1")
    p = transition_matrix(h)
    n = h.n_nodes
    # column j holds h^l(i -> j) for all i; the diagonal is pinned to 0
    hmat = np.zeros((n, n))
    for _ in range(L):
        hmat = 1.0 + p @ hmat
        np.fill_diagonal(hmat, 0.0)
    return hmat[source].copy()
