"""Truncated random walks: walk-count bounds, sampling, and the exact oracle.

A walk step picks an incident hyperedge uniformly at random, then a uniform
member of that edge other than the current node (a cardinality-1 edge is a
self-loop step). Per-target statistics record only the first hit within each
walk: its step count and the label sequence traversed up to it. Targets a
walk never hits contribute the full length L to the hitting-time average.

The engine runs all N walks of a source at once:

- Transition tables are flat CSR arrays (``TransitionTables``), built once
  per sub-hypergraph and cached on it (``LabeledHypergraph.walk_tables``).
- Each step draws one ``rng.random(N)`` from the source's Philox stream and
  moves every walker by one batched bisection over its own row of
  cumulative probabilities, the exact ``searchsorted(side="right")`` of a
  per-row lookup.
- First hits are a mask over the N x L visited states (not the source, not
  seen earlier in the same walk), so memory is O(N L) with nothing sized
  N x n; hit counts and hitting-time sums are ``bincount``s over it.
- Signatures are counted with one ``lexsort`` of the first-hit events by
  target, length and the labels up to the length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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


def walk_peak_bytes(n: int, n_labels: int, N: int, L: int) -> int:
    """Upper estimate of the peak allocation of one ``run_walks`` call, with
    N walks of length L on n nodes and ``n_labels`` labels, calibrated
    against tracemalloc (about 58 B per walk step on the benchmark
    databases): 64 B per walk step for the N x L buffers and first-hit
    events, 384 B per distinct (target, signature) pair, of which there are
    at most one per step and p_star per target, 640 B per node for the
    per-target statistics and transition tables, and 64 KiB fixed."""
    steps = N * L
    signatures = min(steps, n * p_star(n_labels, L))
    return 64 * steps + 384 * signatures + 640 * n + 2**16


@dataclass(frozen=True)
class WalkConfig:
    L: int
    N: int
    seed: int = 0

    def __post_init__(self):
        if self.L < 1 or self.N < 1:
            raise ValueError("L and N must be positive")
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


class TransitionTables(NamedTuple):
    """The walk process's categorical transition tables in CSR form.

    Row v spans ``indptr[v]:indptr[v + 1]`` and lists v's (next node, label)
    pairs in ascending order with their cumulative probabilities ``cum``;
    the last entry of every row is exactly 1.0. A stranded node has the one
    entry (v, -1): walks stay put without consuming a label.
    """

    indptr: np.ndarray
    next: np.ndarray
    label: np.ndarray
    cum: np.ndarray


def transition_tables(h: LabeledHypergraph) -> TransitionTables:
    """Build the transition tables of ``h``. Callers read ``h.walk_tables``,
    which builds them once per hypergraph."""
    # row v of the incidence lists v's edges in ascending id order, the order
    # its probabilities accumulate in
    incidence = h.incidence
    indptr, nexts, labels, cums = [0], [], [], []
    for v in range(h.n_nodes):
        eids = incidence.indices[incidence.indptr[v] : incidence.indptr[v + 1]].tolist()
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
            probs[(v, -1)] = 1.0
        keys = sorted(probs)
        cum = np.cumsum([probs[k] for k in keys])
        cum /= cum[-1]
        cum[-1] = 1.0
        nexts += [k[0] for k in keys]
        labels += [k[1] for k in keys]
        cums += cum.tolist()
        indptr.append(len(nexts))
    # the narrowest signed type for labels -1..n_labels-1 keeps the label
    # buffer and the signature sort keys small
    label_type = np.min_scalar_type(-max(h.n_labels, 1))
    return TransitionTables(
        np.array(indptr, dtype=np.int64),
        np.array(nexts, dtype=np.int64),
        np.array(labels, dtype=label_type),
        np.array(cums, dtype=np.float64),
    )


def transition_matrix(h: LabeledHypergraph) -> np.ndarray:
    """Dense single-step transition matrix of the walk process."""
    t = h.walk_tables
    starts = t.indptr[:-1]
    probs = np.diff(t.cum, prepend=0.0)
    probs[starts] = t.cum[starts]
    p = np.zeros((h.n_nodes, h.n_nodes))
    np.add.at(p, (np.repeat(np.arange(h.n_nodes), np.diff(t.indptr)), t.next), probs)
    return p


def table_lookup(tables: TransitionTables, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per walker, the index of the first entry of its row with cum > u,
    i.e. the row start plus ``searchsorted(row's cum, u, side="right")``.

    One batched bisection over every walker's row. It needs 0 <= u < 1:
    then the entry exists (the row's last cum is 1.0), and a walker whose
    range has closed sits on it, so rounds that other walkers still need
    leave it in place.
    """
    lo = tables.indptr[rows]
    hi = tables.indptr[rows + 1]
    # a range of m entries closes in m.bit_length() rounds
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        right = tables.cum[mid] <= u
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
    return lo


def _first_visits(states: np.ndarray, source: int) -> tuple[np.ndarray, np.ndarray]:
    """Walk index and steps taken (1..L) at the first visit of every walk to
    every node other than the source, in row-major order of the N x L
    ``states``."""
    # a stable sort of each walk's states puts every node's earliest step
    # first among its repeats
    order = np.argsort(states, axis=1, kind="stable")
    ranked = np.take_along_axis(states, order, axis=1)
    first = np.ones(states.shape, dtype=bool)
    first[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    fresh = np.empty(states.shape, dtype=bool)
    np.put_along_axis(fresh, order, first, axis=1)
    fresh &= states != source
    walk, step = np.nonzero(fresh)
    return walk, step + 1


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
    tables = h.walk_tables

    states = np.empty((N, L), dtype=np.int64)
    labels = np.empty((N, L), dtype=tables.label.dtype)
    cur = np.full(N, source, dtype=np.int64)
    for t in range(L):
        entry = table_lookup(tables, cur, rng.random(N))
        cur = tables.next[entry]
        labels[:, t] = tables.label[entry]
        states[:, t] = cur

    walk, length = _first_visits(states, source)
    target = states[walk, length - 1]

    # sums of integer step counts stay exact in float64
    hits = np.bincount(target, minlength=n)
    missed = N - hits
    total = np.bincount(target, weights=length, minlength=n) + missed * L
    sumsq = np.bincount(target, weights=length * length, minlength=n) + missed * L * L
    tht = total / N
    tht_sd = np.zeros(n)
    if N > 1:
        tht_sd = np.sqrt(np.maximum(0.0, (sumsq - total * total / N) / (N - 1)))
    tht[source] = tht_sd[source] = 0.0

    # signatures: one sort of the events by target, length and the labels up
    # to the length; each run of equal keys is one signature's count
    keys = [np.where(length > col, labels[walk, col], -1) for col in range(L - 1, -1, -1)]
    keys += [length, target]
    order = np.lexsort(keys)
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=len(order))
    heads = order[starts]
    signature_counts: dict[int, dict[Signature, int]] = {v: {} for v in range(n) if v != source}
    for v, t, row, c in zip(
        target[heads].tolist(),
        length[heads].tolist(),
        labels[walk[heads]].tolist(),
        counts.tolist(),
    ):
        signature_counts[v][tuple(row[:t])] = c
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
