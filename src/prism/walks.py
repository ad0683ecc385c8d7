"""Truncated random walks: walk-count bounds and sampling.

A walk step picks an incident hyperedge uniformly at random, then a uniform
member of that edge other than the current node (a cardinality-1 edge is a
self-loop step). Per-target statistics record only the first hit within each
walk: its step count and the label sequence traversed up to it. Targets a
walk never hits contribute the full length L to the hitting-time average.

The engine moves the N walks of a source as counts over the distinct paths
they take:

- Transition tables are flat CSR arrays (``TransitionTables``) with a
  guide table per row, built once per sub-hypergraph and cached on it
  (``LabeledHypergraph.walk_tables``).
- Walkers on one path are interchangeable, so each step splits every live
  path's count over its row, Multinomial(count, row probabilities),
  independently across paths: the joint law of N walkers drawn one by one
  (``_split``). With W the widest row among the step's paths, the paths of
  at least W walkers take one ``rng.multinomial`` call on their rows padded
  to W, at most N cells; the walkers of the others draw one uniform each,
  looked up through the guide tables (``table_lookup``), and equal
  outcomes merge by one sort. A step costs O(N) at worst, and much less
  once the walkers share few paths. Draws come in a fixed order from the
  source's Philox stream.
- A path is its current node, walker count, label prefix code and parent;
  the paths of every step stay until the end. A path's node is a first hit
  when it differs from every earlier node of its path, which L - 1 gathers
  up the parents check for all paths at once: nothing is sized N x n or
  N x L.
- A first hit is one int64 key: target, length, then the labels so far as
  digits ``label + 1`` in base ``n_labels + 1``, ranked (order kept) before
  a digit would overflow. One sort of the keys, each weighted by its
  path's count, counts every (target, signature), the source's
  ``SignatureTable``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .hypergraph import LabeledHypergraph
from .stats import SignatureTable

EULER_GAMMA = 0.5772156649

MAX_WALK_COUNT = 2**48
GUIDE_BUCKETS_PER_ENTRY = 2  # the fewest guide buckets a transition row gets per entry


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
    error at or below epsilon; always at least the hitting-time bound. The
    k are a source's top (target, signature) pairs, not each target's top k."""
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


def walk_peak_bytes(h: LabeledHypergraph, N: int, L: int) -> int:
    """Upper estimate of the peak allocation of one ``run_walks`` call on
    ``h`` with N walks of length L, beside the transition tables
    (``table_peak_bytes``). No row is wider than W, the most (node, other
    member) pairs of one node (``_row_pairs``), so step t holds at most
    P_t = min(N, W^t) paths. Per path of every step 96 B for what it keeps
    until the first hits are counted; per path of the last, widest step
    64 B for one step's draws (at most that many cells or walkers); 32 B
    per distinct (target, signature) entry, at most one per path and p_star
    per target; 64 B per node and 64 KiB fixed. With the tables it is
    1.1-3.7x the tracemalloc peak on the test cases, 5.6-9.5x on the
    benchmark databases and up to 90x where walkers share few paths (dept
    k10 at epsilon 0.01)."""
    n, n_labels = h.n_nodes, max(1, h.n_labels)
    W = max(1, int(_row_pairs(h).max(initial=0)))
    paths, total = 1, 0
    for _ in range(L):
        paths = min(N, paths * W)
        total += paths
    return 96 * total + 64 * paths + 32 * min(total, n * p_star(n_labels, L)) + 64 * n + 2**16


def _row_pairs(h: LabeledHypergraph) -> np.ndarray:
    """Per node, the (node, other member) pairs that its edges give its
    transition row before equal pairs merge: max(c - 1, 1) for each of its
    edges of c members."""
    size = np.bincount(h.incidence.indices, minlength=h.n_edges)
    return h.incidence @ np.maximum(size - 1, 1)


def table_peak_bytes(h: LabeledHypergraph) -> int:
    """Upper estimate of the peak allocation of building ``h``'s transition
    tables, which then stay for every walk on ``h``: 96 B per (node, other
    member) pair, c·(c-1) for an edge of c members (c for c = 1), and 128 B
    per node; tracemalloc reads 65 B per pair on binary and ternary edges
    and 77-87 B on edges of 300-1500 members."""
    return 96 * int(_row_pairs(h).sum()) + 128 * h.n_nodes


def walk_kept_bytes(n: int, n_labels: int, N: int, L: int) -> int:
    """Upper estimate of what one walked source keeps until its block is
    clustered: per distinct (target, signature) entry, of which there are
    at most min(N·L, n·p_star), 24 B in its signature table and 16 B in the
    block's count rows, and per node 16 B for ``tht`` and ``hits`` and 48 B
    for its count row and 2-D projection."""
    return 40 * min(N * L, n * p_star(n_labels, L)) + 64 * n


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
    hit); ``signatures`` counts each observed (target, first-hit label
    sequence), so a target's counts sum to ``hits[target]``. The null path
    count is ``N - hits[target]``. Entries for the source itself are zeroed
    placeholders.
    """

    source: int
    N: int
    L: int
    tht: np.ndarray
    hits: np.ndarray
    signatures: SignatureTable = field(repr=False)


class TransitionTables(NamedTuple):
    """The walk process's categorical transition tables in CSR form.

    Row v spans ``indptr[v]:indptr[v + 1]`` and lists v's (next node, label)
    pairs in ascending order with their cumulative probabilities ``cum``;
    the last entry of every row is exactly 1.0. A stranded node has the one
    entry (v, -1): walks stay put without consuming a label.

    Each row also has a guide table for inversion sampling (indexed search):
    ``gsize[v]`` buckets at ``guide[gptr[v]:gptr[v + 1]]``, where bucket b
    holds the row's first entry with cum > b / gsize[v]. ``width`` is the
    most cum values of one row strictly inside one bucket, so the most
    entries a lookup ever advances past its bucket's entry.
    """

    indptr: np.ndarray
    next: np.ndarray
    label: np.ndarray
    cum: np.ndarray
    gptr: np.ndarray
    gsize: np.ndarray  # float64, so that u * gsize[v] is exact
    guide: np.ndarray  # int32 below 2**31 entries
    width: int


def transition_tables(h: LabeledHypergraph) -> TransitionTables:
    """Build the transition tables of ``h``. Callers read ``h.walk_tables``,
    which builds them once per hypergraph.

    The rows come first, from ``_rows``, whose temporaries are then freed.
    A row of k entries gets G guide buckets, the smallest power of two of
    at least ``GUIDE_BUCKETS_PER_ENTRY``·k, so a lookup advances past its
    bucket's entry fewer than k/G <= 1/2 times on average, whatever the
    probabilities (Chen & Asau 1974; Devroye 1986, §III.2.4). Scaling by a
    power of two is exact, so bucket b's guide is the row start plus the
    count of the row's entries with ceil(c·G) <= b, i.e. with cum c <= b / G.
    """
    indptr, nxt, label, cum = _rows(h)
    lens = np.diff(indptr)
    # x - 1 = m·2^e with m in [0.5, 1): 2^e is the smallest power of two >= x
    bits = np.frexp(GUIDE_BUCKETS_PER_ENTRY * lens - 1)[1]
    gptr = np.concatenate([[0], np.cumsum(1 << bits.astype(np.int64))])
    gsize = np.ldexp(1.0, bits)
    scaled = cum * np.repeat(gsize, lens)
    up = np.ceil(scaled)
    inside = scaled != up
    del scaled
    # the bucket of a cum value, or the one below a cum value on a boundary
    bucket = np.repeat(gptr[:-1] - 1, lens)
    bucket += up.astype(np.int64)
    del up
    width = int(np.bincount(bucket[inside], minlength=1).max())
    below = np.bincount(bucket, minlength=gptr[-1])
    guide = np.cumsum(below, dtype=np.int32 if len(cum) < 2**31 else np.int64)
    guide -= below
    return TransitionTables(indptr, nxt, label, cum, gptr, gsize, guide, width)


def _rows(h: LabeledHypergraph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``indptr``, ``next``, ``label`` and ``cum`` of ``h``'s tables.

    Each (node, edge) incidence pair is expanded over the edge's members: a
    share (1/deg)/(c-1) to every other member, or 1/deg back to the node for
    a one-member edge. One stable lexsort by (node, next, label) keeps each
    key's shares in ascending edge order, and ``np.bincount`` sums them in
    that order. Each row's cumulative sum is taken along one (rows, k) block
    per row length k, which rounds as the row's own ``np.cumsum``.
    """
    n, b, by_edge = h.n_nodes, h.incidence, h.incidence.tocsc()
    deg, edge = np.diff(b.indptr), b.indices  # row v lists v's edges in ascending id order
    node = np.repeat(np.arange(n, dtype=edge.dtype), deg)
    size = np.diff(by_edge.indptr)[edge]
    at = np.repeat(by_edge.indptr[edge] - (np.cumsum(size) - size), size) + np.arange(size.sum())
    nxt = by_edge.indices[at]
    del by_edge, at
    # a pair keeps the c - 1 other members, or the node of a one-member edge;
    # a stranded node has the one entry (v, -1)
    nxt = nxt[(nxt != np.repeat(node, size)) | np.repeat(size == 1, size)]
    kept = np.maximum(size - 1, 1)
    labels = np.fromiter((label for label, _ in h.edges), np.int64, h.n_edges)
    stranded = np.flatnonzero(deg == 0).astype(edge.dtype)
    src = np.concatenate([np.repeat(node, kept), stranded])
    nxt = np.concatenate([nxt, stranded])
    lab = np.concatenate([np.repeat(labels[edge], kept), np.full(len(stranded), -1)])
    share = np.concatenate([np.repeat((1.0 / deg[node]) / kept, kept), np.ones(len(stranded))])
    del node, size, kept
    order = np.lexsort((lab, nxt, src))
    src, nxt, lab = src[order], nxt[order], lab[order]
    share = share[order]
    del order
    new = np.ones(len(src), dtype=bool)
    new[1:] = (src[1:] != src[:-1]) | (nxt[1:] != nxt[:-1]) | (lab[1:] != lab[:-1])
    cum = np.bincount(np.cumsum(new) - 1, share)
    first = np.flatnonzero(new)
    lens = np.bincount(src[first], minlength=n)
    indptr = np.concatenate([[0], np.cumsum(lens)])
    for k in np.unique(lens).tolist():
        rows = indptr[:-1][lens == k, None] + np.arange(k)
        block = np.cumsum(cum[rows], axis=1)
        block /= block[:, -1:]
        block[:, -1] = 1.0
        cum[rows] = block
    return indptr, nxt[first].astype(np.int64), lab[first], cum


def table_lookup(tables: TransitionTables, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per walker, the index of the first entry of its row with cum > u,
    i.e. the row start plus ``searchsorted(row's cum, u, side="right")``;
    ``_split`` draws the walkers of its paths of fewer than W walkers so.

    It needs 0 <= u < 1: then the entry exists (the row's last cum is 1.0).
    One gather from the guide gives the first entry with cum > b / G for the
    walker's bucket b = floor(u·G), exact as G is a power of two; one
    compare-and-advance finishes every row whose buckets hold at most one
    cum value, and walkers still short of the entry step forward.
    """
    bucket = tables.gptr[rows] + (u * tables.gsize[rows]).astype(np.int64)
    # int64 entries: gathers with int32 indices take about 3x as long
    entry = tables.guide[bucket].astype(np.int64)
    if tables.width:
        entry += tables.cum[entry] <= u
    if tables.width > 1:
        late = np.flatnonzero(tables.cum[entry] <= u)
        while len(late):
            entry[late] += 1
            late = late[tables.cum[entry[late]] <= u[late]]
    return entry


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Where each run of equal values of the sorted ``a`` starts."""
    new = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return new.nonzero()[0]


def _split(tables: TransitionTables, cur: np.ndarray, count: np.ndarray, rng: np.random.Generator):
    """One step of the live paths at nodes ``cur`` with ``count`` walkers
    each: every path's count splits over its transition row as
    Multinomial(count, row probabilities), independently across paths.

    With W the widest row among the paths, a path of at least W walkers is
    split by one ``rng.multinomial`` call for all such paths, on their rows
    padded to W with zero probabilities; as each has W or more walkers,
    that is at most N cells. The padding comes before a row's entries:
    numpy gives the last column whatever its binomials leave, so padding
    after them could receive walkers through rounding. The walkers of every
    other path then draw their uniforms in one ``rng.random`` call and a
    ``table_lookup`` each, and equal (path, entry) outcomes are merged by
    one sort. Returns the children as (parent path, entry, count > 0):
    those of the multinomial branch, then the others, each in (parent,
    entry) order."""
    start, end = tables.indptr[cur], tables.indptr[cur + 1]
    W = int((end - start).max())
    if count.min() >= W:
        return _multinomial_split(tables, start, end, count, W, rng)
    big = count >= W
    rows = big.nonzero()[0]
    out = []
    if len(rows):
        parent, entry, drawn = _multinomial_split(tables, start[rows], end[rows], count[rows], W, rng)
        out.append((rows[parent], entry, drawn))
    rows = (~big).nonzero()[0]
    start, n_walkers = start[rows], count[rows]
    entry = table_lookup(tables, np.repeat(cur[rows], n_walkers), rng.random(n_walkers.sum()))
    # (path rank, offset in its row) as one int64
    entry += np.repeat(np.arange(0, W * len(rows), W) - start, n_walkers)
    entry.sort()
    first = _run_starts(entry)
    rank, offset = np.divmod(entry[first], W)
    out.append((rows[rank], offset + start[rank], np.diff(first, append=len(entry))))
    if len(out) == 1:
        return out[0]
    return tuple(np.concatenate(parts) for parts in zip(*out))


def _multinomial_split(tables, start, end, count, W, rng):
    """``_split``'s multinomial branch on the rows ``start:end``, none wider
    than W, as (path, entry, count > 0) in (path, entry) order."""
    cells = end[:, None] + np.arange(-W, 0)
    cum = tables.cum.take(cells, mode="clip")
    cum[cells < start[:, None]] = 0.0  # the padding
    prob = cum.copy()
    prob[:, 1:] -= cum[:, :-1]
    drawn = rng.multinomial(count, prob).ravel()
    taken = drawn.nonzero()[0]
    return taken // W, cells.ravel()[taken], drawn[taken]


def run_walks(h: LabeledHypergraph, source: int, cfg: WalkConfig) -> WalkStats:
    """Run N independent L-step walks from ``source`` and accumulate
    first-hit statistics for every other node.

    Walkers on one path are interchangeable, so the walks move as counts
    over the distinct paths taken so far (``_split``), which is the joint
    law of N walkers drawn one by one. Deterministic in (h, source, cfg):
    the random stream is derived from the seed and the source id only, and
    it is read in a fixed order.
    """
    n = h.n_nodes
    if not 0 <= source < n:
        raise ValueError("source not in hypergraph")
    N, L = cfg.N, cfg.L
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(source,))
    rng = np.random.Generator(np.random.Philox(seq))
    tables = h.walk_tables

    # key = target * stride + (length - 1) * span + prefix code, < 2**63
    base = h.n_labels + 1
    span = (2**63 - 1) // (n * L)
    if N * base > span:
        raise ValueError("signature keys would overflow int64")
    stride = L * span
    # the live paths: current node, walker count and label prefix code; the
    # paths of every step stay, with their parents, for the first-hit test
    cur = np.array([source])
    count = np.array([N])
    prefix = np.zeros(1, dtype=np.int64)
    nodes, parents, counts, codes = [cur], [np.zeros(1, dtype=np.int64)], [], []
    offset = 0  # where this step's paths start among those of every step
    top = 0  # an upper bound on prefix
    for t in range(L):
        parent, entry, count = _split(tables, cur, count, rng)
        cur = tables.next[entry]
        if top * base + base > span:
            # the next digit could reach the span: rank the prefixes, which
            # keeps their order
            distinct, prefix = np.unique(prefix, return_inverse=True)
            top = len(distinct) - 1
        prefix = prefix[parent] * base + tables.label[entry]
        prefix += 1
        top = top * base + base - 1
        parent += offset
        offset += len(nodes[-1])
        nodes.append(cur)
        parents.append(parent)
        counts.append(count)
        codes.append(prefix)
    del cur, count, prefix, parent, entry

    # a first hit differs from every earlier node of its path; the source's
    # path is its own parent
    node, parent = np.concatenate(nodes), np.concatenate(parents)
    del nodes, parents
    fresh = node != node[parent]
    up = parent
    for _ in range(L - 1):
        up = parent[up]
        fresh &= node != node[up]
    del parent, up
    fresh = fresh[1:]
    keys = np.concatenate(codes)
    keys += np.repeat(np.arange(0, L * span, span), [len(c) for c in codes])
    keys = keys[fresh]
    keys += node[1:][fresh] * stride
    weights = np.concatenate(counts)[fresh]
    del node, codes, counts, fresh
    order = np.argsort(keys)
    keys, weights = keys[order], weights[order]
    del order
    starts = _run_starts(keys)
    key = keys[starts]
    table = SignatureTable(key, np.add.reduceat(weights, starts), key % stride // span + 1, stride)
    del keys, weights, starts

    # sums of integer step counts stay exact in float64
    target = table.key // stride
    hits = np.bincount(target, weights=table.count, minlength=n).astype(np.int64)
    steps = np.bincount(target, weights=table.count * table.length, minlength=n)
    tht = (steps + (N - hits) * L) / N
    tht[source] = 0.0
    return WalkStats(source=source, N=N, L=L, tht=tht, hits=hits, signatures=table)
