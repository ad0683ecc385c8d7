"""Independent oracles used to derive expected test values.

These deliberately avoid the code paths they check: dense eigensolves for
the power-iteration eigensolver, exhaustive enumeration for sweep cuts and
2-means, plain breadth-first search over per-node edge lists and dict
accumulation for the sparse graph layer, a per-edge loop over node sets for
the majority split, a Python sort-and-sweep for the distance partition,
mpmath special functions for the scipy-backed quantiles, a
Monte-Carlo generalized chi-squared for the gamma approximation, the exact
law of first-hit signatures by enumerating every path of a small
hypergraph and a per-walker, per-target walk sampler with signature dicts
for the walk engine, which moves walker counts over paths, and its
signature table (with a plain per-path loop, ``reference_path_walks``, as
the engine's bit reference), a per-length dict-built count matrix
with a k x k multinomial covariance in exact rational arithmetic for the
path-symmetry test and its closed-form gamma moments, a one-group Lloyd loop
for the batched 2-means, and a dense SVD for the principal-component
projection, with the per-set numpy projection that the batched one
replaced as its bit reference.

A few are plain forms of what the package computes in bulk, kept here
because only tests need them: the per-node dict loop over each node's edges
for the transition tables (``reference_transition_tables``, their bit
reference), the dense transition matrix and the dynamic-programming hitting
times it gives, with their second moments (``transition_matrix``,
``exact_tht``, ``exact_tht_moments``), and the dense
one-cluster count matrix with its Q statistic and gamma moments
(``ClusterCounts``, ``q_statistic``, ``gamma_approx_params``).

Weighted graphs are symmetric ``scipy.sparse`` adjacency arrays.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import mpmath
import numpy as np
import pytest
from scipy import linalg, sparse

from prism.clustering import TIE_RTOL
from prism.stats import MIN_CATEGORY_MEAN, GammaApprox, gamma_critical_value, gamma_moments

mpmath.mp.dps = 30


def pair_weights(g):
    """Upper-triangle ``{(i, j): w}`` of a symmetric sparse adjacency."""
    upper = sparse.triu(g, k=1).tocoo()
    return {(int(i), int(j)): float(w) for i, j, w in zip(upper.row, upper.col, upper.data)}


def clique_expansion_pairs(h):
    """Clique expansion accumulated in a dict: 1/(c-1) per pair of every
    hyperedge of cardinality c >= 2."""
    pairs = {}
    for _, members in h.edges:
        c = len(members)
        for a, b in combinations(sorted(members), 2):
            pairs[(a, b)] = pairs.get((a, b), 0.0) + 1.0 / (c - 1)
    return pairs


def node_edges(h):
    """Per node, the ids of the edges holding it, in ascending order."""
    out = [[] for _ in range(h.n_nodes)]
    for eid, (_, members) in enumerate(h.edges):
        for v in members:
            out[v].append(eid)
    return out


def _bfs(h, incident, start):
    """Hop distances from ``start``; unreachable nodes are absent."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for eid in incident[u]:
            for v in h.edges[eid][1]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
    return dist


def bfs_diameter(h):
    """Longest hop distance over connected node pairs, one BFS per node."""
    incident = node_edges(h)
    return max(max(_bfs(h, incident, v).values()) for v in range(h.n_nodes))


def bfs_components(h):
    """``(node names, edge count)`` per connected component, ordered by
    smallest node id."""
    incident = node_edges(h)
    out = []
    seen = set()
    for v in range(h.n_nodes):
        if v in seen:
            continue
        comp = set(_bfs(h, incident, v))
        seen |= comp
        n_edges = sum(1 for _, members in h.edges if members[0] in comp)
        out.append(({h.node_names[u] for u in comp}, n_edges))
    return out


def reference_majority_split(h, parts):
    """Majority split over a list of node sets, one edge at a time: each
    edge goes to the part holding a strict majority of its members, else to
    the part of its lowest node id. Returns ``(node names, label names,
    edges)`` per part, with edges as (label name, member names) in edge
    order and nodes and labels in ascending parent id order."""
    owner = {v: i for i, part in enumerate(parts) for v in part}
    assigned = [[] for _ in parts]
    for eid, (_, members) in enumerate(h.edges):
        counts = [0] * len(parts)
        for v in members:
            counts[owner[v]] += 1
        top = max(range(len(parts)), key=lambda i: counts[i])
        if 2 * counts[top] > len(members):
            assigned[top].append(eid)
        else:
            assigned[owner[min(members)]].append(eid)
    out = []
    for part, eids in zip(parts, assigned):
        nodes = set(part).union(*(h.edges[e][1] for e in eids))
        labels = {h.edges[e][0] for e in eids}
        edges = [
            (h.label_names[h.edges[e][0]], tuple(h.node_names[v] for v in h.edges[e][1]))
            for e in eids
        ]
        out.append(
            (
                tuple(h.node_names[v] for v in sorted(nodes)),
                tuple(h.label_names[l] for l in sorted(labels)),
                edges,
            )
        )
    return out


def dense_second_eigenpair(g):
    """Full symmetric eigensolve of the normalized Laplacian."""
    n = g.shape[0]
    W = np.zeros((n, n))
    for (i, j), w in pair_weights(g).items():
        W[i, j] = W[j, i] = w
    d = W.sum(axis=1)
    dm = np.diag(1.0 / np.sqrt(d))
    lsym = np.eye(n) - dm @ W @ dm
    vals, vecs = np.linalg.eigh(lsym)
    return float(vals[1]), vecs[:, 1]


def conductance(g, side):
    """Cut weight over the smaller side's volume, from the raw adjacency."""
    side = set(side)
    adj = pair_weights(g)
    deg = {}
    cut = 0.0
    for (i, j), w in adj.items():
        deg[i] = deg.get(i, 0.0) + w
        deg[j] = deg.get(j, 0.0) + w
        if (i in side) != (j in side):
            cut += w
    vol_s = sum(deg.get(i, 0.0) for i in side)
    vol_c = sum(deg.values()) - vol_s
    return cut / min(vol_s, vol_c)


def best_bipartition_conductance(g):
    """Minimum conductance over every non-trivial bipartition."""
    n = g.shape[0]
    best = np.inf
    for r in range(1, n // 2 + 1):
        for side in combinations(range(n), r):
            best = min(best, conductance(g, side))
    return best


def best_sweep_prefix_conductance(g, v2):
    """Minimum conductance over the n-1 prefixes of the v2 ordering."""
    n = g.shape[0]
    order = np.lexsort((np.arange(n), v2))
    return min(conductance(g, order[:k]) for k in range(1, n))


def t_isf_mpmath(p, df):
    """Student-t inverse survival via mpmath's survival function and
    bisection."""
    p = mpmath.mpf(p)
    df = mpmath.mpf(df)

    def survival(x):
        # S(x) = I_{df/(df+x^2)}(df/2, 1/2) / 2 for x >= 0
        z = df / (df + x * x)
        return mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, z, regularized=True) / 2

    if p == mpmath.mpf(1) / 2:
        return 0.0
    lo, hi = mpmath.mpf(0), mpmath.mpf(1)
    while survival(hi) > p:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if survival(mid) > p:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def gamma_isf_mpmath(alpha, shape, rate):
    """Gamma inverse survival via mpmath's regularized upper gamma and
    bisection."""
    alpha = mpmath.mpf(alpha)
    shape = mpmath.mpf(shape)
    rate = mpmath.mpf(rate)

    def survival(x):
        return mpmath.gammainc(shape, a=rate * x, regularized=True)

    lo, hi = mpmath.mpf(0), mpmath.mpf(1)
    while survival(hi) > alpha:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if survival(mid) > alpha:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def multinomial_covariance(means, N):
    """Covariance S of one member's count vector, multinomial with N trials
    over the category probabilities ``means / N``."""
    p = np.asarray(means, dtype=float) / N
    return N * (np.diag(p) - np.outer(p, p))


def block_deviation_covariance(means, N, m):
    """Full block covariance of the member-vs-mean count deviations."""
    return np.kron(np.eye(m) - np.full((m, m), 1.0 / m), multinomial_covariance(means, N))


def genchi2_mc_quantile(weights, df, q, n_samples, rng):
    """Monte-Carlo quantile of a weighted sum of independent chi-squared(df)
    variables."""
    total = np.zeros(n_samples)
    for w in weights:
        total += w * rng.chisquare(df, size=n_samples)
    return float(np.quantile(total, q))


def reference_projection(counts, dim=2):
    """Principal-component scores of a count block from a dense SVD of its
    standardized live columns: with x = U S Vᵀ, component k scores the rows
    x v_k = s_k u_k with variance s_k² / (n - 1). Returns the first ``dim``
    score columns and every component's variance."""
    counts = np.asarray(counts, dtype=float)
    live = counts[:, counts.var(axis=0) > 1e-12]
    x = (live - live.mean(axis=0)) / live.std(axis=0)
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    return u[:, :dim] * s[:dim], s**2 / (len(x) - 1)


def reference_standardize_and_project(counts):
    """The bit reference of ``clustering.standardize_and_project``: the
    one-block projection it replaced, which took each block's column
    moments with numpy's reductions over a dense block and eigendecomposed
    with ``scipy.linalg.eigh(..., driver="evd")``. Constant columns drop out;
    a wide block is projected from its Gram matrix x xᵀ, the tall rest from
    xᵀx, each keeping the top two directions above 1e-9 of the eigenvalues'
    total, with the signs LAPACK returns."""
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.shape[0]
    var = counts.var(axis=0)
    live = counts[:, var > 1e-12]
    out = np.zeros((n, 2))
    if live.shape[1] == 0:
        return out
    x = (live - live.mean(axis=0)) / live.std(axis=0)
    wide = n < x.shape[1]
    w, v = linalg.eigh(x @ x.T if wide else x.T @ x, driver="evd")
    order = np.argsort(w)[::-1][:2]
    basis = v[:, order[w[order] > 1e-9 * x.size]]
    if wide:
        basis = x.T @ basis
        basis /= np.linalg.norm(basis, axis=0)
    out[:, : basis.shape[1]] = x @ basis
    return out


def reference_distance_partition(stats, theta):
    """One source's reached nodes (hit at least once, not the source) sorted
    by (estimate, node) in Python and swept: a gap above ``theta`` between
    consecutive estimates starts a new group; members sorted by node."""
    reached = [v for v in range(len(stats.tht)) if stats.hits[v] > 0 and v != stats.source]
    groups = []
    prev = None
    for v in sorted(reached, key=lambda v: (stats.tht[v], v)):
        if prev is None or stats.tht[v] - prev > theta:
            groups.append([])
        groups[-1].append(v)
        prev = stats.tht[v]
    return [sorted(g) for g in groups]


def best_two_partition_sse(points):
    """Exhaustive minimum within-cluster sum of squares over all two-way
    splits (first point pinned to side one to halve the search)."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    best = (np.inf, None)
    for mask in range(0, 2 ** (n - 1)):
        side = [0] + [i for i in range(1, n) if (mask >> (i - 1)) & 1]
        rest = [i for i in range(1, n) if not (mask >> (i - 1)) & 1]
        if not rest:
            continue
        sse = 0.0
        for group in (side, rest):
            pts = points[group]
            sse += ((pts - pts.mean(axis=0)) ** 2).sum()
        if sse < best[0] - 1e-12:
            best = (sse, (frozenset(side), frozenset(rest)))
    return best


def reference_binary_split(points):
    """The 2-means bisection of one group: a two-pass farthest-pair seed,
    at most 100 Lloyd rounds, distances within a relative ``TIE_RTOL`` tied,
    ties to the first side and the lowest index. Returns the two sides' row
    indices."""

    def farthest(d):
        return next(i for i, v in enumerate(d) if v >= d.max() * (1 - TIE_RTOL))

    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    spread = ((points - points.mean(axis=0)) ** 2).sum(axis=1)
    if spread.max() <= 0:
        return np.array([0]), np.arange(1, n)
    a = farthest(spread)
    b = farthest(((points - points[a]) ** 2).sum(axis=1))
    c1, c2 = points[a].copy(), points[b].copy()
    assign = np.zeros(n, dtype=bool)
    for _ in range(100):
        d1 = ((points - c1) ** 2).sum(axis=1)
        d2 = ((points - c2) ** 2).sum(axis=1)
        new_assign = d2 < d1 - TIE_RTOL * (d1 + d2)
        if not new_assign.any():
            new_assign[farthest(d1)] = True
        elif new_assign.all():
            new_assign[farthest(d2)] = False
        if (new_assign == assign).all():
            break
        assign = new_assign
        c1 = points[~assign].mean(axis=0)
        c2 = points[assign].mean(axis=0)
    return np.flatnonzero(~assign), np.flatnonzero(assign)


def reference_transition_tables(h):
    """The transition tables' ``indptr``, ``next``, ``label`` and ``cum``,
    one node at a time: each (next node, label) pair's probability summed in
    a dict in ascending edge order, then the row's cumulative sum."""
    indptr, nexts, labels, cums = [0], [], [], []
    for v, eids in enumerate(node_edges(h)):
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
        cum = np.cumsum([probs[k] for k in keys])
        cum /= cum[-1]
        cum[-1] = 1.0
        nexts += [k[0] for k in keys]
        labels += [k[1] for k in keys]
        cums += cum.tolist()
        indptr.append(len(nexts))
    return (
        np.array(indptr, dtype=np.int64),
        np.array(nexts, dtype=np.int64),
        np.array(labels, dtype=np.int64),
        np.array(cums, dtype=np.float64),
    )


def reference_tables(h):
    """Per-node categorical transition tables over (next node, label) pairs:
    each node's ``next``, ``label`` and ``cum`` rows."""
    indptr, *flat = reference_transition_tables(h)
    return [np.split(a, indptr[1:-1]) for a in flat]


def transition_matrix(h):
    """Dense single-step transition matrix of the walk process."""
    indptr, nexts, _, cum = reference_transition_tables(h)
    starts = indptr[:-1]
    probs = np.diff(cum, prepend=0.0)
    probs[starts] = cum[starts]
    p = np.zeros((h.n_nodes, h.n_nodes))
    np.add.at(p, (np.repeat(np.arange(h.n_nodes), np.diff(indptr)), nexts), probs)
    return p


def exact_tht(h, source, L):
    """Exact truncated hitting times from ``source`` under the same walk
    process, by dynamic programming; h[target] = L when unreachable in L
    steps and 0 for the source itself."""
    return exact_tht_moments(h, source, L)[0]


def exact_tht_moments(h, source, L):
    """The first and second moments of the truncated hitting time
    min(T, L) of every target from ``source``, by dynamic programming: a
    walk that has not hit the target yet takes one step, so
    m1 <- 1 + P m1 and, as (1 + X)^2 = 1 + 2X + X^2, m2 <- 1 + 2 P m1 + P m2
    with the previous m1. Both are 0 for the source itself."""
    if not 0 <= source < h.n_nodes:
        raise ValueError("source not in hypergraph")
    if L < 1:
        raise ValueError("L must be at least 1")
    p = transition_matrix(h)
    n = h.n_nodes
    # column j holds the moments from every i of the time to hit j; the
    # diagonal is pinned to 0
    m1, m2 = np.zeros((n, n)), np.zeros((n, n))
    for _ in range(L):
        step = p @ m1
        m1, m2 = 1.0 + step, 1.0 + 2.0 * step + p @ m2
        np.fill_diagonal(m1, 0.0)
        np.fill_diagonal(m2, 0.0)
    return m1[source].copy(), m2[source].copy()


class ReferenceWalks(NamedTuple):
    tht: np.ndarray
    hits: np.ndarray
    signature_counts: dict  # target -> {label sequence: count}


def signature_dicts(table, like=None):
    """A ``SignatureTable`` as per-target ``{signature: count}`` dicts.

    Codes only promise an order, so the table's r-th smallest distinct code
    reads as the r-th distinct signature, in (length, labels) order, of the
    dicts ``like`` that the table should equal. Without ``like`` it reads as
    ``(r,) + (0,) * (length - 1)``, a stand-in of the code's length that
    sorts like the code. Either way the length must agree with the table's.
    """
    codes, rank = np.unique(table.key % table.stride, return_inverse=True)
    if like is not None:
        names = sorted({s for d in like.values() for s in d}, key=lambda s: (len(s), s))
        assert len(names) == len(codes)
    out = {}
    for key, r, count, length in zip(
        table.key.tolist(), rank.tolist(), table.count.tolist(), table.length.tolist()
    ):
        sig = (r,) + (0,) * (length - 1) if like is None else names[r]
        assert len(sig) == length
        out.setdefault(key // table.stride, {})[sig] = count
    return out


def reference_walks(h, source, cfg):
    """The walk process one walker at a time: one uniform per walker and
    step, with a Python loop over the distinct current nodes of every step,
    a dense N x n first-hit array and one ``np.unique`` per target and
    length, keeping signature dicts. ``run_walks`` moves walker counts
    instead and reads the stream differently, so the two agree in law, not
    in bits."""
    n = h.n_nodes
    if not 0 <= source < n:
        raise ValueError("source not in hypergraph")
    N, L = cfg.N, cfg.L
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(source,))
    rng = np.random.Generator(np.random.Philox(seq))
    nexts, labels, cums = reference_tables(h)

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
    hits = np.zeros(n, dtype=np.int64)
    signature_counts = {}
    for target in range(n):
        if target == source:
            continue
        ft = first_time[:, target]
        hit_rows = np.flatnonzero(ft)
        hits[target] = len(hit_rows)
        total = float(ft[hit_rows].sum() + (N - len(hit_rows)) * L)
        tht[target] = total / N
        counts = {}
        for t in np.unique(ft[hit_rows]):
            sel = hit_rows[ft[hit_rows] == t]
            uniq, cnt = np.unique(lab_buf[sel, :t], axis=0, return_counts=True)
            for row, c in zip(uniq, cnt):
                counts[tuple(int(x) for x in row)] = int(c)
        if counts:
            signature_counts[target] = counts
    return ReferenceWalks(tht, hits, signature_counts)


def _first_hit_result(n, source, N, L, signature_counts):
    """``ReferenceWalks`` from per-target signature dicts."""
    tht, hits = np.zeros(n), np.zeros(n, dtype=np.int64)
    for target, counts in signature_counts.items():
        hits[target] = sum(counts.values())
        steps = sum(len(sig) * c for sig, c in counts.items())
        tht[target] = float(steps + (N - hits[target]) * L) / N
    for target in range(n):
        if target != source and target not in signature_counts:
            tht[target] = float(L)
    return ReferenceWalks(tht, hits, signature_counts)


def reference_path_walks(h, source, cfg):
    """``run_walks`` as a plain Python loop over the distinct paths of every
    step, each a (node, labels, visited nodes, walker count), keeping
    signature dicts. With W the widest row among a step's paths, each path
    of at least W walkers, in order, makes one ``rng.multinomial`` call on
    its row's probabilities with W - k zeros in front; then each other path,
    in order, draws its walkers' uniforms and looks each up in its row's
    cumulative probabilities. Children follow in that order, each path's by
    entry. Same random stream, so results must be equal."""
    n = h.n_nodes
    if not 0 <= source < n:
        raise ValueError("source not in hypergraph")
    N, L = cfg.N, cfg.L
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(source,))
    rng = np.random.Generator(np.random.Philox(seq))
    nexts, labels, cums = reference_tables(h)
    paths = [(source, (), {source}, N)]
    signature_counts = {}
    for _ in range(L):
        W = max(len(cums[v]) for v, *_ in paths)
        children = []
        for v, labs, seen, count in paths:
            if count >= W:
                k = len(cums[v])
                probs = np.concatenate([np.zeros(W - k), np.diff(cums[v], prepend=0.0)])
                drawn = rng.multinomial(count, probs)[W - k :]
                children += [(v, labs, seen, j, int(c)) for j, c in enumerate(drawn) if c]
        for v, labs, seen, count in paths:
            if count < W:
                j = np.searchsorted(cums[v], rng.random(count), side="right")
                entries, counts = np.unique(j, return_counts=True)
                children += [(v, labs, seen, j, c) for j, c in zip(entries.tolist(), counts.tolist())]
        paths = []
        for v, labs, seen, j, count in children:
            nxt, sig = int(nexts[v][j]), labs + (int(labels[v][j]),)
            if nxt not in seen:
                counts = signature_counts.setdefault(nxt, {})
                counts[sig] = counts.get(sig, 0) + count
            paths.append((nxt, sig, seen | {nxt}, count))
    return _first_hit_result(n, source, N, L, signature_counts)


def exact_first_hits(h, source, L):
    """The exact law of a walk's first hits from ``source``: per target, the
    probability of each first-hit label sequence, found by enumerating
    every path of L steps (a sequence of transition-table entries) with its
    probability. A target's probabilities sum to its hit probability."""
    if not 0 <= source < h.n_nodes:
        raise ValueError("source not in hypergraph")
    nexts, labels, cums = reference_tables(h)
    probs = [np.diff(cum, prepend=0.0).tolist() for cum in cums]
    law = {}

    def extend(v, labs, seen, p):
        if len(labs) == L:
            return
        for nxt, lab, q in zip(nexts[v].tolist(), labels[v].tolist(), probs[v]):
            sig = labs + (lab,)
            if nxt not in seen:
                counts = law.setdefault(nxt, {})
                counts[sig] = counts.get(sig, 0.0) + p * q
            extend(nxt, sig, seen | {nxt}, p * q)

    extend(source, (), frozenset([source]), 1.0)
    return law


@dataclass(frozen=True)
class ClusterCounts:
    """Per-member counts over signature categories, plus the null category
    in column 0: c0 = N - the sum of the others."""

    members: tuple[int, ...]
    categories: np.ndarray  # the kept columns' signature codes
    counts: np.ndarray  # shape (len(members), len(categories) + 1), col 0 null
    N: int
    length: int

    @cached_property
    def means(self) -> np.ndarray:
        return self.counts.mean(axis=0)


def q_statistic(cc):
    """Sum over categories and members of squared deviations from the
    cluster-mean counts."""
    return float(((cc.counts - cc.means) ** 2).sum())


def gamma_approx_params(cc):
    """``stats.gamma_moments`` of a cluster, around its largest category."""
    p = cc.means / cc.N
    top = int(p.argmax())
    rest = np.delete(p, top)
    mu, sigma2 = gamma_moments(
        len(cc.members), cc.N, p[top], rest.sum(), (rest**2).sum(), (rest**3).sum()
    )
    return GammaApprox(float(mu), float(sigma2))


def reference_cluster_counts(members, marginals, N, length, min_category_mean=MIN_CATEGORY_MEAN):
    """``ClusterCounts`` filled from one signature dict per member: categories
    are the signatures some member hit, in lexicographic order."""
    members = tuple(members)
    union = set()
    for m in marginals:
        union.update(sig for sig, c in m.items() if c > 0)
    cats = sorted(union)
    col = {sig: j for j, sig in enumerate(cats)}
    raw = np.zeros((len(members), len(cats)))
    flat_pos, values = [], []
    for i, m in enumerate(marginals):
        row_start = i * len(cats)
        for sig, c in m.items():
            j = col.get(sig)
            if j is not None:
                flat_pos.append(row_start + j)
                values.append(c)
    np.put(raw, flat_pos, values)
    if len(cats):
        keep = raw.mean(axis=0) >= min_category_mean
        cats = [c for c, k in zip(cats, keep) if k]
        raw = raw[:, keep]
    counts = np.empty((len(members), raw.shape[1] + 1))
    counts[:, 1:] = raw
    counts[:, 0] = N - raw.sum(axis=1)
    if (counts[:, 0] < 0).any():
        raise ValueError("per-member counts exceed the number of walks")
    return ClusterCounts(
        members=members,
        categories=tuple(cats),
        counts=counts,
        N=N,
        length=length,
    )


def count_covariance(cc):
    """Multinomial covariance of one member's count vector, with category
    probabilities estimated by the cluster means, as exact fractions: with
    c the integer column sums and D = m N, p_i = c_i / D and
    S_ij = N (delta_ij p_i - p_i p_j) = N A_ij / D^2 for the integer
    A_ij = delta_ij c_i D - c_i c_j. Returns A and the scale N / D^2."""
    if not np.array_equal(cc.counts, np.round(cc.counts)):
        raise ValueError("counts must be integers")
    m = len(cc.members)
    c = [sum(int(x) for x in col) for col in cc.counts.T.tolist()]
    D = m * cc.N
    a = [[(D if i == j else 0) * ci - ci * cj for j, cj in enumerate(c)] for i, ci in enumerate(c)]
    return a, Fraction(cc.N, D * D)


def reference_gamma_approx(cc):
    """Mean and variance of Q under the null from the full single-member
    covariance S: mu = (m-1) tr(S), sigma2 = 2 (m-1) sum(S^2), the trace of
    the block covariance of the deviation vector and twice the trace of its
    square, each evaluated exactly and rounded once."""
    m = len(cc.members)
    if m <= 1:
        return GammaApprox(0.0, 0.0)
    a, scale = count_covariance(cc)
    mu = (m - 1) * scale * sum(a[i][i] for i in range(len(a)))
    sigma2 = 2 * (m - 1) * scale * scale * sum(x * x for row in a for x in row)
    return GammaApprox(float(mu), float(sigma2))


def reference_path_symmetry_report(counts_by_member, members, N, L, alpha):
    """``path_symmetry_report`` one length at a time, each with a fresh count
    matrix built from the members' dicts and a k x k covariance."""
    members = sorted(members)
    out = []
    if len(members) <= 1:
        return out
    # every member's positive counts, split by signature length in one pass
    by_length = [[{} for _ in members] for _ in range(L + 1)]
    for i, v in enumerate(members):
        for s, c in counts_by_member[v].items():
            if c > 0 and len(s) <= L:
                by_length[len(s)][i][s] = c
    for length in range(L, 0, -1):
        marginals = by_length[length]
        cc = reference_cluster_counts(members, marginals, N, length)
        q = q_statistic(cc)
        g = reference_gamma_approx(cc)
        if g.degenerate:
            out.append({"length": length, "q": q, "critical": None, "passed": q <= 1e-9})
        else:
            crit = gamma_critical_value(g, alpha)
            out.append({"length": length, "q": q, "critical": crit, "passed": q <= crit})
    return out


def assert_same_entries(got, want, rel=1e-10):
    """Per-length path-test entries agree: equal lengths, decisions and
    degenerate (None) critical values; q and the critical values within
    ``rel``, since the closed-form gamma moments and the vectorized Q sum
    in another order than the reference."""
    assert [(e["length"], e["passed"], e["critical"] is None) for e in got] == [
        (e["length"], e["passed"], e["critical"] is None) for e in want
    ]
    for g, w in zip(got, want):
        assert g["q"] == pytest.approx(w["q"], rel=rel, abs=0)
        if w["critical"] is not None:
            assert g["critical"] == pytest.approx(w["critical"], rel=rel, abs=0)
