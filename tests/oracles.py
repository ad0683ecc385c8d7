"""Independent oracles used to derive expected test values.

These deliberately avoid the code paths they check: dense eigensolves for
the power-iteration eigensolver, exhaustive enumeration for sweep cuts and
2-means, plain breadth-first search and dict accumulation for the sparse
graph layer, mpmath special functions for the scipy-backed quantiles, a
Monte-Carlo generalized chi-squared for the gamma approximation, and a
per-node, per-target walk sampler for the vectorized walk engine, and a
per-test dict-built count matrix for the path-symmetry test.

Weighted graphs are symmetric ``scipy.sparse`` adjacency arrays.
"""

import math
from collections import deque
from itertools import combinations

import mpmath
import numpy as np
from scipy import sparse

from prism.stats import (
    MIN_CATEGORY_MEAN,
    ClusterCounts,
    gamma_approx_params,
    gamma_critical_value,
    q_statistic,
)
from prism.walks import WalkStats

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


def _bfs(h, start):
    """Hop distances from ``start``; unreachable nodes are absent."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for eid in h.incidence[u]:
            for v in h.edges[eid][1]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
    return dist


def bfs_diameter(h):
    """Longest hop distance over connected node pairs, one BFS per node."""
    return max(max(_bfs(h, v).values()) for v in range(h.n_nodes))


def bfs_components(h):
    """``(node names, edge count)`` per connected component, ordered by
    smallest node id."""
    out = []
    seen = set()
    for v in range(h.n_nodes):
        if v in seen:
            continue
        comp = set(_bfs(h, v))
        seen |= comp
        n_edges = sum(1 for _, members in h.edges if members[0] in comp)
        out.append(({h.node_names[u] for u in comp}, n_edges))
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


def block_deviation_covariance(means, N, m):
    """Full block covariance of the member-vs-mean count deviations."""
    p = np.asarray(means, dtype=float) / N
    S = N * (np.diag(p) - np.outer(p, p))
    return np.kron(np.eye(m) - np.full((m, m), 1.0 / m), S)


def genchi2_mc_quantile(weights, q, n_samples, rng):
    """Monte-Carlo quantile of a weighted sum of independent chi-squared(1)
    variables."""
    total = np.zeros(n_samples)
    for w in weights:
        total += w * rng.chisquare(1, size=n_samples)
    return float(np.quantile(total, q))


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


def reference_tables(h):
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


def reference_walks(h, source, cfg):
    """``run_walks`` with a Python loop over the distinct current nodes of
    every step, a dense N x n first-hit array and one ``np.unique`` per
    target and length. Same random stream, so results must be equal."""
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
    tht_sd = np.zeros(n)
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
        sumsq = float((ft[hit_rows] ** 2).sum() + (N - len(hit_rows)) * L * L)
        if N > 1:
            var = max(0.0, (sumsq - total * total / N) / (N - 1))
            tht_sd[target] = math.sqrt(var)
        counts = {}
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


def reference_path_symmetry_report(counts_by_member, members, N, L, alpha):
    """``path_symmetry_report`` with every length tested and a fresh count
    matrix built from the members' dicts for each one."""
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
        g = gamma_approx_params(cc)
        if g.degenerate:
            out.append({"length": length, "q": q, "critical": None, "passed": q <= 1e-9})
        else:
            crit = gamma_critical_value(g, alpha)
            out.append({"length": length, "q": q, "critical": crit, "passed": q <= crit})
    return out
