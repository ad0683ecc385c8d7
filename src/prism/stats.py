"""Statistical tests for distance and path symmetry.

Distance symmetry compares two truncated-hitting-time estimates against a
threshold derived from a two-sided t test with the worst-case (Popoviciu)
variance bound. Path symmetry tests whether a set of nodes shares one
path-signature distribution per exact length, using a Q statistic whose null
distribution (a generalized chi-squared) is approximated by a
moment-matched gamma so no eigendecomposition is needed.

Signature counts arrive as a ``SignatureTable`` of sorted int64 (target,
signature) keys, from the walk engine or from dicts. The path test reads a
``CountMatrix``, the member x signature counts with columns sorted by
(length, signature), built from the table once per node set by one
``searchsorted`` per member range and one scatter. ``path_test`` tests a
group, a set of rows of that matrix, at every length in one pass: a columns
x lengths mask sums the kept categories into each length's null column, Q
and the gamma moments, which have a closed form in the category
probabilities (``gamma_moments``), so no covariance matrix is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from scipy import special

Signature = tuple[int, ...]

MIN_CATEGORY_MEAN = 5.0  # rarer categories fold into the null (path_test)


def t_inverse_survival(p: float, df: int) -> float:
    """t with Survival(t; df) = p for p in (0, 1/2]."""
    if not 0 < p <= 0.5:
        raise ValueError("p must be in (0, 1/2]")
    if df < 1:
        raise ValueError("df must be positive")
    return float(-special.stdtrit(df, p))


def theta_sym(alpha: float, L: int, N: int) -> float:
    """Threshold below which two hitting-time estimates are merged at
    significance level alpha: ((L-1)/sqrt(2N)) * t_{alpha/2, N-1}."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if N < 2:
        raise ValueError("N must be at least 2")
    return (L - 1) / math.sqrt(2 * N) * t_inverse_survival(alpha / 2, N - 1)


class SignatureTable(NamedTuple):
    """First-hit signature counts of one source, one entry per distinct
    (target, signature): ascending keys ``target * stride + code``, whose
    codes in [0, stride) order signatures like (length, labels), with each
    entry's count (> 0) and signature length."""

    key: np.ndarray  # int64
    count: np.ndarray  # int64
    length: np.ndarray
    stride: int

    @classmethod
    def from_counts(cls, counts_by_target: Mapping[int, Mapping[Signature, int]]):
        """Per-target signature dicts as a table, each signature's rank in
        (length, labels) order as its code; zero counts are dropped."""
        items = sorted(
            (v, len(s), s, c) for v, d in counts_by_target.items() for s, c in d.items() if c > 0
        )
        code = {s: j for j, (_, s) in enumerate(sorted({(k, s) for _, k, s, _ in items}))}
        stride = max(1, len(code))
        return cls(
            np.array([v * stride + code[s] for v, _, s, _ in items], dtype=np.int64),
            np.array([c for *_, c in items], dtype=np.int64),
            np.array([k for _, k, _, _ in items], dtype=np.intp),
            stride,
        )


@dataclass(frozen=True)
class CountMatrix:
    """Members' positive signature counts: one row per member, in the given
    order, and one column per signature code, ascending, which sorts the
    columns by (length, signature). ``col_len[j]`` is the length of column
    j's signature."""

    members: tuple[int, ...]
    codes: np.ndarray
    counts: np.ndarray  # float64, shape (len(members), len(codes))
    col_len: np.ndarray

    @classmethod
    def from_table(cls, table: SignatureTable, members: Sequence[int]) -> "CountMatrix":
        targets = np.array(members, dtype=np.int64)
        lo = np.searchsorted(table.key, targets * table.stride)
        sizes = np.searchsorted(table.key, (targets + 1) * table.stride) - lo
        rows = np.repeat(np.arange(len(targets)), sizes)
        # the entries of every member's key range, member after member
        at = np.arange(sizes.sum()) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
        codes, first, cols = np.unique(
            table.key[at] % table.stride, return_index=True, return_inverse=True
        )
        counts = np.zeros((len(targets), len(codes)))
        counts[rows, cols] = table.count[at]
        return cls(tuple(members), codes, counts, table.length[at[first]])


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


def q_statistic(cc: ClusterCounts) -> float:
    """Sum over categories and members of squared deviations from the
    cluster-mean counts."""
    return float(((cc.counts - cc.means) ** 2).sum())


@dataclass(frozen=True)
class GammaApprox:
    """Moment-matched gamma for the null distribution of the Q statistic."""

    mu: float
    sigma2: float

    @property
    def degenerate(self) -> bool:
        return self.mu <= 0 or self.sigma2 <= 0

    @property
    def shape(self) -> float:
        return self.mu**2 / self.sigma2

    @property
    def rate(self) -> float:
        return self.mu / self.sigma2


def gamma_moments(m: int, N: int, p, s1, s2, s3):
    """Mean and variance of Q under the null for m members whose counts are
    multinomial, N trials over category probabilities p_i (estimated by the
    cluster means): mu = (m-1) N (1 - sum p_i^2) and sigma2 = 2 (m-1) N^2
    (sum p_i^2 - 2 sum p_i^3 + (sum p_i^2)^2), the trace of the block
    covariance and twice the trace of its square.

    Both are written around one category, of probability ``p``, with ``sk``
    the sum of the other categories' k-th powers (so 1 - p = s1): no term
    near 1 is subtracted when p is near 1. Works elementwise on arrays.
    """
    mu = (m - 1) * N * (s1 * (1 + p) - s2)
    sigma2 = 2 * (m - 1) * N**2 * ((p * s1) ** 2 + s2 * (1 + 2 * p * p) - 2 * s3 + s2 * s2)
    return mu, sigma2


def gamma_approx_params(cc: ClusterCounts) -> GammaApprox:
    """``gamma_moments`` of a cluster, around its largest category."""
    p = cc.means / cc.N
    top = int(p.argmax())
    rest = np.delete(p, top)
    mu, sigma2 = gamma_moments(
        len(cc.members), cc.N, p[top], rest.sum(), (rest**2).sum(), (rest**3).sum()
    )
    return GammaApprox(float(mu), float(sigma2))


def gamma_critical_value(g: GammaApprox, alpha: float) -> float:
    """x with GammaSurvival(x; shape, rate) = alpha."""
    if g.degenerate:
        raise ValueError("degenerate gamma approximation has no critical value")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    # multiplying by the scale, not dividing by the rate, matches
    # scipy.stats.gamma.isf bit for bit
    return float(special.gammainccinv(g.shape, alpha) * (1.0 / g.rate))


def path_test(cm: CountMatrix, rows: np.ndarray, N: int, L: int, alpha: float) -> list[dict]:
    """Per-length test outcomes for the members at ``rows`` of ``cm``,
    longest length first, all from one pass over their counts.

    At each length the categories are that length's signatures whose mean
    count over the members is at least ``MIN_CATEGORY_MEAN``; the rest fold
    into the null category, N minus the kept counts. Each entry holds the
    tested length, the Q statistic and the critical value (None when the
    null distribution is degenerate, in which case Q is necessarily 0 and
    the test passes). A singleton gets no entries.
    """
    m = len(rows)
    if m <= 1:
        return []
    x = cm.counts[rows]
    mean = x.mean(axis=0)
    keep = mean >= MIN_CATEGORY_MEAN
    x, mean = x[:, keep], mean[keep]
    lengths = np.arange(L, 0, -1)
    mask = (cm.col_len[keep, None] == lengths).astype(np.float64)  # columns x lengths
    null = N - x @ mask  # integer counts sum exactly
    if (null < 0).any():
        raise ValueError("per-member counts exceed the number of walks")
    null_mean = null.mean(axis=0)
    p = mean / N
    dev2, s1, s2, s3 = np.stack([((x - mean) ** 2).sum(axis=0), p, p * p, p * p * p]) @ mask
    q = dev2 + ((null - null_mean) ** 2).sum(axis=0)
    # a walk is at one node per step, so at one length the members' kept means
    # sum to at most N / m: the moments expand around the null's p >= 1/2
    mu, sigma2 = gamma_moments(m, N, null_mean / N, s1, s2, s3)
    entries = []
    nulls = map(GammaApprox, mu.tolist(), sigma2.tolist())
    for length, qv, g in zip(lengths.tolist(), q.tolist(), nulls):
        if g.degenerate:
            entries.append({"length": length, "q": qv, "critical": None, "passed": qv <= 1e-9})
        else:
            crit = gamma_critical_value(g, alpha)
            entries.append({"length": length, "q": qv, "critical": crit, "passed": qv <= crit})
    return entries


def path_symmetry_report(
    counts_by_member: Mapping[int, Mapping[Signature, int]],
    members: Sequence[int],
    N: int,
    L: int,
    alpha: float,
) -> list[dict]:
    """Every per-length test outcome (``path_test``) of the members, longest
    length first."""
    cm = CountMatrix.from_table(SignatureTable.from_counts(counts_by_member), sorted(members))
    return path_test(cm, np.arange(len(cm.members)), N, L, alpha)


def path_symmetric(
    counts_by_member: Mapping[int, Mapping[Signature, int]],
    members: Sequence[int],
    N: int,
    L: int,
    alpha: float,
) -> bool:
    """True when the members' signature-count vectors are statistically
    indistinguishable at every exact length L, L-1, ..., 1. Singleton sets
    pass vacuously."""
    return all(e["passed"] for e in path_symmetry_report(counts_by_member, members, N, L, alpha))
