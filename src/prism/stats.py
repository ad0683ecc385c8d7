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
``searchsorted`` per member range and one scatter; a subset is tested on a
row slice of it. ``path_test_entries`` computes one length at a time,
longest first, so a caller that stops at the first failing length skips the
shorter ones; ``path_symmetry_report`` takes every entry and
``path_symmetric`` stops at the first failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np
from scipy import special

Signature = tuple[int, ...]

MIN_CATEGORY_MEAN = 5.0  # rarer categories fold into the null (ClusterCounts)


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

    def take(self, rows: np.ndarray) -> "CountMatrix":
        """The rows' members over the same columns."""
        return CountMatrix(
            tuple(self.members[i] for i in rows), self.codes, self.counts[rows], self.col_len
        )


@dataclass(frozen=True)
class ClusterCounts:
    """Per-member counts over signature categories, plus the null category.

    Column 0 is the null category c0 = N - sum of the others; ``fold``
    builds it from the categories whose cluster-mean count is below
    ``MIN_CATEGORY_MEAN``.
    """

    members: tuple[int, ...]
    categories: np.ndarray  # the kept columns' signature codes
    counts: np.ndarray  # shape (len(members), len(categories) + 1), col 0 null
    N: int
    length: int

    @classmethod
    def fold(
        cls, members: Sequence[int], codes: np.ndarray, block: np.ndarray, N: int, length: int
    ) -> "ClusterCounts":
        """Counts over the signature codes (columns of ``block``), with those
        of mean below ``MIN_CATEGORY_MEAN`` folded into the null column,
        which drops every signature no member hit."""
        # integer counts sum exactly in any order, so reducing a strided
        # slice gives the bits of a freshly filled C-ordered copy
        keep = block.mean(axis=0) >= MIN_CATEGORY_MEAN
        raw = block[:, keep]
        counts = np.empty((len(members), raw.shape[1] + 1))
        counts[:, 1:] = raw
        counts[:, 0] = N - raw.sum(axis=1)
        if (counts[:, 0] < 0).any():
            raise ValueError("per-member counts exceed the number of walks")
        return cls(tuple(members), codes[keep], counts, N, length)

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


def count_covariance(cc: ClusterCounts) -> np.ndarray:
    """Multinomial covariance of one member's count vector, with category
    probabilities estimated by the cluster means."""
    p = cc.means / cc.N
    return cc.N * (np.diag(p) - np.outer(p, p))


def gamma_approx_params(cc: ClusterCounts) -> GammaApprox:
    """Mean and variance of Q under the null.

    Equal to the trace of the full block covariance of the deviation vector
    and twice the trace of its square, but computed from the single-member
    covariance: mu = (m-1) tr(S), sigma2 = 2 (m-1) sum(S^2).
    """
    m = len(cc.members)
    if m <= 1:
        return GammaApprox(0.0, 0.0)
    s = count_covariance(cc)
    mu = (m - 1) * float(np.trace(s))
    sigma2 = 2.0 * (m - 1) * float((s * s).sum())
    return GammaApprox(mu, sigma2)


def gamma_critical_value(g: GammaApprox, alpha: float) -> float:
    """x with GammaSurvival(x; shape, rate) = alpha."""
    if g.degenerate:
        raise ValueError("degenerate gamma approximation has no critical value")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    # multiplying by the scale, not dividing by the rate, matches
    # scipy.stats.gamma.isf bit for bit
    return float(special.gammainccinv(g.shape, alpha) * (1.0 / g.rate))


def path_test_entries(cm: CountMatrix, N: int, L: int, alpha: float) -> Iterator[dict]:
    """Per-length test outcomes for the members of ``cm``, longest length
    first, each computed only when the caller asks for it.

    Each entry holds the tested length, the Q statistic and the critical
    value (None when the null distribution is degenerate, in which case Q is
    necessarily 0 and the test passes). A singleton yields nothing.
    """
    if len(cm.members) <= 1:
        return
    for length in range(L, 0, -1):
        lo, hi = np.searchsorted(cm.col_len, (length, length + 1))
        cc = ClusterCounts.fold(cm.members, cm.codes[lo:hi], cm.counts[:, lo:hi], N, length)
        q = q_statistic(cc)
        g = gamma_approx_params(cc)
        if g.degenerate:
            yield {"length": length, "q": q, "critical": None, "passed": q <= 1e-9}
        else:
            crit = gamma_critical_value(g, alpha)
            yield {"length": length, "q": q, "critical": crit, "passed": q <= crit}


def path_symmetry_report(
    counts_by_member: Mapping[int, Mapping[Signature, int]],
    members: Sequence[int],
    N: int,
    L: int,
    alpha: float,
) -> list[dict]:
    """Every per-length test outcome (``path_test_entries``) of the members,
    longest length first."""
    cm = CountMatrix.from_table(SignatureTable.from_counts(counts_by_member), sorted(members))
    return list(path_test_entries(cm, N, L, alpha))


def path_symmetric(
    counts_by_member: Mapping[int, Mapping[Signature, int]],
    members: Sequence[int],
    N: int,
    L: int,
    alpha: float,
) -> bool:
    """True when the members' signature-count vectors are statistically
    indistinguishable at every exact length L, L-1, ..., 1; stops at the
    first failing length. Singleton sets pass vacuously."""
    cm = CountMatrix.from_table(SignatureTable.from_counts(counts_by_member), sorted(members))
    return all(entry["passed"] for entry in path_test_entries(cm, N, L, alpha))
