"""Statistical tests for distance and path symmetry.

Distance symmetry compares two truncated-hitting-time estimates against a
threshold derived from a two-sided t test with the worst-case (Popoviciu)
variance bound. Path symmetry tests whether a set of nodes shares one
path-signature distribution per exact length, using a Q statistic whose null
distribution (a generalized chi-squared) is approximated by a
moment-matched gamma so no eigendecomposition is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

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


def distance_symmetric(h_j: float, h_k: float, theta: float) -> bool:
    """True when the two hitting-time estimates differ by at most theta."""
    if theta < 0:
        raise ValueError("theta must be non-negative")
    return abs(h_j - h_k) <= theta


@dataclass(frozen=True)
class ClusterCounts:
    """Per-member counts over signature categories, plus the null category.

    Column 0 is the null category c0 = N - sum of the others; categories with
    cluster-mean count below ``min_category_mean`` were folded into it when
    the instance was built.
    """

    members: tuple[int, ...]
    categories: tuple[Signature, ...]
    counts: np.ndarray  # shape (len(members), len(categories) + 1), col 0 null
    N: int
    length: int

    @classmethod
    def from_marginals(
        cls,
        members: Sequence[int],
        marginals: Sequence[Mapping[Signature, int]],
        N: int,
        length: int,
        min_category_mean: float = MIN_CATEGORY_MEAN,
    ) -> "ClusterCounts":
        members = tuple(members)
        union: set[Signature] = set()
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
        return cls(
            members=members,
            categories=tuple(cats),
            counts=counts,
            N=N,
            length=length,
        )

    @property
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


def path_symmetry_report(
    counts_by_member: Mapping[int, Mapping[Signature, int]],
    members: Sequence[int],
    N: int,
    L: int,
    alpha: float,
) -> list[dict]:
    """Per-length test outcomes, longest length first.

    Each entry holds the tested length, the Q statistic and the critical
    value (None when the null distribution is degenerate, in which case Q is
    necessarily 0 and the test passes).
    """
    members = sorted(members)
    out: list[dict] = []
    if len(members) <= 1:
        return out
    # every member's positive counts, split by signature length in one pass
    by_length: list[list[dict[Signature, int]]] = [[{} for _ in members] for _ in range(L + 1)]
    for i, v in enumerate(members):
        for s, c in counts_by_member[v].items():
            if c > 0 and len(s) <= L:
                by_length[len(s)][i][s] = c
    for length in range(L, 0, -1):
        marginals = by_length[length]
        cc = ClusterCounts.from_marginals(members, marginals, N, length)
        q = q_statistic(cc)
        g = gamma_approx_params(cc)
        if g.degenerate:
            out.append({"length": length, "q": q, "critical": None, "passed": q <= 1e-9})
        else:
            crit = gamma_critical_value(g, alpha)
            out.append({"length": length, "q": q, "critical": crit, "passed": q <= crit})
    return out


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
    return all(
        entry["passed"]
        for entry in path_symmetry_report(counts_by_member, members, N, L, alpha)
    )
