"""Statistical tests for distance and path symmetry.

Distance symmetry compares two truncated-hitting-time estimates against a
threshold derived from a two-sided t test with the worst-case (Popoviciu)
variance bound. Path symmetry tests whether a set of nodes shares one
path-signature distribution per exact length, using a Q statistic whose null
distribution (a generalized chi-squared) is approximated by a
moment-matched gamma so no eigendecomposition is needed.

Signature counts arrive as a ``SignatureTable`` of sorted int64 (target,
signature) keys, from the walk engine or from dicts. ``CountRows`` holds the
member x signature count matrices of many node sets, one row per (source,
member) with its positive counts in CSR form and columns sorted by (length,
signature); ``CountRows.batches`` builds them in batches of whole sets of
about ``PATH_TEST_COUNTS`` counts, which bound the memory of the
refinement's count rows and path tests.
``path_test`` tests many groups of those rows at every length in one pass:
each sum over a group's members (column means, keep masks, null columns,
Q) and over its kept categories (the gamma moments, which have a closed
form in the category probabilities, ``gamma_moments``) is an
``np.bincount`` over that group's entries in row order, so a group's
outcome does not depend on the groups it is tested with. Only positive
counts are read: a member with no count in a kept column adds its mean^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np
from scipy import special

Signature = tuple[int, ...]

MIN_CATEGORY_MEAN = 5.0  # rarer categories fold into the null (path_test)
# positive counts per batch of CountRows.batches: count rows and path tests follow one batch
PATH_TEST_COUNTS = 2**16


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


class CountRows(NamedTuple):
    """The rows of several count matrices, one per (source, node set), with
    their positive counts in CSR form. Row r is node ``target[r]`` seen from
    the walks of ``source[r]``, in a matrix of ``width[r]`` columns, one per
    signature code its members hit, ascending, which sorts the columns by
    (length, signature); column j's signature length is
    ``col_len[col0[r] + j]``. Row r's entries ``indptr[r]:indptr[r + 1]``
    give each positive count's column and value, column by column."""

    source: np.ndarray
    target: np.ndarray
    width: np.ndarray
    col0: np.ndarray
    indptr: np.ndarray
    col: np.ndarray  # int32: 12 B per count with its value
    value: np.ndarray  # float64
    col_len: np.ndarray

    @classmethod
    def batches(
        cls, sets: Sequence[tuple[int, SignatureTable, Sequence[int]]]
    ) -> Iterator[tuple[int, "CountRows"]]:
        """The count matrices of (source, table, members) sets, matrix after
        matrix with one row per member in the given order, in batches of
        consecutive whole sets: each yields its number of sets and their
        rows, with ``indptr`` from 0. A batch takes sets while their positive
        counts stay within ``PATH_TEST_COUNTS``, so a larger set is a batch
        alone. Each set finds its members' key ranges by one ``searchsorted``
        each side, and a batch ranks its columns by one lexsort of its (set,
        code) pairs; its temporaries go before it is yielded."""
        targets = [np.array(members, dtype=np.int64) for _, _, members in sets]
        tables = [table for _, table, _ in sets]
        lo, hi = (
            np.concatenate([np.searchsorted(tb.key, t * tb.stride) for tb, t in zip(tables, ts)])
            for ts in (targets, [t + 1 for t in targets])
        )
        indptr = np.concatenate([[0], np.cumsum(hi - lo)])
        del hi
        first_row = np.cumsum([0, *map(len, targets)])
        bounds = indptr[first_row]  # each set's first count, then the total
        cuts, ends = [0], bounds.tolist()
        for k in range(1, len(sets)):  # set k starts a batch if it would overflow the last
            if ends[k + 1] - ends[cuts[-1]] > PATH_TEST_COUNTS:
                cuts.append(k)
        for i, j in zip(cuts, [*cuts[1:], len(sets)]):
            a, b, r0, r1 = bounds[i], bounds[j], first_row[i], first_row[j]
            ptr = indptr[r0 : r1 + 1] - a
            # each count's position in its set's table
            at = np.arange(b - a) + np.repeat(lo[r0:r1] - ptr[:-1], np.diff(ptr))
            code, length = np.empty(b - a, np.int64), np.empty(b - a, np.intp)
            col, value = np.empty(b - a, np.int32), np.empty(b - a)
            for k in range(i, j):
                here = slice(bounds[k] - a, bounds[k + 1] - a)
                np.remainder(tables[k].key[at[here]], tables[k].stride, out=code[here])
                value[here] = tables[k].count[at[here]]
                length[here] = tables[k].length[at[here]]
            owner = np.repeat(np.arange(j - i), np.diff(bounds[i : j + 1]))
            order = np.lexsort((code, owner))
            code = code[order]  # owner is ascending, so the sort leaves it in place
            first = np.ones(b - a, dtype=bool)
            first[1:] = (code[1:] != code[:-1]) | (owner[1:] != owner[:-1])
            width = np.bincount(owner[first], minlength=j - i)
            col0 = np.cumsum(width) - width
            col[order] = np.cumsum(first) - 1 - col0[owner]
            col_len, target = length[order[first]], np.concatenate(targets[i:j])
            del at, code, length, owner, order, first
            if j == len(sets):  # the block's row arrays go before its last batch is refined
                del lo, indptr, targets
            height = np.diff(first_row[i : j + 1])
            yield j - i, cls(
                np.repeat(np.array([s for s, _, _ in sets[i:j]], dtype=np.int64), height),
                target,
                np.repeat(width, height),
                np.repeat(col0, height),
                ptr,
                col,
                value,
                col_len,
            )


@dataclass(frozen=True)
class GammaApprox:
    """Moment-matched gamma for the null distribution of the Q statistic."""

    mu: float
    sigma2: float

    @property
    def degenerate(self):
        """Whether the moments admit no gamma; elementwise on arrays."""
        return np.logical_or(self.mu <= 0, self.sigma2 <= 0)

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


def gamma_critical_value(g: GammaApprox, alpha: float):
    """x with GammaSurvival(x; shape, rate) = alpha; an array of them when
    ``g`` holds arrays of moments."""
    if np.any(g.degenerate):
        raise ValueError("degenerate gamma approximation has no critical value")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    # multiplying by the scale, not dividing by the rate, matches
    # scipy.stats.gamma.isf bit for bit
    crit = special.gammainccinv(g.shape, alpha) * (1.0 / g.rate)
    return crit if np.ndim(crit) else float(crit)


class PathTests(NamedTuple):
    """``path_test`` outcomes, one row per group and one column per length,
    longest length first: Q, the critical value (NaN where the null is
    degenerate) and the decision."""

    q: np.ndarray
    critical: np.ndarray
    passed: np.ndarray

    def entries(self) -> list[list[dict]]:
        """Every group's outcomes as per-length report entries, ``critical``
        None where the null is degenerate."""
        L = self.q.shape[1]
        return [
            [
                {"length": L - j, "q": q, "critical": None if math.isnan(c) else c, "passed": ok}
                for j, (q, c, ok) in enumerate(zip(*group))
            ]
            for group in zip(self.q.tolist(), self.critical.tolist(), self.passed.tolist())
        ]


def path_test(
    cr: CountRows, rows: np.ndarray, sizes: np.ndarray, N: int, L: int, alpha: float
) -> PathTests:
    """Per-length test outcomes of many groups at once. Group g is the next
    ``sizes[g]`` (at least 2) of ``rows``, rows of ``cr`` from one count
    matrix.

    At each length a group's categories are that length's signatures whose
    mean count over the group is at least ``MIN_CATEGORY_MEAN``; the rest
    fold into the null category, N minus the kept counts. Q sums the squared
    deviations from the group means over members and categories, null
    included, and is compared with the critical value of the moment-matched
    gamma; a degenerate null means Q is necessarily 0, and the test passes
    when Q <= 1e-9. One pass reads the rows' positive counts alone: its
    temporaries are sized by those counts, rows x lengths and columns, never
    rows x columns.
    """
    rows = np.asarray(rows, dtype=np.intp)
    sizes = np.asarray(sizes, dtype=np.intp)
    n_groups, n_rows, cells = len(sizes), len(rows), len(sizes) * L
    group = np.repeat(np.arange(n_groups), sizes)
    head = rows[np.cumsum(sizes) - sizes]  # each group's first row
    gwidth = cr.width[head]
    col0 = np.cumsum(gwidth) - gwidth
    n_bins = int(gwidth.sum())
    bin_len = cr.col_len[np.repeat(cr.col0[head] - col0, gwidth) + np.arange(n_bins)]
    members = np.repeat(sizes, gwidth)
    # every positive count of every row, row after row, binned by (group,
    # column): a bin sums its group's rows in row order, as .sum(axis=0) does
    nnz = cr.indptr[rows + 1] - cr.indptr[rows]
    e = np.arange(nnz.sum()) + np.repeat(cr.indptr[rows] - (np.cumsum(nnz) - nnz), nnz)
    bins = np.repeat(col0[group], nnz) + cr.col[e]
    x = cr.value[e]
    del e
    mean = np.bincount(bins, x, n_bins) / members
    keep = (mean >= MIN_CATEGORY_MEAN) & (bin_len <= L)
    # from here on only the kept columns' positive counts: the zeros left
    # out would add exactly 0 to each row's null column
    kept = keep[bins]
    cell = np.repeat(np.arange(n_rows) * L + L, nnz)[kept]
    bins, x = bins[kept], x[kept]
    null = np.subtract(N, np.bincount(cell - bin_len[bins], x, n_rows * L), dtype=float)
    if (null < 0).any():
        raise ValueError("per-member counts exceed the number of walks")
    # a column's squared deviations: its positive counts', then mean^2 for
    # each member without a count there
    zeros = members - np.bincount(bins, minlength=n_bins)
    x -= mean[bins]
    dev2 = np.bincount(bins, np.square(x, out=x), n_bins) + zeros * np.square(mean)
    kb = np.flatnonzero(keep)
    # cells are (group, length) pairs, longest length first
    kcell = np.repeat(np.arange(n_groups) * L + L, gwidth)[kb] - bin_len[kb]
    null_cell = np.repeat(group * L, L) + np.tile(np.arange(L), n_rows)
    null_mean = np.bincount(null_cell, null, cells) / np.repeat(sizes, L)
    p = mean[kb] / N
    dev2, s1, s2, s3 = (np.bincount(kcell, w, cells) for w in (dev2[kb], p, p * p, p * p * p))
    null -= null_mean[null_cell]
    q = dev2 + np.bincount(null_cell, np.square(null, out=null), cells)
    # a walk is at one node per step, so at one length the members' kept means
    # sum to at most N / m: the moments expand around the null's p >= 1/2
    m = np.repeat(sizes, L).astype(np.float64)
    mu, sigma2 = gamma_moments(m, N, null_mean / N, s1, s2, s3)
    degenerate = GammaApprox(mu, sigma2).degenerate
    critical = np.full(cells, np.nan)
    critical[~degenerate] = gamma_critical_value(
        GammaApprox(mu[~degenerate], sigma2[~degenerate]), alpha
    )
    passed = np.where(degenerate, q <= 1e-9, q <= critical)
    return PathTests(*(a.reshape(n_groups, L) for a in (q, critical, passed)))


def path_symmetry_report(
    counts_by_member: Mapping[int, Mapping[Signature, int]],
    members: Sequence[int],
    N: int,
    L: int,
    alpha: float,
) -> list[dict]:
    """Every per-length test outcome (``path_test``) of the members, longest
    length first; counts given as dicts have no source, recorded as -1."""
    m = len(members)
    if m <= 1:
        return []
    table = SignatureTable.from_counts(counts_by_member)
    ((_, cr),) = CountRows.batches([(-1, table, sorted(members))])
    return path_test(cr, np.arange(m), [m], N, L, alpha).entries()[0]


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
