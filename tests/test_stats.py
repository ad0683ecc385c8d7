import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import prism
from oracles import ClusterCounts, gamma_approx_params, q_statistic
from prism.stats import (
    CountRows,
    GammaApprox,
    SignatureTable,
    gamma_critical_value,
    path_symmetric,
    path_symmetry_report,
    path_test,
    t_inverse_survival,
    theta_sym,
)


def cluster(per_member, N, length=1):
    return oracles.reference_cluster_counts(range(len(per_member)), per_member, N, length)


def test_t_inverse_survival_cauchy_closed_form():
    assert t_inverse_survival(0.25, 1) == pytest.approx(math.tan(math.pi * 0.25), abs=1e-8)


def test_t_inverse_survival_normal_limit():
    assert t_inverse_survival(0.025, 10**6) == pytest.approx(1.95996, abs=5e-4)


def test_t_inverse_survival_median_is_zero():
    for df in (1, 5, 100):
        assert t_inverse_survival(0.5, df) == pytest.approx(0.0, abs=1e-12)


def test_t_inverse_survival_matches_mpmath():
    for p, df in [(0.005, 999), (0.05, 7), (0.25, 3), (0.01, 40)]:
        assert t_inverse_survival(p, df) == pytest.approx(
            oracles.t_isf_mpmath(p, df), abs=1e-8
        )


def test_import_leaves_scipy_stats_unloaded():
    src = str(Path(prism.__file__).resolve().parents[1])
    code = "import sys, prism; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


@settings(max_examples=300, deadline=None)
@given(
    shape=st.floats(1e-3, 1e4),
    rate=st.floats(1e-4, 1e3),
    alpha=st.floats(1e-6, 0.999),
    p=st.floats(1e-6, 0.5),
    df=st.integers(1, 10**6),
)
def test_quantiles_equal_scipy_stats_exactly(shape, rate, alpha, p, df):
    # report critical values must keep the bytes of the scipy.stats quantiles
    g = GammaApprox(mu=shape / rate, sigma2=shape / rate**2)
    want = scipy.stats.gamma.isf(alpha, g.shape, scale=1.0 / g.rate)
    assert gamma_critical_value(g, alpha) == want
    assert t_inverse_survival(p, df) == scipy.stats.t.isf(p, df)


def test_theta_sym_degenerate_length():
    assert theta_sym(0.37, 1, 100) == 0.0


def test_theta_sym_reference_value():
    assert theta_sym(0.01, 5, 1000) == pytest.approx(0.2308, abs=2e-4)


def test_theta_sym_decreases_in_n():
    values = [theta_sym(0.01, 5, n) for n in (10, 100, 1000, 10000)]
    assert values == sorted(values, reverse=True)


def test_q_statistic_identical_members_is_zero():
    cc = cluster([{(0,): 10, (1,): 20}] * 3, N=100)
    assert q_statistic(cc) == 0.0


def test_q_statistic_singleton_is_zero():
    cc = cluster([{(0,): 10}], N=100)
    assert q_statistic(cc) == 0.0


def test_q_statistic_two_members_hand_value():
    cc = cluster([{(0,): 10}, {(0,): 14}], N=10000)
    # 8 from the observed category plus 8 mirrored in the null category
    assert q_statistic(cc) == pytest.approx(16.0)


def test_gamma_params_degenerate_singleton():
    g = gamma_approx_params(cluster([{(0,): 50}], N=100))
    assert g.degenerate
    assert (g.mu, g.sigma2) == (0.0, 0.0)


def test_gamma_params_two_member_hand_value():
    cc = cluster([{(0,): 50}, {(0,): 50}], N=100)
    g = gamma_approx_params(cc)
    assert g.mu == pytest.approx(50.0)
    assert g.sigma2 == pytest.approx(5000.0)
    assert g.shape == pytest.approx(0.5)
    assert g.rate == pytest.approx(0.01)


def test_gamma_params_match_block_eigenvalues():
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        lam = int(rng.integers(1, 7))
        pi = rng.dirichlet(np.full(lam + 1, 1.5))
        N = 5000
        means = pi * N
        cc = ClusterCounts(
            members=tuple(range(m)),
            categories=tuple((i,) for i in range(lam)),
            counts=np.tile(means, (m, 1)),
            N=N,
            length=1,
        )
        g = gamma_approx_params(cc)
        block = oracles.block_deviation_covariance(means, N, m)
        w = np.linalg.eigvalsh(block)
        assert g.mu == pytest.approx(w.sum(), rel=1e-9, abs=1e-9)
        assert g.sigma2 == pytest.approx(2 * (w**2).sum(), rel=1e-9, abs=1e-9)


@st.composite
def member_counts(draw):
    """N and per-member kept counts, each row summing to at most N: small
    counts leave the null category dominant, counts up to N / k let one kept
    category dominate, and k = 0 leaves the null category alone."""
    N = draw(st.sampled_from([200, 2490, 31057, 248975, 10**6]))
    m = draw(st.integers(1, 6))
    k = draw(st.integers(0, 5))
    cap = draw(st.sampled_from([12, N // max(k, 1)]))
    row = st.lists(st.integers(0, cap), min_size=k, max_size=k)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    return N, rows


@settings(max_examples=300, deadline=None)
@given(member_counts())
@example((31057, [[5], [4], [6]]))  # null-dominated
@example((2490, [[], []]))  # the null category alone: degenerate
@example((200, [[3, 120], [9, 80]]))  # two members
@example((2490, [[2490], [2489]]))  # one kept category holds nearly all
@example((10**6, [[1], [0]]))  # one hit in 2 million
@example((248975, [[7, 5], [6, 0], [5, 9]]))  # null-dominated at the epsilon 0.01 walk count
def test_gamma_params_match_reference_covariance(case):
    N, rows = case
    counts = np.array([[N - sum(r), *r] for r in rows], dtype=float)
    cc = ClusterCounts(tuple(range(len(rows))), np.arange(counts.shape[1] - 1), counts, N, 1)
    got, want = gamma_approx_params(cc), oracles.reference_gamma_approx(cc)
    assert got.mu == pytest.approx(want.mu, rel=1e-10, abs=0)
    assert got.sigma2 == pytest.approx(want.sigma2, rel=1e-10, abs=0)


def test_gamma_critical_value_exponential_closed_form():
    g = GammaApprox(mu=1.0, sigma2=1.0)  # shape 1, rate 1
    for alpha in (0.5, 0.1, 0.01):
        assert gamma_critical_value(g, alpha) == pytest.approx(
            math.log(1 / alpha), abs=1e-8
        )


def test_gamma_critical_value_large_shape_near_mean():
    g = GammaApprox(mu=50.0, sigma2=1.0)  # shape 2500
    assert gamma_critical_value(g, 0.5) == pytest.approx(50.0, rel=0.02)


def test_gamma_critical_value_matches_mpmath():
    g = GammaApprox(mu=7.0, sigma2=3.5)
    for alpha in (0.3, 0.05, 0.01):
        assert gamma_critical_value(g, alpha) == pytest.approx(
            oracles.gamma_isf_mpmath(alpha, g.shape, g.rate), abs=1e-6
        )


def test_gamma_critical_value_degenerate_raises():
    with pytest.raises(ValueError):
        gamma_critical_value(GammaApprox(0.0, 0.0), 0.05)


def test_count_row_batches_hold_whole_sets_within_the_bound(monkeypatch):
    # sets of several sources' tables, members in any order, some sets far
    # over the bound: the batches cover the sets in order, each within the
    # bound unless it holds one set, and a set's rows equal its own build
    monkeypatch.setattr(prism.stats, "PATH_TEST_COUNTS", 40)
    rng = np.random.default_rng(21)
    tables = []
    for _ in range(3):
        counts = {
            v: {tuple(rng.integers(0, 3, size=k)): int(rng.integers(1, 50)) for k in (1, 2, 2, 3)}
            for v in range(12)
        }
        tables.append(SignatureTable.from_counts(counts))
    sets = [
        (s, tables[s], rng.permutation(12)[: rng.integers(1, 13)].tolist())
        for s in rng.integers(0, 3, size=30).tolist()
    ]
    batches = list(CountRows.batches(sets))
    assert sum(n for n, _ in batches) == len(sets)
    assert 1 < len(batches) < len(sets)
    assert any(n > 1 for n, _ in batches)
    assert any(n == 1 and cr.indptr[-1] > 40 for n, cr in batches)
    done = 0
    for n, cr in batches:
        assert cr.indptr[0] == 0
        assert n == 1 or cr.indptr[-1] <= 40
        r0 = c0 = 0
        for source, table, members in sets[done : done + n]:
            ((_, one),) = CountRows.batches([(source, table, members)])
            r1 = r0 + len(members)
            a, b = cr.indptr[r0], cr.indptr[r1]
            assert np.array_equal(cr.indptr[r0 : r1 + 1] - a, one.indptr)
            assert cr.target[r0:r1].tolist() == members
            for got, want in [
                (cr.source[r0:r1], one.source),
                (cr.width[r0:r1], one.width),
                (cr.col0[r0:r1] - c0, one.col0),
                (cr.col[a:b], one.col),
                (cr.value[a:b], one.value),
                (cr.col_len[c0 : c0 + one.width[0]], one.col_len),
            ]:
                assert np.array_equal(got, want)
            r0, c0 = r1, c0 + one.width[0]
        assert (r0, c0) == (len(cr.target), len(cr.col_len))
        done += n


def test_low_count_categories_fold_into_null():
    # (1,) at a mean of 1.5 folds: its counts join the null column, and
    # (0,) and the null (900, 896) each give 8; at a mean of exactly
    # MIN_CATEGORY_MEAN it is kept, adding 2, and the null (896, 890) gives 18
    for rare, q in [((2, 1), 16.0), ((4, 6), 28.0)]:
        per = [{(0,): 100, (1,): rare[0]}, {(0,): 104, (1,): rare[1]}]
        table = SignatureTable.from_counts(dict(enumerate(per)))
        ((_, cr),) = CountRows.batches([(2, table, [0, 1])])
        tests = path_test(cr, np.arange(2), [2], 1000, 1, 0.05)
        ((entry,),) = tests.entries()
        assert entry["q"] == q == q_statistic(cluster(per, N=1000))


def test_path_test_memory_does_not_grow_with_rows_times_columns():
    # 500 kept columns, each held by one of 4000 members at the mean of
    # exactly MIN_CATEGORY_MEAN: a dense members x kept-columns block of
    # float64 alone would take 15.3 MiB
    m, k, N = 4000, 500, 20000
    table = SignatureTable.from_counts({j: {(j,): N} for j in range(k)})
    ((_, cr),) = CountRows.batches([(m, table, range(m))])
    tracemalloc.start()
    try:
        tests = path_test(cr, np.arange(m), [m], N, 1, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # each column: one count 5 * (m - 1) above its mean 5, m - 1 zeros; the
    # null: k members at 0 and m - k at N around a mean of N (m - k) / m
    want = k * ((5 * (m - 1)) ** 2 + (m - 1) * 25) + k * 17500**2 + (m - k) * 2500**2
    assert tests.q[0, 0] == want


def test_path_symmetric_singleton_passes():
    assert path_symmetric({7: {(0,): 3}}, [7], N=100, L=2, alpha=0.5)


def test_path_symmetric_identical_counts_pass_any_alpha():
    counts = {0: {(0,): 40, (0, 1): 17}, 1: {(0,): 40, (0, 1): 17}}
    assert path_symmetric(counts, [0, 1], N=200, L=2, alpha=0.999)


def test_path_symmetric_detects_disjoint_signatures():
    counts = {
        0: {(0, 0): 180},
        1: {(0, 1): 175},
        2: {(0, 1): 185},
    }
    assert not path_symmetric(counts, [0, 1, 2], N=900, L=2, alpha=0.01)


def test_path_symmetry_report_lengths_descend():
    counts = {0: {(0,): 40, (0, 1): 30}, 1: {(0,): 45, (0, 1): 28}}
    rep = path_symmetry_report(counts, [0, 1], N=200, L=3, alpha=0.05)
    assert [e["length"] for e in rep] == [3, 2, 1]
    # lengths with no observed signatures are degenerate and pass with Q=0
    assert rep[0]["critical"] is None and rep[0]["passed"]


def test_path_symmetric_false_rejection_near_alpha():
    rng = np.random.default_rng(99)
    pis = np.array([0.1, 0.2, 0.3])
    full = np.append(pis, 1 - pis.sum())
    alpha = 0.05
    rejections = 0
    trials = 400
    for _ in range(trials):
        counts = rng.multinomial(1500, full, size=3)[:, :-1]
        cbm = {
            j: {(i,): int(c) for i, c in enumerate(counts[j])} for j in range(3)
        }
        if not path_symmetric(cbm, [0, 1, 2], 1500, 1, alpha):
            rejections += 1
    rate = rejections / trials
    assert abs(rate - alpha) <= 3 * math.sqrt(alpha * (1 - alpha) / trials)


def test_path_symmetric_classroom_students(classroom):
    from prism.walks import WalkConfig, run_walks

    p1 = classroom.node_names.index("P1")
    st = run_walks(classroom, p1, WalkConfig(L=2, N=910, seed=0))
    students = [classroom.node_names.index(p) for p in ("P3", "P4", "P5", "P6")]
    counts = oracles.signature_dicts(st.signatures)
    assert path_symmetric(counts, students, st.N, st.L, alpha=0.01)


def test_path_symmetric_department_sets(physics):
    from prism.walks import WalkConfig, run_walks

    b1 = physics.node_names.index("B1")
    st = run_walks(physics, b1, WalkConfig(L=4, N=1505, seed=2))
    trio = [physics.node_names.index(p) for p in ("P1", "P2", "P3")]
    pair = trio[:2]
    counts = oracles.signature_dicts(st.signatures)
    # the mixed set fails even at a strict level; the symmetric pair survives
    assert not path_symmetric(counts, trio, st.N, st.L, alpha=0.01)
    assert path_symmetric(counts, pair, st.N, st.L, alpha=0.01)


def test_q_invariance_under_member_permutation():
    per = [{(0,): 10, (1,): 30}, {(0,): 14, (1,): 28}, {(0,): 11, (1,): 35}]
    q1 = q_statistic(cluster(per, N=200))
    q2 = q_statistic(cluster(per[::-1], N=200))
    assert q1 == pytest.approx(q2)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 40), min_size=2, max_size=2),
        min_size=1,
        max_size=5,
    )
)
def test_q_non_negative_and_zero_iff_identical(rows):
    # every category kept, however rare: built directly, not folded
    counts = np.array([[500 - sum(r), *r] for r in rows], dtype=float)
    cc = ClusterCounts(tuple(range(len(rows))), ((0,), (1,)), counts, N=500, length=1)
    q = q_statistic(cc)
    assert q >= 0.0
    identical = all(r == rows[0] for r in rows)
    assert (q == pytest.approx(0.0)) == identical


def test_monotone_in_alpha_critical_value():
    cc = cluster([{(0,): 50}, {(0,): 60}], N=1000)
    g = gamma_approx_params(cc)
    crit = [gamma_critical_value(g, a) for a in (0.001, 0.01, 0.05, 0.2)]
    assert crit == sorted(crit, reverse=True)
