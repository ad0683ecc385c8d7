import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import prism
from prism.stats import (
    ClusterCounts,
    CountMatrix,
    GammaApprox,
    distance_symmetric,
    gamma_approx_params,
    gamma_critical_value,
    path_symmetric,
    path_symmetry_report,
    q_statistic,
    t_inverse_survival,
    theta_sym,
)


def cluster(per_member, N, length=1, min_mean=5.0):
    cm = CountMatrix.from_counts(dict(enumerate(per_member)), range(len(per_member)))
    return ClusterCounts.fold(cm.members, cm.signatures, cm.counts, N, length, min_mean)


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


def test_distance_symmetric_basic():
    assert distance_symmetric(2.0, 2.0, 0.0)
    assert not distance_symmetric(1.0, 1.5, 0.23)
    assert distance_symmetric(1.0, 1.2, 0.2)


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


def test_low_count_categories_fold_into_null():
    per = [{(0,): 100, (1,): 2}, {(0,): 104, (1,): 1}]
    cc = cluster(per, N=1000)
    assert cc.categories == ((0,),)
    # the folded category's counts move into the null column
    assert cc.counts[0, 0] == 1000 - 100
    assert cc.counts[1, 0] == 1000 - 104


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
    st = run_walks(classroom, p1, WalkConfig(epsilon=0.1, L=2, N=910, seed=0))
    students = [classroom.node_names.index(p) for p in ("P3", "P4", "P5", "P6")]
    counts = {v: st.signature_counts[v] for v in students}
    assert path_symmetric(counts, students, st.N, st.L, alpha=0.01)


def test_path_symmetric_department_sets(physics):
    from prism.walks import WalkConfig, run_walks

    b1 = physics.node_names.index("B1")
    st = run_walks(physics, b1, WalkConfig(epsilon=0.1, L=4, N=1505, seed=2))
    trio = [physics.node_names.index(p) for p in ("P1", "P2", "P3")]
    pair = trio[:2]
    counts = {v: st.signature_counts[v] for v in trio}
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
    per = [{(0,): r[0], (1,): r[1]} for r in rows]
    cc = cluster(per, N=500, min_mean=0.0)
    q = q_statistic(cc)
    assert q >= 0.0
    identical = all(r == rows[0] for r in rows)
    assert (q == pytest.approx(0.0)) == identical


def test_monotone_in_alpha_critical_value():
    cc = cluster([{(0,): 50}, {(0,): 60}], N=1000)
    g = gamma_approx_params(cc)
    crit = [gamma_critical_value(g, a) for a in (0.001, 0.01, 0.05, 0.2)]
    assert crit == sorted(crit, reverse=True)
