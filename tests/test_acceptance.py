"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria, with their tolerances pinned here:
1. walk-count fixtures (within 5% of 2.9e3 and 1.5e3)
2. toy concept recovery (>= 18/20 seeds) and department split (2 parts,
   diameter 4, zero lost edges)
3. statistical calibration of both tests (alpha +- 3 binomial SE, 500 trials)
4. gamma critical values within 1% of Monte-Carlo generalized chi-squared
5. relative hitting-time error at most epsilon on every small fixture
6. clustering runtime fits c * n log n within x1.5 across 1k..8k nodes
7. byte-identical CLI output across 1, 4 and 8 threads
"""

import math
import time

import numpy as np

import datasets
import oracles
from prism.cli import main
from prism.clustering import refine_sets
from prism.hypergraph import diameter
from prism.pipeline import RunConfig, get_communities
from prism.spectral import hcluster
from prism.stats import SignatureTable, gamma_critical_value, path_symmetric, theta_sym
from prism.walks import WalkConfig, WalkStats, optimal_walk_count, run_walks, topk_walk_count


def report(criterion: str, passed: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_walk_count_fixtures():
    n9 = topk_walk_count(0.1, 2, 9, 3)
    n4 = topk_walk_count(0.1, 2, 4, 3)
    ok = abs(n9 - 2.9e3) / 2.9e3 <= 0.05 and abs(n4 - 1.5e3) / 1.5e3 <= 0.05
    report("1 walk-count fixtures", ok, f"L=9 -> {n9}, L=4 -> {n4}")


def test_criterion_2_toy_concept_recovery(classroom, two_departments):
    want = {
        frozenset({"P2"}),
        frozenset({"P3", "P4", "P5", "P6"}),
        frozenset({"B1", "B2", "B3"}),
    }
    good = 0
    for seed in range(20):
        rep = get_communities(classroom, RunConfig(seed=seed))
        src = [
            s
            for sub in rep.subhypergraphs
            for s in sub.sources
            if s.source == "P1"
        ][0]
        if {frozenset(c.members) for c in src.concepts} == want:
            good += 1

    subs = hcluster(two_departments)
    diams = sorted(diameter(s) for s in subs)
    lost = two_departments.n_edges - sum(s.n_edges for s in subs)
    ok = good >= 18 and len(subs) == 2 and diams == [4, 4] and lost == 0
    report(
        "2 toy concept recovery",
        ok,
        f"seeds {good}/20, {len(subs)} parts, diameters {diams}, lost edges {lost}",
    )


def test_criterion_3_statistical_calibration():
    rng = np.random.default_rng(20260810)
    trials = 500
    pis = np.array([0.05, 0.08, 0.12, 0.18, 0.25])  # all expected counts >= 100
    full = np.append(pis, 1 - pis.sum())
    failures = []
    details = []
    for alpha in (0.01, 0.05):
        band = 3 * math.sqrt(alpha * (1 - alpha) / trials)
        rejected = 0
        for _ in range(trials):
            counts = rng.multinomial(2000, full, size=4)[:, :-1]
            cbm = {
                j: {(i,): int(c) for i, c in enumerate(counts[j])} for j in range(4)
            }
            if not path_symmetric(cbm, [0, 1, 2, 3], 2000, 1, alpha):
                rejected += 1
        rate = rejected / trials
        details.append(f"path a={alpha}: {rate:.3f}")
        if abs(rate - alpha) > band:
            failures.append(f"path {alpha}: {rate}")

        # distance test on identical two-point hitting-time distributions,
        # the family saturating the worst-case variance bound
        L, N = 5, 2000
        theta = theta_sym(alpha, L, N)
        rejected = 0
        for _ in range(trials):
            c1, c2 = rng.binomial(N, 0.5, size=2)
            h1 = (c1 + (N - c1) * L) / N
            h2 = (c2 + (N - c2) * L) / N
            if abs(h1 - h2) > theta:
                rejected += 1
        rate = rejected / trials
        details.append(f"dist a={alpha}: {rate:.3f}")
        if abs(rate - alpha) > band:
            failures.append(f"dist {alpha}: {rate}")
    report("3 statistical calibration", not failures, "; ".join(details))


def test_criterion_4_gamma_approximation_fidelity():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 6))
        lam = int(rng.integers(1, 7))
        pi = rng.dirichlet(np.full(lam + 1, 2.0))
        pi = np.maximum(pi, 0.02)
        pi /= pi.sum()
        N = 5000
        means = pi * N
        cc = oracles.ClusterCounts(
            members=tuple(range(m)),
            categories=tuple((i,) for i in range(lam)),
            counts=np.tile(means, (m, 1)),
            N=N,
            length=1,
        )
        crit = gamma_critical_value(oracles.gamma_approx_params(cc), 0.05)
        # the block covariance kron(I - J/m, S) has the eigenvalues of S,
        # each m - 1 times: one chi-squared(m - 1) per eigenvalue of S
        w = np.linalg.eigvalsh(oracles.multinomial_covariance(means, N))
        w = w[w > 1e-9]
        q = oracles.genchi2_mc_quantile(w, m - 1, 0.95, 10**6, rng)
        worst = max(worst, abs(crit - q) / q)
    report(
        "4 gamma-approximation fidelity",
        worst <= 0.01,
        f"worst relative error {worst:.4f} over 50 instances",
    )


def test_criterion_5_epsilon_uncertainty_bound():
    fixtures = datasets.small_fixture_graphs()
    worst = 0.0
    worst_at = ""
    for eps in (0.1, 0.2):
        for name, h in fixtures.items():
            assert h.n_nodes <= 12
            L = max(1, diameter(h))
            N = optimal_walk_count(eps, max(1, h.n_labels), L)
            for source in range(h.n_nodes):
                exact = oracles.exact_tht(h, source, L)
                errs = np.zeros(h.n_nodes)
                for rep in range(50):
                    st = run_walks(
                        h, source, WalkConfig(L=L, N=N, seed=rep)
                    )
                    errs += np.abs(st.tht - exact)
                errs /= 50
                for target in range(h.n_nodes):
                    if target == source:
                        continue
                    rel = errs[target] / exact[target]
                    if rel / eps > worst:
                        worst = rel / eps
                        worst_at = f"{name} eps={eps}"
    report(
        "5 epsilon-uncertainty bound",
        worst <= 1.0,
        f"worst mean-relative-error/epsilon {worst:.3f} at {worst_at}",
    )


def _scaling_stats(n, lam=32, n_profiles=8, N=4000, seed=0):
    rng = np.random.default_rng(seed)
    profiles = rng.dirichlet(np.full(lam + 1, 1.0), size=n_profiles)
    sig_counts = {}
    for i in range(n):
        row = rng.multinomial(N, profiles[i % n_profiles])[:-1]
        sig_counts[i] = {(j,): int(c) for j, c in enumerate(row) if c > 0}
    return WalkStats(
        source=n,
        N=N,
        L=1,
        tht=np.ones(n + 1),
        hits=np.full(n + 1, N, dtype=np.int64),
        signatures=SignatureTable.from_counts(sig_counts),
    )


def test_criterion_6_complexity_scaling():
    sizes = (1000, 2000, 4000, 8000)
    stats = {n: _scaling_stats(n) for n in sizes}
    times = {n: [] for n in sizes}
    # round-robin, so a slow spell of the host lands on every size
    for _ in range(5):
        for n in sizes:
            t0 = time.process_time()
            refine_sets([(stats[n], list(range(n)))], alpha=0.01)
            times[n].append(time.process_time() - t0)
    ratios = {n: sorted(times[n])[2] / (n * math.log(n)) for n in sizes}
    # best single constant c, then every point must lie within x1.5 of
    # c * n ln n (an O(n^3) algorithm would deviate by ~x7 here)
    c = math.exp(np.mean([math.log(r) for r in ratios.values()]))
    deviation = max(max(r / c, c / r) for r in ratios.values())
    detail = ", ".join(f"n={n}: {r:.2e}" for n, r in ratios.items())
    report(
        "6 complexity scaling",
        deviation <= 1.5,
        f"max deviation from fitted c*n*ln(n): x{deviation:.2f} [{detail}]",
    )


def test_criterion_7_thread_determinism(tmp_path):
    db = tmp_path / "departments.db"
    db.write_text(datasets.two_departments_db())
    outputs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"report_{threads}.json"
        code = main(
            [
                "mine",
                "--db",
                str(db),
                "--seed",
                "123",
                "--threads",
                str(threads),
                "--output",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(
        "7 thread determinism",
        ok,
        f"{len(outputs[0])} bytes, identical across 1/4/8 threads" if ok else "outputs differ",
    )
