"""Acceptance suite: twelve end-to-end criteria at fixed scales and seeds.

Each criterion prints one ``[criterion NN] PASS/FAIL`` line (replayed in
the terminal summary) before asserting its thresholds, so the verdicts
are visible even when a criterion fails.  Runtime budgets are asserted
alongside the statistical thresholds.

 1. inequality audit over 10,000 random event systems — zero violations
    of the two-sided bound at 1e-9;
 2. one-sided bounds on the same corpus, plus the zero-mixing lower
    bound holding exactly on block-structured product systems;
 3. coefficient ordering chains and the total-variation-vs-union-form
    inequality on the full corpus;
 4. hand-enumerated golden values, exact to 1e-12 against the oracle;
 5. product-of-binomials reference approaching the Gumbel law along a
    doubling-dimension ladder (exact CDF evaluation, no sampling);
 6. graph maximum degree Monte Carlo vs independent product;
 7. 3-uniform hypergraph maximum degree vs independent product;
 8. 4-uniform pair-codegree maximum vs independent product;
 9. per-vertex triangle-count maximum vs the Gumbel reference, plus the
    coupling between true counts and conditional-expectation surrogates;
10. common-neighbour maximum vs independent product with the truncation
    event holding in 95% of trials;
11. Gaussian AR(1) maxima behaving as independent at the classical
    threshold, with the decay diagnostics flagging the slow family;
12. analytic sandwiches: normal-tail bracket, pairwise-comparison bound
    dominating exact bivariate discrepancies, and overlap bookkeeping
    matching subset enumeration.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import oracles
from exindep import (
    DependencyGraph,
    ThresholdSet,
    arratia_phi_tilde,
    audit,
    berman_pair_bound,
    check_conditions,
    clique_overlap,
    declustering,
    gumbel_cdf,
    mills_bounds,
    norm_constants,
    product_max_cdf,
    stationary_system,
    tail_limit_check,
)
from exindep.experiments_cli import (
    ExperimentConfig,
    SystemGenSpec,
    bound_audit_run,
    default_grid,
    gaussian_max_rate,
    run_max_experiment,
)
from helpers import PAIR_ATOMS, PAIR_EVENTS, XOR_ATOMS, XOR_EVENTS, as_library

pytestmark = pytest.mark.filterwarnings("ignore::exindep.errors.RegimeWarning")

CORPUS_SIZE = 10_000
CORPUS_SEED = 20_240_816


@pytest.fixture(scope="module")
def mixed_corpus():
    """One shared audit sweep over the full random-system corpus."""
    t0 = time.perf_counter()
    summary = bound_audit_run(SystemGenSpec(), count=CORPUS_SIZE, seed=CORPUS_SEED)
    return summary, time.perf_counter() - t0


def test_01_two_sided_bound_audit(mixed_corpus, criterion_log):
    summary, elapsed = mixed_corpus
    main_violations = [v for v in summary.violations if v.startswith("thm1")]
    worst = summary.worst_residuals.get("thm1", float("-inf"))
    ok = not main_violations and elapsed <= 60.0
    criterion_log(
        f"[criterion 01] {'PASS' if ok else 'FAIL'} — {summary.count} systems, "
        f"{len(main_violations)} two-sided-bound violations, worst residual "
        f"{worst:.3g}, {elapsed:.1f}s (budget 60s)"
    )
    assert summary.count == CORPUS_SIZE
    assert main_violations == []
    assert worst <= 1e-9
    assert elapsed <= 60.0


def test_02_one_sided_bounds_and_exact_lower(mixed_corpus, criterion_log):
    summary, _ = mixed_corpus
    one_sided = [
        v
        for v in summary.violations
        if v.startswith("upper") or v.startswith("lower")
    ]
    t0 = time.perf_counter()
    block_summary = bound_audit_run(
        SystemGenSpec(event_family="clustered"), count=2_000, seed=CORPUS_SEED + 1
    )
    not_exact = 0
    for row in block_summary.rows:
        rep = row.audit
        if not (
            rep.coefficients.phi_minus <= 1e-12
            and rep.dubickas_applicable
            and rep.none_occur >= rep.dubickas_rhs - 1e-9
        ):
            not_exact += 1
    elapsed = time.perf_counter() - t0
    ok = not one_sided and not_exact == 0
    criterion_log(
        f"[criterion 02] {'PASS' if ok else 'FAIL'} — {len(one_sided)} one-sided "
        f"violations on {summary.count} systems; zero-mixing lower bound exact on "
        f"{len(block_summary.rows) - not_exact}/{len(block_summary.rows)} "
        f"block systems ({elapsed:.1f}s)"
    )
    assert one_sided == []
    assert not_exact == 0


def test_03_coefficient_chains_and_union_form(mixed_corpus, criterion_log):
    summary, _ = mixed_corpus
    chain = [v for v in summary.violations if v.startswith("chain")]
    union = [v for v in summary.violations if v.startswith("arratia_union")]
    ok = not chain and not union
    criterion_log(
        f"[criterion 03] {'PASS' if ok else 'FAIL'} — {len(chain)} ordering-chain "
        f"and {len(union)} union-form violations on {summary.count} systems"
    )
    assert chain == []
    assert union == []


def test_04_golden_values(criterion_log):
    tol = 1e-12
    xor_system, xor_empty = as_library(XOR_ATOMS, list(XOR_EVENTS), [frozenset()] * 3)
    rep = audit(xor_system, xor_empty)
    complete = [frozenset({0, 1, 2}) - {i} for i in range(3)]
    _, complete_dep = as_library(XOR_ATOMS, list(XOR_EVENTS), complete)
    d1, d2, *_ = declustering(xor_system, complete_dep)
    pair_system, pair_empty = as_library(PAIR_ATOMS, list(PAIR_EVENTS), [frozenset()] * 2)
    phi_tilde = arratia_phi_tilde(pair_system, pair_empty)

    oracle_gap = oracles.exact_gap(XOR_ATOMS, list(XOR_EVENTS))
    oracle_phi = oracles.mixing(XOR_ATOMS, list(XOR_EVENTS), [frozenset()] * 3)[0]
    oracle_rhs = oracles.bound_rhs(XOR_ATOMS, list(XOR_EVENTS), [frozenset()] * 3)["thm1"]
    oracle_d = oracles.declustering(XOR_ATOMS, list(XOR_EVENTS), complete)
    oracle_pt = oracles.phi_tilde(PAIR_ATOMS, list(PAIR_EVENTS), [frozenset()] * 2)

    checks = [
        ("gap", rep.exact_gap, oracle_gap, 0.125),
        ("phi", rep.coefficients.phi, oracle_phi, 0.25),
        ("thm1_rhs", rep.thm1_rhs, oracle_rhs, 0.21875),
        ("delta1", d1, oracle_d[0], 0.625),
        ("delta2", d2, oracle_d[1], 0.5),
        ("phi_tilde", phi_tilde, oracle_pt, 0.4),
    ]
    ok = all(
        abs(got - oracle) <= tol and abs(got - pinned) <= tol
        for _, got, oracle, pinned in checks
    )
    rendered = ", ".join(f"{name}={got:g}" for name, got, _, _ in checks)
    criterion_log(
        f"[criterion 04] {'PASS' if ok else 'FAIL'} — {rendered} "
        f"(each exact to 1e-12 against the enumeration oracle)"
    )
    for name, got, oracle, pinned in checks:
        assert abs(got - oracle) <= tol, f"{name} vs oracle"
        assert abs(got - pinned) <= tol, f"{name} vs pinned value"


def test_05_gumbel_ladder_exact_cdfs(criterion_log):
    t0 = time.perf_counter()
    grid = default_grid()
    sups = []
    for d in (100, 1_000, 10_000, 100_000):
        consts = norm_constants(d, 100 * d, 0.5)
        sup = max(
            abs(product_max_cdf(d, 100 * d, 0.5, float(x), consts) - gumbel_cdf(float(x)))
            for x in grid
        )
        sups.append(sup)
    ratio = tail_limit_check(100_000, 10_000_000, 0.5, 0.0)
    elapsed = time.perf_counter() - t0
    decreasing = all(a > b for a, b in zip(sups, sups[1:]))
    ratio_ok = abs(ratio - 1.0) <= 0.25
    ok = decreasing and ratio_ok and elapsed <= 10.0
    sups_text = ", ".join(f"{s:.4f}" for s in sups)
    criterion_log(
        f"[criterion 05] {'PASS' if ok else 'FAIL'} — sup-distances [{sups_text}] "
        f"strictly decreasing={decreasing}, tail ratio {ratio:.4f} within 25% of 1, "
        f"{elapsed:.1f}s (budget 10s)"
    )
    assert decreasing
    assert ratio_ok
    assert elapsed <= 10.0


def _run(kind: str, **kwargs):
    cfg = ExperimentConfig(kind=kind, **kwargs)
    t0 = time.perf_counter()
    result = run_max_experiment(cfg)
    return result, time.perf_counter() - t0


def test_06_graph_max_degree(criterion_log):
    trials = 1_000
    result, elapsed = _run("graph-maxdeg", n=1_000, p=0.5, trials=trials, seed=606)
    ks = result.ks_vs_reference
    ok = ks <= 0.08 and elapsed <= 300.0
    # Dvoretzky–Kiefer–Wolfowitz half-width at α = 0.05 (Massart 1990)
    noise_floor = math.sqrt(math.log(2 / 0.05) / (2 * trials))
    criterion_log(
        f"[criterion 06] {'PASS' if ok else 'FAIL'} — max-degree KS {ks:.4f} "
        f"(threshold 0.08, noise floor ≈ {noise_floor:.4f}), {elapsed:.1f}s "
        f"(budget 300s)"
    )
    assert ks <= 0.08
    assert elapsed <= 300.0


def test_07_hypergraph_max_degree(criterion_log):
    result, elapsed = _run(
        "hypergraph-maxdeg", n=200, p=0.5, trials=500, seed=707, k=3
    )
    ks = result.ks_vs_reference
    ok = ks <= 0.10 and elapsed <= 300.0
    criterion_log(
        f"[criterion 07] {'PASS' if ok else 'FAIL'} — 3-uniform max-degree KS "
        f"{ks:.4f} (threshold 0.10), {elapsed:.1f}s (budget 300s)"
    )
    assert ks <= 0.10
    assert elapsed <= 300.0


def test_08_codegree_maximum(criterion_log):
    result, elapsed = _run(
        "hypergraph-codegree", n=100, p=0.5, trials=300, seed=808, k=4, s=2
    )
    ks = result.ks_vs_reference
    ok = ks <= 0.12 and elapsed <= 600.0
    criterion_log(
        f"[criterion 08] {'PASS' if ok else 'FAIL'} — pair-codegree KS {ks:.4f} "
        f"(threshold 0.12), {elapsed:.1f}s (budget 600s)"
    )
    assert ks <= 0.12
    assert elapsed <= 600.0


def test_09_triangle_extensions(criterion_log):
    result, elapsed = _run(
        "clique-ext", n=500, p=0.5, trials=500, seed=909, k=3, reference="gumbel"
    )
    ks = result.ks_vs_reference
    coupling = result.aux_stats["cond_vs_count_ks"]
    ok = ks <= 0.15 and coupling <= 0.10 and elapsed <= 900.0
    criterion_log(
        f"[criterion 09] {'PASS' if ok else 'FAIL'} — triangle-count max vs Gumbel "
        f"KS {ks:.4f} (threshold 0.15); count-vs-surrogate coupling {coupling:.4f} "
        f"(threshold 0.10), {elapsed:.1f}s (budget 900s)"
    )
    assert ks <= 0.15
    assert coupling <= 0.10
    assert elapsed <= 900.0


def test_10_common_neighbours(criterion_log):
    result, elapsed = _run(
        "common-neighbours", n=500, p=0.5, trials=500, seed=1010, h=2
    )
    ks = result.ks_vs_reference
    rate = result.aux_stats["truncation_rate"]
    ok = ks <= 0.10 and rate >= 0.95 and elapsed <= 600.0
    criterion_log(
        f"[criterion 10] {'PASS' if ok else 'FAIL'} — common-neighbour KS {ks:.4f} "
        f"(threshold 0.10), truncation rate {rate:.4f} (threshold 0.95), "
        f"{elapsed:.1f}s (budget 600s); at this edge density the count maxima "
        f"sit above the independent product (positively associated counts) and "
        f"the typical-count threshold is exceeded in ≈8% of graphs — see the "
        f"README acceptance notes"
    )
    assert elapsed <= 600.0
    assert ks <= 0.10, (
        f"KS {ks:.4f} > 0.10: the empirical CDF of the normalized maximum sits "
        f"above the independent-product reference at n=500, p=0.5 — the counts "
        f"are positively associated and this edge density is outside the "
        f"regime where the product reference becomes exact"
    )
    assert rate >= 0.95, (
        f"truncation rate {rate:.4f} < 0.95: with the typical-count threshold "
        f"at one sqrt(2 log n) deviation, a 500-vertex graph keeps all "
        f"degrees below it only ≈92% of the time (analytic estimate 0.920)"
    )


def test_11_gaussian_extremal_independence(criterion_log):
    d = 2_000
    u = math.sqrt(2.0 * math.log(d))
    system = stationary_system(d, "ar1", rho=0.3)
    t0 = time.perf_counter()
    rate = gaussian_max_rate(system, u, 20_000, 31_415)
    reference = oracles.normal_cdf(u) ** d
    diff = abs(rate - reference)

    thresholds = ThresholdSet(a=u, b=1.0)
    band = DependencyGraph.distance_band(d, 5)
    report = check_conditions(system, thresholds, band, 0.3, eps=0.05)
    slow = stationary_system(d, "log_decay", gamma=0.9)
    slow_report = check_conditions(slow, thresholds, band, 0.95, eps=0.05)
    elapsed = time.perf_counter() - t0

    ok = (
        diff <= 0.03
        and report.g2 <= 0.05
        and not slow_report.g2_ok
        and elapsed <= 120.0
    )
    criterion_log(
        f"[criterion 11] {'PASS' if ok else 'FAIL'} — |empirical {rate:.4f} - "
        f"reference {reference:.4f}| = {diff:.4f} (threshold 0.03); band "
        f"diagnostic g2 {report.g2:.4f} ≤ 0.05; slow-decay flag raised="
        f"{not slow_report.g2_ok}; {elapsed:.1f}s (budget 120s)"
    )
    assert diff <= 0.03
    assert report.g2 <= 0.05 and report.g2_ok
    assert not slow_report.g2_ok
    assert elapsed <= 120.0


def test_12_analytic_sandwiches(criterion_log):
    t0 = time.perf_counter()
    violations = 0

    mills_points = 0
    for i in range(0, 181):
        x = 1.0 + 0.05 * i
        low, high = mills_bounds(x)
        tail = oracles.normal_tail(x)
        mills_points += 1
        if not (low <= tail <= high):
            violations += 1

    berman_points = 0
    for ri in range(-16, 17):
        r = ri / 20.0
        for ui in range(0, 21):
            u = ui / 5.0
            berman_points += 1
            if berman_pair_bound(u, u, r) < oracles.bvn_discrepancy(u, u, r) - 1e-15:
                violations += 1

    overlap_points = 0
    for k in (3, 4, 5):
        for j in range(k - 1, 13):
            for p in (0.3, 0.7):
                got = clique_overlap(j, k, p)
                want = oracles.clique_overlap_enum(j, k, p)
                overlap_points += 1
                match = (
                    got.delta == want[0]
                    and math.isclose(got.deltabar_pairs, want[1], rel_tol=1e-12, abs_tol=1e-12)
                    and math.isclose(got.mu, want[2], rel_tol=1e-12)
                    and math.isclose(got.deltabar_total, want[3], rel_tol=1e-12)
                )
                if not match:
                    violations += 1

    elapsed = time.perf_counter() - t0
    ok = violations == 0
    criterion_log(
        f"[criterion 12] {'PASS' if ok else 'FAIL'} — {violations} violations over "
        f"{mills_points} tail-bracket, {berman_points} pairwise-comparison, and "
        f"{overlap_points} overlap-enumeration checks ({elapsed:.1f}s)"
    )
    assert violations == 0
