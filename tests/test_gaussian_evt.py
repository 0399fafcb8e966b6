"""Gaussian extremal-independence diagnostics and sampling.

Core claims checked here:

* ``GaussianSystem`` validates shape, symmetry, finiteness, and positive
  variances; derived arrays are read-only;
* ``stationary_system`` reproduces the three named correlation families
  exactly and rejects out-of-range parameters;
* ``sample`` is deterministic per (seed, trial) and batching-invariant:
  disjoint ``trial_offset`` windows stitch into the same matrix as one
  big run, on both the lag-one (Markov) and the dense path; sample
  moments match the target law;
* the lag-one recursion equals the dense Cholesky product on the same
  normal streams to rounding; only Markov systems take it, and a system
  is factored once however many windows sample it;
* the d × d builders refuse a budget-busting ``d`` before allocating;
* ``check_conditions`` reports the four diagnostics per their closed
  forms — recomputed here with independent loops — and flags the
  slowly-decaying family while clearing the geometric one;
* ``phi_upper_estimate`` equals the pairwise-bound sum over weak
  predecessors divided by the Mill's lower bound.
"""

from __future__ import annotations

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from exindep import (
    DependencyGraph,
    DomainError,
    GaussianSystem,
    NumericError,
    ResourceBudgetError,
    StructuralError,
    ThresholdSet,
    berman_pair_bound,
    check_conditions,
    mills_bounds,
    phi_upper_estimate,
    sample,
    stationary_system,
)
from exindep import gaussian_evt
from exindep._rng import stream
from exindep.experiments_cli import gaussian_max_rate


def _ar1(d: int, rho: float) -> GaussianSystem:
    return stationary_system(d, "ar1", rho=rho)


def _one_per_path(d: int, rho: float, **kwargs) -> tuple[GaussianSystem, ...]:
    """A Markov system (lag-one recursion) and a non-Markov one (dense product)."""
    return (
        stationary_system(d, "ar1", rho=rho, **kwargs),
        stationary_system(d, "log_decay", gamma=rho, **kwargs),
    )


@pytest.fixture
def cholesky_calls(monkeypatch):
    """Covariances handed to ``_cholesky_factor`` while the test runs."""
    calls = []
    factor = gaussian_evt._cholesky_factor

    def counted(covariance):
        calls.append(covariance)
        return factor(covariance)

    monkeypatch.setattr(gaussian_evt, "_cholesky_factor", counted)
    return calls


def _markov_system(lags, std_devs, mean: float) -> GaussianSystem:
    """Covariance with ``r_ij = lags[i]·…·lags[j-1]`` for ``i < j``."""
    d = len(std_devs)
    r = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            r[i, j] = r[j, i] = math.prod(lags[i:j])
    s = np.asarray(std_devs, dtype=float)
    return GaussianSystem(means=np.full(d, mean), covariance=r * np.outer(s, s))


class TestGaussianSystem:
    def test_rejects_non_square(self):
        with pytest.raises(StructuralError):
            GaussianSystem(means=np.zeros(2), covariance=np.ones((2, 3)))

    def test_rejects_mean_length_mismatch(self):
        with pytest.raises(StructuralError):
            GaussianSystem(means=np.zeros(3), covariance=np.eye(2))

    def test_rejects_asymmetric(self):
        cov = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(StructuralError):
            GaussianSystem(means=np.zeros(2), covariance=cov)

    def test_rejects_nonpositive_variance(self):
        cov = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(StructuralError):
            GaussianSystem(means=np.zeros(2), covariance=cov)

    def test_rejects_nan(self):
        cov = np.array([[1.0, float("nan")], [float("nan"), 1.0]])
        with pytest.raises(StructuralError):
            GaussianSystem(means=np.zeros(2), covariance=cov)

    def test_arrays_read_only(self):
        sys = _ar1(4, 0.3)
        assert not sys.means.flags.writeable
        assert not sys.covariance.flags.writeable
        assert not sys.correlations.flags.writeable

    def test_correlations_unit_diagonal(self):
        sys = stationary_system(5, "ar1", rho=0.4, variance=9.0)
        assert np.allclose(np.diag(sys.correlations), 1.0)
        assert sys.std_devs.tolist() == [3.0] * 5


class TestStationarySystem:
    def test_ar1_covariance(self):
        sys = _ar1(5, 0.3)
        for i in range(5):
            for j in range(5):
                assert sys.covariance[i, j] == pytest.approx(
                    0.3 ** abs(i - j), rel=1e-15
                )

    def test_log_decay_covariance(self):
        sys = stationary_system(4, "log_decay", gamma=0.9)
        assert sys.covariance[0, 0] == 1.0
        for k in (1, 2, 3):
            assert sys.covariance[0, k] == pytest.approx(
                0.9 / math.log(2.0 + k), rel=1e-15
            )

    def test_truncated_covariance(self):
        sys = stationary_system(6, "truncated", rho=0.5, radius=2)
        assert sys.covariance[0, 1] == 0.5
        assert sys.covariance[0, 2] == 0.25
        assert sys.covariance[0, 3] == 0.0
        assert sys.covariance[0, 5] == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"family": "ar1"},
            {"family": "ar1", "rho": 1.0},
            {"family": "log_decay"},
            {"family": "log_decay", "gamma": 1.2},
            {"family": "truncated", "rho": 0.5},
            {"family": "truncated", "rho": 0.5, "radius": -1},
            {"family": "nope", "rho": 0.5},
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(DomainError):
            stationary_system(4, **kwargs)

    def test_budget_refused_before_allocation(self):
        # 20000² cells exceed the default budget; the refusal comes first
        with pytest.raises(ResourceBudgetError):
            stationary_system(20_000, "ar1", rho=0.3)
        stand_in = SimpleNamespace(d=20_000)  # no covariance is ever read
        with pytest.raises(ResourceBudgetError):
            check_conditions(
                stand_in, ThresholdSet(a=4.0, b=1.0), DependencyGraph.empty(20_000), 0.5
            )

    def test_non_psd_detected_at_sampling(self):
        # a hard truncation this aggressive is not positive semidefinite
        sys = stationary_system(40, "truncated", rho=0.9, radius=1)
        with pytest.raises(NumericError):
            sample(sys, 2, 0)


class TestSampling:
    def test_deterministic(self):
        for sys in _one_per_path(6, 0.3):
            a = sample(sys, 20, 123)
            b = sample(sys, 20, 123)
            assert np.array_equal(a, b)
            c = sample(sys, 20, 124)
            assert not np.array_equal(a, c)

    def test_offset_windows_stitch_exactly(self):
        for sys in _one_per_path(5, 0.4):
            whole = sample(sys, 30, 7)
            parts = np.vstack(
                [sample(sys, 10, 7, trial_offset=o) for o in (0, 10, 20)]
            )
            assert np.array_equal(whole, parts)

    def test_shape_and_mean_shift(self):
        for sys in _one_per_path(3, 0.2, mean=5.0):
            out = sample(sys, 4000, 42)
            assert out.shape == (4000, 3)
            assert out.mean(axis=0) == pytest.approx([5.0] * 3, abs=0.1)

    def test_sample_correlation_matches_target(self):
        sys = _ar1(2, 0.6)
        out = sample(sys, 20000, 5)
        got = np.corrcoef(out.T)[0, 1]
        assert got == pytest.approx(0.6, abs=0.02)

    def test_budget_refused_before_allocation(self):
        # 10^6 trials at d = 2000 would be a 16 GB result: refused before
        # the output, the factor or any normal is touched
        stand_in = SimpleNamespace(d=2000)  # no factor or means to read
        tracemalloc.start()
        try:
            with pytest.raises(ResourceBudgetError, match="output cells"):
                sample(stand_in, 10**6, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        sys = _ar1(100, 0.3)
        with pytest.raises(ResourceBudgetError):
            sample(sys, 10**6 + 1, 1)  # one trial past 10^8 cells
        assert "_sampling_factor" not in vars(sys)

    def test_rejects_bad_counts(self):
        sys = _ar1(2, 0.1)
        with pytest.raises(DomainError):
            sample(sys, 0, 1)
        with pytest.raises(DomainError):
            sample(sys, 1, 1, trial_offset=-1)


class TestSamplingPaths:
    @pytest.mark.parametrize("d", [1, 2, 3, 50])
    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.0, 0.3, 0.9])
    def test_recursion_matches_dense_product(self, rho, d, cholesky_calls):
        sys = stationary_system(d, "ar1", rho=rho, variance=2.5, mean=-1.5)
        got = sample(sys, 40, 11, trial_offset=3)
        assert cholesky_calls == []  # a Markov system is never factored
        z = np.vstack([stream(11, 3 + t).standard_normal(d) for t in range(40)])
        want = z @ gaussian_evt._cholesky_factor(sys.covariance).T + sys.means
        assert np.abs(got - want).max() <= 1e-12

    def test_non_stationary_markov_matches_dense_product(self, cholesky_calls):
        sys = _markov_system(
            [0.5, -0.2, 0.9, 0.0, 0.7], [1.0, 2.0, 0.5, 3.0, 1.0, 1.5], mean=0.25
        )
        got = sample(sys, 40, 5)
        assert cholesky_calls == []
        z = np.vstack([stream(5, t).standard_normal(6) for t in range(40)])
        want = z @ gaussian_evt._cholesky_factor(sys.covariance).T + sys.means
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize(
        "sys",
        [
            stationary_system(8, "log_decay", gamma=0.5),
            stationary_system(8, "truncated", rho=0.5, radius=1),
            stationary_system(8, "truncated", rho=0.5, radius=2),
        ],
        ids=["log_decay", "truncated-1", "truncated-2"],
    )
    def test_non_markov_families_take_dense_path(self, sys, cholesky_calls):
        sample(sys, 3, 0)
        assert len(cholesky_calls) == 1

    def test_perturbed_ar1_takes_dense_path(self, cholesky_calls):
        cov = _ar1(6, 0.5).covariance.copy()
        cov[1, 4] += 1e-9
        cov[4, 1] += 1e-9
        sample(GaussianSystem(means=np.zeros(6), covariance=cov), 3, 0)
        assert len(cholesky_calls) == 1

    def test_multi_window_rate_factors_once(self, cholesky_calls):
        sys = stationary_system(20, "log_decay", gamma=0.5)
        whole = gaussian_max_rate(sys, 2.0, 50, 9, block=50)
        windowed = gaussian_max_rate(sys, 2.0, 50, 9, block=10)
        assert windowed == whole
        assert len(cholesky_calls) == 1


class TestThresholdSet:
    def test_level_and_standardization(self):
        th = ThresholdSet(a=2.0, b=0.5, x=2.0)
        assert th.level == 3.0
        sys = stationary_system(2, "ar1", rho=0.1, variance=4.0, mean=1.0)
        assert th.u_values(sys).tolist() == [1.0, 1.0]
        assert th.u_min(sys) == 1.0

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(DomainError):
            ThresholdSet(a=1.0, b=0.0)


class TestCheckConditions:
    def _manual_report(self, sys, th, dep, rho):
        # independent reimplementation with plain loops
        d = sys.d
        u = th.u_values(sys)
        r = sys.correlations
        log_d = math.log(d)
        g2 = 0.0
        g3 = 0.0
        g4 = 0.0
        strong_pairs = 0
        for i in range(d):
            for j in range(i):
                if j in dep.neighbor_sets[i]:
                    strong_pairs += 1
                    g3 += math.exp(
                        -(u[i] ** 2 + u[j] ** 2) / (2.0 * (1.0 + abs(r[i, j])))
                    )
                else:
                    g2 = max(g2, abs(r[i, j]) * log_d)
        for i in range(d):
            for j in range(d):
                if i != j:
                    g4 = max(g4, abs(r[i, j]))
        g3_suff = math.exp(-min(u) ** 2 / (1.0 + rho)) * strong_pairs
        return min(u), g2, g3, g3_suff, g4

    def test_matches_manual_loops(self):
        sys = _ar1(40, 0.3)
        th = ThresholdSet(a=math.sqrt(2 * math.log(40)), b=1.0)
        dep = DependencyGraph.distance_band(40, 3)
        rep = check_conditions(sys, th, dep, 0.5, eps=0.05)
        g1, g2, g3, g3s, g4 = self._manual_report(sys, th, dep, 0.5)
        assert rep.g1 == pytest.approx(g1, rel=1e-12)
        assert rep.g2 == pytest.approx(g2, rel=1e-12)
        assert rep.g3 == pytest.approx(g3, rel=1e-12)
        assert rep.g3_sufficient == pytest.approx(g3s, rel=1e-12)
        assert rep.g4 == pytest.approx(g4, rel=1e-12)

    def test_geometric_decay_clears_flags(self):
        d = 500
        sys = _ar1(d, 0.3)
        th = ThresholdSet(a=math.sqrt(2 * math.log(d)), b=1.0)
        rep = check_conditions(
            sys, th, DependencyGraph.distance_band(d, 5), 0.3, eps=0.05
        )
        # beyond the band the worst correlation is rho^6
        assert rep.g2 == pytest.approx(0.3**6 * math.log(d), rel=1e-12)
        assert rep.g1_ok and rep.g2_ok
        assert rep.g4 == pytest.approx(0.3, rel=1e-12)

    def test_slow_decay_raises_flag(self):
        d = 500
        sys = stationary_system(d, "log_decay", gamma=0.9)
        th = ThresholdSet(a=math.sqrt(2 * math.log(d)), b=1.0)
        rep = check_conditions(
            sys, th, DependencyGraph.distance_band(d, 5), 0.95, eps=0.05
        )
        assert not rep.g2_ok
        assert rep.g2 > 1.0

    def test_empty_graph_g3_zero(self):
        sys = _ar1(10, 0.2)
        th = ThresholdSet(a=2.0, b=1.0)
        rep = check_conditions(sys, th, DependencyGraph.empty(10), 0.5)
        assert rep.g3 == 0.0
        assert rep.g3_sufficient == 0.0

    def test_rho_validated(self):
        sys = _ar1(4, 0.2)
        th = ThresholdSet(a=2.0, b=1.0)
        with pytest.raises(DomainError):
            check_conditions(sys, th, DependencyGraph.empty(4), 1.5)

    def test_dimension_mismatch(self):
        sys = _ar1(4, 0.2)
        th = ThresholdSet(a=2.0, b=1.0)
        with pytest.raises(StructuralError):
            check_conditions(sys, th, DependencyGraph.empty(5), 0.5)


class TestPhiUpperEstimate:
    def test_matches_manual_sum(self):
        sys = _ar1(8, 0.35)
        th = ThresholdSet(a=2.5, b=1.0)
        dep = DependencyGraph.distance_band(8, 1)
        i = 5
        u = th.u_values(sys)
        want = sum(
            berman_pair_bound(float(u[i]), float(u[j]), float(sys.correlations[i, j]))
            for j in range(i)
            if j not in dep.neighbor_sets[i]
        ) / mills_bounds(float(u[i]))[0]
        assert phi_upper_estimate(sys, th, dep, i) == pytest.approx(want, rel=1e-12)

    def test_requires_threshold_above_one(self):
        sys = _ar1(4, 0.2)
        with pytest.raises(DomainError):
            phi_upper_estimate(sys, ThresholdSet(a=0.5, b=1.0), DependencyGraph.empty(4), 2)

    def test_estimate_shrinks_with_level(self):
        sys = _ar1(30, 0.4)
        dep = DependencyGraph.empty(30)
        low = phi_upper_estimate(sys, ThresholdSet(a=2.0, b=1.0), dep, 29)
        high = phi_upper_estimate(sys, ThresholdSet(a=4.0, b=1.0), dep, 29)
        assert 0.0 <= high < low

    def test_mills_oracle_consistency(self):
        # the denominator bracket holds where it is used
        for x in (1.5, 2.5, 4.0):
            low, high = mills_bounds(x)
            assert low <= oracles.normal_tail(x) <= high
