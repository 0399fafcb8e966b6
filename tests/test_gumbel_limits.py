"""Normalizing constants and reference CDFs for binomial maxima.

Core claims checked here:

* ``norm_constants`` reproduces its closed form (recomputed here from
  scratch) and the frozen golden values; ``log_d`` overrides the log of
  the (possibly huge) factor count;
* ``binomial_cdf`` matches exact rational enumeration for small N and a
  compensated log-space sum for large N; ``binomial_sf`` complements it;
* ``product_max_cdf`` is the d-th power of the per-factor CDF, monotone
  in x, and approaches ``gumbel_cdf`` as d grows (sup-grid distance
  shrinking along d = 10^2 .. 10^4);
* clique and common-neighbour constants carry the right metadata, warn
  outside their regimes, and the ``common-neighbours`` experiment kind
  pairs them with the binomial law on the reduced vertex count with the
  powered-up edge probability.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from exindep import (
    DomainError,
    RegimeWarning,
    binomial_cdf,
    binomial_sf,
    clique_constants,
    common_neighbour_constants,
    gumbel_cdf,
    norm_constants,
    product_max_cdf,
    tail_limit_check,
)
from exindep.experiments_cli import ExperimentConfig
from exindep.experiments_cli.runner import KINDS


def _expected_constants(d: float, N: int, p: float) -> tuple[float, float]:
    # centering and scale recomputed from scratch: the Gaussian-tail
    # quantile expansion of the per-factor binomial at level 1 - 1/d
    log_d = math.log(d)
    bracket = (
        1.0
        - math.log(math.log(d)) / (4.0 * log_d)
        - math.log(2.0 * math.sqrt(math.pi)) / (2.0 * log_d)
    )
    a = N * p + math.sqrt(2.0 * N * p * (1.0 - p) * log_d) * bracket
    b = math.sqrt(N * p * (1.0 - p) / (2.0 * log_d))
    return a, b


class TestNormConstants:
    def test_matches_closed_form(self):
        c = norm_constants(100, 1000, 0.5)
        a, b = _expected_constants(100, 1000, 0.5)
        assert c.a == pytest.approx(a, rel=1e-14)
        assert c.b == pytest.approx(b, rel=1e-14)

    def test_frozen_golden(self):
        c = norm_constants(100, 1000, 0.5)
        assert c.a == pytest.approx(537.4137733493712, abs=1e-10)
        assert c.b == pytest.approx(5.209933312332629, abs=1e-12)
        assert c.family == "binomial"
        assert c.log_d == pytest.approx(math.log(100), rel=1e-15)

    def test_explicit_log_d_matches_default(self):
        base = norm_constants(1000, 10**6, 0.3)
        override = norm_constants(1000, 10**6, 0.3, log_d=math.log(1000))
        assert override.a == base.a and override.b == base.b

    def test_huge_log_d_stays_finite(self):
        # a factor count far beyond float range still warns (the variance
        # cannot keep up with log^3 d) but must produce finite constants
        with pytest.warns(RegimeWarning):
            c = norm_constants(float("inf"), 10**9, 0.5, log_d=5000.0)
        assert math.isfinite(c.a) and math.isfinite(c.b) and c.b > 0

    def test_regime_warning_small_variance(self):
        # N p (1-p) = 2.5 while log^3 d is in the thousands
        with pytest.warns(RegimeWarning):
            norm_constants(10**6, 10, 0.5)

    @pytest.mark.parametrize(
        "d,N,p", [(2, 100, 0.5), (100, 0, 0.5), (100, 100, 0.0), (100, 100, 1.0)]
    )
    def test_domain_errors(self, d, N, p):
        with pytest.raises(DomainError):
            norm_constants(d, N, p)

    def test_scale_positive_validated(self):
        c = norm_constants(50, 2000, 0.25)
        assert c.b > 0.0


class TestBinomialCdf:
    def test_frozen_golden(self):
        assert binomial_cdf(10, 0.5, 5) == pytest.approx(0.623046875, abs=1e-15)

    @pytest.mark.parametrize("n,num,den,t", [(7, 1, 2, 3), (12, 1, 4, 2), (20, 3, 5, 11), (30, 2, 3, 22)])
    def test_matches_exact_rational(self, n, num, den, t):
        want = float(oracles.binom_cdf_exact(n, num, den, t))
        assert binomial_cdf(n, num / den, t) == pytest.approx(want, rel=1e-13)

    def test_matches_logsum_large_n(self):
        want = oracles.binom_cdf_logsum(500, 0.37, 200)
        assert binomial_cdf(500, 0.37, 200) == pytest.approx(want, rel=1e-10)

    def test_edges(self):
        assert binomial_cdf(10, 0.5, -1) == 0.0
        assert binomial_cdf(10, 0.5, 10) == 1.0
        assert binomial_cdf(10, 0.5, 1e9) == 1.0

    def test_non_integer_threshold_floors(self):
        assert binomial_cdf(10, 0.5, 5.9) == binomial_cdf(10, 0.5, 5)

    def test_sf_complements(self):
        for t in (0, 3, 7, 10):
            total = binomial_cdf(10, 0.3, t) + binomial_sf(10, 0.3, t)
            assert total == pytest.approx(1.0, abs=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            binomial_cdf(-1, 0.5, 0)
        with pytest.raises(DomainError):
            binomial_cdf(10, 1.5, 5)


class TestProductMaxCdf:
    def test_is_power_of_factor_cdf(self):
        c = norm_constants(100, 1000, 0.5)
        got = product_max_cdf(100, 1000, 0.5, 1.0, c)
        want = binomial_cdf(1000, 0.5, c.a + c.b * 1.0) ** 100
        assert got == pytest.approx(want, rel=1e-12)

    def test_monotone_and_bounded(self):
        c = norm_constants(100, 1000, 0.5)
        grid = np.arange(-3.0, 6.0, 0.25)
        values = [product_max_cdf(100, 1000, 0.5, float(x), c) for x in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_sup_distance_to_gumbel_shrinks(self):
        grid = [(-3.0 + 0.05 * i) for i in range(181)]
        sups = []
        for d in (100, 1000, 10000):
            c = norm_constants(d, 100 * d, 0.5)
            sup = max(
                abs(product_max_cdf(d, 100 * d, 0.5, x, c) - gumbel_cdf(x))
                for x in grid
            )
            sups.append(sup)
        assert sups[0] > sups[1] > sups[2]

    def test_gumbel_reference(self):
        assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert gumbel_cdf(2.0) == pytest.approx(oracles.gumbel(2.0), rel=1e-15)

    def test_tail_limit_frozen(self):
        got = tail_limit_check(10**5, 10**7, 0.5, 0.0)
        assert got == pytest.approx(0.9338645217526308, rel=1e-10)


class TestCliqueConstants:
    def test_frozen_golden(self):
        with pytest.warns(RegimeWarning):
            c = clique_constants(500, 0.5, 3)
        assert c.a == pytest.approx(19688.28909184592, rel=1e-12)
        assert c.b == pytest.approx(396.40867349229893, rel=1e-12)
        assert c.family == "clique"
        assert c.k == 3
        assert c.d == 500.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            clique_constants(500, 0.5, 2)
        with pytest.raises(DomainError):
            clique_constants(3, 0.5, 4)
        with pytest.raises(DomainError):
            clique_constants(500, 0.0, 3)

    def test_large_n_no_warning(self):
        # variance n p (1-p) comfortably exceeds log^3 n here
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RegimeWarning)
            clique_constants(5000, 0.5, 3)


class TestCommonNeighbourConstants:
    def test_frozen_golden_and_metadata(self):
        with pytest.warns(RegimeWarning):
            c = common_neighbour_constants(500, 0.5, 2)
        assert c.a == pytest.approx(166.91536365468386, rel=1e-12)
        assert c.b == pytest.approx(1.9986942280659998, rel=1e-12)
        assert c.family == "common_neighbour"
        assert c.h == 2
        # the factor count is the number of h-sets; the trial count stays
        # the raw vertex count; the success probability is p^h
        assert c.d == float(math.comb(500, 2))
        assert c.N == 500
        assert c.p == pytest.approx(0.25, abs=1e-15)

    def test_reference_cdf_is_reduced_binomial(self):
        cfg = ExperimentConfig(
            kind="common-neighbours", n=500, p=0.5, trials=1, seed=0, h=2
        )
        want = (math.comb(500, 2), 498, 0.25)
        assert KINDS["common-neighbours"].binomial(cfg) == want

    def test_dense_edge_regime_warns(self):
        # 1 - p below sqrt(loglog n / log n) triggers the regime warning
        with pytest.warns(RegimeWarning):
            common_neighbour_constants(500, 0.5, 2)

    def test_sparse_edge_regime_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RegimeWarning)
            common_neighbour_constants(500, 0.2, 2)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            common_neighbour_constants(500, 0.5, 0)
        with pytest.raises(DomainError):
            common_neighbour_constants(5, 0.5, 5)
