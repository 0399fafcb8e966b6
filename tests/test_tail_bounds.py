"""Analytic tail bounds: normal-tail brackets, pairwise normal comparison,
Chernoff/Janson forms, and clique-overlap bookkeeping.

Core claims checked here:

* ``mills_bounds`` brackets the exact normal tail (erfc oracle) on a fine
  grid, with the frozen golden at x = 2;
* ``berman_pair_bound`` dominates the exact bivariate-normal joint-CDF
  discrepancy computed by Gauss-Legendre quadrature, for equal and
  unequal thresholds;
* both Chernoff forms and both Janson forms match their closed formulas
  and clamp at 1;
* ``clique_overlap`` agrees exactly with subset enumeration, including
  the degenerate pairless case at k = 3... only identical 2-subsets share
  two vertices, so the pair sum vanishes and the total reduces to the
  expectation term.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from exindep import (
    DomainError,
    berman_pair_bound,
    chernoff_dev,
    clique_overlap,
    janson_lower_tail,
    janson_upper_weak,
    mills_bounds,
)


class TestMillsBounds:
    def test_frozen_golden(self):
        low, high = mills_bounds(2.0)
        assert low == pytest.approx(0.020246612442445522, rel=1e-14)
        assert high == pytest.approx(0.02699548325659403, rel=1e-14)

    def test_brackets_exact_tail_on_grid(self):
        x = 1.0
        while x <= 10.0:
            low, high = mills_bounds(x)
            tail = oracles.normal_tail(x)
            assert low <= tail <= high, f"bracket fails at x={x}"
            assert low >= 0.0
            x += 0.25

    def test_bracket_tightens(self):
        gap_at = lambda x: mills_bounds(x)[1] - mills_bounds(x)[0]
        assert gap_at(2.0) > gap_at(4.0) > gap_at(8.0)

    def test_requires_positive_x(self):
        with pytest.raises(DomainError):
            mills_bounds(0.0)


class TestBermanPairBound:
    def test_frozen_goldens(self):
        assert berman_pair_bound(2.0, 2.0, 0.5) == pytest.approx(
            0.006384705735460192, rel=1e-14
        )

    def test_matches_closed_form(self):
        u_i, u_j, r = 1.5, 2.5, -0.4
        want = (
            abs(r)
            / (2.0 * math.pi * math.sqrt(1.0 - r * r))
            * math.exp(-(u_i**2 + u_j**2) / (2.0 * (1.0 + abs(r))))
        )
        assert berman_pair_bound(u_i, u_j, r) == pytest.approx(want, rel=1e-14)

    def test_dominates_quadrature_oracle_equal_thresholds(self):
        for r in [x / 20.0 for x in range(-16, 17)]:
            for u in [x / 4.0 for x in range(0, 17)]:
                bound = berman_pair_bound(u, u, r)
                exact = oracles.bvn_discrepancy(u, u, r)
                assert bound >= exact - 1e-15, f"violated at r={r}, u={u}"

    @settings(deadline=None, max_examples=150)
    @given(
        st.floats(-0.8, 0.8),
        st.floats(0.0, 4.0),
        st.floats(0.0, 4.0),
    )
    def test_dominates_quadrature_oracle_general(self, r, u_i, u_j):
        bound = berman_pair_bound(u_i, u_j, r)
        exact = oracles.bvn_discrepancy(u_i, u_j, r)
        assert bound >= exact - 1e-15

    def test_zero_correlation_is_zero(self):
        assert berman_pair_bound(1.0, 2.0, 0.0) == 0.0

    def test_rejects_unit_correlation(self):
        with pytest.raises(DomainError):
            berman_pair_bound(1.0, 1.0, 1.0)


class TestChernoff:
    def test_frozen_goldens(self):
        assert chernoff_dev(100.0, 30.0, "paper51") == pytest.approx(
            0.03995920190690435, rel=1e-14
        )
        assert chernoff_dev(100.0, 30.0, "paper53") == pytest.approx(
            0.033448045976940885, rel=1e-14
        )

    def test_closed_forms(self):
        mu, t = 40.0, 12.0
        assert chernoff_dev(mu, t, "paper51") == pytest.approx(
            2.0 * math.exp(-(t * t) / (2.0 * mu + t)), rel=1e-14
        )
        assert chernoff_dev(mu, t, "paper53") == pytest.approx(
            2.0 * math.exp(-(t * t) / (2.0 * (mu + t / 3.0))), rel=1e-14
        )

    def test_clamped_at_one(self):
        assert chernoff_dev(100.0, 0.0) == 1.0
        assert chernoff_dev(100.0, 1e-9) == 1.0

    @settings(deadline=None, max_examples=100)
    @given(st.floats(0.1, 1e6), st.floats(0.0, 1e6))
    def test_forms_are_valid_probability_bounds(self, mu, t):
        for form in ("paper51", "paper53"):
            # extreme deviations may underflow to an exact 0.0, which is
            # still a valid probability bound
            v = chernoff_dev(mu, t, form)
            assert 0.0 <= v <= 1.0

    def test_rejects_unknown_form(self):
        with pytest.raises(DomainError):
            chernoff_dev(10.0, 5.0, "other")  # type: ignore[arg-type]


class TestJanson:
    def test_lower_tail_closed_form(self):
        assert janson_lower_tail(93.75, 20.0) == pytest.approx(
            math.exp(-400.0 / 187.5), rel=1e-14
        )
        assert janson_lower_tail(93.75, 20.0) == pytest.approx(
            0.1184418290138037, rel=1e-14
        )

    def test_lower_tail_clamps(self):
        assert janson_lower_tail(10.0, 0.0) == 1.0

    def test_upper_weak_closed_form(self):
        delta, mu, t = 22, 15.0, 200.0
        want = (delta + 1) * math.exp(
            -(t * t) / (4.0 * (delta + 1) * (mu + t / 3.0))
        )
        assert janson_upper_weak(delta, mu, t) == pytest.approx(want, rel=1e-14)

    def test_upper_weak_clamps_small_t(self):
        assert janson_upper_weak(22, 15.0, 0.0) == 1.0
        assert janson_upper_weak(22, 15.0, 60.0) == 1.0


class TestCliqueOverlap:
    def test_frozen_goldens(self):
        o = clique_overlap(10, 4, 0.5)
        assert o.delta == 22
        assert o.deltabar_pairs == pytest.approx(78.75, abs=1e-12)
        assert o.mu == pytest.approx(15.0, abs=1e-12)
        assert o.deltabar_total == pytest.approx(93.75, abs=1e-12)

    def test_k3_pair_sum_degenerates(self):
        o = clique_overlap(9, 3, 0.4)
        assert o.delta == 1
        assert o.deltabar_pairs == 0.0
        assert o.deltabar_total == pytest.approx(o.mu, abs=1e-15)

    @pytest.mark.parametrize("j,k,p", [(6, 3, 0.5), (8, 4, 0.3), (10, 5, 0.7), (12, 5, 0.3)])
    def test_matches_enumeration(self, j, k, p):
        o = clique_overlap(j, k, p)
        delta, pairs, mu, total = oracles.clique_overlap_enum(j, k, p)
        assert o.delta == delta
        assert o.deltabar_pairs == pytest.approx(pairs, rel=1e-12)
        assert o.mu == pytest.approx(mu, rel=1e-12)
        assert o.deltabar_total == pytest.approx(total, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            clique_overlap(5, 2, 0.5)
        with pytest.raises(DomainError):
            clique_overlap(2, 4, 0.5)
