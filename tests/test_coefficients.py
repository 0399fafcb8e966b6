"""Mixing/declustering coefficients and the inequality audit.

Core claims checked here:

* every coefficient matches the exhaustive-enumeration oracle to 1e-12 on
  random systems, and the hand-enumerated golden values exactly;
* the audit's coefficients equal, exactly, what the public coefficient
  functions return, and the audit validates its input once;
* structural invariants hold on every input: nonnegativity,
  phi = max(phi_plus, phi_minus), the delta <= delta' <= delta'' chains;
* the audited inequalities hold at 1e-9 on every random system: the main
  two-sided bound, the one-sided upper/lower bounds, and the
  total-variation coefficient dominating its union form;
* with phi_minus = 0 the lower bound coincides with its zero-mixing
  special case to 1e-12;
* the audit survives any reordering of the events (the coefficients may
  change, the inequalities may not).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from exindep import (
    CoefficientReport,
    DependencyGraph,
    StructuralError,
    arratia_phi_tilde,
    arratia_union_form,
    audit,
    declustering,
    mixing_phi,
    none_occur,
    reorder,
)
from helpers import (
    PAIR_ATOMS,
    PAIR_EVENTS,
    as_library,
    complete_dep,
    correlated_pair,
    empty_dep,
    make_system,
    system_inputs,
    xor_system,
)

TOL = 1e-12


class TestGoldenValues:
    def test_xor_gap_and_main_bound(self):
        rep = audit(xor_system(), empty_dep(3))
        assert rep.exact_gap == pytest.approx(0.125, abs=TOL)
        assert rep.coefficients.phi == pytest.approx(0.25, abs=TOL)
        assert rep.thm1_rhs == pytest.approx(0.21875, abs=TOL)
        assert rep.thm1_pass

    def test_xor_mixing_split(self):
        phi, plus, minus = mixing_phi(xor_system(), empty_dep(3))
        assert phi == pytest.approx(0.25, abs=TOL)
        assert plus == pytest.approx(0.25, abs=TOL)
        assert minus == 0.0

    def test_xor_declustering_complete(self):
        d1, d2, *_ = declustering(xor_system(), complete_dep(3))
        assert d1 == pytest.approx(0.625, abs=TOL)
        assert d2 == pytest.approx(0.5, abs=TOL)

    def test_identical_events_phi(self):
        system = make_system((0.3, 0.7), [{0}, {0}])
        phi, plus, minus = mixing_phi(system, empty_dep(2))
        assert phi == pytest.approx(0.7, abs=TOL)
        assert plus == pytest.approx(0.7, abs=TOL)
        assert minus == 0.0

    def test_phi_tilde_correlated_pair(self):
        got = arratia_phi_tilde(correlated_pair(), empty_dep(2))
        want = oracles.phi_tilde(PAIR_ATOMS, list(PAIR_EVENTS), [frozenset()] * 2)
        assert got == pytest.approx(want, abs=TOL)
        assert got == pytest.approx(0.4, abs=TOL)

    def test_phi_tilde_complete_dep_is_zero(self):
        assert arratia_phi_tilde(correlated_pair(), complete_dep(2)) == 0.0
        assert arratia_phi_tilde(xor_system(), complete_dep(3)) == 0.0

    def test_union_form_correlated_pair(self):
        got = arratia_union_form(correlated_pair(), empty_dep(2))
        assert got == pytest.approx(0.2, abs=TOL)

    def test_single_event_all_zero(self):
        system = make_system((0.3, 0.7), [{0}])
        rep = audit(system, empty_dep(1))
        assert rep.exact_gap == 0.0
        assert rep.thm1_rhs == 0.0
        assert rep.thm1_pass
        assert declustering(system, empty_dep(1)) == (0.0,) * 6

    def test_empty_dep_declustering_zero(self):
        assert declustering(xor_system(), empty_dep(3))[:2] == (0.0, 0.0)


class TestProductSpaceIndependence:
    def _independent_bits(self) -> tuple:
        # three independent bits with masses 0.3 / 0.6 / 0.5; atoms are the
        # eight bit patterns and event i is {bit i set}
        bit_probs = (0.3, 0.6, 0.5)
        atoms = []
        for mask in range(8):
            w = 1.0
            for t, bp in enumerate(bit_probs):
                w *= bp if (mask >> t) & 1 else 1.0 - bp
            atoms.append(w)
        events = [
            frozenset(mask for mask in range(8) if (mask >> t) & 1) for t in range(3)
        ]
        return tuple(atoms), events

    def test_phi_zero_for_any_dep(self):
        atoms, events = self._independent_bits()
        for dep in (empty_dep(3), complete_dep(3), DependencyGraph((frozenset({2}), frozenset(), frozenset({0})))):
            system = make_system(atoms, events)
            phi, plus, minus = mixing_phi(system, dep)
            assert phi == pytest.approx(0.0, abs=TOL)
            assert plus == pytest.approx(0.0, abs=TOL)
            assert minus == pytest.approx(0.0, abs=TOL)

    def test_gap_zero_all_bounds_pass(self):
        atoms, events = self._independent_bits()
        rep = audit(make_system(atoms, events), empty_dep(3))
        assert rep.exact_gap == pytest.approx(0.0, abs=TOL)
        assert rep.thm1_pass and rep.upper_pass and rep.lower_pass

    def test_phi_tilde_zero(self):
        atoms, events = self._independent_bits()
        got = arratia_phi_tilde(make_system(atoms, events), empty_dep(3))
        assert got == pytest.approx(0.0, abs=TOL)


class TestOracleAgreement:
    @settings(deadline=None, max_examples=120)
    @given(system_inputs())
    def test_mixing_matches_oracle(self, data):
        atoms, events, dep = data
        system, graph = as_library(atoms, events, dep)
        got = mixing_phi(system, graph)
        want = oracles.mixing(atoms, events, dep)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=TOL)

    @settings(deadline=None, max_examples=120)
    @given(system_inputs())
    def test_declustering_matches_oracle(self, data):
        atoms, events, dep = data
        system, graph = as_library(atoms, events, dep)
        got = declustering(system, graph)
        want = oracles.declustering(atoms, events, dep)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=TOL)

    @settings(deadline=None, max_examples=120)
    @given(system_inputs())
    def test_phi_tilde_and_union_form_match_oracle(self, data):
        atoms, events, dep = data
        system, graph = as_library(atoms, events, dep)
        assert arratia_phi_tilde(system, graph) == pytest.approx(
            oracles.phi_tilde(atoms, events, dep), abs=TOL
        )
        assert arratia_union_form(system, graph) == pytest.approx(
            oracles.union_form(atoms, events, dep), abs=TOL
        )

    @settings(deadline=None, max_examples=120)
    @given(system_inputs())
    def test_audit_rhs_match_oracle(self, data):
        atoms, events, dep = data
        system, graph = as_library(atoms, events, dep)
        rep = audit(system, graph)
        want = oracles.bound_rhs(atoms, events, dep)
        assert rep.thm1_rhs == pytest.approx(want["thm1"], abs=TOL)
        assert rep.upper_rhs == pytest.approx(want["upper"], abs=TOL)
        assert rep.lower_rhs == pytest.approx(want["lower"], abs=TOL)
        assert rep.dubickas_rhs == pytest.approx(want["dubickas"], abs=TOL)
        assert rep.arratia_rhs == pytest.approx(want["arratia"], abs=TOL)


class TestSinglePass:
    @settings(deadline=None, max_examples=120)
    @given(system_inputs())
    def test_audit_equals_public_functions(self, data):
        atoms, events, dep = data
        system, graph = as_library(atoms, events, dep)
        rep = audit(system, graph)
        want = CoefficientReport(
            *mixing_phi(system, graph),
            *declustering(system, graph),
            arratia_phi_tilde(system, graph),
        )
        assert rep.coefficients == want
        assert rep.arratia_union_lower == arratia_union_form(system, graph)

    def test_audit_validates_once(self, monkeypatch):
        calls = []
        original = DependencyGraph.validate_for

        def counting(self, system):
            calls.append(system)
            return original(self, system)

        monkeypatch.setattr(DependencyGraph, "validate_for", counting)
        audit(xor_system(), empty_dep(3))
        assert len(calls) == 1


class TestInvariants:
    @settings(deadline=None, max_examples=150)
    @given(system_inputs())
    def test_report_invariants(self, data):
        atoms, events, dep = data
        system, graph = as_library(atoms, events, dep)
        rep = audit(system, graph).coefficients
        values = [getattr(rep, f) for f in (
            "phi", "phi_plus", "phi_minus", "delta1", "delta2",
            "delta1_prime", "delta2_prime", "delta1_dprime", "delta2_dprime",
            "phi_tilde",
        )]
        assert all(v >= 0.0 for v in values)
        assert rep.phi == max(rep.phi_plus, rep.phi_minus)
        assert rep.delta1 <= rep.delta1_prime + TOL
        assert rep.delta1_prime <= rep.delta1_dprime + TOL
        assert rep.delta2 <= rep.delta2_prime + TOL
        assert rep.delta2_prime <= rep.delta2_dprime + TOL

    @settings(deadline=None, max_examples=150)
    @given(system_inputs())
    def test_bounds_hold(self, data):
        atoms, events, dep = data
        system, graph = as_library(atoms, events, dep)
        rep = audit(system, graph)
        assert rep.exact_gap <= rep.thm1_rhs + 1e-9
        assert rep.none_occur <= rep.upper_rhs + 1e-9
        assert rep.none_occur >= rep.lower_rhs - 1e-9
        assert rep.thm1_pass and rep.upper_pass and rep.lower_pass

    @settings(deadline=None, max_examples=150)
    @given(system_inputs())
    def test_phi_tilde_dominates_union_form(self, data):
        atoms, events, dep = data
        system, graph = as_library(atoms, events, dep)
        assert arratia_phi_tilde(system, graph) >= arratia_union_form(
            system, graph
        ) - TOL

    @settings(deadline=None, max_examples=100)
    @given(system_inputs())
    def test_zero_phi_minus_matches_special_case(self, data):
        atoms, events, dep = data
        system, graph = as_library(atoms, events, dep)
        rep = audit(system, graph)
        if rep.coefficients.phi_minus <= 1e-12:
            assert rep.dubickas_applicable
            assert abs(rep.lower_rhs - rep.dubickas_rhs) <= 1e-12
            assert rep.none_occur >= rep.dubickas_rhs - 1e-9
        else:
            assert not rep.dubickas_applicable

    def test_report_validates_phi_max(self):
        with pytest.raises(StructuralError):
            CoefficientReport(
                phi=0.5, phi_plus=0.1, phi_minus=0.2,
                delta1=0.0, delta2=0.0, delta1_prime=0.0, delta2_prime=0.0,
                delta1_dprime=0.0, delta2_dprime=0.0, phi_tilde=0.0,
            )

    def test_report_validates_nonnegative(self):
        with pytest.raises(StructuralError):
            CoefficientReport(
                phi=0.1, phi_plus=0.1, phi_minus=0.0,
                delta1=-0.5, delta2=0.0, delta1_prime=0.0, delta2_prime=0.0,
                delta1_dprime=0.0, delta2_dprime=0.0, phi_tilde=0.0,
            )

    def test_report_validates_chain(self):
        with pytest.raises(StructuralError):
            CoefficientReport(
                phi=0.1, phi_plus=0.1, phi_minus=0.0,
                delta1=0.5, delta2=0.0, delta1_prime=0.1, delta2_prime=0.0,
                delta1_dprime=0.0, delta2_dprime=0.0, phi_tilde=0.0,
            )


class TestHarrisOrdering:
    def _increasing_system(self, bit_probs, thresholds):
        # independent bits; event j = {popcount >= thresholds[j]} is an
        # increasing set, so pair probabilities dominate products
        c = len(bit_probs)
        atoms = []
        for mask in range(1 << c):
            w = 1.0
            for t, bp in enumerate(bit_probs):
                w *= bp if (mask >> t) & 1 else 1.0 - bp
            atoms.append(w)
        events = [
            frozenset(m for m in range(1 << c) if bin(m).count("1") >= th)
            for th in thresholds
        ]
        return make_system(tuple(atoms), events)

    @pytest.mark.parametrize(
        "bit_probs,thresholds",
        [
            ((0.5, 0.5, 0.5), (1, 2, 3)),
            ((0.3, 0.7, 0.4), (2, 1, 2)),
            ((0.2, 0.8, 0.6, 0.4), (1, 3, 2, 4)),
        ],
    )
    def test_delta2_prime_below_delta1_prime(self, bit_probs, thresholds):
        system = self._increasing_system(bit_probs, thresholds)
        d = len(thresholds)
        for dep in (complete_dep(d), DependencyGraph.distance_band(d, 1)):
            _, _, d1p, d2p, _, _ = declustering(system, dep)
            assert d2p <= d1p + TOL


class TestReorder:
    def test_identity_order_is_noop(self):
        system = xor_system()
        dep = DependencyGraph((frozenset({1}), frozenset({0}), frozenset()))
        re_sys, re_dep = reorder(system, dep, (0, 1, 2))
        assert np.array_equal(re_sys.indicator_matrix, system.indicator_matrix)
        assert re_dep.neighbor_sets == dep.neighbor_sets

    def test_rejects_non_permutation(self):
        system = xor_system()
        with pytest.raises(StructuralError):
            reorder(system, empty_dep(3), (0, 0, 2))

    def test_permutation_remaps_dep(self):
        system = xor_system()
        dep = DependencyGraph((frozenset({1}), frozenset({0}), frozenset()))
        re_sys, re_dep = reorder(system, dep, (2, 0, 1))
        # new position 0 holds old event 2, whose neighbours were empty
        assert np.array_equal(re_sys.indicator_matrix[0], system.indicator_matrix[2])
        assert re_dep.neighbor_sets[0] == frozenset()
        # old events 0 and 1 sit at new positions 1 and 2 and still point
        # at each other
        assert re_dep.neighbor_sets[1] == frozenset({2})
        assert re_dep.neighbor_sets[2] == frozenset({1})

    @settings(deadline=None, max_examples=80)
    @given(system_inputs(max_events=4))
    def test_bounds_hold_after_any_rotation(self, data):
        atoms, events, dep = data
        system, graph = as_library(atoms, events, dep)
        d = system.d
        order = tuple((i + 1) % d for i in range(d))
        re_sys, re_dep = reorder(system, graph, order)
        rep = audit(re_sys, re_dep)
        assert rep.thm1_pass and rep.upper_pass and rep.lower_pass
        # the exact probability of total non-occurrence is order-free
        assert none_occur(re_sys) == pytest.approx(none_occur(system), abs=TOL)


class TestNumericalHygiene:
    def test_tiny_masses_stay_finite(self):
        atoms = (1e-12, 0.5 - 1e-12, 0.25, 0.25)
        system = make_system(atoms, [{0, 1}, {2}, {0, 3}])
        rep = audit(system, complete_dep(3))
        for name in ("thm1_rhs", "upper_rhs", "lower_rhs", "arratia_rhs"):
            assert math.isfinite(getattr(rep, name))
        assert rep.thm1_pass
