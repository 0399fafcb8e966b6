"""Experiment layer: random system generation, audit sweeps, Monte Carlo
maxima, KS harness, and report emission.

Core claims checked here:

* generation is seed-deterministic across every event/dependency family,
  each family delivers its structural promise (parity reproduces the
  canonical three-event system; product spaces have vanishing mixing;
  block-clustered systems have vanishing one-sided mixing so the
  zero-mixing lower bound applies);
* an audit sweep over a mixed corpus passes every inequality and counts
  families faithfully;
* the KS harness agrees with hand-computed and brute-force values, for
  callable and array references and for the two-sample variant;
* the kind table is the one list of experiment kinds (the CLI offers
  exactly its keys), and every kind reproduces recorded tiny-run values
  while reaching its layers through the runner module's globals;
* Monte Carlo runs are reproducible (same seed, byte-equal samples), the
  Gaussian exceedance rate is batching-invariant (and rejects a
  nonpositive block), and emitted reports are byte-stable with
  self-consistent CSV/JSON contents.
"""

from __future__ import annotations

import argparse
import csv
import json
import math

import numpy as np
import pytest

import oracles
from exindep import (
    DomainError,
    StructuralError,
    arratia_phi_tilde,
    audit,
    mixing_phi,
    stationary_system,
)
from exindep._rng import child_seed
from exindep.experiments_cli import (
    AUDIT_HEADER,
    DEP_FAMILIES,
    EVENT_FAMILIES,
    EXPERIMENT_KINDS,
    TRIALS_HEADER,
    ExperimentConfig,
    SystemGenSpec,
    bound_audit_run,
    default_grid,
    emit_report,
    gaussian_max_rate,
    generate_system,
    ks_distance,
    run_max_experiment,
    two_sample_ks,
)
from exindep.experiments_cli import runner
from exindep.experiments_cli.cli import build_parser
from exindep.experiments_cli.runner import KINDS
from helpers import XOR_ATOMS, XOR_EVENTS

# desk-scale configs sit far outside the asymptotic regimes on purpose;
# the regime warnings they trigger are covered by the constants tests
pytestmark = pytest.mark.filterwarnings("ignore::exindep.errors.RegimeWarning")


class TestDefaultGrid:
    def test_shape_and_endpoints(self):
        grid = default_grid()
        assert grid.shape == (181,)
        assert grid[0] == pytest.approx(-3.0, abs=1e-12)
        assert grid[-1] == pytest.approx(6.0, abs=1e-12)
        steps = np.diff(grid)
        assert steps == pytest.approx([0.05] * 180, abs=1e-12)

    def test_read_only(self):
        assert not default_grid().flags.writeable


class TestSystemGeneration:
    def test_deterministic(self):
        spec = SystemGenSpec()
        a = generate_system(spec, 42)
        b = generate_system(spec, 42)
        assert a.system.space.atom_probs == b.system.space.atom_probs
        assert np.array_equal(a.system.indicator_matrix, b.system.indicator_matrix)
        assert a.dep.neighbor_sets == b.dep.neighbor_sets
        assert a.event_family == b.event_family

    def test_family_labels_within_catalog(self):
        spec = SystemGenSpec()
        seen = set()
        for seed in range(60):
            g = generate_system(spec, seed)
            seen.add(g.event_family)
            assert g.dep_family in DEP_FAMILIES + ("block",)
        # the mixed pool should exercise several families in 60 draws
        assert len(seen) >= 4
        assert seen <= set(EVENT_FAMILIES) - {"mixed"}

    def test_xor_parity_three_events_is_canonical(self):
        spec = SystemGenSpec(
            d_range=(3, 3), atom_range=(4, 4), event_family="xor-parity"
        )
        g = generate_system(spec, 0)
        assert g.system.space.atom_probs == XOR_ATOMS
        rows = tuple(
            frozenset(np.flatnonzero(row).tolist()) for row in g.system.indicator_matrix
        )
        assert rows == XOR_EVENTS

    def test_product_space_mixing_vanishes(self):
        spec = SystemGenSpec(event_family="product-space")
        for seed in range(25):
            g = generate_system(spec, seed)
            phi, _, _ = mixing_phi(g.system, g.dep)
            assert phi <= 1e-12, f"seed={seed}"

    def test_clustered_admits_zero_mixing_lower_bound(self):
        spec = SystemGenSpec(event_family="clustered")
        for seed in range(25):
            g = generate_system(spec, seed)
            rep = audit(g.system, g.dep)
            assert g.dep_family == "block"
            assert rep.coefficients.phi_minus <= 1e-12, f"seed={seed}"
            assert rep.dubickas_applicable
            assert rep.none_occur >= rep.dubickas_rhs - 1e-9

    def test_monotone_family_is_increasing(self):
        spec = SystemGenSpec(event_family="monotone-increasing")
        system = generate_system(spec, 3).system
        # increasing events on a product space are positively correlated
        ind = system.indicator_matrix
        w = system.space.weights
        probs = system.event_probs
        for i in range(system.d):
            for j in range(i):
                joint = float(w[ind[i] & ind[j]].sum())
                assert joint >= probs[i] * probs[j] - 1e-12

    def test_complete_dep_family_zeroes_phi_tilde(self):
        spec = SystemGenSpec(dep_family="complete")
        g = generate_system(spec, 11)
        system, dep = g.system, g.dep
        assert all(
            dep.neighbor_sets[i] == frozenset(range(system.d)) - {i}
            for i in range(system.d)
        )
        assert arratia_phi_tilde(system, dep) == 0.0

    def test_spec_validation(self):
        with pytest.raises(StructuralError):
            SystemGenSpec(d_range=(0, 4))
        with pytest.raises(StructuralError):
            SystemGenSpec(atom_range=(2, 1))
        with pytest.raises(StructuralError):
            SystemGenSpec(event_family="nope")
        with pytest.raises(StructuralError):
            SystemGenSpec(dep_edge_prob=1.5)


class TestBoundAuditRun:
    def test_mixed_corpus_all_pass(self):
        summary = bound_audit_run(SystemGenSpec(), count=150, seed=2024)
        assert summary.count == 150
        assert len(summary.rows) == 150
        assert summary.all_pass
        assert summary.violations == ()
        assert sum(summary.family_counts.values()) == 150
        assert all(1 <= row.d <= 8 and row.atoms <= 256 for row in summary.rows)

    def test_deterministic(self):
        a = bound_audit_run(SystemGenSpec(), count=40, seed=5)
        b = bound_audit_run(SystemGenSpec(), count=40, seed=5)
        assert a.worst_residuals == b.worst_residuals
        assert [r.all_pass for r in a.rows] == [r.all_pass for r in b.rows]

    def test_worst_residuals_are_slack(self):
        summary = bound_audit_run(SystemGenSpec(), count=60, seed=9)
        # every tracked residual stays at or below the audit tolerance
        for name, value in summary.worst_residuals.items():
            assert value <= 1e-9, name


class TestKsHarness:
    def test_hand_case_array_reference(self):
        samples = np.array([0.0, 1.0, 2.0])
        grid = np.array([-1.0, 0.5, 1.5, 3.0])
        ref = np.array([0.0, 0.5, 0.5, 1.0])
        assert ks_distance(samples, ref, grid) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        samples = rng.normal(size=250)
        grid = np.linspace(-3, 3, 61)
        ref = [oracles.normal_cdf(x) for x in grid]
        got = ks_distance(samples, np.array(ref), grid)
        want = oracles.ks_on_grid(samples.tolist(), ref, grid.tolist())
        assert got == pytest.approx(want, abs=1e-15)

    def test_two_sample_hand_case(self):
        assert two_sample_ks(np.array([0.0, 2.0]), np.array([1.0, 3.0])) == 0.5
        assert two_sample_ks(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_two_sample_symmetric(self):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=100), rng.normal(1.0, size=80)
        assert two_sample_ks(a, b) == two_sample_ks(b, a)


def _tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        kind="graph-maxdeg",
        n=40,
        p=0.4,
        trials=25,
        seed=314,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunMaxExperiment:
    def test_graph_maxdeg_smoke(self):
        res = run_max_experiment(_tiny_config())
        assert res.raw_max.shape == (25,)
        assert res.normalized.shape == (25,)
        assert 0.0 <= res.ks_vs_reference <= 1.0
        # normalization is (raw - a) / b with the binomial constants
        c = res.constants
        again = (res.raw_max - c.a) / c.b
        assert res.normalized == pytest.approx(again, rel=1e-12)

    def test_deterministic_same_seed(self):
        a = run_max_experiment(_tiny_config())
        b = run_max_experiment(_tiny_config())
        assert np.array_equal(a.raw_max, b.raw_max)
        assert a.ks_vs_reference == b.ks_vs_reference
        c = run_max_experiment(_tiny_config(seed=315))
        assert not np.array_equal(a.raw_max, c.raw_max)

    def test_hypergraph_kinds_run(self):
        res = run_max_experiment(
            _tiny_config(kind="hypergraph-maxdeg", n=25, k=3, trials=10)
        )
        assert res.raw_max.shape == (10,)
        res2 = run_max_experiment(
            _tiny_config(kind="hypergraph-codegree", n=18, k=3, s=2, trials=8)
        )
        assert res2.raw_max.shape == (8,)

    def test_clique_ext_carries_coupled_surrogate(self):
        res = run_max_experiment(
            _tiny_config(kind="clique-ext", n=30, p=0.5, k=3, trials=12, reference="gumbel")
        )
        assert res.aux_raw is not None and res.aux_raw.shape == (12,)
        assert "cond_vs_count_ks" in res.aux_stats
        assert 0.0 <= res.aux_stats["cond_vs_count_ks"] <= 1.0

    def test_common_neighbours_tracks_truncation(self):
        res = run_max_experiment(
            _tiny_config(kind="common-neighbours", n=30, p=0.3, h=2, trials=12)
        )
        assert res.aux_raw is not None
        assert set(np.unique(res.aux_raw)) <= {0.0, 1.0}
        assert 0.0 <= res.aux_stats["truncation_rate"] <= 1.0

    def test_config_validation(self):
        with pytest.raises(StructuralError):
            _tiny_config(kind="clique-ext", k=3)  # needs the gumbel reference
        with pytest.raises(StructuralError):
            _tiny_config(kind="hypergraph-maxdeg")  # missing k
        with pytest.raises(StructuralError):
            _tiny_config(p=1.5)
        with pytest.raises(StructuralError):
            _tiny_config(reference="other")


# Tiny runs of every kind with their recorded values: integer maxima and aux
# values that are exact dyadic rationals or 0/1 flags, so no platform's
# floating point can move them.
KIND_CASES = {
    "graph-maxdeg": (
        dict(n=12, p=0.4, trials=6, seed=11),
        [6.0, 6.0, 5.0, 7.0, 9.0, 6.0],
        None,
        {},
    ),
    "hypergraph-maxdeg": (
        dict(n=9, k=3, p=0.3, trials=5, seed=12),
        [10.0, 15.0, 11.0, 12.0, 10.0],
        None,
        {},
    ),
    "hypergraph-codegree": (
        dict(n=8, k=3, s=2, p=0.5, trials=5, seed=13),
        [5.0, 4.0, 6.0, 5.0, 6.0],
        None,
        {},
    ),
    "clique-ext": (
        dict(n=14, k=3, p=0.5, trials=5, seed=14, reference="gumbel"),
        [13.0, 16.0, 12.0, 20.0, 15.0],
        [14.0, 18.0, 14.0, 18.0, 14.0],
        {"cond_vs_count_ks": 0.4},
    ),
    "common-neighbours": (
        dict(n=12, h=2, p=0.3, trials=6, seed=15),
        [2.0, 3.0, 3.0, 2.0, 2.0, 4.0],
        [1.0, 1.0, 1.0, 1.0, 1.0, 0.0],
        {"truncation_rate": 5 / 6},
    ),
}


class TestKindTable:
    def test_one_set_of_kinds(self):
        parser = build_parser()
        commands = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        simulate = commands.choices["simulate"]
        kind_arg = next(a for a in simulate._actions if a.dest == "kind")
        assert set(kind_arg.choices) == set(EXPERIMENT_KINDS) == set(KINDS)
        assert set(KIND_CASES) == set(KINDS)

    @pytest.mark.parametrize("kind", sorted(KIND_CASES))
    def test_tiny_run_matches_recorded(self, kind, monkeypatch):
        params, raw_max, aux_raw, aux_stats = KIND_CASES[kind]
        seeds = []

        def counting_child_seed(master, index):
            seeds.append(index)
            return child_seed(master, index)

        # the per-trial statistics must look the layers up in runner's
        # globals at call time, where the benchmark's tracer swaps them
        monkeypatch.setattr(runner, "child_seed", counting_child_seed)
        res = run_max_experiment(ExperimentConfig(kind=kind, **params))
        assert seeds == list(range(params["trials"]))
        assert res.raw_max.tolist() == raw_max
        assert (None if res.aux_raw is None else res.aux_raw.tolist()) == aux_raw
        assert res.aux_stats == aux_stats

    @pytest.mark.parametrize("kind", sorted(KIND_CASES))
    def test_kind_rule_rejects_missing_parameters(self, kind):
        params = dict(KIND_CASES[kind][0], k=None, s=None, h=None)
        if kind == "graph-maxdeg":
            ExperimentConfig(kind=kind, **params)  # needs nothing beyond n, p
        else:
            with pytest.raises(StructuralError):
                ExperimentConfig(kind=kind, **params)


class TestGaussianMaxRate:
    def test_block_invariance(self):
        sys = stationary_system(20, "ar1", rho=0.3)
        level = math.sqrt(2 * math.log(20))
        r1 = gaussian_max_rate(sys, level, 300, 77, block=7)
        r2 = gaussian_max_rate(sys, level, 300, 77, block=128)
        assert r1 == r2
        assert 0.0 <= r1 <= 1.0

    @pytest.mark.parametrize("block", [0, -5])
    def test_rejects_nonpositive_block(self, block):
        sys = stationary_system(5, "ar1", rho=0.3)
        with pytest.raises(DomainError):
            gaussian_max_rate(sys, 1.0, 10, 1, block=block)

    def test_iid_case_matches_product_law(self):
        sys = stationary_system(10, "ar1", rho=0.0)
        level = 2.0
        rate = gaussian_max_rate(sys, level, 8000, 123)
        want = oracles.normal_cdf(level) ** 10
        assert rate == pytest.approx(want, abs=0.02)


class TestEmitReport:
    def test_empirical_schema_and_byte_stability(self, tmp_path):
        res = run_max_experiment(_tiny_config(trials=10))
        csv_a, json_a = emit_report(res, tmp_path / "a")
        csv_b, json_b = emit_report(res, tmp_path / "b")
        assert csv_a.read_bytes() == csv_b.read_bytes()
        assert json_a.read_bytes() == json_b.read_bytes()

        with open(csv_a, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == TRIALS_HEADER
        assert len(rows) == 11
        doc = json.loads(json_a.read_text())
        assert doc["kind"] == "graph-maxdeg"
        assert doc["trials"] == 10
        assert doc["ks_vs_reference"] == res.ks_vs_reference
        assert doc["constants"]["family"] == "binomial"
        assert doc["grid"]["points"] == 181

    def test_csv_roundtrips_ks(self, tmp_path):
        res = run_max_experiment(_tiny_config(trials=30))
        csv_path, _ = emit_report(res, tmp_path / "r")
        with open(csv_path, newline="") as fh:
            reader = csv.DictReader(fh)
            normalized = [float(row["normalized"]) for row in reader]
        grid = default_grid()
        c = res.constants
        ref = [
            oracles.binom_cdf_logsum(c.N, c.p, math.floor(c.a + c.b * x)) ** c.d
            for x in grid
        ]
        want = oracles.ks_on_grid(normalized, ref, grid.tolist())
        assert res.ks_vs_reference == pytest.approx(want, abs=1e-12)

    def test_audit_schema(self, tmp_path):
        summary = bound_audit_run(SystemGenSpec(), count=12, seed=3)
        csv_path, json_path = emit_report(summary, tmp_path / "audit")
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == AUDIT_HEADER
        assert len(rows) == 13
        assert all(r[-1] in ("true", "false") for r in rows[1:])
        doc = json.loads(json_path.read_text())
        assert doc["count"] == 12
        assert doc["all_pass"] is True
        assert "worst_residuals" in doc and "family_counts" in doc

    def test_result_arrays_read_only(self):
        res = run_max_experiment(_tiny_config(trials=5))
        assert not res.raw_max.flags.writeable
        assert not res.normalized.flags.writeable
