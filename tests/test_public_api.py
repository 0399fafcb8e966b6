"""The exported names: every one resolves, and pruned ones stay gone."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

import exindep
from exindep import experiments_cli

PACKAGES = (exindep, experiments_cli)

# symbols, fields and keywords with no caller outside their own tests
PRUNED_EXPORTS = ("GumbelRef", "common_neighbour_reference_cdf", "coefficient_report")
PRUNED_FIELDS = (
    (experiments_cli.ExperimentConfig, "grid"),
    (experiments_cli.EmpiricalResult, "seed"),
    (exindep.ProbSpace, "atom_cap"),
)
PRUNED_KEYWORDS = (
    (exindep.clique_counts, "cap"),
    (exindep.common_neighbours, "cap"),
    (exindep.berman_pair_bound, "loose_variance_factor"),
)


@pytest.mark.parametrize("package", PACKAGES, ids=lambda m: m.__name__)
def test_every_export_resolves(package):
    assert len(set(package.__all__)) == len(package.__all__)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []


def test_pruned_names_stay_gone():
    for package in PACKAGES:
        for name in PRUNED_EXPORTS:
            assert name not in package.__all__
            assert not hasattr(package, name)
    for cls, name in PRUNED_FIELDS:
        assert name not in {f.name for f in dataclasses.fields(cls)}
    for fn, name in PRUNED_KEYWORDS:
        assert name not in inspect.signature(fn).parameters
    for name in ("labels", "subset_size", "max"):
        assert not hasattr(exindep.StatVector, name)
