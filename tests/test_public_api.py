"""The exported names: every one resolves, pruned ones stay gone, and no
module imports a name it never uses."""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import exindep
from exindep import experiments_cli

PACKAGES = (exindep, experiments_cli)

ROOT = Path(__file__).resolve().parents[1]

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


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports but never reads; ``__all__`` entries count as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted(imported - used)


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert files
    unused = {
        str(path.relative_to(ROOT)): names
        for path in files
        if (names := _unused_imports(path))
    }
    assert unused == {}
