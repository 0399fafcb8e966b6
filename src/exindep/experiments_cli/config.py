"""Configuration and result records for batch experiments.

Three records travel through the harness:

* :class:`SystemGenSpec` — how to draw random finite event systems
  (dimension/atom ranges, event family, dependency-graph family) for
  inequality audits at scale;
* :class:`ExperimentConfig` — one Monte Carlo maxima experiment: the
  structure kind and parameters, trial count, master seed, and the
  reference CDF choice;
* :class:`EmpiricalResult` — the samples of the maximum statistic, their
  normalized values ``(max - a) / b``, the sup distance to the reference
  over :func:`default_grid`, the constants used, and the config that
  reproduces the run.

The experiment kinds — their parameters, constants, references and
per-trial statistics — are the keys of :data:`runner.KINDS
<exindep.experiments_cli.runner.KINDS>`.  The default reference is the
exact independent product of per-index binomial CDFs; the Gumbel law is
the secondary reference (finite-size convergence to it is slow, so
distribution gates use the product form).  A kind with no product
reference requires ``reference="gumbel"``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from ..errors import StructuralError
from ..gumbel_limits import NormConstants

__all__ = [
    "EVENT_FAMILIES",
    "DEP_FAMILIES",
    "DEFAULT_GRID_START",
    "DEFAULT_GRID_STOP",
    "DEFAULT_GRID_STEP",
    "default_grid",
    "SystemGenSpec",
    "ExperimentConfig",
    "EmpiricalResult",
]

# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

DEFAULT_GRID_START = -3.0
DEFAULT_GRID_STOP = 6.0
DEFAULT_GRID_STEP = 0.05


def default_grid() -> np.ndarray:
    """Evaluation grid ``[-3, 6]`` with step ``0.05`` (181 points)."""
    steps = round((DEFAULT_GRID_STOP - DEFAULT_GRID_START) / DEFAULT_GRID_STEP)
    grid = DEFAULT_GRID_START + DEFAULT_GRID_STEP * np.arange(steps + 1)
    grid.flags.writeable = False
    return grid


# ---------------------------------------------------------------------------
# System generation spec
# ---------------------------------------------------------------------------

#: Event-system families; "mixed" draws one of the concrete families per
#: system (corpus mode for audits).
EVENT_FAMILIES = (
    "uniform-random",
    "product-space",
    "xor-parity",
    "monotone-increasing",
    "clustered",
    "mixed",
)

#: Dependency-graph families; "mixed" draws one per system.  The
#: "clustered" event family always carries its own block graph.
DEP_FAMILIES = ("empty", "complete", "random", "distance-band", "mixed")


@dataclass(frozen=True)
class SystemGenSpec:
    """Recipe for drawing random event systems with dependency graphs.

    ``d_range`` and ``atom_range`` are inclusive ``(lo, hi)`` bounds on the
    number of events and atoms.  ``dep_edge_prob`` parameterizes the
    "random" graph family, ``band_width`` the "distance-band" family.
    """

    d_range: tuple[int, int] = (1, 8)
    atom_range: tuple[int, int] = (4, 256)
    event_family: str = "mixed"
    dep_family: str = "mixed"
    dep_edge_prob: float = 0.5
    band_width: int = 1

    def __post_init__(self) -> None:
        for name, (lo, hi) in (
            ("d_range", self.d_range),
            ("atom_range", self.atom_range),
        ):
            if not (1 <= lo <= hi):
                raise StructuralError(f"{name} = ({lo}, {hi}) must satisfy 1 ≤ lo ≤ hi")
        if self.event_family not in EVENT_FAMILIES:
            raise StructuralError(
                f"unknown event family {self.event_family!r}; "
                f"expected one of {EVENT_FAMILIES}"
            )
        if self.dep_family not in DEP_FAMILIES:
            raise StructuralError(
                f"unknown dependency-graph family {self.dep_family!r}; "
                f"expected one of {DEP_FAMILIES}"
            )
        if not (0.0 <= self.dep_edge_prob <= 1.0):
            raise StructuralError(
                f"dep_edge_prob = {self.dep_edge_prob!r} must lie in [0, 1]"
            )
        if self.band_width < 0:
            raise StructuralError(f"band_width = {self.band_width!r} must be ≥ 0")


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

ReferenceName = Literal["independent_product", "gumbel"]


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo maxima experiment, fully specified.

    ``k``/``s``/``h`` are required only by the kinds that use them
    (hypergraph order, codegree subset size, common-neighbour set size).
    """

    kind: str
    n: int
    p: float
    trials: int
    seed: int
    k: int | None = None
    s: int | None = None
    h: int | None = None
    reference: ReferenceName = "independent_product"

    def __post_init__(self) -> None:
        from .runner import KINDS  # runner imports this module

        spec = KINDS.get(self.kind)
        if spec is None:
            raise StructuralError(
                f"unknown experiment kind {self.kind!r}; "
                f"expected one of {tuple(KINDS)}"
            )
        if self.n < 1:
            raise StructuralError(f"n = {self.n!r} must be at least 1")
        if not (0.0 <= self.p <= 1.0):
            raise StructuralError(f"p = {self.p!r} must lie in [0, 1]")
        if self.trials < 1:
            raise StructuralError(f"trials = {self.trials!r} must be at least 1")
        if self.reference not in ("independent_product", "gumbel"):
            raise StructuralError(f"unknown reference {self.reference!r}")
        if not spec.valid(self):
            raise StructuralError(
                f"{self.kind} needs {spec.needs}, "
                f"got k = {self.k!r}, s = {self.s!r}, h = {self.h!r}"
            )
        if spec.binomial is None and self.reference != "gumbel":
            raise StructuralError(
                f"{self.kind} has no independent-product reference; "
                'use reference="gumbel"'
            )


# ---------------------------------------------------------------------------
# Result record
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EmpiricalResult:
    """Samples of a maximum statistic with their reference comparison.

    ``raw_max[t]`` is the statistic of trial ``t``; ``normalized`` is
    ``(raw_max - a) / b`` for the constants in ``constants``;
    ``ks_vs_reference`` is the sup-distance on :func:`default_grid` between the
    empirical CDF of ``normalized`` and the chosen reference CDF.
    ``aux_raw``/``aux_stats`` carry kind-specific companions (conditional
    expectation maxima for ``clique-ext``; the typicality rate for
    ``common-neighbours``).
    """

    config: ExperimentConfig
    raw_max: np.ndarray
    normalized: np.ndarray
    ks_vs_reference: float
    constants: NormConstants
    aux_raw: np.ndarray | None = None
    aux_stats: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        raw = np.asarray(self.raw_max, dtype=np.float64)
        norm = np.asarray(self.normalized, dtype=np.float64)
        if raw.shape != (self.config.trials,) or norm.shape != raw.shape:
            raise StructuralError(
                f"sample count {raw.shape} does not match trials = "
                f"{self.config.trials}"
            )
        if not (0.0 <= self.ks_vs_reference <= 1.0):
            raise StructuralError(
                f"ks = {self.ks_vs_reference!r} must lie in [0, 1]"
            )
        raw.flags.writeable = False
        norm.flags.writeable = False
        object.__setattr__(self, "raw_max", raw)
        object.__setattr__(self, "normalized", norm)
