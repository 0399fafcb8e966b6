"""Batch inequality audits and Monte Carlo maxima experiments.

Two workloads share this module:

* :func:`bound_audit_run` draws ``count`` random event systems and runs the
  full inequality audit on each, collecting per-system rows, any
  violations (expected none), and the worst signed residual of every
  inequality — the closer to 0 from below, the tighter the bound;
* :func:`run_max_experiment` samples random structures, takes the
  designated maximum statistic per trial, normalizes it with the matching
  constants, and measures the distance to the chosen reference CDF, taken
  as a sup over :func:`~exindep.experiments_cli.config.default_grid`.

Both are deterministic functions of their seeds: every trial/system gets an
independent counter-based stream keyed by ``(master seed, index)``, so
results are identical however work is batched.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .._rng import child_seed
from ..coefficients import AUDIT_TOL, BoundAudit, audit
from ..errors import DomainError, StructuralError
from ..gaussian_evt import GaussianSystem, sample
from ..gumbel_limits import (
    NormConstants,
    clique_constants,
    common_neighbour_constants,
    gumbel_cdf,
    norm_constants,
    product_max_cdf,
)
from ..random_structures import (
    Graph,
    Hypergraph,
    clique_cond_expectation,
    clique_counts,
    codegrees,
    common_neighbours,
    gen_graph,
    gen_hypergraph,
    hyper_degrees,
    truncation_event,
)
from .config import EmpiricalResult, ExperimentConfig, SystemGenSpec, default_grid
from .generators import generate_system

__all__ = [
    "EXPERIMENT_KINDS",
    "KINDS",
    "KindSpec",
    "AuditRow",
    "AuditRunSummary",
    "bound_audit_run",
    "run_max_experiment",
    "ks_distance",
    "two_sample_ks",
    "gaussian_max_rate",
]


# ---------------------------------------------------------------------------
# Inequality audits at scale
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditRow:
    """One audited system: identity, size, families, and the full audit."""

    system_id: int
    d: int
    atoms: int
    event_family: str
    dep_family: str
    audit: BoundAudit
    all_pass: bool


@dataclass(frozen=True)
class AuditRunSummary:
    """Aggregate of one audit run.

    ``violations`` lists human-readable descriptions of failed checks
    (expected empty).  ``worst_residuals`` maps each inequality to its
    worst signed residual over the corpus, oriented so that positive means
    violation: e.g. ``exact_gap - thm1_rhs`` for the two-sided bound.
    ``arratia_union`` tracks ``union_form - phi_tilde`` (the domination
    check) and ``chain`` the largest ordering defect of the declustering
    chains.
    """

    spec: SystemGenSpec
    count: int
    seed: int
    rows: tuple[AuditRow, ...]
    violations: tuple[str, ...]
    worst_residuals: dict[str, float]
    family_counts: dict[str, int] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return not self.violations


def bound_audit_run(spec: SystemGenSpec, count: int, seed: int) -> AuditRunSummary:
    """Audit ``count`` randomly generated systems drawn per ``spec``.

    Checks per system: the two-sided bound, both one-sided bounds, the
    zero-negative-mixing special case where applicable, the declustering
    chain orderings, and domination of the union form by ``phi_tilde``.
    """
    if count < 1:
        raise DomainError(f"count = {count!r} must be at least 1")
    rows: list[AuditRow] = []
    violations: list[str] = []
    worst = {
        "thm1": -math.inf,
        "upper": -math.inf,
        "lower": -math.inf,
        "dubickas": -math.inf,
        "chain": -math.inf,
        "arratia_union": -math.inf,
    }
    family_counts: dict[str, int] = {}

    for sys_id in range(count):
        drawn = generate_system(spec, child_seed(seed, sys_id))
        system, dep = drawn.system, drawn.dep
        result = audit(system, dep)
        coeffs = result.coefficients

        residuals = {
            "thm1": result.exact_gap - result.thm1_rhs,
            "upper": result.none_occur - result.upper_rhs,
            "lower": result.lower_rhs - result.none_occur,
            "chain": max(
                coeffs.delta1 - coeffs.delta1_prime,
                coeffs.delta1_prime - coeffs.delta1_dprime,
                coeffs.delta2 - coeffs.delta2_prime,
                coeffs.delta2_prime - coeffs.delta2_dprime,
            ),
            "arratia_union": result.arratia_union_lower - coeffs.phi_tilde,
        }
        if result.dubickas_applicable:
            residuals["dubickas"] = result.dubickas_rhs - result.none_occur
        ok = True
        for name, residual in residuals.items():
            worst[name] = max(worst[name], residual)
            if residual > AUDIT_TOL:
                ok = False
                violations.append(
                    f"system {sys_id} ({drawn.event_family}/{drawn.dep_family}): "
                    f"{name} residual {residual:.3e}"
                )
        label = f"{drawn.event_family}/{drawn.dep_family}"
        family_counts[label] = family_counts.get(label, 0) + 1
        rows.append(
            AuditRow(
                system_id=sys_id,
                d=system.d,
                atoms=system.space.n_atoms,
                event_family=drawn.event_family,
                dep_family=drawn.dep_family,
                audit=result,
                all_pass=ok,
            )
        )

    return AuditRunSummary(
        spec=spec,
        count=count,
        seed=seed,
        rows=tuple(rows),
        violations=tuple(violations),
        worst_residuals={k: v for k, v in worst.items() if v > -math.inf},
        family_counts=family_counts,
    )


# ---------------------------------------------------------------------------
# KS distances
# ---------------------------------------------------------------------------

def ks_distance(samples, reference, grid) -> float:
    """Sup over grid points of |empirical CDF - reference CDF|.

    ``reference`` is an array of CDF values aligned with ``grid``.
    """
    values = np.asarray(samples, dtype=np.float64).ravel()
    if values.size == 0:
        raise DomainError("ks_distance needs at least one sample")
    grid_arr = np.asarray(grid, dtype=np.float64).ravel()
    ref = np.asarray(reference, dtype=np.float64).ravel()
    if ref.shape != grid_arr.shape:
        raise StructuralError(
            f"reference has {ref.size} values for {grid_arr.size} grid points"
        )
    ecdf = np.searchsorted(np.sort(values), grid_arr, side="right") / values.size
    return float(np.abs(ecdf - ref).max())


def two_sample_ks(first, second) -> float:
    """Classical two-sample sup distance between empirical CDFs."""
    a = np.sort(np.asarray(first, dtype=np.float64).ravel())
    b = np.sort(np.asarray(second, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise DomainError("two_sample_ks needs nonempty samples on both sides")
    pooled = np.concatenate([a, b])
    pooled.sort(kind="mergesort")
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


# ---------------------------------------------------------------------------
# Maxima experiments
# ---------------------------------------------------------------------------

# The draws and statistics below reach the structure layers through this
# module's globals at call time, so tracing that swaps those globals sees
# every call.

def _graph(cfg: ExperimentConfig, seed: int) -> Graph:
    return gen_graph(cfg.n, cfg.p, seed)


def _hypergraph(cfg: ExperimentConfig, seed: int) -> Hypergraph:
    return gen_hypergraph(cfg.n, cfg.k, cfg.p, seed)


def _binomial_constants(cfg: ExperimentConfig) -> NormConstants:
    return norm_constants(*KINDS[cfg.kind].binomial(cfg))


@dataclass(frozen=True)
class KindSpec:
    """Everything one experiment kind needs.

    ``constants`` gives the normalizing constants; ``binomial`` gives the
    ``(d, N, p)`` of the independent product of ``d`` Binomial(N, p)
    maxima, or is ``None`` when the kind has no product reference and must
    use the Gumbel law; ``draw(cfg, seed)`` samples one trial's structure
    and ``statistic(cfg, structure)`` returns its ``(maximum, aux)``;
    ``valid(cfg)`` tells whether the config carries the parameters the kind
    ``needs``; ``summarize`` maps the maxima and aux values to
    ``aux_stats``, or is ``None`` when the kind records no aux values.
    """

    constants: Callable[[ExperimentConfig], NormConstants]
    binomial: Callable[[ExperimentConfig], tuple[int, int, float]] | None
    draw: Callable[[ExperimentConfig, int], Graph | Hypergraph]
    statistic: Callable[
        [ExperimentConfig, Graph | Hypergraph], tuple[float, float | None]
    ]
    needs: str = "nothing beyond n and p"
    valid: Callable[[ExperimentConfig], bool] = lambda cfg: True
    summarize: Callable[[np.ndarray, np.ndarray], dict[str, float]] | None = None


#: The experiment kinds, in the order the CLI lists them.
KINDS: dict[str, KindSpec] = {
    # maximum vertex degree of a binomial graph
    "graph-maxdeg": KindSpec(
        constants=_binomial_constants,
        binomial=lambda cfg: (cfg.n, cfg.n - 1, cfg.p),
        draw=_graph,
        statistic=lambda cfg, g: (g.degrees.max() if cfg.n > 1 else 0.0, None),
    ),
    # maximum vertex degree of a binomial k-uniform hypergraph
    "hypergraph-maxdeg": KindSpec(
        constants=_binomial_constants,
        binomial=lambda cfg: (cfg.n, math.comb(cfg.n - 1, cfg.k - 1), cfg.p),
        draw=_hypergraph,
        statistic=lambda cfg, hg: (hyper_degrees(hg).values.max(), None),
        needs="2 ≤ k ≤ n",
        valid=lambda cfg: cfg.k is not None and 2 <= cfg.k <= cfg.n,
    ),
    # maximum codegree over s-subsets of a binomial k-uniform hypergraph
    "hypergraph-codegree": KindSpec(
        constants=_binomial_constants,
        binomial=lambda cfg: (
            math.comb(cfg.n, cfg.s), math.comb(cfg.n - cfg.s, cfg.k - cfg.s), cfg.p
        ),
        draw=_hypergraph,
        statistic=lambda cfg, hg: (codegrees(hg, cfg.s).values.max(), None),
        needs="1 ≤ s < k ≤ n",
        valid=lambda cfg: None not in (cfg.k, cfg.s) and 1 <= cfg.s < cfg.k <= cfg.n,
    ),
    # maximum per-vertex k-clique count; aux: degree-conditional expectation
    "clique-ext": KindSpec(
        constants=lambda cfg: clique_constants(cfg.n, cfg.p, cfg.k),
        binomial=None,  # per-vertex clique counts are not binomial
        draw=_graph,
        statistic=lambda cfg, g: (
            clique_counts(g, cfg.k).values.max(),
            clique_cond_expectation(g, cfg.k, cfg.p).values.max(),
        ),
        needs="k ≥ 3",
        valid=lambda cfg: cfg.k is not None and cfg.k >= 3,
        summarize=lambda raw, aux: {"cond_vs_count_ks": two_sample_ks(raw, aux)},
    ),
    # maximum common-neighbour count over h-subsets; aux: typicality flag
    "common-neighbours": KindSpec(
        constants=lambda cfg: common_neighbour_constants(cfg.n, cfg.p, cfg.h),
        binomial=lambda cfg: (math.comb(cfg.n, cfg.h), cfg.n - cfg.h, cfg.p**cfg.h),
        draw=_graph,
        statistic=lambda cfg, g: (
            common_neighbours(g, cfg.h).values.max(),
            1.0 if truncation_event(g, cfg.h, cfg.p).holds else 0.0,
        ),
        needs="h ≥ 1",
        valid=lambda cfg: cfg.h is not None and cfg.h >= 1,
        summarize=lambda raw, aux: {"truncation_rate": float(aux.mean())},
    ),
}

#: Names of the experiment kinds (the keys of :data:`KINDS`).
EXPERIMENT_KINDS = tuple(KINDS)


def run_max_experiment(cfg: ExperimentConfig) -> EmpiricalResult:
    """Sample structures, extract maxima, normalize, and compare to the reference.

    Per-trial structures use streams keyed by ``(cfg.seed, trial)``; the
    result is a pure function of the config.  The kind's :data:`KINDS` entry
    supplies the statistic, its aux companion and their summary.
    """
    spec = KINDS[cfg.kind]
    consts = spec.constants(cfg)
    raw = np.empty(cfg.trials, dtype=np.float64)
    aux_raw = None if spec.summarize is None else np.empty(cfg.trials, dtype=np.float64)
    for t in range(cfg.trials):
        # no name holds a trial's structure while the next one is drawn
        raw[t], aux = spec.statistic(cfg, spec.draw(cfg, child_seed(cfg.seed, t)))
        if aux_raw is not None:
            aux_raw[t] = aux
    aux_stats = {} if aux_raw is None else spec.summarize(raw, aux_raw)

    normalized = (raw - consts.a) / consts.b
    grid = default_grid()
    if cfg.reference == "gumbel":
        reference = np.array([gumbel_cdf(float(x)) for x in grid])
    else:
        d, trials_n, prob = spec.binomial(cfg)
        reference = np.array(
            [product_max_cdf(float(d), trials_n, prob, float(x), consts) for x in grid]
        )
    ks = ks_distance(normalized, reference, grid)
    return EmpiricalResult(
        config=cfg,
        raw_max=raw,
        normalized=normalized,
        ks_vs_reference=ks,
        constants=consts,
        aux_raw=aux_raw,
        aux_stats=aux_stats,
    )


# ---------------------------------------------------------------------------
# Gaussian maxima (streamed reduction, no trials × d matrix)
# ---------------------------------------------------------------------------

def gaussian_max_rate(
    system: GaussianSystem,
    level: float,
    trials: int,
    seed: int,
    *,
    block: int = 2048,
) -> float:
    """Empirical ``P(max_i X_i ≤ level)`` over ``trials`` samples.

    Streams the sampler in windows (``trial_offset`` keyed), so only
    ``block × d`` floats are alive at once; the estimate is a pure function
    of ``(system, level, trials, seed)`` regardless of ``block``.
    """
    if trials < 1:
        raise DomainError(f"trials = {trials!r} must be at least 1")
    if block < 1:
        raise DomainError(f"block = {block!r} must be at least 1")
    below = 0
    for start in range(0, trials, block):
        take = min(block, trials - start)
        window = sample(system, take, seed, trial_offset=start)
        below += int((window.max(axis=1) <= level).sum())
    return below / trials
