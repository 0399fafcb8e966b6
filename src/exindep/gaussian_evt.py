"""Gaussian-vector extremal independence: bounds, diagnostics, samplers.

For a Gaussian vector with correlations ``r_ij`` and exceedance thresholds
``u_i``, the maximum behaves like the maximum of independent components
whenever the correlations off a dependency graph decay fast enough.  This
module provides the finite-``n`` toolkit for checking that:

* Mill's-ratio bounds bracketing the standard normal tail;
* the pairwise normal-comparison bound
  ``|P(X ≤ u_i, Y ≤ u_j) - Φ(u_i)Φ(u_j)| ≤ (1/2π)·|r|·(1-r²)^{-1/2}
  · exp(-(u_i² + u_j²) / (2(1+|r|)))``, with the looser ``(1-r²)^{-1}``
  variance factor available behind a flag for reproducing coarser algebra;
* an upper estimate of one mixing-coefficient term assembled from those
  two bounds;
* the four correlation-decay diagnostics ``g1``–``g4`` (threshold growth,
  off-graph correlation decay, in-graph joint-tail mass and its convenient
  sufficient form, global correlation bound).  Diagnostics are finite-``n``
  numbers with caller-supplied flag thresholds — a limit statement can
  never be decided from one ``n``, so no verdict is emitted;
* deterministic samplers and stationary Toeplitz constructors (AR(1)
  powers, log-decay ``γ/log(2+k)``, truncated AR(1)).  Each system is
  factored once.  A Markov system — ``r_{j+1,i} = r_{j+1,j}·r_{j,i}`` for
  all ``i ≤ j``, with every ``|r_{j+1,j}| < 1``, as for every AR(1)
  system — is sampled by its lag-one recursion in O(d) per trial; any
  other system by the dense Cholesky product in O(d²) per trial.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Sequence

import numpy as np

from ._rng import stream
from .errors import DomainError, NumericError, StructuralError
from .prob_core import DependencyGraph
from .random_structures import _charge_budget

__all__ = [
    "GaussianSystem",
    "ThresholdSet",
    "ConditionReport",
    "mills_bounds",
    "berman_pair_bound",
    "phi_upper_estimate",
    "check_conditions",
    "sample",
    "stationary_system",
]

_SYMMETRY_TOL = 1e-10
_CORRELATION_TOL = 1e-10
_CHOLESKY_JITTER = 1e-12
#: Rows of the correlation matrix the Markov check reads at once.
_MARKOV_CHECK_ROWS = 256
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

CorrelationFamily = Literal["ar1", "log_decay", "truncated"]


@dataclass(frozen=True, eq=False)
class GaussianSystem:
    """Mean vector and covariance matrix of a finite Gaussian vector."""

    means: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        means = np.array(self.means, dtype=np.float64).reshape(-1)
        cov = np.array(self.covariance, dtype=np.float64)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise StructuralError(f"covariance must be square, got shape {cov.shape}")
        if means.size != cov.shape[0]:
            raise StructuralError(
                f"{means.size} means for a {cov.shape[0]}-dimensional covariance"
            )
        if not np.all(np.isfinite(means)) or not np.all(np.isfinite(cov)):
            raise StructuralError("means and covariance must be finite")
        if np.abs(cov - cov.T).max(initial=0.0) > _SYMMETRY_TOL:
            raise StructuralError("covariance is not symmetric")
        if np.any(np.diag(cov) <= 0.0):
            raise StructuralError("covariance diagonal must be strictly positive")
        means.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariance", cov)
        if np.abs(self.correlations).max() > 1.0 + _CORRELATION_TOL:
            raise StructuralError("correlations exceed 1 beyond tolerance")

    @property
    def d(self) -> int:
        return self.means.size

    @cached_property
    def std_devs(self) -> np.ndarray:
        s = np.sqrt(np.diag(self.covariance))
        s.flags.writeable = False
        return s

    @cached_property
    def correlations(self) -> np.ndarray:
        s = np.sqrt(np.diag(self.covariance))
        r = self.covariance / np.outer(s, s)
        r.flags.writeable = False
        return r

    @cached_property
    def _sampling_factor(self) -> tuple[np.ndarray, np.ndarray] | np.ndarray:
        """How :func:`sample` turns standard normals ``z`` into centred draws.

        A Markov system gives its lag-one coefficients ``(a, b)``: the draw
        is ``x_0 = b_0 z_0``, ``x_j = a_{j-1} x_{j-1} + b_j z_j``.  That is
        the Cholesky product ``L z`` row by row, because the Cholesky
        factor of a positive-definite matrix is unique.  Any other system
        gives the transposed Cholesky factor ``Lᵀ``, for ``z @ Lᵀ``.
        """
        lag_one = _lag_one_coefficients(self.correlations, self.std_devs)
        if lag_one is not None:
            return lag_one
        factor_t = _cholesky_factor(self.covariance).T.copy()
        factor_t.flags.writeable = False
        return factor_t


@dataclass(frozen=True)
class ThresholdSet:
    """Exceedance level ``a + b·x`` expressed in per-component units.

    ``u_i = (a + b·x - mean_i) / std_i`` is the standardized threshold of
    component ``i``.
    """

    a: float
    b: float
    x: float = 0.0

    def __post_init__(self) -> None:
        if self.b <= 0.0:
            raise DomainError(f"scale b = {self.b!r} must be positive")

    @property
    def level(self) -> float:
        return self.a + self.b * self.x

    def u_values(self, system: GaussianSystem) -> np.ndarray:
        return (self.level - system.means) / system.std_devs

    def u_min(self, system: GaussianSystem) -> float:
        return float(self.u_values(system).min())


@dataclass(frozen=True)
class ConditionReport:
    """Finite-``n`` values of the four correlation-decay diagnostics.

    ``g1``: smallest standardized threshold (wants ``> 1``);
    ``g2``: worst off-graph ``|r_ij|·log d`` over predecessors (wants small);
    ``g3``: in-graph joint-tail mass ``Σ_i Σ_{j<i, j∈D_i}
    exp(-(u_i²+u_j²)/(2(1+|r_ij|)))`` (wants small);
    ``g3_sufficient``: the convenient upper proxy
    ``exp(-u_min²/(1+rho)) · Σ_i |[i-1] ∩ D_i|``;
    ``g4``: largest off-diagonal ``|r_ij|`` (wants ``< rho``).

    The ``*_ok`` flags apply the caller's thresholds (``eps`` for g2/g3,
    ``rho`` for g4, the constant 1 for g1); they are threshold checks on
    one configuration, not asymptotic verdicts.
    """

    g1: float
    g2: float
    g3: float
    g3_sufficient: float
    g4: float
    rho: float
    eps: float
    g1_ok: bool
    g2_ok: bool
    g3_ok: bool
    g4_ok: bool


# ---------------------------------------------------------------------------
# Analytic bounds
# ---------------------------------------------------------------------------

def mills_bounds(x: float) -> tuple[float, float]:
    """Mill's-ratio bracket for the standard normal tail ``P(η > x)``.

    ``lower = φ(x)/x · (1 - x^{-2})`` (floored at 0), ``upper = φ(x)/x``
    with ``φ`` the standard normal density; requires ``x > 0``.
    """
    if x <= 0.0:
        raise DomainError(f"x = {x!r} must be positive")
    density = _INV_SQRT_2PI * math.exp(-0.5 * x * x)
    upper = density / x
    lower = max(0.0, upper * (1.0 - 1.0 / (x * x)))
    return lower, upper


def berman_pair_bound(u_i: float, u_j: float, r: float) -> float:
    """Pairwise normal-comparison bound on the joint-CDF discrepancy.

    ``(1/2π)·|r|·(1-r²)^{-1/2}·exp(-(u_i²+u_j²)/(2(1+|r|)))`` dominates
    ``|P(X ≤ u_i, Y ≤ u_j) - Φ(u_i)Φ(u_j)|`` for a standard bivariate
    normal pair with correlation ``r``.
    """
    if abs(r) >= 1.0:
        raise DomainError(f"|r| = {abs(r)!r} must be < 1")
    if r == 0.0:
        return 0.0
    factor = 1.0 / math.sqrt(1.0 - r * r)
    exponent = -(u_i * u_i + u_j * u_j) / (2.0 * (1.0 + abs(r)))
    return _INV_SQRT_2PI**2 * abs(r) * factor * math.exp(exponent)


def phi_upper_estimate(
    system: GaussianSystem,
    thresholds: ThresholdSet,
    dep: DependencyGraph,
    i: int,
) -> float:
    """Upper estimate of the ``i``-th mixing-coefficient term.

    Sums the pairwise comparison bounds over weakly dependent predecessors
    ``j < i``, ``j ∉ D_i`` and divides by the Mill's lower bound for
    ``P(X_i > u_i)``; requires ``u_i > 1`` so that the denominator is
    positive.  Index ``i`` is 0-based.
    """
    if dep.d != system.d:
        raise StructuralError(
            f"dependency graph has {dep.d} entries for d = {system.d}"
        )
    if not (0 <= i < system.d):
        raise StructuralError(f"index i = {i!r} out of range for d = {system.d}")
    u = thresholds.u_values(system)
    if u[i] <= 1.0:
        raise DomainError(
            f"u_i = {u[i]!r} must exceed 1 for a positive Mill's lower bound"
        )
    r = system.correlations
    total = 0.0
    for j in range(i):
        if j in dep.neighbor_sets[i]:
            continue
        total += berman_pair_bound(float(u[i]), float(u[j]), float(r[i, j]))
    lower, _ = mills_bounds(float(u[i]))
    return total / lower


def check_conditions(
    system: GaussianSystem,
    thresholds: ThresholdSet,
    dep: DependencyGraph,
    rho: float,
    *,
    eps: float = 0.05,
) -> ConditionReport:
    """Evaluate the four correlation-decay diagnostics for one configuration.

    Refuses a system whose ``d²`` pair cells exceed ``DEFAULT_BUDGET`` with
    :class:`ResourceBudgetError`, before building any ``d × d`` mask.
    """
    if not (0.0 < rho < 1.0):
        raise DomainError(f"rho = {rho!r} must lie strictly inside (0, 1)")
    if dep.d != system.d:
        raise StructuralError(
            f"dependency graph has {dep.d} entries for d = {system.d}"
        )
    d = system.d
    _charge_budget(d * d, f"d² = {d * d} covariance cells")
    u = thresholds.u_values(system)
    r = system.correlations
    log_d = math.log(d) if d > 1 else 0.0

    g1 = float(u.min())
    in_graph = np.zeros((d, d), dtype=bool)
    for i, neigh in enumerate(dep.neighbor_sets):
        if neigh:
            in_graph[i, sorted(neigh)] = True
    predecessor = np.tri(d, k=-1, dtype=bool)
    weak = predecessor & ~in_graph
    strong = predecessor & in_graph
    abs_r = np.abs(r)
    g2 = float(abs_r[weak].max()) * log_d if weak.any() else 0.0
    in_graph_pairs = int(np.count_nonzero(strong))
    if in_graph_pairs:
        u_sq = np.square(u)
        pair_exponents = (u_sq[:, None] + u_sq[None, :])[strong]
        g3 = float(
            np.exp(-pair_exponents / (2.0 * (1.0 + abs_r[strong]))).sum()
        )
    else:
        g3 = 0.0
    g3_sufficient = math.exp(-g1 * g1 / (1.0 + rho)) * in_graph_pairs
    if d > 1:
        off_diag = np.abs(r[~np.eye(d, dtype=bool)])
        g4 = float(off_diag.max())
    else:
        g4 = 0.0
    return ConditionReport(
        g1=g1,
        g2=g2,
        g3=g3,
        g3_sufficient=g3_sufficient,
        g4=g4,
        rho=rho,
        eps=eps,
        g1_ok=g1 > 1.0,
        g2_ok=g2 < eps,
        g3_ok=g3 < eps,
        g4_ok=g4 < rho,
    )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _lag_one_coefficients(
    r: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Lag-one coefficients of a Markov system, or None for any other.

    Markov means row ``j+1`` of the lower triangle (the one the Cholesky
    factorization reads) is ``r_{j+1,j}`` times row ``j``:
    ``r_{j+1,i} = r_{j+1,j}·r_{j,i}`` for ``i ≤ j``, within
    ``_CHOLESKY_JITTER``, and every ``|r_{j+1,j}| < 1``.  Then
    ``a_j = r_{j+1,j}·σ_{j+1}/σ_j``, ``b_0 = σ_0`` and
    ``b_j = σ_j·√(1 - r²_{j,j-1})``.  The check reads the matrix in row
    blocks, so its temporaries stay small.
    """
    d = r.shape[0]
    lag = np.diagonal(r, offset=-1)
    if np.any(np.abs(lag) >= 1.0):
        return None
    for lo in range(1, d, _MARKOV_CHECK_ROWS):
        hi = min(d, lo + _MARKOV_CHECK_ROWS)
        above = r[lo - 1 : hi - 1, : hi - 1]
        gap = r[lo:hi, : hi - 1] - lag[lo - 1 : hi - 1, None] * above
        # block row ``k - lo`` compares columns ``i ≤ k - 1`` only
        if np.abs(np.tril(gap, lo - 1)).max() > _CHOLESKY_JITTER:
            return None
    a = lag * s[1:] / s[:-1]
    b = s.copy()
    b[1:] *= np.sqrt(1.0 - lag * lag)
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


def _cholesky_factor(covariance: np.ndarray) -> np.ndarray:
    """Lower-triangular factor, with a single fixed-jitter retry."""
    try:
        return np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError:
        pass
    jittered = covariance + _CHOLESKY_JITTER * np.eye(covariance.shape[0])
    try:
        return np.linalg.cholesky(jittered)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"covariance is not positive semidefinite (after one {_CHOLESKY_JITTER} "
            "jitter attempt)"
        ) from exc


def sample(
    system: GaussianSystem, trials: int, seed: int, *, trial_offset: int = 0
) -> np.ndarray:
    """Draw ``trials × d`` samples ``x = L z + means``, ``L`` the Cholesky factor.

    A Markov system (see :func:`_lag_one_coefficients`) fills each row by
    the lag-one recursion ``x_0 = b_0 z_0``, ``x_j = a_{j-1} x_{j-1} +
    b_j z_j`` in O(d); any other system multiplies by the dense factor in
    O(d²).  Both are the same function of ``z`` up to rounding, and the
    factor is computed once per system.

    Each trial's standard-normal inputs come from a counter-based stream
    keyed by ``(seed, trial_offset + trial)``, so the output is identical
    however trials are batched across workers: stacking windows
    ``sample(sys, m, seed, trial_offset=o)`` over disjoint offset ranges
    reproduces one big run exactly.  Generation is chunked to bound peak
    memory; the result matrix itself is ``trials × d`` float64, refused
    before anything is built if its cells exceed ``DEFAULT_BUDGET``.
    """
    if trials < 1:
        raise DomainError(f"trials = {trials!r} must be at least 1")
    if trial_offset < 0:
        raise DomainError(f"trial_offset = {trial_offset!r} must be ≥ 0")
    d = system.d
    _charge_budget(trials * d, f"trials·d = {trials * d} output cells")
    factor = system._sampling_factor
    out = np.empty((trials, d), dtype=np.float64)
    chunk_rows = max(1, min(trials, (1 << 23) // max(1, d)))
    z = np.empty((chunk_rows, d), dtype=np.float64)
    for start in range(0, trials, chunk_rows):
        stop = min(trials, start + chunk_rows)
        for t in range(start, stop):
            z[t - start] = stream(seed, trial_offset + t).standard_normal(d)
        rows = out[start:stop]
        if isinstance(factor, np.ndarray):
            np.matmul(z[: stop - start], factor, out=rows)
        else:
            a, b = factor
            np.multiply(z[: stop - start], b, out=rows)
            for j in range(1, d):
                rows[:, j] += a[j - 1] * rows[:, j - 1]
    out += system.means
    return out


def stationary_system(
    d: int,
    family: CorrelationFamily,
    *,
    rho: float | None = None,
    gamma: float | None = None,
    radius: int | None = None,
    variance: float = 1.0,
    mean: float = 0.0,
) -> GaussianSystem:
    """Toeplitz Gaussian system from a named stationary correlation family.

    Families (``k = |i - j|``):

    * ``"ar1"``: ``r(k) = rho^k`` with ``|rho| < 1``;
    * ``"log_decay"``: ``r(k) = gamma / log(2 + k)`` for ``k ≥ 1`` (the
      classical slowly-decaying regime where extremal independence fails);
    * ``"truncated"``: ``r(k) = rho^k`` for ``k ≤ radius``, 0 beyond.

    Positive semidefiniteness is not checked here — a non-PSD matrix is
    detected when :func:`sample` factorizes it.  A ``d`` whose ``d²``
    covariance cells exceed ``DEFAULT_BUDGET`` is refused with
    :class:`ResourceBudgetError` before anything is allocated.
    """
    if d < 1:
        raise DomainError(f"d = {d!r} must be at least 1")
    if variance <= 0.0:
        raise DomainError(f"variance = {variance!r} must be positive")
    _charge_budget(d * d, f"d² = {d * d} covariance cells")
    lags = np.arange(d)
    if family == "ar1":
        if rho is None or not (-1.0 < rho < 1.0):
            raise DomainError(f"ar1 needs |rho| < 1, got {rho!r}")
        corr = np.power(float(rho), lags)
    elif family == "log_decay":
        if gamma is None:
            raise DomainError("log_decay needs gamma")
        corr = np.empty(d)
        corr[0] = 1.0
        if d > 1:
            corr[1:] = gamma / np.log(2.0 + lags[1:])
        if np.abs(corr).max() > 1.0:
            raise DomainError(
                f"gamma = {gamma!r} makes |r(1)| exceed 1 — not a correlation"
            )
    elif family == "truncated":
        if rho is None or not (-1.0 < rho < 1.0):
            raise DomainError(f"truncated needs |rho| < 1, got {rho!r}")
        if radius is None or radius < 0:
            raise DomainError(f"truncated needs radius ≥ 0, got {radius!r}")
        corr = np.where(lags <= radius, np.power(float(rho), lags), 0.0)
        corr[0] = 1.0
    else:
        raise DomainError(f"unknown correlation family {family!r}")
    idx = np.abs(np.subtract.outer(lags, lags))
    covariance = variance * corr[idx]
    return GaussianSystem(means=np.full(d, float(mean)), covariance=covariance)
