"""Normalizing constants and reference CDFs for maxima of binomial counts.

For ``d`` (roughly independent) counts, each distributed ``Bin(N, p)``, the
maximum concentrates around

    ``a = pN + sqrt(2·N·p·(1-p)·log d) · (1 - loglog d / (4 log d)
          - log(2·sqrt(pi)) / (2 log d))``

with fluctuations of scale ``b = sqrt(N·p·(1-p) / (2 log d))``, and
``(max - a)/b`` tends to the standard Gumbel law ``exp(-e^{-x})``.  All
logarithms are natural (the Gumbel limit forces this).  Two derived
families reuse the same bracket:

* per-vertex counts of ``k``-cliques in a binomial graph, whose location
  and scale pick up a ``(pn)^{k-2} p^{C(k-1,2)}`` polynomial prefactor;
* common-neighbour counts of ``h``-sets, which plug ``d = C(n, h)``,
  ``N = n`` and success probability ``p^h`` into the binomial family.

``d`` enters only through ``log d`` (and ``loglog d``), so astronomically
large index families are supported by passing ``log d`` directly.
Parameters outside a formula's asymptotic regime trigger a
:class:`~exindep.errors.RegimeWarning`, never an error: negative-control
experiments evaluate the formulas exactly there.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Literal

from scipy.special import betainc

from .errors import DomainError, RegimeWarning

__all__ = [
    "LOG_2_SQRT_PI",
    "NormConstants",
    "gumbel_cdf",
    "norm_constants",
    "clique_constants",
    "common_neighbour_constants",
    "binomial_cdf",
    "binomial_sf",
    "product_max_cdf",
    "tail_limit_check",
]

#: ``log(2·sqrt(pi))`` — the constant in the second-order correction.
LOG_2_SQRT_PI = 1.2655121234846454

#: Families a :class:`NormConstants` can belong to.
Family = Literal["binomial", "clique", "common_neighbour"]


@dataclass(frozen=True)
class NormConstants:
    """Location/scale pair ``(a, b)`` for a family of ``d`` counts.

    ``d`` is stored as a float (it may be huge — only its logarithm, kept
    in ``log_d``, enters any formula).  ``k``/``h`` annotate the clique and
    common-neighbour families and are ``None`` otherwise.
    """

    a: float
    b: float
    d: float
    N: int
    p: float
    log_d: float
    family: Family = "binomial"
    k: int | None = None
    h: int | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.a) or not math.isfinite(self.b):
            raise DomainError("normalizing constants must be finite")
        if self.b <= 0.0:
            raise DomainError(f"scale b = {self.b!r} must be positive")

    def threshold(self, x: float) -> float:
        """The raw-count level ``a + b·x`` matching normalized level ``x``."""
        return self.a + self.b * x


def gumbel_cdf(x: float) -> float:
    """Standard Gumbel CDF ``exp(-exp(-x))``."""
    return math.exp(-math.exp(-x))


# ---------------------------------------------------------------------------
# Normalizing constants
# ---------------------------------------------------------------------------

def _correction_bracket(log_d: float) -> float:
    """``1 - loglog d/(4 log d) - log(2 sqrt(pi))/(2 log d)``; requires log d > 1."""
    if log_d <= 1.0:
        raise DomainError(
            f"log d = {log_d!r} too small: the loglog correction needs log d > 1"
        )
    return 1.0 - math.log(log_d) / (4.0 * log_d) - LOG_2_SQRT_PI / (2.0 * log_d)


def norm_constants(
    d: float, N: int, p: float, *, log_d: float | None = None
) -> NormConstants:
    """Constants for the maximum of ``d`` independent ``Bin(N, p)`` counts.

    ``d ≥ 3`` (the second-order correction needs ``loglog d > 0``), ``N ≥ 1``
    and ``0 < p < 1``.  Pass ``log_d`` to describe index families too large
    to enumerate — ``d`` is then ignored except as metadata.  Outside the
    regime ``N·p·(1-p) ≫ log³ d`` a :class:`RegimeWarning` is issued.
    """
    if log_d is None:
        if d < 3:
            raise DomainError(f"d = {d!r} too small (need d ≥ 3)")
        log_d = math.log(d)
    if N < 1:
        raise DomainError(f"N = {N!r} must be at least 1")
    if not (0.0 < p < 1.0):
        raise DomainError(f"p = {p!r} must lie strictly inside (0, 1)")
    variance = N * p * (1.0 - p)
    if variance < log_d**3:
        warnings.warn(
            f"N·p·(1-p) = {variance:.6g} is not large against log³d = "
            f"{log_d**3:.6g}; the Gumbel approximation degrades here",
            RegimeWarning,
            stacklevel=2,
        )
    bracket = _correction_bracket(log_d)
    a = p * N + math.sqrt(2.0 * variance * log_d) * bracket
    b = math.sqrt(variance / (2.0 * log_d))
    return NormConstants(a=a, b=b, d=float(d), N=int(N), p=float(p), log_d=log_d)


def clique_constants(n: int, p: float, k: int) -> NormConstants:
    """Constants for the maximum per-vertex ``k``-clique count in a binomial graph.

    Requires ``k ≥ 3`` and ``n ≥ k``.  Both constants carry the polynomial
    prefactor ``(pn)^{k-2} p^{C(k-1,2)}`` (divided by ``(k-1)!`` for the
    location and ``(k-2)!`` for the scale); they are assembled in log space
    so large ``k`` cannot overflow intermediate products.
    """
    if k < 3:
        raise DomainError(f"k = {k!r} must be at least 3")
    if n < k:
        raise DomainError(f"need n ≥ k, got n = {n!r} < k = {k!r}")
    if not (0.0 < p < 1.0):
        raise DomainError(f"p = {p!r} must lie strictly inside (0, 1)")
    log_n = math.log(n)
    variance = n * p * (1.0 - p)
    if variance <= 0.0 or variance < 1e-290:
        warnings.warn(
            "p(1-p) underflows: the zero-variance edge degenerates the scale",
            RegimeWarning,
            stacklevel=2,
        )
    if log_n**3 >= variance:
        warnings.warn(
            f"log³n = {log_n ** 3:.6g} is not small against n·p·(1-p) = "
            f"{variance:.6g}; the Gumbel approximation degrades here",
            RegimeWarning,
            stacklevel=2,
        )
    bracket = p * n + (k - 1) * math.sqrt(2.0 * variance * log_n) * _correction_bracket(
        log_n
    )
    log_shared = (k - 2) * math.log(p * n) + math.comb(k - 1, 2) * math.log(p)
    a = math.exp(log_shared - math.lgamma(k) + math.log(bracket))
    b = math.exp(
        log_shared - math.lgamma(k - 1) + 0.5 * math.log(variance / (2.0 * log_n))
    )
    return NormConstants(
        a=a, b=b, d=float(n), N=int(n), p=float(p), log_d=log_n, family="clique", k=k
    )


def common_neighbour_constants(n: int, p: float, h: int) -> NormConstants:
    """Constants for the maximum common-neighbour count over ``h``-sets.

    Delegates to the binomial family with ``d = C(n, h)``, ``N = n`` and
    success probability ``p^h``.  (``N = n`` is the convention these
    constants were derived with, even though the count of an ``h``-set is
    distributed ``Bin(n-h, p^h)``; the ``common-neighbours`` experiment kind
    pairs them with that finite-``n`` law in its product reference.)
    """
    if not (1 <= h < n):
        raise DomainError(f"need 1 ≤ h < n, got h = {h!r}, n = {n!r}")
    if not (0.0 < p < 1.0):
        raise DomainError(f"p = {p!r} must lie strictly inside (0, 1)")
    loglog_ratio = math.sqrt(math.log(math.log(n)) / math.log(n)) if n > 3 else math.inf
    if 1.0 - p <= loglog_ratio:
        warnings.warn(
            f"1-p = {1.0 - p:.6g} is not large against sqrt(loglog n/log n) = "
            f"{loglog_ratio:.6g}; the Gumbel approximation degrades here",
            RegimeWarning,
            stacklevel=2,
        )
    log_d = math.lgamma(n + 1) - math.lgamma(h + 1) - math.lgamma(n - h + 1)
    try:
        d_value = float(math.comb(n, h))
    except OverflowError:
        d_value = math.inf  # only log_d enters the formulas
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)  # regime already assessed above
        base = norm_constants(d_value, n, p**h, log_d=log_d)
    return replace(base, family="common_neighbour", h=h)


# ---------------------------------------------------------------------------
# Binomial CDF and reference curves
# ---------------------------------------------------------------------------

def _validate_binomial(N: int, p: float) -> None:
    if N < 0:
        raise DomainError(f"N = {N!r} must be nonnegative")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"p = {p!r} must lie in [0, 1]")


def binomial_cdf(N: int, p: float, t: float) -> float:
    """``P(Bin(N, p) ≤ floor(t))`` via the regularized incomplete beta function.

    Counts are integers, so a real threshold is floored.  ``t < 0`` gives 0
    and ``t ≥ N`` gives 1.  Accurate to ~1e-12 relative error.
    """
    _validate_binomial(N, p)
    if t < 0.0:
        return 0.0
    m = math.floor(t)
    if m >= N:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    return float(betainc(N - m, m + 1, 1.0 - p))


def binomial_sf(N: int, p: float, t: float) -> float:
    """``P(Bin(N, p) > floor(t))`` — the complementary tail, computed directly.

    Evaluated via the incomplete beta in the *other* orientation so that
    tiny tails keep full relative accuracy (``1 - binomial_cdf`` would lose
    them to cancellation).
    """
    _validate_binomial(N, p)
    if t < 0.0:
        return 1.0
    m = math.floor(t)
    if m >= N:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    return float(betainc(m + 1, N - m, p))


def product_max_cdf(
    d: float, N: int, p: float, x: float, consts: NormConstants
) -> float:
    """``P(max of d independent Bin(N, p) counts ≤ a + b·x)``.

    Computed as ``exp(d · log F(a + b·x))`` with the log of the CDF taken
    as ``log1p(-sf)`` so upper-tail factors keep relative accuracy.  The
    caller is responsible for pairing ``consts`` with a matching ``(d, N,
    p)`` triple; the ``common-neighbours`` experiment kind deliberately
    pairs the verbatim constants with ``N = n - h`` trials.
    """
    sf = binomial_sf(N, p, consts.threshold(x))
    if sf >= 1.0:
        return 0.0
    return math.exp(d * math.log1p(-sf))


def tail_limit_check(d: float, N: int, p: float, x: float) -> float:
    """``d · P(Bin(N, p) > a + b·x)`` — the expected number of exceedances.

    In the Gumbel regime this tends to ``e^{-x}``; evaluating it at finite
    parameters measures how far from the limit a configuration sits.
    Strictly decreasing in ``x`` (for fixed parameters).
    """
    consts = norm_constants(d, N, p)
    return d * binomial_sf(N, p, consts.threshold(x))
