"""Exact mixing/declustering coefficients and inequality audits.

For an ordered event system ``A_1, ..., A_d`` with dependency sets ``D_i``,
this module computes — by exact atom enumeration — the quantities that
control how far ``P(no event occurs)`` can drift from the independent
product ``∏ (1 - P(A_i))``:

* the mixing coefficient
  ``phi = max_i |P(U_i | A_i) - P(U_i)|`` where
  ``U_i = ∪ {A_j : j < i, j ∉ D_i}`` is the union of *weakly* dependent
  predecessors, together with its one-sided positive/negative parts;
* declustering coefficients ``delta1``/``delta2`` penalising clusters of
  strongly dependent exceedances, plus their union-bound relaxations
  (``*_prime``, summed over strongly dependent predecessors) and the
  variants summed over all of ``D_i`` (``*_dprime``);
* the total-variation mixing coefficient
  ``phi_tilde = Σ_i P(A_i) · Σ_k |P(Z^i = k | A_i) - P(Z^i = k)|`` where
  ``Z^i`` counts occurrences among events outside ``D_i ∪ {i}``;
* every bound right-hand side assembled from them, with pass flags.

Conventions: empty unions have probability 0, empty products equal 1, and
event ordering is taken verbatim from the system (all formulas sum over
predecessor ranges ``[i-1]``; see :func:`reorder` for explicit
permutations — none is ever applied implicitly).  All right-hand sides are
reported unclamped (they may exceed 1 or drop below 0): the audit flags
compare the raw algebraic values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import StructuralError
from .prob_core import DependencyGraph, EventSystem, indep_product, none_occur

__all__ = [
    "CoefficientReport",
    "BoundAudit",
    "mixing_phi",
    "declustering",
    "arratia_phi_tilde",
    "arratia_union_form",
    "audit",
    "reorder",
    "AUDIT_TOL",
    "ONE_SIDED_ZERO_TOL",
]

#: Residual tolerance used by every inequality pass flag.
AUDIT_TOL = 1e-9

#: ``phi_minus`` below this is treated as exactly zero for the special-case
#: lower bound that requires the one-sided mixing term to vanish.
ONE_SIDED_ZERO_TOL = 1e-12

#: Slack for internal consistency checks (orderings that hold exactly in
#: real arithmetic and may wobble only by rounding).
_CONSISTENCY_TOL = 1e-12


@dataclass(frozen=True)
class CoefficientReport:
    """All mixing/declustering coefficients of one (system, graph) pair.

    Invariants (checked): every field is ≥ 0,
    ``phi = max(phi_plus, phi_minus)``, and each declustering family is
    ordered ``delta ≤ delta_prime ≤ delta_dprime``.
    """

    phi: float
    phi_plus: float
    phi_minus: float
    delta1: float
    delta2: float
    delta1_prime: float
    delta2_prime: float
    delta1_dprime: float
    delta2_dprime: float
    phi_tilde: float

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if value < 0.0 or math.isnan(value):
                raise StructuralError(f"coefficient {name} is {value!r}, expected ≥ 0")
        if abs(self.phi - max(self.phi_plus, self.phi_minus)) > _CONSISTENCY_TOL:
            raise StructuralError("phi must equal max(phi_plus, phi_minus)")
        for lo, mid, hi in (
            (self.delta1, self.delta1_prime, self.delta1_dprime),
            (self.delta2, self.delta2_prime, self.delta2_dprime),
        ):
            if lo > mid + _CONSISTENCY_TOL or mid > hi + _CONSISTENCY_TOL:
                raise StructuralError("declustering chain ordering violated")


@dataclass(frozen=True)
class BoundAudit:
    """Every bound right-hand side for one (system, graph) pair, with flags.

    ``dubickas_applicable`` records whether the zero-negative-mixing special
    case applies (``phi_minus ≤ ONE_SIDED_ZERO_TOL``); ``dubickas_pass`` is
    ``None`` when it does not.  ``arratia_rhs`` is a comparison value quoted
    from a different framework — its hypotheses are not checked here, so it
    carries no pass flag.  ``arratia_union_lower`` is the union-form lower
    bound that ``phi_tilde`` provably dominates.
    """

    coefficients: CoefficientReport
    none_occur: float
    indep_product: float
    exact_gap: float
    thm1_rhs: float
    upper_rhs: float
    lower_rhs: float
    dubickas_rhs: float
    dubickas_applicable: bool
    arratia_rhs: float
    arratia_union_lower: float
    sum_p_sq: float
    thm1_pass: bool
    upper_pass: bool
    lower_pass: bool
    dubickas_pass: bool | None


# ---------------------------------------------------------------------------
# The coefficient pass
# ---------------------------------------------------------------------------

def _mass(weights: np.ndarray, mask: np.ndarray) -> float:
    """Probability of the atom set marked by ``mask``."""
    return float(np.dot(weights, mask))


def _shift(
    weights: np.ndarray, union: np.ndarray, event: np.ndarray, p_event: float
) -> float:
    """``P(union | event) - P(union)`` for atom masks ``union`` and ``event``."""
    return _mass(weights, union & event) / p_event - _mass(weights, union)


class _Coefficients(NamedTuple):
    """Everything one pass over the indicator matrix yields."""

    mixing: tuple[float, float, float]
    declustering: tuple[float, float, float, float, float, float]
    phi_tilde: float
    union_form: float

    def report(self) -> CoefficientReport:
        # CoefficientReport's fields are mixing, declustering, phi_tilde in order
        return CoefficientReport(*self.mixing, *self.declustering, self.phi_tilde)


def _coefficient_pass(system: EventSystem, dep: DependencyGraph) -> _Coefficients:
    """Every coefficient from one validated walk over ``i = 0, ..., d-1``.

    For each ``i`` the weakly dependent predecessors ``j < i, j ∉ D_i``
    give ``U_i``, the strongly dependent ones ``j < i, j ∈ D_i`` give
    ``V_i``, and the events outside ``D_i ∪ {i}`` give the count ``Z^i``,
    whose support ``{Z^i ≥ 1}`` is the union ``W_i``.  Unions are exact
    boolean masks; every sum over ``i`` accumulates in index order.
    """
    dep.validate_for(system)
    probs = system.event_probs
    indicators = system.indicator_matrix
    weights = system.space.weights
    d = probs.size
    tail = np.ones(d)  # tail[i] = ∏_{k > i} (1 - P(A_k)), empty product = 1
    if d > 1:
        tail[:-1] = np.cumprod((1.0 - probs)[::-1])[::-1][1:]
    pair_probs = (indicators * weights) @ indicators.T  # P(A_i ∩ A_j)

    mixing_terms = np.zeros(d)  # P(U_i | A_i) - P(U_i)
    delta1 = delta2 = d1p = d2p = d1pp = d2pp = 0.0
    phi_tilde = union_form = 0.0
    for i in range(d):
        strong = dep.neighbor_sets[i]
        in_i = indicators[i]
        weak_pred = [j for j in range(i) if j not in strong]
        strong_pred = [j for j in range(i) if j in strong]
        outside = [j for j in range(d) if j != i and j not in strong]

        if weak_pred:
            union = indicators[weak_pred].any(axis=0)
            mixing_terms[i] = _shift(weights, union, in_i, probs[i])

        if strong_pred:
            union = indicators[strong_pred].any(axis=0)
            delta1 += _mass(weights, union & in_i) * tail[i]
            delta2 += probs[i] * _mass(weights, union) * tail[i]
            d1p += float(pair_probs[i, strong_pred].sum())
            d2p += float(probs[i] * probs[strong_pred].sum())
        if strong:
            strong_all = sorted(strong)
            d1pp += float(pair_probs[i, strong_all].sum())
            d2pp += float(probs[i] * probs[strong_all].sum())

        if outside:  # otherwise Z^i ≡ 0 on both measures: zero variation
            z = indicators[outside].sum(axis=0)
            n_bins = len(outside) + 1
            marginal = np.bincount(z, weights=weights, minlength=n_bins)
            conditional = (
                np.bincount(z[in_i], weights=weights[in_i], minlength=n_bins)
                / probs[i]
            )
            phi_tilde += float(probs[i] * np.abs(conditional - marginal).sum())
            union_form += float(probs[i] * abs(_shift(weights, z > 0, in_i, probs[i])))

    phi_plus = max(0.0, float(mixing_terms.max()))
    phi_minus = max(0.0, float(-mixing_terms.min()))
    return _Coefficients(
        mixing=(max(phi_plus, phi_minus), phi_plus, phi_minus),
        declustering=(delta1, delta2, d1p, d2p, d1pp, d2pp),
        phi_tilde=phi_tilde,
        union_form=union_form,
    )


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------

def mixing_phi(
    system: EventSystem, dep: DependencyGraph
) -> tuple[float, float, float]:
    """``(phi, phi_plus, phi_minus)`` for the system under ``dep``.

    ``phi`` is the worst absolute change in the probability of the union of
    weakly dependent predecessors when conditioning on the current event;
    ``phi_plus``/``phi_minus`` keep only the positive/negative excursions,
    each floored at 0.  Indices with no weakly dependent predecessor
    contribute 0 (both union probabilities are 0 for an empty union).
    """
    return _coefficient_pass(system, dep).mixing


def declustering(
    system: EventSystem, dep: DependencyGraph
) -> tuple[float, float, float, float, float, float]:
    """All six declustering coefficients.

    Returns ``(delta1, delta2, delta1_prime, delta2_prime, delta1_dprime,
    delta2_dprime)``:

    * ``delta1 = Σ_i P(A_i ∩ V_i) · ∏_{k>i} (1 - P(A_k))`` and
      ``delta2 = Σ_i P(A_i) · P(V_i) · ∏_{k>i} (1 - P(A_k))`` with
      ``V_i = ∪ {A_j : j < i, j ∈ D_i}`` the union of *strongly* dependent
      predecessors (trailing products over empty ranges equal 1);
    * the primed variants replace each union by its union bound,
      ``Σ_{j<i, j∈D_i} P(A_i ∩ A_j)`` resp. ``Σ P(A_i)P(A_j)``, without the
      trailing products;
    * the double-primed variants extend those sums over *all* of ``D_i``
      (not only predecessors).
    """
    return _coefficient_pass(system, dep).declustering


def arratia_phi_tilde(system: EventSystem, dep: DependencyGraph) -> float:
    """Total-variation mixing coefficient over exceedance counts.

    ``Σ_i P(A_i) · Σ_k |P(Z^i = k | A_i) - P(Z^i = k)|`` where
    ``Z^i = Σ_{j ∉ D_i ∪ {i}} 1(A_j)`` counts occurrences among the events
    weakly dependent on ``A_i``.  The distribution of ``Z^i`` is computed by
    exact atom enumeration.
    """
    return _coefficient_pass(system, dep).phi_tilde


def arratia_union_form(system: EventSystem, dep: DependencyGraph) -> float:
    """Union-form expression that :func:`arratia_phi_tilde` dominates.

    ``Σ_i P(A_i) · |P(W_i | A_i) - P(W_i)|`` with
    ``W_i = ∪ {A_j : j ∉ D_i ∪ {i}}``; since ``{W_i} = {Z^i ≥ 1}``, each
    term is at most the total-variation distance in ``phi_tilde``.
    """
    return _coefficient_pass(system, dep).union_form


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------

def audit(system: EventSystem, dep: DependencyGraph) -> BoundAudit:
    """Evaluate every bound and compare it against the exact probabilities.

    Right-hand sides (``q0 = ∏ (1 - P(A_i))``):

    * two-sided:   ``thm1_rhs = (1 - q0)·phi + max(delta1, delta2)`` must
      dominate ``|P(∩ Ā) - q0|``;
    * upper:       ``upper_rhs = q0 + phi_plus·(1 - q0) + delta1`` must
      dominate ``P(∩ Ā)``;
    * lower:       ``lower_rhs = q0 - phi_minus·(1 - q0) - delta2`` must be
      dominated by ``P(∩ Ā)``;
    * special case ``dubickas_rhs = q0 - delta2`` — the lower bound with the
      mixing term dropped, valid only when ``phi_minus`` vanishes;
    * comparison:  ``arratia_rhs = 2·phi_tilde + 4·delta1_dprime +
      4·delta2_dprime + 4·Σ P(A_i)²`` (quoted from a different framework;
      reported, never asserted).
    """
    computed = _coefficient_pass(system, dep)
    coeffs = computed.report()
    p_none = none_occur(system)
    q0 = indep_product(system)
    exact_gap = abs(p_none - q0)
    phi_weight = 1.0 - q0

    thm1_rhs = phi_weight * coeffs.phi + max(coeffs.delta1, coeffs.delta2)
    upper_rhs = q0 + coeffs.phi_plus * phi_weight + coeffs.delta1
    lower_rhs = q0 - coeffs.phi_minus * phi_weight - coeffs.delta2
    dubickas_rhs = q0 - coeffs.delta2
    dubickas_applicable = coeffs.phi_minus <= ONE_SIDED_ZERO_TOL
    sum_p_sq = float(np.dot(system.event_probs, system.event_probs))
    arratia_rhs = (
        2.0 * coeffs.phi_tilde
        + 4.0 * coeffs.delta1_dprime
        + 4.0 * coeffs.delta2_dprime
        + 4.0 * sum_p_sq
    )

    return BoundAudit(
        coefficients=coeffs,
        none_occur=p_none,
        indep_product=q0,
        exact_gap=exact_gap,
        thm1_rhs=thm1_rhs,
        upper_rhs=upper_rhs,
        lower_rhs=lower_rhs,
        dubickas_rhs=dubickas_rhs,
        dubickas_applicable=dubickas_applicable,
        arratia_rhs=arratia_rhs,
        arratia_union_lower=computed.union_form,
        sum_p_sq=sum_p_sq,
        thm1_pass=exact_gap <= thm1_rhs + AUDIT_TOL,
        upper_pass=p_none <= upper_rhs + AUDIT_TOL,
        lower_pass=p_none >= lower_rhs - AUDIT_TOL,
        dubickas_pass=(
            p_none >= dubickas_rhs - AUDIT_TOL if dubickas_applicable else None
        ),
    )


# ---------------------------------------------------------------------------
# Ordering utility
# ---------------------------------------------------------------------------

def reorder(
    system: EventSystem, dep: DependencyGraph, order: Sequence[int]
) -> tuple[EventSystem, DependencyGraph]:
    """Apply an explicit permutation to the events (and remap ``dep``).

    Coefficients depend on the event ordering; this helper exists so that
    callers can study that dependence — it is never applied implicitly.
    ``order[new_pos] = old_pos`` must be a permutation of ``range(d)``.
    """
    dep.validate_for(system)
    if sorted(order) != list(range(system.d)):
        raise StructuralError("order must be a permutation of range(d)")
    old_to_new = {old: new for new, old in enumerate(order)}
    new_sets = tuple(
        frozenset(old_to_new[j] for j in dep.neighbor_sets[old]) for old in order
    )
    new_rows = system.indicator_matrix[list(order)]
    return EventSystem(system.space, new_rows), DependencyGraph(new_sets)
