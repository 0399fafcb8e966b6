"""Independent brute-force oracles that pin expected values for the tests.

Every function here recomputes a quantity from first principles --
exhaustive atom enumeration with ``math.fsum``, exact ``fractions``
arithmetic on binomial terms, or high-order Gauss-Legendre quadrature --
and shares no code with the package under test.  Expected values asserted
by the unit and acceptance tests are produced by these oracles (or frozen
from a prior oracle run), never by the implementation being tested.

Conventions match the library's: an event is a set of atom indices, a
dependency graph is one set of neighbour indices per event (never
containing the event's own index), unions over empty index ranges have
probability zero, and products over empty ranges equal one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

Atoms = Sequence[float]
Events = Sequence[frozenset[int]]
Dep = Sequence[frozenset[int]]


# ---------------------------------------------------------------------------
# Finite probability spaces by exhaustive atom enumeration
# ---------------------------------------------------------------------------


def event_prob(atoms: Atoms, members: frozenset[int]) -> float:
    """P(A) as an ``fsum`` over the atoms of ``A``."""
    return math.fsum(atoms[a] for a in sorted(members))


def union_of(events: Events) -> frozenset[int]:
    out: frozenset[int] = frozenset()
    for s in events:
        out |= s
    return out


def cond_prob(atoms: Atoms, target: frozenset[int], given: frozenset[int]) -> float:
    """P(target | given); ``given`` must have positive probability."""
    denom = event_prob(atoms, given)
    return event_prob(atoms, target & given) / denom


def none_prob(atoms: Atoms, events: Events) -> float:
    """P(no event occurs), summed over atoms outside the union."""
    hit = union_of(events)
    return math.fsum(atoms[a] for a in range(len(atoms)) if a not in hit)


def indep_none(atoms: Atoms, events: Events) -> float:
    """The independent-copy value prod_i (1 - P(A_i))."""
    out = 1.0
    for s in events:
        out *= 1.0 - event_prob(atoms, s)
    return out


def exact_gap(atoms: Atoms, events: Events) -> float:
    return abs(none_prob(atoms, events) - indep_none(atoms, events))


# ---------------------------------------------------------------------------
# Mixing and declustering coefficients
# ---------------------------------------------------------------------------


def mixing(atoms: Atoms, events: Events, dep: Dep) -> tuple[float, float, float]:
    """(phi, phi_plus, phi_minus) by direct enumeration.

    For each i the weak-predecessor union is U_i = union of A_j over
    j < i with j not in D_i; the coefficient compares P(U_i | A_i)
    against P(U_i).  Empty unions contribute zero on both sides.
    """
    plus = 0.0
    minus = 0.0
    for i, a_i in enumerate(events):
        weak = [events[j] for j in range(i) if j not in dep[i]]
        u_i = union_of(weak)
        diff = cond_prob(atoms, u_i, a_i) - event_prob(atoms, u_i)
        plus = max(plus, diff)
        minus = max(minus, -diff)
    return max(plus, minus), plus, minus


def declustering(
    atoms: Atoms, events: Events, dep: Dep
) -> tuple[float, float, float, float, float, float]:
    """All six declustering coefficients by direct enumeration.

    Plain forms use the strong-predecessor union V_i and the trailing
    product of non-occurrence probabilities over k > i; primed forms
    replace the union by a sum over strong predecessors and drop the
    trailing product; double-primed forms extend that sum over all of D_i.
    """
    d = len(events)
    probs = [event_prob(atoms, s) for s in events]
    delta1 = delta2 = d1p = d2p = d1pp = d2pp = 0.0
    for i in range(d):
        tail = 1.0
        for k in range(i + 1, d):
            tail *= 1.0 - probs[k]
        strong_pred = [j for j in range(i) if j in dep[i]]
        if strong_pred:
            v_i = union_of([events[j] for j in strong_pred])
            delta1 += event_prob(atoms, events[i] & v_i) * tail
            delta2 += probs[i] * event_prob(atoms, v_i) * tail
            d1p += math.fsum(
                event_prob(atoms, events[i] & events[j]) for j in strong_pred
            )
            d2p += math.fsum(probs[i] * probs[j] for j in strong_pred)
        strong_all = sorted(dep[i])
        if strong_all:
            d1pp += math.fsum(
                event_prob(atoms, events[i] & events[j]) for j in strong_all
            )
            d2pp += math.fsum(probs[i] * probs[j] for j in strong_all)
    return delta1, delta2, d1p, d2p, d1pp, d2pp


def phi_tilde(atoms: Atoms, events: Events, dep: Dep) -> float:
    """Total-variation mixing coefficient over weak-neighbour counts.

    For each i, Z^i counts the occurring events among j outside
    D_i ∪ {i}; the term is P(A_i) times the L1 distance between the law
    of Z^i conditioned on A_i and its unconditional law.
    """
    d = len(events)
    m = len(atoms)
    total = 0.0
    for i in range(d):
        weak = [j for j in range(d) if j != i and j not in dep[i]]
        counts = [sum(1 for j in weak if a in events[j]) for a in range(m)]
        p_i = event_prob(atoms, events[i])
        uncond: dict[int, list[float]] = {}
        cond: dict[int, list[float]] = {}
        for a in range(m):
            uncond.setdefault(counts[a], []).append(atoms[a])
            if a in events[i]:
                cond.setdefault(counts[a], []).append(atoms[a] / p_i)
        l1 = math.fsum(
            abs(math.fsum(cond.get(k, [0.0])) - math.fsum(uncond.get(k, [0.0])))
            for k in set(uncond) | set(cond)
        )
        total += p_i * l1
    return total


def union_form(atoms: Atoms, events: Events, dep: Dep) -> float:
    """Sum of P(A_i) |P(W_i | A_i) - P(W_i)| with W_i the union over all
    j outside D_i ∪ {i} (not only predecessors)."""
    d = len(events)
    total = 0.0
    for i in range(d):
        weak = [events[j] for j in range(d) if j != i and j not in dep[i]]
        w_i = union_of(weak)
        p_i = event_prob(atoms, events[i])
        total += p_i * abs(cond_prob(atoms, w_i, events[i]) - event_prob(atoms, w_i))
    return total


def bound_rhs(atoms: Atoms, events: Events, dep: Dep) -> dict[str, float]:
    """Independently assembled right-hand sides of every audited bound."""
    q0 = indep_none(atoms, events)
    phi, plus, minus = mixing(atoms, events, dep)
    d1, d2, _, _, d1pp, d2pp = declustering(atoms, events, dep)
    p_sq = math.fsum(event_prob(atoms, s) ** 2 for s in events)
    return {
        "thm1": (1.0 - q0) * phi + max(d1, d2),
        "upper": q0 + plus * (1.0 - q0) + d1,
        "lower": q0 - minus * (1.0 - q0) - d2,
        "dubickas": q0 - d2,
        "arratia": 2.0 * phi_tilde(atoms, events, dep)
        + 4.0 * d1pp
        + 4.0 * d2pp
        + 4.0 * p_sq,
    }


# ---------------------------------------------------------------------------
# Binomial tails
# ---------------------------------------------------------------------------


def binom_cdf_exact(n: int, p_num: int, p_den: int, t: int) -> Fraction:
    """P(Bin(n, p_num/p_den) <= t) in exact rational arithmetic."""
    p = Fraction(p_num, p_den)
    q = 1 - p
    total = Fraction(0)
    for s in range(min(t, n) + 1):
        total += math.comb(n, s) * p**s * q ** (n - s)
    return total


def binom_cdf_logsum(n: int, p: float, t: int) -> float:
    """P(Bin(n, p) <= t) by ``fsum`` of log-space terms (large n)."""
    if t < 0:
        return 0.0
    if t >= n:
        return 1.0
    log_p = math.log(p)
    log_q = math.log1p(-p)
    terms = [
        math.exp(
            math.lgamma(n + 1)
            - math.lgamma(s + 1)
            - math.lgamma(n - s + 1)
            + s * log_p
            + (n - s) * log_q
        )
        for s in range(t + 1)
    ]
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Gaussian references
# ---------------------------------------------------------------------------


def normal_tail(x: float) -> float:
    """P(Z > x) for standard normal Z, via ``erfc``."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bvn_discrepancy(u_i: float, u_j: float, r: float, nodes: int = 96) -> float:
    """|P(X <= u_i, Y <= u_j) - P(X <= u_i) P(Y <= u_j)| for standard
    bivariate normal (X, Y) with correlation r.

    Uses the classical identity d/dt P_t(X <= u_i, Y <= u_j) =
    density_t(u_i, u_j), so the discrepancy equals the integral of the
    bivariate density over correlations from 0 to r, evaluated with
    Gauss-Legendre quadrature.
    """
    if r == 0.0:
        return 0.0
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    ts = 0.5 * r * (xs + 1.0)
    dens = np.exp(
        -(u_i * u_i - 2.0 * ts * u_i * u_j + u_j * u_j) / (2.0 * (1.0 - ts * ts))
    ) / (2.0 * math.pi * np.sqrt(1.0 - ts * ts))
    return abs(0.5 * r * float(np.dot(ws, dens)))


# ---------------------------------------------------------------------------
# Clique-overlap quantities by subset enumeration
# ---------------------------------------------------------------------------


def clique_overlap_enum(j: int, k: int, p: float) -> tuple[int, float, float, float]:
    """(delta, deltabar_pairs, mu, deltabar_total) for (k-1)-subsets of a
    j-vertex ground set, each weighted by the probability that all its
    internal pairs are edges.

    ``delta`` counts, for a fixed subset, the subsets sharing at least two
    vertices with it (itself included).  ``deltabar_pairs`` sums, over
    ordered pairs of distinct subsets sharing at least two vertices, the
    probability that both subsets are fully connected (shared internal
    edges counted once).  ``mu`` is the expected number of fully connected
    subsets and ``deltabar_total = mu + deltabar_pairs``.
    """
    size = k - 1
    subs = list(combinations(range(j), size))
    edges_per = math.comb(size, 2)
    mu = len(subs) * p**edges_per

    base = frozenset(subs[0])
    delta = sum(1 for t in subs if len(base & frozenset(t)) >= 2)

    pairs = 0.0
    terms = []
    for s in subs:
        s_set = frozenset(s)
        for t in subs:
            if s == t:
                continue
            shared = len(s_set & frozenset(t))
            if shared >= 2:
                terms.append(p ** (2 * edges_per - math.comb(shared, 2)))
    pairs = math.fsum(terms)
    return delta, pairs, mu, mu + pairs


# ---------------------------------------------------------------------------
# Subset enumeration
# ---------------------------------------------------------------------------


def colex_subsets(n: int, size: int):
    """Yield all ``size``-subsets of ``range(n)`` in colexicographic order."""
    if size == 1:
        for v in range(n):
            yield (v,)
        return
    for largest in range(size - 1, n):
        for rest in colex_subsets(largest, size - 1):
            yield rest + (largest,)


# ---------------------------------------------------------------------------
# Empirical-distribution helpers
# ---------------------------------------------------------------------------


def ks_on_grid(
    samples: Sequence[float], ref_values: Sequence[float], grid: Sequence[float]
) -> float:
    """sup_x |ECDF(x) - ref(x)| over the grid, by direct counting."""
    n = len(samples)
    worst = 0.0
    for g, ref in zip(grid, ref_values):
        ecdf = sum(1 for s in samples if s <= g) / n
        worst = max(worst, abs(ecdf - ref))
    return worst


def gumbel(x: float) -> float:
    return math.exp(-math.exp(-x))
