"""Random event-system generation for audit corpora.

Every draw comes from one counter-based stream keyed by the seed, so a
given ``(spec, seed)`` pair always yields the same system.  Families:

``uniform-random``
    Random positive atom masses; each event keeps each atom with a
    per-event inclusion rate (resampled if empty).
``product-space``
    ``d`` independent coordinate events on a ``{0,1}^d`` product space —
    the mixing coefficient of such a system is 0 up to rounding.
``xor-parity``
    ``d - 1`` uniform coordinate bits plus their parity event.  With
    ``d = 3`` this is exactly the reference system on four uniform atoms
    (events ``{1,3}``, ``{2,3}``, ``{1,2}``): any two events independent,
    the triple forced.
``monotone-increasing``
    Coordinate-count threshold events on an independent product space —
    all increasing, hence pairwise positively correlated.
``clustered``
    Independent blocks of nested events: one 4-level coordinate per block,
    each event a level exceedance of its block's coordinate.  Events in
    different blocks are independent, so with the block dependency graph
    the mixing coefficient vanishes (up to rounding) while declustering
    terms stay positive.  This family always carries its block graph,
    whatever dependency family the ``SystemGenSpec`` requests.

Dependency families (other event families): ``empty``, ``complete``,
``random`` (undirected, edge probability ``dep_edge_prob``) and
``distance-band`` (width ``band_width``).  A ``"mixed"`` entry in the
``SystemGenSpec`` picks a concrete family per system from the same stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._rng import stream
from ..prob_core import DependencyGraph, EventSystem, ProbSpace
from .config import SystemGenSpec

__all__ = ["GeneratedSystem", "generate_system"]

_CONCRETE_EVENT_FAMILIES = (
    "uniform-random",
    "product-space",
    "xor-parity",
    "monotone-increasing",
    "clustered",
)
_CONCRETE_DEP_FAMILIES = ("empty", "complete", "random", "distance-band")


@dataclass(frozen=True)
class GeneratedSystem:
    """A drawn system with the concrete families it came from."""

    system: EventSystem
    dep: DependencyGraph
    event_family: str
    dep_family: str


# ---------------------------------------------------------------------------
# Event families (each returns (space, rows) or (space, rows, dep);
# ``rows`` is the boolean d × n_atoms indicator matrix)
# ---------------------------------------------------------------------------

def _draw_d(spec: SystemGenSpec, rng: np.random.Generator) -> int:
    lo, hi = spec.d_range
    return int(rng.integers(lo, hi + 1))


def _uniform_random(
    spec: SystemGenSpec, rng: np.random.Generator
) -> tuple[ProbSpace, np.ndarray]:
    d = _draw_d(spec, rng)
    lo, hi = spec.atom_range
    m = int(rng.integers(lo, hi + 1))
    masses = rng.random(m) + 1e-3
    masses /= masses.sum()
    space = ProbSpace(tuple(masses.tolist()))
    rows = np.empty((d, m), dtype=bool)
    for i in range(d):
        rate = rng.uniform(0.2, 0.8)
        mask = rng.random(m) < rate
        while not mask.any():
            mask = rng.random(m) < rate
        rows[i] = mask
    return space, rows


def _bit_product_space(bit_probs: np.ndarray) -> tuple[ProbSpace, np.ndarray]:
    """Product space over independent bits, with its coordinate events.

    Atom ``a`` is the bit mask ``a`` (colex, bit 0 first); row ``t`` of the
    returned ``(c, 2^c)`` boolean matrix marks the atoms with bit ``t`` set.
    """
    c = bit_probs.size
    bits = ((np.arange(1 << c) >> np.arange(c)[:, None]) & 1) == 1
    probs = np.ones(1 << c, dtype=np.float64)
    for t in range(c):
        probs *= np.where(bits[t], bit_probs[t], 1.0 - bit_probs[t])
    return ProbSpace(tuple(probs.tolist())), bits


def _product_space(
    spec: SystemGenSpec, rng: np.random.Generator
) -> tuple[ProbSpace, np.ndarray]:
    cap = max(1, int(math.log2(max(2, spec.atom_range[1]))))
    d = min(_draw_d(spec, rng), cap)
    bit_probs = rng.uniform(0.2, 0.8, size=d)
    return _bit_product_space(bit_probs)


def _xor_parity(
    spec: SystemGenSpec, rng: np.random.Generator
) -> tuple[ProbSpace, np.ndarray]:
    cap = max(1, int(math.log2(max(2, spec.atom_range[1]))))
    d = max(2, min(_draw_d(spec, rng), cap + 1))
    space, bits = _bit_product_space(np.full(d - 1, 0.5))
    parity = bits.sum(axis=0) % 2 == 1
    return space, np.vstack([bits, parity])


def _monotone_increasing(
    spec: SystemGenSpec, rng: np.random.Generator
) -> tuple[ProbSpace, np.ndarray]:
    d = _draw_d(spec, rng)
    c = max(2, int(math.log2(max(2, spec.atom_range[1]))))
    bit_probs = rng.uniform(0.3, 0.8, size=c)
    space, bits = _bit_product_space(bit_probs)
    thresholds = rng.integers(1, c + 1, size=d)
    return space, bits.sum(axis=0) >= thresholds[:, None]


_CLUSTER_LEVELS = 4


def _clustered(
    spec: SystemGenSpec, rng: np.random.Generator
) -> tuple[ProbSpace, np.ndarray, DependencyGraph]:
    d = _draw_d(spec, rng)
    atom_hi = spec.atom_range[1]
    levels = _CLUSTER_LEVELS if atom_hi >= _CLUSTER_LEVELS else 2
    max_blocks = max(1, int(math.log(max(2, atom_hi)) / math.log(levels)))
    n_blocks = min(max(1, (d + 1) // 2), max_blocks)
    block_of = np.array_split(np.arange(d), n_blocks)
    # independent block coordinates, each with `levels` positive masses
    level_probs = rng.random((n_blocks, levels)) + 0.1
    level_probs /= level_probs.sum(axis=1, keepdims=True)
    m = levels**n_blocks
    atoms = np.arange(m)
    coords = np.empty((n_blocks, m), dtype=np.int64)
    rest = atoms.copy()
    for b in range(n_blocks):
        coords[b] = rest % levels
        rest //= levels
    masses = np.ones(m, dtype=np.float64)
    for b in range(n_blocks):
        masses *= level_probs[b, coords[b]]
    space = ProbSpace(tuple(masses.tolist()))
    rows = np.empty((d, m), dtype=bool)
    neighbor_sets: list[frozenset[int]] = [frozenset()] * d
    for b, members in enumerate(block_of):
        member_set = frozenset(int(i) for i in members)
        for i in members:
            threshold = int(rng.integers(1, levels))
            rows[i] = coords[b] >= threshold
            neighbor_sets[int(i)] = member_set - {int(i)}
    return space, rows, DependencyGraph(tuple(neighbor_sets))


# ---------------------------------------------------------------------------
# Dependency-family builders
# ---------------------------------------------------------------------------

def _random_dep(d: int, q: float, rng: np.random.Generator) -> DependencyGraph:
    sets: list[set[int]] = [set() for _ in range(d)]
    for i in range(d):
        for j in range(i):
            if rng.random() < q:
                sets[i].add(j)
                sets[j].add(i)
    return DependencyGraph(tuple(frozenset(s) for s in sets))


def _build_dep(
    family: str, d: int, spec: SystemGenSpec, rng: np.random.Generator
) -> DependencyGraph:
    if family == "empty":
        return DependencyGraph.empty(d)
    if family == "complete":
        return DependencyGraph.complete(d)
    if family == "random":
        return _random_dep(d, spec.dep_edge_prob, rng)
    if family == "distance-band":
        return DependencyGraph.distance_band(d, spec.band_width)
    raise AssertionError(f"unreachable dependency family {family!r}")


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def generate_system(spec: SystemGenSpec, seed: int) -> GeneratedSystem:
    """Draw one system, reporting the concrete families used."""
    rng = stream(seed)
    event_family = spec.event_family
    if event_family == "mixed":
        event_family = _CONCRETE_EVENT_FAMILIES[
            int(rng.integers(len(_CONCRETE_EVENT_FAMILIES)))
        ]
    dep_family = spec.dep_family
    if dep_family == "mixed":
        dep_family = _CONCRETE_DEP_FAMILIES[
            int(rng.integers(len(_CONCRETE_DEP_FAMILIES)))
        ]

    if event_family == "clustered":
        space, rows, dep = _clustered(spec, rng)
        system = EventSystem(space, rows)
        return GeneratedSystem(system, dep, "clustered", "block")

    if event_family == "uniform-random":
        space, rows = _uniform_random(spec, rng)
    elif event_family == "product-space":
        space, rows = _product_space(spec, rng)
    elif event_family == "xor-parity":
        space, rows = _xor_parity(spec, rng)
    elif event_family == "monotone-increasing":
        space, rows = _monotone_increasing(spec, rng)
    else:
        raise AssertionError(f"unreachable event family {event_family!r}")
    system = EventSystem(space, rows)
    dep = _build_dep(dep_family, system.d, spec, rng)
    return GeneratedSystem(system, dep, event_family, dep_family)
