"""Exact finite probability spaces and ordered event systems.

Conventions
-----------
* A probability space is a finite list of atom probabilities summing to 1.
* An event system is an *ordered* list of events ``A_1, ..., A_d`` on one
  space, stored as a boolean ``d × n_atoms`` indicator matrix: row ``i``
  marks the atoms of ``A_i``.  An event's probability is the exact
  (compensated) sum of its atoms' masses.  Ordering matters: every
  downstream coefficient sums over predecessor indices ``[i-1]``.
* A dependency graph assigns each index ``i`` a set ``D_i ⊆ [d] \\ {i}`` of
  "strongly dependent" partners.  Directed graphs are allowed: ``j ∈ D_i``
  does not require ``i ∈ D_j``.

Events of zero probability are dropped when a system is built (with a
warning that reports their indices): every coefficient formula conditions
on the events, so zero-probability members are meaningless.  All values are
immutable after construction and safe to share across parallel workers.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterable

import numpy as np

from .errors import DroppedEventsWarning, StructuralError

__all__ = [
    "DEFAULT_ATOM_CAP",
    "PROB_SUM_TOL",
    "ProbSpace",
    "EventSystem",
    "DependencyGraph",
    "none_occur",
    "indep_product",
]

#: Default cap on the number of atoms: every coefficient iterates all atoms,
#: so exactness is bought by keeping spaces small.
DEFAULT_ATOM_CAP = 2**20

#: Tolerance for "atom probabilities sum to one".
PROB_SUM_TOL = 1e-12

#: Log-space product kicks in beyond this many factors.
_LOG_PRODUCT_THRESHOLD = 64


def _as_indices(values, what: str) -> np.ndarray:
    """``values`` as an int64 array, refusing any entry that is not an integer.

    Integer-valued floats pass; ``2.9`` raises instead of truncating to 2.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "biu":
        if arr.dtype.kind != "f":
            raise StructuralError(f"{what} must be integers, got dtype {arr.dtype}")
        flat = arr.reshape(-1)
        fractional = np.flatnonzero(~np.isfinite(flat) | (np.trunc(flat) != flat))
        if fractional.size:
            bad = flat[fractional[0]]
            raise StructuralError(f"{what} must be integers, got {float(bad)!r}")
    return arr.astype(np.int64)


@dataclass(frozen=True)
class ProbSpace:
    """A finite probability space: atom ``a`` carries mass ``atom_probs[a]``.

    Invariants (checked at construction): every mass lies in ``[0, 1]``,
    the compensated sum of all masses equals 1 within ``PROB_SUM_TOL``, and
    the atom count does not exceed ``DEFAULT_ATOM_CAP``.
    """

    atom_probs: tuple[float, ...]

    def __post_init__(self) -> None:
        w = np.array(self.atom_probs, dtype=np.float64)
        probs = tuple(w.tolist())
        object.__setattr__(self, "atom_probs", probs)
        if len(probs) == 0:
            raise StructuralError("a probability space needs at least one atom")
        if len(probs) > DEFAULT_ATOM_CAP:
            raise StructuralError(
                f"{len(probs)} atoms exceed the configured cap {DEFAULT_ATOM_CAP}"
            )
        if np.isnan(w).any() or w.min() < 0.0 or w.max() > 1.0:
            a = int(np.flatnonzero(~((w >= 0.0) & (w <= 1.0)))[0])
            raise StructuralError(f"atom {a} has probability {probs[a]!r} outside [0, 1]")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise StructuralError(f"atom probabilities sum to {total!r}, not 1")

    @property
    def n_atoms(self) -> int:
        return len(self.atom_probs)

    @cached_property
    def weights(self) -> np.ndarray:
        """Atom masses as a read-only float64 vector."""
        w = np.asarray(self.atom_probs, dtype=np.float64)
        w.flags.writeable = False
        return w


@dataclass(frozen=True, eq=False)
class EventSystem:
    """An ordered system ``A_1, ..., A_d`` of positive-probability events.

    ``indicator_matrix`` is a boolean ``d × n_atoms`` matrix whose row ``i``
    marks the atoms of ``A_i``; the system keeps a read-only copy.  Build
    from atom index sets with :meth:`from_atom_sets`.
    Events of zero probability are removed at construction — every mixing
    and declustering formula conditions on the events, so zero-probability
    members carry no information — and a :class:`DroppedEventsWarning`
    reports the dropped positions; a system left with no event raises
    :class:`StructuralError`.
    ``kept_indices`` maps each surviving event back to its row in the
    input matrix, so callers can remap auxiliary per-event structures;
    ``event_probs[i]`` is ``P(A_i)``, a read-only vector.
    """

    space: ProbSpace
    indicator_matrix: np.ndarray
    event_probs: np.ndarray = field(init=False, repr=False)
    kept_indices: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = np.array(self.indicator_matrix)
        if m.dtype != np.bool_:
            raise StructuralError(f"indicator matrix must be boolean, got {m.dtype}")
        if m.ndim != 2:
            raise StructuralError(f"indicator matrix must be 2-D, got shape {m.shape}")
        if m.shape[0] == 0:
            raise StructuralError("an event system needs at least one event")
        if m.shape[1] != self.space.n_atoms:
            raise StructuralError(
                f"indicator matrix has {m.shape[1]} columns for a "
                f"{self.space.n_atoms}-atom space"
            )
        weights = self.space.weights
        probs = np.array([math.fsum(weights[row].tolist()) for row in m])
        keep = probs > 0.0
        if not keep.all():
            dropped = np.flatnonzero(~keep).tolist()
            warnings.warn(
                f"dropped zero-probability events at indices {dropped}",
                DroppedEventsWarning,
                stacklevel=2,
            )
            if not keep.any():
                raise StructuralError(
                    "an event system needs at least one event of positive probability"
                )
            m, probs = m[keep], probs[keep]
        m.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "indicator_matrix", m)
        object.__setattr__(self, "event_probs", probs)
        object.__setattr__(self, "kept_indices", tuple(np.flatnonzero(keep).tolist()))

    @classmethod
    def from_atom_sets(
        cls, space: ProbSpace, sets: Iterable[Iterable[int]]
    ) -> "EventSystem":
        """System whose event ``i`` is the set of atom indices ``sets[i]``."""
        rows = [list(s) for s in sets]
        atoms = _as_indices([a for row in rows for a in row], "atom indices")
        outside = np.flatnonzero((atoms < 0) | (atoms >= space.n_atoms))
        if outside.size:
            raise StructuralError(
                f"atom index {atoms[outside[0]]} out of range for a "
                f"{space.n_atoms}-atom space"
            )
        m = np.zeros((len(rows), space.n_atoms), dtype=bool)
        m[np.repeat(np.arange(len(rows)), [len(row) for row in rows]), atoms] = True
        return cls(space, m)

    @property
    def d(self) -> int:
        """Number of (surviving) events."""
        return self.indicator_matrix.shape[0]


@dataclass(frozen=True)
class DependencyGraph:
    """Per-index neighbour sets ``D_i ⊆ [d] \\ {i}`` (directed allowed)."""

    neighbor_sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        raw = [list(s) for s in self.neighbor_sets]
        flat = _as_indices([j for s in raw for j in s], "dependency indices")
        flat = iter(flat.tolist())
        sets = tuple(frozenset(islice(flat, len(s))) for s in raw)
        object.__setattr__(self, "neighbor_sets", sets)
        d = len(sets)
        for i, s in enumerate(sets):
            if i in s:
                raise StructuralError(f"D_{i} contains its own index")
            for j in s:
                if not (0 <= j < d):
                    raise StructuralError(f"D_{i} contains out-of-range index {j}")

    @property
    def d(self) -> int:
        return len(self.neighbor_sets)

    @classmethod
    def empty(cls, d: int) -> "DependencyGraph":
        return cls(tuple(frozenset() for _ in range(d)))

    @classmethod
    def complete(cls, d: int) -> "DependencyGraph":
        full = frozenset(range(d))
        return cls(tuple(full - {i} for i in range(d)))

    @classmethod
    def distance_band(cls, d: int, width: int) -> "DependencyGraph":
        """``D_i = {j ≠ i : |i - j| ≤ width}``."""
        return cls(
            tuple(
                frozenset(
                    j for j in range(max(0, i - width), min(d, i + width + 1)) if j != i
                )
                for i in range(d)
            )
        )

    def validate_for(self, system: EventSystem) -> None:
        if self.d != system.d:
            raise StructuralError(
                f"dependency graph has {self.d} entries for a {system.d}-event system"
            )


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def none_occur(system: EventSystem) -> float:
    """Exact ``P(∩_i Ā_i)``: total mass of atoms outside every event."""
    occupied = system.indicator_matrix.any(axis=0)
    free = np.flatnonzero(~occupied)
    return math.fsum(system.space.atom_probs[a] for a in free)


def indep_product(system: EventSystem) -> float:
    """``∏_i (1 - P(A_i))`` — the value the system would have under independence.

    Accumulated in log space once the system has more than 64 events, to
    keep long products from losing relative accuracy.
    """
    p = system.event_probs
    if np.any(p >= 1.0):
        return 0.0
    if p.size <= _LOG_PRODUCT_THRESHOLD:
        out = 1.0
        for q in p:
            out *= 1.0 - q
        return out
    return math.exp(math.fsum(math.log1p(-q) for q in p))
