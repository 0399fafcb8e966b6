"""Builders and hypothesis strategies shared across the test modules."""

from __future__ import annotations

from typing import Iterable, Sequence

from hypothesis import strategies as st

from exindep import DependencyGraph, EventSystem, ProbSpace

# Canonical three-bit parity system: two independent fair bits plus their
# XOR.  Atoms 0..3 are the bit patterns 00, 01, 10, 11; event 0 is
# {bit 0 set}, event 1 is {bit 1 set}, event 2 is {odd parity}.
XOR_ATOMS: tuple[float, ...] = (0.25, 0.25, 0.25, 0.25)
XOR_EVENTS: tuple[frozenset[int], ...] = (
    frozenset({1, 3}),
    frozenset({2, 3}),
    frozenset({1, 2}),
)

# Two overlapping events on a four-atom space, used to pin the
# total-variation mixing coefficient.
PAIR_ATOMS: tuple[float, ...] = (0.4, 0.1, 0.2, 0.3)
PAIR_EVENTS: tuple[frozenset[int], ...] = (frozenset({2, 3}), frozenset({1, 3}))


def make_system(
    atoms: Sequence[float], events: Iterable[Iterable[int]]
) -> EventSystem:
    space = ProbSpace(tuple(atoms))
    return EventSystem.from_atom_sets(space, events)


def xor_system() -> EventSystem:
    return make_system(XOR_ATOMS, XOR_EVENTS)


def correlated_pair() -> EventSystem:
    return make_system(PAIR_ATOMS, PAIR_EVENTS)


def empty_dep(d: int) -> DependencyGraph:
    return DependencyGraph.empty(d)


def complete_dep(d: int) -> DependencyGraph:
    return DependencyGraph.complete(d)


def as_library(
    atoms: Sequence[float],
    events: Sequence[frozenset[int]],
    dep: Sequence[frozenset[int]],
) -> tuple[EventSystem, DependencyGraph]:
    return make_system(atoms, events), DependencyGraph(tuple(dep))


@st.composite
def system_inputs(
    draw,
    max_atoms: int = 10,
    max_events: int = 5,
    symmetric_dep: bool | None = None,
) -> tuple[tuple[float, ...], list[frozenset[int]], list[frozenset[int]]]:
    """Random (atoms, events, dependency sets) triple.

    Atom masses come from integer weights so they are strictly positive
    and sum to 1 up to float division error; every event is nonempty, so
    no event is dropped at construction time.
    """
    m = draw(st.integers(2, max_atoms))
    d = draw(st.integers(1, max_events))
    weights = draw(st.lists(st.integers(1, 50), min_size=m, max_size=m))
    total = sum(weights)
    atoms = tuple(w / total for w in weights)
    events = [
        frozenset(draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m)))
        for _ in range(d)
    ]
    dep: list[frozenset[int]] = []
    for i in range(d):
        others = [j for j in range(d) if j != i]
        dep.append(frozenset(draw(st.sets(st.sampled_from(others)))) if others else frozenset())
    symmetric = draw(st.booleans()) if symmetric_dep is None else symmetric_dep
    if symmetric:
        closed = [set(s) for s in dep]
        for i in range(d):
            for j in dep[i]:
                closed[j].add(i)
        dep = [frozenset(s) for s in closed]
    return atoms, events, dep
