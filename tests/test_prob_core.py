"""Finite probability spaces, event systems, and dependency graphs.

Core claims checked here:

* construction validates atoms, indicator matrices, atom index sets and
  dependency sets, raising ``StructuralError`` with zero side effects on
  bad input (non-integral indices included: they are refused, never
  truncated);
* zero-probability events are dropped with a ``DroppedEventsWarning`` and
  ``kept_indices`` maps survivors back to their input positions;
* ``event_probs`` / ``none_occur`` / ``indep_product`` agree with
  exhaustive atom enumeration.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from exindep import prob_core
from exindep import (
    DependencyGraph,
    DroppedEventsWarning,
    EventSystem,
    Hypergraph,
    ProbSpace,
    StructuralError,
    indep_product,
    none_occur,
)
from helpers import PAIR_ATOMS, make_system, system_inputs, xor_system


class TestProbSpace:
    def test_rejects_empty(self):
        with pytest.raises(StructuralError):
            ProbSpace(())

    def test_rejects_negative_mass(self):
        with pytest.raises(StructuralError):
            ProbSpace((0.5, -0.1, 0.6))

    def test_rejects_nan_mass(self):
        with pytest.raises(StructuralError):
            ProbSpace((0.5, float("nan"), 0.5))

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_names_first_bad_atom(self, bad):
        with pytest.raises(StructuralError, match=r"^atom 1 has probability"):
            ProbSpace((0.5, bad, 0.5, -0.2))

    def test_rejects_bad_total(self):
        with pytest.raises(StructuralError):
            ProbSpace((0.5, 0.6))

    def test_rejects_atom_count_over_cap(self, monkeypatch):
        n = 32
        monkeypatch.setattr(prob_core, "DEFAULT_ATOM_CAP", n - 1)
        with pytest.raises(StructuralError):
            ProbSpace((1.0 / n,) * n)

    def test_weights_read_only(self):
        space = ProbSpace(PAIR_ATOMS)
        assert not space.weights.flags.writeable
        assert space.weights.dtype == np.float64
        assert space.n_atoms == 4


class TestEventSystem:
    def test_rejects_no_events(self):
        with pytest.raises(StructuralError):
            EventSystem(ProbSpace((1.0,)), np.zeros((0, 1), dtype=bool))
        with pytest.raises(StructuralError):
            EventSystem.from_atom_sets(ProbSpace((1.0,)), ())

    @pytest.mark.parametrize(
        "matrix",
        [
            np.ones(2, dtype=bool),  # not 2-D
            np.ones((1, 3), dtype=bool),  # wrong column count
            np.ones((1, 2), dtype=np.int64),  # not boolean
        ],
    )
    def test_rejects_malformed_matrix(self, matrix):
        with pytest.raises(StructuralError):
            EventSystem(ProbSpace((0.5, 0.5)), matrix)

    def test_copies_the_callers_matrix(self):
        matrix = np.array([[True, False]])
        system = EventSystem(ProbSpace((0.5, 0.5)), matrix)
        assert matrix.flags.writeable
        assert not system.indicator_matrix.flags.writeable
        matrix[0, 1] = True
        assert system.indicator_matrix.tolist() == [[True, False]]

    def test_drops_zero_probability_events(self):
        space = ProbSpace((0.0, 0.5, 0.5))
        with pytest.warns(DroppedEventsWarning):
            system = EventSystem.from_atom_sets(space, ([1], [0], [2]))
        assert system.d == 2
        assert system.kept_indices == (0, 2)
        assert system.event_probs.tolist() == [0.5, 0.5]

    def test_all_zero_probability_events_rejected(self):
        space = ProbSpace((0.0, 1.0))
        with pytest.warns(DroppedEventsWarning), pytest.raises(
            StructuralError, match="positive probability"
        ):
            EventSystem.from_atom_sets(space, ([0], [0], []))

    def test_event_probs_and_indicators(self):
        system = xor_system()
        assert system.event_probs.tolist() == [0.5, 0.5, 0.5]
        assert not system.event_probs.flags.writeable
        expected = np.array(
            [[False, True, False, True], [False, False, True, True], [False, True, True, False]]
        )
        assert np.array_equal(system.indicator_matrix, expected)

    def test_out_of_range_event_rejected(self):
        with pytest.raises(StructuralError):
            make_system((0.5, 0.5), [{0, 5}])


class TestDependencyGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(StructuralError):
            DependencyGraph((frozenset({0}),))

    def test_rejects_out_of_range_neighbor(self):
        with pytest.raises(StructuralError):
            DependencyGraph((frozenset({1}), frozenset({5})))

    def test_empty_and_complete(self):
        empty = DependencyGraph.empty(3)
        assert all(s == frozenset() for s in empty.neighbor_sets)
        comp = DependencyGraph.complete(3)
        assert comp.neighbor_sets == (
            frozenset({1, 2}),
            frozenset({0, 2}),
            frozenset({0, 1}),
        )

    def test_distance_band(self):
        band = DependencyGraph.distance_band(5, 2)
        assert band.neighbor_sets[0] == frozenset({1, 2})
        assert band.neighbor_sets[2] == frozenset({0, 1, 3, 4})
        assert band.d == 5

    def test_validate_for_dimension_mismatch(self):
        system = xor_system()
        with pytest.raises(StructuralError):
            DependencyGraph.empty(2).validate_for(system)


class TestProbabilityQueries:
    @settings(deadline=None, max_examples=80)
    @given(system_inputs())
    def test_event_probs_match_oracle(self, data):
        atoms, events, _ = data
        system = make_system(atoms, events)
        rows = [frozenset(np.flatnonzero(r).tolist()) for r in system.indicator_matrix]
        assert rows == list(events)
        expected = [oracles.event_prob(atoms, e) for e in events]
        assert system.event_probs.tolist() == expected

    @settings(deadline=None, max_examples=80)
    @given(system_inputs())
    def test_none_occur_and_indep_product_match_oracle(self, data):
        atoms, events, _ = data
        system = make_system(atoms, events)
        assert none_occur(system) == pytest.approx(
            oracles.none_prob(atoms, events), abs=1e-12
        )
        assert indep_product(system) == pytest.approx(
            oracles.indep_none(atoms, events), abs=1e-12
        )


class TestIndexInput:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Hypergraph.from_edges(4, 3, [[0, 1, 2.9]]),
            lambda: Hypergraph(4, 3, [1.7]),
            lambda: EventSystem.from_atom_sets(ProbSpace((0.5, 0.5)), ([0.5],)),
            lambda: DependencyGraph((frozenset({1.5}), frozenset())),
        ],
        ids=["from_edges", "ranks", "from_atom_sets", "dependency_graph"],
    )
    def test_non_integral_entry_rejected(self, build):
        with pytest.raises(StructuralError, match="must be integers"):
            build()
