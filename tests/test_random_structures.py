"""Random graphs/hypergraphs and their per-site count statistics.

Core claims checked here:

* generation is seed-deterministic, structurally valid (symmetric
  loop-free adjacency; sorted, strictly increasing hyperedge rows), and a
  2-uniform hypergraph coincides with the graph drawn at the same seed;
* every statistic (degrees, hyper-degrees, codegrees, clique counts,
  conditional-expectation surrogates, common-neighbour counts) matches a
  brute-force recount via ``itertools`` on small instances, with the
  complete-graph values known in closed form;
* the truncation check compares each low-order count to its typical-value
  threshold and reports the first offending subset;
* hypergraphs store colex ranks: ``from_edges`` validates vertex rows and
  round-trips them, and the rank-based incidence kernel behind
  ``hyper_degrees``/``codegrees`` equals a brute-force recount for every
  ``s < k ≤ n ≤ 11`` in both draw regimes;
* resource budgets trip ``ResourceBudgetError`` before any large
  allocation happens.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

import oracles
from exindep import random_structures
from exindep import (
    DomainError,
    Graph,
    Hypergraph,
    ResourceBudgetError,
    StatVector,
    StructuralError,
    clique_cond_expectation,
    clique_counts,
    codegrees,
    common_neighbours,
    gen_graph,
    gen_hypergraph,
    hyper_degrees,
    surrogate_deviation,
    truncation_event,
)


def _complete_graph(n: int) -> Graph:
    adj = ~np.eye(n, dtype=bool)
    return Graph(n=n, adjacency=adj)


def _graph_from_edges(n: int, edges) -> Graph:
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return Graph(n=n, adjacency=adj)


#: (n, p, seed) cases: both draw regimes, p ∈ {0, 1} and n ∈ {1, 2, 3}.
_GRAPH_GRID = [
    (n, p, seed)
    for n in (1, 2, 3, 7, 14)
    for p in (0.0, 0.03, 0.08, 0.5, 1.0)
    for seed in (1, 2, 3)
]


def _brute_cliques(g: Graph, k: int) -> list[int]:
    adj = g.adjacency
    counts = [0] * g.n
    for verts in combinations(range(g.n), k):
        if all(adj[a, b] for a, b in combinations(verts, 2)):
            for v in verts:
                counts[v] += 1
    return counts


def _brute_common_neighbours(g: Graph, h: int) -> dict[tuple[int, ...], int]:
    adj = g.adjacency
    out = {}
    for subset in combinations(range(g.n), h):
        out[subset] = sum(
            1
            for w in range(g.n)
            if w not in subset and all(adj[w, v] for v in subset)
        )
    return out


class TestGeneration:
    def test_graph_is_valid_and_deterministic(self):
        g1 = gen_graph(40, 0.3, 11)
        g2 = gen_graph(40, 0.3, 11)
        assert np.array_equal(g1.adjacency, g2.adjacency)
        assert not np.array_equal(g1.adjacency, gen_graph(40, 0.3, 12).adjacency)
        assert np.array_equal(g1.adjacency, g1.adjacency.T)
        assert not g1.adjacency.diagonal().any()

    def test_graph_rejects_asymmetric(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(StructuralError):
            Graph(n=3, adjacency=adj)

    def test_graph_rejects_loops(self):
        adj = np.eye(3, dtype=bool)
        with pytest.raises(StructuralError):
            Graph(n=3, adjacency=adj)

    def test_edge_probability_extremes(self):
        assert gen_graph(10, 0.0, 1).edge_count == 0
        assert gen_graph(10, 1.0, 1).edge_count == 45

    def test_density_near_p(self):
        g = gen_graph(120, 0.3, 99)
        total = math.comb(120, 2)
        assert abs(g.edge_count / total - 0.3) < 0.03

    def test_sparse_and_dense_regimes_both_honest(self):
        # p just below the sparse cutoff vs. well above it; both should
        # land near their expectations
        for p, seed in ((0.05, 5), (0.5, 5)):
            g = gen_graph(150, p, seed)
            total = math.comb(150, 2)
            assert abs(g.edge_count / total - p) < 0.02

    def test_two_uniform_hypergraph_matches_graph(self):
        # dense and sparse draws, both ends of p, and the smallest n
        cases = [
            (50, 0.2, 77), (50, 0.03, 5), (60, 0.08, 11), (12, 0.0, 1),
            (12, 1.0, 1), (2, 0.5, 3), (2, 1.0, 3), (2, 0.0, 3),
        ]
        for n, p, seed in cases:
            g = gen_graph(n, p, seed)
            hg = gen_hypergraph(n, 2, p, seed)
            pairs = {tuple(int(v) for v in row) for row in hg.edges}
            graph_pairs = {
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if g.adjacency[i, j]
            }
            assert pairs == graph_pairs, (n, p, seed)
        lone = gen_graph(1, 0.5, 3)  # C(1, 2) = 0 candidate pairs
        assert lone.adjacency.tolist() == [[False]]

    def test_hypergraph_rows_sorted_strictly(self):
        hg = gen_hypergraph(20, 3, 0.2, 3)
        assert hg.k == 3
        rows = hg.edges
        assert (np.diff(rows, axis=1) > 0).all()
        # rows are pairwise distinct
        assert len({tuple(r) for r in rows.tolist()}) == rows.shape[0]

    def test_budget_enforced(self):
        with pytest.raises(ResourceBudgetError):
            gen_hypergraph(1000, 5, 0.5, 0, budget=10**6)


class TestDegreeStatistics:
    def test_graph_degrees_recount(self):
        g = gen_graph(30, 0.4, 21)
        brute = [sum(bool(g.adjacency[v, w]) for w in range(30)) for v in range(30)]
        assert g.degrees.dtype == np.int64
        assert g.degrees.tolist() == brute
        sv = StatVector(kind="hyper_degree", n=g.n, values=g.degrees)
        assert sv.values.tolist() == g.adjacency.sum(axis=1).tolist()

    def test_hyper_degrees_recount(self):
        hg = gen_hypergraph(15, 3, 0.3, 8)
        sv = hyper_degrees(hg)
        want = [0] * 15
        for row in hg.edges.tolist():
            for v in row:
                want[v] += 1
        assert sv.values.tolist() == want

    def test_codegrees_recount(self):
        hg = gen_hypergraph(12, 4, 0.35, 13)
        edge_sets = [frozenset(r) for r in hg.edges.tolist()]
        for s in (1, 2, 3):
            sv = codegrees(hg, s)
            labels = list(oracles.colex_subsets(12, s))
            assert len(sv.values) == len(labels) == math.comb(12, s)
            for idx, subset in enumerate(labels):
                want = sum(1 for es in edge_sets if frozenset(subset) <= es)
                assert sv.values[idx] == want, f"s={s}, subset={subset}"

    def test_codegrees_complete_hypergraph(self):
        # all C(4,3) triples present: every vertex sits in 3 edges, every
        # pair in 2
        edges = np.array(sorted(combinations(range(4), 3)), dtype=np.int64)
        hg = Hypergraph.from_edges(4, 3, edges)
        assert codegrees(hg, 1).values.tolist() == [3, 3, 3, 3]
        assert codegrees(hg, 2).values.tolist() == [2] * 6

    def test_codegree_labels_are_colex_subsets(self):
        labels = list(oracles.colex_subsets(6, 2))
        assert len(labels) == math.comb(6, 2)
        assert labels[0] == (0, 1)
        # colex order: all pairs inside {0..largest} come before larger
        assert labels[1] == (0, 2) and labels[2] == (1, 2)
        columns = [np.array(c, dtype=np.int64) for c in zip(*labels)]
        ranks = random_structures._colex_ranks(columns, 6)
        assert ranks.tolist() == list(range(len(labels)))

    def test_statvector_validates_size(self):
        with pytest.raises(StructuralError):
            StatVector(kind="hyper_degree", n=5, values=np.zeros(4, dtype=np.int64))

    def test_statvector_leaves_callers_array_writeable(self):
        a = np.arange(5, dtype=np.int64)
        sv = StatVector(kind="hyper_degree", n=5, values=a)
        assert a.flags.writeable
        assert not sv.values.flags.writeable
        a[0] = 7
        assert sv.values[0] == 0


class TestRankStorage:
    def test_from_edges_round_trips_unsorted_duplicates(self):
        rows = [[1, 2, 3], [0, 1, 2], [1, 2, 3], [0, 2, 4]]
        hg = Hypergraph.from_edges(5, 3, rows)
        assert hg.edge_count == 4
        assert hg.edges.tolist() == rows
        # colex rank Σ_t C(v_t, t): {1,2,3} → 1 + 1 + 1, {0,1,2} → 0, ...
        assert hg.ranks.tolist() == [3, 0, 3, 5]
        assert codegrees(hg, 2).values[2] == 3  # {1, 2} sits in three rows
        with pytest.raises(ValueError):
            hg.ranks[0] = 1
        with pytest.raises(ValueError):
            hg.edges[0, 0] = 0
        assert Hypergraph.from_edges(5, 3, []).edges.shape == (0, 3)

    def test_rank_out_of_range_raises(self):
        assert Hypergraph(n=5, k=3, ranks=[0, 9]).edge_count == 2
        for bad in ([10], [-1, 2]):
            with pytest.raises(StructuralError, match="edge ranks"):
                Hypergraph(n=5, k=3, ranks=bad)

    @pytest.mark.parametrize(
        "n, k, rows, message",
        [
            (5, 3, [[0, 1, 5]], "edge vertices out of range"),
            (5, 3, [[-1, 1, 2]], "edge vertices out of range"),
            (5, 3, [[0, 2, 2]], "edge rows must be strictly increasing"),
            (5, 3, [[2, 1, 3]], "edge rows must be strictly increasing"),
            (5, 1, [[0]], "need 2 ≤ k ≤ n"),
            (2, 3, [[0, 1, 2]], "need 2 ≤ k ≤ n"),
        ],
    )
    def test_from_edges_row_errors(self, n, k, rows, message):
        with pytest.raises(StructuralError, match=message):
            Hypergraph.from_edges(n, k, rows)


class TestIncidenceKernel:
    @pytest.mark.parametrize("p", [0.0, 0.03, 0.08, 0.3, 0.5, 1.0])
    def test_counts_match_brute_force(self, p):
        # p < SPARSE_THRESHOLD exercises the geometric-gap draw
        for n in range(2, 12):
            for k in range(2, n + 1):
                hg = gen_hypergraph(n, k, p, 31 * n + k)
                rows = [tuple(r) for r in hg.edges.tolist()]
                assert hyper_degrees(hg).values.tolist() == [
                    sum(v in r for r in rows) for v in range(n)
                ]
                for s in range(1, k):
                    want: dict[tuple[int, ...], int] = {}
                    for r in rows:
                        for sub in combinations(r, s):
                            want[sub] = want.get(sub, 0) + 1
                    got = codegrees(hg, s).values.tolist()
                    assert got == [
                        want.get(sub, 0)
                        for sub in oracles.colex_subsets(n, s)
                    ], f"n={n}, k={k}, s={s}, p={p}"

    def test_table_budget_checked_before_building(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("incidence table built despite the budget")

        monkeypatch.setattr(random_structures, "_incidence_table", refuse)
        hg = gen_hypergraph(100, 4, 0.0, 1)
        # C(100,2) slots fit the budget, C(99,3)·C(4,2) = 941094 cells do not
        with pytest.raises(ResourceBudgetError, match="941094 cells"):
            codegrees(hg, 2, budget=10**5)

    def test_gen_graph_budget_checked_before_drawing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("ranks drawn despite the budget")

        monkeypatch.setattr(random_structures, "_present_ranks", refuse)
        monkeypatch.setattr(random_structures, "_dense_mask", refuse)
        for p in (0.05, 0.5, 1.0):
            with pytest.raises(ResourceBudgetError, match="pairs exceed the budget"):
                gen_graph(10**5, p, 0)


class TestCliqueStatistics:
    def test_complete_graph_closed_forms(self):
        g = _complete_graph(5)
        assert clique_counts(g, 3).values.tolist() == [6] * 5  # C(4,2)
        assert clique_counts(g, 4).values.tolist() == [4] * 5  # C(4,3)
        assert clique_counts(g, 5).values.tolist() == [1] * 5

    def test_matches_brute_force(self):
        for seed in (1, 2, 3):
            g = gen_graph(14, 0.5, seed)
            for k in (3, 4, 5):
                got = clique_counts(g, k).values.tolist()
                assert got == _brute_cliques(g, k), f"seed={seed}, k={k}"
        # the float32 square for k = 3, over both draw regimes, empty and
        # complete graphs, and the smallest n
        for n, p, seed in _GRAPH_GRID:
            g = gen_graph(n, p, seed)
            sv = clique_counts(g, 3)
            assert sv.values.dtype == np.int64
            assert sv.values.tolist() == _brute_cliques(g, 3), (n, p, seed)

    def test_complete_graph_past_float32_row_sums(self):
        # each row sum (n-1)(n-2) of A²∘A passes 2^24 = 16777216 at n = 4098
        n = 4098
        assert (n - 1) * (n - 2) > 2**24
        g = _complete_graph(n)
        assert clique_counts(g, 3).values.tolist() == [math.comb(n - 1, 2)] * n
        shared = common_neighbours(g, 2).values
        assert shared.size == math.comb(n, 2)
        assert shared.min() == shared.max() == n - 2

    def test_row_sums_kept_in_float64(self, monkeypatch):
        # every entry is exact in float32, but row 0's sum 2^24 + 1 + 1 is
        # not: a float32 row sum rounds it to 2^24, one triangle short
        def square(g):
            out = np.ones((g.n, g.n), dtype=np.float32)
            out[:, 1] = 2.0**24
            return out

        monkeypatch.setattr(random_structures, "_adjacency_square", square)
        got = clique_counts(_complete_graph(4), 3).values.tolist()
        assert got == [8388609, 1, 8388609, 8388609]

    def test_path_graph_has_no_triangles(self):
        g = _graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert clique_counts(g, 3).values.tolist() == [0, 0, 0, 0]

    def test_cap_enforced(self):
        g = gen_graph(12, 0.5, 1)
        with pytest.raises(DomainError):
            clique_counts(g, 7)

    def test_cond_expectation_formula(self):
        g = gen_graph(25, 0.4, 17)
        k, p = 3, 0.4
        sv = clique_cond_expectation(g, k, p)
        assert sv.kind == "cond_expectation"
        degs = g.adjacency.sum(axis=1)
        want = [math.comb(int(m), k - 1) * p ** math.comb(k - 1, 2) for m in degs]
        assert sv.values == pytest.approx(want, rel=1e-12)

    def test_cond_expectation_sure_edges(self):
        # with p = 1 the surrogate equals the true clique count on a
        # complete graph
        g = _complete_graph(5)
        sv = clique_cond_expectation(g, 3, 1.0)
        assert sv.values.tolist() == [6.0] * 5


class TestCommonNeighbours:
    def test_h1_is_degrees(self):
        g = gen_graph(20, 0.3, 4)
        assert common_neighbours(g, 1).values.tolist() == g.degrees.tolist()

    def test_complete_graph_h2(self):
        g = _complete_graph(5)
        assert common_neighbours(g, 2).values.tolist() == [3] * 10

    @pytest.mark.parametrize("h", [2, 3])
    def test_matches_brute_force(self, h):
        cases = [(12, 0.5, 31)] + (_GRAPH_GRID if h == 2 else [])
        for n, p, seed in cases:
            g = gen_graph(n, p, seed)
            sv = common_neighbours(g, h)
            assert sv.values.dtype == np.int64
            brute = _brute_common_neighbours(g, h)
            labels = list(oracles.colex_subsets(n, h))
            assert len(sv.values) == len(labels) == len(brute)
            for idx, subset in enumerate(labels):
                assert sv.values[idx] == brute[subset], (n, p, seed, subset)

    def test_cap_enforced(self):
        g = gen_graph(10, 0.5, 1)
        with pytest.raises(DomainError):
            common_neighbours(g, 4)


class TestTruncationEvent:
    def test_holds_on_sparse_graph(self):
        g = gen_graph(60, 0.2, 9)
        check = truncation_event(g, 2, 0.2)
        # manual recount of level 1: every degree below threshold
        thr = 60 * 0.2 + math.sqrt(2 * 1 * 60 * 0.2 * 0.8 * math.log(60))
        degs = g.adjacency.sum(axis=1)
        assert check.holds == bool((degs <= thr).all())

    def test_violation_reports_first_subset(self):
        # a star saturates vertex 0's degree beyond any typical threshold
        n = 30
        edges = [(0, v) for v in range(1, n)]
        g = _graph_from_edges(n, edges)
        check = truncation_event(g, 2, 0.05)
        assert not check.holds
        assert check.level == 1
        assert check.subset == (0,)

    def test_h3_checks_both_levels(self):
        g = _complete_graph(12)
        check = truncation_event(g, 3, 0.9)
        # complete-graph codegrees are maximal; with p = 0.9 the level-2
        # threshold 12·0.81 + ... exceeds the actual count 10, so only the
        # level-1 check can fail; verify consistency with a manual check
        thr1 = 12 * 0.9 + math.sqrt(2 * 1 * 12 * 0.9 * 0.1 * math.log(12))
        thr2 = 12 * 0.81 + math.sqrt(2 * 2 * 12 * 0.81 * 0.19 * math.log(12))
        manual = (11 <= thr1) and (10 <= thr2)
        assert check.holds == manual


class TestSurrogateDeviation:
    def test_single_vertex_pair_counts(self):
        # 3-uniform on 4 vertices with two edges containing vertex 0:
        # X_{0,1} counts edges holding both 0 and 1
        edges = np.array([[0, 1, 2], [0, 1, 3]], dtype=np.int64)
        hg = Hypergraph.from_edges(4, 3, edges)
        # expected pair count is C(n-2, k-2)·p = 2·p
        got = surrogate_deviation(hg, 0, 0.5)
        # partner 1 appears twice; partners 2 and 3 once each;
        # deviations |2-1|, |1-1|, |1-1| and vertex 0 itself excluded
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force(self):
        hg = gen_hypergraph(12, 3, 0.4, 6)
        p = 0.4
        expected_pair = math.comb(10, 1) * p
        edge_sets = [frozenset(r) for r in hg.edges.tolist()]
        for i in (0, 5, 11):
            worst = 0.0
            for j in range(12):
                if j == i:
                    continue
                count = sum(1 for es in edge_sets if i in es and j in es)
                worst = max(worst, abs(count - expected_pair))
            assert surrogate_deviation(hg, i, p) == pytest.approx(worst, rel=1e-12)
