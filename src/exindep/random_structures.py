"""Seeded binomial graphs/hypergraphs and their exact count statistics.

Generation
----------
``gen_graph(n, p, seed)`` and ``gen_hypergraph(n, k, p, seed)`` include each
pair / ``k``-subset independently with probability ``p``.  Subsets are
enumerated in colexicographic order (the rank of ``{v_1 < ... < v_k}`` is
``Σ_t C(v_t, t)``), and the draw for rank ``r`` is the ``r``-th variate of a
counter-based stream keyed by the seed — so edge draws are independent of
generation order and chunking.  Two regimes share that stream contract but
consume it differently (documented, both seed-stable):

* dense (``p ≥ 0.1``): one uniform per rank, edge present iff ``u < p``,
  decided on the raw 64-bit word without forming ``u``;
* sparse (``p < 0.1``): geometric gaps between successive present ranks.

A graph and a 2-uniform hypergraph built from the same seed coincide
exactly (same rank order, same stream).  A :class:`Hypergraph` stores the
colex ranks of its edges as drawn; its vertex rows are unranked only when
``edges`` is read.

Statistics
----------
Exact integer counts per labeled subset: degrees, codegrees of ``s``-sets
(number of edges containing the set), per-vertex ``k``-clique
counts (via neighbourhood-restricted enumeration), degree-conditional
clique expectations, common-neighbour counts of ``h``-sets, the typicality
event bounding all lower-order common-neighbour counts, and the worst
pair-codegree deviation used as a surrogate-independence diagnostic.

Codegrees and hyper-degrees come from one incidence kernel that reads the
stored ranks without unranking them.  In colex order, the edges sharing
their ``j`` largest vertices form contiguous blocks, so on sorted ranks
(a copy is sorted when they are not; counts do not depend on order) each
level ``j < s`` is one ``searchsorted`` of the block starts and one
``bincount`` of the edges by (block, rank of the rest), pushed through a
cached table of ``s``-subset ranks; level ``s`` is the block sizes.

Subset enumeration is budgeted: any generator or statistic that would
enumerate or inspect more than ``budget`` sets or table cells (default
10^8) raises a :class:`~exindep.errors.ResourceBudgetError` before it
allocates, instead of silently grinding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from ._rng import stream
from .errors import DomainError, ResourceBudgetError, StructuralError
from .prob_core import _as_indices

__all__ = [
    "DEFAULT_BUDGET",
    "SPARSE_THRESHOLD",
    "Graph",
    "Hypergraph",
    "StatVector",
    "TruncationCheck",
    "gen_graph",
    "gen_hypergraph",
    "hyper_degrees",
    "codegrees",
    "clique_counts",
    "clique_cond_expectation",
    "common_neighbours",
    "truncation_event",
    "surrogate_deviation",
]

#: Default cap on the number of subset inspections a statistic may perform.
DEFAULT_BUDGET = 10**8

#: Densities below this use geometric skip sampling.
SPARSE_THRESHOLD = 0.1

#: Largest clique order supported (desk-scale experiments).
DEFAULT_CLIQUE_CAP = 6

#: Largest common-neighbour set size supported.
DEFAULT_COMMON_NEIGHBOUR_CAP = 3


def _charge_budget(amount: int, what: str, budget: int = DEFAULT_BUDGET) -> None:
    """Refuse work whose ``amount`` of cells or inspections exceeds ``budget``."""
    if amount > budget:
        raise ResourceBudgetError(f"{what} exceed the budget {budget}")


# ---------------------------------------------------------------------------
# Structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph on ``n`` vertices with boolean adjacency."""

    n: int
    adjacency: np.ndarray

    def __post_init__(self) -> None:
        adj = np.array(self.adjacency, dtype=bool)
        if adj.shape != (self.n, self.n):
            raise StructuralError(
                f"adjacency shape {adj.shape} does not match n = {self.n}"
            )
        if np.any(np.diag(adj)):
            raise StructuralError("self-loops are not allowed")
        if not np.array_equal(adj, adj.T):
            raise StructuralError("adjacency must be symmetric")
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = self.adjacency.sum(axis=1).astype(np.int64)
        deg.flags.writeable = False
        return deg

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """``k``-uniform hypergraph stored as the colex ranks of its edges.

    ``ranks[i]`` is the colexicographic rank ``Σ_t C(v_t, t)`` of the
    ``i``-th edge ``{v_1 < ... < v_k}`` among the ``k``-subsets of
    ``range(n)``; rows keep their order, duplicates included.  ``edges``
    unranks them on first use into the sorted ``(m, k)`` vertex matrix.
    Build from vertex rows with :meth:`from_edges`.
    """

    n: int
    k: int
    ranks: np.ndarray

    def __post_init__(self) -> None:
        if self.k < 2 or self.k > self.n:
            raise StructuralError(f"need 2 ≤ k ≤ n, got k = {self.k}, n = {self.n}")
        ranks = _as_indices(self.ranks, "edge ranks").reshape(-1)
        total = math.comb(self.n, self.k)
        if ranks.size and (ranks.min() < 0 or ranks.max() >= total):
            raise StructuralError(
                f"edge ranks must lie in [0, C({self.n},{self.k}) = {total})"
            )
        ranks.flags.writeable = False
        object.__setattr__(self, "ranks", ranks)

    @classmethod
    def from_edges(cls, n: int, k: int, edges) -> Hypergraph:
        """Hypergraph whose edges are the rows of a vertex matrix.

        Each row must be strictly increasing with vertices in ``range(n)``.
        """
        edges = _as_indices(edges, "edge vertices").reshape(-1, k)
        if k < 2 or k > n:
            raise StructuralError(f"need 2 ≤ k ≤ n, got k = {k}, n = {n}")
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise StructuralError("edge vertices out of range")
            if np.any(np.diff(edges, axis=1) <= 0):
                raise StructuralError("edge rows must be strictly increasing")
        return cls(n=n, k=k, ranks=_colex_ranks(list(edges.T), n))

    @cached_property
    def edges(self) -> np.ndarray:
        """Sorted vertex rows of the edges, one per entry of ``ranks``."""
        if self.ranks.size:
            edges = np.column_stack(_unrank_colex(self.ranks, self.n, self.k))
        else:
            edges = np.empty((0, self.k), dtype=np.int64)
        edges.flags.writeable = False
        return edges

    @property
    def edge_count(self) -> int:
        return self.ranks.size


@dataclass(frozen=True, eq=False)
class StatVector:
    """Labeled count statistics of one structure.

    ``kind`` names the statistic (``"hyper_degree"``, ``"codegree"``,
    ``"clique"``, ``"common_neighbours"``, ``"cond_expectation"``),
    ``param`` its order (``s``, ``k`` or ``h``; ``None`` for hyper-degrees),
    and ``values[r]`` the count of the ``r``-th subset in colexicographic
    order (vertex ``r`` itself for 1-element subsets).
    """

    kind: str
    n: int
    values: np.ndarray
    param: int | None = None

    _EXPECTED_SIZE = {
        "hyper_degree": lambda n, param: n,
        "codegree": lambda n, param: math.comb(n, param),
        "clique": lambda n, param: n,
        "cond_expectation": lambda n, param: n,
        "common_neighbours": lambda n, param: math.comb(n, param),
    }

    def __post_init__(self) -> None:
        values = np.array(self.values)
        if self.kind not in self._EXPECTED_SIZE:
            raise StructuralError(f"unknown statistic kind {self.kind!r}")
        expected = self._EXPECTED_SIZE[self.kind](self.n, self.param)
        if values.size != expected:
            raise StructuralError(
                f"{self.kind} expects {expected} values, got {values.size}"
            )
        if values.size and values.min() < 0:
            raise StructuralError("counts must be nonnegative")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class TruncationCheck:
    """Outcome of the typicality event check.

    ``holds`` is True when every lower-order common-neighbour count is
    below its threshold; otherwise ``level``/``subset`` identify the first
    violating set (smallest order, then colex rank).
    """

    holds: bool
    level: int | None = None
    subset: tuple[int, ...] | None = None


# ---------------------------------------------------------------------------
# Colexicographic subset enumeration
# ---------------------------------------------------------------------------

def _comb_table(n: int, t: int) -> np.ndarray:
    """``C(v, t)`` for ``v = 0..n`` as an int64 vector."""
    table = np.zeros(n + 1, dtype=np.int64)
    for v in range(t, n + 1):
        table[v] = math.comb(v, t)
    return table


def _colex_ranks(columns: list[np.ndarray], n: int) -> np.ndarray:
    """Rank ``Σ_t C(v_t, t)`` of sorted subsets given as coordinate columns."""
    size = len(columns)
    ranks = np.zeros(columns[0].shape, dtype=np.int64)
    for t in range(1, size + 1):
        ranks += _comb_table(n, t)[columns[t - 1]]
    return ranks


def _unrank_colex(ranks: np.ndarray, n: int, size: int) -> list[np.ndarray]:
    """Inverse of :func:`_colex_ranks`: coordinate columns of each rank."""
    remaining = ranks.astype(np.int64).copy()
    columns: list[np.ndarray] = [np.empty(0)] * size
    for t in range(size, 0, -1):
        table = _comb_table(n, t)
        vertex = np.searchsorted(table, remaining, side="right") - 1
        remaining -= table[vertex]
        columns[t - 1] = vertex.astype(np.int64)
    return columns


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _dense_mask(total: int, p: float, seed: int) -> np.ndarray:
    """Dense draw: rank ``r`` is present iff the ``r``-th uniform is below ``p``.

    Compares raw words, bit for bit the same as ``stream(seed).random(total)
    < p``: for Philox, numpy's ``random`` turns the word ``w`` into
    ``(w >> 11)·2^-53``, and ``p·2^53`` is exact in floating point, so
    ``u < p`` iff ``(w >> 11) < ceil(p·2^53)``, iff ``w < ceil(p·2^53)·2^11``,
    which skips the shift.  With ``p < 1`` the bound is at most
    ``(2^53 - 1)·2^11`` and fits in ``uint64``.
    """
    bound = np.uint64(math.ceil(p * 2.0**53) << 11)
    return stream(seed).bit_generator.random_raw(total) < bound


def _present_ranks(total: int, p: float, seed: int) -> np.ndarray:
    """Colex ranks of the present subsets among ``total`` candidates.

    Dense regime: uniform per rank.  Sparse regime (``p < 0.1``): geometric
    gaps drawn from the same keyed stream.  Both are pure functions of
    (seed, total, p).
    """
    if p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    if p >= SPARSE_THRESHOLD:
        return np.flatnonzero(_dense_mask(total, p, seed)).astype(np.int64, copy=False)
    rng = stream(seed)
    chunks: list[np.ndarray] = []
    position = -1  # rank of the last present subset
    mean = total * p
    batch = int(mean + 6.0 * math.sqrt(mean * (1.0 - p)) + 16.0)
    while position < total:
        gaps = rng.geometric(p, size=batch)
        ranks = position + np.cumsum(gaps)
        chunks.append(ranks)
        position = int(ranks[-1])
        batch = max(16, batch // 4)
    ranks = np.concatenate(chunks)
    return ranks[ranks < total]


def gen_graph(n: int, p: float, seed: int) -> Graph:
    """Binomial random graph: each pair present independently with probability ``p``."""
    if n < 1:
        raise DomainError(f"n = {n!r} must be at least 1")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"p = {p!r} must lie in [0, 1]")
    total = math.comb(n, 2)
    _charge_budget(total, f"C({n},2) = {total} pairs")
    # the colex rank of {lo < hi} is the row-major position of (hi, lo)
    # in the strictly lower triangle, so no rank needs unranking
    if SPARSE_THRESHOLD <= p < 1.0:
        present = _dense_mask(total, p, seed)
    else:
        present = np.zeros(total, dtype=bool)
        present[_present_ranks(total, p, seed)] = True
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[np.tri(n, k=-1, dtype=bool)] = present
    adjacency |= adjacency.T
    return Graph(n=n, adjacency=adjacency)


def gen_hypergraph(
    n: int, k: int, p: float, seed: int, *, budget: int = DEFAULT_BUDGET
) -> Hypergraph:
    """Binomial ``k``-uniform hypergraph on ``n`` vertices.

    Every ``k``-subset is present independently with probability ``p``;
    enumerating more than ``budget`` candidate subsets is refused.
    """
    if not (2 <= k <= n):
        raise DomainError(f"need 2 ≤ k ≤ n, got k = {k!r}, n = {n!r}")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"p = {p!r} must lie in [0, 1]")
    total = math.comb(n, k)
    _charge_budget(total, f"C({n},{k}) = {total} subsets", budget)
    return Hypergraph(n=n, k=k, ranks=_present_ranks(total, p, seed))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def hyper_degrees(h: Hypergraph) -> StatVector:
    """Number of edges through each vertex, counted by :func:`_incidence_counts`."""
    counts = _incidence_counts(h.ranks, h.n, h.k, 1, DEFAULT_BUDGET)
    return StatVector(kind="hyper_degree", n=h.n, values=counts)


def codegrees(h: Hypergraph, s: int, *, budget: int = DEFAULT_BUDGET) -> StatVector:
    """Codegree of every ``s``-subset: the number of edges containing it.

    Requires ``1 ≤ s < k``.  The ``C(n, s)`` result slots plus the
    ``C(k, s)`` ``s``-subsets of each edge are charged against ``budget``,
    and :func:`_incidence_counts` charges its histograms and tables to it
    separately before it builds them.  Counts come straight from the
    stored ranks, block by block, without unranking the edges.
    """
    if not (1 <= s < h.k):
        raise DomainError(f"need 1 ≤ s < k, got s = {s!r}, k = {h.k}")
    inspections = math.comb(h.n, s) + h.edge_count * math.comb(h.k, s)
    _charge_budget(inspections, f"codegree({s})'s {inspections} inspections", budget)
    counts = _incidence_counts(h.ranks, h.n, h.k, s, budget)
    return StatVector(kind="codegree", n=h.n, values=counts, param=s)


@lru_cache(maxsize=8)
def _incidence_table(n: int, size: int, s: int) -> np.ndarray:
    """Colex ranks of the ``s``-subsets of each ``size``-subset of ``range(n)``.

    ``low[c, j]`` is the rank of the ``c``-th ``s``-subset of the
    ``size``-subset with colex rank ``j``.  Read-only, since the cache
    shares it.
    """
    vertices = _unrank_colex(np.arange(math.comb(n, size), dtype=np.int64), n, size)
    low = np.empty((math.comb(size, s), vertices[0].size), dtype=np.int64)
    for row, pick in zip(low, combinations(range(size), s)):
        row[:] = _colex_ranks([vertices[c] for c in pick], n)
    low.flags.writeable = False
    return low


@lru_cache(maxsize=8)
def _block_tables(
    n: int, k: int, level: int, s: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block tables of one level of :func:`_incidence_counts`.

    A level-``(level+1)`` block holds the ``k``-subsets whose
    ``level + 1`` largest vertices are a given set ``W``; the blocks are
    indexed by the colex rank of ``W`` and tile ``[0, C(n, k))`` in that
    order.  ``starts[b]`` is the first rank of block ``b``, and an edge
    of rank ``r`` in block ``b`` has histogram cell ``r + offsets[b]``:
    the rank of ``W`` without its smallest vertex (the level-``level``
    block), times ``C(n-1-level, k-1-level)``, plus the colex rank of the
    edge's other ``k - 1 - level`` vertices.  ``bases[a]`` is the part ``Σ_i
    C(t_i, s-i+1)`` that the ``level`` vertices ``t_1 > t_2 > ...`` of
    level-``level`` block ``a`` contribute to the rank of an ``s``-subset
    holding them as its largest vertices.  All read-only.
    """
    tops = _unrank_colex(np.arange(math.comb(n, level + 1), dtype=np.int64), n, level + 1)
    starts = np.zeros(tops[0].size, dtype=np.int64)
    for t, column in enumerate(tops, start=k - level):
        starts += _comb_table(n, t)[column]
    offsets = -starts
    if level:
        offsets += _colex_ranks(tops[1:], n) * math.comb(n - 1 - level, k - 1 - level)
        heads = _unrank_colex(np.arange(math.comb(n, level), dtype=np.int64), n, level)
        bases = np.zeros(heads[0].size, dtype=np.int64)
        for t, column in enumerate(heads, start=s - level + 1):
            bases += _comb_table(n, t)[column]
    else:
        bases = np.zeros(1, dtype=np.int64)
    for table in (starts, offsets, bases):
        table.flags.writeable = False
    return starts, offsets, bases


def _incidence_counts(
    ranks: np.ndarray, n: int, k: int, s: int, budget: int
) -> np.ndarray:
    """Number of edges, given by colex ``ranks``, containing each ``s``-subset.

    In colex order the edges sharing their ``j`` largest vertices are
    contiguous, so one ``searchsorted`` of the block starts into sorted
    ranks splits them into blocks (unsorted ranks are sorted in a copy
    first; the counts do not depend on order).  An ``s``-subset ``S`` of
    an edge holds the edge's ``j`` largest vertices for some largest
    ``j ≤ s``.  For ``j < s``, ``S`` misses the ``(j+1)``-th largest one,
    so ``S`` is fixed by the level-``j`` block and an ``(s-j)``-subset of
    the other ``k-1-j`` vertices.  Level ``j`` therefore histograms the
    edges by (block, colex rank of those vertices) with one ``bincount``
    and pushes the histogram through the rows of
    ``_incidence_table(n-1-j, k-1-j, s-j)``, shifted by the block's slot
    base.  For ``j = s``, ``S`` is a level-``s`` block, whose colex index
    is ``S``'s slot, so its count is the block's size.  Requires
    ``1 ≤ s < k``; every histogram and table cell is charged to
    ``budget`` first.
    """
    cells = 0
    for level in range(s):
        rest = math.comb(n - 1 - level, k - 1 - level)
        cells += math.comb(n, level) * rest  # histogram
        cells += rest * math.comb(k - 1 - level, s - level)  # _incidence_table
        cells += 2 * math.comb(n, level + 1) + math.comb(n, level)  # _block_tables
    _charge_budget(cells, f"incidence tables for s = {s}: {cells} cells", budget)
    if np.any(ranks[1:] < ranks[:-1]):
        ranks = np.sort(ranks)
    slots = math.comb(n, s)
    # weighted sums are exact: every partial sum is an integer below 2^53
    counts = np.zeros(slots, dtype=np.float64)
    for level in range(s):
        starts, offsets, bases = _block_tables(n, k, level, s)
        low = _incidence_table(n - 1 - level, k - 1 - level, s - level)
        sizes = np.diff(np.searchsorted(ranks, starts), append=ranks.size)
        cell = np.repeat(offsets, sizes)
        cell += ranks
        multiplicity = np.bincount(cell, minlength=bases.size * low.shape[1])
        multiplicity = multiplicity.astype(np.float64)
        for row in low:
            # a (block, rest) pair no edge has weighs 0; every slot stays
            # below C(n, s), since bases and row peak at the last s-subset
            slot = (bases[:, None] + row).reshape(-1)
            counts += np.bincount(slot, weights=multiplicity, minlength=slots)
    # the last level's blocks are the s-subsets themselves, in slot order
    return counts.astype(np.int64) + sizes


def _cliques_within(adj: np.ndarray, candidates: np.ndarray, size: int) -> int:
    """Number of ``size``-cliques inside the candidate vertex list."""
    if size == 0:
        return 1
    if size == 1:
        return int(candidates.size)
    if candidates.size < size:
        return 0
    total = 0
    for pos in range(candidates.size - size + 1):
        v = candidates[pos]
        rest = candidates[pos + 1 :]
        total += _cliques_within(adj, rest[adj[v, rest]], size - 1)
    return total


def _adjacency_square(g: Graph) -> np.ndarray:
    """``A @ A`` in float32, exact as :func:`common_neighbours` explains.

    ``A`` is symmetric, so it is computed as ``A @ Aᵀ``: numpy hands a
    product with its own transpose to BLAS ``syrk``, which fills one
    triangle and mirrors it.
    """
    dense = g.adjacency.astype(np.float32)
    return dense @ dense.T


def clique_counts(g: Graph, k: int) -> StatVector:
    """Number of ``k``-cliques through each vertex.

    ``3 ≤ k ≤ DEFAULT_CLIQUE_CAP`` (6).  ``k = 3`` halves the closed 2-walks
    ``Σ_j (A²)_ij A_ij`` from ``i`` along edges.  The float32 ``A²`` is
    exact (see :func:`common_neighbours`), but these row sums reach
    ``(n-1)(n-2)``, past 2^24 from ``n = 4098``, so they are summed in
    float64.  Larger ``k`` enumerates ``(k-1)``-cliques inside each
    neighbourhood.
    """
    if not (3 <= k <= DEFAULT_CLIQUE_CAP):
        raise DomainError(
            f"k = {k!r} outside the supported range [3, {DEFAULT_CLIQUE_CAP}]"
        )
    if k == 3:
        paths = _adjacency_square(g)
        paths *= g.adjacency
        tri = (paths.sum(axis=1, dtype=np.float64) / 2.0).astype(np.int64)
        return StatVector(kind="clique", n=g.n, values=tri, param=3)
    counts = np.empty(g.n, dtype=np.int64)
    for v in range(g.n):
        neighbours = np.flatnonzero(g.adjacency[v])
        counts[v] = _cliques_within(g.adjacency, neighbours, k - 1)
    return StatVector(kind="clique", n=g.n, values=counts, param=k)


def clique_cond_expectation(g: Graph, k: int, p: float) -> StatVector:
    """Degree-conditional expected ``k``-clique count per vertex.

    ``C(deg_i, k-1) · p^{C(k-1, 2)}`` — the expected number of
    ``k``-cliques through ``i`` given its degree (0 when the degree is
    below ``k - 1``).  Real-valued.
    """
    if k < 3:
        raise DomainError(f"k = {k!r} must be at least 3")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"p = {p!r} must lie in [0, 1]")
    degrees = g.degrees
    table = np.zeros(g.n, dtype=np.float64)
    for d_val in range(k - 1, g.n):
        table[d_val] = float(math.comb(d_val, k - 1))
    values = table[degrees] * p ** math.comb(k - 1, 2)
    return StatVector(kind="cond_expectation", n=g.n, values=values, param=k)


def common_neighbours(g: Graph, h: int, *, budget: int = DEFAULT_BUDGET) -> StatVector:
    """Number of vertices adjacent to every vertex of each ``h``-subset.

    ``1 ≤ h ≤ DEFAULT_COMMON_NEIGHBOUR_CAP`` (3).  ``h = 1`` gives the
    degree vector; ``h = 2`` reads the strictly lower triangle of the
    float32 square ``A²``, which is exact: every partial
    sum of its 0/1 products, in any SGEMM order, is an integer below ``n``,
    and ``gen_graph``'s budget keeps ``n ≤ 14142``, far below 2^24.
    ``h = 3`` enumerates triples (budgeted at ``C(n, 3) · n`` inspections).
    """
    if not (1 <= h <= DEFAULT_COMMON_NEIGHBOUR_CAP):
        raise DomainError(
            f"h = {h!r} outside the supported range [1, {DEFAULT_COMMON_NEIGHBOUR_CAP}]"
        )
    if h == 1:
        return StatVector(
            kind="common_neighbours", n=g.n, values=g.degrees, param=1
        )
    slots = math.comb(g.n, h)
    inspections = slots * (g.n if h >= 3 else 1)
    _charge_budget(
        inspections, f"common_neighbours({h})'s {inspections} inspections", budget
    )
    if h == 2:
        # row-major order of (hi, lo) below the diagonal is colex order of {lo < hi}
        shared = _adjacency_square(g)[np.tri(g.n, k=-1, dtype=bool)]
        return StatVector(
            kind="common_neighbours", n=g.n, values=shared.astype(np.int64), param=2
        )
    values = np.empty(slots, dtype=np.int64)
    rank = 0
    for c3 in range(2, g.n):
        mask3 = g.adjacency[c3]
        for c2 in range(1, c3):
            mask23 = mask3 & g.adjacency[c2]
            for c1 in range(c2):
                values[rank] = np.count_nonzero(mask23 & g.adjacency[c1])
                rank += 1
    return StatVector(kind="common_neighbours", n=g.n, values=values, param=3)


def truncation_event(
    g: Graph, h: int, p: float, *, budget: int = DEFAULT_BUDGET
) -> TruncationCheck:
    """Check that all lower-order common-neighbour counts are typical.

    For every order ``level ∈ {1, ..., h-1}`` and every ``level``-subset
    ``u``, requires ``X_u ≤ n·p^level + sqrt(2·level·n·p^level·(1 -
    p^level)·log n)`` (natural log; counts are compared to the real
    threshold, no rounding).  Returns the first violation in (order, colex
    rank) order if any.
    """
    if h < 2:
        raise DomainError(f"h = {h!r} must be at least 2")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"p = {p!r} must lie in [0, 1]")
    log_n = math.log(g.n) if g.n > 1 else 0.0
    for level in range(1, h):
        p_level = p**level
        threshold = g.n * p_level + math.sqrt(
            2.0 * level * g.n * p_level * (1.0 - p_level) * log_n
        )
        sv = common_neighbours(g, level, budget=budget)
        violating = np.flatnonzero(sv.values > threshold)
        if violating.size:
            first = int(violating[0])
            if level == 1:
                subset: tuple[int, ...] = (first,)
            else:
                cols = _unrank_colex(np.array([first], dtype=np.int64), g.n, level)
                subset = tuple(int(c[0]) for c in cols)
            return TruncationCheck(holds=False, level=level, subset=subset)
    return TruncationCheck(holds=True)


def surrogate_deviation(hg: Hypergraph, i: int, p: float) -> float:
    """Worst pair-codegree deviation at vertex ``i``.

    ``max_{j ≠ i} |X_{{i,j}} - C(n-2, k-2)·p|`` where ``X_{{i,j}}`` counts
    edges containing both ``i`` and ``j`` — the surrogate-independence
    diagnostic for one vertex.  Vertices sharing no edge with ``i``
    contribute the full expected value.
    """
    if not (0 <= i < hg.n):
        raise StructuralError(f"vertex i = {i!r} out of range for n = {hg.n}")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"p = {p!r} must lie in [0, 1]")
    if hg.n < 2:
        raise DomainError("need at least two vertices for pair codegrees")
    expected = math.comb(hg.n - 2, hg.k - 2) * p
    with_i = hg.edges[(hg.edges == i).any(axis=1)]
    partners = with_i[with_i != i]
    counts = np.bincount(partners.reshape(-1), minlength=hg.n).astype(np.float64)
    deviations = np.abs(counts - expected)
    deviations[i] = 0.0
    return float(deviations.max())
