"""exindep: extremal-independence bounds, exactly and empirically.

A toolkit for the question "when does the maximum of dependent events or
random variables behave like the maximum of independent copies?":

* :mod:`exindep.prob_core` — exact finite probability spaces, ordered
  event systems, dependency graphs;
* :mod:`exindep.coefficients` — mixing/declustering coefficients and
  audits of the probability bounds built from them;
* :mod:`exindep.gumbel_limits` — Gumbel reference law, normalizing
  constants for binomial/clique/common-neighbour maxima, exact binomial
  product CDFs;
* :mod:`exindep.gaussian_evt` — Gaussian-vector diagnostics, analytic
  tail bounds, deterministic samplers;
* :mod:`exindep.tail_bounds` — Chernoff/Janson concentration bounds and
  clique-overlap bookkeeping;
* :mod:`exindep.random_structures` — seeded binomial graphs/hypergraphs
  and their exact count statistics;
* :mod:`exindep.experiments_cli` — batch audits, Monte Carlo maxima
  experiments, byte-stable reports, and the ``exindep`` command.
"""
from .coefficients import (
    BoundAudit,
    CoefficientReport,
    arratia_phi_tilde,
    arratia_union_form,
    audit,
    declustering,
    mixing_phi,
    reorder,
)
from .errors import (
    DomainError,
    DroppedEventsWarning,
    ExindepError,
    NumericError,
    RegimeWarning,
    ResourceBudgetError,
    StructuralError,
)
from .gaussian_evt import (
    ConditionReport,
    GaussianSystem,
    ThresholdSet,
    berman_pair_bound,
    check_conditions,
    mills_bounds,
    phi_upper_estimate,
    sample,
    stationary_system,
)
from .gumbel_limits import (
    NormConstants,
    binomial_cdf,
    binomial_sf,
    clique_constants,
    common_neighbour_constants,
    gumbel_cdf,
    norm_constants,
    product_max_cdf,
    tail_limit_check,
)
from .prob_core import (
    DependencyGraph,
    EventSystem,
    ProbSpace,
    indep_product,
    none_occur,
)
from .random_structures import (
    Graph,
    Hypergraph,
    StatVector,
    TruncationCheck,
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
from .tail_bounds import (
    CliqueOverlap,
    chernoff_dev,
    clique_overlap,
    janson_lower_tail,
    janson_upper_weak,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors / warnings
    "ExindepError",
    "StructuralError",
    "DomainError",
    "ResourceBudgetError",
    "NumericError",
    "RegimeWarning",
    "DroppedEventsWarning",
    # prob_core
    "ProbSpace",
    "EventSystem",
    "DependencyGraph",
    "none_occur",
    "indep_product",
    # coefficients
    "CoefficientReport",
    "BoundAudit",
    "mixing_phi",
    "declustering",
    "arratia_phi_tilde",
    "arratia_union_form",
    "audit",
    "reorder",
    # gumbel_limits
    "NormConstants",
    "gumbel_cdf",
    "norm_constants",
    "clique_constants",
    "common_neighbour_constants",
    "binomial_cdf",
    "binomial_sf",
    "product_max_cdf",
    "tail_limit_check",
    # gaussian_evt
    "GaussianSystem",
    "ThresholdSet",
    "ConditionReport",
    "mills_bounds",
    "berman_pair_bound",
    "phi_upper_estimate",
    "check_conditions",
    "sample",
    "stationary_system",
    # tail_bounds
    "CliqueOverlap",
    "chernoff_dev",
    "clique_overlap",
    "janson_lower_tail",
    "janson_upper_weak",
    # random_structures
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
