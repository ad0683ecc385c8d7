"""Mining statistically significant symmetric node sets ("abstract
concepts") from relational data via truncated hypergraph random walks."""

from .clustering import (
    SymmetryPartition,
    binary_split,
    standardize_and_project,
    symmetry_clusters,
)
from .hypergraph import (
    LabeledHypergraph,
    connected_components,
    diameter,
    majority_subhypergraph,
    to_weighted_graph,
)
from .pipeline import (
    ConceptReport,
    RunConfig,
    emit_report,
    get_communities,
    parse_report,
)
from .relational import (
    DatabaseParseError,
    GroundAtom,
    RelationalDatabase,
    build_hypergraph,
    hypergraph_to_atoms,
    parse_database,
    serialize_database,
)
from .spectral import (
    ConvergenceError,
    cheeger_sweep_cut,
    get_clusters,
    hcluster,
    second_eigenpair,
)
from .stats import (
    GammaApprox,
    gamma_critical_value,
    path_symmetric,
    t_inverse_survival,
    theta_sym,
)
from .walks import (
    WalkConfig,
    WalkStats,
    optimal_walk_count,
    p_star,
    run_walks,
    topk_walk_count,
)

__version__ = "0.1.0"

__all__ = [
    "ConceptReport",
    "ConvergenceError",
    "DatabaseParseError",
    "GammaApprox",
    "GroundAtom",
    "LabeledHypergraph",
    "RelationalDatabase",
    "RunConfig",
    "SymmetryPartition",
    "WalkConfig",
    "WalkStats",
    "binary_split",
    "build_hypergraph",
    "cheeger_sweep_cut",
    "connected_components",
    "diameter",
    "emit_report",
    "gamma_critical_value",
    "get_clusters",
    "get_communities",
    "hcluster",
    "hypergraph_to_atoms",
    "majority_subhypergraph",
    "optimal_walk_count",
    "p_star",
    "parse_database",
    "parse_report",
    "path_symmetric",
    "run_walks",
    "second_eigenpair",
    "serialize_database",
    "standardize_and_project",
    "symmetry_clusters",
    "t_inverse_survival",
    "theta_sym",
    "to_weighted_graph",
    "topk_walk_count",
]
