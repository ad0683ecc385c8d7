"""Mining statistically significant symmetric node sets ("abstract
concepts") from relational data via truncated hypergraph random walks."""

from .pipeline import ConceptReport, RunConfig, emit_report, get_communities, parse_report
from .relational import (
    DatabaseParseError,
    build_hypergraph,
    hypergraph_to_atoms,
    parse_database,
    serialize_database,
)
from .spectral import ConvergenceError
from .walks import optimal_walk_count, topk_walk_count

__version__ = "0.1.0"

__all__ = [
    "ConceptReport",
    "ConvergenceError",
    "DatabaseParseError",
    "RunConfig",
    "build_hypergraph",
    "emit_report",
    "get_communities",
    "hypergraph_to_atoms",
    "optimal_walk_count",
    "parse_database",
    "parse_report",
    "serialize_database",
    "topk_walk_count",
]
