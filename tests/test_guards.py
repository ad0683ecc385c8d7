import numpy as np
import pytest
from scipy import sparse

import datasets
from prism.clustering import (
    binary_split,
    distance_sets,
    project_rows,
    refine_sets,
    standardize_and_project,
)
from prism.hypergraph import LabeledHypergraph, diameter, to_weighted_graph
from prism.pipeline import ConceptReport, RunConfig, emit_report
from prism.relational import GroundAtom
from prism.spectral import get_clusters, hcluster, second_eigenpair
from prism.stats import gamma_critical_value, t_inverse_survival, theta_sym
from prism.walks import WalkConfig, optimal_walk_count, run_walks, topk_walk_count

EMPTY = LabeledHypergraph.build([], [], [])


def _walked(L):
    """Walk stats of source 0 of the classroom database, 4 walks of length L."""
    return run_walks(datasets.graph(datasets.classroom_db()), 0, WalkConfig(L=L, N=4))


GUARDS = {
    "build-duplicate-names": (
        lambda: LabeledHypergraph.build(["a", "a"], ["R"], []),
        "duplicate node names",
    ),
    "build-unknown-label": (
        lambda: LabeledHypergraph.build(["a"], ["R"], [(1, (0,))]),
        "edge 0: unknown label id 1",
    ),
    "build-node-out-of-range": (
        lambda: LabeledHypergraph.build(["a"], ["R"], [(0, (0,)), (0, (0, 1))]),
        "edge 1: node id 1 out of range",
    ),
    "build-empty-edge": (
        lambda: LabeledHypergraph.build(["a"], ["R"], [(0, ())]),
        "edge 0: empty hyperedge",
    ),
    "diameter-empty": (lambda: diameter(EMPTY), "diameter of an empty hypergraph"),
    "expand-empty": (lambda: to_weighted_graph(EMPTY), "cannot expand an empty hypergraph"),
    "get-clusters-empty": (
        lambda: get_clusters(sparse.csr_array((0, 0))),
        "graph must be non-empty",
    ),
    "hcluster-empty": (lambda: hcluster(EMPTY), "hypergraph must be non-empty"),
    "eigenpair-one-node": (
        lambda: second_eigenpair(sparse.csr_array((1, 1))),
        "graph must have at least 2 nodes",
    ),
    "run-config-L-cap": (lambda: RunConfig(L_cap=0), "L_cap must be positive or None"),
    "emit-format": (lambda: emit_report(ConceptReport(), fmt="xml"), "unknown format 'xml'"),
    "atom-predicate": (
        lambda: GroundAtom("1R", ("a",)),
        "invalid predicate name '1R'",
    ),
    "atom-arity": (lambda: GroundAtom("R", ()), "atom arity must be at least 1"),
    "t-inverse-p": (lambda: t_inverse_survival(0.6, 3), "p must be in (0, 1/2]"),
    "t-inverse-df": (lambda: t_inverse_survival(0.1, 0), "df must be positive"),
    "theta-alpha": (lambda: theta_sym(1.0, 3, 10), "alpha must be in (0, 1)"),
    "theta-N": (lambda: theta_sym(0.01, 3, 1), "N must be at least 2"),
    "gamma-alpha": (
        lambda: gamma_critical_value(2.0, 4.0, 0.0),
        "alpha must be in (0, 1)",
    ),
    "topk-epsilon": (lambda: topk_walk_count(1.0, 2, 3), "epsilon must be in (0, 1)"),
    "topk-k": (lambda: topk_walk_count(0.1, 2, 3, k=0), "k must be at least 1"),
    "topk-overflow": (
        lambda: topk_walk_count(1e-7, 10, 20),
        "walk count 18593711216175500 exceeds 281474976710656",
    ),
    "optimal-epsilon": (lambda: optimal_walk_count(0.0, 2, 3), "epsilon must be in (0, 1)"),
    "optimal-overflow": (
        lambda: optimal_walk_count(1e-3, 10, 20),
        "walk count 5192697560048749998034124800 exceeds 281474976710656",
    ),
    "run-walks-source": (
        lambda: run_walks(EMPTY, 0, WalkConfig(L=1, N=1)),
        "source not in hypergraph",
    ),
    "distance-sets-mixed": (
        lambda: distance_sets([_walked(2), _walked(3)], 0.01),
        "sources partitioned together need one walk count and length",
    ),
    "refine-sets-mixed": (
        lambda: refine_sets([(_walked(2), [1, 2]), (_walked(3), [1, 2])], 0.01),
        "sets refined together need one walk count and length",
    ),
    "standardize-one-row": (
        lambda: standardize_and_project(np.ones((1, 3))),
        "need at least 2 rows to project",
    ),
    "project-rows-one-row": (
        lambda: project_rows(None, [0, 2], [2, 1]),
        "need at least 2 rows to project",
    ),
    "binary-split-one-point": (
        lambda: binary_split(np.zeros((3, 2)), [2, 1]),
        "need at least 2 points to split",
    ),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_input_guard_refuses_with_its_message(guard):
    # each guard refuses its bad input with a message that names what is wrong
    call, message = GUARDS[guard]
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message
