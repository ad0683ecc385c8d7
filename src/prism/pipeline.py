"""End-to-end mining: component split, hierarchical clustering, walks per
source, symmetry clustering, and report serialization.

Each node is a source once, in the piece it is its own in
(``LabeledHypergraph.own``): under hcluster its leaf's piece, which also
keeps endpoints from other leaves as walk targets and concept members. The
sources of the pieces of one connected component that share N and L are
mined in blocks of as many as the walk memory budget holds, in two phases:
walk every source of the block (on a thread pool when ``threads > 1``),
keeping its ``WalkStats``, then cluster them all in one ``symmetry_clusters``
call, which refines the block's distance sets in batches of whole sets, one
bisection depth at a time.

The serialized report is deterministic for a fixed configuration: per-source
random streams are derived from the seed alone, a set's refinement does not
depend on the sets refined beside it, so neither threads nor block bounds
move a byte, results are assembled in canonical order, and stage timings go
to a side channel instead of the report bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .clustering import PROJ_DIM, SymmetryPartition, symmetry_clusters
from .hypergraph import LabeledHypergraph, connected_components, diameter
from .spectral import LAMBDA2_MAX, N_MIN, hcluster
from .stats import MIN_CATEGORY_MEAN
from .stats import path_symmetry_report  # noqa: F401  kept bound for bench/child.py's TRACED
from .walks import WalkConfig, WalkStats, run_walks, table_peak_bytes, topk_walk_count
from .walks import walk_kept_bytes, walk_peak_bytes

SCHEMA_VERSION = 1
WALK_MEMORY_BUDGET = 2 * 2**30  # bytes of walk buffers and walked sources a run may hold at once


@dataclass(frozen=True)
class RunConfig:
    epsilon: float = 0.1
    alpha: float = 0.01
    k_top: int = 3
    L_cap: int | None = 5
    seed: int = 0
    threads: int = 1
    use_hcluster: bool = True

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if self.k_top < 1 or self.threads < 1:
            raise ValueError("k_top and threads must be positive")
        if self.L_cap is not None and self.L_cap < 1:
            raise ValueError("L_cap must be positive or None")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")

    def to_dict(self) -> dict:
        # threads is an execution detail with no effect on results, so it is
        # kept out of the echo and reports stay byte-identical across pools;
        # proj_dim, lambda2_max, n_min and min_category_mean are constants
        return {
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "k_top": self.k_top,
            "proj_dim": PROJ_DIM,
            "lambda2_max": LAMBDA2_MAX,
            "n_min": N_MIN,
            "L_cap": self.L_cap,
            "seed": self.seed,
            "use_hcluster": self.use_hcluster,
            "min_category_mean": MIN_CATEGORY_MEAN,
        }


@dataclass(frozen=True)
class ConceptEntry:
    members: tuple[str, ...]
    parent_tht: float
    margins: tuple[dict, ...]  # per tested length: q, critical, passed


@dataclass(frozen=True)
class SourceReport:
    source: str
    concepts: tuple[ConceptEntry, ...]
    unreached: tuple[str, ...]


@dataclass(frozen=True)
class SubhypergraphReport:
    id: int
    nodes: tuple[str, ...]
    n_edges: int
    labels: tuple[str, ...]
    diameter: int
    walk_length: int
    walk_count: int
    sources: tuple[SourceReport, ...]


@dataclass
class ConceptReport:
    subhypergraphs: tuple[SubhypergraphReport, ...] = ()
    config: dict | None = None


def _source_report(names: np.ndarray, part: SymmetryPartition) -> SourceReport:
    """``part`` with node ids read as names: one gather from ``names``, an object array."""
    got = names[np.fromiter(chain(*part.concepts, part.unreached), np.intp)].tolist()
    ends = [0, *accumulate(map(len, part.concepts))]
    entries = [
        ConceptEntry(
            members=tuple(got[a:b]),
            parent_tht=part.distance_sets[parent].tht,
            margins=margins,
        )
        for a, b, parent, margins in zip(ends, ends[1:], part.concept_parents, part.margins)
    ]
    return SourceReport(
        source=names[part.source],
        concepts=tuple(entries),
        unreached=tuple(got[ends[-1] :]),
    )


def get_communities(
    h: LabeledHypergraph, cfg: RunConfig, timings: dict | None = None
) -> ConceptReport:
    """Mine path-symmetric concepts for every node of ``h`` as a source, each
    once, in the sub-hypergraph it is its own in; deterministic for a fixed
    config, any thread count.

    Before any walk starts, each piece is sized: its transition tables
    (``table_peak_bytes``), its walks in flight (``walk_peak_bytes`` per
    worker) and what each walked source keeps until its block is clustered
    (``walk_kept_bytes``); a ValueError refuses the run when not even one
    source of some piece fits under ``WALK_MEMORY_BUDGET``. A block is
    sources of the pieces of one connected component that share N and L,
    walked piece after piece while the walks in flight of the piece being
    walked, its tables included, and the sources held fit under the budget.
    A piece's tables go once its last source is walked."""
    if timings is None:
        timings = {}
    if h.n_nodes == 0:
        return ConceptReport(subhypergraphs=(), config=cfg.to_dict())

    t0 = time.perf_counter()
    pieces: list[LabeledHypergraph] = []
    component: list[int] = []
    for c, comp in enumerate(connected_components(h)):
        cut = hcluster(comp) if cfg.use_hcluster and comp.n_nodes >= 2 else [comp]
        pieces += cut
        component += [c] * len(cut)
    timings["hcluster"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    plans: list[tuple[int, WalkConfig, int, int]] = []
    blocks: dict[tuple[int, int, int], list[int]] = {}  # pieces by (component, N, L)
    for k, sub in enumerate(pieces):
        diam = diameter(sub)
        L = max(1, diam)
        if cfg.L_cap is not None:
            L = min(L, cfg.L_cap)
        n_labels = max(1, sub.n_labels)
        N = topk_walk_count(cfg.epsilon, n_labels, L, cfg.k_top)
        workers = min(cfg.threads, sub.n_nodes)
        walking = workers * walk_peak_bytes(sub, N, L) + table_peak_bytes(sub)
        kept = walk_kept_bytes(sub.n_nodes, n_labels, N, L)
        if walking + kept > WALK_MEMORY_BUDGET:
            raise ValueError(
                f"epsilon {cfg.epsilon} needs {N} walks of length {L} per source on piece {k} "
                f"({sub.n_nodes} nodes, {workers} at once): about "
                f"{(walking + kept) / 2**30:.1f} GiB, over the "
                f"{WALK_MEMORY_BUDGET / 2**30:.0f} GiB walk memory budget"
            )
        sub_seed = int(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(k,)).generate_state(
                1, np.uint64
            )[0]
        )
        plans.append((diam, WalkConfig(L=L, N=N, seed=sub_seed), walking, kept))
        blocks.setdefault((component[k], N, L), []).append(k)

    names = [np.array(sub.node_names, dtype=object) for sub in pieces]
    reports: list[list[SourceReport]] = [[] for _ in pieces]
    walked: list[WalkStats] = []
    owner: list[int] = []  # the piece of each walked source

    def cluster_walked():
        for k, part in zip(owner, symmetry_clusters(walked, cfg.alpha)):
            reports[k].append(_source_report(names[k], part))
        walked.clear()
        owner.clear()

    t_sources = time.perf_counter()
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        walk_map = pool.map if cfg.threads > 1 else map
        for block in blocks.values():
            held = 0  # bytes the walked sources keep
            for k in block:
                sub, (_, walk_cfg, walking, kept) = pieces[k], plans[k]
                if cfg.threads > 1:
                    # built here, once: cached_property takes no lock from Python 3.12 on
                    sub.walk_tables
                todo = sub.own  # every piece is cut by majority_subhypergraph
                while todo:
                    fit = (WALK_MEMORY_BUDGET - walking - held) // kept
                    if fit < 1:
                        cluster_walked()
                        held = 0
                        continue
                    sources, todo = todo[:fit], todo[fit:]
                    walked += walk_map(lambda v: run_walks(sub, v, walk_cfg), sources)
                    owner += [k] * len(sources)
                    held += kept * len(sources)
                sub.__dict__.pop("walk_tables", None)
            cluster_walked()
    # walks, clustering and margin reports of every source
    timings["sources"] = time.perf_counter() - t_sources
    subs = tuple(
        SubhypergraphReport(
            id=k,
            nodes=sub.node_names,
            n_edges=sub.n_edges,
            labels=sub.label_names,
            diameter=diam,
            walk_length=walk_cfg.L,
            walk_count=walk_cfg.N,
            sources=tuple(sub_reports),
        )
        for k, (sub, (diam, walk_cfg, _, _), sub_reports) in enumerate(zip(pieces, plans, reports))
    )
    timings["mine"] = time.perf_counter() - t0
    return ConceptReport(subhypergraphs=subs, config=cfg.to_dict())


def emit_report(report: ConceptReport, fmt: str = "json") -> str:
    """Deterministic serialization; ``fmt`` is ``json`` or ``tsv``.

    JSON writes each report dataclass as an object whose keys are its
    fields, in declaration order, and leaves out an absent config.
    """
    if fmt == "json":
        out: dict = {"schema_version": SCHEMA_VERSION}
        if report.config is not None:
            out["config"] = report.config
        out["subhypergraphs"] = report.subhypergraphs
        return json.dumps(
            out, default=vars, separators=(",", ":"), ensure_ascii=True, allow_nan=False
        )
    if fmt == "tsv":
        rows = ["sub_hypergraph\tsource\tconcept_members\tparent_tht"]
        for sub in report.subhypergraphs:
            for src in sub.sources:
                for concept in src.concepts:
                    rows.append(
                        f"{sub.id}\t{src.source}\t{','.join(concept.members)}\t{concept.parent_tht!r}"
                    )
        return "\n".join(rows) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


@functools.cache
def _fields(tp) -> tuple[tuple[str, object, bool], ...]:
    """Each field of report dataclass ``tp`` as (name, annotated type, may
    be absent), looked up once per type, not once per object."""
    hints = typing.get_type_hints(tp)
    return tuple((f.name, hints[f.name], f.default is None) for f in dataclasses.fields(tp))


def _from_json(tp, value):
    """Rebuild a value of annotated type ``tp`` from its JSON form, the
    inverse of ``emit_report``'s ``default=vars``: a report dataclass from
    an object, a ``tuple[X, ...]`` from a list, any other JSON type there a
    ValueError. Only a field whose default is None may be absent."""
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValueError(f"{tp.__name__} must be a JSON object, not {type(value).__name__}")
        return tp(
            **{
                name: _from_json(hint, value.get(name) if optional else value[name])
                for name, hint, optional in _fields(tp)
            }
        )
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{tp} must be a JSON list, not {type(value).__name__}")
        return tuple(_from_json(typing.get_args(tp)[0], item) for item in value)
    return value


def parse_report(text: str) -> ConceptReport:
    d = json.loads(text)
    if isinstance(d, dict) and d.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")
    return _from_json(ConceptReport, d)
