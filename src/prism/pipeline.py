"""End-to-end mining: component split, hierarchical clustering, walks per
source, symmetry clustering, and report serialization.

The serialized report is deterministic for a fixed configuration: per-source
random streams are derived from the seed alone, results are assembled in
canonical order, and stage timings go to a side channel instead of the
report bytes.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .clustering import SymmetryPartition, symmetry_clusters
from .hypergraph import LabeledHypergraph, connected_components, diameter
from .spectral import SpectralConfig, hcluster
from .stats import MIN_CATEGORY_MEAN
from .stats import path_symmetry_report  # noqa: F401  kept bound for bench/child.py's TRACED
from .walks import WalkConfig, run_walks, topk_walk_count

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    epsilon: float = 0.1
    alpha: float = 0.01
    k_top: int = 3
    proj_dim: int = 2
    lambda2_max: float = 0.8
    n_min: int = 8
    L_cap: int | None = 5
    seed: int = 0
    threads: int = 1
    use_hcluster: bool = True

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if self.k_top < 1 or self.proj_dim < 1 or self.threads < 1:
            raise ValueError("k_top, proj_dim and threads must be positive")
        if self.L_cap is not None and self.L_cap < 1:
            raise ValueError("L_cap must be positive or None")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        self.spectral()  # lambda2_max and n_min are echoed even without hcluster

    def spectral(self) -> SpectralConfig:
        return SpectralConfig(lambda2_max=self.lambda2_max, n_min=self.n_min)

    def to_dict(self) -> dict:
        # threads is an execution detail with no effect on results, so it is
        # kept out of the echo and reports stay byte-identical across pools
        return {
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "k_top": self.k_top,
            "proj_dim": self.proj_dim,
            "lambda2_max": self.lambda2_max,
            "n_min": self.n_min,
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

    def to_dict(self) -> dict:
        out: dict = {"schema_version": SCHEMA_VERSION}
        if self.config is not None:
            out["config"] = dict(self.config)
        out["subhypergraphs"] = [
            {
                "id": sub.id,
                "nodes": list(sub.nodes),
                "n_edges": sub.n_edges,
                "labels": list(sub.labels),
                "diameter": sub.diameter,
                "walk_length": sub.walk_length,
                "walk_count": sub.walk_count,
                "sources": [
                    {
                        "source": src.source,
                        "concepts": [
                            {
                                "members": list(c.members),
                                "parent_tht": c.parent_tht,
                                "margins": list(c.margins),
                            }
                            for c in src.concepts
                        ],
                        "unreached": list(src.unreached),
                    }
                    for src in sub.sources
                ],
            }
            for sub in self.subhypergraphs
        ]
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ConceptReport":
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")
        subs = tuple(
            SubhypergraphReport(
                id=s["id"],
                nodes=tuple(s["nodes"]),
                n_edges=s["n_edges"],
                labels=tuple(s["labels"]),
                diameter=s["diameter"],
                walk_length=s["walk_length"],
                walk_count=s["walk_count"],
                sources=tuple(
                    SourceReport(
                        source=src["source"],
                        concepts=tuple(
                            ConceptEntry(
                                members=tuple(c["members"]),
                                parent_tht=c["parent_tht"],
                                margins=tuple(c["margins"]),
                            )
                            for c in src["concepts"]
                        ),
                        unreached=tuple(src["unreached"]),
                    )
                    for src in s["sources"]
                ),
            )
            for s in d["subhypergraphs"]
        )
        return cls(subhypergraphs=subs, config=d.get("config"))


def _source_report(
    h: LabeledHypergraph, source: int, walk_cfg: WalkConfig, cfg: RunConfig
) -> SourceReport:
    stats = run_walks(h, source, walk_cfg)
    part: SymmetryPartition = symmetry_clusters(stats, cfg.alpha, cfg.proj_dim)
    entries = [
        ConceptEntry(
            members=tuple(h.node_names[v] for v in concept),
            parent_tht=part.distance_sets[parent].tht,
            margins=margins,
        )
        for concept, parent, margins in zip(part.concepts, part.concept_parents, part.margins)
    ]
    return SourceReport(
        source=h.node_names[source],
        concepts=tuple(entries),
        unreached=tuple(h.node_names[v] for v in part.unreached),
    )


def get_communities(
    h: LabeledHypergraph, cfg: RunConfig, timings: dict | None = None
) -> ConceptReport:
    """Mine path-symmetric concepts for every source node of every
    sub-hypergraph; deterministic for a fixed config, any thread count."""
    if timings is None:
        timings = {}
    if h.n_nodes == 0:
        return ConceptReport(subhypergraphs=(), config=cfg.to_dict())

    t0 = time.perf_counter()
    pieces: list[LabeledHypergraph] = []
    for comp in connected_components(h):
        if cfg.use_hcluster and comp.n_nodes >= 2:
            pieces.extend(hcluster(comp, cfg.spectral()))
        else:
            pieces.append(comp)
    timings["hcluster"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    subs: list[SubhypergraphReport] = []
    source_time = 0.0
    for k, sub in enumerate(pieces):
        diam = diameter(sub)
        L = max(1, diam)
        if cfg.L_cap is not None:
            L = min(L, cfg.L_cap)
        n_labels = max(1, sub.n_labels)
        N = topk_walk_count(cfg.epsilon, n_labels, L, cfg.k_top)
        sub_seed = int(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(k,)).generate_state(
                1, np.uint64
            )[0]
        )
        walk_cfg = WalkConfig(epsilon=cfg.epsilon, L=L, N=N, k_top=cfg.k_top, seed=sub_seed)
        sources = list(range(sub.n_nodes))
        t_sources = time.perf_counter()
        if cfg.threads > 1 and len(sources) > 1:
            # built here, once: cached_property takes no lock from Python 3.12 on
            sub.walk_tables
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                reports = list(
                    pool.map(lambda v: _source_report(sub, v, walk_cfg, cfg), sources)
                )
        else:
            reports = [_source_report(sub, v, walk_cfg, cfg) for v in sources]
        source_time += time.perf_counter() - t_sources
        subs.append(
            SubhypergraphReport(
                id=k,
                nodes=sub.node_names,
                n_edges=sub.n_edges,
                labels=sub.label_names,
                diameter=diam,
                walk_length=L,
                walk_count=N,
                sources=tuple(reports),
            )
        )
    timings["mine"] = time.perf_counter() - t0
    # walks, clustering and margin reports of every source
    timings["sources"] = source_time
    return ConceptReport(subhypergraphs=tuple(subs), config=cfg.to_dict())


def emit_report(report: ConceptReport, fmt: str = "json") -> str:
    """Deterministic serialization; ``fmt`` is ``json`` or ``tsv``."""
    if fmt == "json":
        return json.dumps(
            report.to_dict(), separators=(",", ":"), ensure_ascii=True, allow_nan=False
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


def parse_report(text: str) -> ConceptReport:
    return ConceptReport.from_dict(json.loads(text))
