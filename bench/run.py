"""Planted-concept benchmark for prism.

Run from the repository root::

    python3 bench/run.py --workload dept-hc --seed 1 --seconds 40 --trace 0

Each op mines one generated database the way ``prism mine`` does: a fresh
child interpreter (``bench/child.py``) reads, parses and builds, runs
``get_communities`` and writes the JSON report. Children run one at a time,
with ``threads=1`` and the BLAS thread count pinned to 1, so the numbers are
a single-threaded baseline. The runner repeats whole rounds over the
workload's databases while another round still fits in ``--seconds``, checks
every report, and prints one summary line per metric, then the result as one
JSON line.

``--trace 0`` reports the end-to-end metrics, from uninstrumented children:

- ``setup_s``: launch to hypergraph built (interpreter start, ``import
  prism``, read, ``parse_database``, ``build_hypergraph``), median over the
  ops that got that far, including ops that later fail;
- ``mine_s``: wall time of ``get_communities``;
- ``total_s``: launch to report written, what a ``prism mine`` user waits;
- ``peak_rss_mb``: the child's ``ru_maxrss``;
- ``concept_purity``: over all concepts of all sources, the share of member
  pairs whose members have the same planted role.

The last four are medians over the successful ops. ``fail_share`` (failed
ops over ops attempted) is printed with them and is the ``failed`` and
``attempted`` of the result; it is not a bounded metric because it is 0 on
workloads where nothing fails. An op fails when its child exits non-zero or
its report fails a check.

``--trace 1`` runs each database once uninstrumented, once with spans around
the calls into each prism module (``child.TRACED``) and once under
tracemalloc, and reports the per-layer metrics from the spans. Span times
and counts are summed over the traced ops, failed ones included. "Self" time
is a span's time minus the time of its child spans. Traced and untraced
report bytes must be equal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "work"
CHILD = Path(__file__).resolve().parent / "child.py"
BLAS_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
L_CAP, K_TOP = 5, 3  # the RunConfig that child.main builds
RUN_LIMIT_S = 170.0  # a run must end within 180 s; children are cut here
EXIT_NUMERIC = 3  # prism.cli.EXIT_NUMERIC: the eigensolver did not converge


@dataclass(frozen=True)
class Workload:
    schema: str
    k: int
    gen_seeds: tuple[int, ...]
    epsilon: float
    use_hcluster: bool


# The generator seeds are fixed per workload so that every workload seed
# mines the same planted structures: which dept-hc databases hit the
# eigensolver defect depends on the structure alone (12 of the first 16 dept
# seeds hit it), so a third of seed-drawn batches of four would have no
# successful op. The workload seed draws the mining seed.
WORKLOADS = {
    # The default config over four k=10 dept databases, generator seed 1
    # (the ROADMAP Baseline) included: the only workload where spectral
    # works, and where the eigensolver's exit 3 shows.
    "dept-hc": Workload("dept", 10, (1, 2, 3, 4), 0.1, True),
    # The whole k=10 database walked at once: many sources, modest N (2490)
    # and wide distance sets load per-target walk work and the path tests.
    "dept-flat": Workload("dept", 10, (1,), 0.1, False),
    # Few sources but N=31057 walks of L=4, over unary, binary and ternary
    # edges with a 5-letter signature alphabet.
    "rich-walks": Workload("rich", 1, (1,), 0.03, False),
}

END_TO_END = (
    ("setup_s", "s"),
    ("mine_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
    ("concept_purity", "share"),
)


@dataclass
class Database:
    name: str
    path: Path
    roles: dict[str, str]
    atoms: int
    nodes: frozenset[str]


@dataclass
class Op:
    db: str
    mode: str
    exit: int
    meas: dict = field(default_factory=dict)
    setup_s: float | None = None
    mine_s: float | None = None
    total_s: float | None = None
    rss_mb: float | None = None
    purity: float | None = None
    concepts: int = 0
    report_bytes: int = 0
    sha: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit == 0 and not self.problems


def mining_seed(workload: str, seed: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def make_databases(wl: Workload) -> list[Database]:
    from prism import build_hypergraph, parse_database

    dbs = []
    for g in wl.gen_seeds:
        name = f"{wl.schema}-k{wl.k}-g{g}"
        text, roles = generate.generate(wl.schema, wl.k, g)
        path = WORK / f"{name}.db"
        path.write_text(text, encoding="utf-8")
        db = parse_database(text)
        h = build_hypergraph(db)
        dbs.append(Database(name, path, roles, db.n_atoms, frozenset(h.node_names)))
    return dbs


def check_report(text: str, report, db: Database, wl: Workload) -> list[str]:
    """Problems with one report (its text and its parse); empty when every
    check passes."""
    from prism import emit_report, topk_walk_count

    problems = []
    if emit_report(report, "json") != text:
        problems.append("report does not re-emit byte-identically")
    subs = report.subhypergraphs
    if sum(s.n_edges for s in subs) != db.atoms:
        problems.append("sub-hypergraph edges do not add up to the input atoms")
    if {v for s in subs for v in s.nodes} != db.nodes:
        problems.append("some input node is in no sub-hypergraph")
    for s in subs:
        L = min(max(1, s.diameter), L_CAP)
        N = topk_walk_count(wl.epsilon, max(1, len(s.labels)), L, K_TOP)
        if (s.walk_length, s.walk_count) != (L, N):
            problems.append(f"sub-hypergraph {s.id}: walk length or count is off")
        for src in s.sources:
            placed = [m for c in src.concepts for m in c.members] + list(src.unreached)
            if len(placed) != len(set(placed)) or set(placed) != set(s.nodes) - {src.source}:
                problems.append(
                    f"sub-hypergraph {s.id}, source {src.source}: concepts and "
                    "unreached nodes do not partition the other nodes"
                )
    return problems


def purity_pairs(report, roles: dict[str, str]) -> tuple[int, int, int]:
    """(same-role member pairs, member pairs, concepts) over a ConceptReport."""
    same = total = concepts = 0
    for s in report.subhypergraphs:
        for src in s.sources:
            for c in src.concepts:
                concepts += 1
                n = len(c.members)
                total += n * (n - 1) // 2
                roles_seen = Counter(roles[v] for v in c.members).values()
                same += sum(m * (m - 1) // 2 for m in roles_seen)
    return same, total, concepts


def run_op(db: Database, wl: Workload, seed: int, mode: str, deadline: float) -> Op:
    """Mine ``db`` in a fresh child and check its report."""
    tag = f"{db.name}-{mode}"
    report_path, meas_path = WORK / f"{tag}.report.json", WORK / f"{tag}.meas.json"
    for p in (report_path, meas_path):
        p.unlink(missing_ok=True)
    env = {**os.environ, **BLAS_PINS, "PYTHONPATH": str(SRC)}
    argv = [
        sys.executable, str(CHILD), mode, str(db.path), str(report_path),
        str(meas_path), str(seed), repr(wl.epsilon), "1" if wl.use_hcluster else "0",
    ]
    with open(WORK / f"{tag}.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    code = proc.returncode
    op = Op(db=db.name, mode=mode, exit=code)
    if meas_path.exists():
        op.meas = json.loads(meas_path.read_text(encoding="utf-8"))
    m = op.meas
    if "t_built" in m:
        op.setup_s = m["t_built"] - t0
    if code != 0:
        if code != EXIT_NUMERIC:
            op.problems.append(f"child exited with status {code}")
        return op
    op.mine_s = m["t_mine_end"] - m["t_built"]
    op.total_s = m["t_written"] - t0
    op.rss_mb = m["maxrss_kb"] / 1024.0
    text = report_path.read_text(encoding="utf-8")
    op.report_bytes = len(text.encode())
    op.sha = hashlib.sha256(text.encode()).hexdigest()
    from prism import parse_report

    report = parse_report(text)
    op.problems = check_report(text, report, db, wl)
    same, total, op.concepts = purity_pairs(report, db.roles)
    op.purity = same / total if total else None
    return op


def flag_unequal_reports(ops: list[Op]) -> None:
    """Every successful op of one database must give the same bytes."""
    shas = defaultdict(set)
    for op in ops:
        if op.sha:
            shas[op.db].add(op.sha)
    for op in ops:
        if len(shas[op.db]) > 1:
            op.problems.append("report sha256 differs between ops of one database")


def median_of(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(ops: list[Op]) -> tuple[dict, dict]:
    """Metric values and the number of ops each median is taken over."""
    good = [op for op in ops if op.ok]
    columns = {
        "setup_s": [op.setup_s for op in ops],
        "mine_s": [op.mine_s for op in good],
        "total_s": [op.total_s for op in good],
        "peak_rss_mb": [op.rss_mb for op in good],
        "concept_purity": [op.purity for op in good],
    }
    values = {k: median_of(v) for k, v in columns.items()}
    counts = {k: sum(x is not None for x in v) for k, v in columns.items()}
    return values, counts


def self_times(spans: list[list]) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_layer(dbs: list[Database], traced: list[Op], plain: list[Op], memory: list[Op]) -> dict:
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    leaves = walks_total = steps = passed = 0
    for op in traced:
        spans = op.meas.get("spans", [])
        for (name, start, end, _, note), own in zip(spans, self_times(spans)):
            total[name] += end - start
            self_s[name] += own
            calls[name] += 1
            if name == "hcluster" and note is not None:
                leaves += note
            elif name == "run_walks" and note is not None:
                walks_total += note[0]
                steps += note[0] * note[1]
            elif name == "path_symmetric" and note:
                passed += 1
    walked = {op.db for op in traced if op.ok}
    by_db = {op.db: op for op in plain if op.ok}
    pairs = [(op.mine_s, by_db[op.db].mine_s) for op in traced if op.ok and op.db in by_db]
    peaks = [p for op in memory for p in op.meas.get("walk_peaks", [])]
    return {
        "relational.parse_s": (total["parse_database"], "s"),
        "relational.build_s": (total["build_hypergraph"], "s"),
        "relational.atoms": (sum(db.atoms for db in dbs), "count"),
        "hypergraph.components_s": (total["connected_components"], "s"),
        "hypergraph.diameter_s": (total["diameter"], "s"),
        "hypergraph.expand_s": (total["to_weighted_graph"], "s"),
        "hypergraph.majority_split_s": (total["majority_subhypergraph"], "s"),
        "spectral.hcluster_s": (total["hcluster"], "s"),
        "spectral.eigensolve_s": (total["second_eigenpair"], "s"),
        "spectral.eigensolve_calls": (calls["second_eigenpair"], "count"),
        "spectral.sweep_cut_s": (total["cheeger_sweep_cut"], "s"),
        "spectral.leaves": (leaves, "count"),
        "walks.sample_s": (total["run_walks"], "s"),
        "walks.source_runs": (calls["run_walks"], "count"),
        "walks.source_runs_per_node": (
            calls["run_walks"] / max(1, sum(len(db.nodes) for db in dbs if db.name in walked)),
            "ratio"),
        "walks.walks_total": (walks_total, "count"),
        "walks.steps_per_s": (
            steps / total["run_walks"] if total["run_walks"] else 0.0, "1/s"),
        "walks.peak_mb": (max(peaks) / 2**20 if peaks else 0.0, "MB"),
        "clustering.symmetry_s": (total["symmetry_clusters"], "s"),
        "clustering.self_s": (self_s["symmetry_clusters"], "s"),
        "clustering.project_s": (total["standardize_and_project"], "s"),
        "clustering.bisect_calls": (calls["binary_split"], "count"),
        "clustering.concepts": (sum(op.concepts for op in traced), "count"),
        "stats.path_test_s": (total["path_symmetric"], "s"),
        "stats.path_test_calls": (calls["path_symmetric"], "count"),
        "stats.path_test_pass_share": (
            passed / calls["path_symmetric"] if calls["path_symmetric"] else 0.0, "share"),
        "stats.critical_value_s": (total["gamma_critical_value"], "s"),
        "stats.critical_value_calls": (calls["gamma_critical_value"], "count"),
        "stats.margin_report_s": (total["path_symmetry_report"], "s"),
        "stats.margin_report_calls": (calls["path_symmetry_report"], "count"),
        "pipeline.mine_self_s": (self_s["get_communities"], "s"),
        "pipeline.emit_s": (total["emit_report"], "s"),
        "pipeline.report_bytes": (sum(op.report_bytes for op in traced), "bytes"),
        "trace.overhead_share": (
            sum(t for t, _ in pairs) / sum(u for _, u in pairs) - 1 if pairs else 0.0, "share"),
    }


def environment(name: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_pins": BLAS_PINS,
        "workload": name,
        "workload_seed": seed,
        "mining_seed": mining_seed(name, seed),
        "generators": {
            w: {"schema": x.schema, "k": x.k, "seeds": list(x.gen_seeds)}
            for w, x in WORKLOADS.items()
        },
    }


def load_prism() -> None:
    """Import prism from this checkout's ``src``, or exit with an error."""
    if not (SRC / "prism" / "__init__.py").is_file():
        sys.exit(f"bench: no prism sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import prism

    if Path(prism.__file__).resolve().parent != SRC / "prism":
        sys.exit(f"bench: imported prism from {prism.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_prism()
    wl = WORKLOADS[args.workload]
    mine_seed = mining_seed(args.workload, args.seed)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    dbs = make_databases(wl)
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))

    ops: list[Op] = []
    if args.trace:
        passes = {mode: [run_op(db, wl, mine_seed, mode, deadline) for db in dbs]
                  for mode in ("plain", "trace", "memory")}
        ops = [op for mode_ops in passes.values() for op in mode_ops]
    else:
        while True:
            t_round = time.perf_counter()
            ops += [run_op(db, wl, mine_seed, "plain", deadline) for db in dbs]
            now = time.perf_counter()
            if now - start + (now - t_round) > args.seconds:
                break
    flag_unequal_reports(ops)

    for op in ops:
        status = "ok" if op.ok else f"FAILED exit={op.exit}"
        print(f"op {op.db} {op.mode}: " + "; ".join([status, *op.problems]))
    failed = sum(not op.ok for op in ops)
    correct = all(op.exit in (0, EXIT_NUMERIC) and not op.problems for op in ops)
    print(f"fail_share {failed / len(ops):.4f} ratio ({failed} of {len(ops)} ops failed)")

    if args.trace:
        layer = per_layer(dbs, passes["trace"], passes["plain"], passes["memory"])
        for name, (value, unit) in layer.items():
            print(f"{name} {value:.6g} {unit}")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    else:
        values, counts = end_to_end(ops)
        for name, unit in END_TO_END:
            shown = "n/a" if values[name] is None else f"{values[name]:.4f}"
            print(f"{name} {shown} {unit} (median of {counts[name]} ops)")
        if any(v is None for v in values.values()):
            print("bench: no successful op to measure", file=sys.stderr)
            return 1
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
