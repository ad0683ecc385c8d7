"""Tests of the benchmark's generator, child driver and runner.

Run with ``PYTHONPATH=src python -m pytest bench/test_bench.py``.
"""

import json
import subprocess
import sys

import pytest

import generate
import run as bench
from prism import build_hypergraph, parse_database, parse_report
from prism.cli import main as prism_main


@pytest.mark.parametrize("schema,k,seed", [("dept", 10, 1), ("rich", 1, 1), ("rich", 3, 7)])
def test_generator_is_pure(schema, k, seed):
    assert generate.generate(schema, k, seed) == generate.generate(schema, k, seed)


def test_generator_sizes_and_roles():
    text, roles = generate.generate("dept", 10, 1)
    h = build_hypergraph(parse_database(text))
    assert (h.n_nodes, h.n_edges, h.n_labels) == (199, 379, 3)
    assert set(roles) == set(h.node_names)
    assert set(roles.values()) == {"chair", "prof", "student", "book", "dept"}
    text, _ = generate.generate("rich", 1, 1)
    h = build_hypergraph(parse_database(text))
    assert (h.n_nodes, h.n_edges, h.n_labels) == (20, 50, 5)
    assert generate.generate("dept", 10, 2)[0] != text


@pytest.mark.parametrize("use_hcluster", [True, False])
def test_child_report_equals_cli(tmp_path, monkeypatch, use_hcluster):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    wl = bench.Workload("dept", 2, (1,), 0.1, use_hcluster)
    (db,) = bench.make_databases(wl)
    op = bench.run_op(db, wl, 42, "plain", deadline=float("inf"))
    assert op.ok, op.problems
    out = tmp_path / "cli.json"
    argv = ["mine", "--db", str(db.path), "--epsilon", "0.1", "--alpha", "0.01",
            "--seed", "42", "--threads", "1", "--top-k", "3", "--max-length", "5",
            "--output", str(out)]
    assert prism_main(argv + ([] if use_hcluster else ["--no-hcluster"])) == 0
    child_text = (tmp_path / f"{db.name}-plain.report.json").read_text()
    assert child_text == out.read_text()

    # the checks catch a report that drops a node from a source's partition
    report = json.loads(child_text)
    src = report["subhypergraphs"][0]["sources"][0]
    src["concepts"][0]["members"].pop()
    broken = json.dumps(report, separators=(",", ":"))
    problems = bench.check_report(broken, parse_report(broken), db, wl)
    assert any("partition" in p for p in problems)


def test_exit3_op_is_counted_not_dropped(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    monkeypatch.setitem(bench.WORKLOADS, "dept-hc", bench.Workload("dept", 10, (1, 2), 0.5, True))
    assert bench.main(["--workload", "dept-hc", "--seconds", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "op dept-k10-g1 plain: FAILED exit=3" in out
    assert "op dept-k10-g2 plain: ok" in out
    result = json.loads(out[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 1)
    assert any(line.startswith("fail_share 0.5000 ") for line in out)


def test_runner_refuses_without_sources(tmp_path):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    for name in ("run.py", "generate.py", "child.py"):
        (bench_dir / name).write_text((bench.ROOT / "bench" / name).read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rich-walks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
