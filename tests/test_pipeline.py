import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import datasets
import oracles
from prism import clustering, pipeline
from prism.cli import main
from prism.hypergraph import LabeledHypergraph, diameter, majority_subhypergraph
from prism.pipeline import (
    ConceptReport,
    RunConfig,
    emit_report,
    get_communities,
    parse_report,
)
from prism.relational import build_hypergraph, parse_database


def source_concepts(report, source):
    for sub in report.subhypergraphs:
        for src in sub.sources:
            if src.source == source:
                return {frozenset(c.members) for c in src.concepts}
    raise KeyError(source)


def test_runconfig_defaults():
    cfg = RunConfig()
    assert cfg.epsilon == 0.1
    assert cfg.alpha == 0.01
    assert cfg.k_top == 3
    assert cfg.proj_dim == 2


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(epsilon=1.0)
    with pytest.raises(ValueError):
        RunConfig(alpha=0.0)
    with pytest.raises(ValueError):
        RunConfig(threads=0)
    # the spectral settings are echoed in the report, so they are checked
    # even when hcluster does not run
    with pytest.raises(ValueError):
        RunConfig(lambda2_max=float("nan"), use_hcluster=False)
    with pytest.raises(ValueError):
        RunConfig(n_min=1, use_hcluster=False)


def test_get_communities_empty_input():
    h = build_hypergraph(parse_database(""))
    report = get_communities(h, RunConfig())
    assert report.subhypergraphs == ()


def test_get_communities_two_departments(two_departments):
    report = get_communities(two_departments, RunConfig(seed=0))
    assert len(report.subhypergraphs) == 2
    for sub in report.subhypergraphs:
        assert sub.diameter == 4
        assert sub.walk_length == 4
        assert sub.walk_count == 1505
    assert sum(s.n_edges for s in report.subhypergraphs) == two_departments.n_edges


def test_get_communities_physics_source_b1(two_departments):
    report = get_communities(two_departments, RunConfig(seed=2))
    got = source_concepts(report, "B1")
    want = {
        frozenset({"P1", "P2"}),
        frozenset({"P3"}),
        frozenset({"P4", "P5"}),
        frozenset({"P6", "P7", "P8"}),
        frozenset({"B2"}),
        frozenset({"B4"}),
    }
    assert got == want


def test_get_communities_department_variant_source_p4(department_variant):
    report = get_communities(department_variant, RunConfig(seed=0))
    got = source_concepts(report, "P4")
    # P5 (the colleague), P3 (the student P4 does not teach) and the books
    # separate cleanly; P1, reachable only through P4 itself, is thinner in
    # long paths than the shared students and splits off
    want = {
        frozenset({"P5"}),
        frozenset({"P1"}),
        frozenset({"P2", "P6", "P7", "P8"}),
        frozenset({"P3"}),
        frozenset({"B1", "B2"}),
    }
    assert got == want


def test_get_communities_single_edge_singletons():
    h = build_hypergraph(parse_database("Knows(a,b)"))
    report = get_communities(h, RunConfig(seed=1))
    assert source_concepts(report, "a") == {frozenset({"b"})}
    assert source_concepts(report, "b") == {frozenset({"a"})}


def test_get_communities_coverage(two_departments):
    report = get_communities(two_departments, RunConfig(seed=5))
    for sub in report.subhypergraphs:
        for src in sub.sources:
            seen = [m for c in src.concepts for m in c.members]
            assert sorted(seen + list(src.unreached) + [src.source]) == sorted(
                sub.nodes
            )
            assert len(set(seen)) == len(seen)


def test_get_communities_stranded_source(monkeypatch):
    # v4's only edge has its majority in part A, so the majority split leaves
    # v4 isolated in part B's sub-hypergraph: its walks stay put on label -1
    h = LabeledHypergraph.build(
        tuple(f"v{i}" for i in range(7)),
        ("l",),
        [(0, (0, 1, 4)), (0, (0, 1)), (0, (1, 2)), (0, (2, 3)), (0, (3, 5)), (0, (5, 6))],
    )
    parts = [{0, 1, 2, 3}, {4, 5, 6}]
    monkeypatch.setattr(pipeline, "hcluster", lambda comp, cfg: majority_subhypergraph(comp, parts))
    report = get_communities(h, RunConfig(seed=4))
    stranded = report.subhypergraphs[1]
    assert stranded.nodes == ("v4", "v5", "v6")
    assert stranded.n_edges == 1
    src = stranded.sources[0]
    assert src.source == "v4"
    assert src.concepts == ()
    assert src.unreached == ("v5", "v6")
    # only the connected pair v5-v6 counts towards the diameter
    sub = majority_subhypergraph(h, parts)[1]
    assert stranded.diameter == diameter(sub) == 1


def test_get_communities_thread_counts_agree(two_departments):
    base = emit_report(get_communities(two_departments, RunConfig(seed=3, threads=1)))
    for threads in (4, 8):
        other = emit_report(
            get_communities(two_departments, RunConfig(seed=3, threads=threads))
        )
        assert other == base


def test_no_hcluster_flag_keeps_one_subhypergraph(two_departments):
    report = get_communities(two_departments, RunConfig(seed=0, use_hcluster=False))
    assert len(report.subhypergraphs) == 1
    assert report.subhypergraphs[0].walk_length == 5  # diameter 8 capped


def test_emit_empty_report_exact_bytes():
    assert emit_report(ConceptReport()) == '{"schema_version":1,"subhypergraphs":[]}'


def test_emit_refuses_non_finite_numbers():
    with pytest.raises(ValueError):
        emit_report(ConceptReport(config={"lambda2_max": float("nan")}))


def test_emit_round_trip(two_departments):
    report = get_communities(two_departments, RunConfig(seed=4))
    again = parse_report(emit_report(report, "json"))
    assert again == report
    assert emit_report(again, "json") == emit_report(report, "json")


def test_emit_same_seed_byte_identical(two_departments):
    cfg = RunConfig(seed=11)
    a = emit_report(get_communities(two_departments, cfg))
    b = emit_report(get_communities(two_departments, cfg))
    assert a == b


def test_emit_tsv_shape(classroom):
    report = get_communities(classroom, RunConfig(seed=0))
    tsv = emit_report(report, "tsv")
    lines = tsv.strip().split("\n")
    assert lines[0] == "sub_hypergraph\tsource\tconcept_members\tparent_tht"
    for line in lines[1:]:
        sub_id, source, members, tht = line.split("\t")
        assert source in classroom.node_names
        assert all(m in classroom.node_names for m in members.split(","))
        float(tht)


def test_timings_are_recorded_out_of_band(classroom):
    timings = {}
    get_communities(classroom, RunConfig(seed=0), timings=timings)
    assert set(timings) >= {"hcluster", "sources", "mine"}
    assert timings["sources"] <= timings["mine"] + 1e-9


def test_concept_margins_reflect_passing_tests(classroom):
    report = get_communities(classroom, RunConfig(seed=0))
    src = [
        s for sub in report.subhypergraphs for s in sub.sources if s.source == "P1"
    ][0]
    multi = [c for c in src.concepts if len(c.members) > 1]
    assert multi
    for concept in multi:
        assert concept.margins
        for entry in concept.margins:
            assert entry["passed"]
            if entry["critical"] is not None:
                assert entry["q"] <= entry["critical"]


def test_each_group_is_tested_once(two_departments, monkeypatch):
    walked = []
    tested = []
    run_walks, entries = pipeline.run_walks, clustering.path_test_entries

    def walks_spy(h, source, cfg):
        stats = run_walks(h, source, cfg)
        walked.append((h, stats))
        return stats

    def entries_spy(cm, *args):
        h, stats = walked[-1]
        tested.append((id(h), stats.source, cm.members))
        return entries(cm, *args)

    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline ran a path test of its own")

    monkeypatch.setattr(pipeline, "run_walks", walks_spy)
    monkeypatch.setattr(clustering, "path_test_entries", entries_spy)
    monkeypatch.setattr(pipeline, "path_symmetry_report", refuse)
    report = get_communities(two_departments, RunConfig(seed=0))
    assert tested
    assert len(set(tested)) == len(tested)
    sources = [src for sub in report.subhypergraphs for src in sub.sources]
    assert len(sources) == len(walked)
    for src, (h, stats) in zip(sources, walked):
        assert src.source == h.node_names[stats.source]
        for concept in src.concepts:
            ids = [h.node_names.index(name) for name in concept.members]
            counts = {v: stats.signature_counts.get(v, {}) for v in ids}
            assert list(concept.margins) == oracles.reference_path_symmetry_report(
                counts, ids, stats.N, stats.L, 0.01
            )


def test_bench_traced_attributes_resolve():
    # bench/child.py wraps these module attributes by name under --trace 1
    path = Path(__file__).resolve().parent.parent / "bench" / "child.py"
    spec = importlib.util.spec_from_file_location("bench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    for module, attrs in child.TRACED.items():
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_cli_stats(tmp_path, capsys):
    db = tmp_path / "toy.db"
    db.write_text(datasets.two_departments_db())
    assert main(["stats", "--db", str(db)]) == 0
    out = capsys.readouterr().out
    assert "nodes: 20" in out
    assert "component 0" in out
    assert "diameter=8" in out


def test_cli_mine_writes_report(tmp_path):
    db = tmp_path / "toy.db"
    db.write_text(datasets.classroom_db())
    out = tmp_path / "report.json"
    code = main(
        ["mine", "--db", str(db), "--seed", "7", "--output", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["config"]["seed"] == 7
    assert len(payload["subhypergraphs"]) == 1


def test_cli_mine_tsv(tmp_path, capsys):
    db = tmp_path / "toy.db"
    db.write_text("Knows(a,b)\n")
    assert main(["mine", "--db", str(db), "--format", "tsv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sub_hypergraph\tsource")


def test_cli_usage_error_exit_code():
    assert main(["mine"]) == 1
    assert main(["bogus"]) == 1
    assert main(["mine", "--db", "x.db", "--epsilon", "2.0"]) == 1


def test_cli_nan_setting_without_hcluster_is_usage_error(tmp_path, capsys):
    db = tmp_path / "x.db"
    db.write_text(datasets.classroom_db())
    out = tmp_path / "report.json"
    argv = ["mine", "--db", str(db), "--no-hcluster", "--lambda2-max", "nan"]
    assert main(argv + ["--output", str(out)]) == 1
    assert "lambda2_max" in capsys.readouterr().err
    assert not out.exists()


def test_cli_parse_error_exit_code(tmp_path):
    db = tmp_path / "bad.db"
    db.write_text("not an atom at all(")
    assert main(["mine", "--db", str(db)]) == 2
    assert main(["stats", "--db", str(db)]) == 2


def test_cli_missing_file_is_usage_error(tmp_path):
    assert main(["stats", "--db", str(tmp_path / "missing.db")]) == 1


@pytest.mark.parametrize(
    "flags, digest",
    [
        ([], "2d1bb1f0e94a8e7afff393e6977cd3d8002ad6d7d32bb0fc5e2eb5bfb4d55721"),
        (["--no-hcluster"], "f9d6f0459d3a2eefaa90fe8418814ed512992ffccbe7580ccffbb6a717d22b44"),
    ],
    ids=["hcluster", "no-hcluster"],
)
def test_cli_mine_report_bytes_are_pinned(tmp_path, flags, digest):
    # speed-ups must not move a single report byte; a change that means to
    # alter the report re-pins these and says so
    db = tmp_path / "two.db"
    db.write_text(datasets.two_departments_db(), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["mine", "--db", str(db), "--seed", "123", "--output", str(out), *flags]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
