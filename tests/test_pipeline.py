import hashlib
import importlib.util
import json
import sys
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import datasets
import oracles
from prism import clustering, pipeline, spectral
from prism.cli import main
from prism.hypergraph import LabeledHypergraph, diameter, majority_subhypergraph
from prism.pipeline import (
    ConceptEntry,
    ConceptReport,
    RunConfig,
    SourceReport,
    SubhypergraphReport,
    emit_report,
    get_communities,
    parse_report,
)
from prism.relational import build_hypergraph, parse_database
from prism.walks import table_peak_bytes, walk_kept_bytes


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


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(epsilon=1.0)
    with pytest.raises(ValueError):
        RunConfig(alpha=0.0)
    with pytest.raises(ValueError):
        RunConfig(threads=0)


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
    # P5 (the colleague) and P3 (the student P4 does not teach) separate at
    # every seed, and so does P1, reachable only through P4 itself and thinner
    # in long paths than the shared students. The full partition below, with
    # the books together and P2 among the shared students, is one random
    # outcome, seen at 98 of 300 seeds, so its count over 40 seeds is checked
    # against the central 99.8% of Binomial(40, 98/300)
    want = {
        frozenset({"P5"}),
        frozenset({"P1"}),
        frozenset({"P2", "P6", "P7", "P8"}),
        frozenset({"P3"}),
        frozenset({"B1", "B2"}),
    }
    hits = 0
    for seed in range(40):
        got = source_concepts(get_communities(department_variant, RunConfig(seed=seed)), "P4")
        assert {frozenset({"P5"}), frozenset({"P3"}), frozenset({"P1"})} <= got
        hits += got == want
    lo, hi = binom.interval(0.998, 40, 98 / 300)
    assert lo <= hits <= hi


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


def assert_each_node_is_a_source_once(h, cfg):
    report = get_communities(h, cfg)
    sources = [src.source for sub in report.subhypergraphs for src in sub.sources]
    assert sorted(sources) == sorted(h.node_names)
    for sub in report.subhypergraphs:
        assert {src.source for src in sub.sources} <= set(sub.nodes)
    return report


@pytest.mark.parametrize("use_hcluster", [True, False])
@pytest.mark.parametrize("db_text", [datasets.two_departments_db(), datasets.rich_schema_db()],
                         ids=["two-departments", "rich"])
def test_sources_partition_the_nodes(db_text, use_hcluster):
    # a piece mines its own leaf's nodes, not the endpoints it keeps from
    # other leaves, so every node is mined once, as in a flat run
    h = datasets.graph(db_text)
    report = assert_each_node_is_a_source_once(h, RunConfig(seed=1, use_hcluster=use_hcluster))
    n_nodes = sum(len(sub.nodes) for sub in report.subhypergraphs)
    assert n_nodes > h.n_nodes if use_hcluster else n_nodes == h.n_nodes


@st.composite
def two_blob_hypergraphs(draw):
    """Two connected blobs of 8-15 nodes each, edges of 1-3 members over two
    labels, joined by one to three edges: a connected hypergraph of 16-30
    nodes whose clique expansion has one sparse cut to find."""
    blobs, edges, n = [], [], 0
    for _ in range(2):
        size = draw(st.integers(8, 15))
        ids = list(range(n, n + size))
        n += size
        for i in range(1, size):  # a random spanning tree keeps the blob connected
            edges.append((draw(st.integers(0, 1)), (ids[draw(st.integers(0, i - 1))], ids[i])))
        member = st.sampled_from(ids)
        more = st.tuples(st.integers(0, 1), st.lists(member, min_size=1, max_size=3, unique=True))
        edges += [(label, tuple(m)) for label, m in draw(st.lists(more, max_size=size))]
        blobs.append(ids)
    bridge = st.tuples(st.integers(0, 1), st.sampled_from(blobs[0]), st.sampled_from(blobs[1]))
    edges += [(label, (a, b)) for label, a, b in draw(st.lists(bridge, min_size=1, max_size=3))]
    return LabeledHypergraph.build([f"v{i}" for i in range(n)], ["a", "b"], edges)


@settings(max_examples=25, deadline=None)
@given(two_blob_hypergraphs(), st.booleans())
def test_sources_partition_the_nodes_of_random_hypergraphs(h, use_hcluster):
    assert_each_node_is_a_source_once(h, RunConfig(epsilon=0.5, seed=3, use_hcluster=use_hcluster))


def test_get_communities_stranded_source(monkeypatch):
    # v4's only edge has its majority in part A, so the majority split leaves
    # v4 isolated in part B's sub-hypergraph: its walks stay put on label -1
    h = LabeledHypergraph.build(
        tuple(f"v{i}" for i in range(7)),
        ("l",),
        [(0, (0, 1, 4)), (0, (0, 1)), (0, (1, 2)), (0, (2, 3)), (0, (3, 5)), (0, (5, 6))],
    )
    parts = np.array([0, 0, 0, 0, 1, 1, 1])
    monkeypatch.setattr(pipeline, "hcluster", lambda comp: majority_subhypergraph(comp, parts))
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
    # every object's keys in schema order: a reordered dataclass field or
    # config echo shows up here as a readable diff
    entry = {"length": 2, "q": 0.25, "critical": 3.5, "passed": True}
    concept = ConceptEntry(members=("b", "c"), parent_tht=1.5, margins=(entry,))
    source = SourceReport(source="a", concepts=(concept,), unreached=("d",))
    sub = SubhypergraphReport(
        id=0,
        nodes=("a", "b", "c", "d"),
        n_edges=3,
        labels=("R", "S"),
        diameter=2,
        walk_length=2,
        walk_count=40,
        sources=(source,),
    )
    report = ConceptReport(subhypergraphs=(sub,), config=RunConfig(seed=3).to_dict())
    assert emit_report(report) == (
        '{"schema_version":1,'
        '"config":{"epsilon":0.1,"alpha":0.01,"k_top":3,"proj_dim":2,'
        '"lambda2_max":0.8,"n_min":8,"L_cap":5,"seed":3,"use_hcluster":true,'
        '"min_category_mean":5.0},'
        '"subhypergraphs":[{"id":0,"nodes":["a","b","c","d"],"n_edges":3,'
        '"labels":["R","S"],"diameter":2,"walk_length":2,"walk_count":40,'
        '"sources":[{"source":"a","concepts":[{"members":["b","c"],'
        '"parent_tht":1.5,"margins":[{"length":2,"q":0.25,"critical":3.5,'
        '"passed":true}]}],"unreached":["d"]}]}]}'
    )


def test_emit_refuses_non_finite_numbers():
    with pytest.raises(ValueError):
        emit_report(ConceptReport(config={"lambda2_max": float("nan")}))


def test_emit_round_trip(two_departments):
    report = get_communities(two_departments, RunConfig(seed=4))
    again = parse_report(emit_report(report, "json"))
    assert again == report
    assert emit_report(again, "json") == emit_report(report, "json")


def test_parse_report_requires_every_field_but_config(two_departments):
    report = get_communities(two_departments, RunConfig(seed=4))
    payload = json.loads(emit_report(report, "json"))
    del payload["config"]
    assert parse_report(json.dumps(payload)).config is None
    del payload["subhypergraphs"][0]["sources"][0]["concepts"][0]["parent_tht"]
    with pytest.raises(KeyError):
        parse_report(json.dumps(payload))
    with pytest.raises(ValueError):
        parse_report('{"schema_version":2,"subhypergraphs":[]}')


def test_parse_report_looks_up_each_report_type_once(two_departments, monkeypatch):
    # a report of many sources and concepts reads each report dataclass's
    # type hints once, not once per object
    text = emit_report(get_communities(two_departments, RunConfig(seed=4)), "json")
    looked_up = []
    get_type_hints = typing.get_type_hints
    monkeypatch.setattr(typing, "get_type_hints", lambda tp: looked_up.append(tp) or get_type_hints(tp))
    pipeline._fields.cache_clear()
    assert emit_report(parse_report(text), "json") == text
    assert sorted(tp.__name__ for tp in looked_up) == [
        "ConceptEntry", "ConceptReport", "SourceReport", "SubhypergraphReport"
    ]


@pytest.mark.parametrize("text", ["[]", '"x"', "3", "null"])
def test_parse_report_rejects_json_that_is_not_an_object(text):
    with pytest.raises(ValueError, match="JSON object"):
        parse_report(text)


@pytest.mark.parametrize(
    "subhypergraphs, wrong",
    [
        ("{}", "JSON list"),
        ("7", "JSON list"),
        ("[1]", "JSON object"),
        ('[{"id":0,"nodes":"xy","n_edges":0,"labels":[],"diameter":0,'
         '"walk_length":1,"walk_count":1,"sources":[]}]', "JSON list"),
    ],
    ids=["object-for-list", "number-for-list", "number-for-object", "string-for-list"],
)
def test_parse_report_rejects_a_value_of_the_wrong_json_type(subhypergraphs, wrong):
    # a report value of another JSON type is refused by name, not parsed as
    # an empty report or split into characters
    with pytest.raises(ValueError, match=wrong):
        parse_report(f'{{"schema_version":1,"subhypergraphs":{subhypergraphs}}}')


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
    row_tables = []  # the signature table of each row of the batch being refined
    run_walks, path_test = pipeline.run_walks, clustering.path_test
    batches = clustering.CountRows.batches

    def walks_spy(h, source, cfg):
        stats = run_walks(h, source, cfg)
        walked.append((h, stats))
        return stats

    def batches_spy(sets):
        done = 0
        for n_sets, cr in batches(sets):
            row_tables[:] = [t for _, t, members in sets[done : done + n_sets] for _ in members]
            done += n_sets
            yield n_sets, cr

    def path_test_spy(cr, rows, sizes, *args):
        # a block may hold the sources of several pieces, so each group is
        # mapped to its piece through the walked stats its rows come from
        piece = {id(stats.signatures): h for h, stats in walked}
        ends = np.cumsum(sizes)
        for g, size in enumerate(sizes):
            group = rows[ends[g] - size : ends[g]]
            assert len({id(row_tables[r]) for r in group.tolist()}) == 1
            h = piece[id(row_tables[group[0]])]
            assert len(set(cr.source[group].tolist())) == 1
            tested.append((id(h), int(cr.source[group[0]]), tuple(cr.target[group].tolist())))
        return path_test(cr, rows, sizes, *args)

    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline ran a path test of its own")

    monkeypatch.setattr(pipeline, "run_walks", walks_spy)
    monkeypatch.setattr(clustering, "path_test", path_test_spy)
    monkeypatch.setattr(clustering.CountRows, "batches", batches_spy)
    monkeypatch.setattr(pipeline, "path_symmetry_report", refuse)
    report = get_communities(two_departments, RunConfig(seed=0))
    assert tested
    assert len(set(tested)) == len(tested)
    sources = [src for sub in report.subhypergraphs for src in sub.sources]
    assert len(sources) == len(walked)
    for src, (h, stats) in zip(sources, walked):
        assert src.source == h.node_names[stats.source]
        view = oracles.signature_dicts(stats.signatures)
        for concept in src.concepts:
            ids = [h.node_names.index(name) for name in concept.members]
            if len(ids) > 1:
                assert (id(h), stats.source, tuple(sorted(ids))) in tested
            counts = {v: view.get(v, {}) for v in ids}
            oracles.assert_same_entries(
                list(concept.margins),
                oracles.reference_path_symmetry_report(counts, ids, stats.N, stats.L, 0.01),
            )


@pytest.mark.parametrize("use_hcluster", [True, False])
def test_blocked_run_equals_unblocked(two_departments, monkeypatch, use_hcluster):
    # a budget that holds one piece's walks beside only two walked sources
    # splits every piece into blocks of a few sources; the report keeps its
    # bytes. The whole hypergraph's tables outweigh any piece's
    cfg = RunConfig(seed=5, use_hcluster=use_hcluster)
    peaks = []
    walk_peak = pipeline.walk_peak_bytes

    def sizing(*args):
        peaks.append(walk_peak(*args))
        return peaks[-1]

    monkeypatch.setattr(pipeline, "walk_peak_bytes", sizing)
    whole = emit_report(get_communities(two_departments, cfg))
    pieces = parse_report(whole).subhypergraphs
    sized = [
        (len(sub.nodes), max(1, len(sub.labels)), sub.walk_count, sub.walk_length)
        for sub in pieces
    ]
    assert len(peaks) == len(sized)
    budget = max(peak + 2 * walk_kept_bytes(*size) for peak, size in zip(peaks, sized))
    budget += table_peak_bytes(two_departments)
    blocks = []
    symmetry_clusters = pipeline.symmetry_clusters

    def spy(walked, alpha):
        blocks.append(len(walked))
        return symmetry_clusters(walked, alpha)

    monkeypatch.setattr(pipeline, "WALK_MEMORY_BUDGET", budget)
    monkeypatch.setattr(pipeline, "symmetry_clusters", spy)
    assert emit_report(get_communities(two_departments, cfg)) == whole
    assert sum(blocks) == two_departments.n_nodes
    assert 2 in blocks and len(blocks) > len(pieces)


def _disjoint_edges(k):
    """k disjoint edges of 300 members each: k pieces of 89,700 table pairs."""
    return LabeledHypergraph.build(
        [f"v{i}" for i in range(300 * k)],
        ["l0"],
        [(0, tuple(range(300 * e, 300 * e + 300))) for e in range(k)],
    )


def test_get_communities_frees_each_piece_tables():
    # the budget sizes one piece at a time, so a piece's transition tables
    # go once its last block is walked: each further piece then adds its
    # report to the peak, not its tables (one piece's tables were still
    # held per earlier piece: 7.6, 13.4 and 17.5 MiB for 1, 2 and 3 pieces)
    def peak(k):
        h = _disjoint_edges(k)
        tracemalloc.start()
        try:
            get_communities(h, RunConfig(epsilon=0.5, use_hcluster=False))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    kept = sum(a.nbytes for a in _disjoint_edges(1).walk_tables if isinstance(a, np.ndarray))
    one = peak(1)
    assert peak(2) - one < kept
    assert peak(3) - one < kept


def test_one_block_clusters_the_pieces_of_a_component_after_their_tables_go(
    two_departments, monkeypatch
):
    # both departments walk N=1505 walks of L=4: their 20 sources are
    # clustered in one call, once each piece's tables are dropped
    pieces, holding = [], []
    hcluster, symmetry_clusters = pipeline.hcluster, pipeline.symmetry_clusters

    def cut(comp):
        pieces.extend(hcluster(comp))
        return pieces

    def spy(walked, alpha):
        holding.append(["walk_tables" in vars(p) for p in pieces])
        return symmetry_clusters(walked, alpha)

    monkeypatch.setattr(pipeline, "hcluster", cut)
    monkeypatch.setattr(pipeline, "symmetry_clusters", spy)
    get_communities(two_departments, RunConfig(seed=0))
    assert len(pieces) == 2 and holding == [[False, False]]


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name, monkeypatch):
    """``bench/<name>.py``, loaded with ``bench`` on ``sys.path`` until the
    test ends; registered in ``sys.modules`` for its dataclasses."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_bench_traced_attributes_resolve(monkeypatch):
    # bench/child.py wraps these module attributes by name under --trace 1
    child = _bench_module("child", monkeypatch)
    for module, attrs in child.TRACED.items():
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_bench_trace_run_reports_its_layers(tmp_path, monkeypatch, capsys):
    # one --trace 1 run over a single small dept database: the traced child
    # must still mine, and the notes the runner sums must still arrive
    run = _bench_module("run", monkeypatch)
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "dept-hc", run.Workload("dept", 2, (1,), 0.1, True))
    assert run.main(["--workload", "dept-hc", "--seed", "1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    for name in ("walks.source_runs", "clustering.bisect_calls", "stats.critical_value_calls"):
        assert result["metrics"][name]["value"] > 0, name
    # hcluster mines each node once
    assert result["metrics"]["walks.source_runs_per_node"]["value"] == 1.0


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


def test_cli_spectral_flags_are_usage_errors(tmp_path, capsys):
    # the spectral stop rules are constants, so prism mine has no flags for them
    db = tmp_path / "x.db"
    db.write_text(datasets.classroom_db())
    out = tmp_path / "report.json"
    for flag, value in (("--lambda2-max", "0.5"), ("--n-min", "4")):
        assert main(["mine", "--db", str(db), flag, value, "--output", str(out)]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()


def test_cli_negative_seed_is_usage_error(tmp_path, capsys):
    db = tmp_path / "x.db"
    db.write_text(datasets.classroom_db())
    out = tmp_path / "report.json"
    assert main(["mine", "--db", str(db), "--seed", "-1", "--output", str(out)]) == 1
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "db_text, epsilon, budget",
    [
        (datasets.two_departments_db(), "0.1", 1),
        (datasets.layered_db(), "0.001", None),
        (datasets.layered_db(), "0.0005", None),
    ],
    ids=["low-budget", "epsilon-0.001", "epsilon-0.0005"],
)
def test_cli_refuses_walks_over_memory_budget(
    tmp_path, capsys, monkeypatch, db_text, epsilon, budget
):
    # against the real 2 GiB budget, the layered database (200 nodes, 50
    # labels, rows of up to 80 entries) needs walks of length 4 whose paths
    # hardly collapse: at epsilon 0.001, 64.0M of them, estimated at 16.9
    # GiB per source (tracemalloc read 52 MiB against an estimate of 182 MiB
    # at epsilon 0.01, 640k walks), and at epsilon 0.0005, 256M, estimated
    # at 45.5 GiB. The spy keeps a run that is not refused from allocating
    # any of it
    def refuse(*args, **kwargs):
        raise AssertionError("walks started")

    monkeypatch.setattr(pipeline, "run_walks", refuse)
    if budget is not None:
        monkeypatch.setattr(pipeline, "WALK_MEMORY_BUDGET", budget)
    db = tmp_path / "db.db"
    db.write_text(db_text)
    out = tmp_path / "report.json"
    argv = ["mine", "--db", str(db), "--epsilon", epsilon, "--no-hcluster", "--output", str(out)]
    assert main(argv) == 1
    assert f"epsilon {epsilon}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_mines_the_toy_database_at_epsilon_0001(tmp_path):
    # its paths collapse: 15.0M walks of length 4 per source on rows of at
    # most 5 entries take at most 5**4 paths, where one walker at a time
    # took about 1.65 GiB and was refused
    db = tmp_path / "two.db"
    db.write_text(datasets.two_departments_db())
    out = tmp_path / "report.json"
    assert main(["mine", "--db", str(db), "--epsilon", "0.001", "--output", str(out)]) == 0
    report = parse_report(out.read_text())
    assert {sub.walk_count for sub in report.subhypergraphs} >= {15_044_812}


def test_cli_parse_error_exit_code(tmp_path):
    db = tmp_path / "bad.db"
    db.write_text("not an atom at all(")
    assert main(["mine", "--db", str(db)]) == 2
    assert main(["stats", "--db", str(db)]) == 2


def test_cli_eigensolver_non_convergence_exits_3(tmp_path, monkeypatch, capsys):
    # a power iteration cut off before its residual is reached is a numeric
    # error, exit 3, not a crash or a usage error
    monkeypatch.setattr(spectral, "EIG_MAX_ITERS", 1)
    db = tmp_path / "toy.db"
    db.write_text(datasets.two_departments_db())
    assert main(["mine", "--db", str(db)]) == 3
    assert "numeric error: eigensolver did not reach residual" in capsys.readouterr().err


def test_cli_missing_file_is_usage_error(tmp_path):
    assert main(["stats", "--db", str(tmp_path / "missing.db")]) == 1


@pytest.mark.parametrize(
    "db_text, flags, digest",
    [
        (
            datasets.two_departments_db(),
            [],
            "170b6b1ac1792685180d10812bd88d2bf00dc3a80c78b63f3ee99ecc1923bb2e",
        ),
        (
            datasets.two_departments_db(),
            ["--no-hcluster"],
            "01bfbcd85c66f26f76b87f5e03e4e7e044758c89212ce38965493038efdf88e0",
        ),
        (
            datasets.two_components_db(),
            [],
            "50eef042557eccf991048f01e7397a12e10457b675ef9d312f4622f3e3badf54",
        ),
        (
            datasets.two_components_db(),
            ["--no-hcluster"],
            "5c235bf6000dab0876dd959a4733678571e0b0649b2e32b5c5eefd88d07b4529",
        ),
        (
            datasets.rich_schema_db(),
            [],
            "a128edec1984ea682289b8d3828065279555df2c0b8d23bfe61bdc9c21f06577",
        ),
        (
            datasets.rich_schema_db(),
            ["--no-hcluster"],
            "7eb612659287da3f3ef70a296b283a463ab28970c7b8c4f0124bcd6cdcc96c86",
        ),
        (
            # uncapped walks: L is the diameter, 30
            datasets.labeled_chain_db(30),
            ["--max-length", "0", "--no-hcluster", "--epsilon", "0.9"],
            "41f448c70f18babab66df0553718a118b342dffd8e882826469260de930afe3b",
        ),
        (
            # N=2337 walks of L=30: thousands of signatures per distance set
            datasets.labeled_chain_db(30),
            ["--max-length", "0", "--no-hcluster", "--epsilon", "0.3"],
            "4f5589efa09848025d67d92d87564ed2145a064815a3233e2daf2280647bee27",
        ),
        (
            # the benchmark's 199-node dept databases: many sets fail whole
            datasets.bench_db("dept", 10, 2),
            [],
            "1e4c0c6fb979138a2387bd255e943eacf77e81bdcb38d227857758c414782826",
        ),
        (
            datasets.bench_db("dept", 10, 1),
            ["--no-hcluster"],
            "6c452b8726c7e01b0af7c4de8a2f1e1c371bf0791ee45bcbf97be6acdbe8866f",
        ),
    ],
    ids=[
        "hcluster",
        "no-hcluster",
        "two-components-hcluster",
        "two-components-no-hcluster",
        "rich-hcluster",
        "rich-no-hcluster",
        "chain-uncapped",
        "chain-uncapped-wide",
        "bench-dept-k10-g2-hcluster",
        "bench-dept-k10-g1-no-hcluster",
    ],
)
def test_cli_mine_report_bytes_are_pinned(tmp_path, db_text, flags, digest):
    # speed-ups must not move a single report byte; a change that means to
    # alter the report re-pins these and says so
    db = tmp_path / "two.db"
    db.write_text(db_text, encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["mine", "--db", str(db), "--seed", "123", "--output", str(out), *flags]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
