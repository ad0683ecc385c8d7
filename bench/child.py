"""One benchmark op in a fresh interpreter: read, parse and build, then
``get_communities``, then ``emit_report``, the call order of ``prism mine``.

Usage::

    python3 bench/child.py MODE DB REPORT MEAS SEED EPSILON HCLUSTER

MODE is ``plain`` (no instrumentation), ``trace`` (a span around every call
into the prism modules listed in ``TRACED``) or ``memory`` (the tracemalloc
peak of the first ``run_walks`` call on each sub-hypergraph). The JSON
report goes to REPORT and the measurements, with this process's
``ru_maxrss``, to MEAS. Timestamps are ``time.perf_counter()`` values,
which on Linux read the system-wide monotonic clock, so the parent can
subtract the moment it launched this process. Like ``prism mine``, an
eigensolver that does not converge exits with status 3.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import tracemalloc

from prism import clustering, pipeline, relational, spectral, stats
from prism.cli import EXIT_NUMERIC
from prism.spectral import ConvergenceError

# Module attributes through which the pipeline calls each layer.
TRACED = {
    relational: ("parse_database", "build_hypergraph"),
    pipeline: (
        "get_communities",
        "connected_components",
        "hcluster",
        "diameter",
        "run_walks",
        "symmetry_clusters",
        "path_symmetry_report",
        "emit_report",
    ),
    spectral: (
        "second_eigenpair",
        "cheeger_sweep_cut",
        "to_weighted_graph",
        "majority_subhypergraph",
    ),
    clustering: ("path_symmetric", "binary_split", "standardize_and_project"),
    stats: ("gamma_critical_value",),
}


def _result_note(name: str, result):
    """The count a span keeps from its call's result, if any."""
    if name == "hcluster":
        return len(result)
    if name == "run_walks":
        return [result.N, result.L]
    if name == "path_symmetric":
        return bool(result)
    return None


class SpanRecorder:
    """Nested spans ``[name, start, end, parent, note]`` kept in memory.

    Single-threaded use only: the parent of a span is whichever span is open
    when it starts.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, module, attr: str) -> None:
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([attr, time.perf_counter(), None, parent, None])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
                self.spans[idx][4] = _result_note(attr, result)
                return result
            finally:
                self._open.pop()
                self.spans[idx][2] = time.perf_counter()

        setattr(module, attr, traced)


def _measure_walk_memory(peaks: list[int]) -> None:
    # tracemalloc slows the calls it watches about fivefold, so only the first
    # source of each sub-hypergraph is watched: every source of a piece walks
    # with the same N, L and node count, which size the walk buffers.
    run_walks = pipeline.run_walks
    seen: set[int] = set()

    def measured(h, *args, **kwargs):
        if id(h) in seen:
            return run_walks(h, *args, **kwargs)
        seen.add(id(h))
        tracemalloc.start()
        try:
            return run_walks(h, *args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    pipeline.run_walks = measured


def main(argv: list[str]) -> int:
    mode, db_path, report_path, meas_path, seed, epsilon, use_hc = argv
    meas: dict = {"status": 0}
    recorder = SpanRecorder()
    peaks: list[int] = []
    if mode == "trace":
        for module, attrs in TRACED.items():
            for attr in attrs:
                recorder.wrap(module, attr)
    elif mode == "memory":
        _measure_walk_memory(peaks)
    elif mode != "plain":
        raise SystemExit(f"unknown mode {mode!r}")
    cfg = pipeline.RunConfig(
        epsilon=float(epsilon),
        alpha=0.01,
        k_top=3,
        L_cap=5,
        seed=int(seed),
        threads=1,
        use_hcluster=use_hc == "1",
    )
    try:
        with open(db_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        h = relational.build_hypergraph(relational.parse_database(text))
        meas["t_built"] = time.perf_counter()
        try:
            report = pipeline.get_communities(h, cfg)
        except ConvergenceError as exc:
            print(f"numeric error: {exc}", file=sys.stderr)
            meas["status"] = EXIT_NUMERIC
            return EXIT_NUMERIC
        finally:
            meas["t_mine_end"] = time.perf_counter()
        payload = pipeline.emit_report(report, "json")
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
        meas["t_written"] = time.perf_counter()
    finally:
        meas["spans"] = recorder.spans
        meas["walk_peaks"] = peaks
        meas["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(meas_path, "w", encoding="utf-8") as fh:
            json.dump(meas, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
