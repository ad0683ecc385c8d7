"""Command-line interface.

``prism mine`` runs the full pipeline on a ground-atom database and writes a
JSON or TSV concept report; ``prism stats`` prints a summary of the
hypergraph built from the database. Progress and stage timings go to stderr,
the report only to the output path. Exit codes: 0 success, 1 usage error,
2 parse error, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import sys
import time

from .hypergraph import connected_components, diameter
from .pipeline import RunConfig, emit_report, get_communities
from .relational import DatabaseParseError, build_hypergraph, parse_database
from .spectral import ConvergenceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="prism", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cfg = RunConfig()  # the defaults of the tuning flags
    mine = sub.add_parser("mine", help="mine path-symmetric concepts from a database")
    mine.add_argument("--db", required=True, help="input ground-atom .db file")
    mine.add_argument("--epsilon", type=float, default=cfg.epsilon, help="walk-count uncertainty target")
    mine.add_argument("--alpha", type=float, default=cfg.alpha, help="significance level of both symmetry tests")
    mine.add_argument("--seed", type=int, default=cfg.seed, help="64-bit RNG seed")
    mine.add_argument("--threads", type=int, default=cfg.threads, help="parallel source workers")
    mine.add_argument("--output", default="-", help="report path ('-' for stdout)")
    mine.add_argument("--format", choices=("json", "tsv"), default="json")
    mine.add_argument("--top-k", type=int, default=cfg.k_top, help="most-probable paths held to the uncertainty target")
    mine.add_argument("--max-length", type=int, default=cfg.L_cap or 0, help="walk-length cap (0 disables the cap)")
    mine.add_argument("--no-hcluster", action="store_true", help="skip hierarchical pre-clustering")

    stats = sub.add_parser("stats", help="print hypergraph summary for a database")
    stats.add_argument("--db", required=True, help="input ground-atom .db file")
    return parser


def _load_hypergraph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return build_hypergraph(parse_database(text))


def _cmd_mine(args: argparse.Namespace) -> int:
    cfg = RunConfig(
        epsilon=args.epsilon,
        alpha=args.alpha,
        k_top=args.top_k,
        L_cap=None if args.max_length == 0 else args.max_length,
        seed=args.seed,
        threads=args.threads,
        use_hcluster=not args.no_hcluster,
    )
    t0 = time.perf_counter()
    h = _load_hypergraph(args.db)
    parse_time = time.perf_counter() - t0
    print(
        f"parsed {args.db}: {h.n_nodes} nodes, {h.n_edges} edges, "
        f"{h.n_labels} labels ({parse_time:.3f}s)",
        file=sys.stderr,
    )
    timings: dict = {}
    report = get_communities(h, cfg, timings=timings)
    for stage in ("hcluster", "sources", "mine"):
        if stage in timings:
            print(f"{stage}: {timings[stage]:.3f}s", file=sys.stderr)
    payload = emit_report(report, args.format)
    if args.output == "-":
        sys.stdout.write(payload)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"report written to {args.output}", file=sys.stderr)
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.db)
    print(f"nodes: {h.n_nodes}")
    print(f"edges: {h.n_edges}")
    print(f"labels: {h.n_labels} ({', '.join(h.label_names)})")
    for i, comp in enumerate(connected_components(h)):
        print(
            f"component {i}: nodes={comp.n_nodes} edges={comp.n_edges} "
            f"diameter={diameter(comp)}"
        )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "mine":
            return _cmd_mine(args)
        return _cmd_stats(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DatabaseParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
