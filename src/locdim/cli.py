"""Command line front end.

Exit codes, stable across releases: 0 success (for verify and scan, no
violations); 1 usage error; 2 input error; 3 violations found (verify,
scan) or no refutation found (refute-problem1).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable

from . import verify as verify_mod
from .dimension import MODES, _floors, _value, local_metric_dimension, metric_dimension
from .enumeration import (
    CANONICAL_MAX_VERTICES,
    CONNECTED_CLASS_COUNTS,
    connected_graphs,
    parse_corpus,
    read_corpus,
)
from .families import FAMILY_GRAMMAR, from_spec
from .graphs import Graph, Graph6Error, from_graph6, to_graph6
from .pattern import find_induced

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_FINDINGS = 3

RECORDS_PER_WRITE = 8192


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _integer(text: str) -> int:
    """int(text), or the usage error argparse would otherwise word with the
    name of the type function."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _gen_order(text: str) -> int:
    n = _integer(text)
    top = CANONICAL_MAX_VERTICES
    if not 3 <= n <= top:
        raise argparse.ArgumentTypeError(
            f"exhaustive streams stop at order {top} ({CONNECTED_CLASS_COUNTS[top]} graphs);"
            f" 3..{top} allowed, got {n}"
        )
    return n


def _jobs(text: str) -> int:
    k = _integer(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {k}")
    return k


def _check_ids(text: str) -> tuple[str, ...]:
    ids = [t.strip() for t in text.split(",") if t.strip()]
    try:
        return verify_mod.normalize_checks(ids)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _graph_from_any(text: str) -> Graph:
    """Accept either a family spec or a graph6 string."""
    try:
        return from_spec(text)
    except ValueError as spec_exc:
        try:
            return from_graph6(text)
        except Graph6Error:
            raise ValueError(
                f"{text!r} is neither a family spec ({spec_exc}) nor valid graph6"
            ) from spec_exc


def _read_graph6(path: str, strict: bool) -> tuple[Graph, ...]:
    """The graphs of a graph6 file, or of stdin for "-"; each malformed
    line is a warning, or with strict the error that stops the run."""
    corpus = parse_corpus(sys.stdin.read(), strict) if path == "-" else read_corpus(path, strict)
    for err in corpus.errors:
        print(f"warning: {path}: {err}", file=sys.stderr)
    return corpus.graphs


def _input_graphs(args) -> list[tuple[str, Graph]]:
    """(name, graph) pairs: the family spec, or each graph's graph6 text,
    which is unique per labeled graph and so equals its input line minus
    any header prefix."""
    if args.family is not None:
        return [(args.family, from_spec(args.family))]
    return [(to_graph6(g), g) for g in _read_graph6(args.input, strict=True)]


def _suite_source(args) -> Iterable[Graph]:
    """The class stream as a generator, or the corpus graphs; a serial run
    checks each graph as it is drawn."""
    if args.gen is not None:
        return connected_graphs(args.gen)
    return _read_graph6(args.corpus, args.strict)


def _cmd_dim(args) -> int:
    """One line per graph; the witness is rebuilt only when it is shown."""
    solve = metric_dimension if args.mode == "full" else local_metric_dimension
    for name, g in _input_graphs(args):
        if args.witness:
            result = solve(g)
            bounds, value = result.bounds, result.value
            tail = " witness=" + (",".join(map(str, result.witness)) or "-")
        else:
            # the masks refuse a disconnected graph before the floors
            value = _value(g, args.mode)
            bounds = _floors(g)
            tail = ""
        print(
            f"id={name} n={g.n} m={g.m} omega={bounds.omega}"
            f" twin_classes={g.n - bounds.twin}"
            f" lb_twin={bounds.twin} lb_log={bounds.log_clique} lb_gap={bounds.gap}"
            f" mode={args.mode} value={value}{tail}"
        )
    return EXIT_OK


def _cmd_family(args) -> int:
    g = from_spec(args.spec)
    if args.edges:
        shown = ",".join(f"{u}-{v}" for u, v in g.edges())
        print(f"n={g.n} m={g.m} edges={shown}")
    else:
        print(to_graph6(g))
    return EXIT_OK


def _cmd_pattern(args) -> int:
    host = _graph_from_any(args.host)
    print(f"host: n={host.n} m={host.m}")
    if args.pattern is not None:
        pat = _graph_from_any(args.pattern)
        mapping = find_induced(host, pat)
        if mapping is None:
            print("no induced copy")
        else:
            print("induced copy: " + " ".join(f"{p}->{h}" for p, h in enumerate(mapping)))
        return EXIT_OK
    mappings = {name: find_induced(host, from_spec(name)) for name in ("gamma1", "gamma2")}
    for name, mapping in mappings.items():
        if mapping is None:
            print(f"{name}: no induced copy")
        else:
            print(f"{name}: " + " ".join(f"{p}->{h}" for p, h in enumerate(mapping)))
    # is_gamma_free's own test, read off the two searches just printed
    free = all(mapping is None for mapping in mappings.values())
    print(f"gamma-free: {'yes' if free else 'no'}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    graphs = _suite_source(args)
    source = f"gen-{args.gen}" if args.gen is not None else str(args.corpus)
    report = verify_mod.run_suite(graphs, checks=args.checks, jobs=args.jobs, source=source)
    if args.format == "records":
        # in batches: one join would copy the whole output, and unbuffered
        # stdout makes each write a syscall
        records = report.to_records()
        for start in range(0, len(records), RECORDS_PER_WRITE):
            sys.stdout.write("\n".join(records[start:start + RECORDS_PER_WRITE]) + "\n")
    else:
        print(report.to_text())
    return EXIT_OK if report.ok else EXIT_FINDINGS


def _cmd_scan(args) -> int:
    graphs = _suite_source(args)
    omega_values = set(args.omega) if args.omega else None
    report = verify_mod.scan_clique_ratio(graphs, omega_values)
    print(report.to_text())
    return EXIT_OK if report.ok else EXIT_FINDINGS


def _cmd_refute(args) -> int:
    report = verify_mod.problem1_refutation(args.max_triangles)
    print(report.to_text())
    return EXIT_OK if report.first_violation is not None else EXIT_FINDINGS


def _add_source_flags(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--gen", type=_gen_order, metavar="N",
                       help="stream every connected graph of order N"
                            f" (3..{CANONICAL_MAX_VERTICES})")
    group.add_argument("--corpus", metavar="PATH",
                       help="graph6 file, one graph per line, or - for stdin")
    sub.add_argument("--strict", action="store_true",
                     help="fail on the first malformed corpus line")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="locdim",
        description="Exact local metric dimension tooling for small graphs.",
        epilog=FAMILY_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="verb")

    p_dim = sub.add_parser("dim", help="exact dimension of one or more graphs")
    src = p_dim.add_mutually_exclusive_group(required=True)
    src.add_argument("--family", metavar="SPEC", help="family spec, see below")
    src.add_argument("--input", metavar="PATH", help="graph6 file, or - for stdin")
    p_dim.add_argument("--mode", choices=MODES, default="local",
                       help="local: adjacent pairs only (default); full: all pairs")
    p_dim.add_argument("--witness", action="store_true",
                       help="print the lexicographically smallest optimal set")
    p_dim.set_defaults(handler=_cmd_dim)

    p_family = sub.add_parser("family", help="construct a named graph")
    p_family.add_argument("spec", metavar="SPEC")
    p_family.add_argument("--edges", action="store_true",
                          help="print the edge list instead of graph6")
    p_family.set_defaults(handler=_cmd_family)

    p_pattern = sub.add_parser("pattern", help="induced-subgraph queries")
    p_pattern.add_argument("--host", required=True, metavar="GRAPH",
                           help="family spec or graph6")
    p_pattern.add_argument("--pattern", metavar="GRAPH",
                           help="family spec or graph6; default: report both "
                                "forbidden configurations and gamma-freeness")
    p_pattern.set_defaults(handler=_cmd_pattern)

    p_verify = sub.add_parser("verify", help="run the structural checks over a stream")
    _add_source_flags(p_verify)
    p_verify.add_argument("--checks", type=_check_ids, default=None, metavar="IDS",
                          help="comma-separated subset of "
                               + ",".join(verify_mod.CHECK_IDS))
    p_verify.add_argument("--jobs", type=_jobs, default=1, metavar="K",
                          help="worker processes (default 1)")
    p_verify.add_argument("--format", choices=("human", "records"), default="human",
                          help="records: one graph_id/check_id/applicable/holds "
                               "line per graph per check")
    p_verify.set_defaults(handler=_cmd_verify)

    p_scan = sub.add_parser("scan", help="scan the clique-ratio inequality")
    _add_source_flags(p_scan)
    p_scan.add_argument("--omega", type=_integer, action="append", metavar="W",
                        help="restrict to this clique number, 3 or more "
                             "(repeatable)")
    p_scan.set_defaults(handler=_cmd_scan)

    p_refute = sub.add_parser("refute-problem1",
                              help="probe the ceil((n+1)/2) ceiling on the "
                                   "apex-over-triangles family")
    p_refute.add_argument("--max-triangles", type=_integer, default=4, metavar="L",
                          help="largest member to probe (default 4)")
    p_refute.set_defaults(handler=_cmd_refute)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
