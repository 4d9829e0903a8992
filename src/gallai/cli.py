"""Command-line surface: corpus generation, scanning, per-graph analysis,
subdivision construction, and subdivision verification.

Exit codes: 0 clean, 2 a conjecture check found a violation (witness
emitted), 3 a proven claim was violated (implementation bug), 4 bad
configuration or I/O.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys

from .claims import VIOLATED
from .generate import (
    MAX_GENERATION_N,
    connected_masks,
    generate_connected_graphs,  # wrapped by name in perfbench/spans.py:93
)
from .graphs import (
    GRAPH6_MAX_N,
    Graph,
    format_edge_list,
    graph_key,
    mask_to_graph6,
    parse_graph6_lines,  # wrapped by name in perfbench/spans.py:96
    to_graph6,  # also wrapped by name in perfbench/spans.py:95
)
from .paths import DEFAULT_PATH_CAP
# Not called here: imported for the benchmark's spans alone.
from .paths import enumerate_longest_paths  # wrapped by name in perfbench/spans.py:92
from .scan import (
    ALL_CHECKS,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    ScanConfig,
    TRIPLE_MODES,
    TripleRows,
    _check_settings,
    analyze_one,
    claims_exit_code,
    emit_report,
    gated_table,
    read_graphs,
    report_chunks,
    report_json,
    scan,
    subdivision_sweep,
)
from .subdivision import (
    Subdivisions,
    build_instance,
    verify_proposition,  # wrapped by name in perfbench/spans.py:91
)
from .triples import TripleStream


class _Parser(argparse.ArgumentParser):
    # Configuration mistakes must exit 4, not argparse's default 2, which
    # is reserved for conjecture violations.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG_ERROR, f"{self.prog}: error: {message}\n")


def _write_out(pieces: list[str], out: str | None) -> None:
    """Write the pieces of a finished report in one go. A command builds
    every piece before it calls this, so a failing run writes nothing.

    An existing file is overwritten in place and its old tail cut last:
    truncating it first (``open(out, "w")``) can cost more wall time than
    the run, and in place it keeps its inode, mode and links. Only a
    regular file is truncated, so ``/dev/null`` and pipes still work.

    A reader closing stdout early (``| head``) leaves the exit code as it
    is: stdout then points at ``os.devnull``, so the flush at exit passes."""
    if out is None or out == "-":
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        fh.writelines(pieces)
        fh.flush()
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            os.ftruncate(fh.fileno(), fh.tell())


def _count(low: int, high: int | None = None):
    """The argparse type of an integer in ``low..high`` (no upper end if ``high`` is None)."""

    def integer(value: str) -> int:
        k = int(value)  # argparse reports a ValueError as "invalid integer value"
        if k < low or high is not None and k > high:
            span = f"at least {low}" if high is None else f"within {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {span}, got {k}")
        return k

    return integer


def _parse_t_list(value: str) -> tuple[int, ...]:
    try:
        ts = tuple(int(tok) for tok in value.split(",") if tok.strip() != "")
        _check_settings((), ts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad multiplicity list {value!r}: {exc}") from None
    if not ts:
        raise argparse.ArgumentTypeError(f"bad multiplicity list {value!r}: no value")
    return ts


def _parse_checks(value: str) -> tuple[str, ...]:
    if value == "all":
        return ALL_CHECKS
    names = tuple(tok for tok in value.split(",") if tok.strip() != "")
    try:
        _check_settings(names, ())
        if not names:  # a run of no check would report success, having checked nothing
            raise ValueError(f"no check named in {value!r}")
    except ValueError as exc:
        hint = f"pick from {', '.join(ALL_CHECKS)} or 'all'"
        raise argparse.ArgumentTypeError(f"{exc}; {hint}") from None
    return names


def _build_parser() -> _Parser:
    parser = _Parser(prog="gallai", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit all connected graphs on exactly n vertices")
    gen.add_argument("--n", type=_count(1, MAX_GENERATION_N), required=True, metavar="N")
    gen.add_argument("--out", default=None)

    sc = sub.add_parser("scan", help="run claim checks over a corpus")
    src = sc.add_mutually_exclusive_group(required=True)
    src.add_argument("--n", type=_count(1, MAX_GENERATION_N), default=None,
                     help="scan every connected graph on 1..N vertices")
    src.add_argument("--input", default=None, help="graph file, '-' for stdin")
    sc.add_argument("--input-format", choices=("graph6", "edgelist"), default="graph6")
    sc.add_argument("--checks", type=_parse_checks, default=ALL_CHECKS,
                    help="comma-separated check names, or 'all'")
    sc.add_argument("--triple-mode", choices=TRIPLE_MODES, default="shortcut-first")
    sc.add_argument("--triple-cap", type=_count(1), default=100_000)
    sc.add_argument("--cap", type=_count(1), default=DEFAULT_PATH_CAP,
                    help="longest-path enumeration cap")
    sc.add_argument("--t", type=_parse_t_list, default=(),
                    help="run subdivision checks at these multiplicities")
    sc.add_argument("--jobs", type=_count(1), default=1)
    sc.add_argument("--strict-t-convention", action="store_true",
                    help="count only crossings with at least two vertices")
    sc.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sc.add_argument("--out", default=None)

    an = sub.add_parser("analyze", help="full per-triple analysis of each input graph")
    an.add_argument("--input", required=True, help="graph file, '-' for stdin")
    an.add_argument("--input-format", choices=("graph6", "edgelist"), default="graph6")
    an.add_argument("--checks", type=_parse_checks, default=ALL_CHECKS)
    an.add_argument("--cap", type=_count(1), default=DEFAULT_PATH_CAP)
    an.add_argument("--triple-cap", type=_count(1), default=100_000)
    an.add_argument("--t", type=_parse_t_list, default=())
    an.add_argument("--strict-t-convention", action="store_true")
    an.add_argument("--format", choices=("json", "text"), default="json")
    an.add_argument("--out", default=None)

    sd = sub.add_parser(
        "subdivide",
        help="build the pendant extension and t-fold subdivision for a longest-path triple",
    )
    sd.add_argument("--input", required=True, help="graph file, '-' for stdin")
    sd.add_argument("--input-format", choices=("graph6", "edgelist"), default="graph6")
    sd.add_argument("--t", type=_count(0), required=True)
    sd.add_argument("--triple", type=_count(0), default=0,
                    help="index of the triple in canonical order (default first)")
    sd.add_argument("--format", choices=("json", "edgelist"), default="json")
    sd.add_argument("--out", default=None)

    vp = sub.add_parser(
        "verify-prop",
        help="brute-force the subdivision scaling claim over triples",
    )
    vsrc = vp.add_mutually_exclusive_group(required=True)
    vsrc.add_argument("--n", type=_count(1, MAX_GENERATION_N), default=None,
                      help="sweep every connected graph on 1..N vertices")
    vsrc.add_argument("--input", default=None, help="graph file, '-' for stdin")
    vp.add_argument("--input-format", choices=("graph6", "edgelist"), default="graph6")
    vp.add_argument("--t", type=_parse_t_list, required=True)
    vp.add_argument("--triple-cap", type=_count(1), default=None,
                    help="verify at most this many triples per graph "
                         "(required sanity for n >= 6 sweeps)")
    vp.add_argument("--out", default=None)
    return parser


def _cmd_gen(args) -> int:
    if args.n == 8:
        sys.stderr.write("gen: n=8 writes 11117 graphs\n")
    lines = [mask_to_graph6(args.n, mask) for mask in connected_masks(args.n)]
    _write_out(["".join(line + "\n" for line in lines)], args.out)
    return EXIT_OK


def _cmd_scan(args) -> int:
    if args.n == 8:
        sys.stderr.write("scan: n=8 adds 11117 graphs\n")
    config = ScanConfig(
        generate_n=args.n,
        input_path=args.input,
        input_format=args.input_format,
        checks=args.checks,
        triple_mode=args.triple_mode,
        triple_cap=args.triple_cap,
        enumeration_cap=args.cap,
        subdivision_t=args.t,
        jobs=args.jobs,
        strict_t=args.strict_t_convention,
    )
    report = scan(config)
    _write_out([emit_report(report, args.format)], args.out)
    return report.exit_code


def _cmd_analyze(args) -> int:
    graphs = read_graphs(args.input, args.input_format)
    violated: set[str] = set()

    def analyzed():
        # Built lazily: each record is rendered, and can be freed, before
        # the next graph is analysed.
        for g in graphs:
            res = analyze_one(g, checks=args.checks, enumeration_cap=args.cap,
                              triple_cap=args.triple_cap, subdivision_t=args.t,
                              strict_t=args.strict_t_convention)
            rows = res.get("triples")
            # Statuses are read per group of triples, never per row.
            for fields in rows.fields if type(rows) is TripleRows else ():
                for statuses in (fields["verdicts"], *fields.get("subdivision", {}).values()):
                    violated.update(c for c, s in statuses.items()
                                    if s == VIOLATED or type(s) is list and VIOLATED in s)
            yield res

    results = analyzed()
    if args.format == "json":
        _write_out([*report_chunks(results), "\n"], args.out)
    else:
        lines = []
        for res in results:
            lines.append(f"graph {res['graph6']}: n={res['n']} m={res['m']} "
                         f"status={res['status']}")
            if "l" in res:
                lines.append(f"  l={res['l']} longest={res.get('num_longest')} "
                             f"gallai={res.get('gallai_vertices')}")
            for entry in res.get("triples", []):
                lines.append(f"  triple {entry['paths']}: f={entry['f']} "
                             f"t_counts={entry['t_counts']} x={entry['x_sizes']}")
        _write_out(["\n".join(lines) + "\n"], args.out)
    return claims_exit_code(violated)


def _export_graph(graph: Graph) -> dict:
    entry: dict = {"n": graph.n, "m": graph.m}
    if graph.n <= GRAPH6_MAX_N:
        entry["graph6"] = to_graph6(graph)
    else:
        entry["edge_list"] = format_edge_list(graph)
    return entry


def _subdivided(graphs: list[Graph], t: int, index: int):
    """Each graph's ``subdivide`` record, with its subdivided graph or None."""
    for graph in graphs:
        status, table = gated_table(graph)
        if status:
            # No paths listed (disconnected, or truncated): unknown, not vacuous.
            yield {"graph6": graph_key(graph), "status": status}, None
            continue
        triples = TripleStream(table)
        if index >= triples.total:
            yield {"graph6": graph_key(graph), "status": "vacuous",
                   "triples_total": triples.total}, None
            continue
        triple = triples[index]
        inst = build_instance(graph, triple, t)
        yield {
            "graph6": graph_key(graph),
            "status": "ok",
            "t": t,
            "triple": [list(p.vertices) for p in triple.paths],
            "extended": _export_graph(inst.source),
            "subdivided": _export_graph(inst.graph),
            "lifted_paths": [list(p.vertices) for p in inst.paths],
            # Ids are laid out originals, pendants, then interior vertices.
            "provenance_counts": {
                "original": graph.n,
                "pendant": inst.source.n - graph.n,
                "subdivision": inst.graph.n - inst.source.n,
            },
        }, inst.graph


def _cmd_subdivide(args) -> int:
    graphs = read_graphs(args.input, args.input_format)
    built = _subdivided(graphs, args.t, args.triple)
    if args.format == "json":
        _write_out([*report_chunks(res for res, _ in built), "\n"], args.out)
    else:
        _write_out([
            f"# {res['graph6']}: {res['status']}\n" if sub is None else format_edge_list(sub)
            for res, sub in built
        ], args.out)
    return EXIT_OK


def _cmd_verify_prop(args) -> int:
    if args.n is not None:
        if args.n >= 6 and args.triple_cap is None:
            sys.stderr.write(
                "verify-prop: sweeps beyond n=5 have millions of triples; "
                "set --triple-cap\n"
            )
            return EXIT_CONFIG_ERROR
        result = subdivision_sweep(args.n, args.t, triple_cap=args.triple_cap)
        # Wall-clock time stays out of the report so that it is byte-deterministic.
        worst_s = result.pop("worst_instance_s")
        sys.stderr.write(f"verify-prop: slowest instance took {worst_s:.3f}s\n")
        _write_out([report_json(result) + "\n"], args.out)
        return claims_exit_code(v["claim"] for v in result["violations"])
    graphs = read_graphs(args.input, args.input_format)
    violated: set[str] = set()

    def records():
        for graph in graphs:
            status, table = gated_table(graph)
            if status:
                # No triples listed (disconnected, or truncated); one record says why.
                yield {"graph6": graph_key(graph), "status": status, "verdicts": []}
                continue
            subdivisions = Subdivisions(graph, table)
            triples = TripleStream(table, args.triple_cap)
            verdicts = TripleRows([list(p.vertices) for p in table.paths])
            fields, rows = verdicts.fields, verdicts.rows
            # One fields dict per t, status and witness, which it holds (so the
            # id names no other): a holds witness is shared by equal values.
            known: dict[tuple, int] = {}
            for at in triples.indices():
                triple = triples.at(*at)
                for t in args.t:
                    v = verify_proposition(subdivisions, triple, t)
                    f = known.get(key := (t, v.status, id(v.witness)))
                    if f is None:
                        f = known[key] = len(fields)
                        fields.append({"t": t, "status": v.status, "witness": v.witness})
                        if v.status == VIOLATED:
                            violated.add(v.claim)
                    rows.append((f, *at))
            yield {"graph6": graph_key(graph), "verdicts": verdicts}

    _write_out([*report_chunks(records()), "\n"], args.out)
    return claims_exit_code(violated)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits itself on --help and usage errors; surface the
        # code instead so callers always get an int back.
        return int(exc.code or 0)
    handlers = {
        "gen": _cmd_gen,
        "scan": _cmd_scan,
        "analyze": _cmd_analyze,
        "subdivide": _cmd_subdivide,
        "verify-prop": _cmd_verify_prop,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"gallai: error: {exc}\n")
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
