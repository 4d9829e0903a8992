"""Corpus scanning, single-graph analysis, and report emission.

A scan walks a corpus of connected graphs and evaluates the enabled claim
checks on longest-path pairs and triples. Each graph's record (longest-path
length, number of longest paths, size of their common intersection) comes
from a ``LongestPathTable``, which counts the paths without listing them
and stops as soon as there are more than the enumeration cap; the paths are
walked from the same table only when a pair or triple is actually examined.
The default triple mode applies a sound shortcut: when some vertex lies on
every longest path, every pair and triple trivially intersects there, so
per-triple work is skipped and the graph is recorded as such. Graphs whose
longest paths have empty common intersection (none exist at these corpus
sizes) fall through to explicit triple iteration.

Triple iteration, in a scan and in ``analyze_one`` alike, runs through one
``_TripleClaims`` per graph, built only once the graph reaches it: it
computes each parameter once per distinct input and decides the claim
statuses once per ``(f, x_sizes, t_counts)``.

Reports are deterministic: graphs are keyed and ordered by their graph6
encoding, triples iterate in canonical sorted order, and the JSON form
carries no timing or worker-count information, so runs with different
parallelism are byte-identical. Wall-clock timing appears only in the
human-readable text rendering.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import combinations
from json.encoder import encode_basestring_ascii as _quote
from math import comb

from .claims import (
    PROVEN_CLAIMS,
    TRIPLE_CLAIMS,
    VIOLATED,
    ClaimVerdict,
    check_prop1,
    gallai_vertex_set,
    triple_verdict,
)
from .generate import MAX_GENERATION_N, generate_connected_graphs
from .graphs import (
    Graph,
    graph_key,
    is_connected,
    parse_edge_list,
    parse_graph6_lines,
)
from .paths import DEFAULT_PATH_CAP, LongestPathTable, enumerate_longest_paths
from .subdivision import Subdivisions, check_size_bound, verify_proposition
# analyze_triple is not called here: perfbench/spans.py wraps it by name.
from .triples import PathTriple, TripleAnalysis, TripleAnalyzer, TripleStream, analyze_triple

SCHEMA_VERSION = 1

ALL_CHECKS = (
    "prop1",
    "conj_Z",
    "lemma21",
    "lemma22",
    "lemma23",
    "thm1",
    "case_bounds",
    "conj4",
)

TRIPLE_MODES = ("shortcut-first", "all", "capped")

# Verdict builders per triple check, called as (graph, triple, l, analysis)
# on a longest-path set already gated once per graph. Looked up per graph,
# never bound at import, so a wrapped entry takes effect.
_TRIPLE_CHECKERS = {name: partial(triple_verdict, name) for name in TRIPLE_CLAIMS}

EXIT_OK = 0
EXIT_CONJECTURE_VIOLATION = 2
EXIT_INTERNAL_VIOLATION = 3
EXIT_CONFIG_ERROR = 4


@dataclass(frozen=True)
class ScanConfig:
    """What to scan and how hard to look.

    Exactly one of ``generate_n`` (scan every connected graph on 1..n
    vertices) and ``input_path`` must be given. ``subdivision_t`` adds the
    subdivision checks at those multiplicities to every examined triple.
    """

    generate_n: int | None = None
    input_path: str | None = None
    input_format: str = "graph6"
    checks: tuple[str, ...] = ALL_CHECKS
    triple_mode: str = "shortcut-first"
    triple_cap: int = 100_000
    enumeration_cap: int = DEFAULT_PATH_CAP
    subdivision_t: tuple[int, ...] = ()
    jobs: int = 1
    strict_t: bool = False

    def __post_init__(self):
        if (self.generate_n is None) == (self.input_path is None):
            raise ValueError("exactly one of generate_n and input_path is required")
        if self.generate_n is not None and not 1 <= self.generate_n <= MAX_GENERATION_N:
            raise ValueError(f"generate_n must be within 1..{MAX_GENERATION_N}")
        if self.input_format not in ("graph6", "edgelist"):
            raise ValueError("input_format must be 'graph6' or 'edgelist'")
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        if self.triple_mode not in TRIPLE_MODES:
            raise ValueError(f"triple_mode must be one of {TRIPLE_MODES}")
        if self.triple_cap < 1 or self.enumeration_cap < 1:
            raise ValueError("caps must be at least 1")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if any(t < 0 for t in self.subdivision_t):
            raise ValueError("subdivision multiplicities must be nonnegative")


@dataclass
class GraphRecord:
    """Everything the scan learned about one graph."""

    graph6: str
    n: int
    m: int
    status: str
    l: int | None = None
    num_longest: int | None = None
    truncated: bool = False
    gallai_size: int | None = None
    triples_total: int | None = None
    triples_examined: int = 0
    triples_skipped: int = 0
    pairs_examined: int = 0
    max_f: int | None = None
    min_t: int | None = None
    tallies: dict = field(default_factory=dict)


@dataclass
class ViolationRecord:
    graph6: str
    claim: str
    witness: dict


@dataclass
class ScanReport:
    """Aggregate scan outcome; ordering is canonical and reproducible."""

    records: list[GraphRecord]
    violations: list[ViolationRecord]
    internal_violation: bool
    aborted: bool
    wall_time_s: float

    @property
    def exit_code(self) -> int:
        if self.internal_violation:
            return EXIT_INTERNAL_VIOLATION
        if self.violations:
            return EXIT_CONJECTURE_VIOLATION
        return EXIT_OK

    def summary(self) -> dict:
        by_status: dict[str, int] = {}
        for rec in self.records:
            by_status[rec.status] = by_status.get(rec.status, 0) + 1
        return {
            "graphs": len(self.records),
            "by_status": by_status,
            "violations": len(self.violations),
            "internal_violation": self.internal_violation,
            "aborted": self.aborted,
        }


class _TripleClaims:
    """The triple parameters and claim verdicts of one graph's triples.

    The one per-triple path of ``scan`` and ``analyze_one``. A
    ``TripleAnalyzer`` gives the parameters. Every claim predicate reads
    only n, l, the crossing convention and a triple's ``f``, ``x_sizes``
    and ``t_counts``, and the first three are fixed per graph, so the
    statuses are decided once per ``(f, x_sizes, t_counts)`` and kept as
    verdicts without a witness. A verdict that is violated there is checked
    again on each triple it comes up for, so that it carries that triple's
    own replay witness.
    """

    def __init__(
        self, graph: Graph, l: int, checks, strict_t: bool, distances: dict[int, list[int]]
    ):
        self.graph = graph
        self.l = l
        self.analyze = TripleAnalyzer(graph, strict_t, distances)
        self.checkers = [_TRIPLE_CHECKERS[c] for c in checks if c in _TRIPLE_CHECKERS]
        self.statuses: dict[tuple, tuple[tuple[ClaimVerdict, ...], bool]] = {}

    def __call__(self, triple: PathTriple) -> tuple[TripleAnalysis, tuple[ClaimVerdict, ...]]:
        analysis = self.analyze(triple)
        key = (analysis.f, analysis.x_sizes, analysis.t_counts)
        known = self.statuses.get(key)
        if known is None:
            verdicts = tuple(c(self.graph, triple, self.l, analysis) for c in self.checkers)
            self.statuses[key] = (
                tuple(ClaimVerdict(v.claim, v.status) for v in verdicts),
                any(v.status == VIOLATED for v in verdicts),
            )
            return analysis, verdicts
        verdicts, violated = known
        if violated:
            verdicts = tuple(
                c(self.graph, triple, self.l, analysis) if v.status == VIOLATED else v
                for c, v in zip(self.checkers, verdicts)
            )
        return analysis, verdicts


class _ProvenClaimViolated(Exception):
    """A proven statement failed; the enclosing scan must stop."""


def _examine_graph(
    graph: Graph, config: ScanConfig
) -> tuple[GraphRecord, list[ViolationRecord], bool]:
    """Full per-graph evaluation. Returns the record, any violations, and
    whether a proven claim was violated (an internal error)."""
    g6 = graph_key(graph)
    record = GraphRecord(graph6=g6, n=graph.n, m=graph.m, status="checked")
    violations: list[ViolationRecord] = []

    if not is_connected(graph):
        record.status = "disconnected"
        return record, violations, False

    table = LongestPathTable(graph, config.enumeration_cap)
    record.l = table.length
    record.truncated = table.truncated
    if table.truncated:
        record.num_longest = config.enumeration_cap
        record.status = "skipped_truncated"
        return record, violations, False

    record.num_longest = table.count
    record.gallai_size = table.core.bit_count()
    record.triples_total = comb(table.count, 3)
    vacuous = table.count < 3
    shortcut = not vacuous and config.triple_mode == "shortcut-first" and table.core != 0
    pair = table.count == 2 and "prop1" in config.checks
    # The table walks its paths only when something reads them: a lone
    # pair's prop1 check, or triple iteration.
    cap = None if config.triple_mode == "all" else config.triple_cap
    triples = None if vacuous or shortcut else TripleStream(table, cap)

    def run(verdict: ClaimVerdict) -> None:
        claim_tally = record.tallies.setdefault(verdict.claim, {})
        claim_tally[verdict.status] = claim_tally.get(verdict.status, 0) + 1
        if verdict.status == VIOLATED:
            violations.append(ViolationRecord(g6, verdict.claim, verdict.witness or {}))
            if verdict.claim in PROVEN_CLAIMS:
                raise _ProvenClaimViolated

    try:
        if vacuous:
            record.status = "vacuous"
            # A lone longest-path pair still gets the pairwise check.
            if pair:
                record.pairs_examined = 1
                run(check_prop1(graph, table.paths[0], table.paths[1], longest_paths=table))
            return record, violations, False

        if shortcut:
            # Some vertex lies on every longest path, so every pair and
            # triple meets there: every intersection claim holds with
            # f = 0 throughout.
            record.status = "shortcut"
            record.max_f = 0
            return record, violations, False

        seen_pairs: set[tuple] = set()
        subdivisions = Subdivisions(graph, table)
        claims = _TripleClaims(
            graph, table.length, config.checks, config.strict_t, subdivisions.distances)
        for triple in triples:
            analysis, verdicts = claims(triple)
            record.max_f = (
                analysis.f if record.max_f is None else max(record.max_f, analysis.f)
            )
            low_t = min(analysis.t_counts)
            record.min_t = low_t if record.min_t is None else min(record.min_t, low_t)
            if "prop1" in config.checks:
                for a, b in combinations(triple.paths, 2):
                    key = (a.vertices, b.vertices)
                    if key in seen_pairs:
                        continue
                    seen_pairs.add(key)
                    record.pairs_examined += 1
                    run(check_prop1(graph, a, b, longest_paths=table))
            for verdict in verdicts:
                run(verdict)
            for t in config.subdivision_t:
                run(verify_proposition(subdivisions, triple, t))
                run(check_size_bound(graph, triple, t))
        return record, violations, False
    except _ProvenClaimViolated:
        return record, violations, True
    finally:
        # Shortcut and vacuous graphs count no triples examined or skipped.
        if record.status == "checked":
            record.triples_examined = triples.examined
            record.triples_skipped = triples.skipped


def _resolve_source(config: ScanConfig) -> list[Graph]:
    if config.generate_n is not None:
        graphs = []
        for n in range(1, config.generate_n + 1):
            graphs.extend(generate_connected_graphs(n))
        return graphs
    return read_graphs(config.input_path, config.input_format)


def read_graphs(path: str, fmt: str) -> list[Graph]:
    """The graphs of a graph6 (one per line) or edge-list file, ``-`` for
    stdin. Malformed input raises an error naming the file and the line."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    if fmt == "graph6":
        return parse_graph6_lines(text.splitlines(), None if path == "-" else path)
    return [parse_edge_list(text, None if path == "-" else path)]


def _scan_worker(item):
    graph, config = item
    return _examine_graph(graph, config)


def scan(config: ScanConfig) -> ScanReport:
    """Run the configured scan over its corpus."""
    start = time.monotonic()
    graphs = _resolve_source(config)
    results = []
    aborted = False
    if config.jobs == 1 or len(graphs) < 2:
        for graph in graphs:
            outcome = _examine_graph(graph, config)
            results.append(outcome)
            if outcome[2]:
                aborted = True
                break
    else:
        from multiprocessing import get_context  # loaded only when workers run

        ctx = get_context("fork")
        chunk = max(1, len(graphs) // (config.jobs * 8))
        with ctx.Pool(processes=config.jobs) as pool:
            for outcome in pool.imap(
                _scan_worker, ((g, config) for g in graphs), chunksize=chunk
            ):
                results.append(outcome)
                if outcome[2]:
                    aborted = True
                    pool.terminate()
                    break

    order = sorted(range(len(results)), key=lambda i: (results[i][0].graph6, i))
    records = [results[i][0] for i in order]
    violations = [v for i in order for v in results[i][1]]
    internal = any(results[i][2] for i in order)
    return ScanReport(
        records=records,
        violations=violations,
        internal_violation=internal,
        aborted=aborted,
        wall_time_s=time.monotonic() - start,
    )


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

_CSV_COLUMNS = (
    "graph6",
    "n",
    "m",
    "status",
    "l",
    "num_longest",
    "truncated",
    "gallai_size",
    "triples_total",
    "triples_examined",
    "triples_skipped",
    "pairs_examined",
    "max_f",
    "min_t",
    "violations",
)


def report_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, joined
    per container (a list of ints in one go) rather than by ``json``'s
    pure-Python indenting encoder, which collects every token first."""

    def encode(o, pad: str) -> str:
        if isinstance(o, str):
            return _quote(o)
        if type(o) is int:
            return int.__repr__(o)
        if not o or not isinstance(o, (list, tuple, dict)):
            return json.dumps(o)  # other scalars, and empty containers
        inner = pad + "  "
        sep = ",\n" + inner
        if isinstance(o, dict):
            body = sep.join([
                f"{_quote(k if isinstance(k, str) else json.dumps(k))}: {encode(v, inner)}"
                for k, v in sorted(o.items())
            ])
            return f"{{\n{inner}{body}\n{pad}}}"
        if all(type(x) is int for x in o):
            return f"[\n{inner}{sep.join(map(int.__repr__, o))}\n{pad}]"
        return f"[\n{inner}{sep.join([encode(x, inner) for x in o])}\n{pad}]"

    return encode(obj, "")


def emit_report(report: ScanReport, fmt: str = "json") -> str:
    """Serialise a scan report. JSON and CSV are byte-deterministic for a
    given corpus and check set; the text form adds wall-clock timing."""
    if fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "summary": report.summary(),
            "graphs": [asdict(rec) for rec in report.records],
            "violations": [asdict(v) for v in report.violations],
        }
        return report_json(payload) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        per_graph_violations: dict[str, int] = {}
        for v in report.violations:
            per_graph_violations[v.graph6] = per_graph_violations.get(v.graph6, 0) + 1
        for rec in report.records:
            row = asdict(rec)
            row["violations"] = per_graph_violations.get(rec.graph6, 0)
            writer.writerow(["" if row[c] is None else row[c] for c in _CSV_COLUMNS])
        return buf.getvalue()
    if fmt == "text":
        lines = []
        s = report.summary()
        lines.append(f"graphs scanned: {s['graphs']}")
        for status in sorted(s["by_status"]):
            lines.append(f"  {status}: {s['by_status'][status]}")
        lines.append(f"violations: {s['violations']}")
        if report.internal_violation:
            lines.append("INTERNAL ERROR: a proven claim was violated (bug)")
        if report.aborted:
            lines.append("scan aborted early")
        for v in report.violations:
            lines.append(f"  {v.claim} violated on {v.graph6}: {v.witness}")
        lines.append(f"wall time: {report.wall_time_s:.2f}s")
        lines.append(f"exit code: {report.exit_code}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# single-graph deep dive
# ---------------------------------------------------------------------------

def analyze_one(
    graph: Graph,
    *,
    checks: tuple[str, ...] = ALL_CHECKS,
    enumeration_cap: int = DEFAULT_PATH_CAP,
    triple_cap: int = 100_000,
    subdivision_t: tuple[int, ...] = (),
    strict_t: bool = False,
) -> dict:
    """Exhaustive per-triple analysis of one graph, JSON-ready.

    Unlike a scan this never takes the common-vertex shortcut: every triple
    (up to ``triple_cap``) gets its full parameter record and verdicts.
    Disconnected input is reported, not raised.
    """
    out: dict = {"graph6": graph_key(graph), "n": graph.n, "m": graph.m}
    if not is_connected(graph):
        out["status"] = "disconnected"
        return out
    table = LongestPathTable(graph, enumeration_cap)
    out["l"] = table.length
    out["num_longest"] = enumeration_cap if table.truncated else table.count
    out["truncated"] = table.truncated
    if table.truncated:
        out["status"] = "skipped_truncated"
        return out
    gallai = gallai_vertex_set(graph, longest_paths=table)
    out["gallai_vertices"] = sorted(gallai)
    out["gallai_size"] = len(gallai)
    out["strict_crossings"] = strict_t
    triples = TripleStream(table, triple_cap)
    out["triples_total"] = triples.total
    if triples.total == 0:
        out["status"] = "vacuous"
        out["triples"] = []
        return out
    triples_out = []
    subdivisions = Subdivisions(graph, table)
    claims = _TripleClaims(graph, table.length, checks, strict_t, subdivisions.distances)
    prop1: dict[tuple, str] = {}  # each pair's status, checked once
    for triple in triples:
        analysis, verdicts = claims(triple)
        entry = {
            "paths": [list(p.vertices) for p in triple.paths],
            "f": analysis.f,
            "witnesses": sorted(analysis.witnesses),
            "x_sizes": list(analysis.x_sizes),
            "t_counts": list(analysis.t_counts),
            "pairwise_sizes": list(analysis.pairwise_sizes),
            "verdicts": {v.claim: v.status for v in verdicts},
        }
        if "prop1" in checks:
            statuses = entry["verdicts"]["prop1"] = []
            for a, b in combinations(triple.paths, 2):
                key = (a.vertices, b.vertices)
                if key not in prop1:
                    prop1[key] = check_prop1(graph, a, b, longest_paths=table).status
                statuses.append(prop1[key])
        sub = {}
        for t in subdivision_t:
            prop = verify_proposition(subdivisions, triple, t)
            size = check_size_bound(graph, triple, t)
            sub[str(t)] = {"subdivision_prop": prop.status, "size_bound": size.status}
        if sub:
            entry["subdivision"] = sub
        triples_out.append(entry)
    out["triples_examined"] = triples.examined
    out["triples"] = triples_out
    out["max_f"] = max(t["f"] for t in triples_out)
    out["min_t"] = min(min(t["t_counts"]) for t in triples_out)
    out["status"] = "checked"
    return out


# ---------------------------------------------------------------------------
# dedicated subdivision sweep (the exhaustive small-n verification)
# ---------------------------------------------------------------------------

def subdivision_sweep(
    max_n: int,
    t_values: tuple[int, ...],
    *,
    triple_cap: int | None = None,
) -> dict:
    """Verify the subdivision claims over the longest-path triples of every
    connected graph on 1..max_n vertices, for each multiplicity.

    With ``triple_cap`` set, only the first that many triples per graph (in
    canonical order) are verified and the rest are counted as skipped; the
    six-vertex level already contains a graph with 7.7 million triples, so
    exhaustive sweeps beyond n = 5 need the cap. Returns a JSON-ready
    summary with any violations plus per-instance timing extrema (timing is
    informational and not part of the deterministic report surface).
    """
    graphs = 0
    eligible = 0
    instances = 0
    skipped = 0
    triples_skipped = 0
    worst_s = 0.0
    violations: list[dict] = []
    for n in range(1, max_n + 1):
        for graph in generate_connected_graphs(n):
            graphs += 1
            lp = enumerate_longest_paths(graph)
            if len(lp.paths) < 3:  # a truncated table lists none
                continue
            eligible += 1
            triples = TripleStream(lp, triple_cap)
            subdivisions = Subdivisions(graph, lp)
            for triple in triples:
                for t in t_values:
                    t0 = time.monotonic()
                    verdicts = (
                        verify_proposition(subdivisions, triple, t),
                        check_size_bound(graph, triple, t),
                    )
                    worst_s = max(worst_s, time.monotonic() - t0)
                    instances += 1
                    for v in verdicts:
                        if v.status == VIOLATED:
                            violations.append(
                                {"claim": v.claim, "graph6": graph_key(graph), "witness": v.witness}
                            )
                        elif v.status in ("skipped_budget", "skipped_truncated"):
                            skipped += 1
            triples_skipped += triples.skipped
    return {
        "max_n": max_n,
        "t_values": list(t_values),
        "graphs": graphs,
        "graphs_with_triples": eligible,
        "instances": instances,
        "skipped": skipped,
        "triples_skipped": triples_skipped,
        "violations": violations,
        "worst_instance_s": worst_s,
    }
