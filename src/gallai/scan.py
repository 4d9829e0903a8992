"""Corpus scanning, single-graph analysis, and report emission.

Every command starts each graph at one front end, ``gated_table``: a
disconnected graph has status ``disconnected`` and no table; otherwise its
``LongestPathTable`` counts the longest paths without listing them, and
stops as soon as there are more than the cap with status
``skipped_truncated`` and a table that lists nothing. ``_corpus`` is the
generated corpus of a scan and of a subdivision sweep, and
``_check_settings`` the one check of check names and multiplicities.

A scan walks a corpus of connected graphs and evaluates the enabled claim
checks on longest-path pairs and triples. Each graph's record (longest-path
length, number of longest paths, size of their common intersection) comes
from that table, whose paths are walked only when a pair or triple is
examined.
The default triple mode applies a sound shortcut: when some vertex lies on
every longest path, every pair and triple trivially intersects there, so
per-triple work is skipped and the graph is recorded as such. Graphs whose
longest paths have empty common intersection (none exist at these corpus
sizes) fall through to explicit triple iteration.

Triple iteration, in a scan and in ``analyze_one`` alike, walks the
table's triples as path indices ``(i, j, k)`` and runs through one
``_TripleClaims`` per graph, built only once the graph reaches it: it
computes each parameter once per distinct input, its crossing counts once
per path index and pair of other masks, decides the claim statuses once
per ``(f, x_sizes, t_counts)``, and holds the graph's ``Subdivisions``,
which reads its base f from the same analyser. The scan and
``analyze_one`` keep only their folds over its verdicts: tallies and
violations in one, triple entries made once per group in the other.
``prop1`` holds for a pair exactly when its intersection is not empty, so
``analyze_one`` reads it off the triple's pairwise sizes; the scan checks
each distinct longest-path pair once, for its tally and a violation's
replay witness.

Reports are deterministic: graphs are keyed and ordered by their graph6
encoding, triples iterate in canonical sorted order, and the JSON form
carries no timing or worker-count information, so runs with different
parallelism are byte-identical. Wall-clock timing appears only in the
human-readable text rendering.

``report_json`` is the one indenting JSON encoder. ``report_chunks`` is its
record-by-record form: the CLI builds its per-graph records lazily and
encodes each as soon as it is built, so a run holds the report's text but
never all of its records; ``emit_report`` encodes a scan's graph records
through it too. The encoder keeps no memo: it writes every object where
it finds it, sorting a dict's keys each time. Only a ``TripleRows`` list,
``analyze_one``'s triple entries and ``verify-prop``'s verdicts, writes
shared text once: every field of a row but its paths comes from one of a
few shared dicts (an entry's group, the triple's path masks and crossing
counts, with its subdivision verdicts; a verdict's t, status and
witness), so each of those and each path is written once, and a row is
joined from them by index.
"""

from __future__ import annotations

import io
import json
import sys
import time
from bisect import bisect
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from math import comb
from typing import Iterable, Iterator

from .claims import (
    HOLDS,
    PROVEN_CLAIMS,
    SKIPPED_BUDGET,
    SKIPPED_TRUNCATED,
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
# enumerate_longest_paths and analyze_triple are not called here: they are
# wrapped by name in perfbench/spans.py:99 and :101.
from .paths import DEFAULT_PATH_CAP, LongestPathTable, enumerate_longest_paths
from .record import FrozenRecord, Record
from .subdivision import Subdivisions
from .triples import PathTriple, TripleAnalysis, TripleAnalyzer, TripleStream, analyze_triple

SCHEMA_VERSION = 1

ALL_CHECKS = ("prop1", *TRIPLE_CLAIMS)

TRIPLE_MODES = ("shortcut-first", "all", "capped")

# Verdict builders per triple check, called as (graph, triple, l, analysis)
# on a longest-path set already gated once per graph. Looked up per graph,
# never bound at import, so a wrapped entry takes effect.
_TRIPLE_CHECKERS = {name: partial(triple_verdict, name) for name in TRIPLE_CLAIMS}

EXIT_OK = 0
EXIT_CONJECTURE_VIOLATION = 2
EXIT_INTERNAL_VIOLATION = 3
EXIT_CONFIG_ERROR = 4


class ScanConfig(FrozenRecord):
    """What to scan and how hard to look.

    Exactly one of ``generate_n`` (scan every connected graph on 1..n
    vertices) and ``input_path`` must be given. ``subdivision_t`` adds the
    subdivision checks at those multiplicities to every examined triple.
    """

    def __init__(self, generate_n: int | None = None, input_path: str | None = None,
                 input_format: str = "graph6", checks: tuple[str, ...] = ALL_CHECKS,
                 triple_mode: str = "shortcut-first", triple_cap: int = 100_000,
                 enumeration_cap: int = DEFAULT_PATH_CAP, subdivision_t: tuple[int, ...] = (),
                 jobs: int = 1, strict_t: bool = False):
        self.__dict__.update(
            generate_n=generate_n, input_path=input_path, input_format=input_format,
            checks=checks, triple_mode=triple_mode, triple_cap=triple_cap,
            enumeration_cap=enumeration_cap, subdivision_t=subdivision_t, jobs=jobs,
            strict_t=strict_t)
        if (self.generate_n is None) == (self.input_path is None):
            raise ValueError("exactly one of generate_n and input_path is required")
        if self.generate_n is not None and not 1 <= self.generate_n <= MAX_GENERATION_N:
            raise ValueError(f"generate_n must be within 1..{MAX_GENERATION_N}")
        if self.input_format not in ("graph6", "edgelist"):
            raise ValueError("input_format must be 'graph6' or 'edgelist'")
        _check_settings(self.checks, self.subdivision_t)
        if self.triple_mode not in TRIPLE_MODES:
            raise ValueError(f"triple_mode must be one of {TRIPLE_MODES}")
        if self.triple_cap < 1 or self.enumeration_cap < 1:
            raise ValueError("caps must be at least 1")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")


def _check_settings(checks: tuple[str, ...], subdivision_t: tuple[int, ...]) -> None:
    # The one check of these two settings, for a scan, analyze_one and a sweep.
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    if any(t < 0 for t in subdivision_t):
        raise ValueError("subdivision multiplicities must be nonnegative")
    for name, values in (("checks", checks), ("subdivision_t", subdivision_t)):
        if len(set(values)) != len(values):
            raise ValueError(f"{name} must not repeat a value")


def gated_table(
    graph: Graph, cap: int = DEFAULT_PATH_CAP
) -> tuple[str | None, LongestPathTable | None]:
    """Every command's start on a graph: ``("disconnected", None)``, or its
    longest-path table under ``cap`` with status ``"skipped_truncated"``
    when it has more than ``cap`` paths (so it lists none), else None."""
    if not is_connected(graph):
        return "disconnected", None
    table = LongestPathTable(graph, cap)
    return SKIPPED_TRUNCATED if table.truncated else None, table


class GraphRecord(Record):
    """Everything the scan learned about one graph. ``tallies`` maps a
    claim to its count of each verdict status; a new record gets a new dict."""

    def __init__(self, graph6: str, n: int, m: int, status: str, l: int | None = None,
                 num_longest: int | None = None, truncated: bool = False,
                 gallai_size: int | None = None, triples_total: int | None = None,
                 triples_examined: int = 0, triples_skipped: int = 0, pairs_examined: int = 0,
                 max_f: int | None = None, min_t: int | None = None, tallies: dict | None = None):
        self.graph6 = graph6
        self.n = n
        self.m = m
        self.status = status
        self.l = l
        self.num_longest = num_longest
        self.truncated = truncated
        self.gallai_size = gallai_size
        self.triples_total = triples_total
        self.triples_examined = triples_examined
        self.triples_skipped = triples_skipped
        self.pairs_examined = pairs_examined
        self.max_f = max_f
        self.min_t = min_t
        self.tallies = {} if tallies is None else tallies


class ViolationRecord(Record):
    def __init__(self, graph6: str, claim: str, witness: dict):
        self.graph6 = graph6
        self.claim = claim
        self.witness = witness


class ScanReport(Record):
    """Aggregate scan outcome; ordering is canonical and reproducible."""

    def __init__(self, records: list[GraphRecord], violations: list[ViolationRecord],
                 internal_violation: bool, wall_time_s: float):
        self.records = records
        self.violations = violations
        self.internal_violation = internal_violation
        self.wall_time_s = wall_time_s

    @property
    def aborted(self) -> bool:
        # A proven claim's violation is what stops a scan early.
        return self.internal_violation

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
    """The one per-graph checker of ``scan`` and ``analyze_one``.

    Built from a graph and its longest-path table, it holds every
    per-graph memo of the checks. Called on a triple and its path indices, it
    gives the ``TripleAnalyzer``'s parameters and the triple claims' verdicts;
    ``subdivisions.verdicts`` gives the two subdivision claims, and reads
    each base f from the analyser's record of the triple's masks. Every
    claim predicate reads only n, l, the crossing convention and a
    triple's ``f``, ``x_sizes`` and ``t_counts``, and the first three are
    fixed per graph, so the statuses are decided once per ``(f, x_sizes,
    t_counts)`` and kept as verdicts without a witness, the tuple returned
    while none is violated; a violated one is checked again on each triple,
    so that it carries that triple's own replay witness.
    """

    def __init__(self, graph: Graph, table: LongestPathTable, checks, strict_t: bool):
        self.graph = graph
        self.l = table.length
        self.analyze = TripleAnalyzer(graph, strict_t, table.paths)
        self.subdivisions = Subdivisions(graph, table, self.analyze)
        self.checkers = [_TRIPLE_CHECKERS[c] for c in checks if c in _TRIPLE_CHECKERS]
        self.prop1 = "prop1" in checks
        self.statuses: dict[tuple, tuple[tuple[ClaimVerdict, ...], bool]] = {}

    def __call__(self, triple: PathTriple, i: int, j: int, k: int
                 ) -> tuple[TripleAnalysis, tuple[ClaimVerdict, ...]]:
        analysis = self.analyze(triple, self.analyze.t_counts(i, j, k))
        key = (analysis.f, analysis.x_sizes, analysis.t_counts)
        known = self.statuses.get(key)
        if known is None:
            verdicts = tuple(c(self.graph, triple, self.l, analysis) for c in self.checkers)
            violated = any(v.status == VIOLATED for v in verdicts)
            kept = tuple(ClaimVerdict(v.claim, v.status) for v in verdicts)
            self.statuses[key] = (kept, violated)
            return analysis, verdicts if violated else kept
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

    status, table = gated_table(graph, config.enumeration_cap)
    if table is not None:
        record.l, record.truncated = table.length, table.truncated
        record.num_longest = config.enumeration_cap if status else table.count
    if status:
        record.status = status
        return record, violations, False

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

        claims = _TripleClaims(graph, table, config.checks, config.strict_t)
        paths = table.paths
        # Each pair once, by its two path indices.
        checked: set[tuple[int, int]] = set()
        for i, j, k in triples.indices():
            triple = triples.at(i, j, k)
            analysis, verdicts = claims(triple, i, j, k)
            record.max_f = (
                analysis.f if record.max_f is None else max(record.max_f, analysis.f)
            )
            low_t = min(analysis.t_counts)
            record.min_t = low_t if record.min_t is None else min(record.min_t, low_t)
            if claims.prop1:
                for a, b in ((i, j), (i, k), (j, k)):
                    if (a, b) not in checked:
                        checked.add((a, b))
                        record.pairs_examined += 1
                        run(check_prop1(graph, paths[a], paths[b], longest_paths=table))
            for verdict in verdicts:
                run(verdict)
            for pair in claims.subdivisions.verdicts(triple, config.subdivision_t):
                for verdict in pair:
                    run(verdict)
        return record, violations, False
    except _ProvenClaimViolated:
        return record, violations, True
    finally:
        # Shortcut and vacuous graphs count no triples examined or skipped.
        if record.status == "checked":
            record.triples_examined = triples.examined
            record.triples_skipped = triples.skipped


def _corpus(max_n: int) -> Iterator[Graph]:
    """Every connected graph on 1..max_n vertices, lazily, by vertex count."""
    return chain.from_iterable(map(generate_connected_graphs, range(1, max_n + 1)))


def _resolve_source(config: ScanConfig) -> list[Graph]:
    if config.generate_n is not None:
        return list(_corpus(config.generate_n))
    return read_graphs(config.input_path, config.input_format)


def read_graphs(path: str, fmt: str) -> list[Graph]:
    """The graphs of a graph6 (one per line) or edge-list file, ``-`` for
    stdin. Malformed input, a non-ASCII byte included, raises an error
    naming the file and the line."""
    source = None if path == "-" else path
    if source is None:
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        # Numbered as the parsers number lines: by ``str.splitlines``.
        line = len((data[:exc.start].decode("ascii") + "x").splitlines())
        where = f"line {line}" if source is None else f"{source}: line {line}"
        raise ValueError(f"{where}: non-ASCII byte 0x{data[exc.start]:02x}") from None
    if fmt == "graph6":
        return parse_graph6_lines(text.splitlines(), source)
    return [parse_edge_list(text, source)]


def _scan_worker(item):
    graph, config = item
    return _examine_graph(graph, config)


def scan(config: ScanConfig) -> ScanReport:
    """Run the configured scan over its corpus."""
    start = time.monotonic()
    graphs = _resolve_source(config)
    results = []
    if config.jobs == 1 or len(graphs) < 2:
        for graph in graphs:
            outcome = _examine_graph(graph, config)
            results.append(outcome)
            if outcome[2]:
                break
    else:
        from multiprocessing import get_context  # loaded only when workers run

        ctx = get_context("fork")
        workers = min(config.jobs, len(graphs))  # no idle workers on a small corpus
        chunk = max(1, len(graphs) // (workers * 8))
        with ctx.Pool(processes=workers) as pool:
            for outcome in pool.imap(
                _scan_worker, ((g, config) for g in graphs), chunksize=chunk
            ):
                results.append(outcome)
                if outcome[2]:
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
        wall_time_s=time.monotonic() - start,
    )


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

# A graph record's fields, with the violation count in place of the tallies.
_CSV_COLUMNS = ("graph6", "n", "m", "status", "l", "num_longest", "truncated", "gallai_size",
                "triples_total", "triples_examined", "triples_skipped", "pairs_examined",
                "max_f", "min_t", "violations")


_CONTAINERS = (list, tuple, dict)


def _encode(o, pad: str) -> str:
    """The text of ``o`` laid out as a value at indent ``pad``."""
    if isinstance(o, str):
        return _quote(o)
    if type(o) is int:
        return int.__repr__(o)
    if not o or not isinstance(o, _CONTAINERS):
        # Past the containers, so that they pay nothing for the literals.
        if o is True:
            return "true"
        if o is False:
            return "false"
        return "null" if o is None else json.dumps(o)  # floats, empty containers
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(o, dict):
        parts = []
        for k in sorted(o):
            # A value is a piece of its own: a triple list's text runs to
            # megabytes, and joining it to its key's head would copy it.
            parts += (f"{sep}{_quote(k if isinstance(k, str) else json.dumps(k))}: ",
                      _encode(o[k], inner))
        parts[0] = "{" + parts[0][1:]
        parts.append(f"\n{pad}}}")
        return "".join(parts)
    if type(o[0]) is int and all(type(x) is int for x in o):
        return f"[\n{inner}{sep.join(map(int.__repr__, o))}\n{pad}]"
    if type(o) is TripleRows:
        return o.text(_encode, pad)
    return f"[\n{inner}{sep.join([_encode(x, inner) for x in o])}\n{pad}]"


def report_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, joined
    per container (a list of ints in one go) rather than by ``json``'s
    pure-Python indenting encoder, which collects every token first. A
    ``TripleRows`` list writes its own text."""
    return _encode(obj, "")


def report_chunks(records: Iterable, pad: str = "") -> Iterator[str]:
    """The pieces of ``report_json(list(records))``, one record at a time.

    Yields ``"[\\n  "``, then each record's text with ``",\\n  "`` between
    them, then ``"\\n]"``; ``"[]"`` alone when there are no records. Each
    record is encoded as soon as ``records`` yields it, so a caller that
    builds records lazily holds only their text, never the whole list of
    records. With ``pad``, the list is laid out as a value at that indent
    (``emit_report`` puts a scan's graph records under its ``"graphs"`` key
    this way).
    """
    inner = pad + "  "
    first = sep = "[\n" + inner
    for record in records:
        yield sep
        yield _encode(record, inner)
        sep = ",\n" + inner
    yield "[]" if sep is first else f"\n{pad}]"


def emit_report(report: ScanReport, fmt: str = "json") -> str:
    """Serialise a scan report. JSON and CSV are byte-deterministic for a
    given corpus and check set; the text form adds wall-clock timing."""
    if fmt == "json":
        rest = report_json({
            "schema_version": SCHEMA_VERSION,
            "summary": report.summary(),
            "violations": [vars(v) for v in report.violations],
        })
        # "graphs" sorts before the other keys. A record's own field dict is
        # read as it is: ``asdict`` would deep-copy every tally and witness.
        graphs = report_chunks((vars(rec) for rec in report.records), "  ")
        return "".join(['{\n  "graphs": ', *graphs, ",", rest[1:], "\n"])
    if fmt == "csv":
        import csv  # here alone: no call that writes JSON or text pays for it

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        per_graph_violations: dict[str, int] = {}
        for v in report.violations:
            per_graph_violations[v.graph6] = per_graph_violations.get(v.graph6, 0) + 1
        for rec in report.records:
            row = {**vars(rec), "violations": per_graph_violations.get(rec.graph6, 0)}
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

class TripleRows(list):
    """A list of row dicts, one per path triple, that writes its own JSON
    text for ``report_json``: ``analyze_one``'s triple entries and a
    ``verify-prop`` record's verdicts. A row holds three of ``paths``, the
    record's one list per path, under ``"paths"``, and the fields of one
    dict of ``fields``; ``rows`` holds beside each row that dict's index
    and the three path indices. ``text`` writes each path and each fields
    dict once, the latter split where ``"paths"`` sorts among its keys,
    and joins every row from those texts by index, none written again.
    """

    def __init__(self, paths: list[list[int]]):
        super().__init__()
        self.paths = paths
        self.fields: list[dict] = []
        self.rows: list[tuple[int, int, int, int]] = []

    def __reduce__(self):
        # A copy is a plain list, written entry by entry, so it can be edited.
        return list, (list(self),)

    def add(self, f: int, at: tuple[int, int, int]) -> None:
        """Append the row of ``fields[f]`` and the paths at indices ``at``."""
        i, j, k = at
        row = self.fields[f].copy()
        row["paths"] = [self.paths[i], self.paths[j], self.paths[k]]
        self.append(row)
        self.rows.append((f, i, j, k))

    def text(self, encode, pad: str) -> str:
        inner, field = pad + "  ", pad + "    "
        item = field + "  "
        sep = ",\n" + item
        paths = [encode(p, item) for p in self.paths]
        opens, closes = [], []
        for fields in self.fields:
            keys = sorted(fields)
            texts = [f"\n{field}{_quote(k)}: {encode(fields[k], field)}" for k in keys]
            cut = bisect(keys, "paths")
            opens.append("{" + ",".join([*texts[:cut], f'\n{field}"paths": [\n{item}']))
            closes.append(",".join([f"\n{field}]", *texts[cut:]]) + f"\n{inner}}}")
        between = ",\n" + inner
        parts = []
        for f, i, j, k in self.rows:
            parts += (between, opens[f], paths[i], sep, paths[j], sep, paths[k], closes[f])
        parts[0] = "[\n" + inner  # in place of the separator before the first row
        parts.append(f"\n{pad}]")
        return "".join(parts)


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
    Disconnected input is reported, not raised; ``checks`` and
    ``subdivision_t`` are checked as a ``ScanConfig`` checks them.

    Every field of a triple entry but its paths depends only on the three
    paths' vertex sets and crossing counts, and its subdivision statuses.
    So a triple, walked as path indices, costs its crossing counts and one
    lookup: a ``PathTriple`` (unless ``subdivision_t`` needs one for each),
    the analysis, the claim statuses and the field objects are made once
    per group of triples with equal masks, counts and statuses, and every
    entry of the group holds those same objects (``TripleRows``). The
    entries also share one list per path and one subdivision map per set of
    statuses. Treat the record as read-only: editing a shared list or map
    in one entry changes every entry that holds it, and the triple list is
    written from its groups. A copy (``copy.deepcopy``) holds a plain list.
    """
    _check_settings(checks, subdivision_t)
    out: dict = {"graph6": graph_key(graph), "n": graph.n, "m": graph.m}
    status, table = gated_table(graph, enumeration_cap)
    if table is not None:
        out.update(l=table.length, truncated=table.truncated,
                   num_longest=enumeration_cap if status else table.count)
    if status:
        out["status"] = status
        return out
    gallai = sorted(gallai_vertex_set(graph, longest_paths=table))
    triples = TripleStream(table, triple_cap)
    out.update(gallai_vertices=gallai, gallai_size=len(gallai), strict_crossings=strict_t,
               triples_total=triples.total)
    if triples.total == 0:
        out.update(status="vacuous", triples=[])
        return out
    claims = _TripleClaims(graph, table, checks, strict_t)
    masks, crossings = claims.analyze.masks, claims.analyze.t_counts
    entries = TripleRows([list(p.vertices) for p in table.paths])
    fields = entries.fields
    groups: dict[tuple, int] = {}
    subdivision_maps: dict[tuple, dict] = {}
    for at in triples.indices():
        i, j, k = at
        key = (masks[i], masks[j], masks[k], crossings(i, j, k))
        if subdivision_t:
            statuses = tuple([tuple([(v.claim, v.status) for v in pair]) for pair in
                              claims.subdivisions.verdicts(triples.at(i, j, k), subdivision_t)])
            key += (statuses,)
        f = groups.get(key)
        if f is None:
            analysis, verdicts = claims(triples.at(i, j, k), i, j, k)
            verdict_map = {v.claim: v.status for v in verdicts}
            if claims.prop1:
                # Two longest paths meet exactly when they share a vertex.
                verdict_map["prop1"] = [HOLDS if size else VIOLATED
                                        for size in analysis.pairwise_sizes]
            f = groups[key] = len(fields)
            fields.append({
                "f": analysis.f,
                "witnesses": sorted(analysis.witnesses),
                "x_sizes": list(analysis.x_sizes),
                "t_counts": list(analysis.t_counts),
                "pairwise_sizes": list(analysis.pairwise_sizes),
                "verdicts": verdict_map,
            })
            if subdivision_t:
                fields[f]["subdivision"] = subdivision_maps.setdefault(statuses, {
                    str(t): dict(pair) for t, pair in zip(subdivision_t, statuses)})
        entries.add(f, at)
    out.update(triples_examined=triples.examined, triples=entries,
               max_f=max(group["f"] for group in fields),
               min_t=min(min(group["t_counts"]) for group in fields), status="checked")
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
    if not 1 <= max_n <= MAX_GENERATION_N:
        raise ValueError(f"max_n must be within 1..{MAX_GENERATION_N}")
    _check_settings((), t_values)
    graphs = 0
    eligible = 0
    instances = 0
    skipped = 0
    triples_skipped = 0
    worst_s = 0.0
    violations: list[dict] = []
    for graph in _corpus(max_n):
        graphs += 1
        status, table = gated_table(graph)
        if status:
            # It lists no paths, and skipping it would shrink the sweep
            # without a word; n <= 8 stays far below the cap (K8 has
            # 20,160 longest paths).
            raise ValueError(f"graph {graph_key(graph)} has more longest paths than the cap")
        if table.count < 3:
            continue
        eligible += 1
        triples = TripleStream(table, triple_cap)
        subdivisions = Subdivisions(graph, table)
        for triple in triples:
            t0 = time.monotonic()
            for verdicts in subdivisions.verdicts(triple, t_values):
                worst_s = max(worst_s, time.monotonic() - t0)
                instances += 1
                for v in verdicts:
                    if v.status == VIOLATED:
                        violations.append(
                            {"claim": v.claim, "graph6": graph_key(graph), "witness": v.witness})
                    elif v.status == SKIPPED_BUDGET:
                        skipped += 1
                t0 = time.monotonic()
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
