"""Spans around the functions each gallai module hands to its callers.

Callers bind names with ``from .x import y``, so each name is replaced in
the namespace of the module that calls it. ``install`` runs in the child
interpreter of a traced repetition; ``layer_metrics`` turns the spans that
repetition wrote into per-layer self times and counts.

A span is ``[name, start_ns, end_ns, parent_index, tag]``; the tag carries
what the call returned that a layer metric counts (paths found, a verdict
status, records written, graphs yielded).
"""

from __future__ import annotations

import importlib
import json
import time


class Tracer:
    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[list] = []
        self._stack = [-1]

    def span(self, name: str, fn, tag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if tag is not None:
                rec[4] = tag(out)
            return out

        return traced

    def span_each_next(self, name: str, fn):
        """Wrap a generator function so that every ``next()`` is a span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = [name, clock(), 0, stack[-1], 0]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    rec[2] = clock()
                rec[4] = 1
                yield item

        return traced

    def dump(self, path: str, wall_s: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"trace_id": self.trace_id, "wall_s": wall_s, "spans": self.spans}, fh)


def _status(verdict) -> str:
    return verdict.status


def _num_paths(lp) -> int:
    return len(lp.paths)


def install(tracer: Tracer):
    """Wrap the cross-module calls the workloads make; return ``main``
    wrapped as the root ``cli`` span."""
    # Not ``gallai.scan``: that attribute is the re-exported function.
    cli, scan, sub, paths = (importlib.import_module(f"gallai.{name}")
                             for name in ("cli", "scan", "subdivision", "paths"))

    def wrap(module, attr, span, tag=None):
        setattr(module, attr, tracer.span(span, getattr(module, attr), tag))

    wrap(cli, "scan", "scan", lambda report: len(report.records))
    wrap(cli, "analyze_one", "scan", lambda record: 1)
    wrap(cli, "verify_proposition", "subdivision.verify", _status)
    wrap(cli, "enumerate_longest_paths", "paths.enumerate", _num_paths)
    cli.generate_connected_graphs = tracer.span_each_next(
        "generate", cli.generate_connected_graphs)
    wrap(cli, "to_graph6", "graphs.encode")
    wrap(cli, "parse_graph6_lines", "graphs.parse")
    wrap(cli, "emit_report", "scan.emit")

    wrap(scan, "enumerate_longest_paths", "paths.enumerate", _num_paths)
    wrap(scan, "gallai_vertex_set", "claims.gallai_set")
    wrap(scan, "analyze_triple", "triples.analyze")
    wrap(scan, "check_prop1", "claims.check", _status)
    wrap(scan, "parse_graph6_lines", "graphs.parse")
    wrap(scan, "graph_key", "graphs.encode")
    checkers = scan._TRIPLE_CHECKERS
    for claim, checker in checkers.items():
        checkers[claim] = tracer.span("claims.check", checker, _status)

    wrap(sub, "enumerate_longest_paths", "paths.enumerate_sub", _num_paths)
    wrap(sub, "f_value", "triples.f_value")
    wrap(sub, "build_instance", "subdivision.build")

    wrap(paths, "longest_path_length", "paths.longest_length")
    return tracer.span("cli", cli.main)


# ---------------------------------------------------------------------------
# spans to per-layer metrics (runs in the parent process)
# ---------------------------------------------------------------------------

TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
SKIPPED = ("skipped_truncated", "skipped_budget")


def _tail(durations_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    calls beyond it; with fewer than twenty calls, the slowest call."""
    if not durations_ms:
        return 0.0, 0.0
    ordered = sorted(durations_ms)
    n = len(ordered)
    best = None
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            best = pct
    if best is None:
        return ordered[-1], 100.0
    return ordered[min(n - 1, int(n * best / 100.0))], best


def _p50(durations_ms: list[float]) -> float:
    if not durations_ms:
        return 0.0
    ordered = sorted(durations_ms)
    return ordered[len(ordered) // 2]


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    spans = dump["spans"]
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    ms: dict[str, list[float]] = {}
    tags: dict[str, list] = {}
    for (name, start, end, _, tag), inner in zip(spans, child_ns):
        self_s[name] = self_s.get(name, 0.0) + (end - start - inner) / 1e9
        calls[name] = calls.get(name, 0) + 1
        ms.setdefault(name, []).append((end - start) / 1e6)
        tags.setdefault(name, []).append(tag)

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    verdicts = tags.get("claims.check", []) + tags.get("subdivision.verify", [])
    out = {
        "graphs.parse.calls": c("graphs.parse"),
        "graphs.parse.self_s": s("graphs.parse"),
        "graphs.encode.calls": c("graphs.encode"),
        "graphs.encode.self_s": s("graphs.encode"),
        "generate.graphs": sum(tags.get("generate", [])),
        "generate.self_s": s("generate"),
        "paths.enumerate.calls": c("paths.enumerate"),
        "paths.enumerate.self_s": s("paths.enumerate"),
        "paths.enumerate.paths_out": sum(tags.get("paths.enumerate", [])),
        "paths.longest_length.calls": c("paths.longest_length"),
        "paths.longest_length.self_s": s("paths.longest_length"),
        "paths.enumerate_sub.calls": c("paths.enumerate_sub"),
        "paths.enumerate_sub.self_s": s("paths.enumerate_sub"),
        "claims.gallai_set.calls": c("claims.gallai_set"),
        "claims.gallai_set.self_s": s("claims.gallai_set"),
        "claims.check.calls": c("claims.check"),
        "claims.check.self_s": s("claims.check"),
        "claims.verdicts.violated": verdicts.count("violated"),
        "claims.verdicts.skipped": sum(verdicts.count(k) for k in SKIPPED),
        "triples.analyze.calls": c("triples.analyze"),
        "triples.analyze.self_s": s("triples.analyze"),
        "triples.f_value.calls": c("triples.f_value"),
        "triples.f_value.self_s": s("triples.f_value"),
        "subdivision.verify.calls": c("subdivision.verify"),
        "subdivision.verify.self_s": s("subdivision.verify"),
        "subdivision.build.calls": c("subdivision.build"),
        "subdivision.build.self_s": s("subdivision.build"),
        "scan.self_s": s("scan"),
        "scan.records": sum(tags.get("scan", [])),
        "scan.emit.self_s": s("scan.emit"),
        "cli.self_s": s("cli"),
    }
    graphs = out["generate.graphs"]
    out["generate.us_per_graph"] = out["generate.self_s"] / graphs * 1e6 if graphs else 0.0
    analyzed = out["triples.analyze.calls"]
    out["triples.analyze.us_per_call"] = (
        out["triples.analyze.self_s"] / analyzed * 1e6 if analyzed else 0.0)
    verified = out["subdivision.verify.calls"]
    out["subdivision.reuse_ratio"] = (
        1.0 - out["paths.enumerate_sub.calls"] / verified if verified else 0.0)
    for layer in ("paths.enumerate", "paths.enumerate_sub"):
        out[f"{layer}.ms_p50"] = _p50(ms.get(layer, []))
        out[f"{layer}.ms_tail"], out[f"{layer}.ms_tail_pct"] = _tail(ms.get(layer, []))
    # Self times partition the root span, so their sum over the wall time
    # measured around the call shows how much of the call the spans cover.
    out["trace.accounted_frac"] = sum(self_s.values()) / dump["wall_s"]
    return out
