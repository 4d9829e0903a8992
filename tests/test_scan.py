"""Scan orchestration, shortcut soundness, report emission, and the
single-graph deep dive."""

import copy
import csv
import importlib
import inspect
import io
import json
import pickle
import random
from collections import Counter
from functools import cached_property
from itertools import chain, combinations
from pathlib import Path as FilePath

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    corpus_up_to,
    cycle_graph,
    path_graph,
    petersen_family,
    star_graph,
    within_seconds,
)
from gallai.claims import HOLDS, TRIPLE_CLAIMS, VIOLATED, ClaimVerdict, check_prop1, triple_verdict
from gallai import paths as paths_module
from gallai import subdivision as subdivision_module
from gallai import triples as triples_module
from gallai.graphs import format_edge_list, from_edge_list, parse_graph6, to_graph6
from gallai.paths import DEFAULT_PATH_CAP, LongestPathTable, enumerate_longest_paths
from gallai.scan import (
    ALL_CHECKS,
    EXIT_CONJECTURE_VIOLATION,
    EXIT_INTERNAL_VIOLATION,
    EXIT_OK,
    ScanConfig,
    analyze_one,
    emit_report,
    report_chunks,
    report_json,
    scan,
    subdivision_sweep,
)
from gallai.subdivision import Subdivisions, check_size_bound, verify_proposition
from gallai.triples import (
    PathTriple,
    TripleAnalysis,
    TripleAnalyzer,
    TripleStream,
    analyze_triple,
    f_value,
)

# ``gallai.scan`` the attribute is the re-exported function, not the module.
scan_module = importlib.import_module("gallai.scan")


class TestScanConfig:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            ScanConfig()
        with pytest.raises(ValueError):
            ScanConfig(generate_n=4, input_path="x.g6")

    def test_range_checks(self):
        with pytest.raises(ValueError):
            ScanConfig(generate_n=9)
        with pytest.raises(ValueError):
            ScanConfig(generate_n=4, triple_cap=0)
        with pytest.raises(ValueError):
            ScanConfig(generate_n=4, jobs=0)
        with pytest.raises(ValueError):
            ScanConfig(generate_n=4, checks=("nope",))
        with pytest.raises(ValueError):
            ScanConfig(generate_n=4, triple_mode="sometimes")

    def test_repeats_rejected(self):
        with pytest.raises(ValueError, match="checks"):
            ScanConfig(generate_n=4, checks=("thm1", "thm1"))
        with pytest.raises(ValueError, match="subdivision_t"):
            ScanConfig(generate_n=4, subdivision_t=(1, 1))


class TestScanGeneratedCorpus:
    def test_exhaustive_up_to_five(self):
        report = scan(ScanConfig(generate_n=5))
        assert len(report.records) == 31
        assert report.violations == []
        assert not report.internal_violation
        assert report.exit_code == EXIT_OK
        by_status = report.summary()["by_status"]
        assert by_status.get("vacuous", 0) + by_status.get("shortcut", 0) == 31

    def test_records_sorted_by_graph6(self):
        report = scan(ScanConfig(generate_n=4))
        keys = [rec.graph6 for rec in report.records]
        assert keys == sorted(keys)

    def test_shortcut_records_zero_f(self):
        report = scan(ScanConfig(generate_n=5))
        for rec in report.records:
            if rec.status == "shortcut":
                assert rec.gallai_size > 0
                assert rec.max_f == 0
                assert rec.triples_total >= 1

    def test_vacuous_pair_still_checked(self):
        # Graphs with exactly two longest paths get the pairwise check.
        report = scan(ScanConfig(generate_n=4))
        two_path_recs = [r for r in report.records if r.num_longest == 2]
        assert two_path_recs
        for rec in two_path_recs:
            assert rec.status == "vacuous"
            assert rec.pairs_examined == 1
            assert rec.tallies["prop1"] == {HOLDS: 1}


class TestRecordsWithoutEnumeration:
    """Records come from the longest-path table; paths are walked only
    for the pairs and triples that are examined."""

    @staticmethod
    def count_enumerations(monkeypatch):
        listed = []
        real = LongestPathTable.paths.func

        def counting(table):
            listed.append(table)
            return real(table)

        walked = cached_property(counting)
        walked.__set_name__(LongestPathTable, "paths")
        monkeypatch.setattr(LongestPathTable, "paths", walked)
        return listed

    def test_only_lone_pairs_are_listed(self, monkeypatch):
        listed = self.count_enumerations(monkeypatch)
        report = scan(ScanConfig(generate_n=6))
        pairs = [r for r in report.records if r.num_longest == 2]
        assert pairs
        assert len(listed) == len(pairs)
        listed.clear()
        scan(ScanConfig(generate_n=6, checks=("conj_Z", "thm1")))
        assert listed == []

    def test_one_search_per_graph(self, monkeypatch):
        # The paths that are listed are walked from the table the record
        # came from, so one forward count per connected graph answers the
        # record, with no separate length search.
        counted = []
        real = LongestPathTable._count_forward

        def counting(table):
            counted.append(table)
            return real(table)

        def refuse(graph, **kwargs):
            raise AssertionError("the forward count gives the length")

        monkeypatch.setattr(LongestPathTable, "_count_forward", counting)
        monkeypatch.setattr(paths_module, "longest_path_length", refuse)
        report = scan(ScanConfig(generate_n=6, triple_mode="capped", triple_cap=1))
        connected = [r for r in report.records if r.status != "disconnected"]
        assert any(r.status == "checked" for r in connected)
        assert len(counted) == len(connected)

    def test_dense_graph_stops_at_the_cap(self, tmp_path):
        # K22 has 22!/2 longest paths and a memo table of 22 * 2^21
        # states; under the default cap the search must give up early. The
        # alarm turns a search that does not into a quick failure rather
        # than gigabytes of memo.
        n = 22
        src = tmp_path / "k22.txt"
        src.write_text(format_edge_list(complete_graph(n)))
        config = ScanConfig(input_path=str(src), input_format="edgelist")
        rec = within_seconds(10, lambda: scan(config).records[0])
        assert (rec.status, rec.l, rec.num_longest, rec.truncated) == (
            "skipped_truncated", 21, DEFAULT_PATH_CAP, True)
        out = within_seconds(10, lambda: analyze_one(complete_graph(n)))
        assert (out["status"], out["num_longest"], out["truncated"]) == (
            "skipped_truncated", DEFAULT_PATH_CAP, True)

    def test_large_star_stops_at_the_cap(self, tmp_path):
        # A 2,000-leaf star: no path holds more than two leaves, so the
        # length search stops at l = 2 after its first start rather than
        # trying every pair of leaves, and the 1,999,000 longest paths pass
        # the cap.
        src = tmp_path / "star.txt"
        src.write_text(format_edge_list(star_graph(2000)))
        config = ScanConfig(input_path=str(src), input_format="edgelist")
        rec = within_seconds(2, lambda: scan(config).records[0])
        assert (rec.status, rec.l, rec.num_longest, rec.truncated) == (
            "skipped_truncated", 2, DEFAULT_PATH_CAP, True)

    def test_records_match_enumeration(self):
        for rec, g in zip(scan(ScanConfig(generate_n=6)).records,
                          sorted(corpus_up_to(6), key=to_graph6)):
            lp = enumerate_longest_paths(g)
            core = frozenset.intersection(*(frozenset(p.vertices) for p in lp.paths))
            assert (rec.l, rec.num_longest, rec.gallai_size) == (
                lp.length, len(lp.paths), len(core))
            assert rec.triples_total == len(lp.paths) * (len(lp.paths) - 1) * (
                len(lp.paths) - 2) // 6

    def test_cap_binds_as_before(self, tmp_path):
        # K5 has 60 longest paths.
        src = tmp_path / "k5.g6"
        src.write_text(to_graph6(complete_graph(5)) + "\n")
        for cap, status in ((59, "skipped_truncated"), (60, "shortcut")):
            rec = scan(ScanConfig(input_path=str(src), enumeration_cap=cap)).records[0]
            assert (rec.status, rec.num_longest, rec.truncated) == (status, cap, cap == 59)
            assert rec.gallai_size == (None if cap == 59 else 5)


class TestTripleIteration:
    def test_all_mode_examines_every_triple(self):
        report = scan(ScanConfig(generate_n=4, triple_mode="all"))
        # The star is the only four-vertex graph with exactly three edges
        # and three longest paths.
        star_rec = next(
            r for r in report.records if r.n == 4 and r.m == 3 and r.num_longest == 3
        )
        assert star_rec.triples_examined == 1
        assert star_rec.status == "checked"
        assert star_rec.max_f == 0
        assert star_rec.min_t == 1
        assert report.exit_code == EXIT_OK

    def test_capped_mode_limits_and_counts(self):
        config = ScanConfig(generate_n=4, triple_mode="capped", triple_cap=5)
        report = scan(config)
        k4_rec = next(r for r in report.records if r.n == 4 and r.m == 6)
        assert k4_rec.triples_total == 220
        assert k4_rec.triples_examined == 5
        assert k4_rec.triples_skipped == 215

    def test_capped_mode_with_subdivision_checks(self):
        report = scan(ScanConfig(
            generate_n=4, triple_mode="capped", triple_cap=3, subdivision_t=(1,)
        ))
        rec = next(r for r in report.records if r.triples_examined > 0)
        assert "subdivision_prop" in rec.tallies
        assert "size_bound" in rec.tallies
        assert report.exit_code == EXIT_OK

    def test_strict_convention_changes_min_t(self):
        relaxed = scan(ScanConfig(generate_n=4, triple_mode="all"))
        strict = scan(ScanConfig(generate_n=4, triple_mode="all", strict_t=True))
        rec_r = next(r for r in relaxed.records if r.n == 4 and r.m == 3 and r.num_longest == 3)
        rec_s = next(r for r in strict.records if r.graph6 == rec_r.graph6)
        assert rec_r.min_t == 1
        assert rec_s.min_t == 0

    def test_strict_convention_scan_stays_clean(self):
        # The distance-sum parameter does not depend on the crossing
        # convention, so the strict scan is just as violation-free.
        report = scan(ScanConfig(generate_n=5, triple_mode="all", strict_t=True))
        assert report.violations == []
        assert report.exit_code == EXIT_OK

    @pytest.mark.parametrize("family, triples, pairs", [
        ({"k": 1}, 11_480, 861),
        ({"s": 2}, 816, 153),
    ], ids=["k1", "s2"])
    def test_gallai_free_graphs_walk_every_triple(self, tmp_path, family, triples, pairs):
        # No vertex lies on every longest path of these graphs, so even the
        # default mode walks their triples; in "all" mode every one of them.
        g = petersen_family(**family)
        src = tmp_path / "g.g6"
        src.write_text(to_graph6(g) + "\n")
        rec, = scan(ScanConfig(input_path=str(src), triple_mode="all")).records
        assert (rec.status, rec.gallai_size) == ("checked", 0)
        assert (rec.triples_examined, rec.triples_skipped, rec.pairs_examined) == (
            triples, 0, pairs)
        assert (rec.max_f, rec.min_t) == (0, 6)
        tallies = dict(rec.tallies)
        assert tallies.pop("prop1") == {HOLDS: pairs}
        assert len(tallies) == len(TRIPLE_CLAIMS)
        assert all(sum(tally.values()) == triples for tally in tallies.values())
        # analyze_one's statuses per group, each counted once per triple in it.
        res = analyze_one(g)
        entries = res["triples"]
        expected: dict = {}
        for group, size in Counter(group for group, *_ in entries.rows).items():
            for claim, status in entries.fields[group]["verdicts"].items():
                if claim != "prop1":
                    by_status = expected.setdefault(claim, {})
                    by_status[status] = by_status.get(status, 0) + size
        assert tallies == expected
        assert (res["triples_examined"], res["max_f"], res["min_t"]) == (triples, 0, 6)


class TestShortcutSoundness:
    def test_sampled_triples_confirm_zero(self):
        # Whenever some vertex lies on all longest paths, a tenth of the
        # triples (at least one) re-verified exhaustively must give f = 0.
        rng = random.Random(99)
        for g in corpus_up_to(5):
            lp = enumerate_longest_paths(g)
            if len(lp.paths) < 3:
                continue
            combos = list(combinations(lp.paths, 3))
            k = max(1, len(combos) // 10)
            sample = combos if len(combos) <= k else rng.sample(combos, k)
            for combo in sample:
                f, _ = f_value(g, PathTriple(combo))
                assert f == 0


class TestFileSources:
    def test_graph6_file(self, tmp_path):
        src = tmp_path / "graphs.g6"
        src.write_text("Bg\n")
        report = scan(ScanConfig(input_path=str(src)))
        assert len(report.records) == 1
        rec = report.records[0]
        assert rec.status == "vacuous"
        assert rec.num_longest == 1
        assert report.exit_code == EXIT_OK

    def test_edge_list_file(self, tmp_path):
        src = tmp_path / "graph.txt"
        src.write_text("4 3\n0 1\n0 2\n0 3\n")
        report = scan(
            ScanConfig(input_path=str(src), input_format="edgelist")
        )
        assert report.records[0].graph6 == to_graph6(star_graph(3))

    def test_disconnected_input_reported(self, tmp_path):
        src = tmp_path / "graphs.g6"
        src.write_text(to_graph6(from_edge_list(2, [])) + "\n")
        report = scan(ScanConfig(input_path=str(src)))
        assert report.records[0].status == "disconnected"

    def test_missing_file_raises(self):
        with pytest.raises(OSError):
            scan(ScanConfig(input_path="/nonexistent/file.g6"))


class TestDeterminism:
    def test_parallel_report_is_byte_identical(self):
        serial = scan(ScanConfig(generate_n=5, jobs=1))
        parallel = scan(ScanConfig(generate_n=5, jobs=4))
        assert emit_report(serial, "json") == emit_report(parallel, "json")
        assert emit_report(serial, "csv") == emit_report(parallel, "csv")

    def test_no_more_workers_than_graphs(self, monkeypatch, tmp_path):
        # A pool that records its size and runs the work in this process,
        # so no worker is started.
        sizes = []

        class InlinePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items, chunksize=1):
                return map(fn, items)

            def terminate(self):
                pass

        from multiprocessing import get_context

        monkeypatch.setattr(get_context("fork"), "Pool", InlinePool)
        src = tmp_path / "three.g6"
        src.write_text("".join(to_graph6(g) + "\n"
                               for g in (cycle_graph(5), complete_graph(4), star_graph(3))))
        serial = scan(ScanConfig(input_path=str(src), triple_mode="all", jobs=1))
        assert sizes == []
        for jobs, workers in ((64, 3), (2, 2)):
            capped = scan(ScanConfig(input_path=str(src), triple_mode="all", jobs=jobs))
            assert sizes.pop() == workers
            for fmt in ("json", "csv"):
                assert emit_report(capped, fmt) == emit_report(serial, fmt)

    def test_repeat_runs_identical(self):
        a = emit_report(scan(ScanConfig(generate_n=4)), "json")
        b = emit_report(scan(ScanConfig(generate_n=4)), "json")
        assert a == b


class TestInjectedViolations:
    """Forced verdicts, patched into the checkers a scan looks up by name,
    exercise the violation plumbing. ``triple_mode="all"`` sends every
    graph with three longest paths through triple iteration."""

    def test_conjecture_violation_exits_two(self, monkeypatch):
        real = scan_module._TRIPLE_CHECKERS["conj_Z"]

        def forced(graph, triple, l, analysis):
            # The claw K_{1,3} is the one four-vertex graph with 3 edges and
            # exactly three longest paths.
            if graph.n == 4 and graph.m == 3:
                return ClaimVerdict(
                    "conj_Z", VIOLATED, {"graph": to_graph6(graph), "forced": True}
                )
            return real(graph, triple, l, analysis)

        monkeypatch.setitem(scan_module._TRIPLE_CHECKERS, "conj_Z", forced)
        report = scan(ScanConfig(generate_n=4, triple_mode="all"))
        assert report.exit_code == EXIT_CONJECTURE_VIOLATION
        assert len(report.violations) == 1
        assert report.violations[0].claim == "conj_Z"
        assert report.violations[0].witness["forced"]
        assert not report.aborted

    def test_proven_violation_aborts_with_exit_three(self, monkeypatch):
        hit: list[str] = []

        def forced(graph, p1, p2, *, longest_paths=None):
            hit.append(to_graph6(graph))
            return ClaimVerdict("prop1", VIOLATED, {"forced": True})

        monkeypatch.setattr(scan_module, "check_prop1", forced)
        report = scan(ScanConfig(generate_n=4, triple_mode="all"))
        assert report.exit_code == EXIT_INTERNAL_VIOLATION
        assert report.internal_violation
        assert report.aborted
        assert report.summary()["aborted"] is True
        # The triangle's first pair stops the scan: no later pair and no
        # four-vertex graph is examined.
        assert hit == [to_graph6(cycle_graph(3))]
        serialized = emit_report(report, "json")
        assert '"forced": true' in serialized


class TestClaimStatusMemo:
    """The scan and ``analyze_one`` share one grouped walk of a graph's
    triples (``_TripleClaims.walk``), which decides each claim once per
    group of triples with equal path masks and crossing counts (and
    subdivision statuses, when those are checked), and the scan checks a
    violated claim again per triple. A patched ``conj4`` violates on every
    triple whose first crossing count is 2 or 5, so several triples of one
    group are violated, and each must carry its own witness. The first 60
    triples of each graph of the n <= 6 corpus are examined."""

    CHECKS = tuple(TRIPLE_CLAIMS)
    CAP = 60

    @staticmethod
    def force_violations(monkeypatch):
        real = TRIPLE_CLAIMS["conj4"]

        def predicate(n, l, a):
            if a.t_counts[0] in (2, 5):
                return "conj4", VIOLATED, {"forced": True}
            return real(n, l, a)

        monkeypatch.setitem(TRIPLE_CLAIMS, "conj4", predicate)

    @classmethod
    def reference(cls, max_n=6):
        """Per graph: each triple's verdicts, one fresh ``triple_verdict``
        per claim and triple."""
        out = {}
        for g in corpus_up_to(max_n):
            table = LongestPathTable(g)
            out[g] = [
                [triple_verdict(name, g, t, table.length, analyze_triple(g, t))
                 for name in cls.CHECKS]
                for t in TripleStream(table, cls.CAP)
            ]
        return out

    def test_scan_and_analyze_one_match_per_triple_verdicts(self, monkeypatch):
        self.force_violations(monkeypatch)
        expected = self.reference()
        for g, per_triple in expected.items():
            res = analyze_one(g, checks=self.CHECKS, triple_cap=self.CAP)
            statuses = [t["verdicts"] for t in res.get("triples", [])]
            assert statuses == [{v.claim: v.status for v in vs} for vs in per_triple]

        report = scan(ScanConfig(
            generate_n=6, checks=self.CHECKS, triple_mode="capped", triple_cap=self.CAP))
        tallies = {}
        violations = []
        for g6, per_triple in sorted((to_graph6(g), p) for g, p in expected.items()):
            for verdicts in per_triple:
                for v in verdicts:
                    claim_tally = tallies.setdefault(g6, {}).setdefault(v.claim, {})
                    claim_tally[v.status] = claim_tally.get(v.status, 0) + 1
                    if v.status == VIOLATED:
                        violations.append((g6, v.claim, v.witness))
        assert {r.graph6: r.tallies for r in report.records if r.tallies} == tallies
        assert [(v.graph6, v.claim, v.witness) for v in report.violations] == violations
        # Each witness names its own triple, and keys repeat among them.
        assert len({(g6, str(w["paths"])) for g6, _, w in violations}) == len(violations)
        keys = Counter((g6, w["f"], tuple(w["x_sizes"]), tuple(w["t_counts"]))
                       for g6, _, w in violations)
        assert max(keys.values()) > 1 and len(violations) > 100
        groups = Counter((g6, *(frozenset(p) for p in w["paths"]), tuple(w["t_counts"]))
                         for g6, _, w in violations)
        assert max(groups.values()) > 1

    def test_subdivision_verdicts_match_per_triple(self, monkeypatch):
        # Each triple's subdivision verdicts, from a fresh Subdivisions. With
        # at most 18 vertices a subdivided graph, a triple with more distinct
        # ends than another over the same vertex sets can be skipped where
        # the other holds, so the statuses split some groups of masks and
        # crossing counts.
        monkeypatch.setattr(subdivision_module, "DEFAULT_VERIFY_MAX_VERTICES", 18)
        ts = (0, 1)
        splits = 0
        expected = self.reference(5)
        tallies = {}
        for g, per_triple in expected.items():
            table = LongestPathTable(g)
            subdivided = [tuple(Subdivisions(g, table).verdicts(triple, ts))
                          for triple in TripleStream(table, self.CAP)]
            res = analyze_one(g, checks=self.CHECKS, triple_cap=self.CAP, subdivision_t=ts)
            entries = res.get("triples", [])
            assert [entry["subdivision"] for entry in entries] == [
                {str(t): {v.claim: v.status for v in pair} for t, pair in zip(ts, pairs)}
                for pairs in subdivided]
            maps: dict[tuple, set] = {}
            for entry in entries:
                key = (*(frozenset(p) for p in entry["paths"]), tuple(entry["t_counts"]))
                maps.setdefault(key, set()).add(str(entry["subdivision"]))
            splits += sum(len(m) > 1 for m in maps.values())
            for verdicts, pairs in zip(per_triple, subdivided):
                for v in (*verdicts, *chain.from_iterable(pairs)):
                    claim_tally = tallies.setdefault(to_graph6(g), {}).setdefault(v.claim, {})
                    claim_tally[v.status] = claim_tally.get(v.status, 0) + 1
        report = scan(ScanConfig(generate_n=5, checks=self.CHECKS, triple_mode="capped",
                                 triple_cap=self.CAP, subdivision_t=ts))
        assert {r.graph6: r.tallies for r in report.records if r.tallies} == tallies
        assert splits > 0

    def test_each_path_searched_once_per_graph(self, monkeypatch):
        searched = Counter()
        real = triples_module._distance_list

        def counting(adj, n, mask):
            searched[adj, mask] += 1
            return real(adj, n, mask)

        # Under both names that search: the base f's and the lifts'.
        monkeypatch.setattr(triples_module, "_distance_list", counting)
        monkeypatch.setattr(subdivision_module, "_distance_list", counting)
        for g in [*corpus_up_to(5), parse_graph6("KhAAPWU_?_@?")]:
            searched.clear()
            res = analyze_one(g, triple_cap=300, subdivision_t=(1,))
            if res["status"] != "checked":
                continue
            assert max(searched.values()) == 1
            base = {mask for adj, mask in searched if adj == g.adjacency}
            paths = {p for t in res["triples"] for p in map(tuple, t["paths"])}
            assert base == {sum(1 << v for v in p) for p in paths}


class TestEmitReport:
    def test_json_schema(self):
        report = scan(ScanConfig(generate_n=4))
        payload = json.loads(emit_report(report, "json"))
        assert payload["schema_version"] == 1
        assert payload["summary"]["graphs"] == 10
        assert payload["summary"]["violations"] == 0
        assert len(payload["graphs"]) == 10
        assert payload["violations"] == []
        # Timing is confined to the text rendering.
        assert "wall" not in json.dumps(payload)

    def test_csv_shape(self):
        report = scan(ScanConfig(generate_n=4))
        rows = list(csv.reader(io.StringIO(emit_report(report, "csv"))))
        assert rows[0][0] == "graph6"
        assert len(rows) == 11
        assert all(len(row) == len(rows[0]) for row in rows)

    def test_text_mentions_wall_time(self):
        report = scan(ScanConfig(generate_n=3))
        text = emit_report(report, "text")
        assert "wall time" in text
        assert "exit code: 0" in text

    def test_unknown_format(self):
        report = scan(ScanConfig(generate_n=3))
        with pytest.raises(ValueError):
            emit_report(report, "yaml")

    def test_empty_scan(self, tmp_path):
        src = tmp_path / "empty.g6"
        src.write_text("")
        report = scan(ScanConfig(input_path=str(src)))
        payload = json.loads(emit_report(report, "json"))
        assert payload["summary"]["graphs"] == 0
        assert report.exit_code == EXIT_OK


# Strings with JSON escapes, non-ASCII text and the graph6 alphabet.
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f[]{}?@~'),
                          st.characters()), max_size=8)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _TEXT)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(st.integers(), max_size=5),
        st.dictionaries(_TEXT, inner, max_size=5),
        st.dictionaries(st.integers(), inner, max_size=3),
    ),
    max_leaves=40,
)


@st.composite
def _shared_documents(draw, pool):
    """Documents whose leaves include the very objects of ``pool``."""
    return draw(st.recursive(
        st.one_of(_SCALARS, st.sampled_from(pool)),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(_TEXT, inner, max_size=4),
        ),
        max_leaves=12,
    ))


@st.composite
def _same_shape_records(draw):
    """Records of one key set, drawn in any insertion order, whose values
    vary: ints, scalar lists, lists of containers, nested dicts (some of
    the same key set) and empty containers. Non-str keys take one type per
    dict, among types whose keys compare equal but print differently: 1,
    1.0 and True, 0.0 and -0.0."""
    keys = draw(st.one_of(
        st.lists(_TEXT, min_size=1, max_size=6, unique=True),
        st.lists(st.integers(-2, 3), min_size=1, max_size=4, unique=True),
        st.just([None]),
    ))
    casts = [lambda k: k]
    if type(keys[0]) is int:
        # float(-k) would turn 0 into 0.0; -float(k) gives -0.0.
        casts += [float, lambda k: -float(k)]
        if set(keys) <= {0, 1}:
            casts.append(bool)
    leaves = st.one_of(
        _SCALARS,
        st.lists(st.integers(), max_size=4),
        st.lists(_SCALARS, max_size=3),
        st.lists(st.lists(st.integers(), max_size=3), max_size=3),
        st.dictionaries(_TEXT, st.lists(st.integers(), max_size=2), max_size=3),
        st.sampled_from([[], {}, ()]),
    )

    def shaped(values):
        return st.tuples(st.sampled_from(casts), st.permutations(keys)).flatmap(
            lambda pick: st.fixed_dictionaries({pick[0](k): values for k in pick[1]}))

    values = st.one_of(leaves, shaped(leaves), st.lists(shaped(leaves), max_size=2))
    return [draw(shaped(values)) for _ in range(draw(st.integers(1, 5)))]


class TestReportJson:
    @settings(max_examples=200, deadline=None)
    @given(_same_shape_records())
    @example([{1: 1}, {1.0: 1}, {True: 1}, {0.0: [{0: 1}]}, {-0.0: [{False: 1}]},
              {"b": 1, "a": 2}, {"a": 2, "b": 1}, {"a": {"b": 1, "a": 2}}])
    def test_repeated_and_equal_keys_across_records(self, records):
        # Records in one report_chunks call, with key sets repeated in
        # another order and keys equal but written apart (1, 1.0, True).
        expected = json.dumps(records, indent=2, sort_keys=True)
        assert "".join(report_chunks(records)) == expected
        assert report_json(records) == expected
        nested = json.dumps({"k": records}, indent=2, sort_keys=True)
        assert '{\n  "k": ' + "".join(report_chunks(records, "  ")) + "\n}" == nested

    @settings(max_examples=200, deadline=None)
    @given(_DOCUMENTS)
    def test_same_bytes_as_json_dumps(self, doc):
        # st.floats() draws NaN and both infinities.
        assert report_json(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_edge_values(self):
        doc = {"": [], "a": {}, "b": (), "c": [float("nan"), float("inf"), -float("inf")],
               "d": [True, False, None, 0, -1, 2**70, 1e300, -0.0], "é\u2603": "}\\["}
        assert report_json(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_shared_objects_encode_as_copies(self, data):
        # Containers drawn from a small pool sit at several positions and
        # depths of one document, and in several records.
        pool = data.draw(st.lists(_DOCUMENTS, min_size=1, max_size=3))
        doc = data.draw(_shared_documents(pool))
        assert report_json(doc) == json.dumps(doc, indent=2, sort_keys=True)
        records = data.draw(st.lists(_shared_documents(pool), max_size=4))
        expected = json.dumps(records, indent=2, sort_keys=True)
        assert "".join(report_chunks(records)) == expected
        assert "".join(report_chunks(iter(records))) == expected
        assert "".join(report_chunks(r for r in records)) == expected
        # Laid out as a value one level down, as emit_report's graph list.
        nested = json.dumps({"k": records}, indent=2, sort_keys=True)
        assert '{\n  "k": ' + "".join(report_chunks(iter(records), "  ")) + "\n}" == nested

    def test_verify_prop_witnesses(self):
        # verify-prop's records: one holding witness and one paths list
        # shared by several verdicts, a list of bools, null witnesses, and
        # the same literals at several indents.
        paths = [[0, 1, 2, 3], [0, 2, 1, 3], [1, 0, 2, 3]]
        holds = {"t": 1, "base_f": 0, "subdivided_f": 0, "expected_f": 0, "base_length": 3,
                 "subdivided_length": 7, "lifted_longest": [True, True, True],
                 "original_witness": True}
        violated = {**holds, "lifted_longest": [True, False, True], "original_witness": False,
                    "graph": "C~", "subdivided_graph": "I~?GW?_?G", "paths": paths}
        verdicts = [
            {"t": 1, "paths": paths, "status": "holds", "witness": holds},
            {"t": 2, "paths": paths, "status": "holds", "witness": holds},
            {"t": 1, "paths": paths, "status": "violated", "witness": violated},
            {"t": 1, "paths": paths, "status": "skipped_truncated", "witness": None},
        ]
        records = [{"graph6": "C~", "verdicts": verdicts},
                   {"graph6": "A_", "status": "disconnected", "verdicts": []}]
        for doc in (records, {"k": [records, holds]}, [[verdicts]], [True, False, None],
                    {"a": [None, [False, [True, {"b": None}]]]}):
            assert report_json(doc) == json.dumps(doc, indent=2, sort_keys=True)
        expected = json.dumps(records, indent=2, sort_keys=True)
        assert "".join(report_chunks(iter(records))) == expected

    def test_chunks_of_no_records(self):
        assert list(report_chunks([])) == ["[]"] == [json.dumps([], indent=2)]
        assert "".join(report_chunks(r for r in ())) == "[]"

    def test_chunk_layout(self):
        shared = [1, 2]
        records = [{"a": shared, "b": [shared]}, shared]
        chunks = list(report_chunks(records))
        assert chunks[0] == "[\n  " and chunks[2] == ",\n  " and chunks[-1] == "\n]"
        assert chunks[1::2][:2] == [report_json(r).replace("\n", "\n  ") for r in records]

    def test_text_follows_values_when_ids_are_reused(self):
        # Each record is freed once encoded, so the next record's lists
        # may reuse its ids; each record's text depends on its values alone.
        records = ({"v": [i, i + 1], "w": {"k": [i]}} for i in range(300))
        expected = [{"v": [i, i + 1], "w": {"k": [i]}} for i in range(300)]
        assert "".join(report_chunks(records)) == json.dumps(expected, indent=2, sort_keys=True)

    def test_the_only_indenting_encoder(self):
        # Every indented JSON report goes through report_json.
        own = inspect.getsource(scan_module.report_json)
        for source in sorted(FilePath(scan_module.__file__).parent.glob("*.py")):
            assert "indent=" not in source.read_text().replace(own, ""), source.name


class TestAnalyzeOne:
    def test_prop1_checked_once_per_pair(self, monkeypatch, tmp_path):
        # C5 has five longest paths: ten pairs over ten triples. analyze_one
        # reads prop1 off the pairwise sizes and checks no pair; a scan of
        # every triple checks each distinct pair once.
        pairs = []

        def counted(graph, a, b, **kwargs):
            pairs.append((a, b))
            return check_prop1(graph, a, b, **kwargs)

        monkeypatch.setattr(scan_module, "check_prop1", counted)
        for g in (cycle_graph(5), complete_graph(4)):
            res = analyze_one(g)
            assert all(t["verdicts"]["prop1"] == [HOLDS] * 3 for t in res["triples"])
        assert pairs == []
        src = tmp_path / "c5.g6"
        src.write_text(to_graph6(cycle_graph(5)) + "\n")
        rec, = scan(ScanConfig(input_path=str(src), triple_mode="all")).records
        assert len(pairs) == len(set(pairs)) == 10
        assert rec.pairs_examined == 10
        assert rec.tallies["prop1"] == {HOLDS: 10}

    @pytest.mark.parametrize("sizes, expected", [
        ((0, 1, 2), [VIOLATED, HOLDS, HOLDS]),
        ((1, 0, 2), [HOLDS, VIOLATED, HOLDS]),
        ((1, 2, 0), [HOLDS, HOLDS, VIOLATED]),
    ], ids=["pair01", "pair02", "pair12"])
    def test_prop1_statuses_follow_the_pair_order(self, monkeypatch, sizes, expected):
        # The pairwise sizes are of pairs (0,1), (0,2), (1,2), and the prop1
        # list is in that order too: an empty intersection lands in its place.
        class Forced(TripleAnalyzer):
            def __call__(self, triple, t_counts=None):
                a = super().__call__(triple, t_counts)
                return TripleAnalysis(a.f, a.witnesses, a.x_sizes, a.t_counts, sizes,
                                      a.strict_crossings)

        monkeypatch.setattr(scan_module, "TripleAnalyzer", Forced)
        res = analyze_one(complete_graph(4))
        assert len(res["triples"]) == 220
        assert all(t["verdicts"]["prop1"] == expected for t in res["triples"])

    def test_one_base_f_per_mask_triple_in_a_scan(self, monkeypatch, tmp_path):
        # The scan's analyser and its subdivision checks share one record
        # per triple of path masks, so the base graph's f is summed once
        # for each, however many triples and t values reach it.
        g = parse_graph6("KhAAPWU_?_@?")
        bases = []
        real = triples_module.f_value

        def counted(graph, triple, distances=None):
            if graph.n == g.n:
                bases.append(tuple(p.mask for p in triple.paths))
            return real(graph, triple, distances)

        # Under both names that compute f: the analyser's and the check's.
        monkeypatch.setattr(triples_module, "f_value", counted)
        monkeypatch.setattr(subdivision_module, "f_value", counted)
        src = tmp_path / "k1.g6"
        src.write_text("KhAAPWU_?_@?\n")
        report = scan(ScanConfig(input_path=str(src), subdivision_t=(1,), triple_cap=300))
        assert report.records[0].tallies["subdivision_prop"] == {HOLDS: 300}
        monkeypatch.undo()
        expected = {tuple(p.mask for p in t.paths)
                    for t in TripleStream(enumerate_longest_paths(g), 300)}
        assert sorted(bases) == sorted(expected)
        assert len(expected) < 300

    def test_star(self):
        res = analyze_one(star_graph(3))
        assert res["l"] == 2
        assert res["num_longest"] == 3
        assert res["gallai_vertices"] == [0]
        assert res["triples_total"] == 1
        assert res["max_f"] == 0
        assert res["min_t"] == 1
        entry = res["triples"][0]
        assert entry["f"] == 0
        assert entry["t_counts"] == [1, 1, 1]
        assert entry["verdicts"]["conj_Z"] == HOLDS
        assert entry["verdicts"]["prop1"] == [HOLDS, HOLDS, HOLDS]

    def test_cycle_examines_all_ten(self):
        res = analyze_one(cycle_graph(5))
        assert res["num_longest"] == 5
        assert res["triples_total"] == 10
        assert res["triples_examined"] == 10
        assert all(t["f"] == 0 for t in res["triples"])

    def test_path_vacuous(self):
        res = analyze_one(path_graph(3))
        assert res["status"] == "vacuous"
        assert res["triples"] == []

    def test_disconnected_reported(self):
        res = analyze_one(from_edge_list(2, []))
        assert res["status"] == "disconnected"

    def test_subdivision_results_included(self):
        res = analyze_one(star_graph(3), subdivision_t=(1,))
        sub = res["triples"][0]["subdivision"]["1"]
        assert sub["subdivision_prop"] == HOLDS
        assert sub["size_bound"] == HOLDS

    def test_triple_cap(self):
        res = analyze_one(cycle_graph(5), triple_cap=4)
        assert res["triples_examined"] == 4

    def test_json_serializable(self):
        res = analyze_one(cycle_graph(5), subdivision_t=(0, 1))
        json.dumps(res)

    @staticmethod
    def refuse_work(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a graph was examined before the settings were checked")

        monkeypatch.setattr(scan_module, "gated_table", refuse)

    def test_unknown_check_rejected(self, monkeypatch):
        # Once a check name that is not a claim gave entries with no verdicts.
        self.refuse_work(monkeypatch)
        with pytest.raises(ValueError, match=r"^unknown checks: \['bogus'\]$"):
            analyze_one(parse_graph6("C~"), checks=("bogus",), triple_cap=2)

    def test_repeated_multiplicity_rejected(self, monkeypatch):
        # Once t = (1, 1) collapsed to one "1" key of each subdivision map.
        self.refuse_work(monkeypatch)
        with pytest.raises(ValueError, match="^subdivision_t must not repeat a value$"):
            analyze_one(parse_graph6("C~"), subdivision_t=(1, 1))


def fresh_record(graph, *, checks=ALL_CHECKS, triple_cap=100_000, subdivision_t=(),
                 strict_t=False) -> dict:
    """``analyze_one``'s record built the old way: fresh lists and a fresh
    verdict map in every triple entry, one ``analyze_triple`` and one
    ``triple_verdict`` per claim and triple."""
    table = LongestPathTable(graph)
    gallai = table.core
    out = {"graph6": to_graph6(graph), "n": graph.n, "m": graph.m, "l": table.length,
           "num_longest": table.count, "truncated": False,
           "gallai_vertices": [v for v in range(graph.n) if gallai >> v & 1],
           "gallai_size": gallai.bit_count(), "strict_crossings": strict_t}
    triples = TripleStream(table, triple_cap)
    out["triples_total"] = triples.total
    if triples.total == 0:
        out.update(status="vacuous", triples=[])
        return out
    subdivisions = Subdivisions(graph, table)
    entries = []
    for triple in triples:
        a = analyze_triple(graph, triple, strict_t=strict_t)
        entry = {
            "paths": [list(p.vertices) for p in triple.paths],
            "f": a.f,
            "witnesses": sorted(a.witnesses),
            "x_sizes": list(a.x_sizes),
            "t_counts": list(a.t_counts),
            "pairwise_sizes": list(a.pairwise_sizes),
            "verdicts": {
                v.claim: v.status
                for v in (triple_verdict(c, graph, triple, table.length, a)
                          for c in checks if c in TRIPLE_CLAIMS)
            },
        }
        if "prop1" in checks:
            entry["verdicts"]["prop1"] = [
                check_prop1(graph, p, q, longest_paths=table).status
                for p, q in combinations(triple.paths, 2)]
        if subdivision_t:
            entry["subdivision"] = {
                str(t): {"subdivision_prop": verify_proposition(subdivisions, triple, t).status,
                         "size_bound": check_size_bound(graph, triple, t).status}
                for t in subdivision_t}
        entries.append(entry)
    out.update(triples_examined=triples.examined, triples=entries,
               max_f=max(e["f"] for e in entries),
               min_t=min(min(e["t_counts"]) for e in entries), status="checked")
    return out


@st.composite
def _connected_graphs(draw, min_n: int = 6, max_n: int = 9):
    """A random spanning tree on n vertices plus up to n more edges: past
    the exhaustive corpus, and sparse enough that the longest paths stay
    well under the enumeration cap."""
    n = draw(st.integers(min_n, max_n))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    rest = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
    extra = draw(st.lists(st.sampled_from(rest), unique=True, max_size=n))
    return from_edge_list(n, [*tree, *extra])


class TestSharedFragments:
    """``analyze_one`` shares each fragment among its triple entries; its
    records equal the old ones, built with fresh lists for every triple."""

    @pytest.fixture(scope="class")
    def corpus_records(self):
        """The record of each graph on at most five vertices, from
        ``analyze_one`` and from ``fresh_record``."""
        return [(analyze_one(g), fresh_record(g)) for g in corpus_up_to(5)]

    def test_records_equal_fresh_ones(self, corpus_records):
        shared = 0
        for res, fresh in corpus_records:
            assert res == fresh
            lists = [id(x) for t in res["triples"]
                     for x in (*t["paths"], t["witnesses"], t["x_sizes"])]
            shared += len(lists) - len(set(lists))
        assert shared > 10_000

    @settings(max_examples=150, deadline=None)
    @given(g=_connected_graphs(), strict=st.booleans(), prop1=st.booleans(),
           claims=st.sets(st.sampled_from(ALL_CHECKS[1:])), cap=st.integers(1, 40),
           ts=st.sampled_from([(), (1,), (0, 2)]))
    def test_random_graphs_past_the_corpus(self, g, strict, prop1, claims, cap, ts):
        checks = tuple(c for c in ALL_CHECKS if c in claims or prop1 and c == "prop1")
        kw = dict(checks=checks, triple_cap=cap if ts else 4 * cap, subdivision_t=ts,
                  strict_t=strict)
        rec = analyze_one(g, **kw)
        assert rec == fresh_record(g, **kw)
        # The standard library's indenting encoder is the reference for the
        # entries' own text.
        assert "".join(report_chunks([rec])) == json.dumps([rec], indent=2, sort_keys=True)

    def test_rows_read_as_a_list_of_dicts(self, corpus_records):
        # Triple entries are kept as indices and built when read: every
        # reader sees the fresh record's entries, a copy is a plain list,
        # and json.dumps without an indent writes the record in full or
        # raises, never an empty list.
        g = parse_graph6("KhAAPWU_?_@?")
        checked = 0
        for res, fresh in [*corpus_records, (analyze_one(g), fresh_record(g))]:
            rows, expected = res["triples"], fresh["triples"]
            if not expected:
                continue
            checked += len(expected)
            assert len(rows) == len(expected) and bool(rows)
            assert list(rows) == expected and rows == expected and expected == rows
            assert rows[0] == expected[0] and rows[-1] == expected[-1]
            assert rows[1::7] == expected[1::7] and rows[5:0] == []
            assert rows != expected[:-1]
            for copied in (copy.deepcopy(rows), pickle.loads(pickle.dumps(rows))):
                assert type(copied) is list and copied == expected
            assert json.dumps(res) == json.dumps({**res, "triples": list(rows)})
            with pytest.raises(TypeError, match="TripleRows"):
                json.dumps(rows)
        assert checked > 11_480
        with pytest.raises(IndexError):
            rows[len(expected)]

    def test_a_copied_record_can_be_edited(self):
        res = analyze_one(parse_graph6("KhAAPWU_?_@?"), subdivision_t=(1,), triple_cap=30)
        for copied in (copy.deepcopy(res), pickle.loads(pickle.dumps(res))):
            assert type(copied["triples"]) is list and copied == res
            copied["triples"][3]["f"] = 99
            copied["triples"][4]["paths"][0] = [0]
            assert report_json(copied) == json.dumps(copied, indent=2, sort_keys=True)

    @pytest.mark.parametrize("strict", [False, True])
    def test_records_with_subdivisions_and_caps(self, strict):
        checks = ("prop1", "conj_Z", "case_bounds")
        for g in [*corpus_up_to(5), parse_graph6("KhAAPWU_?_@?")]:
            kw = dict(checks=checks, triple_cap=40, subdivision_t=(0, 2), strict_t=strict)
            assert analyze_one(g, **kw) == fresh_record(g, **kw)

    # The fields an entry takes from its group: its triple of path masks
    # with its crossing counts.
    GROUP_FIELDS = ("witnesses", "x_sizes", "t_counts", "pairwise_sizes", "verdicts")

    @staticmethod
    def group_key(entry):
        return (*(frozenset(p) for p in entry["paths"]), tuple(entry["t_counts"]))

    def test_fragments_are_shared_and_lists(self):
        # C5's five longest paths each span all five vertices, and every
        # triple crosses (5, 5, 5): one group, whose objects all ten share.
        res = analyze_one(cycle_graph(5), subdivision_t=(1,))
        first, *rest = res["triples"]
        assert len(rest) == 9
        for entry in rest:
            assert self.group_key(entry) == self.group_key(first)
            for k in self.GROUP_FIELDS:
                assert entry[k] is first[k]
            assert entry["subdivision"]["1"] is first["subdivision"]["1"]
            assert all(type(entry[k]) is list for k in ("paths", *self.GROUP_FIELDS[:-1]))
        by_path = {}
        for entry in res["triples"]:
            for p in entry["paths"]:
                assert by_path.setdefault(tuple(p), p) is p

    @pytest.mark.parametrize("strict", [False, True])
    def test_crossing_counts_split_mask_triples(self, strict):
        # The one graph known whose triples over one triple of path masks
        # cross differently: 18 mask triples split within its first 3,000
        # triples, the first at triple 2,897, so a group key without the
        # crossing counts fails here and not on the small graphs above.
        g = parse_graph6("KhAAPWU_?_@?")
        rec = analyze_one(g, triple_cap=3000, strict_t=strict)
        assert rec == fresh_record(g, triple_cap=3000, strict_t=strict)
        counts: dict[tuple, set] = {}
        for entry in rec["triples"]:
            counts.setdefault(self.group_key(entry)[:3], set()).add(tuple(entry["t_counts"]))
        assert sum(len(c) > 1 for c in counts.values()) == 18

    def test_fields_never_share_an_object(self):
        # Each field holds one object per group, shared by the group's
        # entries and by no other group or field.
        groups_seen = 0
        for g in [*corpus_up_to(5), parse_graph6("KhAAPWU_?_@?")]:
            res = analyze_one(g)
            owner = {}
            groups = {}
            entries = res.get("triples", [])
            for entry in entries:
                group = groups.setdefault(self.group_key(entry), entry)
                for k in self.GROUP_FIELDS:
                    assert entry[k] is group[k]
                held = [("paths", p) for p in entry["paths"]]
                held += [(k, entry[k]) for k in self.GROUP_FIELDS]
                for k, obj in held:
                    assert owner.setdefault(id(obj), k) == k
            for k in self.GROUP_FIELDS:
                assert len({id(entry[k]) for entry in entries}) == len(groups)
            groups_seen += len(groups)
        assert groups_seen > 1_000


class TestSubdivisionSweep:
    def test_tiny_sweep_clean(self):
        # Triangle, star, cycle, diamond, and K4 have at least three
        # longest paths among the ten connected graphs up to four vertices.
        result = subdivision_sweep(4, (1,))
        assert result["violations"] == []
        assert result["graphs"] == 10
        assert result["graphs_with_triples"] == 5
        assert result["instances"] > 200
        assert result["triples_skipped"] == 0
        json.dumps(result)

    def test_triple_cap_limits_and_counts(self):
        capped = subdivision_sweep(4, (1,), triple_cap=2)
        # K4 alone has 220 triples, so the cap must bite.
        assert capped["instances"] < 40
        assert capped["triples_skipped"] > 200
        assert capped["violations"] == []

    def test_truncated_table_is_an_error(self, monkeypatch):
        # A table over its cap lists no paths, so the triangle's three
        # longest paths over a cap of two would leave it looking like a
        # graph without triples; the sweep names it instead.
        monkeypatch.setattr(scan_module, "LongestPathTable",
                            lambda graph, cap: LongestPathTable(graph, 2))
        with pytest.raises(ValueError, match="^graph Bw has more longest paths than the cap$"):
            subdivision_sweep(3, (1,))

    def test_arguments_are_checked_before_any_work(self, monkeypatch):
        def refuse(n):
            raise AssertionError("graphs generated before the arguments were checked")

        monkeypatch.setattr(scan_module, "generate_connected_graphs", refuse)
        with pytest.raises(ValueError, match="subdivision_t must not repeat a value"):
            subdivision_sweep(3, (1, 1))
        for max_n in (0, 9):
            with pytest.raises(ValueError, match="max_n must be within 1..8"):
                subdivision_sweep(max_n, (1,), triple_cap=1)
        # Once this failed only inside the first subdivision, with its message.
        with pytest.raises(ValueError, match="^subdivision multiplicities must be nonnegative$"):
            subdivision_sweep(3, (-1,))
