"""Scan orchestration, shortcut soundness, report emission, and the
single-graph deep dive."""

import csv
import importlib
import inspect
import io
import json
import random
from collections import Counter
from functools import cached_property
from itertools import combinations
from pathlib import Path as FilePath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    corpus_up_to,
    cycle_graph,
    path_graph,
    star_graph,
    within_seconds,
)
from gallai.claims import HOLDS, TRIPLE_CLAIMS, VIOLATED, ClaimVerdict, check_prop1, triple_verdict
from gallai import paths as paths_module
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
    report_json,
    scan,
    subdivision_sweep,
)
from gallai.triples import PathTriple, TripleStream, analyze_triple, f_value

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
        # came from, so the length search runs once per connected graph.
        searched = []
        real = paths_module.longest_path_length

        def counting(graph, **kwargs):
            searched.append(graph)
            return real(graph, **kwargs)

        monkeypatch.setattr(paths_module, "longest_path_length", counting)
        report = scan(ScanConfig(generate_n=6, triple_mode="capped", triple_cap=1))
        connected = [r for r in report.records if r.status != "disconnected"]
        assert any(r.status == "checked" for r in connected)
        assert len(searched) == len(connected)

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
        # The triangle's first pair stops the scan: no later pair and no
        # four-vertex graph is examined.
        assert hit == [to_graph6(cycle_graph(3))]
        serialized = emit_report(report, "json")
        assert '"forced": true' in serialized


class TestClaimStatusMemo:
    """The scan and ``analyze_one`` decide each claim once per graph and
    (f, x_sizes, t_counts), and check a violated claim again per triple.
    A patched ``conj4`` violates on every triple whose first crossing
    count is 2 or 5, so equal keys repeat among the violations. The first
    60 triples of each graph of the n <= 6 corpus are examined: below
    n = 6, ``f`` and ``x_sizes`` alone fix the crossing counts of every
    graph's triples, and four six-vertex graphs have triples with
    ``t_counts`` (3, 3, 3) and (5, 5, 5) under one (f, x_sizes)."""

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
    def reference(cls):
        """Per graph: each triple's verdicts, one fresh ``triple_verdict``
        per claim and triple."""
        out = {}
        for g in corpus_up_to(6):
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

    def test_each_path_searched_once_per_graph(self, monkeypatch):
        searched = Counter()
        real = triples_module._distance_list

        def counting(adj, n, mask):
            searched[adj, mask] += 1
            return real(adj, n, mask)

        monkeypatch.setattr(triples_module, "_distance_list", counting)
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


class TestReportJson:
    @settings(max_examples=200, deadline=None)
    @given(_DOCUMENTS)
    def test_same_bytes_as_json_dumps(self, doc):
        # st.floats() draws NaN and both infinities.
        assert report_json(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_edge_values(self):
        doc = {"": [], "a": {}, "b": (), "c": [float("nan"), float("inf"), -float("inf")],
               "d": [True, False, None, 0, -1, 2**70, 1e300, -0.0], "é\u2603": "}\\["}
        assert report_json(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_the_only_indenting_encoder(self):
        # Every indented JSON report goes through report_json.
        own = inspect.getsource(scan_module.report_json)
        for source in sorted(FilePath(scan_module.__file__).parent.glob("*.py")):
            assert "indent=" not in source.read_text().replace(own, ""), source.name


class TestAnalyzeOne:
    def test_prop1_checked_once_per_pair(self, monkeypatch):
        # C5 has five longest paths: ten pairs over ten triples.
        pairs = []

        def counted(graph, a, b, **kwargs):
            pairs.append((a, b))
            return check_prop1(graph, a, b, **kwargs)

        monkeypatch.setattr(scan_module, "check_prop1", counted)
        res = analyze_one(cycle_graph(5))
        assert len(pairs) == len(set(pairs)) == 10
        assert all(t["verdicts"]["prop1"] == [HOLDS] * 3 for t in res["triples"])

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
