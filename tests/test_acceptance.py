"""Acceptance criteria for the whole toolkit.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all
even on success). The criteria pin exact values: exhaustive scans must be
violation-free, enumeration must match the unpruned oracle set-exactly,
the subdivision checks must hold with equality, and reports must be byte
deterministic across parallelism settings.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import corpus, corpus_up_to, enumerate_all_simple_paths, petersen_family
from gallai.cli import main
from gallai.graphs import parse_graph6, to_graph6
from gallai.paths import enumerate_longest_paths
from gallai.scan import ScanConfig, TripleRows, emit_report, scan, subdivision_sweep

EXPECTED_CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

# SHA-256 of reports that must stay byte-identical while the code beneath
# them changes. Re-pin only with a deliberate change of report content.
GOLDEN_DIGESTS = {
    "scan --n 7 json": "e7707ecf13834bed882274a2f515def9893ca839ae1393270b98f14b4ed99694",
    "scan --n 7 csv": "85afd37057c2b0f0590ba09176a9db2f1bd07ac0f30c416d901a73cdae759dbb",
    # The CLI's default checks over all 11,117 graphs on eight vertices.
    "scan --n 8 json": "39a90f6586178ef1faa822835cd634922d76562875d37d1158ea057c18351e4d",
    "scan --n 8 csv": "002b90167952cefc4ce29671a0d41e9e9be1753450823aa859a3653b8bd459cf",
    "verify-prop --n 4 --t 1,2": "eefc30e94533f74862e0a577219dc75959fdc8460efb62086d7cfd3122a32ce3",
    "verify-prop --n 5 --t 1,2": "6a66f221e6f157325ef988f230c5ba16a0b5d215682cf112629c409d94f8b774",
    # The per-verdict witnesses, which the --n summaries do not carry.
    "verify-prop --input <n <= 5> --t 0,1,2 --triple-cap 40":
        "9891fa7d4bbc0f744e8b218ce8ce7eb69528a9dae62776885b4aeda8278a0c96",
    # The per-triple parameters: f, witnesses, x_sizes, t_counts and
    # pairwise_sizes, under both crossing conventions.
    "analyze --input <n <= 5> --t 1,2 --triple-cap 300":
        "cd7700d289db7551489675e195b084dc6f3e22c107c2c59354f06eeb7d2a8aea",
    "analyze --input <n <= 5> --triple-cap 300 --strict-t-convention":
        "34eb9eed8ac75f62bec515326f1d34662c6f4dc33107831a6892f825b6adace4",
    # Every connected 6-vertex graph: many triples over few triples of
    # path masks and crossing counts.
    "analyze --input <n = 6> --triple-cap 300":
        "af86f1bd04c61d899827263d39bf3f17743a122f1d868708383f801529c5e23b",
    # A Gallai-free graph: 42 longest paths whose 11,480 triples have
    # nonzero exclusive counts.
    "analyze --input KhAAPWU_?_@?":
        "dba43bc5cba3549fcd7eb7168bc59e3daec7803b08068f9b124396f72cf88821",
    # Every triple entry of the Gallai-free graph read back from its rows,
    # one line each, by the text report.
    "analyze --input KhAAPWU_?_@? --format text":
        "dbbf71f3d74460f48f0f39d83c504f915da94c22f55e1f830b404a6712dad359",
    # Every verdict row; "BW" has one longest path and no triples, so its
    # empty verdict list is written as [].
    "verify-prop --input BW,Bw,Fs?GG --t 1,2":
        "618e447474b54c364e2a242eb1089ee850d27f0f3e8b07d5e0346b8f9a7069a7",
    # The built instances: extended and subdivided graphs, lifted paths.
    "subdivide --input <n <= 5> --t 2 --triple 3":
        "e406e0f74bc6ed37eeae3f14ab81558f959a68790982eb1493ffcbc0ea77c0ff",
    # The only checked-in input that reaches the scan's triple loop: the
    # Gallai-free graph's 11,480 triples, tallied per claim and status.
    "scan --input KhAAPWU_?_@?":
        "e9467ca77cd927760206805626adec688feade9b43504cf3c9565e2a1eaeb075",
    # The only checked-in input on which the scan's subdivision fold runs:
    # 300 triples and 341 pairs, all holding.
    "scan --input KhAAPWU_?_@? --t 1 --triple-cap 300":
        "8f36d685625bc3f7b99c41fdf4135cf5c61bb3760ba160ad32fdefec9725f2ef",
    # Subdivided graphs of about 41 vertices, built from the Gallai-free
    # graph: all 300 verdicts hold.
    "verify-prop --input KhAAPWU_?_@? --t 1 --triple-cap 300":
        "ef84e7b1fd68836110a5b4122b75a85ee3f034e90f84813394ca82fec3744dbd",
    # A Gallai-free graph of 72 longest paths over many path masks,
    # petersen_family(s=3): the cap ends inside path pair (1, 9)'s block.
    "analyze --input QhAAPWU_??_BC???_?WO???C??W --triple-cap 3000":
        "5c135ca2b8056758f2879e38fd5158d8e8154ab62c55fba93aec3fb4c418b54b",
    "analyze --input QhAAPWU_??_BC???_?WO???C??W --triple-cap 3000 --t 1":
        "d4d1de258d4851eb3b5f785e5e51f1fd53563cd9dd2ba73536060288ceca55c0",
    "scan --input QhAAPWU_??_BC???_?WO???C??W --triple-mode capped --triple-cap 3000":
        "01204ec6c441a510aab0a68f083b2ff8d4b03267610a2a1853831e842955f8b8",
}


def _verdict(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def subdivision_sweep_n5():
    return subdivision_sweep(5, (0, 1, 2))


def _claim_violations(result: dict, claim: str) -> list[dict]:
    return [v for v in result["violations"] if v["claim"] == claim]


# The checks of the "scan --n 7" reports in GOLDEN_DIGESTS.
SCAN_N7_CHECKS = ("prop1", "conj_Z", "lemma21", "lemma22", "lemma23", "thm1", "case_bounds",
                  "conj4")


@pytest.fixture(scope="module")
def full_scan_report():
    return scan(ScanConfig(generate_n=7, checks=SCAN_N7_CHECKS, jobs=1))


def test_criterion_1_exhaustive_scan(full_scan_report):
    report = full_scan_report
    ok = (
        len(report.records) == sum(EXPECTED_CONNECTED_COUNTS.values())
        and report.violations == []
        and not report.internal_violation
        and report.exit_code == 0
        and report.wall_time_s <= 600.0
    )
    # Every graph with at least three longest paths must have taken the
    # common-vertex shortcut at these sizes.
    for rec in report.records:
        if rec.num_longest is not None and rec.num_longest >= 3:
            ok = ok and rec.status == "shortcut"
        else:
            ok = ok and rec.status == "vacuous"
    _verdict(
        1,
        f"scan of all {len(report.records)} connected graphs up to n=7 is "
        f"violation-free with exit 0 in {report.wall_time_s:.1f}s",
        ok,
    )


def test_criterion_2_oracle_equivalence():
    graphs = corpus_up_to(6)
    mismatches = 0
    for g in graphs:
        lp = enumerate_longest_paths(g)
        everything = enumerate_all_simple_paths(g)
        best = max(p.length for p in everything)
        expected = sorted(p for p in everything if p.length == best)
        if lp.truncated or lp.length != best or list(lp.paths) != expected:
            mismatches += 1
    _verdict(
        2,
        f"pruned enumeration equals the unpruned oracle set-exactly on all "
        f"{len(graphs)} connected graphs up to n=6 "
        f"({mismatches} discrepancies)",
        len(graphs) == 143 and mismatches == 0,
    )


def test_criterion_3_subdivision_proposition(subdivision_sweep_n5):
    result = subdivision_sweep_n5
    ok = (
        _claim_violations(result, "subdivision_prop") == []
        and result["skipped"] == 0
        and result["instances"] > 0
        and result["worst_instance_s"] <= 60.0
    )
    _verdict(
        3,
        f"lifted paths stay longest and the minimum distance sum scales by "
        f"t+1 on all {result['instances']} (graph, triple, t) instances up "
        f"to n=5 (worst instance {result['worst_instance_s']:.2f}s)",
        ok,
    )


def test_criterion_4_generator_counts():
    counts = {n: len(corpus(n)) for n in range(1, 8)}
    _verdict(
        4,
        f"connected-graph generator yields {counts} (expected "
        f"{EXPECTED_CONNECTED_COUNTS})",
        counts == EXPECTED_CONNECTED_COUNTS,
    )


def test_criterion_5_graph6_bit_exactness():
    hand_vectors = {
        "Bg": [(0, 1), (1, 2)],
        "B?": [],
        "A_": [(0, 1)],
    }
    ok = True
    for record, edges in hand_vectors.items():
        g = parse_graph6(record)
        ok = ok and g.edges() == edges and to_graph6(g) == record
    total = 0
    for g in corpus_up_to(7):
        total += 1
        rec = to_graph6(g)
        ok = ok and parse_graph6(rec) == g and to_graph6(parse_graph6(rec)) == rec
    _verdict(
        5,
        f"graph6 round-trips byte-exactly on {total} generated graphs plus "
        f"the three hand-encoded records",
        ok and total == 996,
    )


def test_criterion_6_size_bounds(subdivision_sweep_n5):
    result = subdivision_sweep_n5
    ok = _claim_violations(result, "size_bound") == [] and result["instances"] > 0
    _verdict(
        6,
        f"restricted unions stay within 3(n0-1) edges and subdivided "
        f"instances within n0+3(n0+1)t+6 vertices on all "
        f"{result['instances']} instances up to n=5",
        ok,
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_report_digests(full_scan_report, capsys, tmp_path):
    capsys.readouterr()
    code = main(["verify-prop", "--n", "4", "--t", "1,2"])
    verify_n4 = capsys.readouterr().out
    assert main(["verify-prop", "--n", "5", "--t", "1,2"]) == 0
    verify_n5 = capsys.readouterr().out
    # The same 31 lines as ``gen --n 1`` to ``gen --n 5`` concatenated.
    corpus_file = tmp_path / "n5.g6"
    corpus_file.write_text("".join(to_graph6(g) + "\n" for g in corpus_up_to(5)))
    code_input = main(["verify-prop", "--input", str(corpus_file), "--t", "0,1,2",
                       "--triple-cap", "40"])
    verify_input = capsys.readouterr().out
    free_file = tmp_path / "gallai_free.g6"
    free_file.write_text("KhAAPWU_?_@?\n")
    n6_file = tmp_path / "n6.g6"
    n6_file.write_text("".join(to_graph6(g) + "\n" for g in corpus(6)))
    analyze_runs = {
        "analyze --input <n <= 5> --t 1,2 --triple-cap 300":
            [str(corpus_file), "--t", "1,2", "--triple-cap", "300"],
        "analyze --input <n <= 5> --triple-cap 300 --strict-t-convention":
            [str(corpus_file), "--triple-cap", "300", "--strict-t-convention"],
        "analyze --input <n = 6> --triple-cap 300": [str(n6_file), "--triple-cap", "300"],
        "analyze --input KhAAPWU_?_@?": [str(free_file)],
        "analyze --input KhAAPWU_?_@? --format text": [str(free_file), "--format", "text"],
    }
    analyze_digests = {}
    for name, argv in analyze_runs.items():
        assert main(["analyze", "--input", *argv]) == 0
        analyze_digests[name] = _sha256(capsys.readouterr().out)
    rows_file = tmp_path / "rows.g6"
    rows_file.write_text("BW\nBw\nFs?GG\n")
    assert main(["verify-prop", "--input", str(rows_file), "--t", "1,2"]) == 0
    verify_rows = capsys.readouterr().out
    assert main(["scan", "--input", str(free_file)]) == 0
    scan_free = capsys.readouterr().out
    assert main(["scan", "--input", str(free_file), "--t", "1", "--triple-cap", "300"]) == 0
    scan_free_t = capsys.readouterr().out
    assert main(["subdivide", "--input", str(corpus_file), "--t", "2", "--triple", "3"]) == 0
    subdivide_out = capsys.readouterr().out
    assert main(["verify-prop", "--input", str(free_file), "--t", "1",
                 "--triple-cap", "300"]) == 0
    verify_free = capsys.readouterr().out
    petersen_file = tmp_path / "petersen_s3.g6"
    petersen_file.write_text(to_graph6(petersen_family(s=3)) + "\n")
    petersen_runs = {
        "analyze --input QhAAPWU_??_BC???_?WO???C??W --triple-cap 3000":
            ["analyze", "--input", str(petersen_file), "--triple-cap", "3000"],
        "analyze --input QhAAPWU_??_BC???_?WO???C??W --triple-cap 3000 --t 1":
            ["analyze", "--input", str(petersen_file), "--triple-cap", "3000", "--t", "1"],
        "scan --input QhAAPWU_??_BC???_?WO???C??W --triple-mode capped --triple-cap 3000":
            ["scan", "--input", str(petersen_file), "--triple-mode", "capped",
             "--triple-cap", "3000"],
    }
    petersen_digests = {}
    for name, argv in petersen_runs.items():
        assert main(argv) == 0
        petersen_digests[name] = _sha256(capsys.readouterr().out)
    scan_n8 = scan(ScanConfig(generate_n=8))
    digests = {
        "scan --n 7 json": _sha256(emit_report(full_scan_report, "json")),
        "scan --n 7 csv": _sha256(emit_report(full_scan_report, "csv")),
        "scan --n 8 json": _sha256(emit_report(scan_n8, "json")),
        "scan --n 8 csv": _sha256(emit_report(scan_n8, "csv")),
        "verify-prop --n 4 --t 1,2": _sha256(verify_n4),
        "verify-prop --n 5 --t 1,2": _sha256(verify_n5),
        "verify-prop --input <n <= 5> --t 0,1,2 --triple-cap 40": _sha256(verify_input),
        **analyze_digests,
        **petersen_digests,
        "scan --input KhAAPWU_?_@?": _sha256(scan_free),
        "scan --input KhAAPWU_?_@? --t 1 --triple-cap 300": _sha256(scan_free_t),
        "subdivide --input <n <= 5> --t 2 --triple 3": _sha256(subdivide_out),
        "verify-prop --input KhAAPWU_?_@? --t 1 --triple-cap 300": _sha256(verify_free),
        "verify-prop --input BW,Bw,Fs?GG --t 1,2": _sha256(verify_rows),
    }
    assert code == code_input == 0
    assert digests == GOLDEN_DIGESTS


def test_json_reports_build_no_row_dict(capsys, tmp_path, monkeypatch):
    # A triple row's dict is built only for a reader of the rows: the JSON
    # of analyze and verify-prop --input is written from the rows' indices
    # and the per-group text alone, so it keeps its digest with no row dict
    # to build, and only the text report, which reads the rows, fails.
    corpus_file = tmp_path / "n5.g6"
    corpus_file.write_text("".join(to_graph6(g) + "\n" for g in corpus_up_to(5)))
    free_file = tmp_path / "gallai_free.g6"
    free_file.write_text("KhAAPWU_?_@?\n")
    rows_file = tmp_path / "rows.g6"
    rows_file.write_text("BW\nBw\nFs?GG\n")
    free_t = ["analyze", "--input", str(free_file), "--t", "1,2", "--triple-cap", "300"]
    assert main(free_t) == 0
    free_t_out = capsys.readouterr().out
    runs = {
        "analyze --input <n <= 5> --t 1,2 --triple-cap 300":
            ["analyze", "--input", str(corpus_file), "--t", "1,2", "--triple-cap", "300"],
        "analyze --input <n <= 5> --triple-cap 300 --strict-t-convention":
            ["analyze", "--input", str(corpus_file), "--triple-cap", "300",
             "--strict-t-convention"],
        "analyze --input KhAAPWU_?_@?": ["analyze", "--input", str(free_file)],
        "verify-prop --input BW,Bw,Fs?GG --t 1,2":
            ["verify-prop", "--input", str(rows_file), "--t", "1,2"],
        "verify-prop --input <n <= 5> --t 0,1,2 --triple-cap 40":
            ["verify-prop", "--input", str(corpus_file), "--t", "0,1,2", "--triple-cap", "40"],
    }

    def refuse(self, row):
        raise AssertionError("a row dict was built")

    monkeypatch.setattr(TripleRows, "_row", refuse)
    for name, argv in runs.items():
        assert main(argv) == 0
        assert _sha256(capsys.readouterr().out) == GOLDEN_DIGESTS[name], name
    # The Gallai-free graph with --t has no digest: the unpatched run is the reference.
    assert main(free_t) == 0
    assert capsys.readouterr().out == free_t_out
    with pytest.raises(AssertionError, match="a row dict was built"):
        main(["analyze", "--input", str(free_file), "--format", "text"])


def test_cold_start_loads_csv_only_to_write_csv():
    # A cold CLI call pays for every module it imports: gallai.cli loads no
    # dataclasses (nor the inspect chain under it) and no csv, and a scan
    # with its JSON report loads neither; writing CSV loads csv, and the
    # CSV report keeps its golden digest.
    root = Path(__file__).resolve().parents[1]
    script = (
        "import hashlib, sys\n"
        "before = set(sys.modules)\n"
        "def loaded():\n"
        "    return sorted({'csv', 'dataclasses', 'inspect'} & (set(sys.modules) - before))\n"
        "import gallai.cli\n"
        "from gallai.scan import ScanConfig, emit_report, scan\n"
        "print(loaded())\n"
        f"report = scan(ScanConfig(generate_n=7, checks={SCAN_N7_CHECKS!r}))\n"
        "emit_report(report, 'json')\n"
        "print(loaded())\n"
        "print(hashlib.sha256(emit_report(report, 'csv').encode('utf-8')).hexdigest())\n"
        "print(loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", GOLDEN_DIGESTS["scan --n 7 csv"], "['csv']"]


def test_criterion_7_parallel_determinism(full_scan_report):
    serial_json = emit_report(full_scan_report, "json")
    parallel = scan(ScanConfig(generate_n=7, jobs=8))
    parallel_json = emit_report(parallel, "json")
    identical = serial_json == parallel_json
    # Sanity: the comparison is over real content.
    payload = json.loads(serial_json)
    ok = identical and payload["summary"]["graphs"] == 996
    _verdict(
        7,
        "scan reports with --jobs 1 and --jobs 8 are byte-identical JSON",
        ok,
    )
