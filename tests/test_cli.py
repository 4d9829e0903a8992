"""Command-line interface: subcommands, formats, and exit codes."""

import copy
import hashlib
import importlib
import io
import json
import os
import pickle
import subprocess
import contextlib
import stat
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gallai.subdivision as subdivision
from conftest import (
    complete_graph,
    corpus_up_to,
    cycle_graph,
    random_graphs,
    star_graph,
    within_seconds,
)
from gallai.claims import HOLDS, SKIPPED_BUDGET, VIOLATED, ClaimVerdict
from gallai.cli import main
from gallai.graphs import format_edge_list, parse_edge_list, parse_graph6, to_graph6
from gallai.paths import Path as GraphPath, enumerate_longest_paths
from gallai.scan import report_json
from gallai.triples import TripleStream

cli = importlib.import_module("gallai.cli")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 21
        assert all(parse_graph6(line).n == 5 for line in lines)

    def test_sorted_output(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "4")
        lines = out.strip().splitlines()
        assert lines == sorted(lines)

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "c4.g6"
        code, out, _ = run(capsys, "gen", "--n", "4", "--out", str(target))
        assert code == 0
        assert out == ""
        assert len(target.read_text().splitlines()) == 6

    def test_out_overwrites_a_longer_file_in_place(self, tmp_path, capsys):
        _, report, _ = run(capsys, "gen", "--n", "4")
        target = tmp_path / "c4.g6"
        target.write_text("x" * 10 * len(report))
        target.chmod(0o640)
        before = target.stat()
        code, out, _ = run(capsys, "gen", "--n", "4", "--out", str(target))
        assert (code, out) == (0, "")
        assert target.read_text() == report
        after = target.stat()
        assert after.st_ino == before.st_ino
        assert stat.S_IMODE(after.st_mode) == 0o640

    def test_out_through_a_symlink(self, tmp_path, capsys):
        _, report, _ = run(capsys, "gen", "--n", "4")
        target, link = tmp_path / "c4.g6", tmp_path / "link.g6"
        target.write_text("old report\n" * 100)
        link.symlink_to(target.name)
        code, _, _ = run(capsys, "gen", "--n", "4", "--out", str(link))
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_text() == report

    def test_new_out_file_gets_the_mode_of_open(self, tmp_path, capsys):
        reference = tmp_path / "reference"
        open(reference, "w").close()  # the mode the current umask gives
        target = tmp_path / "c4.g6"
        code, _, _ = run(capsys, "gen", "--n", "4", "--out", str(target))
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)

    def test_out_dev_null(self, capsys):
        # Not a regular file, so the writer does not truncate it.
        code, out, err = run(capsys, "gen", "--n", "4", "--out", os.devnull)
        assert (code, out, err) == (0, "", "")

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "12")
        assert code == 4
        assert "1..8" in err


class TestScan:
    def test_generated_corpus_json(self, capsys):
        code, out, _ = run(capsys, "scan", "--n", "4", "--checks", "all")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["graphs"] == 10
        assert payload["summary"]["violations"] == 0

    def test_input_file(self, tmp_path, capsys):
        src = tmp_path / "in.g6"
        src.write_text("Bg\nBw\n")
        code, out, _ = run(capsys, "scan", "--input", str(src), "--format", "text")
        assert code == 0
        assert "graphs scanned: 2" in out

    def test_edgelist_input(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("4 3\n0 1\n0 2\n0 3\n")
        code, out, _ = run(
            capsys, "scan", "--input", str(src), "--input-format", "edgelist"
        )
        assert code == 0
        assert json.loads(out)["graphs"][0]["graph6"] == to_graph6(star_graph(3))

    def test_subset_of_checks(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--n", "4", "--checks", "conj_Z,thm1",
            "--triple-mode", "all",
        )
        assert code == 0
        payload = json.loads(out)
        checked = [g for g in payload["graphs"] if g["status"] == "checked"]
        assert checked
        for g in checked:
            assert set(g["tallies"]) <= {"conj_Z", "thm1"}

    def test_unknown_check_rejected(self, capsys):
        code, _, err = run(capsys, "scan", "--n", "4", "--checks", "lemma99")
        assert code == 4
        assert "lemma99" in err

    @pytest.mark.parametrize("repeat, other", [
        (("--checks", "thm1,thm1"), ("--t", "1")),
        (("--t", "1,1"), ("--checks", "thm1")),
    ], ids=["checks", "t"])
    def test_repeat_rejected(self, tmp_path, capsys, repeat, other):
        # Counted twice, a repeat would double K5's tallies over its 2 triples.
        src = tmp_path / "k5.g6"
        src.write_text("D~{\n")
        code, out, err = run(capsys, "scan", "--input", str(src), "--triple-mode", "capped",
                             "--triple-cap", "2", *repeat, *other)
        assert code == 4
        assert out == ""
        assert f"argument {repeat[0]}:" in err

    def test_missing_source_rejected(self, capsys):
        code, _, _ = run(capsys, "scan")
        assert code == 4

    def test_missing_file_gives_config_error(self, capsys):
        code, _, err = run(capsys, "scan", "--input", "/nope/missing.g6")
        assert code == 4
        assert "error" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "scan", "--n", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("graph6,")

    def test_jobs_flag_byte_identical(self, capsys):
        code1, out1, _ = run(capsys, "scan", "--n", "4", "--jobs", "1")
        code2, out2, _ = run(capsys, "scan", "--n", "4", "--jobs", "3")
        assert code1 == code2 == 0
        assert out1 == out2


class TestAnalyze:
    def test_star_json(self, tmp_path, capsys):
        src = tmp_path / "star.g6"
        src.write_text(to_graph6(star_graph(3)) + "\n")
        code, out, _ = run(capsys, "analyze", "--input", str(src), "--t", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["l"] == 2
        assert payload[0]["gallai_vertices"] == [0]
        assert payload[0]["triples"][0]["subdivision"]["1"]["subdivision_prop"] == "holds"

    def test_text_format(self, tmp_path, capsys):
        src = tmp_path / "star.g6"
        src.write_text(to_graph6(star_graph(3)) + "\n")
        code, out, _ = run(
            capsys, "analyze", "--input", str(src), "--format", "text"
        )
        assert code == 0
        assert "l=2" in out

    # SHA-256 of the whole text rendering, one line per triple with its
    # paths, f, crossing counts and exclusive counts.
    TEXT_DIGESTS = {
        "n <= 5": "c0bd5f32a910a2dfa792567a500c87a3ca06b65965db0bb2f290ab49ec43c652",
        "KhAAPWU_?_@?": "f6b53b4d684589df207c9b05233aac15a18a38c2183b6ddf8fedce151f3b8044",
    }

    @pytest.mark.parametrize("name", sorted(TEXT_DIGESTS))
    def test_text_format_is_pinned(self, name, tmp_path, capsys):
        src = tmp_path / "graphs.g6"
        lines = ["KhAAPWU_?_@?"] if name == "KhAAPWU_?_@?" else map(to_graph6, corpus_up_to(5))
        src.write_text("".join(line + "\n" for line in lines))
        code, out, _ = run(capsys, "analyze", "--input", str(src), "--format", "text",
                           "--triple-cap", "300")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.TEXT_DIGESTS[name]

    def test_strict_convention_flag(self, tmp_path, capsys):
        src = tmp_path / "star.g6"
        src.write_text(to_graph6(star_graph(3)) + "\n")
        code, out, _ = run(
            capsys, "analyze", "--input", str(src), "--strict-t-convention"
        )
        payload = json.loads(out)
        assert payload[0]["strict_crossings"] is True
        assert payload[0]["triples"][0]["t_counts"] == [0, 0, 0]


    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_triple_cap_below_one_rejected(self, tmp_path, capsys, cap):
        src = tmp_path / "star.g6"
        src.write_text(to_graph6(star_graph(3)) + "\n")
        code, out, err = run(capsys, "analyze", "--input", str(src), "--triple-cap", cap)
        assert code == 4
        assert out == ""
        assert "--triple-cap" in err


class TestSubdivide:
    def test_star_instance(self, tmp_path, capsys):
        src = tmp_path / "star.g6"
        src.write_text(to_graph6(star_graph(3)) + "\n")
        code, out, _ = run(capsys, "subdivide", "--input", str(src), "--t", "1")
        assert code == 0
        payload = json.loads(out)[0]
        assert payload["status"] == "ok"
        assert payload["subdivided"]["n"] == 13
        assert payload["provenance_counts"] == {
            "original": 4,
            "pendant": 3,
            "subdivision": 6,
        }
        rebuilt = parse_graph6(payload["subdivided"]["graph6"])
        assert rebuilt.m == 12

    def test_edgelist_output(self, tmp_path, capsys):
        src = tmp_path / "star.g6"
        src.write_text(to_graph6(star_graph(3)) + "\n")
        code, out, _ = run(
            capsys, "subdivide", "--input", str(src), "--t", "2",
            "--format", "edgelist",
        )
        assert code == 0
        rebuilt = parse_edge_list(out)
        assert rebuilt.n == 7 + 2 * 6

    def test_triple_index_on_k6(self, tmp_path, capsys):
        # K6 has 360 longest paths and so 7711320 triples, too many to list.
        src = tmp_path / "k6.g6"
        src.write_text(to_graph6(complete_graph(6)) + "\n")
        last = [list(p.vertices) for p in enumerate_longest_paths(complete_graph(6)).paths[-3:]]
        for index, status in (("0", "ok"), ("7711319", "ok"), ("7711320", "vacuous")):
            code, out, _ = run(
                capsys, "subdivide", "--input", str(src), "--t", "0", "--triple", index
            )
            assert code == 0
            payload = json.loads(out)[0]
            assert payload["status"] == status
        assert payload["triples_total"] == 7711320
        code, out, _ = run(
            capsys, "subdivide", "--input", str(src), "--t", "0", "--triple", "7711319"
        )
        assert json.loads(out)[0]["triple"] == last

    def test_truncated_graph_is_skipped(self, tmp_path, capsys):
        # K9 has 181440 longest paths, over the default cap of 100000, so its
        # table lists none: triple 99998 is not vacuous, but unknown.
        src = tmp_path / "k9.g6"
        src.write_text(to_graph6(complete_graph(9)) + "\n")
        argv = ("subdivide", "--input", str(src), "--t", "0", "--triple", "99998")
        code, out, _ = within_seconds(20, lambda: run(capsys, *argv))
        assert code == 0
        assert json.loads(out) == [{"graph6": "H~~~~~~", "status": "skipped_truncated"}]
        code, out, _ = within_seconds(20, lambda: run(capsys, *argv, "--format", "edgelist"))
        assert code == 0
        assert out == "# H~~~~~~: skipped_truncated\n"

    def test_vacuous_when_too_few_triples(self, tmp_path, capsys):
        src = tmp_path / "path.g6"
        src.write_text("Bg\n")
        code, out, _ = run(capsys, "subdivide", "--input", str(src), "--t", "1")
        assert code == 0
        assert json.loads(out)[0]["status"] == "vacuous"

    def test_disconnected_graph_reported(self, tmp_path, capsys):
        # A claw plus a P3 has no distance sums to scale; it is reported,
        # as verify-prop reports it, and the next graph is still built.
        src = tmp_path / "mixed.g6"
        src.write_text("Fs?GG\n" + to_graph6(star_graph(3)) + "\n")
        code, out, _ = run(capsys, "subdivide", "--input", str(src), "--t", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload[0] == {"graph6": "Fs?GG", "status": "disconnected"}
        assert payload[1]["status"] == "ok"
        code, out, _ = run(
            capsys, "subdivide", "--input", str(src), "--t", "1", "--format", "edgelist"
        )
        assert code == 0
        assert out.startswith("# Fs?GG: disconnected\n")


class TestVerifyProp:
    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "verify-prop", "--n", "4", "--t", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == []
        assert payload["instances"] > 200

    def test_sweep_output_is_byte_deterministic(self, capsys):
        code1, out1, err1 = run(capsys, "verify-prop", "--n", "4", "--t", "1")
        code2, out2, _ = run(capsys, "verify-prop", "--n", "4", "--t", "1")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "worst_instance_s" not in json.loads(out1)
        assert "slowest instance" in err1

    def test_single_graph(self, tmp_path, capsys):
        src = tmp_path / "star.g6"
        src.write_text(to_graph6(star_graph(3)) + "\n")
        code, out, _ = run(
            capsys, "verify-prop", "--input", str(src), "--t", "1,2"
        )
        assert code == 0
        payload = json.loads(out)
        statuses = {v["status"] for v in payload[0]["verdicts"]}
        assert statuses == {"holds"}

    def test_disconnected_graph_is_reported(self, tmp_path, capsys):
        # A claw plus a P3 has no distance sums; it must not cost the
        # other graphs their verdicts.
        src = tmp_path / "mixed.g6"
        src.write_text(to_graph6(star_graph(3)) + "\nFs?GG\n")
        code, out, _ = run(capsys, "verify-prop", "--input", str(src), "--t", "1")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 2
        assert {v["status"] for v in payload[0]["verdicts"]} == {"holds"}
        assert "status" not in payload[0]
        assert payload[1] == {"graph6": "Fs?GG", "status": "disconnected", "verdicts": []}

    def test_truncated_graph_gets_one_record(self, tmp_path, capsys):
        # K9's table stops past the cap and lists no triple; one record says
        # so, and the next graph still gets its verdicts.
        src = tmp_path / "k9.g6"
        src.write_text(to_graph6(complete_graph(9)) + "\n" + to_graph6(star_graph(3)) + "\n")
        code, out, _ = within_seconds(
            20, lambda: run(capsys, "verify-prop", "--input", str(src), "--t", "1"))
        assert code == 0
        payload = json.loads(out)
        assert payload[0] == {"graph6": "H~~~~~~", "status": "skipped_truncated", "verdicts": []}
        assert {v["status"] for v in payload[1]["verdicts"]} == {"holds"}

    def test_verdict_rows_match_the_standard_encoder(self, tmp_path, monkeypatch):
        # The verdict lists are written by their own rows. Scripted verdicts
        # give an empty list (a disconnected graph, a path), one holds
        # verdict with one witness at t = 1 and 2, violated verdicts and
        # skipped_budget ones; the standard library's indenting encoder
        # is the reference.
        holds = ClaimVerdict("subdivision_prop", HOLDS, {"base_f": 0, "lifted_longest": [True]})
        calls, returned = iter(range(10**6)), {}

        def scripted(subdivisions, triple, t):
            kind = next(calls) // 2 % 4
            paths = [list(p.vertices) for p in triple.paths]
            v = holds if kind < 2 else ClaimVerdict(
                "subdivision_prop", VIOLATED if kind == 2 else SKIPPED_BUDGET,
                {"t": t, "paths": paths} if kind == 2 else {"vertices": 99, "max_vertices": 60})
            returned.setdefault(to_graph6(subdivisions.graph), []).append(
                {"t": t, "paths": paths, "status": v.status, "witness": v.witness})
            return v

        kept, real = [], cli.report_chunks

        def keeping(records, pad=""):
            kept.extend(records)
            return real(kept, pad)

        monkeypatch.setattr(cli, "verify_proposition", scripted)
        monkeypatch.setattr(cli, "report_chunks", keeping)
        graphs = ["Fs?GG", "Bg", to_graph6(cycle_graph(5)), to_graph6(star_graph(3))]
        src, out = tmp_path / "in.g6", tmp_path / "out.json"
        src.write_text("\n".join(graphs) + "\n")
        assert main(["verify-prop", "--input", str(src), "--t", "1,2", "--out", str(out)]) == 3
        expected = [{"graph6": "Fs?GG", "status": "disconnected", "verdicts": []},
                    *({"graph6": g, "verdicts": returned.get(g, [])} for g in graphs[1:])]
        assert kept == expected
        assert out.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"
        first, second = kept[2]["verdicts"][:2]
        assert (first["t"], second["t"]) == (1, 2) and first["witness"] is second["witness"]
        assert len(kept[2]["verdicts"]) == 20 and len(kept[3]["verdicts"]) == 2
        for copied in (copy.deepcopy(kept[2]), pickle.loads(pickle.dumps(kept[2]))):
            assert type(copied["verdicts"]) is list and copied == kept[2]
            copied["verdicts"][0]["status"] = "edited"
            copied["verdicts"][1]["paths"][0] = [0]
            assert report_json(copied) == json.dumps(copied, indent=2, sort_keys=True)

    def test_each_subdivided_graph_searched_once(self, tmp_path, capsys, monkeypatch):
        # K4's 220 triples share 5 end sets, so 10 (end set, t) graphs, each
        # length-searched once and none of them enumerated.
        g = complete_graph(4)
        src = tmp_path / "k4.g6"
        src.write_text(to_graph6(g) + "\n")
        searched = []
        real = subdivision.subdivided_length

        def counting(graph, t, *args, **kwargs):
            searched.append((graph, t))
            return real(graph, t, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("enumerated a subdivided graph")

        monkeypatch.setattr(subdivision, "subdivided_length", counting)
        monkeypatch.setattr(subdivision, "enumerate_longest_paths", refuse)
        code, out, _ = run(capsys, "verify-prop", "--input", str(src), "--t", "1,2")
        assert code == 0
        triples = TripleStream(enumerate_longest_paths(g))
        end_sets = {frozenset(e for p in tr.paths for e in p.ends) for tr in triples}
        assert len(searched) == len(set(searched)) == 2 * len(end_sets) == 10
        assert len(json.loads(out)[0]["verdicts"]) == 2 * triples.total

    def test_bad_t_rejected(self, capsys):
        code, _, _ = run(capsys, "verify-prop", "--n", "4", "--t", "x")
        assert code == 4

    def test_repeated_t_rejected(self, capsys):
        code, out, err = run(capsys, "verify-prop", "--n", "3", "--t", "1,1")
        assert code == 4
        assert out == ""
        assert "--t" in err

    def test_large_sweep_requires_cap(self, capsys):
        code, _, err = run(capsys, "verify-prop", "--n", "6", "--t", "1")
        assert code == 4
        assert "triple-cap" in err

    def test_capped_sweep(self, capsys):
        code, out, _ = run(
            capsys, "verify-prop", "--n", "5", "--t", "1", "--triple-cap", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == []
        assert payload["triples_skipped"] > 0


@pytest.mark.parametrize("command", ["scan", "analyze"])
def test_malformed_input_names_its_line(tmp_path, capsys, command):
    src = tmp_path / "bad.g6"
    src.write_text("Bg\nBw\nZab\n")
    code, out, err = run(capsys, command, "--input", str(src))
    assert code == 4
    assert out == ""
    assert f"{src}: line 3: " in err


@pytest.mark.parametrize("command", ["scan", "analyze"])
def test_malformed_edge_list_names_its_line(tmp_path, capsys, command):
    src = tmp_path / "bad.txt"
    src.write_text("3 2\n0 1\n1 3\n")
    code, out, err = run(capsys, command, "--input", str(src), "--input-format", "edgelist")
    assert code == 4
    assert out == ""
    assert f"{src}: line 3: edge (1, 3) has an endpoint outside 0..2" in err


NON_ASCII_INPUTS = [
    # (format, bytes, line of the bad byte, the byte)
    ("graph6", "Bw\nB\u00e9\n".encode("utf-8"), 2, 0xc3),
    ("edgelist", b"3 2\n0 1\n1 2\n\xff\n", 4, 0xff),
]


@pytest.mark.parametrize("command", [["scan"], ["analyze"], ["verify-prop", "--t", "1"]])
@pytest.mark.parametrize("fmt, data, line, byte", NON_ASCII_INPUTS, ids=["graph6", "edgelist"])
@pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
def test_non_ascii_byte_names_its_line(
    tmp_path, capsys, monkeypatch, command, fmt, data, line, byte, from_stdin
):
    if from_stdin:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        src, where = "-", f"line {line}"
    else:
        src = tmp_path / "bad.txt"
        src.write_bytes(data)
        where = f"{src}: line {line}"
    code, out, err = run(capsys, *command, "--input", str(src), "--input-format", fmt)
    assert (code, out) == (4, "")
    assert err == f"gallai: error: {where}: non-ASCII byte {byte:#04x}\n"


def test_repeated_edge_is_an_input_error(tmp_path, capsys):
    # Read as the one-edge graph B_, this file would be reported
    # "disconnected" with exit 0.
    src = tmp_path / "twice.txt"
    src.write_text("3 2\n0 1\n1 0\n")
    code, out, err = run(capsys, "scan", "--input", str(src), "--input-format", "edgelist")
    assert code == 4
    assert out == ""
    assert f"{src}: line 3: edge (1, 0) is listed twice" in err


@pytest.mark.parametrize(
    "command, expected",
    [
        ("verify-prop", '[\n  {\n    "graph6": "H~~~~~~",\n'
                        '    "status": "skipped_truncated",\n    "verdicts": []\n  }\n]\n'),
        ("subdivide", '[\n  {\n    "graph6": "H~~~~~~",\n'
                      '    "status": "skipped_truncated"\n  }\n]\n'),
    ],
    ids=["verify-prop", "subdivide"],
)
def test_truncated_graph_walks_no_path(tmp_path, capsys, monkeypatch, command, expected):
    # K9's 181440 longest paths are over the default cap: the table stops
    # filling, and the record that says so is written without a path walked.
    walked = []
    real = GraphPath._trusted
    monkeypatch.setattr(
        GraphPath, "_trusted", classmethod(lambda cls, *a: walked.append(a) or real(*a)))
    src = tmp_path / "k9.g6"
    src.write_text("H~~~~~~\n")
    code, out, _ = run(capsys, command, "--input", str(src), "--t", "1")
    assert (code, out, len(walked)) == (0, expected, 0)


@pytest.mark.parametrize("command", ["scan", "analyze"])
def test_deep_path_search_is_a_config_error(tmp_path, capsys, command):
    # A 1,200-vertex path: the search recurses once per path edge, past
    # Python's default limit of 1,000 frames.
    src = tmp_path / "path.txt"
    src.write_text("1200 1199\n" + "".join(f"{i} {i + 1}\n" for i in range(1199)))
    code, out, err = run(capsys, command, "--input", str(src), "--input-format", "edgelist")
    assert code == 4
    assert out == ""
    assert err.startswith("gallai: error: ") and "recursion limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, target", [
    (["analyze"], "analyze_one"),
    (["verify-prop", "--t", "1"], "gated_table"),
])
@pytest.mark.parametrize("to_file", [False, True])
def test_failing_run_writes_nothing(tmp_path, capsys, monkeypatch, command, target, to_file):
    # Records are built and encoded one graph at a time, but the report is
    # written only once every graph has succeeded: here the second fails.
    import gallai.cli as cli

    src = tmp_path / "two.g6"
    src.write_text(to_graph6(complete_graph(4)) + "\n" + to_graph6(star_graph(3)) + "\n")
    real = getattr(cli, target)
    calls = []

    def second_fails(graph, *args, **kwargs):
        calls.append(graph)
        if len(calls) == 2:
            raise ValueError("second graph fails")
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(cli, target, second_fails)
    out_file = tmp_path / "report.json"
    extra = ["--out", str(out_file)] if to_file else []
    code, out, err = run(capsys, *command, "--input", str(src), *extra)
    assert code == 4
    assert len(calls) == 2
    assert out == ""
    assert not out_file.exists()
    assert err == "gallai: error: second graph fails\n"
    if to_file:
        # An earlier report keeps its bytes and its inode.
        earlier = b'[{"earlier": "report"}]\n' * 50
        out_file.write_bytes(earlier)
        inode = out_file.stat().st_ino
        calls.clear()
        code, out, err = run(capsys, *command, "--input", str(src), *extra)
        assert (code, len(calls), out, err) == (4, 2, "", "gallai: error: second graph fails\n")
        assert out_file.read_bytes() == earlier
        assert out_file.stat().st_ino == inode


@pytest.mark.parametrize("command", [["scan"], ["analyze"], ["verify-prop", "--t", "1"]])
def test_huge_edge_list_header_is_a_config_error(tmp_path, capsys, command):
    src = tmp_path / "big.txt"
    src.write_text("2000000000 0")
    code, out, err = within_seconds(0.5, lambda: run(
        capsys, *command, "--input", str(src), "--input-format", "edgelist"))
    assert (code, out) == (4, "")
    assert err == (f"gallai: error: {src}: line 1: edge-list header declares 2000000000 "
                   "vertices, more than the 10000 allowed\n")


@st.composite
def _fuzzed_input(draw):
    """Random bytes, or the text of a few small graphs cut short, in either format."""
    fmt = draw(st.sampled_from(["graph6", "edgelist"]))
    if draw(st.booleans()):
        return fmt, draw(st.binary(max_size=40))
    graphs = draw(st.lists(random_graphs(max_n=7), min_size=1, max_size=3))
    if fmt == "graph6":
        text = "".join(to_graph6(g) + "\n" for g in graphs)
    else:
        text = format_edge_list(graphs[0])
    return fmt, text.encode("ascii")[:draw(st.integers(0, len(text)))]


@settings(max_examples=200, deadline=None)
@given(_fuzzed_input())
def test_fuzzed_input_exits_cleanly(case):
    # Malformed input is a configuration error on one stderr line naming the
    # file, never a traceback (main would let the exception out).
    fmt, data = case
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "fuzz.txt")
        with open(src, "wb") as fh:
            fh.write(data)
        for command in (["scan"], ["analyze", "--triple-cap", "2"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*command, "--input", src, "--input-format", fmt])
            if code == 0:
                assert err.getvalue() == ""
            else:
                assert code == 4
                assert err.getvalue().startswith(f"gallai: error: {src}: ")
                assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


def test_one_skip_vocabulary_across_commands(tmp_path, capsys):
    # Every command starts a graph at one front end, so all four name a
    # disconnected graph and a truncated table (K9's 181,440 longest paths
    # are over the default cap) the same way. P3 has one longest path, and
    # a decided verify-prop record carries verdicts, not a status.
    src = tmp_path / "mixed.g6"
    src.write_text("Fs?GG\nH~~~~~~\nBg\nC~\n")
    skipped = ["disconnected", "skipped_truncated"]
    expected = {
        ("scan",): [*skipped, "vacuous", "shortcut"],
        ("analyze", "--triple-cap", "1"): [*skipped, "vacuous", "checked"],
        ("verify-prop", "--t", "1", "--triple-cap", "1"): [*skipped, None, None],
        ("subdivide", "--t", "1"): [*skipped, "vacuous", "ok"],
    }
    for command, statuses in expected.items():
        code, out, _ = run(capsys, *command, "--input", str(src))
        assert code == 0
        records = json.loads(out)
        records = records["graphs"] if command == ("scan",) else records
        by_graph = {r["graph6"]: r for r in records}
        assert [by_graph[g].get("status") for g in ("Fs?GG", "H~~~~~~", "Bg", "C~")] == statuses
        if command[0] == "verify-prop":
            assert [len(r["verdicts"]) for r in records] == [0, 0, 0, 1]


def test_cli_import_leaves_multiprocessing_unloaded():
    # Worker pools exist only for --jobs > 1; a serial run must not pay for
    # importing multiprocessing (and with it pickle and socket) at start-up.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, gallai.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_benchmark_tracer_installs():
    # perfbench/spans.py replaces functions by name in the modules that call
    # them; a name gone from src/ fails every traced benchmark run.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "from spans import Tracer, install; install(Tracer('t'))"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_traces_verify_prop(tmp_path):
    # A traced verify-prop call passes through the wrapped verify_proposition
    # once per (triple, t) instance and exits cleanly.
    root = Path(__file__).resolve().parents[1]
    src = tmp_path / "k4.g6"
    src.write_text("C~\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    script = (
        "import sys\n"
        "from spans import Tracer, install\n"
        "tracer = Tracer('t')\n"
        "code = install(tracer)(sys.argv[1:])\n"
        "print(code, sum(s[0] == 'subdivision.verify' for s in tracer.spans))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "verify-prop", "--input", str(src), "--t", "1,2",
         "--triple-cap", "5", "--out", str(tmp_path / "out.json")],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "10"]


def test_benchmark_smoke_run_passes():
    # Every workload on a tiny load, its output checked: a src/ change that
    # breaks a workload's output fails here before the benchmark runs.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


class TestParser:
    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 4

    def test_no_command(self, capsys):
        code, _, _ = run(capsys)
        assert code == 4

    @pytest.mark.parametrize("argv, flag", [
        (("gen", "--n", "0"), "--n"),
        (("scan", "--n", "9"), "--n"),
        (("verify-prop", "--n", "9", "--t", "1"), "--n"),
        (("scan", "--n", "3", "--cap", "0"), "--cap"),
        (("scan", "--n", "3", "--jobs", "0"), "--jobs"),
        (("scan", "--n", "3", "--triple-cap", "x"), "--triple-cap"),
        (("verify-prop", "--n", "3", "--t", "1", "--triple-cap", "0"), "--triple-cap"),
        (("subdivide", "--input", "-", "--t", "-1"), "--t"),
        (("subdivide", "--input", "-", "--t", "0", "--triple", "-1"), "--triple"),
    ])
    def test_integer_flag_checked_when_parsed(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert f"argument {flag}:" in err
