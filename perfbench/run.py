"""Benchmark of the gallai CLI: four closed-loop workloads, one call at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each repetition runs ``gallai.cli.main`` once, at ``--jobs 1``, in a fresh
interpreter started by this process, because the program's module-level
caches (``generate._canonical_masks``, ``subdivision._SUBDIV_CACHE`` and
``_LONGEST_CACHE``) are cold on every real CLI run. Repetitions continue
until ``--seconds`` of them have run, and at least two; every value
reported is the median over the repetitions whose output passed its checks.
Times are reported at the machine's reference speed: the call's times are
rescaled by the probes ``rep.py`` runs during it, and set-up time by a bare
interpreter start launched after each set-up sample.

With ``--trace 0`` the last line holds the end-to-end metrics. With
``--trace 1`` untraced and traced repetitions alternate, and the last line
holds the per-layer metrics from the traced ones plus the tracing overhead.
``--smoke`` runs every workload on a tiny load and shows that a corrupted
output is counted as failed. See perfbench/README.md for why each workload
exists and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 2
SETUP_PAIRS = 15
# Median bare start (``rep.py LAUNCH``) on a 2-vCPU Intel Xeon, Python 3.11.7.
BARE_REF_S = 0.066
REP_TIMEOUT_S = 150
GEN_N8_GRAPHS = 11117
GOLDEN = HERE / "golden.json"

# (n, m, longest paths, graphs) for verify_prop. The work of a verify-prop
# sweep is dominated by a few dense graphs, so a G(n, p) draw varies by a
# factor of three from seed to seed; fixing the histogram keeps it within a
# few percent while the seed still picks every labelled graph. n = 6 appears
# only with few longest paths, whose classes differ little in cost.
VERIFY_STRATA = (
    (4, 3, 3, 2), (4, 4, 4, 2), (4, 5, 6, 4), (4, 6, 12, 1),
    (5, 5, 4, 1), (5, 6, 4, 2), (5, 6, 7, 1), (5, 7, 6, 1), (5, 7, 10, 1),
    (5, 7, 14, 1), (5, 8, 18, 1),
    (6, 7, 3, 1), (6, 7, 4, 1), (6, 8, 3, 1), (6, 8, 4, 1),
)
VERIFY_SMOKE_STRATA = ((4, 3, 3, 1), (4, 5, 6, 1), (5, 6, 4, 1), (6, 7, 3, 1))

TRACE_FLOOR = 0.98


# ---------------------------------------------------------------------------
# output checks: each returns the problems found, empty when the output is right
# ---------------------------------------------------------------------------

OK_VERDICTS = {"holds", "vacuous"}


def _bad_statuses(statuses) -> list[str]:
    return sorted({s for s in statuses if s not in OK_VERDICTS})


def check_scan(load: inputs.Load, out: bytes) -> list[str]:
    report = json.loads(out)
    problems = []
    records = report["graphs"]
    if sorted(r["graph6"] for r in records) != sorted(load.lines):
        problems.append(f"{len(records)} records for {len(load.lines)} input graphs")
    if report["summary"]["violations"] or report["violations"]:
        problems.append(f"{report['summary']['violations']} violations")
    statuses = {r["status"] for r in records}
    if statuses - {"shortcut", "vacuous", "checked"}:
        problems.append(f"statuses {sorted(statuses)}")
    tallied = [s for r in records for t in r["tallies"].values() for s in t]
    if _bad_statuses(tallied):
        problems.append(f"verdicts {_bad_statuses(tallied)}")
    return problems


def check_gen(load: inputs.Load, out: bytes, expected: int) -> list[str]:
    lines = out.decode("ascii").splitlines()
    if len(lines) != expected or len(set(lines)) != expected:
        return [f"{len(lines)} lines ({len(set(lines))} distinct), expected {expected}"]
    return []


def check_analyze(load: inputs.Load, out: bytes) -> list[str]:
    records = json.loads(out)
    if [r["graph6"] for r in records] != load.lines:
        return [f"{len(records)} records do not match {len(load.lines)} input graphs"]
    problems = []
    for r, k in zip(records, load.num_longest):
        total = comb(k, 3)
        statuses = [s for t in r.get("triples", []) for v in t["verdicts"].values()
                    for s in (v if isinstance(v, list) else [v])]
        if (r["status"] != "checked" or r["num_longest"] != k
                or r["triples_examined"] != total or len(r["triples"]) != total
                or _bad_statuses(statuses)):
            problems.append(f"{r['graph6']}: status {r['status']}, {r.get('num_longest')} "
                            f"paths (oracle {k}), verdicts {_bad_statuses(statuses)}")
    return problems


def check_verify(load: inputs.Load, out: bytes, ts: int = 2) -> list[str]:
    records = json.loads(out)
    if [r["graph6"] for r in records] != load.lines:
        return [f"{len(records)} records do not match {len(load.lines)} input graphs"]
    problems = []
    for r, k in zip(records, load.num_longest):
        statuses = [v["status"] for v in r["verdicts"]]
        if len(statuses) != ts * comb(k, 3) or set(statuses) != {"holds"}:
            problems.append(f"{r['graph6']}: {len(statuses)} verdicts for {comb(k, 3)} "
                            f"triples, statuses {sorted(set(statuses))}")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    item: str
    make_load: Callable[[int], inputs.Load]
    cli_args: list[str]
    items: Callable[[inputs.Load], int]
    check: Callable[[inputs.Load, bytes], list[str]]
    reads_input: bool = True
    golden: dict[str, str] = field(default_factory=dict)


def workloads(smoke: bool = False) -> dict[str, Workload]:
    gen_n = 5 if smoke else 8
    gen_graphs = 21 if smoke else GEN_N8_GRAPHS
    scan_per_n = 4 if smoke else 240
    analyze_triples = 60 if smoke else 20000
    verify_strata = VERIFY_SMOKE_STRATA if smoke else VERIFY_STRATA
    golden = {} if smoke or not GOLDEN.exists() else json.loads(GOLDEN.read_text())
    works = {w.name: w for w in (
        Workload("scan_mixed", "graphs",
                 lambda seed: inputs.scan_load(seed, scan_per_n),
                 ["scan"], lambda load: len(load.lines), check_scan),
        Workload("gen_n8", "graphs", inputs.Load,
                 ["gen", "--n", str(gen_n)], lambda load: gen_graphs,
                 lambda load, out: check_gen(load, out, gen_graphs), reads_input=False),
        Workload("analyze_deep", "triples",
                 lambda seed: inputs.analyze_load(seed, analyze_triples),
                 ["analyze"], lambda load: load.triples, check_analyze),
        Workload("verify_prop", "(triple, t) instances",
                 lambda seed: inputs.strata_load(seed, verify_strata),
                 ["verify-prop", "--t", "1,2"], lambda load: 2 * load.triples, check_verify),
    )}
    for work in works.values():
        work.golden = golden.get(work.name, {})
    return works


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------

@dataclass
class Rep:
    measured: dict
    output: Path
    problems: list[str]
    spans_path: Path | None = None
    layers: dict | None = None


def run_rep(work: Workload, load: inputs.Load, workdir: Path, traced: bool) -> Rep:
    """One repetition; each overwrites the output and spans of the last."""
    input_path = workdir / "input.g6"
    output = workdir / "out"
    spans_path = workdir / "spans.json" if traced else None
    args = list(work.cli_args)
    if work.reads_input:
        args += ["--input", str(input_path)]
    args += ["--out", str(output)]
    cmd = [sys.executable, str(HERE / "rep.py"), "", str(spans_path or "-"),
           str(input_path) if work.reads_input else "-", "--", *args]
    cmd[2] = repr(time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Rep({}, output, [f"timed out after {REP_TIMEOUT_S} s"])
    if proc.returncode != 0:
        return Rep({}, output, [f"child exited {proc.returncode}: {proc.stderr.strip()[-300:]}"])
    measured = json.loads(proc.stdout.strip().splitlines()[-1])
    if measured["exit_code"] != 0:
        return Rep(measured, output, [f"gallai exited {measured['exit_code']}: "
                                      f"{proc.stderr.strip()[-300:]}"])
    return Rep(measured, output, check_output(work, load, output), spans_path)


def check_output(work: Workload, load: inputs.Load, output: Path) -> list[str]:
    try:
        data = output.read_bytes()
        problems = work.check(load, data)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    want = work.golden.get("any") or work.golden.get(str(load.seed))
    digest = hashlib.sha256(data).hexdigest()
    if want is not None and digest != want:
        problems.append(f"sha256 {digest[:16]} differs from golden {want[:16]}")
    return problems


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(work: Workload, load: inputs.Load, reps: list[Rep],
               setup: float) -> dict[str, float]:
    good = [r.measured for r in reps if not r.problems] or [r.measured for r in reps if r.measured]
    items = work.items(load)
    return {
        "items_per_s": median([items / m["wall_ref_s"] for m in good]),
        "cpu_s": median([m["cpu_ref_s"] for m in good]),
        "setup_s": setup,
        "peak_rss_mb": median([m["peak_rss_mb"] for m in good]),
    }


def run_reps(work, load, workdir, seconds, traced_too):
    """Untraced repetitions (alternating with traced ones when
    ``traced_too``) until ``seconds`` have passed and at least MIN_REPS."""
    plain, traced = [], []
    start = time.monotonic()
    while len(plain) < MIN_REPS or time.monotonic() - start < seconds:
        plain.append(run_rep(work, load, workdir, traced=False))
        report_rep("untraced", len(plain), plain[-1])
        if traced_too:
            traced.append(run_rep(work, load, workdir, traced=True))
            rep = traced[-1]
            if not rep.problems:
                rep.layers = spans.layer_metrics(json.loads(rep.spans_path.read_text()))
                if rep.layers["trace.accounted_frac"] < TRACE_FLOOR:
                    rep.problems.append(
                        f"layer self times cover only {rep.layers['trace.accounted_frac']:.3f} "
                        "of the traced wall time")
            report_rep("traced", len(traced), rep)
    return plain, traced


def setup_ref_s(input_path: str) -> float:
    """Median over SETUP_PAIRS set-up-only starts of set-up time over the
    bare start (``rep.py LAUNCH``) launched right after it, times
    BARE_REF_S: set-up time at the machine's reference speed, so that the
    machine's drift in speed between runs cancels and a change in what
    set-up does still shows."""
    ratios = []
    for _ in range(SETUP_PAIRS):
        pair = []
        for tail in (["-", input_path, "--"], []):
            cmd = [sys.executable, str(HERE / "rep.py"), repr(time.monotonic()), *tail]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=REP_TIMEOUT_S, check=True)
            pair.append(json.loads(proc.stdout)["setup_s"])
        ratios.append(pair[0] / pair[1])
    return median(ratios) * BARE_REF_S


def report_rep(kind: str, number: int, rep: Rep) -> None:
    m = rep.measured
    timing = (f"wall {m['wall_s']:.3f} s, cpu {m['cpu_s']:.3f} s, setup {m['setup_s']:.3f} s, "
              f"rss {m['peak_rss_mb']:.1f} MB" if "wall_s" in m else "no measurement")
    if "wall_ref_s" in m:
        timing += (f"; probe {m['probe_s'] * 1e3:.3f} ms, "
                   f"at reference speed wall {m['wall_ref_s']:.3f} s")
    verdict = "ok" if not rep.problems else "FAILED: " + "; ".join(rep.problems[:3])
    print(f"  {kind} rep {number}: {timing}; {verdict}", flush=True)


def layer_summary(plain: list[Rep], traced: list[Rep]) -> dict[str, float]:
    layered = [r.layers for r in traced if not r.problems]
    out = {name: median([l[name] for l in layered]) for name in layered[0]} if layered else {}
    ok_plain = [r.measured["wall_s"] for r in plain if not r.problems]
    ok_traced = [r.measured["wall_s"] for r in traced if not r.problems]
    out["trace.overhead_frac"] = (
        median(ok_traced) / median(ok_plain) - 1 if ok_plain and ok_traced else 0.0)
    out["cli.output_bytes"] = next(
        (r.output.stat().st_size for r in traced if not r.problems), 0)
    return out


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def environment() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": model}


def describe_load(work: Workload, load: inputs.Load, last: Rep) -> dict:
    info = load.describe()
    if work.name == "gen_n8":
        return {"graphs": work.items(load), "note": "seed-independent; no path search"}
    if work.name == "scan_mixed":
        if not last.problems:
            info["longest_paths"] = sum(
                r["num_longest"] for r in json.loads(last.output.read_bytes())["graphs"])
    else:
        info["longest_paths"] = sum(load.num_longest)
        info["triples"] = load.triples
        if work.name == "verify_prop":
            info["instances"] = 2 * load.triples
    return info


def benchmark(args) -> int:
    work = workloads()[args.workload]
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        load = work.make_load(args.seed)
        load.write(workdir / "input.g6")
        # Compile the package's bytecode once, as an installed copy would have it.
        subprocess.run([sys.executable, "-c", "import gallai.cli"], cwd=ROOT, check=True,
                       env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
        print(f"workload {work.name}, seed {args.seed}, items: {work.item}; "
              f"environment {json.dumps(environment())}", flush=True)
        plain, traced = run_reps(work, load, workdir, args.seconds, traced_too=args.trace == 1)
        reps = plain + traced
        print(f"load {json.dumps(describe_load(work, load, reps[-1]))}")
        failed = sum(1 for r in reps if r.problems)
        print(f"failed_frac {failed / len(reps):.4f} ({failed} of {len(reps)} repetitions)")
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.trace:
            metrics = layer_summary(plain, traced)
            units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        else:
            input_path = str(workdir / "input.g6") if work.reads_input else "-"
            metrics = end_to_end(work, load, plain, setup_ref_s(input_path))
            units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {units.get(name, '')}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(reps),
            "failed": failed,
            "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                        for name, unit in units.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def smoke() -> int:
    """Tiny loads: each good output passes its checks, and the same output
    with its last record removed is counted as failed."""
    workdir = HERE / ".work" / f"smoke-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ok = True
    try:
        for work in workloads(smoke=True).values():
            load = work.make_load(1)
            load.write(workdir / "input.g6")
            rep = run_rep(work, load, workdir, traced=False)
            data = rep.output.read_bytes() if rep.output.exists() else b""
            if work.name == "gen_n8":
                corrupted = b"".join(data.splitlines(keepends=True)[:-1])
            else:
                doc = json.loads(data)
                records = doc["graphs"] if isinstance(doc, dict) else doc
                records.pop()
                corrupted = json.dumps(doc).encode()
            rep.output.write_bytes(corrupted)
            caught = check_output(work, load, rep.output)
            passed = not rep.problems and bool(caught)
            ok &= passed
            print(f"{work.name}: good output {'passed' if not rep.problems else rep.problems}; "
                  f"corrupted output {'counted as failed' if caught else 'NOT caught'} "
                  f"({'; '.join(caught)})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads()))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "gallai" / "cli.py").is_file():
        print(f"no gallai sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
