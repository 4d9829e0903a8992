"""One repetition in a fresh interpreter: call ``gallai.cli.main`` once.

    python3 perfbench/rep.py LAUNCH TRACE_OUT INPUT -- CLI_ARGS...

LAUNCH is the parent's ``time.monotonic()`` just before it started this
interpreter; CLOCK_MONOTONIC is shared by all processes, so set-up time
(interpreter start, ``import gallai.cli`` and reading INPUT) is measured
across the process boundary. TRACE_OUT is ``-`` for an untraced run, else
the file the spans go to. INPUT is ``-`` when the command reads no file.
Prints one JSON line with the measurements of the call; with no CLI_ARGS
it stops after set-up and prints only ``setup_s``.

    python3 perfbench/rep.py LAUNCH

prints the ``setup_s`` of a bare start: this interpreter and the standard
modules of this script, without ``gallai``. The parent alternates bare
starts with set-up-only starts and reports set-up time relative to them.

The speed of the shared machine the benchmark runs on drifts by up to 2x
within seconds to minutes, and the drift moves every timing with it. An
untraced call is therefore paced: every PACE_PERIOD_S of wall time a timer
signal runs ``pace_probe``, a fixed piece of pure-Python work, and times it.
The probes' time is taken out of the call's times, and each stretch of the
call between two probes is rescaled by (PROBE_REF_S / probe) ** PROBE_EXPONENT,
with ``probe`` the duration of the probes around it. The ``*_ref_s`` times are the call's times at the speed
the machine had when PROBE_REF_S was measured; the raw times are reported
beside them.
"""

import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

if len(sys.argv) == 2:
    print(json.dumps({"setup_s": time.monotonic() - float(sys.argv[1])}))
    sys.exit(0)

ROOT = Path(__file__).resolve().parent.parent
PACE_PERIOD_S = 0.05
# A typical duration of the warm pace_probe on a 2-vCPU Intel Xeon, Python 3.11.7.
PROBE_REF_S = 0.0008
# The call's time moves less than the probe's when the machine's speed
# drifts: over repetitions on that machine, log(wall time) against
# log(median probe) had slopes 0.57-0.75 for the four workloads (correlation
# 0.92-0.95), so a stretch is rescaled by (PROBE_REF_S / probe) ** 0.7.
PROBE_EXPONENT = 0.7
_PROBE_ADJ = (0b0110110, 0b1011001, 0b1100110, 0b0101011, 0b1010101, 0b0110011, 0b1001110)
_PROBE_SEEN = dict.fromkeys(range(256), 0)


def pace_probe() -> None:
    """Fixed work like the program's hot loops, bit masks and dict updates,
    that allocates no object the garbage collector tracks, so that it does
    not change when the program's collections run."""
    seen = _PROBE_SEEN
    for r in range(100):
        for v in range(7):
            ext = _PROBE_ADJ[v] & ~(1 << v)
            while ext:
                low = ext & -ext
                ext ^= low
                key = (v << 3 | low.bit_length() - 1) ^ (r & 3) << 6
                seen[key] = seen[key] + 1 & 0xFFFF


class Pacer:
    """Runs ``pace_probe`` from SIGALRM every PACE_PERIOD_S while active."""

    def __init__(self) -> None:
        # (start, end, duration of the timed probe, CPU time) of each tick
        self.ticks: list[tuple[float, float, float, float]] = []

    def _tick(self, signum, frame) -> None:
        # The first, untimed run brings the probe back into the caches the
        # program has used meanwhile, so the timed one measures the machine's
        # speed, not how much of the cache the program's data takes.
        c0, start = time.process_time(), time.perf_counter()
        pace_probe()
        t0 = time.perf_counter()
        pace_probe()
        end = time.perf_counter()
        self.ticks.append((start, end, end - t0, time.process_time() - c0))

    def __enter__(self) -> "Pacer":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PACE_PERIOD_S, PACE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self) -> tuple[float, float]:
        """Wall and CPU time the ticks took."""
        return (sum(end - start for start, end, _, _ in self.ticks),
                sum(cpu for *_, cpu in self.ticks))

    def probe_s(self) -> float:
        return statistics.median(probe for _, _, probe, _ in self.ticks or [(0, 0, PROBE_REF_S, 0)])

    def ref_wall(self, start: float, end: float) -> float:
        """Wall time of [start, end] without the ticks, each stretch between
        ticks rescaled by the median scale of the five ticks nearest to it
        (a lone probe hit by an interrupt does not count)."""
        ticks = self.ticks or [(end, end, PROBE_REF_S, 0.0)]
        scale = [(PROBE_REF_S / probe) ** PROBE_EXPONENT for _, _, probe, _ in ticks]
        total, last = 0.0, start
        for i, (t_start, t_end, _, _) in enumerate(ticks):
            total += (t_start - last) * statistics.median(scale[max(0, i - 2):i + 3])
            last = t_end
        return total + max(0.0, end - last) * statistics.median(scale[-5:])


def main() -> int:
    launch, trace_out, input_path = float(sys.argv[1]), sys.argv[2], sys.argv[3]
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, str(ROOT / "src"))
    import gallai.cli

    if not Path(gallai.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported gallai from {gallai.cli.__file__}, not this checkout")
    if input_path != "-":
        Path(input_path).read_bytes()
    call = gallai.cli.main
    tracer = None
    if trace_out != "-":
        import spans  # this script's directory is first on sys.path

        tracer = spans.Tracer(trace_id=str(os.getpid()))
        call = spans.install(tracer)
    setup_s = time.monotonic() - launch
    if not cli_args:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer is not None:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        code = call(cli_args)
        wall1, cpu_s = time.perf_counter(), time.process_time() - cpu0
        wall_s, ref_s = wall1 - wall0, None
        tracer.dump(trace_out, wall_s)
    else:
        with Pacer() as pacer:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            code = call(cli_args)
            wall1, cpu1 = time.perf_counter(), time.process_time()
        spent_wall, spent_cpu = pacer.spent()
        wall_s, cpu_s = wall1 - wall0 - spent_wall, cpu1 - cpu0 - spent_cpu
        ref_s = pacer.ref_wall(wall0, wall1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured = {"exit_code": code, "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
                "peak_rss_mb": peak_rss_mb}
    if ref_s is not None:
        # CPU time rescaled by the same factor as the wall time of the call.
        measured.update(wall_ref_s=ref_s, cpu_ref_s=cpu_s * ref_s / wall_s,
                        probe_s=pacer.probe_s())
    print(json.dumps(measured))
    return 0


if __name__ == "__main__":
    sys.exit(main())
