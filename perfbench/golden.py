"""Record the SHA-256 of each workload's output for a list of seeds.

    python3 perfbench/golden.py 0 1 2 ...

Runs every workload once per seed, through the same repetition and checks
as the benchmark, and stores the digest of each output that passes the
structural checks in perfbench/golden.json. ``gen_n8`` does not depend on
the seed and is stored once under ``any``. The benchmark then compares
every repetition of a recorded seed with its digest.
"""

import hashlib
import json
import os
import shutil
import sys

import run


def main() -> int:
    seeds = [int(s) for s in sys.argv[1:]]
    golden = json.loads(run.GOLDEN.read_text()) if run.GOLDEN.exists() else {}
    workdir = run.HERE / ".work" / f"golden-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for work in run.workloads().values():
            for seed in seeds[:1] if not work.reads_input else seeds:
                load = work.make_load(seed)
                load.write(workdir / "input.g6")
                rep = run.run_rep(work, load, workdir, traced=False)
                if rep.problems:
                    print(f"{work.name} seed {seed}: not recorded: {rep.problems}")
                    return 1
                key = str(seed) if work.reads_input else "any"
                digest = hashlib.sha256(rep.output.read_bytes()).hexdigest()
                golden.setdefault(work.name, {})[key] = digest
                print(f"{work.name} {key}: {digest}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
