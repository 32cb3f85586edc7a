"""Record the reference outputs that golden_dev.max compares against.

    python3 perfbench/make_reference.py

For every workload and seeds 0-11, runs one op through the same worker child as
the benchmark and copies its output to perfbench/reference/<workload>/.
verify-algebra does not depend on the seed and is recorded once.  Run it
only on the commit whose outputs should become the reference.
"""
from __future__ import annotations

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.run import WORK, spawn  # noqa: E402

REFERENCE = ROOT / "perfbench" / "reference"
SEEDS = range(12)


def main() -> int:
    for name in workloads.NAMES:
        done = set()
        for seed in SEEDS:
            key = workloads.build(name, seed).reference_key
            if key in done:
                continue
            done.add(key)
            workdir = WORK / "reference" / name
            shutil.rmtree(workdir, ignore_errors=True)
            result = spawn(workdir, name, seed, 0.0, "run")
            (REFERENCE / name).mkdir(parents=True, exist_ok=True)
            shutil.copyfile(workdir / result["ops"][0]["output"],
                            REFERENCE / name / f"{key}.out")
            print(f"{name} {key}: exit {result['ops'][0]['exit']}, "
                  f"{result['ops'][0]['seconds']:.2f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
