"""Print the SHA-256 of each CLI run's output over a fixed set of configs.

    python tools/csv_digest.py

The set is the four benchmark workloads (perfbench.workloads.build) at
seeds 0 and 3, a global convergence study, a local one with a repeated
time, a global one of the series route and a t-sweep with repeated and
zero times, these four on the README model at dim 12, a permissive
mu-sweep over geomspace(0.01, 20, 8) of the README model at dim 16 and
theta 0.3 by the exact and factorized routes (its exact chain splits
into several direct sums, over complex generator entries), and
verify-algebra at dim 8 with margin 0 (a FAIL report), at dim 12
with margin 2 and theta 0.3, and at dim 32 with margin 1 and theta 2.9
(truncation artifacts in several row groups at a nonzero phase).  Each run
calls qdamp.cli.main in this process with its output on stdout; the
line for it is "<sha256 of those bytes>  <name>".  Two checkouts that
print the same lines write the same bytes on every run in the set.  A
run that writes to stderr is reported there and makes the exit code 1.
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from qdamp import cli  # noqa: E402

SEEDS = (0, 3)


def runs():
    """(name, command, config or None, extra args) for every run in the set."""
    for name in workloads.NAMES:
        for seed in SEEDS:
            w = workloads.build(name, seed)
            yield f"{name}/seed-{seed}", w.command, w.config, list(w.extra_args)
    base = workloads.build("readme-simulate", 0, dim=12).config
    yield "convergence-global", "convergence", dict(
        base, convergence={"method": "factorized", "n_steps_values": [1, 2, 4, 8],
                           "t_final": 1.0}), []
    yield "convergence-local", "convergence", dict(
        base, convergence={"method": "alternative",
                           "t_values": [0.4, 0.1, 0.2, 0.1]}), []
    yield "convergence-series", "convergence", dict(
        base, convergence={"method": "series", "n_steps_values": [1, 2, 4, 8],
                           "t_final": 1.0}), []
    yield "t-sweep", "sweep", dict(
        base, methods=list(workloads.ALL_METHODS),
        sweep={"param": "t", "values": [1.0, 0.0, 0.5, 1.0, 0.0, 2.0]}), []
    wide = workloads.build("readme-simulate", 0, dim=16).config
    yield "mu-sweep-wide-norm", "sweep", dict(
        wide, model=dict(wide["model"], theta=0.3), methods=["exact", "factorized"],
        positivity="permissive",
        sweep={"param": "mu", "values": [float(v) for v in np.geomspace(0.01, 20.0, 8)]}), []
    yield "verify-algebra/dim-8-margin-0", "verify-algebra", None, [
        "--dim", "8", "--margin", "0"]
    yield "verify-algebra/dim-12-theta-0.3", "verify-algebra", None, [
        "--dim", "12", "--margin", "2", "--theta", "0.3"]
    yield "verify-algebra/dim-32-theta-2.9-margin-1", "verify-algebra", None, [
        "--dim", "32", "--theta", "2.9", "--margin", "1"]


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, command, config, extra in runs():
            argv = [command] + extra
            if config is not None:
                path = Path(tmp) / "config.json"
                path.write_text(json.dumps(config), encoding="utf-8")
                argv += ["--config", str(path)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                cli.main(argv)
            if err.getvalue():
                failed = True
                print(f"{name}: {err.getvalue().strip()}", file=sys.stderr)
            print(f"{hashlib.sha256(out.getvalue().encode('utf-8')).hexdigest()}  {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
