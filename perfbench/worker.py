"""Child process of the benchmark: set up one workload, then run its ops.

    python3 -m perfbench.worker WORKDIR WORKLOAD SEED SECONDS MODE [DIM N_POINTS]

run from the repository root.  MODE is `setup` (stop once the inputs are
parsed), `run` (untraced ops only) or `trace` (untraced ops, then traced
ops); DIM and N_POINTS shrink the workload for tests.  The child reads
`qdamp` from the checkout's src/ and writes result.json (and spans.jsonl
when traced) into WORKDIR.

Ops are closed-loop: the next op starts when the previous one has returned.
Another op is started only while a whole median op still fits in the
budget, and a phase always runs at least one op.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import qdamp.cli as cli  # noqa: E402

from perfbench import workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def prepare(workload: workloads.Workload, workdir: Path) -> list:
    """Write the workload's config file, parse it as the CLI does; return argv."""
    config_path = None
    if workload.config is not None:
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(workload.config, indent=1),
                               encoding="utf-8")
        cli.load_config(str(config_path))
    argv = workload.argv(config_path)
    cli.build_parser().parse_args(argv)
    return argv


def run_op(argv: list, out_path: Path) -> tuple:
    """One op: cli.main with its stdout and stderr in out_path.

    Returns (exit code, seconds); the exit code is None when main raised,
    and the traceback then ends the output, so the op fails its check.
    """
    with open(out_path, "w", encoding="utf-8") as fh, \
            contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an op that crashes is counted, not fatal
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, elapsed


def run_phase(argv: list, workdir: Path, budget: float, first_op: int,
              tracer: Tracer | None = None) -> list:
    """Closed-loop ops for `budget` seconds; a list of op records."""
    ops = []
    start = time.perf_counter()
    while True:
        op_id = first_op + len(ops)
        out_path = workdir / f"op-{op_id:04d}.out"
        if tracer is not None:
            tracer.op = op_id
        code, elapsed = run_op(argv, out_path)
        ops.append({"op": op_id, "exit": code, "seconds": elapsed,
                    "output": out_path.name, "traced": tracer is not None})
        median = statistics.median(o["seconds"] for o in ops)
        if time.perf_counter() - start + median > budget:
            return ops


def runtime_facts() -> dict:
    """Versions, BLAS vendor and the OpenBLAS thread counts this process uses."""
    import ctypes
    import glob
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_name = "unknown"
    threads = []
    site = Path(numpy.__file__).resolve().parents[1]
    for lib in sorted(glob.glob(str(site / "*.libs" / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads.append(f"{Path(lib).parent.name.split('.')[0]}={fn()}")
                break
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": ", ".join(threads) or
            f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"}


def main(args: list) -> int:
    workdir, name, seed, seconds, mode = args[:5]
    workdir = Path(workdir)
    size = {"dim": int(args[5]), "n_points": int(args[6])} if len(args) > 5 else {}
    workload = workloads.build(name, int(seed), **size)
    argv = prepare(workload, workdir)
    result = {"ready": time.monotonic(), "ops": [], "layers": None}
    if mode != "setup":
        budget = float(seconds) / (2 if mode == "trace" else 1)
        result["ops"] = run_phase(argv, workdir, budget, 0)
        if mode == "trace":
            untraced_p50 = statistics.median(o["seconds"] for o in result["ops"])
            tracer = Tracer()
            with tracer.installed():
                traced = run_phase(argv, workdir, budget, len(result["ops"]),
                                   tracer)
            result["ops"] += traced
            tracer.write_jsonl(workdir / "spans.jsonl")
            result["layers"] = tracer.layer_metrics(
                {o["op"]: o["seconds"] for o in traced}, untraced_p50)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["facts"] = runtime_facts()
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
