"""Benchmark of the qdamp CLI: end-to-end metrics, or a traced per-layer run.

    python3 perfbench/run.py --workload readme-simulate --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Run from anywhere inside a checkout; qdamp is imported from the checkout's
src/.  Each workload runs in child processes (perfbench/worker.py), so
peak RSS belongs to that workload alone.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 the per-layer ones.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, workloads  # noqa: E402

WORK = ROOT / "perfbench" / ".work"
# Setup-only children, half before and half after the op child (which adds
# one more sample), so that the median spans the whole run.
SETUP_SAMPLES = 8
# The metrics of the JSON line with --trace 0 (see BENCHMARK.json).
END_TO_END = ("setup_s", "op_s.p50", "peak_rss_mb")
# The end-to-end metrics among the per-layer ones with --trace 1.
TRACE_E2E = ("ops_failed.ratio",)


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an op failure)."""


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment of every child: OpenBLAS threads capped at the CPUs we may use."""
    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", str(cpu_count()))
    env.pop("PYTHONPATH", None)
    return env


def spawn(workdir: Path, name: str, seed: int, seconds: float, mode: str,
          size: tuple = (), deadline: float | None = None) -> dict:
    """Run one worker child to completion; its result.json plus setup seconds.

    size, if given, is (dim, n_points) to shrink the workload for tests;
    the child is killed at `deadline` (a time.monotonic() value).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, "-m", "perfbench.worker", str(workdir), name,
           str(seed), str(seconds), mode] + [str(x) for x in size]
    start = time.monotonic()
    timeout = None if deadline is None else max(deadline - start, 1.0)
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} for {name} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - start
    return result


def machine_facts(result: dict) -> list:
    """Lines describing the machine, the toolchain and the code under test."""
    mem_mb = "unknown"
    try:
        with open("/proc/meminfo", encoding="utf-8") as fh:
            mem_mb = str(int(fh.readline().split()[1]) // 1024)
    except (OSError, ValueError, IndexError):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qdamp").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    facts = result["facts"]
    return [
        f"machine: nproc={cpu_count()} mem_total_mb={mem_mb} python={facts['python']} "
        f"numpy={facts['numpy']} scipy={facts['scipy']}",
        f"blas: {facts['blas']}; threads {facts['blas_threads']}",
        f"qdamp: commit={commit or 'n/a (not a git checkout)'} "
        f"src_sha256={src.hexdigest()[:16]}",
    ]


def _reference(workload) -> str | None:
    if workload.reference_key is None:
        return None
    path = ROOT / "perfbench" / "reference" / workload.name / f"{workload.reference_key}.out"
    return path.read_text(encoding="utf-8") if path.exists() else None


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path | None = None, setup_samples: int = SETUP_SAMPLES,
                 size: tuple = ()) -> dict:
    """Run one workload in child processes and summarize it.

    The children are killed after 2 * seconds + 60: a traced run has two
    phases, each of which may overrun its half of the budget by one op.
    """
    deadline = time.monotonic() + 2 * seconds + 60
    workdir = workdir or WORK / name
    shutil.rmtree(workdir, ignore_errors=True)

    def setup_only(indices):
        return [spawn(workdir / f"setup-{i}", name, seed, 0.0, "setup", size,
                      deadline)["setup_s"] for i in (() if trace else indices)]

    half = setup_samples // 2
    setups = setup_only(range(half))
    result = spawn(workdir, name, seed, seconds, "trace" if trace else "run",
                   size, deadline)
    setups += [result["setup_s"]] + setup_only(range(half, setup_samples))
    workload = workloads.build(name, seed, *size)
    return summarize(workload, seconds, trace, result, setups, workdir)


def summarize(workload, seconds: float, trace: bool, result: dict,
              setups: list, workdir: Path) -> dict:
    """Check every op's output; report lines, JSON fields and metrics."""
    name, seed = workload.name, workload.seed
    reference = _reference(workload)
    ops = result["ops"]
    checked = []
    for op in ops:
        text = (workdir / op["output"]).read_text(encoding="utf-8")
        checked.append(checks.check_op(workload, op["exit"], text, reference))
    untraced = [op["seconds"] for op in ops if not op["traced"]]
    failed_checks = sum(not c.ok for c in checked)
    ops_failed = sum(not c.ok or op["exit"] != 0 for c, op in zip(checked, ops))
    devs = [c.golden_dev for c in checked if c.golden_dev is not None]
    dists = [c.tracedist_max for c in checked if c.tracedist_max is not None]

    n_traced = len(ops) - len(untraced)
    lines = machine_facts(result) + [f"workload {name}: seed={seed} seconds={seconds:g} trace={int(trace)} "
             f"ops={len(ops)} (untraced {len(untraced)}, traced {n_traced}; "
             f"closed loop, 1 client) setup samples={len(setups)} "
             f"reference={'yes' if reference is not None else 'none for this seed'}"]
    e2e = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "op_s.p50": (statistics.median(untraced), "s", len(untraced)),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
        "tracedist_to_exact.max": (max(dists) if dists else None, "1", len(dists)),
        "golden_dev.max": (max(devs) if devs else None, "1", len(devs)),
        "ops_failed.ratio": (ops_failed / len(ops), "ratio", len(ops)),
    }
    for tail in (99, 90):
        if len(untraced) * (100 - tail) / 100 >= 10:
            q = statistics.quantiles(untraced, n=100)[tail - 1]
            e2e[f"op_s.p{tail}"] = (q, "s", len(untraced))
            break
    if not trace:
        for metric, (value, unit, n) in e2e.items():
            lines.append(f"  {name:<16} {metric:<24} {_fmt(value):>12} {unit:<6} (n={n})")
    for c, op in zip(checked, ops):
        for problem in c.problems[:5]:
            lines.append(f"  op {op['op']} check failed: {problem}")

    # --trace 1 also reports ops_failed.ratio, so that a failing op (such as
    # a FAIL verdict) shows in the JSON line; it is over all ops, and 0 on
    # most workloads, so it cannot be a bounded end-to-end metric.
    shown = TRACE_E2E if trace else END_TO_END
    metrics = {k: {"value": v[0], "unit": v[1]} for k, v in e2e.items() if k in shown}
    if trace:
        layers = result["layers"]
        lines.append(f"  {name:<16} {'ops_failed.ratio':<40} "
                     f"{e2e['ops_failed.ratio'][0]:>12.6g} ratio  (all ops, n={len(ops)})")
        for metric, m in layers.items():
            lines.append(f"  {name:<16} {metric:<40} {m['value']:>12.6g} {m['unit']:<6} "
                         f"(per traced op, n={n_traced})")
        lines.append(f"  spans account for {100 * layers['trace.span_coverage']['value']:.1f}% "
                     "of op time at least (layer spans below cli.main, worst traced op); "
                     f"spans: {workdir / 'spans.jsonl'}")
        metrics.update(layers)
    return {"lines": lines, "correct": failed_checks == 0, "attempted": len(ops),
            "failed": failed_checks, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qdamp" / "cli.py").is_file():
        print(f"error: no qdamp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(results[name]["lines"]), flush=True)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}/{k}": m for name, r in results.items()
                   for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
