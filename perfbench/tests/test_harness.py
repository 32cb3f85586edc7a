"""Tests of the benchmark harness itself, on shrunk workloads (d=6, 3 times)."""
import importlib
import json
import pkgutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import run, tracer, workloads  # noqa: E402

TINY = (6, 3)
E2E_UNITS = {"setup_s": "s", "op_s.p50": "s", "peak_rss_mb": "MB",
             "tracedist_to_exact.max": "1", "golden_dev.max": "1",
             "ops_failed.ratio": "ratio"}


def _printed(lines, metric, unit):
    return any(line.split()[1:2] == [metric] and line.split()[3:4] == [unit]
               for line in lines if len(line.split()) > 3)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    out = {}
    for name in workloads.NAMES:
        for trace in (False, True):
            workdir = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            out[name, trace] = (run.run_workload(name, 0, 0.0, trace, workdir,
                                                 setup_samples=1, size=TINY),
                                workdir)
    return out


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_prints_with_its_unit(tiny_runs, name):
    plain, _ = tiny_runs[name, False]
    for metric, unit in E2E_UNITS.items():
        assert _printed(plain["lines"], metric, unit), (metric, plain["lines"])
    traced, _ = tiny_runs[name, True]
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(plain["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in declared["per_layer"]}
    for metric, unit in tracer.LAYER_METRICS.items():
        assert _printed(traced["lines"], metric, unit), (metric, traced["lines"])
        assert traced["metrics"][metric]["unit"] == unit
    assert any("spans account for" in line for line in traced["lines"])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_untouched_tiny_outputs_pass_their_checks(tiny_runs, name):
    for trace in (False, True):
        result, _ = tiny_runs[name, trace]
        assert result["correct"] and result["failed"] == 0, result["lines"]


def test_fail_verdict_that_matches_residuals_is_not_a_wrong_output():
    # A FAIL verdict that matches its residuals is a correct report of a
    # failed op: it counts in ops_failed.ratio, not among wrong outputs.
    workload = workloads.build("verify-algebra", 0, *TINY)
    lines = [f"dim: {TINY[0]}", "margin: 2"]
    lines += [f"identity {i}: {'2.000e-12' if i == 0 else '1.000e-13'}" for i in range(23)]
    lines += ["max_residual: 2.000e-12", "verdict: FAIL (threshold 1.0e-12)"]
    check = run.checks.check_op(workload, 1, "\n".join(lines), None)
    assert check.ok, check.problems
    assert not run.checks.check_op(workload, 0, "\n".join(lines), None).ok


def test_algebra_residual_is_compared_relative_to_the_reference():
    workload = workloads.build("verify-algebra", 0)
    reference = (run.ROOT / "perfbench" / "reference" / "verify-algebra"
                 / "any-seed.out").read_text()
    assert run.checks.check_op(workload, 1, reference, reference).ok
    # The largest residual 100 times larger: still far below 1e-9, yet a
    # lost digit and more, so a wrong output.
    lines = reference.splitlines()
    worst = lines[-2].split(": ")[1]
    worse = f"{100 * float(worst):.3e}"
    wrong = "\n".join(ln.replace(f": {worst}", f": {worse}") for ln in lines)
    assert wrong != reference
    check = run.checks.check_op(workload, 1, wrong, reference)
    assert not check.ok and check.golden_dev < 1e-9, check.problems


def test_largest_array_bytes_sees_arrays_sparse_buffers_and_fields():
    import numpy as np
    import scipy.sparse as sp
    from qdamp.algebra import build_generators
    from qdamp.fock import build_fock_ops
    dense = np.zeros((36, 36), dtype=complex)
    assert tracer.largest_array_bytes(dense) == 16 * 6 ** 4
    assert tracer.largest_array_bytes((np.zeros(3), dense)) == 16 * 6 ** 4
    sparse = sp.csr_matrix(np.eye(36, dtype=complex))
    assert tracer.largest_array_bytes(sparse) == 36 * 16 + 36 * 4 + 37 * 4
    gen = build_generators(build_fock_ops(6))
    assert tracer.largest_array_bytes(gen) == 16 * 6 ** 4
    assert tracer.largest_array_bytes(0) == 0


@pytest.mark.parametrize("name,column", [("readme-simulate", 2),
                                         ("kappa-sweep", 5),
                                         ("verify-algebra", None)])
def test_injected_wrong_output_counts_as_failed(tiny_runs, name, column):
    result, workdir = tiny_runs[name, False]
    assert result["attempted"] == 1
    out = workdir / "op-0000.out"
    text = out.read_text()
    if column is None:        # one algebra residual off by O(1)
        wrong = text.replace(": 0.000e+00", ": 1.000e-01", 1)
    else:                     # one cell of the first data row changed
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[column] = repr(float(cells[column]) + 0.5)
        wrong = "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"
    assert wrong != text
    out.write_text(wrong)
    try:
        child = json.loads((workdir / "result.json").read_text())
        child["setup_s"] = 0.5
        summary = run.summarize(workloads.build(name, 0, *TINY), 0.0, False,
                                child, [0.5], workdir)
    finally:
        out.write_text(text)
    assert summary["failed"] == 1 and not summary["correct"]
    assert any(line.split()[1:3] == ["ops_failed.ratio", "1"]
               for line in summary["lines"] if len(line.split()) > 2)


def _module_attrs():
    import qdamp
    mods = [qdamp] + [importlib.import_module(f"qdamp.{m.name}")
                      for m in pkgutil.iter_modules(qdamp.__path__)]
    return {mod.__name__: dict(vars(mod)) for mod in mods}


def test_traced_pass_restores_module_attributes(tmp_path):
    from perfbench import worker
    before = _module_attrs()
    tr = tracer.Tracer()
    workload = workloads.build("kappa-sweep", 0, *TINY)
    argv = worker.prepare(workload, tmp_path)
    with tr.installed():
        import qdamp.propagators
        assert qdamp.propagators.expm is not before["qdamp.propagators"]["expm"]
        ops = worker.run_phase(argv, tmp_path, 0.0, 0, tr)
    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            raise RuntimeError("op crashed")
    after = _module_attrs()
    assert before.keys() == after.keys()
    for mod, attrs in before.items():
        assert attrs.keys() == after[mod].keys(), mod
        changed = [k for k, v in attrs.items() if after[mod][k] is not v]
        assert not changed, (mod, changed)
    assert ops[0]["exit"] == 0
    names = {span[0] for span in tr.spans}
    assert {"cli.main", "propagators.factor_build", "linalg.expm",
            "liouvillian.build", "diagnostics.state"} <= names
    layers = tr.layer_metrics({0: ops[0]["seconds"]}, ops[0]["seconds"])
    assert layers["trace.span_coverage"]["value"] > 0.5
    # The exact route's expm returns a dense d^2 x d^2 complex matrix.
    assert layers["propagators.superop_bytes"]["value"] == 16 * TINY[0] ** 4
