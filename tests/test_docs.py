"""The README quick start and the demos run as published; the exports resolve."""
import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qdamp

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL)
    assert block is not None, "README has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert "distance to dense exponential" in capsys.readouterr().out


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_route_table_prints_both_tables():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "route_table.py"),
                           "--dims", "6", "--repeats", "1"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # one pass and 8 steps, each from a coherent state (both parity
    # classes) and from fock 2 (one class)
    for state in ("coherent alpha 1.2", "fock 2"):
        assert f"README grid from {state}, one pass per route, median ms:" in proc.stdout
        assert f"README grid from {state}, 8 steps per route, median ms:" in proc.stdout
    assert proc.stdout.count("| d  | exact | factorized |") == 4
    assert proc.stdout.count("|  6 | ") == 4


def test_csv_digest_prints_one_digest_per_run():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "csv_digest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 16
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", ln) for ln in lines), lines
    assert len({ln.split()[1] for ln in lines}) == 16


PUBLIC = {
    "ModelParams", "PositivityError", "NumericalError",
    "FockOperators", "build_fock_ops", "fock_state", "coherent_state",
    "thermal_state",
    "build_liouvillian_trace_exact", "vec", "unvec",
    "METHODS", "PropagationResult", "propagate", "propagate_sweep",
    "stepped_propagate",
    "DiagnosticsRecord", "state_diagnostics", "compare_states",
    "ConvergenceTable", "convergence_study",
    "AlgebraReport", "verify_algebra",
}


def test_every_export_resolves_once(monkeypatch):
    """The package exports its user API and nothing else; the names the
    benchmark's tracer wraps stay attributes of their modules."""
    missing = [name for name in qdamp.__all__ if not hasattr(qdamp, name)]
    assert not missing
    assert len(set(qdamp.__all__)) == len(qdamp.__all__)
    assert set(qdamp.__all__) == PUBLIC
    names = {name for name, value in vars(qdamp).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import tracer
    unresolved = [(module, attr) for module, attr, _ in tracer.SPANS + tracer.COUNTS
                  if not hasattr(importlib.import_module(f"qdamp.{module}"), attr)]
    assert not unresolved


def test_every_module_name_the_readme_gives_resolves():
    """Each `qdamp.<module>.<name>` in the README is an attribute of its
    module, so a name that moves or goes takes its mention along."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`qdamp\.(\w+)\.(\w+)`", readme))
    assert named
    unresolved = [f"qdamp.{module}.{name}" for module, name in sorted(named)
                  if not hasattr(importlib.import_module(f"qdamp.{module}"), name)]
    assert not unresolved


# each input rule and the functions that hold it; "finite" is the rule
# that a number is finite (tested by an isfinite call or a comparison with
# inf), the others compare the named value with a number
RULE_OWNERS = {"margin": {("linalg.py", "check_margin")},
               "dim": {("fock.py", "check_dim")},
               "n_steps": {("coefficients.py", "check_steps")},
               "finite": {("linalg.py", "check_real"), ("linalg.py", "check_complex")}}


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _raises_numerical_error(func, makers) -> bool:
    """Whether func raises NumericalError or a helper's (one of makers)."""
    return any(isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
               and _name(node.exc.func) in makers for node in ast.walk(func))


def test_each_input_rule_is_checked_in_its_owner_alone():
    """A margin, dimension or step count is compared with a number, and a
    number is tested for being finite, only inside the rule's owners;
    every other caller calls them.  A chained comparison is read pair by
    pair.  A function that raises NumericalError, directly or through a
    helper annotated to return one, tests a computed result, not an
    input, and may test it for being finite."""
    found = set()
    for path in sorted((ROOT / "src" / "qdamp").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        makers = {"NumericalError"} | {f.name for f in funcs
                                       if _name(f.returns) == "NumericalError"}
        for func in funcs:
            exempt = _raises_numerical_error(func, makers)
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and _name(node.func) == "isfinite"
                        and not exempt):
                    found.add(("finite", path.name, func.name))
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left, *node.comparators]
                for pair in zip(operands, operands[1:]):   # a < b < c is two
                    named = {_name(o) for o in pair}
                    if "inf" in named and not exempt:
                        found.add(("finite", path.name, func.name))
                    if any(isinstance(o, ast.Constant) for o in pair):
                        found |= {(rule, path.name, func.name)
                                  for rule in named & set(RULE_OWNERS)}
    assert found == {(rule, *owner) for rule, owners in RULE_OWNERS.items()
                     for owner in owners}
