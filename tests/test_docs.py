"""The README quick start and the demos run as published; the exports resolve."""
import os
import re
import subprocess
import sys
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
    assert "README grid, one pass per route, median ms:" in proc.stdout
    assert "README grid, 8 steps per route, median ms:" in proc.stdout
    assert proc.stdout.count("| d  | exact | factorized |") == 2
    assert "|  6 | " in proc.stdout


def test_csv_digest_prints_one_digest_per_run():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "csv_digest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 14
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", ln) for ln in lines), lines
    assert len({ln.split()[1] for ln in lines}) == 14


def test_every_export_resolves_once():
    missing = [name for name in qdamp.__all__ if not hasattr(qdamp, name)]
    assert not missing
    assert len(set(qdamp.__all__)) == len(qdamp.__all__)
