"""Batch driver: config parsing, CSV output, exit codes, determinism."""

import ast
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qdamp
from qdamp import cli, propagators
from qdamp.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_POSITIVITY,
    ConfigError,
    RunConfig,
    main,
)
from qdamp.fock import coherent_state, thermal_state
from qdamp.linalg import NumericalError
from qdamp.liouvillian import ModelParams

HEADER = ("t,method,trace_re,trace_im,herm_residual,min_eig,purity,mean_n,"
          "tail_mass,dist_to_exact_frob,dist_to_exact_tracedist")


def base_config(**overrides):
    cfg = {
        "model": {"omega": 1.0, "mu": 0.5, "nu": 0.2, "dim": 10},
        "initial_state": {"kind": "fock", "n": 1},
        "times": [0.0, 0.5],
        "methods": ["exact", "factorized"],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="run.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(**overrides)))
    return str(path)


def csv_rows(text):
    """Data rows of a CSV dump, split into cells (header and # lines skipped)."""
    lines = [ln for ln in text.strip().splitlines()[1:] if not ln.startswith("#")]
    return [ln.split(",") for ln in lines]


# ---------------------------------------------------------------- config


def test_config_round_trip_is_lossless():
    # every value of every optional section reaches RunConfig unchanged
    raw = base_config(
        model={"omega": 1.5, "mu": 0.5, "nu": 0.2, "kappa_re": 0.1,
               "kappa_im": -0.05, "theta": 0.3, "dim": 10},
        initial_state={"kind": "coherent", "alpha_re": 0.4, "alpha_im": -0.2},
        n_steps=5, positivity="permissive", margin=3, output="out.csv",
        sweep={"param": "mu", "values": [0.3, 0.6]},
        convergence={"method": "factorized", "n_steps_values": [2, 4],
                     "t_final": 1.5},
    )
    cfg = RunConfig.from_dict(raw)
    assert cfg.model == ModelParams(omega=1.5, mu=0.5, nu=0.2,
                                    kappa=0.1 - 0.05j, dim=10, theta=0.3)
    assert cfg.rho0.tobytes() == coherent_state(10, 0.4 - 0.2j).tobytes()
    assert cfg.times == (0.0, 0.5)
    assert cfg.methods == ("exact", "factorized")
    assert (cfg.n_steps, cfg.positivity, cfg.margin, cfg.output) == (
        5, "permissive", 3, "out.csv")
    assert cfg.sweep == raw["sweep"]
    assert cfg.convergence == raw["convergence"]
    local = RunConfig.from_dict(base_config(
        convergence={"method": "alternative", "t_values": [0.1, 0.2]}))
    assert local.convergence == {"method": "alternative",
                                 "t_values": [0.1, 0.2]}


@pytest.mark.parametrize("mutate, match", [
    (lambda c: c.update(extra=1), "unknown key"),
    (lambda c: c["model"].pop("dim"), "missing key"),
    (lambda c: c["model"].update(dim=1), "model"),
    (lambda c: c["model"].update(mu="fast"), "must be a number"),
    (lambda c: c["model"].update(dim=8.5), "must be an integer"),
    (lambda c: c.update(times=[0.5, 0.5]), "strictly increasing"),
    (lambda c: c.update(times=[-1.0, 0.5]), "finite and >= 0"),
    (lambda c: c.update(times=[0.0, math.inf]), "finite"),
    (lambda c: c.update(times={"t_max": -1.0, "n_points": 3}), "t_max"),
    (lambda c: c.update(times={"t_max": 1.0, "n_points": 0}), "n_points"),
    (lambda c: c.update(times=[]), "nonempty"),
    (lambda c: c.update(times={"t_max": 1.0}), "missing key"),
    (lambda c: c.update(methods=["exact", "exact"]), "repeat"),
    (lambda c: c.update(methods=["magic"]), "unknown method"),
    (lambda c: c.update(methods=[]), "nonempty"),
    (lambda c: c.update(initial_state={"kind": "squeezed"}), "kind"),
    (lambda c: c.update(initial_state={"kind": "fock", "n": 10}), "0..9"),
    (lambda c: c.update(initial_state={"kind": "thermal", "nbar": -1.0}), "nbar"),
    (lambda c: c.update(initial_state={"kind": "thermal", "nbar": math.nan}),
     "nbar must be finite"),
    (lambda c: c.update(initial_state=3), "must be an object"),
    (lambda c: c.update(output=3), "output"),
    (lambda c: c.update(n_steps=0), "n_steps"),
    (lambda c: c.update(positivity="maybe"), "positivity"),
    (lambda c: c.update(margin=-2), "margin"),
    (lambda c: c.update(sweep={"param": "dim", "values": [4]}), "sweep.param"),
    (lambda c: c.update(sweep={"param": "mu", "values": []}), "nonempty"),
    (lambda c: c.update(convergence={"method": "stepped",
                                     "t_values": [0.1, 0.2]}), "convergence.method"),
    (lambda c: c.update(convergence={"method": "factorized"}), "exactly one"),
    (lambda c: c.update(convergence={"method": "factorized", "t_values": []}),
     "t_values"),
    (lambda c: c.update(convergence={"method": "factorized", "t_values": [0.5]}),
     "two positive times"),
    (lambda c: c.update(convergence={"method": "factorized",
                                     "t_values": [0.0, 0.5]}), "two positive times"),
    (lambda c: c.update(convergence={"method": "factorized",
                                     "n_steps_values": []}), "n_steps_values"),
    (lambda c: c.update(convergence={"method": "factorized",
                                     "n_steps_values": [4]}), "two counts"),
    (lambda c: c.update(convergence={"method": "factorized",
                                     "n_steps_values": [0, 2]}),
     "n_steps must be an integer >= 1"),
    (lambda c: c.update(convergence={"method": "factorized",
                                     "n_steps_values": [2, 4], "t_final": 0.0}),
     "t_final"),
    (lambda c: c.update(convergence={"method": "factorized",
                                     "n_steps_values": [2, 4],
                                     "t_final": math.nan}), "t_final"),
])
def test_config_rejects(mutate, match):
    raw = base_config()
    mutate(raw)
    with pytest.raises(ConfigError, match=match):
        RunConfig.from_dict(raw)


def test_times_grid_expansion():
    cfg = RunConfig.from_dict(base_config(times={"t_max": 2.0, "n_points": 5}))
    assert cfg.times == (0.0, 0.5, 1.0, 1.5, 2.0)


def test_initial_state_kinds():
    coh = RunConfig.from_dict(base_config(
        initial_state={"kind": "coherent", "alpha_re": 0.8, "alpha_im": -0.3}))
    np.testing.assert_allclose(coh.rho0,
                               coherent_state(10, 0.8 - 0.3j), atol=1e-14)
    th = RunConfig.from_dict(base_config(
        initial_state={"kind": "thermal", "nbar": 1.2}))
    np.testing.assert_allclose(th.rho0,
                               thermal_state(10, 1.2), atol=1e-14)


# -------------------------------------------------------------- simulate


def test_simulate_header_and_layout(tmp_path, capsys):
    assert main(["simulate", "--config", write_config(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == HEADER
    rows = csv_rows(out)
    # two times x two methods, methods sorted inside each time block
    assert [(r[0], r[1]) for r in rows] == [
        ("0.0", "exact"), ("0.0", "factorized"),
        ("0.5", "exact"), ("0.5", "factorized")]


def test_simulate_time_zero_row_is_the_initial_state(tmp_path, capsys):
    main(["simulate", "--config", write_config(tmp_path, times=[0.0])])
    for row in csv_rows(capsys.readouterr().out):
        assert float(row[2]) == pytest.approx(1.0, abs=1e-12)   # trace_re
        assert float(row[7]) == pytest.approx(1.0, abs=1e-12)   # mean_n of fock 1
        assert float(row[9]) == pytest.approx(0.0, abs=1e-13)   # dist to exact


def test_simulate_distance_cells_empty_without_exact(tmp_path, capsys):
    main(["simulate", "--config",
          write_config(tmp_path, methods=["factorized", "series"])])
    rows = csv_rows(capsys.readouterr().out)
    assert rows and all(r[9] == "" and r[10] == "" for r in rows)


def test_simulate_splitting_is_exact_without_two_photon(tmp_path, capsys):
    path = write_config(tmp_path,
                        model={"omega": 1.0, "mu": 0.5, "nu": 0.2, "dim": 16},
                        times=[1.0])
    main(["simulate", "--config", path])
    rows = csv_rows(capsys.readouterr().out)
    fact = next(r for r in rows if r[1] == "factorized")
    assert float(fact[9]) <= 1e-8


def test_simulate_mean_occupation_decays_exponentially(tmp_path, capsys):
    mu = 0.6
    path = write_config(tmp_path,
                        model={"omega": 0.9, "mu": mu, "nu": 0.0, "dim": 12},
                        initial_state={"kind": "fock", "n": 2},
                        times=[0.0, 0.4, 1.0], methods=["exact"])
    main(["simulate", "--config", path])
    for row in csv_rows(capsys.readouterr().out):
        t = float(row[0])
        assert float(row[7]) == pytest.approx(2.0 * math.exp(-mu * t), rel=1e-8)


def test_simulate_writes_file_via_out_flag(tmp_path):
    out = tmp_path / "series.csv"
    main(["simulate", "--config", write_config(tmp_path), "--out", str(out)])
    assert out.read_text().splitlines()[0] == HEADER


# -------------------------------------------------------- verify-algebra


def test_verify_algebra_passes_with_interior_margin(capsys):
    assert main(["verify-algebra", "--dim", "6", "--margin", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict: PASS" in out
    assert "max_residual" in out


def test_verify_algebra_fails_at_zero_margin(capsys):
    assert main(["verify-algebra", "--dim", "6", "--margin", "0"]) == EXIT_CONFIG
    assert "verdict: FAIL" in capsys.readouterr().out


def test_verify_algebra_empty_interior_note(capsys):
    assert main(["verify-algebra", "--dim", "2", "--margin", "2"]) == EXIT_OK
    assert "interior is empty" in capsys.readouterr().out


def test_verify_algebra_dim_bounds(capsys):
    assert main(["verify-algebra", "--dim", "99"]) == EXIT_CONFIG
    assert "dim must be in 2..64" in capsys.readouterr().err
    assert main(["verify-algebra", "--dim", "1"]) == EXIT_CONFIG
    assert "dim must be an integer >= 2" in capsys.readouterr().err
    assert main(["verify-algebra", "--margin", "-1"]) == EXIT_CONFIG
    assert "margin must be an integer >= 0" in capsys.readouterr().err


def test_verify_algebra_passes_at_dim_24(capsys):
    # roundoff of 1.384e-12 is correct algebra at d = 24; the bar, 2u times
    # the largest operand norm product, is 2.770e-11 there
    assert main(["verify-algebra", "--dim", "24", "--margin", "2"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "verdict: PASS (threshold 2.770e-11)"


def test_benchmark_checker_accepts_verify_algebra_reports(monkeypatch, capsys):
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root))
    from perfbench import checks, workloads

    workload = workloads.build("verify-algebra", 0)
    reference = (root / "perfbench" / "reference" / "verify-algebra"
                 / "any-seed.out").read_text(encoding="utf-8")
    code = main(workload.argv(None))
    check = checks.check_op(workload, code, capsys.readouterr().out, reference)
    assert code == EXIT_OK and check.ok, check.problems
    assert check.golden_dev <= 1e-13
    edge = replace(workloads.build("verify-algebra", 0, dim=8),
                   extra_args=("--dim", "8", "--margin", "0"))
    code = main(edge.argv(None))
    check = checks.check_op(edge, code, capsys.readouterr().out, None)
    assert code == EXIT_CONFIG and check.ok, check.problems


def test_module_runs_as_a_script():
    src = str(Path(qdamp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for margin, code, verdict in (("2", EXIT_OK, "PASS"), ("0", EXIT_CONFIG, "FAIL")):
        proc = subprocess.run([sys.executable, "-m", "qdamp.cli", "verify-algebra",
                               "--dim", "6", "--margin", margin],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert f"verdict: {verdict}" in proc.stdout


# ------------------------------------------------------------ convergence


def test_convergence_global_slope_comment(tmp_path, capsys):
    path = write_config(
        tmp_path,
        model={"omega": 1.0, "mu": 0.5, "nu": 0.2, "kappa_re": 0.12,
               "kappa_im": 0.06, "dim": 10},
        convergence={"method": "factorized", "n_steps_values": [2, 4, 8, 16],
                     "t_final": 1.0})
    assert main(["convergence", "--config", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "mode,method,x,error_frobenius,error_tracedist"
    slope_line = next(ln for ln in out.splitlines() if ln.startswith("# slope"))
    assert float(slope_line.split("=")[1]) == pytest.approx(-1.0, abs=0.2)
    assert "# exact_within_noise = false" in out


def test_convergence_reports_exactness_without_two_photon(tmp_path, capsys):
    path = write_config(
        tmp_path,
        model={"omega": 1.0, "mu": 0.5, "nu": 0.1, "dim": 14},
        initial_state={"kind": "fock", "n": 0},
        convergence={"method": "factorized", "t_values": [0.2, 0.4]})
    assert main(["convergence", "--config", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "# exact_within_noise = true" in out
    assert "# slope = nan" in out


@pytest.mark.parametrize("study", [
    {"t_values": [0.4, 0.1, 0.2, 0.1]},
    {"n_steps_values": [4, 1, 2, 8], "t_final": 1.3},
], ids=["local", "global"])
def test_series_convergence_matches_factorized(tmp_path, capsys, study):
    """The series route evaluates the factorized map, so its study has
    the factorized study's table to roundoff."""
    model = {"omega": 1.0, "mu": 0.5, "nu": 0.2, "kappa_re": 0.12,
             "kappa_im": 0.06, "theta": 0.3, "dim": 10}
    tables = {}
    for method in ("series", "factorized"):
        path = write_config(tmp_path, model=model,
                            convergence=dict(study, method=method))
        assert main(["convergence", "--config", path]) == EXIT_OK
        tables[method] = csv_rows(capsys.readouterr().out)
    series, factorized = tables["series"], tables["factorized"]
    assert [r[1] for r in series] == ["series"] * 4
    assert [r[2] for r in series] == [r[2] for r in factorized]
    for a, b in zip(series, factorized):
        assert float(a[3]) > 1e-6
        np.testing.assert_allclose([float(x) for x in a[3:]],
                                   [float(x) for x in b[3:]],
                                   rtol=0, atol=1e-14)


def test_closed_form_weight_overflow_exits_3_with_one_line(tmp_path, capsys):
    """At (mu - nu) t / 2 = 1000 the closed-form weights overflow a
    double; the run stops with one error line, no traceback."""
    for method in ("factorized", "alternative", "series"):
        path = write_config(tmp_path, methods=["exact", method],
                            model={"omega": 1.0, "mu": 1.0, "nu": 0.0, "dim": 6},
                            times=[0.0, 2000.0])
        assert main(["simulate", "--config", path]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure: the closed-form weights "
                              "overflow at (mu - nu) t / 2 = 1000"), err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_convergence_requires_its_section(tmp_path, capsys):
    assert main(["convergence", "--config", write_config(tmp_path)]) == EXIT_CONFIG
    assert "convergence" in capsys.readouterr().err


# ----------------------------------------------------------------- sweep


def sweep_config(tmp_path, **overrides):
    return write_config(
        tmp_path,
        model={"omega": 1.0, "mu": 0.5, "nu": 0.5, "kappa_re": 0.3, "dim": 10},
        times=[0.8], **overrides)


def test_sweep_skips_inadmissible_points_in_strict_mode(tmp_path, capsys):
    path = sweep_config(tmp_path,
                        sweep={"param": "mu", "values": [0.05, 0.4]})
    assert main(["sweep", "--config", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert ("# skipped mu=0.05: positivity mu*nu >= |kappa|^2 violated"
            in out.splitlines())
    rows = csv_rows(out)
    assert {r[1] for r in rows} == {"0.4"}
    assert out.splitlines()[0] == "param,value," + HEADER


def test_sweep_permissive_runs_every_point(tmp_path, capsys):
    path = sweep_config(tmp_path,
                        sweep={"param": "mu", "values": [0.05, 0.4]})
    assert main(["sweep", "--config", path, "--permissive"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "# skipped" not in out
    assert {r[1] for r in csv_rows(out)} == {"0.05", "0.4"}


SWEPT_KAPPA = abs(0.1 + 0.05j) * np.exp(0.9j)


@pytest.mark.parametrize("param, value, base, swept", [
    ("omega", 1.0, {"kappa_re": 0.1}, {"kappa_re": 0.1}),
    ("kappa_arg", 0.9, {"kappa_re": 0.1, "kappa_im": 0.05},
     {"kappa_re": SWEPT_KAPPA.real, "kappa_im": SWEPT_KAPPA.imag}),
    # a zero kappa has no phase to keep, so the swept kappa is real
    ("kappa_abs", 0.1, {}, {"kappa_re": 0.1}),
    ("nu", 0.3, {"kappa_re": 0.1}, {"kappa_re": 0.1, "nu": 0.3}),
], ids=["omega", "kappa_arg", "kappa_abs_from_zero", "nu"])
def test_sweep_singleton_matches_simulate(tmp_path, capsys, param, value,
                                          base, swept):
    model = {"omega": 1.0, "mu": 0.5, "nu": 0.2, "dim": 10}
    sim = write_config(tmp_path, "sim.json", model={**model, **swept},
                       times=[0.7])
    assert main(["simulate", "--config", sim]) == EXIT_OK
    sim_rows = csv_rows(capsys.readouterr().out)
    swp = write_config(tmp_path, "swp.json", model={**model, **base},
                       times=[0.7], sweep={"param": param, "values": [value]})
    assert main(["sweep", "--config", swp]) == EXIT_OK
    swp_rows = [r[2:] for r in csv_rows(capsys.readouterr().out)]
    assert swp_rows == sim_rows


def test_sweep_splitting_error_grows_with_two_photon_rate(tmp_path, capsys):
    path = write_config(
        tmp_path,
        model={"omega": 1.0, "mu": 0.5, "nu": 0.2, "dim": 12},
        times=[0.8],
        sweep={"param": "kappa_abs", "values": [0.0, 0.05, 0.1, 0.2]})
    main(["sweep", "--config", path])
    rows = [r for r in csv_rows(capsys.readouterr().out) if r[3] == "factorized"]
    dists = [float(r[11]) for r in rows]
    assert len(dists) == 4
    assert all(a <= b for a, b in zip(dists, dists[1:]))


def test_sweep_over_final_time(tmp_path, capsys):
    path = write_config(tmp_path, methods=["exact"],
                        sweep={"param": "t", "values": [0.2, 0.9]})
    main(["sweep", "--config", path])
    rows = csv_rows(capsys.readouterr().out)
    assert [(r[1], r[2]) for r in rows] == [("0.2", "0.2"), ("0.9", "0.9")]


def test_t_sweep_evolves_one_grid_in_sweep_order(tmp_path, capsys,
                                                monkeypatch):
    methods = ["exact", "factorized", "series", "stepped"]
    model = {"omega": 1.0, "mu": 0.5, "nu": 0.2, "kappa_re": 0.1, "dim": 10}
    values = [1.0, 0.5, 2.0, 1.5]
    calls = Counter()

    def counted(name):
        fn = getattr(propagators, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("expm", "build_liouvillian_trace_exact"):
        monkeypatch.setattr(propagators, name, counted(name))
    # a Fock state has no odd n1 + n2 slot, so its odd block is not evolved
    path = write_config(tmp_path, model=model, methods=methods,
                        sweep={"param": "t", "values": values})
    assert main(["sweep", "--config", path]) == EXIT_OK
    capsys.readouterr()
    assert calls == {"expm": 1, "build_liouvillian_trace_exact": 1}
    calls.clear()
    # a coherent state occupies both parity classes
    state = {"kind": "coherent", "alpha_re": 0.8, "alpha_im": 0.3}
    path = write_config(tmp_path, model=model, methods=methods,
                        initial_state=state,
                        sweep={"param": "t", "values": values})
    assert main(["sweep", "--config", path]) == EXIT_OK
    rows = csv_rows(capsys.readouterr().out)
    # the sorted times 0.5, 1, 1.5, 2 are one uniform grid from t = 0: one
    # step map, which is one expm per parity block
    assert calls == {"expm": 2, "build_liouvillian_trace_exact": 1}
    assert [r[1] for r in rows] == [repr(v) for v in values for _ in methods]
    for v in values:
        one = write_config(tmp_path, "one.json", model=model, methods=methods,
                           initial_state=state,
                           sweep={"param": "t", "values": [v]})
        assert main(["sweep", "--config", one]) == EXIT_OK
        want = csv_rows(capsys.readouterr().out)
        got = [r for r in rows if r[1] == repr(v)]
        assert [r[:4] for r in got] == [r[:4] for r in want]
        np.testing.assert_allclose([[float(x) for x in r[4:]] for r in got],
                                   [[float(x) for x in r[4:]] for r in want],
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("values", [[1.0, -0.5], [0.5, math.inf],
                                    [math.nan, 0.5]],
                         ids=["negative", "inf", "nan"])
def test_t_sweep_rejects_bad_times_with_one_error_line(tmp_path, capsys,
                                                       values):
    path = write_config(tmp_path, methods=["alternative", "exact",
                                           "factorized", "series", "stepped"],
                        sweep={"param": "t", "values": values})
    assert main(["sweep", "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_sweep_requires_its_section(tmp_path, capsys):
    assert main(["sweep", "--config", write_config(tmp_path)]) == EXIT_CONFIG
    assert "sweep" in capsys.readouterr().err


# ------------------------------------------------------------ exit codes


def test_exit_codes_for_argparse_paths(capsys):
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()
    assert main(["simulate"]) == EXIT_CONFIG            # missing --config
    capsys.readouterr()
    assert main(["simulate", "--bogus"]) == EXIT_CONFIG
    capsys.readouterr()


def test_exit_code_for_unreadable_or_broken_config(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "none.json")]) == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad)]) == EXIT_CONFIG
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["flag", "config"])
def test_unwritable_output_exits_with_one_error_line(tmp_path, capsys, where,
                                                     monkeypatch):
    """The path is checked before any route runs."""
    calls, real = [], propagators.propagate_sweep
    monkeypatch.setattr(propagators, "propagate_sweep",
                        lambda *args: calls.append(args) or real(*args))
    out = str(tmp_path / "missing" / "x.csv")
    if where == "flag":
        argv = ["simulate", "--config", write_config(tmp_path), "--out", out]
    else:
        argv = ["simulate", "--config", write_config(tmp_path, output=out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert "x.csv" in err
    assert calls == []


def test_a_failed_run_leaves_the_output_path_as_it_was(tmp_path, capsys):
    """A failure after the output check keeps an existing file's bytes and
    leaves no new file behind: a strict-positivity failure in simulate, and
    a sweep or convergence run whose config lacks its section."""
    rejected = write_config(
        tmp_path, name="rejected.json",
        model={"omega": 1.0, "mu": 0.1, "nu": 0.1, "kappa_re": 0.5, "dim": 8})
    plain = write_config(tmp_path)
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_bytes(b"t,method\r\n0.0,exact")
    for command, path, code in (("simulate", rejected, EXIT_POSITIVITY),
                                ("sweep", plain, EXIT_CONFIG),
                                ("convergence", plain, EXIT_CONFIG)):
        for out in (old, new):
            assert main([command, "--config", path, "--out", str(out)]) == code
        assert old.read_bytes() == b"t,method\r\n0.0,exact"
        assert not new.exists()
        assert capsys.readouterr().err.count("error:") == 2


def test_exit_code_for_strict_positivity_rejection(tmp_path, capsys):
    path = write_config(
        tmp_path,
        model={"omega": 1.0, "mu": 0.1, "nu": 0.1, "kappa_re": 0.5, "dim": 8})
    assert main(["simulate", "--config", path]) == EXIT_POSITIVITY
    assert "error:" in capsys.readouterr().err
    assert main(["simulate", "--config", path, "--permissive"]) == EXIT_OK


MODEL = base_config()["model"]
CONVERGENCE = {"method": "factorized"}
# each numeric config key: value -> (command, overrides that set it)
NUMERIC_KEYS = {
    **{f"model.{key}": lambda v, key=key: ("simulate", {"model": {**MODEL, key: v}})
       for key in ("omega", "mu", "nu", "kappa_re", "kappa_im", "theta", "dim")},
    "initial_state.n": lambda v: (
        "simulate", {"initial_state": {"kind": "fock", "n": v}}),
    **{f"initial_state.{key}": lambda v, key=key: (
        "simulate", {"initial_state": {"kind": "coherent", key: v}})
       for key in ("alpha_re", "alpha_im")},
    "initial_state.nbar": lambda v: (
        "simulate", {"initial_state": {"kind": "thermal", "nbar": v}}),
    "times": lambda v: ("simulate", {"times": [0.0, v]}),
    "times.t_max": lambda v: ("simulate", {"times": {"t_max": v, "n_points": 3}}),
    "times.n_points": lambda v: ("simulate", {"times": {"t_max": 1.0, "n_points": v}}),
    "n_steps": lambda v: ("simulate", {"n_steps": v}),
    "margin": lambda v: ("simulate", {"margin": v}),
    **{f"sweep.{param}": lambda v, param=param: (
        "sweep", {"sweep": {"param": param, "values": [v]}})
       for param in cli.SWEEP_PARAMS},
    "convergence.t_values": lambda v: (
        "convergence", {"convergence": {**CONVERGENCE, "t_values": [0.5, v]}}),
    "convergence.n_steps_values": lambda v: (
        "convergence", {"convergence": {**CONVERGENCE, "n_steps_values": [2, v]}}),
    "convergence.t_final": lambda v: (
        "convergence", {"convergence": {**CONVERGENCE, "n_steps_values": [2, 4],
                                        "t_final": v}}),
}
REJECTED = [
    ("mu<0", "sweep", {"sweep": {"param": "mu", "values": [-0.1]}}),
    ("t<0", "sweep", {"sweep": {"param": "t", "values": [-1.0]}}),
    ("omega=inf", "sweep", {"sweep": {"param": "omega", "values": [math.inf]}}),
    ("kappa_abs<0", "sweep", {"sweep": {"param": "kappa_abs", "values": [-0.1]}}),
    ("one_t_value", "convergence", {"convergence": {"method": "factorized",
                                                    "t_values": [0.5]}}),
    ("zero_steps", "convergence", {"convergence": {"method": "factorized",
                                                   "n_steps_values": [0, 4]}}),
    ("t=nan", "simulate", {"times": [math.nan]}),
    ("t=inf", "simulate", {"times": [0.0, math.inf]}),
    ("sweep_t=nan", "sweep", {"sweep": {"param": "t", "values": [0.5, math.nan]}}),
    ("t_value=0", "convergence", {"convergence": {"method": "factorized",
                                                  "t_values": [0.0, 0.5]}}),
    ("t_final=nan", "convergence", {"convergence": {"method": "factorized",
                                                    "n_steps_values": [2, 4],
                                                    "t_final": math.nan}}),
    ("nbar=nan", "simulate", {"initial_state": {"kind": "thermal", "nbar": math.nan}}),
    # the amplitudes alpha^n / sqrt(n!) overflow a double at dim 10
    ("alpha_re=1e200", "simulate", {"initial_state": {"kind": "coherent",
                                                      "alpha_re": 1e200}}),
] + [(f"{key}={v}", *at(v)) for key, at in NUMERIC_KEYS.items()
     for v in (math.nan, math.inf, -math.inf)]


@pytest.mark.parametrize("command, overrides, code", [
    *((command, overrides, EXIT_CONFIG) for _, command, overrides in REJECTED),
    # finite states of entries near 1e177, whose diagnostics overflow
    *(("simulate", {"model": {**MODEL, "kappa_re": 1e30}, "methods": [method],
                    "positivity": "permissive"}, EXIT_NUMERICAL)
      for method in ("factorized", "alternative", "series")),
    # |kappa|^2 is inf, which mu*nu does not reach
    ("simulate", {"model": {**MODEL, "kappa_re": 1e200}}, EXIT_POSITIVITY),
    # above d = 10 the exact route's Taylor plans would take 2.4e8 and 5e30
    # matvecs; TAYLOR_MAX_MATVECS refuses them before any step runs
    ("simulate", {"model": {**MODEL, "mu": 1e6, "nu": 1e6, "dim": 16},
                  "methods": ["exact"]}, EXIT_NUMERICAL),
    ("simulate", {"model": {**MODEL, "kappa_re": 1e30, "dim": 16}, "methods": ["exact"],
                  "positivity": "permissive"}, EXIT_NUMERICAL),
], ids=[name for name, _, _ in REJECTED]
    + [f"{method}_kappa_re=1e30" for method in ("factorized", "alternative", "series")]
    + ["strict_kappa_re=1e200", "exact_dim16_mu=nu=1e6", "exact_dim16_kappa_re=1e30"])
def test_rejected_values_exit_with_one_error_line(tmp_path, capsys, command,
                                                  overrides, code):
    """Exactly one stderr line, no numpy warning or traceback before it."""
    path = write_config(tmp_path, **overrides)
    assert main([command, "--config", path]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("key, where", [("model.omega", "model.omega"),
                                        ("times.t_max", "times.t_max"),
                                        ("sweep.mu", "sweep.values")])
def test_an_integer_beyond_the_double_range_is_one_error_line(tmp_path, capsys,
                                                              key, where):
    """A JSON integer literal with no finite double, a 1 and 400 zeros."""
    command, overrides = NUMERIC_KEYS[key](10 ** 400)
    path = write_config(tmp_path, **overrides)
    assert f'1{"0" * 400}' in Path(path).read_text()
    assert main([command, "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: value must be finite, got 1000")
    assert err.count("\n") == 1, err


def test_an_integer_literal_past_the_digit_limit_is_one_error_line(tmp_path, capsys):
    # json.load cannot turn a literal of more than 4300 digits into an int
    path = Path(write_config(tmp_path))
    text = path.read_text()
    assert '"omega": 1.0' in text
    path.write_text(text.replace('"omega": 1.0', '"omega": 1' + "0" * 5000))
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path} cannot be read: ")
    assert err.count("\n") == 1, err


def test_exit_code_for_numerical_failure(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericalError("synthetic breakdown")

    monkeypatch.setattr(propagators, "expm", boom)
    path = write_config(tmp_path, methods=["exact"])
    assert main(["simulate", "--config", path]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_exit_code_for_non_finite_sparse_exponential(tmp_path, capsys,
                                                     monkeypatch):
    # d = 12 has parity blocks of 72 rows, so exact runs on the Taylor
    # kernel; a NaN shift makes every step's scale factor, and so the
    # state, non-finite, which propagate_sweep reports
    plan = propagators.taylor_plan
    monkeypatch.setattr(propagators, "taylor_plan",
                        lambda block, gap: replace(plan(block, gap), shift=np.nan))
    path = write_config(tmp_path, methods=["exact"],
                        model={"omega": 1.0, "mu": 0.5, "nu": 0.2, "dim": 12})
    assert main(["simulate", "--config", path]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure: the exact route produced "
                          "non-finite entries")
    assert err.count("\n") == 1


def test_exit_code_for_memory_error(tmp_path, capsys, monkeypatch):
    # a dense generator too large to allocate: one error line, no traceback
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 381. GiB")

    monkeypatch.setattr(propagators, "build_liouvillian_trace_exact", too_large)
    path = write_config(tmp_path, methods=["exact"])
    assert main(["simulate", "--config", path]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert "Traceback" not in err


def test_exit_code_when_the_memory_estimate_exceeds_free_memory(
        tmp_path, capsys, monkeypatch):
    # the exact route refuses before it builds anything
    monkeypatch.setattr(propagators, "_available_memory", lambda: 1024)
    path = write_config(tmp_path, methods=["exact"])
    assert main(["simulate", "--config", path]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: the exact route at dim 10")
    assert err.count("\n") == 1


def test_stepped_splitting_is_memory_guarded(tmp_path, capsys, monkeypatch):
    # the CLI's stepped method forms factorized_superop's dense step map
    monkeypatch.setattr(propagators, "_available_memory", lambda: 1024)
    path = write_config(tmp_path, methods=["stepped"])
    assert main(["simulate", "--config", path]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith(
        "error: out of memory: the stepped factorized route at dim 10")
    assert err.count("\n") == 1


def test_sweep_runs_the_exact_route_in_chunks_that_fit(tmp_path, capsys,
                                                       monkeypatch):
    """With memory for two of five models the exact sweep runs three
    direct sums; with memory for none of them it exits 3."""
    path = write_config(
        tmp_path, methods=["exact", "factorized"], times=[0.8],
        model={"omega": 1.0, "mu": 0.5, "nu": 0.5, "kappa_re": 0.3, "dim": 11},
        sweep={"param": "mu", "values": [0.2, 0.4, 0.6, 0.8, 1.0]})
    assert main(["sweep", "--config", path]) == EXIT_OK
    whole = capsys.readouterr().out
    need = propagators._exact_memory(11)
    monkeypatch.setattr(propagators, "_available_memory",
                        lambda: 2 * need + need // 2)
    assert main(["sweep", "--config", path]) == EXIT_OK
    chunked = capsys.readouterr().out
    assert [r[:4] for r in csv_rows(chunked)] == [r[:4] for r in csv_rows(whole)]
    np.testing.assert_allclose(
        [[float(x) for x in r[4:]] for r in csv_rows(chunked)],
        [[float(x) for x in r[4:]] for r in csv_rows(whole)], rtol=0, atol=1e-12)
    monkeypatch.setattr(propagators, "_available_memory", lambda: need - 1)
    assert main(["sweep", "--config", path]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: the exact route at dim 11")
    assert err.count("\n") == 1


def test_stiff_exact_csv_bytes_do_not_depend_on_the_global_seed(tmp_path):
    """Rates of 1e3 put the step's 1-norm near 1.5e3, above the bound where
    scipy's expm_multiply would estimate norms from numpy's global random
    state; the exact route's Taylor plan reads the exact norm."""
    path = write_config(
        tmp_path, methods=["exact"], times=[0.0, 0.05], positivity="permissive",
        model={"omega": 1.0, "mu": 1e3, "nu": 1e3, "kappa_re": 1e-320,
               "theta": 2.0, "dim": 12},
        initial_state={"kind": "fock", "n": 5})
    outs, state = [], np.random.get_state()
    try:
        for seed in (0, 65, 67):
            np.random.seed(seed)
            out = tmp_path / f"{seed}.csv"
            assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
    finally:
        np.random.set_state(state)
    assert outs[0] == outs[1] == outs[2]


def test_exact_simulate_runs_at_dim_64(tmp_path, capsys):
    path = write_config(
        tmp_path, methods=["exact"], times={"t_max": 2.0, "n_points": 3},
        model={"omega": 1.0, "mu": 0.4, "nu": 0.1, "kappa_re": 0.1,
               "kappa_im": 0.05, "dim": 64},
        initial_state={"kind": "coherent", "alpha_re": 1.2})
    assert main(["simulate", "--config", path]) == EXIT_OK
    rows = csv_rows(capsys.readouterr().out)
    assert [r[:2] for r in rows] == [["0.0", "exact"], ["1.0", "exact"],
                                     ["2.0", "exact"]]
    assert all(abs(float(r[2]) - 1.0) <= 1e-12 for r in rows)


def test_stepped_simulate_runs_at_dim_64(tmp_path, capsys):
    # above dim 10 the stepped splitting applies its stages n_steps times
    # and forms no d^2 x d^2 step map
    path = write_config(
        tmp_path, methods=["stepped"], times={"t_max": 2.0, "n_points": 3},
        model={"omega": 1.0, "mu": 0.4, "nu": 0.1, "kappa_re": 0.1,
               "kappa_im": 0.05, "dim": 64},
        initial_state={"kind": "coherent", "alpha_re": 1.2})
    assert main(["simulate", "--config", path]) == EXIT_OK
    rows = csv_rows(capsys.readouterr().out)
    assert [r[:2] for r in rows] == [["0.0", "stepped"], ["1.0", "stepped"],
                                     ["2.0", "stepped"]]
    assert all(abs(complex(float(r[2]), float(r[3])) - 1.0) <= 1e-12
               for r in rows)


def test_stepped_simulate_is_one_kernel_pass_over_its_times(tmp_path,
                                                           monkeypatch):
    """Above dim 10 the stepped splitting evaluates every time as a column
    of one closed-form pass, and each time keeps its one-time bytes."""
    model = {"omega": 1.0, "mu": 0.4, "nu": 0.1, "kappa_re": 0.1,
             "kappa_im": 0.05, "dim": 12}
    times = [0.25, 0.5, 1.0, 1.5, 2.0]
    passes = []
    real = propagators._closed_form

    def recording(models, ts, method):
        passes.append(len(ts))
        return real(models, ts, method)

    monkeypatch.setattr(propagators, "_closed_form", recording)
    out = tmp_path / "all.csv"
    path = write_config(tmp_path, model=model, methods=["stepped"], times=times)
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
    assert passes == [len(times)]
    lines = [HEADER + "\n"]
    for k, t in enumerate(times):
        one = tmp_path / f"{k}.csv"
        path = write_config(tmp_path, f"{k}.json", model=model,
                            methods=["stepped"], times=[t])
        assert main(["simulate", "--config", path, "--out", str(one)]) == EXIT_OK
        lines += one.read_text().splitlines(keepends=True)[1:]
    assert out.read_bytes() == "".join(lines).encode()


def test_stepped_exact_convergence_is_memory_guarded(tmp_path, capsys,
                                                      monkeypatch):
    # stepped exact runs on the exact grid route, behind the same estimate
    monkeypatch.setattr(propagators, "_available_memory", lambda: 1024)
    path = write_config(
        tmp_path,
        convergence={"method": "exact", "n_steps_values": [2, 4],
                     "t_final": 1.0})
    assert main(["convergence", "--config", path]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: the exact route at dim 10")
    assert err.count("\n") == 1


# ----------------------------------------------------------- start-up


def test_commands_above_dim_10_load_no_scipy_linalg(tmp_path):
    """simulate (exact, factorized, series), sweep (every method) and
    verify-algebra at d = 12, in a fresh interpreter, import neither
    scipy.linalg nor scipy.sparse.linalg: only the dense block
    exponential of d <= 10 needs scipy.linalg, and loads it on use."""
    model = {"omega": 1.0, "mu": 0.5, "nu": 0.5, "kappa_re": 0.3, "dim": 12}
    simulate = write_config(tmp_path, "simulate.json", model=model,
                            methods=["exact", "factorized", "series"],
                            times={"t_max": 2.0, "n_points": 5})
    sweep = write_config(tmp_path, "sweep.json", model=model, times=[0.8],
                         methods=["exact", "factorized", "alternative",
                                  "series", "stepped"],
                         sweep={"param": "kappa_abs", "values": [0.0, 0.2, 0.4]})
    runs = [["simulate", "--config", simulate, "--out", str(tmp_path / "a.csv")],
            ["sweep", "--config", sweep, "--out", str(tmp_path / "b.csv")],
            ["verify-algebra", "--dim", "12", "--margin", "2"]]
    code = ("import json, sys\n"
            "from qdamp.cli import main\n"
            f"codes = [main(argv) for argv in {runs!r}]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if m in "
            "('scipy.linalg', 'scipy.sparse.linalg'))]))\n")
    src = str(Path(qdamp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out.splitlines()[-1]) == [[EXIT_OK] * 3, []]


def test_cli_reads_only_the_sweep_driver_and_method_names_of_propagators():
    """Every route is reached through propagate_sweep, so the method
    dispatch lives in propagators alone."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "propagators"}
    assert read == {"propagate_sweep", "METHODS"}
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.endswith("propagators")]


def test_cli_opens_its_output_in_main_alone():
    """The commands return their rows and main writes them: outside
    load_config's read, open is called only in main, and no command takes
    a path, flag or stream."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    opens = Counter(f.name for f in functions for node in ast.walk(f)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name) and node.func.id == "open")
    assert set(opens) == {"load_config", "main"}
    assert opens["load_config"] == 1
    params = {f.name: [a.arg for a in f.args.args] for f in functions
              if f.name.startswith("cmd_")}
    assert params == {"cmd_simulate": ["cfg"], "cmd_convergence": ["cfg"],
                      "cmd_sweep": ["cfg"],
                      "cmd_verify_algebra": ["dim", "margin", "theta"]}


@pytest.mark.parametrize("command, overrides, kinds", [
    ("simulate", {}, "rrrr"),
    # mu = 0.05 violates mu*nu >= |kappa|^2 and is skipped where it stands
    ("sweep", {"sweep": {"param": "mu", "values": [0.4, 0.05, 0.3]}}, "rr#rr"),
    ("convergence", {"convergence": {"method": "factorized",
                                     "n_steps_values": [2, 4, 8]}}, "rrr##"),
])
def test_out_file_and_stdout_carry_the_same_bytes(tmp_path, capsys, command,
                                                  overrides, kinds):
    """A row is a data line (r) or a "# " comment (#), in the order the
    command returns them; the slope and exactness comments come last."""
    path = write_config(
        tmp_path, model={"omega": 1.0, "mu": 0.5, "nu": 0.5, "kappa_re": 0.3,
                         "dim": 8}, **overrides)
    out = tmp_path / "out.csv"
    assert main([command, "--config", path, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert main([command, "--config", path]) == EXIT_OK
    text = capsys.readouterr().out
    assert out.read_bytes() == text.encode("utf-8")
    lines = text.splitlines()
    assert "".join("#" if ln.startswith("# ") else "r" for ln in lines[1:]) == kinds
    if command == "convergence":
        assert lines[-2].startswith("# slope = ")
        assert lines[-1].startswith("# exact_within_noise = ")


# ----------------------------------------------------------- determinism


def test_repeated_runs_are_bit_identical(tmp_path):
    path = sweep_config(tmp_path,
                        sweep={"param": "kappa_abs", "values": [0.0, 0.2, 0.5]})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sweep", "--config", path, "--out", str(a)])
    main(["sweep", "--config", path, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sparse_exact_runs_are_bit_identical(tmp_path):
    """One gap of 40 at d = 12 puts ||gap L_k||_1 far above 63, where
    scipy's expm_multiply would pick its step count from a norm estimate
    that starts from numpy's global random state; the exact route's
    Taylor plan reads the exact norm."""
    path = write_config(tmp_path, methods=["exact"], times=[0.0, 40.0],
                        model={"omega": 1.0, "mu": 0.5, "nu": 0.2,
                               "kappa_re": 0.3, "dim": 12})
    outs, state = [], np.random.get_state()
    try:
        for seed in (1, 2):
            np.random.seed(seed)
            out = tmp_path / f"{seed}.csv"
            assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
    finally:
        np.random.set_state(state)
    assert outs[0] == outs[1]


def test_output_flag_beats_config_output(tmp_path):
    cfg_out = tmp_path / "from_config.csv"
    flag_out = tmp_path / "from_flag.csv"
    path = write_config(tmp_path, output=str(cfg_out))
    main(["simulate", "--config", path, "--out", str(flag_out)])
    assert flag_out.exists() and not cfg_out.exists()
    main(["simulate", "--config", path])
    assert cfg_out.exists()
