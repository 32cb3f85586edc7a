"""Batch driver: configure a model from a JSON file, run it, emit CSV.

Subcommands:
  simulate        time series of state diagnostics for each requested method
  verify-algebra  labeled residual report for the superoperator algebra
  convergence     splitting-error study (single-step or fixed-horizon)
  sweep           final-time diagnostics across one swept parameter

Exit codes: 0 success, 1 config/parse error, a value the library
rejects or an output path that cannot be written (also a failed
verification verdict), 2 positivity rejection in strict mode, 3
numerical failure or an allocation that does not fit in memory.
All CSV output is deterministic: identical config gives bit-identical
bytes.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence, TextIO

import numpy as np

from .algebra import verify_algebra
from .diagnostics import compare_states, convergence_study, state_diagnostics
from .fock import build_fock_ops, coherent_state, fock_state, thermal_state
from .linalg import NumericalError
from .liouvillian import ModelParams, PositivityError
from . import propagators

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_POSITIVITY = 2
EXIT_NUMERICAL = 3

ALGEBRA_TOL = 1e-12
MIN_DIM = 2
MAX_DIM = 64

SIMULATE_COLUMNS = (
    "t", "method", "trace_re", "trace_im", "herm_residual", "min_eig",
    "purity", "mean_n", "tail_mass", "dist_to_exact_frob",
    "dist_to_exact_tracedist",
)
CONVERGENCE_COLUMNS = ("mode", "method", "x", "error_frobenius",
                       "error_tracedist")
SWEEP_PARAMS = ("kappa_abs", "kappa_arg", "mu", "nu", "omega", "t")
STATE_KINDS = ("fock", "coherent", "thermal")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _fmt(x) -> str:
    """Shortest round-trip decimal for a float; '' for a missing value."""
    if x is None:
        return ""
    return repr(float(x))


def _require_keys(d: dict, where: str, required: Sequence[str],
                  optional: Sequence[str] = ()) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {missing}")


def _as_float(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where} must be a number")
    return float(v)


def _as_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where} must be an integer")
    return v


@dataclass(frozen=True)
class RunConfig:
    """Validated run description, built by from_dict from the JSON config."""

    model: ModelParams
    initial_state: dict
    times: tuple
    methods: tuple
    n_steps: int = 8
    positivity: str = "strict"
    margin: int = 4
    output: Optional[str] = None
    sweep: Optional[dict] = None
    convergence: Optional[dict] = None

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        _require_keys(raw, "config",
                      required=("model", "initial_state", "times", "methods"),
                      optional=("n_steps", "positivity", "margin", "output",
                                "sweep", "convergence"))
        m = raw["model"]
        _require_keys(m, "model", required=("omega", "mu", "nu", "dim"),
                      optional=("kappa_re", "kappa_im", "theta"))
        try:
            model = ModelParams(
                omega=_as_float(m["omega"], "model.omega"),
                mu=_as_float(m["mu"], "model.mu"),
                nu=_as_float(m["nu"], "model.nu"),
                kappa=complex(_as_float(m.get("kappa_re", 0.0), "model.kappa_re"),
                              _as_float(m.get("kappa_im", 0.0), "model.kappa_im")),
                dim=_as_int(m["dim"], "model.dim"),
                theta=_as_float(m.get("theta", 0.0), "model.theta"),
            )
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from exc

        state = RunConfig._parse_state(raw["initial_state"], model.dim)
        times = RunConfig._parse_times(raw["times"])
        methods = RunConfig._parse_methods(raw["methods"])

        n_steps = _as_int(raw.get("n_steps", 8), "n_steps")
        if n_steps < 1:
            raise ConfigError("n_steps must be >= 1")
        positivity = raw.get("positivity", "strict")
        if positivity not in ("strict", "permissive"):
            raise ConfigError("positivity must be 'strict' or 'permissive'")
        margin = _as_int(raw.get("margin", 4), "margin")
        if margin < 0:
            raise ConfigError("margin must be >= 0")
        output = raw.get("output")
        if output is not None and not isinstance(output, str):
            raise ConfigError("output must be a path string")

        sweep = raw.get("sweep")
        if sweep is not None:
            _require_keys(sweep, "sweep", required=("param", "values"))
            if sweep["param"] not in SWEEP_PARAMS:
                raise ConfigError(
                    f"sweep.param must be one of {list(SWEEP_PARAMS)}")
            vals = sweep["values"]
            if not isinstance(vals, list) or not vals:
                raise ConfigError("sweep.values must be a nonempty list")
            vals = [_as_float(v, "sweep.values") for v in vals]
            if sweep["param"] == "kappa_abs" and any(v < 0 for v in vals):
                raise ConfigError("sweep.values for kappa_abs must be >= 0")
            sweep = {"param": sweep["param"], "values": vals}

        conv = raw.get("convergence")
        if conv is not None:
            conv = RunConfig._parse_convergence(conv)

        return RunConfig(model=model, initial_state=state, times=times,
                         methods=methods, n_steps=n_steps,
                         positivity=positivity, margin=margin, output=output,
                         sweep=sweep, convergence=conv)

    @staticmethod
    def _parse_state(s: dict, dim: int) -> dict:
        _require_keys(s, "initial_state", required=("kind",),
                      optional=("n", "alpha_re", "alpha_im", "nbar"))
        kind = s.get("kind")
        if kind not in STATE_KINDS:
            raise ConfigError(f"initial_state.kind must be one of {list(STATE_KINDS)}")
        if kind == "fock":
            n = _as_int(s.get("n", 0), "initial_state.n")
            if not 0 <= n < dim:
                raise ConfigError(f"initial_state.n must be in 0..{dim - 1}")
            return {"kind": "fock", "n": n}
        if kind == "coherent":
            return {"kind": "coherent",
                    "alpha_re": _as_float(s.get("alpha_re", 0.0), "initial_state.alpha_re"),
                    "alpha_im": _as_float(s.get("alpha_im", 0.0), "initial_state.alpha_im")}
        nbar = _as_float(s.get("nbar", 0.0), "initial_state.nbar")
        if nbar < 0:
            raise ConfigError("initial_state.nbar must be >= 0")
        return {"kind": "thermal", "nbar": nbar}

    @staticmethod
    def _parse_times(t) -> tuple:
        if isinstance(t, dict):
            _require_keys(t, "times", required=("t_max", "n_points"))
            t_max = _as_float(t["t_max"], "times.t_max")
            n_points = _as_int(t["n_points"], "times.n_points")
            if t_max <= 0 or n_points < 1:
                raise ConfigError("times requires t_max > 0 and n_points >= 1")
            return tuple(float(x) for x in np.linspace(0.0, t_max, n_points))
        if not isinstance(t, list) or not t:
            raise ConfigError("times must be a nonempty list or {t_max, n_points}")
        out = [_as_float(v, "times") for v in t]
        if any(v < 0 for v in out):
            raise ConfigError("times must be nonnegative")
        if any(b <= a for a, b in zip(out, out[1:])):
            raise ConfigError("times must be strictly increasing")
        return tuple(out)

    @staticmethod
    def _parse_methods(ms) -> tuple:
        if not isinstance(ms, list) or not ms:
            raise ConfigError("methods must be a nonempty list")
        names = propagators.METHODS + ("stepped",)
        bad = [m for m in ms if m not in names]
        if bad:
            raise ConfigError(f"unknown method(s) {bad}; "
                              f"choose from {list(names)}")
        if len(set(ms)) != len(ms):
            raise ConfigError("methods must not repeat")
        return tuple(ms)

    @staticmethod
    def _parse_convergence(c: dict) -> dict:
        _require_keys(c, "convergence", required=("method",),
                      optional=("t_values", "n_steps_values", "t_final"))
        method = c.get("method")
        if method not in propagators.SUPEROP_METHODS:
            raise ConfigError("convergence.method must be one of "
                              f"{list(propagators.SUPEROP_METHODS)}")
        has_local = "t_values" in c
        has_global = "n_steps_values" in c
        if has_local == has_global:
            raise ConfigError("convergence needs exactly one of t_values or "
                              "n_steps_values")
        if has_local:
            ts = c["t_values"]
            if not isinstance(ts, list) or not ts:
                raise ConfigError("convergence.t_values must be a nonempty list")
            return {"method": method,
                    "t_values": [_as_float(v, "convergence.t_values") for v in ts]}
        ns = c["n_steps_values"]
        if not isinstance(ns, list) or not ns:
            raise ConfigError("convergence.n_steps_values must be a nonempty list")
        t_final = _as_float(c.get("t_final", 1.0), "convergence.t_final")
        if t_final <= 0:
            raise ConfigError("convergence.t_final must be > 0")
        return {"method": method,
                "n_steps_values": [_as_int(v, "convergence.n_steps_values") for v in ns],
                "t_final": t_final}

    def initial_density_matrix(self) -> np.ndarray:
        s = self.initial_state
        if s["kind"] == "fock":
            return fock_state(self.model.dim, s["n"])
        if s["kind"] == "coherent":
            return coherent_state(self.model.dim,
                                  complex(s["alpha_re"], s["alpha_im"]))
        return thermal_state(self.model.dim, s["nbar"])


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(raw)


def _states(cfg: RunConfig, models: Sequence[ModelParams], rho0: np.ndarray,
            times: Sequence[float]) -> dict:
    """Each method's states at every point, the methods in sorted order.

    The points are models x times, model after model, and each method is
    one propagate_sweep call; stepped is the factorized splitting in
    cfg.n_steps steps.
    """
    out = {}
    for m in sorted(cfg.methods):
        method, n_steps = ("factorized", cfg.n_steps) if m == "stepped" else (m, None)
        out[m] = [r.rho_t for per_model in propagators.propagate_sweep(
            models, rho0, times, method, n_steps) for r in per_model]
    return out


def _diag_cells(rho: np.ndarray, margin: int) -> list:
    rec = state_diagnostics(rho, margin=margin)
    return [_fmt(rec.trace.real), _fmt(rec.trace.imag),
            _fmt(rec.herm_residual), _fmt(rec.min_eigenvalue),
            _fmt(rec.purity), _fmt(rec.mean_n), _fmt(rec.tail_mass)]


def _rows(cfg: RunConfig, times: Sequence[float], states: dict) -> list:
    """Simulate rows per point: one list per point, methods in the order
    of states, which maps each method to its states, one per point; point
    k is at times[k]."""
    exact = states.get("exact")
    out = []
    for k, t in enumerate(times):
        rows = []
        for m, series in states.items():
            dist_f = dist_t = None
            if exact is not None:
                dist_f, dist_t = compare_states(series[k], exact[k])
            rows.append([_fmt(t), m] + _diag_cells(series[k], cfg.margin)
                        + [_fmt(dist_f), _fmt(dist_t)])
        out.append(rows)
    return out


def _open_out(cfg_output: Optional[str], out_flag: Optional[str]):
    """Context manager yielding the output stream; only a file is closed."""
    path = out_flag or cfg_output
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write_csv(stream: TextIO, header: Sequence[str], rows: list,
               comments: Sequence[str] = ()) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    for line in comments:
        stream.write(f"# {line}\n")


def cmd_simulate(cfg: RunConfig, out_flag: Optional[str]) -> int:
    if cfg.positivity == "strict":
        cfg.model.require_positivity()
    rho0 = cfg.initial_density_matrix()
    states = _states(cfg, [cfg.model], rho0, cfg.times)
    rows = [row for at_t in _rows(cfg, cfg.times, states) for row in at_t]
    with _open_out(cfg.output, out_flag) as stream:
        _write_csv(stream, SIMULATE_COLUMNS, rows)
    return EXIT_OK


def cmd_verify_algebra(dim: int, margin: int, theta: float) -> int:
    if not MIN_DIM <= dim <= MAX_DIM:
        raise ConfigError(f"dim must be in {MIN_DIM}..{MAX_DIM}")
    if margin < 0:
        raise ConfigError("margin must be >= 0")
    report = verify_algebra(build_fock_ops(dim, theta=theta), margin=margin)
    print(report.to_text(ALGEBRA_TOL))
    return EXIT_OK if report.all_within(ALGEBRA_TOL) else EXIT_CONFIG


def cmd_convergence(cfg: RunConfig, out_flag: Optional[str]) -> int:
    if cfg.convergence is None:
        raise ConfigError("convergence subcommand needs a 'convergence' "
                          "section in the config")
    if cfg.positivity == "strict":
        cfg.model.require_positivity()
    table = convergence_study(cfg.model, cfg.initial_density_matrix(),
                              **cfg.convergence)
    rows = [[table.mode, table.method, _fmt(x), _fmt(ef), _fmt(et)]
            for x, ef, et in zip(table.xs, table.errors_frobenius,
                                 table.errors_trace_distance)]
    comments = [f"slope = {_fmt(table.slope) if table.slope is not None else 'nan'}",
                f"exact_within_noise = {str(table.exact_within_noise).lower()}"]
    with _open_out(cfg.output, out_flag) as stream:
        _write_csv(stream, CONVERGENCE_COLUMNS, rows, comments)
    return EXIT_OK


def _swept_model(model: ModelParams, param: str, value: float) -> ModelParams:
    if param == "kappa_abs":
        phase = np.exp(1j * np.angle(model.kappa)) if model.kappa != 0 else 1.0
        return replace(model, kappa=value * phase)
    if param == "kappa_arg":
        return replace(model, kappa=abs(model.kappa) * np.exp(1j * value))
    return replace(model, **{param: value})


def cmd_sweep(cfg: RunConfig, out_flag: Optional[str]) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep subcommand needs a 'sweep' section in the "
                          "config")
    param = cfg.sweep["param"]
    values = cfg.sweep["values"]
    rho0 = cfg.initial_density_matrix()   # no sweep parameter changes dim

    def admissible(model: ModelParams) -> bool:
        return cfg.positivity != "strict" or model.positivity_satisfied

    if param == "t":
        # one model, evolved once over the sorted distinct swept times
        grid = sorted(set(values))
        at = (dict(zip(grid, _rows(cfg, grid, _states(cfg, [cfg.model], rho0, grid))))
              if admissible(cfg.model) else {})
        results = [(v, at.get(v)) for v in values]
    else:
        # every admissible model at the final time, one pass per method
        models = [_swept_model(cfg.model, param, v) for v in values]
        keep = [k for k, model in enumerate(models) if admissible(model)]
        chosen, t = [models[k] for k in keep], cfg.times[-1]
        states = _states(cfg, chosen, rho0, [t]) if chosen else {}
        at = dict(zip(keep, _rows(cfg, [t] * len(keep), states)))
        results = [(v, at.get(k)) for k, v in enumerate(values)]
    with _open_out(cfg.output, out_flag) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(("param", "value") + SIMULATE_COLUMNS)
        for value, rows in results:
            if rows is None:
                stream.write(f"# skipped {param}={_fmt(value)}: positivity "
                             "mu*nu >= |kappa|^2 violated\n")
                continue
            for row in rows:
                writer.writerow([param, _fmt(value)] + row)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdamp",
        description="Damped-oscillator propagator toolkit (CSV in, CSV out).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="path to a JSON run config")
        p.add_argument("--out", default=None,
                       help="output CSV path (default: config 'output' or stdout)")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--strict", dest="positivity", action="store_const",
                          const="strict",
                          help="reject parameter sets with mu*nu < |kappa|^2")
        mode.add_argument("--permissive", dest="positivity",
                          action="store_const", const="permissive",
                          help="run even when mu*nu < |kappa|^2")
        p.set_defaults(positivity=None)

    add_common(sub.add_parser("simulate", help="time series per method"))
    add_common(sub.add_parser("convergence", help="splitting-error study"))
    add_common(sub.add_parser("sweep", help="sweep one parameter"))

    va = sub.add_parser("verify-algebra",
                        help="residual report for the superoperator algebra")
    va.add_argument("--dim", type=int, default=8)
    va.add_argument("--margin", type=int, default=2)
    va.add_argument("--theta", type=float, default=0.0)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; fold that into the config-error code
        # and keep 0 for --help.
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG

    try:
        if args.command == "verify-algebra":
            return cmd_verify_algebra(args.dim, args.margin, args.theta)
        cfg = load_config(args.config)
        if args.positivity is not None:
            cfg = replace(cfg, positivity=args.positivity)
        path = args.out or cfg.output
        if path is not None:   # fail before any route runs; leave the path as it is
            existed = os.path.exists(path)
            open(path, "a", encoding="utf-8").close()
            if not existed:
                os.remove(path)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "convergence":
            return cmd_convergence(cfg, args.out)
        return cmd_sweep(cfg, args.out)
    # PositivityError and LinAlgError subclass ValueError, so they go first;
    # any other ValueError is an input the library rejected.
    except PositivityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_POSITIVITY
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:     # an output path that cannot be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point() -> None:
    sys.exit(main())
