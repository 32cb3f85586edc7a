"""Batch driver: configure a model from a JSON file, run it, emit CSV.

Subcommands:
  simulate        time series of state diagnostics for each requested method
  verify-algebra  labeled residual report for the superoperator algebra
  convergence     splitting-error study (single-step or fixed-horizon)
  sweep           final-time diagnostics across one swept parameter

Output: simulate, convergence and sweep each write one CSV to --out,
otherwise to the config's "output", otherwise to stdout.  A comment line
in it begins with "# ".  verify-algebra prints its report to stdout.

Config values are checked at load: the loader checks the JSON's shape
(keys, types, lists) and hands each value to the function that owns its
rule (ModelParams, the fock state builders, check_time, check_steps,
check_margin, convergence_points, _sweep_points), whose ValueError it
raises again as a ConfigError that names the config key.

Exit codes: 0 success, 1 config/parse error, a value the library
rejects or an output path that cannot be written (also a FAIL verdict,
a residual above the report's threshold), 2 positivity rejection in
strict mode, 3 numerical failure or an allocation that does not fit in memory.
All CSV output is deterministic: identical config gives bit-identical
bytes.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence, TextIO

import numpy as np

from .algebra import verify_algebra
from .coefficients import check_steps, check_time
from .diagnostics import (compare_states, convergence_points,
                          convergence_study, state_diagnostics)
from .fock import build_fock_ops, coherent_state, fock_state, thermal_state
from .linalg import NumericalError, check_margin, check_real
from .liouvillian import ModelParams, PositivityError
from . import propagators

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_POSITIVITY = 2
EXIT_NUMERICAL = 3

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
    """v as a float; an integer must have a finite one (check_real), while
    a float, finite or not, is left to the check of the key that reads it."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where} must be a number")
    return v if isinstance(v, float) else _checked(where, check_real, v, "value")


def _as_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where} must be an integer")
    return v


def _checked(key: str, check, *args, **kwargs):
    """check(*args, **kwargs), its ValueError raised again as a
    ConfigError that names the config key."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated run description, built by from_dict from the JSON config;
    rho0 is the initial density matrix."""

    model: ModelParams
    rho0: np.ndarray
    times: tuple
    methods: tuple
    n_steps: int
    positivity: str
    margin: int
    output: Optional[str] = None
    sweep: Optional[dict] = None
    convergence: Optional[dict] = None

    def admits(self, model: ModelParams) -> bool:
        """Whether the positivity mode lets model run: permissive admits
        every model, strict those with mu*nu >= |kappa|^2."""
        return self.positivity != "strict" or model.positivity_satisfied

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        _require_keys(raw, "config",
                      required=("model", "initial_state", "times", "methods"),
                      optional=("n_steps", "positivity", "margin", "output",
                                "sweep", "convergence"))
        m = raw["model"]
        _require_keys(m, "model", required=("omega", "mu", "nu", "dim"),
                      optional=("kappa_re", "kappa_im", "theta"))
        model = _checked(
            "model", ModelParams,
            omega=_as_float(m["omega"], "model.omega"),
            mu=_as_float(m["mu"], "model.mu"),
            nu=_as_float(m["nu"], "model.nu"),
            kappa=complex(_as_float(m.get("kappa_re", 0.0), "model.kappa_re"),
                          _as_float(m.get("kappa_im", 0.0), "model.kappa_im")),
            dim=_as_int(m["dim"], "model.dim"),
            theta=_as_float(m.get("theta", 0.0), "model.theta"))
        positivity = raw.get("positivity", "strict")
        if positivity not in ("strict", "permissive"):
            raise ConfigError("positivity must be 'strict' or 'permissive'")
        output = raw.get("output")
        if output is not None and not isinstance(output, str):
            raise ConfigError("output must be a path string")
        sweep, conv = raw.get("sweep"), raw.get("convergence")
        cfg = RunConfig(
            model=model,
            rho0=RunConfig._parse_state(raw["initial_state"], model.dim),
            times=RunConfig._parse_times(raw["times"]),
            methods=RunConfig._parse_methods(raw["methods"]),
            n_steps=_checked("n_steps", check_steps,
                             _as_int(raw.get("n_steps", 8), "n_steps")),
            positivity=positivity,
            margin=_checked("margin", check_margin,
                            _as_int(raw.get("margin", 4), "margin")),
            output=output,
            sweep=None if sweep is None else RunConfig._parse_sweep(sweep),
            convergence=None if conv is None else RunConfig._parse_convergence(conv))
        if sweep is not None:
            _checked("sweep.values", _sweep_points, cfg)
        return cfg

    @staticmethod
    def _parse_state(s: dict, dim: int) -> np.ndarray:
        _require_keys(s, "initial_state", required=("kind",),
                      optional=("n", "alpha_re", "alpha_im", "nbar"))
        kind = s["kind"]
        if kind == "fock":
            build, arg = fock_state, _as_int(s.get("n", 0), "initial_state.n")
        elif kind == "coherent":
            build, arg = coherent_state, complex(
                _as_float(s.get("alpha_re", 0.0), "initial_state.alpha_re"),
                _as_float(s.get("alpha_im", 0.0), "initial_state.alpha_im"))
        elif kind == "thermal":
            build, arg = thermal_state, _as_float(s.get("nbar", 0.0),
                                                  "initial_state.nbar")
        else:
            raise ConfigError(f"initial_state.kind must be one of {list(STATE_KINDS)}")
        return _checked("initial_state", build, dim, arg)

    @staticmethod
    def _parse_times(t) -> tuple:
        if isinstance(t, dict):
            _require_keys(t, "times", required=("t_max", "n_points"))
            t_max = _checked("times.t_max", check_time,
                             _as_float(t["t_max"], "times.t_max"))
            n_points = _as_int(t["n_points"], "times.n_points")
            if n_points < 1:
                raise ConfigError("times.n_points must be >= 1")
            out = [float(x) for x in np.linspace(0.0, t_max, n_points)]
        elif isinstance(t, list) and t:
            out = [_checked("times", check_time, _as_float(v, "times")) for v in t]
        else:
            raise ConfigError("times must be a nonempty list or {t_max, n_points}")
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
    def _parse_sweep(s: dict) -> dict:
        _require_keys(s, "sweep", required=("param", "values"))
        if s["param"] not in SWEEP_PARAMS:
            raise ConfigError(f"sweep.param must be one of {list(SWEEP_PARAMS)}")
        if not isinstance(s["values"], list) or not s["values"]:
            raise ConfigError("sweep.values must be a nonempty list")
        return {"param": s["param"],
                "values": [_as_float(v, "sweep.values") for v in s["values"]]}

    @staticmethod
    def _parse_convergence(c: dict) -> dict:
        _require_keys(c, "convergence", required=("method",),
                      optional=("t_values", "n_steps_values", "t_final"))
        if c["method"] not in propagators.METHODS:
            raise ConfigError("convergence.method must be one of "
                              f"{list(propagators.METHODS)}")
        out = {"method": c["method"]}
        for key, parse in (("t_values", _as_float), ("n_steps_values", _as_int)):
            if key in c:
                if not isinstance(c[key], list):
                    raise ConfigError(f"convergence.{key} must be a list")
                out[key] = [parse(v, f"convergence.{key}") for v in c[key]]
        if "n_steps_values" in out:
            out["t_final"] = _as_float(c.get("t_final", 1.0), "convergence.t_final")
        _checked("convergence", convergence_points, out.get("t_values"),
                 out.get("n_steps_values"), out.get("t_final"))
        return out


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:   # e.g. an integer literal past int's digit limit
        raise ConfigError(f"config {path} cannot be read: {exc}") from exc
    return RunConfig.from_dict(raw)


def _states(cfg: RunConfig, models: Sequence[ModelParams],
            times: Sequence[float]) -> dict:
    """Each method's n x d x d stack of states, one per point, the methods
    in sorted order.

    The points are models x times, model after model, and each method is
    one propagate_sweep call from cfg.rho0 (no swept parameter changes
    dim); stepped is the factorized splitting in cfg.n_steps steps.
    """
    out = {}
    for m in sorted(cfg.methods):
        method, n_steps = ("factorized", cfg.n_steps) if m == "stepped" else (m, 1)
        out[m] = np.array([r.rho_t for per_model in propagators.propagate_sweep(
            models, cfg.rho0, times, method, n_steps) for r in per_model])
    return out


def _rows(cfg: RunConfig, times: Sequence[float], states: dict) -> list:
    """Simulate rows per point: one list per point, methods in the order
    of states, which maps each method to its stack of states, one per
    point; point k is at times[k].

    Each method's states are diagnosed, and compared with the exact ones,
    as one stack; the exact states' distance to themselves is 0.0.
    """
    exact = states.get("exact")
    cells = {}
    for m, stack in states.items():
        if exact is None:
            dists = [(None, None)] * len(stack)
        elif m == "exact":
            dists = [(0.0, 0.0)] * len(stack)
        else:
            dists = compare_states(stack, exact)
        cells[m] = [[_fmt(rec.trace.real), _fmt(rec.trace.imag),
                     _fmt(rec.herm_residual), _fmt(rec.min_eigenvalue),
                     _fmt(rec.purity), _fmt(rec.mean_n), _fmt(rec.tail_mass),
                     _fmt(dist_f), _fmt(dist_t)]
                    for rec, (dist_f, dist_t) in zip(
                        state_diagnostics(stack, margin=cfg.margin), dists)]
    return [[[_fmt(t), m] + cells[m][k] for m in states] for k, t in enumerate(times)]


def _write_csv(stream: TextIO, header: Sequence[str], rows: list) -> None:
    """One CSV: the header, then each row; a str row is a "# " line."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if isinstance(row, str):
            stream.write(f"# {row}\n")
        else:
            writer.writerow(row)


def cmd_simulate(cfg: RunConfig) -> tuple:
    if not cfg.admits(cfg.model):
        cfg.model.require_positivity()
    states = _states(cfg, [cfg.model], cfg.times)
    return SIMULATE_COLUMNS, [row for at_t in _rows(cfg, cfg.times, states)
                              for row in at_t]


def cmd_verify_algebra(dim: int, margin: int, theta: float) -> int:
    """verify_algebra's report; its owners check dim, margin and theta."""
    if dim > MAX_DIM:
        raise ConfigError(f"dim must be in 2..{MAX_DIM}")
    report = verify_algebra(build_fock_ops(dim, theta=theta), margin=margin)
    print(report.to_text())
    return EXIT_OK if report.all_within() else EXIT_CONFIG


def cmd_convergence(cfg: RunConfig) -> tuple:
    if cfg.convergence is None:
        raise ConfigError("convergence subcommand needs a 'convergence' "
                          "section in the config")
    if not cfg.admits(cfg.model):
        cfg.model.require_positivity()
    table = convergence_study(cfg.model, cfg.rho0, **cfg.convergence)
    rows = [[table.mode, table.method, _fmt(x), _fmt(ef), _fmt(et)]
            for x, ef, et in zip(table.xs, table.errors_frobenius,
                                 table.errors_trace_distance)]
    rows += [f"slope = {_fmt(table.slope) if table.slope is not None else 'nan'}",
             f"exact_within_noise = {str(table.exact_within_noise).lower()}"]
    return CONVERGENCE_COLUMNS, rows


def _swept_model(model: ModelParams, param: str, value: float) -> ModelParams:
    """model with param set to value; ValueError for a non-finite kappa_abs or
    kappa_arg, a negative kappa_abs or a model that ModelParams rejects."""
    if param == "kappa_abs":
        if check_real(value, param) < 0:
            raise ValueError(f"kappa_abs must be >= 0, got {value}")
        phase = np.exp(1j * np.angle(model.kappa)) if model.kappa != 0 else 1.0
        return replace(model, kappa=value * phase)
    if param == "kappa_arg":
        phase = np.exp(1j * check_real(value, param))
        return replace(model, kappa=abs(model.kappa) * phase)
    return replace(model, **{param: value})


def _sweep_points(cfg: RunConfig) -> list:
    """Each swept value's point (model, time): the model at the value for
    t, else the value's model (_swept_model) at the last time."""
    param = cfg.sweep["param"]
    return [(cfg.model, check_time(v)) if param == "t"
            else (_swept_model(cfg.model, param, v), cfg.times[-1])
            for v in cfg.sweep["values"]]


def cmd_sweep(cfg: RunConfig) -> tuple:
    if cfg.sweep is None:
        raise ConfigError("sweep subcommand needs a 'sweep' section in the "
                          "config")
    param = cfg.sweep["param"]
    values = cfg.sweep["values"]
    # one pass per method over the distinct admitted models x the
    # distinct times
    points = _sweep_points(cfg)
    kept = [(model, t) for model, t in points if cfg.admits(model)]
    models = list(dict.fromkeys(model for model, _ in kept))
    times = sorted({t for _, t in kept})
    states = _states(cfg, models, times) if models else {}
    grid = [(model, t) for model in models for t in times]
    at = dict(zip(grid, _rows(cfg, [t for _, t in grid], states)))
    rows = []
    for value, point in zip(values, points):
        if point in at:
            rows += [[param, _fmt(value)] + row for row in at[point]]
        else:
            rows.append(f"skipped {param}={_fmt(value)}: positivity "
                        "mu*nu >= |kappa|^2 violated")
    return ("param", "value") + SIMULATE_COLUMNS, rows


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


_parser = functools.cache(build_parser)     # main's, built on its first call


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
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
        run = {"simulate": cmd_simulate, "convergence": cmd_convergence,
               "sweep": cmd_sweep}[args.command]
        header, rows = run(cfg)
        if path is None:
            _write_csv(sys.stdout, header, rows)
        else:
            with open(path, "w", encoding="utf-8", newline="") as stream:
                _write_csv(stream, header, rows)
        return EXIT_OK
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


if __name__ == "__main__":
    entry_point()
