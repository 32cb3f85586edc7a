"""State health metrics, state distances, and splitting-error studies.

Nothing here repairs a state.  Hermiticity violations, negative
eigenvalues and trace drift are measured and reported; deciding what to do
about them is the caller's job.  convergence_points holds the rules of
a study's arguments, for convergence_study and the config loader alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import check_steps
from .linalg import (NumericalError, as_complex_matrix, check_margin, check_real,
                     hermitian_eigenvalues)

SLOPE_FIT_FLOOR = 1e-12    # error points below this are excluded from fits
NOISE_FLOOR = 1e-13        # all errors below this: method is exact within noise


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Scalar health summary of one density matrix."""

    trace: complex
    herm_residual: float
    min_eigenvalue: float
    purity: float
    mean_n: float
    tail_mass: float


def state_diagnostics(rho: np.ndarray, margin: int = 4) -> DiagnosticsRecord:
    """Measure trace, Hermiticity defect, spectrum floor, purity, occupation.

    tail_mass is the population on the top `margin` Fock levels; it is the
    number to watch when deciding whether a truncation was large enough.
    NumericalError if a value overflows (a finite state of huge entries).
    """
    rho = as_complex_matrix(rho, "rho")
    d = rho.shape[0]
    if rho.shape[1] != d:
        raise ValueError(f"rho must be square, got {rho.shape}")
    margin = check_margin(margin)
    with np.errstate(over="ignore", invalid="ignore"):
        diag = np.real(np.diag(rho))
        eigs = hermitian_eigenvalues(rho)
        record = DiagnosticsRecord(
            trace=complex(np.trace(rho)),
            herm_residual=float(np.linalg.norm(rho - rho.conj().T)),
            min_eigenvalue=float(eigs[0]),
            purity=float(np.real(np.trace(rho @ rho))),
            mean_n=float(np.arange(d) @ diag),
            tail_mass=float(diag[max(d - margin, 0):].sum()),
        )
    values = vars(record)
    overflowed = [name for name, ok in zip(values, np.isfinite(list(values.values())))
                  if not ok]
    if overflowed:
        raise NumericalError(f"the state's {', '.join(overflowed)} overflowed")
    return record


def compare_states(rho_a: np.ndarray, rho_b: np.ndarray) -> tuple[float, float]:
    """(Frobenius distance, trace distance) between two states.

    The trace distance is half the absolute eigenvalue sum of the
    Hermitian part of the difference; for valid density matrices it lies
    in [0, 1].  NumericalError if one of them overflows.
    """
    rho_a = as_complex_matrix(rho_a, "rho_a")
    rho_b = as_complex_matrix(rho_b, "rho_b")
    if rho_a.shape != rho_b.shape:
        raise ValueError(f"states must share a shape, got {rho_a.shape} vs {rho_b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        delta = rho_a - rho_b
        frob = float(np.linalg.norm(delta))
        tdist = float(0.5 * np.abs(hermitian_eigenvalues(delta)).sum())
    if not np.isfinite([frob, tdist]).all():
        raise NumericalError("the distance between the states overflowed")
    return frob, tdist


@dataclass(frozen=True)
class ConvergenceTable:
    """Error-vs-resolution study with a log-log slope fit."""

    mode: str                          # "local_time" or "global_steps"
    method: str
    xs: tuple[float, ...]
    errors_frobenius: tuple[float, ...]
    errors_trace_distance: tuple[float, ...]
    slope: float | None
    fit_residual: float | None
    exact_within_noise: bool

    @property
    def x_label(self) -> str:
        return "t" if self.mode == "local_time" else "n_steps"


def _fit_slope(xs, errs):
    xs = np.asarray(xs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    usable = errs > SLOPE_FIT_FLOOR
    exact = bool(np.all(errs < NOISE_FLOOR))
    if np.unique(xs[usable]).size < 2:     # a line needs two distinct x
        return None, None, exact
    lx = np.log(xs[usable])
    le = np.log(errs[usable])
    coeffs = np.polyfit(lx, le, 1)
    resid = le - np.polyval(coeffs, lx)
    return float(coeffs[0]), float(np.sqrt(np.mean(resid ** 2))), exact


def convergence_points(t_values=None, n_steps_values=None,
                       t_final: float | None = None) -> tuple:
    """A study's (mode, xs, points), each point a (time, step count).

    ValueError unless exactly one of t_values (at least two positive
    finite times) or n_steps_values (at least two counts that pass
    check_steps, with a positive finite t_final) is given.
    """
    if (t_values is None) == (n_steps_values is None):
        raise ValueError("give exactly one of t_values or n_steps_values")
    if t_values is not None:
        xs = [check_real(t, "t_values") for t in t_values]
        if len(xs) < 2 or not all(t > 0.0 for t in xs):
            raise ValueError("t_values needs at least two positive times, "
                             f"all finite, got {xs}")
        return "local_time", xs, [(t, 1) for t in xs]
    if check_real(t_final, "t_final") <= 0.0:
        raise ValueError("n_steps mode needs a positive finite t_final, "
                         f"got {t_final!r}")
    xs = [check_steps(n) for n in n_steps_values]
    if len(xs) < 2:
        raise ValueError("n_steps_values needs at least two counts")
    return "global_steps", xs, [(float(t_final), n) for n in xs]


def convergence_study(params, rho0, method: str = "factorized", *,
                      t_values=None, n_steps_values=None,
                      t_final: float | None = None) -> ConvergenceTable:
    """Measure approximation error against the exact propagator.

    The arguments follow convergence_points' rules.  With t_values the
    method is applied in a single shot at each time (local error, slope
    near +2 for the splittings).  With n_steps_values the fixed horizon
    t_final is divided into n equal steps (global error, slope near -1).
    Every state comes from propagate_sweep: one approximate pass over the
    sorted distinct times per distinct n (local mode is the single n = 1),
    then one exact pass over those times.
    Error points at the numerical noise floor are excluded from the slope
    fit, and a slope needs two distinct x among the rest; otherwise it is
    omitted.  If every point is below the floor the table reports
    exact_within_noise.
    """
    from . import propagators  # deferred: propagators imports this module

    mode, xs, points = convergence_points(t_values, n_steps_values, t_final)
    times = sorted({t for t, _ in points})
    approx = {n: propagators.propagate_sweep([params], rho0, times, method, n)[0]
              for n in dict.fromkeys(n for _, n in points)}
    exact = propagators.propagate_sweep([params], rho0, times, "exact")[0]
    at = {(t, n): compare_states(a.rho_t, e.rho_t)
          for n, per_time in approx.items()
          for t, a, e in zip(times, per_time, exact)}

    frob_errs, tdist_errs = map(list, zip(*(at[point] for point in points)))
    slope, fit_residual, exact_noise = _fit_slope(xs, frob_errs)
    return ConvergenceTable(
        mode=mode, method=method, xs=tuple(float(x) for x in xs),
        errors_frobenius=tuple(frob_errs),
        errors_trace_distance=tuple(tdist_errs),
        slope=slope, fit_residual=fit_residual,
        exact_within_noise=exact_noise,
    )
