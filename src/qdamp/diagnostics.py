"""State health metrics, state distances, and splitting-error studies.

Nothing here repairs a state.  Hermiticity violations, negative
eigenvalues and trace drift are measured and reported; deciding what to do
about them is the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_complex_matrix, hermitian_eigenvalues

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
    """
    rho = as_complex_matrix(rho, "rho")
    d = rho.shape[0]
    if rho.shape[1] != d:
        raise ValueError(f"rho must be square, got {rho.shape}")
    if not isinstance(margin, (int, np.integer)) or margin < 0:
        raise ValueError(f"margin must be an integer >= 0, got {margin!r}")
    diag = np.real(np.diag(rho))
    eigs = hermitian_eigenvalues(rho)
    return DiagnosticsRecord(
        trace=complex(np.trace(rho)),
        herm_residual=float(np.linalg.norm(rho - rho.conj().T)),
        min_eigenvalue=float(eigs[0]),
        purity=float(np.real(np.trace(rho @ rho))),
        mean_n=float(np.arange(d) @ diag),
        tail_mass=float(diag[max(d - margin, 0):].sum()),
    )


def compare_states(rho_a: np.ndarray, rho_b: np.ndarray) -> tuple[float, float]:
    """(Frobenius distance, trace distance) between two states.

    The trace distance is half the absolute eigenvalue sum of the
    Hermitian part of the difference; for valid density matrices it lies
    in [0, 1].
    """
    rho_a = as_complex_matrix(rho_a, "rho_a")
    rho_b = as_complex_matrix(rho_b, "rho_b")
    if rho_a.shape != rho_b.shape:
        raise ValueError(f"states must share a shape, got {rho_a.shape} vs {rho_b.shape}")
    delta = rho_a - rho_b
    frob = float(np.linalg.norm(delta))
    eigs = hermitian_eigenvalues(delta)
    return frob, float(0.5 * np.abs(eigs).sum())


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
    if usable.sum() < 2:
        return None, None, exact
    lx = np.log(xs[usable])
    le = np.log(errs[usable])
    coeffs = np.polyfit(lx, le, 1)
    resid = le - np.polyval(coeffs, lx)
    return float(coeffs[0]), float(np.sqrt(np.mean(resid ** 2))), exact


def convergence_study(params, rho0, method: str = "factorized", *,
                      t_values=None, n_steps_values=None,
                      t_final: float | None = None) -> ConvergenceTable:
    """Measure approximation error against the exact propagator.

    Exactly one of t_values / n_steps_values must be given.  With t_values
    the method is applied in a single shot at each time (local error, slope
    near +2 for the splittings).  With n_steps_values the fixed horizon
    t_final is divided into n equal steps (global error, slope near -1).
    Error points at the numerical noise floor are excluded from the slope
    fit; if every point is below it the table reports exact_within_noise
    and omits the slope.
    """
    from . import propagators  # deferred: propagators imports this module

    if (t_values is None) == (n_steps_values is None):
        raise ValueError("give exactly one of t_values or n_steps_values")

    frob_errs, tdist_errs = [], []
    if t_values is not None:
        xs = [float(t) for t in t_values]
        if len(xs) < 2 or any(t <= 0 for t in xs):
            raise ValueError("t_values needs at least two positive times")
        mode = "local_time"
        for t in xs:
            approx = propagators.propagate(params, rho0, t, method=method)
            exact = propagators.propagate(params, rho0, t, method="exact")
            frob, tdist = compare_states(approx.rho_t, exact.rho_t)
            frob_errs.append(frob)
            tdist_errs.append(tdist)
    else:
        if t_final is None or float(t_final) <= 0:
            raise ValueError("n_steps mode needs a positive t_final")
        # as in stepped_propagate: bool is an int subclass, and a float
        # such as 2.7 is not a step count
        if any(isinstance(n, bool) or not isinstance(n, (int, np.integer))
               for n in n_steps_values):
            raise ValueError(f"n_steps_values must be integers, got {list(n_steps_values)!r}")
        xs = [int(n) for n in n_steps_values]
        if len(xs) < 2 or any(n < 1 for n in xs):
            raise ValueError("n_steps_values needs at least two counts >= 1")
        mode = "global_steps"
        exact = propagators.propagate(params, rho0, float(t_final), method="exact")
        for n in xs:
            approx = propagators.stepped_propagate(params, rho0, float(t_final),
                                                   n_steps=n, method=method)
            frob, tdist = compare_states(approx.rho_t, exact.rho_t)
            frob_errs.append(frob)
            tdist_errs.append(tdist)

    slope, fit_residual, exact_noise = _fit_slope(xs, frob_errs)
    return ConvergenceTable(
        mode=mode, method=method, xs=tuple(float(x) for x in xs),
        errors_frobenius=tuple(frob_errs),
        errors_trace_distance=tuple(tdist_errs),
        slope=slope, fit_residual=fit_residual,
        exact_within_noise=exact_noise,
    )
