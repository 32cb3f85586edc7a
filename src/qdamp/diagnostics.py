"""State health metrics, state distances, and splitting-error studies.

Nothing here repairs a state.  Hermiticity violations, negative
eigenvalues and trace drift are measured and reported; deciding what to do
about them is the caller's job.  state_diagnostics and compare_states
take one d x d state or an n x d x d stack, measured in passes of at
most propagators.CLOSED_FORM_BLOCK_BYTES of states; each state of a
stack gets the bits of its own call.  convergence_points holds the rules of
a study's arguments, for convergence_study and the config loader alike.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .coefficients import check_steps
from .linalg import (NumericalError, adjoint, as_complex_matrix, check_margin, check_real,
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


def _as_states(rho, name: str) -> np.ndarray:
    """rho as a complex128 d x d matrix or n x d x d stack, by
    as_complex_matrix's rules for each matrix."""
    rho = np.asarray(rho)
    if rho.ndim != 3:
        return as_complex_matrix(rho, name)
    n, rows, cols = rho.shape
    return as_complex_matrix(rho.reshape(n * rows, cols), name).reshape(rho.shape)


def _passes(states: np.ndarray):
    """An n x d x d stack in slices of at most CLOSED_FORM_BLOCK_BYTES
    bytes of states (one state at least), the size of a propagation pass."""
    from .propagators import CLOSED_FORM_BLOCK_BYTES   # deferred: it imports this module
    per_pass = max(1, CLOSED_FORM_BLOCK_BYTES // max(states[:1].nbytes, 1))
    return (states[i:i + per_pass] for i in range(0, len(states), per_pass))


def state_diagnostics(rho: np.ndarray, margin: int = 4
                      ) -> DiagnosticsRecord | list[DiagnosticsRecord]:
    """Measure trace, Hermiticity defect, spectrum floor, purity, occupation.

    rho is one d x d state, for one DiagnosticsRecord, or an n x d x d
    stack, for a list of n records, each with the bits of its state's
    own call: the eigensolves, traces, products and diagonals are
    stacked, the Frobenius norm and the mean occupation stay per state,
    where a stacked form would round differently.
    tail_mass is the population on the top `margin` Fock levels; it is the
    number to watch when deciding whether a truncation was large enough.
    NumericalError if a value overflows (a finite state of huge entries).
    """
    rho = _as_states(rho, "rho")
    d = rho.shape[-1]
    if rho.shape[-2] != d:
        raise ValueError(f"rho must be square, got {rho.shape}")
    margin = check_margin(margin)
    levels = np.arange(d)
    records = []
    with np.errstate(over="ignore", invalid="ignore"):
        for part in _passes(rho.reshape(-1, d, d)):
            # one value at a time, each stacked temporary dropped once read
            traces = np.trace(part, axis1=1, axis2=2)
            defects = adjoint(part)
            np.subtract(part, defects, out=defects)
            herm = [float(np.linalg.norm(defect)) for defect in defects]
            del defects
            floors = hermitian_eigenvalues(part)[:, 0]
            purities = np.trace(part @ part, axis1=1, axis2=2).real
            diag = np.diagonal(part, axis1=1, axis2=2).real
            records += [DiagnosticsRecord(
                trace=complex(trace),
                herm_residual=residual,
                min_eigenvalue=float(floor),
                purity=float(purity),
                mean_n=float(levels @ occupations),
                tail_mass=float(tail),
            ) for trace, residual, floor, purity, occupations, tail in zip(
                traces, herm, floors, purities, diag,
                diag[:, max(d - margin, 0):].sum(axis=1))]
    for record in records:
        overflowed = [name for name, value in vars(record).items()
                      if not cmath.isfinite(value)]
        if overflowed:
            raise NumericalError(f"the state's {', '.join(overflowed)} overflowed")
    return records if rho.ndim == 3 else records[0]


def compare_states(rho_a: np.ndarray, rho_b: np.ndarray
                   ) -> tuple[float, float] | list[tuple[float, float]]:
    """(Frobenius distance, trace distance) between two states.

    rho_a and rho_b are two d x d states, for one pair, or two n x d x d
    stacks, for a list of n pairs, each with the bits of its own call
    (the eigensolves stacked, the norms per state).  The trace distance
    is half the absolute eigenvalue sum of the Hermitian part of the
    difference; for valid density matrices it lies in [0, 1].
    NumericalError if one of them overflows.
    """
    rho_a = _as_states(rho_a, "rho_a")
    rho_b = _as_states(rho_b, "rho_b")
    if rho_a.shape != rho_b.shape:
        raise ValueError(f"states must share a shape, got {rho_a.shape} vs {rho_b.shape}")
    d = rho_a.shape[-1]
    pairs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for part_a, part_b in zip(_passes(rho_a.reshape(-1, d, d)),
                                  _passes(rho_b.reshape(-1, d, d))):
            delta = part_a - part_b
            norms = [float(np.linalg.norm(diff)) for diff in delta]
            halves = 0.5 * np.abs(hermitian_eigenvalues(delta)).sum(axis=1)
            del delta
            pairs += [(norm, float(half)) for norm, half in zip(norms, halves)]
    if not np.isfinite(pairs).all():
        raise NumericalError("the distance between the states overflowed")
    return pairs if rho_a.ndim == 3 else pairs[0]


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
    then one exact pass over those times; each pass's states are compared
    with the exact ones as one stack (compare_states).
    Error points at the numerical noise floor are excluded from the slope
    fit, and a slope needs two distinct x among the rest; otherwise it is
    omitted.  If every point is below the floor the table reports
    exact_within_noise.
    """
    from . import propagators  # deferred: propagators imports this module

    mode, xs, points = convergence_points(t_values, n_steps_values, t_final)
    times = sorted({t for t, _ in points})
    approx = {n: np.array([r.rho_t for r in propagators.propagate_sweep(
                  [params], rho0, times, method, n)[0]])
              for n in dict.fromkeys(n for _, n in points)}
    exact = np.array([r.rho_t for r in propagators.propagate_sweep(
        [params], rho0, times, "exact")[0]])
    at = {(t, n): pair for n, stack in approx.items()
          for t, pair in zip(times, compare_states(stack, exact))}

    frob_errs, tdist_errs = map(list, zip(*(at[point] for point in points)))
    slope, fit_residual, exact_noise = _fit_slope(xs, frob_errs)
    return ConvergenceTable(
        mode=mode, method=method, xs=tuple(float(x) for x in xs),
        errors_frobenius=tuple(frob_errs),
        errors_trace_distance=tuple(tdist_errs),
        slope=slope, fit_residual=fit_residual,
        exact_within_noise=exact_noise,
    )
