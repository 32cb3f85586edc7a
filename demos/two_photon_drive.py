"""Switch the two-photon channel on and see what it costs.

Three effects worth knowing before trusting a run with kappa != 0:

  1. admissibility: the stationary regime needs mu nu >= |kappa|^2, and
     ModelParams.require_positivity enforces exactly that in strict mode;
  2. the factorized propagator stops being exact, with an error that
     grows with |kappa| (measured against the exact route);
  3. the alternative ordering trades accuracy for convenience: it loses
     Hermiticity at O(t^2 |kappa|^2), so its output needs the diagnostics
     checked rather than assumed.
"""

import numpy as np

from qdamp import (
    ModelParams,
    PositivityError,
    compare_states,
    fock_state,
    propagate,
)

DIM = 14
MU, NU, OMEGA = 0.5, 0.2, 1.0
T = 0.8


def run() -> bool:
    checks = []

    # 1. the admissibility wall
    try:
        ModelParams(omega=OMEGA, mu=0.1, nu=0.1, kappa=0.5, dim=DIM).require_positivity()
        checks.append(False)
        print("inadmissible parameters were accepted (unexpected)")
    except PositivityError as exc:
        checks.append(True)
        print(f"rejected as expected: {exc}")

    # 2. splitting error vs |kappa|
    rho0 = fock_state(DIM, 1)
    print(f"\nsplitting error at t = {T} (trace distance to exact)")
    last = -1.0
    for kappa_abs in (0.0, 0.05, 0.1, 0.2):
        model = ModelParams(omega=OMEGA, mu=MU, nu=NU,
                            kappa=kappa_abs * np.exp(0.5j), dim=DIM)
        approx = propagate(model, rho0, T, method="factorized").rho_t
        exact = propagate(model, rho0, T, method="exact").rho_t
        dist = compare_states(approx, exact)[1]
        print(f"  |kappa| = {kappa_abs:<5g} distance = {dist:.3e}")
        checks.append(dist >= last)
        last = dist

    # 3. hermiticity defect of the alternative ordering
    model = ModelParams(omega=OMEGA, mu=MU, nu=NU, kappa=0.1 + 0.05j, dim=DIM)
    print("\nalternative-ordering hermiticity defect")
    h_prev = None
    for t in (0.05, 0.1, 0.2):
        h = propagate(model, rho0, t, method="alternative").diagnostics.herm_residual
        ratio = "" if h_prev is None else f"  (x{h / h_prev:.2f} per doubling)"
        print(f"  t = {t:<4g} residual = {h:.3e}{ratio}")
        if h_prev is not None:
            checks.append(3.0 <= h / h_prev <= 4.6)   # ~4 means order t^2
        h_prev = h

    ok = all(checks)
    print("\nPASS" if ok else "\nFAIL")
    return ok


if __name__ == "__main__":
    raise SystemExit(0 if run() else 1)
