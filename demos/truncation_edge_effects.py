"""Where the finite Fock block stops being the real oscillator.

Everything in this package is exact up to the truncation edge, and the
edge is not a uniform blur: it enters through specific, measurable
channels.  This script makes one of them visible: the edge error of the
exponential of the truncated generator.

At kappa = 0 the closed-form product on d levels is exactly the d x d
block of the untruncated flow: it lowers, scales and raises, and never
passes through a level above the block.  The exponential of the
truncated generator is not: it conserves trace by reflecting at the top
level the population that should leave the block.  So the gap between
the two, measured below, is that exponential's edge error, and it
grows by roughly a factor of ten per level of initial support as the
state's pumped tail climbs into the top levels.

Widening the block, not any change to the formulas, closes the gap:
re-running the worst case with eight more levels pushes the distance
down to roundoff, because the wider exponential's edge is then out of
the state's reach.
"""

import numpy as np

from qdamp import ModelParams, compare_states, fock_state, propagate, state_diagnostics

MU, NU, OMEGA = 0.4, 0.2, 1.0
T = 1.0


def distance_for(dim: int, n: int) -> tuple:
    model = ModelParams(omega=OMEGA, mu=MU, nu=NU, kappa=0.0, dim=dim)
    rho0 = fock_state(dim, n)
    fact = propagate(model, rho0, T, method="factorized").rho_t
    exact = propagate(model, rho0, T, method="exact").rho_t
    return compare_states(fact, exact)[1], state_diagnostics(fact).tail_mass


def run() -> bool:
    print(f"factorized vs exact at t = {T}, dim = 20, pure loss/pump rates "
          f"mu = {MU}, nu = {NU}")
    print("the gap is the truncated generator's exponential's edge error; the "
          "factorized product is the untruncated flow's block")
    print(f"{'start level':>12} {'trace distance':>15} {'evolved tail':>13}")
    dists = []
    for n in (1, 3, 5, 7):
        dist, tail = distance_for(20, n)
        dists.append(dist)
        print(f"{n:>12} {dist:>15.3e} {tail:>13.2e}")
    growing = all(a < b for a, b in zip(dists, dists[1:]))

    dist28, _ = distance_for(28, 7)
    print(f"\nsame start level 7 with dim = 28: {dist28:.3e}")
    print("widening the block moves the exponential's edge out of reach; "
          "the closed forms were never the problem")

    ok = growing and dist28 <= 1e-12 and dists[-1] > 1e-9
    print("\nPASS" if ok else "\nFAIL")
    return ok


if __name__ == "__main__":
    raise SystemExit(0 if run() else 1)
