"""The benchmark's workloads: one qdamp CLI invocation each, built from a seed.

Seed 0 gives the fixed configs the workloads are named after.  Any other
seed perturbs only physics inputs: the phase of kappa, the initial-state
parameters, and the swept kappa values inside the positivity-admissible
range.  It never changes the truncation, the time grid length, the
methods or the sweep length, so every seed does the same amount of work.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Optional

NAMES = ("readme-simulate", "exact-grid", "kappa-sweep", "verify-algebra")

ALL_METHODS = ("exact", "factorized", "alternative", "series", "stepped")

# The README model: mu*nu = 0.04, so |kappa| <= 0.2 is admissible.
OMEGA, MU, NU = 1.0, 0.4, 0.1
KAPPA_SEED0 = complex(0.1, 0.05)
KAPPA_STEP = 0.02
N_SWEEP = 13            # 0, 0.02, ..., 0.24; the last two violate positivity
KAPPA_EDGE = math.sqrt(MU * NU)


@dataclass(frozen=True)
class Workload:
    """One CLI op: `qdamp <command> [--config config.json] <extra args>`."""

    name: str
    seed: int
    command: str
    config: Optional[dict] = None
    extra_args: tuple = ()
    full_size: bool = True

    def argv(self, config_path: Optional[str]) -> list:
        argv = [self.command]
        if self.config is not None:
            argv += ["--config", str(config_path)]
        return argv + list(self.extra_args)

    @property
    def reference_key(self) -> Optional[str]:
        """Reference-file stem; None for a shrunk workload, which has none.

        verify-algebra's inputs do not depend on the seed.
        """
        if not self.full_size:
            return None
        return "any-seed" if self.config is None else f"seed-{self.seed}"


def _kappa(rng: Optional[random.Random]) -> complex:
    if rng is None:
        return KAPPA_SEED0
    return abs(KAPPA_SEED0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _model(kappa: complex, dim: int) -> dict:
    return {"omega": OMEGA, "mu": MU, "nu": NU,
            "kappa_re": kappa.real, "kappa_im": kappa.imag, "dim": dim}


def _sweep_values(rng: Optional[random.Random]) -> list:
    values = [round(KAPPA_STEP * i, 10) for i in range(N_SWEEP)]
    if rng is None:
        return values
    # Jitter only the admissible points and keep them inside [0, edge], so
    # each seed has the same number of evaluated and skipped points.
    return [min(max(v + rng.uniform(-0.4, 0.4) * KAPPA_STEP, 0.0), KAPPA_EDGE)
            if v <= KAPPA_EDGE else v for v in values]


def build(name: str, seed: int, dim: Optional[int] = None,
          n_points: int = 9) -> Workload:
    """The workload `name` at `seed`; `dim` and `n_points` shrink it for tests."""
    rng = None if seed == 0 else random.Random(f"{name}/{seed}")
    full = dim is None and n_points == 9
    if name == "readme-simulate":
        if rng is None:
            alpha = complex(1.2, 0.0)
        else:
            alpha = cmath.rect(rng.uniform(1.0, 1.4), rng.uniform(0.0, 2.0 * math.pi))
        config = {
            "model": _model(_kappa(rng), dim or 24),
            "initial_state": {"kind": "coherent",
                              "alpha_re": alpha.real, "alpha_im": alpha.imag},
            "times": {"t_max": 2.0, "n_points": n_points},
            "methods": ["exact", "factorized", "series"],
            "n_steps": 8, "positivity": "strict", "margin": 4,
        }
        return Workload(name, seed, "simulate", config, full_size=full)
    if name == "exact-grid":
        nbar = 0.5 if rng is None else rng.uniform(0.3, 0.7)
        config = {
            "model": _model(_kappa(rng), dim or 32),
            "initial_state": {"kind": "thermal", "nbar": nbar},
            "times": {"t_max": 2.0, "n_points": n_points},
            "methods": ["exact", "series"],
            "n_steps": 8, "positivity": "strict", "margin": 4,
        }
        return Workload(name, seed, "simulate", config, full_size=full)
    if name == "kappa-sweep":
        n = 2 if rng is None else rng.randint(1, 3)
        config = {
            "model": _model(_kappa(rng), dim or 16),
            "initial_state": {"kind": "fock", "n": n},
            "times": [2.0],
            "methods": list(ALL_METHODS),
            "n_steps": 8, "positivity": "strict", "margin": 4,
            "sweep": {"param": "kappa_abs", "values": _sweep_values(rng)},
        }
        return Workload(name, seed, "sweep", config, full_size=full)
    if name == "verify-algebra":
        return Workload(name, seed, "verify-algebra", None,
                        ("--dim", str(dim or 24), "--margin", "2"), full)
    raise ValueError(f"unknown workload {name!r}; choose from {list(NAMES)}")
