"""Time each propagation route over the README grid, one row per truncation.

    python tools/route_table.py [--dims 16 24 32 48 64] [--repeats 7]

The README model (omega 1, mu 0.4, nu 0.1, kappa 0.1 + 0.05i, theta 0)
from a coherent state with alpha 1.2, over the times linspace(0, 2, 9).
A route's cell is the median wall time, in ms, of one propagate_sweep
call of that one model over the grid, after one untimed call; the last
column is the nine states' state_diagnostics.  BLAS runs single-threaded
(OPENBLAS_NUM_THREADS is set to 1 before numpy is imported).  The table
goes to stdout; nothing is written.
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from qdamp.diagnostics import state_diagnostics  # noqa: E402
from qdamp.fock import coherent_state  # noqa: E402
from qdamp.liouvillian import ModelParams  # noqa: E402
from qdamp.propagators import METHODS, propagate_sweep  # noqa: E402

TIMES = np.linspace(0.0, 2.0, 9)


def median_ms(call, repeats: int) -> float:
    """Median wall time of call() in ms over repeats calls, after one more."""
    call()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=int, nargs="+", default=[16, 24, 32, 48, 64])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    print("| d  | " + " | ".join(METHODS) + " | 9 x state_diagnostics |")
    print("|---:|" + "---:|" * (len(METHODS) + 1))
    for dim in args.dims:
        model = ModelParams(omega=1.0, mu=0.4, nu=0.1, kappa=0.1 + 0.05j, dim=dim)
        rho0 = coherent_state(dim, 1.2)
        cells = [median_ms(lambda m=m: propagate_sweep([model], rho0, TIMES, m),
                           args.repeats) for m in METHODS]
        states = [r.rho_t for r in propagate_sweep([model], rho0, TIMES, "exact")[0]]
        cells.append(median_ms(lambda: [state_diagnostics(s) for s in states],
                               args.repeats))
        print(f"| {dim:2d} | " + " | ".join(f"{c:.3g}" if c < 1e3 else f"{c:.0f}"
                                         for c in cells) + " |")


if __name__ == "__main__":
    main()
