"""Checks on every op's output, and its distance to the recorded reference.

simulate / sweep CSV:
  * header and row count, and one row per expected (point, time, method);
    in a sweep, one `# skipped` line per point outside mu*nu >= |kappa|^2;
  * per row, route-dependent bounds on trace_re, trace_im, herm_residual
    and min_eig (see `allowances`);
  * exact rows are at distance 0 from themselves, every distance lies in
    [0, 1], and the series and factorized rows (the same map by two
    independent formulas) report the same distance to exact;
  * golden_dev: the largest absolute difference of any numeric cell from
    the reference output of the same workload and seed, when one exists.

verify-algebra report:
  * the reference's 23 identity labels in order, each residual at most
    RESIDUAL_FACTOR times its reference value (golden_dev is the largest
    absolute difference);
  * max_residual, verdict and exit code consistent with the residuals.
    The verdict itself is not compared: a FAIL that matches the residuals
    is the program's answer, and shows up in ops_failed.ratio instead.
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from typing import Optional

SIMULATE_HEADER = ("t", "method", "trace_re", "trace_im", "herm_residual",
                   "min_eig", "purity", "mean_n", "tail_mass",
                   "dist_to_exact_frob", "dist_to_exact_tracedist")
SWEEP_HEADER = ("param", "value") + SIMULATE_HEADER
TEXT_COLUMNS = ("param", "method")

# Absolute bars.  Roundoff in these outputs is below 1e-11 at the seed
# commit; real defects (a wrong factor, a lost term) are O(1e-3) or more.
ROUNDOFF = 1e-9
GOLDEN_TOL = 1e-9
# An algebra residual may exceed its reference by roundoff, not by a lost
# digit: at most RESIDUAL_FACTOR times max(reference, RESIDUAL_FLOOR).
RESIDUAL_FACTOR = 10.0
RESIDUAL_FLOOR = 1e-14
N_IDENTITIES = 23
POSITIVITY_SLACK = 1e-12   # strict mode admits mu*nu + slack >= |kappa|^2
# alternative's splitting defect, per t^2 |kappa| (Hermiticity) and per
# t^2 |kappa|^2 (negative eigenvalue); see `allowances`.
ALT_HERM = 0.5
ALT_EIG = 0.2


@dataclass
class OpCheck:
    """Outcome of checking one op's output."""

    problems: list = field(default_factory=list)
    golden_dev: Optional[float] = None
    tracedist_max: Optional[float] = None

    @property
    def ok(self) -> bool:
        return not self.problems


def allowances(method: str, t: float, kappa_abs: float, edge_mass: float):
    """(trace, herm_residual, -min_eig) bars for one row.

    exact is a dense exponential of a trace-exact, completely positive
    generator: roundoff only.  The closed-form routes are exact on the
    interior and err only through population at the truncation edge,
    edge_mass (the exact state's tail_mass: below 1e-9 at the workloads'
    dims, about 0.3 at the tests' d=6).  Trace is a sum of populations, so
    its bar grows with edge_mass; Hermiticity and the spectrum also see
    coherences with edge levels, which |rho_ij|^2 <= rho_ii rho_jj bounds
    by sqrt(edge_mass).  alternative also carries its splitting defect.
    The reference outputs (seeds 0-11) show it at 0.29-0.38 t^2 |kappa| in
    herm_residual and at most 0.068 t^2 |kappa|^2 in -min_eig, so
    ALT_HERM t^2 |kappa| and ALT_EIG t^2 |kappa|^2 are added to those bars.
    """
    if method == "exact":
        return ROUNDOFF, ROUNDOFF, ROUNDOFF
    coherence = ROUNDOFF + math.sqrt(max(edge_mass, 0.0))
    if method == "alternative":
        return (ROUNDOFF + edge_mass, coherence + ALT_HERM * t * t * kappa_abs,
                coherence + ALT_EIG * (t * kappa_abs) ** 2)
    return ROUNDOFF + edge_mass, coherence, coherence


def _parse_csv(text: str):
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    return rows, comments


def _numeric(header, row, problems) -> Optional[dict]:
    if len(row) != len(header):
        problems.append(f"row has {len(row)} cells, expected {len(header)}: {row}")
        return None
    out = {}
    for col, cell in zip(header, row):
        if col in TEXT_COLUMNS:
            out[col] = cell
            continue
        try:
            out[col] = float(cell)
        except ValueError:
            problems.append(f"non-numeric {col}={cell!r}")
            return None
        if not math.isfinite(out[col]):
            problems.append(f"non-finite {col}={cell!r}")
            return None
    return out


def _expected_points(workload):
    """[(swept value or None, t)] in output order, and the skipped values."""
    cfg = workload.config
    times = cfg["times"]
    if isinstance(times, dict):
        n, t_max = times["n_points"], times["t_max"]
        times = [t_max * i / (n - 1) for i in range(n)] if n > 1 else [0.0]
    if "sweep" not in cfg:
        return [(None, t) for t in times], []
    m = cfg["model"]
    admissible = [v for v in cfg["sweep"]["values"]
                  if m["mu"] * m["nu"] + POSITIVITY_SLACK >= v * v]
    skipped = [v for v in cfg["sweep"]["values"] if v not in admissible]
    return [(v, times[-1]) for v in admissible], skipped


def check_table(workload, exit_code, text: str, reference: Optional[str]) -> OpCheck:
    res = OpCheck()
    p = res.problems
    if exit_code != 0:
        p.append(f"exit code {exit_code}")
    rows, comments = _parse_csv(text)
    sweep = "sweep" in workload.config
    header = SWEEP_HEADER if sweep else SIMULATE_HEADER
    if not rows or tuple(rows[0]) != header:
        p.append(f"header {rows[0] if rows else None} != {list(header)}")
        return res
    points, skipped = _expected_points(workload)
    methods = sorted(workload.config["methods"])
    body = rows[1:]
    if len(body) != len(points) * len(methods):
        p.append(f"{len(body)} rows, expected {len(points) * len(methods)}")
        return res
    param = workload.config["sweep"]["param"] if sweep else None
    want_comments = [f"# skipped {param}={v!r}:" for v in skipped]
    if [c.split(":")[0] + ":" for c in comments] != want_comments:
        p.append(f"comment lines {comments} != {want_comments}")
    parsed = [_numeric(header, r, p) for r in body]
    if p:
        return res

    model = workload.config["model"]
    model_kappa = math.hypot(model["kappa_re"], model["kappa_im"])
    k = 0
    dists = []
    for value, t in points:
        group = parsed[k:k + len(methods)]
        k += len(methods)
        if [r["method"] for r in group] != methods:
            p.append(f"methods {[r['method'] for r in group]} != {methods}")
            continue
        by_method = {r["method"]: r for r in group}
        exact = by_method["exact"]
        kappa = value if sweep else model_kappa
        for r in group:
            where = f"t={r['t']} {r['method']}" + (f" value={r['value']}" if sweep else "")
            if abs(r["t"] - t) > ROUNDOFF or (sweep and r["value"] != value):
                p.append(f"{where}: expected t={t}" + (f" value={value}" if sweep else ""))
            tr_bar, herm_bar, eig_bar = allowances(r["method"], t, kappa,
                                                   exact["tail_mass"])
            if abs(r["trace_re"] - 1.0) > tr_bar or abs(r["trace_im"]) > tr_bar:
                p.append(f"{where}: trace {r['trace_re']}+{r['trace_im']}i off by more than {tr_bar:.3g}")
            if not 0.0 <= r["herm_residual"] <= herm_bar:
                p.append(f"{where}: herm_residual {r['herm_residual']} > {herm_bar:.3g}")
            if r["min_eig"] < -eig_bar:
                p.append(f"{where}: min_eig {r['min_eig']} < {-eig_bar:.3g}")
            d = r["dist_to_exact_tracedist"]
            dists.append(d)
            if not 0.0 <= d <= 1.0 + ROUNDOFF:
                p.append(f"{where}: trace distance {d} outside [0, 1]")
        if exact["dist_to_exact_tracedist"] != 0.0 or exact["dist_to_exact_frob"] != 0.0:
            p.append(f"t={t}: exact row is not at distance 0 from itself")
        if "series" in by_method and "factorized" in by_method:
            gap = abs(by_method["series"]["dist_to_exact_tracedist"]
                      - by_method["factorized"]["dist_to_exact_tracedist"])
            if gap > ROUNDOFF:
                p.append(f"t={t}: series and factorized disagree by {gap:.3g}")
    res.tracedist_max = max(dists, default=None)
    if reference is not None:
        res.golden_dev = _table_dev(header, parsed, reference, p)
        if res.golden_dev > GOLDEN_TOL:
            p.append(f"golden_dev {res.golden_dev:.3g} > {GOLDEN_TOL:g}")
    return res


def _table_dev(header, parsed, reference: str, problems) -> float:
    ref_rows, _ = _parse_csv(reference)
    ref = [_numeric(header, r, problems) for r in ref_rows[1:]]
    if len(ref) != len(parsed) or None in ref:
        problems.append("reference output has another shape")
        return math.inf
    dev = 0.0
    for row, ref_row in zip(parsed, ref):
        for col in header:
            if col in TEXT_COLUMNS:
                if row[col] != ref_row[col]:
                    problems.append(f"{col} {row[col]!r} != reference {ref_row[col]!r}")
                    return math.inf
            else:
                dev = max(dev, abs(row[col] - ref_row[col]))
    return dev


_REPORT_LINE = re.compile(r"^(.*): (\S+)$")
_VERDICT = re.compile(r"^verdict: (PASS|FAIL) \(threshold (\S+)\)$")


def _parse_report(text: str):
    lines = text.splitlines()
    entries = []
    for ln in lines[2:-2]:
        m = _REPORT_LINE.match(ln)
        try:
            entries.append((m.group(1), float(m.group(2))))
        except (AttributeError, ValueError):
            return None
    return lines[:2], entries, lines[-2:]


def check_report(workload, exit_code, text: str, reference: Optional[str]) -> OpCheck:
    res = OpCheck()
    p = res.problems
    dim = workload.extra_args[workload.extra_args.index("--dim") + 1]
    margin = workload.extra_args[workload.extra_args.index("--margin") + 1]
    parsed = _parse_report(text) if len(text.splitlines()) >= 4 else None
    if parsed is None:
        p.append(f"unparseable report (exit {exit_code}): {text[:200]!r}")
        return res
    head, entries, tail = parsed
    if head != [f"dim: {dim}", f"margin: {margin}"]:
        p.append(f"report head {head}")
    if len(entries) != N_IDENTITIES:
        p.append(f"{len(entries)} identities, expected {N_IDENTITIES}")
    verdict = _VERDICT.match(tail[1])
    if not tail[0].startswith("max_residual: ") or verdict is None:
        p.append(f"report tail {tail}")
        return res
    try:
        max_res = float(tail[0].split(": ")[1])
    except ValueError:
        p.append(f"report tail {tail}")
        return res
    if entries and max_res != max(r for _, r in entries):
        p.append(f"max_residual {max_res} is not the largest residual")
    passed = max_res <= float(verdict.group(2))
    if (verdict.group(1) == "PASS") != passed or exit_code != (0 if passed else 1):
        p.append(f"verdict {verdict.group(1)} with exit {exit_code} for max_residual {max_res}")
    if reference is not None:
        ref = _parse_report(reference)
        ref_entries = ref[1] if ref else []
        if [lbl for lbl, _ in entries] != [lbl for lbl, _ in ref_entries]:
            p.append("identity labels differ from the reference")
            res.golden_dev = math.inf
        else:
            res.golden_dev = max(abs(r - q) for (_, r), (_, q)
                                 in zip(entries, ref_entries))
            for (label, r), (_, q) in zip(entries, ref_entries):
                if r > RESIDUAL_FACTOR * max(q, RESIDUAL_FLOOR):
                    p.append(f"{label}: residual {r:.3g} > {RESIDUAL_FACTOR:g}x "
                             f"the reference {q:.3g}")
    return res


def check_op(workload, exit_code, text: str, reference: Optional[str]) -> OpCheck:
    if workload.config is None:
        return check_report(workload, exit_code, text, reference)
    return check_table(workload, exit_code, text, reference)
