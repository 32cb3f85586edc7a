"""Outside-in tracing of qdamp: wrappers on the names each module looks up.

qdamp modules import with `from .x import f`, so a call goes through the
caller's own module attribute.  The wrappers are therefore installed on the
importing module (`propagators.expm`, not `linalg.expm`), and only for the
duration of a traced pass; `Tracer.installed()` restores every attribute
it replaced.  Nothing under src/ is modified.

Each wrapped call records a span (name, start, end, parent, op) and the
size of the largest array it returned.  Ladder, Kronecker and vectorization
helpers are not wrapped, so their time counts as the self time of whichever
span called them.  Coefficient evaluation and Fock-operator construction
are counted, not timed.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  Several attributes may share a span name;
# per-layer metrics sum their self times.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "verify_algebra", "algebra.verify"),
    ("cli", "state_diagnostics", "diagnostics.state"),
    ("cli", "compare_states", "diagnostics.compare"),
    ("propagators", "propagate", "propagators.apply"),
    ("propagators", "exact_superop", "propagators.apply"),
    ("propagators", "stepped_propagate", "propagators.apply"),
    ("propagators", "su11_factor", "propagators.factor_build"),
    ("propagators", "l_factor", "propagators.factor_build"),
    ("propagators", "factorized_superop", "propagators.factor_build"),
    ("propagators", "alternative_superop", "propagators.factor_build"),
    ("propagators", "operator_series_solution", "propagators.series"),
    ("propagators", "build_liouvillian_trace_exact", "liouvillian.build"),
    ("propagators", "build_liouvillian", "liouvillian.build"),
    ("propagators", "expm", "linalg.expm"),
    ("propagators", "build_generators", "algebra.build_generators"),
    ("propagators", "state_diagnostics", "diagnostics.state"),
    ("liouvillian", "build_generators", "algebra.build_generators"),
    ("algebra", "build_generators", "algebra.build_generators"),
    ("algebra", "commutator", "algebra.commutator"),
    ("algebra", "projected_residual", "algebra.verify"),
)

COUNTS = (
    ("propagators", "eval_coefficients", "coefficients.eval"),
    ("liouvillian", "build_fock_ops", "fock.build"),
    ("cli", "build_fock_ops", "fock.build"),
)

# Spans whose distinct first arguments are tallied.
DISTINCT_SPANS = ("liouvillian.build", "algebra.build_generators")

# Per-layer metric -> unit; Tracer.layer_metrics computes them.
LAYER_METRICS = {
    "propagators.factor_build_s": "s",
    "propagators.factor_build.calls": "count",
    "propagators.series_s": "s",
    "propagators.apply_s": "s",
    "propagators.superop_bytes": "B",
    "liouvillian.build_s": "s",
    "liouvillian.build.calls": "count",
    "liouvillian.build.distinct_ratio": "ratio",
    "linalg.expm_s": "s",
    "linalg.expm.calls": "count",
    "algebra.build_generators_s": "s",
    "algebra.build_generators.calls": "count",
    "algebra.build_generators.distinct_ratio": "ratio",
    "algebra.commutator_s": "s",
    "algebra.commutator.calls": "count",
    "algebra.verify_s": "s",
    "diagnostics.state_s": "s",
    "diagnostics.state.calls": "count",
    "diagnostics.compare_s": "s",
    "diagnostics.compare.calls": "count",
    "coefficients.eval.calls": "count",
    "fock.build.calls": "count",
    "cli.self_s": "s",
    "trace.span_coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _arg_key(args) -> str:
    """Identity of a model or Fock-operator set: its dim, theta, rates."""
    first = args[0] if args else None
    if hasattr(first, "mu"):
        return repr(first)
    return repr((getattr(first, "dim", None), getattr(first, "theta", None)))


def _array_bytes(value) -> int:
    """Bytes of an array (dense, or the buffers of a scipy sparse matrix)."""
    if hasattr(value, "indptr"):
        return sum(getattr(value, k).nbytes for k in ("data", "indices", "indptr"))
    return getattr(value, "nbytes", 0) if hasattr(value, "dtype") else 0


def largest_array_bytes(result) -> int:
    """Largest array in a span's result, or among its items or fields.

    Results are arrays, tuples of them, or dataclasses holding them
    (PropagationResult, SuperOpGenerators), so one level down suffices.
    """
    if isinstance(result, (tuple, list)):
        items = result
    elif isinstance(result, dict):
        items = result.values()
    elif hasattr(result, "__dataclass_fields__"):
        items = [getattr(result, k) for k in result.__dataclass_fields__]
    else:
        items = ()
    return max([_array_bytes(result)] + [_array_bytes(v) for v in items])


class Tracer:
    """Spans and counts for the ops of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, child_time]
        self.counts = Counter()
        self.distinct = defaultdict(set)   # (op, span name) -> arg keys
        self.max_bytes = defaultdict(int)  # op -> largest array a span returned
        self.op = None
        self._stack = []

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            parent = self._stack[-1] if self._stack else -1
            rec = [name, 0.0, 0.0, parent, op, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            if name in DISTINCT_SPANS:
                self.distinct[(op, name)].add(_arg_key(args))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                rec[1], rec[2] = start, end
                if parent >= 0:
                    self.spans[parent][5] += end - start
            self.max_bytes[op] = max(self.max_bytes[op], largest_array_bytes(result))
            return result
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[(self.op, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        saved = []
        try:
            for table, make in ((SPANS, self._timed), (COUNTS, self._counted)):
                for mod_name, attr, name in table:
                    mod = importlib.import_module(f"qdamp.{mod_name}")
                    orig = getattr(mod, attr)
                    saved.append((mod, attr, orig))
                    setattr(mod, attr, make(name, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, _) in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": name, "op": op,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def layer_metrics(self, op_times: dict, untraced_p50: float) -> dict:
        """Per-op means of every LAYER_METRICS entry over the traced ops.

        op_times maps op id -> wall seconds measured around the op.
        """
        ops = sorted(op_times)
        self_s = defaultdict(float)
        calls = Counter()
        covered = defaultdict(float)    # op -> time in spans below cli.main
        for name, start, end, _, op, child in self.spans:
            self_s[(op, name)] += end - start - child
            calls[(op, name)] += 1
            if name == "cli.main":
                covered[op] += child

        def per_op(fn):
            return sum(fn(op) for op in ops) / len(ops)

        def distinct_ratio(name):
            return per_op(lambda op: len(self.distinct[(op, name)])
                          / calls[(op, name)] if calls[(op, name)] else 0.0)

        out = {}
        for layer in ("propagators.factor_build", "propagators.series",
                      "propagators.apply", "liouvillian.build", "linalg.expm",
                      "algebra.build_generators", "algebra.commutator",
                      "algebra.verify", "diagnostics.state",
                      "diagnostics.compare"):
            out[f"{layer}_s"] = per_op(lambda op: self_s[(op, layer)])
            if f"{layer}.calls" in LAYER_METRICS:
                out[f"{layer}.calls"] = per_op(lambda op: calls[(op, layer)])
        for name in DISTINCT_SPANS:
            out[f"{name}.distinct_ratio"] = distinct_ratio(name)
        for name in ("coefficients.eval", "fock.build"):
            out[f"{name}.calls"] = per_op(lambda op: self.counts[(op, name)])
        out["propagators.superop_bytes"] = max(self.max_bytes[op] for op in ops)
        out["cli.self_s"] = per_op(lambda op: self_s[(op, "cli.main")])
        out["trace.span_coverage"] = min(covered[op] / op_times[op] for op in ops)
        out["trace.overhead_ratio"] = (statistics.median(op_times.values())
                                       / untraced_p50 - 1.0)
        return {k: {"value": out[k], "unit": LAYER_METRICS[k]}
                for k in LAYER_METRICS}
