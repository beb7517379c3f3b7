"""Spans around critmode's public functions, and the per-layer metrics.

``Tracer.install`` wraps each function in TRACED and puts the wrapper into
every critmode namespace that binds the original (``critmode.jordan.poly_roots``
as well as ``critmode.linalg.poly_roots`` and the package namespace), so
calls are seen however the caller looked the function up.  Nothing under
``src/`` is edited.

A span holds its name, start, end, parent span and operation id.  Spans are
kept in memory for one pass, folded into per-function totals at the end of
the pass, and the first pass's spans are kept for the trace file.  A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

TRACED = (
    ("linalg", "char_poly"),
    ("linalg", "poly_roots"),
    ("linalg", "companion_roots"),
    ("linalg", "numeric_rank_and_nullspace"),
    ("linalg", "solve_affine"),
    ("jordan", "compute_spectrum"),
    ("jordan", "block_sizes_at"),
    ("jordan", "build_chain"),
    ("jordan", "normalize_block"),
    ("jordan", "biorthogonalize_crossing"),
    ("jordan", "enforce_conjugation"),
    ("jordan", "dual_basis"),
    ("jordan", "verify_spectrum"),
    ("perturb", "exact_perturbed_spectrum"),
    ("perturb", "predict_splitting"),
    ("perturb", "predict_splitting_nongeneric"),
    ("perturb", "cluster_shifts"),
    ("perturb", "assign_predictions"),
    ("dynamics", "evolve_state"),
    ("dynamics", "evolve_basis_vector"),
    ("dynamics", "greens_time"),
    ("dynamics", "greens_freq"),
    ("dynamics", "check_sum_rules"),
    ("dynamics", "rk4_evolve"),
    ("dynamics", "cluster_cancellation_experiment"),
    ("model", "evolution_operator"),
    ("design", "catalog"),
    ("cli", "figure_summary"),
)

# per_layer metrics of BENCHMARK.json, with how each is derived
CALLS_PER_OP = (
    "linalg.poly_roots", "linalg.solve_affine", "jordan.block_sizes_at",
    "perturb.exact_perturbed_spectrum", "dynamics.evolve_basis_vector",
    "model.evolution_operator", "design.catalog",
)
SELF_US = (
    "linalg.poly_roots", "linalg.char_poly", "linalg.numeric_rank_and_nullspace",
    "jordan.build_chain", "jordan.normalize_block", "jordan.enforce_conjugation",
    "jordan.dual_basis", "jordan.verify_spectrum", "jordan.block_sizes_at",
    "jordan.biorthogonalize_crossing", "perturb.exact_perturbed_spectrum",
    "perturb.predict_splitting", "perturb.predict_splitting_nongeneric",
    "perturb.cluster_shifts", "perturb.assign_predictions",
    "dynamics.evolve_state", "dynamics.greens_time", "dynamics.greens_freq",
    "dynamics.check_sum_rules", "dynamics.cluster_cancellation_experiment",
    "cli.figure_summary",
)
ROOT_STAGE = ("linalg.char_poly", "linalg.poly_roots")


def _rk4_steps(args, kwargs) -> int:
    """Steps rk4_evolve(sys, phi0, times, step) takes, as it counts them."""
    times = args[2] if len(args) > 2 else kwargs["times"]
    step = args[3] if len(args) > 3 else kwargs.get("step", 1e-4)
    steps, t_cur = 0, 0.0
    for t in times:
        if t > t_cur:
            steps += max(1, int(round((t - t_cur) / step)))
        t_cur = t
    return steps


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.stack = []
        self.op = None
        self.first_pass = None
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.root_stage = 0.0
        self.counters = defaultdict(float)
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "jordan.compute_spectrum":
                self.counters["flagged_clusters"] += len(result.near_critical_clusters)
            elif name == "dynamics.rk4_evolve":
                self.counters["rk4_steps"] += _rk4_steps(args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every critmode binding of each traced function."""
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "critmode" or key.startswith("critmode.")
        ]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"critmode.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in self._restore:
            setattr(module, attr, original)
        self._restore.clear()

    def end_pass(self) -> None:
        """Fold this pass's spans into the totals and start afresh."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.inclusive[name] += dur
            self.self_time[name] += dur - child[i]
            if name in ROOT_STAGE and parent >= 0 and spans[parent][0] == "jordan.compute_spectrum":
                self.root_stage += dur
        if self.first_pass is None:
            self.first_pass = [list(s) for s in spans]
        spans.clear()

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics over ``ops`` traced operations (setup.* excluded)."""
        out = {}
        for name in CALLS_PER_OP:
            out[f"{name}.calls_per_op"] = (self.calls[name] / ops, "count/op")
        for name in SELF_US:
            out[f"{name}.self_us"] = (1e6 * self.self_time[name] / ops, "us/op")
        calls = self.calls["jordan.compute_spectrum"]
        incl = self.inclusive["jordan.compute_spectrum"]
        out["jordan.compute_spectrum.us"] = (1e6 * incl / calls if calls else 0.0, "us")
        out["jordan.root_stage_share"] = (self.root_stage / incl if incl else 0.0, "ratio")
        roots = self.calls["linalg.poly_roots"]
        out["linalg.companion_fallback_ratio"] = (
            self.calls["linalg.companion_roots"] / roots if roots else 0.0, "ratio"
        )
        out["jordan.flagged_clusters_per_op"] = (
            self.counters["flagged_clusters"] / ops, "count/op"
        )
        rk4 = self.inclusive["dynamics.rk4_evolve"]
        out["dynamics.rk4_evolve.steps_per_s"] = (
            self.counters["rk4_steps"] / rk4 if rk4 else 0.0, "steps/s"
        )
        return out
