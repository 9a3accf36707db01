"""Span recording around dirw's public functions, installed from outside.

The tracer replaces each target function with a wrapper that records a
span (name, start, end, parent). Spans are aggregated per (name, parent)
as they close, so memory stays bounded however long the run is. A span's
self time is its duration minus the time covered by its child spans.

Functions reach callers through more than one name: ``from .solvers
import run`` gives ``dirw.cli`` its own reference. ``install`` therefore
patches every alias it finds in any ``dirw`` module by identity and then
checks that no module still holds an original, so a missed alias fails
loudly instead of under-counting.
"""

import importlib
import os
import sys
import time
from collections import defaultdict


def _gradient_work(tracer, args, result):
    # Dense-matrix terms only; the O(m + n) vector terms are left out.
    smooth = args[0]
    m, n = smooth.A.shape
    if smooth.kind == "least_squares":
        flops, nbytes = 4 * m * n, 16 * m * n  # A @ x and A.T @ r
    else:
        flops, nbytes = 2 * n * n, 8 * n * n  # A @ x
    tracer.counters["problems.gradient.flops"] += flops
    tracer.counters["problems.gradient.bytes"] += nbytes


def _objective_work(tracer, args, result):
    smooth = args[0].smooth
    m, n = smooth.A.shape
    tracer.counters["problems.objective.flops"] += 2 * m * n  # one A @ x
    tracer.counters["problems.objective.bytes"] += 8 * m * n


def _run_iterations(tracer, args, result):
    tracer.counters["solvers.iterations"] += result.iterations


def _written_bytes(tracer, args, result):
    tracer.counters["solvers.trace_write.bytes"] += os.path.getsize(args[1])


def _eigen_dim(tracer, args, result):
    dim = len(args[0])
    if dim > tracer.counters["analysis.symmetric_eigen.max_dim"]:
        tracer.counters["analysis.symmetric_eigen.max_dim"] = dim


#: (span name, "module:attribute path", hook run after each call).
TARGETS = (
    ("problems.gradient", "problems:SmoothTerm.gradient", _gradient_work),
    ("problems.objective", "problems:Problem.perturbed_value_l1", _objective_work),
    ("problems.objective", "problems:Problem.perturbed_value_l2", _objective_work),
    ("problems.lipschitz", "problems:Problem.estimate_lipschitz_gradient", None),
    ("problems.hessian", "problems:SmoothTerm.hessian", None),
    ("regularizers.derivative", "regularizers:Regularizer.derivative", None),
    ("regularizers.value", "regularizers:Regularizer.value", None),
    ("solvers.run", "solvers:run", _run_iterations),
    ("solvers.step", "solvers:dirl1_step", None),
    ("solvers.step", "solvers:dirl2_step", None),
    ("solvers.weights", "solvers:dirl1_weights", None),
    ("solvers.weights", "solvers:dirl2_weights", None),
    ("solvers.subproblem", "solvers:dirl1_subproblem", None),
    ("solvers.subproblem", "solvers:dirl2_subproblem", None),
    ("solvers.validate_config", "solvers:validate_config", None),
    ("solvers.trace_write", "solvers:trace_to_csv", _written_bytes),
    ("solvers.trace_write", "solvers:trace_states_to_jsonl", _written_bytes),
    ("analysis.support", "analysis:support", None),
    ("analysis.extrapolate_limit", "analysis:extrapolate_limit", None),
    ("analysis.stationarity_residual", "analysis:stationarity_residual", None),
    ("analysis.symmetric_eigen", "analysis:symmetric_eigen", _eigen_dim),
    ("analysis.classify", "analysis:classify_stationary_point", None),
    ("jacobians.stationary_jacobian", "jacobians:dirl1_jacobian", None),
    ("jacobians.stationary_jacobian", "jacobians:dirl2_jacobian", None),
    ("jacobians.equivalence", "jacobians:saddle_unstable_equivalence", None),
    ("cli.run_escape", "cli:run_escape", None),
    ("cli.output", "cli:_dump_json", None),
    ("cli.load_problem", "problems:load_problem", None),
    ("rng.make_rng", "_rng:make_rng", None),
)


class Tracer:
    """Aggregated span and counter store, plus the patches that feed it."""

    def __init__(self):
        self.spans = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counters = defaultdict(float)
        self._stack = []  # open spans: [name, child_s]
        self._patches = []  # (owner, attribute, original)

    def _close(self, name, frame, duration):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        key = (name, parent[0] if parent is not None else None)
        agg = self.spans.get(key)
        if agg is None:
            agg = self.spans[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[1]

    def _wrap(self, name, fn, hook):
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, perf_counter() - start)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span recorded by the benchmark itself."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def install(self):
        """Patch every target and every alias of it in loaded dirw modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dirw" or n.startswith("dirw.")]
        originals = {}
        for name, target, hook in TARGETS:
            module_name, path = target.split(":")
            owner = importlib.import_module(f"dirw.{module_name}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            originals[id(original)] = target
            if owner_path:  # a method: the class is its only holder
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, wrapper)
        for module in modules:
            for alias, value in vars(module).items():
                if id(value) in originals:
                    self.uninstall()
                    raise RuntimeError(
                        f"{module.__name__}.{alias} still refers to the "
                        f"unwrapped {originals[id(value)]}"
                    )

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self):
        """Per span name: [calls, total_s, self_s] summed over parents."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, _parent), (calls, total, own) in self.spans.items():
            agg = out[name]
            agg[0] += calls
            agg[1] += total
            agg[2] += own
        return out


def layer_metrics(tracer, ops, untraced_op_s, traced_op_s):
    """Per-layer metrics of a traced run of ``ops`` operations.

    ``calls`` and ``ms``/``self_ms`` are per workload operation; ``us_per_call``
    is the mean over all calls. Times of layers that only some workloads
    reach (jacobians, cli, rng, trace writing) are in the span table but are
    listed here as call counts, since every workload reports every metric.
    """
    t = tracer.totals()
    c = tracer.counters

    def calls(name):
        return t[name][0] / ops

    def us_per_call(name, column=1):
        n = t[name][0]
        return t[name][column] / n * 1e6 if n else 0.0

    def ms(name, column=1):
        return t[name][column] / ops * 1e3

    iterations = c["solvers.iterations"]
    loop_s = t["solvers.run"][1] - sum(
        tracer.spans.get((child, "solvers.run"), (0, 0.0))[1]
        for child in ("solvers.validate_config", "analysis.extrapolate_limit",
                      "analysis.stationarity_residual")
    )
    values = {
        "problems.gradient.calls": ("count", calls("problems.gradient")),
        "problems.gradient.us_per_call": ("us", us_per_call("problems.gradient")),
        "problems.gradient.flops_computed": ("flop", c["problems.gradient.flops"] / ops),
        "problems.gradient.bytes_computed": ("B", c["problems.gradient.bytes"] / ops),
        "problems.objective.calls": ("count", calls("problems.objective")),
        "problems.objective.us_per_call": ("us", us_per_call("problems.objective")),
        "problems.objective.flops_computed": ("flop", c["problems.objective.flops"] / ops),
        "problems.objective.bytes_computed": ("B", c["problems.objective.bytes"] / ops),
        "problems.lipschitz.calls": ("count", calls("problems.lipschitz")),
        "problems.lipschitz.ms": ("ms", ms("problems.lipschitz")),
        "problems.hessian.calls": ("count", calls("problems.hessian")),
        "problems.hessian.ms": ("ms", ms("problems.hessian")),
        "regularizers.derivative.calls": ("count", calls("regularizers.derivative")),
        "regularizers.derivative.us_per_call": ("us", us_per_call("regularizers.derivative")),
        "regularizers.value.calls": ("count", calls("regularizers.value")),
        "regularizers.value.us_per_call": ("us", us_per_call("regularizers.value")),
        "solvers.iterations": ("count", iterations / ops),
        "solvers.run.calls": ("count", calls("solvers.run")),
        "solvers.us_per_iteration": ("us", loop_s / iterations * 1e6 if iterations else 0.0),
        "solvers.step.self_us_per_call": ("us", us_per_call("solvers.step", 2)),
        "solvers.weights.us_per_call": ("us", us_per_call("solvers.weights")),
        "solvers.subproblem.us_per_call": ("us", us_per_call("solvers.subproblem")),
        "solvers.validate_config.ms": ("ms", ms("solvers.validate_config")),
        "solvers.run.self_ms": ("ms", ms("solvers.run", 2)),
        "solvers.trace_write.calls": ("count", calls("solvers.trace_write")),
        "solvers.trace_write.bytes": ("B", c["solvers.trace_write.bytes"] / ops),
        "analysis.support.calls": ("count", calls("analysis.support")),
        "analysis.support.us_per_call": ("us", us_per_call("analysis.support")),
        "analysis.extrapolate_limit.ms": ("ms", ms("analysis.extrapolate_limit")),
        "analysis.stationarity_residual.calls": ("count", calls("analysis.stationarity_residual")),
        "analysis.stationarity_residual.us_per_call": (
            "us", us_per_call("analysis.stationarity_residual")),
        "analysis.symmetric_eigen.calls": ("count", calls("analysis.symmetric_eigen")),
        "analysis.symmetric_eigen.ms": ("ms", ms("analysis.symmetric_eigen")),
        "analysis.symmetric_eigen.max_dim": ("count", c["analysis.symmetric_eigen.max_dim"]),
        "analysis.classify.self_ms": ("ms", ms("analysis.classify", 2)),
        "jacobians.stationary_jacobian.calls": ("count", calls("jacobians.stationary_jacobian")),
        "jacobians.equivalence.calls": ("count", calls("jacobians.equivalence")),
        "cli.run_escape.calls": ("count", calls("cli.run_escape")),
        "cli.output.calls": ("count", calls("cli.output")),
        "cli.load_problem.calls": ("count", calls("cli.load_problem")),
        "rng.make_rng.calls": ("count", calls("rng.make_rng")),
        "trace.overhead_pct": ("%", (traced_op_s / untraced_op_s - 1.0) * 100.0),
    }
    return {k: {"value": v, "unit": u} for k, (u, v) in values.items()}


def consistency_errors(tracer, ops, expected_calls):
    """Span counts that must agree with each other, or with the workload.

    A wrapper that missed an alias of a function under-counts it, which
    breaks one of these equalities.
    """
    t = tracer.totals()
    c = tracer.counters
    iterations = c["solvers.iterations"]
    runs = t["solvers.run"][0]
    checks = [
        ("solvers.step calls == solvers.iterations", t["solvers.step"][0], iterations),
        ("solvers.weights calls == solvers.iterations", t["solvers.weights"][0], iterations),
        ("solvers.subproblem calls == solvers.iterations",
         t["solvers.subproblem"][0], iterations),
        ("problems.objective calls == iterations + runs",
         t["problems.objective"][0], iterations + runs),
        ("solvers.validate_config calls == problems.lipschitz calls",
         t["solvers.validate_config"][0], t["problems.lipschitz"][0]),
    ]
    for name, per_op in expected_calls.items():
        checks.append((f"{name} calls == {per_op} per operation", t[name][0], per_op * ops))
    return [f"{label}: {got} != {want}" for label, got, want in checks if got != want]
