"""The benchmark's tracer still sees every function it patches.

``perfbench/tracing.py`` wraps dirw's functions by name and checks span
counts against each other. A refactor that calls a traced function through
a name the tracer does not patch (a helper that swallows
``trace_states_to_jsonl``, say) makes those counts disagree. These tests
run one traced ``dirw solve --trace-full --out``, one ``dirw escape`` and one
analysis shaped like the ``lsq1000`` workload, and ask the tracer's own
consistency check.
"""

import importlib.util
import json
import pathlib
import sys

import numpy as np

from dirw import analysis, cli, jacobians, problems, regularizers, solvers

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_solve_trace_full_is_consistent(tmp_path, monkeypatch):
    tracing = _load_tracing(monkeypatch)
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 6))
    spec = {"smooth": {"kind": "least_squares", "A": A.tolist(), "b": rng.normal(size=4).tolist()},
            "regularizer": {"family": "LPN", "p": 0.5}, "lambda": 0.05}
    problem = tmp_path / "lsq.json"
    problem.write_text(json.dumps(spec))
    config = tmp_path / "solver.json"
    config.write_text(json.dumps({"algorithm": "DIRL2", "max_iter": 200}))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["solve", "--config", str(config), "--problem", str(problem),
                         "--x0", "zeros", "--out", str(tmp_path / "run"), "--trace-full"])
    finally:
        tracer.uninstall()
    assert code in (0, 2)
    assert tracer.counters["solvers.iterations"] > 0
    assert tracing.consistency_errors(
        tracer, 1, {"solvers.run": 1, "cli.load_problem": 1, "solvers.trace_write": 2}) == []


def test_traced_escape_is_consistent(tmp_path, monkeypatch):
    # escape2d's operation at 5 starts per algorithm, through the same call.
    tracing = _load_tracing(monkeypatch)
    configs = []
    for algorithm in ("DIRL1", "DIRL2"):
        config = tmp_path / f"{algorithm}.json"
        config.write_text(json.dumps({
            "problem": "benchmark2d", "solver": {"algorithm": algorithm}, "num_inits": 5,
            "init_box": [[-3, -3], [3, 3]], "seed": 20260809, "saddle_radius": 1e-3}))
        configs.append(config)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [cli.main(["escape", "--config", str(config), "--out",
                           str(config.with_suffix(".summary.json")), "--workers", "1"])
                 for config in configs]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    assert tracing.consistency_errors(
        tracer, 1, {"cli.run_escape": 2, "solvers.run": 10, "rng.make_rng": 10}) == []


def test_traced_lsq_analysis_is_consistent(monkeypatch):
    # lsq1000's operation at a small size: a DIRL1 least-squares solve, then
    # classify, the stationary Jacobian and the saddle/instability cross-check.
    tracing = _load_tracing(monkeypatch)
    rng = np.random.default_rng(3)
    problem = problems.Problem(
        problems.SmoothTerm("least_squares", rng.normal(size=(4, 6)), rng.normal(size=4)),
        regularizers.Regularizer("LPN", 0.5), 0.05)
    config = solvers.SolverConfig("DIRL1")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        limit = solvers.run(config, problem, np.zeros(6)).limit_x
        report = analysis.classify_stationary_point(problem, limit)
        jacobians.dirl1_jacobian(problem, limit, config.alpha, config.beta, config.mu,
                                 config.eps_decay)
        equiv = jacobians.saddle_unstable_equivalence(
            problem, limit, config.alpha, config.beta, config.mu, "DIRL1")
    finally:
        tracer.uninstall()
    assert report.pattern.active and equiv.consistent
    assert tracing.consistency_errors(
        tracer, 1, {"solvers.run": 1, "jacobians.stationary_jacobian": 2,
                    "jacobians.equivalence": 1}) == []
    # one eigensolve per classification: the direct one and one inside each
    # Jacobian, which the cross-check reuses instead of classifying again.
    # A DIRL1 Jacobian reads its block eigenvalues off that classification.
    totals = tracer.totals()
    assert totals["analysis.classify"][0] == 3
    assert totals["analysis.symmetric_eigen"][0] == 3
    assert ("analysis.classify", "jacobians.equivalence") not in tracer.spans
