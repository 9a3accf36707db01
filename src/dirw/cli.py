"""Command-line front end.

Subcommands::

    dirw solve     --config cfg.json --problem benchmark2d --x0 3,3 --out run1
    dirw classify  --problem benchmark2d --x0 0,1
    dirw escape    --config experiment.json --out escape.json
    dirw selfcheck

Exit codes: solve returns 0 on convergence, 2 when the iteration budget is
exhausted, 1 on errors; classify returns 3 for a non-stationary point;
escape and selfcheck return 0/1.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import selfcheck as selfcheck_suite
from ._rng import make_rng
from .analysis import (
    CLASS_STRICT_SADDLE,
    classify_stationary_point,
    hessian_norm,
    stationarity_residual,
)
from .errors import NonStationaryPointError, NumericalFailure, integer, real, real_array
from .jacobians import estimate_map_lipschitz
from .problems import BENCHMARK2D_STATIONARY, benchmark2d, load_problem
from .solvers import (
    SolverConfig,
    run,
    trace_states_to_jsonl,
    trace_to_csv,
    validate_config,
)

#: Residual gate for classifying points supplied on the command line.
CLASSIFY_GATE = 1e-4

#: Radius at which discovered limits are merged into one stationary point.
CLUSTER_RADIUS = 1e-3

#: Initialization box used by "uniform" starting points.
DEFAULT_INIT_BOX = (-3.0, 3.0)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _dump_json(obj, fh):
    json.dump(_jsonable(obj), fh, sort_keys=True, indent=2)
    fh.write("\n")


def resolve_problem(spec):
    if spec == "benchmark2d":
        return benchmark2d()
    return load_problem(spec)


def load_solver_config(path):
    if path is None:
        return SolverConfig("DIRL1")
    with open(path, "r", encoding="utf-8") as fh:
        return SolverConfig.from_dict(json.load(fh))


def parse_x0(spec, n, seed):
    """Parse an initial-point spec: literal vector, 'zeros', or 'uniform[:seed]'."""
    if spec == "zeros":
        return np.zeros(n)
    if spec == "uniform" or spec.startswith("uniform:"):
        if spec == "uniform":
            s = integer("--seed", seed, 0)
        else:
            text = spec[len("uniform:"):]
            s = integer("--x0 uniform:<seed>", int(text) if text.isdecimal() else text, 0)
        lo, hi = DEFAULT_INIT_BOX
        return make_rng(s, "x0").uniform(lo, hi, n)
    text = spec.strip()
    if text.startswith("["):
        values = json.loads(text)
    else:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    x0 = real_array("x0", values)
    if x0.shape != (n,):
        raise ValueError(f"x0 has {x0.size} entries, problem dimension is {n}")
    return x0


@dataclass
class ExperimentConfig:
    problem_spec: str
    solver: SolverConfig
    num_inits: int
    init_lo: np.ndarray
    init_hi: np.ndarray
    seed: int
    saddle_radius: float
    perturbation: np.ndarray = None
    perturbation_scale: float = None

    REQUIRED = ("problem", "solver", "num_inits", "init_box", "seed")
    OPTIONAL = ("saddle_radius", "perturbation", "perturbation_scale")

    @staticmethod
    def from_dict(data):
        if not isinstance(data, dict):
            raise ValueError(f"experiment config must be a JSON object, got {data!r}")
        for key in ExperimentConfig.REQUIRED:
            if key not in data:
                raise ValueError(f"experiment config missing field {key!r}")
        unknown = set(data) - set(ExperimentConfig.REQUIRED + ExperimentConfig.OPTIONAL)
        if unknown:
            raise ValueError(f"unknown experiment config fields: {sorted(unknown)}")
        if not isinstance(data["problem"], str):
            raise ValueError(f"problem must be a path or a built-in name, got {data['problem']!r}")
        box = data["init_box"]
        if not (isinstance(box, (list, tuple)) and len(box) == 2):
            raise ValueError(f"init_box must be a pair [lo, hi], got {box!r}")
        lo, hi = (np.atleast_1d(real_array("init_box", bound)) for bound in box)
        pert = data.get("perturbation")
        scale = data.get("perturbation_scale")
        if scale is not None:
            scale = real("perturbation_scale", scale)
            if scale < 0.0:
                raise ValueError(f"perturbation_scale must be >= 0, got {scale!r}")
        return ExperimentConfig(
            problem_spec=data["problem"],
            solver=SolverConfig.from_dict(data["solver"]),
            num_inits=integer("num_inits", data["num_inits"], 1),
            init_lo=lo,
            init_hi=hi,
            seed=integer("seed", data["seed"], 0),
            saddle_radius=real("saddle_radius", data.get("saddle_radius", 1e-3), 0.0),
            perturbation=None if pert is None else real_array("perturbation", pert),
            perturbation_scale=scale,
        )


def _broadcast_box(exp, n):
    for bound in (exp.init_lo, exp.init_hi):
        if np.ndim(bound) > 1 or np.size(bound) not in (1, n):
            raise ValueError(
                f"init_box bounds must have 1 or {n} entries (the problem "
                f"dimension), got shape {np.shape(bound)}"
            )
    lo = np.broadcast_to(exp.init_lo, (n,)).astype(float)
    hi = np.broadcast_to(exp.init_hi, (n,)).astype(float)
    if np.any(lo >= hi):
        raise ValueError("init_box lower bounds must be strictly below upper bounds")
    return lo, hi


def _classify_label(problem, point):
    try:
        report = classify_stationary_point(problem, point, tol_residual=CLASSIFY_GATE)
        return report.classification
    except NonStationaryPointError:
        return "Unclassified"


def _norms(d):
    """Euclidean norms over the last axis of ``d``, each equal to the bit to
    ``np.linalg.norm`` of that row (the sqrt of a dot product);
    ``norm(axis=...)`` and ``einsum`` sum in another order."""
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


def run_escape(exp):
    """Run the seeded multi-start experiment and aggregate basin statistics.

    One serial pass in initialization order: every start draws from its own
    counter-based stream, is solved, and its limit joins the nearest
    cluster within CLUSTER_RADIUS (the first on a tie) or opens a new one.
    """
    problem = resolve_problem(exp.problem_spec)
    n = problem.dimension
    perturbation = exp.perturbation
    if perturbation is None and exp.perturbation_scale:
        s = exp.perturbation_scale
        perturbation = make_rng(exp.seed, "perturbation").uniform(-s, s, n)
    if perturbation is not None:
        problem = problem.perturbed_linearly(perturbation)
    lo, hi = _broadcast_box(exp, n)

    points = np.empty((0, n))
    if exp.problem_spec == "benchmark2d" and perturbation is None:
        # The benchmark's stationary set is known in closed form.
        points = np.array(BENCHMARK2D_STATIONARY, dtype=float)
    labels = [_classify_label(problem, point) for point in points]
    counts = [0] * len(points)

    records, solved = [], []
    for i in range(exp.num_inits):
        x0 = lo + (hi - lo) * make_rng(exp.seed, "init", i).random(n)
        try:
            trace = run(exp.solver, problem, x0, record_every=1_000_000_000)
        except NumericalFailure as exc:
            records.append({"init_index": i, "init": x0, "error": str(exc), "basin": "failed"})
            continue
        limit = trace.limit_x
        dist = _norms(limit - points)
        best = int(np.argmin(dist)) if dist.size else 0
        distance = float(dist[best]) if dist.size else math.inf
        if distance > CLUSTER_RADIUS:
            best, distance = len(points), 0.0
            points = np.vstack([points, limit])
            labels.append(_classify_label(problem, limit))
            counts.append(0)
        counts[best] += 1
        record = {
            "init_index": i,
            "init": x0,
            "final_x": trace.final_x,
            "limit_x": limit,
            "converged": trace.converged,
            "residual": trace.final_residual,
            "basin": f"cluster_{best}",
            "nearest_known_point": points[best],
            "distance": distance,
        }
        records.append(record)
        solved.append(record)

    saddles = points[[label == CLASS_STRICT_SADDLE for label in labels]]
    limits = np.reshape([record["limit_x"] for record in solved], (-1, n))
    near = (_norms(limits[:, None] - saddles) <= exp.saddle_radius).any(axis=1).tolist()
    for record, flag in zip(solved, near):
        record["at_saddle"] = flag

    failed = exp.num_inits - len(solved)
    basins = {f"cluster_{j}": count for j, count in enumerate(counts)}
    if failed:
        basins["failed"] = failed
    return {
        "num_inits": exp.num_inits,
        "seed": exp.seed,
        "saddle_radius": exp.saddle_radius,
        "solver": exp.solver.to_dict(),
        "problem": exp.problem_spec,
        "perturbation": perturbation,
        "clusters": [
            {"point": point, "label": label, "count": count}
            for point, label, count in zip(points, labels, counts)
        ],
        "basins": basins,
        "fraction_at_saddle": sum(near) / exp.num_inits,
        "records": records,
    }


def cmd_solve(args):
    try:
        problem = resolve_problem(args.problem)
        config = load_solver_config(args.config)
        x0 = parse_x0(args.x0, problem.dimension, args.seed)
        report = validate_config(config, problem)
        if report.hard_errors:
            for line in report.hard_errors:
                print(f"error: {line}", file=sys.stderr)
            return 1
        for line in report.warnings:
            print(f"warning: {line}", file=sys.stderr)
        trace = run(config, problem, x0, trace_full=args.trace_full)
    except (ValueError, NumericalFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    classification = None
    diagnostics = dict(trace.diagnostics)
    try:
        saddle = classify_stationary_point(
            problem, trace.limit_x, tol_residual=CLASSIFY_GATE
        )
        classification = saddle.to_dict()
        diagnostics["restricted_hessian_norm"] = hessian_norm(saddle)
    except NonStationaryPointError:
        pass

    if config.algorithm == "DIRL2" and trace.converged and problem.dimension <= 20:
        points = _tail_sample_points(trace, config, problem.dimension)
        L_S = estimate_map_lipschitz(config, problem, points)
        diagnostics["subproblem_lipschitz_estimate"] = L_S
        diagnostics["alpha_below_inverse_1_plus_ls"] = config.alpha < 1.0 / (1.0 + L_S)

    summary = {
        "algorithm": config.algorithm,
        "converged": trace.converged,
        "iterations": trace.iterations,
        "final_x": trace.final_x,
        "limit_x": trace.limit_x,
        "residual": trace.final_residual,
        "classification": classification,
        "diagnostics": diagnostics,
    }
    if args.out:
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            _dump_json(summary, fh)
        trace_to_csv(trace, args.out + ".csv")
        if args.trace_full:
            trace_states_to_jsonl(trace, args.out + ".states.jsonl")
    else:
        _dump_json(summary, sys.stdout)
    return 0 if trace.converged else 2


def _tail_sample_points(trace, config, n, count=5):
    """Stack (x, eps) pairs from the trace tail; eps is reconstructed from
    the deterministic decay schedule."""
    eps0 = config.initial_eps(n)
    points = []
    first_k = trace.iterations - (len(trace.tail) - 1)
    picks = np.linspace(0, len(trace.tail) - 1, num=min(count, len(trace.tail)))
    for idx in picks.astype(int):
        k = first_k + idx
        eps_k = eps0 * config.eps_factor**k
        points.append(np.concatenate([trace.tail[idx], eps_k]))
    return points


def cmd_classify(args):
    try:
        problem = resolve_problem(args.problem)
        x = parse_x0(args.x0, problem.dimension, args.seed)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stationarity = stationarity_residual(problem, x, tol_residual=CLASSIFY_GATE)
    output = {"gate": CLASSIFY_GATE, "stationarity": stationarity.to_dict()}
    if not stationarity.is_stationary:
        _dump_json(output, sys.stdout)
        return 3
    saddle = classify_stationary_point(problem, x, tol_residual=CLASSIFY_GATE)
    output["saddle"] = saddle.to_dict()
    _dump_json(output, sys.stdout)
    return 0


def cmd_escape(args):
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            exp = ExperimentConfig.from_dict(json.load(fh))
        summary = run_escape(exp)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _dump_json(summary, fh)
    else:
        _dump_json(summary, sys.stdout)
    print(
        f"{summary['num_inits']} runs, fraction_at_saddle="
        f"{summary['fraction_at_saddle']}",
        file=sys.stderr,
    )
    return 0


def cmd_selfcheck(args):
    results = selfcheck_suite.run_all()
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
    return 0 if all(r.passed for r in results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dirw",
        description="Damped iteratively reweighted solvers for sparse "
        "nonconvex regularization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one solve and classify its limit")
    solve.add_argument("--config", help="solver config JSON path")
    solve.add_argument("--problem", default="benchmark2d", help="problem JSON path or built-in name")
    solve.add_argument("--x0", default="zeros", help="vector literal, 'zeros', or 'uniform[:seed]'")
    solve.add_argument("--out", help="output prefix for .json/.csv artifacts")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--trace-full", action="store_true", dest="trace_full")
    solve.set_defaults(func=cmd_solve)

    classify = sub.add_parser("classify", help="classify a stationary point")
    classify.add_argument("--problem", default="benchmark2d")
    classify.add_argument("--x0", required=True, help="point to classify")
    classify.add_argument("--seed", type=int, default=0)
    classify.set_defaults(func=cmd_classify)

    escape = sub.add_parser("escape", help="seeded multi-start saddle-escape experiment")
    escape.add_argument("--config", required=True, help="experiment config JSON path")
    escape.add_argument("--out", help="summary JSON path (stdout if omitted)")
    escape.add_argument("--workers", type=int, choices=[1], default=1,
                        help="always 1: starts are solved serially")
    escape.set_defaults(func=cmd_escape)

    check = sub.add_parser("selfcheck", help="run the built-in property suites")
    check.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
