"""Command-line front end.

Subcommands::

    dirw solve     --config cfg.json --problem benchmark2d --x0 3,3 --out run1
    dirw classify  --problem benchmark2d --x0 0,1
    dirw escape    --config experiment.json --out escape.json

Exit codes: solve returns 0 on convergence, 2 when the iteration budget is
exhausted, 1 on errors; classify returns 3 for a non-stationary point;
escape returns 0/1.
"""

import argparse
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from ._rng import make_rng
from .analysis import (
    CLASS_STRICT_SADDLE,
    classify_stationary_point,
    hessian_norm,
    stationarity_residual,
)
from .errors import NonStationaryPointError, NumericalFailure, integer, json_object, real, real_array
from .jacobians import estimate_map_lipschitz
from .problems import BENCHMARK2D_STATIONARY, benchmark2d, load_problem
from .solvers import (
    TAIL_WINDOW,
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

#: Most starts one escape experiment may ask for; every result is held in memory.
MAX_NUM_INITS = 10**6


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
    try:
        if text.startswith("["):
            values = json.loads(text)
        else:
            values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise ValueError(f"x0 must hold finite numbers only: {exc}") from exc
    x0 = real_array("x0", values)
    if x0.shape != (n,):
        raise ValueError(f"x0 has {x0.size} entries, problem dimension is {n}")
    return x0


@dataclass(frozen=True)
class ExperimentConfig:
    """A multi-start experiment; the fields are the JSON keys, checked when built.
    ``run_escape`` checks ``init_box`` and ``perturbation`` against the dimension."""

    problem: str
    solver: SolverConfig
    num_inits: int
    init_box: tuple
    seed: int
    saddle_radius: float = 1e-3
    perturbation: tuple = None
    perturbation_scale: float = None

    def __post_init__(self):
        if not isinstance(self.problem, str):
            raise ValueError(f"problem must be a path or a built-in name, got {self.problem!r}")
        if not isinstance(self.solver, SolverConfig):
            raise ValueError(f"solver must be a SolverConfig, got {self.solver!r}")
        num_inits = integer("num_inits", self.num_inits, 1)
        if num_inits > MAX_NUM_INITS:
            # The value is not echoed: a long int may exceed str()'s digit limit.
            raise ValueError(f"num_inits must be at most {MAX_NUM_INITS}")
        box = self.init_box
        if not (isinstance(box, (list, tuple)) and len(box) == 2):
            raise ValueError(f"init_box must be a pair [lo, hi], got {box!r}")
        bounds = [np.atleast_1d(real_array("init_box", bound)) for bound in box]
        if any(bound.ndim > 1 for bound in bounds):
            raise ValueError("init_box bounds must be numbers or lists of numbers")
        pert, scale = self.perturbation, self.perturbation_scale
        if pert is not None and scale is not None:
            raise ValueError("set perturbation or perturbation_scale, not both")
        pert = None if pert is None else real_array("perturbation", pert)
        if pert is not None and pert.ndim != 1:
            raise ValueError("perturbation must be a list of numbers")
        scale = None if scale is None else real("perturbation_scale", scale)
        if scale is not None and scale < 0.0:
            raise ValueError(f"perturbation_scale must be >= 0, got {scale!r}")
        for name, value in {
            "num_inits": num_inits,
            "init_box": tuple(tuple(bound.tolist()) for bound in bounds),
            "seed": integer("seed", self.seed, 0),
            "saddle_radius": real("saddle_radius", self.saddle_radius, 0.0),
            "perturbation": None if pert is None else tuple(pert.tolist()),
            "perturbation_scale": scale,
        }.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, data):
        """The config from parsed JSON, its ``solver`` read by SolverConfig.from_dict."""
        required = [f.name for f in fields(cls) if f.default is MISSING]
        data = json_object("experiment config", data, required, [f.name for f in fields(cls)])
        return cls(**dict(data, solver=SolverConfig.from_dict(data["solver"])))


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
    A start that raises NumericalFailure counts in ``basins["failed"]``, and
    one that runs out of ``max_iter`` unconverged in ``basins["budget"]``:
    neither is clustered, classified or counted in ``fraction_at_saddle``.
    """
    problem = resolve_problem(exp.problem)
    n = problem.dimension
    perturbation = exp.perturbation
    if exp.perturbation_scale:  # never set together with perturbation
        s = exp.perturbation_scale
        perturbation = make_rng(exp.seed, "perturbation").uniform(-s, s, n)
    if perturbation is not None:
        problem = problem.perturbed_linearly(perturbation)
    try:
        lo, hi = (np.broadcast_to(bound, (n,)) for bound in exp.init_box)
    except ValueError:
        raise ValueError(f"init_box bounds must have 1 or {n} entries (the problem "
                         f"dimension), got {[len(bound) for bound in exp.init_box]}") from None
    if np.any(lo >= hi):
        raise ValueError("init_box lower bounds must be strictly below upper bounds")

    points = np.empty((0, n))
    if exp.problem == "benchmark2d" and perturbation is None:
        # The benchmark's stationary set is known in closed form.
        points = np.array(BENCHMARK2D_STATIONARY, dtype=float)
    labels = [_classify_label(problem, point) for point in points]
    counts = [0] * len(points)

    records, solved, unclustered = [], [], {"budget": 0, "failed": 0}
    for i in range(exp.num_inits):
        x0 = lo + (hi - lo) * make_rng(exp.seed, "init", i).random(n)
        try:
            trace = run(exp.solver, problem, x0, record_every=1_000_000_000)
        except NumericalFailure as exc:
            unclustered["failed"] += 1
            records.append({"init_index": i, "init": x0, "error": str(exc),
                            "iteration": exc.iteration, "basin": "failed"})
            continue
        limit = trace.limit_x
        if not trace.converged:
            unclustered["budget"] += 1
            records.append({"init_index": i, "init": x0, "final_x": trace.final_x,
                            "limit_x": limit, "converged": False,
                            "residual": trace.final_residual, "basin": "budget"})
            continue
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

    basins = {f"cluster_{j}": count for j, count in enumerate(counts)}
    basins.update((status, count) for status, count in unclustered.items() if count)
    return {
        "num_inits": exp.num_inits,
        "seed": exp.seed,
        "saddle_radius": exp.saddle_radius,
        "solver": exp.solver.to_dict(),
        "problem": exp.problem,
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
    if args.trace_full and not args.out:
        # Not argparse's exit 2, which means "budget exhausted" here.
        raise ValueError("--trace-full needs --out")
    problem = resolve_problem(args.problem)
    config = load_solver_config(args.config)
    x0 = parse_x0(args.x0, problem.dimension, args.seed)
    # A hard error leaves no warnings; run() raises it as ConfigValidationError.
    for line in validate_config(config, problem).warnings:
        print(f"warning: {line}", file=sys.stderr)
    trace = run(config, problem, x0, trace_full=args.trace_full)

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
        points = _tail_sample_points(trace)
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


def _tail_sample_points(trace):
    """Up to five (x, eps) states from the trace tail, stacked as vectors."""
    tail = trace.states[-TAIL_WINDOW:]
    picks = np.linspace(0, len(tail) - 1, num=min(5, len(tail))).astype(int)
    return [np.concatenate(tail[i]) for i in picks.tolist()]


def cmd_classify(args):
    problem = resolve_problem(args.problem)
    x = parse_x0(args.x0, problem.dimension, args.seed)
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
    with open(args.config, "r", encoding="utf-8") as fh:
        exp = ExperimentConfig.from_dict(json.load(fh))
    summary = run_escape(exp)
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
    solve.add_argument("--trace-full", action="store_true", dest="trace_full",
                       help="also write every iterate to <out>.states.jsonl (needs --out)")
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
    return parser


def main(argv=None):
    """Run one subcommand; any failure it raises is one ``error:`` line and exit 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, NumericalFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
