"""Damped iteratively reweighted l1/l2 fixed-point solvers.

Both algorithms repeat, from x0 and a positive relaxation vector eps0:

    weights   DIRL1:  w_i = r'(|x_i| + eps_i)
              DIRL2:  u_i = r'(z_i) / (2 z_i),  z_i = sqrt(x_i^2 + eps_i^2)
    solve     DIRL1:  y = softthresh(x - grad/beta, lam*w/beta)
              DIRL2:  y_i = (x_i - grad_i/beta) / (1 + (2 lam/beta) u_i)
    damp      x <- (1-alpha) x + alpha y
    relax     eps <- factor * eps

The damping factor alpha in (0,1) keeps the iteration map invertible, which
is what makes strict saddle points repel almost every trajectory. The
relaxation shrinks by (1 - alpha(1-mu)) per step in the default "damped"
mode, or by mu in "geometric" mode.

The perturbed objective F(x, eps) decreases monotonically along the
iteration whenever beta > alpha * L / 2 (L the gradient Lipschitz constant
of the smooth term); this is asserted at every step.
"""

import csv
import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import analysis
from .errors import ConfigValidationError, NumericalFailure, integer, json_object, real, real_array
from .regularizers import derivative_inverse

ALGORITHMS = ("DIRL1", "DIRL2")
EPS_DECAY_MODES = ("damped", "geometric")

#: Number of trailing iterates retained for limit extrapolation.
TAIL_WINDOW = 64

#: Relative slack allowed on the per-step descent assertion.
DESCENT_SLACK = 1e-10


def soft_threshold(z, w):
    """Componentwise sign(z_i) * max(|z_i| - w_i, 0); w_i = inf maps to 0.

    Exact ties |z_i| = w_i land on the zero branch.
    """
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.count_nonzero(w >= 0.0) != w.size:  # NaN fails the comparison too
        raise ValueError("thresholds must be nonnegative")
    return np.sign(z) * np.maximum(np.abs(z) - w, 0.0)


def dirl1_weights(x, eps, reg):
    """w_i = r'(|x_i| + eps_i), with the t -> 0+ limit at |x_i| + eps_i = 0.

    The limit is inf for non-Lipschitz regularizers; that only occurs on
    the eps = 0 analysis path since the solver keeps eps > 0. NaN is refused.
    """
    t = np.abs(np.asarray(x, dtype=float)) + np.asarray(eps, dtype=float)
    if t.ndim:
        try:  # the solver's case: eps > 0 keeps every t_i > 0, which r' checks
            return reg.derivative(t)
        except ValueError:  # a t_i of 0 (or not finite) takes the masked path
            pass
    if (t < 0.0).any():
        raise ValueError("|x_i| + eps_i must be nonnegative")
    if np.isnan(t).any():  # the mask below would give it r'(0+)
        raise ValueError("x and eps must not hold NaN")
    pos = t > 0.0
    w = np.full(t.shape, reg.derivative_at_zero_plus())
    if pos.any():
        w[pos] = np.atleast_1d(reg.derivative(t[pos]))
    return w


def dirl1_subproblem(center, w, beta, lam):
    """Minimizer of the weighted-l1 model around x: the gradient step
    ``center = x - grad/beta``, soft-thresholded at lam w / beta."""
    return soft_threshold(center, lam * np.asarray(w, dtype=float) / beta)


def dirl2_weights(x, eps, reg):
    """u_i = r'(z_i) / (2 z_i) with z_i = sqrt(x_i^2 + eps_i^2); inf at z_i = 0; NaN refused."""
    z = np.hypot(np.asarray(x, dtype=float), np.asarray(eps, dtype=float))
    if z.ndim:
        try:  # the solver's case: eps > 0 keeps every z_i > 0, which r' checks
            return _over_twice(reg.derivative(z), z)
        except ValueError:  # a z_i of 0 (or not finite) takes the masked path
            pass
    if np.isnan(z).any():  # the mask below would give it inf
        raise ValueError("x and eps must not hold NaN")
    pos = z > 0.0
    u = np.full(z.shape, math.inf)
    if pos.any():
        u[pos] = _over_twice(np.atleast_1d(reg.derivative(z[pos])), z[pos])
    return u


@np.errstate(over="ignore")
def _over_twice(d, z):
    """d / (2 z), where overflow to inf is the weight's z -> 0 limit: not warned."""
    return d / (2.0 * z)


def dirl2_subproblem(center, u, beta, lam):
    """Minimizer of the weighted-l2 model around x, from the gradient step
    ``center = x - grad/beta``; u_i = inf pins coordinate i to 0."""
    u = np.asarray(u, dtype=float)
    if np.count_nonzero(u >= 0.0) != u.size:  # NaN fails the comparison too
        raise ValueError("weights must be nonnegative")
    return np.where(np.isinf(u), 0.0, center / (1.0 + (2.0 * lam / beta) * u))


def eps_factor(alpha, mu, eps_decay):
    """Per-step relaxation factor: 1 - alpha(1 - mu) when damped, else mu."""
    if eps_decay == "damped":
        return 1.0 - alpha * (1.0 - mu)
    return mu


@dataclass(frozen=True)
class SolverConfig:
    """Algorithm choice and iteration parameters, read and range-checked once.

    ``beta > alpha * L / 2`` is additionally required at solve start, where
    L is the gradient Lipschitz constant of the problem's smooth term.
    ``eps0`` is stored as a float or a tuple of floats.
    """

    algorithm: str
    alpha: float = 0.2
    beta: float = 4.0
    mu: float = 0.3
    eps0: object = 1.0
    eps_decay: str = "damped"
    max_iter: int = 100_000
    tol_step: float = 1e-10
    tol_eps: float = 1e-10

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.eps_decay not in EPS_DECAY_MODES:
            raise ValueError(f"eps_decay must be one of {EPS_DECAY_MODES}")
        eps0 = real_array("eps0", self.eps0)
        if eps0.ndim > 1 or not (eps0 > 0.0).all():
            raise ValueError("eps0 must be a positive number or a list of them")
        read = {
            "alpha": real("alpha", self.alpha, 0.0, 1.0),
            "beta": real("beta", self.beta, 0.0),
            "mu": real("mu", self.mu, 0.0, 1.0),
            "eps0": float(eps0) if eps0.ndim == 0 else tuple(eps0.tolist()),
            "max_iter": integer("max_iter", self.max_iter, 0),
            "tol_step": real("tol_step", self.tol_step, 0.0),
            "tol_eps": real("tol_eps", self.tol_eps, 0.0),
        }
        for name, value in read.items():
            object.__setattr__(self, name, value)

    @property
    def eps_factor(self):
        return eps_factor(self.alpha, self.mu, self.eps_decay)

    def initial_eps(self, n):
        if isinstance(self.eps0, float):
            return np.full(n, self.eps0)
        if len(self.eps0) != n:
            raise ValueError("eps0 length must match the problem dimension")
        return np.array(self.eps0)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """The config from parsed JSON; every error starts with 'solver config'."""
        d = json_object("solver config", d, ("algorithm",), [f.name for f in fields(cls)])
        try:
            return cls(**d)
        except ValueError as exc:
            raise ValueError(f"solver config: {exc}") from exc


@dataclass
class IterateState:
    k: int
    x: np.ndarray
    eps: np.ndarray
    y: np.ndarray
    F_perturbed: float
    step_norm: float
    prox_center_inf: float = math.nan
    #: x - x_prev, the step that produced this state (None for a start).
    step: np.ndarray = None


@dataclass(frozen=True)
class TraceRecord:
    k: int
    F_perturbed: float
    step_norm: float
    eps_inf: float
    support_bits: str


@dataclass
class SolveTrace:
    algorithm: str
    records: list
    converged: bool
    iterations: int
    final_x: np.ndarray
    final_eps: np.ndarray
    limit_x: np.ndarray
    final_residual: float
    diagnostics: dict
    tail: list
    xs: list = None
    eps_history: list = None
    config: SolverConfig = None


def _model(algorithm, problem, x, eps, beta):
    """The gradient step x - grad/beta and the minimizer y of the reweighted
    model around x.

    x is not checked here: the maps check it first, and ``_step`` gets it
    from the objective call that accepted it.
    """
    center = x - problem.smooth.gradient(x) / beta
    if algorithm == "DIRL1":
        w = dirl1_weights(x, eps, problem.reg)
        return center, dirl1_subproblem(center, w, beta, problem.lam)
    u = dirl2_weights(x, eps, problem.reg)
    return center, dirl2_subproblem(center, u, beta, problem.lam)


def _perturbed_value(algorithm, problem, x, eps):
    if algorithm == "DIRL1":
        return problem.perturbed_value_l1(x, eps)
    return problem.perturbed_value_l2(x, eps)


def _check_finite(F, k):
    if not math.isfinite(F):
        raise NumericalFailure(
            f"perturbed objective is not finite at iteration {k}: {F!r}",
            iteration=k,
        )


def _descent_check(F_old, F_new, k):
    _check_finite(F_new, k)
    if F_new > F_old + DESCENT_SLACK * max(1.0, abs(F_old)):
        raise NumericalFailure(
            f"perturbed objective increased at iteration {k}: "
            f"{F_old!r} -> {F_new!r}",
            iteration=k,
        )


def _step(algorithm, state, config, problem):
    """One damped step x <- (1-alpha) x + alpha y; asserts descent of F(x, eps).

    Each array is checked once per iteration. The objective call that
    produced ``state`` has checked its x. The weights' call of r' checks
    |x| + eps (DIRL1) or hypot(x, eps) (DIRL2), and the subproblem checks
    the weights. The step is checked to be finite, and the objective call
    here checks the new x and eps with one predicate. The step x_new - x
    and the gradient step x - grad/beta are each formed once. A step that
    overflows raises NumericalFailure.
    """
    x, k = state.x, state.k + 1
    try:
        center, y = _model(algorithm, problem, x, state.eps, config.beta)
        x_new = (1.0 - config.alpha) * x + config.alpha * y
        eps_new = config.eps_factor * state.eps
        dx = x_new - x
        # Here and in run, ufunc reductions skip the Python frame of .max and .sum.
        step_norm = float(np.maximum.reduce(np.abs(dx)))
        # An eps that broadcasts x to another shape is left to the objective.
        if not math.isfinite(step_norm) and x_new.shape == np.shape(x):
            raise NumericalFailure(
                f"step is not finite at iteration {k}: {step_norm!r}", iteration=k
            )
        F_new = _perturbed_value(algorithm, problem, x_new, eps_new)
    except (NumericalFailure, TypeError, ValueError):
        # Only a state built by hand can hold a bad x; name the bad x rather
        # than the error it caused further on.
        problem.check_vector(x)
        raise
    _descent_check(state.F_perturbed, F_new, k)
    return IterateState(
        k=k,
        x=x_new,
        eps=eps_new,
        y=y,
        F_perturbed=F_new,
        step_norm=step_norm,
        prox_center_inf=float(np.maximum.reduce(np.abs(center))),
        step=dx,
    )


def dirl1_step(state, config, problem):
    """One damped weighted-l1 step; asserts descent of F(x, eps)."""
    return _step("DIRL1", state, config, problem)


def dirl2_step(state, config, problem):
    """One damped weighted-l2 step; asserts descent of F(x, eps)."""
    return _step("DIRL2", state, config, problem)


@dataclass
class ValidationReport:
    lipschitz_gradient: float
    hard_errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    lipeomorphism_lhs: float = None

    @property
    def ok(self):
        return not self.hard_errors


def _lipeomorphism_lhs(config, problem, L, L_r):
    """alpha (2 + L/beta + lam L_r/beta + mu); below 1 the iteration map is bi-Lipschitz."""
    return config.alpha * (
        2.0 + L / config.beta + problem.lam / config.beta * L_r + config.mu
    )


def validate_config(config, problem):
    """Check the hard parameter bound and collect non-blocking warnings.

    The one hard error is beta <= alpha * L / 2; ``SolverConfig`` has
    already checked each field's own range (alpha and mu in (0, 1)).
    LAPACK's L is exact only to rounding, so this check raises it by a
    margin at the eigensolver's backward-error scale, 4 m eps for the
    order-m matrix that ``estimate_lipschitz_gradient`` hands to
    ``eigvalsh`` (m = min(A.shape)); the report keeps the unraised L.
    Warnings cover the invertibility-related inequalities that are either
    violated or cannot be evaluated before solving.
    """
    L = problem.estimate_lipschitz_gradient()
    report = ValidationReport(lipschitz_gradient=L)
    L_upper = L * (1.0 + 4.0 * min(problem.smooth.A.shape) * np.finfo(float).eps)
    if config.beta <= config.alpha * L_upper / 2.0:
        report.hard_errors.append(
            f"beta={config.beta} must exceed alpha*L/2={config.alpha * L_upper / 2.0} "
            f"(L={L!r} plus its rounding margin)"
        )
        return report

    reg = problem.reg
    if reg.lipschitz_at_zero:
        try:
            lhs = _lipeomorphism_lhs(
                config, problem, L, abs(reg.second_derivative_at_zero_plus())
            )
        except ValueError:  # a CustomRegularizer may leave r''(0+) out
            report.warnings.append(
                "invertibility inequality not checkable: r''(0+) was not provided"
            )
        else:
            report.lipeomorphism_lhs = lhs
            if lhs >= 1.0:
                report.warnings.append(
                    f"invertibility inequality alpha*(2 + L/beta + lam*L_r/beta + mu) = "
                    f"{lhs:.4g} >= 1; the iteration map may fail to be bi-Lipschitz"
                )
    else:
        report.warnings.append(
            "invertibility inequality not checkable before solving "
            "(weight curvature bound depends on the level set); reported post-run"
        )
    report.warnings.append(
        "spectral step bound alpha < beta/rho not checkable before solving "
        "(rho is estimated from classified stationary points)"
    )
    if config.algorithm == "DIRL2" and reg.lipschitz_at_zero:
        # check_assumption4's weight_diverges needs r'(0+) = inf, so it fails here.
        report.warnings.append(
            "weighted-l2 smoothness condition fails: r'(0+) is finite, so the "
            "subproblem map need not be differentiable at zero coordinates"
        )
    return report


def make_initial_state(config, problem, x0):
    x0 = np.array(x0, dtype=float)
    eps = config.initial_eps(problem.dimension)
    F0 = _perturbed_value(config.algorithm, problem, x0, eps)
    _check_finite(F0, 0)
    return IterateState(
        k=0, x=x0, eps=eps, y=x0.copy(), F_perturbed=F0, step_norm=math.inf
    )


def _record(state):
    return TraceRecord(
        k=state.k,
        F_perturbed=state.F_perturbed,
        step_norm=state.step_norm,
        eps_inf=float(state.eps.max()),
        support_bits=analysis._sign_string(state.y, analysis.SUPPORT_TOL),
    )


def _post_run_diagnostics(config, problem, L, C):
    diag = {"lipschitz_gradient": L, "prox_center_bound": C}
    reg = problem.reg
    try:
        if reg.lipschitz_at_zero:
            L_r = abs(reg.second_derivative_at_zero_plus())
        elif math.isfinite(C) and C > 0.0:
            x_low = derivative_inverse(reg, C / problem.lam)
            diag["support_lower_bound"] = x_low
            L_r = abs(reg.second_derivative(x_low))
        else:
            return diag
    except ValueError:
        return diag
    lhs = _lipeomorphism_lhs(config, problem, L, L_r)
    diag["weight_curvature_bound"] = L_r
    diag["lipeomorphism_lhs"] = lhs
    diag["lipeomorphism_ok"] = lhs < 1.0
    return diag


def run(config, problem, x0, trace_full=False, record_every=1):
    """Iterate until the step and relaxation norms fall below tolerance.

    Convergence requires ||x_next - x||_inf <= tol_step on ten consecutive
    iterations (so a single incidentally tiny step cannot stop the run)
    together with ||eps||_inf <= tol_eps. Returns a SolveTrace whose
    per-iteration records hold scalars only; pass ``trace_full=True`` to
    also keep every iterate. ``record_every`` thins the records (the first
    and last iterations are always kept).

    Raises ConfigValidationError on hard parameter errors and
    NumericalFailure if monotonic descent or its telescoped lower bound
    fails.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    report = validate_config(config, problem)
    if report.hard_errors:
        raise ConfigValidationError("; ".join(report.hard_errors), report)
    L = report.lipschitz_gradient
    x0 = problem.check_vector(np.asarray(x0, dtype=float))
    step_fn = dirl1_step if config.algorithm == "DIRL1" else dirl2_step

    state = make_initial_state(config, problem, x0)
    records = [_record(state)]
    xs = [state.x.copy()] if trace_full else None
    eps_history = [state.eps.copy()] if trace_full else None
    tail = deque([state.x.copy()], maxlen=TAIL_WINDOW)
    sum_sq_steps = 0.0
    C = -math.inf
    converged = False
    small_steps = 0

    while state.k < config.max_iter:
        state = step_fn(state, config, problem)
        sum_sq_steps += float(np.add.reduce(state.step * state.step))
        C = max(C, state.prox_center_inf)
        tail.append(state.x.copy())
        if trace_full:
            xs.append(state.x.copy())
            eps_history.append(state.eps.copy())
        small_steps = small_steps + 1 if state.step_norm <= config.tol_step else 0
        done = small_steps >= 10 and float(state.eps.max()) <= config.tol_eps
        if state.k % record_every == 0 or done or state.k == config.max_iter:
            records.append(_record(state))
        if done:
            converged = True
            break

    if state.k > 0:
        lower = (config.beta / config.alpha - L / 2.0) * sum_sq_steps
        drop = records[0].F_perturbed - state.F_perturbed
        if drop < lower - 1e-8 * state.k:
            raise NumericalFailure(
                f"telescoped descent bound violated: drop={drop!r} < {lower!r}",
                iteration=state.k,
            )

    tail = list(tail)
    limit_x = analysis.extrapolate_limit(tail)
    residual = analysis.stationarity_residual(problem, limit_x).residual_active
    return SolveTrace(
        algorithm=config.algorithm,
        records=records,
        converged=converged,
        iterations=state.k,
        final_x=state.x,
        final_eps=state.eps,
        limit_x=limit_x,
        final_residual=residual,
        diagnostics=_post_run_diagnostics(config, problem, L, C),
        tail=tail,
        xs=xs,
        eps_history=eps_history,
        config=config,
    )


def solution_map(config, problem):
    """The undamped subproblem map S on R^(2n): (x, eps) -> (y, mu*eps).

    T = (1-alpha) I + alpha S in damped mode; the map is exposed separately
    so its smoothness and Lipschitz behaviour can be probed directly.
    """
    n = problem.dimension
    algorithm, beta, mu = config.algorithm, config.beta, config.mu

    def apply(v):
        v = np.asarray(v, dtype=float)
        x, eps = problem.check_vector(v[:n]), v[n:]
        _, y = _model(algorithm, problem, x, eps, beta)
        return np.concatenate([y, mu * eps])

    return apply


def fixed_point_map(config, problem):
    """The one-step map T on R^(2n): (x, eps) -> ((1-alpha) x + alpha y, factor*eps).

    The same map that dirl1_step/dirl2_step iterate, without the descent
    bookkeeping; the Jacobians in ``jacobians`` differentiate it. The DIRL2
    map accepts negative eps entries (it depends on eps only through
    eps^2); the DIRL1 map requires |x_i| + eps_i >= 0.
    """
    n = problem.dimension
    alpha, factor = config.alpha, config.eps_factor
    S = solution_map(config, problem)

    def apply(v):
        v = np.asarray(v, dtype=float)
        y = S(v)[:n]
        return np.concatenate([(1.0 - alpha) * v[:n] + alpha * y, factor * v[n:]])

    return apply


def trace_to_csv(trace, path):
    """Write the per-iteration scalar records as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "F_perturbed", "step_norm", "eps_inf", "support_bits"])
        for rec in trace.records:
            writer.writerow(
                [rec.k, repr(rec.F_perturbed), repr(rec.step_norm),
                 repr(rec.eps_inf), rec.support_bits]
            )


def _json_floats(v):
    """``json.dumps(v.tolist())`` for a float vector, formatting each distinct
    bit pattern once: bits keep -0.0 apart from 0.0, and json.dumps writes
    NaN and +-inf as NaN and +-Infinity."""
    bits, inverse = np.unique(np.asarray(v, dtype=float).view(np.int64), return_inverse=True)
    text = [repr(f) if math.isfinite(f) else json.dumps(f)
            for f in bits.view(float).tolist()]
    return "[" + ", ".join([text[i] for i in inverse.tolist()]) + "]"


def trace_states_to_jsonl(trace, path):
    """Write full iterate states as JSON lines; requires a trace_full run.

    Each line is exactly ``json.dumps({"k": k, "x": x.tolist(), "eps":
    eps.tolist()})``. A uniform eps costs one float repr per line.
    """
    if trace.xs is None:
        raise ValueError("trace does not hold full states; rerun with trace_full=True")
    with open(path, "w", encoding="utf-8") as fh:
        for k, (x, eps) in enumerate(zip(trace.xs, trace.eps_history)):
            fh.write(f'{{"k": {k}, "x": {_json_floats(x)}, "eps": {_json_floats(eps)}}}\n')
