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

import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from . import analysis, problems
from .errors import ConfigValidationError, NumericalFailure, integer, json_object, real, real_array
from .regularizers import CustomRegularizer, Regularizer, check_assumption1, derivative_inverse

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
    return _shrink(np.asarray(z, dtype=float), _nonnegative(w, "thresholds must be nonnegative"))


def _shrink(z, w):
    """The soft threshold of float arrays, for thresholds known to be >= 0 and not NaN."""
    return np.sign(z) * np.maximum(np.abs(z) - w, 0.0)


def _nonnegative(w, message):
    """``w`` as a float array; ValueError(message) if an entry is negative or NaN."""
    w = np.asarray(w, dtype=float)
    if np.count_nonzero(w >= 0.0) != w.size:  # NaN fails the comparison too
        raise ValueError(message)
    return w


def dirl1_weights(x, eps, reg, *, _radius=None):
    """w_i = r'(|x_i| + eps_i), with the t -> 0+ limit at |x_i| + eps_i = 0.

    The limit is inf for non-Lipschitz regularizers; that only occurs on
    the eps = 0 analysis path since the solver keeps eps > 0. NaN is refused.

    The solver passes ``_radius``: t = |x| + eps as the objective formed and
    checked it (t >= 0 and finite) when it accepted x and eps. Only t > 0,
    which r' needs, is then tested; a t_i of 0 takes the masked path.
    """
    t = _radius
    if t is None:
        t = problems._l1_radius(np.asarray(x, dtype=float), np.asarray(eps, dtype=float))
        if t.ndim:
            try:  # eps > 0 keeps every t_i > 0, which r' checks
                return reg.derivative(t)
            except ValueError:  # a t_i of 0 (or not finite) takes the masked path
                pass
        if (t < 0.0).any():
            raise ValueError("|x_i| + eps_i must be nonnegative")
        if np.isnan(t).any():  # the mask below would give it r'(0+)
            raise ValueError("x and eps must not hold NaN")
    elif np.count_nonzero(t) == t.size:
        return reg._derivative_in_domain(t)
    pos = t > 0.0
    w = np.full(t.shape, reg.derivative_at_zero_plus())
    if pos.any():
        w[pos] = np.atleast_1d(reg.derivative(t[pos]))
    return w


def dirl1_subproblem(center, w, beta, lam, *, _checked=False):
    """Minimizer of the weighted-l1 model around x: the gradient step
    ``center = x - grad/beta``, soft-thresholded at lam w / beta.

    The solver passes ``_checked=True`` for a built-in penalty, whose
    weights are r' values at checked points and so are >= 0 and never NaN
    (the float arrays ``center`` and ``w`` are then taken as they are);
    the thresholds are checked otherwise.
    """
    if _checked:
        return _shrink(center, lam * w / beta)
    return soft_threshold(center, lam * np.asarray(w, dtype=float) / beta)


def dirl2_weights(x, eps, reg, *, _radius=None):
    """u_i = r'(z_i) / (2 z_i) with z_i = sqrt(x_i^2 + eps_i^2); inf at z_i = 0; NaN refused.

    ``_radius`` is z as the objective formed and checked it; see
    ``dirl1_weights``.
    """
    z = _radius
    if z is None:
        z = problems._l2_radius(np.asarray(x, dtype=float), np.asarray(eps, dtype=float))
        if z.ndim:
            try:  # eps > 0 keeps every z_i > 0, which r' checks
                return _over_twice(reg.derivative(z), z)
            except ValueError:  # a z_i of 0 (or not finite) takes the masked path
                pass
        if np.isnan(z).any():  # the mask below would give it inf
            raise ValueError("x and eps must not hold NaN")
    elif np.count_nonzero(z) == z.size:
        return _over_twice(reg._derivative_in_domain(z), z)
    pos = z > 0.0
    u = np.full(z.shape, math.inf)
    if pos.any():
        u[pos] = _over_twice(np.atleast_1d(reg.derivative(z[pos])), z[pos])
    return u


@np.errstate(over="ignore")
def _over_twice(d, z):
    """d / (2 z), where overflow to inf is the weight's z -> 0 limit: not warned."""
    return d / (2.0 * z)


def dirl2_subproblem(center, u, beta, lam, *, _checked=False):
    """Minimizer of the weighted-l2 model around x, from the gradient step
    ``center = x - grad/beta``; u_i = inf pins coordinate i to 0.

    ``_checked=True`` skips the check of the weights, as in ``dirl1_subproblem``.
    """
    if not _checked:
        u = _nonnegative(u, "weights must be nonnegative")
    scale = 2.0 * lam / beta
    if scale > 1.0:  # only then can a finite u overflow the product; center / inf is the limit
        with np.errstate(over="ignore"):
            return np.where(np.isinf(u), 0.0, center / (1.0 + scale * u))
    return np.where(np.isinf(u), 0.0, center / (1.0 + scale * u))


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

    @cached_property
    def eps_factor(self):
        """The per-step relaxation factor, computed on first read."""
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


@dataclass(slots=True)
class IterateState:
    """One iterate of the damped iteration."""

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
    """What ``run`` returns. ``states`` holds the (x, eps) pair of each kept
    state, uncopied: every state from k = 0 under ``trace_full``, else the
    last TAIL_WINDOW states. ``final_x`` is the last state's x."""

    config: SolverConfig
    records: list
    converged: bool
    limit_x: np.ndarray
    final_residual: float
    diagnostics: dict
    states: list

    @property
    def iterations(self):
        """The iterations run: ``run`` always records the last one."""
        return self.records[-1].k

    @property
    def final_x(self):
        return self.states[-1][0]


def _check_finite(F, k):
    if not math.isfinite(F):
        raise NumericalFailure(
            f"perturbed objective is not finite at iteration {k}: {F!r}",
            iteration=k,
        )


def _descent_check(F_old, F_new, k):
    # A non-finite F fails first: -inf would pass the comparison.
    _check_finite(F_new, k)
    if F_new > F_old + DESCENT_SLACK * max(1.0, abs(F_old)):
        raise NumericalFailure(
            f"perturbed objective increased at iteration {k}: "
            f"{F_old!r} -> {F_new!r}",
            iteration=k,
        )


class _Carry:
    """What ``run``'s steps hand on, by name. ``radius``, ``product`` and
    ``gradient`` are those of the last x that the objective accepted, each
    None where not formed: the objective sets the radius and product and
    clears all three when it falls back, and the step sets the gradient
    that it carried to that x (see ``_step``). ``idx`` and ``rows`` are the
    row block of y's support that ``SmoothTerm._damped_product`` reads and
    drops in place; they outlive the other fields and are freed with the
    carry when ``run`` returns."""

    __slots__ = ("radius", "product", "gradient", "idx", "rows")

    def __init__(self):
        self.radius = self.product = self.gradient = self.idx = self.rows = None


def _step(algorithm, state, config, problem, carry):
    """One damped step x <- (1-alpha) x + alpha y; asserts descent of F(x, eps).

    Each quantity is formed once and each array checked once per iteration.
    ``carry`` is None or ``run``'s ``_Carry``, whose radius t = |x| + eps
    (DIRL1) or hypot(x, eps) (DIRL2) and product A x (A x - b) the
    objective formed and checked (t >= 0 and finite) when it accepted
    ``state``: the gradient comes from the carried one, else from that
    product, and the weights take t and test only t > 0. On a term with
    ``_damped`` set, the step forms the product and gradient at the new x
    from these and y's support (``SmoothTerm._damped_product``, DIRL1's case
    once its support is at most m) and hands both on in place of a dense
    A x and A'r; the objective call refills the carry. Without a carry the
    step forms and checks both from the state's x and eps, and checks the
    new eps before the objective call, which takes it to be >= 0 and
    finite. The subproblem checks the weights only for a penalty other
    than a built-in ``Regularizer`` (r' values at checked points: >= 0,
    never NaN). A step or F that is not finite raises NumericalFailure.
    """
    x, k, beta, reg = state.x, state.k + 1, config.beta, problem.reg
    smooth, checked, bare = problem.smooth, type(reg) is Regularizer, carry is None
    if bare:  # the objective's, for this step only
        carry = _Carry()
    radius, product, grad = carry.radius, carry.product, carry.gradient
    try:
        if grad is None:
            grad = smooth.gradient(x) if product is None else smooth._gradient_at(product)
        center = x - grad / beta
        if algorithm == "DIRL1":
            w = dirl1_weights(x, state.eps, reg, _radius=radius)
            y = dirl1_subproblem(center, w, beta, problem.lam, _checked=checked)
        else:
            u = dirl2_weights(x, state.eps, reg, _radius=radius)
            y = dirl2_subproblem(center, u, beta, problem.lam, _checked=checked)
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
        if bare:  # checked as the objective's fallback checks it
            problem._check_eps(problem.check_vector(x_new), eps_new)
        elif product is not None and smooth._damped:  # A x_new and its gradient from y's support
            carry.product, carry.gradient = (
                smooth._damped_product(product, grad, y, config.alpha, carry) or (None, None))
        else:
            carry.product = carry.gradient = None
        if algorithm == "DIRL1":
            F_new = problem.perturbed_value_l1(x_new, eps_new, _parts=carry)
        else:
            F_new = problem.perturbed_value_l2(x_new, eps_new, _parts=carry)
    except (NumericalFailure, TypeError, ValueError):
        # Only a state built by hand can hold a bad x; name the bad x rather
        # than the error it caused further on.
        problem.check_vector(x)
        raise
    _descent_check(state.F_perturbed, F_new, k)
    return IterateState(k, x_new, eps_new, y, F_new, step_norm,
                        float(np.maximum.reduce(np.abs(center))), dx)


def dirl1_step(state, config, problem, *, _carry=None):
    """One damped weighted-l1 step; asserts descent of F(x, eps).

    Only ``run`` passes ``_carry``; see ``_step``.
    """
    return _step("DIRL1", state, config, problem, _carry)


def dirl2_step(state, config, problem, *, _carry=None):
    """One damped weighted-l2 step; asserts descent of F(x, eps).

    Only ``run`` passes ``_carry``; see ``_step``.
    """
    return _step("DIRL2", state, config, problem, _carry)


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


#: The positive grid on which ``validate_config`` screens a custom penalty.
_CUSTOM_GRID = np.geomspace(1e-6, 1e3, 64)


def _derivative_warnings(reg, t):
    """One warning per callback, r' or r'', that disagrees with central
    differences of the function below it (r or r') on the positive grid ``t``.

    The step h = 1e-6 t is relative, so t - h > 0. A consistent callback
    misses by truncation, h^2 |g'''(t)| / 6, at most about 1e-7 of itself
    for the built-in families on this grid, and by the rounding of the
    differenced g: about 1e-10 |g(t)| / t, or up to 2 eps / 2h where g
    cancels terms of order 1, as 1 - exp(-p t) does. The tolerance,
    1e-4 (|g(t)| / t + |g'(t)|) + 4 eps / 2h, is far above both and far
    below a wrong sign or scale.
    """
    lo, hi = t - 1e-6 * t, t + 1e-6 * t
    step = hi - lo  # exact: lo and hi are within a factor of 2
    points = np.concatenate([lo, hi, t])
    # A callback that raises here raises in the loop too, so its error is let through.
    r, d1, d2 = reg.value(points), reg.derivative(points), reg.second_derivative(t)
    found = []
    with np.errstate(all="ignore"):  # a NaN or inf fails the test below
        for name, g, d in (("derivative", r, d1[2 * t.size:]), ("second_derivative", d1, d2)):
            g_lo, g_hi, g_t = np.split(g, 3)
            fd = (g_hi - g_lo) / step
            tol = 1e-4 * (np.abs(g_t) / t + np.abs(d)) + 4.0 * np.finfo(float).eps / step
            bad = ~(np.abs(d - fd) <= tol)
            if bad.any():
                i = bad.argmax()
                found.append(f"custom penalty: {name}({t[i]:.4g}) = {d[i]:.6g} disagrees "
                             f"with the central difference {fd[i]:.6g}")
    return found


def validate_config(config, problem):
    """Check the hard parameter bound and collect non-blocking warnings.

    The one hard error is beta <= alpha * L / 2; ``SolverConfig`` has
    already checked each field's own range (alpha and mu in (0, 1)).
    LAPACK's L is exact only to rounding, so this check raises it by a
    margin at the eigensolver's backward-error scale, 4 m eps for the
    order-m matrix that ``estimate_lipschitz_gradient`` hands to
    ``eigvalsh`` (m = min(A.shape)); the report keeps the unraised L.
    Warnings cover the invertibility-related inequalities that are either
    violated or cannot be evaluated before solving, and a
    ``CustomRegularizer`` that fails Assumption 1 or whose r' or r''
    disagrees with central differences on a positive grid.
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
    if isinstance(reg, CustomRegularizer):
        # Nothing else checks a custom penalty's hypotheses; the loop calls r'
        # with no check but t > 0.
        try:
            holds = check_assumption1(reg, _CUSTOM_GRID).holds
        except (ArithmeticError, ValueError) as exc:
            report.warnings.append(f"custom penalty: Assumption 1 not checkable: {exc}")
        else:
            if not holds:
                report.warnings.append(
                    "custom penalty fails Assumption 1 on the grid geomspace(1e-6, 1e3, 64) "
                    "(r(0) = 0, r' >= 0 and nonincreasing, r'' <= 0, r'(0+) > 0)"
                )
            report.warnings.extend(_derivative_warnings(reg, _CUSTOM_GRID))
    return report


def make_initial_state(config, problem, x0, *, _carry=None):
    """The k = 0 state of ``config.algorithm``.

    Only ``run`` passes ``_carry``, a ``_Carry`` that receives the
    objective's radius and product for the first step; see ``_step``.
    """
    x0 = np.array(x0, dtype=float)
    eps = config.initial_eps(problem.dimension)
    problem.check_vector(x0)  # an objective call with _parts takes x to be finite
    if config.algorithm == "DIRL1":
        F0 = problem.perturbed_value_l1(x0, eps, _parts=_carry)
    else:
        F0 = problem.perturbed_value_l2(x0, eps, _parts=_carry)
    _check_finite(F0, 0)
    return IterateState(0, x0, eps, x0.copy(), F0, math.inf)


def _record(state, eps_inf):
    return TraceRecord(
        k=state.k,
        F_perturbed=state.F_perturbed,
        step_norm=state.step_norm,
        eps_inf=eps_inf,
        support_bits=analysis._sign_string(state.y, analysis.SUPPORT_TOL),
    )


def _post_run_diagnostics(config, problem, L, C):
    diag = {"lipschitz_gradient": L, "prox_center_bound": C}
    reg = problem.reg
    try:
        if reg.lipschitz_at_zero:
            L_r = abs(reg.second_derivative_at_zero_plus())
        elif math.isfinite(C) and C > 0.0:
            # A limit nonzero x_i has lam r'(|x_i|) < beta |center_i| <= beta C.
            x_low = derivative_inverse(reg, config.beta * C / problem.lam)
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

    Convergence requires ||x_next - x||_inf <= tol_step, each step no
    larger than the one before it, on ten consecutive iterations (so a
    single incidentally tiny step cannot stop the run, nor a run whose
    steps grow away from a strict saddle) together with
    ||eps||_inf <= tol_eps. Returns a SolveTrace whose records
    (the CSV rows) hold scalars and a support string; ``trace_full=True`` also
    keeps every iterate. ``record_every`` thins the records (the first and
    last iterations are always kept). Each (x, eps) is stored once, uncopied,
    in ``states``: the last TAIL_WINDOW (all under trace_full).

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

    carry = _Carry()  # what each objective call hands to the next step, and the row block
    state = make_initial_state(config, problem, x0, _carry=carry)
    F0, factor, eps_inf = state.F_perturbed, config.eps_factor, float(state.eps.max())
    records = [_record(state, eps_inf)]
    history = deque([(state.x, state.eps)], maxlen=None if trace_full else TAIL_WINDOW)
    sum_sq_steps = 0.0
    C = -math.inf
    converged = False
    small_steps, prev_step = 0, math.inf

    while state.k < config.max_iter:
        state = step_fn(state, config, problem, _carry=carry)
        # The step scales eps by factor too; rounding is monotone, so this is eps.max() to the bit.
        eps_inf = factor * eps_inf
        sum_sq_steps += float(np.add.reduce(state.step * state.step))
        C = max(C, state.prox_center_inf)
        history.append((state.x, state.eps))
        # A small step counts only if it is no larger than the last: near a
        # strict saddle the steps grow by the unstable mode's factor.
        contracting, prev_step = state.step_norm <= prev_step, state.step_norm
        small_steps = small_steps + 1 if contracting and state.step_norm <= config.tol_step else 0
        done = small_steps >= 10 and eps_inf <= config.tol_eps
        if state.k % record_every == 0 or done or state.k == config.max_iter:
            records.append(_record(state, eps_inf))
        if done:
            converged = True
            break

    if state.k > 0:
        lower = (config.beta / config.alpha - L / 2.0) * sum_sq_steps
        drop = F0 - state.F_perturbed
        if drop < lower - 1e-8 * state.k:
            raise NumericalFailure(
                f"telescoped descent bound violated at iteration {state.k}: "
                f"drop={drop!r} < {lower!r}",
                iteration=state.k,
            )

    states = list(history)
    limit_x = analysis.extrapolate_limit([x for x, _ in states[-TAIL_WINDOW:]])
    residual = analysis.stationarity_residual(problem, limit_x).residual_active
    return SolveTrace(
        config=config,
        records=records,
        converged=converged,
        limit_x=limit_x,
        final_residual=residual,
        diagnostics=_post_run_diagnostics(config, problem, L, C),
        states=states,
    )


def solution_map(config, problem):
    """The undamped subproblem map S on R^(2n): (x, eps) -> (y, mu*eps).

    T = (1-alpha) I + alpha S in damped mode; the map is exposed separately
    so its smoothness and Lipschitz behaviour can be probed directly.
    """
    n = problem.dimension
    algorithm, beta, mu, lam = config.algorithm, config.beta, config.mu, problem.lam

    def apply(v):
        v = np.asarray(v, dtype=float)
        x, eps = problem.check_vector(v[:n]), v[n:]
        center = x - problem.smooth.gradient(x) / beta
        if algorithm == "DIRL1":
            y = dirl1_subproblem(center, dirl1_weights(x, eps, problem.reg), beta, lam)
        else:
            y = dirl2_subproblem(center, dirl2_weights(x, eps, problem.reg), beta, lam)
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
    """Write the per-iteration records as CSV, byte for byte what ``csv.writer``
    writes: no field needs quoting, since each is an int, a float repr or a
    ``+``/``-``/``0`` support string, and every row ends in ``\\r\\n``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,F_perturbed,step_norm,eps_inf,support_bits\r\n")
        fh.writelines(
            f"{r.k},{r.F_perturbed!r},{r.step_norm!r},{r.eps_inf!r},{r.support_bits}\r\n"
            for r in trace.records
        )


def _json_floats(v):
    """``json.dumps(v.tolist())`` for a float64 vector. A non-empty vector whose
    entries all hold one bit pattern (so -0.0 is not 0.0, nor one NaN payload
    another) formats that value once; any other takes one C-level encode."""
    bits = v.view(np.int64)
    if bits.size and (bits == bits[0]).all():
        return "[" + ", ".join([json.dumps(v[:1].tolist())[1:-1]] * bits.size) + "]"
    return json.dumps(v.tolist())


def trace_states_to_jsonl(trace, path):
    """Write the trace's states as JSON lines, k = 0..iterations; a trace whose
    states do not start at k = 0 (a bare run past TAIL_WINDOW) is refused.

    Each line is exactly ``json.dumps({"k": k, "x": x.tolist(), "eps":
    eps.tolist()})``. The lines are streamed, never joined into one string.
    """
    if len(trace.states) != trace.iterations + 1:
        raise ValueError("trace does not start at k = 0; rerun with trace_full=True")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f'{{"k": {k}, "x": {_json_floats(x)}, "eps": {_json_floats(eps)}}}\n'
                      for k, (x, eps) in enumerate(trace.states))
