"""Jacobians of the solver fixed-point maps and instability tests.

At a stationary point x* with relaxation zero, the one-step map T of
either algorithm is block upper triangular in the coordinates
(x_active, x_inactive, eps), so its spectrum is the union of

    * the active diagonal block's eigenvalues
      DIRL1:  eig(I - (alpha/beta) H)           H = restricted Hessian
      DIRL2:  eig(I - (alpha/beta) P^-1 H)      P = I + (lam/beta) diag(r'(|x_i|)/|x_i|)
    * 1 - alpha, once per inactive coordinate
    * the relaxation decay factor, once per dimension.

A stationary point is an unstable fixed point exactly when some
eigenvalue magnitude exceeds 1, which happens iff H (equivalently
P^-1 H, P being positive diagonal) has a negative eigenvalue: saddles
repel the iteration. Each Jacobian is therefore built on the
classification of x* (``classify_stationary_point``): its stationarity
gate, its support, its H and, for DIRL1 (P = I), the spectrum of H.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    classify_stationary_point,
    hessian_norm,
    symmetric_eigen,
    SaddleReport,
    CLASS_STRICT_LOCAL_MIN,
    CLASS_STRICT_SADDLE,
)
from .errors import NumericalFailure
from .solvers import eps_factor

#: Eigenvalue magnitudes above 1 + INSTABILITY_DELTA make a fixed point unstable.
INSTABILITY_DELTA = 1e-10


@dataclass
class FixedPointJacobian:
    algorithm: str
    dimension: int
    active: tuple
    inactive: tuple
    block_II: np.ndarray
    off_IJ: np.ndarray
    off_Ieps: np.ndarray
    scalar_J: float
    scalar_eps: float
    #: The active block's eigenvalues.
    block_eigenvalues: np.ndarray
    #: The SaddleReport of x* that the block is built on, set by dirl{1,2}_jacobian.
    saddle: SaddleReport = None

    @property
    def spectrum(self):
        """Every eigenvalue of DT, sorted: the block's, scalar_J once per
        inactive coordinate and scalar_eps once per dimension."""
        return np.sort(np.concatenate([self.block_eigenvalues,
                                       np.full(len(self.inactive), self.scalar_J),
                                       np.full(self.dimension, self.scalar_eps)]))

    def assemble_full(self):
        """Dense DT on R^(2n) in natural (x, eps) coordinate order."""
        n = self.dimension
        act = np.array(self.active, dtype=int)
        inact = np.array(self.inactive, dtype=int)
        r = np.arange(n)
        full = np.zeros((2 * n, 2 * n))
        full[np.ix_(act, act)] = self.block_II
        full[np.ix_(act, inact)] = self.off_IJ
        full[act, n + act] = self.off_Ieps
        full[inact, inact] = self.scalar_J
        full[n + r, n + r] = self.scalar_eps
        return full


def _stationary_jacobian(algorithm, prob, x_star, alpha, beta, mu, eps_decay):
    """DT at (x*, 0), built on the classification of x*.

    ``classify_stationary_point`` gates x* (a non-stationary point raises
    NonStationaryPointError) and gives the support and the restricted
    Hessian H. The active block is I - (alpha/beta) P^-1 H; for DIRL1,
    P = I and the block eigenvalues come from H's spectrum in that report.
    Only DIRL1 couples the active block to eps, through r''(|x_i*|).
    """
    x_star = np.asarray(x_star, dtype=float)
    saddle = classify_stationary_point(prob, x_star)
    act, inact = list(saddle.pattern.active), list(saddle.pattern.inactive)
    if algorithm == "DIRL2" and inact and math.isfinite(prob.reg.derivative_at_zero_plus()):
        raise ValueError(
            "weighted-l2 fixed-point Jacobian requires r'(0+) = inf or an "
            "empty inactive set"
        )
    n = prob.dimension
    H = saddle.restricted
    P = np.ones(len(act))
    vals = saddle.eigenvalues
    if algorithm == "DIRL2" and act:
        xa = np.abs(x_star[act])
        P = 1.0 + (prob.lam / beta) * np.atleast_1d(prob.reg.derivative(xa)) / xa
        # P^-1/2 H P^-1/2 is symmetric and shares its eigenvalues with P^-1 H
        inv_sqrt = 1.0 / np.sqrt(P)
        vals, _ = symmetric_eigen(inv_sqrt[:, None] * H * inv_sqrt[None, :])
    hess_f = prob.hessian_smooth()
    block = np.eye(len(act)) - (alpha / beta) * (H / P[:, None])
    off_IJ = -(alpha / beta) * hess_f[np.ix_(act, inact)] / P[:, None]
    off_Ieps = np.zeros(len(act))
    if algorithm == "DIRL1" and act:
        xa = x_star[act]
        rpp = np.atleast_1d(prob.reg.second_derivative(np.abs(xa)))
        off_Ieps = -(alpha / beta) * prob.lam * rpp * np.sign(xa)
    scalar_eps = eps_factor(alpha, mu, eps_decay)
    return FixedPointJacobian(
        algorithm=algorithm,
        dimension=n,
        active=tuple(act),
        inactive=tuple(inact),
        block_II=block,
        off_IJ=off_IJ,
        off_Ieps=off_Ieps,
        scalar_J=1.0 - alpha,
        scalar_eps=scalar_eps,
        block_eigenvalues=1.0 - (alpha / beta) * vals,
        saddle=saddle,
    )


def dirl1_jacobian(prob, x_star, alpha, beta, mu, eps_decay="damped"):
    """DT of the damped weighted-l1 map at (x*, 0)."""
    return _stationary_jacobian("DIRL1", prob, x_star, alpha, beta, mu, eps_decay)


def dirl2_jacobian(prob, x_star, alpha, beta, mu, eps_decay="damped"):
    """DT of the damped weighted-l2 map at (x*, 0).

    Valid when r'(0+) = inf or the inactive set is empty (otherwise x*
    need not be a fixed point of the weighted-l2 map). The active block is
    I - (alpha/beta) P^-1 H with positive diagonal
    P_ii = 1 + (lam/beta) r'(|x_i*|)/|x_i*|; its eigenvalues are computed
    through the symmetric congruence P^-1/2 H P^-1/2, which shares them.
    """
    return _stationary_jacobian("DIRL2", prob, x_star, alpha, beta, mu, eps_decay)


def finite_difference_jacobian(map_fn, point, h=1e-6, columns=None):
    """Central-difference Jacobian of ``map_fn`` at ``point``.

    ``columns`` restricts differentiation to the given input coordinates
    (useful at boundary points where some directions are one-sided only);
    the result then has one column per requested coordinate.
    """
    point = np.asarray(point, dtype=float)
    if h <= 0.0:
        raise ValueError("h must be positive")
    cols = range(point.size) if columns is None else list(columns)
    out = []
    for j in cols:
        e = np.zeros_like(point)
        e[j] = h
        # non-finite stencil values are detected below, not warned about
        with np.errstate(all="ignore"):
            hi = np.asarray(map_fn(point + e), dtype=float)
            lo = np.asarray(map_fn(point - e), dtype=float)
            col = (hi - lo) / (2.0 * h)
        if not np.all(np.isfinite(col)):
            raise NumericalFailure(
                f"finite-difference column {j} produced non-finite values"
            )
        out.append(col)
    return np.column_stack(out)


def _subproblem_partials(problem, config, x, eps):
    """(dS_x/dx, diagonal of dS_x/deps) of the undamped subproblem map S at (x, eps).

    DIRL1 requires every coordinate to be away from the two kink sets:
    x_i = 0 (weight kink) and |x_i - grad_i/beta| = lam*w_i/beta
    (threshold kink); coordinates thresholded to zero give zero rows.
    DIRL2 holds at any point: with g(z) = z / (z + (lam/beta) r'(z)),
    y_i = g(z_i) (x_i - grad_i/beta) and z_i = sqrt(x_i^2 + eps_i^2); rows
    with z_i = 0 vanish (g(0) = 0 and g'(0) = 0 under the weighted-l2
    smoothness condition).
    """
    n = problem.dimension
    x = np.asarray(x, dtype=float)
    eps = np.asarray(eps, dtype=float)
    beta, lam = config.beta, problem.lam
    grad = problem.gradient_smooth(x)
    hess = problem.hessian_smooth()
    if config.algorithm == "DIRL1":
        t = np.abs(x) + eps
        w = np.atleast_1d(problem.reg.derivative(t))
        rpp = np.atleast_1d(problem.reg.second_derivative(t))
        z = x - grad / beta
        on = np.abs(z) > lam * w / beta
        ds_x = np.where(on[:, None], np.eye(n) - hess / beta, 0.0)
        d_eps = np.where(on, -np.sign(z) * (lam / beta) * rpp, 0.0)
        ds_x[np.diag_indices(n)] += d_eps * np.sign(x)
    else:
        z = np.hypot(x, eps)
        pos = z > 0.0
        g = np.zeros(n)
        gp = np.zeros(n)
        with np.errstate(over="ignore"):
            rp = np.atleast_1d(problem.reg.derivative(z[pos]))
            rpp = np.atleast_1d(problem.reg.second_derivative(z[pos]))
        # r' or r'' overflowed (LPN below z ~ 1e-205, long solves): the row's z -> 0 limit, 0
        kept = ~(np.isinf(rp) | np.isinf(rpp))
        pos[pos] = kept
        rp, rpp = rp[kept], rpp[kept]
        denom = z[pos] + (lam / beta) * rp
        g[pos] = z[pos] / denom
        gp[pos] = -(lam / beta) * (rpp * z[pos] - rp) / denom**2
        c = x - grad / beta
        ds_x = g[:, None] * (np.eye(n) - hess / beta)
        with np.errstate(invalid="ignore"):
            xi_over_z = np.where(pos, x / np.where(pos, z, 1.0), 0.0)
            ei_over_z = np.where(pos, eps / np.where(pos, z, 1.0), 0.0)
        ds_x[np.diag_indices(n)] += gp * xi_over_z * c
        d_eps = gp * ei_over_z * c
    return ds_x, d_eps


def full_jacobian(problem, config, x, eps):
    """Analytic DT of the damped one-step map at (x, eps); DIRL1 points must
    avoid the kinks named in ``_subproblem_partials``."""
    n, alpha = problem.dimension, config.alpha
    ds_x, d_eps = _subproblem_partials(problem, config, x, eps)
    return np.block([[(1.0 - alpha) * np.eye(n) + alpha * ds_x, alpha * np.diag(d_eps)],
                     [np.zeros((n, n)), config.eps_factor * np.eye(n)]])


def unstable_fixed_point_check(jac):
    """True iff some eigenvalue magnitude strictly exceeds 1 + INSTABILITY_DELTA."""
    return bool(np.any(np.abs(jac.spectrum) > 1.0 + INSTABILITY_DELTA))


@dataclass
class EquivalenceReport:
    classification: str
    unstable: bool
    block_eigenvalues: np.ndarray
    rho: float
    alpha_below_beta_over_rho: bool
    consistent: bool
    detail: str


def saddle_unstable_equivalence(prob, x_star, alpha, beta, mu, algorithm):
    """Cross-check the saddle label against fixed-point instability.

    A strict saddle must be an unstable fixed point; a strict local
    minimum with alpha < beta/rho must have every active-block eigenvalue
    magnitude below 1. Any mismatch is reported, not raised.

    The Jacobian is built damped. The verdict reads only its active block and
    1 - alpha, since both eps_decay modes' relaxation factors are below 1.
    """
    jacobian = dirl1_jacobian if algorithm == "DIRL1" else dirl2_jacobian
    jac = jacobian(prob, x_star, alpha, beta, mu)
    report = jac.saddle
    unstable = unstable_fixed_point_check(jac)
    rho = hessian_norm(report)
    alpha_ok = rho == 0.0 or alpha < beta / rho
    if report.classification == CLASS_STRICT_SADDLE:
        consistent = unstable
        detail = "strict saddle must be unstable"
    elif report.classification == CLASS_STRICT_LOCAL_MIN and alpha_ok:
        consistent = bool(np.all(np.abs(jac.block_eigenvalues) < 1.0)) and not unstable
        detail = "strict local minimum must have contracting active block"
    else:
        consistent = True
        detail = "no assertion for this classification/parameter regime"
    return EquivalenceReport(
        classification=report.classification,
        unstable=unstable,
        block_eigenvalues=jac.block_eigenvalues,
        rho=rho,
        alpha_below_beta_over_rho=alpha_ok,
        consistent=consistent,
        detail=detail,
    )


def estimate_map_lipschitz(config, problem, points):
    """Largest spectral norm of S's analytic Jacobian over sampled (x, eps) points.

    The partials are those of ``full_jacobian`` (DIRL1 points must avoid its
    kinks); central differences are only their oracle. The damping needed
    for invertibility is alpha < 1/(1 + L_S).
    """
    n = problem.dimension
    best = 0.0
    for v in points:
        v = np.asarray(v, dtype=float)
        ds_x, d_eps = _subproblem_partials(problem, config, v[:n], v[n:])
        J = np.block([[ds_x, np.diag(d_eps)], [np.zeros((n, n)), config.mu * np.eye(n)]])
        if not np.isfinite(J).all():
            raise NumericalFailure("subproblem-map Jacobian has non-finite entries")
        best = max(best, float(np.linalg.norm(J, 2)))
    return best
