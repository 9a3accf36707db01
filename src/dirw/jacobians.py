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
repel the iteration.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    classify_stationary_point,
    hessian_norm,
    restricted_hessian,
    stationarity_residual,
    support,
    symmetric_eigen,
    CLASS_STRICT_LOCAL_MIN,
    CLASS_STRICT_SADDLE,
)
from .errors import NonStationaryPointError, NumericalFailure
from .solvers import eps_factor, solution_map

#: Residual gate for treating a point as stationary in Jacobian builders.
STATIONARY_GATE = 1e-6


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
    spectrum: np.ndarray

    def assemble_full(self):
        """Dense DT on R^(2n) in natural (x, eps) coordinate order."""
        n = self.dimension
        full = np.zeros((2 * n, 2 * n))
        act = list(self.active)
        inact = list(self.inactive)
        if act:
            full[np.ix_(act, act)] = self.block_II
            if inact:
                full[np.ix_(act, inact)] = self.off_IJ
            for row, i in enumerate(act):
                full[i, n + i] = self.off_Ieps[row]
        for j in inact:
            full[j, j] = self.scalar_J
        for i in range(n):
            full[n + i, n + i] = self.scalar_eps
        return full

    def to_dict(self):
        return {
            "algorithm": self.algorithm,
            "active": list(self.active),
            "block_II": self.block_II.tolist(),
            "off_IJ": self.off_IJ.tolist(),
            "off_Ieps": self.off_Ieps.tolist(),
            "scalar_J": self.scalar_J,
            "scalar_eps": self.scalar_eps,
            "spectrum": [{"re": float(v), "im": 0.0} for v in self.spectrum],
        }


def _l2_scaling(prob, x_star, act, beta):
    """Positive diagonal P_ii = 1 + (lam/beta) r'(|x_i*|)/|x_i*| of the DIRL2 active block."""
    xa = np.abs(x_star[act])
    return 1.0 + (prob.lam / beta) * np.atleast_1d(prob.reg.derivative(xa)) / xa


def _scaled_eigenvalues(H, P):
    """Eigenvalues of P^-1 H from the symmetric congruence P^-1/2 H P^-1/2."""
    inv_sqrt = 1.0 / np.sqrt(P)
    vals, _ = symmetric_eigen(inv_sqrt[:, None] * H * inv_sqrt[None, :])
    return vals


def _require_stationary(prob, x_star, tol_support, gate):
    report = stationarity_residual(prob, x_star, tol_support, tol_residual=gate)
    if not report.is_stationary:
        raise NonStationaryPointError(
            f"fixed-point Jacobian needs a stationary point; "
            f"residual={report.residual_active:.3e}",
            residual=report.residual_active,
        )
    return report.pattern


def dirl1_jacobian(prob, x_star, alpha, beta, mu, eps_decay="damped",
                   tol_support=1e-10, gate=STATIONARY_GATE):
    """DT of the damped weighted-l1 map at (x*, 0)."""
    x_star = np.asarray(x_star, dtype=float)
    pattern = _require_stationary(prob, x_star, tol_support, gate)
    act, inact = list(pattern.active), list(pattern.inactive)
    n = prob.dimension
    H = restricted_hessian(prob, x_star, pattern)
    hess_f = prob.hessian_smooth(x_star)
    vals, _ = symmetric_eigen(H) if act else (np.zeros(0), None)
    block = np.eye(len(act)) - (alpha / beta) * H
    off_IJ = -(alpha / beta) * hess_f[np.ix_(act, inact)]
    if act:
        xa = x_star[act]
        rpp = np.atleast_1d(prob.reg.second_derivative(np.abs(xa)))
        off_Ieps = -(alpha / beta) * prob.lam * rpp * np.sign(xa)
    else:
        off_Ieps = np.zeros(0)
    scalar_eps = eps_factor(alpha, mu, eps_decay)
    spectrum = np.sort(
        np.concatenate(
            [1.0 - (alpha / beta) * vals,
             np.full(len(inact), 1.0 - alpha),
             np.full(n, scalar_eps)]
        )
    )
    return FixedPointJacobian(
        algorithm="DIRL1",
        dimension=n,
        active=tuple(act),
        inactive=tuple(inact),
        block_II=block,
        off_IJ=off_IJ,
        off_Ieps=off_Ieps,
        scalar_J=1.0 - alpha,
        scalar_eps=scalar_eps,
        spectrum=spectrum,
    )


def dirl2_jacobian(prob, x_star, alpha, beta, mu, eps_decay="damped",
                   tol_support=1e-10, gate=STATIONARY_GATE):
    """DT of the damped weighted-l2 map at (x*, 0).

    Valid when r'(0+) = inf or the inactive set is empty (otherwise x*
    need not be a fixed point of the weighted-l2 map). The active block is
    I - (alpha/beta) P^-1 H with positive diagonal
    P_ii = 1 + (lam/beta) r'(|x_i*|)/|x_i*|; its eigenvalues are computed
    through the symmetric congruence P^-1/2 H P^-1/2, which shares them.
    """
    x_star = np.asarray(x_star, dtype=float)
    pattern = _require_stationary(prob, x_star, tol_support, gate)
    act, inact = list(pattern.active), list(pattern.inactive)
    if inact and math.isfinite(prob.reg.derivative_at_zero_plus()):
        raise ValueError(
            "weighted-l2 fixed-point Jacobian requires r'(0+) = inf or an "
            "empty inactive set"
        )
    n = prob.dimension
    H = restricted_hessian(prob, x_star, pattern)
    hess_f = prob.hessian_smooth(x_star)
    if act:
        P = _l2_scaling(prob, x_star, act, beta)
        vals = _scaled_eigenvalues(H, P)
        block = np.eye(len(act)) - (alpha / beta) * (H / P[:, None])
        off_IJ = -(alpha / beta) * hess_f[np.ix_(act, inact)] / P[:, None]
    else:
        vals = np.zeros(0)
        block = np.zeros((0, 0))
        off_IJ = np.zeros((0, len(inact)))
    scalar_eps = eps_factor(alpha, mu, eps_decay)
    spectrum = np.sort(
        np.concatenate(
            [1.0 - (alpha / beta) * vals,
             np.full(len(inact), 1.0 - alpha),
             np.full(n, scalar_eps)]
        )
    )
    return FixedPointJacobian(
        algorithm="DIRL2",
        dimension=n,
        active=tuple(act),
        inactive=tuple(inact),
        block_II=block,
        off_IJ=off_IJ,
        off_Ieps=np.zeros(len(act)),
        scalar_J=1.0 - alpha,
        scalar_eps=scalar_eps,
        spectrum=spectrum,
    )


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


def dirl1_full_jacobian(problem, config, x, eps):
    """Analytic DT of the damped weighted-l1 map at a smooth point.

    Requires every coordinate to be away from the two kink sets: x_i = 0
    (weight kink) and |x_i - grad_i/beta| = lam*w_i/beta (threshold kink).
    Zero rows are produced for coordinates thresholded to zero.
    """
    n = problem.dimension
    x = np.asarray(x, dtype=float)
    eps = np.asarray(eps, dtype=float)
    alpha, beta, lam = config.alpha, config.beta, problem.lam
    grad = problem.gradient_smooth(x)
    hess = problem.hessian_smooth(x)
    t = np.abs(x) + eps
    w = np.atleast_1d(problem.reg.derivative(t))
    rpp = np.atleast_1d(problem.reg.second_derivative(t))
    z = x - grad / beta
    on = np.abs(z) > lam * w / beta

    ds_x = np.where(on[:, None], np.eye(n) - hess / beta, 0.0)
    diag_extra = np.where(on, -np.sign(z) * (lam / beta) * rpp * np.sign(x), 0.0)
    ds_x[np.diag_indices(n)] += diag_extra
    ds_eps = np.diag(np.where(on, -np.sign(z) * (lam / beta) * rpp, 0.0))

    full = np.zeros((2 * n, 2 * n))
    full[:n, :n] = (1.0 - alpha) * np.eye(n) + alpha * ds_x
    full[:n, n:] = alpha * ds_eps
    full[n:, n:] = config.eps_factor * np.eye(n)
    return full


def dirl2_full_jacobian(problem, config, x, eps):
    """Analytic DT of the damped weighted-l2 map at any point.

    Uses g(z) = z / (z + (lam/beta) r'(z)) so that
    y_i = g(z_i) (x_i - grad_i/beta) with z_i = sqrt(x_i^2 + eps_i^2);
    rows with z_i = 0 vanish (g(0) = 0 and g'(0) = 0 under the
    weighted-l2 smoothness condition).
    """
    n = problem.dimension
    x = np.asarray(x, dtype=float)
    eps = np.asarray(eps, dtype=float)
    alpha, beta, lam = config.alpha, config.beta, problem.lam
    grad = problem.gradient_smooth(x)
    hess = problem.hessian_smooth(x)
    z = np.hypot(x, eps)
    pos = z > 0.0
    g = np.zeros(n)
    gp = np.zeros(n)
    rp = np.atleast_1d(problem.reg.derivative(z[pos]))
    rpp = np.atleast_1d(problem.reg.second_derivative(z[pos]))
    denom = z[pos] + (lam / beta) * rp
    g[pos] = z[pos] / denom
    gp[pos] = -(lam / beta) * (rpp * z[pos] - rp) / denom**2
    c = x - grad / beta

    ds_x = g[:, None] * (np.eye(n) - hess / beta)
    with np.errstate(invalid="ignore"):
        xi_over_z = np.where(pos, x / np.where(pos, z, 1.0), 0.0)
        ei_over_z = np.where(pos, eps / np.where(pos, z, 1.0), 0.0)
    ds_x[np.diag_indices(n)] += gp * xi_over_z * c
    ds_eps = np.diag(gp * ei_over_z * c)

    full = np.zeros((2 * n, 2 * n))
    full[:n, :n] = (1.0 - alpha) * np.eye(n) + alpha * ds_x
    full[:n, n:] = alpha * ds_eps
    full[n:, n:] = config.eps_factor * np.eye(n)
    return full


def full_jacobian(problem, config, x, eps):
    if config.algorithm == "DIRL1":
        return dirl1_full_jacobian(problem, config, x, eps)
    return dirl2_full_jacobian(problem, config, x, eps)


def unstable_fixed_point_check(jac, delta=1e-10):
    """True iff some eigenvalue magnitude strictly exceeds 1 + delta."""
    return bool(np.any(np.abs(jac.spectrum) > 1.0 + delta))


@dataclass
class EquivalenceReport:
    classification: str
    unstable: bool
    spectrum: np.ndarray
    block_eigenvalues: np.ndarray
    structural: tuple
    rho: float
    alpha_below_beta_over_rho: bool
    consistent: bool
    detail: str


def saddle_unstable_equivalence(prob, x_star, alpha, beta, mu, algorithm,
                                rho_empirical=None, tol_support=1e-10):
    """Cross-check the saddle label against fixed-point instability.

    A strict saddle must be an unstable fixed point; a strict local
    minimum with alpha < beta/rho must have every active-block eigenvalue
    magnitude below 1. Any mismatch is reported, not raised.
    """
    report = classify_stationary_point(prob, x_star, tol_support=tol_support)
    if algorithm == "DIRL1":
        jac = dirl1_jacobian(prob, x_star, alpha, beta, mu, tol_support=tol_support)
    else:
        jac = dirl2_jacobian(prob, x_star, alpha, beta, mu, tol_support=tol_support)
    unstable = unstable_fixed_point_check(jac)
    if jac.active:
        H = restricted_hessian(prob, np.asarray(x_star, float), report.pattern)
        if algorithm == "DIRL1":
            vals, _ = symmetric_eigen(H)
        else:
            P = _l2_scaling(prob, np.asarray(x_star, float), list(jac.active), beta)
            vals = _scaled_eigenvalues(H, P)
        block_vals = 1.0 - (alpha / beta) * vals
    else:
        block_vals = np.zeros(0)
    rho = rho_empirical if rho_empirical is not None else hessian_norm(report)
    alpha_ok = rho == 0.0 or alpha < beta / rho
    if report.classification == CLASS_STRICT_SADDLE:
        consistent = unstable
        detail = "strict saddle must be unstable"
    elif report.classification == CLASS_STRICT_LOCAL_MIN and alpha_ok:
        consistent = bool(np.all(np.abs(block_vals) < 1.0)) and not unstable
        detail = "strict local minimum must have contracting active block"
    else:
        consistent = True
        detail = "no assertion for this classification/parameter regime"
    return EquivalenceReport(
        classification=report.classification,
        unstable=unstable,
        spectrum=jac.spectrum,
        block_eigenvalues=block_vals,
        structural=(jac.scalar_J, jac.scalar_eps),
        rho=rho,
        alpha_below_beta_over_rho=alpha_ok,
        consistent=consistent,
        detail=detail,
    )


def estimate_map_lipschitz(config, problem, points, h=1e-6):
    """Empirical Lipschitz constant of the subproblem map S.

    Maximum finite-difference Jacobian operator norm over the sampled
    (x, eps) points. The damping needed for invertibility is
    alpha < 1/(1 + L_S).
    """
    S = solution_map(config, problem)
    best = 0.0
    for v in points:
        J = finite_difference_jacobian(S, np.asarray(v, dtype=float), h)
        vals, _ = symmetric_eigen(J.T @ J)
        best = max(best, math.sqrt(max(float(vals[-1]), 0.0)))
    return best
