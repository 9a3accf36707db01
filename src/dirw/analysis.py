"""Stationarity tests, restricted Hessians, and saddle classification.

A point x is stationary when the active coordinates satisfy
grad_i f(x) + lambda * sign(x_i) r'(|x_i|) = 0 and each inactive
coordinate satisfies |grad_i f(x)| < lambda * r'(0+). Second-order
behaviour is decided entirely by the Hessian of the objective restricted
to the active coordinates,

    H = hess_f[I, I] + lambda * diag(r''(|x_i|), i in I),

whose smallest eigenvalue separates strict local minima (positive) from
strict saddles (negative).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonStationaryPointError, NumericalFailure

#: Coordinates with |x_i| <= SUPPORT_TOL count as zero when classifying.
SUPPORT_TOL = 1e-10

#: Half-width of the eigenvalue band treated as degenerate.
DEGENERACY_DELTA = 1e-8

#: Default residual bound below which a point counts as stationary.
RESIDUAL_TOL = 1e-6

CLASS_STRICT_LOCAL_MIN = "StrictLocalMin"
CLASS_STRICT_SADDLE = "StrictSaddle"
CLASS_DEGENERATE = "Degenerate"

#: Lookup from sign + 1 (0, 1, 2) to the fingerprint characters.
_SIGN_CHARS = np.frombuffer(b"-0+", dtype=np.uint8)


@dataclass(frozen=True)
class SupportPattern:
    active: tuple
    inactive: tuple
    signs: np.ndarray

    @property
    def bits(self):
        """Sign pattern as a string over {+, -, 0}."""
        return _SIGN_CHARS[np.sign(self.signs).astype(np.intp) + 1].tobytes().decode("ascii")


def support(x, tol=SUPPORT_TOL):
    """Split coordinates into active (|x_i| > tol) and inactive sets."""
    if tol < 0.0:
        raise ValueError("tol must be >= 0")
    x = np.asarray(x, dtype=float)
    signs = np.where(np.abs(x) > tol, np.sign(x), 0.0).astype(int)
    active = tuple(np.flatnonzero(signs).tolist())
    inactive = tuple(np.flatnonzero(signs == 0).tolist())
    return SupportPattern(active=active, inactive=inactive, signs=signs)


@dataclass(frozen=True)
class StationarityReport:
    residual_active: float
    margin_inactive: float
    is_stationary: bool
    pattern: SupportPattern

    def to_dict(self):
        return {
            "residual_active": self.residual_active,
            "margin_inactive": self.margin_inactive,
            "is_stationary": self.is_stationary,
            "support_bits": self.pattern.bits,
        }


def stationarity_residual(prob, x, tol_support=SUPPORT_TOL, tol_residual=RESIDUAL_TOL):
    """First-order residual over the active set and margin over the inactive set.

    The margin is lambda * r'(0+) - max_{inactive} |grad_i f(x)|, which is
    +inf whenever r'(0+) = inf or the inactive set is empty; stationarity
    requires the active residual below ``tol_residual`` and a strictly
    positive margin.
    """
    x = np.asarray(x, dtype=float)
    pattern = support(x, tol_support)
    grad = prob.gradient_smooth(x)
    if pattern.active:
        idx = list(pattern.active)
        xa = x[idx]
        ra = prob.reg.derivative(np.abs(xa))
        residual = float(
            np.max(np.abs(grad[idx] + prob.lam * np.sign(xa) * np.atleast_1d(ra)))
        )
    else:
        residual = 0.0
    d0 = prob.reg.derivative_at_zero_plus()
    if pattern.inactive and math.isfinite(d0):
        margin = prob.lam * d0 - float(np.max(np.abs(grad[list(pattern.inactive)])))
    else:
        margin = math.inf
    return StationarityReport(
        residual_active=residual,
        margin_inactive=margin,
        is_stationary=residual <= tol_residual and margin > 0.0,
        pattern=pattern,
    )


def restricted_hessian(prob, x, pattern):
    """Objective Hessian over the active coordinates (|I| x |I|, symmetric)."""
    x = np.asarray(x, dtype=float)
    idx = list(pattern.active)
    if not idx:
        return np.zeros((0, 0))
    H = prob.hessian_smooth(x)[np.ix_(idx, idx)].copy()
    rpp = np.atleast_1d(prob.reg.second_derivative(np.abs(x[idx])))
    H[np.diag_indices_from(H)] += prob.lam * rpp
    return H


def symmetric_eigen(M):
    """Eigen-decomposition of a symmetric matrix by LAPACK (``numpy.linalg.eigh``).

    Returns (eigenvalues ascending, eigenvectors as columns). Raises
    ``ValueError`` for non-square or non-symmetric input and
    ``NumericalFailure`` if LAPACK does not converge.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if M.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0))
    if not np.allclose(M, M.T, rtol=0.0, atol=1e-10 * max(1.0, np.abs(M).max())):
        raise ValueError("matrix must be symmetric")
    try:
        return np.linalg.eigh(0.5 * (M + M.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"symmetric eigensolve did not converge: {exc}") from exc


@dataclass(frozen=True)
class SaddleReport:
    restricted: np.ndarray
    eigenvalues: np.ndarray
    lambda_min: float
    lambda_max: float
    classification: str
    negative_definite: bool
    pattern: SupportPattern

    def to_dict(self):
        return {
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "eigenvalues": list(self.eigenvalues),
            "classification": self.classification,
            "negative_definite": self.negative_definite,
            "support_bits": self.pattern.bits,
        }


def classify_stationary_point(
    prob,
    x,
    tol_support=SUPPORT_TOL,
    delta=DEGENERACY_DELTA,
    tol_residual=RESIDUAL_TOL,
):
    """Label a stationary point via the restricted Hessian spectrum.

    StrictLocalMin when lambda_min > delta, StrictSaddle when
    lambda_min < -delta, Degenerate in between. An empty active set means
    the quadratic form ranges over the trivial subspace, so the point is a
    (possibly spurious) strict local minimum by convention.
    ``negative_definite`` reports the stronger all-eigenvalues-negative
    condition; it does not affect the label.
    """
    x = np.asarray(x, dtype=float)
    report = stationarity_residual(prob, x, tol_support, tol_residual)
    if not report.is_stationary:
        raise NonStationaryPointError(
            f"point is not stationary: residual={report.residual_active:.3e}, "
            f"margin={report.margin_inactive:.3e}",
            residual=report.residual_active,
        )
    pattern = report.pattern
    H = restricted_hessian(prob, x, pattern)
    if H.shape[0] == 0:
        return SaddleReport(
            restricted=H,
            eigenvalues=np.zeros(0),
            lambda_min=math.inf,
            lambda_max=-math.inf,
            classification=CLASS_STRICT_LOCAL_MIN,
            negative_definite=False,
            pattern=pattern,
        )
    vals, _ = symmetric_eigen(H)
    lam_min, lam_max = float(vals[0]), float(vals[-1])
    if lam_min > delta:
        label = CLASS_STRICT_LOCAL_MIN
    elif lam_min < -delta:
        label = CLASS_STRICT_SADDLE
    else:
        label = CLASS_DEGENERATE
    return SaddleReport(
        restricted=H,
        eigenvalues=vals,
        lambda_min=lam_min,
        lambda_max=lam_max,
        classification=label,
        negative_definite=lam_max < -delta,
        pattern=pattern,
    )


def hessian_norm(report):
    """Spectral norm of the restricted Hessian in a SaddleReport."""
    if report.eigenvalues.size == 0:
        return 0.0
    return float(max(abs(report.lambda_min), abs(report.lambda_max)))


def check_support_identification(trace, window):
    """True iff the sign fingerprint is constant over the final ``window`` records."""
    if window <= 0:
        raise ValueError("window must be positive")
    bits = [rec.support_bits for rec in trace.records]
    if len(bits) < window:
        raise ValueError(f"trace has {len(bits)} records, need at least {window}")
    tail = bits[-window:]
    return all(b == tail[0] for b in tail)


def extrapolate_limit(xs, support_tol=SUPPORT_TOL, small=1e-4, ratio_max=0.999):
    """Limit of a convergent iterate window with decaying coordinates zeroed.

    The weighted-l2 iteration (and the damped l1 iteration after support
    identification) shrinks inactive coordinates by a constant factor per
    step, so they terminate slightly above the support tolerance. A
    coordinate is snapped to zero when it is already below ``support_tol``,
    or when it is small and its magnitudes contract geometrically across
    the window.
    """
    X = np.asarray(xs, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        return np.array(xs[-1], dtype=float)
    limit = X[-1].copy()
    for i in range(X.shape[1]):
        v = np.abs(X[:, i])
        if v[-1] <= support_tol:
            limit[i] = 0.0
            continue
        if v[-1] > small or np.any(v[:-1] == 0.0):
            continue
        if np.median(v[1:] / v[:-1]) <= ratio_max:
            limit[i] = 0.0
    return limit
