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

#: A decaying coordinate is snapped to zero only below this magnitude.
SNAP_SMALL = 1e-4

#: Median step-to-step magnitude ratio at or below which a coordinate decays.
SNAP_RATIO = 0.999

CLASS_STRICT_LOCAL_MIN = "StrictLocalMin"
CLASS_STRICT_SADDLE = "StrictSaddle"
CLASS_DEGENERATE = "Degenerate"

@dataclass(frozen=True)
class SupportPattern:
    active: tuple
    inactive: tuple
    signs: np.ndarray

    @property
    def bits(self):
        """Sign pattern as a string over {+, -, 0}."""
        return _sign_string(self.signs, 0.0)


def _signs(x, tol):
    """sign(x_i) where |x_i| > tol, else 0 (NaN included), as integers."""
    return np.where(np.abs(x) > tol, np.sign(x), 0.0).astype(int)


#: Maps the int8 bytes 1, 0 and -1 (0xff) of a sign to b"+", b"0" and b"-".
_SIGN_CHARS = bytes.maketrans(b"\x01\x00\xff", b"+0-")


def _sign_string(x, tol):
    """The support fingerprint: ``_sign_string(x, tol) == support(x, tol).bits``.

    ``x > tol`` is ``|x| > tol`` for x > 0 and ``x < -tol`` is for x < 0,
    since negation is exact; NaN fails both and reads as 0. With tol >= 0
    at most one of them holds, so their difference as int8 is the sign.
    """
    signs = (x > tol).view(np.int8) - (x < -tol).view(np.int8)
    return signs.tobytes().translate(_SIGN_CHARS).decode("ascii")


def support(x, tol=SUPPORT_TOL):
    """Split coordinates into active (|x_i| > tol) and inactive sets."""
    if tol < 0.0:
        raise ValueError("tol must be >= 0")
    x = np.asarray(x, dtype=float)
    signs = _signs(x, tol)
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


def stationarity_residual(prob, x, tol_residual=RESIDUAL_TOL):
    """First-order residual over the active set and margin over the inactive set.

    The margin is lambda * r'(0+) - max_{inactive} |grad_i f(x)|, which is
    +inf whenever r'(0+) = inf or the inactive set is empty; stationarity
    requires the active residual below ``tol_residual`` and a strictly
    positive margin.
    """
    x = np.asarray(x, dtype=float)
    pattern = support(x)
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
    H = prob.hessian_smooth()[np.ix_(idx, idx)].copy()
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


def classify_stationary_point(prob, x, tol_residual=RESIDUAL_TOL):
    """Label a stationary point via the restricted Hessian spectrum.

    With delta = DEGENERACY_DELTA: StrictLocalMin when lambda_min > delta,
    StrictSaddle when lambda_min < -delta, Degenerate in between. An empty
    active set means the quadratic form ranges over the trivial subspace,
    so the point is a (possibly spurious) strict local minimum by
    convention.
    ``negative_definite`` reports the stronger all-eigenvalues-negative
    condition; it does not affect the label.
    """
    x = np.asarray(x, dtype=float)
    report = stationarity_residual(prob, x, tol_residual)
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
    if lam_min > DEGENERACY_DELTA:
        label = CLASS_STRICT_LOCAL_MIN
    elif lam_min < -DEGENERACY_DELTA:
        label = CLASS_STRICT_SADDLE
    else:
        label = CLASS_DEGENERATE
    return SaddleReport(
        restricted=H,
        eigenvalues=vals,
        lambda_min=lam_min,
        lambda_max=lam_max,
        classification=label,
        negative_definite=lam_max < -DEGENERACY_DELTA,
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


def extrapolate_limit(xs):
    """Limit of a convergent iterate window with decaying coordinates zeroed.

    The weighted-l2 iteration (and the damped l1 iteration after support
    identification) shrinks inactive coordinates by a constant factor per
    step, so they terminate slightly above the support tolerance. A
    coordinate is snapped to zero when it is already below SUPPORT_TOL,
    or when it is below SNAP_SMALL and its magnitudes contract
    geometrically (median ratio at most SNAP_RATIO) across the window.
    """
    X = np.asarray(xs, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        return np.array(xs[-1], dtype=float)
    V = np.abs(X)
    snap = V[-1] <= SUPPORT_TOL
    ratio = ~snap & (V[-1] <= SNAP_SMALL)
    if ratio.any():
        ratio &= (V[:-1] != 0.0).all(axis=0)  # no zero divisor, so no warning
        C = V[:, ratio]
        snap[ratio] = np.median(C[1:] / C[:-1], axis=0) <= SNAP_RATIO
    limit = X[-1].copy()
    limit[snap] = 0.0
    return limit
