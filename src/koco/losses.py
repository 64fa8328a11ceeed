"""Scalar convex losses, their derivatives, curvature constants, and the
prediction-interval clipping function.

Each family carries a curvature constant sigma such that
    loss(b) >= loss(a) + loss'(a)(b-a) + (sigma/2)(loss'(a)(b-a))^2
on the prediction interval [-C, C]. For the squared loss the constant
1/(8C^2) is exact; for logistic and squared-hinge no closed form is
available, so the constant is validated (and if necessary found) on a
dense grid of (a, b) pairs, making it safe by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import expit

SQUARED = "squared"
LOGISTIC = "logistic"
SQUARED_HINGE = "squared-hinge"

FAMILIES = (SQUARED, LOGISTIC, SQUARED_HINGE)

_GRID = 101        # grid resolution per axis for curvature validation
_SLACK_TOL = 1e-12  # roundoff allowance when judging a curvature constant
                    # (the a == b grid diagonal has exactly zero slack)


@dataclass(frozen=True)
class LossEvent:
    """One adversary round: an input point plus a convex scalar loss.

    `target` is the regression target for the squared family and the
    ±1 label for logistic / squared-hinge.
    """

    point: np.ndarray
    family: str
    target: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown loss family {self.family!r}")
        if self.family in (LOGISTIC, SQUARED_HINGE) and self.target not in (-1.0, 1.0, -1, 1):
            raise ValueError("labels must be ±1")


@dataclass(frozen=True)
class CurvatureProfile:
    sigma: float      # curvature constant on [-C, C]
    lipschitz: float  # bound on |loss'| over the same interval
    clip_c: float


def clip_to_interval(z: float, C: float) -> float:
    """Exact projection of z onto [-C, C]."""
    return min(max(z, -C), C)


def loss_value(ev: LossEvent, yhat: float) -> float:
    if ev.family == SQUARED:
        return float((ev.target - yhat) ** 2)
    if ev.family == LOGISTIC:
        return float(np.logaddexp(0.0, -ev.target * yhat))
    return float(max(0.0, 1.0 - ev.target * yhat) ** 2)


def loss_derivative(ev: LossEvent, yhat: float) -> float:
    if ev.family == SQUARED:
        return float(2.0 * (yhat - ev.target))
    if ev.family == LOGISTIC:
        return float(-ev.target * expit(-ev.target * yhat))
    return float(-2.0 * ev.target * max(0.0, 1.0 - ev.target * yhat))


# ---------------------------------------------------------------------------
# curvature validation grid
# ---------------------------------------------------------------------------

def _family_params(family: str, C: float) -> list[float]:
    # adversary knobs to sweep: regression targets or binary labels
    if family == SQUARED:
        return list(np.linspace(-C, C, 9))
    return [-1.0, 1.0]


def _value_arr(family: str, p: float, y: np.ndarray) -> np.ndarray:
    if family == SQUARED:
        return (p - y) ** 2
    if family == LOGISTIC:
        return np.logaddexp(0.0, -p * y)
    return np.maximum(0.0, 1.0 - p * y) ** 2


def _deriv_arr(family: str, p: float, y: np.ndarray) -> np.ndarray:
    if family == SQUARED:
        return 2.0 * (y - p)
    if family == LOGISTIC:
        return -p * expit(-p * y)
    return -2.0 * p * np.maximum(0.0, 1.0 - p * y)


def asm_curvature_slack(family: str, sigma: float, C: float,
                        grid: int = _GRID) -> float:
    """Minimum over a (param, a, b) grid of
    loss(b) - loss(a) - loss'(a)(b-a) - (sigma/2)(loss'(a)(b-a))^2.

    Nonnegative (up to roundoff) means sigma is admissible on [-C, C].
    """
    pts = np.linspace(-C, C, grid)
    a, b = np.meshgrid(pts, pts, indexing="ij")
    worst = np.inf
    for p in _family_params(family, C):
        la = _value_arr(family, p, a)
        lb = _value_arr(family, p, b)
        da = _deriv_arr(family, p, a)
        slack = lb - la - da * (b - a) - 0.5 * sigma * (da * (b - a)) ** 2
        worst = min(worst, float(slack.min()))
    return worst


def _admissible(family: str, sigma: float, C: float) -> bool:
    return asm_curvature_slack(family, sigma, C) >= -_SLACK_TOL


def _largest_grid_sigma(family: str, C: float) -> float:
    """Binary search for the largest sigma passing the curvature grid."""
    lo, hi = 0.0, 1.0
    while _admissible(family, hi, C):
        hi *= 2.0
        if hi > 1e6:
            return hi / 2.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if _admissible(family, mid, C):
            lo = mid
        else:
            hi = mid
    return lo


@lru_cache(maxsize=None)
def curvature_profile(family: str, C: float) -> CurvatureProfile:
    """Curvature and Lipschitz constants of the family on [-C, C]."""
    if C <= 0:
        raise ValueError("C must be positive")
    if family == SQUARED:
        # |target| <= C is enforced at ingestion, so |loss'| <= 2*2C
        return CurvatureProfile(sigma=1.0 / (8.0 * C * C), lipschitz=4.0 * C, clip_c=C)
    if family == LOGISTIC:
        sigma = np.exp(-C) / 4.0
        if not _admissible(family, sigma, C):
            sigma = _largest_grid_sigma(family, C)
        return CurvatureProfile(sigma=float(sigma), lipschitz=1.0, clip_c=C)
    if family == SQUARED_HINGE:
        sigma = _largest_grid_sigma(family, C)
        return CurvatureProfile(sigma=float(sigma), lipschitz=2.0 * (1.0 + C), clip_c=C)
    raise ValueError(f"unknown loss family {family!r}")
