"""Convex losses and their first and second derivatives, written once
elementwise for the learners, the curvature grid and the comparators;
curvature constants; and the prediction-interval clipping function.

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

# the logistic branches import scipy.special's expit where they use it,
# so that `import koco` does not load scipy.special

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
    ±1 label for logistic / squared-hinge; a NaN or infinite one is
    rejected.
    """

    point: np.ndarray
    family: str
    target: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown loss family {self.family!r}")
        if not np.isfinite(self.target):
            raise ValueError("target contains NaN/Inf")
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


def value(family: str, target, pred):
    """Loss of `family` at prediction `pred` against `target`, elementwise."""
    if family == SQUARED:
        return (target - pred) ** 2
    if family == LOGISTIC:
        return np.logaddexp(0.0, -target * pred)
    return np.maximum(0.0, 1.0 - target * pred) ** 2


def derivative(family: str, target, pred):
    """Derivative of `value` in `pred`, elementwise."""
    if family == SQUARED:
        return 2.0 * (pred - target)
    if family == LOGISTIC:
        from scipy.special import expit
        return -target * expit(-target * pred)
    return -2.0 * target * np.maximum(0.0, 1.0 - target * pred)


def second_derivative(family: str, target, pred):
    """Second derivative of `value` in `pred`, elementwise; at the squared
    hinge's kink, its right-hand value 0."""
    if family == SQUARED:
        return np.full(np.shape(pred), 2.0)
    if family == LOGISTIC:
        from scipy.special import expit
        return expit(target * pred) * expit(-target * pred)
    return np.where(target * pred < 1.0, 2.0, 0.0)


def loss_value(ev: LossEvent, yhat: float) -> float:
    return float(value(ev.family, ev.target, yhat))


def loss_derivative(ev: LossEvent, yhat: float) -> float:
    return float(derivative(ev.family, ev.target, yhat))


# ---------------------------------------------------------------------------
# curvature validation grid
# ---------------------------------------------------------------------------

def _family_params(family: str, C: float) -> list[float]:
    # adversary knobs to sweep: regression targets or binary labels
    if family == SQUARED:
        return list(np.linspace(-C, C, 9))
    return [-1.0, 1.0]


def asm_curvature_slack(family: str, sigma: float, C: float) -> float:
    """Minimum over a (param, a, b) grid of
    loss(b) - loss(a) - loss'(a)(b-a) - (sigma/2)(loss'(a)(b-a))^2.

    Nonnegative (up to roundoff) means sigma is admissible on [-C, C].
    """
    pts = np.linspace(-C, C, _GRID)
    a, b = np.meshgrid(pts, pts, indexing="ij")
    worst = np.inf
    for p in _family_params(family, C):
        la = value(family, p, a)
        lb = value(family, p, b)
        da = derivative(family, p, a)
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
    if not 0 < C < np.inf:
        raise ValueError("clip_c must be positive and finite")
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
