"""Normalized positive-definite kernels over dense real inputs.

All families produce k(x, x) = 1: the gaussian natively, the linear and
polynomial families by cosine normalization at the library boundary
(zero-norm inputs are a hard error there, not silently mapped).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroNormPoint

GAUSSIAN = "gaussian"
LINEAR = "linear-normalized"
POLYNOMIAL = "polynomial-normalized"

FAMILIES = (GAUSSIAN, LINEAR, POLYNOMIAL)


@dataclass(frozen=True)
class KernelSpec:
    family: str
    bandwidth: float = 1.0   # read by gaussian only
    degree: int = 2          # read by polynomial only
    offset: float = 0.0      # read by polynomial only

    def __post_init__(self):
        # every family checks every parameter, so a bad value is never
        # silently ignored by a family that does not read it
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        if self.degree < 1:
            raise ValueError("degree must be a positive integer")
        if not self.offset >= 0:
            raise ValueError("offset must be nonnegative")


def gaussian(bandwidth: float = 1.0) -> KernelSpec:
    return KernelSpec(GAUSSIAN, bandwidth=bandwidth)


def linear() -> KernelSpec:
    return KernelSpec(LINEAR)


def polynomial(degree: int, offset: float = 0.0) -> KernelSpec:
    return KernelSpec(POLYNOMIAL, degree=degree, offset=offset)


def _check_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(x)):
        raise ValueError("point contains NaN/Inf")
    return x


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """k(x, y); symmetric, with k(x, x) = 1 exactly."""
    x = _check_point(x)
    y = _check_point(y)
    if x.shape != y.shape:
        raise DimensionMismatch(f"coordinate dimensions {x.shape[0]} vs {y.shape[0]}")
    if np.array_equal(x, y):
        return 1.0
    if spec.family == GAUSSIAN:
        d2 = float(np.sum((x - y) ** 2))
        return float(np.exp(-d2 / (2.0 * spec.bandwidth**2)))
    if spec.family == LINEAR:
        nx = float(x @ x)
        ny = float(y @ y)
        if nx == 0.0 or ny == 0.0:
            raise ZeroNormPoint("linear-normalized kernel undefined for zero vector")
        return float((x @ y) / np.sqrt(nx * ny))
    # polynomial
    pxx = (float(x @ x) + spec.offset) ** spec.degree
    pyy = (float(y @ y) + spec.offset) ** spec.degree
    if pxx == 0.0 or pyy == 0.0:
        raise ZeroNormPoint("polynomial-normalized kernel undefined for zero vector")
    pxy = (float(x @ y) + spec.offset) ** spec.degree
    return float(pxy / np.sqrt(pxx * pyy))


def _stack(history) -> np.ndarray:
    H = np.asarray(history, dtype=np.float64)
    if H.ndim == 1:
        H = H.reshape(1, -1)
    return H


def cross_vector(spec: KernelSpec, history, x) -> np.ndarray:
    """Vector of k(history[i], x) for every i, in order."""
    x = _check_point(x)
    H = _stack(history)
    if H.shape[0] == 0:
        return np.zeros(0)
    if H.shape[1] != x.shape[0]:
        raise DimensionMismatch(f"coordinate dimensions {H.shape[1]} vs {x.shape[0]}")
    if spec.family == GAUSSIAN:
        d2 = np.maximum(np.sum((H - x) ** 2, axis=1), 0.0)
        return np.exp(-d2 / (2.0 * spec.bandwidth**2))
    if spec.family == LINEAR:
        norms = np.sqrt(np.sum(H * H, axis=1))
        nx = float(np.sqrt(x @ x))
        if nx == 0.0 or np.any(norms == 0.0):
            raise ZeroNormPoint("linear-normalized kernel undefined for zero vector")
        return (H @ x) / (norms * nx)
    self_p = (np.sum(H * H, axis=1) + spec.offset) ** spec.degree
    px = (float(x @ x) + spec.offset) ** spec.degree
    if px == 0.0 or np.any(self_p == 0.0):
        raise ZeroNormPoint("polynomial-normalized kernel undefined for zero vector")
    return ((H @ x) + spec.offset) ** spec.degree / np.sqrt(self_p * px)


def gram(spec: KernelSpec, points) -> np.ndarray:
    """Full kernel matrix of the point set; unit diagonal, PSD up to roundoff."""
    P = _stack(points)
    n = P.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    if spec.family == GAUSSIAN:
        sq = np.sum(P * P, axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (P @ P.T), 0.0)
        G = np.exp(-d2 / (2.0 * spec.bandwidth**2))
    elif spec.family == LINEAR:
        norms = np.sqrt(np.sum(P * P, axis=1))
        if np.any(norms == 0.0):
            raise ZeroNormPoint("linear-normalized kernel undefined for zero vector")
        G = (P @ P.T) / np.outer(norms, norms)
    else:
        raw = (P @ P.T + spec.offset) ** spec.degree
        d = np.diag(raw).copy()
        if np.any(d == 0.0):
            raise ZeroNormPoint("polynomial-normalized kernel undefined for zero vector")
        G = raw / np.sqrt(np.outer(d, d))
    G = 0.5 * (G + G.T)
    np.fill_diagonal(G, 1.0)
    return G
