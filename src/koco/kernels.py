"""Normalized positive-definite kernels over dense real inputs.

All families produce k(x, x) = 1: the gaussian natively, the linear and
polynomial families by cosine normalization at the library boundary
(zero-norm inputs are a hard error there, not silently mapped).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroNormPoint
from .linalg import APPEND_BLOCK_BYTES

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
        if not self.bandwidth < np.inf:
            raise ValueError("bandwidth must be finite")
        if not (self.degree >= 1 and float(self.degree).is_integer()):
            raise ValueError("degree must be a positive integer")
        if not self.offset >= 0:
            raise ValueError("offset must be nonnegative")
        if not self.offset < np.inf:
            raise ValueError("offset must be finite")


def gaussian(bandwidth: float = 1.0) -> KernelSpec:
    return KernelSpec(GAUSSIAN, bandwidth=bandwidth)


def linear() -> KernelSpec:
    return KernelSpec(LINEAR)


def polynomial(degree: int, offset: float = 0.0) -> KernelSpec:
    return KernelSpec(POLYNOMIAL, degree=degree, offset=offset)


def _finite_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if not np.isfinite(x).all():
        raise ValueError("point contains NaN/Inf")
    return x


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """k(x, y), `cross_vector`'s one-point case; 1 exactly at x = y, once
    both points have passed its checks."""
    x = _finite_point(x)
    k = float(cross_vector(spec, x[None], y)[0])
    return 1.0 if np.array_equal(x, y) else k


def _stack(history) -> np.ndarray:
    H = np.asarray(history, dtype=np.float64)
    if H.ndim == 1:
        H = H.reshape(1, -1)
    return H


def cross_vector(spec: KernelSpec, history, x, *, h_self=None, x_self=None) -> np.ndarray:
    """Vector of k(history[i], x) for every i, in order.

    The query x is checked first, against an empty history too: NaN/Inf
    raises ValueError, a zero x under a cosine-normalized family raises
    ZeroNormPoint, and a length other than the history's raises
    DimensionMismatch (a (0, 0) history, an empty `Rounds`'s, has no
    length yet), so a point with no history fails in its own round.
    Entry i reduces over history[i] alone (squared distances one
    coordinate at a time, inner products through einsum, not a BLAS
    product, which takes another path for one row than for many), so the
    row against part of the history is a gather of the row against all
    of it. A cosine family takes the rows' own terms from `h_self` and,
    with x already checked, x's from `x_self`, when `koco.kors.Rounds.row`
    passes them as `_self_terms` gives them, so k(a, b) equals k(b, a)
    bit for bit."""
    if x_self is None:
        x = _finite_point(x)
        x_self = None if spec.family == GAUSSIAN else _self_terms(spec, x[None])[0]
    H = _stack(history)
    if H.shape[1] != x.shape[0] and H.shape != (0, 0):
        raise DimensionMismatch(f"coordinate dimensions {H.shape[1]} vs {x.shape[0]}")
    if H.shape[0] == 0:
        return np.zeros(0)
    if spec.family == GAUSSIAN:
        return _gaussian(spec, _sq_dists(H, x))
    h_self = _self_terms(spec, H) if h_self is None else h_self
    return _cosine(spec, np.einsum("ij,j->i", H, x), h_self, x_self)


def _self_terms(spec: KernelSpec, H: np.ndarray) -> np.ndarray:
    """Each row's own term of a cosine normalization: |x| (linear) or
    (x·x + offset)^degree (polynomial), every point's, a query's too (as
    `H = x[None]`). Each row is reduced alone, so the terms of a prefix of
    H are a prefix of the terms of H, and a row's term is the same in any
    H. A zero row raises ZeroNormPoint."""
    sq = np.sum(H * H, axis=1)
    own = np.sqrt(sq) if spec.family == LINEAR else (sq + spec.offset) ** spec.degree
    if np.any(own == 0.0):
        raise ZeroNormPoint(f"{spec.family} kernel undefined for zero vector")
    return own


def _cosine(spec: KernelSpec, hx: np.ndarray, h_self: np.ndarray,
            x_self: float) -> np.ndarray:
    """Cosine-normalized kernel values of the inner products hx between
    history rows and a query, given both sides' own terms."""
    if spec.family == LINEAR:
        return hx / (h_self * x_self)
    return (hx + spec.offset) ** spec.degree / np.sqrt(h_self * x_self)


def _gaussian(spec: KernelSpec, sq_dists: np.ndarray, out=None) -> np.ndarray:
    """Gaussian kernel values of squared distances (sums of squares, never
    negative), which it overwrites: exp(-d² / (2·bandwidth²)), with the
    sign moved onto the divisor, which leaves every quotient as it was."""
    sq_dists /= -(2.0 * spec.bandwidth**2)
    return np.exp(sq_dists, out=out)


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """|A[i] - B[j]|² at [j, i], or at [i] for one point B (1-D), each sum of
    (A[i] - B[j])² taken left to right, a coordinate at a time over every pair."""
    cols = B if B.ndim == 1 else B.T[..., None]  # coordinate k: scalar or column
    acc = A[:, 0] - cols[0]
    acc *= acc
    for k in range(1, A.shape[1]):
        sq = A[:, k] - cols[k]
        sq *= sq
        acc += sq
    return acc


def rescaled_gram(spec: KernelSpec, points, d, probs, out=None) -> np.ndarray:
    """The matrix M_ij = k(x_i, x_j)·d_i·d_j·sw_i·sw_j (sw = √(1/p)) that
    the appends of a `koco.kors.Dictionary` grow over its `points` with
    rescale factors `d` and admission probabilities `probs`, rebuilt bit
    for bit, into `out` (n×n, such as the solver's own rows on a refresh)
    when it is given: every entry is overwritten, so it needs no zeroing.

    Entry (i, j), i < j, is formed as the appends form it: k_ij as
    `cross_vector(spec, points[:j], points[j])[i]` gives it, times d_i,
    times d_j, times sw_i, times sw_j, and is mirrored to (j, i); the
    diagonal is d_j·d_j·(1/p_j), since k(x, x) = 1. Gaussian rows are
    formed in row blocks of at most APPEND_BLOCK_BYTES of coordinate
    differences, the cosine families row by row from each point's own
    normalization terms, taken once. A NaN/Inf coordinate raises
    ValueError. `gram` is this builder at d = p = 1."""
    P = _stack(points)
    d = np.asarray(d, dtype=np.float64)
    n = P.shape[0]
    G = np.zeros((n, n)) if out is None else out
    if n == 0:
        return G
    w = 1.0 / np.asarray(probs, dtype=np.float64)
    sw = np.sqrt(w)
    rows = min(n, max(1, APPEND_BLOCK_BYTES // (8 * n * P.shape[1])))
    upper = ~np.tri(rows, dtype=bool)  # the part of a block's square to mirror
    if not np.all(np.isfinite(P)):
        raise ValueError("point contains NaN/Inf")
    if spec.family != GAUSSIAN:
        own = _self_terms(spec, P)
    for j0 in range(0, n, rows):
        j1 = min(j0 + rows, n)
        blk = G[j0:j1, :j1]  # rows j0..j1-1; only columns i < j are kept
        if spec.family == GAUSSIAN:
            _gaussian(spec, _sq_dists(P[:j1], P[j0:j1]), out=blk)
        else:
            for j in range(j0, j1):
                hx = np.einsum("ij,j->i", P[:j], P[j])
                blk[j - j0, :j] = _cosine(spec, hx, own[:j], own[j])
        blk *= d[:j1]
        blk *= d[j0:j1, None]
        blk *= sw[:j1]
        blk *= sw[j0:j1, None]
        G[:j0, j0:j1] = blk[:, :j0].T
        square = G[j0:j1, j0:j1]
        np.copyto(square, square.T, where=upper[: j1 - j0, : j1 - j0])
    G.flat[:: n + 1] = d * d * w
    return G


def gram(spec: KernelSpec, points) -> np.ndarray:
    """Full kernel matrix of the point set: `rescaled_gram` at unit scales
    and probabilities, so entry (i, j), i < j, is exactly
    `cross_vector(spec, points[:j], points[j])[i]`, mirrored (the matrix
    is symmetric bit for bit), with a unit diagonal; PSD up to roundoff."""
    P = _stack(points)
    ones = np.ones(P.shape[0])
    return rescaled_gram(spec, P, ones, ones)
