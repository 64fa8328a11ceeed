"""Dense symmetric linear algebra for the online learners.

Regularized inverses are grown one row/column at a time by Schur
bordering and periodically rebuilt from the tracked matrix to bound
drift. An append of order n costs one n×n mat-vec, or none when the
caller passes the product (M + alpha I)^{-1}·cross it already has, plus
an in-place rank-1 update applied in row blocks, so no n×n temporary
is built. Everything is dense float64: at desk scale (a few thousand
points) sparse or low-rank storage buys nothing.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NoConvergence, NotPositiveDefinite, SchurNotPositive

# Appends tolerated before the maintained inverse is rebuilt from scratch.
REFRESH_EVERY = 512

# Relative floor on the Schur complement of an appended row/column.
SCHUR_RTOL = 1e-12

# Bytes of the temporary that append's in-place rank-1 update fills per
# row block. With the inverse rows it is added into, a block takes twice
# this, 1 MiB, which stays within a core's L2 cache: 64 rows at order
# 1024, and the whole update in one block up to order 256.
APPEND_BLOCK_BYTES = 512 * 1024


# ---------------------------------------------------------------------------
# validation and buffer helpers
# ---------------------------------------------------------------------------

def as_vec(entries) -> np.ndarray:
    """1-D float64 vector with finite entries."""
    v = np.asarray(entries, dtype=np.float64)
    if v.ndim != 1:
        v = v.reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains NaN/Inf")
    return v


def grown(buf: np.ndarray, n: int, used: int) -> np.ndarray:
    """`buf` when it has at least n rows, else a copy of its first `used`
    rows in a zeroed buffer of max(2 * rows, n) rows."""
    if buf.shape[0] >= n:
        return buf
    new = np.zeros((max(2 * buf.shape[0], n),) + buf.shape[1:], dtype=buf.dtype)
    new[:used] = buf[:used]
    return new


# ---------------------------------------------------------------------------
# batch solves and spectra
# ---------------------------------------------------------------------------

def psd_solve(M: np.ndarray, alpha: float, b: np.ndarray) -> np.ndarray:
    """Solve (M + alpha*I) x = b by Cholesky; M PSD, alpha >= 0.

    `b` may be a vector or a matrix of right-hand-side columns.
    """
    M = np.asarray(M, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = M.shape[0]
    if n == 0:
        return np.zeros_like(b)
    A = M + alpha * np.eye(n)
    try:
        cf = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"factorization failed: {exc}") from exc
    return scipy.linalg.cho_solve(cf, b, check_finite=False)


def sym_eigvals(M: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending."""
    M = np.asarray(M, dtype=np.float64)
    if M.size == 0:
        return np.zeros(0)
    try:
        return np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc


def gram_shift_product(X: np.ndarray, alpha: float, v: np.ndarray) -> np.ndarray:
    """Apply (X Xᵀ + alpha I)^{-1} to v through the dual m×m system.

    X is n×m with m feature columns; the product is computed as
    (1/alpha)(v − X (XᵀX + alpha I)^{-1} Xᵀ v), which costs O(m³)
    instead of O(n³) when m « n.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    X = np.asarray(X, dtype=np.float64)
    v = as_vec(v)
    if X.size == 0:
        return v / alpha
    if X.shape[0] != v.shape[0]:
        raise ValueError(f"shape mismatch: X has {X.shape[0]} rows, v has {v.shape[0]}")
    inner = psd_solve(X.T @ X, alpha, X.T @ v)
    return (v - X @ inner) / alpha


def gram_shift_product_direct(X: np.ndarray, alpha: float, v: np.ndarray) -> np.ndarray:
    """Same product through the primal n×n system (identity-check reference)."""
    X = np.asarray(X, dtype=np.float64)
    v = as_vec(v)
    if X.size == 0:
        return v / alpha
    return psd_solve(X @ X.T, alpha, v)


# ---------------------------------------------------------------------------
# incrementally grown regularized inverse
# ---------------------------------------------------------------------------

class RegularizedInverse:
    """Maintained (M + alpha I)^{-1} for a PSD matrix M grown by appending
    one row/column at a time.

    The tracked matrix is stored alongside the inverse so the state can
    be audited and rebuilt; every REFRESH_EVERY appends the inverse is
    recomputed from scratch, which bounds drift over long runs. Appends
    whose Schur complement falls below SCHUR_RTOL·(diag + alpha) are
    rejected: a near-singular bordering would silently corrupt every
    later product.

    An append at order n costs O(n²): the product u = inv·cross (skipped
    when the caller supplies it) and the update inv += u uᵀ/s, added in
    place in row blocks of APPEND_BLOCK_BYTES with no n×n temporary.
    """

    def __init__(self, alpha: float):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)
        self.order = 0
        self._appends = 0
        self._cap = 0
        self._mat = np.zeros((0, 0))
        self._inv = np.zeros((0, 0))

    # -- views ---------------------------------------------------------

    @property
    def mat(self) -> np.ndarray:
        """The tracked PSD matrix M (view, do not mutate)."""
        return self._mat[: self.order, : self.order]

    @property
    def inv(self) -> np.ndarray:
        """The maintained (M + alpha I)^{-1} (view, do not mutate)."""
        return self._inv[: self.order, : self.order]

    def _ensure_capacity(self, n: int) -> None:
        if n <= self._cap:
            return
        cap = max(16, n, 2 * self._cap)
        for name in ("_mat", "_inv"):
            old = getattr(self, name)
            new = np.zeros((cap, cap))
            new[: self.order, : self.order] = old[: self.order, : self.order]
            setattr(self, name, new)
        self._cap = cap

    # -- growth --------------------------------------------------------

    def schur_complement(self, cross: np.ndarray, diag: float) -> float:
        """Schur complement of the would-be appended row/column."""
        cross = as_vec(cross)
        if cross.shape[0] != self.order:
            raise ValueError(f"cross has length {cross.shape[0]}, expected {self.order}")
        if self.order == 0:
            return float(diag) + self.alpha
        return float(diag) + self.alpha - float(cross @ (self.inv @ cross))

    def append(self, cross: np.ndarray, diag: float,
               inv_cross: np.ndarray | None = None) -> None:
        """Grow M by one row/column (border `cross`, corner `diag`) in place.

        `inv_cross`, when given, must be `apply(cross)`; the append then
        skips that product. The result is the same bit for bit.
        """
        cross = as_vec(cross)
        n = self.order
        if cross.shape[0] != n:
            raise ValueError(f"cross has length {cross.shape[0]}, expected {n}")
        if inv_cross is None:
            u = self.inv @ cross
        else:
            u = np.asarray(inv_cross, dtype=np.float64)
            if u.shape != (n,):
                raise ValueError(f"inv_cross has shape {u.shape}, expected ({n},)")
        diag = float(diag)
        s = diag + self.alpha - float(cross @ u)
        if s <= SCHUR_RTOL * (diag + self.alpha):
            raise SchurNotPositive(
                f"schur complement {s:.3e} below tolerance at order {n}")
        self._ensure_capacity(n + 1)
        self._mat[:n, n] = cross
        self._mat[n, :n] = cross
        self._mat[n, n] = diag
        # each entry gains fl(fl(u_i u_j) / s), as from np.outer(u, u) / s
        rows = max(1, APPEND_BLOCK_BYTES // (8 * max(n, 1)))
        for r0 in range(0, n, rows):
            r1 = min(r0 + rows, n)
            tmp = np.multiply.outer(u[r0:r1], u)
            tmp /= s
            self._inv[r0:r1, :n] += tmp
        border = -u / s
        self._inv[:n, n] = border
        self._inv[n, :n] = border
        self._inv[n, n] = 1.0 / s
        self.order = n + 1
        self._appends += 1
        if self._appends % REFRESH_EVERY == 0:
            self.refresh()

    def refresh(self) -> None:
        """Rebuild the inverse from the tracked matrix by column solves."""
        n = self.order
        if n == 0:
            return
        self._inv[:n, :n] = psd_solve(self.mat, self.alpha, np.eye(n))

    # -- products ------------------------------------------------------

    def apply(self, v: np.ndarray) -> np.ndarray:
        """(M + alpha I)^{-1} v."""
        if self.order == 0:
            return np.zeros(0)
        return self.inv @ np.asarray(v, dtype=np.float64)

    # -- bookkeeping ---------------------------------------------------

    def audit(self) -> float:
        """Max-abs deviation of inv·(M + alpha I) from the identity."""
        n = self.order
        if n == 0:
            return 0.0
        resid = self.inv @ (self.mat + self.alpha * np.eye(n)) - np.eye(n)
        return float(np.max(np.abs(resid)))
