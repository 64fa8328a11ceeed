"""Dense symmetric linear algebra for the online learners.

Two solvers of M + alpha I are grown one row/column at a time by Schur
bordering from the matrix M that their owner, a `koco.kors.Dictionary`,
grows and rebuilds from its members; neither keeps a copy of M.
`RegularizedInverse` keeps the inverse itself, which the Newton-step
learners multiply by every round; `RegularizedFactor` keeps the lower
Cholesky factor L, which the leverage-score sampler only solves with.
Both grow one way: `schur_complement(cross, diag)` scores a column and
returns its product, inv·cross or L⁻¹·cross, which `append(cross,
diag, product)` takes, and both refuse a column by the one rule
`schur_ok`. An inverse append is an in-place rank-1 update over whole
contiguous row blocks of one flat buffer at a padded row stride, with
no n×n temporary; a factor append writes one new row of L. Everything
is dense float64: at desk scale (a few thousand points) sparse or
low-rank storage buys nothing.

Only the inverse is rebuilt. Its rank-1 updates carry each one's
rounding into every later entry, so it is refactored from M once every
REFRESH_EVERY appends. Appending rows to L is the row-by-row (bordered)
Cholesky algorithm itself, whose backward error is that of any Cholesky
factorization, so a factor rebuilt from M would bound nothing more.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtpsv

from .errors import NoConvergence, NotPositiveDefinite, SchurNotPositive

# Appends tolerated before the maintained inverse is rebuilt from scratch
# (the factor is never rebuilt; see the module docstring).
REFRESH_EVERY = 512

# Relative floor on the Schur complement of an appended row/column.
SCHUR_RTOL = 1e-12

# Bytes of the temporary that append's in-place rank-1 update fills per
# row block. A block spans whole rows of the padded stride w, not just the
# order n. With the inverse rows it is added into, a block takes twice
# this, 1 MiB, which stays within a core's L2 cache: 64 rows at stride
# 1024, and the whole update in one block up to stride 256. The gram
# rebuild of `koco.kernels.rescaled_gram` bounds its row blocks by it too.
APPEND_BLOCK_BYTES = 512 * 1024

# Row stride of the maintained inverse: an order above ROW_STRIDE_STEP
# is padded to a multiple of it, a smaller one to a multiple of 16. Each
# step moves the rows once; the padding stays under a step, so a small
# inverse's update does little extra work.
ROW_STRIDE_STEP = 128


# ---------------------------------------------------------------------------
# buffer helpers
# ---------------------------------------------------------------------------

def grown(buf: np.ndarray, n: int, used: int) -> np.ndarray:
    """A copy of the first `used` rows of `buf`, which has fewer than n, in
    a zeroed buffer of max(2 * rows, n) rows (called only when it is full)."""
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
    cf = _cho_factor(M + alpha * np.eye(n))
    return scipy.linalg.cho_solve(cf, b, check_finite=False)


def _cho_factor(A: np.ndarray, overwrite: bool = False):
    """Lower Cholesky factor of A, in place when `overwrite` and A is
    Fortran-ordered."""
    try:
        return scipy.linalg.cho_factor(A, lower=True, overwrite_a=overwrite,
                                       check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"factorization failed: {exc}") from exc


def sym_eigvals(M: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending."""
    M = np.asarray(M, dtype=np.float64)
    if M.size == 0:
        return np.zeros(0)
    try:
        return np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc


# ---------------------------------------------------------------------------
# incrementally grown regularized inverse
# ---------------------------------------------------------------------------

def schur_ok(s: float, diag: float, alpha: float) -> bool:
    """Whether a column with corner `diag` and Schur complement `s` may be
    appended to a solver of M + alpha I: s > SCHUR_RTOL·(diag + alpha).
    A NaN s fails, so a border with a NaN/Inf entry is refused."""
    return s > SCHUR_RTOL * (diag + alpha)


def _border(cross, order: int) -> np.ndarray:
    """`cross` as a float64 vector of length `order` (the length only is
    checked: the callers build it from points already checked); a float64
    ndarray of that shape is returned as it is."""
    if type(cross) is np.ndarray and cross.dtype == np.float64 and cross.shape == (order,):
        return cross
    cross = np.asarray(cross, dtype=np.float64).reshape(-1)
    if cross.shape[0] != order:
        raise ValueError(f"cross has length {cross.shape[0]}, expected {order}")
    return cross


def _row_stride(n: int) -> int:
    """Row stride of the maintained inverse at order n >= 1."""
    step = ROW_STRIDE_STEP if n > ROW_STRIDE_STEP else 16
    return -(-n // step) * step


def _block_rows(w: int) -> int:
    """Rows of stride w in one APPEND_BLOCK_BYTES block of the update."""
    return max(1, APPEND_BLOCK_BYTES // (8 * w))


class RegularizedInverse:
    """Maintained (M + alpha I)^{-1} for a PSD matrix M grown by appending
    one row/column at a time.

    Only the inverse is stored, not M: the owning `koco.kors.Dictionary`,
    which grows M from its members, rebuilds M and passes it to `refresh`
    when `append` reports that a rebuild is due (once every REFRESH_EVERY
    appends, which bounds drift over long runs) and to `audit`. Appends
    that fail `schur_ok` are rejected: a near-singular bordering would
    silently corrupt every later product.

    The inverse's rows lie in one flat buffer at row stride
    w = _row_stride(order); `inv` is its [:n, :n] view, and the padding
    columns hold zeros that are never read. An append at order n costs
    O(n²): the update inv += u uᵀ/s, for u = inv·cross the caller's
    product from `schur_complement`, added in place over contiguous
    blocks of whole rows (n·w entries, against u zero-padded to w). When
    the order passes w, the rows move to the wider stride in place (once
    per stride step); the buffers are reallocated, at double the
    capacity, only when the order passes the capacity.
    """

    def __init__(self, alpha: float):
        if not 0 < alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        self.alpha = float(alpha)
        self.order = 0
        self.refreshes = 0  # rebuilds from a supplied matrix so far
        self._cap = 0
        self._flat = np.zeros(0)      # cap² entries holding the inverse's rows
        self._inv = np.zeros((0, 0))  # _flat as rows of the current stride
        self._upad = np.zeros(0)      # u zero-padded to the stride
        self._scratch = np.zeros(0)   # a row block of the update, kept per stride

    # -- views ---------------------------------------------------------

    @property
    def inv(self) -> np.ndarray:
        """The maintained (M + alpha I)^{-1} (view, do not mutate)."""
        return self._inv[: self.order, : self.order]

    def _ensure_capacity(self, n: int) -> None:
        """Room for order n: the inverse's rows at stride w = _row_stride(n)
        in cap² entries; cap (16 times a power of two, at least n) is a
        multiple of the stride step, so w <= cap."""
        if n <= self._inv.shape[1]:  # orders up to w keep stride w
            return
        order, w = self.order, _row_stride(n)
        rows = _block_rows(w)
        self._scratch = np.empty(min(rows, w) * w)
        if n > self._cap:
            cap = max(16, n, 2 * self._cap)
            flat = np.zeros(cap * cap)
            flat[: order * w].reshape(order, w)[:, :order] = self.inv
            self._flat, self._cap = flat, cap
        else:
            # last rows first: a block's new place lies past every row not
            # yet moved, so only the block itself overlaps; copy it via tmp
            for r1 in range(order, 0, -rows):
                r0 = max(0, r1 - rows)
                tmp = self._scratch[: (r1 - r0) * order].reshape(r1 - r0, order)
                tmp[...] = self._inv[r0:r1, :order]
                dst = self._flat[r0 * w: r1 * w].reshape(r1 - r0, w)
                dst[:, :order] = tmp
                dst[:, order:] = 0.0
        self._inv = self._flat[: self._flat.size // w * w].reshape(-1, w)
        self._upad = np.zeros(w)

    # -- growth --------------------------------------------------------

    def schur_complement(self, cross: np.ndarray, diag: float) -> tuple[float, np.ndarray]:
        """Schur complement of the would-be appended row/column, and the
        product inv·cross it is formed with (what `append` takes as
        `product`). `cross` must be finite and is not checked: a NaN or
        infinite entry gives a NaN or -inf complement."""
        cross = _border(cross, self.order)
        u = self.inv @ cross
        return float(diag) + self.alpha - float(cross @ u), u

    def append(self, cross: np.ndarray, diag: float, product: np.ndarray) -> bool:
        """Grow M by one row/column (border `cross`, corner `diag`) in place,
        and return whether a `refresh` is due: True when the new order is
        a multiple of REFRESH_EVERY.

        `product` stands for inv·cross, as `schur_complement` returns it;
        the append forms no product of its own. A Schur complement that
        fails `schur_ok` (a NaN/Inf in `cross` or `product`, not checked,
        fails it too) raises SchurNotPositive and leaves the inverse as it
        was.
        """
        cross = _border(cross, self.order)
        n = self.order
        u = np.asarray(product, dtype=np.float64)
        if u.shape != (n,):
            raise ValueError(f"product has shape {u.shape}, expected ({n},)")
        diag = float(diag)
        s = diag + self.alpha - float(cross @ u)
        if not schur_ok(s, diag, self.alpha):
            raise SchurNotPositive(
                f"schur complement {s:.3e} below tolerance at order {n}")
        self._ensure_capacity(n + 1)
        w = self._inv.shape[1]
        rows = _block_rows(w)
        # each entry gains fl(fl(u_i u_j) / s), as from np.outer(u, u) / s
        # (einsum adds each product to a zeroed output, so a zero product
        # enters as +0), over whole rows: the padding columns gain +0
        self._upad[:n] = u
        for r0 in range(0, n, rows):
            r1 = min(r0 + rows, n)
            tmp = self._scratch[: (r1 - r0) * w].reshape(r1 - r0, w)
            np.einsum("i,j->ij", u[r0:r1], self._upad, out=tmp)
            tmp /= s
            self._inv[r0:r1] += tmp
        border = np.divide(u, -s, out=self._inv[n, :n])  # -u / s, bit for bit
        self._inv[:n, n] = border
        self._inv[n, n] = 1.0 / s
        self.order = n + 1
        return self.order % REFRESH_EVERY == 0

    def refresh(self, gram: np.ndarray) -> None:
        """Rebuild the inverse by column solves from `gram`, the matrix M
        the appends grew, exactly symmetric and C-ordered; it is consumed.

        The same values as `psd_solve(gram, alpha, eye)`, with two n×n
        temporaries: `gram` plus alpha I, factored in place, and the
        identity, solved in place."""
        n = self.order
        if n == 0:
            return
        if gram.shape != (n, n):
            raise ValueError(f"gram has shape {gram.shape}, expected ({n}, {n})")
        a = gram.T  # M itself, in Fortran order
        a += 0.0    # as in psd_solve's M + alpha I, a -0.0 enters as +0.0
        a.flat[:: n + 1] += self.alpha
        x = scipy.linalg.cho_solve(_cho_factor(a, overwrite=True),
                                   np.eye(n, order="F"), overwrite_b=True,
                                   check_finite=False)
        # x is column-major and the rows row-major; copied a block of
        # whole columns at a time, a block's lines stay cached while each
        # row takes its part
        cols = _block_rows(n)
        for c0 in range(0, n, cols):
            self.inv[:, c0: c0 + cols] = x[:, c0: c0 + cols]
        self.refreshes += 1

    # -- products ------------------------------------------------------

    def apply(self, v: np.ndarray) -> np.ndarray:
        """(M + alpha I)^{-1} v."""
        return self.inv @ np.asarray(v, dtype=np.float64)

    # -- bookkeeping ---------------------------------------------------

    def audit(self, gram: np.ndarray) -> float:
        """Max-abs deviation of inv·(M + alpha I) from the identity, for M
        the matrix `gram` the appends grew. `gram` is shifted in place and
        the deviation formed in row blocks of at most APPEND_BLOCK_BYTES,
        so the audit holds no n×n buffer besides it."""
        n = self.order
        if n == 0:
            return 0.0
        gram.flat[:: n + 1] += self.alpha
        rows = max(1, APPEND_BLOCK_BYTES // (8 * n))
        worst = 0.0
        for r0 in range(0, n, rows):
            resid = self.inv[r0: r0 + rows] @ gram
            resid.flat[r0:: n + 1] -= 1.0  # the block's part of the diagonal
            worst = max(worst, float(np.max(np.abs(resid, out=resid))))
        return worst


# ---------------------------------------------------------------------------
# incrementally grown Cholesky factor
# ---------------------------------------------------------------------------

class RegularizedFactor:
    """Maintained lower Cholesky factor L of M + alpha I, for a PSD matrix
    M grown by appending one row/column at a time.

    The same contract as `RegularizedInverse` for the owner (`append`,
    `schur_complement`, `audit(gram)`), without `apply`, since the factor
    serves Schur scores, not products, and without `refresh`, since its
    appends do not drift (see the module docstring). L's rows are packed
    one after another in one flat buffer, row r from offset r(r+1)/2, so
    an append writes its n + 1 entries at the end and moves nothing; the
    buffer doubles when full. Read as columns, the same entries are Lᵀ
    packed upper, a layout BLAS `tpsv` solves with as it is, uncopied.
    """

    def __init__(self, alpha: float):
        if not 0 < alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        self.alpha = float(alpha)
        self.order = 0
        self._ap = np.zeros(16 * 17 // 2)  # L's packed rows (room for 16), then spare

    def schur_complement(self, cross: np.ndarray, diag: float) -> tuple[float, np.ndarray]:
        """Schur complement diag + alpha - |L⁻¹cross|² of the would-be
        appended row/column, and the solve L⁻¹·cross (what `append` takes
        as `product`). `cross` is not checked for NaN/Inf: such an entry
        gives a NaN complement."""
        n = self.order
        cross = _border(cross, n)
        lc = (dtpsv(n, self._ap[: n * (n + 1) // 2], cross, lower=0, trans=1)
              if n else np.zeros(0))
        return float(diag) + self.alpha - float(lc @ lc), lc

    def append(self, cross: np.ndarray, diag: float, product: np.ndarray) -> None:
        """Grow M by one row/column (border `cross`, corner `diag`): L
        gains the row [l, √s], with l = L⁻¹cross, which `product` stands
        for, as `schur_complement` returns it, and s = diag + alpha - |l|².
        An s that fails `schur_ok` (as a NaN/Inf border's product does)
        raises SchurNotPositive and leaves the factor as it was."""
        _border(cross, self.order)
        n = self.order
        lc = np.asarray(product, dtype=np.float64)
        if lc.shape != (n,):
            raise ValueError(f"product has shape {lc.shape}, expected ({n},)")
        diag = float(diag)
        s = diag + self.alpha - float(lc @ lc)
        if not schur_ok(s, diag, self.alpha):
            raise SchurNotPositive(
                f"schur complement {s:.3e} below tolerance at order {n}")
        start = n * (n + 1) // 2
        if start + n + 1 > self._ap.shape[0]:
            self._ap = grown(self._ap, start + n + 1, start)
        self._ap[start: start + n] = lc
        self._ap[start + n] = np.sqrt(s)
        self.order = n + 1

    def audit(self, gram: np.ndarray) -> float:
        """Max-abs deviation of (LLᵀ)⁻¹(M + alpha I) from the identity, for
        M the matrix `gram` the appends grew: the measure of
        `RegularizedInverse.audit`. `gram`, symmetric, is consumed
        as the solve's work space, so the audit holds one n×n buffer, L,
        besides it."""
        n = self.order
        if n == 0:
            return 0.0
        L = np.zeros((n, n))
        for r in range(n):
            L[r, : r + 1] = self._ap[r * (r + 1) // 2: (r + 1) * (r + 2) // 2]
        shifted = gram.T  # M itself, in Fortran order
        shifted.flat[:: n + 1] += self.alpha
        resid = scipy.linalg.cho_solve((L, True), shifted, overwrite_b=True,
                                       check_finite=False)
        resid.flat[:: n + 1] -= 1.0
        return float(np.max(np.abs(resid, out=resid)))
