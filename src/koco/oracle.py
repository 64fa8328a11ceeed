"""Ground-truth computations used by tests and regret accounting.

Everything here is offline and O(T^3)-tolerant: these routines exist to
check the fast incremental paths, not to be fast themselves. Each one
works directly from dense kernel matrices or explicit feature vectors
through library factorizations, independently of the learners' grown
inverses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import expit

from .errors import NoProgress, NotPositiveDefinite
from .kons import KonsConfig, eta_at
from .linalg import psd_solve, sym_eigvals
from .losses import LossEvent, clip_to_interval, loss_derivative
from .rng import named_rng


# ---------------------------------------------------------------------------
# leverage scores and effective dimensions
# ---------------------------------------------------------------------------

def exact_rls(K: np.ndarray, alpha: float) -> np.ndarray:
    """Ridge leverage score of every point: diag of K (K + alpha I)^{-1}."""
    K = np.asarray(K, dtype=np.float64)
    if K.shape[0] == 0:
        return np.zeros(0)
    return np.diag(K @ psd_solve(K, alpha, np.eye(K.shape[0]))).copy()


def effective_dimension(K: np.ndarray, alpha: float) -> float:
    """Trace of K (K + alpha I)^{-1}, i.e. sum of lambda_i/(lambda_i + alpha)."""
    K = np.asarray(K, dtype=np.float64)
    if K.shape[0] == 0:
        return 0.0
    lam = sym_eigvals(K)
    return float(np.sum(lam / (lam + alpha)))


def prefix_rls(K: np.ndarray, alpha: float) -> np.ndarray:
    """Self leverage of each point within its own prefix gram matrix.

    Entry t is the leverage of point t among points 1..t. Computed from
    one Cholesky of K + alpha I: the leading t×t block of the factor L
    factors the t-th leading submatrix, and forward substitution gives
    [(K_t + alpha I)^{-1}]_{tt} = 1/L[t,t]^2, hence the self leverage
    1 - alpha/L[t,t]^2.
    """
    K = np.asarray(K, dtype=np.float64)
    n = K.shape[0]
    if n == 0:
        return np.zeros(0)
    try:
        L = scipy.linalg.cholesky(K + alpha * np.eye(n), lower=True,
                                  check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"prefix factorization failed: {exc}") from exc
    return 1.0 - alpha / np.diag(L) ** 2


def online_effective_dimension(K: np.ndarray, alpha: float) -> float:
    """Sum over rounds of each point's leverage within its own prefix."""
    return float(np.sum(prefix_rls(K, alpha)))


def logdet_chain(Kbar: np.ndarray, alpha: float) -> tuple[float, float, float]:
    """(d_onl, logdet, upper) of the online-dimension chain:
    d_onl <= log det(Kbar/alpha + I) <= d_eff * (1 + log(||Kbar||/alpha + 1)).
    """
    Kbar = np.asarray(Kbar, dtype=np.float64)
    if Kbar.shape[0] == 0:
        return 0.0, 0.0, 0.0
    lam = np.maximum(sym_eigvals(Kbar), 0.0)
    d_onl = online_effective_dimension(Kbar, alpha)
    logdet = float(np.sum(np.log1p(lam / alpha)))
    d_eff = float(np.sum(lam / (lam + alpha)))
    upper = d_eff * (1.0 + np.log(lam[-1] / alpha + 1.0))
    return d_onl, logdet, float(upper)


# ---------------------------------------------------------------------------
# explicit-feature online Newton step (the master oracle for the kernel path)
# ---------------------------------------------------------------------------

def primal_ons(features: np.ndarray, events: list[LossEvent],
               cfg: KonsConfig) -> np.ndarray:
    """Predictions of the explicit-feature Newton-step learner.

    Runs the projected second-order recursion with a dense d×d inverse
    preconditioner maintained by rank-one updates; the feasible set is
    the clipped-prediction slab, so the oblique projection reduces to a
    one-dimensional correction along the preconditioned feature.
    """
    X = np.asarray(features, dtype=np.float64)
    T, d = X.shape
    C = cfg.clip_c
    Ainv = np.eye(d) / cfg.alpha
    w = np.zeros(d)
    g_prev = np.zeros(d)
    preds = np.zeros(T)
    for t in range(T):
        phi = X[t]
        u = w - Ainv @ g_prev
        ybar = float(phi @ u)
        yhat = clip_to_interval(ybar, C)
        preds[t] = yhat
        excess = ybar - yhat
        if excess != 0.0:
            Aphi = Ainv @ phi
            w = u - (excess / float(phi @ Aphi)) * Aphi
        else:
            w = u
        gdot = loss_derivative(events[t], yhat)
        eta = eta_at(cfg, t + 1)
        g_prev = gdot * phi
        if gdot != 0.0:
            Ag = Ainv @ g_prev
            denom = 1.0 + eta * float(g_prev @ Ag)
            Ainv = Ainv - np.outer(Ag, Ag) * (eta / denom)
    return preds


# ---------------------------------------------------------------------------
# offline comparator over the clipped function class
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparatorResult:
    coeffs: np.ndarray    # representer coefficients over the full stream
    preds: np.ndarray     # fitted predictions, feasible (|pred| <= C)
    total_loss: float
    norm_sq: float        # coeffs' K coeffs


class _StreamLoss:
    """Vectorized total loss / derivative of a whole stream, column-wise
    over a matrix of candidate prediction columns."""

    def __init__(self, events):
        fams = np.array([ev.family for ev in events])
        self.targ = np.array([ev.target for ev in events])
        self.sq = fams == "squared"
        self.lg = fams == "logistic"
        self.sh = fams == "squared-hinge"

    def objective(self, P: np.ndarray) -> np.ndarray:
        total = np.zeros(P.shape[1])
        if self.sq.any():
            total += np.sum((self.targ[self.sq, None] - P[self.sq]) ** 2, axis=0)
        if self.lg.any():
            total += np.sum(np.logaddexp(0.0, -self.targ[self.lg, None] * P[self.lg]), axis=0)
        if self.sh.any():
            total += np.sum(np.maximum(0.0, 1.0 - self.targ[self.sh, None] * P[self.sh]) ** 2, axis=0)
        return total

    def derivatives(self, P: np.ndarray) -> np.ndarray:
        out = np.zeros_like(P)
        if self.sq.any():
            out[self.sq] = 2.0 * (P[self.sq] - self.targ[self.sq, None])
        if self.lg.any():
            y = self.targ[self.lg, None]
            out[self.lg] = -y * expit(-y * P[self.lg])
        if self.sh.any():
            y = self.targ[self.sh, None]
            out[self.sh] = -2.0 * y * np.maximum(0.0, 1.0 - y * P[self.sh])
        return out


def best_comparator(K: np.ndarray, events: list[LossEvent], C: float,
                    restarts: int = 10, iters: int = 5000,
                    seed: int = 0) -> ComparatorResult:
    """Best fixed function in the clipped class, fit offline.

    Projected subgradient descent over representer coefficients `a`
    minimizing the stream loss of predictions K a subject to the
    feasibility constraint max |K a| <= C. Feasibility is restored by
    rescaling the coefficients whenever predictions overflow the
    interval (the feasible set is convex and contains the origin, so
    radial rescaling is a valid projection surrogate). All restarts run
    as columns of one coefficient matrix; the best feasible iterate
    seen anywhere is returned. Any feasible output only loosens
    measured regret, never invalidates a bound check.
    """
    K = np.asarray(K, dtype=np.float64)
    T = K.shape[0]
    if T != len(events):
        raise ValueError("kernel matrix and event list disagree on length")
    loss = _StreamLoss(events)
    rng = named_rng(seed, "comparator-restarts")
    A = np.zeros((T, restarts))
    # two restarts warm-start at feasibility-rescaled ridge fits of the
    # targets (labels for classification), the rest perturb the origin
    for j, ridge in enumerate((1e-3, 1.0)):
        if j + 1 < restarts:
            A[:, j + 1] = psd_solve(K, ridge, loss.targ)
    if restarts > 3:
        A[:, 3:] = rng.normal(scale=0.1 / max(T, 1), size=(T, restarts - 3))

    def rescale(A, P):
        # radial feasibility restore; exact on P since P is linear in A
        over = np.max(np.abs(P), axis=0)
        scale = np.where(over > C, C / np.maximum(over, 1e-300), 1.0)
        A *= scale
        P *= scale

    P = K @ A
    rescale(A, P)
    obj = loss.objective(P)
    best_obj = np.inf
    best_a = np.zeros(T)
    best_p = np.zeros(T)

    # size steps by their prediction-space response so ill-conditioned
    # grams neither stall nor blow past the feasible slab
    g0 = K @ loss.derivatives(P)
    resp = np.max(np.abs(K @ g0), axis=0)
    step0 = 0.5 * C / np.maximum(resp, 1e-12)

    for k in range(1, iters + 1):
        i = int(np.argmin(obj))
        if obj[i] < best_obj:
            best_obj = float(obj[i])
            best_a = A[:, i].copy()
            best_p = P[:, i].copy()
        G = K @ loss.derivatives(P)
        step = step0 / np.sqrt(k)
        A -= step * G
        # predictions follow linearly; resync from A now and then to stop
        # the incremental update from drifting
        P -= step * (K @ G)
        if k % 500 == 0:
            P = K @ A
        rescale(A, P)
        obj = loss.objective(P)

    P = K @ A
    obj = loss.objective(P)
    i = int(np.argmin(obj))
    if obj[i] < best_obj:
        best_obj = float(obj[i])
        best_a = A[:, i].copy()
        best_p = P[:, i].copy()
    if not np.isfinite(best_obj):
        raise NoProgress("comparator objective is not finite on this stream")
    return ComparatorResult(coeffs=best_a, preds=best_p,
                            total_loss=best_obj,
                            norm_sq=float(best_a @ (K @ best_a)))


# ---------------------------------------------------------------------------
# spectral audits in the dual (stream-indexed) representation
# ---------------------------------------------------------------------------

def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root (negative roundoff eigenvalues clipped)."""
    M = np.asarray(M, dtype=np.float64)
    lam, U = np.linalg.eigh(M)
    lam = np.maximum(lam, 0.0)
    return (U * np.sqrt(lam)) @ U.T


def dual_preconditioner(Kbar: np.ndarray, sq_weights: np.ndarray,
                        alpha: float) -> np.ndarray:
    """Dual form of a (possibly sketched) preconditioner.

    `sq_weights[i]` is the squared selection weight of stream index i
    (0 if dropped, 1 if kept unweighted, 1/p if kept with importance
    weight). Returns Kbar^{1/2} diag(sq_weights) Kbar^{1/2} + alpha I,
    whose generalized eigenvalues against Kbar + alpha I equal those of
    the feature-space pair on the span of the data.
    """
    Kbar = np.asarray(Kbar, dtype=np.float64)
    n = Kbar.shape[0]
    R = psd_sqrt(Kbar)
    return R @ (sq_weights[:, None] * R) + alpha * np.eye(n)


def spectral_audit(A_exact_dual: np.ndarray,
                   A_sketch_dual: np.ndarray) -> tuple[float, float]:
    """Extreme generalized eigenvalues of the sketch against the exact matrix."""
    A_exact_dual = np.asarray(A_exact_dual, dtype=np.float64)
    A_sketch_dual = np.asarray(A_sketch_dual, dtype=np.float64)
    vals = scipy.linalg.eigh(A_sketch_dual, A_exact_dual, eigvals_only=True,
                             check_finite=False)
    return float(vals[0]), float(vals[-1])

