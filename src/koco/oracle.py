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

from . import losses
from .errors import NoProgress, NotPositiveDefinite
from .kons import KonsConfig, eta_at
from .linalg import psd_solve, sym_eigvals
from .losses import CurvatureProfile, LossEvent, clip_to_interval, loss_derivative


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


def regret_bound(K: np.ndarray, norm_sq: float, alpha: float,
                 profile: CurvatureProfile, floor: float = 1.0) -> float:
    """Curved-loss regret bound of a fixed-sigma run on a stream with gram
    K against a comparator of squared norm `norm_sq`: alpha * norm_sq +
    2 d_eff log(2 sigma L^2 T) / (sigma * floor), d_eff taken at
    alpha / (sigma L^2), sigma the run's stepsize constant (at most the
    loss's curvature); `floor` bounds the acceptance probabilities."""
    sigma, L = profile.sigma, profile.lipschitz
    T = K.shape[0]
    d_eff = effective_dimension(K, alpha / (sigma * L * L))
    return float(alpha * norm_sq
                 + 2.0 * d_eff * np.log(2.0 * sigma * L * L * T) / (sigma * floor))


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


def best_comparator(K: np.ndarray, events: list[LossEvent], C: float,
                    restarts: int = 3, iters: int = 5000) -> ComparatorResult:
    """Best fixed function in the clipped class, fit offline.

    Projected subgradient descent over representer coefficients `a`
    minimizing the stream loss of predictions K a subject to the
    feasibility constraint max |K a| <= C. Feasibility is restored by
    rescaling the coefficients whenever predictions overflow the
    interval (the feasible set is convex and contains the origin, so
    radial rescaling is a valid projection surrogate). The first
    `restarts` (1 to 3) of three deterministic starts run as rows of one
    coefficient matrix A: the origin, then the feasibility-rescaled ridge
    fits of the targets (labels for classification) at 1e-3 and 1.0. The
    best feasible iterate seen anywhere is returned. Any feasible output
    only loosens measured regret, never invalidates a bound check. Every
    event must carry the same loss family.

    A step moves A by a multiple of D K (D the loss derivatives), so A
    stays c⊙A0 + B K: A0 the starts, c each restart's product of rescale
    factors, B its summed scaled steps. An iteration updates B and the
    predictions P = A K by one product D (K K), with K K held as one
    more T×T buffer; coefficients are formed only for the returned
    iterate.
    """
    if not 1 <= restarts <= 3:
        raise ValueError(f"restarts must lie in [1, 3], got {restarts}")
    K = np.asarray(K, dtype=np.float64)
    T = K.shape[0]
    if T != len(events):
        raise ValueError("kernel matrix and event list disagree on length")
    families = sorted({ev.family for ev in events})
    if len(families) > 1:
        raise ValueError(f"stream mixes loss families {families}")
    family = families[0] if families else losses.SQUARED
    targ = np.array([ev.target for ev in events])
    A0 = np.zeros((restarts, T))
    for j, ridge in enumerate((1e-3, 1.0)[: restarts - 1]):
        A0[j + 1] = psd_solve(K, ridge, targ)
    K2 = K @ K
    P0 = A0 @ K
    c = np.ones(restarts)
    B = np.zeros((restarts, T))

    def rescale(P):
        # radial feasibility restore; exact on P since P is linear in A.
        # A factor of 1.0 changes no bits, so a pass with no overflow skips it
        mag = np.abs(P)
        if mag.max() > C:
            over = mag.max(axis=1)
            scale = np.where(over > C, C / np.maximum(over, 1e-300), 1.0)
            c[:] *= scale
            B[:] *= scale[:, None]
            P *= scale[:, None]

    P = P0.copy()
    rescale(P)

    # size steps by their prediction-space response so ill-conditioned
    # grams neither stall nor blow past the feasible slab
    resp = np.abs(losses.derivative(family, targ, P) @ K2).max(axis=1)
    step0 = 0.5 * C / np.maximum(resp, 1e-12)
    steps = step0 / np.sqrt(np.arange(1, iters + 1))[:, None]

    best_obj, best = np.inf, None
    for k in range(iters + 1):
        if k:
            SD = steps[k - 1][:, None] * losses.derivative(family, targ, P)
            B -= SD
            # predictions follow linearly; resync from c and B now and then
            # to stop the incremental update from drifting
            P -= SD @ K2
            if k % 500 == 0 or k == iters:
                P = c[:, None] * P0 + B @ K2
            rescale(P)
        obj = losses.value(family, targ, P).sum(axis=1)
        i = int(obj.argmin())
        if obj[i] < best_obj:
            best_obj, best = float(obj[i]), (i, c[i], B[i].copy(), P[i].copy())
    if not np.isfinite(best_obj):
        raise NoProgress("comparator objective is not finite on this stream")
    i, ci, bi, best_p = best
    best_a = ci * A0[i] + K @ bi
    return ComparatorResult(coeffs=best_a, preds=best_p, total_loss=best_obj,
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

