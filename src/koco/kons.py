"""Kernel online Newton-step learning: the shared core and the exact learner.

The learners never materialize feature-space weights. Each round they
predict from a coefficient vector b over past rounds and a maintained
regularized inverse of the gradient-rescaled gram matrix, then fold the
observed derivative into one new coefficient and, when the round's
column is selected, one appended row/column. `NewtonCore` holds all of
this; the exact learner `Kons` selects every column and the sketched
learner (`koco.skons`) selects by a sampler coin. The exact learner's
predictions provably coincide with the explicit-feature projected
Newton recursion, which the test suite checks against the oracle module
at every step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# eval_kernel is not called here (every kernel gives k(x, x) = 1); the name
# stays because perfbench's tracer hooks its kernels.diag layer on it
from .kernels import KernelSpec, cross_vector, eval_kernel  # noqa: F401
from .linalg import RegularizedInverse, grown
from .losses import LossEvent, clip_to_interval, loss_derivative, loss_value

ETA_FIXED_SIGMA = "fixed-sigma"
ETA_INVERSE_SQRT = "inverse-sqrt"

# q_t is positive in exact arithmetic but can underflow when many
# near-duplicate points arrive; floor it before dividing.
Q_FLOOR = 1e-12


@dataclass(frozen=True)
class KonsConfig:
    clip_c: float
    alpha: float
    eta_mode: str = ETA_FIXED_SIGMA
    sigma: float = 0.0
    lipschitz: float = 1.0

    def __post_init__(self):
        if self.clip_c <= 0:
            raise ValueError("clip_c must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.eta_mode not in (ETA_FIXED_SIGMA, ETA_INVERSE_SQRT):
            raise ValueError(f"unknown eta mode {self.eta_mode!r}")
        if self.eta_mode == ETA_FIXED_SIGMA and self.sigma <= 0:
            raise ValueError("fixed-sigma stepsizes require sigma > 0")
        if self.lipschitz <= 0:
            raise ValueError("lipschitz must be positive")


def eta_at(cfg: KonsConfig, t: int) -> float:
    """Stepsize of round t (1-based)."""
    if t < 1:
        raise ValueError("rounds are 1-based")
    if cfg.eta_mode == ETA_FIXED_SIGMA:
        return cfg.sigma
    return float(1.0 / (cfg.lipschitz * cfg.clip_c * np.sqrt(t)))


@dataclass
class StepRecord:
    """Per-round trace entry (shared by all learners)."""

    t: int
    ybar: float          # unclipped prediction
    yhat: float          # clipped prediction actually played
    loss: float
    gdot: float          # observed scalar derivative
    eta: float
    tau: float           # leverage of the round in the learner's preconditioner
    p_accept: float      # sampling probability (1 for exact learners)
    accepted: int        # coin outcome (1 for exact learners)
    dict_size: int       # preconditioner support size after the round
    rg_increment: float  # gradient-term regret increment of the round
    elapsed_us: float = 0.0


class NewtonCore:
    """Kernel Newton-step learner with clipped predictions, less its
    column-selection policy.

    One instance owns one stream; `step` is the driver path (predict,
    observe, and account in one call). Each round predicts from the dual
    coefficients b and the preconditioner, folds the observed derivative
    into one new coefficient, and offers the round's rescaled kernel
    column to the subclass's `_select`. That hook returns the record's
    (tau, p_accept, accepted) and calls `_admit` for a column that
    enters the preconditioner. The preconditioner covers the rounds in
    `selected`; kernel rows, b and the cached rescaled-gram @ b cover
    every round.
    """

    def __init__(self, kernel: KernelSpec, cfg, kons_cfg: KonsConfig):
        self.kernel = kernel
        self.cfg = cfg
        self.t = 0
        self.rg_total = 0.0
        self.records: list[StepRecord] = []
        self._kcfg = kons_cfg
        self._precond = RegularizedInverse(kons_cfg.alpha)
        self._pts = np.zeros((16, 0))  # (cap, dim); sized on the first round
        self._d = np.zeros(16)       # gdot_i * sqrt(eta_i)
        self._b = np.zeros(16)       # dual coefficients
        self._kbar_b = np.zeros(16)  # cached rescaled-gram @ b
        self._sel = np.zeros(16, dtype=np.intp)  # rounds in the preconditioner
        self._n_sel = 0

    # -- buffers ---------------------------------------------------------

    def _grow(self, n: int) -> None:
        t = self.t
        self._pts = grown(self._pts, n, t)
        self._d = grown(self._d, n, t)
        self._b = grown(self._b, n, t)
        self._kbar_b = grown(self._kbar_b, n, t)
        self._sel = grown(self._sel, n, self._n_sel)

    @property
    def points(self) -> np.ndarray:
        return self._pts[: self.t]

    @property
    def d_scale(self) -> np.ndarray:
        return self._d[: self.t]

    @property
    def b(self) -> np.ndarray:
        return self._b[: self.t]

    @property
    def kbar_b(self) -> np.ndarray:
        return self._kbar_b[: self.t]

    @property
    def selected(self) -> np.ndarray:
        """0-based rounds whose column is in the preconditioner."""
        return self._sel[: self._n_sel]

    def _cols(self, v: np.ndarray) -> np.ndarray:
        """v restricted to the preconditioner's rounds."""
        # selected rounds are distinct and increasing, so t of them are
        # 0..t-1 and v is its own restriction
        if self._n_sel == self.t:
            return v
        return v[self.selected]

    # -- prediction ------------------------------------------------------

    def predict(self, x) -> tuple[float, float]:
        """(unclipped, clipped) prediction for input x; state untouched."""
        return self._predict(self._cross(x))

    def _cross(self, x) -> np.ndarray:
        if self.t == 0:
            return np.zeros(0)
        return cross_vector(self.kernel, self.points, x)

    def _predict(self, k: np.ndarray) -> tuple[float, float]:
        if self.t == 0:
            return 0.0, 0.0
        kd = k * self.d_scale
        corr = self._cols(kd) @ self._precond.apply(self._cols(self.kbar_b))
        ybar = (float(kd @ self.b) - float(corr)) / self._kcfg.alpha
        return ybar, clip_to_interval(ybar, self._kcfg.clip_c)

    # -- update ----------------------------------------------------------

    def step(self, x, ev: LossEvent) -> StepRecord:
        """Predict on x, incur the loss of ev, and absorb its derivative."""
        tic = time.perf_counter_ns()
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        t_new = self.t + 1
        if not np.isfinite(x).all():
            raise ValueError(f"round {t_new}: point contains NaN/Inf")
        k = self._cross(x)
        ybar, yhat = self._predict(k)

        cfg = self._kcfg
        eta = eta_at(cfg, t_new)
        gdot = loss_derivative(ev, yhat)
        d_t = gdot * float(np.sqrt(eta))

        # rescaled kernel row of the new point (zero row when gdot == 0,
        # which leaves the preconditioner untouched, as it must); every
        # kernel in koco.kernels has k(x, x) = 1, so the corner is d_t^2
        kc = k * self.d_scale * d_t
        kdiag = d_t * d_t
        w = self._cols(kc)
        u = self._precond.apply(w)
        q_raw = (kdiag - float(w @ u)) / cfg.alpha
        q = max(q_raw, Q_FLOOR)
        b_t = d_t * yhat - d_t * (ybar - yhat) / q - 1.0 / np.sqrt(eta)

        if self.t == 0:
            self._pts = np.zeros((16, x.shape[0]))
        self._grow(t_new)
        tau, p_accept, accepted = self._select(x, d_t, w, u, kdiag, q_raw)

        self._pts[self.t] = x
        self._d[self.t] = d_t
        self._b[self.t] = b_t
        self._kbar_b[: self.t] += kc * b_t
        self._kbar_b[self.t] = float(kc @ self.b) + kdiag * b_t
        self.t = t_new

        # leverage of the round in its own (post-update) preconditioner:
        # the bordered corner gives q/(1+q) when its column entered, and
        # q is the leverage against the preconditioner otherwise
        q_pos = max(q_raw, 0.0)
        rg_inc = (q_pos / (1.0 + q_pos) if accepted else q_pos) / eta
        self.rg_total += rg_inc

        rec = StepRecord(t=t_new, ybar=ybar, yhat=yhat,
                         loss=loss_value(ev, yhat), gdot=gdot, eta=eta,
                         tau=tau, p_accept=p_accept, accepted=accepted,
                         dict_size=self._n_sel, rg_increment=rg_inc)
        rec.elapsed_us = (time.perf_counter_ns() - tic) / 1e3
        self.records.append(rec)
        return rec

    def _select(self, x: np.ndarray, d_t: float, w: np.ndarray, u: np.ndarray,
                kdiag: float, q_raw: float) -> tuple[float, float, int]:
        """(tau, p_accept, accepted) of the round whose restricted column
        is w, with preconditioner product u, and corner kdiag; admits the
        column when it is accepted."""
        raise NotImplementedError

    def _admit(self, w: np.ndarray, u: np.ndarray, kdiag: float) -> None:
        self._precond.append(w, kdiag, inv_cross=u)
        self._sel[self._n_sel] = self.t
        self._n_sel += 1


class Kons(NewtonCore):
    """Exact second-order kernel online learner with clipped predictions.

    Every round's column enters the preconditioner, so state grows by
    one rescaled kernel row per round and round t costs O(t^2) time.
    """

    def __init__(self, kernel: KernelSpec, cfg: KonsConfig):
        super().__init__(kernel, cfg, cfg)

    @property
    def reg_inv(self) -> RegularizedInverse:
        return self._precond

    def _select(self, x, d_t, w, u, kdiag, q_raw):
        # a singular append raises SchurNotPositive and aborts the round
        self._admit(w, u, kdiag)
        q_pos = max(q_raw, 0.0)
        return q_pos / (1.0 + q_pos), 1.0, 1

    # -- audits ----------------------------------------------------------

    def audit_cache(self) -> float:
        """Max-abs deviation of the cached gram@b vector from scratch."""
        if self.t == 0:
            return 0.0
        return float(np.max(np.abs(self.reg_inv.mat @ self.b - self.kbar_b)))


# ---------------------------------------------------------------------------
# regret accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegretReport:
    r_t: float  # cumulative loss minus comparator loss
    r_g: float  # gradient (leverage) term
    r_d: float  # stepsize-excess term


def regret_report(records: list[StepRecord], comparator,
                  sigma_t: float) -> RegretReport:
    """Measured regret decomposition of a finished run.

    `comparator` supplies the per-point predictions and total loss of
    the best fixed clipped function; `sigma_t` is the curvature
    constant of the loss family on the run's interval.
    """
    if len(records) != len(comparator.preds):
        raise ValueError("trace and comparator cover different horizons")
    r_t = float(sum(r.loss for r in records) - comparator.total_loss)
    r_g = float(sum(r.rg_increment for r in records))
    r_d = float(sum((r.eta - sigma_t) * r.gdot**2 * (r.yhat - comparator.preds[i]) ** 2
                    for i, r in enumerate(records)))
    return RegretReport(r_t=r_t, r_g=r_g, r_d=r_d)
