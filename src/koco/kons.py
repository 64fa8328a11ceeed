"""Kernel online Newton-step learning: the shared core and the exact learner.

The learners never materialize feature-space weights. Each round they
predict from a coefficient vector b over past rounds and a maintained
regularized inverse of the gradient-rescaled gram matrix, then fold the
observed derivative into one new coefficient and, when the round's
column is selected and nonzero, one appended row/column. `NewtonCore`
holds all of this, admission included, and by default selects every
column: the exact learner `Kons`; the sketched learner (`koco.skons`)
selects by a sampler coin. The exact learner's predictions provably
coincide with the explicit-feature projected Newton recursion, which the
test suite checks against the oracle module at every step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import NonFinitePrediction, SchurNotPositive
# eval_kernel is not called here (every kernel gives k(x, x) = 1); the name
# stays because perfbench's tracer hooks its kernels.diag layer on it
from .kernels import (GAUSSIAN, KernelSpec, _self_terms, cross_vector,  # noqa: F401
                      eval_kernel, rescaled_gram)
from .kors import Dictionary, Rounds
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
        if not 0 < self.clip_c < np.inf:
            raise ValueError("clip_c must be positive and finite")
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        if self.eta_mode not in (ETA_FIXED_SIGMA, ETA_INVERSE_SQRT):
            raise ValueError(f"unknown eta mode {self.eta_mode!r}")
        if self.eta_mode == ETA_FIXED_SIGMA and not self.sigma > 0:
            raise ValueError("fixed-sigma stepsizes require sigma > 0")
        if not 0 <= self.sigma < np.inf:  # also under inverse-sqrt, which does not read it
            raise ValueError("sigma must be nonnegative and finite")
        if not 0 < self.lipschitz < np.inf:
            raise ValueError("lipschitz must be positive and finite")


def eta_at(cfg: KonsConfig, t: int) -> float:
    """Stepsize of round t (1-based)."""
    if t < 1:
        raise ValueError("rounds are 1-based")
    if cfg.eta_mode == ETA_FIXED_SIGMA:
        return cfg.sigma
    return float(1.0 / (cfg.lipschitz * cfg.clip_c * math.sqrt(t)))


@dataclass(slots=True)
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
    accepted: int        # coin outcome, 0 if demoted (else 1 for exact learners)
    dict_size: int       # preconditioner support size after the round
    rg_increment: float  # gradient-term regret increment of the round
    elapsed_us: float = 0.0


class NewtonCore:
    """Kernel Newton-step learner with clipped predictions.

    One instance owns one stream; `step` is the driver path (predict,
    observe, and account in one call). Each round predicts from the dual
    coefficients b and the preconditioner, folds the observed derivative
    into one new coefficient, writes the round, and offers its rescaled
    kernel column to `_select`. The hook decides, the core admits:
    `_select` returns the record's (tau, p_accept, accepted), and the
    core appends an accepted column with a nonzero derivative (a zero one
    adds nothing; the record keeps its coin). A singular append demotes
    the round to rejected and counts it in `rejected_appends`; a dropped
    column costs regret, never correctness. The default `_select` accepts
    every column and records the round's own leverage, q/(1+q) if its
    column entered, q if it was demoted. The preconditioner is a
    `Dictionary`, `dict`, over a `RegularizedInverse`, since each round
    multiplies by the inverse; its members are admitted rounds at
    probability 1, whose points and rescale factors it reads from
    `rounds`, the core's one copy of each round, as an embedded sampler's
    store does; every REFRESH_EVERY columns it refreshes its inverse from
    their gram, built in the inverse's own rows, so a refresh holds one
    n×n temporary (`refreshes`, the only rebuilds a learner has).
    Kernel rows, b, the cached rescaled-gram @ b and `gram()` cover every
    round.
    """

    def __init__(self, kernel: KernelSpec, cfg, kons_cfg: KonsConfig):
        self.kernel = kernel
        self.cfg = cfg
        self.t = 0
        self.records: list[StepRecord] = []
        self._kcfg = kons_cfg
        self.rounds = Rounds()  # points, and d_i = gdot_i * sqrt(eta_i)
        self.dict = Dictionary(kernel, RegularizedInverse(kons_cfg.alpha), self.rounds)
        self._b = np.zeros(16)       # dual coefficients
        self._kbar_b = np.zeros(16)  # cached rescaled-gram @ b
        self._own = np.zeros(16)     # a cosine kernel's own term of each round
        self.q_floor_clamps = 0  # nonzero-derivative rounds whose q_t fell below Q_FLOOR
        self.rejected_appends = 0  # accepted columns demoted by a singular append

    # -- buffers ---------------------------------------------------------

    @property
    def b(self) -> np.ndarray:
        return self._b[: self.t]

    @property
    def kbar_b(self) -> np.ndarray:
        return self._kbar_b[: self.t]

    @property
    def refreshes(self) -> int:
        """Rebuilds of the preconditioner so far."""
        return self.dict.solver.refreshes

    # -- prediction ------------------------------------------------------

    def predict(self, x) -> tuple[float, float]:
        """(unclipped, clipped) prediction for input x; state untouched."""
        return self._predict(self._row(x))[:2]

    def _row(self, x) -> np.ndarray:
        """The round's kernel row over every past round, times their d."""
        return cross_vector(self.kernel, self.rounds.points, x,
                            h_self=self._own[: self.t]) * self.rounds.d_scale

    def _predict(self, kd: np.ndarray) -> tuple[float, float, np.ndarray]:
        """(unclipped, clipped) prediction from the row kd, and kd at the members."""
        members = self.dict.indices
        kd_m = kd[members]
        corr = kd_m @ self.dict.solver.apply(self._kbar_b[members])
        ybar = (float(kd @ self._b[: self.t]) - float(corr)) / self._kcfg.alpha
        return ybar, clip_to_interval(ybar, self._kcfg.clip_c), kd_m

    # -- update ----------------------------------------------------------

    def step(self, x, ev: LossEvent) -> StepRecord:
        """Predict on x, incur the loss of ev, and absorb its derivative."""
        tic = time.perf_counter_ns()
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        t_new = self.t + 1
        try:  # the point's one check, its NaN/Inf error named with the round
            kd = self._row(x)
        except ValueError as exc:
            raise ValueError(f"round {t_new}: {exc}") from None
        ybar, yhat, kd_m = self._predict(kd)
        if not math.isfinite(ybar):  # raised before the round changes any state
            raise NonFinitePrediction(f"round {t_new}: prediction is {ybar}; "
                                      "the preconditioner lost precision")

        cfg = self._kcfg
        eta = eta_at(cfg, t_new)
        gdot = loss_derivative(ev, yhat)
        d_t = gdot * math.sqrt(eta)

        # rescaled kernel row of the new point (zero row when gdot == 0);
        # every kernel in koco.kernels has k(x, x) = 1, so the corner is d_t^2
        kc = kd * d_t
        kdiag = d_t * d_t
        w = kd_m * d_t  # kc[members], bit for bit
        u = self.dict.solver.apply(w)
        q_raw = (kdiag - float(w @ u)) / cfg.alpha
        q = max(q_raw, Q_FLOOR)
        # a clamp counts where it changes b_t: at d_t = 0 the term
        # d_t * (ybar - yhat) / q below is 0 whatever q is
        self.q_floor_clamps += d_t != 0.0 and q_raw < Q_FLOOR
        b_t = d_t * yhat - d_t * (ybar - yhat) / q - 1.0 / math.sqrt(eta)

        t = self.t
        own = _self_terms(self.kernel, x[None])[0] if self.kernel.family != GAUSSIAN else 0.0
        self.rounds.append(x, d_t)
        if t == self._b.shape[0]:
            self._b = grown(self._b, t_new, t)
            self._kbar_b = grown(self._kbar_b, t_new, t)
            self._own = grown(self._own, t_new, t)
        self._own[t] = own  # a cosine kernel's own term, cached for every later row
        self._b[t] = b_t
        self._kbar_b[:t] += kc * b_t
        self._kbar_b[t] = float(kc @ self._b[:t]) + kdiag * b_t
        self.t = t_new

        # the round is written, so a refresh's gram holds it; a column with
        # d_t = 0 adds nothing to the preconditioner and gets no row
        tau, p_accept, accepted = self._select(x, d_t, kc)
        if accepted and d_t != 0.0:
            try:
                self.dict.admit(t, 1.0, w, kdiag, u)
            except SchurNotPositive:
                self.rejected_appends += 1
                accepted = 0

        # leverage of the round in its own (post-update) preconditioner:
        # q/(1+q) from the bordered corner if its column entered, else q
        q_pos = max(q_raw, 0.0)
        own = q_pos / (1.0 + q_pos) if accepted else q_pos

        rec = StepRecord(t=t_new, ybar=ybar, yhat=yhat,
                         loss=loss_value(ev, yhat), gdot=gdot, eta=eta,
                         tau=own if tau is None else tau, p_accept=p_accept,
                         accepted=accepted, dict_size=len(self.dict),
                         rg_increment=own / eta)
        rec.elapsed_us = (time.perf_counter_ns() - tic) / 1e3
        self.records.append(rec)
        return rec

    def _select(self, x: np.ndarray, d_t: float,
                kc: np.ndarray) -> tuple[float | None, float, int]:
        """(tau, p_accept, accepted) of the round at x, whose rescaled row
        over every past round is kc; a tau of None records the round's own
        leverage once the core has admitted or demoted its column. The
        default accepts every column."""
        return None, 1.0, 1

    # -- audits ----------------------------------------------------------

    def gram(self) -> np.ndarray:
        """The gradient-rescaled gram k(x_i, x_j)·d_i·d_j of every round so
        far, rebuilt from the points: below the diagonal, row t holds bit
        for bit the rescaled row `kc` that round t formed, and the matrix
        is its mirror."""
        return rescaled_gram(self.kernel, self.rounds.points, self.rounds.d_scale,
                             np.ones(self.t))

    def audit_cache(self) -> float:
        """Max-abs deviation of the cached gram@b vector from the gram of
        every round, rebuilt from scratch."""
        if self.t == 0:
            return 0.0
        return float(np.max(np.abs(self.gram() @ self.b - self.kbar_b)))


class Kons(NewtonCore):
    """Exact second-order kernel online learner with clipped predictions.

    The core's default policy: every column is selected, so the
    preconditioner gains a row each round with a nonzero derivative, and
    round t costs O(t + n^2) time after n such rounds. A singular append
    is demoted as for any learner.
    """

    def __init__(self, kernel: KernelSpec, cfg: KonsConfig):
        super().__init__(kernel, cfg, cfg)
