"""Streaming kernel row sampling driven by online ridge-leverage scores.

The sampler keeps a dictionary of (round, weight) pairs. Each round the
incoming point is scored against the dictionary augmented with itself at
weight one, the score is inflated by (1+eps) so it over-estimates the
true leverage, and a Bernoulli coin with probability min(beta*score, 1)
decides whether the point joins the dictionary with importance weight
1/probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchurNotPositive
from .kernels import KernelSpec, cross_vector
from .linalg import SCHUR_RTOL, RegularizedInverse, grown
from .rng import bernoulli, named_rng


@dataclass(frozen=True)
class KorsConfig:
    alpha: float
    epsilon: float
    beta: float
    delta: float
    rng_seed: int = 0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")

    @property
    def rho(self) -> float:
        """Over/under-estimation ratio (1+eps)/(1-eps)."""
        if self.epsilon >= 1.0:
            return np.inf
        return (1.0 + self.epsilon) / (1.0 - self.epsilon)


def required_budget(horizon: int, delta: float, epsilon: float) -> float:
    """Smallest budget for which the sampler's guarantees are asserted."""
    if not (0.0 < epsilon <= 1.0 and 0.0 < delta < 1.0):
        raise ValueError("epsilon must lie in (0, 1] and delta in (0, 1)")
    return 3.0 * np.log(horizon / delta) / epsilon**2


def dict_size_bound(cfg: KorsConfig, d_onl: float) -> float:
    """High-probability cap on the dictionary size given the online dimension."""
    return 3.0 * cfg.rho * cfg.beta * d_onl / cfg.epsilon**2


@dataclass
class KorsStep:
    tau_tilde: float
    p_tilde: float
    accepted: int
    size: int


class Dictionary:
    """Sampler state: the members' stream rounds, admission probabilities
    and kernel data in grown arrays, and the weighted selection inverse."""

    def __init__(self, alpha: float):
        self.sub_inv = RegularizedInverse(alpha)
        self._n = 0
        self._pts = np.zeros((16, 0))  # (cap, dim); sized on the first member
        self._d = np.zeros(16)
        self._sw = np.zeros(16)
        self._r = np.zeros(16, dtype=np.intp)
        self._p = np.zeros(16)

    def __len__(self):
        return self._n

    @property
    def points(self) -> np.ndarray:
        return self._pts[: self._n]

    @property
    def d_scale(self) -> np.ndarray:
        return self._d[: self._n]

    @property
    def sweights(self) -> np.ndarray:
        """Selection-matrix diagonal entries 1/sqrt(prob)."""
        return self._sw[: self._n]

    @property
    def rounds(self) -> np.ndarray:
        """1-based stream round of each member."""
        return self._r[: self._n]

    @property
    def probs(self) -> np.ndarray:
        """Acceptance probability of each member at its admission."""
        return self._p[: self._n]

    def add(self, x: np.ndarray, d_t: float, index: int, prob: float) -> None:
        n = self._n
        if n == 0:
            self._pts = np.zeros((16, x.shape[0]))
        self._pts = grown(self._pts, n + 1, n)
        self._d = grown(self._d, n + 1, n)
        self._sw = grown(self._sw, n + 1, n)
        self._r = grown(self._r, n + 1, n)
        self._p = grown(self._p, n + 1, n)
        self._pts[n] = x
        self._d[n] = d_t
        self._sw[n] = np.sqrt(1.0 / prob)
        self._r[n] = index
        self._p[n] = prob
        self._n = n + 1


class KorsSampler:
    """Online row sampler over a (possibly gradient-rescaled) kernel stream.

    `d_t` below is the per-round rescale factor of the feature (1 for a
    plain kernel stream); kernel evaluations only ever touch dictionary
    members, so a step costs O(size^2).
    """

    def __init__(self, kernel: KernelSpec, cfg: KorsConfig):
        self.kernel = kernel
        self.cfg = cfg
        self.dict = Dictionary(cfg.alpha)
        self._rng = named_rng(cfg.rng_seed, "kors-coins")
        self._rounds = 0  # points scored so far

    @property
    def size(self) -> int:
        return len(self.dict)

    def _member_column(self, x: np.ndarray, d_t: float) -> np.ndarray:
        """Weighted rescaled kernel column of x against the members."""
        if not len(self.dict):
            return np.zeros(0)
        ks = cross_vector(self.kernel, self.dict.points, x)
        return ks * self.dict.d_scale * d_t * self.dict.sweights

    def step(self, x, d_t: float = 1.0, index: int | None = None) -> KorsStep:
        """Score one stream point, flip its coin, and admit it on success.

        The score (1+eps)(1 - alpha/s) over-estimates the leverage of x
        against dictionary-plus-self; s is the Schur complement of the
        self column appended at weight one, so the bordered block is
        never materialized. The coin has probability p = min(beta *
        score, 1), and an admitted point enters with weight 1/p. `index`
        (default: the count of points scored) is its recorded round.
        """
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if not np.isfinite(x).all():
            raise ValueError(f"round {self._rounds + 1}: point contains NaN/Inf")
        self._rounds += 1
        cross = self._member_column(x, d_t)
        kdiag = d_t * d_t  # k(x, x) = 1 for every kernel in koco.kernels
        s = self.dict.sub_inv.schur_complement(cross, kdiag)
        if s <= SCHUR_RTOL * (kdiag + self.cfg.alpha):
            raise SchurNotPositive(
                f"temporary member made the selection matrix singular (s={s:.3e})")
        tau = float(max((1.0 + self.cfg.epsilon) * (1.0 - self.cfg.alpha / s), 0.0))
        p = min(self.cfg.beta * tau, 1.0)
        z = bernoulli(self._rng, p)
        if z:
            w = 1.0 / p
            # fold the admission weight into the appended row/column
            # (no inv_cross: inv·(cross·√w) rounds unlike √w·(inv·cross))
            self.dict.sub_inv.append(cross * np.sqrt(w), kdiag * w)
            self.dict.add(x, d_t, self._rounds if index is None else index, p)
        return KorsStep(tau_tilde=tau, p_tilde=p, accepted=z, size=self.size)

    def selection_sq_weights(self, horizon: int) -> np.ndarray:
        """Squared selection weights over stream indices 1..horizon."""
        w = np.zeros(horizon)
        keep = self.dict.rounds <= horizon
        w[self.dict.rounds[keep] - 1] = 1.0 / self.dict.probs[keep]
        return w
