"""Streaming kernel row sampling driven by online ridge-leverage scores.

The sampler keeps a dictionary of (stream index, weight) pairs. Each
round the incoming point is scored against the dictionary augmented with
itself at weight one, the score is inflated by (1+eps) so it
over-estimates the true leverage, and a Bernoulli coin with probability
min(beta*score, 1) decides whether the point joins the dictionary with
importance weight 1/probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import KocoError
from .kernels import GAUSSIAN, KernelSpec, _finite_point, _self_terms, cross_vector, rescaled_gram
from .linalg import RegularizedFactor, grown, schur_ok
from .rng import bernoulli, named_rng


@dataclass(frozen=True)
class KorsConfig:
    alpha: float
    epsilon: float
    beta: float
    delta: float
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if not 0 < self.beta < np.inf:
            raise ValueError("beta must be positive and finite")
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


@dataclass(slots=True)
class KorsStep:
    tau_tilde: float
    p_tilde: float
    accepted: int
    size: int


class Dictionary:
    """A selected column set over its owner's rounds: the members' 0-based
    stream indices, admission probabilities p and selection weights in
    grown arrays, and `solver`, which solves with M + alpha I for their
    weighted rescaled gram M_ij = k(x_i, x_j)·d_i·d_j·√(1/p_i)·√(1/p_j)
    (1/p_j·d_j² on the diagonal). It holds no kernel, point or rescale
    factor: it reads them from `rounds`, which writes a round before
    admitting it. The solver is the caller's, empty: a
    `koco.linalg.RegularizedInverse` where M's inverse multiplies (the
    Newton-step learners' preconditioner, p = 1 for every member), a
    `koco.linalg.RegularizedFactor` where it only scores (the sampler's
    dictionary). The store rebuilds the solver from `gram()` when the
    solver's `append` says a rebuild is due, which only the inverse
    does."""

    def __init__(self, solver, rounds):
        self.solver = solver
        self.rounds = rounds
        self._n = 0
        self._sw = np.zeros(16)
        self._i = np.zeros(16, dtype=np.intp)
        self._p = np.zeros(16)

    def __len__(self):
        return self._n

    @property
    def sweights(self) -> np.ndarray:
        """Selection-matrix diagonal entries 1/sqrt(prob)."""
        return self._sw[: self._n]

    @property
    def indices(self) -> np.ndarray:
        """0-based stream index of each member, increasing."""
        return self._i[: self._n]

    @property
    def probs(self) -> np.ndarray:
        """Acceptance probability of each member at its admission."""
        return self._p[: self._n]

    def admit(self, index: int, prob: float, cross: np.ndarray, kdiag: float,
              product: np.ndarray) -> None:
        """Append the column of round `index` (its rescaled kernel column
        `cross` against the members, corner `kdiag`, and the solver's
        `product` for `cross`: inv·cross for an inverse, L⁻¹·cross for a
        factor) weighted by 1/prob, and record the member. A singular
        append raises SchurNotPositive and leaves the store as it was.
        When the append reports a rebuild due, the solver is then rebuilt
        from `gram()`, built in the inverse's own rows with the new member.

        The weight w = 1/prob scales the border by √w and the corner by
        w; the product scaled by √w stands for the product of cross·√w,
        which it equals up to rounding. At prob = 1 the scalings, by 1.0,
        would leave every bit, and are skipped."""
        w = 1.0 / prob
        sw = math.sqrt(w)
        due = (self.solver.append(cross, kdiag, product) if prob == 1.0 else
               self.solver.append(cross * sw, kdiag * w, product * sw))
        n = self._n
        if n == self._p.shape[0]:
            self._sw = grown(self._sw, n + 1, n)
            self._i = grown(self._i, n + 1, n)
            self._p = grown(self._p, n + 1, n)
        self._sw[n] = sw
        self._i[n] = index
        self._p[n] = prob
        self._n = n + 1
        if due:
            self.solver.refresh(self.gram(out=self.solver.inv))

    def gram(self, out=None) -> np.ndarray:
        """The matrix M the solver solves with (less alpha I), rebuilt from
        the members' rounds bit for bit as their columns were appended,
        into `out` when it is given."""
        members = self.indices
        return rescaled_gram(self.rounds.kernel, self.rounds.points[members],
                             self.rounds.d_scale[members], self.probs, out=out)

    def selection_sq_weights(self, horizon: int) -> np.ndarray:
        """Squared selection weights 1/p over stream indices 0..horizon-1
        (0 at the indices of no member)."""
        w = np.zeros(horizon)
        keep = self.indices < horizon
        w[self.indices[keep]] = 1.0 / self.probs[keep]
        return w


class Rounds:
    """A stream's kernel and its rounds so far: each round's point, one
    scalar, `d_scale`, and under a cosine family the point's own term, in
    grown arrays; `row` forms every kernel row a step uses. The scalar
    is the round's rescale factor d in a Newton-step learner's rounds,
    which its store and its embedded sampler's read, and in a standalone
    sampler's; the first-order baseline (`koco.harness.GdBaseline`) keeps
    its coefficients there."""

    def __init__(self, kernel: KernelSpec):
        self.kernel = kernel
        self._n = 0
        self._pts = np.zeros((16, 0))  # (cap, dim); sized on the first round
        self._d = np.zeros(16)
        self._own = None if kernel.family == GAUSSIAN else np.zeros(16)

    def __len__(self):
        return self._n

    @property
    def points(self) -> np.ndarray:
        return self._pts[: self._n]

    @property
    def d_scale(self) -> np.ndarray:
        return self._d[: self._n]

    def row(self, x, at=None) -> tuple[np.ndarray, float | None]:
        """(k, x_self): the kernel row of x against every round, or the
        rounds at indices `at`, and x's own cosine term (None under the
        gaussian), which `append` takes. x is checked once, its length
        against the rounds' whatever `at` selects, and an error names the
        round x would be."""
        n, own = self._n, self._own
        at = slice(n) if at is None else at
        try:
            x_self = h_self = None
            if own is not None:  # x checked here, so cross_vector takes it as it is
                x = _finite_point(x)
                x_self, h_self = _self_terms(self.kernel, x[None])[0], own[at]
            return cross_vector(self.kernel, self._pts[at], x, h_self=h_self,
                                x_self=x_self), x_self
        except (ValueError, KocoError) as exc:
            exc.args = (f"round {n + 1}: {exc}",)
            raise

    def append(self, x: np.ndarray, d_t: float, x_self: float | None) -> None:
        """Write the next round: x and x_self as `row` gave them, and d_t."""
        n = self._n
        if n == 0:
            self._pts = np.zeros((16, x.shape[0]))
        elif n == self._d.shape[0]:
            self._pts = grown(self._pts, n + 1, n)
            self._d = grown(self._d, n + 1, n)
            if self._own is not None:
                self._own = grown(self._own, n + 1, n)
        self._pts[n] = x
        self._d[n] = d_t
        if self._own is not None:
            self._own[n] = x_self
        self._n = n + 1


class KorsSampler:
    """Online row sampler over a (possibly gradient-rescaled) kernel stream.

    `d_t` below is the per-round rescale factor of the feature (1 for a
    plain kernel stream); kernel evaluations only ever touch dictionary
    members, none when the caller passes its kernel row, so a step costs
    O(size^2).

    `rounds`, the `Rounds` that the dictionary reads its kernel and
    members' points from, is an embedding learner's, which writes each
    round before the sampler scores it and passes the round's kernel
    `row` to `step`. By default the sampler keeps its own over `kernel`,
    of every point it scores, and forms the column against its members
    with `Rounds.row`.
    """

    def __init__(self, kernel: KernelSpec, cfg: KorsConfig, rounds=None):
        self.cfg = cfg
        self.dict = Dictionary(RegularizedFactor(cfg.alpha),
                               Rounds(kernel) if rounds is None else rounds)
        self._rng = named_rng(cfg.rng_seed, "kors-coins")

    @property
    def size(self) -> int:
        return len(self.dict)

    def step(self, x, d_t: float = 1.0, row: np.ndarray | None = None) -> KorsStep:
        """Score one stream point, flip its coin, and admit it on success.

        The score (1+eps)(1 - alpha/s) over-estimates the leverage of x
        against dictionary-plus-self; s is the Schur complement of the
        self column appended at weight one, so the bordered block is
        never materialized. An s that fails `koco.linalg.schur_ok`, the
        rule every append follows (x is already spanned by the weighted
        members), scores 0.
        The coin has probability p = min(beta * score, 1), and an
        admitted point enters the dictionary with weight 1/p at its
        0-based stream index (the count of points scored before it).

        The dictionary's solver is a grown Cholesky factor L of its
        M + alpha I, so s = k(x, x)·d_t² + alpha - |L⁻¹cross|² costs one
        packed triangular solve, and an admission reuses that solve as
        the new row of L: O(size²) to score, O(size) more to admit.

        `row`, given by an owner of the rounds, is the rescaled kernel row
        of an already checked x over every point scored before it; the
        members' weighted column is gathered from it, x is neither
        checked, evaluated nor kept, and d_t is not checked. Without
        `row`, a bad x (`Rounds.row`) or d_t raises naming the round.
        """
        scored = self.dict.rounds
        if row is None:
            x = np.asarray(x, dtype=np.float64).reshape(-1)
            members = self.dict.indices
            ks, x_self = scored.row(x, at=members)
            if not np.isfinite(d_t):
                raise ValueError(f"round {len(scored) + 1}: d_t is NaN/Inf")
            cross = ks * scored.d_scale[members] * d_t * self.dict.sweights
            scored.append(x, d_t, x_self)
        else:
            cross = row[self.dict.indices] * self.dict.sweights
        index = len(scored) - 1
        kdiag = d_t * d_t  # k(x, x) = 1 for every kernel in koco.kernels
        s, lc = self.dict.solver.schur_complement(cross, kdiag)
        tau = 0.0
        if schur_ok(s, kdiag, self.cfg.alpha):
            tau = float(max((1.0 + self.cfg.epsilon) * (1.0 - self.cfg.alpha / s), 0.0))
        p = min(self.cfg.beta * tau, 1.0)
        z = bernoulli(self._rng, p)  # drawn at p = 0 too: one draw per point
        if z:
            self.dict.admit(index, p, cross, kdiag, lc)
        return KorsStep(tau_tilde=tau, p_tilde=p, accepted=z, size=self.size)
