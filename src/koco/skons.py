"""Sketched kernel Newton-step learner: a column-selection policy on `NewtonCore`.

Second-order updates run against an unweighted sketch of the
preconditioner: each round an independent leverage-score sampler scores
the incoming gradient direction, the acceptance probability is floored
at gamma, and `NewtonCore.step` admits the accepted directions as it
does the exact learner's, so at gamma = 1 this is `Kons`. Cost per round
is O(t) for the one kernel row, which the sampler gathers its members'
column from, plus O(size^2) for the sketch and the sampler, against the
exact learner's O(t^2).

Why unweighted columns: reweighting admitted terms by 1/probability
would make the sketch unbiased, but a small acceptance probability then
injects a huge term in one round, and the stepsize-excess part of the
regret pays for every such jump. Keeping admitted terms at their exact
scale gives up unbiasedness for a sketch that never exceeds the exact
preconditioner, so the excess term stays nonpositive and only the
gradient term pays, through the max(gamma, budget*min-leverage) floor.
More generally, a sketch restricted to reweighting already-seen columns
cannot hold both regret terms small on adversarial streams (one repeated
direction with alternating targets already forces the tradeoff), which
is why the probability floor, not a weight schedule, is the control
knob here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .kernels import KernelSpec
from .kons import ETA_FIXED_SIGMA, KonsConfig, NewtonCore
from .kors import KorsConfig, KorsSampler
from .rng import bernoulli, named_rng


@dataclass(frozen=True)
class SkonsConfig:
    kons: KonsConfig
    kors: KorsConfig
    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.kons.eta_mode != ETA_FIXED_SIGMA or self.kons.sigma <= 0:
            raise ValueError("the sketched learner requires fixed positive-sigma stepsizes")
        if self.kors.alpha != self.kons.alpha:  # leverage is scored against the learner's alpha
            raise ValueError("kors.alpha must equal kons.alpha")


class SketchedKons(NewtonCore):
    """Kernel Newton-step learner over a sampled preconditioner.

    The embedded row sampler runs independently (its own dictionary, its
    own coins); only its leverage estimates cross over. Columns enter
    the learner's own selection unweighted, so the sketch never exceeds
    the exact preconditioner.
    """

    def __init__(self, kernel: KernelSpec, cfg: SkonsConfig):
        super().__init__(kernel, cfg, cfg.kons)
        self.kors = KorsSampler(kernel, cfg.kors, self.rounds)
        self._coin_rng = named_rng(cfg.kors.rng_seed, "sketch-coins")

    def _select(self, x, d_t, kc):
        # independent sampler: only its leverage estimate crosses over; its
        # members are past rounds, so it gathers their column from kc
        kres = self.kors.step(x, d_t, row=kc)
        p = max(min(self.cfg.kors.beta * kres.tau_tilde, 1.0), self.cfg.gamma)
        return kres.tau_tilde, p, bernoulli(self._coin_rng, p)


# ---------------------------------------------------------------------------
# spectral audit of the sketch against the exact preconditioner
# ---------------------------------------------------------------------------

def sandwich_audit(learner: SketchedKons) -> tuple[float, float]:
    """Extreme generalized eigenvalues of the sketched preconditioner
    against the exact one over every round so far (dual form)."""
    t = learner.t
    if t == 0:
        return 1.0, 1.0
    alpha = learner.cfg.kons.alpha
    Kbar = learner.gram()
    sq = learner.dict.selection_sq_weights(t)
    exact = Kbar + alpha * np.eye(t)
    sketch = oracle.dual_preconditioner(Kbar, sq, alpha)
    return oracle.spectral_audit(exact, sketch)
