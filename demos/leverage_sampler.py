#!/usr/bin/env python3
"""Walkthrough: online leverage-score row sampling.

Streams a clustered point set through the sampler and shows how the
leverage estimates bracket the exact scores, how acceptance
probabilities fall as directions repeat, and how slowly the dictionary
grows compared to the stream.
"""

import numpy as np

from koco import KorsSampler, gaussian, gram, prefix_rls
from koco.harness import ExperimentConfig

SEED = 3
cfg = ExperimentConfig(learner="skons", kernel=gaussian(1.0), loss_family="squared",
                       clip_c=1.0, alpha=1.0, horizon=300, input_dim=2, n_centers=5,
                       cluster_count=1)
T = cfg.horizon
kors = cfg.kors_config(SEED)  # beta: the required budget at delta, epsilon
events = cfg.events(SEED)
print(f"{T} near-duplicate points, accuracy eps={kors.epsilon}, budget beta={kors.beta:.1f}")

sampler = KorsSampler(cfg.kernel, kors)
trace = [sampler.step(ev.point) for ev in events]

pts = np.vstack([ev.point for ev in events])
exact = prefix_rls(gram(cfg.kernel, pts), cfg.alpha)

print(f"\n{'t':>5} {'exact':>9} {'estimate':>9} {'p_accept':>9} {'kept':>5} {'dict':>5}")
for t in (1, 5, 25, 100, 200, 300):
    r = trace[t - 1]
    print(f"{t:>5} {exact[t-1]:>9.4f} {r.tau_tilde:>9.4f} "
          f"{r.p_tilde:>9.4f} {r.accepted:>5} {r.size:>5}")

inside = np.mean([exact[t] - 1e-12 <= trace[t].tau_tilde <= kors.rho * exact[t] + 1e-12
                  for t in range(T)])
print(f"\nestimates inside [exact, {kors.rho:.0f}*exact] at {100*inside:.1f}% of rounds")
print(f"final dictionary: {sampler.size} of {T} points "
      f"({100*sampler.size/T:.0f}%), weights up to "
      f"{max(1.0 / sampler.dict.probs):.2f}")
