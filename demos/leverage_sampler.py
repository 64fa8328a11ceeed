#!/usr/bin/env python3
"""Walkthrough: online leverage-score row sampling.

Streams a clustered point set through the sampler and shows how the
leverage estimates bracket the exact scores, how acceptance
probabilities fall as directions repeat, and how slowly the dictionary
grows compared to the stream.
"""

import numpy as np

from koco import gaussian, generate_stream, gram, prefix_rls
from koco.kors import KorsConfig, KorsSampler, required_budget
from koco.streams import SyntheticSpec

SEED = 3
T = 300
EPS = 0.5
DELTA = 0.1
ALPHA = 1.0

spec = SyntheticSpec(generator="rkhs-target", input_dim=2, horizon=T,
                     n_centers=5, noise_sd=0.0, clip_c=1.0, cluster_count=1)
kernel = gaussian(1.0)
events = generate_stream(spec, SEED, kernel=kernel)
beta = required_budget(T, DELTA, EPS)
print(f"{T} near-duplicate points, accuracy eps={EPS}, budget beta={beta:.1f}")

sampler = KorsSampler(kernel, KorsConfig(alpha=ALPHA, epsilon=EPS, beta=beta,
                                         delta=DELTA, rng_seed=SEED))
trace = [sampler.step(ev.point) for ev in events]

pts = np.vstack([ev.point for ev in events])
exact = prefix_rls(gram(kernel, pts), ALPHA)
rho = (1 + EPS) / (1 - EPS)

print(f"\n{'t':>5} {'exact':>9} {'estimate':>9} {'p_accept':>9} {'kept':>5} {'dict':>5}")
for t in (1, 5, 25, 100, 200, 300):
    r = trace[t - 1]
    print(f"{t:>5} {exact[t-1]:>9.4f} {r.tau_tilde:>9.4f} "
          f"{r.p_tilde:>9.4f} {r.accepted:>5} {r.size:>5}")

inside = np.mean([exact[t] - 1e-12 <= trace[t].tau_tilde <= rho * exact[t] + 1e-12
                  for t in range(T)])
print(f"\nestimates inside [exact, {rho:.0f}*exact] at {100*inside:.1f}% of rounds")
print(f"final dictionary: {sampler.size} of {T} points "
      f"({100*sampler.size/T:.0f}%), weights up to "
      f"{max(1.0 / sampler.dict.probs):.2f}")
