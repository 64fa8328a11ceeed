#!/usr/bin/env python3
"""Walkthrough: the exact second-order kernel learner on a smooth stream.

Runs the learner round by round on a seeded synthetic regression stream,
then compares its cumulative loss and measured regret against the
first-order baseline and the offline comparator, and checks the
curved-loss regret bound numerically.
"""

import numpy as np

from koco import (Kons, KonsConfig, best_comparator, curvature_profile,
                  gaussian, generate_stream, gram, regret_bound, regret_report)
from koco.harness import GdBaseline
from koco.streams import SyntheticSpec

SEED = 7
T = 400
C = 1.0
ALPHA = 1.0

spec = SyntheticSpec(generator="rkhs-target", input_dim=3, horizon=T,
                     n_centers=8, noise_sd=0.1, clip_c=C)
kernel = gaussian(1.0)
events = generate_stream(spec, SEED, kernel=kernel)
prof = curvature_profile("squared", C)

print(f"stream: {T} rounds, squared loss, targets in [-{C}, {C}]")
print(f"curvature sigma = {prof.sigma}, derivative bound = {prof.lipschitz}")

# --- online learners --------------------------------------------------------

newton = Kons(kernel, KonsConfig(clip_c=C, alpha=ALPHA, sigma=prof.sigma,
                                 lipschitz=prof.lipschitz))
baseline = GdBaseline(kernel, clip_c=C, lipschitz=prof.lipschitz)
for ev in events:
    newton.step(ev.point, ev)
    baseline.step(ev.point, ev)

loss_newton = sum(r.loss for r in newton.records)
loss_gd = sum(r.loss for r in baseline.records)
print(f"\ncumulative loss: second-order {loss_newton:.3f}   "
      f"first-order baseline {loss_gd:.3f}")

# --- regret against the best fixed clipped function -------------------------

pts = np.vstack([ev.point for ev in events])
K = gram(kernel, pts)
comp = best_comparator(K, events, C, seed=SEED)
rep = regret_report(newton.records, comp, prof.sigma)
print(f"comparator loss {comp.total_loss:.3f}  ->  regret R_T = {rep.r_t:.3f}")
print(f"decomposition: gradient term R_G = {rep.r_g:.3f}, "
      f"stepsize-excess term R_D = {rep.r_d:.3e}")

# --- the curved-loss bound ---------------------------------------------------

bound = regret_bound(K, comp.norm_sq, ALPHA, prof)
print(f"\nregret bound {bound:.1f}  >=  measured {rep.r_t:.3f}: "
      f"{'holds' if rep.r_t <= bound else 'VIOLATED'}")
