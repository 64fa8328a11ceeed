#!/usr/bin/env python3
"""Walkthrough: the exact second-order kernel learner on a smooth stream.

Runs the learner on a seeded synthetic regression stream, then compares
its cumulative loss and measured regret against the first-order baseline
and the regularized offline comparator, and checks the curved-loss
regret bound numerically.
"""

from dataclasses import replace
from tempfile import TemporaryDirectory

from koco import gaussian
from koco.harness import ExperimentConfig, run_experiment

SEED = 7
cfg = ExperimentConfig(learner="kons", kernel=gaussian(1.0), loss_family="squared",
                       clip_c=1.0, alpha=1.0, horizon=400, noise_sd=0.1)
kc = cfg.kons_config()

print(f"stream: {cfg.horizon} rounds, squared loss, targets in [-{cfg.clip_c}, {cfg.clip_c}]")
print(f"curvature sigma = {kc.sigma}, derivative bound = {kc.lipschitz}")

# --- online learners: the same stream, the baseline without a comparator ----

with TemporaryDirectory() as out:
    _, newton = run_experiment(cfg, SEED, out)
    _, baseline = run_experiment(replace(cfg, learner="gd-baseline", comparator=False),
                                 SEED, out)

print(f"\ncumulative loss: second-order {newton.cumulative_loss:.3f}   "
      f"first-order baseline {baseline.cumulative_loss:.3f}")

# --- regret against the regularized comparator, argmin L(u) + alpha |u|^2 ---

print(f"comparator loss {newton.comparator_loss:.3f}  ->  regret R_T = {newton.r_t:.3f}")
print(f"decomposition: gradient term R_G = {newton.r_g:.3f}, "
      f"stepsize-excess term R_D = {newton.r_d:.3e}")

# --- the curved-loss bound ---------------------------------------------------

print(f"\nregret bound {newton.bound_value:.1f}  >=  measured {newton.r_t:.3f}: "
      f"{'holds' if newton.bound_ok else 'VIOLATED'}")
