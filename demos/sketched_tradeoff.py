#!/usr/bin/env python3
"""Walkthrough: trading regret for speed with the sketched learner.

Runs the exact learner and sketched variants at several probability
floors on one stream, reporting cumulative loss, preconditioner support,
and mean per-round time over the final quarter of the stream.
"""

from dataclasses import replace

import numpy as np

from koco import gaussian
from koco.harness import ExperimentConfig, run_stream
from koco.skons import sandwich_audit

SEED = 11
cfg = ExperimentConfig(learner="kons", kernel=gaussian(1.0), loss_family="squared",
                       clip_c=1.0, alpha=1.0, horizon=1200, input_dim=2, n_centers=4,
                       noise_sd=0.05, cluster_count=1)
T = cfg.horizon
events = cfg.events(SEED)

def tail_us(records):
    return float(np.mean([r.elapsed_us for r in records[3 * T // 4:]]))

exact = run_stream(cfg, SEED, events)
print(f"{'learner':<14} {'cum. loss':>10} {'support':>8} {'tail us/step':>13} {'sketch range':>16}")
print(f"{'exact':<14} {sum(r.loss for r in exact.records):>10.3f} "
      f"{exact.t:>8} {tail_us(exact.records):>13.0f} {'1.000 - 1.000':>16}")

for gamma in (0.0, 0.1, 0.3):
    sk = run_stream(replace(cfg, learner="skons", gamma=gamma), SEED, events)
    lo, hi = sandwich_audit(sk)
    print(f"{f'floor {gamma:.1f}':<14} {sum(r.loss for r in sk.records):>10.3f} "
          f"{len(sk.dict):>8} {tail_us(sk.records):>13.0f} "
          f"{f'{lo:.3f} - {hi:.3f}':>16}")

print("\nlarger floors keep more of the preconditioner (tighter sketch, more"
      "\nwork per round); the floor-zero run keeps only what the leverage"
      "\nestimates insist on.")
