import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _one_thread_env():
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                PYTHONDONTWRITEBYTECODE="1")


@pytest.mark.parametrize("workload", ["exact-spread", "sketch-spread", "regret-run"])
def test_benchmark_reproduces_its_reference(workload):
    # the benchmark's seed-0 run checks the learners' outputs against its
    # recorded reference (predictions within 1e-12; sizes and cum_loss
    # exactly); run here as the benchmark runs it, on one BLAS thread
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "workload.py"),
         "--workload", workload, "--seed", "0"],
        capture_output=True, text=True, env=_one_thread_env(), cwd=ROOT)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["ok"], result["errors"]
    assert done.returncode == 0


@pytest.mark.slow
def test_benchmark_selftests_pass():
    # the benchmark's own self-tests: every workload emits every declared
    # metric, traced and untraced, so a library change that removes a
    # function the tracer hooks (gram, eval_kernel, Kons.step, ...) fails
    # here instead of leaving its layer silently absent
    done = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          capture_output=True, text=True, env=_one_thread_env(), cwd=ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
