"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line with the measured quantities. The
runtime-capped criteria additionally assert their caps.
"""

import time

import pytest

from koco import verify

RUNTIME_CAPS = {
    "acceptance/1-primal-equivalence": 10.0,
    "acceptance/3-sampler-guarantees": 300.0,
    "acceptance/5-curved-regret-bound": 20.0,
    "acceptance/6-sketched-regret-bound": 45.0,
}

# the criteria of 5 s or more in a `--durations=15` run; `-m "not slow"` skips them
SLOW = {"5-curved-regret-bound", "6-sketched-regret-bound",
        "7-alternating-adversary", "9-speedup-trend"}

CRITERIA = [pytest.param(name, fn, id=name.split("/")[1],
                         marks=pytest.mark.slow if name.split("/")[1] in SLOW else ())
            for name, _, fn in verify.CHECKS if name.startswith("acceptance/")]


@pytest.mark.parametrize("name,fn", CRITERIA)
def test_criterion(name, fn, capsys):
    tic = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - tic
    with capsys.disabled():
        print(f"\n{'PASS' if passed else 'FAIL'} {name} [{elapsed:.1f}s] {detail}")
    cap = RUNTIME_CAPS.get(name)
    if cap is not None:
        assert elapsed < cap, f"{name} took {elapsed:.1f}s (cap {cap}s)"
    assert passed, f"{name}: {detail}"
