import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from koco.losses import (FAMILIES, CurvatureProfile, LossEvent,
                         asm_curvature_slack, clip_to_interval,
                         curvature_profile, derivative, loss_derivative,
                         loss_value, second_derivative)

PT = np.zeros(1)


def test_loss_values():
    assert loss_value(LossEvent(PT, "squared", 1.0), 1.0) == 0.0
    assert loss_value(LossEvent(PT, "logistic", 1.0), 0.0) == pytest.approx(np.log(2))
    assert loss_value(LossEvent(PT, "squared-hinge", -1.0), -2.0) == 0.0


def test_loss_derivatives():
    assert loss_derivative(LossEvent(PT, "squared", 0.0), 0.5) == 1.0
    assert loss_derivative(LossEvent(PT, "logistic", 1.0), 0.0) == -0.5
    assert loss_derivative(LossEvent(PT, "squared-hinge", 1.0), 0.5) == -1.0


@pytest.mark.parametrize("family", FAMILIES)
def test_derivative_matches_finite_differences(family):
    rng = np.random.default_rng(0)
    C, h = 1.0, 1e-6
    for _ in range(20):
        p = float(rng.uniform(-C, C)) if family == "squared" else float(rng.choice([-1.0, 1.0]))
        ev = LossEvent(PT, family, p)
        y = float(rng.uniform(-C, C))
        num = (loss_value(ev, y + h) - loss_value(ev, y - h)) / (2 * h)
        assert loss_derivative(ev, y) == pytest.approx(num, abs=1e-6)
        num2 = (derivative(family, p, y + h) - derivative(family, p, y - h)) / (2 * h)
        assert second_derivative(family, p, y) == pytest.approx(num2, abs=1e-6)


def test_rejects_bad_labels_and_family():
    with pytest.raises(ValueError):
        LossEvent(PT, "logistic", 0.5)
    with pytest.raises(ValueError):
        LossEvent(PT, "absolute", 1.0)


@pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("family", FAMILIES)
def test_non_finite_target_is_rejected(family, target):
    with pytest.raises(ValueError, match="target contains NaN/Inf"):
        LossEvent(PT, family, target)


# ---------------------------------------------------------------------------
# clipping
# ---------------------------------------------------------------------------

@given(st.floats(min_value=-1e6, max_value=1e6),
       st.floats(min_value=1e-3, max_value=1e3))
def test_clip_contract(z, C):
    clipped = clip_to_interval(z, C)
    assert -C <= clipped <= C
    assert clip_to_interval(clipped, C) == clipped  # idempotence
    if -C <= z <= C:
        assert clipped == z


# ---------------------------------------------------------------------------
# curvature profiles
# ---------------------------------------------------------------------------

def test_squared_sigma_closed_form():
    assert curvature_profile("squared", 1.0).sigma == pytest.approx(0.125)
    assert curvature_profile("squared", 2.0).sigma == pytest.approx(1.0 / 32.0)


def test_lipschitz_constants():
    assert curvature_profile("squared", 1.5).lipschitz == 6.0
    assert curvature_profile("logistic", 1.0).lipschitz == 1.0
    assert curvature_profile("squared-hinge", 1.0).lipschitz == 4.0


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("C", [0.5, 1.0, 2.0])
def test_profile_passes_curvature_grid(family, C):
    prof = curvature_profile(family, C)
    assert isinstance(prof, CurvatureProfile)
    assert prof.sigma > 0
    assert asm_curvature_slack(family, prof.sigma, C) >= -1e-9


def test_logistic_sigma_is_positive_and_reasonable():
    prof = curvature_profile("logistic", 1.0)
    # the curvature of the logistic loss on [-1, 1] is at least e / (1+e)^2
    assert 0 < prof.sigma <= np.exp(1.0) / (1.0 + np.exp(1.0)) ** 2 + 1e-9


@pytest.mark.parametrize("family", FAMILIES)
def test_derivative_bound_grid(family):
    rng = np.random.default_rng(1)
    C = 1.0
    prof = curvature_profile(family, C)
    for _ in range(1000):
        p = float(rng.uniform(-C, C)) if family == "squared" else float(rng.choice([-1.0, 1.0]))
        y = float(rng.uniform(-C, C))
        assert abs(loss_derivative(LossEvent(PT, family, p), y)) <= prof.lipschitz + 1e-12


def test_import_koco_does_not_load_scipy_special():
    # the logistic branches import it where they use it
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, koco; print('scipy.special' in sys.modules)"],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
