import numpy as np
import pytest

from koco.kernels import gaussian, gram
from koco.kors import (KorsConfig, KorsSampler, dict_size_bound, required_budget)
from koco.oracle import prefix_rls
from koco.rng import bernoulli, named_rng


def make_cfg(**kw):
    base = dict(alpha=1.0, epsilon=0.5, beta=20.0, delta=0.1, rng_seed=0)
    base.update(kw)
    return KorsConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(epsilon=0.0)
    with pytest.raises(ValueError):
        make_cfg(epsilon=1.5)
    with pytest.raises(ValueError):
        make_cfg(beta=-1.0)
    assert make_cfg(epsilon=0.5).rho == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# leverage estimation
# ---------------------------------------------------------------------------

def test_estimate_on_empty_dictionary():
    # single normalized point, eps=0: leverage is 1/(1+alpha)
    s = KorsSampler(gaussian(1.0), make_cfg(epsilon=1e-15))
    tau = s.estimate_rls(np.ones(2))
    assert tau == pytest.approx(0.5, abs=1e-12)


def test_estimate_scales_with_epsilon():
    s = KorsSampler(gaussian(1.0), make_cfg(epsilon=0.5))
    tau = s.estimate_rls(np.ones(2))
    assert tau == pytest.approx(0.75, abs=1e-12)


def test_full_dictionary_matches_exact_leverage():
    # keep everything at weight one: the estimate reduces to the exact
    # prefix leverage, inflated by (1+eps)
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(30, 3))
    eps = 1e-15
    s = KorsSampler(gaussian(1.0), make_cfg(epsilon=eps, beta=1e12))
    est = np.array([s.step(p).tau_tilde for p in pts])
    exact = prefix_rls(gram(gaussian(1.0), pts), 1.0)
    assert np.max(np.abs(est - exact)) < 1e-9


def test_duplicate_stream_closed_form():
    # m identical unit points in the dictionary: next estimate is
    # (1+eps)/(m+1+alpha), so acceptance stays capped at min{beta*that, 1}
    eps, alpha = 0.25, 1.0
    s = KorsSampler(gaussian(1.0), make_cfg(epsilon=eps, alpha=alpha, beta=1e12))
    x = np.ones(2)
    for m in range(25):
        tau = s.step(x).tau_tilde
        assert tau == pytest.approx((1 + eps) / (m + 1 + alpha), rel=1e-9)


def test_orthogonal_stream_grows_linearly():
    # far-apart points: every estimate is about (1+eps)/(1+alpha) and with
    # beta large every point is kept
    s = KorsSampler(gaussian(1.0), make_cfg(epsilon=0.5, beta=100.0))
    for t in range(20):
        res = s.step(np.array([40.0 * t, 0.0]))
        assert res.tau_tilde == pytest.approx(1.5 / 2.0, abs=1e-9)
        assert res.accepted == 1
    assert s.size == 20


def test_non_finite_point_names_its_round():
    s = KorsSampler(gaussian(1.0), make_cfg())
    with pytest.raises(ValueError, match="round 1:"):
        s.estimate_rls(np.array([np.nan, 0.0]))
    s.step(np.ones(2))
    s.step(np.zeros(2))
    with pytest.raises(ValueError, match="round 3:"):
        s.step(np.array([0.0, np.inf]))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_deterministic_acceptance_branches():
    s = KorsSampler(gaussian(1.0), make_cfg(beta=1e9))
    res = s.step(np.ones(2))
    assert res.p_tilde == 1.0 and res.accepted == 1
    assert s.dict.entries[0].weight == 1.0

    s2 = KorsSampler(gaussian(1.0), make_cfg(beta=20.0))
    tau = s2.estimate_rls(np.ones(2), d_t=0.0)  # zero rescale: zero feature
    assert tau == 0.0
    p, z = s2.sample(1, tau)
    assert p == 0.0 and z == 0 and s2.size == 0


def test_acceptance_frequency_concentrates():
    rng = named_rng(42, "mc")
    hits = sum(bernoulli(rng, 0.3) for _ in range(10000))
    assert abs(hits / 10000 - 0.3) < 0.015


def test_weights_are_inverse_probabilities():
    s = KorsSampler(gaussian(1.0), make_cfg(beta=5.0, rng_seed=3))
    rng = np.random.default_rng(0)
    for t in range(200):
        s.step(rng.normal(size=2))
    assert s.size > 0
    for e in s.dict.entries:
        assert e.weight == pytest.approx(1.0 / e.prob)
        assert 0.0 < e.prob <= 1.0


def test_same_seed_reproduces_dictionary():
    pts = np.random.default_rng(5).normal(size=(100, 2))
    outs = []
    for _ in range(2):
        s = KorsSampler(gaussian(1.0), make_cfg(rng_seed=11, beta=10.0))
        for p in pts:
            s.step(p)
        outs.append([(e.index, e.weight, e.prob) for e in s.dict.entries])
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# budget arithmetic
# ---------------------------------------------------------------------------

def test_size_bound_arithmetic():
    cfg = make_cfg(epsilon=0.5, beta=10.0 / 3.0)
    assert dict_size_bound(cfg, 2.0) == pytest.approx(3 * 3.0 * (10.0 / 3.0) * 2.0 / 0.25)


def test_required_budget_value():
    # T=1000, delta=0.01, eps=0.5 -> 3*ln(1e5)/0.25
    assert required_budget(1000, 0.01, 0.5) == pytest.approx(3 * np.log(1e5) / 0.25, rel=1e-12)
    assert required_budget(1000, 0.01, 0.5) == pytest.approx(138.155, abs=0.01)


def test_size_bound_zero_dimension():
    assert dict_size_bound(make_cfg(), 0.0) == 0.0
