from types import SimpleNamespace

import numpy as np
import pytest

from koco.errors import SchurNotPositive, ZeroNormPoint
from koco.kernels import gaussian, gram, linear
from koco.kors import (Dictionary, KorsConfig, KorsSampler, dict_size_bound,
                       required_budget)
from koco.linalg import RegularizedFactor, RegularizedInverse
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
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            make_cfg(beta=bad)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            make_cfg(alpha=bad)
    assert make_cfg(epsilon=0.5).rho == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# leverage estimation
# ---------------------------------------------------------------------------

def test_estimate_on_empty_dictionary():
    # single normalized point, eps=0: leverage is 1/(1+alpha)
    s = KorsSampler(gaussian(1.0), make_cfg(epsilon=1e-15))
    tau = s.step(np.ones(2)).tau_tilde
    assert tau == pytest.approx(0.5, abs=1e-12)


def test_estimate_scales_with_epsilon():
    s = KorsSampler(gaussian(1.0), make_cfg(epsilon=0.5))
    tau = s.step(np.ones(2)).tau_tilde
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
        s.step(np.array([np.nan, 0.0]))
    s.step(np.ones(2))
    s.step(np.zeros(2))
    with pytest.raises(ValueError, match="round 3:"):
        s.step(np.array([0.0, np.inf]))
    # a rejected round leaves no trace: the next point steps as in a
    # sampler that never saw the rejected ones
    fresh = KorsSampler(gaussian(1.0), make_cfg())
    fresh.step(np.ones(2))
    fresh.step(np.zeros(2))
    clean = np.array([0.5, -0.5])
    assert s.step(clean) == fresh.step(clean)
    assert len(s.dict.rounds) == len(fresh.dict.rounds) == 3
    assert s._rng.random() == fresh._rng.random()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rescale_names_its_round(bad):
    s = KorsSampler(gaussian(1.0), make_cfg())
    s.step(np.ones(2))
    with pytest.raises(ValueError, match="round 2: d_t"):
        s.step(np.zeros(2), bad)
    # the rejected round is not kept: the next one is still round 2
    fresh = KorsSampler(gaussian(1.0), make_cfg())
    fresh.step(np.ones(2))
    assert s.step(np.zeros(2), 0.5) == fresh.step(np.zeros(2), 0.5)
    assert len(s.dict.rounds.d_scale) == 2


def test_zero_first_point_is_rejected_in_its_round():
    # with no member to evaluate it against, a zero point under a
    # cosine-normalized kernel is checked on its own
    s = KorsSampler(linear(), make_cfg(beta=10.0))
    with pytest.raises(ZeroNormPoint):
        s.step(np.zeros(2))
    assert s.size == 0
    fresh = KorsSampler(linear(), make_cfg(beta=10.0))
    for x in ([1.0, 0.5], [0.3, 0.2]):
        assert s.step(np.array(x)) == fresh.step(np.array(x))
    assert list(s.dict.indices) == list(fresh.dict.indices)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_deterministic_acceptance_branches():
    s = KorsSampler(gaussian(1.0), make_cfg(beta=1e9))
    res = s.step(np.ones(2))
    assert res.p_tilde == 1.0 and res.accepted == 1
    assert 1.0 / s.dict.probs[0] == 1.0

    s2 = KorsSampler(gaussian(1.0), make_cfg(beta=20.0))
    res = s2.step(np.ones(2), d_t=0.0)  # zero rescale: zero feature
    assert res.tau_tilde == 0.0
    assert res.p_tilde == 0.0 and res.accepted == 0 and s2.size == 0


def test_singular_score_is_zero_and_never_admitted():
    # one member at weight one already spans the replayed point: at alpha
    # 1e-13 its self-bordered Schur complement is below SCHUR_RTOL, so it
    # scores 0, and its coin is drawn at p = 0
    s = KorsSampler(gaussian(1.0), make_cfg(alpha=1e-13, beta=1e9))
    assert s.step(np.ones(2)).accepted == 1
    res = s.step(np.ones(2))
    assert res.tau_tilde == 0.0
    assert res.p_tilde == 0.0 and res.accepted == 0 and res.size == 1
    coins = named_rng(0, "kors-coins")
    coins.random(2)
    assert s._rng.random() == coins.random()  # one draw per point


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
    for sweight, prob in zip(s.dict.sweights, s.dict.probs):
        assert sweight**2 == pytest.approx(1.0 / prob)
        assert 0.0 < prob <= 1.0


def test_singular_admit_leaves_the_store_unchanged():
    # at alpha 1e-13 a second copy of the member is spanned by it: its
    # Schur complement is below SCHUR_RTOL, and the store keeps its member
    # and its solver at that member's order, whichever solver it holds
    rounds = SimpleNamespace(kernel=gaussian(1.0), points=np.ones((2, 2)), d_scale=np.ones(2))
    for solver in (RegularizedInverse, RegularizedFactor):
        store = Dictionary(solver(1e-13), rounds)
        store.admit(0, 1.0, np.zeros(0), 1.0, np.zeros(0))
        cross = np.ones(1)
        with pytest.raises(SchurNotPositive):
            store.admit(1, 0.5, cross, 1.0,
                        store.solver.schur_complement(cross, 1.0)[1])
        assert len(store) == store.solver.order == 1
        assert list(store.indices) == [0] and list(store.probs) == [1.0]
        assert store.gram().shape == (1, 1)


def test_same_seed_reproduces_dictionary():
    pts = np.random.default_rng(5).normal(size=(100, 2))
    outs = []
    for _ in range(2):
        s = KorsSampler(gaussian(1.0), make_cfg(rng_seed=11, beta=10.0))
        for p in pts:
            s.step(p)
        outs.append(list(zip(s.dict.indices, s.dict.sweights, s.dict.probs)))
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
