import tracemalloc

import numpy as np
import pytest

from koco import kons
from koco.kernels import cross_vector, gaussian, gram, linear, polynomial
from koco.kons import ETA_FIXED_SIGMA, ETA_INVERSE_SQRT, Kons, KonsConfig, eta_at
from koco.kors import KorsConfig, KorsSampler
from koco.linalg import REFRESH_EVERY
from koco.losses import LossEvent, curvature_profile
from koco.oracle import prefix_rls, primal_ons
from koco.skons import SketchedKons, SkonsConfig
from koco.streams import RKHS_TARGET, SyntheticSpec, generate_stream


def squared_cfg(C=1.0, alpha=1.0, mode=ETA_FIXED_SIGMA):
    prof = curvature_profile("squared", C)
    return KonsConfig(clip_c=C, alpha=alpha, eta_mode=mode,
                      sigma=prof.sigma, lipschitz=prof.lipschitz)


def unit_feature_stream(seed, T, d=5, C=1.0, family="squared"):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(T, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    if family == "squared":
        ys = rng.uniform(-0.9 * C, 0.9 * C, size=T)
    else:
        ys = rng.choice([-1.0, 1.0], size=T)
    return X, [LossEvent(x, family, float(y)) for x, y in zip(X, ys)]


def run(learner, events):
    return np.array([learner.step(ev.point, ev).yhat for ev in events])


# ---------------------------------------------------------------------------
# stepsizes
# ---------------------------------------------------------------------------

def test_eta_fixed_sigma():
    cfg = KonsConfig(clip_c=1.0, alpha=1.0, sigma=0.125, lipschitz=4.0)
    assert all(eta_at(cfg, t) == 0.125 for t in (1, 7, 1000))


def test_eta_inverse_sqrt():
    cfg = KonsConfig(clip_c=1.0, alpha=1.0, eta_mode=ETA_INVERSE_SQRT, lipschitz=1.0)
    assert eta_at(cfg, 4) == pytest.approx(0.5)
    assert eta_at(cfg, 1) == pytest.approx(1.0)
    cfg2 = KonsConfig(clip_c=1.0, alpha=1.0, eta_mode=ETA_INVERSE_SQRT, lipschitz=2.0)
    assert eta_at(cfg2, 1) == pytest.approx(0.5)


def test_config_validation():
    with pytest.raises(ValueError):
        KonsConfig(clip_c=1.0, alpha=1.0, eta_mode=ETA_FIXED_SIGMA, sigma=0.0)
    with pytest.raises(ValueError):
        KonsConfig(clip_c=-1.0, alpha=1.0, sigma=0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("setting", ["clip_c", "alpha", "sigma", "lipschitz"])
def test_config_rejects_non_finite_settings(setting, bad):
    # inverse-sqrt stepsizes do not read sigma, and still refuse a bad one
    for mode in (ETA_FIXED_SIGMA, ETA_INVERSE_SQRT):
        args = dict(clip_c=1.0, alpha=1.0, eta_mode=mode, sigma=0.1, lipschitz=1.0)
        with pytest.raises(ValueError, match=setting):
            KonsConfig(**{**args, setting: bad})


# ---------------------------------------------------------------------------
# predictions
# ---------------------------------------------------------------------------

def test_first_round_predicts_zero():
    learner = Kons(gaussian(1.0), squared_cfg())
    assert learner.predict(np.ones(3)) == (0.0, 0.0)
    rec = learner.step(np.ones(3), LossEvent(np.ones(3), "squared", 0.5))
    assert rec.yhat == 0.0 and rec.ybar == 0.0


def test_hand_rolled_scalar_recursion():
    # one repeated unit point, squared targets, fixed sigma: the whole run
    # collapses to scalars that can be tracked by hand
    C, alpha = 1.0, 1.0
    cfg = squared_cfg(C, alpha)
    sigma = cfg.sigma
    learner = Kons(gaussian(1.0), cfg)
    x = np.ones(2)
    targets = [0.5, -0.25, 0.75]

    w, A, u = 0.0, alpha, 0.0
    for t, y in enumerate(targets, start=1):
        ybar = u
        yhat = min(max(ybar, -C), C)
        rec = learner.step(x, LossEvent(x, "squared", y))
        assert rec.ybar == pytest.approx(ybar, abs=1e-12)
        assert rec.yhat == pytest.approx(yhat, abs=1e-12)
        gdot = 2.0 * (yhat - y)
        A = A + sigma * gdot * gdot
        w = yhat
        u = w - gdot / A


@pytest.mark.parametrize("mode", [ETA_FIXED_SIGMA, ETA_INVERSE_SQRT])
def test_matches_primal_recursion(mode):
    X, events = unit_feature_stream(0, 200)
    cfg = squared_cfg(mode=mode)
    mine = run(Kons(linear(), cfg), events)
    ref = primal_ons(X, events, cfg)
    assert np.max(np.abs(mine - ref)) < 1e-6


@pytest.mark.parametrize("family", ["logistic", "squared-hinge"])
def test_matches_primal_on_classification(family):
    # C < 1 keeps the squared-hinge margin derivative nonzero on the clip
    # boundary; at C >= 1 a saturated prediction with the matching label has
    # exactly-zero derivative while the projection is active, the one state
    # the dual recursion cannot express
    C = 0.8
    X, events = unit_feature_stream(1, 120, family=family, C=C)
    prof = curvature_profile(family, C)
    cfg = KonsConfig(clip_c=C, alpha=1.0, sigma=prof.sigma, lipschitz=prof.lipschitz)
    mine = run(Kons(linear(), cfg), events)
    ref = primal_ons(X, events, cfg)
    assert np.max(np.abs(mine - ref)) < 1e-6


def test_zero_derivative_round_matches_primal():
    # engineer an exact interior hit: re-run the stream with one target set
    # to the prediction the learner makes at that round
    X, events = unit_feature_stream(2, 60)
    cfg = squared_cfg()
    probe = Kons(linear(), cfg)
    preds = run(probe, events)
    k = 30
    assert abs(preds[k]) < 0.9  # interior; the hit must not sit on the clip edge
    events[k] = LossEvent(events[k].point, "squared", float(preds[k]))
    learner = Kons(linear(), cfg)
    mine = run(learner, events)
    assert learner.records[k].gdot == 0.0
    assert learner.rounds.d_scale[k] == 0.0
    assert learner.records[k].rg_increment == 0.0
    ref = primal_ons(X, events, cfg)
    assert np.max(np.abs(mine - ref)) < 1e-6


def test_all_zero_coefficients_predict_zero():
    # zero-derivative rounds keep ybar at zero
    cfg = squared_cfg()
    learner = Kons(gaussian(1.0), cfg)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.normal(size=2)
        learner.step(x, LossEvent(x, "squared", 0.0))  # ybar=0, target 0 -> gdot 0
    assert all(r.ybar == 0.0 for r in learner.records)
    # q_t is 0 on a zero-derivative round, where the floor changes nothing
    assert learner.q_floor_clamps == 0


def test_q_floor_clamps_count_nonzero_derivative_rounds(monkeypatch):
    # a floor above every q_t clamps each round, but only the rounds with
    # a nonzero derivative count
    monkeypatch.setattr(kons, "Q_FLOOR", 1e6)
    _, events = unit_feature_stream(7, 30)
    events[:4] = [LossEvent(ev.point, "squared", 0.0) for ev in events[:4]]
    learner = Kons(gaussian(1.0), squared_cfg())
    run(learner, events)
    nonzero = sum(r.gdot != 0.0 for r in learner.records)
    assert 0 < nonzero < len(events)
    assert learner.q_floor_clamps == nonzero


def squared_hinge_stream(seed, T):
    """The README's rkhs-target stream under the squared hinge at C = 1:
    a round whose clipped prediction meets its label's margin has
    derivative 0, and most rounds do once the learner has fit."""
    spec = SyntheticSpec(generator=RKHS_TARGET, input_dim=3, horizon=T, noise_sd=0.1)
    return generate_stream(spec, seed, kernel=gaussian(1.0), family="squared-hinge")


def test_zero_derivative_rounds_get_no_row():
    # a round with d_t = 0 adds nothing to the preconditioner, so only the
    # rounds that moved the learner are its members, and the store still
    # solves with their gram
    events = squared_hinge_stream(0, 300)
    learner = Kons(gaussian(1.0), squared_cfg())
    run(learner, events)
    moved = [j for j, r in enumerate(learner.records) if r.gdot != 0.0]
    assert 0 < len(moved) < len(events) // 2
    assert list(learner.dict.indices) == moved
    assert len(learner.dict) == learner.records[-1].dict_size == len(moved)
    assert all(r.accepted for r in learner.records)
    assert learner.dict.solver.audit(learner.dict.gram()) <= 1e-8
    assert learner.audit_cache() <= 1e-8


def test_predictions_always_clipped():
    _, events = unit_feature_stream(4, 150, C=0.4)
    learner = Kons(gaussian(0.8), squared_cfg(C=0.4))
    preds = run(learner, events)
    assert np.max(np.abs(preds)) <= 0.4


def test_state_sizes_agree():
    _, events = unit_feature_stream(5, 40)
    learner = Kons(gaussian(1.0), squared_cfg())
    run(learner, events)
    assert learner.t == 40
    assert learner.rounds.points.shape == (40, 5)
    assert learner.rounds.d_scale.shape == (40,)
    assert learner.b.shape == (40,)
    assert learner.dict.solver.order == len(learner.dict) == 40
    assert learner.audit_cache() < 1e-8
    assert learner.dict.solver.audit(learner.dict.gram()) < 1e-8
    assert learner.q_floor_clamps == 0


def rkhs_events(seed, T):
    spec = SyntheticSpec(generator=RKHS_TARGET, input_dim=3, horizon=T,
                         n_centers=8, noise_sd=0.1, clip_c=1.0)
    return generate_stream(spec, seed, kernel=gaussian(1.0))


def test_audits_hold_past_two_refreshes():
    # long horizon: each inverse passes the refreshes at orders 512 and
    # 1024 and stays the inverse of the gram its owner rebuilds; the
    # sampler's budget admits every round with a nonzero derivative, and
    # its factor, never rebuilt, still solves with that gram
    events = rkhs_events(7, 1100)
    exact = Kons(gaussian(1.0), squared_cfg())
    sketched = SketchedKons(gaussian(1.0), SkonsConfig(
        kons=squared_cfg(),
        kors=KorsConfig(alpha=1.0, epsilon=0.5, beta=1e12, delta=0.1, rng_seed=7),
        gamma=1.0))
    for learner in (exact, sketched):
        run(learner, events)
    for store in (exact.dict, sketched.dict, sketched.kors.dict):
        assert store.solver.order >= 2 * REFRESH_EVERY
        assert store.solver.audit(store.gram()) <= 1e-8
    assert exact.dict.solver.refreshes == sketched.dict.solver.refreshes == 2
    # the cached gram@b covers every round, the sketch's too
    assert exact.audit_cache() <= 1e-8
    assert sketched.audit_cache() <= 1e-8


def test_sampler_factor_holds_over_a_long_horizon():
    # at beta 100 the sampler admits all 3000 points; its factor, grown
    # row by row and never rebuilt, still solves with the members' gram
    sampler = KorsSampler(gaussian(1.0), KorsConfig(alpha=1.0, epsilon=0.5, beta=100.0,
                                                    delta=0.1))
    for ev in rkhs_events(0, 3000):
        sampler.step(ev.point, 1.0)
    assert sampler.dict.solver.order == 3000
    assert sampler.dict.solver.audit(sampler.dict.gram()) <= 1e-8


def test_exact_learner_holds_one_square_buffer():
    # the inverse's rows take cap² entries (cap = 1024 past order 512);
    # the largest moment adds the old 512² buffer as the rows move to the
    # new one (1.25 × 8·cap² bytes), and the refresh at order 512 holds
    # the 512² rows, gram and identity (0.75 ×); a second cap² buffer,
    # such as a tracked copy of M, makes it 2 × 8·cap² or more
    events = rkhs_events(0, 700)
    learner = Kons(gaussian(1.0), squared_cfg())
    tracemalloc.start()
    try:
        run(learner, events)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cap = 1024
    assert learner.dict.solver._cap == cap
    assert peak < 1.5 * 8 * cap**2


def test_sampler_holds_one_packed_factor():
    # at beta 100 the sampler admits all 700 points, so its factor's packed
    # rows take 700·701/2 entries, about 0.23 × 8·1024² bytes (in a
    # doubling buffer of at most twice that); an explicit inverse of order
    # 700 (1024² entries past order 512) alone takes 1 ×
    events = rkhs_events(0, 700)
    sampler = KorsSampler(gaussian(1.0), KorsConfig(alpha=1.0, epsilon=0.5, beta=100.0,
                                                    delta=0.1))
    tracemalloc.start()
    try:
        for ev in events:
            sampler.step(ev.point, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sampler.size == 700
    assert peak < 0.5 * 8 * 1024**2


def test_eta_schedule_reaches_half_at_round_four():
    cfg = KonsConfig(clip_c=1.0, alpha=1.0, eta_mode=ETA_INVERSE_SQRT,
                     sigma=0.0, lipschitz=1.0)
    assert eta_at(cfg, 4) == 0.5


# ---------------------------------------------------------------------------
# leverage accounting
# ---------------------------------------------------------------------------

def test_demoted_round_reports_the_leverage_it_has():
    # one replayed point at alpha 1e-13: every append after the first is
    # singular and demoted; its column did not enter, so the round's
    # leverage is q itself, which the gradient-term increment reads too
    spec = SyntheticSpec(generator="sixsix-adversary", input_dim=2, horizon=40,
                         noise_sd=0.1, clip_c=1.0)
    learner = Kons(gaussian(1.0), squared_cfg(alpha=1e-13))
    run(learner, generate_stream(spec, 0, kernel=gaussian(1.0)))
    demoted = [r for r in learner.records if not r.accepted]
    assert len(demoted) == learner.rejected_appends == 39
    for r in demoted:
        assert r.tau == pytest.approx(r.rg_increment * r.eta, rel=1e-12)


@pytest.mark.parametrize("kernel", [gaussian(1.0), linear(), polynomial(3, 0.5)])
def test_gram_rows_are_the_rows_each_round_formed(kernel):
    # the one builder of the rounds' rescaled gram: below the diagonal,
    # row t is the row round t formed, (k·d_i)·d_t, bit for bit, whether
    # from the points alone or, as the learner forms it, from the cosine
    # normalization terms it cached as each round was written
    _, events = unit_feature_stream(3, 60)
    learner = Kons(kernel, squared_cfg())
    run(learner, events)
    G, P, D = learner.gram(), learner.rounds.points, learner.rounds.d_scale
    own = learner._own[: learner.t]
    assert np.array_equal(G, G.T)
    for t in range(learner.t):
        kc = cross_vector(kernel, P[:t], P[t]) * D[:t] * D[t]
        assert np.array_equal(G[t, :t], kc)
        assert G[t, t] == D[t] * D[t]
        cached = cross_vector(kernel, P[:t], P[t], h_self=own[:t]) * D[:t] * D[t]
        assert cached.tobytes() == kc.tobytes()
    assert own.any() == (kernel.family != "gaussian")


def test_rg_identity_against_oracle():
    _, events = unit_feature_stream(6, 120)
    cfg = squared_cfg()
    learner = Kons(gaussian(1.0), cfg)
    run(learner, events)
    D = learner.rounds.d_scale
    Kbar = gram(gaussian(1.0), learner.rounds.points) * np.outer(D, D)
    taus = prefix_rls(Kbar, cfg.alpha)
    etas = np.array([r.eta for r in learner.records])
    r_g = sum(r.rg_increment for r in learner.records)
    assert r_g == pytest.approx(float(np.sum(taus / etas)), abs=1e-7)
