from dataclasses import replace

import numpy as np
import pytest

from koco.errors import DimensionMismatch
from koco.kernels import gaussian, linear, polynomial
from koco.kons import Kons, KonsConfig
from koco.kors import KorsConfig, KorsSampler
from koco.losses import curvature_profile
from koco.skons import SketchedKons, SkonsConfig, sandwich_audit
from koco.streams import SyntheticSpec, generate_stream


def squared_cfg(C=1.0, alpha=1.0):
    prof = curvature_profile("squared", C)
    return KonsConfig(clip_c=C, alpha=alpha, sigma=prof.sigma,
                      lipschitz=prof.lipschitz)


def sketch_cfg(gamma, seed=0, beta=30.0, epsilon=0.5, C=1.0, alpha=1.0):
    return SkonsConfig(kons=squared_cfg(C, alpha),
                       kors=KorsConfig(alpha=alpha, epsilon=epsilon, beta=beta,
                                       delta=0.1, rng_seed=seed),
                       gamma=gamma)


def stream(seed, T, generator="rkhs-target", family="squared", **kw):
    spec = SyntheticSpec(generator=generator, input_dim=kw.pop("dim", 3),
                         horizon=T, clip_c=kw.pop("clip_c", 1.0), **kw)
    return generate_stream(spec, seed, kernel=gaussian(1.0), family=family)


def run(learner, events):
    return np.array([learner.step(ev.point, ev).yhat for ev in events])


def test_config_requires_fixed_sigma():
    with pytest.raises(ValueError):
        SkonsConfig(kons=KonsConfig(clip_c=1, alpha=1, eta_mode="inverse-sqrt",
                                    sigma=0.0, lipschitz=4.0),
                    kors=KorsConfig(alpha=1, epsilon=0.5, beta=10, delta=0.1),
                    gamma=0.5)
    with pytest.raises(ValueError):
        sketch_cfg(gamma=1.5)


def test_config_requires_one_alpha():
    # the sampler scores leverage against the learner's regularization
    cfg = sketch_cfg(0.5, alpha=0.5)
    with pytest.raises(ValueError, match="kors.alpha must equal kons.alpha"):
        replace(cfg, kors=replace(cfg.kors, alpha=1.0))


def test_empty_history_predicts_zero():
    learner = SketchedKons(gaussian(1.0), sketch_cfg(0.5))
    assert learner.predict(np.ones(2)) == (0.0, 0.0)


def test_gamma_one_equals_exact_learner():
    cases = [(stream(0, 200, noise_sd=0.1), 1.0, 30.0, 0),
             # one replayed point at alpha 1e-13: every append after the
             # first is singular, and both learners demote the round
             (stream(0, 40, generator="sixsix-adversary", dim=2, noise_sd=0.1),
              1e-13, 1e-3, 39),
             # 120 of 200 rounds meet the squared hinge's margin: their
             # derivative is 0, and neither learner gives them a row
             (stream(0, 200, noise_sd=0.1, family="squared-hinge"), 1.0, 30.0, 0)]
    for events, alpha, beta, rejected in cases:
        exact = Kons(gaussian(1.0), squared_cfg(alpha=alpha))
        sketch = SketchedKons(gaussian(1.0), sketch_cfg(1.0, alpha=alpha, beta=beta))
        run(exact, events)
        run(sketch, events)
        # one Newton-step core and one admission path: with every coin
        # accepted the rounds agree bit for bit
        fields = ("ybar", "yhat", "gdot", "p_accept", "accepted", "rg_increment",
                  "dict_size")
        for re_, rs in zip(exact.records, sketch.records, strict=True):
            assert [getattr(re_, f) for f in fields] == [getattr(rs, f) for f in fields]
        assert exact.rejected_appends == sketch.rejected_appends == rejected
        assert sum(r.accepted for r in sketch.records) == len(events) - rejected


def test_stores_gather_the_rounds_gram():
    # each store keeps indices, not points: its gram, gathered from the
    # learner's rounds, is the learner's gram at its members bit for bit,
    # each entry below the diagonal times sw_i, then sw_j, and the
    # diagonal d²/p
    events = stream(0, 200, noise_sd=0.1, family="squared-hinge")
    exact = Kons(gaussian(1.0), squared_cfg())
    sketch = SketchedKons(gaussian(1.0), sketch_cfg(0.2, seed=3))
    run(exact, events)
    run(sketch, events)
    for learner, store in ((exact, exact.dict), (sketch, sketch.dict),
                           (sketch, sketch.kors.dict)):
        idx = store.indices
        assert 0 < len(idx) < learner.t
        sw = store.sweights
        M = store.gram()
        below = np.tril(learner.gram()[np.ix_(idx, idx)] * sw * sw[:, None], -1)
        assert np.array_equal(np.tril(M, -1).view(np.int64), below.view(np.int64))
        assert np.array_equal(M.view(np.int64), M.T.view(np.int64))
        D = learner.rounds.d_scale[idx]
        assert np.array_equal(np.diag(M), D * D * (1.0 / store.probs))


def test_forced_acceptance_equals_exact_learner():
    # near-orthogonal points with a huge budget: every coin is deterministic
    events = stream(1, 60, generator="orthogonal-drift", spread=12.0, dim=2)
    exact = Kons(gaussian(1.0), squared_cfg())
    sketch = SketchedKons(gaussian(1.0), sketch_cfg(0.0, beta=1e9))
    assert np.max(np.abs(run(exact, events) - run(sketch, events))) <= 1e-8


def test_repeated_point_acceptance_approaches_floor():
    # leverage of a repeated point decays like 1/t, so acceptances settle
    # near the probability floor
    gamma = 0.2
    events = stream(2, 1500, generator="sixsix-adversary", dim=2)
    sketch = SketchedKons(gaussian(1.0), sketch_cfg(gamma, seed=5, beta=20.0))
    run(sketch, events)
    tail = sketch.records[700:]
    assert all(r.p_accept == gamma for r in tail)
    freq = np.mean([r.accepted for r in tail])
    assert abs(freq - gamma) < 0.05
    prof = curvature_profile("squared", 1.0)
    worst = max((r.eta * r.accepted - prof.sigma) * r.gdot**2 for r in sketch.records)
    assert worst <= 1e-12


def test_probability_floor_applies_only_to_learner():
    gamma = 0.9
    events = stream(3, 300, generator="sixsix-adversary", dim=2)
    sketch = SketchedKons(gaussian(1.0), sketch_cfg(gamma, seed=1, beta=10.0))
    run(sketch, events)
    # learner acceptances are floored at gamma ...
    assert min(r.p_accept for r in sketch.records) >= gamma
    # ... the embedded sampler's dictionary is not: on a repeated point its
    # admission probabilities drop well below the floor
    assert min(sketch.kors.dict.probs) < gamma
    assert len(sketch.kors.dict) < len(sketch.dict)


def test_upper_domination_deterministic():
    events = stream(4, 120, noise_sd=0.2)
    sketch = SketchedKons(gaussian(1.0), sketch_cfg(0.3, seed=9))
    run(sketch, events)
    lo, hi = sandwich_audit(sketch)
    assert hi <= 1.0 + 1e-10
    assert 0.0 < lo <= 1.0 + 1e-10


def test_no_acceptances_gives_alpha_identity_sketch():
    # gamma=0 and a zero budget keep every coin at zero: the sketch stays at
    # alpha*I, so the lower eigenvalue is alpha over the top eigenvalue of
    # the exact preconditioner
    from koco.kernels import gram
    from koco.linalg import sym_eigvals

    events = stream(5, 40, noise_sd=0.2)
    sketch = SketchedKons(gaussian(1.0), sketch_cfg(0.0, beta=1e-9))
    run(sketch, events)
    assert len(sketch.dict) == 0
    lo, hi = sandwich_audit(sketch)
    D = sketch.rounds.d_scale
    Kbar = gram(gaussian(1.0), sketch.rounds.points) * np.outer(D, D)
    lam_max = sym_eigvals(Kbar)[-1]
    assert lo == pytest.approx(1.0 / (lam_max + 1.0), rel=1e-9)  # alpha = 1
    assert hi <= 1.0 + 1e-10


def test_gamma_one_audit_is_unit():
    events = stream(6, 80)
    sketch = SketchedKons(gaussian(1.0), sketch_cfg(1.0))
    run(sketch, events)
    lo, hi = sandwich_audit(sketch)
    assert lo == pytest.approx(1.0, abs=1e-9)
    assert hi == pytest.approx(1.0, abs=1e-9)


def test_expected_acceptances_match_probabilities():
    # binomial consistency of the acceptance count under gamma=0
    events = stream(7, 400, generator="sixsix-adversary", dim=2)
    sketch = SketchedKons(gaussian(1.0), sketch_cfg(0.0, seed=21, beta=15.0))
    run(sketch, events)
    ps = np.array([r.p_accept for r in sketch.records])
    zs = np.array([r.accepted for r in sketch.records])
    mean, sd = ps.sum(), np.sqrt(np.sum(ps * (1 - ps)))
    assert abs(zs.sum() - mean) <= 4.0 * sd + 1.0


def test_support_never_exceeds_acceptances():
    events = stream(8, 150)
    sketch = SketchedKons(gaussian(1.0), sketch_cfg(0.2, seed=2))
    run(sketch, events)
    assert sketch.dict.solver.order == len(sketch.dict)
    assert len(sketch.dict) <= sum(r.accepted for r in sketch.records)
    # the store's selection weights are 1 on the accepted rounds, 0 elsewhere
    accepted = [float(r.accepted) for r in sketch.records]
    assert 0.0 < sum(accepted) < len(accepted)
    assert list(sketch.dict.selection_sq_weights(sketch.t)) == accepted
    assert list(sketch.dict.selection_sq_weights(60)) == accepted[:60]


@pytest.mark.parametrize("bad_round", [1, 5])
@pytest.mark.parametrize("make", [lambda: Kons(gaussian(1.0), squared_cfg()),
                                  lambda: SketchedKons(gaussian(1.0), sketch_cfg(0.5))],
                         ids=["kons", "skons"])
def test_non_finite_point_names_its_round(make, bad_round):
    events = stream(9, bad_round)
    learner = make()
    for ev in events[:-1]:
        learner.step(ev.point, ev)
    x = events[-1].point.copy()
    x[0] = np.nan
    with pytest.raises(ValueError, match=f"round {bad_round}:"):
        learner.step(x, events[-1])
    assert learner.t == bad_round - 1
    # a rejected round leaves no trace, in the sampler's rounds and coins too
    rec = learner.step(events[-1].point, events[-1])
    fresh = make()
    want = [fresh.step(ev.point, ev) for ev in events][-1]
    assert replace(rec, elapsed_us=0.0) == replace(want, elapsed_us=0.0)
    if isinstance(learner, SketchedKons):
        assert learner.kors._rounds == fresh.kors._rounds == bad_round
        for mine, theirs in ((learner.kors._rng, fresh.kors._rng),
                             (learner._coin_rng, fresh._coin_rng)):
            assert mine.random() == theirs.random()


@pytest.mark.parametrize("make", [lambda: Kons(gaussian(1.0), squared_cfg()),
                                  lambda: SketchedKons(gaussian(1.0), sketch_cfg(0.5))],
                         ids=["kons", "skons"])
def test_point_of_another_dimension_leaves_no_trace(make):
    events = stream(9, 12)
    learner = make()
    for ev in events:
        learner.step(ev.point, ev)
    # the learner's store, and the embedded sampler's where there is one
    stores = [learner.dict]
    if isinstance(learner, SketchedKons):
        stores.append(learner.kors.dict)
    before = (learner.t, len(learner.records), len(learner.rounds.points),
              [len(store) for store in stores])
    with pytest.raises(DimensionMismatch):
        learner.step(np.ones(4), events[-1])
    assert (learner.t, len(learner.records), len(learner.rounds.points),
            [len(store) for store in stores]) == before


@pytest.mark.parametrize("kernel", [gaussian(1.0), linear(), polynomial(2, 0.5)],
                         ids=lambda k: k.family)
def test_embedded_sampler_matches_a_standalone_one(kernel):
    # the embedded sampler gathers its member column from the learner's
    # kernel row; a standalone sampler evaluates it against its members.
    # Low budgets keep the dictionary at one member for some rounds, where
    # a one-row BLAS product would round differently from the learner's
    for seed, beta in ((2, 0.5), (23, 0.5), (34, 1.0)):
        events = stream(seed, 150, dim=2)
        cfg = sketch_cfg(0.1, seed=seed, beta=beta)
        learner = SketchedKons(kernel, cfg)
        run(learner, events)
        alone = KorsSampler(kernel, cfg.kors)
        rounds = learner.rounds
        for x, d_t, rec in zip(rounds.points, rounds.d_scale, learner.records, strict=True):
            assert alone.step(x, d_t).tau_tilde == rec.tau
        assert list(alone.dict.indices) == list(learner.kors.dict.indices)
        assert list(alone.dict.probs) == list(learner.kors.dict.probs)
