import numpy as np
import pytest

from koco import streams, verify
from koco.kernels import gaussian, linear
from koco.kons import Kons
from koco.losses import curvature_profile
from koco.oracle import primal_ons
from tests.test_kons import squared_cfg, unit_feature_stream

INVARIANTS = [(name, fn) for name, _, fn in verify.CHECKS
              if not name.startswith("acceptance/")]


@pytest.mark.parametrize("name,fn", INVARIANTS, ids=[n for n, _ in INVARIANTS])
def test_invariant_block(name, fn):
    passed, detail = fn()
    assert passed, f"{name}: {detail}"


def test_fast_level_is_fast_and_reports_lines(capsys):
    import time
    tic = time.perf_counter()
    results = verify.run_suite("fast")
    elapsed = time.perf_counter() - tic
    lines = capsys.readouterr().out.splitlines()
    assert elapsed < 60.0, f"fast level took {elapsed:.1f}s"
    assert len(results) >= 10
    for line, res in zip(lines, results):
        assert line.startswith("PASS " if res.passed else "FAIL ")


def test_full_level_includes_monte_carlo_suites():
    full_names = [name for name, fast, _ in verify.CHECKS if not fast]
    assert "acceptance/3-sampler-guarantees" in full_names
    assert "skons/sketch-lower-floor" in full_names


def test_tampered_coefficients_break_primal_equivalence():
    # mutation check: flipping the sign of one dual coefficient mid-run must
    # be caught by the primal-equivalence comparison
    X, events = unit_feature_stream(17, 60)
    cfg = squared_cfg()
    learner = Kons(linear(), cfg)
    preds = []
    for t, ev in enumerate(events):
        preds.append(learner.step(ev.point, ev).yhat)
        if t == 29:
            learner._b[20] = -learner._b[20]
    ref = primal_ons(X, events, cfg)
    assert np.max(np.abs(np.array(preds) - ref)) > 1e-6


def test_raised_rg_increment_breaks_rank_one_gradient_cap():
    # mutation check: one round's gradient-term increment raised past the
    # log-det margin must fail the criterion-7 chain
    spec = streams.SyntheticSpec(generator=streams.ALTERNATING_ADVERSARY,
                                 input_dim=2, horizon=60, clip_c=1.0)
    events = streams.generate_stream(spec, 0)
    prof = curvature_profile("squared", 1.0)
    learner = Kons(gaussian(1.0), squared_cfg())
    for ev in events:
        learner.step(ev.point, ev)
    records = learner.records
    passed, detail = verify.rank_one_gradient_cap(records, prof.sigma,
                                                  prof.lipschitz, 1.0)
    assert passed, detail

    S_T = sum(r.gdot**2 for r in records)
    margin = (np.log1p(prof.sigma * S_T) / prof.sigma
              - sum(r.rg_increment for r in records))
    assert margin > 0.0
    records[30].rg_increment += margin + 1e-3
    passed, detail = verify.rank_one_gradient_cap(records, prof.sigma,
                                                  prof.lipschitz, 1.0)
    assert not passed, detail
