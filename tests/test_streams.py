import numpy as np
import pytest

from koco.errors import StreamParseError, TargetOutOfRange
from koco.kernels import cross_vector, gaussian, linear, polynomial
from koco.rng import named_rng
from koco.streams import (SyntheticSpec, emit_csv, generate_stream, ingest_csv)


def test_alternating_adversary_exact_pattern():
    spec = SyntheticSpec(generator="sixsix-adversary", input_dim=2, horizon=4,
                         clip_c=1.0)
    events = generate_stream(spec, 0)
    assert [ev.target for ev in events] == [1.0, -1.0, 1.0, -1.0]
    assert all(np.array_equal(ev.point, events[0].point) for ev in events)
    assert all(ev.family == "squared" for ev in events)


@pytest.mark.parametrize("family", ["logistic", "squared-hinge"])
def test_alternating_adversary_follows_the_loss_family(family):
    spec = SyntheticSpec(generator="sixsix-adversary", input_dim=2, horizon=5,
                         clip_c=2.0)
    events = generate_stream(spec, 0, family=family)
    assert [ev.target for ev in events] == [1.0, -1.0, 1.0, -1.0, 1.0]
    assert all(np.array_equal(ev.point, np.ones(2)) for ev in events)
    assert all(ev.family == family for ev in events)


def test_rkhs_target_noise_free_is_clamped_function():
    spec = SyntheticSpec(generator="rkhs-target", input_dim=2, horizon=50,
                         n_centers=4, noise_sd=0.0, clip_c=1.0)
    events = generate_stream(spec, 3, kernel=gaussian(1.0))
    ys = np.array([ev.target for ev in events])
    assert np.max(np.abs(ys)) <= 1.0
    again = generate_stream(spec, 3, kernel=gaussian(1.0))
    assert all(ev.target == ev2.target for ev, ev2 in zip(events, again))


@pytest.mark.parametrize("kernel", [gaussian(0.8), linear(), polynomial(3, 0.5)],
                         ids=lambda k: k.family)
def test_rkhs_targets_are_the_per_point_evaluation(kernel):
    # the generator may evaluate its target over the whole stream at once,
    # but every target is bit for bit the one a row per point gives
    for seed in range(6):
        spec = SyntheticSpec(generator="rkhs-target", input_dim=3, horizon=300,
                             n_centers=8, noise_sd=0.1, clip_c=1.0)
        rng = named_rng(seed, "stream")
        xs = rng.normal(size=(spec.horizon, spec.input_dim))
        centers = rng.normal(size=(spec.n_centers, spec.input_dim))
        coef = rng.normal(size=spec.n_centers)
        f = np.array([float(coef @ cross_vector(kernel, centers, x)) for x in xs])
        f *= 0.8 * spec.clip_c / np.max(np.abs(f))
        raw = np.clip(f + spec.noise_sd * rng.normal(size=spec.horizon), -1.0, 1.0)
        events = generate_stream(spec, seed, kernel=kernel)
        assert np.array_equal(np.array([ev.point for ev in events]), xs)
        got = np.array([ev.target for ev in events])
        assert got.tobytes() == raw.tobytes(), f"seed {seed}"


def test_same_seed_identical_different_seed_not():
    spec = SyntheticSpec(generator="rkhs-target", input_dim=3, horizon=30,
                         noise_sd=0.2)
    a = generate_stream(spec, 5)
    b = generate_stream(spec, 5)
    c = generate_stream(spec, 6)
    assert all(np.array_equal(x.point, y.point) and x.target == y.target
               for x, y in zip(a, b))
    assert any(not np.array_equal(x.point, y.point) for x, y in zip(a, c))


def test_orthogonal_drift_spacing():
    spec = SyntheticSpec(generator="orthogonal-drift", input_dim=2, horizon=5,
                         spread=10.0)
    events = generate_stream(spec, 0)
    xs = np.array([ev.point[0] for ev in events])
    assert np.allclose(np.diff(xs), 10.0)


@pytest.mark.parametrize("clip_c", [0.0, -1.0, float("inf"), float("nan")])
def test_spec_clip_c_must_be_positive_and_finite(clip_c):
    # a generator that is not built through an ExperimentConfig checks C itself
    with pytest.raises(ValueError, match="clip_c must be positive and finite"):
        SyntheticSpec(generator="sixsix-adversary", input_dim=2, horizon=4, clip_c=clip_c)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_ingest_minimal_target_file(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("f1,target\n0.1,0.5\n", encoding="utf-8")
    events = ingest_csv(p, "squared", 1.0)
    assert len(events) == 1
    assert events[0].point.shape == (1,)
    assert events[0].target == 0.5


def test_ingest_rejects_zero_label(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("f1,label\n0.1,0\n", encoding="utf-8")
    with pytest.raises(StreamParseError) as err:
        ingest_csv(p, "logistic", 1.0)
    assert err.value.line == 2


def test_ingest_rejects_out_of_range_targets(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("f1,target\n0.0,0.5\n0.0,2.5\n0.0,-3.0\n", encoding="utf-8")
    with pytest.raises(TargetOutOfRange) as err:
        ingest_csv(p, "squared", 1.0)
    assert "3" in str(err.value) and "4" in str(err.value)


def test_ingest_rejects_non_finite_values(tmp_path):
    feature = tmp_path / "feature.csv"
    feature.write_text("f1,f2,target\n0.1,0.2,0.5\n0.3,nan,0.5\n", encoding="utf-8")
    with pytest.raises(StreamParseError) as err:
        ingest_csv(feature, "squared", 1.0)
    assert err.value.line == 3
    target = tmp_path / "target.csv"
    target.write_text("f1,f2,target\n0.1,0.2,inf\n0.3,0.4,0.5\n", encoding="utf-8")
    with pytest.raises(StreamParseError) as err:
        ingest_csv(target, "squared", 1.0)
    assert err.value.line == 2


def test_ingest_validates_header(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("a,b\n0.0,0.5\n", encoding="utf-8")
    with pytest.raises(StreamParseError):
        ingest_csv(p, "squared", 1.0)


def test_round_trip_thousand_rows(tmp_path):
    spec = SyntheticSpec(generator="rkhs-target", input_dim=3, horizon=1000,
                         noise_sd=0.3)
    events = generate_stream(spec, 9)
    p = tmp_path / "big.csv"
    emit_csv(p, events)
    back = ingest_csv(p, "squared", 1.0)
    assert len(back) == 1000
    for a, b in zip(events, back):
        assert np.array_equal(a.point, b.point)
        assert a.target == b.target


def test_round_trip_labels(tmp_path):
    spec = SyntheticSpec(generator="rkhs-target", input_dim=2, horizon=20,
                         noise_sd=0.5)
    events = generate_stream(spec, 1, family="logistic")
    p = tmp_path / "lab.csv"
    emit_csv(p, events)
    back = ingest_csv(p, "logistic", 1.0)
    assert [ev.target for ev in back] == [ev.target for ev in events]
