import csv
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from koco import harness, kernels, kons, kors, oracle, skons, streams
from koco.errors import ConfigError, DimensionMismatch, StreamParseError, ZeroNormPoint
from koco.harness import (TRACE_COLUMNS, ExperimentConfig, GdBaseline, build_learner,
                          parse_config_text, run_experiment, run_stream, summarize_run)
from koco.kernels import gaussian, gram, linear, polynomial
from koco.linalg import REFRESH_EVERY
from koco.losses import LossEvent, curvature_profile, loss_value
from koco.oracle import ComparatorResult

BASE_CONFIG = """
# minimal experiment
learner = kons
kernel = gaussian
bandwidth = 1.0
loss = squared
clip_c = 1.0
alpha = 1.0
horizon = 40
generator = rkhs-target
input_dim = 2
noise_sd = 0.1
seeds = 0
"""


def test_parse_minimal_config():
    cfg = parse_config_text(BASE_CONFIG)
    assert cfg.learner == "kons"
    assert cfg.kernel == gaussian(1.0)
    assert cfg.horizon == 40
    assert cfg.seeds == (0,)
    kc = cfg.kons_config()
    assert kc.sigma == pytest.approx(0.125)  # family default
    assert kc.lipschitz == 4.0


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text(BASE_CONFIG + "bogus = 1\n")


def test_missing_required_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("learner = kons\n")


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        parse_config_text(BASE_CONFIG.replace("learner = kons", "learner = sgd"))
    with pytest.raises(ConfigError):
        parse_config_text(BASE_CONFIG.replace("clip_c = 1.0", "clip_c = -2"))
    with pytest.raises(ConfigError):
        parse_config_text(BASE_CONFIG + "stream = csv\n")  # csv without path
    with pytest.raises(ConfigError, match="unknown kernel family 'cosine'"):
        parse_config_text(BASE_CONFIG.replace("kernel = gaussian", "kernel = cosine"))
    with pytest.raises(ConfigError, match="bandwidth must be positive"):
        parse_config_text(BASE_CONFIG.replace("kernel = gaussian", "kernel = linear-normalized")
                          .replace("bandwidth = 1.0", "bandwidth = -1"))
    skons = BASE_CONFIG.replace("learner = kons", "learner = skons")
    parse_config_text(skons)
    for setting in ("gamma = 2.0", "epsilon = 0", "delta = 0", "delta = 1",
                    "beta = 0", "eta_mode = inverse-sqrt"):
        with pytest.raises(ConfigError):
            parse_config_text(skons + setting + "\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("setting", ["clip_c", "alpha", "sigma", "beta", "noise_sd", "spread"])
def test_non_finite_setting_is_a_config_error(setting, value):
    # on a skons config, which builds every setting's owner: KonsConfig,
    # KorsConfig and SyntheticSpec
    lines = BASE_CONFIG.replace("learner = kons", "learner = skons").splitlines()
    kept = [line for line in lines if not line.startswith(f"{setting} =")]
    with pytest.raises(ConfigError, match=setting):
        parse_config_text("\n".join(kept + [f"{setting} = {value}"]))


@pytest.mark.parametrize("setting, message", [
    ("bandwidth = inf", "bandwidth must be finite"),
    ("kernel = polynomial-normalized\noffset = inf", "offset must be finite"),
    ("n_centers = 0", "n_centers must be at least 1"),
    ("n_centers = -1", "n_centers must be at least 1"),
    ("cluster_count = -2", "cluster_count must be nonnegative"),
], ids=["bandwidth-inf", "offset-inf", "n_centers-0", "n_centers-negative",
        "cluster_count-negative"])
def test_kernel_and_stream_settings_are_checked(setting, message):
    keys = {line.split("=", 1)[0].strip() for line in setting.splitlines()}
    kept = [line for line in BASE_CONFIG.splitlines()
            if line.split("=", 1)[0].strip() not in keys]
    with pytest.raises(ConfigError, match=message):
        parse_config_text("\n".join(kept + [setting]))


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text(BASE_CONFIG + "alpha = 2.0\n")


@pytest.mark.parametrize("changes, message", [
    (dict(learner="skon"), "learner must be one of"),
    (dict(horizon=0), "horizon must be at least 1"),
    (dict(stream="csv"), "stream=csv requires csv_path"),
    (dict(learner="skons", gamma=2.0), r"gamma must lie in \[0, 1\]"),
    (dict(learner="skons", epsilon=0.0), r"epsilon must lie in \(0, 1\]"),
    (dict(learner="skons", delta=0.0), r"delta in \(0, 1\)"),
    (dict(learner="skons", delta=1.0), r"delta in \(0, 1\)"),
    (dict(learner="skons", beta=0.0), "beta must be positive"),
    (dict(learner="skons", eta_mode="inverse-sqrt"), "fixed positive-sigma stepsizes"),
], ids=["unknown-learner", "zero-horizon", "csv-without-path", "skons-gamma-2",
        "skons-epsilon-0", "skons-delta-0", "skons-delta-1", "skons-beta-0",
        "skons-inverse-sqrt"])
def test_experiment_config_validates_itself(changes, message):
    fields = dict(learner="kons", kernel=gaussian(1.0), loss_family="squared",
                  clip_c=1.0, alpha=1.0, horizon=40)
    ExperimentConfig(**fields)
    ExperimentConfig(**{**fields, "learner": "skons"})
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**{**fields, **changes})


@pytest.mark.parametrize("learner", ["kons", "gd-baseline"])
@pytest.mark.parametrize("changes, message", [
    (dict(gamma=-3.0), r"gamma must lie in \[0, 1\]"),
    (dict(gamma=np.nan), r"gamma must lie in \[0, 1\]"),
    (dict(epsilon=5.0), r"epsilon must lie in \(0, 1\]"),
    (dict(delta=7.0), r"delta in \(0, 1\)"),
    (dict(beta=np.nan), "beta must be positive"),
    (dict(eta_mode="inverse-sqrt", sigma=-1.0), "sigma must be nonnegative"),
], ids=["gamma-negative", "gamma-nan", "epsilon-5", "delta-7", "beta-nan",
        "inverse-sqrt-negative-sigma"])
def test_settings_the_learner_does_not_read_are_checked(learner, changes, message):
    # the sketched learner's fixed-sigma rule is its own: inverse-sqrt
    # stepsizes still build every other learner
    fields = dict(learner=learner, kernel=gaussian(1.0), loss_family="squared",
                  clip_c=1.0, alpha=1.0, horizon=40)
    ExperimentConfig(**{**fields, "eta_mode": "inverse-sqrt"})
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**{**fields, **changes})


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def read_trace(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_trace_schema_and_summary(tmp_path):
    cfg = parse_config_text(BASE_CONFIG)
    trace_path, summary = run_experiment(cfg, 0, tmp_path)
    header, rows = read_trace(trace_path)
    assert header == TRACE_COLUMNS
    assert len(rows) == 40
    assert rows[0][0] == "1"
    # consistency identity: r_t equals cumulative minus comparator loss
    assert summary.r_t == pytest.approx(
        summary.cumulative_loss - summary.comparator_loss, abs=1e-9)
    text = (tmp_path / "summary_kons_0.txt").read_text()
    assert "r_t=" in text and "bound_ok=" in text


def test_single_round_run(tmp_path):
    cfg = parse_config_text(BASE_CONFIG.replace("horizon = 40", "horizon = 1"))
    trace_path, summary = run_experiment(cfg, 0, tmp_path)
    _, rows = read_trace(trace_path)
    assert len(rows) == 1
    assert float(rows[0][2]) == 0.0  # first prediction is zero


def test_alternating_adversary_summary_has_zero_rd(tmp_path):
    cfg = parse_config_text(
        BASE_CONFIG.replace("generator = rkhs-target", "generator = sixsix-adversary"))
    _, summary = run_experiment(cfg, 0, tmp_path)
    assert abs(summary.r_d) <= 1e-9


def test_deterministic_trace_modulo_timing(tmp_path):
    # wall-clock timing is the one column that legitimately differs between
    # repeat runs of an identical seeded config
    cfg = parse_config_text(BASE_CONFIG)
    p1, _ = run_experiment(cfg, 3, tmp_path / "a")
    p2, _ = run_experiment(cfg, 3, tmp_path / "b")
    h1, r1 = read_trace(p1)
    h2, r2 = read_trace(p2)
    drop = h1.index("step_micros")
    strip = lambda rows: [[v for i, v in enumerate(row) if i != drop] for row in rows]
    assert strip(r1) == strip(r2)


def test_skons_gamma_one_matches_kons_trace(tmp_path):
    text = BASE_CONFIG + "gamma = 1.0\nbeta = 40\n"
    kons_cfg = parse_config_text(text)
    skons_cfg = parse_config_text(text.replace("learner = kons", "learner = skons"))
    p1, _ = run_experiment(kons_cfg, 1, tmp_path / "kons")
    p2, _ = run_experiment(skons_cfg, 1, tmp_path / "skons")
    _, r1 = read_trace(p1)
    _, r2 = read_trace(p2)
    yhat = TRACE_COLUMNS.index("yhat")
    assert [row[yhat] for row in r1] == [row[yhat] for row in r2]


def test_csv_stream_round_trip(tmp_path):
    from koco.streams import emit_csv
    cfg = parse_config_text(BASE_CONFIG)
    events = cfg.events(0)
    stream_path = tmp_path / "stream.csv"
    emit_csv(stream_path, events)
    csv_cfg = parse_config_text(
        BASE_CONFIG + f"stream = csv\ncsv_path = {stream_path}\n")
    assert len(csv_cfg.events(0)) == 40


@pytest.mark.parametrize("rows", [0, 39], ids=["header-only", "short"])
def test_csv_stream_must_have_horizon_rows(tmp_path, rows):
    stream_path = tmp_path / "stream.csv"
    streams.emit_csv(stream_path, parse_config_text(BASE_CONFIG).events(0))
    lines = stream_path.read_text(encoding="utf-8").splitlines(keepends=True)
    stream_path.write_text("".join(lines[: rows + 1]), encoding="utf-8")
    cfg = parse_config_text(BASE_CONFIG + f"stream = csv\ncsv_path = {stream_path}\n")
    with pytest.raises(StreamParseError,
                       match=f"stream.csv has {rows} rows, horizon is 40"):
        cfg.events(0)


@pytest.mark.parametrize("learner", ["kons", "skons"])
def test_bound_value_is_the_papers_bound(tmp_path, learner):
    cfg = parse_config_text(BASE_CONFIG.replace("learner = kons",
                                                f"learner = {learner}"))
    _, summary = run_experiment(cfg, 0, tmp_path)
    events = cfg.events(0)
    K = gram(cfg.kernel, np.vstack([ev.point for ev in events]))
    comparator = oracle.regularized_comparator(K, events, 1.0, 1.0)
    sigma, L, alpha, T = 0.125, 4.0, 1.0, 40
    d_eff = oracle.effective_dimension(K, alpha / (sigma * L * L))
    floor = 1.0
    if learner == "skons":
        D = run_stream(cfg, 0, events).rounds.d_scale
        tau_min = oracle.prefix_rls(K * np.outer(D, D), alpha).min()
        floor = max(cfg.gamma, cfg.kors_config(0).beta * tau_min)
    expected = alpha * comparator.norm_sq \
        + 2.0 * d_eff * np.log(2.0 * sigma * L * L * T) / (sigma * floor)
    assert summary.bound_value == pytest.approx(expected, rel=1e-12)
    assert summary.bound_ok == (summary.r_t <= summary.bound_value)


def test_bound_is_taken_at_the_runs_sigma(tmp_path):
    # the gradient term scales with the run's own stepsize, so the bound
    # is evaluated at the configured sigma; above the family's 0.125
    # R_D <= 0 fails, and no bound applies
    events = parse_config_text(BASE_CONFIG).events(0)
    K = gram(gaussian(1.0), np.vstack([ev.point for ev in events]))
    norm_sq = oracle.regularized_comparator(K, events, 1.0, 1.0).norm_sq
    prof = curvature_profile("squared", 1.0)
    bounds = {}
    for sigma in (0.00625, 0.125, 2.5):
        cfg = parse_config_text(BASE_CONFIG + f"sigma = {sigma}\n")
        _, summary = run_experiment(cfg, 0, tmp_path)
        bounds[sigma] = summary.bound_value
    assert bounds[0.00625] == oracle.regret_bound(K, norm_sq, 1.0,
                                                  replace(prof, sigma=0.00625), 1.0)
    assert bounds[0.125] == oracle.regret_bound(K, norm_sq, 1.0, prof, 1.0)
    assert bounds[0.00625] != bounds[0.125]
    assert bounds[2.5] is None and summary.bound_ok is None


def sketched_summary():
    """A fixed-sigma `skons` run (12 of its 40 coins rejected) summarized
    against a comparator that predicts 0; the learner, gram and summary."""
    cfg = parse_config_text(BASE_CONFIG.replace("learner = kons", "learner = skons"))
    events = cfg.events(0)
    learner = run_stream(cfg, 0, events)
    comp = ComparatorResult(coeffs=np.zeros(40), preds=np.zeros(40),
                            total_loss=float(sum(loss_value(ev, 0.0) for ev in events)),
                            norm_sq=0.0)
    K = gram(cfg.kernel, np.vstack([ev.point for ev in events]))
    return cfg, learner, comp, K, summarize_run(cfg, 0, learner, comp, K)


def test_rd_counts_the_coin():
    # a preconditioner gains eta_t g_t g_t^T only on a round whose column
    # entered, so R_D weighs eta_t by the coin z_t; at eta_t = sigma every
    # term is then nonpositive
    cfg, learner, comp, _, summary = sketched_summary()
    sigma = curvature_profile("squared", 1.0).sigma
    assert sum(r.accepted for r in learner.records) == 28
    hand = float(sum((r.eta * r.accepted - sigma) * r.gdot**2 * (r.yhat - u) ** 2
                     for r, u in zip(learner.records, comp.preds, strict=True)))
    assert summary.r_d == hand
    assert summary.r_d < 0.0


def test_sketched_floor_reads_the_learners_gram():
    # the floor's prefix leverages come from the learner's own rescaled
    # gram, the one builder of it, not from a second formula over K
    cfg, learner, comp, K, summary = sketched_summary()
    tau_min = oracle.prefix_rls(learner.gram(), cfg.alpha).min()
    floor = max(cfg.gamma, cfg.kors_config(0).beta * tau_min)
    prof = curvature_profile("squared", 1.0)
    assert summary.bound_value == oracle.regret_bound(K, comp.norm_sq, cfg.alpha,
                                                      prof, floor)


@pytest.mark.parametrize("text", [
    BASE_CONFIG.replace("learner = kons", "learner = gd-baseline"),
    BASE_CONFIG + "eta_mode = inverse-sqrt\n"], ids=["gd-baseline", "inverse-sqrt"])
def test_no_bound_outside_the_newton_step_theorem(tmp_path, text):
    _, summary = run_experiment(parse_config_text(text), 0, tmp_path)
    assert summary.r_t is not None
    assert summary.bound_value is None and summary.bound_ok is None
    assert "bound_value=none\nbound_ok=None\n" in summary.as_text()


@pytest.mark.parametrize("learner", ["kons", "gd-baseline"])
def test_summary_reports_no_rejected_appends_on_a_regular_stream(tmp_path, learner):
    cfg = parse_config_text(BASE_CONFIG.replace("learner = kons", f"learner = {learner}"))
    _, summary = run_experiment(cfg, 0, tmp_path)
    assert summary.rejected_appends == 0
    assert "\nrejected_appends=0\n" in summary.as_text()


@pytest.mark.parametrize("learner", ["kons", "skons"])
def test_summary_reports_rejected_appends(tmp_path, learner):
    # the adversary replays one point: at alpha 1e-13 every append after
    # the first is singular, and both Newton-step learners demote the
    # round; at beta 1e-3 the sketch's sampler admits nothing
    text = (BASE_CONFIG.replace("learner = kons", f"learner = {learner}")
            .replace("generator = rkhs-target", "generator = sixsix-adversary")
            .replace("alpha = 1.0", "alpha = 1e-13")
            + "gamma = 1.0\nbeta = 0.001\ncomparator = false\n")
    _, summary = run_experiment(parse_config_text(text), 0, tmp_path)
    assert summary.final_dict_size == 1 and summary.final_sampler_size == 0
    assert summary.rejected_appends == 39
    assert "\nrejected_appends=39\n" in (tmp_path / f"summary_{learner}_0.txt").read_text()


def test_singular_sampler_score_demotes_the_round(tmp_path):
    # at beta 0.1 and seed 0 the sampler admits the first point; every
    # replay of it then has a singular Schur complement and scores 0, and
    # the gamma floor still accepts the round, whose append is singular
    text = (BASE_CONFIG.replace("learner = kons", "learner = skons")
            .replace("generator = rkhs-target", "generator = sixsix-adversary")
            .replace("alpha = 1.0", "alpha = 1e-13")
            .replace("horizon = 40", "horizon = 20")
            + "gamma = 1.0\nbeta = 0.1\ncomparator = false\n")
    trace_path, summary = run_experiment(parse_config_text(text), 0, tmp_path)
    assert summary.horizon == 20
    assert summary.final_dict_size == 1 and summary.final_sampler_size == 1
    assert summary.rejected_appends == 19
    _, rows = read_trace(trace_path)
    tau = TRACE_COLUMNS.index("tau_tilde")
    assert [float(row[tau]) for row in rows[1:]] == [0.0] * 19


def test_summarize_run_regret_zero_against_self():
    # against a comparator that plays the learner's own predictions, the
    # regret and the stepsize-excess term both vanish
    cfg = parse_config_text(BASE_CONFIG)
    events = cfg.events(0)
    learner = run_stream(cfg, 0, events)
    preds = np.array([r.yhat for r in learner.records])
    comp = ComparatorResult(coeffs=np.zeros(40), preds=preds,
                            total_loss=float(sum(r.loss for r in learner.records)),
                            norm_sq=0.0)
    K = gram(cfg.kernel, np.vstack([ev.point for ev in events]))
    summary = summarize_run(cfg, 0, learner, comp, K)
    assert summary.r_t == pytest.approx(0.0, abs=1e-12)
    assert summary.r_d == pytest.approx(0.0, abs=1e-12)


def test_run_stream_names_the_round_of_a_kernel_error():
    cfg = parse_config_text(BASE_CONFIG.replace("kernel = gaussian",
                                                "kernel = linear-normalized"))
    events = cfg.events(0)
    events[2] = LossEvent(np.zeros(2), "squared", events[2].target)
    with pytest.raises(ZeroNormPoint, match="^round 3: linear-normalized kernel"):
        run_stream(cfg, 0, events)


@pytest.mark.parametrize("learner", ["kons", "gd-baseline"])
def test_run_stream_names_round_one_of_a_kernel_error(learner):
    # no point is stored before round 1, so the first point is scored
    # against itself
    cfg = parse_config_text(BASE_CONFIG.replace("kernel = gaussian",
                                                "kernel = linear-normalized")
                            .replace("learner = kons", f"learner = {learner}"))
    events = cfg.events(0)[:5]
    events[0] = LossEvent(np.zeros(2), "squared", events[0].target)
    with pytest.raises(ZeroNormPoint, match="^round 1: linear-normalized kernel"):
        run_stream(cfg, 0, events)


@pytest.mark.parametrize("learner, expected", [("kons", 1), ("skons", 1),
                                               ("gd-baseline", 0)])
def test_summary_counts_refreshes(learner, expected):
    # one refresh per REFRESH_EVERY appends of the learner's inverse: at
    # gamma 1 every sketch column enters, as in the exact learner; the
    # sampler's factor is never rebuilt and counts nothing
    text = (BASE_CONFIG.replace("learner = kons", f"learner = {learner}")
            .replace("horizon = 40", f"horizon = {REFRESH_EVERY}")
            + "gamma = 1.0\ncomparator = false\n")
    cfg = parse_config_text(text)
    run = run_stream(cfg, 0, cfg.events(0))
    summary = summarize_run(cfg, 0, run, None, None)
    assert summary.refreshes == expected
    assert (f"\nrejected_appends=0\nrefreshes={expected}\nq_floor_clamps=0\n"
            in summary.as_text())


@pytest.mark.parametrize("learner", ["kons", "skons", "gd-baseline"])
def test_summary_reports_the_audit_residual(learner):
    # the largest audit over the learner's preconditioner and its sampler's
    # dictionary; a gd-baseline run keeps no solver
    cfg = parse_config_text(BASE_CONFIG.replace("learner = kons", f"learner = {learner}")
                            + "comparator = false\n")
    run = run_stream(cfg, 0, cfg.events(0))
    residual = summarize_run(cfg, 0, run, None, None).audit_residual
    if learner == "gd-baseline":
        assert residual == 0.0
        return
    assert 0.0 < residual <= 1e-8
    if learner == "skons":
        # one corrupted entry of the sampler's stored factor shows
        run.kors.dict.solver._ap[4] += 1e-3
        assert summarize_run(cfg, 0, run, None, None).audit_residual > 1e-6


def test_csv_run_reads_its_stream_once(tmp_path, monkeypatch):
    stream_path = tmp_path / "stream.csv"
    streams.emit_csv(stream_path, parse_config_text(BASE_CONFIG).events(0))
    cfg = parse_config_text(BASE_CONFIG + f"stream = csv\ncsv_path = {stream_path}\n")
    calls = []
    ingest = streams.ingest_csv

    def counted(*args, **kwargs):
        calls.append(args)
        return ingest(*args, **kwargs)

    monkeypatch.setattr(streams, "ingest_csv", counted)
    _, summary = run_experiment(cfg, 0, tmp_path / "out")
    assert len(calls) == 1
    assert summary.horizon == 40 and summary.bound_value is not None


def test_gd_baseline_steps():
    gd = GdBaseline(gaussian(1.0), clip_c=1.0, lipschitz=4.0)
    x = np.array([0.2, -0.1])
    rec = gd.step(x, LossEvent(x, "squared", 0.5))
    assert rec.yhat == 0.0
    # one-step update: coefficient is -eta_1 * gdot = -(1/(4*1*1)) * (-1)
    assert gd.rounds.d_scale[0] == pytest.approx(0.25)
    ybar, yhat = gd.predict(x)
    assert ybar == pytest.approx(0.25)


def test_gd_baseline_zero_derivative_stays_zero():
    gd = GdBaseline(gaussian(1.0), clip_c=1.0, lipschitz=4.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=2)
        gd.step(x, LossEvent(x, "squared", 0.0))
    assert all(r.yhat == 0.0 for r in gd.records)


@pytest.mark.parametrize("bad_round", [1, 2])
def test_gd_baseline_non_finite_point_names_its_round(bad_round):
    gd = GdBaseline(gaussian(1.0), clip_c=1.0, lipschitz=4.0)
    x = np.array([0.2, -0.1])
    for _ in range(bad_round - 1):
        gd.step(x, LossEvent(x, "squared", 0.5))
    bad = np.array([np.nan, 0.0])
    with pytest.raises(ValueError, match=f"round {bad_round}: point contains NaN/Inf"):
        gd.step(bad, LossEvent(bad, "squared", 0.5))
    assert gd.t == bad_round - 1
    # a rejected round leaves no trace
    fresh = GdBaseline(gaussian(1.0), clip_c=1.0, lipschitz=4.0)
    for _ in range(bad_round):
        want = fresh.step(x, LossEvent(x, "squared", 0.5))
    rec = gd.step(x, LossEvent(x, "squared", 0.5))
    assert replace(rec, elapsed_us=0.0) == replace(want, elapsed_us=0.0)


STEPPERS = ["kons", "skons", "gd-baseline", "kors"]


def stepper(name, kernel, d_t=1.0):
    """A function that steps one point through one of the four steppers
    over kernel: a learner `build_learner` builds, or a standalone
    sampler at rescale factor d_t (at 0 its dictionary stays empty)."""
    cfg = replace(parse_config_text(BASE_CONFIG), kernel=kernel)
    if name == "kors":
        sampler = kors.KorsSampler(kernel, cfg.kors_config(0))
        return lambda x: sampler.step(x, d_t)
    learner = build_learner(replace(cfg, learner=name), 0)
    return lambda x: learner.step(x, LossEvent(x, "squared", 0.5))


@pytest.mark.parametrize("name", STEPPERS)
@pytest.mark.parametrize("bad, error", [(np.zeros(2), ZeroNormPoint),
                                        (np.ones(3), DimensionMismatch),
                                        (np.array([np.nan, 1.0]), ValueError)],
                         ids=["zero", "length", "nan"])
def test_a_direct_step_names_the_round_of_a_bad_point(name, bad, error):
    # the stream's rounds check the point and name its round, for every
    # error, outside run_stream too; a sampler with no member checks the
    # length against the points it has kept
    step = stepper(name, linear(), d_t=0.0)
    for x in ([0.2, -0.1], [0.5, 0.3]):
        step(np.array(x))
    with pytest.raises(error, match="^round 3: "):
        step(bad)


@pytest.mark.parametrize("name", STEPPERS)
@pytest.mark.parametrize("kernel", [linear(), polynomial(2, 0.5)], ids=["linear", "polynomial"])
def test_a_step_computes_one_self_term(name, kernel, monkeypatch):
    # the rounds cache each point's own cosine term, so a step computes
    # the query's alone, once, whichever stepper takes it
    rows = []

    def counted(spec, H, self_terms=kernels._self_terms):
        rows.append(len(H))
        return self_terms(spec, H)

    for module in (kernels, kons, kors, skons, harness):
        if hasattr(module, "_self_terms"):
            monkeypatch.setattr(module, "_self_terms", counted)
    step = stepper(name, kernel)
    rng = np.random.default_rng(0)
    for t in range(1, 21):
        rows.clear()
        step(rng.normal(size=2))
        assert sum(rows) == 1, (t, rows)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "koco.cli", *args],
                          capture_output=True, text=True)


def test_cli_run_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "exp.conf"
    cfg_path.write_text(BASE_CONFIG + f"out_dir = {tmp_path/'out'}\n")
    done = run_cli("run", "--config", str(cfg_path))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "trace_kons_0.csv").exists()

    bad = run_cli("run", "--config", str(tmp_path / "missing.conf"))
    assert bad.returncode == 2


def test_cli_config_error_is_exit_two(tmp_path):
    cfg_path = tmp_path / "bad.conf"
    cfg_path.write_text(BASE_CONFIG + "mystery = 1\n")
    done = run_cli("run", "--config", str(cfg_path))
    assert done.returncode == 2
    assert "unknown key" in done.stderr

    cfg_path.write_text(BASE_CONFIG.replace("learner = kons", "learner = skons")
                        + "gamma = 2\n")
    done = run_cli("run", "--config", str(cfg_path))
    assert done.returncode == 2
    assert done.stderr.splitlines() == ["config error: gamma must lie in [0, 1]"]

    cfg_path.write_text(BASE_CONFIG.replace("kernel = gaussian", "kernel = linear-normalized")
                        .replace("bandwidth = 1.0", "bandwidth = -1"))
    done = run_cli("run", "--config", str(cfg_path))
    assert done.returncode == 2
    assert done.stderr.splitlines() == ["config error: bandwidth must be positive"]


def test_cli_run_stops_at_a_non_finite_prediction(tmp_path):
    # at alpha = 1e-8 the exact learner's inverse loses precision and its
    # unclipped prediction turns NaN at round 334: the run stops there with
    # exit 1 and writes no summary, not cumulative_loss=nan
    cfg_path = tmp_path / "tiny-alpha.conf"
    cfg_path.write_text("kernel = gaussian\nloss = squared\nclip_c = 1\nalpha = 1e-8\n"
                        f"horizon = 600\nlearner = kons\nout_dir = {tmp_path / 'out'}\n")
    done = run_cli("run", "--config", str(cfg_path))
    assert done.returncode == 1, done.stdout
    named = [line for line in done.stderr.splitlines() if "round" in line]
    assert named == ["run failed at NonFinitePrediction: round 334: prediction is nan; "
                     "the preconditioner lost precision"]
    assert not (tmp_path / "out" / "summary_kons_0.txt").exists()


def test_cli_gen_emits_stream(tmp_path):
    cfg_path = tmp_path / "exp.conf"
    cfg_path.write_text(BASE_CONFIG)
    out = tmp_path / "stream.csv"
    done = run_cli("gen", "--spec", str(cfg_path), "--out", str(out), "--seed", "4")
    assert done.returncode == 0
    assert out.exists()
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["f1", "f2", "target"]
    assert len(rows) == 41


def test_cli_gen_reports_a_bad_stream_without_traceback(tmp_path):
    stream_path = tmp_path / "stream.csv"
    stream_path.write_text("f1,f2,target\n0.1,0.2,0.5\n0.3,0.4,5.0\n")
    cfg_path = tmp_path / "exp.conf"
    cfg_path.write_text(BASE_CONFIG.replace("horizon = 40", "horizon = 2")
                        + f"stream = csv\ncsv_path = {stream_path}\n")
    done = run_cli("gen", "--spec", str(cfg_path), "--out", str(tmp_path / "out.csv"))
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "gen failed at TargetOutOfRange: targets exceed |target| <= 1.0 on rows [3]"]
