"""Experiment runner: config parsing, learner orchestration, trace and
summary emission.

Configs are flat key=value text files whose keys are ExperimentConfig's
fields (with KernelSpec's for the kernel), parsed by each field's type,
with unknown keys rejected; the config validates every setting when it
is built, also one its learner does not read, so an experiment is fully
described by one diffable file plus one master seed.
"""

from __future__ import annotations

import csv
import time
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import kernels, losses, oracle, streams
from .errors import ConfigError, KocoError, StreamParseError
from .kernels import KernelSpec, cross_vector
from .kons import Kons, KonsConfig, StepRecord
from .kors import KorsConfig, Rounds, required_budget
from .losses import LossEvent, clip_to_interval, curvature_profile, loss_derivative, loss_value
from .skons import SketchedKons, SkonsConfig
from .streams import SyntheticSpec

TRACE_COLUMNS = ["t", "ybar", "yhat", "loss", "gdot", "eta", "tau_tilde",
                 "p_tilde", "z", "dict_size", "rg_inc", "step_micros"]

LEARNERS = ("kons", "skons", "gd-baseline")


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """The one description of a run; validates itself, and its defaults are the only ones."""

    learner: str
    kernel: KernelSpec
    loss_family: str
    clip_c: float
    alpha: float
    horizon: int
    eta_mode: str = "fixed-sigma"
    sigma: float | None = None          # default: loss-family curvature constant
    stream: str = "synthetic"           # 'synthetic' | 'csv'
    csv_path: str | None = None
    generator: str = streams.RKHS_TARGET
    input_dim: int = 3
    n_centers: int = 8
    noise_sd: float = 0.0
    spread: float = 8.0
    cluster_count: int = 0
    gamma: float = 0.0                  # skons only
    epsilon: float = 0.5                # sampler accuracy
    beta: float | None = None           # default: required budget at delta
    delta: float = 0.1
    seeds: tuple[int, ...] = (0,)
    out_dir: str = "runs"
    comparator: bool = True             # fit the offline comparator for regret

    def __post_init__(self):
        if self.learner not in LEARNERS:
            raise ValueError(f"learner must be one of {LEARNERS}, got {self.learner!r}")
        if self.loss_family not in losses.FAMILIES:
            raise ValueError(f"loss must be one of {losses.FAMILIES}, "
                             f"got {self.loss_family!r}")
        if not self.seeds:
            raise ValueError("seeds must not be empty")
        if self.stream not in ("synthetic", "csv"):
            raise ValueError(f"stream must be synthetic or csv, got {self.stream!r}")
        if self.stream == "csv" and self.csv_path is None:
            raise ValueError("stream=csv requires csv_path")
        # every setting is checked, read or not; fixed-sigma is skons's own rule
        self.kons_config()     # clip_c, alpha, eta_mode, sigma
        self.synthetic_spec()  # generator, horizon >= 1, input_dim
        self.kors_config(self.seeds[0])  # epsilon, beta, delta
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.learner == "skons":  # stepsizes
            self.skons_config(self.seeds[0])

    def kons_config(self) -> KonsConfig:
        prof = curvature_profile(self.loss_family, self.clip_c)
        sigma = prof.sigma if self.sigma is None else self.sigma
        return KonsConfig(clip_c=self.clip_c, alpha=self.alpha,
                          eta_mode=self.eta_mode, sigma=sigma,
                          lipschitz=prof.lipschitz)

    def kors_config(self, seed: int) -> KorsConfig:
        beta = self.beta
        if beta is None:
            beta = required_budget(self.horizon, self.delta, self.epsilon)
        return KorsConfig(alpha=self.alpha, epsilon=self.epsilon, beta=beta,
                          delta=self.delta, rng_seed=seed)

    def skons_config(self, seed: int) -> SkonsConfig:
        return SkonsConfig(kons=self.kons_config(),
                           kors=self.kors_config(seed), gamma=self.gamma)

    def synthetic_spec(self) -> SyntheticSpec:
        return SyntheticSpec(generator=self.generator, input_dim=self.input_dim,
                             horizon=self.horizon, n_centers=self.n_centers,
                             noise_sd=self.noise_sd, clip_c=self.clip_c,
                             spread=self.spread, cluster_count=self.cluster_count)

    def events(self, seed: int) -> list[LossEvent]:
        if self.stream == "csv":
            events = streams.ingest_csv(self.csv_path, self.loss_family, self.clip_c)
            if len(events) != self.horizon:
                raise StreamParseError(f"{self.csv_path} has {len(events)} rows, "
                                       f"horizon is {self.horizon}")
            return events
        return streams.generate_stream(self.synthetic_spec(), seed,
                                       kernel=self.kernel, family=self.loss_family)


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError("must be true or false")
    return text.lower() == "true"


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


# parser of each field annotation a config key may carry ("| None" stripped)
_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool,
            "tuple[int, ...]": _parse_ints}


def _config_keys() -> dict[str, tuple]:
    """Config key -> (owning dataclass, field name, parser, required), in
    field order, with the kernel field expanded into KernelSpec's fields.
    A key is its field's name, except `loss` and `kernel`."""
    keys = {}
    for f in fields(ExperimentConfig):
        owner = KernelSpec if f.type == "KernelSpec" else ExperimentConfig
        for g in (fields(KernelSpec) if owner is KernelSpec else (f,)):
            parser = _PARSERS.get(g.type.removesuffix(" | None"))
            if parser is None:
                raise TypeError(f"config field {g.name!r} has no parser for {g.type!r}")
            key = {"loss_family": "loss", "family": "kernel"}.get(g.name, g.name)
            keys[key] = (owner, g.name, parser, g.default is MISSING)
    return keys


_CONFIG_KEYS = _config_keys()


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate a key=value config; unknown keys are rejected.

    The keys are ExperimentConfig's fields (`loss` for `loss_family`) and
    KernelSpec's (`kernel` for `family`); keys the text leaves out take
    those dataclasses' defaults."""
    args: dict = {KernelSpec: {}, ExperimentConfig: {}}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key=value, got {body!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        owner, name, parser, _ = _CONFIG_KEYS[key]
        if name in args[owner]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            args[owner][name] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None
    for key, (owner, name, _, required) in _CONFIG_KEYS.items():
        if required and name not in args[owner]:
            raise ConfigError(f"missing required key {key!r}")

    cfg_args = args[ExperimentConfig]
    csv_path = cfg_args.get("csv_path")
    if cfg_args.get("stream") == "csv" and csv_path is not None \
            and not Path(csv_path).exists():
        raise ConfigError(f"csv_path does not exist: {csv_path}")
    try:
        return ExperimentConfig(kernel=KernelSpec(**args[KernelSpec]), **cfg_args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# functional gradient-descent baseline
# ---------------------------------------------------------------------------

class GdBaseline:
    """First-order kernel learner: one coefficient -eta_t*gdot per round,
    kept with the round's point in `rounds` as its `d_scale`."""

    def __init__(self, kernel: KernelSpec, clip_c: float, lipschitz: float):
        self.kernel = kernel
        self.clip_c = clip_c
        self.lipschitz = lipschitz
        self.t = 0
        self.rounds = Rounds()
        self.records: list[StepRecord] = []

    def predict(self, x) -> tuple[float, float]:
        k = cross_vector(self.kernel, self.rounds.points, x)
        ybar = float(k @ self.rounds.d_scale)
        return ybar, clip_to_interval(ybar, self.clip_c)

    def step(self, x, ev: LossEvent) -> StepRecord:
        tic = time.perf_counter_ns()
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        t_new = self.t + 1
        try:  # the point's one check, its NaN/Inf error named with the round
            ybar, yhat = self.predict(x)
        except ValueError as exc:
            raise ValueError(f"round {t_new}: {exc}") from None
        eta = 1.0 / (self.lipschitz * self.clip_c * np.sqrt(t_new))
        gdot = loss_derivative(ev, yhat)
        self.rounds.append(x, -eta * gdot)
        self.t = t_new
        rec = StepRecord(t=t_new, ybar=ybar, yhat=yhat,
                         loss=loss_value(ev, yhat), gdot=gdot, eta=eta,
                         tau=0.0, p_accept=1.0, accepted=1, dict_size=t_new,
                         rg_increment=0.0,
                         elapsed_us=(time.perf_counter_ns() - tic) / 1e3)
        self.records.append(rec)
        return rec


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

@dataclass
class RunSummary:
    learner: str
    seed: int
    horizon: int
    cumulative_loss: float
    comparator_loss: float | None
    r_t: float | None
    r_g: float
    r_d: float | None
    final_dict_size: int
    final_sampler_size: int
    rejected_appends: int  # accepted columns demoted by a singular Schur complement
    refreshes: int         # preconditioner rebuilds (one per REFRESH_EVERY appends)
    q_floor_clamps: int    # nonzero-derivative rounds whose q_t was floored at Q_FLOOR
    audit_residual: float  # largest final solver audit over the learner's stores (0 for none)
    mean_step_us: float
    max_step_us: float
    bound_value: float | None = None
    bound_ok: bool | None = None

    def as_text(self) -> str:
        """One `field=value` line per field, in order; floats through _fmt."""
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            lines.append(f"{f.name}={_fmt(v) if f.type.startswith('float') else v}\n")
        return "".join(lines)


def _fmt(v):
    if v is None:
        return "none"
    return repr(float(v))


def build_learner(cfg: ExperimentConfig, seed: int):
    if cfg.learner == "kons":
        return Kons(cfg.kernel, cfg.kons_config())
    if cfg.learner == "skons":
        return SketchedKons(cfg.kernel, cfg.skons_config(seed))
    prof = curvature_profile(cfg.loss_family, cfg.clip_c)
    return GdBaseline(cfg.kernel, cfg.clip_c, prof.lipschitz)


def write_trace(path, records: list[StepRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in records:
            writer.writerow([r.t, repr(float(r.ybar)), repr(float(r.yhat)),
                             repr(float(r.loss)), repr(float(r.gdot)),
                             repr(float(r.eta)), repr(float(r.tau)),
                             repr(float(r.p_accept)), r.accepted, r.dict_size,
                             repr(float(r.rg_increment)), int(round(r.elapsed_us))])


def run_stream(cfg: ExperimentConfig, seed: int, events: list[LossEvent]):
    """`build_learner`'s learner for cfg at seed, stepped through events;
    a KocoError raised by a round is prefixed with that round, unless
    its message names it already."""
    learner = build_learner(cfg, seed)
    for t, ev in enumerate(events, start=1):
        try:
            learner.step(ev.point, ev)
        except KocoError as exc:
            if not str(exc).startswith(f"round {t}: "):
                exc.args = (f"round {t}: {exc}",)
            raise
    return learner


def run_experiment(cfg: ExperimentConfig, seed: int,
                   out_dir=None) -> tuple[Path, RunSummary]:
    """Run one seed of the configured experiment.

    Writes `trace_<learner>_<seed>.csv` (schema TRACE_COLUMNS) and
    `summary_<learner>_<seed>.txt` (flat key=value) under the output
    directory and returns the trace path plus the in-memory summary.
    """
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    events = cfg.events(seed)
    learner = run_stream(cfg, seed, events)

    comparator = K = None
    if cfg.comparator:
        K = kernels.gram(cfg.kernel, np.vstack([ev.point for ev in events]))
        comparator = oracle.regularized_comparator(K, events, cfg.clip_c, cfg.alpha)

    summary = summarize_run(cfg, seed, learner, comparator, K)
    trace_path = out / f"trace_{cfg.learner}_{seed}.csv"
    write_trace(trace_path, learner.records)
    (out / f"summary_{cfg.learner}_{seed}.txt").write_text(
        summary.as_text(), encoding="utf-8")
    return trace_path, summary


def summarize_run(cfg: ExperimentConfig, seed: int, learner, comparator,
                  K: np.ndarray | None) -> RunSummary:
    """Summary of a finished run; K, the gram of its stream, is needed with
    a comparator.

    The regret R_T is the cumulative loss less the comparator's, and the
    two terms that Theorem 1 bounds it by are R_G, the sum of the records'
    gradient-term increments, and R_D = sum_t (eta_t z_t - sigma) gdot_t^2
    (yhat_t - u_t)^2, with u_t the comparator's prediction, sigma the
    loss family's curvature constant on [-C, C], and z_t the coin: a
    preconditioner gains eta_t g_t g_t^T only on a round whose column
    entered. The regret bound covers fixed-sigma `kons` (floor 1) and
    `skons` (floor max(gamma, beta * min prefix leverage)), nothing else,
    and is taken at the run's own sigma; above the family's constant
    R_D <= 0 fails, and no bound applies."""
    records = learner.records
    prof = curvature_profile(cfg.loss_family, cfg.clip_c)
    cumulative = float(sum(r.loss for r in records))
    r_g = float(sum(r.rg_increment for r in records))
    times = np.array([r.elapsed_us for r in records])
    comparator_loss = r_t = r_d = None
    bound_value = bound_ok = None
    if comparator is not None:
        if len(records) != len(comparator.preds):
            raise ValueError("trace and comparator cover different horizons")
        comparator_loss = comparator.total_loss
        r_t = cumulative - comparator.total_loss
        r_d = float(sum((r.eta * r.accepted - prof.sigma) * r.gdot**2
                        * (r.yhat - comparator.preds[i]) ** 2
                        for i, r in enumerate(records)))
        sigma = cfg.kons_config().sigma
        floor = 0.0  # no bound applies
        if cfg.eta_mode == "fixed-sigma" and sigma <= prof.sigma:
            if cfg.learner == "kons":
                floor = 1.0
            elif cfg.learner == "skons":
                tau_min = float(oracle.prefix_rls(learner.gram(), cfg.alpha).min())
                floor = max(cfg.gamma, cfg.kors_config(seed).beta * tau_min)
        if floor > 0:
            bound_value = oracle.regret_bound(K, comparator.norm_sq, cfg.alpha,
                                              replace(prof, sigma=sigma), floor)
            bound_ok = bool(r_t <= bound_value)
    sampler_size = len(learner.kors.dict) if hasattr(learner, "kors") else 0
    # each solver against the gram rebuilt from its store's members, once,
    # at the end: an audit at order n costs an n³ product
    stores = [lr.dict for lr in (learner, getattr(learner, "kors", None))
              if hasattr(lr, "dict")]
    audit = max((st.solver.audit(st.gram()) for st in stores), default=0.0)
    return RunSummary(
        learner=cfg.learner, seed=seed, horizon=len(records),
        cumulative_loss=cumulative, comparator_loss=comparator_loss,
        r_t=r_t, r_g=r_g, r_d=r_d,
        final_dict_size=records[-1].dict_size if records else 0,
        final_sampler_size=sampler_size,
        rejected_appends=getattr(learner, "rejected_appends", 0),
        refreshes=getattr(learner, "refreshes", 0),
        q_floor_clamps=getattr(learner, "q_floor_clamps", 0),
        audit_residual=audit,
        mean_step_us=float(times.mean()) if len(times) else 0.0,
        max_step_us=float(times.max()) if len(times) else 0.0,
        bound_value=bound_value, bound_ok=bound_ok)
