"""Experiment runner: config parsing, learner orchestration, trace and
summary emission.

Configs are flat key=value text files with explicit schema validation
and unknown-key rejection, so an experiment is fully described by one
diffable file plus one master seed.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels, losses, oracle, streams
from .errors import ConfigError, KocoError
from .kernels import KernelSpec, cross_vector
from .kons import Kons, KonsConfig, StepRecord, regret_report
from .kors import KorsConfig, required_budget
from .linalg import grown
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
        self.kons_config()     # clip_c, alpha, eta_mode, sigma
        self.synthetic_spec()  # generator, horizon >= 1, input_dim

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
            return streams.ingest_csv(self.csv_path, self.loss_family, self.clip_c)
        return streams.generate_stream(self.synthetic_spec(), seed,
                                       kernel=self.kernel, family=self.loss_family)


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"seeds must be integers, got {text!r}") from None


def _parse_comparator(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ConfigError("comparator must be true or false")
    return text.lower() == "true"


_SCHEMA: dict[str, tuple] = {
    # key: (parser, required)
    "learner": (str, True),
    "kernel": (str, True),
    "bandwidth": (float, False),
    "degree": (int, False),
    "offset": (float, False),
    "loss": (str, True),
    "clip_c": (float, True),
    "alpha": (float, True),
    "horizon": (int, True),
    "eta_mode": (str, False),
    "sigma": (float, False),
    "stream": (str, False),
    "csv_path": (str, False),
    "generator": (str, False),
    "input_dim": (int, False),
    "n_centers": (int, False),
    "noise_sd": (float, False),
    "spread": (float, False),
    "cluster_count": (int, False),
    "gamma": (float, False),
    "epsilon": (float, False),
    "beta": (float, False),
    "delta": (float, False),
    "seeds": (_parse_seeds, False),
    "out_dir": (str, False),
    "comparator": (_parse_comparator, False),
}

# keys that build the kernel rather than name an ExperimentConfig field
_KERNEL_KEYS = ("kernel", "bandwidth", "degree", "offset")


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate a key=value config; unknown keys are rejected.

    Keys the text leaves out take the ExperimentConfig defaults."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key=value, got {body!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    for key, (_, required) in _SCHEMA.items():
        if required and key not in raw:
            raise ConfigError(f"missing required key {key!r}")

    def take(key, default=None):
        if key not in raw:
            return default
        parser = _SCHEMA[key][0]
        try:
            return parser(raw[key])
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None

    kern_name = take("kernel")
    try:
        if kern_name == kernels.GAUSSIAN:
            kern = kernels.gaussian(take("bandwidth", 1.0))
        elif kern_name == kernels.LINEAR:
            kern = kernels.linear()
        elif kern_name == kernels.POLYNOMIAL:
            kern = kernels.polynomial(take("degree", 2), take("offset", 0.0))
        else:
            raise ConfigError(f"unknown kernel {kern_name!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    fields = {"loss_family" if key == "loss" else key: take(key)
              for key in raw if key not in _KERNEL_KEYS}
    csv_path = fields.get("csv_path")
    if fields.get("stream") == "csv" and csv_path is not None \
            and not Path(csv_path).exists():
        raise ConfigError(f"csv_path does not exist: {csv_path}")
    try:
        return ExperimentConfig(kernel=kern, **fields)
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
    """First-order kernel learner: one coefficient -eta_t*gdot per round."""

    def __init__(self, kernel: KernelSpec, clip_c: float, lipschitz: float):
        self.kernel = kernel
        self.clip_c = clip_c
        self.lipschitz = lipschitz
        self.t = 0
        self._pts = np.zeros((16, 0))  # (cap, dim); sized on the first round
        self._coef = np.zeros(16)
        self.records: list[StepRecord] = []

    def predict(self, x) -> tuple[float, float]:
        if self.t == 0:
            return 0.0, 0.0
        k = cross_vector(self.kernel, self._pts[: self.t], x)
        ybar = float(k @ self._coef[: self.t])
        return ybar, clip_to_interval(ybar, self.clip_c)

    def step(self, x, ev: LossEvent) -> StepRecord:
        tic = time.perf_counter_ns()
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        t_new = self.t + 1
        if not np.isfinite(x).all():
            raise ValueError(f"round {t_new}: point contains NaN/Inf")
        ybar, yhat = self.predict(x)
        eta = 1.0 / (self.lipschitz * self.clip_c * np.sqrt(t_new))
        gdot = loss_derivative(ev, yhat)
        if self.t == 0:
            self._pts = np.zeros((16, x.shape[0]))
        self._pts = grown(self._pts, t_new, self.t)
        self._coef = grown(self._coef, t_new, self.t)
        self._pts[self.t] = x
        self._coef[self.t] = -eta * gdot
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
    mean_step_us: float
    max_step_us: float
    bound_value: float | None = None
    bound_ok: bool | None = None

    def as_text(self) -> str:
        pairs = [
            ("learner", self.learner), ("seed", self.seed),
            ("horizon", self.horizon),
            ("cumulative_loss", _fmt(self.cumulative_loss)),
            ("comparator_loss", _fmt(self.comparator_loss)),
            ("r_t", _fmt(self.r_t)), ("r_g", _fmt(self.r_g)),
            ("r_d", _fmt(self.r_d)),
            ("final_dict_size", self.final_dict_size),
            ("final_sampler_size", self.final_sampler_size),
            ("mean_step_us", _fmt(self.mean_step_us)),
            ("max_step_us", _fmt(self.max_step_us)),
            ("bound_value", _fmt(self.bound_value)),
            ("bound_ok", self.bound_ok),
        ]
        return "".join(f"{k}={v}\n" for k, v in pairs)


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
    learner = build_learner(cfg, seed)
    for t, ev in enumerate(events, start=1):
        try:
            learner.step(ev.point, ev)
        except KocoError as exc:
            exc.args = (f"round {t}: {exc}",)
            raise
    records = learner.records

    comparator = K = None
    if cfg.comparator:
        K = kernels.gram(cfg.kernel, np.vstack([ev.point for ev in events]))
        comparator = oracle.best_comparator(K, events, cfg.clip_c, seed=seed)

    summary = summarize_run(cfg, seed, learner, comparator, K)
    trace_path = out / f"trace_{cfg.learner}_{seed}.csv"
    write_trace(trace_path, records)
    (out / f"summary_{cfg.learner}_{seed}.txt").write_text(
        summary.as_text(), encoding="utf-8")
    return trace_path, summary


def summarize_run(cfg: ExperimentConfig, seed: int, learner, comparator,
                  K: np.ndarray | None) -> RunSummary:
    """Summary of a finished run; K, the gram of its stream, is needed with
    a comparator. The regret bound covers fixed-sigma `kons` (floor 1) and
    `skons` (floor max(gamma, beta * min prefix leverage)), nothing else."""
    records = learner.records
    prof = curvature_profile(cfg.loss_family, cfg.clip_c)
    cumulative = float(sum(r.loss for r in records))
    r_g = float(sum(r.rg_increment for r in records))
    times = np.array([r.elapsed_us for r in records])
    comparator_loss = r_t = r_d = None
    bound_value = bound_ok = None
    if comparator is not None:
        rep = regret_report(records, comparator, prof.sigma)
        comparator_loss, r_t, r_d = comparator.total_loss, rep.r_t, rep.r_d
        floor = 0.0  # no bound applies
        if cfg.eta_mode == "fixed-sigma" and cfg.learner == "kons":
            floor = 1.0
        elif cfg.eta_mode == "fixed-sigma" and cfg.learner == "skons":
            D = learner.d_scale
            tau_min = float(oracle.prefix_rls(K * np.outer(D, D), cfg.alpha).min())
            floor = max(cfg.gamma, cfg.kors_config(seed).beta * tau_min)
        if floor > 0:
            bound_value = oracle.regret_bound(K, comparator.norm_sq, cfg.alpha,
                                              prof, floor)
            bound_ok = bool(r_t <= bound_value)
    sampler_size = len(learner.kors.dict) if hasattr(learner, "kors") else 0
    return RunSummary(
        learner=cfg.learner, seed=seed, horizon=len(records),
        cumulative_loss=cumulative, comparator_loss=comparator_loss,
        r_t=r_t, r_g=r_g, r_d=r_d,
        final_dict_size=records[-1].dict_size if records else 0,
        final_sampler_size=sampler_size,
        mean_step_us=float(times.mean()) if len(times) else 0.0,
        max_step_us=float(times.max()) if len(times) else 0.0,
        bound_value=bound_value, bound_ok=bound_ok)
