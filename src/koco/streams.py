"""Synthetic stream generators and CSV stream ingestion/emission."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import StreamParseError, TargetOutOfRange
from .kernels import GAUSSIAN, KernelSpec, _gaussian, _sq_dists, cross_vector, gaussian
from .losses import FAMILIES, LOGISTIC, SQUARED, SQUARED_HINGE, LossEvent
from .rng import named_rng

RKHS_TARGET = "rkhs-target"
ALTERNATING_ADVERSARY = "sixsix-adversary"
ORTHOGONAL_DRIFT = "orthogonal-drift"

GENERATORS = (RKHS_TARGET, ALTERNATING_ADVERSARY, ORTHOGONAL_DRIFT)


@dataclass(frozen=True)
class SyntheticSpec:
    generator: str
    input_dim: int
    horizon: int
    n_centers: int = 8        # rkhs-target
    noise_sd: float = 0.0     # rkhs-target
    clip_c: float = 1.0       # sixsix-adversary target magnitude / clamp bound
    spread: float = 8.0       # orthogonal-drift spacing
    cluster_count: int = 0    # rkhs-target: draw inputs around this many sites

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.input_dim < 1:
            raise ValueError("input_dim must be at least 1")
        if self.n_centers < 1:
            raise ValueError("n_centers must be at least 1")
        if self.cluster_count < 0:
            raise ValueError("cluster_count must be nonnegative")
        if not 0 < self.clip_c < np.inf:
            raise ValueError("clip_c must be positive and finite")
        if not 0 <= self.noise_sd < np.inf:
            raise ValueError("noise_sd must be finite and nonnegative")
        if not np.isfinite(self.spread):
            raise ValueError("spread must be finite")


def generate_stream(spec: SyntheticSpec, seed: int,
                    kernel: KernelSpec | None = None,
                    family: str = SQUARED) -> list[LossEvent]:
    """Deterministic event stream for `spec` under `seed`.

    The rkhs-target generator draws a random span-of-kernels function,
    rescales it to fill most of the feasible interval, clamps outputs to
    [-C, C], and adds seeded noise. The adversarial generator plays one
    fixed point with targets alternating +C, -C (labels +1, -1 for the
    classification families). The drift generator walks along one axis
    so consecutive points are nearly orthogonal under a unit-bandwidth
    gaussian kernel.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown loss family {family!r}")
    rng = named_rng(seed, "stream")
    T, dim, C = spec.horizon, spec.input_dim, spec.clip_c

    if spec.generator == ALTERNATING_ADVERSARY:
        raw = np.where(np.arange(T) % 2 == 0, C, -C)
        return _label_events(np.ones((T, dim)), raw, family)

    if spec.generator == ORTHOGONAL_DRIFT:
        xs = np.zeros((T, dim))
        xs[:, 0] = spec.spread * np.arange(1, T + 1)
        raw = rng.uniform(-C, C, size=T)
        return _label_events(xs, raw, family)

    # rkhs-target
    kern = kernel if kernel is not None else gaussian(1.0)
    if spec.cluster_count > 0:
        sites = rng.normal(size=(spec.cluster_count, dim))
        picks = rng.integers(0, spec.cluster_count, size=T)
        xs = sites[picks] + 0.05 * rng.normal(size=(T, dim))
    else:
        xs = rng.normal(size=(T, dim))
    centers = rng.normal(size=(spec.n_centers, dim))
    coef = rng.normal(size=spec.n_centers)
    # a gaussian's one block has row j = cross_vector(kern, centers, xs[j]), bit for bit
    rows = (_gaussian(kern, _sq_dists(centers, xs)) if kern.family == GAUSSIAN
            else (cross_vector(kern, centers, x) for x in xs))
    f = np.array([float(coef @ row) for row in rows])
    peak = np.max(np.abs(f))
    if peak > 0:
        f *= 0.8 * C / peak
    raw = f + spec.noise_sd * rng.normal(size=T)
    raw = np.clip(raw, -C, C)
    return _label_events(xs, raw, family)


def _label_events(xs: np.ndarray, raw: np.ndarray, family: str) -> list[LossEvent]:
    """An event per point: target raw (drawn within [-C, C]) or its sign."""
    events = []
    for x, v in zip(xs, raw):
        if family == SQUARED:
            events.append(LossEvent(x.copy(), SQUARED, float(v)))
        else:
            label = 1.0 if v >= 0 else -1.0
            events.append(LossEvent(x.copy(), family, label))
    return events


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

def ingest_csv(path, family: str, clip_c: float) -> list[LossEvent]:
    """Read a stream from CSV: columns f1..fm plus `target` or `label`.

    Regression targets outside [-clip_c, clip_c] are rejected with their
    row numbers: admitting them would break the derivative bound the
    learners rely on. A NaN or Inf feature or target is rejected with
    its line number.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown loss family {family!r}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise StreamParseError("empty file", line=1) from None
        header = [h.strip() for h in header]
        value_col = header[-1]
        if value_col not in ("target", "label"):
            raise StreamParseError("last column must be 'target' or 'label'", line=1)
        feat_cols = header[:-1]
        expected = [f"f{i+1}" for i in range(len(feat_cols))]
        if feat_cols != expected:
            raise StreamParseError(
                f"feature columns must be f1..f{len(feat_cols)}, got {feat_cols}", line=1)
        if value_col == "target" and family != SQUARED:
            raise StreamParseError(
                f"'target' column requires the squared family, config says {family!r}", line=1)
        if value_col == "label" and family not in (LOGISTIC, SQUARED_HINGE):
            raise StreamParseError(
                "'label' column requires a classification family", line=1)

        events = []
        bad_targets = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise StreamParseError(
                    f"expected {len(header)} columns, got {len(row)}", line=lineno)
            try:
                coords = np.array([float(v) for v in row[:-1]])
            except ValueError as exc:
                raise StreamParseError(str(exc), line=lineno) from None
            if not np.isfinite(coords).all():
                raise StreamParseError("feature is NaN or Inf", line=lineno)
            if value_col == "label":
                tok = row[-1].strip()
                if tok not in ("1", "+1", "-1"):
                    raise StreamParseError(f"labels must be ±1, got {tok!r}", line=lineno)
                events.append(LossEvent(coords, family, float(int(tok))))
            else:
                try:
                    y = float(row[-1])
                except ValueError as exc:
                    raise StreamParseError(str(exc), line=lineno) from None
                if not np.isfinite(y):
                    raise StreamParseError("target is NaN or Inf", line=lineno)
                if abs(y) > clip_c:
                    bad_targets.append(lineno)
                    continue
                events.append(LossEvent(coords, family, y))
        if bad_targets:
            raise TargetOutOfRange(
                f"targets exceed |target| <= {clip_c} on rows {bad_targets}")
    return events


def emit_csv(path, events: list[LossEvent]) -> None:
    """Write a stream to CSV in the ingestible format."""
    if not events:
        raise ValueError("cannot emit an empty stream")
    dim = events[0].point.shape[0]
    value_col = "target" if events[0].family == SQUARED else "label"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i+1}" for i in range(dim)] + [value_col])
        for ev in events:
            row = [repr(float(c)) for c in ev.point]
            if value_col == "label":
                row.append(str(int(ev.target)))
            else:
                row.append(repr(float(ev.target)))
            writer.writerow(row)
