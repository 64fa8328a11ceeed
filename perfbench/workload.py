"""One repeat of one benchmark workload, in a process of its own.

run.py starts this script with BLAS pinned to one thread and reads the
JSON object it prints as its last line. The koco package is imported
from the checkout's `src/`, never from an installed copy.

    python3 perfbench/workload.py --workload NAME --seed N [--trace 1]
        [--horizon T] [--write-reference PATH]
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0
YHAT_TOL = 1e-12
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# Why each workload exists is in README.md next to this file. A repeat
# runs `streams` independent streams of `horizon` rounds back to back, a
# fresh learner on each; stream i of workload seed s has seed s*streams+i.
# Every stream is timed on its own, so a run yields one wall time per
# stream of every repeat. Every repeat has at least 1000 rounds.
WORKLOADS = {
    "exact-spread": {"learner": "kons", "gamma": None, "horizon": 1200, "streams": 1},
    "sketch-spread": {"learner": "skons", "gamma": 0.1, "horizon": 1500, "streams": 2},
    "regret-run": {"learner": "harness", "horizon": 125, "streams": 8},
}

# the README example config; the stream comes from a CSV written in set-up
REGRET_CONFIG = """\
learner   = skons
kernel    = gaussian
bandwidth = 1.0
loss      = squared
clip_c    = 1.0
alpha     = 1.0
horizon   = {horizon}
eta_mode  = fixed-sigma
generator = rkhs-target
input_dim = 3
noise_sd  = 0.1
gamma     = 0.2
epsilon   = 0.5
delta     = 0.1
comparator = true
seeds     = {seed}
out_dir   = {out_dir}
"""


def _now() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so run.py can subtract
    # its spawn time from this child's first-round time
    return time.monotonic()


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _record_lines(records):
    """Timing-free view of the learner's per-round records."""
    for r in records:
        fields = dataclasses.asdict(r)
        fields.pop("elapsed_us", None)
        yield repr(sorted(fields.items()))


def _learner_layer_metrics(learners, q_floor) -> dict:
    """Per-layer metrics read from the learners' state after the run."""
    records = [r for lr in learners for r in lr.records]
    sketched = [lr for lr in learners if type(lr).__name__ == "SketchedKons"]
    samplers = [lr.kors for lr in learners if getattr(lr, "kors", None) is not None]
    out = {
        "kors.size": _mean([len(k.dict) for k in samplers]),
        "kors.admit_ratio": sum(len(k.dict) for k in samplers) / len(records)
        if samplers else 0.0,
        "skons.support": _mean([lr.records[-1].dict_size for lr in sketched]),
        "skons.accept_ratio": sum(r.accepted for lr in sketched for r in lr.records)
        / len(records) if sketched else 0.0,
        "skons.rejected_appends": sum(lr.rejected_appends for lr in sketched),
        "learner.cum_loss": sum(r.loss for r in records),
    }
    if q_floor is not None:
        clamps = 0
        for lr in learners:
            exact = lr not in sketched
            for r in lr.records:
                # recover q_t from the record: the exact learner stores
                # q/(1+q) as tau; the sketched one stores it as rg_inc*eta
                # (q/(1+q) on accepted rounds, q itself on the others)
                if exact:
                    q = r.tau / (1.0 - r.tau)
                else:
                    raw = r.rg_increment * r.eta
                    q = raw / (1.0 - raw) if r.accepted else raw
                clamps += q < q_floor
        out["kons.q_floor_clamps"] = clamps
    return out


# A step is timed in CPU time of the calling thread, which with BLAS
# pinned to one thread holds all of the step's work. Wall time would also
# count the moments the shared host takes the virtual CPU away: those come
# in bursts of about 100 ms that slow a dozen rounds in a row, and they set
# a repeat's p99 more than the program does.
STEP_CLOCK = time.thread_time_ns


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _squared_kons_config(koco):
    prof = koco.losses.curvature_profile("squared", 1.0)
    return koco.kons.KonsConfig(clip_c=1.0, alpha=1.0, eta_mode="fixed-sigma",
                                sigma=prof.sigma, lipschitz=prof.lipschitz)


def run_learner(koco, spec, T, seed, tracer):
    """Closed loop: one learner per stream, each step after the last returns."""
    from koco import kernels, kors, skons, streams

    kern = kernels.gaussian(1.0)
    kc = _squared_kons_config(koco)
    beta = kors.required_budget(T, 0.1, 0.5)
    jobs = []
    for i in range(spec["streams"]):
        sub_seed = seed * spec["streams"] + i
        stream_spec = streams.SyntheticSpec(
            generator=streams.RKHS_TARGET, input_dim=3, horizon=T,
            n_centers=8, noise_sd=0.1, clip_c=1.0)
        events = streams.generate_stream(stream_spec, sub_seed, kernel=kern)
        if spec["learner"] == "kons":
            learner = koco.kons.Kons(kern, kc)
        else:
            sc = skons.SkonsConfig(
                kons=kc, kors=kors.KorsConfig(alpha=1.0, epsilon=0.5, beta=beta,
                                              delta=0.1, rng_seed=sub_seed),
                gamma=spec["gamma"])
            learner = skons.SketchedKons(kern, sc)
        jobs.append((learner, events))

    clock = STEP_CLOCK
    steps_ns, stream_walls = [], []
    if tracer is not None:
        tracer.open_window()
    first_round = _now()
    for learner, events in jobs:
        step = learner.step
        started = _now()
        for ev in events:
            tic = clock()
            step(ev.point, ev)
            steps_ns.append(clock() - tic)
        stream_walls.append(_now() - started)
    wall = _now() - first_round
    if tracer is not None:
        tracer.close_window()

    learners = [learner for learner, _ in jobs]
    steps_us = [ns / 1e3 for ns in steps_ns]
    return {
        "first_round": first_round,
        "wall_s": wall,
        "stream_wall_s": stream_walls,
        "steps_us": steps_us,
        "yhat": [r.yhat for lr in learners for r in lr.records],
        "dict_size": [lr.records[-1].dict_size for lr in learners],
        "sampler_size": [len(lr.kors.dict) if spec["learner"] == "skons" else 0
                         for lr in learners],
        "cum_loss": [float(sum(r.loss for r in lr.records)) for lr in learners],
        "digest": _digest(line for lr in learners for line in _record_lines(lr.records)),
        "learners": learners,
    }


def run_regret(koco, spec, T, seed, tracer):
    """`koco run` path: harness.run_experiment on CSVs written in set-up."""
    from koco import harness, streams

    work = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        configs = []
        for i in range(spec["streams"]):
            sub_seed = seed * spec["streams"] + i
            csv_path = work / f"stream{i}.csv"
            base = REGRET_CONFIG.format(horizon=T, seed=sub_seed, out_dir=work / "run")
            gen_cfg = harness.parse_config_text(base)
            streams.emit_csv(csv_path, streams.generate_stream(
                gen_cfg.synthetic_spec(), sub_seed, kernel=gen_cfg.kernel,
                family=gen_cfg.loss_family))
            conf = work / f"exp{i}.conf"
            conf.write_text(base + f"stream = csv\ncsv_path = {csv_path}\n",
                            encoding="utf-8")
            configs.append((harness.parse_config(conf), sub_seed))

        # keep a reference to each learner the harness builds, for the
        # sampler state it does not write out, and time its steps as
        # run_learner does
        built, steps_ns = [], []
        build = harness.build_learner

        def capture(*args, **kwargs):
            learner = build(*args, **kwargs)
            step = learner.step

            def timed_step(x, ev):
                tic = STEP_CLOCK()
                rec = step(x, ev)
                steps_ns.append(STEP_CLOCK() - tic)
                return rec

            learner.step = timed_step
            built.append(learner)
            return learner

        harness.build_learner = capture
        if tracer is not None:
            tracer.open_window()
        results, stream_walls = [], []
        first_round = _now()
        for cfg, sub_seed in configs:
            started = _now()
            results.append(harness.run_experiment(cfg, sub_seed))
            stream_walls.append(_now() - started)
        wall = _now() - first_round
        if tracer is not None:
            tracer.close_window()
        harness.build_learner = build

        lines, yhat = [], []
        for trace_path, summary in results:
            with open(trace_path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            col = {name: i for i, name in enumerate(rows[0])}
            lines += [",".join(v for i, v in enumerate(row) if i != col["step_micros"])
                      for row in rows]
            lines += [line for line in summary.as_text().splitlines()
                      if line.split("=", 1)[0] not in ("mean_step_us", "max_step_us")]
            yhat += [float(row[col["yhat"]]) for row in rows[1:]]
        summaries = [summary for _, summary in results]
        return {
            "first_round": first_round,
            "wall_s": wall,
            "stream_wall_s": stream_walls,
            "steps_us": [ns / 1e3 for ns in steps_ns],
            "yhat": yhat,
            "dict_size": [sm.final_dict_size for sm in summaries],
            "sampler_size": [sm.final_sampler_size for sm in summaries],
            "cum_loss": [sm.cumulative_loss for sm in summaries],
            "digest": _digest(lines),
            "learners": built,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_reference(name, seed, T, out, path) -> list[str]:
    """Compare against the committed reference when seed and horizon match."""
    try:
        ref = json.loads(Path(path).read_text(encoding="utf-8")).get(name)
    except FileNotFoundError:
        return [f"reference file {path} is missing"]
    if ref is None or ref["seed"] != seed or ref["horizon"] != T:
        return []
    errors = []
    if len(out["yhat"]) != len(ref["yhat"]):
        errors.append(f"yhat has {len(out['yhat'])} rounds, reference {len(ref['yhat'])}")
    else:
        dev = max((abs(a - b) for a, b in zip(out["yhat"], ref["yhat"])), default=0.0)
        if not dev <= YHAT_TOL:
            errors.append(f"yhat deviates from reference by {dev:.3e} (tol {YHAT_TOL:g})")
    for key in ("dict_size", "sampler_size", "cum_loss"):
        if out[key] != ref[key]:
            errors.append(f"{key} {out[key]!r} != reference {ref[key]!r}")
    return errors


def write_reference(name, seed, T, out, path) -> None:
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    data[name] = {"seed": seed, "horizon": T, "dict_size": out["dict_size"],
                  "sampler_size": out["sampler_size"], "cum_loss": out["cum_loss"],
                  "yhat": out["yhat"]}
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def versions(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        openblas = "unknown"
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": openblas, "python": sys.version.split()[0]}


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--horizon", type=int, default=None)
    ap.add_argument("--write-reference", default=None)
    args = ap.parse_args(argv)

    for var in PINNED:
        if os.environ.get(var) != "1":
            raise RuntimeError(f"{var} must be 1 before numpy is imported")
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy

    import koco
    if not Path(koco.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"koco imported from {koco.__file__}, not {src}")

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    spec = WORKLOADS[args.workload]
    T = args.horizon or spec["horizon"]
    run = run_regret if spec["learner"] == "harness" else run_learner
    out = run(koco, spec, T, args.seed, tracer)

    if args.write_reference:
        write_reference(args.workload, args.seed, T, out, args.write_reference)
    errors = check_reference(args.workload, args.seed, T, out, REFERENCE)

    # the raw times; run.py combines them over all repeats of the run
    result = {
        "ok": not errors,
        "errors": errors,
        "digest": out["digest"],
        "first_round": out["first_round"],
        "wall_s": out["wall_s"],
        "stream_wall_s": out["stream_wall_s"],
        "steps_us": out["steps_us"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": versions(np, scipy),
    }
    if tracer is not None:
        layers = tracer.metrics()
        q_floor = getattr(koco.kons, "Q_FLOOR", None)
        layers.update(_learner_layer_metrics(out["learners"], q_floor))
        if q_floor is None:
            tracer.absent.append("kons.q_floor_clamps")
        layers["trace.coverage"] = tracer.covered_ns / 1e9 / out["wall_s"]
        layers["trace.spans"] = len(tracer.spans)
        result["layers"] = layers
        result["absent"] = tracer.absent
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
    return result


if __name__ == "__main__":
    try:
        res = main()
    except Exception:  # reported to run.py as a failed repeat that measured nothing
        res = {"ok": False, "errors": [traceback.format_exc(limit=6)]}
    print(json.dumps(res))
    sys.exit(0 if res["ok"] else 1)
