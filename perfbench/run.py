"""Benchmark entry point: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every repeat runs perfbench/workload.py in a fresh process with BLAS
pinned to one thread, so set-up (imports, stream, learner) is paid and
timed each time. Repeats fill --seconds, and at least MIN_REPEATS of
them run. With --trace 0 the end-to-end metrics are reported; with
--trace 1 untraced and traced repeats alternate in at least MIN_PAIRS
pairs, and the per-layer metrics of the traced ones are reported.

A repeat fails when its process raises, when its timing-free outputs
differ from the first repeat's (traced repeats included), or, on the
reference seed and horizon, when they differ from reference.json.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # the checkout must stay as git would commit it

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import time
from pathlib import Path

import workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_REPEATS = 3     # untraced repeats with --trace 0
MIN_PAIRS = 2       # untraced/traced pairs with --trace 1
LAST_START_S = 100  # no repeat starts later than this into the run
DEADLINE_S = 170    # a repeat still running at this point is killed

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "step_us_p50": "us",
    "step_us_p99": "us",
    "tail_step_us": "us",
    "peak_rss_mb": "MB",
}

CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes", "bytes_computed")):
        return "bytes"
    if name.endswith(("ratio", "coverage")):
        return "ratio"
    if name.endswith("cum_loss"):
        return "loss"
    return "count"


def run_seconds() -> float:
    """BENCHMARK.json's run length, the one the baseline was measured at."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return float(spec["run_seconds"])


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest() -> str:
    """sha256 over the library sources, for checkouts that carry no .git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def spawn(args, traced: bool, timeout: float, write_reference=None) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced))]
    if args.horizon:
        cmd += ["--horizon", str(args.horizon)]
    if write_reference:
        cmd += ["--write-reference", write_reference]
    env = dict(os.environ, **CHILD_ENV)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced, "errors": [f"killed after {timeout:.0f} s"]}
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        res = {"ok": False, "errors": [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]}
    res["traced"] = traced
    if "first_round" in res:
        res["setup_s"] = res["first_round"] - spawned
    return res


def check_repeats(reps: list[dict]) -> None:
    """Every repeat of the seed must reproduce the first one's outputs."""
    anchor = next((r for r in reps if "digest" in r), None)
    for r in reps:
        if r["ok"] and r["digest"] != anchor["digest"]:
            r["ok"] = False
            kind = "traced" if r["traced"] else "untraced"
            r["errors"] = [f"{kind} repeat outputs differ from the first repeat"]


def end_to_end(good: list[dict], T: int) -> tuple[dict, dict]:
    """Medians over the whole run, each over the finest unit it has.

    The shared host slows the process in phases from milliseconds to
    seconds long. wall_s is the median over every stream of every repeat.
    Every repeat replays the same rounds (check_repeats holds them to it),
    so each round's step time is taken as its median over the repeats: a
    phase that slows a dozen rounds of one repeat then moves no percentile.
    The step metrics are read from that profile of rounds.
    """
    profile = [statistics.median(times) for times in zip(*(r["steps_us"] for r in good))]
    tail = [x for end in range(T, len(profile) + 1, T) for x in profile[end - T // 4:end]]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in good),
        "wall_s": statistics.median(x for r in good for x in r["stream_wall_s"]),
        "step_us_p50": statistics.median(profile),
        "step_us_p99": statistics.quantiles(profile, n=100)[98],
        "tail_step_us": statistics.fmean(tail),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }
    return values, {"rounds_per_repeat": len(profile),
                    "repeats": [{k: r[k] for k in ("setup_s", "stream_wall_s", "peak_rss_mb")}
                                for r in good]}


def per_layer(good: list[dict]) -> tuple[dict, dict]:
    traced = [r for r in good if r["traced"]]
    plain = [r for r in good if not r["traced"]]
    names = sorted({k for r in traced for k in r["layers"]})
    out = {k: statistics.median(r["layers"][k] for r in traced if k in r["layers"])
           for k in names}
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain))
    return out, {"absent": sorted({a for r in traced for a in r["absent"]})}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="koco benchmark: one workload")
    ap.add_argument("--workload", required=True, choices=sorted(workload.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workload.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=run_seconds())
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--horizon", type=int, default=None,
                    help="override the workload's horizon (self-tests only)")
    ap.add_argument("--write-reference", default=None, metavar="PATH",
                    help="run once and store this seed's outputs as the reference")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "koco" / "__init__.py").is_file():
        print(f"no koco sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    if args.write_reference:
        res = spawn(args, False, DEADLINE_S, write_reference=args.write_reference)
        print("reference written" if res["ok"] else "\n".join(res["errors"]))
        return 0 if res["ok"] else 1

    # a repeat (or untraced/traced pair) starts only when it is expected
    # to end within --seconds, so a run lasts --seconds whatever the speed
    kinds = ((False, True), (True, False)) if args.trace else ((False,),)
    least = MIN_PAIRS if args.trace else MIN_REPEATS
    reps: list[dict] = []
    durations: list[float] = []
    while True:
        elapsed = time.monotonic() - start
        expected = statistics.mean(durations) if durations else 0.0
        if len(durations) >= least and elapsed + expected > args.seconds:
            break
        if elapsed >= LAST_START_S:
            break
        for traced in kinds[len(durations) % len(kinds)]:
            reps.append(spawn(args, traced, DEADLINE_S - (time.monotonic() - start)))
        durations.append(time.monotonic() - start - elapsed)
    check_repeats(reps)

    # a repeat whose checks failed still measured its run; one that raised did not
    measured = [r for r in reps if "wall_s" in r]
    failed = sum(not r["ok"] for r in reps)
    for i, r in enumerate(reps):
        if not r["ok"]:
            print(f"repeat {i + 1} failed: {'; '.join(r['errors'])}", file=sys.stderr)
    if not all(any(r["traced"] == t for r in measured) for t in (False, bool(args.trace))):
        print("no repeat completed; nothing to report", file=sys.stderr)
        return 1

    horizon = args.horizon or workload.WORKLOADS[args.workload]["horizon"]
    if args.trace:
        values, extra = per_layer(measured)
        units = {k: per_layer_unit(k) for k in values}
    else:
        values, extra = end_to_end(measured, horizon)
        units = END_TO_END
    env = dict(measured[0]["env"], git_sha=git_sha(), src_sha256=src_digest(),
               nproc=len(os.sched_getaffinity(0)), seed=args.seed,
               workload=args.workload, trace=args.trace, horizon=horizon)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": metrics}

    workload.OUT_DIR.mkdir(exist_ok=True)
    record = workload.OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(dict(result, env=env, **extra), indent=1) + "\n",
                      encoding="utf-8")

    print(f"env: {json.dumps(env)}")
    notes = {k: v for k, v in extra.items() if k != "repeats"}
    print(f"{args.workload} seed {args.seed}: {len(reps)} runs, {failed} failed "
          f"(failed_frac {failed / len(reps):.3f}); {json.dumps(notes)}")
    for k, m in metrics.items():
        print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
