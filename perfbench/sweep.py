"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py [--workloads a,b] [--seeds 0-9] [--sets N]
        [--trace 0|1] [--seconds S] [--out PATH]

For every workload and end-to-end metric it prints the median over the
seeds and the distance between the first and third quartiles as a
share of the median, next to the metric's bound from BENCHMARK.json.
With --sets 2 every seed runs twice in a row, once for each set, so
that both sets of the same code see the same drift of the host; it then
also prints set 2's median relative to set 1's.
--out stores every run's full record (result, environment, per-repeat
figures) plus the summary as JSON.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import statistics
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, summary = {}, {}
    ok = True
    for name in args.workloads.split(","):
        sets = [[] for _ in range(args.sets)]
        for seed in parse_seeds(args.seeds):
            for i, runs_of_set in enumerate(sets):
                cmd = [sys.executable, *spec["command"][1:], "--workload", name,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=600)
                if proc.returncode != 0:
                    print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                    ok = False
                    continue
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                ok &= res["correct"]
                record = (ROOT / ".bench_out"
                          / f"result-{name}-seed{seed}-trace{args.trace}.json")
                runs_of_set.append(json.loads(record.read_text(encoding="utf-8")))
                print(f"{name} seed {seed} set {i + 1}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        runs[name] = sets
        summary[name] = {}
        metrics = sorted({k for r in sets[0] for k in r["metrics"]})
        for k in metrics:
            row = {"unit": sets[0][0]["metrics"][k]["unit"], "sets": []}
            for runs_of_set in sets:
                vals = [r["metrics"][k]["value"] for r in runs_of_set if k in r["metrics"]]
                one = {"median": statistics.median(vals)}
                if len(vals) >= 2 and one["median"]:
                    one["iqr_share"] = spread(vals)
                row["sets"].append(one)
            if len(sets) == 2 and row["sets"][0]["median"]:
                row["set2_change"] = row["sets"][1]["median"] / row["sets"][0]["median"] - 1
            if k in bounds:
                row["bound"] = bounds[k]
            summary[name][k] = row
            print(f"  {k:32s} " + "  ".join(
                f"median {one['median']:.6g} {row['unit']}"
                + (f" iqr/median {one['iqr_share']:.4f}" if "iqr_share" in one else "")
                for one in row["sets"])
                + (f"  set 2 vs set 1 {row['set2_change']:+.4f}"
                   if "set2_change" in row else "")
                + (f"  bound {row['bound']}" if "bound" in row else ""))
    if args.out:
        Path(args.out).write_text(json.dumps({"summary": summary, "runs": runs}, indent=1)
                                  + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
