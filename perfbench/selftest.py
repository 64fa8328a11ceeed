"""Self-tests of the benchmark itself, kept out of the library's suite.

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

Every workload runs at a tiny horizon, untraced and traced, and must
print exactly the metric names and units BENCHMARK.json declares. A
perturbed reference prediction must be reported as a failure, a hook
whose target is gone must leave its metric absent instead of failing
the run, and a directory without the library sources must make the
benchmark exit non-zero without a result.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json
import shutil
import subprocess
from pathlib import Path

import workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "selftest"
TINY = 40
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        res = None
    return proc.returncode, res, proc


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_every_workload_emits_the_declared_metrics():
    spec = benchmark_spec()
    assert {w["name"] for w in spec["workloads"]} <= set(workload.WORKLOADS)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in workload.WORKLOADS:
        for trace, want in declared.items():
            rc, res, proc = bench("--workload", name, "--seed", 3, "--seconds", 0,
                                  "--trace", trace, "--horizon", TINY)
            assert rc == 0, proc.stderr
            assert set(res) == RESULT_KEYS
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3, res
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))


def test_perturbed_reference_is_a_failure():
    sys.path.insert(0, str(ROOT / "src"))
    import koco

    SCRATCH.mkdir(parents=True, exist_ok=True)
    ref = SCRATCH / "reference.json"
    ref.unlink(missing_ok=True)
    name, seed = "sketch-spread", 0
    out = workload.run_learner(koco, workload.WORKLOADS[name], TINY, seed, None)
    workload.write_reference(name, seed, TINY, out, ref)
    assert workload.check_reference(name, seed, TINY, out, ref) == []

    data = json.loads(ref.read_text(encoding="utf-8"))
    data[name]["yhat"][TINY // 2] += 1e-9
    ref.write_text(json.dumps(data), encoding="utf-8")
    errors = workload.check_reference(name, seed, TINY, out, ref)
    assert len(errors) == 1 and "yhat deviates from reference" in errors[0], errors


PROBE = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import koco, tracer, workload
layers = dict(tracer.LAYERS)
layers["linalg.append"] = (["koco.linalg:RegularizedInverse.no_such_method"],
                           tracer._append_bytes)
layers["ghost"] = (["koco.no_such_module:f", "koco.kons:no_such_function"], None)
tr = tracer.Tracer()
tr.install(layers)
out = workload.run_learner(koco, workload.WORKLOADS["exact-spread"], 30, 0, tr)
print(json.dumps({{"metrics": tr.metrics(), "absent": tr.absent,
                  "rounds": len(out["steps_us"])}}))
"""


def test_missing_hook_target_gives_absent_metric():
    code = PROBE.format(src=str(ROOT / "src"), here=str(HERE))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["rounds"] == 30
    assert sorted(res["absent"]) == ["ghost", "linalg.append"]
    assert not any(k.startswith(("linalg.append.", "ghost.")) for k in res["metrics"])
    assert res["metrics"]["kons.step.calls"] == 30
    assert res["metrics"]["linalg.apply.calls"] > 0


def test_bare_directory_exits_nonzero_without_result():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in benchmark_spec()["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    rc, res, _ = bench("--workload", "exact-spread", "--seed", 0, "--seconds", 1,
                       "--trace", 0, cwd=bare)
    shutil.rmtree(bare)
    assert rc != 0 and res is None


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failures else 0)
