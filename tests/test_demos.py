import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# demo script -> text its output must contain
DEMOS = {
    "exact_learner.py": "holds",  # the regret bound check
    "leverage_sampler.py": "final dictionary",
    "sketched_tradeoff.py": "floor 0.3",
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert DEMOS[demo] in done.stdout
