import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_exact_learner_demo_checks_the_bound():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / "exact_learner.py")],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert "holds" in done.stdout
