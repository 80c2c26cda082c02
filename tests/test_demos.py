import os
import subprocess
import sys
from pathlib import Path

import nqs_tfim

ROOT = Path(__file__).resolve().parents[1]


def test_spectrum_demo_runs():
    # the one demo that reaches the Lanczos solver (L = 10)
    env = dict(os.environ)
    src = str(Path(nqs_tfim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / "01_spectrum_and_gap.py")],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
