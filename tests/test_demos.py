import os
import subprocess
import sys
from pathlib import Path

import pytest

import nqs_tfim

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    src = str(Path(nqs_tfim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp_path)   # demo 07 writes its sweep into a temporary directory
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
