"""Smoke test of the demos: each runs in its own interpreter and exits 0,
so a change to the public API that a demo uses fails tier-1.

`03_model_zoo.py` (trains all 15 models, about 10 s) and
`04_tvar_generation.py` (about 4 s) are left out to keep tier-1 short;
the three run here take about 1 s each.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_parse_and_represent.py", "02_train_and_sample_hmm.py",
                                  "05_evaluate_and_rank.py"])
def test_demo_exits_zero(tmp_path, demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
