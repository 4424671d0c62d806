"""Seeded fits do not depend on the BLAS thread count: one model of each
EM parameter type, trained on P500 in a fresh process at one and at two
OpenBLAS threads, writes the same model file and fit report bytes.  numpy
reads OPENBLAS_NUM_THREADS only when it is imported, hence the processes."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# HmmParams, KhmmParams, ArhmmParams, HsmmParams, TshmmParams, FhmmParams, LhmmParams
MODELS = ["M1", "M2", "M7", "M8", "M10", "M12", "M13"]
TRAIN_ALL = """
import sys
from perfbench.workloads import p500
from sscompose import cli
from sscompose.midi_codec import emit_midi_csv
with open("p500.csv", "w") as fh:
    fh.write(emit_midi_csv(p500()))
for model in sys.argv[1:]:
    argv = ["train", "--input", "p500.csv", "--model", model, "--max-iter", "2", "--out", model]
    if cli.main(argv) != 0:
        sys.exit(f"train --model {model} failed")
"""


def _train_all(work_dir, threads):
    work_dir.mkdir()
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads)}
    result = subprocess.run([sys.executable, "-c", TRAIN_ALL, *MODELS], cwd=work_dir, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return {f"{model}/{name}": (work_dir / model / name).read_bytes()
            for model in MODELS for name in (f"{model}_model.json", f"{model}_fit_report.json")}


def test_fits_are_the_same_at_one_and_two_blas_threads(tmp_path):
    one, two = _train_all(tmp_path / "one", 1), _train_all(tmp_path / "two", 2)
    assert [name for name in one if one[name] != two[name]] == []
