"""Seeded fits do not depend on the BLAS thread count: one model of each
EM parameter type, trained on P500 in a fresh process at one and at two
OpenBLAS threads, writes the same model file and fit report bytes.  numpy
reads OPENBLAS_NUM_THREADS only when it is imported, hence the processes.
No command runs a product that OpenBLAS splits across threads: a process
at two threads trains, generates and evaluates every model while its
BLAS worker threads gain no CPU time."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

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


# Prints, as JSON, the CPU ticks that each thread but the main one gains
# while the whole pipeline runs; the baseline is read once the BLAS worker
# threads have ended the spin they start with.
WORKER_TICKS = """
import json, os, sys, time
import numpy, scipy.stats
from perfbench.workloads import p500
from sscompose import cli
from sscompose.midi_codec import emit_midi_csv

def worker_ticks():
    ticks = {}
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            with open(f"/proc/self/task/{tid}/stat") as fh:
                utime, stime = fh.read().rsplit(")", 1)[1].split()[11:13]
            ticks[tid] = int(utime) + int(stime)
    return ticks

before = worker_ticks()
for _ in range(40):
    time.sleep(0.25)
    before, settled = worker_ticks(), before
    if before == settled:
        break
with open("p500.csv", "w") as fh:
    fh.write(emit_midi_csv(p500()))
for i in range(1, 16):
    model = f"M{i}"
    for argv in (["train", "--input", "p500.csv", "--model", model, "--max-iter", "2"],
                 ["generate", "--model", f"{model}_model.json", "--n", "50", "--out", model],
                 ["evaluate", "--input", "p500.csv", "--batch", model, "--out", model]):
        if cli.main(argv) != 0:
            sys.exit(f"{' '.join(argv)} failed")
after = worker_ticks()
print(json.dumps({tid: after[tid] - before.get(tid, 0) for tid in after}))
"""


def _run(script, args, work_dir, threads):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads)}
    result = subprocess.run([sys.executable, "-c", script, *args], cwd=work_dir, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def _train_all(work_dir, threads):
    work_dir.mkdir()
    _run(TRAIN_ALL, MODELS, work_dir, threads)
    return {f"{model}/{name}": (work_dir / model / name).read_bytes()
            for model in MODELS for name in (f"{model}_model.json", f"{model}_fit_report.json")}


def test_fits_are_the_same_at_one_and_two_blas_threads(tmp_path):
    one, two = _train_all(tmp_path / "one", 1), _train_all(tmp_path / "two", 2)
    assert [name for name in one if one[name] != two[name]] == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.skipif("openblas" not in np.show_config(mode="dicts")["Build Dependencies"]
                    ["blas"]["name"], reason="numpy's BLAS is not OpenBLAS")
def test_no_command_wakes_a_blas_worker_thread(tmp_path):
    gained = json.loads(_run(WORKER_TICKS, [], tmp_path, 2).splitlines()[-1])
    assert {tid: ticks for tid, ticks in gained.items() if ticks} == {}
