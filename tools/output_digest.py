"""Digest of every file and console line the CLI pipeline produces.

    python3 tools/output_digest.py [M1 M2 ...] [--seed 0] [--n 4] [--work DIR]

Runs acceptance criterion 8's piece P500 (``perfbench/workloads.py``)
through ``sscompose.cli.main`` for each model id: ``train`` (at the
benchmark's EM budget where it has one), ``generate --midi``,
``evaluate`` and ``export --top 2``, then ``rank`` over the models'
reports on every criterion.  It prints one ``<sha256>  <name>`` line per
output file, sorted by name, and one per command for its captured
stdout/stderr (``<name>.console [exit <code>]``), after three header
lines: the numpy and scipy versions and the command that printed them.
Manifests are hashed byte for byte with only the value of
``wall_clock_seconds`` blanked out.
Every command runs inside the work directory with relative paths, so two
runs of the same source print the same lines wherever they run: diff the
output of two source trees to compare them.

Run it from the root of a source checkout; it imports the package from
that checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import ALL_MODELS, BUDGETS, p500  # noqa: E402
from sscompose import cli, metrics  # noqa: E402
from sscompose.midi_codec import emit_midi_csv  # noqa: E402


# the one manifest value that differs between two runs of the same source
WALL_CLOCK = re.compile(rb'("wall_clock_seconds": )[^,\n}]*')


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _console(argv):
    """Run cli.main(argv) and return its exit code and captured output as text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}", code


def _file_digest(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith("_manifest.json"):
        data = WALL_CLOCK.sub(rb"\1", data)
    return _sha(data)


def digest(models, work_dir, seed=0, n=4):
    """Run the pipeline in work_dir and return the sorted (name, sha256) pairs."""
    lines = []
    cwd = os.getcwd()
    os.makedirs(work_dir, exist_ok=True)
    os.chdir(work_dir)
    try:
        with open("p500.csv", "w") as fh:
            fh.write(emit_midi_csv(p500()))
        reports = []
        for model in models:
            budget = ["--max-iter", str(BUDGETS[model])] if model in BUDGETS else []
            steps = [
                ("train", ["train", "--input", "p500.csv", "--model", model,
                           "--seed", str(seed), *budget, "--out", f"{model}/train"]),
                ("generate", ["generate", "--model", f"{model}/train/{model}_model.json",
                              "--n", str(n), "--seed", str(seed + 1), "--midi",
                              "--out", f"{model}/gen"]),
                ("evaluate", ["evaluate", "--input", "p500.csv", "--batch", f"{model}/gen",
                              "--out", f"{model}/eval"]),
                ("export", ["export", "--input", "p500.csv", "--batch", f"{model}/gen",
                            "--top", "2", "--out", f"{model}/export"]),
            ]
            for step, argv in steps:
                text, code = _console(argv)
                lines.append((f"{model}/{step}.console [exit {code}]", _sha(text.encode())))
                if code != 0:
                    break
            else:
                reports.append(f"{model}/eval/report.json")
        for criterion in metrics.CRITERIA:
            if reports:
                text, code = _console(["rank", "--criterion", criterion, "--reports", *reports])
                lines.append((f"rank/{criterion}.console [exit {code}]", _sha(text.encode())))
        for base, _, files in os.walk("."):
            for name in files:
                path = os.path.relpath(os.path.join(base, name))
                lines.append((path, _file_digest(path)))
    finally:
        os.chdir(cwd)
    return sorted(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("models", nargs="*", default=list(ALL_MODELS),
                        help="model ids (default: M1..M15)")
    parser.add_argument("--seed", type=int, default=0,
                        help="train seed; generate uses seed + 1")
    parser.add_argument("--n", type=int, default=4, help="pieces per model")
    parser.add_argument("--work", help="work directory (default: a removed temporary one)")
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    print(f"# numpy {np.__version__}")
    print(f"# scipy {scipy.__version__}")
    print(" ".join(["# python3 tools/output_digest.py", *argv]))
    with contextlib.ExitStack() as stack:
        work = args.work or stack.enter_context(tempfile.TemporaryDirectory())
        for name, sha in digest(args.models, work, args.seed, args.n):
            print(f"{sha}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
