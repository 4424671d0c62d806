"""Smoke test of tools/output_digest.py, the byte-identity harness that
compares the CLI outputs of two source trees, and the standing check that
the pipeline's seeded outputs match the listing checked in beside it."""

import importlib.util
import pathlib

import numpy as np
import scipy

from sscompose.metrics import CRITERIA

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
# The tool's listing at --n 2 --seed 0 for all 15 models.  Its first two
# lines name the numpy and scipy versions that recorded it.
LISTING = pathlib.Path(__file__).resolve().parent / "output_digest.txt"
LISTED_MODELS = ["M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8", "M9", "M10", "M11",
                 "M12", "M13", "M14", "M15"]


def _load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digest_covers_the_pipeline_and_ignores_the_work_dir(tmp_path):
    tool = _load_tool()
    first = tool.digest(["M1", "M15"], tmp_path / "a", n=2)
    names = [name for name, _ in first]
    for model in ("M1", "M15"):
        for step in ("train", "generate", "evaluate", "export"):
            assert f"{model}/{step}.console [exit 0]" in names
        for name in ("train/train_manifest.json", f"train/{model}_model.json",
                     "gen/pieces/piece_0001.csv", "eval/acf_pacf.csv",
                     "export/export_manifest.json"):
            assert f"{model}/{name}" in names
    assert [n for n in names if n.startswith("rank/")] == [
        f"rank/{criterion}.console [exit 0]" for criterion in sorted(CRITERIA)]
    assert names == sorted(names) and len(set(sha for _, sha in first)) > 1
    # a second run elsewhere prints the same lines: paths are relative and
    # manifests are hashed without their wall-clock time
    assert tool.digest(["M1", "M15"], tmp_path / "b", n=2) == first


def test_manifest_digest_blanks_only_the_wall_clock_value(tmp_path):
    tool = _load_tool()
    text = '{\n  "command": "train",\n  "wall_clock_seconds": %s,\n  "seed": 0\n}\n'
    shas = []
    for body in (text % "0.25", text % "12.5", (text % "0.25").rstrip("\n"),
                 (text % "0.25").replace("  ", "    ")):
        path = tmp_path / "train_manifest.json"
        path.write_text(body)
        shas.append(tool._file_digest(str(path)))
    assert shas[0] == shas[1] and len(set(shas[1:])) == 3


def test_seeded_outputs_match_the_checked_in_listing(tmp_path):
    lines = LISTING.read_text().splitlines()
    for line, (name, module) in zip(lines, [("numpy", np), ("scipy", scipy)]):
        recorded_with = line.removeprefix(f"# {name} ")
        assert recorded_with == module.__version__, (
            f"{LISTING.name} was recorded with {name} {recorded_with}, this run has "
            f"{name} {module.__version__}: record it again and say which lines changed")
    want = {name: sha for sha, name in (line.split("  ", 1) for line in lines
                                        if not line.startswith("#"))}
    got = dict(_load_tool().digest(LISTED_MODELS, tmp_path, seed=0, n=2))
    differing = sorted(name for name in want.keys() | got.keys()
                       if want.get(name) != got.get(name))
    assert not differing, f"outputs differ from {LISTING.name}: {differing}"
