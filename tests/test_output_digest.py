"""Smoke test of tools/output_digest.py, the byte-identity harness that
compares the CLI outputs of two source trees."""

import importlib.util
import pathlib

from sscompose.metrics import CRITERIA

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


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
