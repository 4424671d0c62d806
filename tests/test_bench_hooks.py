"""The benchmark in perfbench/ times the package by replacing module
attributes with wrappers (perfbench/spans.py).  These tests fail when a
refactor drops or renames an attribute it wraps, or stops calling one
through its module, instead of leaving that to a benchmark run."""

import importlib
import json
import pathlib
import sys

import numpy as np
import pytest

from sscompose import cli, persist, registry, tvar
from sscompose.midi_codec import PitchSequence, build_alphabet, emit_midi_csv

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("spans")
    yield module
    for name in ("spans", "workloads"):
        sys.modules.pop(name, None)


def test_install_and_restore(spans):
    original = tvar.backward_sample
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert tvar.backward_sample is not original
    finally:
        tracer.restore()
    assert tvar.backward_sample is original


def test_wrapped_em_and_sampling_calls_are_seen(spans):
    rng = np.random.default_rng(0)
    pitches = 55 + np.cumsum(rng.integers(-2, 3, 60)) % 8
    piece = PitchSequence(pitches, np.arange(60) * 240)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        registry.train_model("M4", piece, seed=0, max_iter=1, states=3)
        registry.train_model("M10", piece, seed=0, max_iter=1, m1=2, m2=2)
        alphabet = build_alphabet(piece)
        fit = tvar.fit_tvar(pitches.astype(float), 2, 0.99, 0.99)
        model = registry.TrainedModel(registry.REGISTRY["M14"], alphabet, fit, None,
                                      alphabet.to_indices(pitches), None)
        registry.sample_model(model, 20, seed=1)
    finally:
        tracer.restore()
    names = {span["name"] for span in tracer.dump()}
    assert {"registry.train_model", "hmm.baum_welch", "hierarchical.tshmm_em_step",
            "tvar.backward_sample"} <= names


def test_generate_samples_each_piece_through_sample_sequence(spans, tmp_path):
    """The benchmark's per-piece sampling time divides by the number of
    registry.sample_sequence spans, so generate must call it once a piece."""
    pitches = 55 + np.arange(40) % 5
    model = registry.train_model("M15", PitchSequence(pitches, np.arange(40) * 240), seed=0)
    model_path = tmp_path / "M15_model.json"
    persist.save_model(model, model_path)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert cli.main(["generate", "--model", str(model_path), "--n", "3",
                         "--seed", "1", "--out", str(tmp_path / "batch")]) == 0
    finally:
        tracer.restore()
    names = [span["name"] for span in tracer.dump()]
    assert names.count("registry.sample_sequence") == 3


def test_evaluate_scores_its_batch_in_one_call_each(spans, tmp_path):
    """The benchmark's metrics.evaluate_batch and metrics.piece_scores lines
    count one call per evaluate command."""
    pitches = 55 + np.arange(40) % 5
    piece = PitchSequence(pitches, np.arange(40) * 240)
    model = registry.train_model("M15", piece, seed=0)
    model_path = tmp_path / "M15_model.json"
    persist.save_model(model, model_path)
    piece_path = tmp_path / "piece.csv"
    piece_path.write_text(emit_midi_csv(piece))
    assert cli.main(["generate", "--model", str(model_path), "--n", "4", "--seed", "1",
                     "--out", str(tmp_path / "batch")]) == 0
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert cli.main(["evaluate", "--input", str(piece_path), "--batch",
                         str(tmp_path / "batch"), "--out", str(tmp_path / "eval")]) == 0
    finally:
        tracer.restore()
    names = [span["name"] for span in tracer.dump()]
    assert names.count("metrics.evaluate_batch") == 1
    assert names.count("metrics.piece_scores") == 1


def test_commands_wrapped_after_an_earlier_command_are_seen(spans, tmp_path):
    """The benchmark installs its wrappers after commands have run in the
    same process; main must still call each command through its module."""
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"model": "M1", "entropy_rmse": 0.04}))
    rank = ["rank", "--reports", str(report)]
    assert cli.main(rank) == 0
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert cli.main(rank) == 0
    finally:
        tracer.restore()
    assert cli.main(rank) == 0
    assert [span["name"] for span in tracer.dump()].count("cli.rank") == 1
