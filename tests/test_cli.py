import dataclasses
import json
import os
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import frozen_write_csv, linewise_piece_file

from sscompose import cli, hierarchical, hmm, registry, tvar
from sscompose.cli import main
from sscompose.midi_codec import PitchSequence, emit_midi_csv, parse_midi_csv


def _toy_seq():
    rng = np.random.default_rng(42)
    walk = np.cumsum(rng.integers(-2, 3, 150)) % 8
    return PitchSequence(55 + walk, np.arange(150) * 240)


@pytest.fixture()
def toy_piece(tmp_path):
    seq = _toy_seq()
    path = tmp_path / "toy.csv"
    path.write_text(emit_midi_csv(seq))
    return path, seq


def _run(*argv):
    return main([str(a) for a in argv])


def test_full_pipeline(tmp_path, toy_piece, capsys):
    piece, _ = toy_piece
    run = tmp_path / "run"
    assert _run("train", "--input", piece, "--model", "M1", "--states", "5",
                "--seed", "0", "--max-iter", "30", "--out", run) == 0
    out = capsys.readouterr().out
    assert "log-likelihood" in out
    model_file = run / "M1_model.json"
    assert model_file.exists()

    batch = tmp_path / "batch"
    assert _run("generate", "--model", model_file, "--n", "12", "--seed", "100",
                "--out", batch) == 0
    assert (batch / "batch.json").exists()
    assert len(list((batch / "pieces").glob("piece_*.txt"))) == 12

    ev = tmp_path / "eval"
    assert _run("evaluate", "--input", piece, "--batch", batch, "--out", ev) == 0
    report = json.loads((ev / "report.json").read_text())
    assert report["model"] == "M1"
    for key in ("entropy_rmse", "musicality_average", "temporal_average",
                "acf_rmse", "pacf_rmse", "note_count_rmse"):
        assert key in report

    capsys.readouterr()  # drop accumulated output from earlier commands
    assert _run("rank", "--criterion", "entropy-rmse",
                "--reports", ev / "report.json") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("rank,")
    assert lines[1].startswith("1,M1,")

    top = tmp_path / "top"
    assert _run("export", "--input", piece, "--batch", batch, "--top", "1",
                "--out", top) == 0
    exported = sorted(top.glob("top_*.csv"))
    assert len(exported) == 3
    for f in exported:
        parse_midi_csv(f.read_text())  # exported pieces are valid MIDI-CSV


def test_generate_deterministic(tmp_path, toy_piece):
    piece, _ = toy_piece
    run = tmp_path / "run"
    _run("train", "--input", piece, "--model", "M1", "--states", "4",
         "--seed", "1", "--max-iter", "10", "--out", run)
    b1, b2 = tmp_path / "b1", tmp_path / "b2"
    for b in (b1, b2):
        _run("generate", "--model", run / "M1_model.json", "--n", "5",
             "--seed", "7", "--out", b)
    for i in range(5):
        name = f"pieces/piece_{i:04d}.txt"
        assert (b1 / name).read_bytes() == (b2 / name).read_bytes()


def test_generated_pieces_default_to_training_length(tmp_path, toy_piece):
    piece, seq = toy_piece
    run = tmp_path / "run"
    _run("train", "--input", piece, "--model", "M15", "--out", run)
    batch = tmp_path / "batch"
    _run("generate", "--model", run / "M15_model.json", "--n", "2",
         "--seed", "0", "--out", batch)
    lines = (batch / "pieces" / "piece_0000.txt").read_text().split()
    assert len(lines) == len(seq)
    seeds = json.loads((batch / "batch.json").read_text())["seeds"]
    assert seeds == [0, 1]


def test_evaluate_training_copies_all_zero(tmp_path, toy_piece):
    piece, seq = toy_piece
    batch = tmp_path / "batch"
    (batch / "pieces").mkdir(parents=True)
    names = []
    for i in range(3):
        p = batch / "pieces" / f"piece_{i:04d}.txt"
        p.write_text("\n".join(str(int(x)) for x in seq.pitches) + "\n")
        names.append(f"pieces/piece_{i:04d}.txt")
    (batch / "batch.json").write_text(json.dumps(
        {"model": "copy", "pieces": names, "ticks_per_quarter": 480}))
    ev = tmp_path / "eval"
    assert _run("evaluate", "--input", piece, "--batch", batch, "--out", ev) == 0
    rows = dict(line.split(",") for line in
                (ev / "metrics.csv").read_text().splitlines()[1:])
    for key in ("entropy_rmse", "dissonance_rmse", "large_interval_rmse",
                "note_count_rmse", "acf_rmse", "pacf_rmse", "edit_distance_mean"):
        assert float(rows[key]) == 0.0


def test_rank_orders_reports_and_is_stable(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"model": "M1", "entropy_rmse": 0.042}))
    b.write_text(json.dumps({"model": "M13", "entropy_rmse": 0.021}))
    assert _run("rank", "--criterion", "entropy-rmse", "--reports", a, b) == 0
    first = capsys.readouterr().out.strip().splitlines()
    assert first[1].startswith("1,M13,0.021")
    assert _run("rank", "--criterion", "entropy-rmse", "--reports", b, a) == 0
    second = capsys.readouterr().out.strip().splitlines()
    assert first == second


def test_main_reuses_one_parser_and_each_command_gets_its_own_defaults(tmp_path, toy_piece,
                                                                       monkeypatch):
    piece, _ = toy_piece
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"model": "M1", "entropy_rmse": 0.04}))
    parser, parsed = cli.build_parser(), []
    parse_args = parser.parse_args

    def spy(argv):
        args = parse_args(argv)
        parsed.append(dict(vars(args)))
        return args

    monkeypatch.setattr(parser, "parse_args", spy)
    train = ["train", "--input", str(piece), "--model", "M1", "--seed", "3",
             "--max-iter", "1", "--out", str(tmp_path)]
    rank = ["rank", "--reports", str(report)]
    assert main(train) == 0 and main(rank) == 0
    fresh = cli.build_parser.__wrapped__()
    assert parsed == [dict(vars(fresh.parse_args(argv))) for argv in (train, rank)]


def test_rank_tie_broken_by_model_id(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"model": "M7", "entropy_rmse": 0.03}))
    b.write_text(json.dumps({"model": "M2", "entropy_rmse": 0.03}))
    _run("rank", "--criterion", "entropy-rmse", "--reports", a, b)
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].split(",")[1] == "M2"


def test_rank_tie_between_model_ids_of_different_types(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"model": "M2", "entropy_rmse": 0.03}))
    b.write_text(json.dumps({"model": 7, "entropy_rmse": 0.03}))
    assert _run("rank", "--criterion", "entropy-rmse", "--reports", a, b) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["7", "M2"]


def test_rank_unknown_criterion(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"model": "M1", "entropy_rmse": 0.1}))
    assert _run("rank", "--criterion", "bogus", "--reports", a) == 2
    err = capsys.readouterr().err
    assert "entropy-rmse" in err and "musicality-avg" in err


@pytest.mark.parametrize("payload,message", [
    (5, " is not a report: it needs a JSON object"),
    ({"model": "M1", "entropy_rmse": "0.1"}, ": entropy_rmse must be a number, not '0.1'"),
    ({"model": "M1", "entropy_rmse": None}, ": entropy_rmse must be a number, not None"),
    ({"model": "M1"}, ": report missing field 'entropy_rmse'"),
], ids=["number", "string-value", "null-value", "missing-field"])
def test_rank_rejects_malformed_report(tmp_path, capsys, payload, message):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"model": "M2", "entropy_rmse": 0.2}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert _run("rank", "--criterion", "entropy-rmse", "--reports", good, bad) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [f"error: {bad}{message}"]


BROKEN_JSON = {"not-json": b'{"model": "M1",', "not-utf8": b'\xff{"model": "M1"}'}


@pytest.mark.parametrize("content", BROKEN_JSON.values(), ids=BROKEN_JSON.keys())
def test_rank_names_a_report_that_is_not_json(tmp_path, capsys, content):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"model": "M2", "entropy_rmse": 0.2}))
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert _run("rank", "--reports", good, bad) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: ")


@pytest.mark.parametrize("content", BROKEN_JSON.values(), ids=BROKEN_JSON.keys())
def test_generate_names_a_model_file_that_is_not_json(tmp_path, capsys, content):
    model = tmp_path / "M1_model.json"
    model.write_bytes(content)
    assert _run("generate", "--model", model, "--n", "1", "--out", tmp_path / "gen") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {model}: ")


@pytest.mark.parametrize("content", BROKEN_JSON.values(), ids=BROKEN_JSON.keys())
@pytest.mark.parametrize("command", ["evaluate", "export"])
def test_batch_json_that_is_not_json_is_named(tmp_path, toy_piece, capsys, command, content):
    piece, _ = toy_piece
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "batch.json").write_bytes(content)
    assert _run(command, "--input", piece, "--batch", batch, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {batch / 'batch.json'}: ")


def test_rank_accepts_nan_scores(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"model": "M1", "temporal_average": float("nan")}))
    assert _run("rank", "--criterion", "temporal-avg", "--reports", a) == 0
    assert capsys.readouterr().out.strip().splitlines()[1] == f"1,M1,nan,{a}"


def test_rank_orders_nan_scores_last_whatever_the_input_order(tmp_path, capsys):
    paths = []
    for name, model, value in [("a", "M3", 0.3), ("b", "M5", float("nan")), ("c", "M1", 0.1),
                               ("d", "M2", float("nan"))]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"model": model, "temporal_average": value}))
        paths.append(path)
    rankings = []
    for order in (paths, paths[::-1]):
        assert _run("rank", "--criterion", "temporal-avg", "--reports", *order) == 0
        rankings.append(capsys.readouterr().out.strip().splitlines())
    assert rankings[0] == rankings[1]
    assert [line.split(",")[1:3] for line in rankings[0][1:]] == [
        ["M1", "0.1"], ["M3", "0.3"], ["M2", "nan"], ["M5", "nan"]]


def test_rank_orders_an_integer_score_too_large_for_a_float(tmp_path, capsys):
    huge = "1" + "0" * 400
    paths = []
    for name, model, value in [("a", "M1", "NaN"), ("b", "M2", huge), ("c", "M3", "0.5")]:
        path = tmp_path / f"{name}.json"
        path.write_text(f'{{"model": "{model}", "temporal_average": {value}}}')
        paths.append(path)
    assert _run("rank", "--criterion", "temporal-avg", "--reports", *paths) == 0
    assert [line.split(",")[1:3] for line in capsys.readouterr().out.strip().splitlines()[1:]] == [
        ["M3", "0.5"], ["M2", huge], ["M1", "nan"]]


TWO_NOTES = emit_midi_csv(PitchSequence(np.array([60, 62]), np.array([0, 240])))
HEADER_ONLY = "0, 0, Header, 1, 1, 480\n0, 0, End_of_file\n"


@pytest.mark.parametrize("command,text,message", [
    ("evaluate", TWO_NOTES, "training piece has undefined ACF"),
    ("export", TWO_NOTES, "training piece has undefined ACF"),
    ("evaluate", HEADER_ONLY, "training piece has no notes"),
    ("export", HEADER_ONLY, "training piece has no notes"),
], ids=["evaluate", "export", "header-only-evaluate", "header-only-export"])
def test_two_note_training_piece_clean_error(tmp_path, capsys, command, text, message):
    piece = tmp_path / "two.csv"
    piece.write_text(text)
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "piece_0000.txt").write_text("60\n62\n")
    (batch / "batch.json").write_text('{"pieces": ["piece_0000.txt"]}')
    out = tmp_path / "out"
    assert _run(command, "--input", piece, "--batch", batch, "--out", out) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")
    assert not out.exists()


def test_evaluation_csv_cells_are_numbers(tmp_path, toy_piece):
    piece, _ = toy_piece
    run = tmp_path / "run"
    assert _run("train", "--input", piece, "--model", "M1", "--states", "3",
                "--seed", "0", "--max-iter", "2", "--out", run) == 0
    assert _run("generate", "--model", run / "M1_model.json", "--n", "2",
                "--out", run / "batch") == 0
    assert _run("evaluate", "--input", piece, "--batch", run / "batch",
                "--out", run / "ev") == 0
    # per file: the columns that hold integers and the columns that hold floats
    columns = {"metrics.csv": ((), (1,)), "per_piece.csv": ((0,), (2,)),
               "acf_pacf.csv": ((0,), (1, 2, 3, 4))}
    for name, (int_cols, float_cols) in columns.items():
        rows = (run / "ev" / name).read_text().splitlines()[1:]
        assert rows
        for row in rows:
            cells = row.split(",")
            for col in int_cols:
                int(cells[col])
            for col in float_cols:
                float(cells[col])


@pytest.mark.parametrize("rows", [
    [("a", float("nan"), float("inf")), (float("-inf"), -0.0, 1e-300),
     (np.float32(0.1), np.float64(2.5), np.int64(7)), ("piece", 3, "x,y")],
    []], ids=["cells", "no-rows"])
def test_csv_writer_matches_the_linewise_writer(tmp_path, rows):
    got = cli._write_csv(tmp_path / "got.csv", "a,b,c", iter(rows))
    want = frozen_write_csv(tmp_path / "want.csv", "a,b,c", iter(rows))
    assert got.read_bytes() == want.read_bytes()


def test_missing_batch_dir_clean_error(tmp_path, toy_piece, capsys):
    piece, _ = toy_piece
    assert _run("evaluate", "--input", piece, "--batch", tmp_path / "nope",
                "--out", tmp_path / "ev") == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", ['{"model": "M1"}', '["pieces/piece_0000.txt"]',
                                     '{"pieces": [1, 2]}',
                                     '{"pieces": ["pieces/piece_0000.txt"], '
                                     '"ticks_per_quarter": "a"}'])
@pytest.mark.parametrize("command", ["evaluate", "export"])
def test_malformed_batch_json_clean_error(tmp_path, toy_piece, capsys, command, content):
    piece, _ = toy_piece
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "batch.json").write_text(content)
    assert _run(command, "--input", piece, "--batch", batch, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "pieces" in err[0]


@pytest.mark.parametrize("model", ["M2", "M5", "M7", "M8", "M10", "M12", "M13"])
def test_zero_tol_rejected_for_every_em_kind(tmp_path, toy_piece, capsys, model):
    piece, _ = toy_piece
    assert _run("train", "--input", piece, "--model", model, "--tol", "0",
                "--out", tmp_path / "run") == 2
    assert capsys.readouterr().err.strip().splitlines() == ["error: tol must be positive"]


def test_parse_error_nonzero_exit(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1, 0, Note_on_c, 0, 60, 80\n")  # no header
    assert _run("train", "--input", bad, "--model", "M1",
                "--out", tmp_path / "run") == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("time", [2 ** 63, 99999999999999999999])
def test_timestamp_beyond_int64_clean_error(tmp_path, capsys, time):
    piece = tmp_path / "piece.csv"
    piece.write_text("0, 0, Header, 1, 1, 480\n1, 0, Note_on_c, 0, 60, 80\n"
                     f"1, {time}, Note_on_c, 0, 62, 80\n")
    assert _run("train", "--input", piece, "--model", "M1", "--out", tmp_path / "run") == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: line 3: timestamp {time} outside 0-{2 ** 63 - 1}"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text,message", [
    ("0, 0, Header, 1, 1, 480\n1, 0\n", "line 2: expected at least 3 fields, got 2"),
    ("0, 0, Header, 1, 1\n", "line 1: malformed Header record"),
    ("0, 0, Header, 1, 1, abc\n", "line 1: non-numeric division in Header"),
    # spaces and tabs around every field, and U+001F, which str.strip strips and int() does not
    ("0, 0, Header, 1, 1, 480\n    \n \t1\t, 0 \n", "line 3: expected at least 3 fields, got 2"),
    (" 0 ,\t0\t, Header ,\t1 , 1\t\n", "line 1: malformed Header record"),
    ("\t0 ,  0\t, Header ,\t1 , 1 ,\t abc \t\n", "line 1: non-numeric division in Header"),
    ("\x1f0\x1f,0,\x1fHeader\x1f,1,1,\x1f6.5\x1f\n", "line 1: non-numeric division in Header"),
    ("0, 0, Header, 1, 1, 480\n \t1 ,\t0 , Note_on_c ,\t0 , 6 0\t,\t80 \n",
     "line 2: non-numeric note record field"),
    ("0, 0, Header, 1, 1, 480\n\x1f1\x1f,\x1f0 , Note_on_c\x1f, 0, 200\x1f,\t80\x1f\n",
     "line 2: pitch 200 outside 0-127"),
], ids=["short-record", "short-header", "non-numeric-division", "padded-short-record",
        "padded-short-header", "padded-non-numeric-division", "unit-separator-padding",
        "padded-non-numeric-pitch", "unit-separator-pitch-out-of-range"])
def test_malformed_midi_csv_record_clean_error(tmp_path, capsys, text, message):
    piece = tmp_path / "piece.csv"
    piece.write_text(text + "1, 0, Note_on_c, 0, 60, 80\n")
    assert _run("train", "--input", piece, "--model", "M1", "--out", tmp_path / "run") == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("division", [0, -480, 32768, 99999])
def test_header_division_outside_15_bits_clean_error(tmp_path, toy_piece, capsys, division):
    _, seq = toy_piece
    piece = tmp_path / "piece.csv"
    piece.write_text(emit_midi_csv(seq).replace("Header, 1, 1, 480", f"Header, 1, 1, {division}"))
    assert _run("train", "--input", piece, "--model", "M1", "--out", tmp_path / "run") == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: line 1: division {division} outside 1-32767"]


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize("model", ["M1", "M2", "M4", "M7", "M8", "M9", "M10", "M12", "M13",
                                   "M14", "M15"])
def test_non_finite_tol_rejected_for_every_model(tmp_path, toy_piece, capsys, model, tol):
    piece, _ = toy_piece
    run = tmp_path / "run"
    assert _run("train", "--input", piece, "--model", model, "--tol", tol,
                "--max-iter", "2", "--out", run) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: --tol must be a finite number, not {tol}"]
    assert not run.exists()


def test_tuple_state_space_over_the_cap_clean_error(tmp_path, toy_piece, capsys):
    piece, _ = toy_piece
    # M3 is third order: 22 ** 3 = 10648 tuple states
    assert _run("train", "--input", piece, "--model", "M3", "--states", "22",
                "--out", tmp_path / "run") == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: state space of 10648 states exceeds the cap of 10000; "
        "use fewer states (structured approximations are out of scope)"]


def test_corrupt_model_file_error_names_field(tmp_path, toy_piece, capsys):
    piece, _ = toy_piece
    run = tmp_path / "run"
    _run("train", "--input", piece, "--model", "M15", "--out", run)
    path = run / "M15_model.json"
    data = json.loads(path.read_text())
    del data["params"]["transition"]
    path.write_text(json.dumps(data))
    assert _run("generate", "--model", path, "--n", "1", "--seed", "0",
                "--out", tmp_path / "b") == 2
    assert "transition" in capsys.readouterr().err


def _cut_initial(params):
    params["initial"] = [1.0]


def _halve_emission_row(params):
    params["emission"][0] = [0.5 * p for p in params["emission"][0]]


def _drop_emission_column(params):
    params["emission"] = [row[:-1] for row in params["emission"]]


def _negate_transition_entry(params):
    params["transition"][0][0] = -params["transition"][0][0]


# A corruption that returns a string names the one error line loading must
# print, after "error: corrupt model file: "; the tests compare the whole line.


def _object_in_initial(params):
    params["initial"] = [{}, 0, 0]
    return "params.initial is not an array of numbers"


def _ragged_initial(params):
    params["initial"] = [[0.5], [0.5, 0]]
    return "params.initial is not an array of numbers"


# numpy would read both of these as valid tables: "0.25" as 0.25, and a
# one-hot row of booleans as 1.0 and 0.0
def _strings_in_initial(params):
    params["initial"] = [repr(p) for p in params["initial"]]
    return "params.initial is not an array of numbers"


def _booleans_in_emission_row(params):
    params["emission"][0] = [i == 0 for i in range(len(params["emission"][0]))]
    return "params.emission is not an array of numbers"


def _huge_integer_in_initial(params):
    params["initial"][0] = 10 ** 400        # no float holds it
    return "params.initial is not an array of numbers"


@pytest.mark.parametrize("corrupt", [_cut_initial, _halve_emission_row,
                                     _drop_emission_column, _negate_transition_entry,
                                     _object_in_initial, _ragged_initial,
                                     _strings_in_initial, _booleans_in_emission_row,
                                     _huge_integer_in_initial])
def test_inconsistent_hmm_params_rejected_on_load(tmp_path, toy_piece, capsys, corrupt):
    piece, _ = toy_piece
    run = tmp_path / "run"
    assert _run("train", "--input", piece, "--model", "M1", "--states", "3",
                "--seed", "0", "--max-iter", "5", "--out", run) == 0
    path = run / "M1_model.json"
    data = json.loads(path.read_text())
    expected = corrupt(data["params"])
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert _run("generate", "--model", path, "--n", "1", "--seed", "0",
                "--out", tmp_path / "b") == 2
    err = capsys.readouterr().err.strip().splitlines()
    if expected is None:
        assert len(err) == 1 and err[0].startswith("error: corrupt model file:")
    else:
        assert err == [f"error: corrupt model file: {expected}"]


def test_export_skips_already_selected(tmp_path, toy_piece):
    piece, seq = toy_piece
    # one exact copy of the training piece plus noisy variants: the copy tops
    # every criterion, so later criteria must pick different pieces
    rng = np.random.default_rng(0)
    batch = tmp_path / "batch"
    (batch / "pieces").mkdir(parents=True)
    rows = [seq.pitches]
    for _ in range(4):
        rows.append(rng.permutation(seq.pitches))
    names = []
    for i, pitches in enumerate(rows):
        p = batch / "pieces" / f"piece_{i:04d}.txt"
        p.write_text("\n".join(str(int(x)) for x in pitches) + "\n")
        names.append(f"pieces/piece_{i:04d}.txt")
    (batch / "batch.json").write_text(json.dumps(
        {"model": "mix", "pieces": names, "ticks_per_quarter": 480}))
    top = tmp_path / "top"
    assert _run("export", "--input", piece, "--batch", batch, "--top", "1",
                "--out", top) == 0
    manifest = json.loads((top / "export_manifest.json").read_text())
    picked = [e["piece"] for e in manifest["artifacts"]["exports"]]
    assert len(picked) == 3
    assert len(set(picked)) == 3
    assert 0 in picked  # the exact copy wins its first criterion


def test_env_var_output_root(tmp_path, toy_piece, monkeypatch):
    piece, _ = toy_piece
    root = tmp_path / "envroot"
    root.mkdir()
    monkeypatch.setenv("SSCOMPOSE_OUTPUT_ROOT", str(root))
    monkeypatch.chdir(tmp_path)
    assert _run("train", "--input", piece, "--model", "M15") == 0
    assert (root / "M15_model.json").exists()


def test_train_manifest_echoes_config(tmp_path, toy_piece):
    piece, _ = toy_piece
    run = tmp_path / "run"
    _run("train", "--input", piece, "--model", "M1", "--states", "3",
         "--seed", "5", "--max-iter", "4", "--out", run)
    manifest = json.loads((run / "train_manifest.json").read_text())
    assert manifest["config"]["model"] == "M1"
    assert manifest["config"]["seed"] == 5
    assert manifest["config"]["states"] == 3
    assert os.path.exists(manifest["artifacts"]["model_file"])


def test_restarts_keep_best_likelihood(tmp_path, toy_piece):
    piece, _ = toy_piece
    singles = []
    for seed in range(3):
        run = tmp_path / f"run{seed}"
        _run("train", "--input", piece, "--model", "M1", "--states", "4",
             "--seed", seed, "--max-iter", "15", "--out", run)
        report = json.loads((run / "M1_fit_report.json").read_text())
        singles.append(report["final_log_likelihood"])
    multi = tmp_path / "multi"
    _run("train", "--input", piece, "--model", "M1", "--states", "4",
         "--seed", "0", "--restarts", "3", "--max-iter", "15", "--out", multi)
    report = json.loads((multi / "M1_fit_report.json").read_text())
    assert report["final_log_likelihood"] == max(singles)


def test_m14_restarts_fit_once_and_name_the_ignored_flag(tmp_path, toy_piece, capsys,
                                                        monkeypatch):
    """M14's grid search takes no seed, so every restart would fit the same model."""
    piece, _ = toy_piece
    calls = []
    grid_search = tvar.grid_search
    monkeypatch.setattr(tvar, "grid_search", lambda *a, **k: calls.append(a) or grid_search(*a, **k))
    assert _run("train", "--input", piece, "--model", "M14", "--out", tmp_path / "one") == 0
    assert capsys.readouterr().err == "" and len(calls) == 1
    assert _run("train", "--input", piece, "--model", "M14", "--restarts", "3",
                "--out", tmp_path / "three") == 0
    warning = "option 'restarts' is not used by M14; ignored"
    assert capsys.readouterr().err.strip().splitlines() == [f"warning: {warning}"]
    assert len(calls) == 2
    one, three = tmp_path / "one", tmp_path / "three"
    assert (three / "M14_model.json").read_bytes() == (one / "M14_model.json").read_bytes()
    assert json.loads((three / "M14_fit_report.json").read_text())["warnings"] == [warning]
    assert json.loads((one / "M14_fit_report.json").read_text())["warnings"] == []
    assert json.loads((three / "train_manifest.json").read_text())["config"]["restarts"] == 3


def test_m14_train_persists_grid_audit(tmp_path, toy_piece):
    piece, _ = toy_piece
    run = tmp_path / "run"
    assert _run("train", "--input", piece, "--model", "M14", "--out", run) == 0
    report = json.loads((run / "M14_fit_report.json").read_text())
    assert len(report["grid_audit"]) == 96


def _drop_init_transitions(params):
    params["init_transitions"] = []


def _halve_duration_row(params):
    params["duration"][0] = [0.5 * p for p in params["duration"][0]]


def _move_transition_mass_to_diagonal(params):
    row = params["transition"][0]
    row[0], row[1] = row[1], 0.0   # the row still sums to 1


def _order_true(params):
    params["order"] = True  # a JSON boolean is not a count
    return "params: order must be a positive integer"


@pytest.mark.parametrize("model,corrupt", [
    ("M2", _cut_initial), ("M2", _halve_emission_row), ("M2", _drop_init_transitions),
    ("M8", _cut_initial), ("M8", _halve_duration_row),
    ("M8", _move_transition_mass_to_diagonal), ("M2", _order_true),
])
def test_inconsistent_khmm_hsmm_params_rejected_on_load(tmp_path, toy_piece, capsys,
                                                        model, corrupt):
    piece, _ = toy_piece
    run = tmp_path / "run"
    assert _run("train", "--input", piece, "--model", model, "--states", "3",
                "--seed", "0", "--max-iter", "1", "--out", run) == 0
    path = run / f"{model}_model.json"
    assert _run("generate", "--model", path, "--n", "1", "--seed", "0",
                "--out", tmp_path / "ok") == 0
    data = json.loads(path.read_text())
    expected = corrupt(data["params"])
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert _run("generate", "--model", path, "--n", "1", "--seed", "0",
                "--out", tmp_path / "b") == 2
    err = capsys.readouterr().err.strip().splitlines()
    if expected is None:
        assert len(err) == 1 and err[0].startswith("error: corrupt model file: params:")
    else:
        assert err == [f"error: corrupt model file: {expected}"]


def test_m14_train_skips_singular_grid_cells(tmp_path):
    # a random walk, then one note held for 300 steps: some cells' filters
    # go numerically singular
    rng = np.random.default_rng(0)
    pitches = np.concatenate([np.clip(60 + np.cumsum(rng.integers(-4, 5, 60)), 48, 72),
                              np.full(300, 72)])
    piece = tmp_path / "held.csv"
    piece.write_text(emit_midi_csv(PitchSequence(pitches, np.arange(360) * 240)))
    run = tmp_path / "run"
    assert _run("train", "--input", piece, "--model", "M14", "--out", run) == 0
    audit = json.loads((run / "M14_fit_report.json").read_text())["grid_audit"]
    assert len(audit) == 96
    failed = [cell for cell in audit if cell["log_marginal"] is None]
    assert failed and all(cell["error"].startswith("numerically singular update")
                          for cell in failed)
    assert all(cell["state_discount"] == 0.9 for cell in failed)
    assert _run("generate", "--model", run / "M14_model.json", "--n", "1",
                "--seed", "0", "--out", tmp_path / "b") == 0


def _scale_piece(tmp_path, n_notes):
    pitches = 60 + np.arange(n_notes) % 8
    piece = tmp_path / f"scale_{n_notes}.csv"
    piece.write_text(emit_midi_csv(PitchSequence(pitches, np.arange(n_notes) * 240)))
    return piece


@pytest.mark.parametrize("model", ["M8", "M9"])
def test_dwell_cap_error_names_the_cap_and_the_piece_length(tmp_path, capsys, model):
    run = tmp_path / "run"
    assert _run("train", "--input", _scale_piece(tmp_path, 16), "--model", model,
                "--out", run) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: d_max 20 must be smaller than the sequence length 16"]
    assert not run.exists()


def test_a_smaller_dwell_cap_fits_a_short_piece(tmp_path):
    assert _run("train", "--input", _scale_piece(tmp_path, 16), "--model", "M8",
                "--dmax", "8", "--max-iter", "2", "--out", tmp_path / "run") == 0


@pytest.mark.parametrize("model,flag,value,warnings", [
    ("M9", "--max-iter", "2", ["option 'max_iter' is not used by M9; ignored"]),
    ("M15", "--tol", "1e-3", ["option 'tol' is not used by M15; ignored"]),
    ("M1", "--max-iter", "2", []),
], ids=["M9", "M15", "M1"])
def test_an_em_budget_flag_warns_only_for_models_fitted_without_em(tmp_path, capsys, model,
                                                                   flag, value, warnings):
    run = tmp_path / "run"
    assert _run("train", "--input", _scale_piece(tmp_path, 22), "--model", model,
                flag, value, "--out", run) == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"warning: {warning}" for warning in warnings]
    report = json.loads((run / f"{model}_fit_report.json").read_text())
    assert report["warnings"] == warnings


def test_m14_train_audits_orders_a_short_piece_cannot_fit(tmp_path, capsys):
    # 10 notes fit orders up to 8: the filter needs more than order + 1 values
    run = tmp_path / "run"
    assert _run("train", "--input", _scale_piece(tmp_path, 10), "--model", "M14",
                "--out", run) == 0
    audit = json.loads((run / "M14_fit_report.json").read_text())["grid_audit"]
    assert len(audit) == 96
    assert {c["order"] for c in audit if c["log_marginal"] is not None} == {7, 8}
    skipped = [c for c in audit if c["log_marginal"] is None]
    assert {c["order"] for c in skipped} == set(range(9, 15)) and len(skipped) == 72
    assert skipped[0]["error"] == "order 9 needs a piece of more than 10 notes; this one has 10"
    assert json.loads((run / "M14_model.json").read_text())["params"]["order"] in (7, 8)
    assert _run("generate", "--model", run / "M14_model.json", "--n", "1",
                "--seed", "0", "--out", tmp_path / "b") == 0


def test_m14_train_on_a_piece_too_short_for_every_order(tmp_path, capsys):
    run = tmp_path / "run"
    assert _run("train", "--input", _scale_piece(tmp_path, 8), "--model", "M14",
                "--out", run) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: a piece of 8 notes is too short for the TVAR grid, "
                   "which needs at least 9"]
    assert not run.exists()


def _train_and_corrupt(tmp_path, piece, model, corrupt):
    """Train a small model, check it generates, then corrupt its params;
    returns the model file's path and what corrupt returned."""
    run = tmp_path / "run"
    assert _run("train", "--input", piece, "--model", model, "--states", "3",
                "--seed", "0", "--max-iter", "1", "--out", run) == 0
    path = run / f"{model}_model.json"
    assert _run("generate", "--model", path, "--n", "1", "--seed", "0",
                "--out", tmp_path / "ok") == 0
    data = json.loads(path.read_text())
    expected = corrupt(data["params"])
    path.write_text(json.dumps(data))
    return path, expected


@pytest.mark.parametrize("model,name", [("M2", "init_transitions"), ("M12", "chain_sizes")])
def test_scalar_in_array_field_rejected_on_load(tmp_path, toy_piece, capsys, model, name):
    piece, _ = toy_piece
    path, _ = _train_and_corrupt(tmp_path, piece, model,
                                 lambda params: params.update({name: 5}))
    capsys.readouterr()
    assert _run("generate", "--model", path, "--n", "1", "--seed", "0",
                "--out", tmp_path / "b") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: corrupt model file: params.{name} is not a JSON array"]


def _cut_chain_initials(params):
    params["chain_initials"] = [[1.0], [1.0], [1.0]]


def _cut_layer_1_initial(params):
    params["layers"][1]["initial"] = [1.0]


def _m1_true(params):
    params["m1"] = True
    return "params: m1 must be a positive integer"


def _no_chains(params):
    params["chain_sizes"] = []
    return "params: chain_sizes must name at least one chain"


def _cut_last_chain_tables(params):
    del params["chain_initials"][-1], params["chain_transitions"][-1]
    n = len(params["chain_sizes"])
    return f"params: {n} chains need {n} initial and transition tables"


def _no_layers(params):
    params["layers"] = []
    return "params: layers must hold at least one layer"


@pytest.mark.parametrize("model,corrupt", [
    ("M7", _cut_initial), ("M10", _cut_initial), ("M12", _cut_chain_initials),
    ("M13", _cut_layer_1_initial), ("M10", _m1_true), ("M12", _no_chains),
    ("M12", _cut_last_chain_tables), ("M13", _no_layers),
])
def test_inconsistent_arhmm_tshmm_fhmm_lhmm_params_rejected_on_load(tmp_path, toy_piece,
                                                                    capsys, model, corrupt):
    piece, _ = toy_piece
    path, expected = _train_and_corrupt(tmp_path, piece, model, corrupt)
    capsys.readouterr()
    assert _run("generate", "--model", path, "--n", "1", "--seed", "0",
                "--out", tmp_path / "b") == 2
    err = capsys.readouterr().err.strip().splitlines()
    if expected is None:
        assert len(err) == 1 and err[0].startswith("error: corrupt model file: params:")
    else:
        assert err == [f"error: corrupt model file: {expected}"]


def _cut_coeff_means(params):
    params["coeff_means"] = params["coeff_means"][:1]


def _objects_as_dof(params):
    params["dof"] = [{} for _ in params["dof"]]
    return "params.dof is not an array of numbers"


def _state_discount_true(params):
    params["state_discount"] = True
    return "params: state_discount must lie in (0, 1]"


@pytest.mark.parametrize("model,corrupt", [("M9", _cut_initial), ("M14", _cut_coeff_means),
                                           ("M14", _objects_as_dof),
                                           ("M14", _state_discount_true)])
def test_inconsistent_nshmm_tvar_params_rejected_on_load(tmp_path, toy_piece, capsys,
                                                         model, corrupt):
    piece, _ = toy_piece
    path, expected = _train_and_corrupt(tmp_path, piece, model, corrupt)
    capsys.readouterr()
    assert _run("generate", "--model", path, "--n", "1", "--seed", "0",
                "--out", tmp_path / "b") == 2
    err = capsys.readouterr().err.strip().splitlines()
    if expected is None:
        assert len(err) == 1 and err[0].startswith("error: corrupt model file: params:")
    else:
        assert err == [f"error: corrupt model file: {expected}"]


@pytest.fixture(scope="module")
def trained_model_data(tmp_path_factory):
    """model -> a fresh copy of its model file's JSON; each model is trained
    once, small, on the toy piece."""
    root = tmp_path_factory.mktemp("trained")
    piece = root / "toy.csv"
    piece.write_text(emit_midi_csv(_toy_seq()))
    texts = {}

    def data(model):
        if model not in texts:
            assert _run("train", "--input", piece, "--model", model, "--states", "3",
                        "--seed", "0", "--max-iter", "1", "--out", root / model) == 0
            texts[model] = (root / model / f"{model}_model.json").read_text()
        return json.loads(texts[model])

    return data


def _declared_tables(cls, prefix=()):
    """(path, rows flag) of every table field cls declares; LHMM's are its
    layer 1's."""
    for f in dataclasses.fields(cls):
        if "shape" in f.metadata:
            yield prefix + (f.name,), f.metadata["rows"]
    if cls is hierarchical.LhmmParams:
        yield from _declared_tables(hmm.HmmParams, ("layers", 1))


# every parameter type but TVAR's, through the first registry model of its kind
DECLARED_TABLE_CASES = [
    pytest.param(next(name for name, spec in registry.REGISTRY.items() if spec.kind == tag),
                 path, how, id=f"{tag}-{'.'.join(map(str, path))}-{how}")
    for cls, (tag, _) in registry.PARAM_TYPES.items() if cls is not tvar.TvarFit
    for path, rows in _declared_tables(cls)
    for how in (("cut", "halve") if rows else ("cut",))]


@pytest.mark.parametrize("model,path,how", DECLARED_TABLE_CASES)
def test_every_declared_table_is_checked_on_load(tmp_path, capsys, trained_model_data,
                                                 model, path, how):
    # cut drops the table's first entry along its first axis; halve scales
    # every entry by 0.5, so no row of a distribution sums to 1
    data = trained_model_data(model)
    *parents, name = path
    owner = data["params"]
    for key in parents:
        owner = owner[key]
    table = np.asarray(owner[name])
    owner[name] = (table[1:] if how == "cut" else table * 0.5).tolist()
    model_file = tmp_path / "corrupt.json"
    model_file.write_text(json.dumps(data))
    capsys.readouterr()
    assert _run("generate", "--model", model_file, "--n", "1", "--out", tmp_path / "b") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: corrupt model file: params:")
    if how == "halve":
        assert err[0].endswith(f"{name} {'rows do' if table.ndim > 1 else 'does'} not sum to 1")


def test_count_arguments_range_checked(tmp_path, toy_piece, capsys):
    piece, _ = toy_piece
    run, batch, bad = tmp_path / "run", tmp_path / "batch", tmp_path / "bad"
    assert _run("train", "--input", piece, "--model", "M1", "--states", "3",
                "--seed", "0", "--max-iter", "1", "--out", run) == 0
    model = run / "M1_model.json"
    assert _run("generate", "--model", model, "--n", "2", "--seed", "0", "--out", batch) == 0
    for argv, message in [
            (["generate", "--model", model, "--n", "-1"], "--n must be >= 1"),
            (["generate", "--model", model, "--n", "0"], "--n must be >= 1"),
            (["generate", "--model", model, "--length", "0"], "--length must be >= 1"),
            (["generate", "--model", model, "--length", "-3"], "--length must be >= 1"),
            (["generate", "--model", model, "--seed", "-1"], "--seed must be >= 0"),
            (["export", "--input", piece, "--batch", batch, "--top", "-1"],
             "--top must be >= 0"),
            (["train", "--input", piece, "--model", "M1", "--max-iter", "0"],
             "--max-iter must be >= 1"),
            (["train", "--input", piece, "--model", "M1", "--max-iter", "-2"],
             "--max-iter must be >= 1"),
            (["train", "--input", piece, "--model", "M1", "--restarts", "0"],
             "--restarts must be >= 1"),
            (["train", "--input", piece, "--model", "M1", "--seed", "-1"],
             "--seed must be >= 0"),
            (["train", "--input", piece, "--model", "M2", "--states", "2", "--order", "0"],
             "order must be a positive integer"),
            (["train", "--input", piece, "--model", "M5", "--states", "2", "--order", "-1"],
             "order must be a positive integer"),
            (["train", "--input", piece, "--model", "M2", "--states", "0"],
             "states must be a positive integer"),
            (["train", "--input", piece, "--model", "M7", "--states", "0"],
             "states must be a positive integer"),
            (["train", "--input", piece, "--model", "M13", "--layers", "0"],
             "layers must be a positive integer"),
            (["train", "--input", piece, "--model", "M8", "--dmax", "0"],
             "dmax must be a positive integer"),
            (["train", "--input", piece, "--model", "M8", "--states", "1"],
             "HSMM needs at least 2 states (no self-transitions)"),
            (["train", "--input", piece, "--model", "M9", "--states", "1"],
             "NSHMM needs at least 2 states")]:
        capsys.readouterr()
        assert _run(*argv, "--out", bad) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
    assert not bad.exists()


def test_states_over_the_cap_is_one_error_line(tmp_path, toy_piece, capsys, monkeypatch):
    piece, _ = toy_piece
    monkeypatch.setattr(hmm, "STATE_CAP", 4)
    assert _run("train", "--input", piece, "--model", "M1", "--states", "5",
                "--out", tmp_path / "run") == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: state space of 5 states exceeds the cap of 4; "
        "use fewer states (structured approximations are out of scope)"]


@pytest.mark.parametrize("model,warning", [
    ("M10", "option 'states' is not used by M10; ignored"),
    ("M13", "layer 2 Viterbi path uses a single state"),
])
def test_train_shows_fit_warnings(tmp_path, toy_piece, capsys, model, warning):
    piece, _ = toy_piece
    run = tmp_path / "run"
    assert _run("train", "--input", piece, "--model", model, "--states", "3",
                "--seed", "0", "--max-iter", "1", "--out", run) == 0
    assert capsys.readouterr().err.strip().splitlines() == [f"warning: {warning}"]
    report = json.loads((run / f"{model}_fit_report.json").read_text())
    assert report["warnings"] == [warning]


def test_failed_generate_creates_no_output_dir(tmp_path, toy_piece, capsys):
    piece, _ = toy_piece
    run = tmp_path / "run"
    assert _run("train", "--input", piece, "--model", "M15", "--out", run) == 0
    assert _run("train", "--input", piece, "--model", "M14", "--out", run) == 0
    data = json.loads((run / "M15_model.json").read_text())
    del data["params"]["transition"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    # every AR coefficient 3.0: the simulated series overflows within 2000 steps
    data = json.loads((run / "M14_model.json").read_text())
    data["params"]["coeff_means"] = np.full(np.shape(data["params"]["coeff_means"]),
                                            3.0).tolist()
    explosive = tmp_path / "explosive.json"
    explosive.write_text(json.dumps(data))
    # the last filtered covariance is no longer positive semi-definite
    data = json.loads((run / "M14_model.json").read_text())
    data["params"]["coeff_covs"][-1][0][0] *= -10
    not_psd = tmp_path / "not_psd.json"
    not_psd.write_text(json.dumps(data))
    for i, argv in enumerate([["--model", broken],
                              ["--model", run / "M15_model.json", "--seed", "-1"],
                              ["--model", explosive, "--length", "2000"],
                              ["--model", not_psd]]):
        out = tmp_path / f"out{i}"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _run("generate", *argv, "--n", "1", "--out", out) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert [str(w.message) for w in caught] == []  # a CLI run prints each on stderr


@pytest.mark.parametrize("command", ["evaluate", "export"])
def test_failed_scoring_creates_no_output_dir(tmp_path, toy_piece, command):
    piece, _ = toy_piece
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "batch.json").write_text('{"model": "M1"}')
    out = tmp_path / "out"
    assert _run(command, "--input", piece, "--batch", batch, "--out", out) == 2
    assert not out.exists()


BAD_ALPHABET = ("alphabet must be a non-empty, strictly increasing list of integers "
                "in 0-127")
BAD_SYMBOLS = "training_symbols must be a non-empty list of integers in 0-7"


# the toy piece's alphabet is 55..62
@pytest.mark.parametrize("field,value,message", [
    ("extra", 5, "extra is not a JSON object"),
    ("alphabet", {"a": 1}, "alphabet is not a JSON array"),
    ("training_symbols", 7, "training_symbols is not a JSON array"),
    ("alphabet", "55", "alphabet is not a JSON array"),
    ("training_symbols", None, "training_symbols is not a JSON array"),
    ("alphabet", [200, 56, 57, 58, 59, 60, 61, 62], BAD_ALPHABET),
    ("alphabet", [55.7, 56, 57, 58, 59, 60, 61, 62], BAD_ALPHABET),
    ("alphabet", [55, 55, 57, 58, 59, 60, 61, 62], BAD_ALPHABET),
    ("alphabet", [True, 56, 57, 58, 59, 60, 61, 62], BAD_ALPHABET),
    ("alphabet", ["55", 56, 57, 58, 59, 60, 61, 62], BAD_ALPHABET),
    ("alphabet", [62, 61, 60, 59, 58, 57, 56, 55], BAD_ALPHABET),
    ("alphabet", [], BAD_ALPHABET),
    ("training_symbols", [0, 1, 99], BAD_SYMBOLS),
    ("training_symbols", [0, -1, 2], BAD_SYMBOLS),
    ("training_symbols", [0, 1.5, 2], BAD_SYMBOLS),
    ("training_symbols", [False, 1, 2], BAD_SYMBOLS),
    ("training_symbols", [0, "1", 2], BAD_SYMBOLS),
    ("training_symbols", [0, [1], 2], BAD_SYMBOLS),
    ("training_symbols", [], BAD_SYMBOLS),
], ids=["extra", "alphabet", "training_symbols", "alphabet-string", "training_symbols-null",
        "alphabet-above-127", "alphabet-float", "alphabet-duplicate", "alphabet-bool",
        "alphabet-string-entry", "alphabet-decreasing", "alphabet-empty",
        "symbols-outside-alphabet", "symbols-negative", "symbols-float", "symbols-bool",
        "symbols-string", "symbols-nested", "symbols-empty"])
def test_non_container_model_field_rejected_on_load(tmp_path, toy_piece, capsys,
                                                    field, value, message):
    piece, _ = toy_piece
    run = tmp_path / "run"
    assert _run("train", "--input", piece, "--model", "M1", "--states", "3",
                "--seed", "0", "--max-iter", "1", "--out", run) == 0
    path = run / "M1_model.json"
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert _run("generate", "--model", path, "--n", "1", "--out", tmp_path / "b") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: corrupt model file: {message}"]


def test_unsupported_model_file_version_clean_error(tmp_path, toy_piece, capsys):
    piece, _ = toy_piece
    run = tmp_path / "run"
    assert _run("train", "--input", piece, "--model", "M1", "--states", "3",
                "--seed", "0", "--max-iter", "1", "--out", run) == 0
    path = run / "M1_model.json"
    data = json.loads(path.read_text())
    data["version"] = 2
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert _run("generate", "--model", path, "--n", "1", "--out", tmp_path / "b") == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: unsupported model file version 2"]


def test_unused_override_warning_names_the_flag(tmp_path, toy_piece, capsys):
    piece, _ = toy_piece
    run = tmp_path / "run"
    assert _run("train", "--input", piece, "--model", "M10", "--dmax", "4",
                "--seed", "0", "--max-iter", "1", "--out", run) == 0
    warning = "option 'dmax' is not used by M10; ignored"
    assert capsys.readouterr().err.strip().splitlines() == [f"warning: {warning}"]
    assert json.loads((run / "M10_fit_report.json").read_text())["warnings"] == [warning]
    assert _run("train", "--input", piece, "--model", "M8", "--states", "2", "--dmax", "4",
                "--seed", "0", "--max-iter", "1", "--out", run) == 0
    assert capsys.readouterr().err == ""
    spec = json.loads((run / "M8_model.json").read_text())["spec"]
    assert spec["options"] == {"states": 2, "d_max": 4}


def test_training_piece_with_non_utf8_text_records(tmp_path, toy_piece):
    # MIDI text events (titles, copyright notices) may hold Latin-1 bytes
    # that are not UTF-8; the parser ignores text records, and a UTF-8 title
    # whose bytes include 0x85 (\u00c5 is C3 85) still reads as one line
    piece, _ = toy_piece
    header, rest = piece.read_bytes().split(b"\n", 1)
    text_lines = {
        "latin1": b"1, 0, Copyright_t, \"\xa9 2020 M\xfcller\"\n"
                  b"1, 0, Title_t, \"Sonata\xa0No. 1\x85\"\n",
        "utf8": '1, 0, Title_t, "\u00c5ngstr\u00f6m"\n'.encode(),
    }
    pieces = {"plain": piece}
    for label, lines in text_lines.items():
        pieces[label] = tmp_path / label / "toy.csv"
        pieces[label].parent.mkdir()
        pieces[label].write_bytes(header + b"\n" + lines + rest)
    runs = {}
    for label, path in pieces.items():
        run = tmp_path / label / "run"
        assert _run("train", "--input", path, "--model", "M1", "--states", "4",
                    "--seed", "0", "--max-iter", "5", "--out", run) == 0
        runs[label] = run
    model = runs["plain"] / "M1_model.json"
    batch = tmp_path / "batch"
    assert _run("generate", "--model", model, "--n", "3", "--seed", "1", "--out", batch) == 0
    for label, path in pieces.items():
        assert (runs[label] / "M1_model.json").read_bytes() == model.read_bytes()
        for command in ("evaluate", "export"):
            assert _run(command, "--input", path, "--batch", batch,
                        "--out", runs[label] / command) == 0
        assert ((runs[label] / "evaluate" / "report.json").read_bytes()
                == (runs["plain"] / "evaluate" / "report.json").read_bytes())


def test_allocation_failure_is_one_error_line(tmp_path, toy_piece, capsys, monkeypatch):
    piece, _ = toy_piece
    run = tmp_path / "run"
    assert _run("train", "--input", piece, "--model", "M15", "--out", run) == 0
    message = "Unable to allocate 14.6 TiB for an array with shape (2000000000000,)"

    def no_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(registry, "sample_sequence", no_memory)
    capsys.readouterr()
    out = tmp_path / "out"
    assert _run("generate", "--model", run / "M15_model.json", "--out", out) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def _batch_dir(root, pieces, **fields):
    """A batch directory holding one piece file per list of lines, listed in
    batch.json's "pieces" with `fields` added."""
    batch = root / "batch"
    (batch / "pieces").mkdir(parents=True)
    names = []
    for i, lines in enumerate(pieces):
        (batch / "pieces" / f"piece_{i:04d}.txt").write_text(
            "".join(f"{line}\n" for line in lines))
        names.append(f"pieces/piece_{i:04d}.txt")
    (batch / "batch.json").write_text(json.dumps({"pieces": names, **fields}))
    return batch


@pytest.mark.parametrize("tpq", [0, 1, 32768, 2 ** 64])
@pytest.mark.parametrize("command", ["evaluate", "export"])
def test_time_base_outside_two_to_32767_ticks_rejected(tmp_path, toy_piece, capsys,
                                                        command, tpq):
    # at 1 tick per quarter an eighth is 0 ticks: every note would sit at tick 0
    piece, seq = toy_piece
    batch = _batch_dir(tmp_path, [seq.pitches], ticks_per_quarter=tpq)
    out = tmp_path / "out"
    assert _run(command, "--input", piece, "--batch", batch, "--out", out) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {batch / 'batch.json'}: ticks_per_quarter, the pieces' time base, "
                   f"must be an integer from 2 to 32767, not {tpq!r}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "export"])
def test_piece_with_pitch_outside_midi_range_skipped(tmp_path, toy_piece, capsys, command):
    piece, seq = toy_piece
    bad = [*seq.pitches[:20], 200, -5, 300, *seq.pitches[20:40], 10 ** 30]
    batch = _batch_dir(tmp_path, [seq.pitches, bad, [60, 10 ** 30]], ticks_per_quarter=480)
    out = tmp_path / "out"
    assert _run(command, "--input", piece, "--batch", batch, "--out", out) == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["skipping piece: pieces/piece_0001.txt: pitch 200 outside 0-127",
                   f"skipping piece: pieces/piece_0002.txt: pitch {10 ** 30} outside 0-127"]
    if command == "evaluate":
        rows = (out / "per_piece.csv").read_text().splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {"0"}
    else:
        manifest = json.loads((out / "export_manifest.json").read_text())
        assert [e["piece"] for e in manifest["artifacts"]["exports"]] == [0]
        for export in manifest["artifacts"]["exports"]:
            parse_midi_csv(pathlib.Path(export["path"]).read_text())


@pytest.mark.parametrize("text,outcome", [
    ("60\r\n62\r\n64\r\n", [60, 62, 64]),
    ("60\n62\n64", [60, 62, 64]),                      # no final newline
    ("\n60\n\n  \n\t\n 62 \n64\n\n", [60, 62, 64]),  # blank and whitespace lines
    ("60\n60 62\n64\n", "invalid literal for int() with base 10: '60 62'"),
    ("60\n6.5\n", "invalid literal for int() with base 10: '6.5'"),
    (f"60\n{10 ** 30}\n", f"pitch {10 ** 30} outside 0-127"),
    ("\n \n", "empty piece file"),
])
def test_piece_file_lines(tmp_path, text, outcome):
    batch = _batch_dir(tmp_path, [])
    (batch / "pieces" / "piece.txt").write_bytes(text.encode())
    (batch / "batch.json").write_text(json.dumps({"pieces": ["pieces/piece.txt"]}))
    _, pieces, problems = cli._load_batch(batch)
    if isinstance(outcome, str):
        assert (pieces, problems) == ({}, [f"pieces/piece.txt: {outcome}"])
    else:
        assert problems == [] and list(pieces) == [0]
        assert pieces[0].pitches.tolist() == outcome


def _assert_loads_as_linewise_parse(root, texts):
    """_load_batch reads a batch of piece files with these texts exactly as
    the line-by-line parse does: the same pitches, the same problems."""
    batch = root / "batch"
    (batch / "pieces").mkdir(parents=True)
    names = [f"pieces/piece_{i:04d}.txt" for i in range(len(texts))]
    want_pieces, want_problems = {}, []
    for position, (name, text) in enumerate(zip(names, texts)):
        (batch / name).write_bytes(text.encode())
        try:
            want_pieces[position] = linewise_piece_file(batch / name)
        except ValueError as exc:
            want_problems.append(f"{name}: {exc}")
    (batch / "batch.json").write_text(json.dumps({"pieces": names}))
    _, pieces, problems = cli._load_batch(batch)
    assert problems == want_problems
    assert {i: seq.pitches.tolist() for i, seq in pieces.items()} == want_pieces
    for seq in pieces.values():
        assert seq.pitches.dtype == np.int64
        assert seq.timestamps.tolist() == list(range(0, 240 * len(seq), 240))


# texts that miss generate's layout (one pitch 0-127 in ASCII decimal,
# ended by one newline, per line) by one detail
_NEAR_MISSES = ["060\n", "+60\n", "128\n", "-1\n", "1_0\n", "\u0666\u0660\n", " 60\n",
                "60 \n", "60\r\n62\r\n", "60\n62", "60\n\n62\n", "\n", "", "60 62\n",
                "6.5\n", f"{10 ** 30}\n"]


@pytest.fixture()
def fromstring_calls(monkeypatch):
    """The positional arguments of every np.fromstring call the test makes."""
    calls = []
    fromstring = np.fromstring
    monkeypatch.setattr(np, "fromstring", lambda *a, **k: calls.append(a) or fromstring(*a, **k))
    return calls


def test_near_miss_piece_files_are_parsed_line_by_line(tmp_path, fromstring_calls):
    _assert_loads_as_linewise_parse(tmp_path, _NEAR_MISSES)
    # open() reads "\r\n" as "\n", so only the CRLF file arrives in generate's layout
    assert fromstring_calls == [("60\n62\n",)]
    _assert_loads_as_linewise_parse(tmp_path / "within", [f"64\n{miss}" for miss in _NEAR_MISSES])


def test_generated_piece_files_are_parsed_in_one_call(tmp_path, toy_piece, fromstring_calls):
    piece, _ = toy_piece
    assert _run("train", "--input", piece, "--model", "M1", "--states", "3",
                "--max-iter", "2", "--out", tmp_path) == 0
    assert _run("generate", "--model", tmp_path / "M1_model.json", "--n", "4",
                "--out", tmp_path / "gen") == 0
    _, pieces, problems = cli._load_batch(tmp_path / "gen")
    assert len(fromstring_calls) == 4 and problems == []
    for i, seq in pieces.items():
        path = tmp_path / "gen" / "pieces" / f"piece_{i:04d}.txt"
        assert seq.pitches.tolist() == linewise_piece_file(path)
    # every pitch 0-127 takes the one call
    text = "".join(f"{p}\n" for p in range(128))
    assert cli._piece_pitches(text).tolist() == list(range(128)) and len(fromstring_calls) == 5


_GENERATED_LINES = st.lists(st.integers(0, 127).map(str), min_size=1, max_size=30)
_PIECE_TEXTS = st.one_of(
    _GENERATED_LINES.map(lambda lines: "".join(f"{line}\n" for line in lines)),
    st.tuples(_GENERATED_LINES, st.lists(st.sampled_from(_NEAR_MISSES), min_size=1, max_size=2),
              st.integers(0, 30)).map(
        lambda t: "".join(f"{line}\n" for line in t[0][:t[2]]) + "".join(t[1])
        + "".join(f"{line}\n" for line in t[0][t[2]:])),
    st.text(st.sampled_from("0123456789\n\r\t -+_.e\u0666"), max_size=20))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(texts=st.lists(_PIECE_TEXTS, min_size=1, max_size=5))
def test_fuzzed_piece_files_load_as_the_linewise_parse(texts):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_loads_as_linewise_parse(pathlib.Path(tmp), texts)


@pytest.mark.parametrize("command", ["evaluate", "export"])
def test_pieces_keep_their_batch_positions_after_a_skipped_piece(tmp_path, toy_piece, capsys,
                                                                 command):
    """Piece numbers in every output are positions in batch.json's list,
    whichever pieces before them were skipped."""
    piece, seq = toy_piece
    rng = np.random.default_rng(31)
    moving = 55 + rng.integers(0, 8, 150)
    batch = _batch_dir(tmp_path, [[200] * 150, moving, [60] * 150], ticks_per_quarter=480)
    out = tmp_path / "out"
    top = ["--top", 1] if command == "export" else []
    assert _run(command, "--input", piece, "--batch", batch, "--out", out, *top) == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert err[0] == "skipping piece: pieces/piece_0000.txt: pitch 200 outside 0-127"
    if command == "evaluate":
        assert err[1:] == ["piece 2 excluded from ACF/PACF pooling: "
                           "undefined ACF (constant or too-short piece)"]
        rows = (out / "per_piece.csv").read_text().splitlines()[1:]
        assert sorted({row.split(",")[0] for row in rows}) == ["1", "2"]
        report = json.loads((out / "report.json").read_text())
        assert report["skipped"] == [[2, "undefined ACF (constant or too-short piece)"]]
    else:
        exports = json.loads((out / "export_manifest.json").read_text())["artifacts"]["exports"]
        assert sorted(e["piece"] for e in exports) == [1, 2]
        for export in exports:
            path = pathlib.Path(export["path"])
            assert path.name == f"top_{export['criterion']}_{export['piece']:04d}.csv"
            want = moving if export["piece"] == 1 else [60] * 150
            assert parse_midi_csv(path.read_text()).pitches.tolist() == list(want)


# pitches with at most one odd line, so that many batches reach scoring and export
_ODD_LINES = st.one_of(st.integers(-300, -1), st.integers(128, 10 ** 30),
                       st.sampled_from(["", "  ", "6.5", "x", "1e3", "60 62"]))
_PIECES = st.tuples(st.lists(st.integers(40, 80), min_size=1, max_size=40),
                    st.lists(_ODD_LINES, max_size=1), st.integers(0, 40)).map(
    lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:])
# an index into the piece files, a missing file or a directory (non-string
# entries are test_malformed_batch_json_clean_error's)
_ENTRIES = st.one_of(st.integers(0, 2), st.integers(0, 2), st.sampled_from(["missing.txt", ""]))
_TIME_BASES = st.one_of(st.none(), st.just(480), st.integers(-2, 40_000),
                        st.sampled_from([2 ** 64, True, 2.5, "a"]))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(pieces=st.lists(_PIECES, min_size=1, max_size=3),
       entries=st.lists(_ENTRIES, min_size=1, max_size=4), tpq=_TIME_BASES)
def test_fuzzed_batch_scores_cleanly_and_exports_parseable_pieces(pieces, entries, tpq):
    """evaluate and export exit 0 or 2 on any batch directory, and every
    piece export writes parses back."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        piece = root / "toy.csv"
        piece.write_text(emit_midi_csv(_toy_seq()))
        batch = _batch_dir(root, pieces)
        names = json.loads((batch / "batch.json").read_text())["pieces"]
        listing = {"pieces": [names[e % len(names)] if isinstance(e, int) else e
                              for e in entries]}
        if tpq is not None:
            listing["ticks_per_quarter"] = tpq
        (batch / "batch.json").write_text(json.dumps(listing))
        assert _run("evaluate", "--input", piece, "--batch", batch, "--out", root / "ev") in (0, 2)
        assert _run("export", "--input", piece, "--batch", batch, "--out", root / "ex") in (0, 2)
        for path in (root / "ex").glob("top_*.csv"):
            parse_midi_csv(path.read_text())


# short pieces of the kinds that stress a fit: one pitch repeated, a few
# notes, a two-letter alphabet, and a walk that ends in a long run.  22
# notes is the shortest that M8's and M9's dwell cap of 20 leaves fittable.
_AWKWARD_PIECES = {
    "one-pitch": [60] * 22,
    "five-notes": [60, 62, 64, 65, 67],
    "two-pitch": np.random.default_rng(0).choice([60, 67], 22).tolist(),
    "walk-then-repeats": [60, 62, 61, 63, 65, 64] + [64] * 16,
}


def test_every_model_trains_and_generates_or_fails_cleanly_on_awkward_pieces(tmp_path, capsys):
    for label, pitches in _AWKWARD_PIECES.items():
        piece = tmp_path / f"{label}.csv"
        piece.write_text(emit_midi_csv(PitchSequence.eighths(pitches)))
        for name in sorted(registry.REGISTRY):
            out = tmp_path / label / name
            calls = [("train", "--input", piece, "--model", name, "--seed", "0",
                      "--max-iter", "2", "--out", out),
                     ("generate", "--model", out / f"{name}_model.json", "--n", "1",
                      "--seed", "1", "--out", out / "batch")]
            for argv in calls:
                status = _run(*argv)
                errors = [line for line in capsys.readouterr().err.splitlines()
                          if line.startswith("error:")]
                assert (status, len(errors)) in ((0, 0), (2, 1)), (label, name, argv[0], errors)
                if status:
                    break
            else:
                written = (out / "batch" / "pieces" / "piece_0000.txt").read_text().split()
                assert set(map(int, written)) <= set(pitches), (label, name)
