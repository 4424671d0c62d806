"""Command-line pipeline: train, generate, evaluate, rank, export.

Every command writes a manifest echoing its configuration, derived
per-piece seeds (seed_i = master_seed + i) and output paths, so a run
can be reproduced bit-for-bit from the manifest alone.  The default
output root comes from the SSCOMPOSE_OUTPUT_ROOT environment variable
when --out is not given.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time

import numpy as np

from . import metrics as metrics_mod
from . import persist, registry
from .hmm import DEFAULT_MAX_ITER, DEFAULT_TOL
from .midi_codec import (MAX_DIVISION, MAX_PITCH, TICKS_PER_QUARTER, PitchSequence,
                         emit_midi_csv, parse_midi_csv)

OUTPUT_ROOT_ENV = "SSCOMPOSE_OUTPUT_ROOT"
DEFAULT_TOP = 3


def _make_out(out):
    """Create and return the output directory: --out, else the
    SSCOMPOSE_OUTPUT_ROOT directory, else the working directory."""
    out_dir = out or os.environ.get(OUTPUT_ROOT_ENV, ".")
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _read_piece(path):
    # text events (titles, copyright notices) may hold bytes that are not
    # UTF-8, such as Latin-1 ones; each becomes U+FFFD, which ends no line,
    # and every field the parser reads is ASCII
    with open(path, encoding="utf-8", errors="replace") as fh:
        return parse_midi_csv(fh.read())


def _write_text(path, text):
    """Write text to path in one call; every file cli writes goes through here."""
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _write_json(path, payload):
    return _write_text(path, json.dumps(payload, indent=2) + "\n")


def _write_manifest(args, out_dir, config, artifacts):
    """Write the manifest of command args.command, timed from args.started."""
    return _write_json(os.path.join(out_dir, f"{args.command}_manifest.json"), {
        "command": args.command,
        "config": config,
        "artifacts": artifacts,
        "wall_clock_seconds": time.time() - args.started,
    })


def _check_at_least(args, *flags):
    """Raise ValueError for the first (flag, least) whose given value is below least."""
    for flag, least in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value < least:
            raise ValueError(f"{flag} must be >= {least}")


def cmd_train(args):
    _check_at_least(args, ("--restarts", 1), ("--max-iter", 1))
    if not np.isfinite(args.tol):
        raise ValueError(f"--tol must be a finite number, not {args.tol}")
    _check_at_least(args, ("--seed", 0))
    seq = _read_piece(args.input)
    seedless = registry.REGISTRY[args.model].kind == "tvar"  # M14's grid search draws nothing
    model, loglik = None, -np.inf
    for r in range(1 if seedless else args.restarts):
        candidate = registry.train_model(
            args.model, seq, seed=args.seed + r, tol=args.tol,
            max_iter=args.max_iter, states=args.states, order=args.order,
            layers=args.layers, dmax=args.dmax)
        ll = registry.model_log_likelihood(candidate)
        if model is None or ll > loglik:
            model, loglik = candidate, ll
    out_dir = _make_out(args.out)
    model_path = os.path.join(out_dir, f"{args.model}_model.json")
    persist.save_model(model, model_path)
    report = {"model": args.model, "final_log_likelihood": loglik}
    if model.report is not None:
        report.update(iterations=model.report.iterations,
                      converged=model.report.converged,
                      log_likelihood_trace=list(model.report.log_likelihood_trace))
    report.update(model.extra)
    report.setdefault("warnings", [])
    if seedless and args.restarts > 1:
        report["warnings"] = [*report["warnings"],
                              f"option 'restarts' is not used by {args.model}; ignored"]
    report_path = _write_json(os.path.join(out_dir, f"{args.model}_fit_report.json"), report)
    config = {"input": args.input, "model": args.model, "seed": args.seed,
              "restarts": args.restarts, "tol": args.tol,
              "max_iter": args.max_iter, "states": args.states,
              "order": args.order, "layers": args.layers, "dmax": args.dmax}
    _write_manifest(args, out_dir, config, {"model_file": model_path, "fit_report": report_path})
    for warning in report["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"{args.model}: final log-likelihood {loglik:.6f}")
    return 0


def cmd_generate(args):
    _check_at_least(args, ("--n", 1), ("--length", 1), ("--seed", 0))
    model = persist.load_model(args.model)
    length = len(model.training_symbols) if args.length is None else args.length
    seeds = [args.seed + i for i in range(args.n)]
    pieces = [registry.sample_sequence(model, length, seed_i) for seed_i in seeds]
    out_dir = _make_out(args.out)
    pieces_dir = os.path.join(out_dir, "pieces")
    os.makedirs(pieces_dir, exist_ok=True)
    piece_paths = []
    for i, seq in enumerate(pieces):
        path = _write_text(os.path.join(pieces_dir, f"piece_{i:04d}.txt"),
                           "\n".join(map(str, seq.pitches.tolist())) + "\n")
        piece_paths.append(os.path.relpath(path, out_dir))
        if args.midi:
            _write_text(os.path.join(pieces_dir, f"piece_{i:04d}.csv"), emit_midi_csv(seq))
    batch = {"model": model.spec.name, "model_file": args.model,
             "master_seed": args.seed, "n": args.n, "length": length,
             "ticks_per_quarter": TICKS_PER_QUARTER, "seeds": seeds, "pieces": piece_paths}
    batch_path = _write_json(os.path.join(out_dir, "batch.json"), batch)
    config = {"model_file": args.model, "n": args.n, "seed": args.seed,
              "length": length, "midi": args.midi}
    _write_manifest(args, out_dir, config, {"batch": batch_path})
    print(f"generated {args.n} pieces of length {length} into {pieces_dir}")
    return 0


def _piece_pitches(text):
    """The pitches of a piece file, one a line; ValueError says what is wrong.

    Text exactly as generate writes it, every line a pitch 0-MAX_PITCH in
    ASCII decimal ended by one newline, is parsed in one call.  Other text
    is parsed line by line: blank lines are ignored and int() strips the
    whitespace around a number."""
    if re.fullmatch(r"(?:(?:1[01][0-9]|12[0-7]|[1-9]?[0-9])\n)+", text):  # 0-127
        return np.fromstring(text, dtype=np.int64, sep="\n")
    pitches = list(map(int, filter(str.strip, text.split("\n"))))
    if not pitches:
        raise ValueError("empty piece file")
    if not 0 <= min(pitches) <= max(pitches) <= MAX_PITCH:
        outside = next(p for p in pitches if not 0 <= p <= MAX_PITCH)
        raise ValueError(f"pitch {outside} outside 0-{MAX_PITCH}")
    return pitches


def _load_batch(batch_dir):
    batch_path = os.path.join(batch_dir, "batch.json")
    if not os.path.exists(batch_path):
        raise FileNotFoundError(f"no batch.json in {batch_dir}")
    batch = persist.read_json(batch_path)
    if not isinstance(batch, dict) or not isinstance(batch.get("pieces"), list):
        raise ValueError(f"{batch_path} is not a batch file: it needs a JSON object "
                         "with a \"pieces\" list")
    if not all(isinstance(rel, str) for rel in batch["pieces"]):
        raise ValueError(f"{batch_path}: every \"pieces\" entry must be a file name string")
    tpq = batch.get("ticks_per_quarter", TICKS_PER_QUARTER)
    # pieces hold one note per eighth, so 2 is the least
    if not isinstance(tpq, int) or isinstance(tpq, bool) or not 2 <= tpq <= MAX_DIVISION:
        raise ValueError(f"{batch_path}: ticks_per_quarter, the pieces' time base, "
                         f"must be an integer from 2 to {MAX_DIVISION}, not {tpq!r}")
    pieces, problems = {}, []
    for position, rel in enumerate(batch["pieces"]):
        path = os.path.join(batch_dir, rel)
        try:
            with open(path) as fh:
                text = fh.read()
            pieces[position] = PitchSequence.eighths(_piece_pitches(text), tpq)
        except (OSError, ValueError) as exc:
            problems.append(f"{rel}: {exc}")
    return batch, pieces, problems


def _score_batch(args):
    """Score the pieces of batch directory args.batch against the training
    piece args.input.  Returns the batch file, its readable pieces by their
    position in its "pieces" list, the report and the per-piece scores;
    the report's skipped pieces and the scores name pieces by position."""
    train_seq = _read_piece(args.input)
    batch, pieces, problems = _load_batch(args.batch)
    for problem in problems:
        print(f"skipping piece: {problem}", file=sys.stderr)
    if not pieces:
        raise ValueError("no readable pieces in the batch")
    positions = list(pieces)
    report = metrics_mod.evaluate_batch(train_seq, list(pieces.values()))
    report.skipped = [(positions[i], reason) for i, reason in report.skipped]
    scores = metrics_mod.piece_scores(report)
    for row in scores:
        row["piece"] = positions[row["piece"]]
    return batch, pieces, report, scores


def _write_csv(path, header, rows):
    """Write a CSV file; every float cell, numpy's included, is repr(float(v))."""
    lines = [header, *(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                                else str(v) for v in row) for row in rows)]
    return _write_text(path, "\n".join(lines) + "\n")


def _write_report_files(out_dir, report, scores, model_name):
    """Write the evaluation files; return them by manifest artifact name."""
    summary = report.summary()
    ref = report.training_metrics
    valid = [mv for mv, _ in report.per_piece if mv.acf is not None]
    mean_acf, mean_pacf = (np.mean([(mv.acf, mv.pacf) for mv in valid], axis=0) if valid
                           else np.full((2, len(ref.acf)), np.nan))
    return {
        "metrics": _write_csv(os.path.join(out_dir, "metrics.csv"), "metric,value",
                              summary.items()),
        "per_piece": _write_csv(os.path.join(out_dir, "per_piece.csv"), "piece,metric,value",
                                ((row["piece"], key, value)
                                 for row in scores
                                 for key, value in row.items() if key != "piece")),
        "curves": _write_csv(os.path.join(out_dir, "acf_pacf.csv"),
                             "lag,train_acf,train_pacf,batch_mean_acf,batch_mean_pacf",
                             zip(range(1, len(ref.acf) + 1), ref.acf, ref.pacf,
                                 mean_acf, mean_pacf)),
        "report": _write_json(os.path.join(out_dir, "report.json"),
                              {"model": model_name, **summary, "skipped": report.skipped})}


def cmd_evaluate(args):
    batch, _, report, scores = _score_batch(args)
    for idx, reason in report.skipped:
        print(f"piece {idx} excluded from ACF/PACF pooling: {reason}", file=sys.stderr)
    out_dir = _make_out(args.out)
    artifacts = _write_report_files(out_dir, report, scores, batch.get("model", "?"))
    _write_manifest(args, out_dir, {"input": args.input, "batch": args.batch}, artifacts)
    print(f"entropy RMSE {report.entropy_rmse:.6f}, "
          f"musicality avg {report.musicality_average:.6f}, "
          f"temporal avg {report.temporal_average:.6f}")
    return 0


def cmd_rank(args):
    key_field = metrics_mod.criterion_field(args.criterion)
    entries = []
    for path in args.reports:
        payload = persist.read_json(path)
        if not isinstance(payload, dict):
            raise ValueError(f"{path} is not a report: it needs a JSON object")
        if key_field not in payload:
            raise ValueError(f"{path}: report missing field {key_field!r}")
        value = payload[key_field]
        # NaN passes: an all-skipped batch writes NaN temporal scores
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{path}: {key_field} must be a number, not {value!r}")
        # as text, so that ties between model ids of different JSON types sort too
        entries.append((value, str(payload.get("model", "?")), path))
    # NaN sorts after every number; equal scores break ties by model id, then path
    entries.sort(key=lambda e: (e[0] != e[0], 0.0 if e[0] != e[0] else e[0], *e[1:]))
    print(f"rank,model,{key_field},report")
    for place, (value, model, path) in enumerate(entries, start=1):
        print(f"{place},{model},{value!r},{path}")
    return 0


def cmd_export(args):
    _check_at_least(args, ("--top", 0))
    _, pieces, _, scores = _score_batch(args)
    chosen = []  # (criterion, piece index); a piece appears at most once
    taken = set()
    for criterion in metrics_mod.CRITERIA:
        ordered = sorted(scores, key=lambda r: (r[criterion], r["piece"]))
        picked = [row["piece"] for row in ordered if row["piece"] not in taken][:args.top]
        taken.update(picked)
        chosen += [(criterion, idx) for idx in picked]
    out_dir = _make_out(args.out)
    exports = []
    for criterion, idx in chosen:
        path = _write_text(os.path.join(out_dir, f"top_{criterion}_{idx:04d}.csv"),
                           emit_midi_csv(pieces[idx]))
        exports.append({"criterion": criterion, "piece": idx, "path": path})
        print(f"{criterion}: piece {idx} -> {path}")
    config = {"input": args.input, "batch": args.batch, "top": args.top}
    _write_manifest(args, out_dir, config, {"exports": exports})
    return 0


@functools.cache  # a build costs about 15 parses, and every parse fills a new namespace
def build_parser():
    parser = argparse.ArgumentParser(
        prog="sscompose",
        description="Train state-space models on symbolic piano pieces, sample "
                    "new pieces, score them and rank by RMSE.")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a model to a MIDI-CSV piece")
    train.add_argument("--input", required=True, help="training piece (MIDI-CSV)")
    train.add_argument("--model", required=True, choices=sorted(registry.REGISTRY),
                       help="model id")
    train.add_argument("--states", type=int, help="hidden state count override")
    train.add_argument("--order", type=int, help="Markov order override")
    train.add_argument("--layers", type=int, help="layer count override")
    train.add_argument("--dmax", type=int, help="maximum dwell length override")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--restarts", type=int, default=1,
                       help="independent restarts, keeping the best likelihood")
    train.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="EM convergence tolerance (EM kinds only)")
    train.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                       help="EM iteration cap (EM kinds only)")
    train.add_argument("--out", help="output directory")

    gen = sub.add_parser("generate", help="sample a batch from a trained model")
    gen.add_argument("--model", required=True, help="model file from train")
    gen.add_argument("--n", type=int, default=1000, help="batch size")
    gen.add_argument("--seed", type=int, default=0, help="master seed")
    gen.add_argument("--length", type=int, help="piece length (default: training length)")
    gen.add_argument("--midi", action="store_true", help="also write MIDI-CSV per piece")
    gen.add_argument("--out", help="output directory")

    ev = sub.add_parser("evaluate", help="score a generated batch against its training piece")
    ev.add_argument("--input", required=True, help="training piece (MIDI-CSV)")
    ev.add_argument("--batch", required=True, help="batch directory from generate")
    ev.add_argument("--out", help="output directory")

    rank = sub.add_parser("rank", help="order evaluation reports by a criterion")
    rank.add_argument("--criterion", default="entropy-rmse",
                      help=f"one of {', '.join(metrics_mod.CRITERIA)}")
    rank.add_argument("--reports", nargs="+", required=True, help="report.json files")

    exp = sub.add_parser("export", help="export top pieces per criterion as MIDI-CSV")
    exp.add_argument("--input", required=True, help="training piece (MIDI-CSV)")
    exp.add_argument("--batch", required=True, help="batch directory from generate")
    exp.add_argument("--top", type=int, default=DEFAULT_TOP, help="pieces per criterion")
    exp.add_argument("--out", help="output directory")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = time.time()
    try:
        # looked up per call, so a wrapper put on cmd_* after the parser was built runs
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
