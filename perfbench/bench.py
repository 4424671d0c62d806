"""One benchmark run: set-ups, timed passes, checks and the metrics."""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import time
import traceback
import types

import numpy as np

from sscompose import cli, midi_codec
from sscompose.midi_codec import emit_midi_csv

import checks
import env
import spans
import workloads
from probe import NOMINAL_S, probe
from workloads import BUDGETS, TRAIN_GROUPS, WORKLOADS

SETUP_REPEATS = 3
MIN_PASSES = 2
PROBE_WINDOW = 3   # probes either side of a command that set its slowdown
# Train times (train_s, train_s.<group>) are printed and recorded as detail:
# not every workload trains every group, and batch-score's set-up training
# (mostly M12's two-thread BLAS) is not steadied by the single-thread probe.
# Zoo-fit's training is ~85 % of its pipeline_s.
END_TO_END = ("setup_s", "pipeline_s", "generate_pieces_per_s", "evaluate_pieces_per_s",
              "peak_rss_mib")


def say(line=""):
    print(line, flush=True)


def quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Segment:
    """One timed stretch of work and the probes around it.  `norm` divides
    the wall time by the machine's slowdown: the median of the probes within
    PROBE_WINDOW commands either side, over the probe's nominal time."""

    __slots__ = ("raw", "probes", "before")

    def __init__(self, raw, probes, before):
        self.raw = raw
        self.probes = probes      # the run's probe series, still growing
        self.before = before      # index of the probe run just before

    @property
    def norm(self):
        lo = max(0, self.before - PROBE_WINDOW + 1)
        window = self.probes[lo:self.before + 1 + PROBE_WINDOW]
        return self.raw * NOMINAL_S / statistics.median(window)


class Bench:
    """Runs the CLI commands of one workload in one work tree."""

    def __init__(self, workload, seed, budgets, checker):
        self.workload = workload
        self.seed = seed
        self.budgets = budgets
        self.checker = checker
        self.work = os.path.join(".perfbench_work", f"{workload.name}-s{seed}")
        self.piece_path = os.path.join(self.work, "piece.csv")
        stage = "setup" if workload.train_in_setup else "run"
        self.train_dir = os.path.join(self.work, stage, "train")
        self.piece = None
        self.log = []   # (command id, Segment, exit status)
        self.probes = [probe()]

    def timed(self, fn):
        """Run fn() between two probes; returns (Segment, result)."""
        start = time.perf_counter()
        result = fn()
        segment = Segment(time.perf_counter() - start, self.probes, len(self.probes) - 1)
        self.probes.append(probe())
        return segment, result

    def _main(self, argv, err):
        try:
            return cli.main(argv)
        except Exception:  # a traceback fails the command, not the benchmark
            err.write(traceback.format_exc())
            return "exception"

    def command(self, cmd_id, argv):
        """Run one CLI command; returns (Segment, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            segment, status = self.timed(lambda: self._main(argv, err))
        self.log.append((cmd_id, segment, status))
        if status != 0:
            lines = err.getvalue().strip().splitlines()
            self.checker.check(cmd_id, False,
                               f"exit status {status}: {lines[-1] if lines else ''}")
        return segment, out.getvalue()

    def train(self, tag, model):
        argv = ["train", "--input", self.piece_path, "--model", model,
                "--seed", str(self.seed), "--out", self.train_dir]
        if model in self.budgets:
            argv += ["--max-iter", str(self.budgets[model])]
        return self.command(f"{tag} train {model}", argv)[0]

    def write_piece(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        seq = self.workload.piece()
        with open(self.piece_path, "w") as fh:
            fh.write(emit_midi_csv(seq))
        with open(self.piece_path) as fh:
            self.piece = midi_codec.parse_midi_csv(fh.read())
        return seq

    def setup(self, tag):
        """Write and parse P500, then run any set-up training.
        Returns (Segments, train Segment per model, digest of the files
        written)."""
        write, seq = self.timed(self.write_piece)
        train_s = {}
        if self.workload.train_in_setup:
            train_s = {m: self.train(tag, m) for m in self.workload.models}
        self.checker.check(f"{tag} setup", np.array_equal(self.piece.pitches, seq.pitches)
                           and np.array_equal(self.piece.timestamps, seq.timestamps),
                           f"piece of {len(seq)} notes survives the MIDI-CSV round trip")
        files = [self.piece_path]
        if train_s:
            files += sorted(os.path.join(self.train_dir, f) for f in os.listdir(self.train_dir)
                            if not f.endswith("manifest.json"))
        return [write, *train_s.values()], train_s, checks.sha256_files(files)

    def run_pass(self, tag):
        """The timed sequence: train -> generate -> evaluate -> rank."""
        run = os.path.join(self.work, "run")
        shutil.rmtree(run, ignore_errors=True)
        models = self.workload.models
        train_tag = "setup" if self.workload.train_in_setup else tag
        ids = {("rank", None): f"{tag} rank"}
        paths = {"model_file": {}, "batch_dir": {}, "eval_dir": {}}
        for m in models:
            ids[("train", m)] = f"{train_tag} train {m}"
            ids[("generate", m)] = f"{tag} generate {m}"
            ids[("evaluate", m)] = f"{tag} evaluate {m}"
            paths["model_file"][m] = os.path.join(self.train_dir, f"{m}_model.json")
            paths["batch_dir"][m] = os.path.join(run, "gen", m)
            paths["eval_dir"][m] = os.path.join(run, "eval", m)

        train_s = {}
        if not self.workload.train_in_setup:
            train_s = {m: self.train(tag, m) for m in models}
        generate_s = {m: self.command(ids[("generate", m)], [
            "generate", "--model", paths["model_file"][m],
            "--n", str(self.workload.pieces_per_model), "--seed", str(self.seed + 1),
            "--out", paths["batch_dir"][m]])[0] for m in models}
        evaluate_s = {m: self.command(ids[("evaluate", m)], [
            "evaluate", "--input", self.piece_path, "--batch", paths["batch_dir"][m],
            "--out", paths["eval_dir"][m]])[0] for m in models}
        rank_s, paths["rank_stdout"] = self.command(ids[("rank", None)], [
            "rank", "--criterion", "entropy-rmse", "--reports",
            *[os.path.join(paths["eval_dir"][m], "report.json") for m in models]])
        segments = [*train_s.values(), *generate_s.values(), *evaluate_s.values(), rank_s]
        return {"pipeline_s": segments, "train_s": train_s, "generate_s": generate_s,
                "evaluate_s": evaluate_s, "rank_s": rank_s, "ids": ids, "paths": paths}

    def check_pass(self, result):
        """Check a pass's outputs; returns their fingerprints, or None when a
        command failed (its FAIL line is already printed)."""
        if any(entry[-1] != 0 for entry in self.log):
            return None
        return checks.check_outputs(self.checker, result["ids"], result["paths"],
                                    self.workload.models, self.budgets, len(self.piece))


def end_to_end(import_s, setups, passes, workload):
    """End-to-end metrics: medians over set-ups and passes of normalized
    times, with the raw medians alongside as `<name>.raw` detail."""
    pieces = len(workload.models) * workload.pieces_per_model
    trains = [s[1] for s in setups] if workload.train_in_setup else [p["train_s"] for p in passes]
    values, samples = {}, {}
    for suffix, get in (("", lambda seg: seg.norm), (".raw", lambda seg: seg.raw)):
        def total(segments):
            return sum(get(seg) for seg in segments)
        per = {
            "setup_s": [get(import_s) + total(s[0]) for s in setups],
            "pipeline_s": [total(p["pipeline_s"]) for p in passes],
            "train_s": [total(train.values()) for train in trains],
            "generate_pieces_per_s": [pieces / total(p["generate_s"].values()) for p in passes],
            "evaluate_pieces_per_s": [pieces / total(p["evaluate_s"].values()) for p in passes],
        }
        for group, members in TRAIN_GROUPS.items():
            if set(members) & set(workload.models):
                per[f"train_s.{group}"] = [total(train[m] for m in members if m in train)
                                           for train in trains]
        for name, series in per.items():
            unit = "pieces/s" if name.endswith("per_s") else "s"
            values[name + suffix] = (statistics.median(series), unit)
            samples[name + suffix] = series
    return values, samples


def run(args, import_s, load_start, root):
    workload = WORKLOADS[args.workload]
    budgets = BUDGETS
    if args.tiny:
        workload = workloads.tiny(workload)
        budgets = {m: 1 for m in BUDGETS}
    checker = checks.Checker(say)
    bench = Bench(workload, args.seed, budgets, checker)
    say(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
        f"{' '.join(workload.models)}, {workload.pieces_per_model} pieces each")

    tracer = spans.Tracer() if args.trace else None
    setups, passes = [], []
    if tracer is not None:
        # one traced set-up: its spans count, its time is not reported
        spans.install(tracer)
        try:
            setups.append(bench.setup("setup"))
        finally:
            tracer.restore()
    else:
        for k in range(SETUP_REPEATS):
            last = k == SETUP_REPEATS - 1
            setups.append(bench.setup("setup" if last else f"setup{k + 1}"))
        checker.check("setup", all(s[2] == setups[0][2] for s in setups),
                      f"{SETUP_REPEATS} set-ups wrote identical piece and model files")

    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < args.seconds:
        passes.append(bench.run_pass(f"pass{len(passes) + 1}"))
    rss = peak_rss_mib()
    final = bench.check_pass(passes[-1])
    last = passes[-1]
    if tracer is not None:
        spans.install(tracer)
        try:
            last = bench.run_pass("traced")
        finally:
            tracer.restore()
        untraced, final = final, bench.check_pass(last)
        if final is not None and untraced is not None:
            checks.compare(checker, last["ids"], final, untraced, "the untraced pass")

    ref_key = checks.reference_key(workload, budgets)
    if final is not None and not args.tiny:
        if args.record_reference:
            checks.store_reference(ref_key, args.seed, final)
            say(f"recorded reference {ref_key} seed {args.seed}")
        else:
            reference = checks.load_reference(ref_key, args.seed)
            if reference is None:
                say(f"SKIP no recorded reference for {ref_key} seed {args.seed}")
            else:
                checks.compare(checker, last["ids"], final, reference, "the recorded reference")

    attempted, failed = len(bench.log), len(checker.failed)
    say(f"{checker.count} checks; {attempted} commands attempted, {failed} failed; "
        f"failed_ops_ratio {failed / attempted:.6g}")

    if tracer is not None:
        untraced_s = statistics.median(sum(seg.norm for seg in p["pipeline_s"]) for p in passes)
        em_models = [m for m in workload.models if m in budgets]
        peaks = spans.peak_alloc(em_models, bench.piece, args.seed)
        metrics, detail = spans.layer_metrics(tracer.spans, peaks,
                                              sum(seg.norm for seg in last["pipeline_s"])
                                              / untraced_s)
        samples = {}
    else:
        # the import ran before the first probe: scale it by the run's median
        imported = types.SimpleNamespace(
            raw=import_s, norm=import_s * NOMINAL_S / statistics.median(bench.probes))
        values, samples = end_to_end(imported, setups, passes, workload)
        values["peak_rss_mib"] = (rss, "MiB")
        metrics = {k: values[k] for k in END_TO_END}
        detail = {k: v for k, v in values.items() if k not in metrics}
    for name, (value, unit) in metrics.items():
        say(f"metric {name} = {value:.6g} {unit}")
    for name, (value, unit) in sorted(detail.items()):
        say(f"detail {name} = {value:.6g} {unit}")

    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "seconds": args.seconds, "budgets": budgets,
        "models": list(workload.models), "pieces_per_model": workload.pieces_per_model,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_ops_ratio": failed / attempted,
        "metrics": as_json,
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "samples": {k: {"values": v, "n": len(v), "quartiles": quartiles(v)}
                    for k, v in samples.items()},
        "commands": [{"id": c, "seconds": seg.raw, "normalized_seconds": seg.norm,
                      "status": str(st)} for c, seg, st in bench.log],
        "probe_s": {"values": bench.probes, "n": len(bench.probes),
                    "quartiles": quartiles(bench.probes), "nominal": NOMINAL_S},
        "outputs": final,
        "environment": env.record(root, load_start),
    }
    if tracer is not None:
        record["spans"] = tracer.dump()
    os.makedirs(".perfbench_results", exist_ok=True)
    suffix = "-tiny" if args.tiny else ""
    result_path = os.path.join(".perfbench_results",
                               f"{workload.name}-seed{args.seed}-trace{args.trace}{suffix}.json")
    with open(result_path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    shutil.rmtree(bench.work, ignore_errors=True)
    say(f"record written to {result_path}")
    say(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": as_json}))
