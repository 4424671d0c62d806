"""Correctness checks on the CLI's outputs, and the recorded reference.

Every check prints one PASS or FAIL line.  A FAIL marks the command whose
output it examined as failed, which counts towards ``failed``.

Checks that need no reference run on every seed: exit status, EM
iteration counts, the fit report's log-likelihood against a recomputation
from the saved model file, piece files against a direct library draw,
report sanity, rank order, and byte equality of repeated set-ups and
passes.  For the seeds recorded in ``reference.json`` the final
log-likelihoods (1e-9 relative) and the SHA-256 of every batch, report and
ranking must also match the recording.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from sscompose import persist, registry

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
REL_TOL = 1e-9
REPORT_FIELDS = ("entropy_rmse", "mutual_information_mean", "edit_distance_mean",
                 "dissonance_rmse", "large_interval_rmse", "note_count_rmse",
                 "acf_rmse", "pacf_rmse", "musicality_average", "temporal_average")


def sha256_files(paths):
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def batch_files(batch_dir):
    """batch.json followed by its piece files, in batch order."""
    batch_path = os.path.join(batch_dir, "batch.json")
    with open(batch_path) as fh:
        batch = json.load(fh)
    return batch, [batch_path] + [os.path.join(batch_dir, rel) for rel in batch["pieces"]]


def _read_piece(path):
    with open(path) as fh:
        return np.array(fh.read().split(), dtype=np.int64)


def close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class Checker:
    def __init__(self, out):
        self.out = out            # print function
        self.failed = set()       # ids of commands with a failed check
        self.count = 0

    def check(self, command, ok, what):
        self.count += 1
        if not ok:
            self.failed.add(command)
        self.out(f"{'PASS' if ok else 'FAIL'} [{command}] {what}")
        return ok


def reference_key(workload, budgets):
    """Fingerprint of everything besides the seed that fixes the outputs."""
    config = {"workload": workload.name, "models": list(workload.models),
              "n": workload.pieces_per_model,
              "budgets": {m: budgets[m] for m in workload.models if m in budgets},
              "piece": "P500", "seeds": "train --seed s, generate --seed s+1"}
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def load_reference(key, seed):
    if not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH) as fh:
        return json.load(fh).get(key, {}).get(str(seed))


def store_reference(key, seed, outcome):
    data = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as fh:
            data = json.load(fh)
    data.setdefault(key, {})[str(seed)] = outcome
    data[key] = dict(sorted(data[key].items(), key=lambda kv: int(kv[0])))
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def check_outputs(checker, cmd_ids, paths, models, budgets, length):
    """Check one pass's outputs and return their fingerprints.

    cmd_ids[(stage, model)] names the command that wrote each output;
    paths holds the model files, batch and evaluation directories and
    the rank command's captured stdout.
    """
    outcome = {"models": {}}
    for m in models:
        fit_path = paths["model_file"][m].replace("_model.json", "_fit_report.json")
        with open(fit_path) as fh:
            fit = json.load(fh)
        model = persist.load_model(paths["model_file"][m])
        train_id = cmd_ids[("train", m)]
        if m in budgets:
            checker.check(train_id, fit.get("iterations") == budgets[m],
                          f"{m} ran {fit.get('iterations')} EM iterations, budget {budgets[m]}")
        recomputed = registry.model_log_likelihood(model)
        checker.check(train_id, close(fit["final_log_likelihood"], recomputed),
                      f"{m} final log-likelihood {fit['final_log_likelihood']!r} equals "
                      f"the saved model's {recomputed!r}")

        gen_id = cmd_ids[("generate", m)]
        batch, files = batch_files(paths["batch_dir"][m])
        pieces = [_read_piece(f) for f in files[1:]]
        alphabet = set(model.alphabet.symbols.tolist())
        checker.check(gen_id, len(pieces) == batch["n"]
                      and all(len(p) == length and set(p.tolist()) <= alphabet for p in pieces),
                      f"{m} batch holds {batch['n']} pieces of length {length} "
                      f"over the model alphabet")
        draw = registry.sample_sequence(model, length, batch["seeds"][0]).pitches
        checker.check(gen_id, np.array_equal(draw, pieces[0]),
                      f"{m} piece 0 equals a direct draw with seed {batch['seeds'][0]}")

        eval_id = cmd_ids[("evaluate", m)]
        report_path = os.path.join(paths["eval_dir"][m], "report.json")
        with open(report_path) as fh:
            report = json.load(fh)
        checker.check(eval_id, all(math.isfinite(report[f]) for f in REPORT_FIELDS),
                      f"{m} report fields are finite")
        outcome["models"][m] = {
            "final_log_likelihood": fit["final_log_likelihood"],
            "iterations": fit.get("iterations"),
            "batch_sha256": sha256_files(files),
            "report_sha256": sha256_files([report_path]),
            "entropy_rmse": report["entropy_rmse"],
        }

    rows = [line.split(",") for line in paths["rank_stdout"].strip().splitlines()[1:]]
    expected = sorted(models, key=lambda m: (outcome["models"][m]["entropy_rmse"], m))
    checker.check(cmd_ids[("rank", None)], [r[1] for r in rows] == expected,
                  f"rank lists the {len(models)} models by entropy RMSE")
    outcome["rank_sha256"] = hashlib.sha256(paths["rank_stdout"].encode()).hexdigest()
    return outcome


def compare(checker, cmd_ids, outcome, other, label):
    """Check a pass's fingerprints against a reference or another pass."""
    for m, got in outcome["models"].items():
        want = other["models"][m]
        checker.check(cmd_ids[("train", m)],
                      close(got["final_log_likelihood"], want["final_log_likelihood"])
                      and got["iterations"] == want["iterations"],
                      f"{m} log-likelihood and iterations match {label}")
        checker.check(cmd_ids[("generate", m)], got["batch_sha256"] == want["batch_sha256"],
                      f"{m} batch SHA-256 matches {label}")
        checker.check(cmd_ids[("evaluate", m)], got["report_sha256"] == want["report_sha256"],
                      f"{m} report SHA-256 matches {label}")
    checker.check(cmd_ids[("rank", None)], outcome["rank_sha256"] == other["rank_sha256"],
                  f"ranking SHA-256 matches {label}")
