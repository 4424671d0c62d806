"""Spans around the calls into each sscompose module, recorded from outside.

Nothing in the package is edited: ``install`` replaces module attributes
with timing wrappers, including names a module re-bound with
``from .x import f`` (``variants.baum_welch``, ``hierarchical.baum_welch``,
``cli.parse_midi_csv``), and ``Tracer.restore`` puts the originals back.
Spans (name, start, end, parent) stay in memory until the benchmark writes
them out.

tracemalloc slows the EM kernels several-fold, so it stays off while spans
are timed; ``peak_alloc`` measures allocation afterwards with one-iteration
fits of the same models.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc

from sscompose import (cli, hierarchical, hmm, metrics, midi_codec, persist,
                       registry, tvar, variants)

from workloads import MODULE_OF_KIND, WORKLOADS

EM_MODULES = ("hmm", "variants", "semimarkov", "hierarchical")
METRIC_FUNCTIONS = ("evaluate_batch", "edit_distance", "dissonance_rate",
                    "large_interval_rate", "acf_pacf", "mutual_information",
                    "empirical_entropy", "pitch_histogram", "piece_scores")
CLI_COMMANDS = ("train", "generate", "evaluate", "rank")
# models every workload trains and samples: their kernels are per-layer metrics
COMMON_MODELS = set.intersection(*(set(w.models) for w in WORKLOADS.values()))
MIB = 1024.0 * 1024.0


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "child_s")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.attrs = {}
        self.child_s = 0.0
        self.start = self.end = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        """Duration minus the time covered by child spans (children of one
        span run one after another, so their durations add up)."""
        return self.duration - self.child_s

    def as_dict(self, index):
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "attrs": self.attrs}


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []       # indices of the spans now running, innermost last
        self._patches = []

    def wrap(self, module, attr, name, annotate=None):
        original = getattr(module, attr)
        spans, open_ = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else None)
            spans.append(span)
            open_.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
                if span.parent is not None:
                    spans[span.parent].child_s += span.duration
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self):
        return [span.as_dict(i) for i, span in enumerate(self.spans)]


def _model_attrs(model):
    return {"model": model.spec.name, "kind": model.kind}


def _train_attrs(args, kwargs, model):
    attrs = _model_attrs(model)
    attrs["iterations"] = model.report.iterations if model.report is not None else None
    if "sampler" in model.extra:
        attrs["acceptance_rate"] = model.extra["sampler"]["acceptance_rate"]
        attrs["sweeps"] = model.extra["sampler"]["iterations"]
    return attrs


def _dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def install(tracer):
    """Wrap the public entry points of every layer the CLI reaches."""
    w = tracer.wrap
    w(cli, "cmd_train", "cli.train", lambda a, k, r: {"model": a[0].model})
    w(cli, "cmd_generate", "cli.generate",
      lambda a, k, r: {"bytes_written": _dir_bytes(a[0].out)})
    w(cli, "cmd_evaluate", "cli.evaluate")
    w(cli, "cmd_rank", "cli.rank")
    for module in (midi_codec, cli):
        w(module, "parse_midi_csv", "midi_codec.parse_midi_csv",
          lambda a, k, r: {"notes": len(r)})
    w(persist, "save_model", "persist.save_model",
      lambda a, k, r: {"model": a[0].spec.name, "bytes": os.path.getsize(a[1])})
    w(persist, "load_model", "persist.load_model", lambda a, k, r: _model_attrs(r))
    w(registry, "train_model", "registry.train_model", _train_attrs)
    w(registry, "model_log_likelihood", "registry.model_log_likelihood",
      lambda a, k, r: _model_attrs(a[0]))
    w(registry, "sample_sequence", "registry.sample_sequence",
      lambda a, k, r: _model_attrs(a[0]))
    for module in (hmm, variants, hierarchical):
        w(module, "baum_welch", "hmm.baum_welch")
    w(hierarchical, "tshmm_em_step", "hierarchical.tshmm_em_step")
    w(tvar, "fit_tvar", "tvar.fit_tvar")
    w(tvar, "backward_sample", "tvar.backward_sample")
    for fn in METRIC_FUNCTIONS:
        w(metrics, fn, f"metrics.{fn}")


def peak_alloc(models, piece, seed):
    """tracemalloc peak (bytes) of a one-iteration fit of each model; the
    E- and M-step arrays of one iteration are the peak of a longer fit."""
    peaks = {}
    for m in models:
        tracemalloc.start()
        try:
            registry.train_model(m, piece, seed=seed, max_iter=1)
            peaks[m] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def layer_metrics(spans, peaks, overhead_ratio):
    """Per-layer metrics reported on every workload, and per-model detail
    for the models only some workloads run (printed and recorded)."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def spans_of(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in spans_of(name))

    out, detail = {}, {}
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.self_s"] = (sum(s.self_s for s in spans_of(f"cli.{cmd}")), "s")
    out["cli.generate.bytes_written"] = (
        sum(s.attrs["bytes_written"] for s in spans_of("cli.generate")), "B")
    out["midi_codec.parse_midi_csv_s"] = (total("midi_codec.parse_midi_csv"), "s")
    out["midi_codec.notes"] = (
        sum(s.attrs["notes"] for s in spans_of("midi_codec.parse_midi_csv")), "count")
    out["persist.save_model_s"] = (total("persist.save_model"), "s")
    out["persist.save_model_bytes"] = (
        sum(s.attrs["bytes"] for s in spans_of("persist.save_model")), "B")
    out["persist.load_model_s"] = (total("persist.load_model"), "s")
    samples = spans_of("registry.sample_sequence")
    out["registry.sample_s"] = (sum(s.duration for s in samples) / len(samples), "s")

    def module_of(span):
        return MODULE_OF_KIND[span.attrs["kind"]]

    trains = [s for s in spans_of("registry.train_model") if s.attrs["iterations"]]
    for module in EM_MODULES:
        mine = [s for s in trains if module_of(s) == module]
        smp = [s for s in samples if module_of(s) == module]
        out[f"{module}.em_iter_s"] = (
            sum(s.duration for s in mine) / sum(s.attrs["iterations"] for s in mine), "s")
        out[f"{module}.sample_s"] = (sum(s.duration for s in smp) / len(smp), "s")

    # per-model kernels: every workload's models for `out`, the rest as detail
    forward = {s.attrs["model"]: s.duration for s in spans_of("registry.model_log_likelihood")}
    sample_times = {}
    for s in samples:
        sample_times.setdefault(s.attrs["model"], []).append(s.duration)
    for s in trains:
        m, module = s.attrs["model"], module_of(s)
        dest = out if m in COMMON_MODELS else detail
        dest[f"{module}.em_iter_s.{m}"] = (s.duration / s.attrs["iterations"], "s")
        dest[f"{module}.em_iterations.{m}"] = (s.attrs["iterations"], "count")
        dest[f"{module}.forward_s.{m}"] = (forward[m], "s")
        dest[f"{module}.peak_alloc_mib.{m}"] = (peaks[m] / MIB, "MiB")
    for m, times in sample_times.items():
        dest = out if m in COMMON_MODELS else detail
        dest[f"registry.sample_s.{m}"] = (sum(times) / len(times), "s")

    for fn in METRIC_FUNCTIONS:
        calls = spans_of(f"metrics.{fn}")
        out[f"metrics.{fn}.s"] = (sum(s.duration for s in calls), "s")
        out[f"metrics.{fn}.calls"] = (len(calls), "count")
    out["trace_overhead_ratio"] = (overhead_ratio, "ratio")

    for s in spans_of("registry.train_model"):
        if "acceptance_rate" in s.attrs:
            m = s.attrs["model"]
            detail[f"semimarkov.sweep_s.{m}"] = (s.duration / s.attrs["sweeps"], "s")
            detail[f"semimarkov.acceptance_rate.{m}"] = (s.attrs["acceptance_rate"], "ratio")
    steps = spans_of("hierarchical.tshmm_em_step")
    if steps:
        detail["hierarchical.tshmm_em_step_s"] = (total("hierarchical.tshmm_em_step") / len(steps), "s")
    cells = spans_of("tvar.fit_tvar")
    if cells:
        detail["tvar.cell_s"] = (total("tvar.fit_tvar") / len(cells), "s")
        detail["tvar.cells"] = (len(cells), "count")
    draws = spans_of("tvar.backward_sample")
    if draws:
        detail["tvar.backward_sample_s"] = (total("tvar.backward_sample") / len(draws), "s")
    for s in spans_of("persist.save_model"):
        detail[f"persist.save_model_bytes.{s.attrs['model']}"] = (s.attrs["bytes"], "B")
    return out, detail
