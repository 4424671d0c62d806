"""Named model configurations (M1..M15) and the train/sample dispatch.

Each entry pairs a model kind with its default hyperparameters.  Training
takes a pitch sequence, builds the piece's alphabet, fits the model and
returns a TrainedModel; sampling produces a new pitch array of the
requested length from the fitted parameters, through sampling tables each
TrainedModel builds once and keeps.  The EM trainers take their spec's
option names as keyword arguments.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from . import hierarchical, hmm, semimarkov, tvar, variants
from .midi_codec import PitchSequence, build_alphabet

DEFAULT_D_MAX = 20
# override names that spell a spec option differently: the train command's
# --dmax flag arrives as dmax and sets option d_max
OVERRIDE_SPELLINGS = {"dmax": "d_max"}


@dataclass(frozen=True)
class ModelSpec:
    name: str
    kind: str
    description: str
    options: dict = field(default_factory=dict)


REGISTRY = {
    "M1": ModelSpec("M1", "hmm", "first-order HMM, 25 states",
                    {"states": 25}),
    "M2": ModelSpec("M2", "khmm", "second-order HMM, 25 states",
                    {"states": 25, "order": 2}),
    "M3": ModelSpec("M3", "khmm", "third-order HMM, 10 states",
                    {"states": 10, "order": 3}),
    "M4": ModelSpec("M4", "lrhmm", "left-right HMM, 25 states",
                    {"states": 25, "order": 1}),
    "M5": ModelSpec("M5", "lrhmm", "second-order left-right HMM, 25 states",
                    {"states": 25, "order": 2}),
    "M6": ModelSpec("M6", "lrhmm", "third-order left-right HMM, 10 states",
                    {"states": 10, "order": 3}),
    "M7": ModelSpec("M7", "arhmm", "autoregressive-emission HMM, 25 states",
                    {"states": 25}),
    "M8": ModelSpec("M8", "hsmm", "explicit-duration semi-Markov HMM, 25 states",
                    {"states": 25, "d_max": DEFAULT_D_MAX}),
    "M9": ModelSpec("M9", "nshmm", "duration-dependent stay-probability HMM, 25 states",
                    {"states": 25, "d_max": DEFAULT_D_MAX}),
    "M10": ModelSpec("M10", "tshmm", "two-hidden-state HMM, 10 emitting x 5 driving",
                     {"m1": 10, "m2": 5}),
    "M11": ModelSpec("M11", "tshmm", "two-hidden-state HMM, 5 emitting x 10 driving",
                     {"m1": 5, "m2": 10}),
    "M12": ModelSpec("M12", "fhmm", "factorial HMM with chains of 15, 10 and 5 states",
                     {"chains": (15, 10, 5)}),
    "M13": ModelSpec("M13", "lhmm", "layered HMM, 3 layers of 25 states",
                     {"states": 25, "layers": 3}),
    "M14": ModelSpec("M14", "tvar", "time-varying AR with discount grid search",
                     {}),
    "M15": ModelSpec("M15", "random", "untrained random-parameter HMM, 25 states",
                     {"states": 25}),
}


@dataclass(eq=False)  # == is identity: the numpy fields have no truth value
class TrainedModel:
    spec: ModelSpec
    alphabet: object            # PitchAlphabet
    params: object              # kind-specific parameter object
    report: object | None      # FitReport or None
    training_symbols: np.ndarray
    seed: int | None
    extra: dict = field(default_factory=dict)

    @property
    def kind(self):
        return self.spec.kind

    @functools.cached_property
    def draw(self):
        """The sampler of params, draw(length, seed), built on first use and
        kept: not a field, so persist and repr do not see it."""
        _, sampler = PARAM_TYPES[type(self.params)]
        return sampler(self.params)


# The kinds fitted by EM on their spec's sizes
EM_TRAINERS = {
    "khmm": variants.train_khmm, "lrhmm": variants.train_lrhmm, "arhmm": variants.train_arhmm,
    "hsmm": semimarkov.train_hsmm,
    "tshmm": hierarchical.train_tshmm, "fhmm": hierarchical.train_fhmm,
    "lhmm": hierarchical.train_lhmm,
}


def _resolved_options(spec, overrides):
    """The spec with each given override its kind reads applied, and one
    warning, naming the override as the caller spelled it, per override it
    does not read.  An override of an integer option must be a positive
    integer, and states may not exceed the state cap."""
    opts, warnings = dict(spec.options), []
    for name, value in overrides.items():
        if value is None:
            continue
        key = OVERRIDE_SPELLINGS.get(name, name)
        if key in opts:
            if isinstance(opts[key], int):
                hmm.check_positive_ints([(name, value)])
            if key == "states":
                hmm.check_state_cap(value)
            opts[key] = value
        else:
            warnings.append(f"option {name!r} is not used by {spec.name}; ignored")
    return replace(spec, options=opts), warnings


def train_model(name, sequence, seed=None, tol=hmm.DEFAULT_TOL,
                max_iter=hmm.DEFAULT_MAX_ITER, **overrides):
    """Fit the named model to a PitchSequence."""
    if name not in REGISTRY:
        raise ValueError(f"unknown model {name!r}; valid names: {sorted(REGISTRY)}")
    spec, warnings = _resolved_options(REGISTRY[name], overrides)
    alphabet = build_alphabet(sequence)
    obs = alphabet.to_indices(sequence.pitches)
    K = alphabet.size
    opts, kind, extra, report = spec.options, spec.kind, {}, None
    em = {"seed": seed, "tol": tol, "max_iter": max_iter}

    if kind in EM_TRAINERS:
        params, report = EM_TRAINERS[kind](obs, n_symbols=K, **opts, **em)
    elif kind == "hmm":
        params, report = hmm.baum_welch(hmm.random_params(opts["states"], K, seed), obs, **em)
    elif kind == "nshmm":
        params, extra["sampler"] = semimarkov.train_nshmm(obs, n_symbols=K, seed=seed, **opts)
    elif kind == "tvar":
        params, extra["grid_audit"] = tvar.grid_search(tvar.TvarSpec(), sequence.pitches.astype(float))
    elif kind == "random":
        params = hmm.random_params(opts["states"], K, seed)
    if kind == "lhmm":
        warnings += params.warnings
    if kind in ("nshmm", "tvar", "random"):  # fitted without EM: name a budget that was set
        warnings += _resolved_options(spec, {
            "tol": None if tol == hmm.DEFAULT_TOL else tol,
            "max_iter": None if max_iter == hmm.DEFAULT_MAX_ITER else max_iter})[1]
    if warnings or kind == "lhmm":  # LHMM files record the list even when empty
        extra["warnings"] = warnings
    return TrainedModel(spec, alphabet, params, report, obs,
                        seed if isinstance(seed, int) else None, extra)


# Parameter dataclass -> (model-file tag, sampler builder).  A builder
# sampler(params) makes the parameters' sampling tables once and returns
# draw(length, seed), a symbol array.  Model kinds that share a parameter
# type share its entry: "random" fits HmmParams, "lrhmm" HmmParams or
# KhmmParams.  Every type but TVAR's states its chain for
# hmm.log_likelihood.  TVAR's draw returns a real-valued series, not
# symbols, and resolves tvar.backward_sample when it is called.
PARAM_TYPES = {
    hmm.HmmParams: ("hmm", hmm.sampler),
    variants.KhmmParams: ("khmm", variants.khmm_sampler),
    variants.ArhmmParams: ("arhmm", variants.arhmm_sampler),
    semimarkov.HsmmParams: ("hsmm", semimarkov.hsmm_sampler),
    semimarkov.NshmmParams: ("nshmm", semimarkov.nshmm_sampler),
    hierarchical.TshmmParams: ("tshmm", hierarchical.tshmm_sampler),
    hierarchical.FhmmParams: ("fhmm", hierarchical.fhmm_sampler),
    hierarchical.LhmmParams: ("lhmm", hierarchical.lhmm_sampler),
    tvar.TvarFit: ("tvar", lambda params: lambda length, seed:
                   tvar.backward_sample(params, length, seed)),
}


def model_log_likelihood(model):
    """Training-sequence log-likelihood of a fitted model (for TVAR, the
    grid-search log marginal)."""
    if isinstance(model.params, tvar.TvarFit):
        return model.params.log_marginal
    return hmm.log_likelihood(model.params, model.training_symbols)


def sample_model(model, length, seed):
    """Draw a new pitch array of the given length from the fitted model."""
    values = model.draw(length, seed)
    if isinstance(model.params, tvar.TvarFit):
        return tvar.bin_to_alphabet(values, model.alphabet)
    return model.alphabet.to_pitches(values)


def sample_sequence(model, length, seed):
    """Sample pitches and wrap them as a melody of one note per eighth."""
    return PitchSequence.eighths(sample_model(model, length, seed))
