"""JSON persistence for trained models.

The file embeds everything a later session needs to regenerate or
re-evaluate deterministically: the model kind and options, the pitch
alphabet, the full parameter arrays (written via Python's repr-level
float formatting, 17 significant digits), the fit report and the
training symbol sequence.  The spec, report and parameters are written
from their dataclass fields in declaration order and read back by the
fields' type hints; the parameters carry the tag registry.PARAM_TYPES
gives their type.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields, is_dataclass
from itertools import chain
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .hmm import FitReport
from .midi_codec import MAX_PITCH, PitchAlphabet
from .registry import PARAM_TYPES, ModelSpec, TrainedModel

FORMAT_NAME = "sscompose-model"
FORMAT_VERSION = 1
PARAM_TAGS = {tag: cls for cls, (tag, _) in PARAM_TYPES.items()}


def _persisted(cls):
    """Fields written to the file; metadata {"persist": False} keeps one out."""
    return [f for f in fields(cls) if f.metadata.get("persist", True)]


def _jsonable(value):
    if is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in _persisted(value)}
    if isinstance(value, (np.ndarray, np.generic)):  # arrays to lists, numpy scalars to Python's
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _object(value, where):
    if not isinstance(value, dict):
        raise ValueError(f"corrupt model file: {where} is not a JSON object")
    return value


def _decode(cls, data, where):
    """Rebuild a dataclass; a field with a default may be absent from the file."""
    data = _object(data, where)
    hints = get_type_hints(cls)
    values = {}
    for f in _persisted(cls):
        if f.name in data:
            values[f.name] = _decode_value(hints[f.name], data[f.name], f"{where}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise KeyError(f.name)
    return cls(**values)


def _decode_value(hint, value, where):
    if (hint is np.ndarray or hint is tuple or get_origin(hint) is list) \
            and not isinstance(value, list):
        raise ValueError(f"corrupt model file: {where} is not a JSON array")
    if hint is np.ndarray:
        if _numbers(value):
            try:
                return np.asarray(value, dtype=float)
            except (OverflowError, ValueError):  # an integer beyond float range, or ragged rows
                pass
        raise ValueError(f"corrupt model file: {where} is not an array of numbers")
    if hint is tuple:
        return tuple(value)
    if get_origin(hint) is list:
        (item,) = get_args(hint)
        return [_decode_value(item, v, f"{where}[{i}]") for i, v in enumerate(value)]
    if is_dataclass(hint):
        return _decode(hint, value, where)
    return value


def _numbers(value):
    """Whether every leaf of a nested JSON array is a JSON number (int or
    float, not bool), checked one nesting level at a time.  The converted
    array cannot tell: numpy reads "0.5" and true as floats."""
    while True:
        kinds = set(map(type, value))
        if kinds != {list}:
            return kinds <= {int, float}
        value = list(chain.from_iterable(value))


def _symbols(value, where, high, increasing=False):
    """Decode a non-empty JSON array of integers in 0..high (strictly
    increasing when asked) as an int64 array."""
    if not isinstance(value, list):
        raise ValueError(f"corrupt model file: {where} is not a JSON array")
    # type(v) is int rejects JSON booleans; the order is compared only on integers
    ints = bool(value) and all(type(v) is int and 0 <= v <= high for v in value)
    if not ints or (increasing and any(a >= b for a, b in zip(value, value[1:]))):
        raise ValueError(f"corrupt model file: {where} must be a non-empty"
                         f"{', strictly increasing' if increasing else ''} list of "
                         f"integers in 0-{high}")
    return np.asarray(value, dtype=np.int64)


def model_to_dict(model):
    if type(model.params) not in PARAM_TYPES:
        raise TypeError(f"cannot serialize parameters of type {type(model.params).__name__}")
    tag, _ = PARAM_TYPES[type(model.params)]
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "spec": _jsonable(model.spec),
        "alphabet": model.alphabet.symbols.tolist(),
        "seed": model.seed,
        "training_symbols": model.training_symbols.tolist(),
        "report": _jsonable(model.report),
        "extra": _jsonable(model.extra),
        "params": {"param_type": tag, **_jsonable(model.params)},
    }


def model_from_dict(data):
    _object(data, "the top level")
    if data.get("format") != FORMAT_NAME:
        raise ValueError("not a model file (missing or wrong format marker)")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model file version {data.get('version')!r}")
    try:
        return _model_from_dict_checked(data)
    except KeyError as exc:
        raise ValueError(f"corrupt model file: missing field {exc.args[0]!r}") from None


def _model_from_dict_checked(data):
    spec = _decode(ModelSpec, data["spec"], "spec")
    tag = _object(data["params"], "params")["param_type"]
    if not isinstance(tag, str) or tag not in PARAM_TAGS:
        raise ValueError(f"unknown parameter type {tag!r} in model file")
    report = data.get("report")
    alphabet = PitchAlphabet(_symbols(data["alphabet"], "alphabet", MAX_PITCH, increasing=True))
    params = _decode(PARAM_TAGS[tag], data["params"], "params")
    try:
        params.validate(atol=1e-8, n_symbols=alphabet.size)
    except ValueError as exc:
        raise ValueError(f"corrupt model file: params: {exc}") from None
    return TrainedModel(
        spec,
        alphabet,
        params,
        None if report is None else _decode(FitReport, report, "report"),
        _symbols(data["training_symbols"], "training_symbols", alphabet.size - 1),
        data.get("seed"),
        dict(_object(data.get("extra", {}), "extra")),
    )


def save_model(model, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(model_to_dict(model)) + "\n")  # json.dump encodes in pure Python


def read_json(path):
    """A JSON file's value; ValueError("<path>: <reason>") if it is not UTF-8 JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError both are
            raise ValueError(f"{path}: {exc}") from None


def load_model(path):
    return model_from_dict(read_json(path))
