import copy
import dataclasses
import json
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sscompose import hmm, persist, registry, tvar
from sscompose.midi_codec import PitchSequence


def _toy_sequence(length=120, seed=0):
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.integers(-2, 3, length)) % 8
    return PitchSequence(55 + walk, np.arange(length) * 240)


def test_registry_table_matches_published_configurations():
    r = registry.REGISTRY
    assert (r["M1"].kind, r["M1"].options["states"]) == ("hmm", 25)
    assert (r["M2"].kind, r["M2"].options) == ("khmm", {"states": 25, "order": 2})
    assert (r["M3"].kind, r["M3"].options) == ("khmm", {"states": 10, "order": 3})
    assert (r["M4"].kind, r["M4"].options) == ("lrhmm", {"states": 25, "order": 1})
    assert (r["M5"].kind, r["M5"].options) == ("lrhmm", {"states": 25, "order": 2})
    assert (r["M6"].kind, r["M6"].options) == ("lrhmm", {"states": 10, "order": 3})
    assert (r["M7"].kind, r["M7"].options["states"]) == ("arhmm", 25)
    assert (r["M8"].kind, r["M8"].options["states"]) == ("hsmm", 25)
    assert (r["M9"].kind, r["M9"].options["states"]) == ("nshmm", 25)
    assert (r["M10"].kind, r["M10"].options) == ("tshmm", {"m1": 10, "m2": 5})
    assert (r["M11"].kind, r["M11"].options) == ("tshmm", {"m1": 5, "m2": 10})
    assert (r["M12"].kind, tuple(r["M12"].options["chains"])) == ("fhmm", (15, 10, 5))
    assert (r["M13"].kind, r["M13"].options) == ("lhmm", {"states": 25, "layers": 3})
    assert r["M14"].kind == "tvar"
    assert (r["M15"].kind, r["M15"].options["states"]) == ("random", 25)
    assert len(r) == 15


def test_unknown_model_error():
    with pytest.raises(ValueError, match="M1"):
        registry.train_model("M99", _toy_sequence())


def test_m15_is_untrained_but_seeded():
    seq = _toy_sequence()
    a = registry.train_model("M15", seq, seed=7)
    b = registry.train_model("M15", seq, seed=7)
    assert a.report is None
    assert np.array_equal(a.params.transition, b.params.transition)


def test_overrides_apply():
    seq = _toy_sequence()
    model = registry.train_model("M1", seq, seed=0, max_iter=2, states=4)
    assert model.params.n_states == 4


def test_unused_override_dropped_with_a_warning():
    model = registry.train_model("M10", _toy_sequence(), seed=0, max_iter=1,
                                 states=3, d_max=4)
    assert model.spec == registry.REGISTRY["M10"]
    assert model.extra["warnings"] == ["option 'states' is not used by M10; ignored",
                                       "option 'd_max' is not used by M10; ignored"]


def test_model_file_records_the_options_used(tmp_path):
    model = registry.train_model("M1", _toy_sequence(), seed=0, max_iter=1, states=3)
    assert model.spec.options == {"states": 3}
    assert "warnings" not in model.extra
    persist.save_model(model, tmp_path / "m1.json")
    assert persist.load_model(tmp_path / "m1.json").spec.options == {"states": 3}


def test_sample_sequence_shape():
    seq = _toy_sequence()
    model = registry.train_model("M1", seq, seed=0, max_iter=3, states=3)
    out = registry.sample_sequence(model, 50, seed=1)
    assert len(out) == 50
    assert set(out.pitches.tolist()) <= set(model.alphabet.symbols.tolist())
    assert np.all(np.diff(out.timestamps) > 0)


@pytest.mark.parametrize("name,kw", [
    ("M1", {"max_iter": 3, "states": 4}),
    ("M2", {"max_iter": 3, "states": 3}),
    ("M4", {"max_iter": 3, "states": 4}),
    ("M7", {"max_iter": 3, "states": 3}),
    ("M8", {"max_iter": 3, "states": 3, "d_max": 4}),
    ("M10", {"max_iter": 3}),
    ("M12", {"max_iter": 2}),
    ("M13", {"max_iter": 2, "states": 4}),
    ("M14", {}),
    ("M15", {}),
    ("M3", {"max_iter": 1, "states": 3}),
    # numpy scalars, as Python callers may pass them, are written as Python numbers
    ("M1", {"max_iter": 3, "states": np.int64(4)}),
    ("M12", {"max_iter": 2, "chains": np.array([3, 2])}),
])
def test_save_load_roundtrip_bitexact(tmp_path, name, kw):
    seq = _toy_sequence()
    model = registry.train_model(name, seq, seed=3, **kw)
    path = tmp_path / f"{name}.json"
    persist.save_model(model, path)
    assert path.read_text() == json.dumps(persist.model_to_dict(model)) + "\n"
    loaded = persist.load_model(path)
    resaved = tmp_path / f"{name}_resaved.json"
    persist.save_model(loaded, resaved)
    assert resaved.read_bytes() == path.read_bytes()
    before = registry.sample_model(model, 30, seed=11)
    after = registry.sample_model(loaded, 30, seed=11)
    assert np.array_equal(before, after)
    assert np.array_equal(loaded.alphabet.symbols, model.alphabet.symbols)
    assert np.array_equal(loaded.training_symbols, model.training_symbols)
    ll_before = registry.model_log_likelihood(model)
    ll_after = registry.model_log_likelihood(loaded)
    assert ll_before == ll_after


def test_nshmm_roundtrip(tmp_path):
    seq = _toy_sequence(80)
    model = registry.train_model("M9", seq, seed=2, states=2, d_max=4)
    # shrink the chain for test speed by re-running train directly is avoided;
    # the registry default runs 300 sweeps on an 80-note piece, still quick
    persist.save_model(model, tmp_path / "m9.json")
    loaded = persist.load_model(tmp_path / "m9.json")
    assert np.array_equal(loaded.params.stay_profile, model.params.stay_profile)
    assert np.array_equal(registry.sample_model(model, 20, seed=5),
                          registry.sample_model(loaded, 20, seed=5))


def test_models_loaded_from_one_file_compare_by_identity(tmp_path):
    persist.save_model(registry.train_model("M15", _toy_sequence(), seed=0), tmp_path / "m.json")
    first, second = (persist.load_model(tmp_path / "m.json") for _ in range(2))
    assert first == first and first != second


def test_corrupt_model_file_names_field(tmp_path):
    import json
    seq = _toy_sequence()
    model = registry.train_model("M15", seq, seed=0)
    path = tmp_path / "m.json"
    persist.save_model(model, path)
    data = json.loads(path.read_text())
    del data["params"]["emission"]
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="emission"):
        persist.load_model(path)


@pytest.mark.parametrize("part", ["top level", "spec", "params", "report"])
def test_non_object_model_file_part_is_corrupt(tmp_path, part):
    import json
    model = registry.train_model("M1", _toy_sequence(), seed=0, max_iter=2, states=3)
    data = persist.model_to_dict(model)
    if part == "top level":
        data = [data]
    else:
        data[part] = [data[part]]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"corrupt model file: (the )?{part} is not a JSON object"):
        persist.load_model(path)


@pytest.mark.parametrize("tag", ["nope", ["hmm"]])
def test_unknown_param_type(tmp_path, tag):
    import json
    model = registry.train_model("M15", _toy_sequence(), seed=0)
    data = persist.model_to_dict(model)
    data["params"]["param_type"] = tag
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="unknown parameter type"):
        persist.load_model(path)


def test_not_a_model_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{}")
    with pytest.raises(ValueError, match="format"):
        persist.load_model(path)


def test_report_persisted_with_trace(tmp_path):
    seq = _toy_sequence()
    model = registry.train_model("M1", seq, seed=1, max_iter=4, states=3)
    persist.save_model(model, tmp_path / "m1.json")
    loaded = persist.load_model(tmp_path / "m1.json")
    assert loaded.report.log_likelihood_trace == model.report.log_likelihood_trace
    assert loaded.report.iterations == model.report.iterations


def test_model_to_dict_rejects_an_unlisted_parameter_type():
    model = registry.train_model("M1", _toy_sequence(), seed=0, max_iter=1, states=3)
    with pytest.raises(TypeError, match="^cannot serialize parameters of type object$"):
        persist.model_to_dict(dataclasses.replace(model, params=object()))


def test_every_chain_parameter_type_derives_from_chain_params():
    others = [cls for cls in registry.PARAM_TYPES if not issubclass(cls, hmm.ChainParams)]
    assert others == [tvar.TvarFit]


def test_every_array_field_of_a_chain_parameter_type_declares_its_shape():
    # ChainParams.validate checks only the fields declared with hmm.table
    types = hmm.ChainParams.__subclasses__()
    assert set(registry.PARAM_TYPES) - {tvar.TvarFit} <= set(types)
    undeclared = [f"{cls.__name__}.{f.name}" for cls in types for f in dataclasses.fields(cls)
                  if get_type_hints(cls)[f.name] is np.ndarray and "shape" not in f.metadata]
    assert undeclared == []


@pytest.mark.parametrize("name", [name for name in registry.REGISTRY if name != "M14"])
def test_alphabet_size_is_the_emission_tables_last_axis(name):
    options = registry.REGISTRY[name].options
    small = {k: v for k, v in {"states": 3, "d_max": 4}.items() if k in options}
    model = registry.train_model(name, _toy_sequence(), seed=0, max_iter=1, **small)
    assert model.params.n_symbols == model.alphabet.size


def test_tvar_grid_audit_in_extra():
    seq = _toy_sequence(150)
    model = registry.train_model("M14", seq)
    assert len(model.extra["grid_audit"]) == 8 * 4 * 3
    assert model.report is None


@pytest.fixture(scope="module")
def small_model_dicts():
    """Model dicts of a small M1, M12 and M14 fit to a 16-note piece; M14's
    grid audit is cut to two cells."""
    seq = _toy_sequence(16)
    dicts = {name: persist.model_to_dict(registry.train_model(name, seq, seed=0, **kw))
             for name, kw in [("M1", {"states": 2, "max_iter": 1}),
                              ("M12", {"chains": (2, 2), "max_iter": 1}), ("M14", {})]}
    del dicts["M14"]["extra"]["grid_audit"][2:]
    return dicts


def _keys(container):
    return list(container) if isinstance(container, dict) else range(len(container))


def _changed(value, how):
    """value after change `how`, or None where `how` drops it."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if how == "ragged":
        if isinstance(value, list) and value:  # cut its first row, or make it one
            return [value[0][:-1] if isinstance(value[0], list) else [value[0]], *value[1:]]
        return [[0.5], [0.5, 0.5]]
    return {"drop": None, "nan": float("nan"), "negative": -value if number else -1,
            "huge": 10 ** 400 if number else 1e308, "type": "x" if number else 0.5}[how]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(["M1", "M12", "M14"]),
       how=st.sampled_from(["drop", "type", "nan", "negative", "huge", "ragged", "version"]),
       data=st.data())
def test_fuzzed_model_dict_loads_or_raises_value_error(small_model_dicts, name, how, data):
    """A model dict with one key dropped, one value's type changed, NaN,
    negative or huge entries, a ragged list or an unknown version loads or
    raises ValueError, and nothing else."""
    model = copy.deepcopy(small_model_dicts[name])
    if how == "version":
        model["version"] = data.draw(st.sampled_from([0, 2, "1", None, [1]]))
    else:
        # walk down from the top or from the parameters, stopping at a leaf,
        # an empty container or by a coin flip
        owner = data.draw(st.sampled_from([model, model["params"]]))
        key = data.draw(st.sampled_from(_keys(owner)))
        while isinstance(owner[key], (dict, list)) and owner[key] and data.draw(st.booleans()):
            owner = owner[key]
            key = data.draw(st.sampled_from(_keys(owner)))
        value = _changed(owner[key], how)
        if value is None:
            del owner[key]
        else:
            owner[key] = value
    try:
        loaded = persist.model_from_dict(model)
    except ValueError:
        return
    assert isinstance(loaded, registry.TrainedModel)
