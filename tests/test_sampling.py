"""The samplers build their tables once per model and read one block of
uniforms per piece; their walks bisect for the hidden states and then
draw every symbol of the piece in one vectorized pass (the ARHMM's and
the NSHMM's walks draw their symbols as they go).  These tests hold
them to the frozen per-piece samplers in oracles.py, and both draws to
np.searchsorted under one clamp, draw for draw."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (stepwise_arhmm_sample, stepwise_hmm_sample, stepwise_hsmm_sample,
                     stepwise_khmm_sample, stepwise_lhmm_sample, stepwise_nshmm_sample)
from sscompose import hierarchical, hmm, persist, registry, semimarkov, tvar, variants
from sscompose.midi_codec import PitchSequence

PIECE_LENGTH = 60
MODELS = ("M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8", "M9", "M10", "M11", "M12",
          "M13", "M15")
# smaller state spaces where the default would make training slow
OVERRIDES = {"M9": {"states": 4, "d_max": 4}, "M12": {"chains": (5, 4, 3)}}
ORACLES = {
    hmm.HmmParams: stepwise_hmm_sample,
    variants.KhmmParams: stepwise_khmm_sample,
    variants.ArhmmParams: stepwise_arhmm_sample,
    semimarkov.HsmmParams: stepwise_hsmm_sample,
    semimarkov.NshmmParams: stepwise_nshmm_sample,
    hierarchical.TshmmParams: lambda params, length, seed:
        stepwise_hmm_sample(hierarchical._tshmm_flat(params), length, seed),
    hierarchical.FhmmParams: lambda params, length, seed:
        stepwise_hmm_sample(hierarchical._fhmm_flat(params), length, seed),
    hierarchical.LhmmParams: stepwise_lhmm_sample,
}
LENGTHS = (1, 2, 37, PIECE_LENGTH + 25)
SEEDS = (0, 1, 7)


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    rng = np.random.default_rng(0)
    walk = np.cumsum(rng.integers(-2, 3, PIECE_LENGTH)) % 8
    piece = PitchSequence(55 + walk, np.arange(PIECE_LENGTH) * 240)
    out = tmp_path_factory.mktemp("models")
    paths = {}
    for name in MODELS:
        budget = {} if name in ("M9", "M15") else {"max_iter": 2}
        model = registry.train_model(name, piece, seed=1, **budget, **OVERRIDES.get(name, {}))
        paths[name] = out / f"{name}.json"
        persist.save_model(model, paths[name])
    return paths


@pytest.mark.parametrize("name", MODELS)
def test_sample_model_matches_the_frozen_sampler(model_files, name):
    model = persist.load_model(model_files[name])
    oracle = ORACLES[type(model.params)]
    for length in LENGTHS:
        for seed in SEEDS:
            want = model.alphabet.to_pitches(oracle(model.params, length, seed))
            assert np.array_equal(registry.sample_model(model, length, seed), want)


@pytest.mark.parametrize("name", MODELS)
def test_interleaved_draws_on_one_model_equal_fresh_models(model_files, name, tmp_path):
    model = persist.load_model(model_files[name])
    calls = [(length, seed) for seed in SEEDS for length in LENGTHS]
    got = [registry.sample_model(model, length, seed) for length, seed in calls[::-1] + calls]
    want = [registry.sample_model(persist.load_model(model_files[name]), length, seed)
            for length, seed in calls[::-1] + calls]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # the built sampler is kept on the model, and its file does not record it
    assert "draw" in vars(model)
    persist.save_model(model, tmp_path / "resaved.json")
    assert (tmp_path / "resaved.json").read_bytes() == model_files[name].read_bytes()


def _dwell_one_hsmm():
    params = semimarkov.random_hsmm_params(3, 4, 2, seed=0)
    params.duration = np.array([[1.0, 0.0]] * 3)
    return params


def _never_staying_nshmm():
    params = semimarkov.NshmmParams(np.full(3, 1 / 3), (1.0 - np.eye(3)) / 2,
                                    np.full((3, 4), 1 / 4), np.zeros((3, 2)))
    params.validate()
    return params


# the parameters whose pieces read the most uniforms a block holds:
# every HSMM segment lasts one step, and the NSHMM leaves at every step
@pytest.mark.parametrize("builder,oracle,params,n_uniforms", [
    (semimarkov.hsmm_sampler, stepwise_hsmm_sample, _dwell_one_hsmm(), lambda L: 3 * L + 1),
    (semimarkov.nshmm_sampler, stepwise_nshmm_sample, _never_staying_nshmm(),
     lambda L: 3 * L - 1),
], ids=["hsmm", "nshmm"])
def test_a_piece_that_reads_the_whole_block_matches_the_frozen_sampler(builder, oracle, params,
                                                                       n_uniforms):
    draw = builder(params)
    for length in (1, 2, 501):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            want = oracle(params, length, rng)
            block = np.random.default_rng(seed)
            block.random(n_uniforms(length))
            assert rng.bit_generator.state == block.bit_generator.state
            assert np.array_equal(draw(length, seed), want)


def _always_staying_nshmm(d_max):
    # each state favours its own symbol, so a wrong state shows in the piece
    params = semimarkov.NshmmParams(np.full(3, 1 / 3), (1.0 - np.eye(3)) / 2,
                                    np.full((3, 4), 0.1) + 0.6 * np.eye(3, 4),
                                    np.ones((3, d_max)))
    params.validate()
    return params


# a piece that never leaves its first state has its dwell counter saturated
# at index D - 1 from step D - 1 on; at D = 1 it is saturated from the start
@pytest.mark.parametrize("d_max", [1, 3])
def test_nshmm_walk_with_a_saturated_dwell_counter_matches_the_frozen_sampler(d_max):
    params = _always_staying_nshmm(d_max)
    draw = semimarkov.nshmm_sampler(params)
    for length in (1, 2, 50):
        for seed in range(4):
            # arrays only: the oracle reads 2 * length of the block's 3 * length - 1
            assert np.array_equal(draw(length, seed),
                                  stepwise_nshmm_sample(params, length, seed))


SMALL_PARAMS = {
    hmm.HmmParams: lambda: hmm.random_params(2, 3, 0),
    variants.KhmmParams: lambda: variants.random_khmm_params(2, 2, 3, 0),
    variants.ArhmmParams: lambda: variants.random_arhmm_params(2, 3, 0),
    semimarkov.HsmmParams: lambda: semimarkov.random_hsmm_params(2, 3, 2, 0),
    semimarkov.NshmmParams: _never_staying_nshmm,
    hierarchical.TshmmParams: lambda: hierarchical.random_tshmm_params(2, 2, 3, 0),
    hierarchical.FhmmParams: lambda: hierarchical.random_fhmm_params((2, 2), 3, 0),
    hierarchical.LhmmParams: lambda: hierarchical.LhmmParams([hmm.random_params(2, 3, 0),
                                                              hmm.random_params(2, 2, 1)]),
    tvar.TvarFit: lambda: tvar.fit_tvar(60.0 + np.random.default_rng(0).standard_normal(40),
                                        1, 1.0, 1.0),
}


@pytest.mark.parametrize("param_type", registry.PARAM_TYPES,
                         ids=lambda param_type: registry.PARAM_TYPES[param_type][0])
def test_every_sampler_rejects_an_empty_piece(param_type):
    _, builder = registry.PARAM_TYPES[param_type]
    draw = builder(SMALL_PARAMS[param_type]())
    assert len(draw(3, 0)) == 3
    with pytest.raises(ValueError, match=r"^length must be >= 1$"):
        draw(0, 0)


ENTRIES = st.sampled_from([0.0, 0.0, 0.1, 0.125, 0.25, 1 / 3, 0.5, 1.0])


@settings(max_examples=150, database=None, derandomize=True, deadline=None)
@given(st.integers(1, 4), st.integers(1, 7), st.data())
def test_draw_finds_the_clamped_searchsorted_column(n_rows, width, data):
    table = np.array(data.draw(st.lists(ENTRIES, min_size=n_rows * width,
                                        max_size=n_rows * width))).reshape(n_rows, width)
    cum = np.cumsum(table, axis=-1)
    cdf = hmm._cdf(table)
    pairs = []
    for row in range(n_rows):
        # every cumulative value (ties included), just around them, and past the last one
        uniforms = {0.0, 1.0, float(cum[row, -1]) + 0.5, *data.draw(
            st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=3))}
        for c in cum[row].tolist():
            uniforms.update((c, np.nextafter(c, -1.0), np.nextafter(c, 2.0)))
        for u in uniforms:
            want = min(int(np.searchsorted(cum[row], u, side="right")),
                       int(np.searchsorted(cum[row], cum[row, -1], side="left")))
            assert hmm._draw(cdf, row, float(u)) == want
            pairs.append((row, float(u), want))
    # the vectorized draw takes every pair at once, rows in any order
    rows, uniforms, want = map(np.array, zip(*data.draw(st.permutations(pairs))))
    assert np.array_equal(hmm._draw_rows(table)(rows, uniforms), want)
