import numpy as np
import pytest

from oracles import enum_hmm_loglik, enum_viterbi_logprob, frozen_masked_dirichlet, path_logprob
from sscompose import hierarchical, hmm, semimarkov, variants


def test_single_state_loglik():
    params = hmm.HmmParams([1.0], [[1.0]], [[0.2, 0.3, 0.5]])
    obs = np.array([0, 2, 1, 2])
    expected = sum(np.log(params.emission[0, o]) for o in obs)
    loglik, _, _, gamma = hmm._posteriors(*params.chain(obs))
    assert loglik == pytest.approx(expected, abs=1e-12)
    assert np.all(gamma == 1.0)


def test_uniform_params_loglik():
    K = 4
    params = hmm.HmmParams(np.full(3, 1 / 3), np.full((3, 3), 1 / 3),
                           np.full((3, K), 1 / K))
    obs = np.array([0, 1, 2, 3, 0, 1])
    assert hmm.log_likelihood(params, obs) == pytest.approx(-len(obs) * np.log(K),
                                                            abs=1e-12)


def test_forward_matches_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n, T, K = 2, 6, 3
        params = hmm.random_params(n, K, rng)
        obs = rng.integers(0, K, T)
        got = hmm.log_likelihood(params, obs)
        want = enum_hmm_loglik(params.initial, params.transition, params.emission, obs)
        assert got == pytest.approx(want, rel=1e-10)


def test_posterior_normalization():
    rng = np.random.default_rng(5)
    params = hmm.random_params(4, 5, rng)
    obs = rng.integers(0, 5, 30)
    _, alpha, right, gamma = hmm._posteriors(*params.chain(obs))
    xi = alpha[:-1, :, None] * params.transition * right[:, None, :]
    assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(xi.sum(axis=(1, 2)), 1.0, atol=1e-9)


def test_out_of_alphabet_names_position():
    params = hmm.random_params(2, 3, 0)
    with pytest.raises(ValueError, match="position 2"):
        hmm.log_likelihood(params, [0, 1, 7])


CHAIN_TYPES = {
    "hmm": lambda: hmm.random_params(2, 3, 0),
    "khmm": lambda: variants.random_khmm_params(2, 2, 3, 0),
    "arhmm": lambda: variants.random_arhmm_params(2, 3, 0),
    "hsmm": lambda: semimarkov.random_hsmm_params(2, 3, 2, 0),
    "nshmm": lambda: semimarkov.NshmmParams(np.full(2, 0.5), 1.0 - np.eye(2),
                                            np.full((2, 3), 1 / 3), np.full((2, 2), 0.5)),
    "tshmm": lambda: hierarchical.random_tshmm_params(2, 2, 3, 0),
    "fhmm": lambda: hierarchical.random_fhmm_params((2, 2), 3, 0),
    "lhmm": lambda: hierarchical.LhmmParams([hmm.random_params(2, 3, 0),
                                             hmm.random_params(2, 2, 1)]),
}


@pytest.mark.parametrize("kind", CHAIN_TYPES)
def test_log_likelihood_rejects_a_symbol_outside_every_chain_types_alphabet(kind):
    params = CHAIN_TYPES[kind]()
    assert np.isfinite(hmm.log_likelihood(params, [0, 1, 2, 0]))
    with pytest.raises(ValueError, match="symbol 3 at position 2 is outside the alphabet of size 3"):
        hmm.log_likelihood(params, [0, 1, 3, 0])


@pytest.mark.parametrize("call,message", [
    (lambda: hmm.log_likelihood(hmm.random_params(2, 3, 0), []),
     "observation sequence must be a non-empty 1-d array"),
    (lambda: hmm.random_params(0, 3, 0), "sizes must be >= 1"),
    (lambda: hierarchical.train_tshmm([0, 1, 2, 1], 0, 2, 3), "state counts must be >= 1"),
    (lambda: hmm.log_likelihood(variants.random_khmm_params(2, 3, 3, 0), [0, 1]),
     "sequence shorter than the model order"),
], ids=["empty-sequence", "no-states", "tshmm-no-states", "shorter-than-order"])
def test_argument_checks(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_zero_probability_error():
    params = hmm.HmmParams([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]],
                           [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(hmm.ZeroProbabilityError):
        hmm.log_likelihood(params, [0, 1])


def test_no_underflow_long_sequence():
    rng = np.random.default_rng(1)
    params = hmm.random_params(3, 6, rng)
    obs = rng.integers(0, 6, 500)
    assert np.isfinite(hmm.log_likelihood(params, obs))


def test_baum_welch_monotone():
    rng = np.random.default_rng(2)
    obs = rng.integers(0, 4, 200)
    init = hmm.random_params(3, 4, rng)
    _, report = hmm.baum_welch(init, obs, max_iter=50)
    diffs = np.diff(report.log_likelihood_trace)
    assert diffs.min() >= -1e-8


def test_baum_welch_zero_iterations_returns_init():
    init = hmm.random_params(3, 4, 0)
    fitted, report = hmm.baum_welch(init, [0, 1, 2], max_iter=0)
    assert np.array_equal(fitted.transition, init.transition)
    assert not report.converged
    assert report.iterations == 0


@pytest.mark.parametrize("max_iter", [1, 3])
@pytest.mark.parametrize("masked", [False, True])
def test_baum_welch_leaves_its_start_unchanged(max_iter, masked):
    init = hmm.random_params(3, 4, 5)
    before = [a.tobytes() for a in (init.initial, init.transition, init.emission)]
    mask = 1.0 - np.eye(3) if masked else None
    fitted, _ = hmm.baum_welch(init, [0, 1, 2, 3, 1, 0, 2], max_iter=max_iter,
                               transition_mask=mask)
    assert [a.tobytes() for a in (init.initial, init.transition, init.emission)] == before
    assert fitted is not init
    for name in ("initial", "transition", "emission"):
        assert not np.shares_memory(getattr(fitted, name), getattr(init, name))


def test_baum_welch_recovers_deterministic_cycle():
    obs = np.array([0, 1] * 100)
    # the generator alternates states deterministically, so its per-symbol
    # log-likelihood tends to 0; EM should come close from a random start
    best = -np.inf
    for seed in range(5):
        init = hmm.random_params(2, 2, seed)
        fitted, report = hmm.baum_welch(init, obs)
        best = max(best, report.final_log_likelihood)
    generator_ll = np.log(0.5)  # free choice of the starting state only
    assert best / len(obs) >= generator_ll / len(obs) - 0.05


def test_baum_welch_rejects_bad_tol():
    init = hmm.random_params(2, 2, 0)
    with pytest.raises(ValueError):
        hmm.baum_welch(init, [0, 1], tol=0.0)


def _scripted_step(logliks):
    """A fake EM step: the parameters are the iteration index and the
    log-likelihood of parameters i is logliks[i]."""
    calls = []

    def step(params):
        calls.append(params)
        return params + 1, logliks[params]

    return step, calls


def test_run_em_stops_at_first_small_relative_change():
    # changes of 0.5 are below tol * |previous| at -1e6 but not at -10
    logliks = [-20.0, -10.0, -9.5, -1e6, -1e6 + 0.5, -1e6 + 0.6, -1e6 + 0.7]
    step, calls = _scripted_step(logliks)
    params, report = hmm.run_em(step, 0, tol=1e-6, max_iter=50, seed=4)
    assert calls == [0, 1, 2, 3, 4]
    assert report.log_likelihood_trace == logliks[:5]
    assert report.iterations == 5 and report.converged
    # the returned parameters are the ones whose log-likelihood ends the trace
    assert params == 4
    assert logliks[params] == report.final_log_likelihood


def test_run_em_max_iter_returns_last_step_output():
    step, calls = _scripted_step([-100.0, -50.0, -25.0, -12.0])
    params, report = hmm.run_em(step, 0, tol=1e-6, max_iter=3)
    assert calls == [0, 1, 2]
    assert report.iterations == 3 and not report.converged
    assert report.log_likelihood_trace == [-100.0, -50.0, -25.0]
    assert params == 3


def test_run_em_zero_iterations_returns_initial():
    init = object()
    params, report = hmm.run_em(lambda p: pytest.fail("step must not run"), init,
                                max_iter=0, seed=1)
    assert params is init
    assert report.iterations == 0 and report.log_likelihood_trace == []
    assert not report.converged


@pytest.mark.parametrize("seed,recorded", [
    (7, 7), (None, None), (np.random.default_rng(7), None),
])
def test_run_em_records_only_int_seeds(seed, recorded):
    step, _ = _scripted_step([-3.0, -2.0])
    _, report = hmm.run_em(step, 0, max_iter=2, seed=seed)
    assert report.seed == recorded


@pytest.mark.parametrize("tol", [0.0, -1e-6])
def test_run_em_rejects_non_positive_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        hmm.run_em(lambda p: pytest.fail("step must not run"), 0, tol=tol)


def test_fitted_params_valid():
    rng = np.random.default_rng(3)
    obs = rng.integers(0, 3, 100)
    fitted, _ = hmm.baum_welch(hmm.random_params(3, 3, rng), obs, max_iter=20)
    fitted.validate(atol=1e-9)


def test_viterbi_single_state():
    params = hmm.HmmParams([1.0], [[1.0]], [[0.5, 0.5]])
    assert hmm.viterbi(params, [0, 1, 0]).tolist() == [0, 0, 0]


def test_viterbi_identity_emission():
    eye = np.eye(3) * 0.98 + 0.01
    eye /= eye.sum(axis=1, keepdims=True)
    params = hmm.HmmParams(np.full(3, 1 / 3), np.full((3, 3), 1 / 3), eye)
    obs = np.array([0, 2, 1, 1, 0])
    assert hmm.viterbi(params, obs).tolist() == obs.tolist()


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(13)
    for _ in range(25):
        params = hmm.random_params(2, 3, rng)
        obs = rng.integers(0, 3, 7)
        path = hmm.viterbi(params, obs)
        got = path_logprob(params.initial, params.transition, params.emission, obs, path)
        want = enum_viterbi_logprob(params.initial, params.transition,
                                    params.emission, obs)
        assert got == pytest.approx(want, rel=1e-10)


def test_sample_deterministic():
    params = hmm.random_params(3, 4, 0)
    a = hmm.sample(params, 50, seed=9)
    b = hmm.sample(params, 50, seed=9)
    assert np.array_equal(a, b)


def test_sample_transition_frequencies():
    rng = np.random.default_rng(4)
    trans = rng.dirichlet(np.ones(3), size=3)
    params = hmm.HmmParams(np.full(3, 1 / 3), trans, np.eye(3))
    # identity emission makes the observations equal the hidden states
    seq = hmm.sample(params, 100_001, seed=12)
    counts = np.zeros((3, 3))
    np.add.at(counts, (seq[:-1], seq[1:]), 1.0)
    freq = counts / counts.sum(axis=1, keepdims=True)
    assert np.abs(freq - trans).max() < 0.01


def test_sample_length_validation():
    with pytest.raises(ValueError):
        hmm.sample(hmm.random_params(2, 2, 0), 0, seed=1)


def test_random_params_rows_normalized():
    params = hmm.random_params(5, 7, 42)
    assert np.allclose(params.initial.sum(), 1.0, atol=1e-12)
    assert np.allclose(params.transition.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(params.emission.sum(axis=1), 1.0, atol=1e-12)


def test_random_params_degenerate():
    params = hmm.random_params(1, 1, 0)
    assert params.initial[0] == 1.0
    assert params.transition[0, 0] == 1.0
    assert params.emission[0, 0] == 1.0


def test_random_params_seeded():
    a = hmm.random_params(3, 4, 7)
    b = hmm.random_params(3, 4, 7)
    assert np.array_equal(a.transition, b.transition)
    assert np.array_equal(a.emission, b.emission)


def _masks_of_random_starts():
    """Every mask a random start draws under: the tuple chains' (plain and
    left-right) and the dwell chains' zero diagonal."""
    for order in (1, 2, 3):
        for n in range(1, 7):
            for left_right in (False, True):
                yield from variants._tuple_masks(n, order, left_right)
    for n in range(2, 26):
        yield 1.0 - np.eye(n)


def test_masked_dirichlet_rows_match_the_frozen_masked_draw():
    for i, mask in enumerate(_masks_of_random_starts()):
        mine, theirs = np.random.default_rng(i), np.random.default_rng(i)
        got = hmm._dirichlet_rows(mine, np.ones(mask.shape), mask)
        want = frozen_masked_dirichlet(theirs, mask)
        assert got.tobytes() == want.tobytes()
        assert mine.bit_generator.state == theirs.bit_generator.state
