import numpy as np
import pytest

from oracles import (enum_fhmm_counts, enum_fhmm_loglik, enum_tshmm_counts,
                     enum_tshmm_loglik, frozen_dense_fhmm_step, frozen_kron_rotate,
                     frozen_kron_xi_sums, smoothed_rows, stepwise_lhmm_sample)
from sscompose import hierarchical, hmm


def _matched_tshmm_init(init):
    """TshmmParams with m2 = 1 reproducing an HmmParams starting point."""
    n = init.n_states
    return hierarchical.TshmmParams(
        n, 1, np.ones((1, 1)), init.transition.copy()[None, :, :],
        init.initial.copy(), init.emission.copy())


def test_tshmm_m2_1_reduces_to_baum_welch():
    rng = np.random.default_rng(0)
    obs = rng.integers(0, 4, 150)
    init = hmm.random_params(3, 4, rng)
    _, ref = hmm.baum_welch(init, obs, max_iter=25)
    _, got = hierarchical.train_tshmm(obs, 3, 1, 4, init=_matched_tshmm_init(init),
                                      max_iter=25)
    assert np.allclose(got.log_likelihood_trace, ref.log_likelihood_trace, atol=1e-9)


def test_tshmm_matches_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(10):
        params = hierarchical.random_tshmm_params(2, 2, 3, rng)
        obs = rng.integers(0, 3, 6)
        got = hmm.log_likelihood(params, obs)
        assert got == pytest.approx(enum_tshmm_loglik(params, obs), rel=1e-10)


def test_tshmm_m_step_matches_enumerated_counts():
    rng = np.random.default_rng(7)
    for _ in range(3):
        params = hierarchical.random_tshmm_params(2, 2, 3, rng)
        obs = rng.integers(0, 3, 6)
        new, _ = hierarchical.tshmm_em_step(params, obs)
        C, D, emission = enum_tshmm_counts(params, obs)
        assert new.C == pytest.approx(smoothed_rows(C, hmm.SMOOTHING), rel=1e-10)
        assert new.D == pytest.approx(smoothed_rows(D, hmm.SMOOTHING), rel=1e-10)
        assert new.emission == pytest.approx(smoothed_rows(emission, hmm.SMOOTHING),
                                             rel=1e-10)


def test_tshmm_em_monotone():
    rng = np.random.default_rng(2)
    obs = rng.integers(0, 3, 120)
    _, report = hierarchical.train_tshmm(obs, 3, 2, 3, seed=4, max_iter=25)
    assert np.diff(report.log_likelihood_trace).min() >= -1e-8


def test_tshmm_constraints_after_each_step():
    rng = np.random.default_rng(3)
    obs = rng.integers(0, 3, 80)
    params = hierarchical.random_tshmm_params(3, 2, 3, rng)
    for _ in range(8):
        params, _ = hierarchical.tshmm_em_step(params, obs)
        assert np.abs(params.C.sum(axis=1) - 1.0).max() < 1e-12
        assert np.abs(params.D.sum(axis=2) - 1.0).max() < 1e-12
        composite = params.composite_transition()
        assert np.abs(composite.sum(axis=1) - 1.0).max() < 1e-12


def test_tshmm_product_cap():
    with pytest.raises(ValueError, match="cap"):
        hierarchical.train_tshmm([0, 1], 200, 200, 2, seed=0)


def test_tshmm_sample_deterministic():
    params = hierarchical.random_tshmm_params(3, 2, 4, 0)
    assert np.array_equal(hierarchical.tshmm_sampler(params)(30, seed=1),
                          hierarchical.tshmm_sampler(params)(30, seed=1))


def _matched_fhmm_init(init):
    return hierarchical.FhmmParams((init.n_states,), [init.initial.copy()],
                                   [init.transition.copy()], init.emission.copy())


def test_fhmm_single_chain_reduces_to_baum_welch():
    rng = np.random.default_rng(4)
    obs = rng.integers(0, 4, 150)
    init = hmm.random_params(3, 4, rng)
    _, ref = hmm.baum_welch(init, obs, max_iter=25)
    _, got = hierarchical.train_fhmm(obs, (3,), 4, init=_matched_fhmm_init(init),
                                     max_iter=25)
    assert np.allclose(got.log_likelihood_trace, ref.log_likelihood_trace, atol=1e-9)


def test_fhmm_matches_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(8):
        params = hierarchical.random_fhmm_params((2, 2), 3, rng)
        obs = rng.integers(0, 3, 5)
        got = hmm.log_likelihood(params, obs)
        assert got == pytest.approx(enum_fhmm_loglik(params, obs), rel=1e-10)


def test_fhmm_m_step_matches_enumerated_counts():
    rng = np.random.default_rng(8)
    for _ in range(3):
        params = hierarchical.random_fhmm_params((2, 3), 3, rng)
        obs = rng.integers(0, 3, 5)
        fitted, _ = hierarchical.train_fhmm(obs, (2, 3), 3, init=params, max_iter=1)
        transitions, emission = enum_fhmm_counts(params, obs)
        for got, counts in zip(fitted.chain_transitions, transitions):
            assert got == pytest.approx(smoothed_rows(counts, hmm.SMOOTHING), rel=1e-10)
        assert fitted.emission == pytest.approx(smoothed_rows(emission, hmm.SMOOTHING),
                                                rel=1e-10)


def test_fhmm_factored_step_matches_the_frozen_dense_step():
    rng = np.random.default_rng(9)
    cases = [(1,), (3, 1), (1, 4, 2)] + [tuple(rng.integers(1, 7, rng.integers(1, 4)))
                                         for _ in range(12)]
    for i, sizes in enumerate(cases):  # sequences of 1 to 43 steps
        K = int(rng.integers(1, 5))
        params = hierarchical.random_fhmm_params(sizes, K, rng)
        obs = rng.integers(0, K, 1 + 3 * i)
        new, loglik = hierarchical._fhmm_em_step(params, obs)
        want_loglik, want = frozen_dense_fhmm_step(params, obs, hmm.SMOOTHING)
        assert loglik == pytest.approx(want_loglik, rel=1e-10)
        initials, transitions, emission = want
        for got, ref in zip([*new.chain_initials, *new.chain_transitions, new.emission],
                            [*initials, *transitions, emission], strict=True):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0)


def _random_transitions(rng, sizes):
    return [rng.dirichlet(np.ones(n), size=n) for n in sizes]


def test_kron_rotate_keeps_its_bits_around_the_block_size():
    # one chain: the product has as many rows as x has columns; block + 1 rows
    # in blocks of block rows would leave a one-row block
    rng = np.random.default_rng(10)
    for n in range(1, 16):
        A = _random_transitions(rng, [n])[0]
        block = hierarchical.ONE_THREAD_MULADDS // A.size
        for rows in (block - 1, block, block + 1):
            x = rng.random((n, rows))
            for mats in ([A], [np.ascontiguousarray(A.T)]):
                assert np.array_equal(hierarchical._kron_rotate(x, mats),
                                      frozen_kron_rotate(x, mats))


def test_kron_rotate_keeps_its_bits_for_every_skip():
    rng = np.random.default_rng(11)
    cases = [(1,), (15, 1), (1, 15, 10, 5)] + [
        tuple(int(n) for n in rng.integers(1, 16, rng.integers(1, 5))) for _ in range(12)]
    for sizes in cases:
        mats = _random_transitions(rng, sizes)
        P = int(np.prod(sizes))
        x = rng.random((P, int(rng.integers(1, 2 ** 19 // P + 2))))
        for skip in (None, *range(len(sizes))):
            assert np.array_equal(hierarchical._kron_rotate(x, mats, skip=skip),
                                  frozen_kron_rotate(x, mats, skip=skip)), (sizes, skip)


def test_fhmm_xi_sums_keep_their_bits():
    rng = np.random.default_rng(12)
    cases = [(15, 10, 5), (8, 1, 13)] + [
        tuple(int(n) for n in rng.integers(1, 16, rng.integers(1, 5))) for _ in range(6)]
    for sizes in cases:
        transitions = _random_transitions(rng, sizes)
        P = int(np.prod(sizes))
        T = int(rng.integers(2, 2 ** 19 // P + 3))
        alpha, right = rng.random((T, P)), rng.random((T - 1, P))
        got = hierarchical._KronChain(transitions).xi_sums(alpha, right)
        for g, want in zip(got, frozen_kron_xi_sums(transitions, alpha, right), strict=True):
            assert np.array_equal(g, want), sizes


def test_fhmm_em_monotone():
    rng = np.random.default_rng(6)
    obs = rng.integers(0, 3, 120)
    _, report = hierarchical.train_fhmm(obs, (3, 2), 3, seed=2, max_iter=25)
    assert np.diff(report.log_likelihood_trace).min() >= -1e-8


def test_fhmm_emission_level_rule():
    # 1-based ordinals (3, 7, 2) have mean 4, so level 4
    assert hierarchical.emission_level(np.array([2, 6, 1])) == 4
    # round-half-up: ordinals (1, 2) have mean 1.5 -> level 2
    assert hierarchical.emission_level(np.array([0, 1])) == 2


def test_fhmm_cap_error_mentions_scope():
    with pytest.raises(ValueError, match="structured approximations"):
        hierarchical.random_fhmm_params((30, 30, 30), 3, 0)


def test_fhmm_train_rejects_an_init_over_the_cap():
    # 30 * 30 * 30 product states; the cap is checked before the tables are read
    init = hierarchical.FhmmParams((30, 30, 30), [], [], np.full((1, 2), 0.5))
    with pytest.raises(ValueError, match="exceeds the cap"):
        hierarchical.train_fhmm([0, 1, 0], (30, 30, 30), 2, init=init)


def test_fhmm_sample_deterministic():
    params = hierarchical.random_fhmm_params((2, 3), 4, 0)
    assert np.array_equal(hierarchical.fhmm_sampler(params)(30, seed=6),
                          hierarchical.fhmm_sampler(params)(30, seed=6))


def test_lhmm_single_layer_reduces_to_baum_welch():
    rng = np.random.default_rng(7)
    obs = rng.integers(0, 4, 150)
    init = hmm.random_params(3, 4, rng)
    _, ref = hmm.baum_welch(init, obs, max_iter=25)
    params, got = hierarchical.train_lhmm(obs, 3, 1, 4, inits=[init], max_iter=25)
    assert np.allclose(got.log_likelihood_trace, ref.log_likelihood_trace, atol=1e-9)
    assert len(params.layers) == 1


def test_lhmm_layer_observations_are_viterbi_paths():
    rng = np.random.default_rng(8)
    obs = rng.integers(0, 4, 120)
    inits = [hmm.random_params(5, 4, 10), hmm.random_params(5, 5, 11)]
    params, _ = hierarchical.train_lhmm(obs, 5, 2, 4, inits=inits, max_iter=15)
    path = hmm.viterbi(params.layers[0], obs)
    refit, _ = hmm.baum_welch(inits[1], path, max_iter=15)
    assert np.allclose(params.layers[1].transition, refit.transition, atol=1e-12)
    assert np.allclose(params.layers[1].emission, refit.emission, atol=1e-12)


def test_lhmm_three_layers_structure():
    rng = np.random.default_rng(9)
    obs = rng.integers(0, 5, 200)
    params, _ = hierarchical.train_lhmm(obs, 25, 3, 5, seed=1, max_iter=3)
    assert len(params.layers) == 3
    assert params.layers[0].n_symbols == 5
    assert params.layers[1].n_symbols == 25
    assert params.layers[2].n_symbols == 25


def test_lhmm_degenerate_path_warning():
    obs = np.zeros(40, dtype=np.int64)  # single-symbol piece
    found = False
    for seed in range(6):
        params, _ = hierarchical.train_lhmm(obs, 2, 2, 1, seed=seed, max_iter=10)
        if params.warnings:
            found = True
            break
    assert found


def test_lhmm_sample_deterministic():
    rng = np.random.default_rng(10)
    obs = rng.integers(0, 3, 100)
    params, _ = hierarchical.train_lhmm(obs, 3, 2, 3, seed=2, max_iter=5)
    assert np.array_equal(hierarchical.lhmm_sampler(params)(40, seed=3),
                          hierarchical.lhmm_sampler(params)(40, seed=3))


def test_lhmm_sample_draws_lower_layers_after_the_top_layer():
    rng = np.random.default_rng(12)
    obs = rng.integers(0, 3, 100)
    params, _ = hierarchical.train_lhmm(obs, 3, 3, 3, seed=4, max_iter=3)
    for length in (1, 2, 3, 200):
        assert np.array_equal(hierarchical.lhmm_sampler(params)(length, seed=5),
                              stepwise_lhmm_sample(params, length, seed=5))


def test_lhmm_needs_a_layer():
    with pytest.raises(ValueError):
        hierarchical.train_lhmm([0, 1], 2, 0, 2, seed=0)


def test_tshmm_fhmm_lhmm_params_validate():
    obs = np.random.default_rng(9).integers(0, 4, 40)
    tshmm, _ = hierarchical.train_tshmm(obs, 3, 2, 4, seed=0, max_iter=3)
    fhmm, _ = hierarchical.train_fhmm(obs, (3, 2), 4, seed=0, max_iter=3)
    lhmm, _ = hierarchical.train_lhmm(obs, 3, 2, 4, seed=0, max_iter=3)
    for params in (tshmm, fhmm, lhmm):
        params.validate(atol=1e-9, n_symbols=4)
        with pytest.raises(ValueError, match="emission has shape"):
            params.validate(n_symbols=5)
    tshmm.D = tshmm.D[:, :-1]
    with pytest.raises(ValueError, match="D has shape"):
        tshmm.validate()
    fhmm.chain_transitions[1] = fhmm.chain_transitions[0]
    with pytest.raises(ValueError, match=r"chain_transitions\[1\] has shape"):
        fhmm.validate()
    lhmm.layers[1].emission = lhmm.layers[1].emission[:, :-1]
    with pytest.raises(ValueError, match=r"layers\[1\]: emission has shape"):
        lhmm.validate()
    tshmm.C = tshmm.C[0]
    with pytest.raises(ValueError,
                       match="^C, D, initial and emission must have 2, 3, 1 and 2 axes$"):
        tshmm.validate()
    fhmm.emission = fhmm.emission[0]
    with pytest.raises(ValueError, match="^emission must have 2 axes$"):
        fhmm.validate()
