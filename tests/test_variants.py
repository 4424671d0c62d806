import numpy as np
import pytest

from oracles import (FrozenTupleShift, enum_arhmm_counts, enum_arhmm_loglik,
                     enum_khmm_loglik, enum_khmm_transition_counts, frozen_khmm_em_step,
                     frozen_khmm_first_step,
                     smoothed_rows, stepwise_hmm_sample, stepwise_khmm_sample)
from sscompose import hmm, variants


def _matched_khmm_init(init):
    """Order-1 KhmmParams sharing an HmmParams starting point."""
    return variants.KhmmParams(1, init.n_states, init.initial.copy(), [],
                               init.transition.copy(), init.emission.copy())


def test_khmm_order1_reduces_to_baum_welch():
    rng = np.random.default_rng(0)
    obs = rng.integers(0, 4, 150)
    init = hmm.random_params(3, 4, rng)
    _, ref = hmm.baum_welch(init, obs, max_iter=25)
    _, got = variants.train_khmm(obs, 3, 1, 4, init=_matched_khmm_init(init),
                                 max_iter=25)
    assert np.allclose(got.log_likelihood_trace, ref.log_likelihood_trace, atol=1e-9)


def test_khmm_order2_matches_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(10):
        params = variants.random_khmm_params(2, 2, 3, rng)
        obs = rng.integers(0, 3, 7)
        got = hmm.log_likelihood(params, obs)
        assert got == pytest.approx(enum_khmm_loglik(params, obs), rel=1e-10)


def _largest_n(order, cap):
    n = 1
    while (n + 1) ** order <= cap:
        n += 1
    return n


@pytest.mark.parametrize("left_right", [False, True])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_tuple_shift_matches_the_frozen_operator(order, left_right):
    # n up to the largest with n ** order within the state cap; order 1
    # stops at 1000 states, since its (n, n) table at the cap takes 800 MB
    largest = _largest_n(order, 1000 if order == 1 else hmm.STATE_CAP)
    rng = np.random.default_rng(order)
    for n in (1, 2, 3, largest):
        table = variants.random_khmm_params(n, order, 2, rng, left_right).transition
        alpha, v = rng.random(n ** order), rng.random(n ** order)
        got, want = variants._TupleShift(table, n), FrozenTupleShift(table, n)
        np.testing.assert_allclose(alpha @ got, alpha @ want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got @ v, want @ v, rtol=1e-12, atol=0)


@pytest.mark.parametrize("left_right", [False, True])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_khmm_em_step_matches_the_frozen_step(order, left_right):
    rng = np.random.default_rng(40 + order)
    for n in (1, 2, 3, {1: 25, 2: 25, 3: 10, 4: 5}[order]):
        params = variants.random_khmm_params(n, order, 5, rng, left_right)
        obs = rng.integers(0, 5, 60)
        masks = variants._tuple_masks(n, order, left_right)
        got, got_ll = variants._khmm_em_step(params, obs, masks)
        want, want_ll = frozen_khmm_em_step(params, obs, masks)
        assert got_ll == want_ll
        for a, b in [(got.initial, want.initial), (got.transition, want.transition),
                     (got.emission, want.emission),
                     *zip(got.init_transitions, want.init_transitions, strict=True)]:
            assert a.tobytes() == b.tobytes()


def test_khmm_em_monotone():
    rng = np.random.default_rng(2)
    obs = rng.integers(0, 3, 120)
    _, report = variants.train_khmm(obs, 3, 2, 3, seed=5, max_iter=25)
    assert np.diff(report.log_likelihood_trace).min() >= -1e-8


def test_khmm_state_cap():
    with pytest.raises(ValueError, match="cap"):
        variants.random_khmm_params(10, 5, 3, 0)


def test_khmm_train_rejects_an_init_over_the_cap():
    # 10 ** 5 tuple states; the cap is checked before the tables are read
    init = variants.KhmmParams(5, 10, np.full(10, 0.1), [], np.empty((0, 10)),
                               np.full((10, 2), 0.5))
    with pytest.raises(ValueError, match="exceeds the cap"):
        variants.train_khmm([0, 1] * 5, 10, 5, 2, init=init)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_khmm_first_step_matches_the_frozen_loop(order):
    rng = np.random.default_rng(70 + order)
    for n in range(1, 7):
        params = variants.random_khmm_params(n, order, 3, rng)
        # order + 4 draws from three symbols repeat one; the second obs is one symbol
        for obs in (rng.integers(0, 3, order + 4), np.full(order + 2, 1)):
            got = params.chain(obs)[2][0]
            assert got.tobytes() == frozen_khmm_first_step(params, obs).tobytes()


def test_khmm_sequence_length_check():
    with pytest.raises(ValueError):
        variants.train_khmm([0, 1], 2, 2, 2, seed=0)


def test_khmm_m3_configuration_trains():
    rng = np.random.default_rng(3)
    obs = rng.integers(0, 4, 60)
    params, _ = variants.train_khmm(obs, 10, 3, 4, seed=0, max_iter=2)
    assert params.transition.shape == (1000, 10)


def test_khmm_sample_deterministic():
    params = variants.random_khmm_params(3, 2, 4, 0)
    a = variants.khmm_sampler(params)(40, seed=7)
    b = variants.khmm_sampler(params)(40, seed=7)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("left_right", [False, True])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_khmm_sample_matches_stepwise_sampler(order, left_right):
    for n in (1, 3):
        params = variants.random_khmm_params(n, order, 4, seed=order + n, left_right=left_right)
        for length in [*range(1, order + 2), 200]:
            for seed in (0, 11):
                assert np.array_equal(variants.khmm_sampler(params)(length, seed),
                                      stepwise_khmm_sample(params, length, seed))


@pytest.mark.parametrize("left_right", [False, True])
def test_hmm_sample_matches_stepwise_sampler(left_right):
    for n in (1, 3):
        params = (variants.random_lr_params(n, 4, n) if left_right
                  else hmm.random_params(n, 4, n))
        for length in (1, 2, 200):
            for seed in (0, 11):
                assert np.array_equal(hmm.sample(params, length, seed),
                                      stepwise_hmm_sample(params, length, seed))


def test_lrhmm_upper_triangular():
    rng = np.random.default_rng(4)
    obs = rng.integers(0, 3, 100)
    params, _ = variants.train_lrhmm(obs, 4, 3, seed=1, max_iter=20)
    lower = np.tril(params.transition, k=-1)
    assert np.all(lower == 0.0)


def test_lr_start_is_the_order1_left_right_tuple_start():
    for n, K, seed in [(1, 3, 0), (4, 5, 1), (25, 7, 2)]:
        lr = variants.random_lr_params(n, K, seed)
        tuple_start = variants.random_khmm_params(n, 1, K, seed, left_right=True)
        for name in ("initial", "transition", "emission"):
            assert np.array_equal(getattr(lr, name), getattr(tuple_start, name)), name
        assert np.array_equal(variants.lr_transition_mask(n), np.triu(np.ones((n, n))))


def test_lrhmm_two_states_absorbing():
    params = variants.random_lr_params(2, 2, 0)
    # identity emission exposes the state path directly
    params.emission[:] = np.eye(2)
    seq = hmm.sample(params, 200, seed=3)
    first_two = np.flatnonzero(seq == 1)
    if len(first_two):
        assert np.all(seq[first_two[0]:] == 1)


def test_lrhmm_korder_nondecreasing_last_coordinate():
    rng = np.random.default_rng(5)
    obs = np.sort(rng.integers(0, 3, 80))
    params, _ = variants.train_lrhmm(obs, 3, 3, order=2, seed=2, max_iter=5)
    params.emission[:] = np.eye(3)
    seq = variants.khmm_sampler(params)(100, seed=9)
    assert np.all(np.diff(seq) >= 0)


def test_lrhmm_mask_preserved_every_iteration():
    rng = np.random.default_rng(6)
    obs = rng.integers(0, 3, 80)
    init = variants.random_lr_params(4, 3, rng)
    params = init
    for _ in range(5):
        params, _ = hmm.baum_welch(params, obs, max_iter=1,
                                   transition_mask=variants.lr_transition_mask(4))
        assert np.all(np.tril(params.transition, k=-1) == 0.0)


def test_arhmm_single_symbol_alphabet():
    params = variants.ArhmmParams([0.6, 0.4],
                                  [[0.7, 0.3], [0.2, 0.8]],
                                  np.ones((2, 1, 1)), np.ones((2, 1)))
    assert hmm.log_likelihood(params, [0, 0, 0, 0]) == pytest.approx(0.0,
                                                                                abs=1e-12)


def test_arhmm_matches_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(10):
        params = variants.random_arhmm_params(2, 2, rng)
        obs = rng.integers(0, 2, 6)
        got = hmm.log_likelihood(params, obs)
        assert got == pytest.approx(enum_arhmm_loglik(params, obs), rel=1e-10)


def test_arhmm_em_monotone():
    rng = np.random.default_rng(8)
    obs = rng.integers(0, 3, 150)
    _, report = variants.train_arhmm(obs, 3, 3, seed=4, max_iter=25)
    assert np.diff(report.log_likelihood_trace).min() >= -1e-8


def test_arhmm_sampling_threads_previous_symbol():
    # emission deterministic in the previous symbol: x_t = 1 - x_{t-1}
    flip = np.zeros((2, 2, 2))
    flip[:, 0, 1] = 1.0
    flip[:, 1, 0] = 1.0
    params = variants.ArhmmParams([0.5, 0.5], np.full((2, 2), 0.5),
                                  flip, [[1.0, 0.0], [1.0, 0.0]])
    seq = variants.arhmm_sampler(params)(30, seed=0)
    assert seq[0] == 0
    assert np.all(seq[1:] != seq[:-1])


def test_arhmm_needs_two_observations():
    with pytest.raises(ValueError):
        variants.train_arhmm([0], 2, 2, seed=0)


@pytest.mark.parametrize("order,left_right", [(1, False), (2, False), (3, False),
                                              (2, True), (3, True)])
def test_khmm_params_validate(order, left_right):
    params = variants.random_khmm_params(3, order, 5, seed=order, left_right=left_right)
    params.validate(n_symbols=5)
    obs = np.random.default_rng(order).integers(0, 5, 40)
    fitted, _ = variants.train_khmm(obs, 3, order, 5, init=params, max_iter=3,
                                    left_right=left_right)
    fitted.validate(atol=1e-9, n_symbols=5)
    with pytest.raises(ValueError, match="emission has shape"):
        params.validate(n_symbols=6)
    params.transition = params.transition[:-1]
    with pytest.raises(ValueError, match="transition has shape"):
        params.validate()
    params.emission = params.emission[0]
    with pytest.raises(ValueError,
                       match="^initial, transition and emission must have 1, 2 and 2 axes$"):
        params.validate()


def _enumerated_m_step(params, obs, left_right):
    """The transition table one exact EM step gives: enumerated posterior
    counts, masked and smoothed as the library does, row-normalised."""
    n, rows = params.n_states, params.n_states ** params.order
    mask = np.ones((rows, n))
    if left_right:  # next state no lower than the prefix's last state
        mask = (np.arange(n)[None, :] >= (np.arange(rows) % n)[:, None]).astype(float)
    acc = enum_khmm_transition_counts(params, obs) * mask + hmm.SMOOTHING * mask
    return acc / acc.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("left_right", [False, True])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_khmm_m_step_matches_enumerated_counts(order, left_right):
    rng = np.random.default_rng(20 + order)
    for _ in range(3):
        params = variants.random_khmm_params(3, order, 4, rng, left_right=left_right)
        obs = rng.integers(0, 4, 7)
        fitted, _ = variants.train_khmm(obs, 3, order, 4, init=params, max_iter=1,
                                        left_right=left_right)
        expected = _enumerated_m_step(params, obs, left_right)
        assert fitted.transition == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("left_right", [False, True])
def test_baum_welch_m_step_matches_enumerated_counts(left_right):
    rng = np.random.default_rng(30)
    for _ in range(3):
        init = variants.random_lr_params(3, 4, rng) if left_right else hmm.random_params(3, 4, rng)
        obs = rng.integers(0, 4, 7)
        mask = variants.lr_transition_mask(3) if left_right else None
        fitted, _ = hmm.baum_welch(init, obs, max_iter=1, transition_mask=mask)
        expected = _enumerated_m_step(_matched_khmm_init(init), obs, left_right)
        assert fitted.transition == pytest.approx(expected, rel=1e-10)


def test_arhmm_params_validate():
    obs = np.random.default_rng(10).integers(0, 4, 40)
    params, _ = variants.train_arhmm(obs, 3, 4, seed=0, max_iter=3)
    params.validate(atol=1e-9, n_symbols=4)
    with pytest.raises(ValueError, match="emission has shape"):
        params.validate(n_symbols=5)
    params.emission = params.emission[:, :-1]
    with pytest.raises(ValueError, match="emission has shape"):
        params.validate()
    params.init_emission = params.init_emission[0]
    with pytest.raises(ValueError, match="^initial, transition, emission and init_emission must "
                                         "have 1, 2, 3 and 2 axes$"):
        params.validate()


def test_arhmm_m_step_matches_enumerated_counts():
    rng = np.random.default_rng(40)
    for _ in range(3):
        params = variants.random_arhmm_params(3, 3, rng)
        obs = rng.integers(0, 3, 6)
        fitted, _ = variants.train_arhmm(obs, 3, 3, init=params, max_iter=1)
        initial, transition, emission, init_emission = enum_arhmm_counts(params, obs)
        assert fitted.initial == pytest.approx(initial, rel=1e-10)
        assert fitted.transition == pytest.approx(
            smoothed_rows(transition, hmm.SMOOTHING), rel=1e-10)
        assert fitted.emission == pytest.approx(
            smoothed_rows(emission, hmm.SMOOTHING), rel=1e-10)
        assert fitted.init_emission == pytest.approx(
            smoothed_rows(init_emission, hmm.SMOOTHING), rel=1e-10)
