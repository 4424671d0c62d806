import numpy as np
import pytest

from oracles import (dense_nshmm_ffbs, enum_hsmm_counts, enum_hsmm_loglik, enum_nshmm_loglik,
                     frozen_nshmm_forward, frozen_train_nshmm)
from sscompose import hmm, semimarkov

# duration rows with leading and trailing zeros (D = 3), and D = 1
ZERO_ENTRY_DURATIONS = {
    "zeros-a": np.array([[0.0, 0.4, 0.6], [0.7, 0.3, 0.0], [0.0, 1.0, 0.0]]),
    "zeros-b": np.array([[0.0, 0.0, 1.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]),
    "dmax1": np.ones((3, 1)),
}


def _hsmm_with_duration(rng, duration, K):
    params = semimarkov.random_hsmm_params(len(duration), K, duration.shape[1], rng)
    params.duration = duration.copy()
    return params


def test_hsmm_dmax1_equals_zero_diagonal_hmm_likelihood():
    rng = np.random.default_rng(0)
    n, K = 3, 4
    offdiag = 1.0 - np.eye(n)
    trans = rng.dirichlet(np.ones(n), size=n) * offdiag
    trans /= trans.sum(axis=1, keepdims=True)
    pi = rng.dirichlet(np.ones(n))
    emis = rng.dirichlet(np.ones(K), size=n)
    obs = rng.integers(0, K, 40)
    hsmm = semimarkov.HsmmParams(pi, trans, emis, np.ones((n, 1)))
    flat = hmm.HmmParams(pi, trans, emis)
    assert hmm.log_likelihood(hsmm, obs) == pytest.approx(
        hmm.log_likelihood(flat, obs), rel=1e-12)


def test_hsmm_matches_segmentation_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(10):
        params = semimarkov.random_hsmm_params(2, 3, 3, rng)
        obs = rng.integers(0, 3, 6)
        got = hmm.log_likelihood(params, obs)
        assert got == pytest.approx(enum_hsmm_loglik(params, obs), rel=1e-10)
    for duration in ZERO_ENTRY_DURATIONS.values():
        for _ in range(3):
            params = _hsmm_with_duration(rng, duration, 3)
            obs = rng.integers(0, 3, 7)
            got = hmm.log_likelihood(params, obs)
            assert got == pytest.approx(enum_hsmm_loglik(params, obs), rel=1e-10)
    # the data force a last segment of one step in state 0, whose duration
    # probability is eps: its end probability must not come out of 1 - (1 - eps)
    for eps in (1e-6, 1e-8, 1e-10):
        duration = np.array([[eps, eps, 1 - 2 * eps], [1 - 2 * eps, eps, eps]])
        params = semimarkov.HsmmParams(np.array([0.5, 0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]),
                                       np.eye(2) * (1 - 1e-9) + 0.5e-9, duration)
        obs = np.array([0, 0, 0, 1, 0, 0, 0, 1, 0])
        got = hmm.log_likelihood(params, obs)
        assert got == pytest.approx(enum_hsmm_loglik(params, obs), rel=1e-10)


@pytest.mark.parametrize("case", ["random", *ZERO_ENTRY_DURATIONS])
def test_hsmm_em_step_matches_enumerated_counts(case):
    rng = np.random.default_rng(9)
    offdiag = 1.0 - np.eye(3)

    def normalised(acc):
        return acc / acc.sum(axis=-1, keepdims=True)

    for _ in range(3):
        if case == "random":
            params = semimarkov.random_hsmm_params(3, 3, 3, rng)
        else:
            params = _hsmm_with_duration(rng, ZERO_ENTRY_DURATIONS[case], 3)
        obs = rng.integers(0, 3, 7)
        new, loglik = semimarkov._hsmm_em_step(params, obs)
        initial, transition, duration, emission = enum_hsmm_counts(params, obs)
        assert loglik == pytest.approx(enum_hsmm_loglik(params, obs), rel=1e-10)
        assert new.initial == pytest.approx(normalised(initial), rel=1e-10)
        assert new.transition == pytest.approx(
            normalised(transition * offdiag + hmm.SMOOTHING * offdiag), rel=1e-10)
        assert new.duration == pytest.approx(normalised(duration + hmm.SMOOTHING), rel=1e-10)
        assert new.emission == pytest.approx(normalised(emission + hmm.SMOOTHING), rel=1e-10)


def test_hsmm_em_monotone():
    rng = np.random.default_rng(2)
    obs = rng.integers(0, 3, 120)
    _, report = semimarkov.train_hsmm(obs, 3, 3, 5, seed=3, max_iter=25)
    assert np.diff(report.log_likelihood_trace).min() >= -1e-8


def test_hsmm_fitted_rows_normalized():
    rng = np.random.default_rng(3)
    obs = rng.integers(0, 3, 80)
    params, _ = semimarkov.train_hsmm(obs, 3, 3, 4, seed=1, max_iter=10)
    assert np.allclose(params.transition.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(params.duration.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(params.emission.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(np.diag(params.transition) == 0.0)


def test_hsmm_dmax_bounds():
    with pytest.raises(ValueError):
        semimarkov.train_hsmm([0, 1, 0], 2, 2, 0, seed=0)
    with pytest.raises(ValueError):
        semimarkov.train_hsmm([0, 1, 0], 2, 2, 3, seed=0)


def test_hsmm_sample_dwell_capped():
    rng = np.random.default_rng(4)
    params = semimarkov.random_hsmm_params(3, 3, 4, rng)
    params.emission[:] = np.eye(3)  # observations expose the state path
    seq = semimarkov.hsmm_sampler(params)(300, seed=5)
    assert len(seq) == 300
    runs = np.diff(np.flatnonzero(np.diff(seq) != 0))
    if len(runs):
        assert runs.max() <= 4


def test_hsmm_sample_deterministic():
    params = semimarkov.random_hsmm_params(2, 3, 3, 0)
    assert np.array_equal(semimarkov.hsmm_sampler(params)(50, seed=8),
                          semimarkov.hsmm_sampler(params)(50, seed=8))


def test_nshmm_seed_reproducible():
    rng = np.random.default_rng(5)
    obs = rng.integers(0, 3, 60)
    a, _ = semimarkov.train_nshmm(obs, 2, 3, 4, seed=11, n_iter=30, burn_in=10)
    b, _ = semimarkov.train_nshmm(obs, 2, 3, 4, seed=11, n_iter=30, burn_in=10)
    assert np.array_equal(a.switch, b.switch)
    assert np.array_equal(a.stay_profile, b.stay_profile)


def test_nshmm_acceptance_rate_logged():
    rng = np.random.default_rng(6)
    obs = rng.integers(0, 3, 80)
    _, info = semimarkov.train_nshmm(obs, 2, 3, 4, seed=2, n_iter=40, burn_in=10)
    assert 0.0 < info["acceptance_rate"] < 1.0


def test_nshmm_kept_draws_and_acceptances_follow_from_the_settings():
    obs = np.random.default_rng(6).integers(0, 3, 80)
    n, n_iter = 3, 20
    for burn_in in (5, 0, -3):
        _, info = semimarkov.train_nshmm(obs, n, 3, 4, seed=2, n_iter=n_iter, burn_in=burn_in)
        assert info["kept_draws"] == n_iter - max(burn_in, 0)
        accepted = info["acceptance_rate"] * n_iter * n  # one proposal per state and sweep
        assert accepted == pytest.approx(round(accepted), abs=1e-9)


def test_nshmm_flat_dwell_near_baum_welch():
    # near-deterministic two-state data; compare per-symbol log-likelihoods
    obs = np.array(([0] * 5 + [1] * 5) * 8)
    params, _ = semimarkov.train_nshmm(obs, 2, 2, 6, seed=3, n_iter=200,
                                       burn_in=80, flat_dwell=True)
    posterior_ll = hmm.log_likelihood(params, obs) / len(obs)
    best = -np.inf
    for seed in range(3):
        _, report = hmm.baum_welch(hmm.random_params(2, 2, seed), obs)
        best = max(best, report.final_log_likelihood)
    assert abs(posterior_ll - best / len(obs)) < 0.1


def test_nshmm_dmax_validation():
    with pytest.raises(ValueError):
        semimarkov.train_nshmm([0, 1, 0], 2, 2, 3, seed=0)


def test_nshmm_checks_burn_in_before_sweeping(monkeypatch):
    def sweep(*args):
        raise AssertionError("a sweep ran")
    monkeypatch.setattr(semimarkov, "_nshmm_ffbs", sweep)
    for n_iter, burn_in in [(5, 5), (3, 10)]:
        with pytest.raises(ValueError, match="n_iter must exceed burn_in"):
            semimarkov.train_nshmm([0, 1, 0, 1, 1, 0], 2, 2, 2, seed=0,
                                   n_iter=n_iter, burn_in=burn_in)


def test_nshmm_sample_deterministic_and_length():
    rng = np.random.default_rng(7)
    offdiag = 1.0 - np.eye(2)
    switch = rng.dirichlet(np.ones(2), size=2) * offdiag
    switch /= switch.sum(axis=1, keepdims=True)
    params = semimarkov.NshmmParams(
        rng.dirichlet(np.ones(2)), switch,
        rng.dirichlet(np.ones(3), size=2),
        np.clip(rng.random((2, 4)), 0.05, 0.95))
    a = semimarkov.nshmm_sampler(params)(37, seed=4)
    assert len(a) == 37
    assert np.array_equal(a, semimarkov.nshmm_sampler(params)(37, seed=4))


def _random_nshmm(rng, n, K, D, stay_low=0.05, stay_high=0.95):
    offdiag = 1.0 - np.eye(n)
    switch = rng.dirichlet(np.ones(n), size=n) * offdiag
    switch /= switch.sum(axis=1, keepdims=True)
    return semimarkov.NshmmParams(rng.dirichlet(np.ones(n)), switch,
                                  rng.dirichlet(np.ones(K), size=n),
                                  rng.uniform(stay_low, stay_high, (n, D)))


@pytest.mark.parametrize("n,K,D,T", [(2, 3, 1, 6), (3, 2, 1, 5), (2, 3, 2, 7),
                                     (3, 2, 3, 5), (2, 2, 4, 6)])
def test_nshmm_matches_path_enumeration(n, K, D, T):
    # D < T - 1 lets a path stay long enough to saturate the dwell counter
    rng = np.random.default_rng(100 + 10 * D + n)
    for _ in range(5):
        params = _random_nshmm(rng, n, K, D)
        obs = rng.integers(0, K, T)
        assert hmm.log_likelihood(params, obs) == pytest.approx(
            enum_nshmm_loglik(params, obs), rel=1e-10)


class _ScriptedUniforms:
    """Stands in for a Generator: hands out the given uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


def _ffbs_outcome(sampler, params, obs, rng):
    try:
        path, dwell = sampler(params, obs, rng)
    except ValueError as exc:  # ZeroProbabilityError included
        return str(exc)
    return path.tolist(), dwell.tolist()


@pytest.mark.parametrize("D", [1, 2, 3, 6])
def test_nshmm_ffbs_matches_dense_sampler(D):
    rng = np.random.default_rng(200 + D)
    top = np.nextafter(1.0, 0.0)
    saturated = completed = 0
    for seed in range(40):
        params = _random_nshmm(rng, 3, 4, D, stay_high=0.99)
        obs = rng.integers(0, 4, 40)
        path, dwell = semimarkov._nshmm_ffbs(params, obs, np.random.default_rng(seed))
        want = dense_nshmm_ffbs(params, obs, np.random.default_rng(seed))
        assert np.array_equal(path, want[0]) and np.array_equal(dwell, want[1])
        saturated += np.count_nonzero((dwell[1:] == D - 1) & (dwell[:-1] == D - 1))
        # uniforms at both ends of [0, 1): where rounding leaves the top of a
        # step's cdf below the largest u, the draw clamps to the last cell
        # with weight, so every path can be continued
        u = rng.random(len(obs))
        u[rng.random(len(obs)) < 0.5] = top
        u[rng.random(len(obs)) < 0.1] = 0.0
        got = _ffbs_outcome(semimarkov._nshmm_ffbs, params, obs, _ScriptedUniforms(u))
        want = _ffbs_outcome(dense_nshmm_ffbs, params, obs, _ScriptedUniforms(u))
        assert got == want
        completed += not isinstance(got, str)
    assert saturated > 0 and completed == 40


@pytest.mark.parametrize("D", [1, 3, 6])
def test_nshmm_ffbs_survives_vanishing_likelihoods(monkeypatch, D):
    # every state gives every symbol likelihood 1e-30, over 200 steps: the
    # filter's mass shrinks by 1e-30 per step, so it must renormalise at
    # least every 8 steps (1e-240) to stay above the smallest double
    rng = np.random.default_rng(300 + D)
    params = _random_nshmm(rng, 3, 4, D, stay_high=0.99)
    params.emission = np.full((3, 4), 1e-30)
    obs = rng.integers(0, 4, 200)
    for seed in range(10):
        path, dwell = semimarkov._nshmm_ffbs(params, obs, np.random.default_rng(seed))
        want = dense_nshmm_ffbs(params, obs, np.random.default_rng(seed))
        assert np.array_equal(path, want[0]) and np.array_equal(dwell, want[1])
    # the fixture is strong enough to catch an interval twice as long
    monkeypatch.setattr(semimarkov, "RENORM_EVERY", 16)
    with pytest.raises(hmm.ZeroProbabilityError):
        semimarkov._nshmm_ffbs(params, obs, np.random.default_rng(0))


@pytest.mark.parametrize("D", [1, 2, 3, 6])
def test_nshmm_ffbs_matches_dense_sampler_at_saturated_weights(D):
    # stay entries of exactly 0.0 and 1.0 (where expit saturates) give run,
    # entry and saturated steps predecessor cells of weight zero, switch
    # entries down to 1e-100 give weights far below the rest, and uniforms
    # of 0.0 and just below 1 draw the ends of each cdf.  Subnormal weights
    # are left out: the dense filter renormalises every step, so it rounds
    # them differently.
    rng = np.random.default_rng(400 + D)
    top = np.nextafter(1.0, 0.0)
    n = 4
    runs = saturated = 0
    for seed in range(30):
        params = _random_nshmm(rng, n, 3, D, stay_high=0.99)
        stay = params.stay_profile
        stay[rng.random((n, D)) < 0.25] = 0.0
        stay[rng.random((n, D)) < 0.25] = 1.0
        tiny = (rng.random((n, n)) < 0.3) & (params.switch > 0)
        params.switch[tiny] = rng.choice([1e-12, 1e-30, 1e-100], np.count_nonzero(tiny))
        params.switch /= params.switch.sum(axis=1, keepdims=True)
        obs = rng.integers(0, 3, 40)
        u = rng.random(len(obs))
        u[rng.random(len(obs)) < 0.3] = top
        u[rng.random(len(obs)) < 0.3] = 0.0
        got = _ffbs_outcome(semimarkov._nshmm_ffbs, params, obs, _ScriptedUniforms(u))
        want = _ffbs_outcome(dense_nshmm_ffbs, params, obs, _ScriptedUniforms(u))
        assert got == want
        if not isinstance(got, str):
            dwell = np.array(got[1])
            runs += np.count_nonzero((dwell[1:] > 0) & (dwell[1:] < D - 1))
            saturated += np.count_nonzero(dwell[1:] == D - 1)
    assert saturated > 0 and (D < 3 or runs > 0)


def test_nshmm_ffbs_entry_raises_when_every_backward_product_underflows():
    # state 1 leaves with mass 1.75e-24 from each dwell index at step 1,
    # for state 0 with probability 1e-300.  The forward filter sums the two
    # before it multiplies, 3.5e-24 * 1e-300 -> 5e-324 > 0, so step 2 can be
    # state 0 entering a segment (the only cell a uniform of 0.0 can draw);
    # each backward product, 1.75e-24 * 1e-300, rounds to 0.  State 2 never
    # leaves, and state 0 cannot switch to itself.
    delta, s = 7e-24, 1e-300
    params = semimarkov.NshmmParams(
        np.array([delta, delta, 1.0 - 2 * delta]),
        np.array([[0.0, 1.0, 0.0], [s, 0.0, 1.0 - s], [0.5, 0.5, 0.0]]),
        np.array([[1.0, 0.0]] * 3),
        np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 1.0]]))
    obs = np.zeros(3, dtype=np.int64)
    alphas = semimarkov._nshmm_forward(params, obs)
    assert alphas[2, 0, 0] > 0
    assert not np.any(alphas[1] * (1.0 - params.stay_profile.T) * params.switch[:, 0])
    u = [0.0, 0.5, 0.5]  # the last step draws first
    with pytest.raises(hmm.ZeroProbabilityError, match="degenerate backward-sampling weights"):
        semimarkov._nshmm_ffbs(params, obs, _ScriptedUniforms(u))
    with pytest.raises(ValueError, match="degenerate backward-sampling weights"):
        dense_nshmm_ffbs(params, obs, _ScriptedUniforms(u))


def _forward_outcome(forward, params, obs):
    try:
        return forward(params, obs).tobytes()
    except ValueError as exc:  # ZeroProbabilityError included
        return str(exc)


@pytest.mark.parametrize("D", [1, 2, 3, 7, 20])
def test_nshmm_forward_matches_frozen_filter(D):
    # stay entries of exactly 0.0 and 1.0, pieces of 2-300 notes, and on
    # every third piece zero likelihoods, so that some pieces vanish
    rng = np.random.default_rng(500 + D)
    vanished = 0
    for length in [2, 3, 9, 17, 40, 120, 300]:
        for i in range(6):
            n = int(rng.integers(2, 6))
            params = _random_nshmm(rng, n, 3, D, stay_high=0.99)
            stay = params.stay_profile
            stay[rng.random((n, D)) < 0.2] = 0.0
            stay[rng.random((n, D)) < 0.2] = 1.0
            if i % 3 == 0:
                params.emission[rng.random((n, 3)) < 0.5] = 0.0
            obs = rng.integers(0, 3, length)
            got = _forward_outcome(semimarkov._nshmm_forward, params, obs)
            assert got == _forward_outcome(frozen_nshmm_forward, params, obs)
            vanished += isinstance(got, str)
    assert 0 < vanished < 14


@pytest.mark.parametrize("n,K,D,T", [(3, 4, 1, 40), (3, 4, 2, 50), (6, 3, 4, 30),
                                     (2, 2, 6, 120)])
@pytest.mark.parametrize("flat_dwell", [False, True])
def test_nshmm_fit_matches_frozen_sweep(n, K, D, T, flat_dwell):
    obs = np.random.default_rng(600 + T).integers(0, K, T)
    for seed in range(4):
        params, info = semimarkov.train_nshmm(obs, n, K, D, seed=seed, n_iter=40, burn_in=10,
                                              flat_dwell=flat_dwell)
        want, want_info = frozen_train_nshmm(obs, n, K, D, seed, n_iter=40, burn_in=10,
                                             flat_dwell=flat_dwell)
        got = (params.initial, params.switch, params.emission, params.stay_profile)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        assert info == want_info


def test_dirichlet_rows_match_per_row_draws():
    rng = np.random.default_rng(700)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        # emission-like counts, and switch-like ones with a 1e-12 diagonal
        tables = [1.0 + rng.integers(0, 40, (n, int(rng.integers(2, 15)))).astype(float),
                  (1.0 - np.eye(n)) * (1.0 + rng.integers(0, 9000, (n, n))) + 1e-12]
        for counts in tables:
            seed = int(rng.integers(2**32))
            mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = semimarkov._dirichlet_rows(mine, counts)
            want = np.vstack([theirs.dirichlet(row) for row in counts])
            assert got.tobytes() == want.tobytes()
            assert mine.random() == theirs.random()


def test_masked_dirichlet_rows_match_the_hand_written_renormalisation():
    rng = np.random.default_rng(701)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        offdiag = 1.0 - np.eye(n)
        # NSHMM switch counts: 1 plus the moves off the diagonal, 1e-12 on it
        counts = offdiag * (1.0 + rng.integers(0, 9000, (n, n))) + 1e-12
        seed = int(rng.integers(2**32))
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = semimarkov._dirichlet_rows(mine, counts, offdiag)
        want = np.vstack([theirs.dirichlet(row) for row in counts]) * offdiag
        want /= want.sum(axis=1, keepdims=True)
        assert got.tobytes() == want.tobytes()
        assert mine.bit_generator.state == theirs.bit_generator.state


def test_hsmm_params_validate():
    params = semimarkov.random_hsmm_params(3, 4, 5, seed=0)
    params.validate(n_symbols=4)
    obs = np.random.default_rng(0).integers(0, 4, 30)
    fitted, _ = semimarkov.train_hsmm(obs, 3, 4, 5, init=params, max_iter=3)
    fitted.validate(atol=1e-9, n_symbols=4)
    params.duration = params.duration * 0.5
    with pytest.raises(ValueError, match="duration rows do not sum to 1"):
        params.validate()
    params = semimarkov.random_hsmm_params(3, 4, 5, seed=0)
    params.transition = np.full((3, 3), 1 / 3)
    with pytest.raises(ValueError, match="diagonal"):
        params.validate()


def test_nshmm_params_validate():
    rng = np.random.default_rng(8)
    params = _random_nshmm(rng, 3, 4, 5)
    params.validate(n_symbols=4)
    obs = rng.integers(0, 4, 40)
    fitted, _ = semimarkov.train_nshmm(obs, 3, 4, 5, seed=0, n_iter=20, burn_in=5)
    fitted.validate(atol=1e-9, n_symbols=4)
    with pytest.raises(ValueError, match="emission has shape"):
        params.validate(n_symbols=5)
    for name, value, message in [
            ("initial", np.full(2, 0.5), "switch has shape"),
            ("switch", np.full((3, 3), 0.5), "switch rows do not sum to 1"),
            ("switch", np.full((3, 3), 1 / 3), "switch diagonal must be zero"),
            ("stay_profile", np.full((3, 0), 0.5), "stay_profile has shape"),
            ("stay_profile", np.full((3, 5), 1.5), "stay_profile entries"),
            ("stay_profile", np.full((3, 5), np.nan), "stay_profile entries"),
            ("stay_profile", np.full(3, 0.5), "must have 1, 2, 2 and 2 axes")]:
        bad = _random_nshmm(np.random.default_rng(8), 3, 4, 5)
        setattr(bad, name, value)
        with pytest.raises(ValueError, match=message):
            bad.validate()
