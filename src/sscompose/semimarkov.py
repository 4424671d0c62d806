"""Duration-explicit variants: hidden semi-Markov EM and the
non-stationary HMM fitted by Metropolis-within-Gibbs.

Both models are first-order chains on (state, dwell index) pairs, so
both run through the scaled recursions in ``hmm`` with one transition
operator, ``_DwellChain``.  The explicit-duration HSMM is that chain with
stay and leave probabilities read off the survival function of its
duration pmf (Yu 2010, *Hidden semi-Markov models*); the last step ends
every segment, so segments end exactly at T (right-censoring corrections
are out of scope), and EM reads its expected counts off the chain's
posteriors.
The NSHMM makes the stay probability a logistic function of the current
dwell time and is estimated by MCMC: forward filter backward sample of
the state path, conjugate Dirichlet draws for the categorical parameters
and random-walk Metropolis on the dwell logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .hmm import (
    DEFAULT_TOL,
    DEFAULT_MAX_ITER,
    ChainParams,
    ZeroProbabilityError,
    _as_rng,
    _block_sampler,
    _cdf,
    _check_obs,
    _draw,
    _emission_counts,
    _masked_dirichlet,
    _normalized,
    _posteriors,
    _scaled_forward,
    check_distributions,
    run_em,
)

PROPOSAL_SCALE = 0.3  # standard deviation of the random-walk steps on the dwell logits
PRIOR_SCALE = 3.0     # standard deviation of the normal prior on the dwell logits

# ---------------------------------------------------------------------------
# HSMM


@dataclass
class HsmmParams(ChainParams):
    initial: np.ndarray     # (n,)
    transition: np.ndarray  # (n, n), zero diagonal
    emission: np.ndarray    # (n, K)
    duration: np.ndarray    # (n, D): pmf over dwell lengths 1..D

    @property
    def n_states(self):
        return len(self.initial)

    @property
    def d_max(self):
        return self.duration.shape[1]

    def validate(self, atol=1e-12, n_symbols=None):
        """Raise ValueError unless the shapes agree ((n,), (n, n), (n, K),
        (n, D), with K == n_symbols when given), every row is a
        distribution and the transition diagonal is zero."""
        tables = (self.initial, self.transition, self.emission, self.duration)
        if tuple(np.ndim(t) for t in tables) != (1, 2, 2, 2):
            raise ValueError("initial, transition, emission and duration must have "
                             "1, 2, 2 and 2 axes")
        n = len(self.initial)
        K = self.n_symbols if n_symbols is None else n_symbols
        check_distributions(atol, [("initial", self.initial, (n,)),
                                   ("transition", self.transition, (n, n)),
                                   ("emission", self.emission, (n, K)),
                                   ("duration", self.duration, (n, np.shape(self.duration)[1]))])
        if np.any(np.diagonal(self.transition) != 0):
            raise ValueError("transition diagonal must be zero (no self-transitions)")

    def chain(self, obs):
        """The HSMM as a first-order chain on (state, dwell index d): a
        segment that has lasted d + 1 steps goes on with probability
        surv[d + 1] / surv[d] and ends with probability duration[d] /
        surv[d], where surv[d] = P(duration >= d + 1); both are quotients,
        not one minus the other, so a hazard near 0 or 1 keeps its relative
        precision.  The last step's likelihood carries the probability of
        ending, so every segment ends at T."""
        n, D = self.n_states, self.d_max
        surv = np.zeros((n, D + 1))
        surv[:, :-1] = np.cumsum(self.duration[:, ::-1], axis=1)[:, ::-1]
        with np.errstate(invalid="ignore"):  # 0 / 0 where no segment lasts d + 1 steps
            stay = np.nan_to_num(surv[:, 1:] / surv[:, :-1])
            leave = np.nan_to_num(self.duration / surv[:, :-1])
        lik = self.emission.T[obs][:, :, None] * np.ones(D)
        lik[-1] *= leave
        return (self.initial[:, None] * np.eye(1, D),
                _DwellChain(stay, self.transition, leave), lik)


def random_hsmm_params(n_states, alphabet_size, d_max, seed):
    if n_states < 2:
        raise ValueError("HSMM needs at least 2 states (no self-transitions)")
    rng = _as_rng(seed)
    # drawn before the initial distribution: seeded fits depend on the order
    trans = _masked_dirichlet(rng, 1.0 - np.eye(n_states))
    return HsmmParams(
        rng.dirichlet(np.ones(n_states)),
        trans,
        rng.dirichlet(np.ones(alphabet_size), size=n_states),
        rng.dirichlet(np.ones(d_max), size=n_states),
    )


class _DwellChain:
    """A chain on (state, dwell index) as an operator for ``@``: state j at
    dwell index d stays, moving to dwell index min(d + 1, D - 1), with
    probability stay[j, d], or leaves with probability leave[j, d]
    (1 - stay unless given) for state k at dwell index 0 with probability
    switch[j, k]."""

    __array_ufunc__ = None  # numpy then hands `alpha @ op` to __rmatmul__

    def __init__(self, stay, switch, leave=None):
        self.stay, self.switch = stay, switch
        self.leave = 1.0 - stay if leave is None else leave
        D = stay.shape[1]
        self.next_dwell = np.minimum(np.arange(1, D + 1), D - 1)

    def __rmatmul__(self, alpha):  # alpha @ op, alpha of shape (n, D)
        kept = alpha * self.stay
        nxt = np.empty_like(alpha)
        nxt[:, 1:] = kept[:, :-1]
        # np.add.reduce is ndarray.sum without its Python-level wrapper
        nxt[:, 0] = np.add.reduce(alpha * self.leave, axis=1) @ self.switch
        # the saturated counter keeps its mass; added after column 0 is set
        # because for D == 1 that is column 0
        nxt[:, -1] += kept[:, -1]
        return nxt

    def __matmul__(self, v):  # op @ v: (j, d) collects v over its successors
        return (self.stay * v[:, self.next_dwell]
                + self.leave * (self.switch @ v[:, 0])[:, None])


def _hsmm_em_step(params, obs):
    """One exact EM iteration on the explicit-duration model."""
    n, K = params.n_states, params.n_symbols
    initial, chain, lik = params.chain(obs)
    loglik, alpha, right, gamma = _posteriors(initial, chain, lik)
    # a segment of state j ends at dwell index d at step t < T - 1 and state k
    # follows with posterior mass ends[t, j, d] * transition[j, k] * enter[t, k]
    ends, enter = alpha[:-1] * chain.leave, right[:, :, 0]
    trans_acc = params.transition * (ends.sum(axis=2).T @ enter)
    # segments that end at T carry the last step's posterior gamma[-1]
    dur_acc = (ends * (enter @ params.transition.T)[:, :, None]).sum(axis=0) + gamma[-1]
    new = HsmmParams(gamma[0, :, 0].copy(),
                     _normalized(trans_acc, 1.0 - np.eye(n)),
                     _normalized(_emission_counts(obs, gamma.sum(axis=2), K)),
                     _normalized(dur_acc))
    return new, loglik


def train_hsmm(obs, n_states, n_symbols, d_max, init=None, seed=None,
               tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """EM via the forward-backward on the (state, dwell) chain."""
    obs = _check_obs(obs, n_symbols)
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if d_max >= len(obs):
        raise ValueError("d_max must be smaller than the sequence length")
    if init is None:
        init = random_hsmm_params(n_states, n_symbols, d_max, seed)
    return run_em(lambda params: _hsmm_em_step(params, obs), init, tol, max_iter, seed)


def hsmm_sampler(params):
    """Dwell-explicit sampler draw(length, seed): the first state, then per
    segment its dwell, one symbol per step of it and the next state, each
    from the next uniform; the last dwell may overshoot and is truncated."""
    init, trans = _cdf(params.initial), _cdf(params.transition)
    dur, emis = _cdf(params.duration), _cdf(params.emission)

    def walk(u, length):
        obs = []
        z = _draw(init, 0, next(u))
        while len(obs) < length:
            d = _draw(dur, z, next(u)) + 1
            obs += [_draw(emis, z, next(u)) for _ in range(min(d, length - len(obs)))]
            z = _draw(trans, z, next(u))
        return obs

    # the first state, and at most length segments of dwell, symbols and switch
    return _block_sampler(walk, lambda length: 3 * length + 1)


# ---------------------------------------------------------------------------
# NSHMM


@dataclass
class NshmmParams(ChainParams):
    initial: np.ndarray       # (n,)
    switch: np.ndarray        # (n, n): p(next state | leave), zero diagonal
    emission: np.ndarray      # (n, K)
    stay_profile: np.ndarray  # (n, D): p(stay | dwell d), saturating at D

    @property
    def n_states(self):
        return len(self.initial)

    @property
    def d_max(self):
        return self.stay_profile.shape[1]

    def validate(self, atol=1e-12, n_symbols=None):
        """Raise ValueError unless the shapes agree ((n,), (n, n), (n, K),
        (n, D) with D >= 1, and K == n_symbols when given), the initial,
        switch and emission rows are distributions, the switch diagonal is
        zero and every stay probability is finite and in [0, 1]."""
        tables = (self.initial, self.switch, self.emission, self.stay_profile)
        if tuple(np.ndim(t) for t in tables) != (1, 2, 2, 2):
            raise ValueError("initial, switch, emission and stay_profile must have "
                             "1, 2, 2 and 2 axes")
        n = len(self.initial)
        K = self.n_symbols if n_symbols is None else n_symbols
        check_distributions(atol, [("initial", self.initial, (n,)),
                                   ("switch", self.switch, (n, n)),
                                   ("emission", self.emission, (n, K))])
        if np.any(np.diagonal(self.switch) != 0):
            raise ValueError("switch diagonal must be zero (no self-transitions)")
        stay = np.asarray(self.stay_profile, dtype=float)
        if stay.shape[0] != n or stay.shape[1] < 1:
            raise ValueError(f"stay_profile has shape {stay.shape}, expected ({n}, D), D >= 1")
        if not np.all((stay >= 0) & (stay <= 1)):  # NaN fails both comparisons
            raise ValueError("stay_profile entries must be finite and lie in [0, 1]")

    def chain(self, obs):
        """The dwell-augmented chain; every state starts at dwell index 0."""
        return (self.initial[:, None] * np.eye(1, self.d_max),
                _DwellChain(self.stay_profile, self.switch),
                self.emission.T[obs][:, :, None])


def _nshmm_ffbs(params, obs, rng):
    """Sample a state path from its posterior (forward filter, backward sample).

    Each step is the inverse-cdf draw `_draw(_cdf(w / w.sum()), 0, u)` over
    the (n, D) predecessor weights w.  A step that continues a dwell has at
    most two nonzero weights, so it is drawn from those two scalars; the
    outcome, _draw's clamp included, is the dense draw's.
    """
    T = len(obs)
    D = params.d_max
    initial, chain, lik = params.chain(obs)
    _, alphas, _ = _scaled_forward(initial, chain, lik)
    stay, leave_prob = chain.stay, chain.leave
    switch_to = params.switch.T.copy()  # row j = switch[:, j]
    u = rng.random(T)[::-1].tolist()  # u[t] draws step t; the last step draws first
    path = np.empty(T, dtype=np.int64)
    dwell = np.empty(T, dtype=np.int64)  # 0-based dwell index
    w = alphas[-1].ravel()
    j, dd = divmod(_draw(_cdf(w / w.sum()), 0, u[-1]), D)
    path[-1], dwell[-1] = j, dd
    for t in range(T - 2, -1, -1):
        if dd == 0:
            # previous step left some state i at any dwell
            w = (alphas[t] * leave_prob * switch_to[j][:, None]).ravel()
            if D == 1:  # or stayed in j with the saturated counter
                w[j] += alphas[t, j, 0] * stay[j, 0]
            total = w.sum()
            if total <= 0:
                raise ZeroProbabilityError("degenerate backward-sampling weights")
            j, dd = divmod(_draw(_cdf(w / total), 0, u[t]), D)
        else:
            # previous step was j at dwell dd - 1, or at D - 1 when saturated
            w_on = alphas[t, j, dd - 1] * stay[j, dd - 1]
            w_sat = alphas[t, j, D - 1] * stay[j, D - 1] if dd == D - 1 else 0.0
            total = w_on + w_sat
            if total <= 0:
                raise ZeroProbabilityError("degenerate backward-sampling weights")
            # the cdf rises to cdf at (j, dd - 1), then to top at (j, D - 1)
            cdf = w_on / total
            top = cdf + w_sat / total
            dd = D - 1 if cdf <= u[t] and cdf < top else dd - 1
        path[t], dwell[t] = j, dd
    return path, dwell


def _dwell_loglik(a, b, dwells, stays):
    s = expit(a + b * dwells)
    s = np.clip(s, 1e-12, 1.0 - 1e-12)
    ll = np.sum(np.where(stays, np.log(s), np.log1p(-s)))
    ll -= 0.5 * (a * a + b * b) / PRIOR_SCALE ** 2
    return ll


def train_nshmm(obs, n_states, n_symbols, d_max, seed=None, n_iter=300,
                burn_in=100, flat_dwell=False):
    """Posterior-mean fit by Metropolis-within-Gibbs.

    Returns (NshmmParams, info) where info carries the Metropolis
    acceptance rate and the chain settings.  flat_dwell pins the dwell
    slope to zero so the model collapses to a stationary HMM.
    """
    obs = _check_obs(obs, n_symbols)
    if n_states < 2:
        raise ValueError("NSHMM needs at least 2 states")
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if d_max >= len(obs):
        raise ValueError("d_max must be smaller than the sequence length")
    if n_iter <= max(burn_in, 0):
        raise ValueError("n_iter must exceed burn_in")
    rng = _as_rng(seed)
    n, K, D = n_states, n_symbols, d_max
    offdiag = 1.0 - np.eye(n)
    dwell_grid = np.arange(1, D + 1, dtype=float)

    a = np.zeros(n)
    b = np.zeros(n)
    switch = _masked_dirichlet(rng, offdiag)
    emission = rng.dirichlet(np.ones(K), size=n)
    initial = rng.dirichlet(np.ones(n))

    profile = expit(a[:, None] + b[:, None] * dwell_grid[None, :])
    sums = [np.zeros(n), np.zeros((n, n)), np.zeros((n, K)), np.zeros((n, D))]
    accepted = 0
    for it in range(n_iter):
        path, dwell = _nshmm_ffbs(NshmmParams(initial, switch, emission, profile), obs, rng)

        # conjugate draws
        init_counts = np.ones(n)
        init_counts[path[0]] += 1.0
        initial = rng.dirichlet(init_counts)
        emis_counts = np.ones((n, K))
        np.add.at(emis_counts, (path, obs), 1.0)
        emission = np.vstack([rng.dirichlet(row) for row in emis_counts])
        switch_counts = np.ones((n, n)) * offdiag + 1e-12
        moves = path[1:] != path[:-1]
        np.add.at(switch_counts, (path[:-1][moves], path[1:][moves]), 1.0)
        switch = np.vstack([rng.dirichlet(row) for row in switch_counts]) * offdiag
        switch /= switch.sum(axis=1, keepdims=True)

        # Metropolis on the dwell logits, one walk per state
        prev_dwell = dwell[:-1] + 1.0
        stays = ~moves
        prev_state = path[:-1]
        for i in range(n):
            sel = prev_state == i
            dw, st = prev_dwell[sel], stays[sel]
            cur = _dwell_loglik(a[i], b[i], dw, st)
            a_prop = a[i] + PROPOSAL_SCALE * rng.standard_normal()
            b_prop = b[i] if flat_dwell else b[i] + PROPOSAL_SCALE * rng.standard_normal()
            prop = _dwell_loglik(a_prop, b_prop, dw, st)
            if np.log(rng.random()) < prop - cur:
                a[i], b[i] = a_prop, b_prop
                accepted += 1
        profile = expit(a[:, None] + b[:, None] * dwell_grid[None, :])

        if it >= burn_in:
            for total, draw in zip(sums, (initial, switch, emission, profile)):
                total += draw

    n_kept = n_iter - max(burn_in, 0)
    params = NshmmParams(*(total / n_kept for total in sums))
    info = {"acceptance_rate": accepted / (n_iter * n), "iterations": n_iter,
            "burn_in": burn_in, "kept_draws": n_kept,
            "seed": seed if isinstance(seed, int) else None}
    return params, info


def nshmm_sampler(params):
    """Ancestral sampler draw(length, seed) threading the dwell counter: the
    first state and symbol, then per step stay or leave, the next state on
    leaving, and the symbol, each from the next uniform."""
    init, switch, emis = _cdf(params.initial), _cdf(params.switch), _cdf(params.emission)
    stay = params.stay_profile.tolist()
    D = params.d_max

    def walk(u, length):
        z = _draw(init, 0, next(u))
        d = 0
        obs = [_draw(emis, z, next(u))]
        for _ in range(1, length):
            if next(u) < stay[z][d]:
                d = min(d + 1, D - 1)
            else:
                z = _draw(switch, z, next(u))
                d = 0
            obs.append(_draw(emis, z, next(u)))
        return obs

    # two uniforms for the first step, at most three for each later one
    return _block_sampler(walk, lambda length: 3 * length - 1)
