"""Duration-explicit variants: hidden semi-Markov EM and the
non-stationary HMM fitted by Metropolis-within-Gibbs.

Both models are first-order chains on (state, dwell index) pairs.  Their
exact chains run through the scaled recursions in ``hmm`` with one
transition operator, ``_DwellChain``: that is every log-likelihood and the
HSMM's EM.  The explicit-duration HSMM is that chain with stay and leave
probabilities read off the survival function of its duration pmf (Yu
2010, *Hidden semi-Markov models*); the last step ends every segment, so
segments end exactly at T (right-censoring corrections are out of scope),
and EM reads its expected counts off the chain's posteriors.
The NSHMM makes the stay probability a logistic function of the current
dwell time and is estimated by MCMC: forward filter backward sample of
the state path, conjugate Dirichlet draws for the categorical parameters
and random-walk Metropolis on the dwell logits.  Its forward filter runs
once per sweep, so it has its own recursion, ``_nshmm_forward``: the same
chain on a (T, D, n) layout, with the per-step scale left out (every
backward draw renormalises its weights), at seven numpy calls per step
to about fifteen in the shared one.  Keeping ``_DwellChain`` as it is keeps
the HSMM's EM bits, and the shared recursion free of a branch for one caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hmm import (
    DEFAULT_TOL,
    DEFAULT_MAX_ITER,
    ChainParams,
    ZeroProbabilityError,
    _as_rng,
    _block_sampler,
    _cdf,
    _check_obs,
    _dirichlet_rows,
    _draw,
    _draw_rows,
    _emission_counts,
    _normalized,
    _posteriors,
    _random_tables,
    run_em,
    table,
)

PROPOSAL_SCALE = 0.3  # standard deviation of the random-walk steps on the dwell logits
PRIOR_SCALE = 3.0     # standard deviation of the normal prior on the dwell logits

# ---------------------------------------------------------------------------
# HSMM


@dataclass
class HsmmParams(ChainParams):
    initial: np.ndarray = table("n")
    transition: np.ndarray = table("n", "n", zero_diagonal=True)
    emission: np.ndarray = table("n", "K")
    duration: np.ndarray = table("n", "D")  # pmf over dwell lengths 1..D

    @property
    def n_states(self):
        return len(self.initial)

    @property
    def d_max(self):
        return self.duration.shape[1]

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
    transition = _dirichlet_rows(rng, np.ones((n_states, n_states)), 1.0 - np.eye(n_states))
    return _random_tables(HsmmParams, rng, transition=transition,
                          n=n_states, K=alphabet_size, D=d_max)


class _DwellChain:
    """A chain on (state, dwell index) as an operator for ``@``: state j at
    dwell index d stays, moving to dwell index min(d + 1, D - 1), with
    probability stay[j, d], or leaves with probability leave[j, d] for
    state k at dwell index 0 with probability switch[j, k]."""

    __array_ufunc__ = None  # numpy then hands `alpha @ op` to __rmatmul__

    def __init__(self, stay, switch, leave):
        self.stay, self.switch, self.leave = stay, switch, leave
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


def _check_dwell_cap(d_max, obs):
    """Raise ValueError unless 1 <= d_max < len(obs), for checked obs."""
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if d_max >= len(obs):
        raise ValueError(f"d_max {d_max} must be smaller than the sequence length {len(obs)}")


def train_hsmm(obs, n_states, n_symbols, d_max, init=None, seed=None,
               tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """EM via the forward-backward on the (state, dwell) chain."""
    obs = _check_obs(obs, n_symbols)
    _check_dwell_cap(d_max, obs)
    if init is None:
        init = random_hsmm_params(n_states, n_symbols, d_max, seed)
    return run_em(lambda params: _hsmm_em_step(params, obs), init, tol, max_iter, seed)


def hsmm_sampler(params):
    """Dwell-explicit sampler draw(length, seed): the first state, then per
    segment its dwell, one symbol per step of it and the next state, each
    from the next uniform; the last dwell may overshoot and is truncated.
    The walk draws states and dwells; the symbols are then drawn at once,
    step t of segment s from uniform t + 2s + 2."""
    init, trans, dur = _cdf(params.initial), _cdf(params.transition), _cdf(params.duration)
    emit = _draw_rows(params.emission)

    def walk(u, length):
        x = u.tolist()
        z = _draw(init, 0, x[0])
        states, dwells = [], []
        i, t = 1, 0  # the next uniform, the next step
        while t < length:
            d = min(_draw(dur, z, x[i]) + 1, length - t)
            states.append(z)
            dwells.append(d)
            t += d
            i += d + 2
            z = _draw(trans, z, x[i - 1])
        segment = np.repeat(np.arange(len(states)), dwells)
        return emit(np.array(states)[segment], u[np.arange(length) + 2 * segment + 2])

    # the first state, and at most length segments of dwell, symbols and switch
    return _block_sampler(walk, lambda length: 3 * length + 1)


# ---------------------------------------------------------------------------
# NSHMM


@dataclass
class NshmmParams(ChainParams):
    initial: np.ndarray = table("n")
    switch: np.ndarray = table("n", "n", zero_diagonal=True)  # p(next state | leave)
    emission: np.ndarray = table("n", "K")
    stay_profile: np.ndarray = table("n", "D", rows=False)  # p(stay | dwell d), saturating at D

    @property
    def n_states(self):
        return len(self.initial)

    @property
    def d_max(self):
        return self.stay_profile.shape[1]

    def _bound_sizes(self, atol):
        stay = np.asarray(self.stay_profile, dtype=float)
        if stay.shape[1] < 1:
            raise ValueError(f"stay_profile has shape {stay.shape}, expected (n, D), D >= 1")
        if not np.all((stay >= 0) & (stay <= 1)):  # NaN fails both comparisons
            raise ValueError("stay_profile entries must be finite and lie in [0, 1]")
        return {}

    def chain(self, obs):
        """The dwell-augmented chain; every state starts at dwell index 0."""
        return (self.initial[:, None] * np.eye(1, self.d_max),
                _DwellChain(self.stay_profile, self.switch, 1.0 - self.stay_profile),
                self.emission.T[obs][:, :, None])


# The NSHMM filter renormalises every RENORM_EVERY steps.  Between two
# renormalisations alpha shrinks by at most the product of that many steps'
# largest observation likelihoods: 8 steps of 1e-30 leave 1e-240, above
# the smallest double, where 16 would underflow (1e-480).
RENORM_EVERY = 8


def _nshmm_forward(params, obs):
    """Forward filter of the NSHMM's (state, dwell index) chain, as a
    (T, D, n) array in which alphas[t, d, j] is proportional to
    p(state j at dwell index d at step t, obs[:t + 1]).

    Each step's scale is left out: every backward draw divides its weights
    by their total, so it cancels.  Step 0, every RENORM_EVERY-th step
    after it and the last step are renormalised, and raise
    ZeroProbabilityError if their mass has vanished.  This is the chain of
    ``NshmmParams.chain`` on a (dwell, state) layout, where a step is seven
    numpy calls, each writing into a preset view or buffer;
    ``hmm._scaled_forward`` on ``_DwellChain`` makes about fifteen.
    """
    n, D = params.stay_profile.shape
    stay = params.stay_profile.T.copy()  # (D, n)
    leave = 1.0 - stay
    stay_run, stay_sat = stay[:-1], stay[-1]
    # each symbol's likelihoods tiled over the dwell axis, so that a step's
    # last multiply is same-shape rather than broadcast
    lik = list(np.repeat(params.emission.T[:, None, :], D, axis=1))  # K of (D, n)
    alphas = np.zeros((len(obs), D, n))
    alphas[0, 0] = params.initial * lik[obs[0]][0]
    ones, left, kept = np.ones(D), np.empty((D, n)), np.empty(n)
    multiply, add, switch = np.multiply, np.add, params.switch
    # per step: the previous and current alpha, the step's likelihoods, the
    # dwell indices below the cap before and after a stay, and the
    # saturated dwell index D - 1 before and after
    steps = zip(alphas, alphas[1:], [lik[k] for k in obs[1:].tolist()], alphas[:, :-1],
                alphas[1:, 1:], alphas[:, -1], alphas[1:, -1])
    for t, (prev, cur, lik_t, prev_run, cur_run, prev_sat, cur_sat) in enumerate(steps, 1):
        if (t - 1) % RENORM_EVERY == 0:
            _renormalize(prev, t - 1)
        multiply(prev, leave, left)
        ones.dot(left).dot(switch, out=cur[0])
        multiply(prev_run, stay_run, cur_run)
        # the saturated counter keeps its mass; added after row 0 is set
        # because for D == 1 that is row 0
        add(cur_sat, multiply(prev_sat, stay_sat, kept), cur_sat)
        multiply(cur, lik_t, cur)
    _renormalize(alphas[-1], len(obs) - 1)
    return alphas


def _renormalize(alpha, t):
    """Divide step t's alpha by its total, in place."""
    total = np.add.reduce(alpha, axis=None)
    if total <= 0.0:
        raise ZeroProbabilityError(f"sequence has probability zero by step {t}")
    alpha /= total


def _draw_one(p, u):
    """_draw's clamped column for uniform u on the one row p: with a new row
    per draw, building _draw's cdf or a _cumulative row costs 1.4x as much."""
    cum = p.cumsum()  # np.cumsum without its Python-level wrapper
    return min(int(cum.searchsorted(u, "right")), int(cum.searchsorted(cum[-1])))


def _nshmm_ffbs(params, obs, rng):
    """Sample a state path from its posterior (forward filter, backward sample).

    The last step, and each step whose successor enters a segment (dwell
    index 0) or sits at the saturated index D - 1, is `_draw_one(w /
    w.sum(), u)` over its predecessor weights w, laid out (state, dwell);
    a saturated step has two weights and takes the same draw in floats.
    A run below the cap has one predecessor per step, so it is filled back
    to its entry at once, still reading its steps' uniforms.

    Only an entry checks its weights: the drawn successor has positive
    forward mass, which ``_nshmm_forward`` made from the weights of a run
    or saturated step, bit for bit (renormalising by a total of at most 1
    maps only 0 to 0), but an entry's mass sums over dwell before
    multiplying by switch, so for D >= 2 underflow can zero every product.
    """
    T = len(obs)
    D = params.d_max
    alphas = _nshmm_forward(params, obs)
    leave = 1.0 - params.stay_profile
    stay_rows = params.stay_profile.tolist()
    switch_to = params.switch.T.copy()  # row j = switch[:, j]
    weights = np.empty_like(leave)  # an entry step's weights, (state, dwell)
    w = weights.reshape(-1)  # a view: the weights in draw order
    u = rng.random(T)[::-1].tolist()  # u[t] draws step t; the last step draws first
    path = np.empty(T, dtype=np.int64)
    dwell = np.empty(T, dtype=np.int64)  # 0-based dwell index
    last = alphas[-1].T.ravel()
    j, dd = divmod(_draw_one(last / last.sum(), u[-1]), D)
    path[-1], dwell[-1] = j, dd
    t = T - 2
    while t >= 0:
        if dd == 0:
            # previous step left some state i at any dwell
            np.multiply(alphas[t].T, leave, weights)
            weights *= switch_to[j][:, None]
            if D == 1:  # or stayed in j with the saturated counter
                w[j] += alphas.item(t, 0, j) * stay_rows[j][0]
            total = np.add.reduce(w)
            if total <= 0:
                raise ZeroProbabilityError("degenerate backward-sampling weights")
            j, dd = divmod(_draw_one(w / total, u[t]), D)
        elif dd < D - 1:
            # steps t - dd + 1 .. t were j at dwell indices 0 .. dd - 1
            entry = t - dd + 1
            path[entry:t + 1] = j
            dwell[entry:t + 1] = np.arange(dd)
            t, dd = entry - 1, 0
            continue
        else:
            # saturated: the previous step was j at dwell D - 2 or D - 1,
            # drawn in floats with _draw_one's products, sum, quotients,
            # cumulative sum and comparisons
            w0 = alphas.item(t, D - 2, j) * stay_rows[j][D - 2]
            w1 = alphas.item(t, D - 1, j) * stay_rows[j][D - 1]
            total = w0 + w1
            c0 = w0 / total
            c1 = c0 + w1 / total
            dd = D - 2 + min((c0 <= u[t]) + (c1 <= u[t]), int(c0 < c1))
        path[t], dwell[t] = j, dd
        t -= 1
    return path, dwell


def train_nshmm(obs, n_states, n_symbols, d_max, seed=None, n_iter=300,
                burn_in=100, flat_dwell=False):
    """Posterior-mean fit by Metropolis-within-Gibbs.

    Returns (NshmmParams, info) where info carries the Metropolis
    acceptance rate and the chain settings.  flat_dwell pins the dwell
    slope to zero so the model collapses to a stationary HMM.
    """
    from scipy.special import expit  # here, so that importing the package skips scipy

    obs = _check_obs(obs, n_symbols)
    if n_states < 2:
        raise ValueError("NSHMM needs at least 2 states")
    _check_dwell_cap(d_max, obs)
    if n_iter <= max(burn_in, 0):
        raise ValueError("n_iter must exceed burn_in")
    rng = _as_rng(seed)
    n, K, D = n_states, n_symbols, d_max
    offdiag = 1.0 - np.eye(n)
    dwell_grid = np.arange(1, D + 1, dtype=float)

    a = np.zeros(n)
    b = np.zeros(n)
    switch = _dirichlet_rows(rng, np.ones((n, n)), offdiag)
    emission = rng.dirichlet(np.ones(K), size=n)
    initial = rng.dirichlet(np.ones(n))

    profile = expit(a[:, None] + b[:, None] * dwell_grid[None, :])
    sums = [np.zeros(n), np.zeros((n, n)), np.zeros((n, K)), np.zeros((n, D))]
    accepted = 0
    for it in range(n_iter):
        path, dwell = _nshmm_ffbs(NshmmParams(initial, switch, emission, profile), obs, rng)
        prev_state = path[:-1]
        moves = path[1:] != prev_state

        # conjugate draws
        init_counts = np.ones(n)
        init_counts[path[0]] += 1.0
        initial = rng.dirichlet(init_counts)
        # 1.0 plus an integer count is exact, so the counts can be taken at once
        emis_counts = 1.0 + np.bincount(path * K + obs, minlength=n * K).reshape(n, K)
        emission = _dirichlet_rows(rng, emis_counts)
        # np.add.at adds 1.0 once per move; from 1 + 1e-12, adding a pair's
        # whole count at once rounds differently once that count reaches 8191
        switch_counts = offdiag + 1e-12
        np.add.at(switch_counts, (prev_state[moves], path[1:][moves]), 1.0)
        switch = _dirichlet_rows(rng, switch_counts, offdiag)

        # Metropolis on the dwell logits, one walk per state: each state's
        # normals and uniform are drawn in turn, then every state's current
        # (row 0) and proposed (row 1) log-likelihood is scored at once
        draws = np.array([(rng.standard_normal(),
                           0.0 if flat_dwell else rng.standard_normal(),
                           rng.random()) for _ in range(n)])
        logit_a = np.stack((a, a + PROPOSAL_SCALE * draws[:, 0]))
        logit_b = np.stack((b, b + PROPOSAL_SCALE * draws[:, 1]))
        # the steps grouped by their previous state, each group in time order
        order = np.argsort(prev_state, kind="stable")
        by_state = prev_state[order]
        logits = logit_a[:, by_state] + logit_b[:, by_state] * (dwell[:-1][order] + 1.0)
        # np.maximum and np.minimum are np.clip without its Python-level wrapper
        s = np.minimum(np.maximum(expit(logits), 1e-12), 1.0 - 1e-12)
        terms = np.where(~moves[order], np.log(s), np.log1p(-s))
        # one reduce per state's slice keeps each sum's pairwise order;
        # np.add.reduceat would add each slice sequentially
        ends = np.cumsum(np.bincount(prev_state, minlength=n)).tolist()
        loglik = np.array([np.add.reduce(terms[:, lo:hi], axis=1)
                           for lo, hi in zip([0] + ends, ends)]).T
        loglik -= 0.5 * (logit_a * logit_a + logit_b * logit_b) / PRIOR_SCALE ** 2
        accept = np.log(draws[:, 2]) < loglik[1] - loglik[0]
        accepted += int(np.count_nonzero(accept))
        a, b = np.where(accept, logit_a[1], a), np.where(accept, logit_b[1], b)
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
        u = iter(u.tolist())
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
