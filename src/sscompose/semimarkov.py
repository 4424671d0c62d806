"""Duration-explicit variants: hidden semi-Markov EM and the
non-stationary HMM fitted by Metropolis-within-Gibbs.

The HSMM uses the standard explicit-duration forward-backward in log
space (segments end exactly at T; right-censoring corrections are out
of scope).  The NSHMM makes the self-transition probability a logistic
function of the current dwell time and is estimated by MCMC: forward
filter backward sample of the state path, conjugate Dirichlet draws for
the categorical parameters and random-walk Metropolis on the dwell
logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp

from .hmm import (
    SMOOTHING,
    DEFAULT_TOL,
    DEFAULT_MAX_ITER,
    ZeroProbabilityError,
    _as_rng,
    _check_obs,
    _draw,
    check_distributions,
    run_em,
)

# ---------------------------------------------------------------------------
# HSMM


@dataclass
class HsmmParams:
    initial: np.ndarray     # (n,)
    transition: np.ndarray  # (n, n), zero diagonal
    emission: np.ndarray    # (n, K)
    duration: np.ndarray    # (n, D): pmf over dwell lengths 1..D

    @property
    def n_states(self):
        return len(self.initial)

    @property
    def n_symbols(self):
        return self.emission.shape[1]

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
        K = np.shape(self.emission)[1] if n_symbols is None else n_symbols
        check_distributions(atol, [("initial", self.initial, (n,)),
                                   ("transition", self.transition, (n, n)),
                                   ("emission", self.emission, (n, K)),
                                   ("duration", self.duration, (n, np.shape(self.duration)[1]))])
        if np.any(np.diagonal(self.transition) != 0):
            raise ValueError("transition diagonal must be zero (no self-transitions)")


def random_hsmm_params(n_states, alphabet_size, d_max, seed):
    if n_states < 2:
        raise ValueError("HSMM needs at least 2 states (no self-transitions)")
    rng = _as_rng(seed)
    offdiag = 1.0 - np.eye(n_states)
    trans = rng.dirichlet(np.ones(n_states), size=n_states) * offdiag
    trans /= trans.sum(axis=1, keepdims=True)
    return HsmmParams(
        rng.dirichlet(np.ones(n_states)),
        trans,
        rng.dirichlet(np.ones(alphabet_size), size=n_states),
        rng.dirichlet(np.ones(d_max), size=n_states),
    )


def _hsmm_tables(params, obs):
    with np.errstate(divide="ignore"):
        log_pi = np.log(params.initial)
        log_trans = np.log(params.transition)
        log_dur = np.log(params.duration)
        log_emis = np.log(params.emission)
    T = len(obs)
    n = params.n_states
    ce = np.zeros((T + 1, n))  # cumulative per-state log emission
    np.cumsum(log_emis[:, obs].T, axis=0, out=ce[1:])
    return log_pi, log_trans, log_dur, log_emis, ce


def _hsmm_forward(params, obs):
    """Segment-end forward pass.

    A[t, j] = log P(x_1..x_t, a segment ends at t in state j);
    S[t, j]  = log sum_i A[t, i] + log trans[i, j], with S[0] = log pi.
    """
    log_pi, log_trans, log_dur, _, ce = _hsmm_tables(params, obs)
    T = len(obs)
    n, D = params.n_states, params.d_max
    A = np.full((T + 1, n), -np.inf)
    S = np.full((T + 1, n), -np.inf)
    S[0] = log_pi
    for t in range(1, T + 1):
        d = min(D, t)
        # rows: duration 1..d (most recent start last -> reverse slice)
        seg = ce[t][None, :] - ce[t - d:t][::-1]
        arr = log_dur.T[:d] + seg + S[t - d:t][::-1]
        A[t] = logsumexp(arr, axis=0)
        S[t] = logsumexp(A[t][:, None] + log_trans, axis=0)
    loglik = float(logsumexp(A[T]))
    if not np.isfinite(loglik):
        raise ZeroProbabilityError("sequence has probability zero under the HSMM")
    return A, S, ce, loglik


def _hsmm_backward(params, obs, ce):
    """B[t, j] = log P(x_{t+1}..x_T | segment ended at t in state j);
    U[t, k] = log sum over next-segment durations starting at t+1 in state k."""
    _, log_trans, log_dur, _, _ = _hsmm_tables(params, obs)
    T = len(obs)
    n, D = params.n_states, params.d_max
    B = np.full((T + 1, n), -np.inf)
    U = np.full((T + 1, n), -np.inf)
    B[T] = 0.0
    for t in range(T - 1, -1, -1):
        d = min(D, T - t)
        seg = ce[t + 1:t + d + 1] - ce[t][None, :]
        arr = log_dur.T[:d] + seg + B[t + 1:t + d + 1]
        U[t] = logsumexp(arr, axis=0)
        B[t] = logsumexp(log_trans + U[t][None, :], axis=1)
    return B, U


def hsmm_log_likelihood(params, obs):
    obs = _check_obs(obs, params.n_symbols)
    _, _, _, loglik = _hsmm_forward(params, obs)
    return loglik


def _hsmm_em_step(params, obs):
    """One exact EM iteration on the explicit-duration model."""
    T = len(obs)
    n, D, K = params.n_states, params.d_max, params.n_symbols
    log_pi, log_trans, log_dur, _, ce = _hsmm_tables(params, obs)
    A, S, ce, loglik = _hsmm_forward(params, obs)
    B, U = _hsmm_backward(params, obs, ce)

    dur_acc = np.zeros((n, D))
    pi_acc = np.zeros(n)
    occ = np.zeros((T, n))
    for d in range(1, D + 1):
        if d > T:
            break
        # segments starting at 0-based s0 = 0..T-d, state-major columns
        seg = ce[d:T + 1] - ce[:T - d + 1]
        log_z = S[:T - d + 1] + log_dur[:, d - 1][None, :] + seg + B[d:T + 1] - loglik
        z = np.exp(log_z)
        dur_acc[:, d - 1] = z.sum(axis=0)
        pi_acc += z[0]
        for offset in range(d):
            occ[offset:offset + T - d + 1] += z
    trans_acc = (np.exp(A[1:T, :, None] + U[1:T, None, :] - loglik)
                 * params.transition[None, :, :]).sum(axis=0)

    offdiag = 1.0 - np.eye(n)
    trans_acc = trans_acc * offdiag + SMOOTHING * offdiag
    dur_acc += SMOOTHING
    emis_acc = np.zeros((n, K))
    np.add.at(emis_acc.T, obs, occ)
    emis_acc += SMOOTHING
    new = HsmmParams(
        pi_acc / pi_acc.sum(),
        trans_acc / trans_acc.sum(axis=1, keepdims=True),
        emis_acc / emis_acc.sum(axis=1, keepdims=True),
        dur_acc / dur_acc.sum(axis=1, keepdims=True),
    )
    return new, loglik


def train_hsmm(obs, n_states, n_symbols, d_max, init=None, seed=None,
               tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """EM via the explicit-duration forward-backward."""
    obs = _check_obs(obs, n_symbols)
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if d_max >= len(obs):
        raise ValueError("d_max must be smaller than the sequence length")
    if init is None:
        init = random_hsmm_params(n_states, n_symbols, d_max, seed)
    return run_em(lambda params: _hsmm_em_step(params, obs), init, tol, max_iter, seed)


def sample_hsmm(params, length, seed):
    """Dwell-explicit sampling; the last dwell may overshoot and is truncated."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = _as_rng(seed)
    cum_init = np.cumsum(params.initial)
    cum_trans = np.cumsum(params.transition, axis=1)
    cum_dur = np.cumsum(params.duration, axis=1)
    cum_emis = np.cumsum(params.emission, axis=1)
    obs = np.empty(length, dtype=np.int64)
    t = 0
    z = _draw(cum_init, rng.random())
    while t < length:
        d = _draw(cum_dur[z], rng.random()) + 1
        for _ in range(d):
            if t >= length:
                break
            obs[t] = _draw(cum_emis[z], rng.random())
            t += 1
        z = _draw(cum_trans[z], rng.random())
    return obs


# ---------------------------------------------------------------------------
# NSHMM


@dataclass
class NshmmParams:
    initial: np.ndarray       # (n,)
    switch: np.ndarray        # (n, n): p(next state | leave), zero diagonal
    emission: np.ndarray      # (n, K)
    stay_profile: np.ndarray  # (n, D): p(stay | dwell d), saturating at D

    @property
    def n_states(self):
        return len(self.initial)

    @property
    def n_symbols(self):
        return self.emission.shape[1]

    @property
    def d_max(self):
        return self.stay_profile.shape[1]


def _nshmm_forward(params, obs, keep_alphas=False):
    """Scaled forward on the dwell-augmented chain (state, dwell).

    Returns (loglik, alphas) with alphas the (T, n, D) filtered
    distributions when keep_alphas, else None.
    """
    T = len(obs)
    n, D = params.n_states, params.d_max
    lik = params.emission.T[obs][:, :, None]  # (T, n, 1)
    stay = params.stay_profile
    leave_prob = 1.0 - stay
    stay_on, stay_saturated = stay[:, :-1], stay[:, -1]
    alphas = np.empty((T if keep_alphas else 2, n, D))
    alpha = alphas[0]
    alpha.fill(0.0)
    alpha[:, 0] = params.initial * lik[0, :, 0]
    c0 = alpha.sum()
    if c0 <= 0:
        raise ZeroProbabilityError("sequence has probability zero at step 0")
    alpha /= c0
    loglik = np.log(c0)
    for t in range(1, T):
        nxt = alphas[t if keep_alphas else t % 2]
        np.multiply(alpha[:, :-1], stay_on, out=nxt[:, 1:])
        nxt[:, 0] = (alpha * leave_prob).sum(axis=1) @ params.switch
        # the dwell counter saturates: staying at index D - 1 keeps it there;
        # added after column 0 is set because for D == 1 that is column 0
        nxt[:, -1] += alpha[:, -1] * stay_saturated
        nxt *= lik[t]
        ct = nxt.sum()
        if ct <= 0:
            raise ZeroProbabilityError(f"sequence has probability zero at step {t}")
        nxt /= ct
        loglik += np.log(ct)
        alpha = nxt
    return float(loglik), (alphas if keep_alphas else None)


def nshmm_log_likelihood(params, obs):
    obs = _check_obs(obs, params.n_symbols)
    loglik, _ = _nshmm_forward(params, obs)
    return loglik


def _nshmm_ffbs(params, obs, rng):
    """Sample a state path from its posterior (forward filter, backward sample).

    Each step is the inverse-cdf draw `_draw(np.cumsum(w / w.sum()), u)` over
    the (n, D) predecessor weights w.  A step that continues a dwell has at
    most two nonzero weights, so it is drawn from those two scalars; the
    outcome, the clamp to the last cell included, is the dense draw's.
    """
    T = len(obs)
    n, D = params.n_states, params.d_max
    _, alphas = _nshmm_forward(params, obs, keep_alphas=True)
    stay = params.stay_profile
    leave_prob = 1.0 - stay
    switch_to = params.switch.T.copy()  # row j = switch[:, j]
    u = rng.random(T)[::-1].tolist()  # u[t] draws step t; the last step draws first
    path = np.empty(T, dtype=np.int64)
    dwell = np.empty(T, dtype=np.int64)  # 0-based dwell index
    w = alphas[-1].ravel()
    j, dd = divmod(_draw(np.cumsum(w / w.sum()), u[-1]), D)
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
            j, dd = divmod(_draw(np.cumsum(w / total), u[t]), D)
        else:
            # previous step was j at dwell dd - 1, or at D - 1 when saturated
            w_on = alphas[t, j, dd - 1] * stay[j, dd - 1]
            w_sat = alphas[t, j, D - 1] * stay[j, D - 1] if dd == D - 1 else 0.0
            total = w_on + w_sat
            if total <= 0:
                raise ZeroProbabilityError("degenerate backward-sampling weights")
            cdf = w_on / total
            if u[t] < cdf:
                dd = dd - 1
            elif dd == D - 1 and u[t] < cdf + w_sat / total:
                dd = D - 1
            else:  # _draw's clamp to the last cell
                j, dd = n - 1, D - 1
        path[t], dwell[t] = j, dd
    return path, dwell


def _dwell_loglik(a, b, dwells, stays, prior_scale):
    s = expit(a + b * dwells)
    s = np.clip(s, 1e-12, 1.0 - 1e-12)
    ll = np.sum(np.where(stays, np.log(s), np.log1p(-s)))
    ll -= 0.5 * (a * a + b * b) / prior_scale ** 2
    return ll


def train_nshmm(obs, n_states, n_symbols, d_max, seed=None, n_iter=300,
                burn_in=100, flat_dwell=False, proposal_scale=0.3, prior_scale=3.0):
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
    rng = _as_rng(seed)
    T = len(obs)
    n, K, D = n_states, n_symbols, d_max
    offdiag = 1.0 - np.eye(n)
    dwell_grid = np.arange(1, D + 1, dtype=float)

    a = np.zeros(n)
    b = np.zeros(n)
    switch = rng.dirichlet(np.ones(n), size=n) * offdiag
    switch /= switch.sum(axis=1, keepdims=True)
    emission = rng.dirichlet(np.ones(K), size=n)
    initial = rng.dirichlet(np.ones(n))

    sums = {"initial": np.zeros(n), "switch": np.zeros((n, n)),
            "emission": np.zeros((n, K)), "profile": np.zeros((n, D))}
    kept = 0
    accepted = 0
    proposed = 0
    for it in range(n_iter):
        profile = expit(a[:, None] + b[:, None] * dwell_grid[None, :])
        params = NshmmParams(initial, switch, emission, profile)
        path, dwell = _nshmm_ffbs(params, obs, rng)

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
        prev_dwell = np.minimum(dwell[:-1], D - 1) + 1.0
        stays = ~moves
        prev_state = path[:-1]
        for i in range(n):
            sel = prev_state == i
            dw, st = prev_dwell[sel], stays[sel]
            cur = _dwell_loglik(a[i], b[i], dw, st, prior_scale)
            a_prop = a[i] + proposal_scale * rng.standard_normal()
            b_prop = b[i] if flat_dwell else b[i] + proposal_scale * rng.standard_normal()
            prop = _dwell_loglik(a_prop, b_prop, dw, st, prior_scale)
            proposed += 1
            if np.log(rng.random()) < prop - cur:
                a[i], b[i] = a_prop, b_prop
                accepted += 1

        if it >= burn_in:
            sums["initial"] += initial
            sums["switch"] += switch
            sums["emission"] += emission
            sums["profile"] += expit(a[:, None] + b[:, None] * dwell_grid[None, :])
            kept += 1

    if kept == 0:
        raise ValueError("n_iter must exceed burn_in")
    params = NshmmParams(sums["initial"] / kept, sums["switch"] / kept,
                         sums["emission"] / kept, sums["profile"] / kept)
    info = {"acceptance_rate": accepted / max(proposed, 1), "iterations": n_iter,
            "burn_in": burn_in, "kept_draws": kept,
            "seed": seed if isinstance(seed, int) else None}
    return params, info


def sample_nshmm(params, length, seed):
    """Ancestral sampling threading the dwell counter."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = _as_rng(seed)
    n, D = params.n_states, params.d_max
    cum_init = np.cumsum(params.initial)
    cum_switch = np.cumsum(params.switch, axis=1)
    cum_emis = np.cumsum(params.emission, axis=1)
    obs = np.empty(length, dtype=np.int64)
    z = _draw(cum_init, rng.random())
    d = 0
    obs[0] = _draw(cum_emis[z], rng.random())
    for t in range(1, length):
        if rng.random() < params.stay_profile[z, d]:
            d = min(d + 1, D - 1)
        else:
            z = _draw(cum_switch[z], rng.random())
            d = 0
        obs[t] = _draw(cum_emis[z], rng.random())
    return obs
