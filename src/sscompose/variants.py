"""Higher-order, left-right and autoregressive HMM variants.

The order-k chain is realized exactly by embedding state tuples
(z_{t-k+1}, ..., z_t) into a first-order chain of n^k tuple states; the
first embedded step emits the first k observations jointly so the
likelihood and EM updates are exact.  The tuple chain runs through the
shared forward-backward of ``hmm``, its sparse shift structure passed as
a transition operator rather than a dense n^k x n^k matrix: each product
is one batch of n x n matmuls, one per suffix tuple.  Left-right
structure is a zero mask on the transition tables that multiplicative EM
updates preserve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .hmm import (
    DEFAULT_TOL,
    DEFAULT_MAX_ITER,
    ChainParams,
    HmmParams,
    _as_rng,
    _block_sampler,
    _cdf,
    _check_obs,
    _dirichlet_rows,
    _draw,
    _emission_counts,
    _flat_posteriors,
    _normalized,
    _order_k_sampler,
    _posteriors,
    _random_tables,
    baum_welch,
    check_positive_ints,
    check_state_cap,
    check_table,
    run_em,
    table,
)


# ---------------------------------------------------------------------------
# k-HMM


@dataclass
class KhmmParams(ChainParams):
    order: int
    n_states: int
    initial: np.ndarray = table("n")
    init_transitions: list[np.ndarray]  # step i in 2..k: (n^(i-1), n)
    transition: np.ndarray = table("n^k", "n")  # p(z_t | previous k states)
    emission: np.ndarray = table("n", "K")

    @property
    def n_tuples(self):
        return self.n_states ** self.order

    def _bound_sizes(self, atol):
        check_positive_ints([("order", self.order), ("n_states", self.n_states)])
        n, k = int(self.n_states), int(self.order)
        if len(self.init_transitions) != k - 1:
            raise ValueError(f"order {k} needs {k - 1} init_transitions tables, "
                             f"found {len(self.init_transitions)}")
        for i, step in enumerate(self.init_transitions):
            check_table(f"init_transitions[{i}]", step, (n ** (i + 1), n), atol)
        return {"n": n, "n^k": n ** k}

    def chain(self, obs):
        """The tuple chain: its initial distribution, its transition as an
        operator and its observation likelihood; the first embedded step
        emits x_1..x_k jointly."""
        n, k = self.n_states, self.order
        if len(obs) < k:
            raise ValueError("sequence shorter than the model order")
        first = reduce(np.kron, self.emission[:, obs[:k]].T)
        last_coord = np.arange(self.n_tuples) % n
        return (_tuple_initial(self), _TupleShift(self.transition, n),
                np.vstack([first, self.emission[:, obs[k:]][last_coord].T]))


def _tuple_masks(n, order, left_right):
    """Allowed next states for the init tables of steps 2..k and the
    transition table; left-right allows only states no lower than the last
    state of the row's prefix tuple."""
    rows = [n ** i for i in range(1, order + 1)]
    if not left_right:
        return [np.ones((r, n)) for r in rows]
    return [(np.arange(n)[None, :] >= (np.arange(r) % n)[:, None]).astype(float) for r in rows]


def random_khmm_params(n_states, order, alphabet_size, seed, left_right=False):
    check_state_cap(n_states ** order)
    rng = _as_rng(seed)
    initial = rng.dirichlet(np.ones(n_states))
    *init_transitions, transition = [_dirichlet_rows(rng, np.ones(mask.shape), mask)
                                     for mask in _tuple_masks(n_states, order, left_right)]
    emission = rng.dirichlet(np.ones(alphabet_size), size=n_states)
    return KhmmParams(order, n_states, initial, init_transitions, transition, emission)


def _tuple_initial(params):
    """Distribution over length-k tuples implied by pi and the init transitions."""
    w = params.initial
    for table in params.init_transitions:
        w = (w[:, None] * table).ravel()
    return w


class _TupleShift:
    """The tuple chain's transition as an operator for ``@``: tuple
    (z_1..z_k) moves only to (z_2..z_k, z), with probability table[tuple, z].
    Each product is one batch of n x n matmuls, one per suffix
    s = (z_2..z_k), on the table held suffix-first:
    by_suffix[s, a, z] = table[(a, s), z]."""

    __array_ufunc__ = None  # numpy then hands `alpha @ op` to __rmatmul__

    def __init__(self, table, n):
        self.n = n
        self.by_suffix = np.ascontiguousarray(table.reshape(n, -1, n).transpose(1, 0, 2))

    def __rmatmul__(self, alpha):  # alpha @ op: tuple (a, s) sends its mass to (s, z)
        return np.matmul(alpha.reshape(self.n, -1).T[:, None, :], self.by_suffix).ravel()

    def __matmul__(self, v):  # op @ v: tuple (a, s) collects v over (s, z)
        return (self.by_suffix @ v.reshape(-1, self.n, 1)).T.ravel()


def _khmm_em_step(params, obs, masks):
    """One exact EM iteration; returns (new_params, log_likelihood)."""
    n, k = params.n_states, params.order
    K = params.n_symbols
    loglik, alpha, right, gamma = _posteriors(*params.chain(obs))
    T_emb, P = gamma.shape

    # xi mass of prefix tuple (a, b) moving on to tuple (b, z), summed over t
    counts = np.einsum("tab,tbz->abz", alpha[:-1].reshape(T_emb - 1, n, P // n),
                       right.reshape(T_emb - 1, P // n, n), optimize=True).reshape(P, n)
    transition = _normalized(params.transition * counts, masks[-1])

    # the first tuple posterior's coordinate marginals: the first is the
    # initial distribution, and all k weigh the emissions of x_1..x_k;
    # each later tuple's last coordinate weighs one more symbol
    g0 = gamma[0].reshape((n,) * k)
    firsts = [g0.sum(axis=tuple(a for a in range(k) if a != i)) for i in range(k)]
    init_transitions = [
        _normalized(g0.reshape((n ** i, -1)).sum(axis=1).reshape(n ** (i - 1), n), mask)
        for i, mask in enumerate(masks[:-1], start=2)]
    lasts = gamma[1:].reshape(T_emb - 1, P // n, n).sum(axis=1)
    emission = _normalized(_emission_counts(obs, np.vstack([*firsts, lasts]), K))

    new = KhmmParams(k, n, firsts[0], init_transitions, transition, emission)
    return new, loglik


def train_khmm(obs, states, order, n_symbols, init=None, seed=None,
               tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, left_right=False):
    """EM on the order-k chain via the exact tuple embedding."""
    check_positive_ints([("order", order)])
    obs = _check_obs(obs, n_symbols)
    if len(obs) <= order:
        raise ValueError("sequence must be longer than the model order")
    if init is None:
        init = random_khmm_params(states, order, n_symbols, seed, left_right)
    check_state_cap(init.n_tuples)
    masks = _tuple_masks(states, order, left_right)
    return run_em(lambda params: _khmm_em_step(params, obs, masks), init, tol, max_iter, seed)


def khmm_sampler(params):
    """Ancestral sampler draw(length, seed): state i < k from pi or init
    table i, every later state from the transition row of the previous k
    states."""
    return _order_k_sampler([params.initial[None], *params.init_transitions,
                             params.transition], params.emission)


# ---------------------------------------------------------------------------
# Left-right HMM (first order; higher orders go through train_khmm)


def lr_transition_mask(n_states):
    return _tuple_masks(n_states, 1, left_right=True)[0]


def random_lr_params(n_states, alphabet_size, seed):
    """The order-1 left-right tuple start, as HmmParams."""
    start = random_khmm_params(n_states, 1, alphabet_size, seed, left_right=True)
    return HmmParams(start.initial, start.transition, start.emission)


def train_lrhmm(obs, states, n_symbols, order=1, init=None, seed=None,
                tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Upper-triangular-constrained fit; order > 1 uses the tuple embedding."""
    check_positive_ints([("order", order)])
    if order > 1:
        return train_khmm(obs, states, order, n_symbols, init=init, seed=seed,
                          tol=tol, max_iter=max_iter, left_right=True)
    if init is None:
        init = random_lr_params(states, n_symbols, seed)
    return baum_welch(init, obs, tol=tol, max_iter=max_iter,
                      transition_mask=lr_transition_mask(states), seed=seed)


# ---------------------------------------------------------------------------
# Autoregressive HMM


@dataclass
class ArhmmParams(ChainParams):
    initial: np.ndarray = table("n")
    transition: np.ndarray = table("n", "n")
    emission: np.ndarray = table("n", "K", "K")  # p(x_t | z_t, x_{t-1})
    init_emission: np.ndarray = table("n", "K")  # p(x_1 | z_1)

    @property
    def n_states(self):
        return len(self.initial)

    def chain(self, obs):
        """The state chain; step t's likelihood conditions on symbol t - 1."""
        rows = np.empty((len(obs), self.n_states))
        rows[0] = self.init_emission[:, obs[0]]
        rows[1:] = self.emission[:, obs[:-1], obs[1:]].T
        return self.initial, self.transition, rows


def random_arhmm_params(n_states, alphabet_size, seed):
    return _random_tables(ArhmmParams, seed, n=n_states, K=alphabet_size)


def train_arhmm(obs, states, n_symbols, init=None, seed=None,
                tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """EM where emissions condition on the realized previous symbol."""
    obs = _check_obs(obs, n_symbols)
    if len(obs) < 2:
        raise ValueError("ARHMM needs at least 2 observations")
    if init is None:
        init = random_arhmm_params(states, n_symbols, seed)
    n, K = states, n_symbols
    pairs = obs[:-1] * K + obs[1:]  # (previous symbol, symbol) as one index

    def step(params):
        loglik, gamma, xi_sum = _flat_posteriors(params, obs)
        new = ArhmmParams(gamma[0],
                          _normalized(xi_sum),
                          _normalized(_emission_counts(pairs, gamma[1:], K * K)
                                      .reshape(n, K, K)),
                          _normalized(_emission_counts(obs[:1], gamma[:1], K)))
        return new, loglik

    return run_em(step, init, tol, max_iter, seed)


def arhmm_sampler(params):
    """Ancestral sampler draw(length, seed) threading the previous emitted
    symbol x: state z's emission row for x is row z * K + x of the table.
    Step t draws its state with uniform 2t and its symbol with 2t + 1."""
    init, trans = _cdf(params.initial), _cdf(params.transition)
    emis, init_emis = _cdf(params.emission), _cdf(params.init_emission)
    K = params.n_symbols

    def walk(u, length):
        u = iter(u.tolist())
        z = _draw(init, 0, next(u))
        obs = [_draw(init_emis, z, next(u))]
        for u_state, u_symbol in zip(u, u):
            z = _draw(trans, z, u_state)
            obs.append(_draw(emis, z * K + obs[-1], u_symbol))
        return obs

    return _block_sampler(walk, lambda length: 2 * length)
