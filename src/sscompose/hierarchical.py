"""Hierarchical-state variants: two-hidden-state, factorial and layered HMMs.

The two-hidden-state model runs the first-order forward-backward on the
(R, S) product chain with the composite transition A_{ik,jl} = C_ij D_jkl
and applies the proportional M-step updates for C and D; emission hangs
off S only.  The factorial model does exact EM on the Cartesian-product
chain with the emission row picked by the rounded mean of the 1-based
chain ordinals.  The layered model stacks Baum-Welch fits on successive
Viterbi paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .hmm import (
    DEFAULT_TOL,
    DEFAULT_MAX_ITER,
    ChainParams,
    HmmParams,
    _as_rng,
    _check_obs,
    _draw_rows,
    _emission_counts,
    _flat_posteriors,
    _normalized,
    _random_tables,
    baum_welch,
    check_positive_ints,
    check_state_cap,
    check_table,
    random_params,
    run_em,
    sampler,
    table,
    viterbi,
)


# ---------------------------------------------------------------------------
# Two-hidden-state HMM (R drives S, emission from S)


@dataclass
class TshmmParams(ChainParams):
    m1: int  # states of S
    m2: int  # states of R
    C: np.ndarray = table("m2", "m2")  # P(R_t = j | R_{t-1} = i)
    D: np.ndarray = table("m2", "m1", "m1")  # D[j, k, l] = P(S_t = l | R_t = j, S_{t-1} = k)
    initial: np.ndarray = table("m2*m1")  # over (r, s) pairs, index r * m1 + s
    emission: np.ndarray = table("m1", "K")  # emission from S

    def _bound_sizes(self, atol):
        check_positive_ints([("m1", self.m1), ("m2", self.m2)])
        return {"m1": self.m1, "m2": self.m2, "m2*m1": self.m2 * self.m1}

    def composite_transition(self):
        """A[(i,k),(j,l)] = C[i,j] * D[j,k,l]; rows sum to 1 by construction."""
        A = np.einsum("ij,jkl->ikjl", self.C, self.D)
        return A.reshape(self.m2 * self.m1, self.m2 * self.m1)

    def chain(self, obs):
        return _tshmm_flat(self).chain(obs)


def random_tshmm_params(m1, m2, alphabet_size, seed):
    return _random_tables(TshmmParams, seed, m1=m1, m2=m2, K=alphabet_size,
                          **{"m2*m1": m2 * m1})


def _tshmm_flat(params):
    """The (R, S) product chain as a first-order HMM; state r * m1 + s emits from s."""
    return HmmParams(params.initial, params.composite_transition(),
                     np.tile(params.emission, (params.m2, 1)))


def tshmm_em_step(params, obs):
    """One EM iteration; the C/D updates are the proportional ones the
    composite-chain expected counts imply."""
    obs = _check_obs(obs, params.n_symbols)
    m1, m2 = params.m1, params.m2
    loglik, gamma, xi_sum = _flat_posteriors(params, obs)
    xi4 = xi_sum.reshape(m2, m1, m2, m1)  # [i, k, j, l]

    gamma_s = gamma.reshape(len(obs), m2, m1).sum(axis=1)
    new = TshmmParams(m1, m2,
                      _normalized(xi4.sum(axis=(1, 3))),
                      _normalized(xi4.sum(axis=0).transpose(1, 0, 2)),  # -> [j, k, l]
                      gamma[0],
                      _normalized(_emission_counts(obs, gamma_s, params.n_symbols)))
    return new, loglik


def train_tshmm(obs, m1, m2, n_symbols, init=None, seed=None,
                tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    if m1 < 1 or m2 < 1:
        raise ValueError("state counts must be >= 1")
    check_state_cap(m1 * m2)
    obs = _check_obs(obs, n_symbols)
    if init is None:
        init = random_tshmm_params(m1, m2, n_symbols, seed)
    # resolve tshmm_em_step at each step, so a replaced module attribute is the one called
    return run_em(lambda params: tshmm_em_step(params, obs), init, tol, max_iter, seed)


def tshmm_sampler(params):
    return sampler(_tshmm_flat(params))


# ---------------------------------------------------------------------------
# Factorial HMM


@dataclass
class FhmmParams(ChainParams):
    chain_sizes: tuple
    chain_initials: list[np.ndarray]     # one (n_j,) vector per chain
    chain_transitions: list[np.ndarray]  # one (n_j, n_j) matrix per chain
    emission: np.ndarray = table("levels", "K")  # row = rounded mean ordinal - 1

    @property
    def n_product(self):
        return int(np.prod(self.chain_sizes))

    def _bound_sizes(self, atol):
        sizes = self.chain_sizes
        if not sizes:
            raise ValueError("chain_sizes must name at least one chain")
        check_positive_ints((f"chain_sizes[{j}]", nj) for j, nj in enumerate(sizes))
        if not len(self.chain_initials) == len(self.chain_transitions) == len(sizes):
            raise ValueError(f"{len(sizes)} chains need {len(sizes)} initial "
                             "and transition tables")
        for j, nj in enumerate(sizes):
            check_table(f"chain_initials[{j}]", self.chain_initials[j], (nj,), atol)
            check_table(f"chain_transitions[{j}]", self.chain_transitions[j], (nj, nj), atol)
        return {"levels": n_emission_levels(sizes)}

    def chain(self, obs):
        return _fhmm_flat(self).chain(obs)


def emission_level(states):
    """Rounded (half-up) mean of 1-based chain ordinals."""
    states = np.asarray(states)
    mean = (states + 1).mean(axis=-1)
    return np.floor(mean + 0.5).astype(np.int64)


def n_emission_levels(chain_sizes):
    return int(emission_level(np.asarray(chain_sizes) - 1))


def _emission_rows(chain_sizes):
    grids = np.indices(chain_sizes).reshape(len(chain_sizes), -1).T  # (P, m)
    return emission_level(grids) - 1  # 0-based emission row per product state


def random_fhmm_params(chain_sizes, alphabet_size, seed):
    check_state_cap(int(np.prod(chain_sizes)))
    rng = _as_rng(seed)
    return FhmmParams(
        tuple(chain_sizes),
        [rng.dirichlet(np.ones(nj)) for nj in chain_sizes],
        [rng.dirichlet(np.ones(nj), size=nj) for nj in chain_sizes],
        rng.dirichlet(np.ones(alphabet_size), size=n_emission_levels(chain_sizes)),
    )


def _fhmm_flat(params):
    """The Cartesian-product chain as a first-order HMM; each product state
    emits from its emission level's row."""
    initial = reduce(np.kron, params.chain_initials)
    transition = reduce(np.kron, params.chain_transitions)
    emission = params.emission[_emission_rows(params.chain_sizes)]
    return HmmParams(initial, transition, emission)


def _fhmm_em_step(params, obs):
    sizes = params.chain_sizes
    m = len(sizes)
    K = params.n_symbols
    loglik, gamma, xi_sum = _flat_posteriors(params, obs)
    xi_full = xi_sum.reshape(tuple(sizes) + tuple(sizes))

    chain_transitions = []
    chain_initials = []
    g0 = gamma[0].reshape(sizes)
    for j in range(m):
        axes = tuple(a for a in range(2 * m) if a not in (j, m + j))
        chain_transitions.append(_normalized(xi_full.sum(axis=axes)))
        chain_initials.append(g0.sum(axis=tuple(a for a in range(m) if a != j)))

    n_levels = params.emission.shape[0]
    gamma_lvl = gamma @ np.eye(n_levels)[_emission_rows(sizes)]   # (T, n_levels)
    new = FhmmParams(tuple(sizes), chain_initials, chain_transitions,
                     _normalized(_emission_counts(obs, gamma_lvl, K)))
    return new, loglik


def train_fhmm(obs, chain_sizes, n_symbols, init=None, seed=None,
               tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Exact EM on the Cartesian-product chain of independent factors."""
    obs = _check_obs(obs, n_symbols)
    if init is None:
        init = random_fhmm_params(chain_sizes, n_symbols, seed)
    check_state_cap(init.n_product)
    return run_em(lambda params: _fhmm_em_step(params, obs), init, tol, max_iter, seed)


def fhmm_sampler(params):
    return sampler(_fhmm_flat(params))


# ---------------------------------------------------------------------------
# Layered HMM


@dataclass
class LhmmParams(ChainParams):
    layers: list[HmmParams]  # layers[0] emits pitches; layer l emits layer l-1 states
    layer_reports: list = field(default_factory=list, metadata={"persist": False})
    warnings: list = field(default_factory=list)

    @property
    def n_symbols(self):
        return self.layers[0].n_symbols

    def validate(self, atol=1e-12, n_symbols=None):
        """Layer l validates with layer l - 1's state count (n_symbols) as K."""
        if not self.layers:
            raise ValueError("layers must hold at least one layer")
        alphabet = n_symbols
        for level, layer in enumerate(self.layers):
            try:
                layer.validate(atol, alphabet)
            except ValueError as exc:
                raise ValueError(f"layers[{level}]: {exc}") from None
            alphabet = layer.n_states

    def chain(self, obs):
        """The bottom layer's chain: the pitch-emitting HMM."""
        return self.layers[0].chain(obs)


def train_lhmm(obs, n_states, n_layers, n_symbols, seed=None,
               tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, inits=None):
    """Stacked fit: Baum-Welch, then refit on the Viterbi path, layer by layer."""
    obs = _check_obs(obs, n_symbols)
    if n_layers < 1:
        raise ValueError("need at least one layer")
    rng = _as_rng(seed)
    layers, reports, warnings = [], [], []
    current = obs
    alphabet = n_symbols
    for level in range(n_layers):
        init = inits[level] if inits is not None else random_params(n_states, alphabet, rng)
        fitted, report = baum_welch(init, current, tol=tol, max_iter=max_iter, seed=seed)
        layers.append(fitted)
        reports.append(report)
        if level + 1 < n_layers:
            path = viterbi(fitted, current)
            if len(np.unique(path)) < 2:
                warnings.append(f"layer {level + 1} Viterbi path uses a single state")
            current = path
            alphabet = n_states
    return LhmmParams(layers, reports, warnings), reports[-1]


def lhmm_sampler(params):
    """Top-down ancestral sampler draw(length, seed) through the layer
    stack: the top layer's chain, then each lower layer emits one symbol
    per symbol of the layer above, with its length uniforms drawn after the
    layer above, all in one call."""
    top = sampler(params.layers[-1])
    lower = [_draw_rows(layer.emission) for layer in reversed(params.layers[:-1])]

    def draw(length, seed):
        rng = _as_rng(seed)
        seq = top(length, rng)
        for emit in lower:
            seq = emit(seq, rng.random(length))
        return seq

    return draw
