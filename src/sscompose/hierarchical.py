"""Hierarchical-state variants: two-hidden-state, factorial and layered HMMs.

The two-hidden-state model runs the first-order forward-backward on the
(R, S) product chain with the composite transition A_{ik,jl} = C_ij D_jkl
and applies the proportional M-step updates for C and D; emission hangs
off S only.  The factorial model does exact EM on the Cartesian-product
chain with the emission row picked by the rounded mean of the 1-based
chain ordinals.  Training runs that chain's transition as an operator, one
small matmul per chain in row blocks that OpenBLAS keeps on the calling
thread, and sums xi over t in numpy's own loops, not BLAS, so the fit does
not depend on the BLAS thread count; sampling walks the dense product
table, most of whose rows a batch of pieces visits.  The
layered model stacks Baum-Welch fits on successive Viterbi paths.
"""

from __future__ import annotations

import math
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
    _posteriors,
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
        """The product chain; each product state emits from its level's row."""
        lik = self.emission[:, obs][_emission_rows(self.chain_sizes)].T
        return reduce(np.kron, self.chain_initials), _KronChain(self.chain_transitions), lik


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
    check_state_cap(math.prod(chain_sizes))
    rng = _as_rng(seed)
    return FhmmParams(
        tuple(chain_sizes),
        [rng.dirichlet(np.ones(nj)) for nj in chain_sizes],
        [rng.dirichlet(np.ones(nj), size=nj) for nj in chain_sizes],
        rng.dirichlet(np.ones(alphabet_size), size=n_emission_levels(chain_sizes)),
    )


class _KronChain:
    """The product chain's transition, the Kronecker product of the chain
    transitions over product states in ``np.kron``'s order, as an operator
    for ``@``: each product is one small matmul per chain (_kron_rotate),
    with the transposes held once."""

    __array_ufunc__ = None  # numpy then hands `alpha @ op` to __rmatmul__

    def __init__(self, transitions):
        self.transitions = transitions
        self.transposed = [np.ascontiguousarray(A.T) for A in transitions]

    def __rmatmul__(self, alpha):  # alpha @ op
        return _kron_rotate(alpha, self.transitions).reshape(-1)

    def __matmul__(self, v):  # op @ v
        return _kron_rotate(v, self.transposed).reshape(-1)

    def xi_sums(self, alpha, right):
        """Each chain's xi summed over t (hmm._posteriors' alpha and right):
        its transition times alpha contracted, in an einsum loop rather
        than BLAS, with right moved back by every other chain's transition."""
        sizes = [len(A) for A in self.transitions]
        sums = []
        for j, A in enumerate(self.transitions):
            moved = _kron_rotate(right.T, self.transposed, skip=j)

            def chain_first(x):  # (t and chains before j, j, chains after j) -> (j, the rest)
                x = x.reshape(-1, sizes[j], math.prod(sizes[j + 1:]))
                return np.moveaxis(x, 1, 0).reshape(sizes[j], -1)

            sums.append(A * np.einsum("ir,jr->ij", chain_first(alpha[:-1]), chain_first(moved)))
        return sums


def _kron_rotate(x, mats, skip=None):
    """x's leading axes, one per matrix of mats, each multiplied by it (x @ A
    along that axis) on a (rest, n) view and moved last, so the 2-d result
    has x's axis order again; the axis of mats[skip] is only moved."""
    for j, A in enumerate(mats):
        x = x.reshape(len(A), -1).T
        if j != skip:
            x = _one_thread_matmul(x, A)
    return x


# OpenBLAS runs a dgemm of at most 65536 * 4 multiply-adds on the calling
# thread and splits a larger one across its worker threads, whose memory then
# stays in the process and whose wake-up can stall a call for tens of ms.
ONE_THREAD_MULADDS = 2 ** 18


def _one_thread_matmul(x, A):
    """x @ A with the same bits, in even row blocks of at most
    ONE_THREAD_MULADDS multiply-adds each.  No block holds one row: numpy
    hands a one-row product to gemv, whose sums differ from dgemm's, so a
    product that would need blocks that small stays one x @ A."""
    blocks = -(-len(x) // max(ONE_THREAD_MULADDS // A.size, 1))
    if blocks == 1 or len(x) < 2 * blocks:
        return x @ A
    out = np.empty((len(x), A.shape[1]))
    bounds = [len(x) * b // blocks for b in range(blocks + 1)]
    for i, j in zip(bounds, bounds[1:]):
        np.matmul(x[i:j], A, out=out[i:j])
    return out


def _fhmm_flat(params):
    """The Cartesian-product chain as a first-order HMM; each product state
    emits from its emission level's row."""
    initial = reduce(np.kron, params.chain_initials)
    transition = reduce(np.kron, params.chain_transitions)
    emission = params.emission[_emission_rows(params.chain_sizes)]
    return HmmParams(initial, transition, emission)


def _fhmm_em_step(params, obs):
    sizes = params.chain_sizes
    initial, op, obs_lik = params.chain(obs)
    loglik, alpha, right, gamma = _posteriors(initial, op, obs_lik)
    g0 = gamma[0].reshape(sizes)
    chain_initials = [g0.sum(axis=tuple(a for a in range(len(sizes)) if a != j))
                      for j in range(len(sizes))]
    rows = _emission_rows(sizes)
    # each level's gamma as a sum over its product states, not a BLAS product
    gamma_lvl = np.stack([gamma[:, rows == level].sum(axis=1)
                          for level in range(len(params.emission))], axis=1)
    del obs_lik, gamma, g0  # frees two (T, P) arrays (g0 is a view) before the xi sums
    new = FhmmParams(tuple(sizes), chain_initials,
                     [_normalized(xi) for xi in op.xi_sums(alpha, right)],
                     _normalized(_emission_counts(obs, gamma_lvl, params.n_symbols)))
    return new, loglik


def train_fhmm(obs, chain_sizes, n_symbols, init=None, seed=None,
               tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Exact EM on the Cartesian-product chain of independent factors."""
    obs = _check_obs(obs, n_symbols)
    if init is None:
        init = random_fhmm_params(chain_sizes, n_symbols, seed)
    check_state_cap(math.prod(init.chain_sizes))
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
