"""First-order categorical HMM machinery shared by all model variants.

Scaled (normalized-alpha) forward-backward, Baum-Welch with optional
transition masks, Viterbi, ancestral sampling and the random-parameter
baseline.  Every HMM-family parameter type derives from ``ChainParams``:
its alphabet size is the emission table's last axis, each table field
declares its shape with ``table`` and ``ChainParams.validate`` checks
them all.  Each type states its exact first-order chain once, as
``chain(obs)``: (initial, transition, observation likelihood), where
obs_lik[t] holds step t's likelihoods.
``log_likelihood`` runs the scaled forward pass on that chain for any
type, and ``_flat_posteriors`` is the E-step of every chain with a dense
transition; it sums xi over t in numpy's own einsum loop, not in BLAS,
whose split of a long sum varies with its thread count, so fitted bits
do not depend on that count.  Each step's alpha takes the shape of the
initial distribution ((n,) for a plain chain, (n, D) for the (state,
dwell) chains in ``semimarkov``), and obs_lik[t] only has to broadcast
to it.  The recursions touch the transition only through ``@``, so it
may be a matrix or an operator supporting ``alpha @ A`` and ``A @ v``
(the order-k tuple chain, the dwell chains and the factorial chain pass
one).  ``run_em`` is the EM loop every model kind shares: each trainer
hands it a step function and gets back the fitted parameters and the
FitReport.  Each M-step makes rows with ``_normalized`` (SMOOTHING is
added there only) and tallies emissions with ``_emission_counts``;
``_dirichlet_rows`` draws masked or weighted random rows, and
``_random_tables`` a random start from the ``table`` declarations.

Every sampler draws by inverse cdf on ``_cumulative`` rows: a uniform
takes the first column whose cumulative value exceeds it.  The rows hold
+inf from the first column that reaches the row's total on, so a uniform
at or above the total (rounding can leave a total just below u) takes
that column, which always has mass.  A piece's walk draws what is
sequential, the hidden states (and dwells), with ``_draw(cdf, row, u)``
on a flat ``_cdf(table)``; then ``_draw_rows(table) -> draw(rows, u)``
draws all its symbols in one vectorized pass.  The ARHMM's and the
NSHMM's walks draw their symbols as they go.  Each
parameter type has a sampler builder, ``sampler(params) -> draw(length,
seed)``, that makes its tables once (``sampler`` here,
``_order_k_sampler`` for any order-k chain), so a batch of pieces shares
them.  A symbol sampler's builder returns ``_block_sampler(walk,
n_uniforms)``: ``draw`` draws one block of ``n_uniforms(length)``
uniforms from the seed, and ``walk(u, length)`` reads that array.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, fields

import numpy as np

SMOOTHING = 1e-10  # added to M-step accumulators to avoid absorbing zero rows
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 500
STATE_CAP = 10_000  # largest state space of a chain an order-k or product model builds


class ZeroProbabilityError(ValueError):
    """The model assigns probability zero to the observed sequence."""


def table(*shape, rows=True, zero_diagonal=False):
    """A ChainParams table field: one size symbol per axis, and its rules."""
    return field(metadata={"shape": shape, "rows": rows, "zero_diagonal": zero_diagonal})


def _listed(items):
    """'a, b and c' for [a, b, c]; one item alone."""
    *rest, last = map(str, items)
    return f"{', '.join(rest)} and {last}" if rest else last


class ChainParams:
    """Base of the HMM-family parameter types: n_symbols is the emission's
    last axis, and validate checks every field declared with ``table``."""

    @property
    def n_symbols(self):
        return np.shape(self.emission)[-1]

    def validate(self, atol=1e-12, n_symbols=None):
        """Raise ValueError unless _bound_sizes passes and every ``table``
        field has its declared axes and shape, finite entries, rows that are
        distributions within atol (unless rows=False) and a zero diagonal
        (when zero_diagonal=True).  A symbol's size comes from _bound_sizes,
        else (K) from n_symbols, else from the first table naming it."""
        tables = [f for f in fields(self) if "shape" in f.metadata]
        axes = [len(f.metadata["shape"]) for f in tables]
        if [np.ndim(getattr(self, f.name)) for f in tables] != axes:
            raise ValueError(f"{_listed(f.name for f in tables)} must have {_listed(axes)} axes")
        sizes = self._bound_sizes(atol) | ({} if n_symbols is None else {"K": n_symbols})
        for f in tables:
            value, meta = getattr(self, f.name), f.metadata
            shape = tuple(map(sizes.setdefault, meta["shape"], np.shape(value)))
            check_table(f.name, value, shape, atol if meta["rows"] else None)
            if meta["zero_diagonal"] and np.any(np.diagonal(value) != 0):
                raise ValueError(f"{f.name} diagonal must be zero (no self-transitions)")

    def _bound_sizes(self, atol):
        """The type's checks that precede its tables'; returns the symbol sizes they fix."""
        return {}


@dataclass
class HmmParams(ChainParams):
    initial: np.ndarray = table("n")
    transition: np.ndarray = table("n", "n")
    emission: np.ndarray = table("n", "K")

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)
        self.transition = np.asarray(self.transition, dtype=float)
        self.emission = np.asarray(self.emission, dtype=float)

    @property
    def n_states(self):
        return len(self.initial)

    def chain(self, obs):
        return self.initial, self.transition, self.emission[:, obs].T


def check_table(name, value, shape, atol=None):
    """Raise ValueError unless value, as a float array, has that shape and
    finite entries and, when atol is given, its entries are non-negative and
    its rows (last axis) sum to 1 within atol."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise ValueError(f"{name} has shape {value.shape}, expected {shape}")
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} has non-finite entries")
    if atol is not None and np.any(value < 0):
        raise ValueError(f"{name} has negative entries")
    if atol is not None and np.any(np.abs(value.sum(axis=-1) - 1.0) > atol):
        raise ValueError(f"{name} rows do not sum to 1" if value.ndim > 1
                         else f"{name} does not sum to 1")


def check_state_cap(n_states):
    """Raise ValueError if a built chain would have more than STATE_CAP states."""
    if n_states > STATE_CAP:
        raise ValueError(f"state space of {n_states} states exceeds the cap of {STATE_CAP}; "
                         "use fewer states (structured approximations are out of scope)")


def check_positive_ints(values):
    """Raise ValueError unless every (name, value) in `values` holds a
    positive integer (a bool, such as a JSON true, is not one)."""
    for name, value in values:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be a positive integer")


@dataclass
class FitReport:
    log_likelihood_trace: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    seed: int | None = None

    @property
    def final_log_likelihood(self):
        return self.log_likelihood_trace[-1] if self.log_likelihood_trace else None


def _as_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _check_obs(obs, n_symbols):
    obs = np.asarray(obs, dtype=np.int64)
    if obs.ndim != 1 or len(obs) < 1:
        raise ValueError("observation sequence must be a non-empty 1-d array")
    bad = np.flatnonzero((obs < 0) | (obs >= n_symbols))
    if len(bad):
        raise ValueError(f"observation symbol {obs[bad[0]]} at position {bad[0]} "
                         f"is outside the alphabet of size {n_symbols}")
    return obs


def _scaled_forward(initial, transition, obs_lik):
    """Scaled forward pass.  Returns (log_likelihood, alpha, scale)."""
    T = len(obs_lik)
    alpha = np.empty((T,) + np.shape(initial))
    scale = np.empty(T)
    for t in range(T):
        a = (initial if t == 0 else alpha[t - 1] @ transition) * obs_lik[t]
        scale[t] = c = np.add.reduce(a, axis=None)  # a.sum() without its Python wrapper
        if c <= 0.0:
            raise ZeroProbabilityError(f"sequence has probability zero at step {t}")
        alpha[t] = a / c
    return float(np.log(scale).sum()), alpha, scale


def _posteriors(initial, transition, obs_lik):
    """Full scaled forward-backward.  Every step's alpha, beta and gamma
    take the shape of `initial`, which obs_lik[t] must broadcast to.

    Returns (log_likelihood, alpha, right, gamma), where
    right[t] = obs_lik[t + 1] * beta[t + 1] / scale[t + 1], so that
    xi_t(i, j) = alpha[t, i] * A[i, j] * right[t, j].
    """
    loglik, alpha, scale = _scaled_forward(initial, transition, obs_lik)
    beta = np.ones_like(alpha)
    for t in range(len(alpha) - 2, -1, -1):
        beta[t] = (transition @ (obs_lik[t + 1] * beta[t + 1])) / scale[t + 1]
    per_step = (-1,) + (1,) * (alpha.ndim - 1)  # broadcasts scale over a step's states
    gamma = alpha * beta
    gamma /= gamma.sum(axis=tuple(range(1, gamma.ndim))).reshape(per_step)
    right = beta[1:]  # in place: the same products, without two more (T, n) arrays
    right *= obs_lik[1:]
    right /= scale[1:].reshape(per_step)
    return loglik, alpha, right, gamma


def _flat_posteriors(params, obs):
    """E-step of a chain params.chain(obs) with a dense transition matrix:
    (log-likelihood, gamma, xi summed over t in an einsum loop, not BLAS)."""
    initial, transition, obs_lik = params.chain(obs)
    loglik, alpha, right, gamma = _posteriors(initial, transition, obs_lik)
    return loglik, gamma, transition * np.einsum("ti,tj->ij", alpha[:-1], right)


def _normalized(acc, mask=1.0):
    """The M-step row update every model kind shares: expected counts acc
    plus SMOOTHING, both zeroed where mask is 0 (a disallowed entry stays
    0), with each last-axis row divided by its sum."""
    acc = acc * mask + SMOOTHING * mask
    return acc / acc.sum(axis=-1, keepdims=True)


def _emission_counts(obs, weights, n_symbols):
    """Expected emission counts (n, K): weights[t, i] added to state i's
    count of symbol obs[t], in the order of t."""
    acc = np.zeros((np.shape(weights)[1], n_symbols))
    np.add.at(acc.T, obs, weights)
    return acc


def log_likelihood(params, obs):
    """Exact log-likelihood of obs under any HMM-family parameter type."""
    loglik, _, _ = _scaled_forward(*params.chain(_check_obs(obs, params.n_symbols)))
    return loglik


def run_em(step, params, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, seed=None):
    """The EM loop shared by every model kind.

    step(params) returns (next_params, log-likelihood of params).  The loop
    stops at the first log-likelihood whose change from the previous one is
    below tol * max(1, |previous|) and then returns the parameters that
    log-likelihood belongs to; after max_iter steps without converging it
    returns the last step's next_params.  The seed is recorded in the
    report only when it is an int.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    report = FitReport(seed=seed if isinstance(seed, int) else None)
    trace = report.log_likelihood_trace
    for _ in range(max_iter):
        new, loglik = step(params)
        trace.append(loglik)
        report.iterations += 1
        if len(trace) > 1 and abs(loglik - trace[-2]) < tol * max(1.0, abs(trace[-2])):
            report.converged = True
            break
        params = new
    return params, report


def baum_welch(init, obs, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
               transition_mask=None, seed=None):
    """EM fit from an explicit starting point.

    transition_mask zeroes out (and keeps zero) disallowed transitions;
    the left-right and zero-self-transition variants rely on it.
    """
    K = init.n_symbols
    obs = _check_obs(obs, K)
    mask = 1.0 if transition_mask is None else np.asarray(transition_mask, dtype=float)

    def step(params):
        loglik, gamma, xi_sum = _flat_posteriors(params, obs)
        new = HmmParams(gamma[0], _normalized(xi_sum, mask),
                        _normalized(_emission_counts(obs, gamma, K)))
        return new, loglik

    return run_em(step, init, tol, max_iter, seed)


def viterbi(params, obs):
    """Most likely hidden state path (log-space DP)."""
    obs = _check_obs(obs, params.n_symbols)
    with np.errstate(divide="ignore"):
        log_init = np.log(params.initial)
        log_trans = np.log(params.transition)
        log_emis = np.log(params.emission)
    T, n = len(obs), params.n_states
    delta = log_init + log_emis[:, obs[0]]
    back = np.empty((T, n), dtype=np.int64)
    for t in range(1, T):
        cand = delta[:, None] + log_trans
        back[t] = np.argmax(cand, axis=0)
        delta = cand[back[t], np.arange(n)] + log_emis[:, obs[t]]
    path = np.empty(T, dtype=np.int64)
    path[-1] = int(np.argmax(delta))
    for t in range(T - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path


def _cumulative(table):
    """The cumulative sums of table's last-axis rows as (rows, width), rows
    in C order (row z * K + x of an (n, K, K) table is table[z, x]), each
    +inf from its first entry that reaches the row's total on."""
    cum = np.cumsum(table, axis=-1)
    cum = cum.reshape(-1, cum.shape[-1])
    cum[cum >= cum[:, -1:]] = np.inf
    return cum


def _cdf(table):
    """_draw's table: a flat memoryview over the _cumulative rows, and the row width."""
    cum = _cumulative(table)
    return memoryview(cum.reshape(-1)), cum.shape[1]


def _draw(cdf, row, u):
    """Inverse-cdf draw of uniform u from a row of a _cdf table."""
    flat, width = cdf
    start = row * width
    return bisect_right(flat, u, start, start + width) - start


def _draw_rows(table):
    """draw(rows, u): _draw's column for each pair of row rows[i] of table
    and uniform u[i], as one array (it gathers (len(rows), width) floats)."""
    cum = _cumulative(table)

    def draw(rows, u):
        return (cum[rows] <= u[:, None]).sum(axis=1)

    return draw


def _block_sampler(walk, n_uniforms):
    """draw(length, seed) of a symbol sampler: walk(u, length) returns the
    symbols, reading u, the array of one block of n_uniforms(length)
    uniforms drawn from the seed (a Generator passed as the seed moves past
    the whole block)."""

    def draw(length, seed):
        if length < 1:
            raise ValueError("length must be >= 1")
        return np.asarray(walk(_as_rng(seed).random(n_uniforms(length)), length),
                          dtype=np.int64)

    return draw


def _order_k_sampler(step_tables, emission):
    """Ancestral sampler draw(length, seed) of an order-k chain,
    k = len(step_tables) - 1, with every table built once.

    step_tables[i] holds the next-state rows after i states, indexed by
    those states read as base-n digits; step_tables[k] applies from step k
    on, indexed by the last k states.  Step t draws its state with uniform
    2t and its symbol with uniform 2t + 1: the walk draws the states in
    order, bisecting the steady-state table inline, and then every symbol
    is drawn at once.
    """
    heads = [_cdf(table) for table in step_tables[:-1]]
    flat, n = _cdf(step_tables[-1])
    emit = _draw_rows(emission)
    k = len(heads)
    contexts = n ** k

    def walk(u, length):
        states = []
        context = 0
        for cdf, u_state in zip(heads, u[:2 * k:2].tolist()):
            z = _draw(cdf, context, u_state)
            states.append(z)
            context = context * n + z
        # from step k on, the state is read off its position j in the flat
        # table: z = j % n, and the next context is j % contexts
        start = context * n
        for u_state in u[2 * k::2].tolist():
            j = bisect_right(flat, u_state, start, start + n)
            states.append(j)
            start = j % contexts * n
        return emit(np.array(states) % n, u[1::2])

    return _block_sampler(walk, lambda length: 2 * length)


def sampler(params):
    """Ancestral sampler draw(length, seed): z_1 ~ pi, z_t ~ transition row,
    x_t ~ emission row."""
    return _order_k_sampler([params.initial[None], params.transition], params.emission)


def sample(params, length, seed):
    """One ancestral sample of the given length (see sampler)."""
    return sampler(params)(length, seed)


def _dirichlet_rows(rng, counts, mask=None):
    """One Dirichlet draw per row of counts, bit for bit and draw for draw
    ``[rng.dirichlet(row) for row in counts]`` for rows whose largest count
    is at least 0.1 (numpy's gammas in order, scaled by one over their
    running sum); a 0/1 mask then zeroes entries and renormalises each row."""
    g = rng.standard_gamma(counts)
    rows = g * (1.0 / np.cumsum(g, axis=1)[:, -1:])
    if mask is None:
        return rows
    return rows * mask / (rows * mask).sum(axis=1, keepdims=True)


def _random_tables(cls, seed, **given):
    """A cls random start: every field `given` does not supply is a
    ``table``, drawn in field order as flat-Dirichlet rows of the shape its
    size symbols take in `given`."""
    rng = _as_rng(seed)
    for f in fields(cls):
        if f.name not in given:
            *rows, width = (given[symbol] for symbol in f.metadata["shape"])
            given[f.name] = rng.dirichlet(np.ones(width), size=tuple(rows))
    return cls(**{f.name: given[f.name] for f in fields(cls)})


def random_params(n_states, alphabet_size, seed):
    """Flat-Dirichlet random parameters (the random-HMM baseline and EM inits)."""
    if n_states < 1 or alphabet_size < 1:
        raise ValueError("sizes must be >= 1")
    return _random_tables(HmmParams, seed, n=n_states, K=alphabet_size)
