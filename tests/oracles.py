"""Independent brute-force references used to check the fast implementations.

Everything here enumerates explicitly (all hidden paths, all segmentations,
all alignments) or uses closed-form conjugate formulas, so agreement with
the recursive implementations is meaningful evidence of correctness.
`rowwise_levenshtein`, `rowwise_acf_pacf`, `per_group_lines`,
`dense_nshmm_ffbs` and `stepwise_tvar_log_marginal` are the plain
per-step loops that faster library code must reproduce bit for bit, as
are the `piecewise_*` metrics, frozen copies of the per-piece metric
functions and per-piece scores from before they were computed as stacks
over a batch; the `stepwise_*_sample` samplers
are per-kind loops that draw with `np.searchsorted` on each cumulative
row (`_draw_from`), frozen copies of the samplers before their tables
were built once per model, which the library samplers must reproduce
draw for draw; `stepwise_tvar_sample` is the TVAR sampler as it was
before its lags were read from one history buffer.  `linewise_piece_file`
is the command line's piece-file parse from before it read generate's
own files in one call.  `frozen_nshmm_forward`, `frozen_nshmm_ffbs` and
`frozen_train_nshmm` are M9's forward filter, backward sampler and
Metropolis-within-Gibbs fit from before its sweep was cut to fewer numpy
calls, which the library must reproduce bit for bit.
`frozen_dense_fhmm_step` is M12's EM step on the dense product chain and
`FrozenTupleShift` the tuple chain's operator, both from before they ran
as small matmuls on their factors, which the library must match within
rounding.  `frozen_masked_dirichlet`, `frozen_emit_midi_csv` and
`frozen_khmm_em_step` are the masked flat-Dirichlet start, the MIDI-CSV
emitter and KHMM's EM step as they were before the masked draw became
one helper's option, the emitter's sort dropped its note positions and
the step took its initial distribution from the first coordinate's
marginal; the library must reproduce them bit for bit.
`frozen_khmm_first_step` is the tuple chain's first-step joint emission
as it was built by a loop over the first k symbols, and
`frozen_write_csv` the command line's CSV writer as it was before each
file was written in one call; the library must reproduce them byte for
byte.  `frozen_kron_rotate` and `frozen_kron_xi_sums` are M12's factored
chain products and xi sums from before each product ran in row blocks
that OpenBLAS keeps on one thread; the library must match them bit for
bit.
"""

import functools
import itertools
import math
import types

import numpy as np
from scipy import stats
from scipy.special import expit, gammaln


def all_paths(n_states, length):
    """(n^T, T) array of every hidden state path."""
    return np.array(list(itertools.product(range(n_states), repeat=length)),
                    dtype=np.int64)


def enum_hmm_loglik(initial, transition, emission, obs):
    paths = all_paths(len(initial), len(obs))
    prob = initial[paths[:, 0]] * emission[paths[:, 0], obs[0]]
    for t in range(1, len(obs)):
        prob = prob * transition[paths[:, t - 1], paths[:, t]] * emission[paths[:, t], obs[t]]
    return float(np.log(prob.sum()))


def enum_viterbi_logprob(initial, transition, emission, obs):
    """Log joint probability of the single best path."""
    paths = all_paths(len(initial), len(obs))
    prob = initial[paths[:, 0]] * emission[paths[:, 0], obs[0]]
    for t in range(1, len(obs)):
        prob = prob * transition[paths[:, t - 1], paths[:, t]] * emission[paths[:, t], obs[t]]
    return float(np.log(prob.max()))


def path_logprob(initial, transition, emission, obs, path):
    """Log joint probability of one specific path."""
    lp = math.log(initial[path[0]]) + math.log(emission[path[0], obs[0]])
    for t in range(1, len(obs)):
        lp += math.log(transition[path[t - 1], path[t]])
        lp += math.log(emission[path[t], obs[t]])
    return lp


def _khmm_path_probs(params, obs):
    """Every hidden path of the order-k chain with its joint probability,
    and for each t >= k the index of the prefix (z_{t-k}, ..., z_{t-1})."""
    n, k = params.n_states, params.order
    paths = all_paths(n, len(obs))
    prob = params.initial[paths[:, 0]] * params.emission[paths[:, 0], obs[0]]
    prefixes = {}
    for t in range(1, len(obs)):
        idx = np.zeros(len(paths), dtype=np.int64)
        for j in range(max(t - k, 0), t):
            idx = idx * n + paths[:, j]
        if t < k:
            prob = prob * params.init_transitions[t - 1][idx, paths[:, t]]
        else:
            prob = prob * params.transition[idx, paths[:, t]]
            prefixes[t] = idx
        prob = prob * params.emission[paths[:, t], obs[t]]
    return paths, prob, prefixes


def enum_khmm_loglik(params, obs):
    """Sum over all hidden paths of the order-k chain likelihood."""
    _, prob, _ = _khmm_path_probs(params, obs)
    return float(np.log(prob.sum()))


def enum_khmm_transition_counts(params, obs):
    """Expected (prefix tuple, next state) counts over t >= k under the
    posterior over hidden paths: the E-step sums an exact M-step for the
    order-k transition table normalises.  Row index of prefix
    (z_{t-k}, ..., z_{t-1}) is sum_j z_{t-k+j} n^(k-1-j)."""
    n, k = params.n_states, params.order
    paths, prob, prefixes = _khmm_path_probs(params, obs)
    weight = prob / prob.sum()
    counts = np.zeros((n ** k, n))
    for t, idx in prefixes.items():
        np.add.at(counts, (idx, paths[:, t]), weight)
    return counts


def smoothed_rows(counts, smoothing, mask=1.0):
    """The rows an exact M-step gives from expected counts: the counts plus
    `smoothing` under the zero mask, each last-axis row normalised."""
    acc = counts * mask + smoothing * mask
    return acc / acc.sum(axis=-1, keepdims=True)


def _arhmm_path_probs(params, obs):
    """Every hidden path of the ARHMM with its joint probability."""
    paths = all_paths(params.n_states, len(obs))
    prob = params.initial[paths[:, 0]] * params.init_emission[paths[:, 0], obs[0]]
    for t in range(1, len(obs)):
        prob = prob * params.transition[paths[:, t - 1], paths[:, t]]
        prob = prob * params.emission[paths[:, t], obs[t - 1], obs[t]]
    return paths, prob


def enum_arhmm_loglik(params, obs):
    _, prob = _arhmm_path_probs(params, obs)
    return float(np.log(prob.sum()))


def enum_arhmm_counts(params, obs):
    """Posterior-expected counts of the ARHMM over every hidden path:
    (initial (n,), transition (n, n), emission (n, K, K), init_emission
    (n, K)), where emission[j, x, y] counts steps t >= 1 in state j that
    emit y after x and init_emission[j, x] counts a first step in j
    emitting x.  An exact EM step normalises these."""
    paths, prob = _arhmm_path_probs(params, obs)
    w = prob / prob.sum()
    n, K = params.n_states, params.init_emission.shape[1]
    initial, transition = np.zeros(n), np.zeros((n, n))
    emission, init_emission = np.zeros((n, K, K)), np.zeros((n, K))
    np.add.at(initial, paths[:, 0], w)
    np.add.at(init_emission, (paths[:, 0], obs[0]), w)
    for t in range(1, len(obs)):
        np.add.at(transition, (paths[:, t - 1], paths[:, t]), w)
        np.add.at(emission, (paths[:, t], obs[t - 1], obs[t]), w)
    return initial, transition, emission, init_emission


def _tshmm_path_probs(params, obs):
    """Every (R, S) path of the two-hidden-state chain with its joint
    probability, as the R path, the S path and the probabilities."""
    m1, m2 = params.m1, params.m2
    paths = all_paths(m1 * m2, len(obs))  # pair index r * m1 + s
    r, s = paths // m1, paths % m1
    prob = params.initial[paths[:, 0]] * params.emission[s[:, 0], obs[0]]
    for t in range(1, len(obs)):
        prob = prob * params.C[r[:, t - 1], r[:, t]]
        prob = prob * params.D[r[:, t], s[:, t - 1], s[:, t]]
        prob = prob * params.emission[s[:, t], obs[t]]
    return r, s, prob


def enum_tshmm_loglik(params, obs):
    _, _, prob = _tshmm_path_probs(params, obs)
    return float(np.log(prob.sum()))


def enum_tshmm_counts(params, obs):
    """Posterior-expected counts of the two-hidden-state HMM over every
    (R, S) path: (C (m2, m2), D (m2, m1, m1), emission (m1, K)), where
    C[i, j] counts R moving from i to j, D[j, k, l] counts S moving from k
    to l while R is in j, and emission[k, x] counts steps in S state k
    emitting x.  An exact EM step normalises these."""
    m1, m2 = params.m1, params.m2
    r, s, prob = _tshmm_path_probs(params, obs)
    w = prob / prob.sum()
    C, D = np.zeros((m2, m2)), np.zeros((m2, m1, m1))
    emission = np.zeros(params.emission.shape)
    np.add.at(emission, (s[:, 0], obs[0]), w)
    for t in range(1, len(obs)):
        np.add.at(C, (r[:, t - 1], r[:, t]), w)
        np.add.at(D, (r[:, t], s[:, t - 1], s[:, t]), w)
        np.add.at(emission, (s[:, t], obs[t]), w)
    return C, D, emission


def _fhmm_path_probs(params, obs):
    """Every joint path of the factorial chain with its joint probability,
    as the per-chain state paths, the emission level path and the
    probabilities.

    A joint state is one mixed-radix index over the chain sizes. Each time
    step emits from level floor(mean of the 1-based chain ordinals + 0.5),
    i.e. the mean rounded half up, computed here in exact integer arithmetic.
    """
    sizes = params.chain_sizes
    m = len(sizes)
    paths = all_paths(math.prod(sizes), len(obs))
    states, rest = [], paths  # states[c][:, t] = state of chain c at time t
    for nj in sizes:
        states.append(rest % nj)
        rest = rest // nj
    ordinal_sum = sum(s + 1 for s in states)
    level = (2 * ordinal_sum + m) // (2 * m)  # floor(ordinal_sum / m + 1/2)
    prob = params.emission[level[:, 0] - 1, obs[0]]
    for c, s in enumerate(states):
        prob = prob * params.chain_initials[c][s[:, 0]]
    for t in range(1, len(obs)):
        for c, s in enumerate(states):
            prob = prob * params.chain_transitions[c][s[:, t - 1], s[:, t]]
        prob = prob * params.emission[level[:, t] - 1, obs[t]]
    return states, level, prob


def enum_fhmm_loglik(params, obs):
    """Sum over every joint path of all chains of the factorial chain likelihood."""
    _, _, prob = _fhmm_path_probs(params, obs)
    return float(np.log(prob.sum()))


def enum_fhmm_counts(params, obs):
    """Posterior-expected counts of the factorial HMM over every joint
    path: (chain_transitions, a list of (n_j, n_j) counts of chain j
    moving between its states, and emission (n_levels, K), counting steps
    at 1-based level l emitting x in row l - 1).  An exact EM step
    normalises these."""
    states, level, prob = _fhmm_path_probs(params, obs)
    w = prob / prob.sum()
    transitions = [np.zeros((nj, nj)) for nj in params.chain_sizes]
    emission = np.zeros(params.emission.shape)
    for t in range(len(obs)):
        np.add.at(emission, (level[:, t] - 1, obs[t]), w)
        if t:
            for counts, s in zip(transitions, states):
                np.add.at(counts, (s[:, t - 1], s[:, t]), w)
    return transitions, emission


def frozen_dense_fhmm_step(params, obs, smoothing):
    """M12's EM step as it was before its chain ran on its factors: the
    scaled forward-backward on the dense product chain of ``np.kron``
    tables, the P x P xi sum reshaped to six axes for each chain's counts
    and each level's gamma as a product with a one-hot table.  Returns the
    log-likelihood and the step's (chain_initials, chain_transitions,
    emission); the factored step must agree within rounding."""
    sizes = tuple(params.chain_sizes)
    m = len(sizes)
    initial = functools.reduce(np.kron, params.chain_initials)
    transition = functools.reduce(np.kron, params.chain_transitions)
    ordinal_sum = (np.indices(sizes).reshape(m, -1) + 1).sum(axis=0)
    level = (2 * ordinal_sum + m) // (2 * m)  # 1-based, the mean rounded half up
    lik = params.emission[level - 1][:, obs].T
    T, P = len(obs), len(initial)
    alpha, scale = np.empty((T, P)), np.empty(T)
    for t in range(T):
        a = (initial if t == 0 else alpha[t - 1] @ transition) * lik[t]
        scale[t] = a.sum()
        alpha[t] = a / scale[t]
    beta = np.ones((T, P))
    for t in range(T - 2, -1, -1):
        beta[t] = transition @ (lik[t + 1] * beta[t + 1]) / scale[t + 1]
    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)
    right = lik[1:] * beta[1:] / scale[1:, None]
    xi = (transition * (alpha[:-1].T @ right)).reshape(sizes + sizes)
    g0 = gamma[0].reshape(sizes)
    initials = [g0.sum(axis=tuple(a for a in range(m) if a != j)) for j in range(m)]
    transitions = [smoothed_rows(xi.sum(axis=tuple(a for a in range(2 * m)
                                                   if a not in (j, m + j))), smoothing)
                   for j in range(m)]
    gamma_lvl = gamma @ np.eye(len(params.emission))[level - 1]
    counts = np.zeros(params.emission.shape)
    np.add.at(counts.T, obs, gamma_lvl)
    return float(np.log(scale).sum()), (initials, transitions, smoothed_rows(counts, smoothing))


def frozen_kron_rotate(x, mats, skip=None):
    """x's leading axes, one per matrix of mats, each multiplied by it in
    one x @ A on a (rest, n) view and moved last; the axis of mats[skip] is
    only moved."""
    for j, A in enumerate(mats):
        x = x.reshape(len(A), -1).T
        if j != skip:
            x = x @ A
    return x


def frozen_kron_xi_sums(transitions, alpha, right):
    """Each chain's xi summed over t, with right moved back by every other
    chain's transition through frozen_kron_rotate."""
    sizes = [len(A) for A in transitions]
    transposed = [np.ascontiguousarray(A.T) for A in transitions]
    sums = []
    for j, A in enumerate(transitions):
        moved = frozen_kron_rotate(right.T, transposed, skip=j)

        def chain_first(x):
            x = x.reshape(-1, sizes[j], math.prod(sizes[j + 1:]))
            return np.moveaxis(x, 1, 0).reshape(sizes[j], -1)

        sums.append(A * np.einsum("ir,jr->ij", chain_first(alpha[:-1]), chain_first(moved)))
    return sums


class FrozenTupleShift:
    """The order-k tuple chain's transition operator as it was before it
    ran as batched matmuls: each side broadcasts a (tuples, n) product and
    sums it.  Tuple (z_1..z_k) moves only to (z_2..z_k, z), with
    probability table[tuple, z]."""

    __array_ufunc__ = None

    def __init__(self, table, n):
        self.table, self.n = table, n

    def __rmatmul__(self, alpha):
        return (alpha[:, None] * self.table).reshape(self.n, -1).sum(axis=0)

    def __matmul__(self, v):
        n = self.n
        return (self.table.reshape(n, -1, n) * v.reshape(-1, n)).sum(axis=2).ravel()


def enum_hsmm_loglik(params, obs):
    """Sum over all (segmentation, state labeling) pairs that cover obs exactly."""
    T = len(obs)
    n, D = params.n_states, params.duration.shape[1]

    def rec(t, prev_state):
        if t == T:
            return 1.0
        total = 0.0
        for j in range(n):
            if prev_state is None:
                entry = params.initial[j]
            else:
                entry = params.transition[prev_state, j]
            if entry == 0.0:
                continue
            for d in range(1, min(D, T - t) + 1):
                emit = np.prod(params.emission[j, obs[t:t + d]])
                total += entry * params.duration[j, d - 1] * emit * rec(t + d, j)
        return total

    return float(np.log(rec(0, None)))


def _hsmm_segmentations(params, obs):
    """Every labelled segmentation that covers obs exactly, as a list of
    (start, duration, state) segments, with its joint probability."""
    T = len(obs)
    n, D = params.n_states, params.duration.shape[1]
    out = []

    def rec(t, prev_state, segments, prob):
        if t == T:
            out.append((segments, prob))
            return
        for j in range(n):
            entry = params.initial[j] if prev_state is None else params.transition[prev_state, j]
            for d in range(1, min(D, T - t) + 1):
                p = entry * params.duration[j, d - 1] * np.prod(params.emission[j, obs[t:t + d]])
                if p > 0.0:
                    rec(t + d, j, segments + [(t, d, j)], prob * p)

    rec(0, None, [], 1.0)
    return out


def enum_hsmm_counts(params, obs):
    """Posterior-expected counts of the explicit-duration HSMM, summed over
    every labelled segmentation that covers obs exactly: (initial (n,),
    transition (n, n), duration (n, D), emission (n, K)), where duration[j,
    d - 1] counts segments of state j lasting d steps and emission[j, x]
    counts steps spent in j emitting x.  An exact EM step normalises these."""
    n, D = params.n_states, params.duration.shape[1]
    initial, transition = np.zeros(n), np.zeros((n, n))
    duration, emission = np.zeros((n, D)), np.zeros(params.emission.shape)
    segmentations = _hsmm_segmentations(params, obs)
    total = sum(prob for _, prob in segmentations)
    for segments, prob in segmentations:
        w = prob / total
        initial[segments[0][2]] += w
        for (_, _, i), (_, _, j) in zip(segments, segments[1:]):
            transition[i, j] += w
        for start, d, j in segments:
            duration[j, d - 1] += w
            for x in obs[start:start + d]:
                emission[j, x] += w
    return initial, transition, duration, emission


def brute_edit_distance(a, b):
    """Plain recursive Levenshtein with memoization."""
    a, b = list(a), list(b)
    memo = {}

    def rec(i, j):
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        key = (i, j)
        if key not in memo:
            sub = rec(i + 1, j + 1) + (a[i] != b[j])
            memo[key] = min(sub, rec(i + 1, j) + 1, rec(i, j + 1) + 1)
        return memo[key]

    return rec(0, 0)


def rowwise_levenshtein(a, b):
    """Wagner-Fischer: the full (len(a)+1) x (len(b)+1) edit-distance table,
    filled row by row in pure Python."""
    a, b = list(a), list(b)
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(table[i - 1][j] + 1,
                              table[i][j - 1] + 1,
                              table[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return table[len(a)][len(b)]


def linewise_piece_file(path):
    """A piece file's pitches, parsed line by line: a list of ints, or the
    OSError or ValueError whose message `evaluate` reports for the file.
    Blank lines are ignored; int() strips the whitespace around a number."""
    with open(path) as fh:
        text = fh.read()
    pitches = list(map(int, filter(str.strip, text.split("\n"))))
    if not pitches:
        raise ValueError("empty piece file")
    if not 0 <= min(pitches) <= max(pitches) <= 127:
        outside = next(p for p in pitches if not 0 <= p <= 127)
        raise ValueError(f"pitch {outside} outside 0-127")
    return pitches


def rowwise_acf_pacf(values, max_lag):
    """One sequence's sample ACF (biased 1/T autocovariances) at lags
    1..max_lag, each lag a dot product of the centred series with its
    shift, and the PACF by the Durbin-Levinson recursion, one lag at a
    time; raises ValueError where the correlations are undefined."""
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    x = np.asarray(values, dtype=float)
    T = len(x)
    if T <= max_lag + 1:
        raise ValueError("sequence too short for the requested number of lags")
    xc = x - x.mean()
    gamma0 = float(xc @ xc) / T
    if gamma0 <= 0:
        raise ValueError("zero-variance sequence: correlation undefined")
    rho = np.empty(max_lag + 1)
    rho[0] = 1.0
    for h in range(1, max_lag + 1):
        rho[h] = float(xc[h:] @ xc[:-h]) / T / gamma0

    pacf = np.empty(max_lag)
    phi = np.zeros(max_lag + 1)
    phi[1] = rho[1]
    pacf[0] = rho[1]
    denom = 1.0 - rho[1] * rho[1]
    for h in range(2, max_lag + 1):
        num = rho[h] - phi[1:h] @ rho[h - 1:0:-1]
        if abs(denom) < 1e-300:
            raise ValueError(f"Durbin-Levinson breakdown at lag {h}")
        phi_hh = num / denom
        phi[h] = phi_hh
        phi[1:h] = phi[1:h] - phi_hh * phi[h - 1:0:-1]  # right side read before writing
        denom *= 1.0 - phi_hh * phi_hh
        pacf[h - 1] = phi_hh
    return rho[1:], pacf


def per_group_lines(timestamps, pitches):
    """Treble (max), bass (min) and the pitches of every timestamp group,
    one Python loop iteration per group."""
    times = np.asarray(timestamps)
    pitches = np.asarray(pitches)
    uniq = np.unique(times)
    order = np.argsort(times, kind="stable")
    treble = np.empty(len(uniq), dtype=np.int64)
    bass = np.empty(len(uniq), dtype=np.int64)
    groups = []
    pos = 0
    sorted_p = pitches[order]
    counts = np.bincount(np.searchsorted(uniq, times[order]))
    for g, c in enumerate(counts):
        chunk = sorted_p[pos:pos + c]
        treble[g] = chunk.max()
        bass[g] = chunk.min()
        groups.append(chunk)
        pos += c
    return treble, bass, groups


_DISSONANT = [1, 2, 10, 11]


def _piecewise_chord_classes(chords):
    pairs = [np.abs(chunk[:, None] - chunk[None, :])[np.triu_indices(len(chunk), 1)]
             for chunk in chords]
    return np.concatenate(pairs) % 12 if pairs else np.zeros(0, dtype=np.int64)


def piecewise_dissonance_rate(seq):
    """Dissonant pairs within chords plus dissonant treble steps, over the
    note count."""
    treble, _, groups = per_group_lines(seq.timestamps, seq.pitches)
    chords = [g for g in groups if len(g) > 1]
    classes = np.concatenate([_piecewise_chord_classes(chords), np.abs(np.diff(treble)) % 12])
    return int(np.isin(classes, _DISSONANT).sum()) / len(seq)


def piecewise_large_interval_rate(seq):
    """Treble and bass jumps above an octave, a bass step identical to the
    treble step counted once, over the note count."""
    treble, bass, _ = per_group_lines(seq.timestamps, seq.pitches)
    count = 0
    if len(treble) > 1:
        count += int((np.abs(np.diff(treble)) > 12).sum())
        distinct = (bass[:-1] != treble[:-1]) | (bass[1:] != treble[1:])
        count += int(((np.abs(np.diff(bass)) > 12) & distinct).sum())
    return count / len(seq)


def piecewise_entropy(pitches):
    _, counts = np.unique(np.asarray(pitches), return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def piecewise_pitch_histogram(pitches, union_symbols):
    idx = np.searchsorted(np.asarray(union_symbols), np.asarray(pitches))
    hist = np.bincount(idx, minlength=len(union_symbols)).astype(float)
    return hist / hist.sum()


def piecewise_mutual_information(train_pitches, gen_pitches):
    x = np.asarray(train_pitches)
    y = np.asarray(gen_pitches)
    L = min(len(x), len(y))
    x, y = x[:L], y[:L]
    xs, xi = np.unique(x, return_inverse=True)
    ys, yi = np.unique(y, return_inverse=True)
    joint = np.zeros((len(xs), len(ys)))
    np.add.at(joint, (xi, yi), 1.0)
    joint /= L
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    ratio = joint[nz] / (np.outer(px, py)[nz])
    return float((joint[nz] * np.log(ratio)).sum())


def _piecewise_rmse(values, reference):
    values = np.asarray(values, dtype=float)
    return float(np.sqrt(np.mean((values - reference) ** 2)))


def piecewise_scores(per_piece, ref):
    """The ten batch scores of (MetricVector, PairMetrics) pairs: RMSEs over
    the stacked values, MI and edit-distance means; pieces with no ACF are
    left out of the temporal pooling, NaN with none left."""
    vectors = [mv for mv, _ in per_piece]
    timed = [mv for mv in vectors if mv.acf is not None]

    def pooled(name, pieces):
        if not pieces:
            return float("nan")
        return _piecewise_rmse([getattr(mv, name) for mv in pieces], getattr(ref, name))

    scores = {
        "entropy_rmse": pooled("entropy", vectors),
        "mutual_information_mean": float(np.mean([pm.mutual_information for _, pm in per_piece])),
        "edit_distance_mean": float(np.mean([pm.edit_distance_normalized
                                             for _, pm in per_piece])),
        "dissonance_rmse": pooled("dissonance_rate", vectors),
        "large_interval_rmse": pooled("large_interval_rate", vectors),
        "note_count_rmse": pooled("pitch_histogram", vectors),
        "acf_rmse": pooled("acf", timed),
        "pacf_rmse": pooled("pacf", timed),
    }
    scores["musicality_average"] = float(np.mean(
        [scores["dissonance_rmse"], scores["large_interval_rmse"], scores["note_count_rmse"]]))
    scores["temporal_average"] = float(np.mean([scores["acf_rmse"], scores["pacf_rmse"]]))
    return scores


def piecewise_piece_scores(report):
    """Each piece's row: `piecewise_scores` of it alone, temporal-avg inf
    when its ACF is undefined."""
    columns = {"entropy-rmse": "entropy_rmse", "musicality-avg": "musicality_average",
               "temporal-avg": "temporal_average",
               "mutual_information": "mutual_information_mean",
               "edit_distance": "edit_distance_mean"}
    rows = []
    for i, (mv, pm) in enumerate(report.per_piece):
        scores = piecewise_scores([(mv, pm)], report.training_metrics)
        rows.append({"piece": i, **{key: scores[name] for key, name in columns.items()}})
        if mv.acf is None:
            rows[-1]["temporal-avg"] = float("inf")
    return rows


def rmse_naive(values, ref):
    total = 0.0
    for v in values:
        total += (v - ref) ** 2
    return math.sqrt(total / len(values))


def rmse_compensated(values, ref):
    return math.sqrt(math.fsum((v - ref) ** 2 for v in values) / len(values))


def batch_conjugate_regression(y, order, prior_scale=1.0, prior_df=1.0,
                               prior_obs_var=1.0):
    """Closed-form normal-inverse-chi-squared posterior and marginal for the
    static AR model y_t = F_t' theta + eps, matching the discount filter at
    state discount = variance discount = 1.

    Returns (m, C, s, n_dof, log_marginal), with C in the filter's
    convention (the Student-t scale matrix, i.e. s_T times the inverse
    posterior precision).
    """
    y = np.asarray(y, dtype=float)
    d = order
    X = np.array([y[t - d:t][::-1] for t in range(d, len(y))])
    t_obs = y[d:]
    T = len(t_obs)
    C0 = np.eye(d) * prior_scale
    C0_inv = np.linalg.inv(C0)
    n0 = prior_df
    s0 = prior_obs_var
    d0 = n0 * s0

    lam = C0_inv + X.T @ X
    C_T = np.linalg.inv(lam)
    m_T = C_T @ (X.T @ t_obs)  # prior mean is zero
    n_T = n0 + T
    d_T = d0 + t_obs @ t_obs - m_T @ lam @ m_T
    s_T = d_T / n_T
    C_T = s_T * C_T

    # marginal: t_obs ~ multivariate Student-t(df=n0, mean=0, scale s0 (I + X C0 X'))
    S = np.eye(T) + X @ C0 @ X.T
    sign, logdet = np.linalg.slogdet(S)
    Q = t_obs @ np.linalg.solve(S, t_obs)
    log_marginal = (gammaln((n0 + T) / 2.0) - gammaln(n0 / 2.0)
                    - 0.5 * T * math.log(n0 * math.pi * s0) - 0.5 * logdet
                    - 0.5 * (n0 + T) * math.log1p(Q / (n0 * s0)))
    return m_T, C_T, s_T, n_T, float(log_marginal)


def enum_nshmm_loglik(params, obs):
    """Sum over every state path and every stay/leave choice of the NSHMM
    joint probability, threading the saturating dwell counter per path.

    The chain starts at dwell index 0. At each later step the current
    state z at dwell index d stays with probability stay_profile[z, d]
    (same state, dwell index min(d + 1, D - 1)) or leaves with the rest
    and moves to z' with probability switch[z, z'] (dwell index 0).
    """
    initial, switch = params.initial, params.switch
    emission, stay_profile = params.emission, params.stay_profile
    T = len(obs)
    D = stay_profile.shape[1]
    states = all_paths(len(initial), T)
    choices = all_paths(2, T - 1)  # 1 = leave, 0 = stay
    z = np.repeat(states, len(choices), axis=0)
    leave = np.tile(choices, (len(states), 1)) == 1
    dwell = np.zeros(len(z), dtype=np.int64)
    prob = initial[z[:, 0]] * emission[z[:, 0], obs[0]]
    for t in range(1, T):
        prev, cur, go = z[:, t - 1], z[:, t], leave[:, t - 1]
        stay = stay_profile[prev, dwell]
        prob = prob * np.where(go, (1.0 - stay) * switch[prev, cur],
                               stay * (cur == prev))
        prob = prob * emission[cur, obs[t]]
        dwell = np.where(go, 0, np.minimum(dwell + 1, D - 1))
    return float(np.log(prob.sum()))


def dense_nshmm_ffbs(params, obs, rng):
    """Forward filter, backward sample on the dwell-augmented chain with one
    dense (n, D) weight table, cumsum and inverse-cdf draw per step.

    The predecessor of (j, dd) is any (i, e) that left for j when dd == 0,
    (j, dd - 1) when dd > 0, and also (j, D - 1) when dd == D - 1 (the
    counter saturates).  Draws one rng.random() per step, last step first.
    """
    T = len(obs)
    n, D = params.stay_profile.shape
    stay = params.stay_profile
    alpha = np.zeros((n, D))
    alpha[:, 0] = params.initial * params.emission[:, obs[0]]
    alpha = alpha / alpha.sum()
    alphas = [alpha]
    for t in range(1, T):
        nxt = np.zeros((n, D))
        nxt[:, 1:] = alpha[:, :-1] * stay[:, :-1]
        nxt[:, 0] = (alpha * (1.0 - stay)).sum(axis=1) @ params.switch
        nxt[:, -1] += alpha[:, -1] * stay[:, -1]
        nxt *= params.emission[:, obs[t]][:, None]
        alpha = nxt / nxt.sum()
        alphas.append(alpha)

    def draw(w):
        w = w.ravel()
        if w.sum() <= 0:
            raise ValueError("degenerate backward-sampling weights")
        cdf = np.cumsum(w / w.sum())
        return divmod(min(int(np.searchsorted(cdf, rng.random(), side="right")),
                          int(np.searchsorted(cdf, cdf[-1], side="left"))), D)

    path = np.empty(T, dtype=np.int64)
    dwell = np.empty(T, dtype=np.int64)
    path[-1], dwell[-1] = draw(alphas[-1])
    for t in range(T - 2, -1, -1):
        j, dd = path[t + 1], dwell[t + 1]
        if dd == 0:
            w = alphas[t] * (1.0 - stay) * params.switch[:, j][:, None]
        else:
            w = np.zeros((n, D))
            w[j, dd - 1] = alphas[t][j, dd - 1] * stay[j, dd - 1]
        if dd == D - 1:
            w[j, D - 1] += alphas[t][j, D - 1] * stay[j, D - 1]
        path[t], dwell[t] = draw(w)
    return path, dwell


def frozen_nshmm_forward(params, obs, renorm_every=8):
    """M9's forward filter as it was before its step wrote every product
    into a preset buffer: the library's ``_nshmm_forward`` must give these
    (T, D, n) alphas bit for bit, renormalising step 0, every
    renorm_every-th step after it and the last step."""
    n, D = params.stay_profile.shape
    stay = params.stay_profile.T.copy()  # (D, n)
    leave = 1.0 - stay
    stay_run, stay_sat = stay[:-1], stay[-1]
    lik = params.emission.T[obs]          # (T, n)
    alphas = np.zeros((len(obs), D, n))
    alphas[0, 0] = params.initial * lik[0]
    ones, left = np.ones(D), np.empty((D, n))

    def renormalize(alpha, t):
        total = np.add.reduce(alpha, axis=None)
        if total <= 0.0:
            raise ValueError(f"sequence has probability zero by step {t}")
        alpha /= total

    steps = zip(alphas, alphas[1:], lik[1:], alphas[:, :-1], alphas[1:, 1:],
                alphas[:, -1], alphas[1:, -1])
    for t, (prev, cur, lik_t, prev_run, cur_run, prev_sat, cur_sat) in enumerate(steps, 1):
        if (t - 1) % renorm_every == 0:
            renormalize(prev, t - 1)
        np.multiply(prev, leave, out=left)
        cur[0] = np.dot(np.dot(ones, left), params.switch)
        np.multiply(prev_run, stay_run, out=cur_run)
        cur_sat += prev_sat * stay_sat
        np.multiply(cur, lik_t, out=cur)
    renormalize(alphas[-1], len(obs) - 1)
    return alphas


def _frozen_draw_one(p, u):
    cum = np.cumsum(p)
    return min(int(cum.searchsorted(u, "right")), int(cum.searchsorted(cum[-1])))


def frozen_nshmm_ffbs(params, obs, rng):
    """M9's backward sampler as it was before its entry weights went into
    one buffer and its saturated steps were drawn in floats."""
    T = len(obs)
    D = params.stay_profile.shape[1]
    alphas = frozen_nshmm_forward(params, obs)
    leave = 1.0 - params.stay_profile.T
    switch_to = params.switch.T.copy()
    u = rng.random(T)[::-1].tolist()
    path = np.empty(T, dtype=np.int64)
    dwell = np.empty(T, dtype=np.int64)
    w = alphas[-1].T.ravel()
    j, dd = divmod(_frozen_draw_one(w / w.sum(), u[-1]), D)
    path[-1], dwell[-1] = j, dd
    t = T - 2
    while t >= 0:
        if dd == 0:
            w = (alphas[t] * leave * switch_to[j]).T.ravel()
            if D == 1:
                w[j] += alphas.item(t, 0, j) * params.stay_profile[j, 0]
            total = w.sum()
            if total <= 0:
                raise ValueError("degenerate backward-sampling weights")
            j, dd = divmod(_frozen_draw_one(w / total, u[t]), D)
        elif dd < D - 1:
            entry = t - dd + 1
            path[entry:t + 1] = j
            dwell[entry:t + 1] = np.arange(dd)
            t, dd = entry - 1, 0
            continue
        else:
            w = alphas[t, D - 2:, j] * params.stay_profile[j, D - 2:]
            dd = D - 2 + _frozen_draw_one(w / w.sum(), u[t])
        path[t], dwell[t] = j, dd
        t -= 1
    return path, dwell


def _frozen_dwell_loglik(a, b, dwells, stays, prior_scale):
    s = np.minimum(np.maximum(expit(a + b * dwells), 1e-12), 1.0 - 1e-12)
    ll = np.add.reduce(np.where(stays, np.log(s), np.log1p(-s)))
    ll -= 0.5 * (a * a + b * b) / prior_scale ** 2
    return ll


def frozen_train_nshmm(obs, n_states, n_symbols, d_max, seed, n_iter=300, burn_in=100,
                       flat_dwell=False, proposal_scale=0.3, prior_scale=3.0):
    """M9's Metropolis-within-Gibbs fit as it was before its sweep was
    batched: per-row ``rng.dirichlet`` calls, one Metropolis step per
    state in turn, and the frozen forward filter and backward sampler.
    Returns ((initial, switch, emission, stay_profile), info), which the
    library's ``train_nshmm`` must reproduce bit for bit."""
    obs = np.asarray(obs, dtype=np.int64)
    rng = _as_rng(seed)
    n, K, D = n_states, n_symbols, d_max
    offdiag = 1.0 - np.eye(n)
    dwell_grid = np.arange(1, D + 1, dtype=float)

    a = np.zeros(n)
    b = np.zeros(n)
    switch = rng.dirichlet(np.ones(n), size=n) * offdiag
    switch = switch / switch.sum(axis=1, keepdims=True)
    emission = rng.dirichlet(np.ones(K), size=n)
    initial = rng.dirichlet(np.ones(n))

    profile = expit(a[:, None] + b[:, None] * dwell_grid[None, :])
    sums = [np.zeros(n), np.zeros((n, n)), np.zeros((n, K)), np.zeros((n, D))]
    accepted = 0
    for it in range(n_iter):
        params = types.SimpleNamespace(initial=initial, switch=switch, emission=emission,
                                       stay_profile=profile)
        path, dwell = frozen_nshmm_ffbs(params, obs, rng)

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

        prev_dwell = dwell[:-1] + 1.0
        stays = ~moves
        prev_state = path[:-1]
        for i in range(n):
            sel = prev_state == i
            dw, st = prev_dwell[sel], stays[sel]
            cur = _frozen_dwell_loglik(a[i], b[i], dw, st, prior_scale)
            a_prop = a[i] + proposal_scale * rng.standard_normal()
            b_prop = b[i] if flat_dwell else b[i] + proposal_scale * rng.standard_normal()
            prop = _frozen_dwell_loglik(a_prop, b_prop, dw, st, prior_scale)
            if np.log(rng.random()) < prop - cur:
                a[i], b[i] = a_prop, b_prop
                accepted += 1
        profile = expit(a[:, None] + b[:, None] * dwell_grid[None, :])

        if it >= burn_in:
            for total, draw in zip(sums, (initial, switch, emission, profile)):
                total += draw

    n_kept = n_iter - max(burn_in, 0)
    info = {"acceptance_rate": accepted / (n_iter * n), "iterations": n_iter,
            "burn_in": burn_in, "kept_draws": n_kept,
            "seed": seed if isinstance(seed, int) else None}
    return tuple(total / n_kept for total in sums), info


def stepwise_tvar_log_marginal(y, order, state_discount, var_discount,
                               prior_scale=1.0, prior_df=1.0, prior_obs_var=1.0):
    """The discount filter's log marginal as a running sum of one scalar
    Student-t log density per step, added left to right."""
    d = order
    m = np.zeros(d)
    C = np.eye(d) * prior_scale
    n_dof, s_est = float(prior_df), float(prior_obs_var)
    log_marginal = 0.0
    for i, t in enumerate(range(d, len(y))):
        F = y[t - d:t][::-1]
        R = C / state_discount
        n_prior = var_discount * n_dof
        q = F @ R @ F + s_est
        if not np.isfinite(q) or q <= 0:
            raise FloatingPointError(f"numerically singular update at step {i}")
        e = y[t] - F @ m
        log_marginal += stats.t.logpdf(e, df=n_prior, scale=np.sqrt(q))
        A = (R @ F) / q
        m = m + A * e
        n_dof = n_prior + 1.0
        s_new = (n_prior * s_est + s_est * e * e / q) / n_dof
        C = (s_new / s_est) * (R - np.outer(A, A) * q)
        C = 0.5 * (C + C.T)
        s_est = s_new
    return float(log_marginal)


def _draw_from(cumulative, u):
    """Inverse-cdf draw from a cumulative row, clipped to its last entry."""
    return min(int(np.searchsorted(cumulative, u, side="right")), len(cumulative) - 1)


def _as_rng(seed):
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def stepwise_hmm_sample(params, length, seed):
    """First-order ancestral sampling, one state and one symbol per step:
    z_1 ~ pi, z_t ~ transition row, x_t ~ emission row, with step t using
    uniforms 2t and 2t + 1 of one block."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = _as_rng(seed)
    cum_init = np.cumsum(params.initial)
    cum_trans = np.cumsum(params.transition, axis=1)
    cum_emis = np.cumsum(params.emission, axis=1)
    u = rng.random(2 * length)
    obs = np.empty(length, dtype=np.int64)
    z = _draw_from(cum_init, u[0])
    obs[0] = _draw_from(cum_emis[z], u[1])
    for t in range(1, length):
        z = _draw_from(cum_trans[z], u[2 * t])
        obs[t] = _draw_from(cum_emis[z], u[2 * t + 1])
    return obs


def stepwise_khmm_sample(params, length, seed):
    """Order-k ancestral sampling with one scalar uniform per draw: the
    first k states from pi and the init tables, each later state from the
    transition row of the tuple of the previous k states."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.default_rng(seed)
    n, k = params.n_states, params.order
    cum_init = np.cumsum(params.initial)
    cum_inits = [np.cumsum(t, axis=1) for t in params.init_transitions]
    cum_trans = np.cumsum(params.transition, axis=1)
    cum_emis = np.cumsum(params.emission, axis=1)
    obs = np.empty(length, dtype=np.int64)
    z = _draw_from(cum_init, rng.random())
    obs[0] = _draw_from(cum_emis[z], rng.random())
    prefix = z
    for i in range(1, min(k, length)):
        z = _draw_from(cum_inits[i - 1][prefix], rng.random())
        obs[i] = _draw_from(cum_emis[z], rng.random())
        prefix = prefix * n + z
    tup = prefix
    P = n ** k
    for t in range(k, length):
        z = _draw_from(cum_trans[tup], rng.random())
        obs[t] = _draw_from(cum_emis[z], rng.random())
        tup = (tup % (P // n)) * n + z
    return obs


def stepwise_lhmm_sample(params, length, seed):
    """Top-down layered sampling on one generator: the top layer as a
    first-order chain, then each lower layer emits one symbol per symbol
    of the layer above, drawing its length uniforms after the layer above."""
    rng = np.random.default_rng(seed)
    seq = stepwise_hmm_sample(params.layers[-1], length, rng)
    for layer in reversed(params.layers[:-1]):
        cum_emis = np.cumsum(layer.emission, axis=1)
        u = rng.random(length)
        seq = np.array([_draw_from(cum_emis[s], u[t]) for t, s in enumerate(seq)],
                       dtype=np.int64)
    return seq


def stepwise_arhmm_sample(params, length, seed):
    """Ancestral sampling threading the previous emitted symbol, one scalar
    uniform per draw, with a searchsorted draw per step."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = _as_rng(seed)
    cum_init = np.cumsum(params.initial)
    cum_trans = np.cumsum(params.transition, axis=1)
    cum_emis = np.cumsum(params.emission, axis=2)
    cum_init_emis = np.cumsum(params.init_emission, axis=1)
    obs = np.empty(length, dtype=np.int64)
    z = _draw_from(cum_init, rng.random())
    obs[0] = _draw_from(cum_init_emis[z], rng.random())
    for t in range(1, length):
        z = _draw_from(cum_trans[z], rng.random())
        obs[t] = _draw_from(cum_emis[z, obs[t - 1]], rng.random())
    return obs


def stepwise_hsmm_sample(params, length, seed):
    """Dwell-explicit sampling, one scalar uniform per draw: a state, its
    dwell, one symbol per step of the dwell, then the next state; the last
    dwell may overshoot and is truncated."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = _as_rng(seed)
    cum_init = np.cumsum(params.initial)
    cum_trans = np.cumsum(params.transition, axis=1)
    cum_dur = np.cumsum(params.duration, axis=1)
    cum_emis = np.cumsum(params.emission, axis=1)
    obs = np.empty(length, dtype=np.int64)
    t = 0
    z = _draw_from(cum_init, rng.random())
    while t < length:
        d = _draw_from(cum_dur[z], rng.random()) + 1
        for _ in range(d):
            if t >= length:
                break
            obs[t] = _draw_from(cum_emis[z], rng.random())
            t += 1
        z = _draw_from(cum_trans[z], rng.random())
    return obs


def stepwise_nshmm_sample(params, length, seed):
    """Ancestral sampling threading the dwell counter, one scalar uniform
    per draw: stay or switch, then the symbol."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = _as_rng(seed)
    n, D = params.n_states, params.d_max
    cum_init = np.cumsum(params.initial)
    cum_switch = np.cumsum(params.switch, axis=1)
    cum_emis = np.cumsum(params.emission, axis=1)
    obs = np.empty(length, dtype=np.int64)
    z = _draw_from(cum_init, rng.random())
    d = 0
    obs[0] = _draw_from(cum_emis[z], rng.random())
    for t in range(1, length):
        if rng.random() < params.stay_profile[z, d]:
            d = min(d + 1, D - 1)
        else:
            z = _draw_from(cum_switch[z], rng.random())
            d = 0
        obs[t] = _draw_from(cum_emis[z], rng.random())
    return obs


def stepwise_tvar_sample(fit, length, seed):
    """TVAR backward sampling with the discount covariance built at every
    step, then a forward simulation that rebuilds its list of lags, newest
    first, at every step."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = _as_rng(seed)
    d, steps, delta = fit.order, fit.n_steps, fit.state_discount
    v = fit.s[-1] * fit.dof[-1] / rng.chisquare(fit.dof[-1])
    theta = np.empty((steps, d))
    theta[-1] = rng.multivariate_normal(fit.coeff_means[-1], fit.coeff_covs[-1] * (v / fit.s[-1]),
                                        method="svd", check_valid="raise")
    for t in range(steps - 2, -1, -1):
        mean = fit.coeff_means[t] + delta * (theta[t + 1] - fit.coeff_means[t])
        cov = (1.0 - delta) * fit.coeff_covs[t] * (v / fit.s[t])
        theta[t] = mean if delta >= 1.0 else rng.multivariate_normal(
            mean, cov, method="svd", check_valid="raise")
    lags = list(fit.series[:d][::-1])
    out = np.empty(length)
    sd_noise = np.sqrt(v)
    eps = rng.standard_normal(length)
    for t in range(length):
        x = float(theta[min(t, steps - 1)] @ np.asarray(lags)) + sd_noise * eps[t]
        out[t] = x
        lags = [x] + lags[:-1]
    return out


def frozen_masked_dirichlet(rng, mask):
    """Flat-Dirichlet rows restricted to mask's nonzero entries and renormalised."""
    rows = rng.dirichlet(np.ones(mask.shape[1]), size=mask.shape[0]) * mask
    return rows / rows.sum(axis=1, keepdims=True)


def frozen_emit_midi_csv(seq, note_duration):
    """The MIDI-CSV emitter with each event's note position in its sort key."""
    events = []  # (time, order, record); offs sort before ons at equal ticks
    for pos, (pitch, time) in enumerate(zip(seq.pitches, seq.timestamps)):
        events.append((int(time), 1, pos, f"1, {int(time)}, Note_on_c, 0, {int(pitch)}, 80"))
        off = int(time) + note_duration
        events.append((off, 0, pos, f"1, {off}, Note_off_c, 0, {int(pitch)}, 0"))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    end = events[-1][0]
    lines = [
        f"0, 0, Header, 1, 1, {seq.ticks_per_quarter}",
        "1, 0, Start_track",
        "1, 0, Tempo, 500000",
    ]
    lines.extend(e[3] for e in events)
    lines.append(f"1, {end}, End_track")
    lines.append(f"0, {end}, End_of_file")
    return "\n".join(lines) + "\n"


def frozen_khmm_em_step(params, obs, masks):
    """KHMM's EM step with the initial distribution summed from the first
    tuple posterior on its own.  The E-step and the row and emission rules
    are the library's; returns (new_params, log_likelihood)."""
    from sscompose.hmm import _emission_counts, _normalized, _posteriors
    from sscompose.variants import KhmmParams

    n, k = params.n_states, params.order
    K = params.n_symbols
    loglik, alpha, right, gamma = _posteriors(*params.chain(obs))
    T_emb, P = gamma.shape
    counts = np.einsum("tab,tbz->abz", alpha[:-1].reshape(T_emb - 1, n, P // n),
                       right.reshape(T_emb - 1, P // n, n), optimize=True).reshape(P, n)
    transition = _normalized(params.transition * counts, masks[-1])
    g0 = gamma[0].reshape((n,) * k)
    initial = g0.reshape(n, -1).sum(axis=1) if k > 1 else g0.copy()
    init_transitions = [
        _normalized(g0.reshape((n ** i, -1)).sum(axis=1).reshape(n ** (i - 1), n), mask)
        for i, mask in enumerate(masks[:-1], start=2)]
    firsts = [g0.sum(axis=tuple(a for a in range(k) if a != i)) for i in range(k)]
    lasts = gamma[1:].reshape(T_emb - 1, P // n, n).sum(axis=1)
    emission = _normalized(_emission_counts(obs, np.vstack([*firsts, lasts]), K))
    return KhmmParams(k, n, initial, init_transitions, transition, emission), loglik


def frozen_khmm_first_step(params, obs):
    """The first embedded step's joint emission of x_1..x_k, one symbol at a time."""
    first = params.emission[:, obs[0]]
    for i in range(1, params.order):
        first = (first[:, None] * params.emission[:, obs[i]][None, :]).ravel()
    return first


def frozen_write_csv(path, header, rows):
    """The CSV writer, one write per line; every float cell is repr(float(v))."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                              else str(v) for v in row) + "\n")
    return path
