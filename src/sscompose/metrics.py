"""Evaluation metrics: originality (entropy, mutual information, edit
distance), musicality (dissonance, large intervals, pitch distribution)
and temporal structure (ACF/PACF), plus the RMSE aggregation used to
rank batches of generated pieces against their training piece.

All entropies and mutual informations are in nats.  Melodic lines are
extracted per timestamp: treble = highest pitch, bass = lowest pitch.

A batch is scored as stacks, in one pass where every piece meets the
same training piece: all its pieces share one packed edit-distance
automaton, with the training piece as the text (`levenshtein_batch`;
Hyyrö, Fredriksson & Navarro 2005, JEA 10); the ACF/PACF of its
equal-length pieces are stacked rows (`acf_pacf_rows`); histograms and
entropies read one (piece, pitch) count matrix (`_pitch_counts`); the
treble and bass lines of all pieces come from one sort
(`_musicality_rows`); each piece's MI counts are its own sub-joint; and
the per-piece scores are per-row RMSEs (`piece_scores`).  Each
per-piece function is the one-row case of its stacked form, and every
piece gets the exact values of scoring it alone; only `_pitch_counts`,
`_musicality_rows` and `interval_class_table` reject an empty piece.
Pieces are numbered by their index in the batch; the command line
reports the position of each piece in its batch.json `pieces` list.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .midi_codec import PitchAlphabet

DISSONANT_CLASSES = frozenset({1, 2, 10, 11})   # minor/major second, minor/major seventh
THIRD_CLASSES = frozenset({3, 4})
FOURTH_FIFTH_CLASSES = frozenset({5, 7})
OCTAVE = 12
DEFAULT_MAX_LAG = 40
# ranking criterion -> the EvaluationReport field it reads
CRITERIA = {"entropy-rmse": "entropy_rmse",
            "musicality-avg": "musicality_average",
            "temporal-avg": "temporal_average"}


def criterion_field(name):
    """The EvaluationReport field a ranking criterion reads."""
    if name not in CRITERIA:
        raise ValueError(f"unknown criterion {name!r}; valid: {sorted(CRITERIA)}")
    return CRITERIA[name]


@dataclass
class MetricVector:
    entropy: float
    dissonance_rate: float
    large_interval_rate: float
    pitch_histogram: np.ndarray
    acf: np.ndarray | None
    pacf: np.ndarray | None


@dataclass
class PairMetrics:
    mutual_information: float
    edit_distance_normalized: float


@dataclass
class EvaluationReport:
    # the batch scores, in the order metrics.csv and report.json list them
    entropy_rmse: float
    mutual_information_mean: float
    edit_distance_mean: float
    dissonance_rmse: float
    large_interval_rmse: float
    note_count_rmse: float
    acf_rmse: float
    pacf_rmse: float
    musicality_average: float
    temporal_average: float
    per_piece: list = field(default_factory=list)      # (MetricVector, PairMetrics)
    skipped: list = field(default_factory=list)        # (index, reason) pairs
    training_metrics: MetricVector | None = None

    def criterion(self, name):
        return getattr(self, criterion_field(name))

    def summary(self):
        """The batch scores by name, in file order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.type == "float"}


# ---------------------------------------------------------------------------
# originality


def empirical_entropy(pitches):
    """H = -sum p_k ln p_k over the piece's pitch relative frequencies: the
    one-row case of `_entropy_rows`."""
    return float(_entropy_rows(_pitch_counts([pitches], np.unique(pitches)))[0])


def _entropy_rows(counts):
    """The entropy of each row of a (P, U) count matrix, from its nonzero
    counts.  The rows with k nonzero counts form one (n, k) stack, so each
    row is reduced along its own contiguous axis of length k, as a lone
    row would be, and gets the same value bit for bit."""
    entropy = np.empty(len(counts))
    present = counts > 0
    for rows in _groups(present.sum(axis=1)):
        c = counts[rows][present[rows]].reshape(len(rows), -1)
        p = c / c.sum(axis=1, keepdims=True)
        entropy[rows] = -(p * np.log(p)).sum(axis=1)
    return entropy


def _groups(keys):
    """The indices of the entries of each distinct key, by ascending key."""
    keys = np.asarray(keys)
    return [np.flatnonzero(keys == k) for k in np.unique(keys).tolist()]


def mutual_information(train_pitches, gen_pitches):
    """Plug-in MI of the aligned pairs (x_t, y_t) over the shared prefix:
    the one-row case of `_mutual_information_rows`."""
    return float(_mutual_information_rows(train_pitches, [gen_pitches])[0])


def _mutual_information_rows(train_pitches, rows):
    """`mutual_information` of the training piece against each row.  Each
    row's pair counts are its own dense, C-ordered (X, Y) sub-joint over
    the X distinct pitches of the training prefix and the row's Y distinct
    pitches, one bincount of their codes, so its value does not depend on
    the other rows.  The training codes are found once per prefix length."""
    x = np.asarray(train_pitches)
    rows = [np.asarray(r) for r in rows]
    if x.size == 0 or any(r.size == 0 for r in rows):
        raise ValueError("cannot compute mutual information with an empty sequence")
    prefixes = {n: np.unique(x[:n], return_inverse=True)
                for n in {min(len(r), len(x)) for r in rows}}
    mi = np.empty(len(rows))
    for i, r in enumerate(rows):
        n = min(len(r), len(x))
        xs, x_codes = prefixes[n]
        ys, y_codes = np.unique(r[:n], return_inverse=True)
        joint = np.bincount(x_codes * len(ys) + y_codes,
                            minlength=len(xs) * len(ys)).reshape(len(xs), -1) / n
        px = joint.sum(axis=1)
        py = joint.sum(axis=0)
        nz = joint > 0
        ratio = joint[nz] / (np.outer(px, py)[nz])
        mi[i] = (joint[nz] * np.log(ratio)).sum()
    return mi


def levenshtein(a, b):
    """Unit-cost edit distance (insertions, deletions, substitutions): the
    one-pattern case of `levenshtein_batch`, with the longer sequence as
    the text."""
    if len(b) > len(a):
        a, b = b, a
    return levenshtein_batch(a, [b])[0]


def levenshtein_batch(text, patterns):
    """Unit-cost edit distance of each pattern against one shared text.

    Myers' bit-vector algorithm (Myers 1999, JACM 46; in Hyyrö's form for
    global distance) holds one column of the DP table as two bit vectors
    of +1 and -1 vertical deltas over the pattern, and each text symbol
    updates them in a constant number of word operations.  Every pattern
    of a batch runs in the same automaton (Hyyrö, Fredriksson & Navarro
    2005, JEA 10): each non-empty pattern has its own slot of len + 1
    bits in one Python int.  The zero guard bit above a pattern absorbs
    the carry of the addition, so no slot reads another's.  After the
    whole text the vectors hold the table's final column, whose top cell
    D[0][n] is n, so a pattern's distance D[m][n] is n plus the number of
    +1 deltas in its slot minus the number of -1 deltas.
    Every vector is kept to the pattern bits (`mask`), with ~y written as
    mask ^ (y & mask), so no int goes negative: CPython's bitwise
    operations on negative ints take a slow two's-complement path.
    """
    text = np.asarray(text)
    patterns = [np.asarray(p) for p in patterns]
    n = len(text)
    distances = [n] * len(patterns)       # an empty pattern is n insertions away
    slots = [i for i, p in enumerate(patterns) if len(p)]
    if not slots:
        return distances
    lengths = np.array([len(patterns[i]) for i in slots])
    starts = np.cumsum(lengths + 1) - (lengths + 1)
    # one code per symbol of text or patterns; guard bits hold -1, which matches nothing
    flat = np.concatenate([patterns[i] for i in slots])
    _, codes = np.unique(np.concatenate([text, flat]), return_inverse=True)
    layout = np.full(len(flat) + len(slots), -1)
    layout[np.arange(len(flat)) + np.repeat(np.arange(len(slots)), lengths)] = codes[n:]
    text_codes = codes[:n].tolist()
    peq = {k: int.from_bytes(np.packbits(layout == k, bitorder="little").tobytes(), "little")
           for k in set(text_codes)}
    mask = lows = 0
    for start, m in zip(starts.tolist(), lengths.tolist()):
        mask |= ((1 << m) - 1) << start
        lows |= 1 << start
    pv, mv = mask, 0
    for k in text_codes:
        eq = peq[k]
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq      # the carry may reach a guard bit
        ph = mv | (mask ^ ((xh | pv) & mask))
        mh = pv & xh
        ph = ((ph << 1) | lows) & mask    # row 0 of each table grows by one per symbol
        mh = (mh << 1) & mask
        pv = mh | (mask ^ (xv | ph))
        mv = ph & xv
    for i, start, m in zip(slots, starts.tolist(), lengths.tolist()):
        slot = (1 << m) - 1
        distances[i] = n + ((pv >> start) & slot).bit_count() - ((mv >> start) & slot).bit_count()
    return distances


def edit_distance(a, b):
    """Levenshtein distance normalized by max length; empty vs empty is 0."""
    return levenshtein(a, b) / max(len(a), len(b), 1)


# ---------------------------------------------------------------------------
# musicality


def _lines(seq):
    """Per-timestamp treble (max) and bass (min) pitches, in time order,
    and the chords: the pitches of each timestamp with two or more notes,
    in input order.  Single notes form no within-timestamp pair, so the
    harmonic metrics only need the chords.  The one-piece case of
    `_stacked_lines`."""
    treble, bass, _, chords, _ = _stacked_lines([seq])
    return treble, bass, chords


def _stacked_lines(pieces):
    """`_lines` of every piece at once: treble and bass of each (piece,
    timestamp) group, piece by piece, with each group's piece; the chords,
    and each chord's piece.  One stable lexsort orders the notes by piece,
    then time, keeping input order within a timestamp; no piece is empty."""
    owner = np.repeat(np.arange(len(pieces)), [len(seq) for seq in pieces])
    pitches = np.concatenate([np.asarray(seq.pitches, dtype=np.int64) for seq in pieces])
    times = np.concatenate([np.asarray(seq.timestamps) for seq in pieces])
    order = np.lexsort((times, owner))
    times, owner, pitches = times[order], owner[order], pitches[order]
    starts = np.flatnonzero(np.r_[True, (times[1:] != times[:-1]) | (owner[1:] != owner[:-1])])
    treble = np.maximum.reduceat(pitches, starts)
    bass = np.minimum.reduceat(pitches, starts)
    ends = np.r_[starts[1:], len(pitches)]
    multi = ends - starts > 1
    chords = [pitches[s:e] for s, e in zip(starts[multi].tolist(), ends[multi].tolist())]
    return treble, bass, owner[starts], chords, owner[starts[multi]]


def _chord_interval_classes(chords):
    """Simple interval classes (mod 12) of every note pair within each chord,
    chord by chord."""
    pairs = [np.abs(chunk[:, None] - chunk[None, :])[np.triu_indices(len(chunk), 1)]
             for chunk in chords]
    return np.concatenate(pairs) % OCTAVE if pairs else np.zeros(0, dtype=np.int64)


def dissonance_rate(seq):
    """Dissonant harmonic pairs within chords plus dissonant melodic steps of
    the treble line, normalized by the total note count: the one-piece case
    of `_musicality_rows`."""
    return float(_musicality_rows([seq])[0][0])


def large_interval_rate(seq):
    """Jumps of more than an octave in the treble and bass lines,
    normalized by the total note count: the one-piece case of
    `_musicality_rows`."""
    return float(_musicality_rows([seq])[1][0])


def _musicality_rows(pieces):
    """`dissonance_rate` and `large_interval_rate` of each piece, two (P,)
    arrays, from one `_stacked_lines` pass: each line step within a piece,
    and each chord pair, is counted for its piece by one bincount."""
    lengths = np.array([len(seq) for seq in pieces])
    if not lengths.all():
        raise ValueError("empty sequence")
    treble, bass, owner, chords, chord_owner = _stacked_lines(pieces)
    P = len(pieces)
    within = owner[1:] == owner[:-1]        # steps that stay inside one piece
    step_owner = owner[1:][within]
    treble_step = np.abs(np.diff(treble))[within]
    bass_step = np.abs(np.diff(bass))[within]
    # skip bass steps identical to the treble step (monophonic stretches),
    # so a single-line jump is counted once
    distinct = ((bass[:-1] != treble[:-1]) | (bass[1:] != treble[1:]))[within]
    pair_owner = np.repeat(chord_owner, [len(c) * (len(c) - 1) // 2 for c in chords])
    dissonant = list(DISSONANT_CLASSES)
    dissonances = (np.bincount(step_owner[np.isin(treble_step % OCTAVE, dissonant)], minlength=P)
                   + np.bincount(pair_owner[np.isin(_chord_interval_classes(chords), dissonant)],
                                 minlength=P))
    jumps = (np.bincount(step_owner[treble_step > OCTAVE], minlength=P)
             + np.bincount(step_owner[(bass_step > OCTAVE) & distinct], minlength=P))
    return dissonances / lengths, jumps / lengths


def pitch_histogram(pitches, union_symbols):
    """Relative pitch frequencies over a union alphabet (zeros when absent):
    the one-row case of dividing `_pitch_counts` by its row sums."""
    counts = _pitch_counts([pitches], union_symbols)
    return (counts / counts.sum(axis=1, keepdims=True))[0]


def _pitch_counts(rows, union_symbols):
    """(P, U) counts of each union symbol in each row of pitches, by one
    bincount; ValueError for an empty row, or naming the first non-member."""
    if any(len(r) == 0 for r in rows):
        raise ValueError("empty sequence")
    width = len(union_symbols)
    owner = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    idx = PitchAlphabet(union_symbols).to_indices(np.concatenate(rows))
    return np.bincount(owner * width + idx, minlength=len(rows) * width).reshape(-1, width)


def interval_class_table(seq, mode):
    """Fractions of simple intervals that are thirds, perfect fourths/fifths
    and dissonant.  Harmonic mode pairs all notes within a chord; melodic
    mode steps along the treble and bass lines."""
    if mode not in ("harmonic", "melodic"):
        raise ValueError("mode must be 'harmonic' or 'melodic'")
    if len(seq) == 0:
        raise ValueError("empty sequence")
    treble, bass, chords = _lines(seq)
    if mode == "harmonic":
        classes = _chord_interval_classes(chords)
    else:
        classes = np.abs(np.concatenate([np.diff(treble), np.diff(bass)])) % OCTAVE
    n = len(classes)
    if n == 0:
        raise ValueError(f"piece contains no {mode} intervals")
    return {
        "thirds": float(np.isin(classes, list(THIRD_CLASSES)).sum() / n),
        "fourths_fifths": float(np.isin(classes, list(FOURTH_FIFTH_CLASSES)).sum() / n),
        "dissonant": float(np.isin(classes, list(DISSONANT_CLASSES)).sum() / n),
    }


# ---------------------------------------------------------------------------
# temporal structure


def acf_pacf(values, max_lag=DEFAULT_MAX_LAG):
    """Sample ACF (biased 1/T autocovariances) at lags 1..max_lag and the
    PACF obtained from it by the Durbin-Levinson recursion: the one-row
    case of `acf_pacf_rows`, raising where that function flags the row."""
    acf, pacf, errors = acf_pacf_rows([values], max_lag)
    if errors[0]:
        raise ValueError(errors[0])
    return acf[0], pacf[0]


def acf_pacf_rows(rows, max_lag=DEFAULT_MAX_LAG):
    """`acf_pacf` of each row of an equal-length stack, computed at once:
    every autocovariance and every Durbin-Levinson dot product is one
    stacked (P, 1, n) @ (P, n, 1) matmul, which takes each row's dot
    product as the one-row case does, so each row's values are bit for bit
    its own.  Returns (acf, pacf, errors), acf and pacf of shape
    (P, max_lag); errors[i] is None, or why row i's correlations are
    undefined (zero variance, or a Durbin-Levinson breakdown), in which
    case its values are meaningless but no other row's are touched."""
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    x = np.array(rows, dtype=float)
    P, T = x.shape
    if T <= max_lag + 1:
        raise ValueError("sequence too short for the requested number of lags")
    errors = [None] * P

    def flag(bad, reason):
        for i in np.flatnonzero(bad).tolist():
            errors[i] = errors[i] or reason

    xc = x - x.mean(axis=1, keepdims=True)
    rho = np.empty((P, max_lag + 1))
    pacf = np.empty((P, max_lag))
    phi = np.zeros((P, max_lag + 1))
    with np.errstate(all="ignore"):     # a flagged row's inf and NaN stay in its row
        gamma0 = (xc[:, None, :] @ xc[:, :, None])[:, 0, 0] / T
        flag(gamma0 <= 0, "zero-variance sequence: correlation undefined")
        rho[:, 0] = 1.0
        for h in range(1, max_lag + 1):
            rho[:, h] = (xc[:, None, h:] @ xc[:, :-h, None])[:, 0, 0] / T / gamma0
        phi[:, 1] = rho[:, 1]
        pacf[:, 0] = rho[:, 1]
        denom = 1.0 - rho[:, 1] * rho[:, 1]
        for h in range(2, max_lag + 1):
            num = rho[:, h] - (phi[:, None, 1:h] @ rho[:, h - 1:0:-1, None])[:, 0, 0]
            flag(np.abs(denom) < 1e-300, f"Durbin-Levinson breakdown at lag {h}")
            phi_hh = num / denom
            phi[:, h] = phi_hh
            phi[:, 1:h] = phi[:, 1:h] - phi_hh[:, None] * phi[:, h - 1:0:-1]  # right side read first
            denom = denom * (1.0 - phi_hh * phi_hh)
            pacf[:, h - 1] = phi_hh
    return rho[:, 1:], pacf, errors


# ---------------------------------------------------------------------------
# aggregation


def rmse(values, reference):
    """sqrt((1/n) sum (y_i - y_0)^2): the one-row case of `_rmse_rows`."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("rmse of an empty list is undefined")
    return float(_rmse_rows(values, reference, 1)[0])


def _rmse_rows(values, reference, rows):
    """`rmse` of each of `rows` equal groups of consecutive stacked values
    against the reference, NaN for a stack of none.  Each group is one
    contiguous row of the reduction, summed as the group alone would be."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return np.full(rows, np.nan)
    return np.sqrt(np.mean(((values - reference) ** 2).reshape(rows, -1), axis=1))


def metric_vectors(pieces, max_lag=DEFAULT_MAX_LAG):
    """The MetricVector of each piece, its histogram over the union of the
    pieces' pitches; its ACF/PACF are None when undefined.  Every value
    comes from a stack over the pieces: the ACF/PACF of the pieces of each
    length are one `acf_pacf_rows` stack, the histograms and entropies read
    one `_pitch_counts` matrix, and the dissonance and large-interval rates
    one `_musicality_rows` pass."""
    rows = [np.asarray(seq.pitches) for seq in pieces]
    curves = [(None, None)] * len(pieces)
    for members in _groups([len(r) for r in rows]):
        try:
            acf, pacf, errors = acf_pacf_rows([rows[i] for i in members], max_lag)
        except ValueError:      # too short for max_lag lags, or max_lag < 1
            continue
        for i, row_acf, row_pacf, error in zip(members, acf, pacf, errors):
            if error is None:
                curves[i] = row_acf, row_pacf
    counts = _pitch_counts(rows, np.unique(np.concatenate(rows)))
    dissonance, jumps = _musicality_rows(pieces)
    return [MetricVector(
        entropy=entropy,
        dissonance_rate=rate,
        large_interval_rate=jump_rate,
        pitch_histogram=histogram,
        acf=acf,
        pacf=pacf,
    ) for entropy, rate, jump_rate, histogram, (acf, pacf) in zip(
        _entropy_rows(counts).tolist(), dissonance.tolist(), jumps.tolist(),
        counts / counts.sum(axis=1, keepdims=True), curves)]


def _scores(per_piece, ref, alone=False):
    """The ten EvaluationReport scores, by field name, of some pieces'
    (MetricVector, PairMetrics) pairs against the training piece's vector
    ref: one score for the whole batch, or with `alone` one per piece, as
    a batch of one would get it.  Each score is an array of those rows.

    Each RMSE is `_rmse_rows` over a row's stacked per-piece values, so the
    note-count and ACF/PACF RMSEs pool over (piece x pitch) and (piece x
    lag) cells; MI and edit distance are means.  A batch leaves the pieces
    whose ACF is undefined out of its temporal pooling, and with none left
    its temporal scores are NaN, as are those of such a piece alone.
    """
    vectors = [mv for mv, _ in per_piece]
    rows = len(vectors) if alone else 1
    if alone:
        undefined = np.full(len(ref.acf), np.nan)
        curves = [(undefined, undefined) if mv.acf is None else (mv.acf, mv.pacf)
                  for mv in vectors]
    else:
        curves = [(mv.acf, mv.pacf) for mv in vectors if mv.acf is not None]

    def mean(values):
        return np.mean(np.reshape(values, (rows, -1)), axis=1)

    def pooled(name):
        return _rmse_rows([getattr(mv, name) for mv in vectors], getattr(ref, name), rows)

    scores = {
        "entropy_rmse": pooled("entropy"),
        "mutual_information_mean": mean([pm.mutual_information for _, pm in per_piece]),
        "edit_distance_mean": mean([pm.edit_distance_normalized for _, pm in per_piece]),
        "dissonance_rmse": pooled("dissonance_rate"),
        "large_interval_rmse": pooled("large_interval_rate"),
        "note_count_rmse": pooled("pitch_histogram"),
        "acf_rmse": _rmse_rows([acf for acf, _ in curves], ref.acf, rows),
        "pacf_rmse": _rmse_rows([pacf for _, pacf in curves], ref.pacf, rows),
    }
    scores["musicality_average"] = mean(np.column_stack(
        [scores["dissonance_rmse"], scores["large_interval_rmse"], scores["note_count_rmse"]]))
    scores["temporal_average"] = mean(np.column_stack([scores["acf_rmse"], scores["pacf_rmse"]]))
    return scores


def evaluate_batch(train_seq, batch):
    """Score a batch of generated pieces against the training piece
    (`_scores` over every piece).  Pieces whose ACF is undefined are listed
    in `skipped`, by their index in the batch."""
    if len(batch) < 1:
        raise ValueError("batch must contain at least one piece")
    if len(train_seq) == 0:
        raise ValueError("training piece has no notes")
    max_lag = min(DEFAULT_MAX_LAG, len(train_seq) - 2)
    ref, *vectors = metric_vectors([train_seq, *batch], max_lag)
    if ref.acf is None:
        raise ValueError("training piece has undefined ACF (constant or too short)")

    patterns = [piece.pitches for piece in batch]
    distances = levenshtein_batch(train_seq.pitches, patterns)
    information = _mutual_information_rows(train_seq.pitches, patterns).tolist()
    pairs = [PairMetrics(mi, d / max(len(train_seq), len(piece)))
             for piece, mi, d in zip(batch, information, distances)]
    per_piece = list(zip(vectors, pairs))
    return EvaluationReport(
        **{name: float(score[0]) for name, score in _scores(per_piece, ref).items()},
        per_piece=per_piece,
        skipped=[(i, "undefined ACF (constant or too-short piece)")
                 for i, mv in enumerate(vectors) if mv.acf is None],
        training_metrics=ref,
    )


def piece_scores(report):
    """Per-piece scores used for top-piece selection, one row per piece, by
    its index in the batch: each piece scored alone by `_scores`, as a
    batch of one, all pieces in one stacked pass.  A piece whose ACF is
    undefined gets temporal-avg inf, so it ranks last."""
    columns = {**CRITERIA, "mutual_information": "mutual_information_mean",
               "edit_distance": "edit_distance_mean"}
    scores = _scores(report.per_piece, report.training_metrics, alone=True)
    scores["temporal_average"][[mv.acf is None for mv, _ in report.per_piece]] = np.inf
    table = zip(*(scores[name].tolist() for name in columns.values()))
    return [{"piece": i, **dict(zip(columns, values))} for i, values in enumerate(table)]
