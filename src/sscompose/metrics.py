"""Evaluation metrics: originality (entropy, mutual information, edit
distance), musicality (dissonance, large intervals, pitch distribution)
and temporal structure (ACF/PACF), plus the RMSE aggregation used to
rank batches of generated pieces against their training piece.

All entropies and mutual informations are in nats.  Melodic lines are
extracted per timestamp: treble = highest pitch, bass = lowest pitch.

A batch is scored in one pass where every piece meets the same training
piece: all its pieces share one packed edit-distance automaton, with the
training piece as the text (`levenshtein_batch`; Hyyrö, Fredriksson &
Navarro 2005, JEA 10), and the ACF/PACF of its equal-length pieces are
computed as stacked rows (`acf_pacf_rows`).  Both give each piece the
exact values of scoring it alone.
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
    """H = -sum p_k ln p_k over the piece's pitch relative frequencies."""
    pitches = np.asarray(pitches)
    if pitches.size == 0:
        raise ValueError("cannot compute the entropy of an empty sequence")
    _, counts = np.unique(pitches, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def mutual_information(train_pitches, gen_pitches):
    """Plug-in MI of the aligned pairs (x_t, y_t) over the shared prefix."""
    x = np.asarray(train_pitches)
    y = np.asarray(gen_pitches)
    if x.size == 0 or y.size == 0:
        raise ValueError("cannot compute mutual information with an empty sequence")
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
    2005, JEA 10): each non-empty pattern has its own slot of len + c
    bits in one Python int, c = bit_length(len(text)) + 1.  The zero bits
    above a pattern absorb the carry of the addition, so no slot reads
    another's, and leave room for the slot's two score counters, which
    tally the +1 and -1 horizontal deltas of the pattern's last row.
    """
    text = np.asarray(text)
    patterns = [np.asarray(p) for p in patterns]
    n = len(text)
    distances = [n] * len(patterns)       # an empty pattern is n insertions away
    slots = [i for i, p in enumerate(patterns) if len(p)]
    if not slots:
        return distances
    c = n.bit_length() + 1
    lengths = np.array([len(patterns[i]) for i in slots])
    starts = np.cumsum(lengths + c) - (lengths + c)
    # one code per symbol of text or patterns; guard bits hold -1, which matches nothing
    flat = np.concatenate([patterns[i] for i in slots])
    _, codes = np.unique(np.concatenate([text, flat]), return_inverse=True)
    layout = np.full(len(flat) + c * len(slots), -1)
    layout[np.arange(len(flat)) + c * np.repeat(np.arange(len(slots)), lengths)] = codes[n:]
    text_codes = codes[:n].tolist()
    peq = {k: int.from_bytes(np.packbits(layout == k, bitorder="little").tobytes(), "little")
           for k in set(text_codes)}
    mask = lows = tops = 0
    for start, m in zip(starts.tolist(), lengths.tolist()):
        mask |= ((1 << m) - 1) << start
        lows |= 1 << start
        tops |= 1 << (start + m - 1)
    pv, mv, plus, minus = mask, 0, 0, 0
    for k in text_codes:
        eq = peq[k]
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        plus += ph & tops
        minus += mh & tops
        ph = (ph << 1) | lows    # row 0 of each table grows by one per symbol
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv & mask
    counter = (1 << c) - 1
    for i, start, m in zip(slots, starts.tolist(), lengths.tolist()):
        top = start + m - 1
        distances[i] = m + ((plus >> top) & counter) - ((minus >> top) & counter)
    return distances


def edit_distance(a, b):
    """Levenshtein distance normalized by max length; empty vs empty is 0."""
    a = np.asarray(a)
    b = np.asarray(b)
    denom = max(len(a), len(b))
    if denom == 0:
        return 0.0
    return levenshtein(a, b) / denom


# ---------------------------------------------------------------------------
# musicality


def _lines(seq):
    """Per-timestamp treble (max) and bass (min) pitches, in time order,
    and the chords: the pitches of each timestamp with two or more notes,
    in input order.  Single notes form no within-timestamp pair, so the
    harmonic metrics only need the chords."""
    order = np.argsort(seq.timestamps, kind="stable")
    times = np.asarray(seq.timestamps)[order]
    pitches = np.asarray(seq.pitches, dtype=np.int64)[order]
    if len(pitches) == 0:
        return pitches, pitches, []
    starts = np.flatnonzero(np.r_[True, times[1:] != times[:-1]])
    treble = np.maximum.reduceat(pitches, starts)
    bass = np.minimum.reduceat(pitches, starts)
    ends = np.r_[starts[1:], len(pitches)]
    multi = ends - starts > 1
    chords = [pitches[s:e] for s, e in zip(starts[multi].tolist(), ends[multi].tolist())]
    return treble, bass, chords


def _chord_interval_classes(chords):
    """Simple interval classes (mod 12) of every note pair within each chord,
    chord by chord."""
    pairs = [np.abs(chunk[:, None] - chunk[None, :])[np.triu_indices(len(chunk), 1)]
             for chunk in chords]
    return np.concatenate(pairs) % OCTAVE if pairs else np.zeros(0, dtype=np.int64)


def dissonance_rate(seq):
    """Dissonant harmonic pairs within chords plus dissonant melodic steps of
    the treble line, normalized by the total note count."""
    if len(seq) == 0:
        raise ValueError("empty sequence")
    treble, _, chords = _lines(seq)
    classes = np.concatenate([_chord_interval_classes(chords), np.abs(np.diff(treble)) % OCTAVE])
    return int(np.isin(classes, list(DISSONANT_CLASSES)).sum()) / len(seq)


def large_interval_rate(seq):
    """Jumps of more than an octave in the treble and bass lines,
    normalized by the total note count."""
    if len(seq) == 0:
        raise ValueError("empty sequence")
    treble, bass, _ = _lines(seq)
    count = 0
    if len(treble) > 1:
        count += int((np.abs(np.diff(treble)) > OCTAVE).sum())
        # skip bass steps identical to the treble step (monophonic stretches),
        # so a single-line jump is counted once
        distinct = (bass[:-1] != treble[:-1]) | (bass[1:] != treble[1:])
        count += int(((np.abs(np.diff(bass)) > OCTAVE) & distinct).sum())
    return count / len(seq)


def pitch_histogram(pitches, union_symbols):
    """Relative pitch frequencies over a union alphabet (zeros when absent)."""
    pitches = np.asarray(pitches)
    if pitches.size == 0:
        raise ValueError("empty sequence")
    idx = PitchAlphabet(union_symbols).to_indices(pitches)
    hist = np.bincount(idx, minlength=len(union_symbols)).astype(float)
    return hist / hist.sum()


def interval_class_table(seq, mode):
    """Fractions of simple intervals that are thirds, perfect fourths/fifths
    and dissonant.  Harmonic mode pairs all notes within a chord; melodic
    mode steps along the treble and bass lines."""
    if mode not in ("harmonic", "melodic"):
        raise ValueError("mode must be 'harmonic' or 'melodic'")
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
    """sqrt((1/n) sum (y_i - y_0)^2)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("rmse of an empty list is undefined")
    return float(np.sqrt(np.mean((values - reference) ** 2)))


def metric_vectors(pieces, union_symbols, max_lag=DEFAULT_MAX_LAG):
    """The MetricVector of each piece; its ACF/PACF are None when
    undefined.  The ACF/PACF of the pieces of each length are one
    `acf_pacf_rows` stack."""
    curves = [(None, None)] * len(pieces)
    by_length = {}
    for i, seq in enumerate(pieces):
        by_length.setdefault(len(seq), []).append(i)
    for members in by_length.values():
        try:
            acf, pacf, errors = acf_pacf_rows([pieces[i].pitches for i in members], max_lag)
        except ValueError:      # too short for max_lag lags, or max_lag < 1
            continue
        for i, row_acf, row_pacf, error in zip(members, acf, pacf, errors):
            if error is None:
                curves[i] = row_acf, row_pacf
    return [MetricVector(
        entropy=empirical_entropy(seq.pitches),
        dissonance_rate=dissonance_rate(seq),
        large_interval_rate=large_interval_rate(seq),
        pitch_histogram=pitch_histogram(seq.pitches, union_symbols),
        acf=acf,
        pacf=pacf,
    ) for seq, (acf, pacf) in zip(pieces, curves)]


def _scores(vectors, pairs, ref):
    """The ten EvaluationReport scores, by field name, of the metric vectors
    and PairMetrics of some pieces against the training piece's vector ref.

    Each RMSE is `rmse` over the stacked per-piece values, so the
    note-count and ACF/PACF RMSEs pool over (piece x pitch) and
    (piece x lag) cells; MI and edit distance are means.  Pieces whose ACF
    is undefined are left out of the temporal pooling; with none left the
    temporal scores are NaN.
    """
    timed = [mv for mv in vectors if mv.acf is not None]

    def pooled(name, pieces):
        if not pieces:
            return float("nan")
        return rmse([getattr(mv, name) for mv in pieces], getattr(ref, name))

    scores = {
        "entropy_rmse": pooled("entropy", vectors),
        "mutual_information_mean": float(np.mean([pm.mutual_information for pm in pairs])),
        "edit_distance_mean": float(np.mean([pm.edit_distance_normalized for pm in pairs])),
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


def evaluate_batch(train_seq, batch):
    """Score a batch of generated pieces against the training piece
    (`_scores` over every piece).  Pieces whose ACF is undefined are listed
    in `skipped`."""
    if len(batch) < 1:
        raise ValueError("batch must contain at least one piece")
    max_lag = min(DEFAULT_MAX_LAG, len(train_seq) - 2)
    union = np.unique(np.concatenate([np.asarray(train_seq.pitches)]
                                     + [np.asarray(g.pitches) for g in batch]))
    ref, *vectors = metric_vectors([train_seq, *batch], union, max_lag)
    if ref.acf is None:
        raise ValueError("training piece has undefined ACF (constant or too short)")

    distances = levenshtein_batch(train_seq.pitches, [piece.pitches for piece in batch])
    pairs = [PairMetrics(mutual_information(train_seq.pitches, piece.pitches),
                         d / max(len(train_seq), len(piece)))
             for piece, d in zip(batch, distances)]
    return EvaluationReport(
        **_scores(vectors, pairs, ref),
        per_piece=list(zip(vectors, pairs)),
        skipped=[(i, "undefined ACF (constant or too-short piece)")
                 for i, mv in enumerate(vectors) if mv.acf is None],
        training_metrics=ref,
    )


def piece_scores(report):
    """Per-piece scores used for top-piece selection, one row per piece:
    each piece scored alone by `_scores`, as a batch of one.  A piece
    whose ACF is undefined gets temporal-avg inf, so it ranks last."""
    columns = {**CRITERIA, "mutual_information": "mutual_information_mean",
               "edit_distance": "edit_distance_mean"}
    rows = []
    for i, (mv, pm) in enumerate(report.per_piece):
        scores = _scores([mv], [pm], report.training_metrics)
        rows.append({"piece": i, **{key: scores[name] for key, name in columns.items()}})
        if mv.acf is None:
            rows[-1]["temporal-avg"] = float("inf")
    return rows
