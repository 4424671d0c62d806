import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (brute_edit_distance, per_group_lines, piecewise_dissonance_rate,
                     piecewise_entropy, piecewise_large_interval_rate,
                     piecewise_mutual_information, piecewise_piece_scores,
                     piecewise_pitch_histogram, piecewise_scores, rmse_compensated, rmse_naive,
                     rowwise_acf_pacf, rowwise_levenshtein)
from sscompose import metrics, registry
from sscompose.midi_codec import PitchSequence


def _melody(pitches, step=240):
    pitches = np.asarray(pitches)
    return PitchSequence(pitches, np.arange(len(pitches)) * step)


def test_entropy_constant_zero():
    assert metrics.empirical_entropy([60] * 10) == 0.0


def test_entropy_uniform():
    pitches = [50, 51, 52, 53] * 6
    assert metrics.empirical_entropy(pitches) == pytest.approx(np.log(4), abs=1e-12)


def test_entropy_bounds_and_relabel_invariance():
    rng = np.random.default_rng(0)
    pitches = rng.integers(40, 48, 100)
    h = metrics.empirical_entropy(pitches)
    assert 0.0 <= h <= np.log(8) + 1e-12
    relabeled = 100 - pitches  # a pitch permutation
    assert metrics.empirical_entropy(relabeled) == pytest.approx(h, abs=1e-12)


def test_entropy_empty_error():
    with pytest.raises(ValueError):
        metrics.empirical_entropy([])


@pytest.mark.parametrize("score,message", [
    (lambda: metrics.dissonance_rate(PitchSequence([], [])), "empty sequence"),
    (lambda: metrics.large_interval_rate(PitchSequence([], [])), "empty sequence"),
    (lambda: metrics.pitch_histogram([], [60]), "empty sequence"),
    (lambda: metrics.mutual_information([60, 62], []),
     "cannot compute mutual information with an empty sequence"),
    (lambda: metrics.evaluate_batch(PitchSequence([60, 62, 64], [0, 1, 2]), []),
     "batch must contain at least one piece"),
], ids=["dissonance", "large-interval", "histogram", "mutual-information", "empty-batch"])
def test_one_piece_metrics_reject_an_empty_piece(score, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        score()


def test_mi_self_equals_entropy():
    rng = np.random.default_rng(1)
    x = rng.integers(50, 58, 300)
    assert metrics.mutual_information(x, x) == pytest.approx(
        metrics.empirical_entropy(x), abs=1e-12)


def test_mi_constant_sequence_zero():
    rng = np.random.default_rng(2)
    x = rng.integers(50, 58, 100)
    assert metrics.mutual_information(x, [60] * 100) == pytest.approx(0.0, abs=1e-12)


def test_mi_independent_sequences_small():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 5, 10_000)
    y = rng.integers(0, 5, 10_000)
    assert 0.0 <= metrics.mutual_information(x, y) < 0.01


def test_mi_rows_memory_does_not_scale_with_pieces_times_pitches_squared():
    """1000 pieces of 500 notes over 88 pitches: a dense (piece, pitch,
    pitch) count tensor alone would take 1000 * 88 * 88 * 8 B = 59 MiB."""
    rng = np.random.default_rng(30)
    train = rng.integers(21, 109, 500)
    rows = list(rng.integers(21, 109, (1000, 500)))
    tracemalloc.start()
    try:
        metrics._mutual_information_rows(train, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_edit_distance_identity_and_empty():
    assert metrics.edit_distance([1, 2, 3], [1, 2, 3]) == 0.0
    assert metrics.edit_distance([], [5, 6, 7]) == 1.0
    assert metrics.edit_distance([], []) == 0.0


def test_edit_distance_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(60):
        a = rng.integers(0, 3, rng.integers(0, 9))
        b = rng.integers(0, 3, rng.integers(0, 9))
        assert metrics.levenshtein(a, b) == brute_edit_distance(a, b)


def test_edit_distance_metric_properties():
    rng = np.random.default_rng(5)
    for _ in range(40):
        a = rng.integers(0, 3, rng.integers(1, 7))
        b = rng.integers(0, 3, rng.integers(1, 7))
        c = rng.integers(0, 3, rng.integers(1, 7))
        dab = metrics.levenshtein(a, b)
        assert dab == metrics.levenshtein(b, a)
        assert (dab == 0) == (len(a) == len(b) and np.array_equal(a, b))
        assert dab <= metrics.levenshtein(a, c) + metrics.levenshtein(c, b)


def test_dissonance_minor_second():
    seq = _melody([60, 61])
    assert metrics.dissonance_rate(seq) == pytest.approx(0.5)


def test_dissonance_major_triad_zero():
    seq = PitchSequence([60, 64, 67], [0, 0, 0])
    assert metrics.dissonance_rate(seq) == 0.0


def test_dissonance_octave_consonant():
    assert metrics.dissonance_rate(_melody([60, 72])) == 0.0


def test_dissonance_harmonic_pairs_counted():
    # chord {60, 61, 62}: pairs (60,61), (61,62), (60,62) are all dissonant
    seq = PitchSequence([60, 61, 62], [0, 0, 0])
    assert metrics.dissonance_rate(seq) == pytest.approx(3 / 3)


def test_large_interval_boundary():
    assert metrics.large_interval_rate(_melody([60, 73])) == pytest.approx(0.5)
    assert metrics.large_interval_rate(_melody([60, 72])) == 0.0


def test_large_interval_bass_line():
    # 10 timestamps: static treble 80 over a bass alternating 48/62
    times = np.repeat(np.arange(10) * 240, 2)
    pitches = np.empty(20, dtype=np.int64)
    pitches[0::2] = 80
    pitches[1::2] = [48, 62] * 5
    seq = PitchSequence(pitches, times)
    assert metrics.large_interval_rate(seq) == pytest.approx(9 / 20)


def test_pitch_histogram_fig1():
    pitches = [50, 62, 66, 50, 50, 62, 66, 64, 67, 50, 50]
    hist = metrics.pitch_histogram(pitches, [50, 62, 64, 66, 67])
    assert hist[0] == pytest.approx(5 / 11, abs=1e-12)
    assert hist.sum() == pytest.approx(1.0, abs=1e-12)


def test_pitch_histogram_single_pitch():
    assert metrics.pitch_histogram([60, 60], [60]).tolist() == [1.0]


def test_pitch_histogram_union_membership():
    with pytest.raises(ValueError):
        metrics.pitch_histogram([60, 61], [60])


@pytest.mark.parametrize("pitches,offender", [
    ([60, 70, 50], 70),  # above every symbol
    ([64, 50, 70], 50),  # below every symbol
    ([62, 61, 70], 61),  # between two symbols
])
def test_pitch_histogram_names_the_first_pitch_outside_the_union(pitches, offender):
    with pytest.raises(ValueError, match=f"^pitch {offender} not in alphabet$"):
        metrics.pitch_histogram(pitches, [60, 62, 64])


def test_acf_pacf_ar1_pattern():
    rng = np.random.default_rng(6)
    x = np.zeros(5000)
    for t in range(1, 5000):
        x[t] = 0.8 * x[t - 1] + rng.standard_normal()
    acf, pacf = metrics.acf_pacf(x, 40)
    for h in range(1, 6):
        assert abs(acf[h - 1] - 0.8 ** h) < 0.05
    assert np.abs(pacf[1:]).max() < 0.05
    assert pacf[0] == acf[0]


def test_acf_bounded_and_periodic_peaks():
    x = np.tile([0.0, 1.0, 2.0, 1.0, 0.0], 50)
    acf, pacf = metrics.acf_pacf(x, 20)
    assert np.abs(acf).max() <= 1.0 + 1e-9
    assert np.abs(pacf).max() <= 1.0 + 1e-9
    # local maxima at multiples of the period (5)
    for lag in (5, 10, 15):
        idx = lag - 1
        assert acf[idx] > acf[idx - 1] and acf[idx] > acf[idx + 1]


def test_acf_errors():
    with pytest.raises(ValueError):
        metrics.acf_pacf([1.0] * 100, 10)  # zero variance
    with pytest.raises(ValueError):
        metrics.acf_pacf([1.0, 2.0, 3.0], 10)  # too short


@pytest.mark.parametrize("values,max_lag", [
    ([1.0] * 100, 10),           # zero variance
    ([1.0, 2.0, 3.0], 10),       # too short
    ([1.0, 2.0, 3.0, 4.0], 0),   # no lags
])
def test_acf_errors_are_the_per_row_loops(values, max_lag):
    with pytest.raises(ValueError) as want:
        rowwise_acf_pacf(values, max_lag)
    with pytest.raises(ValueError) as got:
        metrics.acf_pacf(values, max_lag)
    assert str(got.value) == str(want.value)


def _assert_rows_match_per_row_loop(rows, max_lag, acf, pacf):
    for row, row_acf, row_pacf in zip(rows, acf, pacf):
        want_acf, want_pacf = rowwise_acf_pacf(row, max_lag)
        assert np.array_equal(row_acf, want_acf) and np.array_equal(row_pacf, want_pacf)


def test_acf_pacf_rows_match_the_per_row_loop_bit_for_bit():
    rng = np.random.default_rng(23)
    for trial in range(80):
        T = int(rng.integers(3, 600))
        max_lag = int(rng.integers(1, min(metrics.DEFAULT_MAX_LAG, T - 2) + 1))
        shape = (int(rng.integers(1, 30)), T)
        if trial % 2:    # pitch rows, as pieces give them
            rows = rng.integers(40, 90, shape)
        else:
            rows = rng.normal(rng.normal(0, 100), 10.0 ** rng.uniform(-3, 3), shape)
        acf, pacf, errors = metrics.acf_pacf_rows(rows, max_lag)
        assert errors == [None] * shape[0]
        _assert_rows_match_per_row_loop(rows, max_lag, acf, pacf)


def test_acf_pacf_rows_flag_a_constant_row_and_leave_the_others_alone():
    rng = np.random.default_rng(24)
    rows = rng.integers(50, 70, (5, 120))
    rows[2] = 64
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # its 0/0 must not warn
        acf, pacf, errors = metrics.acf_pacf_rows(rows, 30)
    assert errors == [None, None, "zero-variance sequence: correlation undefined", None, None]
    kept = [0, 1, 3, 4]
    _assert_rows_match_per_row_loop(rows[kept], 30, acf[kept], pacf[kept])
    alone_acf, alone_pacf, _ = metrics.acf_pacf_rows(rows[kept], 30)
    assert np.array_equal(acf[kept], alone_acf) and np.array_equal(pacf[kept], alone_pacf)


def test_rmse_basics():
    assert metrics.rmse([2.0, 2.0, 2.0], 2.0) == 0.0
    assert metrics.rmse([1.0, 3.0], 2.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        metrics.rmse([], 0.0)


def test_rmse_dual_summation():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(1000) * 100
    ref = 3.7
    got = metrics.rmse(values, ref)
    assert abs(got - rmse_naive(values, ref)) < 1e-12
    assert abs(got - rmse_compensated(values, ref)) < 1e-12


def test_evaluate_batch_copies_all_zero():
    rng = np.random.default_rng(8)
    seq = _melody(rng.integers(50, 58, 200))
    report = metrics.evaluate_batch(seq, [seq, seq, seq])
    assert report.entropy_rmse == 0.0
    assert report.dissonance_rmse == 0.0
    assert report.large_interval_rmse == 0.0
    assert report.note_count_rmse == 0.0
    assert report.acf_rmse == 0.0
    assert report.pacf_rmse == 0.0
    assert report.edit_distance_mean == 0.0
    assert report.mutual_information_mean == pytest.approx(
        metrics.empirical_entropy(seq.pitches), abs=1e-12)


def test_evaluate_batch_single_piece_absolute_difference():
    rng = np.random.default_rng(9)
    train = _melody(rng.integers(50, 58, 200))
    gen = _melody(rng.integers(50, 58, 200))
    report = metrics.evaluate_batch(train, [gen])
    want = abs(metrics.empirical_entropy(gen.pitches)
               - metrics.empirical_entropy(train.pitches))
    assert report.entropy_rmse == pytest.approx(want, abs=1e-12)


def test_evaluate_batch_permutation_invariant():
    rng = np.random.default_rng(10)
    train = _melody(rng.integers(50, 58, 150))
    batch = [_melody(rng.integers(50, 58, 150)) for _ in range(6)]
    a = metrics.evaluate_batch(train, batch)
    b = metrics.evaluate_batch(train, batch[::-1])
    for field in ("entropy_rmse", "note_count_rmse", "acf_rmse", "pacf_rmse",
                  "musicality_average", "temporal_average",
                  "mutual_information_mean", "edit_distance_mean"):
        assert getattr(a, field) == pytest.approx(getattr(b, field), abs=1e-12)


def test_evaluate_batch_averages_are_means():
    rng = np.random.default_rng(11)
    train = _melody(rng.integers(50, 58, 150))
    batch = [_melody(rng.integers(50, 58, 150)) for _ in range(4)]
    r = metrics.evaluate_batch(train, batch)
    assert r.musicality_average == pytest.approx(np.mean(
        [r.dissonance_rmse, r.large_interval_rmse, r.note_count_rmse]), abs=1e-15)
    assert r.temporal_average == pytest.approx(np.mean([r.acf_rmse, r.pacf_rmse]),
                                               abs=1e-15)


def test_evaluate_batch_skips_constant_piece():
    rng = np.random.default_rng(12)
    train = _melody(rng.integers(50, 58, 150))
    constant = _melody([55] * 150)
    report = metrics.evaluate_batch(train, [train, constant])
    assert len(report.skipped) == 1
    assert report.skipped[0][0] == 1
    assert np.isfinite(report.acf_rmse)


def test_evaluate_batch_scores_each_piece_of_a_ragged_batch_as_alone():
    """Lengths mixed, a constant piece and pieces too short for the 40
    lags: every piece's vectors equal those of a batch of one.  Every piece
    draws from the training piece's pitches, so all batches share its
    pitch-histogram alphabet."""
    rng = np.random.default_rng(28)
    pitches = np.arange(50, 62)
    train = _melody(rng.choice(pitches, 300))
    lengths = [300, 120, 30, 300, 41, 42, 120, 500]
    batch = [_melody(rng.choice(pitches, n)) for n in lengths]
    batch[3] = _melody([55] * 300)
    report = metrics.evaluate_batch(train, batch)
    undefined = [2, 3, 4]       # 30 and 41 notes are too short for 40 lags
    assert report.skipped == [(i, "undefined ACF (constant or too-short piece)")
                              for i in undefined]
    for i, piece in enumerate(batch):
        (alone,) = metrics.evaluate_batch(train, [piece]).per_piece
        for got, want in zip(report.per_piece[i], alone):
            for f in fields(want):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert a is b is None or np.array_equal(a, b), (i, f.name)


def test_evaluate_batch_criterion_accessor():
    rng = np.random.default_rng(13)
    train = _melody(rng.integers(50, 58, 150))
    report = metrics.evaluate_batch(train, [train])
    assert report.criterion("entropy-rmse") == report.entropy_rmse
    assert report.criterion("musicality-avg") == report.musicality_average
    assert report.criterion("temporal-avg") == report.temporal_average
    with pytest.raises(ValueError, match="entropy-rmse"):
        report.criterion("nope")


def test_interval_class_table_fifths():
    times = np.repeat(np.arange(5) * 240, 2)
    pitches = np.empty(10, dtype=np.int64)
    pitches[0::2] = 60
    pitches[1::2] = 67
    seq = PitchSequence(pitches, times)
    frac = metrics.interval_class_table(seq, "harmonic")
    assert frac["fourths_fifths"] == 1.0
    assert frac["dissonant"] == 0.0


def test_interval_class_table_minor_third_dyad():
    seq = PitchSequence([60, 63], [0, 0])
    assert metrics.interval_class_table(seq, "harmonic")["thirds"] == 1.0


def test_interval_class_fractions_sum_with_residual():
    rng = np.random.default_rng(14)
    times = np.repeat(np.arange(30) * 240, 2)
    pitches = rng.integers(40, 80, 60)
    seq = PitchSequence(pitches, times)
    for mode in ("harmonic", "melodic"):
        frac = metrics.interval_class_table(seq, mode)
        total = frac["thirds"] + frac["fourths_fifths"] + frac["dissonant"]
        # residual classes {0, 6, 8, 9} fill the rest
        treble, bass, groups = metrics._lines(seq)
        if mode == "harmonic":
            classes = [abs(int(c[i]) - int(c[j])) % 12 for c in groups
                       for i in range(len(c)) for j in range(i + 1, len(c))]
        else:
            classes = [abs(int(d)) % 12 for d in np.diff(treble)]
            classes += [abs(int(d)) % 12 for d in np.diff(bass)]
        residual = sum(1 for c in classes if c in (0, 6, 8, 9)) / len(classes)
        assert total + residual == pytest.approx(1.0, abs=1e-12)


def test_interval_class_table_errors():
    with pytest.raises(ValueError):
        metrics.interval_class_table(PitchSequence([60], [0]), "harmonic")
    with pytest.raises(ValueError):
        metrics.interval_class_table(PitchSequence([60, 61], [0, 1]), "weird")
    for mode in ("harmonic", "melodic"):
        with pytest.raises(ValueError, match="^empty sequence$"):
            metrics.interval_class_table(PitchSequence([], []), mode)


# word boundaries of 64-bit machine words, where a fixed-width bit-vector
# implementation would carry between words
@pytest.mark.parametrize("short", [1, 63, 64, 65, 127, 128, 129])
def test_levenshtein_matches_table_dp_at_word_boundaries(short):
    rng = np.random.default_rng(100 + short)
    for alphabet in (1, 2, 4, 20, 40):
        for long in (short, short + 1, rng.integers(short, 301)):
            a = rng.integers(0, alphabet, long)
            b = rng.integers(0, alphabet, short)
            want = rowwise_levenshtein(a.tolist(), b.tolist())
            assert metrics.levenshtein(a, b) == want
            assert metrics.levenshtein(b, a) == want


def test_levenshtein_matches_table_dp_on_random_pairs():
    rng = np.random.default_rng(15)
    for _ in range(60):
        alphabet = int(rng.integers(1, 41))
        a = rng.integers(0, alphabet, rng.integers(0, 301))
        b = rng.integers(0, alphabet, rng.integers(0, 301))
        assert metrics.levenshtein(a, b) == rowwise_levenshtein(a.tolist(), b.tolist())


def test_levenshtein_ignores_integer_width():
    rng = np.random.default_rng(16)
    for _ in range(20):
        a = rng.integers(50, 70, rng.integers(1, 200))
        b = rng.integers(50, 70, rng.integers(1, 200))
        want = rowwise_levenshtein(a.tolist(), b.tolist())
        assert metrics.levenshtein(a.astype(np.int32), b.astype(np.int64)) == want
        assert metrics.levenshtein(a.astype(np.int64), b.astype(np.int32)) == want
        assert metrics.levenshtein(a.tolist(), b.astype(np.int32)) == want


def _log_uniform(rng, high):
    """An integer in 0..high, as likely in 0..9 as in 10..99 (for high 99):
    most batches stay small enough for the table oracle, some reach high."""
    return int(np.expm1(rng.uniform(0, np.log1p(high))))


def _assert_batch_matches_table_dp(text, patterns):
    want = [rowwise_levenshtein(p.tolist(), text.tolist()) for p in patterns]
    assert metrics.levenshtein_batch(text, patterns) == want


def test_levenshtein_batch_matches_table_dp_on_random_batches():
    rng = np.random.default_rng(22)
    for _ in range(400):
        alphabet = int(rng.integers(1, 31))
        text = rng.integers(0, alphabet, _log_uniform(rng, 200))
        patterns = [rng.integers(0, alphabet, _log_uniform(rng, 200))
                    for _ in range(1 + _log_uniform(rng, 49))]
        _assert_batch_matches_table_dp(text, patterns)


def test_levenshtein_batch_empty_patterns_and_empty_text():
    rng = np.random.default_rng(26)
    empty = np.zeros(0, dtype=np.int64)
    patterns = [empty, rng.integers(0, 3, 7), empty, rng.integers(0, 3, 1), empty]
    _assert_batch_matches_table_dp(rng.integers(0, 3, 20), patterns)
    _assert_batch_matches_table_dp(empty, patterns)
    assert metrics.levenshtein_batch(empty, patterns) == [0, 7, 0, 1, 0]
    assert metrics.levenshtein_batch(rng.integers(0, 3, 20), [empty, empty]) == [20, 20]


@pytest.mark.parametrize("length", [63, 64, 65])
def test_levenshtein_batch_at_word_boundaries(length):
    rng = np.random.default_rng(length)
    for alphabet in (1, 2, 20):
        for text_length in (0, 1, length - 1, length, length + 1, 200):
            text = rng.integers(0, alphabet, text_length)
            patterns = [rng.integers(0, alphabet, length) for _ in range(int(rng.integers(1, 8)))]
            _assert_batch_matches_table_dp(text, patterns + [text[:length]])


def test_levenshtein_batch_counters_of_one_note_patterns_against_a_long_text():
    """Fifty one-note patterns, each in a slot of two bits, against a text
    of 1000 symbols: the distances reach the text length."""
    rng = np.random.default_rng(27)
    for alphabet in (1, 2, 5):
        text = rng.integers(0, alphabet, 1000)
        patterns = [rng.integers(0, alphabet + 1, 1) for _ in range(50)]
        _assert_batch_matches_table_dp(text, patterns)


@pytest.mark.parametrize("alphabet", [1, 2, 20])
def test_levenshtein_batch_with_one_guard_bit_per_slot(alphabet):
    """Adjacent slots of 1, 63, 64, 65 and 500 bits, each with one guard
    bit above it, between empty patterns: an alphabet of one symbol
    carries the addition through every slot into its guard bit."""
    rng = np.random.default_rng(30 + alphabet)
    empty = np.zeros(0, dtype=np.int64)
    for text_length in (0, 1, 500):
        text = rng.integers(0, alphabet, text_length)
        patterns = [empty] + [rng.integers(0, alphabet, m) for m in (1, 63, 64, 65, 500)]
        patterns += [empty, text[:64], rng.integers(0, alphabet, 1)]
        _assert_batch_matches_table_dp(text, patterns)
        _assert_batch_matches_table_dp(text, patterns[::-1])


def test_levenshtein_batch_with_empty_sides_and_patterns_longer_than_the_text():
    """The automaton's vectors are kept to the pattern bits: slots whose
    pattern outgrows the text, empty patterns and an empty text."""
    rng = np.random.default_rng(29)
    for _ in range(200):
        alphabet = int(rng.integers(1, 10))
        text = rng.integers(0, alphabet, _log_uniform(rng, 80) if rng.random() < 0.8 else 0)
        patterns = [rng.integers(0, alphabet, len(text) + 1 + _log_uniform(rng, 80)),
                    np.zeros(0, dtype=np.int64)]
        patterns += [rng.integers(0, alphabet, _log_uniform(rng, 120))
                     for _ in range(_log_uniform(rng, 12))]
        order = rng.permutation(len(patterns))
        _assert_batch_matches_table_dp(text, [patterns[i] for i in order])


@settings(max_examples=300, database=None, derandomize=True)
@given(st.lists(st.integers(0, 4), max_size=9), st.lists(st.integers(0, 4), max_size=9))
def test_levenshtein_property_brute_force(a, b):
    assert metrics.levenshtein(a, b) == brute_edit_distance(a, b)


def _assert_lines_match_per_group_loop(seq):
    treble, bass, chords = metrics._lines(seq)
    want_treble, want_bass, groups = per_group_lines(seq.timestamps, seq.pitches)
    assert treble.dtype == want_treble.dtype == bass.dtype
    assert np.array_equal(treble, want_treble)
    assert np.array_equal(bass, want_bass)
    want_chords = [g for g in groups if len(g) > 1]
    assert len(chords) == len(want_chords)
    for got, want in zip(chords, want_chords):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("times,pitches", [
    ([0], [60]),                                         # one note
    ([480] * 5, [64, 60, 67, 60, 72]),                   # a single timestamp
    ([0, 0, 0, 240, 480, 480], [60, 64, 67, 62, 59, 71]),  # chords and single notes
    ([480, 0, 240, 0, 480, 240], [60, 61, 62, 63, 64, 65]),  # out of order
    ([960, 0, 960, 480, 0], [70, 50, 40, 55, 52]),       # out of order with chords
])
def test_lines_match_per_group_loop(times, pitches):
    _assert_lines_match_per_group_loop(PitchSequence(pitches, times))


def test_lines_match_per_group_loop_on_random_pieces():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 80))
        times = rng.integers(0, rng.integers(1, 30), n) * 120
        seq = PitchSequence(rng.integers(30, 90, n), times)
        _assert_lines_match_per_group_loop(seq)


def test_piece_scores_by_hand():
    train = _melody([60, 62, 64, 67] * 5)
    moving = _melody([60, 64] * 10)
    constant = _melody([60] * 20)
    report = metrics.evaluate_batch(train, [moving, constant])
    assert report.skipped == [(1, "undefined ACF (constant or too-short piece)")]
    rows = metrics.piece_scores(report)
    assert [row["piece"] for row in rows] == [0, 1]

    # train: histogram 1/4 each over {60, 62, 64, 67}; 10 of its 19 steps
    # are seconds; no piece has a jump above an octave
    assert rows[0]["entropy-rmse"] == pytest.approx(np.log(4) - np.log(2), abs=1e-15)
    assert rows[1]["entropy-rmse"] == pytest.approx(np.log(4), abs=1e-15)
    # |0 - 0.5| dissonance, 0 large intervals, note-count deviations
    # sqrt(mean(4 x 1/16)) = 1/4 and sqrt((9/16 + 3/16) / 4) = sqrt(3) / 4
    assert rows[0]["musicality-avg"] == pytest.approx((0.5 + 0.0 + 0.25) / 3, rel=1e-15)
    assert rows[1]["musicality-avg"] == pytest.approx((0.5 + 0.0 + np.sqrt(3) / 4) / 3,
                                                      rel=1e-15)
    acf, pacf = metrics.acf_pacf(moving.pitches, 18)
    ref_acf, ref_pacf = metrics.acf_pacf(train.pitches, 18)
    temporal = (np.sqrt(np.mean((acf - ref_acf) ** 2))
                + np.sqrt(np.mean((pacf - ref_pacf) ** 2))) / 2
    assert rows[0]["temporal-avg"] == pytest.approx(temporal, rel=1e-15)
    assert rows[1]["temporal-avg"] == float("inf")
    # the pairs (60,60), (62,64), (64,60), (67,64) each make a quarter
    assert rows[0]["mutual_information"] == pytest.approx(np.log(2), abs=1e-15)
    assert rows[1]["mutual_information"] == 0.0
    assert rows[1]["edit_distance"] == 15 / 20


def test_piece_scores_of_a_batch_of_one_are_its_criteria():
    rng = np.random.default_rng(41)  # acceptance criterion 8's piece
    train = _melody(50 + np.cumsum(rng.integers(-2, 3, 500)) % 12)
    model = registry.train_model("M1", train, seed=0, max_iter=10)
    report = metrics.evaluate_batch(train, [registry.sample_sequence(model, 500, seed=1)])
    (row,) = metrics.piece_scores(report)
    for criterion in metrics.CRITERIA:
        assert row[criterion] == report.criterion(criterion)
    # a constant piece has no ACF: the batch's temporal score is NaN, and
    # the piece's is inf, so it ranks last
    report = metrics.evaluate_batch(train, [_melody([60] * 500)])
    (row,) = metrics.piece_scores(report)
    assert np.isnan(report.temporal_average)
    assert row["temporal-avg"] == float("inf")


def _assert_matches_piecewise_oracles(train, batch):
    """Every per-piece value, the batch scores and the per-piece scores are
    bit for bit those of the per-piece functions they replaced."""
    report = metrics.evaluate_batch(train, batch)
    union = np.unique(np.concatenate([train.pitches] + [g.pitches for g in batch]))
    for seq, mv in zip([train, *batch], [report.training_metrics]
                       + [mv for mv, _ in report.per_piece]):
        assert mv.entropy == piecewise_entropy(seq.pitches)
        assert mv.dissonance_rate == piecewise_dissonance_rate(seq)
        assert mv.large_interval_rate == piecewise_large_interval_rate(seq)
        assert np.array_equal(mv.pitch_histogram, piecewise_pitch_histogram(seq.pitches, union))
        assert metrics.empirical_entropy(seq.pitches) == mv.entropy
        assert metrics.dissonance_rate(seq) == mv.dissonance_rate
        assert metrics.large_interval_rate(seq) == mv.large_interval_rate
        assert np.array_equal(metrics.pitch_histogram(seq.pitches, union), mv.pitch_histogram)
    for seq, (_, pm) in zip(batch, report.per_piece):
        mi = piecewise_mutual_information(train.pitches, seq.pitches)
        assert pm.mutual_information == mi
        assert metrics.mutual_information(train.pitches, seq.pitches) == mi
    want = piecewise_scores(report.per_piece, report.training_metrics)
    assert repr(report.summary()) == repr(want)
    assert metrics.piece_scores(report) == piecewise_piece_scores(report)


_NOTES = st.lists(st.tuples(st.integers(40, 70), st.integers(0, 30)), min_size=1, max_size=60)
# a training piece needs three notes and two pitches for a defined ACF
_TRAIN_NOTES = _NOTES.filter(lambda n: len(n) > 2 and len({p for p, _ in n}) > 1)


def _piece(notes, polyphonic):
    pitches = [p for p, _ in notes]
    if not polyphonic:
        return _melody(pitches)
    return PitchSequence(pitches, [240 * t for _, t in notes])


@settings(max_examples=60, database=None, derandomize=True, deadline=None)
@given(train=_TRAIN_NOTES, train_chords=st.booleans(),
       batch=st.lists(st.tuples(_NOTES, st.booleans()), min_size=1, max_size=6))
def test_stacked_metrics_match_the_per_piece_functions(train, train_chords, batch):
    """Ragged lengths, one-note pieces, pieces too short for the lags,
    chords in the training piece and in the batch, up to 31 distinct
    pitches, and MI over prefixes of unequal length."""
    _assert_matches_piecewise_oracles(_piece(train, train_chords),
                                      [_piece(notes, chords) for notes, chords in batch])


def test_stacked_metrics_match_the_per_piece_functions_on_long_pieces():
    """Random walks over twelve pitches, whose MI joints have rows and
    columns long enough for pairwise summation to depend on their memory
    order; then more than 128 distinct pitches, so entropy rows, histogram
    rows and the pooled RMSEs are summed in more than one pairwise block."""
    rng = np.random.default_rng(30)

    def walk(n):
        return _melody(50 + np.cumsum(rng.integers(-2, 3, n)) % 12)

    _assert_matches_piecewise_oracles(walk(500), [walk(n) for n in (500,) * 8 + (300, 700)])
    train = _melody(rng.integers(0, 400, 500))
    batch = [_melody(rng.integers(0, 400, n)) for n in (500, 300, 700, 1, 41, 500)]
    batch.append(PitchSequence(rng.integers(0, 400, 300), rng.integers(0, 60, 300) * 240))
    _assert_matches_piecewise_oracles(train, batch)
