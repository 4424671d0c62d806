import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import frozen_emit_midi_csv
from sscompose.midi_codec import (
    MAX_DIVISION,
    MAX_PITCH,
    MAX_TICK,
    MidiCsvError,
    PitchSequence,
    build_alphabet,
    emit_midi_csv,
    parse_midi_csv,
)

ODE_TO_JOY_BAR_1 = """\
0, 0, Header, 1, 2, 480
1, 0, Start_track
1, 0, Tempo, 500000
1, 0, Note_on_c, 0, 50, 80
1, 0, Note_on_c, 0, 62, 80
1, 0, Note_on_c, 0, 66, 80
1, 240, Note_on_c, 0, 50, 80
1, 480, Note_on_c, 0, 50, 80
1, 480, Note_on_c, 0, 62, 80
1, 480, Note_on_c, 0, 66, 80
1, 720, Note_on_c, 0, 64, 80
1, 720, Note_on_c, 0, 67, 80
1, 960, Note_on_c, 0, 50, 80
1, 1200, Note_on_c, 0, 50, 80
1, 1440, Note_off_c, 0, 50, 0
1, 1440, End_track
0, 1440, End_of_file
"""

EXPECTED_PITCHES = [50, 62, 66, 50, 50, 62, 66, 64, 67, 50, 50]


def test_first_bar_fixture():
    seq = parse_midi_csv(ODE_TO_JOY_BAR_1)
    assert seq.pitches.tolist() == EXPECTED_PITCHES
    assert seq.ticks_per_quarter == 480


def test_first_bar_alphabet():
    seq = parse_midi_csv(ODE_TO_JOY_BAR_1)
    assert build_alphabet(seq).symbols.tolist() == [50, 62, 64, 66, 67]


def test_header_only_document_is_empty():
    seq = parse_midi_csv("0, 0, Header, 1, 1, 480\n0, 0, End_of_file\n")
    assert len(seq) == 0


def test_dyad_preserves_file_order():
    text = ("0, 0, Header, 1, 1, 480\n"
            "1, 100, Note_on_c, 0, 64, 80\n"
            "1, 100, Note_on_c, 0, 60, 80\n")
    seq = parse_midi_csv(text)
    assert seq.pitches.tolist() == [64, 60]
    assert seq.timestamps.tolist() == [100, 100]


def test_stable_merge_across_timestamps():
    text = ("0, 0, Header, 1, 1, 480\n"
            "1, 200, Note_on_c, 0, 70, 80\n"
            "1, 100, Note_on_c, 0, 60, 80\n")
    seq = parse_midi_csv(text)
    assert seq.pitches.tolist() == [60, 70]


def test_zero_velocity_note_on_dropped():
    text = ("0, 0, Header, 1, 1, 480\n"
            "1, 0, Note_on_c, 0, 60, 80\n"
            "1, 10, Note_on_c, 0, 60, 0\n")
    assert parse_midi_csv(text).pitches.tolist() == [60]


def test_missing_header_error():
    with pytest.raises(MidiCsvError):
        parse_midi_csv("1, 0, Note_on_c, 0, 60, 80\n")


def test_pitch_out_of_range_names_line():
    text = "0, 0, Header, 1, 1, 480\n1, 0, Note_on_c, 0, 200, 80\n"
    with pytest.raises(MidiCsvError, match="line 2"):
        parse_midi_csv(text)


def test_malformed_record_names_line():
    text = "0, 0, Header, 1, 1, 480\n1, 0, Note_on_c, 0\n"
    with pytest.raises(MidiCsvError, match="line 2"):
        parse_midi_csv(text)


def test_non_numeric_pitch_error():
    text = "0, 0, Header, 1, 1, 480\n1, 0, Note_on_c, 0, abc, 80\n"
    with pytest.raises(MidiCsvError, match="line 2"):
        parse_midi_csv(text)


def test_whitespace_tolerance():
    text = "0,0,Header,1,1,480\n1,   0,  Note_on_c,   0,60,  80\n"
    assert parse_midi_csv(text).pitches.tolist() == [60]


@pytest.mark.parametrize("pad", [" ", "\t", " \t ", "\x1f", "\xa0", "\u3000"])
def test_whitespace_around_every_field(pad):
    """Whitespace around any field, U+001F too (str.strip strips it and
    int() does not), and a line of only whitespace change nothing."""
    clean = ["0,0,Header,1,1,96", "1,0,Note_on_c,0,60,80", "1,96,note_on_c,0,62,80",
             "1,96,Note_off_c,0,60,0", "1,192,End_track"]
    padded = [pad * 3] + [",".join(pad + f + pad for f in line.split(",")) for line in clean]
    got, want = parse_midi_csv("\n".join(padded)), parse_midi_csv("\n".join(clean))
    assert got.pitches.tolist() == want.pitches.tolist() == [60, 62]
    assert got.timestamps.tolist() == want.timestamps.tolist() == [0, 96]
    assert got.ticks_per_quarter == want.ticks_per_quarter == 96


def test_blank_lines_skipped():
    text = "\n0, 0, Header, 1, 1, 480\n   \n\t\n1, 0, Note_on_c, 0, 60, 80\n\n"
    assert parse_midi_csv(text).pitches.tolist() == [60]


def test_emit_single_note():
    seq = PitchSequence([60], [0])
    text = emit_midi_csv(seq, note_duration=120)
    assert "1, 0, Note_on_c, 0, 60, 80" in text
    assert "1, 120, Note_off_c, 0, 60, 0" in text


def test_round_trip_fig1():
    seq = parse_midi_csv(ODE_TO_JOY_BAR_1)
    back = parse_midi_csv(emit_midi_csv(seq))
    assert back.pitches.tolist() == seq.pitches.tolist()
    assert back.timestamps.tolist() == seq.timestamps.tolist()


def test_round_trip_with_chords_random():
    rng = np.random.default_rng(3)
    times = np.sort(rng.integers(0, 500, 40))
    pitches = rng.integers(30, 90, 40)
    seq = PitchSequence(pitches, times)
    back = parse_midi_csv(emit_midi_csv(seq, note_duration=60))
    assert back.pitches.tolist() == seq.pitches.tolist()
    assert back.timestamps.tolist() == seq.timestamps.tolist()


def test_emit_timestamps_non_decreasing():
    seq = PitchSequence([60, 61, 62], [0, 480, 960])
    times = [int(line.split(",")[1]) for line in emit_midi_csv(seq).splitlines()]
    assert times == sorted(times)


def test_emit_matches_the_frozen_emitter_on_unsorted_chords():
    rng = np.random.default_rng(4)
    for _ in range(100):
        length = int(rng.integers(1, 40))
        duration = int(rng.choice([1, 60, 120, 240]))
        # onsets on a grid of the note length, so note-offs share ticks
        # with later note-ons, repeated for chords and left unsorted
        times = duration * rng.integers(0, 12, length)
        seq = PitchSequence(rng.integers(30, 90, length), times, int(rng.choice([96, 480])))
        assert emit_midi_csv(seq, duration) == frozen_emit_midi_csv(seq, duration)


def test_empty_emit_error():
    with pytest.raises(ValueError):
        emit_midi_csv(PitchSequence([], []))


@pytest.mark.parametrize("call,message", [
    (lambda: PitchSequence([60, 62], [0]), "pitches and timestamps must have equal length"),
    (lambda: emit_midi_csv(PitchSequence([60, 62], [0, 240]), note_duration=0),
     "note_duration must be positive"),
], ids=["unequal-lengths", "zero-duration"])
def test_sequence_argument_checks(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_alphabet_roundtrip():
    seq = parse_midi_csv(ODE_TO_JOY_BAR_1)
    alpha = build_alphabet(seq)
    idx = alpha.to_indices(seq.pitches)
    assert alpha.to_pitches(idx).tolist() == seq.pitches.tolist()


def test_alphabet_permutation_invariant():
    rng = np.random.default_rng(0)
    pitches = rng.integers(40, 80, 30)
    seq_a = PitchSequence(pitches, np.arange(30))
    perm = rng.permutation(30)
    seq_b = PitchSequence(pitches[perm], np.arange(30))
    assert build_alphabet(seq_a).symbols.tolist() == build_alphabet(seq_b).symbols.tolist()


def test_alphabet_rejects_unknown_pitch():
    alpha = build_alphabet(PitchSequence([60, 62], [0, 1]))
    with pytest.raises(ValueError):
        alpha.to_indices([61])


@pytest.mark.parametrize("pitches,offender", [
    ([60, 70, 50], 70),  # above every symbol
    ([64, 50, 70], 50),  # below every symbol
    ([62, 61, 70], 61),  # between two symbols
])
def test_alphabet_names_the_first_unknown_pitch(pitches, offender):
    alpha = build_alphabet(PitchSequence([60, 62, 64], [0, 1, 2]))
    with pytest.raises(ValueError, match=f"^pitch {offender} not in alphabet$"):
        alpha.to_indices(pitches)


def test_alphabet_empty_error():
    with pytest.raises(ValueError):
        build_alphabet(PitchSequence([], []))


def _mostly(good, odd):
    """good, or odd one time in twenty: a document fails on its first odd
    line, so most lines must be good for some documents to parse."""
    return st.integers(0, 19).flatmap(lambda i: odd if i == 0 else good)


# numbers around and far beyond every range the parser checks, and non-numbers
_ODD_FIELDS = st.one_of(
    st.integers(-3, 200).map(str), st.integers(-10 ** 30, 10 ** 30).map(str),
    st.sampled_from([str(MAX_DIVISION + 1), str(MAX_TICK + 1), "", "x", "6.5", "1e3"]))
_PITCHES = _mostly(st.integers(0, MAX_PITCH).map(str), _ODD_FIELDS)
_HEADERS = _mostly(
    st.builds("0, 0, Header, 1, {}, {}".format, st.integers(1, 4),
              st.sampled_from([1, 96, 480, MAX_DIVISION]).map(str)),
    st.one_of(st.builds("0, 0, Header, 1, 1, {}".format, _ODD_FIELDS),
              st.sampled_from(["0, 0, Header", "0, 0, Header, 1, 1"])))
_NOTES = st.builds("{}, {}, {}, 0, {}, {}{}".format, st.integers(1, 4),  # the track
                   _mostly(st.integers(0, 5000).map(str), _ODD_FIELDS),
                   st.sampled_from(["Note_on_c", "Note_off_c", "note_on_c"]), _PITCHES,
                   _mostly(st.integers(0, 127).map(str), _ODD_FIELDS),
                   _mostly(st.just(""), st.just(", 1")))  # a stray seventh field
# blank lines and records the parser skips, one with stray fields
_OTHER_LINES = st.sampled_from(["", "   ", "1, 0, Start_track", "1, 0, Tempo, 500000",
                                "2, 96, End_track, 5, x"])
_LINES = _mostly(st.one_of(_NOTES, _NOTES, _NOTES, _OTHER_LINES),
                 st.sampled_from(["1", "1, 0", "x"]))  # short records
_DOCUMENTS = st.tuples(st.lists(_HEADERS, max_size=2), st.lists(_LINES, max_size=12)).map(
    lambda t: t[0] + t[1]).flatmap(st.permutations)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_DOCUMENTS)
def test_fuzzed_document_parses_or_raises_midi_csv_error(lines):
    """Any document of blank lines, short records, Header variants (missing,
    short, non-numeric or out-of-range division), stray fields, huge and
    negative numbers and several tracks parses to a valid PitchSequence or
    raises MidiCsvError."""
    try:
        seq = parse_midi_csv("\n".join(lines))
    except MidiCsvError:
        return
    assert isinstance(seq, PitchSequence)
    assert 1 <= seq.ticks_per_quarter <= MAX_DIVISION
    assert np.all((seq.pitches >= 0) & (seq.pitches <= MAX_PITCH))
    assert np.all(seq.timestamps >= 0) and np.all(np.diff(seq.timestamps) >= 0)
