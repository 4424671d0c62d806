"""MIDI-CSV ingestion and the flat pitch-sequence representation.

Pieces are treated as a univariate stream of note-on pitches ordered by
timestamp (stable within a timestamp, so chords flatten to consecutive
observations sharing a tick).  Timestamps are retained so the metrics can
still tell simultaneous notes from sequential ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


TICKS_PER_QUARTER = 480  # time base of generated pieces
MAX_DIVISION = 32767  # a MIDI Header's division has 15 bits
MAX_PITCH = 127  # a MIDI note number has 7 bits
MAX_TICK = np.iinfo(np.int64).max


class MidiCsvError(ValueError):
    """Malformed MIDI-CSV input."""


def eighth(ticks_per_quarter):
    """Ticks in an eighth note: generated pieces place one note per eighth."""
    return ticks_per_quarter // 2


@dataclass
class PitchSequence:
    """Flat note-on stream: one pitch per event, chords share a timestamp."""

    pitches: np.ndarray
    timestamps: np.ndarray
    ticks_per_quarter: int = TICKS_PER_QUARTER

    def __post_init__(self):
        self.pitches = np.asarray(self.pitches, dtype=np.int64)
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        if self.pitches.shape != self.timestamps.shape:
            raise ValueError("pitches and timestamps must have equal length")

    def __len__(self):
        return len(self.pitches)

    @classmethod
    def eighths(cls, pitches, ticks_per_quarter=TICKS_PER_QUARTER):
        """A melody of one note per eighth, starting at tick 0."""
        times = np.arange(len(pitches), dtype=np.int64) * eighth(ticks_per_quarter)
        return cls(pitches, times, ticks_per_quarter)


@dataclass
class PitchAlphabet:
    """Sorted distinct pitches of a piece; a pitch's symbol is its rank."""

    symbols: np.ndarray

    def __post_init__(self):
        self.symbols = np.asarray(self.symbols, dtype=np.int64)

    @property
    def size(self):
        return len(self.symbols)

    def to_indices(self, pitches):
        """Each pitch's rank in the alphabet; ValueError names the first
        pitch that is not one of its symbols."""
        pitches = np.asarray(pitches, dtype=np.int64)
        idx = np.searchsorted(self.symbols, pitches)
        known = idx < self.size
        known[known] = self.symbols[idx[known]] == pitches[known]
        if not known.all():
            raise ValueError(f"pitch {pitches[np.argmin(known)]} not in alphabet")
        return idx

    def to_pitches(self, indices):
        return self.symbols[np.asarray(indices, dtype=np.int64)]


def parse_midi_csv(text):
    """Parse a midicsv-convention document into a PitchSequence.

    Only note-on events (velocity > 0) enter the sequence; note-offs and
    zero-velocity note-ons are dropped.  Events from all tracks are merged
    and stably ordered by timestamp, preserving file order within a tick.
    """
    ticks_per_quarter = None
    ons = []  # (timestamp, pitch)
    # int() strips the whitespace around a number, as str.strip does, but
    # for U+001F; splitlines already ends a line at U+001C-U+001E
    for lineno, line in enumerate(text.replace("\x1f", " ").splitlines(), start=1):
        fields = line.split(",")
        if len(fields) < 3:
            if not line.strip():  # blank lines are skipped
                continue
            raise MidiCsvError(f"line {lineno}: expected at least 3 fields, got {len(fields)}")
        rectype = fields[2].strip().lower()
        if rectype == "header":
            if len(fields) < 6:
                raise MidiCsvError(f"line {lineno}: malformed Header record")
            try:
                ticks_per_quarter = int(fields[5])
            except ValueError:
                raise MidiCsvError(f"line {lineno}: non-numeric division in Header") from None
            if not 1 <= ticks_per_quarter <= MAX_DIVISION:
                raise MidiCsvError(f"line {lineno}: division {ticks_per_quarter} "
                                   f"outside 1-{MAX_DIVISION}")
        elif rectype in ("note_on_c", "note_off_c"):
            if len(fields) != 6:
                raise MidiCsvError(f"line {lineno}: note record needs 6 fields, got {len(fields)}")
            try:
                time = int(fields[1])
                pitch = int(fields[4])
                velocity = int(fields[5])
            except ValueError:
                raise MidiCsvError(f"line {lineno}: non-numeric note record field") from None
            if not 0 <= pitch <= MAX_PITCH:
                raise MidiCsvError(f"line {lineno}: pitch {pitch} outside 0-{MAX_PITCH}")
            if not 0 <= time <= MAX_TICK:
                raise MidiCsvError(f"line {lineno}: timestamp {time} outside 0-{MAX_TICK}")
            if rectype == "note_on_c" and velocity > 0:
                ons.append((time, pitch))
        # tempo/meta/track records are ignored: pitch is the modeling object
    if ticks_per_quarter is None:
        raise MidiCsvError("missing Header record")
    ons.sort(key=lambda e: e[0])  # stable: file order preserved within a tick
    pitches = np.array([p for _, p in ons], dtype=np.int64)
    times = np.array([t for t, _ in ons], dtype=np.int64)
    return PitchSequence(pitches, times, ticks_per_quarter)


def emit_midi_csv(seq, note_duration=None):
    """Render a PitchSequence back to MIDI-CSV text.

    Every pitch becomes a note-on at its timestamp plus a note-off at
    timestamp + note_duration (default one eighth note).  Round-trip
    parse(emit(seq)) reproduces the (pitch, timestamp) list exactly.
    """
    if len(seq) == 0:
        raise ValueError("cannot emit an empty PitchSequence")
    if note_duration is None:
        note_duration = max(1, eighth(seq.ticks_per_quarter))
    if note_duration <= 0:
        raise ValueError("note_duration must be positive")
    # (time, kind, record): offs sort before ons at equal ticks, and the
    # stable sort keeps note order among equal keys
    events = []
    for pitch, time in zip(seq.pitches, seq.timestamps):
        events.append((int(time), 1, f"1, {int(time)}, Note_on_c, 0, {int(pitch)}, 80"))
        off = int(time) + note_duration
        events.append((off, 0, f"1, {off}, Note_off_c, 0, {int(pitch)}, 0"))
    events.sort(key=lambda e: (e[0], e[1]))
    end = events[-1][0]
    lines = [
        f"0, 0, Header, 1, 1, {seq.ticks_per_quarter}",
        "1, 0, Start_track",
        "1, 0, Tempo, 500000",
    ]
    lines.extend(e[2] for e in events)
    lines.append(f"1, {end}, End_track")
    lines.append(f"0, {end}, End_of_file")
    return "\n".join(lines) + "\n"


def build_alphabet(seq):
    """Sorted deduplicated pitch set of a piece."""
    if len(seq) == 0:
        raise ValueError("cannot build an alphabet from an empty sequence")
    return PitchAlphabet(np.unique(seq.pitches))
