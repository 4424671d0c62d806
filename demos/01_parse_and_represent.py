"""Parse a MIDI-CSV document into the flat pitch representation.

Chords flatten to consecutive notes sharing a timestamp, and the piece's
alphabet is just its sorted distinct pitch set.  The snippet below is the
opening bar of a well-known hymn tune arranged with a sustained bass.
"""

from sscompose import build_alphabet, emit_midi_csv, parse_midi_csv

DOCUMENT = """\
0, 0, Header, 1, 2, 480
1, 0, Start_track
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
1, 1440, End_track
0, 1440, End_of_file
"""


def main():
    seq = parse_midi_csv(DOCUMENT)
    print(f"parsed {len(seq)} note-on events at {seq.ticks_per_quarter} ticks/quarter")
    print("pitch sequence:", seq.pitches.tolist())
    print("timestamps:   ", seq.timestamps.tolist())

    alphabet = build_alphabet(seq)
    print("alphabet:", alphabet.symbols.tolist())
    print("as model symbols:", alphabet.to_indices(seq.pitches).tolist())

    round_trip = parse_midi_csv(emit_midi_csv(seq))
    same = round_trip.pitches.tolist() == seq.pitches.tolist()
    print("round-trip through emit_midi_csv preserves the piece:", same)


if __name__ == "__main__":
    main()
