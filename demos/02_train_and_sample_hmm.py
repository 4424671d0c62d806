"""Fit a first-order HMM to a toy melody and sample new pieces from it.

The melody is a bounded random walk, so the fitted model should pick up
its step-wise motion; the sampled pieces stay on the training alphabet
and show a similar local structure.
"""

import numpy as np

from sscompose import PitchSequence, sample_sequence, train_model


def toy_melody(length=300, seed=42):
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.integers(-2, 3, length)) % 10
    return PitchSequence(55 + walk, np.arange(length) * 240)


def main():
    seq = toy_melody()
    print(f"training piece: {len(seq)} notes, "
          f"alphabet size {len(np.unique(seq.pitches))}")

    model = train_model("M1", seq, seed=0, states=8)
    report = model.report
    print(f"EM ran {report.iterations} iterations, converged={report.converged}")
    print(f"final log-likelihood: {report.final_log_likelihood:.2f}")

    for seed in range(3):
        piece = sample_sequence(model, 24, seed=seed)
        print(f"sample (seed {seed}):", piece.pitches.tolist())

    again = sample_sequence(model, 24, seed=0)
    print("same seed reproduces the same piece:",
          np.array_equal(again.pitches, sample_sequence(model, 24, seed=0).pitches))


if __name__ == "__main__":
    main()
