"""State-space models for symbolic music: train on a MIDI-CSV piece,
sample new pieces, score them and rank by RMSE against the original."""

from .hmm import (
    FitReport,
    HmmParams,
    ZeroProbabilityError,
    baum_welch,
    log_likelihood,
    random_params,
    sample,
    viterbi,
)
from .metrics import (
    EvaluationReport,
    MetricVector,
    PairMetrics,
    acf_pacf,
    dissonance_rate,
    edit_distance,
    empirical_entropy,
    evaluate_batch,
    interval_class_table,
    large_interval_rate,
    mutual_information,
    piece_scores,
    pitch_histogram,
    rmse,
)
from .midi_codec import (
    MidiCsvError,
    PitchAlphabet,
    PitchSequence,
    build_alphabet,
    emit_midi_csv,
    parse_midi_csv,
)
from .persist import load_model, save_model
from .registry import (
    REGISTRY,
    ModelSpec,
    TrainedModel,
    model_log_likelihood,
    sample_model,
    sample_sequence,
    train_model,
)

__version__ = "0.1.0"

__all__ = [
    "FitReport", "HmmParams", "ZeroProbabilityError", "baum_welch",
    "log_likelihood", "random_params", "sample", "viterbi",
    "EvaluationReport", "MetricVector", "PairMetrics", "acf_pacf",
    "dissonance_rate", "edit_distance", "empirical_entropy", "evaluate_batch",
    "interval_class_table", "large_interval_rate", "mutual_information",
    "piece_scores", "pitch_histogram", "rmse",
    "MidiCsvError", "PitchAlphabet", "PitchSequence", "build_alphabet",
    "emit_midi_csv", "parse_midi_csv",
    "load_model", "save_model",
    "REGISTRY", "ModelSpec", "TrainedModel", "model_log_likelihood",
    "sample_model", "sample_sequence", "train_model",
]
