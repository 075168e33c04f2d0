"""Multi-stage spectral-mask speech enhancement toolkit."""

from .dsp import (
    AnalysisWindow,
    InputError,
    Waveform,
    hann_window,
    istft,
    stft,
)
from .blocks import receptive_field
from .model import BatchTrace, ModelConfig, MultiStageModel, total_loss_batch
from .train import (
    AdamState,
    FormatError,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    fit,
    load_checkpoint,
    save_checkpoint,
)
from .audio import (
    SynthConfig,
    ToyItem,
    WavFormatError,
    mix_at_snr,
    read_wav,
    synth_toy_dataset,
    write_wav,
)
from .metrics import MetricReport, evaluate_set, si_sdr, snr_db

__all__ = [
    "AnalysisWindow",
    "InputError",
    "Waveform",
    "hann_window",
    "istft",
    "stft",
    "receptive_field",
    "BatchTrace",
    "ModelConfig",
    "MultiStageModel",
    "total_loss_batch",
    "AdamState",
    "FormatError",
    "TrainConfig",
    "TrainingDivergedError",
    "adam_step",
    "fit",
    "load_checkpoint",
    "save_checkpoint",
    "SynthConfig",
    "ToyItem",
    "WavFormatError",
    "mix_at_snr",
    "read_wav",
    "synth_toy_dataset",
    "write_wav",
    "MetricReport",
    "evaluate_set",
    "si_sdr",
    "snr_db",
]
