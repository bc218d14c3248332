"""Desk-scale speaker verification toolkit.

Pipeline: waveforms -> upstream layer stacks -> learnable weighted layer
aggregation -> ECAPA-TDNN embeddings -> AAM-softmax training -> cosine /
adaptive s-norm / calibration / ensemble scoring -> EER.
"""

from .aggregator import aggregate, export_weights, normalized_weights
from .audio import (
    AugmentBanks,
    AugmentConfig,
    FbankConfig,
    Waveform,
    apply_rir,
    augment,
    fbank,
    mix_noise,
    read_wav,
    write_wav,
)
from .config import RunConfig, dump_config, load_config
from .ecapa import EcapaConfig, count_params, init_params, load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, FormatError, ToolkitError
from .pipeline import System, extract_embeddings
from .scoring import (
    CalibrationModel,
    Cohort,
    Trial,
    adaptive_snorm,
    apply_calibration,
    build_cohort,
    cosine_score,
    eer,
    ensemble,
    fit_calibration,
    quality_features,
)
from .synthcorpus import SynthSpec, synth_corpus, synth_speaker, synth_utterance
from .training import (
    AamConfig,
    TrainResult,
    TrainSchedule,
    aam_loss,
    crop_random,
    grad_check,
    train,
)
from .upstream import (
    LayerStack,
    Manifest,
    ManifestRow,
    MockUpstreamConfig,
    PlantSpec,
    load_manifest,
    load_stack,
    mock_forward,
    plant_speaker_info,
    save_manifest,
    save_stack,
)

__version__ = "0.1.0"
