"""Paddle-stroke event detection in 1-D force signals.

Preprocessing, a small numpy sequence-model engine (CNN/GRU/BiGRU stacks with
exact backpropagation), Savitzky-Golay-based event extraction, soft
event-detection scoring with a margin-restricted windowed extension, and a
synthetic data generator with construction-known ground truth.
"""

from .architectures import (
    ARCHITECTURE_NAMES,
    ArchitectureSpec,
    LayerSpec,
    build_architecture,
    count_params,
    init_params,
    layer_param_counts,
)
from .errors import ConfigError, DataError, NumericError, StrokedetError
from .gradcheck import gradient_check
from .labels import ENDING, ONSET, EventLabel, encode_ternary, gaussian_smooth
from .postprocess import Detection, ExtractorConfig, extract_events, savgol_filter
from .runs import RawRun, SplitPlan, interpolate_gaps, minmax_normalize, subject_aware_split
from .softed import (
    Metrics,
    SoftConfusion,
    WindowEvalConfig,
    associate,
    evaluate_windowed,
    membership,
    restrict,
    soft_confusion,
    soft_metrics,
    valid_range,
)
from .synth import SynthConfig, SynthRun, generate_dataset, generate_run, inject_dropouts
from .training import TrainConfig, train_model

__version__ = "0.1.0"
