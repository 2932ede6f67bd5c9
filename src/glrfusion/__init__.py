"""Multi-channel GLR detection with a canonical fusion decomposition.

Nine detectors cover every combination of channel knowledge (known coupling
and gains, known coupling with unknown gains, unknown rank-J coupling) and
noise knowledge (known variances, common unknown variance, per-channel
unknown variances).  Each returns a composite statistic together with its
decomposition into weighted per-channel detectors minus a cross-validation
term, plus a Monte-Carlo harness for null distributions, ROC curves,
threshold calibration, and delay/Doppler likelihood images.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .channel import (
    ChannelModel,
    PropagationSpec,
    build_narrowband_h,
    narrowband_channel,
    normalize_channel,
    radial_velocity_to_doppler,
)
from .detectors import (
    ChannelKnowledge,
    DetectorReport,
    KnowledgeSpec,
    NoiseKnowledge,
    detect,
)
from .errors import (
    ConfigError,
    DegenerateDataError,
    DimensionError,
    GlrFusionError,
    ProtocolError,
    RankDeficiencyError,
)
from .formats import load_measurements, save_measurements
from .fusion import (
    ChannelMessage,
    balanced_tree,
    chain_tree,
    channel_message,
    daisy_chain_fuse,
    partition_cv,
)
from .harness import (
    ExperimentSpec,
    LikelihoodImage,
    NullDistribution,
    RocCurve,
    Scenario,
    ThresholdCalibration,
    calibrate_threshold,
    run_null,
    run_roc,
    scan_likelihood_image,
    wilson_interval,
)
from .measurement import (
    MeasurementSet,
    draw_amplitudes,
    simulate,
)

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
