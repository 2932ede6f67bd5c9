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
    build_broadband_h,
    build_narrowband_h,
    compose_f,
    compose_f_whitened,
    narrowband_channel,
    normalize_channel,
    radial_velocity_to_doppler,
)
from .detectors import (
    ChannelKnowledge,
    DetectorReport,
    KnowledgeSpec,
    NoiseKnowledge,
    build_fusion_t,
    detect,
    detect_p11,
    detect_p12,
    detect_p13,
    detect_p21,
    detect_p22,
    detect_p23,
    detect_p31,
    detect_p32,
    detect_p33,
)
from .errors import (
    ConfigError,
    DegenerateDataError,
    DimensionError,
    GlrFusionError,
    ProtocolError,
    RankDeficiencyError,
)
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
from .linalg import (
    HermitianEig,
    hermitian_eig,
    rayleigh_extremes,
)
from .measurement import (
    MeasurementSet,
    SampleCovariance,
    channel_ml_amplitudes,
    draw_amplitudes,
    load_measurements,
    ml_amplitudes,
    sample_covariance,
    save_measurements,
    simulate,
)

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
