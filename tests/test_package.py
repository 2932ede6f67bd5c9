"""The package's public surface."""

from __future__ import annotations

import glrfusion

PUBLIC_NAMES = [
    "ChannelKnowledge", "ChannelMessage", "ChannelModel", "ConfigError",
    "DegenerateDataError", "DetectorReport", "DimensionError", "ExperimentSpec",
    "GlrFusionError", "HermitianEig", "KnowledgeSpec", "LikelihoodImage",
    "MeasurementSet", "NoiseKnowledge", "NullDistribution", "PropagationSpec",
    "ProtocolError", "RankDeficiencyError", "RocCurve", "SampleCovariance", "Scenario",
    "ThresholdCalibration", "balanced_tree", "build_broadband_h", "build_fusion_t",
    "build_narrowband_h", "calibrate_threshold", "chain_tree", "channel_message",
    "channel_ml_amplitudes", "compose_f", "compose_f_whitened", "daisy_chain_fuse",
    "detect", "detect_p11", "detect_p12", "detect_p13", "detect_p21", "detect_p22",
    "detect_p23", "detect_p31", "detect_p32", "detect_p33", "draw_amplitudes",
    "hermitian_eig", "load_measurements", "ml_amplitudes", "narrowband_channel",
    "normalize_channel", "partition_cv", "radial_velocity_to_doppler",
    "rayleigh_extremes", "run_null", "run_roc", "sample_covariance",
    "save_measurements", "scan_likelihood_image", "simulate", "wilson_interval",
]


def test_public_names_are_pinned():
    assert sorted(glrfusion.__all__) == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert hasattr(glrfusion, name), name
