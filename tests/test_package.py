"""The package's public surface."""

from __future__ import annotations

import dataclasses

import glrfusion

PUBLIC_NAMES = [
    "ChannelKnowledge", "ChannelMessage", "ChannelModel", "ConfigError",
    "DegenerateDataError", "DetectorReport", "DimensionError", "ExperimentSpec",
    "GlrFusionError", "KnowledgeSpec", "LikelihoodImage",
    "MeasurementSet", "NoiseKnowledge", "NullDistribution", "PropagationSpec",
    "ProtocolError", "RankDeficiencyError", "RocCurve", "Scenario",
    "ThresholdCalibration", "balanced_tree", "build_broadband_h",
    "build_narrowband_h", "calibrate_threshold", "chain_tree", "channel_message",
    "daisy_chain_fuse",
    "detect", "detect_p11", "detect_p12", "detect_p13", "detect_p21", "detect_p22",
    "detect_p23", "detect_p31", "detect_p32", "detect_p33", "draw_amplitudes",
    "load_measurements", "narrowband_channel",
    "normalize_channel", "partition_cv", "radial_velocity_to_doppler",
    "run_null", "run_roc",
    "save_measurements", "scan_likelihood_image", "simulate", "wilson_interval",
]

REPORT_FIELDS = [
    "composite", "alphas", "per_channel", "cross_validation", "panel", "degenerate",
    "gain_direction", "noise_null", "noise_alt", "coherences", "extras",
]


def test_public_names_are_pinned():
    assert sorted(glrfusion.__all__) == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert hasattr(glrfusion, name), name


def test_report_fields_are_pinned():
    names = [f.name for f in dataclasses.fields(glrfusion.DetectorReport)]
    assert names == REPORT_FIELDS
