"""The package's public surface."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import textwrap

import glrfusion

PUBLIC_NAMES = [
    "ChannelKnowledge", "ChannelMessage", "ChannelModel", "ConfigError",
    "DegenerateDataError", "DetectorReport", "DimensionError", "ExperimentSpec",
    "GlrFusionError", "KnowledgeSpec", "LikelihoodImage",
    "MeasurementSet", "NoiseKnowledge", "NullDistribution", "PropagationSpec",
    "ProtocolError", "RankDeficiencyError", "RocCurve", "Scenario",
    "ThresholdCalibration", "balanced_tree",
    "build_narrowband_h", "calibrate_threshold", "chain_tree", "channel_message",
    "daisy_chain_fuse", "detect", "draw_amplitudes",
    "load_measurements", "narrowband_channel",
    "normalize_channel", "partition_cv", "radial_velocity_to_doppler",
    "run_null", "run_roc",
    "save_measurements", "scan_likelihood_image", "simulate", "wilson_interval",
]

REPORT_FIELDS = [
    "composite", "alphas", "per_channel", "cross_validation", "panel", "degenerate",
    "gain_direction", "noise_null", "noise_alt", "coherences", "fusion_stats",
]

SPEC_FIELDS = [
    "carrier_hz", "sample_period_s", "n_samples", "n_modes", "delay_s", "doppler_hz",
    "clock_offset_s",
]


def test_public_names_are_pinned():
    assert sorted(glrfusion.__all__) == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert hasattr(glrfusion, name), name


def test_report_fields_are_pinned():
    names = [f.name for f in dataclasses.fields(glrfusion.DetectorReport)]
    assert names == REPORT_FIELDS


def test_propagation_spec_fields_are_pinned():
    names = [f.name for f in dataclasses.fields(glrfusion.PropagationSpec)]
    assert names == SPEC_FIELDS


IMPORT_FOOTPRINT = textwrap.dedent("""
    import math
    import sys

    import glrfusion
    import glrfusion.cli

    loaded = sorted(name for name in sys.modules
                    if name.split(".")[0] in ("scipy", "concurrent", "multiprocessing"))
    assert not loaded, f"importing glrfusion and its CLI loaded {loaded}"

    from glrfusion import ExperimentSpec, KnowledgeSpec, PropagationSpec, Scenario, run_null

    spec = PropagationSpec(carrier_hz=1e6, sample_period_s=1e-3, n_samples=8, n_modes=2)
    scenario = Scenario(specs=(spec, spec), gains=(1.0, 0.5j), noise_variances=(2.0, 2.0),
                        n_snapshots=4)
    null = run_null(ExperimentSpec(panel=KnowledgeSpec.from_panel("P12"),
                                   scenario=scenario, trials=200, seed=1))
    assert null.ks_reference == "beta", null.ks_reference
    assert math.isfinite(null.ks_pvalue), null.ks_pvalue
    assert "scipy.stats" in sys.modules
""")


def test_import_loads_no_scipy_stats_until_a_ks_test():
    # A fresh interpreter: this process has imported scipy.stats already.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c",
                             IMPORT_FOOTPRINT], env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
