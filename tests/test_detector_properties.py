"""Property tests: every panel builds its decomposition and keeps its invariances.

Hypothesis draws the shapes, the gains, the noise variances, the signal
amplitude and the data scale factors; a drawn seed fills the channel
matrices, the amplitudes and the noise.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from glrfusion import ChannelModel, KnowledgeSpec, detect, normalize_channel, simulate
from conftest import complex_normal
from oracles import build_fusion_t, rayleigh_extremes

RTOL = 1e-9
ALL_PANELS = [f"P{row}{col}" for row in "123" for col in "123"]


@st.composite
def instances(draw, panel: str, max_log_amplitude: float = 6.0):
    """Channels and data for ``panel``: L in 1-4, J in 1-3, M and N_l up to
    J+7, |g_l| = 10^U(-1,0.5), sigma_l^2 = 10^U(-2,2), under H0 or under H1
    with amplitudes scaled by 10^U(-2, max_log_amplitude).  Row 2 gets
    orthonormal channels; row 3 at least J snapshots, and on column 3 more
    than J samples per channel, as its residual needs."""
    row, col = panel[1], panel[2]
    n_channels = draw(st.integers(1, 4))
    n_modes = draw(st.integers(1, 3))
    n_snapshots = draw(st.integers(n_modes if row == "3" else 1, n_modes + 7))
    min_samples = n_modes + 1 if (row, col) == ("3", "3") else n_modes
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels = []
    for _ in range(n_channels):
        h = complex_normal(rng, (draw(st.integers(min_samples, n_modes + 7)), n_modes))
        h = np.linalg.qr(h)[0] if row == "2" else normalize_channel(h)
        gain = 10.0 ** draw(st.floats(-1.0, 0.5)) * np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        channels.append(ChannelModel(matrix=h, gain=gain,
                                     noise_variance=10.0 ** draw(st.floats(-2.0, 2.0))))
    amplitudes = None
    if draw(st.booleans()):
        scale = 10.0 ** draw(st.floats(-2.0, max_log_amplitude))
        amplitudes = scale * complex_normal(rng, (n_modes, n_snapshots))
    ms = simulate(channels, n_snapshots, seed=int(rng.integers(2**31)), amplitudes=amplitudes)
    return channels, ms


def close(value: float, reference: float, composite: float) -> bool:
    return abs(value - reference) <= RTOL * max(1.0, abs(composite))


def assert_same_report(scaled, base, gain: float = 1.0) -> None:
    """``scaled`` equals ``base`` with its composite, cross-validation term
    and per-channel statistics multiplied by ``gain``."""
    assert scaled.degenerate == base.degenerate
    if base.degenerate:
        return
    assert close(scaled.composite / gain, base.composite, base.composite)
    assert close(scaled.cross_validation / gain, base.cross_validation, base.composite)
    np.testing.assert_allclose(scaled.alphas, base.alphas, rtol=RTOL, atol=RTOL)
    np.testing.assert_allclose(scaled.per_channel / gain, base.per_channel,
                               rtol=RTOL, atol=RTOL * max(1.0, abs(base.composite)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALL_PANELS), st.data())
def test_report_builds_or_is_flagged_degenerate(panel, data):
    channels, ms = data.draw(instances(panel))
    rep = detect(KnowledgeSpec.from_panel(panel), channels, ms)
    if rep.degenerate:
        return
    assert math.isfinite(rep.composite) and math.isfinite(rep.cross_validation)
    assert np.all(rep.alphas >= 0.0) and abs(rep.alphas.sum() - 1.0) <= 1e-10
    assert close(float(rep.alphas @ rep.per_channel) - rep.cross_validation,
                 rep.composite, rep.composite)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["P11", "P21", "P31"]), st.data())
def test_known_noise_scales_quadratically(panel, data):
    channels, ms = data.draw(instances(panel, max_log_amplitude=1.0))
    c = 10.0 ** data.draw(st.floats(-100.0, 100.0)) * np.exp(1j * data.draw(st.floats(0.0, 6.3)))
    spec = KnowledgeSpec.from_panel(panel)
    base = detect(spec, channels, ms)
    assert_same_report(detect(spec, channels, ms.scaled([c] * ms.n_channels)), base, abs(c) ** 2)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["P12", "P22", "P32"]), st.data())
def test_common_unknown_noise_is_invariant_to_a_common_factor(panel, data):
    channels, ms = data.draw(instances(panel, max_log_amplitude=1.0))
    c = 10.0 ** data.draw(st.floats(-150.0, 150.0)) * np.exp(1j * data.draw(st.floats(0.0, 6.3)))
    spec = KnowledgeSpec.from_panel(panel)
    assert_same_report(detect(spec, channels, ms.scaled([c] * ms.n_channels)),
                       detect(spec, channels, ms))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["P13", "P23", "P33"]), st.data())
def test_per_channel_noise_is_invariant_to_per_channel_factors(panel, data):
    # Positive factors: P13 projects onto the unwhitened composite coupling,
    # so a phase per channel moves its composite.
    channels, ms = data.draw(instances(panel, max_log_amplitude=1.0))
    factors = [10.0 ** data.draw(st.floats(-150.0, 150.0)) for _ in range(ms.n_channels)]
    spec = KnowledgeSpec.from_panel(panel)
    assert_same_report(detect(spec, channels, ms.scaled(factors)), detect(spec, channels, ms))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["P21", "P22", "P23"]), st.data())
def test_gain_row_cross_validation_is_smallest_fusion_eigenvalue(panel, data):
    # At amplitudes up to 10 the eigh of the fusion matrix is itself accurate.
    channels, ms = data.draw(instances(panel, max_log_amplitude=1.0))
    rep = detect(KnowledgeSpec.from_panel(panel), channels, ms)
    if rep.degenerate:
        return
    stats = rep.fusion_stats if panel == "P23" else rep.per_channel
    fusion = rayleigh_extremes(build_fusion_t(rep.alphas, stats, rep.coherences))
    assert close(rep.cross_validation, fusion.min_value, rep.composite)
