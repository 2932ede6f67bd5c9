"""Property tests: the fusion folds reproduce the known-channel, known-noise panel.

Hypothesis draws the shapes and per-channel scales; a drawn seed fills the
channel matrices, the amplitudes and the noise.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from glrfusion import (
    ChannelModel,
    MeasurementSet,
    channel_message,
    daisy_chain_fuse,
    normalize_channel,
    partition_cv,
    simulate,
)
from conftest import complex_normal
from oracles import detect_p11, projection_form_cv

RTOL = 1e-9


@st.composite
def instances(draw):
    """Channels and data: L in 1-12, J in 1-3, M in 1-8, N_l in J..J+7,
    |g_l| = 10^U(-1,1), sigma_l^2 = 10^U(-3,3), under H0 or H1.

    Twelve channels run the daisy chain's prefix scan at shifts 1, 2, 4 and 8
    with a ragged remainder."""
    n_channels = draw(st.integers(1, 12))
    n_modes = draw(st.integers(1, 3))
    n_snapshots = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels = []
    for _ in range(n_channels):
        n_samples = draw(st.integers(n_modes, n_modes + 7))
        gain = 10.0 ** draw(st.floats(-1.0, 1.0)) * np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        channels.append(ChannelModel(
            matrix=normalize_channel(complex_normal(rng, (n_samples, n_modes))),
            gain=gain,
            noise_variance=10.0 ** draw(st.floats(-3.0, 3.0)),
        ))
    amplitudes = complex_normal(rng, (n_modes, n_snapshots)) if draw(st.booleans()) else None
    ms = simulate(channels, n_snapshots, seed=int(rng.integers(2**31)), amplitudes=amplitudes)
    return channels, ms


@st.composite
def trees(draw, leaves):
    """A random binary tree over the given leaf labels."""
    if len(leaves) == 1:
        return leaves[0]
    split = draw(st.integers(1, len(leaves) - 1))
    return (draw(trees(leaves[:split])), draw(trees(leaves[split:])))


def close(value: float, reference: float, composite: float) -> bool:
    return abs(value - reference) <= RTOL * max(1.0, abs(composite))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_partition_cv_over_any_tree_is_panel_cross_validation(data):
    channels, ms = data.draw(instances())
    order = data.draw(st.permutations(range(len(channels))))
    tree = data.draw(trees(tuple(order)))
    rep = detect_p11(channels, ms)
    result = partition_cv(channels, ms, tree)
    assert len(result.steps) == len(channels) - 1
    assert close(result.cross_validation, rep.cross_validation, rep.composite)
    # Each step adds tail(union) - tail(left) - tail(right), which the
    # projection form computes on the sub-instance of the step's leaves.
    for step in result.steps:
        leaves = step.left + step.right
        split = len(step.left)
        reference = projection_form_cv(
            [channels[i] for i in leaves], MeasurementSet(tuple(ms.block(i) for i in leaves)),
            range(split), range(split, len(leaves))) / ms.n_snapshots
        assert close(step.term, reference, rep.composite)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_daisy_chain_prefix_is_panel_on_prefix(instance):
    channels, ms = instance
    messages = [channel_message(ch, ms.block(i), ms.n_snapshots)
                for i, ch in enumerate(channels)]
    reports = daisy_chain_fuse(messages)
    assert len(reports) == len(channels)
    for k, fused in enumerate(reports, start=1):
        rep = detect_p11(channels[:k], MeasurementSet(ms.blocks[:k]))
        assert close(fused.composite, rep.composite, rep.composite)
        assert close(fused.cross_validation, rep.cross_validation, rep.composite)
        np.testing.assert_allclose(fused.per_channel, rep.per_channel,
                                   rtol=RTOL, atol=RTOL * max(1.0, abs(rep.composite)))
