"""Unit tests for partition identities and daisy-chained fusion."""

from __future__ import annotations

import numpy as np
import pytest

from glrfusion import (
    ChannelMessage,
    ConfigError,
    MeasurementSet,
    ProtocolError,
    balanced_tree,
    chain_tree,
    channel_message,
    compose_f_whitened,
    daisy_chain_fuse,
    detect_p11,
    partition_cv,
    simulate,
)
from glrfusion.fusion import load_messages, save_messages, tree_leaves
from glrfusion.measurement import channel_ml_amplitudes, ml_amplitudes
from conftest import complex_normal, random_channel, random_instance
from oracles import cfar_diag_decomposition, composite_gram_form, projection_form_cv, qee


def messages_for(chans, ms):
    return [channel_message(c, ms.block(i), ms.n_snapshots)
            for i, c in enumerate(chans)]


class TestQee:
    def test_two_unit_gain_channels(self, rng):
        chans = [random_channel(rng, n, 2, orthonormal=True, gain=1.0,
                                noise_variance=1.0) for n in (5, 6)]
        np.testing.assert_allclose(qee(chans, [0], [1]), 2 * np.eye(2), atol=1e-10)

    def test_unequal_gains(self, rng):
        chans = [
            random_channel(rng, 5, 2, orthonormal=True, gain=2.0, noise_variance=1.0),
            random_channel(rng, 6, 2, orthonormal=True, gain=1.0, noise_variance=1.0),
        ]
        np.testing.assert_allclose(qee(chans, [0], [1]), 1.25 * np.eye(2), atol=1e-10)

    def test_matches_monte_carlo_difference_covariance(self, rng):
        chans = [random_channel(rng, 5, 2), random_channel(rng, 7, 2)]
        q = qee(chans, [0], [1])
        a = complex_normal(rng, (2, 1))
        trials = 10_000
        acc = np.zeros((2, 2), dtype=complex)
        for t in range(trials):
            ms = simulate(chans, 1, seed=555, amplitudes=a, trial=t)
            diff = (channel_ml_amplitudes(chans[0], ms.block(0))
                    - channel_ml_amplitudes(chans[1], ms.block(1)))
            acc += diff @ diff.conj().T
        empirical = acc / trials
        scale = np.abs(q).max()
        np.testing.assert_allclose(empirical, q, atol=0.05 * scale)


class TestPartitionCv:
    def test_two_channel_matches_quadratic_form(self, rng):
        chans, ms = random_instance(rng, n_channels=2)
        result = partition_cv(chans, ms, (0, 1))
        q = qee(chans, [0], [1])
        e = (channel_ml_amplitudes(chans[0], ms.block(0))
             - channel_ml_amplitudes(chans[1], ms.block(1)))
        see = e @ e.conj().T / ms.n_snapshots
        expected = np.real(np.trace(np.linalg.solve(q, see)))
        assert result.raw_total == pytest.approx(expected, rel=1e-10)
        assert len(result.steps) == 1

    def test_identical_channels_zero_terms(self, rng):
        ch = random_channel(rng, 6, 2)
        x = complex_normal(rng, (6, 5))
        result = partition_cv([ch, ch], MeasurementSet((x, x)), (0, 1))
        assert result.raw_total == pytest.approx(0.0, abs=1e-10)

    def test_tree_shape_independence(self, rng):
        chans, ms = random_instance(rng, n_channels=4)
        balanced = partition_cv(chans, ms, balanced_tree(4))
        chain = partition_cv(chans, ms, chain_tree(4))
        scrambled = partition_cv(chans, ms, ((3, (1, 0)), 2))
        assert balanced.cross_validation == pytest.approx(
            chain.cross_validation, abs=1e-9, rel=1e-9)
        assert balanced.cross_validation == pytest.approx(
            scrambled.cross_validation, abs=1e-9, rel=1e-9)

    def test_matches_detector_penalty(self, rng):
        for n_ch in (2, 3, 5):
            chans, ms = random_instance(rng, n_channels=n_ch)
            rep = detect_p11(chans, ms)
            result = partition_cv(chans, ms, chain_tree(n_ch))
            assert result.cross_validation == pytest.approx(
                rep.cross_validation, abs=1e-9, rel=1e-9)

    def test_steps_nonnegative(self, rng):
        for _ in range(20):
            chans, ms = random_instance(rng, n_channels=3)
            result = partition_cv(chans, ms, balanced_tree(3))
            for step in result.steps:
                assert step.term >= -1e-10

    def test_bad_tree_rejected(self, rng):
        chans, ms = random_instance(rng, n_channels=3)
        with pytest.raises(ConfigError):
            partition_cv(chans, ms, (0, 1))
        with pytest.raises(ConfigError):
            partition_cv(chans, ms, ((0, 1), 1))

    def test_tree_helpers(self):
        assert tree_leaves(chain_tree(4)) == (0, 1, 2, 3)
        assert sorted(tree_leaves(balanced_tree(5))) == [0, 1, 2, 3, 4]


class TestProjectionForm:
    def test_equal_estimates_vanish(self, rng):
        ch = random_channel(rng, 6, 2)
        x = complex_normal(rng, (6, 5))
        value = projection_form_cv([ch, ch], MeasurementSet((x, x)), [0], [1])
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_b_matrix_annihilates_composite_channel(self, rng):
        chans, ms = random_instance(rng, n_channels=4)
        fx = compose_f_whitened([chans[0], chans[1]])
        fy = compose_f_whitened([chans[2], chans[3]])
        qx = np.linalg.inv(fx.conj().T @ fx)
        qy = np.linalg.inv(fy.conj().T @ fy)
        b = np.vstack([fx @ qx, -(fy @ qy)])
        f = np.vstack([fx, fy])
        assert np.linalg.norm(f.conj().T @ b) <= 1e-10

    def test_matches_form_one(self, rng):
        chans, ms = random_instance(rng, n_channels=3)
        value = projection_form_cv(chans, ms, [0, 2], [1])
        q = qee(chans, [0, 2], [1])
        fx = compose_f_whitened([chans[0], chans[2]])
        fy = compose_f_whitened([chans[1]])
        zx = np.vstack([ms.block(0) / chans[0].noise_sigma,
                        ms.block(2) / chans[2].noise_sigma])
        zy = ms.block(1) / chans[1].noise_sigma
        e = ml_amplitudes(fx, zx) - ml_amplitudes(fy, zy)
        see = e @ e.conj().T / ms.n_snapshots
        expected = ms.n_snapshots * np.real(np.trace(np.linalg.solve(q, see)))
        assert value == pytest.approx(expected, abs=1e-9, rel=1e-9)

    def test_trace_identity(self, rng):
        chans, ms = random_instance(rng, n_channels=4)
        lhs = composite_gram_form(chans, ms)
        gx = composite_gram_form(chans, ms, [0, 1])
        gy = composite_gram_form(chans, ms, [2, 3])
        penalty = projection_form_cv(chans, ms, [0, 1], [2, 3])
        assert lhs == pytest.approx(gx + gy - penalty, rel=1e-9)

    def test_groups_must_partition(self, rng):
        chans, ms = random_instance(rng, n_channels=3)
        with pytest.raises(ConfigError):
            projection_form_cv(chans, ms, [0], [1])


class TestDaisyChain:
    def test_two_channel_matches_detector(self, rng):
        chans, ms = random_instance(rng, n_channels=2)
        reports = daisy_chain_fuse(messages_for(chans, ms))
        rep = detect_p11(chans, ms)
        assert reports[-1].composite == pytest.approx(rep.composite, abs=1e-9, rel=1e-9)
        assert reports[-1].cross_validation == pytest.approx(
            rep.cross_validation, abs=1e-9, rel=1e-9)

    def test_order_independence_of_final_composite(self, rng):
        chans, ms = random_instance(rng, n_channels=4)
        msgs = messages_for(chans, ms)
        fwd = daisy_chain_fuse(msgs)[-1]
        rev = daisy_chain_fuse(msgs[::-1])[-1]
        assert fwd.composite == pytest.approx(rev.composite, abs=1e-9, rel=1e-9)

    def test_prefixes_match_subset_detectors(self, rng):
        chans, ms = random_instance(rng, n_channels=4)
        reports = daisy_chain_fuse(messages_for(chans, ms))
        for k in range(1, 5):
            sub = detect_p11(chans[:k], ms.subset(range(k)))
            assert reports[k - 1].composite == pytest.approx(
                sub.composite, abs=1e-9, rel=1e-9)

    def test_dropped_channel_equals_survivor_subset(self, rng):
        chans, ms = random_instance(rng, n_channels=3)
        msgs = messages_for(chans, ms)
        del msgs[1]
        final = daisy_chain_fuse(msgs)[-1]
        sub = detect_p11([chans[0], chans[2]], ms.subset([0, 2]))
        assert final.composite == pytest.approx(sub.composite, abs=1e-9, rel=1e-9)

    def test_mapping_messages_accepted(self, rng):
        chans, ms = random_instance(rng, n_channels=2)
        msgs = [
            {
                "statistic": m.statistic,
                "amplitudes": m.amplitudes,
                "amplitude_covariance": m.amplitude_covariance,
                "n_samples": m.n_samples,
                "n_snapshots": m.n_snapshots,
            }
            for m in messages_for(chans, ms)
        ]
        reports = daisy_chain_fuse(msgs)
        rep = detect_p11(chans, ms)
        assert reports[-1].composite == pytest.approx(rep.composite, rel=1e-9)

    def test_missing_field_named(self, rng):
        chans, ms = random_instance(rng, n_channels=2)
        msg = messages_for(chans, ms)[0]
        broken = {
            "statistic": msg.statistic,
            "amplitudes": msg.amplitudes,
            "n_samples": msg.n_samples,
            "n_snapshots": msg.n_snapshots,
        }
        with pytest.raises(ProtocolError, match="amplitude_covariance"):
            daisy_chain_fuse([broken])

    def test_message_round_trip(self, rng, tmp_path):
        chans, ms = random_instance(rng, n_channels=2)
        msgs = messages_for(chans, ms)
        save_messages(msgs, tmp_path / "msgs")
        back = load_messages(tmp_path / "msgs")
        assert len(back) == 2
        for orig, loaded in zip(msgs, back):
            assert loaded.statistic == pytest.approx(orig.statistic, rel=1e-15)
            np.testing.assert_array_equal(loaded.amplitudes, orig.amplitudes)
            np.testing.assert_array_equal(loaded.amplitude_covariance,
                                          orig.amplitude_covariance)


class TestScaleInvariantDiagonal:
    def test_inversion_lemma_identity(self, rng):
        # Oracle: the i = j term of the scale-invariant composite
        # quadratic expansion equals the weighted per-channel statistic
        # minus the lemma correction.
        for _ in range(10):
            chans, ms = random_instance(rng, n_channels=3)
            for i in range(3):
                direct, weighted, n_ii = cfar_diag_decomposition(chans, ms, i)
                assert direct == pytest.approx(weighted - n_ii, abs=1e-10, rel=1e-9)
                assert n_ii >= -1e-12
