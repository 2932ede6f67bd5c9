"""Unit tests for partition identities and daisy-chained fusion."""

from __future__ import annotations

import dataclasses
import json
import warnings

import numpy as np
import pytest

from glrfusion import (
    ChannelMessage,
    ChannelModel,
    ConfigError,
    DimensionError,
    MeasurementSet,
    ProtocolError,
    RankDeficiencyError,
    balanced_tree,
    chain_tree,
    channel_message,
    daisy_chain_fuse,
    normalize_channel,
    partition_cv,
    simulate,
)
from glrfusion import detectors, fusion
from glrfusion.formats import _format_block, load_messages, save_messages
from glrfusion.fusion import _fold_tree
from conftest import complex_normal, random_channel, random_instance
from oracles import (
    cfar_diag_decomposition,
    composite_gram_form,
    compose_f_whitened,
    detect_p11,
    message_amplitudes,
    ml_amplitudes,
    projection_form_cv,
    qee,
)


def messages_for(chans, ms):
    return [channel_message(c, ms.block(i), ms.n_snapshots)
            for i, c in enumerate(chans)]


def tree_leaves(tree) -> tuple[int, ...]:
    """The leaves of a partition tree from left to right."""
    return (tree,) if isinstance(tree, int) else tree_leaves(tree[0]) + tree_leaves(tree[1])


def partition_two_channels(tree):
    """``partition_cv`` on two random channels and their data, with ``tree``."""
    chans, ms = random_instance(np.random.default_rng(3), n_channels=2)
    return partition_cv(chans, ms, tree)


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
            diff = (message_amplitudes(channel_message(chans[0], ms.block(0), 1))[0]
                    - message_amplitudes(channel_message(chans[1], ms.block(1), 1))[0])
            acc += diff @ diff.conj().T
        empirical = acc / trials
        scale = np.abs(q).max()
        np.testing.assert_allclose(empirical, q, atol=0.05 * scale)


class TestPartitionCv:
    def test_two_channel_matches_quadratic_form(self, rng):
        chans, ms = random_instance(rng, n_channels=2)
        result = partition_cv(chans, ms, (0, 1))
        q = qee(chans, [0], [1])
        msgs = messages_for(chans, ms)
        e = message_amplitudes(msgs[0])[0] - message_amplitudes(msgs[1])[0]
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

    def test_mixed_mode_counts_rejected(self, rng):
        chans = [random_channel(rng, 6, 2), random_channel(rng, 6, 3)]
        ms = MeasurementSet((complex_normal(rng, (6, 4)), complex_normal(rng, (6, 4))))
        with pytest.raises(ConfigError, match="channel 1 has 3 modes, expected 2"):
            partition_cv(chans, ms, (0, 1))

    def test_energy_overflow_is_value_error(self, rng):
        # Entries of 1e160 are finite, but their energy is not: partition_cv
        # raises as detect does, and no warning comes first.
        chans, ms = random_instance(rng, n_channels=3)
        huge = MeasurementSet((ms.block(0), 1e160 * ms.block(1), ms.block(2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="energy overflows float64"):
                detect_p11(chans, huge)
            with pytest.raises(ValueError, match="energy overflows float64"):
                partition_cv(chans, huge, balanced_tree(3))
            with pytest.raises(ValueError, match="energy overflows float64"):
                channel_message(chans[1], huge.block(1), huge.n_snapshots)

    def test_deep_chain_matches_daisy_chain(self, rng):
        # A chain over 1200 channels is 1200 levels deep, past Python's
        # default recursion limit of 1000.
        chans = [random_channel(rng, 2, 1) for _ in range(1200)]
        ms = simulate(chans, 3, seed=7, amplitudes=complex_normal(rng, (1, 3)))
        result = partition_cv(chans, ms, chain_tree(1200))
        fused = daisy_chain_fuse(messages_for(chans, ms))[-1]
        assert result.cross_validation == pytest.approx(
            fused.cross_validation, abs=1e-9, rel=1e-9)

    def test_tree_helpers(self):
        assert tree_leaves(chain_tree(4)) == (0, 1, 2, 3)
        assert sorted(tree_leaves(balanced_tree(5))) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("build, arg", [
        (chain_tree, 0), (chain_tree, -3), (balanced_tree, 0), (balanced_tree, -3),
        (partition_two_channels, (True, 0)), (partition_two_channels, ((0, 1), False)),
    ], ids=["chain-0", "chain-negative", "balanced-0", "balanced-negative",
            "bool-leaf", "nested-bool-leaf"])
    def test_empty_tree_or_bool_leaf_rejected(self, build, arg):
        with pytest.raises(ConfigError, match="at least one channel|malformed partition tree"):
            build(arg)


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
            sub = detect_p11(chans[:k], MeasurementSet(ms.blocks[:k]))
            assert reports[k - 1].composite == pytest.approx(
                sub.composite, abs=1e-9, rel=1e-9)

    def test_dropped_channel_equals_survivor_subset(self, rng):
        chans, ms = random_instance(rng, n_channels=3)
        msgs = messages_for(chans, ms)
        del msgs[1]
        final = daisy_chain_fuse(msgs)[-1]
        sub = detect_p11([chans[0], chans[2]], MeasurementSet((ms.block(0), ms.block(2))))
        assert final.composite == pytest.approx(sub.composite, abs=1e-9, rel=1e-9)

    def test_energy_overflow_is_value_error(self, rng):
        msgs = messages_for(*random_instance(rng, n_channels=3))
        msgs[1] = ChannelMessage(factor=msgs[1].factor, coordinates=1e160 * msgs[1].coordinates)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="energy overflows float64"):
                daisy_chain_fuse(msgs)

    def test_reports_are_each_prefix(self, rng):
        # The reports skip DetectorReport's checks, which daisy_chain_fuse runs
        # in one batch; dataclasses.replace runs them again on each report.
        chans, ms = random_instance(rng, n_channels=6)
        msgs = messages_for(chans, ms)
        stats = np.array([msg.statistic for msg in msgs])
        reports = daisy_chain_fuse(msgs)
        assert len(reports) == 6
        for k, report in enumerate(reports, start=1):
            dataclasses.replace(report)
            assert set(vars(report)) == {f.name for f in dataclasses.fields(report)}
            np.testing.assert_array_equal(report.alphas, np.full(k, 1.0 / k))
            np.testing.assert_array_equal(report.per_channel, stats[:k])
            expected = float(stats[:k].mean()) - report.cross_validation
            assert abs(report.composite - expected) <= 1e-14 * max(1.0, abs(expected))
            assert not report.degenerate and report.fusion_stats is None

    def test_missing_field_named(self, rng, tmp_path):
        root = save_messages(messages_for(*random_instance(rng, n_channels=2)), tmp_path / "m")
        header = json.loads((root / "header.json").read_text())
        del header["messages"][1]["coordinates"]
        (root / "header.json").write_text(json.dumps(header))
        with pytest.raises(ProtocolError, match="missing field 'coordinates'"):
            load_messages(root)

    def test_non_message_rejected(self, rng):
        msg = messages_for(*random_instance(rng, n_channels=1))[0]
        mapping = {"factor": msg.factor, "coordinates": msg.coordinates}
        with pytest.raises(ProtocolError, match="message 1 is a dict, not a ChannelMessage"):
            daisy_chain_fuse([msg, mapping])

    def test_amplitude_columns_must_match_snapshots(self, rng):
        chans, ms = random_instance(rng, n_channels=1, n_modes=2, n_snapshots=6)
        with pytest.raises(DimensionError, match="6 columns for n_snapshots=4"):
            channel_message(chans[0], ms.block(0), 4)

    def test_mode_count_mismatch_names_message(self, rng):
        chans, ms = random_instance(rng, n_channels=2, n_modes=2, n_snapshots=5)
        other, ms_other = random_instance(rng, n_channels=1, n_modes=3, n_snapshots=5)
        msgs = messages_for(chans, ms) + messages_for(other, ms_other)
        with pytest.raises(ProtocolError, match=r"message 2 carries \(J, M\) = \(3, 5\)"):
            daisy_chain_fuse(msgs)

    def test_message_round_trip(self, rng, tmp_path):
        chans, ms = random_instance(rng, n_channels=2)
        msgs = messages_for(chans, ms)
        save_messages(msgs, tmp_path / "msgs")
        back = load_messages(tmp_path / "msgs")
        assert len(back) == 2
        for orig, loaded in zip(msgs, back):
            assert loaded.statistic == pytest.approx(orig.statistic, rel=1e-15)
            np.testing.assert_array_equal(loaded.factor, orig.factor)
            np.testing.assert_array_equal(loaded.coordinates, orig.coordinates)

    @pytest.mark.parametrize("version", [1, 99])
    def test_unknown_version_rejected(self, rng, tmp_path, version):
        root = save_messages(messages_for(*random_instance(rng, n_channels=2)), tmp_path / "m")
        header = json.loads((root / "header.json").read_text())
        header["version"] = version
        (root / "header.json").write_text(json.dumps(header))
        with pytest.raises(ConfigError, match=f"version {version} .*expected version 2"):
            load_messages(root)


def write_message_file(root, factor, coordinates):
    """One message in the on-disk layout of ``save_messages``, from raw arrays."""
    root.mkdir()
    for name, block in (("factor.csv", factor), ("coordinates.csv", coordinates)):
        (root / name).write_text(_format_block(np.asarray(block, dtype=complex)))
    entry = {"n_modes": coordinates.shape[0], "n_snapshots": coordinates.shape[1],
             "factor": "factor.csv", "coordinates": "coordinates.csv"}
    (root / "header.json").write_text(json.dumps(
        {"format": "glrfusion-messages", "version": 2, "messages": [entry]}))
    return root


class TestMessageValidation:
    @pytest.mark.parametrize("factor, coordinates", [
        (np.zeros((0, 0)), np.zeros((0, 4))),
        (np.eye(2), np.zeros((2, 0))),
    ], ids=["no-modes", "no-snapshots"])
    def test_empty_message_rejected(self, tmp_path, factor, coordinates):
        with pytest.raises(DimensionError, match="empty"):
            daisy_chain_fuse([ChannelMessage(factor=factor, coordinates=coordinates)])
        with pytest.raises(DimensionError):
            load_messages(write_message_file(tmp_path / "m", factor, coordinates))

    @pytest.mark.parametrize("field, value", [
        ("n_modes", None), ("n_modes", True), ("n_snapshots", 2.0), ("factor", 5),
    ])
    def test_mistyped_entry_rejected(self, rng, tmp_path, field, value):
        root = write_message_file(tmp_path / "m", np.eye(2), complex_normal(rng, (2, 3)))
        header = json.loads((root / "header.json").read_text())
        header["messages"][0][field] = value
        (root / "header.json").write_text(json.dumps(header))
        with pytest.raises(ConfigError, match=f"message entry 0 .*'{field}' has the wrong type"):
            load_messages(root)

    def test_singular_factor_rejected(self, rng, tmp_path):
        factor = np.ones((2, 2))
        coordinates = complex_normal(rng, (2, 3))
        with pytest.raises(RankDeficiencyError, match="message factor"):
            daisy_chain_fuse([ChannelMessage(factor=factor, coordinates=coordinates)])
        with pytest.raises(RankDeficiencyError, match="message factor"):
            load_messages(write_message_file(tmp_path / "m", factor, coordinates))

    def test_message_without_snapshots_rejected(self, rng):
        ch = random_channel(rng, 6, 2)
        with pytest.raises(DimensionError, match="empty"):
            channel_message(ch, np.zeros((6, 0)), 0)

    def test_factor_shape_must_match_modes(self, rng):
        with pytest.raises(DimensionError, match=r"factor shape \(3, 3\) does not match J=2"):
            ChannelMessage(factor=np.eye(3), coordinates=complex_normal(rng, (2, 4)))

    def test_zero_gain_channel_rejected(self, rng):
        ch = ChannelModel(matrix=normalize_channel(complex_normal(rng, (6, 2))), gain=0.0,
                          noise_variance=1.0)
        with pytest.raises(RankDeficiencyError):
            channel_message(ch, complex_normal(rng, (6, 4)), 4)

    @pytest.mark.parametrize("gain, variance, error", [
        (0.0, 1.0, RankDeficiencyError), (1e-310, 1.0, RankDeficiencyError),
        (1e-300j, 1e20, RankDeficiencyError), (1e300, 1e-300, ValueError),
    ], ids=["zero", "subnormal", "underflow", "overflow"])
    def test_gain_out_of_float_range_rejected(self, rng, gain, variance, error):
        # channel_message gates only g / sigma: a factor whose scaled singular
        # values vanish or underflow has lost rank, and a non-finite one
        # raises as a non-finite message factor does.
        ch = ChannelModel(matrix=normalize_channel(complex_normal(rng, (6, 2))), gain=gain,
                          noise_variance=variance)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match="message factor"):
                channel_message(ch, complex_normal(rng, (6, 4)), 4)

    @pytest.mark.parametrize("gain", [1e-290, 1e290], ids=["small", "large"])
    def test_gain_inside_float_range_matches_rank_gated_message(self, rng, gain):
        ch = ChannelModel(matrix=normalize_channel(complex_normal(rng, (6, 2))), gain=gain,
                          noise_variance=2.0)
        message = channel_message(ch, complex_normal(rng, (6, 4)), 4)
        gated = ChannelMessage(factor=message.factor, coordinates=message.coordinates)
        np.testing.assert_array_equal(gated.factor, message.factor)


def count_linalg_calls(monkeypatch, call) -> dict[str, int]:
    """The ``np.linalg.qr`` and ``np.linalg.svd`` calls that ``call()`` makes."""
    counts = {"qr": 0, "svd": 0}
    for name in counts:
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    call()
    monkeypatch.undo()
    return counts


class TestBatchedFolds:
    """One batched QR per tree height or scan round, and one gate SVD per call."""

    @staticmethod
    def cached_instance(rng, n_channels, n_samples=6, n_modes=2):
        chans = [random_channel(rng, n_samples, n_modes) for _ in range(n_channels)]
        ms = simulate(chans, 4, seed=3, amplitudes=complex_normal(rng, (n_modes, 4)))
        for ch in chans:  # the bases are cached before counting
            ch.basis, ch.coupling, ch.singular_values
        return chans, ms

    @pytest.mark.parametrize("tree, qr_calls", [(balanced_tree(8), 3), (chain_tree(8), 7)],
                             ids=["balanced", "chain"])
    def test_partition_cv_folds_each_height_in_one_call(self, rng, monkeypatch, tree, qr_calls):
        chans, ms = self.cached_instance(rng, 8)
        counts = count_linalg_calls(monkeypatch, lambda: partition_cv(chans, ms, tree))
        assert counts == {"qr": qr_calls, "svd": 1}

    @pytest.mark.parametrize("n_channels, qr_calls", [(8, 3), (1200, 11)])
    def test_daisy_chain_scans_in_log_rounds(self, rng, monkeypatch, n_channels, qr_calls):
        chans, ms = self.cached_instance(rng, n_channels, n_samples=2, n_modes=1)
        msgs = messages_for(chans, ms)
        counts = count_linalg_calls(monkeypatch, lambda: daisy_chain_fuse(msgs))
        assert counts == {"qr": qr_calls, "svd": 1}

    def test_partition_cv_builds_no_message(self, rng, monkeypatch):
        chans, ms = self.cached_instance(rng, 8)
        calls = []
        monkeypatch.setattr(fusion, "channel_message", lambda *args: calls.append(args))
        partition_cv(chans, ms, balanced_tree(8))
        assert calls == []

    def test_partition_cv_leaf_states_are_the_messages(self, rng, monkeypatch):
        # Bit for bit: partition_cv's one-pass leaves are channel_message's.
        chans, ms = self.cached_instance(rng, 8)
        seen = []

        def spy(states, tree, _fold_tree=fusion._fold_tree):
            seen.append(states.copy())
            return _fold_tree(states, tree)
        monkeypatch.setattr(fusion, "_fold_tree", spy)
        partition_cv(chans, ms, balanced_tree(8))
        expected = [np.hstack((msg.factor, msg.coordinates)) for msg in messages_for(chans, ms)]
        np.testing.assert_array_equal(seen[0], np.array(expected))

    def test_daisy_chain_checks_reports_in_one_batch(self, rng, monkeypatch):
        chans, ms = self.cached_instance(rng, 8)
        msgs = messages_for(chans, ms)
        calls = []

        def counted(*args, _check=detectors.check_decomposition, **kwargs):
            calls.append(args)
            return _check(*args, **kwargs)
        monkeypatch.setattr(fusion, "check_decomposition", counted)
        monkeypatch.setattr(detectors, "check_decomposition", counted)
        daisy_chain_fuse(msgs)
        assert len(calls) == 1

    def test_gate_fires_on_singular_stack(self, rng):
        # cond([A; B]) <= max(cond A, cond B), by the mediant inequality on
        # lambda_max / lambda_min of A^H A + B^H B, so on gated messages the
        # fold's gate can trip only by rounding; it is kept as a guard.  Two
        # unchecked messages with the same singular factor reach it.
        singular = np.ones((2, 2), dtype=complex)
        msgs = [ChannelMessage._unchecked(singular, complex_normal(rng, (2, 3)))
                for _ in range(2)]
        with pytest.raises(RankDeficiencyError, match="fused channel"):
            daisy_chain_fuse(msgs)
        with pytest.raises(RankDeficiencyError, match="fused channel"):
            _fold_tree(np.array([np.hstack((msg.factor, msg.coordinates)) for msg in msgs]),
                       (0, 1))

    def test_coordinate_overflow_is_value_error(self, rng):
        ch = ChannelModel(matrix=normalize_channel(complex_normal(rng, (6, 2))), gain=1e-200,
                          noise_variance=1e-300)
        x = np.full((6, 4), 1e200, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="message coordinates"):
                channel_message(ch, x, 4)


@pytest.mark.parametrize("eps", [3e-6, 3e-8], ids=["ratio-1e-6", "ratio-1e-8"])
def test_near_parallel_channels_match_detector(eps):
    # Columns c and c + eps d: far above the rank gate, but the Gram matrices
    # H^H H are ill-conditioned (about 1e12 and 1e16), so the folds must not
    # invert them.
    rng = np.random.default_rng(11)
    chans = []
    for _ in range(3):
        c, d = complex_normal(rng, (8, 1)), complex_normal(rng, (8, 1))
        h = normalize_channel(np.hstack([c, c + eps * d]))
        s = np.linalg.svd(h, compute_uv=False)
        assert 0.1 * eps < s[-1] / s[0] < 10 * eps
        chans.append(ChannelModel(matrix=h, gain=complex_normal(rng, ()),
                                  noise_variance=float(rng.uniform(0.5, 2.0))))
    ms = simulate(chans, 6, seed=3, amplitudes=complex_normal(rng, (2, 6)))
    rep = detect_p11(chans, ms)
    tol = 1e-9 * max(1.0, abs(rep.composite))
    fused = daisy_chain_fuse(messages_for(chans, ms))[-1]
    assert abs(fused.composite - rep.composite) <= tol
    assert abs(fused.cross_validation - rep.cross_validation) <= tol
    for tree in (chain_tree(3), balanced_tree(3)):
        result = partition_cv(chans, ms, tree)
        assert abs(result.cross_validation - rep.cross_validation) <= tol


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


@pytest.mark.parametrize("header, problem", [
    ([{"format": "glrfusion-messages"}], "does not hold a JSON object"),
    ({"format": "glrfusion-messages", "version": 2}, "missing the key 'messages'"),
    ({"format": "glrfusion-messages", "version": 2, "messages": [1]},
     "message entry 0 .* is not an object: 1"),
    ({"format": "glrfusion-messages", "version": 2, "messages": 5},
     "'messages' .* is not a list: 5"),
], ids=["not-an-object", "no-messages-key", "entry-not-an-object", "messages-not-a-list"])
def test_malformed_message_header_is_config_error(tmp_path, header, problem):
    (tmp_path / "header.json").write_text(json.dumps(header))
    with pytest.raises(ConfigError, match=problem):
        load_messages(tmp_path)
