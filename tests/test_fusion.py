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
from glrfusion import detectors, fusion, linalg
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


def same_bits(a, b) -> bool:
    """Whether two nests of tuples and lists hold the same arrays and numbers, bit for bit."""
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same_bits(x, y) for x, y in zip(a, b)))
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def report_values(reports):
    """Every value of each report in a list, for a bitwise comparison."""
    return [(r.composite, r.cross_validation, r.per_channel, r.alphas) for r in reports]


def fused_values(channels, ms, tree):
    """Every message, daisy-chain report value and partition step of one data set."""
    msgs = messages_for(channels, ms)
    reports = daisy_chain_fuse(msgs)
    result = partition_cv(channels, ms, tree)
    return ([(msg.factor, msg.coordinates) for msg in msgs],
            report_values(reports),
            [(step.left, step.right, step.term) for step in result.steps],
            result.raw_total)


class Opaque(tuple):
    """A tree node that refuses to be hashed or compared."""

    def __eq__(self, other):
        raise AssertionError("a tree node was compared")

    __ne__ = __eq__

    def __hash__(self):
        raise AssertionError("a tree node was hashed")


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
        # default recursion limit of 1000, where hashing or comparing the
        # nested tuple would recurse in C: a chain of nodes that refuse both
        # folds as the plain chain does, on its first call and on the call
        # that reuses its plan.
        chans = [random_channel(rng, 2, 1) for _ in range(1200)]
        ms = simulate(chans, 3, seed=7, amplitudes=complex_normal(rng, (1, 3)))
        result = partition_cv(chans, ms, chain_tree(1200))
        fused = daisy_chain_fuse(messages_for(chans, ms))[-1]
        assert result.cross_validation == pytest.approx(
            fused.cross_validation, abs=1e-9, rel=1e-9)
        opaque = 0
        for k in range(1, 1200):
            opaque = Opaque((opaque, k))
        for _ in range(2):
            assert partition_cv(chans, ms, opaque).raw_total == result.raw_total

    def test_tree_helpers(self):
        assert tree_leaves(chain_tree(4)) == (0, 1, 2, 3)
        assert sorted(tree_leaves(balanced_tree(5))) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("build", [chain_tree, balanced_tree])
    def test_integer_like_count_builds_a_tree_of_plain_ints(self, rng, build):
        tree = build(np.int64(3))
        assert tree == build(3)
        assert all(type(leaf) is int for leaf in tree_leaves(tree))
        chans, ms = random_instance(rng, n_channels=3)
        expected = partition_cv(chans, ms, build(3)).raw_total
        assert partition_cv(chans, ms, tree).raw_total == expected

    @pytest.mark.parametrize("build, count", [
        (balanced_tree, 2.5), (chain_tree, 3.0), (balanced_tree, True), (chain_tree, False),
        (balanced_tree, np.float64(3.0)), (chain_tree, "3"),
    ], ids=["balanced-float", "chain-float", "balanced-bool", "chain-bool",
            "balanced-numpy-float", "chain-str"])
    def test_non_integer_count_rejected(self, build, count):
        with pytest.raises(ConfigError, match="channel count must be an integer"):
            build(count)

    def test_integer_leaves_of_any_type(self, rng):
        chans, ms = random_instance(rng, n_channels=3)
        plain = partition_cv(chans, ms, ((0, 1), 2))
        mixed = partition_cv(chans, ms, ((np.int64(0), np.intp(1)), np.int32(2)))
        assert same_bits([(s.left, s.right, s.term) for s in mixed.steps],
                         [(s.left, s.right, s.term) for s in plain.steps])
        assert all(type(leaf) is int for s in mixed.steps for leaf in s.left + s.right)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)],
                             ids=["nan", "inf", "imaginary-inf"])
    def test_non_finite_data_is_caught_by_the_leaf(self, rng, bad):
        # The block is scanned for non-finite entries only once its leaf's
        # energy check fails, and that error wins over a failed gate.
        x = complex_normal(rng, (6, 4))
        x[2, 1] = bad
        gated = ChannelModel(matrix=normalize_channel(complex_normal(rng, (6, 2))), gain=0.0,
                             noise_variance=1.0)
        for ch in (random_channel(rng, 6, 2), gated):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="channel data contains non-finite entries"):
                    channel_message(ch, x, 4)

    def test_wrong_shape_is_reported_before_non_finite_data(self, rng):
        ch = random_channel(rng, 6, 2)
        x = complex_normal(rng, (5, 4))
        x[0, 0] = np.nan
        with pytest.raises(DimensionError, match="channel expects 6 samples, data block has 5"):
            channel_message(ch, x, 4)
        x = complex_normal(rng, (6, 4))
        x[0, 0] = np.nan
        with pytest.raises(DimensionError, match="4 columns for n_snapshots=3"):
            channel_message(ch, x, 3)
        with pytest.raises(DimensionError, match="must be 2-D"):
            channel_message(ch, x[None], 4)

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
        (1.5e308 + 1.5e308j, 1.0, ValueError),
    ], ids=["zero", "subnormal", "underflow", "overflow", "modulus-overflow"])
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

    def test_underflowing_scale_raises_on_every_call(self, rng):
        # A cached property keeps no exception: the channel keeps no factor
        # and gates it again on each call.
        ch = ChannelModel(matrix=normalize_channel(complex_normal(rng, (6, 2))), gain=1e-310,
                          noise_variance=1.0)
        x = complex_normal(rng, (6, 4))
        for _ in range(2):
            with pytest.raises(RankDeficiencyError, match="underflows"):
                channel_message(ch, x, 4)
            with pytest.raises(RankDeficiencyError, match="underflows"):
                partition_cv([ch], MeasurementSet((x,)), 0)
        assert "whitened_coupling" not in vars(ch)

    @pytest.mark.parametrize("gain", [1e-290, 1e290], ids=["small", "large"])
    def test_gain_inside_float_range_matches_rank_gated_message(self, rng, gain):
        ch = ChannelModel(matrix=normalize_channel(complex_normal(rng, (6, 2))), gain=gain,
                          noise_variance=2.0)
        message = channel_message(ch, complex_normal(rng, (6, 4)), 4)
        gated = ChannelMessage(factor=message.factor, coordinates=message.coordinates)
        np.testing.assert_array_equal(gated.factor, message.factor)


def forget_fold_bases() -> None:
    """Drop the fold constants both entry points keep, and partition_cv's leaf
    constants, so that their next calls are cold."""
    fusion._last_tree_bases = fusion._last_chain_bases = fusion._last_leaf_bases = None


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
    """On a cold call, one batched QR per tree height or scan round, and one gate SVD."""

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
        forget_fold_bases()
        counts = count_linalg_calls(monkeypatch, lambda: partition_cv(chans, ms, tree))
        assert counts == {"qr": qr_calls, "svd": 1}

    @pytest.mark.parametrize("n_channels, qr_calls", [(8, 3), (1200, 11)])
    def test_daisy_chain_scans_in_log_rounds(self, rng, monkeypatch, n_channels, qr_calls):
        chans, ms = self.cached_instance(rng, n_channels, n_samples=2, n_modes=1)
        msgs = messages_for(chans, ms)
        forget_fold_bases()
        counts = count_linalg_calls(monkeypatch, lambda: daisy_chain_fuse(msgs))
        assert counts == {"qr": qr_calls, "svd": 1}

    def test_partition_cv_builds_no_message(self, rng, monkeypatch):
        chans, ms = self.cached_instance(rng, 8)
        calls = []
        monkeypatch.setattr(fusion, "channel_message", lambda *args: calls.append(args))
        partition_cv(chans, ms, balanced_tree(8))
        assert calls == []

    def test_partition_cv_leaf_states_are_the_messages(self, rng, monkeypatch):
        # Bit for bit: partition_cv's batched leaves, one product per block
        # shape, are channel_message's groups of one, on channels of one
        # shape, of three shapes in mixed order, and on one channel.
        seen = []

        def spy(factors, coords, tree, _fold_tree=fusion._fold_tree):
            seen.append(np.concatenate((factors, coords), axis=-1))
            return _fold_tree(factors, coords, tree)
        monkeypatch.setattr(fusion, "_fold_tree", spy)
        for dims in [(6,) * 8, (6, 4, 6, 5, 4, 6, 5, 6), (6,)]:
            chans = [random_channel(rng, n, 2) for n in dims]
            ms = simulate(chans, 4, seed=3, amplitudes=complex_normal(rng, (2, 4)))
            partition_cv(chans, ms, balanced_tree(len(dims)))
            expected = [np.hstack((msg.factor, msg.coordinates))
                        for msg in messages_for(chans, ms)]
            assert same_bits(seen[-1], np.array(expected)), dims

    def test_cold_and_warm_channels_give_the_same_bits(self, rng):
        dims = (6, 4, 6, 5)
        chans = [random_channel(rng, n, 2) for n in dims]
        ms = simulate(chans, 4, seed=3, amplitudes=complex_normal(rng, (2, 4)))
        tree = balanced_tree(4)
        first = fused_values(chans, ms, tree)  # builds each channel's constants
        warm = fused_values(chans, ms, tree)
        cold = fused_values([ChannelModel(matrix=ch.matrix, gain=ch.gain,
                                          noise_variance=ch.noise_variance) for ch in chans],
                            ms, tree)
        assert same_bits(warm, first)
        assert same_bits(cold, first)

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
        # unchecked messages with the same singular factor reach it, and as
        # a failing set's constants are not kept, it trips on every call.
        singular = np.ones((2, 2), dtype=complex)
        msgs = [ChannelMessage._unchecked(singular, complex_normal(rng, (2, 3)))
                for _ in range(2)]
        forget_fold_bases()
        for _ in range(2):
            with pytest.raises(RankDeficiencyError, match="fused channel"):
                daisy_chain_fuse(msgs)
            with pytest.raises(RankDeficiencyError, match="fused channel"):
                _fold_tree(np.array([msg.factor for msg in msgs]),
                           np.array([msg.coordinates for msg in msgs]), (0, 1))
        assert fusion._last_chain_bases is None and fusion._last_tree_bases is None

    def test_coordinate_overflow_is_value_error(self, rng):
        ch = ChannelModel(matrix=normalize_channel(complex_normal(rng, (6, 2))), gain=1e-200,
                          noise_variance=1e-300)
        x = np.full((6, 4), 1e200, dtype=complex)
        # The overflowing channel's block shape is the second group of three.
        others = [random_channel(rng, n, 2) for n in (5, 6, 4)]
        ms = MeasurementSet((complex_normal(rng, (5, 4)), x, complex_normal(rng, (6, 4)),
                             complex_normal(rng, (4, 4))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="message coordinates contains non-finite"):
                channel_message(ch, x, 4)
            with pytest.raises(ValueError, match="message coordinates contains non-finite"):
                partition_cv([others[0], ch, *others[1:]], ms, balanced_tree(4))


class TestFoldPlan:
    """partition_cv walks a tree object once and reuses its plan while the object comes back."""

    def test_second_call_on_a_tree_object_reuses_its_plan(self, rng, monkeypatch):
        chans, ms = TestBatchedFolds.cached_instance(rng, 8)
        tree = balanced_tree(8)
        results = []

        def call():
            results.append(partition_cv(chans, ms, tree))
        forget_fold_bases()
        first = count_linalg_calls(monkeypatch, call)
        second = count_linalg_calls(monkeypatch, call)
        assert first == {"qr": 3, "svd": 1}
        assert second == {"qr": 0, "svd": 0}  # the plan's fold constants are kept too
        assert same_bits(*([(s.left, s.right, s.term) for s in r.steps] for r in results))
        walks = []

        def spy(tree, n, _plan_tree=fusion._plan_tree):
            walks.append(n)
            return _plan_tree(tree, n)
        monkeypatch.setattr(fusion, "_plan_tree", spy)
        partition_cv(chans, ms, tree)
        assert walks == []
        partition_cv(chans, ms, balanced_tree(8))  # an equal tree, but a new object
        assert walks == [8]

    @pytest.mark.parametrize("bad, problem", [
        (((0, 1), [2, 3]), r"malformed partition tree node \[2, 3\]"),
        (((0, 1), (1, 3)), "not a permutation"),
        (((0, 1), (True, 3)), "malformed partition tree node True"),
    ], ids=["list-node", "duplicate-leaf", "bool-leaf"])
    def test_malformed_tree_after_a_kept_plan_raises_on_every_call(self, rng, bad, problem):
        chans, ms = random_instance(rng, n_channels=4)
        good = balanced_tree(4)
        expected = partition_cv(chans, ms, good)
        for _ in range(2):
            with pytest.raises(ConfigError, match=problem):
                partition_cv(chans, ms, bad)
        assert partition_cv(chans, ms, good).raw_total == expected.raw_total

    def test_kept_tree_over_another_channel_count_rejected(self, rng):
        chans, ms = random_instance(rng, n_channels=4)
        tree = balanced_tree(4)
        partition_cv(chans, ms, tree)
        for _ in range(2):
            with pytest.raises(ConfigError, match="not a permutation of 0..2"):
                partition_cv(chans[:3], MeasurementSet(ms.blocks[:3]), tree)

    def test_new_tree_objects_over_the_same_leaves(self, rng, monkeypatch):
        chans, ms = random_instance(rng, n_channels=4)
        trees = [((0, 1), (2, 3)), ((0, 2), (1, 3)), (((0, 1), 2), 3)]
        fresh = []
        for tree in trees:
            monkeypatch.setattr(fusion, "_last_plan", None)
            fresh.append(partition_cv(chans, ms, tree))
        # Each call follows a call on another tree, whose plan was kept.
        for tree, expected in zip(trees, fresh):
            result = partition_cv(chans, ms, tree)
            assert same_bits([(s.left, s.right, s.term) for s in result.steps],
                             [(s.left, s.right, s.term) for s in expected.steps])
        assert [(s.left, s.right) for s in fresh[1].steps] == [
            ((0,), (2,)), ((1,), (3,)), ((0, 2), (1, 3))]


class TestLeafBases:
    """partition_cv keeps its leaf constants for the last channel set, matched by identity."""

    def test_kept_leaf_constants_follow_channel_identity(self, rng, monkeypatch):
        dims = (6, 4, 6, 5)  # three block shapes
        a, b = ([random_channel(rng, n, 2) for n in dims] for _ in range(2))
        rebuilt = [ChannelModel(matrix=ch.matrix, gain=ch.gain, noise_variance=ch.noise_variance)
                   for ch in a]
        ms = simulate(a, 4, seed=3, amplitudes=complex_normal(rng, (2, 4)))
        tree = balanced_tree(4)

        def values(chans):
            result = partition_cv(chans, ms, tree)
            return [(s.left, s.right, s.term) for s in result.steps], result.raw_total
        cold = {}
        for name, chans in (("a", a), ("b", b)):
            forget_fold_bases()
            cold[name] = values(chans)
        builds = []

        def counted(channels, _leaf_bases=fusion._leaf_bases):
            builds.append(len(channels))
            return _leaf_bases(channels)
        monkeypatch.setattr(fusion, "_leaf_bases", counted)
        for chans, name, built in [(a, "a", 1), (b, "b", 1), (a, "a", 1), (list(a), "a", 0),
                                   (rebuilt, "a", 1), (rebuilt, "a", 0), (a[:3], None, 1)]:
            builds.clear()
            if name is None:  # a prefix of the kept set is another set
                partition_cv(chans, MeasurementSet(ms.blocks[:3]), balanced_tree(3))
            else:
                assert same_bits(values(chans), cold[name]), name
            assert len(builds) == built, (name, builds)

    def test_set_with_a_failing_channel_is_not_kept(self, rng):
        chans, ms = random_instance(rng, n_channels=3, n_modes=2)
        tree = balanced_tree(3)
        good = partition_cv(chans, ms, tree)
        kept = fusion._last_leaf_bases
        failing = list(chans)  # channel 1's gain / sigma underflows its factor
        failing[1] = ChannelModel(matrix=chans[1].matrix, gain=1e-310, noise_variance=1.0)
        for _ in range(2):
            with pytest.raises(RankDeficiencyError, match="underflows"):
                partition_cv(failing, ms, tree)
            assert fusion._last_leaf_bases is kept
        assert partition_cv(chans, ms, tree) == good


class TestSlotPlans:
    """Each fold reads slots written before its round: a leaf's or an earlier fold's group."""

    @staticmethod
    def check(plan):
        n, written = plan.n_leaves, set(range(plan.n_leaves))
        for pairs, span in plan.levels:
            assert pairs.shape == (span.stop - span.start, 2)
            assert set(pairs.ravel().tolist()) <= written
            written |= {n + 2 * f for f in range(span.start, span.stop)}
        assert plan.n_slots == n + 2 * plan.n_folds
        return [pair for pairs, _ in plan.levels for pair in pairs.tolist()]

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_tree_reads_each_group_once(self, n):
        for tree in (chain_tree(n), balanced_tree(n)):
            plan = fusion._plan_tree(tree, n)
            reads = [slot for pair in self.check(plan) for slot in pair]
            assert sorted(reads) == sorted([*range(n), *(n + 2 * f for f in range(n - 2))]
                                           if n > 1 else [])
            assert sorted(plan.node_folds.tolist()) == list(range(n - 1))

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_scan_ends_each_prefix_in_its_slot(self, n):
        plan = fusion._scan_plan(n)
        pairs = self.check(plan)
        assert plan.prefix_slots[0] == 0
        assert len(pairs) == plan.n_folds
        if n > 1:  # the last fold that writes entry k leaves prefix k in its even slot
            assert plan.prefix_slots[-1] == n + 2 * (plan.n_folds - 1)


class TestFoldBases:
    """Each entry point folds a channel set's factors once and keeps the constants by value."""

    @staticmethod
    def daisy_values(msgs):
        return [(r.composite, r.cross_validation) for r in daisy_chain_fuse(msgs)]

    def test_warm_calls_make_no_qr_and_no_svd(self, rng, monkeypatch):
        chans, ms = TestBatchedFolds.cached_instance(rng, 8)
        msgs, tree = messages_for(chans, ms), balanced_tree(8)
        forget_fold_bases()
        for call in (lambda: daisy_chain_fuse(msgs), lambda: partition_cv(chans, ms, tree)):
            assert count_linalg_calls(monkeypatch, call) == {"qr": 3, "svd": 1}
            assert count_linalg_calls(monkeypatch, call) == {"qr": 0, "svd": 0}

    def test_one_ulp_in_one_factor_rebuilds(self, rng, monkeypatch):
        chans, ms = TestBatchedFolds.cached_instance(rng, 8)
        tree = balanced_tree(8)
        msgs = messages_for(chans, ms)
        daisy_chain_fuse(msgs)
        partition_cv(chans, ms, tree)
        factor = msgs[5].factor.copy()
        factor[1, 0] = complex(np.nextafter(factor[1, 0].real, np.inf), factor[1, 0].imag)
        msgs[5] = ChannelMessage(factor=factor, coordinates=msgs[5].coordinates)
        assert count_linalg_calls(monkeypatch, lambda: daisy_chain_fuse(msgs)) == {
            "qr": 3, "svd": 1}
        ch = chans[5]  # its gain's real part one ulp larger
        gain = complex(np.nextafter(ch.gain.real, np.inf), ch.gain.imag)
        chans[5] = ChannelModel(matrix=ch.matrix, gain=gain, noise_variance=ch.noise_variance)
        assert not same_bits(chans[5].whitened_coupling, ch.whitened_coupling)
        assert count_linalg_calls(monkeypatch, lambda: partition_cv(chans, ms, tree)) == {
            "qr": 3, "svd": 1}

    def test_arrays_changed_after_construction_leave_the_reports(self, rng):
        # A message keeps read-only copies of the caller's arrays, so writing
        # into them afterwards, a nan included, reaches no check and no report.
        chans, ms = random_instance(rng, n_channels=4, n_modes=2)
        msgs = messages_for(chans, ms)
        expected = report_values(daisy_chain_fuse(msgs))
        factor, coords = np.array(msgs[2].factor), np.array(msgs[2].coordinates)
        msgs[2] = ChannelMessage(factor=factor, coordinates=coords)
        assert not (msgs[2].factor.flags.writeable or msgs[2].coordinates.flags.writeable)
        factor[0, 0] = np.nan
        coords *= 1.5
        forget_fold_bases()
        assert same_bits(report_values(daisy_chain_fuse(msgs)), expected)
        assert same_bits(report_values(daisy_chain_fuse(msgs)), expected)

    def test_channel_message_arrays_are_read_only(self, rng):
        chans, ms = random_instance(rng, n_channels=2, n_modes=2)
        for msg in messages_for(chans, ms):
            for a in (msg.factor, msg.coordinates):
                with pytest.raises(ValueError, match="read-only"):
                    a[0, 0] = 0.0

    def test_alternating_sets_each_give_their_cold_bits(self, rng):
        sets = [random_instance(rng, n_channels=5, n_modes=2, n_snapshots=6) for _ in range(2)]
        tree = balanced_tree(5)
        cold = []
        for chans, ms in sets:
            forget_fold_bases()
            cold.append(fused_values(chans, ms, tree))
        for k in (0, 1, 0, 1):
            assert same_bits(fused_values(*sets[k], tree), cold[k]), k

    def test_loaded_messages_give_the_bits_of_the_originals(self, rng, monkeypatch, tmp_path):
        msgs = messages_for(*random_instance(rng, n_channels=6, n_modes=2))
        forget_fold_bases()
        expected = self.daisy_values(msgs)
        loaded = load_messages(save_messages(msgs, tmp_path / "m"))
        assert not any(a.factor is b.factor for a, b in zip(loaded, msgs))
        values = []
        counts = count_linalg_calls(monkeypatch, lambda: values.append(self.daisy_values(loaded)))
        assert counts == {"qr": 0, "svd": 0}  # equal bytes: the kept constants serve
        assert same_bits(values[0], expected)

    def test_gate_on_kept_constants_raises_on_every_call(self, rng, monkeypatch):
        chans, ms = TestBatchedFolds.cached_instance(rng, 4)
        msgs, tree = messages_for(chans, ms), balanced_tree(4)
        forget_fold_bases()
        cold = fused_values(chans, ms, tree)
        # Every fold's R11 has s_min < s_max, so it fails a relative tolerance of 1.
        monkeypatch.setattr(linalg, "RANK_RTOL", 1.0)
        for _ in range(2):
            with pytest.raises(RankDeficiencyError, match="fused channel"):
                daisy_chain_fuse(msgs)
            with pytest.raises(RankDeficiencyError, match="fused channel"):
                partition_cv(chans, ms, tree)
        monkeypatch.undo()
        assert same_bits(fused_values(chans, ms, tree), cold)


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
