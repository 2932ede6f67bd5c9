"""Unit tests for measurement containers, synthesis, and ML amplitudes."""

from __future__ import annotations

import itertools
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats as sps

from glrfusion import (
    ChannelModel,
    ConfigError,
    MeasurementSet,
    RankDeficiencyError,
    ChannelMessage,
    channel_message,
    load_measurements,
    save_measurements,
    simulate,
)
from glrfusion import measurement
from glrfusion.fusion import save_messages
from glrfusion.measurement import (
    _amplitude_stack,
    _frame,
    _seed_words,
    draw_amplitudes,
    draw_trials,
    rng_stream,
)
from glrfusion.channel import normalize_channel
from glrfusion.linalg import energy
from conftest import complex_normal, random_channel
from oracles import compose_f_whitened, message_amplitudes, ml_amplitudes, sample_covariance


class TestSampleCovariance:
    def test_single_snapshot_outer_product(self, rng):
        z = complex_normal(rng, (5, 1))
        s = sample_covariance(MeasurementSet((z,)))
        np.testing.assert_allclose(s.matrix, z @ z.conj().T, atol=1e-14)

    def test_orthogonal_equal_norm_columns(self, rng):
        # Z with orthogonal equal-norm columns: S is (norm^2 / M) times the
        # sum of rank-one projectors onto the column directions.
        q, _ = np.linalg.qr(complex_normal(rng, (6, 3)))
        norm = 2.3
        z = norm * q
        s = sample_covariance(MeasurementSet((z,)))
        expected = (norm**2 / 3) * sum(
            np.outer(q[:, k], q[:, k].conj()) for k in range(3)
        )
        np.testing.assert_allclose(s.matrix, expected, atol=1e-12)

    def test_trace_is_frobenius_energy(self, rng):
        z = complex_normal(rng, (7, 5))
        s = sample_covariance(MeasurementSet((z,)))
        assert abs(s.trace() - np.linalg.norm(z) ** 2 / 5) <= 1e-10

    def test_blocks_hermitian_pairs(self, rng):
        ms = MeasurementSet((complex_normal(rng, (4, 6)), complex_normal(rng, (5, 6))))
        s = sample_covariance(ms)
        np.testing.assert_allclose(s.block(1, 0), s.block(0, 1).conj().T, atol=1e-10)
        assert s.trace() == pytest.approx(s.trace_block(0) + s.trace_block(1))

    def test_whitened_blocks_match_manual_path(self, rng):
        ms = MeasurementSet((complex_normal(rng, (4, 8)), complex_normal(rng, (3, 8))))
        sigmas = [1.4, 0.6]
        s_w = sample_covariance(ms).whitened(sigmas)
        for i in range(2):
            for j in range(2):
                manual = (ms.block(i) / sigmas[i]) @ (ms.block(j) / sigmas[j]).conj().T / 8
                np.testing.assert_allclose(s_w.block(i, j), manual, atol=1e-10)


class TestSimulate:
    def test_noise_free_limit(self, rng):
        chans = [random_channel(rng, 6, 2, noise_variance=1e-30, gain=1.2 - 0.3j)]
        a = complex_normal(rng, (2, 5))
        ms = simulate(chans, 5, seed=1, amplitudes=a)
        np.testing.assert_allclose(
            ms.block(0), chans[0].gain * chans[0].matrix @ a, atol=1e-12
        )

    def test_determinism(self, rng):
        chans = [random_channel(rng, 5, 1), random_channel(rng, 4, 1)]
        a = simulate(chans, 7, seed=99)
        b = simulate(chans, 7, seed=99)
        for i in range(2):
            np.testing.assert_array_equal(a.block(i), b.block(i))

    def test_distinct_trials_differ(self, rng):
        chans = [random_channel(rng, 5, 1)]
        a = simulate(chans, 7, seed=99, trial=0)
        b = simulate(chans, 7, seed=99, trial=1)
        assert not np.allclose(a.block(0), b.block(0))

    def test_null_energy_law_of_large_numbers(self, rng):
        variances = [0.5, 2.0]
        chans = [random_channel(rng, 6, 1, noise_variance=v) for v in variances]
        ms = simulate(chans, 10_000, seed=3)
        s = sample_covariance(ms)
        expected = sum(6 * v for v in variances) / 12
        assert s.trace() / 12 == pytest.approx(expected, rel=0.05)


class TestRotatedDraws:
    """A trial is drawn in its channels' frames: its coordinates and tail, and
    its blocks from the same draws."""

    def test_blocks_hold_the_drawn_coordinates_and_tails(self, rng):
        # Full rank, N = J, rank deficient (no basis) and N < J channels.
        v = complex_normal(rng, (6, 1))
        channels = [random_channel(rng, 7, 2, gain=1.1 - 0.4j, noise_variance=0.5),
                    random_channel(rng, 2, 2, gain=0.7, noise_variance=2.0),
                    ChannelModel(normalize_channel(np.hstack([v, 2 * v])), 0.9, 1.5),
                    random_channel(rng, 1, 2, gain=1.3j, noise_variance=0.8)]
        trials, m = np.arange(5, 14), 3
        amps = _amplitude_stack(2, m, 2.0, 4, trials)
        null = draw_trials(channels, m, 4, trials, blocks=True)
        alt = draw_trials(channels, m, 4, trials, amps, blocks=True)
        for ch, a, tail, f, x, noise in zip(channels, alt.coords, alt.tails.T, alt.factors,
                                            alt.blocks, null.blocks, strict=True):
            q, _ = _frame(ch)
            np.testing.assert_allclose(q.conj().T @ x, a, rtol=0, atol=1e-13)
            np.testing.assert_allclose(energy(x - q @ a) / m, tail, rtol=1e-12, atol=1e-14)
            # [a; T] has the block's Gram matrix, so its singular values.
            gram = lambda y: y.conj().swapaxes(-1, -2) @ y
            np.testing.assert_allclose(gram(a) + gram(f), gram(x), rtol=0, atol=1e-12)
            assert f.shape[-2] == min(ch.n_samples - q.shape[1], m)
            np.testing.assert_allclose(x - noise, ch.gain * (ch.matrix @ amps), rtol=0,
                                       atol=1e-13)

    def test_tail_and_coordinate_laws(self, rng):
        # On ragged channels tail_l M / sigma_l^2 ~ Gamma((N_l - J) M, 1) and
        # ||a_l||^2 / sigma_l^2 ~ Gamma(J M, 1) under the null; N_l = J leaves
        # no tail at all.
        m, j = 4, 2
        channels = [random_channel(rng, n, j, noise_variance=v)
                    for n, v in ((7, 0.5), (2, 2.0), (12, 3.0))]
        draws = draw_trials(channels, m, 17, np.arange(3000))
        for ch, a, tails in zip(channels, draws.coords, draws.tails.T, strict=True):
            inside = energy(a) / ch.noise_variance
            assert sps.kstest(inside, sps.gamma(j * m).cdf).pvalue > 1e-3
            if ch.n_samples == j:
                assert np.all(tails == 0.0)
                continue
            law = sps.gamma((ch.n_samples - j) * m)
            assert sps.kstest(tails * m / ch.noise_variance, law.cdf).pvalue > 1e-3


def reference_draws(channels, m, seed, trials):
    """draw_trials' noise from one rng_stream generator per (trial, channel), in
    its order: gamma; one normal draw holding W's entries and then those of
    the Bartlett factor T' above its diagonal, row by row, each entry as its
    real and imaginary part; r Gamma(N - k - r + 1) draws and r (r - 1) / 2
    exponential draws, of which diagonal entry i takes the next r - 1 - i;
    one normal draw holding G's N x r entries.  Returns per-channel
    coordinate stacks, the (T, L) tails, per-channel factor stacks and
    per-channel blocks, with the frame of P G from numpy's QR."""
    coords, tails, factors, blocks = [], [], [], []
    for idx, ch in enumerate(channels):
        q, _ = _frame(ch)
        n, k = q.shape
        rank = min(n - k, m)
        a_l, t_l, f_l, x_l = [], [], [], []
        for t in trials:
            gen = rng_stream(seed, 0, t, idx)
            gamma = gen.standard_gamma((n - k) * m)
            above = rank * m - rank * (rank + 1) // 2
            normals = gen.standard_normal(2 * (k * m + above))
            entries = normals[0::2] + 1j * normals[1::2]
            a = entries[:k * m].reshape(k, m) * np.sqrt(ch.noise_variance / 2.0)
            x = q @ a
            factor = np.zeros((rank, m), dtype=complex)
            if rank:
                upper = iter(entries[k * m:] / np.sqrt(2.0))
                for i in range(rank):
                    for j in range(i + 1, m):
                        factor[i, j] = next(upper)
                diagonal = gen.standard_gamma(n - k - rank + 1, rank)
                exps = iter(gen.standard_exponential(rank * (rank - 1) // 2))
                for i in range(rank):
                    factor[i, i] = np.sqrt(diagonal[i] + sum(next(exps)
                                                             for _ in range(rank - 1 - i)))
                factor *= np.sqrt(ch.noise_variance * gamma) / np.linalg.norm(factor)
                g = gen.standard_normal((n, 2 * rank)).view(complex)
                frame, r = np.linalg.qr(g - q @ (q.conj().T @ g))
                frame *= np.diagonal(r) / abs(np.diagonal(r))
                x = x + frame @ factor
            a_l.append(a)
            t_l.append(ch.noise_variance * gamma / m)
            f_l.append(factor)
            x_l.append(x)
        coords.append(np.array(a_l))
        tails.append(t_l)
        factors.append(np.array(f_l))
        blocks.append(np.array(x_l))
    return coords, np.array(tails).T, factors, blocks


def reference_amplitudes(j, m, scale, seed, trials):
    """Amplitude matrices drawn as two (J x M) normal draws per trial's generator."""
    out = []
    for t in trials:
        rng = rng_stream(seed, 1, t, 0)
        out.append((scale / np.sqrt(2.0)) * (rng.standard_normal((j, m))
                                             + 1j * rng.standard_normal((j, m))))
    return np.array(out)


# (seed, trials): a grid of many keys takes the hash pass; fewer than eight
# keys, or a seed or trial word of 2**32 or more, take rng_stream per key.
SUBSTREAM_GRIDS = {
    "hashed": (7, list(range(3, 23))),
    "hashed-word-bounds": (2**32 - 1, [0, 2**32 - 1, 5, 6, 7, 8, 9, 2**32 - 2]),
    "few-keys": (7, [0, 9]),
    "wide-seed": (2**32 + 5, list(range(6))),
    "wide-trial": (7, [1, 2, 2**40, 3]),
}


class TestSubstreams:
    """The vectorised substreams equal numpy's SeedSequence and PCG64 bit for bit,
    so a numpy release that changes either fails here rather than moving samples."""

    def test_seed_words_match_seed_sequence(self):
        rng = np.random.default_rng(2024)
        bounds = list(itertools.product((0, 2**32 - 1), repeat=4))
        keys = np.concatenate([rng.integers(0, 2**32, (1200, 4), dtype=np.uint64),
                               np.array(bounds, dtype=np.uint64)]).astype(np.uint32)
        words = _seed_words(keys)
        assert words.dtype == np.uint64 and words.shape == (len(keys), 4)
        expected = np.array([np.random.SeedSequence(tuple(int(w) for w in k))
                             .generate_state(4, np.uint64) for k in keys])
        np.testing.assert_array_equal(words, expected)

    @staticmethod
    def count_builds(monkeypatch) -> list:
        """Record each generator a draw builds through rng_stream."""
        built = []
        monkeypatch.setattr(measurement, "rng_stream",
                            lambda *key: built.append(key) or rng_stream(*key))
        return built

    @pytest.mark.parametrize("grid", sorted(SUBSTREAM_GRIDS))
    def test_draws_match_rng_stream(self, rng, monkeypatch, grid):
        # Ragged channels with N - J = M, N = J (whose gamma draw takes no
        # randomness and which has no factor) and N - J > M, then one with
        # N - J < M.
        seed, trials = SUBSTREAM_GRIDS[grid]
        built = self.count_builds(monkeypatch)
        for dims in ((6, 2, 9), (5,)):
            channels = [random_channel(rng, n, 2, noise_variance=v)
                        for n, v in zip(dims, (1.0, 0.5, 3.0))]
            built.clear()
            draws = draw_trials(channels, 4, seed, trials, blocks=True)
            assert len(built) == (0 if grid.startswith("hashed") else len(dims) * len(trials))
            coords, tails, factors, blocks = reference_draws(channels, 4, seed, trials)
            for got, want in zip(draws.coords, coords, strict=True):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(draws.tails, tails)
            for got, want in zip(draws.factors + draws.blocks, factors + blocks, strict=True):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("grid", sorted(SUBSTREAM_GRIDS))
    def test_coordinate_draw_is_prefix_of_block_draw(self, rng, grid):
        # Rows 1 and 2 read each key's leading draws, so a trial's coordinates
        # and tails are the same bits whether or not its blocks are formed.
        seed, trials = SUBSTREAM_GRIDS[grid]
        channels = [random_channel(rng, n, 2) for n in (6, 2, 9)]
        amps = _amplitude_stack(2, 4, 1.5, seed, trials)
        for amplitudes in (None, amps):
            thin = draw_trials(channels, 4, seed, trials, amplitudes)
            full = draw_trials(channels, 4, seed, trials, amplitudes, blocks=True)
            assert thin.blocks is None
            for got, want in zip(thin.coords, full.coords, strict=True):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(thin.tails, full.tails)

    @pytest.mark.parametrize("grid", sorted(SUBSTREAM_GRIDS))
    def test_amplitudes_match_rng_stream(self, monkeypatch, grid):
        seed, trials = SUBSTREAM_GRIDS[grid]
        built = self.count_builds(monkeypatch)
        stack = _amplitude_stack(3, 5, 2.5, seed, trials)
        assert len(built) == (0 if grid.startswith("hashed") else len(trials))
        np.testing.assert_array_equal(stack, reference_amplitudes(3, 5, 2.5, seed, trials))
        for t, matrix in zip(trials, stack):
            np.testing.assert_array_equal(draw_amplitudes(3, 5, 2.5, seed, trial=t), matrix)

    @pytest.mark.parametrize("seed, trials", [(-1, list(range(12))), (3, [-1, *range(11)])])
    def test_negative_key_raises_like_rng_stream(self, rng, seed, trials):
        with pytest.raises(ValueError) as expected:
            rng_stream(seed, 0, trials[0], 0)
        channels = [random_channel(rng, 4, 1)]
        message = re.escape(str(expected.value))
        with pytest.raises(ValueError, match=message):
            draw_trials(channels, 3, seed, trials)
        with pytest.raises(ValueError, match=message):
            _amplitude_stack(1, 3, 1.0, seed, trials)

    def test_concurrent_calls_match_serial(self, rng):
        # Each call owns its generator: four threads drawing at once, with a
        # short switch interval, give the serial draw.
        channels = [random_channel(rng, n, 2) for n in (8, 5)]
        trials = np.arange(40, 240)
        serial = draw_trials(channels, 6, 11, trials, blocks=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(draw_trials, channels, 6, 11, trials, blocks=True)
                           for _ in range(16)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for draws in results:
            for got, want in zip(draws.blocks + draws.coords, serial.blocks + serial.coords,
                                 strict=True):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(draws.tails, serial.tails)


class TestMlAmplitudes:
    def test_noise_free_recovery(self, rng):
        chans = [random_channel(rng, 7, 2), random_channel(rng, 5, 2)]
        a = complex_normal(rng, (2, 6))
        f = compose_f_whitened(chans)
        z = f @ a
        np.testing.assert_allclose(ml_amplitudes(f, z), a, atol=1e-10)

    def test_orthonormal_unit_gain_is_matched_filter(self, rng):
        ch = random_channel(rng, 6, 2, orthonormal=True, gain=1.0, noise_variance=1.0)
        x = complex_normal(rng, (6, 4))
        np.testing.assert_allclose(
            message_amplitudes(channel_message(ch, x, 4))[0], ch.matrix.conj().T @ x, atol=1e-10
        )

    def test_equal_channels_average(self, rng):
        ch = random_channel(rng, 6, 2, gain=0.8 + 0.1j, noise_variance=1.1)
        x1 = complex_normal(rng, (6, 4))
        x2 = complex_normal(rng, (6, 4))
        f = compose_f_whitened([ch, ch])
        z = np.vstack([x1 / ch.noise_sigma, x2 / ch.noise_sigma])
        pooled = ml_amplitudes(f, z)
        mean = 0.5 * (message_amplitudes(channel_message(ch, x1, 4))[0]
                      + message_amplitudes(channel_message(ch, x2, 4))[0])
        np.testing.assert_allclose(pooled, mean, atol=1e-10)

    def test_residual_orthogonality(self, rng):
        chans = [random_channel(rng, 8, 3)]
        f = compose_f_whitened(chans)
        z = complex_normal(rng, (8, 5))
        a_hat = ml_amplitudes(f, z)
        residual = f.conj().T @ (z - f @ a_hat)
        assert np.linalg.norm(residual) <= 1e-9

    def test_rank_deficient_rejected(self, rng):
        col = complex_normal(rng, (6, 1))
        f = np.hstack([col, col])
        with pytest.raises(RankDeficiencyError):
            ml_amplitudes(f, complex_normal(rng, (6, 3)))

    def test_unbiased_over_trials(self, rng):
        # Monte-Carlo mean of the per-channel estimate stays within three
        # standard errors of the true amplitudes.
        ch = random_channel(rng, 5, 2, noise_variance=0.9, gain=1.1 + 0.2j)
        a = complex_normal(rng, (2, 3))
        trials = 10_000
        acc = np.zeros_like(a)
        for t in range(trials):
            ms = simulate([ch], 3, seed=17, amplitudes=a, trial=t)
            acc += message_amplitudes(channel_message(ch, ms.block(0), 3))[0]
        mean = acc / trials
        cov = message_amplitudes(channel_message(ch, ms.block(0), 3))[1]
        se = np.sqrt(np.real(np.diag(cov))[:, None] / (2 * trials))
        bound = np.broadcast_to(3.0 * se + 1e-12, a.shape)
        np.testing.assert_array_less(np.abs(mean.real - a.real), bound)
        np.testing.assert_array_less(np.abs(mean.imag - a.imag), bound)


class TestRoundTrip:
    def test_bit_exact(self, rng, tmp_path):
        ms = MeasurementSet((complex_normal(rng, (5, 3)), complex_normal(rng, (2, 3))))
        save_measurements(ms, tmp_path / "data")
        back = load_measurements(tmp_path / "data")
        assert back.channel_dims == ms.channel_dims
        for i in range(2):
            np.testing.assert_array_equal(back.block(i), ms.block(i))

    def test_header_contents(self, rng, tmp_path):
        import json

        ms = MeasurementSet((complex_normal(rng, (4, 2)),))
        root = save_measurements(ms, tmp_path / "d")
        header = json.loads((root / "header.json").read_text())
        assert header["n_snapshots"] == 2
        assert header["channel_dims"] == [4]
        assert header["blocks"] == ["block_00.csv"]

    def test_block_list_must_match_dims(self, rng, tmp_path):
        import json

        ms = MeasurementSet((complex_normal(rng, (3, 2)), complex_normal(rng, (2, 2))))
        root = save_measurements(ms, tmp_path / "d")
        header = json.loads((root / "header.json").read_text())
        header["blocks"] = header["blocks"][:1]
        (root / "header.json").write_text(json.dumps(header))
        with pytest.raises(ConfigError, match="1 block files for 2 channels"):
            load_measurements(root)

    @pytest.mark.parametrize("version", [0, 2, 99, "1", True],
                             ids=["0", "2", "99", "string-1", "bool-true"])
    def test_unknown_version_rejected(self, rng, tmp_path, version):
        import json

        root = save_measurements(MeasurementSet((complex_normal(rng, (3, 2)),)), tmp_path / "d")
        header = json.loads((root / "header.json").read_text())
        header["version"] = version
        (root / "header.json").write_text(json.dumps(header))
        with pytest.raises(ConfigError, match=f"version {version!r} .*expected version 1"):
            load_measurements(root)

    @pytest.mark.parametrize("key, value", [
        ("channel_dims", 5), ("channel_dims", [None]), ("channel_dims", [True]),
        ("n_snapshots", None), ("n_snapshots", True), ("blocks", 5), ("blocks", [5]),
    ], ids=["dims-int", "dims-null-element", "dims-bool-element", "snapshots-null",
            "snapshots-bool", "blocks-int", "blocks-int-element"])
    def test_mistyped_header_value_rejected(self, rng, tmp_path, key, value):
        import json

        root = save_measurements(MeasurementSet((complex_normal(rng, (3, 2)),)), tmp_path / "d")
        header = json.loads((root / "header.json").read_text())
        header[key] = value
        (root / "header.json").write_text(json.dumps(header))
        with pytest.raises(ConfigError, match=f"'{key}' in .*header.json has the wrong type"):
            load_measurements(root)

    @pytest.mark.parametrize("kind", ["measurements", "messages"])
    def test_interrupted_write_leaves_no_header(self, rng, tmp_path, monkeypatch, kind):
        blocks = (complex_normal(rng, (2, 3)), complex_normal(rng, (2, 3)))
        if kind == "measurements":
            save, items = save_measurements, MeasurementSet(blocks)
        else:
            save = save_messages
            items = [ChannelMessage(factor=np.eye(2), coordinates=b) for b in blocks]
        replace, renamed = os.replace, []

        def failing_replace(src, dst):
            renamed.append(dst)
            if len(renamed) == 2:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            save(items, tmp_path / "d")
        assert not (tmp_path / "d" / "header.json").exists()
        assert not list((tmp_path / "d").glob("*.tmp"))

    def test_scaled_and_subset(self, rng):
        ms = MeasurementSet((complex_normal(rng, (3, 4)), complex_normal(rng, (2, 4))))
        scaled = ms.scaled([2.0, -1.0j])
        np.testing.assert_allclose(scaled.block(0), 2.0 * ms.block(0))
        np.testing.assert_allclose(scaled.block(1), -1.0j * ms.block(1))
        sub = MeasurementSet((ms.blocks[1],))
        np.testing.assert_array_equal(sub.block(0), ms.block(1))
