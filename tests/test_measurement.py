"""Unit tests for measurement containers, synthesis, and ML amplitudes."""

from __future__ import annotations

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
from glrfusion.formats import save_messages
from glrfusion.measurement import (
    _frame,
    amplitude_stack,
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
        amps = amplitude_stack(2, m, 2.0, 4, trials)
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

    @pytest.mark.parametrize("lead, rank, m", [((2, 3), 4, 6), ((5,), 1, 3), ((), 3, 3)])
    def test_bartlett_factor_places_each_draw(self, rng, lead, rank, m):
        # Entry by entry: the draws above the diagonal in row-major order,
        # scaled to CN(0, 1), zeros below it, and diagonal entry i the root of
        # gammas[i] plus its run of rank - 1 - i exponentials.
        n_above = rank * m - rank * (rank + 1) // 2
        above = complex_normal(rng, lead + (n_above,))
        gammas = rng.gamma(3.0, size=lead + (rank,))
        exps = rng.exponential(size=lead + (rank * (rank - 1) // 2,))
        factor = measurement._bartlett(above, gammas, exps, m)
        assert factor.shape == lead + (rank, m)
        for idx in np.ndindex(lead):
            expected = np.zeros((rank, m), dtype=complex)
            draws, runs = iter(above[idx]), iter(exps[idx])
            for i in range(rank):
                expected[i, i + 1:] = [next(draws) * np.sqrt(0.5) for _ in range(i + 1, m)]
                expected[i, i] = np.sqrt(gammas[idx][i] + sum(next(runs)
                                                              for _ in range(rank - 1 - i)))
            off = ~np.eye(rank, m, dtype=bool)
            np.testing.assert_array_equal(factor[idx][off], expected[off])
            # The exponentials' sums may round in another order.
            np.testing.assert_allclose(np.diagonal(factor[idx]), np.diagonal(expected),
                                       rtol=1e-15, atol=0)

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


B = measurement._BLOCK


def frame_groups(channels) -> dict:
    """Channel indices by frame shape (N_l, k_l), groups in the order of their
    first channels."""
    groups = {}
    for idx, ch in enumerate(channels):
        groups.setdefault(_frame(ch)[0].shape, []).append(idx)
    return groups


def reference_block(gen, groups, m) -> dict:
    """One noise block's draws from its generator, in draw_trials' order: each
    draw type for every group in turn, one call of shape (B, channels of the
    group, draws each): the tail gammas, the coordinate normals, the normals of
    T' above its diagonal, r Gamma(N - k - r + 1) draws and r (r - 1) / 2
    exponentials."""
    ranks = {(n, k): min(n - k, m) for n, k in groups}
    out = {}
    for (n, k), group in groups.items():
        out["gamma", n, k] = gen.standard_gamma((n - k) * m, (B, len(group)))
    for (n, k), group in groups.items():
        out["normal", n, k] = gen.standard_normal((B, len(group), 2 * k * m))
    for (n, k), group in groups.items():
        r = ranks[n, k]
        out["above", n, k] = gen.standard_normal((B, len(group), 2 * (r * m - r * (r + 1) // 2)))
    for (n, k), group in groups.items():
        out["diagonal", n, k] = gen.standard_gamma(n - k - ranks[n, k] + 1,
                                                   (B, len(group), ranks[n, k]))
    for (n, k), group in groups.items():
        r = ranks[n, k]
        out["exps", n, k] = gen.standard_exponential((B, len(group), r * (r - 1) // 2))
    return out


def reference_draws(channels, m, seed, trials):
    """draw_trials' noise from one rng_stream generator per block of B trials,
    (seed, 0, t // B), of which trial t takes row t % B (:func:`reference_block`),
    and one per trial, (seed, 2, t), for its frames: one normal call of shape
    (channels, N, 2 r) per group, G's entries row by row.  A drawn entry is a
    real and an imaginary part; diagonal entry i of T' takes the next r - 1 - i
    exponentials.  Returns per-channel coordinate stacks, the (T, L) tails,
    per-channel factor stacks and per-channel blocks, with the frame of P G
    from numpy's QR."""
    groups = frame_groups(channels)
    where = {idx: (shape, pos) for shape, group in groups.items()
             for pos, idx in enumerate(group)}
    noise = {b: reference_block(rng_stream(seed, 0, b), groups, m)
             for b in {t // B for t in trials}}
    coords, tails, factors, blocks = ([[] for _ in channels] for _ in range(4))
    for t in trials:
        drawn, row = noise[t // B], t % B
        frame_gen = rng_stream(seed, 2, t)
        gauss = {(n, k): frame_gen.standard_normal((len(group), n, 2 * min(n - k, m)))
                 for (n, k), group in groups.items()}
        for idx, ch in enumerate(channels):
            (n, k), pos = where[idx]
            q, rank = _frame(ch)[0], min(n - k, m)
            gamma = drawn["gamma", n, k][row, pos]
            normals = drawn["normal", n, k][row, pos]
            a = ((normals[0::2] + 1j * normals[1::2]).reshape(k, m)
                 * np.sqrt(ch.noise_variance / 2.0))
            x = q @ a
            factor = np.zeros((rank, m), dtype=complex)
            if rank:
                above = drawn["above", n, k][row, pos]
                upper = iter((above[0::2] + 1j * above[1::2]) / np.sqrt(2.0))
                for i in range(rank):
                    for j in range(i + 1, m):
                        factor[i, j] = next(upper)
                diagonal = drawn["diagonal", n, k][row, pos]
                exps = iter(drawn["exps", n, k][row, pos])
                for i in range(rank):
                    factor[i, i] = np.sqrt(diagonal[i] + sum(next(exps)
                                                             for _ in range(rank - 1 - i)))
                factor *= np.sqrt(ch.noise_variance * gamma) / np.linalg.norm(factor)
                g = gauss[n, k][pos].view(complex)
                frame, r = np.linalg.qr(g - q @ (q.conj().T @ g))
                frame *= np.diagonal(r) / abs(np.diagonal(r))
                x = x + frame @ factor
            coords[idx].append(a)
            tails[idx].append(ch.noise_variance * gamma / m)
            factors[idx].append(factor)
            blocks[idx].append(x)
    return ([np.array(a) for a in coords], np.array(tails).T, [np.array(f) for f in factors],
            [np.array(x) for x in blocks])


def reference_amplitudes(j, m, scale, seed, trials):
    """Amplitude matrices, one rng_stream generator per block of B trials:
    one normal draw of shape (B, 2, J, M), of which trial t takes row t % B,
    real parts then imaginary parts."""
    out = []
    for t in trials:
        normals = rng_stream(seed, 1, t // B).standard_normal((B, 2, j, m))[t % B]
        out.append((scale / np.sqrt(2.0)) * (normals[0] + 1j * normals[1]))
    return np.array(out)


# (seed, trials): many blocks and few, and seeds, blocks and trials at and
# past 2**32 (SeedSequence pools a seed that wide as two words).  The first
# two names are kept from an earlier, hashed path over many keys.
SUBSTREAM_GRIDS = {
    "hashed": (7, list(range(3, 43))),
    "hashed-word-bounds": (2**32 - 1, [0, B * 2**32 - 1, 5, 9, 13, 17, 21, 25, 29,
                                       B * 2**32 - 2 * B, 3]),
    "few-keys": (7, [0, 9]),
    "wide-seed": (2**32 + 5, list(range(16))),
    "wide-trial": (7, [*range(1, 16), 2**40]),
}


class TestSubstreams:
    """A call's substreams, one generator advanced key by key, equal
    rng_stream's jumped generators bit for bit."""

    @pytest.mark.parametrize("key", [(7, 0, 0), (7, 2, 41), (2**32 + 5, 1, 2**40)])
    def test_rng_stream_is_a_jump_of_the_seeded_stream(self, key):
        seed, purpose, index = key
        bitgen = np.random.PCG64DXSM(np.random.SeedSequence((seed, purpose))).jumped(index)
        assert rng_stream(*key).bit_generator.state == bitgen.state

    @pytest.mark.parametrize("grid", sorted(SUBSTREAM_GRIDS))
    def test_draws_match_rng_stream(self, rng, grid):
        # Ragged channels with N - J = M, N = J (whose gamma draw takes no
        # randomness and which has no factor) and N - J > M, then one with
        # N - J < M, then frame shapes shared by two channels each, apart.
        seed, trials = SUBSTREAM_GRIDS[grid]
        for dims in ((6, 2, 9), (5,), (6, 9, 2, 6, 9)):
            channels = [random_channel(rng, n, 2, noise_variance=v)
                        for n, v in zip(dims, (1.0, 0.5, 3.0, 2.0, 0.25))]
            draws = draw_trials(channels, 4, seed, trials, blocks=True)
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
        amps = amplitude_stack(2, 4, 1.5, seed, trials)
        for amplitudes in (None, amps):
            thin = draw_trials(channels, 4, seed, trials, amplitudes)
            full = draw_trials(channels, 4, seed, trials, amplitudes, blocks=True)
            assert thin.blocks is None
            for got, want in zip(thin.coords, full.coords, strict=True):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(thin.tails, full.tails)

    @pytest.mark.parametrize("grid", sorted(SUBSTREAM_GRIDS))
    def test_amplitudes_match_rng_stream(self, grid):
        seed, trials = SUBSTREAM_GRIDS[grid]
        stack = amplitude_stack(3, 5, 2.5, seed, trials)
        np.testing.assert_array_equal(stack, reference_amplitudes(3, 5, 2.5, seed, trials))
        for t, matrix in zip(trials, stack):
            np.testing.assert_array_equal(draw_amplitudes(3, 5, 2.5, seed, trial=t), matrix)

    @pytest.mark.parametrize("trials", [[b * B + offset] for b in (4, 2**32)
                                        for offset in range(B)]
                             + [[5 * B - 1, 5 * B],
                                [6 * B + 1, 4 * B, 6 * B + 1, 5 * B - 1, 4 * B],
                                [2**32 * B + 1, 2**32 * B - 1, 2**32 * B + 1]],
                             ids=lambda trials: "-".join(map(str, trials)))
    @pytest.mark.parametrize("kind", ["thin", "factors", "blocks"])
    def test_trials_are_rows_of_whole_blocks(self, rng, trials, kind):
        # Any ids, at any offsets, in any order and repeated, and blocks from
        # 2**32 on, give the rows of one call over the
        # whole blocks they fall in, with and without amplitudes.
        channels = [random_channel(rng, n, 2, noise_variance=v)
                    for n, v in ((6, 1.0), (2, 0.5), (9, 3.0), (6, 2.0))]
        whole = np.concatenate([np.arange(b * B, b * B + B)
                                for b in sorted({t // B for t in trials})])
        rows = [whole.tolist().index(t) for t in trials]
        options = {"factors": kind == "factors", "blocks": kind == "blocks"}
        amps, all_amps = (amplitude_stack(2, 4, 1.5, 7, ids) for ids in (trials, whole))
        np.testing.assert_array_equal(amps, all_amps[rows])
        for amplitudes, all_amplitudes in ((None, None), (amps, all_amps)):
            got = draw_trials(channels, 4, 7, trials, amplitudes, **options)
            want = draw_trials(channels, 4, 7, whole, all_amplitudes, **options)
            np.testing.assert_array_equal(got.tails, want.tails[rows])
            for field in ("coords", "factors", "blocks"):
                if getattr(want, field) is None:
                    assert getattr(got, field) is None
                    continue
                for a, b in zip(getattr(got, field), getattr(want, field), strict=True):
                    np.testing.assert_array_equal(a, b[rows])

    @pytest.mark.parametrize("j, m", [(1, 5), (2, 1), (2, 5), (4, 5), (4, 8)])
    def test_signal_coordinates_do_not_depend_on_the_call(self, rng, j, m):
        # A trial's g_l R_l A_t is the same bits alone as among 201 trials,
        # at snapshot counts a BLAS kernel's tile does and does not divide.
        channels = [random_channel(rng, n, j) for n in (j + 3, j + 6)]
        trials = np.arange(201)
        amps = amplitude_stack(j, m, 3.0, 5, trials)
        chunk = draw_trials(channels, m, 5, trials, amps)
        for t in (0, 1, 100, 200):
            alone = draw_trials(channels, m, 5, [t], amps[t:t + 1])
            for a, b in zip(alone.coords, chunk.coords, strict=True):
                np.testing.assert_array_equal(a[0], b[t])

    @pytest.mark.parametrize("seed, trials", [(-1, list(range(16))), (3, [-1, *range(15)])])
    def test_negative_key_raises_like_rng_stream(self, rng, seed, trials):
        with pytest.raises(ValueError) as expected:
            rng_stream(seed, 0, trials[0] // B)
        channels = [random_channel(rng, 4, 1)]
        message = re.escape(str(expected.value))
        # A negative index would wrap around the jump, and a negative purpose
        # is refused by SeedSequence: each raises numpy's error.
        for key in ((3, 0, -1), (3, -1, 0)):
            with pytest.raises(ValueError, match=message):
                rng_stream(*key)
        with pytest.raises(ValueError, match=message):
            draw_trials(channels, 3, seed, trials)
        with pytest.raises(ValueError, match=message):
            amplitude_stack(1, 3, 1.0, seed, trials)

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
        assert header["version"] == 2
        assert header["blocks"] == ["block_00.npy"]

    def test_block_list_must_match_dims(self, rng, tmp_path):
        import json

        ms = MeasurementSet((complex_normal(rng, (3, 2)), complex_normal(rng, (2, 2))))
        root = save_measurements(ms, tmp_path / "d")
        header = json.loads((root / "header.json").read_text())
        header["blocks"] = header["blocks"][:1]
        (root / "header.json").write_text(json.dumps(header))
        with pytest.raises(ConfigError, match="1 block files for 2 channels"):
            load_measurements(root)

    @pytest.mark.parametrize("version", [0, 3, 99, "1", True],
                             ids=["0", "3", "99", "string-1", "bool-true"])
    def test_unknown_version_rejected(self, rng, tmp_path, version):
        import json

        root = save_measurements(MeasurementSet((complex_normal(rng, (3, 2)),)), tmp_path / "d")
        header = json.loads((root / "header.json").read_text())
        header["version"] = version
        (root / "header.json").write_text(json.dumps(header))
        with pytest.raises(ConfigError, match=f"version {version!r} .*expected version 1 or 2"):
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
