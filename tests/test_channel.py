"""Unit tests for channel-matrix construction and composition."""

from __future__ import annotations

import numpy as np
import pytest

from glrfusion import (
    ChannelModel,
    ConfigError,
    KnowledgeSpec,
    PropagationSpec,
    RankDeficiencyError,
    build_narrowband_h,
    detect,
    narrowband_channel,
    normalize_channel,
    radial_velocity_to_doppler,
    simulate,
)
from glrfusion.channel import (SPEED_OF_LIGHT_MPS, dft_slice, narrowband_factors,
                               orthonormal_columns)
from conftest import complex_normal, random_channel
from oracles import broadband_h, compose_f, compose_f_whitened


def base_spec(**overrides) -> PropagationSpec:
    params = dict(
        carrier_hz=1.0e6,
        sample_period_s=1.0e-3,
        n_samples=8,
        n_modes=2,
    )
    params.update(overrides)
    return PropagationSpec(**params)


class TestPropagationSpec:
    def test_duration_derived(self):
        spec = base_spec()
        assert spec.duration_s == pytest.approx(8e-3)
        with pytest.raises(TypeError):
            base_spec(duration_s=8e-3)

    def test_modes_bounded_by_samples(self):
        with pytest.raises(ConfigError):
            base_spec(n_modes=9)

    @pytest.mark.parametrize("field,value", [
        ("carrier_hz", 1e308), ("carrier_hz", -1e308), ("carrier_hz", float("nan")),
        ("sample_period_s", 1e-320), ("sample_period_s", 1e308),
        ("sample_period_s", float("nan")),
    ])
    def test_non_finite_phase_rates_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}="):
            base_spec(**{field: value})

    def test_velocity_conversion(self):
        nu = radial_velocity_to_doppler(300.0, 10e9)
        assert nu == pytest.approx(10e9 * 300.0 / SPEED_OF_LIGHT_MPS)


class TestBroadband:
    """The narrowband construction against the broadband reference of ``oracles``."""

    def test_zero_delay_gives_dft_slice(self):
        h = broadband_h(base_spec(), np.zeros(8))
        np.testing.assert_allclose(h, dft_slice(8, 2), atol=1e-14)

    def test_constant_delay_factors_per_column(self):
        tau0 = 3.7e-4
        spec = base_spec()
        h = broadband_h(spec, np.full(8, tau0))
        ref = broadband_h(spec, np.zeros(8))
        for j in range(2):
            factor = np.exp(-2j * np.pi * (spec.carrier_hz + j / spec.duration_s) * tau0)
            np.testing.assert_allclose(h[:, j], ref[:, j] * factor, atol=1e-12)

    def test_missing_delay_samples(self):
        # A short trajectory would broadcast to a constant delay; the reference refuses it.
        for tau in (np.zeros(0), np.zeros(1), np.zeros(5)):
            with pytest.raises(ValueError, match="one delay per sample"):
                broadband_h(base_spec(), tau)

    def test_converges_to_narrowband(self):
        # Delay trajectory linear in time with a slow fractional rate: the
        # two constructions differ only by per-entry phases bounded by
        # 2 pi (J-1) nu / f_c, so the gap shrinks linearly with nu.
        carrier = 1.0e6
        tau0 = 2.0e-4
        errs = []
        for nu in (40.0, 4.0):
            ts = 1e-3
            times = np.arange(8) * ts
            tau = tau0 + (nu / carrier) * times
            spec_nb = base_spec(carrier_hz=carrier, delay_s=tau0, doppler_hz=nu)
            h_bb = broadband_h(spec_nb, tau)
            h_nb = build_narrowband_h(spec_nb)
            errs.append(np.linalg.norm(h_bb - h_nb) / np.linalg.norm(h_nb))
        assert errs[0] <= 1e-3
        assert errs[1] <= errs[0] / 5


class TestNarrowband:
    def test_single_mode_no_modulation_is_ones(self):
        spec = base_spec(n_samples=4, n_modes=1)
        h = build_narrowband_h(spec)
        np.testing.assert_allclose(h, np.ones((4, 1)), atol=1e-14)

    def test_raw_gram_is_n_identity(self):
        spec = base_spec(delay_s=1.2e-4, doppler_hz=37.0, clock_offset_s=5e-5)
        h = build_narrowband_h(spec)
        np.testing.assert_allclose(h.conj().T @ h, 8 * np.eye(2), atol=1e-9)

    def test_entries_unit_modulus(self):
        spec = base_spec(doppler_hz=11.0, delay_s=2e-4)
        h = build_narrowband_h(spec)
        np.testing.assert_allclose(np.abs(h), 1.0, atol=1e-12)


    def test_grid_factors_match_closed_form(self):
        spec = base_spec(clock_offset_s=3e-5)
        delays, dopplers = [0.0, 1.3e-4, 7e-4], [-20.0, 0.0, 37.0]
        doppler, delay = narrowband_factors(spec, delays, dopplers)
        assert doppler.shape == (len(dopplers), spec.n_samples)
        assert delay.shape == (len(delays), spec.n_modes)
        v = dft_slice(spec.n_samples, spec.n_modes)
        n = np.arange(spec.n_samples)[:, None]
        j = np.arange(spec.n_modes)[None, :]
        for a, tau in enumerate(delays):
            for b, nu in enumerate(dopplers):
                s = spec.clock_offset_s + tau
                closed = np.exp(-2j * np.pi * (spec.carrier_hz * s + n * nu * spec.sample_period_s
                                               - n * j / spec.n_samples + j * s / spec.duration_s))
                factored = doppler[b][:, None] * v * delay[a]
                np.testing.assert_allclose(factored, closed, atol=1e-12)
                cell = build_narrowband_h(base_spec(clock_offset_s=3e-5, delay_s=tau,
                                                    doppler_hz=nu))
                np.testing.assert_array_equal(factored, cell)


class TestNormalize:
    def test_narrowband_becomes_orthonormal(self):
        h = normalize_channel(build_narrowband_h(base_spec(doppler_hz=5.0)))
        np.testing.assert_allclose(h.conj().T @ h, np.eye(2), atol=1e-9)

    def test_idempotent(self, rng):
        h = normalize_channel(complex_normal(rng, (6, 2)))
        np.testing.assert_allclose(normalize_channel(h), h, atol=1e-12)

    def test_trace_normalized(self, rng):
        h = normalize_channel(complex_normal(rng, (9, 3)))
        assert np.trace(h.conj().T @ h).real == pytest.approx(3.0, abs=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            normalize_channel(np.zeros((4, 2)))


class TestChannelModel:
    def test_requires_trace_normalization(self, rng):
        with pytest.raises(ConfigError, match="trace-normalized"):
            ChannelModel(matrix=2.0 * normalize_channel(complex_normal(rng, (5, 2))),
                         gain=1.0, noise_variance=1.0)

    def test_requires_positive_noise(self, rng):
        h = normalize_channel(complex_normal(rng, (5, 2)))
        for variance in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="^noise_variance must be finite and positive"):
                ChannelModel(matrix=h, gain=1.0, noise_variance=variance)

    @pytest.mark.parametrize("gain", [complex("nan"), complex("inf"), complex(0.0, float("-inf")),
                                      complex(1.0, float("nan"))],
                             ids=["nan", "inf", "imaginary-inf", "imaginary-nan"])
    def test_requires_finite_gain(self, rng, gain):
        h = normalize_channel(complex_normal(rng, (5, 2)))
        with pytest.raises(ConfigError, match="^gain must be finite"):
            ChannelModel(matrix=h, gain=gain, noise_variance=1.0)
        assert ChannelModel(matrix=h, gain=0.0, noise_variance=1.0).gain == 0.0

    def test_narrowband_channel_is_orthonormal(self):
        ch = narrowband_channel(base_spec(doppler_hz=3.0), gain=2.0, noise_variance=0.5)
        assert ch.orthonormal


class TestCachedBasis:
    def test_basis_and_coupling_factor_the_matrix_once(self, rng):
        ch = random_channel(rng, 6, 2)
        assert ch.basis is ch.basis and ch.coupling is ch.coupling
        np.testing.assert_allclose(ch.basis.conj().T @ ch.basis, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(ch.basis @ ch.coupling, ch.matrix, atol=1e-12)
        assert ch.orthonormal == bool(orthonormal_columns(ch.matrix))

    def test_matrix_and_cached_factors_are_read_only(self, rng):
        ch = random_channel(rng, 6, 2)
        for name in ("matrix", "basis", "coupling"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(ch, name)[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            ch.singular_values[0] = 0.0

    def test_singular_values_are_the_couplings_row_norms(self, rng):
        ch = random_channel(rng, 6, 3)
        assert ch.singular_values is ch.singular_values
        np.testing.assert_allclose(ch.singular_values,
                                   np.linalg.svd(ch.matrix, compute_uv=False), rtol=1e-12)

    def test_source_array_is_copied(self, rng):
        h = normalize_channel(complex_normal(rng, (6, 2)))
        ch = ChannelModel(matrix=h, gain=1.0, noise_variance=1.0)
        matrix, basis = ch.matrix.copy(), ch.basis.copy()
        h[0, 0] = 0.0  # the caller's array stays writable
        h[:, 1] *= 2.0
        np.testing.assert_array_equal(ch.matrix, matrix)
        np.testing.assert_array_equal(ch.basis, basis)

    def test_rank_deficient_channel_raises_on_every_call(self, rng):
        column = complex_normal(rng, (5, 1))
        ch = ChannelModel(matrix=normalize_channel(np.hstack([column, 2 * column])),
                          gain=1.0, noise_variance=1.0)
        ms = simulate([ch], 3, seed=1)
        for _ in range(2):
            with pytest.raises(RankDeficiencyError, match="channel 0 matrix"):
                detect(KnowledgeSpec.from_panel("P11"), [ch], ms)


class TestCompose:
    def test_single_channel(self, rng):
        ch = random_channel(rng, 6, 2, gain=1.5 - 0.5j)
        np.testing.assert_allclose(compose_f([ch]), ch.gain * ch.matrix)

    def test_orthonormal_gram_sums_gains(self, rng):
        chans = [random_channel(rng, n, 2, orthonormal=True, gain=g, noise_variance=v)
                 for n, g, v in [(5, 1.0 + 1.0j, 1.3), (7, 0.5, 0.7), (6, -2.0j, 2.2)]]
        f = compose_f_whitened(chans)
        total = sum(abs(c.gain) ** 2 / c.noise_variance for c in chans)
        np.testing.assert_allclose(f.conj().T @ f, total * np.eye(2), atol=1e-9)

    def test_whitened_second_block_halves(self, rng):
        chans = [
            random_channel(rng, 5, 2, noise_variance=1.0, gain=1.0),
            random_channel(rng, 5, 2, noise_variance=4.0, gain=1.0),
        ]
        f = compose_f_whitened(chans)
        np.testing.assert_allclose(f[5:], 0.5 * chans[1].matrix, atol=1e-12)

    def test_mismatched_modes_rejected(self, rng):
        chans = [random_channel(rng, 5, 2), random_channel(rng, 5, 3)]
        with pytest.raises(ConfigError):
            compose_f(chans)
