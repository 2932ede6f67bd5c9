"""Unit tests for the nine detectors, coherence, and fusion matrices."""

from __future__ import annotations

import math

import numpy as np
import pytest

from glrfusion import (
    ChannelKnowledge,
    ChannelModel,
    ConfigError,
    DegenerateDataError,
    DetectorReport,
    KnowledgeSpec,
    MeasurementSet,
    NoiseKnowledge,
    channel_message,
    detect,
    simulate,
)
from glrfusion import detectors
from glrfusion.detectors import summarise
from conftest import complex_normal, random_channel, random_instance
from oracles import (
    build_fusion_t,
    coherence,
    compose_f,
    compose_f_whitened,
    detect_p11,
    detect_p12,
    detect_p13,
    detect_p21,
    detect_p22,
    detect_p23,
    detect_p31,
    detect_p32,
    detect_p33,
    fusion_m_matrix,
    hermitian_eig,
    message_amplitudes,
    orth_projection,
    p13_composite_mp,
    p23_composite_mp,
    qee,
    rank_one_pair_composite,
    rayleigh_extremes,
    sample_covariance,
    split_mp,
    two_channel_cross_validation,
)

ALL_PANELS = ["P11", "P12", "P13", "P21", "P22", "P23", "P31", "P32", "P33"]
# Draws for the covariance-formula oracles: the default random shapes, then
# more snapshots than samples in every channel (M > N_l), where a thin SVD
# of a block returns N_l singular values rather than M.
SHAPES = ({}, {"n_modes": 2, "n_snapshots": 12, "max_samples": 6})


def make_instance(rng, panel, **kwargs):
    ortho = panel.startswith("P2")
    subspace = panel.startswith("P3")
    return random_instance(rng, orthonormal=ortho, subspace_safe=subspace, **kwargs)


class TestDispatch:
    def test_p11_dispatch(self, rng):
        chans, ms = make_instance(rng, "P11", n_channels=2)
        spec = KnowledgeSpec(ChannelKnowledge.KNOWN_F, NoiseKnowledge.KNOWN)
        assert detect(spec, chans, ms).composite == detect_p11(chans, ms).composite

    def test_p32_dispatch(self, rng):
        chans, ms = make_instance(rng, "P32", n_channels=2)
        spec = KnowledgeSpec(ChannelKnowledge.UNKNOWN_SUBSPACE, NoiseKnowledge.COMMON_UNKNOWN)
        assert detect(spec, chans, ms).composite == detect_p32(chans, ms).composite

    def test_unknown_gains_requires_orthonormal(self, rng):
        chans, ms = make_instance(rng, "P11", n_channels=2, n_modes=2)
        assert not chans[0].orthonormal
        with pytest.raises(ConfigError, match="orthonormal"):
            detect_p21(chans, ms)

    @pytest.mark.parametrize("panel", [p for p in ALL_PANELS if p != "P33"])
    def test_dominant_numerator_is_p33_only(self, rng, panel):
        chans, ms = make_instance(rng, panel, n_channels=2)
        with pytest.raises(ConfigError, match="P33"):
            detect(KnowledgeSpec.from_panel(panel), chans, ms, dominant_numerator=True)

    def test_panel_names(self):
        assert KnowledgeSpec.from_panel("p23").panel == "P23"
        with pytest.raises(ConfigError):
            KnowledgeSpec.from_panel("P40")


class TestDecompositionIdentity:
    @pytest.mark.parametrize("panel", ALL_PANELS)
    def test_random_instances(self, rng, panel):
        spec = KnowledgeSpec.from_panel(panel)
        for _ in range(25):
            chans, ms = make_instance(rng, panel)
            rep = detect(spec, chans, ms)
            assert not rep.degenerate
            recombined = rep.alphas @ rep.per_channel - rep.cross_validation
            assert abs(recombined - rep.composite) <= 1e-9 * max(1.0, abs(rep.composite))
            assert abs(rep.alphas.sum() - 1.0) <= 1e-10
            assert np.all(rep.alphas >= 0)


class TestInvarianceClasses:
    @pytest.mark.parametrize("panel", ["P12", "P22", "P32"])
    @pytest.mark.parametrize("factor", [1e-3, 1.0, 1e3, 1e-100, 1e100])
    def test_composite_scaling(self, rng, panel, factor):
        spec = KnowledgeSpec.from_panel(panel)
        chans, ms = make_instance(rng, panel, n_channels=3)
        base = detect(spec, chans, ms)
        scaled = detect(spec, chans, ms.scaled([factor] * 3))
        assert scaled.composite == pytest.approx(base.composite, abs=1e-12, rel=1e-12)
        assert scaled.cross_validation == pytest.approx(
            base.cross_validation, abs=1e-12, rel=1e-12)
        np.testing.assert_allclose(scaled.alphas, base.alphas, atol=1e-12)
        np.testing.assert_allclose(scaled.per_channel, base.per_channel,
                                   atol=1e-12, rtol=1e-12)

    @pytest.mark.parametrize("panel", ["P13", "P23", "P33"])
    def test_per_channel_scaling(self, rng, panel):
        spec = KnowledgeSpec.from_panel(panel)
        chans, ms = make_instance(rng, panel, n_channels=3)
        base = detect(spec, chans, ms)
        for factors in ([1e-3, 1.0, 1e3], [7.7, 0.02, 13.0], [1e-100, 1.0, 1e100]):
            scaled = detect(spec, chans, ms.scaled(factors))
            assert scaled.composite == pytest.approx(base.composite, abs=1e-12, rel=1e-12)
            assert scaled.cross_validation == pytest.approx(
                base.cross_validation, abs=1e-12, rel=1e-12)
            np.testing.assert_allclose(scaled.per_channel, base.per_channel,
                                       atol=1e-12, rtol=1e-12)

    @pytest.mark.parametrize("panel", ["P11", "P21", "P31"])
    def test_known_noise_panels_scale_quadratically(self, rng, panel):
        spec = KnowledgeSpec.from_panel(panel)
        chans, ms = make_instance(rng, panel, n_channels=2)
        base = detect(spec, chans, ms)
        c = 10.0
        scaled = detect(spec, chans, ms.scaled([c, c]))
        assert scaled.composite == pytest.approx(c**2 * base.composite, rel=1e-10)


class TestP11:
    def test_single_channel_no_penalty(self, rng):
        for shape in SHAPES:
            chans, ms = make_instance(rng, "P11", n_channels=1, **shape)
            rep = detect_p11(chans, ms)
            assert rep.cross_validation == pytest.approx(0.0, abs=1e-12)
            s_w = sample_covariance(ms).whitened([chans[0].noise_sigma])
            p = orth_projection(chans[0].matrix)
            expected = np.real(np.trace(p @ s_w.matrix))
            assert rep.composite == pytest.approx(expected, rel=1e-12)

    def test_identical_channels_and_data_agree(self, rng):
        ch = random_channel(rng, 6, 2, noise_variance=1.2, gain=0.8 + 0.3j)
        x = complex_normal(rng, (6, 5))
        rep = detect_p11([ch, ch], MeasurementSet((x, x)))
        assert rep.cross_validation == pytest.approx(0.0, abs=1e-10)

    def test_cv_matches_amplitude_difference_quadratic(self, rng):
        # Two channels: the fusion penalty equals the precision-weighted
        # quadratic form in the difference of the per-channel amplitude
        # estimates, scaled by the equal weights.
        chans, ms = make_instance(rng, "P11", n_channels=2)
        rep = detect_p11(chans, ms)
        q = qee(chans, [0], [1])
        m = ms.n_snapshots
        e = (message_amplitudes(channel_message(chans[0], ms.block(0), m))[0]
             - message_amplitudes(channel_message(chans[1], ms.block(1), m))[0])
        s_ee = e @ e.conj().T / m
        expected = np.real(np.trace(np.linalg.solve(q, s_ee))) / 2
        assert rep.cross_validation == pytest.approx(expected, abs=1e-9, rel=1e-9)

    def test_nonnegative_cv(self, rng):
        for _ in range(50):
            chans, ms = make_instance(rng, "P11")
            assert detect_p11(chans, ms).cross_validation >= -1e-9


class TestP12:
    def test_in_span_data_maximal(self, rng):
        chans, _ = make_instance(rng, "P12", n_channels=2, n_modes=2, n_snapshots=4)
        f = compose_f(chans)
        a = complex_normal(rng, (2, 4))
        z = f @ a
        dims = [c.n_samples for c in chans]
        ms = MeasurementSet((z[:dims[0]], z[dims[0]:]))
        rep = detect_p12(chans, ms)
        assert rep.composite == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_data_zero(self, rng):
        chans, _ = make_instance(rng, "P12", n_channels=1, n_modes=1, n_snapshots=3)
        f = compose_f(chans)
        q, _ = np.linalg.qr(np.hstack([f, complex_normal(rng, (f.shape[0], 3))]))
        z = q[:, 1:4]  # orthogonal complement directions
        rep = detect_p12(chans, MeasurementSet((z,)))
        assert rep.composite == pytest.approx(0.0, abs=1e-12)

    def test_noise_alt_is_direct_residual(self, rng):
        # At a signal amplitude 1e8 times the noise, (tr S - tr P_F S) / LN
        # is a difference of two near-equal energies and loses every digit;
        # the residual formed from the data keeps them.
        ch = random_channel(rng, 16, 2, orthonormal=True, noise_variance=1.0, gain=1.0)
        for draw in range(20):
            ms = simulate([ch], 8, seed=draw, amplitudes=1e8 * complex_normal(rng, (2, 8)))
            z = ms.block(0)
            q = np.linalg.qr(ch.matrix)[0]
            resid = z - q @ (q.conj().T @ z)
            direct = np.vdot(resid, resid).real / (8 * 16)
            rep = detect_p12([ch], ms)
            assert rep.noise_alt[0] == pytest.approx(direct, rel=1e-6)

    def test_reports_noise_estimates(self, rng):
        for shape in SHAPES:
            chans, ms = make_instance(rng, "P12", n_channels=2, **shape)
            rep = detect_p12(chans, ms)
            s = sample_covariance(ms)
            assert rep.noise_null[0] == pytest.approx(s.trace() / ms.n_total, rel=1e-12)
            assert rep.noise_alt[0] <= rep.noise_null[0] + 1e-12


class TestP13:
    def test_single_channel_log_ratio(self, rng):
        for shape in SHAPES:
            chans, ms = make_instance(rng, "P13", n_channels=1, **shape)
            rep = detect_p13(chans, ms)
            s = sample_covariance(ms)
            p = orth_projection(chans[0].matrix)
            t = s.trace_block(0)
            r = np.real(np.trace((np.eye(chans[0].n_samples) - p) @ s.block(0)))
            assert rep.composite == pytest.approx(math.log(t / r), rel=1e-12)
            assert rep.cross_validation == pytest.approx(0.0, abs=1e-10)

    def test_dual_path_general_form(self, rng):
        # Independent path: per-channel log-likelihood-ratio terms evaluated
        # at the local noise estimates, minus the fusion penalty, all divided
        # by the total sample count.
        for shape in SHAPES:
            chans, ms = make_instance(rng, "P13", n_channels=3, **shape)
            rep = detect_p13(chans, ms)
            s = sample_covariance(ms)
            n_z = ms.n_total
            total = 0.0
            for i, ch in enumerate(chans):
                p = orth_projection(ch.matrix)
                tr = s.trace_block(i)
                resid = np.real(np.trace((np.eye(ch.n_samples) - p) @ s.block(i)))
                s2_null = tr / ch.n_samples
                s2_alt = resid / ch.n_samples
                total += (ch.n_samples * math.log(s2_null / s2_alt)
                          + tr / s2_null - resid / s2_alt)
            sigma_alt = np.sqrt(rep.noise_alt)
            s_w = s.whitened(sigma_alt)
            pf = orth_projection(compose_f(chans))
            cv = (sum(np.real(np.trace(orth_projection(c.matrix) @ s.block(i))) / rep.noise_alt[i]
                      for i, c in enumerate(chans))
                  - np.real(np.trace(pf @ s_w.matrix))) / n_z
            direct = total / n_z - cv
            assert rep.composite == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_zero_residual_flags_degenerate(self, rng):
        ch = random_channel(rng, 5, 2, noise_variance=1.0, gain=1.0)
        a = complex_normal(rng, (2, 4))
        clean = ch.gain * ch.matrix @ a
        rep = detect_p13([ch], MeasurementSet((clean,)))
        assert rep.degenerate
        assert math.isinf(rep.composite)


class TestCoherence:
    def test_identical_inputs(self, rng):
        ch = random_channel(rng, 6, 2, orthonormal=True)
        x = complex_normal(rng, (6, 4))
        c = coherence(ch.matrix, x, ch.matrix, x)
        assert c == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_outputs(self, rng):
        h = np.eye(4)[:, :2]
        x1 = np.zeros((4, 3), dtype=complex)
        x2 = np.zeros((4, 3), dtype=complex)
        x1[0, 0] = 1.0
        x2[1, 1] = 1.0
        assert coherence(h, x1, h, x2) == pytest.approx(0.0, abs=1e-14)

    def test_scale_invariance(self, rng):
        h1 = random_channel(rng, 5, 2, orthonormal=True).matrix
        h2 = random_channel(rng, 6, 2, orthonormal=True).matrix
        x1, x2 = complex_normal(rng, (5, 4)), complex_normal(rng, (6, 4))
        base = coherence(h1, x1, h2, x2)
        scaled = coherence(h1, 3.0 * x1, h2, 0.2 * x2)
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_magnitude_bounded(self, rng):
        for _ in range(50):
            h1 = random_channel(rng, 5, 2, orthonormal=True).matrix
            h2 = random_channel(rng, 7, 2, orthonormal=True).matrix
            c = coherence(h1, complex_normal(rng, (5, 3)), h2, complex_normal(rng, (7, 3)))
            assert abs(c) <= 1.0 + 1e-12

    def test_zero_energy_raises(self, rng):
        h = np.eye(4)[:, :1]
        with pytest.raises(DegenerateDataError):
            coherence(h, np.zeros((4, 2)), h, complex_normal(rng, (4, 2)))


class TestBuildFusionT:
    def test_two_channel_structure(self):
        lam = np.array([1.5, 0.7])
        c12 = 0.6 * np.exp(0.3j)
        coh = np.array([[1.0, c12], [np.conj(c12), 1.0]])
        t = build_fusion_t([0.5, 0.5], lam, coh)
        assert t[0, 0] == pytest.approx(0.5 * lam[1])
        assert t[1, 1] == pytest.approx(0.5 * lam[0])
        expected = -0.5 * math.sqrt(lam[0] * lam[1]) * c12
        assert t[0, 1] == pytest.approx(expected)

    def test_zero_coherence_diagonal(self):
        lam = np.array([2.0, 3.0, 1.0])
        alphas = np.full(3, 1 / 3)
        t = build_fusion_t(alphas, lam, np.eye(3))
        weighted = alphas * lam
        mins = min(weighted.sum() - weighted[i] for i in range(3))
        assert rayleigh_extremes(t).min_value == pytest.approx(mins)

    def test_eigen_identity_with_m_matrix(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            alphas = rng.dirichlet(np.ones(n))
            stats = rng.uniform(0.0, 4.0, n)
            z = complex_normal(rng, (n, n + 2))
            gram = z @ z.conj().T
            d = np.sqrt(np.real(np.diag(gram)))
            coh = gram / np.outer(d, d)
            t = build_fusion_t(alphas, stats, coh)
            m = fusion_m_matrix(alphas, stats, coh)
            lhs = float(alphas @ stats) - rayleigh_extremes(t).min_value
            rhs = rayleigh_extremes(m).max_value
            assert lhs == pytest.approx(rhs, abs=1e-9, rel=1e-9)

    def test_negative_stats_rejected(self):
        with pytest.raises(ValueError):
            build_fusion_t([0.5, 0.5], [-1.0, 1.0], np.eye(2))

    def test_bad_coherence_rejected(self):
        with pytest.raises(ValueError, match="unit diagonal"):
            build_fusion_t([0.5, 0.5], [1.0, 1.0], 0.5 * np.eye(2))


class TestP21:
    @staticmethod
    def unit_mode_channel(n):
        h = np.zeros((n, 1), dtype=complex)
        h[0, 0] = 1.0
        return ChannelModel(matrix=h, gain=1.0, noise_variance=1.0)

    def test_full_coherence_no_penalty(self, rng):
        ch = self.unit_mode_channel(6)
        x = complex_normal(rng, (6, 4))
        rep = detect_p21([ch, ch], MeasurementSet((x, x)))
        assert rep.cross_validation == pytest.approx(0.0, abs=1e-10)

    def test_zero_coherence_half_penalty(self, rng):
        # Matched-filter outputs orthogonal across channels and equal in
        # energy: penalty is half the shared per-channel statistic.
        ch = self.unit_mode_channel(6)
        x1 = complex_normal(rng, (6, 4))
        x1[0, 0] = 0.0
        x2 = x1.copy()
        a1 = x1[0, :]
        a2 = np.zeros_like(a1)
        a2[0] = np.linalg.norm(a1)  # same energy, orthogonal to a1
        x2[0, :] = a2
        rep = detect_p21([ch, ch], MeasurementSet((x1, x2)))
        lam = rep.per_channel
        assert lam[0] == pytest.approx(lam[1], rel=1e-9)
        assert abs(rep.coherences[0, 1]) <= 1e-9
        assert rep.cross_validation == pytest.approx(lam[0] / 2, rel=1e-9)

    def test_rayleigh_quotient_oracle(self, rng):
        chans, ms = make_instance(rng, "P21", n_channels=3)
        rep = detect_p21(chans, ms)
        m = fusion_m_matrix(rep.alphas, rep.per_channel, rep.coherences)
        g = complex_normal(rng, (3, 10_000))
        g /= np.linalg.norm(g, axis=0)
        quotients = np.real(np.einsum("ik,ij,jk->k", g.conj(), m, g))
        assert rep.composite >= quotients.max() - 1e-3
        assert rep.composite == pytest.approx(
            rayleigh_extremes(m).max_value, abs=1e-9, rel=1e-9)

    def test_gain_direction_achieves_composite(self, rng):
        chans, ms = make_instance(rng, "P21", n_channels=3)
        rep = detect_p21(chans, ms)
        g = rep.gain_direction
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-10)
        idx = np.argmax(np.abs(g) > 1e-12 * np.abs(g).max())
        assert g[idx].real >= 0
        m = fusion_m_matrix(rep.alphas, rep.per_channel, rep.coherences)
        assert np.real(g.conj() @ m @ g) == pytest.approx(rep.composite, rel=1e-9)

    def test_zero_energy_channel_flagged(self, rng):
        ch1 = random_channel(rng, 5, 1, orthonormal=True, noise_variance=1.0)
        ch2 = self.unit_mode_channel(4)
        x1 = complex_normal(rng, (5, 3))
        x2 = complex_normal(rng, (4, 3))
        x2[0, :] = 0.0  # exactly no energy in channel 2's matched subspace
        rep = detect_p21([ch1, ch2], MeasurementSet((x1, x2)))
        assert rep.degenerate
        assert np.all(np.isfinite(rep.alphas))
        assert abs(rep.coherences[0, 1]) == 0.0


class TestTwoChannelClosedForm:
    def test_full_coherence_zero(self):
        v, _ = two_channel_cross_validation(3.3, 0.4, 1.0)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_equal_stats_zero_coherence(self):
        v, nu2 = two_channel_cross_validation(2.5, 2.5, 0.0)
        assert v == pytest.approx(2.5, rel=1e-12)
        assert nu2 == pytest.approx(0.0, abs=1e-12)

    def test_four_one_zero_case(self):
        v, nu2 = two_channel_cross_validation(4.0, 1.0, 0.0)
        t = np.array([[1.0, 0.0], [0.0, 4.0]])
        assert v == pytest.approx(np.linalg.eigvalsh(t)[0], abs=1e-12)
        assert v == pytest.approx(1.0, abs=1e-12)
        assert nu2 == pytest.approx((1.5 / 2.5) ** 2, rel=1e-12)

    def test_zero_mean_returns_zero(self):
        v, nu2 = two_channel_cross_validation(0.0, 0.0, 0.5)
        assert v == 0.0 and nu2 == 0.0

    def test_matches_two_by_two_mineig(self, rng):
        for _ in range(100):
            l1, l2 = rng.uniform(0.05, 5.0, 2)
            mag = rng.uniform(0.0, 1.0)
            phase = rng.uniform(0, 2 * np.pi)
            c = mag * np.exp(1j * phase)
            t = np.array([[l2, -np.sqrt(l1 * l2) * c],
                          [-np.sqrt(l1 * l2) * np.conj(c), l1]])
            v, _ = two_channel_cross_validation(l1, l2, c)
            assert v == pytest.approx(np.linalg.eigvalsh(t)[0], abs=1e-12)

    def test_monotone_in_coherence(self):
        l1, l2 = 3.0, 1.2
        mags = np.linspace(0.0, 1.0, 100)
        values = [two_channel_cross_validation(l1, l2, m)[0] for m in mags]
        assert np.all(np.diff(values) <= 1e-12)


class TestP22:
    def test_composite_scale_invariance(self, rng):
        chans, ms = make_instance(rng, "P22", n_channels=2)
        base = detect_p22(chans, ms)
        scaled = detect_p22(chans, ms.scaled([5.0, 5.0]))
        assert scaled.composite == pytest.approx(base.composite, abs=1e-12, rel=1e-12)

    def test_single_channel_reduces_to_energy_fraction(self, rng):
        chans, ms = make_instance(rng, "P22", n_channels=1)
        rep = detect_p22(chans, ms)
        s = sample_covariance(ms)
        p = orth_projection(chans[0].matrix)
        expected = np.real(np.trace(p @ s.block(0))) / s.trace_block(0)
        assert rep.composite == pytest.approx(expected, rel=1e-10)

    def test_rayleigh_quotient_oracle(self, rng):
        chans, ms = make_instance(rng, "P22", n_channels=3)
        rep = detect_p22(chans, ms)
        s = sample_covariance(ms)
        m_mat = np.empty((3, 3), dtype=complex)
        outputs = [c.matrix.conj().T @ ms.block(i) for i, c in enumerate(chans)]
        for i in range(3):
            for j in range(3):
                m_mat[i, j] = np.vdot(outputs[j], outputs[i]) / (
                    ms.n_snapshots * s.trace())
        g = complex_normal(rng, (3, 10_000))
        g /= np.linalg.norm(g, axis=0)
        quotients = np.real(np.einsum("ik,ij,jk->k", g.conj(), m_mat, g))
        assert rep.composite >= quotients.max() - 1e-3


class TestP23:
    def test_per_channel_scale_invariance(self, rng):
        chans, ms = make_instance(rng, "P23", n_channels=3)
        base = detect_p23(chans, ms)
        scaled = detect_p23(chans, ms.scaled([0.3, 11.0, 2.5]))
        assert scaled.composite == pytest.approx(base.composite, abs=1e-12, rel=1e-12)
        assert scaled.cross_validation == pytest.approx(
            base.cross_validation, abs=1e-12, rel=1e-12)

    def test_single_channel_log_ratio(self, rng):
        chans, ms = make_instance(rng, "P23", n_channels=1)
        rep = detect_p23(chans, ms)
        s = sample_covariance(ms)
        p = orth_projection(chans[0].matrix)
        t = s.trace_block(0)
        r = np.real(np.trace((np.eye(chans[0].n_samples) - p) @ s.block(0)))
        assert rep.composite == pytest.approx(math.log(t / r), rel=1e-10)

    @pytest.mark.parametrize("panel", ["P21", "P22", "P23"])
    def test_coherence_never_lowers_composite(self, rng, panel):
        # The cross-validation term is the smallest eigenvalue of the fusion
        # matrix, at most its smallest diagonal entry: the smallest eigenvalue
        # of the fusion matrix with the coherences zeroed.
        spec = KnowledgeSpec.from_panel(panel)
        for _ in range(200):
            chans, ms = make_instance(rng, panel, n_channels=2)
            rep = detect(spec, chans, ms)
            stats = rep.fusion_stats if panel == "P23" else rep.per_channel
            t0 = build_fusion_t(rep.alphas, stats, np.eye(len(chans)))
            zeroed = float(rep.alphas @ rep.per_channel) - rayleigh_extremes(t0).min_value
            assert rep.composite >= zeroed - 1e-12 * max(1.0, abs(zeroed))


class TestP31:
    def test_noise_free_rank_one(self, rng):
        ch = random_channel(rng, 6, 1, noise_variance=1.0, gain=1.0)
        a = complex_normal(rng, (1, 4))
        clean = ch.gain * ch.matrix @ a
        rep = detect_p31([ch], MeasurementSet((clean,)))
        s = sample_covariance(MeasurementSet((clean,)))
        assert rep.composite == pytest.approx(s.trace(), rel=1e-10)
        assert rep.cross_validation == pytest.approx(0.0, abs=1e-10)

    def test_full_mode_count_gives_trace(self, rng):
        n = 4
        h = np.linalg.qr(complex_normal(rng, (n, n)))[0]
        ch = ChannelModel(matrix=h, gain=1.0, noise_variance=1.3)
        ms = simulate([ch], 6, seed=11, amplitudes=complex_normal(rng, (n, 6)))
        rep = detect_p31([ch], ms)
        s_w = sample_covariance(ms).whitened([ch.noise_sigma])
        assert rep.composite == pytest.approx(s_w.trace(), rel=1e-10)
        assert rep.cross_validation == pytest.approx(0.0, abs=1e-9)

    def test_rank_one_two_snapshot_closed_form(self, rng):
        chans, _ = make_instance(rng, "P31", n_channels=2, n_modes=1, n_snapshots=2)
        ms = simulate(chans, 2, seed=13, amplitudes=complex_normal(rng, (1, 2)))
        rep = detect_p31(chans, ms)
        sigmas = [c.noise_sigma for c in chans]
        z_w = np.vstack([ms.block(i) / sigmas[i] for i in range(2)])
        closed = rank_one_pair_composite(z_w[:, 0], z_w[:, 1], n_channels=2)
        assert rep.composite == pytest.approx(closed, abs=1e-10, rel=1e-10)
        s_w = sample_covariance(ms).whitened(sigmas)
        top = hermitian_eig(s_w.matrix).values[0]
        assert closed == pytest.approx(top / 2, abs=1e-10, rel=1e-10)

    def test_composite_is_whitened_eigenvalue_sum(self, rng):
        for shape in SHAPES:
            chans, ms = make_instance(rng, "P31", n_channels=3, **shape)
            rep = detect_p31(chans, ms)
            s_w = sample_covariance(ms).whitened([ch.noise_sigma for ch in chans])
            top = hermitian_eig(s_w.matrix).values[:chans[0].n_modes].sum()
            assert rep.composite == pytest.approx(top / 3, rel=1e-10)

    def test_nonnegative_cv(self, rng):
        for _ in range(50):
            chans, ms = make_instance(rng, "P31")
            assert detect_p31(chans, ms).cross_validation >= -1e-9

    def test_mode_count_validated(self, rng):
        chans, _ = make_instance(rng, "P31", n_channels=1, n_modes=2, n_snapshots=6)
        ms = simulate(chans, 1, seed=2)
        with pytest.raises(ValueError, match="snapshots"):
            detect_p31(chans, ms)


class TestP32:
    def test_composite_scale_invariance(self, rng):
        chans, ms = make_instance(rng, "P32", n_channels=2)
        base = detect_p32(chans, ms)
        scaled = detect_p32(chans, ms.scaled([7.0, 7.0]))
        assert scaled.composite == pytest.approx(base.composite, abs=1e-12, rel=1e-12)

    def test_exact_rank_j_data(self, rng):
        chans, _ = make_instance(rng, "P32", n_channels=2, n_modes=2, n_snapshots=2)
        a = complex_normal(rng, (2, 2))
        blocks = tuple(c.gain * c.matrix @ a for c in chans)
        rep = detect_p32(chans, MeasurementSet(blocks))
        assert rep.composite == pytest.approx(1.0, abs=1e-10)
        assert rep.cross_validation <= 1e-10

    def test_composite_is_energy_fraction(self, rng):
        for shape in SHAPES:
            chans, ms = make_instance(rng, "P32", n_channels=3, **shape)
            rep = detect_p32(chans, ms)
            s = sample_covariance(ms)
            j = chans[0].n_modes
            w = hermitian_eig(s.matrix).values
            assert rep.composite == pytest.approx(w[:j].sum() / s.trace(), rel=1e-10)
            assert 0.0 < rep.composite <= 1.0


class TestP33:
    def test_per_channel_scale_invariance(self, rng):
        chans, ms = make_instance(rng, "P33", n_channels=3)
        base = detect_p33(chans, ms)
        scaled = detect_p33(chans, ms.scaled([0.1, 22.0, 3.3]))
        assert scaled.composite == pytest.approx(base.composite, abs=1e-12, rel=1e-12)
        assert scaled.cross_validation == pytest.approx(
            base.cross_validation, abs=1e-12, rel=1e-12)

    def test_single_channel_zero_cv(self, rng):
        chans, ms = make_instance(rng, "P33", n_channels=1)
        rep = detect_p33(chans, ms)
        assert rep.cross_validation == pytest.approx(0.0, abs=1e-10)

    def test_dual_path_with_dominant_numerator(self, rng):
        # Independent path: per-channel eigen-sums plugged into the
        # pre-estimation detector display, with the composite span taken as
        # the dominant whitened eigenvectors.
        for shape in SHAPES:
            chans, ms = make_instance(rng, "P33", n_channels=3, **shape)
            rep = detect_p33(chans, ms, dominant_numerator=True)
            s = sample_covariance(ms)
            j = chans[0].n_modes
            n_z = ms.n_total
            direct = 0.0
            phi_term = 0.0
            sigma_alt = []
            for i, ch in enumerate(chans):
                w = hermitian_eig(s.block(i)).values
                top, sub = w[:j].sum(), w[j:].sum()
                direct += (ch.n_samples / n_z) * math.log((top + sub) / sub)
                phi_term += (ch.n_samples / n_z) * (top / sub)
                sigma_alt.append(math.sqrt(sub / ch.n_samples))
            s_w = s.whitened(sigma_alt)
            top_z = hermitian_eig(s_w.matrix).values[:j].sum()
            direct -= phi_term - top_z / n_z
            assert rep.composite == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_printed_and_dominant_variants_differ_consistently(self, rng):
        chans, ms = make_instance(rng, "P33", n_channels=2)
        printed = detect_p33(chans, ms)
        dominant = detect_p33(chans, ms, dominant_numerator=True)
        assert printed.cross_validation == pytest.approx(
            dominant.cross_validation, rel=1e-12)
        # printed numerator adds the subdominant energy on top of the total
        gap = printed.alphas @ (printed.per_channel - dominant.per_channel)
        assert printed.composite - dominant.composite == pytest.approx(gap, rel=1e-9)
        assert np.all(printed.per_channel >= dominant.per_channel)

    def test_degenerate_when_no_residual(self, rng):
        ch = random_channel(rng, 4, 1, noise_variance=1.0, gain=1.0)
        a = complex_normal(rng, (1, 3))
        clean = ch.gain * ch.matrix @ a
        rep = detect_p33([ch], MeasurementSet((clean,)))
        assert rep.degenerate
        assert math.isinf(rep.composite)

    def test_residual_dimension_required(self, rng):
        n = 3
        h = np.linalg.qr(complex_normal(rng, (n, n)))[0]
        ch = ChannelModel(matrix=h, gain=1.0, noise_variance=1.0)
        ms = simulate([ch], 5, seed=4)
        with pytest.raises(ValueError, match="residual"):
            detect_p33([ch], ms)


class TestExtremeScales:
    @pytest.mark.parametrize("panel", ["P13", "P23", "P33"])
    def test_residual_energy_survives_dominant_signal(self, rng, panel):
        # At a signal amplitude 1e8 times the noise the residual energy is
        # ~1e-16 of the block energy: below the rounding error of a
        # difference of traces or of an eigenvalue tail of S, but well
        # resolved when formed from the data directly.
        ch = random_channel(rng, 16, 2, orthonormal=True, noise_variance=1.0, gain=1.0)
        spec = KnowledgeSpec.from_panel(panel)
        for draw in range(20):
            ms = simulate([ch], 8, seed=draw, amplitudes=1e8 * complex_normal(rng, (2, 8)))
            x = ms.block(0)
            if panel == "P33":
                u = np.linalg.svd(x)[0][:, :2]
                resid = x - u @ (u.conj().T @ x)
                log_ratio = math.log1p
            else:
                resid = x - ch.matrix @ (ch.matrix.conj().T @ x)
                log_ratio = math.log
            direct = log_ratio(np.vdot(x, x).real / np.vdot(resid, resid).real)
            rep = detect(spec, [ch], ms)
            assert not rep.degenerate
            assert rep.per_channel[0] == pytest.approx(direct, rel=1e-6)

    @pytest.mark.parametrize("panel", ["P13", "P23"])
    def test_composite_matches_50_digit_reference(self, rng, panel):
        # At signal amplitudes of 1e5-1e6 a cross-validation term formed from
        # the in-span energies (P13) or as the smallest eigenvalue of the
        # fusion matrix (P23) cancels energies of the size of the signal; the
        # tails keep the digits.  P13 draws one channel and identical copies
        # of it: with unequal noise estimates its composite leaks signal
        # energy in proportion to their differences (ROADMAP 2a), and those
        # carry the eps * amplitude rounding of any float64 residual.
        spec = KnowledgeSpec.from_panel(panel)
        reference = p13_composite_mp if panel == "P13" else p23_composite_mp
        for draw in range(9):
            n_channels, n_modes = 1 + draw % 3, 1 + draw % 2
            n_snapshots = int(rng.integers(2, 9))
            amplitudes = 10.0 ** rng.uniform(5, 6) * complex_normal(rng, (n_modes, n_snapshots))
            if panel == "P13":
                ch = random_channel(rng, int(rng.integers(n_modes + 1, 9)), n_modes)
                x = simulate([ch], n_snapshots, seed=draw, amplitudes=amplitudes).block(0)
                chans, ms = [ch] * n_channels, MeasurementSet((x,) * n_channels)
            else:
                chans = [random_channel(rng, int(rng.integers(n_modes + 1, 9)), n_modes,
                                        orthonormal=True) for _ in range(max(n_channels, 2))]
                ms = simulate(chans, n_snapshots, seed=draw, amplitudes=amplitudes)
            composite = detect(spec, chans, ms).composite
            expected = reference(chans, ms)
            assert abs(composite - expected) <= 1e-9 * max(1.0, abs(expected)), draw

    @pytest.mark.parametrize("panel", ALL_PANELS)
    def test_energy_overflow_is_an_error(self, rng, panel):
        chans, ms = make_instance(rng, panel, n_channels=2)
        with pytest.raises(ValueError, match="overflow"):
            detect(KnowledgeSpec.from_panel(panel), chans, ms.scaled([1e160, 1.0]))


def stack_with_tails(rng, n, m, j, ratios):
    """n x m matrices whose squared singular values beyond the J-th sum to
    ratios[i] times the largest, over scales from 1e-3 to 1e5."""
    out = []
    for ratio, scale in zip(ratios, np.resize([1.0, 1e5, 1e-3], len(ratios))):
        u = np.linalg.qr(complex_normal(rng, (n, m)))[0]
        v = np.linalg.qr(complex_normal(rng, (m, m)))[0]
        rest = rng.uniform(0.5, 1.0, m - j)
        squares = np.concatenate([np.linspace(1.0, 0.8, j), ratio * rest / rest.sum()])
        out.append(scale * (u * np.sqrt(squares)) @ v.conj().T)
    return np.array(out)


class TestGramSplit:
    """Row 3 splits a tall matrix at J through its Gram eigenvalues, unless
    its tail is at most _GRAM_RATIO of the largest, and then by SVD."""

    @pytest.mark.parametrize("n, m, j", [(10, 8, 2), (36, 32, 4)])
    def test_tails_just_above_the_bound_match_50_digit_split(self, rng, monkeypatch, n, m, j):
        x = stack_with_tails(rng, n, m, j, detectors._GRAM_RATIO * np.array([1.001, 1.5, 4.0]))
        monkeypatch.setattr(np.linalg, "svd", None)  # every matrix takes the Gram path
        top, tail = detectors._split(x, j, m)
        for k, matrix in enumerate(x):
            expected = split_mp(matrix, j, m)
            assert expected[1] > detectors._GRAM_RATIO * np.linalg.norm(matrix, 2) ** 2 / m
            np.testing.assert_allclose((top[k], tail[k]), expected, rtol=1e-12, atol=0)

    def test_mixed_batch_gives_each_matrix_its_own_split(self, rng):
        ratios = detectors._GRAM_RATIO * np.array([10.0, 0.1, 1.001, 1e-6, 0.999, 1e-20])
        x = stack_with_tails(rng, 10, 8, 2, ratios)
        top, tail = detectors._split(x, 2, 8)
        for k in range(len(x)):
            alone = detectors._split(x[k:k + 1], 2, 8)
            assert (top[k], tail[k]) == (alone[0][0], alone[1][0]), k

    def test_tails_below_the_bound_are_the_svd_split(self, rng, monkeypatch):
        ratios = detectors._GRAM_RATIO * np.array([0.999, 1e-3, 2.0, 1e-12, 1e-20, 5.0])
        below = ratios < detectors._GRAM_RATIO
        x = stack_with_tails(rng, 36, 32, 4, ratios)
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a) or svd(a, **kw))
        top, tail = detectors._split(x, 4, 32)
        assert len(calls) == 1  # one SVD, of the matrices below the bound
        np.testing.assert_array_equal(calls[0], x[below])
        e = svd(x[below], compute_uv=False) ** 2 / 32
        np.testing.assert_array_equal(top[below], e[:, :4].sum(-1))
        np.testing.assert_array_equal(tail[below], e[:, 4:].sum(-1))

    @pytest.mark.parametrize("amplitude", [1.0, 100.0], ids=["gram", "svd"])
    def test_summarise_splits_ragged_blocks(self, rng, monkeypatch, amplitude):
        # Blocks of N_l = 6 <= M and N_l = 12 > M, zero-padded to one tall
        # stack: at a normal amplitude both tails lie above the bound and
        # come from Gram eigenvalues, at a loud one both lie below it and
        # one SVD runs on the padded blocks themselves.
        m, j = 8, 2
        channels = [random_channel(rng, n, j) for n in (6, 12)]
        amplitudes = amplitude * complex_normal(rng, (j, m))
        blocks = [ch.gain * ch.matrix @ amplitudes
                  + np.sqrt(ch.noise_variance / 2.0) * complex_normal(rng, (ch.n_samples, m))
                  for ch in channels]
        expected = [split_mp(x, j, m) for x in blocks]
        loud = [tail <= detectors._GRAM_RATIO * np.linalg.norm(x, 2) ** 2 / m
                for x, (_, tail) in zip(blocks, expected)]
        assert loud == [amplitude > 1.0] * 2
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a) or svd(a, **kw))
        s = summarise(KnowledgeSpec.from_panel("P33"), channels, [x[None] for x in blocks])
        assert len(calls) == any(loud)
        for idx, x in enumerate(blocks):
            if loud[idx]:
                np.testing.assert_array_equal(calls[0][idx, :len(x)], x)
                assert not calls[0][idx, len(x):].any()
            np.testing.assert_allclose((s.signal[0, idx], s.tails[0, idx]), expected[idx],
                                       rtol=1e-12, atol=0)


class TestReportShape:
    @pytest.mark.parametrize("panel", ALL_PANELS)
    def test_report_fields(self, rng, panel):
        spec = KnowledgeSpec.from_panel(panel)
        chans, ms = make_instance(rng, panel, n_channels=2)
        rep = detect(spec, chans, ms)
        assert rep.panel.panel == panel
        assert rep.alphas.shape == (2,)
        assert rep.per_channel.shape == (2,)
        if panel.startswith("P2"):
            assert rep.coherences is not None
            assert rep.gain_direction is not None

    def test_identity_mismatch_is_rejected(self):
        report = dict(alphas=np.array([0.5, 0.5]), per_channel=np.array([1.0, 2.0]),
                      cross_validation=0.2, panel=KnowledgeSpec.from_panel("P11"))
        assert DetectorReport(composite=1.3, **report).composite == 1.3
        with pytest.raises(ConfigError, match=r"mismatch: composite=1\.0 but "
                                              r"sum\(alpha\*stat\)-V=1\.3$"):
            DetectorReport(composite=1.0, **report)
        assert DetectorReport(composite=1.0, degenerate=True, **report).degenerate


def pinned_instance():
    """Three orthonormal channels of 5, 7 and 9 samples, J = 2 and M = 6, so
    that row 3's factors have different heights, and data with a signal."""
    rng = np.random.default_rng(2302)
    channels = [random_channel(rng, n, 2, orthonormal=True) for n in (5, 7, 9)]
    amplitudes = complex_normal(rng, (2, 6))
    # The noise comes from this rng too, so the pins follow the formulas, not
    # the package's random streams.
    blocks = [ch.gain * ch.matrix @ amplitudes
              + np.sqrt(ch.noise_variance / 2.0) * complex_normal(rng, (ch.n_samples, 6))
              for ch in channels]
    return channels, MeasurementSet(tuple(blocks))


# (composite, cross_validation) of each panel on pinned_instance, as detect
# gave them when the instance's noise moved from simulate to the test's rng.
PINNED = {
    "P11": (8.97527891766561, 1.1243832127887312),
    "P12": (0.6267224651364934, 0.061981940717687464),
    "P13": (0.6931361331293018, 0.23092890795752924),
    "P21": (9.062443236612802, 1.0372188938415403),
    "P22": (0.6319645903545499, 0.056739815499631245),
    "P23": (0.7505639984008309, 0.1735010426860001),
    "P31": (11.679109244806275, 1.39190532089909),
    "P32": (0.7720298665131183, 0.07484058606052942),
    "P33": (1.3166748692596264, 0.5089968817504962),
    "P33 dominant": (1.1128668804325397, 0.5089968817504962),
}


class TestPinned:
    @pytest.mark.parametrize("panel", PINNED)
    def test_composites_are_pinned(self, panel):
        channels, ms = pinned_instance()
        report = detect(KnowledgeSpec.from_panel(panel[:3]), channels, ms,
                        dominant_numerator=panel.endswith("dominant"))
        # Another LAPACK may round differently; a changed formula moves them further.
        assert (report.composite, report.cross_validation) == pytest.approx(PINNED[panel],
                                                                            rel=1e-12)

    def test_row_3_summary_splits_its_own_factors(self):
        # Bit for bit the split of the summary's own stack, and the same
        # summary for every column.
        channels, ms = pinned_instance()
        blocks = [x[None] for x in ms.blocks]
        s = summarise(KnowledgeSpec.from_panel("P31"), channels, blocks)
        signal, tails = detectors._split(s.coords, 2, ms.n_snapshots)
        np.testing.assert_array_equal(s.signal, signal)
        np.testing.assert_array_equal(s.tails, tails)
        for panel in ("P32", "P33"):
            other = summarise(KnowledgeSpec.from_panel(panel), channels, blocks)
            for field, value in zip(s._fields, other):
                np.testing.assert_array_equal(value, getattr(s, field), err_msg=field)
