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
from glrfusion.linalg import energy, normalize_phases
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
    tail_mp,
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

    @pytest.mark.parametrize("scale, variance_scale", [(1e-300, 1e20), (1e-300, 1.0), (1.0, 1.0),
                                                       (1e300, 1.0), (1e300, 1e-20)])
    @pytest.mark.parametrize("panel", ["P11", "P12", "P13", "P21", "P22", "P23"])
    def test_whitened_rows_are_the_quotient_bit_for_bit(self, rng, panel, scale,
                                                        variance_scale, monkeypatch):
        # evaluate scales each block by 1 / sqrt(v_l) where it divided by
        # sqrt(v_l): numpy divides by a real c as by c + 0j, through 1 / c,
        # so the bits are the quotient's, subnormal or overflowing ones
        # included.  The data set's coordinates and its variances (the
        # known ones, or the tails that estimate them) are rescaled in its
        # summary, and evaluate stops once it has whitened them: a block
        # at 1e300 overflows its energy.  The summaries cover a C-ordered
        # and a Fortran-ordered batch of one, whose blocks are read in
        # place or gathered, and, on column 3, a batch of two whose second
        # cell is not resolved.
        spec = KnowledgeSpec.from_panel(panel)
        chans, ms = make_instance(rng, panel, n_channels=3, n_modes=2, n_snapshots=5)
        one, two = (summarise(spec, chans, [np.stack([x] * batch) for x in ms.blocks])
                    for batch in (1, 2))
        one, two = (s._replace(coords=s.coords * scale, variances=s.variances * variance_scale,
                               tails=s.tails * variance_scale) for s in (one, two))
        summaries = [one, one._replace(coords=np.asfortranarray(one.coords)),
                     two._replace(tails=two.tails * [[1.0], [0.0]])]
        gains_row = panel.startswith("P2")
        columns, stacks, column = [], [], detectors._column

        class Whitened(Exception):
            pass

        def whitened_stack(*args):
            stacks.append(args[0] if gains_row else args[1])
            raise Whitened

        monkeypatch.setattr(detectors, "_column",
                            lambda *args, **kw: columns.append(column(*args, **kw)) or columns[-1])
        monkeypatch.setattr(detectors, "_small_gram" if gains_row else "_coordinates",
                            whitened_stack)
        for summary in summaries:
            with np.errstate(all="ignore"), pytest.raises(Whitened):
                detectors.evaluate(spec, summary)
            col = columns[-1]
            data = detectors._h(summary.coupling) @ summary.coords if gains_row else summary.coords
            cells = np.flatnonzero(col.resolved)
            v = np.broadcast_to(1.0 if col.variance is None else col.variance,
                                col.resolved.shape + (3,))[cells]
            with np.errstate(over="ignore"):
                quotient = data[cells] / np.sqrt(v)[..., None, None]
            got = stacks[-1]
            assert got.dtype == quotient.dtype and got.size == quotient.size
            np.testing.assert_array_equal(got.reshape(quotient.shape).view(np.uint64),
                                          np.ascontiguousarray(quotient).view(np.uint64))
        assert [len(col.resolved) - np.count_nonzero(col.resolved) for col in columns] == (
            [0, 0, 1] if panel.endswith("3") else [0, 0, 0])


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


def wide_or_square(rng, rows, cols, j, ratios):
    """stack_with_tails of rows x cols matrices, also for fewer rows than
    columns: then the conjugate transposes of cols x rows ones, whose x x^H
    is the narrow matrix's Gram matrix."""
    if rows >= cols:
        return stack_with_tails(rng, rows, cols, j, ratios)
    return detectors._h(stack_with_tails(rng, cols, rows, j, ratios))


def split_stack(x, j, m):
    """detectors._split of a stack of matrices x, from their smaller Gram matrices."""
    return detectors._split(detectors._small_gram(x), j, m, x.__getitem__)


class TestGramSplit:
    """Every stack splits at J through the eigenvalues of its smaller Gram
    matrix, x x^H for a wide x (row 2's L x JM stack) and x^H x otherwise
    (row 3's tall and square factors), unless its tail is at most
    GRAM_RATIO of the largest, and then by SVD."""

    # Tall row-3 shapes, wide row-2 shapes (L, JM) split at one value, and a square one.
    @pytest.mark.parametrize("rows, cols, j", [(10, 8, 2), (36, 32, 4), (2, 16, 1), (4, 32, 1),
                                               (8, 8, 2)])
    def test_tails_just_above_the_bound_match_50_digit_split(self, rng, monkeypatch,
                                                             rows, cols, j):
        x = wide_or_square(rng, rows, cols, j,
                           detectors.GRAM_RATIO * np.array([1.001, 1.5, 4.0]))
        monkeypatch.setattr(np.linalg, "svd", None)  # every matrix takes the Gram path
        top, tail = split_stack(x, j, cols)
        for k, matrix in enumerate(x):
            # The oracle forms x^H x, so it reads the narrower orientation.
            expected = split_mp(matrix if rows >= cols else detectors._h(matrix), j, cols)
            assert expected[1] > detectors.GRAM_RATIO * np.linalg.norm(matrix, 2) ** 2 / cols
            np.testing.assert_allclose((top[k], tail[k]), expected, rtol=1e-12, atol=0)

    @staticmethod
    def check_mixed_batch(rng, rows, cols, j):
        ratios = detectors.GRAM_RATIO * np.array([10.0, 0.1, 1.001, 1e-6, 0.999, 1e-20])
        x = wide_or_square(rng, rows, cols, j, ratios)
        top, tail = split_stack(x, j, 8)
        for k in range(len(x)):
            alone = split_stack(x[k:k + 1], j, 8)
            assert (top[k], tail[k]) == (alone[0][0], alone[1][0]), k

    def test_mixed_batch_gives_each_matrix_its_own_split(self, rng):
        self.check_mixed_batch(rng, 10, 8, 2)

    def test_mixed_wide_batch_gives_each_matrix_its_own_split(self, rng):
        self.check_mixed_batch(rng, 4, 32, 1)

    @staticmethod
    def check_svd_below_the_bound(rng, monkeypatch, rows, cols, j):
        ratios = detectors.GRAM_RATIO * np.array([0.999, 1e-3, 2.0, 1e-12, 1e-20, 5.0])
        below = ratios < detectors.GRAM_RATIO
        x = wide_or_square(rng, rows, cols, j, ratios)
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a) or svd(a, **kw))
        top, tail = split_stack(x, j, 32)
        assert len(calls) == 1  # one SVD, of the matrices below the bound
        np.testing.assert_array_equal(calls[0], x[below])
        e = svd(x[below], compute_uv=False) ** 2 / 32
        np.testing.assert_array_equal(top[below], e[:, :j].sum(-1))
        np.testing.assert_array_equal(tail[below], e[:, j:].sum(-1))

    def test_tails_below_the_bound_are_the_svd_split(self, rng, monkeypatch):
        self.check_svd_below_the_bound(rng, monkeypatch, 36, 32, 4)

    def test_wide_tails_below_the_bound_are_the_svd_split(self, rng, monkeypatch):
        self.check_svd_below_the_bound(rng, monkeypatch, 4, 32, 1)

    @pytest.mark.parametrize("panel", ["P21", "P22", "P23"])
    def test_row_2_at_a_normal_amplitude_takes_no_svd(self, rng, monkeypatch, panel):
        # Row 2's (B, L, JM) stack of matched outputs is wide, and at a normal
        # amplitude every tail lies above the bound: evaluate runs no SVD.
        m, j, batch = 8, 2, 5
        channels = [random_channel(rng, n, j, orthonormal=True) for n in (6, 9, 12)]
        amplitudes = complex_normal(rng, (batch, j, m))
        blocks = [ch.gain * ch.matrix @ amplitudes + np.sqrt(ch.noise_variance / 2.0)
                  * complex_normal(rng, (batch, ch.n_samples, m)) for ch in channels]
        spec = KnowledgeSpec.from_panel(panel)
        s = summarise(spec, channels, blocks)
        expected = detectors.evaluate(spec, s)
        monkeypatch.setattr(np.linalg, "svd", None)
        ev = detectors.evaluate(spec, s)
        assert ev.col.resolved.all()
        np.testing.assert_array_equal(ev.composite, expected.composite)
        np.testing.assert_array_equal(ev.cross_validation, expected.cross_validation)

    @pytest.mark.parametrize("panel", ["P21", "P22", "P23"])
    def test_one_channel_row_2_takes_no_svd(self, rng, monkeypatch, panel):
        # One channel's (B, 1, JM) stack has a 1 x 1 Gram matrix and a tail of
        # exactly 0, so no matrix falls back to the SVD, and every value is the
        # singular-value split's to rounding.
        m, j = 8, 2
        channel = random_channel(rng, 10, j, orthonormal=True)
        block = (channel.gain * channel.matrix @ complex_normal(rng, (j, m))
                 + np.sqrt(channel.noise_variance / 2.0) * complex_normal(rng, (10, m)))
        spec, ms = KnowledgeSpec.from_panel(panel), MeasurementSet((block,))
        calls, singular_split = [], detectors._singular_split
        monkeypatch.setattr(detectors, "_singular_split",
                            lambda *args: calls.append(args) or singular_split(*args))
        report = detect(spec, [channel], ms)
        assert not calls
        monkeypatch.setattr(detectors, "_split", lambda gram, j, m, rows: singular_split(
            rows(np.ones(gram.shape[:-2], bool)), j, m))
        expected = detect(spec, [channel], ms)
        for field in ("composite", "cross_validation", "per_channel", "alphas"):
            np.testing.assert_allclose(getattr(report, field), getattr(expected, field),
                                       rtol=1e-13, atol=1e-13, err_msg=field)

    def test_a_nan_in_a_stack_of_at_most_j_rows_still_takes_the_svd(self, monkeypatch):
        # Only the matrix with a nan falls back, and LAPACK refuses it.
        x = np.array([[[1.0, 2.0j]], [[np.nan, 1.0]]])
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a) or svd(a, **kw))
        with pytest.raises(np.linalg.LinAlgError):
            split_stack(x, 1, 2)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], x[1:])

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
        loud = [tail <= detectors.GRAM_RATIO * np.linalg.norm(x, 2) ** 2 / m
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

    @staticmethod
    def weighted_composites(rng, ratios, k=10, m=8, j=2):
        """A P31 summary of three channels of K = 10 > M samples, whose noise
        variances v_l spread from 1e-3 to 1e3, with factors F_l = sqrt(v_l) W_l
        for the K-row slices W_l of stacks W whose tails are ``ratios`` of
        their largest squared singular values; and each composite's stack
        [F_l / sqrt(v_l)] as evaluate whitens it."""
        variances = np.array([1e-3, 1.0, 1e3])
        channels = [random_channel(rng, k, j, noise_variance=v) for v in variances]
        w = stack_with_tails(rng, len(variances) * k, m, j, ratios)
        factors = w.reshape(len(w), len(variances), k, m) * np.sqrt(variances)[:, None, None]
        empty = np.empty((len(w), 0, m), dtype=complex)
        s = detectors.coordinate_summary(KnowledgeSpec.from_panel("P31"), channels,
                                         list(factors.swapaxes(0, 1)),
                                         np.zeros((len(w), len(variances))), [empty] * 3)
        assert s.gram.shape == (len(w), len(variances), m, m)
        whitened = (factors / np.sqrt(variances)[:, None, None]).reshape(len(w), -1, m)
        return s, whitened

    def test_composite_gram_sums_tails_just_above_the_bound_to_50_digits(self, rng,
                                                                         monkeypatch):
        # The composite's Gram matrix is sum_l F_l^H F_l / v_l, summed from
        # the summary's Gram matrices: no SVD, and the split of the whitened
        # stack all the same.
        s, whitened = self.weighted_composites(
            rng, detectors.GRAM_RATIO * np.array([1.001, 1.5, 4.0, 1.001]))
        splits, split = [], detectors._split
        monkeypatch.setattr(detectors, "_split",
                            lambda gram, *args: splits.append(split(gram, *args)) or splits[-1])
        monkeypatch.setattr(np.linalg, "svd", None)
        detectors.evaluate(KnowledgeSpec.from_panel("P31"), s)
        (top, tail), = splits
        for k, matrix in enumerate(whitened):
            np.testing.assert_allclose((top[k], tail[k]), split_mp(matrix, 2, 8),
                                       rtol=1e-13, atol=0)

    def test_composites_below_the_bound_whiten_only_their_own_rows(self, rng, monkeypatch):
        ratios = detectors.GRAM_RATIO * np.array([0.999, 3.0, 1e-12, 2.0, 1e-20, 5.0])
        below = ratios < detectors.GRAM_RATIO
        s, whitened = self.weighted_composites(rng, ratios)
        calls, singular_split = [], detectors._singular_split
        monkeypatch.setattr(detectors, "_singular_split",
                            lambda *args: calls.append(args) or singular_split(*args))
        ev = detectors.evaluate(KnowledgeSpec.from_panel("P31"), s)
        (x, j, m), = calls
        np.testing.assert_array_equal(x, whitened[below])
        top = singular_split(whitened[below], j, m)[0]
        np.testing.assert_array_equal(ev.composite[below], top / 3)


def orthonormal(rng, n, j):
    return np.linalg.qr(complex_normal(rng, (n, j)))[0]


class TestCoordinateTails:
    """_coordinates takes each matrix's tail outside its basis as the
    difference of energies ||x||^2 - ||Q^H x||^2 where that exceeds
    GRAM_RATIO ||x||^2, and forms the residual of every other matrix, and
    only of those."""

    N, J, M = 16, 2, 8

    @classmethod
    def stack_in_bases(cls, rng, bases, shares):
        """Matrices x_k = s_k (Q_k A_k + W_k), the scales s_k cycling over 1e-3,
        1 and 1e5, whose energy outside the span of Q_k is shares[k] of the
        total."""
        out = []
        for q, share, scale in zip(bases, shares, np.resize([1e-3, 1.0, 1e5], len(shares))):
            signal = q @ complex_normal(rng, (cls.J, cls.M))
            noise = complex_normal(rng, (cls.N, cls.M))
            noise -= q @ (q.conj().T @ noise)
            noise *= np.sqrt(share * energy(signal) / ((1 - share) * energy(noise)))
            out.append(scale * (signal + noise))
        return np.array(out)

    @classmethod
    def bases(cls, rng, count, per_cell):
        """One shared (N, J) basis, or a (count, N, J) stack of one per matrix;
        and each matrix's basis."""
        if per_cell:
            basis = np.array([orthonormal(rng, cls.N, cls.J) for _ in range(count)])
            return basis, list(basis)
        basis = orthonormal(rng, cls.N, cls.J)
        return basis, [basis] * count

    @staticmethod
    def recorded_residuals(monkeypatch, x):
        """The stacks of residuals _coordinates forms: every (N, M) stack whose
        energy it takes other than x itself."""
        formed, energy_of = [], detectors.energy

        def recording_energy(a):
            if a is not x and a.shape[-2] == x.shape[-2]:
                formed.append(a)
            return energy_of(a)

        monkeypatch.setattr(detectors, "energy", recording_energy)
        return formed

    @pytest.mark.parametrize("per_cell", [False, True], ids=["shared", "per-cell"])
    @pytest.mark.parametrize("ratio", [1.001, 1.5, 4.0])
    def test_difference_tails_just_above_the_bound_to_50_digits(self, rng, monkeypatch,
                                                                 ratio, per_cell):
        basis, each = self.bases(rng, 3, per_cell)
        x = self.stack_in_bases(rng, each, detectors.GRAM_RATIO * np.full(3, ratio))
        formed = self.recorded_residuals(monkeypatch, x)
        a, tails = detectors._coordinates(basis, x, self.M)
        assert not formed
        np.testing.assert_array_equal(a, detectors._h(basis) @ x)
        for k, q in enumerate(each):
            assert tails[k] > detectors.GRAM_RATIO * energy(x[k]) / self.M
            np.testing.assert_allclose(tails[k], tail_mp(q, x[k], self.M), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("per_cell", [False, True], ids=["shared", "per-cell"])
    def test_tails_at_or_below_the_bound_form_their_residuals(self, rng, monkeypatch, per_cell):
        # The last matrix lies above the bound but holds a nan, so it forms
        # its residual too.  Every formed tail has the bits of the residual
        # of the whole stack.
        ratios = detectors.GRAM_RATIO * np.array([0.999, 3.0, 1e-12, 2.0, 1e-20, 5.0, 2.0])
        basis, each = self.bases(rng, len(ratios), per_cell)
        x = self.stack_in_bases(rng, each, ratios)
        x[-1, 0, 0] = np.nan
        direct = (ratios < detectors.GRAM_RATIO) | ~np.isfinite(energy(x))
        whole = x - basis @ (detectors._h(basis) @ x)
        formed = self.recorded_residuals(monkeypatch, x)
        _, tails = detectors._coordinates(basis, x, self.M)
        assert len(formed) == 1
        np.testing.assert_array_equal(formed[0], whole[direct])
        np.testing.assert_array_equal(tails[direct], energy(whole[direct]) / self.M)
        for k in np.flatnonzero(~direct):
            np.testing.assert_allclose(tails[k], tail_mp(each[k], x[k], self.M),
                                       rtol=1e-13, atol=0)


class TestEvaluateInputs:
    """evaluate writes only arrays it made: it whitens row 2's matched outputs
    and its gathers of cells in place, never the summary."""

    @staticmethod
    def batch(rng, panel):
        """Three channels' blocks on three data sets: a quiet one, a loud one,
        whose composite and channel splits fall back, and one whose first
        block lies in its channel's span, so column 3 leaves it unresolved."""
        chans, ms = make_instance(rng, panel, n_channels=3, n_modes=2, n_snapshots=5,
                                  min_samples=5)
        amplitudes = 1e4 * complex_normal(rng, (2, 5))
        loud = [x + ch.gain * ch.matrix @ amplitudes for ch, x in zip(chans, ms.blocks)]
        spanned = [chans[0].matrix @ complex_normal(rng, (2, 5)), *ms.blocks[1:]]
        return chans, [np.stack(blocks) for blocks in zip(ms.blocks, loud, spanned)]

    @pytest.mark.parametrize("panel", ALL_PANELS)
    def test_a_read_only_summary_is_left_as_it_is(self, rng, monkeypatch, panel):
        spec = KnowledgeSpec.from_panel(panel)
        chans, blocks = self.batch(rng, panel)
        s = summarise(spec, chans, blocks)
        arrays = [value for value in s if isinstance(value, np.ndarray)]
        for value in arrays:  # as the draw memo keeps them
            value.setflags(write=False)
        before = [value.copy() for value in arrays]
        fallbacks, singular_split = [], detectors._singular_split
        monkeypatch.setattr(detectors, "_singular_split",
                            lambda *args: fallbacks.append(args) or singular_split(*args))
        ev = detectors.evaluate(spec, s)
        for value, copy in zip(arrays, before):
            assert value.tobytes() == copy.tobytes()
        assert ev.col.resolved.tolist() == [True, True, not panel.endswith("3")]
        assert bool(fallbacks) == (panel[1] != "1")  # the loud cell's split falls back

    @pytest.mark.parametrize("panel", ["P21", "P22", "P23"])
    def test_row_2_directions_are_those_of_the_matched_outputs(self, rng, panel):
        # The report reads the matched outputs after evaluate has whitened
        # them in place: per-channel scales leave their directions.
        chans, ms = make_instance(rng, panel, n_channels=3)
        report = detect(KnowledgeSpec.from_panel(panel), chans, ms)
        unit = np.array([(ch.matrix.conj().T @ x).ravel() for ch, x in zip(chans, ms.blocks)])
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        np.testing.assert_allclose(report.coherences, unit @ unit.conj().T, rtol=0, atol=1e-14)
        phi = report.fusion_stats if panel == "P23" else report.per_channel
        u = np.linalg.svd(np.sqrt(report.alphas * phi)[:, None] * unit)[0]
        np.testing.assert_allclose(report.gain_direction, normalize_phases(u[:, :1])[:, 0],
                                   rtol=0, atol=1e-14)


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
        signal, tails = split_stack(s.coords, 2, ms.n_snapshots)
        np.testing.assert_array_equal(s.signal, signal)
        np.testing.assert_array_equal(s.tails, tails)
        for panel in ("P32", "P33"):
            other = summarise(KnowledgeSpec.from_panel(panel), channels, blocks)
            for field, value in zip(s._fields, other):
                np.testing.assert_array_equal(value, getattr(s, field), err_msg=field)
