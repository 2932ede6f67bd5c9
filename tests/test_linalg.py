"""Unit tests for the complex linear-algebra kernels."""

from __future__ import annotations

import numpy as np
import pytest

from glrfusion import (
    DimensionError,
    RankDeficiencyError,
    hermitian_eig,
    rayleigh_extremes,
)
from conftest import complex_normal
from oracles import (
    orth_projection,
    subdominant_energy,
    top_j_energy,
    whiten,
    whiten_covariance,
)


def random_hermitian(rng, n):
    a = complex_normal(rng, (n, n))
    return a + a.conj().T


def char_poly_roots(k: np.ndarray) -> np.ndarray:
    """Eigenvalue oracle: Faddeev-LeVerrier characteristic polynomial
    coefficients followed by companion-matrix root finding.  Stays clear of
    any Hermitian eigensolver."""
    n = k.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(k)
    for i in range(1, n + 1):
        m = k @ m + coeffs[i - 1] * np.eye(n)
        coeffs[i] = -np.trace(k @ m) / i
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


class TestHermitianEig:
    def test_diagonal(self):
        eig = hermitian_eig(np.diag([1.0, 3.0, 2.0]))
        np.testing.assert_allclose(eig.values, [3.0, 2.0, 1.0])

    def test_identity(self):
        eig = hermitian_eig(np.eye(3))
        np.testing.assert_allclose(eig.values, [1.0, 1.0, 1.0])
        gram = eig.vectors.conj().T @ eig.vectors
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)

    def test_matches_char_poly_oracle(self, rng):
        k = random_hermitian(rng, 6)
        eig = hermitian_eig(k)
        oracle = char_poly_roots(k)
        np.testing.assert_allclose(eig.values, oracle, atol=1e-9, rtol=1e-9)

    def test_reconstruction(self, rng):
        for n in (2, 5, 12):
            k = random_hermitian(rng, n)
            eig = hermitian_eig(k)
            err = np.linalg.norm(eig.reconstruct() - k)
            assert err <= 1e-10 * max(1.0, np.linalg.norm(k))

    def test_descending_order(self, rng):
        k = random_hermitian(rng, 8)
        eig = hermitian_eig(k)
        assert np.all(np.diff(eig.values) <= 1e-12)

    def test_deterministic_phase_convention(self, rng):
        k = random_hermitian(rng, 5)
        a = hermitian_eig(k)
        b = hermitian_eig(k.copy())
        np.testing.assert_array_equal(a.vectors, b.vectors)
        for col in a.vectors.T:
            idx = np.argmax(np.abs(col) > 1e-12 * np.abs(col).max())
            assert col[idx].real > 0
            assert abs(col[idx].imag) <= 1e-12 * abs(col[idx])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            hermitian_eig(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        k = np.eye(3, dtype=complex)
        k[0, 0] = np.nan
        with pytest.raises(ValueError):
            hermitian_eig(k)

    def test_non_hermitian_rejected(self, rng):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(complex_normal(rng, (4, 4)))


class TestOrthProjection:
    def test_first_basis_vector(self):
        b = np.array([[1.0], [0.0]])
        np.testing.assert_allclose(orth_projection(b), np.diag([1.0, 0.0]), atol=1e-15)

    def test_orthonormal_columns_give_bbh(self, rng):
        q, _ = np.linalg.qr(complex_normal(rng, (7, 3)))
        b = q[:, :3]
        np.testing.assert_allclose(orth_projection(b), b @ b.conj().T, atol=1e-12)

    def test_rank_one_unnormalized(self):
        b = np.array([[1.0], [1.0]])
        np.testing.assert_allclose(orth_projection(b), 0.5 * np.ones((2, 2)), atol=1e-14)

    @pytest.mark.parametrize("n,j", [(4, 1), (16, 3), (64, 5)])
    def test_projector_properties(self, rng, n, j):
        b = complex_normal(rng, (n, j))
        p = orth_projection(b)
        assert np.linalg.norm(p @ p - p) <= 1e-10
        assert np.linalg.norm(p - p.conj().T) <= 1e-10
        assert abs(np.trace(p).real - j) <= 1e-10

    def test_rank_deficient_names_columns(self, rng):
        b = complex_normal(rng, (6, 1))
        with pytest.raises(RankDeficiencyError, match="3 columns"):
            orth_projection(np.hstack([b, b, 2 * b]))


class TestWhiten:
    def test_covariance_unit(self):
        np.testing.assert_allclose(whiten_covariance(4.0 * np.eye(3), 2.0), np.eye(3))

    def test_identity_sigma(self, rng):
        x = complex_normal(rng, (4, 6))
        np.testing.assert_array_equal(whiten(x, 1.0), x)

    def test_whiten_commutes_with_covariance(self, rng):
        x = complex_normal(rng, (5, 9))
        sigma = 1.7
        s_then_w = whiten_covariance(x @ x.conj().T / 9, sigma, sigma)
        xw = whiten(x, sigma)
        w_then_s = xw @ xw.conj().T / 9
        np.testing.assert_allclose(s_then_w, w_then_s, atol=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_sigma(self, bad):
        with pytest.raises(ValueError):
            whiten(np.eye(2), bad)
        with pytest.raises(ValueError):
            whiten_covariance(np.eye(2), bad)


class TestRayleighExtremes:
    def test_diagonal(self):
        ext = rayleigh_extremes(np.diag([2.0, 5.0]))
        assert ext.min_value == pytest.approx(2.0)
        assert ext.max_value == pytest.approx(5.0)

    def test_degenerate_pair(self):
        lam = 1.3
        ext = rayleigh_extremes(lam * np.eye(2))
        assert ext.min_value == pytest.approx(lam)
        assert ext.max_value == pytest.approx(lam)

    def test_bounds_random_quotients(self, rng):
        t = random_hermitian(rng, 4)
        ext = rayleigh_extremes(t)
        for _ in range(100):
            g = complex_normal(rng, 4)
            g /= np.linalg.norm(g)
            q = np.real(g.conj() @ t @ g)
            assert ext.min_value - 1e-9 <= q <= ext.max_value + 1e-9

    def test_vectors_achieve_extremes(self, rng):
        t = random_hermitian(rng, 5)
        ext = rayleigh_extremes(t)
        for vec, val in [(ext.min_vector, ext.min_value), (ext.max_vector, ext.max_value)]:
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
            quotient = np.real(vec.conj() @ t @ vec)
            assert quotient == pytest.approx(val, abs=1e-9)


class TestEigenEnergies:
    def test_diag_top2(self):
        assert top_j_energy(np.diag([3.0, 2.0, 1.0]), 2) == pytest.approx(5.0)

    def test_full_rank_is_trace(self, rng):
        a = complex_normal(rng, (5, 8))
        s = a @ a.conj().T
        assert top_j_energy(s, 5) == pytest.approx(np.trace(s).real, rel=1e-12)

    def test_rank_one(self, rng):
        v = complex_normal(rng, 6)
        s = np.outer(v, v.conj())
        assert top_j_energy(s, 1) == pytest.approx(np.linalg.norm(v) ** 2, rel=1e-12)

    def test_complement_identity(self, rng):
        a = complex_normal(rng, (7, 10))
        s = a @ a.conj().T
        for j in range(1, 8):
            total = top_j_energy(s, j) + subdominant_energy(s, j)
            assert abs(total - np.trace(s).real) <= 1e-10 * max(1, abs(np.trace(s).real))

    @pytest.mark.parametrize("j", [0, 6])
    def test_out_of_range(self, j):
        with pytest.raises(ValueError):
            top_j_energy(np.eye(5), j)

    def test_lidskii_inequality(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            a = random_hermitian(rng, n)
            b = random_hermitian(rng, n)
            for j in range(1, n + 1):
                lhs = top_j_energy(a + b, j)
                assert lhs <= top_j_energy(a, j) + top_j_energy(b, j) + 1e-9
