"""Reference implementations that the tests check the library against.

Closed forms, projector and covariance formulas, and eigenvalue sums that
the detectors and the fusion layer no longer evaluate themselves: the
library reads the data through thin statistics, and these oracles give the
tests a second, independent path to the same numbers.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from glrfusion import (
    ChannelModel,
    ConfigError,
    DegenerateDataError,
    MeasurementSet,
    build_fusion_t,
    compose_f_whitened,
    sample_covariance,
)
from glrfusion.fusion import _group_gram_inverse, _whitened_group
from glrfusion.linalg import _as_square_hermitian, orthonormal_basis
from glrfusion.measurement import validate_against_channels


# -- detectors: coherences, fusion matrices and closed forms ---------------

def coherence(h_i, x_i, h_j, x_j) -> complex:
    """Normalized inner product of two channels' matched-filter outputs.

    c_ij = tr(H_i^H X_i X_j^H H_j) / sqrt(tr(H_i^H X_i X_i^H H_i) *
    tr(H_j^H X_j X_j^H H_j)); |c_ij| <= 1 and c is invariant to separate
    rescalings of X_i and X_j.
    """
    a_i = np.asarray(h_i).conj().T @ np.asarray(x_i)
    a_j = np.asarray(h_j).conj().T @ np.asarray(x_j)
    e_i = float(np.real(np.vdot(a_i, a_i)))
    e_j = float(np.real(np.vdot(a_j, a_j)))
    if e_i <= 0.0 or e_j <= 0.0:
        raise DegenerateDataError("coherence undefined: a matched-filter output has zero energy")
    return complex(np.vdot(a_j, a_i) / math.sqrt(e_i * e_j))


def fusion_m_matrix(alphas, stats, coherences) -> np.ndarray:
    """Companion quadratic-form matrix: M = sum(alpha*stat) I - T."""
    a = np.asarray(alphas, dtype=float)
    s = np.asarray(stats, dtype=float)
    t = build_fusion_t(a, s, coherences)
    return float(a @ s) * np.eye(len(a)) - t


def two_channel_cross_validation(stat_1: float, stat_2: float, coherence_12: complex
                                 ) -> tuple[float, float]:
    """Closed-form two-channel cross-validation term (weights dropped).

    Returns (V, nu2) where V = A - A sqrt(1 + (G^2/A^2)(|c|^2 - 1)) with A
    and G the arithmetic and geometric means of the two statistics, and nu2
    is the squared coefficient of variation (Delta/A)^2 = 1 - (G/A)^2.

    This equals the smallest eigenvalue of the 2x2 fusion matrix built with
    unit weights; with the equal weights 1/2 folded back in, the panel
    cross-validation term is V/2.
    """
    if stat_1 < 0 or stat_2 < 0:
        raise ValueError("per-channel statistics must be non-negative")
    mag = abs(coherence_12)
    if mag > 1.0 + 1e-12:
        raise ValueError(f"|coherence| must be <= 1, got {mag}")
    arith = 0.5 * (stat_1 + stat_2)
    if arith == 0.0:
        return 0.0, 0.0
    geom_sq = stat_1 * stat_2
    value = arith - arith * math.sqrt(max(0.0, 1.0 + (geom_sq / arith**2) * (mag**2 - 1.0)))
    nu2 = 1.0 - geom_sq / arith**2
    return value, nu2


def rank_one_pair_composite(z_1, z_2, n_channels: int = 1) -> float:
    """Rank-one, two-snapshot composite statistic in closed form.

    For whitened snapshot vectors z_1, z_2 this is (1/L) times the largest
    eigenvalue of the two-snapshot sample covariance (the 1/M = 1/2 factor is
    kept), computed from the 2x2 Gram discriminant:

        lambda_1 = (1/2) [ (a + d)/2 + sqrt(D)/2 ],
        D = (a + d)^2 + 4 a d (|c|^2 - 1),  |c|^2 = |z_1^H z_2|^2 / (a d),

    with a = z_1^H z_1 and d = z_2^H z_2.
    """
    v1 = np.asarray(z_1, dtype=np.complex128).reshape(-1)
    v2 = np.asarray(z_2, dtype=np.complex128).reshape(-1)
    a = float(np.real(np.vdot(v1, v1)))
    d = float(np.real(np.vdot(v2, v2)))
    cross = complex(np.vdot(v1, v2))
    disc = (a + d) ** 2 + 4.0 * (abs(cross) ** 2 - a * d)
    top = 0.5 * ((a + d) / 2.0 + 0.5 * math.sqrt(max(0.0, disc)))
    return top / n_channels


# -- fusion: partition identities ------------------------------------------

def qee(channels: Sequence[ChannelModel], group_x: Sequence[int],
        group_y: Sequence[int]) -> np.ndarray:
    """Covariance of the difference between the two groups' amplitude estimates.

    Q_EE = (F_X^H F_X)^-1 + (F_Y^H F_Y)^-1 over whitened group channels.
    """
    fx = compose_f_whitened([channels[i] for i in group_x])
    fy = compose_f_whitened([channels[i] for i in group_y])
    qx = _group_gram_inverse(fx, "group-X channel")
    qy = _group_gram_inverse(fy, "group-Y channel")
    return qx + qy


def projection_form_cv(channels: Sequence[ChannelModel], ms: MeasurementSet,
                       group_x: Sequence[int], group_y: Sequence[int]) -> float:
    """Cross-validation quadratic form as a projection: tr(Z^H P_B Z).

    B stacks the two groups' left inverses with opposite signs, so B^H Z is
    the difference of the group amplitude estimates and F^H B = 0.
    """
    validate_against_channels(channels, ms)
    if sorted(tuple(group_x) + tuple(group_y)) != list(range(len(channels))):
        raise ConfigError("groups must partition the channel set")
    fx, zx = _whitened_group(channels, ms, group_x)
    fy, zy = _whitened_group(channels, ms, group_y)
    qx = _group_gram_inverse(fx, "group-X channel")
    qy = _group_gram_inverse(fy, "group-Y channel")
    b = np.vstack([fx @ qx, -(fy @ qy)])
    z = np.vstack([zx, zy])
    s = z @ z.conj().T
    return projected_energy(b, s)


def composite_gram_form(channels: Sequence[ChannelModel], ms: MeasurementSet,
                        indices: Sequence[int] | None = None) -> float:
    """tr(Z^H P_F Z) over the whitened composite (or a channel subset)."""
    validate_against_channels(channels, ms)
    if indices is None:
        indices = range(len(channels))
    f, z = _whitened_group(channels, ms, list(indices))
    return projected_energy(f, z @ z.conj().T)


def cfar_diag_decomposition(channels: Sequence[ChannelModel], ms: MeasurementSet,
                            index: int) -> tuple[float, float, float]:
    """Diagonal term of the scale-invariant composite quadratic expansion.

    Returns (direct, weighted_stat, n_ii) where
    ``direct`` is the i = j term of the composite CFAR quadratic form,
    ``weighted_stat`` is alpha_i * Lambda_i,CFAR, and ``n_ii`` is the
    matrix-inversion-lemma correction, so direct = weighted_stat - n_ii.
    """
    validate_against_channels(channels, ms)
    s = sample_covariance(ms)
    total = s.trace()
    m = ms.n_snapshots
    f_blocks = [ch.gain * ch.matrix for ch in channels]
    f = np.vstack(f_blocks)
    gram = f.conj().T @ f
    x_i = ms.block(index)
    f_i = f_blocks[index]
    direct = float(np.real(np.trace(
        x_i.conj().T @ f_i @ np.linalg.solve(gram, f_i.conj().T @ x_i)
    ))) / (m * total)
    others = [f_blocks[k] for k in range(len(channels)) if k != index]
    f_rest = np.vstack(others)
    g_i = f_i.conj().T @ f_i
    g_rest = f_rest.conj().T @ f_rest
    q_i = np.linalg.inv(g_i)
    q_rest = np.linalg.inv(g_rest)
    correction = q_i @ np.linalg.solve(q_i + q_rest, q_i)
    n_ii = float(np.real(np.trace(
        x_i.conj().T @ f_i @ correction @ f_i.conj().T @ x_i
    ))) / (m * total)
    alpha_i = s.trace_block(index) / total
    lam_i = projected_energy(channels[index].matrix, s.block(index)) / s.trace_block(index)
    return direct, alpha_i * lam_i, n_ii


# -- linear algebra: projectors, whitening and eigenvalue sums ------------

def eigvalsh_descending(k) -> np.ndarray:
    """Eigenvalues only, sorted descending."""
    arr = _as_square_hermitian(k)
    return np.linalg.eigvalsh(arr)[::-1]


def orth_projection(b) -> np.ndarray:
    """Orthogonal projector P = B (B^H B)^-1 B^H onto the span of B.

    P is Hermitian, idempotent, and trace(P) equals the number of columns.
    """
    q = orthonormal_basis(b)
    return q @ q.conj().T


def projected_energy(b, s) -> float:
    """trace(P_B S) for Hermitian S, without forming the full projector."""
    q = orthonormal_basis(b)
    return float(np.real(np.einsum("ij,jk,ki->", q.conj().T, s, q)))


def whiten(x, sigma: float) -> np.ndarray:
    """Divide data by a noise standard deviation."""
    if not (sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    return np.asarray(x, dtype=np.complex128) / sigma


def whiten_covariance(s, sigma_row: float, sigma_col: float | None = None) -> np.ndarray:
    """Whiten a covariance block: S_ij / (sigma_i sigma_j)."""
    if sigma_col is None:
        sigma_col = sigma_row
    if not (sigma_row > 0 and sigma_col > 0):
        raise ValueError(f"sigmas must be positive, got {sigma_row}, {sigma_col}")
    return np.asarray(s, dtype=np.complex128) / (sigma_row * sigma_col)


def _check_eig_count(s: np.ndarray, j: int) -> None:
    n = s.shape[0]
    if not (1 <= j <= n):
        raise ValueError(f"mode count J={j} out of range for a {n}x{n} matrix")


def top_j_energy(s, j: int) -> float:
    """Sum of the J largest eigenvalues of a Hermitian PSD matrix."""
    arr = _as_square_hermitian(s)
    _check_eig_count(arr, j)
    w = eigvalsh_descending(arr)
    return float(np.sum(w[:j]))


def subdominant_energy(s, j: int) -> float:
    """Sum of the eigenvalues below the J largest: trace(S) - top_j_energy(S, J)."""
    arr = _as_square_hermitian(s)
    _check_eig_count(arr, j)
    w = eigvalsh_descending(arr)
    return float(np.sum(w[j:]))
