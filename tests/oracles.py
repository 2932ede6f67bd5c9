"""Reference implementations that the tests check the library against.

Closed forms, composite couplings, the broadband channel construction,
blocked sample covariances, projector and covariance formulas, ML amplitude
estimates, the row-2 fusion matrix, Hermitian eigendecompositions,
eigenvalue sums and the per-cell likelihood image that the library no
longer evaluates itself: it reads the data through thin statistics and
splits of their energies, fuses channels through their whitened summaries,
and scans a grid without rebuilding channels, and these oracles give the
tests a second, independent path to the same numbers.  The entry-by-entry block sampler that the Monte-Carlo
harness no longer uses gives its trials a second path to the same law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple, Sequence

import mpmath
import numpy as np

from glrfusion import (
    ChannelModel,
    ConfigError,
    DegenerateDataError,
    DimensionError,
    KnowledgeSpec,
    MeasurementSet,
    PropagationSpec,
    Scenario,
    detect,
    narrowband_channel,
)
from glrfusion.channel import dft_slice, modulation_phases, require_same_dims
from glrfusion.fusion import ChannelMessage
from glrfusion.detectors import evaluate, summarise
from glrfusion.linalg import as_complex_matrix, normalize_phases, orthonormal_basis
from glrfusion.measurement import amplitude_stack

# Relative tolerance for "is this matrix Hermitian" checks.
HERMITIAN_RTOL = 1e-10

# One binding per panel, P11 .. P33, each called as detect_pXY(channels, ms).
(detect_p11, detect_p12, detect_p13,
 detect_p21, detect_p22, detect_p23,
 detect_p31, detect_p32, detect_p33) = (
    partial(detect, KnowledgeSpec.from_panel(f"P{row}{col}"))
    for row in "123" for col in "123")


# -- data: blocked sample covariances ---------------------------------------

@dataclass(frozen=True)
class SampleCovariance:
    """Blocked sample covariance S = (1/M) Z Z^H with per-channel accessors."""

    matrix: np.ndarray
    channel_dims: tuple[int, ...]
    n_snapshots: int

    def __post_init__(self):
        mat = as_complex_matrix(self.matrix, "covariance")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "channel_dims", tuple(int(d) for d in self.channel_dims))
        if mat.shape[0] != mat.shape[1] or mat.shape[0] != sum(self.channel_dims):
            raise DimensionError(
                f"covariance shape {mat.shape} inconsistent with dims {self.channel_dims}"
            )

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(np.concatenate([[0], np.cumsum(self.channel_dims)]).astype(int))

    def block(self, i: int, j: int | None = None) -> np.ndarray:
        if j is None:
            j = i
        off = self.offsets
        return self.matrix[off[i]:off[i + 1], off[j]:off[j + 1]]

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def trace_block(self, i: int) -> float:
        return float(np.real(np.trace(self.block(i))))

    def whitened(self, sigmas: Sequence[float]) -> "SampleCovariance":
        """Whitened covariance with blocks S_ij / (sigma_i sigma_j)."""
        if len(sigmas) != len(self.channel_dims):
            raise DimensionError(
                f"{len(sigmas)} sigmas for {len(self.channel_dims)} channels"
            )
        for s in sigmas:
            if not (s > 0):
                raise ValueError(f"sigmas must be positive, got {s}")
        weights = np.concatenate(
            [np.full(d, 1.0 / s) for d, s in zip(self.channel_dims, sigmas)]
        )
        return SampleCovariance(
            matrix=self.matrix * np.outer(weights, weights),
            channel_dims=self.channel_dims,
            n_snapshots=self.n_snapshots,
        )


def sample_covariance(measurements: MeasurementSet) -> SampleCovariance:
    """Blocked S = (1/M) Z Z^H, symmetrized against rounding asymmetry."""
    z = np.vstack(measurements.blocks)
    s = z @ z.conj().T / measurements.n_snapshots
    s = 0.5 * (s + s.conj().T)
    return SampleCovariance(
        matrix=s,
        channel_dims=measurements.channel_dims,
        n_snapshots=measurements.n_snapshots,
    )


# -- channels: composite couplings and likelihood images --------------------

def _common_mode_count(channels: Sequence[ChannelModel]) -> int:
    if not channels:
        raise ConfigError("at least one channel is required")
    j = channels[0].n_modes
    for idx, ch in enumerate(channels):
        if ch.n_modes != j:
            raise ConfigError(
                f"channel {idx} has {ch.n_modes} modes, expected {j} shared by all channels"
            )
    return j


def broadband_h(spec: PropagationSpec, tau) -> np.ndarray:
    """Raw (unnormalized) coupling matrix of ``spec`` along a delay trajectory.

    ``tau`` holds the delay at each of the N sample instants, in place of the
    spec's first-order delay model.  Entry (n, j) of the inner phase table is
    exp(-i2pi f_c tau_n) * exp(+i2pi n j / N) * exp(-i (2pi j / T) tau_n),
    and the result is pre-multiplied by the clock-offset carrier phase and
    post-multiplied by the clock-offset column modulation.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (spec.n_samples,):
        raise ValueError(f"need one delay per sample, {spec.n_samples}, got shape {tau.shape}")
    tau = tau[:, None]
    j = np.arange(spec.n_modes)[None, :]
    v = (
        np.exp(-2j * np.pi * spec.carrier_hz * tau)
        * dft_slice(spec.n_samples, spec.n_modes)
        * np.exp(-2j * np.pi * j * tau / spec.duration_s)
    )
    carrier = np.exp(-2j * np.pi * spec.carrier_hz * spec.clock_offset_s)
    cols = modulation_phases(spec.n_modes, spec.clock_offset_s / spec.duration_s)
    return carrier * v * cols[None, :]


def compose_f(channels: Sequence[ChannelModel]) -> np.ndarray:
    """Composite channel matrix: vertical stack of gain-scaled blocks g_l H_l."""
    _common_mode_count(channels)
    return np.vstack([ch.gain * ch.matrix for ch in channels])


def compose_f_whitened(channels: Sequence[ChannelModel]) -> np.ndarray:
    """Noise-whitened composite channel: vertical stack of (g_l / sigma_l) H_l."""
    _common_mode_count(channels)
    return np.vstack([(ch.gain / ch.noise_sigma) * ch.matrix for ch in channels])


def scan_by_rebuild(panel: KnowledgeSpec, scenario: Scenario, ms: MeasurementSet,
                    delays_s: Sequence[float], dopplers_hz: Sequence[float],
                    scan_channels: Sequence[int]) -> np.ndarray:
    """Likelihood image by brute force: every cell rebuilds the scanned
    channels with its (delay, Doppler) and runs ``detect`` on them."""
    base = scenario.channels()
    values = np.empty((len(delays_s), len(dopplers_hz)))
    for a, tau in enumerate(delays_s):
        for b, nu in enumerate(dopplers_hz):
            channels = [narrowband_channel(replace(scenario.specs[idx], delay_s=float(tau),
                                                   doppler_hz=float(nu)),
                                           scenario.gains[idx], scenario.noise_variances[idx])
                        if idx in scan_channels else ch for idx, ch in enumerate(base)]
            values[a, b] = detect(panel, channels, ms).composite
    return values


# A purpose tag no package substream uses, so that the oracle's draws never
# repeat a harness run's at the same seed.
ENTRYWISE_STREAM = 3


def entrywise_blocks(channels: Sequence[ChannelModel], m: int, seed: int,
                     trials: Sequence[int], amplitudes: np.ndarray | None = None
                     ) -> list[np.ndarray]:
    """The former block sampler: per-channel stacks of X_l = g_l H_l A_t + U_l,
    U_l's N_l x M entries drawn one by one, real parts then imaginary parts,
    from a SeedSequence keyed (seed, ENTRYWISE_STREAM, t, l)."""
    blocks = []
    for idx, ch in enumerate(channels):
        normals = np.array([np.random.default_rng((seed, ENTRYWISE_STREAM, t, idx))
                            .standard_normal((2, ch.n_samples, m)) for t in trials])
        noise = np.sqrt(ch.noise_variance / 2.0) * (normals[:, 0] + 1j * normals[:, 1])
        blocks.append(noise if amplitudes is None else ch.gain * (ch.matrix @ amplitudes) + noise)
    return blocks


def entrywise_sample(panel: KnowledgeSpec, scenario: Scenario, trials: int, seed: int,
                     amp_scale: float | None) -> np.ndarray:
    """The panel's composites on ``trials`` trials of :func:`entrywise_blocks`."""
    channels, m, ids = scenario.channels(), scenario.n_snapshots, np.arange(trials)
    amps = (None if amp_scale is None
            else amplitude_stack(scenario.n_modes, m, amp_scale, seed, ids))
    blocks = entrywise_blocks(channels, m, seed, ids, amps)
    return evaluate(panel, summarise(panel, channels, blocks)).composite


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


def build_fusion_t(alphas, stats, coherences) -> np.ndarray:
    """Fusion matrix whose smallest eigenvalue is the cross-validation term.

    T_ii = sum_{l != i} alpha_l stats_l and
    T_ij = -sqrt(alpha_i alpha_j stats_i stats_j) c_ij for i != j.
    """
    a = np.asarray(alphas, dtype=float)
    s = np.asarray(stats, dtype=float)
    c = np.asarray(coherences, dtype=np.complex128)
    n = len(a)
    if s.shape != (n,) or c.shape != (n, n):
        raise ConfigError("alphas, stats, coherences have inconsistent shapes")
    if np.any(s < 0):
        raise ValueError("per-channel statistics must be non-negative")
    if np.linalg.norm(c - c.conj().T) > 1e-9 * max(1.0, np.linalg.norm(c)):
        raise ValueError("coherence matrix must be Hermitian")
    if np.any(np.abs(np.diag(c) - 1.0) > 1e-9):
        raise ValueError("coherence matrix must have unit diagonal")
    weighted = a * s
    root = np.sqrt(weighted)
    t = -np.outer(root, root) * c
    np.fill_diagonal(t, weighted.sum() - weighted)
    return 0.5 * (t + t.conj().T)


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


# -- 50-digit references for the per-channel noise panels ----------------
#
# The same formulas as the library on the same float64 inputs, evaluated in
# 50-digit arithmetic, so a composite that cancels large energies in float64
# shows its error against them.

def _mp(a) -> mpmath.matrix:
    return mpmath.matrix(np.asarray(a, dtype=np.complex128).tolist())


def _mp_energy(a: mpmath.matrix):
    return mpmath.fsum(v.real ** 2 + v.imag ** 2 for v in a)


def _mp_tail(f: mpmath.matrix, x: mpmath.matrix):
    """||x - F (F^H F)^-1 F^H x||^2: the energy of x outside the span of F."""
    return _mp_energy(x - f * (mpmath.inverse(f.H * f) * (f.H * x)))


def tail_mp(f, x, m: int, dps: int = 50) -> float:
    """The tail ||X - P_F X||^2 / M at ``dps`` digits, P_F the projector onto the span of F."""
    with mpmath.workdps(dps):
        return float(_mp_tail(_mp(f), _mp(x)) / m)


def bin_tail_mp(f, x, demodulate, m: int, dps: int = 50) -> float:
    """A Doppler bin's tail ||Y - P_F Y||^2 / M at ``dps`` digits, Y = diag(demodulate) X
    the demodulated block and P_F the projector onto the span of F."""
    with mpmath.workdps(dps):
        y = mpmath.diag(np.asarray(demodulate, dtype=np.complex128).tolist()) * _mp(x)
        return float(_mp_tail(_mp(f), y) / m)


def p13_composite_mp(channels: Sequence[ChannelModel], ms: MeasurementSet,
                     dps: int = 50) -> float:
    """P13: sum_l (N_l/N) ln(E_l / r_l) - (||Z - P_F Z||^2 / M - N) / N, with
    r_l = ||X_l - P_l X_l||^2 / M and Z the blocks scaled by sqrt(N_l / r_l)."""
    with mpmath.workdps(dps):
        m, n = ms.n_snapshots, ms.n_total
        total, z_rows = mpmath.mpf(0), []
        for ch, x in zip(channels, ms.blocks):
            x_mp = _mp(x)
            resid = _mp_tail(_mp(ch.matrix), x_mp) / m
            total += mpmath.mpf(ch.n_samples) / n * mpmath.log(_mp_energy(x_mp) / m / resid)
            scale = mpmath.sqrt(ch.n_samples / resid)
            z_rows += [[v * scale for v in row] for row in x.tolist()]
        f = _mp(np.vstack([ch.gain * ch.matrix for ch in channels]))
        cv = (_mp_tail(f, mpmath.matrix(z_rows)) / m - n) / n
        return float(total - cv)


def p23_composite_mp(channels: Sequence[ChannelModel], ms: MeasurementSet,
                     dps: int = 50) -> float:
    """P23: sum_l (N_l/N) ln(E_l / r_l) - (tr B B^H - lambda_max(B B^H)), with
    A_l = H_l^H X_l, r_l = ||X_l - H_l A_l||^2 / M and row l of B equal to
    sqrt((N_l/N) ||A_l||^2 / (M r_l)) vec(A_l) / ||A_l||."""
    with mpmath.workdps(dps):
        m, n = ms.n_snapshots, ms.n_total
        total, rows = mpmath.mpf(0), []
        for ch, x in zip(channels, ms.blocks):
            h, x = _mp(ch.matrix), _mp(x)
            a = h.H * x
            resid = _mp_energy(x - h * a) / m
            alpha = mpmath.mpf(ch.n_samples) / n
            total += alpha * mpmath.log(_mp_energy(x) / m / resid)
            rows.append([v * mpmath.sqrt(alpha / (m * resid)) for v in a])
        b = mpmath.matrix(rows)
        w = mpmath.eigh(b * b.H, eigvals_only=True)
        return float(total - (mpmath.fsum(w) - max(w)))


def split_mp(x, j: int, m: int, dps: int = 50) -> tuple[float, float]:
    """The energies s^2 / M of the dominant J singular values of the matrix x
    and of the rest, from the eigenvalues of x^H x in 50-digit arithmetic."""
    with mpmath.workdps(dps):
        x = _mp(x)
        e = sorted(mpmath.eigh(x.H * x, eigvals_only=True), reverse=True)
        return float(mpmath.fsum(e[:j]) / m), float(mpmath.fsum(e[j:]) / m)


# -- fusion: group estimates and partition identities ----------------------

def ml_amplitudes(f_whitened, z_whitened) -> np.ndarray:
    """ML amplitude estimate (F^H F)^-1 F^H Z for whitened channel and data."""
    f = as_complex_matrix(f_whitened, "whitened channel")
    z = as_complex_matrix(z_whitened, "whitened data")
    if z.shape[0] != f.shape[0]:
        raise DimensionError(
            f"data height {z.shape[0]} does not match channel height {f.shape[0]}"
        )
    orthonormal_basis(f, "whitened channel")  # full-column-rank gate
    gram = f.conj().T @ f
    return np.linalg.solve(gram, f.conj().T @ z)


def message_amplitudes(message: ChannelMessage) -> tuple[np.ndarray, np.ndarray]:
    """A channel's ML amplitude estimate and its covariance, read from its message.

    With the whitened factor F and coordinates C, the estimate is F^-1 C and
    its covariance (F^H F)^-1: the channel's whitened coupling is Q F with Q
    orthonormal, so its Gram matrix is F^H F.
    """
    f = message.factor
    return np.linalg.solve(f, message.coordinates), np.linalg.inv(f.conj().T @ f)


def _whitened_group(channels: Sequence[ChannelModel], ms: MeasurementSet,
                    indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    f = np.vstack([(channels[i].gain / channels[i].noise_sigma) * channels[i].matrix
                   for i in indices])
    z = np.vstack([ms.block(i) / channels[i].noise_sigma for i in indices])
    return f, z


def _group_gram_inverse(f: np.ndarray, label: str) -> np.ndarray:
    orthonormal_basis(f, label)
    return np.linalg.inv(f.conj().T @ f)


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
    require_same_dims(channels, ms.channel_dims)
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
    require_same_dims(channels, ms.channel_dims)
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
    require_same_dims(channels, ms.channel_dims)
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

def _as_square_hermitian(k, name: str = "matrix") -> np.ndarray:
    """Validate squareness and Hermitian-ness, then symmetrize.

    Sample covariances accumulate asymmetry at machine precision, so the
    input is tolerated up to ``HERMITIAN_RTOL`` (relative to its Frobenius
    norm) and symmetrized as K <- (K + K^H)/2 before factoring.
    """
    arr = as_complex_matrix(k, name)
    n, m = arr.shape
    if n != m:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    scale = max(1.0, float(np.linalg.norm(arr)))
    asym = float(np.linalg.norm(arr - arr.conj().T))
    if asym > HERMITIAN_RTOL * scale:
        raise ValueError(
            f"{name} is not Hermitian: asymmetry {asym:.3e} exceeds "
            f"{HERMITIAN_RTOL:.0e} * {scale:.3e}"
        )
    return 0.5 * (arr + arr.conj().T)


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition with eigenvalues sorted descending.

    ``values[k]`` pairs with column ``vectors[:, k]``; the columns are
    orthonormal and phase-normalized (first nonzero component real positive).
    """

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T


def hermitian_eig(k) -> HermitianEig:
    """Eigendecompose a Hermitian matrix with descending eigenvalue order."""
    arr = _as_square_hermitian(k)
    w, u = np.linalg.eigh(arr)
    order = slice(None, None, -1)
    return HermitianEig(values=np.ascontiguousarray(w[order]),
                        vectors=normalize_phases(u[:, order]))


class RayleighExtremes(NamedTuple):
    min_value: float
    max_value: float
    min_vector: np.ndarray
    max_vector: np.ndarray


def rayleigh_extremes(t) -> RayleighExtremes:
    """Extremal Rayleigh-quotient values and the unit vectors achieving them."""
    eig = hermitian_eig(t)
    return RayleighExtremes(
        min_value=float(eig.values[-1]),
        max_value=float(eig.values[0]),
        min_vector=eig.vectors[:, -1],
        max_vector=eig.vectors[:, 0],
    )

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
