"""The nine multi-channel GLR detectors and their canonical decomposition.

Every detector returns a :class:`DetectorReport` exposing the composite
statistic together with its decomposition into a weighted sum of per-channel
statistics minus a cross-validation (fusion) term:

    composite = sum_l alpha_l * per_channel_l - cross_validation

with weights summing to one.  The cross-validation term is the only quantity
mixing data across channels; it measures how much the channels disagree
(amplitude distance, coherence deficit, or subspace-energy mismatch,
depending on what is known).

Panels are indexed by what is known about the channel (fully known coupling
and gains / known orthonormal coupling with unknown gains / only the mode
count known) crossed with what is known about the noise (known variances /
common unknown variance / per-channel unknown variances).

Panels read the data only through thin statistics of rank at most M (the
snapshot count), computed from the blocks X_l in one short pass and never
through the LN x LN sample covariance S = (1/M) Z Z^H:

* block energies ||X_l||^2 / M;
* matched outputs Q_l^H X_l, with Q_l an orthonormal basis of H_l (H_l itself
  on the unknown-gain panels, whose fusion forms use their Gram matrix), and
  residual energies ||X_l - Q_l Q_l^H X_l||^2 / M formed directly;
* composite projections ||Q^H Z_w||^2 / M, with Q an orthonormal basis of the
  composite channel and Z_w the stacked data, whitened as the panel needs;
* for the unknown-subspace panels, thin SVDs of X_l and of Z_w: the
  eigenvalues of the matching covariance are s^2 / M and its dominant
  eigenvectors the leading left singular vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .channel import ChannelModel, compose_f, compose_f_whitened
from .errors import ConfigError, DegenerateDataError
from .linalg import _normalize_phases, orthonormal_basis, rayleigh_extremes
from .measurement import MeasurementSet, validate_against_channels

ORTHONORMAL_TOL = 1e-9
# Residual energy below this fraction of the channel energy is treated as
# exactly zero: the data sits in the signal subspace to machine precision
# and the statistic saturates.  A directly formed residual carries an
# absolute error of about eps * ||X||, so its relative error is
# eps / sqrt(ratio); below (1e4 eps)^2 ~ 1e-24 it is no longer accurate to
# 1e-4.  Noise-free data in the signal span measures about 1e-31, noisy data
# at a signal amplitude of 1e8 about 1e-16.
DEGENERACY_RTOL = 1e-24


class ChannelKnowledge(str, Enum):
    KNOWN_F = "known_f"
    UNKNOWN_GAINS = "unknown_gains"
    UNKNOWN_SUBSPACE = "unknown_subspace"


class NoiseKnowledge(str, Enum):
    KNOWN = "known"
    COMMON_UNKNOWN = "common_unknown"
    DIFFERENT_UNKNOWN = "different_unknown"


_PANEL_ROWS = {
    ChannelKnowledge.KNOWN_F: 1,
    ChannelKnowledge.UNKNOWN_GAINS: 2,
    ChannelKnowledge.UNKNOWN_SUBSPACE: 3,
}
_PANEL_COLS = {
    NoiseKnowledge.KNOWN: 1,
    NoiseKnowledge.COMMON_UNKNOWN: 2,
    NoiseKnowledge.DIFFERENT_UNKNOWN: 3,
}


@dataclass(frozen=True)
class KnowledgeSpec:
    """Which model quantities are known; selects one of the nine panels."""

    channel_knowledge: ChannelKnowledge
    noise_knowledge: NoiseKnowledge

    @property
    def panel(self) -> str:
        return f"P{_PANEL_ROWS[self.channel_knowledge]}{_PANEL_COLS[self.noise_knowledge]}"

    @classmethod
    def from_panel(cls, name: str) -> "KnowledgeSpec":
        label = name.strip().upper()
        if len(label) != 3 or label[0] != "P" or label[1] not in "123" or label[2] not in "123":
            raise ConfigError(f"unknown panel {name!r}; expected P11..P33")
        rows = {v: k for k, v in _PANEL_ROWS.items()}
        cols = {v: k for k, v in _PANEL_COLS.items()}
        return cls(rows[int(label[1])], cols[int(label[2])])


@dataclass
class DetectorReport:
    """Composite statistic and its canonical decomposition.

    Invariants (checked on construction unless the report is degenerate):
    weights sum to one, and composite = sum(alphas * per_channel) -
    cross_validation to 1e-9 relative.
    """

    composite: float
    alphas: np.ndarray
    per_channel: np.ndarray
    cross_validation: float
    panel: KnowledgeSpec
    degenerate: bool = False
    gain_direction: np.ndarray | None = None
    noise_null: np.ndarray | None = None
    noise_alt: np.ndarray | None = None
    coherences: np.ndarray | None = None
    channel_bases: tuple[np.ndarray, ...] | None = None
    composite_basis: np.ndarray | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.per_channel = np.asarray(self.per_channel, dtype=float)
        if self.alphas.shape != self.per_channel.shape:
            raise ConfigError("alphas and per_channel must have matching lengths")
        if abs(self.alphas.sum() - 1.0) > 1e-10:
            raise ConfigError(f"weights sum to {self.alphas.sum()}, expected 1")
        if not self.degenerate and np.isfinite(self.composite):
            recombined = float(self.alphas @ self.per_channel - self.cross_validation)
            tol = 1e-9 * max(1.0, abs(self.composite))
            if abs(recombined - self.composite) > tol:
                raise ConfigError(
                    f"decomposition mismatch: composite={self.composite!r} but "
                    f"sum(alpha*stat)-V={recombined!r}"
                )

    @property
    def n_channels(self) -> int:
        return len(self.alphas)


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


def _block_energies(channels: Sequence[ChannelModel], ms: MeasurementSet) -> np.ndarray:
    """Check the channels against the data; return block energies ||X_l||^2 / M."""
    if not channels:
        raise ConfigError("at least one channel is required")
    validate_against_channels(channels, ms)
    j = channels[0].n_modes
    for idx, ch in enumerate(channels):
        if ch.n_modes != j:
            raise ConfigError(f"channel {idx} has {ch.n_modes} modes, expected {j}")
    energies = np.array([_energy(x) for x in ms.blocks]) / ms.n_snapshots
    if not np.all(np.isfinite(energies)):
        raise ValueError("data energy overflows float64")
    return energies


def _energy(x: np.ndarray) -> float:
    return float(np.real(np.vdot(x, x)))


def _whitened(ms: MeasurementSet, sigmas: Sequence[float]) -> list[np.ndarray]:
    """Blocks X_l / sigma_l."""
    for s in sigmas:
        if not (s > 0):
            raise ValueError(f"sigmas must be positive, got {s}")
    return [x / s for x, s in zip(ms.blocks, sigmas)]


def _channel_bases(channels: Sequence[ChannelModel]) -> list[np.ndarray]:
    return [orthonormal_basis(ch.matrix, f"channel {i} matrix") for i, ch in enumerate(channels)]


def _outputs(bases: Sequence[np.ndarray], blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Matched outputs Q_l^H X_l."""
    return [q.conj().T @ x for q, x in zip(bases, blocks)]


def _residuals(bases, blocks, outputs, m: int) -> np.ndarray:
    """Residual energies ||X_l - Q_l Q_l^H X_l||^2 / M, formed directly.

    Subtracting the matched energy from the block energy instead loses all
    accuracy once the signal dominates: at a signal-to-noise amplitude ratio
    of 1e8 the difference is below the rounding error of either term.
    """
    return np.array([_energy(x - q @ a) for q, x, a in zip(bases, blocks, outputs)]) / m


def _composite_energy(f: np.ndarray, blocks: Sequence[np.ndarray], m: int, name: str) -> float:
    """||Q^H Z||^2 / M, i.e. tr(P_F S), for Q an orthonormal basis of ``f``."""
    q = orthonormal_basis(f, name)
    return _energy(q.conj().T @ np.vstack(blocks)) / m


def _principal(x: np.ndarray, j: int, m: int) -> tuple[float, float, np.ndarray]:
    """Dominant-J energy, remaining energy and dominant eigenvectors of x x^H / M.

    Read from the thin SVD of x: the eigenvalues are s^2 / M and the
    eigenvectors the left singular vectors, so the tail comes from the small
    singular values themselves and carries no rounding error of the top J.
    """
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    e = s * s / m
    return float(e[:j].sum()), float(e[j:].sum()), _normalize_phases(u[:, :j])


def _log_ratios(numerator, residual, energy, log=np.log) -> tuple[np.ndarray, bool]:
    """log(numerator / residual) per channel, inf where the residual is numerically zero."""
    ok = residual > DEGENERACY_RTOL * energy
    ratio = np.divide(numerator, residual, out=np.ones(len(ok)), where=ok)
    return np.where(ok, log(ratio), np.inf), not bool(ok.all())


def _require_orthonormal(channels: Sequence[ChannelModel]) -> None:
    for idx, ch in enumerate(channels):
        if not ch.is_orthonormal(ORTHONORMAL_TOL):
            raise ConfigError(
                f"channel {idx} must have orthonormal columns for unknown-gain panels"
            )


def _sigmas(channels: Sequence[ChannelModel]) -> list[float]:
    return [ch.noise_sigma for ch in channels]


def detect_p11(channels: Sequence[ChannelModel], ms: MeasurementSet) -> DetectorReport:
    """Known coupling and gains, known noise variances.

    Composite statistic: (1/L) tr(P_F S) over whitened data; per-channel
    statistics tr(P_H S_ll) over whitened blocks; equal weights.
    """
    _block_energies(channels, ms)
    n_ch = len(channels)
    m = ms.n_snapshots
    blocks = _whitened(ms, _sigmas(channels))
    outputs = _outputs(_channel_bases(channels), blocks)
    lam = np.array([_energy(a) for a in outputs]) / m
    cross_trace = _composite_energy(compose_f_whitened(channels), blocks, m,
                                    "whitened composite channel")
    composite = cross_trace / n_ch
    cv = (float(lam.sum()) - cross_trace) / n_ch
    return DetectorReport(
        composite=composite,
        alphas=np.full(n_ch, 1.0 / n_ch),
        per_channel=lam,
        cross_validation=cv,
        panel=KnowledgeSpec(ChannelKnowledge.KNOWN_F, NoiseKnowledge.KNOWN),
    )


def detect_p12(channels: Sequence[ChannelModel], ms: MeasurementSet) -> DetectorReport:
    """Known coupling and gains, one common unknown noise variance.

    Composite statistic tr(P_F S)/tr(S) is invariant to rescaling the whole
    composite data set; weights are data-determined energy fractions.
    """
    block_traces = _block_energies(channels, ms)
    n_ch = len(channels)
    m = ms.n_snapshots
    total = float(block_traces.sum())
    if total <= 0.0:
        raise DegenerateDataError("composite data has zero energy")
    outputs = _outputs(_channel_bases(channels), ms.blocks)
    matched = np.array([_energy(a) for a in outputs]) / m
    degenerate = bool(np.any(block_traces <= 0.0))
    lam = np.divide(matched, block_traces,
                    out=np.zeros(n_ch), where=block_traces > 0.0)
    cross_trace = _composite_energy(compose_f(channels), ms.blocks, m, "composite channel")
    composite = cross_trace / total
    cv = (float(matched.sum()) - cross_trace) / total
    n_z = ms.n_total
    return DetectorReport(
        composite=composite,
        alphas=block_traces / total,
        per_channel=lam,
        cross_validation=cv,
        panel=KnowledgeSpec(ChannelKnowledge.KNOWN_F, NoiseKnowledge.COMMON_UNKNOWN),
        degenerate=degenerate,
        noise_null=np.array([total / n_z]),
        noise_alt=np.array([(total - cross_trace) / n_z]),
    )


def detect_p13(channels: Sequence[ChannelModel], ms: MeasurementSet) -> DetectorReport:
    """Known coupling and gains, per-channel unknown noise variances.

    Per-channel statistics are log energy ratios; the cross-validation term
    evaluates the known-noise fusion penalty at the local alternative-
    hypothesis noise estimates.  The composite projector uses the span of
    the unwhitened composite channel applied to the locally-whitened
    covariance, which keeps the report invariant to independent per-channel
    rescalings of the data.
    """
    block_traces = _block_energies(channels, ms)
    n_z = ms.n_total
    m = ms.n_snapshots
    dims = np.array(ms.channel_dims, dtype=float)
    alphas = dims / n_z
    bases = _channel_bases(channels)
    outputs = _outputs(bases, ms.blocks)
    matched = np.array([_energy(a) for a in outputs]) / m
    residual = _residuals(bases, ms.blocks, outputs, m)
    lam, degenerate = _log_ratios(block_traces, residual, block_traces)
    sigma2_alt = residual / dims
    composite, cv = math.inf, 0.0
    if not degenerate:
        cross_trace = _composite_energy(compose_f(channels),
                                        _whitened(ms, np.sqrt(sigma2_alt)), m,
                                        "composite channel")
        cv = (float((matched / sigma2_alt).sum()) - cross_trace) / n_z
        composite = float(alphas @ lam) - cv
    return DetectorReport(
        composite=composite,
        alphas=alphas,
        per_channel=lam,
        cross_validation=cv,
        panel=KnowledgeSpec(ChannelKnowledge.KNOWN_F, NoiseKnowledge.DIFFERENT_UNKNOWN),
        degenerate=degenerate,
        noise_null=block_traces / dims,
        noise_alt=sigma2_alt,
    )


def _gain_panel_common(channels, ms):
    """Block energies, matched outputs A_l = H_l^H X_l, their Gram G_ij = <A_j, A_i>,
    coherences, degenerate flag and matched energies G_ll.

    Zero-energy channels get zeroed coherences and set the degenerate flag.
    """
    _require_orthonormal(channels)
    block_traces = _block_energies(channels, ms)
    outputs = _outputs([ch.matrix for ch in channels], ms.blocks)
    stacked = np.array([a.ravel() for a in outputs])
    gram = stacked @ stacked.conj().T
    energies = gram.diagonal().real.copy()
    norms = np.sqrt(np.outer(energies, energies))
    coherences = np.divide(gram, norms, out=np.zeros_like(gram), where=norms > 0.0)
    coherences = 0.5 * (coherences + coherences.conj().T)
    np.fill_diagonal(coherences, 1.0)
    degenerate = bool(np.any(energies <= 0.0))
    return block_traces, outputs, gram, coherences, degenerate, energies


def detect_p21(channels: Sequence[ChannelModel], ms: MeasurementSet) -> DetectorReport:
    """Known orthonormal coupling, unknown gains, known noise variances.

    The composite statistic is the largest eigenvalue of the whitened
    matched-filter quadratic form (the maximized Rayleigh quotient over gain
    directions); its canonical decomposition subtracts the smallest
    eigenvalue of the fusion matrix from the equally-weighted per-channel
    statistics.
    """
    _, _, gram, coherences, degenerate, energies = _gain_panel_common(channels, ms)
    n_ch = len(channels)
    m = ms.n_snapshots
    sigma2 = np.array([ch.noise_variance for ch in channels])
    lam = energies / (m * sigma2)
    quad = gram / (m * n_ch * np.sqrt(np.outer(sigma2, sigma2)))
    ext = rayleigh_extremes(0.5 * (quad + quad.conj().T))
    alphas = np.full(n_ch, 1.0 / n_ch)
    t = build_fusion_t(alphas, lam, coherences)
    cv = rayleigh_extremes(t).min_value
    return DetectorReport(
        composite=ext.max_value,
        alphas=alphas,
        per_channel=lam,
        cross_validation=cv,
        panel=KnowledgeSpec(ChannelKnowledge.UNKNOWN_GAINS, NoiseKnowledge.KNOWN),
        degenerate=degenerate,
        gain_direction=ext.max_vector,
        coherences=coherences,
    )


def detect_p22(channels: Sequence[ChannelModel], ms: MeasurementSet) -> DetectorReport:
    """Known orthonormal coupling, unknown gains, common unknown noise."""
    block_traces, _, gram, coherences, degenerate, energies = _gain_panel_common(channels, ms)
    n_ch = len(channels)
    m = ms.n_snapshots
    total = float(block_traces.sum())
    if total <= 0.0:
        raise DegenerateDataError("composite data has zero energy")
    alphas = block_traces / total
    lam = np.divide(energies / m, block_traces,
                    out=np.zeros(n_ch), where=block_traces > 0.0)
    degenerate = degenerate or bool(np.any(block_traces <= 0.0))
    quad = gram / (m * total)
    ext = rayleigh_extremes(0.5 * (quad + quad.conj().T))
    t = build_fusion_t(alphas, lam, coherences)
    cv = rayleigh_extremes(t).min_value
    return DetectorReport(
        composite=ext.max_value,
        alphas=alphas,
        per_channel=lam,
        cross_validation=cv,
        panel=KnowledgeSpec(ChannelKnowledge.UNKNOWN_GAINS, NoiseKnowledge.COMMON_UNKNOWN),
        degenerate=degenerate,
        gain_direction=ext.max_vector,
        coherences=coherences,
        noise_null=np.array([total / ms.n_total]),
    )


def detect_p23(channels: Sequence[ChannelModel], ms: MeasurementSet) -> DetectorReport:
    """Known orthonormal coupling, unknown gains, per-channel unknown noise.

    The fusion matrix is built from matched-to-residual energy ratios (the
    same statistic on and off the diagonal) while the weighted sum uses the
    per-channel log energy ratios; the whole report is invariant to
    independent per-channel rescalings.
    """
    block_traces, outputs, _, coherences, degenerate, energies = _gain_panel_common(
        channels, ms)
    m = ms.n_snapshots
    n_z = ms.n_total
    dims = np.array(ms.channel_dims, dtype=float)
    alphas = dims / n_z
    matched = energies / m
    residual = _residuals([ch.matrix for ch in channels], ms.blocks, outputs, m)
    lam, no_residual = _log_ratios(block_traces, residual, block_traces)
    composite, cv, gain_direction, extras = math.inf, 0.0, None, {}
    if not no_residual:
        ratios = matched / residual
        ext = rayleigh_extremes(build_fusion_t(alphas, ratios, coherences))
        cv = ext.min_value
        composite = float(alphas @ lam) - cv
        gain_direction, extras = ext.min_vector, {"fusion_stats": ratios}
    return DetectorReport(
        composite=composite,
        alphas=alphas,
        per_channel=lam,
        cross_validation=cv,
        panel=KnowledgeSpec(ChannelKnowledge.UNKNOWN_GAINS, NoiseKnowledge.DIFFERENT_UNKNOWN),
        degenerate=degenerate or no_residual,
        gain_direction=gain_direction,
        coherences=coherences,
        noise_null=block_traces / dims,
        noise_alt=residual / dims,
        extras=extras,
    )


def _check_subspace_dims(channels, ms, *, need_residual: bool) -> int:
    j = channels[0].n_modes
    m = ms.n_snapshots
    if m < j:
        raise ValueError(f"need at least J={j} snapshots, got M={m}")
    for idx, dim in enumerate(ms.channel_dims):
        if j > dim:
            raise ValueError(f"J={j} exceeds channel {idx} dimension {dim}")
        if need_residual and dim <= j:
            raise ValueError(
                f"channel {idx} needs more than J={j} samples for a residual, got {dim}"
            )
    return j


def _principal_blocks(blocks, j: int, m: int):
    """_principal for every block: (dominant energies, remaining energies, bases)."""
    top, sub, bases = zip(*(_principal(x, j, m) for x in blocks))
    return np.array(top), np.array(sub), bases


def detect_p31(channels: Sequence[ChannelModel], ms: MeasurementSet) -> DetectorReport:
    """Unknown rank-J coupling, known noise variances.

    Composite statistic: (1/L) times the dominant-J eigen-energy of the
    whitened composite covariance; the cross-validation term compares
    subdominant (noise-subspace) energies of the composite against the
    channels.
    """
    _block_energies(channels, ms)
    j = _check_subspace_dims(channels, ms, need_residual=False)
    n_ch = len(channels)
    m = ms.n_snapshots
    blocks = _whitened(ms, _sigmas(channels))
    lam, sub, bases = _principal_blocks(blocks, j, m)
    top_z, sub_z, basis_z = _principal(np.vstack(blocks), j, m)
    alphas = np.full(n_ch, 1.0 / n_ch)
    cv = sub_z / n_ch - float(alphas @ sub)
    return DetectorReport(
        composite=top_z / n_ch,
        alphas=alphas,
        per_channel=lam,
        cross_validation=cv,
        panel=KnowledgeSpec(ChannelKnowledge.UNKNOWN_SUBSPACE, NoiseKnowledge.KNOWN),
        channel_bases=bases,
        composite_basis=basis_z,
    )


def detect_p32(channels: Sequence[ChannelModel], ms: MeasurementSet) -> DetectorReport:
    """Unknown rank-J coupling, common unknown noise variance."""
    block_traces = _block_energies(channels, ms)
    j = _check_subspace_dims(channels, ms, need_residual=False)
    n_ch = len(channels)
    m = ms.n_snapshots
    total = float(block_traces.sum())
    if total <= 0.0:
        raise DegenerateDataError("composite data has zero energy")
    top, rest, bases = _principal_blocks(ms.blocks, j, m)
    positive = block_traces > 0.0
    lam = np.divide(top, block_traces, out=np.zeros(n_ch), where=positive)
    sub_frac = np.divide(rest, block_traces, out=np.zeros(n_ch), where=positive)
    top_z, sub_z, basis_z = _principal(np.vstack(ms.blocks), j, m)
    alphas = block_traces / total
    cv = sub_z / total - float(alphas @ sub_frac)
    return DetectorReport(
        composite=top_z / total,
        alphas=alphas,
        per_channel=lam,
        cross_validation=cv,
        panel=KnowledgeSpec(ChannelKnowledge.UNKNOWN_SUBSPACE, NoiseKnowledge.COMMON_UNKNOWN),
        degenerate=not bool(positive.all()),
        channel_bases=bases,
        composite_basis=basis_z,
    )


def detect_p33(
    channels: Sequence[ChannelModel],
    ms: MeasurementSet,
    *,
    dominant_numerator: bool = False,
) -> DetectorReport:
    """Unknown rank-J coupling, per-channel unknown noise variances.

    The per-channel statistic defaults to ln(1 + total/subdominant) energy
    ratio; ``dominant_numerator=True`` uses ln(1 + dominant/subdominant)
    instead (equivalently ln(total/subdominant)), which is the exact analog
    of the known-coupling log-ratio statistic evaluated at the estimated
    subspace.  The cross-validation term is invariant to the choice.
    """
    traces = _block_energies(channels, ms)
    j = _check_subspace_dims(channels, ms, need_residual=True)
    n_z = ms.n_total
    m = ms.n_snapshots
    dims = np.array(ms.channel_dims, dtype=float)
    alphas = dims / n_z
    top, sub, bases = _principal_blocks(ms.blocks, j, m)
    numerator = top if dominant_numerator else traces
    lam, degenerate = _log_ratios(numerator, sub, traces, log=np.log1p)
    composite, cv, basis_z, extras = math.inf, 0.0, None, {}
    if not degenerate:
        phi = top / sub
        top_z, _, basis_z = _principal(np.vstack(_whitened(ms, np.sqrt(sub / dims))), j, m)
        cv = float(alphas @ phi) - top_z / n_z
        composite = float(alphas @ lam) - cv
        extras = {"fusion_stats": phi}
    return DetectorReport(
        composite=composite,
        alphas=alphas,
        per_channel=lam,
        cross_validation=cv,
        panel=KnowledgeSpec(ChannelKnowledge.UNKNOWN_SUBSPACE, NoiseKnowledge.DIFFERENT_UNKNOWN),
        degenerate=degenerate,
        noise_alt=sub / dims,
        channel_bases=bases,
        composite_basis=basis_z,
        extras=extras,
    )


_DISPATCH = {
    ("known_f", "known"): detect_p11,
    ("known_f", "common_unknown"): detect_p12,
    ("known_f", "different_unknown"): detect_p13,
    ("unknown_gains", "known"): detect_p21,
    ("unknown_gains", "common_unknown"): detect_p22,
    ("unknown_gains", "different_unknown"): detect_p23,
    ("unknown_subspace", "known"): detect_p31,
    ("unknown_subspace", "common_unknown"): detect_p32,
    ("unknown_subspace", "different_unknown"): detect_p33,
}


def detect(
    spec: KnowledgeSpec,
    channels: Sequence[ChannelModel],
    measurements: MeasurementSet,
    **options,
) -> DetectorReport:
    """Dispatch to the panel selected by ``spec``.

    ``options`` are forwarded to the panel implementation (currently only
    the unknown-subspace, per-channel-noise panel takes
    ``dominant_numerator``).
    """
    key = (spec.channel_knowledge.value, spec.noise_knowledge.value)
    fn = _DISPATCH[key]
    return fn(channels, measurements, **options)
