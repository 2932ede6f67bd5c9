"""The nine multi-channel GLR detectors and their canonical decomposition.

Every detector returns a :class:`DetectorReport` with the composite statistic
and its decomposition, composite = sum_l alpha_l * per_channel_l -
cross_validation; the cross-validation (fusion) term is the only quantity
mixing data across channels.  A panel P<row><column> crosses what is known
about the channel (the row) with what is known about the noise (the column).
The row fixes the subspace in which signal energy is measured, the column how
each channel is normalised.  Panels read the blocks X_l through thin
statistics of rank at most M (the snapshot count), never through the LN x LN
sample covariance.

One rule gives every composite and cross-validation term: :func:`_split`
divides the energy of a matrix into the part inside a subspace and the tail
outside it, formed directly.  The composite is the energy of the stacked,
normalised data Z inside the dominant subspace, and the cross-validation
term is the tail of Z less the tails of the channels, so it never cancels
energies of the size of the signal.  Rows 1 (known coupling and gains) and 3
(only the mode count J known), :func:`_subspace_row`, take the span of the
known coupling or the dominant-J singular subspace, and
cv = (tail(Z) - sum_l tail(X_l) / v_l) / D with v_l the squared data scale.
Row 2 (known orthonormal coupling, unknown gains), :func:`_gain_row`, splits
B, whose row l is sqrt(alpha_l phi_l) vec(H_l^H X_l) / ||H_l^H X_l||, at one
singular value: B B^H is the fusion quadratic form, a single row has no
tail, and the top left singular vector is the gain direction.

One rule per column, :func:`_column`, with E_l = ||X_l||^2 / M, E = sum E_l,
N_l the samples of channel l and N = sum N_l: known variances give
alpha_l = 1/L, denominator L and data scale sigma_l; a common unknown
variance gives E_l / E, E and no scale; per-channel unknown variances give
N_l / N, N and sigma_hat_l = sqrt(residual_l / N_l).  The fusion statistic is
phi_l = signal_l / (sigma_l^2, E_l or residual_l); the per-channel statistic
is phi_l, or on column 3 a log energy ratio, degenerate (composite = inf)
when a residual is numerically zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .channel import ChannelModel, compose_f, compose_f_whitened, require_same_dims
from .errors import ConfigError, DegenerateDataError
from .linalg import _normalize_phases, orthonormal_basis
from .measurement import MeasurementSet

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


def detect(spec: KnowledgeSpec, channels: Sequence[ChannelModel], measurements: MeasurementSet,
           *, dominant_numerator: bool = False) -> DetectorReport:
    """Evaluate the panel selected by ``spec``.

    ``dominant_numerator`` (P33 only) takes ln(1 + dominant/subdominant) as the
    per-channel statistic instead of ln(1 + total/subdominant); the
    cross-validation term does not depend on it.
    """
    if dominant_numerator and spec.panel != "P33":
        raise ConfigError(f"dominant_numerator applies to P33 only, not {spec.panel}")
    energies = _block_energies(channels, measurements)
    if spec.channel_knowledge == ChannelKnowledge.UNKNOWN_GAINS:
        return _gain_row(spec, channels, measurements, energies)
    return _subspace_row(spec, channels, measurements, energies, dominant_numerator)


# One binding per panel, P11 .. P33, each called as detect_pXY(channels, ms).
(detect_p11, detect_p12, detect_p13,
 detect_p21, detect_p22, detect_p23,
 detect_p31, detect_p32, detect_p33) = (
    partial(detect, KnowledgeSpec.from_panel(f"P{row}{col}"))
    for row in "123" for col in "123")


def _block_energies(channels: Sequence[ChannelModel], ms: MeasurementSet) -> np.ndarray:
    """Check the channels against the data; return block energies ||X_l||^2 / M."""
    if not channels:
        raise ConfigError("at least one channel is required")
    require_same_dims(channels, ms.channel_dims)
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


class _Column(NamedTuple):
    """What a noise column fixes, given each channel's in-span signal energy."""

    alphas: np.ndarray
    denominator: float  # of the composite: L, E or N
    variance: np.ndarray | None  # squared data scale: sigma_l^2, none, sigma_hat_l^2
    phi: np.ndarray | None  # fusion statistics; None when a residual vanishes
    lam: np.ndarray  # per-channel statistics: phi, or the log energy ratio
    degenerate: bool
    noise_null: np.ndarray | None
    noise_alt: np.ndarray | None


def _column(noise: NoiseKnowledge, channels: Sequence[ChannelModel], ms: MeasurementSet,
            energies: np.ndarray, signal: np.ndarray, residual: np.ndarray | None = None,
            numerator: np.ndarray | None = None, log=np.log) -> _Column:
    """Weights, normalisation and per-channel statistics of a noise column.

    ``signal`` and ``residual`` are each channel's energies inside and outside
    its signal subspace; ``residual`` is needed on column 3 only, where the
    per-channel statistic is log(numerator / residual) with the block energy
    as the default numerator.
    """
    n_ch = len(channels)
    if noise == NoiseKnowledge.KNOWN:
        variance = np.array([ch.noise_variance for ch in channels])
        phi = signal / variance
        return _Column(np.full(n_ch, 1.0 / n_ch), float(n_ch), variance, phi, phi,
                       False, None, None)
    if noise == NoiseKnowledge.COMMON_UNKNOWN:
        total = float(energies.sum())
        if total <= 0.0:
            raise DegenerateDataError("composite data has zero energy")
        positive = energies > 0.0
        phi = np.divide(signal, energies, out=np.zeros(n_ch), where=positive)
        return _Column(energies / total, total, None, phi, phi, not bool(positive.all()),
                       np.array([total / ms.n_total]), None)
    dims = np.array(ms.channel_dims, dtype=float)
    ok = residual > DEGENERACY_RTOL * energies
    ratio = np.divide(energies if numerator is None else numerator, residual,
                      out=np.ones(n_ch), where=ok)
    degenerate = not bool(ok.all())
    noise_alt = residual / dims
    return _Column(dims / ms.n_total, float(ms.n_total), noise_alt,
                   None if degenerate else signal / residual,
                   np.where(ok, log(ratio), np.inf), degenerate, energies / dims, noise_alt)


def _report(spec: KnowledgeSpec, col: _Column, composite: float, cv: float,
            **fields) -> DetectorReport:
    """A report carrying the column's weights, statistics and noise estimates."""
    fields.setdefault("degenerate", col.degenerate)
    fields.setdefault("noise_alt", col.noise_alt)
    fused = spec.noise_knowledge == NoiseKnowledge.DIFFERENT_UNKNOWN and col.phi is not None
    return DetectorReport(composite=composite, alphas=col.alphas, per_channel=col.lam,
                          cross_validation=cv, panel=spec, noise_null=col.noise_null,
                          extras={"fusion_stats": col.phi} if fused else {}, **fields)


def _split(x: np.ndarray, span: np.ndarray | int, m: int) -> tuple[float, float, np.ndarray]:
    """Energy of x x^H / M inside a subspace, the energy outside it, and its basis.

    ``span`` is an orthonormal basis Q or a mode count J.  With Q the energies
    are ||Q^H x||^2 / M and ||x - Q Q^H x||^2 / M, the second formed directly:
    at a signal-to-noise amplitude ratio of 1e8 the difference of the total
    and the inside is below the rounding error of either.  With J they are the
    dominant-J and remaining eigenvalues s^2 / M of the thin SVD of x and the
    basis its leading J left singular vectors.
    """
    if isinstance(span, int):
        u, s, _ = np.linalg.svd(x, full_matrices=False)
        e = s * s / m
        return float(e[:span].sum()), float(e[span:].sum()), _normalize_phases(u[:, :span])
    a = span.conj().T @ x
    # In chunks of 4096 entries (64 KiB): a 1024 x 32 difference formed at once
    # costs more in page faults than in arithmetic (P12, L=8, N=128: 1.9 vs 1.2 ms).
    step = max(1, 4096 // x.shape[1])
    outside = sum(_energy(x[i:i + step] - span[i:i + step] @ a)
                  for i in range(0, x.shape[0], step)) / m
    return _energy(a) / m, outside, span


def _subspace_row(spec: KnowledgeSpec, channels: Sequence[ChannelModel], ms: MeasurementSet,
                  energies: np.ndarray, dominant_numerator: bool) -> DetectorReport:
    """Rows 1 and 3: signal energy inside a known basis or the dominant-J subspace."""
    noise = spec.noise_knowledge
    per_channel_noise = noise == NoiseKnowledge.DIFFERENT_UNKNOWN
    known_f = spec.channel_knowledge == ChannelKnowledge.KNOWN_F
    m = ms.n_snapshots
    if known_f:
        spans = [orthonormal_basis(ch.matrix, f"channel {i} matrix")
                 for i, ch in enumerate(channels)]
    else:
        spans = [_mode_count(channels, ms, need_residual=per_channel_noise)] * len(channels)
    inside, outside, bases = zip(*(_split(x, s, m) for x, s in zip(ms.blocks, spans)))
    inside, outside = np.array(inside), np.array(outside)
    col = _column(noise, channels, ms, energies, inside, outside,
                  numerator=inside if dominant_numerator else None,
                  log=np.log if known_f else np.log1p)
    composite, cv, noise_alt, basis_z = math.inf, 0.0, col.noise_alt, None
    if col.phi is not None:
        span_z = spans[0]
        if known_f:
            compose = compose_f_whitened if noise == NoiseKnowledge.KNOWN else compose_f
            span_z = orthonormal_basis(compose(channels), "composite channel")
        variance = 1.0 if col.variance is None else col.variance
        z = np.vstack(ms.blocks if col.variance is None
                      else [x / s for x, s in zip(ms.blocks, np.sqrt(variance))])
        top_z, rest_z, basis_z = _split(z, span_z, m)
        cv = (rest_z - float((outside / variance).sum())) / col.denominator
        composite = (float(col.alphas @ col.lam) - cv if per_channel_noise
                     else top_z / col.denominator)
        if noise == NoiseKnowledge.COMMON_UNKNOWN:
            noise_alt = np.array([rest_z / ms.n_total])
    estimated = {} if known_f else {"channel_bases": bases, "composite_basis": basis_z}
    return _report(spec, col, composite, cv, noise_alt=noise_alt, **estimated)


def _gain_row(spec: KnowledgeSpec, channels: Sequence[ChannelModel], ms: MeasurementSet,
              energies: np.ndarray) -> DetectorReport:
    """Row 2: the rank-one split of the matched outputs A_l = H_l^H X_l.

    Row l of B is sqrt(alpha_l phi_l) vec(A_l) / ||A_l||, so B B^H is the
    fusion quadratic form and the coherences are the Gram matrix of the unit
    rows.  A zero-energy output gives a zero row and zeroed coherences and
    sets the degenerate flag.
    """
    bad = [i for i, ch in enumerate(channels) if not ch.is_orthonormal(ORTHONORMAL_TOL)]
    if bad:
        raise ConfigError(f"channel {bad[0]} must have orthonormal columns for unknown-gain panels")
    m = ms.n_snapshots
    outputs = [ch.matrix.conj().T @ x for ch, x in zip(channels, ms.blocks)]
    matched = np.array([_energy(a) for a in outputs])
    noise = spec.noise_knowledge
    residual = None
    if noise == NoiseKnowledge.DIFFERENT_UNKNOWN:
        residual = np.array([_energy(x - ch.matrix @ a)
                             for ch, x, a in zip(channels, ms.blocks, outputs)]) / m
    col = _column(noise, channels, ms, energies, matched / m, residual)
    stacked = np.array([a.ravel() for a in outputs])
    root = np.sqrt(matched)[:, None]
    unit = np.divide(stacked, root, out=np.zeros_like(stacked), where=root > 0.0)
    coherences = unit @ unit.conj().T
    np.fill_diagonal(coherences, 1.0)
    composite, cv, direction = math.inf, 0.0, None
    if col.phi is not None:
        top, cv, basis = _split(np.sqrt(col.alphas * col.phi)[:, None] * unit, 1, 1)
        composite = (float(col.alphas @ col.lam) - cv
                     if noise == NoiseKnowledge.DIFFERENT_UNKNOWN else top)
        direction = basis[:, 0]
    return _report(spec, col, composite, cv, gain_direction=direction, coherences=coherences,
                   degenerate=col.degenerate or bool(np.any(matched <= 0.0)))


def _mode_count(channels: Sequence[ChannelModel], ms: MeasurementSet, *,
                need_residual: bool) -> int:
    """The mode count J, checked against the snapshot count and block sizes."""
    j = channels[0].n_modes
    if ms.n_snapshots < j:
        raise ValueError(f"need at least J={j} snapshots, got M={ms.n_snapshots}")
    for idx, dim in enumerate(ms.channel_dims):
        if j > dim:
            raise ValueError(f"J={j} exceeds channel {idx} dimension {dim}")
        if need_residual and dim <= j:
            raise ValueError(f"channel {idx} needs more than J={j} samples for a residual, "
                             f"got {dim}")
    return j
