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

Every panel reads channel l only through its :class:`Summary`: on rows 1
(known coupling and gains) and 2 (known orthonormal coupling, unknown gains),
with Q_l an orthonormal basis of the span of the coupling H_l, the J x J
factor R_l = Q_l^H H_l, the coordinates a_l = Q_l^H X_l, the tail
||X_l - Q_l a_l||^2 / M formed directly and the block energy E_l =
||a_l||^2 / M + tail_l; on row 3 (only the mode count J known), a factor F_l
with F_l^H F_l = X_l^H X_l, which keeps every singular value of X_l: the
block X_l itself, or in the Monte-Carlo harness the drawn stack [a_l; T_l],
with the channel's energies inside and outside its dominant J-dimensional
subspace, split once when the summary is built.  One function,
:func:`coordinate_summary`, forms every summary, so a data set and a
Monte-Carlo trial with the same a_l, tail and Gram matrix get the same one.
:func:`evaluate` evaluates a panel over a leading batch axis of hypotheses:
:func:`detect` passes a batch of one, a delay/Doppler scan the cells of its
grid, where a scanned coupling is D_N(nu) H_0 Phi(tau) with D_N and Phi
unitary diagonals, so Q_l = D_N(nu) Q_0 and R_l = R_0 Phi(tau) for one
H_0 = Q_0 R_0: a cell changes R_l through the delay, and Q_l, a_l and the
tail through the Doppler only; and the Monte-Carlo harness a chunk of
trials, each with its own data.

One rule gives every composite and cross-validation term: the energy of a
matrix divides into the part inside a subspace and the tail outside it,
formed directly, in a basis (:func:`_coordinates`) or at a mode count
(:func:`_split`).  The composite is the energy of the stacked,
normalised data Z (blocks X_l / sqrt(v_l), v_l the squared data scale)
inside the dominant subspace, and the cross-validation term is the tail of Z
less the tails of the channels, so it never cancels energies of the size of
the signal.

* Row 1 projects onto the span of F = [f_l H_l], f_l = g_l / sigma_l on
  column 1 and g_l otherwise.  F = diag(Q_l) G with G = [f_l R_l], so
  Z - P_F Z splits into the channels' tails and diag(Q_l) (A - P_G A), two
  orthogonal parts, with A = [a_l / sqrt(v_l)] the LJ x M stack of
  coordinates: the composite energy is that of A inside the span of G and
  cv = tail(A) / D.  No LN x M stack is formed.
* Row 2 splits the L x JM stack of whitened matched outputs, row l
  vec(H_l^H X_l) / sqrt(v_l) with H_l^H X_l = R_l^H a_l, at one singular
  value, as an unknown gain leaves each channel one dimension: cv =
  tail / D.  Over sqrt(M D) the stack is the fusion factor B of the report.
* Row 3 is row 1 with the span given by J: each R_l and the stack
  A = [R_l / sqrt(v_l)], which has the singular values of Z, split at their
  J-th singular value.  A tall factor or stack (more rows than M) takes its
  squared singular values as the eigenvalues of its M x M Gram matrix, or by
  SVD where its tail is too small for them (:func:`_split`).  The channels'
  splits do not depend on the column, so :func:`coordinate_summary` forms
  them once, and only the stack's split is per panel.  The tail of A holds
  the channels' tails, so cv = (tail(A) - sum_l tail(R_l) / v_l) / D.

One rule per column, :func:`_column`, with E_l the block energy, E = sum E_l,
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
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .channel import ChannelModel, require_same_dims
from .errors import ConfigError, DegenerateDataError, RankDeficiencyError
from .linalg import energy, normalize_phases, orthonormal_basis
from .measurement import MeasurementSet

# Residual energy below this fraction of the channel energy is treated as
# exactly zero: the data sits in the signal subspace to machine precision
# and the statistic saturates.  A directly formed residual carries an
# absolute error of about eps * ||X||, so its relative error is
# eps / sqrt(ratio); below (1e4 eps)^2 ~ 1e-24 it is no longer accurate to
# 1e-4.  Noise-free data in the signal span measures about 1e-31, noisy data
# at a signal amplitude of 1e8 about 1e-16.  Row 3's tails this small come
# from singular values, never from Gram eigenvalues (_GRAM_RATIO), so they
# keep that accuracy.
DEGENERACY_RTOL = 1e-24

# A split at a mode count takes a tall matrix's energies from its Gram matrix
# only where the tail outside the dominant J exceeds this fraction of the
# largest eigenvalue: a Gram eigenvalue errs by about eps times the largest,
# so the tail keeps a relative error below about 1e-13.  Smaller tails, among
# them every tail near DEGENERACY_RTOL, come from the singular values.
_GRAM_RATIO = 1e-2


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
    cross_validation to 1e-9 relative (:func:`check_decomposition`).  Row 2
    adds the coherences of the matched outputs and the gain direction, the
    weights over channels that attain the composite (none when a residual
    vanishes); no panel reports a subspace basis, as every statistic is a
    sum of energies.  Column 3 adds the fusion statistics phi_l, unless a
    residual vanishes.
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
    fusion_stats: np.ndarray | None = None

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.per_channel = np.asarray(self.per_channel, dtype=float)
        if self.alphas.shape != self.per_channel.shape:
            raise ConfigError("alphas and per_channel must have matching lengths")
        check_decomposition(self.composite, self.alphas, self.per_channel,
                            self.cross_validation, self.degenerate)

    @classmethod
    def _unchecked(cls, composite: float, alphas: np.ndarray, per_channel: np.ndarray,
                   cross_validation: float, panel: KnowledgeSpec, **rest) -> DetectorReport:
        """A report the caller has checked, built without checks.

        ``alphas`` and ``per_channel`` are float arrays of one shape, and the
        caller has run :func:`check_decomposition` on the report, perhaps in
        one batch with others.  The fields after ``panel`` take their
        defaults unless ``rest`` gives them.
        """
        report = object.__new__(cls)
        vars(report).update(_REPORT_DEFAULTS, composite=composite, alphas=alphas,
                            per_channel=per_channel, cross_validation=cross_validation,
                            panel=panel, **rest)
        return report

    @property
    def n_channels(self) -> int:
        return len(self.alphas)


_REPORT_DEFAULTS = {f.name: f.default for f in fields(DetectorReport) if f.default is not MISSING}


def check_decomposition(composite, alphas: np.ndarray, per_channel: np.ndarray,
                        cross_validation, degenerate=False) -> None:
    """:class:`DetectorReport`'s checks, on one report or a batch of B reports.

    ``composite``, ``cross_validation`` and ``degenerate`` are scalars or (B,)
    arrays, ``alphas`` and ``per_channel`` are (L,) or (B, L).  Raises
    ConfigError unless every report's weights sum to one and, on every report
    that is not degenerate and has a finite composite, composite =
    per_channel . alphas - cross_validation to 1e-9 relative.
    """
    sums = alphas.sum(-1)
    off = abs(sums - 1.0) > 1e-10
    if np.count_nonzero(off):
        raise ConfigError(f"weights sum to {np.ravel(sums)[np.argmax(off)]}, expected 1")
    checked = np.isfinite(composite) & ~np.asarray(degenerate)
    if np.count_nonzero(~checked):  # leave out reports that may hold inf
        composite, per_channel, cross_validation = (
            np.asarray(v)[checked] for v in (composite, per_channel, cross_validation))
        if alphas.ndim > 1:
            alphas = alphas[checked]
    recombined = np.vecdot(per_channel, alphas) - cross_validation
    gap = abs(recombined - composite)  # beyond 1e-9 * max(1, |composite|)
    wrong = (gap > 1e-9) & (gap > 1e-9 * abs(composite))
    if np.count_nonzero(wrong):
        k = int(np.argmax(wrong))
        raise ConfigError(f"decomposition mismatch: composite={float(np.ravel(composite)[k])!r} "
                          f"but sum(alpha*stat)-V={float(np.ravel(recombined)[k])!r}")


def detect(spec: KnowledgeSpec, channels: Sequence[ChannelModel], measurements: MeasurementSet,
           *, dominant_numerator: bool = False) -> DetectorReport:
    """Evaluate the panel selected by ``spec`` on the channels' summary.

    ``dominant_numerator`` (P33 only) takes ln(1 + dominant/subdominant) as the
    per-channel statistic instead of ln(1 + total/subdominant); the
    cross-validation term does not depend on it.
    """
    if dominant_numerator and spec.panel != "P33":
        raise ConfigError(f"dominant_numerator applies to P33 only, not {spec.panel}")
    blocks = [x[None] for x in measurements.blocks]
    return _report(spec, evaluate(spec, summarise(spec, channels, blocks), dominant_numerator))


def check_channels(channels: Sequence[ChannelModel], dims: Sequence[int]) -> None:
    """Check the channels against the data's block heights and for one mode count J.

    Raises ConfigError for no channels or channels of different mode counts,
    and DimensionError when a channel does not match its block.
    """
    if not channels:
        raise ConfigError("at least one channel is required")
    require_same_dims(channels, dims)
    j = channels[0].n_modes
    for idx, ch in enumerate(channels):
        if ch.n_modes != j:
            raise ConfigError(f"channel {idx} has {ch.n_modes} modes, expected {j}")


def _h(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return x.conj().swapaxes(-1, -2)


class Summary(NamedTuple):
    """What a panel reads of each of L channels, over B hypotheses.

    On rows 1 and 2, H_l = Q_l R_l with Q_l the channel's orthonormal basis
    (:attr:`ChannelModel.basis`) and R_l its coupling; row 2 also requires
    orthonormal couplings, so its R_l is unitary.  A scanned channel's
    couplings over a delay x Doppler grid, its own among them, are
    D_N(nu) H_0 Phi(tau) with D_N and Phi unitary diagonals, so its one basis
    and factor serve every cell, rephased by D_N(nu) and Phi(tau).  Row 3
    knows only the mode count J.  Its coordinates are factors F_l of the
    blocks, F_l^H F_l = X_l^H X_l, so every singular value is kept: the
    stacks [a_l; T_l] of :func:`coordinate_summary`, of which a block X_l is
    the case a_l = X_l with an empty T_l, zero-padded to a common height K,
    as zero rows leave F_l^H F_l as it is.  The channel constants are shared
    by the whole batch, and so are the block energies of a batch of
    hypotheses on one data set (a scan's cells) and the couplings of a batch
    of data sets on one set of channels.

    The tails are each channel's energy outside its signal subspace: on
    rows 1 and 2 the span of Q_l, formed directly, and on row 3 the dominant
    J-dimensional subspace of F_l, from the squared singular values of the
    factor: the eigenvalues of F_l^H F_l for a factor taller than M, unless
    its tail is too small for them, and by SVD for a factor of at most M
    rows (:func:`_split`).
    Row 3 also keeps the energy inside that subspace: both come from one
    split of the factors when the summary is built, which every column reads,
    so a summary shared by the panels of row 3 splits them once.

    Rows 1 and 2 read a block only through a_l and the tail, and row 3 only
    through X_l^H X_l, so :func:`coordinate_summary` builds every summary
    without a block: the Monte-Carlo harness draws a_l, the tail and, on row
    3, the factor T_l of the tail directly (``measurement.draw_trials``).
    White noise keeps its law under the rotation [Q_l Q_l^perp]^H, so its
    coordinates are iid CN(0, sigma_l^2) and its energy outside the span
    sigma_l^2 Gamma((N_l - J) M, 1), independent of them, and its part outside
    the span is a uniform frame times a complex Bartlett factor: exactly the
    law of a_l, the tail and X_l^H X_l of a drawn N_l x M block.
    """

    gains: np.ndarray  # (L,) g_l
    variances: np.ndarray  # (L,) sigma_l^2
    dims: np.ndarray  # (L,) N_l
    energies: np.ndarray  # (B, L) or (1, L) E_l = ||a_l||^2 / M + tail_l = ||X_l||^2 / M
    coupling: np.ndarray | int  # (B or 1, L, J, J) R_l = Q_l^H H_l, or J on row 3
    coords: np.ndarray  # (B, L, J, M) a_l = Q_l^H X_l, or (B, L, K, M) F_l on row 3
    tails: np.ndarray  # (B, L) ||X_l - Q_l a_l||^2 / M, or outside the dominant J on row 3
    signal: np.ndarray | None  # (B, L) inside the dominant J on row 3; none on rows 1 and 2


def _coordinates(basis: np.ndarray, x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates Q^H x in an orthonormal basis Q, and the tail ||x - Q Q^H x||^2 / M.

    The tail is formed directly: at a signal-to-noise amplitude ratio of 1e8
    the difference of the total and the inside is below the rounding error
    of either.  ``basis`` may be a stack (..., N, J) of bases.
    """
    a = _h(basis) @ x
    return a, energy(x - basis @ a) / m


def _basis(index: int, channel: ChannelModel) -> np.ndarray:
    try:
        return channel.basis
    except RankDeficiencyError as exc:
        raise RankDeficiencyError(f"channel {index} {exc}") from None


def _not_orthonormal(index: int) -> ConfigError:
    return ConfigError(f"channel {index} must have orthonormal columns for unknown-gain panels")


def _known_couplings(spec: KnowledgeSpec, channels: Sequence[ChannelModel]
                     ) -> tuple[list[np.ndarray], np.ndarray]:
    """Rows 1 and 2: each channel's basis and the (1, L, J, J) factors R_l,
    which every data set of a batch shares.

    The cached bases' rank gate raises RankDeficiencyError; row 2 first
    requires orthonormal couplings.
    """
    if spec.channel_knowledge == ChannelKnowledge.UNKNOWN_GAINS:
        bad = [i for i, ch in enumerate(channels) if not ch.orthonormal]
        if bad:
            raise _not_orthonormal(bad[0])
    bases = [_basis(i, ch) for i, ch in enumerate(channels)]
    return bases, np.array([ch.coupling for ch in channels])[None]


def summarise(spec: KnowledgeSpec, channels: Sequence[ChannelModel],
              blocks: Sequence[np.ndarray]) -> Summary:
    """The summary of a panel's channels on B data sets.

    ``blocks`` holds each channel's (B, N_l, M) stack of blocks X_l, one
    matrix per data set: :func:`detect` passes a stack of one.  It is handed
    to :func:`coordinate_summary` as each block's coordinates and tail in the
    channel's basis on rows 1 and 2, and on row 3 in the identity frame:
    a_l = X_l, a zero tail and an empty factor T_l.
    """
    check_channels(channels, [x.shape[-2] for x in blocks])
    batch, _, m = blocks[0].shape
    if spec.channel_knowledge == ChannelKnowledge.UNKNOWN_SUBSPACE:
        empty = np.empty((batch, 0, m), dtype=complex)
        return coordinate_summary(spec, channels, blocks, np.zeros((batch, len(blocks))),
                                  [empty] * len(blocks))
    bases, _ = _known_couplings(spec, channels)
    with np.errstate(over="ignore", invalid="ignore"):  # coordinate_summary raises
        coords, tails = zip(*(_coordinates(q, x, m) for q, x in zip(bases, blocks)))
    return coordinate_summary(spec, channels, coords, np.stack(tails, axis=-1))


def _padded(stacks: Sequence[np.ndarray], m: int) -> np.ndarray:
    """The channels' (B, n_l, M) stacks as one (B, L, max n_l, M) stack, zero-padded:
    zero rows leave each channel's Gram matrix as it is."""
    out = np.zeros((len(stacks[0]), len(stacks), max(x.shape[-2] for x in stacks), m),
                   dtype=complex)
    for idx, x in enumerate(stacks):
        out[:, idx, :x.shape[-2]] = x
    return out


def coordinate_summary(spec: KnowledgeSpec, channels: Sequence[ChannelModel],
                       coords: Sequence[np.ndarray], tails: np.ndarray,
                       factors: Sequence[np.ndarray] | None = None) -> Summary:
    """The summary of a panel on B data sets given by a_l and the tail, and on
    row 3 also by the factor of the tail.

    ``coords`` holds each channel's (B, k_l, M) coordinates a_l = Q_l^H X_l in
    an orthonormal basis Q_l, on rows 1 and 2 that of
    :attr:`ChannelModel.basis`, and ``tails`` the (B, L) tails
    ||X_l - Q_l a_l||^2 / M.  Row 3 reads ``factors``, each channel's (B, r_l,
    M) T_l with X_l - Q_l a_l = V_l T_l for some orthonormal V_l: the stack
    [a_l; T_l] has the Gram matrix X_l^H X_l, which is all row 3 reads, in
    any frame Q_l, the identity (a_l = X_l, no tail) among them.  No block
    is formed.  An energy E_l = ||a_l||^2 / M + tail_l that overflows
    float64 raises ValueError.
    """
    dims, m = [ch.n_samples for ch in channels], coords[0].shape[-1]
    check_channels(channels, dims)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        energies = np.stack([energy(a) for a in coords], axis=-1) / m + tails
    if not np.all(np.isfinite(energies)):
        raise ValueError("data energy overflows float64")
    signal = None
    if spec.channel_knowledge == ChannelKnowledge.UNKNOWN_SUBSPACE:
        coupling = _mode_count(channels, dims, m)
        stacked = _padded([np.concatenate((a, t), axis=-2)
                           for a, t in zip(coords, factors, strict=True)], m)
        signal, tails = _split(stacked, coupling, m)
    else:
        _, coupling = _known_couplings(spec, channels)
        stacked = np.stack(coords, axis=1)
    return Summary(gains=np.array([ch.gain for ch in channels]),
                   variances=np.array([ch.noise_variance for ch in channels]),
                   dims=np.array(dims, dtype=float), energies=energies,
                   coupling=coupling, coords=stacked, tails=tails, signal=signal)


class _Column(NamedTuple):
    """What a noise column fixes, given each channel's in-span signal energy.

    Over a batch of B hypotheses: per-channel fields are (B, L), except
    those the data alone fix, which are (B, L) or (1, L) as the energies are.
    """

    alphas: np.ndarray  # (B, L)
    denominator: np.ndarray  # (B,) of the composite: L, E or N
    variance: np.ndarray | None  # squared data scale: sigma_l^2, none, sigma_hat_l^2
    phi: np.ndarray  # fusion statistics, zero where a residual vanishes
    lam: np.ndarray  # per-channel statistics: phi, or the log energy ratio
    resolved: np.ndarray  # (B,) no residual vanishes, so the composite is finite
    degenerate: np.ndarray  # (B,)
    noise_null: np.ndarray | None
    noise_alt: np.ndarray | None


def _column(noise: NoiseKnowledge, variances: np.ndarray, dims: np.ndarray,
            energies: np.ndarray, signal: np.ndarray, residual: np.ndarray,
            numerator: np.ndarray | None = None, log=np.log) -> _Column:
    """Weights, normalisation and per-channel statistics of a noise column.

    ``signal`` and ``residual`` (B, L) are each channel's energies inside and
    outside its signal subspace; ``residual`` is read on column 3 only, where
    the per-channel statistic is log(numerator / residual) with the block
    energy as the default numerator.
    """
    n_ch, batch = len(dims), signal.shape[:-1]
    if noise == NoiseKnowledge.KNOWN:
        phi = signal / variances
        return _Column(np.full(signal.shape, 1.0 / n_ch), np.full(batch, float(n_ch)),
                       variances, phi, phi, np.ones(batch, bool), np.zeros(batch, bool),
                       None, None)
    if noise == NoiseKnowledge.COMMON_UNKNOWN:
        total = energies.sum(-1)
        if np.count_nonzero(total <= 0.0):
            raise DegenerateDataError("composite data has zero energy")
        positive = energies > 0.0
        phi = np.divide(signal, energies, out=np.zeros(signal.shape), where=positive)
        return _Column(np.broadcast_to(energies / total[:, None], signal.shape),
                       np.broadcast_to(total, batch), None, phi, phi, np.ones(batch, bool),
                       np.broadcast_to(~positive.all(-1), batch),
                       (total / dims.sum())[:, None], None)
    n_total = float(dims.sum())
    ok = residual > DEGENERACY_RTOL * energies
    ratio = np.divide(energies if numerator is None else numerator, residual,
                      out=np.ones(signal.shape), where=ok)
    resolved = ok.all(axis=-1)
    noise_alt = residual / dims
    return _Column(np.broadcast_to(dims / n_total, signal.shape), np.full(batch, n_total),
                   noise_alt,
                   np.divide(signal, residual, out=np.zeros(signal.shape), where=ok),
                   np.where(ok, log(ratio), np.inf), resolved, ~resolved, energies / dims,
                   noise_alt)


class _Evaluation(NamedTuple):
    """Composites and their decomposition over a batch of B hypotheses."""

    composite: np.ndarray  # (B,)
    cross_validation: np.ndarray  # (B,)
    col: _Column
    degenerate: np.ndarray  # (B,)
    noise_alt: np.ndarray | None  # (B, L) or (B, 1)
    outputs: np.ndarray | None = None  # (B, L, J, M) matched outputs R_l^H a_l, row 2


def _report(spec: KnowledgeSpec, ev: _Evaluation) -> DetectorReport:
    """The report of a batch of one, which :func:`evaluate` has checked.

    Row 2 adds the coherences, the Gram matrix of the unit rows vec(A_l) /
    ||A_l|| of the matched outputs (zero for a zero output), and the gain
    direction, the top left singular vector of B = [sqrt(alpha_l phi_l)
    vec(A_l) / ||A_l||], whose B B^H is the fusion quadratic form.
    """
    col = ev.col
    resolved = bool(col.resolved[0])
    fused = spec.noise_knowledge == NoiseKnowledge.DIFFERENT_UNKNOWN and resolved
    gain_direction = coherences = None
    if ev.outputs is not None:
        root = np.sqrt(energy(ev.outputs[0]))
        unit = ev.outputs[0].reshape(len(root), -1) / np.where(root > 0.0, root, 1.0)[:, None]
        coherences = unit @ _h(unit)
        np.fill_diagonal(coherences, 1.0)
        if resolved:
            b = np.sqrt(col.alphas[0] * col.phi[0])[:, None] * unit
            u = np.linalg.svd(b, full_matrices=False)[0]
            gain_direction = normalize_phases(u[:, :1])[:, 0]
    return DetectorReport._unchecked(
        float(ev.composite[0]), col.alphas[0].copy(), col.lam[0], float(ev.cross_validation[0]),
        spec, degenerate=bool(ev.degenerate[0]),
        noise_null=None if col.noise_null is None else col.noise_null[0],
        noise_alt=None if ev.noise_alt is None else ev.noise_alt[0],
        gain_direction=gain_direction, coherences=coherences,
        fusion_stats=col.phi[0] if fused else None)


def _split(x: np.ndarray, j: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The energies s^2 / M of x x^H inside its dominant J-dimensional subspace
    and outside it.

    A tall x (more rows than columns) takes them from the eigenvalues of its
    smaller Gram matrix x^H x, whose tail errs by about eps * s_1^2: each
    matrix whose tail is at most ``_GRAM_RATIO`` s_1^2 takes its singular
    values instead, as every wide or square x does.  x may be a stack
    (..., n, k); the energies then have the stack's shape.
    """
    if x.shape[-2] <= x.shape[-1]:
        return _singular_split(x, j, m)
    e = np.linalg.eigvalsh(_h(x) @ x) / m  # ascending
    top, tail = e[..., -j:].sum(-1), e[..., :-j].sum(-1)
    bad = ~(tail > _GRAM_RATIO * e[..., -1])  # also a nan
    if np.count_nonzero(bad):
        top[bad], tail[bad] = _singular_split(x[bad], j, m)
    return top, tail


def _singular_split(x: np.ndarray, j: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The split of each matrix of x at its J-th singular value s: the energies
    s^2 / M of the dominant J and of the rest."""
    e = np.linalg.svd(x, compute_uv=False) ** 2 / m
    return e[..., :j].sum(-1), e[..., j:].sum(-1)


def evaluate(spec: KnowledgeSpec, s: Summary, dominant_numerator: bool = False) -> _Evaluation:
    """Any panel over the summary's batch of hypotheses.

    Each row splits its stack of whitened blocks, each divided by sqrt(v_l),
    at the composite's span: the coordinates a_l at the orthonormal basis of
    G = [f_l R_l] on row 1, the rows vec(R_l^H a_l) at one singular value on
    row 2, and the factors R_l at the mode count J on row 3, where each
    channel's energies are the summary's split of R_l and the tail of the
    stack less the channels' whitened tails is the cross-validation energy.
    Column 3 on row 3 raises ValueError for a channel of at most J samples,
    which leaves no residual dimension.  Every batch checks its own
    decomposition: :func:`check_decomposition` raises ConfigError for any
    hypothesis that fails it.
    """
    noise = spec.noise_knowledge
    gains_row = spec.channel_knowledge == ChannelKnowledge.UNKNOWN_GAINS
    batch, n_ch, k, m = s.coords.shape
    subspace = isinstance(s.coupling, int)
    if subspace and noise == NoiseKnowledge.DIFFERENT_UNKNOWN:
        short = np.flatnonzero(s.dims <= s.coupling)
        if short.size:
            raise ValueError(f"channel {short[0]} needs more than J={s.coupling} samples for a "
                             f"residual, got {int(s.dims[short[0]])}")
    data = _h(s.coupling) @ s.coords if gains_row else s.coords
    signal = s.signal if subspace else energy(data) / m
    col = _column(noise, s.variances, s.dims, s.energies, signal, s.tails,
                  numerator=signal if dominant_numerator else None,
                  log=np.log1p if subspace else np.log)
    ok = col.resolved  # a cell whose residual vanishes forms no composite
    v = np.broadcast_to(1.0 if col.variance is None else col.variance, (batch, n_ch))[ok]
    whitened = data[ok] / np.sqrt(v)[..., None, None]
    if gains_row:
        top, rest = _split(whitened.reshape(-1, n_ch, k * m), 1, m)
    elif subspace:
        top, rest = _split(whitened.reshape(-1, n_ch * k, m), s.coupling, m)
        rest = rest - (s.tails[ok] / v).sum(-1)
    else:
        f = s.gains / np.sqrt(s.variances) if noise == NoiseKnowledge.KNOWN else s.gains
        # A shared coupling takes one basis, which every data set's split broadcasts.
        shared = s.coupling if len(s.coupling) == 1 else s.coupling[ok]
        coupling = (f[:, None, None] * shared).reshape(-1, n_ch * k, k)
        a, rest = _coordinates(orthonormal_basis(coupling, "composite channel"),
                               whitened.reshape(-1, n_ch * k, m), m)
        top = energy(a) / m
    composite, cv = np.full(batch, math.inf), np.zeros(batch)
    cv[ok] = rest / col.denominator[ok]
    composite[ok] = (np.vecdot(col.lam[ok], col.alphas[ok]) - cv[ok]
                     if noise == NoiseKnowledge.DIFFERENT_UNKNOWN else top / col.denominator[ok])
    noise_alt = col.noise_alt
    if noise == NoiseKnowledge.COMMON_UNKNOWN and not gains_row:  # every cell is resolved
        noise_alt = ((s.tails.sum(-1) + rest) / s.dims.sum())[:, None]
    degenerate = col.degenerate
    if gains_row:  # a zero matched output has no direction
        degenerate = degenerate | (signal <= 0.0).any(axis=-1)
    check_decomposition(composite, col.alphas, col.lam, cv, degenerate)
    return _Evaluation(composite, cv, col, degenerate, noise_alt,
                       data if gains_row else None)


def _mode_count(channels: Sequence[ChannelModel], dims: list[int], m: int) -> int:
    """The mode count J, checked against the snapshot count and block sizes."""
    j = channels[0].n_modes
    if m < j:
        raise ValueError(f"need at least J={j} snapshots, got M={m}")
    for idx, dim in enumerate(dims):
        if j > dim:
            raise ValueError(f"J={j} exceeds channel {idx} dimension {dim}")
    return j
