"""Per-channel coupling matrices built from physical propagation parameters.

A channel couples J signal modes into N complex baseband samples through a
matrix of unit-modulus phase factors: a J-column DFT slice modulated by
delay, Doppler, and clock-offset terms.  The construction is narrowband: it
assumes a first-order (constant-rate) delay model and factors into diagonal
modulations around the DFT slice; over a delay x Doppler grid every cell is
D_N(nu Ts) V Phi(tau), the one slice V between a Doppler and a delay
diagonal (:func:`narrowband_factors`), of which one matrix is the one-cell
case.

Channel gain conventions: the stored matrix is trace-normalized so that
trace(H^H H) = J; all gain (including any sqrt(N) from the raw DFT slice)
lives in the complex scalar ``gain``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError, RankDeficiencyError
from .linalg import as_complex_matrix, as_complex_stack, energy, orthonormal_basis

SPEED_OF_LIGHT_MPS = 299_792_458.0

# The smallest normal float: a scaled singular value below it has lost precision.
_TINY = np.finfo(float).tiny


def radial_velocity_to_doppler(velocity_mps: float, carrier_hz: float) -> float:
    """Doppler shift (Hz) of a carrier for a given radial velocity."""
    return carrier_hz * velocity_mps / SPEED_OF_LIGHT_MPS


@dataclass(frozen=True)
class PropagationSpec:
    """Physical parameters defining one channel's coupling matrix.

    ``doppler_hz`` is the Doppler shift of the carrier; the delay trajectory
    it implies is tau(t) = delay_s + (doppler_hz / carrier_hz) * t.
    """

    carrier_hz: float
    sample_period_s: float
    n_samples: int
    n_modes: int
    delay_s: float = 0.0
    doppler_hz: float = 0.0
    clock_offset_s: float = 0.0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ConfigError(f"n_samples must be >= 1, got {self.n_samples}")
        if not (1 <= self.n_modes <= self.n_samples):
            raise ConfigError(
                f"n_modes must satisfy 1 <= J <= N, got J={self.n_modes}, N={self.n_samples}"
            )
        if self.sample_period_s <= 0:
            raise ConfigError("sample_period_s must be positive")
        # A delay turns phases at up to 2 pi (f_c + J/T) rad/s and a Doppler
        # at up to 2 pi N Ts rad/Hz; an infinite rate times a zero delay is nan.
        carrier_rate = 2.0 * math.pi * float(self.carrier_hz)
        rates = (carrier_rate + 2.0 * math.pi * self.n_modes / self.duration_s,
                 2.0 * math.pi * self.duration_s)
        if not all(map(math.isfinite, rates)):
            name = "sample_period_s" if math.isfinite(carrier_rate) else "carrier_hz"
            raise ConfigError(f"{name}={getattr(self, name)!r} gives non-finite channel phase rates")

    @property
    def duration_s(self) -> float:
        """The observation time T = N Ts."""
        return self.n_samples * self.sample_period_s


def modulation_phases(count: int, z) -> np.ndarray:
    """Diagonal entries of D_p(z) = diag(1, e^{-i2pi z}, ..., e^{-i2pi(p-1)z}).

    An array z of shape (..., 1) gives one diagonal per entry, shape (..., p).
    """
    return np.exp(-2j * np.pi * np.arange(count) * z)


def dft_slice(n_samples: int, n_modes: int) -> np.ndarray:
    """First J columns of the N-point phase table with entries e^{+i2pi n j / N}."""
    n = np.arange(n_samples)[:, None]
    j = np.arange(n_modes)[None, :]
    return np.exp(2j * np.pi * n * j / n_samples)


def narrowband_factors(spec: PropagationSpec, delays_s,
                       dopplers_hz) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal factors of the raw narrowband coupling over a delay x Doppler grid.

    H(tau, nu) = D_N(nu Ts) V Phi(tau), with V the J-column DFT slice,
    s = t0 + tau and Phi(tau) = e^{-i2pi f_c s} D_J(s / T), is
    ``doppler[b][:, None] * V * delay[a]`` for the grid cell (delays_s[a],
    dopplers_hz[b]): ``doppler`` (n_doppler, N) holds the diagonals of
    D_N(nu Ts) (:func:`doppler_factors`) and ``delay`` (n_delay, J) those of
    Phi(tau) (:func:`delay_factors`).  Both are unitary diagonals, so every
    cell is one matrix V rephased on either side: its column span depends
    on the Doppler alone, and a basis Q_0 of V gives every cell the basis
    D_N(nu Ts) Q_0.  Raises ValueError for a delay or Doppler whose phases
    are not finite.
    """
    delay = delay_factors(spec, delays_s)
    return doppler_factors(spec, dopplers_hz), delay


def delay_factors(spec: PropagationSpec, delays_s) -> np.ndarray:
    """The (n_delay, J) diagonals of Phi(tau) = e^{-i2pi f_c s} D_J(s / T), s = t0 + tau."""
    shift = spec.clock_offset_s + np.asarray(delays_s, dtype=float)[:, None]
    _require_finite_phases("delay", shift, spec.carrier_hz + spec.n_modes / spec.duration_s)
    return (np.exp(-2j * np.pi * spec.carrier_hz * shift)
            * modulation_phases(spec.n_modes, shift / spec.duration_s))


def doppler_factors(spec: PropagationSpec, dopplers_hz) -> np.ndarray:
    """The (n_doppler, N) diagonals of D_N(nu Ts), which depend on N and Ts alone."""
    nu = np.asarray(dopplers_hz, dtype=float)[:, None]
    _require_finite_phases("Doppler", nu, spec.n_samples * spec.sample_period_s)
    return modulation_phases(spec.n_samples, nu * spec.sample_period_s)


def _require_finite_phases(name: str, values: np.ndarray, cycles_per_unit: float) -> None:
    """Raise ValueError unless every phase 2 pi * cycles * |value| is finite.

    ``cycles_per_unit`` bounds the cycles a unit of the value turns any
    entry by, so a finite bound keeps np.exp from overflowing to nan.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        bad = ~np.isfinite(2.0 * np.pi * cycles_per_unit * np.abs(values))
    if bad.any():
        raise ValueError(f"{name} {float(values[bad][0])!r} gives non-finite channel phases")


def build_narrowband_h(spec: PropagationSpec) -> np.ndarray:
    """Raw (unnormalized) narrowband coupling matrix.

    H = e^{-i2pi f_c (t0 + tau0)} D_N(nu Ts) V D_J((t0 + tau0)/T) with V the
    J-column DFT slice; the raw Gram is H^H H = N I_J.  It is the one-cell
    case of :func:`narrowband_factors`.
    """
    doppler, delay = narrowband_factors(spec, [spec.delay_s], [spec.doppler_hz])
    return doppler[0][:, None] * dft_slice(spec.n_samples, spec.n_modes) * delay[0]


def normalize_channel(h_raw) -> np.ndarray:
    """Rescale so that trace(H^H H) = J, moving all gain into the gain scalar.

    A stack (..., N, J) of matrices is rescaled matrix by matrix.
    """
    h = as_complex_stack(h_raw, "channel matrix")
    gram_trace = energy(h)
    if np.any(gram_trace <= 0.0):
        raise ValueError("cannot normalize a zero channel matrix")
    return h * np.sqrt(h.shape[-1] / gram_trace)[..., None, None]


def require_trace_normalized(h: np.ndarray) -> None:
    """Raise ConfigError unless trace(H^H H) = J for h, or each matrix of a stack."""
    j = h.shape[-1]
    gram_trace = np.asarray(energy(h))
    wrong = np.abs(gram_trace - j) > 1e-9 * max(1.0, j)
    if np.any(wrong):
        raise ConfigError(
            f"channel matrix is not trace-normalized: trace(H^H H) = {gram_trace[wrong][0]}, "
            f"expected {j} (use normalize_channel)"
        )


def require_gain_and_noise(gain: complex, noise_variance: float, name: str = "") -> None:
    """Raise ConfigError, its message led by ``name``, unless the gain is finite
    (zero is allowed) and the noise variance finite and positive."""
    if not (math.isfinite(noise_variance) and noise_variance > 0.0):
        raise ConfigError(f"{name}noise_variance must be finite and positive, got {noise_variance}")
    if not np.isfinite(gain):
        raise ConfigError(f"{name}gain must be finite, got {gain}")


def orthonormal_columns(h: np.ndarray) -> np.ndarray:
    """Whether H^H H = I_J to 1e-9, for h or for each matrix of a stack."""
    j = h.shape[-1]
    gram = np.swapaxes(h.conj(), -1, -2) @ h
    return np.linalg.norm(gram - np.eye(j), axis=(-2, -1)) <= 1e-9 * max(1.0, j)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ChannelModel:
    """One receive channel: trace-normalized coupling matrix, gain, noise power.

    The matrix is a read-only copy, and the arrays cached from it are
    read-only too, so a channel shared between calls cannot change.  The
    basis Q, coupling R and singular values serve every detector; the
    contiguous adjoint basis Q^H and the whitened coupling (g / sigma) R are
    the constants of the channel's fusion leaf (:mod:`fusion`), which reads
    C = Q^H X / sigma and F = (g / sigma) R from them.  Each is built on its
    first use, not with the channel.
    """

    matrix: np.ndarray
    gain: complex
    noise_variance: float

    def __post_init__(self):
        # A copy: the caller's array stays writable and its changes cannot reach the channel.
        h = as_complex_matrix(self.matrix, "channel matrix").copy(order="K")
        object.__setattr__(self, "matrix", _read_only(h))
        object.__setattr__(self, "gain", complex(self.gain))
        object.__setattr__(self, "noise_variance", float(self.noise_variance))
        require_gain_and_noise(self.gain, self.noise_variance)
        require_trace_normalized(h)

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[1]

    # Computed on first use and kept: a channel is fixed while the data it
    # is scored against changes.  A rank-deficient matrix, or a whitened
    # coupling that fails its gate, is not cached and raises on every access.
    @cached_property
    def noise_sigma(self) -> float:
        return float(np.sqrt(self.noise_variance))

    @cached_property
    def basis(self) -> np.ndarray:
        """Orthonormal basis Q of the column span of the matrix H."""
        return _read_only(orthonormal_basis(self.matrix))

    @cached_property
    def coupling(self) -> np.ndarray:
        """The J x J factor R = Q^H H, so that H = Q R."""
        return _read_only(self.basis.conj().T @ self.matrix)

    @cached_property
    def singular_values(self) -> np.ndarray:
        """The singular values of H, read as the row norms of the coupling R.

        The basis holds the left singular vectors of H, so R = diag(s) V^H.
        """
        return _read_only(np.linalg.norm(self.coupling, axis=1))

    @cached_property
    def adjoint_basis(self) -> np.ndarray:
        """The J x N conjugate transpose Q^H of the basis, C-contiguous."""
        return _read_only(np.ascontiguousarray(self.basis.conj().T))

    @cached_property
    def whitened_coupling(self) -> np.ndarray:
        """The J x J factor (g / sigma) R of the channel's fusion message.

        The basis passed the rank gate, and holds the left singular vectors
        of H, so R = diag(s) V^H: only the scale g / sigma is gated.  The
        scaled singular values must be finite (ValueError) and normal floats,
        or the factor has lost rank to underflow (RankDeficiencyError).
        """
        scale = self.gain / self.noise_sigma
        size = math.hypot(scale.real, scale.imag)  # abs() raises past the largest float
        norms = self.singular_values.tolist()
        low, high = size * min(norms), size * max(norms)
        if not math.isfinite(high):
            raise ValueError("message factor contains non-finite entries")
        if not low >= _TINY:
            raise RankDeficiencyError(f"message factor of gain / sigma = {scale} underflows "
                                      f"(singular values {low:.3e} .. {high:.3e})")
        return _read_only(scale * self.coupling)

    @cached_property
    def orthonormal(self) -> bool:
        """Whether H^H H = I_J, to the tolerance of :func:`orthonormal_columns`."""
        return bool(orthonormal_columns(self.matrix))


def narrowband_channel(spec: PropagationSpec, gain: complex, noise_variance: float) -> ChannelModel:
    """Build a normalized narrowband channel model from physical parameters.

    The raw narrowband Gram is N I_J, so normalization divides by sqrt(N);
    callers who care about absolute signal level should fold sqrt(N) into
    ``gain`` themselves if their gain was calibrated against the raw matrix.
    """
    h = normalize_channel(build_narrowband_h(spec))
    return ChannelModel(matrix=h, gain=gain, noise_variance=noise_variance)


def require_same_dims(channels: Sequence[ChannelModel], channel_dims: Sequence[int]) -> None:
    """Check that channel models match the per-channel sample counts of a data set."""
    if len(channels) != len(channel_dims):
        raise DimensionError(
            f"{len(channels)} channel models for {len(channel_dims)} data blocks"
        )
    for idx, (ch, dim) in enumerate(zip(channels, channel_dims)):
        if ch.n_samples != dim:
            raise DimensionError(
                f"channel {idx} expects {ch.n_samples} samples, data block has {dim}"
            )
