"""Per-channel coupling matrices built from physical propagation parameters.

A channel couples J signal modes into N complex baseband samples through a
matrix of unit-modulus phase factors: a J-column DFT slice modulated by
delay, Doppler, and clock-offset terms.  Two constructions are provided:

* a broadband one that takes the per-sample delay trajectory as given, and
* a narrowband one that assumes a first-order (constant-rate) delay model
  and factors into diagonal modulations around the DFT slice; over a
  delay x Doppler grid it is a Doppler factor times a delay factor
  (:func:`narrowband_factors`), of which one matrix is the one-cell case.

Channel gain conventions: the stored matrix is trace-normalized so that
trace(H^H H) = J; all gain (including any sqrt(N) from the raw DFT slice)
lives in the complex scalar ``gain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError
from .linalg import as_complex_matrix, as_complex_stack, energy, orthonormal_basis

SPEED_OF_LIGHT_MPS = 299_792_458.0


def radial_velocity_to_doppler(velocity_mps: float, carrier_hz: float) -> float:
    """Doppler shift (Hz) of a carrier for a given radial velocity."""
    return carrier_hz * velocity_mps / SPEED_OF_LIGHT_MPS


@dataclass(frozen=True)
class PropagationSpec:
    """Physical parameters defining one channel's coupling matrix.

    ``doppler_hz`` is the Doppler shift of the carrier; the delay trajectory
    it implies is tau(t) = delay_s + (doppler_hz / carrier_hz) * t.  For the
    broadband construction, ``delay_samples_s`` supplies tau at each sample
    instant instead.
    """

    carrier_hz: float
    sample_period_s: float
    n_samples: int
    n_modes: int
    duration_s: float | None = None
    delay_s: float = 0.0
    doppler_hz: float = 0.0
    clock_offset_s: float = 0.0
    delay_samples_s: tuple[float, ...] | None = field(default=None)

    def __post_init__(self):
        if self.n_samples < 1:
            raise ConfigError(f"n_samples must be >= 1, got {self.n_samples}")
        if not (1 <= self.n_modes <= self.n_samples):
            raise ConfigError(
                f"n_modes must satisfy 1 <= J <= N, got J={self.n_modes}, N={self.n_samples}"
            )
        if self.sample_period_s <= 0:
            raise ConfigError("sample_period_s must be positive")
        if self.duration_s is None:
            object.__setattr__(self, "duration_s", self.n_samples * self.sample_period_s)
        else:
            expected = self.n_samples * self.sample_period_s
            if abs(self.duration_s - expected) > 1e-9 * max(abs(expected), 1e-30):
                raise ConfigError(
                    f"duration_s={self.duration_s} inconsistent with "
                    f"n_samples * sample_period_s = {expected}"
                )
        if self.delay_samples_s is not None:
            samples = tuple(float(t) for t in self.delay_samples_s)
            if len(samples) != self.n_samples:
                raise ConfigError(
                    f"delay_samples_s has length {len(samples)}, expected {self.n_samples}"
                )
            object.__setattr__(self, "delay_samples_s", samples)


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


def build_broadband_h(spec: PropagationSpec) -> np.ndarray:
    """Raw (unnormalized) coupling matrix from a per-sample delay trajectory.

    Entry (n, j) of the inner phase table is
    exp(-i2pi f_c tau_n) * exp(+i2pi n j / N) * exp(-i (2pi j / T) tau_n),
    and the result is pre-multiplied by the clock-offset carrier phase and
    post-multiplied by the clock-offset column modulation.
    """
    if spec.delay_samples_s is None:
        raise ConfigError("broadband construction requires delay_samples_s")
    tau = np.asarray(spec.delay_samples_s, dtype=float)[:, None]
    n_samples, n_modes = spec.n_samples, spec.n_modes
    j = np.arange(n_modes)[None, :]
    v = (
        np.exp(-2j * np.pi * spec.carrier_hz * tau)
        * dft_slice(n_samples, n_modes)
        * np.exp(-2j * np.pi * j * tau / spec.duration_s)
    )
    carrier = np.exp(-2j * np.pi * spec.carrier_hz * spec.clock_offset_s)
    cols = modulation_phases(n_modes, spec.clock_offset_s / spec.duration_s)
    return carrier * v * cols[None, :]


def narrowband_factors(spec: PropagationSpec, delays_s,
                       dopplers_hz) -> tuple[np.ndarray, np.ndarray]:
    """Raw narrowband coupling matrices over a delay x Doppler grid, as two factors.

    H(tau, nu) = e^{-i2pi f_c s} D_N(nu Ts) V D_J(s / T), with s = t0 + tau and
    V the J-column DFT slice, is ``doppler[b] * delay[a]`` for the grid cell
    (delays_s[a], dopplers_hz[b]): ``doppler`` (n_doppler, N, J) holds
    D_N(nu Ts) V and ``delay`` (n_delay, J) the entries of e^{-i2pi f_c s}
    D_J(s / T).  The delay enters through a unitary diagonal only, so the
    column span of H(tau, nu) depends on the Doppler alone.  Raises
    ValueError for a delay or Doppler whose phases are not finite.
    """
    shift = spec.clock_offset_s + np.asarray(delays_s, dtype=float)[:, None]
    nu = np.asarray(dopplers_hz, dtype=float)[:, None]
    _require_finite_phases("delay", shift, spec.carrier_hz + spec.n_modes / spec.duration_s)
    _require_finite_phases("Doppler", nu, spec.n_samples * spec.sample_period_s)
    delay = (np.exp(-2j * np.pi * spec.carrier_hz * shift)
             * modulation_phases(spec.n_modes, shift / spec.duration_s))
    rows = modulation_phases(spec.n_samples, nu * spec.sample_period_s)
    return rows[:, :, None] * dft_slice(spec.n_samples, spec.n_modes), delay


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
    return doppler[0] * delay[0]


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


def orthonormal_columns(h: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Whether H^H H = I_J to ``tol``, for h or for each matrix of a stack."""
    j = h.shape[-1]
    gram = np.swapaxes(h.conj(), -1, -2) @ h
    return np.linalg.norm(gram - np.eye(j), axis=(-2, -1)) <= tol * max(1.0, j)


@dataclass(frozen=True)
class ChannelModel:
    """One receive channel: trace-normalized coupling matrix, gain, noise power."""

    matrix: np.ndarray
    gain: complex
    noise_variance: float

    def __post_init__(self):
        h = as_complex_matrix(self.matrix, "channel matrix")
        object.__setattr__(self, "matrix", h)
        object.__setattr__(self, "gain", complex(self.gain))
        object.__setattr__(self, "noise_variance", float(self.noise_variance))
        if self.noise_variance <= 0:
            raise ConfigError(f"noise_variance must be positive, got {self.noise_variance}")
        require_trace_normalized(h)

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[1]

    @property
    def noise_sigma(self) -> float:
        return float(np.sqrt(self.noise_variance))

    def is_orthonormal(self, tol: float = 1e-9) -> bool:
        return bool(orthonormal_columns(self.matrix, tol))

    # Computed on first use and kept: a channel is fixed while the data it
    # is scored against changes.  A rank-deficient matrix is not cached and
    # raises on every access.
    @cached_property
    def basis(self) -> np.ndarray:
        """Orthonormal basis Q of the column span of the matrix H."""
        return orthonormal_basis(self.matrix)

    @cached_property
    def coupling(self) -> np.ndarray:
        """The J x J factor R = Q^H H, so that H = Q R."""
        return self.basis.conj().T @ self.matrix

    @cached_property
    def orthonormal(self) -> bool:
        """``is_orthonormal()`` at its default tolerance."""
        return self.is_orthonormal()


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
