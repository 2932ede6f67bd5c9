"""Snapshot containers, synthesis, and file formats.

Data for L channels over M snapshots is held as per-channel blocks X_l of
shape (N_l, M).  Synthesis is deterministic given (seed, trial): every (trial, channel) pair gets its own
named substream so concurrent trials never share random state.

The on-disk interchange format is binary-free: one directory with a JSON
header (format, version, dims, snapshot count, channel order) plus one CSV per block holding
interleaved real,imag entries at 17 significant digits, which round-trips
float64 bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .channel import ChannelModel
from .errors import ConfigError, DimensionError
from .linalg import as_complex_matrix, as_complex_stack

_HEADER_NAME = "header.json"
_FORMAT_NAME = "glrfusion-measurements"
_FORMAT_VERSION = 1
_FLOAT_FMT = "{:.17g}"

# Purpose tags for named random substreams.
_NOISE_STREAM = 0
_AMPLITUDE_STREAM = 1


def rng_stream(seed: int, purpose: int, trial: int, channel: int) -> np.random.Generator:
    """Deterministic generator for one (purpose, trial, channel) substream."""
    return np.random.default_rng(
        np.random.SeedSequence((int(seed), int(purpose), int(trial), int(channel)))
    )


@dataclass(frozen=True)
class MeasurementSet:
    """Block-stacked measurements: one (N_l x M) complex block per channel."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.blocks:
            raise DimensionError("a MeasurementSet needs at least one block")
        blocks = tuple(as_complex_matrix(b, f"block {i}") for i, b in enumerate(self.blocks))
        m = blocks[0].shape[1]
        for i, b in enumerate(blocks):
            if b.shape[1] != m:
                raise DimensionError(
                    f"block {i} has {b.shape[1]} snapshots, expected {m}"
                )
        if m < 1:
            raise DimensionError("at least one snapshot is required")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_channels(self) -> int:
        return len(self.blocks)

    @property
    def n_snapshots(self) -> int:
        return self.blocks[0].shape[1]

    @property
    def channel_dims(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)

    @property
    def n_total(self) -> int:
        return sum(self.channel_dims)

    def stacked(self) -> np.ndarray:
        return np.vstack(self.blocks)

    def block(self, i: int) -> np.ndarray:
        return self.blocks[i]

    def scaled(self, factors: Sequence[complex]) -> "MeasurementSet":
        """New set with each block multiplied by its own scalar."""
        if len(factors) != self.n_channels:
            raise DimensionError(
                f"{len(factors)} factors for {self.n_channels} channels"
            )
        return MeasurementSet(tuple(c * b for c, b in zip(factors, self.blocks)))

    def subset(self, indices: Sequence[int]) -> "MeasurementSet":
        """New set containing only the selected channels, in the given order."""
        return MeasurementSet(tuple(self.blocks[i] for i in indices))


def simulate(
    channels: Sequence[ChannelModel],
    n_snapshots: int,
    seed: int,
    amplitudes: np.ndarray | None = None,
    trial: int = 0,
) -> MeasurementSet:
    """Synthesize X_l = g_l H_l A + U_l for each channel: one trial of :func:`draw_blocks`.

    ``amplitudes`` is the (J x M) mode-amplitude matrix; ``None`` synthesizes
    noise only.
    """
    if amplitudes is not None:
        amplitudes = as_complex_matrix(amplitudes, "amplitudes")[None]
    return MeasurementSet(tuple(
        x[0] for x in draw_blocks(channels, n_snapshots, seed, [trial], amplitudes)))


def draw_blocks(
    channels: Sequence[ChannelModel],
    n_snapshots: int,
    seed: int,
    trials: Sequence[int],
    amplitudes: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Per-channel stacks (T, N_l, M) of X_l = g_l H_l A_t + U_l, one matrix per trial t.

    ``amplitudes`` is the (T, J, M) stack of mode-amplitude matrices; ``None``
    synthesizes noise only.  Noise is circular complex Gaussian with
    per-entry variance sigma_l^2 (real and imaginary parts each
    sigma_l^2 / 2), independent across channels and snapshots, and drawn
    from the (seed, trial, channel) substream, so a trial's blocks do not
    depend on the other trials of the stack.
    """
    if n_snapshots < 1:
        raise ConfigError("n_snapshots must be >= 1")
    if not channels:
        raise ConfigError("at least one channel is required")
    shape = (len(trials), channels[0].n_modes, n_snapshots)
    if amplitudes is not None:
        amplitudes = as_complex_stack(amplitudes, "amplitudes")
        if amplitudes.shape != shape:
            raise ConfigError(
                f"amplitudes shape {amplitudes.shape[1:]} does not match "
                f"(J={shape[1]}, M={n_snapshots})"
            )
    blocks = []
    for idx, ch in enumerate(channels):
        # The real parts of a trial's block, then its imaginary parts: one
        # draw of 2 N M normals is the two draws of N M in turn.
        normals = np.empty((len(trials), 2, ch.n_samples, n_snapshots))
        for out, trial in zip(normals, trials):
            rng_stream(seed, _NOISE_STREAM, trial, idx).standard_normal(out=out)
        noise = np.sqrt(ch.noise_variance / 2.0) * (normals[:, 0] + 1j * normals[:, 1])
        if amplitudes is None:
            blocks.append(noise)
        else:
            blocks.append(ch.gain * (ch.matrix @ amplitudes) + noise)
    return blocks


def draw_amplitudes(
    n_modes: int, n_snapshots: int, scale: float, seed: int, trial: int = 0
) -> np.ndarray:
    """Draw a (J x M) amplitude matrix with iid CN(0, scale^2) entries."""
    rng = rng_stream(seed, _AMPLITUDE_STREAM, trial, 0)
    return (scale / np.sqrt(2.0)) * (
        rng.standard_normal((n_modes, n_snapshots))
        + 1j * rng.standard_normal((n_modes, n_snapshots))
    )


def _format_block(block: np.ndarray) -> str:
    interleaved = np.ascontiguousarray(block, dtype=np.complex128).view(np.float64)
    return "\n".join(",".join(map(_FLOAT_FMT.format, row))
                     for row in interleaved.tolist()) + "\n"


def _parse_block(text: str, n_rows: int, n_snapshots: int) -> np.ndarray:
    rows = [line.split(",") for line in text.splitlines() if line.strip()]
    if len(rows) != n_rows:
        raise DimensionError(f"block file has {len(rows)} rows, expected {n_rows}")
    for i, fields in enumerate(rows):
        if len(fields) != 2 * n_snapshots:
            raise DimensionError(
                f"row {i} has {len(fields)} fields, expected {2 * n_snapshots}"
            )
    return np.array(rows, dtype=float).reshape(n_rows, 2 * n_snapshots).view(np.complex128)


def save_measurements(measurements: MeasurementSet, directory) -> Path:
    """Write a measurement set as header.json + one CSV per channel block."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    block_names = [f"block_{i:02d}.csv" for i in range(measurements.n_channels)]
    header = {
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "n_snapshots": measurements.n_snapshots,
        "channel_dims": list(measurements.channel_dims),
        "blocks": block_names,
    }
    (root / _HEADER_NAME).write_text(json.dumps(header, indent=2) + "\n")
    for name, block in zip(block_names, measurements.blocks):
        (root / name).write_text(_format_block(block))
    return root


def _conforms(value, expected) -> bool:
    """Whether a JSON value has the declared type ``expected``.

    A declaration is a type, a tuple of alternatives, or [t] for a list whose
    elements are all t.  A bool is never an int or a number, and an int or a
    float must convert to a finite float: JSON parsers read NaN, and 1e400 as
    inf, and an integer of 400 digits overflows float64.
    """
    if isinstance(expected, tuple):
        return any(_conforms(value, t) for t in expected)
    if isinstance(expected, list):
        return isinstance(value, list) and all(_conforms(v, expected[0]) for v in value)
    return (isinstance(value, expected) and (expected is bool or not isinstance(value, bool))
            and (expected not in (int, float) or _finite(value)))


def _finite(number) -> bool:
    """Whether an int or a float converts to a finite float."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def _require_type(value, expected, what: str) -> None:
    """Raise ConfigError naming ``what`` unless ``value`` has the declared type."""
    if not _conforms(value, expected):
        raise ConfigError(f"{what} has the wrong type or is not finite: {json.dumps(value)}")


def _read_header(root: Path, format_name: str, version: int, keys: Mapping[str, object]) -> dict:
    """Read ``root``/header.json: a JSON object of ``format_name`` ``version``.

    ``keys`` maps each key the header must hold to its declared type (see
    :func:`_conforms`).
    """
    header_path = root / _HEADER_NAME
    if not header_path.exists():
        raise ConfigError(f"no {_HEADER_NAME} in {root}")
    header = json.loads(header_path.read_text())
    if not isinstance(header, dict):
        raise ConfigError(f"{header_path} does not hold a JSON object")
    if header.get("format") != format_name:
        raise ConfigError(f"unrecognized format {header.get('format')!r} in {header_path}, "
                          f"expected {format_name!r}")
    found = header.get("version")
    if found != version or isinstance(found, bool):
        raise ConfigError(f"unsupported {format_name} version {found!r} "
                          f"in {header_path}, expected version {version}")
    for key, expected in keys.items():
        if key not in header:
            raise ConfigError(f"{header_path} is missing the key {key!r}")
        _require_type(header[key], expected, f"{key!r} in {header_path}")
    return header


def load_measurements(directory) -> MeasurementSet:
    """Read a measurement set written by :func:`save_measurements`."""
    root = Path(directory)
    header = _read_header(root, _FORMAT_NAME, _FORMAT_VERSION,
                          {"n_snapshots": int, "channel_dims": [int], "blocks": [str]})
    m = header["n_snapshots"]
    dims = header["channel_dims"]
    if len(dims) != len(header["blocks"]):
        raise ConfigError(
            f"{root / _HEADER_NAME} lists {len(header['blocks'])} block files "
            f"for {len(dims)} channels"
        )
    blocks = []
    for dim, name in zip(dims, header["blocks"]):
        blocks.append(_parse_block((root / name).read_text(), dim, m))
    return MeasurementSet(tuple(blocks))
