"""Snapshot containers, synthesis, and file formats.

Data for L channels over M snapshots is held as per-channel blocks X_l of
shape (N_l, M).  Synthesis is deterministic given (seed, trial): every
(trial, channel) pair gets its own named substream so concurrent trials never
share random state.  :func:`rng_stream` defines each substream; a call that
draws many of them reproduces every one bit for bit from one vectorised pass
of numpy's ``SeedSequence`` hash over all of its keys and one PCG64
generator, reseeded per key and owned by the call.

A trial is drawn in each channel's frame [Q_l Q_l^perp], Q_l an orthonormal
basis of the span of H_l (:func:`draw_trials`): its coordinates a_l = Q_l^H X_l
and the energy of its tail outside Q_l first, which is all the known-coupling
detectors read, and the block X_l only where it is needed (:func:`simulate`
and the unknown-subspace row).  White noise keeps its law under a rotation,
so this is exact in law, though not the same numbers as drawing X_l entry by
entry.

The on-disk interchange format is binary-free: one directory with a JSON
header (format, version, dims, snapshot count, channel order) plus one CSV per block holding
interleaved real,imag entries at 17 significant digits, which round-trips
float64 bit-exactly.  Every file the package writes reaches disk through
:func:`write_files`, whose texts :func:`json_text` and the block codec form.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .channel import ChannelModel
from .errors import ConfigError, DimensionError, RankDeficiencyError
from .linalg import as_complex_matrix, as_complex_stack, energy

_HEADER_NAME = "header.json"
_FORMAT_NAME = "glrfusion-measurements"
_FORMAT_VERSION = 1
_FLOAT_FMT = "{:.17g}"

# Purpose tags for named random substreams.
_NOISE_STREAM = 0
_AMPLITUDE_STREAM = 1
# Below this many keys a call builds one generator per key with rng_stream.
# A hash pass and a generator to reseed cost about as much as five builds:
# per call, the two ways break even at five or six keys, and hashing is about
# a fifth faster at eight keys and two fifths at sixteen (one core).
_MIN_HASHED_KEYS = 8

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _hash_steps(init: int, mult: int, steps) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants, each of shape steps.shape + (1,), of
    SeedSequence's hash steps ``steps`` on the chain init * mult**k mod 2**32:
    step k xors chain entry k and multiplies by entry k + 1."""
    steps = np.asarray(steps)
    chain = [init]
    for _ in range(steps.max() + 1):
        chain.append(chain[-1] * mult & _MASK32)
    chain = np.array(chain, dtype=np.uint32)
    return chain[steps][..., None], chain[steps + 1][..., None]


# numpy's SeedSequence (numpy/random/bit_generator.pyx).  Mixing a pool of
# four words takes hash steps 0-3, one per entropy word, then four rounds:
# round r hashes pool[r] once for each other word i, in order, with step
# 4 + 3r + (i - (i > r)) (word r's entry is unused).  Emitting four uint64
# words takes steps 0-7 of a second chain, one per uint32 half, from pool
# words 0-3, 0-3.
_MIX_CHAIN = (0x43B0D7E5, 0x931E8875)  # INIT_A, MULT_A
_EMIT_CHAIN = (0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B
_ENTROPY_STEPS = _hash_steps(*_MIX_CHAIN, range(4))
_ROUND_STEPS = tuple(
    _hash_steps(*_MIX_CHAIN, [4 + 3 * r + i - (i > r) if i != r else 0 for i in range(4)])
    for r in range(4))
_EMIT_STEPS = _hash_steps(*_EMIT_CHAIN, np.arange(8).reshape(2, 4))
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = (0x2360ED051FC65DA4 << 64) | 0x4385DF649FCCF645


def rng_stream(seed: int, purpose: int, trial: int, channel: int) -> np.random.Generator:
    """Deterministic generator for one (purpose, trial, channel) substream.

    This defines every substream the package draws; calls over many keys
    reproduce it bit for bit without building a generator per key.
    """
    return np.random.default_rng(
        np.random.SeedSequence((int(seed), int(purpose), int(trial), int(channel)))
    )


def _hash(values: np.ndarray, steps: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """SeedSequence's hash of ``values`` with the constants of :func:`_hash_steps`,
    broadcast against each other."""
    xor, mult = steps
    h = (values ^ xor) * mult
    return h ^ (h >> 16)


def _seed_words(keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(tuple(k)).generate_state(4, np.uint64)`` for each row k of
    the (n, 4) uint32 ``keys``, as an (n, 4) uint64 array, in one pass."""
    pool = _hash(keys.T, _ENTROPY_STEPS)
    for r, steps in enumerate(_ROUND_STEPS):
        # Every word i != r mixes in its own hash of pool[r]; word r stays.
        mixed = _MIX_MULT_L * pool - _MIX_MULT_R * _hash(pool[r], steps)
        mixed ^= mixed >> 16
        mixed[r] = pool[r]
        pool = mixed
    halves = _hash(pool, _EMIT_STEPS)
    # uint32 half 2k is the low half of uint64 word k, 2k + 1 its high half.
    words = np.empty((len(keys), 8), dtype="<u4")
    words[:] = halves.reshape(8, -1).T
    return words.view("<u8").astype(np.uint64, copy=False)


def _substreams(seed: int, purpose: int, trials: Sequence[int],
                n_channels: int) -> Iterator[np.random.Generator]:
    """Generators of the substreams (seed, purpose, trial, channel), one per
    (channel, trial) key in channel-major order, each in the state
    :func:`rng_stream` gives it.

    One hash pass gives every key's seed words, and one PCG64 generator,
    created here so that no two calls share it, is set to each key's seeded
    state in turn: a generator is valid until the next one is taken.  Calls
    with fewer than ``_MIN_HASHED_KEYS`` keys, or with a key word outside
    [0, 2**32), whose entropy numpy pools differently (or rejects), get
    rng_stream's generators.
    """
    ids = np.asarray(trials) if n_channels * len(trials) >= _MIN_HASHED_KEYS else None
    if (ids is None or ids.dtype.kind not in "iu" or not 0 <= seed <= _MASK32
            or ids.min() < 0 or ids.max() > _MASK32):
        for channel in range(n_channels):
            for trial in trials:
                yield rng_stream(seed, purpose, trial, channel)
        return
    keys = np.empty((n_channels, len(ids), 4), dtype=np.uint32)
    keys[..., 0] = seed
    keys[..., 1] = purpose
    keys[..., 2] = ids
    keys[..., 3] = np.arange(n_channels)[:, None]
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for w0, w1, w2, w3 in _seed_words(keys.reshape(-1, 4)).tolist():
        # PCG64's seeding: inc = 2 * (w2, w3) + 1, then two LCG steps from 0,
        # adding the initial state (w0, w1) between them.
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        state = (((w0 << 64 | w1) + inc) * _PCG_MULT + inc) & _MASK128
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        yield gen


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

    def block(self, i: int) -> np.ndarray:
        return self.blocks[i]

    def scaled(self, factors: Sequence[complex]) -> "MeasurementSet":
        """New set with each block multiplied by its own scalar."""
        if len(factors) != self.n_channels:
            raise DimensionError(
                f"{len(factors)} factors for {self.n_channels} channels"
            )
        return MeasurementSet(tuple(c * b for c, b in zip(factors, self.blocks)))


def simulate(
    channels: Sequence[ChannelModel],
    n_snapshots: int,
    seed: int,
    amplitudes: np.ndarray | None = None,
    trial: int = 0,
) -> MeasurementSet:
    """Synthesize X_l = g_l H_l A + U_l for each channel: one trial's blocks of
    :func:`draw_trials`.

    ``amplitudes`` is the (J x M) mode-amplitude matrix; ``None`` synthesizes
    noise only.  The Monte-Carlo harness reads the same trial through the
    leading draws of the same substreams, so ``detect`` on this data set
    equals the harness's trial ``trial`` to rounding, on every panel.
    """
    if amplitudes is not None:
        amplitudes = as_complex_matrix(amplitudes, "amplitudes")[None]
    draws = draw_trials(channels, n_snapshots, seed, [trial], amplitudes, blocks=True)
    return MeasurementSet(tuple(x[0] for x in draws.blocks))


def _frame(channel: ChannelModel) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal frame Q (N x k) a channel's noise is drawn in, and R = Q^H H.

    It is the channel's basis, so that H = Q R, and R its coupling.  A
    channel without one (rank below J, or fewer samples than modes) takes
    the left singular vectors of H without the rank gate, k = min(N, J):
    their span still holds that of H.
    """
    try:
        return channel.basis, channel.coupling
    except (DimensionError, RankDeficiencyError):
        q = np.linalg.svd(channel.matrix, full_matrices=False)[0]
        return q, q.conj().T @ channel.matrix


class TrialDraws(NamedTuple):
    """T trials of L channels' data, as the statistics the detectors read."""

    coords: list[np.ndarray]  # per channel (T, k_l, M): a_l = Q_l^H X_l
    tails: np.ndarray  # (T, L): ||X_l - Q_l a_l||^2 / M
    blocks: list[np.ndarray] | None  # per channel (T, N_l, M): X_l, when asked for


def draw_trials(
    channels: Sequence[ChannelModel],
    n_snapshots: int,
    seed: int,
    trials: Sequence[int],
    amplitudes: np.ndarray | None = None,
    blocks: bool = False,
) -> TrialDraws:
    """Trial t's X_l = g_l H_l A_t + U_l, drawn as its coordinates and tail and,
    with ``blocks``, as the blocks themselves.

    ``amplitudes`` is the (T, J, M) stack of mode-amplitude matrices; ``None``
    synthesizes noise only.  Noise is circular complex Gaussian with
    per-entry variance sigma_l^2, independent across channels and snapshots.

    White noise keeps its law under any fixed rotation, so each block is
    drawn in its channel's frame [Q_l Q_l^perp] (:func:`_frame`, Q_l of k_l
    = J columns for a channel of full rank).  Its k_l x M coordinates are
    sigma_l W_l, W_l of iid CN(0, 1) entries.  Independently of them, its
    (N_l - k_l) M entries outside Q_l have energy sigma_l^2 gamma_l, gamma_l ~
    Gamma((N_l - k_l) M, 1), and a uniform direction independent of that
    energy.  So a_l = Q_l^H X_l = g_l R_l A_t + sigma_l W_l and the tail is
    sigma_l^2 gamma_l / M, exactly in law and without an N_l x M array.
    The block is X_l = Q_l a_l + sigma_l sqrt(gamma_l) P G_l / ||P G_l||, with
    G_l of iid complex Gaussian entries and P G = G - Q_l Q_l^H G, the
    direction of the complement; the complement is 0 when N_l = k_l.

    Trial t of channel l draws from the (seed, noise, t, l) substream, so a
    trial's data do not depend on the other trials of the stack, in one
    order: gamma_l, then one ``standard_normal`` call.  Its first 2 k_l M
    values are W_l's entries in row-major order, each as its real and then
    its imaginary part, and only with ``blocks`` are the next 2 N_l M the
    entries of G_l, in the same way.  The coordinates and tails are
    therefore the same with or without blocks.
    """
    if n_snapshots < 1:
        raise ConfigError("n_snapshots must be >= 1")
    if not channels:
        raise ConfigError("at least one channel is required")
    m, count = n_snapshots, len(trials)
    if amplitudes is not None:
        amplitudes = as_complex_stack(amplitudes, "amplitudes")
        if amplitudes.shape != (count, channels[0].n_modes, m):
            raise ConfigError(
                f"amplitudes shape {amplitudes.shape[1:]} does not match "
                f"(J={channels[0].n_modes}, M={m})"
            )
    streams = _substreams(seed, _NOISE_STREAM, trials, len(channels))
    gammas = np.empty((len(channels), count))
    coords, stacks = [], []
    for ch, gamma in zip(channels, gammas):
        q, r = _frame(ch)
        n, k = q.shape
        normals = np.empty((count, 2 * (k + (n if blocks else 0)) * m))
        for t, out in enumerate(normals):
            stream = next(streams)
            gamma[t] = stream.standard_gamma((n - k) * m)
            stream.standard_normal(out=out)
        # Consecutive normals are the real and imaginary parts of one entry.
        draws = normals.view(np.complex128)
        a = draws[:, :k * m].reshape(count, k, m) * np.sqrt(ch.noise_variance / 2.0)
        if amplitudes is not None:
            a += ch.gain * (r @ amplitudes)
        coords.append(a)
        if blocks and n == k:
            stacks.append(q @ a)
        elif blocks:
            # Q a + s P G = s G + Q (a - s C), with C = Q^H G, P G = G - Q C and
            # s = sigma sqrt(gamma) / ||P G||, where ||P G||^2 = ||G||^2 - ||C||^2.
            g = draws[:, k * m:].reshape(count, n, m)
            c = q.conj().T @ g
            scale = ch.noise_sigma * np.sqrt(gamma / (energy(g) - energy(c)))
            x = scale[:, None, None] * g
            x += q @ (a - scale[:, None, None] * c)
            stacks.append(x)
    variances = np.array([ch.noise_variance for ch in channels])
    with np.errstate(over="ignore"):  # an overflowing tail fails the summary's energy check
        tails = variances * gammas.T / m
    return TrialDraws(coords, tails, stacks if blocks else None)


def draw_amplitudes(
    n_modes: int, n_snapshots: int, scale: float, seed: int, trial: int = 0
) -> np.ndarray:
    """Draw a (J x M) amplitude matrix with iid CN(0, scale^2) entries."""
    return _amplitude_stack(n_modes, n_snapshots, scale, seed, [trial])[0]


def _complex_normals(normals: np.ndarray, std: float) -> np.ndarray:
    """std * (normals[:, 0] + 1j * normals[:, 1]), bit for bit, built in one
    complex array."""
    out = np.empty(normals[:, 0].shape, dtype=np.complex128)
    out.real = normals[:, 0]
    out.imag = normals[:, 1]
    out *= std
    return out


def _amplitude_stack(n_modes: int, n_snapshots: int, scale: float, seed: int,
                     trials: Sequence[int]) -> np.ndarray:
    """A (T x J x M) stack of amplitude matrices with iid CN(0, scale^2) entries,
    trial t's drawn from its (seed, amplitude, t, 0) substream."""
    normals = np.empty((len(trials), 2, n_modes, n_snapshots))
    for out, stream in zip(normals, _substreams(seed, _AMPLITUDE_STREAM, trials, 1)):
        stream.standard_normal(out=out)
    return _complex_normals(normals, scale / np.sqrt(2.0))


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


def _plain(obj):
    """The JSON-ready Python value of a numpy value or a complex number."""
    if isinstance(obj, np.ndarray | np.generic):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def json_text(obj) -> str:
    """The indented, newline-terminated JSON form of ``obj``, numpy values and
    complex numbers ([re, im]) included."""
    return json.dumps(obj, indent=2, default=_plain) + "\n"


def write_files(directory, files: Mapping[str, str]) -> Path:
    """Create ``directory`` and write each named text into it, in order.

    Each is written under a temporary name and renamed into place, so no
    reader sees a partial file; callers pass the file that lists the others
    (a header or a manifest) last.  Files and directories get the
    permissions ``open`` and ``mkdir`` give under the process umask.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        tmp = root / f"{name}.tmp"
        try:
            with open(tmp, "w") as handle:
                handle.write(text)
            os.replace(tmp, root / name)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    return root


def _measurement_files(measurements: MeasurementSet) -> dict[str, str]:
    """The files of a measurement set: one CSV per channel block, then header.json."""
    files = {f"block_{i:02d}.csv": _format_block(block)
             for i, block in enumerate(measurements.blocks)}
    files[_HEADER_NAME] = json_text({
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "n_snapshots": measurements.n_snapshots,
        "channel_dims": list(measurements.channel_dims),
        "blocks": list(files),
    })
    return files


def save_measurements(measurements: MeasurementSet, directory) -> Path:
    """Write a measurement set as header.json + one CSV per channel block."""
    return write_files(directory, _measurement_files(measurements))


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
