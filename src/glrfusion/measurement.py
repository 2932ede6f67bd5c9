"""Snapshot containers and synthesis; :mod:`formats` holds a data set's file form.

Data for L channels over M snapshots is held as per-channel blocks X_l of
shape (N_l, M).  Synthesis is deterministic given (seed, trial): the noise
and the amplitudes of trial t come from named substreams of its block of
``_BLOCK`` = 2 consecutive trials, floor(t / 2), over all its channels, and
the frames its blocks need from a substream of its own, so concurrent trials
never share random state and a trial's draws never depend on the other
trials of a call.  :func:`rng_stream` defines each substream (seed, purpose,
index): numpy's PCG64DXSM stream of (seed, purpose), jumped ahead ``index``
times.  A call seeds one such generator of its own and, for each key, sets
it back to its seeded state and advances it by the key's jump.  A block
key's draws of each type are taken in one sampler call, and a call keeps the
rows of the trials it asked for.

A trial is drawn in each channel's frame [Q_l Q_l^perp], Q_l an orthonormal
basis of the span of H_l (:func:`draw_trials`): its coordinates a_l = Q_l^H X_l
and the energy of its tail outside Q_l first, which is all the known-coupling
detectors read; then the tail's triangular factor, a scaled complex Bartlett
factor of at most M rows, which with a_l is all the unknown-subspace row
reads; and the block X_l only where it is needed (:func:`simulate`).  White
noise keeps its law under a rotation, so this is exact in law, though not the
same numbers as drawing X_l entry by entry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .channel import ChannelModel
from .errors import ConfigError, DimensionError, RankDeficiencyError
from .linalg import as_complex_matrix, as_complex_stack, energy

# Purpose tags for named random substreams.
_NOISE_STREAM = 0
_AMPLITUDE_STREAM = 1
_FRAME_STREAM = 2
# Trials per noise and amplitude key, part of the streams' definition: trial
# t draws from the key of its block floor(t / _BLOCK).  A key costs about
# three microseconds to reset and jump the call's generator, plus its sampler
# calls, which the trials of its block share, but a call also draws the
# trials of its end blocks that it does not keep.  Four trials a key drew
# twice the normals a two-trial call keeps at N = 128, M = 32, where the
# Bartlett factors' draws dominate; two waste none there and still halve the
# keys of a long run.  Both hold only for calls that start and end on a block
# boundary, as runs of even length at even offsets do: a call that starts or
# ends inside a block also draws the block's other trial, so a two-trial call
# at an odd offset draws twice what it keeps.
_BLOCK = 2

# jumped's step: PCG64DXSM.jumped(i) advances its state i times this, mod 2**128.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835


def rng_stream(seed: int, purpose: int, index: int) -> np.random.Generator:
    """Deterministic generator for the substream (seed, purpose, index): the
    PCG64DXSM stream seeded by SeedSequence((seed, purpose)), jumped ``index``
    times.

    The package draws the substreams (seed, noise, b) and (seed, amplitude,
    b) of each block b = floor(t / ``_BLOCK``) of trial ids, and (seed, frame,
    t) of each trial t: this defines every one of them.  Every word must be
    non-negative, as SeedSequence requires of the seed and the purpose; a
    negative index would wrap around the jump.  A seed of 2**32 or more does
    not get streams of its own: SeedSequence splits it into 32-bit words and
    pads the key to four, so (2**32 + s, noise) pools as (s, amplitude) and
    its noise is seed s's amplitude stream.  The CLI refuses such seeds.
    """
    if min(seed, purpose, index) < 0:
        raise ValueError("expected non-negative integer")
    bitgen = np.random.PCG64DXSM(np.random.SeedSequence((int(seed), int(purpose))))
    return np.random.Generator(bitgen.jumped(int(index)))


def _substreams(seed: int, purpose: int, indices: np.ndarray) -> Iterator[np.random.Generator]:
    """Generators of the substreams (seed, purpose, i), one per entry i of the
    1-D ``indices`` in order, each in the state :func:`rng_stream` gives it.

    One PCG64DXSM generator, created here so that no two calls share it, is
    seeded once and, for each key, set back to its seeded state and advanced
    by the key's jump: a generator is valid until the next one is taken.  A
    negative word raises rng_stream's error.
    """
    if len(indices) and indices.min() < 0:
        raise ValueError("expected non-negative integer")
    bitgen = np.random.PCG64DXSM(np.random.SeedSequence((int(seed), int(purpose))))
    seeded = bitgen.state
    gen = np.random.Generator(bitgen)
    for index in indices.tolist():
        bitgen.state = seeded
        bitgen.advance(int(index) * _JUMP % 2**128)
        yield gen


def _keyed_rows(trials: Sequence[int], per_key: int) -> tuple[np.ndarray, np.ndarray]:
    """The keys floor(t / per_key) of ``trials``, distinct and ascending, and
    each trial's row in a stack of per_key rows per key: its key's position
    times per_key, plus t mod per_key."""
    ids = np.asarray(trials)
    keys, position = np.unique(ids // per_key, return_inverse=True)
    return keys, position.reshape(-1) * per_key + (ids % per_key).astype(np.intp)


def _draw_keys(seed: int, purpose: int, keys: np.ndarray, plan) -> None:
    """Fill the buffers of ``plan`` from the substreams (seed, purpose, key).

    ``plan`` lists (sampler, arguments, buffer), each buffer of one row per
    key: the generator of keys[i] fills row i of every buffer, in the plan's
    order, with one call of the named Generator method.  Empty rows draw
    nothing.
    """
    plan = [(sampler, args, out) for sampler, args, out in plan if out.size]
    if not plan:
        return
    for gen, *rows in zip(_substreams(seed, purpose, keys), *(out for *_, out in plan)):
        for (sampler, args, _), row in zip(plan, rows):
            getattr(gen, sampler)(*args, out=row)


def _rows(buffer: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The trials' rows of a (keys, trials per key, ...) buffer."""
    return buffer.reshape((buffer.shape[0] * buffer.shape[1],) + buffer.shape[2:])[rows]


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
    noise only.  The Monte-Carlo harness reads the same trial's rows of the
    same block draws, without the frames, so ``detect`` on this data set
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
    factors: list[np.ndarray] | None  # per channel (T, r_l, M): T_l, when asked for
    blocks: list[np.ndarray] | None  # per channel (T, N_l, M): X_l, when asked for


@functools.lru_cache(maxsize=None)
def _triangle(rank: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where a rank x M Bartlett factor's draws go in its flat row-major form:
    a mask of the entries above the diagonal, and the indices of the
    diagonal; and where the run of rank - 1 - i exponential draws of
    diagonal entry i < rank - 1 starts, the runs consecutive in order."""
    upper = np.triu(np.ones((rank, m), dtype=bool), 1).ravel()
    runs = np.arange(rank - 1, 0, -1)
    indices = upper, np.arange(rank) * (m + 1), np.cumsum(runs) - runs
    for index in indices:  # shared by every caller
        index.flags.writeable = False
    return indices


def _bartlett(above: np.ndarray, gammas: np.ndarray, exps: np.ndarray, m: int) -> np.ndarray:
    """Complex Bartlett factors (..., r, M) from their draws.

    ``above`` (..., r M - r (r + 1) / 2) holds the entries above the diagonal
    as drawn, each of two standard normals, so CN(0, 2), and scaled here to
    CN(0, 1); ``gammas`` (..., r) holds Gamma(c) draws and ``exps`` (..., r (r
    - 1) / 2) Exp(1) draws: diagonal entry i is the root of gammas[i] plus the
    sum of the next r - 1 - i of them, Gamma(c + r - 1 - i) in all.
    """
    rank = gammas.shape[-1]
    upper, diagonal, starts = _triangle(rank, m)
    factor = np.zeros(gammas.shape[:-1] + (rank * m,), dtype=complex)
    # A contiguous mask of the factor's full shape writes the entries in
    # row-major order, as they were drawn, faster than an index on the last axis.
    factor[np.broadcast_to(upper, factor.shape).copy()] = (above * np.sqrt(0.5)).ravel()
    squares = gammas.copy()
    if rank > 1:
        squares[..., :-1] += np.add.reduceat(exps, starts, axis=-1)
    factor[..., diagonal] = np.sqrt(squares)
    return factor.reshape(gammas.shape[:-1] + (rank, m))


def _complement_frame(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The orthonormal factor V of P g, P = I - Q Q^H, whose R has a positive diagonal.

    It is the Q factor of [Q g] past its first k columns, with each column's
    phase set by R's diagonal: Householder QR keeps it orthogonal to Q to
    rounding however ill-conditioned P g is.  ``q`` (..., N, k) and ``g``
    (..., N, r) may be stacks.
    """
    k = q.shape[-1]
    f, r = np.linalg.qr(np.concatenate([np.broadcast_to(q, g.shape[:-1] + (k,)), g], axis=-1))
    d = np.diagonal(r, axis1=-2, axis2=-1)[..., k:]
    return f[..., k:] * (d / abs(d))[..., None, :]


def draw_trials(
    channels: Sequence[ChannelModel],
    n_snapshots: int,
    seed: int,
    trials: Sequence[int],
    amplitudes: np.ndarray | None = None,
    factors: bool = False,
    blocks: bool = False,
) -> TrialDraws:
    """Trial t's X_l = g_l H_l A_t + U_l, drawn as its coordinates and tail,
    with ``factors`` also as the factor of its tail, and with ``blocks`` as
    the blocks themselves.

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

    The direction is that of an (N_l - k_l) x M matrix G' of iid CN(0, 1)
    entries, G' = U T' with U uniform and independent of its triangular
    factor T', of r_l = min(N_l - k_l, M) rows: a complex Bartlett factor,
    whose entries above the diagonal are CN(0, 1) and whose squared diagonal
    entries are Gamma(N_l - k_l - i, 1), all independent (Bartlett 1933;
    Goodman 1963).  The factor of the tail is T_l = sigma_l sqrt(gamma_l)
    T' / ||T'||, so X_l - Q_l a_l = V_l T_l with V_l orthonormal in the
    complement of Q_l, and [a_l; T_l] has the Gram matrix X_l^H X_l: every
    singular value of the block, without an N_l x M array.  The block is
    X_l = Q_l a_l + V_l T_l, V_l the orthonormal factor of P G_l whose R has
    a positive diagonal (:func:`_complement_frame`), G_l an N_l x r_l matrix
    of iid CN(0, 1) entries and P G = G - Q_l Q_l^H G: V_l is uniform in the
    complement and independent of T'.  The complement is 0 when N_l = k_l.

    Trial t draws from the (seed, noise, floor(t / ``_BLOCK``)) substream of
    its block, the (seed, noise) PCG64DXSM stream jumped floor(t / B) times
    (:func:`rng_stream`).  It draws all B = ``_BLOCK`` trials of the block
    on every channel at once, one call of each draw type per frame shape
    (N_l, k_l), groups in the order of their first channels.
    Each call holds its B trials in order, each trial's channels of the
    group in order, and the types follow in one order, each type's calls
    for every group before the next type's: ``standard_gamma`` calls of the
    gamma_l; ``standard_normal`` calls of W_l's entries in row-major order,
    each as its real and then its imaginary part; and, with factors,
    ``standard_normal`` calls of the entries of T' above its diagonal, in
    the same way, ``standard_gamma`` calls of r_l Gamma(N_l - k_l - r_l + 1)
    draws and ``standard_exponential`` calls of r_l (r_l - 1) / 2 draws
    (:func:`_bartlett`).  A call keeps the rows of the trials it
    asked for, so a trial's data depend on the seed, its id and the
    channels, never on the other trials of the call.  The coordinates and
    tails are the same with or without factors or blocks.  With blocks,
    trial t's G_l come from its (seed, frame, t) substream, the (seed,
    frame) stream jumped t times: one ``standard_normal`` call per frame
    shape with a tail, each holding its channels' N_l x r_l entries in
    row-major order, each as its real and then its imaginary part, so a
    call of one trial never draws a block of frames.
    """
    if n_snapshots < 1:
        raise ConfigError("n_snapshots must be >= 1")
    if not channels:
        raise ConfigError("at least one channel is required")
    m, count = n_snapshots, len(trials)
    factors = factors or blocks
    if amplitudes is not None:
        amplitudes = as_complex_stack(amplitudes, "amplitudes")
        if amplitudes.shape != (count, channels[0].n_modes, m):
            raise ConfigError(
                f"amplitudes shape {amplitudes.shape[1:]} does not match "
                f"(J={channels[0].n_modes}, M={m})"
            )
    frames = [_frame(ch) for ch in channels]
    # Channels of one frame shape draw into one set of buffers and are built together.
    groups: dict[tuple[int, int], list[int]] = {}
    for idx, (q, _) in enumerate(frames):
        groups.setdefault(q.shape, []).append(idx)
    ranks = {(n, k): min(n - k, m) if factors else 0 for n, k in groups}
    keys, rows = _keyed_rows(trials, _BLOCK)

    def draws(n, k):
        """A block's draw types for the channels of frame shape (N, k), in
        stream order: sampler, arguments and draws per trial and channel."""
        r = ranks[n, k]
        return (("standard_gamma", ((n - k) * m,), 1), ("standard_normal", (), 2 * k * m),
                ("standard_normal", (), 2 * (r * m - r * (r + 1) // 2)),
                ("standard_gamma", (n - k - r + 1,), r),
                ("standard_exponential", (), r * (r - 1) // 2))

    # Per group and type, a (keys, B, channels of the group, draws each) buffer.
    plans = {shape: [(sampler, args, np.empty((len(keys), _BLOCK, len(group), size)))
                     for sampler, args, size in draws(*shape)]
             for shape, group in groups.items()}
    _draw_keys(seed, _NOISE_STREAM, keys, [plan for same_type in zip(*plans.values())
                                           for plan in same_type])
    variances = np.array([ch.noise_variance for ch in channels])
    gammas = np.empty((count, len(channels)))
    coords, tail_factors, stacks = ([None] * len(channels) for _ in range(3))
    if blocks:
        frame_keys, frame_rows = _keyed_rows(trials, 1)
        # Per group, a (trials, 1, channels of the group, 2 N r) buffer.
        gauss_of = {(n, k): np.empty((len(frame_keys), 1, len(group), 2 * n * ranks[n, k]))
                    for (n, k), group in groups.items()}
        _draw_keys(seed, _FRAME_STREAM, frame_keys,
                   [("standard_normal", (), gauss) for gauss in gauss_of.values()])
    for (n, k), group in groups.items():
        tail_gammas, normals, above, diagonal, exps = (_rows(out, rows) for *_, out in plans[n, k])
        gammas[:, group] = tail_gammas[..., 0]
        # Consecutive normals are the real and imaginary parts of one entry.
        a = normals.view(np.complex128).reshape(count, len(group), k, m)
        a *= np.sqrt(variances[group] / 2.0)[:, None, None]
        if amplitudes is not None:
            gains = np.array([channels[idx].gain for idx in group])
            # One product per trial for the group's stacked R_l: one product
            # over all trials would round a trial's columns by where they fall
            # in the BLAS kernel's tiles, so by the trials beside it.
            r = np.concatenate([frames[idx][1] for idx in group])
            a += gains[:, None, None] * (r @ amplitudes).reshape(a.shape)
        for pos, idx in enumerate(group):
            coords[idx] = a[:, pos]
        if not factors:
            continue
        factor = _bartlett(above.view(np.complex128), diagonal, exps, m)
        if n > k:
            scale = np.sqrt(variances[group]) * np.sqrt(gammas[:, group] / energy(factor))
            factor *= scale[..., None, None]
        if blocks:
            q = np.stack([frames[idx][0] for idx in group])
            x = q @ a
            if n > k:
                g = _rows(gauss_of[n, k], frame_rows).view(np.complex128)
                x += _complement_frame(q, g.reshape(factor.shape[:2] + (n, -1))) @ factor
        for pos, idx in enumerate(group):
            tail_factors[idx] = factor[:, pos]
            if blocks:
                stacks[idx] = x[:, pos]
    with np.errstate(over="ignore"):  # an overflowing tail fails the summary's energy check
        tails = variances * gammas / m
    return TrialDraws(coords, tails, tail_factors if factors else None,
                      stacks if blocks else None)


def draw_amplitudes(
    n_modes: int, n_snapshots: int, scale: float, seed: int, trial: int = 0
) -> np.ndarray:
    """Draw a (J x M) amplitude matrix with iid CN(0, scale^2) entries: trial
    ``trial``'s matrix of :func:`amplitude_stack`."""
    return amplitude_stack(n_modes, n_snapshots, scale, seed, [trial])[0]


def _complex_normals(normals: np.ndarray, std: float) -> np.ndarray:
    """std * (normals[:, 0] + 1j * normals[:, 1]), bit for bit, built in one
    complex array."""
    out = np.empty(normals[:, 0].shape, dtype=np.complex128)
    out.real = normals[:, 0]
    out.imag = normals[:, 1]
    out *= std
    return out


def amplitude_stack(n_modes: int, n_snapshots: int, scale: float, seed: int,
                    trials: Sequence[int]) -> np.ndarray:
    """A (T x J x M) stack of amplitude matrices with iid CN(0, scale^2) entries.

    Trial t's matrix comes from the (seed, amplitude, floor(t / ``_BLOCK``))
    substream of its block, the (seed, amplitude) PCG64DXSM stream jumped
    floor(t / B) times (:func:`rng_stream`).  Its one ``standard_normal``
    call holds the B = ``_BLOCK`` trials of the block in order, each as the
    J x M real parts and then the J x M imaginary parts of its entries.
    """
    keys, rows = _keyed_rows(trials, _BLOCK)
    normals = np.empty((len(keys), _BLOCK, 2, n_modes, n_snapshots))
    _draw_keys(seed, _AMPLITUDE_STREAM, keys, [("standard_normal", (), normals)])
    return _complex_normals(_rows(normals, rows), scale / np.sqrt(2.0))
