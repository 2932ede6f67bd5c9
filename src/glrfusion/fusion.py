"""Fusion identities: one message per channel, folded over a binary tree.

The known-coupling, known-noise composite decomposes exactly into
per-channel statistics minus one cross-validation term per internal node of
any binary tree over the channels.  A leaf is a channel's message, its
whitened row-1 summary: with H_l = Q_l R_l (see :mod:`detectors`), the J x J
factor F_l = (g_l / sigma_l) R_l and the J x M coordinates
C_l = Q_l^H X_l / sigma_l.

A group of channels carries a compressed state, the J x (J + M) row block
S = [F | C]: a leaf's is [F_l | C_l], and a group's is the first J rows of
the triangular factor of its stacked leaf states.  The rows it drops hold
the group's tail, the part of the stacked coordinates outside the span of
the stacked factors, which the folds inside the group have already counted.
A fold stacks two states, 2J x (J + M), and takes the triangular factor R
by QR.  Split at J, its first J rows are the merged state and ||R22||^2 / M,
formed directly, is the fold's term: the tail the merge adds.  This is the
split row 1 of :mod:`detectors` makes over all channels at once, so the
terms over any tree add up to the panel's raw cross-validation.

Every state has the same shape, so any set of independent folds is one
batched QR.  ``partition_cv`` folds all nodes of one height of its tree in
one call, and ``daisy_chain_fuse`` takes every prefix's cross-validation
from a Hillis-Steele prefix scan of the fold, ceil(log2 L) calls.  Each
then gates every fold's R11 in one batched SVD.

Each call does its per-channel and per-report work in one pass.  One
builder makes the leaves, with one energy check, from constants each
channel keeps: its adjoint basis Q_l^H and its whitened factor F_l, gated
when first built (:class:`~glrfusion.channel.ChannelModel`).  The
channels of one block shape take their coordinates in one batched product.
``channel_message`` runs the builder on one channel, a group of one, and
``partition_cv`` on all its channels and blocks, with no message in
between, so a caller's messages and ``partition_cv``'s leaves are the same
bits.  A tree's walk, its checks and each height's index arrays form a
plan, which ``partition_cv`` keeps for the last tree object it was given
and reuses while the same object comes back.  ``daisy_chain_fuse`` takes
its statistics from one energy pass over the stacked coordinates and checks
its L reports' decompositions in one batched call.  A message set's file
form, and its reader and writer, are in :mod:`formats`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelModel
from .detectors import (ChannelKnowledge, DetectorReport, KnowledgeSpec, NoiseKnowledge,
                        check_channels, check_decomposition)
from .errors import ConfigError, DimensionError, ProtocolError, RankDeficiencyError
from .linalg import as_complex_matrix, energy, orthonormal_basis, require_finite, require_full_rank
from .measurement import MeasurementSet

PartitionTree = int | tuple

_P11 = KnowledgeSpec(ChannelKnowledge.KNOWN_F, NoiseKnowledge.KNOWN)

# Marks a fold on the stack of a tree walk.
_FOLD = object()


def chain_tree(n_channels: int) -> PartitionTree:
    """Left-deep tree: (((0, 1), 2), ...)."""
    tree: PartitionTree = 0
    for k in range(1, _channel_count(n_channels)):
        tree = (tree, k)
    return tree


def balanced_tree(n_channels: int) -> PartitionTree:
    """Recursively halved tree over channels 0..L-1."""

    def build(lo: int, hi: int) -> PartitionTree:
        if hi - lo == 1:
            return lo
        mid = (lo + hi + 1) // 2
        return (build(lo, mid), build(mid, hi))

    return build(0, _channel_count(n_channels))


def _channel_count(n_channels) -> int:
    """A tree builder's channel count as a plain int (ConfigError unless an integer >= 1)."""
    count = _integer(n_channels)
    if count is None:
        raise ConfigError(f"channel count must be an integer, got {n_channels!r}")
    if count < 1:
        raise ConfigError("need at least one channel")
    return count


def _integer(value) -> int | None:
    """``value`` as a plain int if :func:`operator.index` takes it and it is no bool, else None."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _leaves(channels: Sequence[ChannelModel],
            blocks: Sequence[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """The channels' J x J factors F_l and (L, J, M) coordinates C_l on their blocks.

    ``np.concatenate((np.array(factors), coords), axis=-1)`` stacks them into
    the leaves' (L, J, J + M) states [F_l | C_l].  Each factor is the
    channel's cached whitened coupling F_l = (g_l / sigma_l) R_l, which
    raises when its scale fails the gate
    (:attr:`ChannelModel.whitened_coupling`).  The channels of one block
    shape (N_l, M) form a group, as :func:`~glrfusion.measurement.draw_trials`
    groups channels by frame shape, and each group takes its coordinates
    C_l = Q_l^H X_l / sigma_l, from the cached adjoint bases, in one batched
    product and one division.  The coordinates overflow when sigma_l is tiny,
    and their energy when the data are huge; the total energy, checked once,
    catches both (ValueError).  The caller checks the channels and blocks:
    one mode count J, and blocks of N_l rows and M columns.
    """
    factors = [ch.whitened_coupling for ch in channels]
    groups: dict[tuple[int, int], list[int]] = {}
    for idx, x in enumerate(blocks):
        groups.setdefault(x.shape, []).append(idx)
    parts = []
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        for group in groups.values():
            c = (_stack([channels[idx].adjoint_basis for idx in group])
                 @ _stack([blocks[idx] for idx in group]))
            c /= np.array([channels[idx].noise_sigma for idx in group])[:, None, None]
            total += np.vdot(c, c).real
            parts.append(c)
    coords = parts[0]
    if len(parts) > 1:  # the groups' coordinates, back in the channels' order
        coords = np.empty((len(channels), *coords.shape[1:]), dtype=complex)
        for group, c in zip(groups.values(), parts):
            coords[group] = c
    if not math.isfinite(total):
        raise _overflow(coords)
    return factors, coords


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """Arrays of one shape stacked on a new first axis; a lone array as a view, not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _overflow(coords: np.ndarray) -> ValueError:
    """The error for coordinates whose energy is not finite."""
    if np.isfinite(coords).all():
        return ValueError("message coordinate energy overflows float64")
    return ValueError("message coordinates contains non-finite entries")


def _fold(pairs: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge B pairs of groups' states, stacked as (B, 2J, J + M), in one batched QR.

    R, the triangular factor of each stack [S_upper; S_lower], splits at J:
    the merged state is its first J rows [R11 | R12], and the term is
    ||R22||^2 / M, the energy of the stacked coordinates outside the span of
    the stacked factors, formed directly.  Returns (terms (B,), merged).

    The caller applies the rank gate of :func:`~glrfusion.linalg.orthonormal_basis`
    to every fold's R11, whose singular values are those of the stacked factors
    (:func:`_require_full_rank_folds`).  It cannot trip on gated messages except
    by rounding: cond([A; B]) <= max(cond A, cond B), by the mediant inequality on
    lambda_max / lambda_min of A^H A + B^H B.  It is kept as a guard.
    """
    cols = pairs.shape[-1]
    j = cols - m
    rows = min(2 * j, cols)
    # mode="raw" returns the factorisation transposed, with R in the upper
    # triangle of its first rows; the cached mask zeroes the rest, as mode="r"
    # does with np.triu.
    h, _ = np.linalg.qr(pairs, mode="raw")
    r = np.where(_upper_triangle(rows, cols), h.swapaxes(-1, -2)[..., :rows, :], 0)
    return energy(r[..., j:, j:]) / m, r[..., :j, :]


@functools.cache
def _upper_triangle(rows: int, cols: int) -> np.ndarray:
    """The mask of a rows x cols matrix's upper triangle, its diagonal included."""
    return np.triu(np.ones((rows, cols), dtype=bool))


def _require_full_rank_folds(merged: np.ndarray) -> None:
    """The rank gate on every fold's R11, the first J columns of its (B, J, J + M) state."""
    j = merged.shape[-2]
    require_full_rank(np.linalg.svd(merged[..., :j], compute_uv=False), "fused channel")


@dataclass(frozen=True)
class PartitionStep:
    """One binary split: the tail of the two groups' stacked coordinates."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    term: float


@dataclass(frozen=True)
class PartitionResult:
    steps: tuple[PartitionStep, ...]
    raw_total: float
    cross_validation: float  # raw_total / L, matching the known-noise panel


@dataclass(frozen=True)
class _FoldPlan:
    """A checked tree's walk over L leaves, reusable for any leaf states.

    Internal node k is row L + k of the fold's states, in post-order.
    ``nodes`` holds each internal node's left and right leaves, and
    ``levels`` holds, per height less one, the rows of its nodes and the
    (nodes, 2) rows of their left and right children.
    """

    n_leaves: int
    nodes: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    levels: tuple[tuple[np.ndarray, np.ndarray], ...]


# The last tree _fold_tree walked and its plan.  The entry holds the tree, so
# no other object can take its id while the entry lasts; trees are matched
# by identity alone, as hashing or comparing a nested tuple recurses in C.
_last_plan: tuple[PartitionTree, _FoldPlan] | None = None


def _plan_tree(tree: PartitionTree, n: int) -> _FoldPlan:
    """Walk ``tree`` over ``n`` leaves and check it.

    A node is a leaf index (any integer :func:`operator.index` accepts, but
    not a bool) or a pair of nodes, and the leaves are a permutation of
    0..L-1 (ConfigError).  The walk keeps its own stack, as a chain is L
    levels deep; ``_FOLD`` marks a fold.
    """
    leaves: list[int] = []
    nodes: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    levels: list[tuple[list[int], list[tuple[int, int]]]] = []
    groups: list[tuple[int, tuple[int, ...], int]] = []  # (row of states, leaves, height)
    pending: list[PartitionTree | object] = [tree]
    while pending:
        node = pending.pop()
        if node is _FOLD:
            (row_r, leaves_r, height_r), (row_l, leaves_l, height_l) = groups.pop(), groups.pop()
            level = max(height_l, height_r)
            if level == len(levels):
                levels.append(([], []))
            rows, children = levels[level]
            row = n + len(nodes)
            rows.append(row)
            children.append((row_l, row_r))
            nodes.append((leaves_l, leaves_r))
            groups.append((row, leaves_l + leaves_r, level + 1))
        elif isinstance(node, tuple) and len(node) == 2:
            pending += [_FOLD, node[1], node[0]]
        else:
            leaf = _integer(node)
            if leaf is None:
                raise ConfigError(f"malformed partition tree node {node!r}")
            leaves.append(leaf)
            groups.append((leaf, (leaf,), 0))
    leaves.sort()
    if leaves != list(range(n)):
        raise ConfigError(f"tree leaves {leaves} are not a permutation of 0..{n - 1}")
    return _FoldPlan(n, tuple(nodes), tuple((np.array(rows), np.array(children))
                                            for rows, children in levels))


def _fold_tree(states: np.ndarray, tree: PartitionTree) -> list[PartitionStep]:
    """Fold the leaves' (L, J, J + M) states up ``tree``: its internal nodes' steps in post-order.

    The nodes of one height are independent, so each height is one batched
    fold, whose pairs one gather stacks, and one batched SVD gates them all.
    The walk and its checks (:func:`_plan_tree`) run once per tree object:
    the plan of the last tree is kept and reused while the same object, over
    the same number of leaves, comes back.
    """
    global _last_plan
    n = len(states)
    last = _last_plan
    if last is not None and last[0] is tree and last[1].n_leaves == n:
        plan = last[1]
    else:
        plan = _plan_tree(tree, n)
        _last_plan = (tree, plan)
    m = states.shape[-1] - states.shape[-2]
    states = np.concatenate((states, np.empty((len(plan.nodes), *states.shape[1:]),
                                              dtype=complex)))
    terms = np.empty(len(states))  # by row of states; a leaf's is unused
    for rows, children in plan.levels:
        terms[rows], states[rows] = _fold(
            states[children].reshape(len(rows), -1, states.shape[-1]), m)
    if plan.nodes:
        _require_full_rank_folds(states[n:])
    return [PartitionStep(left, right, term)
            for (left, right), term in zip(plan.nodes, terms[n:].tolist())]


def partition_cv(channels: Sequence[ChannelModel], ms: MeasurementSet,
                 tree: PartitionTree) -> PartitionResult:
    """Cross-validation term via recursive binary partitioning.

    Each internal node adds the tail of its two groups' stacked whitened
    coordinates outside the span of their stacked factors; the totals are
    invariant to the tree shape.  The channels' states are built in one
    pass, as :func:`channel_message` builds one channel's, and the nodes of
    one height fold in one batched call.
    """
    check_channels(channels, ms.channel_dims)
    factors, coords = _leaves(channels, ms.blocks)
    steps = _fold_tree(np.concatenate((np.array(factors), coords), axis=-1), tree)
    raw_total = float(sum(s.term for s in steps))
    return PartitionResult(
        steps=tuple(steps),
        raw_total=raw_total,
        cross_validation=raw_total / len(channels),
    )


@dataclass(frozen=True)
class ChannelMessage:
    """What one channel must transmit to be fused into the composite report.

    The channel's whitened row-1 summary: the nonsingular J x J ``factor``
    (g_l / sigma_l) R_l and the J x M ``coordinates`` Q_l^H X_l / sigma_l,
    with H_l = Q_l R_l.  A message built or loaded from outside is checked
    here, and its factor passes the rank gate of
    :func:`~glrfusion.linalg.orthonormal_basis`; :func:`channel_message`
    makes its own cheaper checks and skips these.
    """

    factor: np.ndarray
    coordinates: np.ndarray

    def __post_init__(self):
        factor = as_complex_matrix(self.factor, "message factor")
        coords = as_complex_matrix(self.coordinates, "message coordinates")
        j, m = coords.shape
        if j == 0 or m == 0:
            raise DimensionError(f"message coordinates are empty: (J, M) = {coords.shape}")
        if factor.shape != (j, j):
            raise DimensionError(f"message factor shape {factor.shape} does not match J={j}")
        orthonormal_basis(factor, "message factor")
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "coordinates", coords)

    @classmethod
    def _unchecked(cls, factor: np.ndarray, coordinates: np.ndarray) -> ChannelMessage:
        """A message of complex128 arrays the caller has checked, built without checks.

        :func:`channel_message` passes the leaf it has built and gated.
        """
        msg = object.__new__(cls)
        object.__setattr__(msg, "factor", factor)
        object.__setattr__(msg, "coordinates", coordinates)
        return msg

    @property
    def statistic(self) -> float:
        """The channel's known-noise statistic ||C_l||^2 / M."""
        return float(energy(self.coordinates)) / self.n_snapshots

    @property
    def n_snapshots(self) -> int:
        return self.coordinates.shape[1]


def channel_message(channel: ChannelModel, x_block, n_snapshots: int) -> ChannelMessage:
    """Build the fusion message for one channel from its local data.

    The data must be a finite N_l x ``n_snapshots`` matrix.  The message's
    factor and coordinates are the channel's leaf, built and gated as
    :func:`partition_cv` builds every channel's leaf; its factor is the
    channel's read-only :attr:`~glrfusion.channel.ChannelModel.whitened_coupling`.
    The block is not scanned for non-finite entries up front: they make the
    leaf's energy non-finite, and only when the leaf fails is the block
    checked, so a non-finite block raises ValueError after the shape checks
    and before the leaf's own errors.
    """
    x = as_complex_matrix(x_block, "channel data", finite=False)
    if x.shape[0] != channel.n_samples:
        raise DimensionError(f"channel expects {channel.n_samples} samples, "
                             f"data block has {x.shape[0]}")
    if x.shape[1] != n_snapshots:
        raise DimensionError(f"channel data has {x.shape[1]} columns "
                             f"for n_snapshots={n_snapshots}")
    if n_snapshots == 0:
        raise DimensionError(f"message coordinates are empty: (J, M) = ({channel.n_modes}, 0)")
    try:
        factors, coords = _leaves([channel], [x])
    except (ValueError, RankDeficiencyError):
        require_finite(x, "channel data")
        raise
    return ChannelMessage._unchecked(factors[0], coords[0])


def _prefix_cvs(states: np.ndarray, m: int) -> np.ndarray:
    """The raw cross-validation of every prefix of the chain, by a prefix scan of the fold.

    A Hillis-Steele scan over the (L, J, J + M) ``states``, which it
    overwrites: after the round of shift d, entry k holds the state of
    channels max(0, k - 2d + 1) .. k and the sum of the fold terms inside
    it.  The round folds every entry k >= d with entry k - d in one batched
    call, so ceil(log2 L) calls leave entry k holding prefix 0..k.
    """
    n = len(states)
    raw = np.zeros(n)
    folded = []
    shift = 1
    while shift < n:
        terms, merged = _fold(np.concatenate((states[:-shift], states[shift:]), axis=-2), m)
        raw[shift:] = raw[:-shift] + raw[shift:] + terms
        states[shift:] = merged
        folded.append(merged)
        shift *= 2
    if folded:
        _require_full_rank_folds(np.concatenate(folded))
    return raw


def daisy_chain_fuse(messages: Sequence[ChannelMessage]) -> list[DetectorReport]:
    """Fold channel messages into running composite reports, one per prefix.

    The k-th returned report equals the known-coupling, known-noise detector
    evaluated on the pooled data of the first k channels.  Its raw
    cross-validation is the tail of the first k channels' stacked states,
    from a prefix scan of the fold: ceil(log2 L) batched QR calls, each
    prefix's value a sum of directly formed fold terms.  The statistics come
    from one energy pass over the stacked coordinates, and the L reports'
    decompositions are checked in one batch.  Raises ProtocolError for an
    empty sequence, an entry that is not a :class:`ChannelMessage`, or
    messages of different shapes (J, M), and ValueError when the energy of
    a message's coordinates overflows.
    """
    msgs = list(messages)
    if not msgs:
        raise ProtocolError("no messages to fuse")
    for idx, msg in enumerate(msgs):
        if not isinstance(msg, ChannelMessage):
            raise ProtocolError(f"message {idx} is a {type(msg).__name__}, "
                                f"not a ChannelMessage")
        if msg.coordinates.shape != msgs[0].coordinates.shape:
            raise ProtocolError(f"message {idx} carries (J, M) = {msg.coordinates.shape}, "
                                f"message 0 carries {msgs[0].coordinates.shape}")
    coords = np.array([msg.coordinates for msg in msgs])
    n, m = len(msgs), coords.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        stats = energy(coords) / m
    if not math.isfinite(stats.max()):  # energies are not negative: any inf or nan shows
        raise _overflow(coords)
    counts = np.arange(1, n + 1)
    states = np.concatenate((np.array([msg.factor for msg in msgs]), coords), axis=-1)
    cvs = _prefix_cvs(states, m) / counts
    composites = np.cumsum(stats) / counts - cvs
    # Report k's weights and statistics, zero-padded to L: row k - 1 of each.
    prefix = counts[:, None] >= counts
    alphas, per_channel = prefix / counts[:, None], prefix * stats
    check_decomposition(composites, alphas, per_channel, cvs)
    return [DetectorReport._unchecked(composite, alphas[k, :k + 1], per_channel[k, :k + 1],
                                      cv, _P11)
            for k, (composite, cv) in enumerate(zip(composites.tolist(), cvs.tolist()))]
