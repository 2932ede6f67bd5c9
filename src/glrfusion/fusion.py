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
A fold stacks two states.  The first J Householder reflectors of the stack
come from its factor columns alone, so with the complete QR
[F_a; F_b] = U [R11; 0] the fold is [R12; Y] = U^H [C_a; C_b]: the merged
state is [R11 | R12], and ||Y||^2 / M, formed directly, is the fold's term,
the tail the merge adds.  This is the split row 1 of :mod:`detectors` makes
over all channels at once, so the terms over any tree add up to the panel's
raw cross-validation.

A walk is a plan of rounds of independent folds: ``partition_cv`` folds
all nodes of one height of its tree in one round, and ``daisy_chain_fuse``
takes every prefix's cross-validation from a Hillis-Steele prefix scan of
the fold, ceil(log2 L) rounds.  Every merged factor R11, and so every
round's stack of adjoints U^H, depends only on the walk and the leaves'
factors, which stay fixed while the data stream.  So the factors are folded
once per channel set, one batched QR per round, and every R11 is gated in
one batched SVD; each entry point keeps these constants for the last
channel set it saw, keyed by the value of its stacked factors and by its
walk.  Per data set a round is then one batched product of the adjoints
with the stacked coordinates, and the rank gate runs on the kept singular
values.

Per data set a call does only the work that depends on the data; whatever
depends on the channels, the walk or the channel count alone is kept.  A
leaf reads constants each channel keeps: its adjoint basis Q_l^H and its
whitened factor F_l, gated when first built
(:class:`~glrfusion.channel.ChannelModel`).  ``partition_cv`` keeps, for
the last channel set it saw, matched by the identity of each channel, their
stack per block shape (adjoint bases, noise sigmas, indices) and the stack
of their factors, which it hands to the fold as they are; each block shape
takes its coordinates in one batched product.  ``channel_message`` forms
its one leaf with the same product on a batch of one, so a caller's
messages and ``partition_cv``'s leaves are the same bits.  A fold's states
sit in the slots of one buffer, the leaves' first and then each fold's two
output blocks [R12; Y], so a round gathers its input slot pairs, writes its
product straight into its own run of slots, and every term is the energy
of one Y slot.  A tree's walk, its checks and each round's slot pairs form
a plan, which ``partition_cv`` keeps for the last tree object it was given
and reuses while the same object comes back; the daisy chain's plan, its
prefix counts and its report weights are kept per channel count.
``daisy_chain_fuse`` takes its statistics from one energy pass over the
stacked coordinates and checks its L reports' decompositions in one
batched call.  A message set's file form, and its reader and writer, are in
:mod:`formats`.
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


@dataclass(frozen=True)
class _LeafBases:
    """The constants of one channel set's leaves: whatever they read that is not data.

    ``channels`` is the set, matched by the identity of each channel; the
    entry holds them, so no other object can take one of their ids while it
    lasts.  ``factors`` is the read-only (L, J, J) stack of the channels'
    whitened factors F_l.  ``groups`` holds one entry per block shape, in the
    order the shapes first appear: the (G,) indices of its channels, their
    stacked (G, J, N) adjoint bases Q_l^H and their (G, 1, 1) noise sigmas.
    """

    channels: tuple[ChannelModel, ...]
    factors: np.ndarray
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


# The leaf constants of the last channel set partition_cv fused; a set with a
# channel whose factor fails its gate is not kept.
_last_leaf_bases: _LeafBases | None = None


def _leaf_bases(channels: Sequence[ChannelModel]) -> _LeafBases:
    """The leaf constants of ``channels``, stacked from the constants each channel caches.

    Each factor is the channel's whitened coupling F_l = (g_l / sigma_l) R_l,
    which raises when its scale fails the gate
    (:attr:`ChannelModel.whitened_coupling`), so a set that fails is never
    kept.  The channels of one sample count N_l form a group: once the caller
    has checked the blocks against the channels, their blocks share one
    shape (N_l, M), as :func:`~glrfusion.measurement.draw_trials` groups
    channels by frame shape.
    """
    factors = np.array([ch.whitened_coupling for ch in channels])
    factors.flags.writeable = False
    groups: dict[int, list[int]] = {}
    for idx, ch in enumerate(channels):
        groups.setdefault(ch.n_samples, []).append(idx)
    return _LeafBases(tuple(channels), factors, tuple(
        (np.array(group), np.array([channels[idx].adjoint_basis for idx in group]),
         np.array([channels[idx].noise_sigma for idx in group])[:, None, None])
        for group in groups.values()))


def _leaves(channels: Sequence[ChannelModel],
            blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The channels' (L, J, J) factors F_l and (L, J, M) coordinates C_l on their blocks.

    ``np.concatenate((factors, coords), axis=-1)`` stacks them into the
    leaves' (L, J, J + M) states [F_l | C_l].  The factors and every other
    constant come from :func:`_leaf_bases`, kept for the last channel set
    and rebuilt when another set comes; the factors are its read-only stack.
    Each group of one block shape takes its coordinates
    C_l = Q_l^H X_l / sigma_l in one batched product and one division.  The
    coordinates overflow when sigma_l is tiny, and their energy when the
    data are huge; the total energy, checked once, catches both
    (ValueError).  The caller checks the channels and blocks: one mode count
    J, and blocks of N_l rows and M columns.
    """
    global _last_leaf_bases
    bases = _last_leaf_bases
    if (bases is None or len(bases.channels) != len(channels)
            or not all(map(operator.is_, bases.channels, channels))):
        bases = _last_leaf_bases = _leaf_bases(channels)
    parts = []
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        for group, adjoints, sigmas in bases.groups:
            c = adjoints @ np.array([blocks[idx] for idx in group.tolist()])
            c /= sigmas
            total += np.vdot(c, c).real
            parts.append(c)
    coords = parts[0]
    if len(parts) > 1:  # the groups' coordinates, back in the channels' order
        coords = np.empty((len(channels), *coords.shape[1:]), dtype=complex)
        for (group, _, _), c in zip(bases.groups, parts):
            coords[group] = c
    if not math.isfinite(total):
        raise _overflow(coords)
    return bases.factors, coords


def _overflow(coords: np.ndarray) -> ValueError:
    """The error for coordinates whose energy is not finite."""
    if np.isfinite(coords).all():
        return ValueError("message coordinate energy overflows float64")
    return ValueError("message coordinates contains non-finite entries")


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


def _unchecked(cls, **fields):
    """The frozen dataclass ``cls`` holding ``fields``, built without its ``__init__``.

    For values the caller has formed and checked itself, as
    ``DetectorReport._unchecked`` builds reports.
    """
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


@dataclass(frozen=True)
class _FoldPlan:
    """Rounds of independent folds over L leaves, reusable for any leaf states.

    The states sit in the slots of one buffer: the leaves' in slots
    0..L-1, and fold f writes the merged group's block into slot L + 2f
    (R11 when the factors fold, R12 when the coordinates do) and the
    coordinates' dropped rows Y into slot L + 2f + 1.  ``levels`` holds one
    entry per round: the (folds, 2) slots of each fold's upper and lower
    group, all read before any is written, and the span of its folds among
    the plan's ``n_folds``, in round order, so a round writes one contiguous
    run of slots.  A tree's
    plan has one round per height less one; ``nodes`` holds each internal
    node's left and right leaves, in post-order, and ``node_folds`` the
    fold of each.  The daisy chain's prefix scan (:func:`_scan_plan`) has no
    nodes, and ``prefix_slots`` holds the slot of each prefix's state.
    """

    n_leaves: int
    n_folds: int
    levels: tuple[tuple[np.ndarray, slice], ...]
    nodes: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()
    node_folds: np.ndarray | None = None
    prefix_slots: np.ndarray | None = None

    @classmethod
    def of_rounds(cls, n_leaves: int, rounds: list[np.ndarray], **walk) -> _FoldPlan:
        """The plan of ``rounds``, each its (folds, 2) input slots, with their spans."""
        levels, start = [], 0
        for slots in rounds:
            levels.append((slots, slice(start, start + len(slots))))
            start += len(slots)
        return cls(n_leaves, start, tuple(levels), **walk)

    @property
    def n_slots(self) -> int:
        return self.n_leaves + 2 * self.n_folds


@dataclass(frozen=True)
class _FoldBases:
    """The constants of one plan's folds over one channel set.

    Keyed by the plan and by the shape and bytes of the leaves' stacked
    (L, J, J) factors: a message set's, stacked per call, or the kept
    read-only stack of :class:`_LeafBases`.  ``adjoints`` holds, per round,
    the (folds, 2J, 2J) adjoints U^H of the complete QRs
    [F_a; F_b] = U [R11; 0] of the round's stacked factors, and
    ``singular_values`` the (folds, J) singular values of every fold's R11,
    which the rank gate reads.
    """

    plan: _FoldPlan
    shape: tuple[int, ...]
    key: bytes
    adjoints: tuple[np.ndarray, ...]
    singular_values: np.ndarray


# The last tree _fold_tree walked and its plan.  The entry holds the tree, so
# no other object can take its id while the entry lasts; trees are matched
# by identity alone, as hashing or comparing a nested tuple recurses in C.
_last_plan: tuple[PartitionTree, _FoldPlan] | None = None

# The fold constants of the last channel set each entry point fused; a set
# whose folds fail the rank gate is not kept.
_last_tree_bases: _FoldBases | None = None
_last_chain_bases: _FoldBases | None = None


def _plan_tree(tree: PartitionTree, n: int) -> _FoldPlan:
    """Walk ``tree`` over ``n`` leaves and check it.

    A node is a leaf index (any integer :func:`operator.index` accepts, but
    not a bool) or a pair of nodes, and the leaves are a permutation of
    0..L-1 (ConfigError).  The walk keeps its own stack, as a chain is L
    levels deep; ``_FOLD`` marks a fold.  It names a group by its leaf or,
    for internal node k, by L + k; once the folds are numbered round by
    round, node k's state is in slot L + 2 fold(k).
    """
    leaves: list[int] = []
    nodes: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    levels: list[list[tuple[int, int, int]]] = []  # per height: (node, left group, right group)
    groups: list[tuple[int, tuple[int, ...], int]] = []  # (group, leaves, height)
    pending: list[PartitionTree | object] = [tree]
    while pending:
        node = pending.pop()
        if node is _FOLD:
            (group_r, leaves_r, height_r), (group_l, leaves_l, height_l) = (groups.pop(),
                                                                            groups.pop())
            level = max(height_l, height_r)
            if level == len(levels):
                levels.append([])
            levels[level].append((len(nodes), group_l, group_r))
            groups.append((n + len(nodes), leaves_l + leaves_r, level + 1))
            nodes.append((leaves_l, leaves_r))
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
    folds = [k for level in levels for k, _, _ in level]  # the nodes in fold order
    node_folds = np.empty(len(nodes), dtype=np.intp)
    node_folds[folds] = np.arange(len(nodes))

    def slot(group: int) -> int:
        return group if group < n else n + 2 * int(node_folds[group - n])

    return _FoldPlan.of_rounds(
        n, [np.array([(slot(left), slot(right)) for _, left, right in level]) for level in levels],
        nodes=tuple(nodes), node_folds=node_folds)


@functools.lru_cache(maxsize=8)
def _scan_plan(n: int) -> _FoldPlan:
    """The Hillis-Steele prefix scan over ``n`` leaves as a plan.

    The round of shift d folds entry k - d onto entry k for every k >= d, so
    after it entry k holds the state of channels max(0, k - 2d + 1) .. k,
    whose tail is the sum of the fold terms inside them, and ceil(log2 L)
    rounds leave entry k holding prefix 0..k.
    """
    where = list(range(n))  # the slot of each entry's state
    rounds = []
    folds, shift = 0, 1
    while shift < n:
        rounds.append(np.array([(where[k - shift], where[k]) for k in range(shift, n)]))
        where[shift:] = range(n + 2 * folds, n + 2 * (folds + n - shift), 2)
        folds += n - shift
        shift *= 2
    return _FoldPlan.of_rounds(n, rounds, prefix_slots=np.array(where))


def _fold_bases(plan: _FoldPlan, factors: np.ndarray) -> _FoldBases:
    """Fold the leaves' stacked (L, J, J) ``factors`` over ``plan``: its constants.

    Each round is one batched complete QR of its (folds, 2J, J) stacked
    factors, whose R11, written to slot L + 2f of each fold f, is the merged
    factor the next rounds read, and one batched SVD takes the singular
    values of every R11.  On gated factors the gate cannot trip except by
    rounding: cond([A; B]) <= max(cond A, cond B), by the mediant inequality
    on lambda_max / lambda_min of A^H A + B^H B.  It is kept as a guard.
    """
    n, j = factors.shape[:2]
    slots = np.empty((plan.n_slots, j, j), dtype=complex)
    slots[:n] = factors
    adjoints, merged = [], []
    for pairs, span in plan.levels:
        q, r = np.linalg.qr(slots[pairs].reshape(len(pairs), 2 * j, j), mode="complete")
        slots[n::2][span] = r11 = r[:, :j]
        merged.append(r11)
        adjoints.append(np.ascontiguousarray(q.conj().swapaxes(-1, -2)))
    s = (np.linalg.svd(np.concatenate(merged), compute_uv=False) if merged
         else np.empty((0, j)))
    return _FoldBases(plan, factors.shape, factors.tobytes(), tuple(adjoints), s)


def _fold(plan: _FoldPlan, factors: np.ndarray, coords: np.ndarray,
          last: _FoldBases | None) -> tuple[_FoldBases, np.ndarray]:
    """Fold the leaves' (L, J, M) ``coords`` over ``plan``: the bases used and every fold's term.

    ``last`` is the entry point's kept constants, used while they were built
    for ``plan`` from factors of the same shape and bytes and rebuilt
    (:func:`_fold_bases`) otherwise.  The rank gate of
    :func:`~glrfusion.linalg.orthonormal_basis` runs on their singular values
    on every call (RankDeficiencyError).  Each round gathers its slot pairs
    and takes one batched product [R12; Y] = U^H [C_a; C_b] with its
    (folds, 2J, 2J) adjoints, straight into its run of slots: R12 is the
    merged coordinates, and ||Y||^2 / M, formed directly, is the fold's
    term.  The (n_folds,) terms, in round order, come from one energy pass
    over the Y slots.
    """
    bases = last
    if (bases is None or bases.plan is not plan or bases.shape != factors.shape
            or bases.key != factors.tobytes()):
        bases = _fold_bases(plan, factors)
    require_full_rank(bases.singular_values, "fused channel")
    n, j, m = coords.shape
    slots = np.empty((plan.n_slots, j, m), dtype=complex)
    slots[:n] = coords
    folded = slots[n:].reshape(plan.n_folds, 2 * j, m)
    for (pairs, span), adjoint in zip(plan.levels, bases.adjoints):
        np.matmul(adjoint, slots[pairs].reshape(len(pairs), 2 * j, m), out=folded[span])
    return bases, energy(folded[:, j:]) / m


def _fold_tree(factors: np.ndarray, coords: np.ndarray,
               tree: PartitionTree) -> list[PartitionStep]:
    """Fold the leaves' (L, J, J) factors and (L, J, M) coordinates up ``tree``: its steps.

    The steps are the internal nodes', in post-order.  The nodes of one
    height are independent, so each height is one round of :func:`_fold`.
    The walk and its checks (:func:`_plan_tree`) run once per tree object:
    the plan of the last tree is kept and reused while the same object, over
    the same number of leaves, comes back, and so are the fold constants
    while the leaves' factors keep their values.
    """
    global _last_plan, _last_tree_bases
    n = len(coords)
    last = _last_plan
    if last is not None and last[0] is tree and last[1].n_leaves == n:
        plan = last[1]
    else:
        plan = _plan_tree(tree, n)
        _last_plan = (tree, plan)
    _last_tree_bases, terms = _fold(plan, factors, coords, _last_tree_bases)
    return [_unchecked(PartitionStep, left=left, right=right, term=term)
            for (left, right), term in zip(plan.nodes, terms[plan.node_folds].tolist())]


def partition_cv(channels: Sequence[ChannelModel], ms: MeasurementSet,
                 tree: PartitionTree) -> PartitionResult:
    """Cross-validation term via recursive binary partitioning.

    Each internal node adds the tail of its two groups' stacked whitened
    coordinates outside the span of their stacked factors; the totals are
    invariant to the tree shape.  The channels' states are built in one
    pass, as :func:`channel_message` builds one channel's, from leaf
    constants kept for the last channel set, and the nodes of one height
    fold in one batched product, through constants kept for the last tree
    object and channel factors.
    """
    check_channels(channels, ms.channel_dims)
    steps = _fold_tree(*_leaves(channels, ms.blocks), tree)
    raw_total = float(sum(s.term for s in steps))
    return _unchecked(PartitionResult, steps=tuple(steps), raw_total=raw_total,
                      cross_validation=raw_total / len(channels))


@dataclass(frozen=True)
class ChannelMessage:
    """What one channel must transmit to be fused into the composite report.

    The channel's whitened row-1 summary: the nonsingular J x J ``factor``
    (g_l / sigma_l) R_l and the J x M ``coordinates`` Q_l^H X_l / sigma_l,
    with H_l = Q_l R_l, both read-only.  A message built or loaded from
    outside is checked here and holds copies of the caller's arrays, so
    changing them later cannot reach it; its factor passes the rank gate of
    :func:`~glrfusion.linalg.orthonormal_basis`.  :func:`channel_message`
    makes its own cheaper checks and skips these.
    """

    factor: np.ndarray
    coordinates: np.ndarray

    def __post_init__(self):
        factor = _read_only_copy(as_complex_matrix(self.factor, "message factor"))
        coords = _read_only_copy(as_complex_matrix(self.coordinates, "message coordinates"))
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
        return _unchecked(cls, factor=factor, coordinates=coordinates)

    @property
    def statistic(self) -> float:
        """The channel's known-noise statistic ||C_l||^2 / M."""
        return float(energy(self.coordinates)) / self.n_snapshots

    @property
    def n_snapshots(self) -> int:
        return self.coordinates.shape[1]


def _read_only_copy(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a``."""
    a = a.copy()
    a.flags.writeable = False
    return a


def channel_message(channel: ChannelModel, x_block, n_snapshots: int) -> ChannelMessage:
    """Build the fusion message for one channel from its local data.

    The data must be a finite N_l x ``n_snapshots`` matrix.  The message's
    factor is the channel's read-only
    :attr:`~glrfusion.channel.ChannelModel.whitened_coupling`, and its
    coordinates, marked read-only, come from the channel's cached adjoint
    basis in one (1, J, N) @ (1, N, M) product and one division by sigma,
    the kernels :func:`partition_cv`'s leaves use, so the two are the same
    bits; one energy catches an overflow, as there.  The block is not
    scanned for non-finite entries up front: they make the leaf's energy
    non-finite, and only when the leaf fails is the block checked, so a
    non-finite block raises ValueError after the shape checks and before the
    leaf's own errors.
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
        factor = channel.whitened_coupling
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
            coords = channel.adjoint_basis[None] @ x[None]
            coords /= channel.noise_sigma
            if not math.isfinite(np.vdot(coords, coords).real):
                raise _overflow(coords)
    except (ValueError, RankDeficiencyError):
        require_finite(x, "channel data")
        raise
    coords = coords[0]
    coords.flags.writeable = False
    return ChannelMessage._unchecked(factor, coords)


@functools.lru_cache(maxsize=8)
def _prefix_weights(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The daisy chain's bookkeeping over ``n`` channels, read-only.

    Each prefix's channel count k, and the (L, L) mask and weights of
    report k, zero-padded to L, in row k - 1: 1 and 1/k on its first k
    entries.
    """
    counts = np.arange(1, n + 1)
    prefix = counts[:, None] >= counts
    weights = prefix / counts[:, None]
    for a in (counts, prefix, weights):
        a.flags.writeable = False
    return counts, prefix, weights


def daisy_chain_fuse(messages: Sequence[ChannelMessage]) -> list[DetectorReport]:
    """Fold channel messages into running composite reports, one per prefix.

    The k-th returned report equals the known-coupling, known-noise detector
    evaluated on the pooled data of the first k channels.  Its raw
    cross-validation is the tail of the first k channels' stacked states,
    from a prefix scan of the fold (:func:`_scan_plan`): ceil(log2 L) rounds
    of one batched product, through constants kept for the last message
    factors, each prefix's value a sum of directly formed fold terms.  The
    statistics come from one energy pass over the stacked coordinates, and
    the L reports' decompositions are checked in one batch; each report's
    arrays are rows of matrices made for the call.  Raises ProtocolError
    for an empty sequence, an entry that is not a :class:`ChannelMessage`,
    or messages of different shapes (J, M), and ValueError when the energy
    of a message's coordinates overflows.
    """
    global _last_chain_bases
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
    plan = _scan_plan(n)
    _last_chain_bases, terms = _fold(plan, np.array([msg.factor for msg in msgs]), coords,
                                     _last_chain_bases)
    by_slot = np.zeros(plan.n_slots)  # each group's raw cross-validation; a leaf's is 0
    for pairs, span in plan.levels:
        by_slot[n::2][span] = by_slot[pairs[:, 0]] + by_slot[pairs[:, 1]] + terms[span]
    counts, prefix, weights = _prefix_weights(n)
    cvs = by_slot[plan.prefix_slots] / counts
    composites = np.cumsum(stats) / counts - cvs
    alphas, per_channel = weights.copy(), prefix * stats
    check_decomposition(composites, alphas, per_channel, cvs)
    return [DetectorReport._unchecked(composite, alphas[k, :k + 1], per_channel[k, :k + 1],
                                      cv, _P11)
            for k, (composite, cv) in enumerate(zip(composites.tolist(), cvs.tolist()))]
