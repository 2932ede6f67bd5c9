"""Fusion identities: one message per channel, folded over a binary tree.

The known-coupling, known-noise composite decomposes exactly into
per-channel statistics minus one cross-validation term per internal node of
any binary tree over the channels.  A leaf is a channel's message, its
whitened row-1 summary: with H_l = Q_l R_l (see :mod:`detectors`), the J x J
factor F_l = (g_l / sigma_l) R_l and the J x M coordinates
C_l = Q_l^H X_l / sigma_l.  A node stacks its children's factors F and
coordinates C and takes an orthonormal basis Q of the span of F.  Its term
is the tail ||C - Q Q^H C||^2 / M of the stacked coordinates, formed
directly, and the merged group is (Q^H F, Q^H C).  This is the split row 1
of :mod:`detectors` makes over all channels at once, so the terms over any
tree add up to the panel's raw cross-validation.  ``partition_cv`` folds
over any tree and ``daisy_chain_fuse`` over the left-deep chain, one channel
per link.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Sequence

import numpy as np

from .channel import ChannelModel, require_same_dims
from .detectors import (ChannelKnowledge, DetectorReport, KnowledgeSpec, NoiseKnowledge,
                        _coordinates)
from .errors import ConfigError, DimensionError, ProtocolError
from .linalg import as_complex_matrix, energy, orthonormal_basis
from .measurement import (_HEADER_NAME, MeasurementSet, _format_block, _parse_block,
                          _read_header, _require_type, json_text, write_files)

PartitionTree = int | tuple

_P11 = KnowledgeSpec(ChannelKnowledge.KNOWN_F, NoiseKnowledge.KNOWN)

_MESSAGE_FORMAT = "glrfusion-messages"
_MESSAGE_VERSION = 2
# What each entry of a message file's header holds, with its declared type.
_MESSAGE_ENTRY = {"factor": str, "coordinates": str, "n_modes": int, "n_snapshots": int}


def chain_tree(n_channels: int) -> PartitionTree:
    """Left-deep tree: (((0, 1), 2), ...)."""
    if n_channels < 1:
        raise ConfigError("need at least one channel")
    tree: PartitionTree = 0
    for k in range(1, n_channels):
        tree = (tree, k)
    return tree


def balanced_tree(n_channels: int) -> PartitionTree:
    """Recursively halved tree over channels 0..L-1."""

    def build(lo: int, hi: int) -> PartitionTree:
        if hi - lo == 1:
            return lo
        mid = (lo + hi + 1) // 2
        return (build(lo, mid), build(mid, hi))

    if n_channels < 1:
        raise ConfigError("need at least one channel")
    return build(0, n_channels)


def tree_leaves(tree: PartitionTree) -> tuple[int, ...]:
    """The leaves of ``tree`` from left to right, walked with an explicit stack."""
    leaves: list[int] = []
    pending: list[PartitionTree] = [tree]
    while pending:
        node = pending.pop()
        if isinstance(node, int) and not isinstance(node, bool):
            leaves.append(node)
        elif isinstance(node, tuple) and len(node) == 2:
            pending += [node[1], node[0]]
        else:
            raise ConfigError(f"malformed partition tree node {node!r}")
    return tuple(leaves)


def _fold(left: tuple[np.ndarray, np.ndarray], right: tuple[np.ndarray, np.ndarray], m: int):
    """Merge two groups' whitened (factor, coordinates).

    Returns (term, (Q^H F, Q^H C)): F and C stack the groups' factors and
    coordinates, Q is an orthonormal basis of the span of F, and the term is
    the tail ||C - Q Q^H C||^2 / M.
    """
    f = np.vstack((left[0], right[0]))
    q = orthonormal_basis(f, "fused channel")
    coords, tail = _coordinates(q, np.vstack((left[1], right[1])), m)
    return float(tail), (q.conj().T @ f, coords)


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


def _fold_tree(messages: Sequence[ChannelMessage], tree: PartitionTree) -> list[PartitionStep]:
    """Fold the leaves' messages up ``tree``, one step per internal node in post-order.

    The walk keeps its own stack, as a chain is L levels deep; ``None`` marks a fold.
    """
    m = messages[0].n_snapshots
    steps: list[PartitionStep] = []
    groups: list[tuple[tuple[int, ...], tuple[np.ndarray, np.ndarray]]] = []
    pending: list[PartitionTree | None] = [tree]
    while pending:
        node = pending.pop()
        if isinstance(node, int):
            groups.append(((node,), (messages[node].factor, messages[node].coordinates)))
        elif node is not None:
            pending += [None, node[1], node[0]]
        else:
            (leaves_r, right), (leaves_l, left) = groups.pop(), groups.pop()
            term, merged = _fold(left, right, m)
            steps.append(PartitionStep(leaves_l, leaves_r, term))
            groups.append((leaves_l + leaves_r, merged))
    return steps


def partition_cv(channels: Sequence[ChannelModel], ms: MeasurementSet,
                 tree: PartitionTree) -> PartitionResult:
    """Cross-validation term via recursive binary partitioning.

    Each internal node adds the tail of its two groups' stacked whitened
    coordinates outside the span of their stacked factors; the totals are
    invariant to the tree shape.
    """
    require_same_dims(channels, ms.channel_dims)
    leaves = sorted(tree_leaves(tree))
    if leaves != list(range(len(channels))):
        raise ConfigError(f"tree leaves {leaves} are not a permutation of 0..{len(channels) - 1}")
    messages = [channel_message(ch, ms.block(i), ms.n_snapshots)
                for i, ch in enumerate(channels)]
    steps = _fold_tree(messages, tree)
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
    with H_l = Q_l R_l.
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
        orthonormal_basis(factor, "message factor")  # rank gate
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "coordinates", coords)

    @property
    def statistic(self) -> float:
        """The channel's known-noise statistic ||C_l||^2 / M."""
        return float(energy(self.coordinates)) / self.n_snapshots

    @property
    def n_snapshots(self) -> int:
        return self.coordinates.shape[1]


def channel_message(channel: ChannelModel, x_block, n_snapshots: int) -> ChannelMessage:
    """Build the fusion message for one channel from its local data.

    Reads the channel's cached basis Q_l and factor R_l = Q_l^H H_l.
    """
    x = as_complex_matrix(x_block, "channel data")
    require_same_dims([channel], [x.shape[0]])
    if x.shape[1] != n_snapshots:
        raise DimensionError(f"channel data has {x.shape[1]} columns "
                             f"for n_snapshots={n_snapshots}")
    sigma = channel.noise_sigma
    return ChannelMessage(factor=(channel.gain / sigma) * channel.coupling,
                          coordinates=channel.basis.conj().T @ x / sigma)


def daisy_chain_fuse(messages: Sequence[ChannelMessage]) -> list[DetectorReport]:
    """Fold channel messages into running composite reports, one per prefix.

    The k-th returned report equals the known-coupling, known-noise detector
    evaluated on the pooled data of the first k channels; its raw
    cross-validation is the sum of the first k-1 steps over ``chain_tree``.
    Raises ProtocolError for an empty sequence, an entry that is not a
    :class:`ChannelMessage`, or messages of different shapes (J, M).
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
    steps = _fold_tree(msgs, chain_tree(len(msgs)))
    raw_cvs = list(accumulate((s.term for s in steps), initial=0.0))
    stats = np.array([msg.statistic for msg in msgs])
    reports: list[DetectorReport] = []
    for k in range(1, len(msgs) + 1):
        cv = raw_cvs[k - 1] / k
        reports.append(DetectorReport(composite=float(stats[:k].mean()) - cv,
                                      alphas=np.full(k, 1.0 / k), per_channel=stats[:k].copy(),
                                      cross_validation=cv, panel=_P11))
    return reports


def save_messages(messages: Sequence[ChannelMessage], directory) -> Path:
    """Serialize fusion messages with the same CSV-plus-header layout as data."""
    files: dict[str, str] = {}
    entries = []
    for idx, msg in enumerate(messages):
        entry = {"n_modes": msg.coordinates.shape[0], "n_snapshots": msg.n_snapshots}
        for field in ("factor", "coordinates"):
            entry[field] = f"message_{idx:02d}_{field}.csv"
            files[entry[field]] = _format_block(getattr(msg, field))
        entries.append(entry)
    files[_HEADER_NAME] = json_text(
        {"format": _MESSAGE_FORMAT, "version": _MESSAGE_VERSION, "messages": entries})
    return write_files(directory, files)


def load_messages(directory) -> list[ChannelMessage]:
    """Read fusion messages written by :func:`save_messages`."""
    root = Path(directory)
    header = _read_header(root, _MESSAGE_FORMAT, _MESSAGE_VERSION, {"messages": object})
    if not isinstance(header["messages"], list):
        raise ConfigError(f"'messages' in {root / _HEADER_NAME} is not a list: "
                          f"{header['messages']!r}")
    out = []
    for idx, entry in enumerate(header["messages"]):
        if not isinstance(entry, dict):
            raise ConfigError(f"message entry {idx} in {root / _HEADER_NAME} is not an object: "
                              f"{entry!r}")
        for name, expected in _MESSAGE_ENTRY.items():
            if name not in entry:
                raise ProtocolError(f"channel message is missing field {name!r}")
            _require_type(entry[name], expected,
                          f"message entry {idx} in {root / _HEADER_NAME}: {name!r}")
        j, m = entry["n_modes"], entry["n_snapshots"]
        out.append(ChannelMessage(
            factor=_parse_block((root / entry["factor"]).read_text(), j, j),
            coordinates=_parse_block((root / entry["coordinates"]).read_text(), j, m),
        ))
    return out
