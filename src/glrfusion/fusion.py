"""Fusion identities: one message per channel, folded over a binary tree.

The known-coupling, known-noise composite quadratic form decomposes exactly
into per-channel quadratic forms minus one amplitude-disagreement penalty per
internal node of any binary tree over the channels.  Each leaf is a channel's
message (statistic, ML amplitude estimate A_l, its covariance Q_l); each node
folds its children's (Q, A).  ``partition_cv`` folds over any tree and
``daisy_chain_fuse`` over the left-deep chain, one channel per link.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .channel import ChannelModel, require_same_dims
from .detectors import ChannelKnowledge, DetectorReport, KnowledgeSpec, NoiseKnowledge
from .errors import ConfigError, DimensionError, ProtocolError
from .linalg import as_complex_matrix, orthonormal_basis
from .measurement import _HEADER_NAME, MeasurementSet, _format_block, _parse_block, _read_header

PartitionTree = int | tuple

_P11 = KnowledgeSpec(ChannelKnowledge.KNOWN_F, NoiseKnowledge.KNOWN)


def chain_tree(n_channels: int) -> PartitionTree:
    """Left-deep tree: (((0, 1), 2), ...)."""
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
        if isinstance(node, int):
            leaves.append(node)
        elif isinstance(node, tuple) and len(node) == 2:
            pending += [node[1], node[0]]
        else:
            raise ConfigError(f"malformed partition tree node {node!r}")
    return tuple(leaves)


def _fold(q_a: np.ndarray, a_a: np.ndarray, q_b: np.ndarray, a_b: np.ndarray, m: int):
    """Merge two groups' amplitude estimates A with estimate covariances Q.

    Returns (term, Q, A): the penalty term tr(Q_EE^-1 S_EE) of the estimate
    difference E = A_a - A_b, with Q_EE = Q_a + Q_b and S_EE = E E^H / M, and
    the merged precision-weighted estimate A = Q (Q_a^-1 A_a + Q_b^-1 A_b)
    with Q = (Q_a^-1 + Q_b^-1)^-1.
    """
    err = a_a - a_b
    term = float(np.real(np.trace(np.linalg.solve(q_a + q_b, err @ err.conj().T / m))))
    inv_a = np.linalg.inv(q_a)
    inv_b = np.linalg.inv(q_b)
    q = np.linalg.inv(inv_a + inv_b)
    return term, q, q @ (inv_a @ a_a + inv_b @ a_b)


@dataclass(frozen=True)
class PartitionStep:
    """One binary split: the penalty term tr(Q_EE^-1 S_EE) between two groups."""

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
    groups: list[tuple[tuple[int, ...], np.ndarray, np.ndarray]] = []
    pending: list[PartitionTree | None] = [tree]
    while pending:
        node = pending.pop()
        if isinstance(node, int):
            groups.append(((node,), messages[node].amplitude_covariance, messages[node].amplitudes))
        elif node is not None:
            pending += [None, node[1], node[0]]
        else:
            (leaves_r, q_r, a_r), (leaves_l, q_l, a_l) = groups.pop(), groups.pop()
            term, q, a = _fold(q_l, a_l, q_r, a_r, m)
            steps.append(PartitionStep(leaves_l, leaves_r, term))
            groups.append((leaves_l + leaves_r, q, a))
    return steps


def partition_cv(channels: Sequence[ChannelModel], ms: MeasurementSet,
                 tree: PartitionTree) -> PartitionResult:
    """Cross-validation term via recursive binary partitioning.

    For every internal node the identity
    Z^H P_F Z = X^H P_FX X + Y^H P_FY Y - M tr(Q_EE^-1 S_EE) applies; the
    totals are invariant to the tree shape.
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
    """What one channel must transmit to be fused into the composite report."""

    statistic: float
    amplitudes: np.ndarray
    amplitude_covariance: np.ndarray
    n_samples: int
    n_snapshots: int

    def __post_init__(self):
        object.__setattr__(self, "amplitudes",
                           as_complex_matrix(self.amplitudes, "amplitudes"))
        object.__setattr__(self, "amplitude_covariance",
                           as_complex_matrix(self.amplitude_covariance, "amplitude_covariance"))
        j, m = self.amplitudes.shape
        if m != self.n_snapshots:
            raise DimensionError(f"amplitudes have {m} columns for n_snapshots={self.n_snapshots}")
        if self.amplitude_covariance.shape != (j, j):
            raise DimensionError(
                f"amplitude covariance shape {self.amplitude_covariance.shape} "
                f"does not match J={j}"
            )


_MESSAGE_FIELDS = ("statistic", "amplitudes", "amplitude_covariance",
                   "n_samples", "n_snapshots")


def as_message(obj) -> ChannelMessage:
    """Coerce a mapping into a ChannelMessage, naming any missing field."""
    if isinstance(obj, ChannelMessage):
        return obj
    if isinstance(obj, Mapping):
        for name in _MESSAGE_FIELDS:
            if name not in obj:
                raise ProtocolError(f"channel message is missing field {name!r}")
        return ChannelMessage(**{name: obj[name] for name in _MESSAGE_FIELDS})
    raise ProtocolError(f"cannot interpret {type(obj).__name__} as a channel message")


def channel_message(channel: ChannelModel, x_block, n_snapshots: int) -> ChannelMessage:
    """Build the fusion message for one channel from its local data.

    One SVD of F_l = (g_l/sigma_l) H_l gates its rank and gives the basis for the
    statistic; A_l solves (F_l^H F_l) A_l = F_l^H X_l / sigma_l, and Q_l = (F_l^H F_l)^-1.
    """
    x = as_complex_matrix(x_block, "channel data")
    require_same_dims([channel], [x.shape[0]])
    f = (channel.gain / channel.noise_sigma) * channel.matrix
    matched = orthonormal_basis(f, "whitened channel").conj().T @ x
    gram = f.conj().T @ f
    return ChannelMessage(
        statistic=float(np.real(np.vdot(matched, matched)))
        / (n_snapshots * channel.noise_variance),
        amplitudes=np.linalg.solve(gram, f.conj().T @ (x / channel.noise_sigma)),
        amplitude_covariance=np.linalg.inv(gram),
        n_samples=channel.n_samples,
        n_snapshots=n_snapshots,
    )


def daisy_chain_fuse(messages: Sequence[ChannelMessage | Mapping]) -> list[DetectorReport]:
    """Fold channel messages into running composite reports, one per prefix.

    The k-th returned report equals the known-coupling, known-noise detector
    evaluated on the pooled data of the first k channels; its raw
    cross-validation is the sum of the first k-1 steps over ``chain_tree``.
    """
    msgs = [as_message(m) for m in messages]
    if not msgs:
        raise ProtocolError("no messages to fuse")
    for idx, msg in enumerate(msgs):
        if msg.amplitudes.shape != msgs[0].amplitudes.shape:
            raise ProtocolError(f"message {idx} carries (J, M) = {msg.amplitudes.shape}, "
                                f"message 0 carries {msgs[0].amplitudes.shape}")
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
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for idx, msg in enumerate(messages):
        amp_name = f"message_{idx:02d}_amplitudes.csv"
        cov_name = f"message_{idx:02d}_covariance.csv"
        (root / amp_name).write_text(_format_block(msg.amplitudes))
        (root / cov_name).write_text(_format_block(msg.amplitude_covariance))
        entries.append({
            "statistic": msg.statistic,
            "n_samples": msg.n_samples,
            "n_snapshots": msg.n_snapshots,
            "n_modes": msg.amplitudes.shape[0],
            "amplitudes": amp_name,
            "amplitude_covariance": cov_name,
        })
    header = {"format": "glrfusion-messages", "version": 1, "messages": entries}
    (root / _HEADER_NAME).write_text(json.dumps(header, indent=2) + "\n")
    return root


def load_messages(directory) -> list[ChannelMessage]:
    root = Path(directory)
    header = _read_header(root, "glrfusion-messages", ("messages",))
    if not isinstance(header["messages"], list):
        raise ConfigError(f"'messages' in {root / _HEADER_NAME} is not a list: "
                          f"{header['messages']!r}")
    out = []
    for idx, entry in enumerate(header["messages"]):
        if not isinstance(entry, dict):
            raise ConfigError(f"message entry {idx} in {root / _HEADER_NAME} is not an object: "
                              f"{entry!r}")
        for name in _MESSAGE_FIELDS + ("n_modes",):
            if name not in entry:
                raise ProtocolError(f"channel message is missing field {name!r}")
        j = int(entry["n_modes"])
        m = int(entry["n_snapshots"])
        amp = _parse_block((root / entry["amplitudes"]).read_text(), j, m)
        cov = _parse_block((root / entry["amplitude_covariance"]).read_text(), j, j)
        out.append(ChannelMessage(
            statistic=float(entry["statistic"]),
            amplitudes=amp,
            amplitude_covariance=cov,
            n_samples=int(entry["n_samples"]),
            n_snapshots=m,
        ))
    return out
