"""Fusion identities: partition decompositions of the known-channel detector.

The known-coupling, known-noise composite quadratic form decomposes exactly
into per-channel quadratic forms minus amplitude-disagreement penalties, one
per binary partitioning step.  The same identity drives a daisy-chained
fusion topology in which each link folds one channel's sufficient message
(statistic, amplitude estimate, estimate covariance) into a running
composite report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .channel import ChannelModel
from .detectors import ChannelKnowledge, DetectorReport, KnowledgeSpec, NoiseKnowledge
from .errors import ConfigError, DimensionError, ProtocolError
from .linalg import as_complex_matrix, orthonormal_basis
from .measurement import (
    MeasurementSet,
    _format_block,
    _parse_block,
    ml_amplitudes,
    validate_against_channels,
)

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
    if isinstance(tree, int):
        return (tree,)
    if isinstance(tree, tuple) and len(tree) == 2:
        return tree_leaves(tree[0]) + tree_leaves(tree[1])
    raise ConfigError(f"malformed partition tree node {tree!r}")


def _validate_tree(tree: PartitionTree, n_channels: int) -> None:
    leaves = tree_leaves(tree)
    if sorted(leaves) != list(range(n_channels)):
        raise ConfigError(
            f"tree leaves {sorted(leaves)} are not a permutation of 0..{n_channels - 1}"
        )


def _whitened_group(channels: Sequence[ChannelModel], ms: MeasurementSet,
                    indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    f = np.vstack([(channels[i].gain / channels[i].noise_sigma) * channels[i].matrix
                   for i in indices])
    z = np.vstack([ms.block(i) / channels[i].noise_sigma for i in indices])
    return f, z


def _group_gram_inverse(f: np.ndarray, label: str) -> np.ndarray:
    orthonormal_basis(f, label)
    return np.linalg.inv(f.conj().T @ f)


def _fold(q_a: np.ndarray, a_a: np.ndarray, q_b: np.ndarray, a_b: np.ndarray, m: int):
    """Merge two groups' amplitude estimates A with estimate covariances Q.

    Returns (term, Q_EE, S_EE, Q, A): the penalty term tr(Q_EE^-1 S_EE) of the
    estimate difference E = A_a - A_b, with Q_EE = Q_a + Q_b and
    S_EE = E E^H / M, and the merged precision-weighted estimate
    A = Q (Q_a^-1 A_a + Q_b^-1 A_b) with Q = (Q_a^-1 + Q_b^-1)^-1.
    """
    q_ee = q_a + q_b
    err = a_a - a_b
    s_ee = err @ err.conj().T / m
    term = float(np.real(np.trace(np.linalg.solve(q_ee, s_ee))))
    inv_a = np.linalg.inv(q_a)
    inv_b = np.linalg.inv(q_b)
    q = np.linalg.inv(inv_a + inv_b)
    return term, q_ee, s_ee, q, q @ (inv_a @ a_a + inv_b @ a_b)


@dataclass(frozen=True)
class PartitionStep:
    """One binary split: penalty term tr(Q_EE^-1 S_EE) with its ingredients."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    term: float
    qee: np.ndarray
    see: np.ndarray


@dataclass(frozen=True)
class PartitionResult:
    steps: tuple[PartitionStep, ...]
    raw_total: float
    cross_validation: float  # raw_total / L, matching the known-noise panel


def partition_cv(channels: Sequence[ChannelModel], ms: MeasurementSet,
                 tree: PartitionTree) -> PartitionResult:
    """Cross-validation term via recursive binary partitioning.

    For every internal node the identity
    Z^H P_F Z = X^H P_FX X + Y^H P_FY Y - M tr(Q_EE^-1 S_EE) applies; the
    totals are invariant to the tree shape.
    """
    validate_against_channels(channels, ms)
    _validate_tree(tree, len(channels))
    m = ms.n_snapshots
    steps: list[PartitionStep] = []

    def visit(node: PartitionTree) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
        """Return (leaves, Q, A_hat) for the composite group under node."""
        if isinstance(node, int):
            f, z = _whitened_group(channels, ms, [node])
            q = _group_gram_inverse(f, f"channel {node}")
            return (node,), q, ml_amplitudes(f, z)
        left, right = node
        leaves_l, q_l, a_l = visit(left)
        leaves_r, q_r, a_r = visit(right)
        term, q_ee, s_ee, q_new, a_new = _fold(q_l, a_l, q_r, a_r, m)
        steps.append(PartitionStep(leaves_l, leaves_r, term, q_ee, s_ee))
        return leaves_l + leaves_r, q_new, a_new

    visit(tree)
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
        j = self.amplitudes.shape[0]
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
    """Build the fusion message for one channel from its local data."""
    x = as_complex_matrix(x_block, "channel data")
    f = (channel.gain / channel.noise_sigma) * channel.matrix
    a_hat = ml_amplitudes(f, x / channel.noise_sigma)
    cov = np.linalg.inv(f.conj().T @ f)
    matched = orthonormal_basis(channel.matrix, "channel matrix").conj().T @ x
    return ChannelMessage(
        statistic=float(np.real(np.vdot(matched, matched)))
        / (n_snapshots * channel.noise_variance),
        amplitudes=a_hat,
        amplitude_covariance=cov,
        n_samples=channel.n_samples,
        n_snapshots=n_snapshots,
    )


def daisy_chain_fuse(messages: Sequence[ChannelMessage | Mapping]) -> list[DetectorReport]:
    """Fold channel messages into running composite reports, one per prefix.

    The k-th returned report equals the known-coupling, known-noise detector
    evaluated on the pooled data of the first k channels.
    """
    msgs = [as_message(m) for m in messages]
    if not msgs:
        raise ProtocolError("no messages to fuse")
    m = msgs[0].n_snapshots
    for msg in msgs:
        if msg.n_snapshots != m:
            raise ProtocolError("messages disagree on snapshot count")
    reports: list[DetectorReport] = []
    stats: list[float] = []
    raw_cv = 0.0
    q_run: np.ndarray | None = None
    a_run: np.ndarray | None = None
    for msg in msgs:
        if q_run is None:
            q_run = msg.amplitude_covariance
            a_run = msg.amplitudes
        else:
            term, _, _, q_run, a_run = _fold(q_run, a_run, msg.amplitude_covariance,
                                             msg.amplitudes, m)
            raw_cv += term
        stats.append(msg.statistic)
        k = len(stats)
        cv = raw_cv / k
        lam = np.asarray(stats, dtype=float)
        reports.append(DetectorReport(
            composite=float(lam.mean()) - cv,
            alphas=np.full(k, 1.0 / k),
            per_channel=lam,
            cross_validation=cv,
            panel=_P11,
        ))
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
    (root / "header.json").write_text(json.dumps(header, indent=2) + "\n")
    return root


def load_messages(directory) -> list[ChannelMessage]:
    root = Path(directory)
    header = json.loads((root / "header.json").read_text())
    if header.get("format") != "glrfusion-messages":
        raise ConfigError(f"unrecognized message format {header.get('format')!r}")
    out = []
    for entry in header["messages"]:
        for name in ("statistic", "n_samples", "n_snapshots", "n_modes",
                     "amplitudes", "amplitude_covariance"):
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
