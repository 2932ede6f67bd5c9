"""Monte-Carlo experiments: null distributions, ROC curves, threshold
calibration, and likelihood-image parameter scans.

Trials are independent and deterministically seeded per (seed, trial,
channel), so results are identical whatever the execution order or level of
parallelism.  They are evaluated in chunks of bounded memory: a chunk's
blocks are drawn as per-channel stacks, summarised and evaluated together,
and every trial gets the checks a :class:`~glrfusion.detectors.DetectorReport`
applies.  Thresholds always come from empirical null quantiles so every
panel is treated uniformly.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats as sps

from .channel import (
    ChannelModel,
    PropagationSpec,
    narrowband_channel,
    narrowband_factors,
    normalize_channel,
    require_trace_normalized,
)
from .detectors import (
    ChannelKnowledge,
    KnowledgeSpec,
    bank_summary,
    check_decomposition,
    evaluate,
    summarise,
)
from .errors import ConfigError
from .measurement import MeasurementSet, draw_amplitudes, draw_blocks

_WILSON_Z = 1.959963984540054  # two-sided 95%
# Complex entries of the largest temporary one step of a scan or of a chunk
# of trials forms: 2**18 entries, 4 MiB.
_CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class Scenario:
    """Physical channel specs plus snapshot count for one experiment."""

    specs: tuple[PropagationSpec, ...]
    gains: tuple[complex, ...]
    noise_variances: tuple[float, ...]
    n_snapshots: int

    def __post_init__(self):
        if not self.specs:
            raise ConfigError("a scenario needs at least one channel")
        if not (len(self.specs) == len(self.gains) == len(self.noise_variances)):
            raise ConfigError("specs, gains, and noise_variances must align")
        if self.n_snapshots < 1:
            raise ConfigError("n_snapshots must be >= 1")
        object.__setattr__(self, "specs", tuple(self.specs))
        object.__setattr__(self, "gains", tuple(complex(g) for g in self.gains))
        object.__setattr__(self, "noise_variances",
                           tuple(float(v) for v in self.noise_variances))

    @property
    def n_channels(self) -> int:
        return len(self.specs)

    @property
    def n_modes(self) -> int:
        return self.specs[0].n_modes

    def channels(self) -> list[ChannelModel]:
        return [narrowband_channel(spec, g, v)
                for spec, g, v in zip(self.specs, self.gains, self.noise_variances)]

    def amplitude_scale(self, snr_db: float) -> float:
        """Amplitude standard deviation realizing a mean per-channel SNR.

        Per-channel SNR is |g_l|^2 E||a||^2 / (J sigma_l^2); amplitudes are
        drawn iid CN(0, s^2), so s is chosen to make the channel-averaged
        SNR equal the requested value.
        """
        snr = 10.0 ** (snr_db / 10.0)
        gain_over_noise = np.mean([
            abs(g) ** 2 / v for g, v in zip(self.gains, self.noise_variances)
        ])
        return float(np.sqrt(snr / gain_over_noise))


@dataclass(frozen=True)
class ExperimentSpec:
    """Panel, scenario, and Monte-Carlo bookkeeping for one experiment."""

    panel: KnowledgeSpec
    scenario: Scenario
    trials: int
    seed: int
    snr_db: tuple[float, ...] = ()
    pfa_targets: tuple[float, ...] = ()

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        for p in self.pfa_targets:
            if not (0.0 < p < 1.0):
                raise ConfigError(f"pfa targets must lie in (0, 1), got {p}")
        object.__setattr__(self, "snr_db", tuple(float(v) for v in self.snr_db))
        object.__setattr__(self, "pfa_targets", tuple(float(v) for v in self.pfa_targets))


def wilson_interval(successes: int, trials: int) -> tuple[float, float, float]:
    """Wilson 95% score interval: (low, high, halfwidth)."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    z = _WILSON_Z
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1 - p_hat) / trials
                                   + z * z / (4 * trials * trials))
    return center - half, center + half, half


def _trial_block(args) -> tuple[np.ndarray, np.ndarray]:
    """Composites and degenerate flags of the trials, chunk by chunk.

    A trial's value does not depend on its chunk: its blocks come from its
    own substreams, and every step treats the matrices of a stack apart.
    """
    (panel, channels, m, seed, trials, amp_scale, n_modes, trial_offset) = args
    values, degenerate = np.empty(len(trials)), np.empty(len(trials), bool)
    largest = len(channels) * max(ch.n_samples for ch in channels) * m
    for part in _chunks(len(trials), largest):
        ids = trials[part] + trial_offset
        amps = None
        if amp_scale is not None:
            amps = np.array([draw_amplitudes(n_modes, m, amp_scale, seed, trial=t)
                             for t in ids])
        ev = evaluate(panel, summarise(panel, channels,
                                       draw_blocks(channels, m, seed, ids, amps)))
        check_decomposition(ev.composite, ev.col.alphas, ev.col.lam, ev.cross_validation,
                            ev.degenerate)
        values[part], degenerate[part] = ev.composite, ev.degenerate
    return values, degenerate


def _statistic_sample(
    panel: KnowledgeSpec,
    scenario: Scenario,
    trials: int,
    seed: int,
    amp_scale: float | None,
    trial_offset: int = 0,
    jobs: int = 1,
) -> tuple[np.ndarray, int]:
    """The panel's composite on each trial, and the number of degenerate trials."""
    channels = scenario.channels()
    indices = np.arange(trials)
    if jobs <= 1:
        values, degenerate = _trial_block((panel, channels, scenario.n_snapshots, seed,
                                           indices, amp_scale, scenario.n_modes, trial_offset))
        return values, int(np.count_nonzero(degenerate))
    chunks = np.array_split(indices, jobs)
    args = [(panel, channels, scenario.n_snapshots, seed, chunk, amp_scale,
             scenario.n_modes, trial_offset) for chunk in chunks if len(chunk)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        values, degenerate = zip(*pool.map(_trial_block, args))
    return np.concatenate(values), int(np.count_nonzero(np.concatenate(degenerate)))


def _beta_moment_match(sample: np.ndarray) -> tuple[float, float]:
    """Method-of-moments Beta parameters from a sample in (0, 1)."""
    m = float(np.mean(sample))
    v = float(np.var(sample))
    if not (0.0 < m < 1.0) or v <= 0.0:
        raise ValueError("sample moments unsuitable for a Beta fit")
    common = m * (1.0 - m) / v - 1.0
    return m * common, (1.0 - m) * common


@dataclass(frozen=True)
class NullDistribution:
    """Empirical null sample with optional reference-distribution KS summary.

    ``degenerate_trials`` counts the trials flagged degenerate, such as those
    whose residual vanishes and whose composite is therefore ``inf``.
    """

    sample: np.ndarray
    panel: str
    ks_reference: str | None = None
    ks_statistic: float | None = None
    ks_pvalue: float | None = None
    reference_params: tuple[float, float] | None = None
    moment_matched: tuple[float, float] | None = None
    low_trials_warning: bool = False
    degenerate_trials: int = 0


def _beta_reference(scenario: Scenario) -> tuple[float, float]:
    n = sum(spec.n_samples for spec in scenario.specs)
    j = scenario.n_modes
    m = scenario.n_snapshots
    return float(m * j), float(m * (n - j))


def run_null(spec: ExperimentSpec, jobs: int = 1) -> NullDistribution:
    """Simulate the null hypothesis and summarize the statistic's distribution.

    Where the null law is known the empirical sample is KS-tested against
    it.  The common-unknown-noise panel P12 is the fraction of the energy of
    N = sum N_l white samples inside a J-dimensional span, Beta(JM, (N - J)M),
    whenever every channel has the same noise variance.  On one channel the
    per-channel-noise panel P13 is its -ln(1 - x) transform.
    """
    sample, degenerate = _statistic_sample(spec.panel, spec.scenario, spec.trials,
                                           spec.seed, None, jobs=jobs)
    sample = np.sort(sample)
    low_trials = spec.trials < 100
    panel = spec.panel.panel
    scenario = spec.scenario
    ks_ref = None
    ks_stat = ks_p = None
    ref_params = None
    matched = None
    a, b = _beta_reference(scenario)  # b = 0 leaves no residual dimension
    known_law = ((panel == "P12" and len(set(scenario.noise_variances)) == 1)
                 or (panel == "P13" and scenario.n_channels == 1))
    if b > 0 and known_law:
        ref_params = (a, b)
        if panel == "P12":
            ks_ref = "beta"
            cdf = sps.beta(a, b).cdf
            try:
                matched = _beta_moment_match(sample)
            except ValueError:
                matched = None
        else:
            ks_ref = "log-energy-ratio"

            def cdf(x, _a=a, _b=b):
                return sps.beta(_a, _b).cdf(1.0 - np.exp(-np.asarray(x)))

            try:
                matched = _beta_moment_match(1.0 - np.exp(-sample))
            except ValueError:
                matched = None
        res = sps.kstest(sample, cdf)
        ks_stat, ks_p = float(res.statistic), float(res.pvalue)
    return NullDistribution(
        sample=sample,
        panel=panel,
        ks_reference=ks_ref,
        ks_statistic=ks_stat,
        ks_pvalue=ks_p,
        reference_params=ref_params,
        moment_matched=matched,
        low_trials_warning=low_trials,
        degenerate_trials=degenerate,
    )


@dataclass(frozen=True)
class RocCurve:
    """Empirical ROC at one SNR: thresholds with estimated pfa/pd."""

    thresholds: np.ndarray
    pfa: np.ndarray
    pd: np.ndarray
    trials: int
    wilson_halfwidth: np.ndarray
    pfa_halfwidth: np.ndarray
    snr_db: float

    def __post_init__(self):
        for name in ("thresholds", "pfa", "pd", "wilson_halfwidth", "pfa_halfwidth"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(np.diff(self.thresholds) < 0):
            raise ConfigError("thresholds must be sorted ascending")
        for name in ("pfa", "pd"):
            vals = getattr(self, name)
            if np.any(vals < 0) or np.any(vals > 1):
                raise ConfigError(f"{name} values must lie in [0, 1]")
            if np.any(np.diff(vals) > 1e-12):
                raise ConfigError(f"{name} must be non-increasing in threshold")

    def area(self) -> float:
        """Trapezoidal area under the (pfa, pd) polyline, endpoint-completed."""
        x = np.concatenate([[0.0], self.pfa[::-1], [1.0]])
        y = np.concatenate([[0.0], self.pd[::-1], [1.0]])
        return float(np.trapezoid(y, x))


def _required_trials(pfa: float) -> int:
    return int(math.ceil(10.0 / pfa))


def _null_thresholds(spec: ExperimentSpec, pfas: np.ndarray,
                     jobs: int) -> tuple[np.ndarray, np.ndarray]:
    """Null sample and its (1 - pfa) quantiles, for pfas in descending order."""
    for p in pfas:
        if not (0.0 < p < 1.0):
            raise ConfigError(f"pfa must lie in (0, 1), got {p}")
    smallest = float(min(pfas))
    if spec.trials < _required_trials(smallest):
        raise ConfigError(
            f"{spec.trials} trials cannot resolve pfa={smallest}; "
            f"need at least {_required_trials(smallest)}"
        )
    sample, _ = _statistic_sample(spec.panel, spec.scenario, spec.trials,
                                  spec.seed, None, jobs=jobs)
    thresholds = np.quantile(sample, 1.0 - pfas)
    return sample, np.maximum.accumulate(thresholds)  # guard quantile ties


def run_roc(spec: ExperimentSpec, jobs: int = 1) -> list[RocCurve]:
    """One ROC curve per SNR grid point, thresholded at null quantiles.

    The alternative-hypothesis amplitudes are drawn independently for every
    trial; null and alternative samples use disjoint trial indices so the
    curves are deterministic given the spec.
    """
    if not spec.pfa_targets:
        raise ConfigError("run_roc needs at least one pfa target")
    if not spec.snr_db:
        raise ConfigError("run_roc needs at least one SNR grid point")
    null_sample, thresholds = _null_thresholds(
        spec, np.sort(spec.pfa_targets)[::-1], jobs)  # large pfa -> small threshold
    curves = []
    for k, snr in enumerate(spec.snr_db):
        scale = spec.scenario.amplitude_scale(snr)
        alt, _ = _statistic_sample(spec.panel, spec.scenario, spec.trials, spec.seed,
                                   scale, trial_offset=(k + 1) * spec.trials, jobs=jobs)
        false_alarms = [int((null_sample > t).sum()) for t in thresholds]
        detections = [int((alt > t).sum()) for t in thresholds]
        pd_half = np.array([wilson_interval(k, spec.trials)[2] for k in detections])
        pfa_half = np.array([wilson_interval(k, spec.trials)[2] for k in false_alarms])
        curves.append(RocCurve(
            thresholds=thresholds,
            pfa=np.array(false_alarms) / spec.trials,
            pd=np.array(detections) / spec.trials,
            trials=spec.trials,
            wilson_halfwidth=pd_half,
            pfa_halfwidth=pfa_half,
            snr_db=float(snr),
        ))
    return curves


@dataclass(frozen=True)
class ThresholdCalibration:
    threshold: float
    pfa_target: float
    achieved_pfa: float
    wilson_low: float
    wilson_high: float
    trials: int


def calibrate_threshold(spec: ExperimentSpec, pfa: float, jobs: int = 1) -> ThresholdCalibration:
    """Empirical null quantile for a target false-alarm probability."""
    sample, thresholds = _null_thresholds(spec, np.array([pfa]), jobs)
    threshold = float(thresholds[0])
    exceed = int((sample > threshold).sum())
    low, high, _ = wilson_interval(exceed, spec.trials)
    return ThresholdCalibration(
        threshold=threshold,
        pfa_target=pfa,
        achieved_pfa=exceed / spec.trials,
        wilson_low=low,
        wilson_high=high,
        trials=spec.trials,
    )


@dataclass(frozen=True)
class LikelihoodImage:
    """Detector statistic over a delay/Doppler hypothesis grid."""

    values: np.ndarray
    delays_s: np.ndarray
    dopplers_hz: np.ndarray
    argmax_index: tuple[int, int]

    @property
    def argmax_delay_s(self) -> float:
        return float(self.delays_s[self.argmax_index[0]])

    @property
    def argmax_doppler_hz(self) -> float:
        return float(self.dopplers_hz[self.argmax_index[1]])


def _scan_indices(scan_channels: Sequence[int] | None, n_channels: int) -> list[int]:
    """The scanned channels: by default every channel but the reference channel 0."""
    if scan_channels is None:
        return list(range(n_channels)) if n_channels == 1 else list(range(1, n_channels))
    try:
        scanned = [operator.index(i) for i in scan_channels]
    except TypeError:
        raise ConfigError(f"scan_channels must be channel indices, "
                          f"got {scan_channels!r}") from None
    if not scanned:
        raise ConfigError("scan_channels is empty; name at least one channel to scan")
    for i in scanned:
        if not 0 <= i < n_channels:
            raise ConfigError(f"scan channel {i} is out of range for {n_channels} channels")
    if len(set(scanned)) != len(scanned):
        raise ConfigError(f"scan_channels names a channel twice: {scanned}")
    return scanned


def _chunks(count: int, entries_each: int) -> list[slice]:
    """Consecutive slices of ``count`` items, each under the memory bound."""
    step = max(1, _CHUNK_ENTRIES // entries_each)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def _doppler_bank(panel: KnowledgeSpec, index: int, spec: PropagationSpec, x: np.ndarray,
                  delays: np.ndarray, dopplers: np.ndarray):
    """A scanned channel's summary on every Doppler bin, and its delay phases.

    Returns K (n_doppler, J, J), the coordinates (n_doppler, J, M), the
    tails (n_doppler,) and the delay phases (n_delay, J): the coupling of
    the cell (a, b) is H = Q[b] K[b] diag(delay[a]), so its factor R is
    K[b] * delay[a].  The bank is checked as every cell's coupling would be:
    a unitary diagonal changes neither trace(H^H H) nor H^H H = I.
    """
    n, j, m = spec.n_samples, spec.n_modes, x.shape[1]
    parts = []
    for part in _chunks(dopplers.size, n * (j + m)):
        doppler, delay = narrowband_factors(spec, delays, dopplers[part])
        bank = normalize_channel(doppler)
        require_trace_normalized(bank)
        parts.append(bank_summary(panel, index, bank, x, m))
    factors, coords, tails = (np.concatenate(p) for p in zip(*parts))
    return factors, coords, tails, delay


def scan_likelihood_image(
    panel: KnowledgeSpec,
    scenario: Scenario,
    measurements: MeasurementSet,
    delays_s: Sequence[float],
    dopplers_hz: Sequence[float],
    scan_channels: Sequence[int] | None = None,
) -> LikelihoodImage:
    """Evaluate the detector over a grid of delay/Doppler hypotheses.

    Each hypothesis replaces the delay and Doppler of the scanned channels'
    narrowband couplings with the grid cell's.  A delay common to every
    channel is unobservable (it only rephases the composite), so by default
    the hypothesis is differential: the first channel keeps its base
    parameters as the reference and all others are scanned.  Single-channel
    scans apply the hypothesis to that channel, which resolves Doppler only.

    No channel is rebuilt and ``detect`` is not called per cell.  A
    narrowband coupling is H(tau, nu) = H(0, nu) Phi(tau) with Phi unitary
    diagonal, so a scanned channel's basis Q, coordinates Q^H X and tail
    depend on the Doppler alone: they are computed once per Doppler bin
    (on row 1 from one batched SVD), and a cell only rephases the J x J
    factor R = Q^H H.  The detectors' rows 1 and 2 then evaluate the cells
    together, in chunks of bounded memory.  The checks ``detect`` applies
    hold for every cell: on every Doppler bin the trace normalisation and
    the rank gate (row 1) or orthonormality (row 2), which Phi leaves
    unchanged; on every cell the composite's rank gate (row 1) and the
    decomposition identity.
    """
    if panel.channel_knowledge == ChannelKnowledge.UNKNOWN_SUBSPACE:
        raise ConfigError("likelihood images need a known-coupling panel")
    delays = np.asarray(list(delays_s), dtype=float)
    dopplers = np.asarray(list(dopplers_hz), dtype=float)
    if delays.size == 0 or dopplers.size == 0:
        raise ValueError("hypothesis grid must be non-empty")
    scanned = _scan_indices(scan_channels, scenario.n_channels)
    base = summarise(panel, scenario.channels(), [x[None] for x in measurements.blocks])
    banks = {idx: _doppler_bank(panel, idx, scenario.specs[idx], measurements.block(idx),
                                delays, dopplers) for idx in scanned}
    _, n_ch, j, m = base.coords.shape
    values = np.empty(delays.size * dopplers.size)
    for part in _chunks(values.size, n_ch * j * (j + m)):
        rows, cols = np.divmod(np.arange(part.start, part.stop), dopplers.size)
        coupling, coords, tails = (
            np.broadcast_to(field, (rows.size, n_ch) + shape).copy()
            for field, shape in ((base.coupling, (j, j)), (base.coords, (j, m)), (base.tails, ())))
        for idx, (factors, bin_coords, bin_tails, delay) in banks.items():
            coupling[:, idx] = factors[cols] * delay[rows][:, None, :]
            coords[:, idx] = bin_coords[cols]
            tails[:, idx] = bin_tails[cols]
        ev = evaluate(panel, base._replace(coupling=coupling, coords=coords, tails=tails))
        check_decomposition(ev.composite, ev.col.alphas, ev.col.lam, ev.cross_validation,
                            ev.degenerate)
        values[part] = ev.composite
    values = values.reshape(delays.size, dopplers.size)
    flat = int(np.argmax(values))
    argmax = (flat // dopplers.size, flat % dopplers.size)
    return LikelihoodImage(values=values, delays_s=delays, dopplers_hz=dopplers,
                           argmax_index=argmax)
