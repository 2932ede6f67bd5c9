"""Monte-Carlo experiments: null distributions, ROC curves, threshold
calibration, and likelihood-image parameter scans.

Trials are independent and deterministically seeded per (seed, trial,
channel), so results are identical whatever the execution order or level of
parallelism.  Thresholds always come from empirical null quantiles so every
panel is treated uniformly.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy import stats as sps

from .channel import ChannelModel, PropagationSpec, narrowband_channel
from .detectors import ChannelKnowledge, KnowledgeSpec, detect
from .errors import ConfigError
from .measurement import MeasurementSet, draw_amplitudes, simulate

_WILSON_Z = 1.959963984540054  # two-sided 95%


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


def _trial_block(args) -> np.ndarray:
    (panel, channels, m, seed, trials, amp_scale, n_modes, trial_offset) = args
    out = np.empty(len(trials))
    for k, trial in enumerate(trials):
        amps = None
        if amp_scale is not None:
            amps = draw_amplitudes(n_modes, m, amp_scale, seed, trial=trial + trial_offset)
        ms = simulate(channels, m, seed, amplitudes=amps, trial=trial + trial_offset)
        out[k] = detect(panel, channels, ms).composite
    return out


def _statistic_sample(
    panel: KnowledgeSpec,
    scenario: Scenario,
    trials: int,
    seed: int,
    amp_scale: float | None,
    trial_offset: int = 0,
    jobs: int = 1,
) -> np.ndarray:
    channels = scenario.channels()
    indices = np.arange(trials)
    if jobs <= 1:
        return _trial_block((panel, channels, scenario.n_snapshots, seed,
                             indices, amp_scale, scenario.n_modes, trial_offset))
    chunks = np.array_split(indices, jobs)
    args = [(panel, channels, scenario.n_snapshots, seed, chunk, amp_scale,
             scenario.n_modes, trial_offset) for chunk in chunks if len(chunk)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        pieces = list(pool.map(_trial_block, args))
    return np.concatenate(pieces)


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
    """Empirical null sample with optional reference-distribution KS summary."""

    sample: np.ndarray
    panel: str
    ks_reference: str | None = None
    ks_statistic: float | None = None
    ks_pvalue: float | None = None
    reference_params: tuple[float, float] | None = None
    moment_matched: tuple[float, float] | None = None
    low_trials_warning: bool = False


def _beta_reference(scenario: Scenario) -> tuple[float, float]:
    n = scenario.specs[0].n_samples
    j = scenario.n_modes
    m = scenario.n_snapshots
    return float(m * j), float(m * (n - j))


def run_null(spec: ExperimentSpec, jobs: int = 1) -> NullDistribution:
    """Simulate the null hypothesis and summarize the statistic's distribution.

    For the single-channel scale-invariant panels the empirical sample is
    KS-tested against its analytic family: an energy-fraction Beta law for
    the common-unknown-noise panel, and its -ln(1 - x) transform for the
    per-channel-noise panel.
    """
    sample = np.sort(_statistic_sample(spec.panel, spec.scenario, spec.trials,
                                       spec.seed, None, jobs=jobs))
    low_trials = spec.trials < 100
    panel = spec.panel.panel
    single = spec.scenario.n_channels == 1
    ks_ref = None
    ks_stat = ks_p = None
    ref_params = None
    matched = None
    has_residual_dims = spec.scenario.specs[0].n_samples > spec.scenario.n_modes
    if single and has_residual_dims and panel in ("P12", "P13"):
        a, b = _beta_reference(spec.scenario)
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
    smallest = min(spec.pfa_targets)
    if spec.trials < _required_trials(smallest):
        raise ConfigError(
            f"{spec.trials} trials cannot resolve pfa={smallest}; "
            f"need at least {_required_trials(smallest)}"
        )
    null_sample = _statistic_sample(spec.panel, spec.scenario, spec.trials,
                                    spec.seed, None, jobs=jobs)
    order = np.argsort(spec.pfa_targets)[::-1]  # large pfa -> small threshold
    pfas_sorted = np.asarray(spec.pfa_targets)[order]
    thresholds = np.quantile(null_sample, 1.0 - pfas_sorted)
    thresholds = np.maximum.accumulate(thresholds)  # guard quantile ties
    curves = []
    for k, snr in enumerate(spec.snr_db):
        scale = spec.scenario.amplitude_scale(snr)
        alt = _statistic_sample(spec.panel, spec.scenario, spec.trials, spec.seed,
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
    if not (0.0 < pfa < 1.0):
        raise ConfigError(f"pfa must lie in (0, 1), got {pfa}")
    if spec.trials < _required_trials(pfa):
        raise ConfigError(
            f"{spec.trials} trials cannot resolve pfa={pfa}; "
            f"need at least {_required_trials(pfa)}"
        )
    sample = _statistic_sample(spec.panel, spec.scenario, spec.trials,
                               spec.seed, None, jobs=jobs)
    threshold = float(np.quantile(sample, 1.0 - pfa))
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


def scan_likelihood_image(
    panel: KnowledgeSpec,
    scenario: Scenario,
    measurements: MeasurementSet,
    delays_s: Sequence[float],
    dopplers_hz: Sequence[float],
    scan_channels: Sequence[int] | None = None,
) -> LikelihoodImage:
    """Evaluate the detector over a grid of delay/Doppler hypotheses.

    Each hypothesis rebuilds the narrowband coupling matrices of the scanned
    channels with the grid cell's (delay, Doppler) and re-runs the detector.
    A delay common to every channel is unobservable (it only rephases the
    composite), so by default the hypothesis is differential: the first
    channel keeps its base parameters as the reference and all others are
    scanned.  Single-channel scans apply the hypothesis to that channel,
    which resolves Doppler only.
    """
    if panel.channel_knowledge == ChannelKnowledge.UNKNOWN_SUBSPACE:
        raise ConfigError("likelihood images need a known-coupling panel")
    delays = np.asarray(list(delays_s), dtype=float)
    dopplers = np.asarray(list(dopplers_hz), dtype=float)
    if delays.size == 0 or dopplers.size == 0:
        raise ValueError("hypothesis grid must be non-empty")
    n_ch = scenario.n_channels
    if scan_channels is None:
        scan_channels = range(n_ch) if n_ch == 1 else range(1, n_ch)
    scan_set = set(int(i) for i in scan_channels)
    base_channels = scenario.channels()
    values = np.empty((delays.size, dopplers.size))
    for a, tau in enumerate(delays):
        for b, nu in enumerate(dopplers):
            channels = []
            for idx in range(n_ch):
                if idx in scan_set:
                    cell_spec = replace(scenario.specs[idx], delay_s=float(tau),
                                        doppler_hz=float(nu))
                    channels.append(narrowband_channel(
                        cell_spec, scenario.gains[idx], scenario.noise_variances[idx]))
                else:
                    channels.append(base_channels[idx])
            values[a, b] = detect(panel, channels, measurements).composite
    flat = int(np.argmax(values))
    argmax = (flat // dopplers.size, flat % dopplers.size)
    return LikelihoodImage(values=values, delays_s=delays, dopplers_hz=dopplers,
                           argmax_index=argmax)
