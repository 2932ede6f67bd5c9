"""Monte-Carlo experiments: null distributions, ROC curves, threshold
calibration, and likelihood-image parameter scans.

Trials are independent and deterministically seeded per (seed, trial): a
trial keeps its rows of the draws of its block of trials, which depend on the
seed and the block alone (``measurement.draw_trials``), so results are
identical whatever the execution order, chunking or level of parallelism.
They are evaluated in chunks of bounded memory: a chunk's amplitudes are
drawn in one call, and its data as per-channel stacks of what the panel
reads, which is then summarised and evaluated together; every
trial gets the checks a :class:`~glrfusion.detectors.DetectorReport` applies.
Rows 1 and 2 read a block X_l only through its coordinates a_l = Q_l^H X_l
and its tail, so their trials draw those directly, a_l = g_l R_l A +
sigma_l W_l and the tail sigma_l^2 Gamma((N_l - J) M, 1) / M, which is exact
in law (``measurement.draw_trials``).  Row 3 reads a block only through its
singular values, so through X_l^H X_l: its trials also draw the factor T_l of
the tail, a scaled complex Bartlett factor of at most M rows, and read the
stack [a_l; T_l], whose Gram matrix is X_l^H X_l.  No panel forms an N_l x M
array.  ``simulate`` builds the blocks from the same draws, so every panel
and ``simulate`` see one data set per trial.  Thresholds always
come from empirical null quantiles so every panel is treated uniformly.

A chunk's interior boundaries fall on multiples of ``measurement._BLOCK`` in
absolute trial ids, so no two chunks of a run draw the same block of trials.
A :class:`Scenario` keeps the draws of its latest chunks at one seed, so the
panels run on it at that seed share them: ``run_null``, ``run_roc`` and
``calibrate_threshold`` with one job read and fill this memo.  It keeps one
read-only value per key, the amplitude scale (or none), the chunk's trial ids
and the row class: for rows 1 and 2 the chunk's drawn coordinates and tails,
and for row 3 row 3's summary, which holds the factors [a_l; T_l] and their
split at J that every column of row 3 reads.  Row 3's draw of a chunk also
keeps the chunk's coordinates and tails for rows 1 and 2, unless they are
kept, so a kept chunk is drawn at most twice, once when row 3 comes first,
and split at J once.  The coordinates and tails are the same bit for bit either
way.  A row-3 call on a kept summary skips only the summary's checks, which
do not depend on the column and passed when it was built: column 3's gate and
the decomposition checks run in every ``evaluate``.  Chunks match only
exactly: rows whose stacks size them differently do not share.  A new seed
empties the memo; it holds at most ``_CHUNK_ENTRIES`` complex entries, the
oldest kept dropped first, and a value that does not fit alone is not kept.
Runs with more than one job neither read nor fill it, and separate processes
(each CLI command) never share it.

The module needs numpy alone: ``scipy.stats`` serves only :func:`run_null`'s
KS reference and loads on the first null run that KS-tests, and the process
pool loads on the first run with more than one job.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .channel import (
    ChannelModel,
    PropagationSpec,
    narrowband_channel,
    narrowband_factors,
    require_gain_and_noise,
)
from .detectors import (
    ChannelKnowledge,
    KnowledgeSpec,
    coordinate_summary,
    evaluate,
    summarise,
)
from .errors import ConfigError
from .linalg import energy
from .measurement import _BLOCK, MeasurementSet, amplitude_stack, draw_trials

_WILSON_Z = 1.959963984540054  # two-sided 95%
# Complex entries of the largest temporary one step of a scan or of a chunk
# of trials forms: 2**18 entries, 4 MiB.
_CHUNK_ENTRIES = 1 << 18
# Complex entries of one block of a scan's demodulated Doppler bins, which
# bounds the bank's two reused buffers whatever the grid's size: 2**13
# entries, 128 KiB each.  Smaller blocks pay a per-block overhead that larger
# ones do not repay: at N = 64, M = 16 and 64 bins one channel's bank took
# 0.81 ms at 2**13 entries, 0.77-0.85 ms at 2**14 to 2**18, and 0.95, 1.2 and
# 1.5 ms at 2**12, 2**11 and 2**10 (one BLAS thread on a 2-vCPU Xeon VM).
_BANK_ENTRIES = 1 << 13


@dataclass(frozen=True)
class Scenario:
    """Physical channel specs plus snapshot count for one experiment.

    The channels are built once, on first use, and every later call on the
    same scenario shares them, with the bases they cache.  With one job, the
    draws of its latest Monte-Carlo chunks at one seed are kept too, as rows
    1 and 2's coordinates and tails and as row 3's summary (see the module
    docstring), so every panel run on the scenario at that seed reads the
    same draws.  A scenario made by ``dataclasses.replace`` is a new object
    and builds its own channels and memo; a pickled scenario carries no
    memo.
    """

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
        for idx, (g, v) in enumerate(zip(self.gains, self.noise_variances)):
            require_gain_and_noise(g, v, f"channel {idx} ")

    @property
    def n_channels(self) -> int:
        return len(self.specs)

    @property
    def n_modes(self) -> int:
        return self.specs[0].n_modes

    @functools.cached_property
    def _channels(self) -> tuple[ChannelModel, ...]:
        return tuple(narrowband_channel(spec, g, v)
                     for spec, g, v in zip(self.specs, self.gains, self.noise_variances))

    def channels(self) -> list[ChannelModel]:
        """The scenario's channels: built on first use, then the same
        (immutable) objects on every call, in a new list each time."""
        return list(self._channels)

    @functools.cached_property
    def _draws(self) -> _DrawMemo:
        return _DrawMemo()

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_draws"}

    def amplitude_scale(self, snr_db: float) -> float:
        """Amplitude standard deviation realizing a mean per-channel SNR.

        Per-channel SNR is |g_l|^2 E||a||^2 / (J sigma_l^2); amplitudes are
        drawn iid CN(0, s^2), so s is chosen to make the channel-averaged
        SNR equal the requested value.

        Raises
        ------
        ConfigError
            If the scale is not finite and positive: the SNR or a gain
            overflows, or every gain is zero.
        """
        try:
            snr = 10.0 ** (snr_db / 10.0)
            gain_over_noise = np.mean([
                abs(g) ** 2 / v for g, v in zip(self.gains, self.noise_variances)
            ])
        except OverflowError:
            scale = math.nan
        else:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                scale = float(np.sqrt(snr / gain_over_noise))
        if not (math.isfinite(scale) and scale > 0.0):
            raise ConfigError(f"snr_db={snr_db!r} with these gains and noise variances gives "
                              f"no finite positive amplitude scale")
        return scale


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
    if not 0 <= successes <= trials:
        raise ConfigError(f"successes={successes} outside [0, trials={trials}]")
    z = _WILSON_Z
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1 - p_hat) / trials
                                   + z * z / (4 * trials * trials))
    return center - half, center + half, half


def _arrays(value) -> list[np.ndarray]:
    """The arrays of a kept value: its own, or those of its fields and items."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in _arrays(item)]
    return []


class _DrawMemo:
    """The draws of a scenario's latest chunks at one seed: the module
    docstring gives the key, the value and the bound."""

    def __init__(self):
        self.seed = None
        self.entries: dict[tuple, object] = {}  # oldest first

    def find(self, seed: int, key: tuple):
        """The value kept under ``key`` at ``seed``, or None; a new seed empties the memo."""
        if seed != self.seed:
            self.seed = seed
            self.entries.clear()
        return self.entries.get(key)

    def keep(self, key: tuple, value) -> None:
        """Keep ``value`` under ``key``, read-only, unless the key is kept or
        the value does not fit alone."""
        arrays = _arrays(value)
        nbytes = sum(a.nbytes for a in arrays)
        bound = 16 * _CHUNK_ENTRIES  # bytes of as many complex entries
        if key in self.entries or nbytes > bound:
            return
        while sum(a.nbytes for kept in self.entries.values()
                  for a in _arrays(kept)) + nbytes > bound:
            del self.entries[next(iter(self.entries))]
        for a in arrays:
            a.flags.writeable = False
        self.entries[key] = value


def _trial_block(panel: KnowledgeSpec, channels: Sequence[ChannelModel], m: int, seed: int,
                 amp_scale: float | None, ids: np.ndarray,
                 memo: _DrawMemo | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Composites and degenerate flags of the trials ``ids``, evaluated together.

    The trials are drawn with their amplitudes at ``amp_scale`` (none: noise
    only).  Rows 1 and 2 read each trial's coordinates and tails as drawn,
    row 3 also the factors of its tails, through ``memo`` when one is given:
    it keeps rows 1 and 2's draws and row 3's summary under keys of their
    own, and a row-3 draw fills both.  A trial's value does not depend on
    the other trials: its data are its rows of its block's draws, and every
    step treats the matrices of a stack apart.
    """
    row3 = panel.channel_knowledge == ChannelKnowledge.UNKNOWN_SUBSPACE
    key = (amp_scale, ids.tobytes())
    value = None if memo is None else memo.find(seed, key + (row3,))
    if value is None:
        amps = None
        if amp_scale is not None:
            amps = amplitude_stack(channels[0].n_modes, m, amp_scale, seed, ids)
        draws = draw_trials(channels, m, seed, ids, amps, factors=row3)
        value = (coordinate_summary(panel, channels, draws.coords, draws.tails, draws.factors)
                 if row3 else draws)
        if memo is not None:  # a row-3 draw serves rows 1 and 2 too
            memo.keep(key + (False,), draws._replace(factors=None))
            if row3:
                memo.keep(key + (True,), value)
    summary = value if row3 else coordinate_summary(panel, channels, value.coords, value.tails)
    ev = evaluate(panel, summary)
    return ev.composite, ev.degenerate


def _statistic_sample(
    panel: KnowledgeSpec,
    scenario: Scenario,
    trials: int,
    seed: int,
    amp_scale: float | None,
    trial_offset: int = 0,
    jobs: int = 1,
) -> tuple[np.ndarray, int]:
    """The panel's composite on each trial, and the number of degenerate trials.

    Each chunk of trials, at least one per job while the blocks of trials
    allow, is evaluated in one pass.  A chunk is sized by the largest stack
    it forms: the L J x M coordinates of a trial on rows 1 and 2, and on row
    3 its L factors [a_l; T_l], each of k_l + min(N_l - k_l, M) = min(N_l, J
    + M) rows at most.  With one job the chunks' draws go through the
    scenario's memo.
    """
    channels = scenario.channels()
    m, j = scenario.n_snapshots, scenario.n_modes
    height = (max(min(ch.n_samples, j + m) for ch in channels)
              if panel.channel_knowledge == ChannelKnowledge.UNKNOWN_SUBSPACE else j)
    chunks = _chunks(trials, len(channels) * height * m, jobs, trial_offset, _BLOCK)
    block = functools.partial(_trial_block, panel, channels, m, seed, amp_scale)
    if jobs <= 1:
        results = [block(ids, scenario._draws) for ids in chunks]
    else:
        # Deferred: importing the process pool adds about 15 ms to a cold start.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(block, chunks))
    values, degenerate = (np.concatenate(parts) for parts in zip(*results))
    return values, int(np.count_nonzero(degenerate))


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
    per-channel-noise panel P13 is its -ln(1 - x) transform.  The first such
    test in a process imports ``scipy.stats``.
    """
    sample, degenerate = _statistic_sample(spec.panel, spec.scenario, spec.trials,
                                           spec.seed, None, jobs=jobs)
    panel = spec.panel.panel
    scenario = spec.scenario
    null = NullDistribution(sample=np.sort(sample), panel=panel,
                            low_trials_warning=spec.trials < 100, degenerate_trials=degenerate)
    a, b = _beta_reference(scenario)  # b = 0 leaves no residual dimension
    known_law = ((panel == "P12" and len(set(scenario.noise_variances)) == 1)
                 or (panel == "P13" and scenario.n_channels == 1))
    if b <= 0 or not known_law:
        return null

    def to_beta(x):  # P12's Beta variable, of which P13 is -ln(1 - x)
        return x if panel == "P12" else 1.0 - np.exp(-np.asarray(x))

    from scipy import stats as sps  # deferred: importing it dominates a cold start

    res = sps.kstest(null.sample, lambda x: sps.beta(a, b).cdf(to_beta(x)))
    try:
        matched = _beta_moment_match(to_beta(null.sample))
    except ValueError:
        matched = None
    return replace(null, ks_reference="beta" if panel == "P12" else "log-energy-ratio",
                   ks_statistic=float(res.statistic), ks_pvalue=float(res.pvalue),
                   reference_params=(a, b), moment_matched=matched)


@dataclass(frozen=True)
class RocCurve:
    """Empirical ROC at one SNR: thresholds with estimated pfa/pd, and the
    degenerate trial counts of its alternative and null samples."""

    thresholds: np.ndarray
    pfa: np.ndarray
    pd: np.ndarray
    trials: int
    wilson_halfwidth: np.ndarray
    pfa_halfwidth: np.ndarray
    snr_db: float
    degenerate_trials: int = 0
    null_degenerate_trials: int = 0

    def __post_init__(self):
        for name in ("thresholds", "pfa", "pd", "wilson_halfwidth", "pfa_halfwidth"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(self.thresholds[1:] < self.thresholds[:-1]):  # no inf - inf
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


def _quantiles(sample: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """np.quantile's linear quantiles, +inf wherever one weighs a +inf (degenerate) trial.

    np.quantile forms inf * 0 = nan at zero weight.  Capped at the largest
    float, an inf leaves the other quantiles' bits as they are and lifts
    those that weigh it above every finite sample.
    """
    q = np.quantile(np.minimum(sample, np.finfo(float).max), probs)
    return np.where(q > np.max(sample, where=np.isfinite(sample), initial=-np.inf), np.inf, q)


def _null_thresholds(spec: ExperimentSpec, pfas: np.ndarray,
                     jobs: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Null sample, its (1 - pfa) quantiles for descending pfas, and its degenerate count."""
    for p in pfas:
        if not (0.0 < p < 1.0):
            raise ConfigError(f"pfa must lie in (0, 1), got {p}")
    smallest = float(min(pfas))
    needed = 10.0 / smallest  # inf for a subnormal pfa
    if spec.trials < needed:
        raise ConfigError(
            f"{spec.trials} trials cannot resolve pfa={smallest}; "
            f"need at least {math.ceil(needed) if math.isfinite(needed) else needed}"
        )
    sample, degenerate = _statistic_sample(spec.panel, spec.scenario, spec.trials,
                                           spec.seed, None, jobs=jobs)
    thresholds = _quantiles(sample, 1.0 - pfas)
    return sample, np.maximum.accumulate(thresholds), degenerate  # guard quantile ties


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
    scales = [spec.scenario.amplitude_scale(snr) for snr in spec.snr_db]
    null_sample, thresholds, null_degenerate = _null_thresholds(
        spec, np.sort(spec.pfa_targets)[::-1], jobs)  # large pfa -> small threshold

    def rates(sample):  # exceedance counts / trials and their Wilson half-widths
        counts = [int((sample > t).sum()) for t in thresholds]
        halves = np.array([wilson_interval(c, spec.trials)[2] for c in counts])
        return np.array(counts) / spec.trials, halves

    pfa, pfa_half = rates(null_sample)
    curves = []
    for k, (snr, scale) in enumerate(zip(spec.snr_db, scales)):
        alt, degenerate = _statistic_sample(spec.panel, spec.scenario, spec.trials, spec.seed,
                                            scale, trial_offset=(k + 1) * spec.trials, jobs=jobs)
        pd, pd_half = rates(alt)
        curves.append(RocCurve(
            thresholds=thresholds,
            pfa=pfa.copy(),  # no two curves share a pfa array
            pd=pd,
            trials=spec.trials,
            wilson_halfwidth=pd_half,
            pfa_halfwidth=pfa_half.copy(),
            snr_db=float(snr),
            degenerate_trials=degenerate,
            null_degenerate_trials=null_degenerate,
        ))
    return curves


@dataclass(frozen=True)
class ThresholdCalibration:
    """Null-quantile threshold for one target pfa, and the null's degenerate trial count."""

    threshold: float
    pfa_target: float
    achieved_pfa: float
    wilson_low: float
    wilson_high: float
    trials: int
    degenerate_trials: int = 0


def calibrate_threshold(spec: ExperimentSpec, pfa: float, jobs: int = 1) -> ThresholdCalibration:
    """Empirical null quantile for a target false-alarm probability."""
    sample, thresholds, degenerate = _null_thresholds(spec, np.array([pfa]), jobs)
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
        degenerate_trials=degenerate,
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


def _chunks(count: int, entries_each: int, at_least: int = 1, start: int = 0,
            align: int = 1) -> list[np.ndarray]:
    """Consecutive ranges over the ``count`` indices from ``start``, each under
    the memory bound, and at least ``at_least`` of them while the indices allow.

    Interior boundaries fall on multiples of ``align``, unless ``align``
    indices overflow the bound: the ranges split the runs of indices between
    those multiples as ``np.array_split`` splits indices, so ``align`` = 1
    gives its ranges.
    """
    per_chunk = max(1, _CHUNK_ENTRIES // entries_each)
    if per_chunk < align:
        align = 1
    first = start // align
    runs = np.arange(first, (start + count - 1) // align + 1)
    parts = np.array_split(runs, min(runs.size,
                                     max(at_least, -(-runs.size // (per_chunk // align)))))
    bounds = [start, *(int(part[0]) * align for part in parts[1:]), start + count]
    return [np.arange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _doppler_bank(channel: ChannelModel, spec: PropagationSpec, x: np.ndarray,
                  delays: np.ndarray, dopplers: np.ndarray):
    """A scanned channel's coupling factors on every delay, and its
    coordinates and tails on every Doppler bin.

    Every cell is H(tau, nu) = D_N(nu Ts) H_0 Phi(tau) with D_N and Phi
    unitary diagonals (``channel.narrowband_factors``), and so is the
    channel's own coupling H_b = Q_b R_b at its base (tau_b, nu_b).  One basis
    serves the whole grid: Q(nu) = E(nu) Q_b and R(tau) = R_b Phi(tau_b)^H
    Phi(tau), with E(nu) = D_N(nu Ts) D_N(nu_b Ts)^H, so bin nu's coordinates
    and tail are those of the demodulated block E(nu)^H X in Q_b, formed in
    blocks of at most ``_BANK_ENTRIES`` entries.  Returns R(tau) (n_delay, J,
    J), the coordinates (n_doppler, J, M) and the tails (n_doppler,).  No cell
    needs checks of its own: unitary diagonals on either side change neither
    trace(H^H H), the singular values (row 1's rank gate) nor H^H H = I (row
    2), which ``summarise`` checks on H_b.
    """
    n, m = x.shape
    doppler, delay = narrowband_factors(spec, delays, dopplers)
    base_doppler, base_delay = narrowband_factors(spec, [spec.delay_s], [spec.doppler_hz])
    demodulate = doppler.conj() * base_doppler
    q = channel.basis
    qh = q.conj().T
    coords = np.empty((dopplers.size, channel.n_modes, m), dtype=complex)
    tails = np.empty(dopplers.size)
    per_block = max(1, _BANK_ENTRIES // (n * m))
    y_buf, fit_buf = np.empty((2, min(per_block, dopplers.size), n, m), dtype=complex)
    for lo in range(0, dopplers.size, per_block):
        part = slice(lo, lo + per_block)
        a = coords[part]
        y, fit = y_buf[:len(a)], fit_buf[:len(a)]
        np.multiply(demodulate[part, :, None], x, out=y)
        np.matmul(qh, y, out=a)
        np.subtract(y, np.matmul(q, a, out=fit), out=y)
        tails[part] = energy(y) / m
    return channel.coupling * (base_delay.conj() * delay)[:, None, :], coords, tails


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
    narrowband coupling is H(tau, nu) = D_N(nu Ts) H_0 Phi(tau) with D_N and
    Phi unitary diagonals, so a scanned channel keeps one basis Q over the
    grid: bin nu's basis is Q rephased by D_N, its coordinates and tail are
    those of the demodulated block in Q, and a cell only rephases the J x J
    factor R = Q^H H by Phi.  No matrix is factored per bin or per cell.  The
    detectors' rows 1 and 2 then evaluate the cells together, in chunks of
    bounded memory.  The checks ``detect`` applies hold for every cell: the
    trace normalisation and the rank gate (row 1) or orthonormality (row 2),
    checked on each channel's own coupling, which D_N and Phi leave
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
    channels = scenario.channels()
    base = summarise(panel, channels, [x[None] for x in measurements.blocks])
    banks = {idx: _doppler_bank(channels[idx], scenario.specs[idx], measurements.block(idx),
                                delays, dopplers) for idx in scanned}
    _, n_ch, j, m = base.coords.shape
    values = np.empty(delays.size * dopplers.size)
    for part in _chunks(values.size, n_ch * j * (j + m)):
        rows, cols = np.divmod(part, dopplers.size)
        coupling, coords, tails = (
            np.broadcast_to(field, (rows.size, n_ch) + shape).copy()
            for field, shape in ((base.coupling, (j, j)), (base.coords, (j, m)), (base.tails, ())))
        for idx, (factors, bin_coords, bin_tails) in banks.items():
            coupling[:, idx] = factors[rows]
            coords[:, idx] = bin_coords[cols]
            tails[:, idx] = bin_tails[cols]
        values[part] = evaluate(panel, base._replace(coupling=coupling, coords=coords,
                                                     tails=tails)).composite
    values = values.reshape(delays.size, dopplers.size)
    flat = int(np.argmax(values))
    argmax = (flat // dopplers.size, flat % dopplers.size)
    return LikelihoodImage(values=values, delays_s=delays, dopplers_hz=dopplers,
                           argmax_index=argmax)
