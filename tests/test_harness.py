"""Tests for the Monte-Carlo harness: nulls, ROC, calibration, scans."""

from __future__ import annotations

import dataclasses
import logging
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats as sps

from glrfusion import (
    ChannelModel,
    ConfigError,
    DegenerateDataError,
    ExperimentSpec,
    KnowledgeSpec,
    MeasurementSet,
    PropagationSpec,
    Scenario,
    build_narrowband_h,
    calibrate_threshold,
    detect,
    narrowband_channel,
    normalize_channel,
    run_null,
    run_roc,
    scan_likelihood_image,
    simulate,
    wilson_interval,
)
from glrfusion import detectors, harness, measurement
from glrfusion.detectors import coordinate_summary, evaluate
from glrfusion.linalg import energy
from glrfusion.measurement import (
    TrialDraws,
    _frame,
    amplitude_stack,
    draw_amplitudes,
    draw_trials,
    rng_stream,
)
from oracles import detect_p12, entrywise_sample, scan_by_rebuild

log = logging.getLogger(__name__)


def single_channel_scenario(n=8, j=1, m=4) -> Scenario:
    spec = PropagationSpec(carrier_hz=1e6, sample_period_s=1e-3, n_samples=n, n_modes=j)
    return Scenario(specs=(spec,), gains=(1.0,), noise_variances=(1.0,), n_snapshots=m)


def two_channel_scenario(m=16, n=12, j=2, delay=None, doppler=None) -> Scenario:
    base = PropagationSpec(carrier_hz=1e6, sample_period_s=1e-3, n_samples=n, n_modes=j)
    duration = n * 1e-3
    second = PropagationSpec(
        carrier_hz=1e6, sample_period_s=1e-3, n_samples=n, n_modes=j,
        delay_s=0.0 if delay is None else delay,
        doppler_hz=0.0 if doppler is None else doppler,
    )
    return Scenario(specs=(base, second), gains=(1.0, 0.8 + 0.3j),
                    noise_variances=(1.0, 1.0), n_snapshots=m)


def three_channel_scenario(variances=(1.0, 1.0, 1.0)) -> Scenario:
    """Three ragged channels (N_l = 16, 12, 20), J = 2, M = 8."""
    specs = tuple(PropagationSpec(carrier_hz=1e6, sample_period_s=1e-3, n_samples=n, n_modes=2,
                                  delay_s=delay, doppler_hz=doppler)
                  for n, delay, doppler in ((16, 0.0, 0.0), (12, 3e-3, 20.0), (20, 7e-3, -35.0)))
    return Scenario(specs=specs, gains=(1.0, 0.8 + 0.3j, 1.3), noise_variances=variances,
                    n_snapshots=8)


def row3_ragged_scenario(panel: str) -> Scenario:
    """Ragged channels about M = 8 snapshots, J = 2: N_l - J < M, = M and > M,
    and one with N_l = J, which leaves no tail, unless the panel is on column
    3, which needs a tail on every channel."""
    dims = (7, 10, 20) if panel.endswith("3") else (7, 10, 20, 2)
    specs = tuple(PropagationSpec(carrier_hz=1e6, sample_period_s=1e-3, n_samples=n, n_modes=2,
                                  delay_s=1e-3 * idx, doppler_hz=15.0 * idx)
                  for idx, n in enumerate(dims))
    gains, variances = (1.0, 0.8 + 0.3j, 1.3, 0.6j), (1.0, 2.0, 0.5, 1.5)
    return Scenario(specs=specs, gains=gains[:len(dims)], noise_variances=variances[:len(dims)],
                    n_snapshots=8)


@dataclasses.dataclass(frozen=True)
class FixedChannelScenario(Scenario):
    """A scenario whose channels are given matrices rather than built from its specs."""

    fixed: tuple[ChannelModel, ...] = ()

    def channels(self) -> list[ChannelModel]:
        return list(self.fixed)


@pytest.fixture
def channel_builds(monkeypatch) -> list[tuple]:
    """The arguments of every channel the harness builds from here on."""
    builds = []

    def count_build(*args, **kwargs):
        builds.append(args)
        return narrowband_channel(*args, **kwargs)

    monkeypatch.setattr(harness, "narrowband_channel", count_build)
    return builds


P11 = KnowledgeSpec.from_panel("P11")
P12 = KnowledgeSpec.from_panel("P12")
P13 = KnowledgeSpec.from_panel("P13")
P21 = KnowledgeSpec.from_panel("P21")
P31 = KnowledgeSpec.from_panel("P31")
ROW3_PANELS = ["P31", "P32", "P33"]
KNOWN_COUPLING_PANELS = [f"P{row}{col}" for row in "12" for col in "123"]
ALL_PANELS = [f"P{row}{col}" for row in "123" for col in "123"]


def scan_case(case: str):
    """A scenario, H1 data from it, a grid and the channels scanned, for one
    of the scan-equivalence cases."""
    carrier, period, n, j, offset = 1e6, 1e-3, 8, 2, 0.0
    n_channels, scan_channels = 3, None
    if case == "single-channel":
        n_channels = 1
    elif case == "explicit-with-reference":
        scan_channels = [0, 2]
    elif case == "clock-offset":
        offset = 2.7e-3
    elif case == "gigahertz":
        carrier, period = 1e9, 1e-6
    rng = np.random.default_rng(sum(map(ord, case)))
    duration = n * period
    specs = tuple(PropagationSpec(carrier_hz=carrier, sample_period_s=period, n_samples=n,
                                  n_modes=j, clock_offset_s=offset,
                                  delay_s=float(rng.uniform(0, duration)),
                                  doppler_hz=float(rng.uniform(-2, 2) / duration))
                  for _ in range(n_channels))
    scenario = Scenario(specs=specs,
                        gains=tuple(complex(*rng.uniform(-1.5, 1.5, 2)) for _ in specs),
                        noise_variances=tuple(rng.uniform(0.5, 2.0, n_channels)),
                        n_snapshots=5)
    amps = draw_amplitudes(j, 5, scenario.amplitude_scale(8.0), 11)
    ms = simulate(scenario.channels(), 5, seed=12, amplitudes=amps)
    top_delay = 1e-5 if case == "gigahertz" else duration
    delays = list(np.linspace(0.0, top_delay, 3))
    dopplers = list(np.linspace(-2.0, 2.0, 4) / duration)
    if scan_channels is None:
        scan_channels = [0] if n_channels == 1 else list(range(1, n_channels))
    return scenario, ms, delays, dopplers, scan_channels


def assert_images_close(image: np.ndarray, reference: np.ndarray) -> None:
    assert image.shape == reference.shape
    finite = np.isfinite(reference)
    np.testing.assert_array_equal(np.isfinite(image), finite)
    np.testing.assert_array_equal(image[~finite], reference[~finite])
    gap = np.abs(image[finite] - reference[finite])
    assert np.all(gap <= 1e-10 * np.maximum(1.0, np.abs(reference[finite])))


class TestRunNull:
    def test_beta_reference(self):
        spec = ExperimentSpec(panel=P12, scenario=single_channel_scenario(),
                              trials=3000, seed=7)
        null = run_null(spec)
        assert null.ks_reference == "beta"
        assert null.reference_params == (4.0, 28.0)
        assert null.ks_pvalue > 0.01
        a, b = null.moment_matched
        assert a == pytest.approx(4.0, rel=0.25)
        assert b == pytest.approx(28.0, rel=0.25)

    def test_log_ratio_reference(self):
        spec = ExperimentSpec(panel=P13, scenario=single_channel_scenario(),
                              trials=3000, seed=11)
        null = run_null(spec)
        assert null.ks_reference == "log-energy-ratio"
        assert null.ks_pvalue > 0.01

    def test_multi_channel_beta_reference(self):
        # With one noise variance the P12 composite is the energy fraction of
        # N = sum N_l = 48 white samples inside a J = 2 span.
        spec = ExperimentSpec(panel=P12, scenario=three_channel_scenario(), trials=3000, seed=1)
        null = run_null(spec)
        assert null.ks_reference == "beta"
        assert null.reference_params == (16.0, 368.0)
        assert null.ks_pvalue > 0.01

    def test_known_noise_gamma_law(self):
        # P11 is ||P_F Z_w||^2 / (L M) with Z_w the whitened data, iid CN(0, 1)
        # under the null whatever the variances and the span of F, so
        # Gamma(JM, scale 1 / (LM)) on unequal variances and channels that are
        # not orthonormal.
        rng = np.random.default_rng(42)
        channels = tuple(dataclasses.replace(random_channel(rng, n, 2), gain=g, noise_variance=v)
                         for n, v, g in ((16, 1.0, 1.0), (12, 3.0, 0.8 + 0.3j), (20, 0.5, 1.3)))
        assert not any(ch.orthonormal for ch in channels)
        spec = ExperimentSpec(panel=P11, scenario=FixedChannelScenario(
            specs=three_channel_scenario().specs, gains=tuple(ch.gain for ch in channels),
            noise_variances=tuple(ch.noise_variance for ch in channels), n_snapshots=8,
            fixed=channels), trials=3000, seed=5)
        null = run_null(spec)
        assert null.ks_reference is None
        assert sps.kstest(null.sample, sps.gamma(16, scale=1 / 24).cdf).pvalue > 1e-3

    def test_unequal_variances_have_no_beta_reference(self):
        spec = ExperimentSpec(panel=P12, scenario=three_channel_scenario((1.0, 3.0, 0.5)),
                              trials=1000, seed=1)
        null = run_null(spec)
        assert null.ks_reference is None and null.ks_pvalue is None
        # The energy fraction is no longer Beta(JM, (N - J)M).
        assert sps.kstest(null.sample, sps.beta(16.0, 368.0).cdf).pvalue < 1e-6

    @pytest.mark.parametrize("panel, factors", [
        *((p, (1e-3, 1.0, 1e4)) for p in ("P13", "P23", "P33")),
        *((p, (c, c, c)) for p in ("P12", "P22", "P32") for c in (7.0, 1e4)),
    ])
    def test_null_sample_is_cfar(self, panel, factors):
        # Per-channel unknown variances: any per-channel noise factor; a common
        # unknown variance: a common factor.  The same seed draws the same
        # standard normals, so the samples agree to rounding, relative to
        # max(1, |value|).
        base = three_channel_scenario((1.0, 2.0, 0.5))
        scaled = dataclasses.replace(base, noise_variances=tuple(
            v * f for v, f in zip(base.noise_variances, factors)))
        reference, sample = (
            run_null(ExperimentSpec(panel=KnowledgeSpec.from_panel(panel), scenario=scenario,
                                    trials=200, seed=3)).sample
            for scenario in (base, scaled))
        assert np.all(np.abs(sample - reference) <= 1e-14 * np.maximum(1.0, np.abs(reference)))

    def test_two_seeds_consistent(self):
        scenario = single_channel_scenario()
        a = run_null(ExperimentSpec(panel=P12, scenario=scenario, trials=2000, seed=1))
        b = run_null(ExperimentSpec(panel=P12, scenario=scenario, trials=2000, seed=2))
        assert sps.ks_2samp(a.sample, b.sample).pvalue > 0.01

    def test_degenerate_full_mode_point_mass(self):
        spec = ExperimentSpec(panel=P12, scenario=single_channel_scenario(n=4, j=4),
                              trials=200, seed=5)
        null = run_null(spec)
        np.testing.assert_allclose(null.sample, 1.0, atol=1e-10)
        assert null.ks_reference is None

    def test_low_trials_warning(self):
        spec = ExperimentSpec(panel=P12, scenario=single_channel_scenario(),
                              trials=50, seed=3)
        assert run_null(spec).low_trials_warning

    def test_deterministic(self):
        spec = ExperimentSpec(panel=P12, scenario=single_channel_scenario(),
                              trials=300, seed=9)
        np.testing.assert_array_equal(run_null(spec).sample, run_null(spec).sample)

    def test_jobs_do_not_change_results(self):
        spec = ExperimentSpec(panel=P12, scenario=single_channel_scenario(),
                              trials=240, seed=13)
        serial = run_null(spec, jobs=1).sample
        parallel = run_null(spec, jobs=2).sample
        np.testing.assert_array_equal(serial, parallel)


def per_trial_reports(panel, scenario, trials, seed, amp_scale, trial_offset):
    """The reference for batched trials: detect(simulate(...)), one trial at a time."""
    channels, m = scenario.channels(), scenario.n_snapshots
    reports = []
    for trial in range(trial_offset, trial_offset + trials):
        amps = (None if amp_scale is None
                else draw_amplitudes(scenario.n_modes, m, amp_scale, seed, trial=trial))
        ms = simulate(channels, m, seed, amplitudes=amps, trial=trial)
        reports.append(detect(panel, channels, ms))
    return reports


def random_channel(rng, n, j) -> ChannelModel:
    """A trace-normalised channel whose columns are not orthonormal."""
    return ChannelModel(normalize_channel(rng.standard_normal((n, j))
                                          + 1j * rng.standard_normal((n, j))), 1.0, 1.0)


def error_case(case: str):
    """A panel, channels and data on which ``detect`` raises."""
    rng = np.random.default_rng(sum(map(ord, case)))
    if case == "non-orthonormal":
        channels = two_channel_scenario(m=6, n=8).channels()[:1] + [random_channel(rng, 8, 2)]
        return P21, channels, simulate(channels, 6, seed=1)
    if case == "modes-exceed-samples":
        channels = [random_channel(rng, 8, 3), random_channel(rng, 2, 3)]
        return P31, channels, simulate(channels, 6, seed=1)
    channels = two_channel_scenario(m=6, n=8).channels()
    if case == "energy-overflow":
        return P11, channels, MeasurementSet(tuple(np.full((8, 6), 1e200 + 1e200j)
                                                   for _ in channels))
    return P12, channels, MeasurementSet(tuple(np.zeros((8, 6)) for _ in channels))


def draws_of(channels, stacks) -> TrialDraws:
    """What ``draw_trials`` would return for these per-channel block stacks:
    the coordinates in each channel's frame, the tails outside it, the
    triangular factors of the parts outside it, the blocks."""
    m = stacks[0].shape[-1]
    frames = [_frame(ch)[0] for ch in channels]
    coords = [q.conj().T @ x for q, x in zip(frames, stacks)]
    outside = [x - q @ a for q, x, a in zip(frames, stacks, coords)]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the case under test
        tails = np.stack([energy(y) / m for y in outside], axis=-1)
    factors = [np.linalg.qr(y, mode="r") for y in outside]
    return TrialDraws(coords, tails, factors, list(stacks))


def cross_validation_sample(panel, scenario, trials, seed, amp_scale) -> np.ndarray:
    """The panel's cross-validation term on each trial, as the harness draws it."""
    channels, m, ids = scenario.channels(), scenario.n_snapshots, np.arange(trials)
    amps = (None if amp_scale is None
            else amplitude_stack(scenario.n_modes, m, amp_scale, seed, ids))
    draws = draw_trials(channels, m, seed, ids, amps)
    return evaluate(panel, coordinate_summary(panel, channels, draws.coords,
                                              draws.tails)).cross_validation


def unequal_fixed_scenario() -> FixedChannelScenario:
    """Three ragged channels that are not orthonormal, with unequal gains and
    variances (N_l = 16, 12, 20, J = 2, M = 8)."""
    rng = np.random.default_rng(42)
    channels = tuple(dataclasses.replace(random_channel(rng, n, 2), gain=g, noise_variance=v)
                     for n, v, g in ((16, 1.0, 1.0), (12, 3.0, 0.8 + 0.3j), (20, 0.5, 1.3)))
    assert not any(ch.orthonormal for ch in channels)
    return FixedChannelScenario(
        specs=three_channel_scenario().specs, gains=tuple(ch.gain for ch in channels),
        noise_variances=tuple(ch.noise_variance for ch in channels), n_snapshots=8,
        fixed=channels)


class TestBatchedTrials:
    """Trials are drawn, summarised and evaluated a chunk at a time."""

    @pytest.mark.parametrize("snr_db", [None, 10.0], ids=["null", "alternative"])
    @pytest.mark.parametrize("panel", ALL_PANELS)
    def test_sample_matches_per_trial_detect(self, panel, snr_db):
        scenario = three_channel_scenario((1.0, 2.0, 0.5))
        spec = KnowledgeSpec.from_panel(panel)
        scale = None if snr_db is None else scenario.amplitude_scale(snr_db)
        offset = 0 if snr_db is None else 30
        sample, degenerate = harness._statistic_sample(spec, scenario, 30, 5, scale,
                                                       trial_offset=offset)
        reports = per_trial_reports(spec, scenario, 30, 5, scale, offset)
        expected = np.array([r.composite for r in reports])
        finite = np.isfinite(expected)
        np.testing.assert_array_equal(np.isfinite(sample), finite)
        np.testing.assert_array_equal(sample[~finite], expected[~finite])
        gap = np.abs(sample[finite] - expected[finite])
        assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(expected[finite])))
        assert degenerate == sum(r.degenerate for r in reports)

    @pytest.mark.parametrize("panel", ["P11", "P12", "P13"])
    def test_shared_coupling_takes_one_basis(self, panel, monkeypatch):
        # Every trial of a chunk has its channels' composite coupling, so row 1
        # takes one basis for the chunk, not one per trial.
        shapes, basis = [], detectors.orthonormal_basis
        monkeypatch.setattr(detectors, "orthonormal_basis",
                            lambda b, name: shapes.append(np.shape(b)) or basis(b, name))
        sample, _ = harness._statistic_sample(KnowledgeSpec.from_panel(panel),
                                              three_channel_scenario(), 40, 3, None)
        assert shapes == [(1, 6, 2)] and np.all(np.isfinite(sample))

    @pytest.mark.parametrize("offset", range(measurement._BLOCK))
    @pytest.mark.parametrize("snr_db", [None, 10.0], ids=["null", "10dB"])
    @pytest.mark.parametrize("panel", ["P11", "P22", "P33"])
    def test_one_trial_at_each_block_offset_matches_simulate(self, panel, snr_db, offset):
        # A run of one trial keeps one row of its block's draws, and simulate
        # builds the same trial's blocks from them, at every offset in the block.
        scenario = three_channel_scenario((1.0, 2.0, 0.5))
        spec = KnowledgeSpec.from_panel(panel)
        scale = None if snr_db is None else scenario.amplitude_scale(snr_db)
        trial = 5 * measurement._BLOCK + offset
        sample, _ = harness._statistic_sample(spec, scenario, 1, 6, scale, trial_offset=trial)
        (report,) = per_trial_reports(spec, scenario, 1, 6, scale, trial)
        assert abs(sample[0] - report.composite) <= 1e-12 * max(1.0, abs(report.composite))

    @pytest.mark.parametrize("snr_db", [None, 10.0], ids=["null", "10dB"])
    @pytest.mark.parametrize("panel", ROW3_PANELS)
    def test_row3_sample_matches_simulate_on_ragged_channels(self, panel, snr_db):
        # Row 3 reads each trial's factors [a_l; T_l]; detect on the blocks
        # simulate builds from the same draws gives the same composites.
        scenario = row3_ragged_scenario(panel)
        spec = KnowledgeSpec.from_panel(panel)
        scale = None if snr_db is None else scenario.amplitude_scale(snr_db)
        offset = 0 if snr_db is None else 200
        sample, degenerate = harness._statistic_sample(spec, scenario, 200, 9, scale,
                                                       trial_offset=offset)
        expected = np.array([r.composite for r in
                             per_trial_reports(spec, scenario, 200, 9, scale, offset)])
        assert np.all(np.isfinite(expected)) and degenerate == 0
        gap = np.abs(sample - expected)
        assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(expected)))

    @pytest.mark.parametrize("snr_db", [None, 5.0], ids=["null", "alternative"])
    @pytest.mark.parametrize("panel", ALL_PANELS)
    def test_chunk_of_one_trial_matches_default(self, panel, snr_db, monkeypatch):
        # A trial's value does not depend on the chunk it is evaluated in,
        # which is what lets --jobs split the trials anywhere.
        scenario = three_channel_scenario((1.0, 2.0, 0.5))
        scale = None if snr_db is None else scenario.amplitude_scale(snr_db)
        args = (KnowledgeSpec.from_panel(panel), scenario, 12, 5, scale)
        whole, _ = harness._statistic_sample(*args)
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 1)  # one trial a chunk
        chunked, _ = harness._statistic_sample(*args)
        np.testing.assert_array_equal(chunked, whole)

    @pytest.mark.parametrize("count, entries_each, at_least, start", [
        (201, 1, 1, 0), (201, 1, 2, 0), (201, 1, 2, 201), (202, 1, 2, 0), (3, 1, 2, 1),
        (2, 1, 2, 0), (1000, 1 << 13, 1, 7), (999, 1 << 13, 3, 402), (5, 1 << 18, 1, 3),
    ])
    def test_chunk_boundaries_are_block_aligned(self, count, entries_each, at_least, start):
        # Chunks cover the run in order, each under the memory bound, at least
        # one per job while the run spans that many blocks; where a block fits
        # a chunk, no two chunks draw the same block.
        block = measurement._BLOCK
        chunks = harness._chunks(count, entries_each, at_least, start, block)
        np.testing.assert_array_equal(np.concatenate(chunks), np.arange(start, start + count))
        per_chunk = max(1, harness._CHUNK_ENTRIES // entries_each)
        assert max(map(len, chunks)) <= per_chunk
        if per_chunk >= block:
            assert all(ids[0] % block == 0 for ids in chunks[1:])
        spanned = (start + count - 1) // block - start // block + 1
        assert len(chunks) >= min(at_least, spanned)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("panel", ["P11", "P33"])
    def test_aligned_chunks_match_unaligned_split(self, panel, jobs, monkeypatch):
        # 41 trials from the odd id 41, in chunks of at most 7 trials: the
        # sample equals, bit for bit, that of six chunks split without regard
        # to the blocks, starting at odd ids too.
        scenario = three_channel_scenario((1.0, 2.0, 0.5))
        spec = KnowledgeSpec.from_panel(panel)
        scale = scenario.amplitude_scale(5.0)
        channels, m = scenario.channels(), scenario.n_snapshots
        expected = np.concatenate([
            harness._trial_block(spec, channels, m, 4, scale, ids + 41)[0]
            for ids in np.array_split(np.arange(41), 6)])
        height = 2 if panel == "P11" else 10  # J, or the largest min(N_l, J + M)
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 7 * len(channels) * height * m)
        sample, _ = harness._statistic_sample(spec, dataclasses.replace(scenario), 41, 4, scale,
                                              trial_offset=41, jobs=jobs)
        np.testing.assert_array_equal(sample, expected)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_degenerate_trials_are_counted(self, jobs):
        # N = J = 2 leaves one channel no residual: every P13 trial is degenerate.
        spec = ExperimentSpec(panel=P13, scenario=single_channel_scenario(n=2, j=2),
                              trials=50, seed=3)
        null = run_null(spec, jobs=jobs)
        assert np.all(np.isinf(null.sample))
        assert null.degenerate_trials == 50

    def test_ragged_channel_without_residual_counts_degenerate_trials(self):
        # Channel 1 has N = J = 2: no tail, so every P13 trial is degenerate,
        # while P11 and P12 stay finite on the same draws.
        rng = np.random.default_rng(8)
        channels = tuple(random_channel(rng, n, 2) for n in (9, 2, 6))
        scenario = FixedChannelScenario(
            specs=three_channel_scenario().specs, gains=(1.0,) * 3,
            noise_variances=(1.0,) * 3, n_snapshots=4, fixed=channels)
        sample, degenerate = harness._statistic_sample(P13, scenario, 40, 3, None)
        assert np.all(np.isinf(sample)) and degenerate == 40
        for panel in (P11, P12):
            sample, degenerate = harness._statistic_sample(panel, scenario, 40, 3, None)
            assert np.all(np.isfinite(sample)) and degenerate == 0

    @pytest.mark.parametrize("panel", ["P11", "P22", "P23", "P31", "P32", "P33"])
    def test_known_coupling_trials_form_no_block(self, panel):
        # One block of N = 2**15 samples and M = 4 snapshots is 2 MiB; rows 1
        # and 2 draw each trial's coordinates and tail and form none, and row
        # 3 adds the M x M factor of the tail.
        n, m = 1 << 15, 4
        specs = tuple(PropagationSpec(carrier_hz=1e6, sample_period_s=1e-3, n_samples=n,
                                      n_modes=2, doppler_hz=d) for d in (0.0, 0.01))
        scenario = Scenario(specs=specs, gains=(1.0, 0.5), noise_variances=(1.0, 2.0),
                            n_snapshots=m)
        args = (KnowledgeSpec.from_panel(panel), scenario, 8, 1, scenario.amplitude_scale(0.0))
        # Caches the channel constants and numpy's state; at another seed, so
        # that the scenario's memo of draws does not serve the traced run.
        harness._statistic_sample(*args[:3], 2, *args[4:])
        tracemalloc.start()
        try:
            sample, _ = harness._statistic_sample(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(sample))
        assert peak < n * m * 16 / 16

    @pytest.mark.parametrize("case, error", [("non-orthonormal", ConfigError),
                                             ("modes-exceed-samples", ValueError),
                                             ("zero-energy", DegenerateDataError),
                                             ("energy-overflow", ValueError)])
    def test_errors_match_detect(self, case, error, monkeypatch):
        panel, channels, bad = error_case(case)
        with pytest.raises(error) as expected:
            detect(panel, channels, bad)
        # The failing data set sits between two trials of fresh noise, handed
        # to the harness as draw_trials returns them.
        good = simulate(channels, bad.n_snapshots, seed=2)
        draws = draws_of(channels, [np.stack([y, x, y]) for x, y in zip(bad.blocks, good.blocks)])
        monkeypatch.setattr(harness, "draw_trials", lambda *args, **kwargs: draws)
        with pytest.raises(error) as batched:
            harness._trial_block(panel, channels, bad.n_snapshots, 1, None, np.arange(3))
        assert type(batched.value) is type(expected.value)
        assert str(batched.value) == str(expected.value)


class TestSamplerLaw:
    """The harness draws each trial's sufficient statistics; their laws are
    those of the drawn blocks."""

    @pytest.mark.parametrize("snr_db", [None, 0.0, 20.0, 40.0],
                             ids=["null", "0dB", "20dB", "40dB"])
    def test_p11_cross_validation_gamma_law(self, snr_db):
        # Under a common source the whitened signal (g_l / sigma_l) R_l A lies in
        # the span of G = [f_l R_l], so P11's cv is the energy of white noise in
        # (L - 1) J M complex dimensions over L M, Gamma((L - 1) J M, 1 / (L M)),
        # at every SNR.
        scenario = unequal_fixed_scenario()
        scale = None if snr_db is None else scenario.amplitude_scale(snr_db)
        cv = cross_validation_sample(P11, scenario, 4000, 19, scale)
        assert sps.kstest(cv, sps.gamma(32, scale=1 / 24).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("snr_db", [None, 10.0], ids=["null", "10dB"])
    @pytest.mark.parametrize("panel", ALL_PANELS)
    def test_matches_entrywise_sampler(self, panel, snr_db):
        # Two-sample KS at mc-small size (L = 2, N = 16, J = 2, M = 8) against
        # the former sampler, which drew every block entry; independent seeds.
        scenario = dataclasses.replace(two_channel_scenario(m=8, n=16, j=2, delay=3e-3,
                                                            doppler=20.0),
                                       noise_variances=(0.8, 1.5))
        spec = KnowledgeSpec.from_panel(panel)
        scale = None if snr_db is None else scenario.amplitude_scale(snr_db)
        new, _ = harness._statistic_sample(spec, scenario, 1000, 101, scale)
        old = entrywise_sample(spec, scenario, 1000, 202, scale)
        assert sps.ks_2samp(new, old).pvalue > 1e-3

    @pytest.mark.parametrize("snr_db", [None, 10.0], ids=["null", "10dB"])
    @pytest.mark.parametrize("panel", ROW3_PANELS)
    def test_row3_matches_entrywise_sampler_on_ragged_channels(self, panel, snr_db):
        # The Bartlett factor of the tail against blocks drawn entry by entry,
        # on channels with N_l - J below, at and above M (and N_l = J where
        # the panel allows it); two-sample KS, independent seeds.
        scenario = row3_ragged_scenario(panel)
        spec = KnowledgeSpec.from_panel(panel)
        scale = None if snr_db is None else scenario.amplitude_scale(snr_db)
        new, _ = harness._statistic_sample(spec, scenario, 1000, 103, scale)
        old = entrywise_sample(spec, scenario, 1000, 204, scale)
        assert sps.ks_2samp(new, old).pvalue > 1e-3


class TestRunRoc:
    def test_vanishing_snr_matches_pfa(self):
        spec = ExperimentSpec(panel=P12, scenario=single_channel_scenario(),
                              trials=2000, seed=21, snr_db=(-60.0,),
                              pfa_targets=(0.5, 0.2, 0.1))
        curve = run_roc(spec)[0]
        for k in range(len(curve.thresholds)):
            gap = abs(curve.pd[k] - curve.pfa[k])
            assert gap <= curve.wilson_halfwidth[k] + curve.pfa_halfwidth[k]

    def test_high_snr_saturates(self):
        spec = ExperimentSpec(panel=P11, scenario=single_channel_scenario(),
                              trials=1000, seed=23, snr_db=(60.0,),
                              pfa_targets=(0.5, 0.1, 0.02))
        curve = run_roc(spec)[0]
        np.testing.assert_allclose(curve.pd, 1.0)

    def test_monotone_and_bounded(self):
        spec = ExperimentSpec(panel=P12, scenario=single_channel_scenario(),
                              trials=1500, seed=29, snr_db=(0.0, 6.0),
                              pfa_targets=(0.5, 0.25, 0.1, 0.05, 0.01))
        for curve in run_roc(spec):
            assert np.all(np.diff(curve.thresholds) >= 0)
            assert np.all(np.diff(curve.pd) <= 1e-12)
            assert np.all((curve.pd >= 0) & (curve.pd <= 1))

    def test_deterministic(self):
        spec = ExperimentSpec(panel=P12, scenario=single_channel_scenario(),
                              trials=400, seed=31, snr_db=(3.0,),
                              pfa_targets=(0.2, 0.05))
        a = run_roc(spec)[0]
        b = run_roc(spec)[0]
        np.testing.assert_array_equal(a.pd, b.pd)
        np.testing.assert_array_equal(a.thresholds, b.thresholds)

    def test_wilson_halfwidths_from_exceedance_counts(self):
        # With 100 trials, 0.29 * 100 and 0.57 * 100 round to just below 29
        # and 57, so counts recovered by truncating p * trials are one short.
        # 100 distinct null values put the (1 - p) quantile between two of
        # them, so these targets give 57 and 29 false alarms whatever the draws.
        spec = ExperimentSpec(panel=P11, scenario=single_channel_scenario(),
                              trials=100, seed=1, snr_db=(0.0,),
                              pfa_targets=(0.57, 0.29, 0.1))
        curve = run_roc(spec)[0]
        detections = np.rint(curve.pd * spec.trials).astype(int)
        false_alarms = np.rint(curve.pfa * spec.trials).astype(int)
        assert 57 in false_alarms and 29 in false_alarms
        assert int(0.57 * spec.trials) == 56 and int(0.29 * spec.trials) == 28
        for k in range(len(curve.thresholds)):
            assert curve.wilson_halfwidth[k] == wilson_interval(
                int(detections[k]), spec.trials)[2]
            assert curve.pfa_halfwidth[k] == wilson_interval(
                int(false_alarms[k]), spec.trials)[2]

    def test_insufficient_trials_refused(self):
        spec = ExperimentSpec(panel=P12, scenario=single_channel_scenario(),
                              trials=100, seed=1, snr_db=(0.0,),
                              pfa_targets=(0.001,))
        with pytest.raises(ConfigError, match="10000"):
            run_roc(spec)

    def test_more_knowledge_helps_on_average(self):
        # Sanity expectation, logged rather than asserted: the clairvoyant
        # panel should not trail the unknown-gain panel by more than the
        # interval width.
        scenario = two_channel_scenario(m=8, n=8, j=1)
        kwargs = dict(trials=600, seed=37, snr_db=(0.0,),
                      pfa_targets=(0.5, 0.2, 0.1, 0.05))
        auc_p11 = run_roc(ExperimentSpec(panel=P11, scenario=scenario, **kwargs))[0].area()
        auc_p21 = run_roc(ExperimentSpec(panel=P21, scenario=scenario, **kwargs))[0].area()
        log.info("AUC known-gains=%.4f unknown-gains=%.4f", auc_p11, auc_p21)
        if auc_p11 < auc_p21 - 0.05:
            log.warning("clairvoyant panel trailed unknown-gain panel: %.4f < %.4f",
                        auc_p11, auc_p21)


class TestDegenerateThresholds:
    """Degenerate trials (composite +inf) give +inf thresholds and are counted."""

    def test_degenerate_roc_and_calibration(self):
        # N = J = 2 leaves one channel no residual: every P13 trial is degenerate.
        spec = ExperimentSpec(panel=P13, scenario=single_channel_scenario(n=2, j=2),
                              trials=50, seed=3, snr_db=(10.0,), pfa_targets=(0.5, 0.2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = run_roc(spec)[0]
            cal = calibrate_threshold(spec, 0.2)
        assert np.all(curve.thresholds == np.inf)
        np.testing.assert_array_equal(curve.pfa, 0.0)
        np.testing.assert_array_equal(curve.pd, 0.0)
        assert curve.degenerate_trials == curve.null_degenerate_trials == 50
        assert cal.threshold == np.inf and cal.achieved_pfa == 0.0
        assert cal.degenerate_trials == 50

    def test_quantile_weighing_an_inf_is_inf(self, monkeypatch):
        rng = np.random.default_rng(8)
        sample = rng.permutation(np.concatenate([rng.normal(size=38), np.full(12, np.inf)]))
        monkeypatch.setattr(harness, "_statistic_sample", lambda *args, **kw: (sample, 12))
        spec = ExperimentSpec(panel=P13, scenario=single_channel_scenario(), trials=50, seed=1)
        # A quantile weighs an inf trial exactly when it moves with the value
        # that stands in for the infs.
        low, high = (np.where(np.isinf(sample), v, sample) for v in (1e300, 1e308))
        kinds = set()
        for pfa in np.concatenate([np.linspace(0.2, 0.5, 61), [12 / 49, 1 - 37 / 49]]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cal = calibrate_threshold(spec, pfa)
            expected = np.quantile(low, 1.0 - pfa)
            weighs_inf = expected != np.quantile(high, 1.0 - pfa)
            kinds.add(bool(weighs_inf))
            assert cal.degenerate_trials == 12
            if weighs_inf:
                assert cal.threshold == np.inf
            else:
                assert np.float64(cal.threshold).tobytes() == expected.tobytes()
        assert kinds == {True, False}
        # At pfa = 12/49 the quantile sits on the largest finite value with
        # zero weight on the first inf, where np.quantile forms inf * 0 = nan.
        assert calibrate_threshold(spec, 12 / 49).threshold == np.max(sample[np.isfinite(sample)])


class TestCalibrate:
    def test_median_threshold_at_half(self):
        spec = ExperimentSpec(panel=P12, scenario=single_channel_scenario(),
                              trials=501, seed=41)
        cal = calibrate_threshold(spec, 0.5)
        null = run_null(spec)
        assert cal.threshold == pytest.approx(float(np.median(null.sample)), rel=1e-12)

    def test_holdout_achieves_target(self):
        scenario = single_channel_scenario()
        cal = calibrate_threshold(
            ExperimentSpec(panel=P12, scenario=scenario, trials=4000, seed=43), 0.1)
        fresh = run_null(ExperimentSpec(panel=P12, scenario=scenario,
                                        trials=4000, seed=44))
        achieved = float((fresh.sample > cal.threshold).mean())
        assert achieved == pytest.approx(0.1, abs=0.02)

    def test_interval_contains_target(self):
        spec = ExperimentSpec(panel=P12, scenario=single_channel_scenario(),
                              trials=2000, seed=47)
        cal = calibrate_threshold(spec, 0.2)
        assert cal.wilson_low <= 0.2 <= cal.wilson_high

    def test_pfa_validated(self):
        spec = ExperimentSpec(panel=P12, scenario=single_channel_scenario(),
                              trials=100, seed=1)
        with pytest.raises(ConfigError):
            calibrate_threshold(spec, 1.5)
        with pytest.raises(ConfigError, match="need at least"):
            calibrate_threshold(spec, 0.001)

    def test_scaled_data_same_decisions(self):
        scenario = single_channel_scenario()
        channels = scenario.channels()
        cal = calibrate_threshold(
            ExperimentSpec(panel=P12, scenario=scenario, trials=1000, seed=53), 0.1)
        flips = 0
        for trial in range(500):
            ms = simulate(channels, scenario.n_snapshots, seed=99, trial=trial)
            stat = detect_p12(channels, ms).composite
            stat_scaled = detect_p12(channels, ms.scaled([10.0])).composite
            flips += int((stat > cal.threshold) != (stat_scaled > cal.threshold))
        assert flips == 0


class TestScan:
    def make_grid(self, scenario):
        duration = scenario.specs[0].duration_s
        delays = [k * duration / 11 for k in range(11)]
        dopplers = [(k - 5) / duration for k in range(11)]
        return delays, dopplers

    def synthesize_at(self, scenario, delays, dopplers, cell, seed, snr_db=20.0):
        from dataclasses import replace

        truth = Scenario(
            specs=(scenario.specs[0],
                   replace(scenario.specs[1], delay_s=delays[cell[0]],
                           doppler_hz=dopplers[cell[1]])),
            gains=scenario.gains,
            noise_variances=scenario.noise_variances,
            n_snapshots=scenario.n_snapshots,
        )
        scale = truth.amplitude_scale(snr_db)
        amps = draw_amplitudes(truth.n_modes, truth.n_snapshots, scale, seed)
        return simulate(truth.channels(), truth.n_snapshots, seed, amplitudes=amps)

    def test_argmax_at_true_cell(self):
        scenario = two_channel_scenario()
        delays, dopplers = self.make_grid(scenario)
        true_cell = (5, 5)
        hits = 0
        for trial in range(20):
            ms = self.synthesize_at(scenario, delays, dopplers, true_cell,
                                    seed=1000 + trial)
            image = scan_likelihood_image(P11, scenario, ms, delays, dopplers)
            hits += int(image.argmax_index == true_cell)
        assert hits >= 19

    def test_null_surface_matches_run_null(self):
        # Spot check: the statistic at one fixed hypothesis cell under pure
        # noise follows the panel's null distribution.
        scenario = single_channel_scenario(n=8, j=1, m=4)
        delays = [0.0]
        dopplers = [2.0 / scenario.specs[0].duration_s]
        values = []
        for trial in range(300):
            ms = simulate(scenario.channels(), scenario.n_snapshots,
                          seed=71, trial=trial)
            image = scan_likelihood_image(P12, scenario, ms, delays, dopplers)
            values.append(image.values[0, 0])
        null = run_null(ExperimentSpec(panel=P12, scenario=scenario,
                                       trials=2000, seed=72))
        assert sps.ks_2samp(np.asarray(values), null.sample).pvalue > 0.01

    def test_two_sources_exceed_threshold(self):
        scenario = two_channel_scenario()
        delays, dopplers = self.make_grid(scenario)
        cell_a, cell_b = (2, 2), (8, 8)
        cal = calibrate_threshold(
            ExperimentSpec(panel=P12, scenario=scenario, trials=2000, seed=83), 0.01)
        rng = rng_stream(90, 7, 0)
        m = scenario.n_snapshots
        scale = scenario.amplitude_scale(20.0)
        amp_a = draw_amplitudes(scenario.n_modes, m, scale, 91)
        amp_b = draw_amplitudes(scenario.n_modes, m, scale, 92)
        blocks = []
        for idx in range(2):
            spec = scenario.specs[idx]
            h_base = normalize_channel(build_narrowband_h(spec))
            blocks_celled = []
            for cell, amp in ((cell_a, amp_a), (cell_b, amp_b)):
                if idx == 0:
                    h = h_base
                else:
                    cell_spec = PropagationSpec(
                        carrier_hz=spec.carrier_hz,
                        sample_period_s=spec.sample_period_s,
                        n_samples=spec.n_samples, n_modes=spec.n_modes,
                        delay_s=delays[cell[0]], doppler_hz=dopplers[cell[1]])
                    h = normalize_channel(build_narrowband_h(cell_spec))
                blocks_celled.append(scenario.gains[idx] * (h @ amp))
            noise = np.sqrt(scenario.noise_variances[idx] / 2) * (
                rng.standard_normal((spec.n_samples, m))
                + 1j * rng.standard_normal((spec.n_samples, m)))
            blocks.append(sum(blocks_celled) + noise)
        ms = MeasurementSet(tuple(blocks))
        image = scan_likelihood_image(P12, scenario, ms, delays, dopplers)
        peaks = []
        vals = image.values
        for a in range(vals.shape[0]):
            for b in range(vals.shape[1]):
                patch = vals[max(0, a - 1):a + 2, max(0, b - 1):b + 2]
                if vals[a, b] >= patch.max() and vals[a, b] > cal.threshold:
                    peaks.append((a, b))
        assert len(peaks) >= 2
        for cell in (cell_a, cell_b):
            assert any(abs(p[0] - cell[0]) <= 1 and abs(p[1] - cell[1]) <= 1
                       for p in peaks)

    @pytest.mark.parametrize("case", ["differential", "single-channel",
                                      "explicit-with-reference", "clock-offset", "gigahertz"])
    @pytest.mark.parametrize("panel", KNOWN_COUPLING_PANELS)
    def test_image_matches_rebuild_per_cell(self, panel, case):
        scenario, ms, delays, dopplers, scanned = scan_case(case)
        spec = KnowledgeSpec.from_panel(panel)
        explicit = None if case in ("differential", "single-channel") else scanned
        image = scan_likelihood_image(spec, scenario, ms, delays, dopplers,
                                      scan_channels=explicit)
        assert_images_close(image.values,
                            scan_by_rebuild(spec, scenario, ms, delays, dopplers, scanned))

    @pytest.mark.parametrize("panel", KNOWN_COUPLING_PANELS)
    def test_chunked_scan_matches_single_chunk(self, panel, monkeypatch):
        # Four Doppler bins: blocks of three leave a ragged last block of one.
        scenario, ms, delays, dopplers, scanned = scan_case("clock-offset")
        spec = KnowledgeSpec.from_panel(panel)
        rebuilt = scan_by_rebuild(spec, scenario, ms, delays, dopplers, scanned)
        whole = scan_likelihood_image(spec, scenario, ms, delays, dopplers).values
        assert_images_close(whole, rebuilt)
        bin_entries = scenario.specs[0].n_samples * scenario.n_snapshots
        for bins in (1, 3):
            monkeypatch.setattr(harness, "_BANK_ENTRIES", bins * bin_entries)
            blocked = scan_likelihood_image(spec, scenario, ms, delays, dopplers).values
            assert_images_close(blocked, whole)
            assert_images_close(blocked, rebuilt)
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 1)  # one cell a chunk
        chunked = scan_likelihood_image(spec, scenario, ms, delays, dopplers).values
        assert_images_close(chunked, whole)
        assert_images_close(chunked, rebuilt)

    def test_bank_factors_no_stack_of_doppler_bins(self, monkeypatch):
        # Every Doppler bin of a scanned channel shares one basis, so no SVD
        # factors a stack of the channel's N x J couplings.
        scenario, ms, delays, dopplers, _ = scan_case("differential")
        shapes, svd = [], np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        scan_likelihood_image(P11, scenario, ms, delays, dopplers)
        assert shapes  # the composite's rank gate
        n, j = scenario.specs[0].n_samples, scenario.n_modes
        couplings = [shape for shape in shapes if shape[-2:] == (n, j)]
        assert all(len(shape) == 2 for shape in couplings), couplings
        assert len(couplings) <= scenario.n_channels

    @pytest.mark.parametrize("panel", ["P13", "P23"])
    def test_vanishing_residual_gives_infinite_cell(self, panel):
        # Channel 1's data lies exactly in its coupling's span at the true
        # Doppler, so its residual vanishes there (at every delay, which only
        # rephases the columns) and the column-3 composite is infinite.
        scenario = two_channel_scenario(m=6, n=10, j=2, delay=3e-3, doppler=20.0)
        channels = scenario.channels()
        amps = draw_amplitudes(2, 6, 1.0, 21)
        noisy = simulate(channels, 6, seed=22, amplitudes=amps)
        ms = MeasurementSet((noisy.block(0), channels[1].gain * channels[1].matrix @ amps))
        delays, dopplers = [0.0, 3e-3], [0.0, 20.0, 40.0]
        image = scan_likelihood_image(KnowledgeSpec.from_panel(panel), scenario, ms,
                                      delays, dopplers)
        assert np.all(np.isinf(image.values[:, 1]))
        assert np.all(np.isfinite(image.values[:, [0, 2]]))
        assert_images_close(image.values, scan_by_rebuild(
            KnowledgeSpec.from_panel(panel), scenario, ms, delays, dopplers, [1]))

    def test_no_per_cell_detect_or_channel_build(self, monkeypatch, channel_builds):
        def no_detect(*args, **kwargs):
            raise AssertionError("scan called detect")

        monkeypatch.setattr(harness, "detect", no_detect, raising=False)
        # Counted from the scenario's first use: its channels are built once,
        # for simulate, and the scans reuse them.
        scenario = two_channel_scenario()
        ms = simulate(scenario.channels(), scenario.n_snapshots, seed=1)
        delays, dopplers = self.make_grid(scenario)
        scan_likelihood_image(P11, scenario, ms, delays, dopplers)
        assert len(channel_builds) == scenario.n_channels
        scan_likelihood_image(P11, scenario, ms, delays, dopplers)
        assert len(channel_builds) == scenario.n_channels

    @pytest.mark.parametrize("scan_channels", [[5], [2], [-1], [], [1, 1]],
                             ids=["far-out-of-range", "out-of-range", "negative", "empty",
                                  "duplicate"])
    def test_bad_scan_channels_rejected(self, scan_channels):
        scenario = two_channel_scenario()
        ms = simulate(scenario.channels(), scenario.n_snapshots, seed=1)
        with pytest.raises(ConfigError, match="scan"):
            scan_likelihood_image(P11, scenario, ms, [0.0], [0.0], scan_channels=scan_channels)

    @pytest.mark.parametrize("delays,dopplers", [([float("nan")], [0.0]),
                                                 ([0.0], [float("inf")]),
                                                 ([1e303], [0.0])])
    def test_non_finite_grid_rejected(self, delays, dopplers):
        scenario = two_channel_scenario()
        ms = simulate(scenario.channels(), scenario.n_snapshots, seed=1)
        with pytest.raises(ValueError):
            scan_likelihood_image(P11, scenario, ms, delays, dopplers)

    def test_empty_grid_rejected(self):
        scenario = two_channel_scenario()
        ms = simulate(scenario.channels(), scenario.n_snapshots, seed=1)
        with pytest.raises(ValueError):
            scan_likelihood_image(P11, scenario, ms, [], [1.0])

    def test_subspace_panel_rejected(self):
        scenario = two_channel_scenario()
        ms = simulate(scenario.channels(), scenario.n_snapshots, seed=1)
        with pytest.raises(ConfigError):
            scan_likelihood_image(P31, scenario, ms, [0.0], [0.0])


class TestEvaluateChecksItself:
    """``evaluate`` checks the decomposition of every batch, so neither a
    Monte-Carlo chunk nor a scan's cells check their own."""

    @pytest.fixture
    def halved_weights(self, monkeypatch):
        real = detectors._column

        def column(*args, **kwargs):
            col = real(*args, **kwargs)
            return col._replace(alphas=0.5 * col.alphas)

        monkeypatch.setattr(detectors, "_column", column)

    @staticmethod
    def assert_raised_in_evaluate(info) -> None:
        assert [entry.name for entry in info.traceback[-2:]] == ["evaluate",
                                                                 "check_decomposition"]

    @pytest.mark.parametrize("panel", ["P11", "P21", "P31", "P33"])
    def test_a_chunk_of_trials(self, panel, halved_weights):
        panel = KnowledgeSpec.from_panel(panel)
        scenario = mc_small_scenario()
        channels = scenario.channels()
        draws = draw_trials(channels, 8, 3, np.arange(6), factors=True)
        summary = coordinate_summary(panel, channels, draws.coords, draws.tails, draws.factors)
        with pytest.raises(ConfigError, match="weights sum to 0.5, expected 1") as info:
            evaluate(panel, summary)
        self.assert_raised_in_evaluate(info)
        spec = ExperimentSpec(panel=panel, scenario=scenario, trials=6, seed=3)
        with pytest.raises(ConfigError, match="weights sum to 0.5, expected 1") as info:
            run_null(spec)
        self.assert_raised_in_evaluate(info)

    def test_a_scan(self, halved_weights):
        scenario, ms, delays, dopplers, scanned = scan_case("explicit-with-reference")
        with pytest.raises(ConfigError, match="weights sum to 0.5, expected 1") as info:
            scan_likelihood_image(P11, scenario, ms, delays, dopplers, scanned)
        self.assert_raised_in_evaluate(info)


class TestWilson:
    def test_interval_basics(self):
        low, high, half = wilson_interval(10, 100)
        assert low < 0.1 < high
        assert half == pytest.approx((high - low) / 2)

    def test_extreme_counts(self):
        low, high, _ = wilson_interval(0, 50)
        assert low == pytest.approx(0.0, abs=1e-12)
        assert high > 0
        low, high, _ = wilson_interval(50, 50)
        assert high == pytest.approx(1.0, abs=1e-12)
        assert low < 1

    @pytest.mark.parametrize("successes", [11, -1])
    def test_counts_out_of_range_rejected(self, successes):
        with pytest.raises(ConfigError, match=rf"successes={successes} outside \[0, trials=10\]"):
            wilson_interval(successes, 10)


class TestScenario:
    def test_amplitude_scale_matches_definition(self):
        scenario = two_channel_scenario()
        snr_db = 7.0
        scale = scenario.amplitude_scale(snr_db)
        implied = np.mean([abs(g) ** 2 / v for g, v in
                           zip(scenario.gains, scenario.noise_variances)]) * scale**2
        assert implied == pytest.approx(10 ** (snr_db / 10), rel=1e-12)

    @pytest.mark.parametrize("gain, variance, key", [
        (1.0, 0.0, "noise_variance"), (1.0, -1.0, "noise_variance"),
        (1.0, float("nan"), "noise_variance"), (complex("inf"), 1.0, "gain"),
    ], ids=["zero-noise", "negative-noise", "nan-noise", "inf-gain"])
    def test_rejects_bad_gain_or_noise_when_built(self, gain, variance, key):
        scenario = two_channel_scenario()
        with pytest.raises(ConfigError, match=f"^channel 1 {key} must be finite"):
            dataclasses.replace(scenario, gains=(1.0, gain), noise_variances=(1.0, variance))

    def test_channels_are_orthonormal(self):
        for ch in two_channel_scenario().channels():
            assert ch.orthonormal

    def test_channels_are_built_once_and_shared(self):
        scenario = three_channel_scenario()
        first, second = scenario.channels(), scenario.channels()
        assert first is not second
        assert len(first) == scenario.n_channels
        assert all(a is b for a, b in zip(first, second))

    def test_replaced_scenario_builds_its_own_channels(self):
        scenario = three_channel_scenario()
        old = scenario.channels()
        gains = (2.0, -1j, 0.5)
        changed = dataclasses.replace(scenario, gains=gains)
        assert [ch.gain for ch in changed.channels()] == list(gains)
        assert not any(a is b for a, b in zip(old, changed.channels()))
        assert [ch.gain for ch in scenario.channels()] == [1.0, 0.8 + 0.3j, 1.3]

    def test_experiments_build_each_channel_once(self, channel_builds):
        spec = ExperimentSpec(panel=P11, scenario=three_channel_scenario(), trials=200, seed=3,
                              snr_db=(0.0, 5.0), pfa_targets=(0.1,))
        run_null(spec)
        run_roc(spec)
        calibrate_threshold(spec, 0.1)
        assert [b[0] for b in channel_builds] == list(spec.scenario.specs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reused_scenario_matches_a_fresh_one(self, jobs):
        scenario = three_channel_scenario((1.0, 3.0, 0.5))
        for panel in (P11, P21, P31):
            spec = ExperimentSpec(panel=panel, scenario=scenario, trials=40, seed=9)
            first = run_null(spec, jobs=jobs).sample
            fresh = dataclasses.replace(spec, scenario=three_channel_scenario((1.0, 3.0, 0.5)))
            assert fresh.scenario == scenario
            np.testing.assert_array_equal(run_null(spec, jobs=jobs).sample, first)
            np.testing.assert_array_equal(run_null(fresh, jobs=jobs).sample, first)


def mc_small_scenario() -> Scenario:
    """Two channels at the mc-small size (N = 16, J = 2, M = 8), unequal variances."""
    return dataclasses.replace(two_channel_scenario(m=8, n=16, j=2, delay=3e-3, doppler=20.0),
                               noise_variances=(0.8, 1.5))


def round_spec(scenario: Scenario, panel: str, seed: int = 17) -> ExperimentSpec:
    """An ROC experiment of 201 trials per sample: every sample is one chunk on
    every row, and the alternatives start at odd trial ids."""
    return ExperimentSpec(panel=KnowledgeSpec.from_panel(panel), scenario=scenario,
                          trials=201, seed=seed, snr_db=(0.0, 10.0), pfa_targets=(0.1, 0.05))


def assert_fields_equal(a, b) -> None:
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name))


ROUND_ORDERS = {
    "forward": ALL_PANELS,
    "by-column": [f"P{row}{col}" for col in "123" for row in "123"],
    "reverse": ALL_PANELS[::-1],
    "shuffled": [ALL_PANELS[i] for i in np.random.default_rng(4).permutation(9)],
    "row 3": ["P31", "P32", "P33"],
    "row 3 reversed": ["P33", "P32", "P31"],
}


class TestDrawMemo:
    """A scenario keeps the draws of its latest chunks at one seed."""

    @pytest.mark.parametrize("order", ["forward", "reverse", "shuffled", "row 3", "row 3 reversed"])
    def test_shared_draws_match_a_fresh_scenario_per_call(self, order):
        scenario = mc_small_scenario()
        for panel in ROUND_ORDERS[order]:
            spec = round_spec(scenario, panel)
            fresh = [dataclasses.replace(spec, scenario=dataclasses.replace(scenario))
                     for _ in range(3)]
            for shared, alone in zip(run_roc(spec), run_roc(fresh[0]), strict=True):
                assert_fields_equal(shared, alone)
            assert_fields_equal(run_null(spec), run_null(fresh[1]))
            assert_fields_equal(calibrate_threshold(spec, 0.05),
                                calibrate_threshold(fresh[2], 0.05))

    @pytest.mark.parametrize("order, per_chunk", [("forward", 2), ("by-column", 2),
                                                  ("shuffled", 2), ("reverse", 1)])
    def test_a_round_draws_each_chunk_at_most_twice(self, order, per_chunk, monkeypatch):
        # Once without the factors of the tails for the first panel of rows 1
        # and 2, and once with them for the first panel of row 3; none again
        # when row 3 comes first.  Three chunks: the null and two alternatives.
        draws, amplitudes = [], []
        real_draws, real_amplitudes = harness.draw_trials, harness.amplitude_stack
        monkeypatch.setattr(harness, "draw_trials",
                            lambda *args, **kw: draws.append(kw) or real_draws(*args, **kw))
        monkeypatch.setattr(harness, "amplitude_stack",
                            lambda *args: amplitudes.append(args) or real_amplitudes(*args))
        scenario = mc_small_scenario()
        for panel in ROUND_ORDERS[order]:
            run_roc(round_spec(scenario, panel))
        assert len(draws) == 3 * per_chunk and len(amplitudes) == 2 * per_chunk
        assert [kw["factors"] for kw in draws] == [False] * (3 * per_chunk - 3) + [True] * 3

    def test_kept_arrays_are_read_only(self):
        # Row 3 keeps its summary, and the chunk's coordinates and tails for
        # rows 1 and 2 under a key of their own.
        scenario = mc_small_scenario()
        run_null(round_spec(scenario, "P31"))
        ids = np.arange(201).tobytes()
        memo = scenario._draws
        assert list(memo.entries) == [(None, ids, False), (None, ids, True)]
        draws, summary = memo.entries.values()
        assert draws.factors is None and summary.signal is not None
        arrays = [*draws.coords, draws.tails, *(a for a in summary if isinstance(a, np.ndarray))]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            draws.coords[0][0] *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            summary.coords[0] *= 2.0

    def test_row_3_splits_each_chunk_once(self, monkeypatch):
        # The channels' splits are the Gram eigenvalues of (trials, L, K, M)
        # stacks of factors, K > M; the stack of all channels, split per
        # panel, has three axes.  No tail is small enough to need an SVD.
        shapes = {"eigvalsh": [], "svd": []}

        def recording(name):
            real = getattr(np.linalg, name)
            return lambda a, *args, **kw: shapes[name].append(a.shape) or real(a, *args, **kw)

        for name in shapes:
            monkeypatch.setattr(np.linalg, name, recording(name))
        scenario = mc_small_scenario()
        for panel in ("P31", "P32", "P33"):
            run_roc(round_spec(scenario, panel))
        grams = shapes["eigvalsh"]
        assert sum(len(shape) == 4 for shape in grams) == 3  # the null and two alternatives
        assert sum(len(shape) == 3 for shape in grams) == 9
        assert all(len(shape) == 2 for shape in shapes["svd"])  # only the channels' bases

    def test_a_kept_summary_still_gates_column_3(self, monkeypatch):
        # N_l = J leaves column 3 no residual: P31 keeps the chunk's summary,
        # and P33 raises on reading it, without drawing again.
        scenario = two_channel_scenario(m=8, n=2, j=2)
        run_null(round_spec(scenario, "P31"))
        monkeypatch.setattr(harness, "draw_trials", None)
        with pytest.raises(ValueError, match="channel 0 needs more than J=2 samples"):
            run_null(round_spec(scenario, "P33"))
        run_null(round_spec(scenario, "P32"))

    def test_new_seed_empties_the_memo(self):
        scenario = mc_small_scenario()
        run_roc(round_spec(scenario, "P11"))
        assert len(scenario._draws.entries) == 3
        run_null(round_spec(scenario, "P11", seed=18))
        assert scenario._draws.seed == 18 and len(scenario._draws.entries) == 1

    def test_chunks_over_the_bound_are_not_kept(self, monkeypatch):
        # Ten trials of two channels' 2 x 8 coordinates are 320 complex
        # entries, and their 20 real tails 10 more.
        scenario = mc_small_scenario()
        memo, channels, ids = scenario._draws, scenario.channels(), np.arange(10)
        first, second = (draw_trials(channels, 8, 5, i) for i in (ids, ids + 10))
        key, later = (None, ids.tobytes(), False), (None, (ids + 10).tobytes(), False)
        assert memo.find(5, key) is None
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 320)
        memo.keep(key, first)
        assert memo.entries == {} and first.coords[0].flags.writeable
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 330)
        memo.keep(key, first)
        assert memo.find(5, key) is first
        memo.keep(later, second)  # the oldest goes
        assert memo.entries == {later: second}
        assert memo.find(5, key) is None

    def test_a_kept_key_keeps_its_value(self):
        # Each key holds one value; the row class is part of the key.
        scenario = mc_small_scenario()
        memo, channels, ids = scenario._draws, scenario.channels(), np.arange(10)
        first, again = (draw_trials(channels, 8, 5, ids) for _ in range(2))
        key = (None, ids.tobytes(), False)
        assert memo.find(5, key) is None
        memo.keep(key, first)
        memo.keep(key, again)
        assert memo.find(5, key) is first
        assert memo.find(5, key[:2] + (True,)) is None  # row 3 needs its summary

    def test_replaced_or_pickled_scenario_has_no_memo(self):
        scenario = mc_small_scenario()
        spec = round_spec(scenario, "P11")
        sample = run_null(spec).sample
        assert scenario._draws.entries
        replaced = dataclasses.replace(scenario)
        assert replaced == scenario and replaced._draws.entries == {}
        restored = pickle.loads(pickle.dumps(scenario))
        assert restored == scenario and "_draws" not in vars(restored)
        np.testing.assert_array_equal(
            run_null(dataclasses.replace(spec, scenario=restored)).sample, sample)

    def test_jobs_neither_read_nor_fill_the_memo(self):
        scenario = mc_small_scenario()
        spec = round_spec(scenario, "P11")
        parallel = run_null(spec, jobs=2).sample
        assert "_draws" not in vars(scenario)
        np.testing.assert_array_equal(run_null(spec).sample, parallel)
        # Poison the kept draws: one job reads them, two do not.
        memo = scenario._draws
        for key, kept in memo.entries.items():
            memo.entries[key] = kept._replace(coords=[2.0 * a for a in kept.coords])
        assert not np.array_equal(run_null(spec).sample, parallel)
        np.testing.assert_array_equal(run_null(spec, jobs=2).sample, parallel)
