"""The benchmark's four workloads and their correctness oracles.

Each workload builds its inputs from the seed in ``prepare`` (the set-up the
benchmark times in fresh processes), splits one round of fixed work into timed
``steps`` (the timed phase repeats whole rounds), and checks the outputs of
its last rounds in ``check`` outside the timed phase.  A step is a key for
the rate it counts towards and a call returning the items it completed.
Steps call the public glrfusion API with ``jobs=1`` only, through handles
the tracer can wrap.

An operation is one top-level call: a ``run_roc``/``run_null`` call, one CLI
command, or one fused data set.  It fails when it raises, exits non-zero,
yields a non-finite value where a finite one is expected, or fails its
oracle (run.py adds the oracle failures to ``failed``).
"""

from __future__ import annotations

import csv
import functools
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from glrfusion import cli, fusion, harness
from glrfusion import (
    ExperimentSpec,
    KnowledgeSpec,
    PropagationSpec,
    Scenario,
    balanced_tree,
    detect,
    draw_amplitudes,
    load_measurements,
    narrowband_channel,
    simulate,
)

SAMPLE_PERIOD_S = 1e-6
# Panels interleaved by row, so slow drift of the machine's speed reaches
# every row alike.
ALL_PANELS = ("P11", "P21", "P31", "P12", "P22", "P32", "P13", "P23", "P33")


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def channel_entries(rng: np.random.Generator, n_channels: int, n_samples: int,
                    carrier_hz: float, spread: float = 0.4) -> list[dict]:
    """Channels in the CLI config format: random gains, noise and geometry.

    Gain magnitudes lie in [1 - spread, 1 + spread] and noise variances in
    [1/(1 + 2 spread), 1 + 2 spread], so ``spread`` sets how unequal the
    channels' SNRs are.
    """
    entries = []
    noise_span = 1.0 + 2.0 * spread
    for _ in range(n_channels):
        mag = rng.uniform(1.0 - spread, 1.0 + spread)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        entries.append({
            "n_samples": n_samples,
            "carrier_hz": carrier_hz,
            "sample_period_s": SAMPLE_PERIOD_S,
            "gain": [mag * math.cos(phase), mag * math.sin(phase)],
            "noise_variance": float(rng.uniform(1.0 / noise_span, noise_span)),
            "delay_s": float(rng.uniform(0.0, 8.0) * SAMPLE_PERIOD_S),
            "doppler_hz": float(rng.uniform(-2e3, 2e3)),
        })
    return entries


def scenario(entries: list[dict], modes: int, snapshots: int) -> Scenario:
    specs = tuple(PropagationSpec(
        carrier_hz=e["carrier_hz"], sample_period_s=e["sample_period_s"],
        n_samples=e["n_samples"], n_modes=modes, delay_s=e["delay_s"],
        doppler_hz=e["doppler_hz"]) for e in entries)
    return Scenario(specs=specs,
                    gains=tuple(complex(*e["gain"]) for e in entries),
                    noise_variances=tuple(e["noise_variance"] for e in entries),
                    n_snapshots=snapshots)


def plain_p11(sc: Scenario, ms) -> float:
    """tr(P_F S_w)/L in plain numpy: whitened composite channel and data."""
    channels = sc.channels()
    f_w = np.vstack([(ch.gain / ch.noise_sigma) * ch.matrix for ch in channels])
    z_w = np.vstack([ms.block(i) / ch.noise_sigma for i, ch in enumerate(channels)])
    q, _ = np.linalg.qr(f_w)
    proj = q.conj().T @ z_w
    return float(np.sum(np.abs(proj) ** 2)) / ms.n_snapshots / len(channels)


class Api:
    """The benchmark's handles on the top-level functions it calls."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.run_roc = tracer.entry("harness.run_roc", harness.run_roc)
        self.run_null = tracer.entry("harness.run_null", harness.run_null)
        self.cli_main = tracer.entry("cli.main", cli.main)
        self.channel_message = tracer.entry("fusion.channel_message",
                                            fusion.channel_message)
        self.daisy_chain_fuse = tracer.entry("fusion.daisy_chain_fuse",
                                             fusion.daisy_chain_fuse)
        self.partition_cv = tracer.entry("fusion.partition_cv", fusion.partition_cv)


class Workload:
    """Shared bookkeeping: attempted and failed operations, bytes written."""

    item_unit = "items"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.bytes_written = 0

    def op(self, label: str, fn, *args, **kwargs):
        """Run one top-level operation; a raise counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is measured, not fatal
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def summary(self) -> dict:
        return {}


class MonteCarlo(Workload):
    """ROC or null experiments over a fixed panel list, one call per panel per round."""

    item_unit = "trials"

    def __init__(self, seed, workdir, *, panels, channels, samples, modes,
                 snapshots, trials, roc):
        super().__init__(seed, workdir)
        self.panels = tuple(KnowledgeSpec.from_panel(p) for p in panels)
        self.entries = channel_entries(self.rng, channels, samples, carrier_hz=1e9)
        self.modes, self.snapshots = modes, snapshots
        self.trials = trials
        self.roc = roc
        self.last: dict[str, tuple] = {}

    def prepare(self) -> None:
        self.sc = scenario(self.entries, self.modes, self.snapshots)
        self.channels = self.sc.channels()

    def spec(self, panel: KnowledgeSpec, round_index: int) -> ExperimentSpec:
        return ExperimentSpec(
            panel=panel, scenario=self.sc, trials=self.trials,
            seed=self.seed * 1000 + round_index,
            snr_db=(0.0, 10.0) if self.roc else (),
            pfa_targets=(0.1, 0.05) if self.roc else ())

    def steps(self, api: Api, round_index: int) -> list:
        return [(f"trials_per_s.{p.channel_knowledge.value}",
                 functools.partial(self._experiment, api, p, round_index))
                for p in self.panels]

    def _experiment(self, api: Api, panel: KnowledgeSpec, round_index: int) -> int:
        spec = self.spec(panel, round_index)
        fn = api.run_roc if self.roc else api.run_null
        out = self.op(f"{panel.panel} round {round_index}", fn, spec, jobs=1)
        if out is None:
            return 0
        if self.roc:
            values = [c.area() for c in out] + [t for c in out for t in c.thresholds]
        else:
            values = list(out.sample)
        if not all(math.isfinite(v) for v in values):
            self.fail(f"{panel.panel} round {round_index}: non-finite output")
        self.last[panel.panel] = (spec, out)
        return spec.trials * (1 + len(spec.snr_db))

    def _recompute(self, spec: ExperimentSpec, trial: int, amp_scale=None) -> float:
        amps = None
        if amp_scale is not None:
            amps = draw_amplitudes(self.modes, self.snapshots, amp_scale, spec.seed,
                                   trial=trial)
        ms = simulate(self.channels, self.snapshots, spec.seed, amplitudes=amps,
                      trial=trial)
        return detect(spec.panel, self.channels, ms).composite

    def check(self) -> list[str]:
        problems = []
        spot = self.rng.choice(self.trials, size=min(self.spot_trials, self.trials),
                               replace=False)
        for panel in self.panels:
            if panel.panel not in self.last:
                problems.append(f"{panel.panel}: no completed experiment to check")
                continue
            spec, out = self.last[panel.panel]
            sample = harness.run_null(spec).sample if self.roc else out.sample
            for t in spot:
                value = self._recompute(spec, int(t))
                if not np.any(np.abs(sample - value) <= 1e-12 * max(1.0, abs(value))):
                    problems.append(f"{panel.panel}: null trial {t} = {value!r} "
                                    "is not in the null sample")
            if self.roc:
                problems += self._check_roc(spec, out, sample)
        ms = simulate(self.channels, self.snapshots, self.seed, trial=0)
        ours = detect(KnowledgeSpec.from_panel("P11"), self.channels, ms).composite
        plain = plain_p11(self.sc, ms)
        if not close(ours, plain, 1e-10):
            problems.append(f"P11 composite {ours!r} != plain tr(P_F S_w)/L {plain!r}")
        return problems

    def _check_roc(self, spec, curves, null_sample) -> list[str]:
        """Thresholds are null quantiles; Pd at the top SNR recomputed in full."""
        problems = []
        pfas = np.sort(np.asarray(spec.pfa_targets))[::-1]
        expected = np.maximum.accumulate(np.quantile(null_sample, 1.0 - pfas))
        name = spec.panel.panel
        for curve in curves:
            if not np.allclose(curve.thresholds, expected, rtol=1e-12, atol=1e-12):
                problems.append(f"{name}: thresholds {curve.thresholds} != "
                                f"null quantiles {expected}")
        k = len(spec.snr_db) - 1
        scale = spec.scenario.amplitude_scale(spec.snr_db[k])
        alt = np.array([self._recompute(spec, t + (k + 1) * spec.trials, scale)
                        for t in range(spec.trials)])
        pd = np.array([(alt > t).mean() for t in curves[k].thresholds])
        if not np.array_equal(pd, curves[k].pd):
            problems.append(f"{name}: pd {curves[k].pd} != recomputed {pd}")
        return problems


class McSmall(MonteCarlo):
    spot_trials = 4
    trace_rounds = 1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, panels=ALL_PANELS, channels=2, samples=16,
                         modes=2, snapshots=8, trials=200, roc=True)


class McLarge(MonteCarlo):
    spot_trials = 1
    trace_rounds = 1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, panels=("P11", "P23", "P33"), channels=8,
                         samples=128, modes=4, snapshots=32, trials=2, roc=False)


class ScanImage(Workload):
    """CLI scan over a delay x Doppler grid of one fixed H1 data set."""

    item_unit = "cells"
    trace_rounds = 2
    panels = ("P11", "P21")
    shape = (4, 64)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        n = 64
        period = n * SAMPLE_PERIOD_S
        n_delay, n_doppler = self.shape
        # With J=2 modes a differential delay shows only as the phase between
        # the two columns, which repeats every observation window T and is
        # resolved to about T/4; Doppler shifts the columns' span and is
        # resolved to half a DFT bin.  Channel SNRs are kept within a few dB
        # of each other so the reference channel is never noise-dominated.
        self.delays = [k * period / n_delay for k in range(n_delay)]
        self.dopplers = [(k - n_doppler // 2) / (2.0 * period) for k in range(n_doppler)]
        self.target = (int(self.rng.integers(n_delay)), int(self.rng.integers(n_doppler)))
        entries = channel_entries(self.rng, 4, n, carrier_hz=2.5 / period, spread=0.1)
        for idx, entry in enumerate(entries):
            entry["delay_s"] = self.delays[self.target[0]] if idx else 0.0
            entry["doppler_hz"] = self.dopplers[self.target[1]] if idx else 0.0
        self.entries = entries
        self.base = {"modes": 2, "channels": entries}
        self.setups = 0

    def _write_config(self, name: str, config: dict) -> Path:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(config))
        return path

    def prepare(self) -> None:
        """Write the H1 data set with CLI simulate (repeated set-ups get fresh dirs)."""
        self.setups += 1
        data = self.workdir / f"data-{self.setups}"
        config = dict(self.base, seed=self.seed, snapshots=16, hypothesis="h1",
                      snr_db=10.0, output=str(data))
        rc = cli.main(["simulate", "--config",
                       str(self._write_config("simulate", config))])
        if rc != 0:
            raise RuntimeError(f"CLI simulate exited {rc}")
        self.data = data
        self.scan_configs = {}
        for panel in self.panels:
            config = dict(self.base, panel=panel, delays_s=self.delays,
                          dopplers_hz=self.dopplers, output=str(self.workdir / f"scan-{panel}"))
            self.scan_configs[panel] = self._write_config(f"scan-{panel}", config)

    def steps(self, api: Api, round_index: int) -> list:
        return [(f"cells_per_s.{panel}",
                 functools.partial(self._scan, api, panel, round_index))
                for panel in self.panels]

    def _scan(self, api: Api, panel: str, round_index: int) -> int:
        rc = self.op(f"scan {panel} round {round_index}", api.cli_main,
                     ["scan", "--config", str(self.scan_configs[panel]), str(self.data)])
        if rc is None:
            return 0
        if rc != 0:
            self.fail(f"scan {panel} round {round_index}: exit status {rc}")
            return 0
        self.bytes_written += sum(p.stat().st_size for p in
                                  (self.workdir / f"scan-{panel}").iterdir())
        return len(self.delays) * len(self.dopplers)

    def check(self) -> list[str]:
        problems = []
        sc = scenario(self.entries, 2, 16)
        ms = load_measurements(self.data)
        channels = sc.channels()
        cells = {self.target} | {(int(self.rng.integers(self.shape[0])),
                                  int(self.rng.integers(self.shape[1]))) for _ in range(3)}
        for panel in self.panels:
            csv_path = self.workdir / f"scan-{panel}" / "scan.csv"
            with csv_path.open() as handle:
                rows = list(csv.DictReader(handle))
            values = np.array([float(r["statistic"]) for r in rows])
            if values.size != np.prod(self.shape) or not np.all(np.isfinite(values)):
                problems.append(f"{panel}: image is not {self.shape} finite cells")
                continue
            image = values.reshape(self.shape)
            flagged = [i for i, r in enumerate(rows) if r["is_argmax"] == "1"]
            argmax = divmod(int(np.argmax(values)), self.shape[1])
            if flagged != [int(np.argmax(values))] or argmax != self.target:
                problems.append(f"{panel}: argmax {argmax} (flagged {flagged}) "
                                f"is not the target cell {self.target}")
            spec = KnowledgeSpec.from_panel(panel)
            for a, b in sorted(cells):
                cell = [ch if idx == 0 else narrowband_channel(
                            replace(sc.specs[idx], delay_s=self.delays[a],
                                    doppler_hz=self.dopplers[b]),
                            sc.gains[idx], sc.noise_variances[idx])
                        for idx, ch in enumerate(channels)]
                direct = detect(spec, cell, ms).composite
                if not close(image[a, b], direct, 1e-10):
                    problems.append(f"{panel}: cell {(a, b)} = {float(image[a, b])!r}, "
                                    f"direct detect gives {direct!r}")
        return problems


class FuseChain(Workload):
    """Per-channel messages, daisy-chain fusion and tree cross-validation."""

    item_unit = "data sets"
    trace_rounds = 4
    pool = 64

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.entries = channel_entries(self.rng, 8, 64, carrier_hz=1e9)
        self.tree = balanced_tree(8)
        self.latency_ms: list[float] = []
        self.results: dict[int, tuple[float, float]] = {}

    def prepare(self) -> None:
        """Pre-generate the data-set stream: even trials noise only, odd ones H1 at 5 dB."""
        self.sc = scenario(self.entries, 2, 16)
        self.channels = self.sc.channels()
        scale = self.sc.amplitude_scale(5.0)
        self.stream = []
        for k in range(self.pool):
            amps = draw_amplitudes(2, 16, scale, self.seed, trial=k) if k % 2 else None
            self.stream.append(simulate(self.channels, 16, self.seed, amplitudes=amps,
                                        trial=k))

    def _fuse(self, api: Api, ms) -> tuple[float, float]:
        messages = [api.channel_message(ch, ms.block(i), ms.n_snapshots)
                    for i, ch in enumerate(self.channels)]
        composite = api.daisy_chain_fuse(messages)[-1].composite
        cv = api.partition_cv(self.channels, ms, self.tree).cross_validation
        if not (math.isfinite(composite) and math.isfinite(cv)):
            raise ValueError(f"non-finite fusion output {composite!r}, {cv!r}")
        return composite, cv

    def steps(self, api: Api, round_index: int) -> list:
        return [("data_sets_per_s", functools.partial(self._fuse_stream, api, round_index))]

    def _fuse_stream(self, api: Api, round_index: int) -> int:
        clock = time.perf_counter
        done = 0
        for k, ms in enumerate(self.stream):
            api.tracer.item = k
            started = clock()
            out = self.op(f"data set {k} round {round_index}", self._fuse, api, ms)
            self.latency_ms.append((clock() - started) * 1e3)
            if out is not None:
                self.results[k] = out
                done += 1
        return done

    def check(self) -> list[str]:
        problems = []
        p11 = KnowledgeSpec.from_panel("P11")
        for k, ms in enumerate(self.stream):
            if k not in self.results:
                problems.append(f"data set {k}: never fused")
                continue
            composite, cv = self.results[k]
            report = detect(p11, self.channels, ms)
            if not close(composite, report.composite, 1e-9):
                problems.append(f"data set {k}: daisy-chain composite {composite!r} "
                                f"!= detect(P11) {report.composite!r}")
            if not close(cv, report.cross_validation, 1e-9):
                problems.append(f"data set {k}: partition_cv {cv!r} != detect(P11) "
                                f"cross-validation {report.cross_validation!r}")
        return problems

    def summary(self) -> dict:
        lat = np.asarray(self.latency_ms)
        if lat.size == 0:
            return {}
        return {"fuse_ms_p50": float(np.percentile(lat, 50)),
                "fuse_ms_p90": float(np.percentile(lat, 90)),
                "fuse_samples": int(lat.size)}


WORKLOADS = {
    "mc-small": McSmall,
    "mc-large": McLarge,
    "scan-image": ScanImage,
    "fuse-chain": FuseChain,
}
