"""Command-line front end: simulate | detect | roc | null | scan | calibrate.

One JSON config file drives each subcommand; individual keys can be
overridden on the command line with ``--set dotted.path=value``, where a
numeric part indexes a list (``--set channels.0.gain=2``).  Unknown
config keys are rejected before any computation.  Every run writes a
manifest echoing the fully-resolved config (plus seed, versions, platform,
BLAS thread settings and wall time) as the last of its outputs.  Every file,
data and message sets included, is written atomically
(write-temp-then-rename) by :func:`glrfusion.formats.write_files`, and
``simulate``'s data set appears by one directory rename.  ``simulate``
writes a data set of version 2, one ``.npy`` file per channel block;
``detect`` and ``scan`` read version 2 and version 1, whose blocks are CSV
files (:func:`glrfusion.formats.load_measurements`).  Diagnostics go to
stderr; the exit status is 0 exactly when no error occurred.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .channel import PropagationSpec, radial_velocity_to_doppler
from .detectors import DetectorReport, KnowledgeSpec, detect
from .errors import ConfigError, GlrFusionError
from .harness import (
    ExperimentSpec,
    Scenario,
    calibrate_threshold,
    run_null,
    run_roc,
    scan_likelihood_image,
)
from .formats import (csv_text, float_text, json_text, load_measurements, measurement_files,
                      require_type, write_files)
from .measurement import draw_amplitudes, simulate

# Environment variables that set the thread count of numpy's BLAS.
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _write_outputs(directory, command: str, config: dict, started: float,
                   files: dict[str, str], extra: dict | None = None) -> Path:
    """Write a command's output files, then its manifest, into ``directory``."""
    import scipy  # for its version only: importing the CLI loads no scipy module

    uname = platform.uname()
    manifest = {
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "versions": {
            "glrfusion": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "platform": {"system": uname.system, "release": uname.release,
                     "machine": uname.machine},
        "blas_threads": {name: os.environ[name] for name in _BLAS_THREAD_VARS
                         if name in os.environ},
        "wall_time_s": time.monotonic() - started,
        "outputs": list(files),
        **(extra or {}),
    }
    return write_files(directory, {**files, "manifest.json": json_text(manifest)})


# --------------------------------------------------------------------------
# Config handling

def _check_keys(obj: dict, allowed: dict, required: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown} under {path}")
    missing = sorted(required - set(obj))
    if missing:
        raise ConfigError(f"missing config key(s) {missing} under {path}")


# Declared value types, checked by ``formats.require_type``: a type, a tuple
# of alternatives, or [t] for a list of t.  A bool is never read as a number.
_NUMBER = (int, float)

_CHANNEL_KEYS = {
    "n_samples": int,
    "gain": _NUMBER + ([_NUMBER],),
    "noise_variance": _NUMBER,
    "carrier_hz": _NUMBER,
    "sample_period_s": _NUMBER,
    "delay_s": _NUMBER,
    "doppler_hz": _NUMBER,
    "radial_velocity_mps": _NUMBER,
    "clock_offset_s": _NUMBER,
}

_COMMAND_KEYS = {
    "simulate": (
        {"seed": int, "snapshots": int, "modes": int, "channels": [dict],
         "hypothesis": str, "snr_db": _NUMBER, "output": str},
        {"seed", "snapshots", "modes", "channels", "hypothesis", "output"},
    ),
    "detect": (
        {"panel": str, "modes": int, "channels": [dict], "output": str,
         "dominant_numerator": bool},
        {"panel", "modes", "channels"},
    ),
    "roc": (
        {"panel": str, "modes": int, "channels": [dict], "snapshots": int,
         "trials": int, "seed": int, "snr_db": [_NUMBER], "pfa_targets": [_NUMBER],
         "output": str},
        {"panel", "modes", "channels", "snapshots", "trials", "seed",
         "snr_db", "pfa_targets", "output"},
    ),
    "null": (
        {"panel": str, "modes": int, "channels": [dict], "snapshots": int,
         "trials": int, "seed": int, "output": str},
        {"panel", "modes", "channels", "snapshots", "trials", "seed", "output"},
    ),
    "scan": (
        {"panel": str, "modes": int, "channels": [dict], "delays_s": [_NUMBER],
         "dopplers_hz": [_NUMBER], "scan_channels": [int], "output": str},
        {"panel", "modes", "channels", "delays_s", "dopplers_hz", "output"},
    ),
    "calibrate": (
        {"panel": str, "modes": int, "channels": [dict], "snapshots": int,
         "trials": int, "seed": int, "pfa": _NUMBER, "output": str},
        {"panel", "modes", "channels", "snapshots", "trials", "seed", "pfa",
         "output"},
    ),
}


def _check_types(obj: dict, declared: dict, prefix: str) -> None:
    for key, value in obj.items():
        require_type(value, declared[key], f"config key {prefix + key!r}")


def _validate_config(command: str, config: dict) -> None:
    allowed, required = _COMMAND_KEYS[command]
    _check_keys(config, allowed, required, "config")
    _check_types(config, allowed, "")
    if config.get("seed", 0) < 0:
        raise ConfigError(f"config key 'seed' must be non-negative, got {config['seed']}")
    if config.get("seed", 0) >= 2**32:  # a wider seed aliases another seed's streams
        raise ConfigError(f"config key 'seed' must be below 2**32, got {config['seed']}")
    for idx, entry in enumerate(config.get("channels", [])):
        _check_keys(entry, _CHANNEL_KEYS,
                    {"n_samples", "carrier_hz", "sample_period_s"},
                    f"channels[{idx}]")
        _check_types(entry, _CHANNEL_KEYS, f"channels[{idx}].")
        if "doppler_hz" in entry and "radial_velocity_mps" in entry:
            raise ConfigError(
                f"channels[{idx}] sets both doppler_hz and radial_velocity_mps"
            )
    if command == "simulate":
        if config["hypothesis"] not in ("h0", "h1"):
            raise ConfigError("hypothesis must be 'h0' or 'h1'")
        if config["hypothesis"] == "h1" and "snr_db" not in config:
            raise ConfigError("hypothesis 'h1' requires snr_db")


def _load_config(path: str) -> dict:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def _apply_overrides(config: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key.path=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        *path, last = dotted.split(".")
        target = config
        for part in path:
            key = _override_key(target, part, dotted)
            if isinstance(target, dict) and not isinstance(target.get(key), (dict, list)):
                target[key] = {}
            target = target[key]
        target[_override_key(target, last, dotted)] = value
    return config


def _override_key(target, part: str, dotted: str):
    """The key or list index that ``part`` names in ``target``."""
    if isinstance(target, dict):
        return part
    if not isinstance(target, list):
        raise ConfigError(f"override {dotted!r}: {part!r} indexes a {type(target).__name__}")
    if not part.isdigit() or int(part) >= len(target):
        raise ConfigError(f"override {dotted!r}: no element {part!r} in a list of "
                          f"{len(target)}")
    return int(part)


def _gain_value(raw) -> complex:
    if isinstance(raw, (int, float)):
        return complex(raw)
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        return complex(float(raw[0]), float(raw[1]))
    raise ConfigError(f"gain must be a number or [re, im], got {raw!r}")


def _scenario_from_config(config: dict, snapshots: int | None) -> Scenario:
    specs = []
    gains = []
    variances = []
    modes = int(config["modes"])
    for entry in config["channels"]:
        doppler = entry.get("doppler_hz", 0.0)
        if "radial_velocity_mps" in entry:
            doppler = radial_velocity_to_doppler(
                float(entry["radial_velocity_mps"]), float(entry["carrier_hz"])
            )
        specs.append(PropagationSpec(
            carrier_hz=float(entry["carrier_hz"]),
            sample_period_s=float(entry["sample_period_s"]),
            n_samples=int(entry["n_samples"]),
            n_modes=modes,
            delay_s=float(entry.get("delay_s", 0.0)),
            doppler_hz=float(doppler),
            clock_offset_s=float(entry.get("clock_offset_s", 0.0)),
        ))
        gains.append(_gain_value(entry.get("gain", 1.0)))
        variances.append(float(entry.get("noise_variance", 1.0)))
    return Scenario(
        specs=tuple(specs),
        gains=tuple(gains),
        noise_variances=tuple(variances),
        n_snapshots=1 if snapshots is None else int(snapshots),
    )


def _jobs(args) -> int:
    """The ``--jobs`` worker count, checked before any worker starts."""
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise ConfigError(f"--jobs must be from 1 to the CPU count {cpus}, got {args.jobs}")
    return args.jobs


def _experiment_from_config(config: dict) -> ExperimentSpec:
    return ExperimentSpec(
        panel=KnowledgeSpec.from_panel(config["panel"]),
        scenario=_scenario_from_config(config, config["snapshots"]),
        trials=int(config["trials"]),
        seed=int(config["seed"]),
        snr_db=tuple(float(v) for v in config.get("snr_db", ())),
        pfa_targets=tuple(float(v) for v in config.get("pfa_targets", ())),
    )


# --------------------------------------------------------------------------
# Report serialization

def report_record(report: DetectorReport) -> dict:
    """The report's fields as a record for :func:`~glrfusion.formats.json_text`."""
    record = {
        "panel": report.panel.panel,
        "composite": report.composite,
        "alphas": report.alphas,
        "per_channel": report.per_channel,
        "cross_validation": report.cross_validation,
        "degenerate": report.degenerate,
        "decomposition_residual": (
            float(report.alphas @ report.per_channel - report.cross_validation
                  - report.composite)
            if np.isfinite(report.composite) else None
        ),
    }
    for name in ("gain_direction", "noise_null", "noise_alt", "coherences", "fusion_stats"):
        if getattr(report, name) is not None:
            record[name] = getattr(report, name)
    return record


def _report_csv(report: DetectorReport) -> str:
    header = ["panel", "composite", "cross_validation", "degenerate"]
    row = [report.panel.panel, report.composite, report.cross_validation,
           int(report.degenerate)]
    for i, (a, lam) in enumerate(zip(report.alphas, report.per_channel)):
        header += [f"alpha_{i}", f"lambda_{i}"]
        row += [a, lam]
    return csv_text(",".join(header), [row])


# --------------------------------------------------------------------------
# Subcommands

def _cmd_simulate(config: dict, args, started: float) -> int:
    scenario = _scenario_from_config(config, config["snapshots"])
    channels = scenario.channels()
    seed = int(config["seed"])
    m = int(config["snapshots"])
    extra: dict = {"hypothesis": config["hypothesis"]}
    amplitudes = None
    if config["hypothesis"] == "h1":
        scale = scenario.amplitude_scale(float(config["snr_db"]))
        amplitudes = draw_amplitudes(scenario.n_modes, m, scale, seed)
        extra["snr_db"] = float(config["snr_db"])
        extra["amplitude_scale"] = scale
    ms = simulate(channels, m, seed, amplitudes=amplitudes)
    out = Path(config["output"])
    if out.exists():
        if not out.is_dir() or any(out.iterdir()):
            raise ConfigError(f"output path {out} exists and is not an empty directory")
        out.rmdir()
    # The data set is written beside the output and appears there by one rename.
    staging = out.with_name(f"{out.name}.partial.{os.getpid()}")
    try:
        _write_outputs(staging, "simulate", config, started, measurement_files(ms), extra)
        os.replace(staging, out)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return 0


def _cmd_detect(config: dict, args, started: float) -> int:
    ms = load_measurements(args.data)
    scenario = _scenario_from_config(config, ms.n_snapshots)
    channels = scenario.channels()
    panel = KnowledgeSpec.from_panel(config["panel"])
    report = detect(panel, channels, ms,
                    dominant_numerator=config.get("dominant_numerator", False))
    record = json_text(report_record(report))
    print(record, end="")
    if "output" in config:
        _write_outputs(config["output"], "detect", config, started,
                       {"report.json": record, "report.csv": _report_csv(report)})
    return 0


def _cmd_roc(config: dict, args, started: float) -> int:
    spec = _experiment_from_config(config)
    curves = run_roc(spec, jobs=_jobs(args))
    rows = [(c.snr_db, c.thresholds[k], c.pfa[k], c.pd[k], c.wilson_halfwidth[k],
             c.pfa_halfwidth[k]) for c in curves for k in range(len(c.thresholds))]
    header = "snr_db,threshold,pfa,pd,pd_wilson_halfwidth,pfa_wilson_halfwidth"
    degenerate = {str(c.snr_db): c.degenerate_trials for c in curves}
    degenerate["null"] = curves[0].null_degenerate_trials
    _write_outputs(config["output"], "roc", config, started, {"roc.csv": csv_text(header, rows)},
                   {"auc": {str(c.snr_db): c.area() for c in curves},
                    "degenerate_trials": degenerate})
    return 0


def _cmd_null(config: dict, args, started: float) -> int:
    spec = _experiment_from_config(config)
    null = run_null(spec, jobs=_jobs(args))
    n = len(null.sample)
    rows = [(v, (i + 1) / n) for i, v in enumerate(null.sample)]
    summary = {k: v for k, v in vars(null).items() if k not in ("sample", "panel")}
    _write_outputs(config["output"], "null", config, started,
                   {"null_cdf.csv": csv_text("value,empirical_cdf", rows)}, summary)
    if null.ks_reference is not None:
        print(f"ks reference={null.ks_reference} statistic={float_text(null.ks_statistic)} "
              f"pvalue={float_text(null.ks_pvalue)}")
    return 0


def _cmd_scan(config: dict, args, started: float) -> int:
    ms = load_measurements(args.data)
    scenario = _scenario_from_config(config, ms.n_snapshots)
    panel = KnowledgeSpec.from_panel(config["panel"])
    image = scan_likelihood_image(panel, scenario, ms, config["delays_s"], config["dopplers_hz"],
                                  scan_channels=config.get("scan_channels"))
    # Each distinct delay and Doppler is formatted once, and the statistics by column.
    dopplers = [float_text(nu) for nu in image.dopplers_hz.tolist()]
    cells = [f"{tau},{nu}" for tau in map(float_text, image.delays_s.tolist()) for nu in dopplers]
    rows = [f"{cell},{stat},0"
            for cell, stat in zip(cells, map(float_text, image.values.ravel().tolist()))]
    argmax = image.argmax_index[0] * len(dopplers) + image.argmax_index[1]
    rows[argmax] = rows[argmax][:-1] + "1"
    csv = "\n".join(["delay_s,doppler_hz,statistic,is_argmax", *rows, ""])
    _write_outputs(config["output"], "scan", config, started, {"scan.csv": csv}, {
        "argmax_delay_s": image.argmax_delay_s,
        "argmax_doppler_hz": image.argmax_doppler_hz,
    })
    return 0


def _cmd_calibrate(config: dict, args, started: float) -> int:
    spec = _experiment_from_config(config)
    cal = calibrate_threshold(spec, float(config["pfa"]), jobs=_jobs(args))
    header = "threshold,pfa_target,achieved_pfa,wilson_low,wilson_high,trials"
    row = [cal.threshold, cal.pfa_target, cal.achieved_pfa, cal.wilson_low, cal.wilson_high,
           cal.trials]
    _write_outputs(config["output"], "calibrate", config, started,
                   {"calibration.csv": csv_text(header, [row])}, {
                       "threshold": cal.threshold,
                       "achieved_pfa": cal.achieved_pfa,
                       "degenerate_trials": cal.degenerate_trials,
                   })
    print(float_text(cal.threshold))
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "detect": _cmd_detect,
    "roc": _cmd_roc,
    "null": _cmd_null,
    "scan": _cmd_scan,
    "calibrate": _cmd_calibrate,
}


# Built once per process: parse_args fills a new namespace on each call and
# leaves the parser as it was, so every main call shares one parser.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glrfusion",
        description="Multi-channel GLR detection: simulation, detection, and "
                    "Monte-Carlo analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name, help=f"run the {name} command")
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY.PATH=VALUE",
                       help="override a config key (JSON-parsed value); a numeric "
                            "part indexes a list, as in channels.0.gain=2")
        if name in ("roc", "null", "calibrate"):
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes for Monte-Carlo trials, 1 to the CPU count")
        if name in ("detect", "scan"):
            p.add_argument("data", help="measurement directory to analyze")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        config = _load_config(args.config)
        config = _apply_overrides(config, args.overrides)
        _validate_config(args.command, config)
        return _HANDLERS[args.command](config, args, started)
    except (GlrFusionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
