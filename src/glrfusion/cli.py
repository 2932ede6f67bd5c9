"""Command-line front end: simulate | detect | roc | null | scan | calibrate.

One JSON config file drives each subcommand; individual keys can be
overridden on the command line with ``--set dotted.path=value``, where a
numeric part indexes a list (``--set channels.0.gain=2``).  Unknown
config keys are rejected before any computation.  Every run writes a
manifest echoing the fully-resolved config (plus seed, versions, and wall
time) next to its outputs, and all output files are written atomically
(write-temp-then-rename).  Diagnostics go to stderr; the exit status is 0
exactly when no error occurred.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
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
from .measurement import (_require_type, draw_amplitudes, load_measurements, save_measurements,
                          simulate)

_FLOAT_FMT = "{:.17g}"


def _fmt(value: float) -> str:
    return _FLOAT_FMT.format(float(value))


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _write_manifest(directory: Path, command: str, config: dict, outputs: list[str],
                    started: float, extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config": _json_ready(config),
        "seed": config.get("seed"),
        "versions": {
            "glrfusion": __version__,
            "numpy": np.__version__,
        },
        "wall_time_s": time.monotonic() - started,
        "outputs": outputs,
    }
    if extra:
        manifest.update(_json_ready(extra))
    _atomic_write_text(directory / "manifest.json", json.dumps(manifest, indent=2) + "\n")


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


# Declared value types, checked by ``measurement._require_type``: a type, a tuple
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
        _require_type(value, declared[key], f"config key {prefix + key!r}")


def _validate_config(command: str, config: dict) -> None:
    allowed, required = _COMMAND_KEYS[command]
    _check_keys(config, allowed, required, "config")
    _check_types(config, allowed, "")
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
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
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
    if report.gain_direction is not None:
        record["gain_direction"] = report.gain_direction
    if report.noise_null is not None:
        record["noise_null"] = report.noise_null
    if report.noise_alt is not None:
        record["noise_alt"] = report.noise_alt
    return _json_ready(record)


def _report_csv(report: DetectorReport) -> str:
    header = ["panel", "composite", "cross_validation", "degenerate"]
    row = [report.panel.panel, _fmt(report.composite),
           _fmt(report.cross_validation), str(int(report.degenerate))]
    for i, (a, lam) in enumerate(zip(report.alphas, report.per_channel)):
        header += [f"alpha_{i}", f"lambda_{i}"]
        row += [_fmt(a), _fmt(lam)]
    return ",".join(header) + "\n" + ",".join(row) + "\n"


# --------------------------------------------------------------------------
# Subcommands

def _cmd_simulate(config: dict, args) -> int:
    started = time.monotonic()
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
    staging = Path(tempfile.mkdtemp(dir=out.parent or Path("."),
                                    prefix=out.name + ".partial."))
    try:
        save_measurements(ms, staging)
        os.replace(staging, out)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    _write_manifest(out, "simulate", config,
                    sorted(p.name for p in out.iterdir()), started, extra)
    return 0


def _cmd_detect(config: dict, args) -> int:
    started = time.monotonic()
    ms = load_measurements(args.data)
    scenario = _scenario_from_config(config, ms.n_snapshots)
    channels = scenario.channels()
    panel = KnowledgeSpec.from_panel(config["panel"])
    report = detect(panel, channels, ms,
                    dominant_numerator=config.get("dominant_numerator", False))
    record = report_record(report)
    print(json.dumps(record, indent=2))
    if "output" in config:
        out = Path(config["output"])
        out.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(out / "report.json", json.dumps(record, indent=2) + "\n")
        _atomic_write_text(out / "report.csv", _report_csv(report))
        _write_manifest(out, "detect", config, ["report.json", "report.csv"], started)
    return 0


def _cmd_roc(config: dict, args) -> int:
    started = time.monotonic()
    spec = _experiment_from_config(config)
    curves = run_roc(spec, jobs=_jobs(args))
    lines = ["snr_db,threshold,pfa,pd,pd_wilson_halfwidth,pfa_wilson_halfwidth"]
    for curve in curves:
        for k in range(len(curve.thresholds)):
            lines.append(",".join([
                _fmt(curve.snr_db), _fmt(curve.thresholds[k]), _fmt(curve.pfa[k]),
                _fmt(curve.pd[k]), _fmt(curve.wilson_halfwidth[k]),
                _fmt(curve.pfa_halfwidth[k]),
            ]))
    out = Path(config["output"])
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(out / "roc.csv", "\n".join(lines) + "\n")
    _write_manifest(out, "roc", config, ["roc.csv"], started,
                    {"auc": {str(c.snr_db): c.area() for c in curves}})
    return 0


def _cmd_null(config: dict, args) -> int:
    started = time.monotonic()
    spec = _experiment_from_config(config)
    null = run_null(spec, jobs=_jobs(args))
    n = len(null.sample)
    lines = ["value,empirical_cdf"]
    for i, v in enumerate(null.sample):
        lines.append(f"{_fmt(v)},{_fmt((i + 1) / n)}")
    out = Path(config["output"])
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(out / "null_cdf.csv", "\n".join(lines) + "\n")
    extra = {
        "ks_reference": null.ks_reference,
        "ks_statistic": null.ks_statistic,
        "ks_pvalue": null.ks_pvalue,
        "reference_params": null.reference_params,
        "moment_matched": null.moment_matched,
        "low_trials_warning": null.low_trials_warning,
        "degenerate_trials": null.degenerate_trials,
    }
    _write_manifest(out, "null", config, ["null_cdf.csv"], started, extra)
    if null.ks_reference is not None:
        print(f"ks reference={null.ks_reference} statistic={_fmt(null.ks_statistic)} "
              f"pvalue={_fmt(null.ks_pvalue)}")
    return 0


def _cmd_scan(config: dict, args) -> int:
    started = time.monotonic()
    ms = load_measurements(args.data)
    scenario = _scenario_from_config(config, ms.n_snapshots)
    panel = KnowledgeSpec.from_panel(config["panel"])
    image = scan_likelihood_image(
        panel, scenario, ms,
        [float(v) for v in config["delays_s"]],
        [float(v) for v in config["dopplers_hz"]],
        scan_channels=config.get("scan_channels"),
    )
    lines = ["delay_s,doppler_hz,statistic,is_argmax"]
    for a, tau in enumerate(image.delays_s):
        for b, nu in enumerate(image.dopplers_hz):
            flag = int((a, b) == image.argmax_index)
            lines.append(f"{_fmt(tau)},{_fmt(nu)},{_fmt(image.values[a, b])},{flag}")
    out = Path(config["output"])
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(out / "scan.csv", "\n".join(lines) + "\n")
    _write_manifest(out, "scan", config, ["scan.csv"], started, {
        "argmax_delay_s": image.argmax_delay_s,
        "argmax_doppler_hz": image.argmax_doppler_hz,
    })
    return 0


def _cmd_calibrate(config: dict, args) -> int:
    started = time.monotonic()
    spec = _experiment_from_config(config)
    cal = calibrate_threshold(spec, float(config["pfa"]), jobs=_jobs(args))
    out = Path(config["output"])
    out.mkdir(parents=True, exist_ok=True)
    header = "threshold,pfa_target,achieved_pfa,wilson_low,wilson_high,trials"
    row = ",".join([
        _fmt(cal.threshold), _fmt(cal.pfa_target), _fmt(cal.achieved_pfa),
        _fmt(cal.wilson_low), _fmt(cal.wilson_high), str(cal.trials),
    ])
    _atomic_write_text(out / "calibration.csv", header + "\n" + row + "\n")
    _write_manifest(out, "calibrate", config, ["calibration.csv"], started, {
        "threshold": cal.threshold,
        "achieved_pfa": cal.achieved_pfa,
    })
    print(_fmt(cal.threshold))
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "detect": _cmd_detect,
    "roc": _cmd_roc,
    "null": _cmd_null,
    "scan": _cmd_scan,
    "calibrate": _cmd_calibrate,
}


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
    try:
        config = _load_config(args.config)
        config = _apply_overrides(config, args.overrides)
        _validate_config(args.command, config)
        return _HANDLERS[args.command](config, args)
    except (GlrFusionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
