"""End-to-end tests of the command-line front end."""

from __future__ import annotations

import json
import os
import platform
import warnings

import numpy as np
import pytest

from glrfusion.cli import main


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def channel_entry(n=8, **overrides):
    entry = {
        "n_samples": n,
        "carrier_hz": 1.0e6,
        "sample_period_s": 1.0e-3,
        "gain": 1.0,
        "noise_variance": 1.0,
    }
    entry.update(overrides)
    return entry


def simulate_config(tmp_path, out_name="data", hypothesis="h0", channels=None, **extra):
    cfg = {
        "seed": 7,
        "snapshots": 4,
        "modes": 1,
        "channels": channels or [channel_entry()],
        "hypothesis": hypothesis,
        "output": str(tmp_path / out_name),
    }
    cfg.update(extra)
    return cfg


class TestSimulate:
    def test_minimal_run_writes_blocks_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", simulate_config(tmp_path))
        assert main(["simulate", "--config", cfg]) == 0
        out = tmp_path / "data"
        assert (out / "header.json").exists()
        assert (out / "block_00.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["seed"] == 7
        assert manifest["hypothesis"] == "h0"
        assert "amplitude_scale" not in manifest
        assert "versions" in manifest and "wall_time_s" in manifest

    def test_h1_manifest_records_amplitude_scale(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            simulate_config(tmp_path, out_name="d1", hypothesis="h1", snr_db=10.0),
        )
        assert main(["simulate", "--config", cfg]) == 0
        manifest = json.loads((tmp_path / "d1" / "manifest.json").read_text())
        assert manifest["snr_db"] == 10.0
        assert manifest["amplitude_scale"] > 0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = write_config(tmp_path / "a.json", simulate_config(tmp_path, "run_a"))
        cfg_b = write_config(tmp_path / "b.json", simulate_config(tmp_path, "run_b"))
        assert main(["simulate", "--config", cfg_a]) == 0
        assert main(["simulate", "--config", cfg_b]) == 0
        a = (tmp_path / "run_a" / "block_00.csv").read_bytes()
        b = (tmp_path / "run_b" / "block_00.csv").read_bytes()
        assert a == b

    def test_existing_nonempty_output_rejected(self, tmp_path, capsys):
        out = tmp_path / "busy"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        cfg = write_config(tmp_path / "c.json", simulate_config(tmp_path, "busy"))
        assert main(["simulate", "--config", cfg]) == 1
        assert "error:" in capsys.readouterr().err


class TestDetect:
    def make_data(self, tmp_path, hypothesis="h1", channels=None, modes=1, **extra):
        cfg = simulate_config(tmp_path, "data", hypothesis, channels,
                              modes=modes, **extra)
        if hypothesis == "h1":
            cfg.setdefault("snr_db", 30.0)
        path = write_config(tmp_path / "sim.json", cfg)
        assert main(["simulate", "--config", path]) == 0
        return cfg

    def test_detect_reports_json(self, tmp_path, capsys):
        sim_cfg = self.make_data(tmp_path)
        cfg = write_config(tmp_path / "det.json", {
            "panel": "p11",
            "modes": 1,
            "channels": sim_cfg["channels"],
        })
        assert main(["detect", "--config", cfg, str(tmp_path / "data")]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["panel"] == "P11"
        assert abs(record["decomposition_residual"]) <= 1e-9

    @pytest.mark.parametrize("panel, fields", [("p13", {"fusion_stats"}),
                                               ("p21", {"coherences", "gain_direction"})])
    def test_detect_writes_every_report_field(self, tmp_path, capsys, panel, fields):
        # Column 3 reports the fusion statistics, row 2 the coherences of the
        # matched outputs and the gain direction; report.json and the printed
        # record hold them as the report does.
        from glrfusion import KnowledgeSpec, detect, load_measurements
        from glrfusion.cli import _scenario_from_config

        channels = [channel_entry(), channel_entry(n=6, gain=0.5, doppler_hz=40.0)]
        sim_cfg = self.make_data(tmp_path, channels=channels, modes=2, snr_db=5.0)
        cfg = {"panel": panel, "modes": 2, "channels": channels,
               "output": str(tmp_path / "report")}
        path = write_config(tmp_path / "det.json", cfg)
        assert main(["detect", "--config", path, str(tmp_path / "data")]) == 0
        printed = json.loads(capsys.readouterr().out)
        written = json.loads((tmp_path / "report" / "report.json").read_text())
        report = detect(KnowledgeSpec.from_panel(panel),
                        _scenario_from_config(cfg, sim_cfg["snapshots"]).channels(),
                        load_measurements(tmp_path / "data"))
        optional = {"gain_direction", "noise_null", "noise_alt", "coherences", "fusion_stats"}
        for record in (printed, written):
            present = {name for name in optional if name in record}
            assert present == {name for name in optional if getattr(report, name) is not None}
            assert fields <= present
            for name in present:
                value = np.asarray(record[name], dtype=float)
                if np.iscomplexobj(getattr(report, name)):
                    value = value[..., 0] + 1j * value[..., 1]
                np.testing.assert_allclose(value, getattr(report, name), rtol=1e-15, atol=0)

    def test_noise_free_in_span_has_tiny_penalty(self, tmp_path, capsys):
        from glrfusion import MeasurementSet, PropagationSpec, narrowband_channel
        from glrfusion.formats import save_measurements

        channels = [channel_entry(), channel_entry(doppler_hz=125.0)]
        built = [
            narrowband_channel(
                PropagationSpec(carrier_hz=c["carrier_hz"],
                                sample_period_s=c["sample_period_s"],
                                n_samples=c["n_samples"], n_modes=1,
                                doppler_hz=c.get("doppler_hz", 0.0)),
                gain=c["gain"], noise_variance=c["noise_variance"])
            for c in channels
        ]
        amps = np.exp(1j * np.linspace(0, 2, 4))[None, :]
        blocks = tuple(ch.gain * ch.matrix @ amps for ch in built)
        save_measurements(MeasurementSet(blocks), tmp_path / "data")
        cfg = write_config(tmp_path / "det.json", {
            "panel": "p11",
            "modes": 1,
            "channels": channels,
        })
        assert main(["detect", "--config", cfg, str(tmp_path / "data")]) == 0
        record = json.loads(capsys.readouterr().out)
        scale = max(1.0, abs(record["composite"]))
        assert record["cross_validation"] <= 1e-9 * scale

    def test_scaled_data_identical_record_for_cfar(self, tmp_path, capsys):
        sim_cfg = self.make_data(tmp_path)
        det_cfg = {
            "panel": "p12",
            "modes": 1,
            "channels": sim_cfg["channels"],
        }
        cfg = write_config(tmp_path / "det.json", det_cfg)
        assert main(["detect", "--config", cfg, str(tmp_path / "data")]) == 0
        base = json.loads(capsys.readouterr().out)

        # scale every stored entry by 3 and re-detect
        data_dir = tmp_path / "data"
        for name in ("block_00.csv",):
            rows = (data_dir / name).read_text().strip().splitlines()
            scaled = "\n".join(
                ",".join("{:.17g}".format(3.0 * float(tok)) for tok in row.split(","))
                for row in rows
            )
            (data_dir / name).write_text(scaled + "\n")
        assert main(["detect", "--config", cfg, str(tmp_path / "data")]) == 0
        scaled_record = json.loads(capsys.readouterr().out)
        assert scaled_record["composite"] == pytest.approx(
            base["composite"], abs=1e-12, rel=1e-12)
        assert scaled_record["alphas"] == pytest.approx(base["alphas"], rel=1e-12)

    def test_all_nine_panels_satisfy_identity(self, tmp_path, capsys):
        channels = [channel_entry(n=8), channel_entry(n=8, gain=[0.8, 0.3])]
        self.make_data(tmp_path, channels=channels, modes=2, snapshots=6)
        for panel in ("p11", "p12", "p13", "p21", "p22", "p23", "p31", "p32", "p33"):
            cfg = write_config(tmp_path / f"det_{panel}.json", {
                "panel": panel,
                "modes": 2,
                "channels": channels,
            })
            assert main(["detect", "--config", cfg, str(tmp_path / "data")]) == 0
            record = json.loads(capsys.readouterr().out)
            recombined = (np.dot(record["alphas"], record["per_channel"])
                          - record["cross_validation"])
            assert recombined == pytest.approx(
                record["composite"], abs=1e-9 * max(1, abs(record["composite"])))

    @pytest.mark.parametrize("key", ["n_snapshots", "channel_dims", "blocks"])
    def test_header_missing_key_is_clean_error(self, tmp_path, capsys, key):
        sim_cfg = self.make_data(tmp_path)
        header_path = tmp_path / "data" / "header.json"
        header = json.loads(header_path.read_text())
        del header[key]
        header_path.write_text(json.dumps(header))
        cfg = write_config(tmp_path / "det.json", {
            "panel": "p11",
            "modes": 1,
            "channels": sim_cfg["channels"],
        })
        assert main(["detect", "--config", cfg, str(tmp_path / "data")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert err.strip().count("\n") == 0

    def test_mistyped_header_value_is_clean_error(self, tmp_path, capsys):
        sim_cfg = self.make_data(tmp_path)
        header_path = tmp_path / "data" / "header.json"
        header_path.write_text(json.dumps({**json.loads(header_path.read_text()),
                                           "channel_dims": [None]}))
        cfg = write_config(tmp_path / "det.json", {
            "panel": "p11",
            "modes": 1,
            "channels": sim_cfg["channels"],
        })
        assert main(["detect", "--config", cfg, str(tmp_path / "data")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "channel_dims" in err and "header.json" in err
        assert err.strip().count("\n") == 0

    def test_block_field_that_is_not_a_number_is_clean_error(self, tmp_path, capsys):
        sim_cfg = self.make_data(tmp_path)
        block = tmp_path / "data" / "block_00.csv"
        rows = block.read_text().splitlines()
        rows[2] = "abc," + rows[2].split(",", 1)[1]
        block.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path / "det.json", {
            "panel": "p11",
            "modes": 1,
            "channels": sim_cfg["channels"],
        })
        assert main(["detect", "--config", cfg, str(tmp_path / "data")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{block} row 2:" in err and "'abc'" in err
        assert err.strip().count("\n") == 0

    def test_dominant_numerator_outside_p33_is_clean_error(self, tmp_path, capsys):
        sim_cfg = self.make_data(tmp_path, modes=1, snapshots=6)
        for panel, status in (("p11", 1), ("p33", 0)):
            cfg = write_config(tmp_path / f"det_{panel}.json", {
                "panel": panel,
                "modes": 1,
                "channels": sim_cfg["channels"],
                "dominant_numerator": True,
            })
            assert main(["detect", "--config", cfg, str(tmp_path / "data")]) == status
            err = capsys.readouterr().err
            if status:
                assert err.startswith("error:") and "P33" in err
                assert err.strip().count("\n") == 0

    def test_output_files_written(self, tmp_path, capsys):
        sim_cfg = self.make_data(tmp_path)
        cfg = write_config(tmp_path / "det.json", {
            "panel": "p11",
            "modes": 1,
            "channels": sim_cfg["channels"],
            "output": str(tmp_path / "report"),
        })
        assert main(["detect", "--config", cfg, str(tmp_path / "data")]) == 0
        capsys.readouterr()
        assert (tmp_path / "report" / "report.json").exists()
        csv_text = (tmp_path / "report" / "report.csv").read_text().splitlines()
        assert csv_text[0].startswith("panel,composite,cross_validation")
        assert (tmp_path / "report" / "manifest.json").exists()


class TestErrorsAndOverrides:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json",
                           {**simulate_config(tmp_path), "bogus": 1})
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bogus" in err
        assert err.strip().count("\n") == 0

    def test_config_that_is_not_utf8_is_clean_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert main(["simulate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {cfg} is not valid JSON: 'utf-8' codec")
        assert err.strip().count("\n") == 0

    def test_invalid_pfa_single_line_diagnostic(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "panel": "p12",
            "modes": 1,
            "channels": [channel_entry()],
            "snapshots": 4,
            "trials": 200,
            "seed": 1,
            "pfa": 1.5,
            "output": str(tmp_path / "cal"),
        })
        assert main(["calibrate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.strip().count("\n") == 0

    def test_override_changes_seed(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", simulate_config(tmp_path, "o1"))
        assert main(["simulate", "--config", cfg, "--set", "seed=8",
                     "--set", f"output={tmp_path / 'o2'}"]) == 0
        manifest = json.loads((tmp_path / "o2" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 8

    def test_override_indexes_list_element(self, tmp_path):
        channels = [channel_entry(), channel_entry(n=6)]
        cfg = write_config(tmp_path / "c.json",
                           simulate_config(tmp_path, "o1", channels=channels))
        assert main(["simulate", "--config", cfg, "--set", "channels.1.gain=2"]) == 0
        manifest = json.loads((tmp_path / "o1" / "manifest.json").read_text())
        assert [c["gain"] for c in manifest["config"]["channels"]] == [1.0, 2]
        assert [c["n_samples"] for c in manifest["config"]["channels"]] == [8, 6]

    @pytest.mark.parametrize("override", ["channels.2.gain=2", "channels.x.gain=2",
                                          "channels.-1.gain=2", "snr_db.0.x=1"])
    def test_bad_override_index_is_clean_error(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path / "c.json", simulate_config(
            tmp_path, channels=[channel_entry()], snr_db=[1.0]))
        assert main(["simulate", "--config", cfg, "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and override.split("=")[0] in err
        assert err.strip().count("\n") == 0

    def test_jobs_only_on_monte_carlo_commands(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", simulate_config(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--config", cfg, "--jobs", "2", str(tmp_path / "data")])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", [0, (os.cpu_count() or 1) + 1],
                             ids=["zero", "above-cpu-count"])
    def test_jobs_out_of_range_is_clean_error(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path / "c.json", {
            "panel": "p12", "modes": 1, "channels": [channel_entry()], "snapshots": 4,
            "trials": 20, "seed": 1, "output": str(tmp_path / "null_out")})
        assert main(["null", "--config", cfg, "--jobs", str(jobs)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--jobs" in err
        assert err.strip().count("\n") == 0
        assert not (tmp_path / "null_out").exists()

    def test_arguments_do_not_carry_into_the_next_call(self, tmp_path, capsys):
        # Every main call in a process parses with one parser.
        cfg = write_config(tmp_path / "c.json", {
            "panel": "p12", "modes": 1, "channels": [channel_entry()], "snapshots": 4,
            "trials": 20, "seed": 1, "output": str(tmp_path / "null_out")})
        assert main(["null", "--config", cfg, "--set", "seed=5",
                     "--set", f"output={json.dumps(str(tmp_path / 'set_out'))}"]) == 0
        manifest = json.loads((tmp_path / "set_out" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 5
        assert main(["null", "--config", cfg, "--jobs", "0"]) == 1
        assert main(["null", "--config", cfg]) == 0
        manifest = json.loads((tmp_path / "null_out" / "manifest.json").read_text())
        assert manifest["config"] == json.loads((tmp_path / "c.json").read_text())

    @pytest.mark.parametrize("command, override", [
        ("detect", "channels.0.n_samples=null"),
        ("detect", "channels.0.carrier_hz=null"),
        ("detect", "channels.0.noise_variance=[1]"),
        ("detect", "channels.0.gain=[null,1]"),
        ("detect", "channels.0.n_samples=true"),
        ("detect", "modes=true"),
        ("scan", "delays_s=[null]"),
        ("roc", "snr_db=[null]"),
        ("roc", "pfa_targets=[null]"),
    ])
    def test_mistyped_value_is_clean_error(self, tmp_path, capsys, command, override):
        base = {"panel": "p11", "modes": 1, "channels": [channel_entry()],
                "output": str(tmp_path / "out")}
        extra = {"detect": {}, "scan": {"delays_s": [0.0], "dopplers_hz": [0.0]},
                 "roc": {"snapshots": 4, "trials": 10, "seed": 1, "snr_db": [0.0],
                         "pfa_targets": [0.1]}}[command]
        cfg = write_config(tmp_path / "c.json", {**base, **extra})
        data = [str(tmp_path / "data")] if command != "roc" else []
        assert main([command, "--config", cfg, "--set", override, *data]) == 1
        err = capsys.readouterr().err
        key = override.split("=")[0].split(".")[-1]
        assert err.startswith("error:") and "wrong type" in err and key in err
        assert err.strip().count("\n") == 0
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", [
        "channels.0.gain=NaN", "snr_db=[NaN]", "channels.0.gain=1e400",
        "channels.0.carrier_hz=1" + "0" * 400,
    ], ids=["nan-gain", "nan-snr", "overflowing-gain", "overflowing-integer-carrier"])
    def test_non_finite_number_is_clean_error(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path / "c.json", {
            "panel": "p11", "modes": 1, "channels": [channel_entry()], "snapshots": 4,
            "trials": 10, "seed": 1, "snr_db": [0.0], "pfa_targets": [0.1],
            "output": str(tmp_path / "out")})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["roc", "--config", cfg, "--set", override]) == 1
        assert not caught
        err = capsys.readouterr().err
        key = override.split("=")[0].split(".")[-1]
        assert err.startswith("error:") and key in err and "not finite" in err
        assert err.strip().count("\n") == 0
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", [
        "channels.0.carrier_hz=1e308", "channels.0.sample_period_s=1e-320",
        "channels.0.sample_period_s=1e308",
    ], ids=["huge-carrier", "subnormal-period", "huge-period"])
    def test_overflowing_phase_rate_is_clean_error(self, tmp_path, capsys, override):
        sim = write_config(tmp_path / "sim.json", simulate_config(tmp_path))
        assert main(["simulate", "--config", sim]) == 0
        cfg = write_config(tmp_path / "det.json", {
            "panel": "p11", "modes": 1, "channels": [channel_entry()],
            "output": str(tmp_path / "report")})
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["detect", "--config", cfg, str(tmp_path / "data"),
                         "--set", override]) == 1
        assert not caught
        err = capsys.readouterr().err
        key = override.split("=")[0].split(".")[-1]
        assert err.startswith("error:") and key in err and "delay" not in err
        assert err.strip().count("\n") == 0
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("command, override, key", [
        ("simulate", "snr_db=4000", "snr_db"),
        ("simulate", "channels.0.gain=1e300", "gains"),
        ("simulate", "channels.0.gain=0", "gains"),
        ("roc", "snr_db=[4000]", "snr_db"),
        ("roc", "channels.0.gain=1e300", "gains"),
        ("roc", "pfa_targets=[1e-320]", "pfa"),
        ("calibrate", "pfa=1e-320", "pfa"),
        ("roc", "channels.0.noise_variance=0", "noise_variance"),
    ], ids=["simulate-huge-snr", "simulate-huge-gain", "simulate-zero-gain", "roc-huge-snr",
            "roc-huge-gain", "roc-subnormal-pfa", "calibrate-subnormal-pfa", "roc-zero-noise"])
    def test_out_of_range_scale_or_pfa_is_clean_error(self, tmp_path, capsys, command,
                                                      override, key):
        if command == "simulate":
            config = simulate_config(tmp_path, out_name="out", hypothesis="h1", snr_db=0.0)
        else:
            targets = ({"pfa": 0.5} if command == "calibrate"
                       else {"snr_db": [0.0], "pfa_targets": [0.1]})
            config = {"panel": "p11", "modes": 1, "channels": [channel_entry()],
                      "snapshots": 4, "trials": 10, "seed": 1,
                      "output": str(tmp_path / "out"), **targets}
        cfg = write_config(tmp_path / "c.json", config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", cfg, "--set", override]) == 1
        assert not caught
        out, err = capsys.readouterr()
        assert err.startswith("error:") and key in err and "Traceback" not in err
        assert err.strip().count("\n") == 0
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "null"])
    def test_negative_seed_is_clean_error(self, tmp_path, capsys, command):
        config = (simulate_config(tmp_path, out_name="out") if command == "simulate"
                  else {"panel": "p11", "modes": 1, "channels": [channel_entry()],
                        "snapshots": 4, "trials": 10, "seed": 1,
                        "output": str(tmp_path / "out")})
        cfg = write_config(tmp_path / "c.json", config)
        assert main([command, "--config", cfg, "--set", "seed=-3"]) == 1
        out, err = capsys.readouterr()
        assert err == "error: config key 'seed' must be non-negative, got -3\n"
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "null"])
    def test_seed_of_2_to_the_32_is_clean_error(self, tmp_path, capsys, command):
        # Seed 2**32 + 5's noise stream would be seed 5's amplitude stream.
        config = (simulate_config(tmp_path, out_name="out") if command == "simulate"
                  else {"panel": "p11", "modes": 1, "channels": [channel_entry()],
                        "snapshots": 4, "trials": 10, "seed": 1,
                        "output": str(tmp_path / "out")})
        cfg = write_config(tmp_path / "c.json", config)
        assert main([command, "--config", cfg, "--set", f"seed={2**32}"]) == 1
        out, err = capsys.readouterr()
        assert err == f"error: config key 'seed' must be below 2**32, got {2**32}\n"
        assert out == ""
        assert not (tmp_path / "out").exists()
        assert main([command, "--config", cfg, "--set", f"seed={2**32 - 1}"]) == 0

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"seed": 1})
        assert main(["simulate", "--config", cfg]) == 1
        assert "missing" in capsys.readouterr().err


class TestAnalysisCommands:
    def null_config(self, tmp_path, **extra):
        cfg = {
            "panel": "p12",
            "modes": 1,
            "channels": [channel_entry()],
            "snapshots": 4,
            "trials": 400,
            "seed": 3,
            "output": str(tmp_path / "null_out"),
        }
        cfg.update(extra)
        return write_config(tmp_path / "null.json", cfg)

    def test_null_writes_cdf_and_ks_line(self, tmp_path, capsys):
        cfg = self.null_config(tmp_path)
        assert main(["null", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "ks reference=beta" in out
        lines = (tmp_path / "null_out" / "null_cdf.csv").read_text().splitlines()
        assert lines[0] == "value,empirical_cdf"
        assert len(lines) == 401
        manifest = json.loads((tmp_path / "null_out" / "manifest.json").read_text())
        assert manifest["ks_pvalue"] is not None
        assert manifest["degenerate_trials"] == 0

    def test_roc_csv(self, tmp_path):
        cfg = write_config(tmp_path / "roc.json", {
            "panel": "p12",
            "modes": 1,
            "channels": [channel_entry()],
            "snapshots": 4,
            "trials": 300,
            "seed": 5,
            "snr_db": [0.0, 10.0],
            "pfa_targets": [0.5, 0.1],
            "output": str(tmp_path / "roc_out"),
        })
        assert main(["roc", "--config", cfg]) == 0
        lines = (tmp_path / "roc_out" / "roc.csv").read_text().splitlines()
        assert lines[0].startswith("snr_db,threshold,pfa,pd")
        assert len(lines) == 1 + 2 * 2

    def test_calibrate_csv_and_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cal.json", {
            "panel": "p12",
            "modes": 1,
            "channels": [channel_entry()],
            "snapshots": 4,
            "trials": 500,
            "seed": 5,
            "pfa": 0.1,
            "output": str(tmp_path / "cal_out"),
        })
        assert main(["calibrate", "--config", cfg]) == 0
        printed = float(capsys.readouterr().out.strip())
        row = (tmp_path / "cal_out" / "calibration.csv").read_text().splitlines()[1]
        assert printed == pytest.approx(float(row.split(",")[0]))

    def test_scan_csv_flags_argmax(self, tmp_path):
        sim = write_config(tmp_path / "sim.json", simulate_config(
            tmp_path, "scan_data", hypothesis="h1", snr_db=20.0,
            channels=[channel_entry(), channel_entry(doppler_hz=100.0)],
            modes=1, snapshots=8))
        assert main(["simulate", "--config", sim]) == 0
        cfg = write_config(tmp_path / "scan.json", {
            "panel": "p11",
            "modes": 1,
            "channels": [channel_entry(), channel_entry()],
            "delays_s": [0.0],
            "dopplers_hz": [0.0, 100.0, 200.0],
            "output": str(tmp_path / "scan_out"),
        })
        assert main(["scan", "--config", cfg, str(tmp_path / "scan_data")]) == 0
        lines = (tmp_path / "scan_out" / "scan.csv").read_text().splitlines()
        assert lines[0] == "delay_s,doppler_hz,statistic,is_argmax"
        flags = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
        assert sum(flags) == 1
        winner = [line for line in lines[1:] if line.endswith(",1")][0]
        assert float(winner.split(",")[1]) == pytest.approx(100.0)

    @pytest.mark.parametrize("scan_channels", [[5], [-1], [], [1, 1]],
                             ids=["out-of-range", "negative", "empty", "duplicate"])
    def test_scan_bad_scan_channels_is_clean_error(self, tmp_path, capsys, scan_channels):
        sim = write_config(tmp_path / "sim.json", simulate_config(
            tmp_path, "scan_data", channels=[channel_entry(), channel_entry()]))
        assert main(["simulate", "--config", sim]) == 0
        capsys.readouterr()
        cfg = write_config(tmp_path / "scan.json", {
            "panel": "p11",
            "modes": 1,
            "channels": [channel_entry(), channel_entry()],
            "delays_s": [0.0],
            "dopplers_hz": [0.0, 100.0],
            "scan_channels": scan_channels,
            "output": str(tmp_path / "scan_out"),
        })
        assert main(["scan", "--config", cfg, str(tmp_path / "scan_data")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "scan" in err[0]
        assert not (tmp_path / "scan_out").exists()


@pytest.fixture(params=[0o022, 0o027], ids=["umask-022", "umask-027"])
def umask(request):
    old = os.umask(request.param)
    try:
        yield request.param
    finally:
        os.umask(old)


class TestOutputFiles:
    def test_modes_follow_umask(self, tmp_path, capsys, umask):
        channels = [channel_entry()]
        sim = write_config(tmp_path / "sim.json", simulate_config(tmp_path, channels=channels))
        det = write_config(tmp_path / "det.json", {
            "panel": "p11", "modes": 1, "channels": channels,
            "output": str(tmp_path / "det")})
        roc = write_config(tmp_path / "roc.json", {
            "panel": "p11", "modes": 1, "channels": channels, "snapshots": 4, "trials": 20,
            "seed": 1, "snr_db": [0.0], "pfa_targets": [0.5], "output": str(tmp_path / "roc")})
        assert main(["simulate", "--config", sim]) == 0
        assert main(["detect", "--config", det, str(tmp_path / "data")]) == 0
        assert main(["roc", "--config", roc]) == 0
        capsys.readouterr()
        for name in ("data", "det", "roc"):
            out = tmp_path / name
            assert out.stat().st_mode & 0o777 == 0o777 & ~umask
            files = sorted(out.iterdir())
            assert files and all(f.stat().st_mode & 0o777 == 0o666 & ~umask for f in files)
        assert sorted(p.name for p in tmp_path.iterdir() if ".partial" in p.name) == []

    def test_roc_and_calibrate_manifests_count_degenerate_trials(self, tmp_path, capsys,
                                                                 monkeypatch):
        # One sample and one mode leave P13 no residual: every trial is degenerate.
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        base = {"panel": "p13", "modes": 1, "channels": [channel_entry(n=1)], "snapshots": 4,
                "trials": 20, "seed": 1}
        roc = write_config(tmp_path / "roc.json", {
            **base, "snr_db": [0.0, 10.0], "pfa_targets": [0.5],
            "output": str(tmp_path / "roc")})
        cal = write_config(tmp_path / "cal.json", {**base, "pfa": 0.5,
                                                   "output": str(tmp_path / "cal")})
        assert main(["roc", "--config", roc]) == 0
        assert main(["calibrate", "--config", cal]) == 0
        assert capsys.readouterr().out.strip() == "inf"
        manifests = [json.loads((tmp_path / name / "manifest.json").read_text())
                     for name in ("roc", "cal")]
        assert manifests[0]["degenerate_trials"] == {"0.0": 20, "10.0": 20, "null": 20}
        assert manifests[1]["degenerate_trials"] == 20
        assert manifests[1]["threshold"] == float("inf")
        for manifest in manifests:
            assert manifest["versions"]["python"] == platform.python_version()
            assert set(manifest["versions"]) == {"glrfusion", "numpy", "scipy", "python"}
            assert manifest["platform"] == {"system": platform.uname().system,
                                            "release": platform.uname().release,
                                            "machine": platform.uname().machine}
            assert manifest["blas_threads"] == {"OMP_NUM_THREADS": "1"}
        rows = (tmp_path / "roc" / "roc.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["inf", "inf"]
