"""Tests for config loading, the CLI harness, and the output bundle."""

import contextlib
import io
import json
import math
import os
import tempfile
import tracemalloc
import warnings
from collections import OrderedDict

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import BUNDLE_JSON_CONFIG, SWEEP_POINT_CONFIG, record_grids, record_switches

from mixbench import cli, memo, metrics, signals
from mixbench.cli import (
    REGISTRY,
    _write_table,
    emit_transient,
    main,
    prepare,
    render_summary_text,
)
from mixbench.config import (
    ALL_MEASUREMENTS,
    DBM,
    FIELDS,
    _bounds,
    build_nf_setup,
    build_scenario,
    from_dict,
    load_config,
    loads_config,
)
from mixbench.engine import simulate
from mixbench.errors import ValidationError
from mixbench.signals import bin_amplitude


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigLoading:
    def test_empty_config_gives_full_default_run(self, tmp_path):
        cfg = load_config(write_config(tmp_path, ""))
        assert cfg.measurements == ALL_MEASUREMENTS
        scenario = build_scenario(cfg)
        assert scenario.mixer.transconductor.gm == 0.034
        assert scenario.mixer.load.rd == 220.0
        assert scenario.mixer.bias.vdd == 1.8
        assert scenario.mixer.leakage.kappa == 0.01303
        assert scenario.f_rf == 76.0 and scenario.f_lo == 72.0
        assert scenario.frequency_scale == pytest.approx(2.5e7)

    def test_single_field_override_keeps_other_defaults(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, "scenario:\n  mixer:\n    gm: 0.017\n"))
        scenario = build_scenario(cfg)
        assert scenario.mixer.transconductor.gm == 0.017
        assert scenario.mixer.load.rd == 220.0
        assert scenario.mixer.transconductor.a3 == -0.696

    def test_unknown_key_rejected_with_path(self, tmp_path):
        with pytest.raises(ValidationError, match="gm_typo"):
            load_config(write_config(
                tmp_path, "scenario:\n  mixer:\n    gm_typo: 1\n"))

    def test_incoherent_tone_spacing_rejected(self):
        with pytest.raises(ValidationError, match="spacing"):
            prepare(loads_config("sweeps:\n  iip3:\n    tone_spacing_hz: 3.3e7\n"))

    def test_incommensurate_plan_rejected(self):
        with pytest.raises(ValidationError):
            prepare(loads_config("scenario:\n  lo_hz: 1.83559e9\n"))

    def test_empty_measurement_list_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            from_dict({"measurements": []})

    def test_unknown_measurement_rejected(self):
        with pytest.raises(ValidationError, match="vswr"):
            from_dict({"measurements": ["vswr"]})

    def test_bad_yaml_reports_parse_error(self, tmp_path):
        with pytest.raises(ValidationError, match="parse"):
            load_config(write_config(tmp_path, "scenario: [unclosed\n"))

    def test_bad_yaml_text_reports_parse_error(self):
        with pytest.raises(ValidationError, match="parse"):
            loads_config("a: [1")

    def test_non_mapping_text_rejected(self):
        with pytest.raises(ValidationError, match="mapping"):
            loads_config("- cg\n- power\n")

    @pytest.mark.parametrize("text, field", [
        ("sweeps:\n  p1db:\n    step_db: 0\n", "sweeps.p1db.step_db"),
        ("sweeps:\n  p1db:\n    stop_dbm: -40.0\n", "sweeps.p1db.stop_dbm"),
        ("sweeps:\n  transient:\n    decimation: 0\n", "sweeps.transient.decimation"),
        ("sweeps:\n  harmonics:\n    order: 0\n", "sweeps.harmonics.order"),
        # Bounded work: ~1e10 sweep points, 230 M- and 58 M-sample grids.
        ("sweeps:\n  p1db:\n    start_dbm: -1.0e+7\n    step_db: 0.001\n",
         "sweeps.p1db.step_db"),
        ("scenario:\n  grid:\n    bins_per_unit: 100000\n",
         "scenario.grid.bins_per_unit"),
        ("sweeps:\n  nf:\n    grid:\n      bins_per_unit: 100000\n",
         "sweeps.nf.grid.bins_per_unit"),
        # Noise-figure settings the measurement fails on.
        ("sweeps:\n  nf:\n    segments: 7\n", "sweeps.nf.segments"),
        ("sweeps:\n  nf:\n    segments: 2\n", "sweeps.nf.segments"),
        ("sweeps:\n  nf:\n    band_width_hz: 1.0e+3\n", "sweeps.nf.band_width_hz"),
        # Bounded work: a band past Nyquist is rejected before its LO harmonics
        # are listed.
        ("sweeps:\n  nf:\n    band_width_hz: 1.0e+30\n", "sweeps.nf.band_width_hz"),
        ("sweeps:\n  nf:\n    probe_power_dbm: abc\n", "sweeps.nf.probe_power_dbm"),
        # Integer fields: no overflow traceback, no silent truncation.
        ("scenario:\n  grid:\n    bins_per_unit: .inf\n", "scenario.grid.bins_per_unit"),
        ("sweeps:\n  nf:\n    grid:\n      bins_per_unit: .inf\n",
         "sweeps.nf.grid.bins_per_unit"),
        ("scenario:\n  grid:\n    samples_per_lo_period: 128.5\n",
         "scenario.grid.samples_per_lo_period"),
        ("sweeps:\n  nf:\n    segments: 32.9\n", "sweeps.nf.segments"),
        ("sweeps:\n  harmonics:\n    order: 2.5\n", "sweeps.harmonics.order"),
        ("sweeps:\n  transient:\n    decimation: 1.5\n", "sweeps.transient.decimation"),
        ("sweeps:\n  transient:\n    decimation: true\n", "sweeps.transient.decimation"),
        # The noise figure needs input noise to measure.
        ("scenario:\n  noise:\n    input_density: 0.0\n", "scenario.noise.input_density"),
        # RF powers must be finite numbers with a finite peak voltage.
        ("sweeps:\n  iip3:\n    per_tone_dbm: abc\n", "sweeps.iip3.per_tone_dbm"),
        ("sweeps:\n  iip3:\n    per_tone_dbm: .inf\n", "sweeps.iip3.per_tone_dbm"),
        ("sweeps:\n  iip3:\n    per_tone_dbm: 1.0e+6\n", "sweeps.iip3.per_tone_dbm"),
        ("scenario:\n  rf_power_dbm: 1.0e+6\n", "scenario.rf_power_dbm"),
        ("scenario:\n  rf_power_dbm: .nan\n", "scenario.rf_power_dbm"),
        ("sweeps:\n  nf:\n    probe_power_dbm: 1.0e+6\n", "sweeps.nf.probe_power_dbm"),
        # A gain is read over an RF tone whose peak voltage underflows to 0.
        ("measurements: [nf]\nsweeps:\n  nf:\n    probe_power_dbm: -1.0e+6\n",
         "sweeps.nf.probe_power_dbm"),
        ("measurements: [cg]\nscenario:\n  rf_power_dbm: -1.0e+6\n", "scenario.rf_power_dbm"),
        ("measurements: [p1db]\nsweeps:\n  p1db:\n    start_dbm: -1.0e+6\n"
         "    step_db: 1.0e+5\n", "sweeps.p1db.start_dbm"),
        # The noise seed is a non-negative whole number.
        ("scenario:\n  noise:\n    seed: -1\n", "scenario.noise.seed"),
        ("scenario:\n  noise:\n    seed: 1.5e3\n", "scenario.noise.seed"),
        # Scenario numbers: no traceback, no bool read as a number.
        ("scenario:\n  mixer:\n    rd: abc\n", "scenario.mixer.rd"),
        ("scenario:\n  mixer:\n    rd: true\n", "scenario.mixer.rd"),
        ("scenario:\n  lo_phase_rad: abc\n", "scenario.lo_phase_rad"),
        # Each measurement runs once.
        ("measurements: [cg, cg]\n", "measurements"),
        # A spacing too large for a float in grid units (0.25 Hz per unit).
        ("measurements: [iip3]\n"
         "scenario:\n  rf_hz: 2.0\n  lo_hz: 1.0\n  if_filter:\n    enabled: false\n"
         "sweeps:\n  iip3:\n    tone_spacing_hz: 1.0e+308\n", "sweeps.iip3.tone_spacing_hz"),
    ])
    def test_sweep_setting_run_would_reject(self, tmp_path, capsys, text, field):
        with pytest.raises(ValidationError, match=field.replace(".", r"\.")):
            prepare(loads_config(text))
        path = write_config(tmp_path, text)
        assert main(["validate", "--config", path]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        # A band white_noise rejects: not positive, or past the grid's Nyquist.
        ("measurements: [transient]\nscenario:\n  noise:\n    bandwidth_hz: -1.0e+6\n",
         "scenario.noise.bandwidth_hz"),
        ("measurements: [transient]\nscenario:\n  noise:\n    bandwidth_hz: 0\n",
         "scenario.noise.bandwidth_hz"),
        ("measurements: [transient]\nscenario:\n  noise:\n    bandwidth_hz: 1.0e+30\n",
         ("scenario.noise.bandwidth_hz", "noise band")),
        # Past the 28.8 GHz Nyquist of the NF grid, below the main grid's.
        ("measurements: [nf]\nscenario:\n  noise:\n    bandwidth_hz: 5.0e+10\n",
         ("scenario.noise.bandwidth_hz", "noise band")),
        # RF + LO (96 units) past the Nyquist (80) of 8 samples per LO period.
        ("measurements: [cg]\nscenario:\n  lo_hz: 5.0e+8\n"
         "  grid:\n    samples_per_lo_period: 8\n",
         ("scenario.rf_hz", "scenario.lo_hz", "scenario.grid.samples_per_lo_period",
          "sum product")),
        ("measurements: [iip3]\nsweeps:\n  iip3:\n    tone_spacing_hz: -2.5e+7\n",
         "sweeps.iip3.tone_spacing_hz"),
        ("scenario:\n  if_filter:\n    enabled: abc\n", "scenario.if_filter.enabled"),
        ("scenario:\n  if_filter:\n    enabled: 1\n", "scenario.if_filter.enabled"),
        # A cutoff whose Butterworth response overflows, or none at all.
        ("measurements: [transient]\nscenario:\n  if_filter:\n    cutoff_hz: 1.0e-300\n",
         "scenario.if_filter.cutoff_hz"),
        ("scenario:\n  if_filter:\n    cutoff_hz: 0\n", "scenario.if_filter.cutoff_hz"),
        # 100 MHz spacing puts the lower IM3 product at DC on the default plan.
        ("measurements: [iip3]\nsweeps:\n  iip3:\n    tone_spacing_hz: 1.0e+8\n",
         "sweeps.iip3.tone_spacing_hz"),
        # A high-side LO is rejected, naming both frequencies.
        ("scenario:\n  lo_hz: 2.0e+9\n", "scenario.rf_hz and scenario.lo_hz"),
        ("measurements: [cg]\nscenario:\n  noise:\n    input_density: -1\n",
         "scenario.noise.input_density"),
        # An order past the float range, times the RF frequency, overflows.
        ("measurements: [harmonics]\nsweeps:\n  harmonics:\n    order: 1" + "0" * 400
         + "\n", "sweeps.harmonics.order"),
        # A field outside its FIELDS limit.
        ("scenario:\n  mixer:\n    gm: -1.0\n", "scenario.mixer.gm"),
        ("scenario:\n  mixer:\n    rd: -1.0\n", "scenario.mixer.rd"),
        ("scenario:\n  mixer:\n    vdd: -1.0\n", "scenario.mixer.vdd"),
        ("scenario:\n  mixer:\n    i_bias: -1.0\n", "scenario.mixer.i_bias"),
        ("scenario:\n  mixer:\n    kappa: 1.0\n", "scenario.mixer.kappa"),
        ("scenario:\n  lo_amplitude_v: -1.0\n", "scenario.lo_amplitude_v"),
        ("scenario:\n  mixer:\n    switch_mode: foo\n", "scenario.mixer.switch_mode"),
        ("scenario:\n  if_filter:\n    kind: bandpass\n", "scenario.if_filter.kind"),
        ("output:\n  format: xml\n", "output.format"),
        ("scenario:\n  grid:\n    bins_per_unit: 0\n", "scenario.grid.bins_per_unit"),
        ("scenario:\n  grid:\n    samples_per_lo_period: 10\n",
         "scenario.grid.samples_per_lo_period"),
        ("sweeps:\n  nf:\n    grid:\n      bins_per_unit: 0\n",
         "sweeps.nf.grid.bins_per_unit"),
        ("sweeps:\n  nf:\n    grid:\n      samples_per_lo_period: 10\n",
         "sweeps.nf.grid.samples_per_lo_period"),
        # A rule across fields, and values that scale to 0 on the grid.
        ("scenario:\n  mixer:\n    switch_mode: smooth\n    switch_v_sw: 0\n",
         ("scenario.mixer.switch_mode", "scenario.mixer.switch_v_sw")),
        ("scenario:\n  if_filter:\n    cutoff_hz: 5.0e-324\n", "scenario.if_filter.cutoff_hz"),
        ("measurements: [transient]\nscenario:\n  noise:\n    bandwidth_hz: 5.0e-324\n",
         "scenario.noise.bandwidth_hz"),
    ])
    def test_setting_run_fails_on_is_rejected(self, tmp_path, capsys, text, named):
        named = (named,) if isinstance(named, str) else named
        with pytest.raises(ValidationError) as rejected:
            prepare(loads_config(text))
        assert all(part in str(rejected.value) for part in named)
        assert main(["validate", "--config", write_config(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert all(part in err for part in named)

    def test_tiny_if_cutoff_run_exits_2_and_the_smallest_kept_one_runs(
            self, tmp_path, capsys):
        text = "measurements: [transient]\nscenario:\n  if_filter:\n    cutoff_hz: {}\n"
        assert main(["run", "--config", write_config(tmp_path, text.format("1.0e-300")),
                     "--out", str(tmp_path / "a")]) == 2
        assert "scenario.if_filter.cutoff_hz" in capsys.readouterr().err
        # 1.8e-143 Hz lies just above the main grid's bound of about 1.7e-143 Hz.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", write_config(tmp_path, text.format("1.8e-143")),
                         "--out", str(tmp_path / "b")]) == 0

    @pytest.mark.parametrize("text, code", [
        ("measurements: [nf]\nsweeps:\n  nf:\n    probe_power_dbm: -1.0e+6\n", 2),
        ("measurements: [cg]\nscenario:\n  rf_power_dbm: -1.0e+6\n", 2),
        ("measurements: [p1db]\nsweeps:\n  p1db:\n    start_dbm: -1.0e+6\n"
         "    step_db: 1.0e+5\n", 2),
        # A silent RF tone is no fault where no gain is read.
        ("measurements: [isolation, transient]\nscenario:\n  rf_power_dbm: -1.0e+6\n", 0),
    ], ids=["nf_probe", "cg", "p1db_start", "isolation_transient"])
    def test_silent_drive_rejected_only_where_a_gain_is_read(self, tmp_path, text, code):
        assert main(["run", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == code

    def test_noise_band_and_filter_switch_accepted(self):
        scenario = build_scenario(loads_config(
            "scenario:\n  noise:\n    bandwidth_hz: 5.0e+9\n"
            "  if_filter:\n    enabled: false\n"))
        assert scenario.input_noise_band == (0.0, 200.0)
        assert scenario.if_filter is None

    def test_sweep_setting_of_unrequested_measurement_ignored(self):
        cfg = loads_config("measurements: [cg]\n"
                           "scenario:\n  noise:\n    input_density: 0.0\n"
                           "sweeps:\n  p1db:\n    step_db: 0\n"
                           "  nf:\n    segments: 7\n")
        assert cfg.measurements == ("cg",)
        assert list(prepare(cfg)[1]) == ["cg"]

    def test_whole_float_accepted_as_integer(self):
        segments = build_nf_setup(loads_config("sweeps:\n  nf:\n    segments: 16.0\n"))[1].segments
        assert segments == 16 and isinstance(segments, int)

    def test_largest_grid_under_the_cap_accepted(self):
        # 32 samples per LO period x 18 x 14563 bins = 8,388,288 <= 2**23.
        cfg = loads_config("measurements: [cg]\nscenario:\n  grid:\n"
                           "    bins_per_unit: 14563\n    samples_per_lo_period: 32\n")
        assert cfg.plan.num_samples == 8388288

    def test_missing_file_rejected(self):
        with pytest.raises(ValidationError, match="read"):
            load_config("/nonexistent/config.yaml")

    def test_effective_config_round_trip(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, "scenario:\n  rf_power_dbm: -25.0\n"))
        reloaded = loads_config(cfg.effective_yaml())
        assert reloaded.raw == cfg.raw
        assert reloaded.parameter_hash() == cfg.parameter_hash()
        assert build_scenario(reloaded) == build_scenario(cfg)

    @pytest.mark.parametrize("text", [
        "",
        "scenario:\n  lo_phase_rad: 0.25\n  noise: {bandwidth_hz: 5.0e+9, seed: 7}\n"
        "  mixer: {switch_mode: smooth, a2: -1.0e-300}\n  if_filter: {enabled: false}\n"
        "sweeps: {nf: {grid: {bins_per_unit: 256}}}\nmeasurements: [nf, cg]\n"
        "output: {format: json}\n",
    ], ids=["default", "overrides"])
    def test_effective_config_bytes_of_either_dumper(self, text):
        cfg = loads_config(text)
        written = cfg.effective_yaml()
        dumpers = [yaml.SafeDumper] + ([yaml.CSafeDumper] if yaml.__with_libyaml__ else [])
        for dumper in dumpers:
            assert yaml.dump(cfg.raw, Dumper=dumper, sort_keys=True,
                             default_flow_style=False) == written, dumper
        assert loads_config(written).raw == cfg.raw

    def test_seed_override(self):
        cfg = from_dict({})
        assert cfg.with_seed(9).seed == 9
        assert cfg.seed == 1729  # original untouched
        with pytest.raises(ValidationError, match=r"scenario\.noise\.seed"):
            prepare(cfg.with_seed(-1))

    def test_nf_setup_uses_long_grid(self):
        cfg = from_dict({})
        scenario, settings = build_nf_setup(cfg)
        assert scenario.grid.num_samples == 32 * 18 * 2048
        assert settings.segments == 32
        assert scenario.grid.num_samples % settings.segments == 0

    def test_iip3_tone_spacing_translation(self):
        two, per_tone = prepare(from_dict({}))[1]["iip3"]
        low, high = (tone.frequency for tone in two.rf_tones)
        assert high - low == 1.0  # 25 MHz on the default grid
        assert per_tone == -40.0


# Keys a run writes into summary.json, so drawn summaries reach the
# renderer's deeper reads.
SUMMARY_KEYS = st.sampled_from(
    ["measurements", "plan", "reference", "rf_hz", "lo_hz", "if_hz",
     "noise_figure_db", "error", "rows", "analytic_db",
     "reference_formula_db", "reference_gap_db",
     *(name for name, *_ in REGISTRY),
     *(key for *_, row in REGISTRY if row for key in row[1::2] if key)])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(SUMMARY_KEYS | st.text(max_size=4), inner, max_size=4),
    max_leaves=16)


class TestCliRun:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_validate_ok(self, tmp_path):
        path = write_config(tmp_path, "measurements: [cg, power]\n")
        assert self.run_cli("validate", "--config", path) == 0

    def test_validate_bad_config(self, tmp_path):
        path = write_config(tmp_path, "scenario:\n  mixer:\n    gm: -3\n")
        assert self.run_cli("validate", "--config", path) == 2

    @pytest.mark.parametrize("text", [
        "measurements: [nothing]\n",
        "measurements: [cg, iip3]\nsweeps:\n  iip3:\n    tone_spacing_hz: 1.0e+8\n",
    ])
    def test_run_bad_config_exits_2(self, tmp_path, text):
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", path, "--out", str(out)) == 2
        assert not out.exists()

    def test_run_cg_and_power(self, tmp_path, capsys):
        path = write_config(tmp_path, "measurements: [cg, power]\n")
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", path, "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        cg = summary["measurements"]["cg"]
        assert cg["analytic_db"] == pytest.approx(13.5556, abs=1e-3)
        assert cg["value_db"] == pytest.approx(13.48, abs=0.1)
        power = summary["measurements"]["power"]
        assert power["value_w"] == pytest.approx(2.0e-3, rel=1e-3)
        reference = summary["reference"]
        assert reference["conversion_gain_db"] == 12.42
        assert reference["noise_figure_db"] == 8.92
        assert reference["p1db_dbm"] == -11.5
        assert reference["iip3_dbm"] == 6.0
        assert reference["power_w"] == 2.0e-3
        assert (out / "cg.csv").exists()
        assert (out / "power.csv").exists()
        text = capsys.readouterr().out
        assert "conversion gain" in text

    def test_run_p1db_sweep_csv(self, tmp_path):
        path = write_config(tmp_path, "measurements: [p1db]\n")
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", path, "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["measurements"]["p1db"]["value_dbm"] == pytest.approx(
            -11.5, abs=0.2)
        lines = (out / "p1db_sweep.csv").read_text().splitlines()
        assert lines[0] == "input_power_dbm,output_power_dbm,gain_db"
        assert len(lines) == 1 + 81  # header + sweep -40..0 in 0.5 dB steps

    def test_partial_failure_exit_code(self, tmp_path):
        path = write_config(tmp_path, (
            "measurements: [cg, p1db, iip3, isolation, power]\n"
            "scenario:\n  mixer:\n    a3: 0.0\n"))
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", path, "--out", str(out)) == 1
        measured = json.loads((out / "summary.json").read_text())["measurements"]
        assert "NoCompression" in measured["p1db"]["error"]
        assert "ImmeasurableIM3" in measured["iip3"]["error"]
        assert "value_db" in measured["cg"]
        assert "value_db" in measured["isolation"]
        assert "value_w" in measured["power"]

    def test_unrequested_sweep_section_is_not_read(self, tmp_path):
        path = write_config(tmp_path, (
            "measurements: [cg]\n"
            "sweeps:\n  p1db:\n    start_dbm: abc\n"))
        out = tmp_path / "out"
        assert self.run_cli("validate", "--config", path) == 0
        assert self.run_cli("run", "--config", path, "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "value_db" in summary["measurements"]["cg"]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_shared_simulation_failure_fails_its_measurements(self, tmp_path):
        # 3000 dBm has a finite peak voltage, but its cube overflows.
        path = write_config(tmp_path, (
            "measurements: [harmonics, transient, power]\n"
            "scenario:\n  rf_power_dbm: 3000\n"))
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", path, "--out", str(out)) == 1
        measured = json.loads((out / "summary.json").read_text())["measurements"]
        assert "non-finite" in measured["harmonics"]["error"]
        assert "non-finite" in measured["transient"]["error"]
        assert "value_w" in measured["power"]

    def test_sweep_point_without_finite_amplitude_fails_its_measurement(self, tmp_path):
        path = write_config(tmp_path, (
            "measurements: [p1db, power]\n"
            "sweeps:\n  p1db:\n    start_dbm: 3090\n    stop_dbm: 3100\n"
            "    step_db: 5\n"))
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", path, "--out", str(out)) == 1
        measured = json.loads((out / "summary.json").read_text())["measurements"]
        assert "finite peak voltage" in measured["p1db"]["error"]
        assert "value_w" in measured["power"]

    def test_transient_row_count_matches_the_table(self, tmp_path):
        # A decimation past the float range still keeps sample 0.
        path = write_config(tmp_path, "measurements: [transient]\nsweeps:\n  transient:\n"
                                      "    decimation: 1" + "0" * 400 + "\n")
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", path, "--out", str(out)) == 0
        rows = json.loads((out / "summary.json").read_text())["measurements"]["transient"]
        lines = (out / "transient_vout.csv").read_text().splitlines()
        assert rows["rows"] == len(lines) - 1 == 1

    def test_run_seed_override_must_be_non_negative(self, tmp_path, capsys):
        path = write_config(tmp_path, "measurements: [power]\n")
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", path, "--out", str(out),
                            "--seed", "-1") == 2
        assert "scenario.noise.seed" in capsys.readouterr().err

    def test_frequency_read_as_yaml_string_runs(self, tmp_path):
        # PyYAML reads 1.9e9 (no exponent sign) as the string '1.9e9'.
        path = write_config(tmp_path, "measurements: [power]\n"
                                      "scenario:\n  rf_hz: 1.9e9\n")
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", path, "--out", str(out)) == 0
        plan = json.loads((out / "summary.json").read_text())["plan"]
        assert plan["rf_hz"] == 1.9e9 and plan["if_hz"] == 1.0e8
        # The same plan written three ways is one config with one hash.
        hashes = set()
        for rf in ("1.9e9", "1900000000", "1.9e+9"):
            path = write_config(tmp_path, f"measurements: [power]\nscenario:\n  rf_hz: {rf}\n")
            assert self.run_cli("run", "--config", path, "--out", str(out)) == 0
            hashes.add(json.loads((out / "metadata.json").read_text())["parameter_sha256"])
        assert hashes == {loads_config("measurements: [power]\n").parameter_hash()}

    def test_run_is_deterministic(self, tmp_path):
        path = write_config(
            tmp_path, "measurements: [cg, isolation, nf, transient]\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert self.run_cli("run", "--config", path, "--out", str(out1)) == 0
        assert self.run_cli("run", "--config", path, "--out", str(out2)) == 0
        for name in sorted(os.listdir(out1)):
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_seed_changes_noise_output(self, tmp_path):
        path = write_config(tmp_path, "measurements: [nf]\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert self.run_cli("run", "--config", path, "--out", str(out1)) == 0
        assert self.run_cli("run", "--config", path, "--out", str(out2),
                            "--seed", "99") == 0
        a = json.loads((out1 / "summary.json").read_text())
        b = json.loads((out2 / "summary.json").read_text())
        assert a["measurements"]["nf"]["value_db"] != \
            b["measurements"]["nf"]["value_db"]

    def test_json_format_output(self, tmp_path):
        path = write_config(tmp_path,
                            "measurements: [cg]\noutput:\n  format: json\n")
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", path, "--out", str(out)) == 0
        rows = json.loads((out / "cg.json").read_text())
        assert rows[0]["analytic_gain_db"] == pytest.approx(13.5556, abs=1e-3)

    def test_report_regenerates_summary(self, tmp_path):
        path = write_config(tmp_path, "measurements: [cg, power]\n")
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", path, "--out", str(out)) == 0
        original = (out / "summary.txt").read_text()
        (out / "summary.txt").unlink()
        assert self.run_cli("report", "--out", str(out)) == 0
        assert (out / "summary.txt").read_text() == original

    def test_report_missing_dir_exits_3(self, tmp_path):
        assert self.run_cli("report", "--out", str(tmp_path / "nope")) == 3

    @pytest.mark.parametrize("text", [
        "{}", "[]", '{"measurements": []}',
        '{"measurements": {"cg": {"value_db": "13.5"}}}',
        '{"measurements": {}, "plan": {"rf_hz": "1.9e9"}}',
        "{not json", "[" * 100000,
    ], ids=["empty_object", "list", "measurements_list", "string_value",
            "string_plan", "invalid_json", "deep_nesting"])
    def test_report_unrenderable_summary_exits_3(self, tmp_path, capsys, text):
        (tmp_path / "summary.json").write_text(text)
        assert self.run_cli("report", "--out", str(tmp_path)) == 3
        assert "summary.json" in capsys.readouterr().err
        assert not (tmp_path / "summary.txt").exists()

    @given(summary=JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_report_renders_or_exits_3(self, summary):
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "summary.json"), "w") as fh:
                json.dump(summary, fh)
            assert self.run_cli("report", "--out", tmp) in (0, 3)

    def test_metadata_contents(self, tmp_path):
        path = write_config(tmp_path, "measurements: [power]\n")
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", path, "--out", str(out)) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["tool"] == "mixbench"
        assert meta["seed"] == 1729
        assert len(meta["parameter_sha256"]) == 64
        assert meta["internal_grid"]["rf_bin"] == 76
        cfg = load_config(str(out / "effective_config.yaml"))
        assert cfg.parameter_hash() == meta["parameter_sha256"]


def test_registry_runs_every_measurement_in_config_order():
    assert tuple(name for name, _prepare, _measure, _row in REGISTRY) == ALL_MEASUREMENTS


CHEAP_MEASUREMENTS = ["cg", "power", "isolation", "harmonics", "transient"]
ODD_VALUES = st.one_of(
    st.sampled_from([0, 1, 2, 3, 16, 0.5, 2.5e7, 1.9e9]),           # numbers
    st.booleans(),
    st.text(max_size=6),
    st.just(math.inf),
    st.just(math.nan),
    st.sampled_from([-1, -0.5, -40.0, -1.0e9]),                      # negatives
)


def _limit_values(default, limit):
    """A row's allowed strings, or each bound of it and the nearest value either side."""
    if isinstance(limit, tuple):
        return list(limit)
    if limit in (None, DBM):
        return []
    if isinstance(default, int):
        return [int(bound) + step for _, bound in _bounds(limit) for step in (-1, 0, 1)]
    return [value for _, bound in _bounds(limit)
            for value in (math.nextafter(bound, -math.inf), bound,
                          math.nextafter(bound, math.inf))]


def _field_values(path, default, limit):
    """A leaf's path and a value from its row's limit or from ODD_VALUES."""
    limit_values = _limit_values(default, limit)
    if limit_values:
        return st.tuples(st.just(path), ODD_VALUES | st.sampled_from(limit_values))
    return st.tuples(st.just(path), ODD_VALUES)


FIELD_VALUES = st.one_of([_field_values(*row) for row in FIELDS])


@given(measurements=st.lists(st.sampled_from(ALL_MEASUREMENTS), min_size=1,
                             unique=True),
       fields=st.lists(FIELD_VALUES, min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_any_field_value_gives_an_exit_code_not_a_traceback(measurements, fields):
    config = {"measurements": measurements}
    for path, value in fields:
        *sections, leaf = path.split(".")
        section = config
        for key in sections:
            section = section.setdefault(key, {})
        section[leaf] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            validated = main(["validate", "--config", path])
        assert validated in (0, 2)
        # Every rejection names a field.
        assert validated == 0 or any(row[0] in err.getvalue() for row in FIELDS), \
            err.getvalue()
        # Validating never simulates; running is kept to the cheap measurements.
        if set(measurements) <= set(CHEAP_MEASUREMENTS):
            ran = main(["run", "--config", path, "--out", os.path.join(tmp, "out")])
            assert ran in (0, 1, 2, 3)
            assert (ran == 2) == (validated == 2)


class TestDefaultRunWork:
    def test_each_measurement_simulates_on_its_grid(self, tmp_path, monkeypatch):
        grids = record_grids(monkeypatch)
        assert main(["run", "--config", write_config(tmp_path, ""),
                     "--out", str(tmp_path / "out")]) == 0
        # cg and 81 p1db points on the 2,304-sample period (gain-routine
        # points); iip3 hot and cold on the full grid (a 1-unit tone spacing
        # has no shorter period); isolation; the NF noise record, one
        # 36,864-sample periodogram segment at a time, and its 576-sample
        # probe; the transient, which the harmonics share.
        assert grids == ([2304] * 82 + [9216] * 2 + [2304] + [36864] * 32 + [576]
                         + [9216])

    @pytest.mark.parametrize("text, sizes", [
        # cg, p1db and isolation on the 2,304-sample period (one switch per
        # gain call, not per sweep point); iip3 hot and cold on the full
        # grid; the NF record per 36,864-sample segment, then its 576-sample
        # probe; the transient.
        ("", [2304] * 2 + [9216] * 2 + [2304] + [36864] * 32 + [576] + [9216]),
        (SWEEP_POINT_CONFIG, [2304] * 2 + [9216] * 2 + [2304]),
        (BUNDLE_JSON_CONFIG, [2304, 36864]),
    ], ids=["default", "sweep point", "json bundle"])
    def test_switch_evaluated_once_per_mixer_run(self, tmp_path, monkeypatch, text, sizes):
        switches = record_switches(monkeypatch)
        assert main(["run", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == 0
        assert switches == sizes

    @pytest.mark.parametrize("text", [
        "",
        SWEEP_POINT_CONFIG,
        BUNDLE_JSON_CONFIG,
    ], ids=["default", "sweep point", "json bundle"])
    def test_second_run_misses_no_memo(self, tmp_path, text):
        config = write_config(tmp_path, text)
        assert main(["run", "--config", config, "--out", str(tmp_path / "a")]) == 0
        misses = memo.info().misses
        assert main(["run", "--config", config, "--out", str(tmp_path / "b")]) == 0
        assert memo.info().misses == misses

    def test_default_run_keeps_two_nf_grid_arrays(self, tmp_path):
        memo.clear()
        assert main(["run", "--config", write_config(tmp_path, ""),
                     "--out", str(tmp_path / "out")]) == 0
        scenario, _settings = build_nf_setup(from_dict({}))
        n = scenario.grid.num_samples
        kept = dict(memo._arrays)
        long = sorted(key[0].__name__ for key, array in kept.items() if array.size == n)
        assert long == ["_cos_basis", "_lo_drive"]
        rf = scenario.rf_tones[0]
        assert (signals._cos_basis.__wrapped__, n, scenario.grid.bin_index(rf.frequency),
                rf.phase) in kept
        # No kept array holds the values of another: the LO basis is not
        # kept beside the 1 V LO voltage it equals.
        arrays = list(kept.values())
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not (a.shape == b.shape and np.array_equal(a, b))
        assert memo.info().nbytes == sum(a.nbytes for a in arrays) <= memo.BUDGET_BYTES

    def test_memo_never_exceeds_its_budget(self, tmp_path, monkeypatch):
        # At a 147,456-sample NF grid one array is 1.18 MB, and a run's
        # arrays (about 3.1 MB) are twice a 1.5 MB budget.
        budget = 1_500_000
        held = []

        class Watched(OrderedDict):
            def __setitem__(self, key, array):
                super().__setitem__(key, array)
                held.append(sum(a.nbytes for a in self.values()))

        # A memo of its own, restored whole afterwards: the arrays and the
        # byte count that other tests leave in the module's memo stay as
        # they are.
        monkeypatch.setattr(memo, "BUDGET_BYTES", budget)
        monkeypatch.setattr(memo, "_arrays", Watched())
        monkeypatch.setattr(memo, "_counts", {"misses": 0, "nbytes": 0})
        config = write_config(tmp_path, "sweeps: {nf: {grid: {bins_per_unit: 256}}}\n")
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert main(["run", "--config", config, "--out", str(tmp_path / "a")]) == 0
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(held) > 10 and max(held) <= budget
        assert memo.info().nbytes == held[-1]
        assert kept < budget + 200_000

    def test_nf_setup_built_once(self, tmp_path, monkeypatch):
        calls = []
        setup = metrics.noise_figure_setup

        def counting_setup(*args):
            calls.append(args)
            return setup(*args)

        monkeypatch.setattr(cli, "noise_figure_setup", counting_setup)
        monkeypatch.setattr(metrics, "noise_figure_setup", counting_setup)
        assert main(["run", "--config", write_config(tmp_path, "measurements: [nf]\n"),
                     "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1


class TestTransientOutput:
    def test_row_count_and_decimation(self, tmp_path):
        cfg = from_dict({"measurements": ["transient"]})
        scenario = build_scenario(cfg)
        result = simulate(scenario)
        paths = emit_transient(result, str(tmp_path), decimation=1)
        lines = open(paths[0]).read().splitlines()
        assert len(lines) == 1 + scenario.grid.num_samples
        paths = emit_transient(result, str(tmp_path), decimation=8)
        lines = open(paths[0]).read().splitlines()
        assert len(lines) == 1 + scenario.grid.num_samples // 8

    def test_filtered_output_is_nearly_sinusoidal(self, tmp_path):
        # After the IF low-pass the record is a clean IF tone: second
        # harmonic more than 40 dB down (H2/H1 < 1%).
        cfg = from_dict({})
        scenario = build_scenario(cfg)
        result = simulate(scenario)
        assert result.v_out_filtered is not None
        h1 = bin_amplitude(result.v_out_filtered, scenario.f_if).amplitude
        h2 = bin_amplitude(result.v_out_filtered, 2 * scenario.f_if).amplitude
        assert h2 / h1 < 0.01
        paths = emit_transient(result, str(tmp_path))
        assert len(paths) == 2

    def test_unfiltered_output_keeps_rf_structure(self):
        # The raw output carries most of its AC power above the IF region.
        cfg = from_dict({})
        scenario = build_scenario(cfg)
        result = simulate(scenario)
        import numpy as np
        spectrum = np.abs(np.fft.rfft(result.v_out.samples)) ** 2
        total_ac = spectrum[1:].sum()
        high = spectrum[int(scenario.f_lo) - 4:].sum()
        assert high / total_ac > 0.10

    def test_time_axis_in_physical_seconds(self, tmp_path):
        cfg = from_dict({})
        scenario = build_scenario(cfg)
        result = simulate(scenario)
        paths = emit_transient(result, str(tmp_path), decimation=1)
        lines = open(paths[0]).read().splitlines()
        t0 = float(lines[1].split(",")[0])
        t1 = float(lines[2].split(",")[0])
        # Sample spacing equals 1/(scaled sample rate) in seconds.
        fs_hz = scenario.grid.sample_rate * scenario.frequency_scale
        assert t1 - t0 == pytest.approx(1.0 / fs_hz, rel=1e-9)
        assert t0 == 0.0


def per_cell_csv(header, rows):
    """The per-cell CSV rule the table writer must reproduce byte for byte."""
    def cell(v):
        if not isinstance(v, float):
            return str(v)
        if v == -math.inf:
            return "-inf"
        if v == math.inf:
            return "inf"
        return f"{v:.12g}"
    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


class TestCsvTables:
    HEADER = ("index", "value", "label", "flag")
    VALUES = (math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-5, 1e21, 1e16,
              0.1 + 0.2, -123.456789012345, 5e-324, 1.7976931348623157e308)

    def test_matches_per_cell_rule(self, tmp_path):
        rows = [(i * 10 ** i, v, f"ray {i}%s,x", i % 2 == 0)
                for i, v in enumerate(self.VALUES)]
        path = _write_table(str(tmp_path / "t"), self.HEADER, rows, "csv")
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == per_cell_csv(self.HEADER, rows)

    def test_empty_table_is_its_header(self, tmp_path):
        path = _write_table(str(tmp_path / "t"), ("a", "b"), [], "csv")
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == "a,b\n"

    @pytest.mark.parametrize("rows", [
        [(1.0, 2.0), (3, 4.0)],        # int among floats
        [(1.0, "x"), (2.0, 3.5)],      # float among strings
        [(1.0, 2.0), (3.0,)],          # ragged
    ])
    def test_rejects_tables_one_template_cannot_write(self, tmp_path, rows):
        with pytest.raises(ValueError):
            _write_table(str(tmp_path / "t"), ("a", "b"), rows, "csv")

    @pytest.mark.parametrize("decimation", [1, 8])
    def test_transient_tables_match_per_sample_rule(self, tmp_path, decimation):
        scenario = build_scenario(from_dict({}))
        result = simulate(scenario)
        paths = emit_transient(result, str(tmp_path), decimation=decimation)
        assert len(paths) == 2
        grid = scenario.grid
        for path, signal in zip(paths, (result.v_out, result.v_out_filtered)):
            rows = [(float(n / grid.sample_rate / scenario.frequency_scale),
                     float(signal.samples[n]))
                    for n in range(0, grid.num_samples, decimation)]
            with open(path, encoding="utf-8", newline="") as fh:
                assert fh.read() == per_cell_csv(("time_s", "voltage_v"), rows)


    @pytest.mark.parametrize("decimation", [1, 8])
    def test_transient_json_tables_match_per_sample_rule(self, tmp_path, decimation):
        scenario = build_scenario(from_dict({}))
        result = simulate(scenario)
        paths = emit_transient(result, str(tmp_path), decimation=decimation, fmt="json")
        grid = scenario.grid
        for path, signal in zip(paths, (result.v_out, result.v_out_filtered)):
            rows = [{"time_s": float(n / grid.sample_rate / scenario.frequency_scale),
                     "voltage_v": float(signal.samples[n])}
                    for n in range(0, grid.num_samples, decimation)]
            with open(path, encoding="utf-8", newline="") as fh:
                assert fh.read() == json.dumps(rows, indent=2, sort_keys=True) + "\n"


class TestSummaryRendering:
    def test_errors_section_lists_failures(self):
        summary = {
            "measurements": {
                "cg": {"value_db": 13.5, "analytic_db": 13.56,
                       "reference_db": 12.42},
                "p1db": {"error": "NoCompressionError: a3 must be < 0"},
            },
            "reference": {"noise_figure_db": 8.92},
        }
        text = render_summary_text(summary)
        assert "failed measurements:" in text
        assert "NoCompressionError" in text
        assert "conversion gain" in text
