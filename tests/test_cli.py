"""Tests for config loading, the CLI harness, and the output bundle."""

import contextlib
import io
import json
import math
import os
import re
import runpy
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import BUNDLE_JSON_CONFIG, SWEEP_POINT_CONFIG, record_grids, record_switches

import mixbench
from mixbench import cli, engine, memo, metrics
from mixbench._float_text import float_fields
from mixbench.cli import (
    REGISTRY,
    _csv_lines,
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
    _LOADER,
    _bounds,
    build_nf_setup,
    build_scenario,
    from_dict,
    load_config,
    loads_config,
)
from mixbench.engine import simulate
from mixbench.errors import ValidationError
from mixbench.signals import _band_stats, bin_amplitude


ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def alias_chain(levels):
    """A YAML list whose last item, by aliases, holds 2**levels ones."""
    items = ["&a0 [1, 1]"] + [f"&a{i} [*a{i - 1}, *a{i - 1}]" for i in range(1, levels)]
    return f"[{', '.join(items)}]"


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
        # Above the main grid's Nyquist (115.2 GHz), where NF alone is asked for.
        ("measurements: [nf]\nscenario:\n  if_filter:\n    cutoff_hz: 2.0e+11\n",
         ("scenario.if_filter.cutoff_hz", "Nyquist")),
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
        # An LO phase that puts samples on the ideal switch's switching
        # instants; pi * (1/2 + 1/64) does so on the main grid only.
        ("measurements: [cg]\nscenario:\n  lo_phase_rad: 0.0\n",
         ("scenario.lo_phase_rad", "switching instants")),
        ("scenario:\n  lo_phase_rad: 1.5707963267948966\n", "scenario.lo_phase_rad"),
        ("measurements: [cg]\nscenario:\n  lo_phase_rad: 1.6198837120072371\n",
         "scenario.lo_phase_rad"),
        # Phases so large that they swallow the per-sample steps.
        ("scenario:\n  lo_phase_rad: 1.0e+16\n", "scenario.lo_phase_rad"),
        ("scenario:\n  rf_phase_rad: 1.0e+308\n", "scenario.rf_phase_rad"),
        # A noise band that misses all or part of a bin of the NF input band.
        ("measurements: [nf]\nscenario:\n  noise:\n    bandwidth_hz: 1.0e+6\n",
         ("scenario.noise.bandwidth_hz", "periodogram bin")),
        ("measurements: [nf]\nscenario:\n  noise:\n    bandwidth_hz: 1.9e+9\n",
         "scenario.noise.bandwidth_hz"),
        ("measurements: [nf]\nscenario:\n  noise:\n    bandwidth_hz: 1.975e+9\n",
         "scenario.noise.bandwidth_hz"),
        # Isolation is read over the LO.
        ("measurements: [isolation]\nscenario:\n  lo_amplitude_v: 0.0\n",
         ("scenario.lo_amplitude_v", "active LO")),
        # A DC power past the float range, of a finite supply and current.
        ("measurements: [power]\nscenario:\n  mixer: {vdd: 1.0e+300, i_bias: 1.0e+300}\n",
         "scenario.mixer.vdd and scenario.mixer.i_bias: DC power inf W"),
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

    @pytest.mark.parametrize("text", [
        "measurements: [cg, isolation]\nscenario:\n  lo_phase_rad: 0.25\n",
        "measurements: [cg, isolation]\nscenario:\n  lo_phase_rad: 0.7\n",
        "measurements: [nf]\nscenario:\n  noise:\n    bandwidth_hz: 2.0e+9\n",
        # The smooth switch at phase 0, and a silent LO where isolation is not read.
        "measurements: [cg]\nscenario:\n  lo_phase_rad: 0.0\n  mixer:\n"
        "    switch_mode: smooth\n",
        "measurements: [transient]\nscenario:\n  lo_amplitude_v: 0.0\n  lo_phase_rad: 0.0\n",
    ], ids=["lo_phase_0.25", "lo_phase_0.7", "noise_band_2e9", "smooth_phase_0",
            "silent_lo_transient"])
    def test_settings_next_to_rejected_ones_run(self, tmp_path, text):
        path = write_config(tmp_path, text)
        assert main(["validate", "--config", path]) == 0
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("measurements", ["[nf]", "[nf, transient]"])
    def test_cutoff_above_the_nf_grid_nyquist_accepted(self, tmp_path, measurements):
        # 50 GHz lies above the NF grid's Nyquist (28.8 GHz) and below the
        # main grid's (115.2 GHz); only the main scenario carries the filter.
        text = (f"measurements: {measurements}\n"
                "scenario:\n  if_filter:\n    cutoff_hz: 5.0e+10\n")
        assert main(["validate", "--config", write_config(tmp_path, text)]) == 0
        cfg = loads_config(text)
        assert build_nf_setup(cfg)[0].if_filter is None
        assert build_scenario(cfg).if_filter.cutoff == 2000.0

    def test_nf_unchanged_by_the_if_filter(self, tmp_path):
        runs = {}
        for name, text in (("plain", "measurements: [nf]\n"),
                           ("filtered", "measurements: [nf]\nscenario:\n  if_filter:\n"
                                        "    cutoff_hz: 5.0e+10\n")):
            out = tmp_path / name
            assert main(["run", "--config", write_config(tmp_path, text),
                         "--out", str(out)]) == 0
            runs[name] = (out / "nf.csv").read_bytes()
        assert runs["plain"] == runs["filtered"]
        assert float(runs["plain"].decode().splitlines()[1].split(",")[0]) == \
            pytest.approx(3.8983824278119137, rel=1e-11)

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

    def test_either_loader_reads_the_same_tree(self):
        # The benchmark's configs as its harness writes them, the README
        # example, and scalars whose type a resolver decides.
        workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
        texts = [yaml.safe_dump(cfg, sort_keys=True) for name in workloads["NAMES"]
                 for seed in (1, 2) for cfg in workloads["build"](name, seed).configs]
        examples = re.findall(r"```yaml\n(.*?)```", (ROOT / "README.md").read_text("utf-8"),
                              re.S)
        assert examples
        texts += [*examples, SWEEP_POINT_CONFIG, BUNDLE_JSON_CONFIG,
                  "scenario: {rf_hz: 1.9e9, lo_hz: 1.8e+9, rf_power_dbm: .inf}\n"
                  "seed: ~\nodd: [yes, 0x10, 1_000, '2', 2001-12-14, -0.0]\n"]
        assert _LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        for text in texts:
            assert repr(yaml.load(text, Loader=_LOADER)) == repr(yaml.safe_load(text)), text

    def test_field_override(self, tmp_path):
        cfg = from_dict({})
        seeded = cfg.with_field("scenario.noise.seed", 9)
        assert seeded.seed == 9
        assert cfg.with_field("output.format", "json").output_format == "json"
        assert (cfg.seed, cfg.output_format) == (1729, "csv")  # original untouched
        seeded.raw["scenario"]["noise"]["seed"] = 1729  # no other leaf moved
        assert seeded.raw == cfg.raw
        # A negative --seed is checked where it is read (the CLI's exit 2:
        # test_run_seed_override_must_be_non_negative).
        with pytest.raises(ValidationError, match=r"scenario\.noise\.seed"):
            prepare(cfg.with_field("scenario.noise.seed", -1))
        # --seed and --format reach the run through it.
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, "measurements: [power]\n"),
                     "--out", str(out), "--seed", "9", "--format", "json"]) == 0
        assert json.loads((out / "metadata.json").read_text())["seed"] == 9
        assert sorted(p.name for p in out.glob("power.*")) == ["power.json"]

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


# Command lines whose usage, help, version or parse the CLI's parser gives.
PARSER_ARGVS = [
    ["--help"], ["--version"], [], ["nothing"], ["run", "--help"], ["report", "--help"],
    ["validate", "--help"], ["run"], ["run", "--config", "c.yaml"], ["validate", "--bogus"],
    ["run", "--config", "c.yaml", "--out", "o", "--format", "xml"],
    ["run", "--config", "c.yaml", "--out", "o", "--seed", "x"],
    ["run", "--config", "c.yaml", "--out", "o", "--format", "json", "--seed", "7"],
    ["report", "--out", "o"], ["validate", "--config", "c.yaml"],
]


def parse_texts(parser, argv):
    """Exit code, stdout and stderr of ``parser.parse_args(argv)``, and what it parsed."""
    out, err = io.StringIO(), io.StringIO()
    code, parsed = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), parsed


class TestParser:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_texts_equal_a_fresh_parsers(self, monkeypatch):
        # Every text of the one parser, read after every other, has the
        # bytes a parser built for that call alone gives.
        monkeypatch.setenv("COLUMNS", "80")
        for argv in PARSER_ARGVS + PARSER_ARGVS[::-1]:
            assert parse_texts(cli.build_parser(), argv) == \
                parse_texts(cli.build_parser.__wrapped__(), argv), argv

    def test_version_text(self):
        version = f"mixbench {mixbench.__version__}\n"
        assert parse_texts(cli.build_parser(), ["--version"])[:3] == (0, version, "")


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
        "1: 2\nfoo: 3\n",  # unknown keys of two types
        "measurements: [cg]\nscenario:\n  lo_phase_rad: 0.0\n",
        "measurements: [cg]\nscenario:\n  rf_phase_rad: 1.0e+308\n",
        "measurements: [nf]\nscenario:\n  noise:\n    bandwidth_hz: 1.975e+9\n",
        "measurements: [isolation]\nscenario:\n  lo_amplitude_v: 0.0\n",
        "measurements: [power]\nscenario:\n  mixer: {vdd: 1.0e+300, i_bias: 1.0e+300}\n",
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
        p1db = summary["measurements"]["p1db"]
        assert p1db["value_dbm"] == pytest.approx(-11.5, abs=0.2)
        # The exact crossing of the gain, and the interpolation's gap to it.
        assert p1db["exact_dbm"] == pytest.approx(p1db["value_dbm"], abs=0.01)
        assert p1db["interpolation_gap_db"] == p1db["value_dbm"] - p1db["exact_dbm"]
        lines = (out / "p1db_sweep.csv").read_text().splitlines()
        assert lines[0] == "input_power_dbm,output_power_dbm,gain_db"
        assert len(lines) == 1 + 81  # header + sweep -40..0 in 0.5 dB steps

    def test_partial_failure_exit_code(self, tmp_path):
        path = write_config(tmp_path, (
            "measurements: [cg, iip3, isolation, power]\n"
            "scenario:\n  mixer:\n    a3: 0.0\n"))
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", path, "--out", str(out)) == 1
        measured = json.loads((out / "summary.json").read_text())["measurements"]
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

    def test_overflowing_records_fail_without_warnings(self, tmp_path, capfd):
        # Every record of this mixer overflows, and every drive is past its
        # cubic's bound.  The failures are named in the summary; numpy
        # prints no warning on the way.  Isolation reads the RF port alone,
        # which stays finite: 20*log10(kappa).
        path = write_config(tmp_path, (
            "measurements: [cg, p1db, iip3, isolation, harmonics, transient]\n"
            "scenario:\n  mixer: {a3: -1.0e+279, rd: 1.0e+40}\n"))
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
        argv = [sys.executable, "-m", "mixbench", "run", "--config", path, "--out", str(out)]
        assert subprocess.run(argv, env=env).returncode == 1
        measured = json.loads((out / "summary.json").read_text())["measurements"]
        isolation = measured.pop("isolation")
        assert isolation == {"value_db": pytest.approx(20.0 * math.log10(0.01303), abs=1e-9)}
        assert round(isolation["value_db"], 2) == -37.70
        uncovered = ("NonFiniteReadingError: drive {!r} V{}: the drive polynomial cannot "
                     "bound its record{}")
        assert measured == {
            "cg": {"error": uncovered.format(0.01, " at -30.0 dBm",
                                             " (scenario.rf_power_dbm)")},
            "p1db": {"error": uncovered.format(0.0031622776601683794, " at -40.0 dBm",
                                               " (sweeps.p1db.start_dbm)")},
            "iip3": {"error": uncovered.format(0.0031622776601683794, " at -40.0 dBm",
                                               " (sweeps.iip3.per_tone_dbm)")},
            **{name: {"error": "ValidationError: signal contains non-finite samples"}
               for name in ("harmonics", "transient")}}
        assert sorted(path.name for path in out.iterdir()) == [
            "effective_config.yaml", "isolation.csv", "metadata.json", "summary.json",
            "summary.txt"]
        assert "RuntimeWarning" not in capfd.readouterr().err

    def test_nf_of_an_overflowing_smooth_switch_runs(self, tmp_path):
        # The LO over v_sw overflows to inf in the switch, where tanh gives
        # the hard switch's +/-1: the figure is finite, and no RuntimeWarning
        # (an error under pytest) escapes the noise figure.
        path = write_config(tmp_path, (
            "measurements: [nf]\n"
            "scenario:\n  lo_amplitude_v: 1.0e+10\n"
            "  mixer: {switch_mode: smooth, switch_v_sw: 1.0e-300}\n"))
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", path, "--out", str(out)) == 0
        nf = json.loads((out / "summary.json").read_text())["measurements"]["nf"]
        assert math.isfinite(nf["value_db"])

    @pytest.mark.parametrize("mixer, iip3_error, fundamental_dbm", [
        # Rays of about 1e296 V, whose squares overflow; the drive cubic's
        # bound refuses every drive of the two tones.
        ("a3: -1.0e+300", "NonFiniteReadingError: drive 0.0031622776601683794 V at -40.0 "
         "dBm: the drive polynomial cannot bound its record (sweeps.iip3.per_tone_dbm)",
         5945.27799978),
        # Rays of about 1e-304 V, whose squares underflow.
        ("rd: 1.0e-300", "ImmeasurableIM3Error: IM3 ray below", -6063.36596619),
    ], ids=["overflowing_square", "underflowing_square"])
    def test_extreme_rays_read_finite_powers(self, tmp_path, mixer, iip3_error,
                                             fundamental_dbm):
        # Once read as an IIP3 of null, or failed with a bare math domain error.
        path = write_config(tmp_path, ("measurements: [iip3, harmonics]\n"
                                       f"scenario:\n  mixer: {{{mixer}}}\n"))
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", path, "--out", str(out)) == 1
        measured = json.loads((out / "summary.json").read_text())["measurements"]
        assert measured["iip3"]["error"].startswith(iip3_error)
        for name in ("harmonics_rf", "harmonics_out"):
            rows = (out / f"{name}.csv").read_text().splitlines()[1:]
            assert all(math.isfinite(float(row.split(",")[-1])) for row in rows)
        fundamental = (out / "harmonics_out.csv").read_text().splitlines()[1]
        assert float(fundamental.split(",")[-1]) == fundamental_dbm

    @pytest.mark.parametrize("start, stop, named", [
        (3090, 3100, "sweeps.p1db.start_dbm: 3090.0 dBm"),
        (-40, 3100, "sweeps.p1db.stop_dbm: 3100.0 dBm"),
    ])
    def test_sweep_end_without_finite_amplitude_rejected(self, tmp_path, capsys,
                                                         start, stop, named):
        path = write_config(tmp_path, (
            "measurements: [p1db, power]\n"
            f"sweeps:\n  p1db:\n    start_dbm: {start}\n    stop_dbm: {stop}\n"
            "    step_db: 5\n"))
        assert self.run_cli("validate", "--config", path) == 2
        assert self.run_cli("run", "--config", path, "--out", str(tmp_path / "out")) == 2
        assert f"{named} has no finite peak voltage" in capsys.readouterr().err

    @pytest.mark.parametrize("a3", ["0.0", "0.5"])
    def test_p1db_without_compression_rejected(self, tmp_path, capsys, a3):
        # a3 >= 0 is decided from the config alone, so validate and run
        # reject it alike, before any output is written.
        path = write_config(tmp_path, (
            "measurements: [cg, p1db, power]\n"
            f"scenario:\n  mixer:\n    a3: {a3}\n"))
        out = tmp_path / "out"
        assert self.run_cli("validate", "--config", path) == 2
        assert self.run_cli("run", "--config", path, "--out", str(out)) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count(f"error: scenario.mixer.a3: a3 must be < 0 for compression, "
                         f"got {a3}\n") == 2

    def test_transient_row_count_matches_the_table(self, tmp_path):
        # A decimation past the float range still keeps sample 0.
        path = write_config(tmp_path, "measurements: [transient]\nsweeps:\n  transient:\n"
                                      "    decimation: 1" + "0" * 400 + "\n")
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", path, "--out", str(out)) == 0
        rows = json.loads((out / "summary.json").read_text())["measurements"]["transient"]
        lines = (out / "transient_vout.csv").read_text().splitlines()
        assert rows["rows"] == len(lines) - 1 == 1

    @pytest.mark.parametrize("text, named", [
        # An unread leaf, a read leaf and the measurements list.
        (f"measurements: [power]\nsweeps: {{harmonics: {{order: {alias_chain(40)}}}}}\n",
         "sweeps.harmonics.order"),
        (f"measurements: [power]\nscenario: {{rf_hz: {alias_chain(40)}}}\n",
         "scenario.rf_hz"),
        (f"measurements: {alias_chain(40)}\n", "measurements"),
        # 20,000 entries: finding the repeats must take linear time.
        ("measurements: [" + ", ".join(["power"] * 20_000) + "]\n", "more than once"),
        ("scenario: {mixer: {gm: {a: 1}}}\n", "scenario.mixer.gm"),
        ("measurements: [cg, 1]\n", "measurement names"),
    ], ids=["unread leaf", "read leaf", "measurements", "repeats", "mapping leaf",
            "number as measurement"])
    def test_config_rejected_quickly_and_briefly(
            self, tmp_path, capsys, text, named):
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        for argv in (["validate", "--config", path],
                     ["run", "--config", path, "--out", str(out)]):
            start = time.perf_counter()
            assert self.run_cli(*argv) == 2
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert named in err and len(err) < 1024, err[:1024]
        assert not out.exists()

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_bytes(b"\xff\xfe")
        for argv in (["validate", "--config", str(path)],
                     ["run", "--config", str(path), "--out", str(tmp_path / "out")]):
            assert self.run_cli(*argv) == 2
            assert "cannot read config" in capsys.readouterr().err

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
        # The seed draws the transient's noise; the NF draws none.
        path = write_config(tmp_path, "measurements: [transient]\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert self.run_cli("run", "--config", path, "--out", str(out1)) == 0
        assert self.run_cli("run", "--config", path, "--out", str(out2),
                            "--seed", "99") == 0
        assert (out1 / "transient_vout.csv").read_bytes() != \
            (out2 / "transient_vout.csv").read_bytes()

    def test_nf_does_not_depend_on_the_seed_or_the_nf_record(self, tmp_path):
        # The NF is read from one period of the mixer's small-signal gain:
        # neither the seed nor the NF grid's length nor its segments move it.
        tables = set()
        for text, seed in (("", "1"), ("", "2"),
                           ("sweeps: {nf: {grid: {bins_per_unit: 256}}}\n", "1"),
                           ("sweeps: {nf: {segments: 16}}\n", "1")):
            path = write_config(tmp_path, "measurements: [nf]\n" + text)
            out = tmp_path / "out"
            assert self.run_cli("run", "--config", path, "--out", str(out),
                                "--seed", seed) == 0
            tables.add((out / "nf.csv").read_bytes())
        assert len(tables) == 1

    @pytest.mark.parametrize("text, entry, table, error", [
        # The cubic overflows the mixer's slope at its operating point.
        ("measurements: [nf]\nscenario:\n  mixer:\n    a3: -1.0e+300\n", "nf", "nf",
         "NonFiniteReadingError: the mixer's periodic small-signal gain has mean square inf"),
        # A finite record whose IF projection overflows, past the drive
        # cubic's bound.
        ("measurements: [cg]\nscenario:\n  rf_power_dbm: 2035.0\n", "cg", "cg",
         "NonFiniteReadingError: drive 1.778279410038923e+101 V at 2035.0 dBm: the drive "
         "polynomial cannot bound its record (scenario.rf_power_dbm)"),
        # The sweep stops at its first such point, 2025 dBm, and names the
        # field of its power: the start, or for a later point the stop.
        ("measurements: [p1db]\nsweeps:\n  p1db: {start_dbm: 2025.0, stop_dbm: 2045.0, "
         "step_db: 5.0}\n", "p1db", "p1db_sweep",
         "NonFiniteReadingError: drive 5.623413251903491e+100 V at 2025.0 dBm: the drive "
         "polynomial cannot bound its record (sweeps.p1db.start_dbm)"),
        ("measurements: [p1db]\nsweeps:\n  p1db: {start_dbm: 1000.0, stop_dbm: 2045.0, "
         "step_db: 5.0}\n", "p1db", "p1db_sweep",
         "NonFiniteReadingError: drive 3.162277660168379e+99 V at 2000.0 dBm: the drive "
         "polynomial cannot bound its record (sweeps.p1db.stop_dbm)"),
        # The noise figure's probe tone.
        ("measurements: [nf]\nsweeps:\n  nf: {probe_power_dbm: 2025.0}\n", "nf", "nf",
         "NonFiniteReadingError: drive 5.623413251903491e+100 V at 2025.0 dBm: the drive "
         "polynomial cannot bound its record (sweeps.nf.probe_power_dbm)"),
        # A finite record whose gain once read as 5975.28 dB.
        ("measurements: [cg]\nscenario:\n  mixer:\n    a3: -1.0e+300\n", "cg", "cg",
         "NonFiniteReadingError: drive 0.01 V at -30.0 dBm: the drive polynomial cannot "
         "bound its record (scenario.rf_power_dbm)"),
    ], ids=["nf_a3", "cg_overflow", "p1db_overflow", "p1db_overflow_later_point",
            "nf_probe_overflow", "cg_a3"])
    def test_non_finite_reading_fails_by_name(self, tmp_path, text, entry, table, error):
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self.run_cli("run", "--config", write_config(tmp_path, text),
                                "--out", str(out)) == 1
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        summary = json.loads((out / "summary.json").read_text())
        assert summary["measurements"][entry] == {"error": error}
        assert not (out / f"{table}.csv").exists()

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


class TestMetamorphic:
    """Noise-free readings depend on the frequency plan's ratios alone.

    More bins per plan unit, or the whole plan scaled (RF, LO, the IF cutoff
    and the tone spacing), give every reading to the bit.
    """

    # (measurement, summary key): reading of the default design.
    READINGS = {("cg", "value_db"): 13.482486781799386,
                ("p1db", "value_dbm"): -11.523858105811668,
                ("iip3", "value_dbm"): -1.8942209288771465,
                ("isolation", "value_db"): -37.7011116857483}

    def readings(self, tmp_path, **sections):
        config = {"measurements": [name for name, _ in self.READINGS], **sections}
        run, inputs = prepare(from_dict(config), str(tmp_path))
        results = cli._measure(run, inputs)["measurements"]
        return {(name, key): results[name][key] for name, key in self.READINGS}

    @pytest.mark.parametrize("bins_per_unit", [4, 8, 16, 32])
    def test_bins_per_unit(self, tmp_path, bins_per_unit):
        assert self.readings(tmp_path, scenario={
            "grid": {"bins_per_unit": bins_per_unit}}) == self.READINGS

    @pytest.mark.parametrize("rf_hz, lo_hz, cutoff_hz, spacing_hz", [
        (1.9e6, 1.8e6, 2.0e5, 2.5e4),
        (1.9e12, 1.8e12, 2.0e11, 2.5e10),
    ], ids=["x1e-3", "x1e3"])
    def test_scaled_plan(self, tmp_path, rf_hz, lo_hz, cutoff_hz, spacing_hz):
        assert self.readings(
            tmp_path,
            scenario={"rf_hz": rf_hz, "lo_hz": lo_hz, "if_filter": {"cutoff_hz": cutoff_hz}},
            sweeps={"iip3": {"tone_spacing_hz": spacing_hz}}) == self.READINGS


class TestNoiseLevel:
    """The injected noise is a density, so its level must not depend on
    how many grid bins a plan unit spans."""

    @pytest.mark.xfail(strict=True, reason=(
        "noise is drawn at density * sqrt(fs / 2) with fs in grid units, so "
        "its rms grows with sqrt(bins_per_unit) (ROADMAP item 7)"))
    def test_noise_level_does_not_depend_on_bins_per_unit(self):
        # The transient's RF-port noise (the record minus its noise-free
        # twin) at 4 and 16 bins per unit: an rms estimate over N samples
        # has a relative standard error of 1/sqrt(2N).
        rms = []
        for bins_per_unit in (4, 16):
            s = build_scenario(from_dict({"scenario": {"grid": {
                "bins_per_unit": bins_per_unit}}}))
            noise = (simulate(s).v_rf_port.samples
                     - simulate(replace(s, input_noise_density=0.0)).v_rf_port.samples)
            rms.append((float(np.std(noise)), 1.0 / math.sqrt(2.0 * noise.size)))
        (a, err_a), (b, err_b) = rms
        assert abs(b / a - 1.0) <= 3.0 * math.hypot(err_a, err_b)
        # The NF's input and output density estimates at 256 and 1,024 NF
        # bins per unit: a density's relative spread is half its power's.
        stats = []
        for bins_per_unit in (256, 1024):
            s, settings = build_nf_setup(from_dict({"sweeps": {"nf": {"grid": {
                "bins_per_unit": bins_per_unit}}}}))
            bins = metrics.noise_figure_setup(s, settings)[0]
            stats.append(_band_stats(s.grid, engine._record(s), settings.segments, bins))
        for a, b in zip(*stats):
            assert abs(b.density / a.density - 1.0) <= \
                1.5 * math.hypot(a.relative_spread, b.relative_spread)


class TestDefaultRunWork:
    def test_each_measurement_simulates_on_its_grid(self, tmp_path, monkeypatch):
        grids = record_grids(monkeypatch)
        assert main(["run", "--config", write_config(tmp_path, ""),
                     "--out", str(tmp_path / "out")]) == 0
        # One drive cubic shared by cg and the 81 p1db points on the
        # 2,304-sample period, and one for iip3's hot and cold drives on the
        # full grid (a 1-unit tone spacing has no shorter period); the NF's
        # 576-sample probe cubic (isolation and the NF itself read the pump
        # and run no record); the transient, which the harmonics share.
        assert grids == [2304] + [9216] + [576] + [9216]

    @pytest.mark.parametrize("text, sizes", [
        # One switch per mixer run, on the common period of its RF tones and
        # LO: the drive cubic cg and p1db share on 2,304 samples, iip3's two
        # drives on the full grid (a 1-unit tone spacing has no shorter
        # period); the NF's small-signal gain and its probe on 576; the
        # transient on 2,304.  Isolation reads the RF port alone and
        # evaluates no switch.  5 switches over 14,976 samples by default,
        # 2 over 11,520 per sweep point.
        ("", [2304] + [9216] + [576] + [576] + [2304]),
        (SWEEP_POINT_CONFIG, [2304] + [9216]),
        (BUNDLE_JSON_CONFIG, [2304, 2304]),
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

    def test_default_run_keeps_no_nf_grid_array(self, tmp_path):
        # Every record is built from arrays one common period long, so the
        # memo keeps no array of the 1,179,648-sample NF grid.
        memo.clear()
        assert main(["run", "--config", write_config(tmp_path, ""),
                     "--out", str(tmp_path / "out")]) == 0
        scenario, _settings = build_nf_setup(from_dict({}))
        arrays = list(memo._arrays.values())
        assert arrays and all(a.size < scenario.grid.num_samples for a in arrays)
        assert memo.info().nbytes == sum(a.nbytes for a in arrays) < 1_000_000
        # No kept array holds the values of another: the memo keeps the LO's
        # unit basis and no LO voltage beside it.
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not (a.shape == b.shape and np.array_equal(a, b))

    def test_memo_never_exceeds_its_budget(self, tmp_path, monkeypatch):
        # A default run keeps 13 arrays, 792,576 bytes, the largest 147,456
        # bytes: about twice a 400 kB budget, so the memo must evict.
        budget = 400_000
        held, evicted = [], []

        class Watched(OrderedDict):
            def __setitem__(self, key, array):
                super().__setitem__(key, array)
                held.append(sum(a.nbytes for a in self.values()))

            def popitem(self, last=True):
                item = super().popitem(last)
                evicted.append(item[1].nbytes)
                return item

        # A memo of its own, restored whole afterwards: the arrays and the
        # byte count that other tests leave in the module's memo stay as
        # they are.
        monkeypatch.setattr(memo, "BUDGET_BYTES", budget)
        monkeypatch.setattr(memo, "_arrays", Watched())
        monkeypatch.setattr(memo, "_counts", {"misses": 0, "nbytes": 0})
        config = write_config(tmp_path, "")
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert main(["run", "--config", config, "--out", str(tmp_path / "a")]) == 0
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(held) > 10 and max(held) <= budget
        assert evicted
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
    """The per-cell CSV rule the table writer must reproduce byte for byte.

    A float cell is ``%.12g``, an int (a harmonic index) its ``str``: the
    writer's one ``%.12g`` must give both.
    """
    def cell(v):
        return str(v) if isinstance(v, (int, str)) else f"{v:.12g}"
    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


def assert_same_text(actual, expected):
    """Fail unless the texts are equal, naming the first line that differs.

    A plain ``==`` on two long tables makes pytest diff them whole, which
    takes minutes for a 370 KB transient table.
    """
    if actual == expected:
        return
    got, want = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
    index = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                 min(len(got), len(want)))
    pytest.fail(f"line {index} differs: {got[index:index + 1]!r} != "
                f"{want[index:index + 1]!r} ({len(got)} lines, {len(want)} expected)")


class TestCsvTables:
    HEADER = ("index", "value", "negated %s", "numpy")
    VALUES = (math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-5, 1e21, 1e16,
              0.1 + 0.2, -123.456789012345, 5e-324, 2.225073858507201e-308,
              2.2250738585072014e-308, 1.7976931348623157e308)
    INTS = (0, 1, 9, 10, 99, 12345, 10 ** 6, 2 ** 31, 123456789012 // 10, 99999999999,
            10 ** 11, 7, 3, 5)

    def test_matches_per_cell_rule(self, tmp_path):
        # Ints up to 1e11 beside float cells, as float and as numpy.float64.
        rows = [(k, v, -v, np.float64(v)) for k, v in zip(self.INTS, self.VALUES, strict=True)]
        path = _write_table(str(tmp_path / "t"), self.HEADER, rows, "csv")
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == per_cell_csv(self.HEADER, rows)

    def test_empty_table_is_its_header(self, tmp_path):
        path = _write_table(str(tmp_path / "t"), ("a", "b"), [], "csv")
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == "a,b\n"

    def test_rejects_tables_one_template_cannot_write(self, tmp_path):
        with pytest.raises(ValueError):  # ragged
            _write_table(str(tmp_path / "t"), ("a", "b"), [(1.0, 2.0), (3.0,)], "csv")

    # Cells a float column writes least plainly: each power of ten from
    # 1e-12 to 1e34 and both its neighbours, where a log10 estimate may be
    # one off; exact 12-digit ties, 13 significant digits ending in 5, at
    # several scales (3.814697265625 is 5**18 / 1e12, exact from e-6 to
    # e16; 999999999999.5 rounds up to 13 digits); near ties, whose product
    # with their scale rounds onto a half although they lie off it; signed
    # zeros, NaN, the infinities, subnormals and the extremes.
    POWERS = [v for k in range(-12, 35) for p in [float(f"1e{k}")]
              for v in (math.nextafter(p, 0), p, math.nextafter(p, math.inf))]
    TIES = ([float(f"3.814697265625e{k}") for k in (-6, -2, 0, 5, 11, 16)]
            + [d + 0.5 for d in (123456789012.0, 100000000000.0, 999999999999.0)])
    NEAR_TIES = [0.03818482166455, 0.04940279748095, 0.008593295744555, 0.008161424113055,
                 0.0006837819406405, 0.0009524033586835, 3.746346259085e-05,
                 1.586218993495e-05, 2756680300.115, 2756680300.1150002, 508508109.0465,
                 517670849.9605]
    SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
    EDGE_CELLS = [sign * v for v in POWERS + TIES + NEAR_TIES for sign in (1, -1)] + SPECIAL

    # Any float64 bit pattern or edge cell, as a float and as numpy.float64.
    FLOAT_CELLS = st.integers(0, 2 ** 64 - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]) | st.sampled_from(EDGE_CELLS)
    FLOAT_CELLS = FLOAT_CELLS | FLOAT_CELLS.map(np.float64)

    @staticmethod
    def float_columns_csv(header, rows):
        """The CSV text of ``rows`` of two float columns through :func:`float_fields`."""
        columns = [float_fields(np.array([row[i] for row in rows], dtype=np.float64))
                   for i in range(2)]
        return ",".join(header) + "\n" + _csv_lines(*columns).tobytes().decode("ascii")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(FLOAT_CELLS, FLOAT_CELLS), max_size=30))
    def test_float_columns_match_per_cell_rule(self, rows):
        header = ("time_s", "voltage_v")
        assert_same_text(self.float_columns_csv(header, rows), per_cell_csv(header, rows))

    @pytest.mark.parametrize("cells", [EDGE_CELLS, []], ids=["edge_cells", "empty"])
    def test_float_columns_write_edge_cells(self, cells):
        header = ("time_s", "voltage_v")
        rows = list(zip(cells, reversed(cells)))
        assert_same_text(self.float_columns_csv(header, rows), per_cell_csv(header, rows))

    def test_transient_csv_memory_is_bounded(self, tmp_path):
        # The time column's fields and one block of rows at a time: about
        # 1.3 MB of peak for the two 9,216-row tables of the default run.
        result = simulate(build_scenario(from_dict({})))
        emit_transient(result, str(tmp_path))
        tracemalloc.start()
        try:
            emit_transient(result, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_600_000

    # The default grid (9,216 samples: 2 blocks and a partial one), the
    # smooth switch, and bundle_json's grid (36,864 samples: 9 whole blocks,
    # and 2 blocks, the last partial, at decimation 7).
    @pytest.mark.parametrize("config, decimation", [
        ({}, 1), ({}, 3), ({}, 7), ({}, 8),
        ({"scenario": {"mixer": {"switch_mode": "smooth"}}}, 1),
        ({"scenario": {"grid": {"bins_per_unit": 16}}}, 1),
        ({"scenario": {"grid": {"bins_per_unit": 16}}}, 7),
    ], ids=["1", "3", "7", "8", "smooth-1", "bins16-1", "bins16-7"])
    def test_transient_tables_match_per_sample_rule(self, tmp_path, config, decimation):
        scenario = build_scenario(from_dict(config))
        result = simulate(scenario)
        paths = emit_transient(result, str(tmp_path), decimation=decimation)
        assert len(paths) == 2
        grid = scenario.grid
        for path, signal in zip(paths, (result.v_out, result.v_out_filtered)):
            rows = [(float(n / grid.sample_rate / scenario.frequency_scale),
                     float(signal.samples[n]))
                    for n in range(0, grid.num_samples, decimation)]
            with open(path, encoding="utf-8", newline="") as fh:
                assert_same_text(fh.read(), per_cell_csv(("time_s", "voltage_v"), rows))


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
                assert_same_text(fh.read(), json.dumps(rows, indent=2, sort_keys=True) + "\n")


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


class TestReadmeLibraryUse:
    def test_python_example_prints_its_commented_figures(self, tmp_path):
        # The README's ```python block, run as its own program, prints the
        # conversion gain and P1dB within 0.05 dB of the values its comments
        # give.
        block, = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text("utf-8"),
                            re.S)
        commented = [float(x) for x in re.findall(r"# ~(-?[\d.]+) dBm?$", block, re.M)]
        assert len(commented) == 2
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
        printed = subprocess.run([sys.executable, "-c", block], env=env, cwd=tmp_path,
                                 capture_output=True, text=True, check=True).stdout
        assert [float(x) for x in printed.split()] == [
            pytest.approx(x, rel=0, abs=0.05) for x in commented]
