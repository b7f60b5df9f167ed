"""Command-line harness: run scenarios, write tabular outputs and summaries.

Commands
--------
``mixbench run --config FILE --out DIR [--format csv|json] [--seed N]``
    Execute the requested measurements and write one data file per
    measurement plus summary.txt, summary.json, metadata.json and the
    defaults-merged effective_config.yaml.
``mixbench report --out DIR``
    Regenerate summary.txt from an existing summary.json.
``mixbench validate --config FILE``
    Check a config without running anything.

Exit codes: 0 success, 1 at least one measurement failed, 2 bad
configuration, 3 I/O failure.

Outputs contain no timestamps, so identical configs produce byte-identical
files.  Ray measurements (gain, compression, intercept, isolation,
harmonics) run on a noise-free copy of the scenario; the configured noise
only enters the noise-figure and transient outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .config import RunConfig, build_nf_setup, build_plan, build_scenario, load_config, measurement_plan
from .devices import dc_power
from .engine import TransientResult, analytic_conversion_gain, simulate
from .errors import MixbenchError, ValidationError
from .metrics import (
    REFERENCE_65NM,
    measure_conversion_gain,
    measure_iip3,
    measure_isolation,
    measure_noise_figure,
    measure_p1db,
    reference_formula_noise_figure,
    two_tone_variant,
)
from .signals import harmonic_table

EXIT_OK = 0
EXIT_MEASUREMENT_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_IO_ERROR = 3


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _write_table(path: str, header: Sequence[str], rows: Sequence[Sequence],
                 fmt: str) -> str:
    if fmt == "json":
        path = path + ".json"
        payload = [dict(zip(header, map(_json_safe, row))) for row in rows]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        path = path + ".csv"
        text = _csv_body(len(header), rows)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            fh.write(text)
    return path


def _csv_body(width: int, rows: Sequence[Sequence]) -> str:
    """CSV lines of ``rows``: floats as ``%.12g``, every other cell as ``str``.

    The whole table is one ``%`` over a repeated line template, so each
    column must hold only floats or only non-floats.
    """
    cells = tuple(chain.from_iterable(rows))
    if len(cells) != width * len(rows):
        raise ValueError(f"every row of the table must have {width} cells")
    formats = []
    for column in (cells[i::width] for i in range(width)):
        kinds = {issubclass(t, float) for t in set(map(type, column))}
        if len(kinds) > 1:
            raise ValueError("a table column mixes float and non-float cells")
        formats.append("%.12g" if kinds == {True} else "%s")
    return (",".join(formats) + "\n") * len(rows) % cells


def emit_transient(result: TransientResult, out_dir: str, decimation: int = 1,
                   fmt: str = "csv") -> List[str]:
    """Write (time, value) tables for the output voltage waveforms.

    Times are in seconds of the physical frequency plan.  ``decimation``
    keeps every d-th sample.
    """
    if decimation < 1:
        raise ValidationError(f"decimation must be >= 1, got {decimation}")
    scale = result.scenario.frequency_scale
    grid = result.scenario.grid
    times = (np.arange(0, grid.num_samples, decimation)
             / grid.sample_rate / scale).tolist()
    written = []
    targets = [("transient_vout", result.v_out)]
    if result.v_out_filtered is not None:
        targets.append(("transient_vout_filtered", result.v_out_filtered))
    for name, signal in targets:
        rows = list(zip(times, signal.samples[::decimation].tolist()))
        written.append(_write_table(os.path.join(out_dir, name),
                                    ("time_s", "voltage_v"), rows, fmt))
    return written


def _execute(cfg: RunConfig, out_dir: str) -> Tuple[Dict, List[str]]:
    """Run every requested measurement; return summary dict and file list."""
    fmt = cfg.output_format
    plan = build_plan(cfg)
    scenario = build_scenario(cfg)
    quiet = replace(scenario, input_noise_density=0.0, input_noise_band=None)
    mplan = measurement_plan(cfg)
    ref = REFERENCE_65NM

    results: Dict[str, Dict] = {}
    files: List[str] = []

    def record(name, fn):
        try:
            results[name] = fn()
        except (MixbenchError, ValueError) as exc:
            results[name] = {"error": f"{type(exc).__name__}: {exc}"}

    if "cg" in cfg.measurements:
        def run_cg():
            gain = measure_conversion_gain(quiet)
            analytic = analytic_conversion_gain(scenario.mixer)
            files.append(_write_table(
                os.path.join(out_dir, "cg"),
                ("measured_gain_db", "analytic_gain_db", "reference_gain_db"),
                [(gain, analytic, ref.conversion_gain_db)], fmt))
            return {"value_db": gain, "analytic_db": analytic,
                    "reference_db": ref.conversion_gain_db}
        record("cg", run_cg)

    if "power" in cfg.measurements:
        def run_power():
            p = dc_power(scenario.mixer.bias)
            files.append(_write_table(
                os.path.join(out_dir, "power"),
                ("power_w", "reference_power_w"), [(p, ref.power_w)], fmt))
            return {"value_w": p, "reference_w": ref.power_w}
        record("power", run_power)

    if "isolation" in cfg.measurements:
        def run_isolation():
            iso = measure_isolation(quiet)
            files.append(_write_table(
                os.path.join(out_dir, "isolation"), ("isolation_db",),
                [(iso,)], fmt))
            return {"value_db": iso}
        record("isolation", run_isolation)

    if "p1db" in cfg.measurements:
        def run_p1db():
            res = measure_p1db(quiet, mplan.p1db_range, mplan.p1db_step)
            files.append(_write_table(
                os.path.join(out_dir, "p1db_sweep"),
                ("input_power_dbm", "output_power_dbm", "gain_db"),
                [(pt.input_power_dbm, pt.output_power_dbm, pt.gain_db)
                 for pt in res.sweep], fmt))
            return {"value_dbm": res.p1db_dbm,
                    "small_signal_gain_db": res.small_signal_gain_db,
                    "reference_dbm": ref.p1db_dbm}
        record("p1db", run_p1db)

    if "iip3" in cfg.measurements:
        def run_iip3():
            two = two_tone_variant(quiet, mplan.iip3_tone_spacing)
            res = measure_iip3(two, mplan.iip3_per_tone_dbm)
            files.append(_write_table(
                os.path.join(out_dir, "iip3"),
                ("per_tone_dbm", "p_fund_dbm", "p_im3_dbm", "delta_db",
                 "iip3_dbm"),
                [(res.per_tone_dbm, res.p_fund_dbm, res.p_im3_dbm,
                  res.delta_db, res.iip3_dbm)], fmt))
            return {"value_dbm": res.iip3_dbm, "delta_db": res.delta_db,
                    "p_fund_dbm": res.p_fund_dbm, "p_im3_dbm": res.p_im3_dbm,
                    "per_tone_dbm": res.per_tone_dbm,
                    "reference_dbm": ref.iip3_dbm}
        record("iip3", run_iip3)

    if "nf" in cfg.measurements:
        def run_nf():
            nf_scenario, nf_settings = build_nf_setup(cfg)
            res = measure_noise_figure(nf_scenario, nf_settings)
            formula = reference_formula_noise_figure()
            out = {"value_db": res.nf_db,
                   "input_density_v_rthz": res.input_density,
                   "output_density_v_rthz": res.output_density,
                   "gain_db": res.gain_db,
                   "reference_db": ref.noise_figure_db,
                   "reference_formula_db": formula,
                   "reference_gap_db": ref.noise_figure_db - formula}
            if res.warning:
                out["warning"] = res.warning
            files.append(_write_table(
                os.path.join(out_dir, "nf"),
                ("nf_db", "input_density_v_rthz", "output_density_v_rthz",
                 "gain_db", "reference_formula_db"),
                [(res.nf_db, res.input_density, res.output_density,
                  res.gain_db, formula)], fmt))
            return out
        record("nf", run_nf)

    if "harmonics" in cfg.measurements or "transient" in cfg.measurements:
        transient = simulate(scenario)

    if "harmonics" in cfg.measurements:
        def run_harmonics():
            order = int(cfg.raw["sweeps"]["harmonics"]["order"])
            tables = {}
            for name, signal, fundamental in (
                    ("harmonics_rf", transient.v_rf_port, scenario.f_rf),
                    ("harmonics_out", transient.v_out, scenario.f_if)):
                lines = harmonic_table(signal, fundamental, order)
                rows = [(k + 1, scenario.to_hz(line.frequency), line.amplitude,
                         line.power_dbm) for k, line in enumerate(lines)]
                files.append(_write_table(
                    os.path.join(out_dir, name),
                    ("harmonic", "frequency_hz", "amplitude_v", "power_dbm"),
                    rows, fmt))
                tables[name] = {"order": order,
                                "fundamental_hz": scenario.to_hz(fundamental)}
            return tables
        record("harmonics", run_harmonics)

    if "transient" in cfg.measurements:
        def run_transient():
            decimation = int(cfg.raw["sweeps"]["transient"]["decimation"])
            paths = emit_transient(transient, out_dir, decimation, fmt)
            files.extend(paths)
            return {"files": [os.path.basename(p) for p in paths],
                    "rows": math.ceil(scenario.grid.num_samples / decimation)}
        record("transient", run_transient)

    summary = {
        "measurements": results,
        "reference": {
            "technology_um": ref.technology_um,
            "rf_ghz": ref.rf_ghz,
            "conversion_gain_db": ref.conversion_gain_db,
            "noise_figure_db": ref.noise_figure_db,
            "p1db_dbm": ref.p1db_dbm,
            "iip3_dbm": ref.iip3_dbm,
            "power_w": ref.power_w,
        },
        "plan": {
            "rf_hz": cfg.raw["scenario"]["rf_hz"],
            "lo_hz": cfg.raw["scenario"]["lo_hz"],
            "if_hz": cfg.raw["scenario"]["rf_hz"] - cfg.raw["scenario"]["lo_hz"],
            "internal_ratio": list(plan.ratio),
        },
    }
    return summary, files


_SUMMARY_ROWS = (
    ("cg", "conversion gain", "value_db", "dB", "reference_db"),
    ("p1db", "1 dB compression", "value_dbm", "dBm", "reference_dbm"),
    ("iip3", "IIP3", "value_dbm", "dBm", "reference_dbm"),
    ("isolation", "LO->RF isolation", "value_db", "dB", None),
    ("nf", "noise figure", "value_db", "dB", "reference_db"),
    ("power", "DC power", "value_w", "W", "reference_w"),
)


def render_summary_text(summary: Dict) -> str:
    lines = ["mixbench measurement summary",
             "============================", ""]
    plan = summary.get("plan", {})
    if plan:
        lines.append(f"frequency plan: RF {plan['rf_hz']:.6g} Hz, "
                     f"LO {plan['lo_hz']:.6g} Hz, IF {plan['if_hz']:.6g} Hz")
        lines.append("")
    lines.append(f"{'measurement':<22}{'measured':>16}{'reference':>16}")
    lines.append("-" * 54)
    meas = summary["measurements"]
    for key, label, value_key, unit, ref_key in _SUMMARY_ROWS:
        if key not in meas:
            continue
        entry = meas[key]
        if "error" in entry:
            lines.append(f"{label:<22}{'failed':>16}{'':>16}")
            continue
        val = f"{entry[value_key]:.4g} {unit}"
        ref = f"{entry[ref_key]:.4g} {unit}" if ref_key and ref_key in entry else "-"
        lines.append(f"{label:<22}{val:>16}{ref:>16}")
    cg_entry = meas.get("cg", {})
    if "analytic_db" in cg_entry:
        lines.append("")
        lines.append(f"small-signal model gain: {cg_entry['analytic_db']:.2f} dB")
    nf_entry = meas.get("nf", {})
    if "reference_formula_db" in nf_entry:
        lines.append("")
        lines.append(
            f"reference densities through the gain formula give "
            f"{nf_entry['reference_formula_db']:.2f} dB; the published figure "
            f"is {summary['reference']['noise_figure_db']:.2f} dB "
            f"(gap {nf_entry['reference_gap_db']:.2f} dB)")
    if "harmonics" in meas and "error" not in meas["harmonics"]:
        lines.append("")
        lines.append("harmonic tables written for the RF port and the output")
    if "transient" in meas and "error" not in meas["transient"]:
        entry = meas["transient"]
        if "error" not in entry:
            lines.append(f"transient waveforms written ({entry['rows']} rows)")
    errors = {k: v["error"] for k, v in meas.items() if "error" in v}
    if errors:
        lines.append("")
        lines.append("failed measurements:")
        for name in sorted(errors):
            lines.append(f"  {name}: {errors[name]}")
    lines.append("")
    return "\n".join(lines)


def _write_outputs(cfg: RunConfig, summary: Dict, out_dir: str):
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(_json_safe(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(render_summary_text(summary))
    plan = build_plan(cfg)
    metadata = {
        "tool": "mixbench",
        "version": __version__,
        "seed": cfg.seed,
        "parameter_sha256": cfg.parameter_hash(),
        "internal_grid": {
            "num_samples": plan.num_samples,
            "rf_bin": plan.rf_bin,
            "lo_bin": plan.lo_bin,
            "if_bin": plan.if_bin,
            "hz_per_unit": plan.hz_per_unit,
        },
    }
    with open(os.path.join(out_dir, "metadata.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "effective_config.yaml"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(cfg.effective_yaml())


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
        if args.format is not None:
            cfg = cfg.with_output_format(args.format)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        os.makedirs(args.out, exist_ok=True)
        summary, _ = _execute(cfg, args.out)
        _write_outputs(cfg, summary, args.out)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    failed = sorted(k for k, v in summary["measurements"].items() if "error" in v)
    print(render_summary_text(summary))
    if failed:
        print(f"{len(failed)} measurement(s) failed: {', '.join(failed)}",
              file=sys.stderr)
        return EXIT_MEASUREMENT_FAILED
    return EXIT_OK


def cmd_report(args) -> int:
    path = os.path.join(args.out, "summary.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        text = render_summary_text(summary)
        with open(os.path.join(args.out, "summary.txt"), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    print(text)
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(f"configuration OK ({len(cfg.measurements)} measurement(s) requested)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixbench",
        description="Behavioral single-balanced mixer simulator and "
                    "measurement bench")
    parser.add_argument("--version", action="version",
                        version=f"mixbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured run")
    p_run.add_argument("--config", required=True, help="YAML config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--format", choices=("csv", "json"), default=None,
                       help="tabular output format (default from config)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario noise seed")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="regenerate summary.txt")
    p_report.add_argument("--out", required=True, help="existing output directory")
    p_report.set_defaults(func=cmd_report)

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("--config", required=True, help="YAML config file")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
