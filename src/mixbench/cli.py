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

Every measurement runs through one table, ``REGISTRY``, in two steps:
``prepare`` reads and checks every config field it uses and builds all it
needs without simulating, and ``measure`` simulates, reads and writes.
``validate`` and ``run`` (before it writes anything) both call
:func:`prepare`, so they reject the same configs with exit 2; a failure
that depends on simulated values fails only its own measurement.

CSV tables write every cell ``%.12g``: a small table is one ``%`` over a
line template (:func:`_csv_text`), and the two transient tables, thousands
of rows each, are laid out with the same bytes by numpy
(:func:`emit_transient`).  Outputs contain no timestamps, so identical
configs produce byte-identical files.

Gain, compression, intercept and isolation read the noise-free mixer: the
engine reads their rays on the deterministic pump, whatever noise the
scenario carries.  The configured noise is drawn only for the harmonic
and transient outputs.  The noise figure draws none: it reads the configured
density through the mixer's periodic small-signal gain, so the seed does
not move it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from ._float_text import FIELD_BYTES, float_fields
from .config import (
    OUTPUT_FORMATS,
    RunConfig,
    build_nf_setup,
    build_scenario,
    load_config,
    naming,
)
from .devices import _check_compression, dc_power
from .engine import DriveCubic, Scenario, TransientResult, analytic_conversion_gain, simulate
from .errors import MixbenchError, NonFiniteReadingError, ValidationError
from .metrics import (
    REFERENCE_65NM,
    NoiseFigureSettings,
    _gain_cubic,
    check_drive,
    check_lo_drive,
    measure_conversion_gain,
    measure_iip3,
    measure_isolation,
    measure_p1db,
    noise_figure_setup,
    periodic_noise_figure,
    reference_formula_noise_figure,
    sweep_size,
    two_tone_rays,
    two_tone_variant,
)
from .signals import check_harmonic_order, dbm_to_amplitude, harmonic_table

EXIT_OK = 0
EXIT_MEASUREMENT_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_IO_ERROR = 3

_BLOCK_ROWS = 4096  # rows of a transient CSV table laid out at once


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _json_text(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _write_table(path: str, header: Sequence[str], rows: Sequence[Sequence],
                 fmt: str) -> str:
    if fmt == "json":
        path = path + ".json"
        _write_text(path, _json_text([dict(zip(header, map(_json_safe, row)))
                                      for row in rows]))
    else:
        path = path + ".csv"
        _write_text(path, _csv_text(header, tuple(chain.from_iterable(rows)), len(rows)))
    return path


def _csv_text(header: Sequence[str], cells: tuple, rows: int) -> str:
    """CSV text of ``header`` and ``rows`` rows of row-major numeric ``cells``.

    Every cell is written ``%.12g``; for an int below 1e12, such as a
    harmonic index, that is its ``str``.  The whole text is one ``%`` over
    a header and a repeated line template.
    """
    width = len(header)
    if len(cells) != width * rows:
        raise ValueError(f"every row of the table must have {width} cells")
    # A header '%' stays literal through the '%'.
    head = ",".join(header).replace("%", "%%")
    line = ",".join(["%.12g"] * width) + "\n"
    return (head + "\n" + line * rows) % cells


def _csv_lines(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The bytes of the CSV lines ``left,right`` of two columns of :func:`float_fields`."""
    rows = np.empty((len(left), 2 * FIELD_BYTES + 2), dtype=np.uint8)
    rows[:, :FIELD_BYTES] = left
    rows[:, FIELD_BYTES] = ord(",")
    rows[:, FIELD_BYTES + 1:-1] = right
    rows[:, -1] = ord("\n")
    flat = rows.ravel()
    return flat[flat != 0]


def emit_transient(result: TransientResult, out_dir: str, decimation: int = 1,
                   fmt: str = "csv") -> List[str]:
    """Write (time, value) tables for the output voltage waveforms.

    Times are in seconds of the physical frequency plan.  ``decimation``
    keeps every d-th sample.  A CSV table holds the bytes :func:`_csv_text`
    would write, ``%.12g`` of every cell, without a ``%`` per cell:
    :func:`float_fields` lays each cell out in a NUL-padded field, and the
    table is written ``_BLOCK_ROWS`` rows at a time, each block's NULs
    dropped at once.  The time column's fields are laid out once, for both
    tables.  A JSON table is written by :func:`_write_table`.
    """
    if decimation < 1:
        raise ValidationError(f"decimation must be >= 1, got {decimation}")
    scale = result.scenario.frequency_scale
    grid = result.scenario.grid
    times = np.arange(0, grid.num_samples, decimation) / grid.sample_rate / scale
    if fmt == "csv":
        blocks = [slice(start, start + _BLOCK_ROWS)
                  for start in range(0, times.size, _BLOCK_ROWS)]
        time_fields = [float_fields(times[block]) for block in blocks]
    else:
        time_cells = times.tolist()
    written = []
    targets = [("transient_vout", result.v_out)]
    if result.v_out_filtered is not None:
        targets.append(("transient_vout_filtered", result.v_out_filtered))
    for name, signal in targets:
        path = os.path.join(out_dir, name)
        values = signal.samples[::decimation]
        if fmt == "csv":
            written.append(path + ".csv")
            with open(written[-1], "wb") as fh:
                fh.write(b"time_s,voltage_v\n")
                for block, fields in zip(blocks, time_fields):
                    fh.write(_csv_lines(fields, float_fields(values[block])))
        else:
            written.append(_write_table(path, ("time_s", "voltage_v"),
                                        list(zip(time_cells, values.tolist())), fmt))
    return written


@dataclass
class RunContext:
    """What every registry step reads: config, main scenario and output target.

    ``transient`` simulates ``scenario`` on first read, so harmonics and
    transient share one simulation; ``if_cubic``, the drive cubic of its
    IF ray, is built on first read, so cg and p1db share one.  ``out_dir``
    is None when the run is only validated.
    """

    cfg: RunConfig
    scenario: Scenario
    out_dir: Optional[str] = None

    @cached_property
    def transient(self) -> TransientResult:
        return simulate(self.scenario)

    @cached_property
    def if_cubic(self) -> DriveCubic:
        return _gain_cubic(self.scenario, self.scenario.f_if)

    def write_table(self, name: str, header: Sequence[str], rows: Sequence[Sequence]):
        _write_table(os.path.join(self.out_dir, name), header, rows, self.cfg.output_format)


def _check_gain_drive(path: str, power_dbm: float):
    """Raise naming ``path`` if an RF tone at ``power_dbm`` is too quiet to read a gain over."""
    if power_dbm < 0:  # only a negative power's peak voltage can underflow to 0
        with naming(path):
            check_drive(dbm_to_amplitude(power_dbm))


@contextmanager
def _naming_refused(field: Callable[[float], str]):
    """Name ``field(power_dbm)``, the config field of a refused drive's power, in its error."""
    try:
        yield
    except NonFiniteReadingError as exc:
        if exc.power_dbm is None:
            raise
        raise NonFiniteReadingError(f"{exc} ({field(exc.power_dbm)})", exc.power_dbm) from exc


def _cg_inputs(run: RunContext) -> None:
    _check_gain_drive("scenario.rf_power_dbm", run.cfg.field("scenario.rf_power_dbm"))


def _cg(run: RunContext, _inputs: None) -> Dict:
    with _naming_refused(lambda _p: "scenario.rf_power_dbm"):
        gain = measure_conversion_gain(run.scenario, _cubic=run.if_cubic)
    analytic = analytic_conversion_gain(run.scenario.mixer)
    ref = REFERENCE_65NM.conversion_gain_db
    run.write_table("cg", ("measured_gain_db", "analytic_gain_db", "reference_gain_db"),
                    [(gain, analytic, ref)])
    return {"value_db": gain, "analytic_db": analytic, "reference_db": ref}


def _p1db_inputs(run: RunContext) -> Tuple[Tuple[float, float], float]:
    start, stop, step = (run.cfg.field(f"sweeps.p1db.{key}")
                         for key in ("start_dbm", "stop_dbm", "step_db"))
    with naming("sweeps.p1db.start_dbm, sweeps.p1db.stop_dbm and sweeps.p1db.step_db"):
        sweep_size((start, stop), step)
    _check_gain_drive("sweeps.p1db.start_dbm", start)  # the sweep's quietest point
    with naming("scenario.mixer.a3"):
        _check_compression(run.scenario.mixer.transconductor)
    return (start, stop), step


def _p1db(run: RunContext, inputs: Tuple[Tuple[float, float], float]) -> Dict:
    start = inputs[0][0]  # any later point is on the way to the stop
    with _naming_refused(lambda p: "sweeps.p1db.start_dbm" if p == start
                         else "sweeps.p1db.stop_dbm"):
        res = measure_p1db(run.scenario, *inputs, _cubic=run.if_cubic)
    run.write_table("p1db_sweep", ("input_power_dbm", "output_power_dbm", "gain_db"),
                    tuple(zip(*res.columns)))
    return {"value_dbm": res.p1db_dbm,
            "small_signal_gain_db": res.small_signal_gain_db,
            "reference_dbm": REFERENCE_65NM.p1db_dbm,
            "exact_dbm": res.exact_dbm,
            "interpolation_gap_db": res.p1db_dbm - res.exact_dbm}


def _iip3_inputs(run: RunContext) -> Tuple[Scenario, float]:
    field = "sweeps.iip3.tone_spacing_hz"
    spacing = run.cfg.plan.to_internal(run.cfg.field(field), field)
    per_tone = run.cfg.field("sweeps.iip3.per_tone_dbm")
    with naming(field):
        two = two_tone_variant(run.scenario, spacing)
        two_tone_rays(two)
    return two, per_tone


def _iip3(run: RunContext, inputs: Tuple[Scenario, float]) -> Dict:
    with _naming_refused(lambda _p: "sweeps.iip3.per_tone_dbm"):  # hot and cold drive
        res = measure_iip3(*inputs)
    run.write_table("iip3", ("per_tone_dbm", "p_fund_dbm", "p_im3_dbm", "delta_db",
                             "iip3_dbm"),
                    [(res.per_tone_dbm, res.p_fund_dbm, res.p_im3_dbm, res.delta_db,
                      res.iip3_dbm)])
    return {"value_dbm": res.iip3_dbm, "delta_db": res.delta_db,
            "p_fund_dbm": res.p_fund_dbm, "p_im3_dbm": res.p_im3_dbm,
            "per_tone_dbm": res.per_tone_dbm, "reference_dbm": REFERENCE_65NM.iip3_dbm}


def _isolation_inputs(run: RunContext) -> None:
    with naming("scenario.lo_amplitude_v"):
        check_lo_drive(run.cfg.field("scenario.lo_amplitude_v"))


def _isolation(run: RunContext, _inputs: None) -> Dict:
    iso = measure_isolation(run.scenario)
    run.write_table("isolation", ("isolation_db",), [(iso,)])
    return {"value_db": iso}


def _nf_inputs(run: RunContext) -> Tuple[Scenario, NoiseFigureSettings, Tuple]:
    scenario, settings = build_nf_setup(run.cfg)
    _check_gain_drive("sweeps.nf.probe_power_dbm", settings.probe_power_dbm)
    with naming("scenario.noise.input_density, scenario.noise.bandwidth_hz, "
                "sweeps.nf.segments and sweeps.nf.band_width_hz"):
        return scenario, settings, noise_figure_setup(scenario, settings)


def _nf(run: RunContext, inputs: Tuple[Scenario, NoiseFigureSettings, Tuple]) -> Dict:
    scenario, settings, setup = inputs
    with _naming_refused(lambda _p: "sweeps.nf.probe_power_dbm"):
        res = periodic_noise_figure(scenario, settings, _setup=setup)
    formula = reference_formula_noise_figure()
    ref = REFERENCE_65NM.noise_figure_db
    run.write_table("nf", ("nf_db", "input_density_v_rthz", "output_density_v_rthz",
                           "gain_db", "reference_formula_db"),
                    [(res.nf_db, res.input_density, res.output_density, res.gain_db,
                      formula)])
    return {"value_db": res.nf_db, "input_density_v_rthz": res.input_density,
            "output_density_v_rthz": res.output_density, "gain_db": res.gain_db,
            "reference_db": ref, "reference_formula_db": formula,
            "reference_gap_db": ref - formula}


def _harmonics_inputs(run: RunContext) -> int:
    order = run.cfg.field("sweeps.harmonics.order")
    with naming("sweeps.harmonics.order"):  # f_rf is the higher fundamental
        check_harmonic_order(run.scenario.grid, run.scenario.f_rf, order)
    return order


def _harmonics(run: RunContext, order: int) -> Dict:
    scenario, transient = run.scenario, run.transient
    tables = {}
    for name, signal, fundamental in (
            ("harmonics_rf", transient.v_rf_port, scenario.f_rf),
            ("harmonics_out", transient.v_out, scenario.f_if)):
        lines = harmonic_table(signal, fundamental, order)
        run.write_table(name, ("harmonic", "frequency_hz", "amplitude_v", "power_dbm"),
                        [(k + 1, scenario.to_hz(line.frequency), line.amplitude,
                          line.power_dbm) for k, line in enumerate(lines)])
        tables[name] = {"order": order, "fundamental_hz": scenario.to_hz(fundamental)}
    return tables


def _transient_inputs(run: RunContext) -> int:
    return run.cfg.field("sweeps.transient.decimation")


def _transient(run: RunContext, decimation: int) -> Dict:
    paths = emit_transient(run.transient, run.out_dir, decimation, run.cfg.output_format)
    return {"files": [os.path.basename(p) for p in paths],
            "rows": len(range(0, run.scenario.grid.num_samples, decimation))}


def _power_inputs(run: RunContext) -> float:
    p = dc_power(run.scenario.mixer.bias)
    if not math.isfinite(p):
        raise ValidationError(f"scenario.mixer.vdd and scenario.mixer.i_bias: "
                              f"DC power {p!r} W is past the float range")
    return p


def _power(run: RunContext, p: float) -> Dict:
    run.write_table("power", ("power_w", "reference_power_w"),
                    [(p, REFERENCE_65NM.power_w)])
    return {"value_w": p, "reference_w": REFERENCE_65NM.power_w}


# Every measurement in config.ALL_MEASUREMENTS order: its name; its prepare
# step, which checks the config and returns the measure step's inputs
# without simulating; its measure step, which simulates,
# writes tables and returns the summary.json entry; and its summary.txt row
# (label, value key, unit, reference key), or None for no row.  Steps call
# the library through this module's globals, which the benchmark's layer
# trace rebinds, so the table holds no library function.
REGISTRY = (
    ("cg", _cg_inputs, _cg, ("conversion gain", "value_db", "dB", "reference_db")),
    ("p1db", _p1db_inputs, _p1db,
     ("1 dB compression", "value_dbm", "dBm", "reference_dbm")),
    ("iip3", _iip3_inputs, _iip3, ("IIP3", "value_dbm", "dBm", "reference_dbm")),
    ("isolation", _isolation_inputs, _isolation, ("LO->RF isolation", "value_db", "dB", None)),
    ("nf", _nf_inputs, _nf, ("noise figure", "value_db", "dB", "reference_db")),
    ("harmonics", _harmonics_inputs, _harmonics, None),
    ("transient", _transient_inputs, _transient, None),
    ("power", _power_inputs, _power, ("DC power", "value_w", "W", "reference_w")),
)


def prepare(cfg: RunConfig, out_dir: Optional[str] = None
            ) -> Tuple[RunContext, Dict[str, Any]]:
    """The run's context and each requested entry's inputs, without simulating.

    Raises a ValidationError naming the field for any config ``run`` rejects.
    """
    cfg.field("output.format")  # every table is written in it
    run = RunContext(cfg, build_scenario(cfg), out_dir)
    return run, {name: prepare_entry(run) for name, prepare_entry, _measure, _row in REGISTRY
                 if name in cfg.measurements}


def _measure(run: RunContext, inputs: Dict[str, Any]) -> Dict:
    """Run every prepared measurement and return the summary dict.

    A measurement that fails records its error in place of its entry and
    the others still run.
    """
    results: Dict[str, Dict] = {}
    for name, _prepare, measure, _row in REGISTRY:
        if name not in inputs:
            continue
        try:
            results[name] = measure(run, inputs[name])
        except (MixbenchError, ValueError) as exc:
            results[name] = {"error": f"{type(exc).__name__}: {exc}"}
    plan = run.cfg.plan
    ref = REFERENCE_65NM
    return {
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
            "rf_hz": plan.f_rf_hz,
            "lo_hz": plan.f_lo_hz,
            "if_hz": plan.f_rf_hz - plan.f_lo_hz,
            "internal_ratio": list(plan.ratio),
        },
    }


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
    for key, _prepare, _measure, row in REGISTRY:
        if row is None or key not in meas:
            continue
        label, value_key, unit, ref_key = row
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
        lines.append(f"transient waveforms written ({meas['transient']['rows']} rows)")
    errors = {k: v["error"] for k, v in meas.items() if "error" in v}
    if errors:
        lines.append("")
        lines.append("failed measurements:")
        for name in sorted(errors):
            lines.append(f"  {name}: {errors[name]}")
    lines.append("")
    return "\n".join(lines)


def _write_outputs(cfg: RunConfig, summary: Dict, out_dir: str) -> str:
    """Write the run's summaries, metadata and config; return the summary.txt text."""
    plan = cfg.plan
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
    summary_text = render_summary_text(summary)
    for name, text in (("summary.json", _json_text(_json_safe(summary))),
                       ("summary.txt", summary_text),
                       ("metadata.json", _json_text(metadata)),
                       ("effective_config.yaml", cfg.effective_yaml())):
        _write_text(os.path.join(out_dir, name), text)
    return summary_text


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        for path, value in (("scenario.noise.seed", args.seed), ("output.format", args.format)):
            if value is not None:
                cfg = cfg.with_field(path, value)
        run, inputs = prepare(cfg, args.out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        os.makedirs(args.out, exist_ok=True)
        summary = _measure(run, inputs)
        summary_text = _write_outputs(cfg, summary, args.out)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    failed = sorted(k for k, v in summary["measurements"].items() if "error" in v)
    print(summary_text)
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
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    # A file that is not JSON, or JSON without the layout a run writes.
    except (ValueError, LookupError, TypeError, AttributeError, ArithmeticError,
            RecursionError) as exc:
        print(f"I/O error: cannot render {path}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_IO_ERROR
    try:
        _write_text(os.path.join(args.out, "summary.txt"), text)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    print(text)
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
        prepare(cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(f"configuration OK ({len(cfg.measurements)} measurement(s) requested)")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it is."""
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
    p_run.add_argument("--format", choices=OUTPUT_FORMATS, default=None,
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
