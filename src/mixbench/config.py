"""Run configuration: YAML parsing, defaults merging, scenario construction.

A config file describes one scenario plus the measurements to run on it.
Frequencies are given in Hz exactly as a user thinks about the design
(1.9 GHz RF, 1.8 GHz LO); the scaled internal grid is derived automatically
and reported in the run metadata.  Every omitted field falls back to the
built-in 65 nm calibration defaults, so an empty file is a complete run.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import yaml

from .devices import (
    BiasParams,
    LeakageParams,
    LoadParams,
    SwitchParams,
    TransconductorParams,
)
from .engine import FilterSpec, MixerParams, ScaledPlan, Scenario
from .errors import InsufficientBandwidthError, ValidationError
from .metrics import NoiseFigureSettings, noise_figure_setup, sweep_size
from .signals import ToneSpec, dbm_to_amplitude

ALL_MEASUREMENTS = ("cg", "p1db", "iip3", "isolation", "nf",
                    "harmonics", "transient", "power")

# Most samples either grid may hold: 2**23 float64 samples are 67 MB per
# signal, and a simulation keeps several signals of its grid alive.
MAX_GRID_SAMPLES = 2 ** 23

# Calibration defaults: 34 mA/V transconductor with a cubic term sized for a
# -11.5 dBm compression point, 220 ohm loads for 13.55 dB of small-signal
# gain, LO coupling sized for -37.7 dB isolation, and the 1.9/1.8/0.1 GHz
# frequency plan.
DEFAULTS: Dict[str, Any] = {
    "scenario": {
        "rf_hz": 1.9e9,
        "lo_hz": 1.8e9,
        "rf_power_dbm": -30.0,
        "rf_phase_rad": 0.0,
        "lo_amplitude_v": 1.0,
        "lo_phase_rad": None,  # null -> half-sample offset (recommended)
        "mixer": {
            "gm": 0.034,        # A/V
            "v_gs1": 0.6,       # V
            "a2": 0.0,          # A/V^2
            "a3": -0.696,       # A/V^3
            "rd": 220.0,        # ohm
            "vdd": 1.8,         # V
            "i_bias": 1.111e-3, # A
            "kappa": 0.01303,   # LO->RF voltage coupling
            "switch_mode": "ideal_sign",
            "switch_v_sw": 0.05,  # V, smooth-mode transition scale
        },
        "noise": {
            "seed": 1729,
            "input_density": 0.383e-9,  # V/sqrt(Hz)
            "bandwidth_hz": None,        # null -> white across the whole grid
        },
        "if_filter": {
            "enabled": True,
            "kind": "lowpass2",
            "cutoff_hz": 2.0e8,
        },
        "grid": {
            "bins_per_unit": 4,
            "samples_per_lo_period": 128,
        },
    },
    "measurements": list(ALL_MEASUREMENTS),
    "sweeps": {
        "p1db": {"start_dbm": -40.0, "stop_dbm": 0.0, "step_db": 0.5},
        # Tone spacing IF/4 keeps both IM3 products clear of the spurs the
        # cubic makes out of the tones and the leaked LO.
        "iip3": {"per_tone_dbm": -40.0, "tone_spacing_hz": 2.5e7},
        "nf": {
            "segments": 32,
            "band_width_hz": 1.5e8,
            "probe_power_dbm": -40.0,
            "grid": {"bins_per_unit": 2048, "samples_per_lo_period": 32},
        },
        "harmonics": {"order": 5},
        "transient": {"decimation": 1},
    },
    "output": {"format": "csv"},
}


def _merge(defaults: Any, override: Any, path: str) -> Any:
    """Field-wise merge of a user mapping onto the defaults tree.

    Unknown keys are rejected with their full path so typos surface early.
    """
    if isinstance(defaults, dict):
        if not isinstance(override, dict):
            raise ValidationError(f"config field {path or '<root>'} must be a mapping")
        merged = {}
        for key, default_value in defaults.items():
            if key in override:
                merged[key] = _merge(default_value, override[key],
                                     f"{path}.{key}" if path else key)
            else:
                merged[key] = copy.deepcopy(default_value)
        unknown = set(override) - set(defaults)
        if unknown:
            where = path or "<root>"
            raise ValidationError(
                f"unknown config key(s) {sorted(unknown)!r} under {where}")
        return merged
    return copy.deepcopy(override)


@dataclass(frozen=True)
class RunConfig:
    """Fully merged, validated run description."""

    raw: Dict[str, Any]

    @property
    def measurements(self) -> Tuple[str, ...]:
        return tuple(self.raw["measurements"])

    @property
    def output_format(self) -> str:
        return self.raw["output"]["format"]

    @property
    def seed(self) -> int:
        return int(self.raw["scenario"]["noise"]["seed"])

    def with_seed(self, seed: int) -> "RunConfig":
        raw = copy.deepcopy(self.raw)
        raw["scenario"]["noise"]["seed"] = _noise_seed(seed)
        return RunConfig(raw=raw)

    def with_output_format(self, fmt: str) -> "RunConfig":
        raw = copy.deepcopy(self.raw)
        raw["output"]["format"] = fmt
        return RunConfig(raw=raw)

    def parameter_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def effective_yaml(self) -> str:
        return yaml.safe_dump(self.raw, sort_keys=True, default_flow_style=False)


def from_dict(data: Optional[Dict[str, Any]]) -> RunConfig:
    """Merge a (possibly empty) user mapping onto the defaults and validate."""
    merged = _merge(DEFAULTS, data or {}, "")
    cfg = RunConfig(raw=merged)
    _validate(cfg)
    return cfg


def load_config(path: str) -> RunConfig:
    """Load a YAML config file; an empty file yields the full default run."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
    return _parse(text, f"config {path!r}")


def loads_config(text: str) -> RunConfig:
    """Parse YAML config text; empty text yields the full default run."""
    return _parse(text, "config")


def _parse(text: str, source: str) -> RunConfig:
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValidationError(f"cannot parse {source}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValidationError(f"{source} must be a mapping at top level")
    return from_dict(data)


def _validate(cfg: RunConfig):
    meas = cfg.raw["measurements"]
    if not isinstance(meas, (list, tuple)) or not meas:
        raise ValidationError("measurements must be a non-empty list")
    unknown = [m for m in meas if m not in ALL_MEASUREMENTS]
    if unknown:
        raise ValidationError(
            f"unknown measurement(s) {unknown!r}; choose from {ALL_MEASUREMENTS}")
    repeated = sorted({m for m in meas if meas.count(m) > 1})
    if repeated:
        raise ValidationError(f"measurements lists {repeated!r} more than once")
    fmt = cfg.raw["output"]["format"]
    if fmt not in ("csv", "json"):
        raise ValidationError(f"output format must be csv or json, got {fmt!r}")
    # Building the scenario runs the full coherence/Nyquist validation.
    scenario = build_scenario(cfg)
    if "nf" in meas:
        _validate_nf(cfg)
    if "iip3" in meas:
        iip3_tone_spacing_units(cfg)
        _power_dbm(cfg, "sweeps.iip3.per_tone_dbm")
    _validate_sweeps(cfg, scenario)


def _integer(value: Any, path: str) -> int:
    """``value`` as an int; ValidationError naming ``path`` unless it is a whole number."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValidationError(f"{path} must be a whole number, got {value!r}")


def _number(cfg: RunConfig, path: str, kind=float):
    """The config field at the dotted ``path`` as a finite ``kind`` (float or int).

    Bools, non-finite values and, for int, fractions are rejected with a
    ValidationError naming ``path``.
    """
    value = cfg.raw
    for key in path.split("."):
        value = value[key]
    if kind is int:
        return _integer(value, path)
    try:
        number = float(value)
        finite = math.isfinite(number) and not isinstance(value, bool)
    except (TypeError, ValueError, OverflowError):
        finite = False
    if not finite:
        raise ValidationError(f"{path} must be a finite number, got {value!r}")
    return number


def _power_dbm(cfg: RunConfig, path: str) -> float:
    """The RF power at ``path`` in dBm; its peak voltage must be a finite float."""
    power = _number(cfg, path)
    try:
        dbm_to_amplitude(power)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return power


def _noise_seed(value: Any) -> int:
    """``value`` as a noise seed: a non-negative whole number."""
    seed = _integer(value, "scenario.noise.seed")
    if seed < 0:
        raise ValidationError(f"scenario.noise.seed must be >= 0, got {seed!r}")
    return seed


def _validate_sweeps(cfg: RunConfig, scenario: Scenario):
    """Reject the sweep settings the requested measurements would fail on."""
    meas = cfg.measurements
    if "p1db" in meas:
        start = _number(cfg, "sweeps.p1db.start_dbm")
        stop = _number(cfg, "sweeps.p1db.stop_dbm")
        step = _number(cfg, "sweeps.p1db.step_db")
        if stop <= start:
            raise ValidationError(
                f"sweeps.p1db.stop_dbm ({stop!r}) must be above "
                f"sweeps.p1db.start_dbm ({start!r})")
        if not 0 < step <= stop - start:
            raise ValidationError(
                f"sweeps.p1db.step_db must be > 0 and at most the sweep span "
                f"{stop - start!r} dB, got {step!r}")
        try:
            sweep_size((start, stop), step)
        except ValidationError as exc:
            raise ValidationError(f"sweeps.p1db.step_db: {exc}") from exc
    if "harmonics" in meas:
        order = _number(cfg, "sweeps.harmonics.order", int)
        if order < 1:
            raise ValidationError(f"sweeps.harmonics.order must be >= 1, got {order!r}")
        if order * scenario.f_rf >= scenario.grid.nyquist:
            raise ValidationError(
                f"sweeps.harmonics.order {order!r} puts the RF tone's harmonic "
                f"at or above Nyquist")
    if "transient" in meas:
        decimation = _number(cfg, "sweeps.transient.decimation", int)
        if decimation < 1:
            raise ValidationError(
                f"sweeps.transient.decimation must be >= 1, got {decimation!r}")


def _validate_nf(cfg: RunConfig):
    """Reject the noise-figure settings the measurement would fail on."""
    scenario, settings = build_nf_setup(cfg)
    if not scenario.input_noise_density > 0:
        raise ValidationError(
            f"scenario.noise.input_density must be > 0 to measure nf, got "
            f"{scenario.input_noise_density!r}")
    try:
        noise_figure_setup(scenario, settings)
    except (ValidationError, InsufficientBandwidthError) as exc:
        raise ValidationError(
            f"sweeps.nf.segments {settings.segments!r} and sweeps.nf.band_width_hz "
            f"{cfg.raw['sweeps']['nf']['band_width_hz']!r} admit no noise reading "
            f"on the {scenario.grid.num_samples}-sample NF grid: {exc}") from exc


def _mixer_from(cfg: RunConfig) -> MixerParams:
    def number(key: str) -> float:
        return _number(cfg, f"scenario.mixer.{key}")

    return MixerParams(
        transconductor=TransconductorParams(gm=number("gm"), v_gs1=number("v_gs1"),
                                            a2=number("a2"), a3=number("a3")),
        switch=SwitchParams(mode=cfg.raw["scenario"]["mixer"]["switch_mode"],
                            v_sw=number("switch_v_sw")),
        load=LoadParams(rd=number("rd")),
        bias=BiasParams(vdd=number("vdd"), i_bias=number("i_bias")),
        leakage=LeakageParams(kappa=number("kappa")),
    )


def _plan_from(cfg: RunConfig, grid_path: str) -> ScaledPlan:
    """Plan of the grid section at ``grid_path``, capped at MAX_GRID_SAMPLES."""
    plan = ScaledPlan(
        f_rf_hz=_number(cfg, "scenario.rf_hz"), f_lo_hz=_number(cfg, "scenario.lo_hz"),
        bins_per_unit=_number(cfg, f"{grid_path}.bins_per_unit", int),
        samples_per_lo_period=_number(cfg, f"{grid_path}.samples_per_lo_period", int))
    if plan.num_samples > MAX_GRID_SAMPLES:
        raise ValidationError(
            f"{grid_path}.bins_per_unit {plan.bins_per_unit} and "
            f"{grid_path}.samples_per_lo_period {plan.samples_per_lo_period} "
            f"give a grid of {plan.num_samples} samples, above the cap of "
            f"{MAX_GRID_SAMPLES}")
    return plan


def _scenario_on_plan(cfg: RunConfig, plan: ScaledPlan) -> Scenario:
    sc = cfg.raw["scenario"]
    rf_tone = ToneSpec(frequency=float(plan.rf_bin),
                       power_dbm=_power_dbm(cfg, "scenario.rf_power_dbm"),
                       phase=_number(cfg, "scenario.rf_phase_rad"))
    lo_tone = ToneSpec(frequency=float(plan.lo_bin),
                       amplitude=_number(cfg, "scenario.lo_amplitude_v"),
                       phase=_number(cfg, "scenario.lo_phase_rad")
                       if sc["lo_phase_rad"] is not None
                       else plan.lo_half_sample_phase())
    band = None
    if sc["noise"]["bandwidth_hz"] is not None:
        band = (0.0, _number(cfg, "scenario.noise.bandwidth_hz") / plan.hz_per_unit)
    if_filter = None
    filt = sc["if_filter"]
    if filt["enabled"]:
        if_filter = FilterSpec(
            kind=filt["kind"],
            cutoff=_number(cfg, "scenario.if_filter.cutoff_hz") / plan.hz_per_unit)
    return Scenario(
        mixer=_mixer_from(cfg),
        grid=plan.grid(),
        rf_tones=(rf_tone,),
        lo_tone=lo_tone,
        noise_seed=_noise_seed(sc["noise"]["seed"]),
        input_noise_density=_number(cfg, "scenario.noise.input_density"),
        input_noise_band=band,
        if_filter=if_filter,
        frequency_scale=plan.hz_per_unit,
    )


def build_plan(cfg: RunConfig) -> ScaledPlan:
    return _plan_from(cfg, "scenario.grid")


def build_scenario(cfg: RunConfig) -> Scenario:
    """Main scenario on the metrics grid."""
    return _scenario_on_plan(cfg, build_plan(cfg))


def build_nf_setup(cfg: RunConfig) -> Tuple[Scenario, NoiseFigureSettings]:
    """Scenario and band settings for the noise-figure measurement.

    The noise measurement needs many periodogram bins per band, so it runs
    on its own, longer grid with the same mixer and frequency plan.
    """
    plan = _plan_from(cfg, "sweeps.nf.grid")
    scenario = _scenario_on_plan(cfg, plan)
    width = _number(cfg, "sweeps.nf.band_width_hz") / plan.hz_per_unit
    settings = NoiseFigureSettings(
        input_band_width=width,
        output_band_width=width,
        segments=_number(cfg, "sweeps.nf.segments", int),
        probe_power_dbm=_power_dbm(cfg, "sweeps.nf.probe_power_dbm"),
    )
    return scenario, settings


def iip3_tone_spacing_units(cfg: RunConfig) -> float:
    """The IIP3 tone spacing in internal grid units; it must fall on a bin."""
    spacing_hz = _number(cfg, "sweeps.iip3.tone_spacing_hz")
    return build_plan(cfg).to_internal(spacing_hz, "sweeps.iip3.tone_spacing_hz")
