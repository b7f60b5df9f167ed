"""Run configuration: YAML parsing, defaults merging, scenario construction.

A config file describes one scenario plus the measurements to run on it.
Frequencies are given in Hz exactly as a user thinks about the design
(1.9 GHz RF, 1.8 GHz LO); the scaled internal grid is derived automatically
and reported in the run metadata.  Every omitted field falls back to the
built-in 65 nm calibration defaults, so an empty file is a complete run.

Loading checks only the tree's structure.  Each field is read, and checked,
by the builder that uses it; ``cli.prepare`` calls those builders for every
requested measurement before anything is simulated.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Optional, Tuple

import yaml

from .devices import (
    BiasParams,
    LeakageParams,
    LoadParams,
    SwitchParams,
    TransconductorParams,
)
from .engine import (
    FilterSpec,
    MixerParams,
    ScaledPlan,
    Scenario,
    check_if_filter,
    plan_ratio,
)
from .errors import MixbenchError, ValidationError
from .metrics import NoiseFigureSettings
from .signals import ToneSpec, dbm_to_amplitude

ALL_MEASUREMENTS = ("cg", "p1db", "iip3", "isolation", "nf",
                    "harmonics", "transient", "power")

# Most samples either grid may hold: 2**23 float64 samples are 67 MB per
# signal, and a simulation keeps several signals of its grid alive.
MAX_GRID_SAMPLES = 2 ** 23

# libyaml's safe dumper, which writes the pure-Python one's bytes about
# four times faster; the pure-Python one where PyYAML was built without it.
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

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


def _at(tree: Dict[str, Any], path: str) -> Any:
    for key in path.split("."):
        tree = tree[key]
    return tree


def _like(default: Any, value: Any) -> Any:
    """``value`` as its default's number type (null: float) where it reads as one.

    So ``1900000000``, ``1.9e9`` (a string to PyYAML) and ``1.9e+9`` give one
    ``parameter_sha256``; an int field keeps the string ``'1.5e3'``, and rejects it.
    """
    kind = float if default is None else type(default)
    if kind is float and type(value) in (int, str):
        try:
            return float(value)
        except (ValueError, OverflowError):  # not a number, or an int past float range
            return value
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    return value


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
    return _like(defaults, copy.deepcopy(override))


@contextmanager
def naming(path: str):
    """Re-raise what the block rejects as a ValidationError naming the field ``path``.

    The block decides from config values only, never from simulated ones.
    """
    try:
        yield
    except (MixbenchError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Defaults-merged run description; :meth:`number` reads and checks a field."""

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
        raw["scenario"]["noise"]["seed"] = seed
        return RunConfig(raw=raw)

    def with_output_format(self, fmt: str) -> "RunConfig":
        raw = copy.deepcopy(self.raw)
        raw["output"]["format"] = fmt
        return RunConfig(raw=raw)

    def parameter_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def effective_yaml(self) -> str:
        """``raw`` as YAML, sorted and in block style, by libyaml where present."""
        return yaml.dump(self.raw, Dumper=_DUMPER, sort_keys=True,
                         default_flow_style=False)

    def number(self, path: str, kind=float, *, above: Optional[float] = None,
               at_least: Optional[float] = None):
        """The field at the dotted ``path`` as a finite ``kind`` (float or int).

        A bool, a non-finite value, a fraction for int, or a value not
        ``above`` or ``at_least`` a given bound raises a ValidationError
        naming ``path``.  A field with a null default may be None.
        """
        value = _at(self.raw, path)
        if value is None and _at(DEFAULTS, path) is None:
            return None
        # Merging already stored each number as its field's type (see _like).
        if kind is int and type(value) is not int:
            raise ValidationError(f"{path} must be a whole number, got {value!r}")
        if kind is float and not (type(value) is float and math.isfinite(value)):
            raise ValidationError(f"{path} must be a finite number, got {value!r}")
        if above is not None and not value > above:
            raise ValidationError(f"{path} must be > {above}, got {value!r}")
        if at_least is not None and not value >= at_least:
            raise ValidationError(f"{path} must be >= {at_least}, got {value!r}")
        return value

    def power_dbm(self, path: str) -> float:
        """The RF power at ``path`` in dBm; its peak voltage must be a finite float."""
        power = self.number(path)
        with naming(path):
            dbm_to_amplitude(power)
        return power

    @cached_property
    def plan(self) -> ScaledPlan:
        """Plan of the main grid, built on first read."""
        return _plan_from(self, "scenario.grid")


def from_dict(data: Optional[Dict[str, Any]]) -> RunConfig:
    """Merge a user mapping onto the defaults; check the measurements and format."""
    cfg = RunConfig(raw=_merge(DEFAULTS, data or {}, ""))
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
    fmt = cfg.output_format
    if fmt not in ("csv", "json"):
        raise ValidationError(f"output format must be csv or json, got {fmt!r}")
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


def _mixer_from(cfg: RunConfig) -> MixerParams:
    def number(key: str) -> float:
        return cfg.number(f"scenario.mixer.{key}")

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
    f_rf_hz, f_lo_hz = cfg.number("scenario.rf_hz"), cfg.number("scenario.lo_hz")
    with naming("scenario.rf_hz and scenario.lo_hz"):
        plan_ratio(f_rf_hz, f_lo_hz)
    plan = ScaledPlan(
        f_rf_hz=f_rf_hz, f_lo_hz=f_lo_hz,
        bins_per_unit=cfg.number(f"{grid_path}.bins_per_unit", int),
        samples_per_lo_period=cfg.number(f"{grid_path}.samples_per_lo_period", int))
    if plan.num_samples > MAX_GRID_SAMPLES:
        raise ValidationError(
            f"{grid_path}.bins_per_unit {plan.bins_per_unit} and "
            f"{grid_path}.samples_per_lo_period {plan.samples_per_lo_period} "
            f"give a grid of {plan.num_samples} samples, above the cap of "
            f"{MAX_GRID_SAMPLES}")
    return plan


def _scenario_on_plan(cfg: RunConfig, plan: ScaledPlan) -> Scenario:
    lo_phase = cfg.number("scenario.lo_phase_rad")
    rf_tone = ToneSpec(frequency=float(plan.rf_bin),
                       power_dbm=cfg.power_dbm("scenario.rf_power_dbm"),
                       phase=cfg.number("scenario.rf_phase_rad"))
    lo_tone = ToneSpec(frequency=float(plan.lo_bin),
                       amplitude=cfg.number("scenario.lo_amplitude_v"),
                       phase=plan.lo_half_sample_phase() if lo_phase is None else lo_phase)
    band = cfg.number("scenario.noise.bandwidth_hz", above=0)
    filt = cfg.raw["scenario"]["if_filter"]
    if not isinstance(filt["enabled"], bool):
        raise ValidationError(
            f"scenario.if_filter.enabled must be true or false, got {filt['enabled']!r}")
    if_filter = None
    if filt["enabled"]:
        if_filter = FilterSpec(
            kind=filt["kind"],
            cutoff=cfg.number("scenario.if_filter.cutoff_hz", above=0) / plan.hz_per_unit)
        with naming("scenario.if_filter.cutoff_hz"):
            check_if_filter(if_filter, plan.grid())
    return Scenario(
        mixer=_mixer_from(cfg),
        grid=plan.grid(),
        rf_tones=(rf_tone,),
        lo_tone=lo_tone,
        noise_seed=cfg.number("scenario.noise.seed", int, at_least=0),
        input_noise_density=cfg.number("scenario.noise.input_density", at_least=0),
        input_noise_band=None if band is None else (0.0, band / plan.hz_per_unit),
        if_filter=if_filter,
        frequency_scale=plan.hz_per_unit,
    )


def build_scenario(cfg: RunConfig) -> Scenario:
    """Main scenario on the metrics grid."""
    return _scenario_on_plan(cfg, cfg.plan)


def build_nf_setup(cfg: RunConfig) -> Tuple[Scenario, NoiseFigureSettings]:
    """Scenario and band settings for the noise-figure measurement.

    The noise measurement needs many periodogram bins per band, so it runs
    on its own, longer grid with the same mixer and frequency plan.
    """
    plan = _plan_from(cfg, "sweeps.nf.grid")
    scenario = _scenario_on_plan(cfg, plan)
    width = cfg.number("sweeps.nf.band_width_hz") / plan.hz_per_unit
    settings = NoiseFigureSettings(
        input_band_width=width,
        output_band_width=width,
        segments=cfg.number("sweeps.nf.segments", int),
        probe_power_dbm=cfg.power_dbm("sweeps.nf.probe_power_dbm"),
    )
    return scenario, settings

