"""Run configuration: YAML parsing, defaults merging, scenario construction.

A config file describes one scenario plus the measurements to run on it.
Frequencies are given in Hz exactly as a user thinks about the design
(1.9 GHz RF, 1.8 GHz LO); the scaled internal grid is derived automatically
and reported in the run metadata.  Every omitted field falls back to the
built-in 65 nm calibration defaults, so an empty file is a complete run.

Loading checks only the tree's structure.  :data:`FIELDS` gives each leaf's
default and range; the builder that uses a leaf reads, and checks, it with
:meth:`RunConfig.field`.  ``cli.prepare`` calls those builders for every
requested measurement before anything is simulated.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import operator
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Any, Callable, Dict, Optional, Tuple

import yaml

from .devices import (
    SWITCH_MODES,
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
    check_lo_phase,
    plan_ratio,
)
from .errors import MixbenchError, ValidationError
from .metrics import NoiseFigureSettings
from .signals import ToneSpec, check_noise_band, dbm_to_amplitude

ALL_MEASUREMENTS = ("cg", "p1db", "iip3", "isolation", "nf",
                    "harmonics", "transient", "power")
OUTPUT_FORMATS = ("csv", "json")

# Most samples either grid may hold: 2**23 float64 samples are 67 MB per
# signal, and a simulation keeps several signals of its grid alive.
MAX_GRID_SAMPLES = 2 ** 23

# libyaml's safe loader and dumper, which read the pure-Python ones' trees
# and write their bytes several times faster; the pure-Python ones where
# PyYAML was built without libyaml.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# Marks a power in dBm whose peak voltage must be a finite float.
DBM = "dbm"

# One row per config leaf: (dotted path, default, limit).  The leaf's kind
# is its default's type (null: a float or null); the limit is a bound such
# as ">= 0 and < 1", the allowed strings, or DBM.  The defaults calibrate a
# 34 mA/V transconductor with a cubic term for a -11.5 dBm compression
# point, 220 ohm loads for 13.55 dB of gain, LO coupling for -37.7 dB
# isolation, and the 1.9/1.8/0.1 GHz frequency plan.
FIELDS: Tuple[Tuple[str, Any, Any], ...] = (
    ("scenario.rf_hz", 1.9e9, None),
    ("scenario.lo_hz", 1.8e9, None),
    ("scenario.rf_power_dbm", -30.0, DBM),
    ("scenario.rf_phase_rad", 0.0, "> -1000 and < 1000"),  # a larger phase swamps each step
    ("scenario.lo_amplitude_v", 1.0, ">= 0"),
    ("scenario.lo_phase_rad", None, "> -1000 and < 1000"),  # null -> half-sample offset
    ("scenario.mixer.gm", 0.034, "> 0"),  # A/V
    ("scenario.mixer.v_gs1", 0.6, None),  # V
    ("scenario.mixer.a2", 0.0, None),  # A/V^2
    ("scenario.mixer.a3", -0.696, None),  # A/V^3
    ("scenario.mixer.rd", 220.0, "> 0"),  # ohm
    ("scenario.mixer.vdd", 1.8, "> 0"),  # V
    ("scenario.mixer.i_bias", 1.111e-3, ">= 0"),  # A
    ("scenario.mixer.kappa", 0.01303, ">= 0 and < 1"),  # LO->RF voltage coupling
    ("scenario.mixer.switch_mode", "ideal_sign", SWITCH_MODES),
    ("scenario.mixer.switch_v_sw", 0.05, None),  # V, smooth-mode transition scale
    ("scenario.noise.seed", 1729, ">= 0"),
    ("scenario.noise.input_density", 0.383e-9, ">= 0"),  # V/sqrt(Hz)
    ("scenario.noise.bandwidth_hz", None, "> 0"),  # null -> white across the whole grid
    ("scenario.if_filter.enabled", True, None),
    ("scenario.if_filter.kind", "lowpass2", ("lowpass2",)),
    ("scenario.if_filter.cutoff_hz", 2.0e8, "> 0"),
    ("scenario.grid.bins_per_unit", 4, ">= 1"),
    ("scenario.grid.samples_per_lo_period", 128, ">= 8"),  # and a multiple of 4
    ("sweeps.p1db.start_dbm", -40.0, DBM),
    ("sweeps.p1db.stop_dbm", 0.0, DBM),
    ("sweeps.p1db.step_db", 0.5, None),
    # Tone spacing IF/4 keeps both IM3 products clear of the spurs the
    # cubic makes out of the tones and the leaked LO.
    ("sweeps.iip3.per_tone_dbm", -40.0, DBM),
    ("sweeps.iip3.tone_spacing_hz", 2.5e7, "> 0"),
    ("sweeps.nf.segments", 32, ">= 4"),
    ("sweeps.nf.band_width_hz", 1.5e8, "> 0"),
    ("sweeps.nf.probe_power_dbm", -40.0, DBM),
    ("sweeps.nf.grid.bins_per_unit", 2048, ">= 1"),
    ("sweeps.nf.grid.samples_per_lo_period", 32, ">= 8"),
    ("sweeps.harmonics.order", 5, ">= 1"),
    ("sweeps.transient.decimation", 1, ">= 1"),
    ("output.format", "csv", OUTPUT_FORMATS),
)
_ROWS = {path: (default, limit) for path, default, limit in FIELDS}


DEFAULTS: Dict[str, Any] = {"measurements": list(ALL_MEASUREMENTS)}
for _path, _default, _ in FIELDS:
    *_sections, _leaf = _path.split(".")
    reduce(lambda node, key: node.setdefault(key, {}), _sections, DEFAULTS)[_leaf] = _default

# What a leaf of each kind holds (merging stored numbers as their kind).
_KINDS = {float: "a finite number", int: "a whole number", bool: "true or false"}
_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt}


def _bounds(limit: str) -> Tuple[Tuple[Callable, float], ...]:
    """``(comparison, bound)`` of each term of a bound such as ``">= 0 and < 1"``."""
    return tuple((_COMPARE[op], float(bound))
                 for op, bound in (term.split() for term in limit.split(" and ")))


def _kind(default: Any) -> type:
    return float if default is None else type(default)


def _like(default: Any, value: Any) -> Any:
    """``value`` as its default's number type (null: float) where it reads as one.

    So ``1900000000``, ``1.9e9`` (a string to PyYAML) and ``1.9e+9`` give one
    ``parameter_sha256``; an int field keeps the string ``'1.5e3'``, and rejects it.
    """
    kind = _kind(default)
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
    A leaf holds a single value: only ``measurements`` takes a list.  So a
    YAML alias chain, which a few hundred bytes can make exponentially
    large, is rejected by name before anything expands or echoes it.
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
                f"unknown config key(s) {sorted(unknown, key=str)!r} under {where}")
        return merged
    if isinstance(override, (list, dict)) and not isinstance(defaults, list):
        raise ValidationError(f"config field {path} must be a single value, "
                              f"not a list or mapping")
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
    """Defaults-merged run description; :meth:`field` reads and checks a leaf."""

    raw: Dict[str, Any]

    @property
    def measurements(self) -> Tuple[str, ...]:
        return tuple(self.raw["measurements"])

    @property
    def output_format(self) -> str:
        return self.field("output.format")

    @property
    def seed(self) -> int:
        return self.field("scenario.noise.seed")

    def with_field(self, path: str, value: Any) -> "RunConfig":
        """A copy with the leaf at the dotted ``path`` set to ``value``, checked when read."""
        raw = copy.deepcopy(self.raw)
        *sections, leaf = path.split(".")
        reduce(operator.getitem, sections, raw)[leaf] = value
        return RunConfig(raw=raw)

    def parameter_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def effective_yaml(self) -> str:
        """``raw`` as YAML, sorted and in block style, by libyaml where present."""
        return yaml.dump(self.raw, Dumper=_DUMPER, sort_keys=True,
                         default_flow_style=False)

    def field(self, path: str) -> Any:
        """The leaf at the dotted ``path``, checked against its :data:`FIELDS` row.

        A value not of the leaf's kind, or outside its limit, raises a
        ValidationError naming ``path``.  A leaf with a null default may be None.
        """
        default, limit = _ROWS[path]
        value = reduce(operator.getitem, path.split("."), self.raw)
        if value is None and default is None:
            return None
        if isinstance(limit, tuple):  # the allowed strings
            if value not in limit:
                raise ValidationError(f"{path} must be {' or '.join(limit)}, got {value!r}")
            return value
        kind = _kind(default)
        if type(value) is not kind or (kind is float and not math.isfinite(value)):
            raise ValidationError(f"{path} must be {_KINDS[kind]}, got {value!r}")
        if limit == DBM:
            with naming(path):
                dbm_to_amplitude(value)
        elif limit and not all(compare(value, bound) for compare, bound in _bounds(limit)):
            raise ValidationError(f"{path} must be {limit}, got {value!r}")
        return value

    @cached_property
    def plan(self) -> ScaledPlan:
        """Plan of the main grid, built on first read."""
        return _plan_from(self, "scenario.grid")


def from_dict(data: Optional[Dict[str, Any]]) -> RunConfig:
    """Merge a user mapping onto the defaults; check the measurements."""
    cfg = RunConfig(raw=_merge(DEFAULTS, data or {}, ""))
    meas = cfg.raw["measurements"]
    if not isinstance(meas, (list, tuple)) or not meas:
        raise ValidationError("measurements must be a non-empty list")
    if not all(isinstance(m, str) for m in meas):
        raise ValidationError("measurements must list measurement names only")
    unknown = list(dict.fromkeys(m for m in meas if m not in ALL_MEASUREMENTS))
    if unknown:
        raise ValidationError(
            f"unknown measurement(s) {unknown!r}; choose from {ALL_MEASUREMENTS}")
    repeated = sorted(m for m, count in Counter(meas).items() if count > 1)
    if repeated:
        raise ValidationError(f"measurements lists {repeated!r} more than once")
    return cfg


def load_config(path: str) -> RunConfig:
    """Load a YAML config file; an empty file yields the full default run."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
    return _parse(text, f"config {path!r}")


def loads_config(text: str) -> RunConfig:
    """Parse YAML config text; empty text yields the full default run."""
    return _parse(text, "config")


def _parse(text: str, source: str) -> RunConfig:
    try:
        data = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ValidationError(f"cannot parse {source}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValidationError(f"{source} must be a mapping at top level")
    return from_dict(data)


def _mixer_from(cfg: RunConfig) -> MixerParams:
    leaf = {path.rsplit(".", 1)[1]: cfg.field(path)
            for path in _ROWS if path.startswith("scenario.mixer.")}
    with naming("scenario.mixer.switch_mode and scenario.mixer.switch_v_sw"):
        switch = SwitchParams(mode=leaf["switch_mode"], v_sw=leaf["switch_v_sw"])
    return MixerParams(
        transconductor=TransconductorParams(gm=leaf["gm"], v_gs1=leaf["v_gs1"],
                                            a2=leaf["a2"], a3=leaf["a3"]),
        switch=switch, load=LoadParams(rd=leaf["rd"]),
        bias=BiasParams(vdd=leaf["vdd"], i_bias=leaf["i_bias"]),
        leakage=LeakageParams(kappa=leaf["kappa"]))


def _plan_from(cfg: RunConfig, grid_path: str) -> ScaledPlan:
    """Plan of the grid section at ``grid_path``, capped at MAX_GRID_SAMPLES."""
    f_rf_hz, f_lo_hz = cfg.field("scenario.rf_hz"), cfg.field("scenario.lo_hz")
    with naming("scenario.rf_hz and scenario.lo_hz"):
        plan_ratio(f_rf_hz, f_lo_hz)
    bins = cfg.field(f"{grid_path}.bins_per_unit")
    period = cfg.field(f"{grid_path}.samples_per_lo_period")
    with naming(f"{grid_path}.samples_per_lo_period"):  # a multiple of 4
        plan = ScaledPlan(f_rf_hz=f_rf_hz, f_lo_hz=f_lo_hz, bins_per_unit=bins,
                          samples_per_lo_period=period)
    if plan.num_samples > MAX_GRID_SAMPLES:
        raise ValidationError(
            f"{grid_path}.bins_per_unit {bins} and {grid_path}.samples_per_lo_period {period} "
            f"give a grid of {plan.num_samples} samples, above the cap of {MAX_GRID_SAMPLES}")
    return plan


def _if_filter_from(cfg: RunConfig, plan: ScaledPlan) -> Optional[FilterSpec]:
    """The configured IF filter on ``plan``'s grid, or None when it is disabled."""
    if not cfg.field("scenario.if_filter.enabled"):
        return None
    cfg.field("scenario.if_filter.kind")  # the one response FilterSpec has
    cutoff = cfg.field("scenario.if_filter.cutoff_hz")
    with naming("scenario.if_filter.cutoff_hz"):
        if_filter = FilterSpec(cutoff=cutoff / plan.hz_per_unit)
        check_if_filter(if_filter, plan.grid())
    return if_filter


def _scenario_on_plan(cfg: RunConfig, plan: ScaledPlan, grid_path: str,
                      if_filter: Optional[FilterSpec]) -> Scenario:
    grid = plan.grid()
    lo_phase = cfg.field("scenario.lo_phase_rad")
    rf_tone = ToneSpec(frequency=float(plan.rf_bin),
                       power_dbm=cfg.field("scenario.rf_power_dbm"),
                       phase=cfg.field("scenario.rf_phase_rad"))
    lo_tone = ToneSpec(frequency=float(plan.lo_bin),
                       amplitude=cfg.field("scenario.lo_amplitude_v"),
                       phase=plan.lo_half_sample_phase() if lo_phase is None else lo_phase)
    band = cfg.field("scenario.noise.bandwidth_hz")
    if band is not None:
        band = (0.0, band / plan.hz_per_unit)
        with naming("scenario.noise.bandwidth_hz"):
            check_noise_band(grid, band)
    mixer = _mixer_from(cfg)
    with naming("scenario.lo_phase_rad"):
        check_lo_phase(grid, lo_tone, mixer.switch)
    seed, density = cfg.seed, cfg.field("scenario.noise.input_density")
    # The tones, and their sum product, must lie below the grid's Nyquist.
    with naming(f"scenario.rf_hz, scenario.lo_hz and {grid_path}.samples_per_lo_period"):
        return Scenario(mixer=mixer, grid=grid, rf_tones=(rf_tone,), lo_tone=lo_tone,
                        noise_seed=seed, input_noise_density=density,
                        input_noise_band=band, if_filter=if_filter,
                        frequency_scale=plan.hz_per_unit)


def build_scenario(cfg: RunConfig) -> Scenario:
    """Main scenario on the metrics grid, with the configured IF filter."""
    return _scenario_on_plan(cfg, cfg.plan, "scenario.grid", _if_filter_from(cfg, cfg.plan))


def build_nf_setup(cfg: RunConfig) -> Tuple[Scenario, NoiseFigureSettings]:
    """Scenario and band settings for the noise-figure measurement.

    The noise measurement needs many periodogram bins per band, so it runs
    on its own, longer grid with the same mixer and frequency plan.  It
    never filters, so its scenario carries no IF filter.
    """
    plan = _plan_from(cfg, "sweeps.nf.grid")
    scenario = _scenario_on_plan(cfg, plan, "sweeps.nf.grid", None)
    return scenario, NoiseFigureSettings(
        band_width=cfg.field("sweeps.nf.band_width_hz") / plan.hz_per_unit,
        segments=cfg.field("sweeps.nf.segments"),
        probe_power_dbm=cfg.field("sweeps.nf.probe_power_dbm"))

