"""Behavioral models for the three elements of a single-balanced mixer.

The RF transconductor is a memoryless polynomial ``i = gm*v_gs1 + gm*v +
a2*v^2 + a3*v^3``: the linear term is the classic voltage-to-current
conversion, and the cubic term is the minimal extension that produces both
gain compression and third-order intermodulation.  The LO pair is an ideal
(or tanh-softened) commutating switch, and the loads are plain resistors.
LO-to-RF leakage is a single linear voltage-coupling coefficient.

The two closed forms at the bottom are the oracles for the measurement
routines: for a pure cubic the 1 dB compression amplitude and the
third-order intercept amplitude are known exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoCompressionError, UndefinedInterceptError, ValidationError
from .signals import SampledSignal

# Gain-compression threshold expressed as a linear factor: 10**(-1/20).
_ONE_DB_FACTOR = 10.0 ** (-1.0 / 20.0)

# Commutation models of the LO pair (see SwitchParams).
SWITCH_MODES = ("ideal_sign", "smooth")


@dataclass(frozen=True)
class TransconductorParams:
    """Polynomial V-to-I converter: a1 = gm, plus optional a2/a3 terms."""

    gm: float                # A/V, small-signal transconductance
    v_gs1: float = 0.0       # V, gate bias (sets the DC current term)
    a2: float = 0.0          # A/V^2
    a3: float = 0.0          # A/V^3, negative for a compressive device

    def __post_init__(self):
        if not (self.gm > 0 and math.isfinite(self.gm)):
            raise ValidationError(f"gm must be > 0, got {self.gm!r}")
        for name in ("v_gs1", "a2", "a3"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")


@dataclass(frozen=True)
class SwitchParams:
    """Commutation model for the LO pair.

    ``ideal_sign`` is a hard +/-1 switch (sign(0) := +1 so runs are
    deterministic); ``smooth`` is a tanh transition of scale ``v_sw`` that
    converges to the hard switch as v_sw -> 0.
    """

    mode: str = "ideal_sign"
    v_sw: float = 0.05

    def __post_init__(self):
        if self.mode not in SWITCH_MODES:
            raise ValidationError(f"unknown switch mode {self.mode!r}")
        if self.mode == "smooth" and not self.v_sw > 0:
            raise ValidationError(f"v_sw must be > 0 in smooth mode, got {self.v_sw!r}")


@dataclass(frozen=True)
class LoadParams:
    """Identical drain load resistors on both output branches."""

    rd: float  # ohms

    def __post_init__(self):
        if not (self.rd > 0 and math.isfinite(self.rd)):
            raise ValidationError(f"rd must be > 0, got {self.rd!r}")


@dataclass(frozen=True)
class BiasParams:
    """Supply voltage and tail current (the tail device is an ideal source)."""

    vdd: float     # volts
    i_bias: float  # amperes

    def __post_init__(self):
        if not (self.vdd > 0 and math.isfinite(self.vdd)):
            raise ValidationError(f"vdd must be > 0, got {self.vdd!r}")
        if not (self.i_bias >= 0 and math.isfinite(self.i_bias)):
            raise ValidationError(f"i_bias must be >= 0, got {self.i_bias!r}")


@dataclass(frozen=True)
class LeakageParams:
    """Linear LO-port to RF-port voltage coupling coefficient."""

    kappa: float

    def __post_init__(self):
        if not (0.0 <= self.kappa < 1.0):
            raise ValidationError(f"kappa must be in [0, 1), got {self.kappa!r}")


def transconductor_current(p: TransconductorParams, v_rf: SampledSignal) -> SampledSignal:
    """Drain current of the RF device for a voltage waveform at its gate.

    i[n] = gm*v_gs1 + gm*v[n] + a2*v[n]^2 + a3*v[n]^3, in amperes.  The
    terms are accumulated in place, in that order, each power term as
    ``((a * v) * v) * v``.
    """
    if v_rf.unit != "volt":
        raise ValidationError(f"transconductor input must be volts, got {v_rf.unit!r}")
    return SampledSignal._adopt(v_rf.grid, _transconductor(p, v_rf.samples), "ampere")


def _transconductor(p: TransconductorParams, v: np.ndarray) -> np.ndarray:
    """A fresh array of the drain current for gate voltages ``v``, unchecked."""
    i = p.gm * v
    i += p.gm * p.v_gs1
    term = None
    if p.a2 != 0.0:
        term = np.multiply(v, p.a2)
        term *= v
        i += term
    if p.a3 != 0.0:
        term = np.multiply(v, p.a3, out=term)
        term *= v
        term *= v
        i += term
    return i


def switch_waveform(p: SwitchParams, v_lo: SampledSignal) -> SampledSignal:
    """Dimensionless commutation waveform driven by the LO voltage."""
    if v_lo.unit != "volt":
        raise ValidationError(f"switch input must be volts, got {v_lo.unit!r}")
    return SampledSignal._adopt(v_lo.grid, _switch(p, v_lo.samples), "dimensionless")


def _switch(p: SwitchParams, v_lo: np.ndarray) -> np.ndarray:
    """A fresh array of the switch waveform for LO samples ``v_lo``.

    Each sample depends on its own LO sample alone, so a slice of ``v_lo``
    gives the same slice of the waveform, to the bit.
    """
    if p.mode == "ideal_sign":
        return np.where(v_lo >= 0.0, 1.0, -1.0)
    out = np.divide(v_lo, p.v_sw)
    return np.tanh(out, out=out)


def dc_power(b: BiasParams) -> float:
    """Static power draw in watts."""
    return b.vdd * b.i_bias


def lo_leakage_at_rf_port(l: LeakageParams, v_lo: SampledSignal) -> SampledSignal:
    """LO voltage appearing at the RF port through the coupling path."""
    if v_lo.unit != "volt":
        raise ValidationError(f"leakage input must be volts, got {v_lo.unit!r}")
    return SampledSignal._adopt(v_lo.grid, _lo_leak(l, v_lo.samples), "volt")


def _lo_leak(l: LeakageParams, v_lo: np.ndarray) -> np.ndarray:
    """A fresh array of the leaked LO voltage for LO samples ``v_lo``."""
    return l.kappa * v_lo


def a1db_closed_form(p: TransconductorParams) -> float:
    """Input peak amplitude (volts) where the cubic compresses the gain 1 dB.

    For a drive A*cos the fundamental current is gm*A*(1 + (3/4)(a3/gm)A^2),
    so the 1 dB point solves 1 + (3/4)(a3/gm)A^2 = 10**(-1/20).
    """
    if not p.a3 < 0:
        raise NoCompressionError(
            f"a3 must be < 0 for compression, got {p.a3!r}")
    return math.sqrt((4.0 / 3.0) * (1.0 - _ONE_DB_FACTOR) * p.gm / abs(p.a3))


def aiip3_closed_form(p: TransconductorParams) -> float:
    """Input peak amplitude (volts) of the extrapolated third-order intercept.

    Equal-amplitude two-tone drive: the fundamental grows as gm*A and the
    2f1-f2 product as (3/4)|a3|A^3; they intersect at A = sqrt((4/3) gm/|a3|).
    """
    if p.a3 == 0:
        raise UndefinedInterceptError("a3 is zero, intercept point undefined")
    return math.sqrt((4.0 / 3.0) * p.gm / abs(p.a3))
