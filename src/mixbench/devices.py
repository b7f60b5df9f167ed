"""Behavioral models for the three elements of a single-balanced mixer.

The RF transconductor is a memoryless polynomial ``i = sum_n a_n * v^n``
of :attr:`TransconductorParams.coefficients` ``(gm*v_gs1, gm, a2, a3)``:
the linear term is the classic voltage-to-current conversion, and the cubic
term is the minimal extension that produces both gain compression and
third-order intermodulation.  Every other module reads the polynomial by
degree through that tuple and :func:`_taylor`.  The LO pair is an ideal
(or tanh-softened) commutating switch, and the loads are plain resistors.
LO-to-RF leakage is a single linear voltage-coupling coefficient.

The two closed forms at the bottom are the oracles for the measurement
routines: for a pure cubic the 1 dB compression amplitude and the
third-order intercept amplitude are known exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

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

    @property
    def coefficients(self) -> Tuple[float, ...]:
        """``(a_0, a_1, a_2, a_3) = (gm*v_gs1, gm, a2, a3)``; the current is ``sum_n a_n*v^n``."""
        return (self.gm * self.v_gs1, self.gm, self.a2, self.a3)


@dataclass(frozen=True)
class SwitchParams:
    """Commutation model for the LO pair.

    ``ideal_sign`` is a hard +/-1 switch (sign(0) := +1 so runs are
    deterministic); ``smooth`` is a tanh transition of scale ``v_sw`` that
    converges to the hard switch as v_sw -> 0.

    The sign(0) rule serves a silent LO only: a sampled cosine is never
    exactly 0 (``cos`` of the float nearest pi/2 is 6.1e-17), so where a
    sample of an active LO falls on a switching instant, rounding would
    pick its sign.  :func:`engine.check_lo_phase` rejects such an LO phase
    for the ideal switch.
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

    i[n] = sum_k a_k * v[n]^k over :attr:`TransconductorParams.coefficients`,
    in amperes.  The terms are accumulated in place: ``a_1 * v``, then
    ``a_0``, then each nonzero power term by degree as ``((a_k * v) * v) * v``.
    """
    if v_rf.unit != "volt":
        raise ValidationError(f"transconductor input must be volts, got {v_rf.unit!r}")
    return SampledSignal._adopt(v_rf.grid, _transconductor(p, v_rf.samples), "ampere")


def _transconductor(p: TransconductorParams, v: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """The drain current for gate voltages ``v``, unchecked, in ``out`` or a fresh array."""
    a = p.coefficients
    i = np.multiply(a[1], v, out=out)
    i += a[0]
    term = None
    for n in range(2, len(a)):
        if a[n] != 0.0:
            term = np.multiply(v, a[n], out=term)
            for _ in range(n - 1):
                term *= v
            i += term
    return i


def _taylor(p: TransconductorParams, e: np.ndarray, j: int) -> np.ndarray:
    """``sum_{n >= j} C(n, j) * a_n * e^(n - j)`` of ``p.coefficients``, a fresh array.

    The sum runs by Horner's rule in ``e``, from the top degree down.  It is
    the ``j``-th Taylor coefficient of the current ``i(v) = sum_n a_n * v^n``
    about ``e``, so at the gate voltage ``A*b + e`` the current is
    ``sum_j A^j * b^j * _taylor(p, e, j)``; ``j = 1`` is the small-signal
    slope ``di/dv`` at ``e``.  For the cubic that is

    * ``j = 3``: ``a3``,
    * ``j = 2``: ``a2 + 3*a3*e``,
    * ``j = 1``: ``gm + 2*a2*e + 3*a3*e^2``,
    * ``j = 0``: ``gm*v_gs1 + gm*e + a2*e^2 + a3*e^3``, the current at ``e``.
    """
    a = p.coefficients
    top = len(a) - 1
    c = np.full(e.shape, math.comb(top, j) * a[top], dtype=float)
    for n in range(top - 1, j - 1, -1):
        c *= e
        c += math.comb(n, j) * a[n]
    return c


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


def _lo_leak(l: LeakageParams, v_lo: np.ndarray) -> np.ndarray:
    """A fresh array of the leaked LO voltage for LO samples ``v_lo``."""
    return l.kappa * v_lo


def _check_compression(p: TransconductorParams) -> None:
    """Raise NoCompressionError unless the cubic compresses the gain (``a3 < 0``)."""
    if not p.a3 < 0:
        raise NoCompressionError(
            f"a3 must be < 0 for compression, got {p.a3!r}")


def a1db_closed_form(p: TransconductorParams) -> float:
    """Input peak amplitude (volts) where the cubic compresses the gain 1 dB.

    For a drive A*cos the fundamental current is gm*A*(1 + (3/4)(a3/gm)A^2),
    so the 1 dB point solves 1 + (3/4)(a3/gm)A^2 = 10**(-1/20).
    """
    _check_compression(p)
    return math.sqrt((4.0 / 3.0) * (1.0 - _ONE_DB_FACTOR) * p.gm / abs(p.a3))


def aiip3_closed_form(p: TransconductorParams) -> float:
    """Input peak amplitude (volts) of the extrapolated third-order intercept.

    Equal-amplitude two-tone drive: the fundamental grows as gm*A and the
    2f1-f2 product as (3/4)|a3|A^3; they intersect at A = sqrt((4/3) gm/|a3|).
    """
    if p.a3 == 0:
        raise UndefinedInterceptError("a3 is zero, intercept point undefined")
    return math.sqrt((4.0 / 3.0) * p.gm / abs(p.a3))
