"""Single-balanced mixer transient engine.

The mixer is the textbook composition: an RF transconductor feeding a
differential pair that commutates the current at the LO rate, with resistive
loads.  The differential output is resolved analytically, so the output
voltage is simply ``rd * i_s(t) * switch(t)``.

Simulations run on a scaled coherent grid that preserves the configured
frequency ratios (19:18:1 for the default 1.9/1.8/0.1 GHz plan) instead of
literal GHz values; the physics of a memoryless model is identical and the
record stays short.  ``frequency_scale`` maps internal grid units back to Hz.

Two grid choices keep the switching spectrum exact:

* the sample rate is an integer multiple of the LO frequency, so every
  folded harmonic of the sampled square wave lands back on an odd LO
  multiple instead of smearing across stray bins;
* the default LO phase is offset by half a sample, so no sample ever lands
  on a switching instant and the commutation duty is exactly 50%.

Every mixer record is built here, on one kernel (:func:`_respond`), with
its RF port summed in one order (tones, LO leak, noise; :func:`_port_parts`),
by one of two generators.  :func:`_segments` yields a record in equal
consecutive pieces: :func:`simulate` is its one-piece case, and the
noise-figure record streams it a periodogram segment at a time.
:func:`_points` yields the output of a single-tone record at each of a
sequence of tone amplitudes, for the conversion gain, the compression
sweep and the noise-figure gain probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from . import memo
from .devices import (
    BiasParams,
    LeakageParams,
    LoadParams,
    SwitchParams,
    TransconductorParams,
    _lo_leak,
    _switch,
    _transconductor,
)
from .errors import AliasingError, ValidationError
from .signals import (
    SampledSignal,
    SimGrid,
    ToneSpec,
    _check_finite,
    _cos_basis,
    _noise_segments,
    _tone_basis,
    check_noise_band,
)


@dataclass(frozen=True)
class MixerParams:
    """All device constants of the mixer in one bundle."""

    transconductor: TransconductorParams
    switch: SwitchParams
    load: LoadParams
    bias: BiasParams
    leakage: LeakageParams


# IF filter responses (see FilterSpec).
FILTER_KINDS = ("lowpass2",)


@dataclass(frozen=True)
class FilterSpec:
    """Post-mixer IF filter; currently a second-order Butterworth low-pass."""

    kind: str = "lowpass2"
    cutoff: float = 0.0

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValidationError(f"unknown filter kind {self.kind!r}")
        if not self.cutoff > 0:
            raise ValidationError(f"filter cutoff must be > 0, got {self.cutoff!r}")


@dataclass(frozen=True)
class Scenario:
    """One fully-specified simulation: mixer, grid, stimulus, noise, filter.

    Frequencies inside a scenario are in internal grid units;
    ``frequency_scale`` (Hz per unit) converts back to the physical plan.
    """

    mixer: MixerParams
    grid: SimGrid
    rf_tones: Tuple[ToneSpec, ...]
    lo_tone: ToneSpec
    noise_seed: int = 0
    input_noise_density: float = 0.0
    input_noise_band: Optional[Tuple[float, float]] = None
    if_filter: Optional[FilterSpec] = None
    frequency_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "rf_tones", tuple(self.rf_tones))
        self.validate()

    def validate(self):
        if len(self.rf_tones) not in (1, 2):
            raise ValidationError(
                f"scenario needs 1 or 2 RF tones, got {len(self.rf_tones)}")
        for label, tone in self._labelled_tones():
            self.grid.bin_index(tone.frequency, label)
            if tone.frequency >= self.grid.nyquist:
                raise AliasingError(tone.frequency, self.grid.nyquist, label)
        # The primary mixing products must be representable.
        f_lo = self.lo_tone.frequency
        for tone in self.rf_tones:
            if tone.frequency + f_lo >= self.grid.nyquist:
                raise AliasingError(tone.frequency + f_lo, self.grid.nyquist,
                                    "sum product of RF tone and LO")
            if tone.frequency == f_lo:
                raise ValidationError("RF tone frequency equals the LO frequency")
        if self.input_noise_density < 0:
            raise ValidationError(
                f"input_noise_density must be >= 0, got {self.input_noise_density!r}")
        if self.input_noise_band is not None:
            check_noise_band(self.grid, self.input_noise_band)
        if self.if_filter is not None:
            check_if_filter(self.if_filter, self.grid)
        if not self.frequency_scale > 0:
            raise ValidationError(
                f"frequency_scale must be > 0, got {self.frequency_scale!r}")

    def _labelled_tones(self):
        for i, tone in enumerate(self.rf_tones):
            yield f"RF tone {i + 1} at {tone.frequency!r}", tone
        yield f"LO tone at {self.lo_tone.frequency!r}", self.lo_tone

    @property
    def f_lo(self) -> float:
        return self.lo_tone.frequency

    @property
    def f_rf(self) -> float:
        return self.rf_tones[0].frequency

    @property
    def f_if(self) -> float:
        return abs(self.f_rf - self.f_lo)

    def to_hz(self, internal: float) -> float:
        return internal * self.frequency_scale

    def with_rf_power(self, power_dbm: float) -> "Scenario":
        """Copy with every RF tone set to the given power.

        It skips :meth:`validate`, which no power enters; a power with no
        finite peak voltage fails in :func:`simulate`.
        """
        tones = tuple(t.with_power(power_dbm) for t in self.rf_tones)
        copied = object.__new__(type(self))
        copied.__dict__.update(self.__dict__, rf_tones=tones)
        return copied


def _node(samples: str, unit: str) -> cached_property:
    """A :class:`TransientResult` node: the array ``samples``, adopted when first read."""
    return cached_property(lambda self: SampledSignal._adopt(
        self.scenario.grid, getattr(self, samples), unit))


@dataclass(frozen=True, eq=False)
class TransientResult:
    """All node waveforms of one simulation, sharing the scenario grid.

    :func:`simulate` builds and checks ``v_out``.  The other nodes hold
    read-only arrays and become signals when first read, and are kept; the
    IF filter likewise runs when ``v_out_filtered`` is first read.
    """

    scenario: Scenario
    v_out: SampledSignal            # differential output voltage
    _v_rf_port: np.ndarray          # stimulus + LO leakage + noise
    _i_s: np.ndarray                # transconductor output current
    _i_out: np.ndarray              # commutated current

    v_rf_port = _node("_v_rf_port", "volt")
    i_s = _node("_i_s", "ampere")
    i_out = _node("_i_out", "ampere")

    @cached_property
    def v_out_filtered(self) -> Optional[SampledSignal]:
        """``v_out`` through the scenario's IF filter; None without a filter."""
        f = self.scenario.if_filter
        return apply_if_filter(f, self.v_out) if f is not None else None


def analytic_conversion_gain(m: MixerParams) -> float:
    """Small-signal conversion gain in dB: 20*log10((2/pi) * rd * gm)."""
    return 20.0 * math.log10((2.0 / math.pi) * m.load.rd * m.transconductor.gm)


def butterworth2_response(frequency, cutoff: float):
    """Complex response of a second-order Butterworth low-pass.

    |H| = 1/sqrt(1 + (f/fc)^4); exactly 1/sqrt(2) at the cutoff.
    Accepts scalars or arrays.
    """
    x = np.asarray(frequency, dtype=np.float64) / cutoff
    h = 1.0 / (1.0 - x * x + 1j * math.sqrt(2.0) * x)
    return h if h.ndim else complex(h)


def check_if_filter(f: FilterSpec, grid: SimGrid):
    """Raise unless the response of ``f`` is finite on every bin of ``grid``.

    The cutoff must lie below Nyquist, and not so far below it that the
    ``(f/fc)^2`` of :func:`butterworth2_response` overflows at the top bin
    (with a factor 2 to spare), which would make the filtered record NaN.
    """
    if f.cutoff >= grid.nyquist:
        raise AliasingError(f.cutoff, grid.nyquist, "IF filter cutoff")
    x = 2.0 * grid.nyquist / f.cutoff
    if not math.isfinite(x * x):
        raise ValidationError(
            f"IF filter cutoff {f.cutoff!r} lies too far below the Nyquist limit "
            f"{grid.nyquist!r} for its response to be finite")


def apply_if_filter(f: FilterSpec, v: SampledSignal) -> SampledSignal:
    """Apply the IF filter as exact per-bin multiplication on the grid.

    The coherent grid makes the frequency-domain product exact and avoids
    the start-up transient a time-stepped filter would show.
    """
    check_if_filter(f, v.grid)
    spectrum = np.fft.rfft(v.samples)
    freqs = np.arange(spectrum.size) * v.grid.resolution
    spectrum *= butterworth2_response(freqs, f.cutoff)
    out = np.fft.irfft(spectrum, v.grid.num_samples)
    return SampledSignal._adopt(v.grid, out, v.unit)


@memo.memoised
def _lo_drive(grid: SimGrid, lo_tone: ToneSpec) -> np.ndarray:
    """The read-only LO voltage on ``grid``, checked for non-finite samples.

    It depends only on the key, so every simulation on one grid with one LO
    shares it.  Its cosine basis is built outside the memo: the memo keeps
    ``v_lo`` alone, not also the basis it equals at a 1 V LO.
    """
    v_lo = lo_tone.peak_amplitude() * _tone_basis(grid, lo_tone, _cos_basis.__wrapped__)
    _check_finite(v_lo)
    v_lo.setflags(write=False)
    return v_lo


def _port_parts(s: Scenario, tones: Iterable[Tuple[float, np.ndarray]], v_lo: np.ndarray,
                noise: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
    """The RF port's parts of a piece of ``s``'s record, in the order they are summed.

    The tones, from ``(amplitude, basis)`` pairs; the leak of ``v_lo``, the
    piece's LO voltage; the next piece of ``noise``.  Each is a fresh
    array, made when asked for and only when ``s`` has it.
    """
    for amp, basis in tones:
        yield amp * basis
    if s.mixer.leakage.kappa != 0.0:
        yield _lo_leak(s.mixer.leakage, v_lo)
    if s.input_noise_density > 0.0:
        yield next(noise)


def _respond(m: MixerParams, sw: np.ndarray, parts: Iterable[np.ndarray],
             out: Optional[np.ndarray] = None) -> Tuple[np.ndarray, ...]:
    """``(port, i_s, i_out, v_out)`` of the mixer for an RF port summed from ``parts``.

    The port voltage is ``0 + parts[0] + parts[1] + ...``, summed in place
    in that order; ``sw`` holds the switch samples, and ``i_out`` is
    ``i_s * sw``, written into ``out`` when given (``sw`` itself, when the
    caller needs the switch no more).  Plain fresh arrays, none checked.
    """
    port = np.zeros(sw.size)
    for part in parts:
        port += part
        # Free each part before a generator makes the next: on a long grid
        # at most one part then lives beside the port.
        del part
    i_s = _transconductor(m.transconductor, port)
    i_out = np.multiply(i_s, sw, out=out)
    return port, i_s, i_out, m.load.rd * i_out


def _segments(s: Scenario, n: int) -> Iterator[Tuple[np.ndarray, ...]]:
    """``(port, i_s, i_out, v_out)`` of each of ``n`` equal consecutive pieces of ``s``'s record.

    A piece is made from its slices of the memoised tone bases and LO
    voltage and its piece of the noise (:func:`signals._noise_segments`),
    with its switch as the ``i_out`` buffer; so the pieces, concatenated,
    are the whole record to the bit.  ``n`` must divide the record length.
    Plain fresh arrays, none checked.
    """
    grid = s.grid
    size = grid.num_samples // n
    v_lo = _lo_drive(grid, s.lo_tone)
    tones = [(tone.peak_amplitude(), _tone_basis(grid, tone)) for tone in s.rf_tones]
    noise = _noise_segments(grid, s.input_noise_density, s.noise_seed, s.input_noise_band, n)
    for at in (slice(j * size, (j + 1) * size) for j in range(n)):
        sw = _switch(s.mixer.switch, v_lo[at])
        parts = _port_parts(s, [(amp, basis[at]) for amp, basis in tones], v_lo[at], noise)
        yield _respond(s.mixer, sw, parts, out=sw)


def _points(s: Scenario, amplitudes: Iterable[float]) -> Iterator[np.ndarray]:
    """``v_out`` of single-tone ``s`` with its tone at each peak amplitude, in order.

    Each has the bits of :func:`simulate`'s, unchecked.  Everything no
    amplitude changes is made once: the tone basis, the LO drive, the
    switch, the LO leak and the noise.
    """
    grid = s.grid
    tone = _tone_basis(grid, s.rf_tones[0])
    v_lo = _lo_drive(grid, s.lo_tone)
    sw = _switch(s.mixer.switch, v_lo)
    noise = _noise_segments(grid, s.input_noise_density, s.noise_seed, s.input_noise_band, 1)
    extras = tuple(_port_parts(s, (), v_lo, noise))
    for amp in amplitudes:
        yield _respond(s.mixer, sw, (amp * tone, *extras))[3]


def simulate(s: Scenario) -> TransientResult:
    """Run the transient: stimulus, leakage, noise, V-I conversion, switching.

    Pure function of the scenario (the noise generator is seeded from it),
    so identical scenarios produce identical results.  The record is the
    one piece of :func:`_segments`.  Only ``v_out`` is checked for
    non-finite samples: the LO voltage is checked, ``rd`` is finite and
    > 0, and inf and NaN, from the noise or any later step, survive every
    sum and product (inf times a zero switch sample gives NaN).
    """
    port, i_s, i_out, v_out = next(_segments(s, 1))
    v_out = SampledSignal._adopt(s.grid, v_out, "volt")
    for node in (port, i_s, i_out):
        node.setflags(write=False)
    return TransientResult(scenario=s, v_out=v_out, _v_rf_port=port, _i_s=i_s,
                           _i_out=i_out)


# ---------------------------------------------------------------------------
# Scaled-grid construction


def plan_ratio(f_rf_hz: float, f_lo_hz: float,
               max_denominator: int = 64) -> Tuple[int, int, int]:
    """Smallest integer (rf, lo, if) triple matching the physical plan.

    The RF and LO frequencies must be commensurate with their difference
    (1.9/1.8 GHz gives (19, 18, 1)); the IF may be subdivided at most
    ``max_denominator`` times, which keeps accidental near-matches of
    irrational ratios from producing astronomically long records.
    """
    if not (f_rf_hz > f_lo_hz > 0):
        raise ValidationError(
            f"need f_rf > f_lo > 0 (a high-side LO is not supported), "
            f"got rf={f_rf_hz!r}, lo={f_lo_hz!r}")
    f_if_hz = f_rf_hz - f_lo_hz
    frac = Fraction(f_rf_hz / f_if_hz).limit_denominator(max_denominator)
    n_rf, d = frac.numerator, frac.denominator
    if n_rf <= d:
        raise ValidationError(
            f"f_lo={f_lo_hz!r} Hz is too small against f_rf={f_rf_hz!r} Hz to "
            f"fall on a grid bin")
    if abs(n_rf / d - f_rf_hz / f_if_hz) > 1e-9 * (f_rf_hz / f_if_hz):
        raise ValidationError(
            f"RF/IF ratio {f_rf_hz / f_if_hz!r} has no small integer form; "
            f"choose commensurate frequencies")
    return n_rf, n_rf - d, d


@dataclass(frozen=True)
class ScaledPlan:
    """Coherent internal grid for a physical frequency plan.

    ``bins_per_unit`` sets how many grid bins one plan unit spans (the IF
    lands on bin bins_per_unit * n_if) and ``samples_per_lo_period`` sets the
    oversampling of the switch.  Keeping the latter a multiple of 4 makes
    the folded switching spectrum close under the odd-harmonic family.
    """

    f_rf_hz: float
    f_lo_hz: float
    bins_per_unit: int = 4
    samples_per_lo_period: int = 128

    def __post_init__(self):
        if self.bins_per_unit < 1:
            raise ValidationError(
                f"bins_per_unit must be >= 1, got {self.bins_per_unit}")
        p = self.samples_per_lo_period
        if p < 8 or p % 4 != 0:
            raise ValidationError(
                f"samples_per_lo_period must be a multiple of 4 and >= 8, got {p}")
        self.ratio  # validates commensurability

    @cached_property
    def ratio(self) -> Tuple[int, int, int]:
        return plan_ratio(self.f_rf_hz, self.f_lo_hz)

    @property
    def rf_bin(self) -> int:
        return self.ratio[0] * self.bins_per_unit

    @property
    def lo_bin(self) -> int:
        return self.ratio[1] * self.bins_per_unit

    @property
    def if_bin(self) -> int:
        return self.ratio[2] * self.bins_per_unit

    @property
    def num_samples(self) -> int:
        return self.samples_per_lo_period * self.lo_bin

    @property
    def hz_per_unit(self) -> float:
        return (self.f_rf_hz - self.f_lo_hz) / self.if_bin

    def grid(self) -> SimGrid:
        n = self.num_samples
        return SimGrid(sample_rate=float(n), num_samples=n)

    def lo_half_sample_phase(self) -> float:
        """LO phase putting every switching instant between two samples."""
        return math.pi * self.lo_bin / self.num_samples

    def to_internal(self, f_hz: float, context: str = "") -> float:
        """Convert a physical frequency to internal grid units (exact bins)."""
        units = f_hz / self.hz_per_unit
        if not math.isfinite(units) or abs(units - round(units)) > 1e-9 * max(1.0, abs(units)):
            raise ValidationError(
                f"frequency {f_hz!r} Hz does not fall on the scaled grid"
                + (f" ({context})" if context else ""))
        return float(round(units))
