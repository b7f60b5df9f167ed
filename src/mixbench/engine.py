"""Single-balanced mixer transient engine.

The mixer is the textbook composition: an RF transconductor feeding a
differential pair that commutates the current at the LO rate, with resistive
loads.  The differential output is resolved analytically, so the output
voltage is simply ``rd * i_s(t) * switch(t)``.  Only the two ports are
kept: the RF port voltage and the output voltage.

Simulations run on a scaled coherent grid that preserves the configured
frequency ratios (19:18:1 for the default 1.9/1.8/0.1 GHz plan) instead of
literal GHz values; the physics of a memoryless model is identical and the
record stays short.  ``frequency_scale`` maps internal grid units back to Hz.

Two grid choices keep the switching spectrum exact:

* the sample rate is an integer multiple of the LO frequency, so every
  folded harmonic of the sampled square wave lands back on an odd LO
  multiple instead of smearing across stray bins;
* the default LO phase is offset by half a sample, so no sample ever lands
  on a switching instant and the commutation duty is exactly 50%; with the
  ideal switch, :func:`check_lo_phase` rejects a phase that puts one there.

Every mixer waveform is built here.  Every mixer record is built whole by
one function (:func:`_record`), on one kernel (:func:`_respond`), with its
RF port summed in one order (tones, LO leak, noise).  :func:`simulate`
keeps both ports for the harmonic and transient outputs, and the
Monte-Carlo noise-figure reference reads the periodograms of both.  A
record's deterministic part, its tones, LO leak and switch, repeats with
the common period of its RF tones and LO, so it is built once on that
period (:func:`_pump`) and laid over the record in place
(:func:`_periodic`).  The LO voltage is the LO's peak amplitude times its
memoised unit basis, and each reader that needs the switch builds it from
that voltage.  The noise-free RF port, the tones plus the LO leak, is
summed in one place (:func:`_port`).  Two measurements read that one
period and run no record: isolation reads the LO ray of the port
(:func:`_port_ray`) and evaluates no switch, and the noise figure the
mixer's small-signal gain (:func:`_small_signal_gain`).

Measurements that drive every RF tone at one swept amplitude ``A`` (the
conversion gain, the compression sweep, the noise-figure gain probe and
the two drives of IIP3) need no record per drive.  The port is ``A*b + e``
and the transconductor a polynomial, so every ray read from the output is
a polynomial in ``A`` of the same degree: :func:`_drive_cubic` moves a
scenario onto the noise-free common period of its tones, LO and rays,
picks each ray's readout, and projects one term per degree
(:func:`_cubic_terms`) once (the power-series view of a weakly nonlinear
circuit; Wambacq & Sansen, 1998).
So no measurement reads the input noise but the noise figure, through its
configured density: only :func:`_record` draws noise, for :func:`simulate`
and the Monte-Carlo noise-figure reference.
Its :meth:`DriveCubic.rays` reads every ray at a drive, and
:meth:`DriveCubic.sweep` at an array of drives, both by one Horner loop
(:func:`_horner`), which also sums the bound of :meth:`DriveCubic.covers`;
a drive whose own record that bound cannot prove finite is not read at
all but fails by name.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .devices import (
    BiasParams,
    LeakageParams,
    LoadParams,
    SwitchParams,
    TransconductorParams,
    _lo_leak,
    _switch,
    _taylor,
    _transconductor,
)
from .errors import AliasingError, NonFiniteReadingError, ValidationError
from .signals import (
    SampledSignal,
    SimGrid,
    ToneSpec,
    _noise,
    _project,
    _readout,
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


@dataclass(frozen=True)
class FilterSpec:
    """Post-mixer IF filter: a second-order Butterworth low-pass."""

    cutoff: float

    def __post_init__(self):
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
        for i, tone in enumerate(self.rf_tones):
            self.grid.ray_bin(tone.frequency, f"RF tone {i + 1} at {tone.frequency!r}")
        self.grid.ray_bin(self.f_lo, f"LO tone at {self.f_lo!r}")
        # The primary mixing products must be representable.
        f_lo = self.lo_tone.frequency
        for tone in self.rf_tones:
            self.grid.ray_bin(tone.frequency + f_lo, "sum product of RF tone and LO")
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
        check_lo_phase(self.grid, self.lo_tone, self.mixer.switch)

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


@dataclass(frozen=True, eq=False)
class TransientResult:
    """The two port waveforms of one simulation, sharing the scenario grid.

    :func:`simulate` adopts and checks both as it makes them, the two rows
    of one array; the IF filter runs when ``v_out_filtered`` is first read.
    """

    scenario: Scenario
    v_rf_port: SampledSignal        # stimulus + LO leakage + noise
    v_out: SampledSignal            # differential output voltage

    @cached_property
    def v_out_filtered(self) -> Optional[SampledSignal]:
        """``v_out`` through the scenario's IF filter; None without a filter."""
        f = self.scenario.if_filter
        return apply_if_filter(f, self.v_out) if f is not None else None


def analytic_conversion_gain(m: MixerParams) -> float:
    """Small-signal conversion gain in dB: 20*log10((2/pi) * rd * gm)."""
    return 20.0 * math.log10((2.0 / math.pi) * m.load.rd * m.transconductor.gm)


def check_lo_phase(grid: SimGrid, lo_tone: ToneSpec, switch: SwitchParams):
    """Raise if an active LO on ``grid`` puts a sample on a switching instant of the ideal switch.

    ``cos(2 pi k n / N + phase)`` is 0 at some sample ``n`` exactly when
    ``phase - pi/2`` is a multiple of ``pi * gcd(N, 2k) / N``.  There the
    sampled cosine is about +-1e-16 instead of 0, so rounding, not the
    ``sign(0) := +1`` rule of the ideal switch, would pick each such
    sample's sign.  "Exactly" allows a few ulps of the largest argument.
    """
    if switch.mode != "ideal_sign" or not lo_tone.peak_amplitude() > 0:
        return
    n, k = grid.num_samples, grid.bin_index(lo_tone.frequency, "LO tone")
    offset = math.remainder(lo_tone.phase - math.pi / 2, math.pi * math.gcd(n, 2 * k) / n)
    if abs(offset) <= 4 * sys.float_info.epsilon * (2 * math.pi * k + abs(lo_tone.phase)):
        raise ValidationError(
            f"LO phase {lo_tone.phase!r} puts samples on the switching instants of the "
            f"ideal switch, where rounding would pick the switch's sign")


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


def _pump(s: Scenario, amplitudes: Sequence[float]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(tones, leak, v_lo)`` of ``s`` over one common period of its RF tones and LO.

    ``tones`` is ``0 + a_1*b_1 + a_2*b_2``, each RF tone's memoised unit
    basis ``b_i`` on the period at its amplitude in ``amplitudes``, summed
    in place in that order; ``v_lo`` is the LO voltage, the LO's peak
    amplitude times its memoised unit basis, and ``leak`` is ``0 +`` its
    LO leak (all zeros when ``kappa`` is 0).  Each is a fresh array one
    period long, made once per record: the pump of a periodically switched
    circuit repeats with the period (Strom & Signell, 1977), so a record
    applies it to its own samples through :func:`_periodic` and never holds
    it at the record's length.  A reader that needs the switch builds it
    from ``v_lo`` (:func:`devices._switch`).
    """
    grid = s.grid.common_period((*(t.frequency for t in s.rf_tones), s.f_lo))
    v_lo = s.lo_tone.peak_amplitude() * _tone_basis(grid, s.lo_tone)
    tones, leak = np.zeros(grid.num_samples), np.zeros(grid.num_samples)
    for amp, tone in zip(amplitudes, s.rf_tones):
        tones += amp * _tone_basis(grid, tone)
    if s.mixer.leakage.kappa != 0.0:
        leak += _lo_leak(s.mixer.leakage, v_lo)
    return tones, leak, v_lo


def _port(s: Scenario) -> Tuple[np.ndarray, np.ndarray]:
    """``(port, v_lo)``: the noise-free RF port of ``s`` and its LO voltage, on the pump's period.

    The port is the tones at their own amplitudes plus the LO leak of
    :func:`_pump`, summed in that order.  Overflow makes inf or NaN, with
    the warning the caller's ``np.errstate`` allows.
    """
    port, leak, v_lo = _pump(s, [tone.peak_amplitude() for tone in s.rf_tones])
    port += leak
    return port, v_lo


def _small_signal_gain(s: Scenario) -> np.ndarray:
    """``g = rd * sw * _taylor(transconductor, port, 1)`` of ``s`` over the pump's period.

    The slope of the memoryless mixer (:func:`devices._taylor`) at its
    noise-free RF port (:func:`_port`) times ``rd * sw``, which is formed
    first: the gain a small input noise sees.  Unchecked, like
    :func:`_port`.
    """
    port, v_lo = _port(s)
    m = s.mixer
    return m.load.rd * _switch(m.switch, v_lo) * _taylor(m.transconductor, port, 1)


def _periodic(op: np.ufunc, a: np.ndarray, period: np.ndarray,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """``op(a[i], period[i % len(period)])`` for each sample ``i``, into ``out``.

    ``period`` repeats over the record ``a``, whose length it divides;
    ``out``, ``a`` itself by default, must be contiguous.  The operation is
    one pass over the rows of a view, so no array as long as ``a`` is made.
    """
    out = a if out is None else out
    op(a.reshape(-1, period.size), period, out=out.reshape(-1, period.size))
    return out


def _respond(m: MixerParams, sw: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """``nodes``, its row 1 set to ``v_out`` of the mixer for the RF port in row 0.

    ``sw`` holds the switch over one period of the record.  ``v_out`` is
    ``rd * (i_s * sw)``, built in its own row.  Neither row is checked: a
    non-finite current always makes ``v_out`` non-finite, so checking it
    checks them.
    """
    port, v_out = nodes
    _periodic(np.multiply, _transconductor(m.transconductor, port, out=v_out), sw)
    v_out *= m.load.rd
    return nodes


def _record(s: Scenario) -> np.ndarray:
    """``s``'s record as one fresh ``(2, N)`` array of rows ``(port, v_out)``, unchecked.

    The RF port sums the tones, the LO leak and the noise.  The tones and
    the leak are summed once, on the common period (:func:`_port`), whose
    switch is evaluated once too, and added to the noise
    (:func:`signals._noise`; zeros without noise), which IEEE addition does
    with the bits of adding the noise to them.  Both nodes are one
    allocation.  Overflow makes inf or NaN without a warning: every caller
    checks the values it reads.
    """
    with np.errstate(all="ignore"):
        port, v_lo = _port(s)
        nodes = np.empty((2, s.grid.num_samples))
        _periodic(np.add, _noise(s.grid, s.input_noise_density, s.noise_seed,
                                 s.input_noise_band), port, out=nodes[0])
        return _respond(s.mixer, _switch(s.mixer.switch, v_lo), nodes)


def _cubic_terms(m: MixerParams, sw: np.ndarray, b: np.ndarray,
                 e: np.ndarray) -> Iterator[np.ndarray]:
    """``rd * sw * c_j`` for each degree j in turn, each a fresh array made when asked for.

    ``sw``, the switch samples, is scaled by ``rd`` in place.  At the RF
    port ``A*b + e`` the transconductor current is ``sum_j A^j * c_j``, with
    ``c_j = b^j * _taylor(t, e, j)`` (:func:`devices._taylor`).
    """
    t = m.transconductor
    load = np.multiply(sw, m.load.rd, out=sw)
    b_power = None
    for j in range(len(t.coefficients)):
        c = _taylor(t, e, j)
        if j:
            b_power = b.copy() if b_power is None else np.multiply(b_power, b, out=b_power)
            c *= b_power
        c *= load
        yield c


def _horner(coeffs: Sequence, x):
    """The polynomial of ``coeffs``, top degree first, at ``x`` (a float or a float64 array).

    Horner's rule from 0: ``total = total * x + c`` for each ``c`` in turn.
    """
    total = 0
    for c in coeffs:
        total = total * x + c
    return total


# A drive is read from its cubic only while every value its own record and
# readout take is bounded by this: 2**16 below the largest float, far more
# than the rounding of the bound's few steps can take.
_CUBIC_LIMIT = sys.float_info.max / 2.0 ** 16


@dataclass(frozen=True, eq=False)
class DriveCubic:
    """The rays of a scenario with every RF tone at one peak ``A``, as polynomials in ``A``.

    ``projections[i]`` holds, top degree first, the projection ``P_j`` of
    each term ``rd * sw * c_j`` (:func:`_cubic_terms`) on ray ``i``, so its
    reading at drive ``A`` is ``sum_j A^j * P_j``.

    The other fields bound the drive's own record.  Every tone basis lies
    in [-1, 1], so each partial sum of the RF port is at most
    ``w = max(1, A*tones + extra_peak)``, ``tones`` counting the RF tones
    and ``extra_peak`` the LO leak's largest sample.  Each transconductor
    term, the current, ``v_out`` and the projection's running sum over the
    record are then at most ``bound`` read as a polynomial in ``w``, top
    degree first: ``N * max(1, rd)`` times ``|a_j|`` of the
    transconductor's ``coefficients``.  ``bound`` is inf when a projection
    is not finite.
    """

    tones: int
    projections: Tuple[Tuple[complex, ...], ...]
    extra_peak: float
    bound: Tuple[float, ...]

    def covers(self, amplitude: float) -> bool:
        """Whether the drive's own record and readout are provably finite.

        Their bound must stay under ``_CUBIC_LIMIT``.  Where it does, the
        record reads finite and so does the cubic.
        """
        w = max(1.0, amplitude * self.tones + self.extra_peak)
        return _horner(self.bound, w) <= _CUBIC_LIMIT

    def rays(self, amplitude: float, power_dbm: Optional[float] = None) -> List[float]:
        """Amplitude of every ray at drive ``amplitude``, in order.

        Read from the polynomial by Horner's rule (:func:`_horner`).
        Raises NonFiniteReadingError for a drive the cubic does not
        :meth:`cover <covers>`, whose reading it cannot vouch for, naming
        the drive's ``power_dbm`` where the caller gives it.
        """
        if not self.covers(amplitude):
            at = "" if power_dbm is None else f" at {power_dbm!r} dBm"
            raise NonFiniteReadingError(
                f"drive {amplitude!r} V{at}: the drive polynomial cannot bound its record",
                power_dbm)
        return [abs(_horner(coeffs, amplitude)) for coeffs in self.projections]

    def sweep(self, amplitudes: np.ndarray) -> Optional[np.ndarray]:
        """Amplitude of every ray at each drive of ``amplitudes``, one row per ray.

        None unless the cubic :meth:`covers` every drive of the float64
        array ``amplitudes``, which it does where it covers the largest:
        the bound grows with the drive.  Each row then holds :meth:`rays`
        at each drive, to the bit: both run :func:`_horner`, on an array
        of drives here.  There every value is finite, so numpy's
        complex-by-float product, like CPython's ``complex * float``, is
        the complex product with a zero imaginary part, and ``abs`` of a
        complex is libm's ``hypot``, as ``np.hypot`` is.
        """
        if not self.covers(float(amplitudes.max())):
            return None
        out = np.empty((len(self.projections), amplitudes.size))
        for row, coeffs in zip(out, self.projections):
            reading = _horner(coeffs, amplitudes)
            np.hypot(reading.real, reading.imag, out=row)
        return out


def _drive_period(s: Scenario, rays: Sequence[float]) -> Scenario:
    """``s`` without its input noise on the common period of its tones, LO and ``rays``.

    ``s`` itself where it already is so.
    """
    grid = s.grid.common_period((*(t.frequency for t in s.rf_tones), s.f_lo, *rays))
    if grid != s.grid or s.input_noise_density != 0.0 or s.input_noise_band is not None:
        s = replace(s, grid=grid, input_noise_density=0.0, input_noise_band=None)
    return s


def _drive_cubic(s: Scenario, rays: Sequence[float]) -> DriveCubic:
    """The rays at frequencies ``rays`` of ``s`` as polynomials in the drive amplitude.

    ``s`` is first moved onto the noise-free common period of its tones,
    LO and ``rays`` (:func:`_drive_period`): every drive reading is of the
    deterministic mixer, whatever input noise ``s`` carries, and the model
    is memoryless, so its bin readings there equal those on the full record.

    The mixer is memoryless and its transconductor a polynomial, so with
    every RF tone at peak ``A`` the port is ``A*b + e``, ``b`` the sum of
    the unit tone bases and ``e`` the LO leak, and every ray is
    ``sum_j A^j * P_j``.  The switch, ``b``, ``e`` and the term of each
    degree are made once, for any number of drives; each term is projected
    on every ray and dropped.
    The tones and the leak come from one common period (:func:`_pump`), as
    in :func:`_record`, and the switch from its LO voltage; each is used as
    it is where the rays keep that period, and repeated over their period
    where they do not.  A term or projection that overflows makes inf or
    NaN without a warning, and sets ``bound`` to inf.
    """
    s = _drive_period(s, rays)
    readouts = tuple(_readout(s.grid, f) for f in rays)
    n = s.grid.num_samples
    with np.errstate(all="ignore"):
        tones, leak, v_lo = _pump(s, (1.0,) * len(s.rf_tones))
        b, e, sw = (part if part.size == n else np.resize(part, n)
                    for part in (tones, leak, _switch(s.mixer.switch, v_lo)))
        extra_peak = float(max(e.max(), -e.min()))
        terms = [[_project(term, k, basis) for k, basis in readouts]
                 for term in _cubic_terms(s.mixer, sw, b, e)]
    scale = n * max(1.0, s.mixer.load.rd)
    bound = tuple(scale * abs(a) for a in reversed(s.mixer.transconductor.coefficients))
    if not np.isfinite(terms).all():
        bound = (math.inf,) * len(bound)
    return DriveCubic(tones=len(s.rf_tones), projections=tuple(zip(*reversed(terms))),
                      extra_peak=extra_peak, bound=bound)


def _port_ray(s: Scenario, frequency: float) -> float:
    """Amplitude of the ``frequency`` ray of the noise-free RF port of ``s``, unchecked.

    The port is :func:`_port`'s, the port of :func:`simulate` without its
    noise, read on the pump's period, so no mixer record is built and no
    switch evaluated.  A port or a projection that overflows reads inf or
    NaN without a warning.
    """
    with np.errstate(all="ignore"):
        port, _ = _port(s)
        # The pump's period keeps the sample rate of s.
        return abs(_project(port, *_readout(replace(s.grid, num_samples=port.size),
                                            frequency)))


def simulate(s: Scenario) -> TransientResult:
    """Run the transient: stimulus, leakage, noise, V-I conversion, switching.

    Pure function of the scenario (the noise generator is seeded from it),
    so identical scenarios produce identical results.  The record is
    :func:`_record`'s; each port is adopted as a signal, and so checked for
    non-finite samples, the RF port first.  Only the harmonic and transient
    outputs run it; every measurement reads a ray or the pump instead.
    """
    port, v_out = _record(s)
    return TransientResult(scenario=s, v_rf_port=SampledSignal._adopt(s.grid, port, "volt"),
                           v_out=SampledSignal._adopt(s.grid, v_out, "volt"))


# ---------------------------------------------------------------------------
# Scaled-grid construction


# Most parts the IF may be divided into by a plan ratio (see plan_ratio).
MAX_IF_DIVISIONS = 64


def plan_ratio(f_rf_hz: float, f_lo_hz: float) -> Tuple[int, int, int]:
    """Smallest integer (rf, lo, if) triple matching the physical plan.

    The RF and LO frequencies must be commensurate with their difference
    (1.9/1.8 GHz gives (19, 18, 1)); the IF may be subdivided at most
    ``MAX_IF_DIVISIONS`` times, which keeps accidental near-matches of
    irrational ratios from producing astronomically long records.
    """
    if not (f_rf_hz > f_lo_hz > 0):
        raise ValidationError(
            f"need f_rf > f_lo > 0 (a high-side LO is not supported), "
            f"got rf={f_rf_hz!r}, lo={f_lo_hz!r}")
    f_if_hz = f_rf_hz - f_lo_hz
    frac = Fraction(f_rf_hz / f_if_hz).limit_denominator(MAX_IF_DIVISIONS)
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
