"""Sampled signals, coherent-grid spectral readout and noise-density estimation.

Everything downstream (device models, the mixer engine, the measurement
routines) works in terms of :class:`SampledSignal` values living on a
:class:`SimGrid`.  The grid enforces coherent sampling: every stimulus and
every analyzed ray must fall on an exact DFT bin, so single-bin readings are
leakage-free and need no window.

Amplitudes are volts peak throughout; dBm conversions assume the global
50 ohm reference impedance.

Tone and bin bases are kept in the byte-bounded memo of :mod:`memo`, per
grid length and bin, so repeated simulations and readouts on one grid
compute each basis once; the outputs are bit-identical to evaluating the
direct formula every time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from . import memo
from .errors import (
    AliasingError,
    CoherenceError,
    InsufficientBandwidthError,
    ValidationError,
)

# Global reference impedance for all power <-> amplitude conversions.
REFERENCE_IMPEDANCE_OHMS = 50.0

# Relative tolerance when deciding whether a frequency sits on a grid bin.
_COHERENCE_RTOL = 1e-9


@dataclass(frozen=True)
class SimGrid:
    """Uniform sampling grid with a coherent-frequency contract.

    Attributes
    ----------
    sample_rate : float
        Samples per second (Hz).
    num_samples : int
        Record length; at least 16 and even, so the record always has a
        well-defined Nyquist bin.
    """

    sample_rate: float
    num_samples: int

    def __post_init__(self):
        if not (self.sample_rate > 0 and math.isfinite(self.sample_rate)):
            raise ValidationError(f"sample_rate must be positive, got {self.sample_rate!r}")
        if self.num_samples < 16:
            raise ValidationError(f"num_samples must be >= 16, got {self.num_samples}")
        if self.num_samples % 2 != 0:
            raise ValidationError(f"num_samples must be even, got {self.num_samples}")

    @property
    def resolution(self) -> float:
        """Bin spacing in Hz."""
        return self.sample_rate / self.num_samples

    @property
    def nyquist(self) -> float:
        return self.sample_rate / 2.0

    def bin_index(self, frequency: float, context: str = "") -> int:
        """Map a coherent frequency to its bin index, or raise CoherenceError."""
        ratio = frequency / self.resolution
        k = round(ratio)
        if abs(ratio - k) > _COHERENCE_RTOL * max(1.0, abs(ratio)):
            raise CoherenceError(frequency, self.resolution, context)
        return int(k)

    def times(self) -> np.ndarray:
        return np.arange(self.num_samples) / self.sample_rate

    def common_period(self, frequencies: Tuple[float, ...]) -> "SimGrid":
        """Shortest valid grid at this sample rate with every frequency on a bin.

        Its record spans N/g samples, g being the gcd of N and the bin
        indices (g lowered to a divisor where N/g would be odd or under 16
        samples), so it holds the first N/g sample times of this grid.  A
        memoryless response to tones at ``frequencies`` repeats with that
        period, and its bin readings on the short grid equal those on the
        full record.
        """
        g = self.num_samples
        for f in frequencies:
            g = math.gcd(g, self.bin_index(f, "common period"))
        period = self.num_samples // g
        m = next(m for m in range(1, g + 1)
                 if g % m == 0 and period * m % 2 == 0 and period * m >= 16)
        return SimGrid(sample_rate=self.sample_rate, num_samples=period * m)


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """A real-valued waveform on a grid, tagged with its physical unit.

    The samples are a read-only float64 array.  The public constructor
    copies what the caller passes, so the caller's array stays its own;
    every signal the package computes instead adopts the fresh array it has
    just built (:meth:`_adopt`) without a copy.  Both paths check the unit,
    the shape and that every sample is finite.  ``simulate`` computes on
    plain arrays and builds only its output voltage this way; its other
    nodes are adopted when first read.
    """

    grid: SimGrid
    samples: np.ndarray
    unit: str = "volt"

    _UNITS = ("volt", "ampere", "dimensionless")

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        self._check()

    @classmethod
    def _adopt(cls, grid: SimGrid, samples: np.ndarray, unit: str) -> "SampledSignal":
        """Signal owning ``samples``, a float64 array no one else writes to.

        The array is made read-only in place rather than copied.
        """
        if samples.dtype != np.float64:
            raise ValidationError(f"samples must be float64, got {samples.dtype}")
        signal = object.__new__(cls)
        for name, value in (("grid", grid), ("samples", samples), ("unit", unit)):
            object.__setattr__(signal, name, value)
        samples.setflags(write=False)
        signal._check()
        return signal

    def _check(self):
        if self.unit not in self._UNITS:
            raise ValidationError(f"unknown unit {self.unit!r}")
        if self.samples.shape != (self.grid.num_samples,):
            raise ValidationError(
                f"samples length {self.samples.shape} does not match grid "
                f"num_samples {self.grid.num_samples}")
        _check_finite(self.samples)

    def __len__(self) -> int:
        return self.grid.num_samples


def _check_finite(samples: np.ndarray):
    """Raise ValidationError unless every sample is finite."""
    if not np.isfinite(samples).all():
        raise ValidationError("signal contains non-finite samples")


@dataclass(frozen=True)
class ToneSpec:
    """A single cosine stimulus.

    Exactly one of ``power_dbm`` (into the 50 ohm reference) or
    ``amplitude`` (volts peak) must be given.  A zero-amplitude tone is a
    legal way to express "port present but silent".
    """

    frequency: float
    power_dbm: Optional[float] = None
    amplitude: Optional[float] = None
    phase: float = 0.0

    def __post_init__(self):
        if not (self.frequency > 0 and math.isfinite(self.frequency)):
            raise ValidationError(f"tone frequency must be > 0, got {self.frequency!r}")
        if (self.power_dbm is None) == (self.amplitude is None):
            raise ValidationError("specify exactly one of power_dbm or amplitude")
        if self.amplitude is not None and self.amplitude < 0:
            raise ValidationError(f"tone amplitude must be >= 0, got {self.amplitude!r}")

    def peak_amplitude(self) -> float:
        """Peak amplitude in volts implied by the power or amplitude field."""
        if self.amplitude is not None:
            return float(self.amplitude)
        return dbm_to_amplitude(self.power_dbm)

    def with_power(self, power_dbm: float) -> "ToneSpec":
        return ToneSpec(frequency=self.frequency, power_dbm=power_dbm, phase=self.phase)


@dataclass(frozen=True)
class SpectrumLine:
    """One spectral ray: frequency, peak amplitude, and power in dBm."""

    frequency: float
    amplitude: float
    power_dbm: float

    @classmethod
    def from_amplitude(cls, frequency: float, amplitude: float) -> "SpectrumLine":
        power = amplitude_to_dbm(amplitude) if amplitude > 0 else -math.inf
        return cls(frequency=frequency, amplitude=amplitude, power_dbm=power)


def amplitude_to_dbm(amplitude: float) -> float:
    """Peak voltage into the 50 ohm reference -> power in dBm."""
    if not amplitude > 0:
        raise ValueError(f"amplitude must be > 0, got {amplitude!r}")
    power_w = (amplitude * amplitude / 2.0) / REFERENCE_IMPEDANCE_OHMS
    return 10.0 * math.log10(power_w / 1e-3)


def dbm_to_amplitude(power_dbm: float) -> float:
    """Power in dBm into the 50 ohm reference -> peak voltage.

    Raises ValidationError for a power whose peak voltage is not a finite
    float (NaN, or above about 3,080 dBm).
    """
    try:
        power_w = 1e-3 * 10.0 ** (power_dbm / 10.0)
    except OverflowError:
        power_w = math.inf
    amplitude = math.sqrt(2.0 * power_w * REFERENCE_IMPEDANCE_OHMS)
    if not math.isfinite(amplitude):
        raise ValidationError(f"{power_dbm!r} dBm has no finite peak voltage")
    return amplitude


@memo.memoised
def _cos_basis(num_samples: int, k: int, phase: float) -> np.ndarray:
    """Read-only ``cos(2 pi k n / N + phase)`` for n = 0..N-1.

    Built in place in one float64 array, each step the operation the
    formula takes in that order, so a cold basis peaks at its own size and
    keeps the formula's bits.
    """
    basis = np.arange(num_samples, dtype=np.float64)
    basis *= 2.0 * np.pi * k
    basis /= num_samples
    basis += phase
    np.cos(basis, out=basis)
    basis.setflags(write=False)
    return basis


@memo.memoised
def _exp_basis(num_samples: int, k: int) -> np.ndarray:
    """Read-only ``exp(-2j pi k n / N)`` for n = 0..N-1.

    Built in place in one complex128 array like :func:`_cos_basis`, to the
    formula's bits.
    """
    basis = np.arange(num_samples, dtype=np.complex128)
    basis *= -2j * np.pi * k
    basis /= num_samples
    np.exp(basis, out=basis)
    basis.setflags(write=False)
    return basis


def _tone_basis(grid: SimGrid, tone: ToneSpec, cos_basis=_cos_basis) -> np.ndarray:
    """The unit-amplitude ``cos(2 pi f t + phi)`` of ``tone`` on the grid.

    ``cos_basis(N, k, phase)`` makes it: memoised by default, its
    ``__wrapped__`` for a basis that should not enter the memo.  The tone
    must be coherent with the grid and strictly below Nyquist.
    """
    if tone.frequency >= grid.nyquist:
        raise AliasingError(tone.frequency, grid.nyquist, "tone")
    k = grid.bin_index(tone.frequency, "tone")
    return cos_basis(grid.num_samples, k, tone.phase)


def synthesize_tone(grid: SimGrid, tone: ToneSpec) -> SampledSignal:
    """Sample ``A cos(2 pi f t + phi)`` on the grid.

    The tone must be coherent with the grid and strictly below Nyquist.
    """
    basis = _tone_basis(grid, tone)
    return SampledSignal._adopt(grid, tone.peak_amplitude() * basis, "volt")


def bin_value(signal: SampledSignal, frequency: float) -> complex:
    """Complex single-bin projection, scaled so a peak-A tone reads A.

    This is the single-frequency correlation behind :func:`bin_amplitude`;
    it is deliberately independent of the FFT paths used elsewhere so the
    two can cross-check each other.  The DC bin returns the record mean.
    """
    k = _readout_bin(signal.grid, frequency)
    return _project(signal.samples, k, _exp_basis(signal.grid.num_samples, k))


def _readout_bin(grid: SimGrid, frequency: float) -> int:
    """Bin of a ray read on ``grid``: coherent, below Nyquist and not negative."""
    k = grid.bin_index(frequency, "bin readout")
    if frequency >= grid.nyquist:
        raise AliasingError(frequency, grid.nyquist, "bin readout")
    if k < 0:
        raise ValidationError(f"negative frequency {frequency!r}")
    return k


def _project(samples: np.ndarray, k: int, basis: np.ndarray) -> complex:
    """Projection of ``samples`` on the bin-``k`` basis, scaled so a peak-A tone reads A."""
    c = np.dot(samples, basis)
    scale = 1.0 / samples.size if k == 0 else 2.0 / samples.size
    return complex(c * scale)


def bin_amplitude(signal: SampledSignal, frequency: float) -> SpectrumLine:
    """Peak amplitude and power of the ray at an exact grid bin."""
    return SpectrumLine.from_amplitude(frequency, abs(bin_value(signal, frequency)))


def harmonic_table(signal: SampledSignal, fundamental: float, order: int) -> Tuple[SpectrumLine, ...]:
    """Rays at k * fundamental for k = 1..order.

    All requested harmonics must be below Nyquist.  Each ray is read once,
    so its basis is computed without entering the memo that repeated
    readouts reuse.
    """
    grid = signal.grid
    check_harmonic_order(grid, fundamental, order)
    lines = []
    for f in (h * fundamental for h in range(1, order + 1)):
        k = _readout_bin(grid, f)
        value = _project(signal.samples, k, _exp_basis.__wrapped__(grid.num_samples, k))
        lines.append(SpectrumLine.from_amplitude(f, abs(value)))
    return tuple(lines)


def check_harmonic_order(grid: SimGrid, fundamental: float, order: int):
    """Raise unless ``order`` >= 1 and ``order * fundamental`` lies below Nyquist."""
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    if order * fundamental >= grid.nyquist:
        raise AliasingError(order * fundamental, grid.nyquist,
                            f"harmonic {order} of {fundamental!r}")


def check_noise_band(grid: SimGrid, band: Tuple[float, float]):
    """Raise unless ``band`` is a noise band on ``grid``: 0 <= lo < hi <= Nyquist."""
    lo, hi = band
    if not (0 <= lo < hi):
        raise ValidationError(f"bad noise band {band!r}")
    if hi > grid.nyquist:
        raise AliasingError(hi, grid.nyquist, "noise band")


def white_noise(grid: SimGrid, density: float, seed: int,
                band: Optional[Tuple[float, float]] = None) -> SampledSignal:
    """Seeded Gaussian noise with one-sided density ``density`` V/sqrt(Hz).

    The per-sample standard deviation is ``density * sqrt(fs / 2)`` so the
    flat one-sided spectral density comes out at the requested value.  When
    ``band`` is given the spectrum is brick-wall limited to that range (the
    DC bin is always cleared); bins inside the band keep their statistics.
    The record is the one segment of :func:`_noise_segments`, which can
    also hand the same record out a segment at a time.
    """
    samples = next(_noise_segments(grid, density, seed, band, 1))
    return SampledSignal._adopt(grid, samples, "volt")


def _noise_segments(grid: SimGrid, density: float, seed: int,
                    band: Optional[Tuple[float, float]],
                    segments: int) -> Iterator[np.ndarray]:
    """The :func:`white_noise` record in ``segments`` consecutive equal pieces, unchecked.

    White noise is drawn a piece at a time from one generator, which gives
    the bits of one draw of the whole record, so no more than a piece of it
    exists at once.  Band-limited noise is made whole, since its brick-wall
    filter spans the record, and handed out in slices.  ``segments`` must
    divide the record length.
    """
    if density < 0:
        raise ValueError(f"noise density must be >= 0, got {density!r}")
    seg_len = grid.num_samples // segments
    if density == 0.0:
        for _ in range(segments):
            yield np.zeros(seg_len)
        return
    if band is not None:
        check_noise_band(grid, band)
    rng = np.random.default_rng(seed)
    sigma = density * math.sqrt(grid.sample_rate / 2.0)
    if band is None:
        for _ in range(segments):
            yield rng.standard_normal(seg_len) * sigma
        return
    lo, hi = band
    spectrum = np.fft.rfft(rng.standard_normal(grid.num_samples) * sigma)
    freqs = np.arange(spectrum.size) * grid.resolution
    keep = (freqs >= lo) & (freqs <= hi)
    keep[0] = False
    spectrum[~keep] = 0.0
    samples = np.fft.irfft(spectrum, grid.num_samples)
    del spectrum, freqs, keep  # only the record lives while it is handed out
    for j in range(segments):
        yield samples[j * seg_len:(j + 1) * seg_len]


class BandNoiseStats(NamedTuple):
    density: float          # V/sqrt(Hz) over the unmasked band bins
    relative_spread: float  # relative standard error of the band power mean
    bins_used: int
    segments: int


def band_edges(grid: SimGrid, band_center: float, band_width: float
               ) -> Tuple[float, float]:
    """``(lo, hi)`` of a band, which must lie within (0, Nyquist) of ``grid``."""
    lo = band_center - band_width / 2.0
    hi = band_center + band_width / 2.0
    if lo < 0 or hi >= grid.nyquist:
        raise ValidationError(
            f"band [{lo!r}, {hi!r}] must lie within (0, Nyquist={grid.nyquist!r})")
    return lo, hi


def noise_band_bins(grid: SimGrid, band_center: float, band_width: float,
                    segments: int,
                    mask_frequencies: Iterable[float] = ()) -> np.ndarray:
    """Periodogram bins a band estimate on ``grid`` averages over.

    Raises for settings no estimate can use (too few segments, a segment
    count that does not divide the record, a band outside (0, Nyquist) or
    one left with under 2 unmasked bins), without touching any samples.
    """
    if segments < 4:
        raise ValidationError(f"segments must be >= 4, got {segments}")
    if grid.num_samples % segments != 0:
        raise ValidationError(
            f"record length {grid.num_samples} not divisible by {segments} segments")
    lo, hi = band_edges(grid, band_center, band_width)
    seg_len = grid.num_samples // segments
    seg_res = grid.sample_rate / seg_len
    # DC and Nyquist are excluded.
    k_lo = max(1, math.ceil(lo / seg_res - 1e-12))
    k_hi = min(seg_len // 2 - 1, math.floor(hi / seg_res + 1e-12))
    if k_hi < k_lo:
        raise InsufficientBandwidthError(
            f"band [{lo!r}, {hi!r}] contains no usable periodogram bins")
    bins = np.arange(k_lo, k_hi + 1)

    masked = np.zeros(bins.size, dtype=bool)
    for f in mask_frequencies:
        kf = f / seg_res
        # Exact stimulus bins plus one guard bin each side.
        lo_k = math.floor(kf) - 1
        hi_k = math.ceil(kf) + 1
        masked |= (bins >= lo_k) & (bins <= hi_k)
    used = bins[~masked]
    if used.size < 2:
        raise InsufficientBandwidthError(
            f"fewer than 2 unmasked bins left in band [{lo!r}, {hi!r}]")
    return used


def _band_noise_stats(signal: SampledSignal, band_center: float, band_width: float,
                      segments: int,
                      mask_frequencies: Iterable[float] = ()) -> BandNoiseStats:
    """Averaged-periodogram band statistics behind :func:`noise_density`."""
    grid = signal.grid
    used = noise_band_bins(grid, band_center, band_width, segments, mask_frequencies)
    chunks = signal.samples.reshape(segments, grid.num_samples // segments)
    return _band_stats(grid, np.fft.rfft(chunks, axis=1)[:, used])


def _band_stats(grid: SimGrid, band: np.ndarray) -> BandNoiseStats:
    """Band statistics of a record on ``grid`` from its periodogram rows.

    ``band`` holds one row per segment of the record: the segment's rFFT at
    the band bins :func:`noise_band_bins` chose.  Its memory layout decides
    the order of the sums, so the bits of the result: a row-by-row build
    keeps those of ``rfft(chunks, axis=1)[:, used]`` when it writes an
    ``order="F"`` array, the layout that indexing returns.
    """
    segments, bins_used = band.shape
    seg_len = grid.num_samples // segments
    # One-sided periodogram in V^2/Hz.
    band_psd = (np.abs(band) ** 2) * (2.0 / (grid.sample_rate * seg_len))
    mean_power = float(band_psd.mean())
    per_segment = band_psd.mean(axis=1)
    spread = float(per_segment.std(ddof=1) / math.sqrt(segments) / mean_power) \
        if mean_power > 0 else 0.0
    return BandNoiseStats(density=math.sqrt(mean_power), relative_spread=spread,
                          bins_used=bins_used, segments=segments)


def noise_density(signal: SampledSignal, band_center: float, band_width: float,
                  segments: int, mask_frequencies: Iterable[float] = ()) -> float:
    """One-sided voltage noise density over a band, in V/sqrt(Hz).

    The record is split into non-overlapping segments, rectangular-window
    periodograms are averaged, and the band power is taken over the bins in
    ``[band_center - band_width/2, band_center + band_width/2]``.  Any
    frequency listed in ``mask_frequencies`` is removed along with one guard
    bin on each side, separating deterministic rays from the noise floor.
    """
    return _band_noise_stats(signal, band_center, band_width, segments,
                             mask_frequencies).density
