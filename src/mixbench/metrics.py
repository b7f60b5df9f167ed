"""Figure-of-merit measurements: gain, compression, intercept, isolation, NF.

Every routine here drives the transient engine with a purpose-built stimulus
and reads exact grid bins, mirroring how the quantities are read off a
spectrum analyzer:

* conversion gain is the IF-bin amplitude over the stimulus amplitude;
* the 1 dB compression point comes from a power sweep, interpolated where
  the gain falls 1 dB below its weak-signal value;
* IIP3 comes from a two-tone run via ``delta/2 + per-tone power``;
* isolation is the LO ray observed at the RF port over the injected LO;
* noise figure is the power-ratio reading of output versus input noise
  density across the measured conversion gain.

The model is memoryless, so every noise-free simulation here runs on the
common period of its tones, its LO and the rays it reads; its bin readings
equal those on the full record to the last bits.  Noisy records keep theirs.

Every record comes from :mod:`engine`; this module only reads its bins.
Conversion gain, every compression-sweep point and the noise-figure gain
probe are read by :func:`_conversion_gains` from :func:`engine._points`,
the noise-figure record by :func:`_band_rows` from the pieces of
:func:`engine._segments`, and IIP3 and isolation from
:func:`engine.simulate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import tee
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .engine import Scenario, _points, _segments, simulate
from .errors import (
    CompressionNotFoundError,
    ImmeasurableIM3Error,
    NoCompressionError,
    StimulusTooHotError,
    ValidationError,
    WrongStimulusError,
)
from .signals import (
    ToneSpec,
    _band_stats,
    _check_finite,
    _exp_basis,
    _project,
    _readout_bin,
    amplitude_to_dbm,
    band_edges,
    bin_amplitude,
    dbm_to_amplitude,
    noise_band_bins,
)

# Below this power a ray is treated as numerically absent.
MEASUREMENT_FLOOR_DBM = -200.0
ISOLATION_FLOOR_DB = -200.0

# Most points a compression sweep may take; each point is one simulation.
MAX_SWEEP_POINTS = 10_000


@dataclass(frozen=True)
class GainSweepPoint:
    input_power_dbm: float
    output_power_dbm: float
    gain_db: float


def _sweep_point(input_dbm: float, output_dbm: float) -> GainSweepPoint:
    return GainSweepPoint(input_power_dbm=input_dbm, output_power_dbm=output_dbm,
                          gain_db=output_dbm - input_dbm)


@dataclass(frozen=True)
class P1dBResult:
    p1db_dbm: float
    small_signal_gain_db: float
    sweep: Tuple[GainSweepPoint, ...]


@dataclass(frozen=True)
class TwoToneResult:
    """Two-tone readings; ``iip3 = delta/2 + per-tone power`` by construction."""

    per_tone_dbm: float
    p_fund_dbm: float
    p_im3_dbm: float
    p_im3_mirror_dbm: float
    delta_db: float
    iip3_dbm: float


@dataclass(frozen=True)
class NoiseFigureSettings:
    """Band and averaging configuration for the noise-figure measurement.

    Both bands are ``band_width`` wide: the input band centred on the RF,
    the output band by default on the IF.  ``signal_out_frequency`` is where
    the conversion-gain probe ray is read; it too defaults to the IF, and
    both must be overridden for a non-translating device (e.g. a
    pass-through stage).
    """

    band_width: float
    segments: int = 32
    output_band_center: Optional[float] = None
    probe_power_dbm: float = -40.0
    signal_out_frequency: Optional[float] = None


@dataclass(frozen=True)
class NoiseFigureResult:
    nf_db: float
    input_density: float
    output_density: float
    gain_db: float
    warning: Optional[str] = None


def _on_common_period(s: Scenario, *rays: float) -> Scenario:
    """``s``, if noise-free, on the common period of its tones, LO and ``rays``."""
    if s.input_noise_density > 0:
        return s
    grid = s.grid.common_period((*(t.frequency for t in s.rf_tones), s.f_lo, *rays))
    return s if grid == s.grid else replace(s, grid=grid)


def check_drive(amplitude: float):
    """Raise WrongStimulusError unless a gain can be read at RF peak ``amplitude``: it is > 0."""
    if not amplitude > 0:
        raise WrongStimulusError("conversion gain needs a non-silent RF tone")


def _conversion_gains(s: Scenario, ray: float, amplitudes: Iterable[float]) -> List[float]:
    """Gain in dB of single-tone ``s`` read at ``ray``, at each RF peak amplitude, in order.

    Each point is the ``v_out`` of :func:`engine._points` on the common
    period of ``s`` and ``ray``, read as :func:`signals.bin_value` reads it
    and, when that reading is not finite, scanned for non-finite samples.
    ``amplitudes`` is consumed one point at a time, so a point that fails
    raises after every point before it has run.
    """
    if len(s.rf_tones) != 1:
        raise WrongStimulusError(
            f"conversion gain needs a single RF tone, got {len(s.rf_tones)}")
    s = _on_common_period(s, ray)
    k = _readout_bin(s.grid, ray)
    readout = _exp_basis(s.grid.num_samples, k)
    amplitudes, drives = tee(amplitudes)
    gains = []
    for amp_in, v_out in zip(amplitudes, _points(s, drives)):
        check_drive(amp_in)
        amp_out = abs(_project(v_out, k, readout))
        if not math.isfinite(amp_out):
            # A non-finite sample always makes the projection non-finite;
            # a finite record whose sum overflows reads inf.
            _check_finite(v_out)
        gains.append(-math.inf if amp_out <= 0 else 20.0 * math.log10(amp_out / amp_in))
    return gains


def measure_conversion_gain(s: Scenario) -> float:
    """Conversion gain in dB of a single-tone scenario, read at the IF bin of its period.

    The one-amplitude case of :func:`_conversion_gains`: a noise-free
    scenario runs on its common period, a noisy one on its full grid.
    """
    return _conversion_gains(s, s.f_if, (s.rf_tones[0].peak_amplitude(),))[0]


def sweep_size(power_range: Tuple[float, float], step: float) -> int:
    """Number of points of a compression sweep: ``lo, lo + step, ...`` up to ``hi``.

    Raises ValidationError unless the sweep has 2 to ``MAX_SWEEP_POINTS``
    points, the least interpolation needs and the most work allowed.
    """
    lo_dbm, hi_dbm = power_range
    if not (hi_dbm > lo_dbm and step > 0):
        raise ValidationError(f"bad sweep range {power_range!r} step {step!r}")
    steps = (hi_dbm - lo_dbm) / step + 1e-9
    if not steps < MAX_SWEEP_POINTS:
        raise ValidationError(
            f"sweep range {power_range!r} at step {step!r} takes more than "
            f"{MAX_SWEEP_POINTS} points")
    size = int(math.floor(steps)) + 1
    if size < 2:
        raise ValidationError("sweep range too narrow for interpolation")
    return size


def measure_p1db(s: Scenario, power_range: Tuple[float, float] = (-40.0, 0.0),
                 step: float = 0.5) -> P1dBResult:
    """Sweep the RF power and locate the 1 dB gain-compression point.

    The small-signal reference is the gain measured at the lowest sweep
    power, so the procedure works for any device model, and the crossing is
    interpolated linearly in (input dBm, gain dB) between bracketing points.
    Every point's gain equals :func:`measure_conversion_gain` of ``s`` at
    that power; all points come from one :func:`_conversion_gains` call,
    which raises for the first point that fails.
    """
    if not s.mixer.transconductor.a3 < 0:
        raise NoCompressionError(
            f"a3 must be < 0 for compression, got {s.mixer.transconductor.a3!r}")
    lo_dbm, hi_dbm = power_range
    powers = [lo_dbm + i * step for i in range(sweep_size(power_range, step))]
    gains = _conversion_gains(s, s.f_if, (dbm_to_amplitude(p_in) for p_in in powers))
    sweep = [_sweep_point(p_in, p_in + gain) for p_in, gain in zip(powers, gains)]

    ref_gain = sweep[0].gain_db
    threshold = ref_gain - 1.0
    for prev, cur in zip(sweep, sweep[1:]):
        if prev.gain_db >= threshold and cur.gain_db < threshold:
            frac = (threshold - prev.gain_db) / (cur.gain_db - prev.gain_db)
            p1db = prev.input_power_dbm + frac * (cur.input_power_dbm
                                                  - prev.input_power_dbm)
            return P1dBResult(p1db_dbm=p1db, small_signal_gain_db=ref_gain,
                              sweep=tuple(sweep))
    raise CompressionNotFoundError(
        f"gain never dropped 1 dB below {ref_gain:.3f} dB within "
        f"[{lo_dbm}, {hi_dbm}] dBm", sweep=sweep)


def two_tone_variant(s: Scenario, tone_spacing: Optional[float] = None) -> Scenario:
    """Derive a two-tone scenario from a single-tone one.

    The second tone sits ``tone_spacing`` above the first (default: half the
    IF), which keeps the down-converted third-order products on-grid and
    clear of the fundamentals.
    """
    if len(s.rf_tones) != 1:
        raise WrongStimulusError("two_tone_variant expects a single-tone scenario")
    base = s.rf_tones[0]
    spacing = tone_spacing if tone_spacing is not None else s.f_if / 2.0
    if spacing <= 0:
        raise ValidationError(f"tone spacing must be > 0, got {spacing!r}")
    second = ToneSpec(frequency=base.frequency + spacing,
                      power_dbm=base.power_dbm,
                      amplitude=base.amplitude, phase=base.phase)
    return replace(s, rf_tones=(base, second))


def two_tone_rays(s: Scenario) -> Tuple[float, float, float]:
    """Fundamental and IM3 output rays of two distinct tones; each on a bin in (0, Nyquist)."""
    if len(s.rf_tones) != 2:
        raise WrongStimulusError(
            f"IIP3 needs a two-tone scenario, got {len(s.rf_tones)} tones")
    f1, f2 = sorted(t.frequency for t in s.rf_tones)
    if f1 == f2:
        raise WrongStimulusError("the two RF tones must differ in frequency")
    rays = (abs(f1 - s.f_lo), abs(2.0 * f1 - f2 - s.f_lo), abs(2.0 * f2 - f1 - s.f_lo))
    for label, f in zip(("fundamental ray", "IM3 ray", "mirror IM3 ray"), rays):
        s.grid.bin_index(f, label)
        if not 0 < f < s.grid.nyquist:
            raise ValidationError(f"{label} at {f!r} is not representable")
    return rays


def measure_iip3(s: Scenario, per_tone_power_dbm: float) -> TwoToneResult:
    """Two-tone intercept: drive both tones equally and read the IM3 rays.

    The reported IM3 is the larger of the two mirror products (equal for a
    symmetric cubic).  A companion run 20 dB colder guards against a drive
    outside the weak-signal range: the gain may move by at most 0.5 dB
    either way, down in compression or up where the cubic overdrives.  At
    a tone spacing whose bin is coprime to the grid, the common period is
    the full grid.
    """
    f_fund, f_im3_low, f_im3_high = two_tone_rays(s)
    s = _on_common_period(s, f_fund, f_im3_low, f_im3_high)

    hot = simulate(s.with_rf_power(per_tone_power_dbm))
    p_fund, p_im3, p_mirror = (bin_amplitude(hot.v_out, f).power_dbm
                               for f in (f_fund, f_im3_low, f_im3_high))
    p_im3_used = max(p_im3, p_mirror)
    if p_im3_used < MEASUREMENT_FLOOR_DBM:
        raise ImmeasurableIM3Error(
            f"IM3 ray below {MEASUREMENT_FLOOR_DBM} dBm; the device has no "
            f"cubic nonlinearity")

    cold = simulate(s.with_rf_power(per_tone_power_dbm - 20.0))
    amp_cold = bin_amplitude(cold.v_out, f_fund).amplitude
    gain_hot = p_fund - per_tone_power_dbm
    gain_cold = amplitude_to_dbm(amp_cold) - (per_tone_power_dbm - 20.0)
    if abs(gain_cold - gain_hot) > 0.5:
        raise StimulusTooHotError(
            f"gain moves {gain_hot - gain_cold:+.2f} dB from "
            f"{per_tone_power_dbm - 20.0} to {per_tone_power_dbm} dBm per tone, "
            f"outside the weak-signal range; reduce the drive")

    delta = p_fund - p_im3_used
    return TwoToneResult(per_tone_dbm=per_tone_power_dbm, p_fund_dbm=p_fund,
                         p_im3_dbm=p_im3_used, p_im3_mirror_dbm=p_mirror,
                         delta_db=delta,
                         iip3_dbm=delta / 2.0 + per_tone_power_dbm)


def measure_isolation(s: Scenario) -> float:
    """LO-to-RF isolation in dB: LO ray at the RF port over injected LO, on the period."""
    a_lo = s.lo_tone.peak_amplitude()
    if a_lo <= 0:
        raise WrongStimulusError("isolation needs an active LO tone")
    result = simulate(_on_common_period(s, s.f_lo))
    a_leak = bin_amplitude(result.v_rf_port, s.f_lo).amplitude
    ratio = a_leak / a_lo
    if 20.0 * math.log10(max(ratio, 1e-300)) <= ISOLATION_FLOOR_DB:
        return ISOLATION_FLOOR_DB
    return 20.0 * math.log10(ratio)


def noise_figure_from_densities(output_density: float, input_density: float,
                                gain_db: float) -> float:
    """Power-ratio noise figure from voltage noise densities and gain.

    NF = 10*log10(N_out^2 / (N_in^2 * G_power)), i.e. the output noise power
    density over the input noise power density times the power gain.
    """
    if not (output_density > 0 and input_density > 0):
        raise ValueError("noise densities must be > 0")
    g_amp = 10.0 ** (gain_db / 20.0)
    return 20.0 * math.log10(output_density / (input_density * g_amp))


def noise_figure_setup(s: Scenario, settings: NoiseFigureSettings
                       ) -> Tuple[Tuple[np.ndarray, np.ndarray], Scenario, float]:
    """Noise-band bins and gain probe of a noise-figure measurement.

    Returns ``(bins, probe, f_signal_out)``.  ``bins`` holds the
    periodogram bins (:func:`signals.noise_band_bins`) of the input and the
    output band; the input band masks the stimulus, the output band also
    every mixing product and odd LO harmonic up to its top edge.  ``probe``
    is a noise-free clone carrying a single probe tone at the RF
    frequency, on the common period of RF, LO and the read-out ray
    ``f_signal_out``.

    Everything here is decided before any simulation, so it raises for
    settings the measurement would fail on without running it.
    """
    if not s.input_noise_density > 0:
        raise ValueError("scenario has zero input noise density; nothing to measure")
    out_center = settings.output_band_center if settings.output_band_center is not None \
        else s.f_if
    f_signal_out = settings.signal_out_frequency if settings.signal_out_frequency \
        is not None else s.f_if
    width = settings.band_width

    # Below Nyquist, the output band bounds the LO harmonics listed next.
    band_edges(s.grid, out_center, width)
    stimulus = [t.frequency for t in s.rf_tones] + [s.f_lo]
    out_rays = list(stimulus)
    for f in (t.frequency for t in s.rf_tones):
        out_rays += [abs(f - s.f_lo), f + s.f_lo]
    k = 1
    while k * s.f_lo <= out_center + width:
        out_rays.append(k * s.f_lo)
        k += 2
    bins = tuple(noise_band_bins(s.grid, center, width, settings.segments, mask)
                 for center, mask in ((s.f_rf, stimulus), (out_center, out_rays)))

    probe_tone = ToneSpec(frequency=s.f_rf, power_dbm=settings.probe_power_dbm,
                          phase=s.rf_tones[0].phase)
    quiet = replace(s, rf_tones=(probe_tone,), input_noise_density=0.0,
                    input_noise_band=None)
    return bins, _on_common_period(quiet, f_signal_out), f_signal_out


def _band_rows(s: Scenario, segments: int,
               bins: Tuple[np.ndarray, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Periodogram rows of the RF port and of ``v_out`` of ``s``, at ``bins``.

    Row ``j`` is the rFFT of piece ``j`` of :func:`engine._segments`, whose
    ``v_out`` is scanned for non-finite samples, in ``order="F"`` arrays as
    :func:`signals._band_stats` wants them; the record never exists whole.
    """
    rows = tuple(np.empty((segments, used.size), dtype=np.complex128, order="F")
                 for used in bins)
    for j, (port, _, _, v_out) in enumerate(_segments(s, segments)):
        _check_finite(v_out)
        for row, node, used in zip(rows, (port, v_out), bins):
            row[j] = np.fft.rfft(node)[used]
    return rows


def measure_noise_figure(s: Scenario, settings: NoiseFigureSettings, *,
                         _setup: Optional[Tuple] = None) -> NoiseFigureResult:
    """Noise figure of a scenario with injected input noise.

    The input density is estimated at the RF port, the output density at the
    mixer output, both with stimulus rays masked out of the averaging, on
    the scenario's full record.  The record is run one periodogram segment
    at a time (:func:`_band_rows`), which gives the densities and spreads
    of simulating it whole to the last bits, in a working set of a few
    segments.  The conversion gain is read by :func:`_conversion_gains`
    on a noise-free clone carrying a small probe tone, so the same
    procedure covers any device configuration.  ``_setup`` is the result
    of :func:`noise_figure_setup` when the caller has built it already.
    """
    bins, probe, f_signal_out = _setup or noise_figure_setup(s, settings)
    n_in, n_out = (_band_stats(s.grid, rows)
                   for rows in _band_rows(s, settings.segments, bins))
    if n_in.density <= 0:
        raise ValueError("input noise density estimate is zero")

    gain_db = _conversion_gains(probe, f_signal_out, (probe.rf_tones[0].peak_amplitude(),))[0]
    if gain_db == -math.inf:
        raise WrongStimulusError(
            f"no conversion ray at {f_signal_out!r}; check signal_out_frequency")

    nf = noise_figure_from_densities(n_out.density, n_in.density, gain_db)
    warning = None
    spread = max(n_in.relative_spread, n_out.relative_spread)
    if spread > 0.10:
        warning = (f"unstable estimate: periodogram spread {spread:.1%} exceeds "
                   f"10%; increase segments or bandwidth")
    return NoiseFigureResult(nf_db=nf, input_density=n_in.density,
                             output_density=n_out.density, gain_db=gain_db,
                             warning=warning)


# ---------------------------------------------------------------------------
# Reference design


@dataclass(frozen=True)
class ReferenceDesign:
    """Published 65 nm single-balanced design this bench is calibrated against."""

    technology_um: float = 0.065
    rf_ghz: float = 1.9
    conversion_gain_db: float = 12.42
    noise_figure_db: float = 8.92
    p1db_dbm: float = -11.5
    iip3_dbm: float = 6.0
    power_w: float = 2.0e-3
    # Reported operating-point noise densities and simulated gain, used for
    # the formula cross-check of the noise figure.
    input_noise_density: float = 0.383e-9
    output_noise_density: float = 4.266e-9
    simulated_gain_db: float = 12.425


REFERENCE_65NM = ReferenceDesign()


def reference_formula_noise_figure(ref: ReferenceDesign = REFERENCE_65NM) -> float:
    """Noise figure implied by the reference design's own densities and gain."""
    return noise_figure_from_densities(ref.output_noise_density,
                                       ref.input_noise_density,
                                       ref.simulated_gain_db)
