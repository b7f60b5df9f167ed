"""Figure-of-merit measurements: gain, compression, intercept, isolation, NF.

Every routine here drives the transient engine with a purpose-built stimulus
and reads exact grid bins, mirroring how the quantities are read off a
spectrum analyzer:

* conversion gain is the IF-bin amplitude over the stimulus amplitude;
* the 1 dB compression point comes from a power sweep, interpolated where
  the gain falls 1 dB below its weak-signal value;
* IIP3 comes from a two-tone run via ``delta/2 + per-tone power``;
* isolation is the LO ray observed at the RF port over the injected LO;
* noise figure is the output noise density over the input density times
  the measured conversion gain, the output density read from the mixer's
  periodic small-signal gain (:func:`periodic_noise_figure`) or, as the
  tests' reference, estimated from a noisy record
  (:func:`measure_noise_figure`).

Every ray comes from :mod:`engine`, which picks its grid, its readout and
how it is read; this module only turns ray amplitudes into figures.
Conversion gain, every compression-sweep point, the noise-figure gain
probe and the two drives of IIP3 are read from one
:func:`engine._drive_cubic` per measurement (:meth:`engine.DriveCubic.rays`;
a run's conversion gain and compression sweep share one, and the sweep
reads all its points at once through :meth:`engine.DriveCubic.sweep`),
isolation from the noise-free RF port of :func:`engine._port_ray`, and
the noise figure from the mixer's small-signal gain on the pump's period
(:func:`engine._small_signal_gain`); this module builds no mixer waveform
of its own.  All of them read the noise-free mixer, whatever noise the
scenario carries: the input noise enters the noise figure only through its
configured density.  None builds a mixer record but the Monte-Carlo
reference, which reads the periodograms of a whole noisy record
(:func:`engine._record`); a drive its cubic cannot vouch for fails by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, List, Optional, Tuple

import numpy as np

from .devices import _check_compression
from .engine import DriveCubic, Scenario, _drive_cubic, _port_ray, _record, _small_signal_gain
from .errors import (
    CompressionNotFoundError,
    ImmeasurableIM3Error,
    NonFiniteReadingError,
    StimulusTooHotError,
    ValidationError,
    WrongStimulusError,
)
from .signals import (
    SpectrumLine,
    ToneSpec,
    _band_stats,
    _check_finite,
    amplitude_to_dbm,
    band_edges,
    dbm_to_amplitude,
    noise_band_bins,
)

# Below this power a ray is treated as numerically absent.
MEASUREMENT_FLOOR_DBM = -200.0
ISOLATION_FLOOR_DB = -200.0

# Most points a compression sweep may take.  A sweep the cubic cannot read
# at once is read point by point, so the bound keeps that work in hand.
MAX_SWEEP_POINTS = 10_000


# A compression sweep as columns, in sweep order: input power in dBm,
# output power in dBm and gain in dB.
SweepColumns = Tuple[Tuple[float, ...], Tuple[float, ...], Tuple[float, ...]]


@dataclass(frozen=True)
class P1dBResult:
    """The interpolated 1 dB point, and ``exact_dbm``, where the gain itself crosses.

    ``columns`` holds the sweep (:data:`SweepColumns`).
    """

    p1db_dbm: float
    small_signal_gain_db: float
    columns: SweepColumns
    exact_dbm: float


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


def check_drive(amplitude: float):
    """Raise WrongStimulusError unless a gain can be read at RF peak ``amplitude``: it is > 0."""
    if not amplitude > 0:
        raise WrongStimulusError("conversion gain needs a non-silent RF tone")


def check_lo_drive(amplitude: float):
    """Raise WrongStimulusError unless isolation can be read at LO peak ``amplitude`` (> 0)."""
    if not amplitude > 0:
        raise WrongStimulusError("isolation needs an active LO tone")


def _gain_cubic(s: Scenario, ray: float) -> DriveCubic:
    """The drive cubic of single-tone ``s`` read at ``ray``, which serves every gain reading."""
    if len(s.rf_tones) != 1:
        raise WrongStimulusError(
            f"conversion gain needs a single RF tone, got {len(s.rf_tones)}")
    return _drive_cubic(s, (ray,))


def _gain_at(cubic: DriveCubic, amp_in: float, power_dbm: Optional[float] = None) -> float:
    """Gain in dB on the one ray of ``cubic`` at RF peak ``amp_in``; a silent drive raises first.

    A refused drive is named by ``power_dbm`` too, where the caller gives it.
    """
    check_drive(amp_in)
    amp_out, = cubic.rays(amp_in, power_dbm)
    return -math.inf if amp_out <= 0 else 20.0 * math.log10(amp_out / amp_in)


def measure_conversion_gain(s: Scenario, *, _cubic: Optional[DriveCubic] = None) -> float:
    """Conversion gain in dB of a single-tone scenario at its tone's amplitude, read at the IF.

    It is read on the noise-free common period of ``s``
    (:func:`engine._drive_cubic`), so the input noise of ``s`` does not
    move it.  Raises NonFiniteReadingError if the gain is not finite, or
    for a drive the cubic does not cover, naming the tone's power.
    ``_cubic`` is ``_gain_cubic(s, s.f_if)`` when the caller has built it.
    """
    cubic = _cubic if _cubic is not None else _gain_cubic(s, s.f_if)
    tone = s.rf_tones[0]
    amplitude = tone.peak_amplitude()
    return _finite_gain(_gain_at(cubic, amplitude, tone.power_dbm), amplitude, "V")


def _finite_gain(gain_db: float, drive: float, unit: str) -> float:
    """``gain_db`` read at ``drive``; NonFiniteReadingError if it is not finite."""
    if not math.isfinite(gain_db):
        raise NonFiniteReadingError(f"conversion gain {gain_db!r} dB at {drive!r} {unit}")
    return gain_db


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
                 step: float = 0.5, *, _cubic: Optional[DriveCubic] = None) -> P1dBResult:
    """Sweep the RF power and locate the 1 dB gain-compression point.

    The small-signal reference is the gain measured at the lowest sweep
    power, so the procedure works for any device model, and the crossing is
    interpolated linearly in (input dBm, gain dB) between bracketing points.
    Every point's gain equals :func:`measure_conversion_gain` of ``s`` at
    that power; all points come from one :func:`_gain_cubic`, read in
    order (:func:`_sweep_gains`), so the first point that fails, or reads
    a gain that is not finite (NonFiniteReadingError), raises.
    ``exact_dbm`` is the drive where the gain itself crosses 1 dB below
    the reference, found by bisection on the same cubic between the
    bracketing points.  ``_cubic`` is ``_gain_cubic(s, s.f_if)`` when the
    caller has built it.
    """
    _check_compression(s.mixer.transconductor)
    lo_dbm, hi_dbm = power_range
    powers = [lo_dbm + i * step for i in range(sweep_size(power_range, step))]
    cubic = _cubic if _cubic is not None else _gain_cubic(s, s.f_if)
    columns = _sweep_columns(cubic, powers)
    gains = columns[2]

    ref_gain = gains[0]
    threshold = ref_gain - 1.0
    for i in range(1, len(gains)):
        if gains[i - 1] >= threshold and gains[i] < threshold:
            frac = (threshold - gains[i - 1]) / (gains[i] - gains[i - 1])
            p1db = powers[i - 1] + frac * (powers[i] - powers[i - 1])
            exact = _crossing(partial(_gain_at, cubic), threshold,
                              dbm_to_amplitude(powers[i - 1]), dbm_to_amplitude(powers[i]))
            return P1dBResult(p1db_dbm=p1db, small_signal_gain_db=ref_gain,
                              columns=columns, exact_dbm=amplitude_to_dbm(exact))
    raise CompressionNotFoundError(
        f"gain never dropped 1 dB below {ref_gain:.3f} dB within "
        f"[{lo_dbm}, {hi_dbm}] dBm", columns)


def _sweep_columns(cubic: DriveCubic, powers: List[float]) -> SweepColumns:
    """The compression sweep at the rising ``powers``, in dBm, on the one ray of ``cubic``.

    Each point's output power is ``p_in + gain`` and its gain
    ``output - p_in``, ``gain`` read by :func:`_sweep_gains`.
    """
    outputs = [p_in + g for p_in, g in zip(powers, _sweep_gains(cubic, powers))]
    return tuple(powers), tuple(outputs), tuple(out - p_in for p_in, out in zip(powers, outputs))


def _sweep_gains(cubic: DriveCubic, powers: List[float]) -> List[float]:
    """Gain in dB on the one ray of ``cubic`` at each of the rising ``powers``, in dBm.

    Each point reads as :func:`_gain_at` at its drive, to the bit, and the
    sweep fails as reading its points one by one in order does.  Where the
    cubic covers the hottest drive, every point is read at once
    (:meth:`engine.DriveCubic.sweep`); the ratio of each ray to its drive
    is then ``amp_out / amp_in`` of :func:`_gain_at`, and where every
    ratio is finite and above 0, no point can fail and each gain is the
    ``log10`` of its ratio.  Any other sweep is read point by point, so it
    fails at its first failing point: a drive with no finite peak voltage,
    a silent drive, a zero ray or a drive the cubic does not cover.
    """
    try:
        amplitudes = np.array([dbm_to_amplitude(p_in) for p_in in powers])
    except ValidationError:  # a hot point has no finite peak voltage
        amplitudes = None
    rays = None if amplitudes is None else cubic.sweep(amplitudes)
    if rays is not None:
        with np.errstate(all="ignore"):  # a silent drive's ratio fails the check below
            ratios = rays[0] / amplitudes
        if (np.isfinite(ratios) & (ratios > 0)).all():
            return [20.0 * math.log10(ratio) for ratio in ratios.tolist()]
    return [_finite_gain(_gain_at(cubic, dbm_to_amplitude(p_in), p_in), p_in, "dBm")
            for p_in in powers]


def _crossing(gain: Callable[[float], float], threshold: float, lo: float,
              hi: float) -> float:
    """An amplitude in [lo, hi] where ``gain`` crosses ``threshold``, to the last bit.

    Bisection from ``gain(lo) >= threshold > gain(hi)``, halving until no
    float lies strictly between the two ends.
    """
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if gain(mid) >= threshold:
            lo = mid
        else:
            hi = mid
    return lo


def two_tone_variant(s: Scenario, tone_spacing: Optional[float] = None) -> Scenario:
    """Derive a two-tone scenario from a single-tone one.

    The second tone sits ``tone_spacing`` above the first (default: half the
    IF), which keeps the down-converted third-order products on-grid.  The
    default does not keep them clear of other products: at a spacing ``d``
    of IF/2 the lower IM3 ray, ``IF - d``, is the ray at ``d``, where the
    cubic's ``3*a3*b^2*e`` term lands the tones' difference mixed with the
    LO leak ``e``.  With the default design's leak, IIP3 at -40 dBm per tone
    reads -14.32 dBm there, against -1.894 dBm at IF/4.  The CLI passes
    IF/4 (``sweeps.iip3.tone_spacing_hz``, 25 MHz of the 100 MHz IF).
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
        if s.grid.ray_bin(f, label) == 0:
            raise ValidationError(f"{label} at {f!r} is not representable")
    return rays


def measure_iip3(s: Scenario, per_tone_power_dbm: float) -> TwoToneResult:
    """Two-tone intercept: drive both tones equally and read the IM3 rays.

    The reported IM3 is the larger of the two mirror products (equal for a
    symmetric cubic).  A companion drive 20 dB colder guards against a drive
    outside the weak-signal range: the gain may move by at most 0.5 dB
    either way, down in compression or up where the cubic overdrives.  Two
    equal tones keep every ray a cubic in their amplitude, so both drives
    are read from one :func:`engine._drive_cubic`.  At a tone spacing whose
    bin is coprime to the grid, the common period is the full grid.
    Raises NonFiniteReadingError for a drive the cubic does not cover
    (:meth:`engine.DriveCubic.rays`), naming its per-tone power, or if a
    ray of the hot drive or the cold fundamental is not finite.
    """
    rays = two_tone_rays(s)
    cold_dbm = per_tone_power_dbm - 20.0
    hot = dbm_to_amplitude(per_tone_power_dbm)
    cubic = _drive_cubic(s, rays)

    amps = cubic.rays(hot, per_tone_power_dbm)
    if not all(map(math.isfinite, amps)):
        raise NonFiniteReadingError(f"hot rays {amps!r} V at {per_tone_power_dbm} dBm per tone")
    p_fund, p_im3, p_mirror = (SpectrumLine.from_amplitude(f, amp).power_dbm
                               for f, amp in zip(rays, amps))
    p_im3_used = max(p_im3, p_mirror)
    if p_im3_used < MEASUREMENT_FLOOR_DBM:
        raise ImmeasurableIM3Error(
            f"IM3 ray below {MEASUREMENT_FLOOR_DBM} dBm; the device has no "
            f"cubic nonlinearity")

    # The cold drive is read only after the hot one passes its IM3 check.
    cold = cubic.rays(dbm_to_amplitude(cold_dbm), cold_dbm)[0]
    if not math.isfinite(cold):
        raise NonFiniteReadingError(f"fundamental ray {cold!r} V at {cold_dbm} dBm per tone")
    gain_hot = p_fund - per_tone_power_dbm
    gain_cold = amplitude_to_dbm(cold) - cold_dbm
    if abs(gain_cold - gain_hot) > 0.5:
        raise StimulusTooHotError(
            f"gain moves {gain_hot - gain_cold:+.2f} dB from "
            f"{cold_dbm} to {per_tone_power_dbm} dBm per tone, "
            f"outside the weak-signal range; reduce the drive")

    delta = p_fund - p_im3_used
    return TwoToneResult(per_tone_dbm=per_tone_power_dbm, p_fund_dbm=p_fund,
                         p_im3_dbm=p_im3_used, p_im3_mirror_dbm=p_mirror,
                         delta_db=delta,
                         iip3_dbm=delta / 2.0 + per_tone_power_dbm)


def measure_isolation(s: Scenario) -> float:
    """LO-to-RF isolation in dB: LO ray at the RF port over injected LO.

    The ray is read from the noise-free port of the pump's period
    (:func:`engine._port_ray`), so the input noise of ``s`` does not move
    it.  Raises NonFiniteReadingError if the reading is not finite.
    """
    a_lo = s.lo_tone.peak_amplitude()
    check_lo_drive(a_lo)
    a_leak = _port_ray(s, s.f_lo)
    if not math.isfinite(a_leak):
        raise NonFiniteReadingError(f"LO ray at the RF port {a_leak!r} V")
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
    is a clone of ``s`` carrying a single probe tone at the RF frequency,
    read at ``f_signal_out``; like every drive reading, its gain ignores
    the input noise (:func:`engine._drive_cubic`).

    Everything here is decided before any simulation, so it raises for
    settings the measurement would fail on without running it, and for a
    band-limited input noise that does not hold every input-band bin whole,
    which would read the input density low.
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
    if s.input_noise_band is not None:
        seg_res = s.grid.sample_rate / (s.grid.num_samples // settings.segments)
        edges = ((float(bins[0][0]) - 0.5) * seg_res, (float(bins[0][-1]) + 0.5) * seg_res)
        lo, hi = s.input_noise_band
        if not (lo <= edges[0] and edges[1] <= hi):
            raise ValidationError(
                f"noise band [{s.to_hz(lo)!r}, {s.to_hz(hi)!r}] Hz does not hold every "
                f"periodogram bin of the input band, {[s.to_hz(f) for f in edges]!r} Hz")

    probe_tone = ToneSpec(frequency=s.f_rf, power_dbm=settings.probe_power_dbm,
                          phase=s.rf_tones[0].phase)
    return bins, replace(s, rf_tones=(probe_tone,)), f_signal_out


def _probe_gain_db(probe: Scenario, f_signal_out: float) -> float:
    """Gain in dB of the noise-figure ``probe`` read at ``f_signal_out``, as the NF uses it.

    Raises WrongStimulusError if no ray is read there, and
    NonFiniteReadingError if the gain is otherwise not finite.
    """
    tone = probe.rf_tones[0]
    gain_db = _gain_at(_gain_cubic(probe, f_signal_out), tone.peak_amplitude(), tone.power_dbm)
    if gain_db == -math.inf:
        raise WrongStimulusError(
            f"no conversion ray at {f_signal_out!r}; check signal_out_frequency")
    if not math.isfinite(gain_db):
        raise NonFiniteReadingError(f"probe gain {gain_db!r} dB")
    return gain_db


def measure_noise_figure(s: Scenario, settings: NoiseFigureSettings) -> NoiseFigureResult:
    """Noise figure of a scenario with injected input noise, estimated from a noisy record.

    The Monte-Carlo reference that the tests hold :func:`periodic_noise_figure`
    against; no CLI step calls it.  The input density is estimated at the
    RF port, the output density at the mixer output, both with stimulus
    rays masked out of the averaging, on the scenario's full record: both
    ports of :func:`engine._record`, checked for non-finite samples, read
    by one :func:`signals._band_stats`.  The conversion gain is read by
    :func:`_probe_gain_db` on a clone carrying a small probe tone, read
    without its noise, so the same procedure covers any device configuration.
    """
    bins, probe, f_signal_out = noise_figure_setup(s, settings)
    record = _record(s)
    _check_finite(record)
    n_in, n_out = _band_stats(s.grid, record, settings.segments, bins)
    if n_in.density <= 0:
        raise ValueError("input noise density estimate is zero")

    gain_db = _probe_gain_db(probe, f_signal_out)
    nf = noise_figure_from_densities(n_out.density, n_in.density, gain_db)
    warning = None
    spread = max(n_in.relative_spread, n_out.relative_spread)
    if spread > 0.10:
        warning = (f"unstable estimate: periodogram spread {spread:.1%} exceeds "
                   f"10%; increase segments or bandwidth")
    return NoiseFigureResult(nf_db=nf, input_density=n_in.density,
                             output_density=n_out.density, gain_db=gain_db,
                             warning=warning)


def periodic_noise_figure(s: Scenario, settings: NoiseFigureSettings, *,
                          _setup: Optional[Tuple] = None) -> NoiseFigureResult:
    """Noise figure of ``s`` from the mixer's periodic small-signal gain; no noise is drawn.

    For input noise small enough not to compress the mixer, the output
    noise is the input noise times ``g = rd * sw * _taylor(transconductor,
    v, 1)``, the slope of the memoryless mixer (:func:`devices._taylor`) at
    its noise-free RF port ``v`` (tones and LO leak).  ``g`` repeats with
    the pump, so one common period holds it
    (:func:`engine._small_signal_gain`), and the output density at an
    output bin ``f`` is
    ``sum_m |G_m|^2 * S_in(f - m*f_0)``, ``G_m`` the Fourier
    coefficients of ``g`` on its period ``1/f_0`` (Strom & Signell, 1977;
    Terrovitis & Meyer, 1999).  White noise over the grid gives
    ``density * sqrt(mean(g^2))`` at every bin; band-limited noise has the
    sum averaged over the output-band bins of :func:`noise_figure_setup`.
    The input density is the configured one, and the gain is the probe's,
    read by :func:`_probe_gain_db` as :func:`measure_noise_figure` reads
    it.  The Monte-Carlo :func:`measure_noise_figure` estimates the same
    figure from a noisy record; this one has no seed and no estimator
    spread.  ``_setup`` is
    the result of :func:`noise_figure_setup` when the caller has built it.

    Raises NonFiniteReadingError if ``mean(g^2)``, the output density or
    the probe gain is not finite, or ``mean(g^2)`` is 0: each would make
    the figure non-finite.
    """
    bins, probe, f_signal_out = _setup or noise_figure_setup(s, settings)
    density = s.input_noise_density
    with np.errstate(all="ignore"):  # every reading is checked by name below
        g = _small_signal_gain(s)
        if s.input_noise_band is None:
            folded = float(np.mean(g * g))
        else:
            # Output bin q of a segment is bin q*segments of the grid, and
            # G_m moves the input bin (q*segments - m*N/p) mod N onto it.
            n, p = s.grid.num_samples, g.size
            power = np.abs(np.fft.rfft(g)) ** 2 / (p * p)
            power = np.concatenate((power, power[-2:0:-1]))  # m = 0 .. p-1
            source = (bins[1][:, None] * settings.segments - np.arange(p) * (n // p)) % n
            source = np.minimum(source, n - source)
            lo, hi = s.input_noise_band
            freqs = source * s.grid.resolution
            in_band = (source > 0) & (freqs >= lo) & (freqs <= hi)
            folded = float((in_band * power).sum(axis=1).mean())
    if not (math.isfinite(folded) and folded > 0):
        raise NonFiniteReadingError(
            f"the mixer's periodic small-signal gain has mean square {folded!r}")
    output_density = density * math.sqrt(folded)
    if not math.isfinite(output_density):
        raise NonFiniteReadingError(f"output noise density {output_density!r} V/sqrt(Hz)")
    gain_db = _probe_gain_db(probe, f_signal_out)
    # The input density cancels: out^2 / (in^2 * G^2) is mean(g^2) / G^2.
    return NoiseFigureResult(nf_db=10.0 * math.log10(folded) - gain_db, input_density=density,
                             output_density=output_density, gain_db=gain_db)


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
