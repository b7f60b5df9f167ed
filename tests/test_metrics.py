"""Tests for the figure-of-merit measurements against their oracles."""

import importlib.util
import math
import re
import sys
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    at_power,
    make_mixer,
    make_scenario,
    noise_figure_grid_scenario,
    period_of,
    record_grids,
    record_projections,
    record_switches,
)

from mixbench import devices, engine, memo, metrics, signals
from mixbench.cli import prepare
from mixbench.config import build_nf_setup, from_dict
from mixbench.devices import (
    TransconductorParams,
    a1db_closed_form,
    aiip3_closed_form,
)
from mixbench.engine import Scenario, simulate
from mixbench.errors import (
    AliasingError,
    CompressionNotFoundError,
    ImmeasurableIM3Error,
    MixbenchError,
    NoCompressionError,
    NonFiniteReadingError,
    StimulusTooHotError,
    ValidationError,
    WrongStimulusError,
)
from mixbench.metrics import (
    ISOLATION_FLOOR_DB,
    NoiseFigureSettings,
    REFERENCE_65NM,
    measure_conversion_gain,
    measure_iip3,
    measure_isolation,
    measure_noise_figure,
    measure_p1db,
    noise_figure_from_densities,
    noise_figure_setup,
    periodic_noise_figure,
    reference_formula_noise_figure,
    two_tone_variant,
)
from mixbench.signals import (
    SimGrid,
    ToneSpec,
    amplitude_to_dbm,
    bin_amplitude,
    bin_value,
    noise_band_bins,
)

CAL_GM = 0.034
CAL_A3 = -0.696

# How far a drive reading of the cubic (engine._drive_cubic) may sit from
# the same drive's own record: the two sum the same terms in another order.
ORACLE_DB = 1e-9


def calibrated_scenario(a3=CAL_A3, kappa=0.0, **kwargs):
    return make_scenario(mixer=make_mixer(gm=CAL_GM, a3=a3, kappa=kappa), **kwargs)


class TestConversionGain:
    def test_calibrated_linear(self):
        s = calibrated_scenario(a3=0.0)
        assert measure_conversion_gain(s) == pytest.approx(13.5556, abs=0.05)

    def test_weak_drive_on_compressive_device(self):
        s = calibrated_scenario(rf_power_dbm=-40.0)
        assert measure_conversion_gain(s) == pytest.approx(13.5556, abs=0.05)

    def test_halving_gm_drops_six_db(self):
        base = measure_conversion_gain(calibrated_scenario(a3=0.0))
        s = make_scenario(mixer=make_mixer(gm=CAL_GM / 2, a3=0.0))
        assert measure_conversion_gain(s) == pytest.approx(
            base - 20 * math.log10(2), abs=1e-6)

    def test_two_tone_rejected(self):
        s = two_tone_variant(calibrated_scenario())
        with pytest.raises(WrongStimulusError):
            measure_conversion_gain(s)


def uncovered(amplitude, power_dbm=None):
    """The error of a drive at ``amplitude`` V that its cubic does not cover.

    A drive given as a power, in dBm, also names its ``power_dbm``.
    """
    at = "" if power_dbm is None else f" at {power_dbm!r} dBm"
    return f"drive {amplitude!r} V{at}: the drive polynomial cannot bound its record"


def uncovered_pattern(power_dbm, named=False):
    """:func:`uncovered` at ``power_dbm``, named by it if ``named``, for ``pytest.raises``."""
    return re.escape(uncovered(signals.dbm_to_amplitude(power_dbm),
                               power_dbm if named else None))


def quiet(s):
    """``s`` without its input noise."""
    return replace(s, input_noise_density=0.0, input_noise_band=None)


def reference_gain_db(s, power_dbm):
    """Gain of ``s`` at ``power_dbm`` the per-point way: one ``simulate`` and
    one ``bin_amplitude``, on the scenario's noise-free common period."""
    s = at_power(period_of(s, s.f_if), power_dbm)
    amp_in = s.rf_tones[0].peak_amplitude()
    if amp_in <= 0:
        raise WrongStimulusError("conversion gain needs a non-silent RF tone")
    amp_out = bin_amplitude(simulate(s).v_out, s.f_if).amplitude
    return -math.inf if amp_out <= 0 else 20.0 * math.log10(amp_out / amp_in)


def reference_sweep(s, powers):
    """Compression-sweep columns of ``s`` at ``powers``, each point from its own simulation."""
    outputs = [p + reference_gain_db(s, p) for p in powers]
    return tuple(powers), tuple(outputs), tuple(out - p for p, out in zip(powers, outputs))


def assert_sweeps_agree(columns, reference):
    """Same input powers to the bit; output power and gain within ``ORACLE_DB``."""
    assert columns[0] == reference[0]
    for got, want in zip(columns[1:], reference[1:], strict=True):
        assert got == pytest.approx(want, rel=0, abs=ORACLE_DB)


def sweep_powers(power_range, step):
    lo, _ = power_range
    return [lo + i * step for i in range(metrics.sweep_size(power_range, step))]


class TestGainRoutineBits:
    """The sweep's gain routine against one simulation per point: every
    reading within ``ORACLE_DB``, every failure to the bit, but a drive
    past the cubic's bound, which fails by name."""

    @pytest.mark.parametrize("scenario", [
        {},
        {"mixer": {"switch_mode": "smooth"}},
        {"mixer": {"a2": 0.01}},
        {"mixer": {"kappa": 0}},
    ], ids=["default", "smooth_switch", "a2", "kappa_0"])
    def test_equals_per_point_simulation(self, scenario):
        run, inputs = prepare(from_dict({"scenario": scenario}))
        s = run.scenario
        res = measure_p1db(s, *inputs["p1db"])
        reference = reference_sweep(s, sweep_powers(*inputs["p1db"]))
        assert len(res.columns[0]) == len(reference[0]) == 81
        assert_sweeps_agree(res.columns, reference)
        assert measure_conversion_gain(s) == pytest.approx(
            reference_gain_db(s, s.rf_tones[0].power_dbm), rel=0, abs=ORACLE_DB)

    def test_two_point_sweep(self):
        s = calibrated_scenario()
        res = measure_p1db(s, (-40.0, 0.0), 40.0)
        assert_sweeps_agree(res.columns, reference_sweep(s, [-40.0, 0.0]))

    @pytest.mark.parametrize("mixer, power_range, step, error, message", [
        # The tiny cubic keeps 3000 and 3050 dBm finite; 3100 dBm has no
        # finite peak voltage.
        ({"a3": -1e-300}, (3000.0, 3100.0), 50.0, ValidationError,
         "3100.0 dBm has no finite peak voltage"),
        # -4000 dBm is an amplitude of 0.0.
        ({"a3": CAL_A3}, (-4000.0, -3990.0), 5.0, WrongStimulusError,
         "conversion gain needs a non-silent RF tone"),
    ], ids=["finite_peak_voltage", "silent"])
    def test_failures_match_per_point_simulation(self, mixer, power_range, step,
                                                 error, message):
        s = make_scenario(mixer=make_mixer(gm=CAL_GM, kappa=0.01303, **mixer))
        with pytest.raises(error) as ref:
            reference_sweep(s, sweep_powers(power_range, step))
        with pytest.raises(error) as got:
            measure_p1db(s, power_range, step)
        assert str(got.value) == str(ref.value) == message

    @pytest.mark.parametrize("power_range, step, drive", [
        # The cube of a 2500 dBm drive overflows its record.
        ((2500.0, 2600.0), 50.0, 3.1622776601683794e+124),
        # Points fail in order: 3000 dBm is refused before 3100 dBm, which
        # has no finite peak voltage, is reached.
        ((3000.0, 3100.0), 50.0, 3.1622776601683796e+149),
    ], ids=["overflow", "overflow_first"])
    def test_uncovered_drive_fails_by_name(self, power_range, step, drive):
        s = calibrated_scenario(kappa=0.01303)
        with pytest.raises(NonFiniteReadingError) as got:
            measure_p1db(s, power_range, step)
        assert str(got.value) == uncovered(drive, power_range[0])
        assert got.value.power_dbm == power_range[0]

    def test_conversion_gain_overflow(self):
        # The record of a 2500 dBm drive overflows; the cubic refuses it.
        s = at_power(calibrated_scenario(), 2500.0)
        with pytest.raises(ValidationError, match="signal contains non-finite samples"):
            simulate(period_of(s, s.f_if))
        with pytest.raises(NonFiniteReadingError) as got:
            measure_conversion_gain(s)
        assert str(got.value) == uncovered(s.rf_tones[0].peak_amplitude(), 2500.0)
        assert got.value.power_dbm == 2500.0

    @pytest.mark.parametrize("amplitude, expected", [(1e305, math.inf), (1e306, math.nan)])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_finite_record_with_overflowing_readout(self, amplitude, expected):
        # Every v_out sample is finite, but the IF projection overflows: to
        # inf, or to NaN where partial sums of both signs overflow.  One
        # simulation reads that gain; the cubic refuses the drive by name.
        s = make_scenario(mixer=make_mixer(gm=CAL_GM, a3=0.0), rf_amplitude=amplitude)
        v_out = simulate(period_of(s, s.f_if)).v_out
        reference = 20.0 * math.log10(abs(bin_value(v_out, s.f_if)) / amplitude)
        assert np.array_equal([reference], [expected], equal_nan=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteReadingError) as got:
                measure_conversion_gain(s)
        assert str(got.value) == uncovered(amplitude)

    def test_sweep_stops_at_first_uncovered_point(self):
        # 1990 and 1995 dBm are read from the cubic; 2000 dBm is past its
        # bound, so the sweep fails there instead of reading on.
        s = calibrated_scenario(kappa=0.01303)
        reference = [reference_gain_db(s, p) for p in (1990.0, 1995.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteReadingError) as got:
                measure_p1db(s, (1990.0, 2010.0), 5.0)
        assert str(got.value) == uncovered(signals.dbm_to_amplitude(2000.0), 2000.0)
        gain = partial(metrics._gain_at, metrics._gain_cubic(s, s.f_if))
        assert [gain(signals.dbm_to_amplitude(p)) for p in (1990.0, 1995.0)] == \
            pytest.approx(reference, rel=0, abs=ORACLE_DB)

    def test_sweep_memory_is_bounded(self):
        # A few 2,304-sample arrays for the one drive cubic: about 180 KB of
        # peak for 401 points.
        run, _ = prepare(from_dict({}))
        measure_p1db(run.scenario, (-40.0, 0.0), 0.1)  # fill the memos first
        tracemalloc.start()
        try:
            res = measure_p1db(run.scenario, (-40.0, 0.0), 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.columns[0]) == 401
        assert peak < 512 * 1024


class TestP1dB:
    def test_calibrated_value(self):
        res = measure_p1db(calibrated_scenario(), (-40.0, 0.0), 0.5)
        assert res.p1db_dbm == pytest.approx(-11.5, abs=0.2)
        closed = amplitude_to_dbm(a1db_closed_form(
            TransconductorParams(gm=CAL_GM, a3=CAL_A3)))
        assert res.p1db_dbm == pytest.approx(closed, abs=0.2)

    def test_small_signal_gain_matches_analytic(self):
        res = measure_p1db(calibrated_scenario(), (-40.0, 0.0), 0.5)
        assert res.small_signal_gain_db == pytest.approx(13.5556, abs=0.05)

    def test_sweep_is_complete_and_sorted(self):
        res = measure_p1db(calibrated_scenario(), (-30.0, -5.0), 1.0)
        powers, outputs, gains = res.columns
        assert len(powers) == len(outputs) == len(gains) == 26
        assert list(powers) == sorted(powers)
        for p_in, output, gain_db in zip(powers, outputs, gains):
            assert gain_db == pytest.approx(output - p_in, abs=1e-12)

    def test_linear_device_rejected(self):
        with pytest.raises(NoCompressionError,
                           match=r"a3 must be < 0 for compression, got 0\.0"):
            measure_p1db(calibrated_scenario(a3=0.0))

    def test_range_without_crossing(self):
        s = calibrated_scenario()
        message = r"gain never dropped 1 dB below .* within \[-40\.0, -30\.0\] dBm"
        with pytest.raises(CompressionNotFoundError, match=message) as err:
            measure_p1db(s, (-40.0, -30.0), 1.0)
        assert len(err.value.columns[0]) == 11
        assert_sweeps_agree(err.value.columns, reference_sweep(
            s, sweep_powers((-40.0, -30.0), 1.0)))

    @pytest.mark.parametrize("power_range, step", [
        ((-1.0e7, 0.0), 0.001),        # 1e10 points
        ((-40.0, 0.0), 1e-300),        # a span/step quotient of inf
        ((-40.0, -39.9), 0.5),         # 1 point: nothing to interpolate
    ])
    def test_sweep_size_checked_before_simulating(self, monkeypatch,
                                                  power_range, step):
        def no_simulation(*args):
            raise AssertionError("simulated a sweep that cannot be used")

        monkeypatch.setattr(engine, "_respond", no_simulation)
        monkeypatch.setattr(engine, "_cubic_terms", no_simulation)
        with pytest.raises(ValidationError):
            measure_p1db(calibrated_scenario(), power_range, step)

    def test_sweep_size_cap(self):
        cap = metrics.MAX_SWEEP_POINTS
        assert metrics.sweep_size((0.0, cap - 1.0), 1.0) == cap
        with pytest.raises(ValidationError, match="points"):
            metrics.sweep_size((0.0, float(cap)), 1.0)

    def test_oracle_equivalence_randomized(self):
        # The swept measurement must track the closed form for any cubic.
        rng = np.random.default_rng(2024)
        for _ in range(12):
            gm = rng.uniform(0.005, 0.1)
            target_dbm = rng.uniform(-20.0, -6.0)
            # Size a3 so the closed-form compression lands on target_dbm.
            from mixbench.signals import dbm_to_amplitude
            a = dbm_to_amplitude(target_dbm)
            a3 = -(4.0 / 3.0) * (1.0 - 10 ** (-0.05)) * gm / (a * a)
            p = TransconductorParams(gm=gm, a3=a3)
            closed = amplitude_to_dbm(a1db_closed_form(p))
            s = make_scenario(mixer=make_mixer(gm=gm, a3=a3))
            # The sweep must start well below compression or the reference
            # gain itself is already compressed.
            res = measure_p1db(s, (closed - 25.0, closed + 6.0), 0.5)
            assert res.p1db_dbm == pytest.approx(closed, abs=0.2)


class TestIIP3:
    def test_calibrated_value(self):
        two = two_tone_variant(calibrated_scenario())
        res = measure_iip3(two, -40.0)
        closed = amplitude_to_dbm(aiip3_closed_form(
            TransconductorParams(gm=CAL_GM, a3=CAL_A3)))
        assert res.iip3_dbm == pytest.approx(closed, abs=0.2)
        assert res.iip3_dbm == pytest.approx(-1.86, abs=0.2)

    def test_identity_holds_exactly(self):
        two = two_tone_variant(calibrated_scenario())
        res = measure_iip3(two, -37.0)
        assert res.iip3_dbm - res.per_tone_dbm == res.delta_db / 2.0

    def test_ray_at_nyquist_or_dc_rejected(self):
        # Tones 5 and 27 with the LO at 4 on a 64-sample grid: the mirror IM3
        # ray 2 * 27 - 5 - 4 = 45 lies past Nyquist (32).
        grid = SimGrid(sample_rate=64.0, num_samples=64)
        two = Scenario(mixer=make_mixer(a3=CAL_A3), grid=grid,
                       rf_tones=tuple(ToneSpec(frequency=f, power_dbm=-40.0)
                                      for f in (5.0, 27.0)),
                       lo_tone=ToneSpec(frequency=4.0, amplitude=1.0,
                                        phase=math.pi * 4 / 64))
        with pytest.raises(AliasingError, match="mirror IM3 ray"):
            metrics.two_tone_rays(two)
        # A spacing of one IF puts the lower IM3 ray at DC.
        s = calibrated_scenario()
        with pytest.raises(ValidationError, match="IM3 ray at 0.0 is not representable"):
            metrics.two_tone_rays(two_tone_variant(s, s.f_if))

    def test_mirror_products_agree_for_symmetric_cubic(self):
        two = two_tone_variant(calibrated_scenario())
        res = measure_iip3(two, -40.0)
        assert res.p_im3_mirror_dbm == pytest.approx(res.p_im3_dbm, abs=0.01)

    def test_input_level_independence(self):
        two = two_tone_variant(calibrated_scenario())
        hi = measure_iip3(two, -40.0)
        lo = measure_iip3(two, -50.0)
        assert hi.iip3_dbm == pytest.approx(lo.iip3_dbm, abs=0.1)

    def test_im3_slope_is_three(self):
        two = two_tone_variant(calibrated_scenario())
        powers = np.arange(-55.0, -35.0, 2.5)
        fund, im3 = [], []
        for p in powers:
            res = measure_iip3(two, float(p))
            fund.append(res.p_fund_dbm)
            im3.append(res.p_im3_dbm)
        assert np.polyfit(powers, fund, 1)[0] == pytest.approx(1.0, abs=0.02)
        assert np.polyfit(powers, im3, 1)[0] == pytest.approx(3.0, abs=0.05)

    def test_linear_device_rejected(self):
        two = two_tone_variant(calibrated_scenario(a3=0.0))
        with pytest.raises(ImmeasurableIM3Error):
            measure_iip3(two, -40.0)

    def test_overdriven_measurement_rejected(self):
        two = two_tone_variant(calibrated_scenario())
        with pytest.raises(StimulusTooHotError):
            measure_iip3(two, -10.0)

    @pytest.mark.parametrize("per_tone_dbm", [0.0, 20.0])
    def test_overdriven_cubic_rejected(self, per_tone_dbm):
        # Past the compression peak the cubic drives the gain up, not down:
        # once read as IIP3 values of +3.72 and +24.76 dBm.
        two = two_tone_variant(calibrated_scenario())
        with pytest.raises(StimulusTooHotError, match=r"gain moves \+"):
            measure_iip3(two, per_tone_dbm)

    def test_single_tone_rejected(self):
        with pytest.raises(WrongStimulusError):
            measure_iip3(calibrated_scenario(), -40.0)

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(77)
        for _ in range(8):
            gm = rng.uniform(0.01, 0.08)
            a3 = -rng.uniform(0.05, 3.0)
            p = TransconductorParams(gm=gm, a3=a3)
            closed = amplitude_to_dbm(aiip3_closed_form(p))
            two = two_tone_variant(make_scenario(mixer=make_mixer(gm=gm, a3=a3)))
            res = measure_iip3(two, closed - 35.0)
            assert res.iip3_dbm == pytest.approx(closed, abs=0.2)

    def test_cubic_spacing_between_points(self):
        # IIP3 - P1dB = 9.64 dB for a pure cubic, here measured end to end.
        for gm, a3 in ((0.034, -0.696), (0.02, -0.3)):
            s = make_scenario(mixer=make_mixer(gm=gm, a3=a3))
            closed_1db = amplitude_to_dbm(a1db_closed_form(
                TransconductorParams(gm=gm, a3=a3)))
            p1 = measure_p1db(s, (closed_1db - 25, closed_1db + 5), 0.5)
            ip3 = measure_iip3(two_tone_variant(s), closed_1db - 25.0)
            assert ip3.iip3_dbm - p1.p1db_dbm == pytest.approx(9.64, abs=0.3)


def assert_iip3_agrees(monkeypatch, two, per_tone_dbm):
    """Both drives of ``measure_iip3`` against ``reference_iip3``, within ``ORACLE_DB``."""
    p_fund, p_im3, p_mirror, amp_cold = reference_iip3(two, per_tone_dbm)
    readings, powers, rays = [], [], engine.DriveCubic.rays

    def recording_rays(cubic, amplitude, power_dbm):
        readings.append(rays(cubic, amplitude, power_dbm))
        powers.append(power_dbm)
        return readings[-1]

    monkeypatch.setattr(engine.DriveCubic, "rays", recording_rays)
    res = measure_iip3(two, per_tone_dbm)
    monkeypatch.undo()
    # The cold drive uses its fundamental, element 0; each drive names its power.
    assert [len(r) for r in readings] == [3, 3]
    assert powers == [per_tone_dbm, per_tone_dbm - 20.0]
    assert amplitude_to_dbm(readings[1][0]) == pytest.approx(
        amplitude_to_dbm(amp_cold), rel=0, abs=ORACLE_DB)
    got = (res.p_fund_dbm, res.p_im3_dbm, res.p_im3_mirror_dbm)
    assert got == pytest.approx((p_fund, max(p_im3, p_mirror), p_mirror), rel=0,
                                abs=ORACLE_DB)
    assert res.delta_db == res.p_fund_dbm - res.p_im3_dbm
    assert res.iip3_dbm == res.delta_db / 2.0 + per_tone_dbm


def reference_iip3(two, per_tone_dbm):
    """Hot rays and cold fundamental amplitude of ``two`` the per-drive way.

    One ``simulate`` and ``bin_amplitude`` per drive, of the two-tone
    scenario ``replace``d to that power on the common period of its rays.
    """
    rays = metrics.two_tone_rays(two)
    s = period_of(two, *rays)
    hot = simulate(at_power(s, per_tone_dbm)).v_out
    p_fund, p_im3, p_mirror = (bin_amplitude(hot, f).power_dbm for f in rays)
    cold = simulate(at_power(s, per_tone_dbm - 20.0)).v_out
    return p_fund, p_im3, p_mirror, bin_amplitude(cold, rays[0]).amplitude


class TestIIP3RoutineBits:
    """IIP3's two drives, read from one drive cubic, against one simulation
    per drive: every reading within ``ORACLE_DB``, every failure in drive order."""

    @pytest.mark.parametrize("cfg, period", [
        ({}, 9216),
        ({"scenario": {"mixer": {"switch_mode": "smooth"}}}, 9216),
        ({"scenario": {"mixer": {"a2": 0.01}}}, 9216),
        ({"sweeps": {"iip3": {"tone_spacing_hz": 5.0e7}}}, 4608),
    ], ids=["default", "smooth_switch", "a2", "spacing_5e7"])
    def test_equals_per_drive_simulation(self, monkeypatch, cfg, period):
        run, inputs = prepare(from_dict({"measurements": ["iip3"], **cfg}))
        two, per_tone = inputs["iip3"]
        rays = metrics.two_tone_rays(two)
        assert period_of(two, *rays).grid.num_samples == period
        assert_iip3_agrees(monkeypatch, two, per_tone)

    @pytest.mark.parametrize("a3, per_tone_dbm, error, message, drives", [
        (CAL_A3, 3100.0, ValidationError, "3100.0 dBm has no finite peak voltage", 0),
        # The hot drive is past the cubic's bound: its record overflows, and
        # at 2030 and 2040 dBm it is finite but its projection reads inf,
        # then NaN.  Each is refused before the cold drive is read.
        (CAL_A3, 2500.0, NonFiniteReadingError, uncovered_pattern(2500.0, named=True), 1),
        # The IM3 rays are read, and fail, before the cold drive runs.
        (0.0, -40.0, ImmeasurableIM3Error, "IM3 ray below", 1),
        (CAL_A3, 0.0, StimulusTooHotError, r"gain moves \+", 2),
        (CAL_A3, 2030.0, NonFiniteReadingError, uncovered_pattern(2030.0, named=True), 1),
        (CAL_A3, 2040.0, NonFiniteReadingError, uncovered_pattern(2040.0, named=True), 1),
    ], ids=["no_finite_peak_voltage", "overflow", "no_im3", "too_hot", "inf_reading",
            "nan_reading"])
    def test_failures_raise_in_drive_order(self, monkeypatch, a3, per_tone_dbm, error,
                                           message, drives):
        two = two_tone_variant(calibrated_scenario(a3=a3))
        read = []
        rays = engine.DriveCubic.rays

        def counting_rays(cubic, amplitude, power_dbm):
            read.append(amplitude)
            return rays(cubic, amplitude, power_dbm)

        monkeypatch.setattr(engine.DriveCubic, "rays", counting_rays)
        with pytest.raises(error, match=message):
            measure_iip3(two, per_tone_dbm)
        assert len(read) == drives

    def test_non_finite_cold_fundamental_raises(self, monkeypatch):
        two = two_tone_variant(calibrated_scenario())
        rays = engine.DriveCubic.rays

        def cold_overflowing_rays(cubic, amplitude, power_dbm):
            readings = rays(cubic, amplitude, power_dbm)
            return readings if amplitude > 1e-3 else [math.inf] + readings[1:]

        monkeypatch.setattr(engine.DriveCubic, "rays", cold_overflowing_rays)
        with pytest.raises(NonFiniteReadingError,
                           match=r"fundamental ray inf V at -60\.0 dBm per tone"):
            measure_iip3(two, -40.0)

    # Per-tone powers across the overflow onsets of the calibrated mixer.
    # The hot rays' squares overflow from 1,039 dBm, and the cubic's bound
    # refuses hot drives from 1,988 dBm on, below the drives whose own
    # projection (2,027.5 dBm) or record (2,044.5 dBm) overflows.
    PER_TONE_DBM = [1000.0 + 0.5 * i for i in range(2121)]

    def test_overflowing_drives_fail_by_name(self):
        two = two_tone_variant(calibrated_scenario(kappa=0.01303))
        outcomes = []
        for p in self.PER_TONE_DBM:
            try:
                res = measure_iip3(two, p)
            except NonFiniteReadingError as exc:
                assert str(exc) == uncovered(signals.dbm_to_amplitude(p), p), p
                outcomes.append(NonFiniteReadingError)
                continue
            except MixbenchError as exc:
                outcomes.append(type(exc))
                continue
            assert all(map(math.isfinite, vars(res).values())), p
        # Every drive from the onset of the refusal on is refused.
        onset = outcomes.index(NonFiniteReadingError)
        assert self.PER_TONE_DBM[onset] == 1988.0
        assert set(outcomes[:onset]) == {StimulusTooHotError}
        assert set(outcomes[onset:]) == {NonFiniteReadingError}


class TestIsolation:
    def test_calibrated_value(self):
        s = calibrated_scenario(kappa=0.01303)
        assert measure_isolation(s) == pytest.approx(-37.70, abs=0.01)

    def test_identity_over_kappa_range(self):
        for kappa in (1e-4, 1e-3, 0.05, 0.5):
            s = make_scenario(mixer=make_mixer(kappa=kappa))
            assert measure_isolation(s) == pytest.approx(
                20 * math.log10(kappa), abs=0.01)

    def test_zero_coupling_reports_floor(self):
        s = calibrated_scenario(kappa=0.0)
        assert measure_isolation(s) <= ISOLATION_FLOOR_DB

    def test_inactive_lo_rejected(self):
        s = make_scenario(lo_amplitude=0.0)
        with pytest.raises(WrongStimulusError):
            measure_isolation(s)
        with pytest.raises(WrongStimulusError):
            metrics.check_lo_drive(s.lo_tone.peak_amplitude())

    def test_reads_the_pump_and_builds_no_record(self, monkeypatch):
        grids = record_grids(monkeypatch)
        switches = record_switches(monkeypatch)
        measure_isolation(calibrated_scenario(kappa=0.01303))
        assert grids == []
        assert switches == []

    def test_noisy_scenario_reads_its_quiet_copy(self):
        run, _ = prepare(from_dict({"measurements": ["isolation"]}))
        assert run.scenario.input_noise_density > 0
        assert measure_isolation(run.scenario) == measure_isolation(quiet(run.scenario))

    def test_lo_at_the_float_limit_fails_by_name(self):
        # A 1e308 V LO passes validation.  Its voltage and leak on the pump
        # are finite, but the LO ray's projection sum overflows: isolation
        # fails by name instead of reading inf.
        run, _ = prepare(from_dict({"scenario": {"lo_amplitude_v": 1.0e308},
                                    "measurements": ["isolation"]}))
        s = run.scenario
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, leak, v_lo = engine._pump(s, [tone.peak_amplitude() for tone in s.rf_tones])
            assert np.isfinite(v_lo).all() and np.abs(v_lo).max() > 1e307
            assert np.isfinite(leak).all()
            with pytest.raises(NonFiniteReadingError, match="LO ray at the RF port inf V"):
                measure_isolation(s)


class TestNoiseFigure:
    # The input band's periodogram bins run from 1.82422 to 1.97578 GHz.
    @pytest.mark.parametrize("bandwidth_hz, rejected", [
        (1.0e9, True), (1.975e9, True), (1.98e9, False), (2.0e9, False)])
    def test_noise_band_holds_every_input_band_bin(self, bandwidth_hz, rejected):
        s, settings = build_nf_setup(from_dict(
            {"scenario": {"noise": {"bandwidth_hz": bandwidth_hz}}}))
        if rejected:
            with pytest.raises(ValidationError, match="periodogram bin of the input band"):
                noise_figure_setup(s, settings)
        else:
            noise_figure_setup(s, settings)

    def test_formula_with_reference_densities(self):
        # The published densities and gain give 8.51 dB through the
        # power-ratio formula; the published figure is 8.92 dB.
        nf = reference_formula_noise_figure()
        assert nf == pytest.approx(8.51, abs=0.01)
        assert abs(REFERENCE_65NM.noise_figure_db - nf) < 0.5

    def test_formula_function(self):
        assert noise_figure_from_densities(4.266e-9, 0.383e-9, 12.425) == \
            pytest.approx(8.5114, abs=1e-3)

    def test_folding_oracle_band_limited(self):
        # Ideal switch, noise confined below the 7th LO harmonic: the nf
        # follows the truncated folding sum over harmonics 1, 3, 5.
        mixer = make_mixer(a3=0.0, v_gs1=0.0, kappa=0.0)
        scenario, settings = noise_figure_grid_scenario(
            mixer, noise_density=1e-9, noise_band_lo_harmonics=6)
        res = measure_noise_figure(scenario, settings)
        oracle = 10 * math.log10(2 * (1 + 1 / 9 + 1 / 25))
        assert res.nf_db == pytest.approx(oracle, abs=0.3)
        assert res.warning is None

    def test_full_band_noise_folds_everything(self):
        # White noise across the whole grid: a +/-1 switch leaves white
        # noise white, so the figure is 10*log10(pi^2/4).
        mixer = make_mixer(a3=0.0, v_gs1=0.0, kappa=0.0)
        scenario, settings = noise_figure_grid_scenario(mixer, noise_density=1e-9)
        res = measure_noise_figure(scenario, settings)
        assert res.nf_db == pytest.approx(10 * math.log10(math.pi ** 2 / 4),
                                          abs=0.15)

    def test_unity_gain_pass_through(self):
        # LO held silent pins the switch at +1; with gm*rd = 1 the stage is
        # a noiseless wire and the figure is 0 dB.
        mixer = make_mixer(gm=0.02, rd=50.0, a3=0.0, v_gs1=0.0, kappa=0.0)
        scenario, settings = noise_figure_grid_scenario(
            mixer, noise_density=1e-9, lo_amplitude=0.0)
        f_rf = scenario.f_rf
        settings = replace(settings, output_band_center=f_rf,
                           signal_out_frequency=f_rf)
        res = measure_noise_figure(scenario, settings)
        assert res.nf_db == pytest.approx(0.0, abs=0.2)
        assert res.gain_db == pytest.approx(0.0, abs=1e-9)

    def test_input_density_estimate_matches_injection(self):
        mixer = make_mixer(a3=0.0, v_gs1=0.0, kappa=0.0)
        scenario, settings = noise_figure_grid_scenario(mixer, noise_density=1e-9)
        res = measure_noise_figure(scenario, settings)
        assert res.input_density == pytest.approx(1e-9, rel=0.05)

    def test_setup_bins_mask_the_stimulus_and_the_mixing_products(self):
        s, settings = build_nf_setup(from_dict({}))
        (in_bins, out_bins), _, _ = noise_figure_setup(s, settings)
        rf, lo, width, segments = s.f_rf, s.f_lo, settings.band_width, settings.segments
        assert np.array_equal(in_bins, noise_band_bins(s.grid, rf, width, segments, (rf, lo)))
        assert np.array_equal(out_bins, noise_band_bins(s.grid, s.f_if, width, segments,
                                                        (rf, lo, rf - lo, rf + lo)))

    def test_zero_noise_rejected(self):
        s = calibrated_scenario()
        settings = NoiseFigureSettings(band_width=6.0, segments=4)
        with pytest.raises(ValueError):
            measure_noise_figure(replace(s, input_noise_density=0.0), settings)


def sampled_square_wave_nf_db(m, harmonics):
    """NF of a linear mixer with the ideal switch sampled ``m`` times per LO
    period, noise folded from the LO harmonics ``harmonics`` (both signs):
    the two-sided coefficients of that switch are ``2/(m*sin(k*pi/m))``
    for odd ``k``, and the conversion gain is the first one."""
    share = sum((math.sin(math.pi / m) / math.sin(k * math.pi / m)) ** 2 for k in harmonics)
    return 10.0 * math.log10(2.0 * share)


def nf_config_case(case, seed):
    """``(scenario, settings)`` of one config case on a 147,456-sample NF grid."""
    mixer = {
        "smooth_0.05": {"switch_mode": "smooth", "switch_v_sw": 0.05},
        "smooth_0.3": {"switch_mode": "smooth", "switch_v_sw": 0.3},
        "smooth_1.0": {"switch_mode": "smooth", "switch_v_sw": 1.0},
        # Strong enough that a slip in the slope's 2*a2 or 3*a3 moves the
        # figure by about 1 dB.
        "a2": {"a2": 1.0},
        "a3": {"a3": -20.0},
        "kappa_0": {"kappa": 0.0},
        "a3_0": {"a3": 0.0},
    }.get(case, {})
    noise = {"seed": seed}
    if case == "band_limited":
        noise["bandwidth_hz"] = 5.0e9  # the LO's first harmonic folds, its third does not
    return build_nf_setup(from_dict({"scenario": {"mixer": mixer, "noise": noise},
                                     "sweeps": {"nf": {"grid": {"bins_per_unit": 256}}}}))


class TestPeriodicNoiseFigure:
    """The NF from the periodic small-signal gain, against closed forms and
    against the Monte-Carlo :func:`measure_noise_figure`."""

    @pytest.mark.parametrize("m", [8, 32, 128])
    def test_white_noise_through_the_sampled_ideal_switch(self, m):
        # |G_1| = 2/(m*sin(pi/m)) and mean(g^2) = (rd*gm)^2, so the figure
        # is 20*log10(m*sin(pi/m)/2); it tends to 10*log10(pi^2/4).
        mixer = make_mixer(a3=0.0, v_gs1=0.0, kappa=0.0)
        s, settings = noise_figure_grid_scenario(mixer, noise_density=1e-9, bins_per_unit=256,
                                                 samples_per_lo_period=m)
        res = periodic_noise_figure(s, settings)
        assert res.nf_db == pytest.approx(20.0 * math.log10(m * math.sin(math.pi / m) / 2.0),
                                          rel=0, abs=ORACLE_DB)
        assert res.input_density == 1e-9
        assert res.warning is None

    def test_band_limited_noise_folds_harmonics_one_three_five(self):
        # Noise below the LO's 6th harmonic reaches the IF from harmonics
        # 1, 3 and 5 on either side.
        mixer = make_mixer(a3=0.0, v_gs1=0.0, kappa=0.0)
        s, settings = noise_figure_grid_scenario(mixer, noise_density=1e-9, bins_per_unit=256,
                                                 noise_band_lo_harmonics=6)
        res = periodic_noise_figure(s, settings)
        assert res.nf_db == pytest.approx(sampled_square_wave_nf_db(32, (1, 3, 5)),
                                          rel=0, abs=ORACLE_DB)

    def test_unity_gain_pass_through(self):
        # The silent LO holds the switch at +1 and gm*rd = 1: a wire, read at the RF.
        mixer = make_mixer(gm=0.02, rd=50.0, a3=0.0, v_gs1=0.0, kappa=0.0)
        s, settings = noise_figure_grid_scenario(mixer, noise_density=1e-9, bins_per_unit=256,
                                                 lo_amplitude=0.0)
        settings = replace(settings, output_band_center=s.f_rf, signal_out_frequency=s.f_rf)
        res = periodic_noise_figure(s, settings)
        assert res.nf_db == pytest.approx(0.0, rel=0, abs=ORACLE_DB)

    @pytest.mark.parametrize("case", ["default", "smooth_0.05", "smooth_0.3", "smooth_1.0",
                                      "a2", "a3", "kappa_0", "a3_0", "band_limited"])
    def test_agrees_with_monte_carlo(self, case):
        # The mean Monte-Carlo noise power ratio over 10 seeds sits within
        # three of its standard errors of the periodic one.  Each seed's
        # error is its combined relative spread; the seeds are independent.
        s, settings = nf_config_case(case, 0)
        expected = periodic_noise_figure(s, settings).nf_db
        ratios, spreads = [], []
        for seed in range(1, 11):
            s, settings = nf_config_case(case, seed)
            n_in, n_out = record_band_stats(s, settings)
            ratios.append(10.0 ** ((measure_noise_figure(s, settings).nf_db - expected) / 10.0))
            spreads.append(math.hypot(n_in.relative_spread, n_out.relative_spread))
        error = math.sqrt(sum(r * r for r in spreads)) / len(spreads)
        assert abs(sum(ratios) / len(ratios) - 1.0) <= 3.0 * error

    @pytest.mark.parametrize("overrides, probe_dbm, message", [
        ({"mixer": {"a3": -1.0e300}}, -40.0, "gain has mean square inf"),
        ({"mixer": {"gm": 1.0e-300, "rd": 1.0e-300}}, -40.0, "gain has mean square 0.0"),
        ({"noise": {"input_density": 1.0e308}}, -40.0, "output noise density inf"),
        # The probe is past its cubic's bound, while the quiet tone keeps g finite.
        ({"rf_power_dbm": -3000.0,
          "mixer": {"kappa": 0.0, "gm": 1.0e-300, "a3": -1.0e279, "rd": 1.0e40}},
         -90.0, uncovered_pattern(-90.0, named=True)),
    ], ids=["gain_overflows", "gain_underflows", "density_overflows", "probe_overflows"])
    def test_non_finite_reading_raises_without_a_warning(self, overrides, probe_dbm, message):
        s, settings = nf_setup_from_config(**overrides)
        settings = replace(settings, probe_power_dbm=probe_dbm)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteReadingError, match=message):
                periodic_noise_figure(s, settings)


def record_band_stats(s, settings):
    """Input and output band statistics of the reference's noisy record of ``s``."""
    bins, _, _ = noise_figure_setup(s, settings)
    return signals._band_stats(s.grid, engine._record(s), settings.segments, bins)


def nf_case(case):
    if case == "band_limited":
        return noise_figure_grid_scenario(make_mixer(gm=CAL_GM, a3=CAL_A3, kappa=0.01303),
                                          noise_density=1e-9, noise_band_lo_harmonics=6)
    overrides = {
        "default": {},
        "smooth_a2": {"scenario": {"mixer": {"switch_mode": "smooth", "a2": 0.01}}},
        "kappa_0": {"scenario": {"mixer": {"kappa": 0.0}}},
        "segments_4": {"sweeps": {"nf": {"segments": 4}}},
        "segments_64": {"sweeps": {"nf": {"segments": 64}}},
    }[case]
    return build_nf_setup(from_dict(overrides))


class TestNoiseFigureReference:
    """The Monte-Carlo :func:`measure_noise_figure`, pinned to its bits."""

    # (input_density, output_density, gain_db, nf_db) of each case, as the
    # reference read them when it streamed its record a periodogram segment
    # at a time.
    PINNED = {
        "default": (3.777482313283636e-10, 2.8059103099692394e-09,
                    13.507760709609993, 3.9096661952440694),
        "band_limited": (1.0054393863899708e-09, 7.289684159340396e-09,
                         13.507760709609993, 3.699295651185599),
        "smooth_a2": (3.777482313283636e-10, 2.7922554446853106e-09,
                      13.50121489303737, 3.8738392442738885),
        "kappa_0": (3.777482313283447e-10, 2.8214340823020517e-09,
                    13.568258107671202, 3.897091265009063),
        "segments_4": (3.7793823882590807e-10, 2.8066668408105867e-09,
                       13.507760709609993, 3.907639865984098),
        "segments_64": (3.7781554213922077e-10, 2.8046014880473904e-09,
                        13.507760709609993, 3.904066103718058),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_values(self, case):
        res = measure_noise_figure(*nf_case(case))
        assert (res.input_density, res.output_density, res.gain_db,
                res.nf_db) == self.PINNED[case]
        assert res.warning is None

    @pytest.mark.parametrize("noise_density, rf_power_dbm, message", [
        (1.0e200, None, "signal contains non-finite samples"),
        (None, 2500.0, "signal contains non-finite samples"),
        (None, 3100.0, "3100.0 dBm has no finite peak voltage"),
    ], ids=["noise_overflow", "tone_overflow", "no_finite_peak_voltage"])
    def test_record_failures(self, noise_density, rf_power_dbm, message):
        s, settings = build_nf_setup(from_dict({}))
        if noise_density is not None:
            s = replace(s, input_noise_density=noise_density)
        if rf_power_dbm is not None:
            s = at_power(s, rf_power_dbm)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as got:
                measure_noise_figure(s, settings)
        assert str(got.value) == message

    def test_spread_of_a_large_finite_record(self):
        # A 1e150 ohm load leaves the record finite and its periodogram
        # too; the spread is taken relative to the mean before the std
        # squares it, so it stays finite and reads the default load's.
        s, settings = nf_setup_from_config()
        default = [b.relative_spread for b in record_band_stats(s, settings)]
        # Normalising first moves the input spread in its last digit only.
        assert default[0] == pytest.approx(0.06271052485348214, rel=1e-14, abs=0)
        s, settings = nf_setup_from_config(mixer={"rd": 1.0e150})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = measure_noise_figure(s, settings)
            spreads = [b.relative_spread for b in record_band_stats(s, settings)]
        assert res.warning is None and math.isfinite(res.nf_db)
        assert spreads == pytest.approx(default, rel=1e-9, abs=0)

    def test_unstable_estimate_warns(self):
        # 4 segments over 24-unit bands leave 4 unmasked periodogram bins
        # in each band: the input band's spread is about 14%.
        s, settings = nf_setup_from_config()
        settings = replace(settings, segments=4, band_width=24.0)
        spread = max(b.relative_spread for b in record_band_stats(s, settings))
        assert f"{spread:.1%}" == "14.5%"
        res = measure_noise_figure(s, settings)
        assert res.warning == ("unstable estimate: periodogram spread 14.5% exceeds 10%; "
                               "increase segments or bandwidth")
        assert math.isfinite(res.nf_db)

    def test_cold_run_keeps_no_record_length_array(self):
        # With the memo empty, the tones, LO and switch are built on the
        # 576-sample common period, so the memo keeps no array of the
        # 1,179,648-sample record.
        s, settings = build_nf_setup(from_dict({}))
        memo.clear()
        measure_noise_figure(s, settings)
        arrays = list(memo._arrays.values())
        assert arrays and all(a.size < s.grid.num_samples for a in arrays)


def full_record_probe_gain_db(s, settings, f_out):
    """Probe gain read on the scenario's full record: the reference the
    common-period probe must reproduce."""
    tone = ToneSpec(frequency=s.f_rf, power_dbm=settings.probe_power_dbm,
                    phase=s.rf_tones[0].phase)
    probe = replace(s, rf_tones=(tone,), input_noise_density=0.0,
                    input_noise_band=None)
    amp = bin_amplitude(simulate(probe).v_out, f_out).amplitude
    return 20.0 * math.log10(amp / tone.peak_amplitude())


def nf_setup_from_config(**overrides):
    return build_nf_setup(from_dict({
        "scenario": overrides,
        "sweeps": {"nf": {"grid": {"bins_per_unit": 256}}}}))


class TestNoiseFigureProbe:
    def test_probe_runs_on_one_common_period(self, monkeypatch):
        s, settings = build_nf_setup(from_dict({}))
        grids = record_grids(monkeypatch)
        res = measure_noise_figure(s, settings)
        # The noisy record on the 1,179,648-sample NF grid, whole, then the
        # probe's drive cubic on the 576-sample common period of RF, LO and IF.
        assert grids == [1179648, 576]
        monkeypatch.undo()
        assert res.gain_db == pytest.approx(
            full_record_probe_gain_db(s, settings, s.f_if), abs=1e-9)

    @pytest.mark.parametrize("case", ["smooth_a2", "phases", "signal_out",
                                      "lowered_period"])
    def test_probe_gain_matches_full_record(self, case):
        if case == "smooth_a2":
            s, settings = nf_setup_from_config(
                mixer={"switch_mode": "smooth", "a2": 0.01})
        elif case == "phases":
            s, settings = nf_setup_from_config(rf_phase_rad=0.3, lo_phase_rad=0.7)
        elif case == "signal_out":
            s, settings = nf_setup_from_config()
            settings = replace(settings, signal_out_frequency=s.f_rf + s.f_lo)
        else:
            # A 2:1:1 plan at 8 samples per LO period: the common period of
            # 8 samples is lowered to the shortest valid grid, 16 samples.
            # No DC current: the IF ray shares its bin with the LO.
            s = make_scenario(mixer=make_mixer(a3=-0.5, v_gs1=0.0), rf_hz=2e9,
                              lo_hz=1e9, bins_per_unit=64,
                              samples_per_lo_period=8, noise_density=1e-9)
            settings = NoiseFigureSettings(band_width=32.0, segments=4)
        _, probe, f_out = noise_figure_setup(s, settings)
        assert probe.grid == s.grid
        period = period_of(probe, f_out)
        assert period.grid.num_samples < s.grid.num_samples
        assert period.grid.sample_rate == s.grid.sample_rate
        res = measure_noise_figure(s, settings)
        assert res.gain_db == pytest.approx(
            full_record_probe_gain_db(s, settings, f_out), abs=1e-9)


    def test_silent_probe_rejected(self):
        # -1e6 dBm is a peak voltage of 0.0: no gain can be read over it.
        s, settings = nf_setup_from_config()
        with pytest.raises(WrongStimulusError, match="non-silent RF tone"):
            measure_noise_figure(s, replace(settings, probe_power_dbm=-1.0e6))

    def test_non_finite_probe_gain_rejected(self):
        # The probe is past its cubic's bound, while the noise is too weak
        # for the record to overflow; periodic_noise_figure's own test has
        # this probe too.
        s, settings = nf_setup_from_config(
            rf_power_dbm=-3000.0, noise={"input_density": 1.0e-90},
            mixer={"kappa": 0.0, "gm": 1.0e-300, "a3": -1.0e279, "rd": 1.0e40})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteReadingError, match=uncovered_pattern(-90.0, named=True)):
                measure_noise_figure(s, replace(settings, probe_power_dbm=-90.0))


def quiet_readings(s, two_tone, per_tone_dbm):
    """Every noise-free reading of the CLI's measurements, run in its order."""
    readings = {"cg": [measure_conversion_gain(s)]}
    p1db = measure_p1db(s)
    readings["p1db"] = [*p1db.columns[2], p1db.p1db_dbm]
    iip3 = measure_iip3(two_tone, per_tone_dbm)
    readings["iip3"] = [iip3.p_fund_dbm, iip3.p_im3_dbm, iip3.p_im3_mirror_dbm,
                        iip3.iip3_dbm]
    readings["isolation"] = [measure_isolation(s)]
    return readings


class TestCommonPeriod:
    @pytest.mark.parametrize("mixer", [{}, {"switch_mode": "smooth"}, {"a2": 0.01}],
                             ids=["default", "smooth_switch", "a2"])
    def test_readings_match_full_record(self, monkeypatch, mixer):
        # A 2-unit tone spacing puts the IIP3 rays on even bins, so its
        # common period is 4,608 of the 9,216 samples.
        run, inputs = prepare(from_dict({
            "scenario": {"mixer": mixer},
            "sweeps": {"iip3": {"tone_spacing_hz": 5.0e7}}}))
        grids = record_grids(monkeypatch)
        period = quiet_readings(run.scenario, *inputs["iip3"])
        assert len(period["p1db"]) == 82
        # One drive cubic each for cg, the sweep and iip3's two drives;
        # isolation reads the pump and runs no kernel.
        assert grids == [2304, 2304, 4608]
        grids.clear()
        monkeypatch.setattr(SimGrid, "common_period", lambda grid, frequencies: grid)
        full = quiet_readings(run.scenario, *inputs["iip3"])
        assert set(grids) == {9216}
        for name, values in full.items():
            assert period[name] == pytest.approx(values, rel=0, abs=1e-9), name

    def test_noisy_scenario_reads_its_quiet_period(self, monkeypatch):
        # The 9,216-sample scenario's noise is neither drawn nor read: the
        # gain is read on the noise-free 2,304-sample period alone.
        run, _ = prepare(from_dict({"measurements": ["cg"]}))
        assert run.scenario.input_noise_density > 0
        grids = record_grids(monkeypatch)
        draws = []

        def counting_noise(*args):
            draws.append(args)
            return signals._noise(*args)

        monkeypatch.setattr(engine, "_noise", counting_noise)
        measure_conversion_gain(run.scenario)
        assert grids == [2304]
        assert draws == []

    def test_noise_free_period_scenario_is_kept(self):
        run, _ = prepare(from_dict({"measurements": ["cg"]}))
        period = period_of(run.scenario, run.scenario.f_if)
        assert period.grid.num_samples == 2304
        assert period.input_noise_density == 0.0 and period.input_noise_band is None
        assert period_of(period, period.f_if) is period


def load_bench_workloads():
    """The benchmark's ``bench/workloads.py``, for its sweep design points."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module


SWEEP_DESIGNS = [cfg for seed in (1, 2)
                 for cfg in load_bench_workloads().sweep_configs(seed)]


class TestDriveCubicOracle:
    """Every drive reading of the cubic against the drive's own ``simulate``
    and ``bin_amplitude``, within ``ORACLE_DB``: the benchmark's sweep design
    points of seeds 1 and 2, and designs off their ranges."""

    @pytest.mark.parametrize("cfg", SWEEP_DESIGNS + [
        {"scenario": {"mixer": {"a2": 0.01}}},
        {"scenario": {"mixer": {"switch_mode": "smooth"}}},
        {"scenario": {"mixer": {"kappa": 0.05}}},
        {"scenario": {"mixer": {"kappa": 0.05, "a2": -0.02, "switch_mode": "smooth",
                                "switch_v_sw": 0.3}}},
    ], ids=[f"sweep_seed{seed}_{i}" for seed in (1, 2) for i in range(8)]
        + ["a2", "smooth_switch", "kappa_0.05", "smooth_a2_kappa_0.05"])
    def test_every_drive_reading(self, monkeypatch, cfg):
        run, inputs = prepare(from_dict({**cfg, "measurements": ["cg", "p1db", "iip3"]}))
        s = run.scenario
        assert measure_conversion_gain(s) == pytest.approx(
            reference_gain_db(s, s.rf_tones[0].power_dbm), rel=0, abs=ORACLE_DB)
        power_range, step = inputs["p1db"]
        res = measure_p1db(s, power_range, step)
        assert_sweeps_agree(res.columns, reference_sweep(s, sweep_powers(power_range, step)))
        assert_iip3_agrees(monkeypatch, *inputs["iip3"])



class TestNoisyReadsItsQuietCopy:
    """A noisy scenario's gain, compression sweep, two-tone readings and
    noise-figure probe gain equal those of its noise-free copy to the bit:
    every drive reading is of the deterministic mixer."""

    @pytest.mark.parametrize("scenario", [
        {},
        {"mixer": {"kappa": 0.05, "a2": 0.01}},
        {"noise": {"bandwidth_hz": 5.0e9}},
    ], ids=["default", "kappa_0.05_a2", "band_limited"])
    def test_readings_equal_the_quiet_copy(self, scenario):
        cfg = from_dict({"scenario": scenario})
        run, inputs = prepare(cfg)
        s = run.scenario
        assert s.input_noise_density > 0
        assert (s.input_noise_band is not None) == ("noise" in scenario)
        assert measure_conversion_gain(s) == measure_conversion_gain(quiet(s))
        noisy_p1db = measure_p1db(s, *inputs["p1db"])
        quiet_p1db = measure_p1db(quiet(s), *inputs["p1db"])
        assert len(noisy_p1db.columns[0]) == 81
        assert noisy_p1db == quiet_p1db  # every sweep point and exact_dbm
        two, per_tone = inputs["iip3"]
        assert two.input_noise_density > 0
        assert measure_iip3(two, per_tone) == measure_iip3(quiet(two), per_tone)
        nf_scenario, settings = build_nf_setup(cfg)
        _, probe, f_out = noise_figure_setup(nf_scenario, settings)
        assert probe.input_noise_density > 0
        assert metrics._probe_gain_db(probe, f_out) == metrics._probe_gain_db(quiet(probe),
                                                                               f_out)


class TestIsolationPort:
    """Isolation reads the pump's noise-free RF port with the bits of the
    RF port that ``simulate`` builds on the same period: the default design
    and the benchmark's sweep design points of seeds 1 and 2."""

    @pytest.mark.parametrize("cfg", [{}] + SWEEP_DESIGNS, ids=["default"] + [
        f"sweep_seed{seed}_{i}" for seed in (1, 2) for i in range(8)])
    def test_equals_the_simulated_port(self, cfg):
        run, _ = prepare(from_dict({**cfg, "measurements": ["isolation"]}))
        s = run.scenario
        period = replace(quiet(s), grid=s.grid.common_period((s.f_rf, s.f_lo)))
        ray = bin_amplitude(simulate(period).v_rf_port, s.f_lo).amplitude
        assert engine._port_ray(s, s.f_lo) == ray
        assert measure_isolation(s) == 20.0 * math.log10(ray / s.lo_tone.peak_amplitude())


class TestDriveCubicGuard:
    """A drive is read from the cubic only where its own record is provably
    finite; every other drive fails by name."""

    # A fine grid across the onset of overflow of the calibrated mixer.  Its
    # own records read finite up to 2,032.1 dBm, then inf (the projection's
    # sum overflows), then NaN from 2,041.4 dBm, and fail from 2,050.5 dBm
    # on.  The guard, which bounds every sample by the largest and the sum
    # by N of them, refuses drives from 1,996 dBm on.
    DRIVES_DBM = [1900.0 + 0.1 * i for i in range(1601)]

    def test_drives_across_the_overflow_onset(self):
        s = make_scenario(mixer=make_mixer(gm=CAL_GM, a3=CAL_A3, kappa=0.01303))
        cubic = engine._drive_cubic(s, (s.f_if,))
        gain = partial(metrics._gain_at, metrics._gain_cubic(s, s.f_if))
        covered = []
        for p in self.DRIVES_DBM:
            amp = signals.dbm_to_amplitude(p)
            covered.append(cubic.covers(amp))
            if covered[-1]:
                assert gain(amp) == pytest.approx(reference_gain_db(s, p), rel=0,
                                                  abs=ORACLE_DB), p
            else:
                with pytest.raises(NonFiniteReadingError) as got:
                    gain(amp)
                assert str(got.value) == uncovered(amp)
        # The grid reaches both sides of the guard, which it crosses once.
        onset = covered.index(False)
        assert self.DRIVES_DBM[onset] == pytest.approx(1996.0, rel=0, abs=1e-9)
        assert all(covered[:onset]) and not any(covered[onset:])

    def test_covered_drives_have_finite_records(self):
        # Where the guard vouches for a drive, its own record is finite and
        # so is its projection, for one tone and for two.
        for s in (calibrated_scenario(kappa=0.01303),
                  two_tone_variant(calibrated_scenario(kappa=0.01303))):
            cubic = engine._drive_cubic(s, (s.f_if,))
            covered = [p for p in self.DRIVES_DBM
                       if cubic.covers(signals.dbm_to_amplitude(p))]
            assert 0 < len(covered) < len(self.DRIVES_DBM)
            # simulate refuses a record with a non-finite sample.
            v_out = simulate(at_power(period_of(s, s.f_if), covered[-1])).v_out
            assert math.isfinite(abs(bin_value(v_out, s.f_if)))


class TestSweepWork:
    def test_work_does_not_grow_with_the_sweep(self, monkeypatch):
        # An 11-point and a 401-point sweep make the same switch, the same
        # grids of N-sample arrays and the same projections; no drive runs
        # its own record.
        s = calibrated_scenario()
        work = []
        for step, points in ((4.0, 11), (0.1, 401)):
            grids = record_grids(monkeypatch)
            switches = record_switches(monkeypatch)
            projections = record_projections(monkeypatch)
            res = measure_p1db(s, (-40.0, 0.0), step)
            monkeypatch.undo()
            assert len(res.columns[0]) == points
            work.append((grids, switches, projections))
        assert work[0] == work[1] == ([2304], [2304], [2304] * 4)


@st.composite
def sweep_cases(draw):
    """A compressive mixer, its scenario's phases and a sweep within -60 .. +10 dBm."""
    mixer = make_mixer(
        gm=draw(st.floats(0.005, 0.1)), v_gs1=draw(st.floats(0.0, 1.0)),
        a2=draw(st.floats(-0.5, 0.5).filter(bool)), a3=draw(st.floats(-5.0, -0.01)),
        rd=draw(st.floats(50.0, 400.0)), kappa=draw(st.floats(0.0, 0.3)),
        switch_mode=draw(st.sampled_from(devices.SWITCH_MODES)))
    phases = st.floats(-math.pi, math.pi)
    try:
        s = make_scenario(mixer=mixer, rf_phase=draw(phases), lo_phase=draw(phases))
    except ValidationError:  # an LO phase that samples the ideal switch's instants
        assume(False)
    lo = draw(st.floats(-60.0, 9.0))
    hi = draw(st.floats(lo + 0.5, 10.0))
    return s, sweep_powers((lo, hi), draw(st.floats(0.05, hi - lo)))


def scalar_gain_at(*_args):
    raise AssertionError("the sweep was read point by point")


class TestArraySweep:
    """The sweep read at once from its cubic against the gain reader, point
    by point, to the bit."""

    @settings(max_examples=200, deadline=None)
    @given(sweep_cases())
    def test_equals_the_point_by_point_reading(self, case):
        s, powers = case
        cubic = metrics._gain_cubic(s, s.f_if)
        with mock.patch.object(metrics, "_gain_at", scalar_gain_at):
            inputs, outputs, gains = metrics._sweep_columns(cubic, powers)
        gain = partial(metrics._gain_at, cubic)
        assert inputs == tuple(powers)
        for p_in, output, gain_db in zip(powers, outputs, gains, strict=True):
            expected = p_in + gain(signals.dbm_to_amplitude(p_in))
            assert (output.hex(), gain_db.hex()) == (expected.hex(), (expected - p_in).hex())

    def test_uncovered_hot_end_is_read_point_by_point(self):
        # The guard refuses the calibrated mixer's drives from 1,996 dBm on
        # (TestDriveCubicGuard): the sweep is read point by point, and fails
        # at the first of them.
        s = calibrated_scenario(kappa=0.01303)
        cubic = metrics._gain_cubic(s, s.f_if)
        powers = sweep_powers((1990.0, 2000.0), 1.0)
        assert cubic.sweep(np.array([signals.dbm_to_amplitude(p) for p in powers])) is None
        reads, gain_at = [], metrics._gain_at

        def counted_gain_at(cubic, amp_in, power_dbm):
            reads.append(amp_in)
            return gain_at(cubic, amp_in, power_dbm)

        with mock.patch.object(metrics, "_gain_at", counted_gain_at):
            with pytest.raises(NonFiniteReadingError) as got:
                metrics._sweep_columns(cubic, powers)
        assert reads == [signals.dbm_to_amplitude(p) for p in powers[:7]]
        assert str(got.value) == uncovered(reads[-1], powers[6])


class TestExactCrossing:
    @pytest.mark.parametrize("kappa", [0.0, 0.01303])
    def test_exact_crossing_is_the_gain_root(self, kappa):
        s = calibrated_scenario(kappa=kappa)
        res = measure_p1db(s, (-40.0, 0.0), 0.5)
        threshold = res.small_signal_gain_db - 1.0
        gain = partial(metrics._gain_at, metrics._gain_cubic(s, s.f_if))
        exact = signals.dbm_to_amplitude(res.exact_dbm)
        assert gain(exact) == pytest.approx(threshold, rel=0, abs=1e-9)
        # It lies between the sweep points that bracket the interpolation.
        powers = res.columns[0]
        below = max(p for p in powers if p <= res.p1db_dbm)
        assert below <= res.exact_dbm <= below + 0.5
        assert abs(res.exact_dbm - res.p1db_dbm) < 0.01

    def test_finer_sweep_closes_the_interpolation_gap(self):
        s = calibrated_scenario()
        coarse, fine = (measure_p1db(s, (-40.0, 0.0), step) for step in (1.0, 0.1))
        assert coarse.exact_dbm == pytest.approx(fine.exact_dbm, rel=0, abs=1e-12)
        assert abs(fine.p1db_dbm - fine.exact_dbm) < abs(coarse.p1db_dbm - coarse.exact_dbm)
