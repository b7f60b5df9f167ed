"""Tests for the figure-of-merit measurements against their oracles."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    make_mixer,
    make_scenario,
    noise_figure_grid_scenario,
    record_grids,
)

from mixbench import engine, metrics, signals
from mixbench.cli import prepare
from mixbench.config import build_nf_setup, from_dict
from mixbench.devices import (
    TransconductorParams,
    a1db_closed_form,
    aiip3_closed_form,
)
from mixbench.engine import simulate
from mixbench.errors import (
    CompressionNotFoundError,
    ImmeasurableIM3Error,
    NoCompressionError,
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
    reference_formula_noise_figure,
    two_tone_variant,
)
from mixbench.signals import (
    ToneSpec,
    amplitude_to_dbm,
    bin_amplitude,
    bin_value,
    noise_band_bins,
)

CAL_GM = 0.034
CAL_A3 = -0.696


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


def reference_gain_db(s, power_dbm):
    """Gain of ``s`` at ``power_dbm`` the per-point way: one ``simulate`` and
    one ``bin_amplitude``, on the scenario's common period when noise-free."""
    s = metrics._on_common_period(s, s.f_if).with_rf_power(power_dbm)
    amp_in = s.rf_tones[0].peak_amplitude()
    if amp_in <= 0:
        raise WrongStimulusError("conversion gain needs a non-silent RF tone")
    amp_out = bin_amplitude(simulate(s).v_out, s.f_if).amplitude
    return -math.inf if amp_out <= 0 else 20.0 * math.log10(amp_out / amp_in)


def reference_sweep(s, powers):
    """Compression-sweep points of ``s`` at ``powers``, each from its own simulation."""
    return [metrics._sweep_point(p, p + reference_gain_db(s, p)) for p in powers]


def sweep_powers(power_range, step):
    lo, _ = power_range
    return [lo + i * step for i in range(metrics.sweep_size(power_range, step))]


class TestGainRoutineBits:
    """The sweep's gain routine against one simulation per point, bit for bit."""

    @pytest.mark.parametrize("scenario, noisy", [
        ({}, False),
        ({"mixer": {"switch_mode": "smooth"}}, False),
        ({"mixer": {"a2": 0.01}}, False),
        ({"mixer": {"kappa": 0}}, False),
        ({}, True),
    ], ids=["default", "smooth_switch", "a2", "kappa_0", "noisy"])
    def test_equals_per_point_simulation(self, scenario, noisy):
        run, inputs = prepare(from_dict({"scenario": scenario}))
        s = run.scenario if noisy else run.quiet
        if noisy:
            # Noise on the full 9,216-sample grid, added after the LO leak.
            assert s.input_noise_density > 0 and s.mixer.leakage.kappa > 0
            assert metrics._on_common_period(s, s.f_if) is s
            assert s.grid.num_samples == 9216
        res = measure_p1db(s, *inputs["p1db"])
        reference = reference_sweep(s, sweep_powers(*inputs["p1db"]))
        assert len(res.sweep) == len(reference) == 81
        for point, ref in zip(res.sweep, reference):
            assert point.output_power_dbm == ref.output_power_dbm
            assert point.gain_db == ref.gain_db
        assert measure_conversion_gain(s) == reference_gain_db(s, s.rf_tones[0].power_dbm)

    def test_two_point_sweep(self):
        s = calibrated_scenario()
        res = measure_p1db(s, (-40.0, 0.0), 40.0)
        assert list(res.sweep) == reference_sweep(s, [-40.0, 0.0])

    @pytest.mark.parametrize("mixer, power_range, step, error, message", [
        # The tiny cubic keeps 3000 and 3050 dBm finite; 3100 dBm has no
        # finite peak voltage.
        ({"a3": -1e-300}, (3000.0, 3100.0), 50.0, ValidationError,
         "3100.0 dBm has no finite peak voltage"),
        # -4000 dBm is an amplitude of 0.0.
        ({"a3": CAL_A3}, (-4000.0, -3990.0), 5.0, WrongStimulusError,
         "conversion gain needs a non-silent RF tone"),
        # The cube of a 2500 dBm drive overflows.
        ({"a3": CAL_A3}, (2500.0, 2600.0), 50.0, ValidationError,
         "signal contains non-finite samples"),
        # Points fail in order: 3000 dBm overflows before 3100 dBm is reached.
        ({"a3": CAL_A3}, (3000.0, 3100.0), 50.0, ValidationError,
         "signal contains non-finite samples"),
    ], ids=["finite_peak_voltage", "silent", "overflow", "overflow_first"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_failures_match_per_point_simulation(self, mixer, power_range, step,
                                                 error, message):
        s = make_scenario(mixer=make_mixer(gm=CAL_GM, kappa=0.01303, **mixer))
        with pytest.raises(error) as ref:
            reference_sweep(s, sweep_powers(power_range, step))
        with pytest.raises(error) as got:
            measure_p1db(s, power_range, step)
        assert str(got.value) == str(ref.value) == message

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_conversion_gain_overflow(self):
        s = calibrated_scenario().with_rf_power(2500.0)
        with pytest.raises(ValidationError, match="signal contains non-finite samples"):
            measure_conversion_gain(s)

    @pytest.mark.parametrize("amplitude, expected", [(1e305, math.inf), (1e306, math.nan)])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_finite_record_with_overflowing_readout(self, amplitude, expected):
        # Every v_out sample is finite, but the IF projection overflows: to
        # inf, or to NaN where partial sums of both signs overflow.  No
        # error is raised and the reading is that of one simulation.
        s = make_scenario(mixer=make_mixer(gm=CAL_GM, a3=0.0), rf_amplitude=amplitude)
        v_out = simulate(metrics._on_common_period(s, s.f_if)).v_out
        reference = 20.0 * math.log10(abs(bin_value(v_out, s.f_if)) / amplitude)
        got = measure_conversion_gain(s)
        assert np.array_equal([got, reference], [expected, expected], equal_nan=True)

    def test_sweep_memory_is_bounded(self):
        # One sample row at a time: about 150 KB of peak for 401 points.
        run, _ = prepare(from_dict({}))
        measure_p1db(run.quiet, (-40.0, 0.0), 0.1)  # fill the memos first
        tracemalloc.start()
        try:
            res = measure_p1db(run.quiet, (-40.0, 0.0), 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.sweep) == 401
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
        assert len(res.sweep) == 26
        powers = [pt.input_power_dbm for pt in res.sweep]
        assert powers == sorted(powers)
        for pt in res.sweep:
            assert pt.gain_db == pytest.approx(
                pt.output_power_dbm - pt.input_power_dbm, abs=1e-12)

    def test_linear_device_rejected(self):
        with pytest.raises(NoCompressionError,
                           match=r"a3 must be < 0 for compression, got 0\.0"):
            measure_p1db(calibrated_scenario(a3=0.0))

    def test_range_without_crossing(self):
        s = calibrated_scenario()
        message = r"gain never dropped 1 dB below .* within \[-40\.0, -30\.0\] dBm"
        with pytest.raises(CompressionNotFoundError, match=message) as err:
            measure_p1db(s, (-40.0, -30.0), 1.0)
        assert len(err.value.sweep) == 11
        assert list(err.value.sweep) == reference_sweep(
            s, sweep_powers((-40.0, -30.0), 1.0))

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


class TestNoiseFigure:
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


def whole_record_noise_figure(s, settings):
    """Band statistics, gain and figure of ``s`` with its noise record
    simulated whole, at the bins the setup returns: ``simulate``, one rFFT
    of every segment and ``_band_stats``, and the probe's ``simulate`` and
    ``bin_amplitude``; the reference the streamed record must reproduce."""
    bins, probe, f_out = noise_figure_setup(s, settings)
    result = simulate(s)
    stats = [signals._band_stats(s.grid, np.fft.rfft(
                 signal.samples.reshape(settings.segments, -1), axis=1)[:, used])
             for signal, used in zip((result.v_rf_port, result.v_out), bins)]
    gain_db = 20.0 * math.log10(bin_amplitude(simulate(probe).v_out, f_out).amplitude
                                / probe.rf_tones[0].peak_amplitude())
    nf_db = noise_figure_from_densities(stats[1].density, stats[0].density, gain_db)
    return stats, gain_db, nf_db


def streamed_band_stats(s, settings):
    bins, _, _ = noise_figure_setup(s, settings)
    return [signals._band_stats(s.grid, rows)
            for rows in metrics._band_rows(s, settings.segments, bins)]


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


class TestStreamedNoiseRecord:
    """The NF record run one periodogram segment at a time, against the
    whole record, bit for bit."""

    @pytest.mark.parametrize("case", ["default", "band_limited", "smooth_a2",
                                      "kappa_0", "segments_4", "segments_64"])
    def test_equals_whole_record(self, case):
        s, settings = nf_case(case)
        stats, gain_db, nf_db = whole_record_noise_figure(s, settings)
        assert streamed_band_stats(s, settings) == stats
        assert stats[0].segments == settings.segments
        res = measure_noise_figure(s, settings)
        assert (res.input_density, res.output_density) == (stats[0].density,
                                                            stats[1].density)
        assert res.gain_db == gain_db
        assert res.nf_db == nf_db

    @pytest.mark.parametrize("noise_density, rf_power_dbm, message", [
        (1.0e200, None, "signal contains non-finite samples"),
        (None, 2500.0, "signal contains non-finite samples"),
        (None, 3100.0, "3100.0 dBm has no finite peak voltage"),
    ], ids=["noise_overflow", "tone_overflow", "no_finite_peak_voltage"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_failures_match_whole_record(self, noise_density, rf_power_dbm, message):
        s, settings = build_nf_setup(from_dict({}))
        if noise_density is not None:
            s = replace(s, input_noise_density=noise_density)
        if rf_power_dbm is not None:
            s = s.with_rf_power(rf_power_dbm)
        with pytest.raises(ValidationError) as ref:
            whole_record_noise_figure(s, settings)
        with pytest.raises(ValidationError) as got:
            measure_noise_figure(s, settings)
        assert str(got.value) == str(ref.value) == message

    def test_memory_is_bounded(self):
        # A few 36,864-sample segments at a time: about 3 MB of peak, where
        # simulating the 1,179,648-sample record whole takes about 48 MB.
        s, settings = build_nf_setup(from_dict({}))
        measure_noise_figure(s, settings)  # fill the memos first
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            measure_noise_figure(s, settings)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 1024 * 1024


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
        # The noisy record on the NF grid, one 36,864-sample periodogram
        # segment at a time, then one simulation on the 576-sample common
        # period of RF, LO and IF (the probe).
        assert grids == [36864] * 32 + [576]
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
        assert probe.grid.num_samples < s.grid.num_samples
        assert probe.grid.sample_rate == s.grid.sample_rate
        res = measure_noise_figure(s, settings)
        assert res.gain_db == pytest.approx(
            full_record_probe_gain_db(s, settings, f_out), abs=1e-9)


    def test_silent_probe_rejected(self):
        # -1e6 dBm is a peak voltage of 0.0: no gain can be read over it.
        s, settings = nf_setup_from_config()
        with pytest.raises(WrongStimulusError, match="non-silent RF tone"):
            measure_noise_figure(s, replace(settings, probe_power_dbm=-1.0e6))


def quiet_readings(s, two_tone, per_tone_dbm):
    """Every noise-free reading of the CLI's measurements, run in its order."""
    readings = {"cg": [measure_conversion_gain(s)]}
    p1db = measure_p1db(s)
    readings["p1db"] = [pt.gain_db for pt in p1db.sweep] + [p1db.p1db_dbm]
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
        period = quiet_readings(run.quiet, *inputs["iip3"])
        assert len(period["p1db"]) == 82
        assert grids == [2304] * 82 + [4608] * 2 + [2304]
        grids.clear()
        monkeypatch.setattr(metrics, "_on_common_period", lambda s, *rays: s)
        full = quiet_readings(run.quiet, *inputs["iip3"])
        assert set(grids) == {9216}
        for name, values in full.items():
            assert period[name] == pytest.approx(values, rel=0, abs=1e-9), name

    def test_noisy_scenario_keeps_its_full_grid(self, monkeypatch):
        run, _ = prepare(from_dict({"measurements": ["cg"]}))
        assert run.scenario.input_noise_density > 0
        grids = record_grids(monkeypatch)
        measure_conversion_gain(run.scenario)
        assert grids == [9216]

    def test_noise_free_period_scenario_is_kept(self):
        run, _ = prepare(from_dict({"measurements": ["cg"]}))
        period = metrics._on_common_period(run.quiet, run.quiet.f_if)
        assert period.grid.num_samples == 2304
        assert metrics._on_common_period(period, period.f_if) is period
