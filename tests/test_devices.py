"""Tests for the device models and their closed-form nonlinearity oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbench.devices import (
    BiasParams,
    LeakageParams,
    LoadParams,
    SwitchParams,
    TransconductorParams,
    _lo_leak,
    a1db_closed_form,
    aiip3_closed_form,
    dc_power,
    switch_waveform,
    transconductor_current,
)
from mixbench.errors import NoCompressionError, UndefinedInterceptError, ValidationError
from mixbench.signals import (
    SampledSignal,
    SimGrid,
    ToneSpec,
    amplitude_to_dbm,
    bin_amplitude,
    harmonic_table,
    synthesize_tone,
)

# Calibrated cubic transconductor used throughout: 34 mA/V with the cubic
# term sized so the 1 dB compression point lands at -11.5 dBm.
GM = 0.034
A3 = -0.696


def grid(n=16384):
    return SimGrid(sample_rate=float(n), num_samples=n)


def cosine(g, freq, amp, phase=0.0):
    return synthesize_tone(g, ToneSpec(frequency=freq, amplitude=amp, phase=phase))


class TestTransconductor:
    def test_dc_term(self):
        g = grid(1024)
        p = TransconductorParams(gm=GM, v_gs1=0.5)
        zero = SampledSignal(grid=g, samples=np.zeros(1024))
        i = transconductor_current(p, zero)
        assert i.unit == "ampere"
        np.testing.assert_allclose(i.samples, GM * 0.5)

    def test_linear_gain(self):
        g = grid(1024)
        p = TransconductorParams(gm=GM)
        i = transconductor_current(p, cosine(g, 16.0, 0.1))
        assert bin_amplitude(i, 16.0).amplitude == pytest.approx(0.0034, rel=1e-9)

    def test_cubic_compresses_fundamental(self):
        # At the 1 dB drive the fundamental shrinks to gm*A*0.8913.
        g = grid()
        p = TransconductorParams(gm=GM, a3=A3)
        amp = 0.0841395
        i = transconductor_current(p, cosine(g, 16.0, amp))
        fund = bin_amplitude(i, 16.0).amplitude
        assert fund == pytest.approx(GM * amp * 0.8913, rel=1e-4)

    def test_quadratic_term_makes_second_harmonic(self):
        # a2*A^2*cos^2 splits into a DC shift and a 2f ray, each a2*A^2/2.
        g = grid()
        p = TransconductorParams(gm=GM, a2=0.004)
        amp = 0.5
        i = transconductor_current(p, cosine(g, 16.0, amp))
        assert bin_amplitude(i, 32.0).amplitude == pytest.approx(
            0.004 * amp * amp / 2, rel=1e-9)
        assert float(np.mean(i.samples)) == pytest.approx(
            0.004 * amp * amp / 2, rel=1e-9)

    def test_requires_volts(self):
        g = grid(1024)
        p = TransconductorParams(gm=GM)
        current = SampledSignal(grid=g, samples=np.zeros(1024), unit="ampere")
        with pytest.raises(ValidationError):
            transconductor_current(p, current)

    def test_linearity_without_cubic(self):
        g = grid(1024)
        p = TransconductorParams(gm=GM, v_gs1=0.3)
        x = cosine(g, 8.0, 0.2)
        y = cosine(g, 40.0, 0.05, phase=0.7)
        combined = SampledSignal(grid=g, samples=2.0 * x.samples + 3.0 * y.samples)
        direct = transconductor_current(p, combined).samples
        parts = (2.0 * transconductor_current(p, x).samples
                 + 3.0 * transconductor_current(p, y).samples
                 - 4.0 * GM * 0.3)  # remove the duplicated DC term
        np.testing.assert_allclose(direct, parts, rtol=0, atol=1e-12)

    def test_gm_must_be_positive(self):
        with pytest.raises(ValidationError):
            TransconductorParams(gm=0.0)


class TestSwitch:
    def test_values_are_exactly_plus_minus_one(self):
        g = grid()
        lo = cosine(g, 3.0, 1.0, phase=math.pi * 3.0 / g.num_samples)
        sw = switch_waveform(SwitchParams(), lo)
        assert sw.unit == "dimensionless"
        assert set(np.unique(sw.samples)) == {-1.0, 1.0}

    def test_sign_of_zero_is_plus_one(self):
        g = grid(1024)
        zero = SampledSignal(grid=g, samples=np.zeros(1024))
        sw = switch_waveform(SwitchParams(), zero)
        assert np.all(sw.samples == 1.0)

    def test_constant_positive_input(self):
        g = grid(1024)
        two = SampledSignal(grid=g, samples=np.full(1024, 2.0))
        assert np.all(switch_waveform(SwitchParams(), two).samples == 1.0)

    def test_square_series_coefficients(self):
        g = grid()
        lo = cosine(g, 1.0, 1.0, phase=math.pi / g.num_samples)
        sw = switch_waveform(SwitchParams(), lo)
        lines = harmonic_table(sw, 1.0, 5)
        assert lines[0].amplitude == pytest.approx(4 / math.pi, abs=1e-6)
        assert lines[2].amplitude == pytest.approx(4 / (3 * math.pi), abs=1e-6)
        assert lines[4].amplitude == pytest.approx(4 / (5 * math.pi), abs=1e-6)
        assert lines[1].amplitude < 1e-9
        assert lines[3].amplitude < 1e-9

    def test_even_harmonics_vanish_for_any_lo_level(self):
        g = grid()
        for amp in (0.3, 1.0, 2.5):
            lo = cosine(g, 4.0, amp, phase=math.pi * 4.0 / g.num_samples)
            sw = switch_waveform(SwitchParams(), lo)
            for k in (2, 4, 6):
                assert bin_amplitude(sw, 4.0 * k).amplitude < 1e-9

    def test_smooth_mode_close_to_ideal(self):
        g = grid()
        lo = cosine(g, 1.0, 1.0, phase=math.pi / g.num_samples)
        hard = switch_waveform(SwitchParams(), lo)
        soft = switch_waveform(SwitchParams(mode="smooth", v_sw=1e-4), lo)
        h1_hard = bin_amplitude(hard, 1.0).amplitude
        h1_soft = bin_amplitude(soft, 1.0).amplitude
        assert h1_soft == pytest.approx(h1_hard, rel=1e-3)
        assert h1_soft == pytest.approx(4 / math.pi, rel=1e-3)

    def test_smooth_mode_pointwise_convergence(self):
        g = grid(1024)
        lo = cosine(g, 8.0, 1.0, phase=0.3)
        hard = switch_waveform(SwitchParams(), lo).samples
        off_zero = np.abs(lo.samples) > 1e-3
        for v_sw in (1e-2, 1e-4, 1e-6):
            soft = switch_waveform(SwitchParams(mode="smooth", v_sw=v_sw), lo).samples
            bound = 1.0 - math.tanh(1e-3 / v_sw) + 1e-12
            assert np.max(np.abs(soft[off_zero] - hard[off_zero])) <= bound
        soft = switch_waveform(SwitchParams(mode="smooth", v_sw=1e-9), lo).samples
        assert np.max(np.abs(soft[off_zero] - hard[off_zero])) < 1e-12

    def test_smooth_mode_needs_positive_scale(self):
        with pytest.raises(ValidationError):
            SwitchParams(mode="smooth", v_sw=0.0)


class TestBias:
    def test_reference_power(self):
        # 1.8 V and 1.111 mA draw 2.0 mW.
        assert dc_power(BiasParams(vdd=1.8, i_bias=1.111e-3)) == pytest.approx(
            2.0e-3, rel=1e-3)

    def test_zero_current(self):
        assert dc_power(BiasParams(vdd=1.8, i_bias=0.0)) == 0.0

    def test_simple_product(self):
        assert dc_power(BiasParams(vdd=1.2, i_bias=1e-3)) == pytest.approx(1.2e-3)

    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_bilinear(self, vdd, i_bias, k):
        base = dc_power(BiasParams(vdd=vdd, i_bias=i_bias))
        assert dc_power(BiasParams(vdd=k * vdd, i_bias=i_bias)) == pytest.approx(
            k * base, rel=1e-12)
        assert dc_power(BiasParams(vdd=vdd, i_bias=k * i_bias)) == pytest.approx(
            k * base, rel=1e-12)


class TestClosedForms:
    def test_a1db_calibrated_value(self):
        p = TransconductorParams(gm=GM, a3=A3)
        a = a1db_closed_form(p)
        assert a == pytest.approx(0.0841622, rel=1e-4)
        assert amplitude_to_dbm(a) == pytest.approx(-11.5, abs=0.01)

    def test_a1db_requires_compression(self):
        with pytest.raises(NoCompressionError):
            a1db_closed_form(TransconductorParams(gm=GM, a3=0.0))
        with pytest.raises(NoCompressionError):
            a1db_closed_form(TransconductorParams(gm=GM, a3=0.1))

    def test_a1db_scaling_law(self):
        a = a1db_closed_form(TransconductorParams(gm=GM, a3=A3))
        a_half = a1db_closed_form(TransconductorParams(gm=GM, a3=2 * A3))
        assert a_half == pytest.approx(a / math.sqrt(2), rel=1e-12)

    def test_aiip3_calibrated_value(self):
        p = TransconductorParams(gm=GM, a3=A3)
        a = aiip3_closed_form(p)
        assert a == pytest.approx(0.2552138, rel=1e-5)
        assert amplitude_to_dbm(a) == pytest.approx(-1.862, abs=0.01)

    def test_aiip3_requires_cubic(self):
        with pytest.raises(UndefinedInterceptError):
            aiip3_closed_form(TransconductorParams(gm=GM, a3=0.0))

    def test_fixed_spacing_between_the_two_points(self):
        # The cubic forces IIP3 - P1dB = 9.64 dB for any (gm, a3).
        for gm_v, a3_v in ((0.034, -0.696), (0.01, -0.2), (0.08, -5.0)):
            p = TransconductorParams(gm=gm_v, a3=a3_v)
            spacing = amplitude_to_dbm(aiip3_closed_form(p)) - amplitude_to_dbm(
                a1db_closed_form(p))
            assert spacing == pytest.approx(9.6357, abs=1e-3)


class TestLeakage:
    def test_zero_coupling(self):
        lo = cosine(grid(1024), 16.0, 1.0)
        assert np.all(_lo_leak(LeakageParams(kappa=0.0), lo.samples) == 0.0)

    def test_strong_coupling_is_identity_scaled(self):
        lo = cosine(grid(1024), 16.0, 1.0)
        np.testing.assert_allclose(_lo_leak(LeakageParams(kappa=0.5), lo.samples),
                                   0.5 * lo.samples)

    def test_calibrated_isolation_ratio(self):
        g = grid(1024)
        lo = cosine(g, 16.0, 1.0)
        out = SampledSignal(g, _lo_leak(LeakageParams(kappa=0.01303), lo.samples))
        ratio_db = 20 * math.log10(bin_amplitude(out, 16.0).amplitude
                                   / bin_amplitude(lo, 16.0).amplitude)
        assert ratio_db == pytest.approx(-37.70, abs=0.01)

    def test_kappa_range(self):
        with pytest.raises(ValidationError):
            LeakageParams(kappa=-0.1)
        with pytest.raises(ValidationError):
            LeakageParams(kappa=1.0)


class TestLoad:
    def test_positive_resistance_required(self):
        with pytest.raises(ValidationError):
            LoadParams(rd=0.0)
