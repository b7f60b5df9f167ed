"""Tests for the mixer engine: transients, analytic gain, IF filter, grids."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import at_power, make_mixer, make_scenario, period_of

from mixbench import devices, engine, memo, signals
from mixbench.config import build_nf_setup, from_dict
from mixbench.devices import SwitchParams
from mixbench.engine import (
    FilterSpec,
    ScaledPlan,
    Scenario,
    analytic_conversion_gain,
    apply_if_filter,
    butterworth2_response,
    plan_ratio,
    simulate,
)
from mixbench.errors import AliasingError, CoherenceError, ValidationError
from mixbench.metrics import noise_figure_setup, two_tone_variant
from mixbench.signals import (
    SampledSignal,
    SimGrid,
    ToneSpec,
    bin_amplitude,
    bin_value,
    synthesize_tone,
    white_noise,
)


def reference_simulate(s):
    """Node waveforms of ``simulate`` by out-of-place arithmetic.

    Every expression builds a new array, term by term in the order the
    model is written.  Tones use the direct cosine formula over one common
    period of the RF tones and the LO, repeated over the record.
    """
    grid = s.grid
    period = grid.common_period((*(t.frequency for t in s.rf_tones), s.f_lo))
    n = np.arange(period.num_samples)

    def tone(t):
        k = period.bin_index(t.frequency)
        one = t.peak_amplitude() * np.cos(2.0 * np.pi * k * n / period.num_samples
                                          + t.phase)
        return np.tile(one, grid.num_samples // period.num_samples)

    v_lo = tone(s.lo_tone)
    port = np.zeros(grid.num_samples)
    for t in s.rf_tones:
        port = port + tone(t)
    kappa = s.mixer.leakage.kappa
    if kappa != 0.0:
        port = port + kappa * v_lo
    if s.input_noise_density > 0.0:
        port = port + white_noise(grid, s.input_noise_density, s.noise_seed,
                                  band=s.input_noise_band).samples
    p = s.mixer.transconductor
    i_s = p.gm * p.v_gs1 + p.gm * port
    if p.a2 != 0.0:
        i_s = i_s + p.a2 * port * port
    if p.a3 != 0.0:
        i_s = i_s + p.a3 * port * port * port
    sw = s.mixer.switch
    if sw.mode == "ideal_sign":
        switch = np.where(v_lo >= 0.0, 1.0, -1.0)
    else:
        switch = np.tanh(v_lo / sw.v_sw)
    i_out = i_s * switch
    v_out = s.mixer.load.rd * i_out
    return {"v_rf_port": port, "v_out": v_out}


def nf_probe_scenario():
    """The NF gain probe on the common period its drive cubic reads it on."""
    scenario, settings = build_nf_setup(from_dict({}))
    _, probe, f_out = noise_figure_setup(scenario, settings)
    return period_of(probe, f_out)


class TestAnalyticGain:
    def test_calibrated_value(self):
        mixer = make_mixer(gm=0.034, rd=220.0)
        assert analytic_conversion_gain(mixer) == pytest.approx(13.5556, abs=1e-3)

    def test_unity_gain(self):
        mixer = make_mixer(gm=0.01, rd=math.pi / 2 * 100.0)
        assert analytic_conversion_gain(mixer) == pytest.approx(0.0, abs=1e-9)

    def test_doubling_gm_adds_six_db(self):
        base = analytic_conversion_gain(make_mixer(gm=0.034))
        doubled = analytic_conversion_gain(make_mixer(gm=0.068))
        assert doubled - base == pytest.approx(20 * math.log10(2), abs=1e-9)


class TestPlan:
    def test_reference_ratio(self):
        assert plan_ratio(1.9e9, 1.8e9) == (19, 18, 1)

    def test_incommensurate_rejected(self):
        with pytest.raises(ValidationError):
            plan_ratio(1.9e9, 1.8e9 * math.sqrt(2) / 1.4142)

    def test_grid_dimensions(self):
        plan = ScaledPlan(1.9e9, 1.8e9, bins_per_unit=4, samples_per_lo_period=128)
        assert (plan.rf_bin, plan.lo_bin, plan.if_bin) == (76, 72, 4)
        assert plan.num_samples == 128 * 72
        assert plan.hz_per_unit == pytest.approx(2.5e7)
        grid = plan.grid()
        assert grid.resolution == 1.0

    def test_ratio_computed_once(self, monkeypatch):
        calls = []

        def counting_ratio(*args):
            calls.append(args)
            return plan_ratio(*args)

        monkeypatch.setattr(engine, "plan_ratio", counting_ratio)
        plan = ScaledPlan(1.9e9, 1.8e9)
        for _ in range(3):
            assert (plan.rf_bin, plan.lo_bin, plan.if_bin, plan.num_samples) \
                == (76, 72, 4, 9216)
            assert plan.hz_per_unit == 2.5e7 and plan.grid().num_samples == 9216
        assert calls == [(1.9e9, 1.8e9)]

    def test_to_internal(self):
        plan = ScaledPlan(1.9e9, 1.8e9)
        assert plan.to_internal(1.0e8) == 4.0
        with pytest.raises(ValidationError):
            plan.to_internal(1.3e7)


class TestSimulate:
    def test_calibrated_linear_gain(self):
        s = make_scenario(mixer=make_mixer(a3=0.0, kappa=0.0))
        result = simulate(s)
        amp_in = s.rf_tones[0].peak_amplitude()
        amp_if = bin_amplitude(result.v_out, s.f_if).amplitude
        gain = 20 * math.log10(amp_if / amp_in)
        assert gain == pytest.approx(13.5556, abs=0.05)

    def test_lo_feedthrough_only_without_rf(self):
        s = make_scenario(mixer=make_mixer(a3=0.0, v_gs1=0.6, kappa=0.0),
                          rf_amplitude=0.0)
        result = simulate(s)
        assert bin_amplitude(result.v_out, s.f_if).amplitude < 1e-9
        expected = (4 / math.pi) * 0.034 * 0.6 * 220.0
        assert bin_amplitude(result.v_out, s.f_lo).amplitude == pytest.approx(
            expected, rel=1e-3)

    def test_sum_and_difference_rays_equal(self):
        s = make_scenario(mixer=make_mixer(a3=0.0, kappa=0.0))
        result = simulate(s)
        diff_ray = bin_amplitude(result.v_out, s.f_if).amplitude
        sum_ray = bin_amplitude(result.v_out, s.f_rf + s.f_lo).amplitude
        assert abs(sum_ray - diff_ray) < 1e-9 * diff_ray

    def test_if_amplitude_linear_in_drive(self):
        # Output ray tracks input power with slope 1.000 +/- 0.001 dB/dB.
        s = make_scenario(mixer=make_mixer(a3=0.0, kappa=0.0))
        powers = (-50.0, -40.0, -30.0, -20.0)
        outs = []
        for p in powers:
            r = simulate(at_power(s, p))
            outs.append(20 * math.log10(bin_amplitude(r.v_out, s.f_if).amplitude))
        slope = np.polyfit(powers, outs, 1)[0]
        assert slope == pytest.approx(1.0, abs=1e-3)

    def test_determinism(self):
        s = make_scenario(noise_density=1e-9, seed=77)
        a = simulate(s)
        b = simulate(s)
        assert np.array_equal(a.v_out.samples, b.v_out.samples)
        assert np.array_equal(a.v_rf_port.samples, b.v_rf_port.samples)

    def test_leakage_reaches_rf_port(self):
        s = make_scenario(mixer=make_mixer(kappa=0.01303))
        result = simulate(s)
        leak = bin_amplitude(result.v_rf_port, s.f_lo).amplitude
        assert leak == pytest.approx(0.01303, rel=1e-9)

    def test_small_signal_agreement_across_plans(self):
        # Measured IF gain matches the closed form on any coherent plan.
        for rf_hz, lo_hz in ((1.9e9, 1.8e9), (2.4e9, 2.2e9), (1.0e9, 0.9e9)):
            mixer = make_mixer(a3=0.0, kappa=0.0)
            s = make_scenario(mixer=mixer, rf_hz=rf_hz, lo_hz=lo_hz,
                              rf_power_dbm=-40.0)
            result = simulate(s)
            gain = 20 * math.log10(
                bin_amplitude(result.v_out, s.f_if).amplitude
                / s.rf_tones[0].peak_amplitude())
            assert gain == pytest.approx(analytic_conversion_gain(mixer), abs=0.05)

    def test_spectral_structure(self):
        # Single tone, linear device: rays only at odd LO harmonics and at
        # |m*f_lo +/- f_rf| for odd m (folded into the first Nyquist zone).
        s = make_scenario(mixer=make_mixer(a3=0.0, v_gs1=0.6, kappa=0.0),
                          bins_per_unit=16, samples_per_lo_period=16)
        result = simulate(s)
        n = s.grid.num_samples
        lo_bin = int(s.f_lo)
        rf_bin = int(s.f_rf)

        def fold(f):
            r = f % n
            return min(r, n - r)

        allowed = set()
        for m in range(1, 4 * s.grid.num_samples // lo_bin, 2):
            allowed.add(fold(m * lo_bin))
            allowed.add(fold(m * lo_bin + rf_bin))
            allowed.add(fold(abs(m * lo_bin - rf_bin)))
        spectrum = np.abs(np.fft.rfft(result.v_out.samples)) / n * 2.0
        peak = spectrum.max()
        for k in range(1, n // 2):
            if k not in allowed:
                assert spectrum[k] < 1e-9 * peak, f"unexpected ray at bin {k}"

    def test_output_harmonics_dominated_by_fundamental(self):
        from mixbench.signals import harmonic_table
        s = make_scenario(mixer=make_mixer(a3=-0.696, kappa=0.01303))
        result = simulate(s)
        lines = harmonic_table(result.v_out, s.f_if, 5)
        assert len(lines) == 5
        assert all(lines[0].amplitude > 10 * ln.amplitude for ln in lines[1:])

    def test_scenario_rejects_off_grid_tone(self):
        plan = ScaledPlan(1.9e9, 1.8e9)
        with pytest.raises(CoherenceError):
            Scenario(mixer=make_mixer(), grid=plan.grid(),
                     rf_tones=(ToneSpec(frequency=76.5, power_dbm=-30.0),),
                     lo_tone=ToneSpec(frequency=72.0, amplitude=1.0))

    def test_scenario_rejects_sum_product_aliasing(self):
        n = 64
        grid = SimGrid(sample_rate=float(n), num_samples=n)
        with pytest.raises(AliasingError):
            Scenario(mixer=make_mixer(), grid=grid,
                     rf_tones=(ToneSpec(frequency=19.0, power_dbm=-30.0),),
                     lo_tone=ToneSpec(frequency=18.0, amplitude=1.0))

    @pytest.mark.parametrize("rf, lo, error, context", [
        (19.0, 18.5, CoherenceError, "LO tone at 18.5"),
        (33.0, 2.0, AliasingError, "RF tone 1 at 33.0"),
        (19.0, 32.0, AliasingError, "LO tone at 32.0"),
    ])
    def test_scenario_places_each_tone_on_a_ray(self, rf, lo, error, context):
        grid = SimGrid(sample_rate=64.0, num_samples=64)
        with pytest.raises(ValidationError, match=context) as rejected:
            Scenario(mixer=make_mixer(), grid=grid,
                     rf_tones=(ToneSpec(frequency=rf, power_dbm=-30.0),),
                     lo_tone=ToneSpec(frequency=lo, amplitude=1.0, phase=0.1))
        assert type(rejected.value) is error

    def test_scenario_requires_one_or_two_tones(self):
        plan = ScaledPlan(1.9e9, 1.8e9)
        with pytest.raises(ValidationError):
            Scenario(mixer=make_mixer(), grid=plan.grid(), rf_tones=(),
                     lo_tone=ToneSpec(frequency=72.0, amplitude=1.0))


class TestInPlaceArithmetic:
    """``simulate`` sums and scales in place, with the reference's every bit."""

    CASES = {
        "ideal switch": lambda: make_scenario(
            mixer=make_mixer(a3=-0.696, kappa=0.01303)),
        "smooth switch": lambda: make_scenario(
            mixer=make_mixer(a3=-0.696, kappa=0.01303, switch_mode="smooth")),
        "a2 and a3": lambda: make_scenario(
            mixer=make_mixer(a2=0.02, a3=-0.696, kappa=0.01303), rf_power_dbm=-10.0),
        "kappa 0, a2 only": lambda: make_scenario(
            mixer=make_mixer(a2=-0.05, kappa=0.0), rf_phase=0.4),
        "two tones": lambda: two_tone_variant(make_scenario(
            mixer=make_mixer(a3=-0.696, kappa=0.01303), rf_power_dbm=-15.0), 1.0),
        "band-limited noise": lambda: make_scenario(
            mixer=make_mixer(a3=-0.696, kappa=0.01303), noise_density=1e-9,
            noise_band=(0.0, 200.0), seed=5),
        "silent tone, white noise": lambda: make_scenario(
            mixer=make_mixer(v_gs1=0.0), rf_amplitude=0.0, noise_density=1e-9),
        "NF probe period": nf_probe_scenario,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bits_match_reference(self, case):
        s = self.CASES[case]()
        expected = reference_simulate(s)
        memo.clear()
        for result in (simulate(s), simulate(s)):  # bases built, then reused
            for node, samples in expected.items():
                got = getattr(result, node).samples
                assert np.array_equal(got, samples), node
                assert got.tobytes() == samples.tobytes(), node

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_drive_cubic_reads_the_driven_output(self, case):
        # Every RF tone at one 0.05 V peak: the cubic's IF ray is that of
        # the reference run of that drive on the cubic's own period, within
        # 1e-9 dB (the sum runs in another order, so not to the bit).
        s = self.CASES[case]()
        period = period_of(s, s.f_if)
        driven = replace(period, rf_tones=tuple(replace(t, amplitude=0.05, power_dbm=None)
                                                for t in period.rf_tones))
        v_out = reference_simulate(driven)["v_out"]
        expected = abs(signals._project(v_out, *signals._readout(driven.grid, s.f_if)))
        got, = engine._drive_cubic(s, (s.f_if,)).rays(0.05)
        assert 20.0 * math.log10(got / expected) == pytest.approx(0.0, abs=1e-9)

    def test_nonfinite_intermediate_rejected(self):
        # The cubic term overflows to -inf at a 1e200 V drive, without a
        # numpy warning.
        s = make_scenario(mixer=make_mixer(a3=-0.696), rf_amplitude=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="non-finite"):
                simulate(s)

    def test_port_parts_made_one_at_a_time(self):
        # Tone, LO leak and noise are each added and freed before the next
        # is made, so the peak is the two result nodes and the switch plus
        # about one array.
        s = make_scenario(mixer=make_mixer(a3=-0.696, kappa=0.01303),
                          noise_density=1e-9, bins_per_unit=64)
        simulate(s)  # fill the memos
        tracemalloc.start()
        try:
            result = simulate(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        array = result.v_out.samples.nbytes
        assert array == 8 * 147456
        assert peak < 5 * array

    def test_every_node_is_read_only(self):
        result = simulate(make_scenario(noise_density=1e-9, if_filter_cutoff=8.0))
        for node in ("v_rf_port", "v_out", "v_out_filtered"):
            samples = getattr(result, node).samples
            assert not samples.flags.writeable, node
            with pytest.raises(ValueError):
                samples[0] = 1.0


class TestPeriodic:
    """``engine._periodic`` applies a period repeated over a record."""

    @pytest.mark.parametrize("size, periods", [(7, 1), (7, 3), (1, 1), (1, 13),
                                               (2, 4), (5, 6), (30, 2)])
    @pytest.mark.parametrize("op", [np.add, np.multiply], ids=["add", "multiply"])
    def test_equals_the_tiled_period(self, op, size, periods):
        period = np.linspace(-1.5, 2.0, size)
        a = np.linspace(0.25, 9.0, size * periods)
        expected = op(a, np.tile(period, periods))
        into = np.empty(a.size)
        assert engine._periodic(op, a.copy(), period, out=into) is into
        assert into.tobytes() == expected.tobytes()
        got = a.copy()
        assert engine._periodic(op, got, period) is got
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("size, period", [(15, 7), (6, 7), (8, 3)])
    def test_period_must_divide_the_record(self, size, period):
        a = np.zeros(size)
        with pytest.raises(ValueError):
            engine._periodic(np.add, a, np.ones(period))
        assert not a.any()

    def test_pump_is_built_once_on_the_period(self, monkeypatch):
        # The tones, LO leak and switch are built once, on one 2,304-sample
        # period of the 9,216-sample record.
        s = make_scenario(mixer=make_mixer(a3=-0.696, kappa=0.01303), noise_density=1e-9)
        pumps, pump = [], engine._pump

        def recording_pump(*args):
            pumped = pump(*args)
            pumps.append([a.size for a in pumped])
            return pumped

        monkeypatch.setattr(engine, "_pump", recording_pump)
        assert engine._record(s).shape == (2, 9216)
        assert pumps == [[2304] * 3]


class TestCheckOnce:
    """``simulate`` adopts, and so checks, every node as it makes it."""

    @staticmethod
    def count_adoptions(monkeypatch):
        calls = []
        adopt = SampledSignal._adopt

        def counting(cls, grid, samples, unit):
            calls.append(unit)
            return adopt(grid, samples, unit)

        monkeypatch.setattr(SampledSignal, "_adopt", classmethod(counting))
        return calls

    @pytest.mark.parametrize("switch_mode, lo_amplitude", [
        ("ideal_sign", 1.0),
        ("smooth", 0.0),  # every switch sample is 0: inf * 0 gives NaN
    ])
    def test_overflowing_port_sum_rejected(self, switch_mode, lo_amplitude):
        base = make_scenario(mixer=make_mixer(switch_mode=switch_mode),
                             lo_amplitude=lo_amplitude)
        f = base.f_rf
        # Both tones peak at n = 0, where their sum is 2e308 = inf.
        s = replace(base, rf_tones=(ToneSpec(frequency=f, amplitude=1e308),
                                    ToneSpec(frequency=f + 1.0, amplitude=1e308)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match="non-finite"):
                simulate(s)

    def test_power_without_finite_amplitude_fails_at_simulate(self):
        s = at_power(make_scenario(), 3100.0)
        with pytest.raises(ValidationError, match="finite peak voltage"):
            simulate(s)

    def test_nodes_adopted_in_order_read_only_and_exact(self, monkeypatch):
        s = make_scenario(mixer=make_mixer(a2=0.02, a3=-0.696, kappa=0.01303),
                          noise_density=1e-9, rf_power_dbm=-10.0)
        expected = reference_simulate(s)
        simulate(s)  # fills the memo
        calls = self.count_adoptions(monkeypatch)
        result = simulate(s)
        nodes = (("v_rf_port", "volt"), ("v_out", "volt"))
        assert calls == [unit for _, unit in nodes]
        for node, unit in nodes:
            signal = getattr(result, node)
            assert signal.unit == unit and signal.grid == s.grid
            assert not signal.samples.flags.writeable, node
            with pytest.raises(ValueError):
                signal.samples[0] = 1.0
            assert signal.samples.tobytes() == expected[node].tobytes(), node


class TestLoPhase:
    @pytest.mark.parametrize("kwargs, field", [
        ({"lo_phase": math.nan}, "phase"), ({"rf_phase": math.inf}, "phase"),
        ({"rf_amplitude": math.nan}, "amplitude"), ({"rf_power_dbm": -math.inf}, "power_dbm")])
    def test_non_finite_tone_rejected_before_a_scenario_exists(self, kwargs, field):
        # A NaN LO phase once built a valid Scenario that failed only in simulate.
        with pytest.raises(ValidationError, match=f"tone {field} must be finite"):
            make_scenario(**kwargs)

    """The ideal switch takes no LO phase that puts a sample on a switching instant."""

    # 0 and pi/2 put samples on the instants of every grid; pi * (1/2 + 1/64)
    # on those of the main grid, with its 64 LO samples per half period.
    @pytest.mark.parametrize("phase", [0.0, math.pi / 2, math.pi, -math.pi / 2,
                                       math.pi * (0.5 + 1 / 64)])
    def test_phase_on_a_switching_instant_rejected(self, phase):
        with pytest.raises(ValidationError, match="switching instants"):
            make_scenario(lo_phase=phase)
        # Such a phase leaves a sample that rounding, not the sign(0) rule, signs.
        s = make_scenario()
        k = s.grid.bin_index(s.f_lo)
        assert np.abs(signals._cos_basis.__wrapped__(s.grid.num_samples, k, phase)).min() < 1e-15

    @pytest.mark.parametrize("kwargs", [
        {},
        {"lo_phase": 1e-9},
        {"lo_phase": 0.25},
        {"lo_phase": 0.7},
        {"lo_phase": 0.0, "mixer": make_mixer(switch_mode="smooth")},
        {"lo_phase": 0.0, "lo_amplitude": 0.0},
    ], ids=["half_sample", "1e-9", "0.25", "0.7", "smooth_switch", "silent_lo"])
    def test_other_phases_accepted(self, kwargs):
        s = make_scenario(**kwargs)
        replace(s, grid=s.grid.common_period((s.f_rf, s.f_lo)))  # and on its period


class TestNoiseBand:
    @pytest.mark.parametrize("band, error", [
        ((-1.0, 200.0), ValidationError),
        ((200.0, 200.0), ValidationError),
        ((0.0, 4608.5), AliasingError),
    ])
    def test_band_white_noise_would_reject_is_rejected(self, band, error):
        with pytest.raises(error, match="noise band"):
            make_scenario(noise_density=1e-9, noise_band=band)

    def test_band_up_to_nyquist_accepted(self):
        s = make_scenario(noise_density=1e-9, noise_band=(0.0, 4608.0))
        assert simulate(s).v_rf_port.unit == "volt"


class TestLoBasisMemo:
    """The pump takes its LO voltage as the LO's amplitude times its memoised unit basis."""

    def test_equal_key_returns_the_same_read_only_array(self):
        memo.clear()
        s = make_scenario()
        basis = signals._tone_basis(s.grid, s.lo_tone)
        again = signals._tone_basis(
            SimGrid(sample_rate=s.grid.sample_rate, num_samples=s.grid.num_samples),
            replace(s.lo_tone))
        assert again is basis
        assert not basis.flags.writeable
        assert basis.tobytes() == synthesize_tone(s.grid, s.lo_tone).samples.tobytes()

    def test_lo_built_once_per_grid_switch_once_per_call(self, monkeypatch):
        lo_builds, switches = [], []
        build = signals._cos_basis.__wrapped__
        short = make_scenario(samples_per_lo_period=64)
        lo_phases = {make_scenario().lo_tone.phase, short.lo_tone.phase}

        def counting_cos(num_samples, k, phase):
            if phase in lo_phases:  # the RF tones have phase 0
                lo_builds.append(num_samples)
            return build(num_samples, k, phase)

        def counting_switch(p, v_lo):
            switches.append(v_lo.size)
            return devices._switch(p, v_lo)

        monkeypatch.setattr(signals, "_cos_basis", memo.memoised(counting_cos))
        monkeypatch.setattr(engine, "_switch", counting_switch)
        s = make_scenario()
        for power in (-40.0, -30.0, -20.0):
            simulate(at_power(s, power))
        simulate(two_tone_variant(s, 1.0))
        simulate(short)
        # One LO and one switch per call, on the common period of the RF
        # tones and LO: 2,304 samples of the 9,216-sample grid, the whole
        # grid for tones 1 unit apart, 1,152 of the 4,608-sample grid.
        assert lo_builds == [2304, 9216, 1152]
        assert switches == [2304] * 3 + [9216] + [1152]
        memo.clear()

    def test_lo_voltage_stays_out_of_the_memo(self):
        memo.clear()
        s = make_scenario(lo_amplitude=0.5)
        _, _, v_lo = engine._pump(s, [0.0])
        # The RF tone's basis and the LO's, not the LO voltage.
        assert memo.info().arrays == 2
        period = s.grid.common_period((s.f_rf, s.f_lo))
        expected = synthesize_tone(period, s.lo_tone).samples
        assert v_lo.tobytes() == expected.tobytes()
        assert not any(a.tobytes() == expected.tobytes() for a in memo._arrays.values())
        before = memo.info().misses
        signals._tone_basis(period, s.lo_tone)
        assert memo.info().misses == before
        memo.clear()

    def test_bounded_in_bytes(self, monkeypatch):
        grid = SimGrid(sample_rate=64.0, num_samples=64)
        one = 8 * 64
        monkeypatch.setattr(memo, "BUDGET_BYTES", 3 * one)
        memo.clear()
        start = memo.info()
        bases = [signals._tone_basis(grid, ToneSpec(frequency=4.0, amplitude=1.0,
                                                    phase=0.1 * i))
                 for i in range(6)]
        info = memo.info()
        assert (info.arrays, info.nbytes) == (3, 3 * one)
        assert info.misses == start.misses + 6
        # The three most recent are kept; the oldest three were dropped.
        assert signals._tone_basis(grid, ToneSpec(frequency=4.0, amplitude=1.0,
                                                  phase=0.5)) is bases[5]
        assert signals._tone_basis(grid, ToneSpec(frequency=4.0, amplitude=1.0,
                                                  phase=0.0)) is not bases[0]
        assert memo.info().misses == start.misses + 7
        memo.clear()

    def test_array_above_the_budget_is_returned_not_kept(self, monkeypatch):
        grid = SimGrid(sample_rate=64.0, num_samples=64)
        tone = ToneSpec(frequency=4.0, amplitude=1.0)
        monkeypatch.setattr(memo, "BUDGET_BYTES", 8 * 64 - 1)
        memo.clear()
        misses = memo.info().misses
        first = signals._tone_basis(grid, tone)
        again = signals._tone_basis(grid, tone)
        assert again is not first and again.tobytes() == first.tobytes()
        assert memo.info().misses == misses + 2
        assert (memo.info().arrays, memo.info().nbytes) == (0, 0)


class TestIfFilter:
    def test_deep_passband_preserved(self):
        s = make_scenario()
        grid = s.grid
        cutoff = 400.0
        tone = synthesize_tone(grid, ToneSpec(frequency=4.0, amplitude=1.0))
        out = apply_if_filter(FilterSpec(cutoff=cutoff), tone)
        assert bin_amplitude(out, 4.0).amplitude == pytest.approx(1.0, rel=1e-4)

    def test_half_power_at_cutoff(self):
        s = make_scenario()
        tone = synthesize_tone(s.grid, ToneSpec(frequency=32.0, amplitude=1.0))
        out = apply_if_filter(FilterSpec(cutoff=32.0), tone)
        assert bin_amplitude(out, 32.0).amplitude == pytest.approx(
            1 / math.sqrt(2), abs=1e-6)

    def test_dc_preserved(self):
        s = make_scenario()
        level = np.full(s.grid.num_samples, 0.35)
        from mixbench.signals import SampledSignal
        out = apply_if_filter(FilterSpec(cutoff=8.0),
                              SampledSignal(grid=s.grid, samples=level))
        assert abs(bin_value(out, 0.0)) == pytest.approx(0.35, rel=1e-12)

    def test_ray_attenuations_in_scenario(self):
        # Cutoff at 2*IF: the IF ray loses < 1 dB, the LO and RF+LO rays
        # lose > 25 dB, which is what makes the filtered output a clean tone.
        mixer = make_mixer(a3=0.0, v_gs1=0.6, kappa=0.0)
        s = make_scenario(mixer=mixer, if_filter_cutoff=8.0)
        result = simulate(s)
        for freq, min_db in ((s.f_lo, 25.0), (s.f_rf + s.f_lo, 25.0)):
            before = bin_amplitude(result.v_out, freq).amplitude
            after = bin_amplitude(result.v_out_filtered, freq).amplitude
            assert 20 * math.log10(before / after) > min_db
        if_before = bin_amplitude(result.v_out, s.f_if).amplitude
        if_after = bin_amplitude(result.v_out_filtered, s.f_if).amplitude
        assert 20 * math.log10(if_before / if_after) < 1.0

    def test_phase_matches_analytic_response(self):
        mixer = make_mixer(a3=0.0, kappa=0.0)
        s = make_scenario(mixer=mixer, if_filter_cutoff=8.0)
        result = simulate(s)
        ratio = (bin_value(result.v_out_filtered, s.f_if)
                 / bin_value(result.v_out, s.f_if))
        expected = butterworth2_response(s.f_if, 8.0)
        assert math.isclose(np.angle(ratio), np.angle(expected), abs_tol=1e-6)
        assert abs(ratio) == pytest.approx(abs(expected), rel=1e-9)

    def test_filter_runs_once_and_only_when_read(self, monkeypatch):
        calls = []

        def counting_filter(f, v):
            calls.append(f)
            return apply_if_filter(f, v)

        monkeypatch.setattr(engine, "apply_if_filter", counting_filter)
        result = simulate(make_scenario(if_filter_cutoff=8.0))
        assert calls == []
        first = result.v_out_filtered
        assert result.v_out_filtered is first
        assert calls == [FilterSpec(cutoff=8.0)]
        direct = apply_if_filter(FilterSpec(cutoff=8.0), result.v_out)
        assert np.array_equal(first.samples, direct.samples)

    def test_no_filter_reads_none(self, monkeypatch):
        calls = []
        monkeypatch.setattr(engine, "apply_if_filter", lambda f, v: calls.append(f))
        assert simulate(make_scenario()).v_out_filtered is None
        assert calls == []

    def test_cutoff_whose_response_overflows_rejected(self):
        s = make_scenario()
        bound = 2.0 * s.grid.nyquist / math.sqrt(np.finfo(np.float64).max)
        with pytest.raises(ValidationError, match="too far below"):
            replace(s, if_filter=FilterSpec(cutoff=0.99 * bound))
        tone = synthesize_tone(s.grid, ToneSpec(frequency=4.0, amplitude=1.0))
        with pytest.raises(ValidationError, match="too far below"):
            apply_if_filter(FilterSpec(cutoff=1e-300), tone)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = apply_if_filter(FilterSpec(cutoff=1.01 * bound), tone)
        assert np.isfinite(out.samples).all()

    def test_cutoff_above_nyquist_rejected(self):
        s = make_scenario()
        tone = synthesize_tone(s.grid, ToneSpec(frequency=4.0, amplitude=1.0))
        with pytest.raises(AliasingError):
            apply_if_filter(FilterSpec(cutoff=s.grid.nyquist), tone)
