"""Tests for the sampled-signal substrate: grids, tones, bin readout, noise."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbench import memo, signals
from mixbench.errors import (
    AliasingError,
    CoherenceError,
    InsufficientBandwidthError,
    ValidationError,
)
from mixbench.signals import (
    SampledSignal,
    SimGrid,
    ToneSpec,
    amplitude_to_dbm,
    bin_amplitude,
    bin_value,
    dbm_to_amplitude,
    harmonic_table,
    noise_density,
    synthesize_tone,
    white_noise,
)


def make_grid(fs=256.0, n=256):
    return SimGrid(sample_rate=fs, num_samples=n)


class TestSimGrid:
    def test_resolution(self):
        grid = make_grid(1024.0, 256)
        assert grid.resolution == 4.0
        assert grid.nyquist == 512.0

    @pytest.mark.parametrize("n", [15, 8, 17, 255])
    def test_bad_length_rejected(self, n):
        with pytest.raises(ValidationError):
            SimGrid(sample_rate=256.0, num_samples=n)

    def test_bin_index(self):
        grid = make_grid()
        assert grid.bin_index(3.0) == 3
        with pytest.raises(CoherenceError):
            grid.bin_index(3.5)

    @pytest.mark.parametrize("n, freqs, period", [
        (1179648, (38912.0, 36864.0, 2048.0), 576),  # default NF plan
        (512, (128.0, 64.0, 64.0), 16),   # N/g = 8 is under 16 samples
        (64, (8.0, 16.0), 16),            # N/g = 8 doubles to 16
        (96, (32.0,), 24),                # N/g = 3 is odd: 3 * 8
        (20 * 16, (3.0,), 320),           # g = 1 keeps the full record
        (256, (0.0, 64.0), 16),           # DC and one ray: 4 * 4
    ])
    def test_common_period(self, n, freqs, period):
        grid = SimGrid(sample_rate=float(n), num_samples=n)
        short = grid.common_period(freqs)
        assert short == SimGrid(sample_rate=float(n), num_samples=period)
        for f in freqs:
            short.bin_index(f)

    def test_common_period_needs_coherent_frequencies(self):
        with pytest.raises(CoherenceError):
            make_grid().common_period((3.5,))


class TestToneSpec:
    def test_zero_frequency_rejected(self):
        with pytest.raises(ValidationError):
            ToneSpec(frequency=0.0, amplitude=1.0)

    def test_exactly_one_level_field(self):
        with pytest.raises(ValidationError):
            ToneSpec(frequency=1.0)
        with pytest.raises(ValidationError):
            ToneSpec(frequency=1.0, amplitude=1.0, power_dbm=0.0)

    def test_power_implies_amplitude(self):
        tone = ToneSpec(frequency=1.0, power_dbm=0.0)
        # 0 dBm into 50 ohm is 0.3162 V peak (0.2236 V rms).
        assert tone.peak_amplitude() == pytest.approx(0.31622776601683794, abs=1e-9)
        assert tone.peak_amplitude() / math.sqrt(2) == pytest.approx(0.2236, abs=1e-4)


class TestSynthesizeTone:
    def test_cosine_samples(self):
        grid = make_grid(256.0, 256)
        sig = synthesize_tone(grid, ToneSpec(frequency=1.0, amplitude=1.0))
        assert sig.samples[0] == pytest.approx(1.0, abs=1e-12)
        assert sig.samples[64] == pytest.approx(0.0, abs=1e-12)  # quarter period

    def test_noncoherent_rejected(self):
        grid = make_grid(256.0, 256)
        with pytest.raises(CoherenceError):
            synthesize_tone(grid, ToneSpec(frequency=1.25, amplitude=1.0))

    def test_aliasing_rejected(self):
        grid = make_grid(256.0, 256)
        with pytest.raises(AliasingError):
            synthesize_tone(grid, ToneSpec(frequency=128.0, amplitude=1.0))


# Length of the default noise-figure grid.
NF_SAMPLES = 1179648


class TestMemoisedBases:
    """Cached tone and bin bases must reproduce the direct formula bit for bit."""

    # (num_samples, bin, phase); the two phases per grid share a cache key
    # when they compare equal (0.0 and -0.0).
    CASES = [(256, 1, 0.0), (256, 1, -0.0), (256, 17, 0.3), (1024, 100, 1.1),
             (9216, 76, 0.0), (9216, 72, math.pi * 72 / 9216), (9216, 4, -2.5),
             (NF_SAMPLES, 36864, math.pi * 36864 / NF_SAMPLES)]

    @staticmethod
    def direct_tone(n, k, amplitude, phase):
        t = np.arange(n)
        return amplitude * np.cos(2.0 * np.pi * k * t / n + phase)

    @staticmethod
    def direct_bin(samples, k):
        n = samples.size
        c = np.dot(samples, np.exp(-2j * np.pi * k * np.arange(n) / n))
        return complex(c * (1.0 / n if k == 0 else 2.0 / n))

    def check_all(self):
        for n, k, phase in self.CASES:
            grid = make_grid(float(n), n)
            tone = synthesize_tone(grid, ToneSpec(frequency=float(k), amplitude=0.7,
                                                  phase=phase))
            assert np.array_equal(tone.samples, self.direct_tone(n, k, 0.7, phase))
            rng = np.random.default_rng(n + k)
            sig = SampledSignal(grid=grid, samples=rng.standard_normal(n))
            for b in (0, k, k + 1):
                assert bin_value(sig, float(b)) == self.direct_bin(sig.samples, b)

    def test_bit_identical_to_direct_formula(self):
        memo.clear()
        try:
            self.check_all()  # computes every basis
            self.check_all()  # served from the memo
        finally:
            # Release the noise-figure-length bases.
            memo.clear()

    @pytest.mark.parametrize("build, itemsize", [
        (lambda: signals._cos_basis.__wrapped__(NF_SAMPLES, 38912, 0.3), 8),
        (lambda: signals._exp_basis.__wrapped__(NF_SAMPLES, 2048), 16),
    ], ids=["cos", "exp"])
    def test_cold_basis_peaks_at_one_array(self, build, itemsize):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            basis = build()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert basis.nbytes == itemsize * NF_SAMPLES
        assert peak <= 1.1 * basis.nbytes

    def test_cached_basis_is_read_only(self):
        for basis in (signals._cos_basis(256, 3, 0.5), signals._exp_basis(256, 3)):
            with pytest.raises(ValueError):
                basis[0] = 0.0


class TestDbmConversions:
    def test_zero_dbm(self):
        assert dbm_to_amplitude(0.0) == pytest.approx(0.31622776601683794, rel=1e-12)
        assert amplitude_to_dbm(0.31622776601683794) == pytest.approx(0.0, abs=1e-12)

    def test_reference_compression_amplitude(self):
        # 0.0841 V peak is the -11.5 dBm drive level.
        assert amplitude_to_dbm(0.0841) == pytest.approx(-11.5, abs=0.01)

    @pytest.mark.parametrize("power_dbm", [1.0e6, 3083.0, math.inf, math.nan])
    def test_power_without_finite_amplitude_rejected(self, power_dbm):
        with pytest.raises(ValidationError, match="finite peak voltage"):
            dbm_to_amplitude(power_dbm)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            amplitude_to_dbm(0.0)
        with pytest.raises(ValueError):
            amplitude_to_dbm(-1.0)

    @pytest.mark.parametrize("x", [1e-6, 1.0, 10.0])
    def test_round_trip(self, x):
        assert dbm_to_amplitude(amplitude_to_dbm(x)) == pytest.approx(x, rel=1e-12)

    @given(st.floats(min_value=1e-9, max_value=1e4))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, x):
        assert dbm_to_amplitude(amplitude_to_dbm(x)) == pytest.approx(x, rel=1e-12)


class TestBinAmplitude:
    def test_pure_tone_reads_its_amplitude(self):
        grid = make_grid(1024.0, 1024)
        sig = synthesize_tone(grid, ToneSpec(frequency=17.0, amplitude=1.0,
                                             phase=0.3))
        assert bin_amplitude(sig, 17.0).amplitude == pytest.approx(1.0, abs=1e-9)

    def test_zero_signal(self):
        grid = make_grid()
        sig = SampledSignal(grid=grid, samples=np.zeros(grid.num_samples))
        line = bin_amplitude(sig, 3.0)
        assert line.amplitude == 0.0
        assert line.power_dbm == -math.inf

    def test_two_tones_no_leakage(self):
        grid = make_grid(1024.0, 1024)
        a = synthesize_tone(grid, ToneSpec(frequency=10.0, amplitude=1.0))
        b = synthesize_tone(grid, ToneSpec(frequency=23.0, amplitude=0.5))
        sig = SampledSignal(grid=grid, samples=a.samples + b.samples)
        assert bin_amplitude(sig, 10.0).amplitude == pytest.approx(1.0, abs=1e-9)
        assert bin_amplitude(sig, 23.0).amplitude == pytest.approx(0.5, abs=1e-9)
        assert bin_amplitude(sig, 17.0).amplitude < 1e-9

    def test_matches_fft_readout(self):
        # Independent route: the correlation must agree with an FFT bin.
        grid = make_grid(512.0, 512)
        rng = np.random.default_rng(7)
        sig = SampledSignal(grid=grid, samples=rng.standard_normal(512))
        spectrum = np.fft.rfft(sig.samples)
        for k in (1, 13, 100):
            expected = 2.0 * abs(spectrum[k]) / 512
            assert bin_amplitude(sig, float(k)).amplitude == pytest.approx(
                expected, rel=1e-9)

    def test_off_grid_rejected(self):
        grid = make_grid()
        sig = SampledSignal(grid=grid, samples=np.zeros(grid.num_samples))
        with pytest.raises(CoherenceError):
            bin_amplitude(sig, 3.3)

    def test_orthogonality_of_distinct_bins(self):
        grid = make_grid(4096.0, 4096)
        sig = synthesize_tone(grid, ToneSpec(frequency=100.0, amplitude=1.0,
                                             phase=1.1))
        for k in (99.0, 101.0, 50.0, 1000.0):
            assert bin_amplitude(sig, k).amplitude < 1e-9

    def test_spectrum_line_power_consistency(self):
        line = bin_amplitude(
            synthesize_tone(make_grid(), ToneSpec(frequency=4.0, amplitude=0.25)),
            4.0)
        assert dbm_to_amplitude(line.power_dbm) == pytest.approx(line.amplitude,
                                                                 rel=1e-9)


class TestHarmonicTable:
    def test_square_wave_series(self):
        # Ideal +/-1 square with transitions between samples: odd harmonics
        # at 4/(k pi), even harmonics numerically zero.
        n = 16384
        grid = SimGrid(sample_rate=float(n), num_samples=n)
        phase = math.pi / n
        carrier = synthesize_tone(grid, ToneSpec(frequency=1.0, amplitude=1.0,
                                                 phase=phase))
        square = SampledSignal(grid=grid,
                               samples=np.where(carrier.samples >= 0, 1.0, -1.0))
        lines = harmonic_table(square, 1.0, 5)
        expected = [4 / math.pi, 0.0, 4 / (3 * math.pi), 0.0, 4 / (5 * math.pi)]
        for line, ref in zip(lines, expected):
            assert line.amplitude == pytest.approx(ref, abs=1e-6)
        assert lines[1].amplitude < 1e-9
        assert lines[3].amplitude < 1e-9

    def test_pure_sine_has_one_line(self):
        grid = make_grid(4096.0, 4096)
        sig = synthesize_tone(grid, ToneSpec(frequency=32.0, amplitude=1.0))
        lines = harmonic_table(sig, 32.0, 5)
        assert lines[0].amplitude == pytest.approx(1.0, abs=1e-9)
        for line in lines[1:]:
            assert line.amplitude < 1e-9

    def test_rays_bypass_the_basis_memo(self):
        grid = make_grid(1024.0, 1024)
        rng = np.random.default_rng(3)
        sig = SampledSignal(grid=grid, samples=rng.standard_normal(1024))
        memo.clear()
        lines = harmonic_table(sig, 10.0, 6)
        assert memo.info().arrays == 0
        for k, line in enumerate(lines, start=1):
            assert line == bin_amplitude(sig, 10.0 * k)

    def test_order_beyond_nyquist_rejected(self):
        grid = make_grid(256.0, 256)
        sig = synthesize_tone(grid, ToneSpec(frequency=30.0, amplitude=1.0))
        with pytest.raises(AliasingError):
            harmonic_table(sig, 30.0, 5)


class TestParseval:
    def test_multitone_power_balance(self):
        grid = make_grid(2048.0, 2048)
        rng = np.random.default_rng(3)
        bins = rng.choice(np.arange(1, 1024), size=12, replace=False)
        amps = rng.uniform(0.1, 2.0, size=12)
        phases = rng.uniform(0, 2 * np.pi, size=12)
        total = np.full(grid.num_samples, 0.7)  # DC offset
        for f, a, ph in zip(bins, amps, phases):
            total = total + synthesize_tone(
                grid, ToneSpec(frequency=float(f), amplitude=float(a),
                               phase=float(ph))).samples
        sig = SampledSignal(grid=grid, samples=total)
        mean_square = float(np.mean(sig.samples ** 2))
        dc = abs(bin_value(sig, 0.0))
        recovered = dc ** 2 + sum(
            bin_amplitude(sig, float(f)).amplitude ** 2 / 2 for f in bins)
        assert recovered == pytest.approx(mean_square, rel=1e-9)


class TestWhiteNoise:
    def test_density_estimate_converges(self):
        n0 = 1e-9
        n = 16 * 1024
        grid = SimGrid(sample_rate=float(n), num_samples=n)
        sig = white_noise(grid, n0, seed=42)
        est = noise_density(sig, band_center=n / 4, band_width=n / 8, segments=16)
        # 16 segments x 64 bins: estimator within 5% of the generator density.
        assert est == pytest.approx(n0, rel=0.05)

    def test_zero_signal(self):
        grid = make_grid(1024.0, 1024)
        sig = SampledSignal(grid=grid, samples=np.zeros(1024))
        assert noise_density(sig, 256.0, 128.0, 4) == 0.0

    def test_linearity_in_amplitude(self):
        n = 8192
        grid = SimGrid(sample_rate=float(n), num_samples=n)
        base = white_noise(grid, 1e-9, seed=11)
        scaled = SampledSignal(grid=grid, samples=7.5 * base.samples)
        d0 = noise_density(base, n / 4, n / 8, 8)
        d1 = noise_density(scaled, n / 4, n / 8, 8)
        assert d1 / d0 == pytest.approx(7.5, rel=0.01)

    def test_determinism(self):
        grid = make_grid(1024.0, 1024)
        a = white_noise(grid, 1e-9, seed=5)
        b = white_noise(grid, 1e-9, seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_band_limited_generation(self):
        n = 8192
        grid = SimGrid(sample_rate=float(n), num_samples=n)
        sig = white_noise(grid, 1e-9, seed=3, band=(0.0, n / 8))
        spectrum = np.abs(np.fft.rfft(sig.samples))
        in_band_level = spectrum[1:n // 8].mean()
        assert spectrum[n // 8 + 10:].max() < 1e-9 * in_band_level
        in_band = noise_density(sig, n / 16, n / 16, 8)
        assert in_band == pytest.approx(1e-9, rel=0.1)

    def test_tone_masking(self):
        n = 16 * 1024
        grid = SimGrid(sample_rate=float(n), num_samples=n)
        noise = white_noise(grid, 1e-9, seed=9)
        # Park a huge coherent ray inside the band; masked estimates ignore it.
        tone_freq = float(n // 4)
        tone = synthesize_tone(grid, ToneSpec(frequency=tone_freq, amplitude=1.0))
        sig = SampledSignal(grid=grid, samples=noise.samples + tone.samples)
        est = noise_density(sig, n / 4, n / 8, segments=16,
                            mask_frequencies=[tone_freq])
        assert est == pytest.approx(1e-9, rel=0.05)

    def test_band_statistics_match_full_periodogram(self):
        # Squaring only the band columns gives the full periodogram's bits.
        grid = make_grid(1024.0, 4096)
        sig = white_noise(grid, 1e-3, seed=11)
        used = signals.noise_band_bins(grid, 200.0, 100.0, 16, (180.0,))
        seg_len = grid.num_samples // 16
        psd = (np.abs(np.fft.rfft(sig.samples.reshape(16, seg_len), axis=1)) ** 2) \
            * (2.0 / (grid.sample_rate * seg_len))
        mean_power = float(psd[:, used].mean())
        stats = signals._band_noise_stats(sig, 200.0, 100.0, 16, (180.0,))
        assert stats.density == math.sqrt(mean_power)
        assert stats.relative_spread == float(
            psd[:, used].mean(axis=1).std(ddof=1) / math.sqrt(16) / mean_power)
        # Rows written one segment at a time into an order="F" array.
        rows = np.empty((16, used.size), dtype=np.complex128, order="F")
        for j in range(16):
            rows[j] = np.fft.rfft(sig.samples[j * seg_len:(j + 1) * seg_len])[used]
        assert signals._band_stats(grid, rows) == stats

    @pytest.mark.parametrize("density, band", [
        (1e-3, None), (1e-3, (10.0, 40.0)), (0.0, None)],
        ids=["white", "band_limited", "silent"])
    def test_segments_make_the_record(self, density, band):
        grid = make_grid(1024.0, 4096)
        record = white_noise(grid, density, seed=7, band=band).samples
        pieces = list(signals._noise_segments(grid, density, 7, band, 16))
        assert [p.size for p in pieces] == [256] * 16
        assert np.array_equal(np.concatenate(pieces), record)

    def test_segment_divisibility_required(self):
        grid = make_grid(1000.0, 1000)
        sig = SampledSignal(grid=grid, samples=np.zeros(1000))
        with pytest.raises(ValidationError):
            noise_density(sig, 250.0, 100.0, 7)

    def test_too_few_segments_rejected(self):
        grid = make_grid(1024.0, 1024)
        sig = SampledSignal(grid=grid, samples=np.zeros(1024))
        with pytest.raises(ValidationError):
            noise_density(sig, 256.0, 100.0, 2)

    def test_band_outside_nyquist_rejected(self):
        grid = make_grid(1024.0, 1024)
        sig = SampledSignal(grid=grid, samples=np.zeros(1024))
        with pytest.raises(ValidationError):
            noise_density(sig, 500.0, 100.0, 4)

    def test_insufficient_bins_rejected(self):
        n = 1024
        grid = SimGrid(sample_rate=float(n), num_samples=n)
        sig = white_noise(grid, 1e-9, seed=1)
        # 64 segments give a 64 Hz periodogram resolution, so a 40-wide band
        # holds a single bin.
        with pytest.raises(InsufficientBandwidthError):
            noise_density(sig, 256.0, 40.0, segments=64)


class TestSampledSignal:
    def test_length_mismatch_rejected(self):
        grid = make_grid()
        with pytest.raises(ValidationError):
            SampledSignal(grid=grid, samples=np.zeros(10))

    def test_nonfinite_rejected(self):
        grid = make_grid()
        bad = np.zeros(grid.num_samples)
        bad[3] = np.nan
        with pytest.raises(ValidationError):
            SampledSignal(grid=grid, samples=bad)

    def test_samples_immutable(self):
        grid = make_grid()
        sig = SampledSignal(grid=grid, samples=np.zeros(grid.num_samples))
        with pytest.raises(ValueError):
            sig.samples[0] = 1.0

    def test_public_constructor_copies(self):
        grid = make_grid()
        mine = np.arange(float(grid.num_samples))
        sig = SampledSignal(grid=grid, samples=mine)
        mine[0] = 99.0
        assert sig.samples[0] == 0.0
        assert mine.flags.writeable
        assert sig.samples.dtype == np.float64

    def test_adopt_takes_the_array_without_copying(self):
        grid = make_grid()
        fresh = np.ones(grid.num_samples)
        sig = SampledSignal._adopt(grid, fresh, "ampere")
        assert sig.samples is fresh and sig.unit == "ampere"
        assert not fresh.flags.writeable

    @pytest.mark.parametrize("samples, unit", [
        (np.zeros(10), "volt"),
        (np.full(256, np.inf), "volt"),
        (np.zeros(256), "watt"),
        (np.zeros(256, dtype=np.float32), "volt"),
    ])
    def test_adopt_checks_like_the_constructor(self, samples, unit):
        with pytest.raises(ValidationError):
            SampledSignal._adopt(make_grid(), samples, unit)

    def test_package_signals_are_read_only(self):
        from mixbench.devices import (
            LeakageParams,
            SwitchParams,
            TransconductorParams,
            lo_leakage_at_rf_port,
            switch_waveform,
            transconductor_current,
        )
        from mixbench.engine import FilterSpec, apply_if_filter

        grid = make_grid()
        tone = synthesize_tone(grid, ToneSpec(frequency=8.0, amplitude=0.5))
        built = [
            tone,
            white_noise(grid, 0.0, seed=1),
            white_noise(grid, 1e-3, seed=1),
            white_noise(grid, 1e-3, seed=1, band=(10.0, 40.0)),
            transconductor_current(TransconductorParams(gm=0.03, a2=0.1, a3=-0.5), tone),
            switch_waveform(SwitchParams(), tone),
            switch_waveform(SwitchParams(mode="smooth"), tone),
            lo_leakage_at_rf_port(LeakageParams(kappa=0.01), tone),
            apply_if_filter(FilterSpec(cutoff=20.0), tone),
        ]
        for sig in built:
            assert not sig.samples.flags.writeable
            with pytest.raises(ValueError):
                sig.samples[0] = 1.0
