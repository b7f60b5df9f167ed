"""Acceptance suite: every headline number the bench must reproduce.

Each test prints one PASS line with the measured value and its tolerance
(run with ``pytest tests/test_acceptance.py -v -s`` to see them stream).
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from helpers import make_mixer, make_scenario, noise_figure_grid_scenario

from mixbench.config import ALL_MEASUREMENTS
from mixbench.devices import (
    BiasParams,
    SwitchParams,
    TransconductorParams,
    a1db_closed_form,
    aiip3_closed_form,
    dc_power,
    switch_waveform,
)
from mixbench.engine import analytic_conversion_gain, simulate
from mixbench.metrics import (
    REFERENCE_65NM,
    measure_conversion_gain,
    measure_iip3,
    measure_isolation,
    measure_noise_figure,
    measure_p1db,
    reference_formula_noise_figure,
    two_tone_variant,
)
from mixbench.signals import (
    SimGrid,
    ToneSpec,
    amplitude_to_dbm,
    bin_amplitude,
    dbm_to_amplitude,
    harmonic_table,
    synthesize_tone,
)


def report(criterion, text):
    print(f"acceptance {criterion}: PASS  {text}")


def test_criterion_01_analytic_gain():
    gain = analytic_conversion_gain(make_mixer(gm=0.034, rd=220.0))
    assert gain == pytest.approx(13.55, abs=0.01)
    report(1, f"analytic conversion gain {gain:.4f} dB (13.55 +/- 0.01)")


def test_criterion_02_simulated_gain_matches_analytic():
    mixer = make_mixer(gm=0.034, rd=220.0, a3=0.0, kappa=0.0)
    s = make_scenario(mixer=mixer, rf_power_dbm=-30.0)
    measured = measure_conversion_gain(s)
    analytic = analytic_conversion_gain(mixer)
    assert measured == pytest.approx(analytic, abs=0.05)
    report(2, f"simulated gain {measured:.4f} dB vs analytic "
              f"{analytic:.4f} dB (+/- 0.05)")


def test_criterion_03_square_wave_spectrum():
    n = 16384
    grid = SimGrid(sample_rate=float(n), num_samples=n)
    lo = synthesize_tone(grid, ToneSpec(frequency=1.0, amplitude=1.0,
                                        phase=math.pi / n))
    square = switch_waveform(SwitchParams(), lo)
    lines = harmonic_table(square, 1.0, 5)
    for k in (1, 3, 5):
        assert lines[k - 1].amplitude == pytest.approx(4 / (k * math.pi),
                                                       abs=1e-6)
    for k in (2, 4):
        assert lines[k - 1].amplitude < 1e-9
    report(3, "switch harmonics 1,3,5 at 4/(k*pi) within 1e-6; "
              "even harmonics below 1e-9")


def test_criterion_04_compression_point():
    device = TransconductorParams(gm=0.034, a3=-0.696)
    closed = amplitude_to_dbm(a1db_closed_form(device))
    s = make_scenario(mixer=make_mixer(gm=0.034, a3=-0.696))
    res = measure_p1db(s, (-40.0, 0.0), 0.5)
    assert res.p1db_dbm == pytest.approx(-11.5, abs=0.2)
    assert res.p1db_dbm == pytest.approx(closed, abs=0.2)

    rng = np.random.default_rng(20240817)
    cases = 0
    while cases < 50:
        gm = float(rng.uniform(0.005, 0.1))
        target = float(rng.uniform(-25.0, -5.0))
        a = dbm_to_amplitude(target)
        a3 = -(4.0 / 3.0) * (1.0 - 10 ** (-0.05)) * gm / (a * a)
        p = TransconductorParams(gm=gm, a3=a3)
        predicted = amplitude_to_dbm(a1db_closed_form(p))
        sc = make_scenario(mixer=make_mixer(gm=gm, a3=a3))
        measured = measure_p1db(sc, (predicted - 25.0, predicted + 6.0), 0.5)
        assert measured.p1db_dbm == pytest.approx(predicted, abs=0.2), \
            f"gm={gm}, a3={a3}"
        cases += 1
    report(4, f"P1dB {res.p1db_dbm:.3f} dBm (-11.5 +/- 0.2, closed form "
              f"{closed:.3f}); randomized oracle held over {cases} cases")


def test_criterion_05_intermodulation():
    device = TransconductorParams(gm=0.034, a3=-0.696)
    closed = amplitude_to_dbm(aiip3_closed_form(device))
    s = make_scenario(mixer=make_mixer(gm=0.034, a3=-0.696))
    two = two_tone_variant(s)
    res = measure_iip3(two, -40.0)
    assert res.iip3_dbm == pytest.approx(closed, abs=0.2)
    # The identity iip3 = delta/2 + per-tone power holds exactly.
    assert res.iip3_dbm - res.per_tone_dbm == res.delta_db / 2.0

    powers = np.linspace(-55.0, -35.0, 9)
    fund, im3 = [], []
    for p in powers:
        r = measure_iip3(two, float(p))
        fund.append(r.p_fund_dbm)
        im3.append(r.p_im3_dbm)
    fund_slope = float(np.polyfit(powers, fund, 1)[0])
    im3_slope = float(np.polyfit(powers, im3, 1)[0])
    assert fund_slope == pytest.approx(1.0, abs=0.02)
    assert im3_slope == pytest.approx(3.0, abs=0.05)
    report(5, f"IIP3 {res.iip3_dbm:.3f} dBm vs closed form {closed:.3f} "
              f"(+/- 0.2); IM3 slope {im3_slope:.3f}; identity exact; "
              f"reference design reports {REFERENCE_65NM.iip3_dbm:+.0f} dBm")


def test_criterion_06_isolation():
    s = make_scenario(mixer=make_mixer(kappa=0.01303))
    iso = measure_isolation(s)
    assert iso == pytest.approx(-37.70, abs=0.05)
    report(6, f"LO->RF isolation {iso:.3f} dB (-37.70 +/- 0.05)")


def test_criterion_07_noise_figure():
    # (a) formula check on the reference design's own numbers
    formula = reference_formula_noise_figure()
    assert formula == pytest.approx(8.51, abs=0.01)
    gap = REFERENCE_65NM.noise_figure_db - formula
    assert abs(gap) < 0.5

    # (b) physics check: folding of band-limited white noise through the
    # ideal switch, harmonics 1/3/5 in band, matches the truncated sum
    mixer = make_mixer(a3=0.0, v_gs1=0.0, kappa=0.0)
    scenario, settings = noise_figure_grid_scenario(
        mixer, noise_density=1e-9, noise_band_lo_harmonics=6)
    folding = measure_noise_figure(scenario, settings)
    oracle = 10 * math.log10(2 * (1 + 1 / 9 + 1 / 25))
    assert folding.nf_db == pytest.approx(oracle, abs=0.3)

    # (c) unity-gain pass-through measures 0 dB
    unity_mixer = make_mixer(gm=0.02, rd=50.0, a3=0.0, v_gs1=0.0, kappa=0.0)
    unity_scenario, unity_settings = noise_figure_grid_scenario(
        unity_mixer, noise_density=1e-9, lo_amplitude=0.0)
    unity_settings = replace(unity_settings,
                             output_band_center=unity_scenario.f_rf,
                             signal_out_frequency=unity_scenario.f_rf)
    unity = measure_noise_figure(unity_scenario, unity_settings)
    assert unity.nf_db == pytest.approx(0.0, abs=0.2)

    report(7, f"NF formula {formula:.2f} dB (published {REFERENCE_65NM.noise_figure_db}"
              f" dB, gap {gap:.2f} dB logged); folding {folding.nf_db:.3f} dB vs "
              f"oracle {oracle:.3f} (+/- 0.3); pass-through {unity.nf_db:.4f} dB "
              f"(+/- 0.2)")


def test_criterion_08_dc_power():
    p = dc_power(BiasParams(vdd=1.8, i_bias=1.111e-3))
    assert p == pytest.approx(2.0e-3, rel=1e-3)
    report(8, f"DC power {p * 1e3:.4f} mW (2.0 +/- 0.1%)")


def test_criterion_09_spectral_structure():
    mixer = make_mixer(a3=0.0, v_gs1=0.6, kappa=0.0)
    s = make_scenario(mixer=mixer, bins_per_unit=16, samples_per_lo_period=16)
    result = simulate(s)
    n = s.grid.num_samples
    lo_bin, rf_bin = int(s.f_lo), int(s.f_rf)

    def fold(f):
        r = f % n
        return min(r, n - r)

    allowed = set()
    for m in range(1, 4 * n // lo_bin, 2):
        allowed.add(fold(m * lo_bin))
        allowed.add(fold(m * lo_bin + rf_bin))
        allowed.add(fold(abs(m * lo_bin - rf_bin)))
    spectrum = np.abs(np.fft.rfft(result.v_out.samples)) * 2.0 / n
    peak = spectrum.max()
    stray = max((spectrum[k] for k in range(1, n // 2) if k not in allowed),
                default=0.0)
    assert stray < 1e-9 * peak

    diff_ray = bin_amplitude(result.v_out, s.f_if).amplitude
    sum_ray = bin_amplitude(result.v_out, s.f_rf + s.f_lo).amplitude
    assert abs(sum_ray - diff_ray) <= 1e-9 * diff_ray
    report(9, f"rays confined to odd LO harmonics and mixing products "
              f"(worst stray {stray / peak:.1e} of peak); sum/difference "
              f"rays equal within 1e-9")


def test_criterion_10_end_to_end_determinism(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text("", encoding="utf-8")  # full default run
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "mixbench", "run", "--config", str(config),
             "--out", str(out)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    assert any(n.endswith(".csv") for n in names)
    for name in names:
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical invocations"
    summary = json.loads((outs[0] / "summary.json").read_text())
    measured = summary["measurements"]
    assert sorted(measured) == sorted(ALL_MEASUREMENTS)
    assert not [name for name, entry in measured.items() if "error" in entry]
    assert measured["cg"]["value_db"] == pytest.approx(13.5, abs=0.2)
    assert measured["cg"]["analytic_db"] == pytest.approx(13.5556, abs=1e-3)
    assert measured["p1db"]["value_dbm"] == pytest.approx(-11.5, abs=0.2)
    assert measured["iip3"]["value_dbm"] == pytest.approx(-1.86, abs=0.2)
    assert measured["isolation"]["value_db"] == pytest.approx(-37.70, abs=0.01)
    assert measured["nf"]["value_db"] is not None
    assert measured["power"]["value_w"] == pytest.approx(2.0e-3, rel=1e-3)
    report(10, f"two identical CLI runs produced byte-identical outputs "
               f"({len(names)} files)")
