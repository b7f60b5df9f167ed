"""Shared scenario builders for the test suite."""

from mixbench import engine
from mixbench.devices import (
    BiasParams,
    LeakageParams,
    LoadParams,
    SwitchParams,
    TransconductorParams,
    _switch,
)
from mixbench.engine import (
    FilterSpec,
    MixerParams,
    ScaledPlan,
    Scenario,
    _respond,
)
from mixbench.metrics import NoiseFigureSettings
from mixbench.signals import ToneSpec

# A design point like those of the benchmark's sweep workload, and the
# benchmark's JSON bundle config.
SWEEP_POINT_CONFIG = """\
scenario:
  rf_power_dbm: -50.0
  mixer: {gm: 0.05, rd: 300.0, kappa: 5.0e-4, a3: -1.0}
measurements: [cg, p1db, iip3, isolation, power]
sweeps: {p1db: {start_dbm: -40.0, stop_dbm: 0.0, step_db: 0.1}}
"""
BUNDLE_JSON_CONFIG = """\
scenario: {grid: {bins_per_unit: 16}}
measurements: [cg, harmonics, transient, power]
output: {format: json}
"""


def make_mixer(gm=0.034, v_gs1=0.6, a2=0.0, a3=0.0, rd=220.0, vdd=1.8,
               i_bias=1.111e-3, kappa=0.0, switch_mode="ideal_sign",
               v_sw=0.05):
    return MixerParams(
        transconductor=TransconductorParams(gm=gm, v_gs1=v_gs1, a2=a2, a3=a3),
        switch=SwitchParams(mode=switch_mode, v_sw=v_sw),
        load=LoadParams(rd=rd),
        bias=BiasParams(vdd=vdd, i_bias=i_bias),
        leakage=LeakageParams(kappa=kappa),
    )


def make_scenario(mixer=None, rf_hz=1.9e9, lo_hz=1.8e9, bins_per_unit=4,
                  samples_per_lo_period=128, rf_power_dbm=-30.0,
                  rf_amplitude=None, rf_phase=0.0, lo_amplitude=1.0,
                  lo_phase=None, noise_density=0.0, noise_band=None,
                  seed=1729, if_filter_cutoff=None):
    """Scenario on a scaled coherent grid with sensible measurement defaults."""
    plan = ScaledPlan(f_rf_hz=rf_hz, f_lo_hz=lo_hz, bins_per_unit=bins_per_unit,
                      samples_per_lo_period=samples_per_lo_period)
    if mixer is None:
        mixer = make_mixer()
    if rf_amplitude is not None:
        rf_tone = ToneSpec(frequency=float(plan.rf_bin), amplitude=rf_amplitude,
                           phase=rf_phase)
    else:
        rf_tone = ToneSpec(frequency=float(plan.rf_bin), power_dbm=rf_power_dbm,
                           phase=rf_phase)
    lo_tone = ToneSpec(frequency=float(plan.lo_bin), amplitude=lo_amplitude,
                       phase=lo_phase if lo_phase is not None
                       else plan.lo_half_sample_phase())
    if_filter = None
    if if_filter_cutoff is not None:
        if_filter = FilterSpec(kind="lowpass2", cutoff=if_filter_cutoff)
    return Scenario(mixer=mixer, grid=plan.grid(), rf_tones=(rf_tone,),
                    lo_tone=lo_tone, noise_seed=seed,
                    input_noise_density=noise_density,
                    input_noise_band=noise_band, if_filter=if_filter,
                    frequency_scale=plan.hz_per_unit)


def noise_figure_grid_scenario(mixer, noise_density, noise_band_lo_harmonics=None,
                               seed=4242, bins_per_unit=2048,
                               samples_per_lo_period=32, lo_amplitude=1.0):
    """Long-record scenario for noise measurements, with band settings.

    ``noise_band_lo_harmonics`` limits the injected noise to that many LO
    fundamentals of bandwidth (None keeps it white across the grid).  The
    RF tone is present but silent so only noise and LO drive the mixer.
    """
    plan = ScaledPlan(1.9e9, 1.8e9, bins_per_unit=bins_per_unit,
                      samples_per_lo_period=samples_per_lo_period)
    band = None
    if noise_band_lo_harmonics is not None:
        band = (0.0, float(noise_band_lo_harmonics * plan.lo_bin))
    scenario = make_scenario(
        mixer=mixer, bins_per_unit=bins_per_unit,
        samples_per_lo_period=samples_per_lo_period, rf_amplitude=0.0,
        lo_amplitude=lo_amplitude, noise_density=noise_density,
        noise_band=band, seed=seed)
    width = 1.5 * plan.if_bin
    settings = NoiseFigureSettings(band_width=width, segments=32)
    return scenario, settings


def record_grids(monkeypatch):
    """Route every mixer run through a recorder; return the sizes it ran on.

    One entry per run of the mixer kernel ``engine._respond``: per
    ``simulate`` call, per point of ``engine._points`` and per piece of
    ``engine._segments`` alike.
    """
    grids = []

    def recording_respond(mixer, sw, parts, out=None):
        grids.append(sw.size)
        return _respond(mixer, sw, parts, out)

    monkeypatch.setattr(engine, "_respond", recording_respond)
    return grids


def record_switches(monkeypatch):
    """Count the switch waveforms the mixer runs evaluate; return their sizes.

    One entry per ``devices._switch`` call, all of which ``engine`` makes:
    per ``simulate`` call, per ``engine._points`` run and per piece of
    ``engine._segments``.
    """
    sizes = []

    def recording_switch(p, v_lo):
        sizes.append(v_lo.size)
        return _switch(p, v_lo)

    monkeypatch.setattr(engine, "_switch", recording_switch)
    return sizes
