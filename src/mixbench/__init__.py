"""Behavioral simulator and measurement bench for a single-balanced RF mixer.

The package synthesizes the mixer's time-domain response from compact device
models (polynomial transconductor, commutating LO switch, resistive loads)
and extracts the usual receiver figures of merit: conversion gain, 1 dB
compression, IIP3, LO-to-RF isolation, noise figure, harmonic content and
DC power.
"""

__version__ = "0.1.0"

from .devices import (
    BiasParams,
    LeakageParams,
    LoadParams,
    SwitchParams,
    TransconductorParams,
    a1db_closed_form,
    aiip3_closed_form,
    dc_power,
    switch_waveform,
    transconductor_current,
)
from .engine import (
    FilterSpec,
    MixerParams,
    ScaledPlan,
    Scenario,
    TransientResult,
    analytic_conversion_gain,
    apply_if_filter,
    simulate,
)
from .errors import (
    AliasingError,
    CoherenceError,
    CompressionNotFoundError,
    ImmeasurableIM3Error,
    InsufficientBandwidthError,
    MixbenchError,
    NoCompressionError,
    NonFiniteReadingError,
    StimulusTooHotError,
    UndefinedInterceptError,
    ValidationError,
    WrongStimulusError,
)
from .metrics import (
    REFERENCE_65NM,
    NoiseFigureResult,
    NoiseFigureSettings,
    P1dBResult,
    ReferenceDesign,
    TwoToneResult,
    measure_conversion_gain,
    measure_iip3,
    measure_isolation,
    measure_noise_figure,
    measure_p1db,
    noise_figure_from_densities,
    periodic_noise_figure,
    reference_formula_noise_figure,
    two_tone_variant,
)
from .signals import (
    REFERENCE_IMPEDANCE_OHMS,
    SampledSignal,
    SimGrid,
    SpectrumLine,
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
