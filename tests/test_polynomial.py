"""The transconductor polynomial read by degree, against its unrolled cubic forms.

Every place that reads the polynomial goes through
``TransconductorParams.coefficients``: the current (``_transconductor``),
the Taylor terms about a port voltage (``_taylor``), and the drive
polynomial's bound and readings (``DriveCubic``).  Each is compared here,
to the bit, with the cubic written out by hand, over coefficients that
include zeros of either sign, subnormals and magnitudes that overflow.
The drive polynomial's readers share one Horner kernel, so its array
reading (``DriveCubic.sweep``) is compared, to the bit, with its scalar one
(``DriveCubic.rays``) over the cubics of drawn mixers.
"""

import math
import struct

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import make_mixer, make_scenario
from mixbench.devices import SWITCH_MODES, TransconductorParams, _taylor, _transconductor
from mixbench.engine import _CUBIC_LIMIT, DriveCubic, _drive_cubic
from mixbench.errors import ValidationError
from mixbench.metrics import two_tone_rays, two_tone_variant
from mixbench.signals import dbm_to_amplitude

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
         1e154, -1e154, 1e300, -1e300, 1.7976931348623157e308]
FINITE = st.sampled_from(EDGES) | st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.sampled_from([5e-324, 1e-300, 0.034, 1e300, 1.7976931348623157e308]) | st.floats(
    min_value=5e-324, allow_infinity=False)
DEVICES = st.builds(TransconductorParams, gm=POSITIVE, v_gs1=FINITE,
                    a2=FINITE | st.just(0.0), a3=FINITE | st.just(0.0))
VOLTAGES = st.lists(FINITE, min_size=1, max_size=8).map(np.array)


def bits(x):
    """The bytes of a float array, so equal means equal to the bit, NaN included."""
    return np.asarray(x, dtype=np.float64).tobytes()


def cubic_taylor(t, e):
    """``c_0 .. c_3`` of the cubic about ``e`` (with ``b = 1``), each written out."""
    return [((t.a3 * e + t.a2) * e + t.gm) * e + t.gm * t.v_gs1,
            (3 * t.a3 * e + 2 * t.a2) * e + t.gm,
            3 * t.a3 * e + t.a2,
            np.full(e.shape, t.a3)]


@settings(max_examples=300, deadline=None)
@given(DEVICES, VOLTAGES)
def test_taylor_matches_the_unrolled_cubic(t, e):
    with np.errstate(all="ignore"):
        for j, expected in enumerate(cubic_taylor(t, e)):
            assert bits(_taylor(t, e, j)) == bits(expected), j


@settings(max_examples=300, deadline=None)
@given(DEVICES, VOLTAGES)
def test_taylor_slope_matches_the_unrolled_slope(t, v):
    with np.errstate(all="ignore"):
        assert bits(_taylor(t, v, 1)) == bits(t.gm + v * (2.0 * t.a2 + 3.0 * t.a3 * v))


@settings(max_examples=300, deadline=None)
@given(DEVICES, VOLTAGES)
def test_current_matches_the_unrolled_cubic(t, v):
    with np.errstate(all="ignore"):
        expected = t.gm * v + t.gm * t.v_gs1
        if t.a2 != 0.0:
            expected = expected + (t.a2 * v) * v
        if t.a3 != 0.0:
            expected = expected + ((t.a3 * v) * v) * v
        assert bits(_transconductor(t, v)) == bits(expected)


def drive(bound=(0.0,) * 4, projections=(), extra_peak=0.0):
    return DriveCubic(tones=1, projections=projections, extra_peak=extra_peak,
                      bound=bound)


NON_NEGATIVE = st.sampled_from([0.0, 5e-324, 1.0, 1e100, 1e300, math.inf]) | st.floats(
    min_value=0.0)


@settings(max_examples=500, deadline=None)
@given(st.lists(NON_NEGATIVE, min_size=4, max_size=4), NON_NEGATIVE,
       st.sampled_from([0.0, 1e-3, 1e300]) | st.floats(min_value=0.0, allow_infinity=False))
def test_covers_matches_the_unrolled_bound(bound, amplitude, extra_peak):
    b0, b1, b2, b3 = bound
    cubic = drive(bound=tuple(reversed(bound)), extra_peak=extra_peak)
    w = max(1.0, amplitude * cubic.tones + extra_peak)
    assert cubic.covers(amplitude) == (b0 + w * (b1 + w * (b2 + w * b3)) <= _CUBIC_LIMIT)


COMPLEX = st.builds(complex, FINITE, FINITE)


def readings(read):
    """The bytes of every reading of ``read()``, or the error it raises.

    ``abs`` of a complex raises OverflowError where the modulus of finite
    parts overflows; both forms must raise it for the same drives.
    """
    try:
        return [struct.pack("<d", x) for x in read()]
    except OverflowError as error:
        return str(error)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.lists(COMPLEX, min_size=4, max_size=4), min_size=1, max_size=3),
       st.sampled_from([0.0, 1e-3, 1.0, 1e100]) | st.floats(min_value=0.0, max_value=1e300))
def test_rays_match_the_unrolled_horner(projections, amplitude):
    cubic = drive(projections=tuple(tuple(reversed(p)) for p in projections))
    assert readings(lambda: cubic.rays(amplitude)) == readings(lambda: [
        abs(((p3 * amplitude + p2) * amplitude + p1) * amplitude + p0)
        for p0, p1, p2, p3 in projections])


def test_integer_coefficients_read_as_their_floats():
    # A top coefficient given as an int must not make an int array, which
    # the float port could not be multiplied into in place.
    e = np.array([0.5, -2.0, 3.0])
    whole = TransconductorParams(gm=1, v_gs1=2, a2=3, a3=-1)
    real = TransconductorParams(gm=1.0, v_gs1=2.0, a2=3.0, a3=-1.0)
    for j in range(len(real.coefficients)):
        assert bits(_taylor(whole, e, j)) == bits(_taylor(real, e, j))


@st.composite
def mixer_cubics(draw):
    """The drive cubic of a drawn mixer: single-tone at the IF, or two-tone at its IIP3 rays."""
    mixer = make_mixer(
        gm=draw(st.floats(0.005, 0.1)), v_gs1=draw(st.floats(0.0, 1.0)),
        a2=draw(st.floats(-0.5, 0.5).filter(bool)), a3=draw(st.floats(-5.0, -0.01)),
        rd=draw(st.floats(50.0, 400.0)), kappa=draw(st.floats(0.0, 0.3)),
        switch_mode=draw(st.sampled_from(SWITCH_MODES)))
    phases = st.floats(-math.pi, math.pi)
    try:
        s = make_scenario(mixer=mixer, rf_phase=draw(phases), lo_phase=draw(phases))
    except ValidationError:  # an LO phase that samples the ideal switch's instants
        assume(False)
    if draw(st.booleans()):
        return _drive_cubic(s, (s.f_if,))
    s = two_tone_variant(s, s.f_if / draw(st.sampled_from([2.0, 4.0])))
    return _drive_cubic(s, two_tone_rays(s))


@settings(max_examples=150, deadline=None)
@given(mixer_cubics(), st.lists(st.floats(-60.0, 2000.0), min_size=1, max_size=12))
def test_sweep_rows_equal_the_scalar_rays(cubic, powers):
    drives = [a for a in map(dbm_to_amplitude, powers) if cubic.covers(a)]
    assume(drives)
    rows = cubic.sweep(np.array(drives))
    assert rows.shape == (len(cubic.projections), len(drives))
    for i, row in enumerate(rows):
        assert [x.hex() for x in row.tolist()] == [cubic.rays(a)[i].hex() for a in drives], i
