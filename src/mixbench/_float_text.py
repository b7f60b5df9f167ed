"""``%.12g`` text of a float64 column, byte for byte, in fixed-width fields.

:func:`float_fields` writes each value of a column as the bytes of
``b"%.12g" % value``, NUL-padded to ``FIELD_BYTES``, so a table writer lays
fields side by side and drops every NUL byte at once.  No text is longer:
``%.12g`` of a float64 is at most 19 bytes (``-1.23456789012e-308``).

Each value ``a`` is scaled by ``10**(11 - e)``, ``e = floor(log10(a))``,
into [1e11, 1e12) and rounded to an integer there, its 12 significant
digits.  Multiplying or dividing by a power of ten up to 1e22, which is
exact, rounds once, to within half an ulp of 1e12 (6.1e-5), so the digits
are those ``%`` rounds to unless the exact scaled value lies that close to
a half.  ``%`` itself writes every value whose scaled fraction lies within
``_TIE`` of a half, every zero and non-finite value, and every value
outside [1e-11, 1e33), whose scale would not be exact.  Next to a power of
ten ``log10`` may be one off; the scaled value then rounds to 1e11 all the
same, or to 1e12, which carries into the exponent.

A field is 5 little-endian 4-byte words.  The head word holds the sign and,
in two of the three forms, the leading digit; the other 4 words are the
4-digit groups of a 16-digit number, read from a table of every group:

- scientific (exponent < -4 or >= 12): ``-d``, then ``.ddd dddd dddd``
  and a last group that also holds the exponent, ``e-05``;
- fixed, exponent -4 to -1: ``-0``, then ``.000 dddd dddd dddd``, with
  ``-x - 1`` zeros after the point;
- fixed, exponent 0 to 11: ``-``, then the integer digits right-aligned
  in whole groups, their leading zeros cleared, then the fraction.

The decimal point takes the place of the leading ``0`` of the first
fraction group.  The fraction's trailing zeros, and the point where the
fraction is 0, become NULs: groups whose every later digit is 0 are read
from the table's stripped kinds.
"""

from __future__ import annotations

from functools import cache
from typing import Tuple

import numpy as np

FIELD_BYTES = 20

_TIE = 1e-3  # above the scaling's 6.1e-5: '%' writes every value it could misround
_E_MIN, _E_MAX = -11, 33  # 10**(11 - e) is exact for these e
_GROUP = 10_000


def _words(texts) -> np.ndarray:
    """Texts of at most 4 ASCII bytes as NUL-padded little-endian words."""
    return np.frombuffer(b"".join(t.encode().ljust(4, b"\0") for t in texts), dtype="<u4")


@cache
def _group_table() -> np.ndarray:
    """The 4-digit groups 0000-9999 in 4 kinds, ``_GROUP`` words each.

    Kept; with their trailing zeros as NULs; and both again with a leading
    ``0`` as the decimal point, which the stripped 0000 drops too.  Built
    on first use, so a run that writes no transient table never builds it.
    """
    places = np.array([1000, 100, 10, 1], dtype=np.int16)
    digits = (np.arange(_GROUP, dtype=np.int16)[:, None] // places % 10).astype(np.uint8)
    digits += ord("0")
    trailing = np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    kinds = [digits, np.where(trailing, 0, digits)]
    for kind in kinds[:2]:
        pointed = kind.copy()
        pointed[:, 0] = np.where(kind[:, 0] == ord("0"), ord("."), kind[:, 0])
        kinds.append(pointed)
    return np.concatenate(kinds).view("<u4").ravel()


def _form(x: int) -> Tuple[int, int, int, int, int, str]:
    """How the 12 digits ``r`` of a value print at text exponent ``x``.

    ``divmod(r, split)`` is the integer part and the fraction, and
    ``integer * int_scale + fraction * frac_scale`` is the 16-digit number
    whose first ``int_groups`` groups hold the integer part and whose next
    group starts with the 0 the point replaces.  Returns ``(split,
    int_scale, frac_scale, int_groups, mask, exponent)``: ``mask`` clears
    the leading zeros of the first integer group, and ``exponent`` is the
    text the last group ends in.
    """
    if 0 <= x < 12:
        return (10 ** (11 - x), 10 ** (12 - 4 * (x // 4)), 10 ** (x % 4), x // 4 + 1,
                (0xFFFFFFFF << 8 * (3 - x % 4)) & 0xFFFFFFFF, "")
    if -4 <= x < 0:  # the head holds the 0
        return 10 ** 12, 0, 10 ** (x + 4), 0, 0xFFFFFFFF, ""
    return 10 ** 11, 0, 10 ** 4, 0, 0xFFFFFFFF, f"e{x:+03d}"  # the head holds a digit


# Head words by 11 * negative + digit; digit 10 is none.
_HEADS = _words([sign + digit for sign in ("", "-") for digit in [*"0123456789", ""]])
# One array per part of _form, indexed by the text exponent less _E_MIN.
_FORMS = list(zip(*map(_form, range(_E_MIN, _E_MAX + 2))))
_SPLIT, _INT_SCALE, _FRAC_SCALE, _INT_GROUPS = (np.array(f, dtype=np.int64) for f in _FORMS[:4])
_MASKS = np.array(_FORMS[4], dtype="<u4")
_EXPONENTS = _words(_FORMS[5])
# 10**(11 - e) for each e from _E_MIN, as a factor (e <= 11) or a divisor.
_SCALE_MUL = np.array([float(10 ** max(11 - e, 0)) for e in range(_E_MIN, _E_MAX + 1)])
_SCALE_DIV = np.array([float(10 ** max(e - 11, 0)) for e in range(_E_MIN, _E_MAX + 1)])


def float_fields(values: np.ndarray) -> np.ndarray:
    """``b"%.12g" % v`` of each float64 ``v`` of ``values`` as a NUL-padded row of bytes.

    Returns a ``(len(values), FIELD_BYTES)`` uint8 array.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(x)
    fast = (a >= 1e-11) & (a < 1e33)
    a = np.where(fast, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), _E_MIN, _E_MAX).astype(np.int64) - _E_MIN
    s = a * _SCALE_MUL[e] / _SCALE_DIV[e]  # one of the two is 1: one rounding
    r = np.rint(s)
    # The bounds on r only guard the log10 estimate; the clip keeps every
    # row's table indices in range.
    slow = ~fast | (np.abs(s - r) > 0.5 - _TIE) | (r < 1e11) | (r > 1e12)
    r = np.clip(r, 1e11, 1e12).astype(np.int64)
    carry = r == 10 ** 12
    r[carry] = 10 ** 11
    form = e + carry

    split = _SPLIT[form]
    integer = r // split
    int_groups = _INT_GROUPS[form]
    z = (r - integer * split) * _FRAC_SCALE[form] + integer * _INT_SCALE[form]
    hi = z // 10 ** 8
    lo = z - hi * 10 ** 8
    g0, g2 = hi // _GROUP, lo // _GROUP
    groups = (g0, hi - g0 * _GROUP, g2, lo - g2 * _GROUP)
    table = _group_table()
    words = np.empty((x.size, 5), dtype="<u4")
    stripped = True  # every fraction digit right of the group is 0
    for j in range(3, -1, -1):
        point = int_groups == j
        words[:, 1 + j] = table[groups[j] + _GROUP * (stripped + 2 * point)]
        stripped = stripped & (groups[j] == 0) & ~point  # integer groups keep their zeros
    words[:, 1] &= _MASKS[form]
    words[:, 0] = _HEADS[11 * np.signbit(x) + np.where(int_groups > 0, 10, integer)]
    words[:, 4] |= _EXPONENTS[form]
    out = words.view(np.uint8)
    for i in np.flatnonzero(slow).tolist():
        out[i] = np.frombuffer((b"%.12g" % x[i]).ljust(FIELD_BYTES, b"\0"), dtype=np.uint8)
    return out
