"""ULP (unit in the last place) arithmetic.

The vendor math-library models express accuracy as "result within N ULPs of
the correctly-rounded value", matching how NVIDIA's libdevice and AMD's OCML
document their functions.  These helpers convert between values and ULP
counts for binary16, binary32 and binary64 — the ULP line is a property of
the campaign precision, never an assumed 52/23-bit mantissa.
"""

from __future__ import annotations

import math

import numpy as np

from repro.fp.types import FPType

__all__ = ["ulp_distance", "nextafter_n", "perturb_ulps", "ulp_of"]


#: unsigned integer type of each width, for bit-pattern views.
_UINTS = {16: np.uint16, 32: np.uint32, 64: np.uint64}


def _ordered_bits(value, fptype: FPType) -> int:
    """Position of ``value`` (narrowed to ``fptype``) on a monotone integer
    line: the magnitude bits, negated for a set sign bit, so ``+0.0`` and
    ``-0.0`` share 0 and ±inf are the line's ends."""
    width = fptype.bits
    bits = int(fptype.dtype.type(value).view(_UINTS[width]))
    sign = 1 << (width - 1)
    return sign - bits if bits & sign else bits


def ulp_distance(a: float, b: float, fptype: FPType = FPType.FP64) -> int:
    """Number of representable values between ``a`` and ``b`` (symmetric).

    NaN against anything (including NaN) raises ``ValueError`` — callers
    must classify non-finite outcomes first, as the harness does.
    ``+0.0`` and ``-0.0`` coincide on the ordered line (distance 0): they
    compare equal, and the paper's rules never treat them as different.
    """
    af, bf = float(a), float(b)
    if math.isnan(af) or math.isnan(bf):
        raise ValueError("ulp_distance is undefined for NaN")
    return abs(_ordered_bits(af, fptype) - _ordered_bits(bf, fptype))


def nextafter_n(value: float, n: int, fptype: FPType = FPType.FP64):
    """Step ``value`` by ``n`` representable values (n may be negative).

    Bit for bit what ``n`` repeated ``nextafter`` calls toward ±inf give,
    in O(1) on the ordered line: saturates at ±inf (and steps back from it
    to ±max), a zero reached by stepping keeps the side it came from
    (-0.0 stepping up, +0.0 stepping down), and NaN stays numpy's NaN.
    Returns a numpy scalar of the requested precision.
    """
    dtype = fptype.dtype
    x = dtype.type(value)
    if n == 0:
        return x
    if x != x:
        return np.nextafter(x, x)
    top = _ordered_bits(np.inf, fptype)
    pos = max(-top, min(top, _ordered_bits(x, fptype) + n))
    if pos < 0 or (pos == 0 and n > 0):
        pos = (1 << (fptype.bits - 1)) | -pos
    return _UINTS[fptype.bits](pos).view(dtype)


def perturb_ulps(value: float, n: int, fptype: FPType = FPType.FP64) -> float:
    """Like :func:`nextafter_n` but NaN/Inf pass through unchanged.

    This is the primitive the vendor error model applies to a
    correctly-rounded result; exceptional values are never perturbed
    (a library returning NaN returns NaN on both vendors).
    """
    if math.isnan(value) or math.isinf(value):
        return float(value)
    return float(nextafter_n(value, n, fptype))


def ulp_of(value: float, fptype: FPType = FPType.FP64) -> float:
    """Magnitude of one ULP at ``value`` (gap to the next float away from 0)."""
    dtype = fptype.dtype
    x = dtype.type(value)
    if np.isnan(x) or np.isinf(x):
        raise ValueError("ulp_of is undefined for non-finite values")
    away = dtype.type(np.inf) if x >= 0 else dtype.type(-np.inf)
    return float(abs(np.nextafter(x, away, dtype=dtype) - x))
