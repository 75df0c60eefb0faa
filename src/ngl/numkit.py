"""Low-level numeric kernel: compensated summation, reduced-precision
rounding, and validation of dense vectors.

Everything here operates on float64. Reduced precision is simulated by
rounding each value to a p-bit significand (round to nearest, ties to
even), which is the arithmetic model used by the floating-point gradient
oracle. Subnormal behavior is out of scope; inputs are expected to be
finite and in the normal range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

FLOAT64_SIGNIFICAND_BITS = 52


@dataclass(frozen=True)
class PrecisionSpec:
    """Significand width for simulated reduced-precision arithmetic.

    ``bits`` counts stored fractional significand bits (the leading 1 is
    implicit), so ``bits=52`` reproduces float64 exactly and the unit
    roundoff is ``2**-bits``.
    """

    bits: int

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int):
            raise ValueError(f"precision bits must be an int, got {self.bits!r}")
        if not 1 <= self.bits <= FLOAT64_SIGNIFICAND_BITS:
            raise ValueError(
                f"precision bits must be in [1, {FLOAT64_SIGNIFICAND_BITS}], got {self.bits}"
            )

    @property
    def eps(self) -> float:
        """Unit roundoff 2**-bits of the simulated format."""
        return 2.0 ** (-self.bits)


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and return ``x`` as a finite, contiguous 1-D float64 array."""
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError("vector contains non-finite entries")
    return v


def kahan_sum(values: Iterable[float]) -> float:
    """Compensated (Kahan) summation with Neumaier's correction.

    The branch keeps the compensation valid even when a summand exceeds
    the running total, so [1e16, 1.0, -1e16] sums to 1.0 exactly. Error
    is O(eps + n*eps^2) * sum(|v|) independent of ordering, versus the
    naive bound that grows linearly in n.
    """
    total = 0.0
    carry = 0.0
    for v in values:
        v = float(v)
        if not math.isfinite(v):
            raise ValueError(f"non-finite summand {v!r}")
        t = total + v
        if abs(total) >= abs(v):
            carry += (total - t) + v
        else:
            carry += (v - t) + total
        total = t
    return total + carry


def round_to_precision(x, spec: PrecisionSpec):
    """Round to ``spec.bits`` significand bits, round-to-nearest ties-to-even.

    Accepts a scalar or an array; returns the same shape. Exact for any
    float64 input: scaling by powers of two is lossless and the single
    rounding happens on an integer-valued float.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("cannot round non-finite values")
    m, e = np.frexp(arr)  # x = m * 2**e with |m| in [0.5, 1)
    scaled = np.ldexp(m, spec.bits + 1)  # |scaled| in [2**bits, 2**(bits+1))
    rounded = np.rint(scaled)  # ties to even
    out = np.ldexp(rounded, e - (spec.bits + 1))
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out
