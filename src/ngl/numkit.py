"""Low-level numeric kernel: reduced-precision rounding and validation
of dense vectors.

Everything here operates on float64. Reduced precision is simulated by
rounding each value to a p-bit significand (round to nearest, ties to
even), which is the arithmetic model used by the floating-point gradient
oracle. Subnormal behavior is out of scope; inputs are expected to be
finite and in the normal range.  The package's one compensated
(Neumaier) sum is the row sum of ``oracles._fp_quadratic``, the
reduced-precision oracle's kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FLOAT64_SIGNIFICAND_BITS = 52
_TOP_BINADE = 2.0**1023  # frexp exponent 1024: the binade whose rounding can overflow
# the floats one block of rows holds (128 KiB): the stepping core's rows,
# the noise draws' queries and the difference quotients' shifted points
BLOCK_FLOATS = 2**14


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
    # a finite sum of squares means finite entries and costs one BLAS call;
    # only a sum that is not finite (an entry that is, or an overflow) is
    # tested entry by entry.  vdot, unlike dot, warns of no overflow
    if not math.isfinite(np.vdot(v, v)) and not np.isfinite(v).all():
        raise ValueError("vector contains non-finite entries")
    return v


def block_rows(width: int) -> int:
    """Rows of ``width`` floats in one block: ``BLOCK_FLOATS // width``, at least one."""
    return max(1, BLOCK_FLOATS // width)


def row_dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row i is ``X[i].dot(Y[i])`` (``.dot(Y)`` for a 1-D Y): a BLAS ddot per row, the 1-D dot's bits."""
    return np.matmul(X[:, None, :], Y[..., None])[:, 0, 0]


def row_norms(X: np.ndarray) -> np.ndarray:
    """Row i is ``math.sqrt(X[i].dot(X[i]))``, np.linalg.norm's formula for a real 1-D row,
    with its bits when the rows are C-contiguous."""
    return np.sqrt(row_dots(X, X))


def round_to_precision(x, spec: PrecisionSpec):
    """Round to ``spec.bits`` significand bits, round-to-nearest ties-to-even.

    Accepts a scalar or an array; returns the same shape. Exact for every
    finite float64 input whose rounding stays finite: scaling by powers
    of two is lossless and the single rounding happens on an
    integer-valued float.  Raises ValueError on a non-finite input, and
    on one whose rounding carries past the largest float64 (only
    magnitudes in [2**1023, 2**1024) can, and only below 52 bits).
    """
    arr = np.asarray(x, dtype=np.float64)
    # one test for the common case: finite, and below the top binade
    # (NaN compares false, so it fails the test too)
    top = np.count_nonzero(np.abs(arr) < _TOP_BINADE) != arr.size
    if top and np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError("cannot round non-finite values")
    m, e = np.frexp(arr)  # x = m * 2**e with |m| in [0.5, 1)
    scaled = np.ldexp(m, spec.bits + 1)  # |scaled| in [2**bits, 2**(bits+1))
    rounded = np.rint(scaled)  # ties to even
    # a carry to |rounded| = 2**(bits+1) makes the result 2**e, past the
    # largest float64 when e = 1024
    if top and np.count_nonzero((e == 1024) & (np.abs(rounded) == 2.0 ** (spec.bits + 1))):
        raise ValueError(f"rounding to {spec.bits} bits overflows float64")
    out = np.ldexp(rounded, e - (spec.bits + 1))
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out
