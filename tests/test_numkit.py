"""Kernel tests: bit-level rounding semantics, vector validation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngl.numkit import PrecisionSpec, as_vector, round_to_precision


class TestRoundToPrecision:
    def test_bits_validation(self):
        with pytest.raises(ValueError):
            PrecisionSpec(0)
        with pytest.raises(ValueError):
            PrecisionSpec(53)
        with pytest.raises(ValueError):
            PrecisionSpec(8.0)  # type: ignore[arg-type]
        assert PrecisionSpec(8).eps == 2.0**-8

    def test_ties_round_to_even(self):
        p = 10
        spec = PrecisionSpec(p)
        # halfway between 1 and 1 + 2^-p: last kept bit even -> down
        assert round_to_precision(1.0 + 2.0 ** -(p + 1), spec) == 1.0
        # halfway between 1 + 2^-p and 1 + 2*2^-p: rounds up to even last bit
        assert round_to_precision(1.0 + 3.0 * 2.0 ** -(p + 1), spec) == 1.0 + 2.0 ** (p - 1) * 2.0**-p * 2.0**-(p - 1) * 2
        assert round_to_precision(1.0 + 3.0 * 2.0 ** -(p + 1), spec) == 1.0 + 2.0 * 2.0**-p
        assert round_to_precision(-(1.0 + 2.0 ** -(p + 1)), spec) == -1.0

    def test_exact_values_fixed(self):
        spec = PrecisionSpec(3)
        # 1.3125 = 1.0101_2; at 3 fractional bits the tie 1.0101 -> 1.010 (even)
        assert round_to_precision(1.3125, spec) == 1.25
        # 5.6 rounds to 1.011_2 * 2^2 = 5.5
        assert round_to_precision(5.6, spec) == 5.5
        assert round_to_precision(0.0, spec) == 0.0
        assert round_to_precision(-5.6, spec) == -5.5

    def test_full_width_is_identity(self):
        spec = PrecisionSpec(52)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1000) * 10.0 ** rng.uniform(-300, 300, size=1000)
        out = round_to_precision(x, spec)
        assert np.array_equal(out, x)

    @given(
        x=st.floats(min_value=-1e300, max_value=1e300, allow_nan=False).filter(
            lambda v: v == 0.0 or abs(v) > 1e-300
        ),
        p=st.integers(min_value=1, max_value=52),
    )
    @settings(max_examples=300)
    def test_idempotent_and_relative_error(self, x, p):
        spec = PrecisionSpec(p)
        r = round_to_precision(x, spec)
        assert round_to_precision(r, spec) == r
        assert abs(r - x) <= 2.0**-p * abs(x)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            round_to_precision(np.inf, PrecisionSpec(8))

    def test_carry_past_largest_float_raises(self):
        big = np.finfo(np.float64).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rounding to 5 bits overflows float64"):
                round_to_precision(big, PrecisionSpec(5))
            with pytest.raises(ValueError, match="rounding to 5 bits overflows float64"):
                round_to_precision(np.array([1.0, -big, 2.0]), PrecisionSpec(5))
            # the top binade rounds exactly when nothing carries out of it
            top = 2.0**1023 * np.array([1.0, -1.5, 1.96875])
            assert np.array_equal(round_to_precision(top, PrecisionSpec(5)), top)
            assert round_to_precision(big, PrecisionSpec(52)) == big
            with pytest.raises(ValueError, match="cannot round non-finite values"):
                round_to_precision(np.array([big, np.nan]), PrecisionSpec(5))

    def test_array_shape_preserved(self):
        out = round_to_precision(np.array([1.3125, -1.3125]), PrecisionSpec(3))
        assert out.shape == (2,)
        assert out[0] == 1.25 and out[1] == -1.25


class TestVectorOps:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            as_vector([1.0, np.nan])
        for bad in (np.nan, np.inf, -np.inf):
            for n in (1, 1000):
                for at in {0, n // 2, n - 1}:
                    v = np.ones(n)
                    v[at] = bad
                    with pytest.raises(ValueError, match="^vector contains non-finite entries$"):
                        as_vector(v)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            as_vector(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            as_vector([1.0, 2.0], dim=3)
