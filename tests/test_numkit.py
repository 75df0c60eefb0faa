"""Kernel tests: compensated summation against an exact-rational oracle,
bit-level rounding semantics, vector validation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngl.numkit import (
    PrecisionSpec,
    as_vector,
    kahan_sum,
    round_to_precision,
)

EPS64 = 2.0**-52


def exact_sum(values):
    """Oracle: exact rational sum (every float64 is an exact rational)."""
    acc = Fraction(0)
    for v in values:
        acc += Fraction(float(v))
    return acc


def naive_sum(values):
    acc = 0.0
    for v in values:
        acc += float(v)
    return acc


def adversarial_sequence(rng, n):
    """Mixed-magnitude, mixed-sign summands that defeat naive accumulation."""
    mag = 10.0 ** rng.uniform(-8, 8, size=n)
    sgn = rng.choice([-1.0, 1.0], size=n)
    seq = mag * sgn
    # interleave a cancelling pair of large values to force carry churn
    big = 10.0 ** rng.uniform(12, 15)
    i, j = rng.choice(n, size=2, replace=False)
    seq[i] = big
    seq[j] = -big
    return seq


def test_kahan_beats_naive_on_random_trials():
    rng = np.random.default_rng(20240814)
    n = 200
    wins = 0
    trials = 1000
    for _ in range(trials):
        seq = adversarial_sequence(rng, n)
        exact = exact_sum(seq)
        err_kahan = abs(Fraction(kahan_sum(seq)) - exact)
        err_naive = abs(Fraction(naive_sum(seq)) - exact)
        if err_kahan <= err_naive:
            wins += 1
        # ordering-independent worst-case bound, C = 4
        bound = (EPS64 + n * EPS64**2) * 4 * float(np.sum(np.abs(seq)))
        assert float(err_kahan) <= bound
    assert wins >= 990, f"kahan won only {wins}/{trials}"


def test_kahan_sum_simple_values():
    assert kahan_sum([]) == 0.0
    assert kahan_sum([1.5]) == 1.5
    assert kahan_sum([1.0, 2.0, 3.0]) == 6.0
    # cancellation case: naive left-to-right sum yields 0.0
    assert kahan_sum([1e16, 1.0, -1e16]) == 1.0
    seq = [1.0, 1e100, 1.0, -1e100] * 1000
    assert kahan_sum(seq) == 2000.0


def test_kahan_sum_rejects_non_finite():
    with pytest.raises(ValueError):
        kahan_sum([1.0, np.inf])
    with pytest.raises(ValueError):
        kahan_sum([np.nan])


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

    def test_array_shape_preserved(self):
        out = round_to_precision(np.array([1.3125, -1.3125]), PrecisionSpec(3))
        assert out.shape == (2,)
        assert out[0] == 1.25 and out[1] == -1.25


class TestVectorOps:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            as_vector([1.0, np.nan])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            as_vector(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            as_vector([1.0, 2.0], dim=3)
