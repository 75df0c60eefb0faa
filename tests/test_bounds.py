"""Envelope curves, noise floors, iteration budgets, stopping levels."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngl.bounds import (
    THEOREM_IDS,
    Envelope,
    EnvelopeConstants,
    EnvelopeDomainError,
    envelope,
    iteration_budget,
    stopping_level,
)
from ngl.solvers import re_agm_calculate_parameters


def consts(mu=1.0, L=1.0, alpha=0.0, delta=0.0, f0_gap=1.0, R=1.0, **kw):
    return EnvelopeConstants(mu=mu, L=L, alpha=alpha, delta=delta,
                             f0_gap=f0_gap, R=R, **kw)


class TestGDStrongly:
    def test_noiseless_unit_constants_curve(self):
        env = envelope("GD_PL", consts(mu=1.0, L=1.0))
        assert env.curve(0) == 1.0
        assert env.rate == pytest.approx(1.0 / 8.0, rel=0, abs=0)
        ns = np.arange(0, 200)
        np.testing.assert_allclose(env.curve(ns), 0.875**ns, rtol=1e-12)

    def test_floor_value(self):
        env = envelope("GD_PL", consts(mu=4.0, L=8.0, delta=2.0))
        assert env.floor == pytest.approx(1.5, rel=1e-15)
        # half-level relative noise with delta = 0.1, the floor used by the
        # noise-floor experiment
        env = envelope("GD_PL", consts(mu=1.0, L=100.0, alpha=0.5, delta=0.1))
        assert env.floor == pytest.approx(0.18, rel=1e-12)

    def test_curve_approaches_floor(self):
        env = envelope("GD_PL", consts(mu=1.0, L=100.0, alpha=0.25, delta=0.3))
        assert env.curve(10**9) == pytest.approx(env.floor, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(EnvelopeDomainError, match="positive"):
            envelope("GD_PL", consts(mu=0.0))
        with pytest.raises(EnvelopeDomainError, match="exceed"):
            envelope("GD_PL", consts(mu=2.0, L=1.0))
        with pytest.raises(EnvelopeDomainError, match="alpha"):
            envelope("GD_PL", consts(alpha=1.0))


class TestGDMinGrad:
    def test_hyperbolic_decay(self):
        env = envelope("GD_MINGRAD", consts(L=1.0, f0_gap=1.0))
        assert env.curve(0) == pytest.approx(16.0, rel=1e-15)
        assert env.curve(15) == pytest.approx(1.0, rel=1e-15)
        assert env.floor == 0.0

    def test_floor_is_noise_only(self):
        env = envelope("GD_MINGRAD", consts(L=5.0, alpha=0.5, delta=0.2))
        assert env.floor == pytest.approx(3.0 * 0.04 / (0.125 * 1.5), rel=1e-13)
        assert env.curve(10**12) == pytest.approx(env.floor, rel=1e-3)


class TestAccelerated:
    def test_alpha_third_matches_plain_descent_order(self):
        # at the domain edge the decay exponent collapses to 0
        env = envelope("REAGM", consts(mu=1.0, L=100.0, alpha=1.0 / 3.0,
                                       delta=0.5, f0_gap=2.0, R=3.0))
        assert env.rate == pytest.approx(1.0 / 30000.0, rel=1e-15)
        assert env.floor == pytest.approx(7.0 * 0.25, rel=1e-13)
        assert env.start == pytest.approx(2.0 + 9.0 / 4.0, rel=1e-15)

    def test_noiseless_has_square_root_exponent(self):
        env = envelope("REAGM", consts(mu=0.04, L=100.0))
        assert env.rate == pytest.approx((0.04 / 100.0) ** 0.5 / 300.0, rel=1e-15)
        assert env.floor == 0.0

    @pytest.mark.parametrize("p", [0.5, 0.75, 1.0])
    def test_intermediate_exponents(self, p):
        mu, L = 0.01, 100.0
        alpha = (mu / (2 * L)) ** p / 3.0
        env = envelope("REAGM", consts(mu=mu, L=L, alpha=alpha))
        expected = (mu / L) ** (1.0 - min(p, 0.5)) / 300.0
        assert env.rate == pytest.approx(expected, rel=1e-12)

    def test_alpha_above_third_rejected(self):
        with pytest.raises(EnvelopeDomainError, match="1/3"):
            envelope("REAGM", consts(mu=1.0, L=10.0, alpha=0.34))

    def test_parameter_bracket_holds_at_test_constants(self):
        for mu, L, alpha in [(1.0, 100.0, 1.0 / 3.0), (0.04, 100.0, 0.0),
                             (0.01, 100.0, 0.028), (1.0, 1.0, 0.1)]:
            params = re_agm_calculate_parameters(mu, L, alpha)
            lower = (mu / (2 * L)) ** (1.0 - params.gamma_star) / 150.0
            assert lower * (1 - 1e-12) <= params.omega < 1.0


class TestRegularizedEnvelopes:
    def test_gd_reg_noiseless_floor_is_ridge_term(self):
        env = envelope("GD_REG", consts(mu=0.5, L=10.0, alpha=0.0, R=2.0))
        assert env.floor == pytest.approx(0.5 * 0.5 * 4.0, rel=1e-15)
        assert env.rate == pytest.approx(0.5 / (8.0 * 10.5), rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.25])
    def test_recipe_ridge_keeps_floor_below_target(self, alpha):
        # ridge modulus chosen by the convex-to-strongly-convex recipe
        L, R, eps = 100.0, 2.0, 1.0
        mu = (2.0 / 3.0) * (1 - alpha) ** 3 / (1 + alpha) * eps / R**2
        env = envelope("GD_REG", consts(mu=mu, L=L, alpha=alpha, R=R, f0_gap=50.0))
        assert env.floor < eps

    def test_gd_reg_guards(self):
        with pytest.raises(EnvelopeDomainError, match="1/2"):
            envelope("GD_REG", consts(mu=0.1, alpha=0.5, R=1.0))
        with pytest.raises(EnvelopeDomainError, match="relative noise model"):
            envelope("GD_REG", consts(mu=0.1, delta=0.01, R=1.0))
        with pytest.raises(EnvelopeDomainError, match="radius"):
            envelope("GD_REG", consts(mu=0.1, R=0.0))

    def test_reagm_reg_boundary_and_guards(self):
        env = envelope("REAGM_REG", consts(mu=0.2, L=10.0, alpha=1.0 / 6.0, R=1.0))
        assert env.floor > 0.0
        with pytest.raises(EnvelopeDomainError, match="1/6"):
            envelope("REAGM_REG", consts(mu=0.2, L=10.0, alpha=0.17, R=1.0))
        with pytest.raises(EnvelopeDomainError, match="relative noise model"):
            envelope("REAGM_REG", consts(mu=0.2, L=10.0, delta=1.0, R=1.0))

    def test_reagm_reg_uses_shifted_smoothness(self):
        mu, L = 0.5, 10.0
        env = envelope("REAGM_REG", consts(mu=mu, L=L, alpha=0.0, R=1.0))
        assert env.rate == pytest.approx((mu / (L + mu)) ** 0.5 / 300.0, rel=1e-15)
        assert env.floor == pytest.approx(mu / 2.0, rel=1e-15)


class TestAdaptiveEnvelopes:
    def test_alpha_only_plugin(self):
        env = envelope("ADAPT_ALPHA", consts(mu=1.0, L=2.0, alpha=0.5, delta=0.1))
        assert env.rate == pytest.approx(0.125 / 256.0, rel=0, abs=0)
        assert env.floor == pytest.approx(800.0 * 0.01, rel=1e-15)

    def test_alpha_only_pins_initial_guess(self):
        with pytest.raises(EnvelopeDomainError, match="L0"):
            envelope("ADAPT_ALPHA", consts(mu=1.0, L=2.0, L0=1.0))
        envelope("ADAPT_ALPHA", consts(mu=1.0, L=2.0, L0=2.0))  # L0 == L fine

    def test_both_plugin_with_underestimated_smoothness(self):
        env = envelope("ADAPT_BOTH", consts(mu=1.0, L=8.0, delta=0.5, L0=2.0))
        assert env.rate == pytest.approx(1.0 / 8192.0, rel=0, abs=0)
        assert env.floor == pytest.approx(3200.0 * 0.25, rel=1e-15)

    def test_both_defaults_initial_guess_to_L(self):
        env = envelope("ADAPT_BOTH", consts(mu=1.0, L=8.0, alpha=0.0))
        assert env.rate == pytest.approx(1.0 / (256.0 * 8.0), rel=1e-15)


class TestStoppingLevel:
    def test_plugin_value(self):
        assert stopping_level(1.0, 0.0, 1.0, 10.0) == 122.0

    def test_zero_absolute_noise(self):
        assert stopping_level(2.0, 0.3, 0.0, 5.0) == 0.0

    def test_multiplier_range(self):
        with pytest.raises(EnvelopeDomainError, match="K"):
            stopping_level(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(EnvelopeDomainError, match="K"):
            stopping_level(1.0, 0.5, 1.0, 2.0)
        stopping_level(1.0, 0.5, 1.0, 2.0 + 1e-9)

    def test_condition_number_scaling(self):
        mu, L, delta = 1.0, 100.0, 0.7
        level = stopping_level(mu, 0.0, delta, math.sqrt(L / mu))
        assert level == pytest.approx(1.22 * (L / mu) * delta**2 / mu, rel=1e-12)

    def test_generic_envelope_is_constant(self):
        env = envelope("STOP_GENERIC", consts(mu=1.0, L=10.0, delta=0.1, K=4.0))
        level = stopping_level(1.0, 0.0, 0.1, 4.0)
        assert env.floor == level
        np.testing.assert_allclose(env.curve(np.arange(5)), level, rtol=0)
        with pytest.raises(EnvelopeDomainError, match="required"):
            envelope("STOP_GENERIC", consts(mu=1.0, delta=0.1))


class TestStoppingEnvelope:
    def test_floor_and_budget(self):
        c = consts(mu=1.0, L=100.0, alpha=0.0, delta=1e-3, f0_gap=1.0, R=1.0,
                   K=10.0)
        env = envelope("REAGM_STOP", c)
        assert env.floor == pytest.approx(122e-6, rel=1e-15)
        beta = math.log(10.0 / 6.0) / math.log(200.0)
        assert 0.0 < beta < 0.5
        budget = iteration_budget("REAGM_STOP", c)
        arg = (1.0 / 122.0) * 100.0 * 1.0 / 1e-6
        expected = math.ceil(300.0 * 100.0 ** (1.0 - beta) * math.log(arg))
        assert budget == expected
        assert 2.5e5 < budget < 2.7e5

    def test_multiplier_window(self):
        base = dict(mu=1.0, L=100.0, delta=1e-3)
        with pytest.raises(EnvelopeDomainError, match="6"):
            envelope("REAGM_STOP", consts(K=5.0, **base))
        with pytest.raises(EnvelopeDomainError, match="6"):
            envelope("REAGM_STOP", consts(K=6.0 * math.sqrt(200.0) + 1.0, **base))
        envelope("REAGM_STOP", consts(K=6.0, **base))  # beta = 0 boundary

    def test_budget_needs_positive_absolute_noise(self):
        with pytest.raises(EnvelopeDomainError, match="delta"):
            iteration_budget("REAGM_STOP", consts(mu=1.0, L=100.0, K=10.0))

    def test_envelope_allows_zero_noise(self):
        env = envelope("REAGM_STOP", consts(mu=1.0, L=100.0, K=10.0))
        assert env.floor == 0.0


class TestIterationBudgets:
    def test_plain_descent_pin(self):
        c = consts(L=1.0, R=1.0, alpha=0.0)
        assert iteration_budget("GD_REG", c, epsilon=0.5) == 35

    def test_plain_descent_formula(self):
        L, R, alpha = 2.0, 1.5, 0.25
        eps = L * R**2 / 4.0
        raw = (12.0 * 1.25**2 / 0.75**6 * (L * R**2 / eps)
               * math.log(2.0 * L * R**2 / eps))
        c = consts(L=L, R=R, alpha=alpha)
        assert iteration_budget("GD_REG", c, epsilon=eps) == math.ceil(raw) + 1

    def test_accelerated_boundary_alpha(self):
        L, R = 1.0, 1.0
        eps = 0.1
        c = consts(L=L, R=R, alpha=1.0 / 3.0)
        raw = 150.0 * (12.0 / eps) * math.log(4.0 / eps)
        assert iteration_budget("REAGM_REG", c, epsilon=eps, beta=0.0) == \
            math.ceil(raw) + 1

    def test_accelerated_exponent_scaling(self):
        c = consts(L=1.0, R=1.0, alpha=1e-4)
        n_flat = iteration_budget("REAGM_REG", c, epsilon=1e-3, beta=0.0)
        n_sqrt = iteration_budget("REAGM_REG", c, epsilon=1e-3, beta=0.5)
        assert n_sqrt < n_flat
        # (12e3)^(1/2) vs (12e3)^1, same log factor
        assert n_flat / n_sqrt == pytest.approx(math.sqrt(12e3), rel=0.01)

    def test_accuracy_domain(self):
        c = consts(L=1.0, R=1.0)
        with pytest.raises(EnvelopeDomainError, match="L\\*R\\^2"):
            iteration_budget("GD_REG", c, epsilon=1.0)
        with pytest.raises(EnvelopeDomainError, match="L\\*R\\^2"):
            iteration_budget("REAGM_REG", c, epsilon=2.0, beta=0.0)
        with pytest.raises(EnvelopeDomainError, match="positive"):
            iteration_budget("GD_REG", c, epsilon=0.0)

    def test_alpha_caps(self):
        with pytest.raises(EnvelopeDomainError, match="1/2"):
            iteration_budget("GD_REG", consts(alpha=0.5), epsilon=0.1)
        with pytest.raises(EnvelopeDomainError, match="cap"):
            iteration_budget("REAGM_REG", consts(L=12.0, alpha=0.3),
                             epsilon=0.12, beta=0.5)
        with pytest.raises(EnvelopeDomainError, match="beta"):
            iteration_budget("REAGM_REG", consts(alpha=0.1), epsilon=0.1,
                             beta=0.6)
        with pytest.raises(EnvelopeDomainError, match="beta"):
            iteration_budget("REAGM_REG", consts(alpha=0.1), epsilon=0.1)

    @pytest.mark.parametrize("tid,kw", [("GD_REG", {"epsilon": 1.0}),
                                        ("REAGM_REG", {"epsilon": 1.0, "beta": 0.0}),
                                        ("REAGM_STOP", {})],
                             ids=["GD_REG", "REAGM_REG", "REAGM_STOP"])
    def test_overflowing_constants_are_rejected(self, tid, kw):
        # at L = 1e308 a budget or the accelerated parameters leave floating
        # range; the budget names it as a domain error instead of raising
        # OverflowError or the parameters' plain ValueError
        c = consts(L=1e308, delta=1e-3 if tid == "REAGM_STOP" else 0.0, K=7.0)
        with pytest.raises(EnvelopeDomainError, match="leaves floating range"):
            iteration_budget(tid, c, **kw)

    @pytest.mark.parametrize("tid", ["REAGM", "REAGM_REG", "REAGM_STOP"])
    def test_accelerated_envelopes_name_overflowing_parameters(self, tid):
        # L_hat = 8L overflows, so q = mu/(2*L_hat) is 0: each accelerated
        # guarantee reports it through REAGM's curve, as a domain error
        c = consts(L=1e308, delta=0.0, K=7.0)
        with pytest.raises(EnvelopeDomainError, match=r"^REAGM: q = mu/\(2\*L_hat\) = 0.0 leaves"):
            envelope(tid, c)

    def test_no_budget_for_plain_envelopes(self):
        with pytest.raises(ValueError, match="GD_PL"):
            iteration_budget("GD_PL", consts(), epsilon=0.1)


# Each guarantee's hypotheses as the paper states them: the alpha cap,
# whether alpha may equal it, whether mu > 0 is required (the ridge
# modulus for GD_REG and REAGM_REG), whether K is required.
HYPOTHESES = {
    "GD_PL": (1.0, False, True, False),
    "GD_MINGRAD": (1.0, False, False, False),
    "REAGM": (1.0 / 3.0, True, True, False),
    "GD_REG": (0.5, False, True, False),
    "REAGM_REG": (1.0 / 6.0, True, True, False),
    "ADAPT_BOTH": (1.0, False, True, False),
    "ADAPT_ALPHA": (1.0, False, True, False),
    "STOP_GENERIC": (1.0, False, True, True),
    "REAGM_STOP": (1.0 / 6.0, True, True, True),
}


@pytest.mark.parametrize("tid", THEOREM_IDS)
def test_each_hypothesis_is_checked(tid):
    cap, inclusive, needs_mu, needs_K = HYPOTHESES[tid]
    # K = 1e17 exceeds 1/(1-alpha) just below alpha = 1
    c = consts(mu=1.0, L=100.0, K={"STOP_GENERIC": 1e17, "REAGM_STOP": 10.0}.get(tid))
    envelope(tid, replace(c, alpha=math.nextafter(cap, 0.0)))
    if inclusive:
        envelope(tid, replace(c, alpha=cap))
    else:
        with pytest.raises(EnvelopeDomainError, match="alpha"):
            envelope(tid, replace(c, alpha=cap))
    with pytest.raises(EnvelopeDomainError, match="alpha"):
        envelope(tid, replace(c, alpha=math.nextafter(cap, 2.0)))
    if needs_mu:
        with pytest.raises(EnvelopeDomainError, match="mu|modulus"):
            envelope(tid, replace(c, mu=0.0))
    else:
        envelope(tid, replace(c, mu=0.0))
    if needs_K:
        with pytest.raises(EnvelopeDomainError, match="K"):
            envelope(tid, replace(c, K=None))


MONOTONE_CASES = [
    ("GD_PL", consts(mu=1.0, L=100.0, alpha=0.25, delta=0.3)),
    ("GD_MINGRAD", consts(L=10.0, alpha=0.5, delta=0.2, f0_gap=3.0)),
    ("REAGM", consts(mu=0.01, L=100.0, alpha=0.028, delta=1.0, R=4.0)),
    ("GD_REG", consts(mu=0.05, L=10.0, alpha=0.2, R=2.0, f0_gap=7.0)),
    ("REAGM_REG", consts(mu=0.05, L=10.0, alpha=0.1, R=2.0, f0_gap=7.0)),
    ("ADAPT_BOTH", consts(mu=0.5, L=20.0, alpha=0.3, delta=0.1, L0=5.0)),
    ("ADAPT_ALPHA", consts(mu=0.5, L=20.0, alpha=0.3, delta=0.1)),
    ("STOP_GENERIC", consts(mu=1.0, L=10.0, delta=0.1, K=3.0)),
    ("REAGM_STOP", consts(mu=1.0, L=100.0, delta=1e-2, K=8.0, R=2.0)),
]


class TestCurveShape:
    @pytest.mark.parametrize("tid,c", MONOTONE_CASES,
                             ids=[t for t, _ in MONOTONE_CASES])
    def test_nonincreasing_to_floor(self, tid, c):
        env = envelope(tid, c)
        ns = np.arange(0, 301)
        vals = env.curve(ns)
        scale = max(1.0, vals[0])
        assert np.all(np.diff(vals) <= 1e-15 * scale)
        assert np.all(vals >= env.floor - 1e-15 * scale)
        assert env.floor >= 0.0

    def test_every_theorem_id_covered(self):
        assert {t for t, _ in MONOTONE_CASES} == set(THEOREM_IDS)

    def test_curve_input_validation(self):
        env = envelope("GD_PL", consts())
        with pytest.raises(ValueError):
            env.curve(-1)
        with pytest.raises(ValueError):
            env.curve(2.5)
        assert isinstance(env.curve(3), float)
        out = env.curve([0, 1, 2])
        assert isinstance(out, np.ndarray) and out.shape == (3,)

    def test_unknown_theorem_id(self):
        with pytest.raises(ValueError, match="GD_PL"):
            envelope("NOPE", consts())

    def test_large_step_counts_do_not_underflow(self):
        env = envelope("REAGM", consts(mu=1e-6, L=1.0, delta=0.5))
        v = env.curve(10**12)
        assert math.isfinite(v)
        assert v == pytest.approx(env.floor, rel=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(mu=st.floats(1e-6, 1.0), cond=st.floats(1.0, 1e4),
           alpha=st.floats(0.0, 0.33), delta=st.floats(0.0, 10.0),
           f0=st.floats(0.0, 1e6))
    def test_accelerated_envelope_monotone_everywhere(self, mu, cond, alpha,
                                                      delta, f0):
        c = consts(mu=mu, L=mu * cond, alpha=alpha, delta=delta, f0_gap=f0,
                   R=math.sqrt(2 * f0 / mu) if f0 else 1.0)
        env = envelope("REAGM", c)
        ns = np.arange(0, 200)
        vals = env.curve(ns)
        scale = max(1.0, float(vals[0]))
        assert np.all(np.diff(vals) <= 1e-15 * scale)


class TestEnvelopeRepr:
    def test_dataclass_surface(self):
        env = envelope("GD_PL", consts())
        assert isinstance(env, Envelope)
        assert env.theorem_id == "GD_PL"
        assert env.constants.mu == 1.0
        assert "GD_PL" in repr(env)

    def test_excess_sign_is_the_violation_test(self):
        # excess > 0 exactly where f_gap > curve + 1e-9 * max(1, curve(0)),
        # including gaps one ulp either side of the slackened bound
        env = envelope("GD_PL", consts(mu=1.0, L=100.0, alpha=0.25, delta=0.1,
                                       f0_gap=50.0))
        k = np.arange(200)
        edge = env.curve(k) + 1e-9 * max(1.0, env.curve(0))
        rng = np.random.default_rng(0)
        for f_gap in (edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf),
                      edge * rng.uniform(0.5, 1.5, size=k.size)):
            assert np.array_equal(env.excess(k, f_gap) > 0.0, f_gap > edge)
        assert env.excess(3, env.curve(3)) == pytest.approx(-1e-9 * env.curve(0))
