import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialml.theory import (
    LOG2,
    TheoryError,
    TrainingProfile,
    approx_exponent,
    exact_exponent,
    exact_exponent_closed_form,
    network_complexity_bound,
    pc_lower_bound,
    sample_complexity,
    self_consistency_check,
)


def bisect_cubic_oracle(r):
    """Independent root finder for e^r y^3 - y - 1 = 0 on [1, 2]."""
    lo, hi = 1.0, 2.0
    for _ in range(100):
        mid = (lo + hi) / 2
        if math.exp(r) * mid**3 - mid - 1 > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


class TestExactExponent:
    def test_zero_risk_constant(self):
        # at zero risk the root is the real solution of y^3 - y - 1 = 0
        root = bisect_cubic_oracle(0.0)
        assert abs(root - 1.324718) < 1e-6
        assert abs(exact_exponent(0.0) - 0.25 * math.log(root)) < 1e-12
        assert abs(4.0 * exact_exponent(0.0) - 0.2812) < 1e-4

    def test_near_boundary_vanishes(self):
        assert exact_exponent(LOG2 - 1e-9) < 1e-6

    def test_monotone_decreasing_on_grid(self):
        grid = np.linspace(0.0, LOG2 * 0.999, 100)
        values = [exact_exponent(r) for r in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_root_residual_small(self):
        for r in np.linspace(0.0, LOG2 * 0.999, 100):
            y = math.exp(4.0 * exact_exponent(r))
            assert abs(math.exp(r) * y**3 - y - 1.0) < 1e-12

    def test_matches_closed_form_radicals(self):
        for r in np.linspace(0.0, LOG2 * 0.99, 25):
            assert abs(exact_exponent(r) - exact_exponent_closed_form(r)) < 1e-10

    def test_domain(self):
        with pytest.raises(TheoryError):
            exact_exponent(LOG2)
        with pytest.raises(TheoryError):
            exact_exponent(-0.1)


class TestApproxExponent:
    def test_endpoints(self):
        assert abs(4.0 * approx_exponent(0.0) - 0.2812) < 1e-12
        assert approx_exponent(LOG2) == 0.0

    def test_close_to_exact_on_grid(self):
        # the linear fit tracks the exact exponent to within 2% of its
        # zero-risk value over most of the valid range
        eps0 = exact_exponent(0.0)
        worst = max(
            abs(approx_exponent(r) - exact_exponent(r))
            for r in np.linspace(0.0, 0.95 * LOG2, 200)
        )
        assert worst <= 0.02 * eps0


class TestTrainingProfile:
    def test_alpha_one_iff_equal_counts(self):
        pi = np.full(3, 1 / 3)
        equal = TrainingProfile((50, 50, 50), pi)
        assert equal.alpha == 1.0
        uneven = TrainingProfile((50, 25, 50), pi)
        assert uneven.alpha > 1.0

    @given(
        st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_alpha_two_computations_agree(self, counts, seed):
        rng = np.random.default_rng(seed)
        pi = rng.random(len(counts)) + 0.05
        pi /= pi.sum()
        profile = TrainingProfile(tuple(counts), pi)
        direct = float(pi @ (profile.n_max / np.asarray(counts, float)))
        alt = profile.n_max * float(pi @ (1.0 / np.asarray(counts, float)))
        assert abs(profile.alpha - direct) <= 1e-14 * max(1.0, profile.alpha)
        assert abs(profile.alpha - alt) <= 1e-14 * max(1.0, profile.alpha)
        assert profile.alpha >= 1.0 - 1e-14

    def test_validation(self):
        with pytest.raises(TheoryError):
            TrainingProfile((0, 10), np.array([0.5, 0.5]))
        with pytest.raises(TheoryError):
            TrainingProfile((10, 10), np.array([0.7, 0.7]))


class TestPcLowerBound:
    def profile(self, n, k=1):
        return TrainingProfile((n,) * k, np.full(k, 1.0 / k))

    def test_vacuous_at_exponent(self):
        eps = exact_exponent(0.0)
        bound = pc_lower_bound(0.0, 1.0, eps, self.profile(100))
        assert bound.vacuous
        assert bound.raw == pytest.approx(-1.0)
        assert bound.value == 0.0

    def test_plug_in_arithmetic(self):
        eps = exact_exponent(0.0)
        bound = pc_lower_bound(0.0, 1.0, 0.0, self.profile(100))
        expected = 1.0 - 2.0 * math.exp(-800.0 * eps**2)
        assert bound.value == pytest.approx(expected, abs=1e-12)
        assert bound.value == pytest.approx(0.9617, abs=5e-4)

    def test_uniform_per_agent_beta_reduces_to_scalar(self):
        profile = TrainingProfile((100, 50, 100), np.array([0.2, 0.5, 0.3]))
        scalar = pc_lower_bound(0.1, 2.0, 0.01, profile)
        vector = pc_lower_bound(0.1, np.full(3, 2.0), 0.01, profile)
        assert scalar.raw == pytest.approx(vector.raw, abs=1e-12)

    def test_monotonicity(self):
        eps = exact_exponent(0.2)
        base = pc_lower_bound(0.2, 1.0, eps / 2, self.profile(100))
        grow_n = pc_lower_bound(0.2, 1.0, eps / 2, self.profile(400))
        assert grow_n.raw >= base.raw
        more_rho = pc_lower_bound(0.2, 1.0, eps * 0.75, self.profile(100))
        assert more_rho.raw <= base.raw
        more_beta = pc_lower_bound(0.2, 2.0, eps / 2, self.profile(100))
        assert more_beta.raw <= base.raw

    def test_invalid_inputs(self):
        with pytest.raises(TheoryError, match="beta must be positive"):
            pc_lower_bound(0.0, -1.0, 0.0, self.profile(10))
        with pytest.raises(TheoryError, match="target risk"):
            pc_lower_bound(0.9, 1.0, 0.0, self.profile(10))
        with pytest.raises(TheoryError, match="one value per agent"):
            pc_lower_bound(0.0, np.ones((2, 2)), 0.0, self.profile(10, 2))
        with pytest.raises(TheoryError, match="length must match"):
            pc_lower_bound(0.0, np.ones(3), 0.0, self.profile(10, 2))
        with pytest.raises(TheoryError, match="complexity must be nonnegative"):
            pc_lower_bound(0.0, 1.0, -0.1, self.profile(10))


class TestNetworkComplexityBound:
    def test_equal_counts_uniform(self):
        profile = TrainingProfile((40, 40, 40), np.full(3, 1 / 3))
        rho, c = network_complexity_bound([2.0, 2.0, 2.0], profile)
        assert c == pytest.approx(2.0)
        assert rho == pytest.approx(2.0 / math.sqrt(40))

    def test_single_agent(self):
        profile = TrainingProfile((25,), np.array([1.0]))
        rho, c = network_complexity_bound([3.0], profile)
        assert c == pytest.approx(3.0)
        assert rho == pytest.approx(3.0 / 5.0)

    def test_mixed_case_hand_arithmetic(self):
        profile = TrainingProfile((100, 25), np.array([0.5, 0.5]))
        rho, c = network_complexity_bound([1.0, 2.0], profile)
        # alpha = (1, 4): C = 0.5*1*1 + 0.5*2*2 = 2.5
        assert c == pytest.approx(2.5)
        assert rho == pytest.approx(0.25)


class TestSampleComplexity:
    def test_frozen_reference_value(self):
        assert sample_complexity(1.0, 0.0, 1.0, 1.0, 0.05) == 571

    def test_bracket_structure_at_round_epsilon(self):
        eps = exact_exponent(0.0)
        n = sample_complexity(1.0, 0.0, 1.0, 1.0, 0.5)
        bracket = 1.0 + 0.5 * math.sqrt(0.5 * math.log(4.0))
        assert n == int(math.floor((1.0 / eps) ** 2 * bracket**2)) + 1

    def test_doubling_c_and_beta_quadruples_leading_factor(self):
        base = sample_complexity(1.0, 0.0, 1.0, 1.0, 0.05)
        scaled = sample_complexity(2.0, 0.0, 1.0, 2.0, 0.05)
        # the bracket is unchanged when beta doubles with C, so the threshold
        # exactly quadruples before integer rounding
        assert 4 * base - 3 <= scaled <= 4 * base

    def test_exceeds_first_bound(self):
        eps = exact_exponent(0.3)
        n = sample_complexity(2.0, 0.3, 1.5, 1.0, 0.1)
        assert n > (2.0 / eps) ** 2

    def test_invalid(self):
        with pytest.raises(TheoryError):
            sample_complexity(1.0, 0.0, 1.0, 1.0, 0.0)
        with pytest.raises(TheoryError):
            sample_complexity(0.0, 0.0, 1.0, 1.0, 0.1)


class TestSelfConsistency:
    def test_reference_case(self):
        ok, details = self_consistency_check(1.0, 0.0, 1.0, 1.0, 0.05)
        assert ok
        assert details["bound"] >= 0.95

    def test_random_parameter_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            c = rng.uniform(0.1, 5.0)
            risk = rng.uniform(0.0, 0.6) * LOG2
            alpha = rng.uniform(1.0, 3.0)
            beta = rng.uniform(0.5, 5.0)
            epsilon = rng.uniform(0.01, 0.5)
            ok, details = self_consistency_check(c, risk, alpha, beta, epsilon)
            assert ok, details
