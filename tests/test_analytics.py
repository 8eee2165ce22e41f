"""Threshold formulas, tail bounds, and the exact convolution oracle."""
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from scipy import stats

import blocksketch as bs
from blocksketch.errors import CapacityError, DomainError, ParameterError

# frozen output of binom_diff_tail_exact(K1=100, K2=100, p=0.2, q=0.05);
# cross-checked below against a scipy.stats double sum
TAIL_100_100 = 0.0005331483576421509


def hiprec_gamma_star(alpha: str, beta: str) -> float:
    getcontext().prec = 50
    d = Decimal(alpha).sqrt() - Decimal(beta).sqrt()
    return float(2 / (d * d))


def scipy_tail_oracle(K1, K2, p, q):
    i = np.arange(K1 + 1)
    j = np.arange(K2 + 1)
    px = stats.binom.pmf(i, K1, p)
    py = stats.binom.pmf(j, K2, q)
    return float((px[:, None] * py[None, :] * (i[:, None] <= j[None, :])).sum())


class TestGammaStar:
    def test_exact_surd_cases(self):
        assert bs.gamma_star(8.0, 2.0) == pytest.approx(1.0, rel=1e-12)
        assert bs.gamma_star(25.0, 4.0) == 2.0 / 9.0

    def test_against_high_precision(self):
        assert bs.gamma_star(30.0, 2.0) == pytest.approx(
            hiprec_gamma_star("30", "2"), rel=1e-13)
        assert abs(bs.gamma_star(30.0, 2.0) - 0.121153) < 5e-7

    def test_rejects_alpha_not_above_beta(self):
        with pytest.raises(ParameterError):
            bs.gamma_star(2.0, 2.0)
        with pytest.raises(ParameterError):
            bs.gamma_star(1.0, 2.0)
        with pytest.raises(ParameterError):
            bs.gamma_star(2.0, -1.0)


class TestExactRecoveryPossible:
    def test_classifications(self):
        assert bs.exact_recovery_possible(9.0, 1.0) == bs.ABOVE
        assert bs.exact_recovery_possible(3.0, 1.0) == bs.BELOW
        assert bs.exact_recovery_possible(8.0, 2.0) == bs.BOUNDARY
        assert bs.exact_recovery_possible(2.0, 0.0) == bs.BOUNDARY

    def test_tolerance_window(self):
        eps = 1e-13  # inside the 1e-12 boundary band
        base = (math.sqrt(2.0) + math.sqrt(2.0)) ** 2  # alpha with beta=2 on the boundary
        assert bs.exact_recovery_possible(base, 2.0) == bs.BOUNDARY
        assert bs.exact_recovery_possible(base + 1e-6, 2.0) == bs.ABOVE
        assert bs.exact_recovery_possible(base - 1e-6, 2.0) == bs.BELOW
        assert bs.exact_recovery_possible(8.0 + eps, 2.0) == bs.BOUNDARY

    def test_rejects_invalid(self):
        with pytest.raises(ParameterError):
            bs.exact_recovery_possible(1.0, 2.0)


class TestLambdaStar:
    def test_parametrization_equivalence(self):
        # rate form (alpha=4, beta=1, n=100) against the (p, q) form
        n = 100
        scale = math.log(n) / n
        via_rates = (4.0 - 1.0) / (math.log(4.0) - math.log(1.0)) * scale
        via_pq = bs.lambda_star(4.0 * scale, 1.0 * scale)
        assert via_pq == pytest.approx(via_rates, rel=1e-12)
        assert via_pq == pytest.approx(0.099658, abs=5e-7)

    def test_log_ratio_one(self):
        q = 0.07
        assert bs.lambda_star(math.e * q, q) == pytest.approx(q * (math.e - 1.0), rel=1e-12)

    def test_limit_p_to_q(self):
        q = 0.3
        assert bs.lambda_star(q * (1 + 1e-8), q) == pytest.approx(q, rel=1e-6)

    def test_numpy_float_rates(self):
        # float32 rates give the bits of the Python floats of their values
        p, q = np.float32(0.2), np.float32(0.1)
        got = bs.lambda_star(p, q)
        assert type(got) is float and got == bs.lambda_star(float(p), float(q))

    def test_rejects_invalid(self):
        with pytest.raises(ParameterError):
            bs.lambda_star(0.5, 0.0)
        with pytest.raises(ParameterError):
            bs.lambda_star(0.2, 0.2)
        with pytest.raises(ParameterError):
            bs.lambda_star(1.2, 0.1)

    def test_random_tuple_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(10, 100000))
            beta = float(rng.uniform(0.05, 5.0))
            alpha = beta * float(rng.uniform(1.5, 20.0))
            scale = math.log(n) / n
            p, q = alpha * scale, beta * scale
            if p > 1.0:
                continue
            paper_form = (alpha - beta) / (math.log(alpha) - math.log(beta)) * scale
            assert bs.lambda_star(p, q) == pytest.approx(paper_form, rel=1e-12)


class TestLemma2Exponent:
    def test_integer_case(self):
        assert bs.lemma2_exponent(9.0, 1.0, 1.0) == 2.0

    def test_equals_one_at_threshold(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            beta = float(rng.uniform(0.05, 8.0))
            alpha = beta * float(rng.uniform(1.5, 12.0))
            g = bs.gamma_star(alpha, beta)
            assert bs.lemma2_exponent(alpha, beta, g) == pytest.approx(1.0, rel=1e-12)

    def test_half_square_identity(self):
        # the function computes the half square; it must match the expanded
        # form. Draws keep alpha/beta away from 1, where the expanded form
        # loses all relative accuracy to cancellation
        rng = np.random.default_rng(8)
        for _ in range(1000):
            beta = float(rng.uniform(0.05, 8.0))
            alpha = beta * float(rng.uniform(1.5, 12.0))
            gamma = float(rng.uniform(0.0, 1.0))
            lhs = bs.lemma2_exponent(alpha, beta, gamma)
            rhs = (alpha + beta) * gamma / 2.0 - gamma * math.sqrt(alpha * beta)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    def test_frozen_value(self):
        assert bs.lemma2_exponent(30.0, 2.0, 0.5) == pytest.approx(
            8.0 - 0.5 * math.sqrt(60.0), rel=1e-14)
        assert abs(bs.lemma2_exponent(30.0, 2.0, 0.5) - 4.1270) < 5e-5

    def test_gamma_above_one_allowed(self):
        # the threshold itself can exceed 1; the formula stays valid there
        assert bs.lemma2_exponent(8.0, 2.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_invalid(self):
        with pytest.raises(ParameterError):
            bs.lemma2_exponent(1.0, 2.0, 0.5)
        with pytest.raises(ParameterError):
            bs.lemma2_exponent(9.0, 1.0, -0.1)
        # nan fails every comparison, so a check of gamma < 0 alone let it through
        for gamma in (math.nan, math.inf):
            with pytest.raises(ParameterError, match="finite"):
                bs.lemma2_exponent(30.0, 2.0, gamma)


@pytest.mark.parametrize("alpha, beta", [(math.inf, 2.0), (math.inf, math.inf),
                                         (math.nan, 2.0)])
def test_threshold_functions_need_finite_alpha(alpha, beta):
    # unchecked, an infinite alpha gives gamma* = 0, theorem1 = above, exponent nan
    for f, args in ((bs.gamma_star, ()), (bs.exact_recovery_possible, ()),
                    (bs.lemma2_exponent, (0.5,))):
        with pytest.raises(ParameterError):
            f(alpha, beta, *args)


class TestBoundParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            bs.BoundParams(K1=-1, K2=0, p=0.5, q=0.5)
        with pytest.raises(ParameterError):
            bs.BoundParams(K1=1, K2=1, p=1.5, q=0.5)
        # integral floats, bools and infinities are not counts
        for k in (2.0, True, False, math.inf, np.float64(3.0), np.True_):
            with pytest.raises(ParameterError):
                bs.BoundParams(K1=k, K2=3, p=0.5, q=0.1)
            with pytest.raises(ParameterError):
                bs.BoundParams(K1=3, K2=k, p=0.5, q=0.1)
        bp = bs.BoundParams(K1=np.int64(2), K2=np.int32(3), p=0.5, q=0.1)
        assert bs.binom_diff_tail_exact(bp) == bs.binom_diff_tail_exact(
            bs.BoundParams(K1=2, K2=3, p=0.5, q=0.1))


class TestLemma2Bound:
    def test_vacuous_at_p_equal_q(self):
        assert bs.lemma2_bound(bs.BoundParams(K1=7, K2=7, p=0.3, q=0.3)) == 1.0

    def test_pure_lower_tail_at_k2_zero(self):
        bp = bs.BoundParams(K1=12, K2=0, p=0.25, q=0.7)
        assert bs.lemma2_bound(bp) == math.exp(-12 * 0.25)

    def test_frozen_exp_minus_five(self):
        bp = bs.BoundParams(K1=100, K2=100, p=0.2, q=0.05)
        assert bs.lemma2_bound(bp) == pytest.approx(math.exp(-5.0), rel=1e-15)

    def test_domain_error_outside_regime(self):
        with pytest.raises(DomainError):
            bs.lemma2_bound(bs.BoundParams(K1=5, K2=100, p=0.1, q=0.09))

    def test_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            K1 = int(rng.integers(0, 300))
            K2 = int(rng.integers(0, 300))
            p = float(rng.uniform(0.01, 1.0))
            q = float(rng.uniform(0.0, p))
            if K1 * p < K2 * q:
                continue
            v = bs.lemma2_bound(bs.BoundParams(K1=K1, K2=K2, p=p, q=q))
            assert 0.0 < v <= 1.0


class TestBinomDiffTailExact:
    def test_deterministic_variables(self):
        assert bs.binom_diff_tail_exact(bs.BoundParams(K1=1, K2=1, p=1.0, q=0.0)) == 0.0

    def test_four_outcome_enumeration(self):
        bp = bs.BoundParams(K1=1, K2=1, p=0.5, q=0.5)
        assert bs.binom_diff_tail_exact(bp) == pytest.approx(0.75, rel=1e-15)

    def test_frozen_value_and_oracle(self):
        bp = bs.BoundParams(K1=100, K2=100, p=0.2, q=0.05)
        mine = bs.binom_diff_tail_exact(bp)
        assert mine == pytest.approx(TAIL_100_100, rel=1e-13)
        assert mine == pytest.approx(scipy_tail_oracle(100, 100, 0.2, 0.05), rel=1e-12)
        assert mine <= bs.lemma2_bound(bp)

    def test_against_scipy_oracle(self):
        rng = np.random.default_rng(0)
        cases = [(int(rng.integers(0, 60)), int(rng.integers(0, 60)),
                  float(rng.uniform()), float(rng.uniform())) for _ in range(60)]
        # a rate of 0 or 1 puts log(0) against the zero count at k = 0 or k = K
        cases += [(K1, K2, p, q) for K1, K2 in ((0, 7), (9, 0), (12, 15))
                  for p in (0.0, 0.4, 1.0) for q in (0.0, 0.3, 1.0)]
        for K1, K2, p, q in cases:
            mine = bs.binom_diff_tail_exact(bs.BoundParams(K1=K1, K2=K2, p=p, q=q))
            assert mine == pytest.approx(
                scipy_tail_oracle(K1, K2, p, q), rel=1e-12, abs=1e-15)

    def test_oracle_mode_allows_p_below_q(self):
        bp = bs.BoundParams(K1=3, K2=5, p=0.1, q=0.9)
        v = bs.binom_diff_tail_exact(bp)
        assert v == pytest.approx(scipy_tail_oracle(3, 5, 0.1, 0.9), rel=1e-12)

    def test_numpy_float_rates(self):
        # BoundParams stores p and q as Python floats: float32 rates give the
        # bits of the Python floats of their values
        p, q = np.float32(0.2), np.float32(0.05)
        bp = bs.BoundParams(K1=100, K2=100, p=p, q=q)
        assert type(bp.p) is float and type(bp.q) is float
        got = bs.binom_diff_tail_exact(bp)
        want = bs.binom_diff_tail_exact(bs.BoundParams(K1=100, K2=100, p=float(p), q=float(q)))
        assert type(got) is float and got == want

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            bs.binom_diff_tail_exact(bs.BoundParams(K1=60000, K2=60001, p=0.5, q=0.4))

    def test_extreme_small_tail_stays_positive(self):
        # magnit­udes far below 1e-300 must not flush the sum to zero or NaN
        bp = bs.BoundParams(K1=2000, K2=0, p=0.5, q=0.0)
        v = bs.binom_diff_tail_exact(bp)
        assert v == pytest.approx(0.5 ** 2000, rel=1e-10)


class TestChernoffGridMin:
    def test_k2_zero_closed_form_limit(self):
        bp = bs.BoundParams(K1=50, K2=0, p=0.4, q=0.3)
        v = bs.chernoff_grid_min(bp)
        assert v == pytest.approx((1.0 - 0.4) ** 50, rel=1e-6)
        # K1 = 0: the X side adds nothing, even at p = 1, so the t = 0 bound
        # is the minimum
        for p in (0.4, 1.0):
            bp = bs.BoundParams(K1=0, K2=50, p=p, q=0.3)
            assert bs.chernoff_grid_min(bp) == 1.0

    def test_sandwich_on_reference_cell(self):
        bp = bs.BoundParams(K1=100, K2=100, p=0.2, q=0.05)
        exact = bs.binom_diff_tail_exact(bp)
        cher = bs.chernoff_grid_min(bp)
        bound = bs.lemma2_bound(bp)
        assert exact <= cher <= bound

    def test_boundary_cell_takes_trivial_bound(self):
        # K1 p = K2 q: every positive t bounds above 1, so the minimum is
        # the t = 0 trivial bound and matches the closed form exactly
        p = 4.0 * math.log(100) / 100
        bp = bs.BoundParams(K1=5, K2=20, p=p, q=p / 4.0)
        assert bp.K1 * bp.p == bp.K2 * bp.q
        assert bs.chernoff_grid_min(bp) == 1.0
        assert bs.lemma2_bound(bp) == 1.0
