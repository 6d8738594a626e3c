"""Potential evaluation, minimizer search, and the normalized/limit curves.

Brute-force grid scans and finite differences serve as the independent
oracles for the optimizer and the exact-derivative formula.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from rsphase import channel
from rsphase.channel import QUAD_TOL, mmse, mmse_curve, mutual_info, mutual_info_curve
from rsphase.potential import (
    SCAN_POINTS,
    BracketError,
    amp_threshold_ratio,
    limit_minimizers,
    limit_potential,
    minimize,
    normalized_argmin,
    normalized_curve,
    normalized_potential,
    normalized_smallest_stationary,
    potential,
    potential_deriv,
    smallest_stationary,
    stationary_bracket,
)
from rsphase.prior import DiscretePrior, entropy, two_point, two_point_entropy
from rsphase.thresholds import delta_amp, delta_mmse, l_constant

RADEMACHER = two_point(0.5)
TERNARY = DiscretePrior((-math.sqrt(10.0), 0.0, math.sqrt(10.0)), (0.05, 0.9, 0.05))


def _standardized_prior(rng, k):
    atoms = np.sort(rng.uniform(-3.0, 3.0, k))
    weights = rng.uniform(0.05, 1.0, k)
    weights /= weights.sum()
    mean = weights @ atoms
    std = math.sqrt(weights @ (atoms - mean) ** 2)
    return DiscretePrior(tuple((atoms - mean) / std), tuple(weights))


def _at_amp(eps, r, snr=5.0):
    return two_point(eps), r * delta_amp(two_point_entropy(eps), snr), snr


def _at_it(eps, r, snr=5.0):
    return two_point(eps), r * delta_mmse(two_point_entropy(eps), snr), snr


# (prior, delta, snr) cases whose smallest stationary point must match a full scan.
# delta_ALG(1e-2) / delta_amp = 0.49885 lies between r = 0.49 and 0.51.
SCAN_CASES = {
    "eps0.1": _at_it(0.1, 1.1),
    "eps1e-4": _at_it(1e-4, 1.1),
    "eps1e-8": _at_it(1e-8, 1.1),
    "ternary": (TERNARY, 0.8, 5.0),
    **{f"eps1e-2-amp{r}": _at_amp(1e-2, r) for r in (0.49, 0.5, 0.51)},
    "eps1e-4-amp2": _at_amp(1e-4, 2.0),
    "eps1e-16-it1.5": _at_it(1e-16, 1.5),
    "eps1e-50-it1.5": _at_it(1e-50, 1.5),
    "eps0.1-snr1e-12": _at_it(0.1, 1.1, 1e-12),
    "eps0.1-snr1e8": _at_it(0.1, 1.1, 1e8),
    "random5": (_standardized_prior(np.random.default_rng(5), 5), 0.7, 5.0),
    # The amp workload: eps 0.1, snr 10, delta above delta_amp and below delta_IT.
    "amp-0.86": (two_point(0.1), 0.86, 10.0),
    "amp-0.2": (two_point(0.1), 0.2, 10.0),
}


def brute_force_argmin(prior, delta, snr, points=10**6, nodes=121):
    """Dense log-grid scan of the potential; the optimizer's oracle."""
    lo, hi = stationary_bracket(delta, snr)
    grid = np.geomspace(lo * (1 - 1e-3), hi * (1 + 1e-3), points)
    i_vals = mutual_info_curve(prior, grid, nodes=nodes)
    x = grid / (delta * snr)
    f_vals = i_vals + 0.5 * delta * (x - np.log(x) - 1.0)
    return float(grid[np.argmin(f_vals)])


class TestPotentialValue:
    def test_zero_penalty_at_delta_snr(self):
        val = potential(1.0, 1.0, RADEMACHER, 1.0)
        assert val == pytest.approx(mutual_info(RADEMACHER, 1.0), abs=1e-12)

    def test_blows_up_near_zero(self):
        assert potential(1.0, 1.0, RADEMACHER, 1e-12) > 10.0

    def test_deriv_grid_call_matches_scalar_calls(self):
        prior = two_point(1e-4)
        delta = 1.1 * delta_mmse(two_point_entropy(1e-4), 5.0)
        grid = np.geomspace(0.3 * delta, 5.0 * delta, 50)
        on_grid = potential_deriv(delta, 5.0, prior, grid)
        one_by_one = [potential_deriv(delta, 5.0, prior, s) for s in grid]
        assert isinstance(on_grid, np.ndarray) and on_grid.shape == grid.shape
        assert all(type(v) is float for v in one_by_one)
        assert np.max(np.abs(on_grid - one_by_one)) <= QUAD_TOL

    def test_domain_error_nonpositive(self):
        with pytest.raises(ValueError):
            potential(1.0, 1.0, RADEMACHER, 0.0)
        with pytest.raises(ValueError):
            potential(1.0, 1.0, RADEMACHER, -0.5)
        with pytest.raises(ValueError):
            potential(0.0, 1.0, RADEMACHER, 1.0)
        with pytest.raises(ValueError):
            potential(1.0, 0.0, RADEMACHER, 1.0)

    def test_composition(self):
        s, delta, snr = 0.5, 1.0, 1.0
        x = s / (delta * snr)
        expected = mutual_info(RADEMACHER, s) + 0.5 * delta * (x - math.log(x) - 1.0)
        assert potential(delta, snr, RADEMACHER, s) == pytest.approx(expected, abs=1e-12)


class TestPotentialDerivative:
    def test_positive_above_bracket(self):
        for s in (1.0, 1.5, 4.0):
            assert potential_deriv(1.0, 1.0, RADEMACHER, s) > 0.0

    def test_negative_below_bracket(self):
        for s in (0.05, 0.2, 0.5):
            assert potential_deriv(1.0, 1.0, RADEMACHER, s) < 0.0

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(42)
        lo, hi = stationary_bracket(1.2, 2.0)
        for s in rng.uniform(lo, hi, size=5):
            h = 1e-4 * s
            fd = (potential(1.2, 2.0, RADEMACHER, s + h)
                  - potential(1.2, 2.0, RADEMACHER, s - h)) / (2 * h)
            assert abs(fd - potential_deriv(1.2, 2.0, RADEMACHER, s)) <= 1e-5

    @pytest.mark.parametrize("snr", [5.0, 1e-6, 1e-12, 1e-14])
    def test_is_residual_over_2s_at_root_bracket(self, snr):
        # F' is the stationary residual over 2s, so at the two scan points that
        # bracket smallest_stationary's root it carries the residual's sign and
        # value, also at tiny snr, where M + 1/snr - delta/s cancels to a few
        # ulps of 1/snr: 1e-6 relative at snr 1e-6, 25% at 1e-12, and F' = 0
        # at the upper point at 1e-14.
        prior = two_point(0.1)
        delta = 1.1 * delta_mmse(two_point_entropy(0.1), snr)
        lo, hi = stationary_bracket(delta, snr)
        grid = np.geomspace(lo, hi, SCAN_POINTS)
        k = int(np.searchsorted(grid, smallest_stationary(delta, snr, prior)))
        pair = grid[k - 1:k + 1]
        residual = pair * mmse_curve(prior, pair) - (delta * snr - pair) / snr
        assert residual[0] < 0.0 <= residual[1]
        deriv = potential_deriv(delta, snr, prior, pair)
        assert np.array_equal(np.sign(deriv), np.sign(residual))
        np.testing.assert_allclose(deriv, residual / (2.0 * pair), rtol=1e-9)


class TestMinimize:
    def test_rademacher_against_brute_force(self):
        land = minimize(1.0, 1.0, RADEMACHER)
        s_oracle = brute_force_argmin(RADEMACHER, 1.0, 1.0)
        assert abs(s_oracle - land.s_lower_star) <= 1e-4 * s_oracle
        lo, hi = land.bracket
        assert lo < land.s_lower_star <= land.s_upper_star < hi

    def test_minimizers_attain_f_star(self):
        for delta, snr, eps in ((1.0, 1.0, 0.5), (0.4, 5.0, 0.1), (0.08, 3.0, 0.01)):
            prior = two_point(eps)
            land = minimize(delta, snr, prior)
            f_lo = potential(delta, snr, prior, land.s_lower_star)
            f_hi = potential(delta, snr, prior, land.s_upper_star)
            tol = 1e-8 * (1.0 + abs(land.f_star))
            assert abs(f_lo - land.f_star) <= tol
            assert abs(f_hi - land.f_star) <= tol

    def test_small_epsilon_dichotomy(self):
        # Below the information threshold the largest minimizer stays under
        # 2H; above it the smallest minimizer moves past 2H.
        eps, snr = 1e-4, 5.0
        prior = two_point(eps)
        h = entropy(prior)
        d_inf = delta_mmse(h, snr)
        low = minimize(0.5 * d_inf, snr, prior)
        high = minimize(2.0 * d_inf, snr, prior)
        assert low.s_upper_star < 2.0 * h
        assert high.s_lower_star > 2.0 * h
        assert brute_force_argmin(prior, 0.5 * d_inf, snr, points=10**5) < 2.0 * h
        assert brute_force_argmin(prior, 2.0 * d_inf, snr, points=10**5) > 2.0 * h

    def test_agrees_with_brute_force_on_random_configs(self):
        rng = np.random.default_rng(12345)
        for _ in range(25):
            eps = 10 ** rng.uniform(math.log10(0.05), math.log10(0.5))
            snr = 10 ** rng.uniform(math.log10(0.3), math.log10(8.0))
            r = 10 ** rng.uniform(math.log10(0.5), math.log10(2.0))
            prior = two_point(eps)
            delta = r * delta_mmse(entropy(prior), snr)
            land = minimize(delta, snr, prior)
            s_oracle = brute_force_argmin(prior, delta, snr)
            best = min(abs(s_oracle - land.s_lower_star),
                       abs(s_oracle - land.s_upper_star))
            assert best <= 1e-4 * s_oracle


class TestSmallestStationary:
    def test_inside_bracket(self):
        s_amp = smallest_stationary(1.0, 1.0, RADEMACHER)
        lo, hi = stationary_bracket(1.0, 1.0)
        assert lo < s_amp < hi

    def test_sign_scan_oracle(self):
        # First sign change of the derivative on a dense grid.
        lo, hi = stationary_bracket(1.0, 1.0)
        grid = np.geomspace(lo, hi, 10**6)
        m = mmse_curve(RADEMACHER, grid, nodes=121)
        deriv = 0.5 * (m + 1.0 - 1.0 / grid)
        k = int(np.flatnonzero(deriv >= 0)[0])
        s_amp = smallest_stationary(1.0, 1.0, RADEMACHER)
        assert abs(grid[k] - s_amp) <= 1e-4 * s_amp

    @pytest.mark.parametrize("prior, delta, snr", SCAN_CASES.values(), ids=SCAN_CASES.keys())
    def test_early_stop_matches_full_scan(self, prior, delta, snr):
        # The scan skips points and stops at the first block with a crossing; a
        # full scan's first crossing, refined the same way, must give the same
        # root bit for bit.
        lo, hi = stationary_bracket(delta, snr)
        grid = np.geomspace(lo, hi, SCAN_POINTS)
        m_vals, _ = channel.mmse_eval_curve(prior, grid)
        k = int(np.flatnonzero(grid * m_vals - (delta * snr - grid) / snr >= 0.0)[0])

        def residual(s):
            return s * channel.mmse_eval(prior, s)[0] - (delta * snr - s) / snr

        root = brentq(residual, grid[k - 1], grid[k], xtol=lo * 1e-14, rtol=1e-12)
        assert smallest_stationary(delta, snr, prior) == root

    def test_scan_skips_the_high_branch(self, monkeypatch):
        # Above the algorithmic threshold the first crossing sits near delta*snr;
        # the scan reaches it in a few state-evolution steps, not point by point.
        seen = []
        curve = channel.mmse_eval_curve

        def counting(prior, s_values):
            seen.append(len(s_values))
            return curve(prior, s_values)

        monkeypatch.setattr(channel, "mmse_eval_curve", counting)
        eps, snr = 1e-4, 5.0
        smallest_stationary(2.0 * delta_amp(two_point_entropy(eps), snr), snr, two_point(eps))
        assert sum(seen) <= SCAN_POINTS // 10

    @pytest.mark.parametrize("prior", [RADEMACHER, two_point(0.1), two_point(1e-16)],
                             ids=["rademacher", "eps0.1", "eps1e-16"])
    def test_unresolvable_delta_snr_is_named(self, prior):
        # 1 - M(s) ~ s rounds to 0 at the lower end of the interval.
        with pytest.raises(BracketError, match=r"delta\*snr = 5e-300 .* 1 - M\(s\) rounds to 0"):
            smallest_stationary(1e-300, 5.0, prior)

    @pytest.mark.parametrize("delta, snr", [(1e-300, 1e-300), (1.0, 1e-320)])
    def test_subnormal_delta_snr_is_rejected(self, delta, snr):
        # The product rounds to 0 or is subnormal, so the interval's ends are not
        # resolved; every search names the product instead of returning a value.
        prior = two_point(0.1)
        for call in (lambda: smallest_stationary(delta, snr, prior),
                     lambda: minimize(delta, snr, prior),
                     lambda: potential_deriv(delta, snr, prior, 1e-310)):
            with pytest.raises(ValueError, match=r"^delta\*snr = .* smallest normal double"):
                call()

    def test_fixed_point_residual(self):
        for delta, snr, eps in ((1.0, 1.0, 0.5), (0.5, 8.0, 0.05)):
            prior = two_point(eps)
            s_amp = smallest_stationary(delta, snr, prior)
            resid = s_amp * (mmse(prior, s_amp) + 1.0 / snr) - delta
            assert abs(resid) <= 1e-8 * delta

    def test_precedes_smallest_minimizer(self):
        for delta, snr, eps in ((1.0, 1.0, 0.5), (0.4, 5.0, 0.1)):
            prior = two_point(eps)
            land = minimize(delta, snr, prior)
            # Value-based minimization cannot localize beyond ~sqrt(eps)
            # relative, which sets the comparison slack.
            assert land.s_amp <= land.s_lower_star * (1.0 + 1e-7)


class TestAppendixBounds:
    """Sandwich conditions that corner the minimizers via the entropy scale."""

    def test_minimizer_pushed_right(self):
        # t >= 2H and delta above (t + 2L)/log(1+snr) forces s_lower* > t.
        rng = np.random.default_rng(7)
        for _ in range(8):
            eps = 10 ** rng.uniform(math.log10(0.02), math.log10(0.4))
            snr = 10 ** rng.uniform(math.log10(0.5), math.log10(20.0))
            prior = two_point(eps)
            h, big_l = entropy(prior), l_constant(prior)
            t = 2.0 * h * rng.uniform(1.0, 2.5)
            delta = 1.2 * (t + 2.0 * big_l) / math.log1p(snr)
            land = minimize(delta, snr, prior)
            assert land.s_lower_star > t

    def test_minimizer_pushed_left(self):
        # t <= 2H and delta below (t - 2L)/log(1+snr) forces s_upper* < t.
        rng = np.random.default_rng(8)
        for _ in range(8):
            eps = 10 ** rng.uniform(math.log10(0.02), math.log10(0.4))
            snr = 10 ** rng.uniform(math.log10(0.5), math.log10(20.0))
            prior = two_point(eps)
            h, big_l = entropy(prior), l_constant(prior)
            t = 2.0 * h * rng.uniform(0.85, 1.0)
            if t <= 2.0 * big_l:
                continue
            delta = 0.8 * (t - 2.0 * big_l) / math.log1p(snr)
            land = minimize(delta, snr, prior)
            assert land.s_upper_star < t

    def test_stationary_point_vs_fixed_point_sup(self):
        # delta below/above the sup of s(M(s)+1/snr) on (0, t] puts the
        # smallest stationary point below/above t.
        rng = np.random.default_rng(9)
        for _ in range(8):
            eps = 10 ** rng.uniform(math.log10(0.02), math.log10(0.4))
            snr = 10 ** rng.uniform(math.log10(0.5), math.log10(20.0))
            prior = two_point(eps)
            t = 2.0 * entropy(prior)
            grid = np.geomspace(t * 1e-4, t, 3000)
            sup = float(np.max(grid * (mmse_curve(prior, grid) + 1.0 / snr)))
            below = smallest_stationary(0.9 * sup, snr, prior)
            assert below < t
            above = smallest_stationary(1.1 * sup, snr, prior)
            assert above > t


class TestNormalizedPotential:
    def test_substitution_identity(self):
        eps, r, snr = 1e-3, 0.7, 5.0
        h = two_point_entropy(eps)
        c = math.log1p(snr)
        prior = two_point(eps)
        for t in (0.3, 1.0, 2.2):
            x = t * c / (r * snr)
            expected = (mutual_info(prior, 2 * h * t) / h
                        + (r / c) * (x - math.log(x) - 1.0))
            assert normalized_potential(eps, r, snr, t) == pytest.approx(expected,
                                                                         rel=1e-9)

    def test_limit_value_at_t_one(self):
        r, snr = 0.5, 5.0
        c = math.log1p(snr)
        x = c / (r * snr)
        expected = 1.0 + (r / c) * (x - math.log(x) - 1.0)
        assert limit_potential(r, snr, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_convergence_to_limit(self):
        # The sup gap over t in [0.05, 3] shrinks as epsilon drops; at 1e-6 it
        # is near 0.155 (frozen from the quadrature itself), clearly not yet
        # 0.1, and crosses below 0.1 only around 1e-16.
        r, snr = 0.5, 5.0
        t = np.linspace(0.05, 3.0, 300)
        lim = limit_potential(r, snr, t)
        gaps = []
        for eps in (1e-4, 1e-6, 1e-8, 1e-16):
            cur = normalized_curve(eps, r, snr, t)
            gaps.append(float(np.max(np.abs(cur - lim))))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[1] == pytest.approx(0.155, abs=0.01)
        assert gaps[-1] <= 0.1


class TestLimitMinimizers:
    def test_branch_values(self):
        # 2.5/(6 ln 6) and 10/ln 6, evaluated independently.
        t_star, t_alg = limit_minimizers(0.5, 5.0)
        assert t_star == pytest.approx(0.2325460944, abs=1e-9)
        assert t_alg == pytest.approx(t_star)
        t_star2, _ = limit_minimizers(2.0, 5.0)
        assert t_star2 == pytest.approx(5.5811062655, abs=1e-9)

    def test_threshold_ratio_value(self):
        assert amp_threshold_ratio(5.0) == pytest.approx(2.1501113631, abs=1e-9)

    def test_dichotomies(self):
        snr = 5.0
        r_alg = amp_threshold_ratio(snr)
        for r in (0.3, 0.9):
            t_star, t_alg = limit_minimizers(r, snr)
            assert t_star < 1.0 and t_alg < 1.0
        for r in (1.1, 2.0):
            t_star, _ = limit_minimizers(r, snr)
            assert t_star > 1.0
        assert limit_minimizers(0.99 * r_alg, snr)[1] < 1.0
        assert limit_minimizers(1.01 * r_alg, snr)[1] > 1.0

    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0])
    def test_limit_and_normalized_curves_check_t_alike(self, t):
        # One t rule for both curves: no NaN comes back for a NaN or infinite t.
        with pytest.raises(ValueError, match="^t values must be positive and finite"):
            limit_potential(0.5, 5.0, t)
        with pytest.raises(ValueError, match="^t values must be positive and finite"):
            normalized_curve(0.1, 0.5, 5.0, [1.0, t])

    def test_boundary_domain_errors(self):
        with pytest.raises(ValueError):
            limit_minimizers(1.0, 5.0)
        with pytest.raises(ValueError):
            limit_minimizers(amp_threshold_ratio(5.0), 5.0)

    def test_numeric_stationary_oracle(self):
        # Derivative sign scan of the limit curve agrees with the branch formula.
        snr = 5.0
        for r in (2.0, 2.3):
            _, t_alg = limit_minimizers(r, snr)
            grid = np.linspace(1e-3, 12.0, 400001)
            vals = limit_potential(r, snr, grid)
            diffs = np.diff(vals)
            idx = np.flatnonzero((diffs[:-1] < 0) & (diffs[1:] >= 0))
            assert idx.size > 0
            assert abs(grid[idx[0] + 1] - t_alg) <= 2e-3 * t_alg


class TestNormalizedSearch:
    def test_argmin_matches_s_space_search(self):
        eps, r, snr = 1e-4, 0.8, 5.0
        prior = two_point(eps)
        h = entropy(prior)
        delta = r * delta_mmse(h, snr)
        land = minimize(delta, snr, prior)
        t_hat = normalized_argmin(eps, r, snr)
        assert t_hat == pytest.approx(land.s_lower_star / (2 * h), rel=1e-6)

    def test_approx_mode_argmin(self):
        assert normalized_argmin(1e-16, 0.9, 5.0) < 1.0
        assert normalized_argmin(1e-16, 1.1, 5.0) > 1.0

    def test_approx_mode_stationary(self):
        t_low = normalized_smallest_stationary(1e-16, 0.5, 5.0)
        assert 0.0 < t_low < 1.0
        t_high = normalized_smallest_stationary(1e-16, 4.0, 5.0)
        assert t_high > 1.0

    def test_approx_mode_stationary_is_rescaled_s_space_root(self):
        eps, snr = 1e-16, 5.0
        h = two_point_entropy(eps)
        for r in (0.5, 4.0):
            delta = 2.0 * r * h / math.log1p(snr)
            s_amp = smallest_stationary(delta, snr, two_point(eps))
            assert normalized_smallest_stationary(eps, r, snr) == s_amp / (2.0 * h)

    def test_bracket_error_guard(self, monkeypatch):
        # A residual that starts nonnegative is impossible for a true MMSE
        # curve (it needs M(s) = 1 at positive s); fake one to hit the guard.
        from rsphase import channel as ch

        monkeypatch.setattr(ch, "mmse_eval_curve",
                            lambda prior, s, tol=None: (np.ones(len(s)), "quadrature"))
        with pytest.raises(BracketError):
            smallest_stationary(1.0, 1.0, RADEMACHER)
