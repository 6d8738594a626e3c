"""Threshold formulas, their identities, and the transition desk checks."""

import math

import numpy as np
import pytest

from rsphase.channel import mmse
from rsphase.potential import minimize
from rsphase.prior import entropy, two_point, two_point_entropy
from rsphase.thresholds import (
    ThresholdReport,
    delta_amp,
    delta_mmse,
    l_constant,
    r_amp,
    report,
    sparse_thresholds,
    transition_check,
)


class TestThresholdFormulas:
    def test_delta_mmse_unit_log(self):
        # ln(1 + snr) = 1 at snr = e - 1.
        assert delta_mmse(math.log(2.0), math.e - 1.0) == pytest.approx(
            2.0 * math.log(2.0), rel=1e-14)

    def test_delta_mmse_vanishes_at_large_snr(self):
        vals = [delta_mmse(math.log(2.0), s) for s in (1e2, 1e4, 1e6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.2

    def test_delta_amp_value(self):
        assert delta_amp(math.log(2.0), 1.0) == pytest.approx(
            4.0 * math.log(2.0), rel=1e-14)

    def test_delta_amp_large_snr_limit(self):
        h = 0.37
        assert delta_amp(h, 1e9) == pytest.approx(2.0 * h, rel=1e-8)

    def test_ratio_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = rng.uniform(0.01, 1.0)
            snr = 10 ** rng.uniform(-2, 4)
            assert abs(delta_amp(h, snr) / delta_mmse(h, snr) - r_amp(snr)) <= 1e-10
            assert delta_amp(h, snr) > delta_mmse(h, snr)

    def test_r_amp_range_and_limits(self):
        grid = np.geomspace(0.01, 1e4, 40)
        vals = [r_amp(s) for s in grid]
        assert all(v > 1.0 for v in vals)
        assert r_amp(1e-4) == pytest.approx(1.0, abs=1e-3)
        assert r_amp(1e6) > 10.0

    def test_domain_errors(self):
        for h, snr, name in ((0.0, 1.0, "entropy h"), (-1.0, 1.0, "entropy h"),
                             (math.inf, 5.0, "entropy h"), (0.5, 0.0, "snr"), (0.5, -2.0, "snr")):
            for fn in (delta_mmse, delta_amp):
                with pytest.raises(ValueError, match=name):
                    fn(h, snr)


class TestSparseThresholds:
    def test_direct_substitution(self):
        # k = p/2 and k/sigma2 = e - 1 gives ln(2) for the information side.
        p = 1000.0
        k = 500.0
        sigma2 = k / (math.e - 1.0)
        d_inf, _ = sparse_thresholds(k, p, sigma2)
        assert d_inf == pytest.approx(math.log(2.0), rel=1e-12)

    def test_vanishes_as_k_approaches_p(self):
        vals = [sparse_thresholds(k, 1000.0, 1.0) for k in (990.0, 999.0, 999.9)]
        assert all(a[0] > b[0] and a[1] > b[1] for a, b in zip(vals, vals[1:]))
        assert vals[-1][0] < 1e-3

    def test_agreement_with_exact_forms(self):
        # Criterion-11 configuration: eps = 1e-6, multiplicative factor 1.08.
        eps, p, sigma2 = 1e-6, 1e8, 5.0
        k = eps * p
        h = two_point_entropy(eps)
        snr = p * eps * (1 - eps) / sigma2
        d_inf_sparse, d_alg_sparse = sparse_thresholds(k, p, sigma2)
        ratio_inf = delta_mmse(h, snr) / d_inf_sparse
        ratio_alg = delta_amp(h, snr) / d_alg_sparse
        for ratio in (ratio_inf, ratio_alg):
            assert 1.0 / 1.08 <= ratio <= 1.08

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sparse_thresholds(0.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            sparse_thresholds(10.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            sparse_thresholds(1.0, 10.0, 0.0)
        with pytest.raises(ValueError, match="p finite"):
            sparse_thresholds(1.0, math.inf, 1.0)
        with pytest.raises(ValueError, match="sigma2"):
            sparse_thresholds(1.0, 10.0, math.inf)


class TestLConstant:
    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
    def test_within_entropy(self, eps):
        prior = two_point(eps)
        val = l_constant(prior)
        assert 0.0 <= val <= entropy(prior)


class TestTransitionCheck:
    def test_domain_errors(self):
        with pytest.raises(ValueError):
            transition_check(0.1, 5.0, 1.0, "mmse")
        with pytest.raises(ValueError):
            transition_check(0.1, 5.0, 0.5, "map")
        with pytest.raises(ValueError):
            transition_check(0.0, 5.0, 0.5, "mmse")

    @pytest.mark.parametrize("kind", ["amp", "mmse"])
    def test_non_finite_snr_is_named(self, kind):
        # The error names snr, not the delta derived from it.
        for snr in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^snr must be positive and finite"):
                r_amp(snr)
            with pytest.raises(ValueError, match="^snr must be positive and finite"):
                transition_check(0.1, snr, 2.0, kind)

    def test_moderate_epsilon_sides(self):
        # Far from the asymptotic regime the checks still land on the correct
        # side of one half.
        assert transition_check(0.01, 5.0, 0.3, "mmse") > 0.5
        assert transition_check(0.01, 5.0, 3.0, "mmse") < 0.5

    def test_gap_window_at_finite_epsilon(self):
        # Inside the computational gap the optimal error is essentially zero
        # while the smallest stationary point still carries an order-one MMSE.
        # At eps = 1e-8 the coexistence window spans r in (1.00123, 1.2785):
        # M at the lower-potential basin first drops to 0.05 at r = 1.00123
        # and M(s_amp) falls through 0.5 at r = 1.2785 (bisection on r).
        eps, snr, r = 1e-8, 5.0, 1.1
        h = two_point_entropy(eps)
        prior = two_point(eps)
        land = minimize(r * delta_mmse(h, snr), snr, prior)
        assert mmse(prior, land.s_lower_star) <= 0.05
        assert mmse(prior, land.s_amp) >= 0.90

    @pytest.mark.parametrize("eps", [1e-9, 1e-10, 1e-11, 1e-12])
    def test_lower_potential_basin_below_tie_tolerance(self, eps):
        # Here the two basins differ in F by about |r - 1| H, which is less
        # than minimize's tie tolerance; the check must still take the basin
        # with the lower F: no recovery below the threshold, recovery above.
        assert transition_check(eps, 5.0, 0.9, "mmse") >= 0.95
        assert transition_check(eps, 5.0, 1.1, "mmse") <= 0.05

    def test_tiny_epsilon_routes_through_surrogate(self):
        val = transition_check(1e-16, 5.0, 0.5, "mmse")
        assert val >= 0.99
        val2 = transition_check(1e-16, 5.0, 2.0, "mmse")
        assert val2 <= 1e-3

    @pytest.mark.parametrize("snr", [1e-17, 1e-16, 1.2e-16, 2e-16, 3e-16, 5e-16, 1e-15])
    @pytest.mark.parametrize("eps", [0.5, 0.1, 1e-4])
    def test_tiny_snr_kinds_agree(self, eps, snr):
        # As snr -> 0 the admissible interval [delta*snr/(1+snr), delta*snr]
        # shrinks onto s = 2rH for both kinds, so both read the same M.
        assert transition_check(eps, snr, 2.0, "amp") == pytest.approx(
            transition_check(eps, snr, 2.0, "mmse"), rel=1e-8)


class TestReport:
    def test_direct_snr(self):
        rep = report(0.1, 10.0)
        assert isinstance(rep, ThresholdReport)
        assert rep.h == pytest.approx(0.3250829733914482, abs=1e-12)
        assert rep.delta_amp / rep.delta_mmse == pytest.approx(rep.r_amp, abs=1e-10)
        assert rep.sparse_simplifications is None
        d = rep.as_dict()
        assert set(d) == {"h", "snr", "delta_mmse", "delta_amp", "r_amp",
                          "l_constant"}

    def test_from_dimension_and_noise(self):
        rep = report(0.1, p=1000, sigma2=9.0)
        assert rep.snr == pytest.approx(10.0, rel=1e-12)
        assert rep.sparse_simplifications is not None
        d = rep.as_dict()
        assert "delta_mmse_sparse" in d and "delta_amp_sparse" in d

    def test_requires_some_snr_information(self):
        with pytest.raises(ValueError):
            report(0.1)
