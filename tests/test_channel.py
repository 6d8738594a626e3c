"""Scalar-channel quantities: denoiser, MMSE, mutual information, surrogate.

Monte Carlo oracles are seeded and compared at 3 standard errors; integral
oracles use scipy.integrate.quad against the quadrature path under test.
"""

import functools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

pytest.importorskip("scipy")

from scipy.integrate import quad
from scipy.special import logsumexp, xlogy

import rsphase
from rsphase import _numerics, channel
from rsphase.amp import mc_mmse, mc_mmse_two_point
from rsphase.channel import (
    QuadratureError,
    channel_curve,
    denoise,
    mmse,
    mmse_curve,
    mmse_eval,
    mmse_q_approx,
    mutual_info,
    mutual_info_curve,
    mutual_info_eval,
    mutual_info_q_approx,
)
from rsphase.potential import (
    normalized_curve,
    normalized_potential,
    normalized_smallest_stationary,
    potential,
)
from rsphase.prior import DiscretePrior, entropy, two_point, two_point_entropy, two_point_epsilon
from rsphase.thresholds import l_constant

THREE_ATOM = DiscretePrior(
    atoms=(-math.sqrt(1.5), 0.0, math.sqrt(1.5)),
    weights=(1 / 3, 1 / 3, 1 / 3),
)


class TestDenoise:
    def test_uninformative_limit(self):
        mean, var = denoise(two_point(0.2), 0.7, 1e12)
        assert mean == pytest.approx(0.0, abs=1e-6)
        assert var == pytest.approx(1.0, abs=1e-6)

    def test_symmetry_at_zero(self):
        mean, _ = denoise(two_point(0.5), 0.0, 0.37)
        assert mean == pytest.approx(0.0, abs=1e-15)

    def test_dominant_atom(self):
        mean, var = denoise(two_point(0.1), 3.0, 0.01)
        assert abs(mean - 3.0) <= 1e-6
        assert var <= 1e-5

    def test_vectorized_matches_scalar(self):
        r = np.array([-2.0, 0.0, 0.5, 3.0])
        mean_vec, var_vec = denoise(two_point(0.1), r, 0.5)
        for k, rk in enumerate(r):
            m, v = denoise(two_point(0.1), float(rk), 0.5)
            assert mean_vec[k] == pytest.approx(m)
            assert var_vec[k] == pytest.approx(v)

    def test_bad_tau2(self):
        with pytest.raises(ValueError):
            denoise(two_point(0.1), 0.0, 0.0)


class TestMmse:
    def test_zero_snr_is_prior_variance(self):
        assert mmse(two_point(0.5), 0.0) == 1.0
        assert mmse(THREE_ATOM, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_oracle_rademacher(self):
        est, se = mc_mmse_two_point(0.5, 1.0, 10**7, seed=11)
        assert abs(mmse(two_point(0.5), 1.0) - est) <= 3 * se

    def test_monte_carlo_oracle_sparse(self):
        est, se = mc_mmse_two_point(0.1, 10.0, 10**7, seed=12)
        assert abs(mmse(two_point(0.1), 10.0) - est) <= 3 * se + 1e-12

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            mmse(two_point(0.1), -1.0)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        # A grid, not one point: a single s can land on the same double at two
        # rungs, which meets any tolerance.
        monkeypatch.setattr(channel, "QUAD_TOL", 1e-30)
        with pytest.raises(QuadratureError):
            mmse_curve(THREE_ATOM, np.geomspace(0.5, 2.0, 16))

    def test_monotone_and_bounded(self):
        grid = np.geomspace(1e-3, 40, 60)
        for prior in (two_point(0.5), two_point(0.02), THREE_ATOM):
            m = mmse_curve(prior, grid)
            assert np.all(np.diff(m) <= 1e-12)
            assert np.all(m <= 1.0 / (1.0 + grid) + 1e-9)
            assert np.all(m >= -1e-12)


NEGATIVE_SPIKE = DiscretePrior(atoms=(-math.sqrt(0.99 / 0.01), math.sqrt(0.01 / 0.99)),
                               weights=(0.01, 0.99))
# Spike at -3 with weight 0.1: M falls to ~1e-31 by s = 50.
DEEP_NEGATIVE_SPIKE = DiscretePrior(atoms=(-3.0, 1.0 / 3.0), weights=(0.1, 0.9))
# The benchmark's ternary prior.
TERNARY = DiscretePrior(atoms=(-math.sqrt(10.0), 0.0, math.sqrt(10.0)),
                        weights=(0.05, 0.9, 0.05))


def _standardized(atoms, weights):
    a, w = np.asarray(atoms, dtype=float), np.asarray(weights, dtype=float)
    a = a - w @ a
    a = a / math.sqrt(w @ (a * a))
    return DiscretePrior(atoms=tuple(a), weights=tuple(w))


FIVE_ATOM = _standardized((-2.0, -0.5, 0.3, 1.0, 3.5), (0.1, 0.3, 0.3, 0.2, 0.1))


def _closed_form_mmse(eps, s):
    """quad of the expectation mc_mmse_two_point samples, split at its step."""
    scale = eps * (1.0 - eps)
    b = math.sqrt(s / scale)
    c = math.log(eps) + s / (2.0 * scale)

    def f(z):
        return math.exp(-0.5 * z * z - np.logaddexp(math.log1p(-eps), c + b * z)) \
            / math.sqrt(2.0 * math.pi)

    z_step = -c / b
    return sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
               for lo, hi in ((z_step - 12.0, z_step), (z_step, z_step + 12.0)))


def _two_point_per_atom(prior, s_arr):
    """The exact two-point M one atom at a time, all points in one block: the
    log-odds, the step, one remainder pass per atom, and 241-node Gauss-Hermite
    where B < 2."""
    lw = prior.log_weight_array
    d = prior.atoms[1] - prior.atoms[0]
    with np.errstate(over="ignore"):
        b = np.sqrt(s_arr) * d
        c = (lw[::-1] - lw)[:, None] - 0.5 * s_arr * d * d
    out = np.empty_like(s_arr)
    small = b < 2.0
    if small.any():
        out[small] = channel._mmse_nodes(prior, s_arr[small], 241)
    b, c = b[~small], c[:, ~small]
    lwd = lw + math.log(d * d)
    step = np.exp(lwd) @ (0.5 * _numerics.erfc((c / b) * -math.sqrt(0.5)))
    u, wr = channel._remainder_rule()
    total = np.zeros_like(b)
    for lw_j, c_j in zip(lwd, c):
        x = np.subtract(u, c_j[:, None])
        x /= b[:, None]
        x *= x
        x *= -0.5
        x += lw_j
        total += np.exp(x) @ wr
    out[~small] = step + total / b
    return out


class TestTwoPointExact:
    """Two-atom M is a closed-form step plus a fixed-rule remainder, no ladder."""

    @pytest.mark.parametrize("prior", [two_point(e) for e in
                                       (0.3, 0.1, 1e-2, 1e-4, 1e-6, 1e-8, 1e-11)]
                             + [NEGATIVE_SPIKE],
                             ids=["0.3", "0.1", "1e-2", "1e-4", "1e-6", "1e-8", "1e-11",
                                  "negative-spike"])
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 31, 32, 33, 71, 72, 73])
    def test_bitwise_equal_to_per_atom_reference(self, prior, size):
        # Both atoms share one remainder pass in _rows blocks of 68 points; the
        # values must be the bits of one atom at a time on one block.  B runs
        # from 0.5 to 40 up and down, so every size has points on both sides of
        # B = 2 (size 1 in turn) and 71 to 73 points span two blocks.
        d = prior.atoms[1] - prior.atoms[0]
        for b in (np.geomspace(0.5, 40.0, size), np.geomspace(40.0, 0.5, size)):
            s_arr = (b / d) ** 2
            assert np.array_equal(channel._mmse_two_point(prior, s_arr),
                                  _two_point_per_atom(prior, s_arr))

    @pytest.mark.parametrize("prior", [two_point(e) for e in
                                       (0.3, 0.1, 1e-2, 1e-4, 1e-6, 1e-8, 1e-11)]
                             + [NEGATIVE_SPIKE],
                             ids=["0.3", "0.1", "1e-2", "1e-4", "1e-6", "1e-8", "1e-11",
                                  "negative-spike"])
    def test_matches_1921_node_gauss_hermite(self, prior):
        h = entropy(prior)
        for s in (2 * h * np.geomspace(1e-3, 20, 401), np.geomspace(1e-6, 50, 401)):
            np.testing.assert_allclose(mmse_curve(prior, s),
                                       mmse_curve(prior, s, nodes=1921), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("eps, r", [(1e-16, 1.1), (1e-22, 1.5), (1e-30, 1.5), (1e-50, 1.5)])
    def test_monte_carlo_at_tiny_epsilon(self, eps, r):
        s = 2 * two_point_entropy(eps) * normalized_smallest_stationary(eps, r, 5.0)
        est, se = mc_mmse_two_point(eps, s, 10**7, seed=0)
        assert abs(mmse_curve(two_point(eps), [s])[0] - est) <= 3 * se

    def test_rare_event_value_matches_quad(self):
        # At eps 1e-16, r 1.5 the stationary point lies past the step, where
        # M ~ 5.5e-12 comes from noise draws too rare for Monte Carlo to see.
        eps = 1e-16
        s = 2 * two_point_entropy(eps) * normalized_smallest_stationary(eps, 1.5, 5.0)
        value = mmse_curve(two_point(eps), [s])[0]
        assert 1e-13 < value < 1e-10
        assert value == pytest.approx(_closed_form_mmse(eps, s), rel=1e-9)

    # Past the step, where M is 8e-159, 1e-104 and 5e-206: the exact path keeps
    # its relative digits.  _closed_form_mmse's +-12 window around the step misses
    # Gaussian mass at small t, so the points stay past the step.
    @pytest.mark.parametrize("eps, t", [(1e-16, 40.0), (1e-50, 10.0), (1e-100, 10.0)])
    def test_deep_tail_matches_quad(self, eps, t):
        s = 2 * two_point_entropy(eps) * t
        assert mmse_curve(two_point(eps), [s])[0] == pytest.approx(_closed_form_mmse(eps, s),
                                                                   rel=1e-11)

    def test_remainder_rule_is_leggauss(self):
        # The rule's Gauss-Legendre nodes and weights are literals; the
        # leggauss(12) construction is the oracle, bit for bit.
        x, w = np.polynomial.legendre.leggauss(12)
        assert np.array_equal(x[6:], channel._GL_NODES)
        assert np.array_equal(w[6:], channel._GL_WEIGHTS)
        edges = np.asarray(channel._PANEL_EDGES)
        lo, hi = edges[:-1, None], edges[1:, None]
        t = (0.5 * (lo + hi) + 0.5 * (hi - lo) * x).ravel()
        wt = (0.5 * (hi - lo) * w).ravel() / math.sqrt(2.0 * math.pi)
        sig = np.exp(-t) / (1.0 + np.exp(-t))
        u, wr = channel._remainder_rule()
        assert np.array_equal(u, np.concatenate([t, -t]))
        assert np.array_equal(wr, np.concatenate([-wt * sig * (2.0 - sig), wt * sig * sig]))

    @pytest.mark.parametrize("prior", [two_point(0.1), two_point(1e-4), two_point(1e-8),
                                       NEGATIVE_SPIKE],
                             ids=["0.1", "1e-4", "1e-8", "negative-spike"])
    def test_values_do_not_depend_on_chunk(self, prior):
        s = 2 * entropy(prior) * np.geomspace(1e-3, 20, 257)
        grid = mmse_curve(prior, s)
        single = np.array([mmse(prior, v) for v in s])
        np.testing.assert_allclose(grid, single, rtol=0, atol=1e-14)


class TestMutualInfo:
    def test_zero_snr(self):
        assert mutual_info(two_point(0.5), 0.0) == 0.0

    def test_saturates_at_entropy(self):
        for prior in (two_point(0.5), two_point(0.1)):
            h = entropy(prior)
            assert abs(mutual_info(prior, 1e4 * h) - h) <= 1e-4

    def test_integral_oracle(self):
        # I(1) must equal half the integral of M over [0, 1].
        prior = two_point(0.5)
        integral, _ = quad(lambda u: mmse(prior, u), 0.0, 1.0, limit=200)
        assert abs(mutual_info(prior, 1.0) - 0.5 * integral) <= 1e-5

    def test_monotone_nondecreasing(self):
        grid = np.geomspace(1e-3, 40, 60)
        for prior in (two_point(0.5), two_point(0.02), THREE_ATOM):
            i = mutual_info_curve(prior, grid)
            assert np.all(np.diff(i) >= -1e-12)

    @pytest.mark.parametrize("prior", [two_point(0.5), two_point(0.1),
                                       two_point(0.01), THREE_ATOM])
    def test_i_mmse_relation(self, prior):
        for s in (0.02, 0.4, 2.5, 17.0):
            h = 1e-4 * max(s, 1.0)
            fd = (mutual_info(prior, s + h) - mutual_info(prior, s - h)) / (2 * h)
            assert abs(fd - 0.5 * mmse(prior, s)) <= 1e-5

    def test_partial_integral_identity(self):
        # int_0^S M = 2 I(S) for any S, not only in the saturation limit.
        prior = two_point(0.1)
        for s_hi in (0.8, 5.0):
            integral, _ = quad(lambda u: mmse(prior, u), 0.0, s_hi, limit=300)
            assert integral == pytest.approx(2.0 * mutual_info(prior, s_hi), abs=2e-6)


class TestBoundSuite:
    @pytest.mark.parametrize("prior", [two_point(0.5), two_point(0.1),
                                       two_point(0.01), THREE_ATOM])
    def test_information_sandwich(self, prior):
        h = entropy(prior)
        big_l = l_constant(prior)
        assert 0.0 <= big_l <= h
        grid = np.geomspace(1e-3, 50, 50)
        i = mutual_info_curve(prior, grid)
        m = mmse_curve(prior, grid)
        assert np.all(m <= 1.0 / (1.0 + grid) + 1e-9)
        assert np.all(i <= np.minimum(0.5 * np.log1p(grid), h) + 1e-9)
        assert np.all(i >= np.minimum(0.5 * grid, h) - big_l - 1e-9)


class TestStepFunctionLimit:
    def test_mmse_step_convergence(self):
        # On the t = s/(2H) axis the MMSE approaches a unit step at t = 1.
        below, above = [], []
        for eps in (1e-2, 1e-4, 1e-6):
            h = two_point_entropy(eps)
            prior = two_point(eps)
            below.append(mmse(prior, 2 * h * 0.5))
            above.append(mmse(prior, 2 * h * 1.5))
        assert all(a < b for a, b in zip(below, below[1:]))
        assert all(a > b for a, b in zip(above, above[1:]))
        assert below[-1] > 0.9
        assert above[-1] < 0.2

    def test_info_deficit_ratio_decreases(self):
        ratios = []
        for eps in (1e-2, 1e-4, 1e-6, 1e-8):
            prior = two_point(eps)
            ratios.append(l_constant(prior) / entropy(prior))
        assert all(a > b for a, b in zip(ratios, ratios[1:]))


class TestQApprox:
    def test_half_at_threshold(self):
        eps = 1e-4
        s0 = 2 * eps * math.log(1 / eps)
        assert mmse_q_approx(eps, s0) == pytest.approx(0.5, abs=1e-12)

    def test_no_underflow_at_tiny_epsilon(self):
        # sqrt(s * eps) underflows to 0 here; sqrt(s) * sqrt(eps) does not.
        assert mmse_q_approx(1e-200, 6.44e-198) == pytest.approx(0.99999997597, abs=1e-11)
        assert normalized_smallest_stationary(1e-200, 1.5, 5.0) == pytest.approx(0.6976,
                                                                                   abs=1e-4)

    def test_vanishes_at_large_s(self):
        eps = 1e-4
        s0 = 2 * eps * math.log(1 / eps)
        assert mmse_q_approx(eps, 50 * s0) <= 1e-6

    def test_sup_gap_small_and_shrinking(self):
        sups = []
        for eps in (1e-3, 1e-4, 1e-5, 1e-6):
            s0 = 2 * eps * math.log(1 / eps)
            grid = np.geomspace(0.1 * s0, 10 * s0, 200)
            gap = np.max(np.abs(mmse_curve(two_point(eps), grid)
                                - mmse_q_approx(eps, grid)))
            sups.append(gap)
        assert sups[-1] <= 0.05
        assert all(a > b for a, b in zip(sups, sups[1:]))

    @pytest.mark.parametrize("eps", [1e-4, channel.APPROX_EPSILON])
    def test_mutual_info_surrogate_only_below_cutoff(self, eps):
        # Only spike weights that route to the surrogate take its information.
        with pytest.raises(ValueError, match="APPROX_EPSILON"):
            mutual_info_q_approx(eps, 1.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf, [1.0, math.nan]],
                             ids=["nan", "inf", "grid-with-nan"])
    def test_s_helpers_reject_non_finite_s(self, s):
        # Each checks s with channel._snr_grid; mmse_q_approx also needs s > 0.
        scalar = s if np.ndim(s) == 0 else math.nan
        for call in (lambda: mmse_q_approx(0.1, s),
                     lambda: mutual_info_q_approx(1e-16, scalar),
                     lambda: mc_mmse(two_point(0.1), scalar, 10, seed=0),
                     lambda: mc_mmse_two_point(0.1, scalar, 10, seed=0)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                call()
        with pytest.raises(ValueError, match="s must be positive"):
            mmse_q_approx(0.1, 0.0)

    @pytest.mark.parametrize("eps", [9.999e-13, 1e-13, 1e-16, 1e-50])
    def test_mutual_info_surrogate_far_past_transition(self, eps):
        # Oracle: quad on pieces cut at s0 * 2^k, so no piece holds more than a
        # slice of the transition.  I must match it and never decrease in s.
        s0 = 2 * eps * math.log(1 / eps)
        h = two_point_entropy(eps)
        prev = 0.0
        for s in s0 * np.geomspace(0.5, 1e12, 40):
            cuts = [0.0] + [s0 * 2.0 ** k for k in range(-12, 50) if s0 * 2.0 ** k < s] + [s]
            ref = 0.5 * sum(quad(lambda u: mmse_q_approx(eps, u), a, b, epsabs=0.0,
                                 epsrel=1e-13, limit=200)[0]
                            for a, b in zip(cuts, cuts[1:]))
            val = mutual_info_q_approx(eps, s)
            assert val == pytest.approx(ref, rel=1e-8)
            assert val >= prev - 1e-8 * h
            prev = val


class TestEvalModes:
    def test_quadrature_mode_for_normal_epsilon(self):
        _, mode = mmse_eval(two_point(0.1), 1.0)
        assert mode == channel.MODE_QUADRATURE

    def test_approx_mode_below_cutoff(self):
        eps = 1e-16
        prior = two_point(eps)
        value, mode = mmse_eval(prior, 2 * two_point_entropy(eps))
        assert mode == channel.MODE_APPROX
        assert value == pytest.approx(mmse_q_approx(eps, 2 * two_point_entropy(eps)))
        _, mode_i = mutual_info_eval(prior, 1e-15)
        assert mode_i == channel.MODE_APPROX

    def test_curve_carries_mode(self):
        curve = channel_curve(two_point(0.2), np.geomspace(0.01, 5, 20))
        assert curve.mode == channel.MODE_QUADRATURE
        assert np.all(np.diff(curve.i_values) >= -1e-12)
        assert np.all(np.diff(curve.m_values) <= 1e-12)

    def test_tolerance_policy(self):
        # H(1e-8) ~ 1.9e-7 puts I's tolerance at 1.9e-11, below QUAD_TOL.
        prior = two_point(1e-8)
        mi_tol = channel._mi_tol(prior)
        assert mi_tol < channel.QUAD_TOL
        s = np.geomspace(1e-9, 1e-5, 40)
        for v in s:
            assert mutual_info_eval(prior, v)[0] == mutual_info_curve(prior, [v], tol=mi_tol)[0]
            assert mmse_eval(prior, v)[0] == mmse_curve(prior, [v])[0]
        np.testing.assert_array_equal(channel.mutual_info_eval_curve(prior, s)[0],
                                      mutual_info_curve(prior, s, tol=mi_tol))
        np.testing.assert_array_equal(channel_curve(prior, s).i_values,
                                      mutual_info_curve(prior, s))

    def test_curve_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            channel_curve(two_point(0.2), [])
        with pytest.raises(ValueError):
            channel_curve(two_point(0.2), [1.0, 0.5])

    @pytest.mark.parametrize("eps", [0.1, 1e-16], ids=["quadrature", "surrogate"])
    def test_both_routes_check_s_alike(self, eps):
        prior = two_point(eps)
        for s in (math.nan, math.inf, -1.0):
            for fn in (mmse_eval, mutual_info_eval):
                with pytest.raises(ValueError, match="finite and nonnegative"):
                    fn(prior, s)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            potential(1.0, 5.0, prior, math.inf)
        for fn in (channel.mmse_eval_curve, channel.mutual_info_eval_curve):
            assert fn(prior, [])[0].shape == (0,)
        assert normalized_curve(eps, 0.5, 5.0, []).shape == (0,)


class TestScalarWrappers:
    """Scalar evaluations are the size-1 case of the curve evaluations."""

    @pytest.mark.parametrize("prior", [two_point(e) for e in (0.1, 1e-16, 1e-2, 1e-6)])
    def test_bitwise_equal_to_curve(self, prior):
        for s in (0.0, 7e-15, 0.3, 4.0):
            assert mmse(prior, s) == mmse_curve(prior, [s])[0]
            assert mutual_info(prior, s) == mutual_info_curve(prior, [s])[0]
            m_vals, mode = channel.mmse_eval_curve(prior, [s])
            assert mmse_eval(prior, s) == (m_vals[0], mode)
        eps = two_point_epsilon(prior)
        for t in (0.3, 1.0, 2.2):
            assert normalized_potential(eps, 1.1, 5.0, t) == normalized_curve(eps, 1.1, 5.0,
                                                                              [t])[0]

    def test_scalar_names_are_the_curves(self):
        # The scalar names are aliases, not wrappers: a float is the 0-d case.
        assert channel.mmse is channel.mmse_curve
        assert channel.mutual_info is channel.mutual_info_curve
        assert channel.mmse_eval is channel.mmse_eval_curve
        assert normalized_potential is normalized_curve
        assert rsphase.mmse is channel.mmse_curve
        assert rsphase.mutual_info is channel.mutual_info_curve
        assert rsphase.mmse_eval is channel.mmse_eval_curve
        assert rsphase.normalized_potential is normalized_curve


class TestBinaryFastPath:
    """The two-atom closed form must agree with a reference softmax evaluation."""

    def _reference(self, prior, s_arr, n):
        z, wq = channel._gh(n)
        a, lw, w = prior.atom_array, prior.log_weight_array, prior.weight_array
        m_out = np.zeros_like(s_arr)
        i_out = np.zeros_like(s_arr)
        for j in range(a.size):
            y = np.sqrt(s_arr)[:, None] * a[j] + z
            ll = lw - 0.5 * (y[:, :, None] - np.sqrt(s_arr)[:, None, None] * a) ** 2
            lp = ll - logsumexp(ll, axis=-1, keepdims=True)
            p = np.exp(lp)
            m_out += w[j] * (((a[j] - p @ a) ** 2) @ wq)
            i_out += w[j] * ((-xlogy(p, p).sum(-1)) @ wq)
        return m_out, entropy(prior) - i_out

    @pytest.mark.parametrize("prior", [two_point(0.5), two_point(0.05), two_point(1e-3),
                                       THREE_ATOM, DEEP_NEGATIVE_SPIKE, TERNARY, FIVE_ATOM],
                             ids=["0.5", "0.05", "0.001", "three-atom", "deep-negative-spike",
                                  "ternary", "five-atom"])
    def test_matches_reference(self, prior):
        s_arr = np.geomspace(1e-3, 50, 25)
        for n in (241, 961, 1921):
            m_ref, i_ref = self._reference(prior, s_arr, n)
            np.testing.assert_allclose(channel._mmse_nodes(prior, s_arr, n), m_ref,
                                       atol=1e-13)
            np.testing.assert_allclose(channel._mi_nodes(prior, s_arr, n), i_ref,
                                       atol=1e-13)

    def test_gauss_hermite_keeps_relative_digits(self):
        # M falls to ~1e-31 here.  The oracle must keep its relative digits,
        # which forming (a_j - E[beta0|y])^2 as a difference would cancel.
        s_arr = np.geomspace(5, 50, 6)
        np.testing.assert_allclose(channel._mmse_nodes(DEEP_NEGATIVE_SPIKE, s_arr, 1921),
                                   mmse_curve(DEEP_NEGATIVE_SPIKE, s_arr), rtol=1e-3, atol=0)


class TestRowBlocks:
    """The curves run the node kernels a few rows at a time; that must change no value."""

    @pytest.mark.parametrize("prior", [two_point(1e-4), two_point(1e-8), THREE_ATOM, TERNARY],
                             ids=["1e-4", "1e-8", "three-atom", "ternary"])
    # 97 points leave a one-row remainder at the top rungs' block sizes.
    @pytest.mark.parametrize("size", [97, 256])
    def test_blocking_changes_no_value(self, prior, size):
        s_arr = np.geomspace(1e-3, 50, size)
        for n in channel.NODE_LADDER:
            assert np.array_equal(mmse_curve(prior, s_arr, nodes=n),
                                  channel._mmse_nodes(prior, s_arr, n))
            assert np.array_equal(mutual_info_curve(prior, s_arr, nodes=n),
                                  channel._mi_nodes(prior, s_arr, n))
        if prior.natoms == 2:   # the exact path's remainder rule; B >= 2 on this grid
            assert np.array_equal(mmse_curve(prior, s_arr),
                                  channel._mmse_two_point(prior, s_arr))


def _in_fresh_thread(fn):
    """``fn()`` on a new thread, which starts with an empty kernel workspace."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=300)


_WS_GRID = np.geomspace(1e-3, 50, 97)
# Two, three and five atoms at three rungs, then the exact two-point path.
_WS_CALLS = [functools.partial(fn, prior, _WS_GRID, nodes=n)
             for prior in (two_point(1e-4), TERNARY, FIVE_ATOM) for n in (61, 481, 1921)
             for fn in (mmse_curve, mutual_info_curve)] \
    + [functools.partial(mmse_curve, two_point(1e-4), _WS_GRID)]


class TestWorkspace:
    """The node kernels keep their (S, K) intermediates in a per-thread workspace
    that outlives each call; no value may depend on what used it before."""

    def _run(self, calls):
        return [call() for call in calls]

    def test_interleaved_calls_match_fresh_ones(self):
        fresh = [_in_fresh_thread(call) for call in _WS_CALLS]
        forward = self._run(_WS_CALLS)
        backward = self._run(_WS_CALLS[::-1])[::-1]
        for ref, a, b in zip(fresh, forward, backward):
            assert np.array_equal(a, ref) and np.array_equal(b, ref)

    def test_concurrent_threads_match_serial(self):
        # Three threads, more than a 2-core runner has, each starting the list at
        # a different call, with a short switch interval to interleave kernels.
        serial = self._run(_WS_CALLS)
        shifts = (0, len(_WS_CALLS) // 3, 2 * len(_WS_CALLS) // 3)
        start = threading.Barrier(len(shifts))

        def worker(k):
            start.wait(timeout=60)
            return [self._run(_WS_CALLS[k:] + _WS_CALLS[:k]) for _ in range(2)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(shifts)) as pool:
                futures = [pool.submit(worker, k) for k in shifts]
                runs = [f.result(timeout=300) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for k, reps in zip(shifts, runs):
            for values in reps:
                for ref, v in zip(serial[k:] + serial[:k], values):
                    assert np.array_equal(v, ref)


class TestAllocation:
    """Once the workspace has grown, a curve allocates nothing of block size."""

    @pytest.mark.parametrize("prior", [two_point(1e-4), TERNARY], ids=["1e-4", "ternary"])
    @pytest.mark.parametrize("nodes", [61, 481, 1921, None])
    @pytest.mark.parametrize("fn", [mmse_curve, mutual_info_curve])
    def test_peak_below_two_blocks(self, prior, nodes, fn):
        s_arr = np.geomspace(1e-3, 50, 256)
        fn(prior, s_arr, nodes=nodes)               # grows the workspace, fills the node tables
        tracemalloc.start()
        try:
            fn(prior, s_arr, nodes=nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # What remains is per-point arrays and numpy's iterator buffers for the
        # broadcast (S, 1)-by-(S, K) steps, at most 8192 doubles per operand.
        assert peak <= 2 * channel._BLOCK * 8


class TestGenericPriorSupport:
    def test_three_atom_mc_oracle(self):
        est, se = mc_mmse(THREE_ATOM, 2.0, 10**6, seed=5)
        assert abs(mmse(THREE_ATOM, 2.0) - est) <= 3 * se
