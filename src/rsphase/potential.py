"""Replica-symmetric potential over the effective SNR and its minimizers.

The potential F(s) = I(s) + (delta/2) * (x - ln x - 1) with x = s/(delta*snr)
trades the channel information against an undersampling penalty.  Its global
minimizers determine the limiting estimation error and its smallest
stationary point the error reached by AMP, so this module locates both.  All
stationary points lie strictly between delta*snr/(1+snr) and delta*snr, which
bounds every search.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import channel
from ._numerics import brentq, minimize_bounded
from .prior import DiscretePrior, two_point, two_point_entropy

GRID_POINTS = 2000
SCAN_POINTS = 4000
SCAN_BLOCK = 32
BRACKET_PAD = 1e-3
EQUAL_MIN_TOL = 1e-8
REFINE_RTOL = 1e-10


class BracketError(RuntimeError):
    """No sign change found where one is mathematically guaranteed."""


def _logdiv(x):
    """x - ln(x) - 1: convex, nonnegative, zero exactly at x = 1."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0):
        raise ValueError("argument of the log divergence must be positive")
    out = x_arr - np.log(x_arr) - 1.0
    return float(out) if np.ndim(x) == 0 else out


def stationary_bracket(delta: float, snr: float):
    """Open interval that contains every stationary point of the potential."""
    return delta * snr / (1.0 + snr), delta * snr


def _check_snr(snr):
    if not snr > 0.0 or not math.isfinite(snr):
        raise ValueError(f"snr must be positive and finite, got {snr!r}")


def _check_params(value, snr, name="delta"):
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    _check_snr(snr)
    if not math.isfinite(value * snr):
        raise ValueError(f"{name}*snr must be finite, got {value * snr!r}")
    if value * snr < np.finfo(float).tiny:
        raise ValueError(f"{name}*snr = {value * snr!r} is below the smallest normal double, "
                         "so it and the admissible interval's ends lost precision or rounded to 0")


def _t_grid(t_values) -> np.ndarray:
    t_arr = np.asarray(t_values, dtype=float)
    if not ((t_arr > 0.0) & (t_arr < math.inf)).all():
        raise ValueError("t values must be positive and finite")
    return t_arr


def potential(delta: float, snr: float, prior: DiscretePrior, s: float) -> float:
    """Potential value F(s); raises ValueError at s <= 0 (log singularity)."""
    _check_params(delta, snr)
    if not s > 0.0:
        raise ValueError(f"s must be positive, got {s!r}")
    i_val, _ = channel.mutual_info_eval(prior, s)
    return i_val + 0.5 * delta * _logdiv(s / (delta * snr))


def _residual(delta, snr, s, m):
    """2s*F'(s) = s*(m + 1/snr) - delta at m = M(s), free of O(delta) cancellation."""
    return s * m - (delta * snr - s) / snr


def potential_deriv(delta: float, snr: float, prior: DiscretePrior, s):
    """Exact derivative F'(s): the stationary residual s*(M(s) + 1/snr) - delta over 2s.

    Exactness follows from I'(s) = M(s)/2 on the scalar channel, so this
    avoids differencing quadrature output.  Vectorized over ``s``: a float in
    gives a float out, an array in gives an array out.
    """
    _check_params(delta, snr)
    s_arr = np.asarray(s, dtype=float)
    if not np.all(s_arr > 0.0):
        raise ValueError(f"s must be positive, got {s!r}")
    m_vals, _ = channel.mmse_eval_curve(prior, np.atleast_1d(s_arr))
    out = _residual(delta, snr, s_arr, m_vals) / (2.0 * s_arr)
    return float(out[0]) if s_arr.ndim == 0 else out


@dataclass
class PotentialLandscape:
    """Minimizers and smallest stationary point for one (delta, snr, prior)."""

    delta: float
    snr: float
    prior: DiscretePrior
    f_star: float
    s_lower_star: float
    s_upper_star: float
    bracket: tuple
    multi_minima: bool
    s_best: float           # the extreme minimizer with the lower F (s_lower_star on a tie)

    @functools.cached_property
    def s_amp(self) -> float:
        """Smallest stationary point; found on first access only."""
        return smallest_stationary(self.delta, self.snr, self.prior)


def smallest_stationary(delta: float, snr: float, prior: DiscretePrior) -> float:
    """Smallest s at which F'(s) = 0.

    Every stationary point solves s*(M(s) + 1/snr) = delta, so the residual is
    scanned upward on ``SCAN_POINTS`` log-spaced points of the admissible
    interval and the first sign change is refined by bisection.  The scan
    order is what makes the result the *first* crossing; the residual is
    continuous but not monotone.

    The scan reads M in blocks of ``SCAN_BLOCK`` points and skips what one
    state-evolution step certifies.  After a block without a crossing, let m
    be M at its last point.  M is nonincreasing, so every later s below the
    state-evolution step delta/(m + 2*QUAD_TOL + 1/snr) has a negative
    residual; the slack covers the evaluator's error once at that point and
    once at s.  The skip tests this as the residual at M = m + 2*QUAD_TOL, in
    the same floating-point arithmetic as the scan's own test, so it skips no
    point the scan would flag, and the next block starts at the first point it
    does not certify.  The upper end hi = delta*snr is never skipped: there
    delta*snr - s is 0 and the test reads hi*(m + 2*QUAD_TOL) > 0.  So the
    scan meets a crossing by hi at the latest, and it is a full scan's first.

    Below snr ~1.1e-16, 1 + snr rounds to 1 and the interval is the one
    double delta*snr, which is returned.  If M at the lower end rounds to its
    s = 0 value, the prior's second moment, no crossing can be resolved and a
    :class:`BracketError` names delta*snr as the cause.
    """
    _check_params(delta, snr)
    lo, hi = stationary_bracket(delta, snr)
    if lo == hi:
        return lo

    grid = np.geomspace(lo, hi, SCAN_POINTS)
    # A few ulps of slack: the tail surrogate's M(0) is 1.0, not the rounded moment.
    m_zero = float(prior.weight_array @ prior.atom_array ** 2)
    start = 0
    while start < SCAN_POINTS:
        block = grid[start:start + SCAN_BLOCK]
        m_vals, _ = channel.mmse_eval_curve(prior, block)
        if start == 0 and m_vals[0] >= m_zero * (1.0 - 1e-15):
            raise BracketError(
                f"delta*snr = {delta * snr:g} puts the lower end of the admissible "
                f"interval at s = {lo:g}, where 1 - M(s) rounds to 0, so the "
                "stationary point cannot be resolved in double precision")
        above = np.flatnonzero(_residual(delta, snr, block, m_vals) >= 0.0)
        if above.size:
            break
        start += block.size
        m_bound = m_vals[-1] + 2.0 * channel.QUAD_TOL
        uncertified = np.flatnonzero(_residual(delta, snr, grid[start:], m_bound) >= 0.0)
        start += int(uncertified[0]) if uncertified.size else 0
    else:
        raise BracketError(
            "no sign change of the stationary-point residual inside the "
            "admissible interval; signals quadrature inaccuracy")
    k = start + int(above[0])
    if k == 0:
        raise BracketError(
            "stationary-point residual is nonnegative at the lower interval "
            "endpoint; this cannot happen exactly and signals quadrature "
            "inaccuracy")

    root = brentq(lambda s: _residual(delta, snr, s, channel.mmse_eval(prior, s)[0]),
                  grid[k - 1], grid[k], xtol=lo * 1e-14, rtol=1e-12)
    return float(root)


def minimize(delta: float, snr: float, prior: DiscretePrior) -> PotentialLandscape:
    """Locate the global minimum of F and its extreme minimizers.

    Dense log-spaced scan over the (padded) admissible interval, then local
    refinement of every candidate basin to ``REFINE_RTOL`` in s.  F is flat at a
    minimizer, so the result is limited by I's quadrature error, not by that
    tolerance: at eps 1e-4 (delta 1.1 times the information threshold, snr 5)
    ``s_lower_star`` sits 4.1e-5 relative from the root of F'.
    Minimizers within ``EQUAL_MIN_TOL * (1+|F*|)`` of the minimum tie, the
    extreme ones are reported, and ``multi_minima`` only when they lie more
    than 1e-6*delta*snr apart, so two refinements of one basin count once.
    Exact ties are measure zero; the tolerance exposes the coexistence regime
    near a first-order transition.
    """
    _check_params(delta, snr)
    lo, hi = stationary_bracket(delta, snr)
    s_grid = np.geomspace(lo * (1.0 - BRACKET_PAD), hi * (1.0 + BRACKET_PAD), GRID_POINTS)
    i_vals, _ = channel.mutual_info_eval_curve(prior, s_grid)
    f_vals = i_vals + 0.5 * delta * _logdiv(s_grid / (delta * snr))

    # Local minima of the scan: ties count inside, the endpoints need a strict drop.
    is_min = np.empty(f_vals.size, dtype=bool)
    is_min[1:-1] = (f_vals[1:-1] <= f_vals[:-2]) & (f_vals[1:-1] <= f_vals[2:])
    is_min[0] = f_vals[0] < f_vals[1]
    is_min[-1] = f_vals[-1] < f_vals[-2]
    candidates = np.flatnonzero(is_min)
    if candidates.size == 0:
        raise BracketError("no local minimum on the scan grid; grid too coarse")

    def objective(s):
        i_val, _ = channel.mutual_info_eval(prior, s)
        return i_val + 0.5 * delta * _logdiv(s / (delta * snr))

    refined = []
    for i in candidates:
        a = s_grid[max(i - 1, 0)]
        b = s_grid[min(i + 1, len(s_grid) - 1)]
        refined.append(minimize_bounded(objective, a, b, xatol=REFINE_RTOL * s_grid[i]))

    refined.sort()
    f_star = min(f for _, f in refined)
    level = f_star + EQUAL_MIN_TOL * (1.0 + abs(f_star))
    winners = [(s, f) for s, f in refined if f <= level]
    (s_lower, f_lower), (s_upper, f_upper) = winners[0], winners[-1]
    s_best = s_lower if f_lower <= f_upper else s_upper
    multi = (s_upper - s_lower) > 1e-6 * delta * snr
    return PotentialLandscape(delta, snr, prior, f_star, s_lower, s_upper,
                              (lo, hi), multi, s_best)


def normalized_potential(epsilon: float, r: float, snr: float, t: float) -> float:
    """Potential rescaled by the prior entropy: F(2*H*t)/H.

    The undersampling ratio is set internally to r times the information
    threshold, i.e. delta = 2*r*H/ln(1+snr), so curves for different epsilon
    are directly comparable on the t axis.
    """
    return float(normalized_curve(epsilon, r, snr, [t])[0])


def normalized_curve(epsilon: float, r: float, snr: float, t_values) -> np.ndarray:
    """Normalized potential on a grid of t values (vectorized).

    By I' = M/2 the normalized information is I(2*H*t)/H, so the curve is the
    channel layer's information rescaled by 2*H, plus the rescaled penalty.
    """
    t_arr = _t_grid(t_values)
    _check_params(r, snr, "r")
    h = two_point_entropy(epsilon)
    c = math.log1p(snr)
    i_vals, _ = channel.mutual_info_eval_curve(two_point(epsilon), 2.0 * h * t_arr)
    return i_vals / h + (r / c) * _logdiv(t_arr * c / (r * snr))


def normalized_argmin(epsilon: float, r: float, snr: float) -> float:
    """Location (in t) of the global minimum of the normalized potential."""
    h = two_point_entropy(epsilon)
    c = math.log1p(snr)
    prior = two_point(epsilon)
    if channel.approx_epsilon(prior) is None:
        return minimize(2.0 * r * h / c, snr, prior).s_best / (2.0 * h)
    t_lo = r * snr / ((1.0 + snr) * c) * (1.0 - BRACKET_PAD)
    t_hi = r * snr / c * (1.0 + BRACKET_PAD)
    t_grid = np.geomspace(t_lo, t_hi, GRID_POINTS)
    f_vals = normalized_curve(epsilon, r, snr, t_grid)
    i = int(np.argmin(f_vals))
    if 0 < i < len(t_grid) - 1:
        # Parabolic refinement through the three bracketing grid points.
        x0, x1, x2 = t_grid[i - 1:i + 2]
        y0, y1, y2 = f_vals[i - 1:i + 2]
        denom = (x0 - x1) * (y0 - y2) - (x0 - x2) * (y0 - y1)
        if denom != 0.0:
            num = (x0 * x0 - x1 * x1) * (y0 - y2) - (x0 * x0 - x2 * x2) * (y0 - y1)
            t_hat = 0.5 * num / denom
            if x0 <= t_hat <= x2:
                return float(t_hat)
    return float(t_grid[i])


def normalized_smallest_stationary(epsilon: float, r: float, snr: float) -> float:
    """Smallest stationary point of the normalized potential, in t units.

    ``r`` is the ratio of the undersampling ratio to the information
    threshold, exactly as in :func:`normalized_potential`.
    """
    h = two_point_entropy(epsilon)
    delta = 2.0 * r * h / math.log1p(snr)
    return smallest_stationary(delta, snr, two_point(epsilon)) / (2.0 * h)


def limit_potential(r: float, snr: float, t) -> float:
    """Small-epsilon limit of the normalized potential: min(1,t) + penalty."""
    _check_params(r, snr, "r")
    t_arr = _t_grid(t)
    c = math.log1p(snr)
    out = np.minimum(1.0, t_arr) + (r / c) * _logdiv(t_arr * c / (r * snr))
    return float(out) if np.ndim(t) == 0 else out


def amp_threshold_ratio(snr: float) -> float:
    """Ratio of the algorithmic to the information threshold: (1+1/snr)ln(1+snr)."""
    _check_snr(snr)
    return (1.0 + 1.0 / snr) * math.log1p(snr)


def limit_minimizers(r: float, snr: float):
    """Global minimizer and smallest stationary point of the limit potential.

    Returns ``(t_star, t_amp)``.  The global minimizer branch switches at
    r = 1 and the smallest stationary point at r = the threshold ratio; both
    boundary values are excluded (the limit curve is degenerate there).
    """
    _check_params(r, snr, "r")
    c = math.log1p(snr)
    r_alg = amp_threshold_ratio(snr)
    if r == 1.0:
        raise ValueError("r = 1 is the information boundary; no unique minimizer")
    if r == r_alg:
        raise ValueError("r equals the algorithmic threshold ratio; no unique "
                         "smallest stationary point")
    low_branch = r * snr / ((1.0 + snr) * c)
    high_branch = r * snr / c
    t_star = low_branch if r < 1.0 else high_branch
    t_amp = low_branch if r < r_alg else high_branch
    return t_star, t_amp
