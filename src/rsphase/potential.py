"""Replica-symmetric potential over the effective SNR and its minimizers.

The potential F(s) = I(s) + (delta/2) * (x - ln x - 1) with x = s/(delta*snr)
trades the channel information against an undersampling penalty.  Its global
minimizers determine the limiting estimation error and its smallest
stationary point the error reached by AMP, so this module locates both.  By
I' = M/2 the stationary points are the roots of phi(s) = s*(M(s) + 1/snr) =
delta, all strictly between delta*snr/(1+snr) and delta*snr, which bounds
every search; :func:`smallest_stationary` isolates the first from M alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import channel
from ._numerics import brentq, minimize_bounded
from .prior import DiscretePrior, entropy, two_point, two_point_entropy

GRID_POINTS = 2000
SAMPLE_STRIDE = 16
_EDGES = 33
_SPLIT = 8
_LEVELS = 4
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


def _check_snr(snr) -> float:
    if not snr > 0.0 or not math.isfinite(snr):
        raise ValueError(f"snr must be positive and finite, got {snr!r}")
    if snr < np.finfo(float).tiny:
        raise ValueError(f"snr = {snr!r} is below the smallest normal double, so 1/snr overflows")
    return float(snr)


def _check_params(value, snr, name="delta"):
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    # The product's rules come before snr's own: a subnormal snr whose product
    # is subnormal too is reported by the product.
    if 0.0 < snr < math.inf:
        product = float(value) * float(snr)
        if not math.isfinite(product):
            raise ValueError(f"{name}*snr must be finite, got {product!r}")
        # The scan grids end at product*(1 + BRACKET_PAD); np.geomspace forms
        # its points as powers of 10, which round past that end by ~1e-13.
        if not math.isfinite(product * (1.0 + BRACKET_PAD) ** 2):
            raise ValueError(f"{name}*snr = {product!r} is too large: the padded scan "
                             "grid's upper end overflows")
        if product < np.finfo(float).tiny:
            raise ValueError(f"{name}*snr = {product!r} is below the smallest normal double, "
                             "so it and the admissible interval's ends lost precision or "
                             "rounded to 0")
    return float(value), _check_snr(snr)


def _t_grid(t_values) -> np.ndarray:
    t_arr = np.asarray(t_values, dtype=float)
    if not ((t_arr > 0.0) & (t_arr < math.inf)).all():
        raise ValueError("t values must be positive and finite")
    return t_arr


def _positive_s(s):
    """s as a float if it is 0-d, else as a float array, after checking s > 0."""
    s_arr = np.asarray(s, dtype=float)
    if not np.all(s_arr > 0.0):
        raise ValueError(f"s must be positive, got {s!r}")
    return float(s_arr) if s_arr.ndim == 0 else s_arr


def potential(delta: float, snr: float, prior: DiscretePrior, s):
    """Potential value F(s); raises ValueError at s <= 0 (log singularity).

    s is a float or an array of any shape, as in the channel layer (a float in
    gives a float out).  I comes from :func:`channel.mutual_info_eval`, so each
    point of an array gets the value a scalar call at that point gives, up to
    the rounding of BLAS's node sums.
    """
    delta, snr = _check_params(delta, snr)
    s = _positive_s(s)
    i_vals, _ = channel.mutual_info_eval(prior, s)
    return i_vals + 0.5 * delta * _logdiv(s / (delta * snr))


def _residual(delta, snr, s, m):
    """2s*F'(s) = s*(m + 1/snr) - delta at m = M(s), free of O(delta) cancellation."""
    return s * m - (delta * snr - s) / snr


def potential_deriv(delta: float, snr: float, prior: DiscretePrior, s):
    """Exact derivative F'(s): the stationary residual s*(M(s) + 1/snr) - delta over 2s.

    Exactness follows from I'(s) = M(s)/2 on the scalar channel, so this
    avoids differencing quadrature output.  Vectorized over ``s`` as
    :func:`potential` is.
    """
    delta, snr = _check_params(delta, snr)
    s = _positive_s(s)
    m_vals, _ = channel.mmse_eval_curve(prior, s)
    return _residual(delta, snr, s, m_vals) / (2.0 * s)


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
    """Smallest s at which F'(s) = 0: the first root of phi(s) = s*(M(s) + 1/snr) = delta.

    M is read on ``_EDGES`` log edges of the admissible interval, and the first
    edge with a nonnegative residual (delta*snr, if none before) closes the
    bracket.  Each interval [a, b] below it is certified root-free when its
    bound b*(M(a) + QUAD_TOL + 1/snr) - delta (:func:`_residual_range`) is
    below -4*eps*delta, which rounding cannot reach.  The rest are split
    ``_SPLIT`` ways, one M call per level, for at most ``_LEVELS`` levels, and
    ``brentq`` refines the bracket.  An interval whose right end b is itself
    undecided (residual above -b*QUAD_TOL) is not split, as no split certifies
    the piece ending at b; like a scan step, it is vouched for by its end signs.

    This trusts M to ``QUAD_TOL``: a node ladder that does not reach it raises
    :class:`channel.QuadratureError`.  Below snr ~1.1e-16 the interval is the
    one double delta*snr, which is returned.  If M at the lower end rounds to
    its s = 0 value, the prior's second moment, no crossing can be resolved and
    a :class:`BracketError` names delta*snr as the cause.
    """
    delta, snr = _check_params(delta, snr)
    lo, hi = stationary_bracket(delta, snr)
    if lo == hi:
        return lo

    s = np.geomspace(lo, hi, _EDGES)
    m, _ = channel.mmse_eval_curve(prior, s)
    # A few ulps of slack: the tail surrogate's M(0) is 1.0, not the rounded moment.
    if m[0] >= float(prior.weight_array @ prior.atom_array ** 2) * (1.0 - 1e-15):
        raise BracketError(
            f"delta*snr = {delta * snr:g} puts the lower end of the admissible "
            f"interval at s = {lo:g}, where 1 - M(s) rounds to 0, so the "
            "stationary point cannot be resolved in double precision")
    allowance = 4.0 * np.finfo(float).eps * delta
    for level in range(_LEVELS + 1):
        above = np.flatnonzero(_residual(delta, snr, s, m) >= 0.0)
        if not above.size or above[0] == 0:
            raise BracketError(
                "the stationary-point residual has no sign change above the lower "
                "end of the admissible interval; this cannot happen exactly and "
                "signals quadrature inaccuracy")
        s, m = s[:above[0] + 1], m[:above[0] + 1]
        _, upper = _residual_range(delta, snr, s, m)
        # The bracket's right end is undecided, so the bracket is never split.
        decided = _residual(delta, snr, s[1:], m[1:] + channel.QUAD_TOL) < -allowance
        j = np.flatnonzero((upper >= -allowance) & decided)
        if level == _LEVELS or not j.size:
            break
        steps = (s[j + 1] / s[j])[:, None] ** (np.arange(1, _SPLIT) / _SPLIT)
        new = np.minimum(s[j, None] * steps, s[j + 1, None])
        m_new, _ = channel.mmse_eval_curve(prior, new)
        # Row p: point p, then interval p's new points (np.insert's sort costs RSS).
        grid = np.full((2, s.size, _SPLIT), np.nan)
        grid[:, :, 0], grid[:, j, 1:] = (s, m), (new, m_new)
        s, m = grid[:, ~np.isnan(grid[0])]

    # Exact units of a power of two near delta: brentq's secant products of a
    # residual and a step in s underflow at s ~ 1e-198 (eps 1e-200) otherwise.
    scale = math.ldexp(1.0, -math.frexp(delta)[1])
    root = brentq(lambda x: scale * _residual(delta, snr, x, channel.mmse_eval(prior, x)[0]),
                  s[-2], s[-1], xtol=lo * 1e-14, rtol=1e-12)
    return float(root)


def _residual_range(delta, snr, s, m):
    """Bounds (lower, upper) of the residual on each interval [a, b] of the grid s,
    at (a, M(b) - QUAD_TOL) and (b, M(a) + QUAD_TOL): M is nonincreasing and
    each computed M is trusted to ``QUAD_TOL``."""
    return (_residual(delta, snr, s[:-1], m[1:] - channel.QUAD_TOL),
            _residual(delta, snr, s[1:], m[:-1] + channel.QUAD_TOL))


def _certified_steps(delta, snr, prior, s_grid):
    """Per step k of ``s_grid``: the sign of F(s_grid[k+1]) - F(s_grid[k]) where M
    certifies it, else 0.

    M is read at every ``SAMPLE_STRIDE``-th point and at the last, and
    :func:`_residual_range` bounds the residual 2s*F'(s) on each sample
    interval, as it does for :func:`smallest_stationary`.  Where that range
    clears 0 by g = 4*slack / (smallest log step), each step of the interval
    changes F by more than 2*slack, with that sign.  slack is 2*_mi_tol(prior),
    the error each computed I is trusted to stay within, plus a bound on F's
    rounding, so the scan's computed comparison has the same sign.  Nothing is
    certified on the tail-surrogate route, or where g is not finite.
    """
    signs = np.zeros(s_grid.size - 1)
    log_step = float(np.log(s_grid[1:] / s_grid[:-1]).min())
    if channel.approx_epsilon(prior) is not None or not log_step > 0.0:
        return signs
    x = s_grid[[0, -1]] / (delta * snr)
    rounding = 4.0 * np.finfo(float).eps * (entropy(prior) + delta * (x[1] - math.log(x[0]) + 1.0))
    gap = 4.0 * (2.0 * channel._mi_tol(prior) + rounding) / log_step
    if not math.isfinite(gap):
        return signs
    ends = np.append(np.arange(0, s_grid.size - 1, SAMPLE_STRIDE), s_grid.size - 1)
    m_vals, _ = channel.mmse_eval_curve(prior, s_grid[ends])
    lower, upper = _residual_range(delta, snr, s_grid[ends], m_vals)
    return np.repeat((lower > gap).astype(float) - (upper < -gap), np.diff(ends))


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

    The scan reads I only where M leaves the sign of a step open.  By I' =
    M/2, M at every ``SAMPLE_STRIDE``-th point certifies the sign of the steps
    where F is steep (:func:`_certified_steps`).  That trusts M to within
    ``QUAD_TOL``, as :func:`smallest_stationary`'s isolation does, and each I to
    within 2*_mi_tol(prior).  I is read in one call on the ``_CHUNK``-aligned
    chunks that hold an end of an uncertified step; only the last is short, so
    these points re-form the grid's chunks, where the ladder converges, and get
    the values one call on the whole grid gives.  The candidates, the local
    minima of that full scan, come out the same: a step with both ends read is
    compared as the full scan compares it, any other takes its certified sign.
    On the tail-surrogate route, whose I depends on the grid's largest s,
    nothing is certified and the whole grid is read.
    """
    delta, snr = _check_params(delta, snr)
    lo, hi = stationary_bracket(delta, snr)
    s_grid = np.geomspace(lo * (1.0 - BRACKET_PAD), hi * (1.0 + BRACKET_PAD), GRID_POINTS)
    signs = _certified_steps(delta, snr, prior, s_grid)
    # Plain indexing: the first call of np.unique (or np.union1d) adds over 1 MB of RSS.
    chunk_of = np.arange(GRID_POINTS) // channel._CHUNK
    open_steps = np.flatnonzero(signs == 0.0)
    open_chunks = np.zeros(chunk_of[-1] + 1, dtype=bool)
    open_chunks[chunk_of[open_steps]] = open_chunks[chunk_of[open_steps + 1]] = True
    read = open_chunks[chunk_of]
    f_vals = np.zeros(GRID_POINTS)
    i_vals, _ = channel.mutual_info_eval_curve(prior, s_grid[read])
    f_vals[read] = i_vals + 0.5 * delta * _logdiv(s_grid[read] / (delta * snr))
    # A step with both ends read is compared as the full scan compares it;
    # every other step is certified.
    rises = np.where(read[:-1] & read[1:], np.diff(f_vals), signs)

    # Local minima of the scan: ties count inside, the endpoints need a strict drop.
    is_min = np.empty(GRID_POINTS, dtype=bool)
    is_min[1:-1] = (rises[:-1] <= 0.0) & (rises[1:] >= 0.0)
    is_min[0] = rises[0] > 0.0
    is_min[-1] = rises[-1] < 0.0
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


def normalized_curve(epsilon: float, r, snr: float, t_values):
    """Potential rescaled by the prior entropy, F(2*H*t)/H, at t (a float in
    gives a float out, an array keeps its shape).

    The undersampling ratio is set internally to r times the information
    threshold, i.e. delta = 2*r*H/ln(1+snr), so curves for different epsilon
    are directly comparable on the t axis.  By I' = M/2 the normalized
    information is I(2*H*t)/H, so the curve is the channel layer's information
    rescaled by 2*H, plus the rescaled penalty.

    r may also be a sequence.  Then the result has one row per r, in order,
    of shape ``(len(r),) + np.shape(t_values)``, and each row is bit for bit
    the result of the call with that r alone.  Every r is checked as that
    call checks it, all before I is computed, and I is computed once.
    """
    t_arr = _t_grid(t_values)
    scalar = np.ndim(r) == 0
    rs = [_check_params(v, snr, "r")[0] for v in ([r] if scalar else r)]
    snr = _check_snr(snr)
    h = two_point_entropy(epsilon)
    c = math.log1p(snr)
    i_vals, _ = channel.mutual_info_eval_curve(two_point(epsilon), 2.0 * h * t_arr)
    i_norm = i_vals / h
    rows = [i_norm + (v / c) * _logdiv(t_arr * c / (v * snr)) for v in rs]
    return rows[0] if scalar else np.reshape(rows, (len(rs),) + t_arr.shape)


normalized_potential = normalized_curve


def normalized_argmin(epsilon: float, r: float, snr: float) -> float:
    """Location (in t) of the global minimum of the normalized potential."""
    r, snr = _check_params(r, snr, "r")
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
    r, snr = _check_params(r, snr, "r")
    h = two_point_entropy(epsilon)
    delta = 2.0 * r * h / math.log1p(snr)
    return smallest_stationary(delta, snr, two_point(epsilon)) / (2.0 * h)


def limit_potential(r: float, snr: float, t) -> float:
    """Small-epsilon limit of the normalized potential: min(1,t) + penalty."""
    r, snr = _check_params(r, snr, "r")
    t_arr = _t_grid(t)
    c = math.log1p(snr)
    out = np.minimum(1.0, t_arr) + (r / c) * _logdiv(t_arr * c / (r * snr))
    return float(out) if np.ndim(t) == 0 else out


def amp_threshold_ratio(snr: float) -> float:
    """Ratio of the algorithmic to the information threshold: (1+1/snr)ln(1+snr)."""
    snr = _check_snr(snr)
    return (1.0 + 1.0 / snr) * math.log1p(snr)


def limit_minimizers(r: float, snr: float):
    """Global minimizer and smallest stationary point of the limit potential.

    Returns ``(t_star, t_amp)``.  The global minimizer branch switches at
    r = 1 and the smallest stationary point at r = the threshold ratio; both
    boundary values are excluded (the limit curve is degenerate there).
    """
    r, snr = _check_params(r, snr, "r")
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
