"""Single-letter Gaussian channel quantities for discrete priors.

Computes the mutual information I(s) and the minimum mean-squared error M(s)
of the scalar observation sqrt(s)*beta0 + N with N ~ N(0,1), together with
the posterior-mean denoiser they are built from.  All information quantities
are in nats.  Mixture likelihoods are evaluated in the log domain, because the
atoms of extreme spike priors separate like 1/sqrt(eps) and naive exponentials
overflow already around eps ~ 1e-4.

M of a two-atom prior is one expectation, D^2 * sum_j w_j E_z sigma(c_j + B z)^2
over the other atom's posterior log-odds (:func:`_two_point_log_odds`).  Two
quadratures evaluate it: the exact one, a closed-form step plus a remainder on a
fixed Gauss-Legendre rule (:func:`_mmse_two_point`), and the fixed Gauss-Hermite
oracle (``nodes=``).  I, and M of priors with more atoms, use adaptive
Gauss-Hermite quadrature.

Below spike probability ``APPROX_EPSILON`` the two-point quantities are
evaluated through a Gaussian-tail surrogate instead; callers can audit which
path produced a value via the ``*_eval`` functions that return a mode tag.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc, log_ndtr, roots_hermite

from .prior import DiscretePrior, entropy, two_point_epsilon

QUAD_TOL = 1e-8
# The ladder serves I and many-atom M.  One doubling past 961: at spike weights
# near 1e-12..1e-8 the rung-to-rung change of I plateaus close to the
# transition while the 961-node value is already accurate, so the final rung
# is what lets the ladder see convergence.
NODE_LADDER = (61, 121, 241, 481, 961, 1921)
APPROX_EPSILON = 1e-12
MODE_QUADRATURE = "quadrature"
MODE_APPROX = "approx"

# Curves are evaluated _CHUNK points at a time.  The chunk is the ladder's unit
# of convergence, so I and many-atom M values, and the committed references,
# depend on it; potential.smallest_stationary walks the same blocks so that it
# matches a full scan bit for bit.
_CHUNK = 256

# Two-point remainder rule: Gauss-Legendre panels in |u| on each side of u = 0.
# The remainder's weight decays like exp(-|u|), so it is below 1e-20 past 48.
_PANEL_EDGES = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0)
_PANEL_NODES = 12
# Below this log-odds spread B the two-point M stays on fixed Gauss-Hermite,
# where 241 nodes already agree with 1921 to ~1e-14.
_TWO_POINT_MIN_B = 2.0
_TWO_POINT_SMALL_B_NODES = 241


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to stabilize at the requested tolerance."""


@functools.cache
def _gh(n: int):
    """Gauss-Hermite nodes/weights rescaled to integrate against N(0,1).

    scipy's roots are used because the numpy implementation overflows for the
    node counts at the top of the refinement ladder.
    """
    x, w = roots_hermite(n)
    return x * math.sqrt(2.0), w / math.sqrt(math.pi)


def denoise(prior: DiscretePrior, r, tau2: float):
    """Posterior mean and variance of beta0 given the observation r = beta0 + tau*N.

    Vectorized over ``r``.  Returns ``(mean, variance)``; scalars in, scalars
    out.  The mixture posterior is formed with a log-sum-exp so widely
    separated atoms cannot overflow.
    """
    if not tau2 > 0.0:
        raise ValueError(f"noise variance tau2 must be positive, got {tau2!r}")
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    a = prior.atom_array
    ll = prior.log_weight_array - 0.5 * (r_arr[..., None] - a) ** 2 / tau2
    ll -= ll.max(axis=-1, keepdims=True)
    p = np.exp(ll)
    p /= p.sum(axis=-1, keepdims=True)
    mean = p @ a
    second = p @ (a * a)
    var = np.maximum(second - mean * mean, 0.0)
    if scalar:
        return float(mean), float(var)
    return mean, var


def _two_point_log_odds(prior: DiscretePrior, s_arr: np.ndarray):
    """D = a2 - a1, B = sqrt(s)*D and the offsets c_j, shape (2, S), of a two-atom prior.

    Under atom j the posterior log-odds of the other atom are c_j + B*z up to
    the sign of z ~ N(0,1), with c_j = log(w_other/w_j) - s*D^2/2, so
    M = D^2 * sum_j w_j E_z sigma(c_j + B z)^2.
    """
    a1, a2 = prior.atoms
    lw = prior.log_weight_array
    d = a2 - a1
    return d, np.sqrt(s_arr) * d, (lw[::-1] - lw)[:, None] - 0.5 * s_arr * d * d


def _log_posteriors(prior: DiscretePrior, s_arr: np.ndarray, z: np.ndarray):
    """Per atom j: its weight and atom, and the max-shifted log posterior (S, K, A)
    of the observation sqrt(s)*a_j + z."""
    a = prior.atom_array
    lw = prior.log_weight_array
    sq = np.sqrt(s_arr)[:, None]
    for w_j, a_j in zip(prior.weight_array, a):
        y = sq * a_j + z                                         # (S, K)
        ll = lw - 0.5 * (y[:, :, None] - sq[:, None, :] * a) ** 2
        ll -= ll.max(axis=-1, keepdims=True)
        yield w_j, a_j, ll


def _mmse_nodes(prior: DiscretePrior, s_arr: np.ndarray, n: int) -> np.ndarray:
    """Fixed-node Gauss-Hermite quadrature of the posterior-mean squared error."""
    z, wq = _gh(n)
    out = np.zeros_like(s_arr)
    if prior.natoms == 2:
        d, b, c = _two_point_log_odds(prior, s_arr)
        for w_j, c_j in zip(prior.weight_array, c):
            u = c_j[:, None] + b[:, None] * z                    # (S, K)
            e = np.exp(-np.abs(u))
            sig = np.where(u >= 0.0, 1.0, e) / (1.0 + e)
            out += w_j * ((sig * sig) @ wq)
        return d * d * out
    a = prior.atom_array
    for w_j, a_j, ll in _log_posteriors(prior, s_arr, z):
        p = np.exp(ll)
        p /= p.sum(axis=-1, keepdims=True)
        out += w_j * ((a_j - p @ a) ** 2 @ wq)
    return out


@functools.cache
def _remainder_rule():
    """Nodes u and weights of the remainder integral in :func:`_mmse_two_point`.

    The weights fold in rho(u) = sigma(u)^2 - [u > 0] and 1/sqrt(2 pi), so that
    R(A, B) = sum_k w_k exp(-((u_k - A)/B)^2 / 2) / B.  For u = |u| > 0 that is
    -sigma(-u)(2 - sigma(-u)); for u = -|u| it is sigma(-|u|)^2.
    """
    x, w = np.polynomial.legendre.leggauss(_PANEL_NODES)
    edges = np.asarray(_PANEL_EDGES)
    lo, hi = edges[:-1, None], edges[1:, None]
    t = (0.5 * (lo + hi) + 0.5 * (hi - lo) * x).ravel()
    wt = (0.5 * (hi - lo) * w).ravel() / math.sqrt(2.0 * math.pi)
    sig = np.exp(-t) / (1.0 + np.exp(-t))                  # sigma(-|u|)
    return np.concatenate([t, -t]), np.concatenate([-wt * sig * (2.0 - sig), wt * sig * sig])


def _mmse_two_point(prior: DiscretePrior, s_arr: np.ndarray) -> np.ndarray:
    """Exact M on an s grid for a two-atom prior; no node ladder.

    With D, B and c_j from :func:`_two_point_log_odds`, M = D^2 * sum_j w_j E(c_j, B)
    where E(A, B) = E_z sigma(A + B z)^2.  E splits into the step Phi(A/B) and a
    remainder R = (1/B) int phi((u - A)/B) rho(u) du whose weight rho decays like
    exp(-|u|); R runs on the fixed panels of :func:`_remainder_rule`.  Each term
    is formed as exp(log(w_j D^2) + ...), so spike weights far below 1e-16 keep
    their digits.  Points with B < 2 use fixed Gauss-Hermite instead.
    """
    d, b, c = _two_point_log_odds(prior, s_arr)
    out = np.empty_like(s_arr)
    small = b < _TWO_POINT_MIN_B
    if small.any():     # skip empty calls: the root finders make many size-1 calls
        out[small] = _mmse_nodes(prior, s_arr[small], _TWO_POINT_SMALL_B_NODES)
    big = ~small
    if not big.any():
        return out
    b = b[big]
    u, wr = _remainder_rule()
    total = np.zeros_like(b)
    for lw_j, c_j in zip(prior.log_weight_array + math.log(d * d), c[:, big]):
        x = (u - c_j[:, None]) / b[:, None]                  # (S, K)
        total += np.exp(lw_j + log_ndtr(c_j / b)) + (np.exp(lw_j - 0.5 * x * x) @ wr) / b
    out[big] = total
    return out


def _mi_nodes(prior: DiscretePrior, s_arr: np.ndarray, n: int) -> np.ndarray:
    """Fixed-node quadrature of H(prior) minus the mean posterior entropy.

    With shifted log-likelihoods ll and unnormalized posterior q = exp(ll),
    the posterior entropy is log(sum q) - sum(q * ll)/sum(q); this needs one
    log per observation instead of one per mixture component.
    """
    z, wq = _gh(n)
    post_ent = np.zeros_like(s_arr)
    if prior.natoms == 2:
        # Binary posterior entropy log1p(e) + |d| e/(1 + e), from the upper
        # atom's log-odds d, which are affine in the observation y.
        a1, a2 = prior.atoms
        lw = prior.log_weight_array
        sq = np.sqrt(s_arr)[:, None]
        for w_j, a_j in zip(prior.weight_array, prior.atoms):
            y = sq * a_j + z
            d = (lw[1] - lw[0]) + sq * (a2 - a1) * y \
                - s_arr[:, None] * (a2 * a2 - a1 * a1) / 2.0
            ad = np.abs(d)
            e = np.exp(-ad)
            post_ent += w_j * ((np.log1p(e) + e / (1.0 + e) * ad) @ wq)
        return np.maximum(entropy(prior) - post_ent, 0.0)
    for w_j, _, ll in _log_posteriors(prior, s_arr, z):
        q = np.exp(ll)
        norm = q.sum(axis=-1)
        ent = np.log(norm) - (q * ll).sum(axis=-1) / norm
        post_ent += w_j * (ent @ wq)
    return np.maximum(entropy(prior) - post_ent, 0.0)


def _ladder(nodes_fn, prior, tol, nodes, s_arr):
    """``nodes_fn`` on one chunk: at the fixed order ``nodes`` if given, else up
    ``NODE_LADDER`` until successive rungs agree to ``tol``."""
    if nodes is not None:
        return nodes_fn(prior, s_arr, nodes)
    prev = None
    for n in NODE_LADDER:
        cur = nodes_fn(prior, s_arr, n)
        if prev is not None and float(np.max(np.abs(cur - prev))) <= tol:
            return cur
        prev = cur
    raise QuadratureError(
        f"Gauss-Hermite refinement up to {NODE_LADDER[-1]} nodes did not "
        f"stabilize within {tol:g} (prior {prior.label or prior.atoms})")


def _snr_grid(s_values) -> np.ndarray:
    s_arr = np.asarray(s_values, dtype=float)
    if np.any(s_arr < 0.0) or not np.all(np.isfinite(s_arr)):
        raise ValueError("SNR grid values must be finite and nonnegative")
    return s_arr


def _curve(s_values, at_zero: float, fn) -> np.ndarray:
    """``at_zero`` where s = 0, and ``fn`` on the positive entries of the s grid,
    ``_CHUNK`` at a time."""
    s_arr = _snr_grid(s_values)
    out = np.full_like(s_arr, at_zero)
    idx = np.flatnonzero(s_arr > 0.0)
    for k in range(0, idx.size, _CHUNK):
        sel = idx[k:k + _CHUNK]
        out[sel] = fn(s_arr[sel])
    return out


def _mi_tol(prior: DiscretePrior) -> float:
    # Information values live on the entropy scale, so the absolute quadrature
    # tolerance must shrink with it or the grid scan sees spurious basins for
    # extreme spike priors.  MMSE values stay O(1) and keep QUAD_TOL.
    h = entropy(prior)
    return min(QUAD_TOL, max(1e-13, 1e-4 * h))


def mmse(prior: DiscretePrior, s: float) -> float:
    """MMSE of estimating beta0 from sqrt(s)*beta0 + N, in [0, 1].

    Exact for two-atom priors.  For more atoms, raises :class:`QuadratureError`
    if the adaptive node ladder cannot reach ``QUAD_TOL`` agreement between
    successive refinements.
    """
    return float(mmse_curve(prior, [s])[0])


def mmse_curve(prior: DiscretePrior, s_values, *, nodes: int | None = None) -> np.ndarray:
    """Vectorized :func:`mmse` over a grid of s values.

    Two-atom priors go through :func:`_mmse_two_point`, which is exact and
    evaluates each point on its own.  Priors with more atoms climb the node
    ladder per chunk of ``_CHUNK`` points to ``QUAD_TOL`` and raise
    :class:`QuadratureError` if it does not converge.  ``nodes`` pins a fixed
    Gauss-Hermite order for any prior, skipping both: it is the brute-force
    reference the exact path is tested against.  For two atoms the exact path
    and ``nodes`` are two quadratures of one expectation, the one
    :func:`_two_point_log_odds` states.
    """
    if nodes is None and prior.natoms == 2:
        fn = functools.partial(_mmse_two_point, prior)
    else:
        fn = functools.partial(_ladder, _mmse_nodes, prior, QUAD_TOL, nodes)
    return _curve(s_values, float(prior.weight_array @ (prior.atom_array ** 2)), fn)


def mutual_info(prior: DiscretePrior, s: float) -> float:
    """Mutual information between beta0 and sqrt(s)*beta0 + N, in nats.

    The direct path is entropy quadrature over the mixture output; the
    integral of M is used only as an independent cross-check in the tests.
    """
    return float(mutual_info_curve(prior, [s])[0])


def mutual_info_curve(prior: DiscretePrior, s_values, *, tol: float = QUAD_TOL,
                      nodes: int | None = None) -> np.ndarray:
    """I on a grid of s values, with the node ladder run to absolute ``tol``.

    ``nodes`` pins a fixed quadrature order, as in :func:`mmse_curve`.
    """
    return _curve(s_values, 0.0, functools.partial(_ladder, _mi_nodes, prior, tol, nodes))


def mmse_q_approx(epsilon: float, s):
    """Gaussian-tail surrogate for the two-point MMSE at spike weight epsilon.

    Evaluates Q((s - 2*eps*ln(1/eps)) / (2*sqrt(s)*sqrt(eps))); the surrogate
    converges uniformly to the true two-point MMSE as epsilon shrinks and is
    the evaluation path once quadrature underflows.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0.0):
        raise ValueError("s must be positive")
    arg = (s_arr - 2.0 * epsilon * math.log(1.0 / epsilon)) \
        / (2.0 * np.sqrt(s_arr) * math.sqrt(epsilon))
    out = 0.5 * erfc(arg / math.sqrt(2.0))      # standard normal upper tail Q(arg)
    if np.ndim(s) == 0:
        return float(out)
    return out


def mutual_info_q_approx(epsilon: float, s: float) -> float:
    """Mutual information implied by the tail surrogate via I(s) = (1/2) int_0^s M.

    The integral stops at s_end, where the surrogate's argument reaches 10 and
    M < 1e-23: past it M adds nothing, and on a longer interval quad's first
    panels step over the transition at s0 and lose up to 22% of I.
    """
    if s < 0.0:
        raise ValueError(f"s must be nonnegative, got {s!r}")
    if s == 0.0:
        return 0.0
    s0 = 2.0 * epsilon * math.log(1.0 / epsilon)
    s_end = (10.0 * math.sqrt(epsilon) + math.sqrt(100.0 * epsilon + s0)) ** 2
    s = min(s, s_end)
    points = [s0] if 0.0 < s0 < s else None
    val, _ = quad(lambda u: mmse_q_approx(epsilon, u), 0.0, s, points=points, limit=200)
    return 0.5 * val


def approx_epsilon(prior: DiscretePrior):
    """Spike weight if this prior must route through the tail surrogate, else None."""
    eps = two_point_epsilon(prior)
    if eps is not None and eps < APPROX_EPSILON:
        return eps
    return None


def mmse_eval(prior: DiscretePrior, s: float):
    """M(s) together with the evaluation-mode tag ('quadrature' or 'approx')."""
    m_vals, mode = mmse_eval_curve(prior, [s])
    return float(m_vals[0]), mode


def mutual_info_eval(prior: DiscretePrior, s: float):
    """I(s) together with the evaluation-mode tag.

    On the surrogate path the scalar value is one adaptive integral of the
    surrogate, which is tighter than the trapezoid of the curve version.
    """
    eps = approx_epsilon(prior)
    if eps is not None:
        return mutual_info_q_approx(eps, s), MODE_APPROX
    i_vals, mode = mutual_info_eval_curve(prior, [s])
    return float(i_vals[0]), mode


def mmse_eval_curve(prior: DiscretePrior, s_values):
    """M on an s grid plus the mode tag.  This and :func:`mutual_info_eval_curve`
    route a prior to quadrature or to the tail surrogate for the other layers,
    and fix the accuracy: M as in :func:`mmse_curve`, I to :func:`_mi_tol` of
    the prior."""
    eps = approx_epsilon(prior)
    if eps is not None:
        return _curve(s_values, 1.0, functools.partial(mmse_q_approx, eps)), MODE_APPROX
    return mmse_curve(prior, s_values), MODE_QUADRATURE


def mutual_info_eval_curve(prior: DiscretePrior, s_values, *, tol: float | None = None):
    """I on an s grid plus the mode tag (see :func:`mmse_eval_curve`); ``tol``
    overrides the quadrature tolerance, which is otherwise ``_mi_tol(prior)``."""
    eps = approx_epsilon(prior)
    if eps is not None:
        s_arr = _snr_grid(s_values)
        # Cumulative trapezoid of the surrogate on 8192 even steps of [0, max s],
        # then interpolate: far cheaper than one adaptive integral per point, but
        # accurate only while the step max(s)/8191 is far below the transition
        # width 2*eps*sqrt(2*ln(1/eps)) around s0 = 2*eps*ln(1/eps); a step of
        # 1/13 of the width already errs by ~1% of H.  A step wider than s0
        # swallows the transition, and I comes out as s/4 up to one step, then
        # flat at step/4, instead of H.
        s_hi = float(s_arr.max())
        if s_hi == 0.0:
            return np.zeros_like(s_arr), MODE_APPROX
        base = np.linspace(0.0, s_hi, 8192)
        m = np.empty_like(base)
        m[0] = 1.0
        m[1:] = mmse_q_approx(eps, base[1:])
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (m[1:] + m[:-1]) * np.diff(base))])
        return 0.5 * np.interp(s_arr, base, cum), MODE_APPROX
    tol = _mi_tol(prior) if tol is None else tol
    return mutual_info_curve(prior, s_values, tol=tol), MODE_QUADRATURE


@dataclass
class ChannelCurve:
    """Tabulated (s, I(s), M(s)) triples for one prior."""

    prior: DiscretePrior
    s_grid: np.ndarray
    i_values: np.ndarray
    m_values: np.ndarray
    mode: str


def channel_curve(prior: DiscretePrior, s_grid) -> ChannelCurve:
    """Tabulate I and M on an increasing grid of s values."""
    s_arr = np.asarray(s_grid, dtype=float)
    if s_arr.size == 0:
        raise ValueError("s grid must be non-empty")
    if s_arr.size > 1 and not np.all(np.diff(s_arr) > 0):
        raise ValueError("s grid must be strictly increasing")
    # QUAD_TOL, not _mi_tol: the committed channel/figure1 references use it.
    i_vals, mode = mutual_info_eval_curve(prior, s_arr, tol=QUAD_TOL)
    m_vals, _ = mmse_eval_curve(prior, s_arr)
    return ChannelCurve(prior, s_arr, i_vals, m_vals, mode)
