"""Single-letter Gaussian channel quantities for discrete priors.

Computes the mutual information I(s) and the minimum mean-squared error M(s)
of the scalar observation sqrt(s)*beta0 + N with N ~ N(0,1), together with
the posterior-mean denoiser they are built from.  All information quantities
are in nats.  Mixture likelihoods are evaluated in the log domain, because the
atoms of extreme spike priors separate like 1/sqrt(eps) and naive exponentials
overflow already around eps ~ 1e-4.

M of a two-atom prior is one expectation, D^2 * sum_j w_j E_z sigma(c_j + B z)^2
over the other atom's posterior log-odds (:func:`_two_point_log_odds`), and is
evaluated exactly: a closed-form step plus a remainder on a fixed
Gauss-Legendre rule (:func:`_mmse_two_point`).  I, and M of priors with more
atoms, use adaptive Gauss-Hermite quadrature.  M's Gauss-Hermite kernel
(:func:`_mmse_nodes`) is one for every prior; at a fixed order (``nodes=``) it
is the oracle for the exact two-point M, and shares no formula with it.  Under
atom j the log posterior of atom k is affine in the node z,
lw_k + s*a_k*(a_j - a_k/2) + sqrt(s)*a_k*z, once the common -y^2/2 is dropped,
so the generic kernels hold one (S, K) array per atom (:func:`_log_posteriors`),
and M's error sum_{k != j} q_k (a_j - a_k) / sum_k q_k keeps the digits that
a_j - E[beta0|y] would cancel.  Every fixed rule, the Gauss-Hermite kernels
and the two-point remainder, runs on blocks of at most ``_BLOCK`` point-node
pairs (:func:`_rows`), with the same values as one call on the whole chunk.
The kernels write every (S, K) intermediate with ``out=`` into a thread-local
workspace (:func:`_scratch`) that is grown to the largest block and kept, so
after the first blocks they allocate nothing of that size; threads never share
it, and it changes no value.

Below spike probability ``APPROX_EPSILON`` the two-point quantities are
evaluated through a Gaussian-tail surrogate instead; callers can audit which
path produced a value via the ``*_eval`` functions that return a mode tag.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import _numerics
from .prior import DiscretePrior, _check_epsilon, entropy, two_point_epsilon

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
# depend on it.
_CHUNK = 256

# The fixed node rules run on blocks of grid points (see _rows) that hold at
# most _BLOCK point-node pairs, plus one row where a one-row tail joins the last
# block.  Each (S, K) intermediate of a block lives in _workspace, which belongs
# to the calling thread and stays mapped across blocks and calls (see _scratch),
# so the kernels allocate, free and fault in nothing of block size.  It grows to
# about (2A + 2) * _BLOCK doubles for an A-atom prior, 1 MiB at three atoms.
# Larger blocks grow it in step; smaller ones pay numpy's per-call overhead at
# the low rungs.
_BLOCK = 16384
_workspace = threading.local()

# Two-point remainder rule: Gauss-Legendre panels in |u| on each side of u = 0.
# The remainder's weight decays like exp(-|u|), so it is below 1e-20 past 48.
_PANEL_EDGES = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0)
_PANEL_NODES = 12
# Below this log-odds spread B the two-point M stays on fixed Gauss-Hermite,
# where 241 nodes already agree with 1921 to ~1e-14.
_TWO_POINT_MIN_B = 2.0
_TWO_POINT_SMALL_B_NODES = 241

_HERMITE_TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_hermite.npz")


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to stabilize at the requested tolerance."""


@functools.cache
def _gh(n: int):
    """Gauss-Hermite nodes/weights rescaled to integrate against N(0,1).

    ``n`` must be a rung of ``NODE_LADDER``; any other order raises ValueError.
    The physicists' nodes and weights are read from ``_hermite.npz``, a table
    written once from ``scipy.special.roots_hermite(n)`` for each rung with
    ``np.savez`` (keys ``x<n>``, ``w<n>``); tests/test_numerics.py checks it
    against scipy entry for entry.  numpy's own ``hermgauss`` overflows at the
    top rungs.
    """
    if n not in NODE_LADDER:
        raise ValueError(f"no Gauss-Hermite table for n={n}; the rungs are {list(NODE_LADDER)}")
    with np.load(_HERMITE_TABLE) as table:
        x, w = table[f"x{n}"], table[f"w{n}"]
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
    a = prior.atom_array
    # One row per atom, so each reduction over the atoms runs along whole rows.
    ll = prior.log_weight_array[:, None] - 0.5 * (r_arr.ravel() - a[:, None]) ** 2 / tau2
    ll -= ll.max(axis=0)
    p = np.exp(ll)
    p /= p.sum(axis=0)
    mean = a @ p
    second = (a * a) @ p
    var = np.maximum(second - mean * mean, 0.0)
    if r_arr.ndim == 0:
        return float(mean[0]), float(var[0])
    return mean.reshape(r_arr.shape), var.reshape(r_arr.shape)


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


def _scratch(shape, count: int) -> list:
    """``count`` distinct float arrays of ``shape`` from this thread's workspace.

    The node kernels write every (S, K) intermediate into these with ``out=``,
    so a block allocates nothing of its size.  The pool is grown to the largest
    request and never shrunk; at _rows' blocks that is at most (2A + 2) *
    (_BLOCK + K) doubles for an A-atom prior.  Contents are whatever the last
    use left, so a kernel writes each array before it reads it.
    """
    size = shape[0] * shape[1]
    pool = getattr(_workspace, "pool", None)
    if pool is None or pool.size < count * size:
        pool = _workspace.pool = np.empty(count * size)
    return [pool[k * size:(k + 1) * size].reshape(shape) for k in range(count)]


def _fold(ufunc, arrays, out):
    """``functools.reduce(ufunc, arrays)``, each step written into ``out``."""
    acc = arrays[0]
    for x in arrays[1:]:
        acc = ufunc(acc, x, out=out)
    return acc


def _log_posteriors(prior: DiscretePrior, s_arr: np.ndarray, z: np.ndarray, ws):
    """Per atom j: its weight and atom, and the max-shifted log posteriors of all
    atoms k, A separate (S, K) arrays, of the observation y = sqrt(s)*a_j + z.

    Dropping the common -y^2/2, atom k's log posterior is affine in the node z,
    lw_k + s*a_k*(a_j - a_k/2) + sqrt(s)*a_k*z, so the slopes sqrt(s)*a_k*z are
    shared by every j and no (S, K, A) array is formed.  They go to the first A
    workspace arrays of ``ws``, the log posteriors to the next A, and the max
    shift to ``ws[2A]``, which the caller may reuse once a j is yielded.
    """
    a = prior.atom_array
    lw = prior.log_weight_array
    slopes, ll, top = ws[:a.size], ws[a.size:2 * a.size], ws[2 * a.size]
    sq = np.sqrt(s_arr)[:, None]
    for a_k, bz in zip(a, slopes):
        np.multiply(sq * a_k, z, out=bz)
    for w_j, a_j in zip(prior.weight_array, a):
        for lw_k, a_k, bz, ll_k in zip(lw, a, slopes, ll):
            np.add((lw_k + s_arr * a_k * (a_j - 0.5 * a_k))[:, None], bz, out=ll_k)
        shift = _fold(np.maximum, ll, top)
        for ll_k in ll:
            np.subtract(ll_k, shift, out=ll_k)
        yield w_j, a_j, ll


def _mmse_nodes(prior: DiscretePrior, s_arr: np.ndarray, n: int) -> np.ndarray:
    """Fixed-node Gauss-Hermite quadrature of the posterior-mean squared error."""
    z, wq = _gh(n)
    out = np.zeros_like(s_arr)
    ws = _scratch((s_arr.size, n), 2 * prior.natoms + 2)
    err = ws[-1]
    # a_j - E[beta0|y] as sum_{k != j} q_k (a_j - a_k) / sum_k q_k: no cancellation.
    for w_j, a_j, ll in _log_posteriors(prior, s_arr, z, ws):
        q = [np.exp(ll_k, out=ll_k) for ll_k in ll]
        norm = _fold(np.add, q, ws[-2])
        err.fill(0.0)
        for q_k, a_k in zip(q, prior.atoms):
            if a_k != a_j:
                q_k *= a_j - a_k
                err += q_k
        err /= norm
        out += w_j * (np.multiply(err, err, out=err) @ wq)
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
    exp(-|u|).  The step w_j D^2 * Phi(c_j/B) is one erfc call; R runs on the
    fixed panels of :func:`_remainder_rule` in _rows blocks, in the log domain,
    exp(log(w_j D^2) - ((u - c_j)/B)^2 / 2), so spike weights far below 1e-16
    keep their digits.  Points with B < 2 use fixed Gauss-Hermite instead.
    """
    d, b, c = _two_point_log_odds(prior, s_arr)
    out = np.empty_like(s_arr)
    small = b < _TWO_POINT_MIN_B
    if small.any():     # skip empty calls: the root finders make many size-1 calls
        out[small] = _rows(functools.partial(_mmse_nodes, prior, n=_TWO_POINT_SMALL_B_NODES),
                           s_arr[small], _TWO_POINT_SMALL_B_NODES)
    big = ~small
    if big.any():
        step = np.exp(prior.log_weight_array + math.log(d * d)) \
            @ (0.5 * _numerics.erfc((c[:, big] / b[big]) * -math.sqrt(0.5)))  # Phi(c_j/B)
        out[big] = step + _rows(functools.partial(_remainder, prior), s_arr[big],
                                _remainder_rule()[0].size)
    return out


def _remainder(prior: DiscretePrior, s_arr: np.ndarray) -> np.ndarray:
    """D^2 * sum_j w_j R(c_j, B) on the fixed rule of :func:`_remainder_rule`."""
    d, b, c = _two_point_log_odds(prior, s_arr)
    u, wr = _remainder_rule()
    (x,) = _scratch((s_arr.size, u.size), 1)
    total = np.zeros_like(s_arr)
    for lw_j, c_j in zip(prior.log_weight_array + math.log(d * d), c):
        # lw_j - ((u - c_j)/b)^2 / 2 in place, per atom; halving is exact, so
        # this is the same double as lw_j - 0.5*x*x.
        np.subtract(u, c_j[:, None], out=x)
        x /= b[:, None]
        x *= x
        x *= -0.5
        x += lw_j
        total += np.exp(x, out=x) @ wr
    return total / b


def _mi_nodes(prior: DiscretePrior, s_arr: np.ndarray, n: int) -> np.ndarray:
    """Fixed-node quadrature of H(prior) minus the mean posterior entropy.

    With shifted log-likelihoods ll and unnormalized posterior q = exp(ll),
    the posterior entropy is log(sum q) - sum(q * ll)/sum(q); this needs one
    log per observation instead of one per mixture component.
    """
    z, wq = _gh(n)
    post_ent = np.zeros_like(s_arr)
    shape = (s_arr.size, n)
    if prior.natoms == 2:
        # Binary posterior entropy log1p(e) + |d| e/(1 + e), from the upper
        # atom's log-odds d, which are affine in the observation y.
        a1, a2 = prior.atoms
        lw = prior.log_weight_array
        sq = np.sqrt(s_arr)[:, None]
        ad, e, t = _scratch(shape, 3)
        for w_j, a_j in zip(prior.weight_array, prior.atoms):
            np.add(sq * a_j, z, out=ad)                     # y
            np.multiply(sq * (a2 - a1), ad, out=ad)
            np.add(lw[1] - lw[0], ad, out=ad)
            np.subtract(ad, s_arr[:, None] * (a2 * a2 - a1 * a1) / 2.0, out=ad)
            np.abs(ad, out=ad)                              # |d|
            np.negative(ad, out=e)
            np.exp(e, out=e)
            np.add(1.0, e, out=t)
            np.divide(e, t, out=t)
            np.multiply(t, ad, out=t)
            post_ent += w_j * (np.add(np.log1p(e, out=e), t, out=e) @ wq)
        return np.maximum(entropy(prior) - post_ent, 0.0)
    ws = _scratch(shape, 2 * prior.natoms + 2)
    norm, q = ws[-2:]
    for w_j, _, ll in _log_posteriors(prior, s_arr, z, ws):
        # One q_k = exp(ll_k) at a time: norm sums them, and ll_k becomes q_k * ll_k.
        for k, ll_k in enumerate(ll):
            q_k = np.exp(ll_k, out=q if k else norm)
            if k:
                norm += q_k
            ll_k *= q_k
        ent = _fold(np.add, ll, ll[0])
        ent /= norm
        np.subtract(np.log(norm, out=norm), ent, out=ent)
        post_ent += w_j * (ent @ wq)
    return np.maximum(entropy(prior) - post_ent, 0.0)


def _ladder(nodes_fn, prior, tol, nodes, s_arr):
    """``nodes_fn`` on one chunk: at the fixed order ``nodes`` if given, else up
    ``NODE_LADDER`` until successive rungs agree to ``tol``."""
    def rung(n):
        return _rows(functools.partial(nodes_fn, prior, n=n), s_arr, n)

    if nodes is not None:
        return rung(nodes)
    prev = None
    for n in NODE_LADDER:
        cur = rung(n)
        if prev is not None and float(np.max(np.abs(cur - prev))) <= tol:
            return cur
        prev = cur
    raise QuadratureError(
        f"Gauss-Hermite refinement up to {NODE_LADDER[-1]} nodes did not "
        f"stabilize within {tol:g} (prior {prior.label or prior.atoms})")


def _rows(fn, s_arr: np.ndarray, width: int) -> np.ndarray:
    """``fn`` of a fixed rule with ``width`` nodes, on blocks of at most
    ``_BLOCK // width`` points of ``s_arr``.

    The rules' node sums are matrix-vector products, and OpenBLAS sums a row
    with a kernel picked by the row's place in groups of four.  Blocks are a
    multiple of four rows, so each row gets the value one call on all of
    ``s_arr`` gives it.  A last block of one row would reach BLAS as a dot
    product, so it joins the block before it.  The exception is a call big
    enough for BLAS to split across threads (241 to 255 rows at 1921 nodes,
    OpenBLAS 0.3.31), where the split can move rows between groups; the blocks
    are never split, so their values do not depend on the thread count.
    """
    rows = max(4, _BLOCK // width // 4 * 4)
    out = np.empty_like(s_arr)
    edges = [*range(0, max(s_arr.size - 1, 1), rows), s_arr.size]
    for lo, hi in zip(edges, edges[1:]):
        out[lo:hi] = fn(s_arr[lo:hi])
    return out


def _snr_grid(s_values) -> np.ndarray:
    s_arr = np.asarray(s_values, dtype=float)
    if not ((s_arr >= 0.0) & (s_arr < math.inf)).all():      # NaN fails both
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

    Two-atom priors go through the exact :func:`_mmse_two_point`, point by
    point; priors with more atoms climb the node ladder per chunk of ``_CHUNK``
    points to ``QUAD_TOL`` and raise :class:`QuadratureError` if it does not
    converge.  ``nodes`` pins a fixed Gauss-Hermite order for any prior, on the
    generic kernel: the brute-force reference for the exact path, but only
    where its nodes resolve the step.  At eps 1e-100, 1921 nodes are off by
    5.4e-7 to 7.0e-6 for t = s/2H from 0.94 to 1.04.
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
    _check_epsilon(epsilon)
    s_arr = _snr_grid(s)
    if (s_arr == 0.0).any():
        raise ValueError("s must be positive")
    arg = (s_arr - 2.0 * epsilon * math.log(1.0 / epsilon)) \
        / (2.0 * np.sqrt(s_arr) * math.sqrt(epsilon))
    out = 0.5 * _numerics.erfc(arg / math.sqrt(2.0))      # standard normal upper tail Q(arg)
    if np.ndim(s) == 0:
        return float(out)
    return out


def mutual_info_q_approx(epsilon: float, s: float) -> float:
    """Mutual information implied by the tail surrogate via I(s) = (1/2) int_0^s M.

    Only for the spike weights :func:`approx_epsilon` routes here, 0 < epsilon
    < ``APPROX_EPSILON``.  The integral stops at s_end <= 5.1e-10, where the
    surrogate's argument reaches 10 and M < 1e-23; a longer last panel would
    step over the transition at s0 and lose I.  It is one pass of QUADPACK's
    21-point Gauss-Kronrod rule on [0, s0] and [s0, s] (:func:`_numerics.quad`),
    whose summed |K21 - G10| <= 2*s_end is below quad's 1.49e-8, so it is quad's
    value: 7.6e-10 relative to the exact integral at eps 1e-16.  That accuracy
    is kept on purpose.  The committed references were made with it, and F is
    flat at its minimizers, so a more accurate I (4e-14, from integrating by
    parts) moved s_upper_star at eps 1e-16 by 3.4e-8 relative.
    """
    if not 0.0 < epsilon < APPROX_EPSILON:
        raise ValueError(f"epsilon must lie in (0, APPROX_EPSILON={APPROX_EPSILON:g}), "
                         f"got {epsilon!r}")
    s = float(_snr_grid(s))
    if s == 0.0:
        return 0.0
    s0 = 2.0 * epsilon * math.log(1.0 / epsilon)
    s_end = (10.0 * math.sqrt(epsilon) + math.sqrt(100.0 * epsilon + s0)) ** 2
    s = min(s, s_end)
    edges = [0.0, s0, s] if s0 < s else [0.0, s]
    return 0.5 * _numerics.quad(lambda u: mmse_q_approx(epsilon, u), edges)


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

    On the surrogate path the scalar value is :func:`mutual_info_q_approx`,
    which is tighter than the trapezoid of the curve version.
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
        s_hi = float(s_arr.max(initial=0.0))
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
