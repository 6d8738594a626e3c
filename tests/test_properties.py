"""Properties of M, I, the smallest stationary point and the potential scan, with numpy alone.

The domain is fixed: standardized priors of 3-7 atoms drawn in [-4, 4] with
every weight at least 1e-3, two-point priors with eps = 10**u for u in
[-100, log10 0.5], and the grid s = geomspace(1e-3, 50, 64), or its 2000-point
version where a value must not depend on the other points of its grid.  The
smallest stationary point is checked on two-point priors with eps in
[1e-30, 0.5], snr in [1e-3, 1e4] and delta from 0.2 to 2 times delta_amp.
The signs ``minimize`` certifies from M are checked against the full scan's F
on quadrature-route priors with snr in [1e-2, 1e3] and delta from 0.2 to 3
times the information threshold, and its candidates against the full scan's
on fixed cases.
Two-point Monte Carlo draws eps in [1e-12, 0.5] and t = s/2H in [0.03, 5].
Two-point spike weights are split at ``channel.APPROX_EPSILON`` into the
quadrature route and the tail-surrogate route; together they cover the whole
range.  Examples are derandomized and no example database is kept, so every
run checks the same cases.  The module ends with the shape contract of every
function of s or t, on fixed inputs.
"""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from rsphase import channel, potential
from rsphase._numerics import brentq
from rsphase.amp import mc_mmse, mc_mmse_two_point
from rsphase.potential import BracketError, smallest_stationary, stationary_bracket
from rsphase.prior import (DiscretePrior, entropy, two_point, two_point_entropy,
                           two_point_epsilon)
from rsphase.thresholds import delta_amp, delta_mmse

S = np.geomspace(1e-3, 50.0, 64)
S_LONG = np.geomspace(1e-3, 50.0, 2000)
MIN_WEIGHT = 1e-3
_LOG_CUTOFF = math.log10(channel.APPROX_EPSILON)

_PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)


@st.composite
def discrete_priors(draw):
    k = draw(st.integers(3, 7))
    atoms = np.sort(draw(st.lists(st.floats(-4.0, 4.0), min_size=k, max_size=k, unique=True)))
    raw = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    assume(raw.sum() > 0.0)
    # Every weight vector with all weights >= MIN_WEIGHT is reachable this way.
    # Normalize first: scaling a subnormal raw weight before dividing rounds it
    # back up, and raw (0, 0, 5e-324) would give weights summing to 1 + 3*MIN_WEIGHT.
    weights = MIN_WEIGHT + (1.0 - k * MIN_WEIGHT) * (raw / raw.sum())
    mean = weights @ atoms
    std = math.sqrt(weights @ (atoms - mean) ** 2)
    assume(std > 0.0)
    standardized = (atoms - mean) / std
    # Atoms a few ulps apart can round onto each other once rescaled.
    assume(np.all(np.diff(standardized) > 0.0))
    return DiscretePrior(tuple(standardized), tuple(weights))


def _epsilons(lo, hi, **kw):
    return st.floats(lo, hi, **kw).map(lambda u: 10.0 ** u)


QUADRATURE_EPS = _epsilons(_LOG_CUTOFF, math.log10(0.5))
SURROGATE_EPS = _epsilons(-100.0, _LOG_CUTOFF, exclude_max=True)
QUADRATURE_PRIORS = st.one_of(discrete_priors(), QUADRATURE_EPS.map(two_point))


def _check_mmse(m, slack):
    assert np.all(m >= 0.0)
    assert np.all(m <= 1.0 / (1.0 + S) + channel.QUAD_TOL)
    assert np.all(np.diff(m) <= slack)


@_PROPERTY
@given(discrete_priors())
def test_mmse_bounded_and_nonincreasing_many_atoms(prior):
    _check_mmse(channel.mmse_curve(prior, S), 2.0 * channel.QUAD_TOL)


@_PROPERTY
@given(st.one_of(QUADRATURE_EPS, SURROGATE_EPS))
def test_mmse_bounded_and_nonincreasing_two_point(eps):
    prior = two_point(eps)
    # The exact path at every eps, then what the other layers read: the
    # surrogate below APPROX_EPSILON.
    _check_mmse(channel.mmse_curve(prior, S), 1e-12)
    _check_mmse(channel.mmse_eval_curve(prior, S)[0], 1e-12)


@_PROPERTY
@given(QUADRATURE_PRIORS)
def test_information_bounded_and_nondecreasing_on_quadrature_route(prior):
    i_vals, mode = channel.mutual_info_eval_curve(prior, S)
    slack = 2.0 * channel._mi_tol(prior)
    assert mode == channel.MODE_QUADRATURE
    assert np.all(i_vals >= 0.0)
    assert np.all(i_vals <= np.minimum(S / 2.0, entropy(prior)) + slack)
    assert np.all(np.diff(i_vals) >= -slack)


# A known failure fails on its pinned example before any generation, so no
# hypothesis version can turn it into an unexpected pass.
_KNOWN_FAILURE = settings(_PROPERTY, phases=[Phase.explicit, Phase.generate])


@pytest.mark.xfail(strict=True, reason=(
    "the surrogate route's trapezoid of M on 8192 even steps of [0, max s] swallows "
    "the transition at s0 = 2 eps ln(1/eps) and puts I far above H (the benchmark's "
    "channel-1e-16 writes I up to 1.5e-3 against H = 3.8e-15); see the CHANGES.md "
    "FOUND line on mutual_info_eval_curve and ROADMAP item 3, exact two-point I"))
@_KNOWN_FAILURE
@given(SURROGATE_EPS)
@example(1e-16)
def test_information_below_entropy_on_surrogate_route(eps):
    prior = two_point(eps)
    i_vals, mode = channel.mutual_info_eval_curve(prior, S)
    assert mode == channel.MODE_APPROX
    assert np.all(i_vals <= np.minimum(S / 2.0, entropy(prior)) + 2.0 * channel._mi_tol(prior))


@pytest.mark.xfail(strict=True, reason=(
    "mc_mmse's sample standard error is no error bar when M rests on a few rare "
    "draws: at the pinned prior and s = 0.3435, M = 1.2637e-4 (1921 Gauss-Hermite "
    "nodes agree to 2e-13), but 20000 samples give 3.0e-6 +- 3.0e-6, 41 SE off; "
    "see the CHANGES.md FOUND line on amp.mc_mmse"))
@_KNOWN_FAILURE
@given(discrete_priors(), st.sampled_from(S))
@example(DiscretePrior((-28.26729686634068, -14.112416112038886, 0.04246464226290699),
                       (0.001, 0.001, 0.998)), 0.34352003064269393)
def test_mmse_within_four_standard_errors_of_monte_carlo(prior, s):
    est, se = mc_mmse(prior, s, 20000, seed=0)
    assert abs(channel.mmse(prior, s) - est) <= 4.0 * se


MC_EPS = _epsilons(-12.0, math.log10(0.5))
MC_T = st.floats(0.03, 5.0)


def _check_two_point_monte_carlo(eps, t, min_m):
    s = 2.0 * two_point_entropy(eps) * t
    m = channel.mmse(two_point(eps), s)
    assume(m >= min_m)
    est, se = mc_mmse_two_point(eps, s, 100_000, seed=0)
    assert abs(m - est) <= 4.0 * se


@_PROPERTY
@given(MC_EPS, MC_T)
def test_two_point_mmse_within_four_standard_errors_of_monte_carlo(eps, t):
    _check_two_point_monte_carlo(eps, t, 1e-4)


@pytest.mark.xfail(strict=True, reason=(
    "mc_mmse_two_point's sample standard error is no error bar where M rests on "
    "rare draws, past the transition: at eps = 4.8587e-11, t = 4.0992, M = 3.166e-8 "
    "(channel.mmse, exact for two atoms), but 10^5 samples give 1.1e-11 +- 1.1e-11; "
    "see the CHANGES.md FOUND line on amp.mc_mmse_two_point"))
@_KNOWN_FAILURE
@given(MC_EPS, MC_T)
@example(4.8587e-11, 4.0992)
def test_two_point_mmse_within_four_standard_errors_of_monte_carlo_at_any_m(eps, t):
    _check_two_point_monte_carlo(eps, t, 0.0)


# A point's value must not depend on which other points share its grid: the
# 2000-point curve at some indices against one single-point call per index.
# The explicit examples check every index.
GRID_INDICES = st.lists(st.integers(0, S_LONG.size - 1), min_size=1, max_size=16, unique=True)
ALL_INDICES = list(range(S_LONG.size))
TERNARY = DiscretePrior((-math.sqrt(10.0), 0.0, math.sqrt(10.0)), (0.05, 0.9, 0.05))


def _check_chunk_independent(curve, prior, indices, rtol):
    full = curve(prior, S_LONG)[indices]
    alone = np.array([curve(prior, [s])[0] for s in S_LONG[indices]])
    assert np.all(np.abs(full - alone) <= rtol * np.maximum(np.abs(full), np.abs(alone)))


@_PROPERTY
@given(st.one_of(QUADRATURE_EPS, SURROGATE_EPS), GRID_INDICES)
@example(0.1, ALL_INDICES)
@example(1e-4, ALL_INDICES)
@example(1e-8, ALL_INDICES)
def test_exact_two_point_mmse_independent_of_its_grid(eps, indices):
    # Not bitwise: the exact path's node sums are BLAS products, which can
    # round a row differently with its neighbours (5.5e-16 seen at eps 0.1).
    _check_chunk_independent(channel.mmse_curve, two_point(eps), indices, 1e-15)


def _surrogate_mmse(prior, s_values):
    m_vals, mode = channel.mmse_eval_curve(prior, s_values)
    assert mode == channel.MODE_APPROX
    return m_vals


@_PROPERTY
@given(SURROGATE_EPS, GRID_INDICES)
@example(1e-16, ALL_INDICES)
@example(1e-50, ALL_INDICES)
def test_surrogate_mmse_independent_of_its_grid(eps, indices):
    _check_chunk_independent(_surrogate_mmse, two_point(eps), indices, 0.0)


@pytest.mark.xfail(strict=True, reason=(
    "the node ladder stops when a whole 256-point chunk has converged, so a point "
    "in a chunk reaches at least the rung it reaches alone: the ternary M at "
    "s = 12.37 is 8.558e-8 on the 2000-point grid and 8.316e-8 alone; see the "
    "CHANGES.md FOUND line on chunk-wise ladder convergence"))
@_KNOWN_FAILURE
@given(discrete_priors(), GRID_INDICES)
@example(TERNARY, [1741])
def test_many_atom_mmse_independent_of_its_grid(prior, indices):
    _check_chunk_independent(channel.mmse_curve, prior, indices, 1e-15)


def _quadrature_information(prior, s_values):
    i_vals, mode = channel.mutual_info_eval_curve(prior, s_values)
    assert mode == channel.MODE_QUADRATURE
    return i_vals


@pytest.mark.xfail(strict=True, reason=(
    "the node ladder stops when a whole 256-point chunk has converged: I of "
    "two_point(1e-4) at s = 4.58e-3 differs by 1.6e-6 relative between the "
    "2000-point grid and a single-point call; see the CHANGES.md FOUND line on "
    "chunk-wise ladder convergence"))
@_KNOWN_FAILURE
@given(QUADRATURE_PRIORS, GRID_INDICES)
@example(two_point(1e-4), [281])
def test_quadrature_information_independent_of_its_grid(prior, indices):
    _check_chunk_independent(_quadrature_information, prior, indices, 1e-15)


def _dense_scan_root(delta, snr, prior):
    """The first sign change of the stationary residual on 20,001 log-spaced
    points of the admissible interval, refined as ``smallest_stationary``
    refines its bracket.  None where the scan resolves no crossing: M at the
    first point rounds to the prior's second moment, or the first point is
    already past the crossing."""
    lo, hi = stationary_bracket(delta, snr)
    grid = np.geomspace(lo, hi, 20_001)
    m_vals, _ = channel.mmse_eval_curve(prior, grid)
    k = int(np.flatnonzero(grid * m_vals - (delta * snr - grid) / snr >= 0.0)[0])
    if m_vals[0] >= prior.weight_array @ prior.atom_array ** 2 * (1.0 - 1e-15) or k == 0:
        return None
    return brentq(lambda s: s * channel.mmse_eval(prior, s)[0] - (delta * snr - s) / snr,
                  grid[k - 1], grid[k], xtol=lo * 1e-14, rtol=1e-12)


@_PROPERTY
@given(_epsilons(-30.0, math.log10(0.5)), st.floats(-3.0, 4.0).map(lambda u: 10.0 ** u),
       st.floats(0.2, 2.0))
@example(1e-2, 5.0, 0.49885)
@example(1e-4, 5.0, 2.0)
def test_smallest_stationary_matches_full_scan(eps, snr, r):
    # The isolation certifies every interval below its bracket root-free, so
    # its root is a dense scan's first crossing, and where that scan cannot
    # resolve the crossing, the isolation must raise.
    delta = r * delta_amp(two_point_entropy(eps), snr)
    root = _dense_scan_root(delta, snr, two_point(eps))
    if root is None:
        with pytest.raises(BracketError):
            smallest_stationary(delta, snr, two_point(eps))
    else:
        assert smallest_stationary(delta, snr, two_point(eps)) == pytest.approx(root, rel=1e-12,
                                                                                abs=0.0)


def _full_scan_f(delta, snr, prior):
    """F on every point of ``minimize``'s scan grid, from one call on the whole grid."""
    lo, hi = stationary_bracket(delta, snr)
    grid = np.geomspace(lo * (1.0 - potential.BRACKET_PAD), hi * (1.0 + potential.BRACKET_PAD),
                        potential.GRID_POINTS)
    i_vals, _ = channel.mutual_info_eval_curve(prior, grid)
    return grid, i_vals + 0.5 * delta * potential._logdiv(grid / (delta * snr))


def _full_scan_brackets(delta, snr, prior):
    """The refinement brackets of the full scan's local minima: ties count inside,
    the endpoints need a strict drop."""
    grid, f = _full_scan_f(delta, snr, prior)
    is_min = np.empty(f.size, dtype=bool)
    is_min[1:-1] = (f[1:-1] <= f[:-2]) & (f[1:-1] <= f[2:])
    is_min[0] = f[0] < f[1]
    is_min[-1] = f[-1] < f[-2]
    return [(grid[max(k - 1, 0)], grid[min(k + 1, f.size - 1)]) for k in np.flatnonzero(is_min)]


def _standardized_prior(rng, k):
    atoms = np.sort(rng.uniform(-3.0, 3.0, k))
    weights = rng.uniform(0.05, 1.0, k)
    weights /= weights.sum()
    mean = weights @ atoms
    std = math.sqrt(weights @ (atoms - mean) ** 2)
    return DiscretePrior(tuple((atoms - mean) / std), tuple(weights))


def _at_threshold(eps, r, snr=5.0, threshold=delta_mmse):
    return two_point(eps), r * threshold(two_point_entropy(eps), snr), snr


def _minimize_cases():
    """(prior, delta, snr) for the certified-scan check: the mmse cells of the
    phase sweep at eps >= 1e-8, the smallest-stationary scan cases, Rademacher
    and 40 random two-point configurations."""
    cases = {f"phase-{eps:g}-{r}": _at_threshold(eps, r)
             for eps in (1e-2, 1e-4, 1e-6, 1e-8) for r in (0.5, 0.9, 1.1, 2.0)}
    cases.update({
        "eps0.1": _at_threshold(0.1, 1.1),
        "eps1e-4": _at_threshold(1e-4, 1.1),
        "eps1e-8": _at_threshold(1e-8, 1.1),
        "ternary": (TERNARY, 0.8, 5.0),
        **{f"eps1e-2-amp{r}": _at_threshold(1e-2, r, threshold=delta_amp)
           for r in (0.49, 0.5, 0.51)},
        "eps1e-4-amp2": _at_threshold(1e-4, 2.0, threshold=delta_amp),
        "eps1e-16-it1.5": _at_threshold(1e-16, 1.5),
        "eps1e-50-it1.5": _at_threshold(1e-50, 1.5),
        "eps0.1-snr1e-12": _at_threshold(0.1, 1.1, 1e-12),
        "eps0.1-snr1e8": _at_threshold(0.1, 1.1, 1e8),
        "random5": (_standardized_prior(np.random.default_rng(5), 5), 0.7, 5.0),
        "amp-0.86": (two_point(0.1), 0.86, 10.0),
        "amp-0.2": (two_point(0.1), 0.2, 10.0),
        "rademacher": (two_point(0.5), 1.0, 1.0),
    })
    rng = np.random.default_rng(12345)
    for j in range(40):
        eps, snr, r = 10.0 ** rng.uniform([math.log10(0.05), math.log10(0.3), math.log10(0.5)],
                                          [math.log10(0.5), math.log10(8.0), math.log10(2.0)])
        cases[f"random-two-point-{j}"] = _at_threshold(eps, r, snr)
    return cases


MINIMIZE_CASES = _minimize_cases()


@pytest.mark.parametrize("prior, delta, snr", MINIMIZE_CASES.values(), ids=MINIMIZE_CASES.keys())
def test_minimize_refines_the_full_scans_minima(prior, delta, snr, monkeypatch):
    # minimize reads I only where M leaves a step's sign open; the basins it
    # refines must be the full scan's, bracket for bracket, bit for bit.
    brackets = []
    refine = potential.minimize_bounded

    def recording(fn, a, b, **kw):
        brackets.append((a, b))
        return refine(fn, a, b, **kw)

    monkeypatch.setattr(potential, "minimize_bounded", recording)
    potential.minimize(delta, snr, prior)
    assert brackets == _full_scan_brackets(delta, snr, prior)


@_PROPERTY
@given(QUADRATURE_PRIORS, st.floats(-2.0, 3.0).map(lambda u: 10.0 ** u), st.floats(0.2, 3.0))
@example(two_point(1e-2), 5.0, 2.0)
@example(two_point(1e-8), 5.0, 1.1)
@example(TERNARY, 5.0, 1.0)
def test_certified_steps_have_their_sign_in_the_full_scan(prior, snr, r):
    delta = r * delta_mmse(entropy(prior), snr)
    grid, f = _full_scan_f(delta, snr, prior)
    signs = potential._certified_steps(delta, snr, prior, grid)
    certified = signs != 0.0
    # A certified step changes the true F by more than 4*_mi_tol with its sign;
    # with each I within _mi_tol, the full scan shows more than half of that.
    assert np.all(np.diff(f)[certified] * signs[certified] > 2.0 * channel._mi_tol(prior))


def _scan_reads(monkeypatch, delta, snr, prior):
    """Sizes of the s arrays ``minimize`` passes to ``mutual_info_eval_curve``."""
    seen = []
    curve = channel.mutual_info_eval_curve

    def counting(prior, s_values):
        seen.append(len(s_values))
        return curve(prior, s_values)

    with monkeypatch.context() as patch:
        patch.setattr(channel, "mutual_info_eval_curve", counting)
        potential.minimize(delta, snr, prior)
    return seen


# The quadrature-route mmse cells of the phase sweep, and the landscape
# benchmark's potential operations: delta 1.1 times the information threshold
# at snr 5, and the ternary prior at delta 0.8.
PHASE_SCAN_CASES = {name: case for name, case in MINIMIZE_CASES.items()
                    if name.startswith("phase-")}
POTENTIAL_SCAN_CASES = {**{f"potential-{eps:g}": _at_threshold(eps, 1.1)
                           for eps in (0.1, 1e-4, 1e-8, 1e-16)},
                        "potential-ternary": (TERNARY, 0.8, 5.0)}


def test_scan_reads_i_in_at_most_one_call(monkeypatch):
    reads = {name: _scan_reads(monkeypatch, delta, snr, prior) for name, (prior, delta, snr)
             in {**PHASE_SCAN_CASES, **POTENTIAL_SCAN_CASES}.items()}
    assert all(len(sizes) <= 1 for sizes in reads.values()), reads
    # The read chunks are whole but the grid's short last one, which comes
    # last, so one call re-forms them and reads what one call per run read.
    assert sum(sum(reads[name]) for name in PHASE_SCAN_CASES) == 18_320


def test_scan_reads_i_in_one_chunk_where_f_is_steep(monkeypatch):
    # At eps 1e-2, r 2, snr 5, M certifies every step outside one chunk.
    prior, delta, snr = _at_threshold(1e-2, 2.0)
    assert sum(_scan_reads(monkeypatch, delta, snr, prior)) <= channel._CHUNK


def test_surrogate_scan_reads_the_whole_grid_at_once(monkeypatch):
    # The tail surrogate's I depends on the grid's largest s, so nothing is
    # certified there, even where F is steep.
    assert _scan_reads(monkeypatch, 1.0, 5.0, two_point(1e-16)) == [potential.GRID_POINTS]


# The shape contract: every function that takes s or t takes a float or an
# array of any shape.  A float or a 0-d array gives a float, any other array an
# array of its shape, whose values are those of the call on the raveled array.
SHAPE_PRIORS = {"eps0.1": two_point(0.1), "eps1e-16": two_point(1e-16), "ternary": TERNARY}
# potential_deriv(1, 5, two_point(0.1), GRID_2D) used to raise IndexError: the
# curves indexed a 2-D s with flat indices.
GRID_2D = np.array([[0.5, 1.0], [2.0, 3.0]])


def _s_and_t_functions(prior):
    """Name and one-argument form of every function of s or t, for ``prior``."""
    delta, snr, r = 1.0, 5.0, 1.1
    fns = {
        "mmse_curve": functools.partial(channel.mmse_curve, prior),
        "mutual_info_curve": functools.partial(channel.mutual_info_curve, prior),
        "mmse": functools.partial(channel.mmse, prior),
        "mutual_info": functools.partial(channel.mutual_info, prior),
        "mmse_eval_curve": lambda s: channel.mmse_eval_curve(prior, s)[0],
        "mmse_eval": lambda s: channel.mmse_eval(prior, s)[0],
        "mutual_info_eval_curve": lambda s: channel.mutual_info_eval_curve(prior, s)[0],
        "mutual_info_eval": lambda s: channel.mutual_info_eval(prior, s)[0],
        "potential": functools.partial(potential.potential, delta, snr, prior),
        "potential_deriv": functools.partial(potential.potential_deriv, delta, snr, prior),
        "limit_potential": functools.partial(potential.limit_potential, r, snr),
    }
    eps = two_point_epsilon(prior)
    if eps is not None:
        fns["mmse_q_approx"] = functools.partial(channel.mmse_q_approx, eps)
        fns["normalized_curve"] = functools.partial(potential.normalized_curve, eps, r, snr)
        fns["normalized_potential"] = functools.partial(potential.normalized_potential,
                                                        eps, r, snr)
    if channel.approx_epsilon(prior) is not None:
        fns["mutual_info_q_approx"] = functools.partial(channel.mutual_info_q_approx, eps)
    return fns


@pytest.mark.parametrize("prior", SHAPE_PRIORS.values(), ids=SHAPE_PRIORS.keys())
def test_float_or_0d_array_in_gives_float_out(prior):
    for name, fn in _s_and_t_functions(prior).items():
        value, zero_d = fn(0.5), fn(np.array(0.5))
        assert type(value) is float and type(zero_d) is float, name
        assert zero_d == value, name


@pytest.mark.parametrize("prior", SHAPE_PRIORS.values(), ids=SHAPE_PRIORS.keys())
def test_arrays_keep_their_shape(prior):
    for name, fn in _s_and_t_functions(prior).items():
        flat = fn(GRID_2D.ravel())
        assert isinstance(flat, np.ndarray) and flat.shape == (GRID_2D.size,), name
        grid = fn(GRID_2D)
        assert isinstance(grid, np.ndarray) and grid.shape == GRID_2D.shape, name
        assert np.array_equal(grid, flat.reshape(GRID_2D.shape)), name
        assert np.array_equal(fn(GRID_2D.tolist()), grid), name


@pytest.mark.parametrize("prior", SHAPE_PRIORS.values(), ids=SHAPE_PRIORS.keys())
def test_curves_take_zeros_anywhere_in_an_array(prior):
    # s = 0 takes the curve's value at zero; the positive entries are evaluated
    # in flat order, whatever the shape.
    s = np.array([[0.0, 1.0], [2.0, 0.0]])
    for curve, at_zero in ((channel.mmse_curve, 1.0), (channel.mutual_info_curve, 0.0)):
        out = curve(prior, s)
        assert out.shape == s.shape
        assert out[0, 0] == out[1, 1] == pytest.approx(at_zero, abs=1e-15)
        assert np.array_equal(out[[0, 1], [1, 0]], curve(prior, [1.0, 2.0]))


@pytest.mark.parametrize("grid, message", [
    (GRID_2D, "1-D array"), (1.0, "1-D array"), (np.array(1.0), "1-D array"), ([], "1-D array"),
    ([1.0, 1.0], "strictly increasing"), ([2.0, 1.0], "strictly increasing"),
    ([1.0, math.nan], "finite and nonnegative")],
    ids=["2-D", "float", "0-d", "empty", "repeated", "decreasing", "nan"])
def test_channel_curve_needs_a_1d_increasing_grid(grid, message):
    with pytest.raises(ValueError, match=message):
        channel.channel_curve(two_point(0.1), grid)


def test_two_point_mmse_past_the_double_range_is_zero_without_warning():
    # s*D^2/2 overflows there; the suite turns a RuntimeWarning into a failure.
    assert channel.mmse(two_point(0.1), 5e307) == 0.0
    assert np.array_equal(channel.mmse_curve(two_point(0.5), [1e308, 1.7e308]), [0.0, 0.0])


@pytest.mark.parametrize("prior, s", [(two_point(0.1), 2e307), (TERNARY, 1e307), (TERNARY, 5e307),
                                      (two_point(1e-8), 1e301), (TERNARY, 1.7976931348623157e308)],
                         ids=["eps0.1-2e307", "ternary-1e307", "ternary-5e307", "eps1e-8-1e301",
                              "ternary-max"])
def test_channel_answers_with_its_limit_at_the_top_of_the_double_range(prior, s):
    # The node kernels' intermediates overflow there, and every rung came out
    # NaN; each point takes the s -> inf limit, M = 0 and I = H.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert channel.mmse(prior, s) == 0.0
        assert channel.mutual_info(prior, s) == entropy(prior)
        assert channel.mutual_info_eval(prior, s) == (entropy(prior), channel.MODE_QUADRATURE)
        for nodes in channel.NODE_LADDER:
            assert channel.mmse_curve(prior, [s], nodes=nodes)[0] == 0.0
            assert channel.mutual_info_curve(prior, [s], nodes=nodes)[0] == entropy(prior)
