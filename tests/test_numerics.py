"""The numpy-only numerical routines against the scipy routines they replace.

scipy is the oracle here and nowhere in the package: the node table and the
root/minimizer ports must return scipy's doubles, the Gauss-Kronrod integral
must match quad's first pass, and the special functions must agree with
scipy's to rounding level.  The check that the package runs with scipy
unimportable lives in test_cli.py, which needs no scipy itself.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("scipy")

from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy.special import erfc, roots_hermite

from rsphase import _numerics, channel, potential
from rsphase.prior import two_point, two_point_entropy
from rsphase.thresholds import delta_amp, delta_mmse


class TestNodeTable:
    @pytest.mark.parametrize("n", channel.NODE_LADDER)
    def test_equals_scipy(self, n):
        x, w = channel._gh(n)
        x_ref, w_ref = roots_hermite(n)
        assert np.array_equal(x, x_ref * math.sqrt(2.0))
        assert np.array_equal(w, w_ref / math.sqrt(math.pi))

    def test_holds_the_ladder(self):
        with np.load(channel._HERMITE_TABLE) as table:
            keys = set(table.files)
        assert keys == {f"{c}{n}" for n in channel.NODE_LADDER for c in "xw"}

    def test_other_orders_raise(self):
        with pytest.raises(ValueError, match="rungs"):
            channel._gh(100)


# The phase workload's cells: spike weight x r at snr 5, for both thresholds.
_PHASE_CELLS = [(eps, r) for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-16) for r in (0.5, 0.9, 1.1, 2.0)]


@pytest.mark.parametrize("eps,r", _PHASE_CELLS)
def test_ports_equal_scipy(eps, r, monkeypatch):
    """Each brentq and bounded-minimizer call the potential makes gives scipy's doubles."""
    calls = []

    def checked_brentq(f, a, b, xtol, rtol):
        root = _numerics.brentq(f, a, b, xtol=xtol, rtol=rtol)
        calls.append((root, brentq(f, a, b, xtol=xtol, rtol=rtol)))
        return root

    def checked_minimize(f, a, b, xatol):
        x, fx = _numerics.minimize_bounded(f, a, b, xatol=xatol)
        res = minimize_scalar(f, bounds=(a, b), method="bounded", options={"xatol": xatol})
        calls.append(((x, fx), (float(res.x), float(res.fun))))
        return x, fx

    monkeypatch.setattr(potential, "brentq", checked_brentq)
    monkeypatch.setattr(potential, "minimize_bounded", checked_minimize)
    h, snr, prior = two_point_entropy(eps), 5.0, two_point(eps)
    potential.minimize(r * delta_mmse(h, snr), snr, prior)
    potential.smallest_stationary(r * delta_amp(h, snr), snr, prior)
    assert len(calls) >= 2
    for port, ref in calls:
        assert port == ref


def test_brentq_needs_a_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        _numerics.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12, rtol=1e-12)


def test_surrogate_information_matches_quad():
    """The Gauss-Kronrod integral is quad's to rounding wherever the package uses it.

    Summed in dqk21's order it is quad's double in 2,398 of these 2,400 cases;
    reordering one of dqk21's sums leaves about 190 cases off by an ulp.
    """
    worst, same = 0.0, 0
    for eps in np.geomspace(1e-13, 1e-100, 40):
        s0 = 2.0 * eps * math.log(1.0 / eps)
        s_end = (10.0 * math.sqrt(eps) + math.sqrt(100.0 * eps + s0)) ** 2
        for t in np.geomspace(0.01, 20.0, 60):
            s = 2.0 * two_point_entropy(eps) * t
            top = min(s, s_end)
            points = [s0] if s0 < top else None
            ref = 0.5 * quad(lambda u: channel.mmse_q_approx(eps, u), 0.0, top,
                             points=points, limit=200)[0]
            val = channel.mutual_info_q_approx(eps, s)
            worst, same = max(worst, abs(val - ref) / ref), same + (val == ref)
    assert worst <= 4e-16
    assert same >= 2390


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Fixed examples and no example database: tier-1 stays deterministic and writes nothing.
_PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)


@_PROPERTY
@given(st.lists(st.floats(-5.0, 26.0), min_size=1, max_size=8))
def test_erfc_matches_scipy(x):
    np.testing.assert_allclose(_numerics.erfc(x), erfc(x), rtol=1e-13, atol=0)


@_PROPERTY
@given(st.lists(_FINITE, min_size=1, max_size=8))
def test_special_functions_never_warn(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _numerics.erfc(x)
