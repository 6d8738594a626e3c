"""The numerical routines the package runs, on numpy and the standard library.

Each reproduces the values of the scipy routine the package was built on, so
that the committed reference outputs hold:

- :func:`brentq` is scipy's C ``brentq`` (Brent 1973) line for line;
- :func:`minimize_bounded` is scipy's ``minimize_scalar(method="bounded")``;
- :func:`quad` is one pass of QUADPACK's 21-point Gauss-Kronrod rule
  ``dqk21`` (Piessens et al. 1983) over given panels;
- :func:`erfc` maps ``math.erfc`` over an array.

The ports keep every arithmetic step, so they return scipy's doubles; quad
differs from QUADPACK's first pass in the last bit at most, and erfc differs
from scipy's at rounding level.  The potential's minimizers sit on a flat F,
where a small change of I moves them far more than the change itself, which is
why the ports do not improve on what they port.
"""

from __future__ import annotations

import math

import numpy as np

_BRENTQ_MAXITER = 100          # scipy's defaults
_MINIMIZE_MAXFUN = 500

def brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of ``f`` in the bracket [a, b]: scipy's ``brentq``, step for step.

    Raises ValueError if f(a) and f(b) have the same sign or f returns NaN,
    and RuntimeError after scipy's default of 100 iterations without convergence.
    """
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)            # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)                    # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry                                 # good short step
            else:
                spre = scur = sbis                                      # bisect
        else:
            spre = scur = sbis                                          # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENTQ_MAXITER} iterations, value is {xcur}")


def minimize_bounded(func, a: float, b: float, xatol: float):
    """Local minimizer of ``func`` on [a, b] and its value, ``(x, func(x))``.

    Brent's golden-section search with parabolic steps, as scipy's
    ``minimize_scalar(method="bounded")``: the same steps and the same doubles.
    Like scipy it stops after 500 evaluations, converged or not.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(a), float(b)
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:                                   # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MINIMIZE_MAXFUN:
            break
    return xf, fx


def _sign(v: float) -> float:
    """numpy's ``sign(v) + (v == 0)``: the direction of a step, +1 at zero."""
    return -1.0 if v < 0 else 1.0


# dqk21's abscissae (the 10-point Gauss nodes at the odd indices) and Kronrod weights.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720])
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)


def _qk21(f, a: float, b: float) -> float:
    """QUADPACK's ``dqk21`` estimate of the integral of ``f`` over [a, b].

    ``f`` takes all 21 abscissae in one array; the sum runs in dqk21's order,
    the centre, then the Gauss-node pairs, then the Kronrod-only pairs, so the
    estimate is dqk21's double.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    absc = hlgth * _XGK
    fv = f(np.concatenate(([centr], centr - absc, centr + absc))).tolist()
    resk = _WGK[10] * fv[0]
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        resk = resk + _WGK[j] * (fv[1 + j] + fv[11 + j])
    return resk * hlgth


def quad(f, edges) -> float:
    """Integral of the vectorized ``f`` over [edges[0], edges[-1]].

    One dqk21 pass per panel between consecutive ``edges``, summed in order as
    QUADPACK's ``dqagpe`` does: ``scipy.integrate.quad``'s value with
    ``points=edges[1:-1]`` wherever quad accepts its first pass.
    """
    return sum(_qk21(f, lo, hi) for lo, hi in zip(edges, edges[1:]))


def erfc(x):
    """Complementary error function, elementwise; same shape as ``x``."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)

