"""Scalar bisection and golden-section search used across the package."""

import math

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

BISECT_MAX_ITER = 200
# the golden-section bracket width at which the search stops
_GOLDEN_X_TOL = 1e-12


def bisect_increasing(f, target: float, lo: float, hi: float) -> tuple[float, float]:
    """Solve f(x) = target for increasing f on (lo, hi) by bisection.

    Halves the bracket until its midpoint equals an endpoint (the bracket
    has collapsed to adjacent doubles) or ``BISECT_MAX_ITER`` halvings have
    been spent. The endpoints themselves are never evaluated. Returns (x, f(x)).
    """
    mid = 0.5 * (lo + hi)
    fm = f(mid)
    for _ in range(BISECT_MAX_ITER):
        if fm < target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
    return mid, fm


def golden_section_minimize(f, a: float, b: float) -> tuple[float, float]:
    """Minimize a unimodal f on [a, b]; returns (x, f(x)).

    The bracket shrinks by 1/phi per step until narrower than 1e-12;
    the better of the two interior probes is returned.
    """
    if not b >= a:
        raise ValueError(f"inverted interval [{a}, {b}]")
    h = b - a
    if h <= _GOLDEN_X_TOL:
        x = 0.5 * (a + b)
        return x, f(x)
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    fc = f(c)
    fd = f(d)
    n = max(1, math.ceil(math.log(_GOLDEN_X_TOL / h) / math.log(_INV_PHI)))
    for _ in range(n):
        if fc < fd:
            b, d, fd = d, c, fc
            h = _INV_PHI * h
            c = b - _INV_PHI * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = _INV_PHI * h
            d = a + _INV_PHI * h
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)
