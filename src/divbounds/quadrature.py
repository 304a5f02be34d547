"""Adaptive Gauss-Kronrod quadrature on a finite interval.

A 7-point Gauss / 15-point Kronrod pair gives an integral estimate and an
error estimate per interval; the interval with the largest error is split
until the summed error estimate meets the requested absolute tolerance.
No runtime path uses it: the test suite keeps it as an oracle that shares
no code with the closed-form Gaussian TV.
"""

import heapq

from .errors import QuadratureError

# (node, Gauss-7 weight, Kronrod-15 weight) on [-1, 1]
_GK15 = (
    (+0.991455371120813, 0.000000000000000, 0.022935322010529),
    (-0.991455371120813, 0.000000000000000, 0.022935322010529),
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.864864423359769, 0.000000000000000, 0.104790010322250),
    (-0.864864423359769, 0.000000000000000, 0.104790010322250),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.586087235467691, 0.000000000000000, 0.169004726639267),
    (-0.586087235467691, 0.000000000000000, 0.169004726639267),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (+0.207784955007898, 0.000000000000000, 0.204432940075298),
    (-0.207784955007898, 0.000000000000000, 0.204432940075298),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
)


def gauss_kronrod_15(f, a: float, b: float) -> tuple[float, float]:
    """One G7/K15 panel on [a, b]; returns (integral, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    g7 = 0.0
    k15 = 0.0
    for node, wg, wk in _GK15:
        fx = f(mid + half * node)
        g7 += wg * fx
        k15 += wk * fx
    g7 *= half
    k15 *= half
    diff = abs(k15 - g7)
    # QUADPACK-style sharpening for smooth integrands, never above |K - G|
    err = min(diff, (200.0 * diff) ** 1.5) if diff > 0 else 0.0
    err = max(err, 5e-17 * abs(k15))
    return k15, err


def integrate_adaptive(
    f,
    a: float,
    b: float,
    abs_tol: float = 1e-10,
    max_intervals: int = 2000,
) -> tuple[float, float]:
    """Integrate f over [a, b] to absolute tolerance ``abs_tol``.

    Returns (value, achieved error estimate). Raises QuadratureError if the
    interval budget is exhausted before the tolerance is met.
    """
    if not b > a:
        if b == a:
            return 0.0, 0.0
        raise ValueError(f"inverted interval [{a}, {b}]")
    val, err = gauss_kronrod_15(f, a, b)
    # max-heap on error via negated keys; counter breaks comparison ties
    heap = [(-err, 0, a, b, val)]
    count = 1
    total_err = err
    while total_err > abs_tol:
        if len(heap) >= max_intervals:
            raise QuadratureError(
                f"quadrature did not converge: {len(heap)} intervals, "
                f"error estimate {total_err:.3e} > tolerance {abs_tol:.3e}",
                achieved_error=total_err,
            )
        neg_err, _, lo, hi, _ = heapq.heappop(heap)
        total_err += neg_err  # neg_err is negative
        mid = 0.5 * (lo + hi)
        for seg in ((lo, mid), (mid, hi)):
            v, e = gauss_kronrod_15(f, *seg)
            heapq.heappush(heap, (-e, count, seg[0], seg[1], v))
            count += 1
            total_err += e
    return sum(item[4] for item in heap), total_err
