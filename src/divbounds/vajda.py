"""The optimal lower bound on KL divergence at fixed total variation.

Three routes to the same curve:

  * parametric: with t > 0 as parameter,
        delta(t) = t (1 - (coth t - 1/t)^2)
        L(t)     = log(t / sinh t) + t coth t - t^2 / sinh^2 t
    delta(t) is strictly increasing and concave with range (0, 2), so
    L(delta) is evaluated by inverting it (bisection, Newton for arrays);
  * direct minimization of a two-term objective over a bounded gamma
    interval (golden-section search);
  * a degree-8 polynomial lower bound
        (1/2) d^2 + (1/36) d^4 + (1/270) d^6 + (221/340200) d^8,
    the curve's own expansion in d to 8th order (Fedotov, Harremoes and
    Topsoe 2003), whose leading term is the classical quadratic bound.

Everything in this module works in the VARIATIONAL convention, delta in
[0, 2): the parametrization above saturates at sup_t delta(t) = 2 and the
gamma interval [delta - 2, 2 - delta] only makes sense on that scale.
Natural logarithms throughout; all three routes must share one base for
the bound orderings to hold.

The scalar routes use math only; numpy is imported inside the array
drivers (``_delta_at_array``, ``vajda_lower_bound_array``), so a scalar
caller never loads it. The formulas take a float or an array alike.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, _integer
from .measures import TvConvention, convert_tv
from .optimize import bisect_increasing, golden_section_minimize
from .serialize import dumps

# Beyond T_MAX, delta(t) is within 1e-12 of its asymptote 2 - 1/t and the
# hyperbolic terms saturate double precision; larger deltas are rejected
# with the asymptotic message rather than silently degraded.
T_MAX = 500.0

# Below this, coth t - 1/t loses most of its digits to cancellation; the
# Taylor branch of delta(t) keeps full relative precision.
_SMALL_T = 1e-4
# Above this, c = coth t - 1/t nears 1 and 1 - c^2 would round away the
# digits of a delta near 2, so delta(t) is taken as t (1 - c) (1 + c).
_FAR_T = 1.0
# Below this, L(t) is its power series in t^2 (measured within 2.4e-16
# relative), above it the closed form (within 2.6e-15).
_L_SERIES_T = 0.6
# vajda_lower_bound_array's pass count: a 7th pass moves no L by 1e-14 relative
_NEWTON_PASSES = 6
# The coefficients of t^2, t^4, ..., t^24 in L(t): 2^2n B_2n (4n^2 - 1) / (2n (2n)!)
_L_SERIES = (1 / 2, -1 / 12, 1 / 81, -1 / 600, 1 / 4725, -691 / 26790750, 2 / 654885,
             -3617 / 10216206000, 43867 / 1086110400375, -174611 / 38379184593750,
             155366 / 306265893058125, -236364091 / 4213973675765353500)

POLY_COEFFS = (0.5, 1.0 / 36.0, 1.0 / 270.0, 221.0 / 340200.0)


class CurvePoint(NamedTuple):
    """A (t, delta, l_value) triple on the optimal lower-bound curve."""

    t: float
    delta: float
    l_value: float


class GammaSearchResult(NamedTuple):
    """Minimizer and minimum of the direct two-term objective."""

    gamma_star: float
    value: float


def _delta_series(t):
    # delta = t - t^3/9 + 2 t^5/135 + O(t^7)
    t2 = t * t
    return t * (1.0 - t2 * (1.0 / 9.0 - t2 * (2.0 / 135.0)))


def _delta_near(t, m):
    # t (1 - c^2), c = coth t - 1/t with coth t = -(2 + m)/m for m = expm1(-2t)
    c = -(2.0 + m) / m - 1.0 / t
    return t * (1.0 - c * c)


def _delta_far(t, m):
    # s (2 - s/t) with s = t (1 - c) = 1 + 2t (1 + m)/m, free of cancellation
    s = 1.0 + 2.0 * t * (1.0 + m) / m
    return s * (2.0 - s / t)


def _slope_series(t):
    # delta'(t) = 1 - t^2/3 + 2 t^4/27 + O(t^6), the branch below _SMALL_T
    return 1.0 - t * t * (1.0 / 3.0 - t * t * (2.0 / 27.0))


def _slope(t, xp):
    # delta'(t) = 1 - c^2 - 2 t c (1/t^2 - 1/sinh^2 t); 4e-11 relative above _SMALL_T
    m = xp.expm1(-2.0 * t)
    c = -(2.0 + m) / m - 1.0 / t
    return 1.0 - c * c - 2.0 * t * c * (1.0 / (t * t) - 4.0 * (1.0 + m) / (m * m))


def _l_series(u):
    # Horner form in u = t^2
    acc = 0.0
    for coeff in reversed(_L_SERIES):
        acc = coeff + u * acc
    return u * acc


def _l_closed(t, xp):
    # log(t / sinh t) + t coth t - t^2 / sinh^2 t; ``xp`` is math or numpy
    r = t / xp.sinh(t)
    return xp.log(r) + t / xp.tanh(t) - r * r


def _delta_at(t: float) -> float:
    if t < _SMALL_T:
        return _delta_series(t)
    m = math.expm1(-2.0 * t)
    return _delta_near(t, m) if t <= _FAR_T else _delta_far(t, m)


def _delta_at_array(t: np.ndarray) -> np.ndarray:
    import numpy as np
    h = t.clip(_SMALL_T)  # where the series serves, h keeps the hyperbolic forms finite
    m = np.expm1(-2.0 * h)
    hyperbolic = np.where(h <= _FAR_T, _delta_near(h, m), _delta_far(h, m))
    return np.where(t < _SMALL_T, _delta_series(t), hyperbolic)


# delta(T_MAX), the largest delta the inversion resolves
_DELTA_MAX = _delta_at(T_MAX)


def _l_at(t: float) -> float:
    return _l_series(t * t) if t < _L_SERIES_T else _l_closed(t, math)


def curve_at_parameter(t: float) -> CurvePoint:
    """Evaluate the parametric curve at t > 0."""
    if not math.isfinite(t) or t <= 0:
        raise DomainError(f"curve parameter must be positive, got {t}")
    if t > T_MAX:
        raise DomainError(
            f"curve parameter {t} exceeds {T_MAX}; delta(t) is within 1e-12 "
            "of its asymptote there and the evaluation is numerically void"
        )
    return CurvePoint(t=t, delta=_delta_at(t), l_value=_l_at(t))


def delta_max() -> float:
    """Largest delta the parametric inversion can resolve (just below 2)."""
    return _DELTA_MAX


def curve_point_for_delta(
    delta: float, conv: TvConvention = TvConvention.VARIATIONAL
) -> CurvePoint:
    """Invert delta(t) by bisection and return the full curve point.

    The residual |delta(t*) - delta| is at most 1e-12; l_value is within
    1e-14 relative of L(delta) for delta in [1e-40, 1.9], 5e-14 up to
    delta_max(), and stuck at 1.21e-116 below delta ~ 1e-57.
    """
    d = convert_tv(delta, conv, TvConvention.VARIATIONAL)
    if d >= 2.0:
        raise DomainError(
            f"delta must lie in [0, 2) on the variational scale, got {d}"
        )
    if d == 0.0:
        return CurvePoint(t=0.0, delta=0.0, l_value=0.0)
    if d > _DELTA_MAX:
        raise DomainError(
            f"delta = {d} is beyond delta({T_MAX}) = {_DELTA_MAX:.15g}; the "
            "curve approaches 2 only asymptotically and the bound diverges"
        )
    # run the bisection to bracket collapse: delta'(t) <= 1 everywhere, so
    # the residual ends far below the documented 1e-12
    t_star, _ = bisect_increasing(_delta_at, d, lo=0.0, hi=T_MAX)
    return CurvePoint(t=t_star, delta=_delta_at(t_star), l_value=_l_at(t_star))


def vajda_lower_bound(
    delta: float, conv: TvConvention = TvConvention.VARIATIONAL
) -> float:
    """Smallest possible KL divergence at total variation ``delta``."""
    return curve_point_for_delta(delta, conv).l_value


def vajda_lower_bound_array(delta: np.ndarray) -> np.ndarray:
    """``vajda_lower_bound`` elementwise over a 1-D array of variational deltas.

    Every delta must lie in [0, delta_max()]. Newton's method climbs the
    concave delta(t) from t0 = delta, or 1/(2 - delta) if delta >= 1 (delta(t)
    <= t, and <= 2 - 1/t for t >= 1) in a fixed _NEWTON_PASSES passes; one
    more would move no L by 1e-14 relative. L matches the scalar driver to
    1e-14 relative from 1e-40 up, and delta^2/2 below (to 1e-15 relative, or
    the smallest normal double).
    """
    import numpy as np
    d = np.asarray(delta, dtype=float)
    if d.ndim != 1:
        raise DomainError(f"deltas must form a 1-D array, got shape {d.shape}")
    if not np.all((d >= 0.0) & (d <= _DELTA_MAX)):
        raise DomainError(
            f"every delta must lie in [0, {_DELTA_MAX:.15g}] on the variational scale"
        )
    t = np.where(d < 1.0, d, 1.0 / (2.0 - d))
    for _ in range(_NEWTON_PASSES):
        slope = np.where(t < _SMALL_T, _slope_series(t), _slope(t.clip(_SMALL_T), np))
        t = np.minimum(t + (d - _delta_at_array(t)) / slope, T_MAX)
    return np.where(t < _L_SERIES_T, _l_series(t * t), _l_closed(t.clip(_L_SERIES_T), np))


def _gamma_objective(d: float):
    # g -> ((d+2-g)/4) log((g-2-d)/(g-2+d)) + ((g+2-d)/4) log((g+2-d)/(g+2+d)),
    # each sum formed once per delta or per g, in the order written; the
    # second coefficient and its log argument vanish together at the left
    # endpoint, where the term's limit is 0.
    d2, log = d + 2.0, math.log

    def objective(g: float) -> float:
        gm, gp = g - 2.0, g + 2.0
        gpd = gp - d
        first = (d2 - g) / 4.0 * log((gm - d) / (gm + d))
        c2 = gpd / 4.0
        if c2 <= 0.0:
            return first
        return first + c2 * log(gpd / (gp + d))

    return objective


def reid_lower_bound(
    delta: float, conv: TvConvention = TvConvention.VARIATIONAL
) -> GammaSearchResult:
    """The same lower bound by direct minimization over gamma.

    Golden-section search on [delta - 2, 2 - delta], clamped inward by
    1e-13 of the interval width because the objective's derivative has log
    singularities at the endpoints.

    Contract: value is within 1e-6 (absolute) of ``vajda_lower_bound`` for
    delta in [0, 1.9]. Nearer 2 it exceeds the minimum by up to about
    1e-12 / (2 - delta): the search stops at a gamma bracket of 1e-12, where
    the objective's slope grows as 1/(2 - delta). At delta = 1e-8 and 1e-12
    it returns 0, where L is 5e-17 and 5e-25: near the minimizer the
    objective's two O(delta) terms cancel. ROADMAP item 12 plans its
    replacement.
    """
    d = convert_tv(delta, conv, TvConvention.VARIATIONAL)
    if d >= 2.0:
        raise DomainError(
            f"delta must lie in [0, 2) on the variational scale, got {d}"
        )
    lo, hi = d - 2.0, 2.0 - d
    eps = 1e-13 * (hi - lo)
    gamma, value = golden_section_minimize(_gamma_objective(d), lo + eps, hi - eps)
    return GammaSearchResult(gamma_star=gamma, value=max(value, 0.0))


def poly_lower_bound(delta: float) -> float:
    """Degree-8 polynomial lower bound on the curve (variational delta)."""
    if not math.isfinite(delta) or delta < 0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    return _poly(delta)


def _poly(delta):
    # Horner form in delta^2; serves floats and arrays alike
    d2 = delta * delta
    c0, c1, c2, c3 = POLY_COEFFS
    return d2 * (c0 + d2 * (c1 + d2 * (c2 + d2 * c3)))


def invert_poly_bound(xi: float) -> float:
    """The unique delta >= 0 with poly_lower_bound(delta) = xi.

    Newton's method in u = delta^2 on the quartic u (c0 + c1 u + c2 u^2 +
    c3 u^3), which is increasing and convex, so that a Newton step from
    either side of the root lands above it. The first step starts from the
    smallest of the upper bounds (xi / c_k)^(1/(k+1)) on the root; from
    there the iterates descend monotonically, and the first step that does
    not decrease u ends the search. Contract: |poly(delta*) - xi| <= 8 *
    2^-52 * xi, evaluated exactly, for every finite xi >= 0, with delta*
    finite up to the largest double. Any pair of measures whose KL
    divergence equals xi has total variation at most delta* (to this
    accuracy).
    """
    if not math.isfinite(xi) or xi < 0:
        raise DomainError(f"xi must be >= 0, got {xi}")
    if xi == 0.0:
        return 0.0
    c0, c1, c2, c3 = POLY_COEFFS

    def newton(u):
        # the residual divided by u, which stays finite at the largest xi
        residual = c0 + u * (c1 + u * (c2 + u * c3)) - xi / u
        slope = c0 + u * (2.0 * c1 + u * (3.0 * c2 + u * (4.0 * c3)))
        return u - residual * (u / slope)

    # each root is taken before its division, so that no bound overflows
    u = newton(min(
        xi / c0,
        math.sqrt(xi) / math.sqrt(c1),
        xi ** (1.0 / 3.0) / c2 ** (1.0 / 3.0),
        math.sqrt(math.sqrt(xi)) / math.sqrt(math.sqrt(c3)),
    ))
    while (nxt := newton(u)) < u:
        u = nxt
    return math.sqrt(u)


def _log_grid(t_min: float, t_max: float, n_points: int):
    # n_points log-spaced values, 10^(i step + log10 t_min) with both
    # endpoints exact: np.geomspace's formula, so the interior matches it
    # to an ulp wherever math and numpy agree on the endpoints' log10; lazy,
    # so a caller can stop at a point before the rest are made
    lo = math.log10(t_min)
    step = (math.log10(t_max) - lo) / (n_points - 1)
    yield float(t_min)
    yield from (10.0 ** (i * step + lo) for i in range(1, n_points - 1))
    yield float(t_max)


def emit_curve(t_min: float, t_max: float, n_points: int) -> list[CurvePoint]:
    """Sample the curve on a log-spaced parameter grid.

    Requires 0 < t_min < t_max <= T_MAX and n_points >= 2; the emitted
    deltas are strictly increasing, and a grid too fine for delta(t) to
    resolve raises DomainError at the first point that fails to rise.
    """
    if not (math.isfinite(t_min) and math.isfinite(t_max)) or t_min <= 0:
        raise DomainError(f"grid endpoints must be positive, got ({t_min}, {t_max})")
    if t_min >= t_max:
        raise DomainError(f"need t_min < t_max, got ({t_min}, {t_max})")
    if t_max > T_MAX:
        raise DomainError(f"t_max {t_max} exceeds {T_MAX}")
    n_points = _integer("n_points", n_points, 2)
    points = []
    for t in _log_grid(t_min, t_max, n_points):
        point = curve_at_parameter(t)
        if points and not point.delta > points[-1].delta:
            raise DomainError(
                f"grid finer than delta(t) resolves: emitted deltas not "
                f"strictly increasing at t = {point.t:.17g}"
            )
        points.append(point)
    return points


def curve_to_csv(points: list[CurvePoint]) -> str:
    """CSV with header t,delta,l_value; each number as ``serialize.dumps``
    prints it, the shortest text that round-trips."""
    lines = ["t,delta,l_value"]
    lines.extend(",".join(map(dumps, (p.t, p.delta, p.l_value))) for p in points)
    return "\n".join(lines) + "\n"


def curve_to_json(points: list[CurvePoint]) -> str:
    """JSON array of [t, delta, l_value] triples, each number the shortest
    text that round-trips."""
    return dumps([(p.t, p.delta, p.l_value) for p in points])
