"""The optimal lower bound on KL divergence at fixed total variation.

Three routes to the same curve:

  * parametric: with t > 0 as parameter,
        delta(t) = t (1 - (coth t - 1/t)^2)
        L(t)     = log(t / sinh t) + t coth t - t^2 / sinh^2 t
    delta(t) is strictly increasing with range (0, 2), so L(delta) is
    evaluated by bisecting on t;
  * direct minimization of a two-term objective over a bounded gamma
    interval (golden-section search);
  * a degree-8 polynomial lower bound
        (1/2) d^2 + (1/36) d^4 + (1/270) d^6 + (221/340200) d^8,
    whose leading term is the classical quadratic lower bound.

Everything in this module works in the VARIATIONAL convention, delta in
[0, 2): the parametrization above saturates at sup_t delta(t) = 2 and the
gamma interval [delta - 2, 2 - delta] only makes sense on that scale.
Natural logarithms throughout; all three routes must share one base for
the bound orderings to hold.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .measures import TvConvention, convert_tv
from .optimize import BISECT_MAX_ITER, bisect_increasing, golden_section_minimize

# Beyond T_MAX, delta(t) is within 1e-12 of its asymptote 2 - 1/t and the
# hyperbolic terms saturate double precision; larger deltas are rejected
# with the asymptotic message rather than silently degraded.
T_MAX = 500.0

# Below this, coth t - 1/t loses most of its digits to cancellation; the
# Taylor branches keep full relative precision.
_SMALL_T = 1e-4

# _l_at cancels O(1) terms down to O(t^2), so a few ulps of t, or of a
# hyperbolic function, move it by up to 3e-8 relative just above _SMALL_T,
# 4e-10 at t = 1e-3 and 2e-12 at t = 2e-2. Below this delta the batched curve
# therefore repeats the scalar evaluation exactly.
_EXACT_PATH_DELTA = 1e-2
# numpy's tanh differs from math.tanh, so _delta_at_array from _delta_at, by
# up to 4.5e-15 relative (measured over 5e5 t in [1e-4, T_MAX]); comparisons
# this close to their target are left to the scalar kernel
_ARRAY_DELTA_MARGIN = 1e-13

POLY_COEFFS = (0.5, 1.0 / 36.0, 1.0 / 270.0, 221.0 / 340200.0)


@dataclass(frozen=True)
class CurvePoint:
    """A (t, delta, l_value) triple on the optimal lower-bound curve."""

    t: float
    delta: float
    l_value: float


@dataclass(frozen=True)
class GammaSearchResult:
    """Minimizer and minimum of the direct two-term objective."""

    gamma_star: float
    value: float


def _delta_at(t: float) -> float:
    if t < _SMALL_T:
        # delta = t - t^3/9 + 2 t^5/135 + O(t^7)
        t2 = t * t
        return t * (1.0 - t2 * (1.0 / 9.0 - t2 * (2.0 / 135.0)))
    c = 1.0 / math.tanh(t) - 1.0 / t
    return t * (1.0 - c * c)


def _l_at(t: float) -> float:
    if t < _SMALL_T:
        # L = t^2/2 - t^4/12 + O(t^6)
        t2 = t * t
        return t2 * (0.5 - t2 / 12.0)
    r = t / math.sinh(t)
    return math.log(r) + t / math.tanh(t) - r * r


def _delta_at_array(t: np.ndarray) -> np.ndarray:
    # _delta_at elementwise, up to the rounding of numpy's tanh
    t2 = t * t
    c = 1.0 / np.tanh(t) - 1.0 / t
    series = t * (1.0 - t2 * (1.0 / 9.0 - t2 * (2.0 / 135.0)))
    return np.where(t < _SMALL_T, series, t * (1.0 - c * c))


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
    return _delta_at(T_MAX)


def curve_point_for_delta(
    delta: float, conv: TvConvention = TvConvention.VARIATIONAL
) -> CurvePoint:
    """Invert delta(t) by bisection and return the full curve point.

    The residual |delta(t*) - delta| is at most 1e-12.
    """
    d = convert_tv(delta, conv, TvConvention.VARIATIONAL)
    if d < 0 or d >= 2.0:
        raise DomainError(
            f"delta must lie in [0, 2) on the variational scale, got {d}"
        )
    if d == 0.0:
        return CurvePoint(t=0.0, delta=0.0, l_value=0.0)
    if d > delta_max():
        raise DomainError(
            f"delta = {d} is beyond delta({T_MAX}) = {delta_max():.15g}; the "
            "curve approaches 2 only asymptotically and the bound diverges"
        )
    # run the bisection to bracket collapse: delta'(t) <= 1 everywhere, so
    # the residual ends far below the documented 1e-12
    t_star, _ = bisect_increasing(
        _delta_at, d, lo=0.0, hi=T_MAX, f_tol=0.0, x_tol=0.0
    )
    return CurvePoint(t=t_star, delta=_delta_at(t_star), l_value=_l_at(t_star))


def vajda_lower_bound(
    delta: float, conv: TvConvention = TvConvention.VARIATIONAL
) -> float:
    """Smallest possible KL divergence at total variation ``delta``."""
    return curve_point_for_delta(delta, conv).l_value


def _delta_for_bisection(t: np.ndarray, d: np.ndarray, exact: np.ndarray) -> np.ndarray:
    # delta at every t; for the element indices in ``exact``, the scalar
    # kernel's value wherever numpy's could compare differently with d
    fm = _delta_at_array(t)
    close = exact[np.abs(fm[exact] - d[exact]) <= _ARRAY_DELTA_MARGIN * d[exact]]
    fm[close] = [_delta_at(x) for x in t[close].tolist()]
    return fm


def vajda_lower_bound_array(delta: np.ndarray) -> np.ndarray:
    """``vajda_lower_bound`` elementwise over a 1-D array of variational deltas.

    Every delta must lie in [0, delta_max()]. All elements are bisected at
    once with the scalar routine's bracket [0, T_MAX], halving cap and
    stopping rule. Below ``_EXACT_PATH_DELTA`` each result equals the
    scalar one; above it the two agree to 1e-10 relative, as numpy's
    hyperbolic functions round differently from the math module's.
    """
    d = np.asarray(delta, dtype=float)
    if d.ndim != 1:
        raise DomainError(f"deltas must form a 1-D array, got shape {d.shape}")
    if not np.all((d >= 0.0) & (d <= delta_max())):
        raise DomainError(
            f"every delta must lie in [0, {delta_max():.15g}] on the variational scale"
        )
    active = d > 0.0
    exact = np.flatnonzero(active & (d < _EXACT_PATH_DELTA))
    lo = np.zeros_like(d)
    hi = np.full_like(d, T_MAX)
    mid = 0.5 * (lo + hi)
    fm = _delta_for_bisection(mid, d, exact)
    for _ in range(BISECT_MAX_ITER):
        below = fm < d
        np.copyto(lo, mid, where=below)
        np.copyto(hi, mid, where=~below)
        nxt = 0.5 * (lo + hi)
        # a finished element keeps the midpoint it stopped at
        np.copyto(mid, nxt, where=active)
        active &= (nxt != lo) & (nxt != hi)
        if not active.any():
            break
        fm = _delta_for_bisection(mid, d, exact[active[exact]])
    # _l_at's closed form: every t outside ``exact`` is far above _SMALL_T
    r = mid / np.sinh(mid)
    l_values = np.log(r) + mid / np.tanh(mid) - r * r
    l_values[exact] = [_l_at(x) for x in mid[exact].tolist()]
    return np.where(d == 0.0, 0.0, l_values)


def _gamma_objective(g: float, d: float) -> float:
    # ((d+2-g)/4) log((g-2-d)/(g-2+d)) + ((g+2-d)/4) log((g+2-d)/(g+2+d));
    # the second coefficient and its log argument vanish together at the
    # left endpoint, where the term's limit is 0.
    first = (d + 2.0 - g) / 4.0 * math.log((g - 2.0 - d) / (g - 2.0 + d))
    c2 = (g + 2.0 - d) / 4.0
    if c2 <= 0.0:
        return first
    return first + c2 * math.log((g + 2.0 - d) / (g + 2.0 + d))


def reid_lower_bound(
    delta: float, conv: TvConvention = TvConvention.VARIATIONAL
) -> GammaSearchResult:
    """The same lower bound by direct minimization over gamma.

    Golden-section search on [delta - 2, 2 - delta], clamped inward by
    1e-13 of the interval width because the objective's derivative has log
    singularities at the endpoints.
    """
    d = convert_tv(delta, conv, TvConvention.VARIATIONAL)
    if d < 0 or d >= 2.0:
        raise DomainError(
            f"delta must lie in [0, 2) on the variational scale, got {d}"
        )
    lo, hi = d - 2.0, 2.0 - d
    eps = 1e-13 * (hi - lo)
    gamma, value = golden_section_minimize(
        lambda g: _gamma_objective(g, d), lo + eps, hi - eps, x_tol=1e-12
    )
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

    Bisection on the strictly increasing polynomial; the residual
    |poly(delta*) - xi| is at most 1e-10. Any pair of measures whose KL
    divergence equals xi has total variation at most delta*.
    """
    if not math.isfinite(xi) or xi < 0:
        raise DomainError(f"xi must be >= 0, got {xi}")
    if xi == 0.0:
        return 0.0
    hi = 1.0
    # the bracket holds only finite deltas >= 0, so the bisection evaluates
    # the polynomial without poly_lower_bound's argument check
    while _poly(hi) < xi:
        hi *= 2.0
        if hi > 1e80:
            raise DomainError(f"xi = {xi} too large to invert")
    delta, _ = bisect_increasing(
        _poly, xi, lo=0.0, hi=hi, f_tol=1e-10, x_tol=1e-13
    )
    return delta


def emit_curve(t_min: float, t_max: float, n_points: int) -> list[CurvePoint]:
    """Sample the curve on a log-spaced parameter grid.

    Requires 0 < t_min < t_max <= T_MAX and n_points >= 2; the emitted
    deltas are strictly increasing.
    """
    if not (math.isfinite(t_min) and math.isfinite(t_max)) or t_min <= 0:
        raise DomainError(f"grid endpoints must be positive, got ({t_min}, {t_max})")
    if t_min >= t_max:
        raise DomainError(f"need t_min < t_max, got ({t_min}, {t_max})")
    if t_max > T_MAX:
        raise DomainError(f"t_max {t_max} exceeds {T_MAX}")
    if n_points < 2:
        raise DomainError(f"n_points must be >= 2, got {n_points}")
    points = [curve_at_parameter(float(t)) for t in np.geomspace(t_min, t_max, n_points)]
    for prev, cur in zip(points, points[1:]):
        if not cur.delta > prev.delta:
            raise RuntimeError(
                f"emitted deltas not strictly increasing at t = {cur.t:.6g}"
            )
    return points


def curve_to_csv(points: list[CurvePoint]) -> str:
    """CSV with header t,delta,l_value; 17 significant digits per number."""
    lines = ["t,delta,l_value"]
    lines.extend(
        f"{p.t:.17g},{p.delta:.17g},{p.l_value:.17g}" for p in points
    )
    return "\n".join(lines) + "\n"


def curve_to_json(points: list[CurvePoint]) -> str:
    """JSON array of [t, delta, l_value] triples, 17 significant digits."""
    rows = ",".join(
        f"[{p.t:.17g},{p.delta:.17g},{p.l_value:.17g}]" for p in points
    )
    return f"[{rows}]"
