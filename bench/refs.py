"""Independent references for the benchmark's correctness checks.

Nothing here calls divbounds. Curve values come from mpmath on the
defining parametric formulas (and from the Topsoe series below 1e-6), KL
from mpmath sums, the polynomial bound from exact rationals, and Gaussian
TV from normal CDFs at the density crossings. Every function takes plain floats and returns an mpmath
number (or a Fraction), so comparisons happen above double precision.
"""

from fractions import Fraction

import mpmath
from mpmath import mpf

DPS = 50
# below this the series delta^2/2 + delta^4/36 is exact to far beyond
# double precision (the next term is delta^6/270)
SERIES_BELOW = 1e-6
T_MAX = 500  # the library's largest curve parameter


def _delta_of_t(t):
    c = mpmath.coth(t) - 1 / t
    return t * (1 - c * c)


def _l_of_t(t):
    s = mpmath.sinh(t)
    return mpmath.log(t / s) + t * mpmath.coth(t) - t * t / (s * s)


def curve_min_kl(delta: float):
    """Smallest KL at variational TV ``delta`` (the optimal lower bound)."""
    with mpmath.workdps(DPS):
        d = mpf(delta)
        if d == 0:
            return mpf(0)
        if d < SERIES_BELOW:
            return d**2 / 2 + d**4 / 36
        lo = d  # delta(t) < t, so the root lies above d
        hi = 2 / (2 - d) + 1  # delta(hi) > d: delta(t) ~ 2 - 1/t as t grows
        t = mpmath.findroot(lambda x: _delta_of_t(x) - d, (lo, hi), solver="anderson")
        return _l_of_t(t)


def curve_delta_max():
    """delta(T_MAX), where the library clamps near-disjoint pairs."""
    with mpmath.workdps(DPS):
        return _delta_of_t(mpf(T_MAX))


def poly_bound(delta: float) -> Fraction:
    """The degree-8 polynomial minorant in exact rational arithmetic."""
    d2 = Fraction(delta) ** 2
    return d2 * (
        Fraction(1, 2)
        + d2 * (Fraction(1, 36) + d2 * (Fraction(1, 270) + d2 * Fraction(221, 340200)))
    )


def kl_discrete(p, q):
    """sum p_i log(p_i / q_i) over strictly positive p, q."""
    with mpmath.workdps(DPS):
        return mpmath.fsum(mpf(a) * mpmath.log(mpf(a) / mpf(b)) for a, b in zip(p, q) if a > 0)


def tv_variational(p, q):
    """sum |p_i - q_i| of two float vectors, without rounding."""
    with mpmath.workdps(DPS):
        return mpmath.fsum(abs(mpf(a) - mpf(b)) for a, b in zip(p, q))


def kl_gaussian(mu_a: float, s_a: float, mu_b: float, s_b: float):
    with mpmath.workdps(DPS):
        r = mpf(s_a) / mpf(s_b)
        dmu = mpf(mu_a) - mpf(mu_b)
        return (r - 1 - mpmath.log(r) + dmu * dmu / mpf(s_b)) / 2


def akl_gaussian(s: float, zeta_min: float, zeta_max: float):
    """Augmented KL: 1-D KL against the nearest end of the spectrum."""
    with mpmath.workdps(DPS):
        s = mpf(s)
        for zeta, outside in ((zeta_min, s < zeta_min), (zeta_max, s > zeta_max)):
            if outside:
                x = s / mpf(zeta)
                return (x - 1 - mpmath.log(x)) / 2
        return mpf(0)


def tv_gaussian_sup(mu_a: float, s_a: float, mu_b: float, s_b: float):
    """sup_A |P_a(A) - P_b(A)| from normal CDFs at the density crossings."""
    with mpmath.workdps(DPS):
        mu_a, s_a, mu_b, s_b = (mpf(x) for x in (mu_a, s_a, mu_b, s_b))
        if mu_a == mu_b and s_a == s_b:
            return mpf(0)
        # log f_a - log f_b = qa x^2 + qb x + qc
        qa = 1 / (2 * s_b) - 1 / (2 * s_a)
        qb = mu_a / s_a - mu_b / s_b
        qc = mu_b**2 / (2 * s_b) - mu_a**2 / (2 * s_a) + mpmath.log(s_b / s_a) / 2
        cuts = []
        if qa == 0:
            cuts = [-qc / qb]
        elif qb * qb - 4 * qa * qc > 0:
            r = mpmath.sqrt(qb * qb - 4 * qa * qc)
            cuts = sorted([(-qb - r) / (2 * qa), (-qb + r) / (2 * qa)])
        sd_a, sd_b = mpmath.sqrt(s_a), mpmath.sqrt(s_b)
        edges = [-mpmath.inf, *cuts, mpmath.inf]
        total = mpf(0)
        for lo, hi in zip(edges, edges[1:]):
            pa = mpmath.ncdf(hi, mu_a, sd_a) - mpmath.ncdf(lo, mu_a, sd_a)
            pb = mpmath.ncdf(hi, mu_b, sd_b) - mpmath.ncdf(lo, mu_b, sd_b)
            total += abs(pa - pb)
        return total / 2
