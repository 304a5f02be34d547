"""Independent oracles and frozen reference values for the test suite.

Everything here is deliberately implemented without calling the library's
own computation paths: TV between Gaussians comes from 50-digit mpmath
values frozen below, from adaptive quadrature of |f_a - f_b| (the library's
quadrature module, which no runtime path uses) and from Monte Carlo; the
polynomial bound and the curve's power series come from exact rational
arithmetic, and the curve constants were computed once at 50-digit
precision and frozen. An exhaustive binary-grid minimum of KL near a TV
value checks the lower-bound curve from below, apart from the closed-form
pairs that ``divbounds verify`` shows attaining it. Two exceptions use a library kernel: the
projection search's per-step refinement, frozen below as the reference
for its screened form, scores with the library's ``kl_gaussian_1d``,
whose own tests use the mpmath values here; and the exhaustive TV
convention scan evaluates U through ``pinsker._upper``, the formula whose
scale it checks from below, as ``divbounds verify``'s upper attainment
rows check it at the pairs that attain U. Frozen copies of former library code (the discrete
kernels, the row-major batched sandwich checker, ``kl_gaussian_1d``'s body) and search results and scalar solver outputs
recorded from an earlier version guard rewrites that must stay bit-identical.
"""

import math
import sys
from fractions import Fraction

import numpy as np

from divbounds.errors import DomainError
from divbounds.measures import PROB_SUM_TOL, TvConvention
from divbounds.pinsker import _upper
from divbounds.quadrature import integrate_adaptive

# --- frozen 50-digit-precision curve values (nearest doubles) ------------

# parametric curve at t = 1
DELTA_AT_T1 = 0.90200891003235214
L_AT_T1 = 0.42753426296182520

# inverse of the curve at delta = 1.0 (variational)
T_AT_DELTA1 = 1.1402936470660861
VAJDA_AT_DELTA1 = 0.53229790889199995

# optimal lower bound at the five acceptance grid points
VAJDA_AT = {
    0.2: 0.020044683157952950,
    0.5: 0.12679665350638544,
    0.9: 0.42552811843870643,
    1.3: 0.95038725816267595,
    1.7: 1.8905692703505206,
}

# (delta, L(delta)) on the optimal curve, variational delta: mpmath on the
# parametric formulas at the double delta, with t found by findroot at 50
# digits plus three per decade below 1 (80 gave the same doubles), rounded
# to the nearest double; the third row from the middle is delta(1), where
# the evaluation of delta(t) switches form, and the last is delta_max()
VAJDA_REF = (
    (1e-40, 4.999999999999999e-81),
    (1e-20, 5e-41),
    (1e-09, 5e-19),
    (1e-06, 5.000000000000278e-13),
    (3e-05, 4.5000000002250003e-10),
    (0.0001, 5.0000000027777785e-09),
    (0.001, 5.000000277777815e-07),
    (0.01, 5.000027778148155e-05),
    (0.05, 0.0012501736690068701),
    (0.1, 0.00500278148799071),
    (0.2, 0.020044683157952953),
    (0.3, 0.045227743405584435),
    (0.4, 0.08072672135917323),
    (0.5, 0.12679665350638544),
    (0.55, 0.15390015368870175),
    (0.6, 0.18378456526831632),
    (0.8, 0.3324739201897186),
    (0.9020089100323522, 0.42753426296182523),
    (1.0, 0.5322979088919999),
    (1.2, 0.7926352944804101),
    (1.5, 1.3397021628687062),
    (1.7, 1.8905692703505204),
    (1.8, 2.302182884412988),
    (1.9, 2.9957322343923467),
    (1.93, 3.352407217481957),
    (1.96, 3.912023005428145),
    (1.98, 4.605170185988091),
    (1.99, 5.298317366548035),
    (1.995, 5.991464547108003),
    (1.997, 6.502290170874009),
    (1.998, 6.907755278982136),
)

# The scalar solvers' outputs, every bit, recorded from the library before
# a rewrite that must leave them unchanged: per delta, reid_lower_bound's
# (gamma_star, value) and vajda_lower_bound's value (None beyond
# delta_max()), every float as float.hex(). reid's values at 1e-12 and
# 1e-8 are its clamped 0, and the last two deltas lie past delta_max().
DELTA_MAX_HEX = "0x1.ff7ced916872bp+0"
SCALAR_SOLVER_HEX = (
    (1e-12, "0x1.0a58de68d948ep+0", "0x0.0p+0", "0x1.357c299a88ea5p-81"),
    (1e-08, "0x1.949feedf37e9cp-4", "0x0.0p+0", "0x1.cd2b297d889bdp-55"),
    (1e-04, "0x1.6aefbfb0ff0a8p-12", "0x1.5798ee26c4000p-28", "0x1.5798ee263c9eap-28"),
    (0.05, "-0x1.1101130d779a9p-6", "0x1.47b9bc173fd20p-10", "0x1.47b9bc173fefbp-10"),
    (0.3, "-0x1.9647c3a4182f0p-4", "0x1.728173d9904c0p-5", "0x1.728173d9904cdp-5"),
    (1.0, "-0x1.31a47cfbfe538p-2", "0x1.108959fcd7352p-1", "0x1.108959fcd7355p-1"),
    (1.5, "-0x1.5e30c770cb5bcp-2", "0x1.56f6b88fe6cc8p+0", "0x1.56f6b88fe6cc7p+0"),
    (1.9, "-0x1.99996f8f41d96p-4", "0x1.7f74276324e19p+1", "0x1.7f74276324e25p+1"),
    (2 - 1e-6, "-0x1.0c6f759420812p-20", "0x1.d046ecdc25e80p+3", None),
    (2 - 1e-12, "-0x1.8eb80431b14d6p-41", "0x1.c7b5413c63781p+4", None),
)

# sup-convention TV between N(0,1) and N(1,1): 2 Phi(1/2) - 1
TV_EQUAL_VAR_MEAN_SHIFT = 0.38292492254802621

# sup-convention TV between N(0, 0.25) and N(0, 1), 50-digit mpmath
TV_QUARTER_VS_UNIT = 0.32267456883476864

# (mu_a, s_a, mu_b, s_b, sup-convention TV) for 1-D Gaussian pairs: mpmath
# at 50 digits (normal CDFs at the crossings of the two densities, found
# from the quadratic at that precision), rounded to the nearest double;
# 80 digits gave the same doubles
TV_GAUSS_SUP_REF = (
    # near-identical: variance ratio 1 +/- 1e-9, or a mean shift of 1e-9
    (0.0, 1.0, 0.0, 1.000000001, 2.4197074441890547e-10),
    (0.0, 1.0, 0.0, 0.999999999, 2.4197071779672926e-10),
    (2.0, 3.0, 2.000000001, 3.0000000030000002, 3.1815123141884045e-10),
    (0.0, 1.0, 1e-09, 1.0, 3.989422804014327e-10),
    # near-disjoint
    (0.0, 1.0, 12.0, 1.0, 0.9999999980268247),
    (0.0, 1.0, 40.0, 1.0, 1.0),
    (0.0, 1.0, 10.0, 0.0001, 1.0),
    (0.0, 1e-06, 0.0, 1000000.0, 0.9999956590970305),
    # variance ratios up to e^+-40
    (0.0, 1.0, 0.0, 2.3538526683702e17, 0.9999999893449096),
    (0.0, 1.0, 0.0, 4.248354255291589e-18, 0.9999999893449096),
    (0.3, 1.0, -0.2, 485165195.4097903, 0.999830257565602),
    (0.0, 1.0, 1.0, 4.5399929762484854e-05, 0.9882743699084428),
    (1000.0, 2.3538526683702e17, 0.0, 1.0, 0.9999999893449096),
    # large common mean
    (10000.0, 1.0, 10000.5, 2.0, 0.22079727790047998),
    (10000.0, 1.0, 10000.0, 1.5, 0.0977761420084982),
    (10000.0, 1.0, 10000.0, 1.000000001, 2.4197074441890547e-10),
    # two crossings; an uncentred quadratic loses both to cancellation
    (
        -0.4522178775034811,
        8.037058038467513e-07,
        -0.4522178775034811,
        3.628864459467805e-24,
        0.999999989023393,
    ),
)

# (mu_a, s_a, mu_b, s_b, sup-convention TV) for equal variances and means
# eps = 1e-3 ... 1e-15 apart: N(eps, 1) vs N(0, 1), and N(3, 4) vs
# N(3 + 2 eps, 4) with 3 + 2 eps rounded to a double first. The TV is
# erf(|mu_a - mu_b| / (2 sqrt(2 s))) at 50 digits, rounded to the nearest
# double
TV_GAUSS_EQUAL_VAR_REF = (
    (0.001, 1.0, 0.0, 1.0, 0.0003989422637788383),
    (1e-06, 1.0, 0.0, 1.0, 3.98942280401416e-07),
    (1e-09, 1.0, 0.0, 1.0, 3.989422804014327e-10),
    (1e-12, 1.0, 0.0, 1.0, 3.9894228040143267e-13),
    (1e-15, 1.0, 0.0, 1.0, 3.989422804014327e-16),
    (3.0, 4.0, 3.002, 4.0, 0.00039894226377879433),
    (3.0, 4.0, 3.000002, 4.0, 3.989422803685964e-07),
    (3.0, 4.0, 3.000000002, 4.0, 3.9894231341006497e-10),
    (3.0, 4.0, 3.000000000002, 4.0, 3.9897774660248084e-13),
    (3.0, 4.0, 3.000000000000002, 4.0, 4.429149051981359e-16),
)

# that last pair as (mu, s_a, s_b), and the distance from mu to each of its
# crossings, sqrt(s_a s_b log(s_a / s_b) / (s_a - s_b)), at 50 digits
CROSSING_PAIR = (-0.4522178775034811, 8.037058038467513e-07, 3.628864459467805e-24)
CROSSING_PAIR_HALF_WIDTH = 1.2038834822914637e-11

# closed-form KL values
KL_GAUSS_TINY_VS_HUGE = 460.01701859880914  # variances 1e-200 vs 1e200, mpmath
KL_GAUSS_SUBNORMAL_RATIO = 371.96947892070136  # 3e-162 vs 1e162 (ratio 3e-324), mpmath
KL_GAUSS_QUARTER_VS_UNIT = 0.31814718055994531  # (1/2)(0.25 - 1 + log 4)
AKL_SIGMA2_9_ZETA1_4 = 0.21953489189183562  # (1/2)(9/4 - 1 + log(4/9))

# reverse-Pinsker worked values (delta in SUP convention), from
# U = delta (phi(M) - phi(m)) with phi(x) = x log x / (x - 1):
# (m, M) = (1/2, 2):  phi(2) - phi(1/2) = 2 log 2 - log 2 = log 2
# (m, M) = (1/4, 4):  phi(4) - phi(1/4) = (4/3) log 4 - (1/3) log 4 = log 4
RP_SUP_01_HALF_TWO = 0.069314718055994531  # 0.1 * log 2
RP_SUP_01_QUARTER_FOUR = 0.13862943611198906  # 0.1 * log 4

# min_kl_at_tv_all_pairs on the support-3, step-0.02 simplex grid at
# tol = 0.02, keyed by the variational target; inf where the only feasible
# pairs give p mass where q has none
MIN_KL_AT_TV_S3_STEP002 = {
    0.0: 0.0,
    0.5: 0.11672502135540756,
    0.51: 0.1373436246081205,
    1.7: 1.8317679437603358,
    2.0: math.inf,
}


def phi_ratio_weight(x: float) -> float:
    """x log x / (x - 1), the per-unit-TV divergence weight.

    At its limits phi(0) = 0, phi(1) = 1 and phi(inf) = inf it is x.
    """
    if x in (0.0, 1.0, math.inf):
        return x
    return x * math.log(x) / (x - 1.0)

POLY_COEFF_FRACTIONS = (
    Fraction(1, 2),
    Fraction(1, 36),
    Fraction(1, 270),
    Fraction(221, 340200),
)


def poly_bound_fraction(delta: Fraction) -> Fraction:
    """Exact rational evaluation of the degree-8 lower-bound polynomial."""
    acc = Fraction(0)
    for k, coeff in enumerate(POLY_COEFF_FRACTIONS, start=1):
        acc += coeff * delta ** (2 * k)
    return acc


# --- the curve as exact rational power series ---------------------------
# A series is a list of Fractions, index = power, truncated to its length.


def bernoulli_numbers(n_max: int) -> list:
    """B_0 .. B_n_max from sum over k <= n of C(n + 1, k) B_k = 0 (n >= 1)."""
    b = [Fraction(1)]
    for n in range(1, n_max + 1):
        b.append(-sum(math.comb(n + 1, k) * b[k] for k in range(n)) / (n + 1))
    return b


def _mul(a: list, b: list) -> list:
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _inverse(a: list) -> list:
    # 1 / a, for a[0] != 0
    out = [1 / a[0]]
    for k in range(1, len(a)):
        out.append(-sum(a[i] * out[k - i] for i in range(1, k + 1)) / a[0])
    return out


def _log(a: list) -> list:
    # log a, for a[0] = 1: the integral of a' / a
    da = [k * a[k] for k in range(1, len(a))] + [Fraction(0)]
    q = _mul(da, _inverse(a))
    return [Fraction(0)] + [q[k - 1] / k for k in range(1, len(a))]


def _compose(f: list, g: list) -> list:
    # f(g(x)), for g[0] = 0, by Horner's rule
    out = [Fraction(0)] * len(g)
    for coeff in reversed(f):
        out = _mul(out, g)
        out[0] += coeff
    return out


def curve_series_in_t(n: int) -> tuple:
    """delta(t) and L(t) as series in t, the coefficients of t^0 .. t^(n-1).

    From the defining formulas, with t coth t = sum 2^(2k) B_2k t^(2k) / (2k)!
    and sinh t / t = sum t^(2k) / (2k + 1)!:
    delta = t (1 - c^2) for c = (t coth t - 1) / t, and
    L = -log(sinh t / t) + t coth t - (t / sinh t)^2.
    """
    b = bernoulli_numbers(n + 1)
    t_coth = [Fraction(0)] * n
    sinhc = [Fraction(0)] * n
    for k in range(0, n, 2):
        t_coth[k] = 2**k * b[k] / math.factorial(k)
        sinhc[k] = Fraction(1, math.factorial(k + 1))
    c = t_coth[1:] + [Fraction(0)]  # (t coth t - 1) / t: t_coth[0] is 1
    c2 = _mul(c, c)
    delta = [Fraction(0)] + [Fraction(k == 0) - c2[k] for k in range(n - 1)]
    inv = _inverse(sinhc)
    l_value = [
        tc - r2 - lg for tc, r2, lg in zip(t_coth, _mul(inv, inv), _log(sinhc))
    ]
    return delta, l_value


def curve_l_series_in_delta(n: int) -> list:
    """L as a series in delta: the coefficients of delta^0 .. delta^(n-1).

    Reverts delta(t) = t + O(t^3) by the fixed point t = x - (delta(t) - t),
    which gains two orders of x per step, and composes L(t) with it.
    """
    delta, l_value = curve_series_in_t(n)
    x = [Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 2)
    t = list(x)
    for _ in range(n):
        t = [a - (b - c) for a, b, c in zip(x, _compose(delta, t), t)]
    return _compose(l_value, t)


def _log_density_diff_roots(mu_a, s_a, mu_b, s_b) -> list[float]:
    # roots of log f_a(x) - log f_b(x), a quadratic in x, in the textbook
    # uncentred form; only used as quadrature cut points, where a lost
    # root costs convergence speed, not the value
    ca = 0.5 / s_b - 0.5 / s_a
    cb = mu_a / s_a - mu_b / s_b
    cc = mu_b**2 / (2 * s_b) - mu_a**2 / (2 * s_a) + 0.5 * math.log(s_b / s_a)
    if ca == 0.0:
        return [] if cb == 0.0 else [-cc / cb]
    disc = cb * cb - 4 * ca * cc
    if disc <= 0:
        return []
    # stable pairing: q/ca and cc/q never cancel, unlike (-cb +/- r)/(2 ca)
    q = -0.5 * (cb + math.copysign(math.sqrt(disc), cb))
    return sorted([q / ca, cc / q])


def tv_gaussian_sup_quadrature(mu_a, s_a, mu_b, s_b) -> float:
    """TV (SUP convention) between 1-D Gaussians by adaptive quadrature.

    Integrates |f_a - f_b| with Gauss-Kronrod panels split at the density
    crossings and at mu +/- k sigma of both densities (a panel thousands of
    sigmas wide can hide a whole bump from the nodes), over
    mu +/- 10 sigma, to an absolute error below 1e-9 on the integral.
    """
    if mu_a == mu_b and s_a == s_b:
        return 0.0
    sd_a, sd_b = math.sqrt(s_a), math.sqrt(s_b)
    lo = min(mu_a - 10.0 * sd_a, mu_b - 10.0 * sd_b)
    hi = max(mu_a + 10.0 * sd_a, mu_b + 10.0 * sd_b)
    cuts = set(_log_density_diff_roots(mu_a, s_a, mu_b, s_b))
    for mu, sd in ((mu_a, sd_a), (mu_b, sd_b)):
        for k in (1.0, 2.0, 4.0, 8.0):
            cuts.update((mu - k * sd, mu + k * sd))
    edges = [lo]
    for cut in sorted(c for c in cuts if lo < c < hi):
        if cut - edges[-1] > 1e-13 * (hi - lo):
            edges.append(cut)
    edges.append(hi)

    def pdf(x, mu, s):
        return math.exp(-((x - mu) ** 2) / (2.0 * s)) / math.sqrt(2.0 * math.pi * s)

    def integrand(x):
        return abs(pdf(x, mu_a, s_a) - pdf(x, mu_b, s_b))

    total = 0.0
    for left, right in zip(edges, edges[1:]):
        value, _ = integrate_adaptive(integrand, left, right, abs_tol=1e-9 / len(edges))
        total += value
    return min(max(0.5 * total, 0.0), 1.0)


def tv_gaussian_sup_monte_carlo(mu_a, s_a, mu_b, s_b, n=4_000_000, seed=0) -> float:
    """Monte-Carlo estimate of sup_A (P_a(A) - P_b(A)).

    The supremum is attained on the set where f_a > f_b; both measures of
    that set are estimated by sampling.
    """
    rng = np.random.default_rng(seed)

    def log_diff(x):
        return (
            -((x - mu_a) ** 2) / (2 * s_a)
            - 0.5 * math.log(s_a)
            + ((x - mu_b) ** 2) / (2 * s_b)
            + 0.5 * math.log(s_b)
        )

    hits_a = 0
    hits_b = 0
    chunk = 500_000
    done = 0
    while done < n:
        take = min(chunk, n - done)
        xa = mu_a + math.sqrt(s_a) * rng.standard_normal(take)
        xb = mu_b + math.sqrt(s_b) * rng.standard_normal(take)
        hits_a += int(np.count_nonzero(log_diff(xa) > 0))
        hits_b += int(np.count_nonzero(log_diff(xb) > 0))
        done += take
    return hits_a / n - hits_b / n


def random_spd_matrix(n: int, eigenvalues, rng) -> np.ndarray:
    """Symmetric matrix with the given spectrum and a random eigenbasis."""
    g = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    m = q @ np.diag(np.asarray(eigenvalues, dtype=float)) @ q.T
    return 0.5 * (m + m.T)


# the finest grid step the binary-grid scans accept: the minimum forms up
# to 6 / step candidate pairs (54 000 at 1e-4), so far finer steps exhaust
# memory
MIN_GRID_STEP = 1e-4


def check_grid_step(step: float) -> None:
    """Raise unless ``step`` lies in [MIN_GRID_STEP, 0.5] and divides 1, so
    the grid holds both ends of each probability."""
    if not MIN_GRID_STEP <= step <= 0.5:
        raise DomainError(f"step must lie in [{MIN_GRID_STEP}, 0.5], got {step}")
    if abs(round(1.0 / step) * step - 1.0) > 1e-9:
        raise DomainError(f"step {step} does not divide 1")


def _kl_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # elementwise p log(p/q) with 0 log 0 = 0 and +inf where p > 0, q = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
    return terms


def binary_min_kl(delta: float, step: float) -> float:
    """Exhaustive minimum of KL over binary grid pairs near a TV value.

    The independent check of the optimal lower bound from below: it
    minimizes kl(p, q) over the ordered pairs p = (i step, 1 - i step),
    q = (j step, 1 - j step) whose variational TV lies within ``step`` of
    ``delta``. Two-point pairs attain the optimal lower bound, so no
    larger support gets closer to the curve. Pairs violating absolute
    continuity contribute +inf and never achieve the minimum. Raises if
    no pair is feasible.

    A pair with offset r = j - i has variational TV 2|r| step up to a few
    ulps, so only the offsets whose TV lies in the band around ``delta``,
    one more on each side, can be feasible: those alone are formed, and
    the float TV test and the KL are applied to them as to every pair.
    """
    check_grid_step(step)
    if not 0 <= delta <= 2:
        raise DomainError(f"delta must lie in [0, 2], got {delta}")
    n = round(1.0 / step)
    # point i of the grid is (axis[i], axis[n - i]): both exactly on-grid
    axis = np.linspace(0.0, 1.0, n + 1)
    lo = max(0, math.ceil((delta - step) / (2 * step)) - 1)
    hi = min(n, math.floor((delta + step) / (2 * step)) + 1)
    offsets = np.arange(lo, hi + 1)
    offsets = np.concatenate([-offsets[offsets > 0], offsets])
    j = np.arange(n + 1)[:, None] + offsets
    i, col = np.nonzero((j >= 0) & (j <= n))
    j = j[i, col]
    p0, p1, q0, q1 = axis[i], axis[n - i], axis[j], axis[n - j]
    tv_var = np.abs(p0 - q0)
    tv_var += np.abs(p1 - q1)
    tv_var -= delta
    feasible = np.abs(tv_var) <= step
    if not feasible.any():
        raise DomainError(f"no grid pair has variational TV within {step} of {delta}")
    kl = _kl_terms(p0[feasible], q0[feasible]) + _kl_terms(p1[feasible], q1[feasible])
    return float(kl.min())


def binary_grid(step: float) -> np.ndarray:
    """The points (i step, 1 - i step) of the binary grid, one per row,
    with both coordinates taken from one axis so each is exactly on-grid."""
    axis = np.linspace(0.0, 1.0, round(1.0 / step) + 1)
    return np.column_stack([axis, axis[::-1]])


def min_kl_at_tv_all_pairs(grid: np.ndarray, target: float, tol: float) -> float:
    """Grid minimum of KL at variational TV within ``tol`` of ``target``.

    A frozen copy of the formula the library's grid minimum used before it
    built the TV plane component by component: the TV and the KL of every
    ordered pair of grid points, reduced over the support axis. Returns
    None when no pair is feasible.
    """
    best = None
    chunk = max(1, int(2e6 / grid.shape[0]))
    for start in range(0, grid.shape[0], chunk):
        p = grid[start : start + chunk, None, :]
        q = grid[None, :, :]
        feasible = np.abs(np.abs(p - q).sum(axis=2) - target) <= tol
        if not feasible.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
        candidate = float(terms.sum(axis=2)[feasible].min())
        best = candidate if best is None else min(best, candidate)
    return best


def tv_convention_scan(step: float = 1e-3) -> TvConvention:
    """The exhaustive binary-grid scan that settles the TV convention.

    Independent of the pairs that attain U, at which ``divbounds verify``
    checks it, this finds the scale on which U holds; it must be SUP, the
    scale on which ``pinsker._upper`` takes delta. If KL <= U holds at
    every strictly positive binary pair on the grid with delta read as
    SUP, that convention is returned; otherwise VARIATIONAL is tried; if
    neither holds, the implementation is broken and an error is raised.
    ``step`` must pass ``check_grid_step``.
    """
    check_grid_step(step)
    n = round(1.0 / step)
    a = np.arange(1, n) / n
    q1 = a[None, :]
    holds_sup = holds_var = True
    # chunk the p side so the pairwise arrays stay near 10 000 pairs
    chunk = max(1, 10_000 // a.size)
    for start in range(0, a.size, chunk):
        p1 = a[start : start + chunk, None]
        r1 = p1 / q1
        r2 = (1.0 - p1) / (1.0 - q1)
        kl = p1 * np.log(r1) + (1.0 - p1) * np.log(r2)
        with np.errstate(invalid="ignore"):
            # phi(1) is 0/0; ratios of 1 occur only on the diagonal p = q,
            # where delta and the bound are 0
            upper = _upper(np.abs(p1 - q1), np.minimum(r1, r2), np.maximum(r1, r2), np)
        bound = np.where(p1 == q1, 0.0, upper)
        holds_sup = holds_sup and bool(np.all(kl <= bound + 1e-12))
        holds_var = holds_var and bool(np.all(kl <= 2.0 * bound + 1e-12))
    if holds_sup:
        return TvConvention.SUP
    if holds_var:
        return TvConvention.VARIATIONAL
    raise RuntimeError(
        "neither TV convention validates the reverse-Pinsker bound on the "
        "binary grid; the upper-bound implementation must be wrong"
    )


# --- the fuzz stream from its definition, in Python integers ------------

_MASK64 = 2**64 - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _splitmix_mix(z: int) -> int:
    # SplitMix64's finalizer (Steele, Lea and Flood, OOPSLA 2014)
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    return z ^ z >> 31


def splitmix_uniform(seed: int, j: int) -> float:
    """Output j of seed's fuzz stream, one output at a time.

    The key folds the seed's 64-bit words, low first, as
    mix((key ^ word) + gamma); output j is mix(key + (j + 1) gamma) mod
    2**64, whose top 52 bits v give (v + 1/2) 2**-52.
    """
    key = 0
    for shift in range(0, max(seed.bit_length(), 1), 64):
        key = _splitmix_mix(((key ^ seed >> shift & _MASK64) + _SPLITMIX_GAMMA) & _MASK64)
    z = _splitmix_mix((key + (j + 1) * _SPLITMIX_GAMMA) & _MASK64)
    return ((z >> 12) + 0.5) * 2.0**-52


def sum_edge_rows(seed):
    """A pair on 2n points whose sums pass PROB_SUM_TOL at its top edge.

    p holds its mass on the first n points and 2**-53 of q's on the rest,
    and q the mirror image, so 2**-54 < m < 1 < M < inf. Each row is
    shrunk by ulps until its sum passes, then raised ulp by ulp at random
    points while it still does; 0.5 sum|p - q| can then round past
    1 + 1e-12.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(32, 65))
    a, b = rng.exponential(size=(2, n))
    a *= (1.0 + 1e-12) / a.sum()
    b *= (1.0 + 1e-12) / b.sum()
    p = np.concatenate([a, b * 2.0**-53])
    q = np.concatenate([a * 2.0**-53, b])
    for row, big in ((p, slice(0, n)), (q, slice(n, 2 * n))):
        while abs(row.sum() - 1.0) > PROB_SUM_TOL:
            row[big] *= 1.0 - 2.0**-52
        for j in big.start + rng.integers(n, size=4 * n):
            row[j] = np.nextafter(row[j], 2.0)
            if abs(row.sum() - 1.0) > PROB_SUM_TOL:
                row[j] = np.nextafter(row[j], 0.0)
    return p.tolist(), q.tolist()


def mean_matched_kl(p, q, v) -> np.ndarray:
    """The projection search's draw stage scored exhaustively.

    ``kl_gaussian_1d`` from p to the pushforward along each unit row of
    ``v``, offset so the means match (a mean mismatch only adds to it),
    as an array expression: with s = v^T Sigma v the Rayleigh quotient and
    r = sigma^2 / s it is (1/2)(r - 1 - log r), log r taken from the two
    logs where r is 0 or subnormal; a ratio that overflows gives inf. The
    search itself ranks rows by a key monotone in this value and scores
    only the winner; the tests replay its draw stage with this function.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = np.einsum("...i,ij,...j->...", v, q.sigma, v)
        r = p.sigma2 / s
        log_r = np.log(r)
        tiny = r < sys.float_info.min
        if tiny.any():
            log_r[tiny] = math.log(p.sigma2) - np.log(s[tiny])
        kl = 0.5 * (r - 1.0 - log_r)
    return np.where(r == np.inf, np.inf, np.maximum(kl, 0.0))


def refine_projection_per_step(p, q, v, value, perturbations):
    """The projection search's refinement as a per-step vector loop.

    A frozen copy of the loop ``augmented.search_projection_divergence``
    ran before it screened steps on precomputed quadratic forms: each
    step forms v + step * z, normalizes it, and scores its Rayleigh
    quotient with ``kl_gaussian_1d``; a step is kept if it improves, and
    the step size halves after 10 steps that do not. ``v`` and ``value``
    are the draw phase's best unit row and its KL; ``perturbations`` are
    the generator's next (100, n) draws. Returns (value, v).
    """
    from divbounds import Gaussian1D, kl_gaussian_1d

    step = 0.5
    stale = 0
    for perturbation in perturbations:
        candidate = v + step * perturbation
        norm = float(np.linalg.norm(candidate))
        if norm < 1e-12:
            stale += 1
        else:
            candidate /= norm
            s = float(np.einsum("i,ij,j->", candidate, q.sigma, candidate))
            cand_value = kl_gaussian_1d(p, Gaussian1D(p.mu, s)) if s > 0 else math.inf
            if cand_value < value:
                value = cand_value
                v = candidate
                continue
            stale += 1
        if stale >= 10:
            step *= 0.5
            stale = 0
    return value, v


# --- projection searches frozen bit for bit ------------------------------
# search_projection_divergence(p, q, "kl", budget, seed) on a tridiagonal
# covariance, as the search returned them (numpy 2.4, x86-64) once its
# refinement took steps on the expanded quotient N / D and scored only the
# refined frame from its own vector. Taking a step on floats rounds the
# frame differently from normalizing and scoring each candidate, so eight
# rows moved: each frame entry by at most 1.1e-16, and best_value by at
# most 4.4e-16 relative, but for the n = 7, budget 1000 row, which moved
# by 2.5e-11: sigma^2 lies inside, where the KL of 2.8e-10 is quadratic
# in a quotient 3.3e-5 off sigma^2, so each ulp of the quotient moves it
# by about 7e-12 relative.
# They were re-frozen after the checks of
# ``test_refinement_against_per_step_reference``,
# ``test_rotated_isotropic_spectra_fall_short_by_at_most_two_ulps`` and
# ``test_draw_phase_monotone_in_budget`` passed unchanged. Each row is
# ((mu, sigma2, nu, diagonal, off-diagonal, budget, seed), best_value,
# the frame's row v, its offset b, (witness mu, witness sigma2)), every
# float as float.hex(). n runs from 2 to 8, with sigma^2 inside, below
# and above the spectrum, spectra up to e^+-12 wide, budgets 1, 20 and
# 1000, and one ratio sigma^2 / v^T Sigma v that underflows to 0.
FROZEN_SEARCHES = (
    (
        (0.0, 2.0, [0.5, -1.0], [1.0, 4.0], [0.75], 1, 0),
        "0x1.102f88e2b8800p-23",
        ["0x1.4bf236c8b5af4p-1", "-0x1.85d0a58c263b4p-1"],
        "-0x1.15e4e07840897p+0",
        ("0x0.0p+0", "0x1.ffa2b79b63cd8p+0"),
    ),
    (
        (0.3, 0.25, [0.0, 1.0, -2.0], [1.0, 2.25, 4.0], [0.25, -0.5], 20, 7),
        "0x1.31c251c79106cp-2",
        ["-0x1.f53452cf46a29p-1", "0x1.9d1e394f1685dp-3", "0x1.07a32984632d0p-5"],
        "0x1.4d19c1d981771p-3",
        ("0x1.3333333333333p-2", "0x1.e5c1fe3ca6a2ap-1"),
    ),
    (
        (-1.5, 40.0, [1.0, 0.0, 0.5, -0.25], [3.0, 1.0, 2.0, 5.0], [0.5, -1.25, 0.75], 1000, 11),
        "0x1.29c304d66b01ap+1",
        ["0x1.33a13b7354518p-6", "0x1.3eec626a0e148p-4", "-0x1.05d28098dfbf0p-2", "-0x1.ed4789434db0ep-1"],
        "-0x1.a1bd26031b0f8p+0",
        ("-0x1.8000000000000p+0", "0x1.4cc72f3341c33p+2"),
    ),
    (
        (2.0, 1e-06, [0.0, 0.0, 0.0, 0.0, 0.0], [6e-06, 0.01, 1.0, 30.0, 160000.0], [1e-06, 0.003, -0.5, 2.0], 1, 3),
        "0x1.8b019851a7ee1p+2",
        ["0x1.e193556dbfbbap-7", "-0x1.94cf3e2a2d040p-1", "0x1.36bf55cbcfeb0p-1", "-0x1.4538b97696b5dp-4", "-0x1.3fb129af884c3p-12"],
        "0x1.0000000000000p+1",
        ("0x1.0000000000000p+1", "0x1.3f7ffdbf48c78p-1"),
    ),
    (
        (0.0, 3000000.0, [0.25, 0.25, 0.25, 0.25, 0.25, 0.25], [6.5e-06, 0.0002, 0.125, 8.0, 700.0, 150000.0], [0.0, 0.0001, 0.0625, -3.0, 100.0], 20, 5),
        "0x1.0016e7ba2816dp+3",
        ["0x1.e8d74190ab71ep-11", "0x1.eddd3cf435130p-9", "0x1.7c7f83b22ddf3p-8", "-0x1.04fec1e4c217ap-17", "0x1.03c4c4967b17bp-8", "-0x1.fffbc6136e5dfp-1"],
        "0x1.f8942f744690dp-3",
        ("0x0.0p+0", "0x1.24f2c5cba8ea7p+17"),
    ),
    (
        (-0.75, 2.5, [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0], [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5], [0.25, 0.25, -0.25, 0.25, -0.25, 0.25], 1000, 19),
        "0x1.2ff912e2c0000p-32",
        ["-0x1.8ea49208f86cap-4", "-0x1.2f4e8587fd92cp-4", "0x1.9c902e7c53e33p-2", "-0x1.5fbcccd6eb20dp-2", "-0x1.7974f812cc1f6p-1", "-0x1.3bdc0af7c414dp-3", "0x1.7ba4e8617caacp-2"],
        "-0x1.42c81d7ab1b10p+0",
        ("-0x1.8000000000001p-1", "0x1.3ffd469f66fc2p+1"),
    ),
    (
        (1.25, 0.02, [0.5, 0.0, -0.5, 1.0, 0.0, -1.0, 0.25, 0.0], [0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0], [0.05, -0.125, 0.25, 0.5, -1.0, 2.0, 4.0], 1000, 23),
        "0x1.9daba604c365ep-1",
        ["0x1.5b6048221acdap-1", "-0x1.6a68f0df8ab29p-1", "-0x1.9130322fb39cfp-3", "0x1.6cbf5bc836a5cp-7", "0x1.0b1738c06fb6cp-10", "0x1.88f5389597babp-7", "-0x1.38009eab1461bp-10", "0x1.9a0fdb3604e6cp-9"],
        "0x1.a0c1ad30070c7p-1",
        ("0x1.4000000000000p+0", "0x1.02d840a599a8bp-2"),
    ),
    (
        (-0.5, 1e-200, [0.0, 1.0], [1e+200, 2e+200], [0.0], 20, 0),
        "0x1.cc045b54b98c6p+8",
        ["-0x1.fffffff7858d4p-1", "-0x1.74b45e0e968f8p-15"],
        "-0x1.fff45a5d0f8b5p-2",
        ("-0x1.0000000000000p-1", "0x1.4e718d8889aa1p+664"),
    ),
    (
        (0.0, 200000.0, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [7e-06, 0.001, 0.04, 1.0, 9.0, 250.0, 4000.0, 150000.0], [1e-06, 0.0001, 0.01, -0.25, 2.0, -40.0, 500.0], 20, 29),
        "0x1.7ccab922ed8a0p-6",
        ["0x1.bd24e2d7559e3p-7", "-0x1.35d21b9841f7ep-5", "-0x1.1577e9da3ecdbp-8", "0x1.711208e7e378ap-6", "-0x1.35a8db8d0e57ap-7", "0x1.09844904eb30cp-6", "-0x1.148d4dd1a7202p-8", "-0x1.ff5b66e8f1143p-1"],
        "0x0.0p+0",
        ("0x0.0p+0", "0x1.243dedfe18a52p+17"),
    ),
)


def frozen_search_pair(mu, sigma2, nu, diagonal, off_diagonal):
    """The (Gaussian1D, GaussianND) pair of a ``FROZEN_SEARCHES`` row."""
    from divbounds import Gaussian1D, GaussianND

    sigma = np.diag(diagonal) + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1)
    return Gaussian1D(mu, sigma2), GaussianND(nu=nu, sigma=sigma)


def kl_gaussian_1d_reference(mu_a, s_a, mu_b, s_b) -> float:
    """``kl_gaussian_1d`` as it read before its body moved to a float kernel.

    A frozen copy: the kernel and the public function must return the
    same values bit for bit.
    """
    r = s_a / s_b
    if sys.float_info.min <= r < math.inf:
        log_r = math.log(r)
    else:
        log_r = math.log(s_a) - math.log(s_b)
    dmu = mu_a - mu_b
    val = 0.5 * (r - 1.0 - log_r + dmu * dmu / s_b)
    return val if val > 0 else 0.0


# --- the discrete kernels as they were before their one-pass rewrite -----
# Frozen copies: the one-pass kernels in ``measures`` must return the same
# values bit for bit and raise the same errors with the same messages.


def discrete_probs_reference(probs) -> np.ndarray:
    """``DiscreteDistribution``'s checks, one numpy pass per check.

    Returns the validated, read-only copy of ``probs``.
    """
    from divbounds import InvalidDistributionError
    from divbounds.measures import PROB_SUM_TOL

    arr = np.asarray(probs, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidDistributionError("probs must be a nonempty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise InvalidDistributionError("probs must be finite")
    if np.any(arr < 0):
        raise InvalidDistributionError(f"negative probability in {arr!r}")
    total = float(arr.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise InvalidDistributionError(f"probabilities sum to {total!r}, not 1")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _same_support_reference(pa: np.ndarray, qa: np.ndarray) -> None:
    from divbounds import DomainError

    if pa.size != qa.size:
        raise DomainError(f"support lengths differ: {pa.size} vs {qa.size}")


def kl_discrete_reference(pa: np.ndarray, qa: np.ndarray) -> float:
    """``kl_discrete`` on two validated probability vectors, masking per use."""
    _same_support_reference(pa, qa)
    mask = pa > 0
    if np.any(qa[mask] == 0):
        return math.inf
    val = float(np.sum(pa[mask] * np.log(pa[mask] / qa[mask])))
    return val if val > 0 else 0.0


def kl_discrete_within_contract(value: float, pa, qa) -> bool:
    """Whether ``value`` meets ``kl_discrete``'s contract for the pair.

    |value - KL| <= (k + 4) 2^-52 (sum_i |p_i log(p_i / q_i)| + 1) on k
    points, with KL and the sum taken from the doubles at 50 digits.
    """
    import mpmath

    if any(a > 0 and b == 0 for a, b in zip(pa, qa)):
        return value == math.inf
    with mpmath.workdps(50):
        terms = [
            mpmath.mpf(a) * mpmath.log(mpmath.mpf(a) / mpmath.mpf(b))
            for a, b in zip(pa, qa)
            if a > 0
        ]
        exact = mpmath.fsum(terms)
        weight = mpmath.fsum(abs(t) for t in terms)
        return abs(value - exact) <= (len(pa) + 4) * mpmath.mpf(2) ** -52 * (weight + 1)


def tv_discrete_variational_reference(pa: np.ndarray, qa: np.ndarray) -> float:
    """``tv_discrete`` on the variational scale."""
    _same_support_reference(pa, qa)
    return float(abs(pa - qa).sum())


def density_bounds_discrete_reference(pa: np.ndarray, qa: np.ndarray):
    """``density_bounds_discrete``, masking whether or not q has full support."""
    from divbounds import AbsoluteContinuityError, DensityBounds

    _same_support_reference(pa, qa)
    support = qa > 0
    if (pa[~support] > 0).any():
        raise AbsoluteContinuityError(
            "p puts mass where q does not; relative density undefined"
        )
    ratios = pa[support] / qa[support]
    return DensityBounds(m=float(ratios.min()), M=float(ratios.max()))


# --- the batched sandwich checker as it was before its column layout -----


def check_sandwich_rows_row_major(p, q):
    """``pinsker.check_sandwich_rows`` reducing along rows of C-ordered arrays.

    A frozen copy: the column-layout kernel must return every field bit
    for bit, and raise the same errors with the same messages. Its helpers
    (U, the report, the scalar fallback) are the library's.
    """
    from divbounds import DiscreteDistribution
    from divbounds.pinsker import _sandwich_report, check_sandwich_same_dim

    # row sums in the order of ``measures._sum``, which needs C order
    p = np.ascontiguousarray(p, dtype=float)
    q = np.ascontiguousarray(q, dtype=float)
    if p.ndim != 2 or p.shape != q.shape or p.shape[1] == 0:
        raise DomainError(
            f"need two (n, k) arrays of one shape, got {p.shape} and {q.shape}"
        )
    support = q > 0
    with np.errstate(all="ignore"):  # rows that are not plain are redone below
        ratio = np.divide(p, q, out=np.zeros_like(p), where=support)
        m = np.where(support, ratio, np.inf).min(axis=1)
        M = np.where(support, ratio, -np.inf).max(axis=1)
        delta_sup = 0.5 * np.abs(p - q).sum(axis=1)
        upper = _upper(delta_sup, m, M, np)
        plain = (
            (np.abs(p.sum(axis=1) - 1.0) <= PROB_SUM_TOL)  # false for nan and inf
            & (np.abs(q.sum(axis=1) - 1.0) <= PROB_SUM_TOL)
            & ~np.any((p < 0) | (q < 0) | (p > 0) & ~support, axis=1)
            & (0 < m) & (m < 1) & (1 < M)
            & np.isfinite(upper)  # not where M = inf
        )
        log_ratio = np.log(ratio, out=np.zeros_like(p), where=p > 0)
        divergence = (p * log_ratio).sum(axis=1)
    divergence = np.where(divergence > 0, divergence, 0.0)
    delta_var = np.where(plain, 2.0 * delta_sup, 0.0)
    rows = _sandwich_report(delta_var, divergence, upper, np)
    for i in np.flatnonzero(~plain):
        try:
            report = check_sandwich_same_dim(
                DiscreteDistribution(p[i]), DiscreteDistribution(q[i])
            )
        except ValueError as exc:
            raise type(exc)(f"row {i}: {exc}") from None
        for column, value in zip(rows, report):
            column[i] = value
    return rows
