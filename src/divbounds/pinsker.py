"""Reverse-Pinsker upper bounds and the two-sided sandwich checkers.

With phi(x) = x log(x) / (x - 1) (continuously extended by phi(1) = 1),
the upper bound on KL at total variation delta, over pairs whose relative
density dP/dQ has essential bounds m and M, is

    U(delta, m, M) = delta * ( phi(M) - phi(m) ).

phi is increasing, so U > 0 whenever m < 1 < M. The bound is attained:
the two-point pair whose density ratio takes exactly the values m and M
has KL equal to U, because mass moving up contributes at most
phi(M) * (r - 1) of divergence per unit of total variation and mass
moving down removes at least phi(m) * (1 - r). When m = 1, M = 1 or
m = M the pair is forced to be identical and U degenerates to 0.

That attainment settles the scale on which delta enters the formula: KL
equals U at such pairs on the SUP reading of delta, and half of U on the
other. ``_upper`` is the one place U is formed, with delta on that scale;
``reverse_pinsker`` converts its input to it, the checkers pass their own
SUP delta, and ``divbounds verify`` checks it at the attaining pairs
(``oracle.verify_tightness``).

Every checker returns a ``SandwichReport``: floats for one pair, 1-D
arrays for a batch. Its ``gaps`` are the chain's three links, vajda -
poly, KL - vajda and U - KL; the verdict ``all_hold``, the fuzz margins
and the attainment gaps of ``divbounds verify`` all read them.
``check_sandwich_same_dim`` holds every edge rule of the discrete chain.
The batched ``check_sandwich_rows`` computes only plain rows as arrays:
both sums within PROB_SUM_TOL of 1, no negative or nan entry, p
absolutely continuous w.r.t. q, 0 < m < 1 < M and a finite U. It hands
each other row to the scalar checker (tens of us a row) and raises its
error as ``row i: <message>``.
numpy is imported only by that checker, and ``augmented`` only by
``check_sandwich_augmented``; the discrete kernels of ``measures`` are
``math`` loops.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError
from .measures import (
    PROB_SUM_TOL,
    DensityBounds,
    DiscreteDistribution,
    Gaussian1D,
    GaussianND,
    TvConvention,
    _sum,
    convert_tv,
    density_bounds_discrete,
    kl_discrete,
    tv_discrete,
)
from .vajda import _poly, delta_max, vajda_lower_bound, vajda_lower_bound_array

# Slack for the reported inequality chain, absorbing float rounding only:
# the verdict holds when every one of a report's ``gaps`` is >= -REPORT_TOL.
REPORT_TOL = 1e-9


class AugmentedDensityBounds(NamedTuple):
    """Density bounds for both sides of a different-dimension pair.

    ``emb`` bounds the embedding-side relative density (w.r.t. the
    higher-dimensional measure), ``proj`` the projection-side one (w.r.t.
    the projected measure).
    """

    emb: DensityBounds
    proj: DensityBounds


class SandwichReport(NamedTuple):
    """Outcome of a poly <= curve <= divergence <= upper check; arrays for a batch."""

    poly_lb: float
    vajda_lb: float
    divergence: float
    upper: float
    all_hold: bool

    def as_dict(self) -> dict:
        return self._asdict()

    @property
    def gaps(self) -> tuple:
        """The links (vajda - poly, KL - vajda, upper - KL); < 0 where one fails."""
        return _gaps(*self[:4])


def _gaps(poly_lb, vajda_lb, divergence, upper):
    # the one place the chain's links are formed; floats and arrays alike
    return vajda_lb - poly_lb, divergence - vajda_lb, upper - divergence


def _sandwich_report(delta_var, divergence, upper, xp=math) -> SandwichReport:
    # ``xp`` is math for one pair, numpy for a batch. Near-disjoint pairs can
    # push delta past the curve's resolvable range; the curve is increasing,
    # so its value at the range end is still a valid (conservative) lower
    # bound and keeps the checkers total.
    poly = _poly(delta_var)
    if xp is math:
        vajda = vajda_lower_bound(min(delta_var, delta_max()))
    else:
        vajda = vajda_lower_bound_array(xp.minimum(delta_var, delta_max()))
    # written with & so that it serves floats and arrays alike
    low, mid, high = _gaps(poly, vajda, divergence, upper)
    holds = (low >= -REPORT_TOL) & (mid >= -REPORT_TOL) & (high >= -REPORT_TOL)
    return SandwichReport(poly, vajda, divergence, upper, holds)


def _phi(x, xp=math):
    # x log(x) / (x - 1); x - 1 is exact near 1, and log x is finite for
    # every positive double. Grouped so that no product overflows: x log x
    # does from x = 2.6e305 on. ``xp`` is math for floats, numpy for arrays.
    return x * (xp.log(x) / (x - 1.0))


def _upper(delta_sup, m, M, xp=math):
    # U with delta on the SUP scale, the one its attaining pairs fix
    return delta_sup * (_phi(M, xp) - _phi(m, xp))


def _checked_upper(delta_sup: float, bounds: DensityBounds) -> float:
    # U's edge rules, for a delta already on the SUP scale
    if bounds.m <= 0:
        raise DomainError(
            f"reverse Pinsker needs a positive essential infimum, got m = {bounds.m}"
        )
    if bounds.m == 1.0 or bounds.M == 1.0 or bounds.m == bounds.M:
        if delta_sup != 0.0:
            raise DomainError(
                f"m = {bounds.m}, M = {bounds.M} force identical measures, "
                f"so delta must be 0, got {delta_sup}"
            )
        return 0.0
    if not math.isfinite(bounds.M):
        raise DomainError("reverse Pinsker needs a finite essential supremum")
    return _upper(delta_sup, bounds.m, bounds.M)


def reverse_pinsker(delta: float, conv: TvConvention, bounds: DensityBounds) -> float:
    """Upper bound on KL at total variation ``delta`` given density bounds.

    Evaluates delta * (phi(M) - phi(m)) with delta converted to the SUP
    scale first. m = 1, M = 1 or m = M forces the pair to be identical
    (two normalized measures cannot have a constant density ratio other
    than 1), so delta must be 0 there and the result is 0.
    """
    return _checked_upper(convert_tv(delta, conv, TvConvention.SUP), bounds)


def augmented_upper_bound(
    delta: float, conv: TvConvention, bounds: AugmentedDensityBounds
) -> float:
    """The larger of the two one-sided reverse-Pinsker bounds.

    The max is the conservative choice; whether each side alone bounds
    the augmented KL, so that the tighter min would do, is open.
    """
    return max(
        reverse_pinsker(delta, conv, bounds.emb),
        reverse_pinsker(delta, conv, bounds.proj),
    )


def check_sandwich_same_dim(
    p: DiscreteDistribution, q: DiscreteDistribution
) -> SandwichReport:
    """Evaluate the full bound chain for a discrete pair and report it.

    Computes delta and the density bounds from the pair itself; requires
    p absolutely continuous w.r.t. q, and m > 0 for the upper bound. A
    density ratio past the largest double makes M, and the upper bound,
    +inf.
    """
    delta_sup = tv_discrete(p, q, TvConvention.SUP)
    db = density_bounds_discrete(p, q)
    # a ratio past the largest double leaves U unbounded, unless m = 1
    # claims identical measures, which reverse_pinsker rejects. A constant
    # ratio off 1 is a proportional pair, one measure up to the sums'
    # slack: U is 0, and the delta that slack leaves is no error
    if db.M == math.inf and db.m != 1.0:
        upper = math.inf
    elif db.m == db.M != 1.0:
        upper = 0.0
    else:
        upper = _checked_upper(delta_sup, db)
    return _sandwich_report(2.0 * delta_sup, kl_discrete(p, q), upper)


def check_sandwich_rows(p: np.ndarray, q: np.ndarray) -> SandwichReport:
    """``check_sandwich_same_dim`` for every row pair of two (n, k) arrays.

    Returns one ``SandwichReport`` whose fields, and whose ``gaps``, are 1-D
    arrays with entry i for pair i. Row i of ``p`` and row i of ``q`` form
    one discrete pair; zero padding in both rows changes none of its
    quantities. Plain rows (see the module docstring) are computed as
    arrays. On them, for k < 8, poly equals the scalar value, KL agrees
    within ``kl_discrete``'s contract (np.log and math.log round
    differently), the curve within 1e-14 relative from delta = 1e-40 up
    (below ~1e-57 the scalar curve floors at 1.21e-116, the batched one is
    delta^2/2), and U to a few ulps of the two phi values it subtracts.
    Every other row is a scalar check, whose report it takes bit for bit and
    whose error it raises as ``row i: <message>`` for the first row that
    fails.

    The kernel works on the transposes, one row per support point and one
    column per pair, so that each pair's min, max and sums are reductions
    across whole rows, and the transposed views the fuzz draws in that
    layout are not copied. Each column is summed in ``measures._sum``'s
    order, the one numpy's row sums take, so any memory layout of the
    input gives the same bits.
    """
    import numpy as np
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if p.ndim != 2 or p.shape != q.shape or p.shape[1] == 0:
        raise DomainError(
            f"need two (n, k) arrays of one shape, got {p.shape} and {q.shape}"
        )
    # one row per support point and one column per pair (see above)
    p, q = np.ascontiguousarray(p.T), np.ascontiguousarray(q.T)
    support = q > 0
    with np.errstate(all="ignore"):  # rows that are not plain are redone below
        ratio = np.divide(p, q, out=np.zeros_like(p), where=support)
        m = np.where(support, ratio, np.inf).min(axis=0)
        M = np.where(support, ratio, -np.inf).max(axis=0)
        delta_sup = 0.5 * _sum(np.abs(p - q))
        upper = _upper(delta_sup, m, M, np)
        plain = (
            (np.abs(_sum(p) - 1.0) <= PROB_SUM_TOL)  # false for nan and inf
            & (np.abs(_sum(q) - 1.0) <= PROB_SUM_TOL)
            & ~np.any((p < 0) | (q < 0) | (p > 0) & ~support, axis=0)
            & (0 < m) & (m < 1) & (1 < M)
            & np.isfinite(upper)  # not where M = inf
        )
        log_ratio = np.log(ratio, out=np.zeros_like(p), where=p > 0)
        divergence = _sum(p * log_ratio)
    divergence = np.where(divergence > 0, divergence, 0.0)
    delta_var = np.where(plain, 2.0 * delta_sup, 0.0)
    rows = _sandwich_report(delta_var, divergence, upper, np)
    for i in np.flatnonzero(~plain):
        try:
            report = check_sandwich_same_dim(
                DiscreteDistribution(p[:, i]), DiscreteDistribution(q[:, i])
            )
        except ValueError as exc:
            raise type(exc)(f"row {i}: {exc}") from None
        for column, value in zip(rows, report):
            column[i] = value
    return rows


def check_sandwich_augmented(
    p: Gaussian1D,
    q: GaussianND,
    bounds: AugmentedDensityBounds,
    atv: float,
    conv: TvConvention,
) -> SandwichReport:
    """Evaluate the bound chain for a 1-D vs n-D Gaussian pair.

    The caller supplies the augmented total variation ``atv`` (on scale
    ``conv``; typically the closed form ``augmented.atv_gaussian``) and the
    density bounds, which are not computable in closed form here (for
    untruncated Gaussians they degenerate; truncation makes them finite,
    and the caller asserts them). The checker only reports whether the
    chain holds; inconsistent inputs yield all_hold = False, not an error.
    """
    from .augmented import gaussian_akl
    return _sandwich_report(
        convert_tv(atv, conv, TvConvention.VARIATIONAL),
        gaussian_akl(p, q),
        augmented_upper_bound(atv, conv, bounds),
    )
