"""Reverse-Pinsker upper bounds and the two-sided sandwich checkers.

With phi(x) = x log(x) / (x - 1) (phi(x) = x at its limits 0, 1 and inf),
the upper bound on KL at total variation delta, over pairs whose relative
density dP/dQ has essential bounds m and M, is

    U(delta, m, M) = delta * ( phi(M) - phi(m) ).

phi is increasing, so U > 0 whenever m < 1 < M. The bound is attained:
the two-point pair whose density ratio takes exactly the values m and M
has KL equal to U, because mass moving up contributes at most
phi(M) * (r - 1) of divergence per unit of total variation and mass
moving down removes at least phi(m) * (1 - r). That includes m = 0: P =
(1, 0) against Q = (1/M, 1 - 1/M) has KL = log M = U.

That attainment settles the scale on which delta enters the formula: KL
equals U at such pairs on the SUP reading of delta, and half of U on the
other. ``_upper`` is the one place U is formed, with delta on that scale;
``reverse_pinsker`` converts its input to it, the checkers pass their own
SUP delta, and ``divbounds verify`` checks it at the attaining pairs
(``oracle.verify_tightness``).

Every checker returns a ``SandwichReport``: floats for one pair, 1-D
arrays for a batch. Its ``gaps`` are the chain's three links, vajda -
poly, KL - vajda and U - KL; the verdict ``all_hold``, the fuzz margins
and the attainment gaps of ``divbounds verify`` all read them. The
discrete checkers take U at the bounds read off the pair, with no edge
rule (a ratio past the largest double gives U = inf), and raise only for
invalid input; the edge rules of ``reverse_pinsker`` are for bounds a
user supplies. The batched ``check_sandwich_rows`` computes every valid
row as arrays, and raises the first invalid row's scalar error as
``row i: <message>``.
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
    # x log(x) / (x - 1), or x at the limits 0, 1 and inf, where the
    # quotient is nan. x - 1 is exact near 1; grouped so that no product
    # overflows (x log x does from 2.6e305 on). ``xp`` is math or numpy.
    if xp is math:
        if x in (0.0, 1.0, math.inf):
            return x
        return x * (math.log(x) / (x - 1.0))
    with xp.errstate(divide="ignore", invalid="ignore"):
        value = x * (xp.log(x) / (x - 1.0))
    return xp.where(xp.isnan(value), x, value)


def _upper(delta_sup, m, M, xp=math):
    # U with delta on the SUP scale, the one its attaining pairs fix
    return delta_sup * (_phi(M, xp) - _phi(m, xp))


def reverse_pinsker(delta: float, conv: TvConvention, bounds: DensityBounds) -> float:
    """Upper bound on KL at total variation ``delta`` given density bounds.

    Evaluates delta * (phi(M) - phi(m)) with delta converted to the SUP
    scale first; m = 0 is U's attained limit. Two rules hold for these
    user-supplied bounds, not for those the checkers read off a pair:
    m = 1, M = 1 or m = M forces identical measures (two normalized
    measures cannot have a constant density ratio other than 1), so delta
    must be 0 and the result is 0; and M = inf is rejected.
    """
    delta_sup = convert_tv(delta, conv, TvConvention.SUP)
    m, M = bounds.m, bounds.M
    if m == 1.0 or M == 1.0 or m == M:
        if delta_sup != 0.0:
            raise DomainError(
                f"m = {m}, M = {M} force identical measures, "
                f"so delta must be 0, got {delta_sup}"
            )
        return 0.0
    if M == math.inf:
        raise DomainError("reverse Pinsker needs a finite essential supremum")
    return _upper(delta_sup, m, M)


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

    Computes delta and the density bounds from the pair itself, and U at
    them; requires p absolutely continuous w.r.t. q. A density ratio past
    the largest double makes M, and the upper bound, +inf.
    """
    delta_sup = tv_discrete(p, q, TvConvention.SUP)
    db = density_bounds_discrete(p, q)
    return _sandwich_report(
        2.0 * delta_sup, kl_discrete(p, q), _upper(delta_sup, db.m, db.M)
    )


def check_sandwich_rows(p: np.ndarray, q: np.ndarray) -> SandwichReport:
    """``check_sandwich_same_dim`` for every row pair of two (n, k) arrays.

    Returns one ``SandwichReport`` whose fields, and whose ``gaps``, are 1-D
    arrays with entry i for pair i. Row i of ``p`` and row i of ``q`` form
    one discrete pair; zero padding in both rows changes none of its
    quantities, only (from 8 columns on) the order its sums add in. A row
    is valid when both sums lie within PROB_SUM_TOL of 1, no entry is
    negative or nan, and p is absolutely continuous w.r.t. q; every valid
    row is computed as arrays. Against the scalar checker on the same
    row, zeros included, poly is equal for every k, KL agrees
    within ``kl_discrete``'s contract (np.log and math.log round
    differently), the curve within 1e-14 relative from delta = 1e-40 up
    (below ~1e-57 the scalar curve floors at 1.21e-116, the batched one
    is delta^2/2), and U to a few ulps of the two phi values it
    subtracts. If a row is invalid, the scalar checker's error for the
    first one is raised as ``row i: <message>``.

    The kernel works on the transposes, one row per support point and one
    column per pair, so that each pair's min, max and sums are reductions
    across whole rows, and the transposed views the fuzz draws in that
    layout are not copied. Each column is summed in ``measures._sum``'s
    order, the one numpy's row sums take, so any memory layout of the
    input gives the same bits. Past the validity masks, one (k, n) array
    serves in turn as the density ratio, its log, the KL terms and
    |p - q|, and m and M are masked reductions of it; it is freed before
    the curve's Newton passes, where the kernel peaks, 176 B a pair above
    its input at k = 6.
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
    with np.errstate(over="ignore", invalid="ignore"):  # sums of invalid rows
        valid = (
            (np.abs(_sum(p) - 1.0) <= PROB_SUM_TOL)  # false for nan and inf
            & (np.abs(_sum(q) - 1.0) <= PROB_SUM_TOL)
            & ~np.any((p < 0) | (q < 0) | (p > 0) & ~support, axis=0)
        )
    for i in np.flatnonzero(~valid):
        try:
            check_sandwich_same_dim(
                DiscreteDistribution(p[:, i]), DiscreteDistribution(q[:, i])
            )
        except ValueError as exc:
            raise type(exc)(f"row {i}: {exc}") from None
    # the one (k, n) array (see above); the log leaves it 0 where p = 0
    with np.errstate(over="ignore"):  # a ratio past the largest double is inf
        work = np.divide(p, q, out=np.zeros_like(p), where=support)
    m = np.min(work, axis=0, where=support, initial=np.inf)
    M = np.max(work, axis=0, where=support, initial=-np.inf)
    np.log(work, out=work, where=p > 0)
    # as in kl_discrete, an overflowing ratio takes its log as log p - log q;
    # only the columns with M = inf hold one, and its log is inf
    over = np.flatnonzero(M == np.inf)
    point, pair = np.nonzero(work[:, over] == np.inf)
    at = point, over[pair]
    work[at] = np.log(p[at]) - np.log(q[at])
    divergence = _sum(np.multiply(p, work, out=work))
    delta_sup = 0.5 * _sum(np.abs(np.subtract(p, q, out=work), out=work))
    del work  # free before the curve's Newton passes, the kernel's peak
    divergence = np.where(divergence > 0, divergence, 0.0)
    return _sandwich_report(
        2.0 * delta_sup, divergence, _upper(delta_sup, m, M, np), np
    )


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
