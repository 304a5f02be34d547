"""Reverse-Pinsker upper bounds and the two-sided sandwich checkers.

With phi(x) = x log(x) / (x - 1) (continuously extended by phi(1) = 1),
the upper bound on KL at total variation delta, over pairs whose relative
density dP/dQ has essential bounds m and M, is

    U(delta, m, M) = delta * ( phi(M) - phi(m) ).

phi is increasing, so U > 0 whenever m < 1 < M. The bound is attained:
the two-point pair whose density ratio takes exactly the values m and M
has KL equal to U, because mass moving up contributes at most
phi(M) * (r - 1) of divergence per unit of total variation and mass
moving down removes at least phi(m) * (1 - r). When m = 1 or M = 1 the
pair is forced to be identical and U degenerates to 0.

The scale on which delta enters the formula is fixed empirically by
``oracle.resolve_tv_convention`` (an exhaustive binary-grid scan of
D_KL <= U), which selects the SUP convention; attainment makes any looser
scaling non-optimal. The choice is pinned here as ``PINNED_TV_CONVENTION``
and guarded by a test that reruns the scan.

numpy is imported only by the batched checker ``check_sandwich_rows``,
and ``augmented`` only by ``check_sandwich_augmented``. The discrete
kernels of ``measures`` are ``math`` loops, so the scalar bounds and
``check_sandwich_same_dim`` load neither.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import AbsoluteContinuityError, DomainError, InvalidDistributionError
from .measures import (
    PROB_SUM_TOL,
    DensityBounds,
    DiscreteDistribution,
    Gaussian1D,
    GaussianND,
    TvConvention,
    convert_tv,
    density_bounds_discrete,
    kl_discrete,
    tv_discrete,
)
from .serialize import dumps
from .vajda import (
    _poly,
    delta_max,
    poly_lower_bound,
    vajda_lower_bound,
    vajda_lower_bound_array,
)

# Scale on which delta enters U; see module docstring and the pinned test.
PINNED_TV_CONVENTION = TvConvention.SUP

# Slack for the reported inequality chain, absorbing float rounding only.
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
    """Outcome of a polynomial <= curve <= divergence <= upper check."""

    poly_lb: float
    vajda_lb: float
    divergence: float
    upper: float
    all_hold: bool

    def as_dict(self) -> dict:
        return self._asdict()

    def to_json(self) -> str:
        return dumps(self.as_dict())


class SandwichRows(NamedTuple):
    """The bound chains of many discrete pairs, one array entry per pair."""

    poly_lb: np.ndarray
    vajda_lb: np.ndarray
    divergence: np.ndarray
    upper: np.ndarray
    all_hold: np.ndarray

    def report(self, i: int) -> SandwichReport:
        """Pair ``i`` as a SandwichReport."""
        return SandwichReport(
            poly_lb=float(self.poly_lb[i]),
            vajda_lb=float(self.vajda_lb[i]),
            divergence=float(self.divergence[i]),
            upper=float(self.upper[i]),
            all_hold=bool(self.all_hold[i]),
        )


def _chain_holds(poly_lb, vajda_lb, divergence, upper):
    # written with & so that it serves floats and arrays alike
    return (
        (poly_lb <= vajda_lb + REPORT_TOL)
        & (vajda_lb <= divergence + REPORT_TOL)
        & (divergence <= upper + REPORT_TOL)
    )


def _sandwich_report(
    delta_var: float, divergence: float, upper: float
) -> SandwichReport:
    poly = poly_lower_bound(delta_var)
    # near-disjoint pairs can push delta past the curve's resolvable range;
    # the curve is increasing, so its value at the range end is still a
    # valid (conservative) lower bound and keeps the checkers total
    vajda = vajda_lower_bound(min(delta_var, delta_max()))
    return SandwichReport(
        poly_lb=poly,
        vajda_lb=vajda,
        divergence=divergence,
        upper=upper,
        all_hold=_chain_holds(poly, vajda, divergence, upper),
    )


def _phi(x, xp=math):
    # x log(x) / (x - 1); log1p keeps it stable as x approaches 1. ``xp`` is
    # math for floats and numpy for arrays.
    return x * xp.log1p(x - 1.0) / (x - 1.0)


def reverse_pinsker(delta: float, conv: TvConvention, bounds: DensityBounds) -> float:
    """Upper bound on KL at total variation ``delta`` given density bounds.

    Evaluates delta * (phi(M) - phi(m)) with delta converted to the pinned
    convention first. m = 1 or M = 1 forces the pair to be identical, so
    delta must be 0 there and the result is 0.
    """
    if not math.isfinite(delta) or delta < 0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    if bounds.m <= 0:
        raise DomainError(
            f"reverse Pinsker needs a positive essential infimum, got m = {bounds.m}"
        )
    d = convert_tv(delta, conv, PINNED_TV_CONVENTION)
    if bounds.m == 1.0 or bounds.M == 1.0:
        if d != 0.0:
            raise DomainError(
                f"m = {bounds.m}, M = {bounds.M} force identical measures, "
                f"so delta must be 0, got {d}"
            )
        return 0.0
    if not math.isfinite(bounds.M):
        raise DomainError("reverse Pinsker needs a finite essential supremum")
    return d * (_phi(bounds.M) - _phi(bounds.m))


def augmented_upper_bound(
    delta: float, conv: TvConvention, bounds: AugmentedDensityBounds
) -> float:
    """The larger of the two one-sided reverse-Pinsker bounds.

    Embedding and projection sides each yield a valid upper bound on the
    augmented KL divergence; their max is the reported bound.
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
    # claims identical measures, which reverse_pinsker rejects
    if db.M == math.inf and db.m != 1.0:
        upper = math.inf
    else:
        upper = reverse_pinsker(delta_sup, TvConvention.SUP, db)
    return _sandwich_report(2.0 * delta_sup, kl_discrete(p, q), upper)


def check_sandwich_rows(p: np.ndarray, q: np.ndarray) -> SandwichRows:
    """``check_sandwich_same_dim`` for every row pair of two (n, k) arrays.

    Row i of ``p`` and row i of ``q`` form one discrete pair. A pair on
    fewer than k points is padded with zeros in both rows; padding changes
    none of its quantities. Each row must pass DiscreteDistribution's
    checks, and p absolutely continuous w.r.t. q with m > 0, as in the
    scalar checker; a failing row raises the scalar checker's error, and a
    ratio past the largest double makes M and U inf there too. For
    k < 8, poly equals the scalar value, KL agrees within ``kl_discrete``'s
    contract (np.log rounds differently from math.log), the curve as
    ``vajda_lower_bound_array`` states, and the upper bound to a few ulps
    of the two phi values it subtracts (likewise for log1p).
    """
    import numpy as np
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 2 or p.shape != q.shape or p.shape[1] == 0:
        raise DomainError(
            f"need two (n, k) arrays of one shape, got {p.shape} and {q.shape}"
        )
    for name, arr in (("p", p), ("q", q)):
        if not np.all(np.isfinite(arr)):
            raise InvalidDistributionError(f"{name}: probs must be finite")
        if np.any(arr < 0):
            raise InvalidDistributionError(f"{name}: negative probability")
        with np.errstate(over="ignore"):  # an overflowed sum fails the check
            totals = arr.sum(axis=1)
        off = np.flatnonzero(np.abs(totals - 1.0) > PROB_SUM_TOL)
        if off.size:
            raise InvalidDistributionError(
                f"{name}: row {off[0]} sums to {float(totals[off[0]])}, not 1"
            )
    support = q > 0
    if np.any(p[~support] > 0):
        raise AbsoluteContinuityError(
            "p puts mass where q does not; relative density undefined"
        )
    with np.errstate(over="ignore"):  # an overflowed ratio makes M and U inf
        ratio = np.divide(p, q, out=np.zeros_like(p), where=support)
    m = np.where(support, ratio, np.inf).min(axis=1)
    M = np.where(support, ratio, -np.inf).max(axis=1)
    if np.any(m <= 0):
        raise DomainError(
            "reverse Pinsker needs a positive essential infimum, got m = 0"
        )
    delta_sup = 0.5 * np.abs(p - q).sum(axis=1)
    delta_var = 2.0 * delta_sup
    # m = 1 or M = 1 forces identical measures, where U is 0
    degenerate = (m == 1.0) | (M == 1.0)
    if np.any(degenerate & (delta_sup != 0.0)):
        raise DomainError(
            "m = 1 or M = 1 forces identical measures, so delta must be 0"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = np.where(degenerate, 0.0, delta_sup * (_phi(M, np) - _phi(m, np)))
    upper[~degenerate & (M == np.inf)] = np.inf
    log_ratio = np.log(ratio, out=np.zeros_like(p), where=p > 0)
    # as in kl_discrete, an overflowed ratio takes its log as log p - log q
    over = ratio == np.inf
    log_ratio[over] = np.log(p[over]) - np.log(q[over])
    divergence = (p * log_ratio).sum(axis=1)
    divergence = np.where(divergence > 0, divergence, 0.0)
    poly = _poly(delta_var)
    vajda = vajda_lower_bound_array(np.minimum(delta_var, delta_max()))
    return SandwichRows(
        poly_lb=poly,
        vajda_lb=vajda,
        divergence=divergence,
        upper=upper,
        all_hold=_chain_holds(poly, vajda, divergence, upper),
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
