"""Probability measures and exact divergence computations.

Finite discrete distributions, 1-D and n-D Gaussians, the two
total-variation scaling conventions, and the exact KL / TV values that
every bound in this package is checked against.

Convention policy: nothing here defaults a TV convention silently. SUP is
the event-supremum form sup_A |P(A) - Q(A)| with range [0, 1]; VARIATIONAL
is the L1 form, exactly twice SUP, with range [0, 2].

A discrete distribution keeps its entries as a tuple of floats, and the
discrete divergences are ``math`` loops over those tuples. Every sum adds
in numpy's ``add.reduce`` order, so the constructor's checks, TV and the
density bounds give the bits numpy's array forms gave; KL can differ in
its last bits, as its contract states. numpy is imported only where an
array is built or read: ``GaussianND``, ``DiscreteDistribution.probs``, a
discrete input other than a list or tuple of plain numbers (any array,
nested lists, strings), and the repr in the "negative probability"
error. So the discrete, Gaussian and TV-convention code loads without it.

The validating records here and in ``augmented`` derive from
``_Record``, an immutable ``__slots__`` class; results that only hold
data are ``NamedTuple``s.
"""

from __future__ import annotations

import json
import math
import sys
from enum import Enum
from functools import reduce
from operator import add
from typing import Union

from .errors import (
    AbsoluteContinuityError,
    DomainError,
    InvalidDistributionError,
)

PROB_SUM_TOL = 1e-12
# how far DensityBounds lets m exceed 1, and 1 exceed M (see its docstring)
_SUM_RATIO_SLACK = (1.0 + PROB_SUM_TOL) / (1.0 - PROB_SUM_TOL) * (1.0 + 2.0**-52)
SYMMETRY_TOL = 1e-12
GAUSS_TV_ABS_TOL = 1e-13
_SQRT_HALF = math.sqrt(0.5)
# |mu_a - mu_b| / (wider sigma) past which two Gaussians overlap by under
# 1e-80 (SUP TV rounds to 1), and past which the crossing quadratic overflows
_DISJOINT_SEPARATION = 40.0
_MAX_SEPARATION = 1e150
_FLOAT_MIN = sys.float_info.min  # smallest normal double
# element types a list or tuple of probabilities is converted without numpy
_PLAIN_NUMBERS = frozenset((float, int, bool))


class TvConvention(Enum):
    """Total-variation scaling convention; SUP = VARIATIONAL / 2."""

    SUP = "sup"
    VARIATIONAL = "variational"

    @property
    def span(self) -> float:
        """Largest attainable TV value under this convention."""
        return 1.0 if self is TvConvention.SUP else 2.0


def convert_tv(value: float, source: TvConvention, target: TvConvention) -> float:
    """Rescale a TV value between conventions (exact factor of 2).

    The value must lie in [0, source.span], with 1e-12 of slack at the
    top for a TV summed from rounded probabilities.
    """
    if not math.isfinite(value):
        raise DomainError(f"TV value must be finite, got {value}")
    if value < 0 or value > source.span + 1e-12:
        raise DomainError(
            f"TV value {value} outside [0, {source.span}] for {source.value}"
        )
    if source is target:
        return value
    return value * 2.0 if source is TvConvention.SUP else value * 0.5


def _sum(terms) -> float:
    """Sum floats in the order numpy's ``add.reduce`` adds a 1-D array.

    numpy adds fewer than 8 terms left to right, up to 128 terms in 8
    interleaved accumulators, and more by splitting at a multiple of 8
    near the middle, all onto an initial 0.0. Following that order gives
    the same bits as ``np.sum`` on the same terms. The rows of a 2-D array
    are terms too: each column is then summed in that order, the one
    numpy's row sums take on the transpose.
    """
    n = len(terms)
    if n < 8:
        return reduce(add, terms, 0.0)
    if n <= 128:
        m = n - n % 8
        r = [reduce(add, terms[j:m:8]) for j in range(8)]
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return 0.0 + reduce(add, terms[m:], head)
    half = n // 2 - n // 2 % 8
    return _sum(terms[:half]) + _sum(terms[half:])


class _Record:
    """Base of the records that are not NamedTuples: immutable ``__slots__``.

    ``_fields`` names the constructor's arguments in order; ``repr``,
    equality, ``hash`` and pickling go by them. A record holding arrays,
    which have no single truth value, takes back ``object``'s identity
    equality. A subclass's ``__init__`` checks its arguments and then
    stores them, or their normalized forms, once with
    ``object.__setattr__``.
    """

    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()


class DiscreteDistribution(_Record):
    """Probability vector on a finite support.

    Entries must be nonnegative and sum to 1 within 1e-12 absolute. They
    are kept as a tuple of floats; ``probs`` builds a read-only float64
    array of them on each access. Immutable, and equal only to itself.
    """

    __slots__ = _fields = ("_probs",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, probs):
        if type(probs) in (list, tuple) and _PLAIN_NUMBERS.issuperset(map(type, probs)):
            values = tuple(map(float, probs))
        else:
            # arrays, nested lists and strings convert as numpy converts them
            import numpy as np
            arr = np.asarray(probs, dtype=float)
            values = tuple(arr.tolist()) if arr.ndim == 1 else ()
        if not values:
            raise InvalidDistributionError("probs must be a nonempty 1-D vector")
        # a finite sum has finite terms; finite terms whose sum overflows
        # fall through to the later checks
        total = _sum(values)
        if not math.isfinite(total) and not all(map(math.isfinite, values)):
            raise InvalidDistributionError("probs must be finite")
        if min(values) < 0:
            import numpy as np
            raise InvalidDistributionError(
                f"negative probability in {np.array(values)!r}"
            )
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise InvalidDistributionError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "_probs", values)

    def __repr__(self) -> str:
        return f"DiscreteDistribution(probs={list(self._probs)!r})"

    @property
    def probs(self) -> np.ndarray:
        import numpy as np
        arr = np.array(self._probs, dtype=float)
        arr.flags.writeable = False
        return arr

    @property
    def size(self) -> int:
        return len(self._probs)

    def to_json_dict(self) -> dict:
        return {"type": "discrete", "probs": list(self._probs)}


class Gaussian1D(_Record):
    """Normal distribution on the real line with variance sigma2 > 0."""

    __slots__ = _fields = ("mu", "sigma2")

    def __init__(self, mu: float, sigma2: float):
        if not (math.isfinite(mu) and math.isfinite(sigma2)):
            raise InvalidDistributionError("mu and sigma2 must be finite")
        if not sigma2 > 0:
            raise InvalidDistributionError(f"sigma2 must be positive, got {sigma2}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma2", sigma2)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def to_json_dict(self) -> dict:
        return {"type": "gaussian1d", "mu": self.mu, "sigma2": self.sigma2}


class GaussianND(_Record):
    """Normal distribution on R^n with symmetric positive-definite covariance.

    The covariance is symmetrized by averaging with its transpose (inputs
    may carry parse noise up to 1e-12 asymmetry) before the eigenvalue
    decomposition; eigenvalues are stored sorted ascending. A covariance
    whose symmetrized entries or eigenvalues overflow to inf is rejected.
    """

    __slots__ = ("nu", "sigma", "eigenvalues")
    _fields = ("nu", "sigma")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, nu: np.ndarray, sigma: np.ndarray):
        import numpy as np
        nu = np.asarray(nu, dtype=float)
        sig = np.asarray(sigma, dtype=float)
        if nu.ndim != 1 or nu.size == 0:
            raise InvalidDistributionError("nu must be a nonempty 1-D vector")
        n = nu.size
        if sig.shape != (n, n):
            raise InvalidDistributionError(
                f"sigma must be {n}x{n} to match nu, got shape {sig.shape}"
            )
        if not (np.isfinite(nu).all() and np.isfinite(sig).all()):
            raise InvalidDistributionError("nu and sigma must be finite")
        with np.errstate(over="ignore"):
            # entries near the largest double can overflow both sums to inf
            asym = float(np.max(np.abs(sig - sig.T))) if n > 1 else 0.0
            sym = 0.5 * (sig + sig.T)
        if asym > SYMMETRY_TOL:
            raise InvalidDistributionError(
                f"sigma asymmetric by {asym:.3e} (tolerance {SYMMETRY_TOL})"
            )
        if not np.isfinite(sym).all():
            raise InvalidDistributionError(
                "sigma overflows: (sigma + sigma^T) / 2 is not finite"
            )
        evs = np.linalg.eigvalsh(sym)
        if not evs[-1] < math.inf:
            raise InvalidDistributionError(
                "sigma overflows: its largest eigenvalue is not finite"
            )
        if not evs[0] > 0:
            raise InvalidDistributionError(
                f"sigma is not positive definite (smallest eigenvalue {evs[0]:.3e})"
            )
        for name, arr in (("nu", nu.copy()), ("sigma", sym), ("eigenvalues", evs)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return int(self.nu.size)

    def to_json_dict(self) -> dict:
        return {
            "type": "gaussiannd",
            "nu": [float(x) for x in self.nu],
            "sigma": [[float(x) for x in row] for row in self.sigma],
        }


class DensityBounds(_Record):
    """Essential infimum m and supremum M of a relative density dP/dQ.

    Because dP/dQ integrates to 1 under Q, m <= 1 <= M, up to the sums:
    two probability vectors may each sum to within PROB_SUM_TOL of 1, so m
    may exceed 1, and 1 exceed M, by the factor (1 + PROB_SUM_TOL) / (1 -
    PROB_SUM_TOL) and an ulp. m = 0 (P vanishing on part of Q's support)
    is the reverse-Pinsker bound's attained limit. M = +inf (a ratio past
    the largest double) makes that bound +inf for a pair's own bounds,
    and ``reverse_pinsker`` rejects it as a bound a user supplies.
    """

    __slots__ = _fields = ("m", "M")

    def __init__(self, m: float, M: float):
        if not (math.isfinite(m) and M <= math.inf):
            raise DomainError("density bounds must be finite (M may be inf)")
        if m < 0:
            raise DomainError(f"essential infimum must be >= 0, got {m}")
        if m > _SUM_RATIO_SLACK or M < 1.0 / _SUM_RATIO_SLACK:
            raise DomainError(
                f"density bounds must satisfy m <= 1 <= M, got ({m}, {M})"
            )
        if M < m:
            raise DomainError(f"M < m: ({m}, {M})")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "M", M)


Distribution = Union[DiscreteDistribution, Gaussian1D, GaussianND]


def _check_same_support(p: DiscreteDistribution, q: DiscreteDistribution) -> None:
    if p.size != q.size:
        raise DomainError(f"support lengths differ: {p.size} vs {q.size}")


def kl_discrete(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """KL divergence sum_i p_i log(p_i / q_i), natural log.

    0 log 0 is 0; +inf when p puts mass where q does not. A ratio that
    overflows takes its log as log p_i - log q_i.

    Contract, on a support of k points with c = k + 4:

        |kl - exact| <= c * 2**-52 * (sum_i |p_i log(p_i / q_i)| + 1).

    The 1 covers the rounding of each ratio, whose log is off by up to
    2**-53 absolute; the rest covers each log's ulps and the sum. The
    former numpy kernel meets it as well; the two can differ in the last
    bits because ``math.log`` and ``np.log`` round differently.
    """
    _check_same_support(p, q)
    terms = []
    for a, b in zip(p._probs, q._probs):
        if a > 0:
            if not b:
                return math.inf
            r = a / b
            terms.append(a * (math.log(r) if r < math.inf else math.log(a) - math.log(b)))
    val = _sum(terms)
    return val if val > 0 else 0.0


def tv_discrete(
    p: DiscreteDistribution, q: DiscreteDistribution, conv: TvConvention
) -> float:
    """Total variation between discrete distributions under ``conv``."""
    _check_same_support(p, q)
    variational = _sum([abs(a - b) for a, b in zip(p._probs, q._probs)])
    return 0.5 * variational if conv is TvConvention.SUP else variational


def kl_gaussian_1d(a: Gaussian1D, b: Gaussian1D) -> float:
    """Closed-form KL between 1-D Gaussians:

        (1/2) [ s_a/s_b - 1 + log(s_b/s_a) + (mu_a - mu_b)^2 / s_b ]
    """
    return _kl_gaussian(a.sigma2, b.sigma2, a.mu - b.mu)


def _kl_gaussian(s_a: float, s_b: float, dmu: float) -> float:
    # kl_gaussian_1d on plain floats: variances s_a, s_b > 0, means dmu apart
    r = s_a / s_b
    # a ratio that overflows or underflows (to 0 or a subnormal, which has
    # lost its relative precision) takes its log from the two variances
    if _FLOAT_MIN <= r < math.inf:
        log_r = math.log(r)
    else:
        log_r = math.log(s_a) - math.log(s_b)
    val = 0.5 * (r - 1.0 - log_r + dmu * dmu / s_b)
    return val if val > 0 else 0.0


def _normal_mass(lo: float, hi: float) -> float:
    # standard normal mass of (lo, hi), from erfc on whichever side of 0
    # the interval lies, so a tail mass keeps its relative accuracy
    if lo >= 0.0:
        return 0.5 * (math.erfc(lo * _SQRT_HALF) - math.erfc(hi * _SQRT_HALF))
    if hi <= 0.0:
        return 0.5 * (math.erfc(-hi * _SQRT_HALF) - math.erfc(-lo * _SQRT_HALF))
    return 0.5 * (math.erf(hi * _SQRT_HALF) - math.erf(lo * _SQRT_HALF))


def _standard_crossings(a: Gaussian1D, b: Gaussian1D):
    """Density crossings in u = (x - mu_n) / sigma_n, n the narrower density.

    Returns (n, k, t, roots); the wider density w has standard coordinate
    k u - t, and 2 (log f_w - log f_n) = lead u^2 + 2 k t u - (t^2 + L)
    with lead = (s_w - s_n) / s_w and L = log(s_w / s_n) >= 0, so no term
    of the discriminant is negative and nothing cancels, however large
    the common mean or the variance ratio; DomainError once t^2 overflows.
    No roots when a == b.
    """
    w, n = (a, b) if a.sigma2 >= b.sigma2 else (b, a)
    lead = (w.sigma2 - n.sigma2) / w.sigma2
    k = n.sigma / w.sigma
    t = (w.mu - n.mu) / w.sigma
    if not abs(t) <= _MAX_SEPARATION:
        raise DomainError(f"means {abs(t):.3g} wider sigmas apart overflow")
    if lead == 0.0 and t == 0.0:
        return n, k, t, []
    c = t * t + (-math.log1p(-lead) if lead <= 0.5 else -2.0 * math.log(k))
    q = -(k * t + math.copysign(math.sqrt((k * t) ** 2 + lead * c), t))
    roots = [-c / q, q / lead] if lead > 0.0 else [-c / q]
    return n, k, t, sorted(roots)


def density_crossings(a: Gaussian1D, b: Gaussian1D) -> list[float]:
    """Points where the two Gaussian densities are equal, sorted.

    Two for unequal variances, one for equal variances and distinct
    means, none for identical inputs.
    """
    n, _, _, roots = _standard_crossings(a, b)
    return [n.mu + n.sigma * u for u in roots]


def tv_gaussian_1d(a: Gaussian1D, b: Gaussian1D, conv: TvConvention) -> float:
    """Total variation between 1-D Gaussians in closed form.

    G(u) = Phi(k u - t) - Phi(u), the wider CDF minus the narrower in the
    narrower's standard coordinate u, is 0 at +-inf and monotone between
    the density crossings, so the SUP value is sum |G(u)| over them
    (Devroye, Mehrabian and Reddad 2018, arXiv:1810.08693): one normal
    mass per crossing, and no O(1) masses subtracted. The one crossing of
    equal variances has an interval that straddles 0, whose mass comes
    from erf with its relative accuracy, however close the means.

    Contract: within ``GAUSS_TV_ABS_TOL`` = 1e-13 absolute of the exact
    value on the SUP scale (twice that under VARIATIONAL), and 1e-15
    relative for equal variances; 1 (SUP) once the means lie over
    _DISJOINT_SEPARATION wider sigmas apart.
    """
    if abs(a.mu - b.mu) > _DISJOINT_SEPARATION * max(a.sigma, b.sigma):
        return 1.0 if conv is TvConvention.SUP else 2.0
    _, k, t, roots = _standard_crossings(a, b)
    sup = min(sum(_normal_mass(*sorted((u, k * u - t))) for u in roots), 1.0)
    return sup if conv is TvConvention.SUP else 2.0 * sup


def density_bounds_discrete(
    p: DiscreteDistribution, q: DiscreteDistribution
) -> DensityBounds:
    """Elementwise min and max of p_i / q_i over the support of q.

    Requires p absolutely continuous w.r.t. q.
    """
    _check_same_support(p, q)
    ratios = []
    for a, b in zip(p._probs, q._probs):
        if b > 0:
            ratios.append(a / b)
        elif a > 0:
            raise AbsoluteContinuityError(
                "p puts mass where q does not; relative density undefined"
            )
    return DensityBounds(m=min(ratios), M=max(ratios))


def _json_numbers(value):
    # JSON numbers parse to int and float; float() and numpy would also take
    # a string or a boolean inside a list, which a numeric field must not hold.
    # Anything but a list is left to the constructor's own checks.
    for item in value if isinstance(value, list) else ():
        if isinstance(item, (str, bool)):
            raise ValueError(f"{json.dumps(item)} is not a number")
        _json_numbers(item)
    return value


def distribution_from_json(source) -> Distribution:
    """Parse a distribution literal from a JSON string or mapping.

    Accepted forms:
        {"type": "discrete",   "probs": [...]}
        {"type": "gaussian1d", "mu": ..., "sigma2": ...}
        {"type": "gaussiannd", "nu": [...], "sigma": [[...], ...]}
    Every number must be a JSON number; a string or a boolean in its place
    makes the literal malformed (DomainError).
    """
    if isinstance(source, (str, bytes)):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid JSON: {exc}") from exc
    else:
        obj = source
    if not isinstance(obj, dict) or "type" not in obj:
        raise DomainError("distribution literal must be an object with a 'type' key")
    kind = obj["type"]
    try:
        if kind == "discrete":
            return DiscreteDistribution(_json_numbers(obj["probs"]))
        if kind == "gaussian1d":
            mu, sigma2 = _json_numbers([obj["mu"], obj["sigma2"]])
            return Gaussian1D(mu=float(mu), sigma2=float(sigma2))
        if kind == "gaussiannd":
            return GaussianND(nu=_json_numbers(obj["nu"]),
                              sigma=_json_numbers(obj["sigma"]))
    except KeyError as exc:
        raise DomainError(f"missing field {exc} for type {kind!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, InvalidDistributionError):
            raise
        raise DomainError(f"malformed {kind!r} literal: {exc}") from exc
    raise DomainError(f"unknown distribution type {kind!r}")
