"""Divergences between Gaussians living in different dimensions.

A 1-D measure is compared against an n-D one through orthonormal-row
projections: every frame V (a row of the Stiefel manifold O(1, n)) and
offset b pushes the n-D Gaussian forward to a 1-D Gaussian, and the
infimum of the divergence over all such pushforwards is the augmented
divergence. Any feasible frame therefore witnesses an upper estimate of
it, which is what the Monte-Carlo search below produces.

For Gaussians the KL infimum has a closed form in the variance sigma^2 of
the 1-D side and the extreme eigenvalues [zeta_min, zeta_max] of the n-D
covariance: zero when sigma^2 lies inside the eigenvalue range, otherwise
the 1-D KL against the nearest end. Note the upper branch applies when
sigma^2 exceeds the *largest* eigenvalue: stating it with the smallest
(as sometimes printed) would contradict the zero branch for variances
inside the range, and the variance-scan oracle in the test suite confirms
the largest-eigenvalue form. The augmented TV has the same closed form,
with the 1-D TV in place of the 1-D KL.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .measures import (
    Gaussian1D,
    GaussianND,
    TvConvention,
    kl_gaussian_1d,
    tv_gaussian_1d,
)
from .serialize import dumps

ORTHONORMALITY_TOL = 1e-10
_REFINE_STEPS = 100
_REFINE_INITIAL_STEP = 0.5
_REFINE_HALVE_AFTER = 10  # non-improving steps before the step size halves
_MAX_REDRAWS = 10


@dataclass(frozen=True, eq=False)
class StiefelFrame:
    """A d x n matrix with orthonormal rows plus an offset b in R^d.

    Defines the affine map x -> V x + b from R^n to R^d.
    """

    v: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.v, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        d, n = v.shape
        if d > n:
            raise DomainError(f"frame must be wide (d <= n), got {d}x{n}")
        if b.shape != (d,):
            raise DomainError(f"offset must have length {d}, got shape {b.shape}")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(b))):
            raise DomainError("frame entries must be finite")
        gram_defect = float(np.linalg.norm(v @ v.T - np.eye(d)))
        if gram_defect > ORTHONORMALITY_TOL:
            raise DomainError(
                f"rows not orthonormal: Frobenius defect {gram_defect:.3e} "
                f"exceeds {ORTHONORMALITY_TOL}"
            )
        for name, arr in (("v", v.copy()), ("b", b.copy())):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def d(self) -> int:
        return int(self.v.shape[0])

    @property
    def n(self) -> int:
        return int(self.v.shape[1])


@dataclass(frozen=True, eq=False)
class ProjectionSearchResult:
    """Best frame found by the projection search and its objective value.

    ``best_value`` upper-estimates the augmented divergence: the infimum
    is dominated by any feasible pushforward. ``witness`` is the 1-D
    pushforward at the best frame; ``n_samples`` counts objective
    evaluations (drawn frames plus refinement steps).
    """

    best_frame: StiefelFrame
    best_value: float
    n_samples: int
    witness: Gaussian1D

    def to_json(self) -> str:
        return dumps(
            {
                "best_frame": {
                    "v": [[float(x) for x in row] for row in self.best_frame.v],
                    "b": [float(x) for x in self.best_frame.b],
                },
                "best_value": self.best_value,
                "n_samples": self.n_samples,
                "witness": self.witness.to_json_dict(),
            }
        )


def pushforward_gaussian(q: GaussianND, frame: StiefelFrame):
    """Image of an n-D Gaussian under the frame's affine map.

    Returns a Gaussian with mean V nu + b and covariance V Sigma V^T,
    as a Gaussian1D when the frame has one row, else a GaussianND.
    """
    if frame.n != q.dim:
        raise DomainError(
            f"frame has {frame.n} columns but the measure lives in R^{q.dim}"
        )
    mean = frame.v @ q.nu + frame.b
    cov = frame.v @ q.sigma @ frame.v.T
    if frame.d == 1:
        return Gaussian1D(mu=float(mean[0]), sigma2=float(cov[0, 0]))
    return GaussianND(nu=mean, sigma=0.5 * (cov + cov.T))


def _gram_schmidt_rows(g: np.ndarray) -> np.ndarray | None:
    """Orthonormalize rows by modified Gram-Schmidt with a second pass.

    Returns None if a row collapses (numerically rank deficient).
    """
    d, n = g.shape
    rows = np.empty_like(g)
    for i in range(d):
        v = g[i].copy()
        for _ in range(2):
            for j in range(i):
                v -= (v @ rows[j]) * rows[j]
        norm = float(np.linalg.norm(v))
        if norm < 1e-8:
            return None
        rows[i] = v / norm
    return rows


def sample_stiefel(d: int, n: int, seed) -> StiefelFrame:
    """Draw a uniformly distributed frame with d orthonormal rows in R^n.

    Orthonormalizes a d x n matrix of independent standard normal draws;
    right-rotation invariance of the Gaussian makes the result uniform.
    Deterministic given the seed (anything ``numpy.random.default_rng``
    accepts); the offset is zero. Rank-deficient draws are retried, with
    an error after 10 attempts.
    """
    if not 1 <= d <= n:
        raise DomainError(f"need 1 <= d <= n, got d = {d}, n = {n}")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_REDRAWS):
        rows = _gram_schmidt_rows(rng.standard_normal((d, n)))
        if rows is not None:
            return StiefelFrame(v=rows, b=np.zeros(d))
    raise RuntimeError(
        f"rank-deficient normal draws {_MAX_REDRAWS} times for d={d}, n={n}"
    )


def gaussian_akl(p: Gaussian1D, q: GaussianND) -> float:
    """Closed-form augmented KL between a 1-D and an n-D Gaussian.

    With s = sigma^2 and [zeta_min, zeta_max] the eigenvalue range of the
    n-D covariance:

        s < zeta_min:  (1/2) [ s/zeta_min - 1 + log(zeta_min / s) ]
        s > zeta_max:  (1/2) [ s/zeta_max - 1 + log(zeta_max / s) ]
        otherwise:     0

    (see the module docstring for why the middle condition compares
    against the largest eigenvalue). Continuous in s across both
    boundaries; the mean plays no role because offsets absorb it.
    """
    s = p.sigma2
    zeta_min = float(q.eigenvalues[0])
    zeta_max = float(q.eigenvalues[-1])
    if s < zeta_min:
        val = 0.5 * (s / zeta_min - 1.0 + math.log(zeta_min / s))
    elif s > zeta_max:
        val = 0.5 * (s / zeta_max - 1.0 + math.log(zeta_max / s))
    else:
        return 0.0
    return val if val > 0 else 0.0


def _mean_matched_pushforward(p: Gaussian1D, q: GaussianND, v: np.ndarray) -> Gaussian1D:
    # offset chosen so the pushforward mean equals p's mean; any mismatch
    # only increases both KL and TV at fixed covariances
    s = float(v @ q.sigma @ v)
    return Gaussian1D(mu=p.mu, sigma2=s)


def search_projection_divergence(
    p: Gaussian1D,
    q: GaussianND,
    objective: str,
    budget: int,
    seed: int,
    conv: TvConvention | None = None,
) -> ProjectionSearchResult:
    """Monte-Carlo search over projections, minimizing KL or TV.

    Draws ``budget`` frames (per-draw sub-seeds derived from the root seed
    by a counter scheme, so results do not depend on evaluation order),
    then refines the best frame with random re-normalized perturbations of
    shrinking size. The offset is always set by mean matching. The result
    upper-estimates the augmented divergence.

    ``objective`` is "kl" or "tv"; TV requires an explicit ``conv``.
    """
    if objective not in ("kl", "tv"):
        raise DomainError(f"objective must be 'kl' or 'tv', got {objective!r}")
    if budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    if objective == "tv" and conv is None:
        raise DomainError("the tv objective needs an explicit TvConvention")
    n = q.dim

    def evaluate(v: np.ndarray) -> float:
        beta = _mean_matched_pushforward(p, q, v)
        if objective == "kl":
            return kl_gaussian_1d(p, beta)
        return tv_gaussian_1d(p, beta, conv)

    best_v = None
    best_value = math.inf
    for i in range(budget):
        frame = sample_stiefel(1, n, seed=[seed, 0, i])
        v = frame.v[0]
        value = evaluate(v)
        if value < best_value:
            best_value = value
            best_v = v

    step = _REFINE_INITIAL_STEP
    stale = 0
    for k in range(_REFINE_STEPS):
        rng = np.random.default_rng([seed, 1, k])
        candidate = best_v + step * rng.standard_normal(n)
        norm = float(np.linalg.norm(candidate))
        if norm < 1e-12:
            stale += 1
        else:
            candidate /= norm
            value = evaluate(candidate)
            if value < best_value:
                best_value = value
                best_v = candidate
                continue
            stale += 1
        if stale >= _REFINE_HALVE_AFTER:
            step *= 0.5
            stale = 0

    witness = _mean_matched_pushforward(p, q, best_v)
    frame = StiefelFrame(
        v=best_v.reshape(1, n), b=np.array([p.mu - float(best_v @ q.nu)])
    )
    return ProjectionSearchResult(
        best_frame=frame,
        best_value=best_value,
        n_samples=budget + _REFINE_STEPS,
        witness=witness,
    )


def atv_gaussian(
    p: Gaussian1D, q: GaussianND, conv: TvConvention, *, budget=None, seed=None
) -> float:
    """Augmented total variation between a 1-D and an n-D Gaussian.

    Over mean-matched pushforwards the TV depends only on the variance s
    of the 1-D image, which ranges over [zeta_min, zeta_max], and grows
    with |log(s / sigma^2)|. So it is 0 when sigma^2 lies inside, else
    exactly ``tv_gaussian_1d(p, Gaussian1D(p.mu, end), conv)`` at the end
    nearest sigma^2, with that function's accuracy contract.

    ``budget`` and ``seed`` are deprecated and ignored; passing either warns.
    """
    if budget is not None or seed is not None:
        warnings.warn("atv_gaussian ignores budget and seed", DeprecationWarning, 2)
    s = p.sigma2
    zeta_min = float(q.eigenvalues[0])
    zeta_max = float(q.eigenvalues[-1])
    if zeta_min <= s <= zeta_max:
        return 0.0
    end = zeta_min if s < zeta_min else zeta_max
    return tv_gaussian_1d(p, Gaussian1D(mu=p.mu, sigma2=end), conv)
