"""Divergences between Gaussians living in different dimensions.

A 1-D measure is compared against an n-D one through orthonormal-row
projections: every frame V (a row of the Stiefel manifold O(1, n)) and
offset b pushes the n-D Gaussian forward to a 1-D Gaussian, and the
infimum of the divergence over all such pushforwards is the augmented
divergence. Any feasible frame therefore witnesses an upper estimate of
it, which is what the Monte-Carlo search below produces: for a
mean-matched pushforward along a unit row v the 1-D KL depends on v only
through the Rayleigh quotient v^T Sigma v, so the search scores its
drawn frames as array expressions, a block of rows at a time. Along a
refinement direction v + h z the quotient is a ratio of two quadratics
in h, so each refinement step is screened with float arithmetic on terms
computed once per frame, and vector work is left to the steps it passes.
Steps are screened and scored through one scalar Gaussian-KL kernel on
plain floats, so the search builds no measure until its witness.

For Gaussians the KL infimum has a closed form in the variance sigma^2 of
the 1-D side and the extreme eigenvalues [zeta_min, zeta_max] of the n-D
covariance: zero when sigma^2 lies inside the eigenvalue range, otherwise
the 1-D KL against the nearest end. Note the upper branch applies when
sigma^2 exceeds the *largest* eigenvalue: stating it with the smallest
(as sometimes printed) would contradict the zero branch for variances
inside the range, and the variance-scan oracle in the test suite confirms
the largest-eigenvalue form. The augmented TV has the same closed form,
with the 1-D TV in place of the 1-D KL, and needs no search.
"""

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .measures import (
    Gaussian1D,
    GaussianND,
    TvConvention,
    _kl_gaussian,
    kl_gaussian_1d,
    tv_gaussian_1d,
)
from .serialize import dumps

ORTHONORMALITY_TOL = 1e-10
_REFINE_STEPS = 100
_REFINE_INITIAL_STEP = 0.5
_REFINE_HALVE_AFTER = 10  # non-improving steps before the step size halves
# frames drawn and scored per array pass of the search; bounds its memory
_DRAW_BLOCK = 8192


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


def sample_stiefel(d: int, n: int, seed) -> StiefelFrame:
    """Draw a uniformly distributed frame with d orthonormal rows in R^n.

    Takes the reduced Householder QR of the transpose of a d x n matrix of
    independent standard normal draws from ``default_rng(seed)`` (anything
    ``numpy.random.default_rng`` accepts; a negative integer seed is a
    DomainError, as in the search) and flips each column of Q by the
    sign of R's diagonal entry (+1 where it is 0), which makes the frame
    uniform on the Stiefel manifold (Mezzadri, Notices AMS 2007). That is
    the QR whose R has a positive diagonal, so the rows equal the draw's
    Gram-Schmidt orthonormalization to rounding, and they are orthonormal
    to rounding whatever the draw. For d = 1 the frame is the normalized
    normal row the projection search draws. Deterministic given the seed;
    the offset is zero.
    """
    if not 1 <= d <= n:
        raise DomainError(f"need 1 <= d <= n, got d = {d}, n = {n}")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    g = np.random.default_rng(seed).standard_normal((d, n))
    q, r = np.linalg.qr(g.T)
    q *= np.where(np.diagonal(r) < 0, -1.0, 1.0)
    return StiefelFrame(v=q.T, b=np.zeros(d))


def _nearest_end(p: Gaussian1D, q: GaussianND):
    # q's mean-matched 1-D image at the eigenvalue end nearest sigma^2; None inside
    s = p.sigma2
    zeta_min = float(q.eigenvalues[0])
    zeta_max = float(q.eigenvalues[-1])
    if zeta_min <= s <= zeta_max:
        return None
    return Gaussian1D(mu=p.mu, sigma2=zeta_min if s < zeta_min else zeta_max)


def gaussian_akl(p: Gaussian1D, q: GaussianND) -> float:
    """Closed-form augmented KL between a 1-D and an n-D Gaussian.

    With s = sigma^2 and [zeta_min, zeta_max] the eigenvalue range of the
    n-D covariance:

        s < zeta_min:  (1/2) [ s/zeta_min - 1 + log(zeta_min / s) ]
        s > zeta_max:  (1/2) [ s/zeta_max - 1 + log(zeta_max / s) ]
        otherwise:     0

    (see the module docstring for why the middle condition compares
    against the largest eigenvalue): ``kl_gaussian_1d`` at the nearest end.
    Continuous in s across both boundaries; the mean plays no role
    because offsets absorb it.
    """
    end = _nearest_end(p, q)
    return 0.0 if end is None else kl_gaussian_1d(p, end)


def _mean_matched_kl(p: Gaussian1D, q: GaussianND, v: np.ndarray) -> np.ndarray:
    # kl_gaussian_1d from p to the pushforward along each unit row of v,
    # offset so the means match (a mean mismatch only adds to it): with
    # s = v^T Sigma v the Rayleigh quotient and r = sigma^2 / s, it is
    # (1/2)(r - 1 - log r), log r taken from the two logs where r is 0 or
    # subnormal; a ratio that overflows gives inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = np.einsum("...i,ij,...j->...", v, q.sigma, v)
        r = p.sigma2 / s
        log_r = np.log(r)
        tiny = r < sys.float_info.min
        if tiny.any():
            log_r[tiny] = math.log(p.sigma2) - np.log(s[tiny])
        kl = 0.5 * (r - 1.0 - log_r)
    return np.where(r == np.inf, np.inf, np.maximum(kl, 0.0))


def search_projection_divergence(
    p: Gaussian1D,
    q: GaussianND,
    objective: str,
    budget: int,
    seed: int,
) -> ProjectionSearchResult:
    """Monte-Carlo search over projections, minimizing the KL.

    Draws ``budget`` uniform unit frames as the normalized rows of a
    (budget, n) standard normal matrix from ``default_rng(seed)``, so a
    larger budget extends the same rows, and evaluates the mean-matched
    KL of each block of rows at once; then refines the best frame with
    random re-normalized perturbations of shrinking size: the generator's
    next (100, n) draws. A step is screened by the KL at the Rayleigh
    quotient of v + h z expanded in h; one that passes is scored from its
    own unit vector and taken only if that value still improves, so
    ``best_value`` is always the KL at the returned frame's own quotient.
    Screen and score both call the scalar kernel behind ``kl_gaussian_1d``
    on floats; a quotient that overflows to inf scores inf and is rejected.
    The offset is always set by mean matching. The result upper-estimates
    the augmented KL, which ``gaussian_akl`` gives in closed form.

    ``objective`` must be "kl".
    """
    if objective != "kl":
        raise DomainError(f"objective must be 'kl', got {objective!r}")
    if budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    n = q.dim
    rng = np.random.default_rng(seed)
    best_v = None
    for start in range(0, budget, _DRAW_BLOCK):
        frames = rng.standard_normal((min(_DRAW_BLOCK, budget - start), n))
        frames /= np.sqrt(np.add.reduce(frames * frames, axis=1, keepdims=True))
        values = _mean_matched_kl(p, q, frames)
        best = int(np.argmin(values))
        if best_v is None or values[best] < best_value:
            best_value = float(values[best])
            best_v = frames[best]

    # along best_v + h z the Rayleigh quotient is N / D, with
    #   D = v.v + h (2 z.v + h z.z),
    #   N = v.Sigma v + h (2 z.Sigma v + h z.Sigma z),
    # so a step is screened from floats kept per frame; only a step that
    # passes is scored from its own unit vector, and only an accepted one
    # recomputes the frame's terms
    perturbations = rng.standard_normal((_REFINE_STEPS, n))
    zz = np.einsum("ij,ij->i", perturbations, perturbations).tolist()
    zsz = np.einsum("ij,jk,ik->i", perturbations, q.sigma, perturbations).tolist()

    def frame_terms(v):
        sv = q.sigma @ v
        return (
            float(v @ v),
            float(v @ sv),
            (perturbations @ v).tolist(),
            (perturbations @ sv).tolist(),
        )

    vv, vsv, zv, zsv = frame_terms(best_v)
    s_p = p.sigma2
    step = _REFINE_INITIAL_STEP
    stale = 0
    for k in range(_REFINE_STEPS):
        d = vv + step * (2.0 * zv[k] + step * zz[k])
        s = (vsv + step * (2.0 * zsv[k] + step * zsz[k])) / d if d > 0 else 0.0
        if 0 < s < math.inf and _kl_gaussian(s_p, s, 0.0) < best_value:
            candidate = best_v + step * perturbations[k]
            norm = math.sqrt(candidate.dot(candidate))
            if norm >= 1e-12:
                candidate /= norm
                # the Rayleigh quotient can round to 0 on a near-singular sigma
                s = float(np.einsum("i,ij,j->", candidate, q.sigma, candidate))
                value = _kl_gaussian(s_p, s, 0.0) if s > 0 else math.inf
                if value < best_value:
                    best_value = value
                    best_v = candidate
                    vv, vsv, zv, zsv = frame_terms(best_v)
                    continue
        stale += 1
        if stale >= _REFINE_HALVE_AFTER:
            step *= 0.5
            stale = 0

    frame = StiefelFrame(
        v=best_v.reshape(1, n), b=np.array([p.mu - float(best_v @ q.nu)])
    )
    return ProjectionSearchResult(
        best_frame=frame,
        best_value=best_value,
        n_samples=budget + _REFINE_STEPS,
        witness=pushforward_gaussian(q, frame),
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
    end = _nearest_end(p, q)
    return 0.0 if end is None else tv_gaussian_1d(p, end, conv)
