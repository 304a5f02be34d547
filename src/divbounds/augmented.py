"""Divergences between Gaussians living in different dimensions.

A 1-D measure is compared against an n-D one through orthonormal-row
projections: every frame V (a row of the Stiefel manifold O(1, n)) and
offset b pushes the n-D Gaussian forward to a 1-D Gaussian, and the
infimum of the divergence over all such pushforwards is the augmented
divergence (the projection form of Cai and Lim, IEEE Trans. IT 2022).
For a mean-matched pushforward along a unit row v the 1-D divergence
depends on v only through the Rayleigh quotient v^T Sigma v.

For Gaussians the KL infimum has a closed form in the variance sigma^2 of
the 1-D side and the extreme eigenvalues [zeta_min, zeta_max] of the n-D
covariance: zero when sigma^2 lies inside the eigenvalue range, otherwise
the 1-D KL against the nearest end. Note the upper branch applies when
sigma^2 exceeds the *largest* eigenvalue: stating it with the smallest
(as sometimes printed) would contradict the zero branch for variances
inside the range, and the variance-scan oracle in the test suite confirms
the largest-eigenvalue form. The augmented TV has the same closed form,
with the 1-D TV in place of the 1-D KL. One frame, ``attaining_frame``,
attains both. ``search_projection_divergence``, a Monte-Carlo search over
frames kept as a cross-check of the KL, only estimates it from above.
"""

import math
import warnings

import numpy as np

from .errors import DomainError, _integer
from .measures import (
    Gaussian1D,
    GaussianND,
    TvConvention,
    _kl_gaussian,
    _Record,
    kl_gaussian_1d,
    tv_gaussian_1d,
)

ORTHONORMALITY_TOL = 1e-10
_REFINE_STEPS = 100
_REFINE_INITIAL_STEP = 0.5
_REFINE_HALVE_AFTER = 10  # non-improving steps before the step size halves
# frames drawn and scored per array pass of the search; bounds its memory
_DRAW_BLOCK = 8192


class StiefelFrame(_Record):
    """A d x n matrix with orthonormal rows plus an offset b in R^d.

    Defines the affine map x -> V x + b from R^n to R^d.
    """

    __slots__ = _fields = ("v", "b")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, v: np.ndarray, b: np.ndarray):
        v = np.atleast_2d(np.asarray(v, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        d, n = v.shape
        if d > n:
            raise DomainError(f"frame must be wide (d <= n), got {d}x{n}")
        if b.shape != (d,):
            raise DomainError(f"offset must have length {d}, got shape {b.shape}")
        if not (np.isfinite(v).all() and np.isfinite(b).all()):
            raise DomainError("frame entries must be finite")
        defect = v @ v.T - np.eye(d)
        gram_defect = math.sqrt(np.vdot(defect, defect))  # Frobenius norm
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


class ProjectionSearchResult(_Record):
    """Best frame found by the projection search and its objective value.

    ``best_value`` upper-estimates the augmented divergence: the infimum
    is dominated by any feasible pushforward. ``witness`` is the 1-D
    pushforward at the best frame; ``n_samples`` counts objective
    evaluations (drawn frames plus refinement steps).
    """

    __slots__ = _fields = ("best_frame", "best_value", "n_samples", "witness")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self,
        best_frame: StiefelFrame,
        best_value: float,
        n_samples: int,
        witness: Gaussian1D,
    ):
        object.__setattr__(self, "best_frame", best_frame)
        object.__setattr__(self, "best_value", best_value)
        object.__setattr__(self, "n_samples", n_samples)
        object.__setattr__(self, "witness", witness)


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


def _nearest_end(p: Gaussian1D, q: GaussianND):
    # q's mean-matched 1-D image at the eigenvalue end nearest sigma^2; None inside
    s = p.sigma2
    zeta_min, zeta_max = float(q.eigenvalues[0]), float(q.eigenvalues[-1])
    if zeta_min <= s <= zeta_max:
        return None
    return Gaussian1D(mu=p.mu, sigma2=zeta_min if s < zeta_min else zeta_max)


def _witness(q: GaussianND, frame: StiefelFrame) -> Gaussian1D:
    # the frame's 1-D image, its variance clamped into the spectrum against rounding
    image = pushforward_gaussian(q, frame)
    zeta_min, zeta_max = float(q.eigenvalues[0]), float(q.eigenvalues[-1])
    if not zeta_min <= image.sigma2 <= zeta_max:
        image = Gaussian1D(image.mu, min(max(image.sigma2, zeta_min), zeta_max))
    return image


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


def attaining_frame(p: Gaussian1D, q: GaussianND) -> StiefelFrame:
    """The frame whose mean-matched pushforward attains AKL and ATV together.

    From ``np.linalg.eigh(q.sigma)``, branching on the stored spectrum
    [zeta_min, zeta_max]: outside it, the eigenvector of the end nearest
    sigma^2; inside, sqrt(c) e_min + sqrt(1 - c) e_max, c = (zeta_max -
    sigma^2) / (zeta_max - zeta_min), whose quotient is sigma^2; b = mu - v nu.

    With the image's variance clamped into the spectrum (as the search's
    witness is), zeta_t = sigma^2 clamped likewise, kappa = zeta_max /
    zeta_t and m = |mu| + |v| |nu|, its KL minus akl lies in [-2 ulp(akl),
    C eps (kappa |sigma^2 / zeta_t - 1| / 2 + akl) + (C eps kappa)^2 +
    (eps m)^2 / zeta_t] with C = 10 (9.35 measured, 24 000 pairs, n <= 8),
    and for kappa < 1e3 its TV is within ``GAUSS_TV_ABS_TOL`` +
    eps m / sqrt(zeta_t) of ``atv_gaussian``.
    """
    zeta_min, zeta_max = float(q.eigenvalues[0]), float(q.eigenvalues[-1])
    vectors = np.linalg.eigh(q.sigma)[1]
    if p.sigma2 <= zeta_min:  # ends here, so the last branch never divides by 0
        v = vectors[:, 0]
    elif p.sigma2 >= zeta_max:
        v = vectors[:, -1]
    else:
        c = (zeta_max - p.sigma2) / (zeta_max - zeta_min)
        v = math.sqrt(c) * vectors[:, 0] + math.sqrt(1.0 - c) * vectors[:, -1]
    return StiefelFrame(v.reshape(1, -1), np.array([p.mu - float(v @ q.nu)]))


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
    larger budget extends the same rows. Each block of rows is ranked by
    a key monotone in the mean-matched KL, from two row sums on the raw
    rows; only the winner is normalized and scored from its own vector.
    The best frame is refined with random re-normalized perturbations of
    shrinking size: the generator's next (100, n) draws. A step is
    screened by the KL at the Rayleigh quotient of v + h z expanded in h
    and, if it passes, taken on that value. Only the refined frame is
    scored from its own unit vector, and kept if it beats the draw stage.
    So ``best_value`` is the KL at the returned frame's own quotient,
    clamped to [zeta_min, zeta_max] where rounding leaves it (as is the
    witness's variance), and never above the draw stage's. Both
    upper-estimate ``gaussian_akl`` up to rounding: on a spectrum a few
    ulps wide (a rotated c I) the KL inside it can round below the KL at
    its end, by at most 2 ulps in 12 000 searches. Scoring and screening
    call the scalar kernel behind ``kl_gaussian_1d`` on floats. The
    offset is set by mean matching.

    ``objective`` must be "kl", ``budget`` an integer >= 1 and ``seed``
    an integer >= 0.
    """
    if objective != "kl":
        raise DomainError(f"objective must be 'kl', got {objective!r}")
    budget = _integer("budget", budget, 1)
    seed = _integer("seed", seed, 0)
    n = q.dim
    s_p = p.sigma2
    zeta_min, zeta_max = float(q.eigenvalues[0]), float(q.eigenvalues[-1])

    def score(v):
        # a unit row's quotient lies in the spectrum; rounding can leave it
        s = float(np.einsum("i,ij,j->", v, q.sigma, v))
        s = min(max(s, zeta_min), zeta_max)
        return s, _kl_gaussian(s_p, s, 0.0)

    ones = np.ones(n)
    rng = np.random.default_rng(seed)
    best_v = None
    for start in range(0, budget, _DRAW_BLOCK):
        rows = rng.standard_normal((min(_DRAW_BLOCK, budget - start), n))
        # with s a row's quotient and r = sigma^2 / s the KL is
        # (r - 1 - log r) / 2, so rows rank by r + log s - log sigma^2,
        # which stays finite where r underflows; s <= 0 or nan ranks last
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = ((rows @ q.sigma) * rows) @ ones / ((rows * rows) @ ones)
            key = s_p / s + (np.log(s) - math.log(s_p))
        row = rows[int(np.argmin(np.where(s > 0, key, math.inf)))]
        v = row / math.sqrt(row.dot(row))
        s_v, value = score(v)
        if best_v is None or value < best_value:
            best_v, best_s, best_value = v, s_v, value

    # along v + h z the Rayleigh quotient is N / D, with
    #   D = v.v + h (2 z.v + h z.z),
    #   N = v.Sigma v + h (2 z.Sigma v + h z.Sigma z),
    # so a step is screened and taken on floats, to (v + h z) / sqrt(D) with
    # quotient N / D, and one product with [Z; Z Sigma] refreshes z.v and
    # z.Sigma v; D is noise where v + h z cancels, so |v + h z| guards a take
    perturbations = rng.standard_normal((_REFINE_STEPS, n))
    z_zs = np.concatenate((perturbations, perturbations @ q.sigma))
    zz, zsz = ((z_zs.reshape(2, _REFINE_STEPS, n) * perturbations) @ ones).tolist()
    zv, zsv = (z_zs @ best_v).reshape(2, _REFINE_STEPS).tolist()
    v, vv, vsv, value = best_v, float(best_v.dot(best_v)), best_s, best_value
    step = _REFINE_INITIAL_STEP
    stale = 0
    for k in range(_REFINE_STEPS):
        d = vv + step * (2.0 * zv[k] + step * zz[k])
        s = (vsv + step * (2.0 * zsv[k] + step * zsz[k])) / d if d > 0 else 0.0
        if 0 < s < math.inf and (kl := _kl_gaussian(s_p, s, 0.0)) < value:
            candidate = v + step * perturbations[k]
            cc = float(candidate.dot(candidate))
            if cc >= 1e-24:  # |v + h z| >= 1e-12
                v = candidate / math.sqrt(d)
                vv, vsv, value = cc / d, s, kl
                zv, zsv = (z_zs @ v).reshape(2, _REFINE_STEPS).tolist()
                continue
        stale += 1
        if stale >= _REFINE_HALVE_AFTER:
            step *= 0.5
            stale = 0
    if v is not best_v:  # the refined frame, scored once from its own vector
        v = v / math.sqrt(v.dot(v))
        if (value := score(v)[1]) < best_value:
            best_v, best_value = v, value

    frame = StiefelFrame(best_v.reshape(1, n), np.array([p.mu - float(best_v @ q.nu)]))
    return ProjectionSearchResult(
        best_frame=frame,
        best_value=best_value,
        n_samples=budget + _REFINE_STEPS,
        witness=_witness(q, frame),
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
