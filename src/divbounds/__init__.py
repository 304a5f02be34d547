"""KL divergence vs. total variation: exact values and optimal bounds.

Exact KL/TV computations for discrete and Gaussian measures, the optimal
lower-bound curve (parametric and direct forms plus a polynomial
minorant), the reverse-Pinsker upper bound, and the extensions of all of
these to pairs of Gaussians living in Euclidean spaces of different
dimensions, backed by brute-force oracles at desk scale.

Import rule: ``import divbounds`` loads no submodule. Each exported name
is imported from its submodule on first access (PEP 562), and numpy is
imported only where an array is built, so the scalar operations and the
CLI subcommands built on them start without it.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports
_MODULE_EXPORTS = {
    "augmented": (
        "ProjectionSearchResult", "StiefelFrame", "atv_gaussian", "gaussian_akl",
        "pushforward_gaussian", "sample_stiefel", "search_projection_divergence",
    ),
    "errors": (
        "AbsoluteContinuityError", "DivBoundsError", "DomainError",
        "InvalidDistributionError", "QuadratureError",
    ),
    "measures": (
        "DensityBounds", "DiscreteDistribution", "Gaussian1D", "GaussianND",
        "TvConvention", "convert_tv", "density_bounds_discrete",
        "distribution_from_json", "kl_discrete", "kl_gaussian_1d", "tv_discrete",
        "tv_gaussian_1d",
    ),
    "oracle": (
        "FuzzReport", "binary_min_kl", "fuzz_sandwich", "resolve_tv_convention",
    ),
    "pinsker": (
        "PINNED_TV_CONVENTION", "AugmentedDensityBounds", "SandwichReport",
        "augmented_upper_bound", "check_sandwich_augmented",
        "check_sandwich_same_dim", "reverse_pinsker",
    ),
    "vajda": (
        "T_MAX", "CurvePoint", "GammaSearchResult", "curve_at_parameter",
        "curve_point_for_delta", "curve_to_csv", "curve_to_json", "emit_curve",
        "invert_poly_bound", "poly_lower_bound", "reid_lower_bound",
        "vajda_lower_bound",
    ),
}
# exported name -> the submodule that defines it
_EXPORTS = {
    name: module for module, names in _MODULE_EXPORTS.items() for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
