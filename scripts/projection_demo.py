#!/usr/bin/env python3
"""End-to-end demo on a 1-D vs n-D Gaussian pair.

Builds an n-D Gaussian with a spectrum rotated by a random basis (drawn
from ``--seed``), then walks the whole chain: closed-form augmented KL,
the frame that attains it and the KL of its mean-matched pushforward, the
closed-form augmented TV, the polynomial inversion that converts the KL
value into a TV upper bound, and the sandwich report with user-style
density bounds.
"""

import argparse
import sys

import numpy as np

from divbounds import (
    AugmentedDensityBounds,
    DensityBounds,
    DivBoundsError,
    DomainError,
    Gaussian1D,
    GaussianND,
    TvConvention,
    atv_gaussian,
    attaining_frame,
    check_sandwich_augmented,
    gaussian_akl,
    invert_poly_bound,
    kl_gaussian_1d,
)
from divbounds.augmented import _witness
from divbounds.serialize import dumps


def rotated_gaussian(eigenvalues, seed: int) -> GaussianND:
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    n = len(eigenvalues)
    # a uniform rotation: the QR of a normal draw, R's diagonal signs folded in
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)).T)
    basis = (q * np.where(np.diagonal(r) < 0, -1.0, 1.0)).T
    sigma = basis.T @ np.diag(np.asarray(eigenvalues, dtype=float)) @ basis
    return GaussianND(nu=np.zeros(n), sigma=0.5 * (sigma + sigma.T))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sigma2", type=float, default=0.25, help="1-D variance")
    parser.add_argument(
        "--eigenvalues", type=float, nargs="+", default=[1.0, 2.25, 4.0]
    )
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    try:
        return run(args)
    except DivBoundsError as exc:
        parser.exit(1, f"{parser.prog}: error: {exc}\n")


def run(args) -> int:
    p = Gaussian1D(mu=0.0, sigma2=args.sigma2)
    q = rotated_gaussian(args.eigenvalues, seed=args.seed)

    closed = gaussian_akl(p, q)
    frame = attaining_frame(p, q)
    witness = _witness(q, frame)
    witness_kl = kl_gaussian_1d(p, witness)
    atv = atv_gaussian(p, q, TvConvention.SUP)
    bounds = AugmentedDensityBounds(
        emb=DensityBounds(0.1, 50.0), proj=DensityBounds(0.1, 50.0)
    )
    report = check_sandwich_augmented(p, q, bounds, atv=atv, conv=TvConvention.SUP)

    print(
        dumps(
            {
                "sigma2": args.sigma2,
                "spectrum": [float(v) for v in q.eigenvalues],
                "akl_closed_form": closed,
                "frame_v": frame.v[0].tolist(),
                "frame_b": float(frame.b[0]),
                "witness_kl": witness_kl,
                "witness_gap": witness_kl - closed,
                "witness_variance": witness.sigma2,
                "atv_sup": atv,
                "atv_upper_bound_from_akl": 0.5 * invert_poly_bound(closed),
                "sandwich": report.as_dict(),
            }
        )
    )
    return 0 if report.all_hold else 2


if __name__ == "__main__":
    sys.exit(main())
