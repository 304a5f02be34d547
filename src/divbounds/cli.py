"""Command-line front end: every computation as a subcommand.

Inputs are JSON distribution literals given inline, as a file path, or as
``-`` for standard input. Numbers print as the shortest text that parses
back to the same double, so output round-trips losslessly. A TV
convention must be stated explicitly wherever a TV value crosses the CLI
boundary; the one exception is ``poly``, whose delta is documented as
variational and echoed back.

Exit codes: 0 success, 1 input error, 2 verification failure.

A subcommand imports what it needs when it runs: ``vajda`` only for the
curve and polynomial commands and ``gaussian-akl``, ``pinsker`` only for
``reverse-pinsker`` and ``sandwich``, ``augmented`` (and with it numpy)
only for the Gaussian projection commands, ``oracle`` only for
``verify``. So the scalar subcommands (``vajda``, ``poly``,
``reverse-pinsker``, ``curve``, ``divergence`` on two 1-D Gaussians,
and ``divergence`` and ``sandwich`` on two discrete inputs given as
lists) start without numpy, and ``divergence`` loads neither bound
module.
"""

import argparse
import sys

from .errors import DivBoundsError
from .measures import (
    DensityBounds,
    DiscreteDistribution,
    Gaussian1D,
    GaussianND,
    TvConvention,
    convert_tv,
    distribution_from_json,
    kl_discrete,
    kl_gaussian_1d,
    tv_discrete,
    tv_gaussian_1d,
)
from .serialize import dumps


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _convention(text: str) -> TvConvention:
    return TvConvention(text)


def _load_distribution(arg: str):
    if arg == "-":
        return distribution_from_json(sys.stdin.read())
    if arg.lstrip().startswith("{"):
        return distribution_from_json(arg)
    with open(arg, "r", encoding="utf-8") as handle:
        return distribution_from_json(handle.read())


def _add_convention_flag(parser, required: bool = True, default=None):
    parser.add_argument(
        "--convention",
        type=_convention,
        required=required,
        default=default,
        choices=list(TvConvention),
        metavar="{sup,variational}",
        help="total-variation scaling convention",
    )


def _cmd_divergence(args) -> int:
    p = _load_distribution(args.p)
    q = _load_distribution(args.q)
    if isinstance(p, DiscreteDistribution) and isinstance(q, DiscreteDistribution):
        kl = kl_discrete(p, q)
        tv = tv_discrete(p, q, args.convention)
    elif isinstance(p, Gaussian1D) and isinstance(q, Gaussian1D):
        kl = kl_gaussian_1d(p, q)
        tv = tv_gaussian_1d(p, q, args.convention)
    else:
        raise DivBoundsError(
            "divergence needs two discrete or two 1-D Gaussian inputs; for "
            "mixed dimensions use gaussian-akl"
        )
    print(dumps({"kl": kl, "tv": tv, "convention": args.convention.value}))
    return 0


def _cmd_vajda(args) -> int:
    from . import vajda
    point = vajda.curve_point_for_delta(args.delta, args.convention)
    reid = vajda.reid_lower_bound(args.delta, args.convention)
    print(
        dumps(
            {
                "delta_variational": convert_tv(
                    args.delta, args.convention, TvConvention.VARIATIONAL
                ),
                "vajda_lb": point.l_value,
                "reid_lb": reid.value,
                "reid_gamma": reid.gamma_star,
                "parameter_t": point.t,
            }
        )
    )
    return 0


def _cmd_poly(args) -> int:
    from . import vajda
    if (args.delta is None) == (args.xi is None):
        raise DivBoundsError("poly needs exactly one of --delta or --xi")
    if args.delta is not None:
        d = convert_tv(args.delta, args.convention, TvConvention.VARIATIONAL)
        print(
            dumps(
                {
                    "delta_variational": d,
                    "poly_lb": vajda.poly_lower_bound(d),
                    "convention": args.convention.value,
                }
            )
        )
    else:
        delta_star = vajda.invert_poly_bound(args.xi)
        print(
            dumps(
                {
                    "xi": args.xi,
                    "delta_upper_bound_variational": delta_star,
                    "poly_at_bound": vajda.poly_lower_bound(delta_star),
                }
            )
        )
    return 0


def _cmd_reverse_pinsker(args) -> int:
    from . import pinsker
    simple = args.m is not None or args.M is not None
    four = [args.m1, args.M1, args.m2, args.M2]
    if simple and any(v is not None for v in four):
        raise DivBoundsError("give either --m/--M or all of --m1/--M1/--m2/--M2")
    if simple:
        if args.m is None or args.M is None:
            raise DivBoundsError("--m and --M go together")
        upper = pinsker.reverse_pinsker(
            args.delta, args.convention, DensityBounds(m=args.m, M=args.M)
        )
        print(dumps({"upper": upper, "convention": args.convention.value}))
    else:
        if any(v is None for v in four):
            raise DivBoundsError("augmented mode needs all of --m1/--M1/--m2/--M2")
        emb = DensityBounds(m=args.m1, M=args.M1)
        proj = DensityBounds(m=args.m2, M=args.M2)
        u1 = pinsker.reverse_pinsker(args.delta, args.convention, emb)
        u2 = pinsker.reverse_pinsker(args.delta, args.convention, proj)
        # the augmented bound is the larger one-sided bound
        upper = max(u1, u2)
        print(
            dumps(
                {
                    "upper": upper,
                    "u1": u1,
                    "u2": u2,
                    "convention": args.convention.value,
                }
            )
        )
    return 0


def _cmd_curve(args) -> int:
    from . import vajda
    points = vajda.emit_curve(args.t_min, args.t_max, args.points)
    if args.format == "csv":
        sys.stdout.write(vajda.curve_to_csv(points))
    else:
        print(vajda.curve_to_json(points))
    return 0


def _cmd_gaussian_akl(args) -> int:
    p = _load_distribution(args.p)
    q = _load_distribution(args.q)
    if not isinstance(p, Gaussian1D) or not isinstance(q, GaussianND):
        raise DivBoundsError("gaussian-akl needs a gaussian1d --p and a gaussiannd --q")
    from . import augmented, vajda
    closed = augmented.gaussian_akl(p, q)
    result = augmented.search_projection_divergence(
        p, q, objective="kl", budget=args.budget, seed=args.seed
    )
    print(
        dumps(
            {
                "akl": closed,
                "search_value": result.best_value,
                "search_gap": result.best_value - closed,
                "n_samples": result.n_samples,
                "atv_upper_bound_variational": vajda.invert_poly_bound(closed),
            }
        )
    )
    return 0


def _cmd_sandwich(args) -> int:
    from . import pinsker
    p = _load_distribution(args.p)
    q = _load_distribution(args.q)
    if isinstance(p, DiscreteDistribution) and isinstance(q, DiscreteDistribution):
        report = pinsker.check_sandwich_same_dim(p, q)
    elif isinstance(p, Gaussian1D) and isinstance(q, GaussianND):
        four = [args.m1, args.M1, args.m2, args.M2]
        if any(v is None for v in four):
            raise DivBoundsError(
                "augmented sandwich needs all of --m1/--M1/--m2/--M2"
            )
        if args.convention is None:
            raise DivBoundsError("augmented sandwich needs --convention for the TV")
        bounds = pinsker.AugmentedDensityBounds(
            emb=DensityBounds(m=args.m1, M=args.M1),
            proj=DensityBounds(m=args.m2, M=args.M2),
        )
        atv = args.atv
        if atv is None:
            from . import augmented
            atv = augmented.atv_gaussian(p, q, args.convention)
        report = pinsker.check_sandwich_augmented(
            p, q, bounds, atv=atv, conv=args.convention
        )
    else:
        raise DivBoundsError(
            "sandwich needs two discrete inputs, or gaussian1d --p with gaussiannd --q"
        )
    print(report.to_json())
    return 0


def _cmd_verify(args) -> int:
    from . import oracle
    gap_tol = oracle.VERIFY_GAP_TOL if args.gap_tol is None else args.gap_tol
    if not 0 < gap_tol < float("inf"):
        raise DivBoundsError(f"--gap-tol must be positive and finite, got {gap_tol}")
    summary, fuzz = oracle.run_verify(args.trials, args.seed, args.step, gap_tol)
    print(dumps(summary))
    if not fuzz.ok:
        print(fuzz.to_json_lines(), file=sys.stderr)
    return 0 if summary["all_ok"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="divbounds",
        description="KL/TV divergences and their optimal two-sided bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("divergence", help="KL and TV for a pair of distributions")
    s.add_argument("--p", required=True, help="JSON literal, file path, or -")
    s.add_argument("--q", required=True, help="JSON literal, file path, or -")
    _add_convention_flag(s)
    s.set_defaults(func=_cmd_divergence)

    s = sub.add_parser("vajda", help="optimal lower bound at a TV value, both methods")
    s.add_argument("--delta", type=float, required=True)
    _add_convention_flag(s)
    s.set_defaults(func=_cmd_vajda)

    s = sub.add_parser("poly", help="polynomial lower bound or its inversion")
    s.add_argument("--delta", type=float, default=None)
    s.add_argument("--xi", type=float, default=None, help="KL value to invert")
    _add_convention_flag(s, required=False, default=TvConvention.VARIATIONAL)
    s.set_defaults(func=_cmd_poly)

    s = sub.add_parser("reverse-pinsker", help="upper bound from density bounds")
    s.add_argument("--delta", type=float, required=True)
    _add_convention_flag(s)
    s.add_argument("--m", type=float, default=None)
    s.add_argument("--M", type=float, default=None)
    s.add_argument("--m1", type=float, default=None)
    s.add_argument("--M1", type=float, default=None)
    s.add_argument("--m2", type=float, default=None)
    s.add_argument("--M2", type=float, default=None)
    s.set_defaults(func=_cmd_reverse_pinsker)

    s = sub.add_parser("curve", help="emit the lower-bound curve as CSV or JSON")
    s.add_argument("--t-min", type=float, required=True)
    s.add_argument("--t-max", type=float, required=True)
    s.add_argument("--points", type=int, required=True)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.set_defaults(func=_cmd_curve)

    s = sub.add_parser(
        "gaussian-akl", help="closed-form augmented KL plus search cross-check"
    )
    s.add_argument("--p", required=True, help="gaussian1d JSON literal, path, or -")
    s.add_argument("--q", required=True, help="gaussiannd JSON literal, path, or -")
    s.add_argument("--budget", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_gaussian_akl)

    s = sub.add_parser("sandwich", help="two-sided bound report for a pair")
    s.add_argument("--p", required=True)
    s.add_argument("--q", required=True)
    _add_convention_flag(s, required=False)
    s.add_argument("--m1", type=float, default=None)
    s.add_argument("--M1", type=float, default=None)
    s.add_argument("--m2", type=float, default=None)
    s.add_argument("--M2", type=float, default=None)
    s.add_argument("--atv", type=float, default=None)
    s.set_defaults(func=_cmd_sandwich)

    s = sub.add_parser("verify", help="run the full brute-force oracle suite")
    s.add_argument("--trials", type=int, default=100_000)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--step", type=float, default=1e-3)
    s.add_argument(
        "--gap-tol",
        type=float,
        default=None,
        help="allowed excess of the grid minimum over the lower bound",
    )
    s.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DivBoundsError as exc:
        print(f"divbounds: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"divbounds: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
