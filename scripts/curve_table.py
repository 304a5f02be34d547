#!/usr/bin/env python3
"""Tabulate the optimal lower-bound curve next to its polynomial minorant.

Writes CSV with columns t, delta, l_value, poly_lb, slack; pipe it into
your plotting tool to reproduce the bound-family picture. The slack column
makes the tightness of the polynomial visible (it osculates the curve to
8th order at the origin).
"""

import argparse
import sys

from divbounds import emit_curve, poly_lower_bound
from divbounds.serialize import dumps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--t-min", type=float, default=0.01)
    parser.add_argument("--t-max", type=float, default=20.0)
    parser.add_argument("--points", type=int, default=500)
    parser.add_argument("--out", default="-", help="output path, - for stdout")
    args = parser.parse_args()

    points = emit_curve(args.t_min, args.t_max, args.points)
    handle = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    try:
        handle.write("t,delta,l_value,poly_lb,slack\n")
        for p in points:
            poly = poly_lower_bound(p.delta)
            row = (p.t, p.delta, p.l_value, poly, p.l_value - poly)
            handle.write(",".join(map(dumps, row)) + "\n")
    finally:
        if handle is not sys.stdout:
            handle.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
