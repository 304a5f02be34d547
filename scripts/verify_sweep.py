#!/usr/bin/env python3
"""Oracle sweep: convention scan, seeded fuzz runs, and tightness grid.

A heavier cousin of ``divbounds verify``: the sandwich fuzz is repeated
across a range of seeds, and the binary-grid tightness scan runs at a
configurable resolution. Prints one JSON line per stage; exits 2 if any
stage fails.
"""

import argparse
import sys

from divbounds import PINNED_TV_CONVENTION, fuzz_sandwich, resolve_tv_convention
from divbounds.oracle import VERIFY_GAP_TOL, verify_tightness
from divbounds.serialize import dumps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trials", type=int, default=20_000, help="per seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--max-support", type=int, default=6)
    parser.add_argument("--step", type=float, default=1e-3)
    args = parser.parse_args()

    ok = True

    convention = resolve_tv_convention(step=args.step)
    matches = convention is PINNED_TV_CONVENTION
    ok &= matches
    print(dumps({"stage": "convention", "resolved": convention.value, "matches_pinned": matches}))

    for seed in args.seeds:
        report = fuzz_sandwich(args.trials, max_support=args.max_support, seed=seed)
        ok &= report.ok
        print(
            dumps(
                {
                    "stage": "fuzz",
                    "seed": seed,
                    "trials": report.n_trials,
                    "violations": report.n_violations,
                }
            )
        )
        if not report.ok:
            print(report.to_json_lines(), file=sys.stderr)

    for row in verify_tightness(args.step, VERIFY_GAP_TOL):
        ok &= row["ok"]
        print(dumps({"stage": "tightness", **row}))

    print(dumps({"stage": "summary", "all_ok": bool(ok)}))
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
