#!/usr/bin/env python3
"""Oracle sweep: TV convention, seeded fuzz runs, and tightness grid.

A heavier cousin of ``divbounds verify``: the TV convention is settled
once, by the pairs that attain the reverse Pinsker bound (``resolved`` is
null when no scale attains it, and the run fails); the sandwich fuzz is
repeated across a range of seeds; and the binary-grid minimum of KL at
each verify TV value is compared with the curve at a configurable grid
step. Prints one JSON line per stage; exits 2 if any stage fails, and 1
with one stderr line, before any stage runs, on a bad argument.
"""

import argparse
import sys

from divbounds import (
    PINNED_TV_CONVENTION,
    DivBoundsError,
    fuzz_sandwich,
    resolve_tv_convention,
)
from divbounds.oracle import (
    VERIFY_GAP_TOL,
    check_fuzz_arguments,
    check_grid_step,
    verify_tightness,
)
from divbounds.serialize import dumps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trials", type=int, default=20_000, help="per seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--max-support", type=int, default=6)
    parser.add_argument(
        "--step", type=float, default=1e-3, help="grid step of the tightness scan"
    )
    args = parser.parse_args()
    try:
        return run(args)
    except DivBoundsError as exc:
        parser.exit(1, f"{parser.prog}: error: {exc}\n")


def run(args) -> int:
    # every argument is checked before the first stage prints its line
    check_grid_step(args.step)
    for seed in args.seeds:
        check_fuzz_arguments(args.trials, args.max_support, seed)

    ok = True

    convention = resolve_tv_convention()
    matches = convention is PINNED_TV_CONVENTION
    ok &= matches
    resolved = None if convention is None else convention.value
    print(dumps({"stage": "convention", "resolved": resolved, "matches_pinned": matches}))

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
