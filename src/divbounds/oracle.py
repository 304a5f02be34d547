"""Brute-force ground truth on small discrete spaces.

An exhaustive grid over binary probability vectors validates the optimal
lower-bound curve from below: two-point measures attain it, so larger
supports need no scan. Random pairs on 2..VERIFY_MAX_SUPPORT points
check the whole bound chain. The TV scale the reverse Pinsker bound
consumes is settled by the pairs that attain it; an exhaustive grid scan
of KL <= U is a test oracle. ``run_verify`` is ``divbounds verify``.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, _integer
from .measures import DiscreteDistribution, TvConvention
from .measures import density_bounds_discrete, kl_discrete, tv_discrete
from .pinsker import PINNED_TV_CONVENTION, SandwichReport, _phi, check_sandwich_rows
from .serialize import dumps
from .vajda import vajda_lower_bound

# `divbounds verify`: the variational TV values at which it compares the
# binary-grid minimum with the curve, the excess of the minimum it allows,
# the shortfall it forgives (rounding in the grid KL and in the curve), and
# the largest support its fuzz stage draws
VERIFY_DELTAS = (0.2, 0.5, 0.9, 1.3, 1.7)
VERIFY_GAP_TOL = 5e-3
VERIFY_GAP_FLOOR = -1e-9
VERIFY_MAX_SUPPORT = 6

# trials drawn and checked per array pass of fuzz_sandwich; bounds its memory
_FUZZ_BLOCK = 8192
# the finest grid step the binary-grid minimum accepts: it forms up to
# 6 / step candidate pairs (54 000 at 1e-4), so far finer steps exhaust
# memory, and VERIFY_GAP_TOL needs no finer grid
MIN_GRID_STEP = 1e-4
# the density bounds (m, M) of the pairs that settle the TV convention, and
# how far U may fall from KL there, relative: kl_discrete's contract allows
# 2.9e-13 on these pairs, the TV and phi a few ulps; 1e-9 miscalings fail
_ATTAINING_BOUNDS = tuple(
    (m, M) for m in (1e-3, 0.01, 0.1, 0.5, 0.9) for M in (1.1, 2.0, 10.0, 100.0, 1e3)
)
ATTAINMENT_REL_TOL = 1e-12


def check_grid_step(step: float) -> None:
    """Raise unless ``step`` lies in [MIN_GRID_STEP, 0.5] and divides 1, so
    the grid holds both ends of each probability."""
    if not MIN_GRID_STEP <= step <= 0.5:
        raise DomainError(f"step must lie in [{MIN_GRID_STEP}, 0.5], got {step}")
    if abs(round(1.0 / step) * step - 1.0) > 1e-9:
        raise DomainError(f"step {step} does not divide 1")


def _kl_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # elementwise p log(p/q) with 0 log 0 = 0 and +inf where p > 0, q = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
    return terms


def binary_min_kl(delta: float, step: float) -> float:
    """Exhaustive minimum of KL over binary grid pairs near a TV value.

    Minimizes kl(p, q) over the ordered pairs p = (i step, 1 - i step),
    q = (j step, 1 - j step) whose variational TV lies within ``step`` of
    ``delta``. Two-point pairs attain the optimal lower bound, so no
    larger support gets closer to the curve. Pairs violating absolute
    continuity contribute +inf and never achieve the minimum. Raises if
    no pair is feasible.

    A pair with offset r = j - i has variational TV 2|r| step up to a few
    ulps, so only the offsets whose TV lies in the band around ``delta``,
    one more on each side, can be feasible: those alone are formed, and
    the float TV test and the KL are applied to them as to every pair.
    """
    check_grid_step(step)
    if not 0 <= delta <= 2:
        raise DomainError(f"delta must lie in [0, 2], got {delta}")
    n = round(1.0 / step)
    # point i of the grid is (axis[i], axis[n - i]): both exactly on-grid
    axis = np.linspace(0.0, 1.0, n + 1)
    lo = max(0, math.ceil((delta - step) / (2 * step)) - 1)
    hi = min(n, math.floor((delta + step) / (2 * step)) + 1)
    offsets = np.arange(lo, hi + 1)
    offsets = np.concatenate([-offsets[offsets > 0], offsets])
    j = np.arange(n + 1)[:, None] + offsets
    i, col = np.nonzero((j >= 0) & (j <= n))
    j = j[i, col]
    p0, p1, q0, q1 = axis[i], axis[n - i], axis[j], axis[n - j]
    tv_var = np.abs(p0 - q0)
    tv_var += np.abs(p1 - q1)
    tv_var -= delta
    feasible = np.abs(tv_var) <= step
    if not feasible.any():
        raise DomainError(f"no grid pair has variational TV within {step} of {delta}")
    kl = _kl_terms(p0[feasible], q0[feasible]) + _kl_terms(p1[feasible], q1[feasible])
    return float(kl.min())


class SandwichViolation(NamedTuple):
    """One fuzz trial whose bound chain failed."""

    p: tuple
    q: tuple
    report: SandwichReport

    def as_dict(self) -> dict:
        out = {"p": list(self.p), "q": list(self.q)}
        out.update(self.report.as_dict())
        return out


class FuzzMargin(NamedTuple):
    """The smallest slack one link of the bound chain showed in a fuzz run.

    ``value`` is the larger side minus the smaller one (negative if the
    link failed); ``p`` and ``q`` are the pair that showed it.
    """

    value: float
    p: tuple
    q: tuple


class FuzzReport(NamedTuple):
    """Violations found by randomized sandwich checking, and the margins.

    The margins are the smallest vajda - poly, KL - vajda and upper - KL
    over all trials.
    """

    violations: tuple
    vajda_minus_poly: FuzzMargin
    kl_minus_vajda: FuzzMargin
    upper_minus_kl: FuzzMargin

    @property
    def n_violations(self) -> int:
        return len(self.violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_lines(self) -> str:
        return "\n".join(dumps(v.as_dict()) for v in self.violations)


def _draw_block(rng, n: int):
    """n pairs on supports of 2..VERIFY_MAX_SUPPORT points, zero-padded to it."""
    width = VERIFY_MAX_SUPPORT
    k = rng.integers(2, width + 1, size=n)
    used = np.arange(width) < k[:, None]
    used = np.concatenate([used, used], axis=1)
    draws = rng.exponential(size=(n, 2 * width))
    redraw = np.any((draws <= 0) & used, axis=1)
    while redraw.any():
        draws[redraw] = rng.exponential(size=(int(redraw.sum()), 2 * width))
        redraw = np.any((draws <= 0) & used, axis=1)
    draws = np.where(used, draws, 0.0)
    p, q = draws[:, :width], draws[:, width:]
    return k, p / p.sum(axis=1, keepdims=True), q / q.sum(axis=1, keepdims=True)


def _drawn_pair(p: np.ndarray, q: np.ndarray, k: np.ndarray, i: int) -> tuple:
    # row i on the support it was drawn on, without the padding
    return tuple(p[i, : k[i]].tolist()), tuple(q[i, : k[i]].tolist())


def fuzz_sandwich(n_trials: int, seed: int) -> FuzzReport:
    """Random strictly-positive pairs pushed through the sandwich checker.

    Supports are drawn uniformly in 2..VERIFY_MAX_SUPPORT, probabilities
    by normalizing exponential draws (uniform on the simplex). Trials are
    drawn and checked in blocks of arrays. Violations are collected, not
    raised; the expected count is zero.
    """
    n_trials, seed = _integer("n_trials", n_trials, 1), _integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    violations = []
    margins = [None, None, None]
    for start in range(0, n_trials, _FUZZ_BLOCK):
        k, p, q = _draw_block(rng, min(_FUZZ_BLOCK, n_trials - start))
        rows = check_sandwich_rows(p, q)
        links = (
            rows.vajda_lb - rows.poly_lb,
            rows.divergence - rows.vajda_lb,
            rows.upper - rows.divergence,
        )
        for link, gaps in enumerate(links):
            i = int(np.argmin(gaps))
            if margins[link] is None or gaps[i] < margins[link].value:
                margins[link] = FuzzMargin(float(gaps[i]), *_drawn_pair(p, q, k, i))
        for i in np.flatnonzero(~rows.all_hold):
            violations.append(
                SandwichViolation(*_drawn_pair(p, q, k, i), report=rows.report(i))
            )
    return FuzzReport(
        violations=tuple(violations),
        vajda_minus_poly=margins[0],
        kl_minus_vajda=margins[1],
        upper_minus_kl=margins[2],
    )


def _attainment_gaps(conv: TvConvention):
    # (U - KL) / KL with delta read on ``conv``, at Q = (q, 1 - q) and
    # P = (Mq, m(1 - q)), q = (1 - m) / (M - m): dP/dQ takes m and M
    for m, M in _ATTAINING_BOUNDS:
        q1 = (1.0 - m) / (M - m)
        p = DiscreteDistribution([M * q1, m * (1.0 - q1)])
        q = DiscreteDistribution([q1, 1.0 - q1])
        kl, db = kl_discrete(p, q), density_bounds_discrete(p, q)
        yield (tv_discrete(p, q, conv) * (_phi(db.M) - _phi(db.m)) - kl) / kl


def resolve_tv_convention() -> TvConvention | None:
    """Settle which TV scale the reverse-Pinsker formula consumes.

    The pair whose density ratio takes exactly the values m and M attains
    the bound, so KL equals U there on the right scale. Returns the
    convention on whose reading of delta U is within ATTAINMENT_REL_TOL
    of KL at the pair of every (m, M) in _ATTAINING_BOUNDS; None if
    neither scale is, since the implementation is then broken.
    """
    for conv in (TvConvention.SUP, TvConvention.VARIATIONAL):
        if all(abs(gap) <= ATTAINMENT_REL_TOL for gap in _attainment_gaps(conv)):
            return conv
    return None


def verify_tightness(step: float, gap_tol: float) -> list:
    """Rows of `divbounds verify` comparing grid minimum and curve at each
    of VERIFY_DELTAS; a row is ok for a gap in [VERIFY_GAP_FLOOR, gap_tol]."""
    rows = []
    for delta in VERIFY_DELTAS:
        minimum = binary_min_kl(delta, step)
        lb = vajda_lower_bound(delta)
        gap = minimum - lb
        ok = VERIFY_GAP_FLOOR <= gap <= gap_tol
        rows.append(dict(delta=delta, oracle_min=minimum, vajda_lb=lb, gap=gap, ok=ok))
    return rows


def run_verify(trials: int, seed: int, step: float, gap_tol: float):
    """The `divbounds verify` workflow: convention, fuzz, tightness.

    Returns (summary, fuzz): the object the command prints, and the
    FuzzReport whose violations it writes to stderr. ``trials``, ``seed``,
    ``step`` and ``gap_tol`` are checked before any stage runs.
    """
    trials, seed = _integer("trials", trials, 1), _integer("seed", seed, 0)
    check_grid_step(step)
    if not 0 < gap_tol < math.inf:
        raise DomainError(f"gap_tol must be positive and finite, got {gap_tol}")
    convention = resolve_tv_convention()
    fuzz = fuzz_sandwich(trials, seed)
    tightness = verify_tightness(step, gap_tol)
    matches = convention is PINNED_TV_CONVENTION
    summary = {
        "convention": None if convention is None else convention.value,
        "convention_matches_pinned": matches,
        "fuzz": {
            "trials": trials,
            "max_support": VERIFY_MAX_SUPPORT,
            "seed": seed,
            "violations": fuzz.n_violations,
        },
        "tightness": tightness,
        "all_ok": matches and fuzz.ok and all(row["ok"] for row in tightness),
    }
    return summary, fuzz
