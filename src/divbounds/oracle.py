"""Brute-force ground truth on small discrete spaces.

Exhaustive grids over binary (and, as a spot check, ternary) probability
vectors validate the optimal lower-bound curve from below: restricting to
two-point spaces loses nothing there. Random pairs check the whole bound
chain. The TV scale the reverse Pinsker bound consumes is settled by the
pairs that attain it; an exhaustive grid scan of KL <= U is a test oracle.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .measures import DiscreteDistribution, TvConvention, _Record
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
# grid pairs per array pass of the binary- and ternary-grid minima: each
# float64 temporary of a pass (80 KB) stays below glibc's 128 KiB mmap
# threshold, so the allocator reuses it instead of page-faulting afresh
_GRID_CHUNK_PAIRS = 10_000
# the finest grid step the scans accept: at 1e-4 the ternary grid's index
# is built from 1.6 GB of meshes, and finer steps exhaust memory
MIN_GRID_STEP = 1e-4
# the density bounds (m, M) of the pairs that settle the TV convention, and
# how far U may fall from KL there, relative: kl_discrete's contract allows
# 2.9e-13 on these pairs, the TV and phi a few ulps; 1e-9 miscalings fail
_ATTAINING_BOUNDS = tuple(
    (m, M) for m in (1e-3, 0.01, 0.1, 0.5, 0.9) for M in (1.1, 2.0, 10.0, 100.0, 1e3)
)
ATTAINMENT_REL_TOL = 1e-12


class OracleGridSpec(_Record):
    """Grid resolution and optional TV constraint for the scans.

    ``step`` lies in [MIN_GRID_STEP, 0.5] and divides 1, so the grid holds
    both ends of each probability. ``constraint_delta`` is a variational TV
    target; pairs whose TV falls within ``constraint_tol`` of it are
    feasible. The tolerance defaults to the step and may not be smaller.
    """

    __slots__ = _fields = ("support_size", "step", "constraint_delta", "constraint_tol")

    def __init__(
        self,
        support_size: int = 2,
        step: float = 1e-3,
        constraint_delta: float | None = None,
        constraint_tol: float | None = None,
    ):
        object.__setattr__(self, "support_size", support_size)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "constraint_delta", constraint_delta)
        object.__setattr__(self, "constraint_tol", constraint_tol)
        self.__post_init__()

    def __post_init__(self):
        if self.support_size not in (2, 3):
            raise DomainError(f"support_size must be 2 or 3, got {self.support_size}")
        if not MIN_GRID_STEP <= self.step <= 0.5:
            raise DomainError(
                f"step must lie in [{MIN_GRID_STEP}, 0.5], got {self.step}"
            )
        if abs(round(1.0 / self.step) * self.step - 1.0) > 1e-9:
            raise DomainError(f"step {self.step} does not divide 1")
        if self.constraint_tol is None:
            object.__setattr__(self, "constraint_tol", self.step)
        if self.constraint_tol < self.step:
            raise DomainError(
                f"constraint_tol {self.constraint_tol} smaller than step {self.step}"
            )
        if self.constraint_delta is not None and not (
            0 <= self.constraint_delta <= 2
        ):
            raise DomainError(
                f"constraint_delta must lie in [0, 2], got {self.constraint_delta}"
            )


def _kl_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # elementwise p log(p/q) with 0 log 0 = 0 and +inf where p > 0, q = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
    return terms


def _simplex_index(support: int, n: int) -> np.ndarray:
    # integer index vectors of the grid points, each summing to n = 1/step;
    # point i of the grid is axis[index[i]]
    i = np.arange(n + 1)
    if support == 2:
        return np.column_stack([i, n - i])
    i, j = np.meshgrid(i, i, indexing="ij")
    keep = i + j <= n
    i, j = i[keep], j[keep]
    return np.column_stack([i, j, n - i - j])


def _simplex_grid(support: int, step: float) -> np.ndarray:
    # step comes from an OracleGridSpec, which checked that it divides 1;
    # the axis is indexed for every coordinate, so the last one is exactly
    # on-grid and never a tiny negative from float subtraction
    n = round(1.0 / step)
    return np.linspace(0.0, 1.0, n + 1)[_simplex_index(support, n)]


def _lattice_steps(support: int, n: int, lo: int, hi: int) -> np.ndarray:
    # the zero-sum integer vectors with L1 length in [lo, hi]: the index
    # differences of grid pairs; neither half of a zero-sum vector exceeds
    # half its length, so no coordinate exceeds min(n, hi // 2)
    reach = np.arange(-min(n, hi // 2), min(n, hi // 2) + 1)
    if support == 2:
        steps = np.column_stack([reach, -reach])
    else:
        i, j = np.meshgrid(reach, reach, indexing="ij")
        i, j = i.ravel(), j.ravel()
        steps = np.column_stack([i, j, -i - j])
    length = np.abs(steps).sum(axis=1)
    return steps[(lo <= length) & (length <= hi)]


def min_kl_at_tv(spec: OracleGridSpec) -> float:
    """Exhaustive minimum of KL over grid pairs near a fixed TV value.

    Minimizes kl(p, q) over all ordered pairs (p, q) on the simplex grid
    with |variational TV - constraint_delta| <= constraint_tol. Pairs
    violating absolute continuity contribute +inf and never achieve the
    minimum. Raises if no pair is feasible.

    Grid points are index vectors summing to n = 1/step, and a pair whose
    indices differ by a zero-sum step of L1 length l has variational TV
    l * step up to a few ulps. So only the pairs whose step lies in the
    lattice band around (constraint_delta +- constraint_tol) / step, one
    length wider on each side, can be feasible: those alone are formed,
    and the float TV test and the KL are applied to them exactly as to
    the full set of pairs, so the minimum is the full scan's.
    """
    if spec.constraint_delta is None:
        raise DomainError("min_kl_at_tv needs constraint_delta set")
    k = spec.support_size
    n = round(1.0 / spec.step)
    axis = np.linspace(0.0, 1.0, n + 1)
    index = _simplex_index(k, n)
    grid = axis[index]
    target, tol = spec.constraint_delta, spec.constraint_tol
    steps = _lattice_steps(
        k,
        n,
        math.floor((target - tol) / spec.step) - 1,
        math.ceil((target + tol) / spec.step) + 1,
    )
    best = math.inf
    found = False
    # chunk the grid points so the candidate pairs of a pass stay modest
    chunk = max(1, _GRID_CHUNK_PAIRS // max(1, steps.shape[0]))
    for start in range(0, index.shape[0], chunk):
        # the partner's index one support component at a time; the pairs
        # whose partner stays inside the simplex are kept
        b = [index[start : start + chunk, c, None] + steps[:, c] for c in range(k)]
        inside = b[0] >= 0
        for c in range(1, k):
            inside &= b[c] >= 0
        rows, cols = np.nonzero(inside)
        p = grid[start + rows]
        q = axis[np.column_stack([b_c[rows, cols] for b_c in b])]
        # the TV one support component at a time, then KL only on the
        # feasible pairs
        tv_var = np.abs(p[:, 0] - q[:, 0])
        for c in range(1, k):
            tv_var += np.abs(p[:, c] - q[:, c])
        tv_var -= target
        feasible = np.abs(tv_var) <= tol
        if not feasible.any():
            continue
        found = True
        kl = _kl_terms(p[feasible], q[feasible]).sum(axis=1)
        best = min(best, float(kl.min()))
    if not found:
        raise DomainError(
            f"no grid pair has variational TV within {tol} of {target}"
        )
    return best


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

    n_trials: int
    max_support: int
    seed: int
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


def _draw_block(rng, n: int, max_support: int):
    """n pairs on supports of 2..max_support points, zero-padded to max_support."""
    k = rng.integers(2, max_support + 1, size=n)
    used = np.arange(max_support) < k[:, None]
    used = np.concatenate([used, used], axis=1)
    draws = rng.exponential(size=(n, 2 * max_support))
    redraw = np.any((draws <= 0) & used, axis=1)
    while redraw.any():
        draws[redraw] = rng.exponential(size=(int(redraw.sum()), 2 * max_support))
        redraw = np.any((draws <= 0) & used, axis=1)
    draws = np.where(used, draws, 0.0)
    p, q = draws[:, :max_support], draws[:, max_support:]
    return k, p / p.sum(axis=1, keepdims=True), q / q.sum(axis=1, keepdims=True)


def _drawn_pair(p: np.ndarray, q: np.ndarray, k: np.ndarray, i: int) -> tuple:
    # row i on the support it was drawn on, without the padding
    return tuple(p[i, : k[i]].tolist()), tuple(q[i, : k[i]].tolist())


def check_fuzz_arguments(n_trials: int, max_support: int, seed: int) -> None:
    """Raise the DomainError ``fuzz_sandwich`` raises for these arguments."""
    if n_trials < 1:
        raise DomainError(f"n_trials must be >= 1, got {n_trials}")
    if max_support < 2:
        raise DomainError(f"max_support must be >= 2, got {max_support}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")


def fuzz_sandwich(n_trials: int, max_support: int, seed: int) -> FuzzReport:
    """Random strictly-positive pairs pushed through the sandwich checker.

    Supports are drawn uniformly in 2..max_support, probabilities by
    normalizing exponential draws (uniform on the simplex). Trials are
    drawn and checked in blocks of arrays. Violations are collected, not
    raised; the expected count is zero.
    """
    check_fuzz_arguments(n_trials, max_support, seed)
    rng = np.random.default_rng(seed)
    violations = []
    margins = [None, None, None]
    for start in range(0, n_trials, _FUZZ_BLOCK):
        k, p, q = _draw_block(rng, min(_FUZZ_BLOCK, n_trials - start), max_support)
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
        n_trials=n_trials,
        max_support=max_support,
        seed=seed,
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


def resolve_tv_convention() -> TvConvention:
    """Settle which TV scale the reverse-Pinsker formula consumes.

    The pair whose density ratio takes exactly the values m and M attains
    the bound, so KL equals U there on the right scale. Returns the
    convention on whose reading of delta U is within ATTAINMENT_REL_TOL
    of KL at the pair of every (m, M) in _ATTAINING_BOUNDS; raises if
    neither scale is, since the implementation is then broken.
    """
    for conv in (TvConvention.SUP, TvConvention.VARIATIONAL):
        if all(abs(gap) <= ATTAINMENT_REL_TOL for gap in _attainment_gaps(conv)):
            return conv
    raise RuntimeError(
        "neither TV convention makes U equal KL where it is attained; U is wrong"
    )


def verify_tightness(step: float, gap_tol: float) -> list:
    """Rows of `divbounds verify` comparing grid minimum and curve at each
    of VERIFY_DELTAS; a row is ok for a gap in [VERIFY_GAP_FLOOR, gap_tol]."""
    rows = []
    for delta in VERIFY_DELTAS:
        minimum = min_kl_at_tv(OracleGridSpec(step=step, constraint_delta=delta))
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
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    OracleGridSpec(step=step)
    if not 0 < gap_tol < math.inf:
        raise DomainError(f"gap_tol must be positive and finite, got {gap_tol}")
    convention = resolve_tv_convention()
    fuzz = fuzz_sandwich(trials, max_support=VERIFY_MAX_SUPPORT, seed=seed)
    tightness = verify_tightness(step, gap_tol)
    matches = convention is PINNED_TV_CONVENTION
    summary = {
        "convention": convention.value,
        "convention_matches_pinned": matches,
        "fuzz": {
            "trials": fuzz.n_trials,
            "max_support": fuzz.max_support,
            "seed": fuzz.seed,
            "violations": fuzz.n_violations,
        },
        "tightness": tightness,
        "all_ok": matches and fuzz.ok and all(row["ok"] for row in tightness),
    }
    return summary, fuzz
