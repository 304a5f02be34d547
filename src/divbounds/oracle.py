"""Ground truth for both bounds on small discrete spaces.

Both bounds are optimal, and two-point pairs attain each: at such a pair
KL equals the bound up to rounding. ``verify_tightness`` runs those
pairs through the fuzz stage's checker, so a miscaled curve, phi or TV
scale shows as a row off KL; random pairs on 2..VERIFY_MAX_SUPPORT points
check the whole bound chain. Exhaustive binary-grid scans of both bounds
are test oracles. ``run_verify`` is ``divbounds verify``.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import _integer
from .pinsker import SandwichReport, check_sandwich_rows
from .serialize import dumps
from .vajda import curve_point_for_delta

# `divbounds verify`: the variational TV values at which it checks that the
# lower bound is attained, and the largest support its fuzz stage draws
VERIFY_DELTAS = (0.2, 0.5, 0.9, 1.3, 1.7)
VERIFY_MAX_SUPPORT = 6

# trials drawn and checked per array pass of fuzz_sandwich. One block's
# temporaries are the fuzz's whole working set, about 370 B a trial under
# tracemalloc: the draws peak at 216 and hold 112, and the checker peaks
# 176 above them. At 2048 (0.72 MiB) `verify`'s peak RSS is the same at any
# --trials, and at 10 000 trials its wall time matches blocks of 8192. Each
# block also pays about 0.7 ms of fixed cost, most of it the curve's Newton
# passes, so smaller blocks are slower (100 000 trials in-process: 122 ms
# at 1024, 88 at 2048, 77 at 8192)
_FUZZ_BLOCK = 2048
# the fuzz stream: SplitMix64's increment, and the outputs each trial owns
# (its support size, then p's and q's exponentials)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_DRAWS_PER_TRIAL = 1 + 2 * VERIFY_MAX_SUPPORT
# the density bounds (m, M) of the pairs that attain the upper bound, and
# how far a bound may fall from KL at the pairs that attain it, relative:
# kl_discrete's contract allows 2.9e-13 on these pairs, the TV, phi and the
# curve a few ulps; 1e-9 miscalings fail
_ATTAINING_BOUNDS = tuple(
    (m, M) for m in (1e-3, 0.01, 0.1, 0.5, 0.9) for M in (1.1, 2.0, 10.0, 100.0, 1e3)
)
ATTAINMENT_REL_TOL = 1e-12


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


def _mix(z):
    # SplitMix64's finalizer (Steele, Lea and Flood, OOPSLA 2014), in place
    # on a uint64 array: a bijection of uint64, whose products wrap mod 2**64
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _uniforms(seed: int, first: int, n: int) -> np.ndarray:
    """Trials first..first+n-1's outputs of seed's SplitMix64 stream, (13, n).

    Row r, column i holds output j = 13 * (first + i) + r, which is
    _mix(key + (j + 1) * gamma) mod 2**64, read as a multiple of 2**-52
    plus 2**-53, so log u is finite and nonzero. The key folds every
    64-bit word of the seed, low first, through _mix: seeds below 2**64
    get distinct keys, and the mixing keeps any two keys from being a few
    multiples of gamma apart, which would make one stream a shifted copy of
    the other. Each output is computed from its index straight into its
    row and column, in uint64 arithmetic that wraps as the definition
    does, and every later step works in place: the 104 B a trial returned
    are all that is held, and _mix's shifts briefly double that.
    """
    key = np.zeros(1, dtype=np.uint64)
    for shift in range(0, max(seed.bit_length(), 1), 64):
        key = _mix((key ^ np.uint64(seed >> shift & 0xFFFF_FFFF_FFFF_FFFF)) + _GAMMA)
    trial = np.arange(first, first + n, dtype=np.uint64) * np.uint64(_DRAWS_PER_TRIAL)
    z = np.arange(1, _DRAWS_PER_TRIAL + 1, dtype=np.uint64)[:, None] + trial
    z *= _GAMMA
    z += key
    _mix(z)
    # the top 52 bits v as the fraction of a double 1 + v 2**-52, from which
    # subtracting 1 - 2**-53 leaves (v + 0.5) 2**-52 exactly
    z >>= np.uint64(12)
    z |= np.uint64(0x3FF0_0000_0000_0000)
    u = z.view(np.float64)
    u -= 1.0 - 2.0**-53
    return u


def _draw_block(seed: int, first: int, n: int):
    """Trials first..first+n-1: support sizes k, and p and q as (n, width).

    Trial i is column i of ``_uniforms``, so a pair depends on (seed, i)
    alone: the first output picks k uniformly in 2..VERIFY_MAX_SUPPORT,
    the next 2 * width become -log u, exponentials, in place, and p and q
    normalize the first k of each half (uniform on the simplex) and are
    zero past k. p and q are transposed views of those rows, so the block
    holds 112 B a trial: the outputs and k.
    """
    width = VERIFY_MAX_SUPPORT
    u = _uniforms(seed, first, n)
    k = 2 + (u[0] * (width - 1)).astype(np.intp)
    pq = np.log(u[1:], out=u[1:])
    pq = np.negative(pq, out=pq).reshape(2, width, n)
    pq *= np.arange(width)[:, None] < k
    pq /= pq.sum(axis=1, keepdims=True)
    return k, pq[0].T, pq[1].T


def _report_row(rows: SandwichReport, i: int) -> SandwichReport:
    # pair i of a batch, as floats and a bool
    return SandwichReport._make(column[i].item() for column in rows)


def _drawn_pair(p: np.ndarray, q: np.ndarray, k: np.ndarray, i: int) -> tuple:
    # row i on the support it was drawn on, without the padding
    return tuple(p[i, : k[i]].tolist()), tuple(q[i, : k[i]].tolist())


def fuzz_sandwich(n_trials: int, seed: int) -> FuzzReport:
    """Random strictly-positive pairs pushed through the sandwich checker.

    Trial i draws its support size uniformly in 2..VERIFY_MAX_SUPPORT and
    its probabilities by normalizing exponential draws (uniform on the
    simplex), from its own outputs of the seed's SplitMix64 stream
    (``_draw_block``): a pair depends on the seed and i alone, not on the
    block size, and numpy.random is never loaded. Trials are drawn and
    checked _FUZZ_BLOCK at a time, as transposed views of one column per
    trial, which ``check_sandwich_rows`` reduces without a copy; only the
    margins and the violations outlive a block, so the fuzz's memory is
    one block's, about 370 B a trial, whatever n_trials. Violations are
    collected, not raised; the expected count is zero.
    """
    n_trials, seed = _integer("n_trials", n_trials, 1), _integer("seed", seed, 0)
    violations = []
    margins = [None, None, None]
    for first in range(0, n_trials, _FUZZ_BLOCK):
        k, p, q = _draw_block(seed, first, min(_FUZZ_BLOCK, n_trials - first))
        rows = check_sandwich_rows(p, q)
        for link, gaps in enumerate(rows.gaps):
            i = int(np.argmin(gaps))
            if margins[link] is None or gaps[i] < margins[link].value:
                margins[link] = FuzzMargin(float(gaps[i]), *_drawn_pair(p, q, k, i))
        for i in np.flatnonzero(~rows.all_hold):
            violations.append(
                SandwichViolation(*_drawn_pair(p, q, k, i), report=_report_row(rows, i))
            )
    return FuzzReport(
        violations=tuple(violations),
        vajda_minus_poly=margins[0],
        kl_minus_vajda=margins[1],
        upper_minus_kl=margins[2],
    )


def _attaining_pairs():
    # (p, q) as (n, 2) arrays. At each VERIFY_DELTAS entry, with t from the
    # curve and c = coth t - 1/t, Q = ((1 - c)/2, (1 + c)/2) and P = Q +
    # (delta(t)/2, -delta(t)/2) have KL L(t) (Fedotov, Harremoes and Topsoe
    # 2003); at each (m, M), Q = (q, 1 - q) and P = (Mq, m(1 - q)) with
    # q = (1 - m)/(M - m) have dP/dQ in {m, M} and KL U (Binette 2019)
    pairs = []
    for delta in VERIFY_DELTAS:
        point = curve_point_for_delta(delta)
        c = 1.0 / math.tanh(point.t) - 1.0 / point.t
        q0, q1, h = (1.0 - c) / 2.0, (1.0 + c) / 2.0, point.delta / 2.0
        pairs.append(((q0 + h, q1 - h), (q0, q1)))
    for m, M in _ATTAINING_BOUNDS:
        q1 = (1.0 - m) / (M - m)
        pairs.append(((M * q1, m * (1.0 - q1)), (q1, 1.0 - q1)))
    p, q = zip(*pairs)
    return np.array(p), np.array(q)


def verify_tightness() -> dict:
    """The rows of `divbounds verify` that show both bounds attained.

    The pairs that attain them go through ``check_sandwich_rows``, the
    fuzz stage's checker, as one batch. ``lower`` has a row per
    VERIFY_DELTAS entry, ``upper`` one per (m, M) in _ATTAINING_BOUNDS;
    ``rel_gap`` is (KL - L)/L or (U - KL)/U, negative where the bound
    fails, and a row is ok when |rel_gap| <= ATTAINMENT_REL_TOL. A TV
    read on the wrong scale puts U off by a factor of 2.
    """
    rows = check_sandwich_rows(*_attaining_pairs())
    with np.errstate(all="ignore"):  # a broken bound of 0 or nan fails its row
        _, lo, up = rows.gaps
        lo, up = (lo / rows.vajda_lb).tolist(), (up / rows.upper).tolist()
    kl, lb, ub = rows.divergence.tolist(), rows.vajda_lb.tolist(), rows.upper.tolist()
    n, tol = len(VERIFY_DELTAS), ATTAINMENT_REL_TOL
    lower = [
        dict(delta=d, witness_kl=kl[i], vajda_lb=lb[i], rel_gap=g, ok=abs(g) <= tol)
        for i, (d, g) in enumerate(zip(VERIFY_DELTAS, lo))
    ]
    upper = [
        dict(m=m, M=M, witness_kl=kl[i], upper=ub[i], rel_gap=g, ok=abs(g) <= tol)
        for i, ((m, M), g) in enumerate(zip(_ATTAINING_BOUNDS, up[n:]), n)
    ]
    return {"lower": lower, "upper": upper}


def run_verify(trials: int, seed: int):
    """The `divbounds verify` workflow: fuzz, then attainment.

    Returns (summary, fuzz): the object the command prints, and the
    FuzzReport whose violations it writes to stderr. ``trials`` and
    ``seed`` are checked before any stage runs.
    """
    trials, seed = _integer("trials", trials, 1), _integer("seed", seed, 0)
    fuzz = fuzz_sandwich(trials, seed)
    tightness = verify_tightness()
    attained = all(row["ok"] for rows in tightness.values() for row in rows)
    summary = {
        "fuzz": {
            "trials": trials,
            "max_support": VERIFY_MAX_SUPPORT,
            "seed": seed,
            "violations": fuzz.n_violations,
        },
        "tightness": tightness,
        "all_ok": fuzz.ok and attained,
    }
    return summary, fuzz
