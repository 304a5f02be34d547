"""Acceptance suite: one test per criterion, one printed line per result.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines;
each criterion enforces its stated tolerance and runtime budget.
"""

import time
from fractions import Fraction

import numpy as np

import oracles
from divbounds import (
    AugmentedDensityBounds,
    DensityBounds,
    Gaussian1D,
    GaussianND,
    TvConvention,
    atv_gaussian,
    check_sandwich_augmented,
    emit_curve,
    curve_to_csv,
    fuzz_sandwich,
    gaussian_akl,
    invert_poly_bound,
    kl_gaussian_1d,
    poly_lower_bound,
    reid_lower_bound,
    search_projection_divergence,
    vajda_lower_bound,
)
from divbounds.oracle import VERIFY_DELTAS, VERIFY_MAX_SUPPORT, verify_tightness

SUP = TvConvention.SUP

GRID_200 = np.linspace(0.0, 1.9, 200)
ORACLE_DELTAS = (0.2, 0.5, 0.9, 1.3, 1.7)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _rotated_gaussian_3d() -> GaussianND:
    rng = np.random.default_rng(99)
    sigma = oracles.random_spd_matrix(3, [1.0, 2.25, 4.0], rng)
    return GaussianND(nu=np.array([0.5, -1.0, 2.0]), sigma=sigma)


def test_criterion_1_curve_cross_validation():
    start = time.perf_counter()
    worst = 0.0
    for delta in GRID_200:
        diff = abs(reid_lower_bound(float(delta)).value - vajda_lower_bound(float(delta)))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(
        1,
        "minimization agrees with parametric curve",
        ok,
        f"max |reid - vajda| = {worst:.3e} on 200 points in [0, 1.9] "
        f"(tol 1e-6), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_polynomial_ordering():
    # the polynomial is the curve's own 8th-order expansion, so near 0 the
    # true slack (~delta^10) sits below double resolution; the ordering is
    # asserted up to a pure-rounding allowance relative to the polynomial
    # and strictly away from 0
    slacks = {
        float(d): vajda_lower_bound(float(d)) - poly_lower_bound(float(d))
        for d in GRID_200
    }
    min_slack = min(slacks.values())
    min_rel_slack = min(s / poly_lower_bound(d) for d, s in slacks.items() if d > 0)
    min_slack_away = min(s for d, s in slacks.items() if d >= 0.5)
    exact = oracles.poly_bound_fraction(Fraction(1))
    assert exact == Fraction(1, 2) + Fraction(1, 36) + Fraction(1, 270) + Fraction(
        221, 340200
    )
    at_one = poly_lower_bound(1.0)
    ok = (
        min_rel_slack >= -2e-15
        and min_slack_away > 0.0
        and abs(at_one - 0.532131) <= 1e-6
        and abs(at_one - float(exact)) <= 1e-15
    )
    _report(
        2,
        "polynomial stays below the curve",
        ok,
        f"min slack = {min_slack:.3e}, min slack / poly = {min_rel_slack:.3e} "
        "(>= -2e-15 rounding allowance), "
        f"strictly positive for delta >= 0.5 (min {min_slack_away:.3e}), "
        f"poly(1) = {at_one:.9f} = 0.532131 +/- 1e-6, rational oracle {exact}",
    )


def test_criterion_3_oracle_tightness():
    # at the deltas `divbounds verify` checks, the exhaustive binary-grid
    # minimum at step 1e-3 lies in [L - 1e-9, L + 5e-3]: never below the
    # curve, and close to it
    start = time.perf_counter()
    gaps = [oracles.binary_min_kl(d, 1e-3) - vajda_lower_bound(d) for d in ORACLE_DELTAS]
    elapsed = time.perf_counter() - start
    ok = (
        VERIFY_DELTAS == ORACLE_DELTAS
        and all(-1e-9 <= gap <= 5e-3 for gap in gaps)
        and elapsed < 60.0
    )
    detail = ", ".join(f"d={d}: {gap:.2e}" for d, gap in zip(ORACLE_DELTAS, gaps))
    _report(
        3,
        "binary grid attains the lower bound",
        ok,
        f"gaps in [-1e-09, 0.005]: {detail}; {elapsed:.1f}s (< 60s)",
    )


def test_criterion_4_reverse_pinsker_fuzz():
    start = time.perf_counter()
    # U on the SUP scale equals KL at the pairs that attain it
    upper = verify_tightness()["upper"]
    n_trials = 100_000
    report = fuzz_sandwich(n_trials, seed=1)
    elapsed = time.perf_counter() - start
    ok = (
        all(row["ok"] for row in upper)
        and report.n_violations == 0
        and elapsed < 60.0
    )
    worst = max(abs(row["rel_gap"]) for row in upper)
    _report(
        4,
        "upper bound never violated",
        ok,
        f"{n_trials} random pairs (supports 2-{VERIFY_MAX_SUPPORT}), "
        f"{report.n_violations} violations under {TvConvention.SUP.value} "
        f"convention, attained at {len(upper)} pairs within {worst:.1e}; "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_gaussian_akl_and_search():
    start = time.perf_counter()
    q = _rotated_gaussian_3d()

    below = Gaussian1D(mu=0.0, sigma2=0.25)
    closed_below = gaussian_akl(below, q)
    search_below = search_projection_divergence(below, q, "kl", budget=10_000, seed=42)
    gap_below = abs(search_below.best_value - closed_below)

    above = Gaussian1D(mu=1.0, sigma2=9.0)
    closed_above = gaussian_akl(above, q)
    search_above = search_projection_divergence(above, q, "kl", budget=10_000, seed=42)
    gap_above = abs(search_above.best_value - closed_above)

    inner_values = []
    for sigma2 in (1.0, 2.0, 3.9):
        inner = Gaussian1D(mu=-0.5, sigma2=sigma2)
        if sigma2 == 1.0:
            # 1.0 is the smallest eigenvalue, which eigh returns a few ulps
            # above 1: the closed form is the 1-D KL against it, 2.0e-31
            end = Gaussian1D(mu=-0.5, sigma2=float(q.eigenvalues[0]))
            assert gaussian_akl(inner, q) == kl_gaussian_1d(inner, end)
        else:
            assert gaussian_akl(inner, q) == 0.0
        result = search_projection_divergence(inner, q, "kl", budget=10_000, seed=42)
        inner_values.append(result.best_value)
    elapsed = time.perf_counter() - start

    ok = (
        abs(closed_below - 0.318147) <= 1e-6
        and gap_below <= 1e-4
        and gap_above <= 1e-4
        and max(inner_values) <= 1e-8
        and elapsed < 120.0
    )
    _report(
        5,
        "closed-form augmented KL matches projection search",
        ok,
        f"closed = {closed_below:.9f} (0.318147 +/- 1e-6), search gaps "
        f"{gap_below:.2e}/{gap_above:.2e} (<= 1e-4), interior max "
        f"{max(inner_values):.2e} (<= 1e-8); {elapsed:.1f}s (< 120s)",
    )


def test_criterion_6_augmented_sandwich_randomized():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []
    for trial in range(50):
        n = int(rng.integers(2, 5))
        eigs = np.sort(rng.uniform(0.5, 4.0, size=n))
        sigma = oracles.random_spd_matrix(n, eigs, rng)
        q = GaussianND(nu=rng.normal(0.0, 1.0, size=n), sigma=sigma)
        zeta_min, zeta_max = float(q.eigenvalues[0]), float(q.eigenvalues[-1])
        mode = trial % 3
        if mode == 0:
            sigma2 = float(rng.uniform(zeta_min, zeta_max))
        elif mode == 1:
            sigma2 = zeta_min / float(rng.uniform(1.2, 16.0))
        else:
            sigma2 = zeta_max * float(rng.uniform(1.2, 2.5))
        p = Gaussian1D(mu=float(rng.normal()), sigma2=sigma2)
        # bound ranges chosen so the finite upper bound clears the largest
        # divergence the variance ratios above can produce; a genuinely
        # truncated pair would satisfy this automatically
        bounds = AugmentedDensityBounds(
            emb=DensityBounds(
                m=float(rng.uniform(0.05, 0.3)),
                M=float(np.exp(rng.uniform(np.log(16.0), np.log(200.0)))),
            ),
            proj=DensityBounds(
                m=float(rng.uniform(0.05, 0.3)),
                M=float(np.exp(rng.uniform(np.log(16.0), np.log(200.0)))),
            ),
        )
        # the draw that once seeded the ATV search; it keeps the same 50
        # configurations
        rng.integers(2**31)
        atv = atv_gaussian(p, q, SUP)
        report = check_sandwich_augmented(p, q, bounds, atv=atv, conv=SUP)
        if not report.all_hold:
            failures.append((trial, report))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _report(
        6,
        "augmented sandwich holds on randomized configurations",
        ok,
        f"50 truncated-style configurations, {len(failures)} failures; "
        f"{elapsed:.1f}s (< 120s)",
    )


def test_criterion_7_curve_emission():
    points = emit_curve(0.01, 20, 500)
    text = curve_to_csv(points)
    rows = [tuple(map(float, line.split(","))) for line in text.strip().split("\n")[1:]]
    deltas = np.array([r[1] for r in rows])
    l_values = np.array([r[2] for r in rows])

    increasing = bool(np.all(np.diff(deltas) > 0))
    slopes = np.diff(l_values) / np.diff(deltas)
    convex = float(np.min(np.diff(slopes)))
    near_origin = deltas[0] < 0.011 and l_values[0] < 6e-5
    above_quadratic = float(np.min(l_values - deltas**2 / 2.0))

    ok = (
        len(rows) == 500
        and increasing
        and convex >= -1e-9
        and near_origin
        and above_quadratic >= 0.0
    )
    _report(
        7,
        "emitted curve is increasing, convex, and above the quadratic",
        ok,
        f"500 rows, min slope increment {convex:.2e} (>= -1e-9), first point "
        f"({deltas[0]:.4f}, {l_values[0]:.2e}), min L - d^2/2 = {above_quadratic:.2e}",
    )


def test_criterion_8_polynomial_inversion():
    rng = np.random.default_rng(8)
    worst = 0.0
    for delta in rng.uniform(0.0, 2.0, size=100):
        recovered = invert_poly_bound(poly_lower_bound(float(delta)))
        worst = max(worst, abs(recovered - float(delta)))
    xi = 0.318147
    residual = abs(poly_lower_bound(invert_poly_bound(xi)) - xi)
    ok = worst <= 1e-8 and residual <= 1e-10
    _report(
        8,
        "polynomial inversion round-trips",
        ok,
        f"max |invert(poly(d)) - d| = {worst:.2e} over 100 draws (<= 1e-8), "
        f"|poly(invert(xi)) - xi| = {residual:.2e} at xi = {xi} (<= 1e-10)",
    )
