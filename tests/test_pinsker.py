import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from divbounds import (
    AbsoluteContinuityError,
    AugmentedDensityBounds,
    DensityBounds,
    DiscreteDistribution,
    DomainError,
    Gaussian1D,
    GaussianND,
    InvalidDistributionError,
    TvConvention,
    atv_gaussian,
    augmented_upper_bound,
    check_sandwich_augmented,
    check_sandwich_same_dim,
    density_bounds_discrete,
    kl_discrete,
    reverse_pinsker,
    tv_discrete,
)
from divbounds.measures import PROB_SUM_TOL
from divbounds import oracle, pinsker
from divbounds.pinsker import SandwichReport, check_sandwich_rows
from divbounds.serialize import dumps

SUP = TvConvention.SUP
VAR = TvConvention.VARIATIONAL


def disc(*probs):
    return DiscreteDistribution(np.array(probs, dtype=float))


def test_pinned_convention_matches_oracle():
    # U takes delta on the SUP scale: the exhaustive scan must agree, and
    # U on it must equal KL at the pairs that attain U
    assert oracles.tv_convention_scan(step=1e-3) is SUP
    assert all(row["ok"] for row in oracle.verify_tightness()["upper"])


class TestReversePinsker:
    def test_degenerate_bounds_at_zero_delta(self):
        assert reverse_pinsker(0.0, SUP, DensityBounds(1.0, 1.0)) == 0.0

    def test_degenerate_bounds_with_positive_delta_rejected(self):
        with pytest.raises(DomainError):
            reverse_pinsker(0.1, SUP, DensityBounds(1.0, 1.0))

    @pytest.mark.parametrize("c", [1.0000000000005, 0.9999999999995])
    def test_equal_bounds_off_1_force_identical_measures(self, c):
        # m = M != 1 is no pair of normalized measures, as m = 1 or M = 1
        # is none but p = q: delta must be 0, and U is then 0
        with pytest.raises(DomainError, match="force identical measures"):
            reverse_pinsker(0.5, SUP, DensityBounds(c, c))
        with pytest.raises(DomainError, match="force identical measures"):
            reverse_pinsker(1e-300, VAR, DensityBounds(c, c))
        assert reverse_pinsker(0.0, SUP, DensityBounds(c, c)) == 0.0

    def test_a_proportional_pair_keeps_its_report(self):
        # the same m = M read off a pair is its sums' slack, not a claim:
        # check_sandwich_same_dim reports U = 0 at the delta it leaves
        p, q = disc(0.5000000000003, 0.5000000000003), disc(0.4999999999997, 0.4999999999997)
        db = density_bounds_discrete(p, q)
        assert db.m == db.M > 1.0 and tv_discrete(p, q, SUP) > 0.0
        with pytest.raises(DomainError, match="force identical measures"):
            reverse_pinsker(tv_discrete(p, q, SUP), SUP, db)
        report = check_sandwich_same_dim(p, q)
        assert (report.upper, report.all_hold) == (0.0, True)

    def test_worked_example(self):
        got = reverse_pinsker(0.1, SUP, DensityBounds(0.5, 2.0))
        assert got == pytest.approx(oracles.RP_SUP_01_HALF_TWO, abs=1e-14)

    def test_linear_in_delta(self):
        bounds = DensityBounds(0.5, 2.0)
        slope = math.log(2)  # phi(2) - phi(1/2)
        for d in (0.05, 0.2, 0.4, 0.9):
            assert reverse_pinsker(d, SUP, bounds) == pytest.approx(d * slope)

    def test_attained_by_two_point_pair(self):
        # the pair whose density ratio takes exactly the values m and M
        # sits on the bound, which is what makes it optimal
        m, M = 0.25, 3.0
        q1 = (1 - m) / (M - m)
        p = disc(M * q1, m * (1 - q1))
        q = disc(q1, 1 - q1)
        from divbounds import density_bounds_discrete, tv_discrete

        db = density_bounds_discrete(p, q)
        assert db == DensityBounds(m=m, M=M)
        delta = tv_discrete(p, q, SUP)
        assert kl_discrete(p, q) == pytest.approx(
            reverse_pinsker(delta, SUP, db), abs=1e-14
        )

    def test_phi_against_mpmath(self):
        # near 1 (where x - 1 is exact), down to the smallest subnormal and
        # up to the largest double, past 2.6e305 where x log x overflows,
        # on both backends: within 2 ulps, and finite for every m > 0
        import mpmath

        near = [1.0 + k * 2.0**-52 for k in (-8, -3, -1, 1, 2, 7)]
        xs = near + [1.0 - 1e-8, 1.0 + 1e-8, 0.5, 2.0, 1e-20, 2.0**-54, 5e-324, 1e300]
        xs += [2.6e305, 1e308, np.finfo(float).max]
        with mpmath.workdps(40):
            want = [
                float(mpmath.mpf(x) * mpmath.log(x) / (mpmath.mpf(x) - 1)) for x in xs
            ]
        got = pinsker._phi(np.array(xs), np)
        for x, w, g in zip(xs, want, got):
            assert abs(pinsker._phi(x) - w) <= 2 * math.ulp(w), x
            assert abs(g - w) <= 2 * math.ulp(w), x

    def test_phi_takes_its_limits(self):
        # phi(x) = x at 0, 1 and inf, where x log x / (x - 1) is 0 * -inf,
        # 0 / 0 and inf / inf, on both backends and without a warning;
        # the values between keep the quotient's bits
        edges = [0.0, 1.0, math.inf]
        assert [pinsker._phi(x) for x in edges] == edges
        xs = np.array([0.0, 0.5, 1.0, 2.0, math.inf])
        with np.errstate(all="ignore"):
            want = np.where(np.isin(xs, edges), xs, xs * (np.log(xs) / (xs - 1.0)))
        assert pinsker._phi(xs, np).tobytes() == want.tobytes()

    def test_zero_iff_delta_zero(self):
        bounds = DensityBounds(0.25, 3.0)
        assert reverse_pinsker(0.0, SUP, bounds) == 0.0
        assert reverse_pinsker(1e-9, SUP, bounds) > 0.0

    @pytest.mark.parametrize("M", [1.1, 2.0, 10.0, 1e3])
    def test_m_zero_is_attained(self, M):
        # P = (1, 0) against Q = (1/M, 1 - 1/M) has KL = log M = U with
        # m = 0 (Binette 2019), through each of the three entry points;
        # delta = 1 - 1/M rounds by up to ulp(1)/2, 4 ulps of U at M = 1.1
        a, b = [1.0, 0.0], [1.0 / M, 1.0 - 1.0 / M]
        p, q = disc(*a), disc(*b)
        db = density_bounds_discrete(p, q)
        assert (db.m, db.M) == (0.0, M)
        report = check_sandwich_same_dim(p, q)
        rows = oracle._report_row(check_sandwich_rows(np.array([a]), np.array([b])), 0)
        want = math.log(M)
        for got in (
            reverse_pinsker(tv_discrete(p, q, SUP), SUP, db),
            report.upper,
            report.divergence,
            rows.upper,
            rows.divergence,
        ):
            assert abs(got - want) <= 8 * math.ulp(want)
        assert report.all_hold and rows.all_hold

    def test_infinite_supremum_rejected(self):
        with pytest.raises(DomainError, match="finite essential supremum"):
            reverse_pinsker(0.1, SUP, DensityBounds(0.5, math.inf))

    def test_negative_delta_rejected(self):
        with pytest.raises(DomainError):
            reverse_pinsker(-0.1, SUP, DensityBounds(0.5, 2.0))

    def test_monotone_in_bounds(self):
        # loosening either bound can only raise the bound value
        ms = np.linspace(0.05, 0.95, 19)
        vals = [reverse_pinsker(0.3, SUP, DensityBounds(float(m), 2.0)) for m in ms]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        Ms = np.linspace(1.1, 50.0, 25)
        vals = [reverse_pinsker(0.3, SUP, DensityBounds(0.5, float(M))) for M in Ms]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_convention_conversion(self):
        bounds = DensityBounds(0.5, 2.0)
        assert reverse_pinsker(0.2, VAR, bounds) == pytest.approx(
            reverse_pinsker(0.1, SUP, bounds)
        )

    @given(
        st.lists(st.integers(1, 1000), min_size=2, max_size=6),
        st.lists(st.integers(1, 1000), min_size=2, max_size=6),
    )
    @settings(max_examples=300)
    def test_dominates_kl_on_random_pairs(self, wp, wq):
        from divbounds import density_bounds_discrete, tv_discrete

        k = min(len(wp), len(wq))
        p = disc(*(np.array(wp[:k], dtype=float) / sum(wp[:k])))
        q = disc(*(np.array(wq[:k], dtype=float) / sum(wq[:k])))
        delta = tv_discrete(p, q, SUP)
        upper = reverse_pinsker(delta, SUP, density_bounds_discrete(p, q))
        assert kl_discrete(p, q) <= upper + 1e-9


class TestAugmentedUpperBound:
    def test_degenerate(self):
        unit = DensityBounds(1.0, 1.0)
        bounds = AugmentedDensityBounds(emb=unit, proj=unit)
        assert augmented_upper_bound(0.0, SUP, bounds) == 0.0

    def test_worked_example_takes_max(self):
        bounds = AugmentedDensityBounds(
            emb=DensityBounds(0.5, 2.0), proj=DensityBounds(0.25, 4.0)
        )
        got = augmented_upper_bound(0.1, SUP, bounds)
        assert got == pytest.approx(oracles.RP_SUP_01_QUARTER_FOUR, abs=1e-14)

    def test_symmetric_sides_collapse(self):
        side = DensityBounds(0.3, 3.0)
        bounds = AugmentedDensityBounds(emb=side, proj=side)
        assert augmented_upper_bound(0.2, SUP, bounds) == reverse_pinsker(
            0.2, SUP, side
        )

    def test_dominates_each_side(self):
        bounds = AugmentedDensityBounds(
            emb=DensityBounds(0.5, 2.0), proj=DensityBounds(0.1, 40.0)
        )
        u = augmented_upper_bound(0.3, SUP, bounds)
        assert u >= reverse_pinsker(0.3, SUP, bounds.emb)
        assert u >= reverse_pinsker(0.3, SUP, bounds.proj)


class TestSandwichSameDim:
    def test_identical_pair(self):
        p = disc(0.5, 0.5)
        report = check_sandwich_same_dim(p, p)
        assert report.all_hold
        assert (report.poly_lb, report.vajda_lb, report.divergence, report.upper) == (
            0.0,
            0.0,
            0.0,
            0.0,
        )

    def test_worked_example(self):
        report = check_sandwich_same_dim(disc(0.75, 0.25), disc(0.5, 0.5))
        assert report.all_hold
        expected_kl = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert report.divergence == pytest.approx(expected_kl, abs=1e-15)
        assert report.poly_lb <= report.vajda_lb <= report.divergence <= report.upper

    def test_json_shape(self):
        report = check_sandwich_same_dim(disc(0.75, 0.25), disc(0.5, 0.5))
        payload = json.loads(dumps(report.as_dict()))
        assert list(payload) == ["poly_lb", "vajda_lb", "divergence", "upper", "all_hold"]
        assert payload["all_hold"] is True
        assert payload["divergence"] == report.divergence

    def test_gaps_of_the_worked_example(self):
        # the pair's density ratio takes only m = 0.5 and M = 1.5, so it
        # attains U and the last link is rounding
        report = check_sandwich_same_dim(disc(0.75, 0.25), disc(0.5, 0.5))
        low, mid, high = report.gaps
        assert low == report.vajda_lb - report.poly_lb >= 0.0
        assert mid == report.divergence - report.vajda_lb > 1e-3
        assert high == report.upper - report.divergence
        assert abs(high) <= 1e-15

    def test_a_tiny_atom_beside_a_ratio_of_1_gives_a_report(self):
        # the large atoms' ratio is exactly 1 while M = 3, so U =
        # delta (phi(3) - phi(1)) = 6.48e-21 sits below KL = 3.30e-20: that
        # gap is p's sum defect of 2e-20 entering KL at first order, which
        # only REPORT_TOL passes, so the values are pinned, not U >= KL
        a, b = [3e-20, 0.5, 0.5], [1e-20, 0.5, 0.5]
        rows = check_sandwich_rows(np.array([a]), np.array([b]))
        for report in (check_sandwich_same_dim(disc(*a), disc(*b)),
                       oracle._report_row(rows, 0)):
            assert report.upper == pytest.approx(
                1e-20 * (1.5 * math.log(3.0) - 1.0), rel=1e-15
            )
            assert report.divergence == pytest.approx(3e-20 * math.log(3.0), rel=1e-15)
            assert report.all_hold

    def test_near_disjoint_pair_stays_total(self):
        # delta beyond the curve's resolvable range falls back to a
        # conservative curve value instead of erroring
        report = check_sandwich_same_dim(
            disc(0.9999, 0.0001), disc(0.0001, 0.9999)
        )
        assert report.all_hold
        assert report.vajda_lb <= report.divergence


def padded_rows(rng, n, width):
    """n random pairs on 2..width points, zero-padded to width columns."""
    k = rng.integers(2, width + 1, size=n)
    used = np.arange(width) < k[:, None]
    p = np.where(used, rng.exponential(size=(n, width)), 0.0)
    q = np.where(used, rng.exponential(size=(n, width)), 0.0)
    return k, p / p.sum(axis=1, keepdims=True), q / q.sum(axis=1, keepdims=True)


def edge_total(side):
    """The double farthest from 1 on ``side`` whose sum passes PROB_SUM_TOL."""
    total = 1.0 + side * PROB_SUM_TOL
    while abs(total - 1.0) > PROB_SUM_TOL:
        total = math.nextafter(total, 1.0)
    return total


def assert_same_as_row_major(p, q):
    """``check_sandwich_rows`` against its frozen row-major form on (p, q)."""
    outcomes = []
    for kernel in (check_sandwich_rows, oracles.check_sandwich_rows_row_major):
        try:
            outcomes.append(kernel(p, q))
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
    got, want = outcomes
    if not isinstance(want, SandwichReport):
        assert got == want
        return
    for name, a, b in zip(SandwichReport._fields, got, want):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def assert_agrees_with_scalar(got, a, b):
    """Report ``got`` of a batched row against the scalar checker on (a, b).

    poly and the verdict are equal and the curve within 1e-14 relative.
    U subtracts two phi values, and numpy's log may differ from math.log
    by an ulp of each; KL's terms are |p_i - q_i| phi(p_i / q_i), and np.log
    may differ from math.log. So both agree within 8 ulps of
    tv * (phi(M) + phi(m)). Where M = inf, U is inf and KL meets
    ``kl_discrete``'s contract.
    """
    pa, qa = DiscreteDistribution(a), DiscreteDistribution(b)
    want = check_sandwich_same_dim(pa, qa)
    assert (got.poly_lb, got.all_hold) == (want.poly_lb, want.all_hold)
    assert got.vajda_lb == pytest.approx(want.vajda_lb, rel=1e-14, abs=0.0)
    db = density_bounds_discrete(pa, qa)
    if db.M == math.inf:
        assert got.upper == want.upper == math.inf
        assert oracles.kl_discrete_within_contract(got.divergence, a, b)
        return
    scale = tv_discrete(pa, qa, SUP) * (
        oracles.phi_ratio_weight(db.M) + oracles.phi_ratio_weight(db.m)
    )
    eps = np.finfo(float).eps
    assert abs(got.divergence - want.divergence) <= 8 * eps * scale
    assert abs(got.upper - want.upper) <= 8 * eps * scale


TOP, BOTTOM = edge_total(+1), edge_total(-1)
# single rows of every kind, as (p, q, valid); 0.25 + (x - 0.25) sums to x
AGREEMENT_ROWS = {
    "plain": ([0.75, 0.25], [0.5, 0.5], True),
    "plain-padded": ([0.3, 0.0, 0.7, 0.0], [0.6, 0.0, 0.4, 0.0], True),
    "past-curve-range": ([0.9999, 0.0001], [0.0001, 0.9999], True),
    "identical": ([0.5, 0.5], [0.5, 0.5], True),
    "identical-padded": ([0.2, 0.3, 0.5, 0.0], [0.2, 0.3, 0.5, 0.0], True),
    "overflowing-ratio": ([0.5, 0.5], [5e-324, 1.0], True),
    "overflowing-ratio-m-1": ([0.5, 0.5, 1e-13], [0.5, 0.5, 5e-324], True),
    "m-1-positive-delta": ([0.5, 0.5 + 1e-13], [0.5, 0.5 - 1e-13], True),
    "sum-at-plus-tol": ([0.25, TOP - 0.25], [0.6, 0.4], True),
    "sum-at-minus-tol": ([0.25, BOTTOM - 0.25], [0.6, 0.4], True),
    "q-sum-at-plus-tol": ([0.6, 0.4], [0.25, TOP - 0.25], True),
    "q-sum-at-minus-tol": ([0.6, 0.4], [0.25, BOTTOM - 0.25], True),
    "sum-past-plus-tol": ([0.25, math.nextafter(TOP, 2.0) - 0.25], [0.6, 0.4], False),
    "sum-past-minus-tol": ([0.25, math.nextafter(BOTTOM, 0.0) - 0.25], [0.6, 0.4], False),
    "nan": ([float("nan"), 1.0], [0.5, 0.5], False),
    "q-nan": ([0.5, 0.5], [0.5, float("nan")], False),
    "negative": ([1.5, -0.5], [0.5, 0.5], False),
    "q-negative": ([0.5, 0.5], [1.5, -0.5], False),
    "sum-overflows": ([1e308, 1e308], [0.5, 0.5], False),
    "not-absolutely-continuous": ([0.5, 0.5], [1.0, 0.0], False),
    "m-0": ([1.0, 0.0], [0.5, 0.5], True),
    # the large atoms' ratio is exactly 1 while M = 3
    "m-1-tiny-atom": ([3e-20, 0.5, 0.5], [1e-20, 0.5, 0.5], True),
    "density-bounds-both-above-1": (
        [0.5 + 3e-13, 0.5 + 3e-13], [0.5 - 3e-13, 0.5 - 3e-13], True
    ),
    # sums at opposite ends of the tolerance: m = M = TOP / BOTTOM > 1
    "sums-at-opposite-tol-ends": ([TOP / 2, TOP / 2], [BOTTOM / 2, BOTTOM / 2], True),
    # m - 1 rounds to -1, so phi must take log m, not log1p(m - 1)
    "m-below-2**-54": ([1e-20, 1.0 - 1e-20], [0.5, 0.5], True),
    "delta-past-1+1e-12": (*oracles.sum_edge_rows(31), True),
}


# rows that the frozen row-major kernel hands to the scalar checker and
# ``check_sandwich_rows`` computes as arrays: their curve (and, past the
# largest double, their KL) rounds differently on the two backends, so
# test_each_kind_of_row_agrees_with_the_scalar_checker checks them instead
SCALAR_ROWS_NOW_ARRAYS = ("overflowing-ratio", "overflowing-ratio-m-1", "m-0")


def edge_entry(k, side):
    """The double farthest from 1/k on ``side`` whose k copies pass PROB_SUM_TOL."""
    a = (1.0 + side * PROB_SUM_TOL) / k
    while abs(np.sum(np.full(k, a)) - 1.0) > PROB_SUM_TOL:
        a = math.nextafter(a, 0.0 if side > 0 else 1.0)
    while abs(np.sum(np.full(k, math.nextafter(a, side * 2.0))) - 1.0) <= PROB_SUM_TOL:
        a = math.nextafter(a, side * 2.0)
    return a


class TestSandwichRows:
    def test_a_batch_is_one_report_of_arrays(self):
        p = np.array([[0.75, 0.25], [0.3, 0.7], [0.5, 0.5]])
        q = np.array([[0.5, 0.5], [0.6, 0.4], [0.5, 0.5]])
        rows = check_sandwich_rows(p, q)
        assert type(rows) is SandwichReport
        for column in (*rows, *rows.gaps):
            assert isinstance(column, np.ndarray) and column.shape == (3,)
        assert rows.all_hold.dtype == bool

    def test_gaps_of_a_batch_are_its_rows_gaps(self):
        # the worked example, next to an identical pair
        p = np.array([[0.75, 0.25], [0.5, 0.5]])
        q = np.array([[0.5, 0.5], [0.5, 0.5]])
        rows = check_sandwich_rows(p, q)
        low, mid, high = rows.gaps
        assert np.array_equal(low, rows.vajda_lb - rows.poly_lb)
        assert np.array_equal(mid, rows.divergence - rows.vajda_lb)
        assert np.array_equal(high, rows.upper - rows.divergence)
        want = check_sandwich_same_dim(disc(0.75, 0.25), disc(0.5, 0.5)).gaps
        assert low[0] == pytest.approx(want[0], rel=1e-12, abs=1e-15)
        assert mid[0] == pytest.approx(want[1], rel=1e-12)
        assert abs(high[0]) <= 1e-15
        assert (low[1], mid[1], high[1]) == (0.0, 0.0, 0.0)
        for i in range(2):
            assert oracle._report_row(rows, i).gaps == (low[i], mid[i], high[i])

    @pytest.mark.parametrize(
        "kind", ["density-bounds-both-above-1", "sums-at-opposite-tol-ends"]
    )
    def test_sums_on_opposite_sides_of_1_give_a_report(self, kind):
        # both sums pass PROB_SUM_TOL, so the ratio of the two may put m
        # above 1: each checker reports, and U = 0 since m = M
        a, b, _ = AGREEMENT_ROWS[kind]
        want = check_sandwich_same_dim(disc(*a), disc(*b))
        got = check_sandwich_rows(np.array([a]), np.array([b]))
        assert oracle._report_row(got, 0) == want
        assert (want.upper, want.all_hold) == (0.0, True)

    @pytest.mark.parametrize("side", [+1, -1])
    @pytest.mark.parametrize("k", [2, 3, 6, 10])
    def test_proportional_pairs_at_the_two_sum_edges_give_reports(self, k, side):
        p, q = [edge_entry(k, side)] * k, [edge_entry(k, -side)] * k
        for row, s in ((p, side), (q, -side)):
            assert 0.99 * PROB_SUM_TOL < s * (np.sum(row) - 1.0) <= PROB_SUM_TOL
        db = density_bounds_discrete(disc(*p), disc(*q))
        assert db.m == db.M and abs(db.m - 1.0) > 1.99e-12
        want = check_sandwich_same_dim(disc(*p), disc(*q))
        assert want.upper == 0.0 and want.all_hold
        got = check_sandwich_rows(np.array([p]), np.array([q]))
        assert oracle._report_row(got, 0) == want

    def test_rows_match_scalar_checker(self):
        # supports of 2..6 points, as the fuzz draws, and of 2..300, where
        # the column sums split as ``measures._sum`` does. The scalar
        # checker sees each row as the kernel does, zeros included: from 8
        # columns on, they change the order in which numpy's sum adds
        specials = [
            ([0.5, 0.5], [0.5, 0.5]),  # identical: U degenerates to 0
            ([0.9999, 0.0001], [0.0001, 0.9999]),  # past the curve's range
            ([0.3, 0.0, 0.7], [0.6, 0.0, 0.4]),  # padding inside the row
            ([0.5 + 1e-9, 0.5 - 1e-9], [0.5, 0.5]),  # near-identical
        ]
        # and the pairs that attain L and U in `divbounds verify`, whose
        # rows only the batched checker computes there
        specials += list(zip(*oracle._attaining_pairs()))
        for width, n in ((6, 3000), (300, 150)):
            _, p, q = padded_rows(np.random.default_rng(11), n, width)
            for i, (a, b) in enumerate(specials):
                p[i], q[i] = 0.0, 0.0
                p[i, : len(a)], q[i, : len(b)] = a, b
            rows = check_sandwich_rows(p, q)
            for i in range(n):
                assert_agrees_with_scalar(oracle._report_row(rows, i), p[i], q[i])

    def test_report_carries_the_row(self):
        p = np.array([[0.75, 0.25], [0.5, 0.5]])
        q = np.array([[0.5, 0.5], [0.5, 0.5]])
        rows = check_sandwich_rows(p, q)
        got = oracle._report_row(rows, 0)
        want = check_sandwich_same_dim(disc(0.75, 0.25), disc(0.5, 0.5))
        assert (got.poly_lb, got.divergence, got.all_hold) == (
            want.poly_lb,
            want.divergence,
            want.all_hold,
        )
        assert got.vajda_lb == pytest.approx(want.vajda_lb, rel=1e-14, abs=0.0)
        assert got.upper == pytest.approx(want.upper, rel=1e-13)
        assert type(got.divergence) is float and type(got.all_hold) is bool
        assert oracle._report_row(rows, 1).upper == 0.0

    def test_an_overflowing_density_ratio_agrees_with_the_scalar_checker(self):
        # 0.5 / 5e-324 overflows, without a warning: M and U are inf, and
        # that KL term takes its log as log 0.5 - log 5e-324
        rows = check_sandwich_rows(np.array([[0.5, 0.5]]), np.array([[5e-324, 1.0]]))
        want = check_sandwich_same_dim(disc(0.5, 0.5), disc(5e-324, 1.0))
        assert want.divergence == 371.5268887801307
        assert (want.upper, want.all_hold) == (math.inf, True)
        got = oracle._report_row(rows, 0)
        assert (got.poly_lb, got.divergence, got.upper, got.all_hold) == (
            want.poly_lb,
            want.divergence,
            want.upper,
            want.all_hold,
        )
        assert got.vajda_lb == pytest.approx(want.vajda_lb, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "p, q, error",
        [
            ([[0.5, 0.6]], [[0.5, 0.5]], InvalidDistributionError),
            ([[1.5, -0.5]], [[0.5, 0.5]], InvalidDistributionError),
            ([[float("nan"), 1.0]], [[0.5, 0.5]], InvalidDistributionError),
            ([[0.5, 0.5]], [[1.0, 0.0]], AbsoluteContinuityError),
            ([[math.inf, 0.0]], [[0.5, 0.5]], InvalidDistributionError),
            ([[0.5, 0.5]], [[0.5, 0.5, 0.0]], DomainError),  # shapes differ
            ([[1e308, 1e308]], [[0.5, 0.5]], InvalidDistributionError),  # sum overflows
        ],
    )
    def test_rejects_what_the_scalar_checker_rejects(self, p, q, error):
        with pytest.raises(error):
            check_sandwich_same_dim(disc(*p[0]), disc(*q[0]))
        with pytest.raises(error):
            check_sandwich_rows(np.array(p), np.array(q))

    def test_m_1_with_an_infinite_supremum_gives_u_inf(self):
        # m = 1 while 1e-13 / 5e-324 overflows: U is inf, and that KL term
        # takes its log as log 1e-13 - log 5e-324
        p, q = [0.5, 0.5, 1e-13], [0.5, 0.5, 5e-324]
        want = check_sandwich_same_dim(disc(*p), disc(*q))
        got = oracle._report_row(check_sandwich_rows(np.array([p]), np.array([q])), 0)
        for report in (want, got):
            assert (report.upper, report.all_hold) == (math.inf, True)
            assert report.divergence == pytest.approx(
                1e-13 * (math.log(1e-13) - math.log(5e-324)), rel=1e-15
            )

    @pytest.mark.parametrize("kind", AGREEMENT_ROWS)
    def test_each_kind_of_row_agrees_with_the_scalar_checker(self, kind, monkeypatch):
        # the rows checker raises type(e)("row 0: " + str(e)) exactly when
        # the scalar checker raises e; valid rows stay in the array kernel,
        # without a scalar call, and agree within assert_agrees_with_scalar
        a, b, valid = AGREEMENT_ROWS[kind]
        calls = []

        def spy(p, q):
            calls.append((p, q))
            return check_sandwich_same_dim(p, q)

        monkeypatch.setattr(pinsker, "check_sandwich_same_dim", spy)
        try:
            check_sandwich_same_dim(DiscreteDistribution(a), DiscreteDistribution(b))
        except ValueError as exc:
            with pytest.raises(type(exc)) as caught:
                check_sandwich_rows(np.array([a]), np.array([b]))
            assert type(caught.value) is type(exc)
            assert str(caught.value) == f"row 0: {exc}"
            assert not valid
            return
        assert valid
        got = oracle._report_row(check_sandwich_rows(np.array([a]), np.array([b])), 0)
        assert calls == []
        assert_agrees_with_scalar(got, a, b)

    def test_the_edge_rows_test_what_they_name(self):
        # the sum rows sit on either side of the tolerance, and the last row
        # passes both sum checks while its delta rounds past 1 + 1e-12
        assert abs(TOP - 1.0) <= PROB_SUM_TOL < abs(math.nextafter(TOP, 2.0) - 1.0)
        assert abs(BOTTOM - 1.0) <= PROB_SUM_TOL < abs(math.nextafter(BOTTOM, 0.0) - 1.0)
        for kind, total in (
            ("sum-at-plus-tol", TOP),
            ("sum-at-minus-tol", BOTTOM),
            ("sum-past-plus-tol", math.nextafter(TOP, 2.0)),
            ("sum-past-minus-tol", math.nextafter(BOTTOM, 0.0)),
        ):
            assert np.sum(AGREEMENT_ROWS[kind][0]) == total
        assert np.sum(AGREEMENT_ROWS["q-sum-at-plus-tol"][1]) == TOP
        assert np.sum(AGREEMENT_ROWS["q-sum-at-minus-tol"][1]) == BOTTOM
        a, b, _ = AGREEMENT_ROWS["delta-past-1+1e-12"]
        pa, qa = DiscreteDistribution(a), DiscreteDistribution(b)
        db = density_bounds_discrete(pa, qa)
        assert 2.0**-54 < db.m < 1.0 < db.M < math.inf
        assert tv_discrete(pa, qa, SUP) > 1.0 + 1e-12

    def test_rows_of_every_kind_in_one_batch(self, monkeypatch):
        # valid rows of every kind up to 4 points mixed with drawn rows:
        # each row agrees with the scalar checker, and none calls it
        monkeypatch.setattr(pinsker, "check_sandwich_same_dim", None)
        k, p, q = padded_rows(np.random.default_rng(5), 200, 4)
        kinds = [
            kind for kind, (a, _, valid) in AGREEMENT_ROWS.items()
            if valid and len(a) <= 4
        ]
        rows = np.random.default_rng(6).choice(len(k), size=len(kinds), replace=False)
        for i, kind in zip(rows, kinds):
            a, b, _ = AGREEMENT_ROWS[kind]
            p[i], q[i] = 0.0, 0.0
            p[i, : len(a)], q[i, : len(b)] = a, b
            k[i] = len(a)
        got = check_sandwich_rows(p, q)
        for i in range(len(k)):
            a, b = p[i, : k[i]], q[i, : k[i]]
            assert_agrees_with_scalar(oracle._report_row(got, i), a, b)

    def test_first_bad_row_wins(self):
        # row 0 is not absolutely continuous, row 1 sums to 1.1: the
        # scalar checker's error for row 0 is raised, not row 1's
        p = np.array([[0.5, 0.5], [0.5, 0.6]])
        q = np.array([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(AbsoluteContinuityError) as caught:
            check_sandwich_rows(p, q)
        assert str(caught.value) == (
            "row 0: p puts mass where q does not; relative density undefined"
        )
        # a bad row after valid ones, m = 0 among them, keeps its own index
        p = np.array([[1.0, 0.0], [0.75, 0.25], [0.5, 0.6]])
        q = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(
            InvalidDistributionError, match=r"^row 2: probabilities sum to 1\.1, not 1$"
        ):
            check_sandwich_rows(p, q)

    @pytest.mark.parametrize(
        "layout", ["drawn", "drawn-c-order", "padded-6", "padded-20", "padded-300"]
    )
    def test_columns_match_the_row_major_kernel_bit_for_bit(self, layout):
        # the fuzz's transposed views and zero-padded rows up to the width
        # at which ``_sum`` splits: every field keeps the parent's bits
        if layout.startswith("drawn"):
            _, p, q = oracle._draw_block(7, 0, 4096)
            if layout == "drawn-c-order":
                p, q = p.copy(), q.copy()
        else:
            width = int(layout.split("-")[1])
            _, p, q = padded_rows(np.random.default_rng(width), 6000 // width, width)
        assert_same_as_row_major(p, q)

    @pytest.mark.parametrize(
        "kind", [kind for kind in AGREEMENT_ROWS if kind not in SCALAR_ROWS_NOW_ARRAYS]
    )
    def test_each_kind_of_row_matches_the_row_major_kernel(self, kind):
        # valid, nan and rejected rows, alone and among drawn rows: the
        # same report bits, or the same error and message
        a, b, _ = AGREEMENT_ROWS[kind]
        assert_same_as_row_major(np.array([a]), np.array([b]))
        _, p, q = padded_rows(np.random.default_rng(4), 50, len(a))
        p[17], q[17] = a, b
        assert_same_as_row_major(p, q)

    def test_fortran_ordered_input_gives_the_c_ordered_result(self):
        # numpy sums the rows of a Fortran-ordered array in another order
        k, p, q = padded_rows(np.random.default_rng(8), 500, 20)
        want = check_sandwich_rows(p, q)
        got = check_sandwich_rows(np.asfortranarray(p), q.T.copy().T)
        for name in SandwichReport._fields:
            assert np.array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("row, total", [([0.5, 0.6], "1.1"), ([1e308, 1e308], "inf")])
    def test_bad_row_total_prints_as_a_plain_float(self, row, total):
        with pytest.raises(InvalidDistributionError) as caught:
            check_sandwich_rows(np.array([row]), np.array([[0.5, 0.5]]))
        assert str(caught.value) == f"row 0: probabilities sum to {total}, not 1"


class TestSandwichAugmented:
    def setup_method(self):
        self.q = GaussianND(nu=np.zeros(3), sigma=np.diag([1.0, 2.0, 4.0]))
        self.loose = AugmentedDensityBounds(
            emb=DensityBounds(0.1, 20.0), proj=DensityBounds(0.1, 20.0)
        )

    def test_matched_projection_is_trivial_chain(self):
        p = Gaussian1D(mu=0.3, sigma2=2.5)  # inside the eigenvalue range
        report = check_sandwich_augmented(p, self.q, self.loose, atv=0.0, conv=SUP)
        assert report.all_hold
        assert report.divergence == 0.0
        assert report.vajda_lb == 0.0

    def test_example_chain_with_estimated_atv(self):
        p = Gaussian1D(mu=0.0, sigma2=0.25)
        atv = atv_gaussian(p, self.q, SUP)
        report = check_sandwich_augmented(p, self.q, self.loose, atv=atv, conv=SUP)
        assert report.all_hold
        assert report.divergence == pytest.approx(
            oracles.KL_GAUSS_QUARTER_VS_UNIT, abs=1e-12
        )
        assert report.vajda_lb <= report.divergence

    def test_inconsistent_atv_reports_false_without_error(self):
        p = Gaussian1D(mu=0.0, sigma2=0.25)
        report = check_sandwich_augmented(p, self.q, self.loose, atv=0.99, conv=SUP)
        assert not report.all_hold  # vajda at the inflated atv exceeds the AKL

    def test_tight_bounds_report_false(self):
        p = Gaussian1D(mu=0.0, sigma2=0.25)
        atv = atv_gaussian(p, self.q, SUP)
        near_unit = AugmentedDensityBounds(
            emb=DensityBounds(0.999, 1.001), proj=DensityBounds(0.999, 1.001)
        )
        report = check_sandwich_augmented(p, self.q, near_unit, atv=atv, conv=SUP)
        assert not report.all_hold

    def test_report_does_not_depend_on_the_atv_convention(self):
        # with its ATV from atv_gaussian, the report is the same in both
        # conventions, below, inside and above the spectrum: the reason the
        # augmented `sandwich` subcommand takes no --convention
        rng = np.random.default_rng(23)
        for trial in range(300):
            n = int(rng.integers(1, 6))
            eigs = np.sort(np.exp(rng.uniform(-3.0, 3.0, size=n)))
            sigma = oracles.random_spd_matrix(n, eigs, rng) if n > 1 else np.diag(eigs)
            q = GaussianND(nu=rng.normal(size=n), sigma=sigma)
            zeta_min, zeta_max = float(q.eigenvalues[0]), float(q.eigenvalues[-1])
            sigma2 = (
                zeta_min * math.exp(-rng.uniform(0.0, 4.0)),
                zeta_min + (zeta_max - zeta_min) * rng.uniform(),
                zeta_max * math.exp(rng.uniform(0.0, 4.0)),
            )[trial % 3]
            p = Gaussian1D(mu=float(rng.normal()), sigma2=sigma2)
            m1, m2 = rng.uniform(0.05, 0.95, size=2)
            big1, big2 = rng.uniform(1.05, 20.0, size=2)
            bounds = AugmentedDensityBounds(
                emb=DensityBounds(m1, big1), proj=DensityBounds(m2, big2)
            )
            sup, var = (
                check_sandwich_augmented(p, q, bounds, atv_gaussian(p, q, c), c)
                for c in (SUP, VAR)
            )
            assert sup == var
