import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from divbounds import (
    PINNED_TV_CONVENTION,
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
    resolve_tv_convention,
    reverse_pinsker,
    tv_discrete,
)
from divbounds.pinsker import check_sandwich_rows

SUP = TvConvention.SUP
VAR = TvConvention.VARIATIONAL


def disc(*probs):
    return DiscreteDistribution(np.array(probs, dtype=float))


def test_pinned_convention_matches_oracle():
    # the named constant is only valid while the exhaustive scan agrees
    assert resolve_tv_convention() is PINNED_TV_CONVENTION


class TestReversePinsker:
    def test_degenerate_bounds_at_zero_delta(self):
        assert reverse_pinsker(0.0, SUP, DensityBounds(1.0, 1.0)) == 0.0

    def test_degenerate_bounds_with_positive_delta_rejected(self):
        with pytest.raises(DomainError):
            reverse_pinsker(0.1, SUP, DensityBounds(1.0, 1.0))

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

    def test_zero_iff_delta_zero(self):
        bounds = DensityBounds(0.25, 3.0)
        assert reverse_pinsker(0.0, SUP, bounds) == 0.0
        assert reverse_pinsker(1e-9, SUP, bounds) > 0.0

    def test_m_zero_rejected(self):
        with pytest.raises(DomainError):
            reverse_pinsker(0.1, SUP, DensityBounds(0.0, 2.0))

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
        delta = tv_discrete(p, q, PINNED_TV_CONVENTION)
        upper = reverse_pinsker(delta, PINNED_TV_CONVENTION, density_bounds_discrete(p, q))
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
        payload = json.loads(report.to_json())
        assert list(payload) == ["poly_lb", "vajda_lb", "divergence", "upper", "all_hold"]
        assert payload["all_hold"] is True
        assert payload["divergence"] == report.divergence

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


class TestSandwichRows:
    def test_rows_match_scalar_checker(self):
        k, p, q = padded_rows(np.random.default_rng(11), 3000, 6)
        specials = [
            ([0.5, 0.5], [0.5, 0.5]),  # identical: U degenerates to 0
            ([0.9999, 0.0001], [0.0001, 0.9999]),  # past the curve's range
            ([0.3, 0.0, 0.7], [0.6, 0.0, 0.4]),  # padding inside the row
            ([0.5 + 1e-9, 0.5 - 1e-9], [0.5, 0.5]),  # near-identical
        ]
        for i, (a, b) in enumerate(specials):
            p[i], q[i] = 0.0, 0.0
            p[i, : len(a)], q[i, : len(b)] = a, b
            k[i] = len(a)
        rows = check_sandwich_rows(p, q)
        eps = np.finfo(float).eps
        for i in range(len(k)):
            pi, qi = disc(*p[i, : k[i]]), disc(*q[i, : k[i]])
            want = check_sandwich_same_dim(pi, qi)
            got = rows.report(i)
            assert got.poly_lb == want.poly_lb
            assert got.vajda_lb == pytest.approx(want.vajda_lb, rel=1e-14, abs=0.0)
            assert got.all_hold == want.all_hold
            # U subtracts two phi values; numpy's log1p may differ from
            # math.log1p by an ulp of each. KL's terms are
            # |p_i - q_i| phi(p_i / q_i), and np.log may differ from math.log
            db = density_bounds_discrete(pi, qi)
            scale = tv_discrete(pi, qi, SUP) * (
                oracles.phi_ratio_weight(db.M) + oracles.phi_ratio_weight(db.m)
            )
            assert abs(got.divergence - want.divergence) <= 8 * eps * scale
            if want.upper == 0.0:
                assert got.upper == 0.0
                continue
            assert abs(got.upper - want.upper) <= 8 * eps * scale

    def test_report_carries_the_row(self):
        p = np.array([[0.75, 0.25], [0.5, 0.5]])
        q = np.array([[0.5, 0.5], [0.5, 0.5]])
        rows = check_sandwich_rows(p, q)
        got = rows.report(0)
        want = check_sandwich_same_dim(disc(0.75, 0.25), disc(0.5, 0.5))
        assert (got.poly_lb, got.divergence, got.all_hold) == (
            want.poly_lb,
            want.divergence,
            want.all_hold,
        )
        assert got.vajda_lb == pytest.approx(want.vajda_lb, rel=1e-14, abs=0.0)
        assert got.upper == pytest.approx(want.upper, rel=1e-13)
        assert type(got.divergence) is float and type(got.all_hold) is bool
        assert rows.report(1).upper == 0.0

    def test_an_overflowing_density_ratio_agrees_with_the_scalar_checker(self):
        # 0.5 / 5e-324 overflows, without a warning: M and U are inf, and
        # that KL term takes its log as log 0.5 - log 5e-324
        rows = check_sandwich_rows(np.array([[0.5, 0.5]]), np.array([[5e-324, 1.0]]))
        want = check_sandwich_same_dim(disc(0.5, 0.5), disc(5e-324, 1.0))
        assert want.divergence == 371.5268887801307
        assert (want.upper, want.all_hold) == (math.inf, True)
        got = rows.report(0)
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
            ([[1.0, 0.0]], [[0.5, 0.5]], DomainError),  # m = 0
            ([[0.5, 0.5]], [[0.5, 0.5, 0.0]], DomainError),  # shapes differ
            ([[1e308, 1e308]], [[0.5, 0.5]], InvalidDistributionError),  # sum overflows
            ([[0.5, 0.5, 1e-13]], [[0.5, 0.5, 5e-324]], DomainError),  # m = 1, M = inf
        ],
    )
    def test_rejects_what_the_scalar_checker_rejects(self, p, q, error):
        with pytest.raises(error):
            check_sandwich_same_dim(disc(*p[0]), disc(*q[0]))
        with pytest.raises(error):
            check_sandwich_rows(np.array(p), np.array(q))

    def test_identical_measures_claim_outranks_an_infinite_supremum(self):
        # m = 1 while 1e-13 / 5e-324 overflows: both checkers name m = 1
        p, q = [0.5, 0.5, 1e-13], [0.5, 0.5, 5e-324]
        with pytest.raises(DomainError, match="identical measures"):
            check_sandwich_same_dim(disc(*p), disc(*q))
        with pytest.raises(DomainError, match="identical measures"):
            check_sandwich_rows(np.array([p]), np.array([q]))

    @pytest.mark.parametrize("row, total", [([0.5, 0.6], "1.1"), ([1e308, 1e308], "inf")])
    def test_bad_row_total_prints_as_a_plain_float(self, row, total):
        with pytest.raises(InvalidDistributionError) as caught:
            check_sandwich_rows(np.array([row]), np.array([[0.5, 0.5]]))
        assert str(caught.value) == f"p: row 0 sums to {total}, not 1"


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
