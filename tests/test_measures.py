import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from divbounds import (
    AbsoluteContinuityError,
    DensityBounds,
    DiscreteDistribution,
    DivBoundsError,
    DomainError,
    Gaussian1D,
    GaussianND,
    InvalidDistributionError,
    TvConvention,
    convert_tv,
    density_bounds_discrete,
    distribution_from_json,
    kl_discrete,
    kl_gaussian_1d,
    measures,
    tv_discrete,
    tv_gaussian_1d,
)
from divbounds.measures import GAUSS_TV_ABS_TOL, PROB_SUM_TOL

SUP = TvConvention.SUP
VAR = TvConvention.VARIATIONAL


def disc(*probs):
    return DiscreteDistribution(np.array(probs, dtype=float))


def density_crossings(a, b):
    # where the densities are equal, from the roots the closed-form TV sums over
    n, _, _, roots = measures._standard_crossings(a, b)
    return [n.mu + n.sigma * u for u in roots]


# random positive-integer weights normalize to strictly positive distributions
weights = st.lists(st.integers(min_value=1, max_value=1000), min_size=2, max_size=6)


def normalize(ws):
    arr = np.array(ws, dtype=float)
    return DiscreteDistribution(arr / arr.sum())


class TestDiscreteDistribution:
    def test_rejects_negative(self):
        with pytest.raises(InvalidDistributionError):
            disc(1.1, -0.1)

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidDistributionError):
            disc(0.5, 0.6)
        with pytest.raises(InvalidDistributionError):
            disc(1e308, 1e308)  # the sum overflows
        with pytest.raises(InvalidDistributionError):
            disc(math.inf, -math.inf)  # the sum is NaN

    def test_rejects_empty_and_matrix(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteDistribution(np.array([]))
        with pytest.raises(InvalidDistributionError):
            DiscreteDistribution(np.array([[0.5, 0.5]]))

    def test_probs_read_only(self):
        d = disc(0.5, 0.5)
        with pytest.raises(ValueError):
            d.probs[0] = 0.3

    @pytest.mark.parametrize(
        "probs",
        [
            np.array([0.25, 0.75]),
            np.array([0.25, 0.75], dtype=">f8"),  # byte-swapped float64
            np.array([0.25, 9.0, 0.75])[::2],  # strided
            np.array([0.25, 0.75], dtype=np.float32),
            np.array([1, 0]),
            np.array([True, False]),
        ],
        ids=["float64", "swapped", "strided", "float32", "int", "bool"],
    )
    def test_arrays_convert_as_numpy_converts_them(self, probs):
        # arrays go through np.asarray(..., dtype=float), as numpy converts
        probs.flags.writeable = False
        got = DiscreteDistribution(probs)._probs
        assert got == tuple(np.asarray(probs, dtype=float).tolist())
        assert {type(x) for x in got} == {float}

    def test_immutable_and_picklable(self):
        d = disc(0.25, 0.75)
        with pytest.raises(AttributeError):
            d.probs = np.array([0.5, 0.5])
        with pytest.raises(AttributeError):
            d._probs = (0.5, 0.5)
        with pytest.raises(AttributeError):
            del d._probs
        back = pickle.loads(pickle.dumps(d))
        assert back.probs.tolist() == [0.25, 0.75] and back is not d
        assert repr(d) == "DiscreteDistribution(probs=[0.25, 0.75])"


class TestGaussianTypes:
    def test_variance_must_be_positive(self):
        with pytest.raises(InvalidDistributionError):
            Gaussian1D(mu=0.0, sigma2=0.0)

    def test_nd_rejects_asymmetric(self):
        with pytest.raises(InvalidDistributionError):
            GaussianND(nu=np.zeros(2), sigma=np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_nd_symmetrizes_parse_noise(self):
        sigma = np.array([[2.0, 0.3 + 5e-13], [0.3, 1.0]])
        g = GaussianND(nu=np.zeros(2), sigma=sigma)
        assert np.array_equal(g.sigma, g.sigma.T)

    def test_nd_rejects_indefinite(self):
        with pytest.raises(InvalidDistributionError):
            GaussianND(nu=np.zeros(2), sigma=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_eigenvalues_sorted(self):
        g = GaussianND(nu=np.zeros(2), sigma=np.diag([4.0, 1.0]))
        assert g.eigenvalues.tolist() == [1.0, 4.0]

    def test_nd_rejects_an_overflowing_covariance(self):
        # (sigma + sigma^T) / 2 overflows to inf (its eigenvalues were nan),
        # or a finite one has an eigenvalue past the largest double; neither
        # may pass the positivity check, and numpy must not warn
        with pytest.raises(InvalidDistributionError, match=r"\(sigma \+ sigma\^T\) / 2"):
            GaussianND(nu=[0, 0], sigma=[[9e307, 8.1e307], [8.1e307, 9e307]])
        with pytest.raises(InvalidDistributionError, match="not finite"):
            GaussianND(nu=[0], sigma=[[1.5e308]])
        big = np.full((3, 3), 8e307) + np.diag([9e306] * 3)
        with pytest.raises(InvalidDistributionError, match="largest eigenvalue"):
            GaussianND(nu=np.zeros(3), sigma=big)
        with pytest.raises(InvalidDistributionError, match="asymmetric by inf"):
            GaussianND(nu=[0, 0], sigma=[[1e308, -1e308], [1e308, 1e308]])

    def test_nd_keeps_a_large_finite_covariance(self):
        g = GaussianND(nu=[0, 0], sigma=[[1e307, 9e306], [9e306, 1e307]])
        assert g.sigma.tolist() == [[1e307, 9e306], [9e306, 1e307]]
        assert g.eigenvalues.tolist() == pytest.approx([1e306, 1.9e307], rel=1e-14)


class TestKlDiscrete:
    def test_identical_is_zero(self):
        p = disc(0.5, 0.5)
        assert kl_discrete(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        assert kl_discrete(disc(1, 0), disc(0.5, 0.5)) == pytest.approx(
            math.log(2), abs=1e-15
        )

    def test_absolute_continuity_failure_is_inf(self):
        assert kl_discrete(disc(0.5, 0.5), disc(1, 0)) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            kl_discrete(disc(0.5, 0.5), disc(0.2, 0.3, 0.5))

    @given(weights, weights.filter(lambda w: len(w) >= 2))
    def test_gibbs_inequality(self, wp, wq):
        k = min(len(wp), len(wq))
        p = normalize(wp[:k])
        q = normalize(wq[:k])
        kl = kl_discrete(p, q)
        assert kl >= 0.0
        if np.max(np.abs(p.probs - q.probs)) > 1e-9:
            assert kl > 0.0


class TestTvDiscrete:
    def test_identical_is_zero(self):
        p = disc(0.3, 0.7)
        assert tv_discrete(p, p, SUP) == 0.0

    def test_disjoint_saturates_sup(self):
        assert tv_discrete(disc(1, 0), disc(0, 1), SUP) == 1.0

    def test_variational_example(self):
        assert tv_discrete(disc(1, 0), disc(0.5, 0.5), VAR) == pytest.approx(1.0)

    @given(weights, weights, weights)
    def test_metric_properties(self, wa, wb, wc):
        k = min(len(wa), len(wb), len(wc))
        a, b, c = (normalize(w[:k]) for w in (wa, wb, wc))
        dab = tv_discrete(a, b, SUP)
        dba = tv_discrete(b, a, SUP)
        assert dab == dba
        assert dab <= tv_discrete(a, c, SUP) + tv_discrete(c, b, SUP) + 1e-15
        if np.array_equal(a.probs, b.probs):
            assert dab == 0.0


class TestKlGaussian1d:
    def test_identical_is_zero(self):
        g = Gaussian1D(1.3, 2.0)
        assert kl_gaussian_1d(g, g) == 0.0

    def test_variance_only(self):
        got = kl_gaussian_1d(Gaussian1D(0, 0.25), Gaussian1D(0, 1))
        assert got == pytest.approx(oracles.KL_GAUSS_QUARTER_VS_UNIT, abs=1e-15)

    def test_mean_shift_only(self):
        assert kl_gaussian_1d(Gaussian1D(1, 1), Gaussian1D(0, 1)) == pytest.approx(0.5)

    def test_out_of_range_variance_ratio(self):
        # the ratio of the variances overflows: the KL is inf; it underflows:
        # log r is the difference of the two logs
        assert kl_gaussian_1d(Gaussian1D(0, 1e300), Gaussian1D(0, 1e-10)) == math.inf
        got = kl_gaussian_1d(Gaussian1D(0, 1e-200), Gaussian1D(0, 1e200))
        assert got == pytest.approx(oracles.KL_GAUSS_TINY_VS_HUGE, rel=1e-15)
        # the ratio is subnormal: log r from the ratio would be off by 0.5
        got = kl_gaussian_1d(Gaussian1D(0, 3e-162), Gaussian1D(0, 1e162))
        assert got == pytest.approx(oracles.KL_GAUSS_SUBNORMAL_RATIO, rel=1e-15)


_VARIANCES = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_MEANS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(_MEANS, _VARIANCES, _MEANS, _VARIANCES)
@example(0.0, 1e300, 0.0, 1e-10)  # the ratio overflows
@example(0.0, 1e-200, 0.0, 1e200)  # it underflows to 0
@example(0.0, 3e-162, 0.0, 1e162)  # it is subnormal
@example(1.5, 5e-324, -2.0, 1.7e308)  # the extreme variances
@example(-0.5, 0.25, 0.75, 1.0)
def test_kl_kernel_is_kl_gaussian_1d_bit_for_bit(mu_a, s_a, mu_b, s_b):
    # the float kernel, the public function and its frozen former body
    # agree exactly, and a mean-matched pair is the kernel at dmu = 0
    want = oracles.kl_gaussian_1d_reference(mu_a, s_a, mu_b, s_b)
    got = kl_gaussian_1d(Gaussian1D(mu_a, s_a), Gaussian1D(mu_b, s_b))
    assert got.hex() == want.hex()
    assert measures._kl_gaussian(s_a, s_b, mu_a - mu_b).hex() == want.hex()
    matched = kl_gaussian_1d(Gaussian1D(mu_a, s_a), Gaussian1D(mu_a, s_b))
    assert measures._kl_gaussian(s_a, s_b, 0.0).hex() == matched.hex()


class TestTvGaussian1d:
    def test_identical_is_zero(self):
        g = Gaussian1D(0.0, 1.0)
        assert tv_gaussian_1d(g, g, SUP) == 0.0

    def test_equal_variance_mean_shift(self):
        got = tv_gaussian_1d(Gaussian1D(0, 1), Gaussian1D(1, 1), SUP)
        assert abs(got - oracles.TV_EQUAL_VAR_MEAN_SHIFT) <= GAUSS_TV_ABS_TOL

    def test_variance_mismatch_vs_cdf_oracle(self):
        got = tv_gaussian_1d(Gaussian1D(0, 0.25), Gaussian1D(0, 1), SUP)
        assert abs(got - oracles.TV_QUARTER_VS_UNIT) <= GAUSS_TV_ABS_TOL

    @pytest.mark.parametrize("mu_a,s_a,mu_b,s_b,ref", oracles.TV_GAUSS_SUP_REF)
    def test_within_contract_of_frozen_references(self, mu_a, s_a, mu_b, s_b, ref):
        # near-identical pairs are held to the absolute contract only
        assert GAUSS_TV_ABS_TOL <= 1e-13
        a, b = Gaussian1D(mu_a, s_a), Gaussian1D(mu_b, s_b)
        assert abs(tv_gaussian_1d(a, b, SUP) - ref) <= GAUSS_TV_ABS_TOL
        assert abs(tv_gaussian_1d(b, a, SUP) - ref) <= GAUSS_TV_ABS_TOL
        assert abs(tv_gaussian_1d(a, b, VAR) - 2 * ref) <= 2 * GAUSS_TV_ABS_TOL

    @pytest.mark.parametrize("mu_a,s_a,mu_b,s_b,ref", oracles.TV_GAUSS_EQUAL_VAR_REF)
    def test_equal_variances_within_relative_contract(self, mu_a, s_a, mu_b, s_b, ref):
        # the one crossing's mass straddles 0, so no O(1) masses cancel,
        # however close the means
        a, b = Gaussian1D(mu_a, s_a), Gaussian1D(mu_b, s_b)
        for got in (tv_gaussian_1d(a, b, SUP), tv_gaussian_1d(b, a, SUP)):
            assert abs(got - ref) <= 1e-15 * ref
        assert abs(tv_gaussian_1d(a, b, VAR) - 2 * ref) <= 2e-15 * ref

    def test_crossings_survive_a_tiny_variance(self):
        # the uncentred quadratic lost both roots of this pair to cancellation
        mu, s_a, s_b = oracles.CROSSING_PAIR
        a, b = Gaussian1D(mu, s_a), Gaussian1D(mu, s_b)
        lo, hi = density_crossings(a, b)
        w = oracles.CROSSING_PAIR_HALF_WIDTH
        assert hi - mu == pytest.approx(w, abs=2 * math.ulp(mu))
        assert mu - lo == pytest.approx(w, abs=2 * math.ulp(mu))
        assert density_crossings(b, a) == [lo, hi]

    def test_crossings_of_equal_variances_and_identical_pairs(self):
        assert density_crossings(Gaussian1D(1.0, 2.0), Gaussian1D(3.0, 2.0)) == [2.0]
        assert density_crossings(Gaussian1D(1.0, 2.0), Gaussian1D(1.0, 2.0)) == []

    @pytest.mark.parametrize(
        "mu_b,s_b",
        [
            (1e160, 1e-16),  # t * t overflowed to inf: the TV came out NaN
            (1e160, 1.0),  # (k * t) ** 2 raised OverflowError
            (1e308, 1e-300),  # k * t overflows as well
        ],
    )
    def test_far_apart_means_are_disjoint(self, mu_b, s_b):
        a, b = Gaussian1D(0.0, 1.0), Gaussian1D(mu_b, s_b)
        assert tv_gaussian_1d(a, b, SUP) == 1.0
        assert tv_gaussian_1d(b, a, VAR) == 2.0

    def test_disjoint_shortcut_continues_the_closed_form(self):
        # just inside the shortcut's separation the closed form already gives 1
        a, b = Gaussian1D(0.0, 1.0), Gaussian1D(39.999, 1e-6)
        assert tv_gaussian_1d(a, b, SUP) == 1.0

    def test_against_monte_carlo(self):
        got = tv_gaussian_1d(Gaussian1D(0, 0.25), Gaussian1D(0, 1), SUP)
        mc = oracles.tv_gaussian_sup_monte_carlo(0, 0.25, 0, 1, n=4_000_000, seed=11)
        assert abs(got - mc) <= 1e-3

    def test_variational_doubles_sup(self):
        a, b = Gaussian1D(0, 0.5), Gaussian1D(1, 2)
        assert tv_gaussian_1d(a, b, VAR) == pytest.approx(
            2 * tv_gaussian_1d(a, b, SUP), abs=1e-12
        )

    @pytest.mark.parametrize(
        "mu_a,s_a,mu_b,s_b",
        [
            (0.0, 1e-6, 0.0, 1.0),  # extreme variance ratio
            (0.0, 1e-8, 0.0, 1.0),
            (0.0, 1.0, 5000.0, 1.0),  # extreme separation
            (5.0, 1e-6, 0.0, 9.0),  # narrow bump far from a wide density
        ],
    )
    def test_extreme_scales_stay_accurate(self, mu_a, s_a, mu_b, s_b):
        got = tv_gaussian_1d(Gaussian1D(mu_a, s_a), Gaussian1D(mu_b, s_b), SUP)
        ref = oracles.tv_gaussian_sup_quadrature(mu_a, s_a, mu_b, s_b)
        assert got == pytest.approx(ref, abs=1e-9)

    @given(
        st.floats(-3, 3),
        st.floats(0.05, 5),
        st.floats(-3, 3),
        st.floats(0.05, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_and_oracle_agreement(self, mu_a, s_a, mu_b, s_b):
        got = tv_gaussian_1d(Gaussian1D(mu_a, s_a), Gaussian1D(mu_b, s_b), SUP)
        assert 0.0 <= got <= 1.0
        ref = oracles.tv_gaussian_sup_quadrature(mu_a, s_a, mu_b, s_b)
        assert got == pytest.approx(ref, abs=2e-9)


class TestDensityBounds:
    def test_identical(self):
        p = disc(0.5, 0.5)
        assert density_bounds_discrete(p, p) == DensityBounds(1.0, 1.0)

    def test_worked_example(self):
        got = density_bounds_discrete(disc(0.75, 0.25), disc(0.5, 0.5))
        assert got == DensityBounds(m=0.5, M=1.5)

    def test_zero_mass_gives_m_zero(self):
        got = density_bounds_discrete(disc(0, 1), disc(0.5, 0.5))
        assert got == DensityBounds(m=0.0, M=2.0)

    def test_absolute_continuity_enforced(self):
        with pytest.raises(AbsoluteContinuityError):
            density_bounds_discrete(disc(0.5, 0.5), disc(1, 0))

    def test_bounds_type_rejects_m_above_one(self):
        with pytest.raises(DomainError):
            DensityBounds(m=1.5, M=2.0)

    def test_sums_on_opposite_sides_of_one_give_bounds(self):
        # each vector passes the sum check, one above 1 and one below, so
        # m = M lies past 1 by about twice PROB_SUM_TOL
        hi, lo = 0.5000000000003, 0.4999999999997
        assert density_bounds_discrete(disc(hi, hi), disc(lo, lo)) == DensityBounds(
            m=hi / lo, M=hi / lo
        )
        assert density_bounds_discrete(disc(lo, lo), disc(hi, hi)) == DensityBounds(
            m=lo / hi, M=lo / hi
        )

    def test_bounds_type_slack_is_the_ratio_of_two_sum_edges(self):
        slack = (1.0 + PROB_SUM_TOL) / (1.0 - PROB_SUM_TOL) * (1.0 + 2.0**-52)
        assert DensityBounds(m=slack, M=slack).m == slack
        assert DensityBounds(m=1.0 / slack, M=1.0 / slack).M == 1.0 / slack
        with pytest.raises(DomainError, match="m <= 1 <= M"):
            DensityBounds(m=math.nextafter(slack, 2.0), M=2.0)
        with pytest.raises(DomainError, match="m <= 1 <= M"):
            DensityBounds(m=0.5, M=math.nextafter(1.0 / slack, 0.0))

    def test_an_overflowing_ratio_gives_an_infinite_supremum(self):
        got = density_bounds_discrete(disc(0.5, 0.5), disc(5e-324, 1.0))
        assert got == DensityBounds(m=0.5, M=math.inf)

    @pytest.mark.parametrize(
        "m, M", [(math.nan, 2.0), (math.inf, math.inf), (0.5, math.nan), (0.5, -math.inf)]
    )
    def test_bounds_type_rejects_all_but_an_infinite_supremum(self, m, M):
        with pytest.raises(DomainError):
            DensityBounds(m=m, M=M)

    @given(weights, weights)
    def test_straddles_one_and_brackets_ratios(self, wp, wq):
        k = min(len(wp), len(wq))
        p = normalize(wp[:k])
        q = normalize(wq[:k])
        db = density_bounds_discrete(p, q)
        assert db.m <= 1.0 + 1e-12 <= db.M + 2e-12
        ratios = p.probs / q.probs
        assert np.all(ratios >= db.m - 1e-12)
        assert np.all(ratios <= db.M + 1e-12)


class TestConvertTv:
    def test_definitional_scaling(self):
        assert convert_tv(0.5, SUP, VAR) == 1.0
        assert convert_tv(1.2, VAR, SUP) == 0.6
        assert convert_tv(0.0, SUP, SUP) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            convert_tv(1.5, SUP, VAR)
        with pytest.raises(DomainError):
            convert_tv(-0.1, VAR, SUP)

    def test_no_negative_value_passes(self):
        # no slack below 0: a public function never returns a negative TV
        with pytest.raises(DomainError, match=r"TV value -5e-13 outside \[0, 1.0\] for sup"):
            convert_tv(-5e-13, SUP, VAR)
        assert convert_tv(-0.0, SUP, VAR) == 0.0

    @given(st.floats(0, 1))
    def test_round_trip_exact(self, value):
        assert convert_tv(convert_tv(value, SUP, VAR), VAR, SUP) == value


class TestJsonParsing:
    def test_discrete(self):
        d = distribution_from_json('{"type":"discrete","probs":[0.25,0.75]}')
        assert isinstance(d, DiscreteDistribution)
        assert d.probs.tolist() == [0.25, 0.75]

    def test_gaussian1d(self):
        g = distribution_from_json('{"type":"gaussian1d","mu":1.5,"sigma2":0.5}')
        assert g == Gaussian1D(1.5, 0.5)

    def test_gaussiannd(self):
        g = distribution_from_json(
            '{"type":"gaussiannd","nu":[0,1],"sigma":[[2,0],[0,3]]}'
        )
        assert isinstance(g, GaussianND)
        assert g.dim == 2

    @pytest.mark.parametrize(
        "bad",
        [
            "not json",
            "[1,2]",
            '{"type":"unknown"}',
            '{"type":"gaussian1d","mu":0}',
            '{"type":"discrete","probs":"x"}',
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(DomainError):
            distribution_from_json(bad)

    @pytest.mark.parametrize(
        "literal, shown",
        [
            ('{"type":"gaussian1d","mu":0,"sigma2":"1"}', '"1"'),
            ('{"type":"gaussian1d","mu":false,"sigma2":1}', "false"),
            ('{"type":"gaussian1d","mu":0,"sigma2":true}', "true"),
            ('{"type":"discrete","probs":["0.5","0.5"]}', '"0.5"'),
            ('{"type":"discrete","probs":[true,false]}', "true"),
            ('{"type":"gaussiannd","nu":[0,"1"],"sigma":[[1,0],[0,1]]}', '"1"'),
            ('{"type":"gaussiannd","nu":[0,1],"sigma":[[1,false],[0,1]]}', "false"),
        ],
    )
    def test_only_json_numbers_are_numbers(self, literal, shown):
        kind = json.loads(literal)["type"]
        with pytest.raises(DomainError) as info:
            distribution_from_json(literal)
        assert type(info.value) is DomainError
        assert str(info.value) == f"malformed {kind!r} literal: {shown} is not a number"

    def test_invalid_distribution_surfaces(self):
        with pytest.raises(InvalidDistributionError):
            distribution_from_json('{"type":"discrete","probs":[0.5,0.6]}')


# --- the one-pass discrete kernels against their frozen multi-pass form ---


def _outcome(fn, *args):
    # a value as its exact bit pattern, or an error as its type and message
    try:
        value = fn(*args)
    except DivBoundsError as exc:
        return ("raised", type(exc), str(exc))
    if isinstance(value, DensityBounds):
        return ("bounds", value.m.hex(), value.M.hex())
    if isinstance(value, np.ndarray):
        return ("array", value.dtype, value.tobytes(), value.flags.writeable)
    return ("value", float(value).hex())


def _random_pair(rng):
    # supports 2..50 with zeros in p, zeros in both, or mass of p where q has
    # none; each vector normalized by its own sum
    k = int(rng.integers(2, 51))
    p = rng.exponential(size=k)
    q = rng.exponential(size=k)
    case = int(rng.integers(4))
    zeros = rng.random(k) < 0.3
    zeros[int(rng.integers(k))] = False
    if case == 1:
        p[zeros] = 0.0
    elif case == 2:
        p[zeros] = 0.0
        q[zeros] = 0.0
    elif case == 3:
        q[zeros] = 0.0
    return p / p.sum(), q / q.sum()


def test_discrete_kernels_match_their_multi_pass_reference():
    rng = np.random.default_rng(20)
    for _ in range(2400):
        pa, qa = _random_pair(rng)
        for arr in (pa, qa):
            assert _outcome(lambda a: DiscreteDistribution(a).probs, arr) == _outcome(
                oracles.discrete_probs_reference, arr
            )
        p, q = DiscreteDistribution(pa), DiscreteDistribution(qa)
        # math.log and np.log round differently; where the two kernels
        # differ, both must meet the stated contract
        kl, kl_ref = kl_discrete(p, q), oracles.kl_discrete_reference(pa, qa)
        assert kl == kl_ref or all(
            oracles.kl_discrete_within_contract(v, pa, qa) for v in (kl, kl_ref)
        )
        assert _outcome(lambda a, b: tv_discrete(a, b, VAR), p, q) == _outcome(
            oracles.tv_discrete_variational_reference, pa, qa
        )
        assert _outcome(density_bounds_discrete, p, q) == _outcome(
            oracles.density_bounds_discrete_reference, pa, qa
        )


@pytest.mark.parametrize("case", ["near_identical", "wide_support", "equal"])
def test_kl_meets_its_contract(case):
    # the numpy kernel and the math kernel, on pairs the random test rarely
    # draws: ratios 1 +- 1e-12, supports of 129..300 points, and KL = 0
    rng = np.random.default_rng(8)
    for _ in range(40):
        if case == "wide_support":
            p, q = rng.exponential(size=(2, int(rng.integers(129, 301))))
            q[rng.random(q.size) < 0.2] = 0.0
            p[q == 0] = 0.0
        else:
            p = rng.exponential(size=int(rng.integers(2, 51)))
            p[rng.random(p.size) < 0.2] = 0.0
            q = p if case == "equal" else p * (1 + 1e-12 * rng.uniform(-1, 1, p.size))
        pa, qa = p / p.sum(), q / q.sum()
        kl = kl_discrete(DiscreteDistribution(pa), DiscreteDistribution(qa))
        if case == "equal":
            assert kl == 0.0
        for value in (kl, oracles.kl_discrete_reference(pa, qa)):
            assert oracles.kl_discrete_within_contract(value, pa, qa)


def test_kl_takes_an_overflowing_ratio_from_two_logs():
    # 0.5 / 5e-324 overflows; the ratio's log is log 0.5 - log 5e-324
    p, q = disc(0.5, 0.5), disc(5e-324, 1.0)
    kl = kl_discrete(p, q)
    assert math.isfinite(kl)
    assert oracles.kl_discrete_within_contract(kl, [0.5, 0.5], [5e-324, 1.0])


@pytest.mark.parametrize(
    "probs, error, message",
    [
        ("0.5", InvalidDistributionError, "probs must be a nonempty 1-D vector"),
        (None, InvalidDistributionError, "probs must be a nonempty 1-D vector"),
        ({}, DomainError, "malformed 'discrete' literal: float() argument must be "
                          "a string or a real number, not 'dict'"),
        ([10**400, 0], DomainError,
         "malformed 'discrete' literal: int too large to convert to float"),
    ],
    ids=["string", "null", "object", "huge_int"],
)
def test_json_probs_errors(probs, error, message):
    with pytest.raises(error) as info:
        distribution_from_json({"type": "discrete", "probs": probs})
    assert type(info.value) is error and str(info.value) == message


def _generated_distribution_inputs():
    # lists, tuples and arrays of float, int and bool entries around the
    # lengths where numpy's summation changes its order, and other forms
    # numpy converts
    rng = np.random.default_rng(14)
    cases = {}
    for k in (7, 8, 128, 129, 300):
        probs = rng.exponential(size=k)
        probs /= probs.sum()
        # a sum off by 50 %, so its repr in the error shows the summation order
        for label, arr in (("valid", probs), ("sum_off", 1.5 * probs)):
            cases[f"{label}_{k}_list"] = arr.tolist()
            cases[f"{label}_{k}_tuple"] = tuple(arr.tolist())
            cases[f"{label}_{k}_array"] = arr
        onehot = np.zeros(k, dtype=int)
        onehot[k // 2] = 1
        cases[f"int_{k}_list"] = onehot.tolist()
        cases[f"int_{k}_array"] = onehot
        cases[f"bool_{k}_list"] = onehot.astype(bool).tolist()
        cases[f"bool_{k}_array"] = onehot.astype(bool)
    half = np.array([0.5, 0.5])
    cases.update(
        column=half.reshape(2, 1),
        row=half.reshape(1, 2),
        zero_d=np.array(1.0),
        nested=[[0.5], [0.5]],
        string="0.5",
        string_list=["0.5", "0.5"],
        subnormal=[5e-324, 1.0, 2.2e-308],
        int_sum_off=[1, 1],
        int_negative=np.array([2, -1]),
        bool_sum_off=[True, True],
        float64_scalars=[np.float64(0.25), np.float64(0.75)],
    )
    return cases


_DISTRIBUTION_INPUTS = {
    "nan": [0.5, math.nan],
    "inf": [math.inf, 0.5],
    "minus_inf": [0.5, -math.inf],
    "nan_and_negative": [math.nan, -1.0],
    "negative": [1.5, -0.5],
    "sum_overflows": [1e308, 1e308],
    "overflow_and_negative": [1e308, 1e308, -1.0],
    "negative_overflow": [-1e308, -1e308],
    "wrong_sum": [0.5, 0.6],
    "sum_off_by_1e-11": [0.5, 0.5 - 1e-11],
    "empty": [],
    "two_d": [[0.5, 0.5]],
    "scalar": 0.5,
    "negative_zero": [-0.0, 1.0],
    **_generated_distribution_inputs(),
}


@pytest.mark.parametrize("name", _DISTRIBUTION_INPUTS)
def test_distribution_checks_match_their_multi_pass_reference(name):
    probs = _DISTRIBUTION_INPUTS[name]
    with np.errstate(over="ignore"):
        got = _outcome(lambda a: DiscreteDistribution(a).probs, probs)
        assert got == _outcome(oracles.discrete_probs_reference, probs)
