import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    tv_discrete,
    tv_gaussian_1d,
)
from divbounds.measures import GAUSS_TV_ABS_TOL, density_crossings

SUP = TvConvention.SUP
VAR = TvConvention.VARIATIONAL


def disc(*probs):
    return DiscreteDistribution(np.array(probs, dtype=float))


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
        with pytest.raises(DomainError):
            density_crossings(a, b)

    def test_disjoint_shortcut_continues_the_closed_form(self):
        # just inside the shortcut's separation the closed form already gives 1
        a, b = Gaussian1D(0.0, 1.0), Gaussian1D(39.999, 1e-6)
        assert tv_gaussian_1d(a, b, SUP) == 1.0
        assert density_crossings(a, Gaussian1D(1e140, 1.0)) == [5e139]

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

    def test_round_trip_via_to_json_dict(self):
        g = Gaussian1D(0.1, 2.0)
        assert distribution_from_json(g.to_json_dict()) == g

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
        assert _outcome(kl_discrete, p, q) == _outcome(oracles.kl_discrete_reference, pa, qa)
        assert _outcome(lambda a, b: tv_discrete(a, b, VAR), p, q) == _outcome(
            oracles.tv_discrete_variational_reference, pa, qa
        )
        assert _outcome(density_bounds_discrete, p, q) == _outcome(
            oracles.density_bounds_discrete_reference, pa, qa
        )


@pytest.mark.parametrize(
    "probs",
    [
        [0.5, math.nan],
        [math.inf, 0.5],
        [0.5, -math.inf],
        [math.nan, -1.0],
        [1.5, -0.5],
        [1e308, 1e308],
        [1e308, 1e308, -1.0],
        [-1e308, -1e308],
        [0.5, 0.6],
        [0.5, 0.5 - 1e-11],
        [],
        [[0.5, 0.5]],
        0.5,
        [-0.0, 1.0],
    ],
    ids=["nan", "inf", "minus_inf", "nan_and_negative", "negative", "sum_overflows",
         "overflow_and_negative", "negative_overflow", "wrong_sum", "sum_off_by_1e-11",
         "empty", "two_d", "scalar", "negative_zero"],
)
def test_distribution_checks_match_their_multi_pass_reference(probs):
    with np.errstate(over="ignore"):
        got = _outcome(lambda a: DiscreteDistribution(a).probs, probs)
        assert got == _outcome(oracles.discrete_probs_reference, probs)
