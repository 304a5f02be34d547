import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from divbounds import (
    DomainError,
    T_MAX,
    TvConvention,
    curve_at_parameter,
    curve_point_for_delta,
    curve_to_csv,
    curve_to_json,
    emit_curve,
    invert_poly_bound,
    poly_lower_bound,
    reid_lower_bound,
    vajda_lower_bound,
)
from divbounds.vajda import (
    _EXACT_PATH_DELTA,
    _delta_at_array,
    delta_max,
    vajda_lower_bound_array,
)

SUP = TvConvention.SUP
VAR = TvConvention.VARIATIONAL


def naive_delta(t: float) -> float:
    c = math.cosh(t) / math.sinh(t) - 1.0 / t
    return t * (1.0 - c * c)


def naive_l(t: float) -> float:
    return (
        math.log(t / math.sinh(t))
        + t * math.cosh(t) / math.sinh(t)
        - t * t / math.sinh(t) ** 2
    )


class TestCurveAtParameter:
    def test_small_t_limit(self):
        p = curve_at_parameter(1e-8)
        assert p.delta == pytest.approx(0.0, abs=1e-7)
        assert p.l_value == pytest.approx(0.0, abs=1e-15)

    def test_t_one_pinned(self):
        p = curve_at_parameter(1.0)
        assert p.delta == pytest.approx(oracles.DELTA_AT_T1, abs=1e-14)
        assert p.l_value == pytest.approx(oracles.L_AT_T1, abs=1e-14)

    def test_t_twenty_asymptotics(self):
        p = curve_at_parameter(20.0)
        assert abs(p.delta - 1.95) <= 1e-6

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, T_MAX + 1])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            curve_at_parameter(bad)

    @pytest.mark.parametrize("t", [1e-6, 5e-5, 1e-4, 1e-3, 0.01, 0.5, 1, 5, 20, 100])
    def test_invariants_against_direct_formulas(self, t):
        p = curve_at_parameter(t)
        assert p.delta == pytest.approx(naive_delta(t), abs=1e-12)
        assert p.l_value == pytest.approx(naive_l(t), abs=1e-12)

    def test_series_branch_is_continuous(self):
        below = curve_at_parameter(1e-4 * (1 - 1e-9))
        above = curve_at_parameter(1e-4 * (1 + 1e-9))
        assert below.delta == pytest.approx(above.delta, rel=1e-8)
        assert below.l_value == pytest.approx(above.l_value, rel=1e-6)

    def test_delta_strictly_increasing(self):
        # curve inversion by bisection relies on it; both the scalar and the
        # batched kernel are checked, as both are bisected
        ts = np.geomspace(1e-6, T_MAX, 10_000)
        assert np.all(np.diff(_delta_at_array(ts)) > 0)
        assert np.all(np.diff([curve_at_parameter(t).delta for t in ts.tolist()]) > 0)


class TestVajdaLowerBound:
    def test_zero(self):
        assert vajda_lower_bound(0.0) == 0.0

    def test_inverse_of_t_one(self):
        assert vajda_lower_bound(oracles.DELTA_AT_T1) == pytest.approx(
            oracles.L_AT_T1, abs=1e-11
        )

    def test_regression_constant_at_one(self):
        got = vajda_lower_bound(1.0)
        assert got == pytest.approx(oracles.VAJDA_AT_DELTA1, abs=5e-12)
        assert got > poly_lower_bound(1.0)

    def test_convention_conversion(self):
        assert vajda_lower_bound(0.5, SUP) == vajda_lower_bound(1.0, VAR)

    @pytest.mark.parametrize("bad", [-0.1, 2.0, 2.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            vajda_lower_bound(bad)

    def test_near_saturation_rejected_with_diagnostic(self):
        with pytest.raises(DomainError, match="asymptot"):
            vajda_lower_bound(1.9999999)

    def test_pinsker_minorant(self):
        for d in np.linspace(0.01, 1.9, 50):
            assert vajda_lower_bound(float(d)) >= d * d / 2

    @given(st.floats(0.01, 20.0))
    @settings(max_examples=60)
    def test_round_trip_recovers_parameter(self, t):
        p = curve_at_parameter(t)
        back = curve_point_for_delta(p.delta)
        assert back.t == pytest.approx(t, rel=1e-8)


class TestVajdaLowerBoundArray:
    def test_matches_scalar_on_log_grid(self):
        deltas = np.concatenate(
            [[0.0], np.geomspace(1e-6, delta_max(), 3000), [1e-300, 1e-60]]
        )
        batched = vajda_lower_bound_array(deltas)
        scalar = np.array([vajda_lower_bound(float(d)) for d in deltas])
        rel = np.abs(batched - scalar) / np.where(scalar > 0, scalar, 1.0)
        assert rel.max() <= 1e-10
        # where L(t) is not smooth at the ulp scale the paths coincide
        small = deltas < _EXACT_PATH_DELTA
        assert np.array_equal(batched[small], scalar[small])

    @pytest.mark.parametrize(
        "deltas", [[-1e-3], [1.9999999], [float("nan")], [[0.5, 0.6]]]
    )
    def test_rejects_out_of_domain(self, deltas):
        with pytest.raises(DomainError):
            vajda_lower_bound_array(np.array(deltas))


class TestReidLowerBound:
    def test_zero(self):
        res = reid_lower_bound(0.0)
        assert res.value == 0.0
        assert -2.0 <= res.gamma_star <= 2.0

    def test_agrees_with_parametric_at_pinned_point(self):
        res = reid_lower_bound(oracles.DELTA_AT_T1)
        assert res.value == pytest.approx(oracles.L_AT_T1, abs=1e-10)
        assert abs(res.value - vajda_lower_bound(oracles.DELTA_AT_T1)) <= 1e-6

    def test_dominates_polynomial(self):
        assert reid_lower_bound(1.5).value >= poly_lower_bound(1.5)

    def test_minimizer_inside_interval(self):
        for d in (0.1, 0.9, 1.7):
            res = reid_lower_bound(d)
            assert d - 2 <= res.gamma_star <= 2 - d
            assert res.value >= 0

    def test_domain(self):
        with pytest.raises(DomainError):
            reid_lower_bound(2.0)


class TestPolyLowerBound:
    def test_zero(self):
        assert poly_lower_bound(0.0) == 0.0

    def test_exact_rational_at_one(self):
        expected = oracles.poly_bound_fraction(Fraction(1))
        assert expected == Fraction(181031, 340200)
        assert poly_lower_bound(1.0) == pytest.approx(float(expected), abs=1e-16)

    def test_exact_rational_at_two(self):
        expected = oracles.poly_bound_fraction(Fraction(2))
        assert expected == Fraction(121102, 42525)
        assert poly_lower_bound(2.0) == pytest.approx(float(expected), abs=1e-14)

    @given(st.integers(0, 2000))
    @settings(max_examples=50)
    def test_matches_rational_oracle_on_grid(self, k):
        d = Fraction(k, 1000)
        assert poly_lower_bound(float(d)) == pytest.approx(
            float(oracles.poly_bound_fraction(d)), rel=1e-14, abs=1e-300
        )

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            poly_lower_bound(-0.5)


class TestInvertPolyBound:
    def test_zero(self):
        assert invert_poly_bound(0.0) == 0.0

    def test_value_at_poly_of_one(self):
        assert invert_poly_bound(0.5321310993533216) == pytest.approx(1.0, abs=1e-8)

    def test_gaussian_akl_workflow_value(self):
        xi = oracles.KL_GAUSS_QUARTER_VS_UNIT
        delta_star = invert_poly_bound(xi)
        assert poly_lower_bound(delta_star) == pytest.approx(xi, abs=1e-10)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            invert_poly_bound(-1e-9)

    @given(st.floats(0.0, 2.0))
    @settings(max_examples=100)
    def test_left_inverse_of_poly(self, d):
        assert invert_poly_bound(poly_lower_bound(d)) == pytest.approx(d, abs=1e-8)


class TestEmitCurve:
    @pytest.mark.parametrize(
        "args", [(1.0, 1.0, 2), (0.0, 1.0, 10), (1.0, 0.5, 10), (0.1, 1.0, 1), (1.0, 600.0, 10)]
    )
    def test_invalid_grids_rejected(self, args):
        with pytest.raises(DomainError):
            emit_curve(*args)

    def test_hundred_points(self):
        points = emit_curve(0.01, 20, 100)
        assert len(points) == 100
        assert points[0].delta < 0.02
        assert points[-1].delta > 1.9

    def test_deltas_strictly_increasing(self):
        points = emit_curve(0.05, 50, 64)
        deltas = [p.delta for p in points]
        assert deltas == sorted(deltas)
        assert len(set(deltas)) == len(deltas)

    def test_csv_round_trips_17_digits(self):
        points = emit_curve(0.5, 2.0, 4)
        text = curve_to_csv(points)
        lines = text.strip().split("\n")
        assert lines[0] == "t,delta,l_value"
        parsed = [tuple(float(x) for x in row.split(",")) for row in lines[1:]]
        for p, (t, d, l) in zip(points, parsed):
            assert (t, d, l) == (p.t, p.delta, p.l_value)

    def test_json_round_trips(self):
        points = emit_curve(0.5, 2.0, 4)
        rows = json.loads(curve_to_json(points))
        assert rows == [[p.t, p.delta, p.l_value] for p in points]
