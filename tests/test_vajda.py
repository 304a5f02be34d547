import json
import math
import sys
import warnings
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
from divbounds import vajda
from divbounds.vajda import (
    _FAR_T,
    _L_SERIES,
    _L_SERIES_T,
    _SMALL_T,
    POLY_COEFFS,
    _delta_at,
    _delta_at_array,
    _l_at,
    _log_grid,
    _slope,
    _slope_series,
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

    @pytest.mark.parametrize("switch", [_SMALL_T, _FAR_T])
    def test_delta_forms_meet_at_switches(self, switch):
        # one double apart, the two forms differ by their rounding only
        ts = [math.nextafter(switch, 0.0), math.nextafter(switch, 2.0)]
        for below, above in ([_delta_at(t) for t in ts], _delta_at_array(np.array(ts))):
            assert above == pytest.approx(below, rel=5e-15)

    def test_slope_against_mpmath(self):
        # delta'(t) = 1 - c^2 - 2 t c (1/t^2 - 1/sinh^2 t) at 40 digits; the
        # closed form cancels as t grows, hence 4e-11 above t = 1
        import mpmath

        ts = np.geomspace(1e-12, T_MAX, 400)
        with mpmath.workdps(40):
            refs = []
            for t in map(mpmath.mpf, ts):
                c = mpmath.coth(t) - 1 / t
                slope = 1 - c * c - 2 * t * c * (1 / t**2 - mpmath.csch(t) ** 2)
                refs.append(float(slope))
        refs = np.array(refs)
        closed = _slope(ts.clip(_SMALL_T), np)
        batched = np.where(ts < _SMALL_T, _slope_series(ts), closed)
        scalar = [_slope_series(t) if t < _SMALL_T else _slope(t, math) for t in ts]
        for got in (batched, np.array(scalar)):
            rel = np.abs(got - refs) / refs
            assert rel[ts <= 1.0].max() <= 1e-15 and rel.max() <= 4e-11

    def test_l_forms_meet_at_switch(self):
        below, above = (_l_at(math.nextafter(_L_SERIES_T, x)) for x in (0.0, 1.0))
        assert above == pytest.approx(below, rel=5e-15)

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
        # down to 1e-40, the floor of the scalar driver's contract
        deltas = np.concatenate([[0.0], np.geomspace(1e-40, delta_max(), 3000)])
        batched = vajda_lower_bound_array(deltas)
        scalar = np.array([vajda_lower_bound(float(d)) for d in deltas])
        rel = np.abs(batched - scalar) / np.where(scalar > 0, scalar, 1.0)
        assert rel.max() <= 1e-14

    def test_tiny_deltas_are_half_delta_squared(self):
        # L = delta^2/2 (1 + delta^2/18 + ...); the scalar driver floors below
        # ~1e-57, the batched one must not. Subnormal references are held to
        # the smallest normal double, absolute.
        deltas = [5e-324, 1e-300, 1e-200, 1.5e-154, 1e-150, 1e-100, 1e-60, 1e-57, 1e-45]
        got = vajda_lower_bound_array(np.array(deltas))
        for d, value in zip(deltas, got):
            ref = float(Fraction(d) ** 2 / 2)
            tol = 1e-15 * ref if ref >= sys.float_info.min else sys.float_info.min
            assert abs(value - ref) <= tol, d

    def test_whole_domain_in_six_passes_without_warnings(self, monkeypatch):
        # the driver runs a fixed number of passes; one more must move no L
        # beyond the 1e-14 relative contract
        deltas = np.concatenate([
            [0.0],
            np.geomspace(5e-324, delta_max(), 20000),
            np.linspace(0.0, delta_max(), 20000),
        ])
        assert vajda._NEWTON_PASSES == 6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = vajda_lower_bound_array(deltas)
            monkeypatch.setattr(vajda, "_NEWTON_PASSES", 7)
            seventh = vajda_lower_bound_array(deltas)
        assert np.all(np.abs(seventh - got) <= 1e-14 * seventh)
        order = np.argsort(deltas, kind="stable")
        assert np.all(np.isfinite(got)) and np.all(np.diff(got[order]) >= 0)

    @pytest.mark.parametrize(
        "deltas", [[-1e-3], [1.9999999], [float("nan")], [[0.5, 0.6]]]
    )
    def test_rejects_out_of_domain(self, deltas):
        with pytest.raises(DomainError):
            vajda_lower_bound_array(np.array(deltas))


def curve_rel_tol(d):
    # the curve's accuracy contract: 1e-14 relative for delta in [1e-40, 1.9];
    # near saturation L grows as -log(2 - delta), and one ulp of delta(t)
    # moves it by up to ~150 ulps, hence 5e-14 above 1.9
    return np.where(d <= 1.9, 1e-14, 5e-14)


class TestCurveAccuracy:
    def test_reference_grid_reaches_delta_max(self):
        assert oracles.VAJDA_REF[-1][0] == delta_max() == 1.998

    @pytest.mark.parametrize("d, ref", oracles.VAJDA_REF)
    def test_scalar_against_mpmath(self, d, ref):
        assert abs(vajda_lower_bound(d) - ref) <= curve_rel_tol(d) * ref

    def test_batched_against_mpmath(self):
        deltas, refs = (np.array(col) for col in zip(*oracles.VAJDA_REF))
        got = vajda_lower_bound_array(deltas)
        assert np.all(np.abs(got - refs) <= curve_rel_tol(deltas) * refs)

    def test_never_below_polynomial(self):
        # the polynomial is the curve's expansion to delta^8; the curve keeps
        # it below itself up to the rounding of the two evaluations
        deltas = np.geomspace(1e-40, delta_max(), 2000)
        poly = np.array([poly_lower_bound(float(d)) for d in deltas])
        scalar = np.array([vajda_lower_bound(float(d)) for d in deltas])
        assert np.all(scalar - poly >= -2e-15 * poly)
        assert np.all(vajda_lower_bound_array(deltas) - poly >= -2e-15 * poly)


class TestCurveSeries:
    def test_l_series_coefficients_are_nearest_doubles(self):
        _, l_t = oracles.curve_series_in_t(2 * len(_L_SERIES) + 2)
        assert l_t[0] == 0 and not any(l_t[1::2])
        assert _L_SERIES == tuple(float(c) for c in l_t[2::2])

    def test_poly_coefficients_are_the_curve_in_delta(self):
        # Fedotov-Harremoes-Topsoe: L(delta) = delta^2/2 + delta^4/36 +
        # delta^6/270 + 221 delta^8/340200 + 299 delta^10/2296350 + ...
        l_d = oracles.curve_l_series_in_delta(12)
        assert not any(l_d[1::2]) and l_d[0] == 0
        assert tuple(l_d[2:10:2]) == oracles.POLY_COEFF_FRACTIONS
        assert POLY_COEFFS == tuple(float(c) for c in oracles.POLY_COEFF_FRACTIONS)
        assert l_d[10] == Fraction(299, 2296350)


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

    def test_within_contract_of_the_curve(self):
        deltas = np.concatenate([[0.0], np.geomspace(1e-12, 1.9, 100), np.linspace(0.0, 1.9, 100)])
        for d in map(float, deltas):
            assert abs(reid_lower_bound(d).value - vajda_lower_bound(d)) <= 1e-6, d

    @pytest.mark.parametrize("d", [0.1, 0.5, 1.0, 1.5, 1.9])
    def test_minimizer_is_the_closed_form(self, d):
        # gamma* = 2 (coth t - 1/t) - delta(t) at the curve's own parameter
        point = curve_point_for_delta(d)
        t = point.t
        closed = 2.0 * (1.0 / math.tanh(t) - 1.0 / t) - point.delta
        assert abs(reid_lower_bound(d).gamma_star - closed) <= 1e-6


class TestScalarSolverBits:
    def test_outputs_equal_the_frozen_bits(self):
        assert delta_max() == float.fromhex(oracles.DELTA_MAX_HEX)
        for d, gamma_hex, value_hex, curve_hex in oracles.SCALAR_SOLVER_HEX:
            res = reid_lower_bound(d)
            assert (res.gamma_star.hex(), res.value.hex()) == (gamma_hex, value_hex), d
            if curve_hex is None:
                assert d > delta_max()
            else:
                assert vajda_lower_bound(d).hex() == curve_hex, d


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

    def test_relative_residual_over_the_double_range(self):
        # |poly(delta*) - xi| <= 8 ulps of xi with poly evaluated exactly,
        # from the smallest subnormal up to the largest double; 1e-40 is
        # far below any absolute tolerance
        for xi in [*np.geomspace(5e-324, 1e300, 1500), 1e-40, sys.float_info.max]:
            delta_star = invert_poly_bound(float(xi))
            assert math.isfinite(delta_star), xi
            residual = oracles.poly_bound_fraction(Fraction(delta_star)) - Fraction(float(xi))
            assert abs(residual) <= Fraction(8, 2**52) * Fraction(float(xi)), xi

    @given(st.floats(0.0, 2.0))
    @settings(max_examples=100)
    def test_left_inverse_of_poly(self, d):
        assert invert_poly_bound(poly_lower_bound(d)) == pytest.approx(d, abs=1e-8)


class TestEmitCurve:
    @pytest.mark.parametrize(
        "args",
        [
            (1.0, 1.0, 2),
            (0.0, 1.0, 10),
            (1.0, 0.5, 10),
            (0.1, 1.0, 1),
            (1.0, 600.0, 10),
            (0.1, 1.0, 5.0),  # a float count, not range's TypeError
        ],
    )
    def test_invalid_grids_rejected(self, args):
        with pytest.raises(DomainError):
            emit_curve(*args)

    @pytest.mark.parametrize(
        "args", [(1.0, 1.0000000000000009, 5), (300.0, 300.00000000001, 50)]
    )
    def test_grid_finer_than_delta_resolves_rejected(self, args):
        # neighbouring t give equal deltas, so the curve cannot increase
        with pytest.raises(DomainError, match="not strictly increasing"):
            emit_curve(*args)

    def test_a_grid_too_fine_stops_at_its_first_repeat(self, monkeypatch):
        # t = 1 and the next grid point round to the same double; each
        # point is checked as the grid is built, so the other 99 998 are
        # neither evaluated nor made
        calls = []
        at = vajda.curve_at_parameter
        monkeypatch.setattr(vajda, "curve_at_parameter", lambda t: calls.append(t) or at(t))
        with pytest.raises(DomainError, match="not strictly increasing at t = 1$"):
            emit_curve(1.0, 1.0 + 1e-12, 10**5)
        assert calls == [1.0, 1.0]

    def test_log_grid_is_geomspace(self):
        # endpoints exact; the interior within an ulp of np.geomspace when
        # math.log10 and numpy's log10 agree at both ends (numpy's power
        # rounds differently from libm pow). Where they differ by an ulp,
        # t moves by up to ln(10) |log10 t| 2^-52 relative, several ulps;
        # both grids stay within 4e-15 relative of the exact sequence.
        rng = np.random.default_rng(7)
        agreeing = 0
        for _ in range(5000):
            a, b = np.sort(10.0 ** rng.uniform(-8.0, math.log10(T_MAX), size=2))
            n = int(rng.integers(2, 60))
            grid = np.array(list(_log_grid(float(a), float(b), n)))
            ref = np.geomspace(a, b, n)
            assert grid[0] == a and grid[-1] == b
            assert np.all(np.abs(grid - ref) <= 1e-14 * ref)
            if all(math.log10(x) == np.log10(x) for x in (a, b)):
                agreeing += 1
                assert np.all(np.abs(grid - ref) <= np.spacing(ref))
        assert agreeing > 4000

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

    def test_csv_round_trips(self):
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

    def test_output_bytes_pinned(self):
        # each number is its shortest repr: 0.7442043435757817 has 16
        # digits, and t = 4 prints as 4.0
        points = emit_curve(0.5, 4.0, 3)
        assert curve_to_csv(points) == (
            "t,delta,l_value\n"
            "0.5,0.48655963906172106,0.11997825804861599\n"
            "1.414213562373095,1.1664887906724837,0.7442043435757817\n"
            "4.0,1.7459712958184583,2.0609776422550166\n"
        )
        assert curve_to_json(points) == (
            "[[0.5,0.48655963906172106,0.11997825804861599],"
            "[1.414213562373095,1.1664887906724837,0.7442043435757817],"
            "[4.0,1.7459712958184583,2.0609776422550166]]"
        )
