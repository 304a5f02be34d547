import json

import numpy as np
import pytest

import oracles
from divbounds import (
    DomainError,
    PINNED_TV_CONVENTION,
    TvConvention,
    fuzz_sandwich,
    min_kl_at_tv,
    poly_lower_bound,
    resolve_tv_convention,
    vajda_lower_bound,
)
from divbounds import DiscreteDistribution, check_sandwich_same_dim, oracle, pinsker
from divbounds.oracle import OracleGridSpec, SandwichViolation, _simplex_grid
from divbounds.pinsker import SandwichReport


class TestOracleGridSpec:
    def test_defaults_tolerance_to_step(self):
        spec = OracleGridSpec(step=0.01, constraint_delta=0.5)
        assert spec.constraint_tol == 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"support_size": 4},
            {"step": 0.0},
            {"step": 0.7},
            {"step": 2.0},
            {"step": -0.1},
            {"step": float("nan")},
            {"step": 0.3},
            {"step": 0.01, "constraint_tol": 0.001},
            {"constraint_delta": 2.5},
            {"step": 1e-5},
            {"step": 1e-9},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            OracleGridSpec(**kwargs)

    def test_step_floor_is_accepted(self):
        assert OracleGridSpec(step=oracle.MIN_GRID_STEP).step == 1e-4


class TestMinKlAtTv:
    def test_zero_delta_is_zero(self):
        spec = OracleGridSpec(step=0.01, constraint_delta=0.0)
        assert min_kl_at_tv(spec) == 0.0

    def test_requires_constraint(self):
        with pytest.raises(DomainError):
            min_kl_at_tv(OracleGridSpec(step=0.01))

    def test_binary_brackets_lower_bound_coarse(self):
        # exact from below, near-attained from above; coarse grid keeps
        # this module test fast, the acceptance suite runs step 1e-3
        for delta in (0.2, 0.9, 1.3):
            spec = OracleGridSpec(step=0.01, constraint_delta=delta)
            gap = min_kl_at_tv(spec) - vajda_lower_bound(delta)
            assert -1e-9 <= gap <= 5e-2

    def test_binary_never_below_curve_on_attainable_grid(self):
        for delta in np.arange(0.1, 1.95, 0.1).round(3):
            spec = OracleGridSpec(step=0.05, constraint_delta=float(delta))
            assert min_kl_at_tv(spec) >= vajda_lower_bound(float(delta)) - 1e-9

    def test_ternary_spot_check(self):
        spec = OracleGridSpec(support_size=3, step=0.01, constraint_delta=0.5)
        gap = min_kl_at_tv(spec) - vajda_lower_bound(0.5)
        assert -1e-9 <= gap <= 5e-2

    def test_saturated_delta_returns_inf(self):
        # only disjoint pairs reach variational TV 2; their KL is infinite
        spec = OracleGridSpec(step=0.5, constraint_delta=2.0)
        assert min_kl_at_tv(spec) == np.inf

    @pytest.mark.parametrize(
        "support, step, deltas",
        [
            (2, 1e-3, (0.0, 0.2, 0.2005, 1.3, 1.999, 2.0)),
            (2, 0.05, tuple(np.linspace(0.0, 2.0, 81))),
            (2, 0.5, (0.0, 0.25, 0.5, 1.0, 1.75, 2.0)),
            (3, 0.02, (0.0, 0.5, 0.51, 1.7, 2.0)),
            (3, 0.05, (*np.linspace(0.0, 2.0, 21), 0.025, 0.525, 1.025, 1.975)),
        ],
    )
    def test_equals_frozen_all_pairs_formula(self, support, step, deltas):
        # lattice and half-lattice targets; on the grids small enough for
        # the all-pairs reference to be quick, tolerances of 3 and 10 steps
        # widen the band of lattice steps the scan forms, and 2.5 takes
        # every pair; the support-3, step-0.02 reference is frozen, as it
        # takes over a second to recompute
        grid = _simplex_grid(support, step)
        wide = (3 * step, 10 * step, 2.5) if grid.shape[0] <= 300 else ()
        for tol in (step, *wide):
            for delta in deltas:
                spec = OracleGridSpec(
                    support_size=support,
                    step=step,
                    constraint_delta=float(delta),
                    constraint_tol=tol,
                )
                if (support, step) == (3, 0.02):
                    want = oracles.MIN_KL_AT_TV_S3_STEP002[delta]
                else:
                    want = oracles.min_kl_at_tv_all_pairs(grid, float(delta), tol)
                if want is None:
                    with pytest.raises(DomainError):
                        min_kl_at_tv(spec)
                else:
                    assert min_kl_at_tv(spec) == want


class TestFuzzSandwich:
    def test_trial_count_validated(self):
        with pytest.raises(DomainError):
            fuzz_sandwich(0, max_support=4, seed=1)
        with pytest.raises(DomainError):
            fuzz_sandwich(10, max_support=1, seed=1)

    def test_no_violations_small_run(self):
        report = fuzz_sandwich(2000, max_support=6, seed=123)
        assert report.ok
        assert report.n_violations == 0
        assert report.n_trials == 2000

    def test_reproducible(self):
        a = fuzz_sandwich(500, max_support=5, seed=77)
        b = fuzz_sandwich(500, max_support=5, seed=77)
        assert a.violations == b.violations
        assert a.to_json_lines() == b.to_json_lines()

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_clean_across_seed_sweep(self, seed):
        assert fuzz_sandwich(1000, max_support=6, seed=seed).ok

    def test_trials_not_a_multiple_of_the_block(self, monkeypatch):
        sizes = []

        def recording(p, q):
            sizes.append(p.shape)
            return pinsker.check_sandwich_rows(p, q)

        monkeypatch.setattr(oracle, "_FUZZ_BLOCK", 64)
        monkeypatch.setattr(oracle, "check_sandwich_rows", recording)
        report = fuzz_sandwich(150, max_support=5, seed=3)
        assert sizes == [(64, 5), (64, 5), (22, 5)]
        assert report.n_trials == 150 and report.ok

    def test_forced_violations_keep_their_rows(self, monkeypatch):
        # a negative slack makes every chain fail, so every trial reports
        monkeypatch.setattr(pinsker, "REPORT_TOL", -1.0)
        report = fuzz_sandwich(40, max_support=6, seed=5)
        assert report.n_violations == 40 and not report.ok
        lines = report.to_json_lines().split("\n")
        assert len(lines) == 40
        for line, violation in zip(lines, report.violations):
            payload = json.loads(line)
            assert list(payload) == [
                "p", "q", "poly_lb", "vajda_lb", "divergence", "upper", "all_hold"
            ]
            assert payload["all_hold"] is False
            # the pair on its own support, not padded to max_support
            assert 2 <= len(payload["p"]) == len(payload["q"]) <= 6
            assert min(payload["p"]) > 0 and min(payload["q"]) > 0
            want = check_sandwich_same_dim(
                DiscreteDistribution(np.array(violation.p)),
                DiscreteDistribution(np.array(violation.q)),
            )
            assert payload["poly_lb"] == want.poly_lb
            assert payload["divergence"] == want.divergence
            assert payload["vajda_lb"] == pytest.approx(want.vajda_lb, rel=1e-14)
        # with every trial reported, the margins are the minima over them
        reports = [v.report for v in report.violations]
        for margin, link in (
            (report.vajda_minus_poly, lambda r: r.vajda_lb - r.poly_lb),
            (report.kl_minus_vajda, lambda r: r.divergence - r.vajda_lb),
            (report.upper_minus_kl, lambda r: r.upper - r.divergence),
        ):
            values = [link(r) for r in reports]
            at = values.index(min(values))
            assert margin.value == values[at]
            assert (margin.p, margin.q) == (
                report.violations[at].p,
                report.violations[at].q,
            )

    def test_margins_are_small_and_reproducible(self):
        report = fuzz_sandwich(3000, max_support=6, seed=9)
        for margin in (
            report.vajda_minus_poly,
            report.kl_minus_vajda,
            report.upper_minus_kl,
        ):
            assert margin.value >= -pinsker.REPORT_TOL
            assert 2 <= len(margin.p) == len(margin.q) <= 6
        # two-point pairs attain U, so the upper link is tight to rounding
        assert abs(report.upper_minus_kl.value) < 1e-12
        want = check_sandwich_same_dim(
            DiscreteDistribution(np.array(report.kl_minus_vajda.p)),
            DiscreteDistribution(np.array(report.kl_minus_vajda.q)),
        )
        assert report.kl_minus_vajda.value == pytest.approx(
            want.divergence - want.vajda_lb, abs=1e-12
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_curve_margin_over_polynomial_is_rounding(self, seed):
        # the smallest vajda - poly of a verify-sized fuzz run meets the
        # allowance of acceptance criterion 2, relative to the polynomial
        report = fuzz_sandwich(10_000, max_support=oracle.VERIFY_MAX_SUPPORT, seed=seed)
        margin = report.vajda_minus_poly
        delta = float(np.abs(np.subtract(margin.p, margin.q)).sum())
        assert margin.value >= -2e-15 * poly_lower_bound(delta)

    def test_violation_serialization_shape(self):
        from divbounds.serialize import dumps

        report = SandwichReport(
            poly_lb=0.2, vajda_lb=0.3, divergence=0.1, upper=0.4, all_hold=False
        )
        violation = SandwichViolation(p=(0.5, 0.5), q=(0.9, 0.1), report=report)
        payload = json.loads(dumps(violation.as_dict()))
        assert payload["p"] == [0.5, 0.5]
        assert payload["q"] == [0.9, 0.1]
        assert payload["all_hold"] is False
        assert payload["divergence"] == 0.1


class TestResolveTvConvention:
    def test_returns_sup(self):
        assert resolve_tv_convention() is TvConvention.SUP

    def test_deterministic(self):
        assert resolve_tv_convention() is resolve_tv_convention()

    def test_matches_pinned_constant(self):
        assert resolve_tv_convention() is PINNED_TV_CONVENTION

    def test_coarser_grid_agrees(self):
        assert resolve_tv_convention(step=0.01) is TvConvention.SUP

    @pytest.mark.parametrize("step", [0.0, 2.0, float("nan"), 0.3])
    def test_rejects_the_steps_the_grid_spec_rejects(self, step):
        with pytest.raises(DomainError):
            resolve_tv_convention(step=step)


class TestRunVerify:
    def test_rows_judge_the_gap_against_floor_and_tolerance(self):
        rows = oracle.verify_tightness(step=0.01, gap_tol=oracle.VERIFY_GAP_TOL)
        assert [row["delta"] for row in rows] == list(oracle.VERIFY_DELTAS)
        for row in rows:
            spec = OracleGridSpec(step=0.01, constraint_delta=row["delta"])
            assert row["oracle_min"] == min_kl_at_tv(spec)
            assert row["vajda_lb"] == vajda_lower_bound(row["delta"])
            assert row["gap"] == row["oracle_min"] - row["vajda_lb"]
            assert row["ok"] is (
                oracle.VERIFY_GAP_FLOOR <= row["gap"] <= oracle.VERIFY_GAP_TOL
            )
        smallest = min(row["gap"] for row in rows)
        tight = oracle.verify_tightness(step=0.01, gap_tol=smallest)
        assert [row["ok"] for row in tight] == [row["gap"] == smallest for row in rows]

    def test_report_is_the_verify_summary(self):
        summary, fuzz = oracle.run_verify(300, 1, 0.01, oracle.VERIFY_GAP_TOL)
        assert list(summary) == [
            "convention",
            "convention_matches_pinned",
            "fuzz",
            "tightness",
            "all_ok",
        ]
        assert summary["fuzz"] == {
            "trials": 300, "max_support": 6, "seed": 1, "violations": 0
        }
        assert summary["all_ok"] is True
        assert fuzz.ok and fuzz.n_trials == 300
        failing, _ = oracle.run_verify(50, seed=1, step=0.01, gap_tol=1e-12)
        assert failing["all_ok"] is False

    @pytest.fixture
    def failing_stages(self, monkeypatch):
        def stage(*args, **kwargs):
            raise AssertionError("a stage ran")

        for name in ("resolve_tv_convention", "fuzz_sandwich", "verify_tightness"):
            monkeypatch.setattr(oracle, name, stage)

    def test_checks_the_step_before_any_stage(self, failing_stages):
        with pytest.raises(DomainError, match="does not divide 1"):
            oracle.run_verify(50, seed=1, step=0.3, gap_tol=oracle.VERIFY_GAP_TOL)
        # below the floor the scans would exhaust memory
        with pytest.raises(DomainError, match="step must lie in"):
            oracle.run_verify(50, seed=1, step=1e-9, gap_tol=oracle.VERIFY_GAP_TOL)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_checks_the_trials_before_any_stage(self, failing_stages, trials):
        with pytest.raises(DomainError, match="trials must be >= 1"):
            oracle.run_verify(trials, seed=1, step=1e-3, gap_tol=oracle.VERIFY_GAP_TOL)
