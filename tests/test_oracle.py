import json

import numpy as np
import pytest

import oracles
from divbounds import (
    DomainError,
    PINNED_TV_CONVENTION,
    TvConvention,
    binary_min_kl,
    density_bounds_discrete,
    fuzz_sandwich,
    kl_discrete,
    poly_lower_bound,
    resolve_tv_convention,
    tv_discrete,
    vajda_lower_bound,
)
from divbounds import DiscreteDistribution, check_sandwich_same_dim, oracle, pinsker
from divbounds.oracle import SandwichViolation, check_grid_step
from divbounds.pinsker import SandwichReport


class TestCheckGridStep:
    @pytest.mark.parametrize("step", [0.0, 0.7, 2.0, -0.1, float("nan"), 0.3, 1e-5, 1e-9])
    def test_validation(self, step):
        with pytest.raises(DomainError, match="^step"):
            check_grid_step(step)
        with pytest.raises(DomainError, match="^step"):
            binary_min_kl(0.5, step)

    def test_step_floor_is_accepted(self):
        check_grid_step(oracle.MIN_GRID_STEP)
        assert binary_min_kl(0.5, oracle.MIN_GRID_STEP) >= vajda_lower_bound(0.5) - 1e-9


class TestMinKlAtTv:
    def test_zero_delta_is_zero(self):
        assert binary_min_kl(0.0, 0.01) == 0.0

    @pytest.mark.parametrize("delta", [-0.1, 2.5, float("nan")])
    def test_delta_outside_the_range_is_rejected(self, delta):
        with pytest.raises(DomainError, match="delta must lie in"):
            binary_min_kl(delta, 0.5)

    def test_binary_brackets_lower_bound_coarse(self):
        # exact from below, near-attained from above; coarse grid keeps
        # this module test fast, the acceptance suite runs step 1e-3
        for delta in (0.2, 0.9, 1.3):
            gap = binary_min_kl(delta, 0.01) - vajda_lower_bound(delta)
            assert -1e-9 <= gap <= 5e-2

    def test_binary_never_below_curve_on_attainable_grid(self):
        for delta in np.arange(0.1, 1.95, 0.1).round(3):
            assert binary_min_kl(float(delta), 0.05) >= vajda_lower_bound(float(delta)) - 1e-9

    def test_ternary_table_never_below_curve(self):
        # a third support point never gets below the curve: the frozen
        # support-3 grid minima, whose pairs have TV >= delta - step, lie
        # above the curve at delta - step
        for delta, minimum in oracles.MIN_KL_AT_TV_S3_STEP002.items():
            assert minimum >= vajda_lower_bound(max(0.0, delta - 0.02)) - 1e-9

    def test_saturated_delta_returns_inf(self):
        # only disjoint pairs reach variational TV 2; their KL is infinite
        assert binary_min_kl(2.0, 0.5) == np.inf

    @pytest.mark.parametrize(
        "step, deltas",
        [
            (1e-3, (0.0, 0.2, 0.2005, 1.3, 1.999, 2.0)),
            (0.05, tuple(np.linspace(0.0, 2.0, 81))),
            (0.5, (0.0, 0.25, 0.5, 1.0, 1.75, 2.0)),
        ],
    )
    def test_equals_frozen_all_pairs_formula(self, step, deltas):
        # lattice and half-lattice targets
        self._check_all_pairs(step, deltas)

    @pytest.mark.parametrize("step", [0.05, 0.01])
    def test_off_lattice_sweep_equals_all_pairs(self, step):
        self._check_all_pairs(step, np.linspace(0.0, 2.0, 409))

    @staticmethod
    def _check_all_pairs(step, deltas):
        grid = oracles.binary_grid(step)
        for delta in deltas:
            want = oracles.min_kl_at_tv_all_pairs(grid, float(delta), step)
            if want is None:
                with pytest.raises(DomainError, match="no grid pair"):
                    binary_min_kl(float(delta), step)
            else:
                assert binary_min_kl(float(delta), step) == want


class TestFuzzSandwich:
    def test_trial_count_validated(self):
        with pytest.raises(DomainError):
            fuzz_sandwich(0, max_support=4, seed=1)
        with pytest.raises(DomainError):
            fuzz_sandwich(10, max_support=1, seed=1)
        with pytest.raises(DomainError, match="seed must be >= 0"):
            fuzz_sandwich(10, max_support=4, seed=-1)

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
        # the exhaustive scan at step 1e-3 runs in test_pinsker
        assert oracles.tv_convention_scan(step=0.01) is resolve_tv_convention()

    def test_pairs_attain_the_bound_on_the_sup_reading_only(self):
        tol = oracle.ATTAINMENT_REL_TOL
        for m, M in oracle._ATTAINING_BOUNDS:
            q1 = (1 - m) / (M - m)
            p = DiscreteDistribution([M * q1, m * (1 - q1)])
            q = DiscreteDistribution([q1, 1 - q1])
            db = density_bounds_discrete(p, q)
            assert db.m == pytest.approx(m, rel=1e-15)
            assert db.M == pytest.approx(M, rel=1e-15)
            kl = kl_discrete(p, q)
            sup = tv_discrete(p, q, TvConvention.SUP)
            assert sup == pytest.approx((M - 1) * q1, rel=1e-14)
            var = tv_discrete(p, q, TvConvention.VARIATIONAL)
            # U with delta read on each scale
            slope = oracles.phi_ratio_weight(db.M) - oracles.phi_ratio_weight(db.m)
            assert abs(sup * slope - kl) <= tol * kl
            assert abs(var * slope - 2 * kl) <= 2 * tol * kl

    @pytest.mark.parametrize("scale", [1 + 1e-9, 1 - 1e-9, 1.5])
    def test_a_miscaled_phi_is_not_sup(self, monkeypatch, scale):
        # a scan of KL <= U passes an inflated bound; KL = U at the
        # attaining pairs fails a miscaling in either direction
        phi = oracle._phi
        monkeypatch.setattr(oracle, "_phi", lambda x, *xp: scale * phi(x, *xp))
        assert resolve_tv_convention() is None

    def test_a_halved_phi_reads_variational(self, monkeypatch):
        phi = oracle._phi
        monkeypatch.setattr(oracle, "_phi", lambda x, *xp: 0.5 * phi(x, *xp))
        assert resolve_tv_convention() is TvConvention.VARIATIONAL


class TestRunVerify:
    def test_rows_judge_the_gap_against_floor_and_tolerance(self):
        rows = oracle.verify_tightness(step=0.01, gap_tol=oracle.VERIFY_GAP_TOL)
        assert [row["delta"] for row in rows] == list(oracle.VERIFY_DELTAS)
        for row in rows:
            assert row["oracle_min"] == binary_min_kl(row["delta"], 0.01)
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
        with pytest.raises(DomainError, match="seed must be >= 0"):
            oracle.run_verify(50, seed=-1, step=1e-3, gap_tol=oracle.VERIFY_GAP_TOL)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_checks_the_trials_before_any_stage(self, failing_stages, trials):
        with pytest.raises(DomainError, match="trials must be >= 1"):
            oracle.run_verify(trials, seed=1, step=1e-3, gap_tol=oracle.VERIFY_GAP_TOL)

    @pytest.mark.parametrize("gap_tol", [float("nan"), -1.0, 0.0, float("inf")])
    def test_checks_the_gap_tolerance_before_any_stage(self, failing_stages, gap_tol):
        # nan would fail every tightness row, inf would pass every one
        with pytest.raises(DomainError, match="gap_tol must be positive and finite"):
            oracle.run_verify(50, seed=1, step=1e-3, gap_tol=gap_tol)
