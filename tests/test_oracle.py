import json

import numpy as np
import pytest

import oracles
from divbounds import (
    DomainError,
    TvConvention,
    density_bounds_discrete,
    fuzz_sandwich,
    kl_discrete,
    poly_lower_bound,
    tv_discrete,
    vajda_lower_bound,
)
from divbounds import DiscreteDistribution, check_sandwich_same_dim, oracle, pinsker
from divbounds.oracle import SandwichViolation
from divbounds.pinsker import SandwichReport
from oracles import binary_min_kl, check_grid_step


# the binary-grid minimum is the test suite's independent check of the
# lower bound from below; it lives in tests/oracles.py
class TestCheckGridStep:
    @pytest.mark.parametrize("step", [0.0, 0.7, 2.0, -0.1, float("nan"), 0.3, 1e-5, 1e-9])
    def test_validation(self, step):
        with pytest.raises(DomainError, match="^step"):
            check_grid_step(step)
        with pytest.raises(DomainError, match="^step"):
            binary_min_kl(0.5, step)

    def test_step_floor_is_accepted(self):
        check_grid_step(oracles.MIN_GRID_STEP)
        assert binary_min_kl(0.5, oracles.MIN_GRID_STEP) >= vajda_lower_bound(0.5) - 1e-9


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
        with pytest.raises(DomainError, match="n_trials must be >= 1, got 0"):
            fuzz_sandwich(0, seed=1)
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            fuzz_sandwich(10, seed=-1)
        # a float count or seed, not range's or SeedSequence's TypeError
        with pytest.raises(DomainError, match=r"^n_trials must be an integer, got 10\.0$"):
            fuzz_sandwich(10.0, 1)
        with pytest.raises(DomainError, match=r"^seed must be an integer, got 1\.5$"):
            fuzz_sandwich(10, 1.5)

    def test_no_violations_small_run(self):
        report = fuzz_sandwich(2000, seed=123)
        assert report.ok
        assert report.n_violations == 0

    def test_reproducible(self):
        a = fuzz_sandwich(500, seed=77)
        b = fuzz_sandwich(500, seed=77)
        assert a.violations == b.violations
        assert a.to_json_lines() == b.to_json_lines()

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_clean_across_seed_sweep(self, seed):
        assert fuzz_sandwich(1000, seed=seed).ok

    def test_trials_not_a_multiple_of_the_block(self, monkeypatch):
        sizes = []

        def recording(p, q):
            sizes.append(p.shape)
            return pinsker.check_sandwich_rows(p, q)

        monkeypatch.setattr(oracle, "_FUZZ_BLOCK", 64)
        monkeypatch.setattr(oracle, "check_sandwich_rows", recording)
        report = fuzz_sandwich(150, seed=3)
        assert sizes == [(64, 6), (64, 6), (22, 6)]
        assert report.ok

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_drawn_rows_never_reach_the_scalar_checker(self, monkeypatch, seed):
        # every drawn row is valid, so the whole fuzz stays in the array kernel
        calls = []

        def spy(p, q):
            calls.append((p, q))
            return check_sandwich_same_dim(p, q)

        monkeypatch.setattr(pinsker, "check_sandwich_same_dim", spy)
        assert fuzz_sandwich(20_000, seed=seed).ok
        assert calls == []

    def test_a_block_draws_every_support_size(self):
        k, p, q = oracle._draw_block(0, 0, 8192)
        assert p.shape == q.shape == (8192, oracle.VERIFY_MAX_SUPPORT)
        assert set(k.tolist()) == set(range(2, oracle.VERIFY_MAX_SUPPORT + 1))
        within = np.arange(oracle.VERIFY_MAX_SUPPORT) < k[:, None]
        for x in (p, q):
            assert np.all(x[within] > 0) and np.all(x[~within] == 0)
            np.testing.assert_allclose(x.sum(axis=1), 1.0, rtol=1e-15)

    @pytest.mark.parametrize("tol", [pinsker.REPORT_TOL, -1.0])
    def test_the_pairs_do_not_depend_on_the_block_size(self, monkeypatch, tol):
        # trial i is a function of (seed, i), so the margins and, with every
        # chain forced to fail, the violations come out the same
        monkeypatch.setattr(pinsker, "REPORT_TOL", tol)
        reports = []
        for block in (64, 8192):
            monkeypatch.setattr(oracle, "_FUZZ_BLOCK", block)
            reports.append(fuzz_sandwich(150, seed=3))
        assert reports[0] == reports[1]
        assert reports[0].n_violations == (150 if tol < 0 else 0)

    def test_draws_are_uniform_in_k_and_on_each_simplex(self):
        # k uniform on 2..6, and p and q uniform on the simplex given k:
        # each entry has mean 1/k and variance (k - 1) / (k^2 (k + 1))
        n, width = 50_000, oracle.VERIFY_MAX_SUPPORT
        k, p, q = oracle._draw_block(2024, 0, n)
        share = 1 / (width - 1)
        for size in range(2, width + 1):
            rows = k == size
            count = int(rows.sum())
            assert abs(count - n * share) <= 4 * np.sqrt(n * share * (1 - share))
            sigma = np.sqrt((size - 1) / (size**2 * (size + 1)) / count)
            for x in (p, q):
                means = x[rows, :size].mean(axis=0)
                assert np.all(np.abs(means - 1 / size) <= 4 * sigma)

    def test_seeds_past_64_bits_give_unrelated_streams(self):
        # a seed of any size folds to one 64-bit key; 0 and 2**64 differ in
        # their high word, and no stream is a shifted copy of another
        seeds = (0, 1, 2**64, 2**64 + 1)
        streams = [oracle._uniforms(seed, 0, 13 * 64) for seed in seeds]
        for i, a in enumerate(streams):
            for b in streams[i + 1:]:
                assert np.intersect1d(a, b).size == 0
        blocks = {
            tuple(np.concatenate([k, p.ravel(), q.ravel()]).tolist())
            for k, p, q in (oracle._draw_block(seed, 0, 64) for seed in seeds)
        }
        assert len(blocks) == len(seeds)
        assert fuzz_sandwich(100, seed=2**65).ok

    def test_uniforms_lie_strictly_inside_0_1(self):
        # every output is a multiple of 2**-52 plus 2**-53: the extreme
        # values are 2**-53 and 1 - 2**-53, so -log u is finite and positive
        u = oracle._uniforms(5, 0, 100_000)
        assert np.all((0 < u) & (u < 1))
        assert np.all(np.modf(u * 2.0**52)[0] == 0.5)

    def test_forced_violations_keep_their_rows(self, monkeypatch):
        # a negative slack makes every chain fail, so every trial reports
        monkeypatch.setattr(pinsker, "REPORT_TOL", -1.0)
        report = fuzz_sandwich(40, seed=5)
        assert report.n_violations == 40 and not report.ok
        lines = report.to_json_lines().split("\n")
        assert len(lines) == 40
        for line, violation in zip(lines, report.violations):
            payload = json.loads(line)
            assert list(payload) == [
                "p", "q", "poly_lb", "vajda_lb", "divergence", "upper", "all_hold"
            ]
            assert payload["all_hold"] is False
            # the pair on its own support, not padded to VERIFY_MAX_SUPPORT
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
        report = fuzz_sandwich(3000, seed=9)
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
        report = fuzz_sandwich(10_000, seed=seed)
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


def _scaled(monkeypatch, name, scale):
    # pinsker.<name> times ``scale``: _phi and the batched curve are what
    # check_sandwich_rows calls for U and L
    f = getattr(pinsker, name)
    monkeypatch.setattr(pinsker, name, lambda x, *xp: scale * f(x, *xp))


# the upper rows of the attainment stage are what settles the TV convention:
# U read on the SUP scale equals KL at the pairs that attain it
class TestResolveTvConvention:
    def test_returns_sup(self):
        rows = oracle.verify_tightness()["upper"]
        assert len(rows) == len(oracle._ATTAINING_BOUNDS) == 25
        assert all(row["ok"] for row in rows)

    def test_deterministic(self):
        assert oracle.verify_tightness() == oracle.verify_tightness()

    def test_matches_pinned_constant(self):
        # U on the SUP scale is what check_sandwich_same_dim reports
        p, q = oracle._attaining_pairs()
        n = len(oracle.VERIFY_DELTAS)
        for i, row in enumerate(oracle.verify_tightness()["upper"], n):
            pi, qi = DiscreteDistribution(p[i]), DiscreteDistribution(q[i])
            delta = tv_discrete(pi, qi, TvConvention.SUP)
            db = density_bounds_discrete(pi, qi)
            assert (db.m, db.M) == pytest.approx((row["m"], row["M"]), rel=1e-15)
            assert row["upper"] == check_sandwich_same_dim(pi, qi).upper
            assert row["upper"] == pytest.approx(
                pinsker.reverse_pinsker(delta, TvConvention.SUP, db), rel=1e-15
            )

    def test_coarser_grid_agrees(self):
        # the exhaustive scan at step 1e-3 runs in test_pinsker
        assert oracles.tv_convention_scan(step=0.01) is TvConvention.SUP

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

    @pytest.mark.parametrize("scale", [1 + 1e-9, 1 - 1e-9, 1.5, 2.0])
    def test_a_miscaled_phi_is_not_sup(self, monkeypatch, scale):
        # a scan of KL <= U passes an inflated bound; KL = U at the
        # attaining pairs fails a miscaling in either direction
        _scaled(monkeypatch, "_phi", scale)
        rows = oracle.verify_tightness()
        assert not any(row["ok"] for row in rows["upper"])
        assert all(row["ok"] for row in rows["lower"])
        for row in rows["upper"]:
            assert abs(row["rel_gap"] - (1 - 1 / scale)) <= 1e-14

    def test_a_halved_phi_reads_variational(self, monkeypatch):
        # U on the wrong scale is off by a factor of 2: a halved phi
        # makes every upper row read half the KL
        _scaled(monkeypatch, "_phi", 0.5)
        for row in oracle.verify_tightness()["upper"]:
            assert not row["ok"]
            assert 2 * row["upper"] == pytest.approx(row["witness_kl"], rel=1e-12)


class TestRunVerify:
    def test_rows_judge_the_witness_gap_against_the_attainment_tolerance(self):
        tightness = oracle.verify_tightness()
        assert list(tightness) == ["lower", "upper"]
        lower, upper = tightness["lower"], tightness["upper"]
        assert [row["delta"] for row in lower] == list(oracle.VERIFY_DELTAS)
        assert [(row["m"], row["M"]) for row in upper] == list(oracle._ATTAINING_BOUNDS)
        for row in lower:
            assert list(row) == ["delta", "witness_kl", "vajda_lb", "rel_gap", "ok"]
            assert row["vajda_lb"] == pytest.approx(
                vajda_lower_bound(row["delta"]), rel=1e-14, abs=0.0
            )
            assert row["rel_gap"] == (row["witness_kl"] - row["vajda_lb"]) / row["vajda_lb"]
        for row in upper:
            assert list(row) == ["m", "M", "witness_kl", "upper", "rel_gap", "ok"]
            assert row["rel_gap"] == (row["upper"] - row["witness_kl"]) / row["upper"]
        for row in lower + upper:
            assert row["ok"] is (abs(row["rel_gap"]) <= oracle.ATTAINMENT_REL_TOL)
            assert row["ok"]

    def test_rows_are_the_fuzz_checkers_reports(self, monkeypatch):
        # one batch through the checker the fuzz stage uses, row for row
        batches = []

        def spy(p, q):
            batches.append((p, q))
            return pinsker.check_sandwich_rows(p, q)

        monkeypatch.setattr(oracle, "check_sandwich_rows", spy)
        tightness = oracle.verify_tightness()
        [(p, q)] = batches
        assert p.shape == q.shape == (30, 2)
        rows = pinsker.check_sandwich_rows(p, q)
        for i, row in enumerate(tightness["lower"] + tightness["upper"]):
            report = oracle._report_row(rows, i)
            assert row["witness_kl"] == report.divergence
            assert row.get("vajda_lb", report.vajda_lb) == report.vajda_lb
            assert row.get("upper", report.upper) == report.upper

    def test_the_witness_attains_the_curve_across_its_range(self, monkeypatch):
        # each witness pair has variational TV delta(t), within a few ulps
        # of delta, and KL L(t)
        deltas = tuple(np.linspace(0.2, 1.7, 151).tolist())
        monkeypatch.setattr(oracle, "VERIFY_DELTAS", deltas)
        p, q = oracle._attaining_pairs()
        rows = oracle.verify_tightness()["lower"]
        assert [row["delta"] for row in rows] == list(deltas)
        assert all(row["ok"] for row in rows)
        for i, row in enumerate(rows):
            pi, qi = DiscreteDistribution(p[i]), DiscreteDistribution(q[i])
            tv = tv_discrete(pi, qi, TvConvention.VARIATIONAL)
            assert tv == pytest.approx(row["delta"], rel=0.0, abs=2e-15)

    def test_report_is_the_verify_summary(self, monkeypatch):
        summary, fuzz = oracle.run_verify(300, 1)
        assert list(summary) == ["fuzz", "tightness", "all_ok"]
        assert summary["fuzz"] == {
            "trials": 300, "max_support": 6, "seed": 1, "violations": 0
        }
        assert summary["tightness"] == oracle.verify_tightness()
        assert summary["all_ok"] is True
        assert fuzz.ok
        # a curve miscaled by 1e-9 misses the KL of the pairs that attain it
        _scaled(monkeypatch, "vajda_lower_bound_array", 1 + 1e-9)
        failing, _ = oracle.run_verify(50, seed=1)
        assert failing["all_ok"] is False

    @pytest.fixture
    def failing_stages(self, monkeypatch):
        def stage(*args, **kwargs):
            raise AssertionError("a stage ran")

        for name in ("fuzz_sandwich", "verify_tightness"):
            monkeypatch.setattr(oracle, name, stage)

    def test_checks_the_seed_before_any_stage(self, failing_stages):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            oracle.run_verify(50, seed=-1)
        with pytest.raises(DomainError, match=r"^trials must be an integer, got 10\.5$"):
            oracle.run_verify(10.5, 1)
        with pytest.raises(DomainError, match=r"^seed must be an integer, got 1\.5$"):
            oracle.run_verify(50, 1.5)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_checks_the_trials_before_any_stage(self, failing_stages, trials):
        with pytest.raises(DomainError, match="trials must be >= 1"):
            oracle.run_verify(trials, seed=1)
