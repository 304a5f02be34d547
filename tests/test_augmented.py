import json
import math

import numpy as np
import pytest

import oracles
from divbounds import (
    DomainError,
    Gaussian1D,
    GaussianND,
    StiefelFrame,
    TvConvention,
    atv_gaussian,
    augmented,
    gaussian_akl,
    kl_gaussian_1d,
    pushforward_gaussian,
    sample_stiefel,
    search_projection_divergence,
    tv_gaussian_1d,
)

SUP = TvConvention.SUP


@pytest.fixture
def q3():
    return GaussianND(nu=np.array([0.5, -1.0, 2.0]), sigma=np.diag([1.0, 2.25, 4.0]))


class TestStiefelFrame:
    def test_orthonormality_enforced(self):
        with pytest.raises(DomainError):
            StiefelFrame(v=np.array([[1.0, 1.0]]), b=np.zeros(1))

    def test_tall_frames_rejected(self):
        with pytest.raises(DomainError):
            StiefelFrame(v=np.eye(3)[:, :2], b=np.zeros(3))

    def test_offset_shape_checked(self):
        with pytest.raises(DomainError):
            StiefelFrame(v=np.eye(2), b=np.zeros(3))


class TestPushforward:
    def test_identity_frame_is_identity(self, q3):
        frame = StiefelFrame(v=np.eye(3), b=np.zeros(3))
        out = pushforward_gaussian(q3, frame)
        assert isinstance(out, GaussianND)
        assert np.allclose(out.nu, q3.nu)
        assert np.allclose(out.sigma, q3.sigma)

    def test_coordinate_projection(self):
        q = GaussianND(nu=np.zeros(2), sigma=np.diag([4.0, 1.0]))
        frame = StiefelFrame(v=np.array([[1.0, 0.0]]), b=np.zeros(1))
        out = pushforward_gaussian(q, frame)
        assert out == Gaussian1D(mu=0.0, sigma2=4.0)

    @pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 3, 1.2])
    def test_rotated_direction_variance(self, theta):
        q = GaussianND(nu=np.zeros(2), sigma=np.diag([4.0, 1.0]))
        v = np.array([[math.cos(theta), math.sin(theta)]])
        out = pushforward_gaussian(q, StiefelFrame(v=v, b=np.zeros(1)))
        expected = 4 * math.cos(theta) ** 2 + math.sin(theta) ** 2
        assert out.sigma2 == pytest.approx(expected, rel=1e-12)
        assert 1.0 <= out.sigma2 + 1e-12 and out.sigma2 <= 4.0 + 1e-12

    def test_dimension_mismatch(self, q3):
        frame = StiefelFrame(v=np.eye(2), b=np.zeros(2))
        with pytest.raises(DomainError):
            pushforward_gaussian(q3, frame)

    def test_offset_shifts_mean(self, q3):
        frame = StiefelFrame(v=np.array([[0.0, 1.0, 0.0]]), b=np.array([7.0]))
        out = pushforward_gaussian(q3, frame)
        assert out.mu == pytest.approx(-1.0 + 7.0)

    def test_monte_carlo_statistics_agree(self):
        rng = np.random.default_rng(314)
        sigma = oracles.random_spd_matrix(3, [0.5, 1.5, 3.0], rng)
        q = GaussianND(nu=np.array([1.0, -2.0, 0.5]), sigma=sigma)
        frame = sample_stiefel(1, 3, seed=9)
        out = pushforward_gaussian(q, frame)
        n = 1_000_000
        draws = rng.multivariate_normal(q.nu, q.sigma, size=n)
        mapped = draws @ frame.v[0]
        se_mean = out.sigma / math.sqrt(n)
        assert abs(mapped.mean() - out.mu) <= 3 * se_mean
        se_var = out.sigma2 * math.sqrt(2.0 / (n - 1))
        assert abs(mapped.var(ddof=1) - out.sigma2) <= 3 * se_var


class TestSampleStiefel:
    def test_one_by_one_is_sign(self):
        frame = sample_stiefel(1, 1, seed=0)
        assert abs(abs(frame.v[0, 0]) - 1.0) <= 1e-12

    def test_orthonormal_over_many_seeds(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            d = int(rng.integers(1, 9))
            n = int(rng.integers(d, 9))
            frame = sample_stiefel(d, n, seed=int(rng.integers(0, 2**32)))
            defect = np.linalg.norm(frame.v @ frame.v.T - np.eye(d))
            assert defect <= 1e-10

    def test_deterministic_bit_for_bit(self):
        a = sample_stiefel(3, 5, seed=1234)
        b = sample_stiefel(3, 5, seed=1234)
        assert np.array_equal(a.v, b.v)

    def test_invalid_shapes(self):
        with pytest.raises(DomainError):
            sample_stiefel(3, 2, seed=0)
        with pytest.raises(DomainError):
            sample_stiefel(0, 2, seed=0)

    @pytest.mark.parametrize("d, n, seed", sorted(oracles.STIEFEL_FRAMES))
    def test_matches_frozen_gram_schmidt_frames(self, d, n, seed):
        # the sign-corrected QR is the Gram-Schmidt map of the same draw
        got = sample_stiefel(d, n, seed).v
        want = np.array(oracles.STIEFEL_FRAMES[d, n, seed])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("d, n", [(1, 3), (3, 5), (2, 2)])
    def test_diagonal_signs_balanced(self, d, n):
        # a uniform frame is as likely to have v[i, i] > 0 as < 0; an
        # unsigned Householder Q fixes the sign (binomial sd here: 22)
        diag = np.array([np.diagonal(sample_stiefel(d, n, s).v) for s in range(2000)])
        positive = (diag > 0).sum(axis=0)
        assert np.all((900 <= positive) & (positive <= 1100)), positive

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_one_row_is_the_normalized_normal_draw(self, n):
        # the law of the projection search's rows
        for seed in range(20):
            g = np.random.default_rng(seed).standard_normal(n)
            got = sample_stiefel(1, n, seed).v[0]
            assert np.max(np.abs(got - g / np.linalg.norm(g))) <= 1e-15


class TestGaussianAkl:
    def test_inside_spectrum_is_zero(self, q3):
        for s in (1.0, 1.5, 2.25, 3.7, 4.0):
            assert gaussian_akl(Gaussian1D(0.0, s), q3) == 0.0

    def test_below_spectrum(self, q3):
        got = gaussian_akl(Gaussian1D(0.0, 0.25), q3)
        assert got == pytest.approx(oracles.KL_GAUSS_QUARTER_VS_UNIT, abs=1e-15)

    def test_above_spectrum(self, q3):
        got = gaussian_akl(Gaussian1D(0.0, 9.0), q3)
        assert got == pytest.approx(oracles.AKL_SIGMA2_9_ZETA1_4, abs=1e-15)

    def test_mean_is_irrelevant(self, q3):
        assert gaussian_akl(Gaussian1D(123.0, 0.25), q3) == gaussian_akl(
            Gaussian1D(0.0, 0.25), q3
        )

    def test_continuous_across_boundaries(self, q3):
        for boundary in (1.0, 4.0):
            inside = gaussian_akl(Gaussian1D(0.0, boundary), q3)
            outside = gaussian_akl(Gaussian1D(0.0, boundary * (1 + 1e-9)), q3)
            other = gaussian_akl(Gaussian1D(0.0, boundary * (1 - 1e-9)), q3)
            assert inside == 0.0
            assert max(outside, other) <= 1e-15

    def test_variance_scan_oracle(self, q3):
        # the closed form must equal the 1-D minimum over attainable
        # projection variances; this pins the branch conditions
        for s in (0.25, 0.8, 2.0, 5.0, 9.0):
            scan = min(
                kl_gaussian_1d(Gaussian1D(0.0, s), Gaussian1D(0.0, float(v)))
                for v in np.linspace(1.0, 4.0, 20001)
            )
            assert gaussian_akl(Gaussian1D(0.0, s), q3) == pytest.approx(
                scan, abs=1e-8
            )

    def test_out_of_range_variance_ratio(self):
        # sigma^2 / zeta overflows: inf; it underflows: the finite 1-D KL
        # against the nearest eigenvalue, as kl_gaussian_1d gives it
        q = GaussianND(nu=np.zeros(2), sigma=np.diag([1e-10, 2e-10]))
        assert gaussian_akl(Gaussian1D(0.0, 1e300), q) == math.inf
        q = GaussianND(nu=np.zeros(2), sigma=np.diag([1e200, 2e200]))
        got = gaussian_akl(Gaussian1D(0.0, 1e-200), q)
        assert got == pytest.approx(oracles.KL_GAUSS_TINY_VS_HUGE, rel=1e-15)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        sigma = oracles.random_spd_matrix(4, [0.7, 1.1, 2.0, 5.0], rng)
        q = GaussianND(nu=np.zeros(4), sigma=sigma)
        plain = GaussianND(nu=np.zeros(4), sigma=np.diag([0.7, 1.1, 2.0, 5.0]))
        p = Gaussian1D(0.0, 0.3)
        assert gaussian_akl(p, q) == pytest.approx(gaussian_akl(p, plain), rel=1e-10)


class TestSearchProjectionDivergence:
    def test_interior_variance_reaches_zero(self, q3):
        p = Gaussian1D(mu=0.7, sigma2=2.0)
        result = search_projection_divergence(p, q3, "kl", budget=1500, seed=42)
        assert result.best_value <= 1e-8

    def test_matches_closed_form_below(self, q3):
        p = Gaussian1D(mu=0.0, sigma2=0.25)
        result = search_projection_divergence(p, q3, "kl", budget=4000, seed=42)
        assert abs(result.best_value - gaussian_akl(p, q3)) <= 1e-4

    def test_upper_estimate_property(self, q3):
        p = Gaussian1D(mu=0.0, sigma2=0.25)
        for seed in range(5):
            result = search_projection_divergence(p, q3, "kl", budget=20, seed=seed)
            assert result.best_value >= gaussian_akl(p, q3) - 1e-12

    def test_best_value_is_objective_at_best_frame(self, q3):
        p = Gaussian1D(mu=0.0, sigma2=0.25)
        result = search_projection_divergence(p, q3, "kl", budget=200, seed=7)
        replay = kl_gaussian_1d(p, pushforward_gaussian(q3, result.best_frame))
        assert abs(replay - result.best_value) <= 1e-12
        assert result.witness == pushforward_gaussian(q3, result.best_frame)

    def test_refinement_against_per_step_reference(self):
        # the screened refinement against the per-step loop it replaced,
        # over spectra up to e^+-12 with sigma^2 inside, below and above:
        # never below the closed form, within 1e-8 of the reference (a step
        # that improves by less than rounding may be taken on one side
        # only), and the value is the returned frame's own quotient's KL
        rng = np.random.default_rng(2024)
        for trial in range(300):
            n = int(rng.integers(2, 9))
            eigs = np.sort(np.exp(rng.uniform(-12.0, 12.0, size=n)))
            q = GaussianND(
                nu=rng.normal(size=n), sigma=oracles.random_spd_matrix(n, eigs, rng)
            )
            zeta_min, zeta_max = float(q.eigenvalues[0]), float(q.eigenvalues[-1])
            sigma2 = (
                math.exp(rng.uniform(math.log(zeta_min), math.log(zeta_max))),
                zeta_min * math.exp(-rng.uniform(0.01, 12.0)),
                zeta_max * math.exp(rng.uniform(0.01, 12.0)),
            )[trial % 3]
            p = Gaussian1D(mu=float(rng.normal()), sigma2=sigma2)
            budget = int(rng.choice([1, 20, 200]))
            seed = int(rng.integers(2**31))
            result = search_projection_divergence(p, q, "kl", budget=budget, seed=seed)

            draws = np.random.default_rng(seed)
            frames = draws.standard_normal((budget, n))
            frames /= np.linalg.norm(frames, axis=1, keepdims=True)
            values = augmented._mean_matched_kl(p, q, frames)
            best = int(np.argmin(values))
            want, _ = oracles.refine_projection_per_step(
                p, q, frames[best], float(values[best]), draws.standard_normal((100, n))
            )
            assert result.best_value >= gaussian_akl(p, q)
            assert abs(result.best_value - want) <= 1e-8 * want

            v = result.best_frame.v[0]
            s = float(np.einsum("i,ij,j->", v, q.sigma, v))
            own = kl_gaussian_1d(p, Gaussian1D(p.mu, s))
            assert abs(own - result.best_value) <= 4 * math.ulp(result.best_value)

    def test_perturbations_are_the_generators_next_draws(self, q3, monkeypatch):
        # the refinement takes one (100, n) draw right after the drawn frames,
        # so the stream, and with it every result, is fixed by the seed
        calls = []
        real_rng = np.random.default_rng

        class Recording:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def standard_normal(self, shape):
                out = self.rng.standard_normal(shape)
                calls.append(out.copy())
                return out

        monkeypatch.setattr(np.random, "default_rng", Recording)
        p = Gaussian1D(mu=0.0, sigma2=0.25)
        search_projection_divergence(p, q3, "kl", budget=300, seed=11)
        monkeypatch.undo()
        want = np.random.default_rng(11)
        assert [c.shape for c in calls] == [(300, 3), (100, 3)]
        assert np.array_equal(calls[0], want.standard_normal((300, 3)))
        assert np.array_equal(calls[1], want.standard_normal((100, 3)))

    def test_mean_matching_offset(self, q3):
        p = Gaussian1D(mu=-3.0, sigma2=0.25)
        result = search_projection_divergence(p, q3, "kl", budget=50, seed=0)
        assert pushforward_gaussian(q3, result.best_frame).mu == pytest.approx(-3.0)

    def test_deterministic(self, q3):
        p = Gaussian1D(mu=0.0, sigma2=0.25)
        a = search_projection_divergence(p, q3, "kl", budget=300, seed=11)
        b = search_projection_divergence(p, q3, "kl", budget=300, seed=11)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_frame.v, b.best_frame.v)

    def test_draw_phase_monotone_in_budget(self, q3, monkeypatch):
        # the drawn frames are the leading rows of one normal matrix, scored
        # in blocks, so a larger budget extends the same rows (9000 crosses
        # a block boundary) and the pre-refinement minimum is exactly
        # monotone; the refined value can wobble within its convergence
        # tolerance
        p = Gaussian1D(mu=0.0, sigma2=0.25)
        blocks = []
        real_kl = augmented._mean_matched_kl

        def recording_kl(p_, q_, v):
            if v.ndim == 2:
                blocks.append(v.copy())
            return real_kl(p_, q_, v)

        monkeypatch.setattr(augmented, "_mean_matched_kl", recording_kl)
        budgets = (50, 1000, 9000)
        full, draws = [], []
        for budget in budgets:
            blocks.clear()
            result = search_projection_divergence(p, q3, "kl", budget=budget, seed=3)
            full.append(result.best_value)
            draws.append(np.concatenate(blocks))
        assert [len(rows) for rows in draws] == list(budgets)
        for short, long in zip(draws, draws[1:]):
            assert np.array_equal(short, long[: len(short)])
        assert np.allclose(np.linalg.norm(draws[-1], axis=1), 1.0, atol=1e-15)
        draw_min = [
            min(kl_gaussian_1d(p, Gaussian1D(0.0, float(v @ q3.sigma @ v))) for v in vs)
            for vs in draws
        ]
        assert all(a >= b for a, b in zip(draw_min, draw_min[1:]))
        assert all(f <= d + 1e-15 for f, d in zip(full, draw_min))
        assert all(a >= b - 1e-6 for a, b in zip(full, full[1:]))

    def test_out_of_range_variance_ratio_gives_inf(self):
        # sigma^2 / s overflows
        p = Gaussian1D(0.0, 1e300)
        q = GaussianND(nu=np.zeros(2), sigma=np.diag([1e-10, 2e-10]))
        result = search_projection_divergence(p, q, "kl", budget=20, seed=0)
        assert result.best_value == gaussian_akl(p, q) == math.inf

    def test_underflowing_variance_ratio_nears_closed_form(self):
        # sigma^2 / s underflows: log r comes from the two logs, so the
        # search stays finite and lands just above the closed form
        p = Gaussian1D(0.0, 1e-200)
        q = GaussianND(nu=np.zeros(2), sigma=np.diag([1e200, 2e200]))
        result = search_projection_divergence(p, q, "kl", budget=20, seed=0)
        akl = gaussian_akl(p, q)
        assert akl == pytest.approx(oracles.KL_GAUSS_TINY_VS_HUGE, rel=1e-15)
        assert akl <= result.best_value <= akl * (1.0 + 1e-9)
        # the drawn blocks are scored the same way as the refinement steps
        blocks = augmented._mean_matched_kl(p, q, np.eye(2))
        singles = [kl_gaussian_1d(p, Gaussian1D(0.0, s)) for s in (1e200, 2e200)]
        assert blocks == pytest.approx(singles, rel=1e-15)

    def test_tv_objective_needs_convention(self, q3):
        # the search's TV objective is gone: "tv" is rejected like any
        # objective other than "kl"
        p = Gaussian1D(mu=0.0, sigma2=0.25)
        with pytest.raises(DomainError):
            search_projection_divergence(p, q3, "tv", budget=10, seed=0)

    def test_bad_arguments(self, q3):
        p = Gaussian1D(mu=0.0, sigma2=0.25)
        with pytest.raises(DomainError):
            search_projection_divergence(p, q3, "hellinger", budget=10, seed=0)
        with pytest.raises(DomainError):
            search_projection_divergence(p, q3, "kl", budget=0, seed=0)

    def test_json_serialization(self, q3):
        p = Gaussian1D(mu=0.0, sigma2=0.25)
        result = search_projection_divergence(p, q3, "kl", budget=20, seed=1)
        payload = json.loads(result.to_json())
        assert payload["n_samples"] == 120
        assert payload["witness"]["type"] == "gaussian1d"
        assert len(payload["best_frame"]["v"][0]) == 3
        assert payload["best_value"] == result.best_value


class TestAtvGaussian:
    def test_inside_spectrum_zero(self, q3):
        assert atv_gaussian(Gaussian1D(0.0, 2.0), q3, SUP) == 0.0

    def test_below_spectrum_hits_nearest_eigenvalue(self, q3):
        p = Gaussian1D(mu=0.0, sigma2=0.25)
        got = atv_gaussian(p, q3, SUP)
        assert got == tv_gaussian_1d(p, Gaussian1D(0.0, 1.0), SUP)

    def test_equals_tv_at_nearest_end_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for trial in range(60):
            n = int(rng.integers(2, 6))
            eigs = np.sort(np.exp(rng.uniform(-3.0, 3.0, size=n)))
            q = GaussianND(
                nu=rng.normal(size=n), sigma=oracles.random_spd_matrix(n, eigs, rng)
            )
            zeta_min, zeta_max = float(q.eigenvalues[0]), float(q.eigenvalues[-1])
            end = (zeta_min, zeta_max)[trial % 2]
            sigma2 = end * float(np.exp(rng.uniform(0.01, 10.0))) ** (
                -1 if trial % 2 == 0 else 1
            )
            p = Gaussian1D(mu=float(rng.normal()), sigma2=sigma2)
            conv = (SUP, TvConvention.VARIATIONAL)[trial % 3 == 0]
            assert atv_gaussian(p, q, conv) == tv_gaussian_1d(
                p, Gaussian1D(p.mu, end), conv
            )

    def test_tv_search_never_below_atv(self, q3):
        # the TV at any mean-matched pushforward bounds the infimum from above
        for sigma2, seed in ((0.25, 0), (0.9, 1), (2.0, 2), (9.0, 3), (40.0, 4)):
            p = Gaussian1D(mu=0.3, sigma2=sigma2)
            atv = atv_gaussian(p, q3, SUP)
            for i in range(50):
                frame = sample_stiefel(1, 3, seed=[seed, 0, i])
                s = pushforward_gaussian(q3, frame).sigma2
                assert tv_gaussian_1d(p, Gaussian1D(p.mu, s), SUP) >= atv - 1e-15

    def test_grid_scan_oracle(self, q3):
        p = Gaussian1D(mu=0.0, sigma2=9.0)
        got = atv_gaussian(p, q3, SUP)
        scan = min(
            tv_gaussian_1d(p, Gaussian1D(0.0, float(s)), SUP)
            for s in np.linspace(1.0, 4.0, 400)
        )
        assert got <= scan + 1e-9
        assert got >= scan - 1e-4

    def test_range_sup(self, q3):
        got = atv_gaussian(Gaussian1D(5.0, 0.01), q3, SUP)
        assert 0.0 <= got <= 1.0

    def test_budget_and_seed_warn_and_change_nothing(self, q3):
        p = Gaussian1D(0.0, 0.25)
        plain = atv_gaussian(p, q3, SUP)
        for extra in ({"budget": 0}, {"seed": 3}, {"budget": 16, "seed": 5}):
            with pytest.warns(DeprecationWarning):
                assert atv_gaussian(p, q3, conv=SUP, **extra) == plain
