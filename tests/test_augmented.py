import math
import sys

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
    attaining_frame,
    augmented,
    gaussian_akl,
    kl_gaussian_1d,
    pushforward_gaussian,
    search_projection_divergence,
    tv_gaussian_1d,
)
from divbounds.measures import GAUSS_TV_ABS_TOL

SUP = TvConvention.SUP


def unit_row_frame(rng, n):
    # a uniform unit row: a normalized standard normal draw
    g = rng.standard_normal(n)
    return StiefelFrame(v=(g / np.linalg.norm(g)).reshape(1, n), b=np.zeros(1))


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


def test_array_records_keep_read_only_copies():
    nu, sigma = np.array([0.5, -1.0]), np.array([[2.0, 0.5], [0.5, 1.0]])
    v, b = np.array([[0.6, 0.8]]), np.array([0.25])
    q, frame = GaussianND(nu=nu, sigma=sigma), StiefelFrame(v=v, b=b)
    stored = {"nu": q.nu, "sigma": q.sigma, "eigenvalues": q.eigenvalues,
              "v": frame.v, "b": frame.b}
    kept = {name: arr.copy() for name, arr in stored.items()}
    for arr in (nu, sigma, v, b):
        arr.fill(7.0)
    for name, arr in stored.items():
        np.testing.assert_array_equal(arr, kept[name])
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 7.0


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
        frame = unit_row_frame(np.random.default_rng(9), 3)
        out = pushforward_gaussian(q, frame)
        n = 1_000_000
        draws = rng.multivariate_normal(q.nu, q.sigma, size=n)
        mapped = draws @ frame.v[0]
        se_mean = out.sigma / math.sqrt(n)
        assert abs(mapped.mean() - out.mu) <= 3 * se_mean
        se_var = out.sigma2 * math.sqrt(2.0 / (n - 1))
        assert abs(mapped.var(ddof=1) - out.sigma2) <= 3 * se_var


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


# attaining_frame's stated constant in its KL-gap bound
FRAME_GAP_C = 10.0


def _frame_pair(kind, rng):
    # one (p, q) pair of the given kind of spectrum and position of sigma^2
    n = 1 if kind == "n1" else int(rng.integers(2, 9))
    if kind == "isotropic":
        sigma = np.eye(n) * math.exp(rng.uniform(-3.0, 3.0))
    elif kind == "few_ulps":  # a rotated c I
        c = math.exp(rng.uniform(-3.0, 3.0))
        sigma = oracles.random_spd_matrix(n, np.full(n, c), rng)
    else:
        eigs = np.sort(np.exp(rng.uniform(-3.0, 3.0, size=n)))
        sigma = oracles.random_spd_matrix(n, eigs, rng) if n > 1 else np.diag(eigs)
    scale = 10.0 ** rng.uniform(0.0, 6.0) if kind == "far_means" else 3.0
    q = GaussianND(nu=scale * rng.normal(size=n), sigma=sigma)
    zeta_min, zeta_max = float(q.eigenvalues[0]), float(q.eigenvalues[-1])
    near = 10.0 ** rng.uniform(-12.0, -3.0) * rng.choice([-1.0, 1.0])
    sigma2 = {
        "below": lambda: zeta_min * math.exp(-rng.uniform(1e-3, 5.0)),
        "above": lambda: zeta_max * math.exp(rng.uniform(1e-3, 5.0)),
        "inside": lambda: zeta_min + (zeta_max - zeta_min) * rng.uniform(),
        "near_min": lambda: zeta_min * (1.0 + near),
        "near_max": lambda: zeta_max * (1.0 + near),
        "at_min": lambda: zeta_min,
        "at_max": lambda: zeta_max,
    }
    # Sigma = c I, a few-ulps spectrum, n = 1 and far means take every position
    position = kind if kind in sigma2 else list(sigma2)[int(rng.integers(len(sigma2)))]
    return Gaussian1D(mu=scale / 3.0 * float(rng.normal()), sigma2=sigma2[position]()), q


class TestAttainingFrame:
    @pytest.mark.parametrize(
        "kind",
        ["below", "above", "inside", "near_min", "near_max", "at_min", "at_max",
         "isotropic", "few_ulps", "n1", "far_means"],
    )
    def test_frame_attains_both_closed_forms(self, kind):
        # each pair checks the frame, its TV and its KL gap against
        # attaining_frame's stated contract: eigh's error, which scales with
        # zeta_max, times the KL's slope in the variance; its second order
        # where that slope vanishes; and the image's mean, which the
        # rounding of mu - v nu and v nu + b puts up to about eps m from mu
        rng = np.random.default_rng(list(map(ord, kind)))
        eps = sys.float_info.epsilon
        slack = FRAME_GAP_C * eps
        for _ in range(150):
            p, q = _frame_pair(kind, rng)
            frame = attaining_frame(p, q)
            assert isinstance(frame, StiefelFrame)
            assert (frame.d, frame.n) == (1, q.dim)
            witness = augmented._witness(q, frame)
            zeta_min, zeta_max = float(q.eigenvalues[0]), float(q.eigenvalues[-1])
            zeta_t = min(max(p.sigma2, zeta_min), zeta_max)
            kappa = zeta_max / zeta_t
            m = abs(p.mu) + float(np.abs(frame.v[0]) @ np.abs(q.nu))
            tv_error = tv_gaussian_1d(p, witness, SUP) - atv_gaussian(p, q, SUP)
            assert abs(tv_error) <= GAUSS_TV_ABS_TOL + eps * m / math.sqrt(zeta_t)
            akl = gaussian_akl(p, q)
            gap = kl_gaussian_1d(p, witness) - akl
            first = kappa * abs(p.sigma2 / zeta_t - 1.0) / 2.0 + akl
            upper = slack * first + (slack * kappa) ** 2 + (eps * m) ** 2 / zeta_t
            assert -2.0 * math.ulp(akl) <= gap <= upper

    def test_diagonal_spectrum_gives_coordinate_rows(self, q3):
        # below and above: the end's coordinate row; inside: the two end
        # rows mixed so that the quotient is sigma^2; means matched
        for sigma2, row in (
            (0.25, [1.0, 0.0, 0.0]),
            (9.0, [0.0, 0.0, 1.0]),
            (3.0, [math.sqrt(1.0 / 3.0), 0.0, math.sqrt(2.0 / 3.0)]),
        ):
            p = Gaussian1D(mu=0.7, sigma2=sigma2)
            frame = attaining_frame(p, q3)
            assert np.abs(frame.v[0]) == pytest.approx(row, abs=1e-15)
            witness = augmented._witness(q3, frame)
            assert witness.mu == pytest.approx(0.7, abs=1e-15)
            assert witness.sigma2 == pytest.approx(min(max(sigma2, 1.0), 4.0), rel=1e-15)


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
        # the ranked draw stage and the screened refinement against the
        # exhaustive draw stage and the per-step loop they replaced, over
        # spectra up to e^+-12 with sigma^2 inside, below and above, and
        # over isotropic covariances c I, where every drawn row ties (with
        # sigma^2 below or above c: at c every KL is a squared rounding
        # error): never below the closed form, within 1e-8 of the reference
        # (a row or a step that wins by less than rounding may be taken on
        # one side only), and the value is the returned frame's own
        # quotient's KL. Budget 9000 crosses a draw block
        rng = np.random.default_rng(2024)
        for trial in range(300):
            n = int(rng.integers(2, 9))
            isotropic = trial % 5 == 4
            if isotropic:
                sigma = math.exp(rng.uniform(-12.0, 12.0)) * np.eye(n)
            else:
                eigs = np.sort(np.exp(rng.uniform(-12.0, 12.0, size=n)))
                sigma = oracles.random_spd_matrix(n, eigs, rng)
            q = GaussianND(nu=rng.normal(size=n), sigma=sigma)
            zeta_min, zeta_max = float(q.eigenvalues[0]), float(q.eigenvalues[-1])
            sigma2 = (
                math.exp(rng.uniform(math.log(zeta_min), math.log(zeta_max))),
                zeta_min * math.exp(-rng.uniform(0.01, 12.0)),
                zeta_max * math.exp(rng.uniform(0.01, 12.0)),
            )[1 + trial % 2 if isotropic else trial % 3]
            p = Gaussian1D(mu=float(rng.normal()), sigma2=sigma2)
            budget = int(rng.choice([1, 20, 200, 1000, 9000]))
            seed = int(rng.integers(2**31))
            result = search_projection_divergence(p, q, "kl", budget=budget, seed=seed)

            draws = np.random.default_rng(seed)
            frames = draws.standard_normal((budget, n))
            frames /= np.linalg.norm(frames, axis=1, keepdims=True)
            values = oracles.mean_matched_kl(p, q, frames)
            best = int(np.argmin(values))
            want, _ = oracles.refine_projection_per_step(
                p, q, frames[best], float(values[best]), draws.standard_normal((100, n))
            )
            assert result.best_value >= gaussian_akl(p, q)
            assert abs(result.best_value - want) <= 1e-8 * want

            # the own quotient leaves the spectrum by rounding only, and is
            # scored at the end it left by
            v = result.best_frame.v[0]
            s = float(np.einsum("i,ij,j->", v, q.sigma, v))
            assert zeta_min * (1 - 1e-15) <= s <= zeta_max * (1 + 1e-15)
            own = kl_gaussian_1d(p, Gaussian1D(p.mu, min(max(s, zeta_min), zeta_max)))
            assert abs(own - result.best_value) <= 4 * math.ulp(result.best_value)

    def test_rotated_isotropic_spectra_fall_short_by_at_most_two_ulps(self):
        # a rotated c I has a spectrum a few ulps wide, and the KL at a
        # quotient inside it can round below the KL at its end: best_value
        # and the witness's KL may fall below gaussian_akl, by 2 ulps at
        # most (the worst of 12 000 such searches). The witness's variance
        # is clamped to the spectrum, as the scored quotient is
        rng = np.random.default_rng(31)
        clamped = 0
        for trial in range(600):
            n = int(rng.integers(2, 9))
            c = math.exp(rng.uniform(-5.0, 5.0))
            q = GaussianND(
                nu=rng.normal(size=n),
                sigma=oracles.random_spd_matrix(n, np.full(n, c), rng),
            )
            zeta_min, zeta_max = float(q.eigenvalues[0]), float(q.eigenvalues[-1])
            factor = math.exp(rng.uniform(0.01, 5.0))
            sigma2 = zeta_min / factor if trial % 2 else zeta_max * factor
            p = Gaussian1D(mu=float(rng.normal()), sigma2=sigma2)
            budget = int(rng.choice([1, 20, 200]))
            result = search_projection_divergence(
                p, q, "kl", budget=budget, seed=int(rng.integers(2**31))
            )
            akl = gaussian_akl(p, q)
            assert result.best_value >= akl - 2 * math.ulp(akl)
            assert kl_gaussian_1d(p, result.witness) >= akl - 2 * math.ulp(akl)
            assert zeta_min <= result.witness.sigma2 <= zeta_max
            raw = pushforward_gaussian(q, result.best_frame)
            assert result.witness.mu == raw.mu
            clamped += result.witness != raw
        assert clamped > 0

    @pytest.mark.parametrize(
        "row", oracles.FROZEN_SEARCHES, ids=lambda r: f"n{len(r[0][2])}-budget{r[0][5]}"
    )
    def test_matches_frozen_searches_bit_for_bit(self, row):
        (mu, sigma2, nu, diagonal, off, budget, seed), value, v, b, witness = row
        p, q = oracles.frozen_search_pair(mu, sigma2, nu, diagonal, off)
        result = search_projection_divergence(p, q, "kl", budget=budget, seed=seed)
        assert result.best_value.hex() == value
        assert [x.hex() for x in result.best_frame.v[0].tolist()] == v
        assert [x.hex() for x in result.best_frame.b.tolist()] == [b]
        assert (result.witness.mu.hex(), result.witness.sigma2.hex()) == witness

    def test_refinement_builds_no_measure_per_step(self, q3, monkeypatch):
        # steps are screened and scored on floats: the only Gaussian1D a
        # search builds is its witness
        p = Gaussian1D(mu=0.0, sigma2=0.25)
        built = []
        init = Gaussian1D.__init__

        def counting(self, mu, sigma2):
            built.append(self)
            init(self, mu, sigma2)

        monkeypatch.setattr(Gaussian1D, "__init__", counting)
        result = search_projection_divergence(p, q3, "kl", budget=1000, seed=42)
        assert built == [result.witness]

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
        # the drawn frames are the leading rows of one normal matrix, ranked
        # in blocks, so a larger budget extends the same rows (9000 crosses
        # a block boundary) and the pre-refinement minimum is exactly
        # monotone; the refined value can wobble within its convergence
        # tolerance. The generator's draws are recorded, and a search with
        # no refinement steps returns the draw stage's own best frame
        p = Gaussian1D(mu=0.0, sigma2=0.25)
        blocks = []
        real_rng = np.random.default_rng

        class Recording:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def standard_normal(self, shape):
                out = self.rng.standard_normal(shape)
                blocks.append(out.copy())
                return out

        def kl_at(v):
            return kl_gaussian_1d(p, Gaussian1D(0.0, float(v @ q3.sigma @ v)))

        budgets = (50, 1000, 9000)
        full, draws, drawn_best = [], [], []
        for budget in budgets:
            full.append(search_projection_divergence(p, q3, "kl", budget, 3).best_value)
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "default_rng", Recording)
                patch.setattr(augmented, "_REFINE_STEPS", 0)
                blocks.clear()
                drawn_best.append(search_projection_divergence(p, q3, "kl", budget, 3))
            assert blocks.pop().shape == (0, 3)
            draws.append(np.concatenate(blocks))
        assert [len(rows) for rows in draws] == list(budgets)
        assert [len(b) for b in blocks] == [8192, 808]
        for short, long in zip(draws, draws[1:]):
            assert np.array_equal(short, long[: len(short)])
        units = draws[-1] / np.linalg.norm(draws[-1], axis=1, keepdims=True)
        draw_min = [min(map(kl_at, units[:budget])) for budget in budgets]
        assert all(a >= b for a, b in zip(draw_min, draw_min[1:]))
        # the draw stage takes a drawn row, normalized, and its minimum
        for result, rows, want in zip(drawn_best, draws, draw_min):
            v = result.best_frame.v[0]
            assert np.allclose(np.linalg.norm(v), 1.0, atol=1e-15)
            assert np.min(np.linalg.norm(units[: len(rows)] - v, axis=1)) <= 1e-15
            assert result.best_value == pytest.approx(want, rel=1e-14)
        stage = [result.best_value for result in drawn_best]
        assert all(a >= b for a, b in zip(stage, stage[1:]))
        assert all(f <= d + 1e-15 for f, d in zip(full, draw_min))
        assert all(a >= b - 1e-6 for a, b in zip(full, full[1:]))

    def test_refinement_never_loses_to_the_draw_stage(self, monkeypatch):
        # steps are taken on the expanded quotient, and the refined frame is
        # scored once from its own vector and kept only if it beats the
        # draw stage's winner: no slack on either side. Every fifth
        # covariance is a rotated c I, where steps win by rounding alone
        rng = np.random.default_rng(36)
        for trial in range(200):
            n = int(rng.integers(2, 9))
            if trial % 5 == 4:
                eigs = np.full(n, math.exp(rng.uniform(-12.0, 12.0)))
            else:
                eigs = np.sort(np.exp(rng.uniform(-12.0, 12.0, size=n)))
            sigma = oracles.random_spd_matrix(n, eigs, rng)
            q = GaussianND(nu=rng.normal(size=n), sigma=sigma)
            zeta_min, zeta_max = float(q.eigenvalues[0]), float(q.eigenvalues[-1])
            sigma2 = (
                math.exp(rng.uniform(math.log(zeta_min), math.log(zeta_max))),
                zeta_min * math.exp(-rng.uniform(0.01, 12.0)),
                zeta_max * math.exp(rng.uniform(0.01, 12.0)),
            )[trial % 3]
            p = Gaussian1D(mu=float(rng.normal()), sigma2=sigma2)
            budget, seed = int(rng.integers(1, 1001)), int(rng.integers(2**31))
            result = search_projection_divergence(p, q, "kl", budget, seed)
            with monkeypatch.context() as patch:
                patch.setattr(augmented, "_REFINE_STEPS", 0)
                drawn = search_projection_divergence(p, q, "kl", budget, seed)
            assert result.best_value <= drawn.best_value
            v = result.best_frame.v[0]
            s = float(np.einsum("i,ij,j->", v, q.sigma, v))
            own = kl_gaussian_1d(p, Gaussian1D(p.mu, min(max(s, zeta_min), zeta_max)))
            assert result.best_value == own

    def test_cancelled_step_is_skipped(self, monkeypatch):
        # a first perturbation -v / 0.5 cancels the draw stage's winner v at
        # the first step size, 0.5: v + h z is exactly 0 and its expanded
        # D = |v + h z|^2 is rounding noise, which can pass the screen. The
        # step is skipped, as a nan perturbation (which no screen passes)
        # is, and the search ends on a finite value and an orthonormal frame
        real_rng = np.random.default_rng
        shapes, first = [], []

        class Recording:
            # the seed's generator with the refinement's first row replaced
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def standard_normal(self, shape):
                out = self.rng.standard_normal(shape)
                if shapes:
                    out[0] = first[-1]
                shapes.append(shape)
                return out

        rng = real_rng(7)
        for trial in range(300):
            n = int(rng.integers(2, 9))
            eigs = np.sort(np.exp(rng.uniform(-3.0, 3.0, size=n)))
            sigma = oracles.random_spd_matrix(n, eigs, rng)
            q = GaussianND(nu=rng.normal(size=n), sigma=sigma)
            factor = math.exp(rng.uniform(0.5, 8.0))
            sigma2 = eigs[-1] * factor if trial % 2 else eigs[0] / factor
            p = Gaussian1D(0.0, float(sigma2))
            seed = int(rng.integers(2**31))
            with monkeypatch.context() as patch:
                patch.setattr(augmented, "_REFINE_STEPS", 0)
                drawn = search_projection_divergence(p, q, "kl", 1, seed)
            results = []
            for row in (-drawn.best_frame.v[0] / 0.5, np.full(n, math.nan)):
                shapes.clear()
                first.append(row)
                with monkeypatch.context() as patch:
                    patch.setattr(np.random, "default_rng", Recording)
                    results.append(search_projection_divergence(p, q, "kl", 1, seed))
                assert shapes == [(1, n), (100, n)]
            cancelled, skipped = results
            assert math.isfinite(cancelled.best_value)
            assert cancelled.best_value <= drawn.best_value
            StiefelFrame(cancelled.best_frame.v, cancelled.best_frame.b)
            assert cancelled.best_value == skipped.best_value
            assert np.array_equal(cancelled.best_frame.v, skipped.best_frame.v)

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
        blocks = oracles.mean_matched_kl(p, q, np.eye(2))
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
        with pytest.raises(DomainError, match="seed must be >= 0"):
            search_projection_divergence(p, q3, "kl", budget=10, seed=-1)
        # a count or seed that is not an integer, not a TypeError from range
        # or numpy's SeedSequence
        for budget, seed, message in (
            (1000.0, 1, "budget must be an integer, got 1000.0"),
            ("10", 1, "budget must be an integer, got '10'"),
            (10, 1.5, "seed must be an integer, got 1.5"),
            (10, None, "seed must be an integer, got None"),
        ):
            with pytest.raises(DomainError, match=f"^{message}$"):
                search_projection_divergence(p, q3, "kl", budget=budget, seed=seed)
        result = search_projection_divergence(
            p, q3, "kl", budget=np.int64(10), seed=np.int32(1)
        )
        assert result.n_samples == 110


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
                frame = unit_row_frame(np.random.default_rng([seed, 0, i]), 3)
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
