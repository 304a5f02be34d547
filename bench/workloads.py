"""The four workloads: inputs made from a seed, one operation, its checks.

Each workload builds a fixed-size pool of inputs from its seed; the timed
loop runs operation i on pool item i mod len(pool), so every run has the
same mix of input kinds in the same order. ``check`` runs after the timed
loop and returns the failure kinds of one output (empty when it passes);
its references come from ``refs``, which shares no code with divbounds.

Nothing here imports numpy, mpmath or divbounds at module level: the
import of the library is part of the measured set-up.
"""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150.0  # far above the slowest operation, a 2-3 s verify

# -- tolerances ----------------------------------------------------------
# Stated by the library: the sandwich report's slack (pinsker.REPORT_TOL),
# the Gaussian TV error budget (measures.GAUSS_TV_ABS_TOL), the residual
# of invert_poly_bound, and reid-vs-vajda agreement (acceptance criterion 1).
REPORT_TOL = 1e-9
GAUSS_TV_ABS = 1e-9
POLY_RESIDUAL = 1e-10
REID_ABS = 1e-6
# Stated here, where the library states none:
# - a lower bound may exceed the true minimum by rounding only;
CURVE_EXCESS_REL = 1e-12
# - the curve value agrees with the reference to 1e-9 relative;
CURVE_REL = 1e-9
# - below the smallest normal double no relative accuracy is possible;
TINY_ABS = 2.2250738585072014e-308
# - closed forms (discrete and Gaussian KL, augmented KL) agree to 1e-10
#   relative, with an absolute floor for the rounding of log(p/q) or of
#   x - 1 - log x when the two measures nearly coincide.
CLOSED_REL = 1e-10
CLOSED_ABS = 1e-15
# - a pushforward's mean and variance agree to 1e-12 relative.
PUSH_REL = 1e-12

# Failure kinds whose cause is known and written down in bench/README.md.
# They count as failed operations; only a failure outside this list makes
# a run incorrect. Each is named only up to the largest error its cause
# explains; a larger error gets the plain kind.
KNOWN_DEFECTS = {
    "vajda.exceeds_min:tiny_delta_floor",
    "vajda.accuracy:tiny_delta_floor",
    "vajda.exceeds_min:l_at_cancellation",
    "vajda.accuracy:l_at_cancellation",
    "reid.accuracy:near_two",
}
# - tiny_delta_floor: the inversion halves [0, 500] at most 200 times, so
#   t is known only to within T_RES = 500 / 2^199 (twice the final
#   bracket, for slack), and below t = 1e-4 the curve is
#   L = t^2/2 with t close to delta: L is off by at most
#   T_RES * (delta + T_RES). Every delta below about 3e-58 returns the same
#   1.21e-116; the measured error is at most 0.2 of this bound.
T_RES = 500.0 / 2.0**199
# - l_at_cancellation: from t = 1e-4 up, _l_at sums three terms of size
#   about 1 into about t^2/2, so its absolute error is a few units of
#   2^-52 (measured: at most 2.75 of them over delta in [5e-5, 1]).
L_AT_FROM = 5e-5
L_AT_ABS = 4 * 2.0**-52
# - near_two: reid_lower_bound's golden section stops at a gamma bracket
#   of 1e-12, and the objective's slope there grows as 1/(2 - delta), so
#   its value exceeds the minimum by at most about 1e-12 / (2 - delta)
#   (measured: at most 3.4e-13 / (2 - delta) for 2 - delta in [3e-13, 1e-3]).
GOLDEN_X_TOL = 1e-12


def _curve_kind(check: str, delta: float, error: float) -> str:
    """Name a curve failure by the known defect that explains an error
    this large at this delta, or by the check alone when none does."""
    if error <= T_RES * (delta + T_RES):
        return f"{check}:tiny_delta_floor"
    if delta >= L_AT_FROM and error <= L_AT_ABS:
        return f"{check}:l_at_cancellation"
    return check


def _reid_kind(delta: float, excess) -> str:
    """Name a reid failure; ``excess`` is reid's value minus the minimum."""
    if 0 < excess and excess * (2.0 - delta) <= GOLDEN_X_TOL:
        return "reid.accuracy:near_two"
    return "reid.accuracy"


def _close(value, ref, rel, abs_tol=0.0) -> bool:
    return abs(value - ref) <= rel * abs(ref) + abs_tol


def _uniform_simplex(rng: random.Random, k: int) -> list:
    draws = [rng.expovariate(1.0) for _ in range(k)]
    total = math.fsum(draws)
    return [x / total for x in draws]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_child(argv: list):
    """Run one program as a subprocess; returns (exit code, stdout, stderr)."""
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=_child_env(), timeout=CHILD_TIMEOUT_S, cwd=ROOT
    )
    return proc.returncode, proc.stdout, proc.stderr


def cli_argv(args: list) -> list:
    return [sys.executable, "-m", "divbounds", *args]


class Workload:
    name = ""
    in_process = True
    pool_size = 0
    window_ops = 1  # operations in one full cycle of the input pattern

    def setup(self, seed: int) -> list:
        """Import the library, build the pool, and warm up."""
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def check(self, item, out) -> list:
        raise NotImplementedError

    def kind(self, item) -> str:
        """The input kind of a pool item; results are also reported per kind."""
        return self.name

    def record(self, pool) -> dict:
        return {}


# -- scalar --------------------------------------------------------------


class Scalar(Workload):
    """One discrete pair per operation, bounded with single calls."""

    name = "scalar"
    pool_size = 600
    window_ops = 600
    # fixed pattern per block of 20: 14 random pairs, 2 near-identical,
    # 2 near-disjoint, 2 standalone curve calls at tiny delta
    BLOCK = ("pair",) * 14 + ("identical",) * 2 + ("disjoint",) * 2 + ("tiny",) * 2

    def setup(self, seed):
        import numpy as np
        from divbounds import measures, pinsker, vajda

        self.measures, self.pinsker, self.vajda = measures, pinsker, vajda
        rng = random.Random(f"scalar:{seed}")
        pool = []
        for i in range(self.pool_size):
            kind = self.BLOCK[i % len(self.BLOCK)]
            if kind == "tiny":
                pool.append(("tiny", 10.0 ** rng.uniform(-300, -6)))
                continue
            k = rng.randint(2, 6)
            p = _uniform_simplex(rng, k)
            if kind == "pair":
                q = _uniform_simplex(rng, k)
            elif kind == "identical":
                # relative perturbations of 1e-9 .. 1e-3, renormalised
                scale = 10.0 ** rng.uniform(-9, -3)
                q = [x * (1.0 + scale * rng.uniform(-1, 1)) for x in p]
                total = math.fsum(q)
                q = [x / total for x in q]
            else:
                # p on the first point, q on the rest; overlaps 1e-12 .. 1e-4
                eps_p = 10.0 ** rng.uniform(-12, -4)
                eps_q = 10.0 ** rng.uniform(-12, -4)
                p = [1.0 - eps_p] + [eps_p / (k - 1)] * (k - 1)
                rest = _uniform_simplex(rng, k - 1)
                q = [eps_q] + [(1.0 - eps_q) * x for x in rest]
            delta = math.fsum(abs(a - b) for a, b in zip(p, q))
            pool.append((kind, np.array(p), np.array(q), delta))
        for item in pool[: len(self.BLOCK)]:
            self.op(item)
        return pool

    def kind(self, item):
        return item[0]

    def op(self, item):
        if item[0] == "tiny":
            return self.vajda.vajda_lower_bound(item[1])
        _, pa, qa, delta = item
        p = self.measures.DiscreteDistribution(pa)
        q = self.measures.DiscreteDistribution(qa)
        rep = self.pinsker.check_sandwich_same_dim(p, q)
        reid = self.vajda.reid_lower_bound(delta)
        delta_star = self.vajda.invert_poly_bound(rep.divergence)
        return (rep.poly_lb, rep.vajda_lb, rep.divergence, rep.upper, rep.all_hold,
                reid.value, delta_star)

    def check(self, item, out):
        import refs

        if item[0] == "tiny":
            delta = item[1]
            return self._check_curve(delta, delta, out)
        _, pa, qa, _ = item
        poly_lb, vajda_lb, kl, upper, all_hold, reid, delta_star = out
        delta = float(refs.tv_variational(pa, qa))
        clamped = min(delta, float(refs.curve_delta_max()))
        failures = self._check_curve(delta, clamped, vajda_lb)
        kl_ref = refs.kl_discrete(pa, qa)
        if not _close(kl, kl_ref, CLOSED_REL, CLOSED_ABS):
            failures.append("measures.kl_discrete")
        reid_excess = reid - refs.curve_min_kl(delta)
        if abs(reid_excess) > REID_ABS:
            failures.append(_reid_kind(delta, reid_excess))
        if abs(refs.poly_bound(delta_star) - Fraction(kl)) > POLY_RESIDUAL:
            failures.append("vajda.invert_poly_residual")
        ordered = (
            poly_lb <= vajda_lb + REPORT_TOL
            and vajda_lb <= kl + REPORT_TOL
            and kl <= upper + REPORT_TOL
        )
        if not (all_hold and ordered) or upper < kl_ref - (CLOSED_REL * kl_ref + CLOSED_ABS):
            failures.append("pinsker.sandwich_chain")
        return failures

    @staticmethod
    def _check_curve(delta, clamped, value):
        """The library's curve value at ``clamped`` against the reference.

        ``delta`` is the pair's TV; the value may never exceed the true
        minimum there, and must match the reference at ``clamped``, where
        the library evaluates near-disjoint pairs.
        """
        import refs

        failures = []
        true_min = refs.curve_min_kl(delta)
        if value > true_min * (1 + CURVE_EXCESS_REL) + TINY_ABS:
            failures.append(_curve_kind("vajda.exceeds_min", delta, value - true_min))
        at = true_min if clamped == delta else refs.curve_min_kl(clamped)
        if not _close(value, at, CURVE_REL, TINY_ABS):
            failures.append(_curve_kind("vajda.accuracy", clamped, abs(value - at)))
        return failures

    def record(self, pool):
        return {"pool": len(pool), "block": list(self.BLOCK)}


# -- gaussian ------------------------------------------------------------


class Gaussian(Workload):
    """One pair of a 1-D and an n-D Gaussian per operation."""

    name = "gaussian"
    pool_size = 40
    window_ops = 10
    # fixed pattern per block of 10: sigma^2 inside, below and above the
    # spectrum, near-identical to an end of it, and far-apart means
    BLOCK = ("inside", "inside", "below", "below", "above", "above",
             "identical_below", "identical_above", "disjoint_below", "disjoint_above")
    ATV_BUDGET = 64  # the `sandwich` subcommand's default
    SEARCH_BUDGET = 1000  # the `gaussian-akl` subcommand's default

    def setup(self, seed):
        import numpy as np
        from divbounds import augmented, measures, pinsker

        self.augmented, self.measures, self.pinsker = augmented, measures, pinsker
        rng = random.Random(f"gaussian:{seed}")
        pool = []
        for i in range(self.pool_size):
            kind = self.BLOCK[i % len(self.BLOCK)]
            # the dimension follows the position in the block, so every
            # block costs about the same whatever the seed
            n = 2 + i % len(self.BLOCK) % 7
            evs = sorted(math.exp(rng.uniform(math.log(0.25), math.log(4.0))) for _ in range(n))
            g = np.array([[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)])
            basis, _ = np.linalg.qr(g)
            sigma = basis @ np.diag(evs) @ basis.T
            sigma = 0.5 * (sigma + sigma.T)
            far = kind.startswith("disjoint")
            nu = np.array([rng.gauss(0.0, 1.0) for _ in range(n)]) * (50.0 if far else 1.0)
            zmin, zmax = evs[0], evs[-1]
            if kind == "inside":
                s2 = math.exp(rng.uniform(math.log(zmin), math.log(zmax)))
            elif kind.endswith("below"):
                ratio = 1.0 - 1e-9 if kind == "identical_below" else math.exp(-rng.uniform(0.05, 10.0))
                s2 = zmin * ratio
            else:
                ratio = 1.0 + 1e-9 if kind == "identical_above" else math.exp(rng.uniform(0.05, 10.0))
                s2 = zmax * ratio
            nearest = min(range(n), key=lambda j: abs(math.log(s2 / evs[j])))
            conv = ("sup", "variational")[i % 2]
            pool.append({
                "kind": kind,
                "mu": rng.gauss(0.0, 1.0),
                "s2": s2,
                "nu": nu,
                "sigma": sigma,
                "evs": evs,
                "v": basis[:, nearest].copy(),
                "zeta": evs[nearest],
                "conv": conv,
                "seed": rng.randrange(2**31),
            })
        self.op(pool[0])
        return pool

    def kind(self, item):
        return item["kind"]

    def op(self, item):
        m, a, pk = self.measures, self.augmented, self.pinsker
        conv = m.TvConvention(item["conv"])
        p = m.Gaussian1D(mu=item["mu"], sigma2=item["s2"])
        q = m.GaussianND(nu=item["nu"], sigma=item["sigma"])
        frame = a.StiefelFrame(v=item["v"].reshape(1, -1), b=[0.0])
        beta = a.pushforward_gaussian(q, frame)
        kl = m.kl_gaussian_1d(p, beta)
        tv = m.tv_gaussian_1d(p, beta, conv)
        akl = a.gaussian_akl(p, q)
        atv = a.atv_gaussian(p, q, budget=self.ATV_BUDGET, seed=item["seed"], conv=conv)
        bounds = pk.AugmentedDensityBounds(
            emb=m.DensityBounds(m=0.5, M=2.0), proj=m.DensityBounds(m=0.25, M=4.0)
        )
        rep = pk.check_sandwich_augmented(p, q, bounds, atv=atv, conv=conv)
        search = a.search_projection_divergence(
            p, q, objective="kl", budget=self.SEARCH_BUDGET, seed=item["seed"]
        )
        return (beta.mu, beta.sigma2, kl, tv, akl, atv, rep.poly_lb, rep.vajda_lb,
                rep.divergence, search.best_value)

    def check(self, item, out):
        import refs

        b_mu, b_s2, kl, tv, akl, atv, poly_lb, vajda_lb, divergence, search = out
        scale = 1.0 if item["conv"] == "sup" else 2.0
        failures = []
        mean_ref = math.fsum(x * y for x, y in zip(item["v"], item["nu"]))
        mean_scale = math.fsum(abs(x * y) for x, y in zip(item["v"], item["nu"]))
        if abs(b_mu - mean_ref) > PUSH_REL * (1.0 + mean_scale) or not _close(
            b_s2, item["zeta"], PUSH_REL
        ):
            failures.append("augmented.pushforward")
        if not _close(kl, refs.kl_gaussian(item["mu"], item["s2"], b_mu, b_s2), CLOSED_REL, CLOSED_ABS):
            failures.append("measures.kl_gaussian_1d")
        tv_ref = scale * refs.tv_gaussian_sup(item["mu"], item["s2"], b_mu, b_s2)
        if abs(tv - tv_ref) > GAUSS_TV_ABS:
            failures.append("measures.tv_gaussian_1d")
        akl_ref = refs.akl_gaussian(item["s2"], item["evs"][0], item["evs"][-1])
        if not _close(akl, akl_ref, CLOSED_REL, CLOSED_ABS):
            failures.append("augmented.gaussian_akl")
        if search < akl_ref - (CLOSED_REL * akl_ref + CLOSED_ABS):
            failures.append("augmented.search_below_akl")
        inside = item["evs"][0] <= item["s2"] <= item["evs"][-1]
        atv_ref = 0 if inside else scale * refs.tv_gaussian_sup(
            item["mu"], item["s2"], item["mu"], item["zeta"]
        )
        if abs(atv - atv_ref) > GAUSS_TV_ABS:
            failures.append("augmented.atv_gaussian")
        if not (poly_lb <= vajda_lb + REPORT_TOL and vajda_lb <= divergence + REPORT_TOL):
            failures.append("pinsker.augmented_chain")
        return failures

    def record(self, pool):
        return {"pool": len(pool), "block": list(self.BLOCK),
                "atv_budget": self.ATV_BUDGET, "search_budget": self.SEARCH_BUDGET}


# -- subprocess workloads ------------------------------------------------


class _Subprocess(Workload):
    """Operations are CLI invocations; traced runs call cli.main in-process."""

    in_process = False
    WARMUP = ["vajda", "--delta", "1", "--convention", "variational"]

    def __init__(self):
        self.traced_in_process = False
        self.cli = None

    def setup(self, seed):
        pool = self.make_pool(seed)
        code, _, err = run_child(cli_argv(self.WARMUP))
        if code != 0:
            raise RuntimeError(f"warm-up call failed with exit code {code}: {err.strip()}")
        return pool

    def use_in_process(self):
        """Run operations through cli.main in this process from now on."""
        from divbounds import cli

        self.cli = cli
        self.traced_in_process = True

    def op(self, item):
        args = item["args"]
        if not self.traced_in_process:
            return run_child(cli_argv(args))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(args))
        return code, out.getvalue(), err.getvalue()

    def make_pool(self, seed):
        raise NotImplementedError

    def record(self, pool):
        return {"pool": len(pool), "argv": [cli_argv(item["args"]) for item in pool]}


class Verify(_Subprocess):
    """`divbounds verify` at fixed trials, one subprocess at a time."""

    name = "verify"
    pool_size = 8
    TRIALS = 10_000

    def make_pool(self, seed):
        rng = random.Random(f"verify:{seed}")
        return [
            {"args": ["verify", "--trials", str(self.TRIALS), "--seed", str(rng.randrange(2**31))]}
            for _ in range(self.pool_size)
        ]

    def check(self, item, out):
        code, stdout, _ = out
        failures = [] if code == 0 else [f"verify.exit_code_{code}"]
        try:
            report = json.loads(stdout)
        except ValueError:
            return failures + ["verify.output"]
        if report.get("all_ok") is not True:
            failures.append("verify.all_ok")
        fuzz = report.get("fuzz", {})
        if fuzz.get("violations") != 0 or fuzz.get("trials") != self.TRIALS:
            failures.append("verify.violations")
        return failures


def _fmt(x: float) -> str:
    return repr(float(x))


class Cli(_Subprocess):
    """Short subcommands in a fixed mix, one subprocess at a time."""

    name = "cli"
    MIX = ("divergence_discrete", "divergence_gaussian", "vajda", "poly_delta", "poly_xi",
           "rp_simple", "rp_four", "curve", "sandwich")
    pool_size = 5 * len(MIX)
    window_ops = len(MIX)

    def make_pool(self, seed):
        rng = random.Random(f"cli:{seed}")
        pool = []
        for i in range(self.pool_size):
            cmd = self.MIX[i % len(self.MIX)]
            conv = rng.choice(("sup", "variational"))
            span = 1.0 if conv == "sup" else 2.0
            item = {"cmd": cmd, "conv": conv}
            if cmd in ("divergence_discrete", "sandwich"):
                k = rng.randint(2, 6)
                item["p"] = _uniform_simplex(rng, k)
                item["q"] = _uniform_simplex(rng, k)
                lit = [json.dumps({"type": "discrete", "probs": item[x]}) for x in "pq"]
                args = [cmd.split("_")[0], "--p", lit[0], "--q", lit[1]]
                if cmd != "sandwich":
                    args += ["--convention", conv]
            elif cmd == "divergence_gaussian":
                item["a"] = (rng.gauss(0, 2), math.exp(rng.uniform(-2.3, 2.3)))
                item["b"] = (rng.gauss(0, 2), math.exp(rng.uniform(-2.3, 2.3)))
                lit = [json.dumps({"type": "gaussian1d", "mu": m, "sigma2": s}) for m, s in (item["a"], item["b"])]
                args = ["divergence", "--p", lit[0], "--q", lit[1], "--convention", conv]
            elif cmd in ("vajda", "poly_delta"):
                item["delta"] = rng.uniform(0.01, 1.9) * span / 2.0
                args = [cmd.split("_")[0], "--delta", _fmt(item["delta"]), "--convention", conv]
            elif cmd == "poly_xi":
                item["xi"] = 10.0 ** rng.uniform(-4, 0.7)
                args = ["poly", "--xi", _fmt(item["xi"])]
            elif cmd in ("rp_simple", "rp_four"):
                item["delta"] = rng.uniform(0.0, span)
                item["bounds"] = [(rng.uniform(0.05, 0.95), rng.uniform(1.05, 20.0))
                                  for _ in range(1 if cmd == "rp_simple" else 2)]
                args = ["reverse-pinsker", "--delta", _fmt(item["delta"]), "--convention", conv]
                names = (("--m", "--M"),) if cmd == "rp_simple" else (("--m1", "--M1"), ("--m2", "--M2"))
                for (lo_flag, hi_flag), (m, big) in zip(names, item["bounds"]):
                    args += [lo_flag, _fmt(m), hi_flag, _fmt(big)]
            else:  # curve
                item["t"] = (10.0 ** rng.uniform(-5, -1), 10.0 ** rng.uniform(0, 2.6))
                item["format"] = rng.choice(("csv", "json"))
                args = ["curve", "--t-min", _fmt(item["t"][0]), "--t-max", _fmt(item["t"][1]),
                        "--points", "8", "--format", item["format"]]
            item["args"] = args
            pool.append(item)
        return pool

    def kind(self, item):
        return item["cmd"]

    def expected(self, item):
        """The in-process library result the subcommand should print."""
        from divbounds import measures, pinsker, vajda

        m = measures
        conv = m.TvConvention(item["conv"])
        cmd = item["cmd"]
        if cmd in ("divergence_discrete", "sandwich"):
            p = m.DiscreteDistribution(item["p"])
            q = m.DiscreteDistribution(item["q"])
            if cmd == "sandwich":
                return pinsker.check_sandwich_same_dim(p, q).as_dict()
            return {"kl": m.kl_discrete(p, q), "tv": m.tv_discrete(p, q, conv), "convention": conv.value}
        if cmd == "divergence_gaussian":
            a, b = (m.Gaussian1D(mu=mu, sigma2=s) for mu, s in (item["a"], item["b"]))
            return {"kl": m.kl_gaussian_1d(a, b), "tv": m.tv_gaussian_1d(a, b, conv), "convention": conv.value}
        if cmd == "vajda":
            point = vajda.curve_point_for_delta(item["delta"], conv)
            reid = vajda.reid_lower_bound(item["delta"], conv)
            return {
                "delta_variational": m.convert_tv(item["delta"], conv, m.TvConvention.VARIATIONAL),
                "vajda_lb": point.l_value,
                "reid_lb": reid.value,
                "reid_gamma": reid.gamma_star,
                "parameter_t": point.t,
            }
        if cmd == "poly_delta":
            d = m.convert_tv(item["delta"], conv, m.TvConvention.VARIATIONAL)
            return {"delta_variational": d, "poly_lb": vajda.poly_lower_bound(d), "convention": conv.value}
        if cmd == "poly_xi":
            star = vajda.invert_poly_bound(item["xi"])
            return {"xi": item["xi"], "delta_upper_bound_variational": star,
                    "poly_at_bound": vajda.poly_lower_bound(star)}
        if cmd in ("rp_simple", "rp_four"):
            ups = [pinsker.reverse_pinsker(item["delta"], conv, m.DensityBounds(m=lo, M=hi))
                   for lo, hi in item["bounds"]]
            if cmd == "rp_simple":
                return {"upper": ups[0], "convention": conv.value}
            return {"upper": max(ups), "u1": ups[0], "u2": ups[1], "convention": conv.value}
        points = vajda.emit_curve(item["t"][0], item["t"][1], 8)
        return [[pt.t, pt.delta, pt.l_value] for pt in points]

    def check(self, item, out):
        code, stdout, _ = out
        if code != 0:
            return [f"cli.{item['cmd']}.exit_code_{code}"]
        want = self.expected(item)
        try:
            if item["cmd"] == "curve" and item["format"] == "csv":
                lines = stdout.splitlines()
                got = [[float(x) for x in line.split(",")] for line in lines[1:]]
                same = lines[0] == "t,delta,l_value" and got == want
            else:
                got = json.loads(stdout)
                same = got == want and (not isinstance(want, dict) or list(got) == list(want))
        except ValueError:
            same = False
        return [] if same else [f"cli.{item['cmd']}.stdout"]


WORKLOADS = {w.name: w for w in (Verify, Scalar, Gaussian, Cli)}
