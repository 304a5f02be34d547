"""Tests of the benchmark itself: its checks, its spans and its output.

Run with ``PYTHONPATH=src python -m pytest bench``; they take a few
seconds and call the library in-process only.
"""

import copy
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent
NUMBER = re.compile(r"(?<=[:,\[\n])-?\d[\d.]*(?:e[-+]?\d+)?")


def _replace(out, index, value):
    out = list(out)
    out[index] = value
    return tuple(out)


@pytest.fixture(scope="module")
def scalar():
    wl = workloads.Scalar()
    wl.pool = wl.setup(seed=7)
    return wl


@pytest.fixture(scope="module")
def gaussian():
    wl = workloads.Gaussian()
    wl.pool_size = 3  # inside, inside, below
    wl.pool = wl.setup(seed=7)
    return wl


# -- each check fails on a perturbed value --------------------------------


def test_scalar_pair_checks_pass_then_fail_when_perturbed(scalar):
    item = next(
        it for it in scalar.pool if it[0] == "pair" and 0.3 < it[3] < 1.5
    )
    out = scalar.op(item)
    assert scalar.check(item, out) == []
    poly_lb, vajda_lb, kl, upper, all_hold, reid, delta_star = out
    cases = {
        "vajda.exceeds_min": _replace(out, 1, vajda_lb * (1 + 1e-6)),
        "vajda.accuracy": _replace(out, 1, vajda_lb * (1 - 1e-6)),
        "measures.kl_discrete": _replace(out, 2, kl * (1 + 1e-6)),
        "reid.accuracy": _replace(out, 5, reid + 2e-6),
        "vajda.invert_poly_residual": _replace(out, 6, delta_star * (1 + 1e-6)),
        "pinsker.sandwich_chain": _replace(out, 4, False),
    }
    for kind, bad in cases.items():
        assert kind in scalar.check(item, bad), kind
    below_kl = _replace(out, 3, kl - 1e-6)
    assert "pinsker.sandwich_chain" in scalar.check(item, below_kl)


def test_scalar_tiny_delta_check(scalar):
    delta = 1e-20
    item = ("tiny", delta)
    exact = delta**2 / 2
    assert scalar.check(item, exact) == []
    assert "vajda.exceeds_min" in scalar.check(item, exact * (1 + 1e-6))


def test_tiny_delta_floor_is_named():
    # the value vajda_lower_bound(1e-60) returns at the time of writing
    kinds = workloads.Scalar().check(("tiny", 1e-60), 1.210184973390412e-116)
    assert "vajda.exceeds_min:tiny_delta_floor" in kinds
    assert set(kinds) <= workloads.KNOWN_DEFECTS


def test_known_defects_are_named_only_up_to_their_size():
    import refs

    wl = workloads.Scalar()
    ulp1 = 2.0**-52
    # far above the tiny-delta floor: not explained by the inversion's resolution
    kinds = wl.check(("tiny", 1e-60), 1e-100)
    assert sorted(kinds) == ["vajda.accuracy", "vajda.exceeds_min"]
    # a few units of 2^-52 at delta = 1e-3 is the _l_at cancellation ...
    ref = float(refs.curve_min_kl(1e-3))
    kinds = wl.check(("tiny", 1e-3), ref + 3 * ulp1)
    assert sorted(kinds) == ["vajda.accuracy:l_at_cancellation",
                             "vajda.exceeds_min:l_at_cancellation"]
    assert wl.check(("tiny", 1e-3), ref - 3 * ulp1) == ["vajda.accuracy:l_at_cancellation"]
    # ... but a lower bound raised by 1e-6 relative is not
    kinds = wl.check(("tiny", 1e-3), ref * (1 + 1e-6))
    assert sorted(kinds) == ["vajda.accuracy", "vajda.exceeds_min"]
    # reid near delta = 2: only an excess the golden section's bracket explains
    near_two = 2.0 - 1e-9
    assert workloads._reid_kind(near_two, 1e-4) == "reid.accuracy:near_two"
    assert workloads._reid_kind(near_two, 1e-2) == "reid.accuracy"
    assert workloads._reid_kind(near_two, -1e-4) == "reid.accuracy"
    assert workloads._reid_kind(1.0, 2e-6) == "reid.accuracy"


def test_gaussian_checks_pass_then_fail_when_perturbed(gaussian):
    item = gaussian.pool[2]  # sigma^2 below the spectrum: every value nonzero
    out = gaussian.op(item)
    assert gaussian.check(item, out) == []
    b_mu, b_s2, kl, tv, akl, atv, poly_lb, vajda_lb, divergence, search = out
    cases = {
        "augmented.pushforward": _replace(out, 1, b_s2 * (1 + 1e-9)),
        "measures.kl_gaussian_1d": _replace(out, 2, kl * (1 + 1e-6)),
        "measures.tv_gaussian_1d": _replace(out, 3, tv + 2e-9),
        "augmented.gaussian_akl": _replace(out, 4, akl * (1 + 1e-6)),
        "augmented.atv_gaussian": _replace(out, 5, atv - 2e-9),
        "pinsker.augmented_chain": _replace(out, 7, divergence + 1e-6),
        "augmented.search_below_akl": _replace(out, 9, akl * (1 - 1e-6)),
    }
    for kind, bad in cases.items():
        assert kind in gaussian.check(item, bad), kind


def _verify_stdout(all_ok=True, violations=0, trials=workloads.Verify.TRIALS):
    return json.dumps({"all_ok": all_ok, "fuzz": {"violations": violations, "trials": trials}})


def test_verify_checks():
    wl = workloads.Verify()
    item = wl.make_pool(seed=3)[0]
    assert wl.check(item, (0, _verify_stdout(), "")) == []
    assert wl.check(item, (2, _verify_stdout(), "")) == ["verify.exit_code_2"]
    assert wl.check(item, (0, _verify_stdout(all_ok=False), "")) == ["verify.all_ok"]
    assert wl.check(item, (0, _verify_stdout(violations=1), "")) == ["verify.violations"]
    assert wl.check(item, (0, "not json", "")) == ["verify.output"]


def test_cli_checks_in_process():
    wl = workloads.Cli()
    wl.use_in_process()
    pool = wl.make_pool(seed=5)
    for item in pool[: len(wl.MIX)]:
        code, stdout, stderr = wl.op(item)
        assert wl.check(item, (code, stdout, stderr)) == [], item["cmd"]
        assert wl.check(item, (1, stdout, stderr)) == [f"cli.{item['cmd']}.exit_code_1"]
        # move the first number of the output by one unit in the last place
        first = NUMBER.search(stdout)
        bumped = repr(math.nextafter(float(first.group()), math.inf))
        bad = stdout[: first.start()] + bumped + stdout[first.end():]
        assert wl.check(item, (0, bad, stderr)) == [f"cli.{item['cmd']}.stdout"], item["cmd"]


def test_raised_and_nondeterministic_operations_fail():
    class Flaky(workloads.Workload):
        name = "flaky"
        pool = [0, 1]

        def __init__(self):
            self.calls = 0

        def op(self, item):
            self.calls += 1
            if item == 1:
                raise ValueError("boom")
            return self.calls

        def check(self, item, out):
            return []

    wl = Flaky()
    loop = run.timed_loop(wl, wl.pool, seconds=0.1)
    assert loop.ops >= 4
    result = run.check_loops(wl, [loop])
    assert result["kinds"]["raised:ValueError"] == 1
    # item 0 returns a new value every call, so its repeats differ from its first
    assert result["kinds"]["nondeterministic"] == 1
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert result["unexpected"] == ["nondeterministic", "raised:ValueError"]


def test_failure_counts_follow_from_the_seed_not_the_run_length(scalar):
    wl = copy.copy(scalar)
    wl.pool = scalar.pool[:40]  # two blocks, four tiny-delta calls among them
    short = run.check_loops(wl, [run.timed_loop(wl, wl.pool, seconds=0.05)])
    long = run.check_loops(wl, [run.timed_loop(wl, wl.pool, seconds=0.3)])
    assert short["attempted"] == long["attempted"] == len(wl.pool)
    assert short["failed"] == long["failed"] > 0
    assert short["kinds"] == long["kinds"]
    assert sum(t["ops"] for t in long["by_kind"].values()) > sum(
        t["ops"] for t in short["by_kind"].values())


# -- spans ------------------------------------------------------------------


def test_self_times_sum_to_operation_wall_time(scalar):
    untraced = run.timed_loop(scalar, scalar.pool, seconds=0.3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run.timed_loop(scalar, scalar.pool, seconds=0.3, tracer=tracer)
    finally:
        tracer.uninstall()
    assert scalar.vajda.vajda_lower_bound.__module__ == "divbounds.vajda"
    assert not hasattr(scalar.vajda.vajda_lower_bound, "__wrapped__")
    cols = tracer.arrays()
    roots = cols["name"] == 0
    assert int(roots.sum()) == traced.ops
    # self times of every span of an operation add up to its wall time
    per_op = {}
    for op, own in zip(cols["op"], cols["self"]):
        per_op[op] = per_op.get(op, 0.0) + own
    for op, dur in zip(cols["op"][roots], cols["duration"][roots]):
        assert per_op[op] == pytest.approx(dur, rel=1e-9, abs=1e-12)
    assert (cols["self"] >= -1e-12).all()
    # the loop's wall time covers the traced operations, and the reported
    # overhead is the ratio of the two loops' throughputs
    assert cols["duration"][roots].sum() <= traced.wall
    metrics, extra = run.layer_metrics(tracer, traced, untraced)
    overhead = metrics["trace_overhead_frac"][0]
    assert overhead == pytest.approx(
        (untraced.ops / sum(untraced.latency)) / (traced.ops / sum(traced.latency)) - 1.0
    )
    # the traced self times of an operation add up to its untraced wall
    # time made longer by the tracing overhead; the slack is the root
    # span's own bookkeeping, which the latencies do not include
    traced_per_op = float(cols["self"][cols["op"] >= 0].sum()) / traced.ops
    untraced_per_op = sum(untraced.latency) / untraced.ops
    assert traced_per_op / untraced_per_op == pytest.approx(1.0 + overhead, rel=0.1)
    module_frac = sum(metrics[f"{layer}.self_frac"][0] for layer in spans.LAYERS)
    assert module_frac + extra["bench_self_frac"] == pytest.approx(1.0)
    assert metrics["vajda.calls_per_op"][0] > 0
    assert metrics["optimize.bisect_evals_per_call"][0] > 10


def test_absent_layer_and_function_are_reported(monkeypatch, scalar):
    from divbounds import quadrature

    monkeypatch.delattr(quadrature, "gauss_kronrod_15")
    monkeypatch.setitem(sys.modules, "divbounds.nonexistent", None)
    tracer = spans.Tracer(layers=spans.LAYERS + ("nonexistent",))
    tracer.install()
    try:
        loop = run.timed_loop(scalar, scalar.pool, seconds=0.05, tracer=tracer)
    finally:
        tracer.uninstall()
    assert tracer.absent_layers == ["nonexistent"]
    assert "quadrature.gauss_kronrod_15" in tracer.absent_functions
    metrics, extra = run.layer_metrics(tracer, loop, loop)
    assert metrics["quadrature.panels_per_call"][0] == 0.0
    assert extra["absent_layers"] == ["nonexistent"]


def test_whole_module_absent(monkeypatch):
    monkeypatch.setitem(sys.modules, "divbounds.quadrature", None)
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent_layers == ["quadrature"]
    assert "quadrature.integrate_adaptive" in tracer.absent_functions


# -- output helpers ----------------------------------------------------------


def test_tail_percentile():
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)
    xs = list(range(1, 101))
    value, pct, beyond = run.tail(xs)
    assert beyond == 10 and sum(x > value for x in xs) == 10 and pct == 90.0


def _loop(latencies, calibration):
    loop = run.Loop(pool_size=len(latencies))
    for lat in latencies:
        loop.start.append(float(sum(loop.latency)))
        loop.latency.append(lat)
    loop.calibration.extend(calibration)
    return loop


def test_latencies_at_reference_speed():
    ref = run.CALIBRATION_REF_S
    # four windows of two operations, then one more; the host runs at half
    # speed from the third window on, and the calibrations at the window
    # edges say so
    loop = _loop([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 1.0],
                 [ref, ref, 2 * ref, 2 * ref, ref, ref])
    scaled = run.at_reference_speed(loop, size=2)
    assert list(scaled) == pytest.approx([1, 1, 2 / 3, 2 / 3, 1, 1, 4 / 3, 4 / 3, 1])
    p50, rate, value, pct, beyond, scope = run.timing_figures(scaled, size=2)
    assert p50 == 1.0 and rate == pytest.approx(9 / sum(scaled))
    assert (value, pct, beyond, scope) == (4 / 3, 100.0, 0, "whole_run")
    # a run shorter than one window is one window
    assert list(run.at_reference_speed(_loop([1.0, 3.0], [ref, 3 * ref]), size=20)) == [0.5, 1.5]
    # windows of 20 or more: the tail is the median of the windows' tails
    loop = _loop([float(i % 20 + 1) + 100.0 * (i == 59) for i in range(60)], [ref] * 4)
    scaled = run.at_reference_speed(loop, size=20)
    assert run.timing_figures(scaled, size=20)[2:] == (10.0, 50.0, 10, "median_over_windows")


def test_calibrations_bracket_every_window(scalar):
    loop = run.timed_loop(scalar, scalar.pool, seconds=0.2)
    windows = -(-loop.ops // scalar.window_ops)
    assert len(loop.calibration) == windows + 1
    assert all(0 < c < 1 for c in loop.calibration)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       799 |       1770 | encodings",
        "import time:      1274 |      57856 |       numpy",
        "import time:       451 |      88457 |   divbounds",
        "import time:      3027 |      93324 | divbounds.cli",
    ])
    assert run.parse_importtime(text) == (93.324, 57.856)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scalar", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
