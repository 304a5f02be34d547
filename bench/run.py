"""The divbounds benchmark: one closed-loop caller, one operation in flight.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {verify,scalar,gaussian,cli,all}
                         --seed N --seconds S --trace {0,1}

``--trace 0`` times the workload for S seconds and prints the end-to-end
metrics, from latencies brought to a reference host speed (see
``at_reference_speed``). ``--trace 1`` runs it S/2 seconds untraced and
S/2 seconds with every public function of the package wrapped (see
spans.py), and prints the per-layer metrics. Every output is checked after the timed loop. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. bench/README.md
says what each workload and metric is for.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_SAMPLES = 9
IMPORT_SAMPLES = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
IMPORTTIME_ARGV = [sys.executable, "-X", "importtime", "-c", "import divbounds.cli"]
INTERP_START_ARGV = [sys.executable, "-c", "pass"]
# The time ``calibrate`` takes at the reference host speed: timings are
# reported as they would read on a host where the loop takes this long.
# On the machine the benchmark was written on (2 shared x86-64 cores,
# Python 3.11.7, numpy 2.4.6) the loop's median over a 20-second run was
# between 6.3 and 8.7 ms in eight runs.
CALIBRATION_REF_S = 7.0e-3
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mib": "MiB"}


class Raised:
    """An operation that raised; compares equal by type and message."""

    def __init__(self, exc: BaseException):
        self.kind = f"raised:{type(exc).__name__}"
        self.text = str(exc)

    def __eq__(self, other):
        return isinstance(other, Raised) and (self.kind, self.text) == (other.kind, other.text)


class Loop:
    """Latencies and outputs of one timed loop; operation i ran pool item
    i mod pool_size. Latencies are kept in a flat array so that the
    benchmark's own memory hardly grows with the number of operations."""

    def __init__(self, pool_size: int):
        self.pool_size = pool_size
        self.latency = array("d")
        self.start = array("d")
        self.calibration = array("d")  # calibrate() times at window edges
        self.first = {}  # pool index -> output of its first run
        self.differs = set()  # pool indices whose output differed from the first
        self.wall = 0.0

    @property
    def ops(self) -> int:
        return len(self.latency)


def calibrate() -> float:
    """Seconds one fixed loop of interpreter and small-array numpy work
    takes: the kind of work the library does, in code that never changes,
    so its time follows the host's speed and nothing else."""
    import numpy as np

    t0 = time.perf_counter()
    total = 0.0
    for i in range(40000):
        total += (i * 0.5) ** 0.5
    a = np.arange(16.0)
    for _ in range(600):
        a = np.sqrt(a * a + 1.0)
        a.sum()
    return time.perf_counter() - t0


def timed_loop(wl, pool, seconds: float, tracer=None) -> Loop:
    """Run operations for ``seconds``; ``calibrate`` runs before the first
    operation and after every window of ``wl.window_ops`` operations and
    after the last, outside the timed operations."""
    n = len(pool)
    size = wl.window_ops
    loop = Loop(n)
    clock = time.perf_counter
    begin = clock()
    deadline = begin + seconds
    loop.calibration.append(calibrate())
    i = 0
    while True:
        idx = i % n
        if tracer is not None:
            tracer.op = i
            root = tracer.begin(0)
        t0 = clock()
        try:
            out = wl.op(pool[idx])
        except Exception as exc:  # an operation that raises is a failed operation
            out = Raised(exc)
        t1 = clock()
        if tracer is not None:
            tracer.end(root, -1, raised=isinstance(out, Raised))
            tracer.op = -1
        loop.latency.append(t1 - t0)
        loop.start.append(t0)
        if idx not in loop.first:
            loop.first[idx] = out
        elif out != loop.first[idx]:
            loop.differs.add(idx)
        i += 1
        if i % size == 0:
            loop.calibration.append(calibrate())
        if t1 >= deadline:
            break
    if i % size:
        loop.calibration.append(calibrate())
    loop.wall = clock() - begin
    return loop


def check_loops(wl, loops) -> dict:
    """Failure kinds per distinct input (pool item) run in the loops.

    Each input is checked once, on its first output; every later run of it,
    in any of the loops, must return that output again, or the input also
    fails as ``nondeterministic``. ``attempted`` and ``failed`` count
    distinct inputs, so at a given seed they do not depend on how many
    operations the run's time allowed. Operations are counted per input
    kind beside them.
    """
    labels = [wl.kind(item) for item in wl.pool]
    by_kind = {label: {"inputs": 0, "ops": 0, "failed": 0} for label in labels}
    first = {}
    differs = set()
    for loop in loops:
        for idx, out in loop.first.items():
            if idx not in first:
                first[idx] = out
            elif out != first[idx]:
                differs.add(idx)
        differs |= loop.differs
        for i in range(loop.ops):
            by_kind[labels[i % loop.pool_size]]["ops"] += 1
    counts = {}
    failed = 0
    for idx in sorted(first):
        out = first[idx]
        if isinstance(out, Raised):
            kinds = [out.kind]
        else:
            kinds = sorted(set(wl.check(wl.pool[idx], out)))
        if idx in differs:
            kinds.append("nondeterministic")
        tally = by_kind[labels[idx]]
        tally["inputs"] += 1
        if kinds:
            failed += 1
            tally["failed"] += 1
            for kind in kinds:
                counts[kind] = counts.get(kind, 0) + 1
    unexpected = sorted(k for k in counts if k not in workloads.KNOWN_DEFECTS)
    return {"attempted": len(first), "failed": failed, "kinds": counts,
            "by_kind": by_kind, "unexpected": unexpected}


def kind_medians(wl, scaled) -> dict:
    """Median latency in ms of each input kind, at the reference speed."""
    latencies = {}
    for i, lat in enumerate(scaled):
        latencies.setdefault(wl.kind(wl.pool[i % len(wl.pool)]), []).append(lat)
    return {label: statistics.median(xs) * 1e3 for label, xs in latencies.items()}


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it, or the maximum when there are too
    few samples for any percentile above the median to qualify."""
    xs = sorted(latencies)
    n = len(xs)
    if n >= 2 * TAIL_BEYOND:
        k = n - TAIL_BEYOND - 1
        return xs[k], 100.0 * (k + 1) / n, TAIL_BEYOND
    return xs[-1], 100.0, 0


def at_reference_speed(loop: Loop, size: int) -> array:
    """Every latency scaled to the reference host speed.

    The shared machine this was written on runs up to 1.7x slower in
    phases lasting seconds to minutes, so a run's raw figures depend on
    how much of it fell in a slow phase. The run is cut into consecutive
    windows of ``size`` operations, one full cycle of the workload's input
    pattern, and each latency is scaled by CALIBRATION_REF_S over the mean
    ``calibrate`` time at the two edges of its window.
    """
    cal = loop.calibration
    scaled = array("d")
    for i, lat in enumerate(loop.latency):
        w = i // size
        scaled.append(lat * CALIBRATION_REF_S / (0.5 * (cal[w] + cal[w + 1])))
    return scaled


def timing_figures(scaled, size: int):
    """(median latency, throughput, tail, tail percentile, samples beyond,
    tail scope) from latencies at the reference host speed.

    Throughput is operations per second of time spent in operations. When
    a window holds at least 2 * TAIL_BEYOND operations the tail is taken
    in every full window and the median over windows is reported: over a
    whole run of 100 000 operations it would be the machine's rarest
    stalls, which no calibration sees, not the library's own most
    expensive inputs.
    """
    full = len(scaled) // size
    if size >= 2 * TAIL_BEYOND and full:
        value = statistics.median(tail(scaled[w * size:(w + 1) * size])[0] for w in range(full))
        pct, beyond, scope = 100.0 * (size - TAIL_BEYOND) / size, TAIL_BEYOND, "median_over_windows"
    else:
        value, pct, beyond = tail(scaled)
        scope = "whole_run"
    return statistics.median(scaled), len(scaled) / sum(scaled), value, pct, beyond, scope


def peak_rss_mib(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def setup_once(wl, seed):
    t0 = time.perf_counter()
    pool = wl.setup(seed)
    return pool, time.perf_counter() - t0


def setup_probe_argv(wl, args) -> list:
    return [sys.executable, str(BENCH / "run.py"), "--workload", wl.name,
            "--seed", str(args.seed), "--setup-probe"]


def setup_samples(wl, args, first: float) -> list:
    """SETUP_SAMPLES set-up times; in-process ones each in a fresh process,
    so the import of the library is paid every time."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        if wl.in_process:
            code, out, err = workloads.run_child(setup_probe_argv(wl, args))
            if code != 0:
                raise RuntimeError(f"set-up probe failed: {err.strip()}")
            samples.append(float(out.split()[-1]))
        else:
            samples.append(setup_once(wl, args.seed)[1])
    return samples


def parse_importtime(text: str):
    """(package ms, numpy ms) from ``-X importtime`` output.

    The package figure sums the cumulative times of the top-level
    divbounds imports, so it holds numpy and everything else the package
    pulls in, but not the interpreter's own start-up imports (site,
    encodings), which are separate top-level entries.
    """
    package_us = numpy_us = 0
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].strip()
        top_level = len(parts[2]) - len(parts[2].lstrip()) == 1
        if top_level and name.split(".")[0] == "divbounds":
            package_us += cumulative
        if name == "numpy":
            numpy_us = cumulative
    return package_us / 1e3, numpy_us / 1e3


def import_breakdown() -> dict:
    """cli import and numpy import from -X importtime, and bare start-up."""
    imports, numpys, starts = [], [], []
    for _ in range(IMPORT_SAMPLES):
        code, _, err = workloads.run_child(IMPORTTIME_ARGV)
        if code != 0:
            raise RuntimeError(f"importtime run failed: {err.strip()}")
        package_ms, numpy_ms = parse_importtime(err)
        imports.append(package_ms)
        numpys.append(numpy_ms)
        t0 = time.perf_counter()
        workloads.run_child(INTERP_START_ARGV)
        starts.append((time.perf_counter() - t0) * 1e3)
    return {
        "cli.import_ms": statistics.median(imports),
        "cli.numpy_import_ms": statistics.median(numpys),
        "cli.interp_start_ms": statistics.median(starts),
    }


def layer_metrics(tracer, traced: Loop, untraced: Loop):
    """Per-layer metrics as {name: (value, unit)}, plus extra record fields."""
    import numpy as np
    import spans

    cols = tracer.arrays()
    in_op = cols["op"] >= 0
    root = in_op & (cols["name"] == 0)
    ops = max(int(root.sum()), 1)
    op_time = float(cols["duration"][root].sum()) or 1.0
    names = np.array(tracer.names)
    span_names = names[cols["name"]]

    def calls(full_name):
        return int((in_op & (span_names == full_name)).sum())

    out = {}
    for layer in spans.LAYERS:
        mask = in_op & np.char.startswith(span_names, layer + ".")
        self_s = float(cols["self"][mask].sum())
        out[f"{layer}.calls_per_op"] = (int(mask.sum()) / ops, "count")
        out[f"{layer}.self_ms_per_op"] = (self_s * 1e3 / ops, "ms")
        out[f"{layer}.self_frac"] = (self_s / op_time, "ratio")
        out[f"{layer}.errors_per_op"] = (int((mask & cols["error_origin"]).sum()) / ops, "count")

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    panels = calls("quadrature.gauss_kronrod_15")
    out["optimize.bisect_evals_per_call"] = (
        per(tracer.counts["bisect_evals"], calls("optimize.bisect_increasing")), "count")
    out["optimize.golden_evals_per_call"] = (
        per(tracer.counts["golden_evals"], calls("optimize.golden_section_minimize")), "count")
    out["quadrature.panels_per_call"] = (per(panels, calls("quadrature.integrate_adaptive")), "count")
    out["measures.panels_per_tv"] = (per(panels, calls("measures.tv_gaussian_1d")), "count")
    out["augmented.stiefel_draws_per_op"] = (calls("augmented.sample_stiefel") / ops, "count")
    out["oracle.grid_pairs_per_op"] = (tracer.counts["grid_pairs"] / ops, "count")
    out["oracle.bytes_computed_per_op"] = (tracer.counts["grid_bytes"] / ops, "B")
    # throughput over the operations' own time, without the calibrations
    untraced_rate = untraced.ops / sum(untraced.latency)
    traced_rate = traced.ops / sum(traced.latency)
    out["trace_overhead_frac"] = (untraced_rate / traced_rate - 1.0, "ratio")
    glue = float(cols["self"][root].sum())
    extra = {"traced_ops": ops, "bench_self_frac": glue / op_time,
             "absent_layers": tracer.absent_layers, "absent_functions": tracer.absent_functions,
             "spans": int(in_op.sum())}
    return out, extra


def run_workload(args) -> dict:
    wl = workloads.WORKLOADS[args.workload]()
    sys.path.insert(0, str(SRC))
    wl.pool, setup_s = setup_once(wl, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return None
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(),
              "python": platform.python_version(),
              "threads": {v: os.environ[v] for v in THREAD_VARS}}
    import numpy

    record["numpy"] = numpy.__version__
    record.update(wl.record(wl.pool))
    if not args.trace:
        loop = timed_loop(wl, wl.pool, args.seconds)
        rss = peak_rss_mib(wl.in_process)
        result = check_loops(wl, [loop])
        samples = setup_samples(wl, args, setup_s)
        scaled = at_reference_speed(loop, wl.window_ops)
        p50, rate, value, pct, beyond, scope = timing_figures(scaled, wl.window_ops)
        metrics = {
            "setup_s": statistics.median(samples),
            "ops_per_s": rate,
            "op_p50_ms": p50 * 1e3,
            "op_tail_ms": value * 1e3,
            "peak_rss_mib": rss,
        }
        metrics = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}
        record["setup_samples_s"] = samples
        for label, p50_ms in kind_medians(wl, scaled).items():
            result["by_kind"][label]["p50_ms"] = p50_ms
        record["tail"] = {"percentile": pct, "samples_beyond": beyond, "scope": scope,
                          "samples": wl.window_ops if scope == "median_over_windows" else loop.ops}
        # the figures as measured, before scaling to the reference speed;
        # the tail here is always the whole run's
        record["as_measured"] = {"ops_per_s": loop.ops / sum(loop.latency),
                                 "op_p50_ms": statistics.median(loop.latency) * 1e3,
                                 "op_tail_ms": tail(loop.latency)[0] * 1e3}
        record["calibration"] = {"ref_ms": CALIBRATION_REF_S * 1e3,
                                 "p50_ms": statistics.median(loop.calibration) * 1e3,
                                 "count": len(loop.calibration),
                                 "ops_per_window": wl.window_ops}
        if wl.in_process:
            record["setup_probe_argv"] = setup_probe_argv(wl, args)
        else:
            record["warmup_argv"] = workloads.cli_argv(wl.WARMUP)
    else:
        import spans

        if not wl.in_process:
            wl.use_in_process()
        half = args.seconds / 2.0
        untraced = timed_loop(wl, wl.pool, half)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = timed_loop(wl, wl.pool, half, tracer=tracer)
        finally:
            tracer.uninstall()
        result = check_loops(wl, [untraced, traced])
        metrics, extra = layer_metrics(tracer, traced, untraced)
        for name, value in import_breakdown().items():
            metrics[name] = (value, "ms")
        record.update(extra)
        record["importtime_argv"] = IMPORTTIME_ARGV
        record["interp_start_argv"] = INTERP_START_ARGV
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{wl.name}-seed{args.seed}.npz"
        tracer.write(trace_file)
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    record["failures"] = result["kinds"]
    record["by_kind"] = result["by_kind"]
    record["unexpected_failures"] = result["unexpected"]
    failed_frac = result["failed"] / result["attempted"]

    for name, (value, unit) in metrics.items():
        line = f"{wl.name:8s} {name:34s} {value:14.6g} {unit}"
        if name == "op_tail_ms":
            pct = record["tail"]["percentile"]
            line += (f"  (p{pct:.4g}, {record['tail']['samples_beyond']} of "
                     f"{record['tail']['samples']} samples beyond)")
        print(line)
    print(f"{wl.name:8s} {'failed_frac':34s} {failed_frac:14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} distinct inputs)")
    for label, tally in result["by_kind"].items():
        p50 = f", p50 {tally['p50_ms']:.4g} ms" if "p50_ms" in tally else ""
        print(f"{wl.name:8s}   input {label}: {tally['inputs']} inputs in {tally['ops']} ops,"
              f" {tally['failed']} failed{p50}")
    for kind, count in sorted(result["kinds"].items()):
        known = "known defect" if kind in workloads.KNOWN_DEFECTS else "UNEXPECTED"
        print(f"{wl.name:8s}   failed: {kind} x{count} ({known})")
    print("record " + json.dumps(record, sort_keys=True))
    return {
        "correct": not result["unexpected"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload, each in its own process; metrics keyed workload.metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} failed: {proc.stderr.strip()}")
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, entry in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # one caller on one core: pin BLAS and OpenMP pools before numpy loads,
    # here and, through the environment, in every child
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "divbounds" / "__init__.py").is_file():
        print(f"bench: no divbounds package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
