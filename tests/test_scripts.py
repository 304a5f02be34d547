"""Smoke test for the scripts: each runs as a child process with small
arguments, exits 0 and prints output that parses."""

import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divbounds

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

RUNS = {
    "curve_table": ["--points", "20"],
    "projection_demo": ["--seed", "7"],
}


def _check_curve_table(stdout):
    rows = list(csv.reader(io.StringIO(stdout)))
    assert rows[0] == ["t", "delta", "l_value", "poly_lb", "slack"]
    values = [[float(x) for x in row] for row in rows[1:]]
    assert len(values) == 20
    assert all(math.isfinite(x) for row in values for x in row)
    deltas = [row[1] for row in values]
    assert deltas == sorted(deltas)


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_projection_demo(stdout):
    payload = json.loads(stdout)
    # the defaults with --seed 7: the closed-form ATV of that pair
    q = _load_script("projection_demo").rotated_gaussian([1.0, 2.25, 4.0], seed=7)
    p = divbounds.Gaussian1D(mu=0.0, sigma2=0.25)
    assert payload["atv_sup"] == divbounds.atv_gaussian(p, q, divbounds.TvConvention.SUP)
    assert payload["sandwich"]["all_hold"] is True
    # sigma^2 = 0.25 lies below the spectrum [1, 4], where kappa = 4
    assert 0.0 <= payload["witness_gap"] <= 1e-14 * payload["akl_closed_form"]
    assert 0.0 < payload["atv_upper_bound_from_akl"] <= 1.0


def _start(name, argv):
    # the child imports the package under test, however this run found it
    package_root = str(Path(divbounds.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, str(SCRIPTS / f"{name}.py"), *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_every_script_has_a_smoke_run():
    assert sorted(RUNS) == sorted(path.stem for path in SCRIPTS.glob("*.py"))


def test_scripts_run_and_print_parsable_output():
    procs = {name: _start(name, argv) for name, argv in RUNS.items()}
    checks = {
        "curve_table": _check_curve_table,
        "projection_demo": _check_projection_demo,
    }
    for name, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 0, (name, stderr)
        checks[name](stdout)


def test_projection_demo_rejects_a_negative_seed():
    # the library's DomainError, as one stderr line, not numpy's ValueError
    proc = _start("projection_demo", ["--seed", "-1"])
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert stdout == ""
    assert stderr == "projection_demo.py: error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "name, argv, message",
    [
        ("curve_table", ["--points", "0"], "n_points must be >= 2, got 0"),
    ],
    ids=["curve_table_no_points"],
)
def test_scripts_report_a_bad_argument_as_one_line(name, argv, message):
    # nothing reaches stdout: the arguments are checked before any stage
    proc = _start(name, argv)
    stdout, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stdout) == (1, "")
    assert stderr == f"{name}.py: error: {message}\n"
