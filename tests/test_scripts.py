"""Smoke test for the scripts: each runs as a child process with small
arguments, exits 0 and prints output that parses."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import divbounds

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

RUNS = {
    "curve_table": ["--points", "20"],
    "projection_demo": ["--budget", "50"],
    "verify_sweep": ["--trials", "200", "--seeds", "1"],
}


def _check_curve_table(stdout):
    rows = list(csv.reader(io.StringIO(stdout)))
    assert rows[0] == ["t", "delta", "l_value", "poly_lb", "slack"]
    values = [[float(x) for x in row] for row in rows[1:]]
    assert len(values) == 20
    assert all(math.isfinite(x) for row in values for x in row)
    deltas = [row[1] for row in values]
    assert deltas == sorted(deltas)


def _check_projection_demo(stdout):
    payload = json.loads(stdout)
    assert payload["sandwich"]["all_hold"] is True
    assert payload["akl_search_upper"] >= payload["akl_closed_form"]
    assert 0.0 < payload["atv_upper_bound_from_akl"] <= 1.0


def _check_verify_sweep(stdout):
    lines = [json.loads(line) for line in stdout.splitlines()]
    assert [line["stage"] for line in lines[:2]] == ["convention", "fuzz"]
    assert lines[1]["trials"] == 200
    assert lines[-1] == {"stage": "summary", "all_ok": True}


def _start(name, argv):
    # the child imports the package under test, however this run found it
    package_root = str(Path(divbounds.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, str(SCRIPTS / f"{name}.py"), *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_scripts_run_and_print_parsable_output():
    procs = {name: _start(name, argv) for name, argv in RUNS.items()}
    checks = {
        "curve_table": _check_curve_table,
        "projection_demo": _check_projection_demo,
        "verify_sweep": _check_verify_sweep,
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
