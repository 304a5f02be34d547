import ast
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divbounds
import oracles
from divbounds import (
    DensityBounds,
    DiscreteDistribution,
    Gaussian1D,
    GaussianND,
    TvConvention,
    atv_gaussian,
    check_sandwich_augmented,
    check_sandwich_same_dim,
    gaussian_akl,
    kl_discrete,
    poly_lower_bound,
    reid_lower_bound,
    reverse_pinsker,
    tv_discrete,
    vajda_lower_bound,
)
from divbounds.cli import main
from divbounds.pinsker import AugmentedDensityBounds
from divbounds.serialize import dumps

P_DISC = '{"type":"discrete","probs":[0.75,0.25]}'
Q_DISC = '{"type":"discrete","probs":[0.5,0.5]}'
P_G1 = '{"type":"gaussian1d","mu":0,"sigma2":0.25}'
Q_G3 = '{"type":"gaussiannd","nu":[0,0,0],"sigma":[[1,0,0],[0,2.25,0],[0,0,4]]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_divergence_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "divergence", "--p", P_DISC, "--q", Q_DISC, "--convention", "sup"
    )
    assert code == 0
    payload = json.loads(out)
    p = DiscreteDistribution(np.array([0.75, 0.25]))
    q = DiscreteDistribution(np.array([0.5, 0.5]))
    assert payload["kl"] == kl_discrete(p, q)
    assert payload["tv"] == tv_discrete(p, q, TvConvention.SUP)
    assert payload["convention"] == "sup"


def test_divergence_gaussian_pair(capsys):
    code, out, _ = run_cli(
        capsys,
        "divergence",
        "--p",
        '{"type":"gaussian1d","mu":0,"sigma2":1}',
        "--q",
        '{"type":"gaussian1d","mu":1,"sigma2":1}',
        "--convention",
        "sup",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kl"] == pytest.approx(0.5)
    assert payload["tv"] == pytest.approx(oracles.TV_EQUAL_VAR_MEAN_SHIFT, abs=1e-9)


@pytest.mark.parametrize(
    "p_sigma2, q_sigma2, kl",
    [("1e300", "1e-10", float("inf")), ("1e-200", "1e200", oracles.KL_GAUSS_TINY_VS_HUGE)],
)
def test_divergence_extreme_variance_ratio(capsys, p_sigma2, q_sigma2, kl):
    # the ratio of the variances overflows, then underflows
    code, out, err = run_cli(
        capsys,
        "divergence",
        "--p", f'{{"type":"gaussian1d","mu":0,"sigma2":{p_sigma2}}}',
        "--q", f'{{"type":"gaussian1d","mu":0,"sigma2":{q_sigma2}}}',
        "--convention", "sup",
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["kl"] == kl
    assert payload["tv"] == 1.0


def test_gaussian_akl_underflowing_variance_ratio(capsys):
    # sigma^2 / zeta underflows: the closed form and the search stay finite
    code, out, err = run_cli(
        capsys,
        "gaussian-akl", "--p", '{"type":"gaussian1d","mu":0,"sigma2":1e-200}',
        "--q", '{"type":"gaussiannd","nu":[0,0],"sigma":[[1e200,0],[0,2e200]]}',
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["akl"] == pytest.approx(oracles.KL_GAUSS_TINY_VS_HUGE, rel=1e-15)
    assert 0.0 <= payload["search_gap"] <= 1e-6


def test_divergence_mixed_types_is_input_error(capsys):
    code, _, err = run_cli(
        capsys, "divergence", "--p", P_DISC, "--q", P_G1, "--convention", "sup"
    )
    assert code == 1
    assert "error" in err


def test_vajda_trivial_and_pinned(capsys):
    code, out, _ = run_cli(
        capsys, "vajda", "--delta", "0", "--convention", "variational"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vajda_lb"] == 0.0
    assert payload["reid_lb"] == 0.0

    code, out, _ = run_cli(
        capsys, "vajda", "--delta", "1.0", "--convention", "variational"
    )
    payload = json.loads(out)
    assert payload["vajda_lb"] == vajda_lower_bound(1.0)
    assert payload["reid_lb"] == reid_lower_bound(1.0).value


def test_poly_defaults_to_variational_and_echoes(capsys):
    code, out, _ = run_cli(capsys, "poly", "--delta", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["poly_lb"] == pytest.approx(0.532131, abs=1e-6)
    assert payload["poly_lb"] == poly_lower_bound(1.0)
    assert payload["convention"] == "variational"


def test_poly_inversion(capsys):
    code, out, _ = run_cli(capsys, "poly", "--xi", "0.318147")
    assert code == 0
    payload = json.loads(out)
    assert payload["poly_at_bound"] == pytest.approx(0.318147, abs=1e-10)
    # far below 1e-10 the inverse keeps its relative accuracy
    code, out, _ = run_cli(capsys, "poly", "--xi", "1e-40")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta_upper_bound_variational"] == pytest.approx(math.sqrt(2e-40), rel=1e-15, abs=0.0)
    assert payload["poly_at_bound"] == pytest.approx(1e-40, rel=1e-15, abs=0.0)


def test_poly_requires_exactly_one_mode(capsys):
    code, _, err = run_cli(capsys, "poly", "--delta", "1", "--xi", "0.5")
    assert code == 1
    code, _, err = run_cli(capsys, "poly")
    assert code == 1


def test_reverse_pinsker_simple(capsys):
    code, out, _ = run_cli(
        capsys,
        "reverse-pinsker",
        "--delta", "0.1", "--convention", "sup", "--m", "0.5", "--M", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["upper"] == reverse_pinsker(
        0.1, TvConvention.SUP, DensityBounds(0.5, 2.0)
    )
    assert payload["upper"] == pytest.approx(oracles.RP_SUP_01_HALF_TWO)


def test_reverse_pinsker_augmented(capsys):
    code, out, _ = run_cli(
        capsys,
        "reverse-pinsker",
        "--delta", "0.1", "--convention", "sup",
        "--m1", "0.5", "--M1", "2", "--m2", "0.25", "--M2", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["upper"] == max(payload["u1"], payload["u2"])
    assert payload["upper"] == pytest.approx(oracles.RP_SUP_01_QUARTER_FOUR)


def test_curve_csv_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--t-min", "0.01", "--t-max", "20", "--points", "10"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,delta,l_value"
    assert len(lines) == 11

    code, out, _ = run_cli(
        capsys,
        "curve", "--t-min", "0.01", "--t-max", "20", "--points", "10",
        "--format", "json",
    )
    rows = json.loads(out)
    assert len(rows) == 10
    assert rows[0][0] == 0.01


def test_gaussian_akl_cross_check(capsys):
    code, out, _ = run_cli(
        capsys,
        "gaussian-akl", "--p", P_G1, "--q", Q_G3, "--budget", "500", "--seed", "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["akl"] == pytest.approx(oracles.KL_GAUSS_QUARTER_VS_UNIT, abs=1e-12)
    assert payload["search_value"] >= payload["akl"] - 1e-12
    assert payload["search_gap"] <= 1e-3


def test_sandwich_discrete(capsys):
    code, out, _ = run_cli(capsys, "sandwich", "--p", P_DISC, "--q", Q_DISC)
    assert code == 0
    payload = json.loads(out)
    p = DiscreteDistribution(np.array([0.75, 0.25]))
    q = DiscreteDistribution(np.array([0.5, 0.5]))
    report = check_sandwich_same_dim(p, q)
    assert payload == json.loads(report.to_json())
    assert payload["all_hold"] is True


def test_sandwich_on_an_overflowing_density_ratio(capsys):
    # 0.5 / 5e-324 overflows: M and the upper bound are inf, and KL takes
    # that term's log as log 0.5 - log 5e-324, as `divergence` does
    q = '{"type":"discrete","probs":[5e-324,1.0]}'
    code, out, err = run_cli(capsys, "sandwich", "--p", Q_DISC, "--q", q)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["divergence"] == 371.5268887801307
    assert payload["upper"] == math.inf
    assert payload["all_hold"] is True
    code, out, _ = run_cli(
        capsys, "divergence", "--p", Q_DISC, "--q", q, "--convention", "sup"
    )
    assert json.loads(out)["kl"] == payload["divergence"]


def test_sandwich_augmented_with_estimated_atv(capsys):
    argv = (
        "sandwich",
        "--p", P_G1, "--q", Q_G3,
        "--m1", "0.1", "--M1", "20", "--m2", "0.1", "--M2", "20",
        "--convention", "sup",
    )
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    p = Gaussian1D(0.0, 0.25)
    q = GaussianND(nu=np.zeros(3), sigma=np.diag([1.0, 2.25, 4.0]))
    bounds = AugmentedDensityBounds(
        emb=DensityBounds(0.1, 20.0), proj=DensityBounds(0.1, 20.0)
    )
    atv = atv_gaussian(p, q, TvConvention.SUP)
    report = check_sandwich_augmented(p, q, bounds, atv=atv, conv=TvConvention.SUP)
    assert payload == json.loads(report.to_json())
    assert payload["all_hold"] is True
    assert payload["divergence"] == gaussian_akl(p, q)
    # the removed --budget/--seed are usage errors
    for flag in ("--budget", "--seed"):
        code, _, err = run_cli(capsys, *argv, flag, "5")
        assert code == 1
        assert flag in err


def test_sandwich_augmented_missing_bounds_is_input_error(capsys):
    code, _, err = run_cli(
        capsys, "sandwich", "--p", P_G1, "--q", Q_G3, "--convention", "sup"
    )
    assert code == 1
    assert "m1" in err


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(P_DISC))
    code, out, _ = run_cli(
        capsys, "divergence", "--p", "-", "--q", Q_DISC, "--convention", "sup"
    )
    assert code == 0
    assert json.loads(out)["tv"] == 0.25


def test_file_input(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(P_DISC)
    code, out, _ = run_cli(
        capsys, "divergence", "--p", str(path), "--q", Q_DISC, "--convention", "sup"
    )
    assert code == 0
    assert json.loads(out)["tv"] == 0.25


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(
        capsys, "divergence", "--p", "/no/such/file.json", "--q", Q_DISC,
        "--convention", "sup",
    )
    assert code == 1


def test_unknown_command_exits_one(capsys):
    assert run_cli(capsys, "nosuchcommand")[0] == 1


def test_unknown_flag_exits_one(capsys):
    assert run_cli(capsys, "vajda", "--delta", "1", "--wat")[0] == 1


def test_bad_domain_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "vajda", "--delta", "3.0", "--convention", "variational"
    )
    assert code == 1
    assert "error" in err
    # sigma^2 / zeta overflows: the augmented KL is inf, which has no
    # polynomial-bound inverse
    code, _, err = run_cli(
        capsys,
        "gaussian-akl", "--p", '{"type":"gaussian1d","mu":0,"sigma2":1e300}',
        "--q", '{"type":"gaussiannd","nu":[0,0],"sigma":[[1e-10,0],[0,2e-10]]}',
    )
    assert code == 1
    assert "error" in err


def test_verify_small_run(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--trials", "300", "--seed", "1", "--step", "0.01"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    assert payload["convention"] == "sup"
    assert payload["fuzz"]["violations"] == 0
    # the fuzz margins stay off stdout
    assert list(payload["fuzz"]) == ["trials", "max_support", "seed", "violations"]
    assert len(payload["tightness"]) == 5


def test_verify_failure_exits_two(capsys):
    # an unmeetable tightness tolerance flips the summary and the exit code
    code, out, _ = run_cli(
        capsys,
        "verify", "--trials", "50", "--seed", "1", "--step", "0.01",
        "--gap-tol", "1e-12",
    )
    assert code == 2
    assert json.loads(out)["all_ok"] is False


# the stdout of `divbounds verify --trials 10000 --seed 1`, frozen byte for
# byte: a rewrite of any stage must leave it unchanged
VERIFY_SEED1_STDOUT = (
    '{"convention":"sup","convention_matches_pinned":true,"fuzz":{"trials":10000,"max_support":6,"seed":1,"violations":0},"tightness":['
    '{"delta":0.2,"oracle_min":0.02004469567663804,"vajda_lb":0.02004468315795296,"gap":1.2518685078150016e-08,"ok":true},'
    '{"delta":0.5,"oracle_min":0.1267967006354879,"vajda_lb":0.1267966535063854,"gap":4.712910250947999e-08,"ok":true},'
    '{"delta":0.9,"oracle_min":0.4255281605239188,"vajda_lb":0.42552811843870686,"gap":4.208521192650139e-08,"ok":true},'
    '{"delta":1.3,"oracle_min":0.9503876102746189,"vajda_lb":0.950387258162676,"gap":3.521119429361619e-07,"ok":true},'
    '{"delta":1.7,"oracle_min":1.8905692981966078,"vajda_lb":1.890569270350521,"gap":2.7846086769756084e-08,"ok":true}],"all_ok":true}\n'
)


def test_verify_stdout_is_frozen(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "10000", "--seed", "1")
    assert code == 0
    assert out == VERIFY_SEED1_STDOUT


def test_verify_with_a_broken_upper_bound_exits_two(capsys, monkeypatch):
    # no TV scale makes U equal KL where it is attained: one failing
    # summary line and exit 2, not a traceback
    from divbounds import oracle

    phi = oracle._phi
    monkeypatch.setattr(oracle, "_phi", lambda x, *xp: (1 + 1e-9) * phi(x, *xp))
    code, out, err = run_cli(capsys, "verify", "--trials", "50", "--step", "0.01")
    assert code == 2
    assert len(out.splitlines()) == 1
    payload = json.loads(out)
    assert payload["convention"] is None
    assert payload["convention_matches_pinned"] is False
    assert payload["all_ok"] is False
    assert "Traceback" not in err


def test_verify_rejects_bad_tolerance(capsys):
    # nan would fail every tightness row, inf would pass every one
    for gap_tol in ("-1", "nan", "inf"):
        code, out, err = run_cli(capsys, "verify", "--trials", "50", "--gap-tol", gap_tol)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("divbounds: error: gap_tol must be positive and finite")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--trials", "50", "--seed", "-1"],
        ["gaussian-akl", "--p", P_G1, "--q", Q_G3, "--budget", "50", "--seed", "-1"],
    ],
    ids=["verify", "gaussian-akl"],
)
def test_negative_seed_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines() == ["divbounds: error: seed must be >= 0, got -1"]


@pytest.mark.parametrize("step", ["0", "2", "-0.1", "nan", "0.3", "1e-9"])
def test_verify_rejects_bad_step_before_running(capsys, step):
    # the step is checked before any stage runs; below the floor the
    # tightness grid would exhaust memory
    code, out, err = run_cli(capsys, "verify", "--trials", "50", "--step", step)
    assert code == 1
    assert out == ""
    assert err.startswith("divbounds: error: step")


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_bad_trials_before_running(capsys, trials):
    code, out, err = run_cli(capsys, "verify", "--trials", trials)
    assert code == 1
    assert out == ""
    assert err.startswith("divbounds: error: trials")


@pytest.mark.parametrize(
    "t_min, t_max, points",
    [("1", "1.0000000000000009", "5"), ("300", "300.00000000001", "50")],
)
def test_curve_grid_finer_than_delta_resolves_exits_one(capsys, t_min, t_max, points):
    code, out, err = run_cli(
        capsys, "curve", "--t-min", t_min, "--t-max", t_max, "--points", points
    )
    assert code == 1
    assert out == ""
    assert err.startswith("divbounds: error: grid finer than delta(t) resolves")


def test_numbers_round_trip_through_decimal_text(capsys):
    _, out, _ = run_cli(
        capsys, "vajda", "--delta", "0.9020089100323521", "--convention", "variational"
    )
    payload = json.loads(out)
    assert payload["vajda_lb"] == vajda_lower_bound(0.9020089100323521)


_FINITE_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormals and zeros
    st.integers(-(2**70), 2**70).map(float),
    st.sampled_from([0.0, -0.0, 5e-324, sys.float_info.max]),
)


@settings(max_examples=500, deadline=None)
@given(x=_FINITE_DOUBLES, as_numpy=st.booleans())
def test_floats_print_as_their_shortest_repr(x, as_numpy):
    text = dumps(np.float64(x) if as_numpy else x)
    assert text == repr(x)
    parsed = float(text)
    assert parsed == x
    assert math.copysign(1.0, parsed) == math.copysign(1.0, x)


@pytest.mark.parametrize(
    "x, text", [(math.inf, "Infinity"), (-math.inf, "-Infinity"), (math.nan, "NaN")]
)
def test_non_finite_floats_keep_their_spelling(x, text):
    assert dumps(x) == dumps(np.float64(x)) == text
    assert dumps({"a": [x]}) == f'{{"a":[{text}]}}'


def test_numpy_bool_is_not_serialized():
    with pytest.raises(TypeError):
        dumps({"all_ok": np.bool_(True)})


_JSON_COMMANDS = {
    "divergence_discrete": [
        "divergence", "--p", P_DISC, "--q", Q_DISC, "--convention", "sup",
    ],
    "divergence_gaussian": [
        "divergence", "--p", P_G1, "--q", '{"type":"gaussian1d","mu":1,"sigma2":2}',
        "--convention", "sup",
    ],
    "vajda": ["vajda", "--delta", "1.0", "--convention", "variational"],
    "poly_delta": ["poly", "--delta", "1"],
    "poly_xi": ["poly", "--xi", "0.318147"],
    "rp_simple": [
        "reverse-pinsker", "--delta", "0.1", "--convention", "sup",
        "--m", "0.5", "--M", "2",
    ],
    "rp_four": [
        "reverse-pinsker", "--delta", "0.1", "--convention", "sup",
        "--m1", "0.5", "--M1", "2", "--m2", "0.25", "--M2", "4",
    ],
    "curve_json": [
        "curve", "--t-min", "0.01", "--t-max", "20", "--points", "10",
        "--format", "json",
    ],
    "gaussian_akl": ["gaussian-akl", "--p", P_G1, "--q", Q_G3, "--budget", "500"],
    "sandwich_discrete": ["sandwich", "--p", P_DISC, "--q", Q_DISC],
    "sandwich_augmented": [
        "sandwich", "--p", P_G1, "--q", Q_G3,
        "--m1", "0.1", "--M1", "20", "--m2", "0.1", "--M2", "20",
        "--convention", "sup",
    ],
    "verify": ["verify", "--trials", "50", "--seed", "1", "--step", "0.01"],
}


@pytest.mark.parametrize("argv", _JSON_COMMANDS.values(), ids=_JSON_COMMANDS.keys())
def test_json_output_is_compact_and_canonical(capsys, argv):
    # one line, no spaces, each number its shortest repr: what a reader
    # matching a number right after ':', ',' or '[' relies on
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.strip() == dumps(json.loads(out))


def _run_child(*args):
    # the child imports the package under test, however this run found it
    package_root = str(Path(divbounds.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point():
    proc = _run_child("-m", "divbounds", "poly", "--delta", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["poly_lb"] == pytest.approx(0.532131, abs=1e-6)


def test_overflowing_probability_sum_prints_one_error_line():
    # numpy's overflow warning must not print ahead of the error
    p = '{"type":"discrete","probs":[1e308,1e308]}'
    proc = _run_child(
        "-m", "divbounds", "divergence", "--p", p, "--q", Q_DISC, "--convention", "sup"
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "divbounds: error: probabilities sum to inf, not 1"
    ]


def test_overflowing_covariance_prints_one_error_line():
    # (sigma + sigma^T) / 2 overflows: an input error, without numpy's
    # overflow warning and its source line ahead of it
    q = '{"type":"gaussiannd","nu":[0,0],"sigma":[[9e307,8.1e307],[8.1e307,9e307]]}'
    proc = _run_child("-m", "divbounds", "gaussian-akl", "--p", P_G1, "--q", q)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == [
        "divbounds: error: sigma overflows: (sigma + sigma^T) / 2 is not finite"
    ]


def _loaded_after(statement: str, *argv) -> list:
    # the divbounds submodules, numpy and dataclasses, as a child process has
    # them after running ``statement`` with ``argv`` as sys.argv[1:]
    proc = _run_child(
        "-c",
        f"import sys\n{statement}\nimport json\nprint(json.dumps(sorted("
        "m for m in sys.modules if m in ('numpy', 'dataclasses') "
        "or m.startswith('divbounds.'))))",
        *argv,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_does_not_load_the_quadrature():
    # the quadrature is an oracle for the tests; no runtime path uses it
    assert "divbounds.quadrature" not in _loaded_after("import divbounds.cli")


def test_package_import_loads_no_submodule():
    assert _loaded_after("import divbounds") == []


def test_pinsker_loads_neither_augmented_nor_oracle():
    loaded = _loaded_after("import divbounds.pinsker")
    assert "divbounds.augmented" not in loaded
    assert "divbounds.oracle" not in loaded
    assert "numpy" not in loaded


_NUMPY_FREE_COMMANDS = {
    "vajda": ["vajda", "--delta", "1", "--convention", "variational"],
    "poly_delta": ["poly", "--delta", "1"],
    "poly_xi": ["poly", "--xi", "0.5"],
    "rp_simple": [
        "reverse-pinsker", "--delta", "0.3", "--convention", "sup",
        "--m", "0.5", "--M", "2",
    ],
    "rp_four": [
        "reverse-pinsker", "--delta", "0.3", "--convention", "sup",
        "--m1", "0.5", "--M1", "2", "--m2", "0.25", "--M2", "4",
    ],
    "curve": ["curve", "--t-min", "0.01", "--t-max", "20", "--points", "8"],
    "divergence_gaussian": [
        "divergence", "--p", P_G1, "--q", '{"type":"gaussian1d","mu":1,"sigma2":2}',
        "--convention", "sup",
    ],
    "divergence_discrete": [
        "divergence", "--p", P_DISC, "--q", Q_DISC, "--convention", "variational",
    ],
    "sandwich_discrete": ["sandwich", "--p", P_DISC, "--q", Q_DISC],
}


@pytest.mark.parametrize(
    "argv", _NUMPY_FREE_COMMANDS.values(), ids=_NUMPY_FREE_COMMANDS.keys()
)
def test_scalar_subcommands_do_not_load_numpy(argv):
    statement = "from divbounds.cli import main\nassert main(sys.argv[1:]) == 0"
    assert "numpy" not in _loaded_after(statement, *argv)


_DATACLASS_FREE_RUNS = {
    # every numpy-free subcommand, one after another in one process
    "scalar_subcommands": "from divbounds.cli import main\n"
    f"for argv in {list(_NUMPY_FREE_COMMANDS.values())!r}:\n"
    "    assert main(argv) == 0",
    "verify": "from divbounds.cli import main\n"
    "assert main(['verify', '--trials', '10']) == 0",
    "oracle_and_augmented": "import divbounds.oracle, divbounds.augmented",
}


@pytest.mark.parametrize(
    "statement", _DATACLASS_FREE_RUNS.values(), ids=_DATACLASS_FREE_RUNS.keys()
)
def test_no_subcommand_loads_dataclasses(statement):
    # importing dataclasses (and inspect with it) costs milliseconds of
    # every start-up; the records are slots classes and NamedTuples
    assert "dataclasses" not in _loaded_after(statement)


def test_no_module_imports_dataclasses():
    package = Path(divbounds.__file__).parent
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            assert "dataclasses" not in names, source.name


_PINSKER_FREE_COMMANDS = ("vajda", "poly_delta", "poly_xi", "curve", "divergence_gaussian")


@pytest.mark.parametrize("name", _PINSKER_FREE_COMMANDS)
def test_curve_and_divergence_subcommands_do_not_load_pinsker(name):
    statement = "from divbounds.cli import main\nassert main(sys.argv[1:]) == 0"
    loaded = _loaded_after(statement, *_NUMPY_FREE_COMMANDS[name])
    assert "divbounds.pinsker" not in loaded
    if name == "divergence_gaussian":
        assert "divbounds.vajda" not in loaded


def test_every_export_resolves():
    for name in divbounds.__all__:
        getattr(divbounds, name)
    assert set(divbounds.__all__) <= set(dir(divbounds))
    with pytest.raises(AttributeError):
        divbounds.no_such_name
