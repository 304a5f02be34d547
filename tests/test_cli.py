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


def _assert_one_error(err, message):
    # stderr is the message alone; a usage error prints the usage ahead of it
    lines = err.splitlines()
    assert lines[-1] == f"divbounds: error: {message}"
    if message.startswith("unrecognized arguments"):
        assert err.startswith("usage: divbounds")
    else:
        assert len(lines) == 1


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
    # sigma^2 / zeta underflows: the closed form and the frame's KL stay finite
    code, out, err = run_cli(
        capsys,
        "gaussian-akl", "--p", '{"type":"gaussian1d","mu":0,"sigma2":1e-200}',
        "--q", '{"type":"gaussiannd","nu":[0,0],"sigma":[[1e200,0],[0,2e200]]}',
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["akl"] == pytest.approx(oracles.KL_GAUSS_TINY_VS_HUGE, rel=1e-15)
    assert payload["witness_gap"] == 0.0


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
    argv = ("gaussian-akl", "--p", P_G1, "--q", Q_G3)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "akl", "v", "b", "witness_kl", "witness_gap", "atv_upper_bound_variational",
    ]
    assert payload["akl"] == pytest.approx(oracles.KL_GAUSS_QUARTER_VS_UNIT, abs=1e-12)
    # sigma^2 lies below the diagonal spectrum: the frame is the first
    # coordinate row, whose mean-matched image attains the closed form
    assert [abs(x) for x in payload["v"]] == [1.0, 0.0, 0.0]
    assert payload["b"] == 0.0
    assert payload["witness_kl"] == payload["akl"]
    assert payload["witness_gap"] == 0.0
    # the frame is not drawn: the removed --budget/--seed are usage errors
    for flag in ("--budget", "--seed"):
        code, out, err = run_cli(capsys, *argv, flag, "5")
        assert (code, out) == (1, "")
        _assert_one_error(err, f"unrecognized arguments: {flag} 5")


def test_sandwich_discrete(capsys):
    code, out, _ = run_cli(capsys, "sandwich", "--p", P_DISC, "--q", Q_DISC)
    assert code == 0
    payload = json.loads(out)
    p = DiscreteDistribution(np.array([0.75, 0.25]))
    q = DiscreteDistribution(np.array([0.5, 0.5]))
    report = check_sandwich_same_dim(p, q)
    assert payload == report.as_dict()
    assert payload["all_hold"] is True


def test_sandwich_on_sums_on_opposite_sides_of_1(capsys):
    # both inputs pass the sum check, so their density ratio, m = M, may
    # exceed 1 by about twice PROB_SUM_TOL; U is 0 and KL that ratio's log
    p = '{"type":"discrete","probs":[0.5000000000003,0.5000000000003]}'
    q = '{"type":"discrete","probs":[0.4999999999997,0.4999999999997]}'
    code, out, err = run_cli(capsys, "sandwich", "--p", p, "--q", q)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    hi = DiscreteDistribution([0.5000000000003, 0.5000000000003])
    lo = DiscreteDistribution([0.4999999999997, 0.4999999999997])
    report = check_sandwich_same_dim(hi, lo)
    assert payload == report.as_dict()
    assert payload["upper"] == 0.0
    assert payload["all_hold"] is True


@pytest.mark.parametrize("c", ["1.0000000000005", "0.9999999999995"])
def test_reverse_pinsker_rejects_equal_bounds_off_1(capsys, c):
    # m = M forces identical measures as m = 1 does: delta must be 0
    argv = ["reverse-pinsker", "--convention", "sup", "--m", c, "--M", c]
    code, out, err = run_cli(capsys, *argv, "--delta", "0.5")
    assert (code, out) == (1, "")
    assert err == (
        f"divbounds: error: m = {c}, M = {c} force identical measures, "
        "so delta must be 0, got 0.5\n"
    )
    code, out, err = run_cli(capsys, *argv, "--delta", "0")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"upper": 0.0, "convention": "sup"}


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


def test_sandwich_with_a_density_bound_below_2_to_the_minus_54(capsys):
    # m = 2e-20, where m - 1 rounds to -1 and log1p(m - 1) is a math domain
    # error; the pair attains U, so U equals KL
    p = '{"type":"discrete","probs":[1e-20, 1.0]}'
    code, out, err = run_cli(capsys, "sandwich", "--p", p, "--q", Q_DISC)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert math.isfinite(payload["upper"])
    assert payload["upper"] == pytest.approx(payload["divergence"], rel=1e-15)
    assert payload["all_hold"] is True


def test_sandwich_on_a_pair_whose_delta_rounds_past_1(capsys):
    # both sums pass PROB_SUM_TOL and 0.5 sum|p - q| rounds past 1 + 1e-12;
    # the checker passes that delta to U without a range check, and the
    # pair's ratio takes only the values m and M, so U equals KL
    p, q = oracles.sum_edge_rows(31)
    argv = ["sandwich", "--p", json.dumps({"type": "discrete", "probs": p}),
            "--q", json.dumps({"type": "discrete", "probs": q})]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["divergence"] == payload["upper"] == 36.73680056971385
    assert payload["all_hold"] is True


def test_a_bad_convention_names_the_enum(capsys):
    code, out, err = run_cli(capsys, "vajda", "--delta", "0.5", "--convention", "foo")
    assert (code, out) == (1, "")
    assert err.startswith("usage: divbounds vajda")
    assert err.splitlines()[-1] == (
        "divbounds vajda: error: argument --convention: "
        "invalid TvConvention value: 'foo'"
    )


def test_reverse_pinsker_with_a_density_bound_below_2_to_the_minus_54(capsys):
    code, out, err = run_cli(
        capsys,
        "reverse-pinsker",
        "--delta", "0.1", "--convention", "sup", "--m", "1e-20", "--M", "2",
    )
    assert (code, err) == (0, "")
    want = 0.1 * (oracles.phi_ratio_weight(2.0) - oracles.phi_ratio_weight(1e-20))
    assert json.loads(out)["upper"] == pytest.approx(want, rel=1e-15)


def test_sandwich_augmented_with_estimated_atv(capsys):
    argv = (
        "sandwich",
        "--p", P_G1, "--q", Q_G3,
        "--m1", "0.1", "--M1", "20", "--m2", "0.1", "--M2", "20",
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
    assert payload == report.as_dict()
    assert payload["all_hold"] is True
    assert payload["divergence"] == gaussian_akl(p, q)
    # the ATV comes from atv_gaussian, whose report is the same in either
    # convention: the removed --convention/--atv and --budget/--seed are
    # usage errors
    for flag, value in (("--convention", "sup"), ("--atv", "0.3"), ("--budget", "5"),
                        ("--seed", "5")):
        code, out, err = run_cli(capsys, *argv, flag, value)
        assert (code, out) == (1, "")
        _assert_one_error(err, f"unrecognized arguments: {flag} {value}")


def test_sandwich_augmented_missing_bounds_is_input_error(capsys):
    code, _, err = run_cli(capsys, "sandwich", "--p", P_G1, "--q", Q_G3)
    assert code == 1
    assert "m1" in err


DISCRETE_IGNORES = "discrete inputs take no --m1/--M1/--m2/--M2"
FOUR_BOUNDS = ["--m1", "0.5", "--M1", "2", "--m2", "0.25", "--M2", "4"]


@pytest.mark.parametrize(
    "argv, message",
    [
        # sandwich has no --convention or --atv: a usage error
        (["sandwich", "--p", P_DISC, "--q", Q_DISC,
          "--convention", "sup", "--m1", "0.1", "--atv", "0.3"],
         "unrecognized arguments: --convention sup --atv 0.3"),
        (["sandwich", "--p", P_DISC, "--q", Q_DISC, "--convention", "sup"],
         "unrecognized arguments: --convention sup"),
        (["sandwich", "--p", P_DISC, "--q", Q_DISC, "--atv", "0.3"],
         "unrecognized arguments: --atv 0.3"),
        (["sandwich", "--p", P_DISC, "--q", Q_DISC, "--M2", "4"], DISCRETE_IGNORES),
        (["sandwich", "--p", P_DISC, "--q", Q_DISC, *FOUR_BOUNDS], DISCRETE_IGNORES),
        (["poly", "--xi", "0.5", "--convention", "sup"],
         "poly --xi takes no --convention"),
    ],
    ids=["sandwich_all_three", "sandwich_convention", "sandwich_atv",
         "sandwich_one_bound", "sandwich_four_bounds", "poly_xi_convention"],
)
def test_a_flag_the_mode_ignores_is_input_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    _assert_one_error(err, message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["reverse-pinsker", "--m", "0.5", "--M", "2", "--m1", "0.5"],
         "give either --m/--M or all of --m1/--M1/--m2/--M2"),
        (["reverse-pinsker", "--m", "0.5", "--M", "2", *FOUR_BOUNDS],
         "give either --m/--M or all of --m1/--M1/--m2/--M2"),
        (["reverse-pinsker", "--m", "0.5"], "--m and --M go together"),
        (["reverse-pinsker"], "augmented mode needs all of --m1/--M1/--m2/--M2"),
        (["reverse-pinsker", *FOUR_BOUNDS[:6]],
         "augmented mode needs all of --m1/--M1/--m2/--M2"),
        (["sandwich", "--p", P_G1, "--q", Q_G3, *FOUR_BOUNDS[2:]],
         "augmented sandwich needs all of --m1/--M1/--m2/--M2"),
    ],
)
def test_density_bound_flags_are_all_or_none(capsys, argv, message):
    if argv[0] == "reverse-pinsker":
        argv = [*argv, "--delta", "0.1", "--convention", "sup"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"divbounds: error: {message}\n"


def test_poly_delta_echoes_a_stated_convention(capsys):
    code, out, _ = run_cli(capsys, "poly", "--delta", "0.5", "--convention", "sup")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "delta_variational": 1.0, "poly_lb": poly_lower_bound(1.0), "convention": "sup"
    }


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


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_input_that_is_not_utf8_is_one_error_line(capsys, monkeypatch, tmp_path, source):
    raw = b"\xff\xfe"
    if source == "file":
        arg = str(tmp_path / "bad.json")
        Path(arg).write_bytes(raw)
    else:
        # a UTF-8 locale reads standard input strictly
        arg = "-"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), "utf-8"))
    code, out, err = run_cli(
        capsys, "divergence", "--p", arg, "--q", Q_DISC, "--convention", "sup"
    )
    name = arg if source == "file" else "standard input"
    assert code == 1 and out == ""
    assert err.startswith(f"divbounds: error: {name} is not UTF-8 text: ")
    assert err.count("\n") == 1


def test_stdin_that_is_not_utf8_under_the_c_locale_is_one_error_line():
    # the C locale (UTF-8 mode off) reads standard input with
    # surrogateescape: bad bytes arrive as lone surrogates, not as a
    # decoding error, and must still be named as an encoding error
    package_root = str(Path(divbounds.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=package_root)
    proc = subprocess.run(
        [sys.executable, "-m", "divbounds", "divergence", "--p", "-", "--q", Q_DISC,
         "--convention", "sup"],
        input=b"\xff\xfe", capture_output=True, env=env,
    )
    assert (proc.returncode, proc.stdout) == (1, b"")
    lines = proc.stderr.decode("ascii", "replace").splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("divbounds: error: standard input is not UTF-8 text: ")


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
    code, out, _ = run_cli(capsys, "verify", "--trials", "300", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["fuzz", "tightness", "all_ok"]
    assert payload["all_ok"] is True
    assert payload["fuzz"]["violations"] == 0
    # the fuzz margins stay off stdout
    assert list(payload["fuzz"]) == ["trials", "max_support", "seed", "violations"]
    assert len(payload["tightness"]["lower"]) == 5
    assert len(payload["tightness"]["upper"]) == 25


def test_verify_failure_exits_two(capsys, monkeypatch):
    # the batched curve off by 1e-9 either way misses the KL of the pairs
    # that attain it, which flips every lower row, the summary and the
    # exit code
    from divbounds import pinsker

    curve = pinsker.vajda_lower_bound_array
    for scale in (1 + 1e-9, 1 - 1e-9):
        monkeypatch.setattr(pinsker, "vajda_lower_bound_array", lambda d: scale * curve(d))
        code, out, err = run_cli(capsys, "verify", "--trials", "50", "--seed", "1")
        assert code == 2
        payload = json.loads(out)
        assert payload["all_ok"] is False
        assert not any(row["ok"] for row in payload["tightness"]["lower"])
        assert all(row["ok"] for row in payload["tightness"]["upper"])
        assert "Traceback" not in err


# the stdout of `divbounds verify --trials 10000 --seed 1`, frozen byte for
# byte: a rewrite of any stage must leave it unchanged
VERIFY_SEED1_STDOUT = (
    '{"fuzz":{"trials":10000,"max_support":6,"seed":1,"violations":0},"tightness":{"lower":['
    '{"delta":0.2,"witness_kl":0.02004468315795291,"vajda_lb":0.020044683157952953,"rel_gap":-2.2501134101240176e-15,"ok":true},'
    '{"delta":0.5,"witness_kl":0.1267966535063854,"vajda_lb":0.12679665350638544,"rel_gap":-4.377966586354923e-16,"ok":true},'
    '{"delta":0.9,"witness_kl":0.4255281184387063,"vajda_lb":0.4255281184387062,"rel_gap":2.609047384926397e-16,"ok":true},'
    '{"delta":1.3,"witness_kl":0.9503872581626758,"vajda_lb":0.950387258162676,"rel_gap":-2.336359236910396e-16,"ok":true},'
    '{"delta":1.7,"witness_kl":1.8905692703505201,"vajda_lb":1.8905692703505228,"rel_gap":-1.4093825076329284e-15,"ok":true}],"upper":['
    '{"m":0.001,"M":1.1,"witness_kl":0.09467295819751996,"upper":0.09467295819752002,"rel_gap":5.863464318442725e-16,"ok":true},'
    '{"m":0.001,"M":2.0,"witness_kl":0.6893448281539712,"upper":0.6893448281539712,"rel_gap":0.0,"ok":true},'
    '{"m":0.001,"M":10.0,"witness_kl":2.2942949576457323,"upper":2.2942949576457323,"rel_gap":0.0,"ok":true},'
    '{"m":0.001,"M":100.0,"witness_kl":4.593772275798669,"upper":4.59377227579867,"rel_gap":1.933440245567478e-16,"ok":true},'
    '{"m":0.001,"M":1000.0,"witness_kl":6.8939535701330215,"upper":6.893953570133022,"rel_gap":1.2883440694292162e-16,"ok":true},'
    '{"m":0.01,"M":1.1,"witness_kl":0.09099781249625849,"upper":0.09099781249625848,"rel_gap":-1.525068287590437e-16,"ok":true},'
    '{"m":0.01,"M":2.0,"witness_kl":0.6665224701752818,"upper":0.6665224701752817,"rel_gap":-1.6656948179604368e-16,"ok":true},'
    '{"m":0.01,"M":10.0,"witness_kl":2.240353063453666,"upper":2.240353063453666,"rel_gap":0.0,"ok":true},'
    '{"m":0.01,"M":100.0,"witness_kl":4.513978697156645,"upper":4.513978697156644,"rel_gap":-1.9676176590279191e-16,"ok":true},'
    '{"m":0.01,"M":1000.0,"witness_kl":6.7927400034343295,"upper":6.792740003434329,"rel_gap":-1.307540726203377e-16,"ok":true},'
    '{"m":0.1,"M":1.1,"witness_kl":0.07133122707634124,"upper":0.07133122707634117,"rel_gap":-9.727708590349893e-16,"ok":true},'
    '{"m":0.1,"M":2.0,"witness_kl":0.535477060899209,"upper":0.535477060899209,"rel_gap":0.0,"ok":true},'
    '{"m":0.1,"M":10.0,"witness_kl":1.8839332579042196,"upper":1.8839332579042192,"rel_gap":-2.3572449182413685e-16,"ok":true},'
    '{"m":0.1,"M":100.0,"witness_kl":3.9206178610439157,"upper":3.9206178610439166,"rel_gap":2.265404207141055e-16,"ok":true},'
    '{"m":0.1,"M":1000.0,"witness_kl":5.98755025531935,"upper":5.98755025531935,"rel_gap":0.0,"ok":true},'
    '{"m":0.5,"M":1.1,"witness_kl":0.029605399773969053,"upper":0.02960539977396902,"rel_gap":-1.1718966737291541e-15,"ok":true},'
    '{"m":0.5,"M":2.0,"witness_kl":0.2310490601866484,"upper":0.23104906018664845,"rel_gap":2.402569877861188e-16,"ok":true},'
    '{"m":0.5,"M":10.0,"witness_kl":0.8835540160474185,"upper":0.8835540160474183,"rel_gap":-1.256542332965383e-16,"ok":true},'
    '{"m":0.5,"M":100.0,"witness_kl":1.9693238579064043,"upper":1.9693238579064043,"rel_gap":0.0,"ok":true},'
    '{"m":0.5,"M":1000.0,"witness_kl":3.1092052254140823,"upper":3.1092052254140823,"rel_gap":0.0,"ok":true},'
    '{"m":0.9,"M":1.1,"witness_kl":0.005008366846356832,"upper":0.005008366846356825,"rel_gap":-1.3854603939315474e-15,"ok":true},'
    '{"m":0.9,"M":2.0,"witness_kl":0.03982270183631395,"upper":0.03982270183631398,"rel_gap":6.969787165550592e-16,"ok":true},'
    '{"m":0.9,"M":10.0,"witness_kl":0.15924889188633545,"upper":0.1592488918863354,"rel_gap":-3.4858108319446994e-16,"ok":true},'
    '{"m":0.9,"M":100.0,"witness_kl":0.36997053395326523,"upper":0.36997053395326535,"rel_gap":3.000841750184894e-16,"ok":true},'
    '{"m":0.9,"M":1000.0,"witness_kl":0.5965828128017835,"upper":0.5965828128017835,"rel_gap":0.0,"ok":true}]},"all_ok":true}\n'
)


def test_verify_stdout_is_frozen(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "10000", "--seed", "1")
    assert code == 0
    assert out == VERIFY_SEED1_STDOUT


def test_verify_with_a_broken_upper_bound_exits_two(capsys, monkeypatch):
    # phi miscaled either way, or U read on the wrong TV scale (a factor
    # of 2), moves U off KL where it is attained: one failing summary line
    # and exit 2, not a traceback
    from divbounds import pinsker

    phi = pinsker._phi
    for scale in (1 + 1e-9, 1 - 1e-9, 2.0, 0.5):
        monkeypatch.setattr(pinsker, "_phi", lambda x, *xp: scale * phi(x, *xp))
        code, out, err = run_cli(capsys, "verify", "--trials", "10000")
        assert code == 2
        assert len(out.splitlines()) == 1
        payload = json.loads(out)
        assert payload["all_ok"] is False
        assert not any(row["ok"] for row in payload["tightness"]["upper"])
        assert all(row["ok"] for row in payload["tightness"]["lower"])
        assert "Traceback" not in err


def test_verify_rejects_bad_tolerance(capsys):
    # the tightness rows use the attainment tolerance, so verify has no
    # --gap-tol: any value is a usage error before a stage runs
    for gap_tol in ("-1", "nan", "inf", "1e-12"):
        code, out, err = run_cli(capsys, "verify", "--trials", "50", "--gap-tol", gap_tol)
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: --gap-tol {gap_tol}" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--trials", "50", "--seed", "-1"], "seed must be >= 0, got -1"),
        # gaussian-akl draws nothing and takes no seed: a usage error
        (["gaussian-akl", "--p", P_G1, "--q", Q_G3, "--seed", "-1"],
         "unrecognized arguments: --seed -1"),
    ],
    ids=["verify", "gaussian-akl"],
)
def test_negative_seed_is_input_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    _assert_one_error(err, message)


@pytest.mark.parametrize("step", ["0", "2", "-0.1", "nan", "0.3", "1e-9"])
def test_verify_rejects_bad_step_before_running(capsys, step):
    # the tightness rows use the pairs that attain the curve, not a grid,
    # so verify has no --step: any value is a usage error before a stage runs
    code, out, err = run_cli(capsys, "verify", "--trials", "50", "--step", step)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: --step {step}" in err
    assert "Traceback" not in err


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
    "gaussian_akl": ["gaussian-akl", "--p", P_G1, "--q", Q_G3],
    "sandwich_discrete": ["sandwich", "--p", P_DISC, "--q", Q_DISC],
    "sandwich_augmented": [
        "sandwich", "--p", P_G1, "--q", Q_G3,
        "--m1", "0.1", "--M1", "20", "--m2", "0.1", "--M2", "20",
    ],
    "verify": ["verify", "--trials", "50", "--seed", "1"],
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
    # the divbounds submodules, numpy, numpy.random and dataclasses, as a
    # child process has them after running ``statement`` with ``argv`` as
    # sys.argv[1:]
    proc = _run_child(
        "-c",
        f"import sys\n{statement}\nimport json\nprint(json.dumps(sorted("
        "m for m in sys.modules if m in ('numpy', 'numpy.random', 'dataclasses') "
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


def test_verify_does_not_load_the_augmented_module():
    # augmented (and numpy's eigensolver with it) serves only the Gaussian
    # projection commands; verify's start-up and timing do not depend on it
    statement = "from divbounds.cli import main\nassert main(sys.argv[1:]) == 0"
    loaded = _loaded_after(statement, "verify", "--trials", "10")
    assert "divbounds.augmented" not in loaded


@pytest.mark.parametrize("seed", ["1", "36893488147419103232"])
def test_verify_does_not_load_numpy_random(seed):
    # the fuzz draws from its own SplitMix64 stream, for seeds of any size;
    # numpy.random alone costs milliseconds and megabytes of every run
    statement = "from divbounds.cli import main\nassert main(sys.argv[1:]) == 0"
    loaded = _loaded_after(statement, "verify", "--trials", "10", "--seed", seed)
    assert "numpy" in loaded and "numpy.random" not in loaded


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
