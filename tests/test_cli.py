"""Command-line interface: exit codes, report schema, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import periodmaps
from periodmaps import cli
from periodmaps.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from periodmaps.data import FIXTURES


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_enumerates_the_catalog(capsys):
    code, out, _ = _run(capsys, "list")
    assert code == EXIT_OK
    data = json.loads(out)
    names = [e["map"] for e in data["maps"]]
    assert "lv3" in names and "qrt" in names
    lv3 = next(e for e in data["maps"] if e["map"] == "lv3")
    assert lv3["periods"] == [2, 3, 4, 5]


def test_verify_on_variety_passes(capsys):
    code, out, _ = _run(capsys, "verify", "--map", "lv3", "--period", "3",
                        "--seeds", "4")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["residual_summary"]["count"] == 4
    assert rep["residual_summary"]["passed"] == 4
    assert rep["residual_summary"]["max_residual"] <= 1e-9
    assert "wall_time_ms" in rep


def test_verify_lyness_needs_no_variety(capsys):
    code, out, _ = _run(capsys, "verify", "--map", "lyness5", "--period", "5",
                        "--seeds", "5")
    assert code == EXIT_OK
    assert json.loads(out)["residual_summary"]["passed"] == 5


@pytest.mark.parametrize("argv", [
    ["--map", "lyness5", "--period", "10", "--seeds", "2"],
    ["--map", "lyness2", "--period", "4", "--a", "7", "--seeds", "1"],
], ids=["lyness5-10", "lyness2-4"])
def test_verify_fails_an_orbit_that_is_not_a_primitive_cycle(capsys, argv):
    # lyness5 has period 5 and lyness2 period 2: the orbits return after
    # 10 and 4 steps, but they are not primitive 10- and 4-cycles
    code, out, _ = _run(capsys, "verify", *argv)
    assert code == EXIT_FAIL
    for v in json.loads(out)["verdicts"]:
        assert v["residual"] <= 1e-9 and not v["primitive"] and not v["pass"]


def test_verify_off_variety_finds_no_returns(capsys):
    code, out, _ = _run(capsys, "verify", "--map", "lv3", "--off-variety",
                        "--seeds", "5", "--tol", "1e-7")
    assert code == EXIT_OK
    rep = json.loads(out)
    for v in rep["verdicts"]:
        assert v["pass"] and v["returns"] == []


def test_an_off_variety_run_that_scans_no_draw_fails(capsys):
    # at this tol every draw counts as lying on a variety and is skipped
    code, out, _ = _run(capsys, "verify", "--map", "lv3", "--off-variety",
                        "--seeds", "2", "--tol", "1e300")
    assert code == EXIT_FAIL
    rep = json.loads(out)
    assert rep["verdicts"] == [{
        "pass": False,
        "error": "all 2 draws lay on a variety; none was scanned"}]
    assert rep["residual_summary"] == {"count": 1, "passed": 0}


def test_reports_are_deterministic_up_to_wall_time(capsys):
    argv = ("sample", "--map", "lv3", "--period", "2", "--seeds", "3")
    _, out1, _ = _run(capsys, *argv)
    _, out2, _ = _run(capsys, *argv)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time_ms")
    r2.pop("wall_time_ms")
    assert r1 == r2


def test_eliminate_matches_fixture(capsys):
    code, out, _ = _run(capsys, "eliminate", "--map", "lv3", "--period", "2")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert all(v["fixture_match"] is not None for v in rep["verdicts"])


def test_orbit_csv_output(capsys):
    code, out, _ = _run(capsys, "orbit", "--map", "lyness8",
                        "--init", "1,1,1", "--steps", "8", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0].startswith("step,re_x")
    assert len(lines) == 10
    first_coords = [float(l.split(",")[1]) for l in lines[1:]]
    assert first_coords == pytest.approx([1, 3, 5, 9, 5, 3, 1, 1, 1])


def test_fixtures_command_reports_verdicts(capsys):
    code, out, _ = _run(capsys, "fixtures", "--map", "lv4", "--period", "2")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert len(rep["verdicts"]) == 3
    assert all(v["behavioral"] and v["symbolic"] for v in rep["verdicts"])


def test_lv4_names_the_hyperplane_it_degenerates_on(capsys):
    # lv4's step is regular on the hyperplanes x_j = 1: from x = 1 the
    # orbit goes on, and r = xyzu stays 24; the verdicts at seed 560106's
    # first draw on the variety, which has z = 1, and at seed 1381's draw
    # off it, which has a coordinate 1, pass
    code, out, _ = _run(capsys, "orbit", "--map", "lv4", "--init", "1,2,3,4",
                        "--steps", "3")
    assert code == EXIT_OK
    for point in json.loads(out)["points"]:
        r = 1
        for re, im in point:
            r *= complex(re, im)
        assert abs(r - 24) <= 1e-12 * 24
    for where in (["--period", "2", "--seed", "560106"],
                  ["--off-variety", "--seeds", "1", "--seed", "1381"]):
        code, out, _ = _run(capsys, "verify", "--map", "lv4", *where)
        assert code == EXIT_OK
        assert all(v["pass"] for v in json.loads(out)["verdicts"])


def test_unknown_variety_is_a_usage_error(capsys):
    code, _, err = _run(capsys, "sample", "--map", "lv3", "--period", "9")
    assert code == EXIT_USAGE
    assert "available periods" in err


def test_missing_parameter_is_a_usage_error(capsys):
    code, _, err = _run(capsys, "verify", "--map", "moebius2d",
                        "--period", "3")
    assert code == EXIT_USAGE
    assert "usage error" in err


def test_text_format_renders_flat_lines(capsys):
    code, out, _ = _run(capsys, "list", "--map", "lv3", "--format", "text")
    assert code == EXIT_OK
    assert "map: lv3" in out


def test_out_flag_writes_a_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["sample", "--map", "lv3", "--period", "2", "--seeds", "2",
                 "--out", str(target)])
    capsys.readouterr()
    assert code == EXIT_OK
    rep = json.loads(target.read_text())
    assert rep["residual_summary"]["passed"] == 2


# The whole `periodmaps list` report, so that any drift of the map registry
# (a parameter, a note, a period) shows up here.
LIST_REPORT = {"maps": [
    {"map": "lyness2", "note": "periodic for every initial point (period 2)",
     "parameters": ["a"], "periods": []},
    {"map": "lyness5", "note": "periodic for every initial point (period 5)",
     "periods": []},
    {"map": "lyness8", "note": "periodic for every initial point (period 8)",
     "periods": []},
    {"map": "lv3", "periods": [2, 3, 4, 5]},
    {"map": "lv4", "periods": [2]},
    {"map": "toda3", "periods": [3]},
    {"map": "euler", "parameters": ["alpha", "beta", "gamma"], "periods": [3]},
    {"map": "moebius2d", "parameters": ["a", "b"], "periods": [2, 3, 4, 5, 6]},
    {"map": "qrt", "parameters": ["qp", "qpp"], "periods": [3, 4, 5]},
]}


def test_list_report_is_pinned(capsys):
    code, out, _ = _run(capsys, "list")
    assert code == EXIT_OK
    assert out == json.dumps(LIST_REPORT, indent=2, sort_keys=True) + "\n"


def test_module_entry_point_runs_the_cli(capsys):
    # python -m periodmaps from a checkout: same report, exit code passed on
    src = str(Path(periodmaps.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "periodmaps", *argv],
                              capture_output=True, text=True, env=env)

    listed = run("list")
    assert listed.returncode == EXIT_OK
    assert listed.stdout == _run(capsys, "list")[1]
    assert run("verify", "--map", "lv3").returncode == EXIT_USAGE


@pytest.mark.parametrize("name, period, flags, params", [
    ("lyness2", 2, ["--a", "7"], {"a": "7"}),
    ("moebius2d", 3, ["--a", "2", "--b", "1/3"], {"a": "2", "b": "1/3"}),
    ("euler", 3, ["--alpha", "1/3", "--beta", "1/5", "--gamma=-2/7"],
     {"alpha": "1/3", "beta": "1/5", "gamma": "-2/7"}),
    ("qrt", 4, ["--qp", "1,2,0,3,1,2", "--qpp", "0,1,1,0,2,1"],
     {"qp": ["1", "2", "0", "3", "1", "2"],
      "qpp": ["0", "1", "1", "0", "2", "1"]}),
])
def test_map_flags_reach_the_descriptor(capsys, name, period, flags, params):
    code, out, _ = _run(capsys, "verify", "--map", name, "--period",
                        str(period), "--seeds", "2", *flags)
    assert code == EXIT_OK
    assert json.loads(out)["config"]["map_descriptor"]["params"] == params


@pytest.mark.parametrize("argv, message", [
    (["verify", "--map", "lv3"], "--period"),
    (["verify", "--map", "lv3", "--off-variety", "--period", "3", "--seeds",
      "2"], "--period or --off-variety, not both"),
    (["verify", "--map", "lv3", "--period", "3", "--seeds", "-5"], "--seeds"),
    (["verify", "--map", "lv3", "--period", "3", "--seeds", "0"], "--seeds"),
    (["verify", "--map", "lv3", "--period", "3", "--tol", "-1"], "--tol"),
    (["verify", "--map", "lv3", "--period", "3", "--tol", "0"], "--tol"),
    (["verify", "--map", "lv3", "--period", "3", "--tol", "nan"], "--tol"),
    (["verify", "--map", "lv3", "--period", "3", "--tol", "inf"], "--tol"),
    (["orbit", "--map", "lyness8", "--init", "1,1,1", "--steps", "-2"],
     "--steps"),
    (["verify", "--map", "lv3", "--period", "3", "--a", "5"], "'a'"),
    (["eliminate", "--map", "lv4", "--period", "2", "--a", "1"], "'a'"),
    (["eliminate", "--map", "euler", "--period", "3"],
     "recorded periods: []"),
    (["eliminate", "--map", "qrt", "--period", "3"],
     "qrt requires parameter 'qp'"),
    (["eliminate", "--map", "qrt", "--period", "6", "--qp", "1,2,0,3,1,2",
      "--qpp", "0,1,1,0,2,1"], "recorded periods: [3, 4, 5]"),
    (["verify", "--map", "qrt", "--period", "3", "--qp", "1,2,3", "--qpp",
      "0,1,1,0,2,1"], "expected six rational parameters"),
    (["eliminate", "--map", "moebius2d", "--period", "3", "--a", "1"],
     "moebius2d requires parameter 'b'"),
    (["eliminate", "--map", "example", "--period", "4"],
     "recorded periods: [3]"),
    (["eliminate", "--map", "moebius2d", "--period", "9"],
     "recorded periods: [2, 3, 4, 5, 6, 7, 8]"),
    (["fixtures", "--map", "lv3", "--period", "4"],
     "recorded periods: [2, 3]"),
    (["orbit", "--map", "lyness8", "--init", "1,1", "--steps", "3"],
     "--init"),
    (["verify", "--map", "lv3", "--period", "3", "--format", "csv"],
     "--format"),
    (["list", "--format", "csv"], "--format"),
    (["fixtures", "--map", "moebius2d", "--period", "3", "--a", "5", "--b",
      "7"], "unrecognized arguments: --a 5 --b 7"),
    (["fixtures", "--map", "lv3", "--period", "2", "--seeds", "5", "--seed",
      "9"], "unrecognized arguments: --seeds 5 --seed 9"),
    (["eliminate", "--map", "lv4", "--period", "2", "--seeds", "3", "--seed",
      "4"], "unrecognized arguments: --seeds 3 --seed 4"),
    (["eliminate", "--map", "lv4", "--period", "2", "--tol", "1e-7"],
     "unrecognized arguments: --tol 1e-7"),
    (["fixtures", "--map", "lv3", "--period", "2", "--tol", "1e-7"],
     "unrecognized arguments: --tol 1e-7"),
    (["list", "--out", "/no/such/dir/x.json"], "/no/such/dir/x.json"),
    (["list", "--out", "."], "--out .: is a directory"),
    (["orbit", "--map", "lv3", "--init", "1e400,1,2", "--steps", "2"],
     "too large for a float: '1e400'"),
    (["verify", "--map", "lyness2", "--period", "2", "--a", "1e400"],
     "too large for a float: '1e400'"),
    (["sample", "--map", "lv3", "--period", "1"], "--period"),
], ids=["verify-without-period", "off-variety-with-period", "negative-seeds",
        "zero-seeds", "negative-tol", "zero-tol", "nan-tol", "infinite-tol",
        "negative-steps", "foreign-parameter", "eliminate-foreign-parameter",
        "eliminate-euler", "eliminate-qrt", "eliminate-qrt-period",
        "verify-qrt-short-qp", "eliminate-moebius2d-missing-b",
        "eliminate-example-period",
        "eliminate-moebius2d-period", "fixtures-unrecorded-period",
        "orbit-init-length", "verify-csv", "list-csv", "fixtures-parameters",
        "fixtures-seeds", "eliminate-seeds", "eliminate-tol", "fixtures-tol",
        "out-missing-directory",
        "out-directory", "orbit-init-overflow", "parameter-overflow",
        "period-one"])
def test_bad_input_is_a_usage_error_with_a_message(capsys, argv, message):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == EXIT_USAGE
    assert message in out.err
    assert out.out == ""


@pytest.mark.parametrize("period, qp, qpp, message", [
    # its resultant is a monomial
    (3, "1,0,0,0,0,0", "0,0,1,0,0,0", "elimination left no nontrivial factor"),
    # Y's denominator vanishes on the whole variety
    (3, "0,1,0,0,-1,0", "0,-1,0,1,0,0",
     "the map has a pole in Y on the whole variety"),
    (4, "0,1,0,0,-1,0", "0,-1,0,1,0,0",
     "generator does not involve the solve coordinate 'y'"),
    (5, "0,1,0,0,-1,0", "0,-1,0,1,0,0",
     "derived factor does not vanish on the variety: X*x - X - x"),
], ids=["monomial-resultant", "unfiltered-factor", "generator-without-y",
        "failed-certificate"])
def test_bad_input_eliminate_with_no_transitions_fails(capsys, period, qp,
                                                        qpp, message):
    # no transition of these members can be sampled; eliminate samples
    # none, and its exact tests reject each member with a reason
    code, out, err = _run(capsys, "eliminate", "--map", "qrt", "--period",
                          str(period), "--qp", qp, "--qpp", qpp)
    assert code == EXIT_FAIL
    assert f"error: {message}" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["--map", "lv3", "--period", "3"],
    ["--map", "toda3", "--period", "3"],
    ["--map", "moebius2d", "--period", "7"],
    ["--map", "qrt", "--period", "3", "--qp", "1,2,0,3,1,2", "--qpp",
     "0,1,1,0,2,1"],
], ids=lambda argv: " ".join(argv[1:4:2]))
def test_eliminate_neither_samples_nor_finds_roots(capsys, monkeypatch,
                                                   argv):
    from periodmaps import elim, varieties
    # the package exports a function named roots, which hides the module
    roots = sys.modules["periodmaps.algebra.roots"]

    def refuse(*args, **kwargs):
        raise AssertionError("eliminate sampled or found roots")
    for module, name in [(elim, "make_transitions"),
                         (elim, "sample_on_variety"),
                         (varieties, "sample_on_variety"),
                         (varieties, "roots_of_poly"),
                         (roots, "roots")]:
        monkeypatch.setattr(module, name, refuse)
    code, out, _ = _run(capsys, "eliminate", *argv)
    assert code == EXIT_OK
    assert json.loads(out)["verdicts"]


def test_eliminate_rejects_a_collapsing_moebius_member(capsys):
    # a*b = 1: eliminate fails as verify does, with the builder's message
    for command in ("eliminate", "verify"):
        code, out, err = _run(capsys, command, "--map", "moebius2d",
                              "--period", "3", "--a", "2", "--b", "1/2")
        assert code == EXIT_FAIL
        assert "collapses to a constant map" in err
        assert out == ""


def test_lyness2_rejects_a_constant_member(capsys):
    # a = 0 makes x -> a/x the constant map x -> 0, which no period or
    # off-variety verdict can speak about
    for flags in (["--period", "2"], ["--off-variety"]):
        code, out, err = _run(capsys, "verify", "--map", "lyness2",
                              "--a", "0", *flags)
        assert code == EXIT_FAIL
        assert "collapses to a constant map" in err
        assert out == ""


def test_a_reducible_qrt_pencil_is_rejected(capsys):
    # S_q' + h S_q'' = (X + x)(X x + h) for every h: the builder says so
    # instead of failing its invariant check
    code, out, err = _run(capsys, "verify", "--map", "qrt", "--period", "3",
                          "--qp", "0,1,0,0,0,0", "--qpp", "0,0,0,0,1,0")
    assert code == EXIT_FAIL
    assert "error: S_q' and S_q'' share a factor" in err
    assert out == ""


# sha256 of whole reports, floats included, with wall_time_ms removed and
# the rest dumped as the CLI dumps it: any float that moves shows up here
REPORT_SHA256 = [
    (["verify", "--map", "toda3", "--period", "3", "--seeds", "5"],
     "8aca5538d37f9fa22f8c5b2b98a1dc5a040ab2559513d6f08c40a9c717fb38b4"),
    (["verify", "--map", "qrt", "--period", "5", "--qp", "1,2,0,3,1,2",
      "--qpp", "0,1,1,0,2,1", "--seeds", "5"],
     "f2cce46cca9248f0101da9e64932aa592f898bc1995b4c570d87a269509e2526"),
    (["verify", "--map", "euler", "--period", "3", "--alpha=1/3",
      "--beta=1/5", "--gamma=-2/7", "--seeds", "5"],
     "46ef555cbcda95b3cd947217b28315c9201854df26790481349f87e81b342152"),
    (["verify", "--map", "moebius2d", "--period", "5", "--a", "2", "--b",
      "1/3", "--seeds", "5"],
     "4c19b2ec36dfcb3f8f06fd5fa5dc0d71e3992c146f54df60430167a4114e2d09"),
    (["verify", "--map", "lv4", "--off-variety", "--seeds", "5"],
     "7c74cc1e6f49321a4788cf6bfe54cf88d877facf6e5a16a95a765fcb2ab6e177"),
    (["sample", "--map", "lv3", "--period", "4", "--seeds", "5"],
     "729de67d3230df751b3df1ec87eb253dc915231ff26986e9c45cd01dae6164eb"),
]


@pytest.mark.parametrize("argv, sha256", REPORT_SHA256,
                         ids=[" ".join(argv[:3]) for argv, _ in REPORT_SHA256])
def test_whole_reports_are_pinned(capsys, argv, sha256):
    code, out, _ = _run(capsys, *argv)
    assert code == EXIT_OK
    rep = json.loads(out)
    rep.pop("wall_time_ms")
    text = json.dumps(rep, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_two_main_calls_build_one_parser(capsys, monkeypatch):
    import argparse
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "periodmaps":
            built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    assert _run(capsys, "list")[0] == EXIT_OK
    assert _run(capsys, "list", "--map", "lv3")[0] == EXIT_OK
    assert len(built) == 1


def test_fixtures_derives_once_per_map_and_period(capsys, monkeypatch):
    from periodmaps import elim
    calls = {"derive": 0, "make_transitions": 0}

    def counted(name):
        original = getattr(elim, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(elim, name, wrapper)

    counted("derive")
    counted("make_transitions")
    code, out, _ = _run(capsys, "fixtures", "--map", "toda3", "--period", "3")
    assert code == EXIT_OK
    assert len(json.loads(out)["verdicts"]) == 4
    # every toda3 fixture is reproduced, so none is sampled
    assert calls == {"derive": 1, "make_transitions": 0}


@pytest.mark.parametrize("name, period", [
    (name, period) for name, periods in FIXTURES.items()
    for period in periods])
def test_fixtures_samples_only_what_no_derivation_reproduces(
        capsys, monkeypatch, name, period):
    """A reproduced fixture is certified by its derivation: only euler's,
    whose F carries the square root q, are evaluated on transitions, and
    those are sampled once."""
    from periodmaps import elim, varieties
    calls = []
    sample = elim.make_transitions

    def counted(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError(f"fixtures sampled for {name} {period}")
    if name == "euler":
        monkeypatch.setattr(elim, "make_transitions", counted)
    else:
        for module, attr in [(elim, "make_transitions"),
                             (elim, "sample_on_variety"),
                             (varieties, "sample_on_variety")]:
            monkeypatch.setattr(module, attr, refuse)
    code, out, _ = _run(capsys, "fixtures", "--map", name, "--period", period)
    assert code == EXIT_OK
    verdicts = json.loads(out)["verdicts"]
    assert all(v["pass"] for v in verdicts)
    assert all(("max_residual" in v) == (name == "euler") for v in verdicts)
    assert len(calls) == (1 if name == "euler" else 0)


# sha256 of the F strings of `eliminate --map lv3 --period 4`, joined by
# newlines, as the Sylvester-Bareiss resultants and the gcd-based
# squarefree step gave them
LV3_P4_F_SHA256 = (
    "bd5135250a8167f626f0b3c1ba6d36ed3b8a5502af46460799cab6e6360fb11f")


def test_eliminate_without_fixtures_reports_what_it_derives(capsys):
    # lv3 p4 has an elimination setup but no recorded fixture
    code, out, _ = _run(capsys, "eliminate", "--map", "lv3", "--period", "4")
    assert code == EXIT_OK
    verdicts = json.loads(out)["verdicts"]
    assert [sorted(v) for v in verdicts] == [["F", "pass"]] * 2
    assert all(v["pass"] for v in verdicts)
    text = "\n".join(v["F"] for v in verdicts)
    assert hashlib.sha256(text.encode()).hexdigest() == LV3_P4_F_SHA256


# the same for `eliminate --map lv3 --period 5`, derived from the generator
# with the degenerate factor s^2 stripped: each F is irreducible, where the
# generator as recorded gave (X - 1) and (Y*x*y - Y*x + Y - x*y) times them
LV3_P5_F_SHA256 = (
    "1ff012a332a9639f13db55190ad8f7d8b41e41d1eca0046fbde730653005d99a")


def _lv3_p5_recurrences(capsys):
    code, out, _ = _run(capsys, "eliminate", "--map", "lv3", "--period", "5")
    assert code == EXIT_OK
    return json.loads(out)["verdicts"]


def test_eliminate_lv3_period_5_derives_one_recurrence_per_target(capsys):
    verdicts = _lv3_p5_recurrences(capsys)
    assert [sorted(v) for v in verdicts] == [["F", "pass"]] * 2
    assert all(v["pass"] for v in verdicts)
    text = "\n".join(v["F"] for v in verdicts)
    assert hashlib.sha256(text.encode()).hexdigest() == LV3_P5_F_SHA256


def test_eliminate_lv3_period_5_recurrences_are_irreducible(capsys):
    # sympy's factorisation over Q is the oracle; the library never
    # imports it
    sympy = pytest.importorskip("sympy")
    for v in _lv3_p5_recurrences(capsys):
        _, factors = sympy.factor_list(sympy.sympify(v["F"].replace("^", "**")))
        assert [m for _, m in factors] == [1], v["F"][:40]


def test_fixtures_fail_when_a_recorded_elimination_breaks(capsys,
                                                          monkeypatch):
    from periodmaps import elim
    from periodmaps.errors import EliminationError

    def broken(*args, **kwargs):
        raise EliminationError("elimination left no nontrivial factor")
    monkeypatch.setattr(elim, "eliminate", broken)
    code, out, err = _run(capsys, "fixtures", "--map", "lv3", "--period", "2")
    assert code == EXIT_FAIL
    assert "no nontrivial factor" in err


def _count_compositions(monkeypatch):
    from periodmaps import varieties
    calls = []
    original = varieties.compose_parts

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(varieties, "compose_parts", counted)
    return calls


def test_sample_requests_share_one_variety_generator(capsys, monkeypatch):
    # parameters no other test uses, so nothing is composed beforehand
    calls = _count_compositions(monkeypatch)
    argv = ("sample", "--map", "moebius2d", "--period", "4", "--a", "3",
            "--b", "2/7", "--seeds", "2")
    assert _run(capsys, *argv)[0] == EXIT_OK
    assert _run(capsys, *argv)[0] == EXIT_OK
    assert len(calls) == 1


def test_off_variety_verify_composes_no_numerator(capsys, monkeypatch):
    from functools import lru_cache
    from periodmaps import varieties
    # a fresh generator cache, so that no earlier test has composed lv3's
    fresh = lru_cache(maxsize=None)(varieties._generator.__wrapped__)
    monkeypatch.setattr(varieties, "_generator", fresh)
    calls = _count_compositions(monkeypatch)
    code, _, _ = _run(capsys, "verify", "--map", "lv3", "--off-variety",
                      "--seeds", "1")
    assert code == EXIT_OK
    assert calls == []


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [line.split("#", 1)[0].split()[1:]
            for line in block.splitlines() if line.strip()]


def test_readme_commands_run(capsys):
    commands = _readme_commands()
    assert commands and all(argv for argv in commands)
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
        capsys.readouterr()
