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


def test_verify_off_variety_finds_no_returns(capsys):
    code, out, _ = _run(capsys, "verify", "--map", "lv3", "--off-variety",
                        "--seeds", "5", "--tol", "1e-7")
    assert code == EXIT_OK
    rep = json.loads(out)
    for v in rep["verdicts"]:
        assert v["pass"] and v["returns"] == []


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
    # on x_j = 1 the cyclic chain forces an image coordinate, and r, to 0
    code, _, err = _run(capsys, "orbit", "--map", "lv4", "--init", "1,2,3,4",
                        "--steps", "4")
    assert code == EXIT_FAIL
    assert "(drift 0.96); the point lies on x = 1," in err
    code, out, _ = _run(capsys, "verify", "--map", "lv4", "--period", "2",
                        "--seed", "560106")
    assert code == EXIT_FAIL
    first, *rest = json.loads(out)["verdicts"]
    assert "the point lies on z = 1, where the cyclic chain" in first["error"]
    assert all(v["pass"] for v in rest)


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
    (["list", "--out", "/no/such/dir/x.json"], "/no/such/dir/x.json"),
    (["orbit", "--map", "lv3", "--init", "1e400,1,2", "--steps", "2"],
     "too large for a float: '1e400'"),
    (["verify", "--map", "lyness2", "--period", "2", "--a", "1e400"],
     "too large for a float: '1e400'"),
], ids=["verify-without-period", "off-variety-with-period", "negative-seeds",
        "zero-seeds", "negative-tol", "zero-tol", "nan-tol", "infinite-tol",
        "negative-steps", "foreign-parameter", "eliminate-foreign-parameter",
        "eliminate-euler", "eliminate-qrt", "eliminate-qrt-period",
        "verify-qrt-short-qp", "eliminate-moebius2d-missing-b",
        "eliminate-example-period",
        "eliminate-moebius2d-period", "fixtures-unrecorded-period",
        "orbit-init-length", "verify-csv", "list-csv", "fixtures-parameters",
        "fixtures-seeds", "eliminate-seeds", "out-missing-directory",
        "orbit-init-overflow", "parameter-overflow"])
def test_bad_input_is_a_usage_error_with_a_message(capsys, argv, message):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == EXIT_USAGE
    assert message in out.err
    assert out.out == ""


@pytest.mark.parametrize("qp, qpp", [
    ("1,0,0,0,0,0", "0,0,1,0,0,0"),     # its resultant is a monomial
    ("0,1,0,0,-1,0", "0,-1,0,1,0,0"),   # derives X*x - X - x unfiltered
], ids=["monomial-resultant", "unfiltered-factor"])
def test_bad_input_eliminate_with_no_transitions_fails(capsys, qp, qpp):
    # no transition of these members can be sampled, so nothing would
    # filter the factors: eliminate fails rather than pass unchecked
    code, out, err = _run(capsys, "eliminate", "--map", "qrt", "--period",
                          "3", "--qp", qp, "--qpp", qpp)
    assert code == EXIT_FAIL
    assert "error: could not collect 12 transitions for (qrt, 3)" in err
    assert out == ""


def test_eliminate_rejects_a_collapsing_moebius_member(capsys):
    # a*b = 1: eliminate fails as verify does, with the builder's message
    for command in ("eliminate", "verify"):
        code, out, err = _run(capsys, command, "--map", "moebius2d",
                              "--period", "3", "--a", "2", "--b", "1/2")
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
     "61eafa6c307caadc1b8fdeb4d9ce8c699085cbac14d97a91c6943e35e3774999"),
    (["verify", "--map", "qrt", "--period", "5", "--qp", "1,2,0,3,1,2",
      "--qpp", "0,1,1,0,2,1", "--seeds", "5"],
     "4dce16040ea861b2fa2a8527df67a11e3da2b8b7e06029ebd5649d81bce94c80"),
    (["verify", "--map", "euler", "--period", "3", "--alpha=1/3",
      "--beta=1/5", "--gamma=-2/7", "--seeds", "5"],
     "c39a8ffcc277cc104f4e6d6b0fe9e9bcc11abd631113844f4b70064676f0644c"),
    (["verify", "--map", "moebius2d", "--period", "5", "--a", "2", "--b",
      "1/3", "--seeds", "5"],
     "491c2e235d01442ec78e388f7c552b2cd1a723f20fdedbe650829fda132284e0"),
    (["verify", "--map", "lv4", "--off-variety", "--seeds", "5"],
     "86420efd3a748c8ffdaa79bc1753f1eb70a2df1380f436b73a73920bf50a231f"),
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
    assert calls == {"derive": 1, "make_transitions": 1}


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


# the same for `eliminate --map lv3 --period 5`, the first run to pass,
# under the running-error vanishing bound
LV3_P5_F_SHA256 = (
    "9a381df4fcf370469fb4be288a3ccaf351218e17a98944b73c64b9f61a667bcc")


def test_eliminate_lv3_period_5_derives_one_recurrence_per_target(capsys):
    code, out, _ = _run(capsys, "eliminate", "--map", "lv3", "--period", "5")
    assert code == EXIT_OK
    verdicts = json.loads(out)["verdicts"]
    assert [sorted(v) for v in verdicts] == [["F", "pass"]] * 2
    assert all(v["pass"] for v in verdicts)
    text = "\n".join(v["F"] for v in verdicts)
    assert hashlib.sha256(text.encode()).hexdigest() == LV3_P5_F_SHA256


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
