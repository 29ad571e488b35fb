import contextlib
import copy
import io
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwembed import AtomicMeasure, ay_sweep, cli, cw_run, measure, minimality
from cwembed.diagram import render_plan_svg
from cwembed.cli import load_problem_spec, main

SPEC = {
    "mu0": [[-1, 0.5], [1, 0.5]],
    "mu": [[0, 1.0]],
    "construction": {"type": "azema-yor"},
    "simulation": {"n_paths": 20000, "seed": 7, "gammas": [2, 4], "thresholds": [0.5]},
}

BAD_PLAN_SPEC = {
    "mu0": [[-1, 0.5], [1, 0.5]],
    "mu": [[0, 1.0]],
    "construction": {"type": "custom", "tangents": [[0, -2], [-1, -2], [1, -2]], "C": 2},
    "simulation": {"n_paths": 5000, "seed": 1, "gammas": [2]},
}


@pytest.fixture
def spec_file(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(SPEC))
    return p


def test_analyze_text(tmp_path, capsys, monkeypatch):
    spec_file = tmp_path / "spec.json"
    thresholds = [-1, -0.5, 0, 0.5, 1]
    spec_file.write_text(json.dumps(dict(SPEC, simulation={"thresholds": thresholds})))
    calls, potentials = [], []
    real, real_potential = minimality.contact_region, AtomicMeasure.potential
    monkeypatch.setattr(minimality, "contact_region", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr(AtomicMeasure, "potential",
                        lambda m: potentials.append(m) or real_potential(m))
    measure.pair.cache_clear()
    assert main(["analyze", "--spec", str(spec_file)]) == 0
    out = capsys.readouterr().out
    assert "C = 1" in out
    assert "{0}" in out
    assert out.count("P(max >= ") == len(thresholds)
    assert len(calls) == 1
    assert len(potentials) == 2  # the pair's two potentials, computed once


def test_analyze_json(spec_file, capsys):
    assert main(["analyze", "--spec", str(spec_file), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["C"] == 1.0
    assert data["a_minus"] == 0.0 and data["a_plus"] == 0.0
    assert data["max_law_bound"] == [[0.5, 0.5]]
    u0 = AtomicMeasure.from_wire(SPEC["mu0"]).potential()
    assert data["mu0_potential"] == [[float(x), float(u0.evaluate(x))] for x in u0.xs]
    assert data["mu0_potential"] == [[-1.0, -1.0], [1.0, -1.0]]
    assert data["mu_potential"] == [[0.0, 0.0]]


def test_trough_analyze_bound(tmp_path, capsys):
    spec = dict(SPEC, mu0=[[0, 1.0]], mu=[[-1, 0.5], [1, 0.5]])
    p = tmp_path / "s.json"
    p.write_text(json.dumps(spec))
    assert main(["analyze", "--spec", str(p), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["C"] == 0.0
    assert data["a_minus"] is None and data["a_plus"] is None
    assert abs(data["max_law_bound"][0][1] - 2 / 3) < 1e-12


def test_build_verify_round_trip(spec_file, tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    assert main(["build", "--spec", str(spec_file), "--out", str(plan_file)]) == 0
    plan = json.loads(plan_file.read_text())
    assert plan["C"] == "1" and len(plan["steps"]) == 2

    assert main(["verify", "--spec", str(spec_file), "--plan", str(plan_file)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out

    # rebuilding writes identical bytes
    plan_file2 = tmp_path / "plan2.json"
    assert main(["build", "--spec", str(spec_file), "--out", str(plan_file2)]) == 0
    assert plan_file.read_bytes() == plan_file2.read_bytes()


def test_build_verify_under_bench_tracer(spec_file, tmp_path, capsys, monkeypatch):
    # the benchmark's profiling round runs every command under this tracer
    # and does not check the outcomes, so a change the tracer breaks must
    # fail here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import tracing

    rec = tracing.Recorder(keep_plans=False)
    plan_file = tmp_path / "plan.json"
    with tracing.instrument(rec):
        assert main(["build", "--spec", str(spec_file), "--out", str(plan_file)]) == 0
        assert main(["verify", "--spec", str(spec_file), "--plan", str(plan_file)]) == 0
    assert {"cli.load_problem_spec", "construct.plan", "construct.from_wire",
            "simulate.empirical_law"} <= {span[0] for span in rec.spans}
    assert "PASS" in capsys.readouterr().out


def test_verify_csv(spec_file, tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    main(["build", "--spec", str(spec_file), "--out", str(plan_file)])
    capsys.readouterr()
    assert main(["verify", "--spec", str(spec_file), "--plan", str(plan_file),
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("atom,frequency")
    assert "gamma,side,estimate,stderr" in out
    assert "2,below,0,0" in out


@pytest.mark.parametrize("command, fmt", [("build", "json"), ("analyze", "csv")])
def test_unimplemented_format_exit_2(spec_file, tmp_path, command, fmt):
    with pytest.raises(SystemExit) as exc:
        main([command, "--spec", str(spec_file), "--out", str(tmp_path / "x"), "--format", fmt])
    assert exc.value.code == 2


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["analyze", "--spec", str(bad)]) == 2


def test_spec_validation_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mu0": [[0, 0.5]], "mu": [[0, 1.0]]}))
    assert main(["analyze", "--spec", str(bad)]) == 2


def test_inadmissible_custom_exit_3(tmp_path):
    spec = dict(SPEC, construction={"type": "custom", "tangents": [[0, -1]], "C": 0.5})
    p = tmp_path / "s.json"
    p.write_text(json.dumps(spec))
    assert main(["build", "--spec", str(p), "--out", str(tmp_path / "x.json")]) == 3


def test_truncated_vallois_exit_3(tmp_path):
    spec = dict(SPEC, mu0=[[0, 1.0]], mu=[[-1, 0.5], [1, 0.5]],
                construction={"type": "vallois", "eps": 0.25, "max_steps": 3})
    p = tmp_path / "s.json"
    p.write_text(json.dumps(spec))
    out = tmp_path / "plan.json"
    assert main(["build", "--spec", str(p), "--out", str(out)]) == 3
    assert json.loads(out.read_text())["residual"] > 1e-9


def test_bad_plan_verify_exit_4(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(BAD_PLAN_SPEC))
    plan_file = tmp_path / "plan.json"
    assert main(["build", "--spec", str(p), "--out", str(plan_file)]) == 0
    assert main(["verify", "--spec", str(p), "--plan", str(plan_file)]) == 4


def test_plan_spec_mismatch_exit_2(spec_file, tmp_path):
    other = dict(SPEC, mu=[[0.5, 1.0]])
    p2 = tmp_path / "other.json"
    p2.write_text(json.dumps(other))
    plan_file = tmp_path / "plan.json"
    assert main(["build", "--spec", str(p2), "--out", str(plan_file)]) == 0
    assert main(["verify", "--spec", str(spec_file), "--plan", str(plan_file)]) == 2


PAIR_SPEC = {"mu0": [[-1, 0.5], [1, 0.5]], "mu": [[0, 1]]}
OTHER_PAIR_SPEC = {"mu0": [[0, 1]], "mu": [[-2, 0.5], [2, 0.5]]}
BELOW_GAP_SPEC = dict(SPEC, construction={"type": "custom", "tangents": [[1, -1], [-1, -1]],
                                          "C": 0.9999999999})
TRUNCATED_SPEC = dict(SPEC, mu0=[[0, 1.0]], mu=[[-1, 0.5], [1, 0.5]],
                      construction={"type": "vallois", "eps": 0.25, "max_steps": 3})


def _cli(argv):
    """Exit code and standard error of one command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@pytest.mark.parametrize(
    "plan_spec, spec, command, code, line",
    [
        (BELOW_GAP_SPEC, None, "build", 3,
         "error: C=9999999999/10000000000 below the admissible bound 1\n"),
        (PAIR_SPEC, OTHER_PAIR_SPEC, "verify", 2,
         "error: plan measures do not match the problem spec\n"),
        (TRUNCATED_SPEC, TRUNCATED_SPEC, "verify", 3,
         "error: plan incomplete, residual = 0.45\n"),
        (PAIR_SPEC, OTHER_PAIR_SPEC, "diagram", 2,
         "error: plan measures do not match the problem spec\n"),
    ],
)
def test_error_line_and_exit_code(tmp_path, plan_spec, spec, command, code, line):
    """The one stderr line and exit code of a refused command; a refused
    diagram writes no SVG."""
    plan_spec_file, spec_file = tmp_path / "plan_spec.json", tmp_path / "spec.json"
    plan_file, out = tmp_path / "plan.json", tmp_path / "out.svg"
    plan_spec_file.write_text(json.dumps(plan_spec))
    rc, err = _cli(["build", "--spec", str(plan_spec_file), "--out", str(plan_file)])
    if spec is None:
        assert (rc, err) == (code, line)
        assert not plan_file.exists()
        return
    assert rc in (0, 3)  # a truncated plan is written before build exits 3
    spec_file.write_text(json.dumps(spec))
    extra = ["--out", str(out)] if command == "diagram" else []
    rc, err = _cli([command, "--spec", str(spec_file), "--plan", str(plan_file), *extra])
    assert (rc, err) == (code, line)
    assert not out.exists()


def test_points_equal_as_doubles_verify_exit_3(tmp_path):
    """Target atoms 1e-20 either side of mu0's atom 1 give an exact plan
    whose points are all the double 1.0: verify refuses to simulate it
    instead of reporting a FAIL about paths that never move."""
    spec = tmp_path / "spec.json"
    spec.write_text('{"mu0": [[1, 1]], "mu": [[0.99999999999999999999, 0.5], '
                    '[1.00000000000000000001, 0.5]], "construction": {"type": "azema-yor"}}')
    plan = tmp_path / "plan.json"
    assert _cli(["build", "--spec", str(spec), "--out", str(plan)]) == (0, "")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["verify", "--spec", str(spec), "--plan", str(plan)])
    assert rc == 3 and "verdict" not in out.getvalue()
    assert err.getvalue() == (
        "error: plan points 1 and 99999999999999999999... (41 digits) are the same"
        " double 1.0; the simulator cannot tell them apart\n"
    )


def test_analyze_ends_sharing_a_double_are_exact(tmp_path, capsys):
    """The contact ends 1 -+ 1e-20 are both the double 1.0: analyze writes
    them as their exact p/q instead of [-inf, 1] U [1, +inf]."""
    spec = tmp_path / "spec.json"
    spec.write_text('{"mu0": [[1, 1]], "mu": [[0.99999999999999999999, 0.5], '
                    '[1.00000000000000000001, 0.5]], "construction": {"type": "azema-yor"}}')
    assert main(["analyze", "--spec", str(spec)]) == 0
    assert "contact set = [-inf, 99999999999999999999/100000000000000000000] U " \
           "[100000000000000000001/100000000000000000000, +inf]\n" in capsys.readouterr().out


@pytest.mark.parametrize("mu0, line", [
    ("[[1, 1]]", "target potential kinks:   (99999999999999999999/100000000000000000000,"
                 " -1e-20), (100000000000000000001/100000000000000000000, -1e-20)\n"),
    ("[[0, 0.5], [2, 0.5]]", "a- = 99999999999999999999/100000000000000000000   "
                             "a+ = 100000000000000000001/100000000000000000000\n"),
], ids=["kinks", "ends"])
def test_analyze_kinks_and_ends_sharing_a_double_are_exact(tmp_path, capsys, mu0, line):
    """The target kinks 1 -+ 1e-20, and the contact ends there when mu0 is
    (delta_0 + delta_2)/2, are both the double 1.0: analyze writes them as
    their exact p/q instead of 1 twice."""
    spec = tmp_path / "spec.json"
    spec.write_text('{"mu0": %s, "mu": [[0.99999999999999999999, 0.5], '
                    '[1.00000000000000000001, 0.5]]}' % mu0)
    assert main(["analyze", "--spec", str(spec)]) == 0
    assert line in capsys.readouterr().out.splitlines(keepends=True)


@pytest.mark.parametrize("thresholds, shown", [
    (None, [("99999999999999999999/100000000000000000000", "1"),
            ("100000000000000000001/100000000000000000000", "0.5")]),
    ("[1.00000000000000000001, 0.5, 0.99999999999999999999, 0.5]",
     [("100000000000000000001/100000000000000000000", "0.5"), ("0.5", "1"),
      ("99999999999999999999/100000000000000000000", "1"), ("0.5", "1")]),
], ids=["default", "given"])
def test_analyze_thresholds_are_exact(tmp_path, capsys, thresholds, shown):
    """Thresholds, by default the target atoms 1 -+ 1e-20, are kept exact:
    the bounds there are 1 and 1/2, not both the bound at the double 1.0.
    Two distinct thresholds that share a 6-digit text print as exact p/q;
    JSON writes each threshold as a double."""
    sim = "" if thresholds is None else f', "simulation": {{"thresholds": {thresholds}}}'
    spec = tmp_path / "spec.json"
    spec.write_text('{"mu0": [[1, 1]], "mu": [[0.99999999999999999999, 0.5], '
                    '[1.00000000000000000001, 0.5]], "construction": {"type": "azema-yor"}'
                    + sim + "}")
    assert main(["analyze", "--spec", str(spec)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("max-law bound:\n" + "".join(f"  P(max >= {t}) <= {b}\n"
                                                     for t, b in shown))
    assert main(["analyze", "--spec", str(spec), "--format", "json"]) == 0
    bounds = json.loads(capsys.readouterr().out)["max_law_bound"]
    assert bounds == [[float(Fraction(t)), float(b)] for t, b in shown]


@pytest.mark.parametrize("components, text", [
    (((-math.inf, Fraction(0)), (Fraction(2), Fraction(2))), "[-inf, 0] U {2}"),
    (((-math.inf, 1 - Fraction(1, 10**20)), (Fraction(1), Fraction(1)),
      (1 + Fraction(1, 10**20), math.inf)),
     "[-inf, 99999999999999999999/100000000000000000000] U {1} U "
     "[100000000000000000001/100000000000000000000, +inf]"),
    (((Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**9)),), "[1/3, 1000000003/3000000000]"),
    ((), "(empty)"),
])
def test_region_text(components, text):
    assert cli._region_text(minimality.ContactRegion(components)) == text


@pytest.mark.parametrize("command", ["analyze", "build", "verify", "diagram"])
def test_unwritable_out_exit_2(spec_file, tmp_path, capsys, command):
    plan_file = tmp_path / "plan.json"
    assert main(["build", "--spec", str(spec_file), "--out", str(plan_file)]) == 0
    out = tmp_path / "missing" / "out.txt"
    plan = ["--plan", str(plan_file)] if command in ("verify", "diagram") else []
    capsys.readouterr()
    assert main([command, "--spec", str(spec_file), *plan, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_diagram_deterministic(spec_file, tmp_path):
    plan_file = tmp_path / "plan.json"
    main(["build", "--spec", str(spec_file), "--out", str(plan_file)])
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["diagram", "--spec", str(spec_file), "--plan", str(plan_file),
                 "--out", str(a)]) == 0
    assert main(["diagram", "--spec", str(spec_file), "--plan", str(plan_file),
                 "--out", str(b)]) == 0
    content = a.read_bytes()
    assert content == b.read_bytes()
    assert content.startswith(b"<svg")
    assert content.count(b"stroke-dasharray") == 2  # one dashed line per tangent


@pytest.mark.parametrize("atoms, height", [(6, 480), (13, 543)])
def test_diagram_canvas_holds_every_bar(atoms, height):
    # step i's bar is drawn at y = 438 + 9i, 3 px thick; a 480-px canvas
    # holds five bars, and a longer plan grows the canvas to 6 px below its last
    mu = AtomicMeasure.from_pairs([(x - Fraction(atoms - 1, 2), Fraction(1, atoms))
                                   for x in range(atoms)])
    d0 = AtomicMeasure.point(0)
    plan = cw_run(d0, ay_sweep(d0, mu), mu, 0)
    svg = render_plan_svg(plan)
    assert len(plan.steps) == atoms - 1
    assert f'height="{height}" viewBox="0 0 800 {height}"' in svg
    assert f'<rect x="0" y="0" width="800" height="{height}" fill="white"/>' in svg
    bars = [float(y) for y in re.findall(r'y1="([^"]+)"[^>]*stroke="#2ca02c"', svg)]
    assert len(bars) == len(plan.steps)
    assert all(0 <= y - 1.5 and y + 1.5 <= height for y in bars)


def test_float_precision_weights(tmp_path):
    # thirds as doubles sum to 1 - 2**-53; every construction must still
    # build and verify cleanly
    base = {
        "mu0": [[0, 1.0]],
        "mu": [[-1, 0.6666666666666666], [2, 0.3333333333333333]],
        "simulation": {"n_paths": 4000, "seed": 3},
    }
    for kind in ("azema-yor", "reversed-azema-yor", "jacka"):
        spec = dict(base, construction={"type": kind})
        p = tmp_path / "s.json"
        p.write_text(json.dumps(spec))
        plan = tmp_path / "p.json"
        assert main(["build", "--spec", str(p), "--out", str(plan)]) == 0
        assert main(["verify", "--spec", str(p), "--plan", str(plan)]) == 0


@pytest.mark.parametrize("mu, built", [
    ([[-1, 0.25], [2, 0.75]], 2),  # mass exactly 1: each measure is built once
    ([[-1, 0.6666666666666666], [2, 0.3333333333333333]], 3),  # mu is rescaled
])
def test_spec_measure_rescaled_only_off_mass_1(tmp_path, monkeypatch, mu, built):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"mu0": [[0, 1.0]], "mu": mu}))
    calls, real = [], AtomicMeasure.__post_init__
    monkeypatch.setattr(AtomicMeasure, "__post_init__", lambda m: calls.append(m) or real(m))
    spec = load_problem_spec(p)
    assert len(calls) == built
    assert spec.mu0 == AtomicMeasure.point(0) and spec.mu.total_mass == 1
    assert spec.mu.positions == (-1, 2)


def test_decimal_weights_are_exact(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(dict(SPEC, mu0=[[0.7, 1.0]], mu=[[0, 0.3], [1, 0.7]])))
    plan = tmp_path / "p.json"
    assert main(["build", "--spec", str(p), "--out", str(plan)]) == 0
    assert json.loads(plan.read_text())["target"] == [["0", "3/10"], ["1", "7/10"]]


def test_integral_exponent_counts(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{"mu0": [[0, 1]], "mu": [[0, 1]], '
                 '"simulation": {"n_paths": 1e5, "seed": 2.0E1}}')
    spec = load_problem_spec(p)
    assert (spec.n_paths, spec.seed) == (100_000, 20)


def test_position_beyond_double_exit_2(tmp_path, capsys):
    p = tmp_path / "s.json"
    p.write_text('{"mu0": [[1%s, 1]], "mu": [[0, 1]]}' % ("0" * 400))
    assert main(["analyze", "--spec", str(p)]) == 2
    err = capsys.readouterr().err
    assert "mu0/mu" in err and "Traceback" not in err


# positions that fit a double, with potential values and default gammas that do not
HUGE = {"mu0": [[-1.7e308, 0.75], [1.7e308, 0.25]],
        "mu": [[-1.7e308, 0.5], [0, 0.25], [1.7e308, 0.25]]}


@pytest.mark.parametrize("simulation", [{"gammas": [1]}, {}], ids=["gammas", "default"])
def test_positions_beyond_eighth_of_double_exit_2(tmp_path, capsys, simulation):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(dict(HUGE, simulation=simulation)))
    assert main(["analyze", "--spec", str(p)]) == 2
    err = capsys.readouterr().err
    assert "mu0/mu: positions must lie within" in err and "Traceback" not in err


@pytest.mark.parametrize("number", ["1e400", "-1e400", "1e-400", "0.5e-999999999"])
def test_number_out_of_double_range_exit_2(tmp_path, capsys, number):
    p = tmp_path / "s.json"
    p.write_text('{"mu0": [[%s, 1]], "mu": [[0, 1]]}' % number)
    assert main(["analyze", "--spec", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"number {number} is out of range" in err and "Traceback" not in err


@pytest.mark.parametrize("text, fld", [
    ('"simulation": {"n_paths": 1e400}', "simulation.n_paths"),
    ('"simulation": {"seed": -1e400}', "simulation.seed"),
    ('"construction": {"type": "vallois", "eps": 1e400}', "construction.eps"),
    ('"construction": {"type": "vallois", "eps": 0.5, "max_steps": 1e400}',
     "construction.max_steps"),
    # beyond Python's int-string limit: refused at its field, not by the parser
    pytest.param('"simulation": {"n_paths": 1%s}' % ("0" * 5000), "simulation.n_paths",
                 id="n_paths-5001-digits"),
])
def test_number_out_of_range_names_field(tmp_path, capsys, text, fld):
    # a JSON number is read where its field is, so the message names the field
    p = tmp_path / "s.json"
    p.write_text('{"mu0": [[0, 1]], "mu": [[0, 1]], %s}' % text)
    assert main(["analyze", "--spec", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"{fld}: number " in err and "is out of range" in err and "Traceback" not in err


def test_huge_number_is_echoed_short(tmp_path, capsys):
    # a number of 5001 digits is named by its head and length, not in full
    p = tmp_path / "s.json"
    p.write_text('{"mu0": [[0, 1]], "mu": [[0, 1]], "simulation": {"n_paths": 1%s}}'
                 % ("0" * 5000))
    assert main(["analyze", "--spec", str(p)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert len(line) < 200 and "simulation.n_paths: number 1" in line
    assert "(5001 digits) is out of range" in line


def _long_decimal_spec(zeros):
    """delta_0 -> +-X, X = 1.0...01 with the given zeros: a double whose
    p/q has zeros + 2 digits."""
    x = "1." + "0" * zeros + "1"
    return ('{"mu0": [[0, 1]], "mu": [[-%s, 0.5], [%s, 0.5]], '
            '"simulation": {"n_paths": 4000, "seed": 1}}' % (x, x))


@pytest.mark.parametrize("command", [["analyze"], ["analyze", "--format", "json"], ["build"]],
                         ids=["analyze", "analyze-json", "build"])
def test_decimal_past_str_limit_exit_2(tmp_path, command):
    # str cannot write a p/q of over 4300 digits, so such a decimal is
    # refused at its field, where it is read
    p, out = tmp_path / "s.json", tmp_path / "plan.json"
    p.write_text(_long_decimal_spec(5000))
    rc, err = _cli([*command, "--spec", str(p), *(["--out", str(out)] * (command == ["build"]))])
    assert rc == 2 and not out.exists()
    assert err == ("error: mu0/mu: number -1.00000000000000000... (5002 digits) "
                   "has a p/q of over 4300 digits\n")


@pytest.mark.parametrize("command", [["analyze"], ["analyze", "--format", "json"], ["build"]],
                         ids=["analyze", "analyze-json", "build"])
def test_pair_past_str_limit_exit_2(tmp_path, command):
    # each number reads within the limit, but the pair's potentials do not:
    # mu at +-X, X = 1.0...01 with 2500 zeros, weighted 1/2 + 10**-2502 and
    # 1/2 - 10**-2502, from mu0 at 0 and 1/2
    x = "1." + "0" * 2500 + "1"
    p, out = tmp_path / "s.json", tmp_path / "plan.json"
    p.write_text('{"mu0": [[0, 0.5], [0.5, 0.5]], "mu": [[-%s, 0.5%s1], [%s, 0.4%s]]}'
                 % (x, "0" * 2500, x, "9" * 2501))
    rc, err = _cli([*command, "--spec", str(p), *(["--out", str(out)] * (command == ["build"]))])
    assert rc == 2 and not out.exists() and "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("error: mu0/mu: ")


def test_long_decimal_within_str_limit_runs(tmp_path, capsys):
    p, plan = tmp_path / "s.json", tmp_path / "plan.json"
    p.write_text(_long_decimal_spec(4000))
    assert main(["analyze", "--spec", str(p)]) == 0
    assert main(["build", "--spec", str(p), "--out", str(plan)]) == 0
    assert main(["verify", "--spec", str(p), "--plan", str(plan)]) == 0
    assert capsys.readouterr().out.endswith("verdict: PASS\n")
    svg = tmp_path / "d.svg"
    assert main(["diagram", "--spec", str(p), "--plan", str(plan), "--out", str(svg)]) == 0


@pytest.mark.parametrize("C", ["1%s/1" % ("0" * 400), 10**400], ids=["p/q", "integer"])
def test_custom_C_beyond_double_exit_2(tmp_path, capsys, C):
    spec = dict(SPEC, construction={"type": "custom", "tangents": [], "C": C})
    p = tmp_path / "s.json"
    p.write_text(json.dumps(spec))
    assert main(["build", "--spec", str(p), "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert "construction.C: number" in err and "out of range" in err


def test_custom_C_below_gap_exit_3(tmp_path, capsys):
    # the Azema-Yor tangents of +-1 -> 0 (gap 1) with C one part in 1e10 short
    spec = dict(SPEC, construction={"type": "custom", "tangents": [[1, -1], [-1, -1]],
                                    "C": 0.9999999999})
    p = tmp_path / "s.json"
    p.write_text(json.dumps(spec))
    assert main(["build", "--spec", str(p), "--out", str(tmp_path / "x.json")]) == 3
    assert "below the admissible bound 1" in capsys.readouterr().err


def test_diagram_empty_plan(tmp_path):
    spec = dict(SPEC, mu0=[[0, 1.0]], mu=[[0, 1.0]],
                construction={"type": "custom", "tangents": [], "C": 0})
    p = tmp_path / "s.json"
    p.write_text(json.dumps(spec))
    plan_file = tmp_path / "plan.json"
    assert main(["build", "--spec", str(p), "--out", str(plan_file)]) == 0
    out = tmp_path / "d.svg"
    assert main(["diagram", "--spec", str(p), "--plan", str(plan_file), "--out", str(out)]) == 0
    assert b"stroke-dasharray" not in out.read_bytes()


@pytest.mark.parametrize(
    "changes, extra, fld",
    [
        ({}, ["--paths", "-5"], "--paths"),
        ({}, ["--paths", "0"], "--paths"),
        ({}, ["--seed", "-1"], "--seed"),
        ({}, ["--seed", str(2**128)], "--seed"),
        ({"simulation": {"seed": -3}}, [], "simulation.seed"),
        ({"simulation": {"gammas": 5}}, [], "simulation.gammas"),
        ({"simulation": {"n_paths": "many"}}, [], "simulation.n_paths"),
        ({"construction": {"type": "vallois", "eps": "abc"}}, [], "construction.eps"),
        ({"construction": {"type": "custom", "tangents": [[1]], "C": 1}}, [],
         "construction.tangents"),
        ({"construction": {"type": "custom", "tangents": [[math.nan, 0]], "C": 1}}, [],
         "construction.tangents"),
        ({"construction": {"type": "custom", "tangents": [], "C": "x"}}, [], "construction.C"),
        ({"mu0": [[-1, 0.5], [math.inf, 0.5]]}, [], "mu0/mu"),
        ({"mu": [[0, math.inf]]}, [], "mu0/mu"),
        ({"simulation": {"n_paths": 1e20}}, [], "simulation.n_paths"),
        ({}, ["--paths", str(10**7 + 1)], "--paths"),
        ({"simulation": {"seed": 7.5}}, [], "simulation.seed"),
        ({"simulation": {"seed": "12"}}, [], "simulation.seed"),
        ({"simulation": {"n_paths": 1000.5}}, [], "simulation.n_paths"),
        ({"simulation": {"n_paths": True}}, [], "simulation.n_paths"),
        ({"construction": {"type": "vallois", "eps": 0.25, "max_steps": 2.5}}, [],
         "construction.max_steps"),
        ({"construction": {"type": "vallois", "eps": 0.25, "max_steps": False}}, [],
         "construction.max_steps"),
        ({"simulation": {"thresholds": [math.nan]}}, [], "simulation.thresholds"),
        ({"mu0": [["1e2000000", 1]]}, [], "mu0/mu"),
        ({"mu0": [[True, True]]}, [], "mu0/mu"),
        ({"simulation": {"gammas": [True]}}, [], "simulation.gammas"),
        ({"simulation": {"thresholds": [False]}}, [], "simulation.thresholds"),
        ({"construction": {"type": "custom", "tangents": [], "C": "1e400"}}, [],
         "construction.C"),
    ],
)
def test_malformed_simulation_input_exit_2(spec_file, tmp_path, capsys, changes, extra, fld):
    plan_file = tmp_path / "plan.json"
    assert main(["build", "--spec", str(spec_file), "--out", str(plan_file)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(SPEC, **changes)))
    capsys.readouterr()
    assert main(["verify", "--spec", str(bad), "--plan", str(plan_file), *extra]) == 2
    err = capsys.readouterr().err
    assert fld in err
    assert "Traceback" not in err


FOUR_SPEC = dict(SPEC, mu0=[[0, 1.0]], mu=[[-2, 0.25], [-1, 0.25], [1, 0.25], [2, 0.25]],
                 simulation={"n_paths": 2000, "seed": 1, "gammas": [4]})


def test_stalled_vallois_build_stops(tmp_path):
    # the eps-1/2 Vallois residual on FOUR_SPEC's target is 7/100 from step 7
    # on: the run stops after 9 steps, whatever max_steps allows
    p, plan = tmp_path / "s.json", tmp_path / "plan.json"
    p.write_text(json.dumps(dict(FOUR_SPEC, construction={"type": "vallois", "eps": 0.5,
                                                          "max_steps": 1e5})))
    rc, err = _cli(["build", "--spec", str(p), "--out", str(plan)])
    assert (rc, err) == (3, "warning: plan truncated, residual = 0.07\n")
    assert len(json.loads(plan.read_text())["steps"]) == 9


def test_vallois_build_stops_before_a_line_too_long_to_write(tmp_path):
    # an atom of FOUR_SPEC moved to 1e5: the residual falls about 1/2 a step
    # while the lines' denominators grow about 2.65 digits a step, so the
    # run stops after 1622 steps, before a line that str could not write
    mu = [[1e5, 0.25]] + FOUR_SPEC["mu"][1:]
    p, plan = tmp_path / "s.json", tmp_path / "plan.json"
    p.write_text(json.dumps(dict(FOUR_SPEC, mu=mu, construction={"type": "vallois", "eps": 0.5,
                                                                 "max_steps": 1800})))
    rc, err = _cli(["build", "--spec", str(p), "--out", str(plan)])
    assert (rc, err) == (3, "warning: plan truncated, residual = 49192.1\n")
    assert len(json.loads(plan.read_text())["steps"]) == 1622


@pytest.fixture(scope="module")
def four_files(tmp_path_factory):
    """A spec and the azema-yor plan built from it (several steps)."""
    d = tmp_path_factory.mktemp("four")
    spec, plan = d / "spec.json", d / "plan.json"
    spec.write_text(json.dumps(FOUR_SPEC))
    assert main(["build", "--spec", str(spec), "--out", str(plan)]) == 0
    return spec, json.loads(plan.read_text())


def _run_with_plan(spec, wire, path, command="verify"):
    path.write_text(json.dumps(wire))
    out = ["--out", str(path.with_suffix(".svg"))] if command == "diagram" else []
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([command, "--spec", str(spec), "--plan", str(path), *out])
    return rc, err.getvalue()


def _set(path, value):
    def edit(wire):
        *keys, last = path
        obj = wire
        for k in keys:
            obj = obj[k]
        obj[last] = value
    return edit


@pytest.mark.parametrize(
    "edit, fld",
    [
        (lambda w: w.pop("mu0"), "mu0"),
        (_set(["target"], [[0, 2]]), "target"),
        (_set(["C"], "one"), "C"),
        (_set(["C"], "-1"), "C"),
        (_set(["steps"], {}), "steps"),
        (_set(["steps", 1, "slope"], [1]), "steps[1].slope"),
        (_set(["steps", 1, "slope"], "3"), "steps[1].slope"),
        (_set(["steps", 0, "intercept"], "1/0"), "steps[0].intercept"),
        (lambda w: w["steps"][2].pop("intercept"), "steps[2].intercept"),
        (lambda w: w["steps"].insert(2, dict(w["steps"][1])), "steps[2]"),
        (_set(["C"], "1e400"), "C"),
        (_set(["C"], "1%s/1" % ("0" * 400)), "C"),
        (_set(["C"], 10**400), "C"),
        (_set(["mu0"], [["1e2000000", 1]]), "mu0"),
        (_set(["steps", 1, "slope"], True), "steps[1].slope"),
    ],
)
@pytest.mark.parametrize("command", ["verify", "diagram"])
def test_malformed_plan_exit_2(four_files, tmp_path, edit, fld, command):
    spec, wire = four_files
    wire = json.loads(json.dumps(wire))
    edit(wire)
    rc, err = _run_with_plan(spec, wire, tmp_path / "plan.json", command)
    assert rc == 2
    assert f"cannot load plan: {fld}:" in err
    assert "Traceback" not in err


def test_plan_number_out_of_range_names_field(four_files, tmp_path):
    spec, wire = four_files
    text = json.dumps(wire).replace('"C": "%s"' % wire["C"], '"C": 1e400')
    path = tmp_path / "plan.json"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["verify", "--spec", str(spec), "--plan", str(path)]) == 2
    assert "cannot load plan: C: number 1e400 is out of range" in err.getvalue()


def test_plan_residual_is_not_read(four_files, tmp_path):
    # the residual is written for people to read; an out-of-range one is ignored
    spec, wire = four_files
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(wire).replace('"residual": 0.0', '"residual": 1e400'))
    assert "1e400" in path.read_text()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--spec", str(spec), "--plan", str(path)]) == 0


_JUNK = [None, True, False, 2, -5, 1.5, math.nan, "x", "1/0", "", [], [[1]], {},
         "1e400", "-1e2000000", "1e-400", "2.5e-1"]


@st.composite
def _plan_edits(draw):
    """A list of edits to a plan's JSON: drop a key, change a value's type,
    NaN, repeat a step (its tangent then cuts nothing) or reorder the steps."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "retype", "repeat", "reorder"]))
        where = draw(st.sampled_from(["plan", "step"]))
        k = draw(st.integers(0, 9))
        key = draw(st.sampled_from(["mu0", "target", "C", "steps", "residual"] if where == "plan"
                                   else ["slope", "intercept"]))
        junk = draw(st.sampled_from(_JUNK))
        order = draw(st.permutations(range(10)))
        edits.append((kind, where, k, key, junk, order))
    return edits


def _apply(wire, edits):
    for kind, where, k, key, junk, order in edits:
        steps = wire.get("steps")
        if kind == "reorder" and isinstance(steps, list):
            wire["steps"] = [steps[i] for i in order if i < len(steps)]
        elif kind == "repeat" and isinstance(steps, list) and steps:
            steps.insert(k % len(steps), steps[k % len(steps)])
        elif where == "plan" or (isinstance(steps, list) and steps
                                 and isinstance(steps[k % len(steps)], dict)):
            obj = wire if where == "plan" else steps[k % len(steps)]
            if kind == "drop":
                obj.pop(key, None)
            else:
                obj[key] = junk


@given(edits=_plan_edits())
@settings(max_examples=25, deadline=None)
def test_plan_fuzz_exit_codes(four_files, tmp_path_factory, edits):
    spec, wire = four_files
    wire = json.loads(json.dumps(wire))
    _apply(wire, edits)
    rc, err = _run_with_plan(spec, wire, tmp_path_factory.mktemp("fuzz") / "plan.json")
    assert rc in {0, 2, 3, 4}
    assert "Traceback" not in err


@pytest.mark.parametrize("content", [b"\xff\xfe{", b"[" * 100_000 + b"]" * 100_000])
@pytest.mark.parametrize("role", ["--spec", "--plan"])
def test_unreadable_json_exit_2(spec_file, tmp_path, capsys, content, role):
    plan_file = tmp_path / "plan.json"
    assert main(["build", "--spec", str(spec_file), "--out", str(plan_file)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    files = {"--spec": str(spec_file), "--plan": str(plan_file), role: str(bad)}
    capsys.readouterr()
    assert main(["verify", *[a for kv in files.items() for a in kv]]) == 2
    err = capsys.readouterr().err
    assert f"cannot read {bad}" in err and "Traceback" not in err


_BASE_CONSTRUCTIONS = [
    {"type": "azema-yor"},
    {"type": "reversed-azema-yor"},
    {"type": "jacka"},
    {"type": "vallois", "eps": 0.5, "max_steps": 20},
    {"type": "custom", "tangents": [[0, -2], [-1, -2], [1, -2]], "C": 2},
]
_SPEC_JUNK = _JUNK + [0, 1e5, 1000.5, 7.5, -0.25, math.inf, [math.nan, 1], ["1", "1/2"]]
_SPEC_KEYS = {
    "spec": ["mu0", "mu", "construction", "simulation"],
    "construction": ["type", "eps", "max_steps", "tangents", "C"],
    "simulation": ["n_paths", "seed", "gammas", "thresholds"],
    "mu0": [0, 1],
    "mu": [0, 1],
}


@st.composite
def _spec_edits(draw):
    """A construction to start from and a list of edits to a spec: drop a
    key, or set a value, an atom or an atom's entry to junk."""
    con = draw(st.sampled_from(_BASE_CONSTRUCTIONS))
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(sorted(_SPEC_KEYS)))
        key = draw(st.sampled_from(_SPEC_KEYS[where]))
        kind = draw(st.sampled_from(["drop", "set", "entry"]))
        edits.append((where, key, kind, draw(st.integers(0, 1)), draw(st.sampled_from(_SPEC_JUNK))))
    return con, edits


def _edit_spec(spec, edits):
    for where, key, kind, entry, junk in edits:
        junk = copy.deepcopy(junk)
        obj = spec if where == "spec" else spec.get(where)
        if isinstance(obj, dict) and kind == "drop":
            obj.pop(key, None)
        elif isinstance(obj, dict):
            obj[key] = junk
        elif isinstance(obj, list) and isinstance(key, int) and key < len(obj):
            if kind == "entry" and isinstance(obj[key], list) and obj[key]:
                obj[key][entry % len(obj[key])] = junk
            elif kind == "drop":
                del obj[key]
            else:
                obj[key] = junk


@given(edits=_spec_edits())
@example(edits=(_BASE_CONSTRUCTIONS[3], [("construction", "max_steps", "set", 0, 1e5),
                                         ("mu", 0, "entry", 0, 1e5)]))
@settings(max_examples=60, deadline=None)
def test_spec_fuzz_exit_codes(tmp_path_factory, edits):
    con, changes = edits
    spec = json.loads(json.dumps(dict(FOUR_SPEC, construction=con)))
    _edit_spec(spec, changes)
    d = tmp_path_factory.mktemp("fuzz")
    (d / "spec.json").write_text(json.dumps(spec))
    for command in ("analyze", "build"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([command, "--spec", str(d / "spec.json"), "--out", str(d / "out.json")])
        assert rc in {0, 2, 3}
        assert "Traceback" not in err.getvalue()
