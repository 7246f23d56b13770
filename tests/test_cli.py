"""End-to-end CLI behavior: exit codes, artifacts, env overrides, goldens."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ovalfront import _kernels as kernels
from ovalfront import cli, curves, harmonics, hyperbolic, specio, sphere, support, wavefront
from ovalfront.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NUMERICAL_FAILURE,
    EXIT_PASS,
    EXIT_THEOREM_FAIL,
    MAX_SAMPLES,
    MAX_T_VALUES,
    main,
    parse_t_spec,
)
from ovalfront.errors import InvalidSpecError

GOLDEN = Path(__file__).parent / "golden"

WAVY_OVAL = {
    "geometry": "euclidean",
    "representation": "support_fourier",
    "coeffs": [[0, 1.0, 0.0], [2, 0.06, 0.02], [3, 0.03, -0.04], [4, 0.0, 0.015]],
}
WAVY_SPHERE = {
    "geometry": "spherical",
    "representation": "perturbed_circle",
    "rho": 0.7,
    "harmonics": [[3, 0.04, 0.4], [2, 0.03, 1.1]],
}
# convex, so verify also builds the equatorial front
CONVEX_SPHERE = {**WAVY_SPHERE, "harmonics": [[3, 0.01, 0.4], [2, 0.03, 1.1]]}
WAVY_HYPERBOLIC = {
    "geometry": "hyperbolic",
    "representation": "hyperbolic_circle",
    "rho": 1.1,
    "harmonics": [[2, 0.04, 0.3], [3, 0.02, 1.0]],
}


def write_spec(tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


def read_report(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


# ---------------------------------------------------------------------------
# plumbing


def test_module_entry_point(tmp_path):
    spec = write_spec(tmp_path, WAVY_OVAL)
    proc = subprocess.run(
        [sys.executable, "-m", "ovalfront", "analyze", "--input", spec,
         "--out", str(tmp_path), "--samples", "256", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_PASS, proc.stderr
    assert (tmp_path / "analyze_report.json").exists()


def test_help_and_missing_command():
    assert main(["--help"]) == 0
    assert main([]) == EXIT_INPUT_ERROR


def test_usage_error_names_every_command(capsys):
    # only the verify subcommand is built, but the usage line is the full one
    assert main(["verify", "--bogus"]) == EXIT_INPUT_ERROR
    usage = capsys.readouterr().err.splitlines()[0]
    assert usage == "usage: ovalfront [-h] {analyze,propagate,verify,counterexample,export} ..."


def test_parse_t_spec_forms():
    assert parse_t_spec(None) is None
    assert parse_t_spec("0.5") == [0.5]
    assert parse_t_spec("-0.2,0.1,0.4") == [-0.2, 0.1, 0.4]
    grid = parse_t_spec("0:1:0.25")
    assert grid == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


def test_parse_t_spec_bounds_the_grid():
    assert len(parse_t_spec(f"0:{MAX_T_VALUES - 1}:1")) == MAX_T_VALUES
    for text in (f"0:{MAX_T_VALUES}:1", ",".join(["0.1"] * (MAX_T_VALUES + 1))):
        with pytest.raises(InvalidSpecError, match="more than"):
            parse_t_spec(text)


COMMAND_FLAGS = {
    "analyze": {"--input", "--out", "--samples", "--format"},
    "propagate": {"--input", "--out", "--samples", "--t", "--format"},
    "verify": {"--input", "--out", "--samples", "--tol", "--t"},
    "counterexample": {"--out", "--samples", "--r", "--format"},
    "export": {"--input", "--out", "--samples", "--format"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_the_flags_each_command_reads(capsys, command):
    assert main([command, "--help"]) == EXIT_PASS
    assert set(re.findall(r"--[a-z]+", capsys.readouterr().out)) == (
        COMMAND_FLAGS[command] | {"--help"}
    )


def test_largest_sample_count_is_accepted():
    args = cli.build_parser().parse_args(["counterexample", "--samples", str(MAX_SAMPLES)])
    assert args.samples == MAX_SAMPLES


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],  # --input missing
        ["analyze", "--input", "/nonexistent/path.json"],
        ["propagate", "--input", "IGNORED"],  # --t missing: checked first? no, input
        ["analyze", "--input", "SPEC", "--samples", "100"],
        ["analyze", "--input", "SPEC", "--samples", "32"],
        ["verify", "--input", "SPEC", "--tol", "-1"],
        ["analyze", "--input", "SPEC", "--format", "csv,pdf"],
        ["propagate", "--input", "SPEC", "--t", "abc"],
        ["propagate", "--input", "SPEC", "--t=nan"],
        ["propagate", "--input", "SPEC", "--t=inf"],
        ["propagate", "--input", "SPEC", "--t=0:inf:0.5"],
        ["counterexample", "--r", "inf", "--out", "OUT"],
        ["analyze", "--input", "SPEC", "--seed", "1"],  # no such flag
        ["verify", "--input", "SPEC", "--tol", "inf"],  # every check would pass
        ["verify", "--input", "SPEC", "--tol", "nan"],
        # a flag the command does not read
        ["verify", "--input", "SPEC", "--format", "json"],
        ["analyze", "--input", "SPEC", "--t", "0.1"],
        ["counterexample", "--input", "SPEC"],
        ["export", "--input", "SPEC", "--tol", "1e-3"],
        ["propagate", "--input", "SPEC", "--t", "0.1", "--r", "2"],
        # sizes past the bounds
        ["analyze", "--input", "SPEC", "--samples", str(1 << 40)],
        ["counterexample", "--samples", str(2 * MAX_SAMPLES)],
        ["export", "--input", "HUGE"],  # the spec's own n_samples
        ["propagate", "--input", "SPEC", "--t=0:1e308:1e-308"],  # the count overflows
    ],
)
def test_input_errors_exit_2(tmp_path, monkeypatch, argv):
    # every one is refused before a curve is built
    monkeypatch.setattr(specio, "build_curve", _refuse)
    monkeypatch.setattr(cli, "counterexample_verdict", _refuse)
    spec = write_spec(tmp_path, WAVY_OVAL)
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({**WAVY_OVAL, "n_samples": 1 << 40}))
    subs = {"SPEC": spec, "IGNORED": spec, "HUGE": str(huge), "OUT": str(tmp_path)}
    argv = [subs.get(a, a) for a in argv] + ["--out", str(tmp_path)]
    assert main(argv) == EXIT_INPUT_ERROR


def _refuse(*args, **kwargs):
    raise AssertionError("refused input reached a curve builder")


@pytest.mark.parametrize(
    "field, value",
    [("n_samples", "abc"), ("coeffs", [[0, 1.0, 0.0], [2, "abc", 0.0]]),
     ("coeffs", [[0, 1.0, 0.0], ["x", 0.1, 0.0]])],
)
def test_malformed_spec_exits_2(tmp_path, capsys, field, value):
    spec = write_spec(tmp_path, {**WAVY_OVAL, field: value})
    assert main(["analyze", "--input", spec, "--out", str(tmp_path)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["verify", "export"])
@pytest.mark.parametrize(
    "doc",
    [{"geometry": "hyperbolic", "representation": "hyperbolic_circle", "rho": 800,
      "harmonics": [[2, 0.04, 0.3]], "n_samples": 256},
     {**WAVY_SPHERE, "harmonics": [[2, 1e300, 0.3]], "n_samples": 256}],
    ids=["hyperbolic-rho-800", "sphere-amplitude-1e300"],
)
def test_overflowing_speed_exits_2_with_one_line(tmp_path, capsys, command, doc):
    # sinh(800) and (1e300)^2 overflow the parametrization speed
    code = main([command, "--input", write_spec(tmp_path, doc), "--out", str(tmp_path)])
    assert code == EXIT_INPUT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: parametrization speed must stay positive and finite"]


def test_cli_import_leaves_scipy_interpolate_out():
    code = "import sys, ovalfront.cli; print('scipy.interpolate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


ROOT_FINDERS = {"scipy.optimize._minpack", "scipy.optimize._zeros"}
LAPACK = "scipy.linalg._flapack"


@pytest.mark.parametrize("command", ["import", "verify", "counterexample", "sphere"])
def test_commands_leave_scipys_package_inits_out(tmp_path, command):
    # the five routines come from SciPy's extension modules, loaded alone:
    # the root finders' with the package, LAPACK's on the first spline build,
    # which a plane verify and counterexample never make and a sphere verify
    # does.  MINPACK's hybrd then imports scipy._lib._ccallback on its first
    # call, which runs scipy/__init__ but neither scipy.linalg nor scipy.optimize
    run = {
        "import": "",
        "verify": f"['verify', '--input', {str(GOLDEN / 'oval_spec.json')!r}]",
        "counterexample": "['counterexample', '--r', '2']",
        "sphere": f"['verify', '--input', {str(GOLDEN / 'sphere_spec.json')!r}]",
    }[command]
    code = "import json, sys; from ovalfront.cli import main\n"
    if run:
        code += f"assert main({run} + ['--out', {str(tmp_path)!r}]) == 0\n"
    code += ("print(json.dumps([m for m in sys.modules "
             "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')]))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    # the Gauss-Legendre nodes are literals, so numpy.polynomial stays out too
    assert not any(m.startswith("numpy.polynomial") for m in loaded), sorted(loaded)
    expected = ROOT_FINDERS | ({LAPACK} if command == "sphere" else set())
    assert {m for m in loaded if m.startswith(("scipy.linalg", "scipy.optimize"))} == expected
    if command != "counterexample":
        assert loaded == expected
    # what else is there is scipy/__init__'s own light imports and scipy._lib
    assert all(m == "scipy" or m.split(".")[1].startswith("_") or m == "scipy.version"
               for m in loaded - expected), sorted(loaded)


def test_invalid_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["analyze", "--input", str(bad)]) == EXIT_INPUT_ERROR


def test_env_overrides(tmp_path, monkeypatch):
    spec = write_spec(tmp_path, WAVY_OVAL)
    monkeypatch.setenv("OVALFRONT_SAMPLES", "333")
    assert main(["analyze", "--input", spec, "--out", str(tmp_path)]) == EXIT_INPUT_ERROR

    monkeypatch.setenv("OVALFRONT_SAMPLES", "256")
    monkeypatch.setenv("OVALFRONT_FORMAT", "json")
    assert main(["export", "--input", spec, "--out", str(tmp_path)]) == EXIT_PASS
    assert read_report(tmp_path, "export_curve.json")["n_samples"] == 256

    # explicit flag beats the environment
    code = main(["export", "--input", spec, "--out", str(tmp_path), "--samples", "128"])
    assert code == EXIT_PASS
    assert read_report(tmp_path, "export_curve.json")["n_samples"] == 128


def test_parser_is_cached_per_command_and_environment(tmp_path, monkeypatch, capsys):
    # the environment is read on every call; a changed default is used at once
    builds = []
    build = cli.build_parser

    def counted_build(command=None):
        builds.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", counted_build)
    cli._parser.cache_clear()
    spec = write_spec(tmp_path, WAVY_OVAL)
    argv = ["export", "--input", spec, "--out", str(tmp_path), "--format", "json"]
    for n in (128, 256, 256, 128):
        monkeypatch.setenv("OVALFRONT_SAMPLES", str(n))
        assert main(argv) == EXIT_PASS
        assert read_report(tmp_path, "export_curve.json")["n_samples"] == n
    assert builds == ["export", "export"]

    argv = ["verify", "--input", spec, "--out", str(tmp_path), "--samples", "256", "--t=0.1"]
    for tol in ("1e-6", "1e-3"):
        monkeypatch.setenv("OVALFRONT_TOL", tol)
        assert main(argv) == EXIT_PASS
        assert read_report(tmp_path, "verify_report.json")["tol"] == float(tol)

    # an invalid value is refused on every call, not only the one that builds
    for name, value in (("SAMPLES", "100"), ("TOL", "-1")):
        monkeypatch.setenv("OVALFRONT_" + name, value)
        for _ in range(2):
            assert main(argv[:5]) == EXIT_INPUT_ERROR
            assert f"--{name.lower()}" in capsys.readouterr().err
        monkeypatch.delenv("OVALFRONT_" + name)
    cli._parser.cache_clear()


# ---------------------------------------------------------------------------
# analyze


def test_analyze_artifacts(tmp_path):
    spec = write_spec(tmp_path, WAVY_OVAL)
    code = main(["analyze", "--input", spec, "--out", str(tmp_path),
                 "--samples", "512", "--format", "csv,json,svg"])
    assert code == EXIT_PASS
    for name in ("analyze_profile.csv", "analyze_spectrum.csv",
                 "analyze_curve.csv", "analyze_curve.svg", "analyze_report.json"):
        assert (tmp_path / name).exists(), name
    report = read_report(tmp_path, "analyze_report.json")
    assert report["geometry"] == "euclidean"
    assert not report["degenerate_profile"]
    assert report["attainment_count"] >= 4
    assert len(report["attainment_params"]) == report["attainment_count"]
    assert report["length"] == pytest.approx(2 * np.pi, rel=0.05)


def test_analyze_circle_degenerate(tmp_path):
    spec = write_spec(tmp_path, {"geometry": "euclidean",
                                 "representation": "support_fourier",
                                 "coeffs": [[0, 1.0, 0.0]]})
    code = main(["analyze", "--input", spec, "--out", str(tmp_path),
                 "--samples", "256"])
    assert code == EXIT_PASS
    report = read_report(tmp_path, "analyze_report.json")
    assert report["degenerate_profile"]
    assert report["attainment_count"] is None
    assert not (tmp_path / "analyze_profile.csv").exists()


def test_analyze_hyperbolic_extras(tmp_path):
    spec = write_spec(tmp_path, {"geometry": "hyperbolic",
                                 "representation": "rounded_semicircle",
                                 "r": 2.0, "n_samples": 1024})
    code = main(["analyze", "--input", spec, "--out", str(tmp_path),
                 "--format", "json"])
    assert code == EXIT_PASS
    report = read_report(tmp_path, "analyze_report.json")
    assert report["horocyclically_convex"] is False
    counts = report["curvature_class_counts"]
    assert counts["circle_like"] > 0 and counts["equidistant_like"] > 0
    assert report["attainment_count"] == 2


# ---------------------------------------------------------------------------
# propagate


def test_propagate_artifacts(tmp_path):
    spec = write_spec(tmp_path, WAVY_OVAL)
    # a grid starting at a negative t needs the --t=... form, or argparse
    # mistakes the value for an option flag
    code = main(["propagate", "--input", spec, "--out", str(tmp_path),
                 "--samples", "512", "--t=-0.2:0.2:0.2",
                 "--format", "csv,json,svg"])
    assert code == EXIT_PASS
    for i in range(3):
        assert (tmp_path / f"front_{i:03d}.csv").exists()
    assert not (tmp_path / "front_003.csv").exists()
    assert (tmp_path / "propagate_fronts.svg").exists()
    report = read_report(tmp_path, "propagate_report.json")
    snaps = report["snapshots"]
    assert [s["t"] for s in snaps] == pytest.approx([-0.2, 0.0, 0.2])
    for snap in snaps:
        assert snap["signed_length"] == pytest.approx(
            snap["signed_length_predicted"], abs=1e-7
        )
        assert snap["area"] == pytest.approx(snap["area_predicted"], abs=1e-7)
        assert snap["cusp_count"] == 0


def test_propagate_requires_t(tmp_path):
    spec = write_spec(tmp_path, WAVY_OVAL)
    assert main(["propagate", "--input", spec, "--out", str(tmp_path)]) \
        == EXIT_INPUT_ERROR


# ---------------------------------------------------------------------------
# verify


EXPECTED_CHECKS = {
    "euclidean": {"closure_residual", "four_point", "radius_deviation_spectrum",
                  "sturm_hurwitz", "steiner", "defect_invariance",
                  "front_mean_curvature_lemma", "critical_front"},
    "spherical": {"gauss_bonnet", "defect_invariance", "front_mean_curvature_lemma",
                  "semigroup", "equatorial_front", "total_torsion", "tennis_ball"},
    "hyperbolic": {"gauss_bonnet", "horocyclic_convexity", "collapse_front",
                   "defect_invariance", "front_mean_curvature_lemma", "semigroup"},
}


@pytest.mark.parametrize(
    "doc", [WAVY_OVAL, WAVY_SPHERE, WAVY_HYPERBOLIC],
    ids=["euclidean", "spherical", "hyperbolic"],
)
def test_verify_passes_on_generic_curves(tmp_path, doc):
    spec = write_spec(tmp_path, doc)
    code = main(["verify", "--input", spec, "--out", str(tmp_path),
                 "--samples", "1024"])
    report = read_report(tmp_path, "verify_report.json")
    assert code == EXIT_PASS, report["checks"]
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert names == EXPECTED_CHECKS[report["geometry"]]
    assert all(c["passed"] is not False for c in report["checks"])


def test_verify_circle_skips_degenerate_checks(tmp_path):
    spec = write_spec(tmp_path, {"geometry": "euclidean",
                                 "representation": "support_fourier",
                                 "coeffs": [[0, 1.0, 0.0]]})
    code = main(["verify", "--input", spec, "--out", str(tmp_path),
                 "--samples", "256"])
    assert code == EXIT_PASS
    report = read_report(tmp_path, "verify_report.json")
    status = {c["name"]: c["passed"] for c in report["checks"]}
    assert status["four_point"] is None
    assert status["sturm_hurwitz"] is None
    assert status["critical_front"] is None
    assert status["defect_invariance"] is True
    assert report["passed"] is True
    critical = report["checks"][-1]
    assert critical["name"] == "critical_front"
    assert critical["note"] == "circle collapses to a point"
    assert abs(critical["signed_length"]) < 1e-12


def _write_dented_loop(tmp_path):
    # r = 1 + 0.3 cos 2u dents inward at u = +-pi/2 (min k about -1.02): the
    # theorem owes it no four points, and its radius 1/k is unbounded
    u = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
    r = 1.0 + 0.3 * np.cos(2.0 * u)
    return write_spec(tmp_path, {"geometry": "euclidean", "representation": "samples",
                                 "points": np.column_stack([r * np.cos(u),
                                                            r * np.sin(u)]).tolist()})


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_voids_the_four_point_checks_of_a_nonconvex_loop(tmp_path):
    spec = _write_dented_loop(tmp_path)
    code = main(["verify", "--input", spec, "--out", str(tmp_path), "--samples", "1024"])
    report = read_report(tmp_path, "verify_report.json")
    assert code == EXIT_PASS, report["checks"]
    assert report["t_grid"][0] < 0.0
    by_name = {c["name"]: c for c in report["checks"]}
    for name in ("four_point", "radius_deviation_spectrum", "sturm_hurwitz", "critical_front"):
        assert by_name[name]["passed"] is None
        assert by_name[name]["note"] == "not convex: four-point guarantee void"
    assert by_name["four_point"]["attainment_count"] == 4
    assert by_name["critical_front"]["cusp_count"] == 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_analyze_writes_no_spectrum_for_a_nonconvex_loop(tmp_path):
    # the plane spectrum is that of R = 1/k; on this loop its n = 0 row read
    # 8.27, the mean over the poles, where L / 2 pi = 1.086
    spec = _write_dented_loop(tmp_path)
    code = main(["analyze", "--input", spec, "--out", str(tmp_path), "--samples", "1024",
                 "--format", "csv,json"])
    assert code == EXIT_PASS
    assert not (tmp_path / "analyze_spectrum.csv").exists()
    for name in ("analyze_profile.csv", "analyze_curve.csv"):
        assert (tmp_path / name).exists(), name
    report = read_report(tmp_path, "analyze_report.json")
    assert report["min_curvature"] < 0.0
    assert report["note"] == "not convex: radius of curvature 1/k has poles; no spectrum written"
    assert report["attainment_count"] == 4


def test_analyze_writes_no_spectrum_for_a_plane_point_loop(tmp_path):
    # R = 1/k of a point loop is sampled against arc length, not the normal
    # angle; its spectrum read an n = 0 row of 0.227 and an n = 1 magnitude
    # of 0.274 on this convex loop, where a support-built oval reads 0 in both
    code = main(["analyze", "--input", str(GOLDEN / "samples_spec.json"), "--out", str(tmp_path),
                 "--samples", "1024", "--format", "csv,json"])
    assert code == EXIT_PASS
    assert not (tmp_path / "analyze_spectrum.csv").exists()
    for name in ("analyze_profile.csv", "analyze_curve.csv"):
        assert (tmp_path / name).exists(), name
    report = read_report(tmp_path, "analyze_report.json")
    assert report["min_curvature"] > 0.0
    assert report["note"] == ("not a support-built oval: R = 1/k is not sampled against the "
                              "normal angle; no spectrum written")


@pytest.mark.parametrize("spec, name", [("oval", "critical_front"),
                                        ("hyperbolic", "collapse_front")])
def test_verify_fails_a_front_off_the_critical_time(tmp_path, monkeypatch, spec, name):
    # 0.01 past the critical time the signed front length no longer vanishes
    monkeypatch.setattr(cli, "critical_time", lambda curve: curves.critical_time(curve) + 0.01)
    code = main(["verify", "--input", str(GOLDEN / f"{spec}_spec.json"), "--out", str(tmp_path)])
    assert code == EXIT_THEOREM_FAIL
    report = read_report(tmp_path, "verify_report.json")
    assert [c["name"] for c in report["checks"] if c["passed"] is False] == [name]
    [check] = [c for c in report["checks"] if c["name"] == name]
    assert abs(check["signed_length"]) > 1e-3


def _scale_front_of_front(monkeypatch):
    # the outer semigroup front is the only front built from a front
    propagate = wavefront.propagate

    def scaled(curve, t):
        front = propagate(curve, t)
        if isinstance(curve, curves.Front):
            front = dataclasses.replace(front, points=front.points * (1.0 + 1e-6))
        return front

    monkeypatch.setattr(cli, "propagate", scaled)


def _scale_steiner_length(monkeypatch):
    closed_form = curves.steiner_closed_form

    def scaled(curve, t):
        length, area = closed_form(curve, t)
        return length * (1.0 + 1e-3), area

    monkeypatch.setattr(wavefront, "steiner_closed_form", scaled)


def _scale_lemma_curvature(monkeypatch):
    eval_scalar = curves.eval_scalar
    monkeypatch.setattr(wavefront, "eval_scalar", lambda fn, x: eval_scalar(fn, x) * (1.0 + 1e-6))


def _offset_closure_residual(monkeypatch):
    closure = support.closure_residual
    monkeypatch.setattr(cli, "closure_residual", lambda curve: closure(curve) + 1e-4)


def _drop_attainment_points(monkeypatch):
    # the four-point check alone counts the curve's attainment set
    profile = curves.curvature_profile

    def two_kept(curve):
        full = profile(curve)
        return dataclasses.replace(full, crossing_params=full.crossing_params[:2])

    monkeypatch.setattr(cli, "curvature_profile", two_kept)


def _turning_residual(curve):
    # Gauss-Bonnet's measured side, the total turning integral(k ds), 1e-5 too large
    return curves.gauss_bonnet_residual(dataclasses.replace(curve, k=curve.k * (1.0 + 1e-5)))


def _scale_sphere_turning(monkeypatch):
    monkeypatch.setattr(cli, "gauss_bonnet_residual", _turning_residual)


def _scale_hyperbolic_turning(monkeypatch):
    # the hyperbolic check reads the residual that the curve's finisher records
    finish = hyperbolic._finish_hyperbolic_curve

    def scaled(*args, **kwargs):
        curve = finish(*args, **kwargs)
        return dataclasses.replace(curve, gb_residual=_turning_residual(curve))

    monkeypatch.setattr(hyperbolic, "_finish_hyperbolic_curve", scaled)


def _raise_first_harmonic(monkeypatch):
    # the spectrum check alone reads cli's spectrum; Sturm-Hurwitz takes its own
    measured = harmonics.spectrum

    def raised(values):
        sp = measured(values)
        cos_amps = sp.cos_amps.copy()
        cos_amps[1] += 1e-6 * float(np.max(sp.amplitudes))
        return dataclasses.replace(sp, cos_amps=cos_amps)

    monkeypatch.setattr(cli, "spectrum", raised)


def _halve_sign_changes(monkeypatch):
    count = harmonics.count_sign_changes
    monkeypatch.setattr(harmonics, "count_sign_changes",
                        lambda values, tol=0.0: count(values, tol) // 2)


def _halve_first_harmonic(monkeypatch):
    first = harmonics.first_nontrivial_harmonic
    monkeypatch.setattr(harmonics, "first_nontrivial_harmonic", lambda sp: first(sp) // 2)


def _scale_equatorial_area(monkeypatch):
    # the equatorial front is the only front the sphere module builds itself
    propagate = sphere.propagate

    def scaled(curve, t):
        front = propagate(curve, t)
        object.__setattr__(front, "area", front.area * (1.0 + 1e-5))
        return front

    monkeypatch.setattr(sphere, "propagate", scaled)


def _double_diameter(monkeypatch):
    # the embedding certificate alone reads the diameter: 1.8 doubled exceeds pi
    diameter = sphere.spherical_diameter
    monkeypatch.setattr(sphere, "spherical_diameter", lambda points: 2.0 * diameter(points))


def _fold_torsion(monkeypatch):
    # one-signed and 1e-9 as large: the integral stays small, the sign changes go
    torsion = sphere.torsion
    monkeypatch.setattr(sphere, "torsion", lambda curve: 1e-9 * np.abs(torsion(curve)))


def _offset_torsion(monkeypatch):
    # torsion offset by 1e-6 per unit length: total torsion about 4e-6 on this curve
    torsion = sphere.torsion
    monkeypatch.setattr(sphere, "torsion", lambda curve: torsion(curve) + 1e-6)


def _drop_inflections(monkeypatch):
    # on the tennis seam the equatorial check is void, and on a convex curve
    # the tennis ball is, so either way one inflection count is cut
    count = curves.count_mean_crossings

    def two_kept(profile):
        full = count(profile)
        return dataclasses.replace(full, count=2, crossings=full.crossings[:2])

    monkeypatch.setattr(sphere, "count_mean_crossings", two_kept)


def _scale_front_curvature(monkeypatch):
    # the curved lemma reads each front's measured curvature at the attainment parameters
    measured = curves.Front.curvature_fn.func

    def scaled(front):
        fn = measured(front)
        return lambda x: fn(x) * (1.0 + 1e-5)

    monkeypatch.setattr(curves.Front, "curvature_fn", property(scaled))


SPHERE_CIRCLE = {"geometry": "spherical", "representation": "perturbed_circle", "rho": 0.9,
                 "harmonics": []}
TENNIS_SEAM = {"geometry": "spherical", "representation": "perturbed_circle", "rho": np.pi / 2,
               "harmonics": [[2, 0.25, -np.pi / 2]]}


@pytest.mark.parametrize(
    "spec, tamper, name",
    [("sphere", _scale_front_of_front, "semigroup"),
     ("hyperbolic", _scale_front_of_front, "semigroup"),
     ("oval", _scale_steiner_length, "steiner"),
     ("oval", _scale_lemma_curvature, "front_mean_curvature_lemma"),
     ("oval", _offset_closure_residual, "closure_residual"),
     ("oval", _drop_attainment_points, "four_point"),
     ("sphere", _scale_sphere_turning, "gauss_bonnet"),
     ("hyperbolic", _scale_hyperbolic_turning, "gauss_bonnet"),
     ("oval", _raise_first_harmonic, "radius_deviation_spectrum"),
     ("oval", _halve_sign_changes, "sturm_hurwitz"),
     ("oval", _halve_first_harmonic, "sturm_hurwitz"),
     (SPHERE_CIRCLE, _scale_equatorial_area, "equatorial_front"),
     (SPHERE_CIRCLE, _double_diameter, "equatorial_front"),
     (CONVEX_SPHERE, _drop_inflections, "equatorial_front"),
     ("sphere", _offset_torsion, "total_torsion"),
     ("sphere", _fold_torsion, "total_torsion"),
     (TENNIS_SEAM, _drop_inflections, "tennis_ball"),
     ("sphere", _scale_front_curvature, "front_mean_curvature_lemma"),
     ("hyperbolic", _scale_front_curvature, "front_mean_curvature_lemma")],
    ids=["sphere-semigroup", "hyperbolic-semigroup", "plane-steiner", "plane-lemma",
         "plane-closure", "plane-four-point", "sphere-gauss-bonnet", "hyperbolic-gauss-bonnet",
         "plane-spectrum", "plane-sturm-hurwitz", "plane-sturm-hurwitz-harmonic",
         "sphere-equatorial", "sphere-equatorial-embedding", "sphere-equatorial-inflections",
         "sphere-torsion", "sphere-torsion-sign-changes", "sphere-tennis-ball", "sphere-lemma",
         "hyperbolic-lemma"],
)
def test_verify_fails_a_tampered_front_check_alone(tmp_path, monkeypatch, spec, tamper, name):
    # each case scales a measured quantity, never the comparison it meets; an
    # inline spec runs at 1024 samples, where it passes untampered
    if isinstance(spec, dict):
        argv = ["--input", write_spec(tmp_path, spec), "--samples", "1024"]
    else:
        argv = ["--input", str(GOLDEN / f"{spec}_spec.json")]
    tamper(monkeypatch)
    code = main(["verify", *argv, "--out", str(tmp_path)])
    assert code == EXIT_THEOREM_FAIL
    report = read_report(tmp_path, "verify_report.json")
    assert [c["name"] for c in report["checks"] if c["passed"] is False] == [name]


def test_verify_voids_the_spectral_checks_of_a_plane_point_loop(tmp_path):
    # R = 1/k of a point loop is sampled against arc length, not the normal
    # angle; read as a spectrum it gave a low-harmonic fraction of 0.408 at
    # 1024, 4096 and 16384 samples on this convex loop, which failed verify
    code = main(["verify", "--input", str(GOLDEN / "samples_spec.json"), "--out", str(tmp_path),
                 "--samples", "1024"])
    report = read_report(tmp_path, "verify_report.json")
    assert code == EXIT_PASS, report["checks"]
    by_name = {c["name"]: c for c in report["checks"]}
    for name in ("closure_residual", "radius_deviation_spectrum", "sturm_hurwitz"):
        assert by_name[name]["passed"] is None
        assert by_name[name]["note"] == "not a support-built oval"
    assert by_name["four_point"]["passed"] is True


def test_verify_reports_honest_failure_at_low_resolution(tmp_path):
    # the hyperbolic defect spread is a fourth-order grid effect: at 512
    # samples it genuinely exceeds 1e-6, and the CLI must say so
    spec = write_spec(tmp_path, WAVY_HYPERBOLIC)
    code = main(["verify", "--input", spec, "--out", str(tmp_path),
                 "--samples", "512"])
    assert code == EXIT_THEOREM_FAIL
    report = read_report(tmp_path, "verify_report.json")
    assert report["passed"] is False
    failing = {c["name"] for c in report["checks"] if c["passed"] is False}
    assert "defect_invariance" in failing


def test_verify_semicircle_voids_four_point_guarantee(tmp_path):
    spec = write_spec(tmp_path, {"geometry": "hyperbolic",
                                 "representation": "rounded_semicircle",
                                 "r": 2.0, "n_samples": 1024})
    code = main(["verify", "--input", spec, "--out", str(tmp_path)])
    assert code == EXIT_PASS
    report = read_report(tmp_path, "verify_report.json")
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["horocyclic_convexity"]["horocyclically_convex"] is False
    assert by_name["mean_attainment"]["passed"] is None
    assert by_name["mean_attainment"]["attainment_count"] == 2


def test_propagate_past_cusp_onset_names_the_onset_time(tmp_path, capsys):
    # the refusal names where cusps start, not a library keyword the CLI lacks
    spec = write_spec(tmp_path, {"geometry": "hyperbolic",
                                 "representation": "rounded_semicircle",
                                 "r": 2.0, "n_samples": 1024})
    code = main(["propagate", "--input", spec, "--t=-0.2:0.4:0.1", "--out", str(tmp_path)])
    assert code == EXIT_INPUT_ERROR == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "force" not in err
    onset = float(re.search(r"first cusp onset at t = (\S+);", err).group(1))
    curve = hyperbolic.build_rounded_semicircle(hyperbolic.RoundedSemicircleSpec(r=2.0, n_samples=1024))
    assert onset == pytest.approx(-np.arctanh(1.0 / np.max(curve.k)), rel=1e-5)
    assert -0.2 < onset < 0.0


# ---------------------------------------------------------------------------
# counterexample


def test_counterexample_past_threshold(tmp_path):
    code = main(["counterexample", "--r", "2.0", "--out", str(tmp_path),
                 "--samples", "1024", "--format", "csv,json,svg"])
    assert code == EXIT_PASS
    report = read_report(tmp_path, "counterexample_report.json")
    assert report["threshold_r"] == pytest.approx(1.385837917355553, abs=1e-9)
    assert report["mean_below_coth"] is True
    assert report["counterexample"] is True
    assert report["expected_outcome"] is True
    assert report["attainment_count"] == 2
    assert len(report["sweep"]) == 20
    assert report["sweep"][0]["coth_gap"] < 0 < report["sweep"][-1]["coth_gap"]
    assert (tmp_path / "counterexample_curve.csv").exists()
    assert (tmp_path / "counterexample_curve.svg").exists()


@pytest.mark.parametrize("spec, t", [("sphere", "-1.2"), ("oval", "-1.0")])
def test_verify_skips_checks_that_would_compare_nothing(tmp_path, spec, t):
    # one t value, and it lies where the lemma skips every time (the oval's
    # critical time t* = -L/2pi, a time past cusp onset on the sphere)
    code = main(["verify", "--input", str(GOLDEN / f"{spec}_spec.json"),
                 "--out", str(tmp_path), f"--t={t}"])
    report = read_report(tmp_path, "verify_report.json")
    assert code == (EXIT_PASS if report["passed"] else EXIT_THEOREM_FAIL)
    checks = {c["name"]: c for c in report["checks"]}
    for name in ("defect_invariance", "front_mean_curvature_lemma"):
        assert checks[name]["passed"] is None, name
        assert checks[name]["note"], name
        assert "max_deviation" not in checks[name]


def test_plane_verify_finds_the_attainment_set_once(tmp_path, monkeypatch):
    # four_point, the lemma and the critical front read one cached profile
    calls = []
    count = curves.count_mean_crossings
    monkeypatch.setattr(curves, "count_mean_crossings",
                        lambda *a, **kw: calls.append(1) or count(*a, **kw))
    code = main(["verify", "--input", str(GOLDEN / "oval_spec.json"), "--out", str(tmp_path)])
    assert code == EXIT_PASS
    assert len(calls) == 1


def test_plane_verify_measures_only_what_it_reads(tmp_path, monkeypatch):
    # the 11 Steiner and 11 defect fronts measure their areas; only the
    # critical front refines its cusps, and it measures no area
    fronts = []
    propagate_front = curves.propagate_front

    def keeping(curve, t):
        fronts.append(propagate_front(curve, t))
        return fronts[-1]

    monkeypatch.setattr(wavefront, "propagate_front", keeping)
    code = main(["verify", "--input", str(GOLDEN / "oval_spec.json"), "--out", str(tmp_path)])
    assert code == EXIT_PASS
    assert len(fronts) == 23
    [critical] = [front for front in fronts if "cusps" in vars(front)]
    assert critical.t == -critical.base.L / (2.0 * np.pi) and len(critical.cusps) >= 4
    assert "area" not in vars(critical)
    assert sum("area" in vars(front) for front in fronts) == 22


@pytest.mark.parametrize(
    "command, spec, builds",
    [(["verify"], "hyperbolic", 12),
     (["propagate", "--t=-0.6:0.4:0.1", "--format", "json"], "sphere", 1)],
    ids=["hyperbolic-verify", "sphere-propagate"],
)
def test_curvature_interpolant_is_built_once_per_curve(tmp_path, monkeypatch, command, spec,
                                                       builds):
    # the hyperbolic profile and collapse front share one spline, and so do
    # the two cusped sphere fronts; each of 11 lemma fronts fits its own
    calls = []
    interpolant = curves.periodic_interpolant
    monkeypatch.setattr(curves, "periodic_interpolant",
                        lambda *a: calls.append(1) or interpolant(*a))
    code = main([command[0], "--input", str(GOLDEN / f"{spec}_spec.json"), "--out", str(tmp_path),
                 *command[1:]])
    assert code == EXIT_PASS
    assert len(calls) == builds


@pytest.mark.parametrize("doc", [WAVY_SPHERE, WAVY_HYPERBOLIC], ids=["spherical", "hyperbolic"])
def test_curved_verify_builds_one_front_per_t(tmp_path, monkeypatch, doc):
    # the defect and lemma checks read one front per t: 11 fronts, not 22
    times = []
    propagate_front = curves.propagate_front

    def counting(curve, t):
        times.append(t)
        return propagate_front(curve, t)

    for module in (curves, wavefront):
        monkeypatch.setattr(module, "propagate_front", counting)
    grid = []
    default_grid = cli._default_t_grid
    monkeypatch.setattr(cli, "_default_t_grid", lambda curve: grid.extend(default_grid(curve)) or grid)
    code = main(["verify", "--input", write_spec(tmp_path, doc), "--out", str(tmp_path),
                 "--samples", "1024"])
    assert code == EXIT_PASS
    assert len(grid) == 11
    # the semigroup times are not on the grid, though one is within 2e-16 of it
    assert sorted(t for t in times if t in grid) == grid


@pytest.mark.parametrize(
    "doc, semigroup_a, k_fronts",
    [(CONVEX_SPHERE, 0.13, 13), (WAVY_HYPERBOLIC, 0.11, 12)],
    ids=["spherical", "hyperbolic"],
)
def test_curved_verify_measures_only_the_fronts_it_reads(tmp_path, monkeypatch, doc,
                                                         semigroup_a, k_fronts):
    # of the 15 fronts, the lemma fronts, the inner semigroup front and the
    # sphere's equatorial front read k; only the inner semigroup front reads
    # the conormal; each differentiates its samples once per stencil order
    fronts = []
    propagate_front = curves.propagate_front

    def keeping(curve, t):
        fronts.append(propagate_front(curve, t))
        return fronts[-1]

    for module in (curves, wavefront):
        monkeypatch.setattr(module, "propagate_front", keeping)
    orders = []
    periodic_deriv = kernels.periodic_deriv

    def counting(values, order, spacing):
        if any(values is front.points for front in fronts):
            orders.append(order)
        return periodic_deriv(values, order, spacing)

    monkeypatch.setattr(kernels, "periodic_deriv", counting)
    code = main(["verify", "--input", write_spec(tmp_path, doc), "--out", str(tmp_path),
                 "--samples", "1024"])
    assert code == EXIT_PASS
    assert len(fronts) == 15
    assert sorted(orders) == [1] * k_fronts + [2] * k_fronts
    assert sum("k" in vars(front) for front in fronts) == k_fronts
    [reads_normal] = [front for front in fronts if "normal" in vars(front)]
    assert reads_normal.t == semigroup_a and not isinstance(reads_normal.base, curves.Front)
    # the outer semigroup front and the one-step front are compared by their
    # points alone: they measure neither area nor cusps
    [outer] = [i for i, front in enumerate(fronts) if isinstance(front.base, curves.Front)]
    two_step, one_step = fronts[outer:outer + 2]
    assert one_step.t == two_step.base.t + two_step.t and one_step.base is two_step.base.base
    for front in (two_step, one_step):
        assert "area" not in vars(front) and "cusps" not in vars(front)


def test_sphere_circle_verify_keeps_the_defect_check(tmp_path):
    spec = write_spec(tmp_path, {"geometry": "spherical", "representation": "perturbed_circle",
                                 "rho": 0.9})
    code = main(["verify", "--input", spec, "--out", str(tmp_path), "--samples", "1024"])
    assert code == EXIT_PASS
    checks = {c["name"]: c for c in read_report(tmp_path, "verify_report.json")["checks"]}
    assert checks["defect_invariance"]["passed"] is True
    assert checks["front_mean_curvature_lemma"]["passed"] is None
    assert checks["front_mean_curvature_lemma"]["note"] == "circle"


@pytest.mark.parametrize(
    "doc",
    [{"rho": 1.6}, {"rho": 2.5}, {"rho": 3.0},
     {"rho": 2.2, "harmonics": [[3, 0.04, 0.4], [2, 0.03, 1.1]]}],
    ids=["1.6", "2.5", "3.0", "perturbed-2.2"],
)
def test_verify_sphere_caps_larger_than_a_hemisphere(tmp_path, doc):
    # the hemisphere witness of such a cap is the south pole; the fronts were
    # once measured about it, 4 pi off the base area, and failed the defect check
    spec = write_spec(tmp_path, {"geometry": "spherical", "representation": "perturbed_circle",
                                 **doc})
    code = main(["verify", "--input", spec, "--out", str(tmp_path)])
    report = read_report(tmp_path, "verify_report.json")
    assert code == EXIT_PASS, report["checks"]
    checks = {c["name"]: c["passed"] for c in report["checks"]}
    assert checks["defect_invariance"] is True
    # a circle has no attainment set, so its lemma check is skipped
    assert checks["front_mean_curvature_lemma"] is (True if "harmonics" in doc else None)


def test_hyperbolic_circle_verify_on_a_fine_grid(tmp_path):
    # the collapse front's factor is roundoff here; its sampled sign flips
    # once sent brentq brackets without a sign change
    spec = write_spec(tmp_path, {"geometry": "hyperbolic", "representation": "hyperbolic_circle",
                                 "rho": 0.8})
    code = main(["verify", "--input", spec, "--out", str(tmp_path), "--samples", "4096"])
    assert code == EXIT_PASS
    checks = {c["name"]: c for c in read_report(tmp_path, "verify_report.json")["checks"]}
    assert checks["collapse_front"]["passed"] is None
    assert checks["collapse_front"]["note"] == "circle collapses to a point"


def test_steiner_passes_at_the_critical_time(tmp_path):
    # L_t vanishes at t* = -L/2pi = -1; the length error is roundoff there
    code = main(["verify", "--input", str(GOLDEN / "oval_spec.json"), "--out", str(tmp_path),
                 "--t=-1.0"])
    assert code == EXIT_PASS
    checks = {c["name"]: c for c in read_report(tmp_path, "verify_report.json")["checks"]}
    assert checks["steiner"]["passed"] is True
    assert checks["steiner"]["max_rel_length"] < 1e-12


def test_counterexample_below_threshold(tmp_path):
    code = main(["counterexample", "--r", "0.5", "--out", str(tmp_path),
                 "--samples", "512", "--format", "json"])
    assert code == EXIT_PASS
    report = read_report(tmp_path, "counterexample_report.json")
    assert report["mean_below_coth"] is False
    assert report["counterexample"] is False
    assert report["expected_outcome"] is True


def test_counterexample_shooting_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a shooting residual that never vanishes trips the 5e-10 closure gate
    monkeypatch.setattr(hyperbolic, "_shoot_half", lambda r, c, eps, lengths: np.array([1e-3, 0.0]))
    code = main(["counterexample", "--r", "2.0", "--out", str(tmp_path),
                 "--samples", "512", "--format", "json"])
    assert code == EXIT_NUMERICAL_FAILURE == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure: corner shooting failed to close")
    assert not (tmp_path / "counterexample_report.json").exists()


def test_counterexample_huge_radius_exits_3(tmp_path, capsys):
    # the shooting overflows at this radius; the closure gate must say so,
    # and say nothing else
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["counterexample", "--r", "100", "--out", str(tmp_path),
                     "--samples", "512", "--format", "json"])
    assert code == EXIT_NUMERICAL_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure: corner shooting failed to close")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# export and golden artifacts


@pytest.mark.parametrize(
    "spec, extra, stem",
    [
        ("oval", [], "export_curve"),
        # the disc SVGs, the curved CSV columns and the polar Green area
        ("sphere", ["--samples", "256"], "export_sphere"),
        ("hyperbolic", ["--samples", "256"], "export_hyperbolic"),
        # point loops, one per geometry: 96 points of r = 1 + 0.05 cos 3u + 0.02 sin 4u
        ("samples", ["--samples", "512"], "export_samples"),
        ("sphere_samples", ["--samples", "512"], "export_sphere_samples"),
        ("hyperboloid_samples", ["--samples", "512"], "export_hyperboloid_samples"),
    ],
    ids=["oval", "sphere", "hyperbolic", "samples", "sphere-samples", "hyperboloid-samples"],
)
def test_export_matches_golden(tmp_path, spec, extra, stem):
    code = main(["export", "--input", str(GOLDEN / f"{spec}_spec.json"),
                 "--out", str(tmp_path), "--format", "csv,json,svg", *extra])
    assert code == EXIT_PASS
    for ext in ("csv", "json", "svg"):
        written = (tmp_path / f"export_curve.{ext}").read_bytes()
        assert written == (GOLDEN / f"{stem}.{ext}").read_bytes(), ext


@pytest.mark.parametrize("geometry", ["sphere", "hyperbolic"])
def test_propagate_matches_golden(tmp_path, geometry):
    # fronts, cusps, measured areas and the Steiner closed forms of a curved
    # geometry, pinned byte for byte
    code = main(["propagate", "--input", str(GOLDEN / f"{geometry}_spec.json"),
                 "--out", str(tmp_path), "--t=-0.2:0.4:0.1", "--format", "json"])
    assert code == EXIT_PASS
    assert (tmp_path / "propagate_report.json").read_bytes() == (
        GOLDEN / f"propagate_{geometry}.json"
    ).read_bytes()


def test_plane_propagate_matches_golden(tmp_path):
    # front CSVs with their regularity column, and the SVG cusp markers
    code = main(["propagate", "--input", str(GOLDEN / "oval_spec.json"),
                 "--out", str(tmp_path), "--t=-1.2:0.4:0.8", "--format", "csv,svg"])
    assert code == EXIT_PASS
    svg = (tmp_path / "propagate_fronts.svg").read_bytes()
    assert svg.count(b"<circle") == 8
    assert svg == (GOLDEN / "propagate_fronts.svg").read_bytes()
    for i in range(3):
        written = (tmp_path / f"front_{i:03d}.csv").read_bytes()
        assert written == (GOLDEN / f"propagate_front_{i:03d}.csv").read_bytes(), i


def test_curved_propagate_fronts_match_golden(tmp_path):
    # three coordinate columns, a negative regularity at t = -0.6, and t = 0
    code = main(["propagate", "--input", str(GOLDEN / "sphere_spec.json"), "--out", str(tmp_path),
                 "--samples", "128", "--t=-0.6:0.6:0.6", "--format", "csv"])
    assert code == EXIT_PASS
    for i in range(3):
        written = (tmp_path / f"front_{i:03d}.csv").read_bytes()
        assert written == (GOLDEN / f"propagate_sphere_front_{i:03d}.csv").read_bytes(), i


def test_analyze_csvs_match_golden(tmp_path):
    # the spectrum's integer index column; the curve table is the export one
    code = main(["analyze", "--input", str(GOLDEN / "oval_spec.json"), "--out", str(tmp_path),
                 "--format", "csv"])
    assert code == EXIT_PASS
    for written, golden in (("analyze_profile.csv", "analyze_profile.csv"),
                            ("analyze_spectrum.csv", "analyze_spectrum.csv"),
                            ("analyze_curve.csv", "export_curve.csv")):
        assert (tmp_path / written).read_bytes() == (GOLDEN / golden).read_bytes(), written


def test_counterexample_curve_matches_golden(tmp_path):
    code = main(["counterexample", "--r", "2", "--samples", "256",
                 "--out", str(tmp_path), "--format", "csv"])
    assert code == EXIT_PASS
    for name in ("counterexample_curve.csv", "counterexample_report.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize(
    "command, spec",
    [("verify", "oval"), ("verify", "sphere"), ("verify", "hyperbolic"), ("analyze", "oval")],
)
def test_report_matches_golden(tmp_path, command, spec):
    # every check's verdict and figures, and the attainment set, byte for byte
    formats = ["--format", "json"] if command == "analyze" else []  # verify writes only JSON
    main([command, "--input", str(GOLDEN / f"{spec}_spec.json"), "--out", str(tmp_path), *formats])
    assert (tmp_path / f"{command}_report.json").read_bytes() == (
        GOLDEN / f"{command}_{spec}.json"
    ).read_bytes()


def test_coarse_sphere_grid_skips_torsion(tmp_path):
    # at 64 samples the curve passes the builder's speed gate but not the
    # stencil-only gate of the torsion, which is skipped rather than fatal
    spec = str(GOLDEN / "sphere_spec.json")
    code = main(["analyze", "--input", spec, "--out", str(tmp_path),
                 "--samples", "64", "--format", "csv"])
    assert code == EXIT_PASS
    table = np.loadtxt(tmp_path / "analyze_curve.csv", delimiter=",", skiprows=1)
    assert table.shape == (64, 6) and not table[:, 5].any()

    code = main(["verify", "--input", spec, "--out", str(tmp_path), "--samples", "64"])
    report = read_report(tmp_path, "verify_report.json")
    assert code == (EXIT_PASS if report["passed"] else EXIT_THEOREM_FAIL)
    torsion = {c["name"]: c for c in report["checks"]}["total_torsion"]
    assert torsion["passed"] is None
    assert torsion["note"] == "torsion needs unit-speed samples"


def test_export_sphere_svg_branch(tmp_path):
    spec = write_spec(tmp_path, {"geometry": "spherical",
                                 "representation": "perturbed_circle", "rho": 0.7})
    code = main(["export", "--input", spec, "--out", str(tmp_path),
                 "--samples", "128", "--format", "svg"])
    assert code == EXIT_PASS
    assert (tmp_path / "export_curve.svg").read_text().count("<polyline") == 1


def test_export_klein_svg_branch(tmp_path):
    spec = write_spec(tmp_path, {"geometry": "hyperbolic",
                                 "representation": "hyperbolic_circle", "rho": 0.9})
    code = main(["export", "--input", spec, "--out", str(tmp_path),
                 "--samples", "128", "--format", "svg"])
    assert code == EXIT_PASS
    assert (tmp_path / "export_curve.svg").exists()
