"""Command-line front end: analyze, propagate, verify, counterexample, export.

Each command takes only the flags it reads:

    analyze         --input --out --samples --format
    propagate       --input --out --samples --t --format
    verify          --input --out --samples --tol --t
    counterexample  --out --samples --r --format
    export          --input --out --samples --format

Any other flag is a usage error.  Each flag can also be supplied through an
``OVALFRONT_``-prefixed environment variable (e.g. ``OVALFRONT_SAMPLES=2048``),
read for the commands that take it; explicit flags win.  Exit codes: 0 all
checks passed, 1 a theorem check failed (artifacts are still written), 2
input or usage error, 3 an internal numerical failure on valid input.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import specio
from .curves import (
    EUCLIDEAN,
    HYPERBOLIC,
    SPHERICAL,
    TWO_PI,
    average_curvature,
    critical_time,
    curvature_profile,
    defect_value,
    gauss_bonnet_residual,
    radius_profile,
    space_form,
    steiner_closed_form,
    sweep_fronts,
)
from .errors import (
    BadParametrizationError,
    DegenerateProfileError,
    InvalidSpecError,
    NumericalFailureError,
    OvalfrontError,
)
from .harmonics import spectrum, verify_sturm_hurwitz
from .hyperbolic import (
    CIRCLE_LIKE,
    EQUIDISTANT_LIKE,
    HOROCYCLE_LIKE,
    RoundedSemicircleSpec,
    counterexample_threshold,
    counterexample_verdict,
    semicircle_mean_gap,
    semicircle_reference,
)
from .sphere import (
    check_regular_embedded,
    equatorial_front,
    tennis_ball_check,
    total_torsion,
)
from .support import closure_residual
from .wavefront import propagate, propagation_lemma_check, steiner_check

EXIT_PASS = 0
EXIT_THEOREM_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3

ENV_PREFIX = "OVALFRONT_"
FORMATS = ("csv", "json", "svg")
# largest sample count and t grid accepted, checked before anything is allocated
MAX_SAMPLES = 1 << 20
MAX_T_VALUES = 10_000


def _env(name: str, fallback=None):
    return os.environ.get(ENV_PREFIX + name, fallback)


def _valid_samples(n: int) -> bool:
    return 64 <= n <= MAX_SAMPLES and n & (n - 1) == 0


def sample_count(text: str) -> int:
    """``--samples``: a power of two from 64 to ``MAX_SAMPLES``."""
    n = int(text)
    if not _valid_samples(n):
        raise argparse.ArgumentTypeError(f"must be a power of two from 64 to {MAX_SAMPLES}")
    return n


def tolerance(text: str) -> float:
    """``--tol``: a finite positive number."""
    tol = float(text)
    if not 0.0 < tol < np.inf:
        raise argparse.ArgumentTypeError("must be a finite positive number")
    return tol


def format_list(text: str) -> tuple:
    """``--format``: a comma-separated subset of ``FORMATS``."""
    formats = tuple(p.strip() for p in text.split(",") if p.strip())
    bad = set(formats) - set(FORMATS)
    if bad:
        raise argparse.ArgumentTypeError(f"unknown formats: {sorted(bad)}")
    return formats


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """One subcommand per entry of ``_COMMANDS``, with the flags it reads.

    Given a ``command``, only its subcommand is built; the usage line still
    names every command.  The flag defaults are read from the environment
    at each call.
    """
    flags = {
        "--input": dict(default=_env("INPUT"), help="curve-spec JSON file"),
        "--out": dict(default=_env("OUT", "."), help="output directory"),
        "--samples": dict(type=sample_count, default=_env("SAMPLES"),
                          help=f"sample count override (a power of two, 64 to {MAX_SAMPLES})"),
        "--tol": dict(type=tolerance, default=_env("TOL", 1e-6),
                      help="check tolerance (finite, > 0)"),
        "--t": dict(dest="t_spec", default=_env("T"),
                    help=f"t value, comma list, or start:stop:step (at most {MAX_T_VALUES})"),
        "--r": dict(type=float, default=_env("R", 2.0), help="semicircle radius"),
        "--format": dict(type=format_list, default=_env("FORMAT", "csv,json"),
                         help="comma-separated subset of csv,json,svg"),
    }
    parser = argparse.ArgumentParser(
        prog="ovalfront",
        description="Convex-curve wavefront analysis and theorem verification",
    )
    # with every command built, the default metavar lists them all, and
    # errors call the argument "command" instead of repeating that list
    metavar = None if command is None else "{%s}" % ",".join(_COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else [command]:
        _, summary, names = _COMMANDS[name]
        subparser = sub.add_parser(name, help=summary)
        for flag in names:
            subparser.add_argument(flag, **flags[flag])
    return parser


@functools.lru_cache(maxsize=16)
def _parser(command: Optional[str], env: tuple) -> argparse.ArgumentParser:
    """``build_parser(command)``, built once per command and ``OVALFRONT_*`` values ``env``."""
    return build_parser(command)


def parse_t_spec(text: Optional[str]):
    """Parse '--t': a single value, a comma list, or start:stop:step."""
    if text is None:
        return None
    text = str(text).strip()
    try:
        if ":" in text:
            start, stop, step = _finite(float(p) for p in text.split(":"))
            if step == 0.0:
                raise ValueError
            count = np.floor((stop - start) / step + 1e-9) + 1  # inf for a huge grid
            if count < 1:
                raise ValueError
            _check_t_count(count)
            return [start + i * step for i in range(int(count))]
        if "," in text:
            values = _finite(float(p) for p in text.split(",") if p.strip())
        else:
            values = _finite([float(text)])
    except ValueError as exc:
        raise InvalidSpecError(f"cannot parse t spec {text!r}") from exc
    _check_t_count(len(values))
    return values


def _check_t_count(count) -> None:
    if count > MAX_T_VALUES:
        raise InvalidSpecError(f"--t grid has more than {MAX_T_VALUES} values")


def _finite(values) -> list:
    values = list(values)
    if not all(np.isfinite(values)):
        raise ValueError("t values must be finite")
    return values


def _load_curve(args):
    if not args.input:
        raise InvalidSpecError("--input is required for this command")
    doc = specio.load_curve_spec(args.input)
    n_eff = int(args.samples or doc.get("n_samples") or 1024)
    if not _valid_samples(n_eff):
        raise InvalidSpecError(
            f"effective n_samples must be a power of two from 64 to {MAX_SAMPLES}"
        )
    return doc, specio.build_curve(doc, n_samples=n_eff)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _by_K(curve, plane, sphere, hyperboloid):
    """The entry for the curve's geometry: K = 0, +1 and -1 index the three."""
    return (plane, sphere, hyperboloid)[space_form(curve.geometry).K]


def _write_curve_svg(path, curves) -> None:
    """Plane drawing, orthographic sphere view or Klein disc, by geometry."""
    writer = _by_K(curves[0], specio.write_plane_svg, specio.write_sphere_svg,
                   specio.write_klein_svg)
    writer(path, curves)


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(args) -> int:
    _, curve = _load_curve(args)
    out = _outdir(args)
    try:
        profile = curvature_profile(curve)
    except DegenerateProfileError:
        profile = None
    crossings = np.empty(0) if profile is None else profile.crossing_params

    report = {
        "command": "analyze",
        "geometry": curve.geometry,
        "length": curve.L,
        "area": curve.A,
        "mean_curvature": average_curvature(curve),
        "min_curvature": float(np.min(curve.k)),
        "max_curvature": float(np.max(curve.k)),
        "degenerate_profile": profile is None,
        "attainment_count": None if profile is None else len(crossings),
        "attainment_params": crossings,
    }
    if curve.geometry == HYPERBOLIC:
        report["horocyclically_convex"] = curve.horocyclic_convex
        report["curvature_class_counts"] = {
            "circle_like": int(np.sum(curve.curvature_class == CIRCLE_LIKE)),
            "horocycle_like": int(np.sum(curve.curvature_class == HOROCYCLE_LIKE)),
            "equidistant_like": int(np.sum(curve.curvature_class == EQUIDISTANT_LIKE)),
        }

    # a plane curve's spectrum is that of its radius R = 1/k
    poles = curve.geometry == EUCLIDEAN and not _convex(curve)
    if poles:
        report["note"] = "not convex: radius of curvature 1/k has poles; no spectrum written"

    if "csv" in args.format and profile is not None:
        specio.write_profile_csv(out / "analyze_profile.csv", profile)
        if curve.geometry != EUCLIDEAN:
            sp = spectrum(np.asarray(curve.k) - float(np.mean(curve.k)))
            specio.write_spectrum_csv(out / "analyze_spectrum.csv", sp)
        elif not poles:
            rp = radius_profile(curve)
            specio.write_spectrum_csv(out / "analyze_spectrum.csv", spectrum(rp.values - rp.mean))
        specio.write_curve_csv(out / "analyze_curve.csv", curve)
    if "svg" in args.format:
        _write_curve_svg(out / "analyze_curve.svg", [curve])
    if "json" in args.format:
        specio.write_json_report(out / "analyze_report.json", report)
    return EXIT_PASS


def cmd_propagate(args) -> int:
    t_values = parse_t_spec(args.t_spec)
    if not t_values:
        raise InvalidSpecError("--t is required for propagate")
    _, curve = _load_curve(args)
    out = _outdir(args)
    snapshots = []
    fronts = []
    for i, t in enumerate(t_values):
        front = propagate(curve, t)
        fronts.append(front)
        len_pred, area_pred = steiner_closed_form(curve, t)
        snapshots.append(
            {
                "index": i,
                "t": t,
                "signed_length": front.signed_length,
                "area": front.area,
                "signed_length_predicted": len_pred,
                "area_predicted": area_pred,
                "cusp_count": len(front.cusps),
                "cusp_params": front.cusps,
            }
        )
    if "csv" in args.format:
        specio.write_front_csvs(out, fronts)
    if "svg" in args.format:
        _write_curve_svg(out / "propagate_fronts.svg", [curve, *fronts])
    if "json" in args.format:
        specio.write_json_report(
            out / "propagate_report.json",
            {"command": "propagate", "geometry": curve.geometry, "snapshots": snapshots},
        )
    return EXIT_PASS


class _Suite:
    """Collects named checks; a check may pass, fail, or be skipped (None)."""

    def __init__(self):
        self.checks = []

    def add(self, name: str, passed, void=None, **details):
        """A ``void`` note skips the check but keeps its details."""
        entry = {"name": name, "passed": passed if void is None else None}
        if void is not None:
            entry["note"] = void
        entry.update(details)
        self.checks.append(entry)

    @property
    def passed(self) -> bool:
        return all(c["passed"] is not False for c in self.checks)


def _add_front_checks(suite: _Suite, curve, tol: float, t_values, semigroup_times=None) -> None:
    """Defect invariance and the front mean-curvature lemma over ``t_values``.

    The plane takes the defects from its fronts and the lemma from its closed
    form.  The curved geometries build one front per t, read its defect and
    its measured lemma deviation, and drop it before the next; they also
    check the semigroup law at ``semigroup_times``.  A check that would
    compare nothing is skipped with a note.
    """
    distinct = len(set(t_values)) >= 2
    fronts = (propagate(curve, t) for t in t_values)
    if space_form(curve.geometry).K:
        defects, lemma = sweep_fronts(curve, fronts)
    else:
        if distinct:
            defects = [defect_value(curve.geometry, f.signed_length, f.area) for f in fronts]
        try:
            lemma = propagation_lemma_check(curve, t_values)
        except DegenerateProfileError:
            lemma = None

    if not distinct:
        suite.add("defect_invariance", None, note="needs two distinct t values")
    else:
        _add_defect_check(suite, curve, defects, tol)

    if lemma is None:
        suite.add("front_mean_curvature_lemma", None, note="circle")
    elif lemma.max_deviation is None:
        suite.add("front_mean_curvature_lemma", None,
                  note="every t skipped or no attainment point")
    else:
        suite.add(
            "front_mean_curvature_lemma",
            bool(lemma.max_deviation < tol),
            max_deviation=lemma.max_deviation,
        )

    if semigroup_times is not None:
        a, b = semigroup_times
        two_step = propagate(propagate(curve, a), b)
        one_step = propagate(curve, a + b)
        gap = float(np.max(np.linalg.norm(two_step.points - one_step.points, axis=1)))
        suite.add("semigroup", bool(gap < 1e-8), pointwise_gap=gap)


def _add_defect_check(suite: _Suite, curve, defects, tol: float) -> None:
    """Relative defect spread, with an absolute floor for circles.

    On a circle the defect itself is roundoff, so dividing the spread by
    max|defect| would manufacture a failure out of noise; compare against
    the magnitude of the terms whose cancellation defines the defect.
    """
    scale = max(abs(d) for d in defects)
    floor = tol * (curve.L**2 + abs(curve.A) * (4.0 * np.pi + abs(curve.A)))
    if scale < floor:
        suite.add("defect_invariance", True, max_abs_defect=scale,
                  note="defect vanishes to roundoff")
        return
    spread = (max(defects) - min(defects)) / scale
    suite.add("defect_invariance", bool(spread < tol), relative_spread=spread)


def _add_critical_front(suite: _Suite, curve, tol: float, name: str, record_t=False,
                        void=None) -> None:
    """The front at :func:`critical_time`: zero signed length and at least four cusps.

    Its cusps sit where k equals its mean.  A circle, whose front collapses
    to a point, is skipped with its signed length.  A ``void`` note skips
    the check on a curve that the guarantee does not cover.
    """
    t = critical_time(curve)
    front = propagate(curve, t)
    try:
        curvature_profile(curve)
    except DegenerateProfileError:
        suite.add(name, None, note="circle collapses to a point",
                  signed_length=front.signed_length)
        return
    count = len(front.cusps)
    suite.add(name, bool(abs(front.signed_length) < tol and count >= 4), void=void,
              **({"t": t} if record_t else {}),
              signed_length=front.signed_length, cusp_count=count)


def _default_t_grid(curve):
    if curve.geometry == EUCLIDEAN:
        # keep |t k| away from 1 on the negative side for lemma checks;
        # 1/max(k) is min(1/k) on a convex curve and stays positive otherwise
        rmin = 1.0 / float(np.max(curve.k))
        return list(np.linspace(-0.45 * rmin, 1.0, 11))
    if curve.geometry == SPHERICAL:
        return list(np.linspace(-0.2, 0.4, 11))
    return list(np.linspace(-0.25, 0.5, 11))


def _convex(curve) -> bool:
    """min k > 0: what the four-point guarantee, its spectral form and R = 1/k need."""
    return float(np.min(curve.k)) > 0.0


def _verify_euclidean(curve, tol: float, t_values) -> _Suite:
    suite = _Suite()
    void = None if _convex(curve) else "not convex: four-point guarantee void"
    try:
        res = closure_residual(curve)
        suite.add(
            "closure_residual",
            bool(np.linalg.norm(res) < max(tol, 1e-8) * max(curve.L, 1.0)),
            residual=list(res),
        )
    except ValueError:
        suite.add("closure_residual", None, note="not a support-built oval")

    try:
        count = len(curvature_profile(curve).crossing_params)
        suite.add("four_point", bool(count >= 4), void=void, attainment_count=count)
    except DegenerateProfileError:
        suite.add("four_point", None, note="circle: constant curvature")

    # both spectral checks read R against the normal angle, the grid of support builds only
    skip = void or ("not a support-built oval" if curve.radius_fn is None else None)
    if skip is None:
        radius = 1.0 / np.asarray(curve.k)
        dev = radius - float(np.mean(radius))
        if float(np.max(np.abs(dev))) <= 1e-12:
            skip = "circle"
    if skip is None:
        sp = spectrum(dev)
        top = float(np.max(sp.amplitudes))
        low = float(max(sp.amplitudes[0], sp.amplitudes[1]))
        sturm = verify_sturm_hurwitz(dev)
        suite.add(
            "radius_deviation_spectrum",
            bool(low < 1e-8 * top),
            low_harmonic_fraction=low / top,
        )
        suite.add(
            "sturm_hurwitz",
            bool(sturm.passed and sturm.first_harmonic >= 2),
            first_harmonic=sturm.first_harmonic,
            sign_changes=sturm.sign_changes,
        )
    else:
        suite.add("radius_deviation_spectrum", None, note=skip)
        suite.add("sturm_hurwitz", None, note=skip)

    steiner = steiner_check(curve, t_values, tol=tol)
    suite.add(
        "steiner",
        bool(steiner.passed),
        max_rel_length=steiner.max_rel_length,
        max_rel_area=steiner.max_rel_area,
    )

    _add_front_checks(suite, curve, tol, t_values)
    _add_critical_front(suite, curve, tol, "critical_front", void=void)
    return suite


def _verify_spherical(curve, tol: float, t_values) -> _Suite:
    suite = _Suite()
    gb = gauss_bonnet_residual(curve)
    suite.add("gauss_bonnet", bool(gb < tol), residual=gb)

    _add_front_checks(suite, curve, tol, t_values, semigroup_times=(0.13, 0.21))

    if _convex(curve) and curve.pole is not None:
        eq = equatorial_front(curve)
        emb = check_regular_embedded(curve, eq.t)
        ok = eq.area_gap < tol and emb.passed and (
            eq.degenerate or eq.inflections >= 4
        )
        suite.add(
            "equatorial_front",
            bool(ok),
            t=eq.t,
            area_gap=eq.area_gap,
            inflections=eq.inflections,
            regular_margin=emb.regular_margin,
            embedded_until=emb.t_embedded,
        )
    else:
        suite.add("equatorial_front", None, note="needs a convex hemisphere curve")

    try:
        torsion = total_torsion(curve)
    except BadParametrizationError as exc:  # its stencil speed gate refuses coarse grids
        suite.add("total_torsion", None, note=str(exc))
    else:
        if torsion.degenerate:
            suite.add("total_torsion", None, note="torsion identically zero")
        else:
            suite.add(
                "total_torsion",
                bool(abs(torsion.integral) < max(tol, 1e-6) and torsion.sign_changes >= 4),
                integral=torsion.integral,
                sign_changes=torsion.sign_changes,
            )

    if abs(curve.A - TWO_PI) <= tol:
        tb = tennis_ball_check(curve, area_tol=tol)
        if tb.degenerate:
            suite.add("tennis_ball", None, note="great circle")
        else:
            suite.add("tennis_ball", bool(tb.passed), inflections=tb.inflections)
    else:
        suite.add("tennis_ball", None, note="curve does not bisect the area")
    return suite


def _verify_hyperbolic(curve, tol: float, t_values) -> _Suite:
    suite = _Suite()
    gb = float(curve.gb_residual)
    suite.add("gauss_bonnet", bool(gb < max(tol, 1e-6)), residual=gb)

    hc = curve.horocyclic_convex
    suite.add("horocyclic_convexity", None, horocyclically_convex=hc,
              min_curvature=float(np.min(curve.k)))

    if not hc:
        try:
            suite.add(
                "mean_attainment",
                None,
                note="not horocyclically convex: four-point guarantee void",
                attainment_count=len(curvature_profile(curve).crossing_params),
            )
        except DegenerateProfileError:
            suite.add("mean_attainment", None, note="constant curvature")
        return suite

    _add_critical_front(suite, curve, tol, "collapse_front", record_t=True)
    _add_front_checks(suite, curve, tol, t_values, semigroup_times=(0.11, 0.17))
    return suite


def cmd_verify(args) -> int:
    _, curve = _load_curve(args)
    out = _outdir(args)
    t_values = parse_t_spec(args.t_spec) or _default_t_grid(curve)
    verify = _by_K(curve, _verify_euclidean, _verify_spherical, _verify_hyperbolic)
    suite = verify(curve, args.tol, t_values)
    report = {
        "command": "verify",
        "geometry": curve.geometry,
        "tol": args.tol,
        "t_grid": list(t_values),
        "checks": suite.checks,
        "passed": suite.passed,
    }
    specio.write_json_report(out / "verify_report.json", report)
    return EXIT_PASS if suite.passed else EXIT_THEOREM_FAIL


def cmd_counterexample(args) -> int:
    out = _outdir(args)
    threshold = counterexample_threshold()
    spec = RoundedSemicircleSpec(r=args.r, n_samples=args.samples or 4096)
    verdict = counterexample_verdict(spec)

    sweep_r = list(np.linspace(0.25, 5.0, 20))
    sweep = [
        {
            "r": rv,
            "mean_curvature_exact": semicircle_reference(rv)[2],
            "coth_gap": semicircle_mean_gap(rv),
        }
        for rv in sweep_r
    ]

    expected = (
        verdict.counterexample
        if args.r > threshold.r_star
        else not verdict.mean_below_coth
    )
    report = {
        "command": "counterexample",
        "threshold_r": threshold.r_star,
        "threshold_sign_changes": threshold.sign_changes,
        "r": args.r,
        "mean_curvature": verdict.mean_curvature,
        "coth_r": verdict.coth_r,
        "mean_below_coth": verdict.mean_below_coth,
        "attainment_count": verdict.attainment_count,
        "attainment_params": verdict.attainment_params,
        "convex": verdict.convex,
        "horocyclically_convex": verdict.horocyclically_convex,
        "counterexample": verdict.counterexample,
        "expected_outcome": bool(expected),
        "sweep": sweep,
    }
    specio.write_json_report(out / "counterexample_report.json", report)
    if "csv" in args.format:
        specio.write_curve_csv(out / "counterexample_curve.csv", verdict.curve)
    if "svg" in args.format:
        specio.write_klein_svg(out / "counterexample_curve.svg", [verdict.curve])
    return EXIT_PASS if expected else EXIT_THEOREM_FAIL


def cmd_export(args) -> int:
    doc, curve = _load_curve(args)
    out = _outdir(args)
    if "csv" in args.format:
        specio.write_curve_csv(out / "export_curve.csv", curve)
    if "svg" in args.format:
        _write_curve_svg(out / "export_curve.svg", [curve])
    if "json" in args.format:
        specio.write_json_report(
            out / "export_curve.json",
            {
                "command": "export",
                "source_spec": doc,
                "geometry": curve.geometry,
                "n_samples": len(curve.points),
                "length": curve.L,
                "area": curve.A,
            },
        )
    return EXIT_PASS


# name -> (command, help line, the flags it reads)
_COMMANDS = {
    "analyze": (cmd_analyze, "curvature profile and attainment report",
                ("--input", "--out", "--samples", "--format")),
    "propagate": (cmd_propagate, "equidistant front snapshots over a t grid",
                  ("--input", "--out", "--samples", "--t", "--format")),
    "verify": (cmd_verify, "full theorem suite for the input geometry",
               ("--input", "--out", "--samples", "--tol", "--t")),
    "counterexample": (cmd_counterexample, "rounded-semicircle pipeline",
                       ("--out", "--samples", "--r", "--format")),
    "export": (cmd_export, "re-emit the curve in requested formats",
               ("--input", "--out", "--samples", "--format")),
}
# the environment variable of each flag, without the prefix: --samples reads SAMPLES
_ENV_NAMES = tuple(sorted({flag[2:].upper() for *_, flags in _COMMANDS.values() for flag in flags}))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = _parser(command, tuple(_env(name) for name in _ENV_NAMES))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command][0](args)
    except NumericalFailureError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except (OvalfrontError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
