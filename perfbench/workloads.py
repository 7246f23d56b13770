"""The four benchmark workloads: seeded inputs, their screening, and checks.

Each workload turns a seed into a round of cases.  A case is one
operation: one or two ``ovalfront`` command lines plus what the benchmark
expects of their outputs, computed here from the spec parameters and
never taken from the program.  Screening rejects drawn parameters whose
expected outcome would be ill-conditioned (a curvature extremum within a
hair of the level it is compared with), so that a failed check means a
wrong answer and not a coin flip.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
# Fine grid for the benchmark's own evaluation of curvature profiles.
FINE = 1 << 14
# Relative distance an extremum must keep from any level it is compared with.
LEVEL_MARGIN = 2e-3
MAX_DRAWS = 10_000


class CheckFailure(Exception):
    """An output of the program disagrees with what the benchmark expects."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def close(value, target, scale, rel=1e-9) -> bool:
    return value is not None and abs(value - target) <= rel * max(abs(scale), 1e-300)


@dataclass
class Case:
    label: str
    argvs: list
    outs: list
    expected: dict = field(default_factory=dict)


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, sort_keys=True))
    return str(path)


def _read_report(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


# ---------------------------------------------------------------------------
# periodic sample helpers


def sign_changes(values: np.ndarray) -> int:
    """Cyclic sign changes of samples that never sit on zero."""
    s = np.sign(values)
    return int(np.count_nonzero(s != np.roll(s, -1)))


def extremum_values(values: np.ndarray) -> np.ndarray:
    """Values at the cyclic local extrema of periodic samples."""
    ahead = np.roll(values, -1) - values
    behind = values - np.roll(values, 1)
    return values[ahead * behind <= 0.0]


def clear_of(values: np.ndarray, level: float, margin: float) -> bool:
    """Every extremum of ``values`` stays ``margin`` away from ``level``."""
    return bool(np.all(np.abs(extremum_values(values) - level) >= margin))


def _all_checks_hold(report: dict) -> None:
    for check in report["checks"]:
        expect(check["passed"] is not False, f"check {check['name']} failed: {check}")
    expect(report["passed"] is True, "report says the suite failed")


def _check_by_name(report: dict, name: str) -> dict:
    found = [c for c in report["checks"] if c["name"] == name]
    expect(len(found) == 1, f"report has {len(found)} checks named {name}")
    return found[0]


# ---------------------------------------------------------------------------
# plane ovals from support functions


GRID = np.arange(FINE) * (TWO_PI / FINE)


def random_support_rows(rng, n_harm: int = 5) -> list:
    """Support function a0 + sum a_m cos m + b_m sin m, as spec rows."""
    a0 = float(rng.uniform(0.8, 1.25))
    rows = [[0, a0, 0.0]]
    for m in range(1, n_harm + 1):
        sigma = a0 * (0.1 if m == 1 else 0.12 / m**2)
        rows.append([m, float(rng.normal(0.0, sigma)), float(rng.normal(0.0, sigma))])
    return rows


def curvature_radius(rows) -> np.ndarray:
    """R = h + h'' on the fine grid: harmonic m scales by 1 - m^2."""
    radius = np.zeros(FINE)
    for m, c, s in rows:
        radius += (1 - m * m) * (c * np.cos(m * GRID) + s * np.sin(m * GRID))
    return radius


def oval_length_area(rows):
    """L = 2 pi a0 and A = pi a0^2 + (pi/2) sum (1 - m^2)(a_m^2 + b_m^2)."""
    a0 = rows[0][1]
    area = math.pi * a0 * a0 + 0.5 * math.pi * sum(
        (1 - m * m) * (c * c + s * s) for m, c, s in rows[1:]
    )
    return TWO_PI * a0, area


def screened_ovals(rng, count: int, t_values=()) -> list:
    """Convex ovals, visibly non-circular, with well-separated level crossings.

    Every extremum of R must keep a margin from the mean radius a0 (where
    the curvature attains its mean) and from -t for each front time t
    (where the front has cusps).
    """
    out = []
    for _ in range(MAX_DRAWS):
        rows = random_support_rows(rng)
        a0 = rows[0][1]
        radius = curvature_radius(rows)
        margin = LEVEL_MARGIN * a0
        if radius.min() < 0.25 * a0 or np.abs(radius - a0).max() < 0.1 * a0:
            continue
        if not all(clear_of(radius, level, margin) for level in (a0, *(-t for t in t_values))):
            continue
        out.append((rows, radius))
        if len(out) == count:
            return out
    raise RuntimeError("support-oval screening rejected every draw")


class PlaneVerify:
    name = "plane-verify"
    n = 1024
    cases_per_round = 16

    def generate(self, seed: int, spec_dir: Path, out_dir: Path) -> list:
        rng = np.random.default_rng([seed, 1])
        cases = []
        for i, (rows, radius) in enumerate(screened_ovals(rng, self.cases_per_round)):
            spec = _write_json(
                spec_dir / f"oval_{i:02d}.json",
                {"geometry": "euclidean", "representation": "support_fourier", "coeffs": rows},
            )
            argv = ["verify", "--input", spec, "--samples", str(self.n), "--out", str(out_dir)]
            crossings = sign_changes(radius - rows[0][1])
            cases.append(Case(f"oval_{i:02d}", [argv], [out_dir], {"crossings": crossings}))
        return cases

    def check(self, case: Case, codes: list) -> None:
        expect(codes == [0], f"exit codes {codes}")
        report = _read_report(case.outs[0], "verify_report.json")
        expect(report["geometry"] == "euclidean", "wrong geometry")
        _all_checks_hold(report)
        crossings = case.expected["crossings"]
        four = _check_by_name(report, "four_point")
        expect(four["attainment_count"] >= 4, "fewer than 4 attainment points")
        expect(four["attainment_count"] == crossings,
               f"attainment count {four['attainment_count']}, R - a0 changes sign {crossings} times")
        crit = _check_by_name(report, "critical_front")
        expect(crit["cusp_count"] >= 4, "critical front has fewer than 4 cusps")
        expect(crit["cusp_count"] == crossings,
               f"critical front has {crit['cusp_count']} cusps, expected {crossings}")


T_START, T_STOP, T_STEP = -1.5, 0.5, 0.1
# the CLI expands start:stop:step to start + i * step, i = 0 .. 20
T_VALUES = [T_START + i * T_STEP for i in range(21)]


class PlaneExport:
    name = "plane-export"
    n = 4096
    cases_per_round = 4

    def generate(self, seed: int, spec_dir: Path, out_dir: Path) -> list:
        rng = np.random.default_rng([seed, 2])
        cases = []
        for i, (rows, radius) in enumerate(screened_ovals(rng, self.cases_per_round, T_VALUES)):
            spec = _write_json(
                spec_dir / f"oval_{i:02d}.json",
                {"geometry": "euclidean", "representation": "support_fourier", "coeffs": rows},
            )
            argv = [
                "propagate", "--input", spec, "--samples", str(self.n),
                f"--t={T_START}:{T_STOP}:{T_STEP}",
                "--format", "csv,json,svg", "--out", str(out_dir),
            ]
            length, area = oval_length_area(rows)
            cusps = [sign_changes(radius + t) for t in T_VALUES]
            cases.append(Case(f"oval_{i:02d}", [argv], [out_dir],
                              {"L": length, "A": area, "cusps": cusps}))
        return cases

    def check(self, case: Case, codes: list) -> None:
        expect(codes == [0], f"exit codes {codes}")
        out = case.outs[0]
        report = _read_report(out, "propagate_report.json")
        snaps = report["snapshots"]
        expect(len(snaps) == len(T_VALUES), f"{len(snaps)} snapshots")
        length, area = case.expected["L"], case.expected["A"]
        for snap, t, cusps in zip(snaps, T_VALUES, case.expected["cusps"]):
            expect(abs(snap["t"] - t) <= 1e-12, f"snapshot t {snap['t']} != {t}")
            lt = length + TWO_PI * t
            at = area + length * t + math.pi * t * t
            expect(close(snap["signed_length"], lt, abs(length) + TWO_PI * abs(t)),
                   f"t={t}: signed length {snap['signed_length']} != L + 2 pi t = {lt}")
            expect(close(snap["area"], at, abs(area) + length * abs(t) + math.pi * t * t),
                   f"t={t}: area {snap['area']} != A + L t + pi t^2 = {at}")
            expect(snap["cusp_count"] == cusps,
                   f"t={t}: {snap['cusp_count']} cusps, R + t changes sign {cusps} times")
        for i in range(len(T_VALUES)):
            lines = (out / f"front_{i:03d}.csv").read_bytes().split(b"\n")
            expect(lines[0] == b"s,x,y,regularity" and lines[-1] == b"",
                   f"front_{i:03d}.csv is malformed")
            expect(len(lines) - 2 == self.n, f"front_{i:03d}.csv has {len(lines) - 2} rows")
        svg = (out / "propagate_fronts.svg").read_text()
        expect(svg.startswith("<svg") and svg.count("<polyline") == 1 + len(T_VALUES),
               "SVG lacks one polyline per curve")


# ---------------------------------------------------------------------------
# perturbed circles on the sphere and in the hyperbolic plane


def _radial_profile(rho: float, harmonics):
    """f, f', f'' of f(phi) = rho + sum a cos(m phi + p) on the fine grid."""
    f = np.full(FINE, rho)
    d1 = np.zeros(FINE)
    d2 = np.zeros(FINE)
    for m, a, p in harmonics:
        arg = m * GRID + p
        f += a * np.cos(arg)
        d1 -= a * m * np.sin(arg)
        d2 -= a * m * m * np.cos(arg)
    return f, d1, d2


def sphere_profile(rho: float, harmonics):
    """Geodesic curvature, length and area of colatitude theta(phi), analytically."""
    th, th1, th2 = _radial_profile(rho, harmonics)
    z = np.array([0.0, 0.0, 1.0])
    er = np.column_stack([np.cos(GRID), np.sin(GRID), np.zeros(FINE)])
    ephi = np.column_stack([-np.sin(GRID), np.cos(GRID), np.zeros(FINE)])
    s, c = np.sin(th)[:, None], np.cos(th)[:, None]
    x = s * er + c * z
    dth = c * er - s * z  # d/dtheta of x
    x1 = th1[:, None] * dth + s * ephi
    x2 = (th2[:, None] * dth - (th1**2)[:, None] * x
          + 2.0 * (th1[:, None] * c) * ephi - s * er)
    speed = np.linalg.norm(x1, axis=1)
    k = np.einsum("ij,ij->i", np.cross(x, x1), x2) / speed**3
    length = float(speed.mean()) * TWO_PI
    area = float(np.mean(1.0 - np.cos(th))) * TWO_PI
    pole = (x * speed[:, None]).sum(axis=0)
    pole /= np.linalg.norm(pole)
    return k, length, area, float((x @ pole).min())


def hyperbolic_profile(rho: float, harmonics):
    """Geodesic curvature, length and area of radius r(phi) on the hyperboloid."""
    r, r1, r2 = _radial_profile(rho, harmonics)
    e0 = np.array([1.0, 0.0, 0.0])
    u = np.column_stack([np.zeros(FINE), np.cos(GRID), np.sin(GRID)])
    w = np.column_stack([np.zeros(FINE), -np.sin(GRID), np.cos(GRID)])
    ch, sh = np.cosh(r)[:, None], np.sinh(r)[:, None]
    x = ch * e0 + sh * u
    dr = sh * e0 + ch * u  # d/dr of x
    x1 = r1[:, None] * dr + sh * w
    x2 = (r2[:, None] * dr + (r1**2)[:, None] * x
          + 2.0 * (r1[:, None] * ch) * w - sh * u)
    speed = np.sqrt(-x1[:, 0] ** 2 + x1[:, 1] ** 2 + x1[:, 2] ** 2)
    k = np.einsum("ij,ij->i", np.cross(x, x1), x2) / speed**3
    length = float(speed.mean()) * TWO_PI
    area = float(np.mean(np.cosh(r) - 1.0)) * TWO_PI
    return k, length, area


class CurvedVerify:
    name = "curved-verify"
    n = 8192
    cases_per_round = 4

    @staticmethod
    def draw(rng):
        rho = float(rng.uniform(0.5, 0.9))
        orders = rng.choice([2, 3, 4, 5], size=int(rng.integers(2, 4)), replace=False)
        return rho, [
            [int(m), float(rng.uniform(0.2, 1.0) * 0.06 / (m * m - 1)),
             float(rng.uniform(0.0, TWO_PI))]
            for m in sorted(orders)
        ]

    def generate(self, seed: int, spec_dir: Path, out_dir: Path) -> list:
        """Convex in the upper hemisphere, horocyclically convex, mean levels clear."""
        rng = np.random.default_rng([seed, 3])
        cases = []
        for _ in range(MAX_DRAWS):
            rho, harmonics = self.draw(rng)
            k_s, l_s, a_s, witness = sphere_profile(rho, harmonics)
            k_h, l_h, a_h = hyperbolic_profile(rho, harmonics)
            mean_s = (TWO_PI - a_s) / l_s
            mean_h = (TWO_PI + a_h) / l_h
            if witness < 0.1 or k_s.min() < 0.3 or k_h.min() < 1.05:
                continue
            if np.ptp(k_s) < 0.05 or not clear_of(k_s, mean_s, LEVEL_MARGIN * mean_s):
                continue
            if not clear_of(k_h, mean_h, LEVEL_MARGIN * mean_h):
                continue
            i = len(cases)
            outs = [out_dir / "sphere", out_dir / "hyperbolic"]
            specs = [
                _write_json(spec_dir / f"sphere_{i:02d}.json",
                            {"geometry": "spherical", "representation": "perturbed_circle",
                             "rho": rho, "harmonics": harmonics}),
                _write_json(spec_dir / f"hyperbolic_{i:02d}.json",
                            {"geometry": "hyperbolic", "representation": "hyperbolic_circle",
                             "rho": rho, "harmonics": harmonics}),
            ]
            argvs = [["verify", "--input", spec, "--samples", str(self.n), "--out", str(out)]
                     for spec, out in zip(specs, outs)]
            cases.append(Case(f"circle_{i:02d}", argvs, outs, {
                "sphere_crossings": sign_changes(k_s - mean_s),
                "hyperbolic_crossings": sign_changes(k_h - mean_h),
            }))
            if len(cases) == self.cases_per_round:
                return cases
        raise RuntimeError("perturbed-circle screening rejected every draw")

    def check(self, case: Case, codes: list) -> None:
        expect(codes == [0, 0], f"exit codes {codes}")
        sphere = _read_report(case.outs[0], "verify_report.json")
        hyper = _read_report(case.outs[1], "verify_report.json")
        expect(sphere["geometry"] == "spherical" and hyper["geometry"] == "hyperbolic",
               "wrong geometries")
        _all_checks_hold(sphere)
        _all_checks_hold(hyper)

        eq = _check_by_name(sphere, "equatorial_front")
        expect(eq["passed"] is True, "equatorial front check did not run")
        expect(eq["inflections"] >= 4, "equatorial front has fewer than 4 inflections")
        expect(eq["inflections"] == case.expected["sphere_crossings"],
               f"{eq['inflections']} inflections, k_g crosses its mean "
               f"{case.expected['sphere_crossings']} times")
        torsion = _check_by_name(sphere, "total_torsion")
        expect(torsion["passed"] is True, "total torsion check did not run")
        expect(torsion["sign_changes"] >= 4, "torsion changes sign fewer than 4 times")
        expect(abs(torsion["integral"]) <= 1e-6, f"total torsion {torsion['integral']}")

        collapse = _check_by_name(hyper, "collapse_front")
        expect(collapse["passed"] is True, "collapse front check did not run")
        expect(collapse["cusp_count"] >= 4, "collapse front has fewer than 4 cusps")
        expect(collapse["cusp_count"] == case.expected["hyperbolic_crossings"],
               f"{collapse['cusp_count']} collapse cusps, k crosses its mean "
               f"{case.expected['hyperbolic_crossings']} times")
        expect(abs(collapse["signed_length"]) <= 1e-6,
               f"collapse front signed length {collapse['signed_length']}")


# ---------------------------------------------------------------------------
# the rounded-semicircle counterexample


def semicircle_mean(r: float) -> float:
    """(2 pi + A)/L of the half-disc: L = 2r + pi sinh r, A = pi (cosh r - 1)."""
    return (TWO_PI + math.pi * (math.cosh(r) - 1.0)) / (2.0 * r + math.pi * math.sinh(r))


def semicircle_threshold() -> float:
    """Bisection for coth r = semicircle_mean(r) on [1, 2]."""
    lo, hi = 1.0, 2.0

    def gap(r):
        return 1.0 / math.tanh(r) - semicircle_mean(r)

    if not gap(lo) < 0.0 < gap(hi):
        raise RuntimeError("threshold is not bracketed by [1, 2]")
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class Semicircle:
    """The radii are fixed: see the README for why the seed does not move them."""

    name = "semicircle"
    n = 4096
    radii = (0.9, 1.6, 2.0)
    cases_per_round = len(radii)

    def generate(self, seed: int, spec_dir: Path, out_dir: Path) -> list:
        r_star = semicircle_threshold()
        cases = []
        for r in self.radii:
            argv = ["counterexample", "--r", repr(r), "--samples", str(self.n), "--out", str(out_dir)]
            cases.append(Case(f"r={r}", [argv], [out_dir], {"r": r, "r_star": r_star}))
        return cases

    def check(self, case: Case, codes: list) -> None:
        expect(codes == [0], f"exit codes {codes}")
        out = case.outs[0]
        rep = _read_report(out, "counterexample_report.json")
        r, r_star = case.expected["r"], case.expected["r_star"]
        expect(rep["r"] == r, f"report is for r={rep['r']}")
        expect(abs(rep["threshold_r"] - r_star) <= 1e-9,
               f"threshold {rep['threshold_r']}, bisection gives {r_star}")
        expect(close(rep["coth_r"], 1.0 / math.tanh(r), 1.0), "coth r is wrong")
        if r > r_star:
            expect(rep["convex"] is True, "curve past r* is not convex")
            expect(rep["horocyclically_convex"] is False, "curve past r* is horocyclically convex")
            expect(rep["attainment_count"] == 2,
                   f"mean attained {rep['attainment_count']} times, not twice")
            expect(rep["mean_below_coth"] is True and rep["mean_curvature"] < rep["coth_r"],
                   "mean curvature past r* is not below coth r")
            expect(rep["counterexample"] is True, "no counterexample past r*")
        else:
            expect(rep["mean_below_coth"] is False and rep["mean_curvature"] >= rep["coth_r"],
                   "mean curvature below r* is below coth r")
        sweep_r = np.linspace(0.25, 5.0, 20)
        expect(len(rep["sweep"]) == len(sweep_r), "sweep has the wrong length")
        for row, rv in zip(rep["sweep"], sweep_r):
            mean = semicircle_mean(float(rv))
            expect(close(row["mean_curvature_exact"], mean, mean),
                   f"sweep r={rv}: mean {row['mean_curvature_exact']} != {mean}")
            gap = 1.0 / math.tanh(float(rv)) - mean
            expect(close(row["coth_gap"], gap, 1.0 / math.tanh(float(rv))),
                   f"sweep r={rv}: coth gap {row['coth_gap']} != {gap}")
        lines = (out / "counterexample_curve.csv").read_bytes().split(b"\n")
        expect(lines[0] == b"s,x0,x1,x2,k" and len(lines) - 2 == self.n,
               "counterexample_curve.csv is malformed")


WORKLOADS = {w.name: w for w in (PlaneVerify(), CurvedVerify(), Semicircle(), PlaneExport())}
