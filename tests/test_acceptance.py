"""Acceptance gate: one test and one printed pass/fail line per guarantee.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; every
tolerance here is a hard requirement, not a regression watermark.
"""

import time

import numpy as np
import pytest

import ovalfront as ov
from ovalfront.support import SupportOval, build_oval


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# one generic curve per geometry, resolved finely enough that every grid
# artifact sits well under the 1e-6 acceptance tolerances

@pytest.fixture(scope="module")
def generic_oval():
    return build_oval(SupportOval(
        coeffs=((1.0, 0.0), (0.0, 0.0), (0.06, 0.02), (0.03, -0.04), (0.0, 0.015)),
        n_samples=2048,
    ))


@pytest.fixture(scope="module")
def generic_sphere_curve():
    return ov.perturbed_sphere_circle(
        0.7, [(3, 0.04, 0.4), (2, 0.03, 1.1)], n_samples=2048)


@pytest.fixture(scope="module")
def generic_hyperbolic_curve():
    return ov.perturbed_hyperbolic_circle(
        1.1, [(2, 0.04, 0.3), (3, 0.02, 1.0)], n_samples=2048)


def test_four_point_attainment_on_population(oval_population):
    start = time.perf_counter()
    counts = [
        ov.count_mean_crossings(ov.curvature_profile(c)).count
        for c in oval_population
    ]
    elapsed = time.perf_counter() - start
    ok = min(counts) >= 4 and elapsed < 30.0
    _report(
        "four-point attainment",
        ok,
        f"min crossings {min(counts)} over {len(counts)} ovals (need >= 4), "
        f"{elapsed:.2f}s (budget 30s)",
    )


def test_radius_spectrum_and_sturm_hurwitz_on_population(oval_population):
    worst_fraction = 0.0
    sturm_failures = 0
    for curve in oval_population:
        rp = ov.radius_profile(curve)
        deviation = rp.values - rp.mean
        amps = ov.spectrum(deviation).amplitudes
        worst_fraction = max(
            worst_fraction, float(max(amps[0], amps[1]) / np.max(amps))
        )
        m, z = ov.verify_sturm_hurwitz(deviation)
        if not (m >= 2 and z >= 2 * m):
            sturm_failures += 1
    ok = worst_fraction < 1e-8 and sturm_failures == 0
    _report(
        "radius-deviation spectrum",
        ok,
        f"worst low-harmonic fraction {worst_fraction:.2e} (< 1e-8), "
        f"{sturm_failures} sign-change failures",
    )


def test_sign_changes_of_random_trig_polynomials(trig_poly_population):
    failures = sum(
        1 for values, m in trig_poly_population
        if ov.verify_sturm_hurwitz(values)[1] < 2 * m
    )
    _report(
        "trig-poly sign changes",
        failures == 0,
        f"{len(trig_poly_population) - failures}/{len(trig_poly_population)} "
        f"with >= 2m changes",
    )


def test_steiner_formulas_on_ellipse():
    ellipse = ov.ellipse_oval(2.0, 1.0, n_samples=4096)
    worst = max(ov.steiner_check(ellipse, list(np.arange(-0.6, 1.01, 0.2))))
    _report(
        "steiner length/area growth",
        worst < 1e-6,
        f"max relative error {worst:.2e} (< 1e-6)",
    )


def test_defect_invariance_three_geometries(
    generic_oval, generic_sphere_curve, generic_hyperbolic_curve
):
    cases = [
        ("euclidean", generic_oval, ov.propagate, np.linspace(-0.3, 1.0, 11)),
        ("spherical", generic_sphere_curve, ov.propagate, np.linspace(-0.2, 0.4, 11)),
        ("hyperbolic", generic_hyperbolic_curve, ov.propagate, np.linspace(-0.25, 0.5, 11)),
    ]
    spreads = {}
    for geometry, curve, prop, grid in cases:
        defects = [
            ov.defect_value(geometry, front.signed_length, front.area)
            for front in (prop(curve, t) for t in grid)
        ]
        spreads[geometry] = (max(defects) - min(defects)) / max(
            abs(d) for d in defects
        )
    worst = max(spreads.values())
    _report(
        "defect invariance",
        worst < 1e-6,
        "relative spreads "
        + ", ".join(f"{g} {s:.2e}" for g, s in spreads.items())
        + " (< 1e-6)",
    )


def test_front_mean_curvature_attainment(
    generic_oval, generic_sphere_curve, generic_hyperbolic_curve
):
    # the Euclidean grid stays above t = -1/max k so every front is regular
    deviations = {
        "euclidean": ov.propagation_lemma_check(
            generic_oval, list(np.linspace(-0.1, 1.0, 11))).max_deviation,
        "spherical": ov.mean_attainment_front_check(
            generic_sphere_curve, list(np.linspace(-0.2, 0.4, 11))).max_deviation,
        "hyperbolic": ov.mean_attainment_front_check(
            generic_hyperbolic_curve, list(np.linspace(-0.25, 0.5, 11))).max_deviation,
    }
    worst = max(deviations.values())
    _report(
        "mean-curvature attainment on fronts",
        worst < 1e-6,
        "max |k_t(s*) - mean| "
        + ", ".join(f"{g} {d:.2e}" for g, d in deviations.items())
        + " (< 1e-6)",
    )


def test_vanishing_fronts_have_four_cusps(oval_population, hyperbolic_population):
    # each front at its critical time, where the signed length vanishes
    crit = [ov.propagate(c, ov.critical_time(c)) for c in oval_population]
    crit_len = max(abs(f.signed_length) for f in crit)
    crit_cusps = min(len(f.cusps) for f in crit)

    coll = [ov.propagate(c, ov.critical_time(c)) for c in hyperbolic_population]
    coll_len = max(abs(f.signed_length) for f in coll)
    coll_cusps = min(len(f.cusps) for f in coll)

    ok = (crit_len < 1e-6 and crit_cusps >= 4
          and coll_len < 1e-6 and coll_cusps >= 4)
    _report(
        "critical/collapse fronts",
        ok,
        f"euclidean max |length| {crit_len:.2e}, min cusps {crit_cusps}; "
        f"hyperbolic max |length| {coll_len:.2e}, min cusps {coll_cusps}",
    )


def test_equatorial_fronts_on_sphere_population(sphere_population):
    gaps, inflections, not_embedded = [], [], 0
    for curve in sphere_population:
        t, gap, count = ov.equatorial_front(curve)
        gaps.append(gap)
        inflections.append(count)
        if not ov.check_regular_embedded(curve, t)[2]:
            not_embedded += 1
    ok = max(gaps) < 1e-6 and min(inflections) >= 4 and not_embedded == 0
    _report(
        "equatorial fronts",
        ok,
        f"max |area - 2pi| {max(gaps):.2e} (< 1e-6), "
        f"min inflections {min(inflections)}, {not_embedded} embedding failures",
    )


def test_tennis_ball_and_total_torsion(torsion_population):
    seam_inflections = ov.tennis_ball_check(ov.tennis_seam(0.25, n_samples=1024))
    integrals, changes = [], []
    for curve in torsion_population:
        integral, sign_changes = ov.total_torsion(curve)
        assert sign_changes is not None
        integrals.append(abs(integral))
        changes.append(sign_changes)
    ok = (seam_inflections == 4 and max(integrals) < 1e-6
          and min(changes) >= 4)
    _report(
        "tennis ball and torsion",
        ok,
        f"seam inflections {seam_inflections} (== 4), "
        f"max |torsion integral| {max(integrals):.2e} (< 1e-6), "
        f"min sign changes {min(changes)}",
    )


def test_rounded_semicircle_counterexample():
    r_star = ov.counterexample_threshold()
    _, verdict = ov.counterexample_verdict(ov.RoundedSemicircleSpec(r=2.0))
    ok = (
        abs(r_star - 1.386) < 1e-3
        and verdict["attainment_count"] == 2
        and verdict["convex"]
        and not verdict["horocyclically_convex"]
        and verdict["counterexample"]
    )
    _report(
        "two-attainment counterexample",
        ok,
        f"threshold {r_star:.6f} (1.386 +/- 1e-3), "
        f"attainment count {verdict['attainment_count']} (== 2), "
        f"convex {verdict['convex']}, horocyclically convex "
        f"{verdict['horocyclically_convex']}",
    )


def test_residuals_converge_under_grid_refinement():
    support = lambda a: (
        1.0 + 0.3 * np.cos(a) + 0.05 * np.cos(2 * a) + 0.02 * np.sin(3 * a)
    )

    def sphere_points(n):
        phi = np.arange(n) * (2.0 * np.pi / n)
        r = 0.8 + 0.05 * np.cos(3 * phi) + 0.03 * np.sin(2 * phi)
        return np.stack(
            [np.sin(r) * np.cos(phi), np.sin(r) * np.sin(phi), np.cos(r)], axis=1
        )

    def hyperboloid_points(n):
        phi = np.arange(n) * (2.0 * np.pi / n)
        r = 1.1 + 0.04 * np.cos(2 * phi) + 0.02 * np.sin(3 * phi)
        return np.stack(
            [np.cosh(r), np.sinh(r) * np.cos(phi), np.sinh(r) * np.sin(phi)], axis=1
        )

    grids = (256, 512, 1024)
    residuals = {
        "closure": [
            float(np.linalg.norm(ov.closure_residual(
                ov.oval_from_support(support, n_samples=n))))
            for n in grids
        ],
        "gauss-bonnet sphere": [
            ov.gauss_bonnet_residual(
                ov.curve_from_points(ov.SPHERICAL, sphere_points(n), n_samples=n))
            for n in grids
        ],
        "gauss-bonnet hyperbolic": [
            ov.gauss_bonnet_residual(
                ov.curve_from_points(ov.HYPERBOLIC, hyperboloid_points(n), n_samples=n))
            for n in grids
        ],
    }
    ratios = {
        name: min(seq[i] / seq[i + 1] for i in range(len(seq) - 1))
        for name, seq in residuals.items()
    }
    worst = min(ratios.values())
    _report(
        "grid convergence",
        worst >= 4.0,
        "min halving ratios "
        + ", ".join(f"{name} {ratio:.1f}" for name, ratio in ratios.items())
        + " (need >= 4)",
    )
