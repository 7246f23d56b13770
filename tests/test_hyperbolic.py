"""Hyperboloid-model curves, fronts, collapse, and the rounded semicircle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ovalfront import hyperbolic
from ovalfront import (
    BadParametrizationError,
    CothDomainError,
    DegenerateProfileError,
    HYPERBOLIC,
    InvalidSpecError,
    NotHorocyclicallyConvexError,
    RoundedSemicircleSpec,
    build_rounded_semicircle,
    classify_curvature,
    counterexample_threshold,
    counterexample_verdict,
    critical_time,
    curvature_profile,
    curve_from_points,
    defect_value,
    gauss_bonnet_residual,
    hyperbolic_circle,
    mean_attainment_front_check,
    perturbed_hyperbolic_circle,
    propagate,
    propagate_front,
    semicircle_mean_gap,
    semicircle_reference,
)
from ovalfront.curves import unit_speed_curvature
from ovalfront.hyperbolic import HYPERBOLOID, _so21_exp, mdot

TWO_PI = 2.0 * np.pi

# coth(rho) references, fixed ahead of time
COTH_1 = 1.3130352854993313
COTH_5 = 1.0000908039820194
COTH_2 = 1.0373147207275481
# 2*pi*sinh(1.1) and 2*pi*(cosh(1.1) - 1)
CIRCLE_1_1_LENGTH = 8.3921205598558142
CIRCLE_1_1_AREA = 4.2004259549529473
# mean curvature (2 pi + A)/L of the exact sharp half-disc at r = 2
SHARP_R2_MEAN = 0.97185684724127326
# radius where the sharp half-disc mean curvature crosses coth r
THRESHOLD_R = 1.385837917355553


@pytest.fixture(scope="module")
def wavy():
    return perturbed_hyperbolic_circle(
        1.1, [(2, 0.04, 0.3), (3, 0.02, 1.0)], n_samples=1024
    )


@pytest.fixture(scope="module")
def semicircle_r2():
    return build_rounded_semicircle(RoundedSemicircleSpec(r=2.0))


# ---------------------------------------------------------------------------
# circles and measured invariants


def test_circle_curvature_is_coth_rho():
    np.testing.assert_allclose(hyperbolic_circle(1.0).k, COTH_1, atol=1e-8)
    np.testing.assert_allclose(hyperbolic_circle(5.0).k, COTH_5, atol=1e-8)


def test_circle_length_and_area():
    c = hyperbolic_circle(1.1)
    assert c.L == pytest.approx(CIRCLE_1_1_LENGTH, rel=1e-12)
    assert c.A == pytest.approx(CIRCLE_1_1_AREA, abs=1e-10)


def test_circle_is_horocyclically_convex():
    circle = hyperbolic_circle(1.0)
    assert circle.horocyclic_convex
    assert circle.min_k == pytest.approx(COTH_1, abs=1e-8)


def test_gauss_bonnet_residual(wavy):
    assert wavy.gb_residual < 1e-8
    assert gauss_bonnet_residual(wavy) == pytest.approx(wavy.gb_residual, abs=1e-12)


def test_area_green_matches_stored(wavy):
    area = HYPERBOLOID.green_area(wavy.points, wavy.anchor, wavy.L / wavy.n_samples)
    assert area == pytest.approx(wavy.A, abs=1e-12)


def test_classify_curvature_tags():
    tags = classify_curvature(np.array([1.5, 1.0, 0.5, 1.0 + 1e-9]))
    assert tags.tolist() == [1, 0, -1, 0]


def test_speed_check_rejects_angle_grid():
    n = 256
    u = np.linspace(0.0, TWO_PI, n, endpoint=False)
    u = u + 0.05 * np.sin(u)
    rho = 0.9
    pts = np.column_stack(
        [np.full(n, np.cosh(rho)), np.sinh(rho) * np.cos(u), np.sinh(rho) * np.sin(u)]
    )
    with pytest.raises(BadParametrizationError):
        unit_speed_curvature(pts, TWO_PI * np.sinh(rho) / n, HYPERBOLOID)


# ---------------------------------------------------------------------------
# propagation


def test_front_of_circle_is_shifted_circle():
    f = propagate(hyperbolic_circle(0.8), 0.3)
    np.testing.assert_allclose(f.points[:, 0], np.cosh(1.1), atol=1e-9)
    assert f.signed_length == pytest.approx(TWO_PI * np.sinh(1.1), abs=1e-8)
    assert f.area == pytest.approx(TWO_PI * (np.cosh(1.1) - 1.0), abs=1e-8)
    assert f.cusps.size == 0


def test_inward_front_of_circle():
    f = propagate(hyperbolic_circle(0.8), -0.3)
    np.testing.assert_allclose(f.points[:, 0], np.cosh(0.5), atol=1e-9)
    assert f.signed_length == pytest.approx(TWO_PI * np.sinh(0.5), abs=1e-8)


def test_length_area_growth_identities(wavy):
    for t in (-0.25, 0.2, 0.5):
        f = propagate(wavy, t)
        want_len = wavy.L * np.cosh(t) + (TWO_PI + wavy.A) * np.sinh(t)
        want_area = (TWO_PI + wavy.A) * np.cosh(t) + wavy.L * np.sinh(t) - TWO_PI
        assert f.signed_length == pytest.approx(want_len, abs=1e-7)
        assert f.area == pytest.approx(want_area, abs=1e-7)


def test_front_defect_is_invariant(wavy):
    base = defect_value(HYPERBOLIC, wavy.L, wavy.A)
    for t in (-0.2, 0.35):
        f = propagate(wavy, t)
        assert defect_value(HYPERBOLIC, f.signed_length, f.area) == pytest.approx(
            base, rel=1e-6
        )


def test_propagation_semigroup():
    c = hyperbolic_circle(0.7)
    two_step = propagate(propagate(c, 0.2), 0.3)
    direct = propagate(c, 0.5)
    np.testing.assert_allclose(two_step.points, direct.points, atol=1e-8)
    assert two_step.signed_length == pytest.approx(direct.signed_length, abs=1e-8)


def test_mean_attainment_under_propagation(wavy):
    report = mean_attainment_front_check(wavy, [-0.1, 0.1, 0.3])
    assert not report.skipped.any()
    assert report.max_deviation < 1e-8


# ---------------------------------------------------------------------------
# collapse


def test_circle_collapse_is_degenerate():
    circle = hyperbolic_circle(0.9)
    t = critical_time(circle)
    assert t == pytest.approx(-0.9, abs=1e-10)
    assert abs(propagate(circle, t).signed_length) < 1e-8
    with pytest.raises(DegenerateProfileError):
        curvature_profile(circle)


@pytest.mark.parametrize("n", [4096, 8192])
def test_circle_collapse_on_fine_grids_has_no_cusps(n):
    # at the collapse time cosh t + k sinh t is roundoff whose sampled sign
    # flips; the constant curvature function confirms no cusp between them
    circle = hyperbolic_circle(0.8, n_samples=n)
    front = propagate(circle, critical_time(circle))
    assert front.cusps.size == 0
    assert abs(front.signed_length) < 1e-8


def test_collapse_cusps_at_mean_attainment(wavy):
    front = propagate(wavy, critical_time(wavy))
    assert len(front.cusps) >= 4
    assert abs(front.signed_length) < 1e-7
    # front cusps solve cosh t + k sinh t = 0, i.e. k = -coth t = mean
    np.testing.assert_allclose(
        front.cusps, curvature_profile(wavy).crossing_params, atol=1e-9
    )


def test_collapse_requires_horocyclic_convexity(semicircle_r2):
    # at r = 2 the mean curvature sits below 1: there is no collapse time
    with pytest.raises(CothDomainError):
        critical_time(semicircle_r2)


def test_forced_collapse_below_threshold_radius():
    # below the threshold radius there is a collapse time, but it lies past
    # the first cusp onset; only the unguarded front reaches it
    curve = build_rounded_semicircle(RoundedSemicircleSpec(r=0.5, n_samples=1024))
    t = critical_time(curve)
    with pytest.raises(NotHorocyclicallyConvexError):
        propagate(curve, t)
    assert propagate_front(curve, t).cusps.size == 4


def test_backward_propagation_gating(semicircle_r2):
    with pytest.raises(NotHorocyclicallyConvexError):
        propagate(semicircle_r2, -0.2)
    assert propagate_front(semicircle_r2, -0.2).cusps.size >= 4
    # forward motion of a convex curve is always regular
    assert propagate(semicircle_r2, 0.3).cusps.size == 0


# ---------------------------------------------------------------------------
# rounded semicircle


def test_semicircle_build_quality(semicircle_r2):
    assert semicircle_r2.build_residual < 1e-10
    assert semicircle_r2.gb_residual < 1e-10
    assert semicircle_r2.min_k == pytest.approx(0.05, abs=1e-12)
    assert semicircle_r2.min_k > 0.0  # convex ...
    assert not semicircle_r2.horocyclic_convex  # ... but not horocyclically
    present = set(semicircle_r2.curvature_class.tolist())
    assert {-1, 1} <= present  # flat side vs circular arc


# (r, L, A) of the rounded semicircle at n = 4096 from an independent
# DOP853 integration (rtol 1e-13) of the frame equations
DOP853_SEMICIRCLES = [
    (0.9, 5.006093782050853, 1.3754721229703726),
    (1.6, 10.412591031382135, 4.806662815789616),
    (2.0, 14.763393709929936, 8.191327430459252),
]


@pytest.mark.parametrize("r, length, area", DOP853_SEMICIRCLES)
def test_semicircle_matches_dop853_reference(r, length, area, semicircle_r2):
    curve = semicircle_r2 if r == 2.0 else build_rounded_semicircle(RoundedSemicircleSpec(r=r))
    assert curve.L == pytest.approx(length, abs=1e-9)
    assert curve.A == pytest.approx(area, abs=1e-9)


# radii where a generic shooting's cost jumped, spanning both sides of r*
@pytest.mark.parametrize("r", [0.8, 1.2, 2.25, 2.26, 2.5])
def test_semicircle_closes_on_the_hyperboloid(r):
    curve = build_rounded_semicircle(RoundedSemicircleSpec(r=r))
    assert curve.build_residual < 1e-10
    assert curve.gb_residual < 1e-10
    # the sampled frame is used as integrated, with no projection
    x, tvec = curve.points, curve.tangent
    assert np.max(np.abs(mdot(x, x) + 1.0)) <= 1e-10
    assert np.max(np.abs(mdot(tvec, tvec) - 1.0)) <= 1e-10
    assert np.max(np.abs(mdot(x, tvec))) <= 1e-10


# distinct shots per solve; hybr makes 7 and 8 residual calls, the first
# two both at the guess
SEMICIRCLE_SHOTS = {0.9: 6, 2.0: 7}


@pytest.mark.parametrize("r", sorted(SEMICIRCLE_SHOTS))
def test_semicircle_gates_on_the_solvers_own_residual(r, monkeypatch):
    # the closure gate reads hybr's info["fvec"]: after the solve, only the
    # final build integrates the frame; during it, each distinct vector
    # hybr passes is integrated once
    calls = []
    solves = []
    integrate = hyperbolic._integrate_profile
    solve = hyperbolic.root

    def counted_integrate(*args):
        calls.append(1)
        return integrate(*args)

    def counted_root(fun, *args):
        vectors = []

        def recorded(v):
            vectors.append(v.tobytes())
            return fun(v)

        solved = solve(recorded, *args)
        solves.append((solved, len(calls), len(vectors), len(set(vectors))))
        return solved

    monkeypatch.setattr(hyperbolic, "_integrate_profile", counted_integrate)
    monkeypatch.setattr(hyperbolic, "root", counted_root)
    curve = build_rounded_semicircle(RoundedSemicircleSpec(r=r, n_samples=256))
    [(solved, during_solve, residual_calls, distinct)] = solves
    assert during_solve == distinct == SEMICIRCLE_SHOTS[r]
    assert distinct < residual_calls
    assert len(calls) == during_solve + 1
    assert float(np.linalg.norm(solved[1]["fvec"])) <= 5e-10
    assert curve.build_residual < 1e-10


def _reference_integrate(knots, values):
    """The frame loop with one allocated product per step, kept as the reference."""
    counts = np.where(
        values[1:] != values[:-1], hyperbolic._parts(knots, values, hyperbolic.MAGNUS_STEP), 1
    )
    nodes, h, k_nodes, slopes = hyperbolic._subdivide(knots, values, counts)
    x0, t0 = hyperbolic._START_STATE[0:3], hyperbolic._START_STATE[3:6]
    frames = np.empty((len(nodes) + 1, 3, 3))
    frames[0] = x0, t0, hyperbolic.mcross(t0, x0)
    for j, step in enumerate(hyperbolic._propagators(h, k_nodes, slopes)):
        frames[j + 1] = step @ frames[j]

    def frames_at(s):
        j = np.clip(np.searchsorted(nodes, s, side="right") - 1, 0, len(nodes) - 1)
        return hyperbolic._propagators(s - nodes[j], k_nodes[j], slopes[j]) @ frames[j]

    return frames[-1, 0:2].ravel(), frames_at


# no golden covers these radii
@pytest.mark.parametrize("r", [0.9, 1.6])
def test_integrate_profile_matches_the_reference_loop(r):
    c, eps = 0.02, 0.05
    lengths = max(r - c, 0.1), 0.5 * np.pi * np.sinh(r) - c
    knots, values = hyperbolic._half_profile(r, c, eps, *lengths)
    y_end, frames_at = hyperbolic._integrate_profile(knots, values)
    ref_end, ref_at = _reference_integrate(knots, values)
    s = np.linspace(0.0, knots[-1], 1001)
    assert y_end.tobytes() == ref_end.tobytes()
    assert frames_at(s).tobytes() == ref_at(s).tobytes()


def test_semicircle_builds_without_numpy2_api(monkeypatch):
    # numpy >= 1.24 is supported; np.trapezoid only exists from numpy 2.0
    monkeypatch.delattr(np, "trapezoid", raising=False)
    curve = build_rounded_semicircle(RoundedSemicircleSpec(r=2.0, n_samples=256))
    assert curve.gb_residual < 1e-9


def test_semicircle_near_sharp_reference(semicircle_r2):
    sharp_len, sharp_area, sharp_mean = semicircle_reference(2.0)
    assert sharp_mean == pytest.approx(SHARP_R2_MEAN, abs=1e-12)
    # smoothing trims the corners: a few percent off the sharp half-disc
    assert semicircle_r2.L == pytest.approx(sharp_len, rel=0.08)
    assert semicircle_r2.A == pytest.approx(sharp_area, rel=0.08)
    kbar = (TWO_PI + semicircle_r2.A) / semicircle_r2.L
    assert kbar == pytest.approx(sharp_mean, abs=0.02)
    assert kbar < COTH_2


def test_counterexample_verdict_at_r2(semicircle_r2):
    report = counterexample_verdict(RoundedSemicircleSpec(r=2.0))
    assert report.coth_r == pytest.approx(COTH_2, abs=1e-12)
    assert report.mean_below_coth
    assert report.convex
    assert not report.horocyclically_convex
    assert report.attainment_count == 2
    assert report.counterexample
    # one attainment on each corner ramp, mirror images of each other
    p1, p2 = np.sort(report.attainment_params)
    assert p1 + p2 == pytest.approx(report.curve.L, abs=1e-6)


def test_no_counterexample_below_threshold():
    report = counterexample_verdict(RoundedSemicircleSpec(r=0.5, n_samples=1024))
    assert not report.mean_below_coth
    assert report.attainment_count >= 4
    assert not report.counterexample


def test_threshold_radius():
    report = counterexample_threshold()
    assert report.r_star == pytest.approx(THRESHOLD_R, abs=1e-9)
    assert report.sign_changes == 1
    assert semicircle_mean_gap(0.5) < 0.0 < semicircle_mean_gap(2.0)


def test_threshold_scan_matches_scalar_gaps():
    rs = np.linspace(0.05, 5.0, 4096)
    scalar = np.array([semicircle_mean_gap(r) for r in rs])
    np.testing.assert_allclose(semicircle_mean_gap(rs), scalar, rtol=1e-14, atol=1e-15)


def test_so21_exponential_matches_expm():
    from scipy.linalg import expm

    # lam = a^2 - b^2 + c^2 positive, negative, tiny, and exactly zero
    a = np.array([0.3, 0.01, 1e-6, 0.2, 2.0])
    b = np.array([0.1, 0.8, 2e-6, 0.2, 1.0])
    c = np.array([0.05, -0.02, 1e-6, 0.0, -0.5])
    exps = _so21_exp(a, b, c)
    for i in range(len(a)):
        omega = [[0.0, a[i], -c[i]], [a[i], 0.0, -b[i]], [-c[i], b[i], 0.0]]
        np.testing.assert_allclose(exps[i], expm(np.array(omega)), rtol=0, atol=1e-14)


def test_gauss_legendre_literals_are_leggauss_bit_for_bit():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(8)
    assert np.array_equal(hyperbolic._GL_NODES.view(np.int64), nodes.view(np.int64))
    assert np.array_equal(hyperbolic._GL_WEIGHTS.view(np.int64), weights.view(np.int64))


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        hyperbolic_circle(0.0)
    with pytest.raises(InvalidSpecError):
        RoundedSemicircleSpec(r=-1.0)
    with pytest.raises(InvalidSpecError):
        RoundedSemicircleSpec(r=2.0, corner_scale=0.0)
    with pytest.raises(InvalidSpecError):
        RoundedSemicircleSpec(r=2.0, flat_deviation=1.5)
    with pytest.raises(InvalidSpecError):
        RoundedSemicircleSpec(r=2.0, n_samples=8)
    with pytest.raises(InvalidSpecError):
        build_rounded_semicircle(RoundedSemicircleSpec(r=2.0, corner_scale=1.0))


# ---------------------------------------------------------------------------
# point-loop ingestion


def test_from_points_round_trip(wavy):
    rebuilt = curve_from_points(HYPERBOLIC, wavy.points[::2], n_samples=512)
    assert rebuilt.L == pytest.approx(wavy.L, rel=1e-6)
    assert rebuilt.A == pytest.approx(wavy.A, abs=1e-5)


def test_from_points_rejects_off_hyperboloid():
    src = hyperbolic_circle(0.7, n_samples=256)
    with pytest.raises(BadParametrizationError):
        curve_from_points(HYPERBOLIC, 1.01 * src.points)


# ---------------------------------------------------------------------------
# properties


@given(rho=st.floats(min_value=0.3, max_value=3.0))
@settings(max_examples=20, deadline=None)
def test_circles_have_zero_defect(rho):
    c = hyperbolic_circle(rho, n_samples=256)
    assert abs(defect_value(HYPERBOLIC, c.L, c.A)) < 1e-7


@given(
    rho=st.floats(min_value=0.5, max_value=1.5),
    amp=st.floats(min_value=0.0, max_value=0.06),
    order=st.integers(min_value=2, max_value=5),
    phase=st.floats(min_value=0.0, max_value=TWO_PI),
)
# a unit-speed curve whose fourth-order speed error at n = 512 (2.1e-6) once
# tripped the 1e-6 speed gate
@example(rho=0.5, amp=0.0546875, order=5, phase=0.0)
@settings(max_examples=20, deadline=None)
def test_isoperimetric_defect_nonnegative(rho, amp, order, phase):
    c = perturbed_hyperbolic_circle(rho, [(order, amp, phase)], n_samples=512)
    assert defect_value(HYPERBOLIC, c.L, c.A) > -1e-8
