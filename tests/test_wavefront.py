"""Plane wavefronts: Steiner growth, cusps, critical front, containment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovalfront import (
    AtCuspError,
    DegenerateProfileError,
    NotContainedError,
    SupportOval,
    build_oval,
    critical_front,
    ellipse_oval,
    hyperbolic_circle,
    enclosure_inequality_check,
    front_curvature,
    isoperimetric_defect,
    propagate,
    propagation_lemma_check,
    sphere_circle,
    steiner_check,
    tangent_winding,
    unit_circle,
)

TWO_PI = 2.0 * np.pi

# perimeter of the 2x1 ellipse (Legendre elliptic integral)
ELLIPSE_2_1_PERIMETER = 9.688448220547676


@pytest.fixture(scope="module")
def wavy_oval():
    return build_oval(
        SupportOval(
            coeffs=((1.0, 0.0), (0.0, 0.0), (0.06, 0.02), (0.03, -0.04), (0.0, 0.015)),
            n_samples=1024,
        )
    )


def test_circle_fronts_are_circles():
    c = unit_circle(256)
    f = propagate(c, 0.5)
    np.testing.assert_allclose(np.linalg.norm(f.points, axis=1), 1.5, atol=1e-12)
    assert f.signed_length == pytest.approx(TWO_PI * 1.5, rel=1e-12)
    assert f.area == pytest.approx(np.pi * 2.25, rel=1e-12)
    assert len(f.cusps) == 0
    assert np.all(f.regularity == 1)


def test_inward_circle_front_past_center_flips_orientation():
    c = unit_circle(256)
    f = propagate(c, -1.5)
    # radius |1 - 1.5| = 0.5 but traversed with reversed orientation
    assert f.signed_length == pytest.approx(-TWO_PI * 0.5, rel=1e-10)
    assert np.all(f.regularity == -1)


def test_steiner_polynomials_on_ellipse():
    e = ellipse_oval(2.0, 1.0, n_samples=2048)
    ts = np.arange(-0.6, 1.01, 0.2)
    rep = steiner_check(e, ts)
    assert rep.passed
    assert rep.max_rel_length < 1e-9
    assert rep.max_rel_area < 1e-9
    # dL/dt = 2 pi and dA/dt = L_t over the t grid
    assert rep.max_dlength_err < 1e-6
    assert rep.max_darea_err < 1e-2  # second-order FD on a parabola varies


def test_front_develops_cusps_past_min_radius(wavy_oval):
    rmin = float((1.0 / wavy_oval.k).min())
    f = propagate(wavy_oval, -(rmin + 0.05))
    assert len(f.cusps) >= 2
    assert np.any(f.regularity == -1)
    f_safe = propagate(wavy_oval, -(rmin - 0.05))
    assert len(f_safe.cusps) == 0


def test_front_curvature_shifts_radius():
    e = ellipse_oval(2.0, 1.0, n_samples=512)
    f = propagate(e, 0.7)
    # R_t = R + t pointwise
    for idx in (0, 100, 317):
        k_t = front_curvature(f, idx)
        assert 1.0 / k_t == pytest.approx(1.0 / e.k[idx] + 0.7, rel=1e-10)


def test_front_curvature_refuses_cusp_samples(wavy_oval):
    rmin = float((1.0 / wavy_oval.k).min())
    imin = int(np.argmin(1.0 / wavy_oval.k))
    f = propagate(wavy_oval, -rmin)  # cusp exactly at the minimum
    with pytest.raises(AtCuspError):
        front_curvature(f, imin)


def test_isoperimetric_defect_invariance(wavy_oval):
    d0 = isoperimetric_defect(wavy_oval)
    for t in np.linspace(-0.4, 1.0, 11):
        dt = isoperimetric_defect(wavy_oval, float(t))
        assert dt == pytest.approx(d0, rel=1e-9)


def test_plane_checks_refuse_curved_curves():
    # the Steiner polynomials and L^2 - 4 pi A are plane formulas
    with pytest.raises(ValueError):
        isoperimetric_defect(sphere_circle(0.8), 0.1)
    with pytest.raises(ValueError):
        propagate(hyperbolic_circle(0.8), 0.1)


def test_critical_front_length_vanishes(wavy_oval):
    crit = critical_front(wavy_oval)
    assert crit.t_star == pytest.approx(-wavy_oval.L / TWO_PI, rel=1e-12)
    assert abs(crit.front.signed_length) < 1e-9
    assert crit.count >= 4
    # cusps of the critical front = attainment parameters of the mean
    np.testing.assert_allclose(
        np.sort(crit.cusp_params), np.sort(crit.attainment_params), atol=1e-6
    )


def test_critical_front_of_ellipse_matches_elliptic_integral():
    e = ellipse_oval(2.0, 1.0, n_samples=1024)
    crit = critical_front(e)
    assert crit.t_star == pytest.approx(-ELLIPSE_2_1_PERIMETER / TWO_PI, rel=1e-10)
    assert crit.count == 4


def test_critical_front_rejects_circles():
    with pytest.raises(DegenerateProfileError):
        critical_front(unit_circle(256))


def test_lemma_mean_points_stay_mean_points(wavy_oval):
    rep = propagation_lemma_check(wavy_oval, np.linspace(-0.4, 1.0, 11))
    assert rep.max_deviation < 1e-8
    assert not rep.skipped.all()


def test_lemma_skips_near_critical_times(wavy_oval):
    t_star = -wavy_oval.L / TWO_PI
    rep = propagation_lemma_check(wavy_oval, [t_star + 1e-4])
    assert rep.skipped.all()


def test_enclosure_inequality():
    inner = unit_circle(256)
    outer = ellipse_oval(2.0, 1.5, n_samples=256)
    rep = enclosure_inequality_check(inner, outer)
    assert rep.passed
    assert rep.margin == pytest.approx(outer.L - TWO_PI, rel=1e-9)


def test_enclosure_raises_when_not_contained():
    inner = ellipse_oval(2.0, 1.5, n_samples=256)
    outer = unit_circle(256)
    with pytest.raises(NotContainedError):
        enclosure_inequality_check(inner, outer)


def test_enclosure_accepts_raw_point_loops():
    inner = unit_circle(128)
    u = np.linspace(0, TWO_PI, 400, endpoint=False)
    loop = np.column_stack([2.2 * np.cos(u), 1.9 * np.sin(u)])
    rep = enclosure_inequality_check(inner, loop)
    assert rep.passed


def test_tangent_winding_stays_one_for_regular_fronts(wavy_oval):
    assert tangent_winding(propagate(wavy_oval, 0.3)) == 1
    assert tangent_winding(propagate(wavy_oval, 1.5)) == 1


@given(t=st.floats(min_value=-0.3, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_front_length_linear_in_t_property(t):
    """Signed front length of a convex oval is L + 2 pi t for every t."""
    e = ellipse_oval(1.6, 1.0, n_samples=256)
    f = propagate(e, t)
    assert f.signed_length == pytest.approx(e.L + TWO_PI * t, rel=1e-8, abs=1e-8)
