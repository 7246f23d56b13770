"""Wavefronts: the one guarded propagate; plane Steiner growth, cusps, critical front."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovalfront import (
    SupportOval,
    build_oval,
    critical_time,
    curvature_profile,
    ellipse_oval,
    perturbed_hyperbolic_circle,
    perturbed_sphere_circle,
    propagate,
    propagate_front,
    propagation_lemma_check,
    steiner_check,
    unit_circle,
)
from ovalfront.curves import space_form

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
    max_rel_length, max_rel_area = steiner_check(e, ts)
    assert max_rel_length < 1e-9
    assert max_rel_area < 1e-9


def test_front_develops_cusps_past_min_radius(wavy_oval):
    rmin = float((1.0 / wavy_oval.k).min())
    f = propagate(wavy_oval, -(rmin + 0.05))
    assert len(f.cusps) >= 2
    assert np.any(f.regularity == -1)
    f_safe = propagate(wavy_oval, -(rmin - 0.05))
    assert len(f_safe.cusps) == 0


CURVES = {
    "plane": lambda: ellipse_oval(2.0, 1.0, n_samples=256),
    "sphere": lambda: perturbed_sphere_circle(0.7, [(3, 0.04, 0.4)], n_samples=256),
    "hyperboloid": lambda: perturbed_hyperbolic_circle(0.8, [(3, 0.03, 0.4)], n_samples=256),
}


@pytest.mark.parametrize("name", CURVES)
def test_propagate_is_the_unguarded_front_where_it_accepts(name):
    # a curve of each K, and in the curved geometries a front of a front:
    # the guard changes no float
    curve = CURVES[name]()
    bases = [curve] if name == "plane" else [curve, propagate_front(curve, 0.1)]
    for base in bases:
        for t in (-0.2, 0.3):
            guarded, plain = propagate(base, t), propagate_front(base, t)
            assert np.array_equal(guarded.points, plain.points)
            assert np.array_equal(guarded.factor, plain.factor)
            assert guarded.signed_length == plain.signed_length


@pytest.mark.parametrize("name", CURVES)
def test_propagate_never_refuses_without_a_cusp_onset(name):
    # K >= 0, and a horocyclically convex curve when K = -1
    curve = CURVES[name]()
    assert space_form(curve.geometry).cusp_onset(curve.k) == -np.inf
    assert propagate(curve, -40.0).signed_length == propagate_front(curve, -40.0).signed_length


def test_plane_checks_refuse_curved_curves():
    # the Steiner polynomials and k/(1 + t k) are the plane's closed forms;
    # the curved lemma is mean_attainment_front_check
    for curve in (perturbed_sphere_circle(0.9, [(3, 0.05, 0.0)], n_samples=512),
                  perturbed_hyperbolic_circle(0.8, [(3, 0.03, 0.4)], n_samples=512)):
        with pytest.raises(ValueError, match="Euclidean"):
            steiner_check(curve, [0.0, 0.1, 0.2])
        with pytest.raises(ValueError, match="Euclidean"):
            propagation_lemma_check(curve, [0.0, 0.1, 0.2])


def test_critical_front_length_vanishes(wavy_oval):
    t_star = critical_time(wavy_oval)
    assert t_star == pytest.approx(-wavy_oval.L / TWO_PI, rel=1e-12)
    front = propagate(wavy_oval, t_star)
    assert abs(front.signed_length) < 1e-9
    assert len(front.cusps) >= 4
    # cusps of the critical front = attainment parameters of the mean
    np.testing.assert_allclose(
        front.cusps, curvature_profile(wavy_oval).crossing_params, atol=1e-6
    )


def test_critical_front_of_ellipse_matches_elliptic_integral():
    e = ellipse_oval(2.0, 1.0, n_samples=1024)
    t_star = critical_time(e)
    assert t_star == pytest.approx(-ELLIPSE_2_1_PERIMETER / TWO_PI, rel=1e-10)
    assert len(propagate(e, t_star).cusps) == 4


def test_lemma_mean_points_stay_mean_points(wavy_oval):
    rep = propagation_lemma_check(wavy_oval, np.linspace(-0.4, 1.0, 11))
    assert rep.max_deviation < 1e-8
    assert not rep.skipped.all()


def test_lemma_skips_near_critical_times(wavy_oval):
    t_star = -wavy_oval.L / TWO_PI
    rep = propagation_lemma_check(wavy_oval, [t_star + 1e-4])
    assert rep.skipped.all()


@given(t=st.floats(min_value=-0.3, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_front_length_linear_in_t_property(t):
    """Signed front length of a convex oval is L + 2 pi t for every t."""
    e = ellipse_oval(1.6, 1.0, n_samples=256)
    f = propagate(e, t)
    assert f.signed_length == pytest.approx(e.L + TWO_PI * t, rel=1e-8, abs=1e-8)
