"""Curve containers, profiles, crossing counts, resampling utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovalfront import (
    CurvatureProfile,
    BadParametrizationError,
    DegenerateProfileError,
    SampledCurve,
    count_mean_crossings,
    curvature_profile,
    ellipse_oval,
    hyperbolic_circle,
    sphere_circle,
    total_torsion,
    unit_circle,
)
from ovalfront.curves import (
    PLANE,
    SPEED_TOL,
    _bracketed_roots,
    _column_deriv,
    arclength_resample,
    average_curvature,
    closed_spline_through,
    defect_value,
    fft_deriv,
    fourier_antiderivative,
    parametric_area,
    periodic_interpolant,
    radius_profile,
    space_form,
    unit_speed_curvature,
)

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# profiles and crossings


def test_curvature_profile_of_circle_is_degenerate():
    c = unit_circle(128)
    with pytest.raises(DegenerateProfileError):
        curvature_profile(c)


def test_ellipse_has_exactly_four_mean_crossings():
    e = ellipse_oval(2.0, 1.0, n_samples=1024)
    rep = count_mean_crossings(radius_profile(e))
    assert rep.count == 4
    assert len(rep.touches) == 0
    # vertices of the ellipse sit between consecutive crossings
    assert np.all(np.diff(rep.crossings) > 0)


def test_crossing_positions_are_refined_to_root_accuracy():
    e = ellipse_oval(2.0, 1.0, n_samples=1024)
    prof = radius_profile(e)
    rep = count_mean_crossings(prof)
    # R(a) = 4/h^3, mean = L/2pi; check |R - mean| tiny at reported roots
    h = np.sqrt(4 * np.cos(rep.crossings) ** 2 + np.sin(rep.crossings) ** 2)
    np.testing.assert_allclose(4.0 / h**3, prof.mean, atol=1e-9)


def test_count_mean_crossings_reports_touches_separately():
    x = np.linspace(0, TWO_PI, 1024, endpoint=False)
    # grazes its mean (0) at the minimum of 1 - cos: tangential, not a crossing
    values = 1.0 - np.cos(x) - 0.0
    prof = CurvatureProfile(values=values - 1.0, mean=0.0, param=x, period=TWO_PI)
    rep = count_mean_crossings(prof)
    assert rep.count == 2  # 1 - cos(x) - 1 = -cos(x): two transversal roots
    values2 = np.cos(x) ** 2  # touches 0 twice, never negative
    prof2 = CurvatureProfile(values=values2, mean=0.0, param=x, period=TWO_PI)
    rep2 = count_mean_crossings(prof2)
    assert rep2.count == 0
    assert len(rep2.touches) == 2


def test_bracketed_roots_leave_out_brackets_without_a_sign_change():
    # the sampled signs flip in both brackets, but g changes sign only in
    # the first; the second wraps past the end of the grid
    x = np.array([0.5, 2.0, 3.5, 4.5])
    samples = np.cos(x)
    assert samples[0] * samples[1] < 0 and samples[3] * samples[0] < 0
    roots = _bracketed_roots(lambda s: np.cos(s) if s < 4.0 else 1.0, [(0, 1), (3, 0)], x, TWO_PI)
    np.testing.assert_allclose(roots, [np.pi / 2], atol=1e-12)


def test_average_curvature_is_2pi_over_length():
    e = ellipse_oval(1.7, 1.1, n_samples=512)
    assert average_curvature(e) == pytest.approx(TWO_PI / e.L, rel=1e-10)


# ---------------------------------------------------------------------------
# defect helper


def test_defect_value_conventions():
    # euclidean: L^2 - 4 pi A; circle gives zero
    assert defect_value("euclidean", TWO_PI, np.pi) == pytest.approx(0.0, abs=1e-12)
    # spherical: L^2 - A(4 pi - A); the equator L=2pi, A=2pi gives zero
    assert defect_value("spherical", TWO_PI, TWO_PI) == pytest.approx(0.0, abs=1e-12)
    # hyperbolic: L^2 - A(4 pi + A); circle rho: closed form is zero
    rho = 0.9
    L = TWO_PI * np.sinh(rho)
    A = TWO_PI * (np.cosh(rho) - 1.0)
    assert defect_value("hyperbolic", L, A) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# spectral helpers


def test_fft_deriv_exact_for_band_limited_input():
    x = np.linspace(0, TWO_PI, 64, endpoint=False)
    v = np.sin(2 * x) - 0.3 * np.cos(5 * x)
    want = 2 * np.cos(2 * x) + 1.5 * np.sin(5 * x)
    np.testing.assert_allclose(fft_deriv(v), want, atol=1e-12)


def test_fourier_antiderivative_inverts_fft_deriv():
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=6)
    x = np.linspace(0, TWO_PI, 128, endpoint=False)
    v = sum(c * np.sin((i + 1) * x) for i, c in enumerate(coeffs))
    np.testing.assert_allclose(fourier_antiderivative(fft_deriv(v)), v, atol=1e-10)


def test_parametric_area_of_ellipse():
    x = np.linspace(0, TWO_PI, 256, endpoint=False)
    pts = np.column_stack([2.0 * np.cos(x), 1.0 * np.sin(x)])
    assert parametric_area(pts, TWO_PI) == pytest.approx(TWO_PI, rel=1e-10)


# ---------------------------------------------------------------------------
# resampling


def test_arclength_resample_equalizes_speed():
    def point_fn(u):
        u = np.atleast_1d(u)
        return np.column_stack([2.0 * np.cos(u), np.sin(u)])

    def speed_fn(u):
        u = np.atleast_1d(u)
        return np.sqrt(4.0 * np.sin(u) ** 2 + np.cos(u) ** 2)

    pts, s, total, params = arclength_resample(point_fn, 512, speed_fn)
    assert total == pytest.approx(9.688448220547676, rel=1e-9)
    from ovalfront._kernels import periodic_deriv

    spacing = total / len(pts)
    d1 = np.column_stack(
        [periodic_deriv(pts[:, j], 1, spacing) for j in range(2)]
    )
    speed = np.linalg.norm(d1, axis=1)
    # unit speed in the resampled parameter, up to stencil truncation
    np.testing.assert_allclose(speed, 1.0, atol=2e-6)


def test_closed_spline_through_is_periodic():
    u = np.linspace(0, TWO_PI, 48, endpoint=False)
    loop = np.column_stack([np.cos(u), np.sin(u)]) * (1.0 + 0.1 * np.cos(3 * u))[:, None]
    point_fn, speed_fn = closed_spline_through(loop)
    np.testing.assert_allclose(point_fn(0.0), point_fn(TWO_PI), atol=1e-12)
    assert float(speed_fn(1.3)) > 0.0


def test_periodic_interpolant_wraps():
    x = np.linspace(0, TWO_PI, 32, endpoint=False)
    fn = periodic_interpolant(x, np.sin(x), TWO_PI)
    assert float(fn(0.5)) == pytest.approx(float(fn(0.5 + TWO_PI)), abs=1e-12)
    assert float(fn(-0.7)) == pytest.approx(float(fn(TWO_PI - 0.7)), abs=1e-12)


# ---------------------------------------------------------------------------
# container invariants


def test_sampled_curve_period_prefers_param_span():
    e = ellipse_oval(2.0, 1.0, n_samples=128)
    assert e.period == pytest.approx(TWO_PI)


@given(
    a=st.floats(min_value=0.6, max_value=2.5),
    b=st.floats(min_value=0.6, max_value=2.5),
)
@settings(max_examples=40, deadline=None)
def test_ellipse_scaling_properties(a, b):
    """Area scales like a*b and total turning is always 2 pi."""
    e = ellipse_oval(a, b, n_samples=256)
    assert e.A == pytest.approx(np.pi * a * b, rel=1e-9)
    total_turn = float(np.sum(e.k * e.w))
    assert total_turn == pytest.approx(TWO_PI, rel=1e-9)


# ---------------------------------------------------------------------------
# unit-speed gate


@pytest.mark.parametrize(
    "build, k_exact",
    [(sphere_circle, 1.0 / np.tan(0.8)), (hyperbolic_circle, 1.0 / np.tanh(0.8))],
)
def test_curved_gate_bounds_curvature_error_on_coarse_grids(build, k_exact):
    # at n = 32 the stencil speed is off by ~5e-5 but the grid is unit-speed
    curve = build(0.8, n_samples=32)
    d1 = _column_deriv(curve.points, 1, curve.L / curve.n_samples)
    stencil_err = float(np.max(np.abs(space_form(curve.geometry).norm(d1) - 1.0)))
    assert stencil_err > 10 * SPEED_TOL
    # the curvature carries the stencil's error: 5/3 of its speed error
    assert np.max(np.abs(curve.k / k_exact - 1.0)) <= 2.0 * stencil_err


def test_plane_and_torsion_gates_use_the_stencil_speed():
    n = 32
    u = np.arange(n) * (TWO_PI / n)
    circle = np.column_stack([np.cos(u), np.sin(u)])  # spectrally exact speed
    with pytest.raises(BadParametrizationError):
        unit_speed_curvature(circle, TWO_PI / n, PLANE)
    with pytest.raises(BadParametrizationError):
        total_torsion(sphere_circle(0.8, n_samples=n))
