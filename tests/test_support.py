"""Support-function ovals: construction, exact quantities, error paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ovalfront import (
    NonConvexError,
    SupportOval,
    build_oval,
    closure_residual,
    curve_from_points,
    ellipse_oval,
    unit_circle,
)
from ovalfront.errors import BadParametrizationError, DegenerateSamplingError
from ovalfront.support import oval_from_support

TWO_PI = 2.0 * np.pi

# frozen reference values (Legendre elliptic integral / closed forms)
ELLIPSE_2_1_PERIMETER = 9.688448220547676
ELLIPSE_2_1_AREA = TWO_PI


def test_unit_circle_has_exact_invariants():
    c = unit_circle(256)
    assert c.L == pytest.approx(TWO_PI, abs=1e-14)
    assert c.A == pytest.approx(np.pi, abs=1e-13)
    np.testing.assert_allclose(c.k, 1.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(c.points, axis=1), 1.0, atol=1e-12)


def test_ellipse_perimeter_and_area_match_elliptic_integral():
    e = ellipse_oval(2.0, 1.0, n_samples=2048)
    assert e.L == pytest.approx(ELLIPSE_2_1_PERIMETER, rel=1e-10)
    assert e.A == pytest.approx(ELLIPSE_2_1_AREA, rel=1e-12)


def test_ellipse_curvature_radius_closed_form():
    # R(t) = a^2 b^2 / h(t)^3 with h the support function
    e = ellipse_oval(2.0, 1.0, n_samples=512)
    alpha = e.param
    h = np.sqrt(4.0 * np.cos(alpha) ** 2 + np.sin(alpha) ** 2)
    np.testing.assert_allclose(1.0 / e.k, 4.0 / h**3, rtol=1e-10)
    # spot values from the closed form
    assert (1.0 / e.k)[0] == pytest.approx(0.5, abs=1e-10)


def test_build_oval_rejects_nonconvex_support():
    # h = 1 + 0.2 cos(3a) gives R = 1 - 1.6 cos(3a) < 0 near a = pi/3
    spec = SupportOval(coeffs=((1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.2, 0.0)))
    with pytest.raises(NonConvexError):
        build_oval(spec)


def test_build_oval_rejects_tiny_grids():
    with pytest.raises(DegenerateSamplingError):
        build_oval(SupportOval(coeffs=((1.0, 0.0),), n_samples=8))


def test_arclength_of_support_oval_is_2pi_a0():
    spec = SupportOval(coeffs=((1.7, 0.0), (0.0, 0.0), (0.1, -0.05), (0.0, 0.04)))
    c = build_oval(spec)
    assert c.L == pytest.approx(TWO_PI * 1.7, rel=1e-12)


def test_translation_only_changes_first_harmonic():
    # adding (dx cos + dy sin) to h translates the oval; L, A, k unchanged
    base = ((1.0, 0.0), (0.0, 0.0), (0.08, 0.0), (0.0, 0.05))
    shifted = ((1.0, 0.0), (0.3, -0.2), (0.08, 0.0), (0.0, 0.05))
    c0 = build_oval(SupportOval(coeffs=base))
    c1 = build_oval(SupportOval(coeffs=shifted))
    assert c1.L == pytest.approx(c0.L, rel=1e-12)
    assert c1.A == pytest.approx(c0.A, rel=1e-10)
    np.testing.assert_allclose(c0.k, c1.k, rtol=1e-9)
    np.testing.assert_allclose(
        c1.points - c0.points, np.tile([0.3, -0.2], (len(c0.points), 1)), atol=1e-12
    )


def test_closure_residual_machine_small_for_analytic_path():
    c = build_oval(SupportOval(coeffs=((1.0, 0.0), (0.1, 0.0), (0.05, 0.02))))
    assert np.linalg.norm(closure_residual(c)) < 1e-12


def test_closure_residual_fd_path_converges_at_order_four():
    def h(a):
        return 1.0 + 0.3 * np.cos(a) + 0.05 * np.cos(2 * a) + 0.02 * np.sin(3 * a)

    r1 = np.linalg.norm(closure_residual(oval_from_support(h, n_samples=256)))
    r2 = np.linalg.norm(closure_residual(oval_from_support(h, n_samples=512)))
    assert r1 / r2 > 8.0


def test_closure_residual_refuses_unsupported_curves():
    u = np.linspace(0, TWO_PI, 64, endpoint=False)
    loop = np.column_stack([1.2 * np.cos(u), np.sin(u)])
    resampled = curve_from_points("euclidean", loop, n_samples=256)
    with pytest.raises(ValueError):
        closure_residual(resampled)


def test_oval_from_support_matches_analytic_build():
    coeffs = ((1.0, 0.0), (0.0, 0.0), (0.07, -0.02), (0.01, 0.03))
    spec = SupportOval(coeffs=coeffs, n_samples=512)
    analytic = build_oval(spec)

    a = np.array([c for c, _ in coeffs])
    b = np.array([s for _, s in coeffs])

    def h(x):
        x = np.asarray(x, dtype=float)
        n = np.arange(len(a))
        return np.cos(np.multiply.outer(x, n)) @ a + np.sin(np.multiply.outer(x, n)) @ b

    fd = oval_from_support(h, n_samples=512)
    # stencil truncation ~1e-8 at this grid; see the convergence test above
    np.testing.assert_allclose(fd.points, analytic.points, atol=5e-8)
    np.testing.assert_allclose(fd.k, analytic.k, rtol=1e-7)


def test_euclidean_curve_from_points_round_trip():
    e = ellipse_oval(2.0, 1.0, n_samples=512)
    rebuilt = curve_from_points("euclidean", e.points, n_samples=512)
    assert rebuilt.L == pytest.approx(e.L, abs=1e-7)
    assert rebuilt.A == pytest.approx(e.A, abs=1e-7)


def test_euclidean_curve_from_points_rejects_clockwise_loops():
    e = ellipse_oval(1.5, 1.0, n_samples=256)
    with pytest.raises(BadParametrizationError):
        curve_from_points("euclidean", e.points[::-1], n_samples=256)


X = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(
    amps=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), max_size=16),
    x=st.one_of(X, hnp.arrays(float, st.integers(1, 20), elements=X)),
)
def test_radius_callback_is_the_two_series_bitwise(amps, x):
    # degree 0-16; a0 outweighs every (1 - m^2) term, so R = h + h'' > 0
    a0 = 1.0 + sum(m * m * (abs(c) + abs(s)) for m, (c, s) in enumerate(amps, start=1))
    spec = SupportOval(((a0, 0.0), *amps), n_samples=64)
    a, b = spec.cos_amps, spec.sin_amps
    # h + h'' term by term, with d^2/dx^2 cos(n x) = n^2 cos(n x + pi)
    n = np.arange(a.size, dtype=float)
    nx = np.multiply.outer(np.asarray(x, dtype=float), n)
    h = np.cos(nx) @ a + np.sin(nx) @ b
    hpp = np.cos(nx + np.pi) @ (n**2 * a) + np.sin(nx + np.pi) @ (n**2 * b)
    want = h + hpp
    assert build_oval(spec).radius_fn(x).tobytes() == want.tobytes()


@given(
    a2=st.floats(min_value=-0.05, max_value=0.05),
    b2=st.floats(min_value=-0.05, max_value=0.05),
    a3=st.floats(min_value=-0.03, max_value=0.03),
    b3=st.floats(min_value=-0.03, max_value=0.03),
)
@settings(max_examples=60, deadline=None)
def test_isoperimetric_inequality_holds(a2, b2, a3, b3):
    """L^2 >= 4 pi A for every convex oval, equality only for circles."""
    c = build_oval(
        SupportOval(coeffs=((1.0, 0.0), (0.0, 0.0), (a2, b2), (a3, b3)), n_samples=256)
    )
    assert c.L**2 - 4 * np.pi * c.A > -1e-9


@given(
    amp=st.floats(min_value=0.0, max_value=0.1),
    phase=st.floats(min_value=0.0, max_value=TWO_PI),
)
@settings(max_examples=40, deadline=None)
def test_interior_point_containment(amp, phase):
    """The Steiner point (harmonic-1 translate) stays strictly inside."""
    c = build_oval(
        SupportOval(
            coeffs=(
                (1.0, 0.0),
                (0.0, 0.0),
                (amp * np.cos(phase), amp * np.sin(phase)),
            ),
            n_samples=256,
        )
    )
    # origin is the Steiner point here; support h >= 1 - 2 amp > 0
    radii = np.linalg.norm(c.points, axis=1)
    assert radii.min() > 0.0
