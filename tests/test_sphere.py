"""Spherical curves, area oracles, equidistant fronts, seam diagnostics."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ovalfront import (
    BadParametrizationError,
    InvalidSpecError,
    NotInHemisphereError,
    SPHERICAL,
    check_regular_embedded,
    curve_from_points,
    defect_value,
    equatorial_front,
    gauss_bonnet_residual,
    mean_attainment_front_check,
    perturbed_sphere_circle,
    propagate,
    sphere_circle,
    spherical_area_fan,
    spherical_diameter,
    tennis_ball_check,
    tennis_seam,
    total_torsion,
)
from ovalfront.curves import unit_speed_curvature
from ovalfront.sphere import DIAMETER_BLOCK, SPHERE

TWO_PI = 2.0 * np.pi

# cot(rho) for the reference circles, fixed ahead of time
COT_PI_3 = 0.57735026918962576
COT_0_8 = 0.97121460065047433
# 2*pi*sin(0.8) and 2*pi*(1 - cos(0.8))
CIRCLE_0_8_LENGTH = 4.5072812503556655
CIRCLE_0_8_AREA = 1.9056479475960382


# ---------------------------------------------------------------------------
# geodesic curvature and the latitude-circle oracles


def test_circle_curvature_is_cot_rho():
    quarter = sphere_circle(np.pi / 4, n_samples=512)
    np.testing.assert_allclose(quarter.k, 1.0, atol=1e-10)
    third = sphere_circle(np.pi / 3, n_samples=512)
    np.testing.assert_allclose(third.k, COT_PI_3, atol=1e-10)


def test_circle_length_and_area():
    c = sphere_circle(0.8)
    assert c.L == pytest.approx(CIRCLE_0_8_LENGTH, rel=1e-12)
    assert c.A == pytest.approx(CIRCLE_0_8_AREA, abs=1e-10)


def test_circle_diameter_is_two_rho():
    # antipodal sample pairs exist on the even grid, so the grid max is tight
    assert sphere_circle(0.8).diameter == pytest.approx(1.6, abs=1e-6)


def brute_force_diameter(points: np.ndarray) -> float:
    """The unpruned scan that the pruned diameter must reproduce bit for bit.

    It forms the product of every pair of ``DIAMETER_BLOCK``-sample blocks,
    laid out as the pruned scan lays them out, so each dot product is rounded
    the same way on both sides; a product of other shapes (a 512-row strip
    against all samples) can round the 3-term sums differently.
    """
    pad = -len(points) % DIAMETER_BLOCK
    blocks = np.concatenate([points, np.repeat(points[-1:], pad, axis=0)])
    blocks = blocks.reshape(-1, DIAMETER_BLOCK, points.shape[1])
    lowest = min(
        float((blocks[i] @ blocks[j].T).min())
        for i in range(len(blocks))
        for j in range(i, len(blocks))
    )
    return float(np.arccos(np.clip(lowest, -1.0, 1.0)))


def random_unit_loop(rng, n: int) -> np.ndarray:
    """n random unit vectors, with norm errors up to the renormalisation threshold 1e-10."""
    points = rng.normal(size=(n, 3))
    points /= np.linalg.norm(points, axis=1)[:, None]
    return points * (1.0 + 1e-10 * rng.uniform(-1.0, 1.0, size=(n, 1)))


def seeded_loop(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return random_unit_loop(rng, int(rng.integers(1, 1501)))


@st.composite
def diameter_loops(draw):
    """Random unit-vector loops, plain circles and perturbed circles, any n >= 1.

    The loops carry norm errors up to the renormalisation threshold 1e-10.
    """
    n = draw(st.integers(min_value=1, max_value=1500))
    kind = draw(st.sampled_from(["random", "circle", "perturbed"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "random":
        return random_unit_loop(rng, n)
    phi = np.arange(n) * (TWO_PI / n) + draw(st.floats(min_value=0.0, max_value=1.0))
    theta = np.full(n, draw(st.floats(min_value=0.05, max_value=3.0)))
    if kind == "perturbed":
        for m in (2, 3, 5):
            theta += rng.uniform(0.0, 0.05) * np.cos(m * phi + rng.uniform(0.0, TWO_PI))
    return SPHERE.polar(theta, phi)


@given(points=diameter_loops())
# loops where a scan in 512-row strips rounds the smallest product differently
@example(points=seeded_loop(1334))
@example(points=seeded_loop(1609))
@example(points=seeded_loop(2499))
@settings(max_examples=150, deadline=None)
def test_pruned_diameter_equals_all_pairs_scan(points):
    assert spherical_diameter(points) == brute_force_diameter(points)


@pytest.mark.parametrize("harmonics", [[], [(2, 0.03, 0.4), (3, 0.02, 1.1)]],
                         ids=["circle", "perturbed"])
@pytest.mark.parametrize("rho", [0.8, 1.2])
def test_pruned_diameter_at_benchmark_size(rho, harmonics):
    points = perturbed_sphere_circle(rho, harmonics, n_samples=8192).points
    assert spherical_diameter(points) == brute_force_diameter(points)


@pytest.mark.parametrize("rho", [np.pi / 2, 1.6, 2.5, 3.0])
def test_fronts_of_caps_past_a_hemisphere_keep_their_area(rho):
    # the curve has no hemisphere witness, or its witness is the south pole,
    # about which a front's Green area is 4 pi below the cap's
    circle = sphere_circle(rho, n_samples=512)
    assert circle.pole is None or circle.pole[2] < 0.0
    for t in (0.0, 0.1, -0.3):
        area = propagate(circle, t).area
        assert area == pytest.approx(TWO_PI * (1.0 - np.cos(rho + t)), abs=1e-9)


def test_geodesic_curvature_rejects_nonunit_speed():
    n = 256
    u = np.linspace(0.0, TWO_PI, n, endpoint=False)
    u = u + 0.05 * np.sin(u)  # angle grid, not arclength
    rho = 0.9
    pts = np.column_stack(
        [np.sin(rho) * np.cos(u), np.sin(rho) * np.sin(u), np.full(n, np.cos(rho))]
    )
    with pytest.raises(BadParametrizationError):
        unit_speed_curvature(pts, TWO_PI * np.sin(rho) / n, SPHERE)


def test_area_oracles_agree():
    c = perturbed_sphere_circle(0.7, [(3, 0.05, 0.4), (2, 0.02, 1.1)], n_samples=1024)
    pole = np.array([0.0, 0.0, 1.0])
    green = SPHERE.green_area(c.points, pole, c.L / c.n_samples)
    fan = spherical_area_fan(c.points, pole)
    assert green == pytest.approx(fan, abs=1e-5)
    assert green == pytest.approx(c.A, abs=1e-12)


def test_gauss_bonnet_residual_small():
    c = perturbed_sphere_circle(0.7, [(3, 0.05, 0.4)], n_samples=1024)
    assert gauss_bonnet_residual(c) < 1e-8


# ---------------------------------------------------------------------------
# fronts of circles stay circles


def test_front_of_circle_is_shifted_circle():
    f = propagate(sphere_circle(0.8), 0.3)
    np.testing.assert_allclose(f.points[:, 2], np.cos(1.1), atol=1e-9)
    assert f.signed_length == pytest.approx(TWO_PI * np.sin(1.1), abs=1e-9)
    assert f.area == pytest.approx(TWO_PI * (1.0 - np.cos(1.1)), abs=1e-9)
    assert f.cusps.size == 0
    assert np.all(f.regularity == 1)


def test_inward_front_of_circle():
    f = propagate(sphere_circle(0.8), -0.3)
    np.testing.assert_allclose(f.points[:, 2], np.cos(0.5), atol=1e-9)
    assert f.signed_length == pytest.approx(TWO_PI * np.sin(0.5), abs=1e-9)


def test_length_area_growth_identities():
    c = perturbed_sphere_circle(0.7, [(3, 0.04, 0.4), (2, 0.03, 1.1)], n_samples=1024)
    for t in (-0.3, 0.15, 0.45):
        f = propagate(c, t)
        want_len = c.L * np.cos(t) + (TWO_PI - c.A) * np.sin(t)
        want_area = TWO_PI - (TWO_PI - c.A) * np.cos(t) + c.L * np.sin(t)
        # grid truncation in the resampled base data caps this near 1e-9
        assert f.signed_length == pytest.approx(want_len, abs=1e-7)
        assert f.area == pytest.approx(want_area, abs=1e-7)


def test_dlength_dt_matches_area_complement():
    c = perturbed_sphere_circle(0.7, [(2, 0.05, 0.2)], n_samples=1024)
    t, h = 0.25, 1e-4
    dL = (
        propagate(c, t + h).signed_length
        - propagate(c, t - h).signed_length
    ) / (2.0 * h)
    assert dL == pytest.approx(TWO_PI - propagate(c, t).area, abs=1e-5)


def test_propagation_semigroup():
    c = sphere_circle(0.7)
    two_step = propagate(propagate(c, 0.2), 0.3)
    direct = propagate(c, 0.5)
    np.testing.assert_allclose(two_step.points, direct.points, atol=1e-9)
    assert two_step.signed_length == pytest.approx(direct.signed_length, abs=1e-9)


def test_front_defect_is_invariant():
    c = perturbed_sphere_circle(0.7, [(3, 0.04, 0.4)], n_samples=1024)
    base = defect_value(SPHERICAL, c.L, c.A)
    for t in (-0.2, 0.3):
        f = propagate(c, t)
        moved = defect_value(SPHERICAL, f.signed_length, f.area)
        assert moved == pytest.approx(base, rel=1e-7)


# ---------------------------------------------------------------------------
# the equatorial (area-bisecting) front


def test_equatorial_front_of_circle_degenerate():
    rho = 0.5
    t, area_gap, inflections = equatorial_front(sphere_circle(rho))
    assert t == pytest.approx(np.pi / 2 - rho, abs=1e-12)
    assert inflections is None
    assert area_gap < 1e-9


def test_equatorial_front_inflections():
    c = perturbed_sphere_circle(0.7, [(3, 0.04, 0.4), (2, 0.03, 1.1)], n_samples=1024)
    _, area_gap, inflections = equatorial_front(c)
    assert area_gap < 1e-8
    assert inflections >= 4


def test_equatorial_front_needs_hemisphere():
    with pytest.raises(NotInHemisphereError):
        equatorial_front(sphere_circle(2.0))


def test_mean_attainment_under_propagation():
    c = perturbed_sphere_circle(0.7, [(3, 0.04, 0.4), (2, 0.03, 1.1)], n_samples=1024)
    report = mean_attainment_front_check(c, [-0.2, 0.1, 0.3])
    assert not report.skipped.any()
    assert report.max_deviation < 1e-8


# ---------------------------------------------------------------------------
# regular + embedded certification


def test_check_regular_embedded_passes_for_small_circle():
    c = sphere_circle(0.6)
    margin, t_embedded, certified = check_regular_embedded(c, 0.3)
    assert certified
    assert margin > 0.0
    assert c.diameter == pytest.approx(1.2, abs=1e-6)
    assert t_embedded == pytest.approx(np.pi - 0.6, abs=1e-6)


def test_check_regular_embedded_validates_time():
    c = sphere_circle(0.6)
    for bad in (0.0, -0.1, np.pi / 2 + 0.1):
        with pytest.raises(ValueError):
            check_regular_embedded(c, bad)


def test_check_regular_embedded_needs_witness():
    with pytest.raises(NotInHemisphereError):
        check_regular_embedded(tennis_seam(0.25, n_samples=512), 0.3)


# ---------------------------------------------------------------------------
# tennis-ball seam: bisection, inflections, torsion


def test_seam_bisects_and_has_four_inflections():
    seam = tennis_seam(0.25, n_samples=2048)
    assert abs(seam.A - TWO_PI) < 1e-9
    assert tennis_ball_check(seam) == 4


def test_tennis_ball_check_counts_a_latitude_without_judging_bisection():
    # whether the curve bisects the area is the verify suite's call; a
    # latitude circle, which does not, has no inflection
    assert tennis_ball_check(sphere_circle(0.8)) == 0


def test_tennis_ball_check_great_circle_degenerate():
    assert tennis_ball_check(sphere_circle(np.pi / 2)) is None


def test_latitude_torsion_degenerate():
    integral, sign_changes = total_torsion(sphere_circle(0.8))
    assert sign_changes is None
    assert abs(integral) < 1e-8


@pytest.mark.parametrize("n", [4096, 8192])
def test_latitude_torsion_degenerate_on_fine_grids(n):
    # the stencil torsion of a circle is roundoff of size eps/h^3 here, which
    # must not be mistaken for torsion with no sign changes
    _, sign_changes = total_torsion(sphere_circle(0.9, n_samples=n))
    assert sign_changes is None


def test_seam_torsion_vanishes_with_sign_changes():
    integral, sign_changes = total_torsion(tennis_seam(0.25, n_samples=2048))
    assert abs(integral) < 1e-9
    assert sign_changes >= 4


# ---------------------------------------------------------------------------
# point-loop ingestion


def test_from_points_round_trip():
    src = perturbed_sphere_circle(0.7, [(3, 0.05, 0.4)], n_samples=512)
    rebuilt = curve_from_points(SPHERICAL, src.points[::2], n_samples=512)
    assert rebuilt.L == pytest.approx(src.L, rel=1e-6)
    assert rebuilt.A == pytest.approx(src.A, abs=1e-6)


def test_from_points_rejects_off_sphere():
    src = sphere_circle(0.7, n_samples=256)
    with pytest.raises(BadParametrizationError):
        curve_from_points(SPHERICAL, 1.01 * src.points)


def test_great_circle_loop_has_no_pole():
    u = np.linspace(0.0, TWO_PI, 128, endpoint=False)
    equator = np.column_stack([np.cos(u), np.sin(u), np.zeros_like(u)])
    with pytest.raises(NotInHemisphereError):
        curve_from_points(SPHERICAL, equator, n_samples=256)


def test_spec_validation():
    for rho in (0.0, np.pi, -0.3):
        with pytest.raises(InvalidSpecError):
            sphere_circle(rho)
    with pytest.raises(InvalidSpecError):
        perturbed_sphere_circle(3.5, [(2, 0.01, 0.0)])
    for beta in (0.0, 1.0):
        with pytest.raises(InvalidSpecError):
            tennis_seam(beta)


# ---------------------------------------------------------------------------
# properties


@given(rho=st.floats(min_value=0.2, max_value=2.9))
@settings(max_examples=20, deadline=None)
def test_circles_have_zero_defect(rho):
    c = sphere_circle(rho, n_samples=256)
    assert abs(defect_value(SPHERICAL, c.L, c.A)) < 1e-8


@given(
    rho=st.floats(min_value=0.4, max_value=1.2),
    amp=st.floats(min_value=0.0, max_value=0.08),
    order=st.integers(min_value=2, max_value=5),
    phase=st.floats(min_value=0.0, max_value=TWO_PI),
)
@settings(max_examples=20, deadline=None)
def test_isoperimetric_defect_nonnegative(rho, amp, order, phase):
    # sharp draws near the corners of the strategy can trip the constructor's
    # unit-speed gate at this resolution; that rejection is correct behavior,
    # so treat it as a filtered example rather than a property failure
    try:
        c = perturbed_sphere_circle(rho, [(order, amp, phase)], n_samples=512)
    except BadParametrizationError:
        assume(False)
    assert defect_value(SPHERICAL, c.L, c.A) > -1e-9
