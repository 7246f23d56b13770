"""Closed curves on the unit sphere: curvature, fronts, inflections, torsion.

Curves are sampled at uniform arc length as unit 3-vectors.  The outward
conormal is nu = gamma' x gamma, so the front at time t is
cos(t) gamma + sin(t) nu and a circle of geodesic radius R propagates to
radius R + t.  Geodesic curvature is the triple product
det[gamma, gamma', gamma''], positive for curves cooriented outwards.

Enclosed area is measured two independent ways (a Green-type polar
quadrature around an interior pole, and a fan of signed spherical-triangle
excesses) and cross-checked against Gauss-Bonnet: integral(k_g ds) = 2 pi - A.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import _kernels as kernels
from .curves import (
    SPACE_FORMS,
    SPEED_TOL,
    SPHERICAL,
    TWO_PI,
    CurvatureProfile,
    Front,
    SampledCurve,
    SpaceForm,
    _column_deriv,
    count_mean_crossings,
    euclidean_dot,
    harmonic_radius,
    polar_circle,
    polar_curve,
    propagate_front,
    resample_surface_loop,
    unit_speed_curvature,
)
from .errors import (
    BadParametrizationError,
    DegenerateProfileError,
    FrenetBreakdownError,
    InvalidSpecError,
    NotBisectingError,
    NotInHemisphereError,
    NumericalFailureError,
)

UNIT_NORM_TOL = 1e-10
FRENET_TOL = 1e-6
# sigma_3/sigma_1 of the centred samples at or below this counts as planar
PLANARITY_TOL = 1e-8
# samples per block of the pruned diameter scan, and the slack of its bound
DIAMETER_BLOCK = 64
DIAMETER_SLACK = 1e-12


@dataclass(frozen=True, eq=False, kw_only=True)
class SphereCurve(SampledCurve):
    """Spherical curve with hemisphere witness and spherical diameter.

    ``pole`` is the hemisphere witness, or ``None`` when the curve has none.
    ``anchor`` is the point its area was measured about; its fronts measure
    their areas about the same point.
    """

    pole: Optional[np.ndarray] = None
    anchor: Optional[np.ndarray] = None

    @cached_property
    def diameter(self) -> float:
        return spherical_diameter(self.points)


# ---------------------------------------------------------------------------
# differential quantities


def geodesic_curvature(points: np.ndarray, spacing: float):
    """Geodesic curvature and outward conormal of unit-speed samples.

    Returns ``(k_g, nu, d1)``.  Raises :class:`BadParametrizationError`
    when the speed strays from 1 by more than 1e-6.
    """
    return unit_speed_curvature(points, spacing, SPHERE)


def spherical_diameter(points: np.ndarray) -> float:
    """Largest great-circle distance between curve samples.

    arccos decreases, so the farthest pair is the one with the smallest dot
    product.  The samples are cut into blocks of ``DIAMETER_BLOCK``
    consecutive samples, and the result is exact: the same float as the
    products of every pair of blocks would give (a product of other shapes
    may round a 3-term dot product in its last bit), a lower bound on the
    true diameter with error O(spacing^2).  The scan is pruned by block,
    each block with a centre sample c and a radius r = max|p - c|.  For p in
    block I and q in block J

        p.q >= c_I.c_J - |c_I| r_J - |c_J| r_I - r_I r_J,

    with the real norms |c|, since samples are renormalised only past
    ``UNIT_NORM_TOL``.  The smallest centre product belongs to a real pair,
    so only block pairs whose bound is at most that product plus
    ``DIAMETER_SLACK`` can hold the minimum; the slack keeps roundoff in the
    bound from pruning the minimising pair.
    """
    block = DIAMETER_BLOCK
    pad = -len(points) % block  # repeating a real sample adds only real pairs
    blocks = np.concatenate([points, np.repeat(points[-1:], pad, axis=0)])
    blocks = blocks.reshape(-1, block, points.shape[1])
    centres = blocks[:, block // 2]
    radii = np.linalg.norm(blocks - centres[:, None], axis=2).max(axis=1)
    norms = np.linalg.norm(centres, axis=1)
    products = centres @ centres.T
    bound = products - np.add.outer(norms * radii, norms * radii) - np.outer(radii, radii)
    rows, cols = np.nonzero(np.triu(bound <= products.min() + DIAMETER_SLACK))
    lowest = min(float((blocks[i] @ blocks[j].T).min()) for i, j in zip(rows, cols))
    return float(np.arccos(np.clip(lowest, -1.0, 1.0)))


# ---------------------------------------------------------------------------
# area oracles


def spherical_area_green(points: np.ndarray, pole: np.ndarray, spacing: float) -> float:
    """Enclosed area by the polar Green identity A = loop(1 - cos r) dphi about ``pole``."""
    return SPHERE.green_area(points, pole, spacing)


def spherical_area_fan(points: np.ndarray, apex: np.ndarray) -> float:
    """Signed spherical area as a fan of triangle excesses from ``apex``."""
    b = points
    c = np.roll(points, -1, axis=0)
    num = np.einsum("j,ij->i", apex, np.cross(b, c))
    den = 1.0 + b @ apex + np.einsum("ij,ij->i", b, c) + c @ apex
    return float(np.sum(2.0 * np.arctan2(num, den)))


def _front_area(points: np.ndarray, curve, period: float):
    """Green area of front samples about the base's anchor, which the front keeps."""
    return spherical_area_green(points, curve.anchor, period / len(points)), curve.anchor


SPHERE = SPACE_FORMS[SPHERICAL] = SpaceForm(
    geometry=SPHERICAL,
    K=1,
    c=np.cos,
    s=np.sin,
    dot=euclidean_dot,
    cross=np.cross,
    front_area=_front_area,
    polar=lambda th, phi: np.column_stack(
        [np.sin(th) * np.cos(phi), np.sin(th) * np.sin(phi), np.cos(th)]
    ),
)


# ---------------------------------------------------------------------------
# construction


def _unit(points: np.ndarray) -> np.ndarray:
    return points / np.linalg.norm(points, axis=1)[:, None]


def _finish_sphere_curve(points, s, length, area_pole=None, curv_fn=None) -> SphereCurve:
    points = np.asarray(points, dtype=float)
    norms = np.linalg.norm(points, axis=1)
    if float(np.max(np.abs(norms - 1.0))) > UNIT_NORM_TOL:
        points = points / norms[:, None]
    n = len(points)
    spacing = length / n
    k, nu, _ = geodesic_curvature(points, spacing)
    w = np.full(n, spacing)

    mean = points.mean(axis=0)
    mean_norm = float(np.linalg.norm(mean))
    witness = None
    if mean_norm > 1e-9:
        cand = mean / mean_norm
        if float(np.min(points @ cand)) > 0.0:
            witness = cand
    pole = area_pole if area_pole is not None else witness
    if pole is None:
        raise NotInHemisphereError(
            "no usable interior pole; pass area_pole for equator-like curves"
        )
    # fronts measure their areas about the witness when it lies on the area
    # pole's side, else about the area pole: for a cap larger than a
    # hemisphere the witness is the far pole, about which the area is A - 4 pi
    anchor = witness if witness is not None and witness @ pole > 0.0 else pole
    area = spherical_area_green(points, pole, spacing)
    fan = spherical_area_fan(points, pole)
    # polygonized fan converges O(n^-2); keep a floor so coarse grids do
    # not false-alarm while orientation bugs (O(1) disagreement) still trip
    fan_tol = max(1e-5, 60.0 / n**2)
    if abs(fan - area) > fan_tol:
        raise NumericalFailureError(
            f"area oracles disagree: green={area:.8g} fan={fan:.8g}"
        )
    return SphereCurve(
        geometry=SPHERICAL,
        points=points,
        s=np.asarray(s, dtype=float),
        k=k,
        L=float(length),
        A=area,
        param=np.asarray(s, dtype=float),
        tangent=None,
        normal=nu,
        w=w,
        curv_fn=curv_fn,
        pole=witness,
        anchor=anchor,
    )


def sphere_circle(rho: float, n_samples: int = 1024) -> SphereCurve:
    """Circle of geodesic radius rho about the north pole."""
    if not 0.0 < rho < np.pi:
        raise InvalidSpecError("need 0 < rho < pi")
    points, s, length = polar_circle(SPHERE, rho, n_samples)
    k_const = 1.0 / np.tan(rho)
    return _finish_sphere_curve(
        points,
        s,
        length,
        area_pole=np.array([0.0, 0.0, 1.0]),
        curv_fn=lambda x: np.full_like(np.atleast_1d(np.asarray(x, float)), k_const),
    )


def perturbed_sphere_circle(
    rho: float, harmonics: Sequence, n_samples: int = 2048
) -> SphereCurve:
    """Circle of radius rho with harmonic colatitude perturbations.

    ``harmonics`` is a sequence of (order, amplitude, phase) triples; the
    colatitude about the north pole is
    theta(phi) = rho + sum(amp * cos(order * phi + phase)).
    """
    if not 0.0 < rho < np.pi:
        raise InvalidSpecError("need 0 < rho < pi")
    theta_fn, dtheta_fn = harmonic_radius(rho, harmonics)
    points, s, length, _ = polar_curve(SPHERE, theta_fn, dtheta_fn, int(n_samples))
    return _finish_sphere_curve(points, s, length, area_pole=np.array([0.0, 0.0, 1.0]))


def tennis_seam(beta: float = 0.25, n_samples: int = 2048) -> SphereCurve:
    """Wavy equator theta = pi/2 + beta sin(2 phi): the tennis-ball seam.

    Bisects the sphere by symmetry and has exactly four inflections for
    moderate beta.
    """
    if not 0.0 < beta < 1.0:
        raise InvalidSpecError("need 0 < beta < 1")

    def theta_fn(phi):
        return np.pi / 2 + beta * np.sin(2.0 * np.asarray(phi, dtype=float))

    def dtheta_fn(phi):
        return 2.0 * beta * np.cos(2.0 * np.asarray(phi, dtype=float))

    points, s, length, _ = polar_curve(SPHERE, theta_fn, dtheta_fn, int(n_samples))
    return _finish_sphere_curve(points, s, length, area_pole=np.array([0.0, 0.0, 1.0]))


def sphere_curve_from_points(points, n_samples: int = 1024) -> SphereCurve:
    """Resample-and-validate path for raw point loops on the sphere."""
    raw = np.asarray(points, dtype=float)
    if float(np.max(np.abs(np.linalg.norm(raw, axis=1) - 1.0))) > 1e-6:
        raise BadParametrizationError("input points must lie on the unit sphere")
    return _finish_sphere_curve(*resample_surface_loop(raw, n_samples, SPHERE, _unit))


# ---------------------------------------------------------------------------
# fronts


def propagate_sphere(curve, t: float) -> Front:
    """Front at signed distance t along the outward conormal field."""
    return propagate_front(curve, t)


@dataclass(frozen=True, eq=False)
class EquatorialReport:
    front: Front
    t: float
    area_gap: float
    degenerate: bool
    inflections: Optional[int]
    crossing_params: np.ndarray


def equatorial_front(curve: SphereCurve) -> EquatorialReport:
    """Propagate to t = atan((2 pi - A)/L), where the front bisects area.

    At that time the mean front curvature vanishes, so inflections of the
    front are exactly the mean-curvature attainment points of the base.
    """
    if curve.A >= TWO_PI:
        raise NotInHemisphereError("base curve already encloses half the sphere")
    t = float(np.arctan((TWO_PI - curve.A) / curve.L))
    front = propagate_sphere(curve, t)
    kf = front.k
    if np.any(~np.isfinite(kf)):
        raise BadParametrizationError("equatorial front is not regular")
    top = float(np.max(np.abs(kf)))
    if top <= 1e-6:
        return EquatorialReport(
            front=front,
            t=t,
            area_gap=abs(front.area - TWO_PI),
            degenerate=True,
            inflections=None,
            crossing_params=np.empty(0),
        )
    profile = CurvatureProfile(
        values=kf, mean=0.0, param=front.s, period=front.period, fn=None
    )
    report = count_mean_crossings(profile)
    return EquatorialReport(
        front=front,
        t=t,
        area_gap=abs(front.area - TWO_PI),
        degenerate=False,
        inflections=report.count,
        crossing_params=report.crossings,
    )


@dataclass(frozen=True, eq=False)
class RegularEmbeddedReport:
    t: float
    regular_margin: float
    diameter: float
    t_embedded: float
    regular: bool
    embedded: bool
    passed: bool


def check_regular_embedded(curve: SphereCurve, t: float) -> RegularEmbeddedReport:
    """Certify that the front at time t is regular and embedded.

    Regularity: cos t + k_g sin t keeps one sign.  Embeddedness: the first
    self-tangency of the distance flow cannot occur before
    t_1 = pi - d/2 > pi/2, with d the spherical diameter of the base.
    """
    if curve.pole is None:
        raise NotInHemisphereError("curve has no hemisphere witness")
    if not 0.0 < t <= np.pi / 2:
        raise ValueError("need 0 < t <= pi/2")
    margin = float(np.min(np.cos(t) + np.sin(t) * curve.k))
    d = curve.diameter
    t1 = np.pi - d / 2.0
    regular = margin > 0.0
    embedded = d < np.pi and t < t1
    return RegularEmbeddedReport(
        t=t,
        regular_margin=margin,
        diameter=d,
        t_embedded=t1,
        regular=regular,
        embedded=embedded,
        passed=regular and embedded,
    )


@dataclass(frozen=True, eq=False)
class TennisBallReport:
    degenerate: bool
    inflections: Optional[int]
    crossing_params: np.ndarray
    passed: Optional[bool]


def tennis_ball_check(curve: SphereCurve, area_tol: float = 1e-6) -> TennisBallReport:
    """Area-bisecting curves must have at least four inflections.

    Raises :class:`NotBisectingError` unless |A - 2 pi| <= area_tol.
    A great circle (k_g identically 0) is reported as degenerate, never as
    a pass or a fail.
    """
    if abs(curve.A - TWO_PI) > area_tol:
        raise NotBisectingError(f"|A - 2pi| = {abs(curve.A - TWO_PI):.3g} > {area_tol:.3g}")
    # the crossing band is relative to the profile amplitude, so a pure-noise
    # profile (great circle) needs an absolute floor here, as in equatorial_front
    if float(np.max(np.abs(curve.k))) <= 1e-6:
        return TennisBallReport(
            degenerate=True, inflections=None, crossing_params=np.empty(0), passed=None
        )
    profile = CurvatureProfile(
        values=curve.k, mean=0.0, param=curve.s, period=curve.L, fn=curve.curv_fn
    )
    try:
        report = count_mean_crossings(profile)
    except DegenerateProfileError:
        return TennisBallReport(
            degenerate=True, inflections=None, crossing_params=np.empty(0), passed=None
        )
    return TennisBallReport(
        degenerate=False,
        inflections=report.count,
        crossing_params=report.crossings,
        passed=report.count >= 4,
    )


@dataclass(frozen=True, eq=False)
class TorsionReport:
    integral: float
    degenerate: bool
    sign_changes: Optional[int]
    tau: np.ndarray


def total_torsion(curve: SphereCurve) -> TorsionReport:
    """Total torsion (Frenet quadrature) and its sign changes.

    Spherical curves have vanishing total torsion; simple ones change
    torsion sign at least four times.  Circles, the planar curves, have
    torsion identically zero and are reported as degenerate; planarity is
    read off the samples, since the stencil torsion's roundoff grows like
    eps/h^3.  Right-handed Frenet convention.
    """
    spacing = curve.L / curve.n_samples
    d1 = _column_deriv(curve.points, 1, spacing)
    d2 = _column_deriv(curve.points, 2, spacing)
    d3 = _column_deriv(curve.points, 3, spacing)
    speed = np.linalg.norm(d1, axis=1)
    if float(np.max(np.abs(speed - 1.0))) > SPEED_TOL:
        raise BadParametrizationError("torsion needs unit-speed samples")
    kappa_sq = np.einsum("ij,ij->i", np.cross(d1, d2), np.cross(d1, d2))
    if float(np.min(kappa_sq)) < FRENET_TOL**2:
        raise FrenetBreakdownError("space curvature vanishes on the grid")
    tau = np.einsum("ij,ij->i", np.cross(d1, d2), d3) / kappa_sq
    integral = float(np.sum(tau) * spacing)
    sigma = np.linalg.svd(curve.points - curve.points.mean(axis=0), compute_uv=False)
    if sigma[2] <= PLANARITY_TOL * sigma[0]:
        return TorsionReport(integral=integral, degenerate=True, sign_changes=None, tau=tau)
    pairs, _ = kernels.transitions(tau, 1e-7 * float(np.max(np.abs(tau))))
    return TorsionReport(
        integral=integral, degenerate=False, sign_changes=len(pairs), tau=tau
    )
