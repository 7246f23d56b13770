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
    CrossingReport,
    CurvatureProfile,
    Front,
    SampledCurve,
    SpaceForm,
    count_mean_crossings,
    cross3,
    euclidean_dot,
    harmonic_radius,
    polar_circle,
    polar_curve,
    unit_speed_curvature,
)
from .errors import (
    BadParametrizationError,
    FrenetBreakdownError,
    InvalidSpecError,
    NotBisectingError,
    NotInHemisphereError,
    NumericalFailureError,
)
from .wavefront import propagate

UNIT_NORM_TOL = 1e-10
FRENET_TOL = 1e-6
# sigma_3/sigma_1 of the centred samples at or below this counts as planar
PLANARITY_TOL = 1e-8
# samples per block of the pruned diameter scan, and the slack of its bound
DIAMETER_BLOCK = 64
DIAMETER_SLACK = 1e-12
# block pairs per product stack of the scan: 16 x 64 x 64 floats are 0.5 MB
DIAMETER_PAIRS = 16


@dataclass(frozen=True, eq=False, kw_only=True)
class SphereCurve(SampledCurve):
    """Spherical curve with hemisphere witness and spherical diameter.

    ``pole`` is the hemisphere witness, or ``None`` when the curve has none.
    """

    pole: Optional[np.ndarray] = None

    @cached_property
    def diameter(self) -> float:
        return spherical_diameter(self.points)


# ---------------------------------------------------------------------------
# diameter and the fan area oracle


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
    bound from pruning the minimising pair.  The surviving pairs are
    multiplied ``DIAMETER_PAIRS`` at a time, each in its own block product.
    """
    block = DIAMETER_BLOCK
    pad = -len(points) % block  # repeating a real sample adds only real pairs
    blocks = np.concatenate([points, np.repeat(points[-1:], pad, axis=0)])
    blocks = blocks.reshape(-1, block, points.shape[1])
    centres = blocks[:, block // 2]
    radii = SPHERE.norm(blocks - centres[:, None]).max(axis=1)
    norms = SPHERE.norm(centres)
    products = centres @ centres.T
    bound = products - np.add.outer(norms * radii, norms * radii) - np.outer(radii, radii)
    rows, cols = np.nonzero(np.triu(bound <= products.min() + DIAMETER_SLACK))
    splits = range(DIAMETER_PAIRS, len(rows), DIAMETER_PAIRS)
    pairs = zip(np.split(rows, splits), np.split(cols, splits))
    lowest = min(float((blocks[i] @ blocks[j].swapaxes(1, 2)).min()) for i, j in pairs)
    return float(np.arccos(np.clip(lowest, -1.0, 1.0)))


def spherical_area_fan(points: np.ndarray, apex: np.ndarray) -> float:
    """Signed spherical area as a fan of triangle excesses from ``apex``."""
    b = points
    c = np.roll(points, -1, axis=0)
    num = np.einsum("j,ij->i", apex, cross3(b, c))
    den = 1.0 + b @ apex + np.einsum("ij,ij->i", b, c) + c @ apex
    return float(np.sum(2.0 * np.arctan2(num, den)))


# ---------------------------------------------------------------------------
# construction


def _finish_sphere_curve(points, s, length, area_pole=None, curv_fn=None) -> SphereCurve:
    points = np.asarray(points, dtype=float)
    norms = SPHERE.norm(points)
    if float(np.max(np.abs(norms - 1.0))) > UNIT_NORM_TOL:
        points = points / norms[:, None]
    n = len(points)
    spacing = length / n
    k, nu, _ = unit_speed_curvature(points, spacing, SPHERE)
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
    area = SPHERE.green_area(points, pole, spacing)
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


SPHERE = SPACE_FORMS[SPHERICAL] = SpaceForm(
    geometry=SPHERICAL,
    K=1,
    c=np.cos,
    s=np.sin,
    dot=euclidean_dot,
    cross=cross3,
    critical_time=lambda length, b: -float(np.arctan(length / b)),
    finish=_finish_sphere_curve,
    polar=lambda th, phi: np.column_stack(
        [np.sin(th) * np.cos(phi), np.sin(th) * np.sin(phi), np.cos(th)]
    ),
    project=lambda points: points / SPHERE.norm(points)[:, None],
    off_surface=lambda points: (float(np.max(np.abs(SPHERE.norm(points) - 1.0))),
                                "lie on the unit sphere"),
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


# ---------------------------------------------------------------------------
# fronts


@dataclass(frozen=True, eq=False)
class EquatorialReport:
    front: Front
    t: float
    area_gap: float
    degenerate: bool
    inflections: Optional[int]
    crossing_params: np.ndarray


def _inflections(k, param, period, fn) -> Optional[CrossingReport]:
    """Zero crossings of a geodesic curvature profile; ``None`` when max|k| <= 1e-6.

    The crossing band is relative to the profile amplitude, so a pure-noise
    profile (a great circle, an equatorial front of a circle) needs this
    absolute floor.
    """
    if float(np.max(np.abs(k))) <= 1e-6:
        return None
    return count_mean_crossings(
        CurvatureProfile(values=k, mean=0.0, param=param, period=period, fn=fn)
    )


def equatorial_front(curve: SphereCurve) -> EquatorialReport:
    """Propagate to t = atan((2 pi - A)/L), where the front bisects area.

    At that time the mean front curvature vanishes, so inflections of the
    front are exactly the mean-curvature attainment points of the base.
    """
    if curve.A >= TWO_PI:
        raise NotInHemisphereError("base curve already encloses half the sphere")
    t = float(np.arctan((TWO_PI - curve.A) / curve.L))
    front = propagate(curve, t)
    kf = front.k
    if np.any(~np.isfinite(kf)):
        raise BadParametrizationError("equatorial front is not regular")
    report = _inflections(kf, front.s, front.period, front.curvature_fn)
    return EquatorialReport(
        front=front,
        t=t,
        area_gap=abs(front.area - TWO_PI),
        degenerate=report is None,
        inflections=None if report is None else report.count,
        crossing_params=np.empty(0) if report is None else report.crossings,
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
    report = _inflections(curve.k, curve.s, curve.L, curve.curv_fn)
    if report is None:
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


def torsion(curve: SphereCurve) -> np.ndarray:
    """Frenet torsion per sample of unit-speed samples, right-handed convention.

    Raises :class:`BadParametrizationError` off unit speed and
    :class:`FrenetBreakdownError` where the space curvature vanishes.
    """
    spacing = curve.L / curve.n_samples
    d1 = kernels.periodic_deriv(curve.points, 1, spacing)
    d2 = kernels.periodic_deriv(curve.points, 2, spacing)
    d3 = kernels.periodic_deriv(curve.points, 3, spacing)
    speed = SPHERE.norm(d1)
    if float(np.max(np.abs(speed - 1.0))) > SPEED_TOL:
        raise BadParametrizationError("torsion needs unit-speed samples")
    binormal = cross3(d1, d2)
    kappa_sq = np.einsum("ij,ij->i", binormal, binormal)
    if float(np.min(kappa_sq)) < FRENET_TOL**2:
        raise FrenetBreakdownError("space curvature vanishes on the grid")
    return np.einsum("ij,ij->i", binormal, d3) / kappa_sq


def total_torsion(curve: SphereCurve) -> TorsionReport:
    """Total torsion (Frenet quadrature of :func:`torsion`) and its sign changes.

    Spherical curves have vanishing total torsion; simple ones change
    torsion sign at least four times.  Circles, the planar curves, have
    torsion identically zero and are reported as degenerate; planarity is
    read off the samples, since the stencil torsion's roundoff grows like
    eps/h^3.
    """
    tau = torsion(curve)
    integral = float(np.sum(tau) * (curve.L / curve.n_samples))
    sigma = np.linalg.svd(curve.points - curve.points.mean(axis=0), compute_uv=False)
    if sigma[2] <= PLANARITY_TOL * sigma[0]:
        return TorsionReport(integral=integral, degenerate=True, sign_changes=None)
    pairs, _ = kernels.transitions(tau, 1e-7 * float(np.max(np.abs(tau))))
    return TorsionReport(integral=integral, degenerate=False, sign_changes=len(pairs))
