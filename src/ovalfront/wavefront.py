"""Equidistant wavefront propagation in the Euclidean plane.

The front at time t moves every point a distance t along the outward
normal.  Curvature radii shift by t, so fronts of convex ovals develop
cusps exactly where R(s) = -t; lengths and areas obey the Steiner
polynomials L_t = L + 2 pi t and A_t = A + L t + pi t^2 in signed form,
and the isoperimetric defect L^2 - 4 pi A is invariant in t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import (
    EUCLIDEAN,
    LEMMA_GUARD,
    TWO_PI,
    Front,
    LemmaReport,
    SampledCurve,
    _curvature_callable,
    curvature_profile,
    defect_value,
    eval_scalar,
    fft_deriv,
    propagate_front,
    steiner_closed_form,
)
from .errors import AtCuspError, DegenerateProfileError, NotContainedError

# Parameter guard band around cusps inside which curvature is refused.
CUSP_GUARD = 1e-6
# Relative band for detecting a circle (constant curvature radius).
DEGENERATE_TOL = 1e-7


def propagate(curve: SampledCurve, t: float) -> Front:
    """Propagate an oval a signed distance t along its outward normals."""
    if curve.geometry != EUCLIDEAN:
        raise ValueError("plane propagation needs a Euclidean curve")
    return propagate_front(curve, t)


def front_curvature(front: Front, index: int) -> float:
    """Front curvature k/(1 + t k) at one sample; refuses near cusps."""
    k = float(front.base.k[index])
    factor = 1.0 + front.t * k
    p = float(front.param[index])
    if front.cusps.size:
        gap = np.abs(front.cusps - p)
        dist = float(np.min(np.minimum(gap, front.period - gap)))
        if dist < CUSP_GUARD:
            raise AtCuspError(f"sample {index} is {dist:.3g} from a cusp")
    if abs(factor) < 1e-12:
        raise AtCuspError(f"1 + t k vanishes at sample {index}")
    return k / factor


@dataclass(frozen=True, eq=False)
class SteinerReport:
    t_values: np.ndarray
    length_measured: np.ndarray
    length_predicted: np.ndarray
    area_measured: np.ndarray
    area_predicted: np.ndarray
    max_rel_length: float
    max_rel_area: float
    max_dlength_err: float
    max_darea_err: float
    passed: bool


def steiner_check(curve: SampledCurve, t_values: Sequence[float], tol: float = 1e-6):
    """Compare measured front length/area with the Steiner polynomials.

    The length error is relative to max(|L_t|, 2 pi |t|), the size of the
    terms of L + 2 pi t, which cancel at the critical time t = -L/2pi.  Also
    differentiates the measured quantities over the grid and checks
    dL/dt = 2 pi and dA/dt = L_t (the grid needs >= 3 points for that).
    """
    ts = np.asarray(list(t_values), dtype=float)
    lm = np.empty_like(ts)
    am = np.empty_like(ts)
    for i, t in enumerate(ts):
        f = propagate(curve, t)
        lm[i] = f.signed_length
        am[i] = f.area
    lp, ap = steiner_closed_form(curve, ts)
    rel_l = np.abs(lm - lp) / np.maximum(np.abs(lp), TWO_PI * np.abs(ts))
    rel_a = np.abs(am - ap) / np.maximum(np.abs(ap), 1e-12)
    if ts.size >= 3:
        dl = np.gradient(lm, ts, edge_order=2)
        da = np.gradient(am, ts, edge_order=2)
        dl_err = float(np.max(np.abs(dl - TWO_PI)))
        da_err = float(np.max(np.abs(da - lm)))
    else:
        dl_err = da_err = 0.0
    report = SteinerReport(
        t_values=ts,
        length_measured=lm,
        length_predicted=lp,
        area_measured=am,
        area_predicted=ap,
        max_rel_length=float(rel_l.max()),
        max_rel_area=float(rel_a.max()),
        max_dlength_err=dl_err,
        max_darea_err=da_err,
        passed=bool(rel_l.max() < tol and rel_a.max() < tol),
    )
    return report


def isoperimetric_defect(curve: SampledCurve, t: float = 0.0) -> float:
    """L_t^2 - 4 pi A_t of the measured front at time t."""
    if t == 0.0:
        return defect_value(EUCLIDEAN, curve.L, curve.A)
    f = propagate(curve, t)
    return defect_value(EUCLIDEAN, f.signed_length, f.area)


@dataclass(frozen=True, eq=False)
class CriticalFrontResult:
    front: Front
    t_star: float
    cusp_params: np.ndarray
    attainment_params: np.ndarray
    count: int


def critical_front(curve: SampledCurve):
    """Front at t* = -L/2pi, where the signed length vanishes.

    Cusps of this front sit exactly at the parameters where the curvature
    equals its mean 2 pi / L.  Raises :class:`DegenerateProfileError` for
    circles, whose critical front collapses to a point.
    """
    radius = 1.0 / curve.k
    rbar = curve.L / TWO_PI
    if float(np.max(np.abs(radius - rbar))) <= DEGENERATE_TOL * rbar:
        raise DegenerateProfileError("circle: critical front collapses to a point")
    t_star = -rbar
    front = propagate(curve, t_star)
    profile = curvature_profile(curve)
    return CriticalFrontResult(
        front=front,
        t_star=t_star,
        cusp_params=front.cusps,
        attainment_params=profile.crossing_params,
        count=len(front.cusps),
    )


def propagation_lemma_check(curve: SampledCurve, t_values: Sequence[float]) -> LemmaReport:
    """Mean-curvature points stay mean-curvature points under propagation.

    At every parameter with k(s) = kbar, the front curvature must equal
    kbar_t = 2 pi / (L + 2 pi t).  Times within ``LEMMA_GUARD`` of the critical
    time (where kbar_t blows up) are skipped and reported as such.
    """
    profile = curvature_profile(curve)
    stars = profile.crossing_params
    kfn = _curvature_callable(curve)
    k_star = np.array([eval_scalar(kfn, p) for p in stars])
    kbar = TWO_PI / curve.L
    ts = np.asarray(list(t_values), dtype=float)
    devs = np.full(ts.shape, np.nan)
    skipped = np.zeros(ts.shape, dtype=bool)
    for i, t in enumerate(ts):
        if abs(1.0 + t * kbar) < LEMMA_GUARD:
            skipped[i] = True
            continue
        kt = k_star / (1.0 + t * k_star)
        kbar_t = TWO_PI / (curve.L + TWO_PI * t)
        devs[i] = float(np.max(np.abs(kt - kbar_t))) if stars.size else np.nan
    return LemmaReport.from_deviations(ts, devs, skipped, stars)


# ---------------------------------------------------------------------------
# containment


def _points_in_polygon(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd ray cast; True where a point lies inside the polygon."""
    x = pts[:, 0][:, None]
    y = pts[:, 1][:, None]
    x1 = poly[:, 0][None, :]
    y1 = poly[:, 1][None, :]
    x2 = np.roll(poly[:, 0], -1)[None, :]
    y2 = np.roll(poly[:, 1], -1)[None, :]
    straddles = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    hits = straddles & (x < x_cross)
    return (np.count_nonzero(hits, axis=1) % 2).astype(bool)


@dataclass(frozen=True, eq=False)
class EnclosureReport:
    inner_length: float
    outer_length: float
    margin: float
    passed: bool


def enclosure_inequality_check(inner: SampledCurve, outer) -> EnclosureReport:
    """Convex curve strictly inside a closed loop is the shorter of the two.

    ``outer`` may be a :class:`SampledCurve` or an (m, 2) point loop.
    Raises :class:`NotContainedError` when any sample of the inner curve
    fails the point-in-polygon test against the outer loop.
    """
    if isinstance(outer, SampledCurve):
        outer_pts = outer.points
        outer_len = outer.L
    else:
        outer_pts = np.asarray(outer, dtype=float)
        seg = outer_pts - np.roll(outer_pts, 1, axis=0)
        outer_len = float(np.sum(np.linalg.norm(seg, axis=1)))
    inside = _points_in_polygon(inner.points, outer_pts)
    if not bool(inside.all()):
        n_out = int(np.count_nonzero(~inside))
        raise NotContainedError(f"{n_out} inner samples fall outside the loop")
    margin = outer_len - inner.L
    return EnclosureReport(
        inner_length=inner.L,
        outer_length=outer_len,
        margin=margin,
        passed=margin > 0.0,
    )


def tangent_winding(front: Front) -> int:
    """Winding number of the front's (sign-corrected) tangent direction."""
    dx = fft_deriv(front.points[:, 0], front.period)
    dy = fft_deriv(front.points[:, 1], front.period)
    sign = np.where(front.regularity == 0, 1, front.regularity)
    theta = np.arctan2(sign * dy, sign * dx)
    steps = np.angle(np.exp(1j * (np.roll(theta, -1) - theta)))
    return int(round(float(steps.sum()) / TWO_PI))
