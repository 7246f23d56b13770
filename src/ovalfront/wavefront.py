"""Equidistant fronts in every geometry, and the plane's Steiner and lemma checks.

The front at time t moves every point a distance t along the outward
conormal, in every geometry through :func:`propagate`.  In the plane
curvature radii shift by t, so fronts of convex ovals develop cusps exactly
where R(s) = -t; lengths and areas obey the Steiner polynomials
L_t = L + 2 pi t and A_t = A + L t + pi t^2 in signed form, and the
isoperimetric defect L^2 - 4 pi A is invariant in t.  The two checks here
compare with those plane closed forms, so they take plane curves only.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .curves import (
    EUCLIDEAN,
    LEMMA_GUARD,
    TWO_PI,
    Front,
    LemmaReport,
    SampledCurve,
    curvature_profile,
    eval_scalar,
    propagate_front,
    space_form,
    steiner_closed_form,
)
from .errors import NotHorocyclicallyConvexError


def propagate(curve, t: float) -> Front:
    """Front of a curve at signed distance t along its outward conormals, in every geometry.

    On the sphere and the hyperboloid the curve may itself be a front.  A t
    before the cusp onset of the curve's space form raises
    :class:`NotHorocyclicallyConvexError`: a hyperbolic curve that is not
    horocyclically convex is refused past its first cusp, where the closed
    forms stop describing the front.  :func:`~ovalfront.curves.propagate_front`
    is the unguarded front.
    """
    onset = space_form(curve.geometry).cusp_onset(np.asarray(curve.k, dtype=float))
    if t < onset:
        raise NotHorocyclicallyConvexError(
            f"t = {t:.6g} lies past the first cusp onset at t = {onset:.6g}; "
            "negative-time propagation beyond it needs a horocyclically convex curve"
        )
    return propagate_front(curve, t)


def steiner_check(curve: SampledCurve, t_values: Sequence[float]) -> tuple[float, float]:
    """Largest relative errors of measured front lengths and areas against the Steiner polynomials.

    Returns ``(max_rel_length, max_rel_area)``.  The length error is relative
    to max(|L_t|, 2 pi |t|), the size of the terms of L + 2 pi t, which cancel
    at the critical time t = -L/2pi; the area error is relative to |A_t|.
    """
    if curve.geometry != EUCLIDEAN:
        raise ValueError("the Steiner check needs a Euclidean curve")
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
    return float(rel_l.max()), float(rel_a.max())


def propagation_lemma_check(curve: SampledCurve, t_values: Sequence[float]) -> LemmaReport:
    """Mean-curvature points stay mean-curvature points under propagation.

    At every parameter with k(s) = kbar, the front curvature must equal
    kbar_t = 2 pi / (L + 2 pi t).  Times within ``LEMMA_GUARD`` of the critical
    time (where kbar_t blows up) are skipped and reported as such.  Curved
    geometries take :func:`~ovalfront.curves.mean_attainment_front_check`.
    """
    if curve.geometry != EUCLIDEAN:
        raise ValueError("the plane propagation lemma needs a Euclidean curve")
    profile = curvature_profile(curve)
    stars = profile.crossing_params
    k_star = np.array([eval_scalar(curve.curvature_fn, p) for p in stars])
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
