"""Hyperbolic-plane curves in the hyperboloid model.

Points live on the sheet <x,x> = -1, x0 > 0 of Minkowski 3-space with
signature (-,+,+).  Isometries are linear there, so frames, curvature and
equidistant propagation stay polynomial in the samples:

    T = x',   nu = mcross(T, x)   (outward conormal),
    k = det[x, x', x''],          front_t = cosh(t) x + sinh(t) nu.

Geodesic curvature classifies the local shape: k > 1 circle-like,
k = 1 horocycle-like, k < 1 equidistant-like.  Closed convex curves with
k > 1 everywhere (horocyclically convex) collapse under inward propagation
at t = -arccoth((2 pi + A)/L), the time :func:`~ovalfront.curves.critical_time`
gives, with at least four cusps; the rounded semicircle built here is
convex but not horocyclically convex and attains its mean curvature only
twice.

That semicircle is built from its curvature profile, which is piecewise
linear in arc length.  Its frame (x, T, nu) obeys a linear equation with
coefficients in so(2,1), so it is carried by exact group exponentials
(closed form, from Omega^3 = lam Omega): one step per constant piece and
fourth-order Magnus steps on the ramps.  The frame therefore stays on the
hyperboloid by construction, and the enclosed area comes from Gauss-Legendre
quadrature of the polar Green integrand, independent of Gauss-Bonnet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._scipy import BRENTQ_DEFAULTS, brentq, hybrd as root
from .curves import (
    HYPERBOLIC,
    SPACE_FORMS,
    TWO_PI,
    SampledCurve,
    SpaceForm,
    cross3,
    curvature_profile,
    harmonic_radius,
    polar_circle,
    polar_curve,
    unit_speed_curvature,
)
from .errors import (
    BadParametrizationError,
    CothDomainError,
    InvalidSpecError,
    NumericalFailureError,
    OvalfrontError,
)

HOROCYCLIC_MARGIN = 1e-6
# half-width of the horocycle-like band of k about 1
CLASS_BAND = 1e-6

CIRCLE_LIKE = 1
HOROCYCLE_LIKE = 0
EQUIDISTANT_LIKE = -1


# ---------------------------------------------------------------------------
# Minkowski primitives, signature (-,+,+)


def mdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minkowski inner product over the last axis."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return -a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def mcross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minkowski cross product: <mcross(a,b), c> = det[a, b, c]."""
    e = cross3(a, b)
    e[..., 0] = -e[..., 0]
    return e


def normalize_timelike(v: np.ndarray) -> np.ndarray:
    """Scale a timelike (future-pointing) vector onto the hyperboloid."""
    v = np.asarray(v, dtype=float)
    q = -mdot(v, v)
    if np.any(q <= 0.0) or np.any(v[..., 0] <= 0.0):
        raise BadParametrizationError("vector is not future-timelike")
    return v / np.sqrt(q)[..., None] if v.ndim > 1 else v / np.sqrt(q)


@dataclass(frozen=True, eq=False, kw_only=True)
class HyperbolicCurve(SampledCurve):
    """Closed hyperboloid-model curve; its convexity class is read off ``k``."""

    gb_residual: float = float("nan")
    build_residual: float = float("nan")

    @property
    def min_k(self) -> float:
        return float(np.min(self.k))

    @property
    def horocyclic_convex(self) -> bool:
        return HYPERBOLOID.convex(self.k)

    @property
    def curvature_class(self) -> np.ndarray:
        return classify_curvature(self.k)


def classify_curvature(k: np.ndarray) -> np.ndarray:
    """Per-sample tag: +1 circle-like, 0 horocycle-like, -1 equidistant-like."""
    tags = np.zeros(len(k), dtype=np.int8)
    tags[k > 1.0 + CLASS_BAND] = CIRCLE_LIKE
    tags[k < 1.0 - CLASS_BAND] = EQUIDISTANT_LIKE
    return tags


# ---------------------------------------------------------------------------
# the space form


def _collapse_time(length: float, b: float) -> float:
    """t = -arccoth(kbar), kbar = b/L = (2 pi + A)/L: the front collapses there."""
    kbar = b / length
    if kbar <= 1.0 + 1e-12:
        raise CothDomainError(f"mean curvature {kbar:.6g} <= 1: no collapse time")
    return float(-0.5 * np.log((kbar + 1.0) / (kbar - 1.0)))


def _cusp_onset(k: np.ndarray) -> float:
    """-arctanh(1/max k): the t < 0 where cosh t + k sinh t first vanishes.

    -inf on a horocyclically convex curve, whose inward fronts the closed
    forms describe up to collapse, and where no k exceeds 1 (a front's NaN
    cusp samples included).
    """
    top = float(np.max(k))
    if HYPERBOLOID.convex(k) or not top > 1.0:
        return -np.inf
    return -float(np.arctanh(1.0 / top))


# ---------------------------------------------------------------------------
# construction


def _finish_hyperbolic_curve(points, s, length, anchor=None, curv_fn=None) -> HyperbolicCurve:
    points = normalize_timelike(np.asarray(points, dtype=float))
    n = len(points)
    spacing = length / n
    k, nu, _ = unit_speed_curvature(points, spacing, HYPERBOLOID)
    if anchor is None:
        anchor = normalize_timelike(points.mean(axis=0))
    area = HYPERBOLOID.green_area(points, anchor, spacing)
    w = np.full(n, spacing)
    gb = abs(float(np.sum(k) * spacing) - (TWO_PI + area))
    s_arr = np.asarray(s, dtype=float)
    return HyperbolicCurve(
        geometry=HYPERBOLIC,
        points=points,
        s=s_arr,
        k=k,
        L=float(length),
        A=area,
        param=s_arr,
        tangent=None,
        normal=nu,
        w=w,
        curv_fn=curv_fn,
        anchor=np.asarray(anchor, dtype=float),
        gb_residual=gb,
    )


HYPERBOLOID = SPACE_FORMS[HYPERBOLIC] = SpaceForm(
    geometry=HYPERBOLIC,
    K=-1,
    c=np.cosh,
    s=np.sinh,
    dot=mdot,
    cross=mcross,
    critical_time=_collapse_time,
    finish=_finish_hyperbolic_curve,
    cusp_onset=_cusp_onset,
    floor=1.0 + HOROCYCLIC_MARGIN,
    polar=lambda r, phi: np.column_stack(
        [np.cosh(r), np.sinh(r) * np.cos(phi), np.sinh(r) * np.sin(phi)]
    ),
    project=normalize_timelike,
    off_surface=lambda points: (float(np.max(np.abs(mdot(points, points) + 1.0))),
                                "satisfy <x,x> = -1"),
)


def hyperbolic_circle(rho: float, n_samples: int = 1024) -> HyperbolicCurve:
    """Circle of hyperbolic radius rho about the model basepoint (1,0,0)."""
    if rho <= 0.0:
        raise InvalidSpecError("need rho > 0")
    points, s, length = polar_circle(HYPERBOLOID, rho, n_samples)
    k_const = 1.0 / np.tanh(rho)
    return _finish_hyperbolic_curve(
        points,
        s,
        length,
        anchor=np.array([1.0, 0.0, 0.0]),
        curv_fn=lambda x: np.full_like(np.atleast_1d(np.asarray(x, float)), k_const),
    )


def perturbed_hyperbolic_circle(
    rho: float, harmonics: Sequence, n_samples: int = 2048
) -> HyperbolicCurve:
    """Circle with harmonic radial perturbations rho(phi) = rho + sum(...)."""
    if rho <= 0.0:
        raise InvalidSpecError("need rho > 0")
    r_fn, dr_fn = harmonic_radius(rho, harmonics)
    points, s, length, _ = polar_curve(HYPERBOLOID, r_fn, dr_fn, int(n_samples))
    return _finish_hyperbolic_curve(points, s, length)


# ---------------------------------------------------------------------------
# the frame flow in so(2,1)
#
# The frame Y = rows (x, T, nu) of a unit-speed curve with geodesic
# curvature k obeys Y' = M(k) Y with M(k) = E + k F.  Together with
# C = [E, F] these span so(2,1), and every Omega = a E + b F + c C satisfies
# Omega^3 = lam Omega, lam = a^2 - b^2 + c^2, so exp(Omega) has a closed
# form.  Products of such exponentials stay in the group: the frame keeps
# <x,x> = -1, <T,T> = 1 and <x,T> = 0 to roundoff.

_E = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
_F = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
_C = _E @ _F - _F @ _E

MAGNUS_STEP = 0.0125  # h * max(1, |k|) of one Magnus step on a curvature ramp
AREA_PANEL = 0.25  # arc length * max(1, |k|) of one area quadrature panel
# numpy.polynomial.legendre.leggauss(8), written out so that importing this
# module does not import numpy.polynomial; a test checks them bit for bit
_GL_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
])
_GL_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
])
FRAME_CHUNK = 512  # samples per block of frames_at's (m, 3, 3) temporaries


def _so21_exp(a, b, c) -> np.ndarray:
    """exp(a E + b F + c C) for coefficient arrays, shape (m, 3, 3).

    exp(Omega) = I + f1 Omega + f2 Omega^2 with f1 = sinh(th)/th and
    f2 = (cosh(th) - 1)/th^2 = (sinh(th/2)/(th/2))^2 / 2 for lam = th^2 > 0,
    sin/cos for lam < 0, and their series near lam = 0.
    """
    omega = a[:, None, None] * _E + b[:, None, None] * _F + c[:, None, None] * _C
    lam = a * a - b * b + c * c
    th = np.sqrt(np.abs(lam))
    small = th < 1e-4
    th = np.where(small, 1.0, th)
    grow = lam > 0.0
    f1 = np.where(grow, np.sinh(th), np.sin(th)) / th
    g = np.where(grow, np.sinh(0.5 * th), np.sin(0.5 * th)) / (0.5 * th)
    f1 = np.where(small, 1.0 + lam / 6.0, f1)
    f2 = np.where(small, 0.5 + lam / 24.0, 0.5 * g * g)
    return np.eye(3) + f1[:, None, None] * omega + f2[:, None, None] * (omega @ omega)


def _propagators(h, k0, slope) -> np.ndarray:
    """Fourth-order Magnus propagators over [s, s + h] where k = k0 + slope (. - s).

    The two-point Gauss rule (h/2)(M1 + M2) + (sqrt 3/12) h^2 [M2, M1]
    reduces, for linear k, to h M(k at the midpoint) - slope h^3/12 C; on a
    constant piece (slope 0) it is the exact flow for any h.
    """
    return _so21_exp(h, h * (k0 + 0.5 * slope * h), -slope * h**3 / 12.0)


def _parts(knots, values, size) -> np.ndarray:
    """Parts per piece so that each has arc length * max(1, |k|) <= size."""
    kmax = np.maximum(np.abs(values[:-1]), np.abs(values[1:]))
    return np.ceil(np.diff(knots) * np.maximum(kmax, 1.0) / size)


def _subdivide(knots, values, counts):
    """Split piece i of the profile into counts[i] equal parts.

    Returns each part's start, length, curvature at the start and slope.
    """
    counts = np.asarray(counts, dtype=int)
    piece = np.repeat(np.arange(len(counts)), counts)
    j = np.arange(counts.sum()) - (np.cumsum(counts) - counts)[piece]
    lengths = np.diff(knots)
    h = (lengths / counts)[piece]
    slope = (np.diff(values) / lengths)[piece]
    offset = j * h
    return knots[:-1][piece] + offset, h, values[:-1][piece] + slope * offset, slope


def _green_area(frames_at, knots, values, center) -> float:
    """Polar Green integral of (cosh r - 1) dphi over the profile.

    Gauss-Legendre panels never straddle a knot, so each sees an analytic
    integrand.
    """
    start, h, _, _ = _subdivide(knots, values, _parts(knots, values, AREA_PANEL))
    s = (start + 0.5 * h)[:, None] + (0.5 * h)[:, None] * _GL_NODES
    weights = (0.5 * h)[:, None] * _GL_WEIGHTS
    frames = frames_at(s.ravel())
    x, tvec = frames[:, 0], frames[:, 1]
    e1, e2 = HYPERBOLOID.polar_frame(center)
    u, v = mdot(x, e1), mdot(x, e2)
    du, dv = mdot(tvec, e1), mdot(tvec, e2)
    weight = HYPERBOLOID.green_weight(x, center)
    integrand = weight * (u * dv - v * du) / (u * u + v * v)
    return float(np.sum(weights.ravel() * integrand))


def _integrate_profile(knots, values):
    """Carry the frame from ``_START_STATE`` through a piecewise-linear curvature profile.

    Constant pieces take one exact step; ramps take Magnus steps with
    h max(1, |k|) <= MAGNUS_STEP.  Returns the end state (x, T) and
    ``frames_at(s)``, the frames at arc lengths s as rows (x, T, nu), shape
    (m, 3, 3).
    """
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    x0, t0 = _START_STATE[0:3], _START_STATE[3:6]
    counts = np.where(values[1:] != values[:-1], _parts(knots, values, MAGNUS_STEP), 1)
    nodes, h, k_nodes, slopes = _subdivide(knots, values, counts)
    frame = np.array([x0, t0, mcross(t0, x0)])
    trail = [frame]
    for step in _propagators(h, k_nodes, slopes):
        frame = step.dot(frame)
        trail.append(frame)
    frames = None

    def frames_at(s):
        # one partial step from the node at or before each s, in blocks of
        # FRAME_CHUNK samples; the frames at the nodes are stacked on first use
        nonlocal frames
        if frames is None:
            frames = np.array(trail)
        j = np.clip(np.searchsorted(nodes, s, side="right") - 1, 0, len(nodes) - 1)
        out = np.empty((len(s), 3, 3))
        for lo in range(0, len(s), FRAME_CHUNK):
            part = j[lo:lo + FRAME_CHUNK]
            step = _propagators(s[lo:lo + FRAME_CHUNK] - nodes[part], k_nodes[part], slopes[part])
            np.matmul(step, frames[part], out=out[lo:lo + FRAME_CHUNK])
        return out

    return frame[0:2].ravel(), frames_at


# ---------------------------------------------------------------------------
# rounded semicircle: convex but not horocyclically convex


@dataclass(frozen=True)
class RoundedSemicircleSpec:
    """Semicircular region with smoothed corners and a near-flat diameter.

    ``r`` is the radius, ``corner_scale`` the arc length of each linear
    curvature ramp at the two corners, ``flat_deviation`` the small
    constant curvature given to the smoothed diameter.
    """

    r: float
    corner_scale: float = 0.02
    flat_deviation: float = 0.05
    n_samples: int = 4096

    def __post_init__(self):
        if not 0.0 < self.r < np.inf:
            raise InvalidSpecError("need finite r > 0")
        if not 0.0 < self.corner_scale < np.inf:
            raise InvalidSpecError("need finite corner_scale > 0")
        if not 0.0 < self.flat_deviation < 1.0:
            raise InvalidSpecError("need 0 < flat_deviation < 1")
        if self.n_samples < 16:
            raise InvalidSpecError("need n_samples >= 16")


def semicircle_reference(r: float):
    """Exact (perimeter, area, mean curvature) of the unsmoothed half-disc."""
    length = 2.0 * r + np.pi * np.sinh(r)
    area = np.pi * (np.cosh(r) - 1.0)
    return length, area, (TWO_PI + area) / length


def _corner_peak(r: float, corner_scale: float, flat_deviation: float) -> float:
    # each corner turns the tangent by ~pi/2 across two linear ramps
    arc_k = 1.0 / np.tanh(r)
    peak = np.pi / (2.0 * corner_scale) - 0.5 * (arc_k + flat_deviation)
    if peak <= arc_k:
        raise InvalidSpecError("corner_scale too large to form a corner")
    return peak


def _half_profile(r, corner_scale, flat_deviation, half_flat, half_arc):
    arc_k = 1.0 / np.tanh(r)
    peak = _corner_peak(r, corner_scale, flat_deviation)
    knots = np.array(
        [
            0.0,
            half_flat,
            half_flat + corner_scale,
            half_flat + 2.0 * corner_scale,
            half_flat + 2.0 * corner_scale + half_arc,
        ]
    )
    values = np.array([flat_deviation, flat_deviation, peak, arc_k, arc_k])
    return knots, values


_START_STATE = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0])


def _shoot_half(r, corner_scale, flat_deviation, lengths):
    half_flat, half_arc = lengths
    if not (1e-6 <= half_flat < np.inf and 1e-6 <= half_arc < np.inf):
        return np.array([10.0 + abs(half_flat), 10.0 + abs(half_arc)])
    knots, values = _half_profile(r, corner_scale, flat_deviation, half_flat, half_arc)
    y, _ = _integrate_profile(knots, values)
    x, tvec = y[0:3], y[3:6]
    # end on the mirror geodesic x2 = 0, tangent perpendicular to it
    return np.array([x[2], -tvec[0] * x[1] + tvec[1] * x[0]])


def build_rounded_semicircle(spec: RoundedSemicircleSpec) -> HyperbolicCurve:
    """Construct the smoothed half-disc boundary by curvature shooting.

    The curvature profile is piecewise linear in arc length: a near-flat
    stretch (the smoothed diameter), two corner blends ramping up to a
    large peak and back down to coth r, and the circular arc.  Bilateral
    symmetry reduces closure to a 2-unknown shooting problem for the flat
    and arc lengths; the closed curve is C^2 and convex but not
    horocyclically convex.

    Each shot carries the frame with closed-form so(2,1) exponentials: one
    exact step per constant piece, fourth-order Magnus steps on the ramps.
    The solver's shots are kept for the length of one build, so each
    distinct (half_flat, half_arc) vector is integrated once.
    Each sample is one partial step from the step node before it, so it sits
    on the hyperboloid to roundoff as integrated.  ``build_residual`` is the
    closure gap of the full loop; ``gb_residual`` compares the exact total
    turning with 2 pi + A, where A comes from quadrature of the polar Green
    integrand.  A shooting residual above 5e-10 raises
    :class:`NumericalFailureError`.
    """
    r, c, eps = spec.r, spec.corner_scale, spec.flat_deviation
    _corner_peak(r, c, eps)  # validate early
    guess = np.array([max(r - c, 0.1), max(0.5 * np.pi * np.sinh(r) - c, 0.1)])
    shots = {}

    def residual(v):
        # hybr evaluates some vectors more than once (the guess twice);
        # a shot depends on the exact floats only, so each is integrated once
        key = v.tobytes()
        if key not in shots:
            shots[key] = _shoot_half(r, c, eps, v)
        return shots[key].copy()

    # shots at huge r overflow to inf or NaN, which the residual gate rejects;
    # hybr returns the shot at its solution as info["fvec"].  The arguments
    # are those scipy.optimize.root(method="hybr", options={"xtol": 1e-12})
    # passes: full output, maxfev 200 (n + 1), a dense forward-difference
    # Jacobian with step eps, factor 100 and MINPACK's own scaling
    with np.errstate(over="ignore", invalid="ignore"):
        solved = root(residual, guess, (), 1, 1e-12, 600, -10, -10, np.finfo(float).eps, 100, None)
        resid = float(np.linalg.norm(solved[1]["fvec"]))
    if not resid <= 5e-10:  # a NaN residual fails too
        raise NumericalFailureError(f"corner shooting failed to close (residual {resid:.3g})")
    half_flat, half_arc = solved[0]

    arc_k = 1.0 / np.tanh(r)
    peak = _corner_peak(r, c, eps)
    length = 2.0 * half_flat + 4.0 * c + 2.0 * half_arc
    knots = np.array(
        [
            0.0,
            half_flat,
            half_flat + c,
            half_flat + 2.0 * c,
            half_flat + 2.0 * c + 2.0 * half_arc,
            length - half_flat - c,
            length - half_flat,
            length,
        ]
    )
    values = np.array([eps, eps, peak, arc_k, arc_k, peak, eps, eps])

    n = int(spec.n_samples)
    s = np.arange(n) * (length / n)
    y_end, frames_at = _integrate_profile(knots, values)
    closure = float(np.linalg.norm(y_end[0:3] - _START_STATE[0:3]))
    samples = frames_at(s)
    points, tangents, nu = samples[:, 0], samples[:, 1], samples[:, 2]
    center = normalize_timelike(points.mean(axis=0))
    area = _green_area(frames_at, knots, values, center)

    k = np.interp(s, knots, values)
    total_turn = float((np.diff(knots) * (values[1:] + values[:-1]) / 2.0).sum())
    period = length

    def curv_fn(x):
        return np.interp(np.mod(x, period), knots, values)

    return HyperbolicCurve(
        geometry=HYPERBOLIC,
        points=points,
        s=s,
        k=k,
        L=float(length),
        A=area,
        param=s,
        tangent=tangents,
        normal=nu,
        w=np.full(n, length / n),
        curv_fn=curv_fn,
        anchor=center,
        gb_residual=abs(total_turn - (TWO_PI + area)),
        build_residual=closure,
    )


# ---------------------------------------------------------------------------
# counterexample pipeline


def semicircle_mean_gap(r: float) -> float:
    """coth r minus the exact semicircle mean curvature; positive past threshold."""
    return 1.0 / np.tanh(r) - semicircle_reference(r)[2]


def counterexample_threshold() -> float:
    """Locate the radius r* where the semicircle mean curvature crosses coth r.

    The sign change is found on a scan of 4096 radii in [0.05, 5] and
    refined by brentq; a scan with other than one sign change raises.
    """
    rs = np.linspace(0.05, 5.0, 4096)
    gs = semicircle_mean_gap(rs)
    flips = np.flatnonzero(np.sign(gs[:-1]) * np.sign(gs[1:]) < 0)
    if len(flips) != 1:
        raise OvalfrontError(f"expected one threshold crossing, found {len(flips)}")
    i = int(flips[0])
    # the gap is finite for every r > 0, so brentq needs no NaN guard here
    return float(brentq(semicircle_mean_gap, rs[i], rs[i + 1], 1e-12, *BRENTQ_DEFAULTS))


def counterexample_verdict(spec: RoundedSemicircleSpec) -> tuple[HyperbolicCurve, dict]:
    """Build the rounded semicircle and count mean-curvature attainments.

    Past the threshold radius the mean curvature falls below coth r and,
    with this smoothing profile, is attained exactly twice (once on each
    corner ramp): a convex curve where the four-point conclusion fails.
    Returns the curve and the fields of the counterexample report.
    """
    curve = build_rounded_semicircle(spec)
    profile = curvature_profile(curve)
    kbar = profile.mean
    coth_r = 1.0 / np.tanh(spec.r)
    count = len(profile.crossing_params)
    below = bool(kbar < coth_r)
    convex = bool(curve.min_k > 0.0)
    return curve, {
        "mean_curvature": float(kbar),
        "coth_r": float(coth_r),
        "mean_below_coth": below,
        "attainment_count": count,
        "attainment_params": profile.crossing_params,
        "convex": convex,
        "horocyclically_convex": curve.horocyclic_convex,
        "counterexample": below and convex and count < 4,
    }
