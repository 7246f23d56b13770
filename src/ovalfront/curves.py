"""Shared sampled-curve representation, the space-form core, and profiles.

Every geometry module produces :class:`SampledCurve` instances (or a
subclass) sampled on a uniform parameter grid, carrying arc length,
curvature, quadrature weights and the outward coorientation.

The three geometries differ only in their curvature sign K = 0, +1, -1
and their ambient inner product.  With (c_K, s_K) = (1, t), (cos t, sin t),
(cosh t, sinh t), a front moves x to c_K x + s_K nu, its factor is
c_K + s_K k, the mean curvature is (2 pi - K A)/L and the isoperimetric
defect L^2 - A(4 pi - K A) is invariant along the flow.  A
:class:`SpaceForm` record holds what differs; curvature, fronts, cusps,
the polar Green area and the mean-curvature checks are written once on top
of it.  Profile analysis (where does the curvature cross its geometric
mean?) lives here for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from . import _kernels as kernels
from .errors import BadParametrizationError, DegenerateProfileError

EUCLIDEAN = "euclidean"
SPHERICAL = "spherical"
HYPERBOLIC = "hyperbolic"
GEOMETRIES = (EUCLIDEAN, SPHERICAL, HYPERBOLIC)

TWO_PI = 2.0 * np.pi

# Hysteresis band for mean-crossing counts, relative to the profile scale.
CROSSING_TOL_FACTOR = 1e-7
# Parameter tolerance for refined crossing/cusp locations.
ROOT_XTOL = 1e-10
# Largest allowed deviation of unit-speed samples from speed 1.
SPEED_TOL = 1e-6
# |measured speed| below this counts as a cusp sample in fronts.
CUSP_SPEED_GUARD = 1e-9
# The front lemma skips a time where the front factor comes this close to 0.
LEMMA_GUARD = 0.05
# Dense-grid factor of the inverse arc-length map in resampling.
RESAMPLE_OVERSAMPLE = 8


@dataclass(frozen=True, eq=False, kw_only=True)
class SampledCurve:
    """A closed curve sampled on a uniform parameter grid.

    Attributes
    ----------
    geometry : str
        One of ``euclidean``, ``spherical``, ``hyperbolic``.
    points : ndarray, shape (n, 2) or (n, 3)
        Ambient coordinates (plane pairs, unit-sphere triples, hyperboloid
        triples).
    s : ndarray, shape (n,)
        Arc length at each sample; ``s[0] == 0``, strictly increasing,
        wrap gap ``L - s[-1]`` positive.
    k : ndarray, shape (n,)
        Geodesic curvature at each sample.
    L, A : float
        Total length and enclosed area.
    param : ndarray
        The build parameter grid (normal angle for support-function ovals,
        arc length for resampled curves).  Uniformly spaced.
    tangent, normal : ndarray
        Unit tangent and outward unit normal fields.
    w : ndarray
        Per-sample quadrature weights with ``sum(w) == L``.
    curv_fn : callable, optional
        ``k(param)`` as a callable, analytic when the construction knows
        it; used for root refinement.
    radius_fn : callable, optional
        Curvature radius ``R(param)`` (Euclidean support builds only).

    :attr:`profile` is computed on first read and kept, so the arrays must
    not be mutated once the curve is built.
    """

    geometry: str
    points: np.ndarray
    s: np.ndarray
    k: np.ndarray
    L: float
    A: float
    param: Optional[np.ndarray] = None
    tangent: Optional[np.ndarray] = None
    normal: Optional[np.ndarray] = None
    w: Optional[np.ndarray] = None
    curv_fn: Optional[Callable] = None
    radius_fn: Optional[Callable] = None

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry tag {self.geometry!r}")
        s = np.asarray(self.s, dtype=float)
        if s.size and (s[0] != 0.0 or np.any(np.diff(s) <= 0.0)):
            raise BadParametrizationError("s must start at 0 and increase")
        if s.size and self.L - s[-1] <= 0.0:
            raise BadParametrizationError("wrap gap L - s[-1] must be positive")

    @property
    def n_samples(self) -> int:
        return len(self.points)

    @property
    def period(self) -> float:
        """Period of the build parameter (2 pi for angle grids, L for s)."""
        p = self.param
        if p is None:
            return self.L
        return float(p[-1] + (p[1] - p[0])) if len(p) > 1 else self.L

    @cached_property
    def profile(self) -> "CurvatureProfile":
        """Curvature profile with its mean crossings (the attainment set).

        A constant curvature raises :class:`DegenerateProfileError` on every
        read, before any root refinement.
        """
        profile = CurvatureProfile(
            values=np.asarray(self.k, dtype=float),
            mean=average_curvature(self),
            param=np.asarray(_param(self), dtype=float),
            period=self.period,
            fn=self.curv_fn,
        )
        return replace(profile, crossing_params=count_mean_crossings(profile).crossings)


# ---------------------------------------------------------------------------
# the space-form core


@dataclass(frozen=True, eq=False)
class SpaceForm:
    """What tells the plane, the sphere and the hyperboloid apart.

    ``c(t)`` and ``s(t)`` are c_K and s_K.  ``dot`` is the ambient inner
    product over the last axis (Minkowski on the hyperboloid); ``cross(v,
    x)`` turns a tangent v at x into the outward conormal direction, v x n
    with n the surface normal at x (x itself on the sphere and hyperboloid,
    e_z for the plane at z = 1).  ``front_area(points, curve, period)``
    returns the enclosed area of front samples and the area anchor (pole or
    centre) the front keeps for its own fronts.  ``polar(r, phi)`` is the
    point at distance r and angle phi from the model's centre (the north
    pole, the hyperboloid vertex); the plane builds no polar curves.
    """

    geometry: str
    K: int
    c: Callable[[float], float]
    s: Callable[[float], float]
    dot: Callable
    cross: Callable
    front_area: Callable
    polar: Optional[Callable] = None

    def norm(self, v: np.ndarray) -> np.ndarray:
        """Ambient length over the last axis; 0 for non-spacelike vectors."""
        return np.sqrt(np.maximum(self.dot(v, v), 0.0))

    def polar_frame(self, center: np.ndarray):
        """Orthonormal tangent pair (e1, e2) at ``center`` for polar angles.

        e1 = seed - K<seed, c> c and e2 = cross(c, e1).  The seed is the first
        spacelike coordinate axis with <e1, e1> > 1 - 0.9^2: on the sphere one
        with |<seed, c>| < 0.9, on the hyperboloid always the x1 axis.
        """
        axes = np.eye(3)
        for seed in axes[self.dot(axes, axes) > 0.0]:
            e1 = seed - self.K * self.dot(seed, center) * center
            if self.dot(e1, e1) > 1.0 - 0.9**2:
                break
        e1 = e1 / self.norm(e1)
        return e1, self.cross(center, e1)

    def green_weight(self, x: np.ndarray, center: np.ndarray) -> np.ndarray:
        """Polar area density (1 - K<x, c>)/K: 1 - cos r or cosh r - 1."""
        return np.maximum((1.0 - self.K * self.dot(x, center)) / self.K, 0.0)

    def green_area(self, points: np.ndarray, center: np.ndarray, spacing: float) -> float:
        """Enclosed area loop(green_weight dphi) in polar coordinates about ``center``.

        ``center`` must lie inside the loop.  The polar angle is split into a
        winding ramp plus a periodic remainder, and only the remainder is
        differentiated, so the result is spectrally accurate for smooth loops.
        """
        e1, e2 = self.polar_frame(center)
        phi = np.arctan2(self.dot(points, e2), self.dot(points, e1))
        steps = np.angle(np.exp(1j * (np.roll(phi, -1) - phi)))
        winding = float(steps.sum()) / TWO_PI
        n = len(phi)
        ramp = winding * TWO_PI * np.arange(n) / n
        periodic = np.cumsum(np.concatenate([[0.0], steps[:-1]])) - ramp + phi[0]
        dphi = kernels.periodic_deriv(periodic, 1, spacing) + winding * TWO_PI / (n * spacing)
        return float(np.sum(self.green_weight(points, center) * dphi) * spacing)


def euclidean_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean inner product over the last axis."""
    if np.ndim(b) == 1:  # against one vector: a matrix product, several times faster
        return a @ b
    return np.sum(a * b, axis=-1)


PLANE = SpaceForm(
    geometry=EUCLIDEAN,
    K=0,
    c=lambda t: 1.0,
    s=lambda t: t,
    dot=euclidean_dot,
    cross=lambda v, x: np.column_stack([v[:, 1], -v[:, 0]]),
    front_area=lambda points, curve, period: (parametric_area(points, period), None),
)

# geometry tag -> SpaceForm; sphere.py and hyperbolic.py add K = +1 and -1
SPACE_FORMS = {EUCLIDEAN: PLANE}


def space_form(geometry: str) -> SpaceForm:
    """The :class:`SpaceForm` record of a geometry tag."""
    if geometry not in SPACE_FORMS:
        raise ValueError(f"unknown geometry tag {geometry!r}")
    return SPACE_FORMS[geometry]


def average_curvature(curve: SampledCurve) -> float:
    """Geometric mean curvature (2pi - K A)/L: 2pi/L, (2pi - A)/L or (2pi + A)/L."""
    if curve.L <= 0.0:
        raise ValueError("curve has non-positive length")
    return (TWO_PI - space_form(curve.geometry).K * curve.A) / curve.L


def defect_value(geometry: str, length: float, area: float) -> float:
    """Isoperimetric defect L^2 - A(4pi - K A), invariant under propagation."""
    return length**2 - area * (4.0 * np.pi - space_form(geometry).K * area)


def gauss_bonnet_residual(curve) -> float:
    """|integral(k ds) - (2 pi - K A)| for the measured curve."""
    total = float(np.sum(np.asarray(curve.k) * np.asarray(curve.w)))
    return abs(total - (TWO_PI - space_form(curve.geometry).K * curve.A))


def steiner_closed_form(curve, t):
    """Signed length and area of the front at distance t, in closed form.

    L_t = L c_K + (2 pi - K A) s_K.  A_t = A + L t + pi t^2 in the plane, and
    K 2 pi + L s_K - K (2 pi - K A) c_K for K = +-1, where 1/K = K.
    """
    form = space_form(curve.geometry)
    c, s = form.c(t), form.s(t)
    b = TWO_PI - form.K * curve.A
    length = curve.L * c + b * s
    if form.K == 0:
        return length, curve.A + curve.L * t + np.pi * t**2
    return length, form.K * TWO_PI + curve.L * s - form.K * b * c


# ---------------------------------------------------------------------------
# curvature profiles


@dataclass(frozen=True, eq=False)
class CurvatureProfile:
    """Periodic curvature samples together with their geometric mean."""

    values: np.ndarray
    mean: float
    param: np.ndarray
    period: float
    fn: Optional[Callable] = None
    crossing_params: Optional[np.ndarray] = None


@dataclass(frozen=True, eq=False)
class CrossingReport:
    """Outcome of a mean-crossing count."""

    count: int
    crossings: np.ndarray  # refined parameter values, transversal only
    touches: np.ndarray  # (k, 2) parameter intervals that touch the mean


def periodic_interpolant(param: np.ndarray, values: np.ndarray, period: float):
    """Periodic cubic spline through one period of samples, (n,) or (n, d)."""
    p = np.append(param, param[0] + period)
    v = np.concatenate([values, values[:1]])
    spline = CubicSpline(p, v, bc_type="periodic")
    lo = param[0]

    def fn(x):
        return spline(lo + np.mod(x - lo, period))

    return fn


def eval_scalar(fn, x) -> float:
    """Evaluate a possibly array-returning callable at one point."""
    return float(np.asarray(fn(x)).item())


def curvature_profile(curve: SampledCurve) -> CurvatureProfile:
    """The curve's :attr:`SampledCurve.profile`, computed once per curve."""
    return curve.profile


def radius_profile(curve: SampledCurve) -> CurvatureProfile:
    """Curvature-radius profile R = 1/k of a Euclidean oval, mean L/2pi."""
    if curve.geometry != EUCLIDEAN:
        raise ValueError("radius profiles are a Euclidean notion here")
    return CurvatureProfile(
        values=1.0 / np.asarray(curve.k, dtype=float),
        mean=curve.L / TWO_PI,
        param=np.asarray(_param(curve), dtype=float),
        period=curve.period,
        fn=curve.radius_fn,
    )


def count_mean_crossings(profile: CurvatureProfile) -> CrossingReport:
    """Count transversal crossings of ``values`` through ``mean``.

    The hysteresis band is ``CROSSING_TOL_FACTOR`` times the profile scale,
    max(|mean|, max|values - mean|).  Tangential touches (in-band runs that
    do not separate opposite signs) are reported separately and never
    counted as crossings.  Raises :class:`DegenerateProfileError` when the
    whole profile sits inside the band: the mean is attained everywhere
    (circle case).
    """
    dev = profile.values - profile.mean
    tol = CROSSING_TOL_FACTOR * max(abs(profile.mean), float(np.max(np.abs(dev))))
    if float(np.max(np.abs(dev))) <= tol:
        raise DegenerateProfileError(
            "profile constant within tolerance; mean attained everywhere"
        )
    pairs, touch_idx = kernels.transitions(dev, tol)

    fn = profile.fn
    if fn is None:
        fn = periodic_interpolant(profile.param, profile.values, profile.period)
    mean = profile.mean

    def g(x):
        return eval_scalar(fn, x) - mean

    crossings = _bracketed_roots(g, pairs, profile.param, profile.period)
    touches = np.empty((len(touch_idx), 2), dtype=float)
    for row, (i, j) in enumerate(touch_idx):
        touches[row] = (profile.param[i], profile.param[j])
    return CrossingReport(count=len(crossings), crossings=np.sort(crossings), touches=touches)


def _bracketed_roots(g, pairs, param, period: float) -> np.ndarray:
    """Roots of ``g`` in each grid bracket ``(i, j)``, refined by brentq.

    A bracket where ``g`` itself keeps one sign holds no root and is left
    out: the sampled signs can flip on roundoff where ``g`` does not (a
    circle's front factor at its collapse time).
    """
    roots = []
    for i, j in pairs:
        lo, hi = param[i], param[j]
        if hi <= lo:  # bracket wraps past the end of the grid
            hi += period
        try:
            roots.append(brentq(g, lo, hi, xtol=ROOT_XTOL) % period)
        except ValueError as err:
            if "different signs" not in str(err):
                raise
    return np.array(roots, dtype=float)


def _param(curve) -> np.ndarray:
    return np.asarray(curve.param if curve.param is not None else curve.s)


def _curvature_callable(curve):
    """``k(param)``: the analytic curvature when known, else a periodic spline."""
    if getattr(curve, "curv_fn", None) is not None:
        return curve.curv_fn
    return periodic_interpolant(_param(curve), np.asarray(curve.k), float(curve.period))


# ---------------------------------------------------------------------------
# spectral helpers on uniform periodic grids


def fft_deriv(values: np.ndarray, period: float = TWO_PI) -> np.ndarray:
    """Spectral derivative of uniformly spaced periodic samples."""
    v = np.asarray(values, dtype=float)
    coeff = np.fft.rfft(v)
    freq = 2j * np.pi * np.arange(coeff.size) / period
    return np.fft.irfft(coeff * freq, v.size)


def fourier_antiderivative(values: np.ndarray, period: float = TWO_PI) -> np.ndarray:
    """Cumulative integral of periodic samples, anchored at 0.

    Exact for every harmonic the grid resolves; the mean is integrated as
    a linear ramp.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    vbar = float(v.mean())
    coeff = np.fft.rfft(v - vbar)
    freq = 2j * np.pi * np.arange(coeff.size) / period
    with np.errstate(divide="ignore", invalid="ignore"):
        anti = np.where(freq != 0.0, coeff / freq, 0.0)
    osc = np.fft.irfft(anti, n)
    x = np.arange(n) * (period / n)
    return vbar * x + (osc - osc[0])


def parametric_area(points: np.ndarray, period: float) -> np.ndarray:
    """Algebraic shoelace area of a closed plane curve on a uniform grid.

    Computes 0.5 * integral(x y' - y x') with spectral parametric
    derivatives; valid for self-intersecting loops (signed, by winding).
    """
    x = points[:, 0]
    y = points[:, 1]
    dx = fft_deriv(x, period)
    dy = fft_deriv(y, period)
    return 0.5 * float(np.mean(x * dy - y * dx)) * period


# ---------------------------------------------------------------------------
# curvature of unit-speed samples


def _column_deriv(points: np.ndarray, order: int, spacing: float) -> np.ndarray:
    return np.column_stack(
        [kernels.periodic_deriv(points[:, j], order, spacing) for j in range(points.shape[1])]
    )


def check_unit_speed(points: np.ndarray, spacing: float, form: SpaceForm,
                     speed: np.ndarray) -> None:
    """Raise :class:`BadParametrizationError` unless the samples have speed 1.

    ``speed`` is the fourth-order stencil speed that the curvature formulas
    use, and it must be within ``SPEED_TOL`` of 1.  On the sphere and the
    hyperboloid, where the closed-form builders meet the stencil's own
    truncation error on sharply curved curves at coarse grids, the speed is
    measured again spectrally and the gate passes if either measurement is
    within ``SPEED_TOL``.  The curvature then carries the stencil's error,
    which on a circle is 5/3 of the stencil speed error (relative); a grid
    that is not unit-speed fails both measurements.
    """
    err = float(np.max(np.abs(speed - 1.0)))
    if err > SPEED_TOL and form.K != 0:
        period = spacing * len(points)
        d1 = np.column_stack([fft_deriv(points[:, j], period) for j in range(points.shape[1])])
        err = min(err, float(np.max(np.abs(form.norm(d1) - 1.0))))
    if not err <= SPEED_TOL:
        raise BadParametrizationError(f"speed deviates from 1 by {err:.3g}")


def _triple(form: SpaceForm, points, d1, d2) -> np.ndarray:
    """det[x, x', x''] per sample; the plane is embedded as (x, y, 1)."""
    if form.K == 0:
        return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    return np.einsum("ij,ij->i", np.cross(points, d1), d2)


def unit_speed_curvature(points: np.ndarray, spacing: float, form: SpaceForm):
    """Geodesic curvature and outward conormal of unit-speed samples.

    Returns ``(k, nu, d1)`` with k = det[x, x', x'']/|x'|^3 from fourth-order
    differences.  Raises :class:`BadParametrizationError` when the speed
    fails :func:`check_unit_speed`.
    """
    d1 = _column_deriv(points, 1, spacing)
    speed = form.norm(d1)
    check_unit_speed(points, spacing, form, speed)
    d2 = _column_deriv(points, 2, spacing)
    k = _triple(form, points, d1, d2) / speed**3
    nu = form.cross(d1, points)
    return k, nu / form.norm(nu)[:, None], d1


# ---------------------------------------------------------------------------
# equidistant fronts


@dataclass(frozen=True, eq=False)
class Front:
    """Equidistant front at signed distance t, parametrized like its base.

    ``k`` and ``normal`` are measured on the front samples (NaN at cusp
    samples) in the curved geometries; plane fronts leave them ``None``.
    Fronts of curved geometries carry what a curve needs to be propagated
    again.
    """

    base: object
    t: float
    geometry: str
    points: np.ndarray
    factor: np.ndarray  # c_K + s_K k_base
    regularity: np.ndarray  # sign of the factor per sample
    cusps: np.ndarray  # refined parameter values where the factor vanishes
    signed_length: float
    area: float
    param: np.ndarray
    s: np.ndarray
    period: float
    k: Optional[np.ndarray] = None
    normal: Optional[np.ndarray] = None
    anchor: Optional[np.ndarray] = None  # area pole (sphere) or centre (hyperboloid)

    @property
    def L(self) -> float:
        return self.signed_length

    @property
    def A(self) -> float:
        return self.area

    @property
    def w(self) -> np.ndarray:
        """Quadrature weights: the factor times the base weights."""
        return self.factor * np.asarray(self.base.w, dtype=float)

    @property
    def center(self) -> Optional[np.ndarray]:
        return self.anchor


def _measured_curvature(form: SpaceForm, points: np.ndarray, spacing: float):
    """Curvature and outward conormal of front samples; NaN at cusp samples."""
    d1 = _column_deriv(points, 1, spacing)
    d2 = _column_deriv(points, 2, spacing)
    speed = form.norm(d1)
    ok = speed > CUSP_SPEED_GUARD
    k = np.full(len(points), np.nan)
    normal = np.full_like(points, np.nan)
    k[ok] = _triple(form, points[ok], d1[ok], d2[ok]) / speed[ok] ** 3
    normal[ok] = form.cross(d1[ok] / speed[ok, None], points[ok])
    return k, normal


def propagate_front(curve, t: float) -> Front:
    """Front of a curve (or of a front) at signed distance t along its conormals."""
    form = space_form(curve.geometry)
    w = curve.w
    if curve.normal is None or w is None:
        raise ValueError("curve lacks normal/quadrature data")
    param, period = _param(curve), float(curve.period)
    c, s = form.c(t), form.s(t)
    factor = c + s * np.asarray(curve.k, dtype=float)
    points = c * curve.points + s * curve.normal
    cusps = np.empty(0)
    if t != 0.0:
        pairs, _ = kernels.transitions(factor, 0.0)
        if len(pairs):
            kfn = _curvature_callable(curve)

            def g(x):
                return c + s * eval_scalar(kfn, x)

            cusps = np.sort(_bracketed_roots(g, pairs, param, period))
    area, anchor = form.front_area(points, curve, period)
    k = normal = None
    if form.K != 0:
        k, normal = _measured_curvature(form, points, period / len(points))
    return Front(
        base=curve,
        t=float(t),
        geometry=form.geometry,
        points=points,
        factor=factor,
        regularity=np.sign(factor).astype(np.int8),
        cusps=cusps,
        signed_length=float(np.sum(factor * np.asarray(w, dtype=float))),
        area=area,
        param=param,
        s=np.asarray(curve.s, dtype=float),
        period=period,
        k=k,
        normal=normal,
        anchor=anchor,
    )


@dataclass(frozen=True, eq=False)
class LemmaReport:
    """Deviation of the front curvature at the attainment parameters from the mean.

    ``max_deviation`` is ``None`` when nothing was compared: every time was
    skipped, or the curve has no attainment parameter.
    """

    t_values: np.ndarray
    max_deviation: Optional[float]
    deviations: np.ndarray
    skipped: np.ndarray

    @classmethod
    def from_deviations(cls, t_values, deviations, skipped, stars) -> "LemmaReport":
        valid = deviations[~skipped]
        return cls(
            t_values=t_values,
            max_deviation=float(valid.max()) if valid.size and len(stars) else None,
            deviations=deviations,
            skipped=skipped,
        )


def sweep_fronts(curve: SampledCurve, fronts: Iterable[Front]):
    """Isoperimetric defects and front mean-curvature lemma, one front at a time.

    Returns ``(defects, lemma)``: the list of L_t^2 - A_t(4 pi - K A_t) and
    the :class:`LemmaReport` of :func:`mean_attainment_front_check`, or
    ``None`` for a degenerate profile (circle).  Each front of ``fronts``
    is read for both and dropped before the next, so a generator keeps one
    front alive at a time.
    """
    try:
        stars = curvature_profile(curve).crossing_params
    except DegenerateProfileError:
        stars = None
    K = space_form(curve.geometry).K
    ts, defects, devs, skipped = [], [], [], []
    for front in fronts:
        ts.append(front.t)
        defects.append(defect_value(curve.geometry, front.signed_length, front.area))
        skipped.append(stars is not None and float(np.min(np.abs(front.factor))) < LEMMA_GUARD)
        if stars is None or skipped[-1] or not stars.size:
            devs.append(np.nan)
            continue
        kfn = periodic_interpolant(front.s, front.k, front.period)
        kbar_t = (TWO_PI - K * front.area) / front.signed_length
        vals = np.array([eval_scalar(kfn, p) for p in stars])
        devs.append(float(np.max(np.abs(vals - kbar_t))))
    if stars is None:
        return defects, None
    lemma = LemmaReport.from_deviations(np.asarray(ts, dtype=float), np.asarray(devs, dtype=float),
                                        np.asarray(skipped, dtype=bool), stars)
    return defects, lemma


def mean_attainment_front_check(curve: SampledCurve, t_values: Sequence[float]) -> LemmaReport:
    """Attainment parameters keep mean front curvature under propagation.

    At parameters s* where k(s*) equals the mean (2 pi - K A)/L, the
    measured front curvature must equal (2 pi - K A_t)/L_t, computed from
    the measured front area and signed length.  Times where the front
    factor comes within ``LEMMA_GUARD`` of zero are skipped.  A circle raises
    :class:`DegenerateProfileError` before any front is built.
    """
    curvature_profile(curve)
    fronts = (propagate_front(curve, t) for t in t_values)
    return sweep_fronts(curve, fronts)[1]


# ---------------------------------------------------------------------------
# arc-length resampling


def arclength_resample(point_fn, n_samples: int, speed_fn):
    """Resample a closed parametric curve to uniform arc length.

    The inverse arc-length map is a spline through a dense grid of
    ``RESAMPLE_OVERSAMPLE * n_samples`` parameter values.

    Parameters
    ----------
    point_fn : callable
        Maps parameter values in [0, 2pi) to ambient points, shape (m, d).
    n_samples : int
        Number of output samples.
    speed_fn : callable
        Metric speed |dp/du| of the parametrization.

    Returns
    -------
    points, s, L, params
    """
    m = RESAMPLE_OVERSAMPLE * n_samples
    u = np.arange(m) * (TWO_PI / m)
    vel = np.asarray(speed_fn(u), dtype=float)
    if np.any(vel <= 0.0):
        raise BadParametrizationError("parametrization speed must stay positive")
    s_dense = fourier_antiderivative(vel)
    total = float(vel.mean()) * TWO_PI
    u_of_s = CubicSpline(np.append(s_dense, total), np.append(u, TWO_PI))
    s = np.arange(n_samples) * (total / n_samples)
    params = np.asarray(u_of_s(s), dtype=float)
    params[0] = 0.0
    return np.asarray(point_fn(params), dtype=float), s, total, params


def harmonic_radius(rho: float, harmonics: Sequence):
    """r(phi) = rho + sum(a cos(m phi + p)) over (m, a, p) triples, and r'(phi)."""
    terms = [(int(m), float(a), float(p)) for m, a, p in harmonics]

    def r_fn(phi):
        r = np.full_like(np.asarray(phi, dtype=float), rho)
        for m, a, p in terms:
            r = r + a * np.cos(m * np.asarray(phi) + p)
        return r

    def dr_fn(phi):
        d = np.zeros_like(np.asarray(phi, dtype=float))
        for m, a, p in terms:
            d = d - a * m * np.sin(m * np.asarray(phi) + p)
        return d

    return r_fn, dr_fn


def polar_curve(form: SpaceForm, r_fn, dr_fn, n_samples: int):
    """Arc-length samples of the closed curve r = r_fn(phi) in polar coordinates.

    The metric speed is sqrt(r'^2 + s_K(r)^2); returns what
    :func:`arclength_resample` returns.
    """

    def point_fn(phi):
        return form.polar(r_fn(phi), phi)

    def speed_fn(phi):
        return np.sqrt(dr_fn(phi) ** 2 + form.s(r_fn(phi)) ** 2)

    return arclength_resample(point_fn, n_samples, speed_fn)


def polar_circle(form: SpaceForm, rho: float, n_samples: int):
    """``(points, s, L)`` of the circle of radius rho at uniform arc length."""
    n = int(n_samples)
    length = TWO_PI * form.s(rho)
    s = np.arange(n) * (length / n)
    return form.polar(np.full(n, rho), s / form.s(rho)), s, length


def closed_spline_through(points: np.ndarray, form: SpaceForm = PLANE):
    """Periodic spline through discrete closed-loop samples.

    Parametrized by chordal estimate scaled onto [0, 2pi); returns
    ``(point_fn, speed_fn)`` suitable for :func:`arclength_resample`, with
    the speed measured in the ambient metric of ``form``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) < 8:
        raise BadParametrizationError("need at least 8 points on the loop")
    closed = np.vstack([pts, pts[:1]])
    chord = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    if np.any(chord <= 0.0):
        raise BadParametrizationError("repeated consecutive points")
    u = np.concatenate([[0.0], np.cumsum(chord)])
    u *= TWO_PI / u[-1]
    spline = CubicSpline(u, closed, bc_type="periodic")
    dspline = spline.derivative()

    def point_fn(t):
        return spline(np.mod(t, TWO_PI))

    def speed_fn(t):
        return form.norm(dspline(np.mod(t, TWO_PI)))

    return point_fn, speed_fn


def resample_surface_loop(points: np.ndarray, n_samples: int, form: SpaceForm, project):
    """``(points, s, L)`` of a point loop on the sphere or hyperboloid at uniform arc length.

    ``project`` maps ambient points onto the surface.  Projecting the spline
    samples perturbs their speed slightly, so the resampling runs twice.
    """
    resampled = project(points)
    for _ in range(2):
        point_fn, speed_fn = closed_spline_through(resampled, form)
        pts, s, length, _ = arclength_resample(point_fn, int(n_samples), speed_fn)
        resampled = project(pts)
    return resampled, s, length
