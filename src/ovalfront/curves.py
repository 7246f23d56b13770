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

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import _kernels as kernels
from ._scipy import BRENTQ_DEFAULTS, brentq, dgtsv, dgttrf, dgttrs
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
# Largest allowed distance of input loop points from the sphere or hyperboloid.
SURFACE_TOL = 1e-6
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
    anchor : ndarray, optional
        The point the area was measured about (a pole on the sphere, a
        centre on the hyperboloid); fronts measure theirs about it too.
        ``None`` in the plane.

    :attr:`profile` and :attr:`curvature_fn` are computed on first read and
    kept, so the arrays must not be mutated once the curve is built.
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
    anchor: Optional[np.ndarray] = None

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
            fn=self.curvature_fn,
        )
        return replace(profile, crossing_params=count_mean_crossings(profile).crossings)

    @cached_property
    def curvature_fn(self) -> Callable:
        """``k(param)``: :attr:`curv_fn` when known, else a periodic spline built once."""
        if self.curv_fn is not None:
            return self.curv_fn
        return self.interpolant(self.k)

    @cached_property
    def _spline_grid(self) -> "_SplineGrid":
        """The periodic spline system of the parameter grid, factored once per curve."""
        p = _param(self)
        return _SplineGrid(np.append(p, p[0] + self.period), periodic=True)

    def interpolant(self, values: np.ndarray) -> Callable:
        """Periodic spline of per-sample ``values``, (n,) or (n, d), over the parameter."""
        return periodic_interpolant(_param(self), values, self.period, self._spline_grid)


# ---------------------------------------------------------------------------
# the space-form core


@dataclass(frozen=True, eq=False)
class SpaceForm:
    """What tells the plane, the sphere and the hyperboloid apart.

    ``c(t)`` and ``s(t)`` are c_K and s_K.  ``dot`` is the ambient inner
    product over the last axis (Minkowski on the hyperboloid); ``cross(v,
    x)`` turns a tangent v at x into the outward conormal direction, v x n
    with n the surface normal at x (x itself on the sphere and hyperboloid,
    e_z for the plane at z = 1).  ``finish(points, s, length)`` turns
    unit-speed samples into the geometry's curve.  ``critical_time(L, b)``
    is the t < 0 where L c_K(t) + b s_K(t) vanishes, b = 2 pi - K A.
    ``cusp_onset(k)`` is the earliest t that
    :func:`~ovalfront.wavefront.propagate` accepts for a curve of curvature
    k: -inf, except on the hyperboloid for a curve that is not
    horocyclically convex.  ``floor`` is the curvature that k must exceed
    everywhere for the four-point guarantee, which :meth:`convex` tests: 0,
    and just above 1 (horocyclic convexity) on the hyperboloid.
    ``polar(r, phi)`` is the point at distance r and angle phi from the
    model's centre (the north pole, the hyperboloid vertex); the plane
    builds no polar curves.  ``project`` maps ambient
    points onto the surface, and ``off_surface(points)`` is ``(deviation,
    rule)``: how far they lie off it, and what they must satisfy; the plane
    has neither.
    """

    geometry: str
    K: int
    c: Callable[[float], float]
    s: Callable[[float], float]
    dot: Callable
    cross: Callable
    critical_time: Callable[[float, float], float]
    finish: Callable
    cusp_onset: Callable[[np.ndarray], float] = lambda k: -np.inf
    floor: float = 0.0
    polar: Optional[Callable] = None
    project: Optional[Callable] = None
    off_surface: Optional[Callable] = None

    def convex(self, k: np.ndarray) -> bool:
        """min k > ``floor``: whether the four-point guarantee applies; False when k holds NaN."""
        return float(np.min(k)) > self.floor

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
        n = len(phi)
        # 0, then the cyclic steps phi[i + 1] - phi[i] wrapped into (-pi, pi]
        steps = np.empty(n + 1)
        steps[0] = 0.0
        np.subtract(phi[1:], phi[:-1], out=steps[1:n])
        steps[n] = phi[0] - phi[-1]
        steps[1:] = np.angle(np.exp(1j * steps[1:]))
        winding = float(steps[1:].sum()) / TWO_PI
        periodic = np.cumsum(steps[:n])
        periodic -= winding * TWO_PI * np.arange(n) / n
        periodic += phi[0]
        dphi = kernels.periodic_deriv(periodic, 1, spacing)
        dphi += winding * TWO_PI / (n * spacing)
        dphi *= self.green_weight(points, center)
        return float(np.sum(dphi) * spacing)

    def front_area(self, points: np.ndarray, anchor, period: float) -> float:
        """Enclosed area of front samples: parametric in the plane, else Green about ``anchor``."""
        if self.K == 0:
            return parametric_area(points, period)
        return self.green_area(points, anchor, period / len(points))


def euclidean_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean inner product over the last axis; neither input is modified.

    Column products are summed into one array as ((0.0 + a0 b0) + a1 b1) +
    a2 b2, the order in which ``np.sum(a * b, axis=-1)`` adds 2 or 3 terms,
    so the floats are its floats, signed zeros included.
    """
    if np.ndim(b) == 1:  # against one vector: a matrix product, several times faster
        return a @ b
    out = np.multiply(a[..., 0], b[..., 0])
    out += 0.0
    term = np.empty_like(out)
    for j in range(1, np.shape(a)[-1]):
        out += np.multiply(a[..., j], b[..., j], out=term)
    return out


def _finish_plane_curve(points, s, length) -> SampledCurve:
    """The plane curve of unit-speed samples, which must run counterclockwise."""
    n = len(points)
    spacing = length / n
    k, normal, _ = unit_speed_curvature(points, spacing, PLANE)
    area = parametric_area(points, length)
    if area <= 0.0:
        raise BadParametrizationError("expected a counterclockwise loop")
    return SampledCurve(
        geometry=EUCLIDEAN,
        points=points,
        s=s,
        k=k,
        L=float(length),
        A=float(area),
        param=s,
        tangent=np.column_stack([-normal[:, 1], normal[:, 0]]),
        normal=normal,
        w=np.full(n, spacing),
    )


PLANE = SpaceForm(
    geometry=EUCLIDEAN,
    K=0,
    c=lambda t: 1.0,
    s=lambda t: t,
    dot=euclidean_dot,
    cross=lambda v, x: np.column_stack([v[:, 1], -v[:, 0]]),
    critical_time=lambda length, b: -(length / b),
    finish=_finish_plane_curve,
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


def critical_time(curve: SampledCurve) -> float:
    """The time t* < 0 where the signed front length L c_K + (2pi - K A) s_K vanishes.

    The cusps of the front at t* sit exactly where k equals its mean
    (2pi - K A)/L: at least four of them on a convex curve (a horocyclically
    convex one when K = -1), none on a circle, which collapses to a point.
    The hyperbolic time raises :class:`CothDomainError` when the mean is at
    most 1.
    """
    form = space_form(curve.geometry)
    return form.critical_time(curve.L, TWO_PI - form.K * curve.A)


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


def periodic_interpolant(param: np.ndarray, values: np.ndarray, period: float, grid=None):
    """Periodic cubic spline through one period of samples, (n,) or (n, d).

    Equal, float for float, to SciPy's periodic cubic spline through the
    samples and the first one again at ``param[0] + period``.
    ``grid`` is that knot grid's :class:`_SplineGrid` when the caller keeps
    one (a curve and its fronts share theirs); otherwise one is built here.
    """
    if grid is None:
        grid = _SplineGrid(np.append(param, param[0] + period), periodic=True)
    v = np.asarray(values, dtype=float)
    spline = grid.spline(np.concatenate([v, v[:1]]))
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
    def f(x):
        gx = g(x)
        if math.isnan(gx):  # scipy.optimize.brentq's guard, with its message
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return gx

    roots = []
    for i, j in pairs:
        lo, hi = param[i], param[j]
        if hi <= lo:  # bracket wraps past the end of the grid
            hi += period
        try:
            roots.append(brentq(f, lo, hi, ROOT_XTOL, *BRENTQ_DEFAULTS) % period)
        except ValueError as err:
            if "different signs" not in str(err):
                raise
    return np.array(roots, dtype=float)


def _param(curve) -> np.ndarray:
    return np.asarray(curve.param if curve.param is not None else curve.s)


# ---------------------------------------------------------------------------
# spectral helpers on uniform periodic grids


@lru_cache(maxsize=8)
def _spectral_freq(m: int, period: float) -> np.ndarray:
    """The derivative factors 2 pi i j / period of rfft bins j < m, read-only."""
    freq = 2j * np.pi * np.arange(m) / period
    freq.flags.writeable = False
    return freq


def fft_deriv(values: np.ndarray, period: float = TWO_PI) -> np.ndarray:
    """Spectral derivative of uniformly spaced periodic samples, (n,) or (n, d).

    One rfft/irfft pair along the first axis; each column of an (n, d)
    block gets exactly what the 1-d call on it returns.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2):
        raise ValueError("values must be 1-d or 2-d")
    coeff = np.fft.rfft(v, axis=0)
    freq = _spectral_freq(len(coeff), float(period))
    if v.ndim == 2:
        freq = freq[:, None]
    return np.fft.irfft(coeff * freq, len(v), axis=0)


def fourier_antiderivative(values: np.ndarray, period: float = TWO_PI) -> np.ndarray:
    """Cumulative integral of periodic samples, anchored at 0.

    Exact for every harmonic the grid resolves; the mean is integrated as
    a linear ramp.  ``values`` is not modified.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    vbar = float(v.mean())
    coeff = np.fft.rfft(v - vbar)
    freq = _spectral_freq(coeff.size, float(period))
    coeff[0] = 0.0
    with np.errstate(invalid="ignore"):  # inf / freq, as coeff / freq gave it
        coeff[1:] /= freq[1:]
    osc = np.fft.irfft(coeff, n)
    osc -= osc[0]
    osc += vbar * (np.arange(n) * (period / n))
    return osc


def parametric_area(points: np.ndarray, period: float) -> np.ndarray:
    """Algebraic shoelace area of a closed plane curve on a uniform grid.

    Computes 0.5 * integral(x y' - y x') with spectral parametric
    derivatives; valid for self-intersecting loops (signed, by winding).
    """
    x = points[:, 0]
    y = points[:, 1]
    d = fft_deriv(points, period)
    return 0.5 * float(np.mean(x * d[:, 1] - y * d[:, 0])) * period


# ---------------------------------------------------------------------------
# curvature of unit-speed samples


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
        err = min(err, float(np.max(np.abs(form.norm(fft_deriv(points, period)) - 1.0))))
    if not err <= SPEED_TOL:
        raise BadParametrizationError(f"speed deviates from 1 by {err:.3g}")


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product a x b of float 3-vectors over the last axis, broadcast.

    The products and differences are those ``np.cross`` forms, in its
    order, so the floats are the same; its axis handling is left out.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def _triple(form: SpaceForm, points, d1, d2) -> np.ndarray:
    """det[x, x', x''] per sample; the plane is embedded as (x, y, 1)."""
    if form.K == 0:
        return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    return np.einsum("ij,ij->i", cross3(points, d1), d2)


def unit_speed_curvature(points: np.ndarray, spacing: float, form: SpaceForm):
    """Geodesic curvature and outward conormal of unit-speed samples.

    Returns ``(k, nu, d1)`` with k = det[x, x', x'']/|x'|^3 from fourth-order
    differences.  Raises :class:`BadParametrizationError` when the speed
    fails :func:`check_unit_speed`.
    """
    d1 = kernels.periodic_deriv(points, 1, spacing)
    speed = form.norm(d1)
    check_unit_speed(points, spacing, form, speed)
    d2 = kernels.periodic_deriv(points, 2, spacing)
    k = _triple(form, points, d1, d2) / speed**3
    nu = form.cross(d1, points)
    return k, nu / form.norm(nu)[:, None], d1


# ---------------------------------------------------------------------------
# equidistant fronts


@dataclass(frozen=True, eq=False)
class Front:
    """Equidistant front at signed distance t, parametrized like its base.

    :attr:`area`, :attr:`cusps`, :attr:`regularity` and
    :attr:`curvature_fn` are computed on first read and kept.  In the
    curved geometries so are :attr:`k` and :attr:`normal`, measured on the
    front samples with NaN at cusp samples; plane fronts leave them
    ``None``.  Fronts of curved geometries carry what a curve needs to be
    propagated again.
    """

    base: object
    t: float
    geometry: str
    points: np.ndarray
    factor: np.ndarray  # c_K + s_K k_base
    signed_length: float
    param: np.ndarray
    s: np.ndarray
    period: float
    anchor: Optional[np.ndarray] = None  # the base's SampledCurve.anchor

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
    def _spacing(self) -> float:
        return self.period / len(self.points)

    @cached_property
    def area(self) -> float:
        """Enclosed (signed) area of the front samples about :attr:`anchor`."""
        return space_form(self.geometry).front_area(self.points, self.anchor, self.period)

    @cached_property
    def regularity(self) -> np.ndarray:
        """Sign of the factor per sample."""
        return np.sign(self.factor).astype(np.int8)

    @cached_property
    def cusps(self) -> np.ndarray:
        """Refined parameter values where the factor vanishes, sorted."""
        if self.t == 0.0:
            return np.empty(0)
        pairs, _ = kernels.transitions(self.factor, 0.0)
        if not len(pairs):
            return np.empty(0)
        form = space_form(self.geometry)
        c, s = form.c(self.t), form.s(self.t)
        kfn = self.base.curvature_fn

        def g(x):
            return c + s * eval_scalar(kfn, x)

        return np.sort(_bracketed_roots(g, pairs, self.param, self.period))

    @cached_property
    def curvature_fn(self) -> Callable:
        """``k(param)`` as a periodic spline through the measured :attr:`k`."""
        return self.interpolant(self.k)

    def interpolant(self, values: np.ndarray) -> Callable:
        """Periodic spline of per-sample ``values`` on the parameter grid it keeps from its base."""
        return self.base.interpolant(values)

    @cached_property
    def _stencil(self):
        """x', |x'| and the regular-sample mask, shared by :attr:`k` and :attr:`normal`.

        A sample is a cusp sample, not regular, where |x'| <= ``CUSP_SPEED_GUARD``.
        """
        d1 = kernels.periodic_deriv(self.points, 1, self._spacing)
        speed = space_form(self.geometry).norm(d1)
        return d1, speed, speed > CUSP_SPEED_GUARD

    @cached_property
    def k(self) -> Optional[np.ndarray]:
        """Measured curvature det[x, x', x'']/|x'|^3; NaN at cusp samples."""
        if self.geometry == EUCLIDEAN:
            return None
        d1, speed, regular = self._stencil
        d2 = kernels.periodic_deriv(self.points, 2, self._spacing)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            k = _triple(space_form(self.geometry), self.points, d1, d2) / speed**3
        return np.where(regular, k, np.nan)

    @cached_property
    def normal(self) -> Optional[np.ndarray]:
        """Measured outward conormal (x'/|x'|) x n; NaN at cusp samples."""
        if self.geometry == EUCLIDEAN:
            return None
        d1, speed, regular = self._stencil
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            normal = space_form(self.geometry).cross(d1 / speed[:, None], self.points)
        return np.where(regular[:, None], normal, np.nan)


def propagate_front(curve, t: float) -> Front:
    """Front of a curve (or of a front) at signed distance t along its conormals.

    Only the points, the factor and the signed length are computed here;
    the rest of the :class:`Front` is measured when read.
    """
    form = space_form(curve.geometry)
    w = curve.w
    if curve.normal is None or w is None:
        raise ValueError("curve lacks normal/quadrature data")
    c, s = form.c(t), form.s(t)
    factor = c + s * np.asarray(curve.k, dtype=float)
    points = c * curve.points + s * curve.normal
    return Front(
        base=curve,
        t=float(t),
        geometry=form.geometry,
        points=points,
        factor=factor,
        signed_length=float(np.sum(factor * np.asarray(w, dtype=float))),
        param=_param(curve),
        s=np.asarray(curve.s, dtype=float),
        period=float(curve.period),
        anchor=curve.anchor,
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
        kfn = front.curvature_fn
        kbar_t = (TWO_PI - K * front.area) / front.signed_length
        vals = np.asarray(kfn(stars), dtype=float)
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
# cubic splines
#
# _SplineGrid and _Spline give the floats of SciPy's cubic spline
# interpolant (periodic and not-a-knot) as its PPoly base evaluates it.
# The band rows, the right-hand sides, the periodic condensation and the
# Hermite coefficients are those of SciPy's interpolate/_cubic.py,
# operation for operation (SciPy, BSD-3-Clause; Copyright (c) 2001-2002
# Enthought, Inc. and 2003-2024 SciPy Developers).  The tridiagonal solves are LAPACK's:
# dgtsv, as scipy.linalg.solve_banded calls it, for a one-off system, and
# for a periodic grid dgttrf once plus dgttrs per value set, which run
# dgtsv's eliminations and row interchanges in the same order (Anderson et
# al., LAPACK Users' Guide, ?gtsv, ?gttrf, ?gttrs).


class _SplineGrid:
    """The knots of a cubic spline and the part of its slope system they fix.

    A periodic grid factors SciPy's condensed (n-2)-row system once and
    solves its correction system (SciPy's ``s2``) once, so each value set
    costs one dgttrs; 4 knots solve their 2 rows with dgtsv, and 3 knots
    take SciPy's closed form.  The values' last sample must repeat the
    first.  A not-a-knot grid solves each value set with dgtsv.
    """

    def __init__(self, x: np.ndarray, periodic: bool):
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or len(x) < 4 - periodic:
            raise ValueError("a cubic spline needs 4 knots here, a periodic one 3 "
                             "(SciPy's cubic spline also takes fewer)")
        if not np.all(np.isfinite(x)):
            raise ValueError("`x` must contain only finite values.")
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise ValueError("`x` must be strictly increasing sequence.")
        self.x, self.dx, self.periodic = x, dx, periodic
        self.span = float(x[-1] - x[0])
        if not periodic or len(x) == 3:
            return
        m = len(x) - 2
        d = np.empty(m)
        d[0] = 2 * (dx[-1] + dx[0])
        d[1:] = 2 * (dx[:m - 1] + dx[1:m])
        du = np.concatenate([dx[-1:], dx[:m - 2]])
        self._band, self._lu = (dx[1:m], d, du), None
        if m > 2:  # SciPy's dgttrf wrapper refuses a 2-row system
            dl, d, du, du2, ipiv, info = dgttrf(*self._band)
            if info:
                raise np.linalg.LinAlgError("singular matrix")
            self._lu = dl, d, du, du2, ipiv
        b2 = np.zeros((m, 1))
        b2[0] = -dx[0]
        b2[-1] = -dx[-3]
        s2, info = self._solve(b2)
        self._s2 = s2 = s2.ravel()
        self._den = 2 * (dx[-1] + dx[-2]) + dx[-2] * s2[0] + dx[-1] * s2[-1]

    def _solve(self, b: np.ndarray):
        """``(s, info)`` of the condensed periodic system for the (m, k) right-hand sides ``b``."""
        if self._lu is None:
            return dgtsv(*self._band, b)[3:]
        return dgttrs(*self._lu, b, overwrite_b=1)

    def spline(self, y: np.ndarray) -> "_Spline":
        """The spline through values ``y``, (n,) or (n, d), at the knots."""
        y = np.asarray(y, dtype=float)
        if len(y) != len(self.x):
            raise ValueError("one value per knot is needed")
        if not np.all(np.isfinite(y)):
            raise ValueError("`y` must contain only finite values.")
        x, dx = self.x, self.dx
        n = len(x)
        # SciPy's expressions, evaluated in place where that keeps each float
        dxr = dx.reshape([dx.shape[0]] + [1] * (y.ndim - 1))
        slope = np.diff(y, axis=0)
        slope /= dxr
        info = 0
        if self.periodic and n == 3:
            # SciPy's closed form: one slope for all three knots
            s = np.empty(y.shape)
            s[:] = (slope / dxr).sum(0) / (1. / dxr).sum(0)
        elif self.periodic:
            m = n - 2
            b = np.empty((m,) + y.shape[1:])
            b[0] = 3 * (dxr[0] * slope[-1] + dxr[-1] * slope[0])
            _interior_rows(dxr, slope, b[1:])
            b_last = 3 * (dxr[-1] * slope[-2] + dxr[-2] * slope[-1])
            s1, info = self._solve(b.reshape(m, -1))
            s1 = s1.reshape(b.shape)
            s_m1 = (b_last - dx[-2] * s1[0] - dx[-1] * s1[-1]) / self._den
            s = np.empty(y.shape)
            np.multiply(self._s2.reshape(dxr[:m].shape), s_m1, out=s[:-2])
            s[:-2] += s1
            s[-2] = s_m1
            s[-1] = s[0]
        else:
            d = np.empty(n)
            np.add(dx[:-1], dx[1:], out=d[1:-1])
            d[1:-1] *= 2
            du = np.empty(n - 1)
            du[1:] = dx[:-1]
            dl = np.empty(n - 1)
            dl[:-1] = dx[1:]
            b = np.empty(y.shape)
            _interior_rows(dxr, slope, b[1:-1])
            d[0] = dx[1]
            du[0] = x[2] - x[0]
            w = x[2] - x[0]
            b[0] = ((dxr[0] + 2 * w) * dxr[1] * slope[0] + dxr[0]**2 * slope[1]) / w
            d[-1] = dx[-2]
            dl[-1] = x[-1] - x[-3]
            w = x[-1] - x[-3]
            b[-1] = (dxr[-1]**2 * slope[-2] + (2 * w + dxr[-1]) * dxr[-2] * slope[-1]) / w
            _, _, _, s, info = dgtsv(dl, d, du, b.reshape(n, -1), overwrite_dl=1, overwrite_d=1,
                                     overwrite_du=1, overwrite_b=1)
            s = s.reshape(y.shape)
        if info:
            raise np.linalg.LinAlgError("singular matrix")
        return _Spline(self, y, slope, s)


def _interior_rows(dxr: np.ndarray, slope: np.ndarray, out: np.ndarray) -> None:
    """SciPy's rows 3 (dx[i] slope[i-1] + dx[i-1] slope[i]), i = 1, 2, ..., into ``out``."""
    k = len(out)
    np.multiply(dxr[1:k + 1], slope[:k], out=out)
    out += dxr[:k] * slope[1:k + 1]
    out *= 3


class _Spline:
    """A cubic spline on a :class:`_SplineGrid`, evaluated as SciPy's PPoly does.

    Each query reads the Hermite coefficients of its own interval only.  A
    periodic spline maps queries into its period; a not-a-knot spline
    extends its end pieces.  ``nu = 1`` gives the derivative.
    """

    def __init__(self, grid: _SplineGrid, y: np.ndarray, slope: np.ndarray, s: np.ndarray):
        self.grid, self.y, self.slope, self.s = grid, y, slope, s

    def __call__(self, x, nu: int = 0):
        grid = self.grid
        knots = grid.x
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        if grid.periodic:
            flat = knots[0] + (flat - knots[0]) % grid.span
        i = np.clip(np.searchsorted(knots, flat, side="right") - 1, 0, len(knots) - 2)
        z = flat - knots[i]
        h, m, s0, s1 = grid.dx[i], self.slope[i], self.s[i], self.s[i + 1]
        if self.y.ndim == 2:
            z, h = z[:, None], h[:, None]
        t = (s0 + s1 - 2 * m) / h
        c0 = t / h
        c1 = (m - s0) / h - t
        if nu == 0:
            out = (((0.0 + self.y[i]) + s0 * z) + c1 * (z * z)) + c0 * (z * z * z)
        elif nu == 1:
            out = ((0.0 + s0) + c1 * 2.0 * z) + c0 * 3.0 * (z * z)
        else:
            raise ValueError("only the value and the first derivative are evaluated")
        if grid.periodic:
            # PPoly evaluates the mapped query without extrapolation
            outside = ~((flat >= knots[0]) & (flat <= knots[-1]))
            if outside.any():
                out[outside] = np.nan
        return out.reshape(x.shape + self.y.shape[1:])


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
    with np.errstate(over="ignore", invalid="ignore"):  # the gate refuses what overflows
        vel = np.asarray(speed_fn(u), dtype=float)
    if not np.all((vel > 0.0) & (vel < np.inf)):
        raise BadParametrizationError("parametrization speed must stay positive and finite")
    s_dense = fourier_antiderivative(vel)
    total = float(vel.mean()) * TWO_PI
    u_of_s = _SplineGrid(np.append(s_dense, total), periodic=False).spline(np.append(u, TWO_PI))
    s = np.arange(n_samples) * (total / n_samples)
    params = np.asarray(u_of_s(s), dtype=float)
    params[0] = 0.0
    return np.asarray(point_fn(params), dtype=float), s, total, params


def harmonic_radius(rho: float, harmonics: Sequence):
    """r(phi) = rho + sum(a cos(m phi + p)) over (m, a, p) triples, and r'(phi).

    Each harmonic is formed in one scratch array and added in place, in the
    order given; a scalar phi gives a scalar.
    """
    terms = [(int(m), float(a), float(p)) for m, a, p in harmonics]

    def series(phi, start, wave, weights):
        x = np.asarray(phi, dtype=float)
        total = np.full_like(x, start)
        term = np.empty_like(x)
        for (m, _, p), weight in zip(terms, weights):
            np.multiply(x, m, out=term)
            term += p
            wave(term, out=term)
            term *= weight
            total += term
        return total[()]

    r_weights = [a for _, a, _ in terms]
    dr_weights = [-(a * m) for m, a, _ in terms]  # d - (a m) sin == d + (-(a m)) sin
    return (lambda phi: series(phi, rho, np.cos, r_weights),
            lambda phi: series(phi, 0.0, np.sin, dr_weights))


def polar_curve(form: SpaceForm, r_fn, dr_fn, n_samples: int):
    """Arc-length samples of the closed curve r = r_fn(phi) in polar coordinates.

    The metric speed sqrt(r'^2 + s_K(r)^2) is formed in place in the new
    arrays ``dr_fn`` and s_K return; returns what :func:`arclength_resample` returns.
    """

    def point_fn(phi):
        return form.polar(r_fn(phi), phi)

    def speed_fn(phi):
        speed = dr_fn(phi)
        np.square(speed, out=speed)
        s_r = form.s(r_fn(phi))  # the plane's s_K is a lambda: no out= through it
        speed += np.square(s_r, out=s_r)
        return np.sqrt(speed, out=speed)

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
    spline = _SplineGrid(u, periodic=True).spline(closed)

    def point_fn(t):
        return spline(np.mod(t, TWO_PI))

    def speed_fn(t):
        return form.norm(spline(np.mod(t, TWO_PI), nu=1))

    return point_fn, speed_fn


def curve_from_points(geometry: str, points, n_samples: int = 1024) -> SampledCurve:
    """The curve through a raw closed loop of points, at uniform arc length.

    Plane loops are (x, y) rows and must run counterclockwise; sphere and
    hyperboloid loops are ambient triples within ``SURFACE_TOL`` of the
    surface.  The loop is splined by chordal parameter, resampled, and
    finished by its geometry.  On a surface the points are projected onto
    it, before and after resampling; projecting perturbs the speed
    slightly, so the resampling runs twice.
    """
    form = space_form(geometry)
    project = form.project
    loop = np.asarray(points, dtype=float)
    if project is not None:
        deviation, rule = form.off_surface(loop)
        if deviation > SURFACE_TOL:
            raise BadParametrizationError(f"input points must {rule}")
        loop = project(loop)
    for _ in range(1 if project is None else 2):
        point_fn, speed_fn = closed_spline_through(loop, form)
        loop, s, length, _ = arclength_resample(point_fn, int(n_samples), speed_fn)
        loop = loop if project is None else project(loop)
    return form.finish(loop, s, length)
