"""Plane ovals built from support functions.

A closed convex plane curve is recovered from its support function h by

    gamma(a) = h(a) (cos a, sin a) + h'(a) (-sin a, cos a),

where a is the outward normal direction.  The curvature radius is
R = h + h''; the curve is strictly convex iff R > 0 everywhere, and then
L = integral(R da), A = 0.5 integral(h R da).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _kernels as kernels
from .curves import (
    EUCLIDEAN,
    PLANE,
    TWO_PI,
    SampledCurve,
    arclength_resample,
    closed_spline_through,
    fourier_antiderivative,
    parametric_area,
    periodic_interpolant,
    unit_speed_curvature,
)
from .errors import BadParametrizationError, DegenerateSamplingError, NonConvexError

MIN_SAMPLES = 16


@dataclass(frozen=True)
class SupportOval:
    """Support function given as a trigonometric polynomial.

    ``coeffs[n]`` holds the (cos, sin) amplitude pair of harmonic n,
    n = 0 .. n_max.  The sin amplitude of harmonic 0 is ignored.
    """

    coeffs: tuple
    n_samples: int = 1024

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple((float(c), float(s)) for c, s in self.coeffs)
        )

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1

    @property
    def cos_amps(self) -> np.ndarray:
        return np.array([c for c, _ in self.coeffs], dtype=float)

    @property
    def sin_amps(self) -> np.ndarray:
        out = np.array([s for _, s in self.coeffs], dtype=float)
        if out.size:
            out[0] = 0.0
        return out


def _support_curve(h: np.ndarray, hp: np.ndarray, hpp: np.ndarray, radius_fn) -> SampledCurve:
    """The oval of support samples h, h', h'' on the grid alpha_j = 2 pi j / n.

    Raises :class:`NonConvexError` unless R = h + h'' > 0 on the grid.
    """
    n = len(h)
    spacing = TWO_PI / n
    alpha = np.arange(n) * spacing
    radius = h + hpp
    rmin = float(radius.min())
    if rmin <= 0.0:
        raise NonConvexError(f"min(h + h'') = {rmin:.6g} <= 0")
    normal = np.column_stack([np.cos(alpha), np.sin(alpha)])
    tangent = np.column_stack([-np.sin(alpha), np.cos(alpha)])
    return SampledCurve(
        geometry=EUCLIDEAN,
        points=h[:, None] * normal + hp[:, None] * tangent,
        s=fourier_antiderivative(radius),
        k=1.0 / radius,
        L=float(radius.mean()) * TWO_PI,
        A=0.5 * spacing * float(np.sum(h * radius)),
        param=alpha,
        tangent=tangent,
        normal=normal,
        w=radius * spacing,
        curv_fn=lambda x: 1.0 / np.asarray(radius_fn(x), float),
        radius_fn=radius_fn,
    )


def check_oval_sampling(n: int, n_max: int) -> None:
    """Refuse grids of n samples too coarse for harmonics up to degree n_max."""
    if n < MIN_SAMPLES:
        raise DegenerateSamplingError(f"n_samples={n} < {MIN_SAMPLES}")
    if n < 4 * max(n_max, 1):
        raise DegenerateSamplingError(f"n_samples={n} cannot resolve harmonic {n_max}")


def build_oval(spec: SupportOval) -> SampledCurve:
    """Sample the oval described by a support-function trig polynomial.

    h, h' and h'' are synthesized on the grid from the coefficients by one
    inverse real FFT each; ``radius_fn`` evaluates R = h + h'' anywhere for
    root refinement, with its coefficient vectors prepared once.

    Raises
    ------
    DegenerateSamplingError
        Fewer than 16 samples, or too few to resolve the polynomial.
    NonConvexError
        R = h + h'' fails to be strictly positive on the grid.
    """
    n = int(spec.n_samples)
    check_oval_sampling(n, spec.n_max)
    a = spec.cos_amps
    b = spec.sin_amps
    # rfft convention: harmonic m of a cos + b sin is (n/2)(a - i b), the mean n a_0
    coeff = np.zeros(n // 2 + 1, dtype=complex)
    coeff[: len(a)] = 0.5 * n * (a - 1j * b)
    coeff[0] = n * a[0]
    m = np.arange(n // 2 + 1)
    h = np.fft.irfft(coeff, n)
    hp = np.fft.irfft(1j * m * coeff, n)
    hpp = np.fft.irfft(-(m**2) * coeff, n)

    return _support_curve(h, hp, hpp, kernels.trig_series(a, b, (0, 2)))


def oval_from_support(
    h: Callable,
    n_samples: int = 1024,
    dh: Optional[Callable] = None,
    d2h: Optional[Callable] = None,
) -> SampledCurve:
    """Sample an oval from a smooth 2pi-periodic support function.

    Derivatives are taken analytically when ``dh``/``d2h`` are supplied,
    otherwise by order-4 periodic central differences on the grid.
    """
    n = int(n_samples)
    if n < MIN_SAMPLES:
        raise DegenerateSamplingError(f"n_samples={n} < {MIN_SAMPLES}")
    alpha = np.arange(n) * (TWO_PI / n)
    spacing = TWO_PI / n
    hv = np.asarray(h(alpha), dtype=float)
    hp = np.asarray(dh(alpha), float) if dh else kernels.periodic_deriv(hv, 1, spacing)
    hpp = np.asarray(d2h(alpha), float) if d2h else kernels.periodic_deriv(hv, 2, spacing)

    if dh is not None and d2h is not None:
        def radius_fn(x):
            return np.asarray(h(x), float) + np.asarray(d2h(x), float)
    else:
        radius_fn = periodic_interpolant(alpha, hv + hpp, TWO_PI)

    return _support_curve(hv, hp, hpp, radius_fn)


def ellipse_oval(a: float, b: float, n_samples: int = 1024):
    """Axis-aligned ellipse with semi-axes a, b via its support function.

    The support derivatives are taken in closed form.
    """
    if a <= 0.0 or b <= 0.0:
        raise NonConvexError("semi-axes must be positive")

    def h(x):
        return np.sqrt((a * np.cos(x)) ** 2 + (b * np.sin(x)) ** 2)

    def dh(x):
        return 0.5 * (b * b - a * a) * np.sin(2.0 * x) / h(x)

    def d2h(x):
        # from R = h + h'' = (ab)^2 / h^3
        return (a * b) ** 2 / h(x) ** 3 - h(x)

    return oval_from_support(h, n_samples, dh=dh, d2h=d2h)


def unit_circle(n_samples: int = 1024) -> SampledCurve:
    return build_oval(SupportOval(((1.0, 0.0),), n_samples=n_samples))


def euclidean_curve_from_points(points, n_samples: int = 1024) -> SampledCurve:
    """Resample-and-validate path for raw planar loops.

    Expects a counterclockwise closed loop; curvature and frames come from
    order-4 periodic differences after arc-length resampling.
    """
    raw = np.asarray(points, dtype=float)
    point_fn, speed_fn = closed_spline_through(raw)
    pts, s, length, _ = arclength_resample(point_fn, int(n_samples), speed_fn)
    n = len(pts)
    spacing = length / n
    k, normal, _ = unit_speed_curvature(pts, spacing, PLANE)
    area = parametric_area(pts, length)
    if area <= 0.0:
        raise BadParametrizationError("expected a counterclockwise loop")
    tangent = np.column_stack([-normal[:, 1], normal[:, 0]])
    return SampledCurve(
        geometry=EUCLIDEAN,
        points=pts,
        s=s,
        k=k,
        L=float(length),
        A=float(area),
        param=s,
        tangent=tangent,
        normal=normal,
        w=np.full(n, spacing),
    )


def closure_residual(curve: SampledCurve) -> np.ndarray:
    """Trapezoid residual of the closure integral of R over the grid.

    For an exactly closed oval, integral(R(a) (cos a, sin a) da) = 0; the
    returned 2-vector measures how far the sampled construction is from
    that identity.
    """
    if curve.geometry != EUCLIDEAN or curve.param is None or curve.radius_fn is None:
        raise ValueError("closure residuals apply to support-built plane ovals")
    alpha = curve.param
    gaps = np.diff(alpha)
    if not np.allclose(gaps, gaps[0], rtol=0.0, atol=1e-12):
        raise ValueError("support grid must be uniform")
    radius = 1.0 / curve.k
    spacing = TWO_PI / len(alpha)
    return np.array(
        [
            spacing * float(np.sum(radius * np.cos(alpha))),
            spacing * float(np.sum(radius * np.sin(alpha))),
        ]
    )
