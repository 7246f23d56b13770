"""Seeded random curve populations for the verification suites.

Every generator takes an explicit seed and draws through a single
``numpy.random.default_rng`` stream, so a given (seed, count) pair always
reproduces the same curves, including the rejection steps.
"""

from __future__ import annotations

import numpy as np

from ovalfront.errors import DegenerateSamplingError, OvalfrontError
from ovalfront.hyperbolic import perturbed_hyperbolic_circle
from ovalfront.sphere import SphereCurve, perturbed_sphere_circle, tennis_seam
from ovalfront.support import SupportOval, build_oval

DEFAULT_SEED = 1786
MAX_DRAWS_PER_CURVE = 100  # draws allowed per requested curve before giving up


def _accepted(count: int, draw) -> list:
    """Call ``draw`` until ``count`` curves are accepted.

    ``draw`` returns a curve, or None for a rejected draw; an
    :class:`OvalfrontError` also rejects.  Raises
    :class:`DegenerateSamplingError` once ``MAX_DRAWS_PER_CURVE * count``
    draws have not produced ``count`` curves.
    """
    out: list = []
    cap = MAX_DRAWS_PER_CURVE * count
    for _ in range(cap):
        if len(out) == count:
            break
        try:
            curve = draw()
        except OvalfrontError:
            continue
        if curve is not None:
            out.append(curve)
    if len(out) < count:
        raise DegenerateSamplingError(
            f"{cap - len(out)} of {cap} draws rejected; accepted {len(out)} of {count} curves"
        )
    return out


def random_support_ovals(count: int = 200, seed: int = DEFAULT_SEED, n_samples: int = 1024):
    """Random convex support-function ovals with harmonics 2..8.

    Amplitudes fall off like 1/m^2; draws violating the convexity margin
    (min curvature radius <= 0.05) or too close to a circle (radius
    variation <= 1e-3) are rejected and redrawn.
    """
    rng = np.random.default_rng(seed)

    def draw():
        coeffs = [(1.0, 0.0), (0.0, 0.0)]
        for m in range(2, 9):
            sigma = 0.08 / m**2
            coeffs.append((rng.normal(0.0, sigma), rng.normal(0.0, sigma)))
        curve = build_oval(SupportOval(coeffs=tuple(coeffs), n_samples=n_samples))
        radii = 1.0 / curve.k
        if float(np.min(radii)) <= 0.05:
            return None
        if float(np.max(radii) - np.min(radii)) <= 1e-3:
            return None
        return curve

    return _accepted(count, draw)


def random_trig_polys(count: int = 1000, seed: int = DEFAULT_SEED):
    """Random mean-zero trig polynomials with known lowest harmonic, on 512 points.

    Returns a list of (values, m) pairs.  The lowest harmonic m is drawn
    from [1, 6] and given amplitude at least 0.15 so detection from the
    spectrum is unambiguous; the four harmonics above it decay like 1/n.
    """
    rng = np.random.default_rng(seed)
    n_points = 512
    x = np.arange(n_points) * (2.0 * np.pi / n_points)
    out = []
    for _ in range(count):
        m = int(rng.integers(1, 7))
        values = np.zeros(n_points)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        base_amp = 0.15 + abs(rng.normal(0.0, 0.5))
        values += base_amp * np.cos(m * x + phase)
        for n in range(m + 1, m + 5):
            values += rng.normal(0.0, 0.3 / n) * np.cos(n * x + rng.uniform(0.0, 2.0 * np.pi))
        out.append((values, m))
    return out


def random_perturbed_sphere_circles(count: int = 50, seed: int = DEFAULT_SEED,
                                    n_samples: int = 1024):
    """Random convex perturbed circles in an open hemisphere, with min k > 0.2."""
    rng = np.random.default_rng(seed)

    def draw():
        rho = rng.uniform(0.5, 1.0)
        orders = rng.choice([2, 3, 4, 5], size=2, replace=False)
        harmonics = [
            (int(m), rng.normal(0.0, 0.12 / m**2), rng.uniform(0.0, 2.0 * np.pi))
            for m in orders
        ]
        curve = perturbed_sphere_circle(rho, harmonics, n_samples=n_samples)
        if curve.pole is None:
            return None
        if float(np.min(curve.k)) <= 0.2:
            return None
        if float(np.max(curve.k) - np.min(curve.k)) <= 1e-4:
            return None
        return curve

    return _accepted(count, draw)


def random_hyperbolic_ovals(count: int = 50, seed: int = DEFAULT_SEED, n_samples: int = 1024):
    """Random horocyclically convex perturbed circles on the hyperboloid: min k > 1.05."""
    rng = np.random.default_rng(seed)

    def draw():
        rho = rng.uniform(0.8, 1.4)
        orders = rng.choice([2, 3, 4, 5], size=2, replace=False)
        harmonics = [
            (int(m), rng.normal(0.0, 0.08 / m**2), rng.uniform(0.0, 2.0 * np.pi))
            for m in orders
        ]
        curve = perturbed_hyperbolic_circle(rho, harmonics, n_samples=n_samples)
        if float(np.min(curve.k)) <= 1.05:
            return None
        if float(np.max(curve.k) - np.min(curve.k)) <= 1e-4:
            return None
        return curve

    return _accepted(count, draw)


def torsion_test_curves(count: int = 20, seed: int = DEFAULT_SEED, n_samples: int = 1024):
    """Simple spherical curves for total-torsion checks.

    A mix of convex perturbed circles and seam-like wavy equators; both
    families are embedded for the mild amplitudes drawn here.
    """
    rng = np.random.default_rng(seed)
    n_wavy = max(count // 4, 1)

    def draw():
        rho = rng.uniform(0.6, 1.0)
        m = int(rng.choice([2, 3, 4]))
        harmonics = [(m, rng.normal(0.0, 0.15 / m**2), rng.uniform(0.0, 2.0 * np.pi))]
        curve = perturbed_sphere_circle(rho, harmonics, n_samples=n_samples)
        if float(np.max(curve.k) - np.min(curve.k)) <= 1e-4:
            return None
        return curve

    out: list[SphereCurve] = _accepted(count - n_wavy, draw)
    while len(out) < count:
        beta = rng.uniform(0.15, 0.3)
        out.append(tennis_seam(beta, n_samples=n_samples))
    return out
