"""Sampling kernels: trigonometric polynomial evaluation, periodic finite
differences and hysteresis sign-change scanning, in NumPy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["trig_eval", "periodic_deriv", "transitions", "BACKEND"]

# the one implementation; reported as ``ovalfront.kernel_backend``
BACKEND = "reference"


def trig_eval(cos_amps, sin_amps, x, deriv=0):
    """Evaluate a real trigonometric polynomial, or one of its derivatives.

    Parameters
    ----------
    cos_amps, sin_amps : array_like
        Coefficients of cos(n x) and sin(n x) for n = 0 .. n_max.
    x : array_like
        Evaluation points (radians).
    deriv : int
        Derivative order >= 0.

    Returns
    -------
    ndarray of the same length as ``x``.
    """
    a = np.asarray(cos_amps, dtype=float)
    b = np.asarray(sin_amps, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("coefficient arrays must be 1-d and equally long")
    if deriv < 0:
        raise ValueError("deriv must be non-negative")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = np.arange(a.size, dtype=float)
    # d^p/dx^p cos(nx) = n^p cos(nx + p pi/2), likewise for sin
    shift = deriv * 0.5 * np.pi
    nx = np.multiply.outer(x, n)
    scale = n**deriv if deriv else np.ones_like(n)
    return np.cos(nx + shift) @ (scale * a) + np.sin(nx + shift) @ (scale * b)


def periodic_deriv(values, order, spacing):
    """Differentiate uniformly spaced periodic samples.

    Central finite differences of stencil order 4, wrapped cyclically.
    ``order`` selects the first, second or third derivative.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("values must be 1-d")
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")

    def r(k):
        return np.roll(v, -k)  # r(k)[i] == v[i + k]

    if order == 1:
        return (r(-2) - 8.0 * r(-1) + 8.0 * r(1) - r(2)) / (12.0 * spacing)
    if order == 2:
        return (-r(-2) + 16.0 * r(-1) - 30.0 * v + 16.0 * r(1) - r(2)) / (
            12.0 * spacing**2
        )
    if order == 3:
        return (
            0.125 * r(-3)
            - r(-2)
            + 1.625 * r(-1)
            - 1.625 * r(1)
            + r(2)
            - 0.125 * r(3)
        ) / spacing**3
    raise ValueError("order must be 1, 2 or 3")


def transitions(values, tol):
    """Locate cyclic sign changes of a periodic sample sequence.

    Hysteresis counting: samples with ``|v| <= tol`` belong to the dead
    band and never trigger a change on their own.  A *crossing* is a pair
    of out-of-band samples with opposite signs and only in-band samples
    between them; an in-band run flanked by equal signs is a *touch*.

    Returns
    -------
    pairs : (m, 2) int64 array
        Sample indices bracketing each sign change, in cyclic order.
    touches : (k, 2) int64 array
        First and last in-band index of each touch run.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("values must be 1-d")
    if tol < 0.0:
        raise ValueError("tol must be non-negative")
    n = v.size
    empty = np.empty((0, 2), dtype=np.int64)
    out_of_band = np.abs(v) > tol
    nz = np.flatnonzero(out_of_band).astype(np.int64)
    if nz.size == 0:
        return empty, empty
    if nz.size == 1:
        if n > 1:
            touch = np.array([[(nz[0] + 1) % n, (nz[0] - 1) % n]], dtype=np.int64)
        else:
            touch = empty
        return empty, touch

    signs = np.where(v[nz] > 0.0, 1, -1)
    nxt = np.roll(nz, -1)
    nxt_signs = np.roll(signs, -1)
    gaps = (nxt - nz) % n
    flips = signs != nxt_signs
    pairs = np.stack([nz[flips], nxt[flips]], axis=1)
    touch_mask = ~flips & (gaps > 1)
    touches = np.stack(
        [(nz[touch_mask] + 1) % n, (nxt[touch_mask] - 1) % n], axis=1
    )
    return pairs, touches
