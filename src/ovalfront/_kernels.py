"""Sampling kernels: trigonometric polynomial evaluation, periodic finite
differences and hysteresis sign-change scanning, in NumPy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["trig_eval", "trig_series", "periodic_deriv", "transitions", "BACKEND"]

# the one implementation; reported as ``ovalfront.kernel_backend``
BACKEND = "reference"


def trig_eval(cos_amps, sin_amps, x, deriv=0):
    """Evaluate a real trigonometric polynomial, or one of its derivatives.

    Parameters
    ----------
    cos_amps, sin_amps : array_like
        Coefficients of cos(n x) and sin(n x) for n = 0 .. n_max.
    x : float or array_like
        Evaluation points (radians).
    deriv : int
        Derivative order >= 0.

    Returns
    -------
    ndarray of the shape of ``x``; a scalar ``x`` gives a scalar.
    """
    return trig_series(cos_amps, sin_amps, (deriv,))(x)


def trig_series(cos_amps, sin_amps, derivs):
    """The sum of several derivatives of a trigonometric polynomial, as a callable.

    The harmonic index and the scaled coefficient vectors of each order in
    ``derivs`` are prepared once; each call forms the outer product x n
    once and adds the terms in the order given, so
    ``trig_series(a, b, (0, 2))(x)`` equals
    ``trig_eval(a, b, x, 0) + trig_eval(a, b, x, 2)`` bit for bit.  A
    scalar x gives a scalar, from one row of n x.
    """
    a = np.asarray(cos_amps, dtype=float)
    b = np.asarray(sin_amps, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("coefficient arrays must be 1-d and equally long")
    n = np.arange(a.size, dtype=float)
    terms = []
    for deriv in derivs:
        if deriv < 0:
            raise ValueError("deriv must be non-negative")
        # d^p/dx^p cos(nx) = n^p cos(nx + p pi/2), likewise for sin
        scale = n**deriv if deriv else np.ones_like(n)
        terms.append((deriv * 0.5 * np.pi, scale * a, scale * b))

    def series(x):
        nx = np.multiply.outer(np.asarray(x, dtype=float), n)
        total = None
        for shift, ca, sb in terms:
            phase = nx + shift
            term = np.cos(phase) @ ca + np.sin(phase) @ sb
            total = term if total is None else total + term
        return total

    return series


def periodic_deriv(values, order, spacing):
    """Differentiate uniformly spaced periodic samples, (n,) or (n, d).

    Central finite differences of stencil order 4, wrapped cyclically along
    the first axis, so each column of an (n, d) block gets exactly what
    the 1-d call on it returns.  ``order`` selects the first, second or
    third derivative.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2):
        raise ValueError("values must be 1-d or 2-d")
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    n = len(v)
    # one copy wrapped three samples past each end (more than once if n < 3)
    wrapped = np.take(v, np.arange(-3, n + 3), axis=0, mode="wrap")

    def r(k):
        return wrapped[3 + k : 3 + k + n]  # r(k)[i] == v[(i + k) % n]

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
