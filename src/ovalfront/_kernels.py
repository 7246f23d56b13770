"""Sampling kernels: trigonometric polynomial evaluation, periodic finite
differences and hysteresis sign-change scanning, in NumPy.
"""

import numpy as np

__all__ = ["trig_series", "periodic_deriv", "transitions", "BACKEND"]

# the one implementation; reported as ``ovalfront.kernel_backend``
BACKEND = "reference"


def trig_series(cos_amps, sin_amps, derivs):
    """The sum of several derivatives of a trigonometric polynomial, as a callable.

    ``cos_amps`` and ``sin_amps`` are the coefficients of cos(n x) and
    sin(n x) for n = 0 .. n_max; ``derivs`` lists derivative orders >= 0.
    The harmonic index and the scaled coefficient vectors of each order are
    prepared once; each call forms the outer product x n once and adds the
    terms in the order given, so ``trig_series(a, b, (0, 2))(x)`` equals
    ``trig_series(a, b, (0,))(x) + trig_series(a, b, (2,))(x)`` bit for
    bit.  A scalar x gives a scalar, from one row of n x.
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


# each stencil's taps as (weight, k) pairs, added left to right (the first
# weight scales its tap, the others' signs choose + or -), and its divisor
# as (factor, power of the spacing)
_STENCILS = {
    1: ([(1.0, -2), (-8.0, -1), (8.0, 1), (-1.0, 2)], (12.0, 1)),
    2: ([(-1.0, -2), (16.0, -1), (-30.0, 0), (16.0, 1), (-1.0, 2)], (12.0, 2)),
    3: ([(0.125, -3), (-1.0, -2), (1.625, -1), (-1.625, 1), (1.0, 2), (-0.125, 3)], (1.0, 3)),
}


def periodic_deriv(values, order, spacing):
    """Differentiate uniformly spaced periodic samples, (n,) or (n, d).

    Central finite differences of stencil order 4, wrapped cyclically along
    the first axis, so each column of an (n, d) block gets exactly what
    the 1-d call on it returns.  ``order`` selects the first, second or
    third derivative; ``spacing`` must be positive and finite.  The taps
    are added into one output array in the order of the one-line formula,
    ((r(-2) - 8 r(-1)) + 8 r(1)) - r(2) for the first derivative, then
    divided, so the floats are the formula's.  ``values`` is not modified
    and the result shares no memory with it.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2):
        raise ValueError("values must be 1-d or 2-d")
    if not 0.0 < spacing < np.inf:
        raise ValueError("spacing must be positive and finite")
    if order not in _STENCILS:
        raise ValueError("order must be 1, 2 or 3")
    n = len(v)
    # one copy wrapped three samples past each end (more than once if n < 3)
    head = np.take(v, [-3, -2, -1], axis=0, mode="wrap")
    wrapped = np.concatenate([head, v, np.take(v, [n, n + 1, n + 2], axis=0, mode="wrap")])

    def r(k):
        return wrapped[3 + k : 3 + k + n]  # r(k)[i] == v[(i + k) % n]

    ((w0, k0), *taps), (factor, power) = _STENCILS[order]
    out = np.multiply(r(k0), w0)
    tap = np.empty_like(out)
    for w, k in taps:
        term = r(k) if abs(w) == 1.0 else np.multiply(r(k), abs(w), out=tap)
        (np.add if w > 0.0 else np.subtract)(out, term, out=out)
    out /= factor * spacing**power
    return out


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
    if not 0.0 <= tol < np.inf:
        raise ValueError("tol must be non-negative and finite")
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
