"""SciPy's compiled routines, called directly, against SciPy's public functions.

``ovalfront._scipy`` loads the extension modules that hold Brent's method,
MINPACK's hybrd and the LAPACK tridiagonal solvers, and the call sites pass
SciPy's own arguments.  SciPy's public API is the oracle here: every call
site must return what ``scipy.optimize`` and ``scipy.linalg`` return, bit
for bit, and raise the same errors.  The extension modules and the routines'
positional arguments are private to SciPy, so this is also the test that
catches a SciPy release that moves them.
"""

import inspect
import math
import sys

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ovalfront import _scipy, curves, hyperbolic
from ovalfront._scipy import BRENTQ_DEFAULTS
from ovalfront.curves import ROOT_XTOL, TWO_PI, _bracketed_roots
from ovalfront.hyperbolic import (
    RoundedSemicircleSpec,
    build_rounded_semicircle,
    counterexample_threshold,
    semicircle_mean_gap,
)


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_the_routines_are_scipys_own_objects(monkeypatch):
    # LAPACK's extension module loads on the first spline build (here the
    # import of scipy.linalg.lapack above may have come first: either way it
    # is one module object), and each call looks its routine up there
    flapack = sys.modules["scipy.linalg._flapack"]
    assert _scipy._load_extension("scipy.linalg._flapack") is flapack
    names = ("dgtsv", "dgttrf", "dgttrs")
    called = set()
    for name in names:
        routine = getattr(flapack, name)
        assert routine is getattr(scipy.linalg.lapack, name), name
        assert getattr(curves, name) is getattr(_scipy, name), name

        def spy(*args, _routine=routine, **kwargs):
            called.add(_routine)
            return _routine(*args, **kwargs)

        monkeypatch.setattr(flapack, name, spy)
    # a periodic grid of 5 knots or more factors once with dgttrf and solves
    # with dgttrs; a not-a-knot spline solves with dgtsv
    x = np.linspace(0.0, 1.0, 7)
    curves._SplineGrid(x, periodic=True).spline(np.sin(TWO_PI * x))
    curves._SplineGrid(x, periodic=False).spline(x**3)
    assert called == {getattr(scipy.linalg.lapack, name) for name in names}
    # the root finders are bound at import, as SciPy's own builtins; a later
    # import of the packages reused the modules loaded by path
    assert sys.modules["scipy.optimize._zeros"]._brentq is _scipy.brentq is curves.brentq
    assert sys.modules["scipy.optimize._minpack"]._hybrd is _scipy.hybrd is hyperbolic.root


def test_brentq_defaults_are_scipys():
    params = inspect.signature(scipy.optimize.brentq).parameters
    names = ("rtol", "maxiter", "args", "full_output", "disp")
    assert BRENTQ_DEFAULTS == tuple(params[name].default for name in names)


def _trig(coeffs):
    def g(x):
        return sum(a * math.cos(k * x + p) for k, (a, p) in enumerate(coeffs))
    return g


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-3.0, 3.0)),
                       min_size=2, max_size=5),
       lo=st.floats(0.0, 6.0), width=st.floats(1e-3, 3.0))
def test_bracketed_roots_are_scipy_brentqs_bit_for_bit(coeffs, lo, width):
    g = _trig(coeffs)
    hi = lo + width
    assume(g(lo) * g(hi) < 0.0)
    [root] = _bracketed_roots(g, [(0, 1)], np.array([lo, hi]), TWO_PI)
    expected = scipy.optimize.brentq(g, lo, hi, xtol=ROOT_XTOL) % TWO_PI
    assert same_bits(root, expected)
    for xtol in (ROOT_XTOL, 1e-12, 2e-12, 1e-3):
        direct = _scipy.brentq(g, lo, hi, xtol, *BRENTQ_DEFAULTS)
        assert same_bits(direct, scipy.optimize.brentq(g, lo, hi, xtol=xtol))


def test_threshold_is_scipy_brentqs_bit_for_bit():
    rs = np.linspace(0.05, 5.0, 4096)
    gs = semicircle_mean_gap(rs)
    [i] = np.flatnonzero(np.sign(gs[:-1]) * np.sign(gs[1:]) < 0)
    expected = scipy.optimize.brentq(semicircle_mean_gap, rs[i], rs[i + 1], xtol=1e-12)
    assert same_bits(counterexample_threshold().r_star, expected)


def _error(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_brentq_raises_scipys_errors():
    def g(x):
        return math.cos(x) - x  # root 0.739...

    # same signs at both ends
    assert _error(lambda: _scipy.brentq(g, 0.8, 1.0, ROOT_XTOL, *BRENTQ_DEFAULTS)) == _error(
        lambda: scipy.optimize.brentq(g, 0.8, 1.0, xtol=ROOT_XTOL))
    # no convergence within maxiter
    rtol, _, args, full_output, disp = BRENTQ_DEFAULTS
    kind, message = _error(lambda: _scipy.brentq(g, 0.0, 1.0, 1e-15, rtol, 2, args,
                                                 full_output, disp))
    assert kind is RuntimeError
    assert (kind, message) == _error(
        lambda: scipy.optimize.brentq(g, 0.0, 1.0, xtol=1e-15, maxiter=2))


@pytest.mark.parametrize("nan_at", ["inside", "lower end"])
def test_bracketed_roots_raise_scipys_nan_error(nan_at):
    # brentq's first step inside the bracket, or its first evaluation, is NaN
    def g(x):
        if (0.0 < x < 1.0) if nan_at == "inside" else (x == 0.0):
            return math.nan
        return x - 0.3

    kind, message = _error(lambda: _bracketed_roots(g, [(0, 1)], np.array([0.0, 1.0]), TWO_PI))
    assert kind is ValueError and "NaN" in message
    assert (kind, message) == _error(lambda: scipy.optimize.brentq(g, 0.0, 1.0, xtol=ROOT_XTOL))


@pytest.mark.parametrize("r", [0.9, 1.6, 2.0])
def test_shooting_is_scipy_roots_hybr_bit_for_bit(r, monkeypatch):
    solves = []
    hybrd = hyperbolic.root

    def recorded(fun, x0, *args):
        guess = x0.copy()  # hybrd writes its solution into x0
        solved = hybrd(fun, x0, *args)
        solves.append((guess, solved))
        return solved

    monkeypatch.setattr(hyperbolic, "root", recorded)
    spec = RoundedSemicircleSpec(r=r, n_samples=256)
    build_rounded_semicircle(spec)
    [(guess, solved)] = solves

    def shoot(v):  # the residual without the build's cache of shots
        return hyperbolic._shoot_half(r, spec.corner_scale, spec.flat_deviation, v)

    with np.errstate(over="ignore", invalid="ignore"):
        sol = scipy.optimize.root(shoot, guess, method="hybr", options={"xtol": 1e-12})
    assert same_bits(solved[0], sol.x)
    assert same_bits(solved[1]["fvec"], sol.fun)
