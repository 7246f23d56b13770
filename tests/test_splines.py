"""The in-package cubic spline and cross product against SciPy and NumPy.

``scipy.interpolate.CubicSpline`` and ``np.cross`` are the oracles: every
value must be the same float, not merely a close one, because the goldens
print spline values and cusp markers to 12 digits.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.interpolate import CubicSpline

from ovalfront import curves
from ovalfront.cli import EXIT_PASS, main
from ovalfront.curves import _SplineGrid, cross3, periodic_interpolant

GOLDEN = Path(__file__).parent / "golden"
TWO_PI = 2.0 * np.pi


def assert_same_floats(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


@st.composite
def spline_cases(draw):
    periodic = draw(st.booleans())
    n = draw(st.integers(3 if periodic else 4, 40))
    if draw(st.booleans()):  # uniform, as the curves' parameter grids
        start = draw(st.floats(-10.0, 10.0))
        x = start + np.arange(n) * draw(st.floats(1e-3, 2.0))
    else:  # chordal, as closed_spline_through scales its chords onto [0, 2 pi]
        chords = draw(hnp.arrays(np.float64, n - 1, elements=st.floats(0.01, 10.0)))
        x = np.concatenate([[0.0], np.cumsum(chords)])
        x *= TWO_PI / x[-1]
    if np.any(np.diff(x) <= 0.0):
        x = np.arange(n, dtype=float)
    columns = draw(st.sampled_from([None, 1, 2, 3]))
    shape = (n,) if columns is None else (n, columns)
    y = draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    if periodic:
        y[-1] = y[0]
    span = x[-1] - x[0]
    fractions = draw(hnp.arrays(np.float64, draw(st.integers(1, 12)),
                                elements=st.floats(-2.5, 3.5)))
    # past the period on both sides, on every knot and on the end knot
    queries = np.concatenate([x[0] + fractions * span, x, x[-1:]])
    return periodic, x, y, queries


@settings(max_examples=300, deadline=None)
@given(spline_cases())
def test_spline_is_scipy_cubic_spline_float_for_float(case):
    periodic, x, y, queries = case
    expected = CubicSpline(x, y, bc_type="periodic" if periodic else "not-a-knot")
    spline = _SplineGrid(x, periodic).spline(y)
    assert_same_floats(spline(queries), expected(queries))
    assert_same_floats(spline(queries, nu=1), expected.derivative()(queries))
    for q in queries[::3].tolist():  # Python floats, as brentq asks
        assert_same_floats(spline(q), expected(q))
        assert_same_floats(spline(q, nu=1), expected.derivative()(q))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_small_periodic_grids_are_scipy_cubic_spline(n):
    # 3 knots take SciPy's closed form, 4 knots a 2-row condensed solve
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.1, 1.0, n))
    y = rng.normal(size=(n, 2))
    y[-1] = y[0]
    queries = np.concatenate([np.linspace(x[0] - 1.0, x[-1] + 1.0, 41), x])
    expected = CubicSpline(x, y, bc_type="periodic")
    spline = _SplineGrid(x, periodic=True).spline(y)
    assert_same_floats(spline(queries), expected(queries))
    assert_same_floats(spline(queries, nu=1), expected.derivative()(queries))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 64), columns=st.sampled_from([None, 2, 3]),
       data=st.data())
def test_periodic_interpolant_keeps_its_scipy_values(n, columns, data):
    param = np.arange(n) * (TWO_PI / n)
    period = float(param[-1] + param[1])
    shape = (n,) if columns is None else (n, columns)
    values = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    queries = data.draw(hnp.arrays(np.float64, 8, elements=st.floats(-20.0, 20.0)))
    knots = np.append(param, param[0] + period)
    expected = CubicSpline(knots, np.concatenate([values, values[:1]]), bc_type="periodic")
    fn = periodic_interpolant(param, values, period)
    assert_same_floats(fn(queries), expected(param[0] + np.mod(queries - param[0], period)))
    # a grid built once serves every value set on it
    grid = _SplineGrid(knots, periodic=True)
    shared = periodic_interpolant(param, values, period, grid)
    assert_same_floats(shared(queries), fn(queries))
    if columns is None:
        for q in queries.tolist():
            assert_same_floats(shared(q), expected(param[0] + np.mod(q - param[0], period)))


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("knots", [[0.0, 1.0, 1.0, 2.0, 3.0], [0.0, 1.0, np.inf, 4.0, 5.0]])
def test_spline_grid_refuses_what_cubic_spline_refuses(knots, periodic):
    with pytest.raises(ValueError):
        CubicSpline(knots, np.zeros(len(knots)), bc_type="periodic" if periodic else "not-a-knot")
    with pytest.raises(ValueError):
        _SplineGrid(np.array(knots), periodic)


@pytest.mark.parametrize("knots, periodic", [([0.0, 1.0], True), ([0.0, 1.0, 2.0], False)])
def test_spline_grid_refuses_grids_smaller_than_its_solves(knots, periodic):
    # CubicSpline makes these a constant or a parabola; this spline does not
    with pytest.raises(ValueError, match="also takes fewer"):
        _SplineGrid(np.array(knots), periodic)


def test_spline_refuses_non_finite_values():
    y = np.zeros(6)
    y[2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        _SplineGrid(np.arange(6.0), periodic=False).spline(y)


def test_curved_verify_factors_each_periodic_grid_once(tmp_path, monkeypatch):
    # the curve owns its grid: its profile, equatorial front and every lemma
    # front read one factorisation
    knots = []
    grid_class = curves._SplineGrid

    class Recording(grid_class):
        def __init__(self, x, periodic):
            super().__init__(x, periodic)
            if periodic:
                knots.append(self.x.tobytes())

    factored = []
    dgttrf = curves.dgttrf
    monkeypatch.setattr(curves, "_SplineGrid", Recording)
    monkeypatch.setattr(curves, "dgttrf", lambda *a: factored.append(1) or dgttrf(*a))
    spec = GOLDEN / "sphere_spec.json"
    assert json.loads(spec.read_text())["geometry"] == "spherical"
    assert main(["verify", "--input", str(spec), "--out", str(tmp_path)]) == EXIT_PASS
    assert knots and len(factored) == len(knots) == len(set(knots))


FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))


@settings(max_examples=200, deadline=None)
@given(shape_a=st.sampled_from([(3,), (5, 3)]), shape_b=st.sampled_from([(3,), (5, 3)]),
       data=st.data())
def test_cross3_is_np_cross_float_for_float(shape_a, shape_b, data):
    a = data.draw(hnp.arrays(np.float64, shape_a, elements=FLOATS))
    b = data.draw(hnp.arrays(np.float64, shape_b, elements=FLOATS))
    with np.errstate(all="ignore"):
        assert_same_floats(cross3(a, b), np.cross(a, b))
