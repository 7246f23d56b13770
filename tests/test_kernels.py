"""Sampling kernel tests: correctness and convergence order."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ovalfront._kernels import BACKEND, periodic_deriv, transitions, trig_series


# ---------------------------------------------------------------------------
# trig_series


def test_trig_eval_matches_direct_loop():
    rng = np.random.default_rng(7)
    cos_amps = rng.normal(size=9)
    sin_amps = rng.normal(size=9)
    x = rng.uniform(0, 2 * np.pi, size=40)
    got = trig_series(cos_amps, sin_amps, (0,))(x)
    want = np.zeros_like(x)
    for n in range(9):
        want += cos_amps[n] * np.cos(n * x) + sin_amps[n] * np.sin(n * x)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_trig_eval_derivatives_of_single_harmonic():
    x = np.linspace(0, 2 * np.pi, 17, endpoint=False)
    c = np.array([0.0, 0.0, 0.0, 1.0])  # cos(3x)
    s = np.zeros(4)
    np.testing.assert_allclose(trig_series(c, s, (1,))(x), -3 * np.sin(3 * x), atol=1e-12)
    np.testing.assert_allclose(trig_series(c, s, (2,))(x), -9 * np.cos(3 * x), atol=1e-12)
    np.testing.assert_allclose(trig_series(c, s, (3,))(x), 27 * np.sin(3 * x), atol=1e-11)


def test_trig_eval_rejects_mismatched_coeffs():
    with pytest.raises(ValueError):
        trig_series([1.0, 0.0], [0.0], (0,))
    with pytest.raises(ValueError):
        trig_series([1.0], [0.0], (-1,))


@settings(max_examples=80, deadline=None)
@given(
    amps=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=1,
                  max_size=17),
    x=st.floats(-1e3, 1e3),
    derivs=st.sampled_from([(0,), (0, 2)]),
)
@example(amps=[(1.5, 0.7)], x=0.3, derivs=(0,))
@example(amps=[(1.5, 0.7)], x=-2.1, derivs=(0, 2))
def test_trig_series_scalar_is_element_0_of_the_array_call(amps, x, derivs):
    # degree 0 to 16; a scalar x gives a scalar, bitwise the array call's entry
    a, b = np.array(amps).T
    series = trig_series(a, b, derivs)
    got = series(x)
    assert np.ndim(got) == 0
    assert np.float64(got).tobytes() == series(np.array([x]))[0].tobytes()


# ---------------------------------------------------------------------------
# periodic_deriv


def _fd_error(n, order):
    x = np.linspace(0, 2 * np.pi, n, endpoint=False)
    v = np.sin(x) + 0.5 * np.cos(2 * x)
    exact = {
        1: np.cos(x) - np.sin(2 * x),
        2: -np.sin(x) - 2 * np.cos(2 * x),
        3: -np.cos(x) + 4 * np.sin(2 * x),
    }[order]
    got = periodic_deriv(v, order, 2 * np.pi / n)
    return float(np.max(np.abs(got - exact)))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_periodic_deriv_is_fourth_order(order):
    # halving the spacing must shrink the error ~16x (allow margin)
    e_coarse = _fd_error(64, order)
    e_fine = _fd_error(128, order)
    assert e_coarse / e_fine > 12.0


def test_periodic_deriv_exact_on_low_harmonics():
    # stencils of order 4 differentiate degree <= 1 trig exactly up to roundoff
    n = 32
    x = np.linspace(0, 2 * np.pi, n, endpoint=False)
    v = np.full(n, 3.7)
    np.testing.assert_allclose(periodic_deriv(v, 1, 0.1), 0.0, atol=1e-12)
    np.testing.assert_allclose(periodic_deriv(v, 2, 0.1), 0.0, atol=1e-10)


def test_periodic_deriv_validates_arguments():
    with pytest.raises(ValueError):
        periodic_deriv(np.zeros(8), 4, 0.1)
    with pytest.raises(ValueError):
        periodic_deriv(np.zeros(8), 1, 0.0)
    with pytest.raises(ValueError, match="1-d or 2-d"):
        periodic_deriv(np.zeros((8, 3, 2)), 1, 0.1)
    # nan <= 0 is False: a NaN spacing gave all NaN, an infinite one zeros
    for spacing in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            periodic_deriv(np.sin(np.arange(8.0)), 1, spacing)


@settings(max_examples=60, deadline=None)
@given(
    block=hnp.arrays(
        float,
        st.tuples(st.integers(1, 40), st.integers(1, 3)),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    ),
    order=st.integers(1, 3),
    spacing=st.floats(1e-3, 10.0),
)
# fewer samples than the stencil is wide: the taps wrap more than once
@example(block=np.array([[2.5]]), order=3, spacing=0.5)
@example(block=np.array([[1.0, -2.0], [3.0, 0.5]]), order=1, spacing=0.1)
@example(block=np.arange(15.0).reshape(5, 3) ** 2, order=2, spacing=0.7)
@example(block=np.sin(np.arange(6.0))[:, None], order=3, spacing=0.3)
def test_periodic_deriv_block_matches_columns_bitwise(block, order, spacing):
    got = periodic_deriv(block, order, spacing)
    assert got.tobytes() == _rolled_periodic_deriv(block, order, spacing).tobytes()
    for j in range(block.shape[1]):
        column = periodic_deriv(block[:, j], order, spacing)
        assert got[:, j].tobytes() == column.tobytes()


def _rolled_periodic_deriv(v, order, spacing):
    """The stencils with one np.roll per tap: the bitwise reference."""

    def r(k):
        return np.roll(v, -k, axis=0)  # r(k)[i] == v[i + k]

    if order == 1:
        return (r(-2) - 8.0 * r(-1) + 8.0 * r(1) - r(2)) / (12.0 * spacing)
    if order == 2:
        return (-r(-2) + 16.0 * r(-1) - 30.0 * v + 16.0 * r(1) - r(2)) / (
            12.0 * spacing**2
        )
    return (
        0.125 * r(-3) - r(-2) + 1.625 * r(-1) - 1.625 * r(1) + r(2) - 0.125 * r(3)
    ) / spacing**3


# ---------------------------------------------------------------------------
# transitions


def test_transitions_simple_sign_change():
    v = np.array([1.0, 1.0, -1.0, -1.0])
    pairs, touches = transitions(v, 0.1)
    assert pairs.shape == (2, 2)  # one down, one up (cyclic)
    assert touches.shape == (0, 2)
    assert [1, 2] in pairs.tolist()
    assert [3, 0] in pairs.tolist()


def test_transitions_dead_band_touch():
    # dips into the band without crossing: a touch, not a crossing
    v = np.array([1.0, 0.05, 0.0, 0.05, 1.0, 1.0])
    pairs, touches = transitions(v, 0.1)
    assert len(pairs) == 0
    assert len(touches) == 1
    # the run of in-band samples is indices 1..3
    assert touches[0].tolist() == [1, 3]


def test_transitions_crossing_through_band():
    v = np.array([1.0, 0.0, -1.0, -1.0, 0.0, 1.0])
    pairs, touches = transitions(v, 0.1)
    assert len(pairs) == 2
    assert len(touches) == 0


def test_transitions_validates_tol():
    # nan < 0 is False: a NaN band reported no sign change on a sine
    v = np.sin(np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False))
    for tol in (np.nan, np.inf, -1e-3):
        with pytest.raises(ValueError, match="non-negative and finite"):
            transitions(v, tol)
    assert len(transitions(v, 0.0)[0]) == 2


def test_transitions_all_in_band():
    pairs, touches = transitions(np.zeros(16), 0.1)
    assert len(pairs) == 0 and len(touches) == 0


def test_backend_selection_reports_something_sane():
    assert BACKEND == "reference"
