"""Sampling kernel tests: correctness and convergence order."""

import numpy as np
import pytest

from ovalfront._kernels import BACKEND, periodic_deriv, transitions, trig_eval


# ---------------------------------------------------------------------------
# trig_eval


def test_trig_eval_matches_direct_loop():
    rng = np.random.default_rng(7)
    cos_amps = rng.normal(size=9)
    sin_amps = rng.normal(size=9)
    x = rng.uniform(0, 2 * np.pi, size=40)
    got = trig_eval(cos_amps, sin_amps, x)
    want = np.zeros_like(x)
    for n in range(9):
        want += cos_amps[n] * np.cos(n * x) + sin_amps[n] * np.sin(n * x)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_trig_eval_derivatives_of_single_harmonic():
    x = np.linspace(0, 2 * np.pi, 17, endpoint=False)
    c = np.array([0.0, 0.0, 0.0, 1.0])  # cos(3x)
    s = np.zeros(4)
    np.testing.assert_allclose(trig_eval(c, s, x, 1), -3 * np.sin(3 * x), atol=1e-12)
    np.testing.assert_allclose(trig_eval(c, s, x, 2), -9 * np.cos(3 * x), atol=1e-12)
    np.testing.assert_allclose(trig_eval(c, s, x, 3), 27 * np.sin(3 * x), atol=1e-11)


def test_trig_eval_rejects_mismatched_coeffs():
    with pytest.raises(ValueError):
        trig_eval([1.0, 0.0], [0.0], [0.1])
    with pytest.raises(ValueError):
        trig_eval([1.0], [0.0], [0.1], deriv=-1)


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


def test_transitions_all_in_band():
    pairs, touches = transitions(np.zeros(16), 0.1)
    assert len(pairs) == 0 and len(touches) == 0


def test_backend_selection_reports_something_sane():
    assert BACKEND == "reference"
