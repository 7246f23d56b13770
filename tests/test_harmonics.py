"""Spectra, lowest-harmonic detection, sign-change lower bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovalfront import (
    AllBelowToleranceError,
    count_sign_changes,
    first_nontrivial_harmonic,
    spectrum,
    verify_sturm_hurwitz,
)

TWO_PI = 2.0 * np.pi


def _grid(n):
    return np.linspace(0, TWO_PI, n, endpoint=False)


def test_spectrum_recovers_planted_coefficients():
    x = _grid(256)
    v = 0.7 + 1.2 * np.cos(3 * x) - 0.4 * np.sin(5 * x)
    spec = spectrum(v)
    assert spec.cos_amps[0] == pytest.approx(0.7, abs=1e-12)
    assert spec.cos_amps[3] == pytest.approx(1.2, abs=1e-12)
    assert spec.sin_amps[5] == pytest.approx(-0.4, abs=1e-12)
    others = spec.amplitudes.copy()
    others[[0, 3, 5]] = 0.0
    assert np.max(others) < 1e-12


@given(
    st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=3, max_size=8)
)
@settings(max_examples=100, deadline=None)
def test_parseval_identity(amps):
    """Mean square of samples equals the coefficient energy."""
    x = _grid(128)
    v = np.zeros_like(x)
    for i, a in enumerate(amps):
        v += a * np.cos((i + 1) * x) + 0.5 * a * np.sin((i + 1) * x)
    spec = spectrum(v)
    energy = spec.cos_amps[0] ** 2 + 0.5 * np.sum(
        spec.cos_amps[1:] ** 2 + spec.sin_amps[1:] ** 2
    )
    assert energy == pytest.approx(float(np.mean(v**2)), rel=1e-8, abs=1e-10)


def test_first_nontrivial_harmonic_skips_tiny_leading_terms():
    x = _grid(256)
    v = 1e-12 * np.cos(x) + 0.5 * np.sin(4 * x)
    assert first_nontrivial_harmonic(spectrum(v)) == 4


def test_first_nontrivial_harmonic_none_on_silence():
    assert first_nontrivial_harmonic(spectrum(np.full(64, 0.3))) is None


def test_count_sign_changes_raises_when_all_in_band():
    with pytest.raises(AllBelowToleranceError):
        count_sign_changes(np.full(64, 1e-15), tol=1e-9)


def test_count_sign_changes_elementary_cases():
    x = _grid(512)
    # closed form: sin x + 0.1 sin 3x = sin x (1.3 - 0.4 sin^2 x), second
    # factor positive, so exactly the 2 cyclic flips of sin x
    assert count_sign_changes(np.sin(x) + 0.1 * np.sin(3 * x)) == 2
    assert count_sign_changes(np.sin(2 * x)) == 4
    assert count_sign_changes(np.cos(5 * x)) == 10


def test_verify_sturm_hurwitz_reports_lowest_harmonic():
    x = _grid(1024)
    v = 0.8 * np.sin(2 * x) + 0.3 * np.cos(7 * x)
    rep = verify_sturm_hurwitz(v)
    assert rep.first_harmonic == 2
    assert rep.sign_changes >= 4
    assert rep.passed


def test_verify_sturm_hurwitz_handles_dominant_high_harmonics():
    x = _grid(1024)
    # lowest harmonic 3 but harmonic 9 dominates: still >= 6 changes
    v = 0.05 * np.sin(3 * x) + 1.0 * np.cos(9 * x)
    rep = verify_sturm_hurwitz(v)
    assert rep.first_harmonic == 3
    assert rep.sign_changes >= 6
    assert rep.passed


@given(
    m=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=120, deadline=None)
def test_sign_change_lower_bound_property(m, seed):
    """A trig series starting at harmonic m changes sign >= 2m times."""
    rng = np.random.default_rng(seed)
    x = _grid(512)
    v = 0.5 * np.cos(m * x + rng.uniform(0, TWO_PI))
    for j in range(m + 1, m + 5):
        amp = rng.normal(scale=0.3 / (j - m + 1))
        v += amp * np.cos(j * x + rng.uniform(0, TWO_PI))
    assert count_sign_changes(v) >= 2 * m
