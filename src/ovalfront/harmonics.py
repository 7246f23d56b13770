"""Fourier spectra of periodic samples and the sign-change lower bound.

The classical Sturm-Hurwitz statement: a 2pi-periodic function whose
Fourier expansion starts at harmonic m (no constant term, nothing below m)
changes sign at least 2m times per period.  Applied to the deviation of a
curvature radius from its mean, the first harmonic is >= 2, which is the
spectral route to the four-point property.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import _kernels as kernels
from .errors import AllBelowToleranceError

# Relative floor below which a harmonic amplitude counts as absent.
AMP_TOL_FACTOR = 1e-9


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real Fourier coefficients a_n, b_n of a periodic sample sequence."""

    cos_amps: np.ndarray
    sin_amps: np.ndarray

    @property
    def amplitudes(self) -> np.ndarray:
        return np.hypot(self.cos_amps, self.sin_amps)


def spectrum(values) -> Spectrum:
    """Discrete real Fourier coefficients of uniformly spaced samples.

    Harmonics run up to count // 4, so every reported harmonic is sampled
    at least four times per period.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 4:
        raise ValueError("need a 1-d sequence of at least 4 samples")
    n = v.size
    n_max = n // 4
    coeff = np.fft.rfft(v)
    cos_amps = 2.0 * coeff.real[: n_max + 1] / n
    sin_amps = -2.0 * coeff.imag[: n_max + 1] / n
    cos_amps[0] *= 0.5
    sin_amps[0] = 0.0
    return Spectrum(cos_amps=cos_amps, sin_amps=sin_amps)


def first_nontrivial_harmonic(sp: Spectrum):
    """Smallest n >= 1 with amplitude above tolerance, or None if absent.

    The tolerance is 1e-9 times the largest harmonic amplitude.
    """
    amps = sp.amplitudes
    if len(amps) < 2:
        return None
    tail = amps[1:]
    top = float(tail.max())
    if top == 0.0:
        return None
    above = np.flatnonzero(tail > AMP_TOL_FACTOR * top)
    if above.size == 0:
        return None
    return int(above[0]) + 1


def count_sign_changes(values, tol: float = 0.0) -> int:
    """Cyclic sign changes with a hysteresis dead band of width ``tol``.

    The count is always even.  Raises :class:`AllBelowToleranceError`
    when no sample escapes the band.
    """
    v = np.asarray(values, dtype=float)
    if float(np.max(np.abs(v))) <= tol:
        raise AllBelowToleranceError("all samples inside the tolerance band")
    pairs, _ = kernels.transitions(v, tol)
    return len(pairs)


def verify_sturm_hurwitz(values) -> tuple[int, int]:
    """The two sides of the sign-change bound z >= 2m on centred periodic samples.

    Returns ``(m, z)``.  The sequence is centred on its own mean; m is the
    first nontrivial harmonic of the centred spectrum and z the hysteresis
    sign-change count, with a band of 1e-9 times the largest centred sample.
    Errors from the component steps (all-zero sequences and the like)
    propagate unchanged.
    """
    v = np.asarray(values, dtype=float)
    centred = v - v.mean()
    m = first_nontrivial_harmonic(spectrum(centred))
    if m is None:
        raise AllBelowToleranceError("no nontrivial harmonic in centred samples")
    return m, count_sign_changes(centred, tol=AMP_TOL_FACTOR * float(np.max(np.abs(centred))))
