"""The in-place curve kernels against the NumPy expressions they replace, bit for bit.

Each reference below is the expression the kernel used to evaluate with
fresh temporaries.  The kernels now write into preallocated arrays in the
same order, so every float must come out with the same bit pattern,
signed zeros and infinities included (NaNs compare as one NaN), and no
kernel may modify its input or return memory that an input owns.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ovalfront._kernels import periodic_deriv
from ovalfront.curves import (
    arclength_resample,
    euclidean_dot,
    fourier_antiderivative,
    harmonic_radius,
    polar_curve,
    propagate_front,
)
from ovalfront.hyperbolic import HYPERBOLOID, perturbed_hyperbolic_circle
from ovalfront.sphere import SPHERE, perturbed_sphere_circle
from test_kernels import _rolled_periodic_deriv

TWO_PI = 2.0 * np.pi

special_floats = st.floats(allow_nan=True, allow_infinity=True)


def same_bits(got, want) -> bool:
    """Equal shapes and equal float64 bit patterns, signed zeros and infinities included.

    Which NaN an operation on two NaNs returns is up to the loop (NumPy's own
    in-place and out-of-place adds pick different operands), so every NaN is
    compared as the one canonical NaN; all other bits must match.
    """
    got, want = (np.asarray(x, dtype=float) for x in (got, want))
    got, want = (np.where(np.isnan(x), np.nan, x) for x in (got, want))
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# periodic stencils


@settings(max_examples=80, deadline=None)
@given(
    block=hnp.arrays(
        float, st.tuples(st.integers(1, 24), st.integers(1, 3)), elements=special_floats
    ),
    order=st.integers(1, 3),
    spacing=st.floats(1e-3, 10.0),
)
@example(block=np.full((6, 2), -0.0), order=1, spacing=0.5)
@example(block=np.array([[0.0], [-0.0], [0.0], [-0.0], [0.0]]), order=2, spacing=0.25)
@example(block=np.array([[np.inf], [1.0], [-np.inf], [2.0], [3.0]]), order=3, spacing=0.1)
@example(block=np.array([[np.nan, 1.0], [-0.0, np.inf], [2.0, 0.0], [1.0, -1.0]]),
         order=1, spacing=1e-3)
def test_periodic_deriv_matches_the_one_expression_bit_for_bit(block, order, spacing):
    # the in-place stencil leaves its input alone and returns new memory
    before = block.copy()
    with np.errstate(all="ignore"):
        got = periodic_deriv(block, order, spacing)
        want = _rolled_periodic_deriv(block, order, spacing)
    assert same_bits(got, want)
    assert same_bits(block, before)
    assert not np.shares_memory(got, block)
    with np.errstate(all="ignore"):
        column = periodic_deriv(block[:, 0], order, spacing)
    assert same_bits(column, got[:, 0])


# ---------------------------------------------------------------------------
# row dot products and row norms


@st.composite
def row_pairs(draw):
    """Two (n, 2) or (n, 3) blocks of any floats, of one shape."""
    shape = (draw(st.integers(1, 30)), draw(st.sampled_from([2, 3])))
    return tuple(draw(hnp.arrays(float, shape, elements=special_floats)) for _ in range(2))


@settings(max_examples=150, deadline=None)
@given(pair=row_pairs())
# products that are all -0.0 sum to +0.0 in NumPy's order, to -0.0 in p0 + p1 + p2
@example(pair=(np.array([[-0.0, -0.0, -0.0]]), np.array([[1.0, 1.0, 1.0]])))
@example(pair=(np.array([[0.0, -0.0], [-0.0, -0.0]]), np.array([[-1.0, 2.0], [3.0, 0.0]])))
@example(pair=(np.array([[np.inf, 0.0, 1.0]]), np.array([[0.0, np.nan, -np.inf]])))
@example(pair=(np.array([[np.inf, -np.inf, 2.0]]), np.array([[1.0, 1.0, 1.0]])))
def test_row_dot_and_norm_match_numpy_reductions_bit_for_bit(pair):
    a, b = pair
    before = (a.copy(), b.copy())
    with np.errstate(all="ignore"):
        dot = euclidean_dot(a, b)
        norms = SPHERE.norm(a)
        want_dot = np.sum(a * b, axis=-1)
        want_norms = np.linalg.norm(a, axis=1)
    assert same_bits(dot, want_dot)
    assert same_bits(norms, want_norms)
    assert same_bits(a, before[0]) and same_bits(b, before[1])
    for out in (dot, norms):
        assert not np.shares_memory(out, a) and not np.shares_memory(out, b)


def test_row_norms_of_a_block_stack_match_numpy():
    # the diameter's block radii: (blocks, samples, 3)
    stack = np.random.default_rng(3).normal(size=(5, 64, 3))
    stack[0, :4] = -0.0
    assert same_bits(SPHERE.norm(stack), np.linalg.norm(stack, axis=2))


# ---------------------------------------------------------------------------
# harmonic radius and the polar speed


def _looped_harmonic_radius(rho, harmonics):
    """r and r' with a new array per step: the bitwise reference."""
    terms = [(int(m), float(a), float(p)) for m, a, p in harmonics]

    def r_fn(phi):
        r = np.full_like(np.asarray(phi, dtype=float), rho)
        for m, a, p in terms:
            r = r + a * np.cos(m * np.asarray(phi) + p)
        return r

    def dr_fn(phi):
        d = np.zeros_like(np.asarray(phi, dtype=float))
        for m, a, p in terms:
            d = d - a * m * np.sin(m * np.asarray(phi) + p)
        return d

    return r_fn, dr_fn


harmonic_lists = st.lists(
    st.tuples(st.integers(0, 9), st.floats(-0.5, 0.5), st.floats(-10.0, 10.0)), max_size=4
)


@settings(max_examples=100, deadline=None)
@given(
    rho=st.floats(0.1, 3.0),
    harmonics=harmonic_lists,
    phi=st.one_of(
        hnp.arrays(float, st.integers(0, 40), elements=special_floats),
        special_floats,
        special_floats.map(np.array),
    ),
)
@example(rho=0.8, harmonics=[(2, 0.03, 0.4), (3, -0.02, 1.1)], phi=1.25)
@example(rho=0.8, harmonics=[(2, 0.03, 0.4)], phi=np.array(-0.0))
@example(rho=0.5, harmonics=[(1, 0.1, 0.0), (0, -0.0, 0.0)],
         phi=np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, np.pi]))
@example(rho=0.5, harmonics=[], phi=2.0)
def test_harmonic_radius_matches_the_looped_sums_bit_for_bit(rho, harmonics, phi):
    got_r, got_dr = harmonic_radius(rho, harmonics)
    want_r, want_dr = _looped_harmonic_radius(rho, harmonics)
    before = np.array(phi, dtype=float)
    with np.errstate(all="ignore"):
        pairs = [(got_r(phi), want_r(phi)), (got_dr(phi), want_dr(phi))]
    for got, want in pairs:
        assert same_bits(got, want)
        assert np.ndim(got) == np.ndim(phi)
        assert not np.shares_memory(got, phi)
    assert same_bits(phi, before)


def test_polar_curve_speed_matches_the_one_expression_bit_for_bit():
    harmonics = [(2, 0.03, 0.4), (3, 0.02, 1.1), (5, -0.004, 2.0)]
    for form in (SPHERE, HYPERBOLOID):
        r_fn, dr_fn = harmonic_radius(0.7, harmonics)

        def point_fn(phi):
            return form.polar(r_fn(phi), phi)

        def speed_fn(phi):
            return np.sqrt(dr_fn(phi) ** 2 + form.s(r_fn(phi)) ** 2)

        got = polar_curve(form, r_fn, dr_fn, 96)
        want = arclength_resample(point_fn, 96, speed_fn)
        for g, w in zip(got, want):
            assert same_bits(g, w)


# ---------------------------------------------------------------------------
# spectral antiderivative


def _where_fourier_antiderivative(values, period=TWO_PI):
    """Every bin divided, the mean bin replaced by np.where: the bitwise reference."""
    v = np.asarray(values, dtype=float)
    n = v.size
    vbar = float(v.mean())
    coeff = np.fft.rfft(v - vbar)
    freq = 2j * np.pi * np.arange(coeff.size) / float(period)
    with np.errstate(divide="ignore", invalid="ignore"):
        anti = np.where(freq != 0.0, coeff / freq, 0.0)
    osc = np.fft.irfft(anti, n)
    x = np.arange(n) * (period / n)
    return vbar * x + (osc - osc[0])


@settings(max_examples=100, deadline=None)
@given(
    values=hnp.arrays(float, st.integers(1, 64), elements=special_floats),
    period=st.floats(0.1, 100.0),
)
@example(values=np.full(8, -0.0), period=TWO_PI)
@example(values=np.array([1.0, np.inf, 2.0, 3.0]), period=TWO_PI)
@example(values=np.array([1.0, np.nan, -0.0, 3.0, 4.0]), period=1.5)
@example(values=np.array([1e308, 1e308, -1e308, 3.0, 1e308, -1e308]), period=TWO_PI)
def test_fourier_antiderivative_matches_the_where_expression_bit_for_bit(values, period):
    before = values.copy()
    with np.errstate(all="ignore"):
        got = fourier_antiderivative(values, period)
        want = _where_fourier_antiderivative(values, period)
    assert same_bits(got, want)
    assert same_bits(values, before)
    assert not np.shares_memory(got, values)


# ---------------------------------------------------------------------------
# polar Green area


def _rolled_green_area(form, points, center, spacing):
    """The angle steps by roll, their running sum by concatenate: the bitwise reference."""
    e1, e2 = form.polar_frame(center)
    phi = np.arctan2(form.dot(points, e2), form.dot(points, e1))
    steps = np.angle(np.exp(1j * (np.roll(phi, -1) - phi)))
    winding = float(steps.sum()) / TWO_PI
    n = len(phi)
    ramp = winding * TWO_PI * np.arange(n) / n
    periodic = np.cumsum(np.concatenate([[0.0], steps[:-1]])) - ramp + phi[0]
    dphi = periodic_deriv(periodic, 1, spacing) + winding * TWO_PI / (n * spacing)
    return float(np.sum(form.green_weight(points, center) * dphi) * spacing)


@settings(max_examples=60, deadline=None)
@given(
    form=st.sampled_from([SPHERE, HYPERBOLOID]),
    n=st.integers(3, 300),
    rho=st.floats(0.2, 1.4),
    harmonics=harmonic_lists,
    offset=st.tuples(st.floats(0.0, 0.1), st.floats(0.0, TWO_PI)),
    spacing=st.floats(1e-3, 1.0),
)
# a circle about the pole: coordinates with exact zeros and signed zeros
@example(form=SPHERE, n=8, rho=np.pi / 2, harmonics=[], offset=(0.0, 0.0), spacing=0.1)
@example(form=HYPERBOLOID, n=4, rho=1.0, harmonics=[], offset=(0.0, 0.0), spacing=0.5)
def test_green_area_matches_the_rolled_expression_bit_for_bit(
    form, n, rho, harmonics, offset, spacing
):
    phi = np.arange(n) * (TWO_PI / n)
    r_fn, _ = harmonic_radius(rho, [(m, 0.1 * a, p) for m, a, p in harmonics])
    points = form.polar(r_fn(phi), phi)
    center = form.polar(np.array([offset[0]]), np.array([offset[1]]))[0]
    before = (points.copy(), center.copy())
    got = form.green_area(points, center, spacing)
    assert same_bits(got, _rolled_green_area(form, points, center, spacing))
    assert same_bits(points, before[0]) and same_bits(center, before[1])


# ---------------------------------------------------------------------------
# the stencil a front shares between k and normal


def test_front_k_and_normal_leave_the_shared_stencil_alone():
    harmonics = [(2, 0.03, 0.4), (3, 0.02, 1.1)]
    for curve in (perturbed_sphere_circle(0.8, harmonics, n_samples=256),
                  perturbed_hyperbolic_circle(0.8, harmonics, n_samples=256)):
        front = propagate_front(curve, 0.1)
        d1 = front._stencil[0]
        before = d1.copy()
        k, normal = front.k, front.normal
        assert same_bits(d1, before)
        assert same_bits(d1, periodic_deriv(front.points, 1, front._spacing))
        for out in (k, normal):
            assert not np.shares_memory(out, d1)
            assert not np.shares_memory(out, front.points)
