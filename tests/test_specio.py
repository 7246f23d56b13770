"""Curve-spec parsing, builders, and deterministic export formats."""

import dataclasses
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ovalfront import (
    EUCLIDEAN,
    HYPERBOLIC,
    SPHERICAL,
    DegenerateSamplingError,
    SpecFormatError,
    build_curve,
    curvature_profile,
    hyperbolic_circle,
    load_curve_spec,
    propagate,
    sphere_circle,
    spectrum,
    unit_circle,
    validate_curve_spec,
)
from ovalfront import cli, specio

GOLDEN = Path(__file__).parent / "golden"


def spec_doc(**kw):
    base = {"geometry": "euclidean", "representation": "support_fourier",
            "coeffs": [[0, 1.0, 0.0], [2, 0.1, 0.05]]}
    base.update(kw)
    return base


# ---------------------------------------------------------------------------
# loading and validation


def test_load_round_trip(tmp_path):
    path = tmp_path / "oval.json"
    path.write_text(json.dumps(spec_doc()))
    doc = load_curve_spec(path)
    assert doc["representation"] == "support_fourier"


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SpecFormatError, match="not valid JSON"):
        load_curve_spec(path)


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(SpecFormatError, match="cannot read"):
        load_curve_spec(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2, 3],
        {"geometry": "flat", "representation": "samples"},
        {"geometry": "euclidean", "representation": "perturbed_circle", "rho": 1.0},
        spec_doc(n_samples=8),
        spec_doc(n_samples=2.5),
        spec_doc(coeffs=[]),
        spec_doc(coeffs="nope"),
        spec_doc(coeffs=[[0, 1.0]]),
        spec_doc(coeffs=[[-1, 1.0, 0.0]]),
        spec_doc(coeffs=[[0, 1.0, 0.0], [0, 0.5, 0.0]]),
        {"geometry": "euclidean", "representation": "samples", "points": [[0, 0]] * 4},
        {"geometry": "euclidean", "representation": "samples",
         "points": [[0, 0, 0]] * 8},
        {"geometry": "euclidean", "representation": "samples",
         "points": [[0, "x"]] * 8},
        {"geometry": "spherical", "representation": "perturbed_circle", "rho": -1.0},
        {"geometry": "spherical", "representation": "perturbed_circle", "rho": 0.7,
         "harmonics": [[0, 0.1, 0.0]]},
        {"geometry": "spherical", "representation": "perturbed_circle", "rho": 0.7,
         "harmonics": [[2, 0.1]]},
        {"geometry": "spherical", "representation": "perturbed_circle", "rho": 0.7,
         "harmonics": 3},
        {"geometry": "hyperbolic", "representation": "rounded_semicircle", "r": 0},
        {"geometry": "hyperbolic", "representation": "rounded_semicircle", "r": 2.0,
         "corner_scale": -0.1},
        # non-numeric and non-finite fields
        spec_doc(n_samples="abc"),
        spec_doc(coeffs=[["x", 1.0, 0.0]]),
        spec_doc(coeffs=[[0, "abc", 0.0]]),
        spec_doc(coeffs=[[0, 1.0, float("inf")]]),
        {"geometry": "spherical", "representation": "perturbed_circle",
         "rho": float("nan")},
        {"geometry": "hyperbolic", "representation": "hyperbolic_circle",
         "rho": float("inf")},
        {"geometry": "spherical", "representation": "perturbed_circle", "rho": 0.7,
         "harmonics": [["x", 0.1, 0.0]]},
        {"geometry": "hyperbolic", "representation": "hyperbolic_circle", "rho": 0.7,
         "harmonics": [[2, "abc", 0.0]]},
        {"geometry": "spherical", "representation": "perturbed_circle", "rho": 0.7,
         "harmonics": [[2, 0.1, float("nan")]]},
        {"geometry": "spherical", "representation": "sphere_samples",
         "points": [[0.0, 0.0, float("nan")]] * 8},
        {"geometry": "hyperbolic", "representation": "rounded_semicircle",
         "r": float("nan")},
        {"geometry": "hyperbolic", "representation": "rounded_semicircle", "r": 2.0,
         "corner_scale": float("inf")},
    ],
)
def test_validate_rejects(doc):
    with pytest.raises(SpecFormatError):
        validate_curve_spec(doc)


# ---------------------------------------------------------------------------
# builders for every representation


def test_build_support_fourier():
    curve = build_curve(spec_doc(), n_samples=256)
    assert curve.geometry == EUCLIDEAN
    assert curve.n_samples == 256
    assert curve.L == pytest.approx(2 * np.pi, rel=0.2)


def test_build_samples():
    pts = unit_circle(n_samples=64).points
    doc = {"geometry": "euclidean", "representation": "samples",
           "points": pts.tolist(), "n_samples": 128}
    curve = build_curve(doc)
    assert curve.geometry == EUCLIDEAN
    assert curve.n_samples == 128
    assert curve.L == pytest.approx(2 * np.pi, abs=1e-6)


def test_build_sphere_samples():
    pts = sphere_circle(0.7, n_samples=128).points
    doc = {"geometry": "spherical", "representation": "sphere_samples",
           "points": pts.tolist()}
    curve = build_curve(doc, n_samples=256)
    assert curve.geometry == SPHERICAL
    assert curve.L == pytest.approx(2 * np.pi * np.sin(0.7), rel=1e-6)


def test_build_perturbed_circle():
    doc = {"geometry": "spherical", "representation": "perturbed_circle",
           "rho": 0.7, "harmonics": [[3, 0.04, 0.4]]}
    curve = build_curve(doc, n_samples=512)
    assert curve.geometry == SPHERICAL
    assert np.max(curve.k) > np.min(curve.k)  # actually perturbed


def test_build_hyperbolic_circle_plain_and_perturbed():
    doc = {"geometry": "hyperbolic", "representation": "hyperbolic_circle",
           "rho": 0.9}
    plain = build_curve(doc, n_samples=256)
    np.testing.assert_allclose(plain.k, 1 / np.tanh(0.9), atol=1e-7)
    doc["harmonics"] = [[2, 0.05, 0.1]]
    wavy = build_curve(doc, n_samples=256)
    assert np.max(wavy.k) - np.min(wavy.k) > 0.01


def test_build_hyperboloid_samples():
    pts = hyperbolic_circle(0.8, n_samples=128).points
    doc = {"geometry": "hyperbolic", "representation": "hyperboloid_samples",
           "points": pts.tolist()}
    curve = build_curve(doc, n_samples=256)
    assert curve.geometry == HYPERBOLIC
    assert curve.L == pytest.approx(2 * np.pi * np.sinh(0.8), rel=1e-6)


def test_build_rounded_semicircle():
    doc = {"geometry": "hyperbolic", "representation": "rounded_semicircle",
           "r": 0.5, "n_samples": 256}
    curve = build_curve(doc)
    assert curve.geometry == HYPERBOLIC
    assert curve.n_samples == 256
    assert not curve.horocyclic_convex


def test_huge_degree_is_refused_before_allocation():
    # a dense coefficient list of 10**12 + 1 entries would raise MemoryError
    doc = spec_doc(coeffs=[[0, 1.0, 0.0], [10**12, 0.01, 0.0]])
    with pytest.raises(DegenerateSamplingError, match="cannot resolve harmonic 1000000000000"):
        build_curve(doc, n_samples=256)


def test_build_n_samples_precedence():
    doc = spec_doc(n_samples=128)
    assert build_curve(doc).n_samples == 128
    assert build_curve(doc, n_samples=64).n_samples == 64


# ---------------------------------------------------------------------------
# CSV and JSON exports


@pytest.fixture(scope="module")
def oval():
    return build_curve(spec_doc(), n_samples=128)


def test_curve_csv_layouts(tmp_path, oval):
    path = tmp_path / "curve.csv"
    specio.write_curve_csv(path, oval)
    lines = path.read_text().splitlines()
    assert lines[0] == "s,x,y,k"
    assert len(lines) == 1 + oval.n_samples

    specio.write_curve_csv(path, sphere_circle(0.7, n_samples=128))
    assert path.read_text().splitlines()[0] == "s,x,y,z,k_g,tau"

    specio.write_curve_csv(path, hyperbolic_circle(0.7, n_samples=128))
    assert path.read_text().splitlines()[0] == "s,x0,x1,x2,k"


def test_profile_and_spectrum_csv(tmp_path, oval):
    profile = curvature_profile(oval)
    ppath = tmp_path / "profile.csv"
    specio.write_profile_csv(ppath, profile)
    lines = ppath.read_text().splitlines()
    assert lines[0] == "param,k,mean,deviation"
    assert len(lines) == 1 + len(profile.values)

    sp = spectrum(profile.values - profile.mean)
    spath = tmp_path / "spectrum.csv"
    specio.write_spectrum_csv(spath, sp)
    lines = spath.read_text().splitlines()
    assert lines[0] == "n,cos_amp,sin_amp,magnitude"


def test_front_csv_layouts(tmp_path, oval):
    front = propagate(oval, 0.1)
    path = tmp_path / "front.csv"
    specio.write_front_csv(path, front)
    lines = path.read_text().splitlines()
    assert lines[0] == "s,x,y,regularity"
    assert len(lines) == 1 + len(front.points)


def test_front_csvs_match_one_call_per_front(tmp_path, oval):
    # plane, sphere and hyperbolic fronts in one call, so the shared arc-length
    # column changes between runs of fronts; one front has regularity 0
    plane = [propagate(oval, t) for t in (-0.8, 0.0, 0.3)]
    plane[1] = dataclasses.replace(plane[1], factor=np.where(np.arange(128) % 5, 1.0, 0.0))
    sphere = sphere_circle(0.7, n_samples=64)
    hyper = hyperbolic_circle(0.7, n_samples=64)
    fronts = [*plane, propagate(sphere, -0.2), propagate(sphere, 0.3),
              propagate(hyper, 0.2), plane[0]]
    assert 0 in fronts[1].regularity and fronts[3].s is fronts[4].s
    specio.write_front_csvs(tmp_path, fronts)
    for i, front in enumerate(fronts):
        one = tmp_path / f"one_{i}.csv"
        specio.write_front_csv(one, front)
        assert (tmp_path / f"front_{i:03d}.csv").read_bytes() == one.read_bytes(), i
    assert (tmp_path / "front_005.csv").read_text().startswith("s,x0,x1,x2,regularity\n")


def test_csv_is_deterministic(tmp_path, oval):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    specio.write_curve_csv(a, oval)
    specio.write_curve_csv(b, oval)
    assert a.read_bytes() == b.read_bytes()


def per_value_csv(header, columns) -> str:
    """The CSV text of one `f"{float(v):.12g}"` per value, the reference format."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    lines = [header, *(",".join(f"{float(v):.12g}" for v in row) for row in rows)]
    return "\n".join(lines) + "\n"


EDGE_VALUES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
               1e308, -1e308, 1e300, 1.7976931348623157e308, 1 / 3, -123456789.123456789,
               1e-5, 1e16, 0.1 + 0.2, 2.0**53 + 2.0]


def test_table_writer_matches_per_value_format(tmp_path):
    x = np.array(EDGE_VALUES)
    regularity = np.resize(np.array([-1, 0, 1], dtype=np.int8), len(x))
    # %d where it prints as %.12g does (|v| < 1e12); a column with any value
    # past that goes through float
    ints = [[0, 1, -7, 2**19, -(2**19), 10**12 - 1, 1 - 10**12], [2**19, 10**12],
            [2**19, -(10**12)], [7, 2**53 + 1], [7, 2**63 - 1], [7, -(2**63)]]
    ints = [np.resize(np.array(v, dtype=np.int64), len(x)) for v in ints]
    columns = (x, -x[::-1], np.sqrt(np.abs(x)), regularity, *ints)
    header = "a,b,c,regularity," + ",".join("i%d" % j for j in range(len(ints)))
    path = tmp_path / "table.csv"
    specio._write_table(path, header, *columns)
    assert path.read_text() == per_value_csv(header, columns)

    # a shared column prints as its values do
    s = specio._SharedColumn(x)
    specio._write_table(path, "s,b,c,regularity", s, np.column_stack(columns[1:3]), regularity)
    assert path.read_text() == per_value_csv("s,b,c,regularity", (x, *columns[1:4]))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda w: st.lists(st.lists(st.floats(), min_size=w, max_size=w), max_size=12)
    .map(lambda rows: np.array(rows, dtype=float).reshape(-1, w))
))
def test_table_writer_matches_per_value_format_on_any_floats(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    header = ",".join("c%d" % j for j in range(table.shape[1]))
    specio._write_table(path, header, *table.T)
    assert path.read_text() == per_value_csv(header, table.T)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-(2**63), 2**63 - 1), st.integers(-128, 127), st.floats()),
                max_size=12))
@example([(2**63 - 1, -128, 0.0), (10**12, 127, -0.0)])
@example([(10**12 - 1, 0, 1e-4), (1 - 10**12, -1, float("nan"))])
@example([(-(2**63), 1, 1e12)])
@example([])
def test_table_writer_integer_rule_on_any_int64(tmp_path_factory, rows):
    # %d where every |v| < 1e12, else %.12g of the float; int8 columns too
    big, small, x = (np.array([r[i] for r in rows], dtype=t)
                     for i, t in enumerate((np.int64, np.int8, float)))
    path = tmp_path_factory.mktemp("table") / "t.csv"
    specio._write_table(path, "big,small,x", big, small, x)
    assert path.read_text() == per_value_csv("big,small,x", (big, small, x))


def test_table_writer_zero_rows_and_blocks(tmp_path):
    path = tmp_path / "t.csv"
    specio._write_table(path, "s,x,y,regularity", np.zeros(0), np.zeros((0, 2)),
                        np.zeros(0, dtype=np.int8))
    assert path.read_text() == "s,x,y,regularity\n"

    # three row blocks of the five columns, a 2-D block between two shared
    # columns, a zero per block
    rng = np.random.default_rng(3)
    n = 2 * (specio._BLOCK_VALUES // 5) + 7
    s, x, y = rng.standard_normal((3, n)) * np.array([[1.0], [1e3], [1e-3]])
    x[::1000] = 0.0
    block, ints = np.column_stack([x, y]), rng.integers(-5, 5, n)
    specio._write_table(path, "s,x,y,i,t", specio._SharedColumn(s), block, ints,
                        specio._SharedColumn(-s))
    assert path.read_text() == per_value_csv("s,x,y,i,t", (s, x, y, ints, -s))


def test_shared_column_in_tables_of_different_widths(tmp_path):
    # a block of the 2-column table holds 5/2 times the rows of a block of the
    # 5-column one; each table must get the shared column's blocks of its rows
    rng = np.random.default_rng(5)
    s, x = rng.standard_normal((2, specio._BLOCK_VALUES // 2 + 3))
    shared, wide = specio._SharedColumn(s), np.column_stack([x, -x, 3 * x, x / 7])
    path = tmp_path / "t.csv"
    for header, columns in (("s,x", (x,)), ("s,a,b,c,d", (wide,)), ("s,x", (x,))):
        specio._write_table(path, header, shared, *columns)
        flat = [c for col in columns for c in np.atleast_2d(col.T)]
        assert path.read_text() == per_value_csv(header, (s, *flat))


def test_blocks_hold_at_most_block_values(tmp_path, monkeypatch):
    # every block of rows formats at most _BLOCK_VALUES values of its table,
    # and a table of no more values formats in one block
    tables, formats, text = [], dict(specio._FORMATS), specio._text

    def recording_text(columns, seps):
        tables.append((len(columns[0][0].values), len(columns), []))
        yield from text(columns, seps)

    def recording(cells):
        def wrapped(values, seps):
            tables[-1][2].append(len(values))
            return cells(values, seps)
        return wrapped

    monkeypatch.setattr(specio, "_text", recording_text)
    for fmt, cells in formats.items():
        monkeypatch.setitem(specio._FORMATS, fmt, recording(cells))
    specio.write_curve_csv(tmp_path / "curve.csv", hyperbolic_circle(0.7, n_samples=4096))
    assert cli.main(["propagate", "--input", str(GOLDEN / "oval_spec.json"), "--samples", "4096",
                     "--t=-1.5:0.5:0.1", "--format", "csv,svg", "--out", str(tmp_path)]
                    ) == cli.EXIT_PASS
    # the curve CSV, 21 front CSVs and the polylines of the curve and 21 fronts
    assert [(rows, width) for rows, width, _ in tables] == (
        [(4096, 5)] + [(4096, 4)] * 21 + [(4096, 2)] * 22)
    for rows, width, blocks in tables:
        assert blocks and all(r * width <= specio._BLOCK_VALUES for r in blocks)
        if rows * width <= specio._BLOCK_VALUES:
            assert set(blocks) == {rows}


# ---------------------------------------------------------------------------
# number cells: each format against one Python % per value


def cell_text(fmt, values, seps) -> str:
    """The cell writer's text of an (n, k) array; each value follows its column's separator."""
    num = specio._Numbers(fmt, values)
    return b"".join(specio._text([(num, j) for j in range(values.shape[1])], seps)).decode()


def per_value_text(fmt, values, seps) -> str:
    return "".join(sep + fmt % v for row in values.tolist() for sep, v in zip(seps, row))


def assert_cells_match_percent(fmt, values):
    seps = "\n" + "," * (values.shape[1] - 1)
    want = per_value_text(fmt, values, seps)
    assert cell_text(fmt, values, seps) == want
    # several blocks of 1-3 rows (a row a block where fewer values than
    # columns fit), slow rows in any
    for per_block in (2, 3 * values.shape[1]):
        with mock.patch.object(specio, "_BLOCK_VALUES", per_block):
            assert cell_text(fmt, values, seps) == want


def blocks(elements, dtype):
    return st.integers(1, 3).flatmap(
        lambda k: st.lists(st.lists(elements, min_size=k, max_size=k), max_size=20)
        .map(lambda rows: np.array(rows, dtype=dtype).reshape(-1, k))
    )


def column(values, dtype=float):
    return np.array(values, dtype=dtype)[:, None]


# fast-path edges: zero, non-finite, subnormal, the fixed-point exponent range
# [-4, 11] and values that round across its ends, near ties
G_EDGES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-4, 9.99999999999995e-05,
           -9.99999999999995e-05, 9.9999999999995, 999999999999.5, 1e12, 1e12 - 1, 1 - 1e12,
           -0.001, 0.5, 1.0, 10.0, 0.1 + 0.2, 1 / 3, 2.0**53 + 2.0, 0.00713597]


@settings(max_examples=200, deadline=None)
@given(blocks(st.one_of(st.floats(), st.floats(-1e13, 1e13), st.floats(-1e-3, 1e-3)), float))
@example(column(G_EDGES))
@example(np.array([*G_EDGES, -2.5]).reshape(-1, 3))
@example(np.zeros((0, 2)))
def test_g_cells_match_percent(values):
    assert_cells_match_percent("%.12g", values)


# ties k/8, a negative that rounds to -0.00, the end of the fast range at 1e4
F2_EDGES = [k / 8 for k in range(-24, 25)] + [
    0.0, -0.0, -0.001, 0.005, -0.005, 9999.995, 9999.994, 9999.996, 1e4, -1e4, 1e300,
    5e-324, np.nan, np.inf, -np.inf]


@settings(max_examples=200, deadline=None)
@given(blocks(st.one_of(st.floats(), st.floats(-2e4, 2e4)), float))
@example(column(F2_EDGES))
@example(column(F2_EDGES[::-1]).reshape(-1, 2))
def test_f2_cells_match_percent(values):
    assert_cells_match_percent("%.2f", values)


D_EDGES = [0, 1, -1, 9, 10, -10, 9999, 10000, -10000, 10**8 - 1, 10**8, 10**12 - 1, 1 - 10**12]


@settings(max_examples=200, deadline=None)
@given(blocks(st.integers(1 - 10**12, 10**12 - 1), np.int64))
@example(column(D_EDGES, np.int64))
@example(column([-128, -1, 0, 1, 127], np.int8))
def test_d_cells_match_percent(values):
    assert_cells_match_percent("%d", values)


def test_digit_tables_are_decimal_digits():
    assert specio._QUAD_TEXT.view(np.uint8).tobytes() == "".join(
        "%04d" % i for i in range(10000)).encode()
    assert specio._POINT_TEXT.view(np.uint8).tobytes() == "".join(
        ".%03d" % i for i in range(1000)).encode()
    quads = ["%04d" % i for i in range(10000)]
    assert specio._QUAD_ZEROS.tolist() == [len(q) - len(q.rstrip("0")) for q in quads]
    assert specio._QUAD_DIGITS.tolist() == [len("%d" % i) for i in range(10000)]


def per_value_table(path, header: str, *columns) -> None:
    """`specio._write_table` with one ``%.12g`` per value: the reference format."""
    flat = []
    for col in columns:
        col = col.values[:, 0] if isinstance(col, specio._SharedColumn) else np.asarray(col)
        flat.extend(col.T if col.ndim == 2 else [col])
    Path(path).write_text(per_value_csv(header, flat))


def per_value_polyline(xs, ys, color: str, width: float = 1.5) -> bytes:
    """`specio._polyline` with one ``%.2f`` per coordinate: the reference format."""
    closed = np.column_stack([np.append(xs, xs[0]), np.append(ys, ys[0])])
    pts = ("%.2f,%.2f " * len(closed)) % tuple(closed.ravel().tolist())
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="{width}" '
        f'points="{pts[:-1]}"/>'
    ).encode()


@pytest.mark.parametrize(
    "argv, names",
    [
        (["propagate", "--input", str(GOLDEN / "oval_spec.json"), "--samples", "4096",
          "--t=-1.5:0.5:0.1", "--format", "csv,svg"],
         [*(f"front_{i:03d}.csv" for i in range(21)), "propagate_fronts.svg"]),
        (["counterexample", "--r", "2", "--samples", "4096", "--format", "csv,svg"],
         ["counterexample_curve.csv", "counterexample_curve.svg"]),
    ],
    ids=["propagate", "counterexample"],
)
def test_workload_scale_exports_match_per_value_formats(tmp_path, monkeypatch, argv, names):
    cells, reference = tmp_path / "cells", tmp_path / "reference"
    assert cli.main([*argv, "--out", str(cells)]) == cli.EXIT_PASS
    monkeypatch.setattr(specio, "_write_table", per_value_table)
    monkeypatch.setattr(specio, "_polyline", per_value_polyline)
    assert cli.main([*argv, "--out", str(reference)]) == cli.EXIT_PASS
    for name in names:
        assert (cells / name).read_bytes() == (reference / name).read_bytes(), name


def test_jsonable_conversions():
    out = specio.jsonable(
        {
            "flag": np.bool_(True),
            "count": np.int64(3),
            "val": np.float64(1.0) / 3.0,
            "bad": float("nan"),
            "inf": float("inf"),
            "arr": np.array([1.0, 2.0]),
            5: "key-coerced",
            "nested": ({"deep": np.float32(2.0)},),
        }
    )
    assert out["flag"] is True
    assert out["count"] == 3
    assert out["val"] == 0.333333333333  # 12 significant digits
    assert out["bad"] is None
    assert out["inf"] is None
    assert out["arr"] == [1.0, 2.0]
    assert out["5"] == "key-coerced"
    assert out["nested"] == [{"deep": 2.0}]


def test_json_report_layout(tmp_path):
    path = tmp_path / "report.json"
    specio.write_json_report(path, {"zeta": 1.0, "alpha": float("nan")})
    text = path.read_text()
    doc = json.loads(text)
    assert doc["schema_version"] == specio.SCHEMA_VERSION
    assert doc["alpha"] is None
    assert text.index('"alpha"') < text.index('"zeta"')  # sorted keys
    assert text.endswith("\n")

    other = tmp_path / "again.json"
    specio.write_json_report(other, {"zeta": 1.0, "alpha": float("nan")})
    assert other.read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# SVG exports


def test_plane_svg_marks_cusps(tmp_path, oval):
    front = propagate(oval, -0.8)  # inside the curvature-radius band: cusped
    assert len(front.cusps) >= 4
    path = tmp_path / "plane.svg"
    specio.write_plane_svg(path, [oval, front])
    text = path.read_text()
    assert text.startswith("<svg ")
    assert text.count("<polyline") == 2
    assert text.count("<circle") == len(front.cusps)


def test_sphere_and_klein_svg(tmp_path):
    spath = tmp_path / "sphere.svg"
    specio.write_sphere_svg(spath, [sphere_circle(0.7, n_samples=128)])
    stext = spath.read_text()
    assert stext.count("<polyline") == 1 and stext.count("<circle") == 1  # rim

    kpath = tmp_path / "klein.svg"
    specio.write_klein_svg(kpath, [hyperbolic_circle(0.7, n_samples=128)])
    ktext = kpath.read_text()
    assert ktext.count("<polyline") == 1 and ktext.count("<circle") == 1

    specio.write_sphere_svg(tmp_path / "s2.svg", [sphere_circle(0.7, n_samples=128)])
    assert (tmp_path / "s2.svg").read_bytes() == stext.encode()
