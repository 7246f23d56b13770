"""Curve-spec parsing, builders, and deterministic export formats."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
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
from ovalfront import specio


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
    columns = (x, -x[::-1], np.sqrt(np.abs(x)), regularity)
    path = tmp_path / "table.csv"
    specio._write_table(path, "a,b,c,regularity", *columns)
    assert path.read_text() == per_value_csv("a,b,c,regularity", columns)


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
