"""Curve-spec files and export formats.

A curve spec is a small JSON document with ``geometry``,
``representation`` and representation-specific fields; `build_curve`
turns one into a sampled curve.  Exports (CSV, SVG, JSON reports) are
deterministic: fixed column orders, fixed float formatting, sorted JSON
keys, and no timestamps, so identical inputs give byte-identical files.
Every CSV goes through one table writer, `_write_table`, which picks a
format per column: floats print as ``%.12g``; integers print as ``%d``
where that gives the same text as ``%.12g`` (|v| < 1e12), else as floats;
a column already formatted as strings prints as given.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .curves import EUCLIDEAN, HYPERBOLIC, SPHERICAL, periodic_interpolant
from .errors import SpecFormatError
from .hyperbolic import (
    RoundedSemicircleSpec,
    build_rounded_semicircle,
    hyperbolic_circle,
    hyperbolic_curve_from_points,
    perturbed_hyperbolic_circle,
)
from .sphere import perturbed_sphere_circle, sphere_curve_from_points, total_torsion
from .support import SupportOval, build_oval, check_oval_sampling, euclidean_curve_from_points
from .errors import BadParametrizationError, FrenetBreakdownError

SCHEMA_VERSION = 1

REPRESENTATIONS = {
    EUCLIDEAN: {"support_fourier", "samples"},
    SPHERICAL: {"sphere_samples", "perturbed_circle"},
    HYPERBOLIC: {"hyperbolic_circle", "rounded_semicircle", "hyperboloid_samples"},
}

_DEFAULT_SAMPLES = 1024
# width and height of every SVG picture, in pixels
SVG_SIZE = 640


def load_curve_spec(path) -> dict:
    """Read and validate a curve-spec JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{path} is not valid JSON: {exc}") from exc
    validate_curve_spec(doc)
    return doc


def _is_number(v) -> bool:
    """A JSON number within the finite float range (booleans are not numbers)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    return abs(v) <= sys.float_info.max


def _require_rows(rows, width: int, what: str) -> None:
    for row in rows:
        if not (isinstance(row, list) and len(row) == width and all(map(_is_number, row))):
            raise SpecFormatError(f"{what} must be rows of {width} finite numbers")


def _require_positive(doc, key: str, required: bool = True) -> None:
    v = doc.get(key)
    if (v is not None or required) and not (_is_number(v) and v > 0):
        raise SpecFormatError(f"'{key}' must be a positive number")


def _require_points(doc, width: int):
    pts = doc.get("points")
    if not isinstance(pts, list) or len(pts) < 8:
        raise SpecFormatError("'points' must list at least 8 samples")
    _require_rows(pts, width, "'points'")


def _require_harmonics(doc):
    rows = doc.get("harmonics")
    if rows is None:
        return
    if not isinstance(rows, list):
        raise SpecFormatError("'harmonics' must be a list of [order, amp, phase] rows")
    _require_rows(rows, 3, "'harmonics' [order, amp, phase]")
    for row in rows:
        if not float(row[0]).is_integer() or int(row[0]) < 1:
            raise SpecFormatError("harmonic orders must be positive integers")


def validate_curve_spec(doc) -> None:
    """Raise :class:`SpecFormatError` unless ``doc`` is a well-formed curve spec."""
    if not isinstance(doc, dict):
        raise SpecFormatError("curve spec must be a JSON object")
    geometry = doc.get("geometry")
    if geometry not in REPRESENTATIONS:
        raise SpecFormatError(f"unknown geometry {geometry!r}")
    rep = doc.get("representation")
    if rep not in REPRESENTATIONS[geometry]:
        raise SpecFormatError(f"unknown representation {rep!r} for {geometry}")
    n = doc.get("n_samples")
    if n is not None and not (_is_number(n) and float(n).is_integer() and n >= 16):
        raise SpecFormatError("'n_samples' must be an integer >= 16")

    if rep == "support_fourier":
        rows = doc.get("coeffs")
        if not isinstance(rows, list) or not rows:
            raise SpecFormatError("'coeffs' must be a non-empty list of [n, cos, sin]")
        _require_rows(rows, 3, "'coeffs' [n, cos, sin]")
        seen = set()
        for row in rows:
            if not float(row[0]).is_integer() or int(row[0]) < 0:
                raise SpecFormatError("harmonic degrees must be integers >= 0")
            if int(row[0]) in seen:
                raise SpecFormatError(f"duplicate harmonic degree {int(row[0])}")
            seen.add(int(row[0]))
    elif rep == "samples":
        _require_points(doc, 2)
    elif rep in ("sphere_samples", "hyperboloid_samples"):
        _require_points(doc, 3)
    elif rep in ("perturbed_circle", "hyperbolic_circle"):
        _require_positive(doc, "rho")
        _require_harmonics(doc)
    elif rep == "rounded_semicircle":
        _require_positive(doc, "r")
        for key in ("corner_scale", "flat_deviation"):
            _require_positive(doc, key, required=False)


def build_curve(doc: dict, n_samples: int | None = None):
    """Construct the sampled curve described by a validated spec document."""
    validate_curve_spec(doc)
    rep = doc["representation"]
    n = int(n_samples or doc.get("n_samples") or _DEFAULT_SAMPLES)

    if rep == "support_fourier":
        degree = max(int(row[0]) for row in doc["coeffs"])
        check_oval_sampling(n, degree)  # before the dense list is allocated
        dense = [(0.0, 0.0)] * (degree + 1)
        for deg, c, s in doc["coeffs"]:
            dense[int(deg)] = (float(c), float(s))
        return build_oval(SupportOval(coeffs=tuple(dense), n_samples=n))
    if rep == "samples":
        return euclidean_curve_from_points(doc["points"], n_samples=n)
    if rep == "sphere_samples":
        return sphere_curve_from_points(doc["points"], n_samples=n)
    if rep == "perturbed_circle":
        harmonics = doc.get("harmonics") or []
        return perturbed_sphere_circle(float(doc["rho"]), harmonics, n_samples=n)
    if rep == "hyperbolic_circle":
        harmonics = doc.get("harmonics")
        if harmonics:
            return perturbed_hyperbolic_circle(float(doc["rho"]), harmonics, n_samples=n)
        return hyperbolic_circle(float(doc["rho"]), n_samples=n)
    if rep == "hyperboloid_samples":
        return hyperbolic_curve_from_points(doc["points"], n_samples=n)
    spec = RoundedSemicircleSpec(
        r=float(doc["r"]),
        corner_scale=float(doc.get("corner_scale", 0.02)),
        flat_deviation=float(doc.get("flat_deviation", 0.05)),
        n_samples=n,
    )
    return build_rounded_semicircle(spec)


# ---------------------------------------------------------------------------
# CSV


# integers of smaller magnitude print the same digits with %d as with %.12g
_EXACT_INT = 10**12


def _field(values: np.ndarray):
    """(format, values as a list) of one 1-D array column."""
    if np.issubdtype(values.dtype, np.integer) and (
        values.size == 0 or -_EXACT_INT < values.min() and values.max() < _EXACT_INT
    ):
        return "%d", values.tolist()
    return "%.12g", values.astype(float, copy=False).tolist()


def _formatted(values) -> list:
    """A 1-D array column as the strings `_write_table` would print for it."""
    fmt, items = _field(np.asarray(values))
    return ((fmt + "\n") * len(items) % tuple(items)).split("\n")[:-1]


def _write_table(path, header: str, *columns) -> None:
    """Write the columns as CSV, the whole table in one ``%`` operation.

    A column is a 1-D array, a 2-D block of columns, or a list of strings
    already formatted.  Float values print as ``%.12g`` (Python prints nan,
    inf and -0 the same way as ``f"{x:.12g}"``); integer columns print as
    ``%d`` when every |v| < 1e12, where the text is the same, and as
    ``%.12g`` of the float otherwise; strings print as given.
    """
    fields = []
    for col in columns:
        if isinstance(col, list):
            fields.append(("%s", col))
            continue
        col = np.asarray(col)
        fields.extend(_field(c) for c in (col.T if col.ndim == 2 else [col]))
    width = len(fields)
    rows = len(fields[0][1])
    flat = [None] * (rows * width)
    for j, (_, items) in enumerate(fields):
        flat[j::width] = items
    line = ",".join(fmt for fmt, _ in fields) + "\n"
    Path(path).write_text(header + "\n" + (line * rows) % tuple(flat))


def write_profile_csv(path, profile) -> None:
    """Columns: param,k,mean,deviation."""
    k = profile.values
    _write_table(path, "param,k,mean,deviation", profile.param, k,
                 np.full(len(k), profile.mean), k - profile.mean)


def write_spectrum_csv(path, spectrum) -> None:
    """Columns: n,cos_amp,sin_amp,magnitude."""
    n = np.arange(len(spectrum.cos_amps))
    _write_table(path, "n,cos_amp,sin_amp,magnitude", n, spectrum.cos_amps,
                 spectrum.sin_amps, spectrum.amplitudes)


def write_curve_csv(path, curve) -> None:
    """Geometry-specific sample table for a curve."""
    if curve.geometry == EUCLIDEAN:
        _write_table(path, "s,x,y,k", curve.s, curve.points, curve.k)
    elif curve.geometry == SPHERICAL:
        try:
            tau = total_torsion(curve).tau
        except (FrenetBreakdownError, BadParametrizationError):
            tau = np.zeros(len(curve.points))
        _write_table(path, "s,x,y,z,k_g,tau", curve.s, curve.points, curve.k, tau)
    else:
        _write_table(path, "s,x0,x1,x2,k", curve.s, curve.points, curve.k)


def write_front_csv(path, front, s=None) -> None:
    """Front samples with per-sample regularity signs.

    ``s`` is the arc-length column already formatted (`write_front_csvs`
    passes it); by default it is formatted from ``front.s``.
    """
    if front.points.shape[1] == 2:
        cols = "s,x,y"
    else:
        cols = "s,x,y,z" if front.geometry == SPHERICAL else "s,x0,x1,x2"
    _write_table(path, cols + ",regularity", front.s if s is None else s,
                 front.points, front.regularity)


def write_front_csvs(out, fronts) -> None:
    """``front_000.csv``, ``front_001.csv``, ... in directory ``out``, one per front.

    Fronts of one curve share their base's arc-length array; each run of
    fronts with the same array formats it once.
    """
    shared = text = None
    for i, front in enumerate(fronts):
        if front.s is not shared:
            shared, text = front.s, _formatted(front.s)
        write_front_csv(Path(out) / f"front_{i:03d}.csv", front, text)


# ---------------------------------------------------------------------------
# JSON reports


def jsonable(obj):
    """Recursively convert report payloads to plain JSON types.

    Floats are rounded to 12 significant digits so equal computations
    serialize to identical bytes across platforms.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not np.isfinite(v):
            return None
        return float(f"{v:.12g}")
    return obj


def write_json_report(path, doc: dict) -> None:
    payload = dict(doc)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    text = json.dumps(jsonable(payload), sort_keys=True, indent=2)
    Path(path).write_text(text + "\n")


# ---------------------------------------------------------------------------
# SVG


def _svg(path, width, height, body: list) -> None:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    Path(path).write_text("\n".join([head, *body, "</svg>"]) + "\n")


def _fit(points: np.ndarray, size: int, pad: float):
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
    scale = (size - 2 * pad) / span
    mid = 0.5 * (lo + hi)

    def to_px(xy):
        x = pad + (size - 2 * pad) / 2 + (xy[..., 0] - mid[0]) * scale
        y = pad + (size - 2 * pad) / 2 - (xy[..., 1] - mid[1]) * scale
        return x, y

    return to_px


def _polyline(xs, ys, color: str, width: float = 1.5) -> str:
    closed = np.column_stack([np.append(xs, xs[0]), np.append(ys, ys[0])])
    pts = ("%.2f,%.2f " * len(closed)) % tuple(closed.ravel().tolist())
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="{width}" '
        f'points="{pts[:-1]}"/>'
    )


def write_plane_svg(path, fronts) -> None:
    """Plane curves/fronts with cusp markers, one polyline per object."""
    allpts = np.vstack([np.asarray(f.points) for f in fronts])
    to_px = _fit(allpts, SVG_SIZE, 24.0)
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    body = []
    for idx, f in enumerate(fronts):
        xs, ys = to_px(np.asarray(f.points))
        body.append(_polyline(xs, ys, palette[idx % len(palette)]))
        cusps = getattr(f, "cusps", None)
        if cusps is not None and len(cusps):
            at = periodic_interpolant(f.param, f.points, float(f.period))
            px, py = to_px(at(np.asarray(cusps, dtype=float)))
            body.extend(
                '<circle cx="%.2f" cy="%.2f" r="3.5" fill="#000000"/>' % c
                for c in zip(px.tolist(), py.tolist())
            )
    _svg(path, SVG_SIZE, SVG_SIZE, body)


def write_disc_svg(path, curves, chart) -> None:
    """Curves drawn in a unit-disc chart, with the disc's rim.

    ``chart(points)`` returns the disc coordinates (X, Y) of ambient points.
    """
    half = SVG_SIZE / 2
    r = half - 24
    body = [
        f'<circle cx="{half}" cy="{half}" r="{r:.2f}" fill="none" '
        f'stroke="#bbbbbb" stroke-width="1"/>'
    ]
    palette = ["#1f77b4", "#d62728", "#2ca02c"]
    for idx, c in enumerate(curves):
        u, v = chart(np.asarray(c.points))
        body.append(_polyline(half + u * r, half - v * r, palette[idx % len(palette)]))
    _svg(path, SVG_SIZE, SVG_SIZE, body)


def write_sphere_svg(path, curves) -> None:
    """Orthographic projection from +z with the visible rim."""
    write_disc_svg(path, curves, lambda p: (p[:, 0], p[:, 1]))


def write_klein_svg(path, curves) -> None:
    """Hyperboloid curves drawn in the projective (Klein) disc x_i/x_0."""
    write_disc_svg(path, curves, lambda p: (p[:, 1] / p[:, 0], p[:, 2] / p[:, 0]))
