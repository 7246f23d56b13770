"""Curve-spec files and export formats.

A curve spec is a small JSON document with ``geometry``,
``representation`` and representation-specific fields; `build_curve`
turns one into a sampled curve.  Exports (CSV, SVG, JSON reports) are
deterministic: fixed column orders, fixed float formatting, sorted JSON
keys, and no timestamps, so identical inputs give byte-identical files.
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
from .support import SupportOval, build_oval, euclidean_curve_from_points
from .errors import BadParametrizationError, FrenetBreakdownError

SCHEMA_VERSION = 1

REPRESENTATIONS = {
    EUCLIDEAN: {"support_fourier", "samples"},
    SPHERICAL: {"sphere_samples", "perturbed_circle"},
    HYPERBOLIC: {"hyperbolic_circle", "rounded_semicircle", "hyperboloid_samples"},
}

_DEFAULT_SAMPLES = 1024


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
        degrees = [int(row[0]) for row in doc["coeffs"]]
        dense = [(0.0, 0.0)] * (max(degrees) + 1)
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


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _write_rows(path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def write_profile_csv(path, profile) -> None:
    """Columns: param,k,mean,deviation."""
    rows = (
        (p, v, profile.mean, v - profile.mean)
        for p, v in zip(profile.param, profile.values)
    )
    _write_rows(path, "param,k,mean,deviation", rows)


def write_spectrum_csv(path, spectrum) -> None:
    """Columns: n,cos_amp,sin_amp,magnitude."""
    amps = spectrum.amplitudes
    rows = (
        (n, c, s, amps[n])
        for n, (c, s) in enumerate(zip(spectrum.cos_amps, spectrum.sin_amps))
    )
    _write_rows(path, "n,cos_amp,sin_amp,magnitude", rows)


def write_curve_csv(path, curve) -> None:
    """Geometry-specific sample table for a curve."""
    if curve.geometry == EUCLIDEAN:
        rows = (
            (s, p[0], p[1], k) for s, p, k in zip(curve.s, curve.points, curve.k)
        )
        _write_rows(path, "s,x,y,k", rows)
    elif curve.geometry == SPHERICAL:
        try:
            tau = total_torsion(curve).tau
        except (FrenetBreakdownError, BadParametrizationError):
            tau = np.zeros(len(curve.points))
        rows = (
            (s, p[0], p[1], p[2], k, tv)
            for s, p, k, tv in zip(curve.s, curve.points, curve.k, tau)
        )
        _write_rows(path, "s,x,y,z,k_g,tau", rows)
    else:
        rows = (
            (s, p[0], p[1], p[2], k)
            for s, p, k in zip(curve.s, curve.points, curve.k)
        )
        _write_rows(path, "s,x0,x1,x2,k", rows)


def write_front_csv(path, front) -> None:
    """Front samples with per-sample regularity signs."""
    if front.points.shape[1] == 2:
        rows = (
            (s, p[0], p[1], r)
            for s, p, r in zip(front.s, front.points, front.regularity)
        )
        _write_rows(path, "s,x,y,regularity", rows)
    else:
        cols = (
            "s,x,y,z,regularity"
            if front.geometry == SPHERICAL
            else "s,x0,x1,x2,regularity"
        )
        rows = (
            (s, p[0], p[1], p[2], r)
            for s, p, r in zip(front.s, front.points, front.regularity)
        )
        _write_rows(path, cols, rows)


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
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="{width}" '
        f'points="{pts} {xs[0]:.2f},{ys[0]:.2f}"/>'
    )


def write_plane_svg(path, fronts, size: int = 640) -> None:
    """Plane curves/fronts with cusp markers, one polyline per object."""
    allpts = np.vstack([np.asarray(f.points) for f in fronts])
    to_px = _fit(allpts, size, 24.0)
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    body = []
    for idx, f in enumerate(fronts):
        xs, ys = to_px(np.asarray(f.points))
        body.append(_polyline(xs, ys, palette[idx % len(palette)]))
        cusps = getattr(f, "cusps", None)
        if cusps is not None and len(cusps):
            fx = periodic_interpolant(f.param, f.points[:, 0], float(f.period))
            fy = periodic_interpolant(f.param, f.points[:, 1], float(f.period))
            for c in cusps:
                px, py = to_px(np.array([[float(fx(c)), float(fy(c))]]))
                body.append(
                    f'<circle cx="{px[0]:.2f}" cy="{py[0]:.2f}" r="3.5" '
                    f'fill="#000000"/>'
                )
    _svg(path, size, size, body)


def write_disc_svg(path, curves, chart, size: int = 640) -> None:
    """Curves drawn in a unit-disc chart, with the disc's rim.

    ``chart(points)`` returns the disc coordinates (X, Y) of ambient points.
    """
    half = size / 2
    r = half - 24
    body = [
        f'<circle cx="{half}" cy="{half}" r="{r:.2f}" fill="none" '
        f'stroke="#bbbbbb" stroke-width="1"/>'
    ]
    palette = ["#1f77b4", "#d62728", "#2ca02c"]
    for idx, c in enumerate(curves):
        u, v = chart(np.asarray(c.points))
        body.append(_polyline(half + u * r, half - v * r, palette[idx % len(palette)]))
    _svg(path, size, size, body)


def write_sphere_svg(path, curves, size: int = 640) -> None:
    """Orthographic projection from +z with the visible rim."""
    write_disc_svg(path, curves, lambda p: (p[:, 0], p[:, 1]), size)


def write_klein_svg(path, curves, size: int = 640) -> None:
    """Hyperboloid curves drawn in the projective (Klein) disc x_i/x_0."""
    write_disc_svg(path, curves, lambda p: (p[:, 1] / p[:, 0], p[:, 2] / p[:, 0]), size)
