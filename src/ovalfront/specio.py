"""Curve-spec files and export formats.

A curve spec is a small JSON document with ``geometry``,
``representation`` and representation-specific fields; `build_curve`
turns one into a sampled curve.  Exports (CSV, SVG, JSON reports) are
deterministic: fixed column orders, fixed float formatting, sorted JSON
keys, and no timestamps, so identical inputs give byte-identical files.
Every CSV goes through one table writer, `_write_table`, which picks a
format per column: floats print as ``%.12g``; integers print as ``%d``
where that gives the same text as ``%.12g`` (|v| < 1e12), else as floats.
SVG coordinates print as ``%.2f``.  The numbers of a table are printed by
a cell writer (`_text`) a block of rows at a time, a block holding at most
`_BLOCK_VALUES` values (at least one row), so the memory a write needs is
bounded whatever the table's length or width.  NumPy writes each block into
fixed-width byte cells and keep masks and selects the bytes each value
prints.  A value it cannot print exactly (zero, nan, inf, an exponent form,
a near rounding tie) sends its row to Python's ``%``, so every byte is that
of one ``%`` per value.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import numpy as np

from .curves import EUCLIDEAN, HYPERBOLIC, SPHERICAL
from .errors import BadParametrizationError, FrenetBreakdownError, SpecFormatError
from .hyperbolic import (
    RoundedSemicircleSpec,
    build_rounded_semicircle,
    hyperbolic_circle,
    hyperbolic_curve_from_points,
    perturbed_hyperbolic_circle,
)
from .sphere import perturbed_sphere_circle, sphere_curve_from_points, total_torsion
from .support import SupportOval, build_oval, check_oval_sampling, euclidean_curve_from_points

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
# number cells
#
# Tables print each number as a fixed-width cell of uint32 words: a head word,
# words of integer digits right-aligned, and words holding the point and the
# fraction digits left-aligned.  The separator that precedes the value and its
# minus sign go in the bytes just before its first digit (in the head word
# when the integer words are full).  A keep mask, looked up by sign,
# integer-digit count and fraction-digit count, keeps the one run of bytes a
# value prints, so one boolean selection of a block of rows gives its text.
# A value the cells cannot print exactly (zero, nan, inf, an exponent form, a
# near rounding tie) marks its row slow, and Python's ``%`` prints that row.


def _quad_tables():
    """For i = 0 ... 9999: the word "%04d" % i, its trailing zeros (4 for 0) and
    its digits printed with %d; and for i < 1000 the word "." + "%03d" % i, a
    fraction's leading word.  Built from arrays of at most 40 kB, so that the
    import leaves no large freed blocks behind in the process's memory."""
    text = np.empty((10, 10, 10, 10, 4), np.uint8)
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for j in range(4):
        text[..., j] = digit.reshape((10,) + (1,) * (3 - j))
    text = text.reshape(10000, 4)
    quads = text.view(np.uint32).ravel().copy()
    text[:, 0] = ord(".")
    points = text[:1000].view(np.uint32).ravel().copy()
    i = np.arange(10000, dtype=np.int16)
    zeros = sum((i % 10**j == 0).astype(np.uint8) for j in range(1, 5))
    digits = 1 + sum((i >= 10**j).astype(np.uint8) for j in range(1, 4))
    return quads, zeros, digits, points


_QUAD_TEXT, _QUAD_ZEROS, _QUAD_DIGITS, _POINT_TEXT = _quad_tables()
_POW10 = 10 ** np.arange(17, dtype=np.int64)
_POW10F = _POW10.astype(float)  # exact: every power of ten up to 10**22 is a double
# values formatted at once: a table of k printed columns formats
# max(1, _BLOCK_VALUES // k) rows a block, whose cells and keep masks take at
# most 64 bytes a value, 1 MB a block
_BLOCK_VALUES = 16384


def _put_quads(words, first: int, v, count: int, lead=_QUAD_TEXT) -> None:
    """Write the base-10000 digits of int64 ``v`` (0 <= v < 10**(4 count)) as words
    ``first`` ... ``first + count - 1`` of ``words``, most significant first.

    Each digit's word is looked up in `_QUAD_TEXT`, the most significant one's in ``lead``.
    """
    for j in range(first + count - 1, first, -1):
        q = v // 10000
        words[..., j] = _QUAD_TEXT[v - q * 10000]
        v = q
    words[..., first] = lead[v]


def _trailing_zeros(v, quads: int = 3):
    """Trailing zero digits of int64 ``v``, 0 < v < 10**(4 quads) (4 quads for v = 0)."""
    q = v // 10000
    zeros = _QUAD_ZEROS[v - q * 10000]
    more = np.flatnonzero(zeros == 4)
    if quads > 1 and more.size:
        zeros.flat[more] += _trailing_zeros(q.flat[more], quads - 1)
    return zeros


def _ndigits(v):
    """Digits of int64 ``v`` (0 <= v < 10**12) printed with ``%d``."""
    return np.searchsorted(_POW10[1:13], v, side="right") + 1


@functools.lru_cache(maxsize=None)
def _keep_table(whole: int, frac: int):
    """Keep masks of cells with ``whole`` words of integer digits and ``frac``
    words of the point and 4 frac - 1 fraction digits, as uint32 words, one row
    per (negative, integer digits, fraction digits)."""
    words = 1 + whole + frac
    pos = np.arange(4 * words)
    point = 4 + 4 * whole
    neg, nint, nfrac = (a[..., None] for a in np.ix_(
        range(2), range(4 * whole + 1), range(max(4 * frac - 1, 0) + 1)))
    keep = ((pos >= point - nint - 1 - neg) & (pos < point)
            | (pos == point) & (nfrac > 0)
            | (pos > point) & (pos <= point + nfrac))
    return keep.astype(np.uint8).reshape(-1, 4 * words).view(np.uint32), keep.shape[1:3]


class _Digits:
    """The digits of a (rows, k) block of values with one format, written into cells on demand.

    ``seps`` holds the separator byte of each of the k columns, ``neg`` each
    value's sign.  ``whole`` is the integer part and ``nint`` its digit count
    (by default counted); ``frac`` is the fraction as a (4 frac_words -
    1)-digit integer, of which the first ``nfrac`` digits print.  ``slow``
    marks the values the cells cannot print exactly, or is None.  The cells
    hold as many words of integer digits as the largest ``whole`` needs:
    `words` words a value.
    """

    def __init__(self, frac_words: int, seps, neg, whole, nint=None, frac=None, nfrac=0,
                 slow=None):
        top = whole.max(initial=0)
        self.quads = 1 + (top >= 10**4) + (top >= 10**8)
        if nint is None:
            nint = _QUAD_DIGITS[whole] if self.quads == 1 else _ndigits(whole)
        self.table, (ni, nf) = _keep_table(self.quads, frac_words)
        self.words = self.table.shape[1]
        self.keep_rows = (neg * ni + nint) * nf + nfrac
        self.frac_words, self.seps, self.slow = frac_words, seps, slow
        self.neg, self.whole, self.nint, self.frac = neg, whole, nint, frac

    def put_cells(self, cells, off: int, a: int, b: int) -> None:
        """Write the cells of columns a .. b - 1 into words ``off`` ... of the
        (rows, words) uint32 block array; bytes a value does not print are left unwritten."""
        rows, cols, quads = len(cells), slice(a, b), self.quads
        width = (b - a) * self.words
        view = cells[:, off:off + width].reshape(rows, b - a, self.words)
        _put_quads(view, 1, self.whole[:, cols], quads)
        if self.frac_words:
            _put_quads(view, 1 + quads, self.frac[:, cols], self.frac_words, _POINT_TEXT)
        # the sign just before the first digit, the separator before the sign; a
        # slow value's nint exceeds its integer digits by at most one, so both stay
        # in its own cell (its row is dropped, its keep row may be clipped).  A
        # column at a time: NumPy broadcasts over k inner elements slowly.
        flat = cells.view(np.uint8).reshape(-1)
        row = np.arange(0, flat.size, 4 * cells.shape[1])
        for j in range(a, b):
            sign = row + (4 * (off + (j - a) * self.words + quads) + 3)
            sign -= self.nint[:, j]
            flat[sign] = ord("-")
            sign -= self.neg[:, j]
            flat[sign] = self.seps[j]

    def put_keep(self, keep, off: int, a: int, b: int) -> None:
        """Write the keep masks of columns a .. b - 1 as `put_cells` writes their cells."""
        out = keep[:, off:off + (b - a) * self.words].reshape(len(keep), b - a, self.words)
        if out.flags.c_contiguous:
            self.table.take(self.keep_rows[:, a:b], axis=0, mode="clip", out=out)
        else:  # NumPy's take fills a strided out through a copy, slowly
            out[...] = self.table.take(self.keep_rows[:, a:b], axis=0, mode="clip")


# integer digits of a %.12g value with 11 - e = k
_NINT = np.maximum(12 - np.arange(16), 1).astype(np.uint8)


def _g_cells(x, seps):
    """`_Digits` of ``%.12g`` of float array ``x``, with where it needs Python's ``%``.

    A value prints as fixed point when its decimal exponent e after rounding
    lies in [-4, 11]: its 12 significant digits are m = rint(|x| 10**(11-e)),
    10**11 <= m < 10**12.  The power of ten is exact and the product rounds
    once, by at most 2**-14 below 10**12, so m is exact unless the product
    lies within 1e-4 of a tie; those values, exponent forms, zero, nan and
    inf are slow.  An exponent that log10 gets wrong by one puts the product
    outside [10**11, 10**12) and marks the value slow too.
    """
    a = np.fmin(np.fmax(np.abs(x), 1e-300), 1e13)  # zero and nan to 1e-300, inf to 1e13
    k = np.clip(11 - np.floor(np.log10(a)), 0, 15).astype(np.intp)  # 11 - e
    p = _POW10F[k]
    y = np.multiply(a, p, out=a)
    # m >= 10**12 clips to 10**12 - 1 and so lies at least 0.5 from y
    m = np.fmin(np.rint(y), 1e12 - 1)
    slow = (np.abs(y - m) > 0.5 - 1e-4) | (y < 1e11)
    del a, y
    whole = np.floor(m / p)  # exact: m and p are exact and m / p rounds once
    frac = m - whole * p
    del p
    frac *= _POW10F[15 - k]  # < 10**15, exact
    nfrac = np.maximum(k - _trailing_zeros(m.astype(np.int64)), 0)
    return _Digits(4, seps, np.signbit(x), whole.astype(np.int64), _NINT[k],
                   frac.astype(np.int64), nfrac, slow)


def _d_cells(v, seps):
    """`_Digits` of ``%d`` of integer array ``v``, every |v| < 1e12; none is slow."""
    return _Digits(0, seps, v < 0, np.abs(v.astype(np.int64)))


def _f2_cells(x, seps):
    """`_Digits` of ``%.2f`` of float array ``x``, with where it needs Python's ``%``.

    |x| 100 rounds once, by at most 2**-33 below 1e6, so its rint is exact
    unless it lies within 1e-6 of a tie; those values, |x| that rounds to
    10000.00 or more, nan and inf are slow.  The sign prints for every x with
    its sign bit set, as ``%`` prints -0.00.
    """
    y = np.fmin(np.abs(x), 1e7) * 100  # inf to 1e9; nan stays nan and fails both tests
    m = np.rint(y)
    fast = (np.abs(y - m) < 0.5 - 1e-6) & (m < 1e6)
    m = np.where(fast, m, 0.0).astype(np.int64)
    whole = m // 100
    return _Digits(1, seps, np.signbit(x), whole, None, (m - 100 * whole) * 10, 2, ~fast)


_FORMATS = {"%.12g": _g_cells, "%d": _d_cells, "%.2f": _f2_cells}


class _Numbers:
    """An (n, k) array printed with one format, formatted a block of rows at a time."""

    def __init__(self, fmt: str, values):
        self.fmt, self.values = fmt, values

    def block(self, start: int, stop: int, seps):
        """The `_Digits` of rows ``start`` .. ``stop`` - 1, which `_text` writes into its block.

        ``seps`` holds the separator byte that precedes each column's values.
        """
        return _FORMATS[self.fmt](self.values[start:stop], seps)


class _Cells:
    """Cells and keep masks of a `_Digits` block, (rows, words) uint32 each, copied into blocks."""

    def __init__(self, digits):
        self.words, self.slow = digits.words, digits.slow
        self.cells = np.empty((len(digits.whole), self.words), np.uint32)
        self.keep = np.empty_like(self.cells)
        digits.put_cells(self.cells, 0, 0, 1)
        digits.put_keep(self.keep, 0, 0, 1)

    def put_cells(self, cells, off: int, a: int, b: int) -> None:
        cells[:, off:off + self.words] = self.cells

    def put_keep(self, keep, off: int, a: int, b: int) -> None:
        keep[:, off:off + self.words] = self.keep


class _SharedColumn(_Numbers):
    """A float column printed in several tables; each block is formatted once.

    Blocks hold as many rows as their table's width allows, so a block is
    known by its rows and its separator.
    """

    def __init__(self, values):
        super().__init__("%.12g", np.asarray(values, dtype=float)[:, None])
        self._blocks = {}

    def block(self, start: int, stop: int, seps):
        key = start, stop, seps.tobytes()
        if key not in self._blocks:
            self._blocks[key] = _Cells(super().block(start, stop, seps))
        return self._blocks[key]


def _text(columns, seps: str):
    """Yield the text of a table in pieces, as bytes or uint8 arrays.

    ``columns`` holds one (numbers, j) per printed column, column j of a
    `_Numbers`; every value is preceded by its column's character of
    ``seps``.  A block holds max(1, `_BLOCK_VALUES` // k) rows of the k
    columns: each `_Numbers` writes its cells and keep masks straight into
    the block's two arrays, and one boolean selection gives the block's text.
    A row with a slow value prints with Python's ``%``, every value of it.
    """
    line = "".join(sep + num.fmt for (num, _), sep in zip(columns, seps))
    runs = []  # [numbers, first, last + 1] of consecutive columns of one array
    col_seps = {}
    for (num, j), sep in zip(columns, seps):
        col_seps.setdefault(num, np.zeros(num.values.shape[1], np.uint8))[j] = ord(sep)
        if runs and runs[-1][0] is num and runs[-1][2] == j:
            runs[-1][2] += 1
        else:
            runs.append([num, j, j + 1])
    n, step = len(columns[0][0].values), max(1, _BLOCK_VALUES // len(columns))
    for start in range(0, n, step):
        stop = min(start + step, n)
        blocks = {num: num.block(start, stop, num_seps) for num, num_seps in col_seps.items()}
        slow = sorted({r for blk in blocks.values() if blk.slow is not None
                       for r in (np.flatnonzero(blk.slow) // blk.slow.shape[1]).tolist()})
        spans, words = [], 0  # (block, first word, first column, last column + 1)
        for num, a, b in runs:
            spans.append((blocks[num], words, a, b))
            words += (b - a) * blocks[num].words
        cells = np.empty((stop - start, words), np.uint32)
        for block, off, a, b in spans:
            block.put_cells(cells, off, a, b)
        keep = np.empty_like(cells)  # after the cells' intermediates are gone
        for block, off, a, b in spans:
            block.put_keep(keep, off, a, b)
        del blocks, spans, block  # the digits, before the selection allocates
        text, kept = cells.view(np.uint8), keep.view(bool)
        done = 0
        for r in slow:
            yield text[done:r][kept[done:r]]
            yield (line % tuple(num.values[start + r, j].item() for num, j in columns)).encode()
            done = r + 1
        yield text[done:][kept[done:]]


# ---------------------------------------------------------------------------
# CSV


# integers of smaller magnitude print the same digits with %d as with %.12g
_EXACT_INT = 10**12


def _write_table(path, header: str, *columns) -> None:
    """Write the columns as CSV through the cell writer.

    A column is a 1-D array, a 2-D block of columns, or a `_SharedColumn`
    that several tables print.  Float values print as ``%.12g``; integer
    columns print as ``%d`` when every |v| < 1e12, where the text is the
    same, and as ``%.12g`` of the float otherwise.  The float columns are
    formatted together as one (n, d) array, and so are the integer ones, in
    blocks of at most `_BLOCK_VALUES` values of the table, so memory stays
    flat in the table's length and width.  Rows holding a value the cells
    cannot print exactly go through Python's ``%`` (which prints nan, inf and
    -0 as ``f"{x:.12g}"`` does), so every byte is that of one ``%`` per value.
    """
    groups = {"%.12g": [], "%d": []}
    keys = []
    for col in columns:
        if isinstance(col, _SharedColumn):
            keys.append((col, 0))
            continue
        col = np.asarray(col)
        for c in col.T if col.ndim == 2 else [col]:
            if np.issubdtype(c.dtype, np.integer) and (
                c.size == 0 or -_EXACT_INT < c.min() and c.max() < _EXACT_INT
            ):
                fmt = "%d"
            else:
                fmt, c = "%.12g", c.astype(float, copy=False)
            keys.append((fmt, len(groups[fmt])))
            groups[fmt].append(c)
    numbers = {fmt: _Numbers(fmt, np.column_stack(cols)) for fmt, cols in groups.items() if cols}
    columns = [(numbers[key] if isinstance(key, str) else key, j) for key, j in keys]
    with open(path, "wb") as f:
        f.write(header.encode())
        f.writelines(_text(columns, "\n" + "," * (len(columns) - 1)))
        f.write(b"\n")


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

    ``s`` is the arc-length column as a `_SharedColumn` (`write_front_csvs`
    passes it); by default it is ``front.s``.
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
    fronts with the same array formats its cells once.
    """
    shared = column = None
    for i, front in enumerate(fronts):
        if front.s is not shared:
            shared, column = front.s, _SharedColumn(front.s)
        write_front_csv(Path(out) / f"front_{i:03d}.csv", front, column)


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
    """Write an SVG picture; ``body`` holds its elements as bytes, one a line."""
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    Path(path).write_bytes(b"\n".join([head.encode(), *body, b"</svg>\n"]))


def _fit(lo, hi, size: int, pad: float):
    """The map to pixels of points whose coordinates lie between ``lo`` and ``hi``."""
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
    scale = (size - 2 * pad) / span
    mid = 0.5 * (lo + hi)

    def to_px(xy):
        x = pad + (size - 2 * pad) / 2 + (xy[..., 0] - mid[0]) * scale
        y = pad + (size - 2 * pad) / 2 - (xy[..., 1] - mid[1]) * scale
        return x, y

    return to_px


def _polyline(xs, ys, color: str, width: float = 1.5) -> bytes:
    points = _Numbers("%.2f", np.column_stack([xs, ys]))
    pts = b"".join(_text([(points, 0), (points, 1)], " ,"))
    # closed: the first point again at the end, after its separator
    end = pts.find(b" ", 1)
    first = pts[:end] if end > 0 else pts
    head = f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="'
    return b"".join([head.encode(), pts[1:], first, b'"/>'])


def write_plane_svg(path, fronts) -> None:
    """Plane curves/fronts with cusp markers, one polyline per object."""
    points = [np.asarray(f.points) for f in fronts]
    # one reduction per front and column: NumPy reduces a tall (n, 2) array
    # over axis 0 many times slower
    lo = np.array([np.min([p[:, j].min() for p in points]) for j in range(2)])
    hi = np.array([np.max([p[:, j].max() for p in points]) for j in range(2)])
    to_px = _fit(lo, hi, SVG_SIZE, 24.0)
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    body = []
    for idx, (f, p) in enumerate(zip(fronts, points)):
        xs, ys = to_px(p)
        body.append(_polyline(xs, ys, palette[idx % len(palette)]))
        cusps = getattr(f, "cusps", None)
        if cusps is not None and len(cusps):
            at = f.interpolant(f.points)
            px, py = to_px(at(np.asarray(cusps, dtype=float)))
            body.extend(
                b'<circle cx="%.2f" cy="%.2f" r="3.5" fill="#000000"/>' % c
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
        f'stroke="#bbbbbb" stroke-width="1"/>'.encode()
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
