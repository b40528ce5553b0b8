"""Bit-stable CSV serialization and run-metadata sidecars.

CSV is the bulk-numerics contract: floats are written as "%.17g" (17
significant digits), lines end with a bare newline, and row order is
whatever the caller passes, so identical inputs produce byte-identical
bodies.  emit_csv is the one write path.  Every cell is checked, and
every text column formatted (format_cell per cell), before the file
opens.  Blocks of BLOCK_ROWS rows are then formatted and written in
order, on the caller, into one reused NUL-padded uint8 buffer, a row
per table row: each column writes its cells into a span of fixed width
(FLOAT_WIDTH for floats), between constant ',' and '\n' columns, and
the NULs are deleted.  A sequence of numbers is made an array first.
Float arrays get their "%.17g" digits from the IEEE bits by exact
integer arithmetic, integer and bool arrays "%d"; floats outside the
exact range (zero, subnormals, |x| <= 1e-11 or >= 1e17) go through "%"
in one batch per block.  Both numeric paths read the digits of 4-digit
words from one table.
Metadata goes into a JSON sidecar next to the data files; the sidecar
holds the non-reproducible bits (wall time) so the CSVs stay comparable.
Both writers make the file's directory just before they open it, so a
run refused before its first write leaves no directory behind.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ValidationError

# the four fixed schemas; free-form headers are allowed for auxiliary files
SCHEMAS = {
    "trajectory": ("n", "survival", "q_n", "string_re", "string_im"),
    "spectrum": ("re", "im", "modulus", "kind"),
    "charges": ("angle_rad", "weight"),
    "scaling": ("L", "n_eps_sim", "n_eps_theory", "variant"),
}


def format_cell(value) -> str:
    """The text of a text-column cell: a str, or "" for None."""
    if value is None:
        return ""
    if not isinstance(value, str):
        raise ValidationError(
            f"unsupported CSV cell type {type(value).__name__}")
    if "," in value or "\n" in value:
        raise ValidationError(f"CSV cell {value!r} needs quoting; "
                              "schemas are comma-free by design")
    if "\0" in value:
        raise ValidationError(f"CSV cell {value!r} holds a NUL, which "
                              "the writer deletes as padding")
    return value


# rows formatted at a time into the one block buffer, which bounds the
# text of numeric cells in memory
BLOCK_ROWS = 1 << 14

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_TEN16, _TEN17 = _U64(10**16), _U64(10**17)
# 5^j for the decimal shifts j = 16 - k of the exact range (5^27 < 2^63)
_POW5 = np.array([5**j for j in range(28)], dtype=_U64)
# the exact range is 1e-11 < |x| < 1e17, so k in [-11, 16]; the double
# 1e-11 lies below 10^-11, and the double 1e17 is 10^17 itself
_EXACT_LOW, _EXACT_HIGH = 1e-11, 1e17


def _point(k):
    """Digit after which a cell's frame holds its point slot: k for k >= 0,
    0 in exponent form (k < -4), the last digit when "0.000" holds it."""
    return np.where(k >= 0, k, np.where(k < -4, 0, 16))


def _float_templates():
    """The FLOAT_WIDTH byte slots of a %.17g cell with zero digits.

    Row (k + 11) 18 + last serves decimal exponent k in [-11, 16] and the
    last nonzero digit slot last.  Slot 0 holds the sign, slots 1-5 the
    "0.000" of -4 <= k < 0, slots 6-23 the digit frame and slots 24-27
    the exponent "e-NN" of k < -4; unused slots are NUL.  The frame holds
    the 17 digits with an empty slot inserted after digit _point(k),
    which shows '.' when a nonzero digit follows it.
    """
    k, last = np.meshgrid(np.arange(-11, 17), np.arange(18), indexing="ij")
    small, sci = (k >= -4) & (k < 0), k < -4
    point = _point(k)
    shown = np.where(k >= 0, np.maximum(last, point), last)
    out = np.zeros(k.shape + (FLOAT_WIDTH,), dtype=np.uint8)
    for slot, char, mask in ((1, "0", small), (2, ".", small),
                             (3, "0", small & (k <= -2)),
                             (4, "0", small & (k <= -3)),
                             (5, "0", small & (k <= -4)),
                             (24, "e", sci), (25, "-", sci)):
        out[..., slot] = mask * np.uint8(ord(char))
    out[..., 26] = np.where(sci, ord("0") + (-k) // 10, 0)
    out[..., 27] = np.where(sci, ord("0") + (-k) % 10, 0)
    for j in range(18):
        dot = j == point + 1
        out[..., 6 + j] = np.where(dot, (last > j) * np.uint8(ord(".")),
                                   (j <= shown) * np.uint8(ord("0")))
    return out.reshape(-1, FLOAT_WIDTH)


# bytes of a float cell: the widest exact-range cell is 23 bytes and the
# widest "%" text 24 ("-2.2250738585072014e-308")
FLOAT_WIDTH = 28
_FLOAT_TEMPLATES = _float_templates()
_POW10 = np.array([10**j for j in range(17)], dtype=_U64)
# the digits of each word w < 10^4, most significant first, as a uint32
# in memory order (a uint32 view of four cell bytes adds them); the zeros
# that lead them (4 for w = 0) and, as those of the reversed digits, that
# trail them; and the masks that keep a word's bytes after its first b
_WORD = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy().view(
    np.uint32)[:, 0]
_LEAD = sum(np.arange(10**4) < 10**j for j in range(4))
_TRAIL = _LEAD.reshape((10,) * 4).T.ravel()
_SHOWN = np.triu(np.full((5, 4), 255, dtype=np.uint8)).view(np.uint32)[:, 0]


def _quotient(m, e, k):
    """floor(m 2^e 10^(16-k)) and whether it rounds up, half to even.

    The product m 5^j of the 53-bit mantissa and j = 16 - k is carried in
    two uint64 limbs (hi, lo); the shift r = -(e + j) that divides it by
    2^r is at most 63 on the exact range, and a shift r <= 0 (integers
    from 2^53 up) drops nothing.
    """
    p = _POW5[16 - k]
    mh, ml = m >> _U64(32), m & _LOW32
    ph, pl = p >> _U64(32), p & _LOW32
    mid = mh * pl + ml * ph                      # < 2^53 + 2^63
    low = ml * pl
    lo = low + (mid << _U64(32))
    hi = mh * ph + (mid >> _U64(32)) + (lo < low)
    r = -(e + 16 - k)
    right = r > 0
    rs = np.where(right, r, 1).astype(_U64)
    q = (hi << (_U64(64) - rs)) | (lo >> rs)
    half = _U64(1) << (rs - _U64(1))
    rem = lo & ((half << _U64(1)) - _U64(1))
    up = right & ((rem > half) | ((rem == half) & (q & _U64(1) == 1)))
    q = np.where(right, q, lo << np.where(right, 0, -r).astype(_U64))
    return q, up


def _float_cells(x, out):
    """Exact "%.17g" text of a float64 array into the NUL-padded out.

    In the exact range each value is m 2^e; its 17 digits are the
    integer D = round(m 2^e 10^(16-k)), half to even, with k the decimal
    exponent.  k is first read from log10 and then confirmed on the
    truncated quotient, which lies in [10^16, 10^17) only for the right
    k.  An empty digit slot is inserted after digit _point(k) by
    spreading D to 18 digits, D' = 10 D - 9 (D mod 10^(16-point)).
    D' splits into five 4-digit words: a table of their trailing zeros
    gives the last nonzero digit, which picks the template, and a table of
    their digits adds them to it through a uint32 view of the cell.  Other
    values (zero, subnormals, |x| <= 1e-11 or >= 1e17) go through "%".
    """
    a = np.abs(x)
    exact = (a > _EXACT_LOW) & (a < _EXACT_HIGH)
    a[~exact] = 1.0
    bits = a.view(_U64)
    m = (bits & _U64((1 << 52) - 1)) | _U64(1 << 52)
    e = (bits >> _U64(52)).astype(np.int64) - 1075
    k = np.clip(np.floor(np.log10(a)), -11, 16).astype(np.int64)
    q, up = _quotient(m, e, k)
    while True:
        off = np.flatnonzero((q < _TEN16) | (q >= _TEN17))
        if not off.size:
            break
        k[off] += np.where(q[off] >= _TEN17, 1, -1)
        q[off], up[off] = _quotient(m[off], e[off], k[off])
    # no double in the exact range lies within half a 17th digit below a
    # power of ten (the test at the nextafter neighbours of 10^p shows
    # it), so rounding up never carries into k + 1
    q += up
    q = q * _U64(10) - _U64(9) * (q % _POW10[16 - _point(k)])

    # the template holds '0' in each digit slot shown and NUL after the
    # last nonzero digit, so adding the words (the first, below 100, adds
    # 0 to slots 4-5) fills it; no byte sum carries past '9'
    words = _words(q, 5)
    last = 17 - _zero_run(_TRAIL, words)
    cell = np.take(_FLOAT_TEMPLATES, (k + 11) * 18 + last, axis=0,
                   mode="clip")
    slots = cell.view(np.uint32)
    for j, w in enumerate(words):
        slots[:, 1 + j] += _WORD.take(w)
    out[...] = cell
    out[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    rest = np.flatnonzero(~exact)
    if rest.size:
        text = np.array(list(map("%.17g".__mod__, x[rest].tolist())),
                        dtype=bytes)
        out[rest] = 0
        out[rest, :text.itemsize] = text.view(np.uint8).reshape(rest.size, -1)


def _words(v, count):
    """The (count, v.size) 4-digit words of a uint64 array, most
    significant first; row 0 holds all of v // 10^(4 count - 4)."""
    out = np.empty((count, v.size), dtype=np.intp)
    for i in range(count - 1, 0, -1):
        div = v // _U64(10**4)
        out[i] = v - div * _U64(10**4)
        v = div
    out[0] = v
    return out


def _zero_run(table, words):
    """The zeros that end rows of 4-digit words, by _LEAD or _TRAIL, with
    the words ordered from the rows' far end: a zero word adds 4."""
    run = table.take(words[0])
    for w in words[1:]:
        run = table.take(w) + (w == 0) * run
    return run


def _int_width(v):
    """Bytes of the "%d" cells of an integer array: a sign and the digits."""
    top = max(-int(v.min()), int(v.max())) if v.size else 0
    return 1 + len(str(top))


def _int_cells(v, out):
    """"%d" text of an integer array into the NUL-padded out.

    The magnitudes' 4-digit words read their digits from the float cells'
    table; the zeros before the first nonzero digit, bar the last, are NUL."""
    neg = v < 0
    mag = v.astype(_U64)                       # two's complement wraps
    mag[neg] = -mag[neg]
    out[:, 0] = neg * np.uint8(ord("-"))
    width = out.shape[1] - 1
    words = _words(mag, -(-width // 4))
    lead = np.minimum(_zero_run(_LEAD, words[::-1]), 4 * len(words) - 1)
    text = np.stack([(_WORD.take(w) + np.uint32(0x30303030))  # '0000'
                     & _SHOWN.take(lead - 4 * j, mode="clip")
                     for j, w in enumerate(words)], axis=1)
    out[:, 1:] = text.view(np.uint8)[:, -width:]


def _text_cells(column):
    """format_cell of each cell as a NUL-padded uint8 matrix."""
    cells = np.array([format_cell(c).encode() for c in column], dtype=bytes)
    return cells.view(np.uint8).reshape(cells.size, cells.itemsize)


def _cells(column):
    """(width, write) of a whole column; write(out, lo, hi) fills out, a
    (hi - lo, width) span, with the cells of rows lo:hi.

    A sequence of numbers (no str or None cell) is made an array first,
    and bools int64.  Every cell is checked here, and text formatted,
    once per table.
    """
    if column is None:
        return 0, None
    if not isinstance(column, np.ndarray) and not any(
            c is None or isinstance(c, str) for c in column):
        column = np.asarray(column)
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "b":
            column = column.astype(np.int64)
        if column.dtype.kind == "f" and not np.all(np.isfinite(column)):
            raise ValidationError("non-finite value in CSV output")
        if column.ndim == 1 and column.dtype.kind == "f":
            x = column.astype(np.float64, copy=False)
            return FLOAT_WIDTH, lambda out, lo, hi: _float_cells(x[lo:hi], out)
        if column.ndim == 1 and column.dtype.kind in "iu":
            return _int_width(column), \
                lambda out, lo, hi: _int_cells(column[lo:hi], out)
    text = _text_cells(column)
    return text.shape[1], lambda out, lo, hi: np.copyto(out, text[lo:hi])


def emit_csv(path, header, columns):
    """Write one column per header field, BLOCK_ROWS rows at a time, in
    order; a None column is left blank.  Every cell is checked before the
    file opens, so a bad cell leaves no file."""
    header = tuple(header)
    if len(columns) != len(header):
        raise ValidationError(
            f"CSV row width {len(columns)} != header width {len(header)}"
        )
    lengths = {len(c) for c in columns if c is not None}
    if len(lengths) > 1:
        raise ValidationError(f"CSV columns differ in length: {sorted(lengths)}")
    rows = lengths.pop() if lengths else 0
    cells = [_cells(c) for c in columns]
    ends = np.cumsum([w + 1 for w, _ in cells], dtype=np.intp)
    shape = (min(rows, BLOCK_ROWS), int(ends[-1]) if ends.size else 0)
    buf = bytearray(shape[0] * shape[1])
    out = np.frombuffer(buf, dtype=np.uint8).reshape(shape)
    out[:, ends - 1] = ord(",")
    out[:, ends[-1:] - 1] = ord("\n")      # a table with no column has none
    with _create(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for lo in range(0, rows, BLOCK_ROWS):
            m = min(BLOCK_ROWS, rows - lo)
            for (width, write), end in zip(cells, ends):
                if write is not None:
                    write(out[:m, end - 1 - width:end - 1], lo, lo + m)
            # the rows past a short last block are deleted with the NULs
            out[m:] = 0
            fh.write(buf.translate(None, b"\0"))
    return path


def spectrum_columns(values, kinds):
    """Columns of the spectrum schema: re, im, modulus and kind per value."""
    values = np.asarray(values, dtype=complex)
    # libm hypot, which abs of a complex calls: np.abs may round differently
    return [values.real, values.imag, np.hypot(values.real, values.imag),
            kinds]


def write_metadata(path, payload: dict):
    """JSON sidecar; keys sorted so structural diffs stay readable."""
    with _create(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(_plain(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def _create(path, mode, **kwargs):
    """open(path, mode) after making its directory; an OSError of either
    is a ValidationError naming the path."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None
