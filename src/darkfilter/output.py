"""Bit-stable CSV serialization and run-metadata sidecars.

CSV is the bulk-numerics contract: floats are written as "%.17g" (17
significant digits), lines end with a bare newline, and row order is
whatever the caller passes, so identical inputs produce byte-identical
bodies.  emit_csv is the one write path.  It turns each column of a
block of BLOCK_ROWS rows into a NUL-padded uint8 matrix, one row per
cell, joins the cells with constant ',' and '\n' columns and deletes
the NULs.  Float arrays get their "%.17g" digits from the IEEE bits by
exact integer arithmetic, integer arrays "%d", and any other column
format_cell per cell; floats outside the exact range (zero, subnormals,
|x| <= 1e-11 or >= 1e17) go through "%" in one batch per block.  Two
blocks are formatted at a time, one on a worker thread and one on the
caller, as numpy releases the interpreter lock in its integer loops.
Metadata goes into a JSON sidecar next to the data files; the sidecar
holds the non-reproducible bits (wall time) so the CSVs stay comparable.
"""

from __future__ import annotations

import json
import os
import threading

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
    if isinstance(value, str):
        if "," in value or "\n" in value:
            raise ValidationError(f"CSV cell {value!r} needs quoting; "
                                  "schemas are comma-free by design")
        if "\0" in value:
            raise ValidationError(f"CSV cell {value!r} holds a NUL, which "
                                  "the writer deletes as padding")
        return value
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not np.isfinite(value):
            raise ValidationError("non-finite value in CSV output")
        return "%.17g" % float(value)
    raise ValidationError(f"unsupported CSV cell type {type(value).__name__}")


# rows formatted at a time: two blocks are held at most, so this bounds
# the text in memory
BLOCK_ROWS = 1 << 14

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_TEN16, _TEN17 = _U64(10**16), _U64(10**17)
# 5^j for the decimal shifts j = 16 - k of the exact range (5^27 < 2^63)
_POW5 = np.array([5**j for j in range(28)], dtype=_U64)
# the exact range is 1e-11 < |x| < 1e17, so k in [-11, 16]; the double
# 1e-11 lies below 10^-11, and the double 1e17 is 10^17 itself
_EXACT_LOW, _EXACT_HIGH = 1e-11, 1e17


def _float_templates():
    """The 44 byte slots of a 17-digit %.17g cell with zero digits.

    Row (k + 11) 17 + last serves decimal exponent k in [-11, 16] and the
    last nonzero digit at position last.  Slot 0 holds the sign, slots
    1-5 the "0.000" of -4 <= k < 0, slots 6-39 the 17 digits each
    followed by a slot for '.', and slots 40-43 the exponent "e-NN" of
    k < -4; unused slots are NUL.
    """
    k, last = np.meshgrid(np.arange(-11, 17), np.arange(17), indexing="ij")
    small, sci = (k >= -4) & (k < 0), k < -4
    point = np.where(k >= 0, k, np.where(sci, 0, -1))  # the digit '.' follows
    out = np.zeros(k.shape + (44,), dtype=np.uint8)
    for slot, char, mask in ((1, "0", small), (2, ".", small),
                             (3, "0", small & (k <= -2)),
                             (4, "0", small & (k <= -3)),
                             (5, "0", small & (k <= -4)),
                             (40, "e", sci), (41, "-", sci)):
        out[..., slot] = mask * np.uint8(ord(char))
    out[..., 42] = np.where(sci, ord("0") + (-k) // 10, 0)
    out[..., 43] = np.where(sci, ord("0") + (-k) % 10, 0)
    for i in range(17):
        out[..., 6 + 2 * i] = (i <= np.maximum(last, point)) * np.uint8(48)
        out[..., 7 + 2 * i] = ((i == point) & (point < last)) * np.uint8(46)
    return out.reshape(-1, 44)


_FLOAT_TEMPLATES = _float_templates()


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


def _float_cells(x):
    """Exact "%.17g" text of a float64 array as a NUL-padded uint8 matrix.

    In the exact range each value is m 2^e; its 17 digits are the
    integer D = round(m 2^e 10^(16-k)), half to even, with k the decimal
    exponent.  k is first read from log10 and then confirmed on the
    truncated quotient, which lies in [10^16, 10^17) only for the right
    k.  Other values (zero, subnormals, |x| <= 1e-11 or >= 1e17) go
    through "%" in one batch.
    """
    a = np.abs(x)
    exact = (a > _EXACT_LOW) & (a < _EXACT_HIGH)
    a = np.where(exact, a, 1.0)
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

    # 17 digits from two halves of at most 9 digits, in uint32
    high = q // _U64(10**9)
    halves = ((high.astype(np.uint32), 7, -1),
              ((q - high * _U64(10**9)).astype(np.uint32), 16, 7))
    digits = np.empty((x.size, 17), dtype=np.uint8)
    for rest, top, stop in halves:
        for i in range(top, stop, -1):
            div = rest // np.uint32(10)
            digits[:, i] = rest - div * np.uint32(10)
            rest = div
    last = 16 - np.argmax(digits[:, ::-1] != 0, axis=1)
    # the template holds '0' in each digit slot shown, and the hidden
    # slots follow the last nonzero digit, so adding the digits fills it
    out = _FLOAT_TEMPLATES[(k + 11) * 17 + last]
    out[:, 6:40:2] += digits
    out[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    rest = np.flatnonzero(~exact)
    if rest.size:
        text = np.array(list(map("%.17g".__mod__, x[rest].tolist())),
                        dtype=bytes)
        out[rest] = 0
        out[rest, :text.itemsize] = text.view(np.uint8).reshape(rest.size, -1)
    return out


def _int_cells(v):
    """"%d" text of an integer array as a NUL-padded uint8 matrix."""
    neg = v < 0
    mag = v.astype(_U64)                       # two's complement wraps
    mag[neg] = -mag[neg]
    width = len(str(int(mag.max()))) if mag.size else 1
    out = np.zeros((v.size, 1 + width), dtype=np.uint8)
    out[:, 0] = np.where(neg, ord("-"), 0)
    rest = mag
    for p in range(width):
        rest, d = np.divmod(rest, _U64(10))
        out[:, width - p] = np.where((mag >= _U64(10**p)) | (p == 0),
                                     d + ord("0"), 0)
    return out


def _text_cells(column):
    """format_cell of each cell as a NUL-padded uint8 matrix."""
    cells = np.array([format_cell(c).encode() for c in column], dtype=bytes)
    return cells.view(np.uint8).reshape(cells.size, cells.itemsize)


def _cells(column, rows):
    if column is None:
        return np.zeros((rows, 0), dtype=np.uint8)
    if isinstance(column, np.ndarray) and column.ndim == 1:
        if column.dtype.kind == "f":
            return _float_cells(column.astype(np.float64, copy=False))
        if column.dtype.kind in "iu":
            return _int_cells(column)
    return _text_cells(column)


def _block(columns, lo, hi):
    """Rows lo:hi of the table as CSV bytes."""
    rows = hi - lo
    comma = np.full((rows, 1), ord(","), dtype=np.uint8)
    parts = []
    for c in columns:
        parts += [_cells(None if c is None else c[lo:hi], rows), comma]
    parts[-1] = np.full((rows, 1), ord("\n"), dtype=np.uint8)
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


def _two_blocks(columns, spans):
    """The blocks of one or two (lo, hi) spans, the second on a thread.

    numpy releases the interpreter lock in the uint64 loops of the float
    and integer cells, so the two blocks run on two cores.
    """
    if len(spans) == 1:
        return [_block(columns, *spans[0])]
    result = []

    def second():
        try:
            result.append(_block(columns, *spans[1]))
        except BaseException as exc:           # re-raised on the caller
            result.append(exc)

    worker = threading.Thread(target=second)
    worker.start()
    try:
        first = _block(columns, *spans[0])
    finally:
        worker.join()
    if isinstance(result[0], BaseException):
        raise result[0]
    return [first, result[0]]


def emit_csv(path, header, columns):
    """Write one column per header field; a None column is left blank."""
    header = tuple(header)
    if len(columns) != len(header):
        raise ValidationError(
            f"CSV row width {len(columns)} != header width {len(header)}"
        )
    lengths = {len(c) for c in columns if c is not None}
    if len(lengths) > 1:
        raise ValidationError(f"CSV columns differ in length: {sorted(lengths)}")
    rows = lengths.pop() if lengths else 0
    for c in columns:
        if isinstance(c, np.ndarray) and c.dtype.kind == "f" \
                and not np.all(np.isfinite(c)):
            raise ValidationError("non-finite value in CSV output")

    spans = [(lo, min(lo + BLOCK_ROWS, rows))
             for lo in range(0, rows, BLOCK_ROWS)] or [(0, 0)]
    pairs = [spans[i:i + 2] for i in range(0, len(spans), 2)]
    # the first two blocks are formatted before the file is opened, so a
    # bad cell in any table of up to 2 BLOCK_ROWS rows leaves no file
    first = _two_blocks(columns, pairs[0])
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        fh.writelines(first)
        for pair in pairs[1:]:
            fh.writelines(_two_blocks(columns, pair))
    return path


def spectrum_columns(values, kinds):
    """Columns of the spectrum schema: re, im, modulus and kind per value."""
    values = np.asarray(values, dtype=complex)
    # abs of each complex (libm hypot): np.abs may round differently
    return [values.real, values.imag, [abs(z) for z in values.tolist()],
            kinds]


def write_metadata(path, payload: dict):
    """JSON sidecar; keys sorted so structural diffs stay readable."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
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


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
