"""Bit-stable CSV serialization and run-metadata sidecars.

CSV is the bulk-numerics contract: floats carry 17 significant digits,
lines end with a bare newline, and row order is whatever the caller
passes, so identical inputs produce byte-identical bodies.  Metadata
goes into a JSON sidecar next to the data files; the sidecar holds the
non-reproducible bits (wall time) so the CSVs stay comparable.
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
    if isinstance(value, str):
        if "," in value or "\n" in value:
            raise ValidationError(f"CSV cell {value!r} needs quoting; "
                                  "schemas are comma-free by design")
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


# rows formatted and written at a time, which bounds the text held in memory
BLOCK_ROWS = 1 << 14


def _format_column(column):
    """The cells of one column as text, exactly as format_cell writes them.

    Float and integer numpy arrays are formatted whole; any other
    sequence goes through format_cell one cell at a time.
    """
    if isinstance(column, np.ndarray) and column.ndim == 1:
        if column.dtype.kind == "f":
            return list(map("%.17g".__mod__, column.tolist()))
        if column.dtype.kind in "iu":
            return list(map(str, column.tolist()))
    return [format_cell(c) for c in column]


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

    def block(lo):
        cells = [[""] * min(BLOCK_ROWS, rows - lo) if c is None
                 else _format_column(c[lo:lo + BLOCK_ROWS]) for c in columns]
        lines = list(map(",".join, zip(*cells)))
        lines.append("")
        return "\n".join(lines)

    # the first block is formatted before the file is opened, so a bad
    # cell in any table of up to BLOCK_ROWS rows leaves no file behind
    first = block(0)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n" + first)
        for lo in range(BLOCK_ROWS, rows, BLOCK_ROWS):
            fh.write(block(lo))
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
