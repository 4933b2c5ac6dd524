"""Binary snapshot format (FMF1) and deterministic CSV emission.

FMF1 layout: magic b"FMF1", u32 ds, u32 d, u64 rows, u64 cols, then
row-major little-endian float64 interleaved (re, im) pairs.
"""

import csv
import struct

import numpy as np

__all__ = ["write_fmf1", "read_fmf1", "write_csv"]

_MAGIC = b"FMF1"
_HEADER = struct.Struct("<4sIIQQ")


def write_fmf1(path, matrix: np.ndarray, ds: int, d: int):
    """The payload is the little-endian complex128 array itself, which is
    row-major interleaved (re, im) float64."""
    m = np.ascontiguousarray(np.atleast_2d(matrix), dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, ds, d, *m.shape))
        fh.write(m)


def read_fmf1(path):
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated FMF1 header, {len(header)} bytes")
        magic, ds, d, rows, cols = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not an FMF1 snapshot")
        m = np.fromfile(fh, dtype="<c16", count=rows * cols)
    if m.size < rows * cols:
        raise ValueError(f"{path}: truncated FMF1 payload, {m.size} of {rows * cols} entries")
    return m.reshape(rows, cols), ds, d


def write_csv(path, row: dict):
    """Append one row of named numbers, rendered with repr for bit-stable reruns (integers,
    not bools, as integers and the rest as floats); a new file gets the names as its header."""
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(row)
        writer.writerow([repr(int(v) if isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                              else float(v)) for v in row.values()])
