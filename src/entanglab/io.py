"""Persistence: RFC-4180 CSV, JSON metadata sidecars, and the binary matrix
dump.

Binary layout (little-endian), one record per matrix, records concatenated:
    uint64 rows, uint64 cols,
    rows*cols complex entries in row-major order, each as two float64
    values (real part then imaginary part).
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

__all__ = [
    "format_value",
    "write_csv",
    "sidecar_path",
    "write_sidecar",
    "write_matrix_records",
    "read_matrix_records",
]


def format_value(v) -> str:
    """Stable, locale-independent cell text ('.' decimal separator)."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_csv(path, header: list[str], rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)  # default dialect terminates rows with CRLF
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def sidecar_path(csv_path) -> Path:
    p = Path(csv_path)
    return p.with_suffix(p.suffix + ".meta.json") if p.suffix != ".csv" else p.with_suffix(".meta.json")


def write_sidecar(csv_path, payload: dict) -> Path:
    out = sidecar_path(csv_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def write_matrix_records(path, matrices) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        for M in matrices:
            M = np.asarray(M, dtype=complex)
            if M.ndim != 2:
                raise ValueError("matrix records must be 2-D")
            rows, cols = M.shape
            fh.write(struct.pack("<QQ", rows, cols))
            fh.write(M.astype("<c16").tobytes())


def read_matrix_records(path) -> list[np.ndarray]:
    out = []
    blob = Path(path).read_bytes()
    pos = 0
    while pos < len(blob):
        if pos + 16 > len(blob):
            raise ValueError("truncated matrix record header")
        rows, cols = struct.unpack_from("<QQ", blob, pos)
        pos += 16
        count = rows * cols
        end = pos + count * 16
        if end > len(blob):
            raise ValueError("truncated matrix record payload")
        # read the (real, imaginary) pairs as complex entries, bit for bit
        flat = np.frombuffer(blob, dtype="<c16", count=count, offset=pos)
        pos = end
        out.append(flat.reshape(rows, cols).astype(complex))
    return out
