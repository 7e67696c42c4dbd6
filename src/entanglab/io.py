"""Persistence: RFC-4180 CSV, JSON metadata sidecars, and the binary matrix
dump.

Every file streams its rows or records into `<path>.partial`, opened once the
first exists and renamed onto `<path>` when they run out. A source that fails
leaves `<path>` as it was, and `<path>.partial` with the rows it completed.

Binary layout (little-endian), one record per matrix, records concatenated:
    uint64 rows, uint64 cols,
    rows*cols complex entries in row-major order, each as two float64
    values (real part then imaginary part).
"""

from __future__ import annotations

import csv
import json
import os
import struct
from collections.abc import Iterator
from itertools import chain, islice
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


def _writable(path) -> Path:
    """`path`, if it names a file (not None, "", "sub/", a directory or a path under a
    file) whose `.partial` is absent or a regular file (not a symlink or a directory):
    the one output rule, run by each writer and, before any work, by the CLI."""
    text = path if path is None else os.fspath(path)
    if not (text and os.path.basename(text)) or os.path.isdir(text) or not next(
            p for p in Path(text).absolute().parents if p.exists()).is_dir():
        raise ValueError(f"'output' must name a file, got {text!r}")
    if (part := Path(text + ".partial")).is_symlink() or part.exists() and not part.is_file():
        raise ValueError(f"'output' {text!r} is blocked: {str(part)!r} is not a regular file")
    return Path(text)


def _write_through(path, records, start=lambda fh: fh.write, binary: bool = False) -> int:
    """Write `records` to `path` as the module docstring says and count them;
    `start(fh)` begins the file and returns the function writing one record."""
    path, records = _writable(path), iter(records)
    first = list(islice(records, 1))  # a source that fails here opens nothing
    path.parent.mkdir(parents=True, exist_ok=True)
    part = path.with_name(path.name + ".partial")
    fd = os.open(part, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NOFOLLOW, 0o666)
    with open(fd, "wb") if binary else open(fd, "w", newline="", encoding="utf-8") as fh:
        count = sum(1 for _ in map(start(fh), chain(first, records)))
    part.replace(path)
    return count


def write_csv(path, header: list[str], rows) -> int:
    """Write the header, then each row as it arrives; returns the row count."""

    def start(fh):
        writer = csv.writer(fh)  # default dialect terminates rows with CRLF
        writer.writerow(header)
        return lambda row: writer.writerow([format_value(v) for v in row])

    return _write_through(path, rows, start)


def sidecar_path(csv_path) -> Path:
    p = Path(csv_path)
    return p.with_suffix(p.suffix + ".meta.json") if p.suffix != ".csv" else p.with_suffix(".meta.json")


def write_sidecar(csv_path, payload: dict) -> Path:
    out = sidecar_path(_writable(csv_path))
    _write_through(out, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
    return out


def _matrix_record(M) -> bytes:
    """M's record, made and checked as it is pulled: a bad first matrix opens no file."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValueError("matrix records must be 2-D")
    return struct.pack("<QQ", *M.shape) + M.astype("<c16").tobytes()


def write_matrix_records(path, matrices) -> None:
    _write_through(path, map(_matrix_record, matrices), binary=True)


def read_matrix_records(path) -> list[np.ndarray]:
    return list(_matrix_records(path))


def _matrix_records(path) -> Iterator[np.ndarray]:
    """The records of a matrix dump, each read from the file as it is pulled: a
    damaged record raises when it is reached, and no record after it is read."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        while header := fh.read(16):
            if len(header) < 16:
                raise ValueError("truncated matrix record header")
            rows, cols = struct.unpack("<QQ", header)
            count = rows * cols
            if fh.tell() + count * 16 > size:
                raise ValueError("truncated matrix record payload")
            # read the (real, imaginary) pairs as complex entries, bit for bit
            flat = np.frombuffer(fh.read(count * 16), dtype="<c16")
            yield flat.reshape(rows, cols).astype(complex)
