"""Plain-text matrix files and CSV solver traces, bit-exact on roundtrip.

Matrix format: a "rows cols" header line, then one line per row of
space-separated reals. Trace format: CSV with a fixed header, one row per
iterate. Reals are written with 17 significant digits, which pins every
finite 64-bit value exactly; parsing always uses '.' as the decimal
separator regardless of locale.

The data lines of a matrix file are parsed by one np.loadtxt call, whose C
reader rounds each token as float() does; rows are formatted one row per
C-level call. A file whose parse fails, or gives the wrong shape or a
non-finite entry, is parsed again token by token by _parse_rows, and that
reference loop raises the error, so its line number and message do not
depend on which path found the fault.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import MatrixFormatError
from .linalg import as_matrix
from .solvers import TraceRecord

TRACE_HEADER = "iter,cost,grad_norm,feas_err,elapsed_ms"


def format_real(v: float) -> str:
    return format(float(v), ".17g")


def _number(kind, token):
    """float(token) or int(token), but a ValueError for a PEP 515 digit separator ("1_0")."""
    if "_" in token:
        raise ValueError(token)
    return kind(token)


def _parse_real(token, line_no, what="value"):
    try:
        v = _number(float, token)
    except ValueError:
        raise MatrixFormatError(f"cannot parse {what} {token!r}", line=line_no) from None
    if not math.isfinite(v):
        raise MatrixFormatError(f"non-finite {what} {token!r}", line=line_no)
    return v


def read_matrix(path) -> np.ndarray:
    """Read a matrix file. Raises OSError for missing files and
    MatrixFormatError (with a line number) for malformed content."""
    with open(path, "r", encoding="ascii") as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MatrixFormatError("empty file, expected a 'rows cols' header", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixFormatError(
            f"header must be 'rows cols', got {lines[0]!r}", line=1
        )
    try:
        rows, cols = _number(int, header[0]), _number(int, header[1])
    except ValueError:
        raise MatrixFormatError(
            f"header dimensions must be integers, got {lines[0]!r}", line=1
        ) from None
    if rows < 1 or cols < 1:
        raise MatrixFormatError(
            f"dimensions must be positive, got {rows} x {cols}", line=1
        )
    if len(lines) - 1 < rows:
        raise MatrixFormatError(
            f"expected {rows} data rows, file ends after {len(lines) - 1}",
            line=len(lines) + 1,
        )
    if len(lines) - 1 > rows:
        raise MatrixFormatError(
            f"unexpected content after {rows} data rows", line=rows + 2
        )
    try:
        # comments=None keeps '#' a bad token, not a comment. A file whose data
        # rows are all blank makes loadtxt warn; it fails the shape test below
        # and the fallback raises the usual error.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            out = np.loadtxt(lines[1:], dtype=np.float64, comments=None, ndmin=2)
        if out.shape == (rows, cols) and np.isfinite(out).all():
            return out
    except ValueError:
        pass
    # The fast parse failed somewhere; the reference loop finds the first fault.
    return _parse_rows(lines, rows, cols)


def _parse_rows(lines, rows, cols):
    """Reference per-token parse of the data rows `lines[1:rows + 1]`.

    Raises MatrixFormatError at the first bad row or token in file order.
    """
    out = np.empty((rows, cols), dtype=np.float64)
    for i in range(rows):
        line_no = i + 2
        tokens = lines[i + 1].split()
        if len(tokens) != cols:
            raise MatrixFormatError(
                f"expected {cols} values, got {len(tokens)}", line=line_no
            )
        for j, tok in enumerate(tokens):
            out[i, j] = _parse_real(tok, line_no, "entry")
    return out


def write_matrix(path, m) -> None:
    m = as_matrix(m)
    rows, cols = m.shape
    # '%.17g' % v and format(v, '.17g') produce the same digits.
    row_format = " ".join(["%.17g"] * cols) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(f"{rows} {cols}\n")
        for i in range(rows):
            f.write(row_format % tuple(m[i].tolist()))


def write_trace(path, trace) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(TRACE_HEADER + "\n")
        for rec in trace:
            f.write(
                f"{rec.iter},{format_real(rec.cost)},{format_real(rec.grad_norm)},"
                f"{format_real(rec.feas_err)},{format_real(rec.elapsed_ms)}\n"
            )


def read_trace(path) -> list[TraceRecord]:
    with open(path, "r", encoding="ascii") as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != TRACE_HEADER:
        raise MatrixFormatError(
            f"trace header must be {TRACE_HEADER!r}", line=1
        )
    records = []
    prev_iter = None
    for idx, line in enumerate(lines[1:]):
        line_no = idx + 2
        fields = line.split(",")
        if len(fields) != 5:
            raise MatrixFormatError(
                f"expected 5 comma-separated fields, got {len(fields)}", line=line_no
            )
        try:
            it = _number(int, fields[0])
        except ValueError:
            raise MatrixFormatError(
                f"iteration index must be an integer, got {fields[0]!r}", line=line_no
            ) from None
        if prev_iter is not None and it <= prev_iter:
            raise MatrixFormatError(
                f"iteration indices must be strictly increasing, got {it} after {prev_iter}",
                line=line_no,
            )
        prev_iter = it
        cost = _parse_real(fields[1], line_no, "cost")
        grad_norm = _parse_real(fields[2], line_no, "grad_norm")
        feas_err = _parse_real(fields[3], line_no, "feas_err")
        elapsed_ms = _parse_real(fields[4], line_no, "elapsed_ms")
        records.append(TraceRecord(it, cost, grad_norm, feas_err, elapsed_ms))
    return records
