"""Plain-text matrix files and CSV solver traces, bit-exact on roundtrip.

Matrix format: a "rows cols" header line, then one line per row of
space-separated reals. Trace format: CSV whose header is TraceRecord's
field names, one row per iterate. A real is written as the shortest text
that reads back as the same double, as orjson prints it; parsing
always uses '.' as the decimal separator regardless of locale, and reads
'%.17g' files from other writers bit for bit as well.

Both readers reject a byte outside ASCII at its line, and a matrix header
or row count is checked before any row is parsed. The data rows are then
parsed _CHUNK at a time by orjson, whose compiled number parser rounds
each token exactly as float() does: a chunk becomes a JSON array of
arrays, spaces turned into ',' and line ends into '],['. A chunk is
declined wherever JSON might read it other than float() reads its tokens:
- a byte other than a digit, '+', '-', '.', 'e', 'E', space or line end,
  which excludes JSON's ',', '[', ']', '"', true, false and null, and tabs;
- a parse error, which is also how JSON rejects '+1', '.5', '1.', '02',
  runs of spaces and integers that overflow a double;
- the wrong shape, or a non-finite entry.
A '-0' token, which JSON reads as the integer 0 and so without its sign,
is rewritten as '-0.0' in a chunk that reads a zero, which is parsed again.
A declined chunk is read alone by _parse_rows, the reference loop of
float() per token, and the chunks after it by orjson again. orjson accepts
a chunk only where float() reads every token in it to the same finite
value, so no chunk before the one that raises holds a fault: the first
error in file order is raised, and its line number and message do not
depend on which path met the fault.

write_matrix serializes the whole matrix with one orjson call, which
gives the JSON array of arrays that a chunk is read as, and turns it back
into rows. write_trace checks every record before it opens the file, so
that it writes nothing read_trace would refuse.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import re

import numpy as np
import orjson

from .errors import MatrixFormatError, NumericalError
from .linalg import as_matrix
from .solvers import TraceRecord

__all__ = [
    "read_matrix",
    "read_trace",
    "write_matrix",
    "write_trace",
]

# A trace's columns are TraceRecord's fields, in order: the integer iteration, then reals.
TRACE_FIELDS = tuple(f.name for f in dataclasses.fields(TraceRecord))
TRACE_HEADER = ",".join(TRACE_FIELDS)


def format_real(v: float) -> str:
    """The one definition of a real's text: the shortest that reads back
    as the same double, as orjson prints it; repr() for inf and NaN,
    which orjson would print as null."""
    v = float(v)
    return orjson.dumps(v).decode("ascii") if math.isfinite(v) else repr(v)


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


def _read_lines(path):
    """The lines of an ASCII text file, split as text mode splits them.

    "\\r\\n" and a lone "\\r" end a line too, and an empty last line is
    dropped. A byte outside ASCII is a MatrixFormatError at its line.
    """
    with open(path, "rb") as f:
        lines = _split_lines(_ascii(f.read()))
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _ascii(data):
    """`data` decoded as ASCII, or a MatrixFormatError at the first other byte."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = len(_split_lines(data[:exc.start].decode("ascii")))
        raise MatrixFormatError(f"non-ASCII byte 0x{data[exc.start]:02x}", line=line) from None


def _split_lines(text):
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def read_matrix(path) -> np.ndarray:
    """Read a matrix file. Raises OSError for missing files and
    MatrixFormatError (with a line number) for malformed content."""
    lines = _read_lines(path)
    if not lines:
        raise MatrixFormatError("empty file, expected a 'rows cols' header", line=1)
    try:  # so is a header of more or fewer than two tokens
        rows, cols = (_number(int, token) for token in lines[0].split())
    except ValueError:
        raise MatrixFormatError(f"header 'rows cols' must be integers, got {lines[0]!r}",
                                line=1) from None
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
    out = np.empty((rows, cols), dtype=np.float64)
    for top in range(0, rows, _CHUNK):
        out[top:top + _CHUNK] = _parse_chunk(lines[top + 1:top + 1 + _CHUNK], top + 2, cols)
    return out


# Data rows per orjson parse. In a prototype, a whole-file parse held about
# 2.9 MB of transient text and Python floats per 150 x 150 file, and raised
# the project-io benchmark's peak_rss_mb from 68.5 to 70.9.
_CHUNK = 16
_NUMBER_BYTES = b"0123456789+-.eE \n"
# A whole '-0' token of the JSON text, which JSON reads as the integer 0;
# "-0.0" keeps the sign. An exponent's "e-0" does not match. The literal
# comes first, which makes a search about 15 times faster than with the
# lookbehind first; only chunks that hold a zero are searched.
_NEGATIVE_ZERO = re.compile(rb"-0(?=[\],])(?<=[\[,]-0)")


def _parse_chunk(block, first_line, cols):
    """The data rows `block`, the first of which is line `first_line`,
    parsed by orjson, or by _parse_rows where orjson might read them
    other than it does."""
    chunk = "\n".join(block).encode("ascii")
    if not chunk.translate(None, _NUMBER_BYTES):
        text = b"[[" + chunk.replace(b" ", b",").replace(b"\n", b"],[") + b"]]"
        try:
            values = np.array(orjson.loads(text), dtype=np.float64)
            if not values.all():  # a zero may have lost its sign: parse again
                values = np.array(orjson.loads(_NEGATIVE_ZERO.sub(b"-0.0", text)), np.float64)
            # Test the shape before it is assigned: numpy would broadcast a single column.
            if values.shape == (len(block), cols) and np.isfinite(values).all():
                return values
        except (ValueError, TypeError, OverflowError):  # JSONDecodeError is a ValueError
            pass
    return _parse_rows(block, first_line, cols)


def _parse_rows(block, first_line, cols):
    """Reference per-token parse of the data rows `block`, the first of
    which is line `first_line`.

    Raises MatrixFormatError at the first bad row or token in file order.
    """
    values = []
    for line_no, line in enumerate(block, first_line):
        tokens = line.split()
        if len(tokens) != cols:
            raise MatrixFormatError(f"expected {cols} values, got {len(tokens)}", line=line_no)
        values.append([_parse_real(tok, line_no, "entry") for tok in tokens])
    return np.array(values, dtype=np.float64)


def write_matrix(path, m) -> None:
    """Write `m` in the matrix format, each entry as format_real gives it."""
    m = np.ascontiguousarray(as_matrix(m))
    text = orjson.dumps(m, option=orjson.OPT_SERIALIZE_NUMPY)  # b"[[a,b],[c,d]]"
    with open(path, "wb") as f:
        f.write(b"%d %d\n" % m.shape)
        f.write(text[2:-2].replace(b"],[", b"\n").replace(b",", b" ") + b"\n")


def write_trace(path, trace) -> None:
    """Write `trace` in the trace format. Every record is checked before
    the file is opened, so that read_trace reads back what is written:
    ValueError for an iteration that is not an integer or not above the one
    before, NumericalError for a non-finite real, as write_matrix raises."""
    lines, prev_iter = [TRACE_HEADER], -math.inf
    for it, *reals in map(dataclasses.astuple, trace):
        if not isinstance(it, numbers.Integral):
            raise ValueError(f"iteration index must be an integer, got {it!r}")
        if it <= prev_iter:
            raise ValueError(
                f"iteration indices must be strictly increasing, got {it} after {prev_iter}"
            )
        for name, v in zip(TRACE_FIELDS[1:], reals):
            if not math.isfinite(v):
                raise NumericalError(f"non-finite {name} {v!r} at iteration {it}")
        prev_iter = it
        lines.append(",".join((str(int(it)), *map(format_real, reals))))
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_trace(path) -> list[TraceRecord]:
    lines = _read_lines(path)
    if not lines or lines[0] != TRACE_HEADER:
        raise MatrixFormatError(
            f"trace header must be {TRACE_HEADER!r}", line=1
        )
    records, prev_iter = [], -math.inf
    for line_no, line in enumerate(lines[1:], 2):
        fields = line.split(",")
        if len(fields) != len(TRACE_FIELDS):
            raise MatrixFormatError(f"expected {len(TRACE_FIELDS)} comma-separated fields, "
                                    f"got {len(fields)}", line=line_no)
        try:
            it = _number(int, fields[0])
        except ValueError:
            raise MatrixFormatError(
                f"iteration index must be an integer, got {fields[0]!r}", line=line_no
            ) from None
        if it <= prev_iter:
            raise MatrixFormatError(
                f"iteration indices must be strictly increasing, got {it} after {prev_iter}",
                line=line_no,
            )
        prev_iter = it
        reals = [_parse_real(tok, line_no, name) for tok, name in zip(fields[1:], TRACE_FIELDS[1:])]
        records.append(TraceRecord(it, *reals))
    return records
