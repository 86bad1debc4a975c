"""Plain-text matrix files and CSV solver traces, bit-exact on roundtrip.

Matrix format: a "rows cols" header line, then one line per row of
space-separated reals. Trace format: CSV whose header is TraceRecord's
field names, one row per iterate. Reals are written with 17 significant
digits, which pins every finite 64-bit value exactly; parsing always uses
'.' as the decimal separator regardless of locale.

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
One declined chunk sends every row to _parse_rows, the reference loop of
float() per token, which raises the first error in file order: its line
number and message do not depend on which path met the fault.

write_matrix formats _BLOCK entries per pass of numpy arithmetic, and each
token is the text format_real gives. The 17 digits are the rounded product
of the entry and a power of ten, formed exactly enough as a double-double
(Dekker's product); digit tables give the ASCII. Entries whose product
lies within 1e-6 of a rounding tie, or whose decade is below about 1e-292
or above about 1e300, are formatted by format_real itself.
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np

from .errors import MatrixFormatError
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
    """The one definition of a real's text: '%.17g', exact for every double."""
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
    # The chunk parse declines odd text; the reference loop finds the first fault.
    out = _parse_chunks(lines, rows, cols)
    return _parse_rows(lines, rows, cols) if out is None else out


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


def _parse_chunks(lines, rows, cols):
    """The data rows `lines[1:rows + 1]` parsed by orjson, or None where
    a chunk might not read as _parse_rows reads it."""
    import orjson  # here, so that commands which read no matrix do not load it

    out = np.empty((rows, cols), dtype=np.float64)
    for top in range(0, rows, _CHUNK):
        chunk = "\n".join(lines[top + 1:top + 1 + _CHUNK]).encode("ascii")
        if chunk.translate(None, _NUMBER_BYTES):
            return None
        text = b"[[" + chunk.replace(b" ", b",").replace(b"\n", b"],[") + b"]]"
        try:
            values = np.array(orjson.loads(text), dtype=np.float64)
            if not values.all():  # a zero may have lost its sign: parse again
                values = np.array(orjson.loads(_NEGATIVE_ZERO.sub(b"-0.0", text)), np.float64)
        except (ValueError, TypeError, OverflowError):  # JSONDecodeError is a ValueError
            return None
        # Test the shape before assigning: numpy would broadcast a single column.
        if values.shape != (min(_CHUNK, rows - top), cols) or not np.isfinite(values).all():
            return None
        out[top:top + _CHUNK] = values
    return out


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
    """Write `m` in the matrix format, each entry as format_real gives it."""
    m = as_matrix(m)
    rows, cols = m.shape
    flat = m.ravel()
    with open(path, "wb") as f:
        f.write(f"{rows} {cols}\n".encode("ascii"))
        for start in range(0, flat.size, _BLOCK):
            f.write(_format_block(flat[start:start + _BLOCK], cols - 1 - start % cols, cols))


# Entries formatted per numpy pass. A pass holds about 280 bytes of
# temporaries per entry. From about 6 000 entries up, writing a 150 x 150
# matrix page-faulted about 1 000 times, as freed blocks went back to the
# system; at 2 048 and 4 096 it did not, and 4 096 was not measurably
# faster.
_BLOCK = 2048

# The tables below are built in plain Python: numpy code run only at import
# would stay resident in every process.


def _words(texts, width):
    """`texts` NUL-padded to `width` bytes, as the columns of uint32 words."""
    padded = [t.ljust(width, b"\0") for t in texts]
    data = b"".join(t[i:i + 4] for i in range(0, width, 4) for t in padded)
    return np.frombuffer(data, np.uint32).reshape(width // 4, len(texts))


# 10**k = head + tail + lo, to about 2**-106 relative, for the scales
# k = 16 - e10 of the doubles from 1e-292 up, with NaN one entry past
# either end. head + tail is the double nearest 10**k, split into halves
# of at most 26 significant bits (Veltkamp), so that Dekker's product of a
# double with it is exact; lo is the double nearest the rest.
_K_MIN, _K_MAX = -292, 308
_VELTKAMP = 2.0**27 + 1.0


def _pow10_table():
    head, tail, lo = [math.nan], [math.nan], [math.nan]
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # int / int rounds to nearest
        mant, exp = math.frexp(hi)
        c = _VELTKAMP * mant
        head.append(math.ldexp(c - (c - mant), exp))
        tail.append(hi - head[-1])
        n, d = hi.as_integer_ratio()
        lo.append((num * d - n * den) / (den * d))
    return [np.array(t + [math.nan]) for t in (head, tail, lo)]


_POW10_HEAD, _POW10_TAIL, _POW10_LO = _pow10_table()
# Fractions this close to one half may be exact ties, whose rounding
# depends on the binary value: format_real formats those.
_TIE_WINDOW = 1e-6
# By biased binary exponent b: floor(log10(2**(b - 1023))). A normal
# double with that exponent lies in this decade or the next one, whose
# power of ten (rounded to a double) is in _NEXT_POWER. Subnormals lie
# lower, below the scales of the table. np.log10 would do, but its code
# added about 128 KiB to the resident memory of a process that writes.
_DECADE = np.array([math.floor((b - 1023) * math.log10(2)) for b in range(2047)])
_NEXT_POWER = np.array([float(f"1e{j + 1}") for j in range(_DECADE[0], _DECADE[-1] + 1)])


def _scaled(a, e10):
    """The rounded integer part of P = a * 10**(16 - e10), and where P
    is below 1e16, from 1e17 up, rounds up to 1e17, and is unsure.

    a > 0. P is the double-double p + low, with an absolute error of about
    1e-14 at 1e17. Unsure are fractions within _TIE_WINDOW of one half, and
    NaN: scales outside the table, and a above about 1e300, where the split
    of a overflows; NaN fails every other test.
    """
    row = np.clip(17 - _K_MIN - e10, 0, _POW10_HEAD.size - 1)
    head = _POW10_HEAD[row]
    tail = _POW10_TAIL[row]
    p = a * (head + tail)
    c = _VELTKAMP * a
    a_head = c - (c - a)
    a_tail = a - a_head
    low = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail
    low += a * _POW10_LO[row]
    frac = low - np.floor(low)
    digits = p.astype(np.int64) + np.floor(low + 0.5).astype(np.int64)
    # p is an integer; these differences are exact where p is near the bound.
    to_1e17 = 1e17 - p
    return (digits, low < 1e16 - p, low >= to_1e17, low >= to_1e17 - 0.5,
            ~(np.abs(frac - 0.5) >= _TIE_WINDOW))


# A token's slot of uint32 words; its NUL bytes are dropped at the end:
#   word 0        sign, the "0" of "0.0...", NUL, the first digit
#   words 1-4     the other 16 digits
#   word 5        the point and up to three zeros of "0.000"
#   words 6-10    the 17 digits again; the digits before the point are
#                 masked out of these, the ones after it out of words 0-4
#   words 11-12   "e+XX" or "e-XXX"
#   word 13       the separator
_SLOT = 14
_WHOLE, _POINT, _FRACTION, _EXPONENT, _SEP = slice(0, 5), 5, slice(6, 11), slice(11, 13), 13
_SIGN_WORD, _SPACE, _NEWLINE = _words([b"-", b" ", b"\n"], 4)[0]
_FIRST_DIGIT = _words([b"\0\0\0%d" % i for i in range(10)], 4)[0]
_DIGIT_PAIRS = [b"%02d" % i for i in range(100)]
_GROUP = np.frombuffer(b"".join([a + b for a in _DIGIT_PAIRS for b in _DIGIT_PAIRS]), np.uint32)
_TRAILING_ZEROS = np.zeros(10**4, np.int64)  # of each group, 4 for 0000
for _k in range(1, 5):
    _TRAILING_ZEROS[::10**_k] += 1
del _k
# Per layout: 0-20 is fixed notation for e10 = -4 ... 16, as '%.17g' has
# it, and 21 is "d.ddde+XX". A shape adds the number of significant
# digits: layout * 18 + (1 ... 17).
_E_MIN, _E_MAX = -324, 308
_LAYOUT = np.array([e + 4 if -4 <= e <= 16 else 21 for e in range(_E_MIN, _E_MAX + 1)])
_BEFORE_POINT = [max(e + 1, 0) for e in range(-4, 17)] + [1]
_LEAD = _words([b"\0" + b"0" * (i == 0) for i in _BEFORE_POINT], 4)[0]
_WHOLE_MASK = _words([b"\0\0\0" + b"\xff" * i for i in _BEFORE_POINT], 20)
_FRACTION_MASK = _words([
    b"\0\0\0" + b"\0" * i + b"\xff" * (nd - i) for i in _BEFORE_POINT for nd in range(18)
], 20)
_POINT_ZEROS = _words([
    (b"." if nd > i else b"") + b"0" * max(3 - layout, 0)
    for layout, i in enumerate(_BEFORE_POINT) for nd in range(18)
], 4)[0]
_EXPONENTS = _words([
    b"" if -4 <= e <= 16 else b"e%+03d" % e for e in range(_E_MIN, _E_MAX + 1)
], 8)


def _format_block(x, first_row_end, cols):
    """format_real of each entry of the 1-d `x`, separated, as bytes.

    Entry `first_row_end` of `x`, and every `cols`-th entry after it, ends a
    row and is followed by "\\n"; the others are followed by " ".
    """
    n = x.size
    a = np.abs(x)
    zero = a == 0.0
    a[zero] = 1.0  # formatted as "1"; the digit becomes "0" below
    e10 = _DECADE[a.view(np.int64) >> 52]
    e10 = np.where(a >= _NEXT_POWER[e10 - _DECADE[0]], e10 + 1, e10)
    with np.errstate(over="ignore", invalid="ignore"):
        digits, below, above, carry, unsure = _scaled(a, e10)
        # The decade misses next to a power of ten that is not a double.
        off = np.flatnonzero(below | above)
        if off.size:
            e10[off] = np.where(below[off], e10[off] - 1, e10[off] + 1)
            digits[off], _, _, carry[off], unsure[off] = _scaled(a[off], e10[off])
    digits = np.where(carry, 10**16, digits)
    e10 = np.where(carry, e10 + 1, e10)
    digits[unsure] = 10**16  # placeholders, overwritten below
    e10[unsure] = 0

    upper, lower = np.divmod(digits, 10**8)
    first, upper = np.divmod(upper, 10**8)
    g1, g2 = np.divmod(upper, 10**4)
    g3, g4 = np.divmod(lower, 10**4)
    # Trailing zeros, from the last group of four digits back.
    trailing = _TRAILING_ZEROS[g1]
    for g in (g2, g3, g4):
        trailing = _TRAILING_ZEROS[g] + (1 - np.minimum(g, 1)) * trailing
    layout = _LAYOUT[e10 - _E_MIN]
    shape = layout * 18 + 17 - trailing

    # One row per word of the slot, so that every step runs on contiguous
    # rows; the bytes are read out one slot per entry.
    slot = np.empty((_SLOT, n), np.uint32)
    whole = slot[_WHOLE]
    whole[0] = _FIRST_DIGIT[np.where(zero, 0, first)]
    whole[1] = _GROUP[g1]
    whole[2] = _GROUP[g2]
    whole[3] = _GROUP[g3]
    whole[4] = _GROUP[g4]
    np.bitwise_and(whole, np.take(_FRACTION_MASK, shape, axis=1), out=slot[_FRACTION])
    whole &= np.take(_WHOLE_MASK, layout, axis=1)
    whole[0] += _LEAD[layout] + np.where(np.signbit(x), _SIGN_WORD, 0)
    slot[_POINT] = _POINT_ZEROS[shape]
    slot[_EXPONENT] = np.take(_EXPONENTS, e10 - _E_MIN, axis=1)
    slot[_SEP] = _SPACE
    slot[_SEP, first_row_end::cols] = _NEWLINE
    for i in np.flatnonzero(unsure):
        token = format_real(x[i]).encode("ascii").ljust(4 * _SEP, b"\0")
        slot[:_SEP, i] = np.frombuffer(token, np.uint32)
    return slot.T.tobytes().translate(None, b"\0")


def write_trace(path, trace) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(TRACE_HEADER + "\n")
        for rec in trace:
            reals = (format_real(getattr(rec, name)) for name in TRACE_FIELDS[1:])
            f.write(",".join((str(rec.iter), *reals)) + "\n")


def read_trace(path) -> list[TraceRecord]:
    lines = _read_lines(path)
    if not lines or lines[0] != TRACE_HEADER:
        raise MatrixFormatError(
            f"trace header must be {TRACE_HEADER!r}", line=1
        )
    records = []
    prev_iter = None
    for idx, line in enumerate(lines[1:]):
        line_no = idx + 2
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
        if prev_iter is not None and it <= prev_iter:
            raise MatrixFormatError(
                f"iteration indices must be strictly increasing, got {it} after {prev_iter}",
                line=line_no,
            )
        prev_iter = it
        reals = [_parse_real(tok, line_no, name) for tok, name in zip(fields[1:], TRACE_FIELDS[1:])]
        records.append(TraceRecord(it, *reals))
    return records
