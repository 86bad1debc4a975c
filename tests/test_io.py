import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import biorth.matio
from biorth.errors import MatrixFormatError, NumericalError
from biorth.matio import (
    TRACE_HEADER,
    _parse_real,
    _parse_rows,
    _read_lines,
    format_real,
    read_matrix,
    read_trace,
    write_matrix,
    write_trace,
)
from biorth.rng import make_rng
from biorth.solvers import TraceRecord

# awkward but representable values: subnormals, signed zero, extremes
SPECIAL_VALUES = [
    0.0,
    -0.0,
    5e-324,                      # smallest positive subnormal
    -5e-324,
    2.2250738585072014e-308,     # smallest positive normal
    1.1125369292536007e-308,     # subnormal
    1.7976931348623157e308,      # largest finite
    -1.7976931348623157e308,
    1.0 + 2**-52,                # one ulp above 1
    1/3,
]


def bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMatrixRoundtrip:
    def test_reads_identity_fixture(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1 0\n0 1\n")
        assert np.array_equal(read_matrix(path), np.eye(2))

    def test_write_format(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(2))
        assert path.read_text() == "2 2\n1 0\n0 1\n"

    def test_row_vector_layout(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, np.zeros((1, 3)))
        lines = path.read_text().splitlines()
        assert lines[0] == "1 3"
        assert len(lines) == 2

    def test_seeded_roundtrips_bitwise(self, tmp_path):
        path = tmp_path / "m.txt"
        for trial in range(100):
            rng = make_rng(trial)
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 8))
            m = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-12, 12)
            # sprinkle in the awkward values
            flat = m.reshape(-1)
            for j, v in enumerate(SPECIAL_VALUES):
                if j < flat.size:
                    flat[j] = v
            write_matrix(path, m)
            assert bitwise_equal(read_matrix(path), m)

    def test_subnormal_roundtrip(self, tmp_path):
        path = tmp_path / "m.txt"
        m = np.array(SPECIAL_VALUES).reshape(2, 5)
        write_matrix(path, m)
        assert bitwise_equal(read_matrix(path), m)

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix(tmp_path / "nope.txt")


class TestMatrixFormatErrors:
    def test_short_row_reports_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1 0\n0\n")
        with pytest.raises(MatrixFormatError) as err:
            read_matrix(path)
        assert err.value.line == 3

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("two by two\n")
        with pytest.raises(MatrixFormatError) as err:
            read_matrix(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("header", ["2.0 2", "2 x", "1_0 2"])
    def test_non_integer_header(self, tmp_path, header):
        # int() would read "1_0" as 10, and the ten rows would then make the
        # file well formed.
        path = tmp_path / "m.txt"
        path.write_text(header + "\n" + "1 2\n" * 10)
        with pytest.raises(MatrixFormatError, match="must be integers") as err:
            read_matrix(path)
        assert err.value.line == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("")
        with pytest.raises(MatrixFormatError, match="empty file") as err:
            read_matrix(path)
        assert err.value.line == 1

    def test_nonpositive_dims(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("0 2\n")
        with pytest.raises(MatrixFormatError) as err:
            read_matrix(path)
        assert err.value.line == 1

    def test_non_finite_token_reports_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1 0\nnan 1\n")
        with pytest.raises(MatrixFormatError) as err:
            read_matrix(path)
        assert err.value.line == 3

    def test_unparseable_token_reports_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n1 x\n")
        with pytest.raises(MatrixFormatError) as err:
            read_matrix(path)
        assert err.value.line == 2

    def test_missing_rows(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("3 1\n1\n2\n")
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_trailing_content(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 1\n1\nextra\n")
        with pytest.raises(MatrixFormatError) as err:
            read_matrix(path)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "data, line, byte",
        [
            (b"\xef\xbb\xbf2 2\n1 2\n3 4\n", 1, "0xef"),  # UTF-8 byte order mark
            (b"2 2\r\n1 2\r\n\xe2\x88\x923 4\r\n", 3, "0xe2"),  # U+2212 minus sign
        ],
        ids=["bom", "minus-sign"],
    )
    def test_non_ascii_byte_reports_its_line(self, tmp_path, data, line, byte):
        path = tmp_path / "m.txt"
        path.write_bytes(data)
        with pytest.raises(MatrixFormatError, match=f"non-ASCII byte {byte}") as err:
            read_matrix(path)
        assert err.value.line == line


class TestTraceRoundtrip:
    def records(self):
        rng = make_rng(77)
        records = []
        for i in range(20):
            records.append(
                TraceRecord(
                    iter=i,
                    cost=float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8)),
                    grad_norm=abs(float(rng.standard_normal())),
                    feas_err=float(abs(rng.standard_normal()) * 1e-12),
                    elapsed_ms=float(i) * 1.5,
                )
            )
        return records

    def test_empty_trace_is_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(path, [])
        assert path.read_text() == TRACE_HEADER + "\n"
        assert read_trace(path) == []

    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(path, [TraceRecord(0, 1.0, 2.0, 3.0, 4.0)])
        assert len(path.read_text().splitlines()) == 2

    def test_bytes_are_the_header_then_the_iteration_and_each_real(self, tmp_path):
        path = tmp_path / "t.csv"
        records = [TraceRecord(0, 12.5, 0.1, 5e-324, 0.0), TraceRecord(7, -1e300, 1 / 3, 0.0, 2.25)]
        write_trace(path, records)
        assert TRACE_HEADER == "iter,cost,grad_norm,feas_err,elapsed_ms"
        rows = [",".join([str(r.iter)] + [format_real(v) for v in (r.cost, r.grad_norm,
                                                                  r.feas_err, r.elapsed_ms)])
                for r in records]
        assert rows[1] == "7,-1.0000000000000001e+300,0.33333333333333331,0,2.25"
        assert path.read_bytes() == "\n".join([TRACE_HEADER, *rows, ""]).encode("ascii")

    def test_roundtrip_bitwise(self, tmp_path):
        path = tmp_path / "t.csv"
        records = self.records()
        write_trace(path, records)
        back = read_trace(path)
        assert back == records

    def test_special_values_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        records = [
            TraceRecord(i, v, abs(v), 5e-324, 0.25) for i, v in enumerate(SPECIAL_VALUES)
        ]
        write_trace(path, records)
        back = read_trace(path)
        for rec, ref in zip(back, records):
            assert (rec.cost == ref.cost and np.signbit(rec.cost) == np.signbit(ref.cost))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("iter,cost\n")
        with pytest.raises(MatrixFormatError) as err:
            read_trace(path)
        assert err.value.line == 1

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(TRACE_HEADER + "\n0,1.0,2.0\n")
        with pytest.raises(MatrixFormatError, match="expected 5 comma-separated fields, got 3") as err:
            read_trace(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("column, name", enumerate(["cost", "grad_norm", "feas_err",
                                                        "elapsed_ms"], start=1))
    def test_a_bad_real_is_named_by_its_column(self, tmp_path, column, name):
        fields = ["0", "1", "1", "1", "1"]
        fields[column] = "x"
        path = tmp_path / "t.csv"
        path.write_text(TRACE_HEADER + "\n" + ",".join(fields) + "\n")
        with pytest.raises(MatrixFormatError, match=f"line 2: cannot parse {name} 'x'$"):
            read_trace(path)

    @pytest.mark.parametrize("field", ["x", "1.0", "1_0"])
    def test_non_integer_iter_rejected(self, tmp_path, field):
        # int() would read "1_0" as iteration 10.
        path = tmp_path / "t.csv"
        path.write_text(TRACE_HEADER + f"\n0,1,1,1,1\n{field},1,1,1,1\n")
        with pytest.raises(MatrixFormatError, match="must be an integer") as err:
            read_trace(path)
        assert err.value.line == 3

    def test_underscore_digits_in_a_real_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(TRACE_HEADER + "\n0,1_0,1,1,1\n")
        with pytest.raises(MatrixFormatError, match="cannot parse cost '1_0'") as err:
            read_trace(path)
        assert err.value.line == 2

    def test_non_increasing_iter_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(TRACE_HEADER + "\n0,1,1,1,1\n0,1,1,1,1\n")
        with pytest.raises(MatrixFormatError) as err:
            read_trace(path)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"\xef\xbb\xbf" + TRACE_HEADER.encode() + b"\n0,1,1,1,1\n", 1),
            (TRACE_HEADER.encode() + b"\n0,1,1,1,1\n1,\xe2\x88\x921,1,1,1\n2,1,1,1,1\n", 3),
        ],
        ids=["bom", "minus-sign"],
    )
    def test_non_ascii_byte_reports_its_line(self, tmp_path, data, line):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        with pytest.raises(MatrixFormatError, match="non-ASCII byte") as err:
            read_trace(path)
        assert err.value.line == line


class TestFormatReal:
    def test_pins_every_double(self):
        rng = make_rng(99)
        values = list(rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200))
        values += SPECIAL_VALUES
        for v in values:
            assert float(format_real(v)) == v or (np.isnan(v))


# Arbitrary finite doubles: hypothesis draws signed zeros, subnormals and the
# extremes often; the explicit examples pin them.
finite_matrices = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
)


def per_entry_text(m):
    """The reference text of a matrix file: format_real of each entry.

    write_matrix formats whole blocks of entries in numpy and must give
    these bytes exactly.
    """
    rows, cols = m.shape
    return f"{rows} {cols}\n" + "".join(
        " ".join(format_real(v) for v in row) + "\n" for row in m
    )


def per_token_read(path):
    """The matrix in `path` as _parse_real, float() of each token, reads it.

    Raises MatrixFormatError at the first fault in file order. The lines are
    split as read_matrix splits them; a header, if there is one, is taken to
    be two positive integers.
    """
    lines = _read_lines(path)
    if not lines:
        raise MatrixFormatError("empty file, expected a 'rows cols' header", line=1)
    rows, cols = map(int, lines[0].split())
    if len(lines) - 1 < rows:
        raise MatrixFormatError(
            f"expected {rows} data rows, file ends after {len(lines) - 1}", line=len(lines) + 1
        )
    if len(lines) - 1 > rows:
        raise MatrixFormatError(f"unexpected content after {rows} data rows", line=rows + 2)
    values = []
    for line_no, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if len(tokens) != cols:
            raise MatrixFormatError(f"expected {cols} values, got {len(tokens)}", line=line_no)
        values.append([_parse_real(tok, line_no, "entry") for tok in tokens])
    return np.array(values)


class TestRowFastPath:
    @given(finite_matrices)
    @example(np.array(SPECIAL_VALUES).reshape(2, 5))
    @example(np.array([[-0.0, 5e-324, -1.7976931348623157e308]]))
    def test_roundtrip_is_bitwise_exact(self, tmp_path_factory, m):
        path = tmp_path_factory.mktemp("rt") / "m.txt"
        write_matrix(path, m)
        assert bitwise_equal(read_matrix(path), m)

    @given(finite_matrices)
    @example(np.array(SPECIAL_VALUES).reshape(5, 2))
    def test_writer_bytes_match_per_entry_format(self, tmp_path_factory, m):
        path = tmp_path_factory.mktemp("wr") / "m.txt"
        write_matrix(path, m)
        assert path.read_bytes() == per_entry_text(m).encode("ascii")

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        faults=st.lists(
            st.tuples(
                st.integers(0, 4),
                st.integers(0, 4),
                st.sampled_from(["x", "nan", "1e400", "short", "long"]),
            ),
            min_size=1,
            max_size=2,
        ),
    )
    def test_errors_match_the_per_token_loop(self, tmp_path_factory, seed, rows, cols, faults):
        m = make_rng(seed).standard_normal((rows, cols))
        text = per_entry_text(m).split("\n")
        faulty_rows = set()
        for row, col, kind in faults:
            k = 1 + row % rows
            if k in faulty_rows:  # a second fault could undo the first
                continue
            faulty_rows.add(k)
            tokens = text[k].split(" ")
            if kind == "short":
                tokens.pop()
            elif kind == "long":
                tokens.append("1")
            else:
                tokens[col % len(tokens)] = kind
            text[k] = " ".join(tokens)
        path = tmp_path_factory.mktemp("err") / "m.txt"
        path.write_text("\n".join(text))
        with pytest.raises(MatrixFormatError) as err:
            read_matrix(path)
        assert (err.value.line, str(err.value)) == outcome(per_token_read, path)

    def test_non_finite_matrix_writes_no_file(self, tmp_path):
        for bad in (np.nan, np.inf, -np.inf):
            path = tmp_path / "m.txt"
            m = np.ones((3, 4))
            m[2, 1] = bad
            with pytest.raises(NumericalError):
                write_matrix(path, m)
            assert not path.exists()

    def test_underscore_digits_are_rejected(self, tmp_path):
        # The chunk parser declines "1_0"; the per-token loop, where float()
        # would read it as 10.0, must reject it, at its line.
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1 2\n1_0 2\n")
        with pytest.raises(MatrixFormatError, match="cannot parse entry '1_0'") as err:
            read_matrix(path)
        assert err.value.line == 3


def assert_writes_per_entry_text(tmp_path, m):
    path = tmp_path / "m.txt"
    write_matrix(path, m)
    assert path.read_bytes() == per_entry_text(m).encode("ascii")


def as_rows(values, cols=7):
    """`values` in rows of `cols`, the last row padded with 1.0."""
    values = np.asarray(values, dtype=np.float64).ravel()
    return np.concatenate([values, np.ones(-values.size % cols)]).reshape(-1, cols)


class TestBlockWriter:
    """write_matrix against per_entry_text, on the cases its digit arithmetic
    must get right, and on shapes whose entries span several blocks."""

    @pytest.mark.parametrize("shape", [(97, 130), (1, 7000), (7000, 1)])
    def test_shapes_across_blocks(self, tmp_path, shape):
        rng = make_rng(11)
        m = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
        assert m.size > biorth.matio._BLOCK
        assert_writes_per_entry_text(tmp_path, m)

    def test_transposed_view(self, tmp_path):
        m = make_rng(12).standard_normal((130, 97)).T
        assert not m.flags.c_contiguous
        assert_writes_per_entry_text(tmp_path, m)

    def test_exact_ties(self, tmp_path):
        # odd / 8 in [1e14, 1e15) has 18 significant digits ending in 5:
        # '%.17g' rounds it half to even.
        odd = 2 * make_rng(13).integers(4 * 10**14, 4 * 10**15, 3000) + 1
        m = as_rows(odd / 8.0)
        assert np.all(m[:-1] * 8 % 2 == 1)
        assert_writes_per_entry_text(tmp_path, np.vstack([m, -m]))

    def test_neighbours_of_decade_and_notation_bounds(self, tmp_path):
        values = []
        for v in (1e-5, 1e-4, 1e16, 1e17):
            down = up = v
            values.append(v)
            for _ in range(3):
                down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
                values += [down, up]
        m = as_rows(values)
        assert_writes_per_entry_text(tmp_path, np.vstack([m, -m]))

    def test_doubles_nearest_powers_of_ten(self, tmp_path):
        # A few lie within 5e-18 below their power, such as 1e-14, and print
        # as that power only if rounding to 17 digits carries into the
        # exponent.
        powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
        m = as_rows([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        assert_writes_per_entry_text(tmp_path, np.vstack([m, -m]))

    def test_signed_zero_and_extremes(self, tmp_path):
        values = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
        assert_writes_per_entry_text(tmp_path, np.array([values, [-v for v in values]]))

    def test_integers_up_to_2_to_53(self, tmp_path):
        ints = make_rng(14).integers(0, 2**53, 3000).astype(np.float64)
        powers = [10.0**k for k in range(16)]
        edges = [2.0**53, 2.0**53 - 1, 2.0**52 + 1]
        assert_writes_per_entry_text(tmp_path, as_rows([*ints, *powers, *edges]))

    def test_random_bit_patterns(self, tmp_path):
        bits = make_rng(15).integers(0, 2**64, 20000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert_writes_per_entry_text(tmp_path, as_rows(values[np.isfinite(values)]))


# Finite doubles whose exponents span +-300, for both parsers' rounding.
wide_exponent_matrices = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.builds(
        lambda mantissa, exponent: mantissa * 10.0**exponent,
        st.floats(-10.0, 10.0),
        st.integers(-300, 300),
    ),
)


@pytest.fixture
def row_fallbacks(monkeypatch):
    """Count the calls of the per-token fallback parser."""
    calls = []

    def counted(lines, rows, cols):
        calls.append(rows)
        return _parse_rows(lines, rows, cols)

    monkeypatch.setattr(biorth.matio, "_parse_rows", counted)
    return calls


def read_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return read_matrix(path)


def outcome(read, *args):
    """The shape and bytes of what `read(*args)` returns, or the (line, message) it raises."""
    try:
        m = read(*args)
        return m.shape, m.tobytes()
    except MatrixFormatError as err:
        return err.line, str(err)


def rows_with_bad_token(rows, bad_row, token="x"):
    """A `rows` x 3 matrix file whose data row `bad_row` (from 1) holds `token`."""
    lines = per_entry_text(make_rng(rows).standard_normal((rows, 3))).split("\n")
    lines[bad_row] = f"{token} " + lines[bad_row].split(" ", 1)[1]
    return "\n".join(lines)


# Text that JSON reads other than float() reads its tokens, text that the
# per-token loop reads but JSON rejects, and faults in later chunks.
ODD_INPUTS = {
    "vt-ff": "1 3\n1\x0b2\x0c3\n",
    "fs": "2 2\n1\x1c2\n3 4\n",
    "blank-row": "2 2\n1 2\n  \t \n",
    "all-empty": "2 1\n\n\n",
    "all-blank": "2 2\n \n\t\n",
    "overflow": "2 2\n1 2\n1e400 4\n",
    "hash": "2 2\n1 2 # note\n3 4\n",
    "comma": "1 2\n1,5\n",
    "bracket": "1 2\n[1] 2\n",
    "split-row": "2 2\n1 2] [3 4\n",
    "split-row-one-header": "1 4\n1 2] [3 4\n",
    "quoted": '1 1\n"1"\n',
    "true": "1 1\ntrue\n",
    "false": "1 2\nfalse 1\n",
    "null": "1 1\nnull\n",
    "minus-zero": "1 1\n-0\n",
    "minus-zero-mid-row": "1 3\n1 -0 2\n",
    "minus-zero-beside-zero": "1 2\n0 -0\n",
    "minus-zero-point": "1 2\n-0.0 0\n",
    "minus-zero-exponent": "1 2\n-0e0 0\n",
    "minus-zero-signed-exponent": "1 2\n-0E+5 0\n",
    "minus-zero-point-exponent": "1 2\n-0.0e-3 0\n",
    "exponent-minus-zero": "1 2\n1e-0 0\n",
    "2**53+1": "1 1\n9007199254740993\n",
    "2**64-1": "1 1\n18446744073709551615\n",
    "30-digits": "1 1\n" + "123456789" * 3 + "123\n",
    "400-digits": "1 1\n" + "7" * 400 + "\n",
    "underflow": "1 1\n1e-400\n",
    "negative-underflow": "1 1\n-1e-400\n",
    "plus": "1 1\n+1\n",
    "no-whole": "1 1\n.5\n",
    "no-fraction": "1 1\n1.\n",
    "leading-zero": "1 1\n02\n",
    "infinity": "1 1\nInfinity\n",
    "lone-cr": "1 2\n1\r2\n",
    "tab": "1 2\n1\t2\n",
    "second-chunk": rows_with_bad_token(33, 17),
    "last-chunk": rows_with_bad_token(33, 33),
    "second-chunk-minus-zero": rows_with_bad_token(33, 17, "-0"),
    "empty": "",
}


class TestTwoParsers:
    """read_matrix parses rows in chunks with orjson and falls back to _parse_rows.

    The per-token fallback is the independent check of the chunk parser:
    on text it accepts, both give the same bits.
    """

    @given(
        st.one_of(finite_matrices, wide_exponent_matrices),
        st.integers(1, 25),
    )
    @example(np.array(SPECIAL_VALUES).reshape(2, 5), 17)
    @example(np.array([[1.7976931348623157e308, 2.4703282292062328e-324]]), 25)
    @example(np.array([[1.5e308]]), 1)
    def test_both_parsers_give_the_same_bits(self, tmp_path_factory, m, digits):
        # Fewer or more than 17 digits gives text that both must round alike;
        # rounding up past the largest double gives a non-finite entry.
        rows, cols = m.shape
        text = f"{rows} {cols}\n" + "".join(
            " ".join(format(v, f".{digits}g") for v in row) + "\n" for row in m
        )
        path = tmp_path_factory.mktemp("parsers") / "m.txt"
        path.write_text(text)
        lines = text.split("\n")[:-1]
        assert outcome(read_without_warnings, path) == outcome(_parse_rows, lines, rows, cols)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_well_formed_files_skip_the_fallback(self, tmp_path, row_fallbacks, newline):
        m = make_rng(5).standard_normal((4, 3))
        path = tmp_path / "m.txt"
        path.write_bytes(per_entry_text(m).replace("\n", newline).encode("ascii"))
        assert bitwise_equal(read_without_warnings(path), m)
        assert row_fallbacks == []

    @pytest.mark.parametrize("text", list(ODD_INPUTS.values()), ids=list(ODD_INPUTS))
    def test_odd_input_reads_as_the_per_token_loop_does(self, tmp_path, monkeypatch, text):
        # "1_0", which the chunk parser declines, is test_underscore_digits_are_rejected.
        path = tmp_path / "m.txt"
        path.write_bytes(text.encode("ascii"))
        read = outcome(read_without_warnings, path)
        assert read == outcome(per_token_read, path)
        # The fallback alone reads the file as both paths together do.
        monkeypatch.setattr(biorth.matio, "_parse_chunks", lambda lines, rows, cols: None)
        assert read == outcome(read_matrix, path)

    def test_written_negative_zero_skips_the_fallback(self, tmp_path, row_fallbacks):
        # write_matrix writes -0.0 as the token "-0", which JSON reads as 0.
        m = make_rng(6).standard_normal((40, 3))
        m[[0, 17, 39], [0, 1, 2]] = -0.0
        m[5, 1] = 0.0
        path = tmp_path / "m.txt"
        write_matrix(path, m)
        assert b" -0 " in path.read_bytes()
        assert bitwise_equal(read_matrix(path), m)
        assert row_fallbacks == []

    def test_float_bits_for_every_token(self, tmp_path, row_fallbacks):
        # Catches an orjson build whose number parser does not round as float() does.
        bits = make_rng(16).integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64)
        subnormals = make_rng(17).integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
        extremes = [5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                    1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0]
        values = np.concatenate([bits[np.isfinite(bits)], subnormals, -subnormals, extremes])
        forms = {"17g": lambda v: format(v, ".17g"), "repr": repr}
        for name, form in forms.items():
            tokens = [form(float(v)) for v in values]
            tokens += ["1"] * (-len(tokens) % 100)
            rows = [" ".join(tokens[i:i + 100]) + "\n" for i in range(0, len(tokens), 100)]
            path = tmp_path / f"{name}.txt"
            path.write_text(f"{len(rows)} 100\n" + "".join(rows))
            expected = np.array([float(t) for t in tokens]).reshape(-1, 100)
            assert bitwise_equal(read_matrix(path), expected), name
        assert row_fallbacks == []
