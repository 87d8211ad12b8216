import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from aksvd import io
from aksvd.errors import DataError
from aksvd.io import (
    format_rows,
    load_dense_csv,
    load_edge_list,
    load_labels,
    load_report,
    save_embeddings,
    save_matrix_csv,
    save_report,
)


def test_csv_basic(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4\n")
    assert np.array_equal(load_dense_csv(p), [[1.0, 2.0], [3.0, 4.0]])


def test_csv_empty_file(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_dense_csv(p)


def test_csv_ragged_rows(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("1,2\n3,4,5\n")
    with pytest.raises(DataError, match="line 2"):
        load_dense_csv(p)


def test_csv_bad_token_reports_position(tmp_path):
    p = tmp_path / "b.csv"
    p.write_text("1,2\n3,oops\n")
    with pytest.raises(DataError, match="line 2, column 2"):
        load_dense_csv(p)


# inputs at the edges of what a CSV parser accepts; the line scanner's
# result (or its exact error) is the reference for each
CSV_EDGE_CASES = {
    "basic": b"1,2\n3,4\n",
    "no_final_newline": b"1,2\n3,4",
    "crlf": b"1,2\r\n3,4\r\n",
    "cr_only": b"1,2\r3,4\r",
    "one_value": b"5\n",
    "one_column": b"1\n2\n3\n",
    "one_row": b"1,2,3\n",
    "blank_lines": b"\n1,2\n\n3,4\n\n",
    "space_only_line": b"1,2\n   \n3,4\n",
    "tab_only_line": b"1,2\n\t\n3,4\n",
    "form_feed_line": b"1,2\n\x0c\n3,4\n",
    "vertical_tab_line": b"1,2\n\x0b\n3,4\n",
    "nbsp_only_line": "1,2\n\u00a0\n3,4\n".encode(),
    "padded_fields": b" 1 , 2 \n\t3\t,\t4\t\n",
    "underscore": b"1_0,2\n",
    "fullwidth_digit": "\uff11,2\n".encode(),
    "inf_nan": b"inf,-inf\nnan,+inf\n",
    "infinity_words": b"Infinity,-INF\nNaN,nan\n",
    "exponents": b"1e5,1E-5\n-2.5e+3,.5\n",
    "overflow": b"1e400,-1e400\n",
    "underflow": b"1e-400,5e-324\n",
    "signed_zero": b"-0,+0\n-0.0,0.0\n",
    "trailing_dot": b"1.,+.5\n",
    "long_mantissa": ("0." + "1" * 400 + ",2\n").encode(),
    "empty": b"",
    "blank_only": b"\n\n\n",
    "whitespace_only": b"  \n\t\n",
    "ragged": b"1,2\n3,4,5\n",
    "trailing_comma": b"1,2,\n3,4,\n",
    "empty_field": b"1,,2\n",
    "bad_token": b"1,2\n3,oops\n",
    "hash_comment": b"# c\n1,2\n",
    "quoted": b"\"1\",2\n",
    "hex": b"0x10,2\n",
    "space_in_number": b"1 2,3\n",
    "fortran_exponent": b"1d3,2\n",
    "semicolon": b"1;2\n",
    "unicode_minus": "\u22121,2\n".encode(),
    "byte_order_mark": b"\xef\xbb\xbf1,2\n",
    "bom": b"\xef\xbb\xbf \n1,2\r\n\t\n3,4\n",
    "nul": b"1\x00,2\n",
    "bad_utf8": b"1,\xff\n",
}


def _outcome(load, path):
    try:
        return load(path)
    except (DataError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(CSV_EDGE_CASES))
def test_csv_edge_cases_match_line_scanner(tmp_path, name):
    p = tmp_path / f"{name}.csv"
    p.write_bytes(CSV_EDGE_CASES[name])
    got, want = _outcome(load_dense_csv, p), _outcome(io._scan_dense_csv, p)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_csv_clean_input_skips_line_scanner(tmp_path, monkeypatch):
    def fail(path):
        raise AssertionError("line scanner ran on a clean file")

    monkeypatch.setattr(io, "_scan_dense_csv", fail)
    p = tmp_path / "m.csv"
    p.write_text("1,2\n\n3,4\n")
    assert np.array_equal(load_dense_csv(p), [[1.0, 2.0], [3.0, 4.0]])


def test_csv_round_trip_value_exact(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-12, 12, size=(7, 5))
    p = tmp_path / "rt.csv"
    save_matrix_csv(p, M)
    back = load_dense_csv(p)
    assert np.array_equal(back, M)


def test_csv_bytes_match_per_value_formatter(tmp_path):
    # the row-format writer gives the bytes of formatting each value alone
    rng = np.random.default_rng(1)
    M = rng.standard_normal((6, 9)) * 10.0 ** rng.integers(-300, 300, size=(6, 9))
    M[0, :8] = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                1e300, -1e300, 1e-300]
    M[1, :3] = [-1e-300, np.finfo(np.float64).max, -np.finfo(np.float64).tiny]
    p = tmp_path / "bytes.csv"
    save_matrix_csv(p, M)
    expected = "".join(",".join("%.17g" % v for v in row) + "\n" for row in M)
    assert p.read_bytes() == expected.encode("utf-8")
    assert np.array_equal(load_dense_csv(p), M)
    assert np.array_equal(np.signbit(load_dense_csv(p)), np.signbit(M))


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                -2.2250738585072014e-308, 1.7976931348623157e308,
                                -1.7976931348623157e308, np.inf, -np.inf])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(M=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                    elements=st.floats(allow_nan=False) | _EDGE_FLOATS))
def test_csv_round_trip_preserves_every_bit_property(tmp_path, M):
    # every finite or infinite float64, including +-0, subnormals and +-max,
    # comes back with the same bits (so the same sign) through the CSV files
    p = tmp_path / "prop.csv"
    save_matrix_csv(p, M)
    back = load_dense_csv(p)
    assert back.shape == M.shape
    assert np.array_equal(back.view(np.uint64), M.view(np.uint64))


def test_edge_list_directionality(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("0\t1\n")
    A = load_edge_list(p)
    assert A.shape == (2, 2)
    assert A[0, 1] == 1.0 and A[1, 0] == 0.0


def test_edge_list_duplicates_collapse(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("0\t1\n0\t1\n1\t2\n")
    A = load_edge_list(p)
    assert A.sum() == 2.0


def test_edge_list_hand_built(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("# n=4\n0\t1\n2\t3\n3\t0\n")
    A = load_edge_list(p)
    want = np.zeros((4, 4))
    want[0, 1] = want[2, 3] = want[3, 0] = 1.0
    assert np.array_equal(A, want)


def test_edge_list_header_and_bounds(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("# n=2\n0\t5\n")
    with pytest.raises(DataError, match="exceeds"):
        load_edge_list(p)


@pytest.mark.parametrize("header", ["# n=abc", "# n=-3"])
def test_edge_list_bad_node_count_header(tmp_path, header):
    p = tmp_path / "g.tsv"
    p.write_text(f"{header}\n0\t1\n")
    with pytest.raises(DataError, match=f"g.tsv: line 1: bad node-count header '{header}'"):
        load_edge_list(p)


def test_edge_list_negative_index(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("-1\t0\n")
    with pytest.raises(DataError, match="negative"):
        load_edge_list(p)


def test_edge_list_self_loop_preserved(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("1\t1\n")
    A = load_edge_list(p)
    assert A[1, 1] == 1.0


# inputs at the edges of what numpy's edge-list parse accepts; as for CSV,
# the line scanner's result (or its exact error) is the reference for each
EDGE_CASES = {
    "basic": b"# n=3\n0\t1\n2\t0\n",
    "header_alone": b"# n=3\n",
    "header_after_edges": b"0\t1\n# n=4\n",
    "two_headers": b"# n=3\n# n=5\n0\t1\n",
    "two_headers_second_smaller": b"# n=5\n0\t4\n# n=2\n",
    "comment_between_edges": b"# n=3\n0\t1\n# a comment\n1\t2\n",
    "comment_before_header": b"# a comment\n# n=3\n0\t1\n",
    "inline_comment": b"# n=3\n0\t1 # note\n",
    "inline_comment_no_header": b"0\t1# note\n",
    "hash_inside_header": b"# n=3 # three\n0\t1\n",
    "other_comment_first": b"# edges\n0\t1\n",
    "bad_header": b"# n=abc\n0\t1\n",
    "negative_header": b"# n=-3\n0\t1\n",
    "header_underscore": b"# n=1_0\n0\t9\n",
    "space_for_tab": b"# n=3\n0\t1\n1 2\n",
    "three_fields": b"# n=3\n0\t1\t2\n",
    "one_field": b"5\n6\n",
    "trailing_tab": b"0\t1\t\n",
    "leading_tab": b"\t0\t1\n",
    "empty_field": b"0\t\t1\n",
    "underscore": b"1_0\t2\n",
    "plus_sign": b"+3\t1\n",
    "leading_zeros": b"007\t1\n",
    "padded_fields": b" 0 \t 1 \n",
    "real_index": b"# n=4\n0\t3.0\n",
    "exponent": b"1e1\t0\n",
    "hex": b"0x1\t0\n",
    "fullwidth_digit": "１\t0\n".encode(),
    "minus_zero": b"-0\t1\n",
    "negative_index": b"# n=3\n0\t1\n-1\t0\n",
    "index_at_n": b"# n=3\n0\t1\n2\t3\n",
    "index_past_n": b"# n=2\n0\t5\n",
    "index_beyond_int64": b"# n=3\n0\t9223372036854775808\n",
    "no_header": b"0\t1\n4\t2\n",
    "byte_order_mark": b"\xef\xbb\xbf# n=3\n0\t1\n",
    "byte_order_mark_no_header": b"\xef\xbb\xbf0\t1\n",
    "crlf": b"# n=3\r\n0\t1\r\n1\t2\r\n",
    "cr_only": b"# n=3\r0\t1\r1\t2\r",
    "no_final_newline": b"# n=3\n0\t1",
    "blank_lines": b"\n# n=3\n\n0\t1\n\n",
    "whitespace_only_lines": b"# n=3\n0\t1\n   \n\t\n\x0c\n1\t2\n",
    "duplicate_edges": b"# n=3\n0\t1\n0\t1\n1\t2\n0\t1\n",
    "self_loops": b"# n=3\n1\t1\n0\t0\n",
    "empty": b"",
    "blank_only": b"\n \n",
    "nul": b"0\t1\x00\n",
    "bad_utf8": b"# n=3\n0\t\xff\n",
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_list_edge_cases_match_line_scanner(tmp_path, name):
    p = tmp_path / f"{name}.tsv"
    p.write_bytes(EDGE_CASES[name])
    got, want = _outcome(load_edge_list, p), _outcome(io._scan_edge_list, p)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got, want) and got.shape == want.shape


def test_edge_list_clean_input_skips_line_scanner(tmp_path, monkeypatch):
    def fail(path):
        raise AssertionError("line scanner ran on a clean file")

    monkeypatch.setattr(io, "_scan_edge_list", fail)
    p = tmp_path / "g.tsv"
    p.write_text("# n=4\n0\t1\n\n2\t3\n3\t0\n0\t1\n")
    want = np.zeros((4, 4))
    want[0, 1] = want[2, 3] = want[3, 0] = 1.0
    assert np.array_equal(load_edge_list(p), want)


# NumPy releases that deprecate, rather than reject, a real in an integer
# field parse "1.7" as 1 and only warn; with that warning hidden, as Python
# hides it outside __main__, the file must still reach the line scanner
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize("field", ["3.0", "1.7", "1e1"])
def test_edge_list_real_index_is_rejected_when_loadtxt_only_warns(tmp_path, monkeypatch, field):
    def deprecating_loadtxt(path, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return np.array([[0, int(float(field))]], dtype=np.int64)

    p = tmp_path / "g.tsv"
    line = f"0\t{field}"
    p.write_text(f"# n=11\n{line}\n")
    message = f"{p}: line 2: non-integer node index in {line!r}"
    with pytest.raises(DataError) as installed:
        load_edge_list(p)
    monkeypatch.setattr(np, "loadtxt", deprecating_loadtxt)
    with pytest.raises(DataError) as deprecating:
        load_edge_list(p)
    assert str(installed.value) == str(deprecating.value) == message


def test_labels(tmp_path):
    p = tmp_path / "y.txt"
    p.write_text("0\n1\n2\n1\n")
    assert np.array_equal(load_labels(p), [0, 1, 2, 1])


def test_labels_integral_reals_accepted(tmp_path):
    p = tmp_path / "y.txt"
    p.write_text("2.0\n-1\n1e2\n")
    assert np.array_equal(load_labels(p), [2, -1, 100])


def test_labels_large_integers_exact(tmp_path):
    p = tmp_path / "y.txt"
    big = [2 ** 53 + 1, 2 ** 63 - 1, -2 ** 63]
    p.write_text("".join(f"{v}\n" for v in big))
    labels = load_labels(p)
    assert labels.dtype == np.int64 and labels.tolist() == big


@pytest.mark.parametrize("bad", [str(2 ** 63), str(-2 ** 63 - 1)])
def test_labels_beyond_int64_rejected(tmp_path, bad):
    p = tmp_path / "y.txt"
    p.write_text(f"0\n{bad}\n")
    with pytest.raises(DataError, match=f"line 2: .*{bad!r} is not a 64-bit integer"):
        load_labels(p)


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "1.5", "1e300"])
def test_labels_non_integer_rejected_with_line(tmp_path, bad):
    p = tmp_path / "y.txt"
    p.write_text(f"0\n\n{bad}\n1\n")
    with pytest.raises(DataError, match=f"line 3: .*{bad!r}"):
        load_labels(p)


# label files at the edges of numpy's int64 parse; as for CSV, the line
# scanner's result (or its exact error) is the reference for each
LABEL_CASES = {
    "basic": b"0\n1\n2\n",
    "no_final_newline": b"0\n1",
    "crlf": b"0\r\n1\r\n",
    "cr_only": b"0\r1\r",
    "blank_lines": b"\n0\n\n1\n\n",
    "whitespace_only_lines": b"0\n \t\n\x0c\n1\n",
    "padded": b" 3 \n\t-1\t\n",
    "nbsp_padded": "\u00a03\n".encode(),
    "plus_sign": b"+3\n",
    "leading_zeros": b"007\n",
    "minus_zero": b"-0\n",
    "underscore": b"1_0\n",
    "fullwidth_digit": "\uff11\n".encode(),
    "integral_real": b"2.0\n",
    "exponent": b"1e2\n",
    "fraction": b"1.5\n",
    "inf": b"inf\n",
    "nan": b"nan\n",
    "hex": b"0x10\n",
    "int64_bounds": b"9223372036854775807\n-9223372036854775808\n",
    "beyond_int64": b"0\n9223372036854775808\n",
    "below_int64": b"-9223372036854775809\n",
    "two_columns": b"1 2\n3 4\n",
    "ragged": b"0\n1 2\n",
    "comma": b"1,2\n",
    "hash_comment": b"# labels\n0\n",
    "inline_comment": b"0 # a\n",
    "byte_order_mark": b"\xef\xbb\xbf1\n0\n",
    "empty": b"",
    "blank_only": b"\n \n",
    "nul": b"1\x00\n",
    "bad_utf8": b"1\n\xff\n",
}


@pytest.mark.parametrize("name", sorted(LABEL_CASES))
def test_label_edge_cases_match_line_scanner(tmp_path, name):
    p = tmp_path / f"{name}.txt"
    p.write_bytes(LABEL_CASES[name])
    got, want = _outcome(load_labels, p), _outcome(io._scan_labels, p)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.dtype == want.dtype == np.int64 and got.ndim == 1
        assert got.tolist() == want.tolist()


def test_labels_clean_input_skips_line_scanner(tmp_path, monkeypatch):
    def fail(path):
        raise AssertionError("line scanner ran on a clean file")

    monkeypatch.setattr(io, "_scan_labels", fail)
    p = tmp_path / "y.txt"
    p.write_text("0\n\n-1\n9223372036854775807\n")
    assert load_labels(p).tolist() == [0, -1, 2 ** 63 - 1]


def test_save_embeddings_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    emb = rng.standard_normal((6, 3))
    p = tmp_path / "emb.csv"
    save_embeddings(p, format_rows(emb))
    assert np.array_equal(load_dense_csv(p), emb)


def test_save_embeddings_empty(tmp_path):
    # no samples, or a rank-0 fit's zero-width embeddings, alone or side by
    # side: an empty file, not blank lines
    p = tmp_path / "emb.csv"
    for emb in (np.zeros((0, 3)), np.zeros((4, 0))):
        save_embeddings(p, format_rows(emb))
        assert p.read_text() == ""
        save_embeddings(p, format_rows(emb), format_rows(emb))
        assert p.read_text() == ""


def test_save_embeddings_side_by_side_is_the_concatenation(tmp_path):
    rng = np.random.default_rng(2)
    left = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-200, 200, size=(5, 3))
    right = rng.standard_normal((5, 2))
    p, q = tmp_path / "pair.csv", tmp_path / "whole.csv"
    save_embeddings(p, format_rows(left), format_rows(right))
    save_matrix_csv(q, np.hstack([left, right]))
    assert p.read_bytes() == q.read_bytes()


def test_report_round_trip_bit_exact(tmp_path):
    rows = [
        {"solver": "asymnys", "n_sub": 10, "m_sub": 8, "oversample": None,
         "eta": 0.12345678901234567, "seconds": 0.002, "seed": 3, "success": True},
        {"solver": "rsvd", "n_sub": None, "m_sub": None, "oversample": 5,
         "eta": 1e-300, "seconds": 1.5, "seed": 4, "success": False},
    ]
    p = tmp_path / "r.ldjson"
    save_report(p, rows)
    assert load_report(p) == rows


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_report_value_json_cannot_hold_is_a_data_error_and_writes_no_file(tmp_path, value):
    # every row is serialized before the file is opened: no partial report
    p = tmp_path / "r.ldjson"
    rows = [{"eta": 0.5}, {"eta": value}]
    assert _error_text(lambda path: save_report(path, rows), p).startswith(f"cannot write {p}: ")
    assert not p.exists()


def _error_text(load, path):
    with pytest.raises(DataError) as info:
        load(path)
    return str(info.value)


@pytest.mark.parametrize("text, message", [
    ("0\t1\n0 2\n", "line 2: expected 'src<TAB>dst', got '0 2'"),
    ("0\t1\t2\n", "line 1: expected 'src<TAB>dst', got '0\\t1\\t2'"),
    ("\n  \n0\tx\n", "line 3: non-integer node index in '0\\tx'"),
    ("1.5\t0\n", "line 1: non-integer node index in '1.5\\t0'"),
    ("", "empty edge list and no node-count header"),
    ("\n# a comment\n \n", "empty edge list and no node-count header"),
])
def test_edge_list_errors_name_file_and_line(tmp_path, text, message):
    p = tmp_path / "g.tsv"
    p.write_text(text)
    assert _error_text(load_edge_list, p) == f"{p}: {message}"


def test_edge_list_header_alone_is_an_edgeless_graph(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("# n=3\n")
    assert np.array_equal(load_edge_list(p), np.zeros((3, 3)))


@pytest.mark.parametrize("text, message", [
    ("0\n\nabc\n", "line 3: cannot parse label 'abc'"),
    ("0\n1 2\n", "line 2: cannot parse label '1 2'"),
    ("", "empty labels file"),
    ("\n \t\n", "empty labels file"),
])
def test_labels_errors_name_file_and_line(tmp_path, text, message):
    p = tmp_path / "y.txt"
    p.write_text(text)
    assert _error_text(load_labels, p) == f"{p}: {message}"


def test_byte_order_mark_is_accepted_by_every_loader(tmp_path):
    bom = "\ufeff"
    p = tmp_path / "m.csv"
    p.write_text(bom + "1,2\n3,4\n", encoding="utf-8")
    assert np.array_equal(load_dense_csv(p), [[1.0, 2.0], [3.0, 4.0]])
    p = tmp_path / "g.tsv"
    p.write_text(bom + "# n=3\n0\t1\n", encoding="utf-8")
    want = np.zeros((3, 3))
    want[0, 1] = 1.0
    assert np.array_equal(load_edge_list(p), want)
    p = tmp_path / "y.txt"
    p.write_text(bom + "1\n0\n", encoding="utf-8")
    assert load_labels(p).tolist() == [1, 0]
    p = tmp_path / "r.ldjson"
    p.write_text(bom + '{"a": 1}\n', encoding="utf-8")
    assert load_report(p) == [{"a": 1}]


@pytest.mark.parametrize("save", [
    lambda p: save_matrix_csv(p, np.eye(2)),
    lambda p: save_embeddings(p, format_rows(np.eye(2))),
    lambda p: save_report(p, [{"a": 1}]),
])
def test_unwritable_output_is_a_data_error_naming_it(tmp_path, save):
    p = tmp_path / "out"
    p.mkdir()
    assert _error_text(save, p).startswith(f"cannot write {p}: ")
