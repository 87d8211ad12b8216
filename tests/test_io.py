import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from aksvd.ksvd import Embeddings
from aksvd.errors import DataError
from aksvd.io import (
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


def test_labels(tmp_path):
    p = tmp_path / "y.txt"
    p.write_text("0\n1\n2\n1\n")
    assert np.array_equal(load_labels(p), [0, 1, 2, 1])


def test_save_embeddings_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    emb = Embeddings("left", rng.standard_normal((6, 3)))
    p = tmp_path / "emb.csv"
    save_embeddings(p, emb)
    assert np.array_equal(load_dense_csv(p), emb.values)


def test_save_embeddings_empty(tmp_path):
    emb = Embeddings("left", np.zeros((0, 3)))
    p = tmp_path / "emb.csv"
    save_embeddings(p, emb)
    assert p.read_text() == ""


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
