import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import aksvd
from aksvd import downstream, solvers
from aksvd.ksvd import fit_matrix
from aksvd.cli import build_parser, main
from aksvd.compat import STRATEGIES
from aksvd.io import load_dense_csv, load_report, save_matrix_csv
from aksvd.kernels import FAMILIES, KernelSpec
from aksvd.solvers import DEFAULT_BENCH_SOLVERS, SOLVERS


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    cfg_line = [l for l in out.strip().splitlines() if l.startswith("{")]
    return code, (json.loads(cfg_line[0]) if cfg_line else None)


def write_toy_graph(tmp_path):
    # 6 nodes, two directed triangles, one cross edge
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
    p = tmp_path / "graph.tsv"
    p.write_text("# n=6\n" + "".join(f"{s}\t{d}\n" for s, d in edges))
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n0\n0\n1\n1\n1\n")
    return p, labels


def test_embed_identity(tmp_path, capsys):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.eye(3))
    out = tmp_path / "run"
    code, cfg = run_cli(capsys, ["embed", "--input", str(inp), "--rank", "2",
                                 "--out", str(out)])
    assert code == 0
    assert cfg["kernel"] == "linear" and cfg["rank"] == 2
    left = load_dense_csv(str(out) + ".left.csv")
    assert left.shape == (3, 2)
    with open(str(out) + ".fit.json") as f:
        rep = json.load(f)
    assert rep["achieved_rank"] == 2
    assert rep["residual_r1"] <= 1e-10


def test_embed_matches_api(tmp_path, capsys):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 8))
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, A)
    out = tmp_path / "run"
    code, cfg = run_cli(capsys, ["embed", "--input", str(inp), "--kernel", "rbf",
                                 "--gamma", "2.0", "--rank", "3", "--out", str(out)])
    assert code == 0
    model = fit_matrix(load_dense_csv(inp), KernelSpec.rbf(2.0), 3)
    left = load_dense_csv(str(out) + ".left.csv")
    assert np.array_equal(left, model.b_phi)


def _per_value_csv(values):
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in values)


def test_embed_output_bytes(tmp_path, capsys):
    # each file is the per-value formatter of its factors, and a concat
    # line is the left line, a comma and the right line
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 8))
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, A)
    out = str(tmp_path / "run")
    code, _ = run_cli(capsys, ["embed", "--input", str(inp), "--kernel", "rbf",
                               "--gamma", "2.0", "--rank", "3", "--out", out])
    assert code == 0
    model = fit_matrix(load_dense_csv(inp), KernelSpec.rbf(2.0), 3)
    left, right, concat = (Path(out + s).read_text() for s in (".left.csv", ".right.csv",
                                                              ".concat.csv"))
    assert left == _per_value_csv(model.b_phi)
    assert right == _per_value_csv(model.b_psi)
    assert concat == _per_value_csv(np.hstack([model.b_phi, model.b_psi]))
    assert concat.splitlines() == [a + "," + b for a, b in zip(left.splitlines(),
                                                              right.splitlines())]


def test_rectangular_embed_writes_no_concat(tmp_path, capsys):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.random.default_rng(1).standard_normal((7, 4)))
    out = str(tmp_path / "run")
    code, _ = run_cli(capsys, ["embed", "--input", str(inp), "--compat", "a1",
                               "--rank", "2", "--out", out])
    assert code == 0
    assert load_dense_csv(out + ".left.csv").shape == (7, 2)
    assert load_dense_csv(out + ".right.csv").shape == (4, 2)
    assert not os.path.exists(out + ".concat.csv")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # no positive singular value
def test_rank_zero_embed_writes_empty_embeddings(tmp_path, capsys):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.zeros((4, 4)))
    out = str(tmp_path / "run")
    code, _ = run_cli(capsys, ["embed", "--input", str(inp), "--rank", "2", "--out", out])
    assert code == 0
    assert load_report(out + ".fit.json")[0]["achieved_rank"] == 0
    for suffix in (".left.csv", ".right.csv", ".concat.csv"):
        assert Path(out + suffix).read_bytes() == b""


def test_embed_deterministic_same_seed(tmp_path, capsys):
    rng = np.random.default_rng(1)
    A = rng.standard_normal((10, 10))
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, A)
    out = tmp_path / "run"
    argv = ["embed", "--input", str(inp), "--kernel", "sne", "--rank", "2",
            "--solver", "asymnys", "--nsub", "6", "--msub", "6",
            "--seed", "7", "--out", str(out)]
    files = (str(out) + ".left.csv", str(out) + ".fit.json")
    assert run_cli(capsys, argv)[0] == 0
    first = [open(f, "rb").read() for f in files]
    assert run_cli(capsys, argv)[0] == 0
    second = [open(f, "rb").read() for f in files]
    assert first == second


def test_config_echo_reproduces_bit_identical(tmp_path, capsys):
    rng = np.random.default_rng(2)
    A = rng.standard_normal((9, 9))
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, A)
    out = tmp_path / "run"
    code, cfg = run_cli(capsys, ["embed", "--input", str(inp), "--kernel", "rbf",
                                 "--gamma", "auto", "--rank", "2", "--center",
                                 "--seed", "3", "--out", str(out)])
    assert code == 0
    assert isinstance(cfg["gamma"], float)  # echoed config carries resolved gamma
    files = [str(out) + s for s in (".left.csv", ".right.csv", ".concat.csv", ".fit.json")]
    first = [open(f, "rb").read() for f in files]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code2, cfg2 = run_cli(capsys, ["--config", str(cfg_path)])
    assert code2 == 0
    assert cfg2 == cfg
    second = [open(f, "rb").read() for f in files]
    assert first == second


def test_partial_config_merges_over_defaults(tmp_path, capsys):
    graph, _ = write_toy_graph(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "partial"
    cfg_path.write_text(json.dumps({"subcommand": "embed", "input": str(graph),
                                    "format": "edges", "out": str(out)}))
    code, cfg = run_cli(capsys, ["--config", str(cfg_path)])
    assert code == 0
    assert cfg["rank"] == 2 and cfg["kernel"] == "linear" and cfg["solver"] == "dense"
    via_flags = tmp_path / "flags"
    code, _ = run_cli(capsys, ["embed", "--input", str(graph), "--format", "edges",
                               "--out", str(via_flags)])
    assert code == 0
    assert np.array_equal(load_dense_csv(str(out) + ".left.csv"),
                          load_dense_csv(str(via_flags) + ".left.csv"))


@pytest.mark.parametrize("cfg", [
    {"subcommand": "embed", "input": "g.tsv"},                       # no out
    {"subcommand": "embed", "out": "run"},                           # no input
    {"subcommand": "graph", "input": "g.tsv", "out": "run"},         # no labels
    {"subcommand": "embed", "input": "g.tsv", "out": "run", "rnak": 2},
    {"subcommand": "embed", "input": "g.tsv", "out": "run", "rank": "2"},
    {"subcommand": "embed", "input": "g.tsv", "out": "run", "center": 1},
    {"subcommand": "embed", "input": "g.tsv", "out": "run", "kernel": "cosine"},
    {"subcommand": "bicluster", "input": "g.tsv", "out": "run", "compat": "a3"},
    {"subcommand": "fit", "input": "g.tsv", "out": "run"},
    {"subcommand": "bench", "input": "g.csv", "out": "run", "center": False},  # not a bench key
    ["embed"],
    {"subcommand": "embed", "input": "g.tsv", "out": "run", "rank": True},
])
def test_invalid_config_is_usage_error(tmp_path, capsys, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path)]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, extra", [
    ("embed", "input", {}),
    ("embed", "out", {}),
    ("graph", "labels", {"labels": "y.txt"}),
])
def test_null_for_a_required_config_key_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                         command, key, extra):
    # only an optional option takes null: a required one has no value then
    monkeypatch.chdir(tmp_path)
    save_matrix_csv("a.csv", np.eye(4))
    (tmp_path / "y.txt").write_text("0\n0\n1\n1\n")
    cfg = {"subcommand": command, "input": "a.csv", "out": "ex", **extra, key: None}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    before = sorted(os.listdir(tmp_path))
    assert main(["--config", "cfg.json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: config file cfg.json: invalid value None for {key!r}\n"
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == before


def test_optional_config_keys_take_null(tmp_path, capsys):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.eye(4))
    cfg = {"subcommand": "bicluster", "input": str(inp), "out": str(tmp_path / "b"),
           "labels": None, "nsub": None, "msub": None, "compat": None}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["--config", str(tmp_path / "cfg.json")]) == 0
    assert (tmp_path / "b.metrics.json").exists()


@pytest.mark.parametrize("subcommand", [["embed"], {"embed": True}], ids=["list", "dict"])
def test_unhashable_config_subcommand_is_a_usage_error(tmp_path, capsys, subcommand):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"subcommand": subcommand, "input": "x", "out": "y"}))
    assert main(["--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: config file {cfg_path} lacks a valid subcommand\n"
    assert captured.out == ""


def test_config_with_byte_order_mark_loads(tmp_path, capsys):
    graph, _ = write_toy_graph(tmp_path)
    cfg = {"subcommand": "embed", "input": str(graph), "format": "edges",
           "out": str(tmp_path / "bom")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes("\ufeff".encode() + json.dumps(cfg, indent=2).encode())
    code, echoed = run_cli(capsys, ["--config", str(cfg_path)])
    assert code == 0
    assert {k: echoed[k] for k in cfg} == cfg
    assert load_dense_csv(str(tmp_path / "bom") + ".left.csv").shape == (6, 2)


@pytest.mark.parametrize("content", [None, "{\"subcommand\": ", b"\xff\xfe{}"],
                         ids=["directory", "malformed", "not-utf8"])
def test_unreadable_config_is_a_data_error_naming_it(tmp_path, capsys, content):
    cfg_path = tmp_path / "cfg.json"
    if content is None:
        cfg_path.mkdir()
    elif isinstance(content, bytes):
        cfg_path.write_bytes(content)
    else:
        cfg_path.write_text(content)
    assert main(["--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"data error: cannot read config file {cfg_path}: ")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["embed", "bicluster"])
def test_rectangular_fit_without_compat_is_a_data_error(tmp_path, capsys, command):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.random.default_rng(3).standard_normal((7, 4)))
    out = tmp_path / "run"
    assert main([command, "--input", str(inp), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "7x4 input" in captured.err and "--compat a0|a1|a2" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [inp]


def test_compat_a3_rejected(tmp_path, capsys):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.arange(12.0).reshape(4, 3))
    out = tmp_path / "b"
    code = main(["bicluster", "--input", str(inp), "--compat", "a3", "--out", str(out)])
    assert code == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "b.left.csv").exists()


def test_graph_command(tmp_path, capsys):
    gpath, lpath = write_toy_graph(tmp_path)
    out = tmp_path / "g"
    code, cfg = run_cli(capsys, ["graph", "--input", str(gpath), "--format", "edges",
                                 "--labels", str(lpath), "--kernel", "sne",
                                 "--gamma", "auto", "--rank", "2", "--out", str(out)])
    assert code == 0
    rows = load_report(str(out) + ".metrics.json")
    names = {(r["task"], r["metric_name"]) for r in rows}
    assert ("node_classification", "micro_f1") in names
    assert ("node_classification", "macro_f1") in names
    assert ("graph_reconstruction", "l1") in names
    assert ("graph_reconstruction", "l2") in names
    for r in rows:
        assert set(r) == {"task", "metric_name", "value", "seed", "config_hash"}


@pytest.mark.parametrize("bad", ["inf", "1.5"])
def test_graph_bad_label_is_a_data_error(tmp_path, capsys, bad):
    gpath, lpath = write_toy_graph(tmp_path)
    lpath.write_text(f"0\n0\n{bad}\n1\n1\n1\n")
    code = main(["graph", "--input", str(gpath), "--format", "edges", "--labels", str(lpath),
                 "--kernel", "rbf", "--gamma", "1.0", "--rank", "2",
                 "--out", str(tmp_path / "g")])
    assert code == 2
    assert "line 3" in capsys.readouterr().err
    assert not (tmp_path / "g.metrics.json").exists()


def test_graph_single_class_labels_are_a_data_error_before_any_output(tmp_path, capsys):
    gpath, lpath = tmp_path / "g.tsv", tmp_path / "y.txt"
    gpath.write_text("0\t1\n1\t0\n")
    lpath.write_text("0\n0\n")
    code = main(["graph", "--input", str(gpath), "--format", "edges", "--labels", str(lpath),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    captured = capsys.readouterr()
    assert "labels of at least 2 classes" in captured.err
    assert captured.out == ""
    assert not list(tmp_path.glob("run.*"))


def test_graph_self_loop_is_left_out_of_the_reconstruction(tmp_path, capsys, monkeypatch):
    # node 0 points to itself and to every other node: its reconstruction
    # degree is 2, not 3 > N - 1, and no node is given a self-loop
    gpath, lpath = tmp_path / "g.tsv", tmp_path / "y.txt"
    gpath.write_text("0\t0\n0\t1\n0\t2\n1\t2\n2\t0\n1\t0\n")
    lpath.write_text("0\n1\n1\n")
    rebuilt = []
    real = downstream.graph_reconstruct
    monkeypatch.setattr(downstream, "graph_reconstruct",
                        lambda *args: rebuilt.append(real(*args)) or rebuilt[-1])
    code, _ = run_cli(capsys, ["graph", "--input", str(gpath), "--format", "edges",
                               "--labels", str(lpath), "--out", str(tmp_path / "run")])
    assert code == 0
    for suffix in (".left.csv", ".right.csv", ".concat.csv", ".fit.json", ".metrics.json"):
        assert (tmp_path / ("run" + suffix)).is_file()
    (A_hat,) = rebuilt
    assert not A_hat.diagonal().any()
    assert A_hat.sum(axis=1).tolist() == [2.0, 2.0, 1.0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # constant gram loses rank
def test_graph_zero_edge_reconstruction(tmp_path, capsys):
    # zero out-degrees reconstruct the empty graph exactly
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.zeros((4, 4)))
    labels = tmp_path / "y.txt"
    labels.write_text("0\n0\n1\n1\n")
    out = tmp_path / "g"
    code, _ = run_cli(capsys, ["graph", "--input", str(inp), "--labels", str(labels),
                               "--kernel", "rbf", "--gamma", "1.0", "--rank", "2",
                               "--out", str(out)])
    assert code == 0
    rows = load_report(str(out) + ".metrics.json")
    l1 = [r["value"] for r in rows if r["metric_name"] == "l1"][0]
    assert l1 == 0.0


def test_graph_rank_zero_fit_is_a_numerical_error(tmp_path, capsys):
    # an all-zero linear Gram has no positive singular value: nothing to
    # embed, so no output file is written
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.zeros((6, 6)))
    labels = tmp_path / "y.txt"
    labels.write_text("0\n0\n0\n1\n1\n1\n")
    with pytest.warns(RuntimeWarning, match="only 0 positive"):
        code = main(["graph", "--input", str(inp), "--labels", str(labels),
                     "--kernel", "linear", "--rank", "2", "--out", str(tmp_path / "g")])
    assert code == 3
    assert "rank 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("g.*"))


@pytest.mark.parametrize("adjacency, where", [
    (np.random.default_rng(9).standard_normal((25, 25)), "row 0, column 0"),
    (0.5 * (np.eye(8, k=1) + np.eye(8, k=3)), "row 0, column 1"),   # weighted 0/0.5
])
def test_graph_rejects_non_binary_adjacency(tmp_path, capsys, adjacency, where):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, adjacency)
    labels = tmp_path / "y.txt"
    labels.write_text("".join(f"{i % 2}\n" for i in range(len(adjacency))))
    code = main(["graph", "--input", str(inp), "--labels", str(labels),
                 "--kernel", "rbf", "--gamma", "1.0", "--rank", "2",
                 "--out", str(tmp_path / "g")])
    assert code == 2
    err = capsys.readouterr().err
    assert "binary" in err and where in err
    assert not list(tmp_path.glob("g.*"))


def test_bicluster_command(tmp_path, capsys):
    rng = np.random.default_rng(3)
    blocks = []
    for shift, scale in ((0, 2.0), (1, 2.5), (2, 3.0)):
        B = np.zeros((8, 6))
        B[:, :] = 0.02 * rng.standard_normal((8, 6))
        B[:, shift * 2: shift * 2 + 2] += scale
        blocks.append(B)
    A = np.vstack(blocks)
    inp = tmp_path / "dt.csv"
    save_matrix_csv(inp, A)
    labels = tmp_path / "y.txt"
    labels.write_text("".join(f"{i // 8}\n" for i in range(24)))
    out = tmp_path / "b"
    code, _ = run_cli(capsys, ["bicluster", "--input", str(inp), "--labels", str(labels),
                               "--kernel", "sne", "--gamma", "auto", "--rank", "3",
                               "--compat", "a1", "--k-rows", "3", "--k-cols", "3",
                               "--out", str(out)])
    assert code == 0
    rows = load_report(str(out) + ".metrics.json")
    by_name = {r["metric_name"]: r["value"] for r in rows}
    assert by_name["row_nmi"] == pytest.approx(1.0)
    assert "coherence" in by_name


def test_bicluster_checks_labels_before_fitting(tmp_path, capsys):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.random.default_rng(5).standard_normal((6, 4)))
    labels = tmp_path / "y.txt"
    labels.write_text("0\n1\n0\n")
    out = tmp_path / "b"
    code = main(["bicluster", "--input", str(inp), "--labels", str(labels),
                 "--compat", "a1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "labels length 3 != 6 rows" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "b.left.csv").exists()
    assert not (tmp_path / "b.fit.json").exists()


def test_bicluster_rank_zero_fit_is_a_numerical_error(tmp_path, capsys):
    # as for graph: an all-zero linear Gram leaves nothing to cluster
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.zeros((6, 6)))
    with pytest.warns(RuntimeWarning, match="only 0 positive"):
        code = main(["bicluster", "--input", str(inp), "--kernel", "linear",
                     "--out", str(tmp_path / "r0")])
    assert code == 3
    assert "bicluster fit achieved rank 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("r0.*"))


@pytest.mark.parametrize("flag, value, message", [
    ("--k-rows", "0", "--k-rows must lie in [1, 12] for 12 rows, got 0"),
    ("--k-rows", "13", "--k-rows must lie in [1, 12] for 12 rows, got 13"),
    ("--k-cols", "0", "--k-cols must lie in [1, 9] for 9 columns, got 0"),
    ("--k-cols", "10", "--k-cols must lie in [1, 9] for 9 columns, got 10"),
])
def test_bicluster_checks_cluster_counts_before_fitting(tmp_path, capsys, flag, value, message):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.random.default_rng(5).standard_normal((12, 9)))
    code = main(["bicluster", "--input", str(inp), "--compat", "a1", flag, value,
                 "--out", str(tmp_path / "b")])
    captured = capsys.readouterr()
    assert code == 2
    assert f"data error: {message}" in captured.err
    assert captured.out == ""
    assert not list(tmp_path.glob("b.*"))


def test_bicluster_cluster_counts_may_reach_each_side(tmp_path, capsys):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.random.default_rng(5).standard_normal((12, 9)))
    code, _ = run_cli(capsys, ["bicluster", "--input", str(inp), "--compat", "a1",
                               "--k-rows", "12", "--k-cols", "9", "--out", str(tmp_path / "b")])
    assert code == 0
    assert (tmp_path / "b.metrics.json").exists()

def test_infinite_gamma_is_a_data_error(tmp_path, capsys):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.eye(4))
    out = tmp_path / "e"
    code = main(["embed", "--input", str(inp), "--kernel", "rbf", "--gamma", "inf",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "finite gamma" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "e.left.csv").exists()


@pytest.mark.parametrize("flags, code, message", [
    (["--degree", "2000"], 3, "numerical failure: poly kernel values are not finite"),
    (["--offset", "inf"], 2, "data error: poly kernel requires a finite offset, got inf"),
    (["--offset", "nan"], 2, "data error: poly kernel requires a finite offset, got nan"),
], ids=["overflow", "inf-offset", "nan-offset"])
@pytest.mark.parametrize("solver", ["dense", "asymnys"])
def test_non_finite_poly_kernel_fails_and_writes_nothing(tmp_path, capsys, solver, flags,
                                                         code, message):
    # once a rank-0 fit with exit 0 and empty embedding files
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.eye(2))
    assert main(["embed", "--input", str(inp), "--kernel", "poly", *flags, "--rank", "1",
                 "--solver", solver, "--out", str(tmp_path / "run")]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [inp]


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
@pytest.mark.parametrize("source", ["argv", "config"])
def test_malformed_gamma_is_a_usage_error_naming_it(tmp_path, capsys, kernel, source):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.eye(4))
    out = tmp_path / "e"
    if source == "argv":
        argv = ["embed", "--input", str(inp), "--kernel", kernel, "--gamma", "abc",
                "--out", str(out)]
        named = "argument --gamma: expected a real number or 'auto', got 'abc'"
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"subcommand": "embed", "input": str(inp),
                                        "kernel": kernel, "gamma": "abc", "out": str(out)}))
        argv = ["--config", str(cfg_path)]
        named = "invalid value 'abc' for 'gamma'"
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ") and named in captured.err
    assert captured.out == ""
    assert not list(tmp_path.glob("e.*"))


@pytest.mark.parametrize("value", ["-1e3", "-1E-2", "-.5e1"])
def test_negative_real_in_exponent_form_is_a_value(tmp_path, capsys, value):
    # argparse alone takes such a token for an option and refuses it
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.eye(2) + 1.0)
    code, cfg = run_cli(capsys, ["embed", "--input", str(inp), "--kernel", "poly",
                                 "--offset", value, "--rank", "1", "--out", str(tmp_path / "e")])
    assert code == 0 and cfg["offset"] == float(value)
    assert (tmp_path / "e.fit.json").exists()


@pytest.mark.parametrize("flags, code, message", [
    (["--kernel", "rbf", "--gamma", "-1e3"], 2,
     "data error: rbf kernel requires a finite gamma > 0, got -1000.0\n"),
    (["--center", "-1e3"], 1,
     "usage error: argument --center: ignored explicit argument '-1e3'\n"),
], ids=["gamma", "flag"])
def test_negative_real_in_exponent_form_is_checked_as_a_value(tmp_path, capsys, flags, code,
                                                              message):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.eye(2))
    assert main(["embed", "--input", str(inp), *flags, "--out", str(tmp_path / "e")]) == code
    captured = capsys.readouterr()
    assert captured.err == message and captured.out == ""
    assert list(tmp_path.iterdir()) == [inp]


@pytest.mark.parametrize("subcommand", ["embed", "graph", "bicluster", "bench"])
@pytest.mark.parametrize("source", ["argv", "config"])
def test_negative_seed_is_a_usage_error_before_any_output(tmp_path, capsys, subcommand,
                                                          source):
    # numpy refuses a negative seed late (bicluster after its files are
    # written), and the dense solver never reads it
    edges, labels = write_toy_graph(tmp_path)
    opts = {"input": str(edges), "format": "edges", "seed": -1, "out": str(tmp_path / "run")}
    if subcommand == "graph":
        opts["labels"] = str(labels)
    if source == "argv":
        argv = [subcommand] + [t for key, v in opts.items() for t in (f"--{key}", str(v))]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"subcommand": subcommand, **opts}))
        argv = ["--config", str(cfg_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "usage error: --seed must be a non-negative integer, got -1\n"
    assert captured.out == ""
    assert not list(tmp_path.glob("run*"))


@pytest.mark.parametrize("gamma", ["auto", 2, 0.5, None])
def test_config_gamma_takes_auto_a_number_or_null(tmp_path, capsys, gamma):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.random.default_rng(2).standard_normal((5, 5)))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"subcommand": "embed", "input": str(inp), "gamma": gamma,
                                    "out": str(tmp_path / "e")}))
    code, cfg = run_cli(capsys, ["--config", str(cfg_path)])
    assert code == 0 and cfg["gamma"] is None   # the linear kernel reads no bandwidth


def test_bench_command(tmp_path, capsys):
    rng = np.random.default_rng(4)
    u, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    v, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    G = (u * 0.5 ** np.arange(30)) @ v.T
    inp = tmp_path / "g.csv"
    save_matrix_csv(inp, G)
    out = tmp_path / "bench"
    code, _ = run_cli(capsys, ["bench", "--input", str(inp), "--rank", "3",
                               "--eps", "1e300", "--solvers", "tsvd,rsvd,asymnys",
                               "--m-schedule", "5,10,30", "--out", str(out)])
    assert code == 0
    trials = load_report(str(out) + ".bench.ldjson")
    assert all(t["success"] for t in trials)
    assert len(trials) == 3  # an eps no trial misses: one trial per solver
    with open(str(out) + ".bench_summary.json") as f:
        summary = json.load(f)["summary"]
    assert set(summary) == {"tsvd", "rsvd", "asymnys"}


def test_bench_takes_a_rectangular_matrix_as_itself(tmp_path, capsys):
    # under --kernel linear --format csv the CSV is G, of any shape
    rng = np.random.default_rng(4)
    u, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    v, _ = np.linalg.qr(rng.standard_normal((40, 30)))
    inp = tmp_path / "g.csv"
    save_matrix_csv(inp, (u * 0.5 ** np.arange(30)) @ v.T)
    out = tmp_path / "bench"
    code, _ = run_cli(capsys, ["bench", "--input", str(inp), "--rank", "3", "--out", str(out)])
    assert code == 0
    summary = load_report(str(out) + ".bench_summary.json")[0]["summary"]
    assert set(summary) == set(DEFAULT_BENCH_SOLVERS)
    assert summary["asymnys"]["success"]


def test_bench_rejects_a_rectangular_input_to_a_kernel(tmp_path, capsys):
    inp = tmp_path / "g.csv"
    save_matrix_csv(inp, np.random.default_rng(4).standard_normal((6, 8)))
    out = tmp_path / "bench"
    assert main(["bench", "--input", str(inp), "--kernel", "poly", "--rank", "2",
                 "--out", str(out)]) == 2
    assert "requires a square matrix" in capsys.readouterr().err
    assert not (tmp_path / "bench.bench.ldjson").exists()


def test_bench_rerun_reproduces_nontiming_fields(tmp_path, capsys):
    rng = np.random.default_rng(5)
    G = rng.standard_normal((20, 20))
    inp = tmp_path / "g.csv"
    save_matrix_csv(inp, G)
    results = []
    for name in ("b1", "b2"):
        out = tmp_path / name
        code, _ = run_cli(capsys, ["bench", "--input", str(inp), "--rank", "2",
                                   "--eps", "0.5", "--solvers", "rsvd,asymnys",
                                   "--m-schedule", "5,10,20", "--seed", "9",
                                   "--out", str(out)])
        assert code == 0
        trials = load_report(str(out) + ".bench.ldjson")
        results.append([{k: v for k, v in t.items() if k != "seconds"} for t in trials])
    assert results[0] == results[1]



@pytest.mark.parametrize("fmt, kernel", [("edges", "linear"), ("csv", "poly")])
def test_bench_runs_on_the_scaled_gram_of_its_input(tmp_path, capsys, fmt, kernel):
    # only a dense CSV under the linear kernel is taken as the matrix itself;
    # an edge list, or any other kernel, is benchmarked on its Gram matrix
    rng = np.random.default_rng(7)
    A = (rng.random((12, 12)) < 0.4).astype(float)
    if fmt == "edges":
        inp = tmp_path / "g.tsv"
        inp.write_text("# n=12\n" + "".join(f"{s}\t{d}\n" for s, d in zip(*np.nonzero(A))))
        G = A @ A / 12
    else:
        A = rng.standard_normal((12, 12))
        inp = tmp_path / "a.csv"
        save_matrix_csv(inp, A)
        G = (A @ A + 1.0) ** 2 / 12
    out = tmp_path / "b"
    code, _ = run_cli(capsys, ["bench", "--input", str(inp), "--format", fmt,
                               "--kernel", kernel, "--rank", "2", "--eps", "0",
                               "--solvers", "tsvd,asymnys", "--m-schedule", "4,12",
                               "--out", str(out)])
    assert code == 0
    want = solvers.bench(G, 2, 0.0, solvers=("tsvd", "asymnys"), m_schedule=(4, 12))
    got = load_report(str(out) + ".bench.ldjson")
    assert [(t["solver"], t["n_sub"], t["m_sub"]) for t in got] == \
        [(t.solver, t.n_sub, t.m_sub) for t in want.trials]
    assert [t["eta"] for t in got] == pytest.approx([t.eta for t in want.trials],
                                                    rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("solver, rank, nsub, msub", [
    ("asymnys", 2, 6, 3),    # a quarter of each side of the 24 x 12 input
    ("asymnys", 4, 6, 4),    # never below the rank
    ("symnys", 2, 6, None),  # symnys samples no columns
])
def test_unset_nystrom_subsamples_are_echoed(tmp_path, capsys, solver, rank, nsub, msub):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.random.default_rng(0).standard_normal((24, 12)))
    code, cfg = run_cli(capsys, ["embed", "--input", str(inp), "--compat", "a1",
                                 "--solver", solver, "--rank", str(rank),
                                 "--out", str(tmp_path / "x")])
    assert code == 0
    assert (cfg["nsub"], cfg["msub"]) == (nsub, msub)


def test_unset_symnys_subsample_fits_the_column_count(tmp_path, capsys):
    # symnys draws its one count from rows and columns alike, and a quarter
    # of 60 rows is more than the 12 columns: the default is 12, not a
    # count that the solver would refuse
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.random.default_rng(0).standard_normal((60, 12)))
    code, cfg = run_cli(capsys, ["embed", "--input", str(inp), "--compat", "a1",
                                 "--solver", "symnys", "--rank", "2",
                                 "--out", str(tmp_path / "x")])
    assert code == 0
    assert cfg["nsub"] == 12


@pytest.mark.parametrize("flags", [
    ["--m-schedule", "5,x"],
    ["--m-schedule", "0,10"],
    ["--m-schedule", "-3"],
    ["--solvers", "tsvd,lanczos"],
    ["--eps", "nan"],   # an epsilon that no trial can meet
    ["--eps", "-1"],
    ["--solvers", ","],   # names no solver
    ["--solvers", "tsvd,tsvd"],   # the summary would keep only the second run
    ["--power", "-1"],   # refused before the reference SVD, as every plan rule is
    # a later --input replaces the first: the plan fails before any file is read
    ["--input", "no-such-dir/g.csv", "--power", "-1"],
])
def test_bad_bench_plan_is_usage_error(tmp_path, capsys, flags):
    inp = tmp_path / "g.csv"
    save_matrix_csv(inp, np.eye(6))
    out = tmp_path / "bench"
    assert main(["bench", "--input", str(inp), "--rank", "2", "--out", str(out)] + flags) == 1
    captured = capsys.readouterr()
    assert "usage error" in captured.err
    assert captured.out == ""  # rejected before the configuration is echoed
    assert not (tmp_path / "bench.bench.ldjson").exists()


@pytest.mark.parametrize("flags", [
    ["--center"],
    ["--solver", "rsvd"],
    ["--nsub", "999"],
    ["--msub", "5"],
    ["--oversample", "3"],
    ["--tol", "5"],
    ["--compat", "a0"],
])
def test_bench_rejects_options_it_does_not_read(tmp_path, capsys, flags):
    inp = tmp_path / "g.csv"
    save_matrix_csv(inp, np.eye(6))
    out = tmp_path / "bench"
    assert main(["bench", "--input", str(inp), "--rank", "2", "--out", str(out)] + flags) == 1
    captured = capsys.readouterr()
    assert "usage error" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "bench.bench.ldjson").exists()


def test_solver_names_come_from_the_registry():
    parsers = build_parser().commands
    embed = {a.dest: a for a in parsers["embed"]._actions}
    assert tuple(embed["solver"].choices) == tuple(SOLVERS)
    bench = {a.dest: a for a in parsers["bench"]._actions}
    assert bench["solvers"].default.split(",") == list(DEFAULT_BENCH_SOLVERS)


def test_compat_names_come_from_compat():
    embed = {a.dest: a for a in build_parser().commands["embed"]._actions}
    assert tuple(embed["compat"].choices) == tuple(STRATEGIES)


def test_kernel_names_come_from_kernels():
    parsers = build_parser().commands
    for command in ("embed", "bench"):
        actions = {a.dest: a for a in parsers[command]._actions}
        assert tuple(actions["kernel"].choices) == FAMILIES


@pytest.mark.parametrize("argv, message", [
    (["bench", "--rank", "-1", "--solvers", "asymnys"], "rank -1 out of range"),
    (["embed", "--solver", "rsvd", "--rank", "3", "--oversample", "-1"], "nonnegative"),
    # one count samples both sides: never capped by the side it exceeds
    (["embed", "--solver", "symnys", "--nsub", "100"], "subsample size 100 out of range [1, 10]"),
])
def test_out_of_range_solver_settings_are_data_errors(tmp_path, capsys, argv, message):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.random.default_rng(6).standard_normal((10, 10)))
    assert main(argv + ["--input", str(inp), "--out", str(tmp_path / "x")]) == 2
    assert message in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main([]) == 1
    assert main(["embed"]) == 1  # missing required flags
    capsys.readouterr()


def test_data_error_exit_code(tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["embed", "--input", str(tmp_path / "missing.csv"),
                 "--rank", "2", "--out", str(out)])
    assert code == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,nope\n")
    assert main(["embed", "--input", str(bad), "--rank", "1", "--out", str(out)]) == 2
    capsys.readouterr()


def test_numerical_error_exit_code(tmp_path, capsys):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.vstack([np.zeros((1, 2)), np.full((1, 2), 1000.0)]))
    out = tmp_path / "x"
    code = main(["embed", "--input", str(inp), "--kernel", "sne",
                 "--gamma", "0.001", "--rank", "1", "--out", str(out)])
    assert code == 3
    capsys.readouterr()


def test_out_of_memory_is_a_data_error(tmp_path, capsys, monkeypatch):
    # an edge list whose "# n=" header asks for more memory than there is;
    # the loader is replaced, so nothing that large is allocated
    def too_large(path):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(1000000, 1000000) and data type float64")

    inp = tmp_path / "g.tsv"
    inp.write_text("# n=1000000\n0\t1\n")
    monkeypatch.setattr(aksvd.io, "load_edge_list", too_large)
    assert main(["embed", "--input", str(inp), "--format", "edges",
                 "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("data error: out of memory: Unable to allocate 7.28 TiB for an "
                            "array with shape (1000000, 1000000) and data type float64\n")
    assert captured.out == ""


def test_graph_rejects_a_non_square_csv(tmp_path, capsys):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.zeros((3, 4)))
    labels = tmp_path / "y.txt"
    labels.write_text("0\n1\n0\n")
    assert main(["graph", "--input", str(inp), "--labels", str(labels),
                 "--out", str(tmp_path / "g")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "data error: graph command requires a square adjacency matrix\n"
    assert captured.out == ""


def test_linalg_error_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # np.linalg.LinAlgError subclasses ValueError, the data-error type
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.random.default_rng(0).standard_normal((6, 6)))
    monkeypatch.setattr(np.linalg, "svd", fail)
    assert main(["embed", "--input", str(inp), "--rank", "2", "--out", str(tmp_path / "x")]) == 3
    assert "numerical failure: SVD did not converge" in capsys.readouterr().err


def test_undersized_asymnys_sample_is_a_numerical_failure(tmp_path, capsys):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.random.default_rng(0).standard_normal((8, 8)))
    assert main(["embed", "--input", str(inp), "--solver", "asymnys", "--nsub", "2",
                 "--msub", "2", "--rank", "3", "--out", str(tmp_path / "x")]) == 3
    assert "increase the subsample" in capsys.readouterr().err


def test_bench_rejects_non_finite_csv(tmp_path, capsys):
    inp = tmp_path / "a.csv"
    inp.write_text("1,2,3\n4,nan,6\n7,8,9\n")
    assert main(["bench", "--input", str(inp), "--rank", "1", "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert "data error: A contains non-finite values" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, path", [
    (["embed", "--rank", "2"], "x.fit.json"),
    (["bench", "--rank", "1"], "x.bench_summary.json"),
])
def test_unwritable_json_report_is_a_data_error(tmp_path, capsys, argv, path):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.eye(4))
    (tmp_path / path).mkdir()   # a directory in the report's place
    assert main(argv + ["--input", str(inp), "--out", str(tmp_path / "x")]) == 2
    assert f"data error: cannot write {tmp_path / path}" in capsys.readouterr().err


def test_unwritable_embedding_is_a_data_error(tmp_path, capsys):
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.eye(4))
    (tmp_path / "x.left.csv").mkdir()   # a directory in the embedding's place
    assert main(["embed", "--rank", "2", "--input", str(inp), "--out", str(tmp_path / "x")]) == 2
    assert f"data error: cannot write {tmp_path / 'x.left.csv'}" in capsys.readouterr().err


def test_main_restores_the_warning_format(tmp_path, capsys):
    formatwarning = warnings.formatwarning
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, np.zeros((4, 4)))
    with pytest.warns(RuntimeWarning, match="only 0 positive"):
        assert main(["embed", "--input", str(inp), "--out", str(tmp_path / "z")]) == 0
    assert warnings.formatwarning is formatwarning
