"""The command line across a process boundary: one case per check.

Each case runs one ``aksvd`` command in a fresh directory that holds only
the input files it names, then checks its exit code, the lines its stderr
must hold and the files that must or must not exist.  In-process tests of
``cli.main`` (tests/test_cli.py) cannot see what these see: the entry
point's ``sys.exit(main())``, real stdout and stderr, and files written
relative to a working directory.

The command is chosen once, from what this interpreter can observe: the
installed console script when an ``aksvd`` distribution is installed (a
missing script fails every case), else ``python -m aksvd.cli``.  Either
way the subprocess imports the same ``aksvd`` as this process, and the
command is reported on the terminal.
"""

from __future__ import annotations

import contextlib
import importlib.metadata
import json
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest

import aksvd
from aksvd.io import save_matrix_csv
from aksvd.kernels import FAMILIES
from aksvd.solvers import SOLVERS


def _command() -> list:
    try:
        importlib.metadata.distribution("aksvd")
    except importlib.metadata.PackageNotFoundError:
        return [sys.executable, "-m", "aksvd.cli"]
    scripts = sysconfig.get_path("scripts")
    script = shutil.which("aksvd", path=scripts)
    if script is None:
        pytest.fail(f"an aksvd distribution is installed, but {scripts} holds no aksvd script")
    return [script]


@pytest.fixture(scope="module")
def console(pytestconfig):
    """A function that runs the console command with the given argv in a
    directory and returns the finished process."""
    command = _command()
    plugins = pytestconfig.pluginmanager
    reporter, capture = plugins.get_plugin("terminalreporter"), plugins.get_plugin("capturemanager")
    if reporter is not None:   # past output capture, which holds a fixture's writes
        with capture.global_and_fixture_disabled() if capture else contextlib.nullcontext():
            reporter.write_line(f"console checks run: {shlex.join(command)}")
    src = str(Path(aksvd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(argv, cwd):
        return subprocess.run(command + argv, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=120)
    return run


def _text(text, encoding=None):
    return lambda path: path.write_text(text, encoding=encoding)


def _normal(seed, shape):
    return lambda path: np.savetxt(path, np.random.default_rng(seed).standard_normal(shape),
                                   delimiter=",", fmt="%.17g")


def _repeated_top(path):
    # U diag(1, 1, 1, 0.5, 0.25, ...) V': single-vector Lanczos finds two of
    # the three copies of 1 well within bench's Krylov budget for tsvd
    rng = np.random.default_rng(0)
    U, V = (np.linalg.qr(rng.standard_normal((120, 120)))[0] for _ in range(2))
    s = np.concatenate([[1.0, 1.0], 0.5 ** np.arange(118)])
    np.savetxt(path, (U * s) @ V.T, delimiter=",", fmt="%.17g")


def _graph40(path):
    A = np.random.default_rng(0).random((40, 40)) < 0.1
    np.fill_diagonal(A, False)
    path.write_text("# n=40\n" + "".join(f"{s}\t{d}\n" for s, d in zip(*np.nonzero(A))))


# every input a case may name, by file name: a function that writes it
INPUTS = {
    "g.tsv": _graph40,
    "y.txt": _text("".join(f"{i % 2}\n" for i in range(40))),
    "y3.txt": _text("0\n1\n0\n"),
    "inline.tsv": _text("# n=3\n0\t1 # note\n"),
    "space.tsv": _text("# n=3\n0\t1\n1 2\n"),
    "past.tsv": _text("# n=3\n0\t1\n2\t3\n"),
    "loop.tsv": _text("0\t0\n0\t1\n0\t2\n1\t2\n2\t0\n1\t0\n"),
    "yloop.txt": _text("0\n1\n1\n"),
    "zero.csv": _text("0,0,0,0,0,0\n" * 6),
    "rect.csv": _normal(0, (30, 40)),
    "e.csv": _text("1,0\n0,1\n"),
    "big.csv": _text("1e200,0\n0,1\n"),
    "repeated.csv": _repeated_top,
    "bom.json": _text('{"subcommand": "embed", "input": "e.csv", "out": "bom"}', "utf-8-sig"),
    "cfgdir": Path.mkdir,
    "list.json": _text('{"subcommand": ["embed"], "input": "x", "out": "y"}'),
    "eye2.csv": _text("1,0\n0,1\n"),
    "r20.csv": _normal(0, (20, 20)),
    "r24x12.csv": _normal(1, (24, 12)),
    "b.csv": _normal(2, (40, 25)),
    "r1.csv": lambda path: save_matrix_csv(path, np.outer([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])),
    "a.csv": lambda path: save_matrix_csv(path, np.random.default_rng(0).standard_normal((8, 8))),
}


class Case(NamedTuple):
    id: str
    argv: list
    code: int                          # the expected exit code
    inputs: tuple = ()                 # names in INPUTS
    stderr: tuple = ()                 # lines stderr must hold, each exactly
    stderr_lines: Optional[int] = None   # the number of lines stderr holds
    writes: tuple = ()                 # files that must exist
    writes_none: tuple = ()            # --out prefixes with no file at all
    check: Optional[Callable] = None   # a further check of (directory, stderr lines)


def _concat_joins_left_and_right(d, _):
    left, right, concat = ((d / f"run{s}").read_text().splitlines()
                           for s in (".left.csv", ".right.csv", ".concat.csv"))
    assert len(concat) == 40 and concat == [a + "," + b for a, b in zip(left, right)]


def _summary_lists_asymnys(d, _):
    assert "asymnys" in json.loads((d / "rb.bench_summary.json").read_text())["summary"]


def _fit_line_follows(_, err):
    assert err[1].startswith("fit in ")


def _no_warning_line(_, err):
    assert not [line for line in err if line.startswith("warning:")]


def _tsvd_solved_symnys_overflowed(d, err):
    _no_warning_line(d, err)
    summary = json.loads((d / "bo.bench_summary.json").read_text())["summary"]
    assert summary["tsvd"]["success"] and summary["symnys"]["eta"] is None


def _every_trial_failed_with_null_eta(d, _):
    # a sample smaller than --rank is a numerical failure: eta has no value
    trials = [json.loads(line) for line in (d / "inf.bench.ldjson").read_text().splitlines()]
    summary = json.loads((d / "inf.bench_summary.json").read_text())["summary"]
    assert len(trials) == 4 and set(summary) == {"asymnys", "symnys"}
    assert all(row["eta"] is None and not row["success"] for row in [*trials, *summary.values()])


def _dense_reference_and_tsvd_failed(d, _):
    report = json.loads((d / "rep.bench_summary.json").read_text())
    assert report["reference"] == "dense" and not report["summary"]["tsvd"]["success"]


def _graph(edges, labels, out):
    return ["graph", "--input", edges, "--format", "edges", "--labels", labels, "--out", out]


def _cases():
    yield Case("help", ["--help"], 0)
    # a 40-node graph: line i of the concat file is left line i, a comma and right line i
    yield Case("graph", _graph("g.tsv", "y.txt", "run") + ["--kernel", "sne", "--rank", "4"], 0,
               inputs=("g.tsv", "y.txt"), check=_concat_joins_left_and_right)
    # malformed edge lists fail numpy's parse or its bounds: the line scanner names why
    for case_id, name, message in (
            ("edges-inline-comment", "inline.tsv",
             "line 2: non-integer node index in '0\\t1 # note'"),
            ("edges-space-for-tab", "space.tsv", "line 3: expected 'src<TAB>dst', got '1 2'"),
            ("edges-past-node-count", "past.tsv", "edge (2, 3) exceeds node count 3")):
        yield Case(case_id, _graph(name, "y3.txt", "bad"), 2, inputs=(name, "y3.txt"),
                   stderr=(f"data error: {name}: {message}",))
    # node 0 points to itself and to both other nodes
    yield Case("graph-self-loop", _graph("loop.tsv", "yloop.txt", "loop"), 0,
               inputs=("loop.tsv", "yloop.txt"), writes=("loop.metrics.json",))
    yield Case("bicluster-rank-0",
               ["bicluster", "--input", "zero.csv", "--kernel", "linear", "--out", "run0"], 3,
               inputs=("zero.csv",), stderr_lines=2, writes_none=("run0",),
               stderr=("warning: requested rank 2 but only 0 positive singular values "
                       "exist; model truncated",))
    yield Case("bench-rectangular",
               ["bench", "--input", "rect.csv", "--kernel", "linear", "--format", "csv",
                "--rank", "3", "--out", "rb"], 0,
               inputs=("rect.csv",), check=_summary_lists_asymnys)
    yield Case("config-with-bom", ["--config", "bom.json"], 0, inputs=("e.csv", "bom.json"))
    yield Case("config-directory", ["--config", "cfgdir"], 2, inputs=("cfgdir",))
    yield Case("config-list-subcommand", ["--config", "list.json"], 1, inputs=("list.json",),
               stderr=("usage error: config file list.json lacks a valid subcommand",))
    poly = ["embed", "--input", "eye2.csv", "--kernel", "poly", "--rank", "1"]
    yield Case("poly-infinite-offset", poly + ["--offset", "inf", "--out", "inf_run"], 2,
               inputs=("eye2.csv",), writes_none=("inf_run",))
    # an overflowing kernel is one typed error, with no numpy warning before it
    overflow = ("numerical failure: poly kernel values are not finite: "
                "(x'z + offset)^degree overflowed")
    yield Case("poly-overflow", poly + ["--degree", "2000", "--out", "deg_run"], 3,
               inputs=("eye2.csv",), writes_none=("deg_run",), stderr=(overflow,),
               stderr_lines=1)
    yield Case("poly-offset-overflow", poly + ["--offset", "1e200", "--degree", "3", "--out", "r"],
               3, inputs=("eye2.csv",), writes_none=("r",), stderr=(overflow,), stderr_lines=1)
    # a squared norm that overflows is one typed error too, before any kernel value
    yield Case("rbf-norm-overflow",
               ["embed", "--input", "big.csv", "--kernel", "rbf", "--gamma", "1", "--rank", "1",
                "--out", "huge"], 3, inputs=("big.csv",), writes_none=("huge",), stderr_lines=1,
               stderr=("numerical failure: squared row norms are too large for a kernel "
                       "distance: inf > 4.49e+307",))
    # so is a bandwidth heuristic that overflows, with no numpy warning first
    yield Case("rbf-auto-gamma-overflow",
               ["embed", "--input", "big.csv", "--kernel", "rbf", "--rank", "1", "--out", "huge"],
               3, inputs=("big.csv",), writes_none=("huge",), stderr_lines=1,
               stderr=("numerical failure: auto gamma undefined: gamma = sqrt(M * var(X)) "
                       "= inf is not finite",))
    # so are linear inner products that overflow, with no numpy warning, even
    # where a Nystrom sample misses them: the residuals read them before any file
    yield Case("linear-overflow",
               ["embed", "--input", "big.csv", "--kernel", "linear", "--rank", "1",
                "--solver", "asymnys", "--out", "lin"], 3, inputs=("big.csv",),
               writes_none=("lin",), check=_no_warning_line,
               stderr=("numerical failure: linear kernel values are not finite: x'z overflowed",))
    # a linear bench reads the matrix itself: sigma_1 = 1e200 is finite, so tsvd
    # finds it, and the symnys products that overflow are failed trials, not warnings
    yield Case("bench-linear-overflow",
               ["bench", "--input", "big.csv", "--kernel", "linear", "--rank", "1",
                "--out", "bo"], 0, inputs=("big.csv",), check=_tsvd_solved_symnys_overflowed)
    # failed trials write their eta as null, so the bench files stay strict JSON
    yield Case("bench-failed-trials",
               ["bench", "--input", "b.csv", "--rank", "3", "--m-schedule", "1,2",
                "--solvers", "asymnys,symnys", "--out", "inf"], 0, inputs=("b.csv",),
               check=_every_trial_failed_with_null_eta)
    # a tsvd that missed a copy of the repeated top value is no reference:
    # bench falls back to dense, and the tsvd trial fails against it
    yield Case("bench-repeated-top",
               ["bench", "--input", "repeated.csv", "--kernel", "linear", "--rank", "3",
                "--out", "rep"], 0, inputs=("repeated.csv",),
               check=_dense_reference_and_tsvd_failed)
    for k in FAMILIES:
        for s in ("dense", "asymnys"):
            yield Case(f"embed-{k}-{s}",
                       ["embed", "--input", "g.tsv", "--format", "edges", "--kernel", k,
                        "--rank", "4", "--solver", s, "--out", f"k_{k}_{s}"], 0,
                       inputs=("g.tsv",), writes=(f"k_{k}_{s}.fit.json",))
    for s in SOLVERS:
        yield Case(f"embed-{s}-square",
                   ["embed", "--input", "r20.csv", "--solver", s, "--rank", "2",
                    "--out", f"s_{s}"], 0,
                   inputs=("r20.csv",), writes=(f"s_{s}.fit.json",))
        yield Case(f"embed-{s}-compat-a1",
                   ["embed", "--input", "r24x12.csv", "--compat", "a1", "--solver", s,
                    "--rank", "2", "--out", f"c_{s}"], 0,
                   inputs=("r24x12.csv",), writes=(f"c_{s}.fit.json",))
    # the linear kernel reads no bandwidth, yet a malformed one is refused
    yield Case("linear-malformed-gamma",
               ["embed", "--input", "r20.csv", "--kernel", "linear", "--gamma", "abc",
                "--out", "bad"], 1, inputs=("r20.csv",))
    # a negative real in exponent form is a value
    yield Case("poly-negative-offset", poly + ["--offset", "-1e3", "--out", "neg"], 0,
               inputs=("eye2.csv",), writes=("neg.fit.json",))
    yield Case("rbf-negative-gamma",
               ["embed", "--input", "eye2.csv", "--kernel", "rbf", "--gamma", "-1e3",
                "--out", "negg"], 2, inputs=("eye2.csv",),
               stderr=("data error: rbf kernel requires a finite gamma > 0, got -1000.0",))
    yield Case("bicluster-negative-seed",
               ["bicluster", "--input", "eye2.csv", "--seed", "-1", "--out", "negseed"], 1,
               inputs=("eye2.csv",), writes_none=("negseed",),
               stderr=("usage error: --seed must be a non-negative integer, got -1",))
    # a rank-1 input asked for rank 2 warns once, as one line before the fit line
    yield Case("warning-one-line",
               ["embed", "--input", "r1.csv", "--rank", "2", "--out", "r1"], 0,
               inputs=("r1.csv",), stderr_lines=2, check=_fit_line_follows,
               stderr=("warning: requested rank 2 but only 1 positive singular values "
                       "exist; model truncated",))
    # sys.exit(main()) carries every exit code
    yield Case("exit-0", ["embed", "--input", "a.csv", "--rank", "2", "--out", "x"], 0,
               inputs=("a.csv",))
    yield Case("exit-1-no-subcommand", [], 1)
    yield Case("exit-2-missing-input",
               ["embed", "--input", "missing.csv", "--rank", "2", "--out", "x"], 2)
    yield Case("exit-3-undersized-sample",
               ["embed", "--input", "a.csv", "--solver", "asymnys", "--nsub", "2",
                "--msub", "2", "--rank", "3", "--out", "x"], 3, inputs=("a.csv",))
    # a tol that no residual can meet is refused before any Krylov step
    yield Case("tsvd-nan-tol",
               ["embed", "--input", "r20.csv", "--solver", "tsvd", "--tol", "nan",
                "--out", "nantol"], 2, inputs=("r20.csv",), writes_none=("nantol",),
               stderr=("data error: tol must be a number >= 0, got nan",))
    # options a run does not read are echoed too, so they are held to their
    # ranges whatever the solver or kernel: a NaN never reaches the echo
    yield Case("dense-nan-tol",
               ["embed", "--input", "r20.csv", "--tol", "nan", "--out", "nantol"], 2,
               inputs=("r20.csv",), stderr_lines=1, writes_none=("nantol",),
               stderr=("data error: tol must be a number >= 0, got nan",))
    # an infinite tol reads as no limit, but would echo as "Infinity", which is not JSON
    yield Case("dense-inf-tol",
               ["embed", "--input", "e.csv", "--rank", "1", "--tol", "inf", "--out", "inftol"], 2,
               inputs=("e.csv",), stderr_lines=1, writes_none=("inftol",),
               stderr=("data error: tol must be a number >= 0, got inf",))
    # no trial fails an infinite eps, but it too would echo as "Infinity"
    yield Case("bench-inf-eps",
               ["bench", "--input", "e.csv", "--rank", "1", "--eps", "inf", "--out", "infeps"], 1,
               inputs=("e.csv",), stderr_lines=1, writes_none=("infeps",),
               stderr=("usage error: --eps must be finite, got inf",))
    yield Case("linear-nan-offset",
               ["embed", "--input", "r20.csv", "--kernel", "linear", "--offset", "nan",
                "--out", "nanoff"], 2, inputs=("r20.csv",), stderr_lines=1,
               writes_none=("nanoff",),
               stderr=("data error: poly kernel requires a finite offset, got nan",))


CASES = list(_cases())


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_console(console, tmp_path, case):
    for name in case.inputs:
        INPUTS[name](tmp_path / name)
    proc = console(case.argv, tmp_path)
    context = (shlex.join(proc.args), proc.stderr)
    assert proc.returncode == case.code, context
    for line in proc.stdout.splitlines():   # an echoed configuration is strict JSON
        if line.startswith("{"):
            json.loads(line, parse_constant=_not_json)
    # so is every report line written, a failed bench trial's included
    for path in [*tmp_path.glob("*.fit.json"), *tmp_path.glob("*.metrics.json"),
                 *tmp_path.glob("*.bench.ldjson"), *tmp_path.glob("*.bench_summary.json")]:
        for line in path.read_text(encoding="utf-8").splitlines():
            json.loads(line, parse_constant=_not_json)
    err = proc.stderr.splitlines()
    for line in case.stderr:
        assert line in err, context
    if case.stderr_lines is not None:
        assert len(err) == case.stderr_lines, context
    for name in case.writes:
        assert (tmp_path / name).is_file(), context
    for prefix in case.writes_none:
        assert not list(tmp_path.glob(prefix + ".*")), context
    if case.check is not None:
        case.check(tmp_path, err)
