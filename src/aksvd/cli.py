"""Command-line interface: embed, graph, bicluster, bench.

Every run prints its effective configuration as a single JSON line;
re-running with ``aksvd --config <that json>`` reproduces the output
files bit-identically (benchmark timing fields excepted, since they
measure wall-clock time).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
import warnings
from dataclasses import asdict

import numpy as np

from . import ksvd, downstream, solvers
from . import io as aio
from .compat import STRATEGIES, strategy_from_name
from .errors import DataError, NumericalError
from .kernels import FAMILIES, KernelOperator, KernelSpec, as_matrix, auto_gamma


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _gamma(text):
    """The --gamma value: 'auto' or a real number (KernelSpec checks its range)."""
    if text == "auto":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a real number or 'auto', got {text!r}") from None


def _add_common(p):
    """The options of every subcommand."""
    p.add_argument("--input", required=True, help="input data file")
    p.add_argument("--format", choices=("csv", "edges"), default="csv",
                   help="input format: dense CSV or tab-separated edge list")
    p.add_argument("--kernel", choices=FAMILIES, default="linear")
    p.add_argument("--gamma", type=_gamma, default="auto",
                   help="rbf/sne kernel bandwidth: a positive real number, or 'auto' "
                        "(k*sqrt(M*var) heuristic); ignored by the linear and poly kernels")
    p.add_argument("--degree", type=int, default=2, help="poly kernel degree")
    p.add_argument("--offset", type=float, default=1.0, help="poly kernel offset")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--power", type=int, default=2, help="rsvd power iterations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")


def _add_fit(p):
    """The options of the subcommands that fit one model."""
    _add_common(p)
    p.add_argument("--compat", choices=tuple(STRATEGIES), default=None,
                   help="compatibility matrix for non-square inputs: a0 pseudo-inverse, "
                        "a1 PCA projection, a2 random projection (the learned a3 needs "
                        "downstream targets and is available from the library only)")
    p.add_argument("--solver", choices=tuple(solvers.SOLVERS), default="dense")
    p.add_argument("--nsub", type=int, default=None, help="Nystrom row subsamples")
    p.add_argument("--msub", type=int, default=None, help="Nystrom column subsamples")
    p.add_argument("--oversample", type=int, default=10, help="rsvd oversampling")
    p.add_argument("--tol", type=float, default=1e-10, help="tsvd residual tolerance")
    p.add_argument("--center", action="store_true", help="double-center the Gram matrix")


def build_parser() -> _Parser:
    parser = _Parser(prog="aksvd", description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=None,
                        help="re-run from an echoed JSON configuration file")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("embed", help="fit and write embeddings")
    _add_fit(p)

    p = sub.add_parser("graph", help="node classification + graph reconstruction")
    _add_fit(p)
    p.add_argument("--labels", required=True, help="one integer node label per line")

    p = sub.add_parser("bicluster", help="bicluster rows and columns")
    _add_fit(p)
    p.add_argument("--labels", default=None, help="optional row labels for NMI")
    p.add_argument("--k-rows", type=int, default=2, dest="k_rows")
    p.add_argument("--k-cols", type=int, default=2, dest="k_cols")

    # no abbreviations: "--solver" must not be taken for "--solvers"
    p = sub.add_parser("bench", help="solver escalation benchmark", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--eps", type=float, default=1e-1, help="target eta tolerance")
    p.add_argument("--solvers", default=",".join(solvers.DEFAULT_BENCH_SOLVERS),
                   help="comma-separated solver list")
    p.add_argument("--m-schedule", default="", dest="m_schedule",
                   help="comma-separated subsample escalation schedule")
    parser.commands = sub.choices
    return parser


# main's parser, built on the first call: in-process callers run main many
# times, and building a parser takes longer than most parses
_parser = functools.cache(build_parser)


def _accepts(action, value) -> bool:
    """Whether a config value is one the option could have produced."""
    if isinstance(action.default, bool):  # a store_true flag
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if action.dest == "gamma":  # echoed resolved: a number, or null without bandwidth
        return value is None or value == "auto" or isinstance(value, (int, float))
    if value is None:   # a required option's default None is no value
        return action.default is None and not action.required
    if action.choices is not None:
        return value in action.choices
    return isinstance(value, {int: int, float: (int, float)}.get(action.type, str))


def _config_from_file(parser, path) -> dict:
    """Read a JSON configuration and merge it over its subcommand's defaults.

    The file may hold any subset of the keys of an echoed configuration,
    but must name the subcommand and its required options; an unknown key
    or a value that the option would not accept is a usage error, and an
    unreadable or malformed file a data error.
    """
    try:  # a JSON string cannot span lines: joining stripped lines changes no value
        given = json.loads("\n".join(text for _, text in aio._lines(path)))
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from None
    command = given.get("subcommand") if isinstance(given, dict) else None
    if not isinstance(command, str) or command not in _COMMANDS:
        raise UsageError(f"config file {path} lacks a valid subcommand")
    actions = {a.dest: a for a in parser.commands[command]._actions
               if a.dest != "help"}
    unknown = sorted(set(given) - set(actions) - {"subcommand"})
    if unknown:
        raise UsageError(f"config file {path}: unknown key(s) {', '.join(unknown)}")
    cfg = {"subcommand": command}
    for key, action in actions.items():
        if key in given:
            if not _accepts(action, given[key]):
                raise UsageError(f"config file {path}: invalid value {given[key]!r} for {key!r}")
            cfg[key] = given[key]
        elif action.required:
            raise UsageError(f"config file {path}: missing required key {key!r}")
        else:
            cfg[key] = action.default
    return cfg


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _load_matrix(cfg) -> np.ndarray:
    if cfg["format"] == "edges":
        return aio.load_edge_list(cfg["input"])
    return aio.load_dense_csv(cfg["input"])


def _resolve_kernel(cfg, A) -> KernelSpec:
    # the offset is echoed whether or not the family reads it: a NaN or an
    # infinity would make the echoed line other than standard JSON
    if not -np.inf < cfg["offset"] < np.inf:
        raise DataError(f"poly kernel requires a finite offset, got {cfg['offset']}")
    if cfg["kernel"] not in ("rbf", "sne"):
        cfg["gamma"] = None
    elif cfg["gamma"] == "auto":
        cfg["gamma"] = auto_gamma(A)
    elif cfg["gamma"] is not None:  # None: KernelSpec rejects it
        cfg["gamma"] = float(cfg["gamma"])
    return KernelSpec(cfg["kernel"], gamma=cfg["gamma"], degree=cfg["degree"],
                      offset=cfg["offset"])


def _resolve_solver(cfg, shape) -> solvers.SolverChoice:
    if not cfg["tol"] >= 0:   # echoed whatever the solver, as --offset is
        raise DataError(f"tol must be a number >= 0, got {cfg['tol']}")
    name = cfg["solver"]
    knobs = solvers.SOLVERS[name].knobs
    n, m = shape
    # unset counts: a quarter of each side, echoed; symnys's one count at most m, as in bench
    if "n_sub" in knobs and cfg["nsub"] is None:
        cfg["nsub"] = max(cfg["rank"], n // 4 if "m_sub" in knobs else min(n // 4, m))
    if "m_sub" in knobs and cfg["msub"] is None:
        cfg["msub"] = max(cfg["rank"], m // 4)
    return solvers.make_choice(name, tol=cfg["tol"], oversample=cfg["oversample"],
                               power=cfg["power"], seed=cfg["seed"],
                               n_sub=cfg["nsub"], m_sub=cfg["msub"])


def _load_labels(cfg, n, unit) -> np.ndarray:
    """The --labels file, checked against the n nodes or rows before a fit."""
    labels = aio.load_labels(cfg["labels"])
    if labels.shape[0] != n:
        raise DataError(f"labels length {labels.shape[0]} != {n} {unit}")
    return labels


def _fit_from_config(cfg, A, task=None) -> ksvd.KsvdModel:
    """The model that cfg fits to A.  With a ``task``, the downstream work
    that reads the embeddings, a rank-0 fit is a numerical failure."""
    if A.shape[0] != A.shape[1] and cfg["compat"] is None:
        raise DataError(f"a {A.shape[0]}x{A.shape[1]} input needs a compatibility matrix "
                        f"between its rows and columns: --compat {'|'.join(STRATEGIES)}")
    kernel = _resolve_kernel(cfg, A)
    compat = None
    if cfg["compat"] is not None:
        compat = strategy_from_name(cfg["compat"], seed=cfg["seed"])
    solver = _resolve_solver(cfg, (A.shape[0], A.shape[1]))
    model = ksvd.fit_matrix(A, kernel, cfg["rank"], compat=compat,
                            do_center=cfg["center"], solver=solver)
    if task is not None and model.achieved_rank == 0:
        raise NumericalError(f"{cfg['subcommand']} fit achieved rank 0: no embedding "
                             f"to {task}")
    return model


def _write_embed_outputs(cfg, model) -> None:
    out = cfg["out"]
    # each embedding is formatted once; the concatenation reuses its rows
    left, right = aio.format_rows(model.b_phi), aio.format_rows(model.b_psi)
    aio.save_embeddings(out + ".left.csv", left)
    aio.save_embeddings(out + ".right.csv", right)
    if model.b_phi.shape[0] == model.b_psi.shape[0]:
        aio.save_embeddings(out + ".concat.csv", left, right)
    r1, r2 = ksvd.residuals(model)
    report = {
        "lambdas": [float(v) for v in model.lambdas],
        "residual_r1": r1,
        "residual_r2": r2,
        "achieved_rank": model.achieved_rank,
        "centered": model.centered,
        "config_hash": _config_hash(cfg),
    }
    aio.save_report(out + ".fit.json", [report])


def _metric_rows(cfg, task, metrics) -> list:
    h = _config_hash(cfg)
    return [{"task": task, "metric_name": k, "value": v, "seed": cfg["seed"],
             "config_hash": h} for k, v in metrics]


def cmd_embed(cfg) -> int:
    A = _load_matrix(cfg)
    t0 = time.perf_counter()
    model = _fit_from_config(cfg, A)
    print(json.dumps(cfg, sort_keys=True))
    print(f"fit in {time.perf_counter() - t0:.3f}s, achieved rank {model.achieved_rank}",
          file=sys.stderr)
    _write_embed_outputs(cfg, model)
    return 0


def cmd_graph(cfg) -> int:
    A = _load_matrix(cfg)
    if A.shape[0] != A.shape[1]:
        raise DataError("graph command requires a square adjacency matrix")
    if cfg["format"] == "csv":   # an edge list is binary by construction
        bad = (A != 0.0) & (A != 1.0)
        if bad.any():   # argwhere only to name the first bad entry
            i, j = np.argwhere(bad)[0]
            raise DataError(f"graph adjacency must be binary (0 or 1): entry at row {i}, "
                            f"column {j} (0-based) is {float(A[i, j])!r}")
        del bad   # free the n x n mask before the fit rather than hold it through it
    labels = _load_labels(cfg, A.shape[0], "nodes")
    if np.unique(labels).size < 2:
        raise DataError("graph node classification needs labels of at least 2 classes")
    model = _fit_from_config(cfg, A, "classify nodes or reconstruct edges from")
    print(json.dumps(cfg, sort_keys=True))
    _write_embed_outputs(cfg, model)

    features = ksvd.embeddings(model, "concat")
    clf = downstream.lssvm_fit(features, labels, gamma_reg=1.0)
    micro, macro = downstream.f1_scores(clf.predict(features), labels)
    # reconstruction never proposes a self-loop, so none counts in a degree
    out_degrees = (A.sum(axis=1) - A.diagonal()).astype(int)
    A_hat = downstream.graph_reconstruct(model.b_phi, model.b_psi, out_degrees)
    l1, l2 = downstream.recon_error(A, A_hat)
    rows = _metric_rows(cfg, "node_classification",
                        [("micro_f1", micro), ("macro_f1", macro)])
    rows += _metric_rows(cfg, "graph_reconstruction",
                         [("l1", l1), ("l2", l2)])
    aio.save_report(cfg["out"] + ".metrics.json", rows)
    return 0


def cmd_bicluster(cfg) -> int:
    A = _load_matrix(cfg)
    for flag, k, n, side in (("--k-rows", cfg["k_rows"], A.shape[0], "rows"),
                             ("--k-cols", cfg["k_cols"], A.shape[1], "columns")):
        if not 1 <= k <= n:
            raise DataError(f"{flag} must lie in [1, {n}] for {n} {side}, got {k}")
    truth = None if cfg["labels"] is None else _load_labels(cfg, A.shape[0], "rows")
    model = _fit_from_config(cfg, A, "cluster rows and columns from")
    print(json.dumps(cfg, sort_keys=True))
    _write_embed_outputs(cfg, model)

    rows_cl = downstream.kmeans(model.b_phi, cfg["k_rows"], seed=cfg["seed"])
    cols_cl = downstream.kmeans(model.b_psi, cfg["k_cols"], seed=cfg["seed"] + 1)
    metrics = [("coherence", downstream.coherence(cols_cl.labels, A))]
    if truth is not None:
        metrics.insert(0, ("row_nmi", downstream.nmi(rows_cl.labels, truth)))
    aio.save_report(cfg["out"] + ".metrics.json", _metric_rows(cfg, "bicluster", metrics))
    return 0


def _bench_plan(cfg):
    """The --solvers names and --m-schedule sizes; bad ones, a name given
    twice and an --eps that no trial can meet are usage errors."""
    if not cfg["eps"] >= 0:
        raise UsageError(f"--eps must be a number >= 0, got {cfg['eps']}")
    names = [s.strip() for s in cfg["solvers"].split(",") if s.strip()]
    if not names:
        raise UsageError(f"--solvers names no solver: {cfg['solvers']!r}")
    unknown = [name for name in names if name not in solvers.SOLVERS]
    if unknown:
        raise UsageError(f"unknown bench solver(s) {', '.join(map(repr, unknown))}; "
                         f"expected names from {', '.join(solvers.SOLVERS)}")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise UsageError(f"--solvers names {', '.join(map(repr, repeated))} more than once")
    try:
        schedule = [int(t) for t in cfg["m_schedule"].split(",") if t]
        if min(schedule, default=1) < 1:
            raise ValueError
    except ValueError:
        raise UsageError(f"--m-schedule must be comma-separated positive integers, "
                         f"got {cfg['m_schedule']!r}") from None
    return names, schedule


def cmd_bench(cfg) -> int:
    names, schedule = _bench_plan(cfg)
    A = as_matrix(_load_matrix(cfg), "A")
    kernel = _resolve_kernel(cfg, A)
    # bench operates on the (scaled) Gram matrix of the data with itself;
    # a dense CSV under the linear kernel is taken as that matrix, of any shape
    if kernel.family == "linear" and cfg["format"] == "csv":
        G = A
    else:
        if A.shape[0] != A.shape[1]:
            raise DataError("bench requires a square matrix (or adjacency) input "
                            "unless it reads the matrix itself (--kernel linear --format csv)")
        G = KernelOperator(A, np.ascontiguousarray(A.T), kernel, scaled=True).materialize()
    print(json.dumps(cfg, sort_keys=True))
    report = solvers.bench(G, cfg["rank"], cfg["eps"], solvers=names,
                           m_schedule=schedule, seed=cfg["seed"], power=cfg["power"])
    aio.save_report(cfg["out"] + ".bench.ldjson", [asdict(t) for t in report.trials])
    aio.save_report(cfg["out"] + ".bench_summary.json",
                    [{"summary": report.summary, "config_hash": _config_hash(cfg)}])
    return 0


_COMMANDS = {"embed": cmd_embed, "graph": cmd_graph,
             "bicluster": cmd_bicluster, "bench": cmd_bench}


def _join_negative_values(argv) -> list:
    """argv with each negative number that follows a ``--option`` joined to
    it as ``--option=value``: argparse takes a token such as ``-1e3`` for
    an option, and would then refuse it as the value of the one before."""
    joined = []
    for token in argv:
        prev = joined[-1] if joined else ""
        if token[:1] == "-" and prev[:2] == "--" and len(prev) > 2 and "=" not in prev:
            try:
                float(token)
            except ValueError:
                pass
            else:
                joined[-1] = f"{prev}={token}"
                continue
        joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = _parser()
    formatwarning = warnings.formatwarning   # one line per warning; restored below
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
        if args.config is not None:
            cfg = _config_from_file(parser, args.config)
        else:
            if args.subcommand is None:
                raise UsageError("a subcommand or --config is required")
            cfg = {k: v for k, v in vars(args).items() if k != "config"}
        if cfg["seed"] < 0:  # numpy refuses it late, some solvers never read it
            raise UsageError(f"--seed must be a non-negative integer, got {cfg['seed']}")
        return _COMMANDS[cfg["subcommand"]](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    # first: np.linalg.LinAlgError subclasses ValueError
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:   # an input too large to hold, e.g. an edge list's n=
        print(f"data error: out of memory: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
