"""Command-line front end: seeded experiments in, JSON reports out.

Subcommands
-----------
generate        sample a dataset from a population spec, write dataset.csv
metrics         fairness metrics of a classifier on a dataset
eok             both equalized-odds estimates (plug-in and resampling)
bounds          evaluate configured bound clauses; exit 1 if any fails
concentration   deviation certificate check; exit 1 if the envelope breaks
train           one penalized training run with its objective trace
sweep           lambda frontier table, also written as sweep.csv

Every command reads one JSON config file (see README for the schema) and
accepts ``--seed`` / ``--out`` overrides plus ``--format json|table`` for
stdout.  A report is always written to ``<out>/<command>.json`` containing
the command, package and schema versions, the effective seed, a SHA-256
digest of the effective config, and the command's result object.  Reports
are byte-for-byte reproducible for a given config and seed except for the
single ``timing`` key (start timestamp and elapsed seconds), which callers
comparing runs should drop.

Exit status: 0 on success (for ``bounds``/``concentration`` this requires
every clause to hold), 1 when a checked bound fails, 2 on configuration or
validation errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    check_ba_bounds,
    check_biased_lower_bound,
    check_calibration_chain,
    check_tvd_dominance,
    check_unbiased_equality,
)
from .complexity import concentration_check, finite_grid, suggest_radius
from .eok import eok_hat_bootstrap, eok_hat_plugin
from .errors import ConfigurationError, FairmmdError
from .fairness import (
    GROUP_CELLS,
    balanced_accuracy,
    constant_classifier,
    dc,
    dnc,
    dodds,
    dopp,
    dp,
    dpc,
    dr,
    evaluate_batch,
    external_scores_classifier,
    logistic_head_classifier,
    sup_dp,
    witness_scores,
)
from .frl import TrainConfig, lambda_sweep, train
from .kernels import KernelSpec, laplacian, linear, median_heuristic, rbf
from .mmd import cell_sums
from .synth import (
    CELLS,
    LabeledDataset,
    population_from_dict,
    read_csv,
    sample_population,
    write_csv,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")
    cfg["_dir"] = str(p.parent)
    return cfg


class _NotAllowed(ValueError):
    """A value outside a fixed set or range; the message says which values
    are allowed."""


def _parse(value, convert, what: str):
    """``convert(value)`` for one config field; ConfigurationError if it is
    malformed, naming the allowed values when only a fixed set or range is
    allowed."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        allowed = f"; {exc}" if isinstance(exc, _NotAllowed) else ""
        raise ConfigurationError(f"malformed {what} in config: {value!r}{allowed}") from exc


_REQUIRED = object()  # the default of a key that its section must set
_RUN_SEED = object()  # the default of a key that takes the run's seed


def _options(cfg: dict, section: str, table) -> dict:
    """Every option of one config section, read before any work is done.

    ``section`` is the section's dotted path in ``cfg`` ("" for the top
    level); an absent section reads as {}, any other non-object is refused.
    ``table`` maps each key to ``(default, converter)``; a key missing from
    the section takes its default (the run's seed for ``_RUN_SEED``), or is
    refused if that is ``_REQUIRED``.  Every value, defaults included, goes
    through :func:`_parse`, so an error names its field.  A ``table`` given
    as ``(key, default, tables)`` is a variant section: its ``key`` picks one
    of ``tables`` (their keys are the allowed values) as the table of its
    other options.
    """
    if isinstance(table, tuple):
        key, default, tables = table
        kind = _options(cfg, section, {key: (default, _one_of(*tables))})[key]
        return dict(_options(cfg, section, tables[kind]), **{key: kind})
    opts, path = cfg, []
    for key in section.split(".") if section else ():
        path.append(key)
        opts = opts.get(key, {})
        if not isinstance(opts, dict):
            raise ConfigurationError(f'"{".".join(path)}" in config must be an object, got {opts!r}')
    out = {}
    for key, (default, convert) in table.items():
        what = f'{section} "{key}"'.lstrip()
        if key not in opts and default is _REQUIRED:
            raise ConfigurationError(f"config needs {what}")
        value = opts.get(key, cfg["seed"] if default is _RUN_SEED else default)
        out[key] = _parse(value, convert, what)
    return out


def _list_of(convert):
    """A converter for :func:`_parse` that converts a list entry by entry."""
    return lambda values: [convert(v) for v in values]


def _optional(convert):
    """A converter for :func:`_parse` that passes null (None) through."""
    return lambda value: None if value is None else convert(value)


def _one_of(*choices):
    """A converter for :func:`_parse` that admits only ``choices``."""
    def convert(value):
        if value not in choices:
            raise _NotAllowed("expected one of " + ", ".join(map(repr, choices)))
        return value
    return convert


def _at_least(low, convert):
    """A converter for :func:`_parse` that admits only values of ``convert``
    that are >= ``low``."""
    def check(value):
        value = convert(value)
        if not value >= low:
            raise _NotAllowed(f"expected a value >= {low}")
        return value
    return check


def _str(value) -> str:
    """A string for :func:`_parse`, such as a path."""
    if not isinstance(value, str):
        raise TypeError("not a string")
    return value


def _int(value) -> int:
    """An integer for :func:`_parse`: ``int()`` alone would read true as 1,
    "5" as 5 and truncate 1.5 to 1, so booleans, strings and non-integral
    numbers are refused."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("not an integer")
    return int(value)


def _float(value) -> float:
    """A number for :func:`_parse`: ``float()`` alone would read true as 1.0
    and "5" as 5.0, so booleans and strings are refused."""
    if isinstance(value, (bool, str)):
        raise ValueError("not a number")
    return float(value)


def _seed(value) -> int:
    """A seed for :func:`_parse`: numpy seeds its generators from
    non-negative integers only."""
    seed = _int(value)
    if seed < 0:
        raise ValueError("seeds must be non-negative")
    return seed


def _sigma(value):
    """A bandwidth for :func:`_parse`: a number, or "median" for the median
    heuristic on the dataset."""
    return value if value == "median" else _float(value)


# Options every command reads.  The rows come from an inline ``population``
# or from a ``dataset`` CSV, whose path is relative to the config file.
_TOP = {"seed": (0, _seed), "out": ("reports", _str), "n": (1000, _int),
        "dataset": (None, _optional(_str)),
        "population": (None, _optional(population_from_dict))}

# The kernel section: "family" picks the table of its other options.
_KERNEL = ("family", _REQUIRED, {
    "rbf": {"sigma": (1.0, _sigma)},
    "laplacian": {"sigma": (1.0, _sigma)},
    "linear": {"radius": (_REQUIRED, _float)},
})

# The metrics.classifier section: "kind" picks the table of its other options.
_CLASSIFIER = ("kind", "witness", {
    "witness": {},
    "constant": {"value": (0.5, _float)},
    "logistic_head": {"weights": (_REQUIRED, _list_of(_float)), "bias": (_REQUIRED, _float)},
    "external_scores": {},
})


def _effective(cfg: dict, args) -> dict:
    """The config as run: the command-line overrides applied and the seed
    filled in, since the report's digest covers it."""
    eff = {k: v for k, v in cfg.items() if not k.startswith("_")}
    if args.seed is not None:
        eff["seed"] = args.seed
    if args.out is not None:
        eff["out"] = args.out
    eff.setdefault("seed", 0)
    return eff


def _inputs(top: dict, command: str, reads: str, base: str) -> tuple:
    """The command's input and the dataset CSV's score column (None if it
    has none): for "rows", the rows of the dataset CSV (its path relative to
    ``base``, the config file's directory) or of a sample of the population,
    exactly one of the two; for "population", the population."""
    if reads == "population":
        if top["population"] is None:
            raise ConfigurationError(f'{command} needs a "population" section')
        return top["population"], None
    if (top["population"] is None) == (top["dataset"] is None):
        raise ConfigurationError('config needs exactly one of "population" or "dataset"')
    if top["dataset"] is not None:
        return read_csv(Path(base, top["dataset"]))
    return sample_population(top["population"], top["n"], top["seed"]), None


def _resolve_kernel(k: dict, data, seed: int) -> KernelSpec:
    """The kernel of a command's "kernel" options; ``data`` is the command's
    input, whose rows a median bandwidth reads."""
    if k["family"] == "linear":
        return linear(k["radius"])
    sigma = k["sigma"]
    if sigma == "median":
        if not isinstance(data, LabeledDataset):
            raise ConfigurationError("median bandwidth needs a dataset in scope")
        sigma = median_heuristic(data.z, seed=seed)
    return rbf(sigma) if k["family"] == "rbf" else laplacian(sigma)


def _kernel_dict(spec: KernelSpec) -> dict:
    return {k: v for k, v in dataclasses.asdict(spec).items() if v is not None}


def _classifier(c: dict, csv_scores):
    """The classifier of the "metrics.classifier" options; None stands for
    the group witness, whose scores are read from the dataset's cell sums."""
    if c["kind"] == "constant":
        return constant_classifier(c["value"])
    if c["kind"] == "logistic_head":
        return logistic_head_classifier(c["weights"], c["bias"])
    if c["kind"] == "external_scores":
        if csv_scores is None:
            raise ConfigurationError(
                "external_scores classifier needs a dataset CSV with a score column"
            )
        return external_scores_classifier(csv_scores)
    return None


# ---------------------------------------------------------------------------
# report plumbing


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonify(dataclasses.asdict(obj))
    return obj


def _config_digest(eff: dict) -> str:
    # The output directory has no bearing on the numbers, so it stays out of
    # the digest: runs into different directories should compare equal.
    canon = json.dumps({k: _jsonify(v) for k, v in eff.items() if k != "out"},
                       sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def _out_file(top: dict, name: str) -> Path:
    """``<out>/<name>``, creating the output directory if needed."""
    out_dir = Path(top["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _write_report(command: str, eff: dict, top: dict, result: dict, started: float,
                  elapsed: float) -> tuple[dict, Path]:
    report = {
        "command": command,
        "versions": {"fairmmd": __version__, "report_schema": SCHEMA_VERSION},
        "seed": top["seed"],
        "config_digest": _config_digest(eff),
        "timing": {
            "started_at": datetime.fromtimestamp(started, tz=timezone.utc).isoformat(),
            "elapsed_seconds": elapsed,
        },
        "result": _jsonify(result),
    }
    path = _out_file(top, f"{command}.json")
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return report, path


def _emit(report: dict, path: Path, fmt: str, table_lines) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in table_lines:
            print(line)
    print(f"report written to {path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands: each takes what ``main`` has read for it (the top-level
# options, its sections' options, its input, its kernel and the dataset CSV's
# score column) and returns its result object, its table lines and its exit
# status; ``main`` times it, writes the report and prints it.


def _cmd_generate(top: dict, opts: dict, pop, spec, scores) -> tuple[dict, list, int]:
    """sample a dataset from a population spec, write dataset.csv"""
    data = sample_population(pop, top["n"], top["seed"])
    csv_path = _out_file(top, "dataset.csv")
    write_csv(data, csv_path)
    result = {
        "path": str(csv_path),
        "n": data.n,
        "dim": data.dim,
        "cell_counts": {f"{s},{y}": int(count) for (s, y), count in zip(CELLS, data.counts)},
        "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
    }
    return result, [
        f"wrote {csv_path} ({data.n} rows, dim {data.dim})",
        f"cell counts: {result['cell_counts']}",
    ], 0


def _cmd_metrics(top: dict, opts: dict, data, spec, scores) -> tuple[dict, list, int]:
    """fairness metrics of a classifier on a dataset"""
    c, bins = opts["metrics.classifier"], opts["metrics"]["bins"]
    h = _classifier(c, scores)
    if h is None:
        t = witness_scores(cell_sums(spec, data), GROUP_CELLS[1], GROUP_CELLS[0])
    else:
        t = evaluate_batch(h, data.z)
    t = external_scores_classifier(t)
    metrics = {
        "dp": dp(t, data),
        "dopp": dopp(t, data),
        "dr": dr(t, data),
        "dodds": dodds(t, data),
        "dpc": dpc(t, data, bins),
        "dnc": dnc(t, data, bins),
        "dc": dc(t, data, bins),
        "balanced_accuracy_s": balanced_accuracy(t, data, "s"),
        "balanced_accuracy_y": balanced_accuracy(t, data, "y"),
        "sup_dp": sup_dp(spec, data),
    }
    result = {"metrics": metrics, "classifier_kind": c["kind"], "kernel": _kernel_dict(spec),
              "n": data.n, "bins": bins}
    return result, [f"{k:>22s}  {v:.6f}" for k, v in metrics.items()], 0


def _cmd_eok(top: dict, opts: dict, data, spec, scores) -> tuple[dict, list, int]:
    """both equalized-odds estimates (plug-in and resampling)"""
    o = opts["eok"]
    result = {"kernel": _kernel_dict(spec), "n": data.n}
    lines = []
    if o["method"] in ("both", "plugin"):
        est = eok_hat_plugin(spec, data, weights=o["weights"])
        result["plugin"] = dataclasses.asdict(est)
        lines.append(f"plugin     eok2={est.eok2:.6f}  eok={est.eok:.6f}  weights={est.weights}")
    if o["method"] in ("both", "bootstrap"):
        est = eok_hat_bootstrap(spec, data, m0=o["m0"], m1=o["m1"], seed=o["bootstrap_seed"],
                                weights=o["weights"])
        result["bootstrap"] = dataclasses.asdict(est)
        lines.append(f"bootstrap  eok2={est.eok2:.6f}  eok={est.eok:.6f}  weights={est.weights}")
    return result, lines, 0


def _cmd_bounds(top: dict, opts: dict, data, spec, scores) -> tuple[dict, list, int]:
    """evaluate configured bound clauses; exit 1 if any fails"""
    o, tol = opts["bounds"], opts["bounds.tolerances"]
    reports = []
    for name in o["checks"]:
        if name == "unbiased_equality":
            reports.append(check_unbiased_equality(
                spec, data, tol=tol[name], rate_threshold=o["rate_threshold"]))
        elif name == "biased_lower_bound":
            reports.append(check_biased_lower_bound(spec, data, tol=tol[name]))
        elif name == "ba_bounds":
            reports.extend(check_ba_bounds(spec, data, trials=o["trials"], tol=tol[name],
                                           seed=top["seed"], n_anchors=o["n_anchors"]))
        elif name == "calibration_chain":
            reports.extend(check_calibration_chain(
                spec, data, sigma_u=o["sigma_u"], sigma_y=o["sigma_y"], tol=tol[name]))
        else:
            reports.append(check_tvd_dominance(
                spec, data, tol=tol[name], max_support=o["max_support"]))
    all_hold = all(r.holds for r in reports)
    result = {"clauses": [r.as_dict() for r in reports], "all_hold": all_hold,
              "kernel": _kernel_dict(spec), "n": data.n}
    lines = [
        f"{r.name:>26s}  {r.kind}  lhs={r.lhs: .6f}  rhs={r.rhs: .6f}  "
        f"slack={r.slack: .2e}  {'HOLDS' if r.holds else 'FAILS'}"
        for r in reports
    ] + [f"all clauses hold: {all_hold}"]
    return result, lines, 0 if all_hold else 1


def _cmd_concentration(top: dict, opts: dict, pop, spec, scores) -> tuple[dict, list, int]:
    """deviation certificate check; exit 1 if the envelope breaks"""
    o = opts["concentration"]
    grid = finite_grid(o["grid"]).maps
    spec = linear(suggest_radius(pop, grid) if o["radius"] is None else o["radius"])
    rep = concentration_check(pop, grid, spec, n_grid=o["n_grid"], trials=o["trials"],
                              delta=o["delta"], seed=top["seed"], g_trials=o["g_trials"])
    result = dict(rep.as_dict(), kernel=_kernel_dict(spec))
    lines = [
        f"n={r['n']:>6d}  mean_dev={r['mean_dev']:.5f}  "
        f"q{100 * (1 - rep.delta):.0f}={r['quantile_dev']:.5f}  bound={r['bound']:.3f}"
        for r in rep.rows
    ] + [f"slope={rep.slope:.3f}  envelope holds: {rep.holds}"]
    return result, lines, 0 if rep.holds else 1


def _cmd_train(top: dict, opts: dict, data, spec, scores) -> tuple[dict, list, int]:
    """one penalized training run with its objective trace"""
    t = opts["train"]
    res = train(data, TrainConfig(kernel=spec, seed=top["seed"], lam=t.pop("lambda"), **t))
    result = {
        "final": {"sup": res.sup_trace[-1], "penalty": res.penalty_trace[-1],
                  "total": res.total_trace[-1]},
        "trace": {"sup": res.sup_trace, "penalty": res.penalty_trace,
                  "total": res.total_trace},
        "encoder": res.encoder,
        "head": {"weights": res.head_w, "bias": res.head_b},
        "mixture_weights": res.weights,
        "kernel": _kernel_dict(spec),
        "n": data.n,
    }
    return result, [
        f"step {0:>5d}: sup={res.sup_trace[0]:.6f} penalty={res.penalty_trace[0]:.6f} "
        f"total={res.total_trace[0]:.6f}",
        f"step {len(res.sup_trace) - 1:>5d}: sup={res.sup_trace[-1]:.6f} "
        f"penalty={res.penalty_trace[-1]:.6f} total={res.total_trace[-1]:.6f}",
    ], 0


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``x``, tied values sharing the mean of their ranks."""
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    first = np.r_[True, xs[1:] != xs[:-1]]
    bounds = np.r_[np.flatnonzero(first), x.size]
    ranks = np.empty(x.size)
    ranks[order] = (0.5 * (bounds[1:] + bounds[:-1] + 1))[np.cumsum(first) - 1]
    return ranks


def _spearman(a, b) -> float | None:
    """Spearman's rank correlation of two equal-length sequences, with the
    bits of ``scipy.stats.spearmanr(a, b).statistic``; None where scipy gives
    NaN: fewer than two pairs, a constant sequence or a NaN entry."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if (a.size < 2 or (a == a[0]).all() or (b == b[0]).all()
            or np.isnan(a).any() or np.isnan(b).any()):
        return None
    return float(np.corrcoef(np.vstack([_average_ranks(a), _average_ranks(b)]))[1, 0])


def _cmd_sweep(top: dict, opts: dict, pop, spec, scores) -> tuple[dict, list, int]:
    """lambda frontier table, also written as sweep.csv"""
    t, o = opts["train"], opts["sweep"]
    config = TrainConfig(kernel=spec, seed=top["seed"], lam=t.pop("lambda"), **t)
    res = lambda_sweep(pop, o["lambdas"], config, n=top["n"], seed=top["seed"],
                       dc_bins=o["dc_bins"])
    rho = _spearman(res.lambdas, [r["eok2"] for r in res.rows])
    csv_path = _out_file(top, "sweep.csv")
    cols = list(res.rows[0].keys())
    np.savetxt(csv_path, [[row[c] for c in cols] for row in res.rows], fmt="%.17g",
               delimiter=",", header=",".join(cols), comments="")
    result = dict(res.as_dict(), kernel=_kernel_dict(spec), spearman_lambda_eok2=rho,
                  csv_path=str(csv_path))
    header = "  ".join(f"{c:>10s}" for c in cols)
    lines = [header] + [
        "  ".join(f"{row[c]:>10.5f}" for c in cols) for row in res.rows
    ] + [f"spearman(lambda, eok2) = {'undefined' if rho is None else f'{rho:.3f}'}",
         f"frontier written to {csv_path}"]
    return result, lines, 0


# The train section; apart from "lambda" (TrainConfig's ``lam``) each key
# names a TrainConfig field.
_TRAIN = {"lambda": (1.0, _float), "steps": (200, _int), "step_size": (0.5, _float),
          "encoder_dim": (2, _int), "batch": (None, _optional(_int)),
          "init_scale": (0.1, _float)}

# Each bound check by name, with its default tolerance.
_TOLERANCES = {"unbiased_equality": (0.02, _float), "biased_lower_bound": (0.03, _float),
               "ba_bounds": (0.01, _float), "calibration_chain": (0.05, _float),
               "tvd_dominance": (1e-9, _float)}

# What each command reads, all of it read by ``main`` before the command
# runs, in this order: every option, then the command's input, then the
# kernel of its "kernel" section.  The input is "rows" (a dataset CSV or a
# sample of the population) or the "population" itself; each section's
# dotted path maps to the table that ``_options`` reads it with.
_READS = {
    "generate": ("population", {}),
    "metrics": ("rows", {"kernel": _KERNEL, "metrics.classifier": _CLASSIFIER,
                         "metrics": {"bins": (None, _optional(_int))}}),
    "eok": ("rows", {"kernel": _KERNEL, "eok": {
        "method": ("both", _one_of("both", "plugin", "bootstrap")),
        "weights": (None, _optional(_list_of(_float))), "m0": (None, _optional(_int)),
        "m1": (None, _optional(_int)), "bootstrap_seed": (_RUN_SEED, _seed)}}),
    "bounds": ("rows", {"kernel": _KERNEL, "bounds": {
        "checks": (["biased_lower_bound", "ba_bounds", "calibration_chain"],
                   _list_of(_one_of(*_TOLERANCES))),
        "rate_threshold": (0.02, _at_least(0.0, _float)), "trials": (50, _int),
        "n_anchors": (100, _int), "sigma_u": (0.5, _float), "sigma_y": (1.0, _float),
        "max_support": (64, _at_least(1, _int))}, "bounds.tolerances": _TOLERANCES}),
    "concentration": ("population", {"concentration": {
        "grid": (_REQUIRED, _list_of(_list_of(_list_of(_float)))),
        "radius": (None, _optional(_float)), "n_grid": ([100, 200, 400, 800], _list_of(_int)),
        "trials": (100, _int), "delta": (0.05, _float), "g_trials": (64, _int)}}),
    "train": ("rows", {"kernel": _KERNEL, "train": _TRAIN}),
    "sweep": ("population", {"kernel": _KERNEL, "train": _TRAIN, "sweep": {
        "lambdas": ([0.0, 0.1, 1.0, 10.0], _list_of(_float)),
        "dc_bins": (20, _optional(_at_least(1, _int)))}}),
}

_COMMANDS = {
    "generate": _cmd_generate,
    "metrics": _cmd_metrics,
    "eok": _cmd_eok,
    "bounds": _cmd_bounds,
    "concentration": _cmd_concentration,
    "train": _cmd_train,
    "sweep": _cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairmmd",
        description="kernel fairness statistics: estimators, bound checks, training",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--format", choices=("json", "table"), default="table",
                       help="stdout rendering (the JSON report file is always written)")
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  This function does all config work before the
    command runs, in a fixed order (every option, then the command's input,
    then its kernel); the command computes its result, table lines and exit
    status; only this function times it, writes its report and prints."""
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        eff = _effective(cfg, args)
        top = _options(eff, "", _TOP)
        reads, tables = _READS[args.command]
        opts = {section: _options(eff, section, table) for section, table in tables.items()}
        started = time.time()
        data, scores = _inputs(top, args.command, reads, cfg["_dir"])
        spec = _resolve_kernel(opts["kernel"], data, top["seed"]) if "kernel" in opts else None
        result, lines, status = _COMMANDS[args.command](top, opts, data, spec, scores)
        report, path = _write_report(args.command, eff, top, result, started,
                                     time.time() - started)
    except FairmmdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    _emit(report, path, args.format, lines)
    return status


if __name__ == "__main__":
    sys.exit(main())
