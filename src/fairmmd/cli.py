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

A process runs one command, so it pays the import of each module the
command loads.  This module imports ``errors`` and ``synth``, which every
command needs; every other module loads on first use, when a command or an
option check of its own tables first calls into it.  So ``generate`` loads
``synth`` alone, and no command loads a module it does not call into.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import hashlib
import importlib
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import ConfigurationError, FairmmdError, ValidationError
from .synth import (CELLS, LabeledDataset, population_from_dict, read_csv, sample_population,
                    write_csv)

if TYPE_CHECKING:
    from .kernels import KernelSpec


def _sibling(module: str, name: str):
    """A stand-in for ``fairmmd.<module>.<name>`` that imports the module on
    its first call, so a command imports only the modules it calls into.

    Each call looks the function up on its module.  A call that finds the
    module's own function there, not a wrapper put in its place, also binds
    ``name`` here to it while ``name`` still holds the stand-in, as an import
    at the top of this module would have; later calls go to it directly.
    """
    path = f"{__package__}.{module}"

    def call(*args, **kwargs):
        fn = getattr(importlib.import_module(path), name)
        if globals().get(name) is call and getattr(fn, "__module__", None) == path:
            globals()[name] = fn
        return fn(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


# The functions this module calls in the modules other than ``errors`` and
# ``synth``, which every command needs; each name is bound to its stand-in.
_SIBLINGS = {
    "bounds": ("check_ba_bounds", "check_biased_lower_bound", "check_calibration_chain",
               "check_tvd_dominance", "check_unbiased_equality"),
    "complexity": ("_check_delta", "_checked_n_grid", "concentration_check", "finite_grid",
                   "suggest_radius"),
    "eok": ("_checked_weights", "eok_hat_bootstrap", "eok_hat_plugin"),
    "fairness": ("balanced_accuracy", "constant_classifier", "dc", "dnc", "dodds", "dopp", "dp",
                 "dpc", "dr", "evaluate_batch", "external_scores_classifier",
                 "logistic_head_classifier", "sup_dp", "witness_scores"),
    "frl": ("TrainConfig", "_check_init_scale", "_check_lambda", "_check_step_size",
            "lambda_sweep", "train"),
    "kernels": ("laplacian", "linear", "median_heuristic", "rbf"),
    "mmd": ("cell_sums",),
}
globals().update((name, _sibling(module, name))
                 for module, names in _SIBLINGS.items() for name in names)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigurationError("config is nested too deeply to parse") from None
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


def _options(cfg: dict, section: str, table, admit=()) -> dict:
    """Every option of one config section, read before any work is done.

    ``section`` is the section's dotted path in ``cfg`` ("" for the top
    level); an absent section reads as {}, any other non-object is refused.
    ``table`` maps each key to ``(default, converter)``; a key missing from
    the section takes its default (the run's seed for ``_RUN_SEED``), or is
    refused if that is ``_REQUIRED``.  Every value, defaults included, goes
    through :func:`_parse`, so an error names its field.  A ``table`` given
    as ``(key, default, tables)`` is a variant section: its ``key`` picks one
    of ``tables`` (their keys are the allowed values) as the table of its
    other options.  A converter with a ``given`` attribute is replaced by
    ``given(options read before it)``, so that a range is checked only
    where the option is used.

    A key of the section that is neither in ``table``, in ``admit`` nor a
    section that some command reads (one config file may serve several
    commands) is refused by name, before any value is read: a misspelled key
    would otherwise leave its option at the default without a word.  A
    variant section admits the options of the variant it picks alone
    (``admit`` None leaves the check to the caller).
    """
    if isinstance(table, tuple):
        key, default, tables = table
        kind = _options(cfg, section, {key: (default, _one_of(*tables))}, None)[key]
        return dict(_options(cfg, section, tables[kind], (key,)), **{key: kind})
    opts, path = cfg, []
    for key in section.split(".") if section else ():
        path.append(key)
        opts = opts.get(key, {})
        if not isinstance(opts, dict):
            raise ConfigurationError(f'"{".".join(path)}" in config must be an object, got {opts!r}')
    if admit is not None:
        prefix = f"{section}." if section else ""
        allowed = set(table).union(admit, (
            name[len(prefix):].split(".")[0] for _, tables in _READS.values()
            for name in tables if name.startswith(prefix)))
        unknown = sorted(set(opts) - allowed)
        if unknown:
            where = f'in section "{section}"' if section else "at the top level"
            raise ConfigurationError(f"unknown key {unknown[0]!r} {where} of the config; "
                                     f"allowed keys: {', '.join(sorted(allowed))}")
    out = {}
    for key, (default, convert) in table.items():
        convert = getattr(convert, "given", lambda _: convert)(out)
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


def _out_dir(value) -> str:
    """An output directory for :func:`_parse`.  It need not exist, but its
    nearest existing ancestor (itself, if it exists) must be a directory:
    a file there would fail the report's write only after the work."""
    path = Path(_str(value))
    for p in (path, *path.parents):
        if os.path.lexists(p):
            if not p.is_dir():
                raise _NotAllowed(f"{str(p)!r} exists and is not a directory")
            break
    return value


def _seed(value) -> int:
    """A seed for :func:`_parse`: numpy seeds its generators from
    non-negative integers only."""
    seed = _int(value)
    if seed < 0:
        raise ValueError("seeds must be non-negative")
    return seed


def _accepted(make, convert):
    """A converter for :func:`_parse` that admits only values of ``convert``
    that ``make`` accepts, such as a kernel constructor's parameter range;
    the refusal names what is allowed."""
    def check(value):
        value = convert(value)
        try:
            make(value)
        except ValidationError as exc:
            raise _NotAllowed(str(exc)) from None
        return value
    return check


def _sigma(make):
    """A converter for :func:`_parse` of a bandwidth that ``make`` accepts,
    or "median" for the median heuristic on the dataset."""
    convert = _accepted(make, _float)
    return lambda value: value if value == "median" else convert(value)


# Options every command reads.  The rows come from an inline ``population``
# or from a ``dataset`` CSV, whose path is relative to the config file.  A
# dataset CSV and "concentration" leave ``n`` unused, so its range (>= 1) is
# checked by ``sample_population``, before it draws a row.
_TOP = {"seed": (0, _seed), "out": ("reports", _out_dir), "n": (1000, _int),
        "dataset": (None, _optional(_str)),
        "population": (None, _optional(population_from_dict))}

# The kernel section: "family" picks the table of its other options.
_KERNEL = ("family", _REQUIRED, {
    "rbf": {"sigma": (1.0, _sigma(rbf))},
    "laplacian": {"sigma": (1.0, _sigma(laplacian))},
    "linear": {"radius": (_REQUIRED, _accepted(linear, _float))},
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


def _write_out(top: dict, name: str, write) -> tuple[Path, Path]:
    """``<out>/<name>`` and the temporary file ``<out>/.<name>.<pid>.tmp``
    that ``write(path)`` writes it to, after the output directory is created
    if needed.  The pair is recorded in ``top["staged"]``; ``main`` moves
    every staged file into place once the report is written, and removes
    them all if the run fails, so an exit 2 leaves no file of that run.  An
    OSError (a directory in the file's place, a directory the user may not
    write to, a full disk) becomes a ConfigurationError naming the path, so
    the run exits 2."""
    path = Path(top["out"]) / name
    staged = path.with_name(f".{name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        top["staged"].append((staged, path))
        write(staged)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return path, staged


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
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return report, _write_out(top, f"{command}.json", lambda path: path.write_text(text))[0]


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
    csv_path, staged = _write_out(top, "dataset.csv", lambda path: write_csv(data, path))
    result = {
        "path": str(csv_path),
        "n": data.n,
        "dim": data.dim,
        "cell_counts": {f"{s},{y}": int(count) for (s, y), count in zip(CELLS, data.counts)},
        "csv_sha256": hashlib.sha256(staged.read_bytes()).hexdigest(),
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
        from .fairness import GROUP_CELLS

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
    cols = list(res.rows[0].keys())
    csv_path, _ = _write_out(top, "sweep.csv", lambda path: np.savetxt(
        path, [[row[c] for c in cols] for row in res.rows], fmt="%.17g", delimiter=",",
        header=",".join(cols), comments=""))
    result = dict(res.as_dict(), kernel=_kernel_dict(spec), spearman_lambda_eok2=rho,
                  csv_path=str(csv_path))
    header = "  ".join(f"{c:>10s}" for c in cols)
    lines = [header] + [
        "  ".join(f"{row[c]:>10.5f}" for c in cols) for row in res.rows
    ] + [f"spearman(lambda, eok2) = {'undefined' if rho is None else f'{rho:.3f}'}",
         f"frontier written to {csv_path}"]
    return result, lines, 0


# A penalty weight: finite and >= 0.
_lambda = _accepted(_check_lambda, _float)

# The train section; apart from "lambda" (TrainConfig's ``lam``) each key
# names a TrainConfig field.
_TRAIN = {"lambda": (1.0, _lambda), "steps": (200, _at_least(1, _int)),
          "step_size": (0.5, _accepted(_check_step_size, _float)),
          "encoder_dim": (2, _at_least(1, _int)),
          "batch": (None, _optional(_at_least(8, _int))),
          "init_scale": (0.1, _accepted(_check_init_scale, _float))}

# Each bound check by name, with its default tolerance.
_TOLERANCES = {"unbiased_equality": (0.02, _float), "biased_lower_bound": (0.03, _float),
               "ba_bounds": (0.01, _float), "calibration_chain": (0.05, _float),
               "tvd_dominance": (1e-9, _float)}


def _if_used(used, ranged, convert):
    """A converter for an option that only some runs read: ``ranged``
    where ``used(the options read before it)`` holds; elsewhere
    :func:`_options` reads the option with ``convert`` alone, so an unused
    value is not refused.  It wraps ``ranged`` in a function of its own,
    so that ``given`` is never set on a converter other options share."""
    def checked(value):
        return ranged(value)
    checked.given = lambda opts: ranged if used(opts) else convert
    return checked


def _if_checked(check, ranged, convert):
    """:func:`_if_used` for a "bounds" option that only the check ``check``
    reads, where "checks" names it."""
    return _if_used(lambda opts: check in opts["checks"], ranged, convert)


# An rbf bandwidth: > 0 with 2 sigma^2 and its reciprocal finite.
_bandwidth = _accepted(rbf, _float)

# A bootstrap draw count, read where "method" bootstraps.
_DRAWS = _if_used(lambda opts: opts["method"] != "plugin",
                  _optional(_at_least(1, _int)), _optional(_int))


# What each command reads, all of it read by ``main`` before the command
# runs, in this order: every option, then the command's input, then the
# kernel of its "kernel" section.  The input is "rows" (a dataset CSV or a
# sample of the population) or the "population" itself; each section's
# dotted path maps to the table that ``_options`` reads it with.
_READS = {
    "generate": ("population", {}),
    "metrics": ("rows", {"kernel": _KERNEL, "metrics.classifier": _CLASSIFIER,
                         "metrics": {"bins": (None, _optional(_at_least(1, _int)))}}),
    "eok": ("rows", {"kernel": _KERNEL, "eok": {
        "method": ("both", _one_of("both", "plugin", "bootstrap")),
        "weights": (None, _optional(_accepted(_checked_weights, _list_of(_float)))),
        "m0": (None, _DRAWS), "m1": (None, _DRAWS), "bootstrap_seed": (_RUN_SEED, _seed)}}),
    "bounds": ("rows", {"kernel": _KERNEL, "bounds": {
        "checks": (["biased_lower_bound", "ba_bounds", "calibration_chain"],
                   _list_of(_one_of(*_TOLERANCES))),
        "rate_threshold": (0.02, _if_checked("unbiased_equality", _at_least(0.0, _float),
                                             _float)),
        "trials": (50, _if_checked("ba_bounds", _at_least(0, _int), _int)),
        "n_anchors": (100, _if_checked("ba_bounds", _at_least(1, _int), _int)),
        "sigma_u": (0.5, _if_checked("calibration_chain", _bandwidth, _float)),
        "sigma_y": (1.0, _if_checked("calibration_chain", _bandwidth, _float)),
        "max_support": (64, _if_checked("tvd_dominance", _at_least(1, _int), _int))},
        "bounds.tolerances": _TOLERANCES}),
    "concentration": ("population", {"concentration": {
        "grid": (_REQUIRED, _list_of(_list_of(_list_of(_float)))),
        "radius": (None, _optional(_accepted(linear, _float))),
        "n_grid": ([100, 200, 400, 800], _accepted(_checked_n_grid, _list_of(_int))),
        "trials": (100, _at_least(1, _int)), "delta": (0.05, _accepted(_check_delta, _float)),
        "g_trials": (64, _at_least(2, _int))}}),
    "train": ("rows", {"kernel": _KERNEL, "train": _TRAIN}),
    "sweep": ("population", {"kernel": _KERNEL, "train": _TRAIN, "sweep": {
        "lambdas": ([0.0, 0.1, 1.0, 10.0], _list_of(_lambda)),
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
    status; only this function times it, writes its report and prints.
    Every file the run writes, the report last, is staged under a temporary
    name (see :func:`_write_out`) and moved into place only once all of them
    are written; a run that fails removes the staged files."""
    args = _build_parser().parse_args(argv)
    staged = []
    try:
        cfg = _load_config(args.config)
        eff = _effective(cfg, args)
        top = dict(_options(eff, "", _TOP), staged=staged)
        reads, tables = _READS[args.command]
        opts = {section: _options(eff, section, table) for section, table in tables.items()}
        started = time.time()
        data, scores = _inputs(top, args.command, reads, cfg["_dir"])
        spec = _resolve_kernel(opts["kernel"], data, top["seed"]) if "kernel" in opts else None
        result, lines, status = _COMMANDS[args.command](top, opts, data, spec, scores)
        report, path = _write_report(args.command, eff, top, result, started,
                                     time.time() - started)
        for tmp, final in staged:
            os.replace(tmp, final)
        staged.clear()
    except FairmmdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
    _emit(report, path, args.format, lines)
    return status


if __name__ == "__main__":
    sys.exit(main())
