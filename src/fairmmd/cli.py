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
from functools import partial
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
    PopulationSpec,
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


def _parse(value, convert, what: str):
    """``convert(value)`` for one config field; ConfigurationError if it is malformed."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed {what} in config: {value!r}") from exc


def _parse_optional(value, convert, what: str):
    """:func:`_parse` for a field whose absence (None) is meaningful."""
    return None if value is None else _parse(value, convert, what)


def _option(opts: dict, section: str, key: str, default, convert):
    """:func:`_parse` of ``opts[key]`` (``default`` if absent), a field of
    the config section named ``section``."""
    return _parse(opts.get(key, default), convert, f'{section} "{key}"')


def _section(cfg: dict, key: str) -> dict:
    """The config object under ``key`` ({} if absent); ConfigurationError if
    it is not an object."""
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigurationError(f'"{key}" in config must be an object, got {value!r}')
    return value


def _list_of(convert):
    """A converter for :func:`_parse` that converts a list entry by entry."""
    return lambda values: [convert(v) for v in values]


def _int(value) -> int:
    """An integer for :func:`_parse`: ``int()`` alone would read true as 1
    and truncate 1.5 to 1, so booleans and non-integral numbers are refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("not an integer")
    return int(value)


def _seed(value) -> int:
    """A seed for :func:`_parse`: numpy seeds its generators from
    non-negative integers only."""
    seed = _int(value)
    if seed < 0:
        raise ValueError("seeds must be non-negative")
    return seed


def _effective(cfg: dict, args) -> dict:
    eff = {k: v for k, v in cfg.items() if not k.startswith("_")}
    if args.seed is not None:
        eff["seed"] = args.seed
    if args.out is not None:
        eff["out"] = args.out
    eff.setdefault("seed", 0)
    eff.setdefault("out", "reports")
    _parse(eff["seed"], _seed, '"seed"')
    return eff


def _population(eff: dict, command: str) -> PopulationSpec:
    if "population" not in eff:
        raise ConfigurationError(f'{command} needs a "population" section')
    return population_from_dict(eff["population"])


def _resolve_dataset(cfg: dict, eff: dict) -> tuple[LabeledDataset, np.ndarray | None]:
    """Dataset from either a CSV path or a sampled population (exactly one)."""
    has_pop = "population" in eff
    has_csv = "dataset" in eff
    if has_pop == has_csv:
        raise ConfigurationError('config needs exactly one of "population" or "dataset"')
    if has_csv:
        path = Path(eff["dataset"])
        if not path.is_absolute():
            path = Path(cfg.get("_dir", ".")) / path
        return read_csv(path)
    pop = population_from_dict(eff["population"])
    n = _parse(eff.get("n", 1000), _int, '"n"')
    return sample_population(pop, n, int(eff["seed"])), None


def _resolve_kernel(eff: dict, data: LabeledDataset | None) -> KernelSpec:
    kc = eff.get("kernel")
    if not isinstance(kc, dict) or "family" not in kc:
        raise ConfigurationError('config needs a "kernel" object with a "family"')
    fam = kc["family"]
    if fam in ("rbf", "laplacian"):
        sigma = kc.get("sigma", 1.0)
        if sigma == "median":
            if data is None:
                raise ConfigurationError("median bandwidth needs a dataset in scope")
            sigma = median_heuristic(data.z, seed=int(eff["seed"]))
        sigma = _parse(sigma, float, 'kernel "sigma"')
        return rbf(sigma) if fam == "rbf" else laplacian(sigma)
    if fam == "linear":
        if "radius" not in kc:
            raise ConfigurationError('linear kernel config needs a "radius"')
        return linear(_parse(kc["radius"], float, 'kernel "radius"'))
    raise ConfigurationError(f"unsupported kernel family in config: {fam!r}")


def _kernel_dict(spec: KernelSpec) -> dict:
    return {k: v for k, v in dataclasses.asdict(spec).items() if v is not None}


def _resolve_classifier(eff: dict, csv_scores):
    """The configured classifier and its kind; None stands for the group
    witness, whose scores are read from the dataset's cell sums."""
    cc = _section(_section(eff, "metrics"), "classifier")
    kind = cc.get("kind", "witness")
    if kind == "witness":
        return None, kind
    if kind == "constant":
        return constant_classifier(_parse(cc.get("value", 0.5), float, 'classifier "value"')), kind
    if kind == "logistic_head":
        if "weights" not in cc or "bias" not in cc:
            raise ConfigurationError('logistic_head classifier needs "weights" and "bias"')
        weights = _parse(cc["weights"], partial(np.asarray, dtype=float), 'classifier "weights"')
        bias = _parse(cc["bias"], float, 'classifier "bias"')
        return logistic_head_classifier(weights, bias), kind
    if kind == "external_scores":
        if csv_scores is None:
            raise ConfigurationError(
                "external_scores classifier needs a dataset CSV with a score column"
            )
        return external_scores_classifier(csv_scores), kind
    raise ConfigurationError(f"unknown classifier kind {kind!r}")


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


def _out_file(eff: dict, name: str) -> Path:
    """``<out>/<name>``, creating the output directory if needed."""
    out_dir = Path(eff["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _write_report(command: str, eff: dict, result: dict, started: float,
                  elapsed: float) -> tuple[dict, Path]:
    report = {
        "command": command,
        "versions": {"fairmmd": __version__, "report_schema": SCHEMA_VERSION},
        "seed": int(eff["seed"]),
        "config_digest": _config_digest(eff),
        "timing": {
            "started_at": datetime.fromtimestamp(started, tz=timezone.utc).isoformat(),
            "elapsed_seconds": elapsed,
        },
        "result": _jsonify(result),
    }
    path = _out_file(eff, f"{command}.json")
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
# subcommands: each returns its result object, its table lines and its exit
# status; ``main`` times it, writes the report and prints it.


def _cmd_generate(eff: dict, cfg: dict) -> tuple[dict, list, int]:
    pop = _population(eff, "generate")
    data = sample_population(pop, _parse(eff.get("n", 1000), _int, '"n"'), int(eff["seed"]))
    csv_path = _out_file(eff, "dataset.csv")
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


def _cmd_metrics(eff: dict, cfg: dict) -> tuple[dict, list, int]:
    data, csv_scores = _resolve_dataset(cfg, eff)
    spec = _resolve_kernel(eff, data)
    h, kind = _resolve_classifier(eff, csv_scores)
    if h is None:
        t = witness_scores(cell_sums(spec, data), GROUP_CELLS[1], GROUP_CELLS[0])
    else:
        t = evaluate_batch(h, data.z)
    t = external_scores_classifier(t)
    bins = _parse_optional(_section(eff, "metrics").get("bins"), _int, 'metrics "bins"')
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
    result = {"metrics": metrics, "classifier_kind": kind, "kernel": _kernel_dict(spec),
              "n": data.n, "bins": bins}
    return result, [f"{k:>22s}  {v:.6f}" for k, v in metrics.items()], 0


def _cmd_eok(eff: dict, cfg: dict) -> tuple[dict, list, int]:
    data, _ = _resolve_dataset(cfg, eff)
    spec = _resolve_kernel(eff, data)
    opts = _section(eff, "eok")
    method = opts.get("method", "both")
    if method not in ("both", "plugin", "bootstrap"):
        raise ConfigurationError(f'eok method must be both|plugin|bootstrap, got {method!r}')
    weights = _parse_optional(opts.get("weights"), partial(np.asarray, dtype=float),
                              'eok "weights"')
    result = {"kernel": _kernel_dict(spec), "n": data.n}
    lines = []
    if method in ("both", "plugin"):
        est = eok_hat_plugin(spec, data, weights=weights)
        result["plugin"] = dataclasses.asdict(est)
        lines.append(f"plugin     eok2={est.eok2:.6f}  eok={est.eok:.6f}  weights={est.weights}")
    if method in ("both", "bootstrap"):
        est = eok_hat_bootstrap(
            spec, data,
            m0=_parse_optional(opts.get("m0"), _int, 'eok "m0"'),
            m1=_parse_optional(opts.get("m1"), _int, 'eok "m1"'),
            seed=_option(opts, "eok", "bootstrap_seed", eff["seed"], _seed),
            weights=weights,
        )
        result["bootstrap"] = dataclasses.asdict(est)
        lines.append(f"bootstrap  eok2={est.eok2:.6f}  eok={est.eok:.6f}  weights={est.weights}")
    return result, lines, 0


_BOUND_CHECKS = (
    "unbiased_equality",
    "biased_lower_bound",
    "ba_bounds",
    "calibration_chain",
    "tvd_dominance",
)


def _cmd_bounds(eff: dict, cfg: dict) -> tuple[dict, list, int]:
    data, _ = _resolve_dataset(cfg, eff)
    spec = _resolve_kernel(eff, data)
    opts = _section(eff, "bounds")
    checks = _option(opts, "bounds", "checks",
                     ["biased_lower_bound", "ba_bounds", "calibration_chain"], list)
    for name in checks:
        if name not in _BOUND_CHECKS:
            raise ConfigurationError(f"unknown bound check {name!r}; known: {_BOUND_CHECKS}")
    tols = _section(opts, "tolerances")
    option = partial(_option, opts, "bounds")

    def tol(name, default):
        return _parse(tols.get(name, default), float, f'"{name}" tolerance')

    reports = []
    for name in checks:
        if name == "unbiased_equality":
            reports.append(check_unbiased_equality(
                spec, data, tol=tol(name, 0.02),
                rate_threshold=option("rate_threshold", 0.02, float),
            ))
        elif name == "biased_lower_bound":
            reports.append(check_biased_lower_bound(spec, data, tol=tol(name, 0.03)))
        elif name == "ba_bounds":
            reports.extend(check_ba_bounds(
                spec, data, trials=option("trials", 50, _int),
                tol=tol(name, 0.01), seed=int(eff["seed"]),
                n_anchors=option("n_anchors", 100, _int),
            ))
        elif name == "calibration_chain":
            reports.extend(check_calibration_chain(
                spec, data,
                sigma_u=option("sigma_u", 0.5, float),
                sigma_y=option("sigma_y", 1.0, float),
                tol=tol(name, 0.05),
            ))
        else:
            reports.append(check_tvd_dominance(
                spec, data, tol=tol(name, 1e-9),
                max_support=option("max_support", 64, _int),
            ))
    all_hold = all(r.holds for r in reports)
    result = {"clauses": [r.as_dict() for r in reports], "all_hold": all_hold,
              "kernel": _kernel_dict(spec), "n": data.n}
    lines = [
        f"{r.name:>26s}  {r.kind}  lhs={r.lhs: .6f}  rhs={r.rhs: .6f}  "
        f"slack={r.slack: .2e}  {'HOLDS' if r.holds else 'FAILS'}"
        for r in reports
    ] + [f"all clauses hold: {all_hold}"]
    return result, lines, 0 if all_hold else 1


def _cmd_concentration(eff: dict, cfg: dict) -> tuple[dict, list, int]:
    pop = _population(eff, "concentration")
    opts = _section(eff, "concentration")
    if "grid" not in opts:
        raise ConfigurationError('concentration needs a "grid" of encoder matrices')
    option = partial(_option, opts, "concentration")
    grid = finite_grid(option("grid", None, _list_of(partial(np.asarray, dtype=float)))).maps
    radius = _parse_optional(opts.get("radius"), float, 'concentration "radius"')
    spec = linear(suggest_radius(pop, grid) if radius is None else radius)
    rep = concentration_check(
        pop, grid, spec,
        n_grid=option("n_grid", [100, 200, 400, 800], _list_of(_int)),
        trials=option("trials", 100, _int),
        delta=option("delta", 0.05, float),
        seed=int(eff["seed"]),
        g_trials=option("g_trials", 64, _int),
    )
    result = dict(rep.as_dict(), kernel=_kernel_dict(spec))
    lines = [
        f"n={r['n']:>6d}  mean_dev={r['mean_dev']:.5f}  "
        f"q{100 * (1 - rep.delta):.0f}={r['quantile_dev']:.5f}  bound={r['bound']:.3f}"
        for r in rep.rows
    ] + [f"slope={rep.slope:.3f}  envelope holds: {rep.holds}"]
    return result, lines, 0 if rep.holds else 1


def _train_config(eff: dict, spec: KernelSpec) -> TrainConfig:
    t = _section(eff, "train")
    option = partial(_option, t, "train")
    return TrainConfig(
        kernel=spec,
        lam=option("lambda", 1.0, float),
        steps=option("steps", 200, _int),
        step_size=option("step_size", 0.5, float),
        encoder_dim=option("encoder_dim", 2, _int),
        batch=_parse_optional(t.get("batch"), _int, 'train "batch"'),
        seed=int(eff["seed"]),
        init_scale=option("init_scale", 0.1, float),
    )


def _cmd_train(eff: dict, cfg: dict) -> tuple[dict, list, int]:
    data, _ = _resolve_dataset(cfg, eff)
    spec = _resolve_kernel(eff, data)
    res = train(data, _train_config(eff, spec))
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


def _cmd_sweep(eff: dict, cfg: dict) -> tuple[dict, list, int]:
    pop = _population(eff, "sweep")
    spec = _resolve_kernel(eff, None)
    opts = _section(eff, "sweep")
    lambdas = _option(opts, "sweep", "lambdas", [0.0, 0.1, 1.0, 10.0], _list_of(float))
    res = lambda_sweep(
        pop, lambdas, _train_config(eff, spec),
        n=_parse(eff.get("n", 1000), _int, '"n"'), seed=int(eff["seed"]),
        dc_bins=_parse_optional(opts.get("dc_bins", 20), _int, 'sweep "dc_bins"'),
    )
    rho = _spearman(res.lambdas, [r["eok2"] for r in res.rows])
    csv_path = _out_file(eff, "sweep.csv")
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
    """Run one subcommand: the command computes its result, table lines and
    exit status; only this function times it, writes its report and prints."""
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        eff = _effective(cfg, args)
        started = time.time()
        result, lines, status = _COMMANDS[args.command](eff, cfg)
        report, path = _write_report(args.command, eff, result, started,
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
