"""Correctness gate: every timed op's report is checked before it counts.

An op is one subcommand plus its check.  It fails if the command raised,
exited 2 (or 1 where no bound is involved), or its report fails any of:

* invariants that hold for every seed: ``bounds`` and ``concentration`` exit
  codes match the verdicts they record, each recorded verdict follows from
  the recorded numbers, every number is finite, and each train trace keeps
  ``total = sup + lambda * penalty``;
* on the audit CSV, the plug-in ``eok2`` (as v'Kv) and the unbiased group
  statistic behind ``sup_dp``, recomputed here with a plain blocked loop
  that shares no code with the package;
* at the default seed, the ``result`` objects stored in ``golden.json``.

This module imports numpy only, never ``fairmmd``.
"""

import math

import numpy as np

DEFAULT_SEED = 0
# Float-rounding tolerances.  The reference sums the same 1e8 kernel values
# in another order; at n = 10 000 it differed from the reports by about 1e-16
# (eok2 and sup_dp are both of order 0.1-1).
REF_ABS_TOL = 1e-12
GOLDEN_REL_TOL = 1e-9
GOLDEN_ABS_TOL = 1e-12
TRACE_REL_TOL = 1e-12
# Report keys holding file paths, which name the run's work directory.
PATH_KEYS = frozenset({"path", "csv_path"})
_BLOCK = 512


def reference_stats(csv_path, sigma: float) -> dict:
    """Plug-in eok2 and the unbiased group mmd2 of an rbf(sigma) dataset CSV.

    eok2 = v'Kv with v_i = (2 s_i - 1) w_{y_i} / n_{cell(i)} and w the S=0
    outcome rates; the group statistic is the U-statistic between the rows
    with s = 0 and s = 1.  K is built one row block at a time.
    """
    raw = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    z, s, y = raw[:, :-2], raw[:, -2].astype(int), raw[:, -1].astype(int)
    counts = np.array([[np.sum((s == a) & (y == b)) for b in (0, 1)] for a in (0, 1)])
    w = counts[0] / counts[0].sum()
    v = (2.0 * s - 1.0) * w[y] / counts[s, y]
    g0 = (s == 0).astype(float)
    g1 = (s == 1).astype(float)
    M = np.column_stack([v, g0, g1])
    KM = np.empty_like(M)
    for i in range(0, z.shape[0], _BLOCK):
        diff = z[i:i + _BLOCK, None, :] - z[None, :, :]
        KM[i:i + _BLOCK] = np.exp(-(diff * diff).sum(axis=2) / (2.0 * sigma * sigma)) @ M
    n0, n1 = g0.sum(), g1.sum()
    within0 = (g0 @ KM[:, 1] - n0) / (n0 * (n0 - 1))  # the rbf diagonal is all ones
    within1 = (g1 @ KM[:, 2] - n1) / (n1 * (n1 - 1))
    cross = g0 @ KM[:, 2] / (n0 * n1)
    return {"eok2": float(v @ KM[:, 0]), "group_mmd2": float(within0 + within1 - 2.0 * cross)}


def without_paths(obj):
    """``obj`` with every file-path key dropped, at any depth."""
    if isinstance(obj, dict):
        return {k: without_paths(v) for k, v in obj.items() if k not in PATH_KEYS}
    if isinstance(obj, list):
        return [without_paths(v) for v in obj]
    return obj


def _non_finite(obj, where="result"):
    if isinstance(obj, float) and not math.isfinite(obj):
        yield where
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _non_finite(v, f"{where}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _non_finite(v, f"{where}[{i}]")


def _diff(got, want, where="result"):
    """Places where ``got`` differs from ``want`` beyond float rounding.

    ``want`` is a golden value, stored without file-path keys.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) - PATH_KEYS != set(want):
            yield where
            return
        for k in want:
            yield from _diff(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            yield where
            return
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _diff(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if not math.isclose(got, want, rel_tol=GOLDEN_REL_TOL, abs_tol=GOLDEN_ABS_TOL):
            yield where
    elif type(got) is not type(want) or got != want:
        yield where


def _verdict(clause: dict) -> bool:
    if clause["kind"] == "ge":
        return clause["slack"] >= -clause["tolerance"]
    return abs(clause["slack"]) <= clause["tolerance"]


def check_op(rec: dict, config: dict, reference: dict | None = None,
             golden: dict | None = None) -> list:
    """Problems found with one op record; an empty list means it passed."""
    cmd, result = rec["cmd"], rec["result"]
    if rec["error"]:
        return [f"{cmd} raised:\n{rec['error']}"]
    if rec["exit"] not in ((0, 1) if cmd in ("bounds", "concentration") else (0,)):
        return [f"{cmd} exited {rec['exit']}"]
    if result is None:
        return [f"{cmd} wrote no report"]
    problems = [f"{cmd}: non-finite number at {p}" for p in _non_finite(result)]
    if cmd == "bounds":
        holds = all(c["holds"] for c in result["clauses"])
        if result["all_hold"] != holds or rec["exit"] != (0 if holds else 1):
            problems.append(f"bounds: exit {rec['exit']} disagrees with all_hold")
        problems += [f"bounds: {c['name']} verdict disagrees with its slack"
                     for c in result["clauses"] if c["holds"] != _verdict(c)]
    if cmd == "concentration":
        holds = all(r["quantile_dev"] <= r["bound"] for r in result["rows"])
        if result["holds"] != holds or rec["exit"] != (0 if holds else 1):
            problems.append(f"concentration: exit {rec['exit']} disagrees with holds")
    if cmd == "train":
        lam = config["train"]["lambda"]
        trace = result["trace"]
        for i, (sup, pen, tot) in enumerate(zip(trace["sup"], trace["penalty"], trace["total"])):
            if not math.isclose(tot, sup + lam * pen, rel_tol=TRACE_REL_TOL):
                problems.append(f"train: step {i} total != sup + lambda * penalty")
    if cmd == "sweep":
        if [r["lambda"] for r in result["rows"]] != config["sweep"]["lambdas"]:
            problems.append("sweep: rows do not follow the configured lambdas")
    if reference is not None:
        problems += _check_reference(cmd, result, reference)
    if golden is not None and cmd in golden:
        problems += [f"{cmd}: differs from golden at {p}" for p in _diff(result, golden[cmd])]
    return problems


def _check_reference(cmd: str, result: dict, ref: dict) -> list:
    """Compare audit reports with the independently recomputed statistics."""
    # sup_dp = sqrt(max(mmd2, 0)) / 2 for an rbf kernel (nu = 1).
    sup_dp = math.sqrt(max(ref["group_mmd2"], 0.0)) / 2.0
    got = []
    if cmd == "eok":
        got.append(("plugin eok2", result["plugin"]["eok2"], ref["eok2"]))
    if cmd == "metrics":
        got.append(("sup_dp", result["metrics"]["sup_dp"], sup_dp))
    if cmd == "bounds":
        got += [("sup_dp (floor lhs)", c["lhs"], sup_dp)
                for c in result["clauses"] if c["name"] == "sup_dp_biased_floor"]
    return [f"{cmd}: {name} {a!r} != reference {b!r}"
            for name, a, b in got if not math.isclose(a, b, rel_tol=0.0, abs_tol=REF_ABS_TOL)]
