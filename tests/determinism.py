"""End-to-end check that reports do not depend on CPUs or BLAS threads.

Runs every ``fairmmd`` subcommand, each in a fresh process, under four
settings: the CPU masks ``taskset -c 0`` and ``taskset -c 0,1`` (the first
two CPUs this process may use), each with ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` unset and with ``OPENBLAS_NUM_THREADS=1``.  Every
square kernel pass over the sampled rows splits across two threads where
two CPUs are allowed, and BLAS enters through the tile products of the
training steps and of the calibration chain's score pass, the Gram sums'
W'KW and the linear closed forms.

``eok``, ``metrics`` and ``bounds`` sample n = 8000 rows, so that each
(s, y) cell spans at least five column tiles of the cell-sums pass.  At
n = 1000 each cell spans at most two, so every output entry of that pass
sums at most two tile products, and a + b = b + a exactly: a split pass
that added its products in arrival order would still give the same bits.
With such a sink, at n = 4000 (three or more tiles a cell) an audit
command differed in 7 of 12 runs, and at n = 8000 in 7 of 7.
``train`` and the three sweeps sample n = 1000 rows; the mini-batch sweeps
run their lambdas in lockstep, as one stacked step, on one batch draw per
step.  ``sweep-batch`` (batch 64) makes one-tile passes, which run on the
calling thread with no sink; ``sweep-tile`` (batch 280, which the
stratified draw keeps at 280 rows, one full tile of 264 and 16 more)
makes two-tile square passes through the tile loop and its sink.  A
training step reduces its kernel tiles by BLAS, against 1 + d columns for
rows with d coordinates.  The OpenBLAS that numpy loads (0.3.31) keeps a
full tile's product on one thread up to 7 columns and splits it across
two from 8 on (264 * 264 * 8 multiply-adds pass twice its per-thread
threshold of 65536 * 4; a timing probe read process CPU time at 1.0 and
1.8-2.2 times wall time), so the tile reduction multiplies in chunks of
at most 7 columns.  ``train-wide`` trains on a population with d = 8, so
its steps reduce 9 columns in two chunks, 7 and 2: it checks that the
chunked route gives the same bits under every setting.  The
concentration config runs 20 trials at n = 100 and n = 3200, in two blocks
at n = 3200, so the check's one encoding product per block of trials runs
under every setting too.

The reports of each command must agree apart from ``timing`` and the paths
they name, with the same exit status, and ``dataset.csv`` and ``sweep.csv``
byte for byte.  Exits 0 when everything agrees and 1 otherwise, printing
each difference.  pytest does not collect this file; run it with

    python3 tests/determinism.py

It needs ``taskset`` and at least two CPUs.

    python3 tests/determinism.py --against PATH

compares this checkout with another one at PATH instead: the same configs,
plus the benchmark's audit and fit plans at seeds 0 and 7 (from
``bench/workloads.py``'s ``plan``), each run once with ``PYTHONPATH`` at
this tree's ``src`` and once at PATH's, under the first setting above.  For
each command it prints ``identical``, or else the number of report leaves
that differ, the largest relative change and its JSON path, and each
differing leaf (the ten largest); and whether ``dataset.csv`` and
``sweep.csv`` are byte-equal.  A leaf that is not a number on both sides
counts as an infinite change.  This mode reports and always exits 0.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

POPULATION = {
    "pi_s": 0.5,
    "p_y_given_s": [[0.7, 0.3], [0.3, 0.7]],
    "cells": {
        "0,0": {"mean": [0.0, 0.0], "cov": [[0.25, 0.0], [0.0, 0.25]]},
        "0,1": {"mean": [1.5, 0.0], "cov": [[0.25, 0.0], [0.0, 0.25]]},
        "1,0": {"mean": [0.6, 0.8], "cov": [[0.25, 0.0], [0.0, 0.25]]},
        "1,1": {"mean": [2.0, 0.5], "cov": [[0.25, 0.0], [0.0, 0.25]]},
    },
}

# POPULATION with WIDE_D coordinates: the means padded with zeros, the
# covariance isotropic as before.
WIDE_D = 8
WIDE_POPULATION = dict(POPULATION, cells={
    key: {"mean": cell["mean"] + [0.0] * (WIDE_D - 2),
          "cov": [[0.25 if i == j else 0.0 for j in range(WIDE_D)] for i in range(WIDE_D)]}
    for key, cell in POPULATION["cells"].items()})

# One run per name: its command and its config on top of CONFIG.
CONFIG = {"seed": 3, "n": 1000, "population": POPULATION,
          "kernel": {"family": "rbf", "sigma": 1.0}}
AUDIT_N = 8000
RUNS = {
    "generate": ("generate", {}),
    "metrics": ("metrics", {"n": AUDIT_N}),
    "eok": ("eok", {"n": AUDIT_N}),
    "bounds": ("bounds", {"n": AUDIT_N}),
    "concentration": ("concentration", {
        "kernel": {"family": "linear", "radius": 10.0},
        "concentration": {"grid": [[[1, 0], [0, 1]], [[0.5, 0.5], [0, 1]]],
                          "n_grid": [100, 3200], "trials": 20}}),
    "train": ("train", {"train": {"steps": 20}}),
    "train-wide": ("train", {"population": WIDE_POPULATION, "train": {"steps": 20}}),
    "sweep": ("sweep", {"train": {"steps": 10}, "sweep": {"lambdas": [0.0, 1.0]}}),
    "sweep-batch": ("sweep", {"train": {"steps": 10, "batch": 64},
                              "sweep": {"lambdas": [0.0, 0.3, 1.0]}}),
    "sweep-tile": ("sweep", {"train": {"steps": 10, "batch": 280},
                             "sweep": {"lambdas": [0.0, 0.3, 1.0]}}),
}
# Files a command writes besides its report, compared byte for byte.
WRITES = {"generate": "dataset.csv", "sweep": "sweep.csv"}
# Report keys that hold a path into the run's output directory.
PATHS = ("path", "csv_path")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# A leaf that one of two compared reports lacks, and how many differing
# leaves --against lists per command.
MISSING = object()
SHOWN = 10


def settings():
    """(name, CPU mask, extra environment) of each setting."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        sys.exit(f"determinism.py needs two CPUs, this process may use {cpus}")
    for mask in (f"{cpus[0]}", f"{cpus[0]},{cpus[1]}"):
        for blas in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
            name = f"taskset -c {mask}" + "".join(f" {k}={v}" for k, v in blas.items())
            yield name, mask, blas


def comparable(report: dict) -> str:
    """The report without ``timing`` and the paths it names."""
    report = dict(report, result={k: v for k, v in report["result"].items() if k not in PATHS})
    del report["timing"]
    return json.dumps(report, sort_keys=True, indent=2)


def run(command: str, cfg_path: Path, out: Path, mask: str, blas: dict, src: Path = SRC) -> tuple:
    """Exit status, comparable report and written file of one command, with
    the package imported from ``src``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(blas, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(["taskset", "-c", mask, sys.executable, "-m", "fairmmd", command,
                           "--config", str(cfg_path), "--out", str(out), "--format", "json"],
                          env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode == 2:
        return proc.returncode, proc.stderr, None
    report = comparable(json.loads((out / f"{command}.json").read_text()))
    written = (out / WRITES[command]).read_bytes() if command in WRITES else None
    return proc.returncode, report, written


def main() -> int:
    failures = []
    runs = list(settings())
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for label, (command, extra) in RUNS.items():
            cfg_path = tmp / f"{label}.json"
            cfg_path.write_text(json.dumps(dict(CONFIG, **extra)))
            results = [run(command, cfg_path, tmp / f"{label}-{i}", mask, blas)
                       for i, (_, mask, blas) in enumerate(runs)]
            first = results[0]
            if first[0] == 2:
                failures.append(f"{label}: exit 2: {first[1].strip()}")
            failures += [f"{label}: {what} under {name} differs from {runs[0][0]}"
                         for (name, _, _), result in zip(runs[1:], results[1:])
                         for what, a, b in zip(("exit status", "report", WRITES.get(command)),
                                               first, result) if a != b]
            print(f"{label}: {len(runs)} runs, exit {first[0]}")
    print("\n".join(failures + [f"determinism: {len(failures)} difference(s)"]))
    return 1 if failures else 0


def plans() -> dict:
    """Each config of RUNS as a plan of one command, and the benchmark's audit
    and fit plans at seeds 0 and 7: plan name -> [(command, config)], run in
    order in one directory, so that a config naming ``dataset`` reads the
    CSV of its plan's ``generate``."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    out = {label: [(command, dict(CONFIG, **extra))] for label, (command, extra) in RUNS.items()}
    for workload in ("audit", "fit"):
        for seed in (0, 7):
            plan = workloads.plan(workload, "full", seed)
            out[f"{workload}-{seed}"] = plan["setup"] + plan["ops"]
    return out


def _leaves(obj, path: str = ""):
    """(JSON path, value) of every leaf of a parsed report."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, obj


def changes(a, b) -> list:
    """(relative change, JSON path) of each leaf where a and b differ, the
    largest first; a leaf that is not a number on both sides, or that only
    one side has, counts as an infinite change."""
    la, lb = dict(_leaves(a)), dict(_leaves(b))
    out = []
    for path in la.keys() | lb.keys():
        x, y = la.get(path, MISSING), lb.get(path, MISSING)
        if type(x) is type(y) and x == y:
            continue
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        out.append((abs(x - y) / max(abs(x), abs(y)) if numbers and x != y
                    else 0.0 if numbers else math.inf, path))
    return sorted(out, reverse=True)


def against(other: Path) -> int:
    """Run every plan with this tree's package and with ``other``'s, and
    print how each command's report and written file differ."""
    other_src = other.resolve() / "src"
    if not (other_src / "fairmmd").is_dir():
        sys.exit(f"determinism.py: no src/fairmmd package under {other}")
    name, mask, blas = next(settings())
    print(f"{SRC} against {other_src}, under {name}")
    with tempfile.TemporaryDirectory() as tmp:
        for label, jobs in plans().items():
            results = []
            for tree, src in (("here", SRC), ("other", other_src)):
                work = Path(tmp) / tree / label
                work.mkdir(parents=True)
                results.append([])
                for i, (command, cfg) in enumerate(jobs):
                    cfg_path = work / f"{i}-{command}.json"
                    cfg_path.write_text(json.dumps(cfg))
                    results[-1].append(run(command, cfg_path, work, mask, blas, src))
            for (command, _), here, there in zip(jobs, *results):
                # An exit 2 leaves stderr in place of the report.
                diffs = changes(*({"exit status": code, "report": report if code == 2
                                   else json.loads(report)} for code, report, _ in (here, there)))
                line = f"{label}:{command}: " + (
                    "identical" if not diffs else
                    f"{len(diffs)} leaves differ, largest relative change {diffs[0][0]:.2g} "
                    f"at {diffs[0][1]}")
                if command in WRITES:
                    line += f"; {WRITES[command]} " + (
                        "byte-equal" if here[2] == there[2] else "differs")
                print(line + "".join(f"\n    {rel:.2g}  {path}" for rel, path in diffs[:SHOWN])
                      + (f"\n    and {len(diffs) - SHOWN} more" if len(diffs) > SHOWN else ""))
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, metavar="PATH",
                        help="compare this checkout's reports with those of the checkout at PATH")
    args = parser.parse_args()
    sys.exit(main() if args.against is None else against(args.against))
