"""One benchmark worker: a fresh process that sets up and runs one workload.

Started by ``run.py``.  The worker imports ``fairmmd`` from the checkout's
``src/``, writes the workload's configs, runs its setup commands, and then
drives ``fairmmd.cli.main`` in-process as a closed loop with one client: a
subcommand starts only after the previous one has returned.  Untraced, it
repeats the workload's command cycle until ``--seconds`` have passed (at
least one cycle), timing a fixed calibration kernel before each command,
so the parent can scale every time to the reference machine speed (see
:func:`calibrate`).  Traced, it runs each command twice
untraced and then once under :class:`spans.Tracer`, so its cycles are a
warm-up, an untraced and a traced one, and then probes ``kernels.pairwise``
on the workload's rows.  Everything it measures, plus each command's exit code and report
``result``, goes to the JSON file named by ``--result``; the parent checks
correctness.
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

STRIP_HEIGHTS = (256, 2048)
PROBE_MIN_SECONDS = 0.5
# Median of calibrate() on the reference machine (bench/README.md): a time
# scaled by CAL_REF_S / calibrate() reads as seconds at that machine's speed.
CAL_REF_S = 0.12
SETUP_CALIBRATIONS = 3


def calibrate() -> float:
    """Seconds taken by a fixed mix of the work the workloads do.

    A Python loop, many numpy calls on small arrays and a few rbf-sized
    passes over 1500 x 1500 arrays.  It shares no code with ``fairmmd``, so a
    change to the package does not move it; only the machine's speed does.
    On a shared machine that speed drifts by 20-30% over minutes, and a
    command's time divided by the calibration timed beside it in the same
    process drifts much less.
    """
    rng = np.random.default_rng(0)
    small, big = rng.normal(size=(64, 2)), rng.normal(size=(1500, 2))
    sq = (big * big).sum(axis=1)
    start = time.perf_counter()
    seen = {}
    for i in range(150_000):
        seen[i & 255] = i * 3 % 7
    for _ in range(1500):
        np.exp(-(small @ small.T)).sum()
    for _ in range(3):
        np.exp(-(sq[:, None] + sq[None, :] - 2.0 * (big @ big.T))).sum()
    return time.perf_counter() - start


def _write_configs(work: Path, pairs) -> list:
    out = []
    for i, (cmd, cfg) in enumerate(pairs):
        path = work / f"{i}-{cmd}.config.json"
        path.write_text(json.dumps(dict(cfg, out=str(work))))
        out.append((cmd, path))
    return out


def _run_command(cli, work: Path, cmd: str, config: Path, tracer=None) -> dict:
    """One subcommand through ``cli.main``, timed; returns its record."""
    report = work / f"{cmd}.json"
    report.unlink(missing_ok=True)
    argv = [cmd, "--config", str(config), "--format", "table"]
    rec = {"cmd": cmd, "exit": None, "error": None, "result": None}
    if tracer:
        tracer.install()
        frame = tracer.enter(f"cli.{cmd}")
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rec["exit"] = cli.main(argv)
    except Exception:  # any escape from the CLI is a failed op, recorded for the gate
        rec["error"] = traceback.format_exc()
    finally:
        rec["seconds"] = time.perf_counter() - start
        if tracer:
            tracer.exit(frame)
            tracer.uninstall()
    if rec["exit"] in (0, 1) and report.is_file():
        rec["result"] = json.loads(report.read_text())["result"]
    return rec


def _set_up(cli, work: Path, plan: dict, tracer=None) -> tuple:
    """Run the plan's setup commands; return their records and the op configs."""
    work.mkdir(parents=True, exist_ok=True)
    recs = []
    for cmd, config in _write_configs(work, plan["setup"]):
        rec = _run_command(cli, work, cmd, config, tracer)
        recs.append(rec)
        if rec["exit"] != 0:
            raise SystemExit(f"setup command {cmd} failed: {rec}")
    return recs, _write_configs(work, plan["ops"])


def _probe_rows(workload: str, size: str, seed: int, work: Path):
    """The rows and kernel the workload's O(n^2) passes run on."""
    from fairmmd import kernels, synth
    from fairmmd.complexity import suggest_radius

    pop = synth.population_from_dict(workloads.POPULATION)
    z = workloads.SIZES[size]
    if workload == "audit":
        return synth.read_csv(work / workloads.DATASET)[0].z, kernels.rbf(1.0)
    if workload == "fit":
        return synth.sample_population(pop, z["train_n"], seed).z, kernels.rbf(1.0)
    maps = workloads.encoder_maps(seed, z["maps"])
    rows = synth.sample_population(pop, max(z["n_grid"]), seed).z
    return rows, kernels.linear(suggest_radius(pop, maps))


def _probe_pairwise(rows, spec) -> dict:
    """Throughput of full passes of ``kernels.pairwise`` in row strips."""
    from fairmmd.kernels import pairwise

    n = rows.shape[0]
    out = {}
    for b in STRIP_HEIGHTS:
        times = []
        while not times or sum(times) < PROBE_MIN_SECONDS:
            start = time.perf_counter()
            for i in range(0, n, b):
                pairwise(spec, rows[i:i + b], rows)
            times.append(time.perf_counter() - start)
        key = f"kernels.pairwise.b{b}"
        out[f"{key}.mentries_per_s"] = n * n / 1e6 / statistics.median(times)
        # Computed, not measured: bytes of one float64 output strip.
        out[f"{key}.strip_mb_computed"] = min(b, n) * n * 8 / 1e6
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--size", required=True, choices=sorted(workloads.SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--work", required=True, help="directory for configs and reports")
    p.add_argument("--result", required=True, help="JSON file this worker writes")
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this worker")
    args = p.parse_args(argv)
    work = Path(args.work)

    from fairmmd import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported fairmmd from {cli.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    out = {"cycles": []}
    out["setup"], ops = _set_up(cli, work, workloads.plan(args.workload, args.size, args.seed),
                                tracer)
    out["setup_s"] = time.monotonic() - args.t0
    calibrate()  # first-call costs
    out["setup_cal_s"] = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
    out["cal_ref_s"] = CAL_REF_S
    if tracer:
        # Each command runs untraced twice and then traced.  The first run
        # pays first-call costs (sweep imports scipy.stats, large arrays
        # fault in fresh pages), so the second and third are both warm and
        # back to back: a drift in machine speed over minutes does not show
        # as tracing overhead.
        runs = [[_run_command(cli, work, cmd, config, t) for t in (None, None, tracer)]
                for cmd, config in ops]
        out["cycles"] = [list(cycle) for cycle in zip(*runs)]
    elif not args.setup_only:
        start = time.perf_counter()
        while True:
            cycle = []
            for cmd, config in ops:
                cal = calibrate()
                cycle.append(dict(_run_command(cli, work, cmd, config), cal_s=cal))
            out["cycles"].append(cycle)
            if time.perf_counter() - start >= args.seconds:
                break
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer:
        out["spans"] = tracer.metrics()
        out["cli_total_s"] = {k: v for k, v in tracer.total_s.items() if k.startswith("cli.")}
        out["probe"] = _probe_pairwise(*_probe_rows(args.workload, args.size, args.seed, work))
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
