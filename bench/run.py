"""fairmmd benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload audit --seed 0 --seconds 25 --trace 0

Run from anywhere; paths resolve against this file's checkout.  Each
workload runs in fresh worker processes (``worker.py``) that drive
``fairmmd.cli.main`` in-process.  ``--trace 0`` reports the end-to-end
metrics named in BENCHMARK.json from one untraced worker plus four set-up
probes, with every time scaled to the reference machine speed by the
calibration kernel timed beside it (``worker.calibrate``); ``--trace 1``
reports the per-layer metrics from one worker that runs each command twice
untraced and then traced, and ``trace.overhead_frac`` from the last two.  Every op is checked by
``gate.py``.  Human-readable lines come first; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record, including an environment fingerprint and
per-command times, is written to ``.bench_work/results/``.  The run exits 2 without a result when the
checkout holds no ``src/fairmmd`` package or a worker fails.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5
DEADLINE_S = 170.0
GOLDEN = HERE / "golden.json"


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# environment fingerprint


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fairmmd").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


# ---------------------------------------------------------------------------
# workers


def _spawn(args, work: Path, started: float, trace: int, setup_only: bool = False) -> dict:
    result = work / "result.json"
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--size", args.size, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--work", str(work), "--result", str(result),
           "--t0", repr(t0)] + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {left:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(result.read_text())


def _gate(out: dict, args, work: Path, golden: dict | None) -> tuple:
    """(attempted, problems) over every timed op of the worker."""
    configs = dict(workloads.plan(args.workload, args.size, args.seed)["ops"])
    reference = None
    if args.workload == "audit":
        reference = gate.reference_stats(work / workloads.DATASET, workloads.RBF["sigma"])
    attempted, problems = 0, []
    for cycle in out["cycles"]:
        for rec in cycle:
            attempted += 1
            found = gate.check_op(rec, configs[rec["cmd"]], reference, golden)
            if found:
                problems.append("; ".join(found))
    return attempted, problems


def _cmd_times(out: dict) -> dict:
    """Median seconds of each command over the worker's cycles."""
    times = {}
    for cycle in out["cycles"]:
        for rec in cycle:
            times.setdefault(rec["cmd"], []).append(rec["seconds"])
    return {cmd: statistics.median(v) for cmd, v in times.items()}


def _wall(out: dict) -> float:
    return statistics.median(sum(rec["seconds"] for rec in c) for c in out["cycles"])


def _ref_s(seconds: float, cal_s: float, out: dict) -> float:
    """``seconds`` at the reference machine speed, given the calibration time."""
    return seconds * out["cal_ref_s"] / cal_s


def _wall_ref(out: dict) -> float:
    """Median over cycles of the cycle's time at the reference speed.

    A cycle's calibration is the mean of those timed before its commands.
    One calibration alone varies by about 20% from the next, so each cycle
    is scaled by the median calibration of itself and its two neighbours.
    """
    cycles = out["cycles"]
    cal = [statistics.mean(rec["cal_s"] for rec in c) for c in cycles]
    return statistics.median(
        _ref_s(sum(rec["seconds"] for rec in c), statistics.median(cal[max(0, i - 1):i + 2]), out)
        for i, c in enumerate(cycles))


# ---------------------------------------------------------------------------
# golden values


def _load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {"seed": gate.DEFAULT_SEED}


def _record_golden(args, out: dict) -> None:
    if args.seed != gate.DEFAULT_SEED:
        raise BenchError(f"golden values are recorded at seed {gate.DEFAULT_SEED} only")
    data = _load_golden()
    data.setdefault(args.size, {})[args.workload] = {
        rec["cmd"]: gate.without_paths(rec["result"]) for rec in out["cycles"][0]}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------


def run(args) -> dict:
    if not (ROOT / "src" / "fairmmd" / "__init__.py").is_file():
        raise BenchError(f"no fairmmd package under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.monotonic()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.size}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        main = _spawn(args, work / "main", started, trace=args.trace)
        setups = []
        if not args.trace:
            setups = [main] + [
                _spawn(args, work / f"setup-{i}", started, trace=0, setup_only=True)
                for i in range(1, SETUP_RUNS)]
        golden_all = _load_golden()
        golden = None
        if not args.record_golden and args.seed == golden_all.get("seed"):
            golden = golden_all.get(args.size, {}).get(args.workload)
        attempted, problems = _gate(main, args, work / "main", golden)
        if args.record_golden:
            if problems:
                raise BenchError(f"not recording golden values, the gate failed: {problems}")
            _record_golden(args, main)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Traced, the worker's cycles are a warm-up, an untraced and a traced one.
    untraced = {"cycles": main["cycles"][1:2]} if args.trace else main
    cmd_s = _cmd_times(untraced)
    record = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": fingerprint(),
        "cycles_s": [sum(rec["seconds"] for rec in c) for c in untraced["cycles"]],
        "cmd_s": cmd_s, "setup_runs_s": [s["setup_s"] for s in setups],
        "setup_cal_s": [s["setup_cal_s"] for s in setups],
        "ops_attempted": attempted, "ops_failed": len(problems), "problems": problems,
        "ops_failed_frac": len(problems) / attempted,
    }
    if args.trace:
        plain = untraced["cycles"][0]
        span_s = {rec["cmd"]: main["cli_total_s"][f"cli.{rec['cmd']}"] for rec in plain}
        plain_s = sum(rec["seconds"] for rec in plain)
        metrics = dict(main["spans"], **main["probe"])
        metrics["trace.overhead_frac"] = (sum(span_s.values()) - plain_s) / plain_s
        record["cli_span_over_untraced"] = {
            rec["cmd"]: span_s[rec["cmd"]] / rec["seconds"] for rec in plain}
        wanted = spec["per_layer"]
    else:
        record["wall_s"] = _wall(main)
        record["cal_s"] = [rec["cal_s"] for c in main["cycles"] for rec in c]
        metrics = {
            "setup_s": statistics.median(_ref_s(s["setup_s"], s["setup_cal_s"], s)
                                         for s in setups),
            "wall_ref_s": _wall_ref(main),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json were not measured: {missing}")
    record["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"BENCH_{args.workload}-{args.size}-s{args.seed}-t{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="fairmmd benchmark (see bench/README.md)")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="untraced workers repeat the command cycle until this has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="tiny shrinks every size, for the benchmark's self-tests")
    p.add_argument("--record-golden", action="store_true",
                   help=f"store this run's results as golden (seed {gate.DEFAULT_SEED} only)")
    args = p.parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"env: {json.dumps(record['env'], sort_keys=True)}")
    print(f"workload {args.workload} (size {args.size}, seed {args.seed}, trace {args.trace}): "
          f"{len(record['cycles_s'])} cycle(s), {record['ops_attempted']} ops, "
          f"{record['ops_failed']} failed (ops_failed_frac {record['ops_failed_frac']:.3f})")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    for cmd, s in record["cmd_s"].items():
        print(f"  cmd.{cmd}_s = {s:.4f} s")
    if "wall_s" in record:
        print(f"  wall_s = {record['wall_s']:.4f} s (unscaled)")
    for cmd, r in record.get("cli_span_over_untraced", {}).items():
        print(f"  cli.{cmd} traced span / untraced {cmd} = {r:.3f}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": record["ops_failed"] == 0,
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
