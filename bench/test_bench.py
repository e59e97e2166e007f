"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py

They run every workload at the ``tiny`` size, so they take under a minute.
"""

import copy
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work():
    path = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(*args) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--size", "tiny", *args],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_named_metric(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]


def test_perturbed_golden_value_fails_one_op(work, monkeypatch, capsys):
    import run

    args = ["--workload", "audit", "--seed", str(gate.DEFAULT_SEED), "--seconds", "0",
            "--size", "tiny"]
    assert run.main(args) == 0
    clean = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert clean["correct"] and clean["attempted"] == 3
    bad = json.loads(run.GOLDEN.read_text())
    bad["tiny"]["audit"]["eok"]["plugin"]["eok2"] *= 1.0 + 1e-6
    path = work / "golden.json"
    path.write_text(json.dumps(bad))
    monkeypatch.setattr(run, "GOLDEN", path)
    assert run.main(args) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not out["correct"]
    assert (out["attempted"], out["failed"]) == (3, 1)


def test_traced_run_removes_its_wrappers(work):
    import worker

    result = work / "traced.json"
    assert worker.main(["--workload", "audit", "--size", "tiny", "--seed", "1",
                        "--seconds", "0", "--trace", "1", "--work", str(work / "w"),
                        "--result", str(result), "--t0", "0"]) == 0
    traced = json.loads(result.read_text())
    assert traced["spans"]["cli.metrics.fairness.evaluate_batch.calls"] == 11

    fairmmd = importlib.import_module("fairmmd")
    assert fairmmd.cli.sup_dp is fairmmd.fairness.sup_dp
    assert fairmmd.fairness.evaluate_batch is fairmmd.bounds.evaluate_batch
    for modname in spans.REBOUND_IN:
        mod = importlib.import_module(f"fairmmd.{modname}")
        for names in spans.SPANS.values():
            for attr in names:
                assert not hasattr(getattr(mod, attr, None), "__wrapped__"), (modname, attr)


def _cycle(seconds: float, cal_s: float) -> list:
    return [{"cmd": "concentration", "seconds": seconds, "cal_s": cal_s}]


def test_wall_ref_scales_cycles_to_reference_speed():
    import run

    steady = {"cal_ref_s": 0.1, "cycles": [_cycle(2.0, 0.1), _cycle(3.0, 0.1), _cycle(4.0, 0.1)]}
    assert run._wall_ref(steady) == pytest.approx(3.0)
    # Twice as slow reads the same, and one stray calibration is outvoted.
    slow = {"cal_ref_s": 0.1,
            "cycles": [_cycle(4.0, 0.2), _cycle(6.0, 0.9), _cycle(8.0, 0.2), _cycle(6.0, 0.2)]}
    assert run._wall_ref(slow) == pytest.approx(3.0)


def _bounds_rec(holds: bool, exit_code: int) -> dict:
    clause = {"name": "c", "kind": "ge", "lhs": 1.0, "rhs": 0.5 if holds else 2.0,
              "slack": 0.5 if holds else -1.0, "tolerance": 0.0, "holds": holds}
    return {"cmd": "bounds", "exit": exit_code, "error": None,
            "result": {"clauses": [clause], "all_hold": holds}}


def test_gate_checks_bound_exit_codes_and_verdicts():
    assert gate.check_op(_bounds_rec(True, 0), {}) == []
    assert gate.check_op(_bounds_rec(False, 1), {}) == []
    assert gate.check_op(_bounds_rec(True, 1), {})
    rec = _bounds_rec(True, 0)
    rec["result"]["clauses"][0]["slack"] = -1.0
    assert gate.check_op(rec, {})
    assert gate.check_op(dict(_bounds_rec(True, 0), exit=2), {})


def test_gate_checks_train_trace_and_finiteness():
    trace = {"sup": [0.5, 0.4], "penalty": [0.1, 0.05], "total": [0.6, 0.45]}
    rec = {"cmd": "train", "exit": 0, "error": None, "result": {"trace": trace}}
    config = {"train": {"lambda": 1.0}}
    assert gate.check_op(rec, config) == []
    broken = copy.deepcopy(rec)
    broken["result"]["trace"]["total"][1] = 0.46
    assert gate.check_op(broken, config)
    broken = copy.deepcopy(rec)
    broken["result"]["trace"]["sup"][0] = float("nan")
    assert gate.check_op(broken, config)


ROWS = [(0.0, 0.0, 0, 0), (1.0, 0.5, 0, 1), (0.2, 0.1, 0, 0), (2.0, 1.0, 1, 0),
        (1.5, 0.0, 1, 1), (0.3, 0.9, 1, 1), (0.7, 0.2, 1, 0), (1.1, 1.3, 0, 1)]


def test_reference_stats_match_dense_block_means(work):
    import numpy as np

    csv = work / "d.csv"
    csv.write_text("z_0,z_1,s,y\n" + "".join(f"{a},{b},{s},{y}\n" for a, b, s, y in ROWS))
    raw = np.array(ROWS)
    z, s, y = raw[:, :2], raw[:, 2].astype(int), raw[:, 3].astype(int)
    K = np.exp(-((z[:, None] - z[None]) ** 2).sum(-1) / 2.0)
    w = np.array([np.mean(y[s == 0] == 0), np.mean(y[s == 0] == 1)])

    def block(g1, c1, g2, c2):
        return K[np.ix_((s == g1) & (y == c1), (s == g2) & (y == c2))].mean()

    eok2 = sum(w[a] * w[b] * (block(0, a, 0, b) + block(1, a, 1, b)
                              - block(0, a, 1, b) - block(1, a, 0, b))
               for a in (0, 1) for b in (0, 1))
    n0, n1 = np.sum(s == 0), np.sum(s == 1)
    k00 = K[np.ix_(s == 0, s == 0)].sum()
    k11 = K[np.ix_(s == 1, s == 1)].sum()
    mmd2 = ((k00 - n0) / (n0 * (n0 - 1)) + (k11 - n1) / (n1 * (n1 - 1))
            - 2.0 * K[np.ix_(s == 0, s == 1)].mean())
    ref = gate.reference_stats(csv, 1.0)
    assert ref["eok2"] == pytest.approx(eok2, abs=1e-14)
    assert ref["group_mmd2"] == pytest.approx(mmd2, abs=1e-14)
