"""Workload definitions: the CLI configs each workload runs, built from a seed.

Every workload uses the README quick-start population (d = 2, outcome rates
[[.7, .3], [.3, .7]]).  ``setup`` commands produce the workload's inputs and
count towards ``setup_s``; ``ops`` are the timed subcommands, run in order as
a closed loop with one client.  ``tiny`` shrinks every size so the
benchmark's self-tests finish in seconds; ``full`` is what BENCHMARK.json
measures.  A ``full`` cycle lasts a few seconds, so one run repeats it
several times and reports medians: on a shared machine whose speed drifts,
one long cycle per run would be too noisy to compare against a bound.
"""

import numpy as np

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

RBF = {"family": "rbf", "sigma": 1.0}

SIZES = {
    "full": {
        "audit_n": 5000,
        "train_n": 3000, "train_steps": 10,
        "sweep_n": 800, "sweep_batch": 256, "sweep_steps": 100,
        "n_grid": [100, 200, 400, 800, 1600, 3200], "trials": 250, "maps": 6,
    },
    "tiny": {
        "audit_n": 400,
        "train_n": 200, "train_steps": 3,
        "sweep_n": 120, "sweep_batch": 32, "sweep_steps": 5,
        "n_grid": [64, 128], "trials": 5, "maps": 2,
    },
}

WORKLOADS = ("audit", "fit", "certify")
DATASET = "dataset.csv"


def encoder_maps(seed: int, count: int) -> list:
    """The certify workload's encoder grid: ``count`` seeded 2 x 2 maps."""
    rng = np.random.default_rng([seed, 3])
    return rng.uniform(-1.0, 1.0, size=(count, 2, 2)).tolist()


def plan(workload: str, size: str, seed: int) -> dict:
    """Setup and timed commands of one workload, as (command, config) pairs.

    Configs omit ``out``; the worker points every command at its own work
    directory, and a config naming ``dataset`` reads the CSV that the
    workload's ``generate`` step wrote there.
    """
    z = SIZES[size]
    base = {"seed": seed}
    if workload == "audit":
        on_csv = dict(base, dataset=DATASET, kernel=RBF)
        return {
            "setup": [("generate", dict(base, n=z["audit_n"], population=POPULATION))],
            "ops": [
                ("eok", dict(on_csv, eok={"method": "both"})),
                ("metrics", dict(on_csv, metrics={"classifier": {"kind": "witness"}})),
                ("bounds", on_csv),
            ],
        }
    if workload == "fit":
        pop = dict(base, population=POPULATION, kernel=RBF)
        return {
            "setup": [],
            "ops": [
                ("train", dict(pop, n=z["train_n"],
                               train={"lambda": 1.0, "steps": z["train_steps"]})),
                ("sweep", dict(pop, n=z["sweep_n"],
                               train={"steps": z["sweep_steps"], "step_size": 0.2,
                                      "batch": z["sweep_batch"]},
                               sweep={"lambdas": [0.0, 0.3, 1.0, 3.0, 10.0]})),
            ],
        }
    if workload == "certify":
        return {
            "setup": [],
            "ops": [
                ("concentration", dict(base, population=POPULATION, concentration={
                    "grid": encoder_maps(seed, z["maps"]),
                    "n_grid": z["n_grid"], "trials": z["trials"],
                })),
            ],
        }
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
