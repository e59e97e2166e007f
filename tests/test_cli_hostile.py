"""Hostile values for every option of every command, generated from the
CLI's own option tables.

Each case sets one key of a small valid config to a hostile value: counts
get -1 and 0, numbers -1, 0, 1e308 and 1e-320, and every key ``true``,
``"x"``, ``[]``, ``{}`` and ``null``.  A key's kind is read from its
converter: one that takes 0.5 reads a number, one that takes only integers
a count.  No case asks for a huge count, so none can run for long.
"""

import json

import pytest

from fairmmd import cli

ANY = (True, "x", [], {}, None)
COUNTS = (-1, 0)
NUMBERS = (-1, 0, 1e308, 1e-320)
GRID = [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]]
POPULATION = {
    "pi_s": 0.5,
    "p_y_given_s": [[0.6, 0.4], [0.4, 0.6]],
    "cells": {
        "0,0": {"mean": [0.0, 0.0], "cov": [[0.25, 0.0], [0.0, 0.25]]},
        "0,1": {"mean": [1.5, 0.0], "cov": [[0.25, 0.0], [0.0, 0.25]]},
        "1,0": {"mean": [0.6, 0.8], "cov": [[0.25, 0.0], [0.0, 0.25]]},
        "1,1": {"mean": [2.0, 0.5], "cov": [[0.25, 0.0], [0.0, 0.25]]},
    },
}
# A valid config per command, sized so that each run takes milliseconds.
BASE = {"seed": 1, "n": 60, "out": "reports", "population": POPULATION,
        "kernel": {"family": "rbf", "sigma": 1.0}}
SECTIONS = {
    "eok": {"m0": 40, "m1": 40},
    "bounds": {"trials": 3, "n_anchors": 10},
    "concentration": {"grid": GRID, "n_grid": [20, 40], "trials": 3, "g_trials": 4},
    "train": {"steps": 3},
    "sweep": {"lambdas": [0.0, 1.0]},
}
# Values for the keys a table requires.
REQUIRED = {"radius": 9.1, "weights": [1.0, 0.0], "bias": 0.0, "grid": GRID}


def _accepts(convert, value) -> bool:
    try:
        convert(value)
    except Exception:
        return False
    return True


def hostile_values(convert) -> tuple:
    if _accepts(convert, 0.5):
        return ANY + NUMBERS
    if _accepts(convert, 3):
        return ANY + COUNTS
    return ANY


def _with(cfg: dict, section: str, key: str, value) -> dict:
    """A copy of ``cfg`` whose ``section`` (a dotted path) sets ``key``."""
    cfg = json.loads(json.dumps(cfg))
    opts = cfg
    for part in section.split(".") if section else ():
        opts = opts.setdefault(part, {})
    opts[key] = value
    return cfg


def _table_cases(cfg: dict, section: str, table):
    """(key, value, config) for each hostile value of each key of ``table``;
    a variant section's own key, then each of its variants' keys."""
    if isinstance(table, tuple):
        key, _, tables = table
        for value in ANY:
            yield key, value, _with(cfg, section, key, value)
        for kind, variant in tables.items():
            base = _with(cfg, section, key, kind)
            for name, (default, _) in variant.items():
                if default is cli._REQUIRED:
                    base = _with(base, section, name, REQUIRED[name])
            yield from _table_cases(base, section, variant)
        return
    for key, (_, convert) in table.items():
        for value in hostile_values(convert):
            yield key, value, _with(cfg, section, key, value)


def cases(command: str):
    """(case id, config) for every hostile value of every key ``command``
    reads, the top-level keys included."""
    base = dict(BASE, **{s: v for s, v in SECTIONS.items() if s in cli._READS[command][1]})
    for section, table in [("", cli._TOP), *cli._READS[command][1].items()]:
        for key, value, cfg in _table_cases(base, section, table):
            yield f"{command}:{section}:{key}={json.dumps(value)}", cfg


def _not_strict_json(constant):
    raise ValueError(f"report holds {constant}, which is not strict JSON")


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_hostile_option_values_keep_the_exit_contract(tmp_path, monkeypatch, capsys, command):
    """Exit 0 or 2, or 1 only for ``bounds``/``concentration`` with a report
    whose verdict is false; ``main`` returns rather than raises; a report is
    written exactly when the exit code is not 2, and it is strict JSON (no
    NaN or Infinity)."""
    verdict = {"bounds": "all_hold", "concentration": "holds"}
    for i, (case, cfg) in enumerate(cases(command)):
        work = tmp_path / str(i)
        work.mkdir()
        monkeypatch.chdir(work)
        (work / "cfg.json").write_text(json.dumps(cfg))
        try:
            code = cli.main([command, "--config", "cfg.json"])
        except BaseException as exc:
            pytest.fail(f"{case}: main raised {exc!r}")
        capsys.readouterr()
        reports = list(work.rglob(f"{command}.json"))
        assert code in (0, 1, 2), case
        assert (code != 2) == (len(reports) == 1), (case, code, reports)
        for report in reports:
            try:
                json.loads(report.read_text(), parse_constant=_not_strict_json)
            except ValueError as exc:
                pytest.fail(f"{case}: {exc}")
        if code == 1:
            assert command in verdict, case
            result = json.loads(reports[0].read_text())["result"]
            assert result[verdict[command]] is False, case
