"""Hostile values for every option of every command, generated from the
CLI's own option tables.

Each case sets one key of a small valid config to a hostile value: counts
get -1 and 0, numbers -1, 0, 1e308 and 1e-320, and every key ``true``,
``"x"``, ``[]``, ``{}`` and ``null``.  A key that takes a flat list of
numbers also gets a valid list whose first entry is each of the numbers.
The numbers also go to each numeric leaf of ``population``: ``pi_s``, each
``p_y_given_s`` entry, and each entry of one cell's mean and covariance
(the four cells are read alike).
A key's kind is read from its converter: one that takes 0.5 reads a
number, one that takes only integers a count.  No case asks for a huge
count, so none can run for long.  Each section the command reads, and the
top level, also gets one key that no table names, which must exit 2 and be
named.
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
# A key that no option table names.
UNKNOWN = "no_such_key"
# A valid value of each key that takes a flat list of numbers.
LIST = [0.5, 0.5]
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
        if _accepts(convert, LIST):
            for value in NUMBERS:
                entries = [value, *LIST[1:]]
                yield key, entries, _with(cfg, section, key, entries)


# The numeric leaves of POPULATION, as paths of keys and indices.
POPULATION_LEAVES = ([("pi_s",)] + [("p_y_given_s", s, y) for s in range(2) for y in range(2)]
                     + [("cells", "0,0", "mean", i) for i in range(2)]
                     + [("cells", "0,0", "cov", i, j) for i in range(2) for j in range(2)])


def _population_cases(cfg: dict):
    """(leaf, value, config) for each of NUMBERS at each population leaf."""
    for path in POPULATION_LEAVES:
        for value in NUMBERS:
            new = json.loads(json.dumps(cfg))
            node = new["population"]
            for part in path[:-1]:
                node = node[part]
            node[path[-1]] = value
            yield ".".join(map(str, path)), value, new


def cases(command: str):
    """(case id, config) for every hostile value of every key ``command``
    reads, the top-level keys included."""
    base = dict(BASE, **{s: v for s, v in SECTIONS.items() if s in cli._READS[command][1]})
    for section, table in [("", cli._TOP), *cli._READS[command][1].items()]:
        for key, value, cfg in _table_cases(base, section, table):
            yield f"{command}:{section}:{key}={json.dumps(value)}", cfg
        yield f"{command}:{section}:{UNKNOWN}=1", _with(base, section, UNKNOWN, 1)
    for leaf, value, cfg in _population_cases(base):
        yield f"{command}:population.{leaf}={json.dumps(value)}", cfg


def _not_strict_json(constant):
    raise ValueError(f"report holds {constant}, which is not strict JSON")


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_hostile_option_values_keep_the_exit_contract(tmp_path, monkeypatch, capsys, command):
    """Exit 0 or 2, or 1 only for ``bounds``/``concentration`` with a report
    whose verdict is false; ``main`` returns rather than raises; exit 2
    prints one stderr line, which starts with ``error: ``; a report is
    written exactly when the exit code is not 2, and it is strict JSON (no
    NaN or Infinity).  An unknown key exits 2 and is named."""
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
        err = capsys.readouterr().err
        reports = list(work.rglob(f"{command}.json"))
        assert code in (0, 1, 2), case
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (case, err)
        if UNKNOWN in case:
            assert code == 2 and f"unknown key {UNKNOWN!r}" in err, (case, err)
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
