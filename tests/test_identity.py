"""Bit identity of sweep records and run_case reports against a committed fixture.

identity_fixture.json is written by make_identity_fixture.py.  Error tags and
messages must match it exactly everywhere; values match it by repr when numpy,
its BLAS and the machine are those the fixture was made with, and are not
compared elsewhere (the test then skips, naming the fields that differ).
"""

import json

import pytest

import make_identity_fixture as maker


def test_records_and_reports_match_the_identity_fixture():
    fixture = json.loads(maker.FIXTURE.read_text())
    current = maker.collect()
    assert current["sweeps"].keys() == fixture["sweeps"].keys()
    pairs = [(name, now, then) for name in fixture["sweeps"]
             for now, then in zip(current["sweeps"][name], fixture["sweeps"][name], strict=True)]
    pairs += [(name, now, then) for name in ("cases", "readme")
              for now, then in zip(current[name], fixture[name], strict=True)]
    # Cells and error tags (and run_case's error messages) hold on any machine.
    assert [(name, now[:2]) for name, now, _ in pairs] == [(name, then[:2])
                                                           for name, _, then in pairs]
    if differing := maker.differing_environment(fixture, current):
        pytest.skip(f"values not compared: the environment differs in {', '.join(differing)}")
    assert [(name, now) for name, now, _ in pairs] == [(name, then) for name, _, then in pairs]


def test_compare_mode_counts_moved_records_and_fails_on_a_tag(capsys):
    fixture = json.loads(maker.FIXTURE.read_text())
    assert maker.compare(fixture, fixture) == 0
    assert "sweep_clean: 0 of 108 records moved, largest relative change 0\n" in (
        capsys.readouterr().out)
    moved = json.loads(maker.FIXTURE.read_text())
    record = moved["sweeps"]["sweep_clean"][0]  # ('example1', delta_p, ...): delta_p * 1.5
    record[2] = maker.NUMBER.sub(lambda m: repr(1.5 * float(m[0])), record[2], count=1)
    moved["cases"][0][1] = ["NumericalError", "solution contains non-finite entries"]
    assert maker.compare(fixture, moved) == 1
    out = capsys.readouterr().out
    assert "sweep_clean: 1 of 108 records moved, largest relative change 0.333\n" in out
    assert "cases: 0 of 48 records moved, largest relative change 0; 1 cells, tags or " in out
    # Digits inside a word or a quoted digest are not numbers; nan pairs do not move.
    assert maker.relative_change("(CollocationScheme(n_dirichlet=5), -2.0, nan, 'a1e5')",
                                 "(CollocationScheme(n_dirichlet=5), -1.0, nan, 'b2e6')") == 0.5
    assert maker.relative_change("(1.0, inf)", "(1.0, 2.0)") == maker.relative_change(
        "(1.0,)", "(1.0, 2.0)") == float("inf")
