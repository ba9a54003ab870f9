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
    differing = sorted(key for key, value in fixture["environment"].items()
                       if current["environment"].get(key) != value)
    if differing:
        pytest.skip(f"values not compared: the environment differs in {', '.join(differing)}")
    assert [(name, now) for name, now, _ in pairs] == [(name, then) for name, _, then in pairs]
