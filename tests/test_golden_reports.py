"""The ten bundled reports against committed payloads.

``tests/data/reports/<name>.json`` holds the ``{"config", "report"}``
payload of the bundled example ``name``, as ``fstring verify --example``
prints it, from the code at the time the payloads were made.
Verdicts, flags, strings, bools and ints must match exactly, and every
float within max(1e-12 |x|, 1e-15).  A change that moves a report past
that regenerates the payload and explains each change.
"""

import json
from pathlib import Path

import pytest

from fractal_strings import bundled_examples, run_verify
from fractal_strings.cli import main

DATA = Path(__file__).parent / "data" / "reports"
NAMES = sorted(bundled_examples())


def _assert_close(got, want, path):
    if isinstance(want, float) and not isinstance(got, bool) \
            and isinstance(got, (int, float)):
        assert got == want or abs(got - want) <= max(1e-12 * abs(want), 1e-15), \
            "%s: %r != %r" % (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_close(got[key], want[key], "%s.%s" % (path, key))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, "%s[%d]" % (path, i))
    else:
        assert type(got) is type(want) and got == want, \
            "%s: %r != %r" % (path, got, want)


def test_every_bundled_example_has_a_payload():
    assert sorted(p.stem for p in DATA.glob("*.json")) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_bundled_report_matches_payload(name):
    want = json.loads((DATA / ("%s.json" % name)).read_text())
    config = bundled_examples()[name]
    got = json.loads(json.dumps({"config": config.to_json(),
                                 "report": run_verify(config).to_json()}))
    _assert_close(got, want, name)



def test_cli_verify_example_prints_the_payload(capsys):
    assert main(["verify", "cantor", "--example"]) == 0
    want = json.loads((DATA / "cantor.json").read_text())
    _assert_close(json.loads(capsys.readouterr().out), want, "cantor")
