"""Session-wide fixtures.

The 165-dimensional pipeline takes about 0.3 s to build and 0.5 s to
verify in-process on a 2-core machine, and dozens of tests read it, so
the build and its verification run once per session and every consumer
shares them.  The factors-only bundle the command line writes is made
once too, for the CLI tests and for the check that reads it back with no
uebkit code.
Wall-clock durations are kept for the acceptance budget check.
"""

import time

import pytest

from uebkit.cli import main
from uebkit.counterexample165 import build_g165, verify_counterexample

G165_SECONDS = {}


@pytest.fixture(scope="session")
def built():
    t0 = time.perf_counter()
    g = build_g165()
    G165_SECONDS["build"] = time.perf_counter() - t0
    return g


@pytest.fixture(scope="session")
def report(built):
    t0 = time.perf_counter()
    r = verify_counterexample(built)
    G165_SECONDS["verify"] = time.perf_counter() - t0
    return r


@pytest.fixture(scope="session")
def counterexample_bundle(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cx") / "bundle.json")
    rc = main(["construct", "counterexample165", "--factors-only",
               "--out", path])
    assert rc == 0
    return path
