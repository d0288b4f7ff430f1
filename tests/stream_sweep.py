"""Run Tier-1 several times with every trial stream moved, and count each
test's failures.

    python tests/stream_sweep.py [--runs S] [pytest arguments ...]

Run s = 1..S patches rng._TRIAL_ROOT, the state every seed folds into, to
its value + s in this process (one pytest.main call a run, with a plugin;
no option or environment variable is involved).  That moves every stream
drawn through trial_state or trial_state_np; states built without them do
not move.  The byte gate (tests/test_equality_gate.py) and the recorded
level sizes (test_factors.py::LEVEL_SIZES) pin one stream's outcome and are
meant to move, so they are deselected.  Tests that run the CLI in a
subprocess see the original constant.  The test modules are imported afresh
each run, so values they compute at import follow the moved root.  With no
pytest arguments the runs take Tier-1's test paths.  This file is no test
module, so Tier-1 does not collect it.
"""

from __future__ import annotations

import argparse
import collections
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from localis import rng  # noqa: E402

# node-id prefixes of the tests that pin one stream's outcome
PINNED = (
    "tests/test_equality_gate.py::",
    "tests/test_factors.py::test_level_arrays_expand_the_recorded_nodes",
)


class MovedRoot:
    """pytest plugin for one run: the trial root set to `root` for the
    session, the pinned tests deselected, and the failed tests' node ids
    added to `failed`."""

    def __init__(self, root: int, failed: set):
        self.root, self.failed = root, failed

    def pytest_sessionstart(self, session):
        self.saved, rng._TRIAL_ROOT = rng._TRIAL_ROOT, self.root

    def pytest_sessionfinish(self, session):
        rng._TRIAL_ROOT = self.saved

    def pytest_collection_modifyitems(self, config, items):
        pinned = [item for item in items if item.nodeid.startswith(PINNED)]
        config.hook.pytest_deselected(items=pinned)
        items[:] = [item for item in items if not item.nodeid.startswith(PINNED)]

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.add(report.nodeid)


def forget_test_modules() -> None:
    """Drop the modules loaded from tests/ and benchmarks/, so the next run
    imports them afresh."""
    dirs = (str(ROOT / "tests"), str(ROOT / "benchmarks"))
    for name, module in list(sys.modules.items()):
        if (getattr(module, "__file__", None) or "").startswith(dirs):
            del sys.modules[name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=4, help="moved roots, one run each")
    args, extra = parser.parse_known_args(argv)
    if args.runs < 1:
        parser.error("need --runs >= 1")
    os.chdir(ROOT)
    base, counts = rng._TRIAL_ROOT, collections.Counter()
    for s in range(1, args.runs + 1):
        root, failed = (base + s) & rng.MASK64, set()
        print(f"run {s}/{args.runs}: trial root {root:#x}", flush=True)
        pytest.main(["-q", "-p", "no:cacheprovider", *extra], plugins=[MovedRoot(root, failed)])
        counts.update(failed)
        forget_test_modules()
    print(f"\nfailures over {args.runs} moved trial roots ({base + 1:#x} on); deselected: "
          f"{', '.join(PINNED)}")
    for nodeid, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{count}/{args.runs} {nodeid}")
    if not counts:
        print("no test failed")
    print(f"subprocess tests ran with the original trial root {base:#x}")
    return 1 if counts else 0


if __name__ == "__main__":
    sys.exit(main())
