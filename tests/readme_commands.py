"""Run the README's CLI examples, each in a fresh interpreter, and time them.

    python tests/readme_commands.py [--runs R]

The commands are read from README.md's fenced block of `localis ...` lines
(continuation lines joined, comments dropped), so this list cannot drift
from the one the README shows.  Each of R rounds runs them in order in a new
temporary directory (replay reads the manifest that density writes), each
as `python -m localis.cli ...` with this checkout's src/ first on
PYTHONPATH.  The table gives each command's exit codes, its wall time
(median and range over the rounds) and its peak RSS (the largest resident
set of its process over the rounds, from wait4).  The exit status is 1 if
any run exits nonzero.  This file is no test module, so Tier-1 does not
collect it.
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_commands(text: str) -> list:
    """The argv (after `localis`) of each command in the README's CLI block."""
    blocks = re.findall(r"^```\n(.*?)^```", text, flags=re.S | re.M)
    block = next(b for b in blocks if b.startswith("localis "))
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            if words[0] != "localis":
                raise ValueError(f"not a localis command: {line!r}")
            commands.append(words[1:])
    return commands


def run(argv: list, cwd: str, env: dict, log: Path):
    """(exit code, wall seconds, peak RSS in MB) of one fresh-process run."""
    with open(log, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "localis.cli", *argv], cwd=cwd,
                                env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="rounds over all commands")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("need --runs >= 1")
    commands = readme_commands((ROOT / "README.md").read_text())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    results = [[] for _ in commands]
    for r in range(args.runs):
        with tempfile.TemporaryDirectory() as tmp:
            for i, argv in enumerate(commands):
                log = Path(tmp) / f"stderr{i}.txt"
                results[i].append(run(argv, tmp, env, log))
                code = results[i][-1][0]
                if code:
                    print(f"round {r + 1}: `localis {shlex.join(argv)}` exited {code}:\n"
                          f"{log.read_text()[-2000:]}", file=sys.stderr)
    print("| command | exit codes | wall s, median | wall s, range | peak RSS MB |")
    print("|---|---|---|---|---|")
    for argv, rows in zip(commands, results):
        codes, walls, rss = zip(*rows)
        print(f"| {argv[0]} | {' '.join(map(str, codes))} | {statistics.median(walls):.2f} "
              f"| {min(walls):.2f}–{max(walls):.2f} | {max(rss):.0f} |")
    return 1 if any(code for rows in results for code, _, _ in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
