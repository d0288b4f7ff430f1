"""CSV/JSON artifact writing and run manifests.

Floats are rendered with 17 significant digits so artifacts round-trip
exactly; replaying a manifest therefore reproduces output files
byte-for-byte (the manifest itself records wall-clock time and a `metrics`
block of run facts, such as the effective worker count, and is not part of
the byte-stable contract).
"""

from __future__ import annotations

import json
import os


def fmt(x) -> str:
    """Full-precision, round-trip-stable rendering of one CSV field."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: str, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def manifest_path(out: str) -> str:
    return out + ".manifest.json"


def write_manifest(
    out: str, command: str, params: dict, outputs: list, version: str,
    wall_clock_s: float, trials=None, metrics=None,
) -> str:
    payload = {
        "command": command,
        "params": params,
        "seed": params.get("seed"),
        "trials": trials,
        "outputs": [os.path.basename(p) for p in outputs],
        "version": version,
        "wall_clock_s": wall_clock_s,
        "metrics": metrics or {},
    }
    path = manifest_path(out)
    write_json(path, payload)
    return path


def load_manifest(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
