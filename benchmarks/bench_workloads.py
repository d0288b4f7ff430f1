"""The four workloads: their op lists and the reference check of every op.

An op is one README command line run in-process through
`localis.cli.main(argv)` with `--workers 1`.  Op seeds derive from the
workload seed only, so the same seed gives the same op list.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

from bench_oracles import (
    check_bernoulli,
    check_bernoulli_range,
    check_exact,
    check_normal,
    degree_event_probability,
    lw_density_exact,
    threshold_graph_reference,
)

LW = ["density", "--factor", "lw", "--lw-p", "0.02", "--lw-k", "250"]
LW_P, LW_K = 0.02, 250
THRESHOLD_STABILITY = ["stability", "--factor", "threshold", "--k", "3"]
P_GRID = ["0", "0.25", "0.5", "0.75", "1"]

# (kind, argv without --seed/--workers/--out); ops cycle through the list.
KINDS = {
    "tree-lw": [
        ("lw.d3", LW + ["--host", "regular-tree", "--d", "3", "--trials", "500"]),
        ("lw.d4", LW + ["--host", "regular-tree", "--d", "4", "--trials", "200"]),
        ("lw.d5", LW + ["--host", "regular-tree", "--d", "5", "--trials", "100"]),
        ("lw.pgw3", LW + ["--host", "pgw", "--lam", "3", "--trials", "300"]),
    ],
    "stability": [
        ("stability.tree", THRESHOLD_STABILITY + [
            "--host", "regular-tree", "--d", "3", "--trials", "200", "--inner-trials", "200"]),
        ("stability.scan", ["scan-p", "--factor", "threshold", "--k", "3",
                            "--host", "regular-tree", "--d", "3", "--grid", "0,0.5,1",
                            "--trials", "100", "--inner-trials", "100"]),
        ("stability.er", THRESHOLD_STABILITY + [
            "--host", "er", "--n", "200", "--lam", "2", "--trials", "30", "--inner-trials", "20"]),
        ("stability.config", THRESHOLD_STABILITY + [
            "--host", "config-model", "--n", "1000", "--d", "3",
            "--trials", "30", "--inner-trials", "10"]),
    ],
    "graph-project": [
        ("graph.config", ["density", "--factor", "threshold", "--trials", "1",
                          "--host", "config-model", "--n", "5000", "--d", "3"]),
        ("graph.er", ["density", "--factor", "threshold", "--trials", "1",
                      "--host", "er", "--n", "3000", "--lam", "3"]),
    ],
    "pgw-transfer": [
        ("transfer.lam50", ["pgw-transfer", "--factor", "threshold", "--check-event-mc",
                            "--lam", "50", "--d", "60", "--trials", "10"]),
        ("transfer.lam20", ["pgw-transfer", "--factor", "threshold", "--check-event-mc",
                            "--lam", "20", "--d", "28", "--trials", "30"]),
    ],
}
WORKLOADS = list(KINDS)


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple  # without --out
    seed: int
    p: float | None = None  # stability p, where the op has one

    def command(self, out: str) -> list:
        return list(self.argv) + ["--out", out]


def op_seed(workload: str, seed: int, index) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def cycle_length(workload: str) -> int:
    """Ops in one full rotation of the workload's kinds (and p values)."""
    return 20 if workload == "stability" else len(KINDS[workload])


# Ops per second of wall time at a typical speed of the 2-vCPU machine the
# benchmark was tuned on.  A run makes a fixed number of ops, about
# --seconds' worth at these rates, so the op list (and with it the count of
# attempted and failed ops) depends only on the seed and --seconds.
OPS_PER_S = {"tree-lw": 11.0, "stability": 7.0, "graph-project": 6.5, "pgw-transfer": 13.0}
TRACED_OP_COST = 3.0  # a traced op runs three times: plain, counting, spans


def op_count(workload: str, seconds: float, traced: bool, min_ops: int) -> int:
    """Ops in one run: whole cycles, at least `min_ops` untraced and one
    cycle traced."""
    cycle = cycle_length(workload)
    target = seconds * OPS_PER_S[workload] / (TRACED_OP_COST if traced else 1.0)
    target = max(target, cycle if traced else min_ops)
    return cycle * math.ceil(target / cycle)


def make_op(workload: str, seed: int, index) -> Op:
    """Op number `index` of the workload (index "warmup" gives the untimed
    warm-up op, shaped like op 0)."""
    i = 0 if index == "warmup" else index
    kind, argv = KINDS[workload][i % len(KINDS[workload])]
    s = op_seed(workload, seed, index)
    argv = list(argv) + ["--seed", str(s), "--workers", "1"]
    p = None
    if kind in ("stability.tree", "stability.er", "stability.config"):
        p_text = P_GRID[i % len(P_GRID)]
        argv += ["--p", p_text]
        p = float(p_text)
    return Op(kind, tuple(argv), s, p)


def make_ops(workload: str, seed: int, count: int) -> list:
    return [make_op(workload, seed, i) for i in range(count)]


# ---------------------------------------------------------------------------
# Reading outputs
# ---------------------------------------------------------------------------


def output_files(op: Op, out: str) -> list:
    if op.kind == "stability.scan":
        return [out + s for s in (".intersections.csv", ".stability.csv", ".binom.csv")]
    return [out]


def read_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def manifest_trials(out: str) -> int:
    """Trials the op's manifest records (0 when the op wrote none)."""
    try:
        with open(out + ".manifest.json") as fh:
            return int(json.load(fh).get("trials") or 0)
    except FileNotFoundError:
        return 0


def clear_outputs(op: Op, out: str) -> None:
    for path in output_files(op, out) + [out + ".manifest.json"]:
        if os.path.exists(path):
            os.remove(path)


# ---------------------------------------------------------------------------
# Reference checks
# ---------------------------------------------------------------------------


def _arg(op: Op, flag: str) -> str:
    return op.argv[op.argv.index(flag) + 1]


def check_op(op: Op, out: str, captured: dict) -> list:
    """Failure messages of one finished op (empty when every check passes).

    `captured` holds values the op computed but does not write: the sampled
    graph (graph-project) and the stability estimates (acceptance counts).
    """
    if op.kind.startswith("lw."):
        return _check_lw(op, out)
    if op.kind == "stability.scan":
        return _check_scan(op, out, captured)
    if op.kind.startswith("stability."):
        return _check_stability(op, out, captured)
    if op.kind.startswith("graph."):
        return _check_graph(op, out, captured)
    return _check_transfer(op, out)


def _check_lw(op: Op, out: str) -> list:
    (row,) = read_rows(out)
    trials = int(_arg(op, "--trials"))
    if "--d" in op.argv:
        exact = lw_density_exact(LW_P, LW_K, d=int(_arg(op, "--d")))
    else:
        exact = lw_density_exact(LW_P, LW_K, lam=float(_arg(op, "--lam")))
    fails = check_exact("trials", float(row["trials"]), trials)
    return fails + check_bernoulli(f"{op.kind} density", float(row["mean"]), trials, exact)


def _check_moments(what: str, rows: list, p: float, on_t3: bool) -> list:
    """Stability moments E*[Q^m], m = i-1, of one p value."""
    fails = []
    for row in rows:
        m = int(row["i"]) - 1
        mean, se = float(row["mean"]), float(row["stderr"])
        if m == 0 or p == 0.0:
            fails += check_exact(f"{what} moment {m}", mean, 1.0)
        elif p == 1.0 and on_t3:
            fails += check_normal(f"{what} moment {m}", mean, 0.25**m, se)
        elif m == 1 and not 0.0 <= mean <= 1.0:
            fails.append(f"{what} moment 1: {mean} outside [0, 1]")
    return fails


def _check_acceptance(what: str, est, d: int = 3) -> list:
    """The conditioning event (root included under X0) has rate 1/(d+1) on T_d."""
    return check_bernoulli(
        f"{what} acceptance", est.accepted / est.outer_trials, est.outer_trials, 1.0 / (d + 1)
    )


def _check_stability(op: Op, out: str, captured: dict) -> list:
    rows = read_rows(out)
    on_t3 = op.kind == "stability.tree"
    fails = _check_moments(op.kind, rows, op.p, on_t3)
    if len(rows) != 3:
        fails.append(f"{op.kind}: {len(rows)} moment rows, expected 3")
    if on_t3:
        (est,) = captured["stability"]
        fails += _check_acceptance(op.kind, est)
    return fails


def _check_scan(op: Op, out: str, captured: dict) -> list:
    inter, stab, _ = (read_rows(path) for path in output_files(op, out))
    trials = int(_arg(op, "--trials"))
    fails = []
    for row in inter:
        p, i = float(row["p"]), int(row["i"])
        what = f"scan intersection {i} at p={p}"
        if p == 0.0:
            fails += check_bernoulli(what, float(row["mean"]), trials, 0.25)
        elif p == 1.0:
            fails += check_bernoulli(what, float(row["mean"]), trials, 0.25**i)
        elif i == 1:
            fails += check_bernoulli(what, float(row["mean"]), trials, 0.25)
    for p in (0.0, 0.5, 1.0):
        fails += _check_moments(f"scan p={p}", [r for r in stab if float(r["p"]) == p], p, True)
    for p, est in zip((0.0, 0.5, 1.0), captured["stability"]):
        fails += _check_acceptance(f"scan p={p}", est)
    if len(inter) != 9 or len(stab) != 9:
        fails.append(f"scan: {len(inter)} intersection and {len(stab)} moment rows, expected 9")
    return fails


def _check_graph(op: Op, out: str, captured: dict) -> list:
    (row,) = read_rows(out)
    (g,) = captured["graphs"]
    mean, se, _ = threshold_graph_reference(g.n, g.edges)
    return check_normal(f"{op.kind} density", float(row["mean"]), mean, se)


def _check_transfer(op: Op, out: str) -> list:
    (row,) = read_rows(out)
    lam, d, trials = float(_arg(op, "--lam")), int(_arg(op, "--d")), int(_arg(op, "--trials"))
    p_event = degree_event_probability(lam, d)
    rho = 1.0 / (d + 1)  # threshold density on T_d
    density_i = float(row["density_I"])
    fails = check_exact("P_E_exact", float(row["P_E_exact"]), p_event)
    fails += check_bernoulli("density_I", density_i, trials, rho)
    fails += check_exact("lower", float(row["lower"]), density_i * float(row["P_E_exact"]), 1e-12)
    fails += check_exact("upper", float(row["upper"]), density_i, 1e-12)
    fails += check_bernoulli_range(
        "density_J", float(row["density_J"]), trials, rho * p_event, rho
    )
    return fails
