"""Metrics, ROADMAP baseline checks and the run record."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import time

import numpy as np

from bench_trace import MODULE_NAMES

END_TO_END = (
    ("trials_per_s", "trials/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

LW_KINDS = ("lw.d3", "lw.d4", "lw.d5", "lw.pgw3")

# Times are per op (mean over the traced run's ops), so a run that fits more
# ops does not read as slower; counts per trial or per vertex are ratios.
PER_LAYER = (
    ("rng.fold.calls_per_trial", "count"),
    ("graphs.lazytree.nodes_per_trial", "count"),
    ("graphs.lazytree.nodes_per_trial.p99", "count"),
    ("graphs.lazytree.self_s", "s/op"),
    ("graphs.sample_config_model.self_s", "s/op"),
    ("graphs.sample_er.self_s", "s/op"),
    ("graphs.multigraph_build.calls", "count/op"),
    ("graphs.multigraph_build.self_s", "s/op"),
    ("graphs.non_tree_ball_mask.us_per_vertex", "us"),
    ("graphs.ball_is_tree.calls", "count/op"),
    ("graphs.neighborhood.calls", "count/op"),
    ("graphs.neighborhood.self_s", "s/op"),
    ("graphs.tree_ball_ratio", "fraction"),
    ("factors.rule.calls", "count/op"),
    ("factors.rule.us_per_call", "us"),
    ("factors.apply_factor.self_s", "s/op"),
    ("factors.project_to_graph.self_s", "s/op"),
    ("coupling.estimate_stability.self_s", "s/op"),
    ("coupling.intersections.self_s", "s/op"),
    ("coupling.er_resample_graphs.self_s", "s/op"),
    ("coupling.inner_evals", "count/op"),
    ("coupling.accept_ratio", "fraction"),
    ("graphs.sample_pgw_tree.self_s", "s/op"),
    ("pgw_transfer.edge_removal_stage.self_s", "s/op"),
    ("pgw_transfer.filling_out_stage.self_s", "s/op"),
    ("pgw_transfer.inclusion_stage.self_s", "s/op"),
    ("pgw_transfer.tree_nodes_per_trial", "count"),
    ("pgw_transfer.density_i.self_s", "s/op"),
    ("pgw_transfer.density_i.total_s", "s/op"),
    ("parallel.run_trials.self_s", "s/op"),
    ("cli.main.self_s", "s/op"),
    ("io.write.self_s", "s/op"),
    ("io.write.bytes", "bytes/op"),
    ("trace.overhead_s", "s/op"),
    *((f"{m}.errors", "count") for m in MODULE_NAMES),
    *((f"{k}.us_per_trial", "us") for k in LW_KINDS),
    *((f"{k}.nodes_per_trial", "count") for k in LW_KINDS),
    ("config.mask.us_per_vertex", "us"),
    ("config.projection.us_per_vertex", "us"),
)

# ROADMAP "Recent", LW(0.02, 250): (us per trial, nodes per trial); config
# model n=10^5, d=3: r=2 mask 1.85 s and threshold projection 3.77 s.
ROADMAP_LW = {"lw.d3": (184.0, 17.0), "lw.d4": (444.0, 48.0), "lw.d5": (994.0, 133.0)}
ROADMAP_CONFIG = {"config.mask.us_per_vertex": 18.5, "config.projection.us_per_vertex": 37.7}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(records: list, setup_samples: list) -> dict:
    """Times are reference seconds (see `reference_kernel`): each op's wall
    time scaled by REF_KERNEL_S over the kernel time measured around it."""
    peak = peak_rss_mb()  # before hd_quantile imports scipy
    seconds = [r["ref_seconds"] for r in records]
    trials = sum(r["trials"] for r in records)
    return {
        "trials_per_s": trials / sum(seconds),
        "op_p50_s": hd_quantile(seconds, 0.5),
        "op_p90_s": hd_quantile(seconds, 0.9),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak,
    }


def hd_quantile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the
    order statistics.  The ops of a workload come in kinds of different size,
    and the plain median can sit in the gap between two kinds, where it jumps
    between their tails from run to run; this estimate moves smoothly."""
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _rel_iqr(values: list) -> float:
    if len(values) < 4:
        return math.inf
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def layer_metrics(records: list, tracer, fold_errors: int) -> dict:
    """Per-layer values of a traced run.

    records: one dict per op with the untraced and traced wall times and the
    counting-pass values; tracer: the span pass's Tracer.
    """
    ops = len(records)
    totals = tracer.totals()

    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total_s(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    trials = sum(r["trials"] for r in records)
    nodes = [n for r in records for n in r["tree_nodes"]]
    pgw_nodes = [n for r in records for n in r["pgw_tree_nodes"]]
    mask = [m for r in records for m in r["mask"]]
    stab = [s for r in records for s in r["stability"]]
    errors = {m: 0 for m in MODULE_NAMES}
    for name, count in tracer.errors.items():
        errors[name.split(".")[0]] += count
    errors["rng"] += fold_errors
    errors["cli"] += sum(1 for r in records if r["traced_rc"] != 0)

    out = {
        "rng.fold.calls_per_trial": _ratio(sum(r["folds"] for r in records), trials),
        "graphs.lazytree.nodes_per_trial": float(np.mean(nodes)) if nodes else 0.0,
        "graphs.lazytree.nodes_per_trial.p99": float(np.percentile(nodes, 99)) if nodes else 0.0,
        "graphs.lazytree.self_s": self_s("graphs.lazytree.children", "graphs.lazytree.label") / ops,
        "graphs.sample_config_model.self_s": self_s("graphs.sample_config_model") / ops,
        "graphs.sample_er.self_s": self_s("graphs.sample_er") / ops,
        "graphs.multigraph_build.calls": calls("graphs.multigraph_build") / ops,
        "graphs.multigraph_build.self_s": self_s("graphs.multigraph_build") / ops,
        "graphs.non_tree_ball_mask.us_per_vertex":
            1e6 * _ratio(sum(m[3] for m in mask), sum(m[1] for m in mask)),
        "graphs.ball_is_tree.calls": calls("graphs.ball_is_tree") / ops,
        "graphs.neighborhood.calls": calls("graphs.neighborhood") / ops,
        "graphs.neighborhood.self_s": self_s("graphs.neighborhood") / ops,
        "graphs.tree_ball_ratio": _ratio(sum(m[2] for m in mask), sum(m[1] for m in mask)),
        "factors.rule.calls": calls("factors.rule") / ops,
        "factors.rule.us_per_call": 1e6 * _ratio(total_s("factors.rule"), calls("factors.rule")),
        "factors.apply_factor.self_s": self_s("factors.apply_factor") / ops,
        "factors.project_to_graph.self_s": self_s("factors.project_to_graph") / ops,
        "coupling.estimate_stability.self_s": self_s("coupling.estimate_stability") / ops,
        "coupling.intersections.self_s": self_s("coupling.intersections") / ops,
        "coupling.er_resample_graphs.self_s": self_s("coupling.er_resample_graphs") / ops,
        "coupling.inner_evals": sum(s[1] * s[2] for s in stab) / ops,
        "coupling.accept_ratio": _ratio(sum(s[1] for s in stab), sum(s[0] for s in stab)),
        "graphs.sample_pgw_tree.self_s": self_s("graphs.sample_pgw_tree") / ops,
        "pgw_transfer.edge_removal_stage.self_s": self_s("pgw_transfer.edge_removal_stage") / ops,
        "pgw_transfer.filling_out_stage.self_s": self_s("pgw_transfer.filling_out_stage") / ops,
        "pgw_transfer.inclusion_stage.self_s": self_s("pgw_transfer.inclusion_stage") / ops,
        "pgw_transfer.tree_nodes_per_trial": float(np.mean(pgw_nodes)) if pgw_nodes else 0.0,
        "pgw_transfer.density_i.self_s": self_s("pgw_transfer.density_i") / ops,
        "pgw_transfer.density_i.total_s": total_s("pgw_transfer.density_i") / ops,
        "parallel.run_trials.self_s": self_s("parallel.run_trials") / ops,
        "cli.main.self_s": self_s("cli.main") / ops,
        "io.write.self_s": self_s("io.write_csv", "io.write_json", "io.write_manifest") / ops,
        "io.write.bytes": tracer.bytes_written / ops,
        "trace.overhead_s": sum(r["traced_s"] - r["seconds"] for r in records) / ops,
    }
    out.update({f"{m}.errors": float(errors[m]) for m in MODULE_NAMES})
    out.update(per_unit_values(records))
    return out


def _per_op_units(records: list) -> dict:
    """Per-op samples of the ROADMAP per-unit quantities, by metric name."""
    samples = {}
    for r in records:
        kind = r["kind"]
        if kind in LW_KINDS and r["trials"]:
            samples.setdefault(f"{kind}.us_per_trial", []).append(1e6 * r["seconds"] / r["trials"])
        if kind == "graph.config" and r["mask"] and r["project"]:
            (_, n, _, mask_s), (_, _, project_s) = r["mask"][0], r["project"][0]
            samples.setdefault("config.mask.us_per_vertex", []).append(1e6 * mask_s / n)
            samples.setdefault("config.projection.us_per_vertex", []).append(
                1e6 * (project_s - mask_s) / n
            )
    return samples


def per_unit_values(records: list) -> dict:
    out = {}
    for name, values in _per_op_units(records).items():
        out[name] = statistics.median(values)
    for kind in LW_KINDS:
        nodes = [n for r in records if r["kind"] == kind for n in r["tree_nodes"]]
        out[f"{kind}.nodes_per_trial"] = float(np.mean(nodes)) if nodes else 0.0
        out.setdefault(f"{kind}.us_per_trial", 0.0)
    for name in ROADMAP_CONFIG:
        out.setdefault(name, 0.0)
    return out


def roadmap_checks(records: list) -> list:
    """Lines comparing per-unit numbers with the ROADMAP baselines.

    Node counts agree when they lie within 3 standard errors plus the
    baseline's rounding (0.5).  A time differs by more than noise when its
    ratio to the baseline is off by more than this run's relative IQR of the
    per-op values of that kind.
    """
    lines = []
    samples = _per_op_units(records)
    for kind, (base_us, base_nodes) in ROADMAP_LW.items():
        nodes = [n for r in records if r["kind"] == kind for n in r["tree_nodes"]]
        if nodes:
            mean = float(np.mean(nodes))
            se = float(np.std(nodes, ddof=1)) / math.sqrt(len(nodes)) if len(nodes) > 1 else math.inf
            ok = abs(mean - base_nodes) <= 3.0 * se + 0.5
            lines.append(
                f"{kind} nodes/trial {mean:.1f} (se {se:.2f}, {len(nodes)} trials) vs ROADMAP "
                f"{base_nodes:.0f}: {'agrees' if ok else 'DISAGREES'} within Monte Carlo error"
            )
        lines += _time_line(f"{kind}.us_per_trial", samples, base_us)
    for name, base in ROADMAP_CONFIG.items():
        lines += _time_line(name, samples, base)
    return lines


def _time_line(name: str, samples: dict, base: float) -> list:
    values = samples.get(name)
    if not values:
        return []
    med, noise = statistics.median(values), _rel_iqr(values)
    diff = med / base - 1.0
    verdict = "differs by more than noise" if abs(diff) > noise else "within noise"
    return [
        f"{name} {med:.1f} us ({len(values)} ops, spread {noise:.0%}) vs ROADMAP {base:.1f} us: "
        f"{diff:+.0%}, {verdict}"
    ]


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str | None:
    """HEAD of a git checkout at root, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: str) -> str:
    """sha256 over the package sources, which identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


# Time of reference_kernel() on an unloaded vCPU of the machine the bounds
# were set on (Intel Xeon, 2 vCPUs, Python 3.11.7).
REF_KERNEL_S = 0.004
_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def reference_kernel() -> float:
    """Wall time of a fixed piece of pure-Python work that touches no localis
    code: a lazy exploration of 2500 tree nodes keyed by paths, with 64-bit
    integer mixing, like the program's own hot loops.

    The machine is shared, and its speed moves by tens of percent within
    seconds.  Running this right before and after each timed op and dividing
    the op's time by it cancels most of that: a reference second is the time
    the op would take when this kernel takes REF_KERNEL_S.
    """
    t0 = time.perf_counter()
    nodes = {(): 12345}
    frontier = [()]
    n = 0
    while frontier and n < 2500:
        path = frontier.pop()
        state = nodes[path]
        for c in range(1 + (state & 3)):
            child_state = _mix64(state ^ _mix64(c + 0x9E3779B97F4A7C15))
            child = path + (c,) if len(path) < 12 else (c, n)
            nodes[child] = child_state
            n += 1
            if child_state & 7 < 5:
                frontier.append(child)
    return time.perf_counter() - t0


def to_reference_seconds(seconds: float, kernel_before: float, kernel_after: float) -> float:
    return seconds * REF_KERNEL_S / (0.5 * (kernel_before + kernel_after))


def run_record(root: str, src: str, workload: str, seed: int, traced: bool, seconds: int,
               kernel_s: list) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "run_seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(src),
        "reference_kernel_ms": {
            "reference": 1e3 * REF_KERNEL_S,
            "median": 1e3 * statistics.median(kernel_s),
            "p10": 1e3 * float(np.percentile(kernel_s, 10)),
            "p90": 1e3 * float(np.percentile(kernel_s, 90)),
        },
    }
