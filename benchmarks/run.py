#!/usr/bin/env python3
"""Closed-loop benchmark of the localis command line.

    python3 benchmarks/run.py --workload tree-lw --seed 0 --seconds 20 --trace 0

One client runs the workload's ops back to back, in-process, through
`localis.cli.main(argv)`; every op's output is checked against an exact
reference outside the timed region.  With --trace 0 the last stdout line is
a JSON object with the end-to-end metrics; with --trace 1 each op also runs
in a counting pass and a span pass and the JSON holds the per-layer metrics.
See benchmarks/README.md.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_OPS = 100  # op_p90_s needs >= 10 samples beyond it
MAX_LOOP_S = 120.0  # hard stop, so a run ends well within 180 s
SETUP_PROBES = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", dest="setup_probe",
                    help="do the set-up only, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def import_localis():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "localis", "cli.py")):
        sys.exit(f"run.py: no localis sources under {SRC}")
    sys.path.insert(0, SRC)
    import localis

    if not os.path.abspath(localis.__file__).startswith(SRC + os.sep):
        sys.exit(f"run.py: localis imported from {localis.__file__}, not {SRC}")


class Runner:
    """Runs one op in-process and checks its outputs."""

    def __init__(self, workdir: str):
        from bench_trace import Capture

        self.out = os.path.join(workdir, "op.csv")
        self.capture = Capture()

    def run(self, op, instrument=None, capture=True, main=None) -> dict:
        from bench_trace import Patches
        from bench_workloads import clear_outputs, manifest_trials
        from localis import cli

        main = main or cli.main
        clear_outputs(op, self.out)
        captured = self.capture.reset()
        patches = Patches()
        if capture:
            self.capture.install(patches)
        if instrument is not None:
            instrument.install(patches)
        argv = op.command(self.out)
        raised = None
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                t0 = time.perf_counter()
                try:
                    rc = main(argv)
                except SystemExit as exc:  # argparse errors
                    rc = exc.code
                finally:
                    seconds = time.perf_counter() - t0
        except Exception as exc:  # an op that raises counts as failed
            rc, raised = None, f"{type(exc).__name__}: {exc}"
        finally:
            patches.restore()
        return {
            "kind": op.kind,
            "seed": op.seed,
            "seconds": seconds,
            "rc": rc,
            "raised": raised,
            "stderr": stderr.getvalue().strip()[-300:],
            "trials": manifest_trials(self.out),
            "captured": {k: list(v) for k, v in captured.items()} if capture else None,
        }

    def check(self, op, rec: dict) -> dict:
        """Adds the op's failure reasons; an op fails on a nonzero exit code,
        an exception, or a failed reference check."""
        from bench_workloads import check_op

        reasons = []
        if rec["raised"]:
            reasons.append(f"raised {rec['raised']}")
        elif rec["rc"] != 0:
            reasons.append(f"exit code {rec['rc']}: {rec['stderr']}")
        else:
            try:
                rec["check_failures"] = check_op(op, self.out, rec["captured"])
            except Exception as exc:  # unreadable or malformed output
                rec["check_failures"] = [f"output check raised {type(exc).__name__}: {exc}"]
            reasons += rec["check_failures"]
        rec["failed"] = bool(reasons)
        rec["reasons"] = reasons
        return rec


def set_up(args):
    """Imports, op-list generation and one untimed warm-up op."""
    import_localis()
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(bench_workloads.WORKLOADS)}")
    count = bench_workloads.op_count(args.workload, args.seconds, bool(args.trace), MIN_OPS)
    ops = bench_workloads.make_ops(args.workload, args.seed, count)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(workdir)
    runner.run(bench_workloads.make_op(args.workload, args.seed, "warmup"))
    return ops, runner, workdir


def probe_setup_s(args) -> tuple:
    """Wall time, and reference seconds, for a fresh process to finish
    set_up().  The probe times the reference kernel itself, right after its
    set-up: the parent's kernel times track the probe poorly, since the
    probe may run on the other CPU."""
    from bench_report import to_reference_seconds

    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        after = proc.stdout.read()
        rc = proc.wait(timeout=60)
    if line.strip() != "ready" or rc != 0:
        sys.exit(f"run.py: set-up probe failed (exit {rc})")
    kernel = float(after)
    return seconds, to_reference_seconds(seconds, kernel, kernel)


def run_loop(args, ops, runner) -> tuple:
    """Closed loop with one client over the whole op list.  The op list, and
    so `attempted` and `failed`, depend only on the seed and --seconds; the
    loop stops early only at the MAX_LOOP_S guard.  The reference kernel runs
    before the first op and after each op, outside the timed region."""
    from bench_report import reference_kernel, to_reference_seconds

    records = []
    counters = tracer = None
    if args.trace:
        from bench_trace import Counters, Tracer
        from localis import cli

        counters, tracer = Counters(), Tracer()
        traced_main = tracer.wrap("cli.main", cli.main)
    kernel_s = [reference_kernel()]
    start = time.perf_counter()
    for op in ops:
        if time.perf_counter() - start > MAX_LOOP_S:
            break
        rec = runner.check(op, runner.run(op))
        kernel_s.append(reference_kernel())
        rec["ref_seconds"] = to_reference_seconds(rec["seconds"], kernel_s[-2], kernel_s[-1])
        if args.trace:
            counters.reset()
            counted = runner.run(op, instrument=counters, capture=False)
            traced = runner.run(op, instrument=tracer, capture=False, main=traced_main)
            rec.update(
                traced_s=traced["seconds"],
                traced_rc=traced["rc"],
                folds=counters.folds,
                tree_nodes=list(counters.tree_nodes),
                pgw_tree_nodes=list(counters.pgw_tree_nodes),
                mask=list(counters.mask),
                project=list(counters.project),
                stability=[(e.outer_trials, e.accepted, e.inner_trials)
                           for e in rec["captured"]["stability"]],
            )
            if counted["rc"] != rec["rc"] or traced["rc"] != rec["rc"]:
                rec["failed"] = True
                rec["reasons"].append("instrumented passes exited differently")
            kernel_s.append(reference_kernel())
        rec.pop("captured")
        records.append(rec)
    return records, counters, tracer, kernel_s


def summarize_kinds(records: list) -> list:
    lines = []
    for kind in dict.fromkeys(r["kind"] for r in records):
        rs = [r for r in records if r["kind"] == kind]
        med = statistics.median(r["seconds"] for r in rs)
        failed = sum(r["failed"] for r in rs)
        lines.append(f"  {kind:18s} {len(rs):4d} ops  median {med:.4f} s  failed {failed}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        workdir = set_up(args)[2]
        print("ready", flush=True)
        from bench_report import reference_kernel

        print(reference_kernel(), flush=True)  # on this process's CPU, after set-up
        shutil.rmtree(workdir)
        return 0
    ops, runner, workdir = set_up(args)
    own_setup_s = time.perf_counter() - PROCESS_START

    import bench_report

    setup_samples = [] if args.trace else [probe_setup_s(args) for _ in range(SETUP_PROBES)]
    records, counters, tracer, kernel_s = run_loop(args, ops, runner)
    shutil.rmtree(workdir)

    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    correct = attempted > 0 and not any(r.get("check_failures") for r in records)
    record = bench_report.run_record(ROOT, SRC, args.workload, args.seed, bool(args.trace),
                                     args.seconds, kernel_s)
    print(f"workload {args.workload}, seed {args.seed}, traced {bool(args.trace)}: "
          f"{attempted} ops in {sum(r['seconds'] for r in records):.2f} s of op time, "
          f"{failed} failed (error_rate {failed / max(attempted, 1):.4f})")
    print("\n".join(summarize_kinds(records)))
    reasons = {}
    for r in records:
        for reason in r["reasons"]:
            key = f"{r['kind']}: {reason[:160]}"
            reasons[key] = reasons.get(key, 0) + 1
    for key, count in reasons.items():
        print(f"  failure x{count}: {key}")

    if args.trace:
        values = bench_report.layer_metrics(records, tracer, counters.fold_errors)
        units = dict(bench_report.PER_LAYER)
        print("ROADMAP baselines:")
        for line in bench_report.roadmap_checks(records):
            print("  " + line)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.npz")  # latest run only
        tracer.save(spans_path)
        print(f"{len(tracer.start)} spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        values = bench_report.end_to_end_metrics(records, [ref for _, ref in setup_samples])
        units = dict(bench_report.END_TO_END)
        wall = [r["seconds"] for r in records]
        print(f"  wall time: {sum(r['trials'] for r in records) / sum(wall):.6g} trials/s, "
              f"op p50 {statistics.median(wall):.4f} s, own set-up {own_setup_s:.3f} s, "
              f"set-up probes {', '.join(f'{s:.3f}' for s, _ in setup_samples)} s")
        print(f"  reference kernel median {1e3 * statistics.median(kernel_s):.3f} ms "
              f"(reference {1e3 * bench_report.REF_KERNEL_S:.3f} ms); "
              "the metrics below are in reference seconds")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    if not args.trace:  # zero on most workloads, so it has no relative bound
        print(f"  {'error_rate':44s} {failed / attempted:.6g} fraction (not in BENCHMARK.json)")
    print("run_record " + json.dumps(record, sort_keys=True))

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    kept = ("kind", "seed", "seconds", "ref_seconds", "traced_s", "rc", "trials", "failed",
            "reasons")
    ops_out = [{k: r[k] for k in kept if k in r} for r in records]
    with open(path, "w") as fh:
        json.dump({**result, "run_record": record, "ops": ops_out}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
