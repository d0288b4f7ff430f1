"""Tests of the benchmark's oracles, failure accounting and instrumentation.

Run with the package on the path:  PYTHONPATH=src python -m pytest benchmarks
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_oracles  # noqa: E402
import bench_report  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402
from localis import coupling, factors, graphs  # noqa: E402
from localis.factors import beta_formula  # noqa: E402
from localis.graphs import non_tree_ball_mask, sample_config_model, sample_er  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def test_lw_recursion_approaches_beta():
    value = bench_oracles.lw_density_exact(0.001, 20000, d=3)
    assert abs(value - 0.37453) < 5e-6
    assert value < beta_formula(3).value == 0.375


def test_lw_recursion_matches_criterion_1_reference():
    # criterion 1 runs LW(0.02, 250) on T_3; its MC estimate is 0.3639
    assert abs(bench_oracles.lw_density_exact(0.02, 250, d=3) - 0.36464) < 5e-6


@pytest.fixture
def runner(tmp_path):
    return run.Runner(str(tmp_path))


def _lw_d3_op():
    # workload seed 8: op 0 is an lw.d3 op whose estimate sits within
    # 0.25 standard errors of the exact density
    op = bench_workloads.make_op("tree-lw", 8, 0)
    assert op.kind == "lw.d3"
    return op


def test_reference_shifted_by_five_standard_errors_fails_the_op(runner, monkeypatch):
    op = _lw_d3_op()
    exact = bench_oracles.lw_density_exact(0.02, 250, d=3)
    rec = runner.check(op, runner.run(op))
    assert rec["rc"] == 0 and not rec["failed"], rec["reasons"]
    mean = float(bench_workloads.read_rows(runner.out)[0]["mean"])
    se = math.sqrt(exact * (1 - exact) / 500)
    assert abs(mean - exact) < 0.25 * se
    for shift in (-5 * se, 5 * se):
        monkeypatch.setattr(bench_workloads, "lw_density_exact",
                            lambda *a, shift=shift, **k: exact + shift)
        rec = runner.check(op, runner.run(op))
        assert rec["failed"] and rec["check_failures"], shift


def test_nonzero_exit_and_exceptions_count_as_failed(runner):
    op = bench_workloads.make_op("stability", 0, 0)
    bad = bench_workloads.Op(op.kind, op.argv[:-1] + ("2",), op.seed, 2.0)  # --p 2
    rec = runner.check(bad, runner.run(bad))
    assert rec["rc"] == 2 and rec["failed"]

    def raising(argv):
        raise RuntimeError("projection produced adjacent members")

    rec = runner.check(op, runner.run(op, main=raising))
    assert rec["rc"] is None and rec["failed"] and "RuntimeError" in rec["reasons"][0]


def test_known_transfer_defect_exits_3(runner):
    # 10 trials at lam=50, d=60 usually see no degree event, the plug-in
    # stderr is 0 and the event-probability guard divides by 1e-12
    ops = [bench_workloads.make_op("pgw-transfer", 0, i) for i in range(0, 8, 2)]
    recs = [runner.check(op, runner.run(op)) for op in ops]
    assert all(op.kind == "transfer.lam50" for op in ops)
    assert any(r["rc"] == 3 and r["failed"] for r in recs)


def test_graph_reference_tree_test_matches_the_program():
    for g in (sample_config_model(40, 3, 1), sample_er(60, 3.0, 2), sample_config_model(300, 3, 3)):
        _, _, ok_fraction = bench_oracles.threshold_graph_reference(g.n, g.edges)
        assert ok_fraction == pytest.approx(1 - non_tree_ball_mask(g, 2).mean())


def test_graph_reference_mean_and_variance_match_simulation():
    g = sample_config_model(60, 3, 5)
    mean, se, _ = bench_oracles.threshold_graph_reference(g.n, g.edges)
    ok = ~non_tree_ball_mask(g, 2)
    nbrs = [g.neighbors(v) for v in range(g.n)]
    rng = np.random.default_rng(0)
    x = rng.random((40000, g.n))
    bits = np.zeros_like(x, dtype=bool)
    for v in np.flatnonzero(ok):
        bits[:, v] = x[:, v] < x[:, nbrs[v]].min(axis=1)
    dens = bits.mean(axis=1)
    assert abs(dens.mean() - mean) < 5 * se / math.sqrt(len(dens))
    assert dens.std() == pytest.approx(se, rel=0.05)


def test_binomial_tails_are_exact():
    lo, hi = bench_oracles.binom_tails(1, 3, 0.5)
    assert lo == pytest.approx(0.5) and hi == pytest.approx(0.875)


def test_degree_event_probability_matches_the_program():
    from localis.pgw_transfer import event_E_probability

    for lam, d in ((50.0, 60), (20.0, 28)):
        assert bench_oracles.degree_event_probability(lam, d) == pytest.approx(
            event_E_probability(lam, d), rel=1e-12)


def test_every_workload_op_passes_its_checks(runner):
    for workload in bench_workloads.WORKLOADS:
        for i in range(bench_workloads.cycle_length(workload) if workload != "stability" else 4):
            op = bench_workloads.make_op(workload, 1, i)
            if op.kind == "transfer.lam50":
                continue  # the known defect; see test_known_transfer_defect_exits_3
            rec = runner.check(op, runner.run(op))
            assert not rec["failed"], (op.kind, rec["reasons"])


def test_op_lists_depend_only_on_the_seed():
    assert bench_workloads.make_ops("stability", 3, 40) == bench_workloads.make_ops("stability", 3, 40)
    assert bench_workloads.make_ops("stability", 3, 40) != bench_workloads.make_ops("stability", 4, 40)


def test_op_count_is_whole_cycles_fixed_by_the_arguments():
    for workload in bench_workloads.WORKLOADS:
        cycle = bench_workloads.cycle_length(workload)
        for seconds, traced in ((15, False), (15, True), (1, False), (1, True)):
            n = bench_workloads.op_count(workload, seconds, traced, run.MIN_OPS)
            assert n % cycle == 0 and n >= (cycle if traced else run.MIN_OPS)
        assert bench_workloads.op_count(workload, 60, False, run.MIN_OPS) > bench_workloads.op_count(
            workload, 15, False, run.MIN_OPS)


def test_reference_seconds_scale_with_the_kernel():
    ref = bench_report.REF_KERNEL_S
    assert bench_report.to_reference_seconds(0.1, ref, ref) == pytest.approx(0.1)
    assert bench_report.to_reference_seconds(0.1, 1.5 * ref, 2.5 * ref) == pytest.approx(0.05)
    assert 0 < bench_report.reference_kernel() < 1.0


def test_hd_quantile_is_a_smooth_quantile():
    assert bench_report.hd_quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    x = np.random.default_rng(0).random(2001)
    assert bench_report.hd_quantile(x, 0.9) == pytest.approx(np.percentile(x, 90), abs=0.01)
    gap = [1.0] * 50 + [2.0] * 50  # two op kinds, half each
    assert 1.0 < bench_report.hd_quantile(gap, 0.5) < 2.0


def test_tracer_wraps_every_binding_and_restores_them():
    originals = {m: m.neighborhood for m in (graphs, factors, coupling)}
    tracer, patches = bench_trace.Tracer(), bench_trace.Patches()
    tracer.install(patches)
    try:
        assert all(m.neighborhood is not fn for m, fn in originals.items())
        g = sample_config_model(50, 3, 0)
        labels = np.arange(50, dtype=np.uint64)
        factors.project_to_graph(factors.threshold_factor(), g, labels)
    finally:
        patches.restore()
    assert all(m.neighborhood is fn for m, fn in originals.items())
    totals = tracer.totals()
    assert totals["graphs.neighborhood"][0] == totals["factors.apply_factor"][0] > 0
    assert totals["graphs.ball_is_tree"][0] == 50
    calls, total, self_time = totals["factors.project_to_graph"]
    assert calls == 1 and 0 <= self_time <= total


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench_report.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == bench_workloads.WORKLOADS


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "tree-lw", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0 and '"metrics"' not in out.stdout
