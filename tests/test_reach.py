"""Reach or remove: every function in src/ is run by a command or named here.

The audit runs a fixed list of small CLI runs, one per path, in a fresh
interpreter: every subcommand, all four hosts, each factor kind, the
transfer's options, JSON output, replay, and one run on two processes.
sys.setprofile records the code objects they call.  Every named function of the package that none of
them calls must be on ALLOWED, with one of the reasons in REASONS, so code
that nothing reaches cannot come back unnoticed.  A "benchmark binding"
entry must name, owner and member, what benchmarks/*.py refer to, so an
entry goes stale once the benchmark drops its binding.
"""

import ast
import glob
import inspect
import json
import os
import subprocess
import sys
import types

import localis
from localis import cli, coupling, factors, graphs, io, parallel, pgw_transfer, profiles, rng

MODULES = (cli, coupling, factors, graphs, io, parallel, pgw_transfer, profiles, rng)

REASONS = {
    "oracle": "an exact or brute-force reference the tests check Monte Carlo against",
    "paper quantity": "a formula of the paper that no report prints yet",
    "test reference": "the slow or per-call form tests compare the fast path with",
    "benchmark binding": "bound by name in benchmarks/",
    "fork child": "runs in a worker process, where the audit sees no calls",
}

ALLOWED = {
    "profiles.profile_from_sets": "oracle",
    "profiles.intersection_edge_count": "oracle",
    "profiles.jensen_equality_profile": "oracle",
    "profiles.max_entropy_check": "oracle",
    "profiles.er_log_expected_Z": "oracle",
    "profiles.forced_pairs": "oracle",
    "profiles.signatures": "oracle",
    "profiles.density_row": "oracle",
    "profiles.alpha_to_beta": "oracle",
    "profiles._cardinality_sum": "oracle",
    "profiles.EdgeProfile.marginal": "oracle",
    "profiles.beta_to_alpha": "oracle",
    "profiles.s_k": "oracle",
    "profiles.pi_to_rho": "oracle",
    "factors.beta_formula": "paper quantity",
    "pgw_transfer.poisson_tail": "paper quantity",
    "pgw_transfer.poisson_tail_bound": "paper quantity",
    "pgw_transfer.schedule_tail_bound": "paper quantity",
    "pgw_transfer.event_E_lower_bound": "paper quantity",
    "pgw_transfer.event_K_probability": "oracle",  # of transfer_density: E[J] = density_I P(K)
    "factors.lw_density_exact": "oracle",  # of estimate_tree_density on lauer_wormald
    "graphs.sample_regular_tree": "test reference",
    # the per-node transfer stages, the reference of transfer_block's root stars
    "graphs.sample_pgw_tree": "benchmark binding",
    "pgw_transfer.transfer_trace": "benchmark binding",  # transfer_block of one trial
    "graphs._build_tree": "test reference",
    "rng.uniform_labels": "test reference",  # the eager trees' labels, by _build_tree
    "graphs.RootedNeighborhood.n": "test reference",
    "pgw_transfer.edge_removal_stage": "benchmark binding",
    "pgw_transfer.filling_out_stage": "benchmark binding",
    "pgw_transfer.inclusion_stage": "benchmark binding",
    "pgw_transfer._edge_id": "test reference",
    "pgw_transfer._surviving": "test reference",
    "pgw_transfer._incident_removed": "test reference",
    "pgw_transfer._AttachNode.__init__": "test reference",
    "pgw_transfer.FilledForest.__init__": "test reference",
    "pgw_transfer.FilledForest.state": "test reference",
    "pgw_transfer.FilledForest._children": "test reference",
    "pgw_transfer.FilledForest._attachments": "test reference",
    "pgw_transfer.FilledForest.ball_view": "test reference",
    "pgw_transfer.FilledForest._neighbors": "test reference",
    "factors._project_bits": "test reference",
    # the view protocol, which no command runs since graph-host stability
    # reads cut graphs: each factor's view rule, the reference of its array
    # and graph forms, and the materialised balls and scalar labels it reads
    "factors._lw_rule.rule": "test reference",
    "rng.first_success_round": "test reference",
    "factors._threshold_rule": "test reference",
    "factors.apply_factor": "benchmark binding",
    "graphs.neighborhood": "benchmark binding",
    "graphs.ball_is_tree": "benchmark binding",  # and the reference of tree_ball_mask
    "graphs._Incidences.__missing__": "test reference",  # adj, read by the BFS references
    "graphs.RootedNeighborhood.label": "test reference",
    "graphs.RootedNeighborhood.neighbors": "test reference",
    "graphs.RootedNeighborhood.order_key": "test reference",
    "graphs.RootedNeighborhood.with_labels": "test reference",
    "rng.coupled_label": "test reference",  # CoupledLabels for one node, read by TreeLabels
    "factors.IndependentSetSample.members": "test reference",
    "factors.IndependentSetSample.violations": "test reference",
    "graphs.MultiGraph.read_all": "test reference",
    "graphs.MultiGraph.pairing": "test reference",
    "graphs.MultiGraph.to_json": "test reference",
    "graphs.RootedNeighborhood.edges": "test reference",
    "graphs.RootedNeighborhood.to_json": "test reference",
    "graphs._LazyNode.__init__": "test reference",
    "graphs.LazyTree.__init__": "benchmark binding",
    "graphs.LazyTree.children": "benchmark binding",
    "graphs.LazyTree.neighbors": "test reference",
    "graphs.TreeLabels.__init__": "test reference",
    "graphs.TreeLabels.root": "test reference",
    "graphs.TreeLabels.radius": "test reference",
    "graphs.TreeLabels.neighbors": "test reference",
    "graphs.TreeLabels.label": "benchmark binding",
    "graphs.TreeLabels.order_key": "test reference",
    "graphs.MultiGraph.neighbors": "benchmark binding",
    "factors.project_to_graph": "benchmark binding",
    "graphs.non_tree_ball_mask": "benchmark binding",
    "parallel._run_block": "fork child",
}

RUNS = [
    ["density", "--factor", "lw", "--lw-p", "0.3", "--lw-k", "2", "--host", "regular-tree",
     "--d", "3", "--trials", "40"],
    ["density", "--factor", "threshold", "--host", "pgw", "--lam", "2", "--trials", "40"],
    ["density", "--factor", "const0", "--host", "regular-tree", "--d", "3", "--trials", "5"],
    ["density", "--factor", "const1", "--host", "pgw", "--lam", "1", "--trials", "5"],
    ["density", "--factor", "lw", "--lw-p", "0.3", "--lw-k", "1", "--host", "er", "--n", "40",
     "--lam", "2", "--trials", "2", "--format", "json"],
    ["density", "--factor", "const0", "--host", "config-model", "--n", "40", "--d", "3",
     "--trials", "2"],
    ["stability", "--factor", "threshold", "--host", "regular-tree", "--d", "3", "--k", "2",
     "--p", "0.5", "--trials", "40", "--inner-trials", "5"],
    ["stability", "--factor", "lw", "--lw-p", "0.3", "--lw-k", "2", "--host", "pgw",
     "--lam", "2", "--k", "2", "--p", "0.5", "--trials", "40", "--inner-trials", "5"],
    ["stability", "--factor", "threshold", "--host", "config-model", "--n", "40", "--d", "3",
     "--k", "2", "--p", "0.5", "--trials", "40", "--inner-trials", "5"],
    ["stability", "--factor", "threshold", "--host", "er", "--n", "40", "--lam", "2",
     "--k", "2", "--p", "0.5", "--trials", "40", "--inner-trials", "5"],
    ["scan-p", "--factor", "threshold", "--host", "regular-tree", "--d", "3", "--k", "2",
     "--grid", "0,1", "--trials", "40", "--inner-trials", "5"],
    ["scan-p", "--factor", "threshold", "--host", "config-model", "--n", "40", "--d", "3",
     "--k", "3", "--grid", "0.5", "--trials", "40", "--inner-trials", "4", "--format", "json"],
    ["scan-p", "--factor", "lw", "--lw-p", "0.3", "--lw-k", "1", "--host", "er", "--n", "40",
     "--lam", "2", "--k", "2", "--grid", "0.5", "--trials", "60", "--inner-trials", "4"],
    ["bounds", "--alpha", "1,0.5,0.25", "--d", "100", "--self-test"],
    ["oracle-check", "--n", "4", "--d", "2"],
    ["pgw-transfer", "--factor", "threshold", "--lam", "3", "--d", "5", "--trials", "30",
     "--check-event-mc"],
    ["pgw-transfer", "--factor", "threshold", "--lam", "3", "--schedule-u", "0.75",
     "--trials", "10"],
    ["pgw-transfer", "--factor", "lw", "--lw-p", "0.3", "--lw-k", "1", "--lam", "3", "--d", "5",
     "--trials", "10", "--format", "json"],
    ["density", "--factor", "threshold", "--host", "regular-tree", "--d", "3",
     "--trials", "16", "--workers", "2"],
]


def code_objects(code: types.CodeType, qualname: str):
    """(qualified name, code) of a named function and the functions it nests."""
    yield qualname, code
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            yield from code_objects(const, f"{qualname}.{const.co_name}")


def package_functions() -> dict:
    """Every named function defined in the package, by qualified name."""
    out = {}
    for mod in MODULES:
        prefix = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{k}", v) for k, v in vars(obj).items()]
            for qual, fn in members:
                fn = getattr(fn, "fget", None) or getattr(fn, "func", None) or fn
                fn = getattr(fn, "__func__", fn)
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_filename.startswith(localis.__path__[0]):
                    if getattr(fn, "__module__", None) == mod.__name__:
                        out.update(code_objects(code, f"{prefix}.{qual}"))
    return out


def uncalled(tmp: str) -> list:
    """The package's named functions that none of the runs calls."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [cli.main(argv + ["--out", f"{tmp}/run{i}"]) for i, argv in enumerate(RUNS)]
        codes.append(cli.main(["replay", f"{tmp}/run0.manifest.json", "--out", f"{tmp}/again"]))
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(codes)
    return sorted(name for name, code in package_functions().items() if code not in called)


def test_every_function_is_reached_or_allowed(tmp_path):
    # a fresh interpreter: caches filled by other tests (the parser, the
    # Poisson tables) would hide the calls that fill them
    src, here = os.path.dirname(localis.__path__[0]), os.path.dirname(__file__)
    script = f"import json, test_reach; print(json.dumps(test_reach.uncalled({str(tmp_path)!r})))"
    audit = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, here])},
    )
    functions = package_functions()
    # a function nested in an allowed one is allowed with it
    missing = [name for name in json.loads(audit.stdout.splitlines()[-1]) if not any(
        ".".join(name.split(".")[:i]) in ALLOWED for i in range(2, name.count(".") + 2))]
    assert missing == []
    assert sorted(set(ALLOWED) - set(functions)) == []  # no stale entry
    assert set(ALLOWED.values()) <= set(REASONS)


def benchmark_names() -> set:
    """The names, attribute names and string constants in benchmarks/*.py."""
    here = os.path.dirname(os.path.abspath(__file__))
    names = set()
    for path in glob.glob(os.path.join(here, os.pardir, "benchmarks", "*.py")):
        with open(path) as fh:
            for node in ast.walk(ast.parse(fh.read())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_benchmark_bindings_are_named_in_benchmarks():
    names = benchmark_names()
    stale = [name for name, reason in ALLOWED.items()
             if reason == "benchmark binding" and not set(name.split(".")[1:]) <= names]
    assert stale == []
