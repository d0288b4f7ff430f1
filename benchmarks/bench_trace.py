"""Outside-in instrumentation of the localis layers, from the benchmark's side.

Nothing here edits the program.  Instrumentation replaces module attributes
and class methods for the duration of one op and restores them afterwards.
A callee is bound by name inside every module that imports it (for example
`neighborhood` in graphs, factors and coupling), so a function is replaced
at every binding, not only in its defining module.

Three kinds of instrumentation:

* Capture keeps values an op computes but does not write (the sampled graph,
  stability acceptance counts) for the reference checks.  It is installed in
  untraced runs too; it adds one Python call per captured call.
* Counters count rng folds and lazy-tree nodes and time two coarse graph
  stages.  They run in their own pass, so the fold counter (millions of calls)
  inflates no span.
* Tracer records spans (name, start, end, parent) around every boundary call
  and keeps them in memory until the run ends.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from dataclasses import replace

import numpy as np

from localis import cli, coupling, factors, graphs, io, parallel, pgw_transfer, rng

MODULE_NAMES = ("rng", "graphs", "factors", "coupling", "pgw_transfer", "parallel", "io", "cli")
_MODULES = (rng, graphs, factors, coupling, pgw_transfer, parallel, io, cli)


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def rebind(self, original, wrap) -> None:
        """Replace every module-level binding of `original` with
        wrap(module_name), one wrapper per binding module."""
        for mod_name, mod in zip(MODULE_NAMES, _MODULES):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrap(mod_name))

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _recording(fn, sink: list):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        sink.append(out)
        return out

    return wrapper


class Capture:
    """Results of the samplers cli calls directly, and of estimate_stability."""

    def __init__(self):
        self.values = {"graphs": [], "stability": []}

    def reset(self) -> dict:
        for sink in self.values.values():
            sink.clear()
        return self.values

    def install(self, patches: Patches) -> None:
        for name in ("sample_config_model", "sample_er"):
            patches.set(cli, name, _recording(getattr(cli, name), self.values["graphs"]))
        sink = self.values["stability"]
        original = coupling.estimate_stability
        patches.rebind(original, lambda _mod: _recording(original, sink))


# ---------------------------------------------------------------------------
# Counting pass
# ---------------------------------------------------------------------------


class Counters:
    """Per-op counts and coarse stage timers (no spans)."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.folds = 0
        self.fold_errors = 0
        self.tree_nodes = []  # nodes materialised per LazyTree (one per trial)
        self.pgw_tree_nodes = []  # size of each eager PGW tree
        self.mask = []  # (model, vertices, tree-ball vertices, seconds)
        self.project = []  # (model, vertices, seconds)

    def install(self, patches: Patches) -> None:
        fold = rng.fold

        def counting_fold(state, data):
            self.folds += 1
            try:
                return fold(state, data)
            except BaseException:
                self.fold_errors += 1
                raise

        patches.rebind(fold, lambda _mod: counting_fold)

        lazy_init, lazy_children = graphs.LazyTree.__init__, graphs.LazyTree.children
        nodes = self.tree_nodes

        def init(tree, *args, **kwargs):
            lazy_init(tree, *args, **kwargs)
            tree._bench_slot = len(nodes)
            nodes.append(1)

        def children(tree, node):
            fresh = node.children is None
            kids = lazy_children(tree, node)
            if fresh:
                nodes[tree._bench_slot] += len(kids)
            return kids

        patches.set(graphs.LazyTree, "__init__", init)
        patches.set(graphs.LazyTree, "children", children)

        sample_pgw = graphs.sample_pgw_tree

        def pgw_tree(*args, **kwargs):
            tree = sample_pgw(*args, **kwargs)
            self.pgw_tree_nodes.append(tree.n)
            return tree

        patches.rebind(sample_pgw, lambda _mod: pgw_tree)

        mask_fn = graphs.non_tree_ball_mask

        def mask(g, radius):
            t0 = time.perf_counter()
            bad = mask_fn(g, radius)
            self.mask.append((g.model, g.n, int(g.n - bad.sum()), time.perf_counter() - t0))
            return bad

        patches.rebind(mask_fn, lambda _mod: mask)

        project_fn = factors.project_to_graph

        def project(f, g, labels):
            t0 = time.perf_counter()
            out = project_fn(f, g, labels)
            self.project.append((g.model, g.n, time.perf_counter() - t0))
            return out

        patches.rebind(project_fn, lambda _mod: project)


# ---------------------------------------------------------------------------
# Span pass
# ---------------------------------------------------------------------------

# (owner, attribute, span name) for class methods
_METHOD_SPANS = (
    (graphs.LazyTree, "children", "graphs.lazytree.children"),
    (graphs.TreeLabels, "label", "graphs.lazytree.label"),
    (graphs.MultiGraph, "__post_init__", "graphs.multigraph_build"),
)
# (function, span name, {binding module: span name} overrides)
_FUNCTION_SPANS = (
    (factors.apply_factor, "factors.apply_factor", {}),
    (factors.project_to_graph, "factors.project_to_graph", {}),
    (factors.estimate_tree_density, "factors.estimate_tree_density",
     {"pgw_transfer": "pgw_transfer.density_i"}),
    (graphs.sample_config_model, "graphs.sample_config_model", {}),
    (graphs.sample_er, "graphs.sample_er", {}),
    (graphs.sample_pgw_tree, "graphs.sample_pgw_tree", {}),
    (graphs.non_tree_ball_mask, "graphs.non_tree_ball_mask", {}),
    (graphs.ball_is_tree, "graphs.ball_is_tree", {}),
    (graphs.neighborhood, "graphs.neighborhood", {}),
    (coupling.estimate_stability, "coupling.estimate_stability", {}),
    (coupling.scan_p, "coupling.scan_p", {}),
    (coupling.coupled_tree_intersections, "coupling.intersections", {}),
    (coupling.coupled_graph_intersections, "coupling.intersections", {}),
    (coupling.coupled_er_intersections, "coupling.intersections", {}),
    (coupling.er_resample_graphs, "coupling.er_resample_graphs", {}),
    (pgw_transfer.transfer_density, "pgw_transfer.transfer_density", {}),
    (pgw_transfer.transfer_trace, "pgw_transfer.transfer_trace", {}),
    (pgw_transfer.edge_removal_stage, "pgw_transfer.edge_removal_stage", {}),
    (pgw_transfer.filling_out_stage, "pgw_transfer.filling_out_stage", {}),
    (pgw_transfer.inclusion_stage, "pgw_transfer.inclusion_stage", {}),
    (io.write_csv, "io.write_csv", {}),
    (io.write_json, "io.write_json", {}),
    (io.write_manifest, "io.write_manifest", {}),
)
# writers that create a file (write_manifest delegates to write_json)
_FILE_WRITERS = ("io.write_csv", "io.write_json")


class Tracer:
    """In-memory span recorder.  Span i has name id name[i], times start[i]
    and end[i] (perf_counter seconds) and parent index parent[i] (-1 for a
    root span)."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = {}
        self.bytes_written = 0
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, errors, clock = self._stack, self.errors, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[name] = errors.get(name, 0) + 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        return span

    def install(self, patches: Patches) -> None:
        for owner, attr, name in _METHOD_SPANS:
            patches.set(owner, attr, self.wrap(name, owner.__dict__[attr]))
        for fn, name, overrides in _FUNCTION_SPANS:

            def make(mod, fn=fn, name=name, overrides=overrides):
                span = self.wrap(overrides.get(mod, name), fn)
                return self._counting_bytes(span) if name in _FILE_WRITERS else span

            patches.rebind(fn, make)
        run_trials = parallel.run_trials
        traced_run = self.wrap("parallel.run_trials", run_trials)
        wrap = self.wrap

        def run_trials_span(fn, *args, **kwargs):
            return traced_run(wrap("parallel.trial_fn", fn), *args, **kwargs)

        patches.rebind(run_trials, lambda _mod: run_trials_span)
        from_spec = factors.factor_from_spec

        def factor_from_spec(spec):
            f = from_spec(spec)
            return replace(f, rule=wrap("factors.rule", f.rule))

        patches.rebind(from_spec, lambda _mod: factor_from_spec)

    def _counting_bytes(self, span):
        """An io writer's span that also adds the written file's size."""

        @functools.wraps(span)
        def writer(path, *args, **kwargs):
            out = span(path, *args, **kwargs)
            self.bytes_written += os.path.getsize(path)
            return out

        return writer

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def totals(self) -> dict:
        """{span name: (calls, inclusive seconds, self seconds)}.  Self time
        is a span's duration minus the durations of its direct children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = (int(sel.sum()), float(dur[sel].sum()), float(self_time[sel].sum()))
        return out

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
