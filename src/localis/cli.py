"""Command-line front-end: reproducible experiments with CSV/JSON artifacts.

Subcommands: density, scan-p, stability, bounds, oracle-check, pgw-transfer,
replay.  Every run writes <out>.manifest.json recording the resolved
parameters, plus a `metrics` block (the effective worker count) that, like
the wall-clock time, is not part of the byte-stable contract.  There is one
run path: `localis replay <manifest>` parses the command line the manifest
records and runs it as if typed, so it reproduces the output files
byte-for-byte, and an unknown parameter or invalid value is a usage error.

Exit codes: 0 ok, 2 usage error (argparse errors and invalid parameter
values), 3 numerical guard (inconsistent profile, unobserved conditioning
event, failed oracle check).  Any other exception is a defect and propagates.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__
from .coupling import (
    ConditioningError,
    CouplingConfig,
    estimate_stability,
    scan_p,
    vertex_states,
)
from .factors import estimate_tree_density, factor_from_spec, factor_spec, graph_bits
from .graphs import (
    HOSTS,
    ConfigModelHost,
    PGWTreeHost,
    sample_config_model,
    sample_er,
)
from .io import fmt, load_manifest, write_csv, write_json, write_manifest
from .parallel import effective_workers, mean_stderr, per_trial, run_trials
from .profiles import (
    _MAX_K,
    DensityProfile,
    ProfileError,
    asymptotic_rate,
    check_alpha,
    config_set_size_totals,
    expected_Z_total,
)
from .pgw_transfer import transfer_density
from .rng import CoupledLabels, fold, trial_state

COUPLING_HEADER = [
    "host", "factor_kind", "d_or_lam", "n", "p", "k", "i",
    "mean", "stderr", "trials", "seed",
]
BOUND_HEADER = ["n", "d_or_lam", "k", "description", "value"]


class UsageError(ValueError):
    pass


def _checked(build, *args, **kwargs):
    """Build from user-supplied values; their ValueError is a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _float_list(text: str, flag: str) -> list:
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise UsageError(f"{flag} must be a comma list of numbers") from exc


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


def _build_factor(params: dict):
    kind = params["factor"]
    if kind == "lw":
        if params["lw_p"] is None or params["lw_k"] is None:
            raise UsageError("factor 'lw' requires --lw-p and --lw-k")
        spec = {"kind": "lauer-wormald",
                "params": {"p": params["lw_p"], "k": params["lw_k"]}}
    elif kind == "threshold":
        spec = {"kind": "greedy-threshold", "params": {}}
    else:  # const0 or const1
        spec = {"kind": "const", "params": {"bit": int(kind[-1])}}
    return _checked(factor_from_spec, spec)


def _build_host(params: dict):
    name = params["host"]
    cls = HOSTS[name]
    keys = [f.name for f in fields(cls)]
    if any(params[key] is None for key in keys):
        flags = " and ".join(f"--{key}" for key in keys)
        raise UsageError(f"host {name!r} requires {flags}")
    return _checked(cls, *(params[key] for key in keys))


def _factor_and_host(params: dict) -> tuple:
    """The factor and host of a density, stability or scan-p run."""
    factor, host = _build_factor(params), _build_host(params)
    if not host.tree and factor.kind == "const" and factor.params["bit"]:
        raise UsageError(
            f"factor 'const1' takes every vertex, which is no independent set on a "
            f"graph; host {host.name!r} projects independent-set rules only"
        )
    return factor, host


def _host_columns(host):
    return host.name, host.degree, getattr(host, "n", 0)


def _coupling_row(cfg: CouplingConfig, p: float, i: int, estimate: tuple) -> list:
    """One COUPLING_HEADER row: statistic i at p, estimate = (mean, stderr)."""
    hostname, d_or_lam, n = _host_columns(cfg.host)
    return [hostname, cfg.factor.kind, d_or_lam, n, p, cfg.k, i, *estimate,
            cfg.trials, cfg.seed]


def _emit(params: dict, path: str, header: list, rows: list) -> str:
    if params["format"] == "json":
        payload = [dict(zip(header, row)) for row in rows]
        write_json(path, payload)
    else:
        write_csv(path, header, rows)
    return path


# ---------------------------------------------------------------------------
# Commands (each takes resolved params, returns (outputs, trials))
# ---------------------------------------------------------------------------


def cmd_density(params: dict):
    factor, host = _factor_and_host(params)
    trials, seed, workers = params["trials"], params["seed"], params["workers"]
    if host.tree:
        est = estimate_tree_density(factor, host, trials, seed, workers)
        mean, stderr = est.mean, est.stderr
    else:
        def one(t: int):
            st = trial_state(seed, t)
            if isinstance(host, ConfigModelHost):
                g = sample_config_model(host.n, host.d, fold(st, 1))
            else:
                g = sample_er(host.n, host.lam, fold(st, 1))
            labels = CoupledLabels(vertex_states(st, host.n)).x0
            return [graph_bits(factor, g, labels).mean()]

        rows = run_trials(per_trial(one), trials, workers)
        mean, stderr = mean_stderr(rows[:, 0])
    row = [
        factor.kind,
        json.dumps(factor_spec(factor)["params"], sort_keys=True).replace(",", ";"),
        trials,
        mean,
        stderr,
        seed,
    ]
    out = params["out"]
    _emit(params, out, ["kind", "params", "trials", "mean", "stderr", "seed"], [row])
    return [out], trials


def _coupling_config(params: dict, p: float) -> CouplingConfig:
    factor, host = _factor_and_host(params)
    return _checked(
        CouplingConfig,
        p=p,
        k=params["k"],
        factor=factor,
        host=host,
        trials=params["trials"],
        inner_trials=params["inner_trials"],
        seed=params["seed"],
        workers=params["workers"],
    )


def cmd_scan_p(params: dict):
    grid = _float_list(params["grid"], "--grid")
    if not grid or any(not 0.0 <= p <= 1.0 for p in grid):
        raise UsageError("grid must be a comma list of values in [0, 1]")
    cfg = _coupling_config(params, grid[0])
    degree = cfg.host.degree
    if degree == 0 or (degree == 1 and cfg.k >= 2):
        # host_scale takes log(degree); alpha divides by it, 0 at degree 1
        raise UsageError(
            f"scan-p needs a mean degree above 0, and other than 1 when "
            f"--k >= 2; got {degree:g} with --k {cfg.k}"
        )
    result = scan_p(cfg, grid)
    _, d_or_lam, n = _host_columns(cfg.host)
    inter_rows, stab_rows, binom_rows = [], [], []
    for row in result.rows:
        for i in range(1, cfg.k + 1):
            inter_rows.append(_coupling_row(cfg, row.p, i, row.intersections.density(i)))
            stab_rows.append(_coupling_row(cfg, row.p, i, row.stability.moment(i - 1)))
        for name, val in sorted(row.binom_stats.items()):
            binom_rows.append([n, d_or_lam, cfg.k, f"{name}@p={fmt(row.p)}", val])
    binom_rows.append(
        [n, d_or_lam, cfg.k, "max_adjacent_jump", result.max_adjacent_jump()]
    )
    out = params["out"]
    outputs = [
        _emit(params, out + ".intersections.csv", COUPLING_HEADER, inter_rows),
        _emit(params, out + ".stability.csv", COUPLING_HEADER, stab_rows),
        _emit(params, out + ".binom.csv", BOUND_HEADER, binom_rows),
    ]
    return outputs, params["trials"]


def cmd_stability(params: dict):
    p = params["p"]
    if not 0.0 <= p <= 1.0:
        raise UsageError("--p must lie in [0, 1]")
    cfg = _coupling_config(params, p)
    est = estimate_stability(cfg)
    rows = [_coupling_row(cfg, p, i, est.moment(i - 1)) for i in range(1, cfg.k + 1)]
    out = params["out"]
    _emit(params, out, COUPLING_HEADER, rows)
    return [out], params["trials"]


def cmd_bounds(params: dict):
    alpha = _float_list(params["alpha"], "--alpha")
    if not 1 <= len(alpha) <= _MAX_K:
        raise UsageError(f"--alpha must be a comma list of 1..{_MAX_K} values")
    _checked(check_alpha, alpha)
    k = len(alpha)
    d = params["d"]
    if d < 1:
        raise UsageError("bounds requires --d >= 1")
    rate = asymptotic_rate(alpha, d)
    report = {
        "k": k,
        "d": d,
        "alpha": alpha,
        "binom_sum": rate.binom_sum,
        "H_pi": rate.h_pi,
        "H_hat": rate.h_hat,
        "rate_bound": rate.rate_bound,
        "leading_term": rate.leading,
        "gap": rate.gap,
    }
    if params["self_test"]:
        dp = DensityProfile(1, np.array([1.0, 0.5]))
        exact = expected_Z_total(dp, 2, 2)
        totals, pairings = config_set_size_totals(2, 2)
        brute = totals[1] / pairings
        report["self_test"] = {
            "n": 2, "d": 2, "formula": exact, "enumeration": brute,
            "relative_error": abs(exact - brute) / brute,
        }
        if report["self_test"]["relative_error"] > 1e-9:
            raise ProfileError("bounds self-test failed the oracle comparison")
    out = params["out"]
    write_json(out, report)
    return [out], None


def cmd_oracle_check(params: dict):
    n, d = params["n"], params["d"]
    if n < 1 or d < 1:
        raise UsageError("oracle-check requires --n >= 1 and --d >= 1")
    if n * d % 2:
        raise UsageError("n*d must be even")
    if n * d > 14:  # the enumeration visits (n*d - 1)!! <= 13!! = 135135 pairings
        raise UsageError(f"oracle-check enumerates every pairing: n*d <= 14, got {n * d}")
    tol = params["tol"]
    if not (math.isfinite(tol) and tol >= 0):
        raise UsageError(f"--tol must be a finite number >= 0, got {tol}")
    totals, pairings = config_set_size_totals(n, d)
    rows = []
    worst = 0.0
    for m in range(n + 1):
        profile = DensityProfile(1, np.array([1.0, m / n]))
        exact = expected_Z_total(profile, n, d)
        brute = totals[m] / pairings
        rel = abs(exact - brute) / max(1.0, abs(brute))
        worst = max(worst, rel)
        rows.append([n, d, 1, f"set_size={m}:formula_vs_enumeration", rel])
    rows.append([n, d, 1, "worst_relative_error", worst])
    out = params["out"]
    _emit(params, out, BOUND_HEADER, rows)
    if worst > tol:
        raise ProfileError(
            f"oracle check failed: worst relative error {worst:.3e} > {tol:.1e}"
        )
    return [out], None


def cmd_pgw_transfer(params: dict):
    lam = _checked(PGWTreeHost, params["lam"]).lam  # 0 < lam <= POISSON_LAM_MAX
    if (params["d"] is None) == (params["schedule_u"] is None):
        raise UsageError("pgw-transfer requires exactly one of --d and --schedule-u")
    if params["schedule_u"] is not None:
        u = params["schedule_u"]
        if not 0.5 < u < 1.0:
            raise UsageError("--schedule-u must lie strictly between 1/2 and 1")
        d = math.ceil(lam + lam**u)
    else:
        d = params["d"]
    if d < 2:
        raise UsageError(f"pgw-transfer needs d >= 2, got {d}")
    factor = _build_factor(params)
    rep = transfer_density(
        factor, lam, d, params["trials"], params["seed"], params["workers"]
    )
    if params["check_event_mc"]:
        z = abs(rep.p_event_mc - rep.p_event_exact) / max(rep.stderr_event, 1e-12)
        if z > 3.0:
            raise ProfileError(
                f"exact event probability {rep.p_event_exact:.6f} disagrees with "
                f"Monte Carlo {rep.p_event_mc:.6f} (z = {z:.2f})"
            )
    header = ["lambda", "d", "trials", "density_J", "stderr", "density_I",
              "P_E_exact", "lower", "upper", "seed"]
    row = [lam, d, rep.trials, rep.density_j, rep.stderr_j, rep.density_i,
           rep.p_event_exact, rep.lower, rep.upper, params["seed"]]
    out = params["out"]
    _emit(params, out, header, [row])
    return [out], params["trials"]


def _run_metrics(params: dict, trials) -> dict:
    """The manifest's `metrics` block: run facts outside the byte-stable
    contract.  Every run_trials call of a command uses its --trials."""
    return {"workers_effective": effective_workers(trials or 1, params.get("workers", 1))}


COMMANDS = {
    "density": cmd_density,
    "scan-p": cmd_scan_p,
    "stability": cmd_stability,
    "bounds": cmd_bounds,
    "oracle-check": cmd_oracle_check,
    "pgw-transfer": cmd_pgw_transfer,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(sp, trials_default=10000):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=trials_default)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")


def _add_factor(sp):
    sp.add_argument("--factor", choices=["lw", "threshold", "const0", "const1"],
                    default="threshold")
    sp.add_argument("--lw-p", type=float, dest="lw_p")
    sp.add_argument("--lw-k", type=int, dest="lw_k")


def _add_host(sp):
    sp.add_argument("--host", choices=list(HOSTS), default="regular-tree")
    sp.add_argument("--d", type=int)
    sp.add_argument("--lam", type=float)
    sp.add_argument("--n", type=int)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args leaves it as it
    is, so every main call shares it."""
    parser = argparse.ArgumentParser(
        prog="localis",
        description="Local-algorithm independent set simulation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("density", help="Monte Carlo density of a factor")
    _add_factor(sp); _add_host(sp); _add_common(sp)

    sp = sub.add_parser("scan-p", help="couplings over a grid of p values")
    _add_factor(sp); _add_host(sp); _add_common(sp, 2000)
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--inner-trials", type=int, dest="inner_trials", default=200)
    sp.add_argument("--grid", default="0,0.25,0.5,0.75,1")

    sp = sub.add_parser("stability", help="nested stability moments at one p")
    _add_factor(sp); _add_host(sp); _add_common(sp, 2000)
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--inner-trials", type=int, dest="inner_trials", default=400)
    sp.add_argument("--p", type=float, required=True)

    sp = sub.add_parser("bounds", help="entropy rate bound report for alpha values")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--self-test", action="store_true", dest="self_test")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("oracle-check",
                        help="exact-count formula vs full pairing enumeration")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")

    sp = sub.add_parser("pgw-transfer", help="three-stage density transfer report")
    _add_factor(sp); _add_common(sp, 20000)
    sp.add_argument("--lam", type=float, required=True)
    sp.add_argument("--d", type=int)
    sp.add_argument("--schedule-u", type=float, dest="schedule_u")
    sp.add_argument("--check-event-mc", action="store_true", dest="check_event_mc")

    sp = sub.add_parser("replay", help="re-run a recorded manifest")
    sp.add_argument("manifest")
    sp.add_argument("--out")

    return parser


def _replay_args(parser: argparse.ArgumentParser, path: str, out) -> argparse.Namespace:
    """Parse the command line a manifest records: `--key-with-dashes=value`
    per param (str(float) round-trips), a True switch bare, None and False
    omitted, and `--out` replaced by `out` when given."""
    try:
        manifest = load_manifest(path)
    except (OSError, ValueError) as exc:  # missing, unreadable or not JSON
        raise UsageError(f"cannot read manifest {path}: {exc}") from exc
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if not isinstance(command, str) or command not in COMMANDS:
        raise UsageError(f"manifest {path} names no known command: {command!r}")
    recorded = manifest.get("params")
    if not isinstance(recorded, dict):
        raise UsageError(f"manifest {path} has no params")
    if out:
        recorded = {**recorded, "out": out}
    argv = [command]
    for key, value in recorded.items():
        flag = "--" + key.replace("_", "-")
        if "--help".startswith(flag):
            continue  # no param, and --help would exit 0; reported below
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv.append(f"{flag}={value}")  # the = form keeps "-3" a value
    args = parser.parse_args(argv)
    # argparse takes an unambiguous prefix for a flag; a key must be a dest
    unknown = sorted(recorded.keys() - vars(args).keys())
    if unknown:
        raise UsageError(f"manifest {path} records unknown params: {unknown}")
    return args


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        if args.command == "replay":
            args = _replay_args(parser, args.manifest, args.out)
        params = {k: v for k, v in vars(args).items() if k != "command"}
        for flag in ("trials", "workers"):
            if params.get(flag, 1) < 1:
                raise UsageError(f"--{flag} must be >= 1")
        outputs, trials = COMMANDS[args.command](params)
    except (ProfileError, ConditioningError) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    write_manifest(
        params["out"], args.command, params, outputs, __version__,
        time.time() - started, trials, _run_metrics(params, trials),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
