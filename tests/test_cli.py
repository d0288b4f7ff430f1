import dataclasses
import json
import math
import os
import time

import pytest

from localis import cli, profiles
from localis.cli import main
from localis.coupling import host_scale
from localis.graphs import HOSTS, ErdosRenyiHost, PGWTreeHost
from localis.io import load_manifest
from localis.parallel import _fork_available, effective_workers
from localis.rng import POISSON_LAM_MAX


# the CPUs this process may run on, the cap of effective_workers
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def run(args):
    return main(args)


def exit_code(args):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def read(path):
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def test_density_command_and_replay(tmp_path):
    out = str(tmp_path / "dens.csv")
    code = run(["density", "--factor", "threshold", "--host", "regular-tree",
                "--d", "3", "--trials", "3000", "--seed", "5", "--out", out])
    assert code == 0
    lines = read(out).strip().splitlines()
    assert lines[0] == "kind,params,trials,mean,stderr,seed"
    fields = lines[1].split(",")
    mean = float(fields[3])
    assert 0.2 < mean < 0.3
    manifest = load_manifest(out + ".manifest.json")
    assert manifest["command"] == "density" and manifest["seed"] == 5
    out2 = str(tmp_path / "dens2.csv")
    assert run(["replay", out + ".manifest.json", "--out", out2]) == 0
    assert read(out) == read(out2)


def test_consecutive_main_calls_leak_no_flag_values(tmp_path):
    # main parses with one parser per process; a flag set in one call must
    # not reach the params of the next
    assert cli.build_parser() is cli.build_parser()
    first = str(tmp_path / "pgw.csv")
    assert run(["density", "--host", "pgw", "--lam", "3", "--trials", "10",
                "--out", first]) == 0
    assert load_manifest(first + ".manifest.json")["params"]["lam"] == 3.0
    # const1 includes every root of regular-tree, so the stability call is
    # never refused for want of an accepted outer trial
    for args in (["stability", "--factor", "const1", "--p", "0.5", "--k", "2",
                  "--inner-trials", "5"],
                 ["density"]):
        out = str(tmp_path / (args[0] + ".csv"))
        assert run(args + ["--host", "regular-tree", "--d", "3", "--trials", "10",
                           "--out", out]) == 0
        params = load_manifest(out + ".manifest.json")["params"]
        assert params["lam"] is None and params["host"] == "regular-tree", args
    assert params["factor"] == "threshold"  # the default again after const1


BAD_MANIFESTS = {
    "missing": None,
    "unreadable": "directory",
    "not-json": b"{",
    "not-utf8": b"\xff\xfe",
    "not-an-object": [1, 2],
    "no-command": {"params": {}},
    "unknown-command": {"command": "nope", "params": {}},
    "replay-command": {"command": "replay", "params": {"manifest": "x"}},
    "no-params": {"command": "density"},
    "params-not-an-object": {"command": "density", "params": [1]},
}


@pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
def test_replay_of_a_bad_manifest_is_a_usage_error(tmp_path, capsys, case):
    path = tmp_path / "run.manifest.json"
    content = BAD_MANIFESTS[case]
    if content == "directory":
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(json.dumps(content))
    assert run(["replay", str(path), "--out", str(tmp_path / "again.csv")]) == 2
    assert "usage error" in capsys.readouterr().err


# A replay parses the command line its manifest records, so its params get
# the checks a typed command line gets: (manifest, the error it must print).
TREE_DENSITY = {"factor": "threshold", "host": "regular-tree", "d": 3, "trials": 5}
INVALID_PARAMS = {
    "empty": ({}, "usage error: host 'regular-tree' requires --d"),
    "trials-zero": ({**TREE_DENSITY, "trials": 0}, "usage error: --trials must be >= 1"),
    "trials-not-an-int": ({**TREE_DENSITY, "trials": "abc"},
                          "argument --trials: invalid int value: 'abc'"),
    "d-not-an-int": ({**TREE_DENSITY, "d": 3.5}, "argument --d: invalid int value: '3.5'"),
    "unknown-key": ({**TREE_DENSITY, "bogus": 1}, "unrecognized arguments: --bogus=1"),
    "key-a-prefix-of-a-flag": ({"d": 3, "tri": 5}, "records unknown params: ['tri']"),
    "help": ({**TREE_DENSITY, "help": True}, "records unknown params: ['help']"),
    "unknown-host": ({**TREE_DENSITY, "host": "torus"},
                     "argument --host: invalid choice: 'torus'"),
}


@pytest.mark.parametrize("case", sorted(INVALID_PARAMS))
def test_replay_checks_params_like_a_command_line(tmp_path, capsys, case):
    params, message = INVALID_PARAMS[case]
    path = tmp_path / "run.manifest.json"
    path.write_text(json.dumps({"command": "density", "params": params}))
    assert exit_code(["replay", str(path), "--out", str(tmp_path / "again.csv")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "again.csv").exists()


# One command line per kind of flag: a float and a switch, a switch alone,
# underscore dests with a non-default format, a comma list, a negative value.
REPLAYED = {
    "pgw-transfer": ["pgw-transfer", "--lam", "10", "--schedule-u", "0.75",
                     "--check-event-mc", "--trials", "4000", "--seed", "7"],
    "bounds": ["bounds", "--alpha", "1,0.8", "--d", "100", "--self-test"],
    "density-lw-json": ["density", "--factor", "lw", "--lw-p", "0.02", "--lw-k", "250",
                        "--format", "json", "--d", "3", "--trials", "50"],
    "scan-p": ["scan-p", "--inner-trials", "30", "--grid", "0,0.5,1", "--d", "3",
               "--k", "2", "--trials", "100"],
    "negative-seed": ["density", "--seed=-3", "--d", "3", "--trials", "50"],
}


@pytest.mark.parametrize("case", sorted(REPLAYED))
def test_replay_rebuilds_the_outputs_and_the_params(tmp_path, case):
    out, again = str(tmp_path / "run"), str(tmp_path / "again")
    assert run(REPLAYED[case] + ["--out", out]) == 0
    assert run(["replay", out + ".manifest.json", "--out", again]) == 0
    first, second = (load_manifest(o + ".manifest.json") for o in (out, again))
    assert second["command"] == first["command"]
    # dumped, so that 3 and 3.0 differ
    assert (json.dumps(second["params"], sort_keys=True)
            == json.dumps({**first["params"], "out": again}, sort_keys=True))
    assert len(first["outputs"]) == len(second["outputs"])
    for name, replayed in zip(first["outputs"], second["outputs"]):
        assert read(tmp_path / replayed) == read(tmp_path / name), name


def test_manifest_records_the_effective_worker_count(tmp_path):
    # 10 trials are fewer than 4 per worker at --workers 8: run_trials stays
    # in-process, and the manifest says so
    out = str(tmp_path / "w.csv")
    args = ["density", "--factor", "threshold", "--host", "regular-tree", "--d", "3",
            "--seed", "5", "--workers", "8"]
    assert run(args + ["--trials", "10", "--out", out]) == 0
    assert load_manifest(out + ".manifest.json")["metrics"] == {"workers_effective": 1}
    out2 = str(tmp_path / "w2.csv")
    assert run(["replay", out + ".manifest.json", "--out", out2]) == 0
    assert read(out2) == read(out)
    assert load_manifest(out2 + ".manifest.json")["metrics"] == {"workers_effective": 1}
    out3 = str(tmp_path / "w3.csv")
    assert run(["bounds", "--alpha", "1,0.8", "--d", "100", "--out", out3]) == 0
    assert load_manifest(out3 + ".manifest.json")["metrics"] == {"workers_effective": 1}


def test_effective_workers_matches_the_run_trials_rule():
    forks = 2 if _fork_available() else 1
    assert effective_workers(10, 8) == 1
    assert effective_workers(31, 8) == 1
    assert effective_workers(32, 8) == (min(8, CPUS) if forks == 2 else 1)
    assert effective_workers(8, 2) == min(forks, CPUS)
    assert effective_workers(1000, 1) == 1
    assert effective_workers(1000, 0) == 1


def test_effective_workers_never_exceed_the_usable_cpus():
    # computed alone: asking for 10^5 workers must not fork 10^5 processes
    assert 1 <= effective_workers(10**6, 10**5) <= CPUS


def test_density_const0(tmp_path):
    out = str(tmp_path / "c0.csv")
    assert run(["density", "--factor", "const0", "--host", "regular-tree",
                "--d", "3", "--trials", "50", "--seed", "1", "--out", out]) == 0
    fields = read(out).strip().splitlines()[1].split(",")
    assert float(fields[3]) == 0.0


def test_density_graph_host(tmp_path):
    out = str(tmp_path / "g.csv")
    assert run(["density", "--factor", "threshold", "--host", "config-model",
                "--n", "60", "--d", "3", "--trials", "20", "--seed", "2",
                "--out", out]) == 0
    fields = read(out).strip().splitlines()[1].split(",")
    assert 0.0 < float(fields[3]) < 0.456


def test_density_usage_error(tmp_path):
    out = str(tmp_path / "x.csv")
    code = run(["density", "--factor", "lw", "--host", "regular-tree",
                "--d", "3", "--trials", "10", "--out", out])
    assert code == 2  # lw requires --lw-p and --lw-k


def test_invalid_values_are_usage_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    for args in (
        ["density", "--host", "regular-tree", "--d", "3", "--trials", "0"],
        ["density", "--host", "regular-tree", "--d", "3", "--trials", "10", "--workers", "-4"],
        ["density", "--host", "regular-tree", "--d", "3", "--trials", "10", "--workers", "0"],
        ["density", "--host", "regular-tree", "--d", "1", "--trials", "5"],
        ["density", "--host", "er", "--n", "5", "--lam", "10", "--trials", "5"],
        ["density", "--factor", "lw", "--lw-p", "2", "--lw-k", "3",
         "--host", "regular-tree", "--d", "3", "--trials", "5"],
        ["stability", "--host", "regular-tree", "--d", "3", "--k", "0",
         "--p", "0.5", "--trials", "5"],
        ["scan-p", "--host", "regular-tree", "--d", "3", "--grid", "0,x"],
        # within the profile's tolerance, but increasing for asymptotic_rate
        ["bounds", "--alpha", "1,1.00000000001", "--d", "1000"],
        # alpha is checked before any profile is built
        ["bounds", "--alpha", "0.5,1", "--d", "1000"],
        ["bounds", "--alpha", "0.2,1.5", "--d", "1000"],
        ["bounds", "--alpha", "-0.1", "--d", "1000"],
        ["bounds", "--alpha", ",".join(["0.1"] * 21), "--d", "1000"],
        ["bounds", "--alpha", "nan", "--d", "1000"],
        ["bounds", "--alpha", "1,nan", "--d", "1000"],
        ["bounds", "--alpha", "inf,1", "--d", "1000"],
        ["oracle-check", "--n", "4", "--d", "3", "--tol", "nan"],
        ["oracle-check", "--n", "4", "--d", "3", "--tol", "-1"],
        ["oracle-check", "--n", "4", "--d", "3", "--tol", "inf"],
    ):
        assert run(args + ["--out", out]) == 2, args


@pytest.mark.parametrize("host", [["--host", "config-model", "--n", "200", "--d", "3"],
                                  ["--host", "er", "--n", "20", "--lam", "2"]])
def test_constant_one_density_on_a_graph_host_is_a_usage_error(tmp_path, host):
    """Every vertex joins under const1, so no projection of it onto a graph
    is an independent set: density, stability and scan-p all reject it."""
    commands = [
        ["density", "--trials", "2"],
        ["stability", "--p", "0.5", "--k", "2", "--trials", "40", "--inner-trials", "2"],
        ["scan-p", "--grid", "0.5", "--k", "2", "--trials", "40", "--inner-trials", "2"],
    ]
    for i, command in enumerate(commands):
        out = str(tmp_path / f"run{i}.csv")
        assert run([*command, "--factor", "const1", *host, "--out", out]) == 2, command[0]
        assert os.listdir(tmp_path) == [], command[0]
    # the same runs with an independent-set rule pass (const0 never includes
    # a root, so stability would find no conditioning event)
    for i, (command, factor) in enumerate(zip(commands, ["const0", "threshold", "threshold"])):
        out = str(tmp_path / f"run{i}.csv")
        assert run([*command, "--factor", factor, *host, "--out", out]) == 0, command[0]


def test_internal_errors_are_not_usage_errors(tmp_path, monkeypatch):
    import localis.cli as cli

    def broken(*args, **kwargs):
        raise TypeError("internal defect")

    monkeypatch.setattr(cli, "estimate_tree_density", broken)
    with pytest.raises(TypeError, match="internal defect"):
        run(["density", "--host", "regular-tree", "--d", "3", "--trials", "5",
             "--out", str(tmp_path / "x.csv")])


# ---------------------------------------------------------------------------
# hosts
# ---------------------------------------------------------------------------

# The host table as cli spelled it out per host before the host classes
# carried their own name and degree: (cli name, flags, the class's field
# values, the missing-flag message, host columns, host scale).
HOST_TABLE = [
    ("regular-tree", ["--d", "3"], (3,), "host 'regular-tree' requires --d",
     ("regular-tree", 3, 0), math.log(3) / 3),
    ("pgw", ["--lam", "2.5"], (2.5,), "host 'pgw' requires --lam",
     ("pgw", 2.5, 0), math.log(2.5) / 2.5),
    ("config-model", ["--n", "10", "--d", "3"], (10, 3),
     "host 'config-model' requires --n and --d",
     ("config-model", 3, 10), math.log(3) / 3),
    ("er", ["--n", "10", "--lam", "2.5"], (10, 2.5), "host 'er' requires --n and --lam",
     ("er", 2.5, 10), math.log(2.5) / 2.5),
]


def _host_params(name, flags):
    params = {"host": name, "d": None, "lam": None, "n": None}
    for flag, value in zip(flags[::2], flags[1::2]):
        params[flag[2:]] = float(value) if flag == "--lam" else int(value)
    return params


def test_every_host_name_builds_its_class():
    assert sorted(HOSTS) == sorted(row[0] for row in HOST_TABLE)
    for name, flags, values, _, _, _ in HOST_TABLE:
        host = cli._build_host(_host_params(name, flags))
        assert type(host) is HOSTS[name] and host.name == name
        assert tuple(getattr(host, f.name) for f in dataclasses.fields(host)) == values
        assert host.tree == (name in ("regular-tree", "pgw"))


def test_missing_host_flags_keep_their_messages(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    for name, flags, _, message, _, _ in HOST_TABLE:
        for drop in range(0, len(flags), 2):
            partial = flags[:drop] + flags[drop + 2:]
            code = run(["density", "--host", name, *partial, "--trials", "5",
                        "--out", out])
            assert code == 2, (name, partial)
            assert capsys.readouterr().err == f"usage error: {message}\n"


def test_host_columns_and_scale_match_the_old_table():
    for name, flags, _, _, columns, scale in HOST_TABLE:
        host = cli._build_host(_host_params(name, flags))
        got = cli._host_columns(host)
        assert got == columns
        assert [type(x) for x in got] == [type(x) for x in columns]  # d_or_lam bytes
        assert host_scale(host) == scale
    # the degree keeps whatever type the host was built with
    assert cli._host_columns(ErdosRenyiHost(10, 2)) == ("er", 2, 10)
    assert type(cli._host_columns(ErdosRenyiHost(10, 2))[1]) is int
    assert type(cli._host_columns(PGWTreeHost(3))[1]) is int


def test_pgw_lam_above_the_poisson_limit_is_a_usage_error(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    for args in (
        ["density", "--host", "pgw", "--lam", "700", "--trials", "5"],
        ["stability", "--host", "pgw", "--lam", "700", "--p", "0.5",
         "--trials", "5", "--inner-trials", "2"],
        ["pgw-transfer", "--lam", "601", "--d", "700", "--trials", "4"],
    ):
        assert run(args + ["--out", out]) == 2, args
        assert "lam <= 600" in capsys.readouterr().err
    assert PGWTreeHost(POISSON_LAM_MAX).lam == 600.0
    with pytest.raises(ValueError):
        PGWTreeHost(math.nextafter(POISSON_LAM_MAX, math.inf))


def test_scan_p_rejects_degree_zero_and_degree_one_with_k_above_one(tmp_path):
    out = str(tmp_path / "scan")
    small = ["--grid", "0,1", "--trials", "20", "--inner-trials", "5", "--out", out]
    for host in (
        ["--host", "er", "--n", "20", "--lam", "0"],
        ["--host", "er", "--n", "20", "--lam", "1", "--k", "2"],
        ["--host", "config-model", "--n", "20", "--d", "1", "--k", "2"],
        ["--host", "pgw", "--lam", "1", "--k", "2"],
    ):
        assert run(["scan-p", *host, *small]) == 2, host
    for host in (
        ["--host", "er", "--n", "20", "--lam", "0.5", "--k", "2"],
        ["--host", "pgw", "--lam", "1", "--k", "1"],
    ):
        assert run(["scan-p", *host, *small]) == 0, host


def test_scan_p_on_a_graph_host_runs_above_the_profile_lattice_cap(tmp_path):
    # a coupled trial keeps k prefix densities on every host, not 2^k profile
    # cells, so --k 21 runs where the dense lattices stop at k = 20
    out = str(tmp_path / "scan")
    for host in (
        ["--host", "er", "--n", "200", "--lam", "2"],
        ["--host", "config-model", "--n", "200", "--d", "3"],
        ["--host", "regular-tree", "--d", "3"],
    ):
        # seed 0 accepts an outer stability trial at both p on every host
        assert run(["scan-p", *host, "--k", "21", "--grid", "0,1", "--trials", "20",
                    "--inner-trials", "2", "--seed", "0", "--out", out]) == 0, host
        rows = [line.split(",") for line in read(out + ".intersections.csv").splitlines()[1:]]
        for p in ("0", "1"):
            assert [int(r[6]) for r in rows if r[4] == p] == list(range(1, 22)), (host, p)


# ---------------------------------------------------------------------------
# scan-p and stability
# ---------------------------------------------------------------------------


def test_scan_p_outputs(tmp_path):
    out = str(tmp_path / "scan")
    code = run(["scan-p", "--factor", "threshold", "--host", "regular-tree",
                "--d", "3", "--k", "3", "--grid", "0,1",
                "--trials", "2000", "--inner-trials", "50",
                "--seed", "3", "--out", out])
    assert code == 0
    inter = read(out + ".intersections.csv").strip().splitlines()
    assert inter[0].startswith("host,factor_kind,d_or_lam,n,p,k,i,mean")
    assert len(inter) == 1 + 2 * 3  # |grid| * k rows
    stab = read(out + ".stability.csv").strip().splitlines()
    assert len(stab) == 1 + 2 * 3
    binom = read(out + ".binom.csv").strip().splitlines()
    # k2 and k3 statistics per grid point, plus the smoothness report
    assert len(binom) == 1 + 2 * 2 + 1
    # the emitted k=2 statistic matches its definition recomputed offline
    rows = [line.split(",") for line in inter[1:]]
    p0 = [r for r in rows if float(r[4]) == 0.0]
    scale = math.log(3) / 3
    a1, a2 = float(p0[0][7]) / scale, float(p0[1][7]) / scale
    expected = 2 * a1 * (2 - a1) - a2 * (2 - a2)
    b0 = [line.split(",") for line in binom[1:] if "binom_k2@p=0" in line][0]
    assert abs(float(b0[4]) - expected) < 1e-12
    manifest = load_manifest(out + ".manifest.json")
    assert len(manifest["outputs"]) == 3


def test_scan_p_replay_identical(tmp_path):
    out = str(tmp_path / "scan")
    args = ["scan-p", "--factor", "threshold", "--host", "regular-tree",
            "--d", "3", "--k", "2", "--grid", "0,0.5",
            "--trials", "500", "--inner-trials", "30", "--seed", "4",
            "--out", out]
    assert run(args) == 0
    originals = {
        suffix: read(out + suffix)
        for suffix in (".intersections.csv", ".stability.csv", ".binom.csv")
    }
    out2 = str(tmp_path / "scan2")
    assert run(["replay", out + ".manifest.json", "--out", out2]) == 0
    for suffix, text in originals.items():
        assert read(out2 + suffix) == text


def test_stability_command(tmp_path):
    out = str(tmp_path / "stab.csv")
    assert run(["stability", "--factor", "threshold", "--host", "regular-tree",
                "--d", "3", "--k", "3", "--p", "0", "--trials", "400",
                "--inner-trials", "40", "--seed", "5", "--out", out]) == 0
    lines = read(out).strip().splitlines()
    assert len(lines) == 4
    for line in lines[1:]:
        assert float(line.split(",")[7]) == 1.0  # all moments 1 at p=0


def test_stability_conditioning_guard(tmp_path):
    out = str(tmp_path / "stab.csv")
    code = run(["stability", "--factor", "const0", "--host", "regular-tree",
                "--d", "3", "--k", "2", "--p", "0.5", "--trials", "20",
                "--inner-trials", "10", "--seed", "6", "--out", out])
    assert code == 3


# ---------------------------------------------------------------------------
# bounds and oracle-check
# ---------------------------------------------------------------------------


def test_bounds_report(tmp_path):
    out = str(tmp_path / "bounds.json")
    assert run(["bounds", "--alpha", "1,1", "--d", "1000", "--self-test",
                "--out", out]) == 0
    report = json.loads(read(out))
    assert abs(report["leading_term"] - math.log(1000) ** 2 / 2000) < 1e-15
    assert report["self_test"]["relative_error"] < 1e-9


def test_bounds_malformed_profile_guard(tmp_path, capsys):
    out = str(tmp_path / "bounds.json")
    # a valid alpha whose profile has a negative partition cell
    code = run(["bounds", "--alpha", "1.5,0.5,0.1,0.02,0.004,0.001", "--d", "100000",
                "--out", out])
    assert code == 3
    assert "pi(0b1) = -2.084e-05 < 0" in capsys.readouterr().err


@pytest.mark.parametrize("alpha, d", [("1", "2"), ("1", "3"), ("0.5", "5"), ("1,0.8", "2")])
def test_bounds_reports_small_d_rates_unguarded(tmp_path, alpha, d):
    # the gap exceeds the constants calibrated on d >= 1000 (at d = 3,
    # alpha 1, it is 0.56 log(d)/d against c_1 = 0.5); below that d the
    # report carries it unguarded
    out = str(tmp_path / "bounds.json")
    assert run(["bounds", "--alpha", alpha, "--d", d, "--out", out]) == 0
    report = json.loads(read(out))
    assert report["gap"] == pytest.approx(report["rate_bound"] - report["leading_term"])
    assert report["gap"] > profiles.DEFAULT_GAP_CONSTANTS[report["k"]] * math.log(int(d)) / int(d)


def test_bounds_rate_gap_guard_from_the_calibrated_d(tmp_path, capsys, monkeypatch):
    # no profile of the calibration families comes near its constant at
    # d = 1000, so the constant is lowered: the guard stops d = 1000, not 999
    monkeypatch.setitem(profiles.DEFAULT_GAP_CONSTANTS, 1, 0.01)
    out = str(tmp_path / "bounds.json")
    assert run(["bounds", "--alpha", "0.15", "--d", "1000", "--out", out]) == 3
    assert "rate gap" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert run(["bounds", "--alpha", "0.15", "--d", "999", "--out", out]) == 0


def test_bounds_accepts_alpha_at_the_lattice_cap(tmp_path):
    out = str(tmp_path / "bounds.json")
    assert run(["bounds", "--alpha", ",".join(["0.01"] * 20), "--d", "1000",
                "--out", out]) == 0
    assert json.loads(read(out))["k"] == 20


def test_oracle_check_passes(tmp_path):
    out = str(tmp_path / "oc.csv")
    assert run(["oracle-check", "--n", "4", "--d", "3", "--out", out]) == 0
    lines = read(out).strip().splitlines()
    worst = float(lines[-1].split(",")[-1])
    assert worst <= 1e-9


def test_oracle_check_rejects_sizes_beyond_the_enumeration(tmp_path, capsys):
    # (n*d - 1)!! pairings: 17!! is about 3.4e7 at (6, 3), 29!! at (15, 2)
    out = str(tmp_path / "oc.csv")
    for n, d in ((15, 2), (6, 3)):
        assert run(["oracle-check", "--n", str(n), "--d", str(d), "--out", out]) == 2
        assert f"n*d <= 14, got {n * d}" in capsys.readouterr().err


def test_oracle_check_guard_on_impossible_tolerance(tmp_path):
    out = str(tmp_path / "oc.csv")
    code = run(["oracle-check", "--n", "4", "--d", "3", "--tol", "0",
                "--out", out])
    assert code == 3


# ---------------------------------------------------------------------------
# pgw-transfer
# ---------------------------------------------------------------------------


def test_pgw_transfer_schedule(tmp_path):
    out = str(tmp_path / "pgw.csv")
    assert run(["pgw-transfer", "--factor", "threshold", "--lam", "10",
                "--schedule-u", "0.75", "--trials", "4000",
                "--check-event-mc", "--seed", "7", "--out", out]) == 0
    lines = read(out).strip().splitlines()
    header = lines[0].split(",")
    assert header == ["lambda", "d", "trials", "density_J", "stderr",
                      "density_I", "P_E_exact", "lower", "upper", "seed"]
    row = dict(zip(header, lines[1].split(",")))
    assert int(row["d"]) == math.ceil(10 + 10**0.75)
    dj, lo, hi, se = (float(row[k]) for k in ("density_J", "lower", "upper", "stderr"))
    assert lo - 3 * se <= dj <= hi + 3 * se


@pytest.mark.parametrize("factor", [["--factor", "threshold"],
                                    ["--factor", "lw", "--lw-p", "0.3", "--lw-k", "2"]])
def test_pgw_transfer_bytes_do_not_depend_on_the_worker_count(tmp_path, factor):
    # 64 trials give 2 workers 8 blocks; the trials and the reference run on
    # the regular tree are keyed by (seed, trial), never by the worker
    argv = ["pgw-transfer", *factor, "--lam", "6", "--d", "5", "--trials", "64", "--seed", "12"]
    outs = {}
    for workers in (1, 2):
        out = str(tmp_path / f"w{workers}.csv")
        assert run(argv + ["--workers", str(workers), "--out", out]) == 0
        metrics = load_manifest(out + ".manifest.json")["metrics"]
        assert metrics == {"workers_effective": effective_workers(64, workers)}
        outs[workers] = read(out)
    assert outs[1] == outs[2]


def test_pgw_transfer_schedule_window_guard(tmp_path):
    out = str(tmp_path / "pgw.csv")
    for bad in ("0.5", "1.0", "0.2"):
        code = run(["pgw-transfer", "--factor", "threshold", "--lam", "10",
                    "--schedule-u", bad, "--trials", "10", "--out", out])
        assert code == 2


def test_pgw_transfer_requires_d_or_schedule(tmp_path):
    out = str(tmp_path / "pgw.csv")
    code = run(["pgw-transfer", "--factor", "threshold", "--lam", "10",
                "--trials", "10", "--out", out])
    assert code == 2
    # both given: one of them would have to be ignored
    code = run(["pgw-transfer", "--factor", "threshold", "--lam", "10", "--d", "14",
                "--schedule-u", "0.75", "--trials", "10", "--out", out])
    assert code == 2


# ---------------------------------------------------------------------------
# output hygiene
# ---------------------------------------------------------------------------


def test_all_numeric_columns_finite(tmp_path):
    out = str(tmp_path / "scan")
    run(["scan-p", "--factor", "threshold", "--host", "regular-tree",
         "--d", "3", "--k", "2", "--grid", "0,0.5,1", "--trials", "500",
         "--inner-trials", "30", "--seed", "8", "--out", out])
    for suffix in (".intersections.csv", ".stability.csv", ".binom.csv"):
        for line in read(out + suffix).strip().splitlines()[1:]:
            for field in line.split(","):
                try:
                    value = float(field)
                except ValueError:
                    continue
                assert math.isfinite(value)


def test_percolation_rounds_at_degree_20(tmp_path):
    """LW(0.01, 300) on T20 runs on the level arrays: the per-trial walk
    took about 7 s for these 200 trials, the arrays take under 0.5 s."""
    out = str(tmp_path / "dens.csv")
    started = time.monotonic()
    assert run(["density", "--factor", "lw", "--lw-p", "0.01", "--lw-k", "300",
                "--host", "regular-tree", "--d", "20", "--trials", "200", "--out", out]) == 0
    elapsed = time.monotonic() - started
    fields = read(out).strip().splitlines()[1].split(",")
    assert fields[2] == "200" and 0.05 < float(fields[3]) < 0.2  # (log 20) / 20 = 0.15
    assert elapsed < 5.0, f"{elapsed:.1f} s"


def test_json_format(tmp_path):
    out = str(tmp_path / "dens.json")
    assert run(["density", "--factor", "threshold", "--host", "regular-tree",
                "--d", "3", "--trials", "200", "--seed", "9",
                "--format", "json", "--out", out]) == 0
    payload = json.loads(read(out))
    assert isinstance(payload, list) and payload[0]["trials"] == 200
