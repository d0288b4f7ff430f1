"""Equality gate: pinned commands must keep writing the same bytes.

Each command is small (well under a second) and covers one host path: the
PGW transfer for threshold and LW, graph-host density and projection, the
configuration-model and Erdos-Renyi couplings (stability and scan-p), the
tree-host couplings (stability on T3 and PGW(2.5), scan-p on PGW(3) and T4),
threshold density on T3 and on PGW(0.7) (where half the roots have no
children), lazy-tree LW density, the LW tree-host couplings (stability
on T3, scan-p on PGW(2)), and the LW graph-host couplings (stability on the
configuration model, scan-p on Erdos-Renyi), whose radius-3 tree checks walk
further through the graphs' incidence lists than the threshold rule's.  The
first ten sha256 digests were recorded before the rooted views and the
graph-host coupling bodies were merged, the two tree-host ones before the
lazy-tree labels were memoised, the next four before radius <= 1 factors ran
as arrays over blocks of trials, the two LW tree-host coupling ones before
one tree evaluator took over every tree-host path, the two LW graph-host
ones before the graph types were merged into one whose incidence lists are
read on demand, and the last five before the subset-lattice transforms of
the profile calculus were vectorised: the entropy bound report (with its
exact-count self-test) at k = 3 and k = 5, the exact-count oracle check, an
Erdos-Renyi scan at k = 4 (profile rows over 16 copy subsets), and LW
stability on the configuration model with 23 accepted outer trials (17
since graph-host stability explores its balls), where
`stability_config_lw` accepts only 2 (3).  `scan_config_k6`, a
configuration-model scan at k = 6, was recorded while graph-host coupled trials still kept a
profile row over all 64 copy subsets, before they kept only the k prefix
densities.  `transfer_lw_removals`, LW transfer at (lam 6, d 5), where root
removals are frequent and the radius-3 filled-forest balls run through
removed edges and attachments, was recorded before a rooted ball's
adjacency became its one stored form.  `density_tree_lw_deep` (LW(0.02, 250)
density on T4) and `stability_pgw_lw_deep` (LW(0.02, 250) stability on
PGW(3)), the first tree-host LW commands with k above 8, were recorded
while the percolation-round rule still resolved every root neighbour with
an explicit stack.  The twelve configuration-model and Erdos-Renyi
commands (the three graph-host `density_*` ones and the nine
`stability_*` and `scan_*` ones) were re-recorded when graph vertices took
their labels, S and fresh copies from per-vertex folds, the tree-node rule,
in place of a numpy generator per trial and per inner trial; the laws of
those draws are checked in tests/test_labels.py.
`density_config_threshold_large` (threshold density on one n = 5000
configuration graph per trial, the benchmark's graph op) and
`density_er_lw_deep` (LW(0.3, 3) density on Erdos-Renyi, whose mask radius
is 5) were recorded while projection still built one ball per vertex.  The
six Erdos-Renyi commands (`density_er_threshold`, `density_er_lw_deep`,
`stability_er`, `scan_er`, `scan_er_lw`, `scan_er_k4`) were re-recorded when
the Erdos-Renyi pair draw (graphs.bernoulli_pairs: the graph and every
copy's SxS redraw) became a Binomial count and one uniform set of pair
positions in place of one uniform per pair; the law of that draw is checked
in tests/test_graphs.py.  The nine configuration-model and Erdos-Renyi
`stability_*` and `scan_*` commands were re-recorded again when graph-host
stability stopped drawing whole graphs and explored each root's
neighbourhood from counters keyed by the trial state (the configuration
model paired on demand, the Erdos-Renyi graph and its copies' SxS pairs
drawn by geometric gaps); the laws of those explorations are checked in
tests/test_graph_laws.py.  A refactor that moves any random stream or
changes any output byte fails here.
"""

import hashlib

import pytest

from localis.cli import main

GOLDEN = {
    "transfer_threshold": (
        ["pgw-transfer", "--factor", "threshold", "--lam", "20", "--d", "28",
         "--trials", "300", "--seed", "3"],
        "520fd45c9800872b095f3067bbe88657ddd7fba886a38bc5b50740aa7acf7266",
    ),
    "transfer_lw": (
        ["pgw-transfer", "--factor", "lw", "--lw-p", "0.3", "--lw-k", "2",
         "--lam", "4", "--d", "6", "--trials", "200", "--seed", "4"],
        "b9fca9ac13fa0e908cace33e7f99a6608bf68c5272be672e6f1fe6053f3d5d7f",
    ),
    "density_config_threshold": (
        ["density", "--factor", "threshold", "--host", "config-model",
         "--n", "300", "--d", "3", "--trials", "10", "--seed", "5"],
        "4fe40c8c9f7e2cda84c6d6672bf48e2d338d34a9767f9ed657b307fac521a6e1",
    ),
    "density_er_threshold": (
        ["density", "--factor", "threshold", "--host", "er",
         "--n", "300", "--lam", "3", "--trials", "10", "--seed", "6"],
        "a790157eae90ab36957403cbd885f07713cf28b23d4407690849e136dfc2f5e8",
    ),
    "density_config_lw": (
        ["density", "--factor", "lw", "--lw-p", "0.3", "--lw-k", "2",
         "--host", "config-model", "--n", "2000", "--d", "3",
         "--trials", "3", "--seed", "7"],
        "cc5d688c4f260d2c69f56c657e37b7f5470eee7dc1832393dfd3cb8c5c649c39",
    ),
    "stability_er": (
        ["stability", "--factor", "threshold", "--host", "er", "--n", "100",
         "--lam", "2", "--k", "2", "--p", "0.5", "--trials", "80",
         "--inner-trials", "10", "--seed", "8"],
        "6d697d66962534dba9ec00d7a5884be02d5d1b4d5d7ace995147362771fce6fd",
    ),
    "stability_config": (
        ["stability", "--factor", "threshold", "--host", "config-model",
         "--n", "100", "--d", "3", "--k", "2", "--p", "0.5", "--trials", "80",
         "--inner-trials", "10", "--seed", "9"],
        "949e2aed931b5ea87337e7ff432cb47cbf30bf74fcb81c2b5de7a39d64ca07cb",
    ),
    "scan_config": (
        ["scan-p", "--factor", "threshold", "--host", "config-model",
         "--n", "60", "--d", "3", "--k", "2", "--grid", "0,0.5,1",
         "--trials", "40", "--inner-trials", "6", "--seed", "10"],
        "d6be7ae585b33c4a159d3f661107c76f087368e035ae54096427627e2b2bcd0a",
    ),
    "scan_er": (
        ["scan-p", "--factor", "threshold", "--host", "er", "--n", "60",
         "--lam", "2", "--k", "2", "--grid", "0,0.5,1",
         "--trials", "40", "--inner-trials", "6", "--seed", "11"],
        "41689db5478d97403189f5b12f2c009c2af5b4891ae9139ae442eabe329c0dd9",
    ),
    "stability_tree": (
        ["stability", "--factor", "threshold", "--host", "regular-tree",
         "--d", "3", "--k", "3", "--p", "0.5", "--trials", "300",
         "--inner-trials", "60", "--seed", "13"],
        "552f6d8151f1d0253bb14401d6130ade5bc828387cf7e5311e1acc948fd1486a",
    ),
    "scan_pgw": (
        ["scan-p", "--factor", "threshold", "--host", "pgw", "--lam", "3",
         "--k", "3", "--grid", "0,0.5,1", "--trials", "200",
         "--inner-trials", "30", "--seed", "14"],
        "ea848649c2d8a4ab962f5baba32f6103abc53f3e3cd55d3b324ef02e15bf269a",
    ),
    "density_tree_lw": (
        ["density", "--factor", "lw", "--lw-p", "0.1", "--lw-k", "8",
         "--host", "regular-tree", "--d", "3", "--trials", "500", "--seed", "12"],
        "d1ba41fa91d7b0e38bca54ab3d9b4f37462cc9c9ce9fa892cbf641903a87f5ec",
    ),
    "density_tree_threshold": (
        ["density", "--factor", "threshold", "--host", "regular-tree", "--d", "3",
         "--trials", "3000", "--seed", "15"],
        "4c7274f7b0aaedce4d3bfe1e96c4205878876f9759b42e864eb9301cde086dd8",
    ),
    "density_pgw_threshold": (
        ["density", "--factor", "threshold", "--host", "pgw", "--lam", "0.7",
         "--trials", "3000", "--seed", "16"],
        "3c8ce1b33a00711e7ded95450e9dd8413ff5b68ff2829ec68b295dd7cb40e14f",
    ),
    "scan_tree_d4": (
        ["scan-p", "--factor", "threshold", "--host", "regular-tree", "--d", "4",
         "--k", "3", "--grid", "0,0.5,1", "--trials", "200", "--inner-trials", "30",
         "--seed", "17"],
        "ba0617a76e5ff74337cfd463e4b4de969c6a35865fde008fb3377293b06f39ec",
    ),
    "stability_pgw": (
        ["stability", "--factor", "threshold", "--host", "pgw", "--lam", "2.5",
         "--k", "3", "--p", "0.5", "--trials", "300", "--inner-trials", "40",
         "--seed", "18"],
        "968f2abf8accf6991fba09fc6b25f44ae3b3bf13c72bd9ea0d2878c4aa590ecd",
    ),
    "stability_tree_lw": (
        ["stability", "--factor", "lw", "--lw-p", "0.3", "--lw-k", "2",
         "--host", "regular-tree", "--d", "3", "--k", "3", "--p", "0.5",
         "--trials", "400", "--inner-trials", "40", "--seed", "19"],
        "48fd26240dec621ca1ca35d6fbf47c87b54bdd8f0b25e29e160672eae1ac5817",
    ),
    "scan_pgw_lw": (
        ["scan-p", "--factor", "lw", "--lw-p", "0.3", "--lw-k", "2", "--host", "pgw",
         "--lam", "2", "--k", "3", "--grid", "0,0.5,1", "--trials", "300",
         "--inner-trials", "20", "--seed", "20"],
        "b34bbbc3c1724a41844913bc7597ed15857eff7c77ea24703f2791d3482d91a6",
    ),
    "stability_config_lw": (
        ["stability", "--factor", "lw", "--lw-p", "0.3", "--lw-k", "1",
         "--host", "config-model", "--n", "200", "--d", "3", "--k", "2", "--p", "0.5",
         "--trials", "80", "--inner-trials", "8", "--seed", "14"],
        "3e65fc797f698c60ac507ff96e9b0dc8afc1cf870b5b75ff523cd5f6a72f451c",
    ),
    "scan_er_lw": (
        ["scan-p", "--factor", "lw", "--lw-p", "0.3", "--lw-k", "1", "--host", "er",
         "--n", "60", "--lam", "2", "--k", "2", "--grid", "0,0.5,1", "--trials", "30",
         "--inner-trials", "6", "--seed", "15"],
        "702adab726552e211406279c91d637e747533e604980fb0b8461865d793e213b",
    ),
    "bounds_self_test": (
        ["bounds", "--alpha", "1.2,0.8,0.5", "--d", "1000", "--self-test"],
        "8af8de557ee988460ed9128e5a40082a3c5ce63a7ae33fb7f69513c8d7527476",
    ),
    "bounds_k5": (
        ["bounds", "--alpha", "1,0.5,0.25,0.125,0.0625", "--d", "1000"],
        "e8996693f82102a28fad6d7f81c34c582b1f54dc476e54904095badf40935a17",
    ),
    "oracle_check": (
        ["oracle-check", "--n", "4", "--d", "2"],
        "62b1327636dac2bd5d376e90ef7819a95b914cda037c2839e03b7745e095318d",
    ),
    "scan_er_k4": (
        ["scan-p", "--factor", "threshold", "--host", "er", "--n", "60", "--lam", "2",
         "--k", "4", "--grid", "0,0.5,1", "--trials", "30", "--inner-trials", "4",
         "--seed", "23"],
        "117b51e464a89b23a81ce2f2f43c082938cc2990ed9427e767a512d237b51ebc",
    ),
    "stability_config_lw_accepting": (
        ["stability", "--factor", "lw", "--lw-p", "0.3", "--lw-k", "2",
         "--host", "config-model", "--n", "2000", "--d", "3", "--k", "2", "--p", "0.5",
         "--trials", "200", "--inner-trials", "8", "--seed", "22"],
        "e526cf1a6fc2ffff1246558b734a7d752e84ca199095dd6c59f66f7b339c8f82",
    ),
    "scan_config_k6": (
        ["scan-p", "--factor", "threshold", "--host", "config-model", "--n", "60",
         "--d", "3", "--k", "6", "--grid", "0,0.5,1", "--trials", "30",
         "--inner-trials", "4", "--seed", "24"],
        "63ffbb2b57c8e553afc380f99e51f95fa9849db3217d366542fa3baf717a8b7b",
    ),
    "transfer_lw_removals": (
        ["pgw-transfer", "--factor", "lw", "--lw-p", "0.3", "--lw-k", "2",
         "--lam", "6", "--d", "5", "--trials", "150", "--seed", "25"],
        "22beebc4f7fd55152b3ae02c21e34cdbbaf164571fc7eb4ec8c680cfe1c37a4d",
    ),
    "density_tree_lw_deep": (
        ["density", "--factor", "lw", "--lw-p", "0.02", "--lw-k", "250",
         "--host", "regular-tree", "--d", "4", "--trials", "400", "--seed", "26"],
        "183843ab29d94bd0e8d9d4e1d4dee11043e8e72d99fe1621cfdcfe75981d319a",
    ),
    "stability_pgw_lw_deep": (
        ["stability", "--factor", "lw", "--lw-p", "0.02", "--lw-k", "250",
         "--host", "pgw", "--lam", "3", "--k", "3", "--p", "0.5", "--trials", "300",
         "--inner-trials", "20", "--seed", "27"],
        "2c4f4dd0ec3793bfe95f337fe097024e866e3290a646cc41149a56b73f204ead",
    ),
    "density_config_threshold_large": (
        ["density", "--factor", "threshold", "--host", "config-model", "--n", "5000",
         "--d", "3", "--trials", "2", "--seed", "28"],
        "7b8b7e66bd4ed61dac6451bfc63f8dc2ca9773a0ea94b457f6a1bb3f6fb43bf4",
    ),
    "density_er_lw_deep": (
        ["density", "--factor", "lw", "--lw-p", "0.3", "--lw-k", "3", "--host", "er",
         "--n", "2000", "--lam", "3", "--trials", "2", "--seed", "29"],
        "b32db0cfcbff09b7e982385f4081d9b584aab200f9a78bd0cdea8c964aad7987",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pinned_command_output_bytes(tmp_path, name):
    argv, digest = GOLDEN[name]
    assert main(argv + ["--out", str(tmp_path / name)]) == 0
    outputs = sorted(
        p for p in tmp_path.iterdir() if not p.name.endswith(".manifest.json")
    )
    h = hashlib.sha256()
    for path in outputs:
        h.update(path.read_bytes())
    assert h.hexdigest() == digest, [p.name for p in outputs]
