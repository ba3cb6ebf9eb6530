import contextlib
import copy
import io
import json
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowsets import cli, core, networks, spancycles, transversals
from rainbowsets.harness import SWEEPS


def run_cli(tmp_path, capsys, argv, instance):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    code = cli.main(argv + ["--input", str(path)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


# Instances copied from the benchmark's cli-corpus (seeds 7 and 41), one or
# more per instance subcommand, with the exact stdout and exit code of each.
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())

NET = {"n": 2, "edges": [[0, 1]], "sources": [0], "targets": [1]}
TRIANGLE = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
PATH_NET = {"n": 3, "edges": [[0, 1], [1, 2]], "sources": [0], "targets": [2]}

# Colors [0], [0] and [1, c] for c = 2..16 on the unit columns e0..e16,
# target e1: the pair {0, 1} is rank-deficient and misses the target.
SPAN_17 = {
    "ground_size": 17,
    "matroid": {"kind": "binary",
                "matrix": [[int(i == j) for j in range(17)] for i in range(17)]},
    "colors": [[0], [0]] + [[1, c] for c in range(2, 17)],
    "target": [1],
}


# One s-t path 0 -> 3 -> 1 or 0 -> 2 -> 1 per color; q = 2 inner vertices.
# In B(N), edges 0..4 are the network edges and 5, 6 the W edges of 2 and 3.
DISJOINT = {"network": {"n": 4, "edges": [[0, 3], [3, 1], [0, 2], [2, 1], [3, 2]],
                        "sources": [0], "targets": [1]},
            "colors": [[0, 1], [2, 3], [0, 3, 4]]}
# Two copies of the path 0 -> 1 -> 2 -> 3, scrambled into single edges.
CHAIN = {"network": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]],
                     "sources": [0], "targets": [3]},
         "paths": [[0, 1, 2], [0, 1, 2]], "scrambling": [[0], [0], [1], [1], [2], [2]]}
# The paths 0 -> 1 -> 3 and 0 -> 2 -> 3.
DIAMOND = {"network": {"n": 4, "edges": [[0, 1], [1, 3], [0, 2], [2, 3]],
                       "sources": [0], "targets": [3]},
           "paths": [[0, 1], [2, 3]], "scrambling": [[0], [1], [2], [3]]}


def _no_op(*args, **kwargs):
    return None


def _rainbow(*pairs):
    """A stand-in for max_rainbow_matching that answers the given (color,
    edge) pairs."""
    return lambda fam, target=None: (core.Matching(frozenset(e for _, e in pairs)),
                                     core.ChoiceFunction(pairs))


class TestInputErrors:
    @pytest.mark.parametrize("argv, instance, field", [
        pytest.param(["rainbow-matching"], {"graph": {"n": -1, "edges": []}, "colors": []},
                     "graph.n", id="graph-n-negative"),
        pytest.param(["rainbow-path"],
                     {"network": {"n": -1, "edges": [], "sources": [], "targets": []},
                      "colors": []},
                     "network.n", id="network-n-negative"),
        pytest.param(["hall"], {"ground_size": 6, "colors": [5]},
                     "instance.colors[0]", id="colors-scalar"),
        pytest.param(["rainbow-matching"], {"graph": {"n": 2, "edges": [[0]]}, "colors": [[0]]},
                     "instance.graph.edges[0]", id="edge-short"),
        pytest.param(["rainbow-matching"],
                     {"graph": {"n": 2, "edges": [[0, 1]], "bipartition": 5}, "colors": [[0]]},
                     "instance.graph.bipartition", id="bipartition-scalar"),
        pytest.param(["rainbow-matching"], {"graph": {"n": "q", "edges": []}, "colors": []},
                     "instance.graph.n", id="graph-n-string"),
        pytest.param(["rainbow-matching"],
                     {"graph": {"n": 2, "edges": [["a", 1]]}, "colors": [[0]]},
                     "instance.graph.edges[0][0]", id="edge-endpoint-string"),
        pytest.param(["hall"], {"ground_size": "x", "colors": [[0]]},
                     "instance.ground_size", id="ground-size-string"),
        pytest.param(["rainbow-path"], {"network": NET, "paths": [["a"]]},
                     "instance.paths[0][0]", id="path-edge-string"),
        pytest.param(["rainbow-path", "--weights"],
                     {"network": NET, "paths": [[0]], "weights": ["x", 1]},
                     "instance.weights[0]", id="weight-string"),
        pytest.param(["scrambled-path", "--n", "2"],
                     {"network": NET, "paths": [["a"]], "scrambling": [[0]]},
                     "instance.paths[0][0]", id="scrambled-path-edge-string"),
        pytest.param(["scrambled-path", "--n", "2"],
                     {"network": NET, "paths": [[0]], "scrambling": [["a"]]},
                     "instance.scrambling[0][0]", id="scrambling-edge-string"),
        pytest.param(["span-rainbow"], SPAN_17,
                     "[0, 1]", id="span-rainbow-17-colors-deficient-pair"),
        pytest.param(["rado"], {"ground_size": 2, "colors": [[0]], "matroid": 5},
                     "instance.matroid", id="matroid-scalar"),
        pytest.param(["rado"],
                     {"ground_size": 2, "colors": [[0]], "matroid": {"kind": "uniform"}},
                     "instance.matroid.k", id="uniform-matroid-without-k"),
        pytest.param(["span-rainbow"],
                     {"ground_size": 2, "colors": [[0]], "target": [0],
                      "matroid": {"kind": "binary", "matrix": [["a", 1]]}},
                     "instance.matroid.matrix[0][0]", id="binary-matrix-entry-string"),
        pytest.param(["odd-cycle"], {"graph": TRIANGLE, "families": [[5], [1], [2]]},
                     "families[0]", id="odd-cycle-edge-id-past-edges"),
        pytest.param(["odd-cycle", "--cooperative"],
                     {"graph": TRIANGLE, "families": [[3], [3, 1], [2]]},
                     "families[0]", id="cooperative-edge-id-equal-to-edge-count"),
        # id 3 is the adjoined target element of the augmented matroid
        pytest.param(["odd-cycle", "--cooperative"],
                     {"graph": TRIANGLE, "families": [[3, 0], [3, 1], [3, 2]]},
                     "families[0]", id="cooperative-edge-id-is-target-element"),
        pytest.param(["rainbow-path", "--weights"],
                     {"network": PATH_NET, "paths": [[0, 1], [0, 1]], "weights": [1]},
                     "instance.weights", id="fewer-weights-than-edges"),
        pytest.param(["rainbow-path"], {"network": PATH_NET, "paths": [[0, 5], [0, 1]]},
                     "instance.paths[0]", id="path-edge-id-past-edges"),
        pytest.param(["rainbow-path", "--weights"],
                     {"network": PATH_NET, "paths": [[0, 5], [0, 1]], "weights": [1, 1]},
                     "instance.paths[0]", id="weighted-path-edge-id-past-edges"),
        pytest.param(["rainbow-matching", "--target", "-1"],
                     {"graph": {"n": 2, "edges": [[0, 1]]}, "colors": [[0]]},
                     "target must be nonnegative, got -1", id="target-negative"),
        pytest.param(["rainbow-matching"],
                     {"graph": {"n": 2, "edges": [[0, 1]], "bipartition": [[0, 1], [1]]},
                      "colors": [[0]]},
                     "graph.bipartition: classes overlap", id="bipartition-overlap"),
        pytest.param(["rainbow-matching"],
                     {"graph": {"n": 3, "edges": [[0, 1]], "bipartition": [[0], [1]]},
                      "colors": [[0]]},
                     "graph.bipartition: classes must cover all vertices",
                     id="bipartition-misses-vertex"),
        pytest.param(["rainbow-path"], {"network": 5, "paths": []},
                     "instance.network: expected an object", id="network-scalar"),
        pytest.param(["rainbow-paths-disjoint", "--p", "0"],
                     {"network": NET, "colors": [[0]]}, "need p >= 1, got 0", id="p-zero"),
        pytest.param(["arrow-check", "--a", "-1", "--b", "1", "--c", "1"],
                     {"graph": {"n": 2, "edges": [[0, 1]]}, "colors": []},
                     "arrow parameters must be nonnegative", id="arrow-a-negative"),
        pytest.param(["hall"], {"ground_size": -1, "colors": []},
                     "ground size must be >= 0, got -1", id="ground-size-negative"),
        pytest.param(["rainbow-matching"],
                     {"graph": {"n": 2, "edges": [[0, 1]], "bipartition": [[0, 1]]},
                      "colors": [[0]]},
                     "instance.graph.bipartition: expected a pair of vertex arrays",
                     id="bipartition-one-class"),
        pytest.param(["rado"], {"ground_size": 2, "colors": [[0]], "matroid": {
                         "kind": "partition", "ground_size": 2, "parts": [[0], [1]], "caps": [1]}},
                     "parts and caps must have equal length", id="partition-caps-short"),
        pytest.param(["rado"], {"ground_size": 2, "colors": [[0]], "matroid": {
                         "kind": "partition", "ground_size": 2, "parts": [[0, 5]]}},
                     "parts[0]: element 5 out of range", id="partition-element-past-ground"),
        pytest.param(["rado"], {"ground_size": 2, "colors": [[0]], "matroid": {
                         "kind": "partition", "ground_size": 2, "parts": [[0], [1]],
                         "caps": [1, -1]}},
                     "caps[1]: negative capacity", id="partition-cap-negative"),
        pytest.param(["rado"], {"ground_size": 2, "colors": [[0]], "matroid": {
                         "kind": "uniform", "ground_size": 2, "k": -1}},
                     "uniform matroid needs k >= 0", id="uniform-k-negative"),
        pytest.param(["rado"], {"ground_size": 2, "colors": [[0]], "matroid": {
                         "kind": "truncation", "k": -1,
                         "inner": {"kind": "free", "ground_size": 2}}},
                     "truncation needs k >= 0", id="truncation-k-negative"),
        pytest.param(["rainbow-path"],
                     {"network": {"n": 3, "edges": [[0, 2], [1, 2]], "sources": [0, 1],
                                  "targets": [2]},
                      "paths": [[0]]},
                     "operation requires a single source and target", id="two-sources"),
        pytest.param(["rainbow-path"], {"network": NET, "paths": [[]]},
                     "empty path", id="path-empty"),
        # the first path goes 0 -> 1 -> 2 -> 1
        pytest.param(["rainbow-path"],
                     {"network": {"n": 4, "edges": [[0, 1], [1, 2], [2, 1], [1, 3]],
                                  "sources": [0], "targets": [3]},
                      "paths": [[0, 1, 2, 3], [0, 3], [0, 3]]},
                     "path revisits vertex 1", id="path-revisits-vertex"),
        pytest.param(["rainbow-paths-disjoint", "--p", "1"], {"network": NET, "colors": [[9]]},
                     "unknown edge id 9", id="disjoint-edge-id-past-edges"),
        pytest.param(["rainbow-paths-disjoint", "--p", "1"],
                     {"network": NET, "colors": [[12, 0, 9], [7]]},
                     "colors[0]: unknown edge id 9", id="disjoint-edge-ids-name-the-class"),
        pytest.param(["rainbow-path"], {"network": PATH_NET, "paths": [[0, 7, 5], [0, 1]]},
                     "instance.paths[0]: unknown edge id 5", id="path-edge-ids-name-the-smallest"),
        pytest.param(["span-rainbow"],
                     {"ground_size": 3, "colors": [[0], [1], [2]], "target": [7],
                      "matroid": {"kind": "binary", "matrix": [[1, 1, 0], [0, 0, 1]]}},
                     "target element 7 outside the ground", id="span-target-past-ground"),
    ])
    def test_malformed_instance_exits_2(self, tmp_path, capsys, argv, instance, field):
        code, payload = run_cli(tmp_path, capsys, argv, instance)
        assert code == cli.EXIT_INPUT == 2
        assert payload["status"] == "error"
        assert field in payload["error"]

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        """A decoder that runs out of stack on a valid JSON document reports
        an input error, not a search cap."""
        path = tmp_path / "instance.json"
        path.write_text('{"ground_size": 1, "colors": ' + "[" * 5000 + "]" * 5000 + "}")
        code = cli.main(["hall", "--input", str(path)])
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == cli.EXIT_INPUT == 2
        assert payload["status"] == "error"
        assert payload["error"] == "instance: nested too deeply to decode"

    @pytest.mark.parametrize("raw, error", [
        pytest.param(b"\xff\xfe", "instance: not UTF-8", id="not-utf8"),
        pytest.param(b'{"ground_size": 1,', "instance: invalid JSON", id="invalid-json"),
        pytest.param(b"[1, 2]", "instance: top level must be a JSON object",
                     id="top-level-array"),
    ])
    def test_undecodable_instance_exits_2(self, tmp_path, capsys, raw, error):
        path = tmp_path / "instance.json"
        path.write_bytes(raw)
        code = cli.main(["hall", "--input", str(path)])
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == cli.EXIT_INPUT == 2
        assert payload["status"] == "error"
        assert payload["error"].startswith(error)

    def test_zero_cap_exits_2(self, capsys):
        code = cli.main(["sweep", "--conjecture", "drisko", "--params", "n=3", "--cap", "0"])
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == cli.EXIT_INPUT == 2
        assert payload["status"] == "error"
        assert payload["error"] == "instance cap must be positive"

    @pytest.mark.parametrize("name", [None, "absent.json"], ids=["directory", "missing-file"])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, name):
        path = tmp_path / name if name else tmp_path
        code = cli.main(["hall", "--input", str(path)])
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == cli.EXIT_INPUT == 2
        assert payload["status"] == "error"
        assert "--input" in payload["error"]


class TestSelfChecks:
    def test_failed_witness_check_exits_5(self, tmp_path, capsys, monkeypatch):
        # the union of every color set now looks as large as the set itself,
        # so the Hall violator fails its own deficiency check
        monkeypatch.setattr(transversals, "family_union",
                            lambda fam, colors: frozenset(range(len(colors))))
        code, payload = run_cli(tmp_path, capsys, ["hall"],
                                {"ground_size": 1, "colors": [[0], [0]]})
        assert code == cli.EXIT_THEOREM == 5
        assert payload["status"] == "theorem-violation"
        assert "not deficient" in payload["error"]

    @pytest.mark.parametrize("k, common, reachable, error", [
        # both incidences, whose elements are parallel in U(1, 2)
        pytest.param(1, range, lambda m: (), "not independent", id="dependent-image"),
        # no incidence chosen and all reachable, so both colors look
        # deficient, though U(2, 2) is free
        pytest.param(2, lambda m: (), range, "not rank-deficient", id="rich-violator"),
    ])
    def test_wrong_rado_intersection_exits_5(self, tmp_path, capsys, monkeypatch,
                                             k, common, reachable, error):
        monkeypatch.setattr(transversals, "_intersection_augment", lambda m1, m2: (
            frozenset(common(m1.ground_size)), frozenset(reachable(m1.ground_size))))
        code, payload = run_cli(tmp_path, capsys, ["rado"], {
            "ground_size": 2, "colors": [[0], [1]],
            "matroid": {"kind": "uniform", "ground_size": 2, "k": k}})
        assert code == cli.EXIT_THEOREM == 5
        assert payload["status"] == "theorem-violation"
        assert error in payload["error"]

    @pytest.mark.parametrize("rado, error", [
        # column 2 alone misses the target column 1
        pytest.param(lambda real: lambda fam, m: core.ChoiceFunction(((2, 2),)),
                     "does not span target element 1", id="image-misses-target"),
        # the retry on color 1, after {0, 1} (parallel columns) was found
        # deficient, answers with no element instead of one
        pytest.param(lambda real: lambda fam, m: (
                         real(fam, m) if fam.num_colors == 3 else core.ChoiceFunction(())),
                     "rank bookkeeping", id="deficient-answer-wrong-size"),
    ])
    def test_wrong_spanning_set_exits_5(self, tmp_path, capsys, monkeypatch, rado, error):
        monkeypatch.setattr(spancycles, "rado_rainbow", rado(spancycles.rado_rainbow))
        code, payload = run_cli(tmp_path, capsys, ["span-rainbow"], {
            "ground_size": 3, "colors": [[0], [1], [2]], "target": [1],
            "matroid": {"kind": "binary", "matrix": [[1, 1, 0], [0, 0, 1]]}})
        assert code == cli.EXIT_THEOREM == 5
        assert payload["status"] == "theorem-violation"
        assert error in payload["error"]


    @pytest.mark.parametrize("argv, instance, patches, error", [
        pytest.param(["rainbow-paths-disjoint", "--p", "1"], DISJOINT,
                     [(networks, "_follow", lambda step, cur: ())],
                     "gives 0 S-T paths, not nu^P = 1", id="path-packing-walks"),
        pytest.param(["rainbow-paths-disjoint", "--p", "1"], DISJOINT,
                     [(networks, "_path_packing", lambda bn, f: (1, ((),)))],
                     "family 0 maps to 2 B(N) edges, not 3", id="disjoint-image-size"),
        pytest.param(["rainbow-paths-disjoint", "--p", "1"], DISJOINT,
                     [(networks, "max_rainbow_matching", _rainbow())],
                     "staircase rainbow matching of size 3 not found",
                     id="disjoint-no-staircase"),
        # colors 0 and 1 are the wildcards; color 2 is family 0
        pytest.param(["rainbow-paths-disjoint", "--p", "1"], DISJOINT,
                     [(networks, "max_rainbow_matching", _rainbow((0, 5), (1, 6), (2, 4)))],
                     "edge 4 is not in family 0", id="disjoint-edge-outside-family"),
        pytest.param(["rainbow-paths-disjoint", "--p", "1"], DISJOINT,
                     [(networks, "max_rainbow_matching", _rainbow((0, 5), (1, 6), (2, 0)))],
                     "rainbow set packs only 0 < 1 disjoint paths", id="disjoint-no-path"),
        pytest.param(["rainbow-path"], {"network": PATH_NET, "paths": [[0], [0]]},
                     [(networks, "validate_st_path", _no_op)],
                     "no unrepresented path leaves the current tree", id="weighted-stuck"),
        # the second "path" is the edge 2 -> 1 alone, so vertex 1 is at 0 along it
        pytest.param(["rainbow-path", "--weights"],
                     {"network": {"n": 4, "edges": [[0, 1], [2, 1], [1, 3]],
                                  "sources": [0], "targets": [3]},
                      "paths": [[0, 2], [1], [0, 2]], "weights": [5, 0, 0]},
                     [(networks, "validate_st_path", _no_op)],
                     "tree invariant", id="weighted-tree-invariant"),
        pytest.param(["rainbow-path"], {"network": PATH_NET, "paths": [[0, 1], [0, 1]]},
                     [(core.WeightMap, "weight", lambda self, e: self.weights[e] + 1)],
                     "returned path weight 2 exceeds the bound 0", id="weighted-over-bound"),
        pytest.param(["rainbow-path"], {"network": PATH_NET, "paths": [[0, 1], [0, 1]]},
                     [(core.Network, "single_terminals", lambda self: (0, 3)),
                      (networks, "validate_st_path", _no_op)],
                     "all paths represented before reaching t", id="weighted-unreachable-t"),
        pytest.param(["scrambled-path", "--n", "1"], CHAIN,
                     [(networks, "build_towers",
                       lambda net, n, weight=None: networks.TowerPair((0,), (), (3,), ()))],
                     "heavy inner vertex misses one side", id="scrambled-heavy-one-sided"),
        pytest.param(["scrambled-path", "--n", "1"], DIAMOND,
                     [(networks, "build_towers",
                       lambda net, n, weight=None: networks.TowerPair((1,), (), (2,), ()))],
                     "no tower-to-tower edge", id="scrambled-no-bridge"),
        pytest.param(["scrambled-path", "--n", "1"], CHAIN,
                     [(networks, "enforcer_union_bounds", lambda *a, **k: False)],
                     "enforcer union lower bounds fail", id="scrambled-union-bounds"),
        pytest.param(["scrambled-path", "--n", "1"], CHAIN,
                     [(networks, "enforcer_union_bounds", lambda *a, **k: True),
                      (networks, "_kuhn_max_matching", lambda left, adj: {})],
                     "no system of distinct scrambling classes", id="scrambled-no-sdr"),
        pytest.param(["scrambled-path", "--n", "1"], CHAIN,
                     [(networks, "_reach", lambda net, edges, s: {})],
                     "contain no s-t path", id="scrambled-no-path"),
        pytest.param(["odd-cycle", "--cooperative"],
                     {"graph": TRIANGLE, "families": [[0], [1], [2]]},
                     [(spancycles, "gf2_solve_subset", lambda vecs, target: None)],
                     "cannot express the target", id="odd-cycle-no-subset"),
        pytest.param(["odd-cycle", "--cooperative"],
                     {"graph": TRIANGLE, "families": [[0], [1], [2]]},
                     [(spancycles, "gf2_solve_subset", lambda vecs, target: [])],
                     "target-summing subset has even size", id="odd-cycle-even-subset"),
        pytest.param(["odd-cycle", "--cooperative"],
                     {"graph": TRIANGLE, "families": [[0], [1], [2]]},
                     [(spancycles, "_peel_cycles", lambda g, edges: [])],
                     "no odd cycle in the target-summing subset", id="odd-cycle-no-cycle"),
        pytest.param(["odd-cycle", "--cooperative"],
                     {"graph": TRIANGLE, "families": [[0], [1], [2]]},
                     [(spancycles, "_peel_cycles", lambda g, edges: [[0]])],
                     "do not close into one cycle", id="odd-cycle-open-trail"),
    ])
    def test_wrong_network_or_cycle_step_exits_5(self, tmp_path, capsys, monkeypatch,
                                                 argv, instance, patches, error):
        for owner, name, value in patches:
            monkeypatch.setattr(owner, name, value)
        code, payload = run_cli(tmp_path, capsys, argv, instance)
        assert code == cli.EXIT_THEOREM == 5
        assert payload["status"] == "theorem-violation"
        assert error in payload["error"]


class TestSweepParams:
    @pytest.mark.parametrize("tag, params, name", [
        pytest.param("short-cycle", ["n=1", "r=2"], "'n'", id="short-cycle-n1"),
        pytest.param("short-cycle", ["n=4", "r=0"], "'r'", id="short-cycle-r0"),
        pytest.param("weighted-drisko", ["n=0"], "'n'", id="weighted-n0"),
        pytest.param("weighted-drisko", ["n=3", "wmax=-1"], "'wmax'", id="weighted-wmax-negative"),
        pytest.param("drisko", ["n=3", "bogus=1"], "'bogus'", id="unknown-parameter"),
        pytest.param("drisko", [], "'n'", id="missing-parameter"),
        pytest.param("drisko", ["n=2", "n=3"], "'n'", id="repeated-parameter"),
        pytest.param("brs", ["n=7"], "'n'", id="brs-n-above-maximum"),
        pytest.param("drisko", ["n=100000000000000000000"], "'n'", id="drisko-n-1e20"),
        pytest.param("drisko", ["n=65"], "'n'", id="drisko-n-above-maximum"),
        pytest.param("stairs", ["n=65"], "'n'", id="stairs-n-above-maximum"),
        pytest.param("scrambled-sharpness", ["n=65"], "'n'",
                     id="scrambled-sharpness-n-above-maximum"),
        pytest.param("rota", ["n=5"], "'n'", id="rota-n-above-cover-cap"),
        pytest.param("rho-two-cover", ["ground=17"], "'ground'",
                     id="rho-two-cover-ground-above-cover-cap"),
        pytest.param("ab", ["n=3", "max_vertices=5"], "'max_vertices' must be >= 2n = 6",
                     id="ab-max-vertices-below-2n"),
        pytest.param("ab", ["n=4", "max_vertices=7"], "'max_vertices' must be >= 2n = 8",
                     id="ab-n4-max-vertices-below-2n"),
        pytest.param("drisko", ["n"], "--params entries must be KEY=VALUE, got 'n'",
                     id="params-without-value"),
        pytest.param("drisko", ["n=x"], "--params n: integer required, got 'x'",
                     id="params-value-not-integer"),
    ])
    def test_bad_parameter_exits_2(self, capsys, tag, params, name):
        code = cli.main(["sweep", "--conjecture", tag, "--params", *params])
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == cli.EXIT_INPUT == 2
        assert payload["status"] == "error"
        assert name in payload["error"]

    @pytest.mark.parametrize("argv", [["sweep", "--conjecture", "brs", "--params", "n=3"],
                                      ["hall"]], ids=["sweep", "hall"])
    def test_json_is_not_an_option(self, capsys, argv):
        """Compact JSON is the output unless --pretty is given; no flag
        selects it."""
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--json"])
        assert exc.value.code == 2

    def test_seed_is_a_sweep_option_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["hall", "--seed", "1"])
        assert exc.value.code == 2

    def test_input_is_an_instance_option_only(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--conjecture", "brs", "--params", "n=3",
                      "--input", str(tmp_path / "absent.json")])
        assert exc.value.code == 2

    def test_help_lists_every_tag(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--help"])
        out = capsys.readouterr().out
        for tag in SWEEPS:
            assert tag in out


class TestSweepReports:
    """Sweeps run through cli.main to their final report."""

    def test_coercive_244_counterexample_exits_3(self, capsys):
        code = cli.main(["sweep", "--conjecture", "coercive-244"])
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == cli.EXIT_COUNTEREXAMPLE == 3
        assert report["verdict"] == "counterexample"
        assert [len(c) for c in report["counterexample"]["colors"]] == [2, 4, 4]
        assert report["detail"]["single_cycle_instances"] == 624

    def test_cap_exits_4(self, capsys):
        code = cli.main(["sweep", "--conjecture", "drisko", "--params", "n=3",
                         "instances=5", "--cap", "2"])
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == cli.EXIT_CAP == 4
        assert report["verdict"] == "cap-exhausted"
        assert report["instances_tested"] == 2

    def test_pretty_indents_only_the_report(self, capsys):
        code = cli.main(["sweep", "--conjecture", "drisko", "--params", "n=3",
                         "instances=5", "--cap", "2", "--pretty"])
        out = capsys.readouterr().out
        # the compact record lines come first, then the indented report
        start = out.index("{\n")
        records = out[:start].splitlines()
        assert code == 4 and len(records) == 3  # the header and two instances
        for line in records:
            assert json.dumps(json.loads(line), sort_keys=True,
                              separators=(",", ":")) == line
        report = out[start:]
        assert report.count("\n") > 2
        assert json.loads(report)["instances_tested"] == 2


class TestOneParse:
    """The parser is built once per process, and each structured instance
    field is parsed into its object once per call."""

    def test_parser_is_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        built = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        for _ in range(10):
            code, _ = run_cli(tmp_path, capsys, ["hall"], {"ground_size": 2, "colors": [[0], [1]]})
            assert code == 0
        assert len(built) == 1

    @pytest.mark.parametrize("command, cls", [("rainbow-path", core.Network),
                                              ("latin", core.LatinSquare)])
    def test_one_object_per_call(self, tmp_path, capsys, monkeypatch, command, cls):
        built = []
        post_init = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(1) or post_init(self))
        case = next(c for c in GOLDEN if c["argv"][0] == command)
        code, _ = run_cli(tmp_path, capsys, case["argv"], case["instance"])
        assert code == case["exit"]
        assert len(built) == 1


class TestPayloads:
    def test_span_rainbow_drops_a_deficient_color(self, tmp_path, capsys):
        """Colors 0 and 1 both hold only e0, so {0, 1} is rank-deficient and
        color 0 is dropped; color 1 alone spans the target e0."""
        code, payload = run_cli(tmp_path, capsys, ["span-rainbow"], {
            "ground_size": 3, "colors": [[0], [0], [1, 2]], "target": [0],
            "matroid": {"kind": "binary", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}})
        assert code == cli.EXIT_OK == 0
        assert payload["status"] == "span-rainbow"
        assert payload["assignment"] == {"1": 0}
        assert payload["deficient_colors"] == [0, 1]
        assert payload["dropped_color"] == 0

    def test_declared_bipartition(self, tmp_path, capsys):
        code, payload = run_cli(tmp_path, capsys, ["rainbow-matching"], {
            "graph": {"n": 4, "edges": [[0, 2], [1, 3], [0, 3]],
                      "bipartition": [[0, 1], [2, 3]]},
            "colors": [[0, 2], [1]]})
        assert code == cli.EXIT_OK == 0
        assert payload["status"] == "rainbow-matching"
        assert (payload["size"], payload["edges"]) == (2, [0, 1])
        assert payload["assignment"] == {"0": 0, "1": 1}


class TestScrambledPath:
    def test_fourteen_inner_vertices_exit_0(self, capsys):
        """The enforcer's 15 sets are checked by one matching, not capped."""
        path = Path(__file__).parent / "data" / "scrambled_path_14.json"
        inst = json.loads(path.read_text())
        code = cli.main(["scrambled-path", "--n", "2", "--input", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_OK == 0 and payload["status"] == "scrambled-path"
        edges = inst["network"]["edges"]
        walk = [edges[e] for e in payload["edges"]]
        assert walk[0][0] == 0 and walk[-1][1] == 15
        assert all(a[1] == b[0] for a, b in zip(walk, walk[1:]))
        assert len({v for v, _ in walk}) == len(walk)
        assert len(set(payload["colors"])) == len(payload["colors"])
        for e, c in zip(payload["edges"], payload["colors"]):
            assert e in inst["scrambling"][c]


class TestDeepInstances:
    """Valid instances that need more levels than the recursion limit. The
    branch and bound keeps an explicit stack, so rainbow-matching answers;
    latin still recurses once per row and ends cap-exhausted (exit 4) naming
    the limit, not with a traceback and exit 1."""

    def test_disjoint_edges_one_per_color(self, tmp_path, capsys, recursion_limit):
        n = recursion_limit + 1
        for argv in ([], ["--target", str(n)]):
            code, payload = run_cli(tmp_path, capsys, ["rainbow-matching"] + argv, {
                "graph": {"n": 2 * n, "edges": [[2 * i, 2 * i + 1] for i in range(n)]},
                "colors": [[i] for i in range(n)]})
            assert code == cli.EXIT_OK == 0
            assert payload["status"] == "rainbow-matching"
            assert payload["size"] == n
            assert payload["assignment"] == {str(i): i for i in range(n)}

    def test_cyclic_latin_square(self, tmp_path, capsys, recursion_limit):
        n = recursion_limit + 1
        code, payload = run_cli(tmp_path, capsys, ["latin"], {
            "latin": [[(r + c) % n + 1 for c in range(n)] for r in range(n)]})
        assert code == cli.EXIT_CAP == 4
        assert payload["status"] == "cap-exhausted"
        assert f"recursion limit {recursion_limit}" in payload["error"]


class TestGolden:
    @pytest.mark.parametrize("case", GOLDEN, ids=[c["id"] for c in GOLDEN])
    def test_stdout_is_byte_identical(self, tmp_path, capsys, case):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(case["instance"]))
        code = cli.main(case["argv"] + ["--input", str(path)])
        assert capsys.readouterr().out == case["stdout"]
        assert code == case["exit"]


ATOMS = (None, True, "a", 0, -1, 1.5, [], {}, [0])


def _nodes(tree, path=()):
    """(path, node) for every node of a JSON tree, the root first."""
    yield path, tree
    items = tree.items() if isinstance(tree, dict) else (
        enumerate(tree) if isinstance(tree, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


@st.composite
def mutated_instances(draw, cases):
    """A golden instance after one to three edits: drop a key, swap an atom
    in, shift an integer, pop or duplicate a list entry."""
    case = draw(st.sampled_from(cases))
    instance = copy.deepcopy(case["instance"])
    for _ in range(draw(st.integers(1, 3))):
        path, node = draw(st.sampled_from(list(_nodes(instance))))
        kind = draw(st.sampled_from(["drop", "swap", "shift", "pop", "dup"]))
        parent = instance
        for key in path[:-1]:
            parent = parent[key]
        if kind == "drop" and isinstance(node, dict) and node:
            del node[draw(st.sampled_from(sorted(node)))]
        elif kind in ("pop", "dup") and isinstance(node, list) and node:
            i = draw(st.integers(0, len(node) - 1))
            if kind == "pop":
                node.pop(i)
            else:
                node.insert(i, copy.deepcopy(node[i]))
        elif kind == "shift" and type(node) is int and path:
            parent[path[-1]] = node + draw(st.sampled_from([-3, -1, 1, 2, 10]))
        elif path:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(ATOMS)))
    return case["argv"], instance


class TestContractFuzz:
    @pytest.mark.parametrize("command", sorted(cli.HANDLERS))
    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_mutated_golden_instances_keep_the_exit_contract(self, command, data):
        argv, instance = data.draw(
            mutated_instances([c for c in GOLDEN if c["argv"][0] == command]))
        stdin = io.TextIOWrapper(io.BytesIO(json.dumps(instance).encode()))
        out = io.StringIO()
        with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(out):
            code = cli.main(argv)
        lines = out.getvalue().splitlines()
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
        assert code in (0, 1, 2, 3, 4)
