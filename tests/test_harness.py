"""Pinned outcomes of every sweep tag at small parameters and seed 3;
rota_scrambled_search, rainbow_short_cycle and latin_transversal on seeded
instances.

Each sweep case fixes the report (verdict, instance count, seed,
counterexample and detail), the full stream of per-instance records, and
the report when the instance cap stops the sweep after three instances.
"""

import hashlib
import itertools
import json
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from rainbowsets import cli, harness, matching, matroids, sweeps
from rainbowsets.core import (
    Graph,
    HypothesisViolation,
    InstanceError,
    LatinSquare,
    Transversal,
    transversal_check,
)
from rainbowsets.harness import (
    enumerate_latin_squares,
    latin_transversal,
    rainbow_short_cycle,
    rota_scrambled_search,
    run_sweep,
)
from rainbowsets.matching import EdgeFamily
from rainbowsets.matroids import (binary_matroid, check_two_cover, covering_number, free_matroid,
                                  uniform_matroid)
from rainbowsets.sweeps import SweepSpec

from oracles import all_cycles, brute_latin_transversal, brute_max_rainbow, reference_independent

SEED = 3

COERCIVE_HIT = {
    "graph": {"n": 8, "edges": [[0, 1], [1, 2], [2, 3], [3, 0],
                                [4, 5], [5, 6], [6, 7], [7, 4]]},
    "colors": [[0, 2], [1, 3, 4, 6], [1, 3, 5, 7]],
}

# (tag, params, full report, record verdicts, report at instance_cap=3)
CASES = [
    ("brs", {"n": 4},
     {"verdict": "verified-range", "instances_tested": 4,
      "detail": {"n": 4, "reduction": "reduced"}},
     ["ok"] * 4,
     {"verdict": "cap-exhausted", "instances_tested": 3,
      "detail": {"n": 4, "reduction": "reduced"}}),
    ("drisko", {"n": 3, "instances": 50},
     {"verdict": "verified-range", "instances_tested": 50, "detail": {"instances": 50}},
     ["ok"] * 50,
     {"verdict": "cap-exhausted", "instances_tested": 3, "detail": {"instances": 50}}),
    ("stairs", {"n": 3, "instances": 50},
     {"verdict": "verified-range", "instances_tested": 50, "detail": {"instances": 50}},
     ["ok"] * 50,
     {"verdict": "cap-exhausted", "instances_tested": 3, "detail": {"instances": 50}}),
    ("ab", {"n": 2, "max_vertices": 6},
     {"verdict": "verified-range", "instances_tested": 8, "detail": {"max_vertices": 6}},
     ["ok"] * 8,
     {"verdict": "cap-exhausted", "instances_tested": 3, "detail": {"max_vertices": 6}}),
    ("ab", {"n": 3, "max_vertices": 6},
     {"verdict": "verified-range", "instances_tested": 5, "detail": {"max_vertices": 6}},
     ["ok"] * 5,
     {"verdict": "cap-exhausted", "instances_tested": 3, "detail": {"max_vertices": 6}}),
    ("coercive-244", {},
     {"verdict": "counterexample", "instances_tested": 6, "counterexample": COERCIVE_HIT,
      "detail": {"single_cycle_verdict": "verified-range",
                 "single_cycle_instances": 624}},
     ["ok"] * 5 + ["counterexample"],
     {"verdict": "cap-exhausted", "instances_tested": 3,
      "detail": {"ambients": [[4, 4]], "single_cycle_verdict": "cap-exhausted",
                 "single_cycle_instances": 3}}),
    ("weighted-drisko", {"n": 3, "instances": 50},
     {"verdict": "verified-range", "instances_tested": 50,
      "detail": {"n": 3, "instances": 50}},
     ["ok"] * 50,
     {"verdict": "cap-exhausted", "instances_tested": 3,
      "detail": {"n": 3, "instances": 50}}),
    ("rho-two-cover", {"ground": 6, "instances": 30},
     {"verdict": "verified-range", "instances_tested": 30, "detail": {"ground": 6}},
     ["ok"] * 30,
     {"verdict": "cap-exhausted", "instances_tested": 3, "detail": {"ground": 6}}),
    ("scrambled-sharpness", {"n": 4, "instances": 30},
     {"verdict": "cap-exhausted", "instances_tested": 30,
      "detail": {"n": 4, "note": "no sharpness instance found in the sample"}},
     ["ok"] * 30,
     {"verdict": "cap-exhausted", "instances_tested": 3, "detail": {"n": 4}}),
    ("rota", {"n": 2, "instances": 10},
     {"verdict": "verified-range", "instances_tested": 10,
      "detail": {"n": 2, "instances": 10}},
     ["ok"] * 10,
     {"verdict": "cap-exhausted", "instances_tested": 3,
      "detail": {"n": 2, "instances": 10}}),
    ("short-cycle", {"n": 6, "r": 3, "instances": 30},
     {"verdict": "verified-range", "instances_tested": 30, "detail": {"n": 6, "r": 3}},
     ["ok"] * 30,
     {"verdict": "cap-exhausted", "instances_tested": 3, "detail": {"n": 6, "r": 3}}),
]


def sweep(tag, params, cap=10**6):
    records = []
    spec = SweepSpec(tag, tuple(params.items()), seed=SEED, instance_cap=cap)
    return run_sweep(spec, on_record=records.append), records


def expected_records(verdicts):
    return [{"instance": i, "verdict": v} for i, v in enumerate(verdicts)]


@pytest.mark.parametrize("tag, params, full, verdicts, capped", CASES,
                         ids=[tag + ("-n2" if tag == "ab" and params["n"] == 2 else "")
                              for tag, params, *_ in CASES])
def test_sweep_pinned(tag, params, full, verdicts, capped):
    report, records = sweep(tag, params)
    assert report.as_dict() == {"conjecture": tag, "seed": SEED, **full}
    assert records == expected_records(verdicts)

    report, records = sweep(tag, params, cap=3)
    assert report.as_dict() == {"conjecture": tag, "seed": SEED, **capped}
    assert records == expected_records(verdicts[:3])


def test_time_cap_stops_the_sweep(monkeypatch):
    """A clock that advances one second per reading: started at 0, the
    checks before instances 0, 1 and 2 read 1, 2 and 3 s, and the third is
    past the 2.5 s cap."""
    ticks = iter(range(100))
    monkeypatch.setattr(sweeps, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    records = []
    spec = SweepSpec("short-cycle", (("n", 6), ("r", 3), ("instances", 30)), seed=SEED,
                     time_cap=2.5)
    report = run_sweep(spec, on_record=records.append)
    assert report.as_dict() == {"conjecture": "short-cycle", "seed": SEED,
                                "verdict": "cap-exhausted", "instances_tested": 2,
                                "detail": {"n": 6, "r": 3}}
    assert records == expected_records(["ok"] * 2)


@pytest.mark.parametrize("caps, message", [
    pytest.param({"time_cap": 0}, r"^time cap must be positive$", id="time-cap-zero"),
])
def test_sweep_spec_input_errors(caps, message):
    with pytest.raises(InstanceError, match=message):
        SweepSpec("short-cycle", (("n", 6), ("r", 3)), **caps)


@pytest.mark.parametrize("tag", ["drisko", "stairs"])
def test_random_claim_sweep_reproducible(tag):
    """One seed gives the same report and record stream."""
    params = {"n": 3, "instances": 50}
    assert sweep(tag, params) == sweep(tag, params)


def test_unknown_sweep_tag():
    with pytest.raises(InstanceError, match=r"^unknown sweep conjecture 'nope'$"):
        run_sweep(SweepSpec("nope"))


def test_rho_two_cover_exact_check_agrees_where_the_greedy_cover_settles(monkeypatch):
    """Forcing the exact check_two_cover on every pair, also those that the
    greedy cover settles, changes neither the report nor the record stream."""
    params = {"ground": 6, "instances": 30}
    settled = []

    def counted(m1, m2, settle=harness._two_cover_settled):
        settled.append(settle(m1, m2))
        return settled[-1]
    monkeypatch.setattr(harness, "_two_cover_settled", counted)
    greedy = sweep("rho-two-cover", params)
    assert any(settled)
    monkeypatch.setattr(harness, "_two_cover_settled", lambda m1, m2: False)
    assert sweep("rho-two-cover", params) == greedy


def test_ab_cap_at_full_count():
    """Skipped candidates are never counted, so a cap equal to the whole
    range lets the sweep finish."""
    report, records = sweep("ab", {"n": 3, "max_vertices": 6}, cap=5)
    assert report.verdict == "verified-range"
    assert report.instances_tested == 5
    assert records == expected_records(["ok"] * 5)


def test_coercive_counterexample_replays_through_cli(tmp_path, capsys):
    """The (2, 4, 4) -> 3 counterexample has no rainbow matching of size 3,
    by the CLI and by brute force."""
    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps(COERCIVE_HIT))
    code = cli.main(["rainbow-matching", "--target", "3", "--input", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_NEGATIVE == 1
    assert payload["size"] < 3
    g = Graph(COERCIVE_HIT["graph"]["n"], tuple(map(tuple, COERCIVE_HIT["graph"]["edges"])))
    assert brute_max_rainbow(EdgeFamily(g, tuple(map(frozenset, COERCIVE_HIT["colors"])))) < 3


def no_rainbow_run(search, colors, target):
    """A stand-in for the shared search's run that finds nothing."""
    return []


def no_rota_cover(m, members, within=None):
    """_cover, except that no meet has a cover by n + 1 = 3 sets: the rota
    check's question at n = 2. The rejection loop asks within 2."""
    return None if within == 3 else matroids._cover(m, members, within)


# (tag, params, module or class, name of the search its check calls, a
# stand-in that makes every candidate a hit, the keys of the serialized
# counterexample)
HITS = [
    ("drisko", {"n": 3, "instances": 3}, matching._RainbowSearch, "run",
     no_rainbow_run, {"graph", "colors"}),
    ("stairs", {"n": 3, "instances": 3}, matching._RainbowSearch, "run",
     no_rainbow_run, {"graph", "colors"}),
    ("brs", {"n": 3}, harness, "latin_transversal",
     lambda square, target=None: Transversal(frozenset()), {"latin"}),
    ("weighted-drisko", {"n": 2, "instances": 3}, harness, "_weighted_rainbow_exists",
     lambda m, draw, weights, size, budget: False, {"graph", "colors", "weights", "budget"}),
    ("rho-two-cover", {"ground": 4, "instances": 3}, harness, "check_two_cover",
     lambda m1, m2: SimpleNamespace(holds=False, rho_m=1, rho_n=1, rho_meet=3),
     {"matroid", "matroid2"}),
    ("rota", {"n": 2, "instances": 3}, harness, "_cover", no_rota_cover,
     {"matroid", "parts"}),
    ("short-cycle", {"n": 4, "r": 3, "instances": 3}, harness, "rainbow_short_cycle",
     lambda g, sets, r: None, {"graph", "families"}),
    ("ab", {"n": 3, "max_vertices": 6}, matching._RainbowSearch, "run",
     no_rainbow_run, {"graph", "colors"}),
]


def sweep_through_cli(capsys, tag, params) -> tuple[list, int]:
    """The parsed stdout lines and the exit code of a sweep run by cli.main."""
    code = cli.main(["sweep", "--conjecture", tag,
                     "--params", *(f"{k}={v}" for k, v in params.items())])
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()], code


@pytest.mark.parametrize("tag, params, module, name, stand_in, keys", HITS,
                         ids=[hit[0] for hit in HITS])
def test_first_candidate_hit_ends_the_sweep(monkeypatch, capsys, tag, params, module,
                                            name, stand_in, keys):
    monkeypatch.setattr(module, name, stand_in)
    # rho-two-cover asks check_two_cover only about the pairs that the
    # greedy cover of the meet leaves open: leave every pair open
    monkeypatch.setattr(harness, "_two_cover_settled", lambda m1, m2: False)
    out, code = sweep_through_cli(capsys, tag, params)
    assert code == cli.EXIT_COUNTEREXAMPLE == 3
    assert {k: out[1][k] for k in ("instance", "verdict")} == {
        "instance": 0, "verdict": "counterexample"}
    report = out[-1]
    assert (report["verdict"], report["instances_tested"]) == ("counterexample", 1)
    assert set(report["counterexample"]) == keys


@pytest.mark.parametrize("m, n", [
    pytest.param(binary_matroid([1, 0, 2]), free_matroid(3), id="loop-in-m"),
    pytest.param(free_matroid(3), binary_matroid([1, 2, 0]), id="loop-in-n"),
    pytest.param(binary_matroid([1, 2, 0]), binary_matroid([0, 1, 2]), id="loops-in-both"),
])
def test_rho_two_cover_loop_raises_as_check_two_cover(monkeypatch, m, n):
    """A pair with a loop is left to check_two_cover, which names M's
    smallest loop first, then N's."""
    with pytest.raises(InstanceError) as direct:
        check_two_cover(m, n)
    draws = iter([m, n])
    monkeypatch.setattr(harness, "random_matroid", lambda rng, ground: next(draws))
    with pytest.raises(InstanceError) as swept:
        run_sweep(SweepSpec("rho-two-cover", (("ground", 3), ("instances", 1))))
    assert str(swept.value) == str(direct.value)


def test_ab_counterexample_is_a_family_on_the_complete_bipartite_graph(
        monkeypatch, capsys, tmp_path):
    """The first family at n = 3 takes matching (0, 0), (1, 1), (2, 2) of
    K_{3,3} three times; edge 3l + r joins left l and right 3 + r. It does
    have a rainbow matching of size n - 1, which the unpatched CLI finds."""
    monkeypatch.setattr(matching._RainbowSearch, "run", no_rainbow_run)
    out, _ = sweep_through_cli(capsys, "ab", {"n": 3, "max_vertices": 6})
    hit = out[-1]["counterexample"]
    edges = [[l, 3 + r] for l in range(3) for r in range(3)]
    assert hit == {"graph": {"n": 6, "edges": edges}, "colors": [[0, 4, 8]] * 3}
    monkeypatch.undo()
    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps(hit))
    assert cli.main(["rainbow-matching", "--target", "2", "--input", str(path)]) == cli.EXIT_OK


@pytest.mark.parametrize("tag, sizes", [("drisko", (3,) * 5), ("stairs", (1, 2, 3, 3, 3))])
def test_random_claim_counterexample_has_fresh_edge_ids(monkeypatch, capsys, tmp_path,
                                                        tag, sizes):
    """A forced hit on the first family at n = 3 is serialized as
    random_matching_family draws it from the sweep's seed (0): one fresh
    edge id per edge of each class, not the edge ids of K_{3,3} that the
    sweep searches on. It does have a rainbow matching of size 3, which the
    unpatched CLI finds."""
    monkeypatch.setattr(matching._RainbowSearch, "run", no_rainbow_run)
    out, _ = sweep_through_cli(capsys, tag, {"n": 3, "instances": 3})
    hit = out[-1]["counterexample"]
    fam = matching.random_matching_family(random.Random(0), sizes)
    assert hit == matching._serialize_family_instance(fam.graph, fam.colors)
    monkeypatch.undo()
    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps(hit))
    assert cli.main(["rainbow-matching", "--target", "3", "--input", str(path)]) == cli.EXIT_OK


def sharpness_sweep(monkeypatch, capsys, replay_size):
    """The scrambled-sharpness sweep through the CLI, with a shared search
    whose answer on each candidate has n - 1 edges and a replay (through
    scrambled_matching_check's max_rainbow_matching) whose answer has
    replay_size: the parsed stdout lines and the exit code."""
    monkeypatch.setattr(matching._RainbowSearch, "run",
                        lambda search, colors, target: [None] * (target - 1))
    monkeypatch.setattr(matching, "max_rainbow_matching",
                        lambda fam, target=None: (list(range(replay_size)), None))
    return sweep_through_cli(capsys, "scrambled-sharpness", {"n": 4, "instances": 3})


def test_sharpness_hit_is_replayed_and_reported(monkeypatch, capsys):
    """A candidate whose scrambled classes have no rainbow matching of size
    n, also on replay from its serialized form, ends the sweep with exit 3."""
    out, code = sharpness_sweep(monkeypatch, capsys, replay_size=3)
    assert code == cli.EXIT_COUNTEREXAMPLE == 3
    assert out[1] == {"instance": 0, "verdict": "sharpness-witness"}
    report = out[-1]
    assert report["verdict"] == "counterexample"
    assert report["detail"] == {"meaning": "sharpness witness", "max_rainbow": 3}
    assert len(report["counterexample"]["scrambling"]) == 6


def test_sharpness_replay_that_disagrees_is_a_theorem_violation(monkeypatch, capsys):
    out, code = sharpness_sweep(monkeypatch, capsys, replay_size=4)
    assert code == cli.EXIT_THEOREM == 5
    assert out[-1]["status"] == "theorem-violation"


class TestRandomClaimSearch:
    """drisko, stairs and scrambled-sharpness set up one search on K_{n,n}
    and run it on every family, visiting the same search tree as one search
    set up per family did."""

    # sha256 of the JSON of [records, report] at the default 1,000 instances
    DIGESTS = {
        ("drisko", 0): "ed2b62f1271e5b15524ce22e806b18fff6c1ba21ebf63ee99aede0d6d9ccf66e",
        ("drisko", 7): "859d5afcf91646d0a88143d2f7eba2bff25f9b3008c703b6485ae59e7deafdca",
        ("drisko", 41): "9fb568b4a11f5cbf5c2392e3b0d71c89c8abdabb2d71efb657119ae362e1e8ea",
        ("stairs", 0): "878e6f851919de5ae9ba0e3a632e7113004b94d3de7a88ffd549d49dea0527b2",
        ("stairs", 7): "74f6413e60590f4cba10dc312afa389a05501018e2d0ddaedcc7125b26febee7",
        ("stairs", 41): "3c4d633970167ddb6eef1e8c47d613c850ea607f3e33570624dbc24febfa46d9",
        ("scrambled-sharpness", 0):
            "613e7b09129670ef308c21785983512f9cf9cbbbb61cac841c8e97830f8ea38c",
        ("scrambled-sharpness", 7):
            "d5b47ceab0f087d2ddd6abfd5c9ed0ce350d5095113200b34e5aff7bf79169f0",
        ("scrambled-sharpness", 41):
            "f9e72281d4c6d75ee7531a32618895b3c68845f5505b1dec0d6600dd1c2181cf",
    }
    N = {"drisko": 3, "stairs": 3, "scrambled-sharpness": 4}

    @staticmethod
    def sweep_at(tag, n, seed):
        records = []
        spec = SweepSpec(tag, (("n", n),), seed=seed)
        return run_sweep(spec, on_record=records.append), records

    @pytest.mark.parametrize("tag", sorted(N))
    def test_one_search_per_sweep(self, monkeypatch, tag):
        made = []
        init = matching._RainbowSearch.__init__

        def counted(search, g):
            made.append(g)
            init(search, g)

        monkeypatch.setattr(matching._RainbowSearch, "__init__", counted)
        report, records = self.sweep_at(tag, self.N[tag], 0)
        assert len(records) == report.instances_tested == 1000
        assert [g.num_edges for g in made] == [self.N[tag] ** 2]

    @pytest.mark.parametrize("tag, calls", [("drisko", 575), ("stairs", 827)])
    def test_bound_calls_at_n3_seed0(self, monkeypatch, tag, calls):
        """Each class is a matching, so its edges on K_{3,3} are live
        exactly when its fresh edges were, in the same order."""
        counted = []
        bound = matching._RainbowSearch._matching_bound

        def counting(search, union):
            counted.append(union)
            return bound(search, union)

        monkeypatch.setattr(matching._RainbowSearch, "_matching_bound", counting)
        self.sweep_at(tag, 3, 0)
        assert len(counted) == calls

    @pytest.mark.parametrize("tag, seed", sorted(DIGESTS))
    def test_report_and_records(self, tag, seed):
        report, records = self.sweep_at(tag, self.N[tag], seed)
        digest = hashlib.sha256(json.dumps([records, report.as_dict()]).encode()).hexdigest()
        assert digest == self.DIGESTS[tag, seed]


class TestFamilySweepSearch:
    """ab and coercive-244 set up one search per host graph and run it on
    each family's classes; weighted-drisko searches each draw itself. None
    of them builds a Graph, an EdgeFamily or a search per family."""

    PARAMS = {"ab": (("n", 3), ("max_vertices", 7)), "coercive-244": (),
              "weighted-drisko": (("n", 3),)}
    # sha256 of the JSON of [records, report], taken when each family was
    # an EdgeFamily searched by max_rainbow_matching
    DIGESTS = {
        ("ab", 0): "ede791556d9e22718074dfd29e1f88a81821becdaf35be2569336a8886faf126",
        ("ab", 7): "f54e9af524c37fdf2e483d320cc72a94415c74c6ae943f027e2541ecbca87b33",
        ("ab", 41): "90f610b87fcc729e6391f6c32ead744b9d30d742e5d8df7c19fec39db9c32b18",
        ("coercive-244", 0): "e58356cf84f810e6f721651b07d04ad7dc581e38b080f3f2184b2cb0307c7ebc",
        ("coercive-244", 7): "3a3cb0acb6f354d10048825528c0926b3cb116ac1a1b848c95a02bfa7681af1c",
        ("coercive-244", 41): "4cd2b950b26ebfa0825e3057f821a233c11be79f7548253e1bafd93a09653a4c",
        ("weighted-drisko", 0): "7253f43fd937236d277f1a4ea9244e28740e94a06fc6e4f77c9265f11d7c1315",
        ("weighted-drisko", 7): "fd60ae06e532bbb1c74652a922133cd71487e9e67e7fe68c09c5b8d6ed4ef1d6",
        ("weighted-drisko", 41): "50f8391aa782960980ee4977dcde6e69e9cecbe80cfd1c1cd23444856d0ce396",
    }

    def sweep_at(self, tag, seed):
        records = []
        return run_sweep(SweepSpec(tag, self.PARAMS[tag], seed=seed),
                         on_record=records.append), records

    # K_{3,3} and K_{3,4}; C8, C10 and C4 + C4; no host graph
    @pytest.mark.parametrize("tag, hosts, tested", [
        ("ab", 2, 28), ("coercive-244", 3, 6), ("weighted-drisko", 0, 1000)])
    def test_one_build_per_host_graph(self, monkeypatch, tag, hosts, tested):
        built = Counter()
        for cls, name in ((Graph, "__post_init__"), (EdgeFamily, "__post_init__"),
                          (matching._RainbowSearch, "__init__")):
            def counted(obj, *args, _cls=cls, _build=getattr(cls, name)):
                built[_cls.__name__] += 1
                _build(obj, *args)
            monkeypatch.setattr(cls, name, counted)
        report, records = self.sweep_at(tag, 0)
        assert len(records) == report.instances_tested == tested
        assert built == Counter({"Graph": hosts, "_RainbowSearch": hosts})

    @pytest.mark.parametrize("tag, seed", sorted(DIGESTS))
    def test_report_and_records(self, tag, seed):
        report, records = self.sweep_at(tag, seed)
        digest = hashlib.sha256(json.dumps([records, report.as_dict()]).encode()).hexdigest()
        assert digest == self.DIGESTS[tag, seed]


def test_rota_computes_each_covering_number_once(monkeypatch):
    """The rejection loop's enumeration is the one the check relies on: each
    drawn matroid's independent subsets are listed once, and each instance
    lists only its partition matroid's for the meet."""
    drawn, enumerated = [], []
    binary, member_masks = harness.binary_matroid, harness._member_masks

    def draw(cols):
        drawn.append(binary(cols))
        return drawn[-1]

    def counted(matroid):
        enumerated.append(matroid)
        return member_masks(matroid)

    monkeypatch.setattr(harness, "binary_matroid", draw)
    monkeypatch.setattr(harness, "_member_masks", counted)
    report, _ = sweep("rota", {"n": 3, "instances": 20})
    assert report.verdict == "verified-range"
    assert Counter(m.descriptor["kind"] for m in enumerated) == {"binary": 25, "partition": 20}
    assert len({id(m) for m in enumerated}) == len(enumerated)
    assert {id(m) for m in drawn} == {id(m) for m in enumerated if m.descriptor["kind"] == "binary"}


def rota_instance(rng, n):
    """A seeded binary matroid on n*n columns with covering number n, and a
    random partition of its ground into n parts of size n."""
    while True:
        matroid = binary_matroid([rng.randint(1, (1 << n) - 1) for _ in range(n * n)])
        if covering_number(matroid)[0] == n:
            break
    elements = list(range(n * n))
    rng.shuffle(elements)
    return matroid, [sorted(elements[i * n:(i + 1) * n]) for i in range(n)]


class TestRotaScrambledSearch:
    @pytest.mark.parametrize("n", [2, 3])
    def test_seeded_partitions_are_rainbow_and_independent(self, n):
        rng = random.Random(40 + n)
        for _ in range(12):
            matroid, parts = rota_instance(rng, n)
            result = rota_scrambled_search(matroid, parts)
            assert result.succeeded and result.n == n
            classes = result.classes
            assert result.classes_used == len(classes) <= n + 1
            assert sorted(x for c in classes for x in c) == list(range(n * n))
            for c in classes:
                assert reference_independent(matroid.descriptor, c)
                assert all(len(c & set(p)) <= 1 for p in parts)
            assert result.even_tight == (n % 2 == 0 and result.classes_used == n)

    def test_overlapping_cover_is_made_disjoint_in_order(self, monkeypatch):
        """Seeded instances cover with n disjoint classes; a cover by n+1
        rainbow sets may overlap, and each class keeps only what the
        earlier ones left."""
        cover = [frozenset({0, 2}), frozenset({1, 2}), frozenset({1, 3})]

        def overlapping(ground, members, within=None):
            """rho(U_{2,4}) = 2 exactly; the meet has no cover by 2 sets,
            and this overlapping one by 3."""
            return {None: matroids._cover(ground, members), 2: None, 3: cover}[within]

        monkeypatch.setattr(harness, "_cover", overlapping)
        result = rota_scrambled_search(uniform_matroid(4, 2), [[0, 1], [2, 3]])
        assert result.classes == (frozenset({0, 2}), frozenset({1}), frozenset({3}))
        assert result.classes_used == 3 and not result.even_tight

    def test_no_cover_by_n_plus_one_sets_fails(self, monkeypatch):
        monkeypatch.setattr(harness, "_cover", lambda ground, members, within=None: (
            None if within else matroids._cover(ground, members)))
        result = rota_scrambled_search(uniform_matroid(4, 2), [[0, 1], [2, 3]])
        assert result == harness.RotaSearchResult(2, None, None, False)
        assert not result.succeeded

    def test_part_sizes(self):
        with pytest.raises(InstanceError, match="n parts of size n"):
            rota_scrambled_search(uniform_matroid(4, 2), [[0], [1, 2, 3]])

    def test_parts_must_partition_the_ground(self):
        with pytest.raises(InstanceError, match="partition the ground"):
            rota_scrambled_search(uniform_matroid(4, 2), [[0, 1], [0, 1]])

    # sha256 of the stdout of `sweep --seed S --conjecture rota --params
    # n=N`, taken when rota computed exact covering numbers
    STDOUT = {
        (2, 0): "f008b96d7dff2a08d472cb506f318ad5bc546debcf823698dda7a077589a653c",
        (2, 7): "cafcefbd243a577e1331c789face53a4e1de018ffee9d27a5d56729b12da719e",
        (2, 41): "b79099425242e32d607bd8ec9f8a0179d1533f6a1850a06793cbf2271b1e756f",
        (3, 0): "394bc6cdcd215cf9c656621c2d51f9fcbee18e9ff9e592476180e2778dbe532a",
        (3, 7): "3f61090fb0dfe34481663ed2438290c81f6e7d595423c013a0916e35e93450c7",
        (3, 41): "16b2f4f2bdbe309f6c18c8f789c948cdb4fcbd028f62677c14bf0e945d2de3d9",
    }

    @pytest.mark.parametrize("n, seed", sorted(STDOUT))
    def test_sweep_stdout_pinned(self, capsys, n, seed):
        code = cli.main(["sweep", "--seed", str(seed), "--conjecture", "rota",
                         "--params", f"n={n}"])
        assert code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == self.STDOUT[n, seed]

    def test_covering_number_must_be_n(self):
        with pytest.raises(InstanceError, match="covering number is 1, expected n = 2"):
            rota_scrambled_search(free_matroid(4), [[0, 1], [2, 3]])


def short_cycle_instance(rng, n, r):
    """n disjoint classes of ceil(n/r) random edges each on n vertices, and
    up to two edges in no class."""
    need = -(-n // r)
    edges = []
    for _ in range(n * need + rng.randint(0, 2)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    return Graph(n, tuple(edges)), [list(range(c * need, (c + 1) * need)) for c in range(n)]


class TestRainbowShortCycle:
    def test_class_count_must_be_n(self):
        g = Graph(3, ((0, 1), (1, 2), (0, 2)))
        with pytest.raises(HypothesisViolation, match="expected 3 classes, got 2"):
            rainbow_short_cycle(g, [[0], [1, 2]], 3)

    def test_class_too_small(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (0, 1)))
        with pytest.raises(HypothesisViolation, match=r"class 3 has size 1 < ceil\(n/r\) = 2"):
            rainbow_short_cycle(g, [[0, 1], [2, 3], [4, 5], [6]], 3)

    def test_overlapping_classes(self):
        g = Graph(3, ((0, 1), (1, 2), (0, 2)))
        with pytest.raises(InstanceError, match="edge 1 already in family 0"):
            rainbow_short_cycle(g, [[0, 1], [1], [2]], 3)

    @pytest.mark.parametrize("classes, r, message", [
        pytest.param([[0], [3], [2]], 3, r"^families\[1\]: unknown edge id 3$",
                     id="unknown-edge-id"),
        pytest.param([[0], [1], [2]], 1, r"^cycle length bound must be at least 2$",
                     id="r-below-2"),
    ])
    def test_input_errors(self, classes, r, message):
        g = Graph(3, ((0, 1), (1, 2), (0, 2)))
        with pytest.raises(InstanceError, match=message):
            rainbow_short_cycle(g, classes, r)

    def test_none_when_every_short_cycle_repeats_a_color(self):
        # each class is a digon; the only rainbow cycle is the triangle
        g = Graph(3, ((0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)))
        classes = [[0, 1], [2, 3], [4, 5]]
        assert rainbow_short_cycle(g, classes, 2) is None
        assert len(rainbow_short_cycle(g, classes, 3)) == 3

    @pytest.mark.parametrize("n, r", [(3, 2), (4, 3), (5, 3), (6, 4)])
    def test_cycle_is_closed_rainbow_and_short(self, n, r):
        rng = random.Random(100 * n + r)
        found = 0
        for _ in range(30):
            g, classes = short_cycle_instance(rng, n, r)
            color_of = {e: c for c, cls in enumerate(classes) for e in cls}
            hit = rainbow_short_cycle(g, classes, r)
            exists = any(len(cycle) <= r and all(e in color_of for e in cycle)
                         and len({color_of[e] for e in cycle}) == len(cycle)
                         for cycle in all_cycles(g))
            assert (hit is not None) == exists
            if hit is None:
                continue
            found += 1
            k = len(hit.edges)
            assert 2 <= k <= r and len(hit.vertices) == len(set(hit.vertices)) == k
            for i, e in enumerate(hit.edges):
                ends = {hit.vertices[i], hit.vertices[(i + 1) % k]}
                assert set(g.edges[e]) == ends
            assert hit.colors == tuple(color_of[e] for e in hit.edges)
            assert len(set(hit.colors)) == k
        assert found > 0


def permuted_square(rng, square):
    """The square with its rows, columns and symbols permuted at random."""
    n = square.n
    rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
    syms = [0] + rng.sample(range(1, n + 1), n)
    return LatinSquare(n, tuple(tuple(syms[square.rows[rows[r]][cols[c]]] for c in range(n))
                                for r in range(n)))


class TestLatinTransversal:
    def check(self, square):
        t = latin_transversal(square)
        assert transversal_check(square, t.cells)
        assert len(t) == brute_latin_transversal(square)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_reduced_square_up_to_order_4(self, n):
        for square in enumerate_latin_squares(n):
            self.check(square)

    def test_order_zero_has_no_square(self):
        assert list(enumerate_latin_squares(0)) == []

    def test_reduced_square_counts(self):
        assert [sum(1 for _ in enumerate_latin_squares(n)) for n in range(1, 7)] == [
            1, 1, 1, 4, 56, 9408]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_row_and_column_permutations_keep_the_maximum(self, n):
        """Every square is a row and column permutation of a reduced one
        with the same maximum partial transversal, so brs tests only those:
        each row permutation, paired with a random column permutation."""
        rng = random.Random(n)
        for square in enumerate_latin_squares(n):
            size = len(latin_transversal(square))
            for rows in itertools.permutations(range(n)):
                cols = rng.sample(range(n), n)
                permuted = LatinSquare(n, tuple(tuple(square.rows[r][c] for c in cols)
                                                for r in rows))
                assert len(latin_transversal(permuted)) == size

    def test_permuted_order_5_squares(self):
        rng = random.Random(5)
        squares = list(enumerate_latin_squares(5))
        for square in rng.sample(squares, 25):
            self.check(permuted_square(rng, square))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_target_stops_early_or_finds_the_maximum(self, n):
        """With a target the result is a partial transversal of at least
        that size when one exists, and otherwise a maximum one."""
        rng = random.Random(50 + n)
        squares = [permuted_square(rng, s) for s in enumerate_latin_squares(n)]
        for square, target in itertools.product(squares[:12], range(n + 2)):
            t = latin_transversal(square, target)
            assert transversal_check(square, t.cells)
            best = brute_latin_transversal(square)
            assert len(t) >= target if best >= target else len(t) == best

    def test_target_ends_the_search(self):
        """The cyclic square of order 4 has no full transversal, so the
        maximum search must rule one out; brs's target n - 1 = 3 ends the
        search at the first size-3 transversal, after fewer cell reads."""
        reads = Counter()

        class CountedRow(tuple):
            def __getitem__(self, col):
                reads[self.target] += 1
                return tuple.__getitem__(self, col)

        def cyclic(target):
            # latin_transversal reads only n and rows, and LatinSquare would
            # copy the rows into plain tuples
            rows = []
            for r in range(4):
                row = CountedRow((r + c) % 4 + 1 for c in range(4))
                row.target = target
                rows.append(row)
            return SimpleNamespace(n=4, rows=tuple(rows))

        assert len(latin_transversal(cyclic(None))) == 3
        assert len(latin_transversal(cyclic(3), 3)) == 3
        assert reads[3] < reads[None]
