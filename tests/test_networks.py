import hashlib
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from rainbowsets.core import (
    Graph,
    HypothesisViolation,
    InstanceError,
    Network,
    TheoremViolation,
    WeightMap,
    matching_check,
)
from rainbowsets.networks import (
    PathEnforcer,
    bipartify,
    build_towers,
    enforcer_union_bounds,
    nu_p,
    rainbow_disjoint_paths,
    rainbow_path_weighted,
    scrambled_rainbow_path,
    validate_st_path,
)

from oracles import (
    ComponentClassification,
    LinearishArborescence,
    brute_nu_p,
    brute_union_bounds,
    brute_weighted_rainbow_path_feasible,
    check_counting_claim,
    classify,
    enforcer_always_has_path,
    phi,
    psi,
)

DATA = Path(__file__).parent / "data"
PINNED_PATHS = "3226d336b8a4b96f678a0a0c0c7573dd47664bfaa03576432471bc6d753a3a19"


def net_sxt() -> Network:
    # s=0, x=1, y=2, t=3: edges sx, xt, st, sy, yt
    return Network(4, ((0, 1), (1, 3), (0, 3), (0, 2), (2, 3)),
                   frozenset({0}), frozenset({3}))


def random_network(rng: random.Random, inner: int, num_sources: int = 1,
                   num_targets: int = 1, extra_edges: int = 8) -> Network:
    n = num_sources + num_targets + inner
    sources = frozenset(range(num_sources))
    targets = frozenset(range(num_sources, num_sources + num_targets))
    middle = list(range(num_sources + num_targets, n))
    edges = []
    for _ in range(extra_edges):
        u = rng.choice(list(sources) + middle)
        allowed = [v for v in middle + list(targets) if v != u]
        v = rng.choice(allowed)
        if v not in sources and u not in targets:
            edges.append((u, v))
    return Network(n, tuple(edges), sources, targets)


def random_linearish(rng: random.Random, net: Network) -> LinearishArborescence:
    ids = list(range(net.num_edges))
    rng.shuffle(ids)
    indeg: set[int] = set()
    outdeg: set[int] = set()
    take = []
    for e in ids:
        u, v = net.edges[e]
        if u in outdeg or v in indeg:
            continue
        outdeg.add(u)
        indeg.add(v)
        take.append(e)
    return LinearishArborescence(net, frozenset(take))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: nu_p(net_sxt(), [0, 7]), r"^unknown edge id 7$", id="nu-p-edge-id"),
    pytest.param(lambda: validate_st_path(net_sxt(), [0, 9], 0, 3), r"^unknown edge id 9$",
                 id="path-edge-id"),
    pytest.param(lambda: rainbow_path_weighted(net_sxt(), WeightMap((1,)),
                                               [(0, 1), (2,), (3, 4)], 9),
                 r"^weight map length differs from the edge count$", id="weights-length"),
    pytest.param(lambda: build_towers(net_sxt(), 0), r"^towers need n >= 1$", id="towers-n-zero"),
])
def test_input_errors(call, message):
    with pytest.raises(InstanceError, match=message):
        call()


class TestClassify:
    def test_empty(self):
        cls = classify(LinearishArborescence(net_sxt(), frozenset()))
        assert not (cls.cycles or cls.st_paths or cls.s_only_paths
                    or cls.t_only_paths or cls.free_paths)

    def test_single_st_path(self):
        cls = classify(LinearishArborescence(net_sxt(), frozenset({0, 1})))
        assert cls.st_paths == ((0, 1),)
        assert not cls.cycles

    def test_inner_cycle(self):
        net = Network(5, ((1, 2), (2, 3), (3, 1)), frozenset({0}), frozenset({4}))
        cls = classify(LinearishArborescence(net, frozenset({0, 1, 2})))
        assert len(cls.cycles) == 1 and not cls.st_paths

    def test_two_cycles_and_every_path_kind(self):
        # S = {0, 1}, T = {2, 3}; edge 13 is not in the arborescence
        edges = ((12, 13), (8, 3), (15, 14), (5, 6), (4, 2), (13, 11), (9, 10),
                 (0, 4), (14, 15), (1, 5), (11, 12), (7, 8), (10, 16), (0, 2))
        net = Network(17, edges, frozenset({0, 1}), frozenset({2, 3}))
        cls = classify(LinearishArborescence(net, frozenset(range(13))))
        assert cls == ComponentClassification(
            cycles=((0, 5, 10), (2, 8)),
            st_paths=((7, 4),),
            s_only_paths=((9, 3),),
            t_only_paths=((11, 1),),
            free_paths=((6, 12),),
        )

    def test_degree_violation(self):
        with pytest.raises(InstanceError, match="out-degree"):
            LinearishArborescence(net_sxt(), frozenset({0, 2}))


class TestPhiPsi:
    def test_phi_empty_is_w(self):
        net = net_sxt()
        bn = bipartify(net)
        assert phi(bn, LinearishArborescence(net, frozenset())) == bn.w_edges
        assert len(bn.w_edges) == len(net.inner)

    def test_phi_st_path(self):
        net = net_sxt()  # inner = {x=1, y=2}
        bn = bipartify(net)
        image = phi(bn, LinearishArborescence(net, frozenset({0, 1})))
        assert len(image) == 3  # s'x'', x't'' plus the loop y'y''
        assert matching_check(bn.graph, image)

    def test_phi_inner_cycle(self):
        net = Network(5, ((1, 2), (2, 1)), frozenset({0}), frozenset({4}))
        bn = bipartify(net)
        image = phi(bn, LinearishArborescence(net, frozenset({0, 1})))
        assert len(image) == 3  # x'y'', y'x'', z'z''
        assert matching_check(bn.graph, image)

    def test_psi_w_is_empty(self):
        bn = bipartify(net_sxt())
        assert psi(bn, bn.w_edges) == frozenset()

    def test_psi_phi_identity(self):
        rng = random.Random(5)
        for _ in range(100):
            net = random_network(rng, rng.randint(0, 4))
            bn = bipartify(net)
            arb = random_linearish(rng, net)
            assert psi(bn, phi(bn, arb)) == arb.edges

    def test_phi_size_formula(self):
        rng = random.Random(6)
        for _ in range(100):
            net = random_network(rng, rng.randint(0, 4))
            bn = bipartify(net)
            arb = random_linearish(rng, net)
            uncovered = len(net.inner - arb.vertices)
            assert len(phi(bn, arb)) == len(arb.edges) + uncovered

    def test_single_direct_edge(self):
        net = Network(2, ((0, 1),), frozenset({0}), frozenset({1}))
        bn = bipartify(net)
        assert psi(bn, frozenset({0})) == frozenset({0})


class TestCountingClaim:
    def test_empty(self):
        assert check_counting_claim(net_sxt(),
                                    LinearishArborescence(net_sxt(), frozenset()))

    def test_st_path_with_spare_inner(self):
        net = net_sxt()
        assert check_counting_claim(net, LinearishArborescence(net, frozenset({0, 1})))

    def test_inner_cycle_counts_nowhere(self):
        net = Network(5, ((1, 2), (2, 1)), frozenset({0}), frozenset({4}))
        arb = LinearishArborescence(net, frozenset({0, 1}))
        assert check_counting_claim(net, arb)

    def test_random_instances(self):
        rng = random.Random(7)
        for _ in range(300):
            net = random_network(rng, rng.randint(0, 5),
                                 rng.randint(1, 2), rng.randint(1, 2),
                                 rng.randint(0, 10))
            arb = random_linearish(rng, net)
            assert check_counting_claim(net, arb)


class TestNuP:
    def test_empty(self):
        assert nu_p(net_sxt(), [])[0] == 0

    def test_two_disjoint_paths(self):
        value, paths = nu_p(net_sxt(), [0, 1, 3, 4])
        assert value == 1  # single source caps the packing at 1
        net = Network(6, ((0, 2), (2, 4), (1, 3), (3, 5)),
                      frozenset({0, 1}), frozenset({4, 5}))
        value, paths = nu_p(net, range(4))
        assert value == 2
        assert sorted(paths) == [(0, 1), (2, 3)]

    def test_witnesses_are_valid_disjoint_paths(self):
        rng = random.Random(8)
        for _ in range(120):
            net = random_network(rng, rng.randint(0, 4),
                                 rng.randint(1, 2), rng.randint(1, 2),
                                 rng.randint(0, 12))
            subset = [e for e in range(net.num_edges) if rng.random() < 0.8]
            value, paths = nu_p(net, subset)
            assert len(paths) == value
            seen: set[int] = set()
            for p in paths:
                assert p and net.edges[p[0]][0] in net.sources
                assert net.edges[p[-1]][1] in net.targets
                verts = {net.edges[p[0]][0]}
                for e in p:
                    assert e in subset
                    u, v = net.edges[e]
                    assert u in verts
                    verts.add(v)
                assert not (verts & seen)
                seen |= verts

    def test_matches_brute_force(self):
        rng = random.Random(9)
        for _ in range(120):
            net = random_network(rng, rng.randint(0, 3),
                                 rng.randint(1, 2), rng.randint(1, 2),
                                 rng.randint(0, 12))
            if net.num_edges > 12:
                continue
            subset = list(range(net.num_edges))
            assert nu_p(net, subset)[0] == brute_nu_p(net, subset)

    def test_matches_networkx_max_flow(self):
        # past brute_nu_p's reach: up to 40 edges, each vertex split into
        # an in-copy and an out-copy joined by a unit-capacity arc
        nx = pytest.importorskip("networkx")
        rng = random.Random(14)
        for _ in range(150):
            net = random_network(rng, rng.randint(0, 8), rng.randint(1, 3),
                                 rng.randint(1, 3), rng.randint(0, 40))
            subset = [e for e in range(net.num_edges) if rng.random() < 0.8]
            d = nx.DiGraph()
            d.add_nodes_from(["S", "T"])
            for v in range(net.n):
                d.add_edge(("in", v), ("out", v), capacity=1)
            for e in subset:
                u, v = net.edges[e]
                d.add_edge(("out", u), ("in", v), capacity=1)
            for s in net.sources:
                d.add_edge("S", ("in", s), capacity=1)
            for t in net.targets:
                d.add_edge(("out", t), "T", capacity=1)
            assert nu_p(net, subset)[0] == nx.maximum_flow_value(d, "S", "T")

    def test_results_pinned_at_parent(self):
        # sha256 of the repr of every result on a seeded batch, recorded while
        # the witness paths were still read through the counting-lemma layer:
        # 3,000 nu_p calls, then 300 rainbow_disjoint_paths calls, a quarter
        # of them with one family short an edge (for the calls that raise,
        # the exception type and message)
        rng = random.Random(61)
        results = []
        for _ in range(3000):
            net = random_network(rng, rng.randint(0, 8), rng.randint(1, 3),
                                 rng.randint(1, 3), rng.randint(0, 40))
            subset = [e for e in range(net.num_edges) if rng.random() < 0.8]
            results.append(nu_p(net, subset))
        for _ in range(300):
            p = rng.randint(1, 2)
            net, fams = build_disjoint_path_instance(rng, p, rng.randint(0, 3))
            if rng.random() < 0.25:
                i = rng.randrange(len(fams))
                fams[i] = fams[i] - {rng.choice(sorted(fams[i]))}
            try:
                results.append(rainbow_disjoint_paths(net, fams, p))
            except (HypothesisViolation, TheoremViolation) as err:
                results.append((type(err).__name__, str(err)))
        assert hashlib.sha256(repr(results).encode()).hexdigest() == PINNED_PATHS


def build_disjoint_path_instance(rng: random.Random, p: int, q: int):
    """A network plus 2p-1+q edge-set families, each packing p disjoint
    paths routed through disjoint random inner segments."""
    n = 2 * p + q
    sources = list(range(p))
    targets = list(range(p, 2 * p))
    inner = list(range(2 * p, n))
    edges: list[tuple[int, int]] = []
    families = []
    for _ in range(2 * p - 1 + q):
        ids = []
        use = [v for v in inner if rng.random() < 0.6]
        rng.shuffle(use)
        cut = sorted(rng.sample(range(len(use) + 1), p - 1)) if p > 1 else []
        segments = []
        prev = 0
        for c in cut + [len(use)]:
            segments.append(use[prev:c])
            prev = c
        for j in range(p):
            route = [sources[j]] + segments[j] + [targets[j]]
            for a, b in zip(route, route[1:]):
                ids.append(len(edges))
                edges.append((a, b))
        families.append(frozenset(ids))
    net = Network(n, tuple(edges), frozenset(sources), frozenset(targets))
    return net, families


class TestRainbowDisjointPaths:
    def test_p1_q1_example(self):
        net = Network(3, ((0, 1), (1, 2), (0, 2)), frozenset({0}), frozenset({2}))
        res = rainbow_disjoint_paths(net, [frozenset({0, 1}), frozenset({2})], 1)
        assert res.value >= 1

    def test_q0_is_drisko(self):
        rng = random.Random(10)
        for _ in range(10):
            net, fams = build_disjoint_path_instance(rng, 2, 0)
            res = rainbow_disjoint_paths(net, fams, 2)
            assert res.value >= 2

    def test_p1_is_networks_theorem(self):
        rng = random.Random(11)
        for _ in range(10):
            net, fams = build_disjoint_path_instance(rng, 1, 3)
            res = rainbow_disjoint_paths(net, fams, 1)
            assert res.value >= 1

    def test_rainbowness_and_membership(self):
        rng = random.Random(12)
        for _ in range(25):
            p, q = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
            net, fams = build_disjoint_path_instance(rng, p, q)
            res = rainbow_disjoint_paths(net, fams, p)
            colors = [c for c, _ in res.function.assignments]
            assert len(set(colors)) == len(colors)
            for c, e in res.function.assignments:
                assert e in fams[c]
            assert res.value >= p

    def test_deficient_family_named(self):
        net = Network(3, ((0, 1), (1, 2), (0, 2)), frozenset({0}), frozenset({2}))
        with pytest.raises(HypothesisViolation) as err:
            rainbow_disjoint_paths(net, [frozenset({0}), frozenset({2})], 1)
        assert err.value.witness == 0

    def test_family_count_checked(self):
        net = Network(3, ((0, 1), (1, 2), (0, 2)), frozenset({0}), frozenset({2}))
        with pytest.raises(HypothesisViolation):
            rainbow_disjoint_paths(net, [frozenset({2})], 1)


def random_weighted_instance(rng: random.Random, inner: int, wmax: int = 10):
    """n+1 random simple s-t paths through disjoint-ish inner subsets."""
    n = inner + 2
    s, t = 0, n - 1
    edges: list[tuple[int, int]] = []
    paths = []
    for _ in range(inner + 1 + rng.randint(0, 2)):
        mids = [v for v in range(1, n - 1) if rng.random() < 0.5]
        rng.shuffle(mids)
        route = [s] + mids + [t]
        ids = []
        for a, b in zip(route, route[1:]):
            ids.append(len(edges))
            edges.append((a, b))
        paths.append(tuple(ids))
    net = Network(n, tuple(edges), frozenset({s}), frozenset({t}))
    weights = WeightMap(tuple(rng.randint(0, wmax) for _ in edges))
    bound = max(weights.total(p) for p in paths)
    return net, weights, paths, bound


class TestWeightedRainbowPath:
    def test_single_edge(self):
        net = Network(2, ((0, 1),), frozenset({0}), frozenset({1}))
        res = rainbow_path_weighted(net, WeightMap((3,)), [(0,)], 3)
        assert res.edges == (0,) and res.weight == 3

    def test_two_path_example(self):
        net = Network(3, ((0, 1), (1, 2), (0, 2)), frozenset({0}), frozenset({2}))
        res = rainbow_path_weighted(net, WeightMap((1, 1, 3)), [(0, 1), (2,)], 3)
        assert res.weight <= 3
        assert len(set(res.colors)) == len(res.colors)
        assert brute_weighted_rainbow_path_feasible(
            net, WeightMap((1, 1, 3)), [(0, 1), (2,)], 3
        )

    def test_zero_weights_reduce_to_unweighted(self):
        rng = random.Random(14)
        for _ in range(30):
            net, _, paths, _ = random_weighted_instance(rng, rng.randint(0, 4))
            res = rainbow_path_weighted(
                net, WeightMap.zeros(net.num_edges), paths, 0
            )
            validate_st_path(net, res.edges, *net.single_terminals())

    def test_random_instances_with_invariants(self):
        rng = random.Random(15)
        for _ in range(60):
            net, weights, paths, bound = random_weighted_instance(
                rng, rng.randint(0, 5)
            )
            res = rainbow_path_weighted(net, weights, paths, bound)
            assert res.weight <= bound
            assert res.weight == weights.total(res.edges)
            validate_st_path(net, res.edges, *net.single_terminals())
            assert len(set(res.colors)) == len(res.colors)
            for e, c in zip(res.edges, res.colors):
                assert e in paths[c]

    def test_too_few_paths(self):
        net = Network(3, ((0, 1), (1, 2)), frozenset({0}), frozenset({2}))
        with pytest.raises(HypothesisViolation):
            rainbow_path_weighted(net, WeightMap((0, 0)), [(0, 1)], 0)

    def test_overweight_path_named(self):
        net = Network(2, ((0, 1), (0, 1)), frozenset({0}), frozenset({1}))
        with pytest.raises(HypothesisViolation) as err:
            rainbow_path_weighted(net, WeightMap((5, 0)), [(0,), (1,)], 3)
        assert err.value.witness == 0

    def test_bad_path_rejected(self):
        net = Network(3, ((0, 1), (1, 2)), frozenset({0}), frozenset({2}))
        with pytest.raises(InstanceError):
            rainbow_path_weighted(net, WeightMap((0, 0)), [(1,), (0, 1)], 0)


class TestTowers:
    def test_simple_graph_towers_are_trivial(self):
        net = Network(4, ((0, 1), (1, 2), (2, 3), (0, 3)),
                      frozenset({0}), frozenset({3}))
        towers = build_towers(net, 2)
        assert towers.source_order == (0,) and towers.target_order == (3,)

    def test_n1_source_tower_is_reachability(self):
        rng = random.Random(16)
        for _ in range(50):
            net = random_network(rng, rng.randint(0, 5), 1, 1, rng.randint(0, 10))
            towers = build_towers(net, 1)
            s, t = net.single_terminals()
            reach = {s}
            grown = True
            while grown:
                grown = False
                for u, v in net.edges:
                    # the target tower may claim vertices first; mirror that
                    if u in reach and v not in reach and v not in towers.target_vertices:
                        reach.add(v)
                        grown = True
            assert towers.source_vertices == frozenset(reach)

    def test_double_edge_tower(self):
        net = Network(3, ((0, 1), (0, 1), (1, 2)), frozenset({0}), frozenset({2}))
        towers = build_towers(net, 2)
        assert 1 in towers.source_vertices
        assert towers.source_sets[0] == {0, 1}

    def test_tower_sets_reference_earlier_vertices(self):
        rng = random.Random(17)
        for _ in range(50):
            net = random_network(rng, rng.randint(0, 4), 1, 1, rng.randint(0, 14))
            n = rng.randint(1, 3)
            towers = build_towers(net, n)
            for i, es in enumerate(towers.source_sets):
                v = towers.source_order[i + 1]
                earlier = set(towers.source_order[: i + 1])
                assert len(es) >= n
                for e in es:
                    a, b = net.edges[e]
                    assert b == v and a in earlier


def scrambled_instance(rng: random.Random, inner: int, n: int):
    """Edge-disjoint random s-t paths (> n*inner/2 of them) and a random
    n-scrambling of their edges."""
    count = (n * inner) // 2 + 1 + rng.randint(0, 2)
    nverts = inner + 2
    s, t = 0, nverts - 1
    edges: list[tuple[int, int]] = []
    paths = []
    for _ in range(count):
        mids = [v for v in range(1, nverts - 1) if rng.random() < 0.5]
        rng.shuffle(mids)
        route = [s] + mids + [t]
        ids = []
        for a, b in zip(route, route[1:]):
            ids.append(len(edges))
            edges.append((a, b))
        paths.append(tuple(ids))
    net = Network(nverts, tuple(edges), frozenset({s}), frozenset({t}))
    pool = [e for p in paths for e in p]
    rng.shuffle(pool)
    classes = []
    i = 0
    while i < len(pool):
        size = rng.randint(1, n)
        classes.append(sorted(pool[i:i + size]))
        i += size
    return net, paths, classes


class TestScrambledPath:
    def test_no_inner_vertices(self):
        net = Network(2, ((0, 1),), frozenset({0}), frozenset({1}))
        res = scrambled_rainbow_path(net, [(0,)], [[0]], 2)
        assert res.path.edges == (0,)

    def test_k1_adversarial(self):
        net = Network(3, ((0, 1), (1, 2), (0, 1), (1, 2)),
                      frozenset({0}), frozenset({2}))
        res = scrambled_rainbow_path(net, [(0, 1), (2, 3)], [[0, 3], [1, 2]], 2)
        edges = res.path.edges
        validate_st_path(net, edges, 0, 2)
        assert len(set(res.path.colors)) == len(edges)

    def test_random_instances(self):
        rng = random.Random(18)
        for _ in range(60):
            net, paths, classes = scrambled_instance(
                rng, rng.randint(1, 4), rng.randint(1, 3)
            )
            n = max(len(c) for c in classes)
            res = scrambled_rainbow_path(net, paths, classes, n)
            validate_st_path(net, res.path.edges, *net.single_terminals())
            assert len(set(res.path.colors)) == len(res.path.edges)
            for e, c in zip(res.path.edges, res.path.colors):
                assert e in classes[c]
            # enforcer side conditions, exactly
            assert enforcer_union_bounds(res.enforcer, n)
            product = 1
            for k in res.enforcer.sets:
                product *= len(k)
            if product <= 10**5:
                assert enforcer_always_has_path(net, res.enforcer)

    def test_too_few_paths(self):
        net = Network(3, ((0, 1), (1, 2)), frozenset({0}), frozenset({2}))
        with pytest.raises(HypothesisViolation):
            scrambled_rainbow_path(net, [(0, 1)], [[0], [1]], 2)

    def test_fourteen_inner_vertices(self):
        """A seeded instance whose enforcer has 15 sets."""
        inst = json.loads((DATA / "scrambled_path_14.json").read_text())
        spec = inst["network"]
        net = Network(spec["n"], tuple(map(tuple, spec["edges"])),
                      frozenset(spec["sources"]), frozenset(spec["targets"]))
        classes = inst["scrambling"]
        res = scrambled_rainbow_path(net, inst["paths"], classes, 2)
        validate_st_path(net, res.path.edges, 0, 15)
        assert len(set(res.path.colors)) == len(res.path.edges)
        for e, c in zip(res.path.edges, res.path.colors):
            assert e in classes[c]
        assert len(res.enforcer.sets) == 15
        mult = Counter(e for p in inst["paths"] for e in p)
        assert enforcer_union_bounds(res.enforcer, 2, weight=mult)

    def test_scrambling_validated(self):
        net = Network(3, ((0, 1), (1, 2), (0, 2)), frozenset({0}), frozenset({2}))
        with pytest.raises(InstanceError):
            scrambled_rainbow_path(net, [(0, 1), (2,)], [[0, 1]], 2)


class TestEnforcerChecks:
    def test_union_bounds(self):
        enforcer = PathEnforcer((frozenset({0, 1}), frozenset({2, 3})))
        assert enforcer_union_bounds(enforcer, 2)
        bad = PathEnforcer((frozenset({0}), frozenset({1})))
        assert not enforcer_union_bounds(bad, 2)

    def test_union_bounds_match_the_subset_check(self):
        rng = random.Random(19)
        held = 0
        for i in range(1500):
            k, n = rng.randint(0, 9), rng.randint(1, 4)
            edges = rng.randint(1, 3 * k + 2)
            sets = [frozenset(rng.sample(range(edges), rng.randint(0, min(edges, 2 * n + 1))))
                    for _ in range(k)]
            weight = None if i % 2 else {
                e: rng.choice((0, 1, 2, 3, 50)) for e in range(edges) if rng.random() < 0.9}
            got = enforcer_union_bounds(PathEnforcer(tuple(sets)), n, weight)
            assert got == brute_union_bounds(sets, n, weight)
            held += got
        assert 200 < held < 1300

    def test_more_sets_than_a_subset_loop_reaches(self):
        # 16 disjoint pairs: any j of them cover 2j >= 2(j-1)+1 edges
        pairs = tuple(frozenset({2 * i, 2 * i + 1}) for i in range(16))
        assert enforcer_union_bounds(PathEnforcer(pairs), 2)
        assert not enforcer_union_bounds(PathEnforcer(pairs + (frozenset({0}),)), 2)

    def test_no_sets_hold_every_bound(self):
        assert enforcer_union_bounds(PathEnforcer(()), 1)
        assert enforcer_union_bounds(PathEnforcer(()), 3, weight={})

    def test_union_bounds_reject_bad_input(self):
        enforcer = PathEnforcer((frozenset({0, 1}),))
        with pytest.raises(InstanceError, match="n >= 1, got 0"):
            enforcer_union_bounds(enforcer, 0)
        with pytest.raises(InstanceError, match="edge 1: negative weight -1"):
            enforcer_union_bounds(enforcer, 1, weight={0: 2, 1: -1})

    def test_always_has_path(self):
        net = Network(3, ((0, 1), (1, 2), (0, 1)), frozenset({0}), frozenset({2}))
        good = PathEnforcer((frozenset({0, 2}), frozenset({1})))
        assert enforcer_always_has_path(net, good)
        # a choice can dodge the target here
        net2 = Network(4, ((0, 1), (1, 3), (0, 2)), frozenset({0}), frozenset({3}))
        bad = PathEnforcer((frozenset({0, 2}), frozenset({1})))
        assert not enforcer_always_has_path(net2, bad)
