import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowsets.core import (
    ChoiceFunction,
    ColoredFamily,
    Graph,
    GroundSet,
    InstanceError,
    LatinSquare,
    Matching,
    Network,
    Transversal,
    WeightMap,
    family_union,
    find_bipartition,
    is_rainbow,
    matching_check,
    max_matching,
    transversal_check,
    _kuhn_max_matching,
    _max_matching_general,
)
from rainbowsets.harness import rainbow_short_cycle
from rainbowsets.matching import (
    EdgeFamily,
    cooperative_drisko_check,
    repeats_matching,
    scrambled_matching_check,
)
from rainbowsets.networks import rainbow_disjoint_paths
from rainbowsets.spancycles import cooperative_odd_cycle_check, rainbow_odd_cycle

from oracles import brute_max_matching, kuhn_reference, random_bipartite


def fam(ground: int, *sets) -> ColoredFamily:
    return ColoredFamily(GroundSet(ground), tuple(frozenset(s) for s in sets))


class TestFamilyUnion:
    def test_direct_union(self):
        f = fam(2, {0}, {0, 1})
        assert family_union(f, {0, 1}) == {0, 1}

    def test_empty_union(self):
        assert family_union(fam(1, {0}), set()) == frozenset()

    def test_three_sets(self):
        f = fam(3, {0, 1}, {1, 2}, {0, 2})
        assert family_union(f, {1, 2}) == {0, 1, 2}

    def test_index_out_of_range(self):
        with pytest.raises(InstanceError):
            family_union(fam(1, {0}), {3})

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, data):
        ground = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, 4))
        sets = [
            data.draw(st.frozensets(st.integers(0, ground - 1), max_size=ground))
            for _ in range(k)
        ]
        f = fam(ground, *sets)
        small = data.draw(st.frozensets(st.integers(0, k - 1), max_size=k))
        big = small | data.draw(st.frozensets(st.integers(0, k - 1), max_size=k))
        assert family_union(f, small) <= family_union(f, big)


class TestIsRainbow:
    def test_singleton(self):
        assert is_rainbow(fam(1, {0}), ChoiceFunction(((0, 0),)))

    def test_injectivity_violated(self):
        assert not is_rainbow(fam(1, {0}, {0}),
                              ChoiceFunction(((0, 0), (1, 0))))

    def test_disjoint_assignment(self):
        f = fam(2, {0, 1}, {0})
        assert is_rainbow(f, ChoiceFunction(((0, 1), (1, 0))))

    def test_malformed_color_is_false(self):
        assert not is_rainbow(fam(1, {0}), ChoiceFunction(((5, 0),)))

    def test_membership_violation(self):
        assert not is_rainbow(fam(2, {0}), ChoiceFunction(((0, 1),)))

    def test_image_size_equals_domain_size(self):
        f = fam(3, {0, 1}, {1, 2}, {2})
        cf = ChoiceFunction(((0, 0), (1, 1), (2, 2)))
        assert is_rainbow(f, cf)
        assert len(cf.image) == len(cf.domain)


class TestMatching:
    def test_shared_vertex(self):
        g = Graph(3, ((0, 1), (1, 2)))
        assert not matching_check(g, {0, 1})

    def test_empty(self):
        assert matching_check(Graph(3, ((0, 1),)), set())

    def test_c4_opposite_edges(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
        assert matching_check(g, {0, 2})

    def test_unknown_edge_id(self):
        with pytest.raises(InstanceError):
            matching_check(Graph(2, ((0, 1),)), {7})

    def test_matching_of_validates(self):
        g = Graph(3, ((0, 1), (1, 2)))
        with pytest.raises(InstanceError):
            Matching.of(g, {0, 1})

    def test_matching_of_keeps_a_matching(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3)))
        assert Matching.of(g, [0, 2]) == Matching(frozenset({0, 2}))


# C4, bipartite, with edge ids 0..3; a network with edge ids 0..1
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
SXT = Network(3, ((0, 1), (1, 2)), frozenset({0}), frozenset({2}))


@pytest.mark.parametrize("call, field", [
    pytest.param(lambda classes: EdgeFamily(C4, classes), "colors", id="edge-family"),
    pytest.param(lambda classes: cooperative_drisko_check(C4, classes, 2), "families",
                 id="cooperative-drisko"),
    pytest.param(lambda classes: repeats_matching(C4, classes, 2, 2), "matchings",
                 id="repeats"),
    pytest.param(lambda classes: scrambled_matching_check(C4, classes, [], 2), "original",
                 id="scrambled-matching"),
    pytest.param(lambda classes: rainbow_odd_cycle(C4, classes), "families",
                 id="odd-cycle"),
    pytest.param(lambda classes: cooperative_odd_cycle_check(C4, classes), "families",
                 id="cooperative-odd-cycle"),
    pytest.param(lambda classes: rainbow_short_cycle(C4, classes, 3), "families",
                 id="short-cycle"),
    pytest.param(lambda classes: rainbow_disjoint_paths(SXT, classes, 1), "colors",
                 id="disjoint-paths"),
])
def test_unknown_edge_id_names_the_first_bad_class_and_its_smallest_bad_id(call, field):
    """Class 1 is the first with unknown ids, 5 and -1; class 2's -7 is
    smaller but comes later."""
    with pytest.raises(InstanceError, match=rf"^{field}\[1\]: unknown edge id -1$"):
        call([[0], [5, 0, -1], [-7]])


class TestMaxMatching:
    def test_c4(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
        assert len(max_matching(g)) == 2

    def test_c5(self):
        g = Graph(5, tuple((i, (i + 1) % 5) for i in range(5)))
        assert len(max_matching(g)) == 2

    def test_k4(self):
        g = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
        assert len(max_matching(g)) == 2  # == brute_max_matching(g)

    def test_result_is_matching(self):
        g = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)))
        m = max_matching(g)
        assert matching_check(g, m.edges)

    def test_brute_force_agreement_small_graphs(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(2, 8)
            edges = []
            for _ in range(rng.randint(0, 10)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.append((u, v))
            g = Graph(n, tuple(edges))
            assert len(max_matching(g)) == brute_max_matching(g)

    def test_networkx_agreement(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(11)
        for _ in range(40):
            nl, nr = rng.randint(1, 30), rng.randint(1, 30)
            p = rng.random() * 0.3
            edges = [(u, nl + v) for u in range(nl) for v in range(nr)
                     if rng.random() < p]
            ref = nx.Graph()
            ref.add_nodes_from(range(nl + nr))
            ref.add_edges_from(edges)
            expect = len(nx.bipartite.hopcroft_karp_matching(ref, range(nl))) // 2
            assert len(max_matching(Graph(nl + nr, tuple(edges)))) == expect


def random_general_graph(rng: random.Random) -> Graph:
    """A small graph with a planted odd cycle, parallel edges and isolated
    vertices, each with some probability."""
    n = rng.randint(1, 9)
    edges = []
    if n >= 3 and rng.random() < 0.5:
        length = rng.choice([k for k in (3, 5, 7, 9) if k <= n])
        cycle = rng.sample(range(n), length)
        edges += [(cycle[i], cycle[(i + 1) % length]) for i in range(length)]
    for _ in range(rng.randint(0, 8)):
        if n >= 2:
            edges.append(tuple(rng.sample(range(n), 2)))
    for _ in range(rng.randint(0, 2)):
        if edges:
            edges.append(rng.choice(edges)[::rng.choice((1, -1))])
    rng.shuffle(edges)
    return Graph(n + rng.randint(0, 2), tuple(edges))


class TestBlossomKernel:
    def test_brute_force_agreement_general_graphs(self):
        rng = random.Random(5)
        for _ in range(400):
            g = random_general_graph(rng)
            m = max_matching(g)
            assert matching_check(g, m.edges)
            assert len(m) == brute_max_matching(g), g

    def test_kernel_on_a_subset_of_edge_ids(self):
        """The kernel takes any edge ids with their masks; of parallel edges
        it keeps the lowest id."""
        rng = random.Random(6)
        for _ in range(300):
            g = random_general_graph(rng)
            ids = sorted(rng.sample(range(g.num_edges), rng.randint(0, g.num_edges)))
            got = _max_matching_general(ids, [g.edge_mask(e) for e in ids])
            assert got <= set(ids) and matching_check(g, got)
            sub = Graph(g.n, tuple(g.edges[e] for e in ids))
            assert len(got) == brute_max_matching(sub)
            for e in got:
                assert e == min(f for f in ids if g.edge_mask(f) == g.edge_mask(e))

    def test_deterministic_choice(self):
        # a triangle 0-1-2 with a pendant 2-3: root 0 takes its lowest edge
        # id (1, to vertex 1), then root 2 takes edge 0 to vertex 3
        g = Graph(4, ((2, 3), (0, 1), (1, 2), (0, 2)))
        assert max_matching(g).edges == {0, 1}

    def test_networkx_agreement(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 60)
            p = rng.random() * 0.15
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p]
            g = Graph(n, tuple(edges))
            ref = nx.Graph()
            ref.add_nodes_from(range(n))
            ref.add_edges_from(edges)
            m = max_matching(g)
            assert matching_check(g, m.edges)
            assert len(m) == len(nx.max_weight_matching(ref, maxcardinality=True))

    def test_large_odd_cycle(self):
        """C_51 is past the old 24-vertex cap of the general case."""
        g = Graph(51, tuple((i, (i + 1) % 51) for i in range(51)))
        m = max_matching(g)
        assert len(m) == 25 and matching_check(g, m.edges)


class TestKuhnKernel:
    def test_matches_recursive_reference(self):
        rng = random.Random(3)
        for _ in range(600):
            lefts, adj = random_bipartite(rng, 12)
            got = _kuhn_max_matching(lefts, adj.__getitem__)
            assert list(got.items()) == list(kuhn_reference(lefts, adj.__getitem__).items())

    def test_successful_search_closes_a_component(self):
        """Left 2's search succeeds at right 12 after closing the cycle
        10 -> 0 -> 11 -> 1 -> 10, and left 3's search skips right 10."""
        adj = {0: [10, 11], 1: [11, 10], 2: [10, 12], 3: [10, 13], 4: [14], 5: [14]}
        calls = []

        def neighbors(u):
            calls.append(u)
            return adj[u]

        got = _kuhn_max_matching(range(6), neighbors)
        assert list(got.items()) == list(kuhn_reference(range(6), adj.__getitem__).items())
        assert got == {10: 0, 11: 1, 12: 2, 13: 3, 14: 4}
        assert calls[:9] == [0, 1, 2, 0, 1, 3, 4, 5, 4]  # left 3 calls neither 0 nor 1

    def test_augmenting_path_longer_than_recursion_limit(self):
        """Left i holds rights i and i + 1 and takes i; the last left, 0,
        holds only right 1, so its one augmenting path shifts every left
        to its second right."""
        n = sys.getrecursionlimit() + 100
        adj = {0: [1], **{i: [i, i + 1] for i in range(1, n + 1)}}
        got = _kuhn_max_matching([*range(1, n + 1), 0], adj.__getitem__)
        assert got == {1: 0, **{i + 1: i for i in range(1, n + 1)}}

    def test_dead_vertices_are_not_searched_again(self):
        """300 lefts on the same 30 rights: the searches that match walk
        the matched rights once each, and every search after the first
        failure stops at the dead rights."""
        calls = []

        def neighbors(u):
            calls.append(u)
            return range(300, 330)

        assert len(_kuhn_max_matching(range(300), neighbors)) == 30
        assert len(calls) <= 30 * 31 // 2 + 2 * 300


class TestGraphValidation:
    def test_endpoint_out_of_range(self):
        with pytest.raises(InstanceError):
            Graph(2, ((0, 2),))

    def test_loop_rejected(self):
        with pytest.raises(InstanceError):
            Graph(2, ((1, 1),))

    def test_negative_n_rejected(self):
        with pytest.raises(InstanceError, match=r"graph\.n: must be >= 0"):
            Graph(-1, ())

    def test_empty_graph(self):
        assert Graph(0, ()).num_edges == 0

    def test_bipartition_must_cross(self):
        with pytest.raises(InstanceError):
            Graph(2, ((0, 1),), (frozenset({0, 1}), frozenset()))

    def test_find_bipartition(self):
        assert find_bipartition(Graph(3, ((0, 1), (1, 2), (2, 0)))) is None
        sides = find_bipartition(Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0))))
        assert sides is not None and {0, 2} in (set(sides[0]), set(sides[1]))


class TestNetworkValidation:
    def test_edge_into_source(self):
        with pytest.raises(InstanceError, match="enters a source"):
            Network(2, ((1, 0),), frozenset({0}), frozenset({1}))

    def test_edge_out_of_target(self):
        with pytest.raises(InstanceError, match="leaves a target"):
            Network(3, ((1, 0),), frozenset({2}), frozenset({1}))

    def test_negative_n_rejected(self):
        with pytest.raises(InstanceError, match=r"network\.n: must be >= 0"):
            Network(-1, (), frozenset(), frozenset())

    @pytest.mark.parametrize("edges, message", [
        (((0, 3),), r"network\.edges\[0\]: endpoint out of range"),
        (((0, 1), (1, 1)), r"network\.edges\[1\]: loop at vertex 1"),
    ])
    def test_edge_faults_named_like_graph_ones(self, edges, message):
        """Graph and Network share one edge-list check; only the prefix
        differs."""
        with pytest.raises(InstanceError, match=message):
            Network(3, edges, frozenset({0}), frozenset({2}))
        with pytest.raises(InstanceError, match=message.replace("network", "graph")):
            Graph(3, edges)

    def test_edge_fault_reported_before_terminal_fault(self):
        with pytest.raises(InstanceError, match="loop at vertex 1"):
            Network(2, ((1, 1),), frozenset({5}), frozenset({1}))

    def test_terminals_disjoint(self):
        with pytest.raises(InstanceError):
            Network(2, (), frozenset({0}), frozenset({0}))

    def test_inner_vertices(self):
        net = Network(4, ((0, 1), (1, 3)), frozenset({0}), frozenset({3}))
        assert net.inner == {1, 2}


class TestWeightMap:
    def test_negative_rejected(self):
        with pytest.raises(InstanceError):
            WeightMap((1, -2))

    def test_total(self):
        w = WeightMap((3, 0, 4))
        assert w.total([0, 2]) == 7


class TestLatin:
    def test_row_repeat_names_cell(self):
        with pytest.raises(InstanceError, match=r"latin\[0\]\[1\]"):
            LatinSquare(2, ((1, 1), (2, 2)))

    def test_column_repeat_names_cell(self):
        with pytest.raises(InstanceError, match=r"latin\[1\]\[0\]"):
            LatinSquare(2, ((1, 2), (1, 2)))

    def test_valid_square(self):
        sq = LatinSquare(2, ((1, 2), (2, 1)))
        assert sq.entry(1, 0) == 2

    def test_transversal_check(self):
        sq = LatinSquare(3, ((1, 2, 3), (2, 3, 1), (3, 1, 2)))
        assert transversal_check(sq, {(0, 0), (1, 1), (2, 2)})
        assert not transversal_check(sq, {(0, 0), (1, 2)})  # symbol repeat

    def test_transversal_of(self):
        sq = LatinSquare(2, ((1, 2), (2, 1)))
        with pytest.raises(InstanceError):
            Transversal.of(sq, {(0, 0), (1, 1)})

    def test_transversal_of_keeps_a_transversal(self):
        sq = LatinSquare(3, ((1, 2, 3), (2, 3, 1), (3, 1, 2)))
        assert Transversal.of(sq, [(0, 0), (1, 1), (2, 2)]).cells == {(0, 0), (1, 1), (2, 2)}


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: LatinSquare(2, ((1, 2),)), r"^latin: expected 2 rows, got 1$",
                 id="latin-rows"),
    pytest.param(lambda: ChoiceFunction(((0, 1), (0, 2))),
                 r"^choice function assigns a color twice$", id="choice-color-twice"),
    pytest.param(lambda: transversal_check(LatinSquare(2, ((1, 2), (2, 1))), {(0, 2)}),
                 r"^cell \(0,2\) out of range$", id="transversal-cell-out-of-range"),
])
def test_input_errors(call, message):
    with pytest.raises(InstanceError, match=message):
        call()
