import copy
import hashlib
import itertools
import random

import pytest

from rainbowsets.core import (
    ChoiceFunction,
    Graph,
    HypothesisViolation,
    InstanceError,
    Matching,
    TheoremViolation,
    find_bipartition,
    is_rainbow,
    matching_check,
)
from rainbowsets.core import ColoredFamily, GroundSet
from rainbowsets import matching
from rainbowsets.matching import (
    ArrowStatement,
    EdgeFamily,
    SizeSequence,
    check_arrow_instance,
    check_sequence_instance,
    cooperative_drisko_check,
    drisko_statement,
    max_rainbow_matching,
    random_matching_family,
    repeats_matching,
    scrambled_matching_check,
    stairs_sequence,
    validate_scrambling,
)

from oracles import (
    brute_max_matching,
    brute_max_rainbow,
    brute_repeats,
    first_seen_bipartite_families,
    first_seen_cycle_families,
    naive_bipartite_canonical,
)


def family_from_pairs(n, *color_pairs) -> EdgeFamily:
    edges = []
    colors = []
    for pairs in color_pairs:
        ids = []
        for uv in pairs:
            ids.append(len(edges))
            edges.append(tuple(uv))
        colors.append(frozenset(ids))
    return EdgeFamily(Graph(n, tuple(edges)), tuple(colors))


def random_matchings(rng, v, sizes):
    """Random matchings of the given sizes on v vertices, in a graph that
    need not be bipartite; a pair already drawn is reused as the same edge
    half the time and otherwise becomes a parallel edge."""
    edges: list[tuple[int, int]] = []
    ms = []
    for size in sizes:
        ends = rng.sample(range(v), 2 * size)
        m = []
        for pair in zip(ends[::2], ends[1::2]):
            if pair in edges and rng.random() < 0.5:
                m.append(edges.index(pair))
            else:
                edges.append(pair)
                m.append(len(edges) - 1)
        ms.append(frozenset(m))
    return Graph(v, tuple(edges)), ms


def eight_vertex_example() -> EdgeFamily:
    # three matchings of size 4 on two K4 blocks with no rainbow 3-matching
    return family_from_pairs(
        8,
        [(0, 1), (2, 3), (4, 5), (6, 7)],
        [(0, 2), (1, 3), (4, 6), (5, 7)],
        [(0, 3), (1, 2), (4, 7), (5, 6)],
    )


def two_c4_witness() -> EdgeFamily:
    # sizes (2,4,4) inside two disjoint 4-cycles, no rainbow 3-matching
    g = Graph(8, ((0, 1), (1, 2), (2, 3), (3, 0),
                  (4, 5), (5, 6), (6, 7), (7, 4)))
    return EdgeFamily(g, (frozenset({0, 2}), frozenset({1, 3, 4, 6}),
                          frozenset({1, 3, 5, 7})))


class TestEdgeFamilyValidation:
    @pytest.mark.parametrize("colors, message", [
        (({0}, {1, 7}, {-1}), r"^colors\[1\]: unknown edge id 7$"),
        (({0}, {-1}, {9}), r"^colors\[1\]: unknown edge id -1$"),
        (({2}, set(), {3}), r"^colors\[2\]: unknown edge id 3$"),
    ])
    def test_first_bad_class_named(self, colors, message):
        g = Graph(3, ((0, 1), (1, 2), (0, 2)))
        with pytest.raises(InstanceError, match=message):
            EdgeFamily(g, colors)

    def test_colors_become_int_sets(self):
        fam = EdgeFamily(Graph(3, ((0, 1), (1, 2))), ([0, True], (1.0,), ()))
        assert fam.colors == (frozenset({0, 1}), frozenset({1}), frozenset())
        assert all(type(e) is int for c in fam.colors for e in c)


class TestMaxRainbowMatching:
    def test_eight_vertex_example_is_two(self):
        matching, function = max_rainbow_matching(eight_vertex_example())
        assert len(matching) == 2

    def test_single_color_single_edge(self):
        fam = family_from_pairs(2, [(0, 1)])
        matching, function = max_rainbow_matching(fam)
        assert len(matching) == 1 and function.as_dict() == {0: 0}

    def test_two_c4_witness_is_two(self):
        matching, _ = max_rainbow_matching(two_c4_witness())
        assert len(matching) == 2
        assert brute_max_rainbow(two_c4_witness()) == 2

    def test_output_is_rainbow_matching(self):
        rng = random.Random(2)
        for _ in range(150):
            fam = random_matching_family(
                rng, [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
            )
            matching, function = max_rainbow_matching(fam)
            assert matching_check(fam.graph, matching.edges)
            ground = ColoredFamily(
                GroundSet(fam.graph.num_edges), tuple(fam.colors)
            )
            assert is_rainbow(ground, function)
            assert frozenset(e for _, e in function.assignments) == matching.edges

    def test_brute_force_agreement_small_bipartite(self):
        rng = random.Random(9)
        for _ in range(120):
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
            if sum(sizes) > 10:
                continue
            fam = random_matching_family(rng, sizes)
            got, _ = max_rainbow_matching(fam)
            assert len(got) == brute_max_rainbow(fam)

    def test_target_early_stop(self):
        fam = eight_vertex_example()
        matching, _ = max_rainbow_matching(fam, target=1)
        assert len(matching) >= 1

    def test_general_graph_agreement(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(3, 6)
            edges, colors = [], []
            for _c in range(rng.randint(1, 3)):
                ids = []
                for _e in range(rng.randint(1, 3)):
                    u, v = rng.sample(range(n), 2)
                    ids.append(len(edges))
                    edges.append((u, v))
                colors.append(frozenset(ids))
            g = Graph(n, tuple(edges))
            cleaned = []
            for c in colors:  # keep only colors that are matchings? not needed
                cleaned.append(c)
            fam = EdgeFamily(g, tuple(cleaned))
            got, _ = max_rainbow_matching(fam)
            assert len(got) == brute_max_rainbow(fam)


def drisko_sharpness(n: int) -> EdgeFamily:
    """n-1 copies of each perfect matching of C_2n, every copy with fresh
    edge ids; its largest rainbow matching has n-1 edges."""
    halves = [[(i, (i + 1) % (2 * n)) for i in range(offset, 2 * n, 2)]
              for offset in (0, 1)]
    return family_from_pairs(2 * n, *[h for h in halves for _ in range(n - 1)])


def k5_family(k: int) -> EdgeFamily:
    """2k+1 copies of the edge set of k disjoint K5s; the optimum is 2k."""
    blocks = [(5 * b + i, 5 * b + j) for b in range(k)
              for i in range(5) for j in range(i + 1, 5)]
    return family_from_pairs(5 * k, *[blocks] * (2 * k + 1))


def hub_family(k: int) -> EdgeFamily:
    """8k+1 copies of the edge set of k blocks of 10 vertices, each a hub
    joined to one vertex of each of three disjoint triangles; the optimum
    is 4k. The component count is 5 per block, so every bound that prunes
    needs the exact matching number of a non-bipartite host."""
    edges = []
    for b in range(k):
        for t in range(3):
            a, c, d = 10 * b + 1 + 3 * t, 10 * b + 2 + 3 * t, 10 * b + 3 + 3 * t
            edges += [(a, c), (c, d), (a, d), (10 * b, a)]
    return family_from_pairs(10 * k, *[edges] * (8 * k + 1))


def repeated_class_family(rng: random.Random) -> EdgeFamily:
    """Colors drawn with repetition from a few base edge sets, each copy
    with fresh edge ids; bipartite matchings or arbitrary general edges."""
    n = rng.randint(2, 8)
    bases = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            rights = list(range(n // 2, n))
            rng.shuffle(rights)
            bases.append(list(zip(range(n // 2), rights))[:rng.randint(1, max(1, n // 2))])
        else:
            bases.append([rng.sample(range(n), 2) for _ in range(rng.randint(1, 4))])
    return family_from_pairs(n, *[rng.choice(bases) for _ in range(rng.randint(1, 5))])


# (first color, edge id) choices of the witness each family gives, which
# the orbit pruning and the blossom bound leave as they were
DRISKO_WITNESSES = {
    7: ((0, 0), (1, 10), (2, 18), (3, 26), (4, 34), (6, 43)),
    8: ((0, 0), (1, 11), (2, 20), (3, 29), (4, 38), (5, 47), (7, 57)),
    9: ((0, 0), (1, 12), (2, 22), (3, 32), (4, 42), (5, 52), (6, 62), (8, 73)),
    10: ((0, 0), (1, 13), (2, 24), (3, 35), (4, 46), (5, 57), (6, 68), (7, 79),
         (9, 91)),
    11: ((0, 0), (1, 14), (2, 26), (3, 38), (4, 50), (5, 62), (6, 74), (7, 86),
         (8, 98), (10, 111)),
    12: ((0, 0), (1, 15), (2, 28), (3, 41), (4, 54), (5, 67), (6, 80), (7, 93),
         (8, 106), (9, 119), (11, 133)),
    13: ((0, 0), (1, 16), (2, 30), (3, 44), (4, 58), (5, 72), (6, 86), (7, 100),
         (8, 114), (9, 128), (10, 142), (12, 157)),
}
K5_WITNESSES = {
    3: ((0, 0), (1, 37), (2, 70), (3, 107), (4, 140), (5, 177)),
    4: ((0, 0), (1, 47), (2, 90), (3, 137), (4, 180), (5, 227), (6, 270), (7, 317)),
}
HUB_WITNESSES = {
    2: ((0, 0), (1, 28), (2, 57), (3, 83), (4, 108), (5, 136), (6, 165), (7, 191)),
    3: ((0, 0), (1, 40), (2, 81), (3, 119), (4, 156), (5, 196), (6, 237), (7, 275),
        (8, 312), (9, 352), (10, 393), (11, 431)),
}


class TestOrbitPruning:
    def test_repeated_classes_brute_force_agreement(self):
        rng = random.Random(21)
        for _ in range(320):
            fam = repeated_class_family(rng)
            best = brute_max_rainbow(fam)
            target = rng.randint(1, 4)
            for want, (got, function) in ((best, max_rainbow_matching(fam)),
                                          (min(best, target),
                                           max_rainbow_matching(fam, target=target))):
                assert len(got) == want
                assert matching_check(fam.graph, got.edges)
                assert all(e in fam.colors[c] for c, e in function.assignments)
                assert frozenset(e for _, e in function.assignments) == got.edges

    @pytest.mark.parametrize("n", sorted(DRISKO_WITNESSES))
    def test_drisko_sharpness_witness(self, n):
        got, function = max_rainbow_matching(drisko_sharpness(n), target=n)
        assert function.assignments == DRISKO_WITNESSES[n]
        assert got.edges == {e for _, e in DRISKO_WITNESSES[n]}

    @pytest.mark.parametrize("k", sorted(K5_WITNESSES))
    def test_k5_witness(self, k):
        _, function = max_rainbow_matching(k5_family(k), target=2 * k + 1)
        assert function.assignments == K5_WITNESSES[k]

    def test_bound_calls_on_drisko_12(self, monkeypatch):
        """Without the orbit pruning this search makes 8,944 bound calls."""
        calls = []
        bound = matching._RainbowSearch._matching_bound

        def counted(self, edge_ids):
            calls.append(1)
            return bound(self, edge_ids)

        monkeypatch.setattr(matching._RainbowSearch, "_matching_bound", counted)
        got, _ = max_rainbow_matching(drisko_sharpness(12), target=12)
        assert len(got) == 11
        assert len(calls) <= 8944 * 5 // 100

    def test_k5_family_6(self):
        """The bound on k disjoint K5s is settled by the component count of
        the live vertex pairs (at most two pairs per K5), not by a general
        matching."""
        got, _ = max_rainbow_matching(k5_family(6), target=13)
        assert len(got) == 12


@pytest.fixture
def bound_calls(monkeypatch) -> list:
    """A list that gets one entry per _RainbowSearch._matching_bound call."""
    calls = []
    bound = matching._RainbowSearch._matching_bound

    def counted(self, union):
        calls.append(1)
        return bound(self, union)

    monkeypatch.setattr(matching._RainbowSearch, "_matching_bound", counted)
    return calls


def seeded_batch() -> list[tuple[EdgeFamily, int]]:
    """(family, n) pairs, n the largest class size: 300 random bipartite
    matching families, then 300 general graphs whose classes draw edges
    from a few vertex pairs, so parallel edges fall in one class or across
    classes."""
    rng = random.Random(20)
    batch = []
    for _ in range(300):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 5))]
        batch.append((random_matching_family(rng, sizes), max(sizes)))
    for _ in range(300):
        n = rng.randint(3, 5)
        pool = [rng.sample(range(n), 2) for _ in range(rng.randint(2, 6))]
        colors = [[rng.choice(pool) for _ in range(rng.randint(1, 3))]
                  for _ in range(rng.randint(1, 4))]
        batch.append((family_from_pairs(n, *colors), max(map(len, colors))))
    return batch


class TestSearchTreePins:
    """The search gives the same witnesses as the list-based search it
    replaced. It makes the exact bound call only at nodes past its first
    dead end that neither the number of live classes nor, on a
    non-bipartite graph, the component count prunes."""

    # bound calls of max_rainbow_matching(drisko_sharpness(n), target=n)
    DRISKO_BOUND_CALLS = {7: 52, 8: 73, 9: 100, 10: 132, 11: 168, 12: 211, 13: 260}
    # bound calls of max_rainbow_matching(k5_family(k), target=2k+1)
    K5_BOUND_CALLS = {3: 0, 4: 0}
    # bound calls of max_rainbow_matching(hub_family(k), target=4k+1); a
    # weaker valid bound in place of the blossom shows here as more calls
    HUB_BOUND_CALLS = {2: 52, 3: 221}
    # sha256 of the repr of the batch's assignment list, and its bound calls
    BATCH_DIGEST = "c707facb47a827bdbcf0d977bcc8c22bdbaac9947b3a806607469d63a7a741f2"
    BATCH_BOUND_CALLS = 627

    @pytest.mark.parametrize("n", sorted(DRISKO_WITNESSES))
    def test_drisko(self, n, bound_calls):
        _, function = max_rainbow_matching(drisko_sharpness(n), target=n)
        assert function.assignments == DRISKO_WITNESSES[n]
        assert len(bound_calls) == self.DRISKO_BOUND_CALLS[n]

    @pytest.mark.parametrize("k", sorted(K5_WITNESSES))
    def test_k5(self, k, bound_calls):
        _, function = max_rainbow_matching(k5_family(k), target=2 * k + 1)
        assert function.assignments == K5_WITNESSES[k]
        assert len(bound_calls) == self.K5_BOUND_CALLS[k]

    @pytest.mark.parametrize("k", sorted(HUB_WITNESSES))
    def test_hub(self, k, bound_calls):
        _, function = max_rainbow_matching(hub_family(k), target=4 * k + 1)
        assert function.assignments == HUB_WITNESSES[k]
        assert len(bound_calls) == self.HUB_BOUND_CALLS[k]

    def test_seeded_batch(self, bound_calls):
        found = []
        for fam, n in seeded_batch():
            best = brute_max_rainbow(fam)
            for target in (None, n, n - 1):
                _, function = max_rainbow_matching(fam, target=target)
                assert len(function) == (best if target is None else min(best, target))
                found.append(function.assignments)
        digest = hashlib.sha256(repr(found).encode()).hexdigest()
        assert (digest, len(bound_calls)) == (self.BATCH_DIGEST, self.BATCH_BOUND_CALLS)


class TestComponentBound:
    """The component count of the live vertex pairs is at least their
    matching number, equal to it on disjoint cliques, paths and odd cycles,
    and settles every bound of the K5 searches."""

    def test_at_least_the_matching_number(self):
        """On the general families of the seeded batch, each with four
        random subsets of its edges live."""
        rng = random.Random(34)
        for fam, _ in seeded_batch()[300:]:
            g = fam.graph
            search = matching._RainbowSearch(g)
            for _ in range(4):
                union = matching._id_mask(e for e in range(g.num_edges) if rng.random() < 0.6)
                live = Graph(g.n, tuple((l, r) for edges, l, r in search.pairs if edges & union))
                nu = brute_max_matching(live)
                assert search._component_bound(union) >= nu == search._matching_bound(union)

    @pytest.mark.parametrize("pieces", [
        [(1, "clique"), (2, "clique"), (3, "clique"), (4, "clique")],
        [(5, "clique")],
        [(6, "clique")],
        [(2, "path"), (3, "path"), (4, "path"), (5, "path")],
        [(6, "path"), (7, "path")],
        [(3, "cycle"), (5, "cycle")],
        [(7, "cycle"), (9, "cycle")],
        [(4, "clique"), (4, "path"), (5, "cycle")],
    ])
    def test_equal_on_cliques_paths_and_odd_cycles(self, pieces):
        edges, n = [], 0
        for size, kind in pieces:
            if kind == "clique":
                edges += itertools.combinations(range(n, n + size), 2)
            else:
                edges += [(n + i, n + i + 1) for i in range(size - 1)]
                if kind == "cycle":
                    edges.append((n + size - 1, n))
            n += size
        g = Graph(n, tuple(edges))
        search = matching._RainbowSearch(g)
        union = (1 << g.num_edges) - 1
        assert search._component_bound(union) == brute_max_matching(g)

    @pytest.mark.parametrize("k, calls", [(3, 91), (4, 162)])
    def test_k5_bounds_need_no_blossom(self, monkeypatch, k, calls):
        counted, blossoms = [], []
        bound = matching._RainbowSearch._component_bound
        general = matching._max_matching_general

        def counting(search, union):
            counted.append(union)
            return bound(search, union)

        def blossom(*args):
            blossoms.append(args)
            return general(*args)

        monkeypatch.setattr(matching._RainbowSearch, "_component_bound", counting)
        monkeypatch.setattr(matching, "_max_matching_general", blossom)
        got, _ = max_rainbow_matching(k5_family(k), target=2 * k + 1)
        assert len(got) == 2 * k
        assert (len(counted), len(blossoms)) == (calls, 0)


def tiled(fam: EdgeFamily, k: int) -> EdgeFamily:
    """k disjoint copies of the family: copy i shifts the vertices by i
    times the vertex count and the edge ids by i times the edge count."""
    g = fam.graph
    n, m = g.n, g.num_edges
    edges = tuple((u + i * n, v + i * n) for i in range(k) for u, v in g.edges)
    colors = tuple(frozenset(e + i * m for e in c) for i in range(k) for c in fam.colors)
    return EdgeFamily(Graph(k * n, edges), colors)


class TestExplicitStack:
    """The search keeps an explicit stack: it goes deeper than the recursion
    limit, and a search object keeps nothing of a run."""

    def test_tiled_copies_past_the_recursion_limit(self, recursion_limit):
        """k copies of a family with a full rainbow matching have one of k
        times its size. A copy with a smaller maximum is left out: the
        bound's slack adds up across copies and the tree blows up with k."""
        fams = (fam for fam, _ in seeded_batch()
                if fam.num_colors > 1 and brute_max_rainbow(fam) == fam.num_colors)
        for fam in itertools.islice(fams, 3):
            k = recursion_limit // fam.num_colors + 1
            big = tiled(fam, k)
            for target in (None, k * fam.num_colors):
                got, function = max_rainbow_matching(big, target=target)
                assert len(got) == k * fam.num_colors
                assert matching_check(big.graph, got.edges)
                assert is_rainbow(ColoredFamily(GroundSet(big.graph.num_edges), big.colors),
                                  function)
                assert frozenset(e for _, e in function.assignments) == got.edges

    @pytest.mark.parametrize("target", [None, 3])
    def test_run_keeps_no_state(self, target):
        fam = drisko_sharpness(7)
        search = matching._RainbowSearch(fam.graph)
        tables = copy.deepcopy(vars(search))
        search.run([matching._id_mask(c) for c in fam.colors], target)
        assert vars(search) == tables


def bipartite_pairs(family: tuple) -> tuple:
    """(nl, nr, family) of a (graph, classes) family of a bipartite sweep:
    each class as its sorted (left, right) pairs, right vertices counted
    from 0."""
    g, colors = family
    nl, nr = (len(side) for side in g.bipartition)
    return nl, nr, tuple(tuple(sorted((u, v - nl) for u, v in map(g.edges.__getitem__, c)))
                         for c in colors)


class TestBipartiteFamilies:
    """Orderly generation keeps exactly the first family of each
    isomorphism class that a naive canonical form finds."""

    CASES = [(1, 4, 1), (2, 6, 8), (2, 8, 10), (3, 6, 5), (3, 7, 28)]

    @pytest.mark.parametrize("n, max_vertices, count", CASES)
    def test_first_seen_families_in_order(self, n, max_vertices, count):
        yielded = [bipartite_pairs(f) for f in matching._bipartite_families(n, max_vertices)]
        assert yielded == first_seen_bipartite_families(n, max_vertices)
        assert len(yielded) == count

    # n=4 on at most 8 vertices has 17,550 labelled families, too many for
    # the naive first-seen filter, so only this test covers it
    @pytest.mark.parametrize("n, max_vertices, count", CASES + [(4, 8, 62)])
    def test_no_two_families_isomorphic(self, n, max_vertices, count):
        keys = [naive_bipartite_canonical(*bipartite_pairs(f))
                for f in matching._bipartite_families(n, max_vertices)]
        assert len(set(keys)) == len(keys) == count

    def test_side_swap_is_a_relabeling(self):
        """On K_{4,4} the family {a, a, b} is least under the permutations
        of each side alone (the first half of the tables) but not once the
        sides may be swapped. Edge 4l + r joins left l and right r."""
        a, b = ((0, 0), (1, 1), (2, 2)), ((0, 1), (2, 3), (3, 0))
        matchings = sorted(tuple(4 * l + r for l, r in zip(lefts, rights))
                           for lefts in itertools.combinations(range(4), 3)
                           for rights in itertools.permutations(range(4), 3))
        tables = matching._index_tables(matchings, matching._side_automorphisms(4, 4))
        family = [matchings.index(tuple(4 * l + r for l, r in m)) for m in (a, a, b)]
        assert matching._bipartite_canonical(family, tables[:len(tables) // 2])
        assert not matching._bipartite_canonical(family, tables)

    def test_bound_calls_at_3_7(self, bound_calls):
        """Every family at (3, 7) has a rainbow matching of size 2, and the
        sweep's check, one search per K_{nl,nr}, finds each on its first
        descent, so it makes no bound call (76 when every node was
        bounded, with fresh edge ids or those of K_{nl,nr})."""
        check = matching._no_rainbow_matching(2)
        assert all(check(family) is None for family in matching._bipartite_families(3, 7))
        assert len(bound_calls) == 0


class TestCycleFamilies:
    """Orderly generation keeps exactly the first family of each class
    under the automorphisms of the union of cycles."""

    @pytest.mark.parametrize("sizes, lengths, count", [
        ((2, 4, 4), (8,), 8), ((2, 4, 4), (10,), 616), ((2, 4, 4), (4, 4), 13),
        ((1, 2, 2), (6,), 27), ((1, 2, 2), (3, 3), 8),
    ], ids=["244-C8", "244-C10", "244-C4+C4", "122-C6", "122-C3+C3"])
    def test_first_seen_families_in_order(self, sizes, lengths, count):
        pytest.importorskip("networkx")
        yielded = [colors for _, colors in matching._cycle_families(sizes, (lengths,))]
        assert yielded == first_seen_cycle_families(sizes, lengths)
        assert len(yielded) == count

    def test_cycles_of_different_lengths_are_never_exchanged(self):
        """C3 + C4 has the 6 x 8 dihedral moves of its cycles and nothing
        else: each automorphism keeps edges 0..2 on the triangle."""
        perms = list(matching._cycle_automorphisms((3, 4)))
        assert len(perms) == len({tuple(p) for p in perms}) == 48
        assert all(sorted(p[:3]) == [0, 1, 2] for p in perms)


class TestArrowAndSequences:
    def test_drisko_random_instance(self):
        rng = random.Random(13)
        fam = random_matching_family(rng, [3] * 5)
        assert check_arrow_instance(drisko_statement(3), fam)

    def test_eight_vertex_fails_c3(self):
        stmt = ArrowStatement(3, 4, 3, "general")
        assert not check_arrow_instance(stmt, eight_vertex_example())

    def test_single_edge(self):
        assert check_arrow_instance(
            ArrowStatement(1, 1, 1), family_from_pairs(2, [(0, 1)])
        )

    def test_wrong_color_count(self):
        with pytest.raises(HypothesisViolation):
            check_arrow_instance(
                ArrowStatement(2, 1, 1), family_from_pairs(2, [(0, 1)])
            )

    def test_undersized_color_named(self):
        with pytest.raises(HypothesisViolation) as err:
            check_arrow_instance(
                ArrowStatement(2, 2, 1),
                family_from_pairs(4, [(0, 1), (2, 3)], [(0, 2)]),
            )
        assert err.value.witness == 1

    def test_non_matching_color_rejected(self):
        fam = family_from_pairs(3, [(0, 1), (1, 2)])
        with pytest.raises(HypothesisViolation):
            check_arrow_instance(ArrowStatement(1, 2, 1), fam)

    def test_bipartite_class_rejects_triangle(self):
        fam = family_from_pairs(3, [(0, 1)], [(1, 2)], [(2, 0)])
        with pytest.raises(HypothesisViolation, match="bipartite"):
            check_arrow_instance(ArrowStatement(3, 1, 1), fam)

    def test_stairs_instance_n2(self):
        rng = random.Random(21)
        fam = random_matching_family(rng, [1, 2, 2])
        assert check_sequence_instance(stairs_sequence(2), fam)

    def test_sequence_244_witness_fails(self):
        assert not check_sequence_instance(SizeSequence((2, 4, 4), 3),
                                           two_c4_witness())

    def test_sequence_trivial(self):
        assert check_sequence_instance(
            SizeSequence((1,), 1), family_from_pairs(2, [(0, 1)])
        )

    def test_sequence_must_be_nondecreasing(self):
        with pytest.raises(InstanceError):
            SizeSequence((2, 1), 1)


# the path 0 - 1 - 2 - 3: edges 0 and 2 form a matching, edges 0 and 1 do not
P4 = Graph(4, ((0, 1), (1, 2), (2, 3)))


@pytest.mark.parametrize("call, message, witness", [
    pytest.param(lambda: check_arrow_instance(ArrowStatement(2, 1, 1), EdgeFamily(P4, ({0},))),
                 "expected 2 color classes, got 1", 1, id="arrow-count"),
    pytest.param(lambda: check_arrow_instance(ArrowStatement(1, 1, 1),
                                              EdgeFamily(P4, ({0, 1},))),
                 "color 0 is not a matching", 0, id="arrow-not-matching"),
    pytest.param(lambda: check_sequence_instance(SizeSequence((1, 2), 1),
                                                 EdgeFamily(P4, ({0}, {1}))),
                 "color 1 has size 1 < required 2", 1, id="sequence-size"),
    pytest.param(lambda: repeats_matching(P4, [{0}], 2, 2),
                 "expected 3 matchings, got 1", 1, id="repeats-count"),
    pytest.param(lambda: repeats_matching(P4, [{0}, {0, 1}, {0, 2}], 2, 2),
                 "matching 1 is not a matching", 1, id="repeats-not-matching"),
    pytest.param(lambda: repeats_matching(P4, [{0}, {1}, {0, 2}], 2, 2),
                 "matching 1 has size 1 < required 2", 1, id="repeats-size"),
    pytest.param(lambda: scrambled_matching_check(P4, [[0, 2], [0, 1]], [[0], [0, 2], [1]], 2),
                 "original family member 1 is not a matching", 1, id="scrambled-original"),
])
def test_matching_family_hypothesis(call, message, witness):
    """The one hypothesis check on a family of matchings, as each verifier
    words it."""
    with pytest.raises(HypothesisViolation) as err:
        call()
    assert str(err.value) == message
    assert err.value.witness == witness


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: ArrowStatement(1, 1, 1, "planar"), InstanceError,
                 r"^unknown graph class 'planar'$", id="arrow-graph-class"),
    pytest.param(lambda: SizeSequence((1,), -1), InstanceError,
                 r"^target must be nonnegative$", id="sequence-target-negative"),
    pytest.param(lambda: repeats_matching(P4, [], 0, 2), HypothesisViolation,
                 r"^need 1 <= k <= n, got k=0, n=2$", id="repeats-k-zero"),
    pytest.param(lambda: repeats_matching(P4, [{0}] * 5, 3, 2), HypothesisViolation,
                 r"^need 1 <= k <= n, got k=3, n=2$", id="repeats-k-past-n"),
    pytest.param(lambda: cooperative_drisko_check(P4, [{0}], 2), HypothesisViolation,
                 r"^expected 3 edge sets, got 1$", id="cooperative-count"),
])
def test_input_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


# the 4-cycle 0 - 1 - 2 - 3 - 0: edges 0, 2 and edges 1, 3 are its perfect matchings
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))


@pytest.mark.parametrize("owner, name, stub, call, message", [
    pytest.param(matching._RainbowSearch, "run", lambda self, colors, target: [],
                 lambda: repeats_matching(C4, [{0, 2}, {1, 3}, {0, 2}], 2, 2),
                 "no size-2 matching representing 2 of the matchings exists; "
                 "this contradicts the repeats theorem", id="repeats"),
    pytest.param(matching._RainbowSearch, "run", lambda self, colors, target: [],
                 lambda: cooperative_drisko_check(C4, [{0, 2}, {1, 3}, {0, 2}], 2),
                 "no rainbow matching of size 2 despite pairwise unions of "
                 "matching number >= 2", id="cooperative"),
    # 3 >= n^2 - n/2 matchings of size n = 2, so the answer is guaranteed
    pytest.param(matching, "max_rainbow_matching",
                 lambda fam, target: (Matching(frozenset()), ChoiceFunction(())),
                 lambda: scrambled_matching_check(C4, [[0, 2], [1, 3], [0, 2]],
                                                  [[0, 2], [0, 2], [1, 3]], 2),
                 "scrambled family of 3 matchings of size 2 has no rainbow "
                 "matching of size 2", id="scrambled"),
])
def test_short_search_is_a_theorem_violation(monkeypatch, owner, name, stub, call, message):
    """Each self-check fires when the search it trusts comes back short."""
    monkeypatch.setattr(owner, name, stub)
    with pytest.raises(TheoremViolation) as err:
        call()
    assert str(err.value) == message


class TestRepeats:
    def test_k2_c6_with_chord(self):
        g = Graph(6, ((0, 3), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)))
        m1, m2, m3 = frozenset({0}), frozenset({1, 3, 5}), frozenset({2, 4, 6})
        matching, rep = repeats_matching(g, [m1, m2, m3], 2, 3)
        assert len(matching) == 3 and matching_check(g, matching.edges)
        assert len(set(rep.as_dict().values())) >= 2
        for c, e in rep.assignments:
            assert e in (m1, m2, m3)[c] and e in matching.edges

    # Seven k=2 shapes of the union (two cycles, a spanning cycle cut by the
    # first matching, a mixed union, none of these), each with the exact
    # branch-and-bound witness: (vertices, edges, matchings, n, matching,
    # assignments).
    @pytest.mark.parametrize("nv, edges, ms, n, want_edges, want_rep", [
        pytest.param(4, [(2, 1), (1, 3), (2, 0), (2, 0), (3, 1)], [[0], [1, 2], [3, 4]], 2,
                     [1, 3], ((1, 1), (2, 3)), id="two-cycles"),
        pytest.param(6, [(4, 1), (3, 5), (2, 0), (3, 2), (5, 0)], [[0], [1, 2], [3, 4]], 2,
                     [0, 1], ((0, 0), (1, 1)), id="spanning-cycle-e1-off"),
        pytest.param(8, [(5, 7), (4, 0), (5, 1), (2, 6), (1, 6), (5, 2)],
                     [[0, 1], [2, 3], [4, 5]], 2,
                     [0, 3], ((0, 0), (1, 3)), id="spanning-cycle-e1-one-end-on"),
        pytest.param(8, [(6, 0), (3, 7), (4, 1), (2, 5), (3, 1), (6, 2), (4, 5), (0, 7),
                         (6, 5), (0, 2), (1, 4)], [[0, 1, 2, 3], [4, 5, 6, 7], [1, 8, 9, 10]], 4,
                     [0, 1, 2, 3], ((0, 0), (2, 1)), id="spanning-cycle-even-chord-exact"),
        pytest.param(5, [(4, 2), (1, 3), (2, 1), (4, 3), (2, 4)], [[0, 1], [2, 3], [1, 4]], 2,
                     [0, 1], ((0, 0), (2, 1)), id="spanning-cycle-odd-chord"),
        pytest.param(9, [(7, 0), (5, 8), (2, 1), (7, 6)], [[0], [1, 2], [2, 3]], 2,
                     [0, 2], ((0, 0), (2, 2)), id="mixed-flip-component"),
        pytest.param(6, [(2, 3), (4, 2), (3, 1), (2, 0), (4, 3)], [[0], [1, 2], [3, 4]], 2,
                     [2, 3], ((1, 2), (2, 3)), id="no-shape-exact"),
    ])
    def test_k2_witnesses_are_pinned(self, nv, edges, ms, n, want_edges, want_rep):
        g = Graph(nv, tuple(edges))
        matching, rep = repeats_matching(g, [frozenset(m) for m in ms], 2, n)
        assert sorted(matching.edges) == want_edges
        assert rep.assignments == want_rep

    def test_k_equals_n_two(self):
        rng = random.Random(17)
        fam = random_matching_family(rng, [2, 2, 2])
        matching, rep = repeats_matching(fam.graph, list(fam.colors), 2, 2)
        assert len(matching) == 2 and len(rep) >= 2

    def test_k1_returns_input(self):
        g = Graph(4, ((0, 1), (2, 3)))
        matching, rep = repeats_matching(g, [frozenset({0, 1})], 1, 2)
        assert matching.edges == {0, 1}

    def test_hypothesis_count(self):
        g = Graph(2, ((0, 1),))
        with pytest.raises(HypothesisViolation):
            repeats_matching(g, [frozenset({0})], 2, 2)

    def test_hypothesis_sizes(self):
        g = Graph(4, ((0, 1), (2, 3), (0, 2), (1, 3)))
        with pytest.raises(HypothesisViolation):
            repeats_matching(
                g, [frozenset({0}), frozenset({1}), frozenset({2, 3})], 2, 2
            )

    def test_random_full_size_instances_give_valid_witnesses(self):
        rng = random.Random(23)
        for _ in range(60):
            k = rng.choice([2, 3])
            n = rng.randint(k, 4)
            fam = random_matching_family(rng, [n] * (2 * k - 1))
            matching, rep = repeats_matching(fam.graph, list(fam.colors), k, n)
            assert len(matching) == n
            assert matching_check(fam.graph, matching.edges)
            assert len(rep) >= k
            values = [e for _, e in rep.assignments]
            assert len(set(values)) == len(values)
            for c, e in rep.assignments:
                assert e in fam.colors[c]

    def test_first_descent_makes_no_bound_call(self, bound_calls):
        """The search takes the lowest live edge of the class with the
        fewest live edges (lowest class on ties) until no class is live.
        When that first descent reaches size n, the search makes no bound
        call; on these seeded instances most do."""

        def first_descent(fam: EdgeFamily) -> int:
            classes, used, size = dict(enumerate(fam.colors)), set(), 0
            while True:
                live = {c: sorted(e for e in m if not used & set(fam.graph.edges[e]))
                        for c, m in classes.items()}
                live = {c: edges for c, edges in live.items() if edges}
                if not live:
                    return size
                c = min(live, key=lambda c: (len(live[c]), c))
                used |= set(fam.graph.edges[live[c][0]])
                del classes[c]
                size += 1

        rng = random.Random(23)
        first = 0
        for _ in range(60):
            k = rng.choice([2, 3])
            n = rng.randint(k, 4)
            fam = random_matching_family(rng, [n] * (2 * k - 1))
            union = frozenset().union(*fam.colors)
            bound_calls.clear()
            repeats_matching(fam.graph, list(fam.colors), k, n)
            if first_descent(EdgeFamily(fam.graph, fam.colors + (union,) * (n - k))) == n:
                assert bound_calls == []
                first += 1
        assert first > 30

    def test_agrees_with_brute_force(self):
        """Seeded instances for k = 1..4 on bipartite and general graphs,
        with full sizes and with the staircase min(i, k-1) below the k-th
        matching: a valid witness exactly when brute force finds one, and
        otherwise a HypothesisViolation on a non-bipartite graph."""
        rng = random.Random(41)
        outcomes = set()
        for i in range(400):
            k = rng.randint(1, 4)
            bipartite, staircase = i % 4 < 2, i % 2 == 1
            v = 0 if bipartite else rng.randint(2 * k, 8)
            n = rng.randint(k, 4 if bipartite else v // 2)
            sizes = [min(j + 1, k - 1) if staircase and j < k - 1 else n
                     for j in range(2 * k - 1)]
            if bipartite:
                fam = random_matching_family(rng, sizes)
                g, ms = fam.graph, list(fam.colors)
            else:
                g, ms = random_matchings(rng, v, sizes)
            if brute_repeats(g, ms, k, n):
                matching, rep = repeats_matching(g, ms, k, n)
                assert len(matching) == n and matching_check(g, matching.edges)
                values = [e for _, e in rep.assignments]
                assert len(rep) >= k and len(set(values)) == len(values)
                for c, e in rep.assignments:
                    assert e in ms[c] and e in matching.edges
                outcomes.add(("witness", k))
            else:
                assert find_bipartition(g) is None
                with pytest.raises(HypothesisViolation, match="not bipartite"):
                    repeats_matching(g, ms, k, n)
                outcomes.add(("not-bipartite", k))
        assert {("witness", k) for k in range(1, 5)} <= outcomes
        assert any(kind == "not-bipartite" for kind, _ in outcomes)

    def test_non_bipartite_failure_is_a_hypothesis_violation(self):
        """The theorem covers bipartite graphs; on this triangle-bearing
        graph no size-2 matching represents two of the matchings."""
        g = Graph(5, ((0, 1), (1, 2), (4, 0), (4, 1), (0, 2)))
        with pytest.raises(HypothesisViolation, match="not bipartite"):
            repeats_matching(g, [[0], [1, 2], [3, 4]], 2, 2)

    def test_k2_on_general_graphs(self):
        """Seeded k=2 instances on graphs that need not be bipartite: each
        gives a valid witness or a HypothesisViolation, never a
        TheoremViolation."""
        rng = random.Random(5)
        outcomes = set()
        for _ in range(300):
            v = rng.randint(4, 8)
            n = rng.randint(2, v // 2)
            g, ms = random_matchings(rng, v, (1, n, n))
            try:
                matching, rep = repeats_matching(g, ms, 2, n)
            except HypothesisViolation:
                outcomes.add("not-bipartite")
                continue
            outcomes.add("witness")
            assert len(matching) == n and matching_check(g, matching.edges)
            values = [e for _, e in rep.assignments]
            assert len(rep) >= 2 and len(set(values)) == len(values)
            for c, e in rep.assignments:
                assert e in ms[c] and e in matching.edges
        assert outcomes == {"witness", "not-bipartite"}


# (a statement check, a builder of its arguments, its answer or the
# exception it raises)
ONE_SEARCH_CALLS = {
    "arrow-bipartite": (check_arrow_instance, lambda: (
        drisko_statement(3), random_matching_family(random.Random(13), [3] * 5)), True),
    "arrow-general": (check_arrow_instance, lambda: (
        ArrowStatement(3, 4, 3, "general"), eight_vertex_example()), False),
    "sequence": (check_sequence_instance, lambda: (
        SizeSequence((2, 4, 4), 3), two_c4_witness()), False),
    "repeats": (lambda *args: len(repeats_matching(*args)[0]), lambda: (
        Graph(6, ((0, 3), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0))),
        [{0}, {1, 3, 5}, {2, 4, 6}], 2, 3), 3),
    "repeats-failed": (repeats_matching, lambda: (
        Graph(5, ((0, 1), (1, 2), (4, 0), (4, 1), (0, 2))), [[0], [1, 2], [3, 4]], 2, 2),
        HypothesisViolation),
}


@pytest.mark.parametrize("name", sorted(ONE_SEARCH_CALLS))
def test_one_bipartition_per_call(monkeypatch, name):
    """One search on the instance graph decides bipartiteness and answers,
    so each call finds the graph's bipartition once."""
    check, build, answer = ONE_SEARCH_CALLS[name]
    args, calls = build(), []

    def counted(g):
        calls.append(g)
        return find_bipartition(g)

    monkeypatch.setattr(matching, "find_bipartition", counted)
    if answer is HypothesisViolation:
        with pytest.raises(HypothesisViolation, match="not bipartite"):
            check(*args)
    else:
        assert check(*args) == answer
    assert len(calls) == 1


class TestCooperativeDrisko:
    def bipartite_graph(self, *pairs):
        return Graph(8, tuple(pairs),
                     (frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7})))

    def test_all_equal_one_matching(self):
        g = self.bipartite_graph((0, 4), (1, 5))
        sets = [frozenset({0, 1})] * 3
        matching, function = cooperative_drisko_check(g, sets, 2)
        assert len(matching) == 2

    def test_pairwise_unions(self):
        g = self.bipartite_graph((0, 4), (1, 5), (0, 5))
        sets = [frozenset({0}), frozenset({1}), frozenset({0, 1, 2})]
        matching, function = cooperative_drisko_check(g, sets, 2)
        assert len(matching) == 2
        ground = ColoredFamily(GroundSet(g.num_edges), tuple(sets))
        assert is_rainbow(ground, function)

    def test_one_bipartition_per_call(self, monkeypatch):
        """One search decides bipartiteness, bounds the pairwise unions and
        finds the matching, so the graph's bipartition is found once."""
        calls = []

        def counted(g):
            calls.append(g)
            return find_bipartition(g)

        monkeypatch.setattr(matching, "find_bipartition", counted)
        g = self.bipartite_graph((0, 4), (1, 5), (0, 5))
        found, _ = cooperative_drisko_check(g, [{0}, {1}, {0, 1, 2}], 2)
        assert len(found) == 2 and calls == [g]

    def test_empty_set_named(self):
        g = self.bipartite_graph((0, 4))
        with pytest.raises(HypothesisViolation) as err:
            cooperative_drisko_check(
                g, [frozenset(), frozenset({0}), frozenset({0})], 2
            )
        assert err.value.witness == 0

    def test_deficient_pair_named(self):
        g = self.bipartite_graph((0, 4), (0, 5))
        sets = [frozenset({0}), frozenset({1}), frozenset({0, 1})]
        with pytest.raises(HypothesisViolation) as err:
            cooperative_drisko_check(g, sets, 2)
        assert err.value.witness == (0, 1)

    def test_non_bipartite_rejected(self):
        g = Graph(3, ((0, 1), (1, 2), (2, 0)))
        with pytest.raises(HypothesisViolation):
            cooperative_drisko_check(g, [frozenset({0})] * 3, 2)


class TestScrambledMatchings:
    def test_identity_scrambling_n2(self):
        rng = random.Random(31)
        fam = random_matching_family(rng, [2, 2, 2])  # n^2 - n/2 = 3 for n=2
        report = scrambled_matching_check(
            fam.graph, [sorted(c) for c in fam.colors],
            [sorted(c) for c in fam.colors], 2,
        )
        assert report.guaranteed and report.met

    def test_oversized_class_rejected(self):
        rng = random.Random(32)
        fam = random_matching_family(rng, [2, 2, 2])
        pool = sorted(e for c in fam.colors for e in c)
        with pytest.raises(InstanceError, match="exceeds the bound"):
            scrambled_matching_check(
                fam.graph, [sorted(c) for c in fam.colors],
                [pool[:3], pool[3:]], 2,
            )

    def test_multiset_mismatch_rejected(self):
        rng = random.Random(33)
        fam = random_matching_family(rng, [2, 2, 2])
        with pytest.raises(InstanceError, match="multiset"):
            scrambled_matching_check(
                fam.graph, [sorted(c) for c in fam.colors],
                [[0, 1], [2, 3], [4, 4]], 2,
            )

    def test_all_rescramblings_of_fixed_instance(self):
        # n=2: every 2-scrambling of three size-2 matchings keeps a rainbow
        # matching of size 2 (exhaustive over partitions into size<=2 classes)
        rng = random.Random(34)
        fam = random_matching_family(rng, [2, 2, 2])
        pool = sorted(e for c in fam.colors for e in c)

        def partitions(items):
            if not items:
                yield []
                return
            first, rest = items[0], items[1:]
            # first alone
            for p in partitions(rest):
                yield [[first]] + p
            # first paired with another
            for i, other in enumerate(rest):
                for p in partitions(rest[:i] + rest[i + 1:]):
                    yield [[first, other]] + p

        count = 0
        for classes in partitions(pool):
            report = scrambled_matching_check(
                fam.graph, [sorted(c) for c in fam.colors], classes, 2
            )
            assert report.met
            count += 1
        assert count > 10

    def test_validate_scrambling_helper(self):
        classes = validate_scrambling([[0, 1], [1, 2]], [[1, 1], [0, 2]], 2)
        assert classes == ((1, 1), (0, 2))
