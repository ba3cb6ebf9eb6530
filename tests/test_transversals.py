import itertools
import random
import tracemalloc

import pytest

from rainbowsets.core import (
    ChoiceFunction,
    ColoredFamily,
    Graph,
    GroundSet,
    InstanceError,
    is_rainbow,
    family_union,
    _kuhn_max_matching,
)
from rainbowsets._gf2 import gf2_rank
from rainbowsets.matroids import (
    IndependenceOracle,
    binary_matroid,
    free_matroid,
    graphic_matroid,
    partition_matroid,
    uniform_matroid,
)
from rainbowsets import transversals
from rainbowsets.transversals import Violator, hall_rainbow, rado_rainbow

from oracles import (
    alternating_reach,
    brute_family_matching,
    brute_full_independent_choice,
    brute_full_injective_choice,
    kuhn_reference,
    random_bipartite,
)


def fam(ground: int, *sets) -> ColoredFamily:
    return ColoredFamily(GroundSet(ground), tuple(frozenset(s) for s in sets))


def all_families(ground: int, colors: int):
    subsets = [frozenset(c) for r in range(1, ground + 1)
               for c in itertools.combinations(range(ground), r)]
    for combo in itertools.combinations_with_replacement(subsets, colors):
        yield fam(ground, *combo)


def full_binary_family(rng: random.Random, k: int) -> tuple[list[int], list[set[int]]]:
    """k color classes over GF(2) columns with k+4 rows. Each class holds
    one planted column (the planted ones are independent, so a full rainbow
    choice has an independent image) and two random ones."""
    cols = [1 << i | rng.getrandbits(i) for i in range(k)]
    cols += [rng.getrandbits(k + 4) | 1 for _ in range(k)]
    return cols, [{c, *rng.sample(range(k, 2 * k), 2)} for c in range(k)]


def deficient_binary_family(rng: random.Random, k: int) -> tuple[list[int], list[set[int]]]:
    """full_binary_family, except that five classes draw three columns each
    from a subspace of rank 4, so no full rainbow choice has an independent
    image."""
    cols, sets = full_binary_family(rng, k)
    sub = [1 << i | rng.getrandbits(i) for i in range(4)]
    for c in rng.sample(range(k), 5):
        sets[c] = set()
        for _ in range(3):
            mask = rng.randint(1, (1 << len(sub)) - 1)
            v = 0
            for i, b in enumerate(sub):
                if mask >> i & 1:
                    v ^= b
            sets[c].add(len(cols))
            cols.append(v)
    return cols, sets


class TestHall:
    def test_singleton(self):
        out = hall_rainbow(fam(1, {0}))
        assert isinstance(out, ChoiceFunction)
        assert out.as_dict() == {0: 0}

    def test_violator_pair(self):
        out = hall_rainbow(fam(1, {0}, {0}))
        assert isinstance(out, Violator)
        assert out.colors == {0, 1}

    def test_three_cover(self):
        f = fam(3, {0, 1}, {1, 2}, {0, 2})
        out = hall_rainbow(f)
        assert isinstance(out, ChoiceFunction)  # brute force: 8 assignments
        assert is_rainbow(f, out) and out.is_full_for(f)

    def test_violator_genuinely_violates(self):
        rng = random.Random(5)
        for _ in range(300):
            ground = rng.randint(1, 6)
            k = rng.randint(1, 5)
            f = fam(ground, *[
                frozenset(rng.sample(range(ground), rng.randint(1, ground)))
                for _ in range(k)
            ])
            out = hall_rainbow(f)
            if isinstance(out, Violator):
                assert len(family_union(f, out.colors)) < len(out.colors)
                assert not brute_full_injective_choice(list(f.sets))
            else:
                assert is_rainbow(f, out) and out.is_full_for(f)

    def test_exhaustive_brute_agreement(self):
        for ground, colors in ((3, 3), (4, 2), (2, 4)):
            for f in all_families(ground, colors):
                got = hall_rainbow(f)
                expect = brute_full_injective_choice(list(f.sets))
                assert isinstance(got, ChoiceFunction) == expect

    def test_violator_is_the_colors_some_maximum_matching_misses(self):
        """Dulmage-Mendelsohn: color c is in the violator iff dropping it
        keeps the matching number."""
        rng = random.Random(13)
        violators = 0
        for _ in range(400):
            ground, k = rng.randint(1, 6), rng.randint(2, 7)
            sets = [frozenset(x for x in range(ground) if rng.random() < 0.4)
                    for _ in range(k)]
            out = hall_rainbow(fam(ground, *sets))
            if isinstance(out, ChoiceFunction):
                continue
            violators += 1
            nu = brute_family_matching(sets)
            assert out.colors == {
                c for c in range(k) if brute_family_matching(sets[:c] + sets[c + 1:]) == nu
            }
        assert violators > 200

    def test_chain_longer_than_recursion_limit(self):
        # color i tries i-1 first, then its own element i
        n = 1500
        f = fam(n, {0}, *[{i - 1, i} for i in range(1, n)])
        out = hall_rainbow(f)
        assert isinstance(out, ChoiceFunction)
        assert out.as_dict() == {i: i for i in range(n)}

    def test_chain_costs_linear_neighbor_calls(self, monkeypatch):
        """Each color's search closes the element before it, so later
        searches stop there instead of walking down to color 0: at most
        three neighbor calls per color, not about n^2 / 2 in all."""
        n = 5000
        calls = 0

        def counting(lefts, neighbors):
            def counted(u):
                nonlocal calls
                calls += 1
                return neighbors(u)
            return _kuhn_max_matching(lefts, counted)

        monkeypatch.setattr(transversals, "_kuhn_max_matching", counting)
        out = hall_rainbow(fam(n, {0}, *[{i - 1, i} for i in range(1, n)]))
        assert isinstance(out, ChoiceFunction)
        assert out.as_dict() == {i: i for i in range(n)}
        assert calls <= 3 * n

    @staticmethod
    def reach_violator(lefts, adj) -> set:
        """The unmatched lefts of the reference matching and the owners of
        their alternating reach."""
        match = kuhn_reference(lefts, adj.__getitem__)
        return ({u for u in lefts if u not in match.values()}
                | {match[v] for v in alternating_reach(lefts, adj, match)})

    def hall_on(self, adj):
        """hall_rainbow on the colors 0..len(adj)-1 with the classes of adj:
        the violator's colors, or the empty set for a choice function."""
        ground = 1 + max((v for nbrs in adj.values() for v in nbrs), default=0)
        out = hall_rainbow(fam(ground, *(adj[u] for u in range(len(adj)))))
        return set() if isinstance(out, ChoiceFunction) else out.colors

    def test_violator_is_the_alternating_reach_of_the_unmatched_colors(self):
        """Any maximum matching gives the same reach (Dulmage-Mendelsohn),
        so the reference matching, whatever order its lefts and neighbors
        are tried in, names hall's violator."""
        violators = 0
        for seed, graphs, max_side in ((3, 600, 12), (4, 400, 9)):
            rng = random.Random(seed)
            for _ in range(graphs):
                lefts, adj = random_bipartite(rng, max_side)
                expected = self.reach_violator(lefts, adj)
                assert self.hall_on(adj) == expected
                violators += bool(expected)
        assert violators > 300

    # hall tries each class in ascending order; on these classes color 2's
    # search succeeds at element 12 after closing the cycle
    # 10 -> 1 -> 11 -> 0 -> 10, and color 3's search skips element 10
    CLOSING = {0: [10, 11], 1: [10, 11], 2: [10, 11, 12], 3: [10, 13]}

    def test_closed_component_outside_the_reach_is_not_in_the_violator(self):
        """The closed pair lies outside the alternating reach of the one
        unmatched color, 5."""
        adj = {**self.CLOSING, 4: [14], 5: [14]}
        calls = []
        _kuhn_max_matching(range(6), lambda u: calls.append(u) or adj[u])
        assert calls[:7] == [0, 1, 0, 2, 1, 0, 3]  # color 3 calls neither 0 nor 1
        assert self.hall_on(adj) == self.reach_violator(range(6), adj) == {4, 5}

    def test_closed_component_inside_the_reach_is_in_the_violator(self):
        """Colors 4 and 5 go unmatched through color 3, which reaches
        element 10 of the closed pair. Their failed searches skip the pair,
        and its colors are in the violator all the same."""
        adj = {**self.CLOSING, 4: [13], 5: [13]}
        got = _kuhn_max_matching(range(6), adj.__getitem__)
        assert list(got.items()) == list(kuhn_reference(range(6), adj.__getitem__).items())
        assert self.hall_on(adj) == self.reach_violator(range(6), adj) == {0, 1, 3, 4, 5}


class TestRado:
    def test_free_matroid(self):
        out = rado_rainbow(fam(2, {0, 1}), free_matroid(2))
        assert isinstance(out, ChoiceFunction)

    def test_rank_deficient(self):
        out = rado_rainbow(fam(2, {0}, {1}), uniform_matroid(2, 1))
        assert isinstance(out, Violator)
        assert out.colors == {0, 1}

    def test_trees_of_k4_have_rainbow_base(self):
        g = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
        m = graphic_matroid(g)
        trees = (frozenset({0, 1, 2}), frozenset({0, 3, 5}), frozenset({1, 4, 5}))
        for t in trees:
            assert m.is_independent(t) and len(t) == 3
        out = rado_rainbow(ColoredFamily(GroundSet(6), trees), m)
        assert isinstance(out, ChoiceFunction)  # brute force agrees: base exists
        assert m.rank(out.image) == 3

    def test_ground_mismatch(self):
        with pytest.raises(InstanceError):
            rado_rainbow(fam(4, {3}), uniform_matroid(2, 1))

    def test_singleton_partition_matches_hall(self):
        for ground, colors in ((3, 3), (4, 2)):
            singleton = partition_matroid(
                ground, [[x] for x in range(ground)]
            )
            for f in all_families(ground, colors):
                hall = hall_rainbow(f)
                rado = rado_rainbow(f, singleton)
                assert isinstance(hall, ChoiceFunction) == isinstance(
                    rado, ChoiceFunction
                )
                if isinstance(rado, Violator):
                    union = family_union(f, rado.colors)
                    assert len(union) < len(rado.colors)

    def test_brute_agreement_with_matroids(self):
        matroids = [
            uniform_matroid(4, 2),
            partition_matroid(4, [[0, 1], [2, 3]], [1, 1]),
            graphic_matroid(Graph(3, ((0, 1), (1, 2), (2, 0), (0, 1)))),
            binary_matroid([0b01, 0, 0b10, 0b11]),  # a zero column
            binary_matroid([0b011, 0b100, 0b011, 0b110]),  # two parallel columns
        ]
        for m in matroids:
            for f in all_families(m.ground_size, 3):
                got = rado_rainbow(f, m)
                expect = brute_full_independent_choice(list(f.sets), m)
                assert isinstance(got, ChoiceFunction) == expect
                if isinstance(got, ChoiceFunction):
                    assert is_rainbow(f, got) and got.is_full_for(f)
                    assert m.is_independent(got.image)
                else:
                    assert m.rank(family_union(f, got.colors)) < len(got.colors)

    def test_binary_rado_makes_no_per_pair_rank_calls(self, monkeypatch):
        # answering each exchange arc with its own rank query made 4,341
        # gf2_rank calls on this family; one elimination per augmentation
        # leaves only the final violator check
        cols, sets = deficient_binary_family(random.Random(5), 40)
        calls = []
        monkeypatch.setattr("rainbowsets.matroids.gf2_rank",
                            lambda vs: calls.append(1) or gf2_rank(vs))
        fam = ColoredFamily(GroundSet(len(cols)), tuple(map(frozenset, sets)))
        assert isinstance(rado_rainbow(fam, binary_matroid(cols)), Violator)
        assert len(calls) < 4341 // 100, len(calls)

    def test_binary_rado_exchange_tests_scale_with_augmentations(self, monkeypatch):
        # every augmentation on this family has length 1; asking every
        # element outside I whether it is a source and a sink before each
        # of the 200 made 201,000 exchange tests, where an ascending scan
        # that goes on from the last element it took makes 1,200; and
        # building a new pair of tests for each of the 201 scans made 402
        # builds, where growing the first pair by each element added makes 2.
        # The last scan finds no element, and the search after it finds no
        # source (every color is used), so no circuit is asked
        calls, circuits, builds = [0], [0], [0]

        class Counted(IndependenceOracle):
            def exchange(self, independent):
                ok = super().exchange(independent)
                builds[0] += 1

                def counted(x, y):
                    calls[0] += 1
                    return ok(x, y)

                def circuit(y):
                    circuits[0] += 1
                    return ok.circuit(y)

                counted.circuit = circuit
                counted.add = ok.add
                return counted

        monkeypatch.setattr(transversals, "IndependenceOracle", Counted)
        cols, sets = full_binary_family(random.Random(17), 200)
        fam = ColoredFamily(GroundSet(len(cols)), tuple(map(frozenset, sets)))
        out = rado_rainbow(fam, binary_matroid(cols))
        assert isinstance(out, ChoiceFunction) and len(out.assignments) == 200
        assert (calls[0], circuits[0], builds[0]) == (1200, 0, 2)
        assert calls[0] + circuits[0] < 201_000 // 50, calls[0]
        assert builds[0] < 200 // 50, builds[0]

    def test_graphic_rado_keeps_no_rank_per_queried_subset(self):
        # 60 classes of 4 among 240 random edges on 60 vertices: keeping the
        # rank of every subset the search asked about peaked at 4.0 MiB
        rng = random.Random(3)
        edges = tuple(tuple(rng.sample(range(60), 2)) for _ in range(240))
        classes = tuple(frozenset(rng.sample(range(240), 4)) for _ in range(60))
        family = ColoredFamily(GroundSet(240), classes)
        m = graphic_matroid(Graph(60, edges))
        tracemalloc.start()
        try:
            out = rado_rainbow(family, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(out, Violator)
        assert m.rank(family_union(family, out.colors)) < len(out.colors)
        assert peak < 1 << 20, peak

    def test_empty_color_class(self):
        out = rado_rainbow(fam(2, frozenset(), {0, 1}), free_matroid(2))
        assert isinstance(out, Violator)
        assert 0 in out.colors
