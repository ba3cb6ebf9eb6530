import itertools
import random

import pytest

from rainbowsets._gf2 import gf2_in_span, gf2_rank, gf2_solve_subset
from rainbowsets.core import Graph, HypothesisViolation, InstanceError
from rainbowsets.matroids import binary_matroid, free_matroid, uniform_matroid
from rainbowsets.spancycles import (
    augmented_vector,
    cooperative_odd_cycle_check,
    edge_vectors,
    is_bipartite_via_span,
    rainbow_odd_cycle,
    rainbow_spanning_set,
)

from oracles import (
    brute_cooperative_violations,
    brute_is_bipartite,
    brute_rainbow_odd_cycle_exists,
    brute_rank,
)


def cycle_graph(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def random_odd_cycle_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    length = rng.choice([l for l in range(3, n + 1, 2)])
    verts = rng.sample(range(n), length)
    return [(verts[i], verts[(i + 1) % length]) for i in range(length)]


def odd_cycle_instance(rng: random.Random, n: int):
    edges: list[tuple[int, int]] = []
    fams = []
    for _ in range(n):
        ids = []
        for uv in random_odd_cycle_edges(rng, n):
            ids.append(len(edges))
            edges.append(uv)
        fams.append(frozenset(ids))
    return Graph(n, tuple(edges)), fams


def check_result(g: Graph, fams, res):
    k = len(res.edges)
    assert k % 2 == 1
    assert len(set(res.colors)) == k
    assert len(set(res.vertices)) == k
    for i, e in enumerate(res.edges):
        u, v = g.edges[e]
        assert {u, v} == {res.vertices[i], res.vertices[(i + 1) % k]}
        assert e in fams[res.colors[i]]


class TestEdgeVectors:
    def test_single_edge_bits(self):
        g = Graph(2, ((0, 1),))
        v = augmented_vector(g, 0)
        assert v == 0b111  # endpoint bits 0,1 plus the parity bit

    def test_triangle_sums_to_target(self):
        g = cycle_graph(3)
        total = 0
        for e in range(3):
            total ^= augmented_vector(g, e)
        assert total == 1 << 3

    def test_c4_sums_to_zero(self):
        g = cycle_graph(4)
        total = 0
        for e in range(4):
            total ^= augmented_vector(g, e)
        assert total == 0

    def test_random_odd_cycles_sum_to_target(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(3, 9)
            edges = random_odd_cycle_edges(rng, max(3, n))
            g = Graph(max(3, n), tuple(edges))
            total = 0
            for e in range(g.num_edges):
                total ^= augmented_vector(g, e)
            assert total == 1 << g.n

    def test_matroid_has_adjoined_target(self):
        g = cycle_graph(3)
        vectors, matroid = edge_vectors(g)
        assert matroid.ground_size == g.num_edges + 1
        assert len(vectors) == g.num_edges


class TestBipartiteViaSpan:
    def test_c4(self):
        assert is_bipartite_via_span(cycle_graph(4))

    def test_c3(self):
        assert not is_bipartite_via_span(cycle_graph(3))

    def test_empty(self):
        assert is_bipartite_via_span(Graph(3, ()))

    def test_all_graphs_on_four_vertices(self):
        pairs = list(itertools.combinations(range(4), 2))
        for mask in range(1 << len(pairs)):
            edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
            g = Graph(4, edges)
            assert is_bipartite_via_span(g) == brute_is_bipartite(g)

    def test_parallel_edges(self):
        g = Graph(2, ((0, 1), (0, 1)))
        assert is_bipartite_via_span(g)  # a doubled edge is an even cycle


class TestRainbowSpanningSet:
    def test_trivial_single_set(self):
        res = rainbow_spanning_set(free_matroid(1), {0}, [frozenset({0})])
        assert res.function.as_dict() == {0: 0}
        assert res.deficient_colors is None

    def test_full_ground_target_is_rado(self):
        m = free_matroid(3)
        res = rainbow_spanning_set(
            m, {0, 1, 2},
            [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})],
        )
        assert len(res.function) == 3  # a rainbow base
        assert m.is_independent(res.image)

    def test_deficient_route(self):
        # two copies of the same parallel class force the cooperative route
        m = binary_matroid([0b01, 0b01, 0b10])
        res = rainbow_spanning_set(m, {1}, [frozenset({0, 1}), frozenset({0, 1})])
        assert res.deficient_colors == {0, 1}
        assert res.dropped_color == 0
        assert m.in_span(res.image, 1)

    def test_rank_exceeds_colors_rejected(self):
        with pytest.raises(HypothesisViolation, match="rank"):
            rainbow_spanning_set(free_matroid(3), {0}, [frozenset({0})])

    def test_hypothesis_violation_names_colors(self):
        m = uniform_matroid(4, 2)
        with pytest.raises(HypothesisViolation) as err:
            rainbow_spanning_set(
                m, {3}, [frozenset({0}), frozenset({0})],
            )
        assert err.value.witness == {0, 1}

    def test_deficient_pair_among_many_colors_rejected(self):
        # 17 colors: [0], [0] and [1, c] for c = 2..16 on unit columns,
        # target e1. Only the pair {0, 1} breaks the hypothesis.
        m = binary_matroid([1 << i for i in range(17)])
        sets = [frozenset({0}), frozenset({0})] + [
            frozenset({1, c}) for c in range(2, 17)]
        with pytest.raises(HypothesisViolation) as err:
            rainbow_spanning_set(m, {1}, sets)
        assert err.value.witness == {0, 1}

    def test_deficient_set_hiding_a_smaller_one(self):
        # Rado's first violator is larger, and Rado fails again once its
        # smallest color is dropped: {2, 4} (both {0}) is deficient and is
        # the set the proof uses.
        m = binary_matroid([0b101, 0b011, 0b110, 0b010])
        sets = [frozenset({2, 3}), frozenset({0, 2, 3}), frozenset({0}),
                frozenset({1, 2, 3}), frozenset({0})]
        res = rainbow_spanning_set(m, {0}, sets)
        assert res.deficient_colors == {2, 4}
        assert res.function.as_dict() == {4: 0}
        with pytest.raises(HypothesisViolation) as err:
            rainbow_spanning_set(m, {3}, sets)
        assert err.value.witness == {2, 4}

    def test_agrees_with_brute_hypothesis(self):
        rng = random.Random(11)
        for _ in range(300):
            bits = rng.randint(1, 3)
            ground = rng.randint(bits, 5)
            m = binary_matroid([rng.randint(0, (1 << bits) - 1) for _ in range(ground)])
            n = m.rank() + rng.randint(0, 2)
            target = set(rng.sample(range(ground), rng.randint(1, min(2, ground))))
            sets = [frozenset(x for x in range(ground) if rng.random() < 0.4)
                    or frozenset({rng.randrange(ground)}) for _ in range(n)]
            violations = brute_cooperative_violations(m, target, sets)
            try:
                res = rainbow_spanning_set(m, target, sets)
            except HypothesisViolation as err:
                assert violations
                assert err.witness in violations
                continue
            image = res.image
            assert len(image) == len(res.function)
            for c, x in res.function.assignments:
                assert x in sets[c]
            rank = brute_rank(m, image)
            assert all(brute_rank(m, image | {t}) == rank for t in target)
            if res.deficient_colors is not None:
                deficient, dropped = res.deficient_colors, res.dropped_color
                union = frozenset().union(*(sets[c] for c in deficient))
                assert brute_rank(m, union) == len(deficient) - 1
                assert dropped == min(deficient)
                assert res.function.domain == deficient - {dropped}

    def test_deficient_color_found_by_dropping(self):
        # All four colors are deficient (rank 2); with color 0 dropped, Rado
        # finds the empty color 1 deficient on its own. Its union misses the
        # target, so color 1 is the witness, although {1, 2, 3} is
        # deficient too and spans the target.
        m = binary_matroid([0b101, 0b001])
        sets = [frozenset({1}), frozenset(), frozenset({0, 1}), frozenset({0, 1})]
        with pytest.raises(HypothesisViolation) as err:
            rainbow_spanning_set(m, {0}, sets)
        assert err.value.witness == {1}

    def test_output_invariants_random(self):
        rng = random.Random(5)
        for _ in range(40):
            bits = rng.randint(1, 4)
            ground = rng.randint(bits, 6)
            cols = [rng.randint(1, (1 << bits) - 1) for _ in range(ground)]
            m = binary_matroid(cols)
            n = m.rank()
            target = {rng.randrange(ground)}
            sets = [
                frozenset(x for x in range(ground) if rng.random() < 0.7) or
                frozenset({rng.randrange(ground)})
                for _ in range(n)
            ]
            try:
                res = rainbow_spanning_set(m, target, sets)
            except HypothesisViolation:
                continue
            assert m.is_independent(res.image)
            for t in target:
                assert m.in_span(res.image, t)
            for c, x in res.function.assignments:
                assert x in sets[c]


class TestRainbowOddCycle:
    def test_three_triangles(self):
        g = cycle_graph(3)
        fams = [frozenset({0, 1, 2})] * 3
        res = rainbow_odd_cycle(g, fams)
        check_result(g, fams, res)
        assert len(res) == 3

    def test_sharpness_count_violation(self):
        g = cycle_graph(5)
        with pytest.raises(HypothesisViolation):
            rainbow_odd_cycle(g, [frozenset(range(5))] * 4)

    def test_sharpness_no_rainbow_exists(self):
        g = cycle_graph(5)
        fams = [frozenset(range(5))] * 4
        assert not brute_rainbow_odd_cycle_exists(g, fams)

    def test_no_odd_cycle_in_class_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(HypothesisViolation):
            rainbow_odd_cycle(g, [frozenset({0, 1, 2, 3})] * 4)

    def test_random_valid_instances(self):
        rng = random.Random(6)
        for _ in range(80):
            n = rng.randint(3, 7)
            g, fams = odd_cycle_instance(rng, n)
            res = rainbow_odd_cycle(g, fams)
            check_result(g, fams, res)

    def test_agrees_with_brute_existence(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(3, 5)
            g, fams = odd_cycle_instance(rng, n)
            assert brute_rainbow_odd_cycle_exists(g, fams)
            check_result(g, fams, rainbow_odd_cycle(g, fams))


class TestCooperativeOddCycle:
    def test_all_odd_cycles_specializes(self):
        rng = random.Random(8)
        g, fams = odd_cycle_instance(rng, 5)
        res = cooperative_odd_cycle_check(g, fams)
        check_result(g, fams, res)

    def test_failure_names_color_set(self):
        g = Graph(2, ((0, 1),))
        with pytest.raises(HypothesisViolation) as err:
            cooperative_odd_cycle_check(g, [frozenset({0}), frozenset({0})])
        assert err.value.witness == {0, 1}

    def test_violation_outside_deficient_set_answers(self):
        # {0, 1} breaks the condition (one edge, no odd cycle), but the
        # deficient set the proof uses is {1, 2, 3, 4}, Rado's violator once
        # color 0 is dropped, which has a triangle, so the answer is
        # verified instead of rejected.
        g = Graph(5, ((0, 1), (1, 2), (2, 0)))
        fams = [frozenset({0}), frozenset({0})] + [frozenset({0, 1, 2})] * 3
        res = cooperative_odd_cycle_check(g, fams)
        check_result(g, fams, res)
        assert sorted(res.colors) == [2, 3, 4]

    def test_triangle_plus_forests(self):
        # n = 3: one triangle class plus two forest classes with high rank
        edges = ((0, 1), (1, 2), (2, 0), (0, 1), (1, 2), (0, 2), (1, 2))
        g = Graph(3, edges)
        fams = [frozenset({0, 1, 2}), frozenset({3, 4}), frozenset({5, 6})]
        res = cooperative_odd_cycle_check(g, fams)
        check_result(g, fams, res)
        assert brute_rainbow_odd_cycle_exists(g, fams)


def xor_of(vectors, indices) -> int:
    total = 0
    for i in indices:
        total ^= vectors[i]
    return total


def brute_subsets_summing_to(vectors, target) -> list[list[int]]:
    return [list(idx) for size in range(len(vectors) + 1)
            for idx in itertools.combinations(range(len(vectors)), size)
            if xor_of(vectors, idx) == target]


def brute_subsets_summing_to_among(vectors, indices, target) -> list[list[int]]:
    return [list(idx) for size in range(len(indices) + 1)
            for idx in itertools.combinations(indices, size)
            if xor_of(vectors, idx) == target]


def independent_vectors(rng: random.Random, k: int, bits: int) -> list[int]:
    """k random vectors over `bits` coordinates, no nonempty subset of which
    sums to zero (by brute force)."""
    while True:
        vectors = [rng.randrange(1, 1 << bits) for _ in range(k)]
        if brute_subsets_summing_to(vectors, 0) == [[]]:
            return vectors


class TestGf2SolveSubset:
    def test_matches_brute_subset_search(self):
        rng = random.Random(2)
        for _ in range(200):
            bits = rng.randint(1, 7)
            vectors = independent_vectors(rng, rng.randint(0, bits), bits)
            target = xor_of(vectors, [i for i in range(len(vectors)) if rng.random() < 0.5])
            assert [gf2_solve_subset(vectors, target)] == brute_subsets_summing_to(vectors, target)

    def test_target_outside_the_span(self):
        rng = random.Random(3)
        checked = 0
        for _ in range(200):
            bits = rng.randint(1, 7)
            vectors = independent_vectors(rng, rng.randint(0, bits - 1), bits)
            target = rng.randrange(1 << bits)
            if brute_subsets_summing_to(vectors, target):
                continue
            checked += 1
            assert gf2_solve_subset(vectors, target) is None
        assert checked > 50


class TestGf2Kernels:
    def test_rank_span_and_solve_match_subset_xors(self):
        # vector sets drawn from a small pool plus zero, so most hold a
        # repeated, zero or otherwise dependent vector
        rng = random.Random(8)
        kinds = {"zero": 0, "repeat": 0, "dependent": 0}
        for _ in range(300):
            bits = rng.randint(1, 5)
            pool = [0] + [rng.randrange(1 << bits) for _ in range(3)]
            vectors = [rng.choice(pool) if rng.random() < 0.5 else rng.randrange(1 << bits)
                       for _ in range(rng.randint(0, 7))]
            span = {xor_of(vectors, idx) for size in range(len(vectors) + 1)
                    for idx in itertools.combinations(range(len(vectors)), size)}
            # the inputs outside the span of those before them; a solution
            # uses only these, so it is their unique subset on the target
            kept = [i for i in range(len(vectors))
                    if vectors[i] not in {xor_of(vectors, idx) for size in range(i + 1)
                                          for idx in itertools.combinations(range(i), size)}]
            kinds["zero"] += 0 in vectors
            kinds["repeat"] += len(set(vectors)) < len(vectors)
            kinds["dependent"] += len(span) < 1 << len(vectors)
            assert 1 << gf2_rank(vectors) == len(span), vectors
            for target in range(1 << bits):
                assert gf2_in_span(vectors, target) == (target in span), (vectors, target)
                got = gf2_solve_subset(vectors, target)
                if target in span:
                    assert xor_of(vectors, got) == target
                    assert [got] == brute_subsets_summing_to_among(vectors, kept, target)
                else:
                    assert got is None, (vectors, target)
        assert min(kinds.values()) > 50, kinds

