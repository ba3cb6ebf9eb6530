import copy
import hashlib
import itertools
import json
import random

import pytest

from rainbowsets import matroids, spancycles
from rainbowsets.core import ColoredFamily, Graph, GroundSet, InstanceError, ResourceCapError
from rainbowsets.harness import random_matroid
from rainbowsets.matroids import (
    IndependenceOracle,
    _cover,
    _intersection_augment,
    _maximal_members,
    _meet,
    _member_masks,
    _two_cover_settled,
    binary_matroid,
    check_two_cover,
    covering_number,
    direct_sum,
    free_matroid,
    from_descriptor,
    graphic_matroid,
    matroid_intersection,
    partition_matroid,
    truncate,
    uniform_matroid,
)
from rainbowsets.transversals import _rado_lifts, rado_rainbow

from oracles import (
    brute_covering_number,
    brute_intersection_minmax,
    brute_matroid_intersection_size,
    is_matroid,
    reference_independent,
    reference_maximal_members,
    reference_member_queries,
    reference_member_table,
    reference_ranks,
)


def k4() -> Graph:
    return Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def c3() -> Graph:
    return Graph(3, ((0, 1), (1, 2), (2, 0)))


def subsets(ground: int) -> list[frozenset[int]]:
    return [frozenset(i for i in range(ground) if mask >> i & 1)
            for mask in range(1 << ground)]


# One oracle per construction (and edge case) whose rank has its own code;
# each descriptor names a matroid that tests/oracles.py rebuilds on its own.
RANK_CASES = {
    # elements 5 and 6 lie in no part; the second part has capacity 0
    "partition-free-caps-0-2": lambda: partition_matroid(7, [[0, 1, 2], [3, 4]], [2, 0]),
    "uniform-k0": lambda: uniform_matroid(4, 0),
    "uniform-k2": lambda: uniform_matroid(5, 2),
    "free": lambda: free_matroid(4),
    "graphic-parallel": lambda: graphic_matroid(
        Graph(5, ((0, 1), (0, 1), (1, 2), (2, 0), (2, 3), (2, 3), (3, 4)))),
    "binary-zero-duplicate": lambda: binary_matroid([0, 0b011, 0b011, 0b101, 0, 0b110, 0b001]),
    "truncated-graphic": lambda: truncate(graphic_matroid(k4()), 2),
    "truncated-binary": lambda: truncate(binary_matroid([0b01, 0b10, 0b11, 0b01, 0]), 1),
    "direct-sum-graphic-binary": lambda: direct_sum(
        graphic_matroid(c3()), binary_matroid([0b01, 0b01, 0, 0b10])),
    # an oracle built directly from a rank function on subset bitmasks: at
    # most one of {0, 1}, at most three overall
    "bare-rank-fn": lambda: IndependenceOracle(
        5, lambda s: min(3, (s & ~0b11).bit_count() + min(1, (s & 0b11).bit_count())),
        {"kind": "truncation", "k": 3,
         "inner": {"kind": "partition", "ground_size": 5, "parts": [[0, 1]], "caps": [1]}}),
}


def assert_matches_reference(m: IndependenceOracle, label):
    """is_independent and rank of every subset agree with the reference
    computed from the descriptor alone."""
    ranks = reference_ranks(m.descriptor, m.ground_size)
    for mask, s in enumerate(subsets(m.ground_size)):
        assert m.is_independent(s) == reference_independent(m.descriptor, s), (label, sorted(s))
        assert m.rank(s) == ranks[mask], (label, sorted(s))
    assert m.rank() == ranks[-1]


class TestConstructions:
    def test_partition_examples(self):
        m = partition_matroid(3, [[0, 1], [2]], [1, 1])
        assert m.is_independent({0, 2})
        assert not m.is_independent({0, 1})
        m2 = partition_matroid(3, [[0, 1], [2]], [2, 1])
        assert m2.is_independent({0, 1, 2})

    def test_repr_names_kind_and_ground(self):
        assert repr(partition_matroid(3, [[0, 1], [2]], [1, 1])) == (
            "IndependenceOracle(partition, m=3)")

    def test_partition_free_elements(self):
        # elements in no part never count against a capacity
        m = partition_matroid(4, [[0, 1]], [1])
        assert m.is_independent({0, 2, 3})

    def test_partition_overlap_rejected(self):
        with pytest.raises(InstanceError):
            partition_matroid(3, [[0, 1], [1, 2]])

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: IndependenceOracle(-1, int.bit_count, {"kind": "free"}),
                     r"^ground size must be >= 0$", id="oracle-ground-negative"),
        pytest.param(lambda: check_two_cover(free_matroid(2), free_matroid(3)),
                     r"^check_two_cover needs a shared ground set$", id="two-cover-grounds"),
        pytest.param(lambda: from_descriptor({"kind": "partition", "parts": [[0]]}),
                     r"^matroid\.ground_size: required field is missing$",
                     id="partition-without-ground-size"),
        pytest.param(lambda: partition_matroid(3, [[0, 1], [1, 2]]),
                     r"^parts: overlap at element 1$", id="partition-overlap"),
        pytest.param(lambda: partition_matroid(3, [[0], [1]], [1]),
                     r"^caps: parts and caps must have equal length$", id="partition-caps-short"),
        pytest.param(lambda: from_descriptor({"kind": "truncation", "k": -2, "inner": {
                         "kind": "free", "ground_size": 2}}),
                     r"^matroid\.k: must be >= 0, got -2$", id="truncation-k-negative"),
    ])
    def test_input_errors(self, call, message):
        with pytest.raises(InstanceError, match=message):
            call()

    def test_uniform_zero(self):
        m = uniform_matroid(3, 0)
        assert m.is_independent(set())
        assert not m.is_independent({0})

    def test_graphic_cycle(self):
        m = graphic_matroid(c3())
        for pair in itertools.combinations(range(3), 2):
            assert m.is_independent(pair)
        assert not m.is_independent({0, 1, 2})

    def test_binary_rank_two(self):
        m = binary_matroid([0b01, 0b10, 0b11])
        for pair in itertools.combinations(range(3), 2):
            assert m.is_independent(pair)
        assert not m.is_independent({0, 1, 2})

    def test_truncation(self):
        m = truncate(free_matroid(4), 2)
        assert m.is_independent({0, 3})
        assert not m.is_independent({0, 1, 2})

    def test_direct_sum(self):
        m = direct_sum(uniform_matroid(2, 1), uniform_matroid(2, 2))
        assert m.is_independent({0, 2, 3})
        assert not m.is_independent({0, 1})

    def test_axioms_spot_checks(self):
        oracles = [
            partition_matroid(6, [[0, 1, 2], [3, 4]], [2, 1]),
            uniform_matroid(5, 3),
            graphic_matroid(k4()),
            binary_matroid([0b001, 0b010, 0b100, 0b011, 0b111]),
            truncate(graphic_matroid(k4()), 2),
            direct_sum(uniform_matroid(3, 2), uniform_matroid(3, 1)),
        ]
        for m in oracles:
            assert is_matroid(m), m.descriptor

    def test_descriptor_roundtrip(self):
        originals = [
            partition_matroid(5, [[0, 2], [1, 3]], [1, 2]),
            uniform_matroid(4, 2),
            graphic_matroid(c3()),
            binary_matroid([0b01, 0b10, 0b11]),
            truncate(uniform_matroid(4, 3), 2),
            direct_sum(uniform_matroid(2, 1), free_matroid(2)),
            binary_matroid([0, 0]),
            direct_sum(binary_matroid([0, 0]), free_matroid(1)),
        ]
        for m in originals:
            rebuilt = from_descriptor(m.descriptor)
            assert rebuilt.ground_size == m.ground_size
            for mask in range(1 << m.ground_size):
                s = frozenset(i for i in range(m.ground_size) if mask >> i & 1)
                assert rebuilt.is_independent(s) == m.is_independent(s)

    @pytest.mark.parametrize("desc, field", [
        pytest.param(5, "matroid: expected an object", id="scalar"),
        pytest.param({"kind": "uniform"}, "matroid.k: required field", id="uniform-without-k"),
        pytest.param({"kind": "binary", "matrix": [["a", 1]]}, "matroid.matrix[0][0]",
                     id="binary-matrix-entry-string"),
    ])
    def test_malformed_descriptor_names_the_field(self, desc, field):
        with pytest.raises(InstanceError) as exc:
            from_descriptor(desc, 3)
        assert field in str(exc.value)

    def test_binary_rejects_negative_columns(self):
        # a negative int has no finite bit column: the columns -1, 1, 2
        # have rank 3, but the matrix rows of their low bits give the
        # columns (1, 1), (1, 0), (0, 1), of rank 2
        with pytest.raises(InstanceError, match=r"columns\[1\]: negative column -1"):
            binary_matroid([1, -1, 2, -4])


def binary_4() -> IndependenceOracle:
    return binary_matroid([0b101, 0b010, 0b011, 0])


class TestLazyDescriptor:
    """A construction may pass its descriptor as a callable: it is called on
    the first read, and the dict it returns is the one every read gives."""

    # json.dumps of each descriptor: the form that serialized instances carry
    PINNED = {
        "binary": (binary_4, '{"kind": "binary", "matrix": [[1, 0, 1, 0], [0, 1, 1, 0], '
                             '[1, 0, 0, 0]]}'),
        "binary-zero": (lambda: binary_matroid([0, 0]), '{"kind": "binary", "matrix": [[0, 0]]}'),
        "binary-empty": (lambda: binary_matroid([]), '{"kind": "binary", "matrix": [[]]}'),
        "graphic": (lambda: graphic_matroid(Graph(3, ((0, 1), (1, 2), (0, 2), (0, 1)))),
                    '{"kind": "graphic", "graph": {"n": 3, "edges": [[0, 1], [1, 2], '
                    '[0, 2], [0, 1]]}}'),
        "truncation": (lambda: truncate(binary_4(), 2),
                       '{"kind": "truncation", "k": 2, "inner": {"kind": "binary", '
                       '"matrix": [[1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 0]]}}'),
        "direct-sum": (lambda: direct_sum(binary_4(), free_matroid(2)),
                       '{"kind": "direct-sum", "left": {"kind": "binary", "matrix": '
                       '[[1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 0]]}, "right": '
                       '{"kind": "free", "ground_size": 2}}'),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_and_round_trip(self, name):
        make, pinned = self.PINNED[name]
        m = make()
        assert json.dumps(m.descriptor) == pinned
        assert from_descriptor(m.descriptor).descriptor == m.descriptor

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_reads_return_one_dict(self, name):
        m = self.PINNED[name][0]()
        assert m.descriptor is m.descriptor

    def test_callable_called_on_first_read_only(self):
        calls = []

        def describe():
            calls.append(1)
            return {"kind": "free", "ground_size": 2}

        m = IndependenceOracle(2, int.bit_count, describe)
        assert m.rank() == 2 and m.is_independent({0, 1}) and not calls
        first = m.descriptor
        assert first == {"kind": "free", "ground_size": 2} and m.descriptor is first
        assert len(calls) == 1

    def test_wrapping_builds_no_inner_descriptor(self):
        inner = binary_4()
        truncate(inner, 2), direct_sum(inner, inner)
        assert callable(inner._descriptor)

    def test_rado_leaves_the_descriptor_unbuilt(self):
        m = binary_4()
        fam = ColoredFamily(GroundSet(4), (frozenset({0, 1}), frozenset({1, 2})))
        assert len(rado_rainbow(fam, m)) == 2
        assert callable(m._descriptor)

    def test_odd_cycle_leaves_the_descriptor_unbuilt(self, monkeypatch):
        built = []

        def recorded(columns):
            built.append(binary_matroid(columns))
            return built[-1]

        monkeypatch.setattr(spancycles, "binary_matroid", recorded)
        g = Graph(3, ((0, 1), (1, 2), (0, 2)))
        assert len(spancycles.rainbow_odd_cycle(g, [frozenset({0, 1, 2})] * 3)) == 3
        assert built and all(callable(m._descriptor) for m in built)


class TestRankAndSpan:
    @pytest.mark.parametrize("name", sorted(RANK_CASES))
    def test_rank_matches_brute_on_every_subset(self, name):
        assert_matches_reference(RANK_CASES[name](), name)

    def test_random_matroid_rank_matches_brute(self):
        for seed in range(50):
            m = random_matroid(random.Random(seed), 3 + seed % 5)
            assert_matches_reference(m, m.descriptor)

    @pytest.mark.parametrize("name", sorted(RANK_CASES))
    def test_out_of_range_rejected(self, name):
        m = RANK_CASES[name]()
        g = m.ground_size
        with pytest.raises(InstanceError, match=f"element {g} outside"):
            m.rank({0, g})
        with pytest.raises(InstanceError, match="element -1 outside"):
            m.rank({g + 1, -1, 0})
        with pytest.raises(InstanceError, match=f"element {g} outside"):
            m.in_span({0}, g)
        with pytest.raises(InstanceError, match=f"element {g} outside"):
            m.in_span({g}, 0)
        with pytest.raises(InstanceError, match=f"element {g} outside"):
            m.in_span({0, g}, 0)

    def test_rank_empty(self):
        assert uniform_matroid(4, 2).rank(set()) == 0

    def test_rank_k4_spanning_tree(self):
        assert graphic_matroid(k4()).rank() == 3

    def test_rank_binary(self):
        assert binary_matroid([0b01, 0b10, 0b11]).rank() == 2

    def test_in_span_element_of_set(self):
        assert uniform_matroid(3, 1).in_span({0}, 0)

    def test_in_span_cycle_closure(self):
        m = graphic_matroid(c3())
        assert m.in_span({0, 1}, 2)

    def test_in_span_rank_grows(self):
        assert not uniform_matroid(3, 2).in_span({0}, 1)

    def test_rank_monotone_submodular_exhaustive(self):
        for m in (graphic_matroid(k4()),
                  partition_matroid(5, [[0, 1], [2, 3, 4]], [1, 2]),
                  binary_matroid([0b011, 0b101, 0b110, 0b111])):
            g = m.ground_size
            subsets = [
                frozenset(i for i in range(g) if mask >> i & 1)
                for mask in range(1 << g)
            ]
            for a in subsets:
                for x in range(g):
                    assert m.rank(a) <= m.rank(a | {x}) <= m.rank(a) + 1
            rng = random.Random(0)
            for _ in range(200):
                a = rng.choice(subsets)
                b = rng.choice(subsets)
                assert (m.rank(a | b) + m.rank(a & b)
                        <= m.rank(a) + m.rank(b))


PINNED_INTERSECTIONS = "87046395b2c9307757b1fd8285b36cd1261d01102cb21262f6be400c84869e45"


class TestIntersection:
    def test_uniform_pair(self):
        u = uniform_matroid(3, 2)
        assert len(matroid_intersection(u, u)) == 2

    def test_partition_pair(self):
        m1 = partition_matroid(3, [[0, 1], [2]])
        m2 = partition_matroid(3, [[0], [1, 2]])
        got = matroid_intersection(m1, m2)
        assert len(got) == 2  # frozen via exhaustive subset enumeration
        assert m1.is_independent(got) and m2.is_independent(got)

    def test_graphic_uniform(self):
        assert len(matroid_intersection(graphic_matroid(c3()),
                                        uniform_matroid(3, 1))) == 1

    def test_ground_mismatch(self):
        with pytest.raises(InstanceError):
            matroid_intersection(uniform_matroid(2, 1), uniform_matroid(3, 1))

    def test_minmax_on_random_pairs(self):
        rng = random.Random(11)
        from rainbowsets.harness import random_matroid

        for _ in range(25):
            ground = rng.randint(1, 6)
            m1 = random_matroid(rng, ground)
            m2 = random_matroid(rng, ground)
            got = matroid_intersection(m1, m2)
            assert m1.is_independent(got) and m2.is_independent(got)
            assert len(got) == brute_matroid_intersection_size(m1, m2)
            assert len(got) == brute_intersection_minmax(m1, m2)

    def test_reachable_set_certifies_the_maximum(self):
        # no sink is reachable from the sources: each element of S - R is
        # spanned by I - R in m1, each of R by I & R in m2, so
        # |I| = r1(S - R) + r2(R), with ranks read from the descriptors
        rng = random.Random(23)
        for _ in range(150):
            ground = rng.randint(1, 7)
            m1, m2 = random_matroid(rng, ground), random_matroid(rng, ground)
            common, reach = _intersection_augment(m1, m2)
            inside = sum(1 << x for x in reach)
            r1 = reference_ranks(m1.descriptor, ground)[((1 << ground) - 1) ^ inside]
            r2 = reference_ranks(m2.descriptor, ground)[inside]
            assert len(common) == r1 + r2, (m1.descriptor, m2.descriptor, sorted(reach))

    def test_exchange_tests_and_augmentations_pinned(self):
        # a search scans on from the last element it added for one with
        # I + y independent in both matroids, and only a search whose scan
        # finds none asks every element outside I whether it is a source,
        # the m1 circuit of each outside element that is not (once, when it
        # first dequeues an element of I), the m2 circuit of each outside
        # element it reaches, and each of those whether it is a sink; after
        # a longer path the scan is skipped. A pair of exchange tests is
        # built at the start and after each longer path only: a scan hit
        # grows both tests by the element it adds. Asking an exchange test
        # per arc instead made 1,076 tests and no circuit
        builds, tests, circuits, augmentations = [0], [0], [0], 0

        def counted(m: IndependenceOracle) -> IndependenceOracle:
            """A copy of m whose exchange tests and circuit queries are
            counted; m itself, which a lift may call, stays uncounted."""
            exchange = m.exchange

            def exchange_counted(independent):
                ok = exchange(independent)
                builds[0] += 1

                def ok_counted(x, y):
                    tests[0] += 1
                    return ok(x, y)

                def circuit_counted(y):
                    circuits[0] += 1
                    return ok.circuit(y)

                ok_counted.circuit = circuit_counted
                ok_counted.add = ok.add
                return ok_counted

            copied = copy.copy(m)
            copied.exchange = exchange_counted
            return copied

        rng = random.Random(31)
        for _ in range(40):
            ground = rng.randint(1, 8)
            m = random_matroid(rng, ground)
            _, colors, lifted = _rado_lifts(random_family(rng, ground), m)
            for m1, m2 in [(m, random_matroid(rng, ground)), (colors, lifted)]:
                common, _ = _intersection_augment(counted(m1), counted(m2))
                augmentations += len(common)
        assert (builds[0] // 2, augmentations, tests[0], circuits[0]) == (83, 160, 936, 131)

    def test_results_pinned_at_parent(self):
        # sha256 of the (common, reachable) pairs on a seeded batch, recorded
        # before the length-1 augmentations were taken by a scan: the BFS
        # would take the same element, so nothing here may move
        rng = random.Random(59)
        results = []
        for _ in range(400):
            ground = rng.randint(1, 9)
            results.append(_intersection_augment(random_matroid(rng, ground),
                                                 random_matroid(rng, ground)))
        for _ in range(60):
            for m in (binary_matroid(random_binary_columns(rng)),
                      random_matroid(rng, rng.randint(1, 9))):
                _, colors, lifted = _rado_lifts(random_family(rng, m.ground_size), m)
                results.append(_intersection_augment(colors, lifted))
        pairs = repr([(sorted(common), sorted(reach)) for common, reach in results])
        assert hashlib.sha256(pairs.encode()).hexdigest() == PINNED_INTERSECTIONS


def random_binary_columns(rng: random.Random) -> list[int]:
    """Seeded GF(2) columns with at least one zero column and one pair of
    parallel columns, in random order."""
    bits = rng.randint(1, 4)
    cols = [rng.getrandbits(bits) for _ in range(rng.randint(1, 6))]
    cols += [0, cols[0]]
    rng.shuffle(cols)
    return cols


def random_independent(rng: random.Random, m: IndependenceOracle) -> frozenset[int]:
    """An independent set of random size, grown greedily in random order."""
    order = list(range(m.ground_size))
    rng.shuffle(order)
    size = rng.randint(0, m.rank())
    chosen: set[int] = set()
    for e in order:
        if len(chosen) == size:
            break
        if m.is_independent(chosen | {e}):
            chosen.add(e)
    return frozenset(chosen)


def random_family(rng: random.Random, ground: int) -> ColoredFamily:
    colors = rng.randint(1, 4)
    return ColoredFamily(GroundSet(ground), tuple(
        frozenset(rng.sample(range(ground), rng.randint(0, min(3, ground))))
        for _ in range(colors)))


def without_exchange(m: IndependenceOracle) -> IndependenceOracle:
    """The same rank function with no native forms: the default,
    query-per-pair exchange test, and member tables by the rank scan."""
    return IndependenceOracle(m.ground_size, m._rank_fn, m.descriptor)


def assert_exchange_matches(m: IndependenceOracle, independent: frozenset[int], label,
                            ok=None):
    """ok(x, y) == is_independent(I - x + y) for every x in I or None and
    every y outside I, and ok.circuit(y) is the mask of the x in I with
    I - x + y independent, or -1 when I + y is independent, where ok is I's
    exchange test, by default a fresh m.exchange(I)."""
    if ok is None:
        ok = m.exchange(independent)
    for y in range(m.ground_size):
        if y in independent:
            continue
        for x in [None, *sorted(independent)]:
            rest = independent if x is None else independent - {x}
            assert ok(x, y) == m.is_independent(rest | {y}), (label, sorted(independent), x, y)
        circuit = -1 if m.is_independent(independent | {y}) else sum(
            1 << x for x in independent if m.is_independent(independent - {x} | {y}))
        assert ok.circuit(y) == circuit, (label, sorted(independent), y)


def random_partition(rng: random.Random) -> IndependenceOracle:
    """Seeded parts of a ground of up to 8 elements, some elements in no
    part and caps from 0 to 2."""
    ground = rng.randint(1, 8)
    elements = rng.sample(range(ground), rng.randint(0, ground))
    cuts = sorted(rng.sample(range(len(elements) + 1), rng.randint(0, len(elements))))
    parts = [elements[a:b] for a, b in zip([0, *cuts], [*cuts, len(elements)])]
    return partition_matroid(ground, parts, [rng.randint(0, 2) for _ in parts])


def exchange_cases(seed: int) -> list[tuple[str, IndependenceOracle]]:
    """A binary matroid with zero and parallel columns, a partition matroid
    with free elements, the binary matroid's default test, and both Rado
    lifts of a random family over a binary and over a random matroid."""
    rng = random.Random(seed)
    m = binary_matroid(random_binary_columns(rng))
    _, colors_b, matroid_b = _rado_lifts(random_family(rng, m.ground_size), m)
    inner = random_matroid(rng, rng.randint(1, 6))
    _, colors_r, matroid_r = _rado_lifts(random_family(rng, inner.ground_size), inner)
    return [("binary", m), ("partition", random_partition(rng)),
            ("default-binary", without_exchange(m)), ("color-lift", colors_b),
            ("binary-lift", matroid_b), ("color-lift-random", colors_r),
            ("lift-" + inner.descriptor["kind"], matroid_r)]


class TestExchange:
    @pytest.mark.parametrize("seed", range(40))
    def test_native_exchange_matches_independence(self, seed):
        rng = random.Random(1000 + seed)
        for label, m in exchange_cases(seed):
            for _ in range(4):
                assert_exchange_matches(m, random_independent(rng, m), label)

    @pytest.mark.parametrize("seed", range(20))
    def test_grown_test_matches_a_fresh_one(self, seed):
        # grow a test from a random independent set to a basis, one random
        # addable y at a time; before each add every y outside I is asked,
        # so an answer cached for I that is stale for I + y would show
        rng = random.Random(3000 + seed)
        cases = exchange_cases(seed) + [(name, make()) for name, make in sorted(RANK_CASES.items())]
        for label, m in cases:
            independent = random_independent(rng, m)
            ok = m.exchange(independent)
            while True:
                addable = [y for y in range(m.ground_size)
                           if y not in independent and ok(None, y)]
                if not addable:
                    break
                y = rng.choice(addable)
                ok.add(y)
                independent |= {y}
                assert_exchange_matches(m, independent, label, ok)
            assert len(independent) == m.rank(), label

    def test_binary_zero_and_parallel_columns(self):
        # 0 is a zero column, 1 and 3 are parallel, 2 is independent of both
        m = binary_matroid([0, 0b01, 0b10, 0b01])
        ok = m.exchange({1, 2})
        assert not ok(None, 0) and not ok(1, 0) and not ok(2, 0)
        assert not ok(None, 3) and ok(1, 3) and not ok(2, 3)
        assert_exchange_matches(m, frozenset({1, 2}), "zero-parallel")

    @pytest.mark.parametrize("name", sorted(RANK_CASES))
    def test_exchange_matches_independence_on_rank_cases(self, name):
        m = RANK_CASES[name]()
        rng = random.Random(3)
        for _ in range(4):
            assert_exchange_matches(m, random_independent(rng, m), name)

    @pytest.mark.parametrize("make", [lambda: graphic_matroid(k4()),
                                      lambda: partition_matroid(6, [[0, 1], [2, 3, 4]]),
                                      lambda: uniform_matroid(6, 3)],
                             ids=["graphic", "partition", "uniform"])
    def test_default_exchange_names_y_outside_the_ground(self, make):
        # the uniform matroid's test is the default one; the graphic and
        # partition tests are native and name y as the default does
        ok = make().exchange({0, 2})
        assert ok(None, 5) and ok(0, 5) and ok.circuit(5) == -1
        for y in (6, -1):
            for query in (lambda: ok(None, y), lambda: ok(0, y), lambda: ok.circuit(y)):
                with pytest.raises(InstanceError, match=f"element {y} outside ground of size 6"):
                    query()

    def test_default_exchange_checks_the_independent_set(self):
        with pytest.raises(InstanceError, match="element 7 outside ground of size 6"):
            graphic_matroid(k4()).exchange({0, 7})

    def test_binary_exchange_checks_the_ground(self):
        # the native test names an element outside the ground as the default
        # does, where column -1 would wrap to the last one
        m = binary_matroid([1 << i for i in range(6)])
        ok = m.exchange({0, 2})
        assert ok(None, 5) and ok(0, 5) and ok.circuit(5) == -1
        for y in (-1, 6):
            for query in (lambda: ok(None, y), lambda: ok(0, y), lambda: ok.circuit(y)):
                with pytest.raises(InstanceError, match=f"element {y} outside ground of size 6"):
                    query()
        for independent, y in (({0, 7}, 7), ({-1}, -1)):
            with pytest.raises(InstanceError, match=f"element {y} outside ground of size 6"):
                m.exchange(independent)

    def test_queries_leave_no_state(self):
        """The oracle holds what its constructor set and nothing more, after
        rank, independence, span and exchange queries."""
        rng = random.Random(11)
        for name, make in sorted(RANK_CASES.items()):
            m = make()
            fresh = dict(vars(m))
            assert fresh.keys() == {"ground_size", "_rank_fn", "_exchange_fn", "_members_fn",
                                    "_descriptor"}
            for _ in range(10):
                subset = random_independent(rng, m)
                m.rank(subset), m.is_independent(subset), m.in_span(subset, 0)
                ok = m.exchange(subset)
                for y in range(m.ground_size):
                    ok(None, y)
            m.rank()
            assert vars(m) == fresh, name

    @pytest.mark.parametrize("seed", range(25))
    def test_augment_same_with_and_without_native_exchange(self, seed):
        rng = random.Random(2000 + seed)
        m = binary_matroid(random_binary_columns(rng))
        other = binary_matroid([rng.getrandbits(3) for _ in range(m.ground_size)])
        _, colors, lifted = _rado_lifts(random_family(rng, m.ground_size), m)
        pairs = [(m, other), (m, random_matroid(rng, m.ground_size)), (colors, lifted)]
        for m1, m2 in pairs:
            native = _intersection_augment(m1, m2)
            assert native == _intersection_augment(without_exchange(m1), without_exchange(m2))
            assert native == _intersection_augment(m1, without_exchange(m2))


class TestCovering:
    def test_free(self):
        number, cover = covering_number(free_matroid(5))
        assert number == 1
        assert cover[0] == frozenset(range(5))

    def test_uniform_k1(self):
        assert covering_number(uniform_matroid(4, 1))[0] == 4

    def test_graphic_k4_two_trees(self):
        number, cover = covering_number(graphic_matroid(k4()))
        assert number == 2  # two edge-disjoint spanning trees exist
        assert frozenset().union(*cover) == frozenset(range(6))

    def test_loop_rejected(self):
        with pytest.raises(InstanceError, match="loop"):
            covering_number(uniform_matroid(3, 0))

    def test_ground_cap(self):
        with pytest.raises(ResourceCapError):
            covering_number(free_matroid(17))

    def test_lower_bound_invariant(self):
        rng = random.Random(3)
        from rainbowsets.harness import random_matroid

        for _ in range(30):
            m = random_matroid(rng, rng.randint(1, 8))
            number, cover = covering_number(m)
            assert number >= -(-m.ground_size // max(1, m.rank()))
            for member in cover:
                assert m.is_independent(member)
            assert frozenset().union(*cover) == frozenset(range(m.ground_size))

    # (matroids, covering number of their meet, its witness)
    @pytest.mark.parametrize("matroids, number, cover", [
        pytest.param([uniform_matroid(3, 2), partition_matroid(3, [[0, 1, 2]], [1])],
                     3, [{0}, {1}, {2}], id="rank-two-meet-one-part"),
        pytest.param([uniform_matroid(3, 1), free_matroid(3)],
                     3, [{0}, {1}, {2}], id="singletons"),
        pytest.param([partition_matroid(4, [[0, 1], [2, 3]]),
                      partition_matroid(4, [[0, 2], [1, 3]])],
                     2, [{1, 2}, {0, 3}], id="crossed-partitions"),
    ])
    def test_pinned_meets(self, matroids, number, cover):
        assert covering_number(*matroids) == (number, [frozenset(c) for c in cover])
        assert brute_covering_number(*(m.descriptor for m in matroids)) == number

    def test_meet_ground_mismatch(self):
        with pytest.raises(InstanceError, match="shared ground"):
            covering_number(free_matroid(3), free_matroid(4))

    def test_against_brute_force(self):
        """One matroid and the meet of two, on seeded random pairs, against
        the subset DP over reference independence."""
        rng = random.Random(31)
        for _ in range(60):
            ground = rng.randint(1, 7)
            pair = [random_matroid(rng, ground), random_matroid(rng, ground)]
            for matroids in ([pair[0]], [pair[1]], pair):
                descriptors = [m.descriptor for m in matroids]
                number, cover = covering_number(*matroids)
                assert number == len(cover) == brute_covering_number(*descriptors)
                assert frozenset().union(*cover) == frozenset(range(ground))
                for member in cover:
                    assert all(reference_independent(d, member) for d in descriptors)

    @pytest.mark.parametrize("ground", range(1, 11))
    def test_decision_against_brute_force(self, ground):
        """_cover(g, members, k) is None exactly when k < rho; otherwise it
        is at most k sets, independent in every matroid, covering the
        ground. On seeded matroids and their meets."""
        rng = random.Random(500 + ground)
        for _ in range(3):
            pair = [random_matroid(rng, ground), random_matroid(rng, ground)]
            for chosen in ([pair[0]], [pair[1]], pair):
                descriptors = [m.descriptor for m in chosen]
                rho = brute_covering_number(*descriptors)
                members = _member_masks(chosen[0])
                for other in chosen[1:]:
                    members = _meet(members, _member_masks(other))
                for k in range(ground + 1):
                    cover = _cover(ground, members, k)
                    assert (cover is None) == (k < rho)
                    if cover is not None:
                        assert len(cover) <= k
                        assert frozenset().union(*cover) == frozenset(range(ground))
                        for member in cover:
                            assert all(reference_independent(d, member) for d in descriptors)


class TestTwoCover:
    # sha256 of (rho_m, rho_n, rho_meet, cover_m, cover_n, cover_meet) over
    # 60 seeded pairs at each ground and seed, taken when each covering
    # number came from a branch and bound with an incumbent
    BATCH_DIGEST = "75f5308259bd66c0b9bba594465e0165005b5c89f6fe2452bd59cc783970159a"

    def test_seeded_reports_pinned(self):
        digest = hashlib.sha256()
        for seed in range(3):
            for ground in (4, 6, 8, 10, 12):
                rng = random.Random(seed)
                for _ in range(60):
                    r = check_two_cover(random_matroid(rng, ground), random_matroid(rng, ground))
                    covers = [[sorted(c) for c in cover]
                              for cover in (r.cover_m, r.cover_n, r.cover_meet)]
                    digest.update(json.dumps([r.rho_m, r.rho_n, r.rho_meet] + covers).encode())
        assert digest.hexdigest() == self.BATCH_DIGEST

    def test_empty_ground(self):
        """Nothing to cover: the empty greedy cover settles the pair, and
        every covering number is 0."""
        assert _two_cover_settled(free_matroid(0), free_matroid(0))
        rep = check_two_cover(free_matroid(0), free_matroid(0))
        assert (rep.rho_m, rep.rho_n, rep.rho_meet) == (0, 0, 0) and rep.holds

    def test_free_pair(self):
        rep = check_two_cover(free_matroid(4), free_matroid(4))
        assert (rep.rho_m, rep.rho_n, rep.rho_meet) == (1, 1, 1)
        assert rep.holds

    def test_k33_star_partitions(self):
        # K_{3,3} edges indexed l*3+r; the two star partition matroids
        edges = [(l, r) for l in range(3) for r in range(3)]
        left_parts = [[i for i, (l, _) in enumerate(edges) if l == a]
                      for a in range(3)]
        right_parts = [[i for i, (_, r) in enumerate(edges) if r == b]
                       for b in range(3)]
        m = partition_matroid(9, left_parts)
        n = partition_matroid(9, right_parts)
        rep = check_two_cover(m, n)
        assert (rep.rho_m, rep.rho_n, rep.rho_meet) == (3, 3, 3)
        assert rep.holds

    def test_random_pairs_hold(self):
        rng = random.Random(20)
        from rainbowsets.harness import random_matroid

        for _ in range(40):
            ground = rng.randint(1, 8)
            rep = check_two_cover(
                random_matroid(rng, ground), random_matroid(rng, ground)
            )
            assert rep.holds


    @pytest.mark.parametrize("ground, count, seed", [(8, 500, 0), (8, 500, 7),
                                                     (16, 60, 0), (16, 60, 7)])
    def test_settled_pairs_hold(self, ground, count, seed):
        """The rho-two-cover sweep's draws: every pair that the greedy cover
        of the meet settles holds by the three exact covers."""
        rng = random.Random(seed)
        settled = 0
        for _ in range(count):
            m, n = random_matroid(rng, ground), random_matroid(rng, ground)
            if _two_cover_settled(m, n):
                settled += 1
                assert check_two_cover(m, n).holds
        assert settled

    def test_a_weak_edmonds_bound_leaves_the_pair_open(self):
        """Five parallel elements beside three independent ones: rho(M) is
        5, but ceil(8 / r(M)) is only 2, so the greedy cover of M (the meet
        with the free matroid) has more than 2 * 2 sets."""
        m = binary_matroid([1, 1, 1, 1, 1, 2, 4, 8])
        assert not _two_cover_settled(m, free_matroid(8))
        rep = check_two_cover(m, free_matroid(8))
        assert (rep.rho_m, rep.rho_n, rep.rho_meet) == (5, 1, 5) and rep.holds


# Member tables beyond RANK_CASES: direct sums (one nested), a truncation of
# a truncation, and seeded random matroids at grounds 0-10.
MEMBER_CASES = {
    "direct-sum-partition-uniform": lambda: direct_sum(
        partition_matroid(4, [[0, 1], [2]], [1, 1]), uniform_matroid(3, 2)),
    "direct-sum-nested": lambda: direct_sum(
        direct_sum(free_matroid(2), graphic_matroid(c3())), truncate(graphic_matroid(k4()), 2)),
    "direct-sum-empty-left": lambda: direct_sum(free_matroid(0), binary_matroid([1, 2, 3])),
    "truncated-truncation": lambda: truncate(truncate(graphic_matroid(k4()), 3), 2),
}


# One case per construction at COVER_GROUND_CAP = 16 elements.
GROUND_16_CASES = {
    # a zero column and two parallel pairs
    "binary": lambda: binary_matroid(
        [0, 0b1011, 0b1011, 0b110001, 0b000111, 0b101010, 0b010101, 0b111000,
         0b100001, 0b011110, 0b110110, 0b001001, 0b101101, 0b010010, 0b111111, 0b000111]),
    "graphic-parallel": lambda: graphic_matroid(Graph(7, (
        (0, 1), (0, 1), (1, 2), (2, 0), (2, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0),
        (1, 4), (3, 5), (0, 4), (2, 6), (5, 6), (1, 3)))),
    # elements 13-15 lie in no part; the third part has capacity 0
    "partition-free-cap-0": lambda: partition_matroid(
        16, [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9, 10], [11, 12]], [2, 3, 0]),
    "uniform": lambda: uniform_matroid(16, 7),
    "free": lambda: free_matroid(16),
    "truncated-truncation": lambda: truncate(truncate(graphic_matroid(Graph(
        7, tuple(itertools.combinations(range(7), 2))[:16])), 5), 4),
    "direct-sum-nested": lambda: direct_sum(
        direct_sum(binary_matroid([1, 2, 3, 4, 5, 6]), partition_matroid(4, [[0, 1, 2]], [1])),
        uniform_matroid(6, 3)),
}


def member_oracles() -> list[tuple[str, IndependenceOracle]]:
    rng = random.Random(19)
    return ([(name, make()) for name, make in sorted({**RANK_CASES, **MEMBER_CASES}.items())]
            + [(f"random-{i}", random_matroid(rng, i % 11)) for i in range(200)])


def native_oracles() -> list[tuple[str, IndependenceOracle]]:
    """member_oracles without the bare rank function, plus GROUND_16_CASES."""
    return ([(label, m) for label, m in member_oracles() if label != "bare-rank-fn"]
            + [(f"{name}-16", make()) for name, make in sorted(GROUND_16_CASES.items())])


class TestMemberTable:
    def test_tables_match_reference_independence(self):
        for label, m in member_oracles():
            assert _member_masks(m) == reference_member_table(m.descriptor, m.ground_size), label

    def test_rank_fn_asked_once_per_independent_set_and_circuit(self):
        """The deterministic query count: every nonempty independent set and
        every circuit, counted from the reference table, and nothing else."""
        for label, m in member_oracles():
            asked = []

            def counted(s, rank_fn=m._rank_fn):
                asked.append(s)
                return rank_fn(s)

            _member_masks(IndependenceOracle(m.ground_size, counted, m.descriptor))
            independent, circuits = reference_member_queries(
                reference_member_table(m.descriptor, m.ground_size))
            assert sorted(asked) == sorted(independent + circuits), label

    def test_native_tables_match_the_rank_scan(self):
        for label, m in native_oracles():
            assert m._members_fn is not None, label
            assert _member_masks(m) == _member_masks(without_exchange(m)), label

    def test_native_tables_ask_no_rank_query(self, monkeypatch):
        """Every oracle a construction builds, inner ones included, gets a
        rank function that raises once the oracles are built; the tables
        still match the reference."""
        armed = []

        class Guarded(IndependenceOracle):
            def __init__(self, ground_size, rank_fn, *rest, **native):
                def guarded(s):
                    if armed:
                        raise AssertionError("rank asked while building a member table")
                    return rank_fn(s)

                super().__init__(ground_size, guarded, *rest, **native)

        monkeypatch.setattr(matroids, "IndependenceOracle", Guarded)
        cases = native_oracles()
        references = [_member_masks(without_exchange(m)) for _, m in cases]
        armed.append(True)
        for (label, m), reference in zip(cases, references):
            assert _member_masks(m) == reference, label


def member_tables(seed: int, count: int):
    """(ground, byte mask) for seeded random matroids and for meets of
    seeded random pairs."""
    rng = random.Random(seed)
    for _ in range(count):
        ground = rng.randint(1, 9)
        m1, m2 = random_matroid(rng, ground), random_matroid(rng, ground)
        first = _member_masks(m1)
        yield ground, first
        yield ground, _meet(first, _member_masks(m2))


class TestMaximalMembers:
    def test_match_per_subset_search(self):
        for ground, members in member_tables(5, 60):
            assert _maximal_members(ground, members) == reference_maximal_members(ground, members)

    def test_cover_unchanged_against_per_subset_search(self, monkeypatch):
        """The same number and witness as _cover with the per-subset search,
        on single matroids and on meets."""
        tables = list(member_tables(6, 60))
        fast = [_cover(ground, members) for ground, members in tables]
        monkeypatch.setattr(matroids, "_maximal_members", reference_maximal_members)
        assert fast == [_cover(ground, members) for ground, members in tables]
