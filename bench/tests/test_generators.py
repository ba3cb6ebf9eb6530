"""The generators are deterministic per seed, and the answers they plant
hold by the benchmark's own brute force."""

import random

import pytest

from rsbench import checkers as ck
from rsbench import generators as gen


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_deterministic_for_a_seed(name):
    make = gen.GENERATORS[name]
    assert make(5) == make(5)
    assert make(6) == make(6)


@pytest.mark.parametrize("name", ["matroid-span", "sweep-small", "cli-corpus"])
def test_seed_changes_random_corpora(name):
    make = gen.GENERATORS[name]
    assert make(5) != make(6)


def test_case_ids_are_unique():
    for name, make in gen.GENERATORS.items():
        ids = [case.id for case in make(1)]
        assert len(ids) == len(set(ids)), name


@pytest.mark.parametrize("n", [3, 4])
def test_drisko_sharpness_optimum(n):
    inst = gen.drisko_sharpness(n)
    edges = inst["graph"]["edges"]
    assert ck.rainbow_matching_exists(edges, inst["colors"], n - 1)
    assert not ck.rainbow_matching_exists(edges, inst["colors"], n)


def test_k5_family_optimum():
    inst = gen.k5_family(1)
    edges = inst["graph"]["edges"]
    assert ck.rainbow_matching_exists(edges, inst["colors"], 2)
    assert not ck.rainbow_matching_exists(edges, inst["colors"], 3)


def _has_deficient_set(sets, rank) -> bool:
    """Rado's criterion by brute force: some color set J with
    rank(union of J) < |J|."""
    k = len(sets)
    for mask in range(1, 1 << k):
        group = [c for c in range(k) if mask >> c & 1]
        if rank(set().union(*(set(sets[c]) for c in group))) < len(group):
            return True
    return False


@pytest.mark.parametrize("deficient", [False, True])
def test_planted_hall_families(deficient):
    inst = gen.hall_family(random.Random(3), 10, deficient)
    assert _has_deficient_set(inst["colors"], len) == deficient


@pytest.mark.parametrize("deficient", [False, True])
def test_planted_binary_rado_families(deficient):
    fam = gen.binary_rado_family(random.Random(4), 10, deficient)
    cols = fam["columns"]
    rank = lambda union: ck.gf2_rank(cols[x] for x in union)  # noqa: E731
    assert _has_deficient_set(fam["colors"], rank) == deficient


@pytest.mark.parametrize("maker", [gen.graphic_rado_family, gen.partition_rado_family])
@pytest.mark.parametrize("deficient", [False, True])
def test_planted_rado_families(maker, deficient):
    inst = maker(random.Random(5), 9, deficient)
    rank = lambda union: ck.matroid_rank(inst["matroid"], union)  # noqa: E731
    assert _has_deficient_set(inst["colors"], rank) == deficient


def test_cyclic_isotope_is_latin():
    rng = random.Random(2)
    for n in (4, 5, 6):
        rows = gen.cyclic_isotope(rng, n)
        assert all(sorted(r) == list(range(1, n + 1)) for r in rows)
        assert all(sorted(col) == list(range(1, n + 1)) for col in zip(*rows))


def test_disjoint_path_families_pack_p_paths():
    rng = random.Random(5)
    for p, q in [(1, 2), (2, 2)]:
        inst = gen.disjoint_paths_instance(rng, p, q)
        net = inst["network"]
        assert len(inst["colors"]) == 2 * p - 1 + q
        for fam in inst["colors"]:
            arcs = [net["edges"][e] for e in fam]
            assert ck.max_vertex_disjoint_paths(
                net["n"], arcs, net["sources"], net["targets"]) >= p
