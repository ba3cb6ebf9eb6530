"""Each checker accepts a valid witness and rejects a deliberately
corrupted one."""

import pytest

from rsbench import checkers as ck
from rsbench.checkers import CheckError

# C6 as two perfect matchings (colors 0 and 1) plus a chord class
C6_EDGES = [(0, 1), (2, 3), (4, 5), (1, 2), (3, 4), (5, 0), (0, 3)]
C6_COLORS = [[0, 1, 2], [3, 4, 5], [6]]


def rejects(fn, *args):
    with pytest.raises(CheckError):
        fn(*args)


def test_rainbow_matching():
    good = [(0, 0), (1, 4)]
    ck.check_rainbow_matching(C6_EDGES, C6_COLORS, good, 2)
    rejects(ck.check_rainbow_matching, C6_EDGES, C6_COLORS, [(0, 0), (1, 3)], 2)  # shares 1
    rejects(ck.check_rainbow_matching, C6_EDGES, C6_COLORS, [(0, 0), (0, 2)], 2)  # color twice
    rejects(ck.check_rainbow_matching, C6_EDGES, C6_COLORS, [(0, 4), (1, 3)], 2)  # not in color
    rejects(ck.check_rainbow_matching, C6_EDGES, C6_COLORS, good, 3)  # below the optimum


def test_choice_and_hall_violator():
    sets = [[0, 1], [1], [2]]
    ck.check_choice(sets, {0: 0, 1: 1, 2: 2})
    rejects(ck.check_choice, sets, {0: 1, 1: 1, 2: 2})  # not injective
    rejects(ck.check_choice, sets, {0: 2, 1: 1, 2: 0})  # not members
    rejects(ck.check_choice, sets, {0: 0, 1: 1})  # not full
    ck.check_hall_violator([[0], [0], [1]], [0, 1])
    rejects(ck.check_hall_violator, sets, [0, 1])  # union of size 2 is enough


def test_rado_choice_and_violator():
    desc = {"kind": "binary", "matrix": [[1, 0, 1], [0, 1, 1]]}  # columns 1, 2, 3
    sets = [[0, 2], [1, 2]]
    ck.check_rado_choice(sets, desc, {0: 0, 1: 1})
    ck.check_rado_choice(sets, desc, {0: 0, 1: 2})
    rejects(ck.check_rado_choice, [[0], [1], [2]], desc, {0: 0, 1: 1, 2: 2})  # dependent
    ck.check_rado_violator([[0], [0], [1]], desc, [0, 1])
    rejects(ck.check_rado_violator, sets, desc, [0, 1])


def test_matroid_rank_by_kind():
    assert ck.matroid_rank({"kind": "uniform", "ground_size": 5, "k": 2}, [0, 1, 2]) == 2
    part = {"kind": "partition", "ground_size": 5, "parts": [[0, 1], [2, 3]], "caps": [1, 2]}
    assert ck.matroid_rank(part, [0, 1, 2, 3, 4]) == 4  # 1 + 2 + free element 4
    graphic = {"kind": "graphic", "graph": {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}}
    assert ck.matroid_rank(graphic, [0, 1, 2]) == 2
    trunc = {"kind": "truncation", "k": 1, "inner": graphic}
    assert ck.matroid_rank(trunc, [0, 1]) == 1


def test_covering_numbers_and_covers():
    u25 = {"kind": "uniform", "ground_size": 5, "k": 2}
    assert ck.covering_number(u25) == 3
    ck.check_cover([u25], [[0, 1], [2, 3], [4]], 3)
    rejects(ck.check_cover, [u25], [[0, 1, 2], [3, 4]], 2)  # dependent set
    rejects(ck.check_cover, [u25], [[0, 1], [2, 3]], 2)  # misses 4
    # the meet of U(2,5) with a partition into {0,1,2} and {3,4}, one per part
    part = {"kind": "partition", "ground_size": 5, "parts": [[0, 1, 2], [3, 4]],
            "caps": [1, 1]}
    assert ck.covering_number(part) == 3
    assert ck.covering_number(u25, part) == 3
    ck.check_cover([u25, part], [[0, 3], [1, 4], [2]], 3)
    rejects(ck.check_cover, [u25, part], [[0, 1], [2, 3], [4]], 3)  # {0, 1} shares a part


def test_odd_cycle():
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]
    families = [[0], [1, 3], [2, 4]]
    ck.check_odd_cycle(edges, families, [0, 1, 2], [0, 1, 2], [0, 1, 2])
    rejects(ck.check_odd_cycle, edges, families, [0, 1, 2], [0, 1, 2], [0, 1, 1])
    rejects(ck.check_odd_cycle, edges, families, [0, 1, 2], [0, 1, 2], [0, 2, 1])
    rejects(ck.check_odd_cycle, edges, [[0], [1], [2], [3]], [0, 1, 2, 3],
            [0, 1, 3, 4], [0, 1, 2, 3])  # even length


def test_paths():
    arcs = [(0, 1), (1, 2), (0, 2), (2, 1)]
    classes = [[0], [1, 2], [3]]
    ck.check_rainbow_path(arcs, 0, 2, classes, [0, 1], [0, 1])
    rejects(ck.check_rainbow_path, arcs, 0, 2, classes, [0, 1], [1, 1])  # color twice
    rejects(ck.check_rainbow_path, arcs, 0, 2, classes, [0, 1], [0, 2])  # not in class
    rejects(ck.check_st_path, arcs, 0, 2, [2, 3, 1])  # revisits 2
    rejects(ck.check_st_path, arcs, 0, 2, [0])  # ends at 1


def test_disjoint_paths():
    # sources 0, 1; targets 2, 3; inner 4
    arcs = [(0, 4), (4, 2), (1, 3), (0, 2)]
    families = [[0, 1], [2], [3], [1]]
    assert ck.max_vertex_disjoint_paths(5, [arcs[e] for e in (0, 1, 2)], [0, 1], [2, 3]) == 2
    ck.check_disjoint_paths(5, arcs, [0, 1], [2, 3], families, [0, 2, 1],
                            {0: 0, 1: 2, 3: 1}, 2, 2, [[0, 1], [2]])
    rejects(ck.check_disjoint_paths, 5, arcs, [0, 1], [2, 3], families, [0, 2, 1],
            {0: 0, 1: 2, 3: 1}, 2, 3, [[0, 1], [2]])  # miscounted
    rejects(ck.check_disjoint_paths, 5, arcs, [0, 1], [2, 3], families, [0, 2],
            {0: 0, 1: 2}, 2, 1, [[0, 1]])  # one path is not enough
    rejects(ck.check_disjoint_paths, 5, arcs, [0, 1], [2, 3], families, [0, 2, 1],
            {0: 0, 1: 2, 3: 1}, 2, 2, [[0, 1], [0, 1]])  # paths share vertices


def test_transversal_and_span():
    rows = [[1, 2, 3], [2, 3, 1], [3, 1, 2]]
    ck.check_transversal(rows, [(0, 0), (1, 1), (2, 2)], 3)
    rejects(ck.check_transversal, rows, [(0, 0), (1, 2), (2, 1)], 3)  # symbol 1 thrice
    rejects(ck.check_transversal, rows, [(0, 0), (1, 1)], 3)  # too small
    cols = [0b11, 0b01, 0b10, 0b01]
    ck.check_span_rainbow(cols, [[1], [2]], [0], {0: 1, 1: 2})
    rejects(ck.check_span_rainbow, cols, [[1, 3], [3]], [0], {0: 1})  # spans only 0b01
    rejects(ck.check_span_rainbow, cols, [[1], [3]], [0], {0: 1, 1: 3})  # dependent


def test_brute_force_matching_existence():
    assert ck.rainbow_matching_exists(C6_EDGES, C6_COLORS, 2)
    assert not ck.rainbow_matching_exists(C6_EDGES, [[0], [3]], 2)
