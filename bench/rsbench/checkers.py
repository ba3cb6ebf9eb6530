"""Independent checkers for the benchmark's outputs.

Nothing here imports rainbowsets: GF(2) rank, forest rank, matroid rank
from a descriptor, covering numbers and path counts are computed by this
module's own code, so a wrong answer from the package cannot also
corrupt the check.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence


class CheckError(Exception):
    """The checker rejected an output."""


def require(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# arithmetic the checks rest on


def gf2_rank(vectors: Iterable[int]) -> int:
    """Rank over GF(2) of int bit-vectors (Gaussian elimination by pivot bit)."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def gf2_spans(vectors: Sequence[int], target: int) -> bool:
    return gf2_rank(list(vectors) + [target]) == gf2_rank(vectors)


def forest_rank(num_vertices: int, edges: Iterable[tuple[int, int]]) -> int:
    """Edges in a spanning forest of the given edges (union-find)."""
    root = list(range(num_vertices))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    rank = 0
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
            rank += 1
    return rank


def binary_columns(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Columns of a 0/1 row matrix as bit-vectors (bit i = row i)."""
    ncols = len(matrix[0]) if matrix else 0
    return [sum((row[j] & 1) << i for i, row in enumerate(matrix))
            for j in range(ncols)]


def descriptor_ground(desc: Mapping) -> int:
    kind = desc["kind"]
    if kind in ("partition", "uniform", "free"):
        return desc["ground_size"]
    if kind == "graphic":
        return len(desc["graph"]["edges"])
    if kind == "binary":
        return len(desc["matrix"][0]) if desc["matrix"] else 0
    if kind == "truncation":
        return descriptor_ground(desc["inner"])
    if kind == "direct-sum":
        return descriptor_ground(desc["left"]) + descriptor_ground(desc["right"])
    raise CheckError(f"unknown matroid kind {kind!r}")


def matroid_rank(desc: Mapping, subset: Iterable[int]) -> int:
    """Rank of a subset in the matroid a serialized descriptor names."""
    s = set(subset)
    kind = desc["kind"]
    if kind == "partition":
        covered: set[int] = set()
        rank = 0
        for part, cap in zip(desc["parts"], desc["caps"]):
            covered.update(part)
            rank += min(cap, len(s.intersection(part)))
        return rank + len(s - covered)
    if kind == "uniform":
        return min(desc["k"], len(s))
    if kind == "free":
        return len(s)
    if kind == "graphic":
        edges = desc["graph"]["edges"]
        return forest_rank(desc["graph"]["n"], (edges[e] for e in sorted(s)))
    if kind == "binary":
        cols = binary_columns(desc["matrix"])
        return gf2_rank(cols[e] for e in s)
    if kind == "truncation":
        return min(desc["k"], matroid_rank(desc["inner"], s))
    if kind == "direct-sum":
        off = descriptor_ground(desc["left"])
        return (matroid_rank(desc["left"], (x for x in s if x < off))
                + matroid_rank(desc["right"], (x - off for x in s if x >= off)))
    raise CheckError(f"unknown matroid kind {kind!r}")


def matroid_independent(desc: Mapping, subset: Iterable[int]) -> bool:
    s = list(subset)
    return len(set(s)) == len(s) and matroid_rank(desc, s) == len(s)


def min_partition_count(ground: int, independent) -> int:
    """Fewest independent sets covering range(ground), by a DP over masks.

    independent(mask) must be downward closed; a cover by such sets can be
    trimmed to a partition, so partitions suffice.
    """
    ok = [bool(independent(mask)) for mask in range(1 << ground)]
    best = [0] * (1 << ground)
    for mask in range(1, 1 << ground):
        low = mask & -mask
        rest = mask ^ low
        value = ground + 1
        sub = rest
        while True:
            part = sub | low
            if ok[part]:
                value = min(value, best[mask ^ part] + 1)
            if not sub:
                break
            sub = (sub - 1) & rest
        best[mask] = value
    return best[(1 << ground) - 1]


def mask_elements(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def covering_number(*descs: Mapping) -> int:
    """Fewest sets independent in every given matroid that cover the ground."""
    return min_partition_count(
        descriptor_ground(descs[0]),
        lambda mask: all(matroid_independent(d, mask_elements(mask)) for d in descs))


def max_vertex_disjoint_paths(num_vertices: int, arcs: Sequence[tuple[int, int]],
                              sources: Iterable[int], targets: Iterable[int]) -> int:
    """Maximum number of vertex-disjoint source-target paths over the arcs.

    Unit vertex capacities by splitting v into (v, in) -> (v, out); augmenting
    paths found by depth-first search on the residual graph.
    """
    cap: dict[tuple, dict[tuple, int]] = {}

    def arc(a, b):
        cap.setdefault(a, {}).setdefault(b, 0)
        cap.setdefault(b, {}).setdefault(a, 0)
        cap[a][b] += 1

    for v in range(num_vertices):
        arc((v, "in"), (v, "out"))
    for s in sources:
        arc("S", (s, "in"))
    for t in targets:
        arc((t, "out"), "T")
    for u, v in arcs:
        arc((u, "out"), (v, "in"))

    def augment() -> bool:
        stack = ["S"]
        came: dict = {"S": None}
        while stack:
            a = stack.pop()
            if a == "T":
                break
            for b, c in cap[a].items():
                if c > 0 and b not in came:
                    came[b] = a
                    stack.append(b)
        if "T" not in came:
            return False
        b = "T"
        while came[b] is not None:
            a = came[b]
            cap[a][b] -= 1
            cap[b][a] += 1
            b = a
        return True

    if "S" not in cap or "T" not in cap:
        return 0
    flow = 0
    while augment():
        flow += 1
    return flow


def rainbow_matching_exists(edges: Sequence[tuple[int, int]],
                            colors: Sequence[Iterable[int]], size: int) -> bool:
    """Brute force: is there a rainbow matching with `size` edges?"""
    classes = [sorted(c) for c in colors]

    def rec(i: int, used: frozenset, count: int) -> bool:
        if count == size:
            return True
        if len(classes) - i < size - count:
            return False
        for e in classes[i]:
            u, v = edges[e]
            if u not in used and v not in used:
                if rec(i + 1, used | {u, v}, count + 1):
                    return True
        return rec(i + 1, used, count)

    return rec(0, frozenset(), 0)


# ---------------------------------------------------------------------------
# witness checks


def check_rainbow_matching(edges: Sequence[tuple[int, int]],
                           colors: Sequence[Iterable[int]],
                           pairs: Iterable[tuple[int, int]], optimum: int):
    """(color, edge) pairs form a rainbow matching of the proved optimum size."""
    pairs = [(int(c), int(e)) for c, e in pairs]
    seen_colors: set[int] = set()
    seen_vertices: set[int] = set()
    for c, e in pairs:
        require(0 <= c < len(colors), f"color {c} out of range")
        require(c not in seen_colors, f"color {c} used twice")
        require(e in set(colors[c]), f"edge {e} not in color {c}")
        u, v = edges[e]
        require(u not in seen_vertices and v not in seen_vertices,
                f"edge {e} shares a vertex")
        seen_colors.add(c)
        seen_vertices.update((u, v))
    require(len(pairs) == optimum,
            f"rainbow matching has {len(pairs)} edges, optimum is {optimum}")


def check_choice(sets: Sequence[Iterable[int]], assignment: Mapping[int, int],
                 full: bool = True):
    """Injective, each element in its class, and every color chosen if full."""
    classes = [set(s) for s in sets]
    images = list(assignment.values())
    require(len(set(images)) == len(images), "choice is not injective")
    for c, x in assignment.items():
        require(0 <= c < len(classes), f"color {c} out of range")
        require(x in classes[c], f"element {x} not in class {c}")
    if full:
        require(set(assignment) == set(range(len(classes))), "choice is not full")


def check_hall_violator(sets: Sequence[Iterable[int]], colors: Iterable[int]):
    colors = set(colors)
    require(bool(colors), "empty violator")
    require(all(0 <= c < len(sets) for c in colors), "violator color out of range")
    union = set().union(*(set(sets[c]) for c in colors))
    require(len(union) < len(colors),
            f"violator union has {len(union)} >= {len(colors)} elements")


def check_rado_choice(sets, desc: Mapping, assignment: Mapping[int, int]):
    check_choice(sets, assignment)
    require(matroid_independent(desc, assignment.values()), "image is dependent")


def check_rado_violator(sets, desc: Mapping, colors: Iterable[int]):
    colors = set(colors)
    require(bool(colors), "empty violator")
    require(all(0 <= c < len(sets) for c in colors), "violator color out of range")
    union = set().union(*(set(sets[c]) for c in colors))
    rank = matroid_rank(desc, union)
    require(rank < len(colors), f"violator union has rank {rank} >= {len(colors)}")


def check_odd_cycle(edges: Sequence[tuple[int, int]],
                    families: Sequence[Iterable[int]],
                    vertices: Sequence[int], cycle_edges: Sequence[int],
                    colors: Sequence[int]):
    """A closed odd walk through distinct vertices, one distinct color per
    edge, each edge in its color's family."""
    k = len(cycle_edges)
    require(k % 2 == 1, f"cycle has even length {k}")
    require(len(vertices) == k and len(colors) == k, "cycle lists disagree")
    require(len(set(vertices)) == k, "cycle repeats a vertex")
    require(len(set(colors)) == k, "cycle repeats a color")
    for i, (e, c) in enumerate(zip(cycle_edges, colors)):
        a, b = vertices[i], vertices[(i + 1) % k]
        require(sorted(edges[e]) == sorted((a, b)),
                f"edge {e} does not join {a} and {b}")
        require(0 <= c < len(families) and e in set(families[c]),
                f"edge {e} not in family {c}")


def check_st_path(arcs: Sequence[tuple[int, int]], s: int, t: int,
                  path: Sequence[int]):
    require(bool(path), "empty path")
    cur, seen = s, {s}
    for e in path:
        u, v = arcs[e]
        require(u == cur, f"edge {e} does not continue the path")
        require(v not in seen, f"path revisits vertex {v}")
        seen.add(v)
        cur = v
    require(cur == t, f"path ends at {cur}, not {t}")


def check_rainbow_path(arcs, s: int, t: int, classes: Sequence[Iterable[int]],
                       path: Sequence[int], colors: Sequence[int]):
    check_st_path(arcs, s, t, path)
    require(len(colors) == len(path), "path and colors differ in length")
    require(len(set(colors)) == len(colors), "path repeats a color")
    for e, c in zip(path, colors):
        require(0 <= c < len(classes) and e in set(classes[c]),
                f"edge {e} not in class {c}")


def check_disjoint_paths(num_vertices: int, arcs, sources, targets,
                         families: Sequence[Iterable[int]], edges: Sequence[int],
                         assignment: Mapping[int, int], p: int, value: int,
                         witness_paths: Sequence[Sequence[int]]):
    """A rainbow edge set carrying at least p vertex-disjoint S-T paths."""
    check_choice(families, assignment, full=False)
    require(sorted(assignment.values()) == sorted(edges),
            "edge list differs from the chosen edges")
    count = max_vertex_disjoint_paths(num_vertices, [arcs[e] for e in edges],
                                      sources, targets)
    require(count >= p, f"rainbow set carries {count} < {p} disjoint paths")
    require(count == value, f"reported {value} disjoint paths, counted {count}")
    require(len(witness_paths) == value, "witness path count differs")
    used: set[int] = set()
    chosen = set(edges)
    for path in witness_paths:
        require(set(path) <= chosen, "witness path leaves the rainbow set")
        require(bool(path), "empty witness path")
        start = arcs[path[0]][0]
        end = arcs[path[-1]][1]
        require(start in set(sources) and end in set(targets),
                "witness path is not S-T")
        check_st_path(arcs, start, end, path)
        verts = {start} | {arcs[e][1] for e in path}
        require(not verts & used, "witness paths share a vertex")
        used |= verts


def check_transversal(rows: Sequence[Sequence[int]], cells, size: int):
    cells = [tuple(c) for c in cells]
    require(len({r for r, _ in cells}) == len(cells), "transversal repeats a row")
    require(len({c for _, c in cells}) == len(cells), "transversal repeats a column")
    require(len({rows[r][c] for r, c in cells}) == len(cells),
            "transversal repeats a symbol")
    require(len(cells) == size, f"transversal has {len(cells)} cells, expected {size}")


def check_span_rainbow(columns: Sequence[int], sets, target: Iterable[int],
                       assignment: Mapping[int, int]):
    """Injective choice with an independent image whose span holds the target."""
    check_choice(sets, assignment, full=False)
    image = [columns[x] for x in assignment.values()]
    require(gf2_rank(image) == len(image), "image is dependent")
    for t in target:
        require(gf2_spans(image, columns[t]), f"image does not span element {t}")


def check_cover(descs: Sequence[Mapping], cover: Iterable[Iterable[int]], rho: int):
    """rho sets, each independent in every given matroid, covering the ground."""
    cover = [list(s) for s in cover]
    require(len(cover) == rho, f"cover has {len(cover)} sets, rho is {rho}")
    require(set(itertools.chain.from_iterable(cover))
            == set(range(descriptor_ground(descs[0]))), "cover misses an element")
    for s in cover:
        require(all(matroid_independent(d, s) for d in descs),
                f"cover set {sorted(s)} is dependent")
