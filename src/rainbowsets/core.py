"""Core combinatorial value types: ground sets, colored families, choice
functions, graphs, matchings, networks, weights, Latin squares.

All values are immutable after construction; elements, edges and colors are
dense integer ids, which keeps serialization canonical and lets the search
kernels work on bitmasks.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Optional


class InstanceError(ValueError):
    """An instance violates the schema or a structural invariant."""


class HypothesisViolation(InstanceError):
    """An operation's hypothesis fails; carries a witness of the failure."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ResourceCapError(RuntimeError):
    """A search exceeded its configured instance/size/time cap."""


class TheoremViolation(RuntimeError):
    """An internal assertion backed by a proved theorem failed.

    This exception firing is always a bug (or a genuinely startling
    mathematical event); the CLI maps it to exit code 5.
    """


# ---------------------------------------------------------------------------
# ground sets and colored families


@dataclass(frozen=True)
class GroundSet:
    """A finite ground set; elements are the dense integers 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 0:
            raise InstanceError(f"ground size must be >= 0, got {self.size}")


@dataclass(frozen=True)
class ColoredFamily:
    """An indexed multiset of element subsets; the index is the color."""

    ground: GroundSet
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        size = self.ground.size
        for i, s in enumerate(self.sets):
            for x in s:
                if not (isinstance(x, int) and 0 <= x < size):
                    raise InstanceError(
                        f"colors[{i}]: element {x} outside ground of size {self.ground.size}"
                    )

    @property
    def num_colors(self) -> int:
        return len(self.sets)


def family_union(fam: ColoredFamily, colors: Iterable[int]) -> frozenset[int]:
    """Union of the indexed color classes."""
    out: set[int] = set()
    for i in colors:
        if not 0 <= i < fam.num_colors:
            raise InstanceError(f"color index {i} out of range 0..{fam.num_colors - 1}")
        out |= fam.sets[i]
    return frozenset(out)


@dataclass(frozen=True)
class ChoiceFunction:
    """An injective partial map color -> element, with provenance retained."""

    assignments: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted((int(c), int(x)) for c, x in self.assignments))
        colors = [c for c, _ in pairs]
        if len(set(colors)) != len(colors):
            raise InstanceError("choice function assigns a color twice")
        object.__setattr__(self, "assignments", pairs)

    def as_dict(self) -> dict[int, int]:
        return dict(self.assignments)

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(c for c, _ in self.assignments)

    @property
    def image(self) -> frozenset[int]:
        return frozenset(x for _, x in self.assignments)

    def __len__(self) -> int:
        return len(self.assignments)

    def is_full_for(self, fam: ColoredFamily) -> bool:
        return self.domain == frozenset(range(fam.num_colors))


def is_rainbow(fam: ColoredFamily, f: ChoiceFunction) -> bool:
    """True iff f satisfies membership and injectivity against fam."""
    seen: set[int] = set()
    for c, x in f.assignments:
        if not 0 <= c < fam.num_colors:
            return False
        if x not in fam.sets[c]:
            return False
        if x in seen:
            return False
        seen.add(x)
    return True


# ---------------------------------------------------------------------------
# graphs and matchings


def _edge_list(n: int, edges, prefix: str) -> tuple[tuple[int, int], ...]:
    """The edges of a graph or network on n >= 0 vertices as int pairs,
    each joining two distinct vertices in range; errors name `prefix`.n
    or `prefix`.edges[i]."""
    if n < 0:
        raise InstanceError(f"{prefix}.n: must be >= 0, got {n}")
    edges = tuple((int(u), int(v)) for u, v in edges)
    for i, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            raise InstanceError(f"{prefix}.edges[{i}]: endpoint out of range")
        if u == v:
            raise InstanceError(f"{prefix}.edges[{i}]: loop at vertex {u}")
    return edges


@dataclass(frozen=True)
class Graph:
    """An undirected multigraph; edge identity is positional (by id)."""

    n: int
    edges: tuple[tuple[int, int], ...]
    bipartition: Optional[tuple[frozenset[int], frozenset[int]]] = None

    def __post_init__(self):
        object.__setattr__(self, "edges", _edge_list(self.n, self.edges, "graph"))
        if self.bipartition is not None:
            a, b = (frozenset(self.bipartition[0]), frozenset(self.bipartition[1]))
            object.__setattr__(self, "bipartition", (a, b))
            if a & b:
                raise InstanceError("graph.bipartition: classes overlap")
            if a | b != frozenset(range(self.n)):
                raise InstanceError("graph.bipartition: classes must cover all vertices")
            for i, (u, v) in enumerate(self.edges):
                if (u in a) == (v in a):
                    raise InstanceError(
                        f"graph.edges[{i}]: edge ({u},{v}) does not cross the bipartition"
                    )

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_mask(self, e: int) -> int:
        u, v = self.edges[e]
        return (1 << u) | (1 << v)


# Shape checks for JSON input; each error names the offending field by the
# full path it is given.


def _int(value, path: str) -> int:
    """A JSON integer: not a boolean, a float or a string."""
    if type(value) is not int:
        raise InstanceError(f"{path}: expected an integer, got {value!r}")
    return value


def _ints(items, path: str) -> frozenset[int]:
    """An array of integers, as a set."""
    if not isinstance(items, list):
        raise InstanceError(f"{path}: expected an array")
    return frozenset(_int(x, f"{path}[{i}]") for i, x in enumerate(items))


def _int_arrays(items, path: str) -> list:
    """An array of integer arrays. One fast pass checks the types; the entry
    to blame is looked up only when it fails."""
    if not isinstance(items, list):
        raise InstanceError(f"{path}: expected an array")
    if not (all(type(item) is list for item in items)
            and set(map(type, itertools.chain.from_iterable(items))) <= {int}):
        for i, item in enumerate(items):
            _ints(item, f"{path}[{i}]")
    return items


def _as_edges(edges, path: str) -> tuple[tuple, ...]:
    for i, e in enumerate(_int_arrays(edges, path)):
        if len(e) != 2:
            raise InstanceError(f"{path}[{i}]: expected a pair of vertices")
    return tuple(tuple(e) for e in edges)


def _as_graph(obj, path: str) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise InstanceError(f"{path}: expected an object with n and edges")
    bip = obj.get("bipartition")
    if bip is not None:
        if len(_int_arrays(bip, f"{path}.bipartition")) != 2:
            raise InstanceError(f"{path}.bipartition: expected a pair of vertex arrays")
        bip = (frozenset(bip[0]), frozenset(bip[1]))
    return Graph(_int(obj["n"], f"{path}.n"), _as_edges(obj["edges"], f"{path}.edges"), bip)


def find_bipartition(g: Graph) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """2-color g; returns the classes or None if an odd cycle exists."""
    if g.bipartition is not None:
        return g.bipartition
    color = [-1] * g.n
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return None
    side0 = frozenset(v for v in range(g.n) if color[v] == 0)
    return side0, frozenset(range(g.n)) - side0


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edge ids within some graph."""

    edges: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(int(e) for e in self.edges))

    def __len__(self) -> int:
        return len(self.edges)

    @classmethod
    def of(cls, g: Graph, edge_ids: Iterable[int]) -> "Matching":
        ids = frozenset(edge_ids)
        if not matching_check(g, ids):
            raise InstanceError("edge set is not a matching")
        return cls(ids)


def matching_check(g: Graph, edge_ids: Iterable[int]) -> bool:
    """True iff the edges are pairwise vertex-disjoint."""
    used = 0
    for e in edge_ids:
        if not 0 <= e < g.num_edges:
            raise InstanceError(f"unknown edge id {e}")
        m = g.edge_mask(e)
        if used & m:
            return False
        used |= m
    return True


def _edge_id_sets(classes: Iterable[Iterable[int]], num_edges: int,
                  field: str) -> list[frozenset[int]]:
    """Each class as a set of int edge ids in 0..num_edges-1. One pass
    checks the union; only when it fails is the first class with a bad id
    looked up, and the error names it and its smallest bad id as
    `field`[i]."""
    sets = [frozenset(map(int, c)) for c in classes]
    ids = frozenset().union(*sets)
    if ids and (min(ids) < 0 or max(ids) >= num_edges):
        for i, c in enumerate(sets):
            bad = [e for e in c if not 0 <= e < num_edges]
            if bad:
                raise InstanceError(f"{field}[{i}]: unknown edge id {min(bad)}")
    return sets


def _trail(g: Graph, remaining: set[int], start: int) -> tuple[list[int], list[int]]:
    """Walk from start, leaving each vertex by its smallest-id edge still in
    remaining and removing that edge, until none is left at the current
    vertex. Returns the edges and the len(edges) + 1 vertices in walk order.
    """
    incident: dict[int, list[int]] = {}
    for e in sorted(remaining):
        for v in g.edges[e]:
            incident.setdefault(v, []).append(e)
    edges: list[int] = []
    verts = [start]
    while True:
        e = next((x for x in incident.get(verts[-1], ()) if x in remaining), None)
        if e is None:
            return edges, verts
        remaining.discard(e)
        edges.append(e)
        a, b = g.edges[e]
        verts.append(b if a == verts[-1] else a)


_CLOSED = sys.maxsize  # the lowlink of a right vertex in a closed component


def _kuhn_max_matching(lefts: Iterable[int],
                       neighbors: Callable[[int], Iterable[int]]) -> dict[int, int]:
    """Maximum bipartite matching by augmenting paths; returns {right: left}.

    Each left vertex in turn roots one depth-first search; neighbors(u)
    gives u's right vertices in the order they are tried. The search keeps
    an explicit stack, so path length is not bounded by the recursion limit.
    The visit order, and so the result and its insertion order, is that of
    the textbook recursive search.

    A search keeps Tarjan lowlinks (Tarjan 1972) over the matched right
    vertices it visits. When a failed subtree closes a strongly connected
    component, no alternating path from the component reaches a free
    vertex, and none does after later augmentations, which never pass
    through it. The component is closed for the rest of the call, and later
    searches skip it, which only saves exploring it again. A failed search
    closes everything it visited, and on a chain of classes {0}, {0, 1},
    {1, 2}, ... every search closes the vertex before it, so the chain costs
    linear time.
    """
    match: dict[int, int] = {}
    # low[v] is v's lowlink, a position on tarjan; v heads a component
    # when tarjan[low[v]] == v. Closed vertices keep low _CLOSED; the
    # others this search visited are on tarjan, and no vertex outside a
    # search is in low.
    low: dict[int, int] = {}
    tarjan: list[int] = []
    for root in lefts:
        stack = [iter(neighbors(root))]
        path: list[int] = []  # matched right vertices from the root down
        while stack:
            for v in stack[-1]:
                if v not in low:
                    break
                if path:
                    top = path[-1]
                    if low[v] < low[top]:
                        low[top] = low[v]
            else:
                stack.pop()
                if path:
                    v = path.pop()
                    i = low[v]
                    if tarjan[i] == v:
                        while len(tarjan) > i:
                            low[tarjan.pop()] = _CLOSED
                    elif i < low[path[-1]]:  # the root's children always close
                        low[path[-1]] = i
                continue
            if v in match:
                low[v] = len(tarjan)
                tarjan.append(v)
                path.append(v)
                stack.append(iter(neighbors(match[v])))
                continue
            u = root
            for w in path:
                match[w], u = u, match[w]
            match[v] = u
            if tarjan:
                for w in tarjan:
                    del low[w]
                tarjan.clear()
            break
    return match


def _max_matching_general(edge_ids: list[int], masks: list[int]) -> frozenset[int]:
    """Maximum matching of a general graph by Edmonds' blossom algorithm.

    masks[i] has the two endpoint bits of edge edge_ids[i]. Of parallel
    edges only the lowest id is used. Vertices are tried as roots in
    ascending order, each vertex's edges by ascending id and the search
    tree grows breadth first, so the result is deterministic.
    """
    lowest: dict[int, int] = {}
    for e, m in sorted(zip(edge_ids, masks)):
        lowest.setdefault(m, e)
    n = max((m.bit_length() for m in lowest), default=0)
    adj: list[list[int]] = [[] for _ in range(n)]
    for m in lowest:
        u, v = (m & -m).bit_length() - 1, m.bit_length() - 1
        adj[u].append(v)
        adj[v].append(u)
    match = [-1] * n

    def augment(root: int):
        parent = [-1] * n
        base = list(range(n))
        outer = [False] * n
        outer[root] = True
        queue = [root]

        def lca(a: int, b: int) -> int:
            seen = set()
            while True:
                a = base[a]
                seen.add(a)
                if match[a] == -1:
                    break
                a = parent[match[a]]
            while base[b] not in seen:
                b = parent[match[base[b]]]
            return base[b]

        def mark(v: int, b: int, child: int, blossom: set[int]):
            while base[v] != b:
                blossom.add(base[v])
                blossom.add(base[match[v]])
                parent[v] = child
                child = match[v]
                v = parent[child]

        for v in queue:
            for w in adj[v]:
                if base[v] == base[w] or match[v] == w:
                    continue
                if outer[w]:
                    b = lca(v, w)
                    blossom: set[int] = set()
                    mark(v, b, w, blossom)
                    mark(w, b, v, blossom)
                    for i in range(n):
                        if base[i] in blossom:
                            base[i] = b
                            if not outer[i]:
                                outer[i] = True
                                queue.append(i)
                elif parent[w] == -1:
                    parent[w] = v
                    if match[w] == -1:
                        while w != -1:  # flip the path back to the root
                            u = parent[w]
                            nxt = match[u]
                            match[u], match[w] = w, u
                            w = nxt
                        return
                    outer[match[w]] = True
                    queue.append(match[w])

    for root in range(n):
        if match[root] == -1 and adj[root]:
            augment(root)
    return frozenset(lowest[(1 << u) | (1 << match[u])] for u in range(n) if match[u] > u)


def max_matching(g: Graph) -> Matching:
    """Maximum-cardinality matching.

    Bipartite graphs (declared or detected) use augmenting paths; other
    graphs use Edmonds' blossom algorithm, with no cap on the vertex count.
    """
    sides = find_bipartition(g)
    if sides is not None:
        left_side = sides[0]
        adj: dict[int, list[int]] = {}
        edge_of: dict[tuple[int, int], int] = {}
        for e, (u, v) in enumerate(g.edges):
            lu, rv = (u, v) if u in left_side else (v, u)
            if edge_of.setdefault((lu, rv), e) == e:
                adj.setdefault(lu, []).append(rv)
        match = _kuhn_max_matching(sorted(left_side), lambda u: adj.get(u, ()))
        return Matching(frozenset(edge_of[u, v] for v, u in match.items()))
    masks = [g.edge_mask(e) for e in range(g.num_edges)]
    return Matching(_max_matching_general(list(range(g.num_edges)), masks))


# ---------------------------------------------------------------------------
# directed networks


@dataclass(frozen=True)
class Network:
    """A digraph with disjoint source/target sets; no edge enters a source
    and no edge leaves a target."""

    n: int
    edges: tuple[tuple[int, int], ...]
    sources: frozenset[int]
    targets: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "edges", _edge_list(self.n, self.edges, "network"))
        object.__setattr__(self, "sources", frozenset(self.sources))
        object.__setattr__(self, "targets", frozenset(self.targets))
        for v in self.sources | self.targets:
            if not 0 <= v < self.n:
                raise InstanceError(f"terminal vertex {v} out of range")
        if self.sources & self.targets:
            raise InstanceError("sources and targets must be disjoint")
        for i, (u, v) in enumerate(self.edges):
            if v in self.sources:
                raise InstanceError(
                    f"network.edges[{i}]: edge ({u},{v}) enters a source"
                )
            if u in self.targets:
                raise InstanceError(
                    f"network.edges[{i}]: edge ({u},{v}) leaves a target"
                )

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def inner(self) -> frozenset[int]:
        return frozenset(range(self.n)) - self.sources - self.targets

    def single_terminals(self) -> tuple[int, int]:
        """The unique (s, t) pair; raises unless |S| = |T| = 1."""
        if len(self.sources) != 1 or len(self.targets) != 1:
            raise InstanceError("operation requires a single source and target")
        return next(iter(self.sources)), next(iter(self.targets))


@dataclass(frozen=True)
class WeightMap:
    """Nonnegative integer weights, parallel to a network's edge list."""

    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        for i, w in enumerate(self.weights):
            if w < 0:
                raise InstanceError(f"weights[{i}]: negative weight {w}")

    def weight(self, e: int) -> int:
        return self.weights[e]

    def total(self, edge_ids: Iterable[int]) -> int:
        return sum(self.weights[e] for e in edge_ids)

    @classmethod
    def zeros(cls, num_edges: int) -> "WeightMap":
        return cls((0,) * num_edges)


# ---------------------------------------------------------------------------
# Latin squares


@dataclass(frozen=True)
class LatinSquare:
    """An n x n array over 1..n whose rows and columns are permutations."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "rows", tuple(tuple(int(x) for x in row) for row in self.rows)
        )
        n = self.n
        if len(self.rows) != n:
            raise InstanceError(f"latin: expected {n} rows, got {len(self.rows)}")
        full = set(range(1, n + 1))
        for r, row in enumerate(self.rows):
            if len(row) != n:
                raise InstanceError(f"latin[{r}]: expected {n} entries")
            seen: dict[int, int] = {}
            for c, x in enumerate(row):
                if x not in full:
                    raise InstanceError(f"latin[{r}][{c}]: symbol {x} outside 1..{n}")
                if x in seen:
                    raise InstanceError(
                        f"latin[{r}][{c}]: symbol {x} repeats in row (also at column {seen[x]})"
                    )
                seen[x] = c
        for c in range(n):
            seen = {}
            for r in range(n):
                x = self.rows[r][c]
                if x in seen:
                    raise InstanceError(
                        f"latin[{r}][{c}]: symbol {x} repeats in column (also at row {seen[x]})"
                    )
                seen[x] = r

    def entry(self, r: int, c: int) -> int:
        return self.rows[r][c]


@dataclass(frozen=True)
class Transversal:
    """Cells of a Latin square with distinct rows, columns, and symbols."""

    cells: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(
            self, "cells", frozenset((int(r), int(c)) for r, c in self.cells)
        )

    def __len__(self) -> int:
        return len(self.cells)

    @classmethod
    def of(cls, square: LatinSquare, cells: Iterable[tuple[int, int]]) -> "Transversal":
        t = cls(frozenset(cells))
        if not transversal_check(square, t.cells):
            raise InstanceError("cells do not form a transversal")
        return t


def transversal_check(square: LatinSquare, cells: Iterable[tuple[int, int]]) -> bool:
    """True iff the cells have pairwise distinct rows, columns and symbols."""
    rows: set[int] = set()
    cols: set[int] = set()
    syms: set[int] = set()
    for r, c in cells:
        if not (0 <= r < square.n and 0 <= c < square.n):
            raise InstanceError(f"cell ({r},{c}) out of range")
        if r in rows or c in cols or square.rows[r][c] in syms:
            return False
        rows.add(r)
        cols.add(c)
        syms.add(square.rows[r][c])
    return True
