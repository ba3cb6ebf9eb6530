"""Network machinery: the bipartite double of a network, vertex-disjoint
path packing, rainbow disjoint-path systems, the weighted rainbow-path tree
algorithm, and the towers/path-enforcer route to scrambled rainbow paths."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .core import (
    ChoiceFunction,
    Graph,
    HypothesisViolation,
    InstanceError,
    Network,
    TheoremViolation,
    WeightMap,
    _edge_id_sets,
    _kuhn_max_matching,
    max_matching,
)
from .matching import EdgeFamily, max_rainbow_matching, validate_scrambling


# ---------------------------------------------------------------------------
# the bipartite double B(N)


@dataclass(frozen=True)
class BipartifiedNetwork:
    """The bipartite double of a network: a sending copy v' for each
    v in S + inner, an absorbing copy v'' for each v in T + inner, the
    images of the network edges, and the loop edges W = {x'x''}. B-edge e
    is the image of network edge e; the W edge of the i-th inner vertex in
    ascending order is B-edge m + i, for m network edges."""

    network: Network
    graph: Graph
    w_edge_of: tuple[tuple[int, int], ...]      # (inner vertex, B-edge id)

    @property
    def w_edges(self) -> frozenset[int]:
        return frozenset(b for _, b in self.w_edge_of)


def bipartify(net: Network) -> BipartifiedNetwork:
    """Build B(N) with deterministic vertex and edge numbering."""
    senders = sorted(net.sources | net.inner)
    absorbers = sorted(net.targets | net.inner)
    left = {v: i for i, v in enumerate(senders)}
    right = {v: len(senders) + i for i, v in enumerate(absorbers)}
    edges = [(left[u], right[v]) for u, v in net.edges]
    w_pairs: list[tuple[int, int]] = []
    for x in sorted(net.inner):
        w_pairs.append((x, len(edges)))
        edges.append((left[x], right[x]))
    g = Graph(
        len(senders) + len(absorbers),
        tuple(edges),
        (frozenset(range(len(senders))),
         frozenset(range(len(senders), len(senders) + len(absorbers)))),
    )
    return BipartifiedNetwork(net, g, tuple(w_pairs))


# ---------------------------------------------------------------------------
# vertex-disjoint path packing


def _follow(step: dict[int, tuple[int, int]], cur: int) -> tuple[int, ...]:
    """The edges met walking from cur by step[v] = (edge, next vertex), each
    step popped as it is taken, until the current vertex has no step."""
    edges: list[int] = []
    while cur in step:
        e, cur = step.pop(cur)
        edges.append(e)
    return tuple(edges)


def nu_p(net: Network, edge_ids: Iterable[int]
         ) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Maximum number of vertex-disjoint S-T paths using only the given
    edges, with witness paths.

    nu^P(F) = nu(B_F) - |inner|, where B_F is B(N) restricted to the images
    of F plus W. The matching is core.max_matching's on B_F: Kuhn's over
    the sending vertices in ascending order, each trying its B-edges by
    ascending id (of parallel B-edges only the lowest). Each matched B-edge
    below m is a network edge (u, v), a step from u to v; a source has no
    in-edge, so the walks from the sources in ascending order that end in
    T are vertex-disjoint S-T paths. By the counting identity a maximum
    matching's network edges form no path that touches neither S nor T,
    so there are nu^P of them: the witness.
    """
    return _path_packing(bipartify(net), edge_ids)


def _path_packing(bn: BipartifiedNetwork, edge_ids: Iterable[int]
                  ) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """nu_p over an already built bipartite double."""
    net = bn.network
    ids = sorted(frozenset(int(e) for e in edge_ids))
    for e in ids:
        if not 0 <= e < net.num_edges:
            raise InstanceError(f"unknown edge id {e}")
    chosen = ids + [b for _, b in bn.w_edge_of]
    g = bn.graph
    matched = max_matching(Graph(g.n, tuple(g.edges[b] for b in chosen), g.bipartition))
    step: dict[int, tuple[int, int]] = {}
    for e in (chosen[i] for i in matched.edges):
        if e < net.num_edges:
            step[net.edges[e][0]] = (e, net.edges[e][1])
    walks = (_follow(step, s) for s in sorted(net.sources))
    paths = tuple(w for w in walks if w and net.edges[w[-1]][1] in net.targets)
    value = len(matched) - len(net.inner)
    if len(paths) != value:
        raise TheoremViolation(f"a maximum B(N) matching gives {len(paths)} S-T paths, "
                               f"not nu^P = {value}")
    return value, paths


# ---------------------------------------------------------------------------
# rainbow systems of disjoint paths


@dataclass(frozen=True)
class DisjointPathsResult:
    """A rainbow edge set carrying at least p vertex-disjoint S-T paths."""

    edges: tuple[int, ...]
    function: ChoiceFunction            # family index -> network edge
    value: int                          # nu^P of the edge set
    witness_paths: tuple[tuple[int, ...], ...]


def rainbow_disjoint_paths(net: Network, families: Sequence[Iterable[int]],
                           p: int) -> DisjointPathsResult:
    """From 2p-1+q edge sets each packing p vertex-disjoint S-T paths
    (q = number of inner vertices), extract a rainbow set doing the same.

    Each family is reduced to p of its witness paths, whose B(N) image is
    their edges plus the W edge of every inner vertex they miss, and a
    staircase rainbow-matching run over q wildcard copies of W followed by
    the family images yields the rainbow set; edges picked under a
    wildcard color or landing on W are discarded, which the counting
    identity absorbs.
    """
    if p < 1:
        raise HypothesisViolation(f"need p >= 1, got {p}")
    q = len(net.inner)
    sets = _edge_id_sets(families, net.num_edges, "colors")
    if len(sets) != 2 * p - 1 + q:
        raise HypothesisViolation(
            f"expected {2 * p - 1 + q} edge sets for p={p}, q={q}, got {len(sets)}",
            witness=len(sets),
        )
    bn = bipartify(net)
    images: list[frozenset[int]] = []
    for i, f in enumerate(sets):
        value, witness = _path_packing(bn, f)
        if value < p:
            raise HypothesisViolation(
                f"family {i} packs only {value} < {p} disjoint paths", witness=i
            )
        path_edges = [e for path in witness[:p] for e in path]
        covered = {v for e in path_edges for v in net.edges[e]}
        image = frozenset(path_edges + [b for x, b in bn.w_edge_of if x not in covered])
        if len(image) != p + q:
            raise TheoremViolation(f"family {i} maps to {len(image)} B(N) edges, not {p + q}")
        images.append(image)

    w = bn.w_edges
    fam = EdgeFamily(bn.graph, tuple([w] * q + images))
    matching, function = max_rainbow_matching(fam, target=p + q)
    if len(matching) < p + q:
        raise TheoremViolation(
            "staircase rainbow matching of size %d not found in B(N)" % (p + q)
        )
    picked: list[tuple[int, int]] = []
    for color, b_edge in function.assignments:
        if color < q or b_edge in w:
            continue  # wildcard color, or a family color spent on a W edge
        picked.append((color - q, b_edge))
    for fam_idx, e in picked:
        if e not in sets[fam_idx]:
            raise TheoremViolation(f"edge {e} is not in family {fam_idx}")
    edges = tuple(sorted(e for _, e in picked))
    value, witness = _path_packing(bn, edges)
    if value < p:
        raise TheoremViolation(
            "rainbow set packs only %d < %d disjoint paths" % (value, p)
        )
    return DisjointPathsResult(edges, ChoiceFunction(tuple(picked)), value, witness)


# ---------------------------------------------------------------------------
# weighted rainbow paths


@dataclass(frozen=True)
class RainbowPath:
    """An s-t path whose edges carry pairwise-distinct family colors."""

    edges: tuple[int, ...]
    colors: tuple[int, ...]
    weight: int


def validate_st_path(net: Network, path: Sequence[int], s: int, t: int):
    """Check the edge sequence is a simple directed s-t path."""
    if not path:
        raise InstanceError("empty path")
    visited = [s]
    cur = s
    for e in path:
        if not 0 <= e < net.num_edges:
            raise InstanceError(f"unknown edge id {e}")
        u, v = net.edges[e]
        if u != cur:
            raise InstanceError(
                f"edge {e} starts at {u}, expected {cur}: not a path"
            )
        if v in visited:
            raise InstanceError(f"path revisits vertex {v}")
        visited.append(v)
        cur = v
    if cur != t:
        raise InstanceError(f"path ends at {cur}, not at the target {t}")


def rainbow_path_weighted(net: Network, weights: WeightMap,
                          paths: Sequence[Sequence[int]], bound: int) -> RainbowPath:
    """A rainbow s-t path of weight at most the bound, grown as a nested
    sequence of s-rooted trees.

    At each step the cheapest extension w(tree-path to v) + w(e) over
    edges e of still-unrepresented paths leaving the tree is added; ties
    go to the smallest vertex id, then the smallest edge id; the edge's
    color is the smallest-index unrepresented path containing it. After
    each step the tree invariant is checked: no tree vertex on an
    unrepresented path is farther from s in the tree than along that path.
    """
    s, t = net.single_terminals()
    n = net.n - 2
    if len(paths) < n + 1:
        raise HypothesisViolation(
            f"need at least {n + 1} paths for {n} inner vertices, got {len(paths)}"
        )
    if len(weights.weights) != net.num_edges:
        raise InstanceError("weight map length differs from the edge count")
    path_edges = [tuple(int(e) for e in p) for p in paths]
    for i, p in enumerate(path_edges):
        validate_st_path(net, p, s, t)
        if weights.total(p) > bound:
            raise HypothesisViolation(
                f"path {i} has weight {weights.total(p)} > bound {bound}", witness=i
            )

    # prefix weights per path, for the claimed tree invariant
    prefix: list[dict[int, int]] = []
    for p in path_edges:
        acc = 0
        d = {s: 0}
        for e in p:
            acc += weights.weight(e)
            d[net.edges[e][1]] = acc
        prefix.append(d)

    dist = {s: 0}
    parent: dict[int, tuple[int, int]] = {}  # v -> (edge, u)
    color_of: dict[int, int] = {}  # tree edge -> color
    represented: set[int] = set()
    while t not in dist:
        unrep = [i for i in range(len(path_edges)) if i not in represented]
        if not unrep:
            raise TheoremViolation("all paths represented before reaching t")
        step = min(((dist[u] + weights.weight(e), u, e)
                    for i in unrep for e in path_edges[i]
                    for u, v in [net.edges[e]] if u in dist and v not in dist),
                   default=None)
        if step is None:
            raise TheoremViolation(
                "no unrepresented path leaves the current tree"
            )
        w_new, u, e = step
        v = net.edges[e][1]
        color = min(i for i in unrep if e in path_edges[i])
        dist[v] = w_new
        parent[v] = (e, u)
        color_of[e] = color
        represented.add(color)
        for i in range(len(path_edges)):
            if i in represented:
                continue
            for x, via in prefix[i].items():
                if x in dist and dist[x] > via:
                    raise TheoremViolation(
                        "tree invariant w(T_i u) <= w(P u) failed"
                    )

    edges = _follow(parent, t)[::-1]
    result = RainbowPath(edges, tuple(color_of[e] for e in edges), dist[t])
    if result.weight > bound:
        raise TheoremViolation(
            "returned path weight %d exceeds the bound %d" % (result.weight, bound)
        )
    return result


# ---------------------------------------------------------------------------
# towers and path enforcers


@dataclass(frozen=True)
class TowerPair:
    """Vertex-disjoint n-fold source and target towers: orderings from s
    (and to t) where every later vertex receives (sends) enough edges from
    (to) the earlier tower vertices."""

    source_order: tuple[int, ...]
    source_sets: tuple[frozenset[int], ...]   # per source_order[1:]
    target_order: tuple[int, ...]
    target_sets: tuple[frozenset[int], ...]   # per target_order[1:]

    @property
    def source_vertices(self) -> frozenset[int]:
        return frozenset(self.source_order)

    @property
    def target_vertices(self) -> frozenset[int]:
        return frozenset(self.target_order)


def build_towers(net: Network, n: int,
                 weight: Optional[Mapping[int, int]] = None) -> TowerPair:
    """Greedy maximal pair of vertex-disjoint n-fold towers.

    Each round tries to extend the source tower first, then the target
    tower, smallest vertex id first, until neither grows.  When a weight
    map is given (e.g. path multiplicities) edge sets count by weight and
    zero-weight edges are ignored; the default weighs every edge 1.
    """
    s, t = net.single_terminals()
    if n < 1:
        raise InstanceError("towers need n >= 1")
    # side 0 is the source tower, grown by edges into a vertex; side 1 the
    # target tower, grown by edges out of one: vertex -> (edge, other end, weight)
    ends: tuple[dict[int, list[tuple[int, int, int]]], ...] = ({}, {})
    for e, (a, b) in enumerate(net.edges):
        w = 1 if weight is None else int(weight.get(e, 0))
        if w > 0:
            ends[0].setdefault(b, []).append((e, a, w))
            ends[1].setdefault(a, []).append((e, b, w))
    orders, sets = ([s], [t]), ([], [])

    def extend(side: int) -> bool:
        own = set(orders[side])
        taken = own.union(orders[1 - side])
        for v in range(net.n):
            if v not in taken:
                es = [(e, w) for e, x, w in ends[side].get(v, ()) if x in own]
                if sum(w for _, w in es) >= n:
                    orders[side].append(v)
                    sets[side].append(frozenset(e for e, _ in es))
                    return True
        return False

    while extend(0) or extend(1):
        pass
    return TowerPair(tuple(orders[0]), tuple(sets[0]), tuple(orders[1]), tuple(sets[1]))


@dataclass(frozen=True)
class PathEnforcer:
    """Edge sets whose every full choice function contains an s-t path and
    whose subfamily unions are large: |union K'| >= n(|K'|-1)+1."""

    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "sets", tuple(frozenset(int(e) for e in s) for s in self.sets)
        )


def enforcer_union_bounds(enforcer: PathEnforcer, n: int,
                          weight: Optional[Mapping[int, int]] = None) -> bool:
    """Whether |union K'| >= n(|K'|-1)+1 for every nonempty subfamily K' of
    the k sets, where |.| is the total weight when a weight map is given
    (an edge it omits weighs 0).

    By the deficiency form of Hall's theorem (Ore) this is one matching
    size: n copies of each set against w(e) copies of each of its edges
    have a matching of size n(k-1)+1 iff every bound holds. Copies past
    n*k change no bound, so each edge gets at most that many.
    """
    if n < 1:
        raise InstanceError(f"union bounds need n >= 1, got {n}")
    k = len(enforcer.sets)
    copies: dict[int, range] = {}
    top = 0
    for e in sorted(set().union(*enforcer.sets)):
        w = 1 if weight is None else int(weight.get(e, 0))
        if w < 0:
            raise InstanceError(f"edge {e}: negative weight {w}")
        copies[e] = range(top, top + min(w, n * k))
        top = copies[e].stop
    adj = [[r for e in sorted(s) for r in copies[e]] for s in enforcer.sets]
    match = _kuhn_max_matching(range(n * k), lambda u: adj[u // n])
    return len(match) >= n * (k - 1) + 1


def _reach(net: Network, edge_ids: Iterable[int], s: int) -> dict[int, tuple[int, int]]:
    """Breadth-first tree from s over the given edges, each vertex's
    out-edges tried by ascending id: v -> (edge, parent) for every vertex
    reached other than s."""
    out: dict[int, list[int]] = {}
    for e in sorted(edge_ids):
        out.setdefault(net.edges[e][0], []).append(e)
    tree: dict[int, tuple[int, int]] = {}
    queue = [s]
    for u in queue:
        for e in out.get(u, ()):
            v = net.edges[e][1]
            if v not in tree:
                tree[v] = (e, u)
                queue.append(v)
    return tree


@dataclass(frozen=True)
class ScrambledPathResult:
    """A rainbow s-t path with the enforcer and towers that produced it."""

    path: RainbowPath
    enforcer: PathEnforcer
    towers: TowerPair
    pivot_vertex: Optional[int]   # the heavy inner vertex, if that case fired


def scrambled_rainbow_path(net: Network, paths: Sequence[Sequence[int]],
                           scrambling: Sequence[Iterable[int]], n: int
                           ) -> ScrambledPathResult:
    """A rainbow s-t path with respect to an n-scrambling of more than
    n*k/2 s-t paths (k = number of inner vertices).

    Builds a maximal pair of n-fold towers (edge counts weighted by path
    multiplicity), forms a path enforcer from the tower sets plus either a
    heavy inner vertex's edges or a tower-to-tower edge, matches enforcer
    members to scrambling classes, and reads the path off the choices.
    """
    s, t = net.single_terminals()
    k = net.n - 2
    path_edges = [tuple(int(e) for e in p) for p in paths]
    for p in path_edges:
        validate_st_path(net, p, s, t)
    if 2 * len(path_edges) <= n * k:
        raise HypothesisViolation(
            f"need more than n*k/2 = {n * k / 2:g} paths, got {len(path_edges)}"
        )
    classes = validate_scrambling(path_edges, scrambling, n)
    mult = Counter(e for p in path_edges for e in p)

    towers = build_towers(net, n, weight=mult)
    src, tgt = towers.source_vertices, towers.target_vertices

    into: dict[int, list[int]] = {}   # vertex -> its live in-edges, ascending
    out: dict[int, list[int]] = {}    # vertex -> its live out-edges, ascending
    for e in sorted(mult):
        a, b = net.edges[e]
        out.setdefault(a, []).append(e)
        into.setdefault(b, []).append(e)

    pivot = None
    for w in sorted(set(range(net.n)) - src - tgt):
        into_w = [e for e in into.get(w, ()) if net.edges[e][0] in src]
        from_w = [e for e in out.get(w, ()) if net.edges[e][1] in tgt]
        if sum(mult[e] for e in into_w + from_w) > n:
            if not into_w or not from_w:
                raise TheoremViolation(
                    "a heavy inner vertex misses one side despite maximal towers"
                )
            pivot = w
            heavy_sets = [frozenset(into_w), frozenset(from_w)]
            break
    else:
        bridges = [e for a in src for e in out.get(a, ()) if net.edges[e][1] in tgt]
        if not bridges:
            raise TheoremViolation(
                "no tower-to-tower edge despite the double-count guarantee"
            )
        heavy_sets = [frozenset({min(bridges)})]

    enforcer = PathEnforcer(
        tuple(towers.source_sets) + tuple(towers.target_sets) + tuple(heavy_sets)
    )
    if not enforcer_union_bounds(enforcer, n, weight=mult):
        raise TheoremViolation("enforcer union lower bounds fail")

    # match enforcer members to scrambling classes through shared edges
    class_sets = [frozenset(c) for c in classes]
    member_match = _kuhn_max_matching(  # class -> member
        range(len(enforcer.sets)),
        lambda i: [c for c, cl in enumerate(class_sets) if enforcer.sets[i] & cl])
    if len(member_match) < len(enforcer.sets):
        raise TheoremViolation(
            "no system of distinct scrambling classes for the enforcer"
        )
    chosen: dict[int, int] = {}
    for c, i in member_match.items():
        e = min(enforcer.sets[i] & class_sets[c])
        chosen[e] = c
    tree = _reach(net, chosen, s)
    if t not in tree:
        raise TheoremViolation("chosen enforcer edges contain no s-t path")
    edges = _follow(tree, t)[::-1]
    path = RainbowPath(edges, tuple(chosen[e] for e in edges), len(edges))
    return ScrambledPathResult(path, enforcer, towers, pivot)
