"""Exact rainbow-matching search and the verifiers built on it: arrow
relations, coercive size sequences, the repeats theorem, pairwise-cooperative
rainbow matchings, scrambled matchings, and the families and check that
the counterexample sweeps run."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .core import (
    ChoiceFunction,
    Graph,
    HypothesisViolation,
    InstanceError,
    Matching,
    TheoremViolation,
    find_bipartition,
    matching_check,
    _edge_id_sets,
    _kuhn_max_matching,
    _max_matching_general,
)


@dataclass(frozen=True)
class EdgeFamily:
    """A colored family whose ground set is a graph's edge set."""

    graph: Graph
    colors: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(
            _edge_id_sets(self.colors, self.graph.num_edges, "colors")))

    @property
    def num_colors(self) -> int:
        return len(self.colors)


@dataclass(frozen=True)
class ArrowStatement:
    """The relation 'a matchings of size b admit a rainbow matching of
    size c' over a graph class."""

    a: int
    b: int
    c: int
    graph_class: str = "bipartite"

    def __post_init__(self):
        if min(self.a, self.b, self.c) < 0:
            raise InstanceError("arrow parameters must be nonnegative")
        if self.graph_class not in ("bipartite", "general"):
            raise InstanceError(f"unknown graph class {self.graph_class!r}")


@dataclass(frozen=True)
class SizeSequence:
    """A nondecreasing sequence of matching sizes with a rainbow target."""

    sizes: tuple[int, ...]
    target: int

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if any(b < a for a, b in zip(self.sizes, self.sizes[1:])):
            raise InstanceError("size sequence must be nondecreasing")
        if self.target < 0:
            raise InstanceError("target must be nonnegative")


def stairs_sequence(n: int) -> SizeSequence:
    """The staircase (1, 2, ..., n-1, n, ..., n) with n repeated n times."""
    return SizeSequence(tuple(range(1, n)) + (n,) * n, n)


def drisko_statement(n: int, graph_class: str = "bipartite") -> ArrowStatement:
    return ArrowStatement(2 * n - 1, n, n, graph_class)


# ---------------------------------------------------------------------------
# the exact engine


class _RainbowSearch:
    """Branch and bound for a maximum rainbow matching, on int bitmasks of
    edge ids.

    The set-up depends on the graph alone: its bipartition, its distinct
    vertex pairs and the edges each edge kills. So one search serves every
    family on the same graph (a sweep sets one up per host graph and runs
    it once per family), and `run` takes each class as the mask of its edges.

    Branches on the color class with the fewest live edges, the edges that
    share no vertex with the partial (edges by ascending id within a class,
    then the skip branch); prunes a node when the size of the partial plus
    a bound on what the live edges can add is at most the best found. The
    skip branch also drops every class whose live edges cover the same
    vertex pairs as the branch class (orbital branching on the orbit of
    identical classes).

    The bound is the least of three values, asked cheapest first, and a
    node is pruned as soon as one of them prunes it:
    1. the number of live classes;
    2. on a non-bipartite graph, the sum of floor(|V(C)| / 2) over the
       components C of the live vertex pairs (`_component_bound`, the
       Tutte-Berge bound with no vertex removed);
    3. the matching number of the live vertex pairs (`_matching_bound`).
    The component count is at least the matching number, so it prunes
    only nodes that the matching number prunes too, and the tree is the
    one that the class count and the matching number give. On disjoint
    cliques, paths and odd cycles the component count is the matching
    number, so Edmonds' blossom never runs there. Bipartite graphs skip
    the component count: Kuhn's matching costs about what the count does,
    and on random bipartite families the count rarely prunes.

    Every search asks the second and third only from its first dead end (a
    node with no live class) on, and until then prunes by the number of
    live classes alone. Before that dead end every node lies on the first
    path of take branches, where the best matching is the partial itself
    and the bound of a nonempty live set is at least 1, so nothing is
    pruned there either way: the tree is the same, and a first descent
    makes no bound call.

    `run` walks that tree depth first on an explicit stack, so its depth is
    not bounded by the recursion limit, and leaves the object as set up.
    """

    def __init__(self, g: Graph):
        sides = find_bipartition(g)
        self.bipartite = sides is not None
        parallel: dict[int, int] = {}  # vertex mask of a pair -> its edge ids
        for e, (u, v) in enumerate(g.edges):
            m = 1 << u | 1 << v
            parallel[m] = parallel.get(m, 0) | 1 << e
        incident = [0] * g.n
        # (edge ids, left, right) per distinct vertex pair
        self.pairs: list[tuple[int, int, int]] = []
        for m, edges in parallel.items():
            u, v = (m & -m).bit_length() - 1, m.bit_length() - 1
            incident[u] |= edges
            incident[v] |= edges
            if sides and v in sides[0]:
                u, v = v, u
            self.pairs.append((edges, u, v))
        # choosing edge e kills e and every edge that meets it
        self.kills = [incident[u] | incident[v] for u, v in g.edges]

    def _matching_bound(self, union: int) -> int:
        """The matching number of the vertex pairs of the edges in union."""
        live = [p for p in self.pairs if p[0] & union]
        if self.bipartite:
            adj: dict[int, list[int]] = {}
            for _, l, r in live:
                adj.setdefault(l, []).append(r)
            return len(_kuhn_max_matching(adj, adj.__getitem__))
        return len(_max_matching_general(list(range(len(live))),
                                         [1 << l | 1 << r for _, l, r in live]))

    def _component_bound(self, union: int) -> int:
        """The sum of floor(|V(C)| / 2) over the components C of the vertex
        pairs of the edges in union: at least their matching number."""
        components: list[int] = []
        for edges, u, v in self.pairs:
            if edges & union:
                merged = 1 << u | 1 << v
                apart = []
                for c in components:
                    if c & merged:
                        merged |= c
                    else:
                        apart.append(c)
                apart.append(merged)
                components = apart
        return sum(c.bit_count() // 2 for c in components)

    def run(self, colors: Sequence[int], target: Optional[int]
            ) -> list[tuple[int, int]]:
        """A maximum rainbow matching of the classes (one edge-id mask per
        class) as (class, edge) pairs, or the first one found of size
        target."""
        best: list[tuple[int, int]] = []
        bounding = False  # from the first dead end on
        # (killed edges, candidate classes, chosen pairs, the mask of the
        # class whose skip branch this is, or 0)
        stack = [(0, dict(enumerate(colors)), (), 0)]
        while stack and (target is None or len(best) < target):
            killed, compatible, chosen, skipped = stack.pop()
            if skipped:
                # A skip-branch solution using a class with the same live
                # vertex pairs maps to a take-branch solution of the same
                # size, so the skip branch drops every such class: those
                # inside the edges of the skipped class's pairs meeting each.
                size = skipped.bit_count()
                orbit = [p[0] for p in self.pairs if p[0] & skipped]
                cover = sum(orbit)
                compatible = {c: m for c, m in compatible.items() if m.bit_count() != size
                              or m & ~cover or not all(p & m for p in orbit)}
            keep = ~killed
            live = {c: m & keep for c, m in compatible.items() if m & keep}
            if len(chosen) > len(best):
                best = list(chosen)
            if not live:
                bounding = True
                continue
            slack = len(best) - len(chosen)
            if len(live) <= slack:
                continue
            if bounding:
                union = 0
                for m in live.values():
                    union |= m
                if (not self.bipartite and self._component_bound(union) <= slack
                        or self._matching_bound(union) <= slack):
                    continue
            branch_color = min(live, key=lambda c: (live[c].bit_count(), c))
            branch = rest = live.pop(branch_color)
            # the skip branch pops last, the take branches by ascending edge id
            stack.append((killed, live, chosen, branch))
            while rest:
                e = rest.bit_length() - 1
                rest ^= 1 << e
                stack.append((killed | self.kills[e], live, chosen + ((branch_color, e),), 0))
        return best


def _id_mask(ids: Iterable[int]) -> int:
    """The int with bit e set for each e in ids; a repeated id sets its bit
    once."""
    mask = 0
    for e in ids:
        mask |= 1 << e
    return mask


def max_rainbow_matching(fam: EdgeFamily, target: Optional[int] = None
                         ) -> tuple[Matching, ChoiceFunction]:
    """A maximum-size rainbow matching with its color provenance.

    If target is given the search stops as soon as a rainbow matching of
    that size is found; a negative target raises InstanceError.
    """
    if target is not None and target < 0:
        raise InstanceError(f"target must be nonnegative, got {target}")
    chosen = _RainbowSearch(fam.graph).run(list(map(_id_mask, fam.colors)), target)
    return Matching(frozenset(e for _, e in chosen)), ChoiceFunction(tuple(chosen))


def _check_matchings(g: Graph, classes: Sequence[frozenset[int]],
                     min_sizes: Sequence[int], noun: str, plural: str) -> None:
    """The hypothesis on a family of matchings of g: len(min_sizes) classes
    (counted as `plural`), each a matching, class i (named `noun` i) with at
    least min_sizes[i] edges. A failure raises HypothesisViolation."""
    if len(classes) != len(min_sizes):
        raise HypothesisViolation(f"expected {len(min_sizes)} {plural}, got {len(classes)}",
                                  witness=len(classes))
    for i, (edges, need) in enumerate(zip(classes, min_sizes)):
        if not matching_check(g, edges):
            raise HypothesisViolation(f"{noun} {i} is not a matching", witness=i)
        if len(edges) < need:
            raise HypothesisViolation(f"{noun} {i} has size {len(edges)} < required {need}",
                                      witness=i)


def _has_rainbow_matching(fam: EdgeFamily, min_sizes: Sequence[int], target: int,
                          bipartite: bool) -> bool:
    """True iff the family, one matching of at least min_sizes[i] edges per
    class (on a bipartite graph if asked), has a rainbow matching of size
    target; a family outside that hypothesis raises HypothesisViolation.
    One search on the graph decides bipartiteness and finds the matching."""
    search = _RainbowSearch(fam.graph)
    if bipartite and not search.bipartite:
        raise HypothesisViolation("instance graph is not bipartite")
    _check_matchings(fam.graph, fam.colors, min_sizes, "color", "color classes")
    return len(search.run(list(map(_id_mask, fam.colors)), target)) >= target


def check_arrow_instance(stmt: ArrowStatement, fam: EdgeFamily) -> bool:
    """True iff the instance has a rainbow matching of size stmt.c."""
    return _has_rainbow_matching(fam, [stmt.b] * stmt.a, stmt.c,
                                 stmt.graph_class == "bipartite")


def check_sequence_instance(sigma: SizeSequence, fam: EdgeFamily) -> bool:
    """True iff the instance has a rainbow matching of size sigma.target."""
    return _has_rainbow_matching(fam, sigma.sizes, sigma.target, True)


# ---------------------------------------------------------------------------
# the repeats theorem


def repeats_matching(g: Graph, matchings: Sequence[Iterable[int]], k: int,
                     n: int) -> tuple[Matching, ChoiceFunction]:
    """A size-n matching inside the union of 2k-1 matchings, injectively
    representing at least k of them.

    Sizes must be at least n from the k-th matching on; earlier matchings
    may shrink along the staircase min(i, k-1), which is the proved regime
    for k <= 2 and the theorem's regime when all sizes reach n. The
    theorem covers bipartite graphs: on any other graph the search is still
    tried, and its failure raises HypothesisViolation.
    """
    sets = _edge_id_sets(matchings, g.num_edges, "matchings")
    if k < 1 or k > n:
        raise HypothesisViolation(f"need 1 <= k <= n, got k={k}, n={n}")
    _check_matchings(g, sets, [i + 1 if i + 1 < k else n for i in range(2 * k - 1)],
                     "matching", "matchings")

    # n - k wildcard copies of the union: a size-n rainbow matching gives at
    # least k of the real matchings distinct edges, and a size-n matching
    # representing k of them sends its other n - k edges to the wildcards
    union = frozenset().union(*sets)
    search = _RainbowSearch(g)
    chosen = search.run(list(map(_id_mask, sets + [union] * (n - k))), n)
    if len(chosen) < n:
        if not search.bipartite:
            raise HypothesisViolation(
                "graph is not bipartite, and no size-%d matching representing "
                "%d of the matchings exists" % (n, k)
            )
        raise TheoremViolation(
            "no size-%d matching representing %d of the matchings exists; "
            "this contradicts the repeats theorem" % (n, k)
        )
    return (Matching(frozenset(e for _, e in chosen)),
            ChoiceFunction(tuple((c, e) for c, e in chosen if c < len(sets))))


# ---------------------------------------------------------------------------
# pairwise-cooperative rainbow matchings


def cooperative_drisko_check(g: Graph, families: Sequence[Iterable[int]],
                             k: int) -> tuple[Matching, ChoiceFunction]:
    """A rainbow matching of size k from 2k-1 nonempty edge sets whose
    pairwise unions all contain matchings of size k. One search on g
    decides bipartiteness, bounds each pairwise union and finds the
    matching."""
    search = _RainbowSearch(g)
    if not search.bipartite:
        raise HypothesisViolation("graph is not bipartite")
    sets = _edge_id_sets(families, g.num_edges, "families")
    if len(sets) != 2 * k - 1:
        raise HypothesisViolation(
            f"expected {2 * k - 1} edge sets, got {len(sets)}", witness=len(sets)
        )
    for i, f in enumerate(sets):
        if not f:
            raise HypothesisViolation(f"edge set {i} is empty", witness=i)
    masks = list(map(_id_mask, sets))
    for i, j in itertools.combinations(range(len(sets)), 2):
        nu = search._matching_bound(masks[i] | masks[j])
        if nu < k:
            raise HypothesisViolation(
                f"matching number of the union of sets {i} and {j} is {nu} < {k}",
                witness=(i, j),
            )
    chosen = search.run(masks, k)
    if len(chosen) < k:
        raise TheoremViolation(
            "no rainbow matching of size %d despite pairwise unions of "
            "matching number >= %d" % (k, k)
        )
    return Matching(frozenset(e for _, e in chosen)), ChoiceFunction(tuple(chosen))


# ---------------------------------------------------------------------------
# scrambled matchings


@dataclass(frozen=True)
class ScrambledMatchingReport:
    """Outcome of a scrambled-matching search."""

    matching: Matching
    function: ChoiceFunction
    target: int
    guaranteed: bool

    @property
    def met(self) -> bool:
        return len(self.matching) >= self.target


def validate_scrambling(original: Sequence[Iterable[int]],
                        scrambling: Sequence[Iterable[int]], n: int
                        ) -> tuple[tuple[int, ...], ...]:
    """Check the scrambling re-partitions the same edge multiset into
    classes of size at most n; returns the classes as sorted tuples."""
    pool = Counter()
    for f in original:
        pool.update(int(e) for e in f)
    classes = tuple(tuple(sorted(int(e) for e in c)) for c in scrambling)
    scr = Counter()
    for i, c in enumerate(classes):
        if len(c) > n:
            raise InstanceError(
                f"scrambling[{i}]: class of size {len(c)} exceeds the bound {n}"
            )
        scr.update(c)
    if pool != scr:
        diff = (pool - scr) + (scr - pool)
        raise InstanceError(
            f"scrambling is not a re-partition of the same edge multiset; "
            f"first mismatch at edge {min(diff)}"
        )
    return classes


def scrambled_matching_check(g: Graph, original: Sequence[Iterable[int]],
                             scrambling: Sequence[Iterable[int]], n: int
                             ) -> ScrambledMatchingReport:
    """Search for a rainbow matching of size n with respect to a scrambling
    of a family of matchings.

    When the family is large enough (at least n^2 - n/2 matchings of size
    n) the search is guaranteed to succeed; otherwise the best found is
    reported.
    """
    originals = _edge_id_sets(original, g.num_edges, "original")
    for i, f in enumerate(originals):
        if not matching_check(g, f):
            raise HypothesisViolation(f"original family member {i} is not a matching",
                                      witness=i)
    classes = validate_scrambling(originals, scrambling, n)
    fam = EdgeFamily(g, tuple(frozenset(c) for c in classes))
    matching, function = max_rainbow_matching(fam, target=n)
    guaranteed = (
        all(len(f) == n for f in originals)
        and 2 * len(originals) >= 2 * n * n - n
    )
    if guaranteed and len(matching) < n:
        raise TheoremViolation(
            "scrambled family of %d matchings of size %d has no rainbow "
            "matching of size %d" % (len(originals), n, n)
        )
    return ScrambledMatchingReport(matching, function, n, guaranteed)


# ---------------------------------------------------------------------------
# counterexample sweeps

# a family of the exhaustive claim sweeps: its graph, and each class's edge ids
_Family = tuple[Graph, tuple[tuple[int, ...], ...]]


def _matchings_of_size_in(g: Graph, size: int) -> Iterator[tuple[int, ...]]:
    """The size-`size` matchings of g, each as ascending edge ids, in
    lexicographic order. A branch stops once too few edges disjoint from
    its picks remain to complete it."""
    masks = [g.edge_mask(e) for e in range(g.num_edges)]

    def rec(idx: int, used: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if len(acc) == size:
            yield tuple(acc)
            return
        free = [e for e in range(idx, len(masks)) if not masks[e] & used]
        if len(acc) + len(free) < size:
            return
        for e in free:
            acc.append(e)
            yield from rec(e + 1, used | masks[e], acc)
            acc.pop()

    yield from rec(0, 0, [])


def _cycle_graph(lengths: tuple[int, ...]) -> Graph:
    edges: list[tuple[int, int]] = []
    base = 0
    for length in lengths:
        for i in range(length):
            edges.append((base + i, base + (i + 1) % length))
        base += length
    return Graph(base, tuple(edges))


def _serialize_family_instance(g: Graph, colors: Sequence[Iterable[int]]) -> dict:
    return {
        "graph": {"n": g.n, "edges": [list(e) for e in g.edges]},
        "colors": [sorted(c) for c in colors],
    }


def _index_tables(matchings: list[tuple[int, ...]], perms: Iterable[Sequence[int]]
                  ) -> list[list[int]]:
    """One table per edge permutation: entry i is the index in `matchings`
    (sorted, each a sorted tuple of edge ids) of the image of matchings[i]."""
    index = {m: i for i, m in enumerate(matchings)}
    return [[index[tuple(sorted(p[e] for e in m))] for m in matchings] for p in perms]


def _side_automorphisms(nl: int, nr: int) -> Iterator[list[int]]:
    """Every relabeling of K_{nl,nr}'s sides as a permutation of its edge
    ids (edge l*nr + r joins left l and right nl + r): each permutation of
    either side, then, when nl == nr, each of those followed by the side
    swap."""
    for swap in ((False,), (False, True))[nl == nr]:
        for lp in itertools.permutations(range(nl)):
            for rp in itertools.permutations(range(nr)):
                yield [rp[r] * nr + lp[l] if swap else lp[l] * nr + rp[r]
                       for l in range(nl) for r in range(nr)]


def _cycle_automorphisms(lengths: tuple[int, ...]) -> Iterator[list[int]]:
    """Every automorphism of _cycle_graph(lengths) as a permutation of its
    edge ids: a rotation or reflection of each cycle (edge i of a cycle
    joins its vertices i and i+1) and any exchange of equal-length cycles."""
    bases = list(itertools.accumulate(lengths, initial=0))
    dihedral = [[[(r + s * e) % length for e in range(length)]
                 for r in range(length) for s in (1, -1)] for length in lengths]
    cycles = range(len(lengths))
    for order in itertools.permutations(cycles):
        if any(lengths[c] != lengths[t] for c, t in zip(cycles, order)):
            continue
        for moves in itertools.product(*dihedral):
            yield [bases[t] + m for t, move in zip(order, moves) for m in move]


def _bipartite_canonical(family: Sequence[int], tables: Sequence[Sequence[int]]
                         ) -> bool:
    """Whether a nondecreasing list of matching indices is the least of its
    images under the index tables; stops at the first smaller image."""
    least = list(family)
    return all(sorted([table[i] for i in family]) >= least for table in tables)


def _no_rainbow_matching(need: int) -> Callable[[_Family], Optional[tuple[dict, dict]]]:
    """A sweep check for families with no rainbow matching of size need:
    one search is set up per graph, when the stream moves to a new graph
    object, and run on each family's class masks; a hit is the serialized
    family."""
    host: list = [None, None]  # the current graph and its search

    def check(family: _Family) -> Optional[tuple[dict, dict]]:
        g, colors = family
        if g is not host[0]:
            host[:] = g, _RainbowSearch(g)
        if len(host[1].run(list(map(_id_mask, colors)), need)) >= need:
            return None
        return _serialize_family_instance(g, colors), {}

    return check


def _orderly_families(g: Graph, sizes: tuple[int, ...],
                      automorphisms: Iterable[Sequence[int]]) -> Iterator[_Family]:
    """Every family of matchings of g with the given nondecreasing sizes, up
    to the automorphisms (permutations of g's edge ids): the first family
    of each class in enumeration order, as (g, its matchings).

    That first family is found by orderly generation (Read 1978). The
    matchings of each size are listed once, sorted, the sizes in increasing
    order, so a family is a nondecreasing index list and the families come
    out in lexicographic order; an automorphism keeps each matching's size,
    so the first family of a class is its least member. Its part of the
    smallest size is then the least under every automorphism, and the rest
    is the least under the automorphisms that fix that part."""
    counts = Counter(sizes)
    matchings: list[tuple[int, ...]] = []
    parts = []
    for size in sorted(counts):
        start = len(matchings)
        matchings += _matchings_of_size_in(g, size)
        parts.append(itertools.combinations_with_replacement(
            range(start, len(matchings)), counts[size]))
    tables = _index_tables(matchings, automorphisms)
    heads, *rest = parts
    tails = list(itertools.product(*rest))
    for head in heads:
        if not _bipartite_canonical(head, tables):
            continue
        # with one size the head is the whole family: no tail is left to test
        stabilizer = ([t for t in tables if sorted(t[i] for i in head) == list(head)]
                      if rest else [])
        for tail in tails:
            family = head + tuple(itertools.chain(*tail))
            if _bipartite_canonical(family, stabilizer):
                yield g, tuple(matchings[i] for i in family)


def _cycle_families(sizes: tuple[int, ...], ambients: Iterable[tuple[int, ...]]
                    ) -> Iterator[_Family]:
    """_orderly_families inside each disjoint union of cycles with the
    given lengths, up to its automorphisms."""
    for lengths in ambients:
        yield from _orderly_families(_cycle_graph(lengths), sizes,
                                     _cycle_automorphisms(lengths))


def _complete_bipartite(nl: int, nr: int) -> Graph:
    """K_{nl,nr} with sides 0..nl-1 and nl..nl+nr-1: edge l*nr + r joins
    left vertex l and right vertex nl + r."""
    return Graph(nl + nr, tuple((l, nl + r) for l in range(nl) for r in range(nr)),
                 (frozenset(range(nl)), frozenset(range(nl, nl + nr))))


def _bipartite_families(n: int, max_vertices: int) -> Iterator[_Family]:
    """Every family of n matchings of size n over each bipartition with at
    most max_vertices vertices, covering both sides, up to relabeling: the
    _orderly_families of K_{nl,nr} under _side_automorphisms that cover
    it. A relabeling keeps a family covering, so this keeps the first
    family of each isomorphism class in enumeration order."""
    for nl in range(n, max_vertices + 1):
        # no family covers more than n * n vertices of a side: build no tables there
        for nr in range(nl, min(max_vertices - nl, n * n) + 1):
            g = _complete_bipartite(nl, nr)
            for family in _orderly_families(g, (n,) * n, _side_automorphisms(nl, nr)):
                # one that leaves a vertex uncovered was counted at a smaller bipartition
                if len({v for c in family[1] for e in c for v in g.edges[e]}) == nl + nr:
                    yield family


def _draw_matchings(rng, sizes: Sequence[int]) -> tuple[int, list[list[int]]]:
    """m (the largest size, or 1 with no sizes) and, per size s, the edges
    that left vertices 0..s-1 take in a uniform random permutation matching
    of K_{m,m}, as ids in _complete_bipartite(m, m) (l*m + r joins left l
    and right m + r), by one rng.shuffle per size."""
    m = max(sizes) if sizes else 1
    draw = []
    for s in sizes:
        perm = list(range(m))
        rng.shuffle(perm)
        draw.append([l * m + r for l, r in enumerate(perm[:s])])
    return m, draw


def _drawn_family(m: int, draw: Sequence[Sequence[int]]) -> EdgeFamily:
    """A draw of _draw_matchings as a family with sides 0..m-1 and
    m..2m-1 in which every edge gets a fresh id, class by class and by
    ascending left vertex, so repeats across colors become parallel edges."""
    edges: list[tuple[int, int]] = []
    colors: list[frozenset[int]] = []
    for host in draw:
        colors.append(frozenset(range(len(edges), len(edges) + len(host))))
        edges += ((e // m, m + e % m) for e in host)
    sides = (frozenset(range(m)), frozenset(range(m, 2 * m)))
    return EdgeFamily(Graph(2 * m, tuple(edges), sides), tuple(colors))


def _drawn_instance(m: int, draw: Sequence[Sequence[int]]) -> dict:
    """The serialized form of _drawn_family(m, draw)."""
    fam = _drawn_family(m, draw)
    return _serialize_family_instance(fam.graph, fam.colors)


def random_matching_family(rng, sizes: Sequence[int]) -> EdgeFamily:
    """A seeded family of bipartite matchings with the given sizes: each is
    a uniform random permutation matching of K_{m,m} (m = largest size)
    restricted to its first entries, with sides 0..m-1 and m..2m-1; every
    edge gets a fresh id, so repeats across colors become parallel edges.

    It is the draw of _draw_matchings built by _drawn_family; the random
    claim sweeps draw the same families from the same rng but search them
    on K_{m,m} itself, and build this form only for a counterexample."""
    return _drawn_family(*_draw_matchings(rng, sizes))
