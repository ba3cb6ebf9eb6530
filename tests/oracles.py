"""Independent brute-force oracles used to pin expected values in tests.

Everything here recomputes answers by exhaustive enumeration, staying off
the code paths it is used to check. The one exception is the counting-lemma
layer of the path-packing proof (linearish arborescences, their
classification and the maps phi and psi into the bipartite double), which
the tests check against the lemma itself. random_bipartite draws the
bipartite graphs that the matching kernel and Hall are checked on.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from rainbowsets.core import Graph, InstanceError, Network, ResourceCapError
from rainbowsets.matching import EdgeFamily
from rainbowsets.networks import BipartifiedNetwork, PathEnforcer, _follow, bipartify


def brute_max_matching(g: Graph) -> int:
    """Maximum matching by trying all edge subsets."""
    best = 0
    for r in range(g.num_edges, 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(range(g.num_edges), r):
            used = 0
            ok = True
            for e in combo:
                m = g.edge_mask(e)
                if used & m:
                    ok = False
                    break
                used |= m
            if ok:
                best = max(best, r)
                break
    return best


def kuhn_reference(lefts, neighbors) -> dict:
    """Maximum bipartite matching {right: left} by recursive augmenting
    paths, trying lefts and each one's neighbors in the given order."""
    match: dict = {}

    def aug(u, visited: set) -> bool:
        for v in neighbors(u):
            if v in visited:
                continue
            visited.add(v)
            if v not in match or aug(match[v], visited):
                match[v] = u
                return True
        return False

    for u in lefts:
        aug(u, set())
    return match


def alternating_reach(lefts, adj, match) -> set:
    """The right vertices alternating paths from the unmatched lefts reach.
    Each is matched, or the path to it would augment the matching (Berge)."""
    reach: set = set()
    frontier = [u for u in lefts if u not in match.values()]
    while frontier:
        for v in adj[frontier.pop()]:
            if v not in reach:
                assert v in match, f"augmenting path to {v}"
                reach.add(v)
                frontier.append(match[v])
    return reach


def random_bipartite(rng: random.Random, max_side: int):
    """Lefts in a random order and a shuffled adjacency {left: [right]}.
    Every third graph is a chain {0}, {0, 1}, {1, 2}, ... with a few extra
    edges, the shape on which every search succeeds."""
    nl, nr = rng.randint(1, max_side), rng.randint(1, max_side)
    if rng.random() < 1 / 3:
        nr = nl
        adj = {u: [nl + v for v in (u - 1, u) if v >= 0] for u in range(nl)}
        for u in rng.sample(range(nl), nl // 3):
            adj[u].append(nl + rng.randrange(nr))
    else:
        p = rng.random()
        adj = {u: [nl + v for v in range(nr) if rng.random() < p]
               for u in range(nl)}
    for nbrs in adj.values():
        if rng.random() < 0.5:
            rng.shuffle(nbrs)
    lefts = rng.sample(range(nl), nl) if rng.random() < 0.5 else list(range(nl))
    return lefts, adj


def brute_max_rainbow(fam: EdgeFamily) -> int:
    """Maximum rainbow matching over all injective choice functions."""
    g = fam.graph
    best = 0

    def rec(color: int, used_vertices: int, used_edges: frozenset, count: int):
        nonlocal best
        best = max(best, count)
        if color == fam.num_colors:
            return
        rec(color + 1, used_vertices, used_edges, count)
        for e in sorted(fam.colors[color]):
            m = g.edge_mask(e)
            if e in used_edges or used_vertices & m:
                continue
            rec(color + 1, used_vertices | m, used_edges | {e}, count + 1)

    rec(0, 0, frozenset(), 0)
    return best


def brute_full_injective_choice(sets: list[frozenset[int]]) -> bool:
    """Does a full injective choice function exist (Hall)?"""

    def rec(i: int, used: frozenset) -> bool:
        if i == len(sets):
            return True
        return any(rec(i + 1, used | {x}) for x in sorted(sets[i] - used))

    return rec(0, frozenset())


def brute_family_matching(sets: list[frozenset[int]]) -> int:
    """Most colors an injective choice function can serve, by memoized
    search over (color, used elements)."""

    @functools.lru_cache(maxsize=None)
    def rec(i: int, used: frozenset) -> int:
        if i == len(sets):
            return 0
        return max([rec(i + 1, used)]
                   + [1 + rec(i + 1, used | {x}) for x in sets[i] - used])

    return rec(0, frozenset())


def brute_repeats(g: Graph, matchings, k: int, n: int) -> bool:
    """Does some size-n matching inside the union of the matchings give at
    least k of them distinct edges? Tries every size-n edge subset of the
    union, and every injective representation of each matching one."""
    sets = [frozenset(m) for m in matchings]
    for chosen in itertools.combinations(sorted(frozenset().union(*sets)), n):
        used = 0
        for e in chosen:
            if used & g.edge_mask(e):
                break
            used |= g.edge_mask(e)
        else:
            if brute_family_matching([m & frozenset(chosen) for m in sets]) >= k:
                return True
    return False


def brute_full_independent_choice(sets: list[frozenset[int]], matroid) -> bool:
    """Does a full injective choice function with independent image exist
    (Rado)?"""

    def rec(i: int, chosen: frozenset) -> bool:
        if i == len(sets):
            return True
        for x in sorted(sets[i] - chosen):
            cand = chosen | {x}
            if matroid.is_independent(cand) and rec(i + 1, cand):
                return True
        return False

    return rec(0, frozenset())


def brute_matroid_intersection_size(m1, m2) -> int:
    """Largest common independent set by subset enumeration."""
    m = m1.ground_size
    best = 0
    for mask in range(1 << m):
        s = frozenset(i for i in range(m) if mask >> i & 1)
        if len(s) > best and m1.is_independent(s) and m2.is_independent(s):
            best = len(s)
    return best


def brute_rank(oracle, subset) -> int:
    """Size of the largest independent subset of subset, by enumerating its
    subsets from the largest down; uses only is_independent."""
    pool = sorted(set(subset))
    for r in range(len(pool), -1, -1):
        if any(oracle.is_independent(c) for c in itertools.combinations(pool, r)):
            return r
    return 0


def reference_ground(descriptor: dict) -> int:
    """Ground size of a serialized matroid, read from its descriptor."""
    kind = descriptor["kind"]
    if kind == "graphic":
        return len(descriptor["graph"]["edges"])
    if kind == "binary":
        rows = descriptor["matrix"]
        return len(rows[0]) if rows else 0
    if kind == "truncation":
        return reference_ground(descriptor["inner"])
    if kind == "direct-sum":
        return reference_ground(descriptor["left"]) + reference_ground(descriptor["right"])
    return descriptor["ground_size"]


def reference_independent(descriptor: dict, subset) -> bool:
    """Independence of subset in the matroid a descriptor serializes,
    computed from the descriptor alone: counting for partition and uniform
    matroids, a forest walk for graphic ones, row elimination over the
    chosen columns for binary ones, recursion for truncation and direct
    sum. Never touches an oracle."""
    s = sorted(set(subset))
    kind = descriptor["kind"]
    if kind == "free":
        return True
    if kind == "uniform":
        return len(s) <= descriptor["k"]
    if kind == "partition":
        caps = descriptor.get("caps") or [1] * len(descriptor["parts"])
        return all(sum(x in part for x in s) <= cap
                   for part, cap in zip(descriptor["parts"], caps))
    if kind == "graphic":
        # walk each component of the chosen edges; meeting a visited vertex
        # by any edge other than the one walked in on closes a cycle
        adj: dict[int, list[tuple[int, int]]] = {}
        for e in s:
            u, v = descriptor["graph"]["edges"][e]
            adj.setdefault(u, []).append((v, e))
            adj.setdefault(v, []).append((u, e))
        seen: set[int] = set()
        for root in adj:
            if root in seen:
                continue
            seen.add(root)
            stack = [(root, None)]
            while stack:
                u, via = stack.pop()
                for w, e in adj[u]:
                    if e == via:
                        continue
                    if w in seen:
                        return False
                    seen.add(w)
                    stack.append((w, e))
        return True
    if kind == "binary":
        rows = [[row[j] & 1 for j in s] for row in descriptor["matrix"]]
        rank = 0
        for col in range(len(s)):
            pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
            if pivot is None:
                return False
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for r in range(len(rows)):
                if r != rank and rows[r][col]:
                    rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
            rank += 1
        return True
    if kind == "truncation":
        return len(s) <= descriptor["k"] and reference_independent(descriptor["inner"], s)
    if kind == "direct-sum":
        off = reference_ground(descriptor["left"])
        return (reference_independent(descriptor["left"], [x for x in s if x < off])
                and reference_independent(descriptor["right"],
                                          [x - off for x in s if x >= off]))
    raise ValueError(f"no reference for matroid kind {kind!r}")


def reference_ranks(descriptor: dict, ground: int) -> list[int]:
    """Rank of every subset of range(ground), indexed by bitmask: the size
    of the subset if reference_independent, else the largest rank among
    its one-smaller subsets."""
    ranks = [0] * (1 << ground)
    for mask in range(1, 1 << ground):
        members = [i for i in range(ground) if mask >> i & 1]
        if reference_independent(descriptor, members):
            ranks[mask] = len(members)
        else:
            ranks[mask] = max(ranks[mask ^ (1 << i)] for i in members)
    return ranks


def reference_member_table(descriptor: dict, ground: int) -> bytes:
    """One byte per subset of range(ground), indexed by bitmask: 1 iff the
    subset is independent by reference_independent."""
    return bytes(reference_independent(descriptor, [i for i in range(ground) if mask >> i & 1])
                 for mask in range(1 << ground))


def reference_member_queries(table: bytes) -> tuple[list[int], list[int]]:
    """The nonempty independent sets and the circuits of a member table, as
    ascending bitmasks: the circuits are the non-members whose every
    one-smaller subset is a member."""
    independent = [mask for mask, bit in enumerate(table) if bit and mask]
    circuits = [mask for mask, bit in enumerate(table)
                if not bit and all(table[mask ^ (1 << i)] for i in range(mask.bit_length())
                                   if mask >> i & 1)]
    return independent, circuits


def reference_maximal_members(m: int, members: bytes) -> list[int]:
    """The members of a byte mask over the subsets of range(m) that no
    one-larger subset extends, ascending, by a per-subset search."""
    return [s for s in range(1 << m) if members[s] and all(
        not members[s | 1 << i] for i in range(m) if not s >> i & 1)]


def brute_covering_number(*descriptors: dict) -> int:
    """Fewest sets, each independent in every serialized matroid, that
    partition the shared ground; ground + 1 when some element is a loop.

    A DP over subsets: the best partition of a subset puts its lowest
    element in some allowed part and partitions the rest. A cover trims to
    a partition because independence passes to subsets. Uses only
    reference_independent."""
    ground = reference_ground(descriptors[0])
    allowed = [all(reference_independent(d, [i for i in range(ground) if mask >> i & 1])
                   for d in descriptors)
               for mask in range(1 << ground)]
    best = [0] + [ground + 1] * ((1 << ground) - 1)
    for mask in range(1, 1 << ground):
        low = mask & -mask
        rest = sub = mask ^ low
        while True:
            if allowed[sub | low]:
                best[mask] = min(best[mask], best[rest ^ sub] + 1)
            if not sub:
                break
            sub = (sub - 1) & rest
    return best[-1]


def brute_cooperative_violations(m, target, sets) -> list[frozenset[int]]:
    """Every color set J whose union has rank below |J| and does not span
    the target (some t raises the rank when added); uses only brute_rank."""
    out = []
    for r in range(1, len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), r):
            union = set().union(*(sets[i] for i in combo))
            rank = brute_rank(m, union)
            if rank < r and any(brute_rank(m, union | {t}) > rank for t in target):
                out.append(frozenset(combo))
    return out


def brute_intersection_minmax(m1, m2) -> int:
    """min over bipartitions (A, complement) of rank1(A) + rank2(comp)."""
    m = m1.ground_size
    best = None
    for mask in range(1 << m):
        a = frozenset(i for i in range(m) if mask >> i & 1)
        b = frozenset(range(m)) - a
        val = brute_rank(m1, a) + brute_rank(m2, b)
        if best is None or val < best:
            best = val
    return best


def is_matroid(oracle) -> bool:
    """Check the three matroid axioms by exhaustive enumeration."""
    m = oracle.ground_size
    if m > 10:
        raise ValueError("axiom check intended for small grounds")
    if not oracle.is_independent(frozenset()):
        return False
    members = [
        frozenset(i for i in range(m) if mask >> i & 1)
        for mask in range(1 << m)
        if oracle.is_independent(
            frozenset(i for i in range(m) if mask >> i & 1)
        )
    ]
    member_set = set(members)
    for a in members:
        for x in a:
            if a - {x} not in member_set:
                return False
    for a in members:
        for b in members:
            if len(a) < len(b):
                if not any(a | {x} in member_set for x in b - a):
                    return False
    return True


def all_simple_st_paths(net: Network, edge_ids) -> list[tuple[int, ...]]:
    """Every simple S-to-T directed path using only the given edges."""
    ids = sorted(set(edge_ids))
    out: list[tuple[int, ...]] = []

    def rec(cur: int, visited: set[int], acc: list[int]):
        if cur in net.targets:
            out.append(tuple(acc))
            return
        for e in ids:
            u, v = net.edges[e]
            if u == cur and v not in visited:
                visited.add(v)
                acc.append(e)
                rec(v, visited, acc)
                acc.pop()
                visited.discard(v)

    for s in sorted(net.sources):
        rec(s, {s}, [])
    return out


def brute_nu_p(net: Network, edge_ids) -> int:
    """Max vertex-disjoint S-T path packing by search over path subsets."""
    paths = all_simple_st_paths(net, edge_ids)

    def verts(path: tuple[int, ...]) -> frozenset[int]:
        vs = set()
        for e in path:
            u, v = net.edges[e]
            vs.add(u)
            vs.add(v)
        return frozenset(vs)

    vsets = [verts(p) for p in paths]
    best = 0

    def rec(i: int, used: frozenset, count: int):
        nonlocal best
        best = max(best, count)
        if i == len(paths) or count + len(paths) - i <= best:
            return
        if not (vsets[i] & used):
            rec(i + 1, used | vsets[i], count + 1)
        rec(i + 1, used, count)

    rec(0, frozenset(), 0)
    return best


@dataclass(frozen=True)
class LinearishArborescence:
    """A sub-digraph in which every vertex has in- and out-degree at most
    one; it decomposes uniquely into directed paths and cycles."""

    network: Network
    edges: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(int(e) for e in self.edges))
        outdeg: Counter = Counter()
        indeg: Counter = Counter()
        for e in self.edges:
            if not 0 <= e < self.network.num_edges:
                raise InstanceError(f"unknown edge id {e}")
            u, v = self.network.edges[e]
            outdeg[u] += 1
            indeg[v] += 1
        for v, d in outdeg.items():
            if d > 1:
                raise InstanceError(f"vertex {v} has out-degree {d} > 1")
        for v, d in indeg.items():
            if d > 1:
                raise InstanceError(f"vertex {v} has in-degree {d} > 1")

    @property
    def vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for e in self.edges:
            u, v = self.network.edges[e]
            out.add(u)
            out.add(v)
        return frozenset(out)


@dataclass(frozen=True)
class ComponentClassification:
    """The path/cycle decomposition of a linearish arborescence, with paths
    split by whether they start in S and/or end in T."""

    cycles: tuple[tuple[int, ...], ...]
    st_paths: tuple[tuple[int, ...], ...]
    s_only_paths: tuple[tuple[int, ...], ...]
    t_only_paths: tuple[tuple[int, ...], ...]
    free_paths: tuple[tuple[int, ...], ...]


def classify(arb: LinearishArborescence) -> ComponentClassification:
    """Decompose into directed paths and cycles and classify the paths."""
    net = arb.network
    step = {net.edges[e][0]: (e, net.edges[e][1]) for e in arb.edges}
    heads = {net.edges[e][1] for e in arb.edges}
    paths = [_follow(step, v) for v in sorted(set(step) - heads)]
    cycles: list[tuple[int, ...]] = []
    while step:
        e0 = min(e for e, _ in step.values())
        cycles.append(_follow(step, net.edges[e0][0]))
    st, s_only, t_only, free = [], [], [], []
    for path in paths:
        first = net.edges[path[0]][0]
        last = net.edges[path[-1]][1]
        from_s = first in net.sources
        to_t = last in net.targets
        if from_s and to_t:
            st.append(path)
        elif from_s:
            s_only.append(path)
        elif to_t:
            t_only.append(path)
        else:
            free.append(path)
    return ComponentClassification(
        tuple(cycles), tuple(st), tuple(s_only), tuple(t_only), tuple(free)
    )


def phi(bn: BipartifiedNetwork, arb: LinearishArborescence) -> frozenset[int]:
    """The matching {x'y'' : xy in L} + {x'x'' : inner x not in V(L)}."""
    if arb.network is not bn.network and arb.network != bn.network:
        raise InstanceError("arborescence belongs to a different network")
    covered = arb.vertices
    out = set(arb.edges)
    for x, b in bn.w_edge_of:
        if x not in covered:
            out.add(b)
    return frozenset(out)


def psi(bn: BipartifiedNetwork, b_matching: Iterable[int]) -> frozenset[int]:
    """The network edges of the non-W part of a matching in B(N)."""
    ids = frozenset(int(b) for b in b_matching)
    for b in ids:
        if not 0 <= b < bn.graph.num_edges:
            raise InstanceError(f"unknown B-edge id {b}")
    return ids - bn.w_edges


def check_counting_claim(net: Network, arb: LinearishArborescence) -> bool:
    """|L_ST| = |phi(L)| - |inner| + |free path components|.

    Cycle components cancel exactly and are not part of the correction
    term; only the paths touching neither S nor T are.
    """
    bn = bipartify(net)
    cls = classify(arb)
    lhs = len(cls.st_paths)
    rhs = len(phi(bn, arb)) - len(net.inner) + len(cls.free_paths)
    return lhs == rhs


def enforcer_always_has_path(net: Network, enforcer: PathEnforcer,
                             cap: int = 10**5) -> bool:
    """Brute-force check that every full choice function contains an s-t
    path; feasible only while the product of the set sizes is small."""
    s, t = net.single_terminals()
    product = 1
    for k in enforcer.sets:
        product *= max(1, len(k))
    if product > cap:
        raise ResourceCapError(
            f"enforcer choice space of size {product} exceeds the cap {cap}"
        )
    for combo in itertools.product(*(sorted(k) for k in enforcer.sets)):
        reached = {s}
        grew = True
        while grew:
            grew = False
            for e in combo:
                u, v = net.edges[e]
                if u in reached and v not in reached:
                    reached.add(v)
                    grew = True
        if t not in reached:
            return False
    return True


def brute_union_bounds(sets, n: int, weight=None) -> bool:
    """|union K'| >= n(|K'|-1)+1 for every nonempty subfamily K' of the
    sets, checked subset by subset; |.| is the total weight under a weight
    map (an edge it omits weighs 0)."""
    for mask in range(1, 1 << len(sets)):
        chosen = [s for i, s in enumerate(sets) if mask >> i & 1]
        union = set().union(*chosen)
        total = len(union) if weight is None else sum(weight.get(e, 0) for e in union)
        if total < n * (len(chosen) - 1) + 1:
            return False
    return True


def brute_weighted_rainbow_path_feasible(net: Network, weights, paths,
                                         bound: int) -> bool:
    """Is there any simple s-t path in the union of the given paths whose
    edges can injectively represent distinct paths, with weight <= bound?"""
    union = sorted({e for p in paths for e in p})
    candidates = all_simple_st_paths(net, union)
    path_sets = [set(p) for p in paths]
    for cand in candidates:
        if sum(weights.weight(e) for e in cand) > bound:
            continue
        # injective edge -> path assignment via bipartite matching
        match = kuhn_reference(
            cand, lambda e: [i for i, ps in enumerate(path_sets) if e in ps])
        if len(match) == len(cand):
            return True
    return False


def all_cycles(g: Graph) -> list[list[int]]:
    """Every simple cycle (as an edge-id list); digons via parallel edges."""
    cycles: list[list[int]] = []
    seen: set[frozenset[int]] = set()

    def rec(start: int, cur: int, verts: list[int], edges: list[int]):
        for e in range(g.num_edges):
            if e in edges:
                continue
            u, v = g.edges[e]
            if u == cur:
                nxt = v
            elif v == cur:
                nxt = u
            else:
                continue
            if nxt == start and len(edges) >= 1:
                key = frozenset(edges + [e])
                if key not in seen:
                    seen.add(key)
                    cycles.append(edges + [e])
                continue
            if nxt in verts:
                continue
            verts.append(nxt)
            edges.append(e)
            rec(start, nxt, verts, edges)
            edges.pop()
            verts.pop()

    for s in range(g.n):
        rec(s, s, [s], [])
    return cycles


def brute_rainbow_odd_cycle_exists(g: Graph, families) -> bool:
    """Any odd cycle whose edges can take pairwise-distinct colors?"""
    fam_sets = [frozenset(f) for f in families]
    for cycle in all_cycles(g):
        if len(cycle) % 2 == 0:
            continue
        match = kuhn_reference(
            cycle, lambda e: [i for i, fs in enumerate(fam_sets) if e in fs])
        if len(match) == len(cycle):
            return True
    return False


def brute_latin_transversal(square) -> int:
    """Maximum partial transversal by scanning all partial diagonals."""
    n = square.n
    best = 0
    for cols in itertools.permutations(range(n)):
        # longest symbol-distinct subset of this diagonal
        for size in range(n, best, -1):
            for rows in itertools.combinations(range(n), size):
                syms = {square.rows[r][cols[r]] for r in rows}
                col_pick = {cols[r] for r in rows}
                if len(syms) == size and len(col_pick) == size:
                    best = max(best, size)
                    break
    return best


def brute_is_bipartite(g: Graph) -> bool:
    """2-coloring by BFS, written independently of the library helper."""
    color = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for e in range(g.num_edges):
                a, b = g.edges[e]
                if u not in (a, b):
                    continue
                w = b if a == u else a
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def naive_bipartite_canonical(nl: int, nr: int,
                              family: tuple[tuple[tuple[int, int], ...], ...]) -> tuple:
    """Smallest relabeling of a family of (left, right) pair matchings
    under side permutations (naive canonical form for small instances)."""
    best = None
    swaps = ((False,), (False, True))[nl == nr]
    for swap in swaps:
        for lp in itertools.permutations(range(nl)):
            for rp in itertools.permutations(range(nr)):
                enc = tuple(
                    sorted(
                        tuple(
                            sorted(
                                (rp[r], lp[l]) if swap else (lp[l], rp[r])
                                for l, r in m
                            )
                        )
                        for m in family
                    )
                )
                if best is None or enc < best:
                    best = enc
    return best


def first_seen_bipartite_families(n: int, max_vertices: int) -> list:
    """(nl, nr, family) for every family of n matchings of size n covering
    both sides of a bipartition with at most max_vertices vertices, keeping
    the first of each class under the naive canonical form; the families
    of a bipartition are multisets of its sorted matchings, in lexicographic
    order."""
    out, seen = [], set()
    for nl in range(n, max_vertices + 1):
        for nr in range(nl, max_vertices - nl + 1):
            matchings = sorted(tuple(zip(lefts, rights))
                               for lefts in itertools.combinations(range(nl), n)
                               for rights in itertools.permutations(range(nr), n))
            for family in itertools.combinations_with_replacement(matchings, n):
                if ({l for m in family for l, _ in m} != set(range(nl))
                        or {r for m in family for _, r in m} != set(range(nr))):
                    continue
                key = naive_bipartite_canonical(nl, nr, family)
                if key not in seen:
                    seen.add(key)
                    out.append((nl, nr, family))
    return out


def first_seen_cycle_families(sizes: tuple[int, ...], lengths: tuple[int, ...]) -> list:
    """The colors (each a sorted tuple of edge ids) of every family of
    matchings of the given nondecreasing sizes in the disjoint union of
    cycles with the given lengths (edge i of a cycle joins its vertices i
    and i+1, cycles numbered in turn), keeping the first of each class
    under the graph's automorphisms, which networkx's GraphMatcher lists.
    Colors of equal size are nondecreasing and the families come in
    lexicographic order."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    edges, base = [], 0
    for length in lengths:
        edges += [(base + i, base + (i + 1) % length) for i in range(length)]
        base += length
    g = nx.Graph(edges)
    edge_id = {frozenset(e): i for i, e in enumerate(edges)}
    autos = [[edge_id[frozenset((a[u], a[v]))] for u, v in edges]
             for a in GraphMatcher(g, g).isomorphisms_iter()]

    def matchings(size):
        return [c for c in itertools.combinations(range(len(edges)), size)
                if len({v for e in c for v in edges[e]}) == 2 * size]

    out, seen = [], set()
    for family in itertools.product(*map(matchings, sizes)):
        if any(sizes[i] == sizes[i - 1] and family[i] < family[i - 1]
               for i in range(1, len(sizes))):
            continue
        key = min(tuple(sorted((len(m), tuple(sorted(a[e] for e in m))) for m in family))
                  for a in autos)
        if key not in seen:
            seen.add(key)
            out.append(family)
    return out
