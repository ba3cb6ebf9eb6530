"""Desk-scale verification and counterexample hunting for the conjectures
the core modules make checkable: Latin-square transversals, scrambled Rota
covers, weighted rainbow matchings, short rainbow cycles, and scrambled
matching sharpness."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .core import (
    Graph,
    HypothesisViolation,
    InstanceError,
    LatinSquare,
    TheoremViolation,
    Transversal,
    _as_graph,
    _edge_id_sets,
)
from .matching import (
    _RainbowSearch,
    _bipartite_families,
    _complete_bipartite,
    _cycle_families,
    _draw_matchings,
    _drawn_instance,
    _id_mask,
    _no_rainbow_matching,
    scrambled_matching_check,
    stairs_sequence,
)
from .matroids import (
    COVER_GROUND_CAP,
    IndependenceOracle,
    _cover,
    _meet,
    _member_masks,
    _two_cover_settled,
    binary_matroid,
    check_two_cover,
    graphic_matroid,
    partition_matroid,
    truncate,
    uniform_matroid,
)
from .spancycles import OddCycleResult
from .sweeps import SweepReport, SweepSpec, sweep


# ---------------------------------------------------------------------------
# Latin squares


def latin_transversal(square: LatinSquare, target: Optional[int] = None) -> Transversal:
    """A maximum partial transversal, by branch and bound over rows with
    column/symbol bitmasks (rows may be skipped). With a target, the search
    stops at the first one of at least that size; when none is that large,
    it runs to the end and the result is still a maximum."""
    n = square.n
    stop = n if target is None else target
    best: list[list[tuple[int, int]]] = [[]]

    def rec(row: int, cols: int, syms: int, acc: list[tuple[int, int]]):
        if len(acc) + (n - row) <= len(best[0]) or len(best[0]) >= stop:
            return
        if row == n:
            best[0] = list(acc)
            return
        for col in range(n):
            if cols >> col & 1:
                continue
            sym = square.rows[row][col]
            if syms >> sym & 1:
                continue
            acc.append((row, col))
            rec(row + 1, cols | (1 << col), syms | (1 << sym), acc)
            acc.pop()
        rec(row + 1, cols, syms, acc)

    rec(0, 0, 0, [])
    return Transversal(frozenset(best[0]))


def enumerate_latin_squares(n: int) -> Iterator[LatinSquare]:
    """The reduced Latin squares of order n (first row and first column
    1..n), filling the other cells row by row and each cell with the free
    symbols in increasing order.

    Every square is a row and column permutation of exactly one of these
    (permute the columns to put the first row in order, then the rows below
    it to put the first column in order), and transversal sizes are
    invariant under row and column permutations.
    """
    if n == 0:
        return
    rows = [[r + c + 1 if r * c == 0 else 0 for c in range(n)] for r in range(n)]
    row_used = [1 << (r + 1) for r in range(n)]
    col_used = [1 << (c + 1) for c in range(n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(k: int) -> Iterator[LatinSquare]:
        if k == len(cells):
            yield LatinSquare(n, tuple(map(tuple, rows)))
            return
        r, c = cells[k]
        for s in range(1, n + 1):
            bit = 1 << s
            if (row_used[r] | col_used[c]) & bit:
                continue
            rows[r][c] = s
            row_used[r] |= bit
            col_used[c] |= bit
            yield from fill(k + 1)
            row_used[r] &= ~bit
            col_used[c] &= ~bit

    yield from fill(0)


def _brs(spec: SweepSpec, on_record, n: int) -> SweepReport:
    target = n - 1 if n % 2 == 0 else n

    def check(square: LatinSquare) -> Optional[tuple[dict, dict]]:
        t = latin_transversal(square, target)
        if len(t) >= target:
            return None
        return ({"latin": [list(r) for r in square.rows]},
                {"transversal": len(t), "n": n})

    return sweep(spec, enumerate_latin_squares(n), check,
                 {"n": n, "reduction": "reduced"}, on_record,
                 record_witness=True)


# ---------------------------------------------------------------------------
# scrambled Rota


@dataclass(frozen=True)
class RotaSearchResult:
    """A partition of the ground into the fewest rainbow independent sets,
    or none when that takes more than n+1 (a counterexample candidate)."""

    n: int
    classes: Optional[tuple[frozenset[int], ...]]
    classes_used: Optional[int]
    even_tight: bool   # for even n: whether n classes sufficed

    @property
    def succeeded(self) -> bool:
        return self.classes is not None


def rota_scrambled_search(matroid: IndependenceOracle,
                          parts: Sequence[Iterable[int]]) -> RotaSearchResult:
    """Partition the ground of a matroid with covering number n into the
    fewest sets that are independent and rainbow with respect to the given
    partition into n parts of size n; it succeeds when at most n+1 sets
    suffice (for even n, ideally n). The meet with the parts' partition
    matroid has covering number at least n, so a cover of it by at most n
    sets, else by at most n + 1, is a minimum one; it is made disjoint in
    order."""
    part_sets = [frozenset(int(x) for x in p) for p in parts]
    n = len(part_sets)
    ground = matroid.ground_size
    if ground != n * n or any(len(p) != n for p in part_sets):
        raise InstanceError("need a partition into n parts of size n")
    if set().union(*part_sets) != set(range(ground)) or (
        sum(len(p) for p in part_sets) != ground
    ):
        raise InstanceError("parts must partition the ground set")
    members = _member_masks(matroid)
    rho = len(_cover(ground, members))
    if rho != n:
        raise InstanceError(f"covering number is {rho}, expected n = {n}")
    meet = _meet(members, _member_masks(partition_matroid(ground, part_sets)))
    cover = _cover(ground, meet, n)
    if cover is None:
        cover = _cover(ground, meet, n + 1)
    if cover is None:
        return RotaSearchResult(n, None, None, False)
    classes, covered = [], frozenset()
    for member in cover:
        classes.append(member - covered)
        covered |= member
    return RotaSearchResult(n, tuple(classes), len(cover), n % 2 == 0 and len(cover) == n)


# ---------------------------------------------------------------------------
# weighted rainbow matchings


def _weighted_rainbow_exists(m: int, draw: Sequence[Sequence[int]],
                             weights: Sequence[int], size: int, budget: int) -> bool:
    """Exact search for a rainbow matching of the given size and total
    weight within budget, among the classes of a _draw_matchings draw on
    K_{m,m}; weights[i] is the weight of the drawn edge with fresh id i in
    _drawn_family."""
    # per class: (vertex mask, weight) of each edge, by ascending left vertex
    classes: list[list[tuple[int, int]]] = []
    fresh = 0
    for host in draw:
        classes.append([((1 << e // m) | (1 << (m + e % m)), weights[fresh + i])
                        for i, e in enumerate(host)])
        fresh += len(host)
    classes.sort(key=len)  # stable: equal sizes keep class order

    def rec(ci: int, used: int, count: int, spent: int) -> bool:
        if count == size:
            return True
        if len(classes) - ci < size - count:
            return False
        for mask, weight in classes[ci]:
            if mask & used or spent + weight > budget:
                continue
            if rec(ci + 1, used | mask, count + 1, spent + weight):
                return True
        return rec(ci + 1, used, count, spent)

    return rec(0, 0, 0, 0)


def _weighted_drisko(spec: SweepSpec, on_record, n: int, wmax: int,
                     instances: int) -> SweepReport:
    rng = random.Random(spec.seed)

    def candidates():
        for _ in range(instances):
            _, draw = _draw_matchings(rng, [n] * (2 * n - 1))
            yield draw, [rng.randint(0, wmax) for _ in range(n * len(draw))]

    def check(candidate) -> Optional[tuple[dict, dict]]:
        draw, weights = candidate
        # class c holds fresh ids c*n .. c*n + n - 1
        budget = max(sum(weights[c * n:(c + 1) * n]) for c in range(len(draw)))
        if _weighted_rainbow_exists(n, draw, weights, n, budget):
            return None
        return {**_drawn_instance(n, draw), "weights": weights, "budget": budget}, {"n": n}

    return sweep(spec, candidates(), check, {"n": n, "instances": instances},
                 on_record)


# ---------------------------------------------------------------------------
# short rainbow cycles


def rainbow_short_cycle(g: Graph, edge_sets: Sequence[Iterable[int]], r: int
                        ) -> Optional[OddCycleResult]:
    """A rainbow cycle of length at most r using the disjoint color
    classes, or None.

    The classes must number n (the vertex count) and each have size at
    least ceil(n/r).
    """
    sets = _edge_id_sets(edge_sets, g.num_edges, "families")
    color_of: dict[int, int] = {}
    for i, s in enumerate(sets):
        for e in s:
            if e in color_of:
                raise InstanceError(
                    f"families[{i}]: edge {e} already in family {color_of[e]}"
                )
            color_of[e] = i
    if r < 2:
        raise InstanceError("cycle length bound must be at least 2")
    n = g.n
    if len(sets) != n:
        raise HypothesisViolation(
            f"expected {n} classes, got {len(sets)}", witness=len(sets)
        )
    need = -(-n // r)
    for i, s in enumerate(sets):
        if len(s) < need:
            raise HypothesisViolation(
                f"class {i} has size {len(s)} < ceil(n/r) = {need}", witness=i
            )

    incident: dict[int, list[int]] = {}
    for e in sorted(color_of):
        u, v = g.edges[e]
        incident.setdefault(u, []).append(e)
        incident.setdefault(v, []).append(e)

    def dfs(start: int, cur: int, verts: list[int], edges: list[int],
            colors_used: set[int]) -> Optional[OddCycleResult]:
        for e in incident.get(cur, ()):
            if e in edges or color_of[e] in colors_used:
                continue
            u, v = g.edges[e]
            nxt = v if u == cur else u
            if nxt == start:  # edges is not empty: a Graph has no loops
                edges.append(e)
                return OddCycleResult(tuple(verts), tuple(edges),
                                      tuple(color_of[x] for x in edges))
            if nxt in verts or nxt < start or len(edges) + 1 >= r:
                continue
            verts.append(nxt)
            edges.append(e)
            colors_used.add(color_of[e])
            found = dfs(start, nxt, verts, edges, colors_used)
            if found is not None:
                return found
            verts.pop()
            edges.pop()
            colors_used.discard(color_of[e])
        return None

    for start in range(g.n):
        found = dfs(start, start, [start], [], set())
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# scrambled-matching sharpness


def _scrambled_sharpness(spec: SweepSpec, on_record, n: int,
                         instances: int) -> SweepReport:
    rng = random.Random(spec.seed)
    search = _RainbowSearch(_complete_bipartite(n, n))

    def candidates():
        for _ in range(instances):
            _, draw = _draw_matchings(rng, [n] * (n * (n - 1) // 2))
            pool = list(range(n * len(draw)))  # the family's fresh edge ids
            rng.shuffle(pool)
            yield draw, [tuple(sorted(pool[i:i + n])) for i in range(0, len(pool), n)]

    def check(candidate) -> Optional[tuple[dict, dict]]:
        draw, classes = candidate
        # fresh id -> edge of K_{n,n}; a class may hold one edge twice
        host = [e for edges in draw for e in edges]
        if len(search.run([_id_mask(host[e] for e in c) for c in classes], n)) >= n:
            return None
        instance = {**_drawn_instance(n, draw), "scrambling": [list(c) for c in classes]}
        # replay from the serialized instance to confirm
        report = scrambled_matching_check(_as_graph(instance["graph"], "graph"),
                                          instance["colors"], instance["scrambling"], n)
        if report.met:
            raise TheoremViolation(
                f"the replayed sharpness witness has a rainbow matching of size {n}"
            )
        return instance, {"meaning": "sharpness witness", "max_rainbow": len(report.matching)}

    return sweep(spec, candidates(), check, {"n": n}, on_record,
                 hit_verdict="sharpness-witness",
                 exhausted_note="no sharpness instance found in the sample")


# ---------------------------------------------------------------------------
# random graphs and matroids (for the short-cycle and covering-number sweeps)


def _random_graph(rng: random.Random, n: int, m: int) -> Graph:
    """A seeded loopless multigraph on n >= 2 vertices with m edges: two
    rng.randrange ends per edge, the second redrawn until they differ."""
    edges: list[tuple[int, int]] = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        edges.append((u, v))
    return Graph(n, tuple(edges))


def random_matroid(rng: random.Random, ground: int) -> IndependenceOracle:
    """A seeded loop-free matroid from the concrete constructions."""
    kind = rng.choice(["uniform", "partition", "graphic", "binary", "truncation"])
    if kind == "uniform":
        return uniform_matroid(ground, rng.randint(1, max(1, ground)))
    if kind == "partition":
        elements = list(range(ground))
        rng.shuffle(elements)
        parts: list[list[int]] = []
        i = 0
        while i < ground:
            size = min(rng.randint(1, 3), ground - i)
            parts.append(sorted(elements[i:i + size]))
            i += size
        caps = [rng.randint(1, 2) for _ in parts]
        return partition_matroid(ground, parts, caps)
    if kind == "graphic":
        return graphic_matroid(_random_graph(rng, rng.randint(2, max(2, ground)), ground))
    if kind == "binary":
        bits = rng.randint(1, min(6, max(1, ground)))
        cols = [rng.randint(1, (1 << bits) - 1) for _ in range(ground)]
        return binary_matroid(cols)
    inner = random_matroid(rng, ground)
    k = rng.randint(1, max(1, inner.rank()))
    return truncate(inner, k)


# ---------------------------------------------------------------------------
# sweep dispatch


def _random_claim(sizes_of: Callable[[int], tuple[int, ...]], spec: SweepSpec,
                  on_record, n: int, instances: int) -> SweepReport:
    """A sweep of seeded random families of matchings of sizes sizes_of(n),
    each checked for a rainbow matching of size n by one search on K_{n,n}
    (n is the largest size); a counterexample is built with fresh edge ids,
    as random_matching_family draws it."""
    rng, sizes = random.Random(spec.seed), sizes_of(n)
    search = _RainbowSearch(_complete_bipartite(n, n))

    def check(draw) -> Optional[tuple[dict, dict]]:
        if len(search.run(list(map(_id_mask, draw)), n)) >= n:
            return None
        return _drawn_instance(n, draw), {}

    draws = (_draw_matchings(rng, sizes)[1] for _ in range(instances))
    return sweep(spec, draws, check, {"instances": instances}, on_record)


def _ab(spec: SweepSpec, on_record, n: int, max_vertices: int) -> SweepReport:
    if max_vertices < 2 * n:  # no matching of size n fits: nothing to test
        raise InstanceError(f"sweep ab: parameter 'max_vertices' must be >= 2n = "
                            f"{2 * n}, got {max_vertices}")
    return sweep(spec, _bipartite_families(n, max_vertices),
                 _no_rainbow_matching(n - 1), {"max_vertices": max_vertices}, on_record)


def _coercive_244(spec: SweepSpec, on_record) -> SweepReport:
    sizes, check = (2, 4, 4), _no_rainbow_matching(3)
    single = sweep(spec, _cycle_families(sizes, ((8,), (10,))), check,
                   {"ambients": [[8], [10]]})
    double = sweep(spec, _cycle_families(sizes, ((4, 4),)), check,
                   {"ambients": [[4, 4]]}, on_record)
    double.detail["single_cycle_verdict"] = single.verdict
    double.detail["single_cycle_instances"] = single.instances_tested
    return double


def _rho_two_cover(spec: SweepSpec, on_record, ground: int,
                   instances: int) -> SweepReport:
    rng = random.Random(spec.seed)

    def check(pair) -> Optional[tuple[dict, dict]]:
        m1, m2 = pair
        if _two_cover_settled(m1, m2):
            return None
        report = check_two_cover(m1, m2)
        if report.holds:
            return None
        return ({"matroid": m1.descriptor, "matroid2": m2.descriptor},
                {"rho_m": report.rho_m, "rho_n": report.rho_n,
                 "rho_meet": report.rho_meet})

    pairs = ((random_matroid(rng, ground), random_matroid(rng, ground))
             for _ in range(instances))
    return sweep(spec, pairs, check, {"ground": ground}, on_record)


def _rota(spec: SweepSpec, on_record, n: int, instances: int) -> SweepReport:
    rng = random.Random(spec.seed)

    def candidates():
        for _ in range(instances):
            # rejection sampling: need covering number exactly n; columns of
            # n bits have r <= n, so rho >= n and a cover by n sets decides it
            while True:
                cols = [rng.randint(1, (1 << n) - 1) for _ in range(n * n)]
                matroid = binary_matroid(cols)
                members = _member_masks(matroid)
                if _cover(n * n, members, n) is not None:
                    break
            elements = list(range(n * n))
            rng.shuffle(elements)
            yield matroid, members, [sorted(elements[i * n:(i + 1) * n]) for i in range(n)]

    def check(candidate) -> Optional[tuple[dict, dict]]:
        matroid, members, parts = candidate
        # the rejection loop has fixed the covering number at n, so
        # rota_scrambled_search succeeds iff this cover exists
        rainbow = _member_masks(partition_matroid(n * n, parts))
        if _cover(n * n, _meet(members, rainbow), n + 1) is not None:
            return None
        return ({"matroid": matroid.descriptor, "parts": [list(p) for p in parts]},
                {"n": n})

    return sweep(spec, candidates(), check, {"n": n, "instances": instances},
                 on_record)


def _short_cycle(spec: SweepSpec, on_record, n: int, r: int,
                 instances: int) -> SweepReport:
    rng = random.Random(spec.seed)
    need = -(-n // r)
    sets = [list(range(c * need, (c + 1) * need)) for c in range(n)]

    def check(g: Graph) -> Optional[tuple[dict, dict]]:
        if rainbow_short_cycle(g, sets, r) is not None:
            return None
        graph = {"n": n, "edges": [list(e) for e in g.edges]}
        return {"graph": graph, "families": sets}, {"n": n, "r": r}

    graphs = (_random_graph(rng, n, n * need) for _ in range(instances))
    return sweep(spec, graphs, check, {"n": n, "r": r}, on_record)


class SweepParam(NamedTuple):
    """A sweep parameter: its default (None if required) and its bounds."""

    name: str
    default: Optional[int] = None
    minimum: int = 1
    maximum: Optional[int] = None


# the largest n of drisko, stairs and scrambled-sharpness: K_{64,64}, the
# graph their one search is set up on, has 4,096 edges
RANDOM_CLAIM_MAX_N = 64

# tag -> (sweep, declared parameters); the sweep takes the spec, the record
# callback and each declared parameter by name.
SWEEPS: dict[str, tuple[Callable[..., SweepReport], tuple[SweepParam, ...]]] = {
    "brs": (_brs, (SweepParam("n", maximum=6),)),
    "drisko": (partial(_random_claim, lambda n: (n,) * (2 * n - 1)),
               (SweepParam("n", maximum=RANDOM_CLAIM_MAX_N), SweepParam("instances", 1000))),
    "stairs": (partial(_random_claim, lambda n: stairs_sequence(n).sizes),
               (SweepParam("n", maximum=RANDOM_CLAIM_MAX_N), SweepParam("instances", 1000))),
    "ab": (_ab, (SweepParam("n"), SweepParam("max_vertices", 6, minimum=2))),
    "coercive-244": (_coercive_244, ()),
    "weighted-drisko": (_weighted_drisko, (SweepParam("n", maximum=4),
                                           SweepParam("wmax", 10, minimum=0),
                                           SweepParam("instances", 1000))),
    "rho-two-cover": (_rho_two_cover,
                      (SweepParam("ground", 8, maximum=COVER_GROUND_CAP),
                       SweepParam("instances", 500))),
    "scrambled-sharpness": (_scrambled_sharpness, (SweepParam("n", minimum=4,
                                                              maximum=RANDOM_CLAIM_MAX_N),
                                                   SweepParam("instances", 1000))),
    # n² ground elements, within COVER_GROUND_CAP
    "rota": (_rota, (SweepParam("n", maximum=4), SweepParam("instances", 50))),
    "short-cycle": (_short_cycle, (SweepParam("n", minimum=2),
                                   SweepParam("r", minimum=2),
                                   SweepParam("instances", 200))),
}


def run_sweep(spec: SweepSpec,
              on_record: Optional[Callable[[dict], None]] = None) -> SweepReport:
    """Run the named conjecture sweep; SWEEPS lists the tags (as does the
    CLI's `sweep --help`) and the parameters each one takes, and every
    parameter is checked against it before any instance is built."""
    tag = spec.conjecture
    if tag not in SWEEPS:
        raise InstanceError(f"unknown sweep conjecture {tag!r}")
    run, declared = SWEEPS[tag]
    names = [p.name for p in declared]
    given: dict[str, int] = {}
    for name, value in spec.params:
        if name not in names or name in given:
            raise InstanceError(f"sweep {tag}: parameter {name!r} is unknown or "
                                f"repeated (takes: {', '.join(names) or 'none'})")
        given[name] = value
    values = {}
    for p in declared:
        value = given.get(p.name, p.default)
        where = f"sweep {tag}: parameter {p.name!r}"
        if value is None:
            raise InstanceError(f"{where} is required")
        if value < p.minimum:
            raise InstanceError(f"{where} must be >= {p.minimum}, got {value}")
        if p.maximum is not None and value > p.maximum:
            raise InstanceError(f"{where} must be <= {p.maximum}, got {value}")
        values[p.name] = value
    return run(spec, on_record, **values)
