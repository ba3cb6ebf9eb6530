"""Rainbow sets spanning a target in a matroid (the cooperative form), the
GF(2) edge-vector encoding of graphs, bipartiteness via affine span, and
rainbow odd cycles with explicit extraction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ._gf2 import gf2_in_span, gf2_solve_subset
from .core import (
    ChoiceFunction,
    ColoredFamily,
    Graph,
    GroundSet,
    HypothesisViolation,
    InstanceError,
    TheoremViolation,
    _edge_id_sets,
    _trail,
)
from .matroids import IndependenceOracle, binary_matroid
from .transversals import rado_rainbow


def augmented_vector(g: Graph, e: int) -> int:
    """For an edge on n vertices: the incidence vector with an appended
    parity coordinate, (chi_e, 1), as bits over GF(2)."""
    u, v = g.edges[e]
    return (1 << u) | (1 << v) | (1 << g.n)


def edge_vectors(g: Graph) -> tuple[list[int], IndependenceOracle]:
    """All augmented edge vectors plus the binary matroid over them with
    the target vector (0,...,0,1) adjoined as the last ground element."""
    vectors = [augmented_vector(g, e) for e in range(g.num_edges)]
    return vectors, binary_matroid(vectors + [1 << g.n])


def is_bipartite_via_span(g: Graph) -> bool:
    """Bipartite iff (0,...,0,1) is outside the span of the edge vectors."""
    target = 1 << g.n
    return not gf2_in_span([augmented_vector(g, e) for e in range(g.num_edges)], target)


# ---------------------------------------------------------------------------
# cooperative spanning


@dataclass(frozen=True)
class SpanningRainbowResult:
    """A rainbow set whose span contains the target, with provenance.

    When the cooperative route fired, deficient_colors is the rank-deficient
    color set the proof used and dropped_color the member left out."""

    function: ChoiceFunction
    deficient_colors: Optional[frozenset[int]]
    dropped_color: Optional[int]

    @property
    def image(self) -> frozenset[int]:
        return self.function.image


def rainbow_spanning_set(matroid: IndependenceOracle,
                         target: Iterable[int],
                         sets: Sequence[Iterable[int]]) -> SpanningRainbowResult:
    """A rainbow set spanning the target, under the cooperative hypothesis
    that every color subset J has rank(union) >= |J| or spans the target.

    Rado's theorem runs on the kept colors, all of them at first, where a
    full choice function is a rainbow base and spans everything. On a
    violator J (rank of its union below |J|) the smallest color of J is
    dropped and Rado retried on the rest: a full choice function there
    has |J| - 1 independent elements inside J's union, so it spans that
    union, and otherwise Rado's violator is a deficient set strictly
    inside J. The proof uses the hypothesis on the final J alone, so only
    J is checked: if its union misses the target, J is raised as the
    witness of a HypothesisViolation.
    """
    tset = frozenset(int(t) for t in target)
    a_sets = [frozenset(int(x) for x in s) for s in sets]
    n = len(a_sets)
    for t in tset:
        if not 0 <= t < matroid.ground_size:
            raise InstanceError(f"target element {t} outside the ground")
    full_rank = matroid.rank()
    if full_rank > n:
        raise HypothesisViolation(
            f"matroid rank {full_rank} exceeds the number of color classes {n}"
        )

    ground = GroundSet(matroid.ground_size)
    keep = list(range(n))
    deficient: Optional[frozenset[int]] = None
    dropped: Optional[int] = None
    while True:
        outcome = rado_rainbow(ColoredFamily(ground, tuple(a_sets[i] for i in keep)), matroid)
        if isinstance(outcome, ChoiceFunction):
            break
        deficient = frozenset(keep[c] for c in outcome.colors)
        dropped = min(deficient)
        keep = sorted(deficient - {dropped})
    function = ChoiceFunction(tuple((keep[c], x) for c, x in outcome.assignments))
    if deficient is not None:
        union = frozenset().union(*(a_sets[i] for i in deficient))
        if not all(matroid.in_span(union, t) for t in tset):
            raise HypothesisViolation(
                f"color set {sorted(deficient)} is rank-deficient and does not span the target",
                witness=deficient,
            )
        want = len(deficient) - 1
        if matroid.rank(function.image) != want or matroid.rank(union) != want:
            raise TheoremViolation("rank bookkeeping failed on the deficient set")
    for t in tset:
        if not matroid.in_span(function.image, t):
            raise TheoremViolation(f"returned rainbow set does not span target element {t}")
    return SpanningRainbowResult(function, deficient, dropped)


# ---------------------------------------------------------------------------
# rainbow odd cycles


@dataclass(frozen=True)
class OddCycleResult:
    """A cycle with pairwise-distinct colors, one per edge: odd when the
    spanning pipeline returns it, of bounded length when
    harness.rainbow_short_cycle does."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    colors: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)


def _peel_cycles(g: Graph, edge_ids: Iterable[int]) -> list[list[int]]:
    """Split an even-degree edge set into edge-disjoint simple cycles.

    A trail over unused edges can only stall back at its start vertex (all
    degrees stay even as cycles are cut out), so cutting it at each vertex
    revisit peels one simple cycle at a time.
    """
    remaining = set(edge_ids)
    cycles: list[list[int]] = []
    while remaining:
        start = min(g.edges[min(remaining)])
        edges, verts = _trail(g, remaining, start)
        walk_v = [start]
        walk_e: list[int] = []
        for e, v in zip(edges, verts[1:]):
            walk_e.append(e)
            if v in walk_v:
                at = walk_v.index(v)
                cycles.append(walk_e[at:])
                del walk_v[at + 1:], walk_e[at:]
            else:
                walk_v.append(v)
    return cycles


def rainbow_odd_cycle(g: Graph, families: Sequence[Iterable[int]]) -> OddCycleResult:
    """A rainbow odd cycle from n edge sets on n vertices, each spanning
    the all-zero-parity-one vector (true of any odd cycle's edge set).

    Runs the cooperative spanning pipeline over the augmented binary
    matroid with the adjoined target; the returned rainbow set contains a
    subset summing to the target, which has even degrees and an odd edge
    count, hence decomposes into cycles at least one of which is odd.
    """
    a_sets = _edge_classes(g, families)
    target_vec = 1 << g.n
    for i, f in enumerate(a_sets):
        vecs = [augmented_vector(g, e) for e in sorted(f)]
        if not gf2_in_span(vecs, target_vec):
            raise HypothesisViolation(
                f"color {i} does not span the target vector "
                f"(its edge set contains no odd cycle)", witness=i,
            )
    return _odd_cycle_pipeline(g, a_sets)


def _edge_classes(g: Graph, families: Sequence[Iterable[int]]
                  ) -> list[frozenset[int]]:
    """The families as edge-id sets, one per vertex of g, each id an edge
    of g (so never the adjoined target element)."""
    a_sets = _edge_id_sets(families, g.num_edges, "families")
    if len(a_sets) != g.n:
        raise HypothesisViolation(
            f"expected {g.n} color classes (one per vertex), got {len(a_sets)}",
            witness=len(a_sets),
        )
    return a_sets


def _odd_cycle_pipeline(g: Graph, a_sets: Sequence[frozenset[int]]) -> OddCycleResult:
    _, matroid = edge_vectors(g)
    z = matroid.ground_size - 1  # the adjoined target element
    spanning = rainbow_spanning_set(matroid, {z}, a_sets)

    pairs = spanning.function.assignments
    edge_of = [e for _, e in pairs]
    color_of = {e: c for c, e in pairs}
    vecs = [augmented_vector(g, e) for e in edge_of]
    subset = gf2_solve_subset(vecs, 1 << g.n)
    if subset is None:
        raise TheoremViolation("rainbow spanning set cannot express the target")
    chosen = [edge_of[i] for i in subset]
    if len(chosen) % 2 == 0:
        raise TheoremViolation("target-summing subset has even size")
    cycles = _peel_cycles(g, chosen)
    odd = [c for c in cycles if len(c) % 2 == 1]
    if not odd:
        raise TheoremViolation("no odd cycle in the target-summing subset")
    cycle = odd[0]
    edges, verts = _trail(g, set(cycle), g.edges[min(cycle)][0])
    if len(edges) != len(cycle) or verts[-1] != verts[0]:
        raise TheoremViolation("the odd cycle's edges do not close into one cycle")
    return OddCycleResult(tuple(verts[:-1]), tuple(edges), tuple(color_of[e] for e in edges))


def cooperative_odd_cycle_check(g: Graph, families: Sequence[Iterable[int]]
                                ) -> OddCycleResult:
    """A rainbow odd cycle from n edge sets on n vertices satisfying the
    cooperative condition: every color subset J either has a spanning
    forest of at least |J| edges in its union or an odd cycle there.

    On the augmented edge vectors that condition is the cooperative
    spanning hypothesis, so the pipeline checks it on the one color set
    its proof uses."""
    return _odd_cycle_pipeline(g, _edge_classes(g, families))
