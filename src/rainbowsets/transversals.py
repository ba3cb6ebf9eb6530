"""Hall's and Rado's theorems as total algorithms: each call returns either
a full choice function or an explicit violating color set."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import (ChoiceFunction, ColoredFamily, InstanceError, TheoremViolation,
                   _kuhn_max_matching, family_union)
from .matroids import ExchangeTest, IndependenceOracle, _bits, _intersection_augment


@dataclass(frozen=True)
class Violator:
    """A color set I whose classes are jointly too poor: |union| < |I| for
    Hall, rank(union) < |I| for Rado."""

    colors: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "colors", frozenset(int(c) for c in self.colors))


HallResult = Union[ChoiceFunction, Violator]


def hall_rainbow(fam: ColoredFamily) -> HallResult:
    """A full injective choice function, or a deficiency witness.

    Maximum bipartite matching by augmenting paths. When it misses a color,
    the violator is the colors that alternating paths from the unmatched
    colors reach (from a color to an element of its class, which is matched,
    else the path would augment, and on to that element's color): the colors
    that some maximum matching misses (Dulmage-Mendelsohn).
    """
    k = fam.num_colors
    adj = [sorted(s) for s in fam.sets]
    match = _kuhn_max_matching(range(k), adj.__getitem__)  # element -> color
    if len(match) == k:
        return ChoiceFunction(tuple((c, x) for x, c in match.items()))
    reached = set(range(k)).difference(match.values())
    frontier = list(reached)
    while frontier:
        for x in adj[frontier.pop()]:
            if match[x] not in reached:
                reached.add(match[x])
                frontier.append(match[x])
    violator = Violator(frozenset(reached))
    if len(family_union(fam, violator.colors)) >= len(violator.colors):
        raise TheoremViolation(f"Hall violator {sorted(violator.colors)} is not deficient")
    return violator


def rado_rainbow(fam: ColoredFamily, matroid: IndependenceOracle) -> HallResult:
    """A full choice function with matroid-independent image, or a color set
    I with rank(union of I's classes) < |I|.

    Realized as a matroid intersection over the color-element incidence
    pairs: the color partition matroid against the given matroid lifted
    to incidences; the violator falls out of the final reachability cut.
    """
    if fam.ground.size > matroid.ground_size:
        raise InstanceError(
            f"family ground of size {fam.ground.size} exceeds matroid ground "
            f"of size {matroid.ground_size}"
        )
    k = fam.num_colors
    incidences, lift_colors, lift_matroid = _rado_lifts(fam, matroid)
    common, reachable = _intersection_augment(lift_colors, lift_matroid)

    if len(common) == k:
        pairs = tuple(sorted(incidences[i] for i in common))
        f = ChoiceFunction(pairs)
        if not matroid.is_independent(f.image):
            raise TheoremViolation("Rado rainbow set is not independent")
        return f

    # a color is deficient when no incidence of it is unreachable
    deficient = frozenset(range(k)).difference(
        c for i, (c, _) in enumerate(incidences) if i not in reachable)
    violator = Violator(deficient)
    if matroid.rank(family_union(fam, deficient)) >= len(deficient):
        raise TheoremViolation(f"Rado violator {sorted(deficient)} is not rank-deficient")
    return violator


def _rado_lifts(fam: ColoredFamily, matroid: IndependenceOracle
                ) -> tuple[list[tuple[int, int]], IndependenceOracle, IndependenceOracle]:
    """The (color, element) incidence pairs of the family, by color then
    element, with the color partition matroid and the given matroid lifted
    to them. A set of pairs is independent in the color lift iff its colors
    differ, and in the matroid lift iff its elements differ and are
    independent in the matroid. Both lifts answer exchange tests natively
    from a dict of the pair of I that holds each color (each element), and
    grow them with I: the color lift marks y the holder of its color, the
    matroid lift of its element, and adds that element to the given
    matroid's own test. y's circuit is the pair holding its color (its
    element), else, in the matroid lift, the given matroid's circuit of
    y's element mapped to the pairs holding those elements."""
    incidences = [(c, x) for c in range(fam.num_colors) for x in sorted(fam.sets[c])]
    color = [c for c, _ in incidences]
    image = [x for _, x in incidences]

    def color_exchange(s: frozenset[int]) -> ExchangeTest:
        holder = {color[i]: i for i in s}

        def ok(x: Optional[int], y: int) -> bool:
            # y's color is unused by I - x
            c = color[y]
            return c not in holder or (x is not None and holder[c] == x)

        def circuit(y: int) -> int:
            c = color[y]
            return 1 << holder[c] if c in holder else -1

        def add(y: int) -> None:
            holder[color[y]] = y

        ok.circuit = circuit
        ok.add = add
        return ok

    def matroid_exchange(s: frozenset[int]) -> ExchangeTest:
        holder = {image[i]: i for i in s}
        inner = matroid.exchange(holder)

        def ok(x: Optional[int], y: int) -> bool:
            e = image[y]
            if e in holder:
                # I - x + y repeats an element unless x is the pair holding it
                return x is not None and holder[e] == x
            return inner(None if x is None else image[x], e)

        def circuit(y: int) -> int:
            e = image[y]
            if e in holder:
                return 1 << holder[e]
            c = inner.circuit(e)
            return -1 if c == -1 else sum([1 << holder[x] for x in _bits(c)])

        def add(y: int) -> None:
            holder[image[y]] = y
            inner.add(image[y])

        ok.circuit = circuit
        ok.add = add
        return ok

    m = len(incidences)
    lift_colors = IndependenceOracle(
        m, lambda s: len({color[i] for i in _bits(s)}), {"kind": "internal-color-partition"},
        color_exchange)
    lift_matroid = IndependenceOracle(
        m, lambda s: matroid.rank({image[i] for i in _bits(s)}), {"kind": "internal-induced"},
        matroid_exchange)
    return incidences, lift_colors, lift_matroid
