"""GF(2) linear algebra on int bitsets (bit j of a vector = coordinate j)."""

from __future__ import annotations

from typing import Iterable


def _reduce(v: int, basis: dict[int, int]) -> int:
    """Reduce v against a basis indexed by leading-bit position."""
    while v:
        lb = v.bit_length() - 1
        if lb not in basis:
            return v
        v ^= basis[lb]
    return 0


def gf2_rank(vectors: list[int]) -> int:
    """Rank of the given vectors over GF(2)."""
    basis: dict[int, int] = {}
    for v in vectors:
        v = _reduce(v, basis)
        if v:
            basis[v.bit_length() - 1] = v
    return len(basis)


def gf2_in_span(vectors: list[int], target: int) -> bool:
    """True iff target lies in the span of the vectors."""
    basis: dict[int, int] = {}
    for v in vectors:
        v = _reduce(v, basis)
        if v:
            basis[v.bit_length() - 1] = v
    return _reduce(target, basis) == 0


def _reduce_comb(v: int, comb: int, basis: dict[int, tuple[int, int]]) -> tuple[int, int]:
    """Reduce v against a basis of (vector, combination mask) pairs indexed
    by leading-bit position; the masks of the basis vectors used are
    XOR-ed into comb. Returns the remainder and the combination."""
    while v:
        b = basis.get(v.bit_length() - 1)
        if b is None:
            break
        v ^= b[0]
        comb ^= b[1]
    return v, comb


def _comb_basis(tagged: Iterable[tuple[int, int]]
                ) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Eliminate (vector, mask) pairs in order, each mask naming its vector
    by one bit. Returns the echelon basis, whose masks say which inputs sum
    to each basis vector, and the masks of the inputs that reduced to zero,
    each naming a combination of inputs that sums to zero."""
    basis: dict[int, tuple[int, int]] = {}
    null_masks: list[int] = []
    for v, comb in tagged:
        v, comb = _reduce_comb(v, comb, basis)
        if v:
            basis[v.bit_length() - 1] = (v, comb)
        else:
            null_masks.append(comb)
    return basis, null_masks


def gf2_solve_subset(vectors: list[int], target: int) -> list[int] | None:
    """Indices of a subset of vectors summing to target, or None.

    Among all solutions (an affine space) returns one with the fewest
    indices, ties broken by the lexicographically smallest index set.
    Enumeration is over the solution-space dimension, so callers should
    keep len(vectors) - rank small.
    """
    basis, null_masks = _comb_basis((v, 1 << i) for i, v in enumerate(vectors))
    t, tcomb = _reduce_comb(target, 0, basis)
    if t:
        return None
    if len(null_masks) > 20:
        raise OverflowError("solution space too large to enumerate")
    best = tcomb
    for sub in range(1, 1 << len(null_masks)):
        cand = tcomb
        for j in range(len(null_masks)):
            if sub >> j & 1:
                cand ^= null_masks[j]
        if (bin(cand).count("1"), cand) < (bin(best).count("1"), best):
            best = cand
    return [i for i in range(len(vectors)) if best >> i & 1]
