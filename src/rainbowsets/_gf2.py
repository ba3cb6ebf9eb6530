"""GF(2) linear algebra on int bitsets (bit j of a vector = coordinate j)."""

from __future__ import annotations


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


def gf2_solve_subset(vectors: list[int], target: int) -> list[int] | None:
    """Indices of a subset of vectors summing to target, or None.

    Among all solutions (an affine space) returns one with the fewest
    indices, ties broken by the lexicographically smallest index set.
    Enumeration is over the solution-space dimension, so callers should
    keep len(vectors) - rank small.
    """
    basis: dict[int, tuple[int, int]] = {}  # leading bit -> (vector, comb mask)
    null_masks: list[int] = []
    for i, v in enumerate(vectors):
        comb = 1 << i
        while v:
            lb = v.bit_length() - 1
            if lb not in basis:
                basis[lb] = (v, comb)
                break
            bv, bc = basis[lb]
            v ^= bv
            comb ^= bc
        else:
            null_masks.append(comb)
    t, tcomb = target, 0
    while t:
        lb = t.bit_length() - 1
        if lb not in basis:
            return None
        bv, bc = basis[lb]
        t ^= bv
        tcomb ^= bc
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
