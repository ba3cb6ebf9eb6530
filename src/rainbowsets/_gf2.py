"""GF(2) linear algebra on int bitsets (bit j of a vector = coordinate j).

There is one elimination, _basis. To learn which inputs sum to a vector,
tag input i as (v << k) | 1 << i, with k at least the number of inputs:
the low k bits then carry the combination through every XOR. Tags go in
the low bits so that each leading bit comes from the vector alone, and
an input is kept only when its vector part (v >> k) is still nonzero.
"""

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


def _basis(vectors: Iterable[int], k: int = 0) -> dict[int, int]:
    """Eliminate the vectors in order into a basis indexed by leading-bit
    position; a vector is inserted only when its bits from k up are
    nonzero after reduction, so dependent (tagged) inputs are dropped."""
    basis: dict[int, int] = {}
    for v in vectors:
        v = _reduce(v, basis)
        if v >> k:
            basis[v.bit_length() - 1] = v
    return basis


def gf2_rank(vectors: list[int]) -> int:
    """Rank of the given vectors over GF(2)."""
    return len(_basis(vectors))


def gf2_in_span(vectors: list[int], target: int) -> bool:
    """True iff target lies in the span of the vectors."""
    return _reduce(target, _basis(vectors)) == 0


def gf2_solve_subset(vectors: list[int], target: int) -> list[int] | None:
    """Indices of a subset of vectors summing to target, or None when
    target is outside their span. The subset is unique when the vectors
    are linearly independent, as a rainbow image in a binary matroid is."""
    k = len(vectors)
    t = _reduce(target << k, _basis(((v << k) | 1 << i for i, v in enumerate(vectors)), k))
    if t >> k:
        return None
    return [i for i in range(k) if t >> i & 1]
