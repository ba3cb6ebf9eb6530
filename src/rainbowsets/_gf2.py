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


def _comb_basis(tagged: Iterable[tuple[int, int]]) -> dict[int, tuple[int, int]]:
    """Eliminate (vector, mask) pairs in order, each mask naming its vector
    by one bit. Returns the echelon basis, whose masks say which inputs sum
    to each basis vector; inputs that reduce to zero are dropped."""
    basis: dict[int, tuple[int, int]] = {}
    for v, comb in tagged:
        v, comb = _reduce_comb(v, comb, basis)
        if v:
            basis[v.bit_length() - 1] = (v, comb)
    return basis


def gf2_solve_subset(vectors: list[int], target: int) -> list[int] | None:
    """Indices of a subset of vectors summing to target, or None when
    target is outside their span. The subset is unique when the vectors
    are linearly independent, as a rainbow image in a binary matroid is."""
    t, tcomb = _reduce_comb(target, 0, _comb_basis((v, 1 << i) for i, v in enumerate(vectors)))
    if t:
        return None
    return [i for i in range(len(vectors)) if tcomb >> i & 1]
