"""Matroids as independence oracles: concrete constructions, rank and span,
matroid intersection by augmenting paths, and exact covering numbers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional, Protocol, Union

from ._gf2 import _basis, _reduce, gf2_rank
from .core import Graph, InstanceError, ResourceCapError, _as_graph, _int, _int_arrays, _ints

COVER_GROUND_CAP = 16


class ExchangeTest(Protocol):
    """The exchange test of an independent set I; see IndependenceOracle.exchange."""

    def __call__(self, x: Optional[int], y: int) -> bool: ...

    def add(self, y: int) -> None: ...


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class IndependenceOracle:
    """A matroid presented by its rank function.

    rank_fn takes a subset of the ground as an int bitmask (bit i for
    element i). The set API in front of it (rank, is_independent, in_span,
    exchange) takes element sets, checks that they lie in the ground and
    asks rank_fn on their masks; it keeps no memo. A subset is independent
    iff its rank equals its size. The descriptor records the construction
    (kind + parameters) so oracles can be serialized. A construction passes
    it as a dict or as a zero-argument callable that returns one; the
    callable is called on the first read of descriptor, and every read
    returns that one dict. A construction may also pass native forms that
    must agree with rank: exchange_fn, of exchange(), and members_fn, which
    returns the member table that _member_masks would build, one byte per
    subset of the ground, without asking rank. members_fn is called only on
    grounds of at most COVER_GROUND_CAP elements.
    """

    def __init__(self, ground_size: int, rank_fn: Callable[[int], int],
                 descriptor: Union[dict, Callable[[], dict]],
                 exchange_fn: Optional[Callable[[frozenset[int]], ExchangeTest]] = None,
                 members_fn: Optional[Callable[[], bytes]] = None):
        if ground_size < 0:
            raise InstanceError("ground size must be >= 0")
        self.ground_size = ground_size
        self._rank_fn = rank_fn
        self._exchange_fn = exchange_fn
        self._members_fn = members_fn
        self._descriptor = descriptor

    @property
    def descriptor(self) -> dict:
        """The construction's descriptor, built on the first read when the
        construction passed a callable."""
        if callable(self._descriptor):
            self._descriptor = self._descriptor()
        return self._descriptor

    def is_independent(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        return self.rank(s) == len(s)

    def rank(self, subset: Optional[Iterable[int]] = None) -> int:
        """Size of a maximal independent subset (of the whole ground if
        subset is None), by the construction's own rank function.

        Raises InstanceError naming the smallest element outside the ground.
        """
        return self._rank_fn(self._mask(range(self.ground_size) if subset is None else subset))

    def _mask(self, subset: Iterable[int]) -> int:
        """The bitmask of a subset, checked against the ground as in rank."""
        s = frozenset(subset)
        if s and (min(s) < 0 or max(s) >= self.ground_size):
            outside = min(x for x in s if not 0 <= x < self.ground_size)
            raise InstanceError(f"element {outside} outside ground of size {self.ground_size}")
        return sum(1 << x for x in s)

    def in_span(self, subset: Iterable[int], x: int) -> bool:
        """True iff adding x does not raise the rank of the subset.

        Raises InstanceError naming the smallest element outside the ground.
        """
        s = frozenset(subset)
        grown = self.rank(s | {x})
        return x in s or grown == self.rank(s)

    def exchange(self, independent: Iterable[int]) -> ExchangeTest:
        """The exchange test of an independent set I: ok(x, y) is true iff
        I - x + y is independent (I + y when x is None), for x in I and y
        outside I. ok.add(y), for a y outside I with I + y independent,
        makes ok the test of I + y, so a test grows with its set.

        I is checked against the ground here, once, for every construction
        (InstanceError names its smallest element outside the ground); y is
        checked by each test. By default each test is one rank_fn call on
        I's mask with x cleared and y set (a y outside the ground raises
        InstanceError), and add sets y in the mask; a construction with a
        native exchange_fn answers all of them from one pass over I, and its
        test must provide add too. The native test of binary_matroid and
        graphic_matroid (one GF(2) elimination of I, which add extends by
        y's column) raises the same InstanceError for y outside the ground;
        the incidence lifts inside transversals.rado_rainbow, which build y
        themselves, do not check it.
        """
        s = frozenset(independent)
        base = self._mask(s)
        if self._exchange_fn is not None:
            return self._exchange_fn(s)
        rank_fn, ground = self._rank_fn, self.ground_size

        def ok(x: Optional[int], y: int) -> bool:
            if not 0 <= y < ground:
                raise InstanceError(f"element {y} outside ground of size {ground}")
            mask = (base if x is None else base & ~(1 << x)) | 1 << y
            return rank_fn(mask) == mask.bit_count()

        def add(y: int) -> None:
            nonlocal base
            base |= 1 << y

        ok.add = add
        return ok

    def __repr__(self) -> str:
        return f"IndependenceOracle({self.descriptor.get('kind', '?')}, m={self.ground_size})"


# ---------------------------------------------------------------------------
# constructions


def partition_matroid(ground_size: int, parts: list[Iterable[int]],
                      caps: Optional[list[int]] = None) -> IndependenceOracle:
    """Independent iff each part holds at most its capacity (default 1).

    Elements in no part are free: they never count against any capacity.
    """
    part_sets = [frozenset(p) for p in parts]
    if caps is None:
        caps = [1] * len(part_sets)
    if len(caps) != len(part_sets):
        raise InstanceError("parts and caps must have equal length")
    seen: set[int] = set()
    for i, p in enumerate(part_sets):
        for x in p:
            if not 0 <= x < ground_size:
                raise InstanceError(f"parts[{i}]: element {x} out of range")
            if x in seen:
                raise InstanceError(f"parts overlap at element {x}")
        seen |= p
    for i, c in enumerate(caps):
        if c < 0:
            raise InstanceError(f"caps[{i}]: negative capacity")

    part_masks = [(sum(1 << x for x in p), c) for p, c in zip(part_sets, caps)]
    free = ((1 << ground_size) - 1) & ~sum(p for p, _ in part_masks)

    def rank(s: int) -> int:
        r = (s & free).bit_count()
        for p, c in part_masks:
            k = (s & p).bit_count()
            r += k if k < c else c
        return r

    def members() -> bytes:
        """The subsets free of every (cap + 1)-subset of a part."""
        return _free_of(ground_size, (sum(c) for p, cap in zip(part_sets, caps)
                                      for c in combinations([1 << x for x in p], cap + 1)))

    desc = {
        "kind": "partition",
        "ground_size": ground_size,
        "parts": [sorted(p) for p in part_sets],
        "caps": list(caps),
    }
    return IndependenceOracle(ground_size, rank, desc, members_fn=members)


def uniform_matroid(ground_size: int, k: int) -> IndependenceOracle:
    """Independent iff size at most k."""
    if k < 0:
        raise InstanceError("uniform matroid needs k >= 0")
    desc = {"kind": "uniform", "ground_size": ground_size, "k": k}
    return IndependenceOracle(ground_size, lambda s: min(s.bit_count(), k), desc,
                              members_fn=lambda: _at_most(ground_size, k))


def free_matroid(ground_size: int) -> IndependenceOracle:
    desc = {"kind": "free", "ground_size": ground_size}
    return IndependenceOracle(ground_size, int.bit_count, desc,
                              members_fn=lambda: _at_most(ground_size, ground_size))


def graphic_matroid(g: Graph) -> IndependenceOracle:
    """Ground = edge ids of g; independent iff the edge set is acyclic.

    A graphic matroid is binary on the incidence columns of its edges: a set
    of edges is a forest iff their columns are independent over GF(2)
    (parallel edges get equal columns, and a Graph has no self-loops, so no
    column is zero). So it is the binary matroid on those columns, with its
    rank, exchange test and member table."""
    desc = {
        "kind": "graphic",
        "graph": {"n": g.n, "edges": [list(e) for e in g.edges]},
    }
    return _binary([g.edge_mask(e) for e in range(g.num_edges)], desc)


def binary_matroid(columns: list[int]) -> IndependenceOracle:
    """Ground = column indices; independent iff the columns (int bitsets
    over GF(2)) are linearly independent. A negative column raises
    InstanceError naming the first one. The descriptor's matrix, one row
    per bit and at least one row, is built on the first read of
    descriptor."""
    cols = [int(c) for c in columns]
    if min(cols, default=0) < 0:
        j = next(j for j, c in enumerate(cols) if c < 0)
        raise InstanceError(f"columns[{j}]: negative column {cols[j]}")

    def describe() -> dict:
        nbits = max((c.bit_length() for c in cols), default=0)
        return {
            "kind": "binary",
            "matrix": [[(c >> r) & 1 for c in cols] for r in range(max(nbits, 1))],
        }

    return _binary(cols, describe)


def _binary(cols: list[int], desc: Union[dict, Callable[[], dict]]) -> IndependenceOracle:
    """The matroid of the GF(2) columns cols, described by desc."""

    def exchange(s: frozenset[int]) -> ExchangeTest:
        """One elimination of I, column i tagged by bit i below the column
        bits: y reduces to its fundamental circuit in I + y when its column
        part vanishes, so I - x + y is independent iff y's column part does
        not vanish or x is in that circuit. add(y) reduces y's one tagged
        column into the basis instead of eliminating I + y again."""
        k = len(cols)
        basis = _basis(((cols[i] << k) | 1 << i for i in s), k)
        circuits: dict[int, int] = {}  # y -> its circuit mask, or -1 if I + y is independent

        def ok(x: Optional[int], y: int) -> bool:
            c = circuits.get(y)
            if c is None:
                if not 0 <= y < k:
                    raise InstanceError(f"element {y} outside ground of size {k}")
                r = _reduce(cols[y] << k, basis)
                c = circuits[y] = -1 if r >> k else r
            return c == -1 or (x is not None and c >> x & 1 == 1)

        def add(y: int) -> None:
            v = _reduce((cols[y] << k) | 1 << y, basis)
            basis[v.bit_length() - 1] = v
            circuits.clear()  # a cached -1 may no longer hold for I + y

        ok.add = add
        return ok

    return IndependenceOracle(len(cols), lambda s: gf2_rank([cols[i] for i in _bits(s)]),
                              desc, exchange, lambda: _binary_members(cols))


def truncate(m: IndependenceOracle, k: int) -> IndependenceOracle:
    """Independent iff independent in m and of size at most k."""
    if k < 0:
        raise InstanceError("truncation needs k >= 0")
    return IndependenceOracle(
        m.ground_size, lambda s: min(k, m._rank_fn(s)),
        lambda: {"kind": "truncation", "k": k, "inner": m.descriptor},
        members_fn=lambda: _meet(_member_masks(m), _at_most(m.ground_size, k)))


def direct_sum(m: IndependenceOracle, n: IndependenceOracle) -> IndependenceOracle:
    """Disjoint union; n's elements are shifted up by m's ground size."""
    off = m.ground_size
    low = (1 << off) - 1

    def rank(s: int) -> int:
        return m._rank_fn(s & low) + n._rank_fn(s >> off)

    def members() -> bytes:
        """Subset (r << off) | l is a member iff l is one of m and r of n."""
        left = _member_masks(m)
        absent = bytes(len(left))
        return b"".join(left if bit else absent for bit in _member_masks(n))

    return IndependenceOracle(
        off + n.ground_size, rank,
        lambda: {"kind": "direct-sum", "left": m.descriptor, "right": n.descriptor},
        members_fn=members)


def from_descriptor(desc: dict, default_ground: Optional[int] = None) -> IndependenceOracle:
    """Rebuild an oracle from its serialized descriptor.

    Raises InstanceError naming the first malformed field, as a path
    under "matroid".
    """
    return _from_descriptor(desc, default_ground, "matroid")


def _from_descriptor(desc, default_ground: Optional[int], path: str) -> IndependenceOracle:
    """from_descriptor with errors naming fields under the given path."""
    if not isinstance(desc, dict):
        raise InstanceError(f"{path}: expected an object")

    def field(name: str):
        if name not in desc:
            raise InstanceError(f"{path}.{name}: required field is missing")
        return desc[name]

    kind = desc.get("kind")
    ground = desc.get("ground_size")
    ground = default_ground if ground is None else _int(ground, f"{path}.ground_size")
    if kind in ("partition", "uniform", "free") and ground is None:
        raise InstanceError(f"{path}.ground_size: required field is missing")
    if kind == "partition":
        caps = desc.get("caps")
        if caps is not None:
            _ints(caps, f"{path}.caps")
        return partition_matroid(ground, _int_arrays(field("parts"), f"{path}.parts"), caps)
    if kind == "uniform":
        return uniform_matroid(ground, _int(field("k"), f"{path}.k"))
    if kind == "free":
        return free_matroid(ground)
    if kind == "graphic":
        return graphic_matroid(_as_graph(field("graph"), f"{path}.graph"))
    if kind == "binary":
        rows = _int_arrays(field("matrix"), f"{path}.matrix")
        if any(len(row) != len(rows[0]) for row in rows):
            raise InstanceError(f"{path}.matrix: rows differ in length")
        ncols = len(rows[0]) if rows else (ground or 0)
        cols = [sum((row[j] & 1) << i for i, row in enumerate(rows)) for j in range(ncols)]
        return binary_matroid(cols)
    if kind == "truncation":
        k = _int(field("k"), f"{path}.k")
        return truncate(_from_descriptor(field("inner"), default_ground, f"{path}.inner"), k)
    if kind == "direct-sum":
        return direct_sum(_from_descriptor(field("left"), None, f"{path}.left"),
                          _from_descriptor(field("right"), None, f"{path}.right"))
    raise InstanceError(f"{path}.kind: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# matroid intersection


def _intersection_augment(m1: IndependenceOracle, m2: IndependenceOracle
                          ) -> tuple[frozenset[int], frozenset[int]]:
    """Max common independent set plus the final source-reachable set.

    Shortest augmenting paths in the exchange graph; BFS explores elements
    in ascending order, which fixes the outcome deterministically. Each
    augmentation reads its arcs from one exchange test per matroid,
    m.exchange(I): sources are the y with I + y independent in m1, sinks
    those with I + y independent in m2 (each y asked when the search
    reaches it), and the arcs are x -> y when I - x + y is independent in
    m1 and y -> x when it is in m2.

    A length-1 path is the smallest source that is also a sink, and the
    BFS would take it first. So before each BFS an ascending scan from a
    cursor adds the first y outside I with I + y independent in both,
    grows both tests by it (ok.add(y)) and moves the cursor past it. Every
    element below the cursor is in I or was rejected; while I only grows
    it stays rejected, since a superset of a dependent set is dependent.
    The BFS runs only when the scan reaches the end of the ground. A
    longer path removes elements from I, so both tests are built again
    for the new I; but shortest augmenting paths never get shorter
    (Cunningham 1986), so no length-1 path is left and the cursor stays
    at the end.
    """
    if m1.ground_size != m2.ground_size:
        raise InstanceError("matroid intersection needs a shared ground set")
    m = m1.ground_size
    current: set[int] = set()
    cursor = 0
    ok1, ok2 = m1.exchange(current), m2.exchange(current)
    while True:
        y = next((y for y in range(cursor, m)
                  if y not in current and ok1(None, y) and ok2(None, y)), None)
        if y is not None:
            current.add(y)
            ok1.add(y)
            ok2.add(y)
            cursor = y + 1
            continue
        inside = sorted(current)
        outside = [y for y in range(m) if y not in current]
        parent: dict[int, Optional[int]] = {}
        queue: list[Optional[int]] = [None]  # None: a root with an arc to each source
        found = None
        for u in queue:
            if u is None:
                nbrs = [y for y in outside if ok1(None, y)]
            elif u in current:
                # m1-exchange arcs u (in I) -> y (out of I)
                nbrs = [y for y in outside if y not in parent and ok1(u, y)]
            else:
                # m2-exchange arcs u (out of I) -> x (in I)
                nbrs = [x for x in inside if x not in parent and ok2(x, u)]
            for v in nbrs:
                parent[v] = u
                if v not in current and ok2(None, v):
                    found = v
                    break
                queue.append(v)
            if found is not None:
                break
        if found is None:
            return frozenset(current), frozenset(parent)
        cursor = m
        while found is not None:
            current ^= {found}
            found = parent[found]
        ok1, ok2 = m1.exchange(current), m2.exchange(current)


def matroid_intersection(m1: IndependenceOracle, m2: IndependenceOracle) -> frozenset[int]:
    """A maximum-cardinality set independent in both matroids."""
    best, _ = _intersection_augment(m1, m2)
    return best


# ---------------------------------------------------------------------------
# covering numbers


def _member_masks(m: IndependenceOracle) -> bytes:
    """One byte per subset of the ground, read as a bitmask: 1 iff the
    subset is independent in m. A construction's members_fn builds it
    from the construction's own dependent sets. An oracle built from a
    bare rank function is scanned instead: its rank function is asked
    directly on each mask, and only about the subsets whose every
    one-smaller subset is a member: the nonempty independent sets and the
    circuits. The ground is capped at COVER_GROUND_CAP elements."""
    g = m.ground_size
    if g > COVER_GROUND_CAP:
        raise ResourceCapError(
            f"covering number capped at ground size {COVER_GROUND_CAP}, got {g}"
        )
    if m._members_fn is not None:
        return m._members_fn()
    rank_fn = m._rank_fn
    members = bytearray(1 << g)
    members[0] = 1
    for mask in range(1, 1 << g):
        rest = mask
        while rest:
            low = rest & -rest
            if not members[mask ^ low]:
                break
            rest ^= low
        else:
            if rank_fn(mask) == mask.bit_count():
                members[mask] = 1
    return bytes(members)


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _free_of(g: int, seeds: Iterable[int]) -> bytes:
    """The member table over the subsets of range(g) whose members are the
    subsets that contain no seed: the dependent sets are the supersets of
    the seeds. One shift-and-OR pass per element over the table read as
    one int, the superset twin of _maximal_members."""
    marked = bytearray(1 << g)
    for s in seeds:
        marked[s] = 1
    big = int.from_bytes(marked, "little")
    for i, clear in enumerate(_clear_masks(g)):
        # when s lacks i, byte s of big moves to the byte of s | 1 << i
        big |= (big & clear) << (8 << i)
    return big.to_bytes(1 << g, "little").translate(_FLIP)


def _binary_members(cols: list[int]) -> bytes:
    """The member table of the binary matroid on these columns: a subset is
    dependent iff it contains a nonempty subset whose columns XOR to 0."""
    span = [0]  # span[s]: the XOR of the columns in s
    for c in cols:
        span += [v ^ c for v in span]
    zero = [s for s, v in enumerate(span) if not v]
    return _free_of(len(cols), zero[1:])  # zero[0] is the empty set


@lru_cache(maxsize=None)
def _popcounts(g: int) -> bytes:
    """One byte per subset of range(g): its size."""
    return bytes(s.bit_count() for s in range(1 << g))


@lru_cache(maxsize=None)
def _sizes_at_most(k: int) -> bytes:
    """The translation table of a size byte to 1 iff the size is at most k."""
    return bytes(size <= k for size in range(256))


def _at_most(g: int, k: int) -> bytes:
    """The member table of the subsets of range(g) with at most k elements."""
    return _popcounts(g).translate(_sizes_at_most(min(k, g)))


def _meet(a: bytes, b: bytes) -> bytes:
    """The subsets that are members of both byte masks."""
    both = int.from_bytes(a, "little") & int.from_bytes(b, "little")
    return both.to_bytes(len(a), "little")


def covering_number(matroid: IndependenceOracle, *more: IndependenceOracle
                    ) -> tuple[int, list[frozenset[int]]]:
    """Fewest sets independent in every given matroid that together cover
    their shared ground, with such sets as a witness.

    With one matroid this is its covering number rho(M); with more it is
    the covering number of their meet. The least k for which _cover finds
    a cover by at most k maximal members; the ground is capped at
    COVER_GROUND_CAP elements.
    """
    g = matroid.ground_size
    if any(other.ground_size != g for other in more):
        raise InstanceError("covering number of a meet needs a shared ground set")
    members = _member_masks(matroid)
    for other in more:
        members = _meet(members, _member_masks(other))
    cover = _cover(g, members)
    return len(cover), cover


@lru_cache(maxsize=None)
def _clear_masks(m: int) -> tuple[int, ...]:
    """For each i < m, the byte mask over the subsets of range(m) with a 1
    at each subset that lacks i."""
    return tuple(int.from_bytes((b"\1" * (1 << i) + bytes(1 << i)) * (1 << (m - 1 - i)),
                                "little")
                 for i in range(m))


def _maximal_members(m: int, members: bytes) -> list[int]:
    """The members of the byte mask over the subsets of range(m) that no
    other member contains, ascending: one shift-and-AND pass per element
    over the mask read as one int."""
    big = int.from_bytes(members, "little")
    grows = 0  # 1 at each subset s with a member s | 1 << i above it
    for i, clear in enumerate(_clear_masks(m)):
        # when s lacks i, byte s of big >> 8 * 2**i is the byte of s | 1 << i
        grows |= big >> (8 << i) & clear
    maximal = (big & ~grows).to_bytes(len(members), "little")
    found, s = [], maximal.find(1)
    while s >= 0:
        found.append(s)
        s = maximal.find(1, s + 1)
    return found


def _greedy_cover(m: int, members: bytes) -> tuple[list[int], list[int]]:
    """The maximal members of the downward-closed family whose member
    subsets of range(m) are marked in the byte mask, and a greedy cover by
    them: each pick covers the most uncovered elements, the smallest mask
    on ties. Raises InstanceError naming the smallest loop."""
    for x in range(m):
        if not members[1 << x]:
            raise InstanceError(f"element {x} is a loop: no finite cover exists")
    sets = _maximal_members(m, members)
    greedy: list[int] = []
    uncovered = (1 << m) - 1
    while uncovered:
        pick = max(sets, key=lambda s: ((s & uncovered).bit_count(), -s))
        greedy.append(pick)
        uncovered &= ~pick
    return sets, greedy


def _cover(m: int, members: bytes, within: Optional[int] = None
           ) -> Optional[list[frozenset[int]]]:
    """A cover of range(m) by members of the downward-closed family marked
    in the byte mask: by at most within sets, or None when there is none;
    without within, by the fewest sets, so its length is the covering number.

    A depth-first decision search with no incumbent: the greedy cover if it
    is short enough, else the first cover found, branching on the uncovered
    element with the fewest covering maximal members (ascending) and pruning
    when the largest member cannot cover the rest in the sets left. Without
    within it tries k = ceil(m / largest member), k + 1, ...; at k = rho no
    node above the first minimum cover in depth-first order is pruned, so
    that cover comes out unless the greedy cover is a minimum."""
    if m == 0:
        return []
    sets, greedy = _greedy_cover(m, members)
    max_size = max(s.bit_count() for s in sets)
    cover_sets_of = {x: [s for s in sets if s >> x & 1] for x in range(m)}
    chosen: list[int] = []

    def fill(uncovered: int, room: int) -> bool:
        """Extend chosen to a cover by at most room more sets."""
        if not uncovered:
            return True
        if -(-uncovered.bit_count() // max_size) > room:
            return False
        # branch on the uncovered element with the fewest covering sets
        elt = min(_bits(uncovered), key=lambda x: (len(cover_sets_of[x]), x))
        for s in cover_sets_of[elt]:
            chosen.append(s)
            if fill(uncovered & ~s, room - 1):
                return True
            chosen.pop()
        return False

    def decide(k: int) -> Optional[list[int]]:
        if len(greedy) <= k:
            return greedy
        return chosen if fill((1 << m) - 1, k) else None

    k = -(-m // max_size) if within is None else within
    found = decide(k)
    while found is None and within is None:
        k += 1
        found = decide(k)
    return None if found is None else [frozenset(_bits(s)) for s in found]


@dataclass(frozen=True)
class TwoCoverReport:
    """The three covering numbers of a matroid pair and their intersection,
    with witnesses, plus whether rho(M meet N) <= 2 max(rho(M), rho(N))."""

    rho_m: int
    rho_n: int
    rho_meet: int
    cover_m: tuple[frozenset[int], ...]
    cover_n: tuple[frozenset[int], ...]
    cover_meet: tuple[frozenset[int], ...]

    @property
    def holds(self) -> bool:
        return self.rho_meet <= 2 * max(self.rho_m, self.rho_n)


def _two_cover_settled(m1: IndependenceOracle, m2: IndependenceOracle) -> bool:
    """True when the greedy cover of the meet (the one _cover tries first)
    proves rho(M meet N) <= 2 max(rho(M), rho(N)): it is empty or has at
    most 2 max(ceil(g / r(M)), ceil(g / r(N))) sets, each a lower bound on
    rho by Edmonds' covering theorem with S = E (Edmonds 1965, J. Res. NBS
    69B). False otherwise, and for a pair with a loop, which
    check_two_cover rejects. The grounds must agree."""
    g = m1.ground_size
    try:
        _, greedy = _greedy_cover(g, _meet(_member_masks(m1), _member_masks(m2)))
    except InstanceError:  # a loop: check_two_cover names the one it meets first
        return False
    return not greedy or len(greedy) <= 2 * max(-(-g // m1.rank()), -(-g // m2.rank()))


def check_two_cover(m1: IndependenceOracle, m2: IndependenceOracle) -> TwoCoverReport:
    """Compute rho(M), rho(N), rho(M meet N) and check the 2-max inequality:
    each covering number is the least k with a cover by at most k sets
    (_cover without a limit), and its cover is the witness. A sweep that
    needs only the verdict asks _two_cover_settled first, and calls this
    for the pairs it leaves open."""
    if m1.ground_size != m2.ground_size:
        raise InstanceError("check_two_cover needs a shared ground set")
    g = m1.ground_size
    members_m, members_n = _member_masks(m1), _member_masks(m2)
    cov_m, cov_n = _cover(g, members_m), _cover(g, members_n)
    cov_meet = _cover(g, _meet(members_m, members_n))
    return TwoCoverReport(len(cov_m), len(cov_n), len(cov_meet),
                          tuple(cov_m), tuple(cov_n), tuple(cov_meet))
