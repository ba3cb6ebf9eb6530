"""Seeded corpus generators, one per workload.

Each generator takes the workload seed and returns a list of Case values
holding plain JSON data only. The Drisko and K5 families are closed-form;
everything else is drawn from random.Random(seed). Expected answers come
from theory or from how the instance was built (a planted choice, a planted
deficient color set), never from rainbowsets output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .checkers import gf2_rank


@dataclass(frozen=True)
class Case:
    """One op of a workload: what to call, on what data, expecting what."""

    id: str
    kind: str
    data: dict
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# closed-form matching families


def drisko_sharpness(n: int) -> dict:
    """n-1 copies of each of the two perfect matchings of the cycle C_2n,
    parallel edges with fresh ids. Its maximum rainbow matching has n-1
    edges (Drisko 1998), so a search for n must prove a negative."""
    edges: list[list[int]] = []
    colors: list[list[int]] = []
    for offset in (0, 1):
        for _ in range(n - 1):
            ids = []
            for i in range(offset, 2 * n, 2):
                ids.append(len(edges))
                edges.append([i, (i + 1) % (2 * n)])
            colors.append(ids)
    return {"graph": {"n": 2 * n, "edges": edges}, "colors": colors}


def k5_family(k: int) -> dict:
    """2k+1 colors, each all edges of the same k disjoint copies of K5.
    A matching of k disjoint K5s has at most 2k edges, and 2k colors reach
    it, so the optimum is 2k."""
    edges: list[list[int]] = []
    colors: list[list[int]] = []
    for _ in range(2 * k + 1):
        ids = []
        for block in range(k):
            for i in range(5):
                for j in range(i + 1, 5):
                    ids.append(len(edges))
                    edges.append([5 * block + i, 5 * block + j])
        colors.append(ids)
    return {"graph": {"n": 5 * k, "edges": edges}, "colors": colors}


def bnb_hard(seed: int) -> list[Case]:
    """Long exact searches that must prove a negative.

    Both families are closed-form, so the seed does not change them: the
    search cost of a relabeled copy varies up to twofold with the labels,
    which would swamp the timing across seeds.
    """
    del seed
    cases = []
    for n in range(7, 14):
        cases.append(Case(f"drisko-n{n}", "rainbow-matching",
                          {**drisko_sharpness(n), "target": n},
                          {"optimum": n - 1}))
    for k in (3, 4):
        cases.append(Case(f"k5-k{k}", "rainbow-matching",
                          {**k5_family(k), "target": 2 * k + 1},
                          {"optimum": 2 * k}))
    return cases


# ---------------------------------------------------------------------------
# random building blocks


def independent_vectors(rng: random.Random, count: int, bits: int) -> list[int]:
    """count GF(2)-independent random vectors of the given width."""
    out: list[int] = []
    while len(out) < count:
        v = rng.getrandbits(bits)
        if v and gf2_rank(out + [v]) == len(out) + 1:
            out.append(v)
    return out


def odd_cycle_family(rng: random.Random, n: int) -> dict:
    """n colors on n vertices; each color is a random odd cycle plus random
    chords, all with fresh edge ids, min(n, 9) + 2 edges per color so that
    the cost does not swing with the seed. Every color holds an odd cycle,
    so every color set spans the parity target and both the plain and the
    cooperative hypotheses hold."""
    edges: list[list[int]] = []
    families: list[list[int]] = []
    per_color = min(n, 9) + 2
    for _ in range(n):
        length = rng.choice([x for x in range(3, min(n, 9) + 1, 2)])
        cycle = rng.sample(range(n), length)
        ids = []
        for i in range(length):
            ids.append(len(edges))
            edges.append([cycle[i], cycle[(i + 1) % length]])
        for _ in range(per_color - length):
            u, v = rng.sample(range(n), 2)
            ids.append(len(edges))
            edges.append([u, v])
        families.append(ids)
    return {"graph": {"n": n, "edges": edges}, "families": families}


def hall_family(rng: random.Random, k: int, deficient: bool) -> dict:
    """k classes over a small ground with a planted system of distinct
    representatives, or with a planted color set J whose union has |J|-1
    elements."""
    ground = k + rng.randint(0, 4)
    reps = rng.sample(range(ground), k)
    sets = [{reps[c]} | set(rng.sample(range(ground), rng.randint(0, 3)))
            for c in range(k)]
    if deficient:
        planted = rng.sample(range(k), rng.randint(3, 6))
        pool = rng.sample(range(ground), len(planted) - 1)
        for c in planted:
            sets[c] = set(rng.sample(pool, rng.randint(1, len(pool))))
    return {"ground_size": ground, "colors": [sorted(s) for s in sets]}


def binary_rado_family(rng: random.Random, k: int, deficient: bool) -> dict:
    """k classes over the columns of a random GF(2) matrix with k+4 rows.

    A planted independent column per class makes a full rainbow basis;
    for a deficient family a planted color set J draws only from a
    subspace of rank |J|-1, which no full choice can escape.
    """
    bits = k + 4
    cols = independent_vectors(rng, k, bits)
    cols += [rng.getrandbits(bits) | 1 for _ in range(k)]
    sets = [{c} | set(rng.sample(range(k, 2 * k), 2)) for c in range(k)]
    if deficient:
        planted = rng.sample(range(k), 5)
        sub = independent_vectors(rng, len(planted) - 1, bits)
        for c in planted:
            ids = []
            for _ in range(3):
                mask = rng.randint(1, (1 << len(sub)) - 1)
                v = 0
                for i, s in enumerate(sub):
                    if mask >> i & 1:
                        v ^= s
                ids.append(len(cols))
                cols.append(v)
            sets[c] = set(ids)
    order = list(range(len(cols)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    cols = [cols[old] for old in order]
    return {"columns": cols, "colors": [sorted(where[x] for x in s) for s in sets]}


def binary_descriptor(cols: list[int]) -> dict:
    nbits = max((c.bit_length() for c in cols), default=0)
    return {"kind": "binary",
            "matrix": [[(c >> r) & 1 for c in cols] for r in range(nbits)]}


def binary_rado_instance(rng: random.Random, k: int, deficient: bool) -> dict:
    """binary_rado_family as a CLI instance with a matroid descriptor."""
    fam = binary_rado_family(rng, k, deficient)
    return {"ground_size": len(fam["columns"]), "colors": fam["colors"],
            "matroid": binary_descriptor(fam["columns"])}


def graphic_rado_family(rng: random.Random, k: int, deficient: bool) -> dict:
    """k classes of edges: a planted spanning tree on k+1 vertices gives each
    class one tree edge; a deficient family confines a color set J to |J|
    vertices, whose edges have forest rank at most |J|-1."""
    nv = k + 1 + rng.randint(0, 3)
    order = rng.sample(range(nv), k + 1)
    edges = [[order[i], order[rng.randrange(i)]] for i in range(1, k + 1)]
    for _ in range(k):
        u, v = rng.sample(range(nv), 2)
        edges.append([u, v])
    sets = [{c} | set(rng.sample(range(k, 2 * k), 2)) for c in range(k)]
    if deficient:
        planted = rng.sample(range(k), rng.randint(3, 5))
        inside = rng.sample(range(nv), len(planted))
        for c in planted:
            ids = []
            for _ in range(2):
                u, v = rng.sample(inside, 2)
                ids.append(len(edges))
                edges.append([u, v])
            sets[c] = set(ids)
    desc = {"kind": "graphic", "graph": {"n": nv, "edges": edges}}
    return {"ground_size": len(edges), "colors": [sorted(s) for s in sets],
            "matroid": desc}


def partition_rado_family(rng: random.Random, k: int, deficient: bool) -> dict:
    """k classes over a partition matroid with capacity 1 per part; the
    planted choice takes one element from each of k distinct parts, and a
    deficient color set J draws only from |J|-1 parts."""
    parts: list[list[int]] = []
    ground = 0
    for _ in range(k + 3):
        size = rng.randint(2, 4)
        parts.append(list(range(ground, ground + size)))
        ground += size
    chosen_parts = rng.sample(range(len(parts)), k)
    sets = [{rng.choice(parts[p])} | set(rng.sample(range(ground), 2))
            for p in chosen_parts]
    if deficient:
        planted = rng.sample(range(k), rng.randint(3, 5))
        poor = rng.sample(range(len(parts)), len(planted) - 1)
        pool = [x for p in poor for x in parts[p]]
        for c in planted:
            sets[c] = set(rng.sample(pool, rng.randint(1, 3)))
    desc = {"kind": "partition", "ground_size": ground, "parts": parts,
            "caps": [1] * len(parts)}
    return {"ground_size": ground, "colors": [sorted(s) for s in sets],
            "matroid": desc}


# ---------------------------------------------------------------------------
# matroid-span


def matroid_span(seed: int) -> list[Case]:
    """Independence-oracle, GF(2) and matroid-intersection work.

    The op percentiles are order statistics over 26 ops: p50 is the 13th
    smallest and the tail (p90) the 3rd largest. The ops come in groups of
    like cost sized so that both land inside a group (the tail among four
    odd cycles at n=12 and n=13, the median among six deficient Rado
    families), since an order statistic taken between two groups swings
    with the seed-dependent cost of single instances.
    """
    # The n=21 family alone sets peak_rss_mb (its oracle memo tables hold
    # 80-95 MB, depending on the draw), so like the closed-form families of
    # bnb-hard it is the same for every seed.
    cases = [Case("odd-cycle-n21", "odd-cycle", odd_cycle_family(random.Random(21), 21))]
    rng = random.Random(seed)
    for i, n in enumerate((12, 12, 13, 13)):
        cases.append(Case(f"odd-cycle-n{n}-{i}", "odd-cycle", odd_cycle_family(rng, n)))
    cases.append(Case("coop-odd-cycle-n10", "coop-odd-cycle", odd_cycle_family(rng, 10)))
    for k, deficient in ((32, False), (32, True), (40, True)):
        tag = "deficient" if deficient else "full"
        for i in range(6):
            cases.append(Case(f"rado-k{k}-{tag}-{i}", "rado",
                              binary_rado_family(rng, k, deficient),
                              {"violator": deficient}))
    for i in range(2):
        cases.append(Case(f"two-cover-{i}", "two-cover",
                          {"seed": rng.randrange(2**32), "ground": 8}))
    return cases


# ---------------------------------------------------------------------------
# sweep-small

# (tag, parameters, expected outcome). coercive-244 finds a counterexample
# to the size sequence (2, 4, 4) -> 3 on two 4-cycles; scrambled-sharpness
# finds no sharpness witness in its random sample at n=4 and so ends
# cap-exhausted; every other tag verifies its statement over the range.
SWEEPS = (
    ("brs", {"n": 5}, {"verdict": "verified-range"}),
    ("drisko", {"n": 4}, {"verdict": "verified-range"}),
    ("stairs", {"n": 4}, {"verdict": "verified-range"}),
    ("ab", {"n": 3, "max_vertices": 7}, {"verdict": "verified-range"}),
    ("coercive-244", {}, {"verdict": "counterexample", "sizes": [2, 4, 4], "target": 3}),
    ("weighted-drisko", {"n": 3}, {"verdict": "verified-range"}),
    ("rho-two-cover", {"ground": 8}, {"verdict": "verified-range"}),
    ("scrambled-sharpness", {"n": 4}, {"verdict": "cap-exhausted"}),
    ("rota", {"n": 3}, {"verdict": "verified-range"}),
    ("short-cycle", {"n": 8, "r": 4}, {"verdict": "verified-range"}),
)


def sweep_small(seed: int) -> list[Case]:
    """One run_sweep per tag at parameters that finish in seconds."""
    rng = random.Random(seed)
    return [Case(f"sweep-{tag}", "sweep",
                 {"conjecture": tag, "params": params, "seed": rng.randrange(2**32)},
                 expect)
            for tag, params, expect in SWEEPS]


# ---------------------------------------------------------------------------
# cli-corpus


def cyclic_isotope(rng: random.Random, n: int) -> list[list[int]]:
    """The cyclic group's table with rows, columns and symbols permuted.
    Isotopy keeps the largest partial transversal: n for odd n, n-1 for
    even n (no cyclic group of even order has a transversal)."""
    rows = rng.sample(range(n), n)
    cols = rng.sample(range(n), n)
    syms = rng.sample(range(1, n + 1), n)
    return [[syms[(rows[i] + cols[j]) % n] for j in range(n)] for i in range(n)]


def random_matching_family(rng: random.Random, count: int, size: int) -> dict:
    """count random perfect matchings of K_{size,size}, fresh edge ids."""
    edges: list[list[int]] = []
    colors: list[list[int]] = []
    for _ in range(count):
        perm = rng.sample(range(size), size)
        ids = []
        for left in range(size):
            ids.append(len(edges))
            edges.append([left, size + perm[left]])
        colors.append(ids)
    return {"graph": {"n": 2 * size, "edges": edges}, "colors": colors}


def _arc(arcs: list[list[int]], index: dict, u: int, v: int) -> int:
    """The id of arc u->v, added on first use so that paths share arcs."""
    if (u, v) not in index:
        index[(u, v)] = len(arcs)
        arcs.append([u, v])
    return index[(u, v)]


def weighted_path_instance(rng: random.Random, inner: int) -> dict:
    """s=0, t=inner+1; inner+1..inner+3 random simple s-t paths sharing
    edges where they meet; random weights 0..9."""
    s, t = 0, inner + 1
    arcs: list[list[int]] = []
    index: dict = {}
    paths = []
    for _ in range(inner + 1 + rng.randint(0, 2)):
        mids = [v for v in range(1, inner + 1) if rng.random() < 0.5]
        rng.shuffle(mids)
        route = [s] + mids + [t]
        paths.append([_arc(arcs, index, a, b) for a, b in zip(route, route[1:])])
    weights = [rng.randint(0, 9) for _ in arcs]
    return {"network": {"n": inner + 2, "edges": arcs, "sources": [s], "targets": [t]},
            "paths": paths, "weights": weights}


def disjoint_paths_instance(rng: random.Random, p: int, q: int) -> dict:
    """2p-1+q edge sets, each the edges of p vertex-disjoint S-T paths that
    share the network's edges where they meet."""
    ns, nt = p + rng.randint(0, 1), p + rng.randint(0, 1)
    sources = list(range(ns))
    targets = list(range(ns, ns + nt))
    inner = list(range(ns + nt, ns + nt + q))
    arcs: list[list[int]] = []
    index: dict = {}
    families = []
    for _ in range(2 * p - 1 + q):
        starts = rng.sample(sources, p)
        ends = rng.sample(targets, p)
        mids = [v for v in inner if rng.random() < 0.6]
        rng.shuffle(mids)
        cuts = sorted(rng.randint(0, len(mids)) for _ in range(p - 1))
        pieces = [mids[a:b] for a, b in zip([0] + cuts, cuts + [len(mids)])]
        ids = set()
        for j in range(p):
            route = [starts[j]] + pieces[j] + [ends[j]]
            ids.update(_arc(arcs, index, a, b) for a, b in zip(route, route[1:]))
        families.append(sorted(ids))
    net = {"n": ns + nt + q, "edges": arcs, "sources": sources, "targets": targets}
    return {"network": net, "colors": families}


def scrambled_path_instance(rng: random.Random, inner: int, n: int) -> dict:
    """More than n*inner/2 edge-disjoint random s-t paths and a random
    re-partition of their edges into classes of at most n edges."""
    s, t = 0, inner + 1
    arcs: list[list[int]] = []
    paths = []
    for _ in range(n * inner // 2 + 1 + rng.randint(0, 2)):
        mids = [v for v in range(1, inner + 1) if rng.random() < 0.5]
        rng.shuffle(mids)
        route = [s] + mids + [t]
        path = []
        for a, b in zip(route, route[1:]):
            path.append(len(arcs))
            arcs.append([a, b])
        paths.append(path)
    pool = [e for path in paths for e in path]
    rng.shuffle(pool)
    classes = []
    i = 0
    while i < len(pool):
        size = rng.randint(1, n)
        classes.append(sorted(pool[i:i + size]))
        i += size
    return {"network": {"n": inner + 2, "edges": arcs, "sources": [s], "targets": [t]},
            "paths": paths, "scrambling": classes}


def span_rainbow_instance(rng: random.Random, n: int) -> dict:
    """n classes in a binary matroid of rank <= n with a target column z;
    every class holds a pair of columns summing to z, so every color set
    spans the target and the cooperative hypothesis holds."""
    z = rng.getrandbits(n) | 1
    cols = [z]
    sets = []
    for _ in range(n):
        ids = []
        a = rng.getrandbits(n)
        for v in (a, a ^ z, rng.getrandbits(n)):
            ids.append(len(cols))
            cols.append(v)
        sets.append(ids)
    return {"ground_size": len(cols), "matroid": binary_descriptor(cols),
            "colors": sets, "target": [0]}


def hall_chain(length: int) -> dict:
    """Classes {0}, {0,1}, {1,2}, ...: one full choice, found by augmenting
    paths as long as the chain."""
    return {"ground_size": length,
            "colors": [[0]] + [[i - 1, i] for i in range(1, length)]}


# Inputs that break the exit-code contract at the seed commit; item 5 of
# the roadmap fixes them. Each keeps its contract exit code.
PROBES = (
    ("probe-colors-scalar", ["hall"], {"ground_size": 6, "colors": [5]}, 2),
    ("probe-edge-short", ["rainbow-matching"],
     {"graph": {"n": 2, "edges": [[0]]}, "colors": [[0]]}, 2),
    ("probe-bipartition-scalar", ["rainbow-matching"],
     {"graph": {"n": 2, "edges": [[0, 1]], "bipartition": 5}, "colors": [[0]]}, 2),
    ("probe-graph-n-negative", ["rainbow-matching"],
     {"graph": {"n": -1, "edges": []}, "colors": []}, 2),
)
CHAIN_LENGTH = 1200


def cli_corpus(seed: int) -> list[Case]:
    """Many millisecond-scale requests through the CLI, one per instance
    subcommand family, plus the contract probes."""
    rng = random.Random(seed)
    cases: list[Case] = []

    def add(name: str, argv: list[str], instance: dict, exit_code: int, **expect):
        cases.append(Case(f"cli-{name}", "cli",
                          {"argv": argv, "instance": instance},
                          {"exit": exit_code, **expect}))

    # Sizes follow fixed schedules and only the structure is drawn from the
    # seed, so that the corpus cost does not swing from seed to seed.
    for i in range(30):
        deficient = i % 3 == 2
        add(f"hall-{i}", ["hall"], hall_family(rng, 20 + 5 * (i % 5), deficient),
            1 if deficient else 0)
    makers = (("binary", binary_rado_instance), ("graphic", graphic_rado_family),
              ("partition", partition_rado_family))
    for i in range(21):
        kind, maker = makers[i % 3]
        deficient = i % 2 == 1
        add(f"rado-{kind}-{i}", ["rado"], maker(rng, 8 + 2 * (i % 5), deficient),
            1 if deficient else 0)
    for i in range(10):
        n = 3 + i % 3
        add(f"matching-drisko-{i}", ["rainbow-matching", "--target", str(n)],
            random_matching_family(rng, 2 * n - 1, n), 0, optimum=n)
    for n in (3, 4, 5):
        for i in range(3):
            add(f"matching-sharp-n{n}-{i}", ["rainbow-matching", "--target", str(n)],
                drisko_sharpness(n), 1, optimum=n - 1)
    for i in range(10):
        n = 3 + i % 3
        argv = ["arrow-check", "--a", str(2 * n - 1), "--b", str(n), "--c", str(n)]
        add(f"arrow-drisko-{i}", argv, random_matching_family(rng, 2 * n - 1, n), 0)
    for n in (3, 4):
        argv = ["arrow-check", "--a", str(2 * n - 2), "--b", str(n), "--c", str(n)]
        add(f"arrow-sharp-n{n}", argv, drisko_sharpness(n), 1)
    for i in range(20):
        add(f"path-weighted-{i}", ["rainbow-path", "--weights"],
            weighted_path_instance(rng, 3 + i % 6), 0)
    for i in range(15):
        p, q = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2))[i % 5]
        add(f"paths-disjoint-{i}", ["rainbow-paths-disjoint", "--p", str(p)],
            disjoint_paths_instance(rng, p, q), 0, p=p)
    for i in range(15):
        n = 2 + i % 2
        add(f"scrambled-path-{i}", ["scrambled-path", "--n", str(n)],
            scrambled_path_instance(rng, 1 + (i // 2) % 4, n), 0)
    for i in range(15):
        add(f"odd-cycle-{i}", ["odd-cycle"], odd_cycle_family(rng, 5 + i % 3), 0)
    for i in range(15):
        add(f"odd-cycle-coop-{i}", ["odd-cycle", "--cooperative"],
            odd_cycle_family(rng, 5 + i % 3), 0)
    for i in range(15):
        add(f"span-rainbow-{i}", ["span-rainbow"],
            span_rainbow_instance(rng, 4 + i % 5), 0)
    for i in range(15):
        n = 4 + i % 4
        add(f"latin-{i}", ["latin"], {"latin": cyclic_isotope(rng, n)}, 0,
            size=n if n % 2 else n - 1)
    for name, argv, instance, code in PROBES:
        cases.append(Case(name, "cli", {"argv": argv, "instance": instance},
                          {"exit": code}))
    cases.append(Case("probe-hall-chain", "cli",
                      {"argv": ["hall"], "instance": hall_chain(CHAIN_LENGTH)},
                      {"exit": 0}))
    return cases


GENERATORS = {
    "bnb-hard": bnb_hard,
    "matroid-span": matroid_span,
    "sweep-small": sweep_small,
    "cli-corpus": cli_corpus,
}
