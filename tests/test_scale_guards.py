"""Scale guards: one row per CLI command, each at the size where one of the
package's constructions once hit a scale cliff, plus one small run per kind
of instance. A row runs in a `python -S` child, as `python -S -m
rainbowsets.cli` would, so an import from outside the standard library
fails it. One runner checks every row's exit code, the last line of its
stdout, its time and, where the row bounds it, its peak RSS.

    pytest tests/test_scale_guards.py -k rota
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

# an exit code the CLI never uses: the child exits with it when the CLI
# raises past its own handlers, since Python's exit code for an uncaught
# exception, 1, is also the CLI's answer "no"
CRASHED = 70

# the CLI on the child's argv; then, whatever it did, its own peak RSS in KB
# as the last line of stderr. That is VmHWM, the peak since exec: Linux
# carries the parent's RSS at the fork into the child's ru_maxrss, and the
# parent here is this test process, not a small shell. Without /proc the
# peak goes unreported, which fails only the rows that bound it
CHILD = f"""\
import sys, traceback
try:
    from rainbowsets import cli
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
except BaseException:
    traceback.print_exc()
    code = {CRASHED}
sys.stdout.flush()
try:
    with open("/proc/self/status") as status:
        print(status.read().split("VmHWM:")[1].split()[0], file=sys.stderr)
except OSError:
    pass
sys.exit(code)
"""


class Guard(NamedTuple):
    name: str
    argv: tuple[str, ...]
    stdin: Callable[[], str] = str  # builds the instance the child reads
    code: int = 0  # the expected exit code
    check: Optional[Callable[[dict], bool]] = None  # on the last stdout line
    timeout: float = 60.0
    rss_mb: Optional[int] = None


def sweep(tag: str, *params: str, seed: Optional[str] = None) -> tuple[str, ...]:
    return ("sweep", *(("--seed", seed) if seed else ()), "--conjecture", tag,
            "--params", *params)


def binary_rado(k: int) -> str:
    """k classes over 2k random odd GF(2) columns of k + 4 bits."""
    rng = random.Random(1)
    cols = [rng.getrandbits(k + 4) | 1 for _ in range(2 * k)]
    return json.dumps({"ground_size": 2 * k,
                       "colors": [[c, *rng.sample(range(k, 2 * k), 2)] for c in range(k)],
                       "matroid": {"kind": "binary",
                                   "matrix": [[c >> r & 1 for c in cols] for r in range(k + 4)]}})


def graphic_rado(n: int) -> str:
    """n classes of 4 among 4n random edges on n vertices."""
    rng = random.Random(3)
    edges = [rng.sample(range(n), 2) for _ in range(4 * n)]
    return json.dumps({"ground_size": 4 * n,
                       "colors": [rng.sample(range(4 * n), 4) for _ in range(n)],
                       "matroid": {"kind": "graphic", "graph": {"n": n, "edges": edges}}})


def hall_chain(n: int) -> str:
    return json.dumps({"ground_size": n, "colors": [[0]] + [[i - 1, i] for i in range(1, n)]})


def drisko_sharp(n: int) -> str:
    """2n - 2 colors, n - 1 copies of each perfect matching of C_2n."""
    edges = [[i, (i + 1) % (2 * n)] for o in (0, 1) for _ in range(n - 1)
             for i in range(o, 2 * n, 2)]
    return json.dumps({"graph": {"n": 2 * n, "edges": edges},
                       "colors": [list(range(c * n, c * n + n)) for c in range(2 * n - 2)]})


def disjoint_k5s(k: int) -> str:
    """2k + 1 colors on k disjoint K5s, each color holding every edge."""
    edges = [[5 * b + i, 5 * b + j] for b in range(k) for i in range(5) for j in range(i + 1, 5)]
    return json.dumps({"graph": {"n": 5 * k, "edges": edges},
                       "colors": [list(range(10 * k))] * (2 * k + 1)})


def hub_triangles(k: int) -> str:
    """8k + 1 colors on k blocks, each a hub joined to one vertex of each of
    three disjoint triangles, each color holding every edge."""
    edges = []
    for b in range(k):
        for t in range(3):
            a, c, d = 10 * b + 1 + 3 * t, 10 * b + 2 + 3 * t, 10 * b + 3 + 3 * t
            edges += [[a, c], [c, d], [a, d], [10 * b, a]]
    return json.dumps({"graph": {"n": 10 * k, "edges": edges},
                       "colors": [list(range(12 * k))] * (8 * k + 1)})


def disjoint_edges(n: int) -> str:
    return json.dumps({"graph": {"n": 2 * n, "edges": [[2 * i, 2 * i + 1] for i in range(n)]},
                       "colors": [[i] for i in range(n)]})


def verified(instances: int) -> Callable[[dict], bool]:
    return lambda r: r["instances_tested"] == instances and r["verdict"] == "verified-range"


GUARDS = [
    # one run per kind of instance and claim family stream (random,
    # bipartite, cycles), each on the standard library alone
    Guard("rado-binary", ("rado",), lambda: '{"ground_size": 4, "colors": [[0, 1], [1, 2], [2, 3]], "matroid": {"kind": "binary", "matrix": [[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]]}}'),
    Guard("brs-3", sweep("brs", "n=3")),
    Guard("stairs-3", sweep("stairs", "n=3", "instances=50")),
    Guard("ab-2", sweep("ab", "n=2")),
    # the weighted search reads each family straight off its random draw
    Guard("weighted-drisko-3", sweep("weighted-drisko", "n=3", "instances=200"),
          check=lambda r: r["verdict"] == "verified-range"),
    # the one claim sweep whose classes can hold an edge of K_{n,n} twice:
    # its sample holds no sharpness witness, so it ends at the cap with a note
    Guard("scrambled-sharpness-4", sweep("scrambled-sharpness", "n=4", "instances=100"),
          code=4, check=lambda r: "note" in r["detail"]),
    # the C8/C10 families up to automorphism hold the known counterexample
    Guard("coercive-244", sweep("coercive-244"), code=3,
          check=lambda r: r["detail"]["single_cycle_instances"] == 624),
    Guard("scrambled-path", ("scrambled-path", "--n", "2", "--input", "tests/data/scrambled_path_14.json")),
    # GF(2) elimination under matroid intersection: an odd cycle, and a
    # span-rainbow that takes the deficient route
    Guard("odd-cycle", ("odd-cycle",), lambda: '{"graph": {"n": 3, "edges": [[0,1],[1,2],[0,2]]}, "families": [[0,1,2],[0,1,2],[0,1,2]]}'),
    Guard("span-rainbow", ("span-rainbow",), lambda: '{"ground_size": 3, "colors": [[0],[1],[2]], "target": [1], "matroid": {"kind": "binary", "matrix": [[1,1,0],[0,0,1]]}}'),
    # path packing on the bipartite double: two sources, two targets, two
    # inner vertices, so 2p - 1 + q = 5 families for p = 2
    Guard("rainbow-paths-disjoint", ("rainbow-paths-disjoint", "--p", "2"),
          lambda: '{"network": {"n": 6, "edges": [[0,4],[4,2],[1,5],[5,3],[0,2],[1,3]], "sources": [0,1], "targets": [2,3]}, "colors": [[4,5],[0,1,2,3],[4,2,3],[0,1,5],[4,5,0]]}',
          check=lambda r: r["disjoint_paths"] == 2),
    # binary Rado: every augmentation has length 1, so the ascending scan
    # takes them all, and each element it adds is reduced once into the
    # exchange tests' basis (rebuilding the tests for each of the 800
    # eliminated all of I again, about 10 s)
    Guard("rado-binary-200", ("rado",), lambda: binary_rado(200),
          check=lambda r: len(r["assignment"]) == 200, timeout=20),
    Guard("rado-binary-800", ("rado",), lambda: binary_rado(800),
          check=lambda r: len(r["assignment"]) == 800, timeout=5),
    # graphic Rado answers exchange tests by one GF(2) elimination of I on
    # its incidence columns and keeps no rank per queried subset: a violator
    # (exit 1); at 300 vertices a rank per exchange test took minutes
    Guard("rado-graphic-150", ("rado",), lambda: graphic_rado(150), code=1,
          check=lambda r: r["status"] == "violator", timeout=20, rss_mb=60),
    Guard("rado-graphic-300", ("rado",), lambda: graphic_rado(300), code=1,
          check=lambda r: r["status"] == "violator", timeout=20, rss_mb=60),
    # Hall on the chain {0}, {0,1}, {1,2}, ...: linear in the classes
    Guard("hall-chain-20000", ("hall",), lambda: hall_chain(20000), timeout=20),
    # colors nested 5,000 deep overflow the JSON decoder's stack: an input
    # error, not a search cap
    Guard("hall-nested-5000", ("hall",), lambda: '{"ground_size": 1, "colors": ' + "[" * 5000 + "]" * 5000 + "}", code=2),
    # Drisko sharpness at n = 40: the bound on the distinct vertex pairs
    # proves that the largest rainbow matching has 39 edges
    Guard("drisko-40", ("rainbow-matching", "--target", "40"), lambda: drisko_sharp(40),
          code=1, check=lambda r: r["size"] == 39, timeout=20),
    # the components of the live vertex pairs (five vertices, at most two
    # pairs each) prove 40 edges without running the blossom
    Guard("k5-20", ("rainbow-matching", "--target", "41"), lambda: disjoint_k5s(20),
          code=1, check=lambda r: r["size"] == 40, timeout=10),
    # the component count (5 per block) exceeds the matching number (4 per
    # block), so every bound past the first dead end runs the blossom: 1,934
    Guard("hub-6", ("rainbow-matching", "--target", "25"), lambda: hub_triangles(6),
          code=1, check=lambda r: r["size"] == 24, timeout=5),
    # the branch and bound keeps an explicit stack: 1,500 levels deep
    Guard("disjoint-edges-1500", ("rainbow-matching",), lambda: disjoint_edges(1500),
          check=lambda r: r["size"] == 1500, timeout=20),
    # ab by orderly generation: the families up to isomorphism on at most 8
    # vertices
    Guard("ab-3", sweep("ab", "n=3", "max_vertices=8"), check=verified(229)),
    Guard("ab-4", sweep("ab", "n=4", "max_vertices=8"), check=verified(62)),
    # the 9,408 reduced squares of order 6
    Guard("brs-6", sweep("brs", "n=6"), check=verified(9408)),
    # covering numbers from each construction's native member table; at
    # COVER_GROUND_CAP (16) the greedy cover of the meet settles every pair
    # before any exact cover runs
    Guard("rho-two-cover-12", sweep("rho-two-cover", "ground=12", "instances=40"),
          check=verified(40), timeout=30),
    Guard("rho-two-cover-16", sweep("rho-two-cover", "ground=16", "instances=60"),
          check=verified(60), timeout=20),
    # scrambled Rota at its largest n: each draw and each check asks only
    # whether a cover by at most n (n + 1) sets exists
    Guard("rota-4", sweep("rota", "n=4", seed="7"), check=verified(50)),
]


def run_guard(guard: Guard, program: str = CHILD) -> Optional[str]:
    """Run one row in its child: None when it passes, else what went wrong,
    starting with the row's name."""
    stdin = guard.stdin()
    start = time.perf_counter()
    try:
        # a child does not inherit -O: pass it on, so that under python -O
        # the rows run the CLI's self-checks with asserts off
        child = subprocess.run([sys.executable, "-S", *["-O"] * sys.flags.optimize, "-c",
                                program, *guard.argv], input=stdin, capture_output=True,
                               text=True, cwd=ROOT, env=ENV, timeout=guard.timeout)
    except subprocess.TimeoutExpired:
        return f"{guard.name}: no exit within its {guard.timeout:g} s"
    seconds = time.perf_counter() - start
    last = (child.stdout.splitlines() or [""])[-1]
    stderr = child.stderr.splitlines()
    rss_kb = int(stderr.pop()) if stderr and stderr[-1].isdigit() else None
    peak = "not reported" if rss_kb is None else f"{rss_kb // 1024} MB"
    faults = []
    if child.returncode != guard.code:
        faults.append(f"exit {child.returncode}, expected {guard.code}")
    if guard.check is not None:
        try:
            held = guard.check(json.loads(last))
        except (ValueError, LookupError, TypeError):
            held = False
        if not held:
            faults.append("the last output line fails the check")
    if guard.rss_mb is not None and (rss_kb is None or rss_kb >= guard.rss_mb * 1024):
        faults.append(f"peak RSS {peak}, bound {guard.rss_mb} MB")
    if not faults:
        return None
    return (f"{guard.name}: {'; '.join(faults)}\n  exit {child.returncode} after "
            f"{seconds:.1f} of {guard.timeout:g} s, peak RSS {peak}\n"
            f"  last output line: {last[:500]}\n  stderr: {' | '.join(stderr)[-500:]}")


@pytest.mark.parametrize("guard", GUARDS, ids=lambda guard: guard.name)
def test_scale_guard(guard):
    fault = run_guard(guard)
    if fault:
        pytest.fail(fault, pytrace=False)


def test_every_module_imports_on_the_standard_library_alone():
    """python -S leaves site-packages off the path, so an import of anything
    outside the standard library (networkx, hypothesis) fails here."""
    subprocess.run([sys.executable, "-S", "-c", "import importlib, pkgutil, rainbowsets; "
                    "[importlib.import_module('rainbowsets.' + m.name) "
                    "for m in pkgutil.iter_modules(rainbowsets.__path__)]"],
                   cwd=ROOT, env=ENV, check=True, timeout=60)


# one good row broken four ways: the runner must report each, by name
BRS_3 = next(guard for guard in GUARDS if guard.name == "brs-3")


@pytest.mark.parametrize("row, fault", [
    (BRS_3._replace(name="wrong-exit", code=1), "exit 0, expected 1"),
    (BRS_3._replace(name="failed-check", check=lambda r: r["instances_tested"] < 0),
     "fails the check"),
    (BRS_3._replace(name="past-timeout", timeout=0.01), "no exit within its 0.01 s"),
    (BRS_3._replace(name="over-rss", rss_mb=1), "bound 1 MB"),
], ids=["exit", "check", "timeout", "rss"])
def test_runner_reports_a_broken_row(row, fault):
    message = run_guard(row)
    assert message is not None and message.startswith(f"{row.name}: ") and fault in message


def test_child_runs_with_the_parents_optimize_flag():
    program = CHILD.replace("cli.main(sys.argv[1:])", "sys.flags.optimize")
    assert program != CHILD
    assert run_guard(BRS_3._replace(code=sys.flags.optimize, check=None), program) is None


def test_runner_reports_a_crashed_child():
    """A CLI that raises after it printed its answer still fails a row whose
    exit code and last line it matched: the child exits with CRASHED."""
    row = next(guard for guard in GUARDS if guard.name == "rado-graphic-150")
    crashing = CHILD.replace("cli.main(sys.argv[1:])", "cli.main(sys.argv[1:]) + [][0]")
    assert crashing != CHILD
    message = run_guard(row, crashing)
    assert message is not None and message.startswith(f"{row.name}: ")
    assert f"exit {CRASHED}, expected 1" in message and "IndexError" in message
