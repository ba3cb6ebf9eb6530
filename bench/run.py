"""Benchmark entry point for rainbowsets.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root; it imports rainbowsets from ./src and
nothing else. One process, one thread. Set-up (import plus building the
seeded corpus) is repeated and its median reported. Then whole passes over
the corpus run until --seconds have passed; every op of every pass is
checked by the independent checkers in rsbench/checkers.py. Timings are
taken per op and scaled to a reference machine speed by rsbench/speed.py:
wall_s sums each op's median over the passes, and the op percentiles are
taken over those medians (see notes.json).

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
untraced, then runs one pass with the span wrappers installed and prints
the per-layer metrics, per traced pass. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a
readable report.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

from rsbench import tracing  # noqa: E402
from rsbench.speed import SpeedProbe  # noqa: E402
from rsbench.generators import GENERATORS  # noqa: E402
from rsbench.workloads import Workload  # noqa: E402

SETUP_REPEATS = 9
GUARD_S = 20.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10
NOMINAL_PASSES = 5


class OpTimeout(BaseException):
    """Raised by the guard timer inside an op that runs too long."""


def _on_alarm(signum, frame):
    raise OpTimeout


def import_package():
    """Import rainbowsets and its layer modules afresh from ./src. A layer
    module a later change removes is skipped, not an error: the ops that
    need it fail and are counted."""
    for name in [m for m in sys.modules
                 if m == "rainbowsets" or m.startswith("rainbowsets.")]:
        del sys.modules[name]
    rs = importlib.import_module("rainbowsets")
    for layer in tracing.LAYERS:
        try:
            importlib.import_module("rainbowsets." + layer)
        except ModuleNotFoundError as exc:
            if exc.name != "rainbowsets." + layer:
                raise
    return rs


def setup(workload: str, seed: int, workdir: Path) -> Workload:
    rs = import_package()
    wl = Workload(rs, GENERATORS[workload](seed), str(workdir))
    wl.write_inputs()
    return wl


def run_pass(ops, probe: SpeedProbe, tracer=None, first_op: int = 0):
    """One op per case; returns the pass wall time and per-op records
    (case, scaled seconds, result, error)."""
    records = []
    spans = []
    gc.collect()
    start = time.perf_counter()
    for i, (case, call) in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_op + i
        result = error = None
        signal.setitimer(signal.ITIMER_REAL, GUARD_S)
        k0 = probe.mark()
        t0 = t1 = time.perf_counter()
        try:
            try:
                result = call()
            finally:
                t1 = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            error = f"ran past the {GUARD_S:g} s guard"
        except Exception as exc:  # an uncaught exception is a failed op
            error = f"{type(exc).__name__}: {exc}"
        spans.append((t1 - t0, k0, probe.mark()))
        records.append([case, 0.0, result, error])
    wall = time.perf_counter() - start
    for record, span in zip(records, spans):
        record[1] = probe.scaled(*span)
    return wall, records


def check_records(wl: Workload, records) -> list[tuple[str, str]]:
    failures = []
    for case, _, result, error in records:
        if error is None:
            try:
                wl.check(case, result)
            except Exception as exc:  # a checker crash is a rejected output
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failures.append((case.id, error))
    return failures


class Measurement:
    """Whole passes over the ops until the time is up."""

    def __init__(self):
        self.walls: list[float] = []
        self.per_op: list[list[float]] = []
        self.failures: list[tuple[str, str]] = []

    def run(self, wl: Workload, seconds: float, tracer=None):
        ops = wl.ops()
        self.per_op = [[] for _ in ops]
        deadline = time.perf_counter() + seconds
        with SpeedProbe() as probe:
            while not self.walls or time.perf_counter() < deadline:
                wall, records = run_pass(ops, probe, tracer,
                                         len(self.walls) * len(ops))
                self.walls.append(wall)
                for times, (_, dt, _, _) in zip(self.per_op, records):
                    times.append(dt)
                self.failures.extend(check_records(wl, records))

    @property
    def samples(self) -> list[float]:
        return [dt for times in self.per_op for dt in times]

    def op_medians(self) -> list[float]:
        """Each op's median over the passes. A burst of machine noise that
        hits a few passes moves no op's median, where it would move the
        pass wall times and the pooled samples."""
        return [statistics.median(times) for times in self.per_op]


def percentile(values: list[float], p: float) -> float:
    """Nearest rank: the smallest value with at least p% of the values at
    or below it. Unlike interpolation it never blends two ops of very
    different cost, which would make the figure swing with small noise."""
    xs = sorted(values)
    return xs[max(math.ceil(len(xs) * p / 100), 1) - 1]


def tail_percentile(ops_per_pass: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it
    in NOMINAL_PASSES passes. Fixing it per workload, rather than per run,
    keeps a run that fits one pass more from reading another percentile."""
    n = ops_per_pass * NOMINAL_PASSES
    for p in TAIL_LADDER:
        if n * (1 - p / 100) >= MIN_BEYOND_TAIL:
            return p
    return 100.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import_package()
    except ImportError as exc:
        print(f"cannot import rainbowsets from {SRC}: {exc}", file=sys.stderr)
        return 3
    origin = Path(sys.modules["rainbowsets"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"rainbowsets resolved to {origin}, not under {SRC}", file=sys.stderr)
        return 3

    known = set(json.loads((BENCH / "notes.json").read_text())
                ["seed_failures"].get(args.workload, []))
    workdir = WORK / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        setups = []
        with SpeedProbe() as probe:
            for _ in range(SETUP_REPEATS):
                k0 = probe.mark()
                t0 = time.perf_counter()
                wl = setup(args.workload, args.seed, workdir)
                setups.append(probe.scaled(time.perf_counter() - t0, k0, probe.mark()))

        plain = Measurement()
        traced = None
        if args.trace:
            plain.run(wl, args.seconds / 2)
            traced = Measurement()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced.run(wl, 0, tracer)
            finally:
                tracer.uninstall()
        else:
            plain.run(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [m for m in (plain, traced) if m is not None]
    attempted = sum(len(m.samples) for m in runs)
    failures = [f for m in runs for f in m.failures]
    wall_s = sum(plain.op_medians())
    print(f"workload {args.workload} seed {args.seed}: {len(plain.walls)} untraced "
          f"passes of {len(wl.cases)} ops; {attempted} ops attempted, "
          f"{len(failures)} failed")
    print("  untraced pass walls, unscaled (s): "
          + " ".join(f"{w:.3f}" for w in plain.walls))
    for case_id, error in dict(failures).items():
        tag = "known seed failure" if case_id in known else "FAILED"
        print(f"  {tag}: {case_id}: {error[:200]}")

    if args.trace:
        overhead = sum(traced.op_medians()) / wall_s - 1
        totals = tracer.totals()
        metrics = tracing.per_layer_metrics(totals, len(traced.walls), overhead)
        WORK.mkdir(exist_ok=True)
        tracer.write(str(WORK / f"trace-{args.workload}-{args.seed}"))
        print(f"traced passes: {len(traced.walls)}; {len(tracer.starts)} spans "
              f"written to {WORK.name}/trace-{args.workload}-{args.seed}.spans.*")
    else:
        p_tail = tail_percentile(len(wl.cases))
        medians = plain.op_medians()
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "op_p50_ms": percentile(medians, 50) * 1e3,
            "op_tail_ms": percentile(medians, p_tail) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "decided_frac": 1 - len(failures) / attempted,
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                 "peak_rss_mb": "MB", "decided_frac": "ratio"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        print(f"  op percentiles are over {len(medians)} op medians of "
              f"{len(plain.walls)} passes ({len(plain.samples)} samples); "
              f"op_tail_ms is p{p_tail:g}")
        print(f"  {'failed_frac':<14} {len(failures) / attempted:.6g} ratio")
    for name, m in metrics.items():
        print(f"  {name:<14} {m['value']:.6g} {m['unit']}")

    correct = all(case_id in known for case_id, _ in failures)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
