"""Turn generated cases into ops on the rainbowsets public API, and check
each op's outcome with the independent checkers.

An op is one call the benchmark makes: one solver call, one run_sweep, or
one cli.main invocation. Package objects (graphs, oracles) are built inside
the op so every pass repeats the same work, memo tables included. Functions
are looked up on their module at call time, so the traced run's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from typing import Callable

from . import checkers as ck
from .checkers import require
from .generators import Case, binary_descriptor


def _pairs_dict(assignment: dict) -> dict[int, int]:
    return {int(c): int(x) for c, x in assignment.items()}


class Workload:
    """The ops of one corpus, bound to an imported rainbowsets."""

    def __init__(self, rs, cases: list[Case], workdir: str):
        self.rs = rs
        self.cases = cases
        self.workdir = workdir
        self._expected: dict[str, object] = {}

    def ops(self) -> list[tuple[Case, Callable[[], object]]]:
        return [(case, getattr(self, "_op_" + case.kind.replace("-", "_"))(case))
                for case in self.cases]

    def check(self, case: Case, result) -> None:
        getattr(self, "_check_" + case.kind.replace("-", "_"))(case, result)

    def write_inputs(self) -> None:
        """Write each CLI case's instance to its --input file."""
        for case in self.cases:
            if case.kind == "cli":
                with open(self._input_path(case), "w") as fh:
                    json.dump(case.data["instance"], fh)

    def _input_path(self, case: Case) -> str:
        return os.path.join(self.workdir, case.id + ".json")

    # -- graphs and families -------------------------------------------------

    def _graph(self, g: dict):
        return self.rs.core.Graph(g["n"], tuple(tuple(e) for e in g["edges"]))

    def _op_rainbow_matching(self, case: Case):
        d = case.data
        rs = self.rs

        def call():
            fam = rs.matching.EdgeFamily(
                self._graph(d["graph"]), tuple(frozenset(c) for c in d["colors"]))
            return rs.matching.max_rainbow_matching(fam, target=d["target"])
        return call

    def _check_rainbow_matching(self, case: Case, result):
        matching, function = result
        d = case.data
        ck.check_rainbow_matching(d["graph"]["edges"], d["colors"],
                                  function.assignments, case.expect["optimum"])
        require(set(matching.edges) == {e for _, e in function.assignments},
                "matching and choice function disagree")

    def _odd_cycle_op(self, case: Case, name: str):
        d = case.data
        rs = self.rs

        def call():
            fn = getattr(rs.spancycles, name)
            return fn(self._graph(d["graph"]), [frozenset(f) for f in d["families"]])
        return call

    def _op_odd_cycle(self, case: Case):
        return self._odd_cycle_op(case, "rainbow_odd_cycle")

    def _op_coop_odd_cycle(self, case: Case):
        return self._odd_cycle_op(case, "cooperative_odd_cycle_check")

    def _check_odd_cycle(self, case: Case, result):
        d = case.data
        ck.check_odd_cycle(d["graph"]["edges"], d["families"], result.vertices,
                           result.edges, result.colors)

    _check_coop_odd_cycle = _check_odd_cycle

    # -- matroids ------------------------------------------------------------

    def _op_rado(self, case: Case):
        d = case.data
        rs = self.rs

        def call():
            matroid = rs.matroids.binary_matroid(d["columns"])
            fam = rs.core.ColoredFamily(rs.core.GroundSet(len(d["columns"])),
                                        tuple(frozenset(c) for c in d["colors"]))
            return rs.transversals.rado_rainbow(fam, matroid)
        return call

    def _check_rado(self, case: Case, result):
        d = case.data
        desc = binary_descriptor(d["columns"])
        if case.expect["violator"]:
            require(isinstance(result, self.rs.transversals.Violator),
                    "a planted deficient family got a full choice")
            ck.check_rado_violator(d["colors"], desc, result.colors)
        else:
            require(not isinstance(result, self.rs.transversals.Violator),
                    "a family with a planted rainbow basis got a violator")
            ck.check_rado_choice(d["colors"], desc, dict(result.assignments))

    def _op_two_cover(self, case: Case):
        d = case.data
        rs = self.rs

        def call():
            rng = random.Random(d["seed"])
            m1 = rs.harness.random_matroid(rng, d["ground"])
            m2 = rs.harness.random_matroid(rng, d["ground"])
            return m1.descriptor, m2.descriptor, rs.matroids.check_two_cover(m1, m2)
        return call

    def _check_two_cover(self, case: Case, result):
        d1, d2, report = result
        require(ck.descriptor_ground(d1) == ck.descriptor_ground(d2)
                == case.data["ground"], "matroid ground sizes differ")
        key = json.dumps([d1, d2], sort_keys=True)
        if key not in self._expected:
            self._expected[key] = (ck.covering_number(d1), ck.covering_number(d2),
                                   ck.covering_number(d1, d2))
        rho_m, rho_n, rho_meet = self._expected[key]
        require((report.rho_m, report.rho_n, report.rho_meet) == (rho_m, rho_n, rho_meet),
                f"covering numbers {(report.rho_m, report.rho_n, report.rho_meet)} "
                f"differ from {(rho_m, rho_n, rho_meet)}")
        ck.check_cover([d1], report.cover_m, rho_m)
        ck.check_cover([d2], report.cover_n, rho_n)
        ck.check_cover([d1, d2], report.cover_meet, rho_meet)
        require(report.holds and rho_meet <= 2 * max(rho_m, rho_n),
                "two-cover inequality reported or found false")

    # -- sweeps --------------------------------------------------------------

    def _op_sweep(self, case: Case):
        d = case.data
        rs = self.rs

        def call():
            spec = rs.sweeps.SweepSpec(d["conjecture"], tuple(d["params"].items()),
                                       seed=d["seed"])
            return rs.harness.run_sweep(spec, on_record=lambda rec: None)
        return call

    def _check_sweep(self, case: Case, result):
        require(result.verdict == case.expect["verdict"],
                f"verdict {result.verdict}, expected {case.expect['verdict']}")
        require(result.instances_tested >= 1, "sweep tested no instance")
        if "sizes" in case.expect:
            # a counterexample to a size sequence: matchings of those sizes
            # with no rainbow matching of the target size
            inst = result.counterexample
            edges = inst["graph"]["edges"]
            sizes, target = case.expect["sizes"], case.expect["target"]
            require(len(inst["colors"]) == len(sizes), "counterexample has the wrong color count")
            for color, need in zip(inst["colors"], sizes):
                verts = [v for e in color for v in edges[e]]
                require(len(color) >= need and len(set(verts)) == len(verts),
                        "counterexample color is not a matching of the claimed size")
            require(not ck.rainbow_matching_exists(edges, inst["colors"], target),
                    f"counterexample has a rainbow matching of size {target}")

    # -- CLI -----------------------------------------------------------------

    def _op_cli(self, case: Case):
        argv = list(case.data["argv"]) + ["--input", self._input_path(case)]
        rs = self.rs

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = rs.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue()
        return call

    def _check_cli(self, case: Case, result):
        code, stdout = result
        want = case.expect["exit"]
        require(code == want, f"exit code {code}, expected {want}")
        lines = stdout.strip().splitlines()
        require(bool(lines), "no output")
        payload = json.loads(lines[-1])
        inst = case.data["instance"]
        if code == 2:
            require(payload.get("status") == "error", "input error without an error status")
            return
        command = case.data["argv"][0]
        getattr(self, "_cli_" + command.replace("-", "_"))(case, inst, payload, code)

    def _cli_hall(self, case, inst, payload, code):
        if code == 0:
            ck.check_choice(inst["colors"], _pairs_dict(payload["assignment"]))
        else:
            ck.check_hall_violator(inst["colors"], payload["colors"])

    def _cli_rado(self, case, inst, payload, code):
        if code == 0:
            ck.check_rado_choice(inst["colors"], inst["matroid"],
                                 _pairs_dict(payload["assignment"]))
        else:
            ck.check_rado_violator(inst["colors"], inst["matroid"], payload["colors"])

    def _cli_rainbow_matching(self, case, inst, payload, code):
        pairs = _pairs_dict(payload["assignment"]).items()
        ck.check_rainbow_matching(inst["graph"]["edges"], inst["colors"], pairs,
                                  case.expect["optimum"])
        require(payload["size"] == case.expect["optimum"], "size field is wrong")
        require(sorted(payload["edges"]) == sorted(e for _, e in pairs),
                "edges field disagrees with the assignment")

    def _cli_arrow_check(self, case, inst, payload, code):
        require(payload["holds"] == (code == 0), "holds field disagrees with the exit code")

    def _cli_rainbow_path(self, case, inst, payload, code):
        net = inst["network"]
        weights = inst["weights"]
        ck.check_rainbow_path(net["edges"], net["sources"][0], net["targets"][0],
                              inst["paths"], payload["edges"], payload["colors"])
        bound = max(sum(weights[e] for e in p) for p in inst["paths"])
        weight = sum(weights[e] for e in payload["edges"])
        require(payload["bound"] == bound, "bound is not the heaviest input path")
        require(payload["weight"] == weight <= bound,
                f"path weight {weight} (reported {payload['weight']}) over bound {bound}")

    def _cli_rainbow_paths_disjoint(self, case, inst, payload, code):
        net = inst["network"]
        ck.check_disjoint_paths(net["n"], net["edges"], net["sources"], net["targets"],
                                inst["colors"], payload["edges"],
                                _pairs_dict(payload["assignment"]), case.expect["p"],
                                payload["disjoint_paths"], payload["witness_paths"])

    def _cli_scrambled_path(self, case, inst, payload, code):
        net = inst["network"]
        ck.check_rainbow_path(net["edges"], net["sources"][0], net["targets"][0],
                              inst["scrambling"], payload["edges"], payload["colors"])

    def _cli_odd_cycle(self, case, inst, payload, code):
        ck.check_odd_cycle(inst["graph"]["edges"], inst["families"], payload["vertices"],
                           payload["edges"], payload["colors"])

    def _cli_span_rainbow(self, case, inst, payload, code):
        ck.check_span_rainbow(ck.binary_columns(inst["matroid"]["matrix"]), inst["colors"],
                              inst["target"], _pairs_dict(payload["assignment"]))

    def _cli_latin(self, case, inst, payload, code):
        rows = inst["latin"]
        ck.check_transversal(rows, payload["cells"], case.expect["size"])
        require(payload["full"] == (case.expect["size"] == len(rows)),
                "full flag is wrong")

