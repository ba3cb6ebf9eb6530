"""Command-line entry point: JSON instances in, JSON verdicts out.

Exit codes: 0 success/verified, 1 legitimate negative (violator or missing
witness), 2 input error, 3 counterexample found, 4 cap exhausted,
5 internal theorem-violation (always a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__
from .core import (
    ColoredFamily,
    GroundSet,
    HypothesisViolation,
    InstanceError,
    LatinSquare,
    Network,
    ResourceCapError,
    TheoremViolation,
    WeightMap,
    _as_edges,
    _as_graph,
    _int,
    _int_arrays,
    _ints,
)
from .harness import SWEEPS, latin_transversal, run_sweep
from .matching import ArrowStatement, EdgeFamily, check_arrow_instance, max_rainbow_matching
from .matroids import _from_descriptor
from .networks import (
    rainbow_disjoint_paths,
    rainbow_path_weighted,
    scrambled_rainbow_path,
)
from .spancycles import cooperative_odd_cycle_check, rainbow_odd_cycle, rainbow_spanning_set
from .sweeps import CAP_EXHAUSTED, COUNTEREXAMPLE, SweepSpec
from .transversals import Violator, hall_rainbow, rado_rainbow

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_CAP = 4
EXIT_THEOREM = 5


def _require(instance: dict, field: str):
    if field not in instance:
        raise InstanceError(f"instance.{field}: required field is missing")
    return instance[field]


def _sets(instance: dict, field: str) -> tuple[frozenset, ...]:
    """A required array of integer arrays, each item as a frozenset."""
    items = _int_arrays(_require(instance, field), f"instance.{field}")
    return tuple(frozenset(item) for item in items)


def _as_network(obj) -> Network:
    for field in ("n", "edges", "sources", "targets"):
        if not isinstance(obj, dict) or field not in obj:
            raise InstanceError(f"instance.network.{field}: required field is missing")
    return Network(
        _int(obj["n"], "instance.network.n"),
        _as_edges(obj["edges"], "instance.network.edges"),
        _ints(obj["sources"], "instance.network.sources"),
        _ints(obj["targets"], "instance.network.targets"),
    )


def _as_paths(instance: dict, net: Network) -> list[tuple[int, ...]]:
    """instance.paths as edge-id tuples, each id an edge of the network."""
    paths = [tuple(p) for p in _int_arrays(_require(instance, "paths"), "instance.paths")]
    for i, path in enumerate(paths):
        for e in path:
            if not 0 <= e < net.num_edges:
                raise InstanceError(f"instance.paths[{i}]: edge id {e} is not one "
                                    f"of the {net.num_edges} network edges")
    return paths


def _as_family(instance: dict) -> ColoredFamily:
    ground = GroundSet(_int(_require(instance, "ground_size"), "instance.ground_size"))
    return ColoredFamily(ground, _sets(instance, "colors"))


def _as_latin(rows: list) -> LatinSquare:
    return LatinSquare(len(rows), tuple(tuple(r) for r in _int_arrays(rows, "instance.latin")))


def _as_edge_family(instance: dict) -> EdgeFamily:
    g = _as_graph(_require(instance, "graph"), "instance.graph")
    return EdgeFamily(g, _sets(instance, "colors"))


def _choice_payload(f) -> dict:
    return {"assignment": {str(c): x for c, x in f.assignments}}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, exit_code)


def _run_hall(instance: dict, args) -> tuple[dict, int]:
    outcome = hall_rainbow(_as_family(instance))
    if isinstance(outcome, Violator):
        return {"status": "violator", "colors": sorted(outcome.colors)}, EXIT_NEGATIVE
    return {"status": "rainbow", **_choice_payload(outcome)}, EXIT_OK


def _run_rado(instance: dict, args) -> tuple[dict, int]:
    fam = _as_family(instance)
    matroid = _from_descriptor(_require(instance, "matroid"), fam.ground.size,
                               "instance.matroid")
    outcome = rado_rainbow(fam, matroid)
    if isinstance(outcome, Violator):
        return {"status": "violator", "colors": sorted(outcome.colors)}, EXIT_NEGATIVE
    return {"status": "rainbow", **_choice_payload(outcome)}, EXIT_OK


def _run_rainbow_matching(instance: dict, args) -> tuple[dict, int]:
    fam = _as_edge_family(instance)
    matching, function = max_rainbow_matching(fam, target=args.target)
    payload = {
        "status": "rainbow-matching",
        "size": len(matching),
        "edges": sorted(matching.edges),
        **_choice_payload(function),
    }
    if args.target is not None and len(matching) < args.target:
        return payload, EXIT_NEGATIVE
    return payload, EXIT_OK


def _run_arrow_check(instance: dict, args) -> tuple[dict, int]:
    stmt = ArrowStatement(args.a, args.b, args.c, args.graph_class)
    holds = check_arrow_instance(stmt, _as_edge_family(instance))
    payload = {"status": "arrow-check", "holds": holds,
               "statement": {"a": args.a, "b": args.b, "c": args.c,
                             "class": args.graph_class}}
    return payload, EXIT_OK if holds else EXIT_NEGATIVE


def _run_rainbow_path(instance: dict, args) -> tuple[dict, int]:
    net = _as_network(_require(instance, "network"))
    paths = _as_paths(instance, net)
    if args.weights:
        weights = WeightMap(tuple(_int(w, f"instance.weights[{i}]")
                                  for i, w in enumerate(_require(instance, "weights"))))
        if len(weights.weights) != net.num_edges:
            raise InstanceError(f"instance.weights: {len(weights.weights)} weights "
                                f"for {net.num_edges} network edges")
    else:
        weights = WeightMap.zeros(net.num_edges)
    bound = args.bound
    if bound is None:
        bound = max(weights.total(p) for p in paths) if paths else 0
    result = rainbow_path_weighted(net, weights, paths, bound)
    return {
        "status": "rainbow-path",
        "edges": list(result.edges),
        "colors": list(result.colors),
        "weight": result.weight,
        "bound": bound,
    }, EXIT_OK


def _run_rainbow_paths_disjoint(instance: dict, args) -> tuple[dict, int]:
    net = _as_network(_require(instance, "network"))
    families = _sets(instance, "colors")
    result = rainbow_disjoint_paths(net, families, args.p)
    return {
        "status": "rainbow-paths",
        "edges": list(result.edges),
        **_choice_payload(result.function),
        "disjoint_paths": result.value,
        "witness_paths": [list(p) for p in result.witness_paths],
    }, EXIT_OK


def _run_scrambled_path(instance: dict, args) -> tuple[dict, int]:
    net = _as_network(_require(instance, "network"))
    paths = _as_paths(instance, net)
    scrambling = _int_arrays(_require(instance, "scrambling"), "instance.scrambling")
    result = scrambled_rainbow_path(net, paths, scrambling, args.n)
    return {
        "status": "scrambled-path",
        "edges": list(result.path.edges),
        "colors": list(result.path.colors),
        "enforcer": [sorted(s) for s in result.enforcer.sets],
        "pivot_vertex": result.pivot_vertex,
    }, EXIT_OK


def _run_odd_cycle(instance: dict, args) -> tuple[dict, int]:
    g = _as_graph(_require(instance, "graph"), "instance.graph")
    families = _sets(instance, "families")
    fn = cooperative_odd_cycle_check if args.cooperative else rainbow_odd_cycle
    result = fn(g, families)
    return {
        "status": "odd-cycle",
        "vertices": list(result.vertices),
        "edges": list(result.edges),
        "colors": list(result.colors),
    }, EXIT_OK


def _run_span_rainbow(instance: dict, args) -> tuple[dict, int]:
    fam_ground = _int(_require(instance, "ground_size"), "instance.ground_size")
    matroid = _from_descriptor(_require(instance, "matroid"), fam_ground, "instance.matroid")
    sets = _sets(instance, "colors")
    target = _ints(_require(instance, "target"), "instance.target")
    result = rainbow_spanning_set(matroid, target, sets)
    payload = {
        "status": "span-rainbow",
        **_choice_payload(result.function),
    }
    if result.deficient_colors is not None:
        payload["deficient_colors"] = sorted(result.deficient_colors)
        payload["dropped_color"] = result.dropped_color
    return payload, EXIT_OK


def _run_latin(instance: dict, args) -> tuple[dict, int]:
    square = _as_latin(_require(instance, "latin"))
    t = latin_transversal(square)
    return {
        "status": "transversal",
        "size": len(t),
        "cells": sorted([r, c] for r, c in t.cells),
        "full": len(t) == square.n,
    }, EXIT_OK


HANDLERS = {
    "hall": _run_hall,
    "rado": _run_rado,
    "rainbow-matching": _run_rainbow_matching,
    "arrow-check": _run_arrow_check,
    "rainbow-path": _run_rainbow_path,
    "rainbow-paths-disjoint": _run_rainbow_paths_disjoint,
    "scrambled-path": _run_scrambled_path,
    "odd-cycle": _run_odd_cycle,
    "span-rainbow": _run_span_rainbow,
    "latin": _run_latin,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowsets",
        description="Rainbow-set algorithms over set families, graphs, "
                    "matroids and networks, plus conjecture sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--input", default=None,
                       help="instance JSON file (default: stdin)")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="pretty", action="store_false",
                         default=False, help="compact machine output (default)")
        fmt.add_argument("--pretty", dest="pretty", action="store_true",
                         help="indented human output")

    for name in HANDLERS:
        p = sub.add_parser(name)
        common(p)
        if name == "rainbow-matching":
            p.add_argument("--target", type=int, default=None)
        if name == "arrow-check":
            p.add_argument("--a", type=int, required=True)
            p.add_argument("--b", type=int, required=True)
            p.add_argument("--c", type=int, required=True)
            p.add_argument("--graph-class", choices=["bipartite", "general"],
                           default="bipartite")
        if name == "rainbow-path":
            p.add_argument("--weights", action="store_true",
                           help="use the instance's edge weights")
            p.add_argument("--bound", type=int, default=None)
        if name == "rainbow-paths-disjoint":
            p.add_argument("--p", type=int, required=True)
        if name == "scrambled-path":
            p.add_argument("--n", type=int, required=True)
        if name == "odd-cycle":
            p.add_argument("--cooperative", action="store_true")

    p = sub.add_parser("sweep")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    p.add_argument("--cap", type=int, default=10**6, help="instance cap")
    p.add_argument("--conjecture", required=True, choices=SWEEPS)
    p.add_argument("--params", nargs="*", default=[],
                   metavar="KEY=VALUE", help="integer sweep parameters")
    return parser


def _header(args) -> dict:
    """Only sweep takes a seed; every other header reads seed 0."""
    return {"tool": "rainbowsets", "version": __version__,
            "seed": getattr(args, "seed", 0)}


def _emit(payload: dict, pretty: bool, out=None):
    out = out or sys.stdout
    if pretty:
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _read_instance(args) -> dict:
    if args.input is None:
        raw = sys.stdin.buffer.read()
    else:
        with open(args.input, "rb") as fh:
            raw = fh.read()
    return parse_instance(raw)


def parse_instance(raw: bytes) -> dict:
    """Decode and shape-check an instance; detailed invariant checks run
    when the typed objects are built."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InstanceError(f"instance: not UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise InstanceError(f"instance: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise InstanceError("instance: top level must be a JSON object")
    for field in ("colors", "paths", "scrambling", "families", "weights", "latin"):
        if field in data and not isinstance(data[field], list):
            raise InstanceError(f"instance.{field}: expected an array")
    # eager typed validation for the structured fields
    if "graph" in data:
        _as_graph(data["graph"], "instance.graph")
    if "network" in data:
        _as_network(data["network"])
    if "latin" in data:
        _as_latin(data["latin"])
    return data


def _run_sweep_command(args) -> int:
    params = []
    for kv in args.params:
        if "=" not in kv:
            raise InstanceError(f"--params entries must be KEY=VALUE, got {kv!r}")
        k, v = kv.split("=", 1)
        try:
            params.append((k, int(v)))
        except ValueError as exc:
            raise InstanceError(f"--params {k}: integer required, got {v!r}") from exc
    spec = SweepSpec(args.conjecture, tuple(params), seed=args.seed,
                     instance_cap=args.cap)
    _emit({"header": _header(args), "sweep": args.conjecture}, False)

    def on_record(rec: dict):
        _emit(rec, False)

    report = run_sweep(spec, on_record=on_record)
    payload = {"header": _header(args), **report.as_dict()}
    _emit(payload, args.pretty)
    if report.verdict == COUNTEREXAMPLE:
        return EXIT_COUNTEREXAMPLE
    if report.verdict == CAP_EXHAUSTED:
        return EXIT_CAP
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return _run_sweep_command(args)
        payload, code = HANDLERS[args.command](_read_instance(args), args)
        payload = {"header": _header(args), **payload}
        _emit(payload, args.pretty)
        return code
    except (InstanceError, HypothesisViolation) as exc:
        _emit({"header": _header(args),
               "status": "error", "error": str(exc)}, getattr(args, "pretty", False))
        return EXIT_INPUT
    except ResourceCapError as exc:
        _emit({"header": _header(args),
               "status": "cap-exhausted", "error": str(exc)},
              getattr(args, "pretty", False))
        return EXIT_CAP
    except TheoremViolation as exc:
        _emit({"header": _header(args),
               "status": "theorem-violation", "error": str(exc)},
              getattr(args, "pretty", False))
        return EXIT_THEOREM


if __name__ == "__main__":
    sys.exit(main())
