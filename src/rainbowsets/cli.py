"""Command-line entry point: JSON instances in, JSON verdicts out.

Exit codes: 0 success/verified, 1 legitimate negative (violator or missing
witness), 2 input error, 3 counterexample found, 4 cap exhausted,
5 internal theorem-violation (always a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple, Optional

from . import __version__
from .core import (
    ColoredFamily,
    GroundSet,
    InstanceError,
    LatinSquare,
    Network,
    ResourceCapError,
    TheoremViolation,
    WeightMap,
    _as_edges,
    _as_graph,
    _edge_id_sets,
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
    if not isinstance(obj, dict):
        raise InstanceError("instance.network: expected an object")
    for field in ("n", "edges", "sources", "targets"):
        if field not in obj:
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
    _edge_id_sets(paths, net.num_edges, "instance.paths")
    return paths


def _as_family(instance: dict) -> ColoredFamily:
    ground = GroundSet(_int(_require(instance, "ground_size"), "instance.ground_size"))
    return ColoredFamily(ground, _sets(instance, "colors"))


def _as_latin(rows: list) -> LatinSquare:
    return LatinSquare(len(rows), tuple(tuple(r) for r in _int_arrays(rows, "instance.latin")))


def _as_edge_family(instance: dict) -> EdgeFamily:
    return EdgeFamily(_require(instance, "graph"), _sets(instance, "colors"))


def _choice_payload(f) -> dict:
    return {"assignment": {str(c): x for c, x in f.assignments}}


def _choice_or_violator(outcome) -> tuple[dict, int]:
    if isinstance(outcome, Violator):
        return {"status": "violator", "colors": sorted(outcome.colors)}, EXIT_NEGATIVE
    return {"status": "rainbow", **_choice_payload(outcome)}, EXIT_OK


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the instance from parse_instance and the
# parsed arguments, and returns (payload, exit_code)


def _run_hall(instance: dict, args) -> tuple[dict, int]:
    return _choice_or_violator(hall_rainbow(_as_family(instance)))


def _run_rado(instance: dict, args) -> tuple[dict, int]:
    fam = _as_family(instance)
    matroid = _from_descriptor(_require(instance, "matroid"), fam.ground.size,
                               "instance.matroid")
    return _choice_or_violator(rado_rainbow(fam, matroid))


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
    net = _require(instance, "network")
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
    net = _require(instance, "network")
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
    net = _require(instance, "network")
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
    g = _require(instance, "graph")
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
    square = _require(instance, "latin")
    t = latin_transversal(square)
    return {
        "status": "transversal",
        "size": len(t),
        "cells": sorted([r, c] for r, c in t.cells),
        "full": len(t) == square.n,
    }, EXIT_OK


class Command(NamedTuple):
    """An instance subcommand: its handler, and its own options as a map
    from flag to add_argument's keyword arguments."""

    run: Callable[[dict, argparse.Namespace], tuple[dict, int]]
    options: dict


HANDLERS = {
    "hall": Command(_run_hall, {}),
    "rado": Command(_run_rado, {}),
    "rainbow-matching": Command(_run_rainbow_matching,
                                {"--target": dict(type=int, default=None)}),
    "arrow-check": Command(_run_arrow_check, {
        "--a": dict(type=int, required=True),
        "--b": dict(type=int, required=True),
        "--c": dict(type=int, required=True),
        "--graph-class": dict(choices=["bipartite", "general"], default="bipartite"),
    }),
    "rainbow-path": Command(_run_rainbow_path, {
        "--weights": dict(action="store_true", help="use the instance's edge weights"),
        "--bound": dict(type=int, default=None),
    }),
    "rainbow-paths-disjoint": Command(_run_rainbow_paths_disjoint,
                                      {"--p": dict(type=int, required=True)}),
    "scrambled-path": Command(_run_scrambled_path, {"--n": dict(type=int, required=True)}),
    "odd-cycle": Command(_run_odd_cycle, {"--cooperative": dict(action="store_true")}),
    "span-rainbow": Command(_run_span_rainbow, {}),
    "latin": Command(_run_latin, {}),
}

_SWEEP_OPTIONS = {
    "--seed": dict(type=int, default=0, help="64-bit RNG seed"),
    "--cap": dict(type=int, default=10**6, help="instance cap"),
    "--conjecture": dict(required=True, choices=SWEEPS),
    "--params": dict(nargs="*", default=[], metavar="KEY=VALUE",
                     help="integer sweep parameters"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowsets",
        description="Rainbow-set algorithms over set families, graphs, "
                    "matroids and networks, plus conjecture sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [(name, c.options) for name, c in HANDLERS.items()]
    for name, options in commands + [("sweep", _SWEEP_OPTIONS)]:
        p = sub.add_parser(name)
        if name != "sweep":
            p.add_argument("--input", default=None,
                           help="instance JSON file (default: stdin)")
        p.add_argument("--pretty", action="store_true",
                       help="indented human output (default: compact JSON)")
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
    return parser


def _header(args) -> dict:
    """Only sweep takes a seed; every other header reads seed 0."""
    return {"tool": "rainbowsets", "version": __version__,
            "seed": getattr(args, "seed", 0)}


def _emit(payload: dict, pretty: bool):
    if pretty:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _read_instance(args) -> dict:
    if args.input is None:
        return parse_instance(sys.stdin.buffer.read())
    try:
        with open(args.input, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InstanceError(f"--input {args.input}: cannot read "
                            f"({exc.strerror or exc})") from exc
    return parse_instance(raw)


def parse_instance(raw: bytes) -> dict:
    """Decode and shape-check an instance. `graph`, `network` and `latin`
    come back as the Graph, Network and LatinSquare they describe; the
    other invariant checks run when the handlers build their objects."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InstanceError(f"instance: not UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise InstanceError(f"instance: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise InstanceError("instance: nested too deeply to decode") from exc
    if not isinstance(data, dict):
        raise InstanceError("instance: top level must be a JSON object")
    for field in ("colors", "paths", "scrambling", "families", "weights", "latin"):
        if field in data and not isinstance(data[field], list):
            raise InstanceError(f"instance.{field}: expected an array")
    if "graph" in data:
        data["graph"] = _as_graph(data["graph"], "instance.graph")
    if "network" in data:
        data["network"] = _as_network(data["network"])
    if "latin" in data:
        data["latin"] = _as_latin(data["latin"])
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
    report = run_sweep(spec, on_record=lambda rec: _emit(rec, False))
    _emit({"header": _header(args), **report.as_dict()}, args.pretty)
    return {COUNTEREXAMPLE: EXIT_COUNTEREXAMPLE, CAP_EXHAUSTED: EXIT_CAP}.get(
        report.verdict, EXIT_OK)


# The status and exit code of each error main reports; HypothesisViolation
# is an InstanceError. A search deeper than the recursion limit is a cap
# that fired: the branch and bound keeps an explicit stack, so only
# latin_transversal, which recurses once per row, still gets here.
_FAILURES = {
    InstanceError: ("error", EXIT_INPUT),
    ResourceCapError: ("cap-exhausted", EXIT_CAP),
    RecursionError: ("cap-exhausted", EXIT_CAP),
    TheoremViolation: ("theorem-violation", EXIT_THEOREM),
}

_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return _run_sweep_command(args)
        payload, code = HANDLERS[args.command].run(_read_instance(args), args)
    except tuple(_FAILURES) as exc:
        status, code = next(v for cls, v in _FAILURES.items() if isinstance(exc, cls))
        error = str(exc)
        if isinstance(exc, RecursionError):
            error = f"search deeper than the recursion limit {sys.getrecursionlimit()}: {error}"
        payload = {"status": status, "error": error}
    _emit({"header": _header(args), **payload}, args.pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())
