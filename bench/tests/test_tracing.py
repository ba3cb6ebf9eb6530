"""Self-time arithmetic on synthetic span trees, and the wrappers' install
and removal on the real package."""

import json
from array import array
from pathlib import Path

import pytest

import run
from rsbench import tracing


def spans(*rows):
    """rows of (start, end, parent) -> the three arrays self_times takes."""
    starts = array("d", [r[0] for r in rows])
    ends = array("d", [r[1] for r in rows])
    parents = array("i", [r[2] for r in rows])
    return starts, ends, parents


def test_self_time_nested_tree():
    # root [0, 10]; children [1, 3] and [4, 8]; grandchild [5, 6]
    got = tracing.self_times(*spans((0, 10, -1), (1, 3, 0), (4, 8, 0), (5, 6, 2)))
    assert got == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    # children [1, 5] and [3, 7] cover [1, 7]; [9, 12] is clipped to [9, 10]
    got = tracing.self_times(*spans((0, 10, -1), (1, 5, 0), (3, 7, 0), (9, 12, 0)))
    assert got[0] == pytest.approx(10 - 6 - 1)


def test_self_time_order_independent():
    rows = [(0, 10, -1), (4, 8, 0), (1, 3, 0), (5, 6, 1)]
    got = tracing.self_times(*spans(*rows))
    assert got == pytest.approx([4.0, 3.0, 2.0, 1.0])


def test_totals_and_per_layer_metrics():
    tracer = tracing.Tracer()
    tracer.names = ["matching.max_rainbow_matching", "core.find_bipartition"]
    for nid, (s, e, p) in zip([0, 1, 0], [(0, 4, -1), (1, 2, 0), (5, 6, -1)]):
        tracer.name_ids.append(nid)
        tracer.starts.append(s)
        tracer.ends.append(e)
        tracer.parents.append(p)
        tracer.op_ids.append(0)
    totals = tracer.totals()
    assert totals["matching.max_rainbow_matching"] == {"calls": 2, "self_s": 4.0}
    metrics = tracing.per_layer_metrics(totals, passes=2, overhead_frac=0.5)
    assert list(metrics) == list(tracing.PER_LAYER)
    assert metrics["matching.max_rainbow_matching.calls"] == {"value": 1.0, "unit": "count"}
    assert metrics["matching.max_rainbow_matching.self_s"]["value"] == pytest.approx(2.0)
    assert metrics["core.find_bipartition.calls"]["value"] == 0.5
    assert metrics["networks.nu_p.calls"]["value"] == 0
    assert metrics["trace.overhead_frac"]["value"] == 0.5


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == list(tracing.PER_LAYER)
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.UNITS[m["name"].rpartition(".")[2]]


def test_install_wraps_every_binding_and_uninstall_restores():
    rs = run.import_package()
    original = rs.core.find_bipartition
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # matching binds find_bipartition by name; both bindings are wrapped
        assert rs.core.find_bipartition is not original
        assert rs.matching.find_bipartition is rs.core.find_bipartition
        assert rs.matching._max_matching_general is rs.core._max_matching_general
        assert rs.transversals._intersection_augment is rs.matroids._intersection_augment
        g = rs.Graph(4, ((0, 1), (1, 2), (2, 3)))
        fam = rs.EdgeFamily(g, (frozenset({0}), frozenset({1, 2})))
        tracer.op_id = 7
        matching, _ = rs.max_rainbow_matching(fam)
        oracle = rs.uniform_matroid(3, 2)
        oracle.is_independent({0})
        oracle.is_independent([0])
    finally:
        tracer.uninstall()
    assert rs.core.find_bipartition is original
    assert rs.matching.find_bipartition is original
    assert len(matching) == 2
    totals = tracer.totals()
    assert totals["matching.max_rainbow_matching"]["calls"] == 1
    assert totals["core.find_bipartition"]["calls"] == 1
    assert totals["matroids.IndependenceOracle.is_independent"]["hits"] == 1
    assert set(tracer.op_ids) == {7}
    # the root span is the solver call, and its children point at it
    root = tracer.names.index("matching.max_rainbow_matching")
    first = list(tracer.name_ids).index(root)
    assert tracer.parents[first] == -1
    assert all(p == first for nid, p in zip(tracer.name_ids, tracer.parents)
               if tracer.names[nid] == "core.find_bipartition")


def test_write_round_trips(tmp_path):
    tracer = tracing.Tracer()
    tracer.names = ["a.b"]
    for arr, value in [(tracer.name_ids, 0), (tracer.parents, -1), (tracer.op_ids, 3),
                       (tracer.starts, 1.5), (tracer.ends, 2.5)]:
        arr.append(value)
    tracer.write(str(tmp_path / "t"))
    header = json.loads((tmp_path / "t.spans.json").read_text())
    assert header["names"] == ["a.b"] and header["count"] == 1
    raw = (tmp_path / "t.spans.bin").read_bytes()
    loaded = []
    offset = 0
    for _, code in header["fields"]:
        arr = array(code)
        arr.frombytes(raw[offset:offset + arr.itemsize * header["count"]])
        offset += arr.itemsize * header["count"]
        loaded.append(arr[0])
    assert loaded == [0, -1, 3, 1.5, 2.5]


def test_targets_skip_names_the_package_no_longer_has(monkeypatch):
    rs = run.import_package()
    monkeypatch.delattr(rs.matching, "_bipartite_canonical")
    monkeypatch.delattr(rs.sweeps, "SweepRun")
    names = {name for name, *_ in tracing.trace_targets()}
    assert "matching._bipartite_canonical" not in names
    assert not any(name.startswith("sweeps.SweepRun.") for name in names)
    assert "matching.max_rainbow_matching" in names
