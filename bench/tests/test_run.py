"""The runner end to end: the output contract, failures limited to the
listed seed failures on a seed not used elsewhere, and a clean refusal
when the package is missing."""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import run
from rsbench import tracing
from rsbench.generators import GENERATORS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
KNOWN = json.loads((run.BENCH / "notes.json").read_text())["seed_failures"]


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_second_seed_fails_only_listed_ops(workload, tmp_path):
    wl = run.setup(workload, 2, tmp_path)
    measurement = run.Measurement()
    measurement.run(wl, 0)
    failed = {case_id for case_id, _ in measurement.failures}
    assert failed <= set(KNOWN.get(workload, []))


def run_main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_contract(trace, section):
    result = run_main("--workload", "cli-corpus", "--seed", "2", "--seconds", "0",
                      "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and isinstance(result["failed"], int)
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_tail_percentile_leaves_ten_samples_at_five_passes():
    for ops in (9, 10, 19, 197):
        p = run.tail_percentile(ops)
        assert ops * run.NOMINAL_PASSES * (1 - p / 100) >= 10
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75) == 4.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0) == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bnb-hard", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_per_layer_names_are_valid():
    for name in tracing.PER_LAYER:
        assert name[0].isalnum() and len(name) <= 64
