"""Pinned outcomes of every sweep tag at small parameters and seed 3.

Each case fixes the report (verdict, instance count, seed, counterexample
and detail), the full stream of per-instance records, and the report when
the instance cap stops the sweep after three instances.
"""

import json

import pytest

from rainbowsets import cli, harness
from rainbowsets.harness import run_sweep
from rainbowsets.sweeps import SweepSpec

SEED = 3

COERCIVE_HIT = {
    "graph": {"n": 8, "edges": [[0, 1], [1, 2], [2, 3], [3, 0],
                                [4, 5], [5, 6], [6, 7], [7, 4]]},
    "colors": [[0, 2], [1, 3, 4, 6], [1, 3, 5, 7]],
}

# (tag, params, full report, record verdicts, report at instance_cap=3)
CASES = [
    ("brs", {"n": 4},
     {"verdict": "verified-range", "instances_tested": 24,
      "detail": {"n": 4, "reduction": "first-row-normalized"}},
     ["ok"] * 24,
     {"verdict": "cap-exhausted", "instances_tested": 3,
      "detail": {"n": 4, "reduction": "first-row-normalized"}}),
    ("drisko", {"n": 3, "instances": 50},
     {"verdict": "verified-range", "instances_tested": 50, "detail": {"instances": 50}},
     ["ok"] * 50,
     {"verdict": "cap-exhausted", "instances_tested": 3, "detail": {"instances": 50}}),
    ("stairs", {"n": 3, "instances": 50},
     {"verdict": "verified-range", "instances_tested": 50, "detail": {"instances": 50}},
     ["ok"] * 50,
     {"verdict": "cap-exhausted", "instances_tested": 3, "detail": {"instances": 50}}),
    ("ab", {"n": 3, "max_vertices": 6},
     {"verdict": "verified-range", "instances_tested": 5, "detail": {"max_vertices": 6}},
     ["ok"] * 5,
     {"verdict": "cap-exhausted", "instances_tested": 3, "detail": {"max_vertices": 6}}),
    ("coercive-244", {},
     {"verdict": "counterexample", "instances_tested": 9, "counterexample": COERCIVE_HIT,
      "detail": {"single_cycle_verdict": "verified-range",
                 "single_cycle_instances": 11435}},
     ["ok"] * 8 + ["counterexample"],
     {"verdict": "cap-exhausted", "instances_tested": 3,
      "detail": {"ambients": [[4, 4]], "single_cycle_verdict": "cap-exhausted",
                 "single_cycle_instances": 3}}),
    ("weighted-drisko", {"n": 3, "instances": 50},
     {"verdict": "verified-range", "instances_tested": 50,
      "detail": {"n": 3, "instances": 50}},
     ["ok"] * 50,
     {"verdict": "cap-exhausted", "instances_tested": 3,
      "detail": {"n": 3, "instances": 50}}),
    ("rho-two-cover", {"ground": 6, "instances": 30},
     {"verdict": "verified-range", "instances_tested": 30, "detail": {"ground": 6}},
     ["ok"] * 30,
     {"verdict": "cap-exhausted", "instances_tested": 3, "detail": {"ground": 6}}),
    ("scrambled-sharpness", {"n": 4, "instances": 30},
     {"verdict": "cap-exhausted", "instances_tested": 30,
      "detail": {"n": 4, "note": "no sharpness instance found in the sample"}},
     ["ok"] * 30,
     {"verdict": "cap-exhausted", "instances_tested": 3, "detail": {"n": 4}}),
    ("rota", {"n": 2, "instances": 10},
     {"verdict": "verified-range", "instances_tested": 10,
      "detail": {"n": 2, "instances": 10}},
     ["ok"] * 10,
     {"verdict": "cap-exhausted", "instances_tested": 3,
      "detail": {"n": 2, "instances": 10}}),
    ("short-cycle", {"n": 6, "r": 3, "instances": 30},
     {"verdict": "verified-range", "instances_tested": 30, "detail": {"n": 6, "r": 3}},
     ["ok"] * 30,
     {"verdict": "cap-exhausted", "instances_tested": 3, "detail": {"n": 6, "r": 3}}),
]


def sweep(tag, params, cap=10**6):
    records = []
    spec = SweepSpec(tag, tuple(params.items()), seed=SEED, instance_cap=cap)
    return run_sweep(spec, on_record=records.append), records


def expected_records(verdicts):
    return [{"instance": i, "verdict": v} for i, v in enumerate(verdicts)]


@pytest.mark.parametrize("tag, params, full, verdicts, capped", CASES,
                         ids=[case[0] for case in CASES])
def test_sweep_pinned(tag, params, full, verdicts, capped):
    report, records = sweep(tag, params)
    assert report.as_dict() == {"conjecture": tag, "seed": SEED, **full}
    assert records == expected_records(verdicts)

    report, records = sweep(tag, params, cap=3)
    assert report.as_dict() == {"conjecture": tag, "seed": SEED, **capped}
    assert records == expected_records(verdicts[:3])


def test_ab_cap_at_full_count():
    """Skipped candidates are never counted, so a cap equal to the whole
    range lets the sweep finish."""
    report, records = sweep("ab", {"n": 3, "max_vertices": 6}, cap=5)
    assert report.verdict == "verified-range"
    assert report.instances_tested == 5
    assert records == expected_records(["ok"] * 5)


def test_coercive_counterexample_replays_through_cli(tmp_path, capsys):
    """The (2, 4, 4) -> 3 counterexample has no rainbow matching of size 3."""
    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps(COERCIVE_HIT))
    code = cli.main(["rainbow-matching", "--target", "3", "--input", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_NEGATIVE == 1
    assert payload["size"] < 3


def test_rota_computes_each_covering_number_once(monkeypatch):
    """The rejection loop's covering number is the one the check relies on:
    one covering_number call per drawn matroid, none again per instance."""
    counts = {"drawn": 0, "covering": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(harness, "binary_matroid", counted("drawn", harness.binary_matroid))
    monkeypatch.setattr(harness, "covering_number",
                        counted("covering", harness.covering_number))
    report, _ = sweep("rota", {"n": 3, "instances": 20})
    assert report.verdict == "verified-range"
    assert counts == {"drawn": 25, "covering": 25}
