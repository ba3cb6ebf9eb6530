"""Sweep specifications and reports shared by the search harnesses."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .core import InstanceError

VERIFIED_RANGE = "verified-range"
COUNTEREXAMPLE = "counterexample"
CAP_EXHAUSTED = "cap-exhausted"


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: a conjecture tag, size parameters and caps."""

    conjecture: str
    params: tuple[tuple[str, int], ...] = ()
    seed: int = 0
    instance_cap: int = 10**6
    time_cap: Optional[float] = None

    def __post_init__(self):
        if self.instance_cap <= 0:
            raise InstanceError("instance cap must be positive")
        if self.time_cap is not None and self.time_cap <= 0:
            raise InstanceError("time cap must be positive")
        object.__setattr__(
            self, "params", tuple((str(k), int(v)) for k, v in self.params)
        )


@dataclass
class SweepReport:
    """Outcome of a sweep: how far it got and what it found."""

    conjecture: str
    verdict: str
    instances_tested: int
    seed: int
    counterexample: Optional[dict] = None
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "conjecture": self.conjecture,
            "verdict": self.verdict,
            "instances_tested": self.instances_tested,
            "seed": self.seed,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.detail:
            out["detail"] = self.detail
        return out


class SweepRun:
    """Bookkeeping for one sweep: instance counting, caps, record emission."""

    def __init__(self, spec: SweepSpec,
                 on_record: Optional[Callable[[dict], None]] = None):
        self.spec = spec
        self.tested = 0
        self._started = time.monotonic()
        self._on_record = on_record

    def over_cap(self) -> bool:
        return self.tested >= self.spec.instance_cap or (
            self.spec.time_cap is not None
            and time.monotonic() - self._started > self.spec.time_cap)

    def record(self, verdict: str, witness: Optional[dict] = None):
        index = self.tested
        self.tested += 1
        if self._on_record is not None:
            rec = {"instance": index, "verdict": verdict}
            if witness is not None:
                rec["witness"] = witness
            self._on_record(rec)

    def report(self, verdict: str, counterexample: Optional[dict] = None,
               **detail) -> SweepReport:
        return SweepReport(self.spec.conjecture, verdict, self.tested,
                           self.spec.seed, counterexample, dict(detail))


def sweep(spec: SweepSpec, candidates: Iterable,
          check: Callable[..., Optional[tuple[dict, dict]]],
          detail: dict, on_record: Optional[Callable[[dict], None]] = None, *,
          hit_verdict: str = COUNTEREXAMPLE, record_witness: bool = False,
          exhausted_note: Optional[str] = None) -> SweepReport:
    """Check each candidate until one is a hit or a cap fires.

    `candidates` does its own skipping, so each one it yields is counted.
    `check` returns None for a candidate that satisfies the statement, and
    for a hit the serialized instance and the counterexample report's
    detail. A hit is recorded as `hit_verdict` (carrying the instance if
    `record_witness`) and ends the sweep. Verified and cap-exhausted reports
    carry `detail`. With `exhausted_note`, running out of candidates ends
    cap-exhausted with that note instead of verified.
    """
    run = SweepRun(spec, on_record=on_record)
    for candidate in candidates:
        if run.over_cap():
            return run.report(CAP_EXHAUSTED, **detail)
        hit = check(candidate)
        if hit is None:
            run.record("ok")
            continue
        instance, hit_detail = hit
        run.record(hit_verdict, instance if record_witness else None)
        return run.report(COUNTEREXAMPLE, instance, **hit_detail)
    if exhausted_note is not None:
        return run.report(CAP_EXHAUSTED, **detail, note=exhausted_note)
    return run.report(VERIFIED_RANGE, **detail)
