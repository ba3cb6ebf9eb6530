"""Scaling op times to the reference speed: the arithmetic on synthetic
probe samples, and the SIGPROF sampler's install and removal."""

import signal
import time

import pytest

from rsbench import speed


def probe_with(durations):
    p = speed.SpeedProbe()
    p.durations.extend(durations)
    return p


def test_scaled_takes_out_probe_time_and_divides_by_speed():
    # two samples inside the span, each twice the reference time
    p = probe_with([5e-4, 2e-4, 2e-4, 2e-4, 2e-4, 2e-4, 2e-4, 2e-4, 2e-4, 5e-4])
    got = p.scaled(1.0 + 4e-4, 3, 5)
    assert got == pytest.approx(1.0 * speed.REFERENCE_S / 2e-4)


def test_scaled_widens_a_short_span_to_min_samples():
    # no sample inside the span at 6; the window widens to 4..12 around it
    slow, fast = 4 * speed.REFERENCE_S, speed.REFERENCE_S
    p = probe_with([fast] * 4 + [slow] * speed.MIN_SAMPLES + [fast] * 4)
    assert p.scaled(0.02, 8, 8) == pytest.approx(0.02 / 4)


def test_scaled_uses_what_there_is_when_few_samples_exist():
    p = probe_with([2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S])
    assert p.scaled(0.5, 1, 1) == pytest.approx(0.25)


def test_probe_is_deterministic():
    assert speed.probe() == speed.probe()


def test_sampler_fills_while_entered_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    with speed.SpeedProbe() as p:
        assert len(p.durations) == 1
        deadline = time.process_time() + 0.1
        while time.process_time() < deadline:
            pass
        taken = p.mark()
    assert taken > 10
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is before
