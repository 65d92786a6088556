"""Self-test of the reference-speed correction (a few seconds):

    python3 -m pytest -q ellrbench/test_speed.py
"""

import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
from speed import REF_NOMINAL_S, WINDOW_S, SpeedSampler  # noqa: E402


def sampler_with(samples):
    sampler = SpeedSampler()
    for i, (t, ref) in enumerate(samples):
        sampler._times[i], sampler._refs[i] = t, ref
    sampler._count = len(samples)
    return sampler


def test_interval_is_scaled_by_the_median_reference_around_it():
    # the reference ran at half speed around [10, 11], at nominal speed elsewhere
    slow = [(10 + i * 0.1, 2 * REF_NOMINAL_S) for i in range(11)]
    fast = [(t, REF_NOMINAL_S) for t in (5.0, 20.0)]
    sampler = sampler_with(sorted(fast + slow))
    assert sampler.corrected(10.0, 11.0) == pytest.approx(0.5)
    assert sampler.corrected(19.8, 20.2) == pytest.approx(0.4)


def test_window_reaches_past_the_interval_and_falls_back_to_the_next_sample():
    sampler = sampler_with([(1.0, 2 * REF_NOMINAL_S), (3.0, REF_NOMINAL_S)])
    assert sampler.corrected(1.0 + WINDOW_S / 2, 1.0 + WINDOW_S) == pytest.approx(WINDOW_S / 4)
    assert sampler.corrected(1.8, 1.9) == pytest.approx(0.1)  # nothing near: next sample
    assert sampler.corrected(4.0, 5.0) == pytest.approx(1.0)  # nothing after: last sample


def test_clock_stands_still_while_the_sampler_runs(monkeypatch):
    monkeypatch.setattr(speed, "SAMPLE_EVERY_S", 0.01)
    sampler = SpeedSampler()
    t0, c0 = time.perf_counter(), sampler.clock()
    sampler.start()
    try:
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
    finally:
        sampler.stop()
    assert len(sampler.refs) >= 10
    times = sampler._times[:sampler._count].tolist()
    assert times == sorted(times)
    spent = (time.perf_counter() - t0) - (sampler.clock() - c0)
    assert spent == pytest.approx(sampler._paused, abs=1e-3)
    assert sampler._paused >= sum(sampler.refs)
