"""The host-speed sampler times its reference loop in the measured thread."""

import time

import pytest

import hostspeed


def test_nominal_seconds_integrate_over_the_samples_inside():
    sampler = hostspeed.Sampler()
    nominal = hostspeed.NOMINAL_S
    sampler.samples = [(1.0, nominal), (2.0, 2 * nominal), (3.0, 4 * nominal), (9.0, 5 * nominal)]
    # Each sample inside stands for a third of the 3 s: 1 + 1/2 + 1/4.
    assert sampler.nominal_seconds(0.5, 3.5) == pytest.approx(1.75)
    # No sample inside: the next one stands for the interval.
    assert sampler.nominal_seconds(4.0, 5.0) == pytest.approx(0.2)
    assert sampler.nominal_seconds(10.0, 11.0) == pytest.approx(0.2)
    assert hostspeed.Sampler().nominal_seconds(0.0, 1.5) == 1.5


def test_sampler_samples_while_the_thread_computes():
    with hostspeed.Sampler() as sampler:
        end = time.perf_counter() + 5 * hostspeed.PERIOD
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(sampler.samples) >= 3
    # Stopped on exit: no more samples arrive.
    count = len(sampler.samples)
    time.sleep(2 * hostspeed.PERIOD)
    assert len(sampler.samples) == count
