"""Tests of the pace kernel and of paced timing.

    python3 -m pytest perfbench
"""

import signal
import time

import pytest

import pace


def _busy(seconds: float) -> str:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


def test_scaled_states_time_at_the_reference_pace():
    ref = pace.REF_KERNEL_S
    assert pace.scaled(2.0, [ref, ref, ref]) == pytest.approx(2.0)
    # a host twice as slow as the reference halves the stated time
    assert pace.scaled(1.0, [2 * ref, 2 * ref]) == pytest.approx(0.5)


def test_timed_ticks_during_the_call_and_takes_the_kernel_out():
    paced = pace.timed(_busy, 5 * pace.INTERVAL_S)
    assert paced.result == "done"
    assert len(paced.samples) >= 3
    # the busy loop ends at its deadline, so the kernel runs inside it are
    # part of the deadline and come off the net time
    assert paced.net == pytest.approx(5 * pace.INTERVAL_S - sum(paced.samples), abs=0.05)
    assert pace.scaled(paced.net, paced.samples) > 0


def test_short_call_gets_a_pace_from_a_burst():
    paced = pace.timed(lambda: 1)
    assert paced.result == 1
    assert len(paced.samples) == 5


def test_timer_and_handler_are_restored_after_an_exception():
    before = signal.getsignal(signal.SIGALRM)

    def boom():
        _busy(1.5 * pace.INTERVAL_S)
        raise ValueError("boom")
    with pytest.raises(ValueError):
        pace.timed(boom)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
