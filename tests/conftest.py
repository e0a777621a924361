import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

TIME_BUDGET_S = 30


@pytest.fixture
def time_budget():
    """Fail the test, instead of hanging the suite, once it has run for
    TIME_BUDGET_S seconds of wall-clock time (SIGALRM, main thread)."""

    def expire(signum, frame):
        pytest.fail("ran past its %d s time budget" % TIME_BUDGET_S, pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_BUDGET_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
