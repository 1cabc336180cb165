"""Rescale measured seconds to a reference machine speed.

The virtual machine this benchmark was built on (2 vCPUs, 2.1 GHz Xeon)
runs at two speeds: a fixed Python loop takes about 25 ms in one state
and about 46 ms in the other, and the state switches every 0.1 to 15 s
with no run-queue wait (the time is spent running, just slower). Raw pass times therefore spread by
30 to 40 percent between runs. To measure the program rather than the
machine's state, a fixed calibration block that does not depend on
smoothflow is timed before, during (every ``SAMPLE_INTERVAL_S``, from a
SIGALRM handler) and after each measured call. The call's seconds are
multiplied by the mean block speed over those samples and divided by
``REFERENCE_SPEED``; the result is seconds at the reference speed.
Uniform time sampling makes the mean speed the right weight: work done
equals elapsed time times mean speed. Over 120 s of interleaved calls,
the per-call spread of a small SGM solve, a medium problem build and a
medium solve fell from 49, 37 and 42 percent raw to 6, 6 and 7 percent
normalised with this loop; blocks of small or medium numpy operations
did no better on all three.
"""

import signal
import time

# Calibration-block iterations per second treated as the reference: about
# the fast state of that 2.1 GHz Xeon virtual machine.
REFERENCE_SPEED = 5.0e6
BLOCK_ITERATIONS = 400
SAMPLE_INTERVAL_S = 0.025


def block_speed(n=BLOCK_ITERATIONS):
    """Iterations per second of a fixed interpreter-bound loop."""
    clock = time.perf_counter
    begin = clock()
    acc = 0.0
    table = {}
    for i in range(n):
        acc += (i % 7) * 0.5
        table[i & 63] = (acc, i)
    return n / (clock() - begin)


class SpeedSampler:
    """Samples ``block_speed`` around and during a measured call.

    Use as a context manager; ``scale(seconds)`` then converts the
    call's measured seconds to reference seconds. Only the main thread
    may use it (it owns SIGALRM while active).
    """

    def __init__(self, interval=SAMPLE_INTERVAL_S):
        self.interval = interval
        self.samples = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.samples.append(block_speed())

    def __enter__(self):
        self.samples = [block_speed()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(block_speed())
        return False

    def scale(self, seconds):
        return seconds * (sum(self.samples) / len(self.samples)) / REFERENCE_SPEED
