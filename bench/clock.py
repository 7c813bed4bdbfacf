"""CPU time normalised to a nominal host speed.

The host the bounds were set on is shared, and its speed moves with the
neighbours' load on the physical core: the same ``interval`` call took from
1.1 s to 1.7 s of CPU time within one minute. A worker therefore arms a
SIGPROF timer that runs a fixed reference loop, the probe, after every
``PROBE_EVERY`` CPU seconds, and records how long each probe took. A timed
region's work is its CPU time minus the probes that ran inside it; its
normalised time is that work scaled by ``PROBE_NOMINAL`` over the mean probe
duration around it. Over 16 such calls this cut the coefficient of
variation from 16% to 5%. The probes cost about 5% of a worker's wall time.
"""

import atexit
import signal
import time

PROBE_EVERY = 0.01        # CPU seconds between probes
PROBE_NOMINAL = 0.00055   # seconds one probe takes on a quiet core of that host
PROBE_WINDOW = 20         # probes averaged around a region shorter than that


def _probe_loop():
    s = 0
    for i in range(1, 600):
        s += pow(i, 65537, 1000003)
    return s


def start_probes(probes):
    """Append one probe's CPU seconds to ``probes`` every PROBE_EVERY CPU seconds."""

    def handler(signum, frame):
        t = time.thread_time()
        _probe_loop()
        probes.append(time.thread_time() - t)

    signal.signal(signal.SIGPROF, handler)
    signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY, PROBE_EVERY)
    # Stop the timer before shutdown, or a late SIGPROF kills the interpreter.
    atexit.register(signal.setitimer, signal.ITIMER_PROF, 0)


def normalise(work, first, last, probes):
    """Seconds of ``work``, done while probes first..last-1 ran, at nominal speed.

    The speed comes from the probes that ran during the work, or, when fewer
    than PROBE_WINDOW did, from the PROBE_WINDOW probes centred on it.
    """
    if last - first < PROBE_WINDOW:
        first = max(0, min((first + last) // 2 - PROBE_WINDOW // 2, len(probes) - PROBE_WINDOW))
        last = min(len(probes), first + PROBE_WINDOW)
    window = probes[first:last]
    if not window:
        return work
    return work * PROBE_NOMINAL * len(window) / sum(window)
