"""Machine speed, sampled while the program runs, to scale its times by.

On a host that shares its cores the same interpreter work runs at
different speeds from one moment to the next, with the process on the
CPU the whole time, so wall time and CPU time move together and neither
is steady: on the 2-core machine this was tuned on, single samples of
the reference below took 0.57-31 ms, and the median of a 30-s run's
samples moved between 0.74 and 1.19 ms from run to run.

`SpeedProbe` measures that speed where the program runs: every PERIOD_S
a timer signal interrupts the program (between two bytecodes, in the
main thread) and times a fixed reference, breadth-first searches of a
20 x 20 torus held in dicts and tuples, the kind of work the program
does.

`scaled(a, b)` turns the wall interval [a, b] of the program into
seconds at the reference speed: the interval, less the probe's own time
inside it, is cut at the samples, and each piece is multiplied by
REFERENCE_S over the duration of the sample nearest to it.  When the
machine runs at a speed where the reference takes REFERENCE_S, scaled
and wall time agree.
"""

import bisect
import collections
import signal
import time

clock = time.perf_counter

PERIOD_S = 0.05
# the reference's duration at the nominal speed; a fixed constant, so
# that scaled times of different runs, machines and commits compare
REFERENCE_S = 0.001

_N = 20
_TORUS = {(i, j): (((i + 1) % _N, j), ((i - 1) % _N, j),
                   (i, (j + 1) % _N), (i, (j - 1) % _N))
          for i in range(_N) for j in range(_N)}


def reference():
    """Three breadth-first searches of the torus: about 1 ms of work."""
    for _ in range(3):
        dist = {(0, 0): 0}
        queue = collections.deque([(0, 0)])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for w in _TORUS[u]:
                if w not in dist:
                    dist[w] = du
                    queue.append(w)


class SpeedProbe:
    def __init__(self):
        self.starts = []     # sample start times, increasing
        self.ends = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = clock()
        reference()
        self.starts.append(t0)
        self.ends.append(clock())

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)  # so that even a short run has one

    def _nearest(self, t):
        """Index of the sample whose middle lies nearest to t."""
        i = bisect.bisect_left(self.starts, t)
        best = None
        for k in (i - 1, i):
            if 0 <= k < len(self.starts):
                gap = abs((self.starts[k] + self.ends[k]) / 2 - t)
                if best is None or gap < best[0]:
                    best = (gap, k)
        return best[1]

    def scaled(self, a, b):
        """Seconds at the reference speed for the program's interval
        [a, b] of a run that has stopped."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        # the program's own pieces of [a, b], between the samples
        pieces = []
        t = a
        for k in range(lo, hi):
            pieces.append((t, self.starts[k]))
            t = min(self.ends[k], b)
        pieces.append((t, b))
        total = 0.0
        for p, q in pieces:
            if q > p:
                k = self._nearest((p + q) / 2)
                total += (q - p) * REFERENCE_S / (self.ends[k]
                                                  - self.starts[k])
        return total
