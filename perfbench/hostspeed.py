"""Host-speed probe: a fixed pure-Python job timed every 100 ms of a pass.

The benchmark runs on a few cores of a shared host whose speed drifts by
nearly 2x over minutes and by +-20% from one second to the next, far more
than the regressions the bounds in ``BENCHMARK.json`` must catch.  A
:class:`Sampler` runs :func:`probe` -- the same fixed amount of heap, dict,
attribute and method-call work every time, on state of its own -- from a
``SIGALRM`` handler every ``interval`` seconds while the program runs, so
the probe shares the CPU, caches and moments of the program it measures.
Probes are timed in thread CPU time (see :func:`probe`).  A window's speed
(:meth:`Sampler.lap`) is ``REFERENCE_S`` over the probe's mean duration:
below 1 on a slow stretch, above 1 on a fast one.  ``run.py`` multiplies a
pass's times by the speed of the window they were taken in, which reports
them at the reference host speed.

The handler's own wall and CPU time is summed in ``wall_spent`` and
``cpu_spent`` so the caller can take it out of the pass's times.  Only the
process that started the sampler is probed: forked children (the shard
workers) inherit the handler but not the interval timer.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from typing import NamedTuple

#: Mean probe duration, in seconds, that counts as reference speed: a
#: middle value of the per-pass means seen on the 2-core Xeon container
#: the baselines come from, where they ranged from about 2.3 to 3.9 ms.
REFERENCE_S = 0.003

#: Seconds between probes.
INTERVAL_S = 0.1


class _Peer:
    __slots__ = ("id", "table", "seen", "peers")

    def __init__(self, ident: int):
        self.id = ident
        self.table: dict[int, int] = {}
        self.seen = 0
        self.peers: list[_Peer] = []

    def offer(self, dest: int, cost: int) -> bool:
        self.seen += 1
        old = self.table.get(dest)
        if old is None or cost < old:
            self.table[dest] = cost
            return True
        if cost > old + 8:
            self.table[dest] = cost - 1
        return False


_PEERS = [_Peer(i) for i in range(1000)]
for _p in _PEERS:
    _p.peers = [_PEERS[(_p.id * 31 + j * 97) % 1000] for j in range(4)]
    _p.table = {dest: (dest * 7 + _p.id) % 64 for dest in range(64)}
_QUEUE = [((i * 0.37) % 50.0, i, i % 1000) for i in range(4000)]
heapq.heapify(_QUEUE)
#: (LCG state, event sequence number), carried from one probe to the next.
_STATE = [12345, 4000]


def _burst() -> float:
    """A short heap/dict/arithmetic loop on fresh state."""
    heap: list = []
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(300):
        heapq.heappush(heap, (((i * 7919) % 211) * 0.5, i))
        k = i & 63
        counts[k] = counts.get(k, 0) + 1
        acc += i * 0.25
    while heap:
        heapq.heappop(heap)
    return acc


def probe() -> float:
    """Run the fixed job once; return the CPU seconds it took.

    CPU time of this thread, not wall time: a slow host shows in both, but
    waiting for a core that the shard workers hold does not show here, so
    the program's own processes cannot make the host look slower.  The job
    is 600 event dispatches over 1000 nodes' 64-entry tables (a scaled-down
    distance-vector exchange with a working set of a few MB) plus four
    short loops on fresh state.  The work is the same on every call: the
    queue and tables keep their sizes, only their contents move on.  The
    garbage collector is off while it runs, so a collection of the
    program's heap never lands in a probe.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _job()
    finally:
        if collecting:
            gc.enable()


def _job() -> float:
    rng, seq = _STATE
    queue, peers = _QUEUE, _PEERS
    push, pop = heapq.heappush, heapq.heappop
    started = time.thread_time()
    for _ in range(600):
        when, _seq, idx = pop(queue)
        rng = (rng * 1103515245 + 12345) & 0x7FFFFFFF
        peer = peers[idx]
        seq += 1
        if peer.offer(rng & 63, (rng >> 9) % 64):
            push(queue, (when + 0.001 * ((rng >> 4) & 15), seq, peer.peers[rng & 3].id))
        else:
            push(queue, (when + 1.0, seq, idx))
    for _ in range(4):
        _burst()
    elapsed = time.thread_time() - started
    _STATE[0], _STATE[1] = rng, seq
    return elapsed


class Window(NamedTuple):
    """What a :class:`Sampler` saw between two laps."""

    speed: float       #: ``REFERENCE_S`` over the mean probe duration
    probes: int        #: samples taken
    wall_spent: float  #: wall seconds the window's probes took
    cpu_spent: float   #: CPU seconds the window's probes took


class Sampler:
    """Probe the host every ``interval`` seconds between :meth:`start` and :meth:`stop`.

    :meth:`lap` closes a window and opens the next, so one sampler covers
    a worker's set-up and its timed call separately.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.wall_spent = 0.0
        self.cpu_spent = 0.0
        self._previous = None

    def _sample(self) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.samples.append(probe())
        self.cpu_spent += time.process_time() - cpu0
        self.wall_spent += time.perf_counter() - wall0

    def _on_alarm(self, _signum, _frame) -> None:
        self._sample()

    def start(self) -> None:
        """Take one sample now, then one every ``interval`` from a timer."""
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        """Stop the timer, restore the old handler and take one last sample.

        The caller has read its clocks by now, so this sample's time is not
        added to ``wall_spent`` or ``cpu_spent``.
        """
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.samples.append(probe())

    def lap(self) -> Window:
        """Close the current window and return it; the next one starts empty.

        The closed window's last sample also opens the next, so a window
        shorter than ``interval`` still has one.
        """
        window = Window(
            REFERENCE_S / statistics.fmean(self.samples),
            len(self.samples),
            self.wall_spent,
            self.cpu_spent,
        )
        self.samples = self.samples[-1:]
        self.wall_spent = self.cpu_spent = 0.0
        return window
