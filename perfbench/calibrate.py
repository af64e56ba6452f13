"""A fixed reference computation that measures how fast the machine is now.

On a shared host the same pass can take twice as long from one minute
to the next, for every kind of code, as neighbours come and go. To
compare commits the benchmark scales its host times by how long this
kernel takes in the same process right beside them: a host time is
reported as ``measured * REFERENCE_S / reference``, the time it would
have taken on a machine that runs the kernel in :data:`REFERENCE_S`.

The kernel uses nothing from the program, so a change to the program
moves the scaled figures exactly as it moves the raw ones. Its mix is
the program's: an event loop over small Python objects (heap, method
calls, attribute access) and array kernels (sort, cumulative sum,
search). Changing this file rescales every figure the benchmark has
reported, so it stays as it is.
"""

import heapq
import random
import time

import numpy as np

#: Seconds the kernel is taken to last on the reference machine; the
#: scale of every calibrated figure.
REFERENCE_S = 0.2


class _Event:
    __slots__ = ("time", "kind", "payload")

    def __init__(self, time_, kind, payload):
        self.time = time_
        self.kind = kind
        self.payload = payload


class _Device:
    def __init__(self, index):
        self.index = index
        self.busy_until = 0.0
        self.done = 0
        self.energy = 0.0

    def cost(self, n, now):
        return (n * (1.0 + (self.index % 4) * 0.25),
                max(now, self.busy_until))


def _event_loop(n=30_000):
    rng = random.Random(3)
    devices = [_Device(i) for i in range(16)]
    first = rng.expovariate(1.0)
    heap, seq, queue = [(first, 0, _Event(first, "arrival", 0))], 1, []
    arrivals = 1
    while heap:
        at, _, event = heapq.heappop(heap)
        if event.kind == "arrival":
            queue.append(event.payload)
            if arrivals < n:
                nxt = at + rng.expovariate(1.0)
                heapq.heappush(heap, (nxt, seq,
                                      _Event(nxt, "arrival", arrivals)))
                seq += 1
                arrivals += 1
        else:
            event.payload.done += 1
        if len(queue) >= 4:
            best = min(devices, key=lambda d: d.cost(len(queue), at))
            cost, start = best.cost(len(queue), at)
            best.busy_until = start + cost
            best.energy += cost * 0.5
            heapq.heappush(heap, (best.busy_until, seq,
                                  _Event(best.busy_until, "done", best)))
            seq += 1
            queue = []
    return sum(d.done for d in devices)


def _array_kernels(n=20_000, rounds=40):
    x = np.random.default_rng(5).random(n)
    for _ in range(rounds):
        order = np.argsort(x, kind="stable")
        prefix = np.cumsum(x[order])
        hits = np.searchsorted(prefix, prefix[::7])
        x = (x + hits.size * 1e-9) % 1.0
    return float(x.sum())


def reference_s():
    """Seconds the reference kernel takes now, in this process."""
    start = time.perf_counter()
    _event_loop()
    _array_kernels()
    return time.perf_counter() - start
