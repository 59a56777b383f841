"""The machine's current speed, for reporting throughput at a reference speed.

The benchmark shares its host: the same code runs up to twice as fast at
one minute as at the next, on every core at once. A fixed pure-Python loop
timed just before and just after each timed batch measures that drift, and
the batch's rate is scaled by REF_SPEED over the loop's mean speed. The scaled
rate is what the batch would have reached had the machine been running the
loop at REF_SPEED iterations per second. This module imports nothing from
the program, so no change to the program can move it.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

# loop iterations per second taken as the reference speed (about what one
# core of the 2-core box the benchmark was defined on reaches)
REF_SPEED = 5.0e6
ITERATIONS = 60_000


def loop_speed(n: int = ITERATIONS) -> float:
    """Iterations per second of a fixed integer-and-dict loop on this core."""
    start = time.perf_counter()
    x, table = 0, {}
    for i in range(n):
        x = (x * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = x
    return n / (time.perf_counter() - start)


def _serve_readings(conn) -> None:
    """Worker loop: one loop_speed() reading per request, until told to stop."""
    while conn.recv():
        conn.send(loop_speed())


class Speedometer:
    """Reads the loop speed on as many cores as the timed work uses.

    Extra cores are read by spawned worker processes over pipes; the parent
    starts no threads, so the program may still fork its own workers.
    """

    def __init__(self, cores: int = 1):
        ctx = multiprocessing.get_context("spawn")
        self.conns, self.workers = [], []
        for _ in range(cores - 1):
            here, there = ctx.Pipe()
            worker = ctx.Process(target=_serve_readings, args=(there,), daemon=True)
            worker.start()
            self.conns.append(here)
            self.workers.append(worker)

    def read(self) -> float:
        """Mean loop speed over the cores, all read at the same time."""
        for conn in self.conns:
            conn.send(True)
        readings = [loop_speed()] + [conn.recv() for conn in self.conns]
        return statistics.mean(readings)

    def timed(self, work):
        """Run work(); return its result, its seconds, and REF_SPEED over the
        mean of the loop speeds read just before and just after it."""
        before = self.read()
        start = time.perf_counter()
        result = work()
        elapsed = time.perf_counter() - start
        return result, elapsed, REF_SPEED / ((before + self.read()) / 2)

    def close(self) -> None:
        for conn in self.conns:
            conn.send(False)
            conn.close()
        for worker in self.workers:
            worker.join()

    def __enter__(self) -> "Speedometer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
