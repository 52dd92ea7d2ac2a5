"""CPU speed probe: a fixed task timed on a schedule beside the benchmark.

Usage::

    python3 e2ebench/probe.py <interval-s> <out.json>

Runs :func:`task` once every ``interval-s`` seconds until stdin reaches
end of file, then writes ``[[start, cpu_seconds], ...]`` to
``<out.json>``; ``start`` is ``time.monotonic()``, which every process
on the machine shares.

On a shared host the speed of the CPU moves with the load of other
tenants, by up to 3x over minutes and the same on every core.  A time
measured while the probe's task took ``s`` seconds, scaled by
``REFERENCE_S / s`` (:func:`scale`), reads as if the CPU had run at the
reference speed throughout.  The task is the benchmark's own code, the
same on every commit, and a small copy of the mix the measured
processes run: interpreted Python, JSON encoding and hashing (the
journal), small float32 matrix products (decode) and a pass over memory
wider than a core's caches, so that neighbours who crowd the shared
cache slow it as they slow the campaigns.
"""

from __future__ import annotations

import hashlib
import json
import select
import statistics
import sys
import time

import numpy as np

#: The task's CPU seconds at the reference speed.  On a shared 2-vCPU
#: 2.1 GHz Xeon host it read 2.2 ms when neighbours were quiet and up to
#: 6.4 ms when they were busy.
REFERENCE_S = 0.003
#: Probe samples this many seconds either side of an interval also
#: count for it.  The speed of the whole CPU moves over tens of seconds
#: and more; a neighbour on the probe's own core can slow it alone for a
#: second or two, and the wide window outvotes that.
MARGIN_S = 5.0

_MATRIX = np.linspace(-1.0, 1.0, 64 * 64, dtype=np.float32).reshape(64, 64)
#: 4 MB, more than a core's own caches hold, so the task also reads the
#: speed of the shared cache and memory.
_WIDE = np.linspace(0.0, 1.0, 1 << 20, dtype=np.float32)
_WIDE_OUT = np.empty_like(_WIDE)


def task() -> int:
    """The fixed work one probe sample times: Python dicts and strings,
    JSON encoding, hashing and decoding of a list of small rows, small
    float32 matrix products, and one pass over a wide array."""
    counts: dict = {}
    for i in range(2000):
        key = f"pw{i % 97}"
        counts[key] = counts.get(key, 0) + i
    rows = [[i * 0.5, i, f"pw{i % 89}"] for i in range(1500)]
    data = json.dumps(rows).encode()
    digest = hashlib.sha256(data).hexdigest()
    back = json.loads(data)
    m = _MATRIX
    for _ in range(40):
        m = np.tanh(m @ _MATRIX)
    np.multiply(_WIDE, 1.0001, out=_WIDE_OUT)
    return len(counts) + len(digest) + len(back) + int(m[0, 0] > 0)


def run(interval: float, out: str) -> int:
    samples = []
    due = time.monotonic()
    while not select.select([sys.stdin], [], [], max(0.0, due - time.monotonic()))[0]:
        start = time.monotonic()
        t0 = time.process_time()
        task()
        samples.append([start, time.process_time() - t0])
        due += interval
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(samples, fh)
    return 0


def task_s(samples, t0: float, t1: float) -> float:
    """Median CPU seconds of the task over ``[t0, t1]`` widened by
    MARGIN_S.

    The median, not a low quantile: when neighbours load the host, the
    task's time spreads wide from one sample to the next, and the work
    measured over the same seconds meets the typical sample, not the
    luckiest ones.
    """
    inside = [cpu for start, cpu in samples if t0 - MARGIN_S <= start <= t1 + MARGIN_S]
    if not inside:
        raise ValueError(f"no probe samples near [{t0}, {t1}]")
    return statistics.median(inside)


def scale(samples, t0: float, t1: float) -> float:
    """Factor that takes a time measured over ``[t0, t1]`` to the reference speed."""
    return REFERENCE_S / task_s(samples, t0, t1)


if __name__ == "__main__":
    sys.exit(run(float(sys.argv[1]), sys.argv[2]))
