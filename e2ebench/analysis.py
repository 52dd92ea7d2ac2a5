"""Pure functions the benchmark computes its figures with.

Kept free of I/O and of ``repro`` imports so ``test_harness.py`` can
check each rule on hand-made inputs.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

#: Latency recorded for a request that failed, was refused or never
#: finished: it misses every latency limit (about 11.6 days in ms).
FAILED_MS = 1e9


def median(values) -> float:
    return float(statistics.median(values))


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of the raw samples.

    Always one of the samples, so it never leaves ``[min, max]``.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the ``q`` rank."""
    return count - max(1, math.ceil(q * count))


def supports(count: int, q: float, tail: int = 10) -> bool:
    """Whether ``count`` samples leave at least ``tail`` beyond quantile ``q``."""
    return count > 0 and beyond(count, q) >= tail


def failed_share(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("nothing attempted")
    return failed / attempted


def lateness_ms(due, sent) -> list:
    """Per-request lateness of an open-loop sender, in ms (never negative)."""
    return [max(0.0, (s - d) * 1000.0) for d, s in zip(due, sent)]


# ----------------------------------------------------------------------
# Spans: (id, parent, name, layer, t0, t1, thread, tag, attrs)
# ----------------------------------------------------------------------

def self_times(spans) -> dict:
    """``{span id: self seconds}``: duration minus what its children cover.

    The children's intervals are clipped to the parent's and merged
    first, so overlapping or out-of-bounds children are never counted
    twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span[1]:
            children[span[1]].append((span[4], span[5]))
    out = {}
    for span in spans:
        sid, t0, t1 = span[0], span[4], span[5]
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_self(spans, skip=()) -> dict:
    """Self seconds summed per layer, leaving out span names in ``skip``."""
    own = self_times(spans)
    out = defaultdict(float)
    for span in spans:
        if span[2] not in skip:
            out[span[3]] += own[span[0]]
    return dict(out)


def profile_layers(folded: str, frame_layers: dict, default: str = "cli") -> dict:
    """Samples per layer from folded stacks.

    A sample belongs to the layer of its innermost frame that is one of
    the wrapped functions, which is how the traced run assigns self
    time; samples under no wrapped frame go to ``default``.
    """
    out = defaultdict(int)
    for line in folded.splitlines():
        stack, _, count = line.rpartition(" ")
        if not stack:
            continue
        layer = default
        for frame in reversed(stack.split(";")):
            if frame in frame_layers:
                layer = frame_layers[frame]
                break
        out[layer] += int(count)
    return dict(out)


def largest(shares: dict, among) -> str:
    return max(among, key=lambda layer: (shares.get(layer, 0), layer))
