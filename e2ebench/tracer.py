"""Outside-in span recorder for the traced benchmark run.

:func:`install` wraps a fixed set of ``repro`` functions (listed in
:data:`TARGETS`) in place, from outside the package: methods are
replaced on their class, and free functions are replaced in the module
that *calls* them, because the callers bound them by name at import.
Nothing under ``src/`` changes.

Every call becomes one span ``(id, parent, name, layer, t0, t1, thread,
tag, attrs)``.  Each thread keeps its own span stack, because the
server's fleet slots are threads; ``tag`` is the campaign id (CLI
processes) or the job id (server fleet threads).  Spans stay in memory
and :meth:`Recorder.dump` writes them once, at exit.  Times come from
``time.monotonic`` (``CLOCK_MONOTONIC``), so they compare across
processes on one host.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute path, span name, layer, file of the function's
# definition).  The file plus the attribute's last component gives the
# frame label the sampling profiler prints for the unwrapped function.
TARGETS = [
    ("repro.nn.inference", "GPT2Inference.start", "inference.prime", "nn", None),
    ("repro.nn.inference", "GPT2Inference.extend", "inference.prime", "nn", None),
    ("repro.nn.inference", "GPT2Inference.step", "inference.decode", "nn", None),
    ("repro.nn.inference", "KVCache.gather", "inference.gather", "nn", None),
    ("repro.nn.inference", "PromptCache.lookup", "prompt_cache.lookup", "nn", None),
    ("repro.nn.inference", "PromptCache.expand", "prompt_cache.expand", "nn", None),
    ("repro.models.pagpassgpt", "sample_masked", "sampler.sample", "generation", "sampler"),
    ("repro.models.pagpassgpt", "sample_constrained", "sampler.sample", "generation", "sampler"),
    ("repro.generation.dcgen", "choose_constrained", "sampler.sample", "generation", "sampler"),
    ("repro.generation.dcgen", "constrained_distribution", "sampler.sample", "generation", "sampler"),
    ("repro.generation.ordered", "constrained_distribution", "sampler.sample", "generation", "sampler"),
    ("repro.generation.dcgen", "DCGenerator.plan", "dcgen.plan", "generation", None),
    ("repro.generation.dcgen", "DCGenerator.generate", "dcgen.generate", "generation", None),
    ("repro.models.pagpassgpt", "PagPassGPT.load", "model.load", "generation", None),
    ("repro.models.pagpassgpt", "PagPassGPT.generate", "model.generate", "generation", None),
    ("repro.generation.ordered", "OrderedGenerator.generate", "ordered.generate", "generation", None),
    ("repro.runtime.journal", "RunJournal.record", "journal.record", "runtime", None),
    ("repro.runtime.journal", "RunJournal.attach", "journal.attach", "runtime", None),
    ("repro.runtime.atomic", "AppendStream.write_line", "journal.write_line", "runtime", None),
    ("repro.runtime.atomic", "AppendStream.fsync", "journal.fsync", "runtime", None),
    ("repro.cli", "atomic_write_text", "output.write", "cli", "atomic"),
    ("repro.server.core", "atomic_write_text", "output.write", "server", "atomic"),
    ("repro.server.core", "CampaignServer.submit_generate", "server.submit", "server", None),
    ("repro.server.core", "CampaignServer.submit_score", "server.score", "server", None),
    ("repro.server.core", "CampaignServer._run_job_sync", "server.run", "server", None),
    ("repro.server.jobs", "JobStore.admit", "server.admit", "server", None),
    ("repro.server.jobs", "JobStore.set_state", "server.set_state", "server", None),
]


def frame_layers() -> dict:
    """``{"<file>.py:<qualname>": layer}`` for every wrapped function."""
    out = {}
    for module, attr, _name, layer, home in TARGETS:
        filename = (home or module.rsplit(".", 1)[-1]) + ".py"
        out[f"{filename}:{attr}"] = layer
    return out


# ----------------------------------------------------------------------
# Per-span attributes, read from the call's arguments and result
# ----------------------------------------------------------------------

def _rows(args, kwargs, result, pre):
    return {"rows": int(np.size(args[1]))}


def _hit(args, kwargs, result, pre):
    return {"hit": args[0].hits > pre}


def _line_bytes(args, kwargs, result, pre):
    return {"bytes": len(args[1])}


def _record(args, kwargs, result, pre):
    kind, payload = args[1], args[3]
    out = {"kind": kind}
    if kind == "frontier":
        out["seq"] = int(payload["seq"])
    return out


def _attach(args, kwargs, result, pre):
    return {"replay_bytes": pre}


def _attach_pre(args, kwargs):
    path = args[1]
    resume = args[3] if len(args) > 3 else kwargs.get("resume", False)
    return os.path.getsize(path) if resume and os.path.exists(path) else 0


def _dcgen(args, kwargs, result, pre):
    total = args[1] if len(args) > 1 else kwargs["total"]
    return {"requested": int(total), "rows": len(result) if result is not None else 0}


def _ordered(args, kwargs, result, pre):
    stats = args[0].stats
    return {"pops": int(stats.pops), "emitted": int(stats.emitted),
            "truncated": int(stats.truncated_nodes)}


def _job_result(args, kwargs, result, pre):
    return {"job": result.job_id if result is not None else None}


def _set_state(args, kwargs, result, pre):
    job = args[1]
    return {"job": job.job_id, "state": args[2], "kind": job.spec.kind,
            "started_at": job.started_at}


ATTRS = {
    "GPT2Inference.step": (_rows, None),
    "PromptCache.lookup": (_hit, lambda args, kwargs: args[0].hits),
    "AppendStream.write_line": (_line_bytes, None),
    "RunJournal.record": (_record, None),
    "RunJournal.attach": (_attach, _attach_pre),
    "DCGenerator.generate": (_dcgen, None),
    "OrderedGenerator.generate": (_ordered, None),
    "JobStore.admit": (_job_result, None),
    "JobStore.set_state": (_set_state, None),
    "CampaignServer.submit_generate": (_job_result, None),
}


class Recorder:
    """Collects spans in memory; one span stack per thread."""

    def __init__(self, tag: str = "") -> None:
        self.tag = tag
        self.spans: list = []
        # Process-unique ids, so spans of several processes can be merged.
        self._ids = itertools.count((os.getpid() << 32) + 1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.tag = self.tag
        return local

    def _close(self, sid, parent, name, layer, t0, tag, attrs) -> None:
        # list.append and itertools.count are atomic under the GIL.
        self.spans.append((sid, parent, name, layer, t0, time.monotonic(),
                           threading.get_ident(), tag, attrs))

    @contextmanager
    def span(self, name: str, layer: str):
        """Record the ``with`` block as one span."""
        local = self._state()
        sid = next(self._ids)
        parent = local.stack[-1] if local.stack else 0
        local.stack.append(sid)
        t0 = time.monotonic()
        try:
            yield
        finally:
            local.stack.pop()
            self._close(sid, parent, name, layer, t0, local.tag, None)

    def wrap(self, fn, name: str, layer: str, attrs=None, pre=None, tag_job=False):
        recorder = self

        if inspect.iscoroutinefunction(fn):
            # Coroutines interleave on the event-loop thread, so they
            # cannot sit on its span stack: they are recorded as roots.
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid = next(recorder._ids)
                t0 = time.monotonic()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    recorder._close(sid, 0, name, layer, t0, None, None)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = recorder._state()
            sid = next(recorder._ids)
            parent = local.stack[-1] if local.stack else 0
            previous_tag = local.tag
            if tag_job:
                local.tag = args[1].job_id
            before = pre(args, kwargs) if pre is not None else None
            local.stack.append(sid)
            result = None
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                local.stack.pop()
                extra = attrs(args, kwargs, result, before) if attrs is not None else None
                recorder._close(sid, parent, name, layer, t0, local.tag, extra)
                local.tag = previous_tag

        return wrapper

    def dump(self, path: str, meta: dict) -> None:
        spans = list(self.spans)
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": spans}, fh)
        os.replace(tmp, path)


def install(recorder: Recorder) -> None:
    """Wrap every function in :data:`TARGETS` so it records into ``recorder``."""
    for module_name, attr, name, layer, _home in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = owner.__dict__[fn_name] if owner_name else getattr(module, fn_name)
        attrs, pre = ATTRS.get(attr, (None, None))
        tag_job = attr == "CampaignServer._run_job_sync"
        if isinstance(raw, classmethod):
            wrapped = classmethod(recorder.wrap(raw.__func__, name, layer, attrs, pre))
        else:
            wrapped = recorder.wrap(raw, name, layer, attrs, pre, tag_job)
        setattr(owner, fn_name, wrapped)
