"""In-memory span tracer that times convspeech's layers from outside.

`instrument(tracer)` replaces each traced function or method with a wrapper at
the name its caller looks up (module attributes such as `pipeline.read_wav`
and `decoder.merge_hypotheses`, methods on their class), and `tracer.restore()`
puts the originals back. A span records its name, start, end, parent span and
the id of the benchmark item (utterance or training round) it belongs to;
spans stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

from convspeech import acoustic, audio_io, decoder, frontend, gcnn, lm, optim, pipeline


class Tracer:
    """Spans in flat arrays, so that holding a million of them costs the GC nothing."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")     # index of the enclosing span, -1 at the root
        self.item = array("q")       # benchmark item the span belongs to, -1 outside one
        self.attrs: dict[int, tuple] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.current_item = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.origin = time.perf_counter()

    # -- spans -----------------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def item_span(self, name: str, item: int):
        """Root span of one benchmark item; every span inside carries its id."""
        self.current_item = item
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)
            self.current_item = -1

    # -- patching ----------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, note=None):
        """Trace `owner.attr` as span `name`; `note(args, result)` adds attributes."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if note is not None:
                tracer.attrs[index] = note(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def count_cache(self, cache_class):
        """Count LruCache lookups as hits or misses from the cache's own counters."""
        original = cache_class.get
        counts = self.counts

        @functools.wraps(original)
        def get(cache, key):
            hits = cache.hits
            value = original(cache, key)
            counts["gcnn.cache_hits" if cache.hits > hits else "gcnn.cache_misses"] += 1
            return value

        cache_class.get = get
        self._patches.append((cache_class, "get", original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------------
    def layers(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, summed attributes.

        Self time is a span's duration minus the durations of its direct
        children, which run inside it one after another.
        """
        durations = [e - s for s, e in zip(self.start, self.end)]
        own = list(durations)
        for d, p in zip(durations, self.parent):
            if p >= 0:
                own[p] -= d
        table: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            row = table.get(name)
            if row is None:
                row = table[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            row["calls"] += 1
            row["total_s"] += durations[i]
            row["self_s"] += own[i]
        for i, pairs in self.attrs.items():
            row = table[self.names[i]]
            for key, value in pairs:
                row[key] = row.get(key, 0) + value
        return table

    def write_jsonl(self, path):
        with open(path, "w") as out:
            for i, name in enumerate(self.names):
                record = {"id": i, "name": name,
                          "start_us": round((self.start[i] - self.origin) * 1e6, 1),
                          "end_us": round((self.end[i] - self.origin) * 1e6, 1),
                          "parent": self.parent[i], "item": self.item[i]}
                record.update(self.attrs.get(i, ()))
                out.write(json.dumps(record, separators=(",", ":")) + "\n")


class TracedLM:
    """LM proxy: forwards the decoder's LM protocol and traces every lookup."""

    def __init__(self, base, tracer: Tracer):
        self.base = base
        self.vocab = base.vocab
        self._tracer = tracer

    def start_state(self):
        return self.base.start_state()

    def score(self, state, token_id):
        index = self._tracer.open("lm.score")
        try:
            return self.base.score(state, token_id)
        finally:
            self._tracer.close(index)

    def finish(self, state):
        index = self._tracer.open("lm.score")
        try:
            return self.base.finish(state)
        finally:
            self._tracer.close(index)


def _wav_bytes(args, result):
    return (("bytes", os.path.getsize(args[0])),)


def _frames(args, result):
    return (("frames", int(getattr(args[0], "scores", args[0]).shape[0])),)


def _merge_sizes(args, result):
    return (("in", len(args[0])), ("out", len(result)))


def _prune_size(args, result):
    return (("out", len(result)),)


def instrument(tracer: Tracer):
    """Wrap every traced layer entry point; undo with tracer.restore()."""
    tracer.wrap(audio_io, "read_wav", "audio_io.read_wav", _wav_bytes)
    tracer.wrap(pipeline, "read_wav", "audio_io.read_wav", _wav_bytes)
    tracer.wrap(pipeline, "train_acoustic", "pipeline.train_acoustic")
    tracer.wrap(pipeline.SpeechSystem, "emissions", "pipeline.emissions")
    tracer.wrap(pipeline, "asg_loss_and_gradients", "criterion.loss_and_gradients")
    tracer.wrap(pipeline, "asg_loss", "criterion.loss")
    tracer.wrap(frontend.LearnableFrontend, "forward", "frontend.forward")
    tracer.wrap(frontend.LearnableFrontend, "backward", "frontend.backward")
    tracer.wrap(acoustic.AcousticModel, "forward", "acoustic.forward")
    tracer.wrap(acoustic.AcousticModel, "backward", "acoustic.backward")
    tracer.wrap(optim.SgdOptimizer, "step", "optim.step")
    tracer.wrap(gcnn, "train_gcnn", "gcnn.train_gcnn")
    tracer.wrap(gcnn.GcnnLm, "forward", "gcnn.forward")
    tracer.wrap(gcnn.GcnnLm, "backward", "gcnn.backward")
    tracer.wrap(decoder, "decode", "decoder.decode", _frames)
    tracer.wrap(decoder, "merge_hypotheses", "decoder.merge", _merge_sizes)
    tracer.wrap(decoder, "prune", "decoder.prune", _prune_size)
    tracer.count_cache(lm.LruCache)
