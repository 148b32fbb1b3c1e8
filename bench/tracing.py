"""Spans around the benchmark's calls into wslrr.

A span has an id, a name, a parent, a start and an end (perf_counter
seconds), plus tags naming the operation it belongs to.  Spans are kept in
memory and written out once, when the run ends.  With tracing off the
benchmark calls the modules directly and records nothing.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
import types
from collections import defaultdict

import wslrr.cli
import wslrr.core
import wslrr.datagen
import wslrr.decontam
import wslrr.risk
import wslrr.scenarios
import wslrr.train
import wslrr.verify

LAYERS = ("core", "scenarios", "decontam", "risk", "datagen", "train", "verify", "cli")
_NULL = contextlib.nullcontext()


class Tracer:
    """Records spans when ``enabled``; otherwise every method is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []      # [id, name, parent, start, end, tags]
        self._stack = []

    def span(self, name: str, **tags):
        return self._record(name, tags) if self.enabled else _NULL

    @contextlib.contextmanager
    def _record(self, name, tags):
        rec = [len(self.spans), name, self._stack[-1] if self._stack else None,
               time.perf_counter(), None, tags]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def module(self, mod):
        """The module itself when tracing is off; otherwise a namespace whose
        public functions each record a span named ``<layer>.<function>``."""
        if not self.enabled:
            return mod
        layer = mod.__name__.rsplit(".", 1)[-1]
        ns = types.SimpleNamespace()
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                obj = self._wrap(f"{layer}.{name}", obj)
            setattr(ns, name, obj)
        return ns

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            # keyword arguments that are plain values (a method, a channel)
            # become tags, so that calls of one function can be told apart
            tags = {k: v for k, v in kwargs.items() if isinstance(v, (str, int, float))}
            with self._record(name, tags):
                return fn(*args, **kwargs)
        traced.__name__ = fn.__name__
        return traced

    # ---- reading the spans back ------------------------------------------------

    def self_times(self) -> dict:
        """Span id -> duration minus the time its child spans cover."""
        child = defaultdict(float)
        for sid, _, parent, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return {s[0]: (s[4] - s[3]) - child[s[0]] for s in self.spans}

    def calls(self, name: str, **tags) -> list:
        """(self time, tags) of every span named ``name`` whose tags, merged
        over those of its enclosing span, include all of ``tags``."""
        selft = self.self_times()
        out = []
        for sid, sname, parent, _, _, own in self.spans:
            if sname != name:
                continue
            merged = dict(self.spans[parent][5]) if parent is not None else {}
            merged.update(own)
            if all(merged.get(k) == v for k, v in tags.items()):
                out.append((selft[sid], merged))
        return out

    def layer_self_times(self) -> dict:
        """Layer -> total self time of its spans."""
        selft = self.self_times()
        out = defaultdict(float)
        for sid, name, *_ in self.spans:
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                out[layer] += selft[sid]
        return dict(out)

    def dump(self, path) -> None:
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = [{"id": sid, "name": name, "parent": parent,
                 "start_s": start - t0, "end_s": end - t0, "tags": tags}
                for sid, name, parent, start, end, tags in self.spans]
        with open(path, "w") as f:
            json.dump({"spans": rows, "layer_self_s": self.layer_self_times()}, f)


class Api:
    """The eight wslrr modules the benchmark calls, traced or not."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.core = tracer.module(wslrr.core)
        self.scenarios = tracer.module(wslrr.scenarios)
        self.decontam = tracer.module(wslrr.decontam)
        self.risk = tracer.module(wslrr.risk)
        self.datagen = tracer.module(wslrr.datagen)
        self.train = tracer.module(wslrr.train)
        self.verify = tracer.module(wslrr.verify)
        self.cli = tracer.module(wslrr.cli)
