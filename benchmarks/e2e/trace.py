"""Spans around the layer entry points, recorded from outside ``src/``.

:func:`install` patches timing wrappers over the public functions each
layer is entered through -- class methods on the class, ``from x import
f`` functions in the *importing* module's namespace (that is the binding
the caller resolves) -- and :class:`TimedIO` is a ``StorageIO`` subclass
(the storage layer's public injection point) that times and counts
``write`` / ``fsync`` / ``replace``.  Nothing under ``src/`` changes and
:meth:`Tracer.uninstall` puts every original back.

A span is ``[name, start, end, parent, op_id]``; spans stay in memory
and :meth:`Tracer.write_chrome` dumps them as Chrome trace-event JSON.
A span's *self time* is its duration minus its children's, so the self
times of all spans under a set of roots sum to the roots' durations.
"""

import json
from time import perf_counter

from repro.storage.faults import StorageIO


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = 0
        self._open = -1  # innermost open span
        self._originals = []
        #: Sums of GrammarRePairStats fields over every ``compress`` run.
        self.repair = {"runs": 0, "rounds": 0, "census_s": 0.0,
                       "rounds_s": 0.0, "prune_s": 0.0, "maintenance_s": 0.0,
                       "max_s": 0.0}

    # -- recording -----------------------------------------------------
    def begin(self, name):
        self.spans.append([name, perf_counter(), 0.0, self._open, self.op_id])
        self._open = len(self.spans) - 1
        return self._open

    def end(self, span):
        record = self.spans[span]
        record[2] = perf_counter()
        self._open = record[3]

    def wrap(self, owner, attribute, name, after=None):
        original = getattr(owner, attribute)
        function = original.fget if isinstance(original, property) \
            else original
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            span = begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                end(span)
                if after is not None:
                    after(self.spans[span], args)

        setattr(owner, attribute,
                property(traced) if function is not original else traced)
        self._originals.append((owner, attribute, original))

    def uninstall(self):
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def _repair_done(self, span, args):
        stats = args[0].stats  # the GrammarRePair instance
        totals = self.repair
        totals["runs"] += 1
        totals["rounds"] += stats.rounds
        totals["census_s"] += stats.census_seconds
        totals["rounds_s"] += stats.rounds_seconds
        totals["prune_s"] += stats.prune_seconds
        totals["maintenance_s"] += stats.maintenance_seconds
        totals["max_s"] = max(totals["max_s"], span[2] - span[1])

    # -- reading -------------------------------------------------------
    def self_times(self, first=0, last=None):
        """Self seconds per span name over ``spans[first:last]``."""
        spans = self.spans[first:last]
        own = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= first:
                own[parent - first] -= end - start
        totals = {}
        for (name, *_), seconds in zip(spans, own):
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def total(self, name, first=0, last=None):
        """Inclusive seconds of every span called ``name``."""
        return sum(end - start
                   for n, start, end, _, _ in self.spans[first:last]
                   if n == name)

    def write_chrome(self, path):
        events = [
            {"name": name, "ph": "X", "pid": 0, "tid": 0,
             "ts": start * 1e6, "dur": (end - start) * 1e6,
             "args": {"op": op_id, "parent": parent}}
            for name, start, end, parent, op_id in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


class TimedIO(StorageIO):
    """``StorageIO`` that spans and counts the device-facing calls."""

    def __init__(self, tracer):
        self._tracer = tracer
        self.fsync_count = 0
        self.bytes_written = 0

    def write(self, handle, data, site):
        span = self._tracer.begin("storage.write")
        try:
            super().write(handle, data, site)
        finally:
            self._tracer.end(span)
        self.bytes_written += len(data)

    def fsync(self, handle, site):
        span = self._tracer.begin("storage.fsync")
        try:
            super().fsync(handle, site)
        finally:
            self._tracer.end(span)
        self.fsync_count += 1

    def replace(self, source, destination, site):
        span = self._tracer.begin("storage.replace")
        try:
            super().replace(source, destination, site)
        finally:
            self._tracer.end(span)


def install(tracer):
    """Patch a span over every layer entry point (see module docstring)."""
    import repro.api as api
    import repro.storage.durable as durable
    import repro.storage.recovery as recovery
    from repro.core.grammar_repair import GrammarRePair
    from repro.grammar.index import GrammarIndex
    from repro.grammar.sharding import ShardManager
    from repro.storage.wal import SegmentedWal
    from repro.updates import grammar_updates

    wrap = tracer.wrap
    wrap(api, "parse_xml", "trees.parse")
    wrap(api, "encode_binary", "trees.encode")
    wrap(api, "encode_forest", "trees.encode")
    wrap(GrammarRePair, "compress_tree", "core.build_compress")
    wrap(GrammarRePair, "compress", "core.recompress",
         after=tracer._repair_done)
    for name in ("rename", "insert", "delete"):
        wrap(grammar_updates, name, "updates.single_op")
    wrap(grammar_updates, "isolate", "updates.isolate")
    wrap(grammar_updates, "isolate_many", "updates.isolate")
    wrap(api, "execute_batch", "updates.batch")
    for name in ("resolve_element", "end_of_children_position"):
        wrap(GrammarIndex, name, "grammar.index.resolve")
    for name in ("element_count", "tag_of", "parent_of", "depth_of",
                 "first_child", "next_sibling"):
        wrap(GrammarIndex, name, "grammar.index.navigate")
    wrap(ShardManager, "reshard", "grammar.sharding.reshard")
    wrap(ShardManager, "recompression_settled", "grammar.sharding.reshard")
    wrap(api, "parse_path", "query.parse")
    wrap(api, "engine_select", "query.walk")
    wrap(api, "count_matches", "query.walk")
    wrap(api, "extract_subtree", "query.extract")
    wrap(SegmentedWal, "append", "storage.wal_append")
    wrap(durable.DurableXml, "checkpoint", "storage.checkpoint")
    wrap(durable, "write_snapshot", "storage.snapshot")
    wrap(durable, "recover", "storage.recover")
    wrap(recovery, "apply_record", "storage.replay")
