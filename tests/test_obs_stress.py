"""Threaded tracing stress: spans stay coherent under concurrent commits.

The tracer keeps one span stack per thread; the ring of finished root
spans is the only shared structure.  This suite drives the same shape
of load as ``test_mvcc_stress`` -- durable writer threads plus pinned
snapshot readers -- with tracing *enabled* and then audits every
recorded trace:

* **single-threaded** -- a trace (root span plus its whole subtree)
  was produced by exactly one thread; concurrent commits never
  interleave into each other's trees;
* **time-nested** -- every child span starts and ends within its
  parent's window, and siblings are recorded in start order;
* **no leakage** -- trace ids are unique, every commit produced by a
  writer shows up as its own root span (modulo the bounded ring), and
  child names are the commit stages, never another trace's root.

Metrics are exercised alongside: the commit histogram's count must
equal the number of successful commits across all threads (lock-safe
counters, no lost increments).
"""

import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, set_default_tracer, trace_span
from repro.storage.durable import DurableXml
from repro.updates.batch import BatchRename

N_WRITERS = 4
ELEMS_PER_WRITER = 6
ROUNDS = 20
N_READERS = 2
JOIN_TIMEOUT = 60.0

XML = (
    "<log>"
    + "<w0/>" * ELEMS_PER_WRITER
    + "<w1/>" * ELEMS_PER_WRITER
    + "<w2/>" * ELEMS_PER_WRITER
    + "<w3/>" * ELEMS_PER_WRITER
    + "</log>"
)

TOTAL_COMMITS = N_WRITERS * ROUNDS
#: Traced reads per reader; further reads run untraced so the ring is
#: guaranteed to retain every commit root alongside them.
TRACED_READS = 40
RING_SIZE = TOTAL_COMMITS + N_READERS * TRACED_READS + 16


def writer_range(writer):
    start = 1 + writer * ELEMS_PER_WRITER
    return range(start, start + ELEMS_PER_WRITER)


def stamp_ops(writer, round_number):
    return [BatchRename(index, f"w{writer}r{round_number}")
            for index in writer_range(writer)]


@pytest.fixture
def tracer():
    """A fresh default tracer large enough to hold every root span the
    stress emits, restored afterwards so other tests keep theirs."""
    fresh = Tracer(ring_size=RING_SIZE)
    previous = set_default_tracer(fresh)
    try:
        yield fresh
    finally:
        set_default_tracer(previous)


def walk(span):
    yield span
    for child in span.children:
        yield from walk(child)


def assert_single_threaded(span):
    threads = {s.thread_id for s in walk(span)}
    assert len(threads) == 1, (
        f"trace {span.trace_id} ({span.name}) mixes threads: {threads}"
    )


def assert_time_nested(span):
    for child in span.children:
        assert child.start >= span.start, (
            f"{child.name} started before its parent {span.name}"
        )
        assert child.end is not None and span.end is not None
        assert child.end <= span.end, (
            f"{child.name} outlived its parent {span.name}"
        )
        assert_time_nested(child)
    starts = [child.start for child in span.children]
    assert starts == sorted(starts), (
        f"children of {span.name} recorded out of start order"
    )


def run_stress(store):
    errors = []
    stop = threading.Event()

    def write(writer):
        try:
            for round_number in range(ROUNDS):
                store.apply_batch(stamp_ops(writer, round_number))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(f"writer {writer}: {exc!r}")
            stop.set()

    def read(reader):
        try:
            # Readers trace too: their spans must never attach to a
            # writer's commit tree (thread-local stacks).  Only the
            # first TRACED_READS are traced -- a free-running traced
            # loop would evict the commit roots from the bounded ring;
            # the rest keep snapshot pressure on the writers untraced.
            traced = 0
            while not stop.is_set():
                if traced < TRACED_READS:
                    traced += 1
                    with trace_span("snapshot_read", reader=reader):
                        with store.snapshot() as view:
                            with trace_span("walk"):
                                view.to_xml()
                else:
                    with store.snapshot() as view:
                        view.to_xml()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(f"reader {reader}: {exc!r}")
            stop.set()

    writers = [threading.Thread(target=write, args=(w,), daemon=True)
               for w in range(N_WRITERS)]
    readers = [threading.Thread(target=read, args=(r,), daemon=True)
               for r in range(N_READERS)]
    for thread in readers + writers:
        thread.start()
    for thread in writers:
        thread.join(JOIN_TIMEOUT)
        assert not thread.is_alive(), "writer deadlocked (join timed out)"
    stop.set()
    for thread in readers:
        thread.join(JOIN_TIMEOUT)
        assert not thread.is_alive(), "reader deadlocked (join timed out)"
    assert errors == [], errors


class TestTracingUnderConcurrentCommits:
    @pytest.fixture
    def store(self, tmp_path, tracer):
        registry = MetricsRegistry()
        with DurableXml.from_xml(
            str(tmp_path / "store"), XML,
            shard_width=8, metrics=registry,
        ) as st:
            yield st

    def test_traces_stay_single_threaded_and_nested(self, store, tracer):
        run_stress(store)
        roots = tracer.recent()
        commits = [s for s in roots if s.name == "commit"]
        assert len(commits) == TOTAL_COMMITS, (
            f"expected {TOTAL_COMMITS} commit traces, ring holds "
            f"{len(commits)}"
        )
        for span in roots:
            assert_single_threaded(span)
            assert_time_nested(span)
            assert span.end is not None, f"{span.name} never closed"
            assert span.duration_s >= 0.0

    def test_no_cross_trace_leakage(self, store, tracer):
        run_stress(store)
        roots = tracer.recent()
        trace_ids = [s.trace_id for s in roots]
        assert all(tid is not None for tid in trace_ids)
        assert len(trace_ids) == len(set(trace_ids)), \
            "duplicate trace ids in the ring"
        commit_stages = ["wal_append", "apply"]
        for span in roots:
            if span.name == "commit":
                assert span.tags["op"] == "batch"
                names = [child.name for child in span.children]
                # Every commit appends (the fsync inside) and applies;
                # anything else here leaked in from another trace.
                assert names == commit_stages, (
                    f"foreign span inside a commit trace: {names}"
                )
            elif span.name == "snapshot_read":
                names = [child.name for child in span.children]
                assert set(names) <= {"walk"}, (
                    f"a commit stage leaked into a reader trace: {names}"
                )
            else:  # pragma: no cover - unexpected root
                raise AssertionError(f"unexpected root span {span.name}")

    def test_metrics_counts_match_commits(self, store, tracer):
        run_stress(store)
        registry = store.metrics_registry
        commit_hist = registry.histogram("repro_commit_seconds")
        assert commit_hist.snapshot()["count"] == TOTAL_COMMITS
        batch_counter = registry.counter("repro_commits_total", op="batch")
        assert batch_counter.value == TOTAL_COMMITS
        for stage in ("append", "apply"):
            hist = registry.histogram(
                "repro_commit_stage_seconds", stage=stage)
            assert hist.snapshot()["count"] == TOTAL_COMMITS, (
                f"stage {stage!r} lost observations under concurrency"
            )

    def test_ring_stays_bounded_under_load(self, tmp_path):
        """A tiny ring under the same load: the tracer must hold only
        the most recent roots and never error on concurrent appends."""
        tiny = Tracer(ring_size=8)
        previous = set_default_tracer(tiny)
        try:
            with DurableXml.from_xml(
                str(tmp_path / "store"), XML, shard_width=8,
            ) as store:
                run_stress(store)
        finally:
            set_default_tracer(previous)
        roots = tiny.recent()
        assert len(roots) == 8
        for span in roots:
            assert_single_threaded(span)
            assert_time_nested(span)
