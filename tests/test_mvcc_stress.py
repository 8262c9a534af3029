"""Threaded MVCC stress: concurrent writers, pinned readers, zero torn reads.

Writers rename disjoint element ranges in atomic batches; each batch
stamps every element it owns with the same round tag.  A *torn read* --
a reader observing some elements of one writer at round ``r`` and others
at round ``r'`` -- is therefore detectable from tags alone.  Readers pin
snapshots mid-flight and assert (a) no snapshot ever shows a
half-applied batch and (b) a snapshot is frozen: reading it twice gives
identical bytes even while writers keep committing.

Runs twice: against the in-memory document (write-lock + epoch pins)
and through the durable layer (commit lock around append, fsync and
apply; checkpoints under the same lock).
"""

import threading

import pytest

from repro.api import CompressedXml
from repro.storage.durable import DurableXml
from repro.updates.batch import BatchRename

N_WRITERS = 4
ELEMS_PER_WRITER = 6
ROUNDS = 25
N_READERS = 3
JOIN_TIMEOUT = 60.0  # generous; CI runs this under faulthandler

XML = (
    "<log>"
    + "<w0/>" * ELEMS_PER_WRITER
    + "<w1/>" * ELEMS_PER_WRITER
    + "<w2/>" * ELEMS_PER_WRITER
    + "<w3/>" * ELEMS_PER_WRITER
    + "</log>"
)


def writer_range(writer):
    """The contiguous element-index range writer ``writer`` owns.
    Renames never shift indexes, so the ranges are stable for the
    whole run."""
    start = 1 + writer * ELEMS_PER_WRITER
    return range(start, start + ELEMS_PER_WRITER)


def stamp_ops(writer, round_number):
    return [BatchRename(index, f"w{writer}r{round_number}")
            for index in writer_range(writer)]


def assert_untorn(tags):
    """Every writer's range must carry a single round stamp."""
    for writer in range(N_WRITERS):
        stamps = {tags[index] for index in writer_range(writer)}
        # "w<writer>/" initial tags count as round -1; they may only
        # coexist with themselves.
        assert len(stamps) == 1, (
            f"torn read: writer {writer}'s range shows {sorted(stamps)}"
        )
        stamp = stamps.pop()
        assert stamp.startswith(f"w{writer}"), stamp


def run_stress(target, snapshot_source):
    """Drive N writers and M readers against ``target`` (anything with
    ``apply_batch``); readers pin via ``snapshot_source.snapshot()``."""
    errors = []
    stop = threading.Event()

    def write(writer):
        try:
            for round_number in range(ROUNDS):
                target.apply_batch(stamp_ops(writer, round_number))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(f"writer {writer}: {exc!r}")
            stop.set()

    def read(reader):
        try:
            while not stop.is_set():
                with snapshot_source.snapshot() as view:
                    tags = {index: view.tag_of(index)
                            for index in range(1, view.element_count)}
                    assert_untorn(tags)
                    first = view.to_xml()
                    assert view.to_xml() == first, "snapshot not frozen"
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


def final_tags(doc):
    return {index: doc.tag_of(index)
            for index in range(1, doc.element_count)}


class TestInMemoryStress:
    def test_writers_and_pinned_readers_no_torn_reads(self):
        doc = CompressedXml.from_xml(XML, shard_width=8)
        run_stress(doc, doc)
        tags = final_tags(doc)
        assert_untorn(tags)
        last = f"r{ROUNDS - 1}"
        for writer in range(N_WRITERS):
            assert tags[writer_range(writer)[0]].endswith(last)
        assert doc.mvcc_info()["pinned_snapshots"] == 0
        doc.grammar.validate()

    def test_stress_with_auto_recompress_in_the_loop(self):
        """Same invariant while the recompression policy fires
        mid-stream (exclusive spine barrier vs pinned readers)."""
        doc = CompressedXml.from_xml(
            XML, shard_width=8, auto_recompress_factor=1.05
        )
        run_stress(doc, doc)
        assert_untorn(final_tags(doc))
        assert doc.mvcc_info()["pinned_snapshots"] == 0


class TestDurableStress:
    @pytest.fixture
    def store(self, tmp_path):
        with DurableXml.from_xml(
            str(tmp_path / "store"), XML, shard_width=8,
        ) as st:
            yield st

    def test_durable_writers_no_torn_reads(self, store):
        run_stress(store, store)
        assert_untorn(final_tags(store))
        assert store.mvcc_info()["pinned_snapshots"] == 0

    def test_reopen_after_stress_replays_to_same_document(
        self, store, tmp_path
    ):
        run_stress(store, store)
        expected = store.to_xml()
        store.close()
        with DurableXml.open(str(tmp_path / "store")) as reopened:
            assert reopened.to_xml() == expected
            assert_untorn(final_tags(reopened))

    def test_checkpoint_races_the_writers(self, store):
        """Checkpoints from another thread mid-stress wait their turn
        on the commit lock: nothing deadlocks or tears, and the store
        lands on a fresh generation with the writers' final state."""
        done = threading.Event()
        checkpoint_errors = []

        def checkpointer():
            while not done.is_set():
                try:
                    store.checkpoint()
                except Exception as exc:  # pragma: no cover
                    checkpoint_errors.append(repr(exc))
                    return
                done.wait(0.01)

        thread = threading.Thread(target=checkpointer, daemon=True)
        thread.start()
        try:
            run_stress(store, store)
        finally:
            done.set()
            thread.join(JOIN_TIMEOUT)
        assert not thread.is_alive(), "checkpointer deadlocked"
        assert checkpoint_errors == []
        assert_untorn(final_tags(store))
        assert store.generation > 0
