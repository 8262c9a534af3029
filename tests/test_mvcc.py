"""MVCC snapshot isolation: pinned views across update interleavings.

The contract under test: ``doc.snapshot()`` pins the grammar epoch that
was current at the call, and the returned :class:`SnapshotView` answers
the whole read surface *as of that epoch* no matter what the writer does
afterwards -- single updates, batches, resharding, or recompression
(and a wholesale index reset).  Pins are refcounted; the copy-on-write
overlay behind an epoch is reclaimed when its last view closes.
"""

import inspect

import pytest
from hypothesis import given, settings

from repro.api import CompressedXml, ReadSurface, SnapshotView
from repro.trees.unranked import XmlNode
from repro.trees.xml_io import parse_xml
from repro.updates.batch import (
    BatchAppend,
    BatchDelete,
    BatchInsert,
    BatchRename,
)

from tests.strategies import (
    batch_scripts,
    shard_widths,
    update_scripts,
    xml_documents,
)

XML = "<log>" + "<entry><ip/><status/></entry>" * 6 + "</log>"


def make_doc(**kwargs):
    return CompressedXml.from_xml(XML, **kwargs)


#: The read surface, by name: what ``ReadSurface`` itself declares.
READ_SURFACE = sorted(
    name for name in vars(ReadSurface) if not name.startswith("_"))

#: One call per read that evaluates against the grammar (everything but
#: the two ratios derived from the counters captured at the pin).
GRAMMAR_READS = {
    "tags": lambda view: list(view.tags()),
    "tag_of": lambda view: view.tag_of(1),
    "parent_of": lambda view: view.parent_of(2),
    "depth_of": lambda view: view.depth_of(2),
    "first_child": lambda view: view.first_child(1),
    "next_sibling": lambda view: view.next_sibling(2),
    "children": lambda view: view.children(1),
    "label_index": lambda view: view.label_index,
    "select": lambda view: view.select("//status"),
    "count": lambda view: view.count("/log/entry"),
    "subtree_xml": lambda view: view.subtree_xml(1),
    "to_document": lambda view: view.to_document(),
    "to_xml": lambda view: view.to_xml(),
    "export_state": lambda view: view.export_state(),
}


def concretize(seq_doc, script):
    """Replay an abstract batch script on the sequential oracle,
    recording the concrete ops valid at each op's application time
    (same scheme as the batch equivalence suite)."""
    ops = []
    for kind, fraction, tag, wide in script:
        count = seq_doc.element_count
        content = (
            [XmlNode(tag), XmlNode("wide", [XmlNode("inner")])]
            if wide else XmlNode(tag)
        )
        if kind == "rename":
            index = int(fraction * count)
            seq_doc.rename(index, tag)
            ops.append(BatchRename(index, tag))
        elif kind == "insert":
            if count < 2:
                continue
            index = 1 + int(fraction * (count - 1))
            seq_doc.insert(index, content)
            ops.append(BatchInsert(index, content))
        elif kind == "append":
            index = int(fraction * count)
            seq_doc.append_child(index, content)
            ops.append(BatchAppend(index, content))
        else:
            if count < 3:
                continue
            index = 1 + int(fraction * (count - 1))
            seq_doc.delete(index)
            ops.append(BatchDelete(index))
    return ops


def replay(doc, script):
    """Apply one (kind, fraction, tag) entry at a time, yielding after
    each so the caller can interpose snapshots."""
    for kind, fraction, tag in script:
        count = doc.element_count
        if kind == "rename":
            doc.rename(int(fraction * count), tag)
        elif kind == "insert" and count > 1:
            doc.insert(1 + int(fraction * (count - 1)), XmlNode(tag))
        elif kind == "append":
            doc.append_child(int(fraction * count),
                             XmlNode(tag, [XmlNode(tag)]))
        elif kind == "delete" and count > 1:
            doc.delete(1 + int(fraction * (count - 1)))
        elif kind == "recompress":
            doc.recompress()
        yield kind


class TestSnapshotBasics:
    def test_view_reflects_pin_time_state(self):
        doc = make_doc()
        before = doc.to_xml()
        with doc.snapshot() as view:
            doc.rename(1, "renamed")
            doc.append_child(0, XmlNode("tail"))
            doc.delete(doc.element_count - 1)
            doc.recompress()
            assert view.to_xml() == before
            assert view.element_count == 19
            assert view.tag_of(1) == "entry"
        assert doc.to_xml() != before

    def test_read_surface_matches_document_at_pin(self):
        doc = make_doc()
        view = doc.snapshot()
        expected_tags = list(doc.tags())
        expected_status = doc.select("//status")
        expected_count = doc.count("/log/entry")
        expected_subtree = doc.subtree_xml(1)
        doc.rename(2, "moved")
        doc.insert(3, parse_xml("<extra><deep/></extra>"))
        assert list(view.tags()) == expected_tags
        assert view.select("//status") == expected_status
        assert view.count("/log/entry") == expected_count
        assert view.subtree_xml(1) == expected_subtree
        assert view.parent_of(2) == 1
        assert view.first_child(1) == 2
        assert view.next_sibling(2) == 3
        view.close()

    def test_closed_view_raises(self):
        doc = make_doc()
        view = doc.snapshot()
        view.close()
        assert view.closed
        with pytest.raises(ValueError, match="closed"):
            view.to_xml()
        with pytest.raises(ValueError, match="closed"):
            view.select("//entry")
        view.close()  # idempotent

    @pytest.mark.parametrize("read", sorted(GRAMMAR_READS))
    def test_every_grammar_read_of_a_closed_view_raises(self, read):
        view = make_doc().snapshot()
        view.close()
        with pytest.raises(ValueError, match="closed"):
            GRAMMAR_READS[read](view)
        # The counters captured at the pin need no grammar: still there.
        assert view.element_count == 19
        assert view.edge_count == 18
        assert "closed" in repr(view)

    def test_tags_first_advanced_after_close_raises(self):
        view = make_doc().snapshot()
        tags = view.tags()  # a generator: nothing has run yet
        view.close()
        with pytest.raises(ValueError, match="closed"):
            next(tags)

    def test_pin_accounting_and_overlay_reclamation(self):
        doc = make_doc()
        grammar = doc.grammar
        assert doc.mvcc_info()["pinned_snapshots"] == 0
        first = doc.snapshot()
        doc.rename(1, "r1")
        second = doc.snapshot()
        third = doc.snapshot()  # same epoch as second: shared pin
        info = doc.mvcc_info()
        assert info["pinned_snapshots"] == 3
        assert info["pinned_epochs"] == [first.epoch, second.epoch]
        assert second.epoch == third.epoch
        assert info["epoch"] >= second.epoch
        assert info["oldest_pin_age_seconds"] >= 0.0
        doc.rename(2, "r2")  # forces overlay entries for pinned epochs
        first.close()
        assert doc.mvcc_info()["pinned_epochs"] == [second.epoch]
        second.close()
        third.close()
        assert doc.mvcc_info()["pinned_snapshots"] == 0
        assert grammar.pinned_epochs() == {}

    def test_views_on_distinct_epochs_diverge(self):
        doc = make_doc()
        v0 = doc.snapshot()
        doc.rename(1, "one")
        v1 = doc.snapshot()
        doc.rename(1, "two")
        v2 = doc.snapshot()
        assert v0.tag_of(1) == "entry"
        assert v1.tag_of(1) == "one"
        assert v2.tag_of(1) == "two"
        assert doc.tag_of(1) == "two"
        for view in (v0, v1, v2):
            view.close()

    def test_snapshot_of_sharded_document(self):
        doc = make_doc(shard_width=8)
        doc_xml = doc.to_xml()
        with doc.snapshot() as view:
            for _ in range(24):  # force splits / resharding
                doc.append_child(0, XmlNode("burst", [XmlNode("x")]))
            assert view.to_xml() == doc_xml
            assert view.element_count == 19


class TestSnapshotVsBatch:
    def test_view_stable_across_batch_with_auto_recompress(self):
        doc = make_doc(shard_width=8, auto_recompress_factor=1.1)
        before = doc.to_xml()
        with doc.snapshot() as view:
            stats = doc.apply_batch(
                [BatchAppend(0, XmlNode("a", [XmlNode("b")]))
                 for _ in range(20)]
                + [BatchRename(1, "renamed"), BatchDelete(5)]
            )
            assert view.to_xml() == before
        assert stats.commit_epoch > stats.base_epoch
        assert doc.to_xml() != before

    def test_batch_stamps_epoch_window(self):
        doc = make_doc()
        epoch_before = doc.grammar.epoch
        stats = doc.apply_batch([BatchRename(1, "stamped")])
        assert stats.base_epoch == epoch_before
        assert stats.commit_epoch == doc.grammar.epoch
        assert stats.commit_epoch > stats.base_epoch

    def test_export_state_round_trips_pinned_state(self):
        doc = make_doc(shard_width=8)
        with doc.snapshot() as view:
            expected = view.to_xml()
            doc.apply_batch(
                [BatchAppend(0, XmlNode("noise")) for _ in range(12)]
            )
            state = view.export_state()
        restored = CompressedXml.from_state(state)
        assert restored.to_xml() == expected
        assert restored.element_count == 19


class TestOneReadSurface:
    """The view and the document do not each declare the read surface:
    both resolve every read to the one function ``ReadSurface`` holds,
    so forking a method again is a test failure."""

    def test_the_surface_is_the_documented_one(self):
        assert set(READ_SURFACE) == (
            set(GRAMMAR_READS) - {"export_state"}
            | {"edge_count", "compression_ratio"})

    @pytest.mark.parametrize("name", READ_SURFACE)
    def test_document_and_view_share_the_function(self, name):
        shared = vars(ReadSurface)[name]
        assert inspect.getattr_static(CompressedXml, name) is shared
        assert inspect.getattr_static(SnapshotView, name) is shared
        assert name not in vars(SnapshotView)
        assert name not in vars(CompressedXml)


class TestEvictionVsPin:
    """Satellite: wholesale index eviction must not reach into views.

    ``invalidate_all`` on the document's index -- scrub's repair of
    last resort is its one caller -- is the one remaining
    wholesale-eviction path.  A pinned view owns private index tables
    over its frozen grammar (built with ``register=False``), so the
    reset must be invisible to it.
    """

    def test_wholesale_invalidation_does_not_touch_views(self):
        doc = make_doc()
        with doc.snapshot() as view:
            expected = view.to_xml()
            assert view.tag_of(0) == "log"  # warm the view's tables
            assert view.select("//status")
            for index in range(1, 8):
                doc.rename(index, f"t{index}")
            doc.recompress()
            doc.index.invalidate_all()
            assert doc.index.wholesale_invalidations == 1
            assert view.to_xml() == expected
            assert view.element_count == 19
            assert view.tag_of(1) == "entry"
            assert len(view.select("//status")) == 6

    def test_doc_indexes_do_recover_after_wholesale_reset(self):
        doc = make_doc()
        with doc.snapshot() as view:
            doc.rename(1, "alpha")
            doc.recompress()
            doc.index.invalidate_all()
            assert doc.tag_of(1) == "alpha"
            assert doc.count("//alpha") == 1
            assert view.tag_of(1) == "entry"


class TestSnapshotProperties:
    @given(xml_documents(max_elements=20), update_scripts(max_ops=8),
           shard_widths())
    @settings(max_examples=25, deadline=None)
    def test_every_pin_replays_to_pin_time_xml(self, tree, script, width):
        """Interleave a snapshot between every update: at the end each
        pinned view still serializes to the document as it was at its
        pin, and closing them all releases every overlay."""
        doc = CompressedXml.from_document(tree, shard_width=width)
        pinned = [(doc.snapshot(), doc.to_xml())]
        for _ in replay(doc, script):
            pinned.append((doc.snapshot(), doc.to_xml()))
        for view, expected in pinned:
            assert view.to_xml() == expected
            assert view.element_count == \
                expected.count("<") - expected.count("</")
        for view, _ in pinned:
            view.close()
        assert doc.grammar.pinned_epochs() == {}
        doc.grammar.validate()

    @given(xml_documents(max_elements=20), batch_scripts(max_ops=10),
           shard_widths())
    @settings(max_examples=20, deadline=None)
    def test_pins_survive_batches(self, tree, script, width):
        """Same invariant with whole batches (single mutation epoch,
        trailing reshard + auto-recompress) between the pins."""
        doc = CompressedXml.from_document(tree, shard_width=width)
        oracle = CompressedXml.from_document(tree)
        pinned = [(doc.snapshot(), doc.to_xml())]
        ops = concretize(oracle, script)
        for position in range(0, len(ops), 3):
            doc.apply_batch(ops[position:position + 3])
            pinned.append((doc.snapshot(), doc.to_xml()))
        assert doc.to_xml() == oracle.to_xml()
        for view, expected in pinned:
            assert view.to_xml() == expected
        for view, _ in pinned:
            view.close()
        assert doc.grammar.pinned_epochs() == {}


class _OverlayAudit:
    """Grammar observer: at every change notification the changed head
    must already sit in every reader-pinned overlay."""

    def __init__(self, grammar):
        self.grammar = grammar
        self.notifications = 0

    def _check(self, head):
        grammar = self.grammar
        self.notifications += 1
        for epoch in grammar._reader_pins_at:
            assert head in grammar._overlays[epoch], (head, epoch)

    rule_changed = rule_removed = _check


def read_surface(reader, paths=("//status", "/log/entry", "//*[2]")):
    """The pre-pin answers every pinned view must keep giving.  On the
    live document this doubles as the warm-up: it packs every rule and
    fills the ``_locations`` memo (both axis modes) for every element."""
    n = reader.element_count
    return {
        "xml": reader.to_xml(),
        "tags": [reader.tag_of(i) for i in range(n)],
        "parents": [reader.parent_of(i) for i in range(n)],
        "windows": list(reader.tags(0, n)),
        "subtree": reader.subtree_xml(min(1, n - 1)),
        "select": {path: reader.select(path) for path in paths},
    }


def _burst(doc):
    for _ in range(24):
        doc.append_child(0, XmlNode("burst", [XmlNode("x")]))


def _drain(doc):
    while doc.element_count > 4:
        doc.delete(doc.element_count - 1)


def _failing_batch(doc):
    with pytest.raises(IndexError):
        doc.apply_batch(
            [BatchRename(1, "pre"), BatchAppend(2, XmlNode("y")),
             BatchRename(10 ** 6, "x")],
            transactional=True,
        )


#: name -> (document kwargs, pre-pin preparation, the mutator under test)
MUTATORS = {
    "rename": ({}, None, lambda doc: doc.rename(2, "renamed")),
    "insert": ({}, None, lambda doc: doc.insert(
        3, parse_xml("<extra><deep/></extra>"))),
    "append_child": ({}, None, lambda doc: doc.append_child(
        1, XmlNode("tail", [XmlNode("leaf")]))),
    "delete": ({}, None, lambda doc: doc.delete(4)),
    "apply_batch": ({}, None, lambda doc: doc.apply_batch(
        [BatchRename(2, "x"), BatchInsert(3, XmlNode("n")),
         BatchAppend(4, XmlNode("z")), BatchDelete(7)])),
    "failing_batch": ({}, None, _failing_batch),
    "shard_split": ({"shard_width": 8}, None, _burst),
    "shard_merge": ({"shard_width": 8}, _burst, _drain),
    "recompress": ({}, _burst, lambda doc: doc.recompress()),
}


class TestWritePointPreservation:
    """Every in-place rewrite preserves at its *write* point.

    The live document's descents run on the flat kernel and the
    ``_locations`` memo, neither of which reads a rule body -- so no
    hooked ``rhs()`` read stands between a reader pin and the mutation.
    Each mutator is therefore driven on a fully warmed document with
    nothing in between, and the pinned view must not notice.
    """

    @pytest.mark.parametrize("name", sorted(MUTATORS))
    def test_mutator_preserves_without_intervening_reads(self, name):
        kwargs, prepare, mutate = MUTATORS[name]

        def build():
            doc = make_doc(**kwargs)
            if prepare is not None:
                prepare(doc)
            return doc

        twin = build()
        mutate(twin)

        doc = build()
        before = read_surface(doc)
        assert doc.index.kernel.rules_packed > 0
        shard_stats = doc.shard_manager.stats.to_dict()
        view = doc.snapshot()
        audit = _OverlayAudit(doc.grammar)
        doc.grammar.register_observer(audit)
        try:
            mutate(doc)
        finally:
            doc.grammar.unregister_observer(audit)
        assert audit.notifications > 0
        assert read_surface(view) == before
        view.close()
        assert doc.to_xml() == twin.to_xml()
        if name == "failing_batch":
            assert doc.to_xml() == before["xml"]
        if name == "shard_split":
            assert doc.shard_manager.stats.splits > shard_stats["splits"]
        if name == "shard_merge":
            assert doc.shard_manager.stats.merges > shard_stats["merges"]

    @given(xml_documents(max_elements=20), update_scripts(max_ops=8),
           shard_widths())
    @settings(max_examples=25, deadline=None)
    def test_overlapping_pins_at_different_epochs(self, tree, script, width):
        """Two reader pins, the second taken mid-script: both overlays
        hold every rewritten head at notification time, and both views
        keep their pin-time answers.  The expected answers come from a
        pin-free twin replaying the same script, so the pinned document
        itself is never read between operations."""
        doc = CompressedXml.from_document(tree, shard_width=width)
        twin = CompressedXml.from_document(tree, shard_width=width)
        paths = ("//a", "/a/b")
        read_surface(doc, paths)  # warm packs and memo before any pin
        pinned = [(doc.snapshot(), read_surface(twin, paths))]
        doc.grammar.register_observer(_OverlayAudit(doc.grammar))
        steps = zip(replay(doc, script), replay(twin, script))
        for position, _ in enumerate(steps):
            if position == len(script) // 2:
                pinned.append((doc.snapshot(), read_surface(twin, paths)))
        for view, surface in pinned:
            assert read_surface(view, paths) == surface
            view.close()
        assert doc.to_xml() == twin.to_xml()
        assert doc.grammar.pinned_epochs() == {}
        doc.grammar.validate()
