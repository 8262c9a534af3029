"""Binary snapshot round-trips: same document, zero re-census on reload."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CompressedXml
from repro.storage.snapshot import (
    SNAPSHOT_MAGIC,
    SnapshotError,
    document_element_count,
    read_snapshot,
    write_snapshot,
)
from repro.trees.unranked import XmlNode

from tests.strategies import shard_widths, xml_documents

WEBLOG = (
    "<log>"
    + "".join(
        f"<entry><ip/><status/><agent{i % 3}/></entry>" for i in range(12)
    )
    + "</log>"
)


def dirtied_doc(shard_width=None):
    """A document with real history: updates, so dirty-rule state,
    shard touches, and index segments are all non-trivial."""
    doc = CompressedXml.from_xml(WEBLOG, shard_width=shard_width)
    doc.rename(2, "ipaddr")
    doc.append_child(0, XmlNode("trailer", [XmlNode("checksum")]))
    doc.delete(6)
    return doc


def round_trip(doc, tmp_path):
    path = str(tmp_path / "doc.snapshot")
    doc.save_snapshot(path)
    return path, CompressedXml.from_snapshot_file(path)


class TestRoundTrip:
    @pytest.mark.parametrize("shard_width", [None, 8])
    def test_reload_is_the_same_document(self, tmp_path, shard_width):
        doc = dirtied_doc(shard_width)
        _, doc2 = round_trip(doc, tmp_path)
        assert doc2.to_xml() == doc.to_xml()
        assert doc2.element_count == doc.element_count
        assert doc2.compressed_size == doc.compressed_size
        doc2.grammar.validate()

    @pytest.mark.parametrize("shard_width", [None, 8])
    def test_reload_answers_without_recensus(self, tmp_path, shard_width):
        doc = dirtied_doc(shard_width)
        expected = doc.select("//status")
        _, doc2 = round_trip(doc, tmp_path)

        assert doc2.select("//status") == expected
        assert doc2.count("//entry") == doc.count("//entry")
        assert list(doc2.tags()) == list(doc.tags())
        assert doc2.tag_of(2) == doc.tag_of(2)
        # The whole point of persisting index state: the reload answered
        # everything above without censusing a single rule and without a
        # single wholesale invalidation.
        assert doc2.index.rules_censused == 0
        assert doc2.index.wholesale_invalidations == 0

    def test_reload_packs_no_kernel_rules_eagerly(self, tmp_path):
        """The flat-kernel analog of rules_censused == 0: importing the
        persisted segments must not build a single rule pack, and must
        not count as a wholesale kernel invalidation either."""
        doc = dirtied_doc()
        _, doc2 = round_trip(doc, tmp_path)
        kernel = doc2.index.kernel
        assert kernel.rules_packed == 0
        assert kernel.wholesale_invalidations == 0

    def test_reload_adopts_the_shard_spine(self, tmp_path):
        doc = dirtied_doc(shard_width=8)
        assert doc.shard_manager is not None
        _, doc2 = round_trip(doc, tmp_path)
        manager = doc2.shard_manager
        assert manager is not None
        assert manager.stats.reshard_runs == 0  # adopted, not rebuilt
        manager.check_invariants()
        width, prefix, parents = doc.shard_manager.export_state()
        width2, prefix2, parents2 = manager.export_state()
        assert (width2, prefix2) == (width, prefix)
        assert {h.name for h in parents2} == {h.name for h in parents}

    def test_reload_preserves_recompression_baseline(self, tmp_path):
        doc = dirtied_doc()
        _, doc2 = round_trip(doc, tmp_path)
        assert doc2._baselined == doc._baselined
        assert doc2._last_compressed_size == doc._last_compressed_size
        assert {h.name for h in doc2._dirty.changed} == \
            {h.name for h in doc._dirty.changed}

    def test_reloaded_document_accepts_further_updates(self, tmp_path):
        doc = dirtied_doc(shard_width=8)
        _, doc2 = round_trip(doc, tmp_path)
        doc.rename(1, "after")
        doc2.rename(1, "after")
        doc.append_child(0, XmlNode("more"))
        doc2.append_child(0, XmlNode("more"))
        assert doc2.to_xml() == doc.to_xml()
        doc2.recompress()
        assert doc2.to_xml() == doc.to_xml()


class TestRoundTripProperties:
    @settings(max_examples=25, deadline=None)
    @given(xml_documents(max_elements=20), st.one_of(st.none(),
                                                     shard_widths()))
    def test_snapshot_round_trip(self, tmp_path_factory, tree, width):
        doc = CompressedXml.from_document(tree, shard_width=width)
        if doc.element_count > 2:
            doc.rename(1, "renamed")
            doc.append_child(0, XmlNode("appended"))
        tmp = tmp_path_factory.mktemp("snap")
        path = str(tmp / "doc.snapshot")
        doc.save_snapshot(path)
        doc2 = CompressedXml.from_snapshot_file(path)
        assert doc2.to_xml() == doc.to_xml()
        assert doc2.element_count == doc.element_count
        assert list(doc2.tags()) == list(doc.tags())
        assert doc2.select("//a") == doc.select("//a")
        assert doc2.index.rules_censused == 0
        assert doc2.index.wholesale_invalidations == 0
        doc2.grammar.validate()


class TestCorruption:
    def snapshot_path(self, tmp_path):
        doc = dirtied_doc(shard_width=8)
        path = str(tmp_path / "doc.snapshot")
        doc.save_snapshot(path)
        return path

    def test_bit_flip_is_rejected(self, tmp_path):
        path = self.snapshot_path(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(30)
            byte = handle.read(1)
            handle.seek(30)
            handle.write(bytes([byte[0] ^ 0x40]))
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_truncation_is_rejected(self, tmp_path):
        path = self.snapshot_path(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(40)
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_bad_magic_is_rejected(self, tmp_path):
        path = str(tmp_path / "not.snapshot")
        with open(path, "wb") as handle:
            handle.write(b"NOTSNAP0" + b"\x00" * 32)
        with pytest.raises(SnapshotError, match="magic"):
            read_snapshot(path)

    def test_empty_file_is_rejected(self, tmp_path):
        path = str(tmp_path / "empty.snapshot")
        open(path, "wb").close()
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_element_count_cross_check(self, tmp_path):
        # A snapshot whose stored element count disagrees with what the
        # grammar actually derives is structurally corrupt even when the
        # checksum holds (the writer was broken, not the disk).
        doc = dirtied_doc()
        state = doc.export_state()
        assert state.element_count == \
            document_element_count(state.grammar)
        state.element_count += 1
        path = str(tmp_path / "lying.snapshot")
        write_snapshot(path, state)
        with pytest.raises(SnapshotError, match="element count"):
            read_snapshot(path)

    def test_write_is_atomic_no_temp_residue(self, tmp_path):
        path = self.snapshot_path(tmp_path)
        leftovers = [name for name in tmp_path.iterdir()
                     if name.name.endswith(".tmp")]
        assert leftovers == []
        with open(path, "rb") as handle:
            assert handle.read(8) == SNAPSHOT_MAGIC
