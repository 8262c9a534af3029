"""Binary snapshot round-trips: same document, zero re-census on reload."""

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CompressedXml, DurableXml
from repro.core.grammar_repair import GrammarRePair
from repro.datasets.synthetic import make_corpus
from repro.grammar.derivation import expand
from repro.grammar.index import GrammarIndex
from repro.grammar.sharding import DEFAULT_SHARD_WIDTH
from repro.storage.snapshot import (
    SNAPSHOT_MAGIC,
    DocumentState,
    SnapshotError,
    _collect_symbols,
    _put_uvarint,
    _Reader,
    decode_state,
    document_element_count,
    encode_state,
    read_snapshot,
    write_snapshot,
)
from repro.trees.binary import decode_binary, encode_binary
from repro.trees.symbols import Alphabet
from repro.trees.unranked import XmlNode
from repro.trees.xml_io import serialize_xml
from repro.updates.batch import BatchAppend, apply_batch_op

from tests.strategies import shard_widths, xml_documents

WEBLOG = (
    "<log>"
    + "".join(
        f"<entry><ip/><status/><agent{i % 3}/></entry>" for i in range(12)
    )
    + "</log>"
)


def dirtied_doc(shard_width=DEFAULT_SHARD_WIDTH):
    """A document with real history: updates, so shard touches and
    index segments are non-trivial."""
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
    @pytest.mark.parametrize("shard_width", [DEFAULT_SHARD_WIDTH, 8])
    def test_reload_is_the_same_document(self, tmp_path, shard_width):
        doc = dirtied_doc(shard_width)
        _, doc2 = round_trip(doc, tmp_path)
        assert doc2.to_xml() == doc.to_xml()
        assert doc2.element_count == doc.element_count
        assert doc2.compressed_size == doc.compressed_size
        doc2.grammar.validate()

    @pytest.mark.parametrize("shard_width", [DEFAULT_SHARD_WIDTH, 8])
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
        assert doc.shard_manager.shard_count > 0
        _, doc2 = round_trip(doc, tmp_path)
        manager = doc2.shard_manager
        # Adopted, not rebuilt: the constructor's pass over the start
        # rule found it inside the budget.
        assert (manager.stats.splits, manager.stats.merges) == (0, 0)
        manager.check_invariants()
        width, parents = doc.shard_manager.export_state()
        width2, parents2 = manager.export_state()
        assert width2 == width
        assert {h.name for h in parents2} == {h.name for h in parents}

    def test_reload_preserves_recompression_baseline(self, tmp_path):
        doc = dirtied_doc()
        _, doc2 = round_trip(doc, tmp_path)
        assert doc2._last_compressed_size == doc._last_compressed_size

    @pytest.mark.parametrize("shard_width", [DEFAULT_SHARD_WIDTH, 8])
    def test_legacy_dirty_rule_list_is_read_and_discarded(self, shard_width):
        """Flag bit0 and the trailing dirty-rule list are legacy: the
        writer clears and empties them, and bytes that set them still
        load into the same document."""
        doc = dirtied_doc(shard_width)
        data = encode_state(doc.export_state())
        body = data[len(SNAPSHOT_MAGIC):-4]
        reader = _Reader(body)
        for _ in range(3):  # version, kin, element_count
            reader.uvarint()
        flags = reader.pos
        assert body[flags] & 1 == 0 and body[-1] == 0  # as written
        ids = {symbol: i for i, symbol in
               enumerate(_collect_symbols(doc.grammar))}
        legacy = bytearray(body[:flags])
        legacy.append(body[flags] | 1)
        legacy.extend(body[flags + 1:-1])
        heads = sorted(ids[head] for head in doc.grammar.rules)
        _put_uvarint(legacy, len(heads))
        for head_id in heads:
            _put_uvarint(legacy, head_id)
        old = decode_state(SNAPSHOT_MAGIC + bytes(legacy)
                           + struct.pack("<I", zlib.crc32(legacy)))
        doc2 = CompressedXml.from_state(old)
        assert doc2.to_xml() == doc.to_xml()
        assert doc2.compressed_size == doc.compressed_size
        assert doc2._last_compressed_size == doc._last_compressed_size
        assert encode_state(doc2.export_state()) == data

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


class TestUnshardedSnapshotsShardOnImport:
    """A snapshot written before every document was sharded has flag
    bit1 clear and no shard section; it loads sharded, through the
    constructor's reshard."""

    def test_a_start_rule_past_the_budget_loads_sharded(self, tmp_path):
        # What an unsharded writer held: a compressed grammar whose start
        # rule grew by isolation, with no spine to descend through.
        alphabet = Alphabet()
        grammar = GrammarRePair(kin=4).compress_tree(
            encode_binary(make_corpus("EXI-Weblog", 2000, seed=5),
                          alphabet), alphabet)
        index = GrammarIndex(grammar)
        for i in range(400):
            apply_batch_op(grammar, index,
                           BatchAppend(0, XmlNode(f"tail{i % 7}")))
        width = DEFAULT_SHARD_WIDTH
        assert grammar.rule_width(grammar.start) > 2 * width
        expected = serialize_xml(decode_binary(expand(grammar)))
        segments, label_counts = index.export_segments()
        data = encode_state(DocumentState(
            grammar=grammar, kin=4, element_count=index.element_count,
            last_compressed_size=grammar.size, segments=segments,
            label_counts=label_counts))
        flags = _Reader(data[len(SNAPSHOT_MAGIC):-4])
        for _ in range(3):  # version, kin, element_count
            flags.uvarint()
        assert data[len(SNAPSHOT_MAGIC) + flags.pos] & 2 == 0

        doc = CompressedXml.from_state(decode_state(data))
        manager = doc.shard_manager
        assert manager.shard_count > 0
        assert manager.max_spine_width() <= 2 * width
        manager.check_invariants()
        assert doc.to_xml() == expected
        assert doc.count("//ip") == expected.count("<ip/>")
        with DurableXml.create(str(tmp_path / "store"), doc) as store:
            assert store.scrub().ok


class TestBytesAreAFunctionOfTheDocument:
    """Neither the order queries filled the caches in nor a census that
    writes patched (its labels in another insertion order than a cold
    one's) shows in the snapshot bytes."""

    XMARK = serialize_xml(make_corpus("XMark", 2000, seed=1))

    def xmark(self, queries=()):
        doc = CompressedXml.from_xml(self.XMARK, shard_width=64)
        for path in queries:
            doc.select(path)
        doc.rename(50, "name")
        return doc

    def test_queries_run_first_do_not_show(self):
        plain = self.xmark()
        queried = self.xmark(("//item//listitem", "//name"))
        assert plain.to_xml() == queried.to_xml()
        assert encode_state(plain.export_state()) == \
            encode_state(queried.export_state())

    def test_patched_censuses_do_not_show(self):
        doc = self.xmark()
        doc.count("//name")  # every rule censused
        evicted = doc.index.censuses_evicted
        for at in (60, 70, 80):
            doc.rename(at, "bold")
        doc.append_child(90, XmlNode("bidder"))
        doc.delete(100)
        assert doc.index.censuses_evicted == evicted  # patched, not dropped
        patched = encode_state(doc.export_state())
        doc.index.invalidate_all()
        assert encode_state(doc.export_state()) == patched


class TestRoundTripProperties:
    @settings(max_examples=25, deadline=None)
    @given(xml_documents(max_elements=20), st.one_of(
        st.just(DEFAULT_SHARD_WIDTH), shard_widths()))
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
