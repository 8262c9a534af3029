"""Tests for the CompressedXml facade."""

import pytest
from hypothesis import given, settings

from repro.api import CompressedXml
from repro.storage.durable import DurableXml
from repro.trees.unranked import XmlNode, xml_equal
from repro.trees.xml_io import parse_xml
from repro.updates.operations import UpdateError

from tests.strategies import xml_documents


def listy_xml(n=50, tag="e"):
    return "<log>" + f"<{tag}/>" * n + "</log>"


class TestConstruction:
    def test_from_xml_roundtrip(self):
        doc = CompressedXml.from_xml("<a><b/><c><d/></c></a>")
        assert doc.to_xml() == "<a><b/><c><d/></c></a>"

    def test_from_document(self):
        tree = XmlNode("r", [XmlNode("x"), XmlNode("x")])
        doc = CompressedXml.from_document(tree)
        assert xml_equal(doc.to_document(), tree)

    def test_uncompressed_mode(self):
        doc = CompressedXml.from_xml(listy_xml(50), compress=False)
        assert len(doc.grammar) == 1
        assert doc.to_xml() == listy_xml(50)

    def test_compression_happens(self):
        doc = CompressedXml.from_xml(listy_xml(200))
        assert doc.compressed_size < 60
        assert doc.compression_ratio < 0.3

    def test_file_roundtrip(self, tmp_path):
        source = tmp_path / "doc.xml"
        source.write_text(listy_xml(20))
        doc = CompressedXml.from_file(str(source))
        saved = tmp_path / "doc.grammar"
        doc.save_grammar(str(saved))
        loaded = CompressedXml.from_grammar_file(str(saved))
        assert loaded.to_xml() == listy_xml(20)

    def test_save_grammar_replaces_atomically(self, tmp_path):
        # Overwriting an existing grammar file goes through a temp file
        # + os.replace: a crash mid-save can never leave a half-written
        # grammar under the target name, and no temp residue survives.
        saved = tmp_path / "doc.grammar"
        CompressedXml.from_xml(listy_xml(10)).save_grammar(str(saved))
        CompressedXml.from_xml(listy_xml(30)).save_grammar(str(saved))
        loaded = CompressedXml.from_grammar_file(str(saved))
        assert loaded.to_xml() == listy_xml(30)
        assert [p.name for p in tmp_path.iterdir()
                if p.name.endswith(".tmp")] == []

    @given(xml_documents(max_elements=25))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, tree):
        doc = CompressedXml.from_document(tree)
        assert xml_equal(doc.to_document(), tree)


class TestInspection:
    def test_counts(self):
        doc = CompressedXml.from_xml("<a><b/><c><d/></c></a>")
        assert doc.element_count == 4
        assert doc.edge_count == 3

    def test_tags_stream(self):
        doc = CompressedXml.from_xml("<a><b/><c><d/></c></a>")
        assert list(doc.tags()) == ["a", "b", "c", "d"]

    def test_tag_of(self):
        doc = CompressedXml.from_xml("<a><b/><c><d/></c></a>")
        assert doc.tag_of(0) == "a"
        assert doc.tag_of(2) == "c"
        with pytest.raises(IndexError):
            doc.tag_of(4)

    def test_tags_window(self):
        doc = CompressedXml.from_xml(listy_xml(100))
        full = list(doc.tags())
        assert list(doc.tags(1, 4)) == full[1:4]
        assert list(doc.tags(50)) == full[50:]
        assert list(doc.tags(0, 10**9)) == full
        assert list(doc.tags(7, 7)) == []
        with pytest.raises(IndexError):
            list(doc.tags(-1, 3))

    def test_tags_window_degenerate_bounds(self):
        """The pinned window contract: islice-like, not list slicing.
        ``i >= j`` is empty, ``j`` past the end clamps, negative bounds
        raise instead of silently diverging from slicing semantics."""
        doc = CompressedXml.from_xml(listy_xml(10))
        count = doc.element_count
        full = list(doc.tags())
        # i == j (including both at 0 and both past the end)
        assert list(doc.tags(0, 0)) == []
        assert list(doc.tags(count, count)) == []
        # j > element_count clamps to the end
        assert list(doc.tags(count - 2, count + 50)) == full[count - 2:]
        # i at or past the end yields nothing (with or without a stop)
        assert list(doc.tags(count)) == []
        assert list(doc.tags(count + 5, count + 9)) == []
        # i > j yields nothing
        assert list(doc.tags(6, 2)) == []
        # negative bounds raise uniformly -- a negative stop used to be
        # silently treated as an empty window
        with pytest.raises(IndexError):
            list(doc.tags(-1))
        with pytest.raises(IndexError):
            list(doc.tags(2, -1))
        with pytest.raises(IndexError):
            list(doc.tags(-3, -1))

    def test_tags_window_after_updates(self):
        doc = CompressedXml.from_xml(listy_xml(40))
        doc.rename(5, "special")
        doc.insert(10, XmlNode("gap"))
        full = list(doc.tags())
        assert list(doc.tags(4, 12)) == full[4:12]
        assert full[5] == "special"

    def test_repr(self):
        doc = CompressedXml.from_xml("<a><b/></a>")
        assert "2 elements" in repr(doc)

    def test_zero_arg_tags_goes_through_the_index(self, monkeypatch):
        """Pinned: the no-argument/default-bounds form is the same indexed
        iterator as an explicit window -- no unindexed stream path left."""
        from repro.grammar.index import GrammarIndex

        calls = []
        original = GrammarIndex.iter_element_symbols

        def recording(self, start, stop=None):
            calls.append((start, stop))
            return original(self, start, stop)

        monkeypatch.setattr(GrammarIndex, "iter_element_symbols", recording)
        doc = CompressedXml.from_xml(listy_xml(30))
        full = list(doc.tags())
        assert full == ["log"] + ["e"] * 30
        assert list(doc.tags(None, 5)) == full[:5]
        assert list(doc.tags(3)) == full[3:]
        assert calls == [(0, None), (0, 5), (3, None)]


class TestElementIndexContract:
    """The unified bounds contract (one shared check): IndexError for
    negative or out-of-range element indices, TypeError for non-ints --
    identical across the API, grammar-update, and batch layers, and
    satisfied by everything ``select()`` returns."""

    def strict_entry_points(self, doc):
        """Element-addressed entry points that must range-check."""
        from repro.trees.unranked import XmlNode as N

        return [
            doc.tag_of,
            lambda i: doc.rename(i, "x"),
            lambda i: doc.insert(i, N("x")),
            lambda i: doc.append_child(i, N("x")),
            doc.delete,
            doc.parent_of,
            doc.depth_of,
            doc.first_child,
            doc.next_sibling,
            lambda i: list(doc.children(i)),
            doc.subtree_xml,
        ]

    def window_entry_points(self, doc):
        """Window bounds: same type/negativity rules, but clamping past
        the end is part of the pinned tags() contract."""
        return [
            lambda i: list(doc.tags(i)),
            lambda i: list(doc.tags(0, i)),
        ]

    def test_negative_indices_raise_index_error(self):
        doc = CompressedXml.from_xml("<a><b/><c/></a>")
        probes = self.strict_entry_points(doc) + self.window_entry_points(doc)
        for probe in probes:
            with pytest.raises(IndexError):
                probe(-1)

    def test_out_of_range_raises_index_error(self):
        doc = CompressedXml.from_xml("<a><b/><c/></a>")
        for probe in self.strict_entry_points(doc):
            with pytest.raises(IndexError):
                probe(99)
        for probe in self.window_entry_points(doc):
            assert probe(99) in ([], ["a", "b", "c"])  # clamped, no raise

    def test_non_int_indices_raise_type_error(self):
        doc = CompressedXml.from_xml("<a><b/><c/></a>")
        probes = self.strict_entry_points(doc) + self.window_entry_points(doc)
        for probe in probes:
            for bad in (1.5, "1", True):
                with pytest.raises(TypeError):
                    probe(bad)

    def test_grammar_layer_uses_index_error_too(self):
        from repro.updates import grammar_updates

        doc = CompressedXml.from_xml("<a><b/><c/></a>")
        for bad in (-1, 10**6):
            with pytest.raises(IndexError):
                grammar_updates.rename(doc.grammar, bad, "x")
            with pytest.raises(IndexError):
                grammar_updates.delete(doc.grammar, bad)

    def test_batch_layer_parity(self):
        from repro.updates.batch import BatchDelete, BatchRename

        with pytest.raises(IndexError):
            BatchRename(-1, "x")
        with pytest.raises(TypeError):
            BatchRename(1.5, "x")
        with pytest.raises(TypeError):
            BatchDelete(True)

    def test_select_results_satisfy_the_contract(self):
        doc = CompressedXml.from_xml("<a><b/><c><b/></c></a>")
        for index in doc.select("//b"):
            assert doc.tag_of(index) == "b"  # no raise: in-range ints


class TestQueries:
    def test_select_count_subtree(self):
        doc = CompressedXml.from_xml(
            "<log><entry><ip/></entry><entry><status/></entry></log>"
        )
        assert doc.select("/log/entry") == [1, 3]
        assert doc.select("//status") == [4]
        assert doc.count("//entry") == 2
        assert doc.subtree_xml(3) == "<entry><status/></entry>"

    def test_select_update_select(self):
        """The quickstart loop: select, batch-update the hits, re-select."""
        doc = CompressedXml.from_xml(
            "<log>" + "<entry><status/></entry>" * 5 + "</log>"
        )
        hits = doc.select("//status")
        assert len(hits) == 5
        with doc.batch() as batch:
            for index in hits:
                batch.rename(index, "code")
        assert doc.select("//status") == []
        assert doc.select("//code") == hits
        assert doc.index.wholesale_invalidations == 0

    def test_malformed_path_raises_value_error(self):
        from repro.query.parser import QuerySyntaxError

        doc = CompressedXml.from_xml("<a/>")
        with pytest.raises(QuerySyntaxError):
            doc.select("entry")
        with pytest.raises(ValueError):
            doc.count("//a[0]")

    def test_label_census_computed_lazily(self):
        doc = CompressedXml.from_xml("<a><b/></a>")
        assert doc.index.censused_rule_count == 0
        doc.rename(1, "c")  # write path never computes it
        assert doc.index.censused_rule_count == 0
        assert doc.count("//c") == 1
        assert doc.index.censused_rule_count > 0


class TestUpdates:
    def test_rename_by_element_index(self):
        doc = CompressedXml.from_xml("<a><b/><b/><b/></a>")
        doc.rename(2, "mid")
        assert doc.to_xml() == "<a><b/><mid/><b/></a>"

    def test_insert_before_element(self):
        doc = CompressedXml.from_xml("<a><b/><c/></a>")
        doc.insert(2, XmlNode("x", [XmlNode("y")]))
        assert doc.to_xml() == "<a><b/><x><y/></x><c/></a>"

    def test_insert_multiple_siblings(self):
        doc = CompressedXml.from_xml("<a><b/></a>")
        doc.insert(1, [XmlNode("p"), XmlNode("q")])
        assert doc.to_xml() == "<a><p/><q/><b/></a>"

    def test_append_child_to_leaf(self):
        doc = CompressedXml.from_xml("<a><b/><c/></a>")
        doc.append_child(1, XmlNode("inner"))
        assert doc.to_xml() == "<a><b><inner/></b><c/></a>"

    def test_append_child_after_existing_children(self):
        doc = CompressedXml.from_xml("<a><b><x/><y/></b></a>")
        doc.append_child(1, XmlNode("z"))
        assert doc.to_xml() == "<a><b><x/><y/><z/></b></a>"

    def test_append_child_to_root(self):
        doc = CompressedXml.from_xml("<a><b/></a>")
        doc.append_child(0, XmlNode("tail"))
        assert doc.to_xml() == "<a><b/><tail/></a>"

    def test_delete_element(self):
        doc = CompressedXml.from_xml("<a><b><x/></b><c/></a>")
        doc.delete(1)
        assert doc.to_xml() == "<a><c/></a>"

    def test_append_child_to_last_element(self):
        """Regression: the parent is the last element in document order,
        so its child-list terminator is the last ``⊥`` of the parent's
        subtree -- the off-the-end case of ``end_of_children_position``."""
        doc = CompressedXml.from_xml("<a><b/><c/></a>")
        doc.append_child(2, XmlNode("tail"))
        assert doc.to_xml() == "<a><b/><c><tail/></c></a>"

    def test_append_child_to_deep_last_element(self):
        """The terminator of the deepest-last element sits immediately
        before the whole ancestor chain's closing ``⊥`` run."""
        doc = CompressedXml.from_xml("<a><b><c><d/></c></b></a>")
        doc.append_child(3, XmlNode("tail"))
        assert doc.to_xml() == "<a><b><c><d><tail/></d></c></b></a>"
        # And again on the fresh last element -- the previous tail.
        doc.append_child(4, XmlNode("deeper"))
        assert doc.to_xml() == \
            "<a><b><c><d><tail><deeper/></tail></d></c></b></a>"

    def test_append_child_to_last_element_at_scale(self):
        """Same regression against a heavily shared (compressed) grammar
        and after earlier updates dirtied the index."""
        doc = CompressedXml.from_xml(listy_xml(200))
        doc.rename(7, "touched")
        last = doc.element_count - 1
        doc.append_child(last, [XmlNode("x"), XmlNode("y")])
        plain = parse_xml(doc.to_xml())
        assert [child.tag for child in plain.children[-1].children] == ["x", "y"]
        assert doc.element_count == 203

    def test_append_child_parent_out_of_range(self):
        doc = CompressedXml.from_xml("<a><b/></a>")
        with pytest.raises(IndexError):
            doc.append_child(2, XmlNode("x"))

    def test_delete_only_child_keeps_encoding_well_formed(self):
        """Regression: deleting a parent's only child must leave the
        emptied child list as a bare ``⊥`` slot, still decodable and
        still updatable."""
        doc = CompressedXml.from_xml("<a><b><c/></b><d/></a>")
        doc.delete(2)  # c is b's only child
        assert doc.to_xml() == "<a><b/><d/></a>"
        doc.grammar.validate()
        # The emptied child list accepts a fresh append.
        doc.append_child(1, XmlNode("again"))
        assert doc.to_xml() == "<a><b><again/></b><d/></a>"

    def test_delete_only_child_of_root(self):
        doc = CompressedXml.from_xml("<a><b><x/><y/></b></a>")
        doc.delete(1)  # b is the root's only child; its subtree goes too
        assert doc.to_xml() == "<a/>"
        assert doc.element_count == 1
        doc.grammar.validate()
        doc.append_child(0, XmlNode("fresh"))
        assert doc.to_xml() == "<a><fresh/></a>"

    def test_delete_nested_only_children_at_scale(self):
        doc = CompressedXml.from_xml(
            "<log>" + "<s><only><leaf/></only></s>" * 40 + "</log>"
        )
        # Delete the <only> (single child of <s>) of the first section.
        doc.delete(2)
        plain = parse_xml(doc.to_xml())
        assert plain.children[0].children == []
        assert plain.children[1].children[0].tag == "only"
        doc.grammar.validate()

    def test_delete_root_rejected(self):
        doc = CompressedXml.from_xml("<a><b/></a>")
        with pytest.raises(UpdateError):
            doc.delete(0)

    def test_delete_root_rejected_is_value_error_and_mutation_free(self):
        """The rejection must be a clear ValueError and must not have
        touched the grammar (no isolation growth, no corruption)."""
        doc = CompressedXml.from_xml(listy_xml(20))
        size_before = doc.compressed_size
        with pytest.raises(ValueError, match="root"):
            doc.delete(0)
        assert doc.compressed_size == size_before
        assert doc.updates_applied == 0
        doc.grammar.validate()
        assert doc.to_xml() == listy_xml(20)

    def test_delete_root_rejected_at_grammar_level(self):
        from repro.updates import grammar_updates

        doc = CompressedXml.from_xml("<a><b/><c/></a>")
        with pytest.raises(ValueError, match="root"):
            grammar_updates.delete(doc.grammar, 0)
        doc.grammar.validate()

    def test_update_counter(self):
        doc = CompressedXml.from_xml("<a><b/><c/></a>")
        doc.rename(1, "z")
        doc.delete(2)
        assert doc.updates_applied == 2

    def test_update_sequence_end_to_end(self):
        doc = CompressedXml.from_xml(listy_xml(30))
        doc.rename(5, "special")
        doc.insert(10, XmlNode("gap"))
        doc.delete(20)
        doc.recompress()
        plain = parse_xml(doc.to_xml())
        assert plain.children[4].tag == "special"
        assert plain.children[9].tag == "gap"
        assert len(plain.children) == 30  # +1 insert, -1 delete


#: Values no element may be named: nothing ``parse_xml`` reads back and
#: no label path can address.
BAD_TAGS = ["", "a b", "<x>", "1x", "a/b", 5, None]


class TestInvalidTagsAreRejected:
    """One bad tag used to poison the document (``to_xml`` raising, or
    emitting text ``parse_xml`` rejects): every write entry point names
    it an ``UpdateError`` before anything changes."""

    XML = "<a><b/><c><d/></c></a>"

    def unchanged(self, doc, epoch):
        return doc.to_xml() == self.XML and doc.grammar.epoch == epoch

    @pytest.mark.parametrize("tag", BAD_TAGS, ids=repr)
    def test_rename(self, tag):
        from repro.updates.batch import BatchRename

        doc = CompressedXml.from_xml(self.XML)
        epoch = doc.grammar.epoch
        with pytest.raises(UpdateError, match="invalid element tag"):
            doc.rename(1, tag)
        with pytest.raises(UpdateError, match="invalid element tag"):
            BatchRename(1, tag)
        with pytest.raises(UpdateError, match="invalid element tag"):
            doc.batch().rename(1, tag)
        assert self.unchanged(doc, epoch)

    @pytest.mark.parametrize("tag", ["a b", "<x>", "1x"])
    def test_inserted_and_appended_content(self, tag):
        from repro.updates.batch import BatchAppend, BatchInsert

        doc = CompressedXml.from_xml(self.XML)
        epoch = doc.grammar.epoch
        for content in (XmlNode(tag), [XmlNode("ok"), XmlNode(tag)],
                        XmlNode("ok", [XmlNode("fine", [XmlNode(tag)])])):
            for attempt in (
                lambda: doc.insert(1, content),
                lambda: doc.append_child(1, content),
                lambda: BatchInsert(1, content),
                lambda: BatchAppend(1, content),
            ):
                with pytest.raises(UpdateError, match="invalid element tag"):
                    attempt()
        assert self.unchanged(doc, epoch)

    def test_valid_names_still_pass(self):
        doc = CompressedXml.from_xml(self.XML)
        for tag in ("x", "_x", "ns:x", "x-1.2", "X_9"):
            doc.rename(1, tag)
            assert parse_xml(doc.to_xml()).children[0].tag == tag


class TestMaintenance:
    def test_option_surface_is_the_tracked_one(self, tmp_path):
        """The independently settable values, by name (4 / 5 / 2 / 3,
        and the durable constructors'): one recompression loop with one
        census per run, one commit path, one resolver per walk and one
        shard constructor, so no parameter selects another -- and, with
        no catch-all reaching past the document, a retired name is a
        ``TypeError``."""
        from inspect import signature

        from repro.core.grammar_repair import GrammarRePair, grammar_repair
        from repro.core.occurrence_index import GrammarOccurrenceIndex
        from repro.grammar.navigation import stream_elements
        from repro.grammar.sharding import ShardManager
        from repro.updates.path_isolation import isolate

        assert list(signature(CompressedXml).parameters)[1:] == [
            "kin", "auto_recompress_factor", "shard_width", "metrics"]
        assert list(signature(GrammarRePair).parameters) == [
            "kin", "prune", "optimized", "round_hook", "barriers"]
        assert list(signature(ShardManager).parameters) == [
            "grammar", "width"]
        assert list(signature(grammar_repair).parameters)[1:] == [
            "kin", "prune", "optimized"]
        # One census per run: no call selects a scoped one.
        assert list(signature(CompressedXml.recompress).parameters) == [
            "self"]
        assert list(signature(GrammarRePair.compress).parameters)[1:] == [
            "grammar", "in_place", "budget"]
        assert list(
            signature(GrammarOccurrenceIndex.build).parameters) == ["self"]
        with pytest.raises(TypeError):
            CompressedXml.from_xml("<a><b/></a>", no_such_option=True)
        # Every document is sharded: no width is not a mode.
        with pytest.raises(TypeError):
            CompressedXml.from_xml("<a/>", shard_width=None)
        assert list(signature(isolate).parameters) == [
            "grammar", "index", "steps", "spine"]
        assert list(signature(stream_elements).parameters) == ["grammar"]

        durable = ["io", "checkpoint_wal_bytes", "wal_segment_bytes", "retry"]
        assert list(signature(DurableXml.create).parameters) == [
            "directory", "document", *durable, "overwrite"]
        assert list(signature(DurableXml.from_xml).parameters) == [
            "directory", "text", *durable, "overwrite", "doc_kwargs"]
        assert list(signature(DurableXml.open).parameters) == [
            "directory", *durable, "doc_kwargs"]
        directory = str(tmp_path / "store")
        with pytest.raises(TypeError):
            DurableXml.create(directory, CompressedXml.from_xml("<a/>"),
                              group_commit=True)
        with pytest.raises(TypeError):
            DurableXml.from_xml(directory, "<a/>", group_commit=True)
        DurableXml.from_xml(directory, "<a><b/></a>").close()
        with pytest.raises(TypeError):
            DurableXml.open(directory, group_commit=True)

    def test_recompress_shrinks_after_updates(self):
        doc = CompressedXml.from_xml(listy_xml(300))
        for index in (3, 50, 100, 150, 200):
            doc.rename(index, f"t{index}")
        inflated = doc.compressed_size
        doc.recompress()
        assert doc.compressed_size <= inflated

    def test_auto_recompress_policy(self):
        doc = CompressedXml.from_xml(
            listy_xml(300), auto_recompress_factor=1.5
        )
        sizes = []
        for step in range(25):
            doc.rename(7 * step % 290 + 1, f"n{step}")
            sizes.append(doc.compressed_size)
        # The automatic policy must have bounded the growth.  Each rename
        # introduces a fresh singleton label the grammar must spell out, so
        # the bound accounts for the 25 new labels too.
        baseline = CompressedXml.from_xml(listy_xml(300)).compressed_size
        assert max(sizes) <= 8 * baseline

    def test_manual_policy_grows_unboundedly_in_comparison(self):
        auto = CompressedXml.from_xml(listy_xml(300),
                                      auto_recompress_factor=1.5)
        manual = CompressedXml.from_xml(listy_xml(300))
        for step in range(25):
            position = 7 * step % 290 + 1
            auto.rename(position, f"n{step}")
            manual.rename(position, f"n{step}")
        assert auto.compressed_size <= manual.compressed_size
