"""Spine sharding: shard invariants, balance, and behavioral stability.

Three layers of guarantees:

* **unit**: splitting preserves the generated tree, keeps every spine
  rule inside the ``2 * width`` budget, keeps the shard hierarchy
  balanced (polylog reference depth), and merges underweight shards;
* **property**: a ``CompressedXml`` at a small width and a
  default-width twin (for these small documents, one shard-free start
  rule) stay observationally equal
  across random ``update_scripts`` / ``batch_scripts``, ``to_document``
  is identical before and after every ``reshard()``, and select / tags /
  navigation answers are stable across shard splits;
* **index locality**: splits and merges are local observer events --
  the structural and label indexes never invalidate wholesale.
"""

import random

import pytest
from hypothesis import given, settings

from benchmarks.e2e.model import FlatDoc
from repro.api import CompressedXml
from repro.datasets.synthetic import make_corpus
from repro.grammar.navigation import stream_elements
from repro.grammar.sharding import DEFAULT_SHARD_WIDTH, MIN_SHARD_WIDTH
from repro.grammar.slcf import GrammarError
from repro.trees.unranked import XmlNode

from tests.strategies import (
    batch_scripts,
    shard_widths,
    update_scripts,
    xml_documents,
)
from tests.updates.test_batch import concretize
from tests.core.test_repeatability import write
from tests.grammar.test_index import replay_script

CHAIN = "<log>" + "<e><a/><b/></e>" * 200 + "</log>"


class TestSplitting:
    def test_split_preserves_tree_and_bounds_width(self):
        doc = CompressedXml.from_xml(CHAIN, compress=False, shard_width=16)
        manager = doc.shard_manager
        assert manager.shard_count > 5
        assert manager.max_spine_width() <= 2 * 16
        assert doc.to_xml() == CHAIN
        manager.check_invariants()
        doc.grammar.validate()

    def test_sibling_chain_shard_depth_is_polylog(self):
        """A pure sibling chain is the worst case update traffic leaves:
        naive segmenting gives a reference *chain* (depth ~ n / width);
        the composition hierarchy must stay polylogarithmic."""
        doc = CompressedXml.from_xml(
            "<log>" + "<e/>" * 3000 + "</log>", compress=False,
            shard_width=16,
        )
        manager = doc.shard_manager
        shards = manager.shard_count
        assert shards > 50
        # Generous polylog envelope; a chain decomposition would be
        # ~shards deep and fail by an order of magnitude.
        assert manager.spine_depth() <= 16

    def test_width_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            CompressedXml.from_xml("<a><b/></a>",
                                   shard_width=MIN_SHARD_WIDTH - 1)

    def test_small_document_holds_no_shard(self):
        doc = CompressedXml.from_xml("<a><b/><c/></a>", shard_width=64)
        assert doc.shard_manager.shard_count == 0

    def test_updates_trigger_splits_and_keep_budget(self):
        doc = CompressedXml.from_xml("<log><e/></log>", shard_width=16)
        for _ in range(150):
            doc.append_child(0, XmlNode("entry"))
        manager = doc.shard_manager
        assert manager.shard_count > 0
        assert manager.max_spine_width() <= 2 * 16
        manager.check_invariants()
        doc.grammar.validate()

    def test_deletes_trigger_merges(self):
        # compress=False: the repetitive document would otherwise shrink
        # below the width budget before the manager ever sees it.
        doc = CompressedXml.from_xml(
            "<log>" + "<e><a/><b/></e>" * 120 + "</log>",
            shard_width=16, compress=False,
        )
        manager = doc.shard_manager
        assert manager.shard_count > 0
        while doc.element_count > 2:
            doc.delete(1)
        assert manager.stats.merges + manager.stats.collected > 0
        assert doc.to_xml() == "<log><e><a/></e></log>" or doc.element_count <= 3
        manager.check_invariants()
        doc.grammar.validate()

    def test_root_operations_still_guarded(self):
        from repro.updates.operations import UpdateError

        doc = CompressedXml.from_xml(CHAIN, shard_width=16)
        with pytest.raises(UpdateError):
            doc.delete(0)
        from repro.updates.batch import BatchInsert

        with pytest.raises(UpdateError):
            doc.insert(0, XmlNode("pre"))  # would create a forest
        with pytest.raises(UpdateError):
            doc.apply_batch([BatchInsert(0, XmlNode("pre"))])
        doc.rename(0, "journal")
        assert doc.tag_of(0) == "journal"

    def test_grammar_level_root_delete_guard_survives_sharding(self):
        """The root terminal may live inside a chunk shard's body after
        the start rule decomposes; the grammar-level delete guard must
        recognize the document root by preorder index, not by being the
        start RHS root (review finding)."""
        from repro.updates import grammar_updates
        from repro.updates.operations import UpdateError

        doc = CompressedXml.from_xml(CHAIN, shard_width=16, compress=False)
        manager = doc.shard_manager
        assert manager.shard_count > 0
        position, steps = doc.index.resolve_element(0)
        with pytest.raises(UpdateError):
            grammar_updates.delete(
                doc.grammar, position, steps=steps, spine=manager,
            )
        assert doc.to_xml().startswith("<log>")  # document intact


class TestEagerMerge:
    def test_a_thinned_shard_merges_in_the_pass_that_finds_it(self):
        """At width 16 an append splits the start rule into chunk
        shards; deletes then thin the chunk holding element 1.  It
        merges in the reshard pass of the delete that takes it under
        ``W // 2`` -- no grace period holds a freshly minted shard."""
        width = 16
        doc = CompressedXml.from_xml("<log><e/></log>", shard_width=width)
        manager = doc.shard_manager
        while manager.stats.splits == 0:
            doc.append_child(0, XmlNode("e"))
        minted = set(manager.heads)
        widths = {head: manager.width_of(head) for head in minted}
        expected = FlatDoc.from_xml(doc.to_xml())

        def delete_first():
            doc.delete(1)
            expected.delete(1)

        delete_first()
        [target] = [head for head in minted
                    if manager.width_of(head) < widths[head]]
        while target in manager.heads:
            assert manager.width_of(target) >= width // 2
            delete_first()
        assert manager.stats.history[-1] == \
            f"merge {target.name} -> {doc.grammar.start.name}"
        # Two merges: the target, and the split's one-node last chunk
        # in the pass that minted it.
        assert (manager.stats.splits, manager.stats.merges) == (1, 2)
        assert doc.to_xml() == expected.to_xml()
        manager.check_invariants()

    def test_a_split_merges_the_tiny_chunks_it_minted(self):
        """XMark at width 64 under the repeatability stream: write 31
        splits ``Sp_2`` and cuts its path into chunks, the last one a
        single node.  No write touches that chunk, so only the pass that
        minted it can merge it.  A shard a split carves off is larger
        than ``W // 4``, so after every pass no shard is narrower."""
        width = 64
        doc = CompressedXml.from_document(
            make_corpus("XMark", edges=4000, seed=5), shard_width=width)
        manager = doc.shard_manager
        rng = random.Random(11)
        for _ in range(60):
            write(doc, rng)
            assert min(map(manager.width_of, manager.heads)) > width // 4
        assert "split Sp_2[130] +3" in manager.stats.history
        assert manager.stats.merges >= 3
        manager.check_invariants()


class TestAdoptedHierarchy:
    """A snapshot's shard section is adopted, not rebuilt, so it is
    checked against the grammar it came with."""

    @staticmethod
    def sharded_state():
        doc = CompressedXml.from_xml(CHAIN, shard_width=16, compress=False)
        assert doc.shard_manager.shard_count > 2
        return doc.export_state()

    def test_a_parent_naming_a_missing_rule_is_rejected(self):
        state = self.sharded_state()
        ghost = state.grammar.alphabet.fresh_nonterminal(0, "Sp")
        state.shard.parents[ghost] = state.grammar.start
        with pytest.raises(GrammarError, match="has no rule"):
            CompressedXml.from_state(state)

    def test_a_parent_map_off_the_reference_site_is_rejected(self):
        state = self.sharded_state()
        parents = state.shard.parents
        head, owner = next(iter(parents.items()))
        parents[head] = next(
            rule for rule in (state.grammar.start, *parents)
            if rule is not owner and rule is not head
        )
        with pytest.raises(GrammarError, match="parent map says"):
            CompressedXml.from_state(state)


class TestGrammarFilesShardOnImport:
    def test_a_saved_sharded_grammar_reloads_and_stays_in_budget(
            self, tmp_path):
        """The text format holds no shard section: a sharded document's
        shard rules come back as ordinary rules, and the reloaded
        document's own manager keeps the spine in budget."""
        width = 16
        doc = CompressedXml.from_xml(CHAIN, shard_width=width,
                                     compress=False)
        assert doc.shard_manager.shard_count > 0
        first = str(tmp_path / "a.grammar")
        second = str(tmp_path / "b.grammar")
        doc.save_grammar(first)
        loaded = CompressedXml.from_grammar_file(first, shard_width=width)
        assert loaded.to_xml() == CHAIN
        assert loaded.compressed_size == doc.compressed_size
        loaded.save_grammar(second)
        again = CompressedXml.from_grammar_file(second, shard_width=width)
        assert again.to_xml() == CHAIN
        for i in range(200):
            again.append_child(0, XmlNode(f"t{i % 3}"))
        manager = again.shard_manager
        assert manager.max_spine_width() <= 2 * width
        manager.check_invariants()
        again.grammar.validate()


class TestIndexLocality:
    def test_splits_and_merges_never_invalidate_wholesale(self):
        doc = CompressedXml.from_xml(CHAIN, shard_width=16,
                                     auto_recompress_factor=2.0)
        doc.count("//e")  # materialize the label censuses
        for i in range(80):
            doc.append_child(0, XmlNode("entry"))
            if i % 3 == 0:
                doc.delete(1)
        manager = doc.shard_manager
        assert manager.stats.splits > 0
        assert doc.index.wholesale_invalidations == 0
        assert doc.index.evicted_rules > 0  # per-rule, not wholesale

    def test_shard_eviction_is_ancestor_scoped(self):
        """Mutating a deep element evicts the touched shard plus its
        ancestor chain -- a bounded slice, not the whole cache."""
        doc = CompressedXml.from_xml(
            "<log>" + "<e/>" * 2000 + "</log>", shard_width=16
        )
        list(doc.tags())  # materialize every rule's tables
        cached_before = len(doc.index.cached_rules())
        evicted_before = doc.index.evicted_rules
        doc.rename(1900, "deep")
        evicted = doc.index.evicted_rules - evicted_before
        assert evicted < cached_before / 4, (
            f"one deep rename evicted {evicted} of {cached_before} "
            "cached rules; shard eviction must be ancestor-scoped"
        )


class TestShardInvariantProperties:
    @given(xml_documents(max_elements=25), update_scripts(max_ops=10),
           shard_widths())
    @settings(max_examples=25, deadline=None)
    def test_update_scripts_match_default_width_twin(self, tree, script,
                                                     width):
        sharded = CompressedXml.from_document(tree, shard_width=width)
        plain = CompressedXml.from_document(tree)
        for _ in replay_script(sharded, script):
            pass
        for _ in replay_script(plain, script):
            pass
        assert sharded.to_xml() == plain.to_xml()
        sharded.grammar.validate()
        sharded.shard_manager.check_invariants()
        assert sharded.shard_manager.max_spine_width() <= 2 * width

    @given(xml_documents(max_elements=25), update_scripts(max_ops=8),
           shard_widths())
    @settings(max_examples=25, deadline=None)
    def test_to_document_identical_across_reshard(self, tree, script, width):
        """``reshard()`` is semantically invisible: the document is
        byte-identical before and after every rebalancing pass."""
        doc = CompressedXml.from_document(tree, shard_width=width)
        manager = doc.shard_manager
        for _ in replay_script(doc, script):
            before = doc.to_xml()
            manager._touched.update(manager.spine_rules())
            manager.reshard()
            assert doc.to_xml() == before
            manager.check_invariants()

    @given(xml_documents(max_elements=25), batch_scripts(max_ops=10),
           shard_widths())
    @settings(max_examples=25, deadline=None)
    def test_batch_scripts_match_default_width_twin(self, tree, script,
                                                    width):
        sharded = CompressedXml.from_document(tree, shard_width=width)
        plain = CompressedXml.from_document(tree)
        ops = concretize(plain, script)  # plain doubles as the oracle
        sharded.apply_batch(ops)
        assert sharded.to_xml() == plain.to_xml()
        sharded.grammar.validate()
        sharded.shard_manager.check_invariants()

    @given(xml_documents(max_elements=30), shard_widths())
    @settings(max_examples=25, deadline=None)
    def test_queries_stable_across_forced_splits(self, tree, width):
        """select / tags / navigation agree with the default-width twin
        both before and immediately after shard splits."""
        sharded = CompressedXml.from_document(tree, shard_width=width)
        plain = CompressedXml.from_document(tree)

        def assert_same_answers():
            assert list(sharded.tags()) == list(plain.tags())
            for path in ("//a", "/a/*", "//b//c", "//zz"):
                assert sharded.select(path) == plain.select(path)
            assert (
                list(stream_elements(sharded.grammar))
                == list(stream_elements(plain.grammar))
            )
            for i in range(sharded.element_count):
                assert sharded.parent_of(i) == plain.parent_of(i)
                assert sharded.depth_of(i) == plain.depth_of(i)

        assert_same_answers()
        # Push both documents past the split threshold and re-check.
        for _ in range(3 * width):
            sharded.append_child(0, XmlNode("a", [XmlNode("b")]))
            plain.append_child(0, XmlNode("a", [XmlNode("b")]))
        assert sharded.shard_manager.stats.splits > 0
        assert_same_answers()

    @given(xml_documents(max_elements=20), update_scripts(max_ops=8),
           shard_widths())
    @settings(max_examples=15, deadline=None)
    def test_recompression_preserves_sharded_document(self, tree, script,
                                                      width):
        """Explicit recompressions between updates keep the small-width
        and default-width documents identical -- the barrier contract:
        shard bodies compress, shard references stay put, pruning keeps
        the single-referenced shard rules."""
        sharded = CompressedXml.from_document(
            tree, shard_width=width, auto_recompress_factor=1.5
        )
        plain = CompressedXml.from_document(tree)
        for _ in replay_script(sharded, script):
            pass
        for _ in replay_script(plain, script):
            pass
        sharded.recompress()
        assert sharded.to_xml() == plain.to_xml()
        sharded.grammar.validate()
        sharded.shard_manager.check_invariants()


class TestDeletingAChunkShardsWholeBody:
    """An element that is all of a chunk shard's body in front of the
    continuation parameter: deleting it in place would leave a bare
    ``y1`` body, so the shard merges into its parent first."""

    def test_the_95th_delete_of_a_seeded_run(self):
        doc = CompressedXml.from_document(
            make_corpus("EXI-Weblog", 1500, seed=21), shard_width=8)
        rng = random.Random(2)
        for _ in range(94):
            doc.delete(rng.randrange(1, doc.element_count))
        target = rng.randrange(1, doc.element_count)
        assert (target, doc.tag_of(target), doc.parent_of(target)) == \
            (1049, "entry", 0)
        expected = FlatDoc.from_xml(doc.to_xml())
        expected.delete(target)
        doc.delete(target)
        assert doc.to_xml() == expected.to_xml()
        assert doc.shard_manager.stats.history[-1].startswith("merge")
        doc.grammar.validate()
        doc.shard_manager.check_invariants()

    @pytest.mark.parametrize("width", [8, 64, DEFAULT_SHARD_WIDTH])
    def test_random_deletes_match_the_default_width_document(self, width):
        corpus = make_corpus("EXI-Weblog", 1500, seed=21)
        doc = CompressedXml.from_document(corpus, shard_width=width)
        plain = CompressedXml.from_document(corpus)
        model = FlatDoc.from_xml(plain.to_xml())
        rng = random.Random(2)
        for _ in range(200):
            target = rng.randrange(1, doc.element_count)
            doc.delete(target)
            plain.delete(target)
            model.delete(target)
            assert doc.to_xml() == plain.to_xml() == model.to_xml()
        doc.grammar.validate()
        doc.shard_manager.check_invariants()
