"""Tests for the label census (kept per rule by repro.grammar.index).

Correctness bar: the census must equal a ``Counter`` over the streamed
tags of ``valG(S)`` -- after construction, after arbitrary update
interleavings, and after recompressions -- while the eviction counters
prove the maintenance is per rule, never wholesale, and counts (not
clocks) pin what the census costs: no pack built for it, nothing
re-censused beyond the dependents of a write, nothing after a reload.
"""

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.api import CompressedXml
from repro.datasets.synthetic import make_corpus
from repro.grammar.index import GrammarIndex
from repro.grammar.slcf import Grammar, GrammarError
from repro.query.label_index import LabelIndex
from repro.trees.builder import parse_term
from repro.trees.symbols import Alphabet

from tests.strategies import update_scripts, xml_documents
from tests.grammar.test_index import replay_script


def naive_census(doc):
    return Counter(doc.tags())


def assert_census_matches(doc, index):
    census = dict(index.label_census(doc.grammar.start))
    assert census == dict(naive_census(doc))
    for label, count in census.items():
        assert index.document_label_count(label) == count
    assert index.document_label_count("never-a-tag") == 0


def assert_censuses_equal_cold(index):
    """Every census the index holds equals a cold index's."""
    cold = GrammarIndex(index.grammar, register=False)
    for head in index.cached_rules():
        census = index.peek_census(head)
        if census is not None:
            assert dict(census) == dict(cold.label_census(head)), head


def two_rule_grammar():
    alphabet = Alphabet()
    S = alphabet.nonterminal("S", 0)
    A = alphabet.nonterminal("A", 0)
    nts = frozenset({"S", "A"})
    grammar = Grammar(alphabet, S)
    grammar.set_rule(S, parse_term("f(A,A)", alphabet, nts))
    grammar.set_rule(A, parse_term("a(#,#)", alphabet, nts))
    return grammar, alphabet, A, nts


class TestCensus:
    def test_flat_document(self):
        doc = CompressedXml.from_xml("<log>" + "<e/>" * 40 + "</log>")
        index = GrammarIndex(doc.grammar, register=False)
        assert index.document_label_count("e") == 40
        assert index.document_label_count("log") == 1
        assert_census_matches(doc, index)

    def test_figure1_grammar(self, figure1_grammar):
        index = GrammarIndex(figure1_grammar)
        # valG(S) = f over six a-nodes (Figure 1: 7 elements in total).
        assert index.document_label_count("f") == 1
        assert index.document_label_count("a") == 6

    def test_rule_counts_exclude_parameters(self, figure1_grammar):
        index = GrammarIndex(figure1_grammar)
        A = next(h for h in figure1_grammar.rules if h.name == "A")
        # A -> a(#, a(y1, y2)): two a's of its own, arguments excluded.
        assert index.rule_label_count(A, "a") == 2

    def test_pack_label_count_column(self, figure1_grammar):
        index = GrammarIndex(figure1_grammar)
        S = figure1_grammar.start
        pack = index.kernel.pack(S)
        counts = pack.label_counts(index, "a")
        rhs = figure1_grammar.rhs(S)
        # The whole start RHS generates all six a's; the ⊥ child none.
        assert counts[0] == 6
        assert counts[pack.node_objs.index(rhs.children[1])] == 0

    @given(xml_documents(max_elements=30))
    @settings(max_examples=25, deadline=None)
    def test_census_matches_stream_property(self, tree):
        doc = CompressedXml.from_document(tree)
        assert_census_matches(doc, GrammarIndex(doc.grammar, register=False))


class TestInvalidation:
    def test_set_rule_flows_to_document_census(self):
        grammar, alphabet, A, nts = two_rule_grammar()
        index = GrammarIndex(grammar)
        assert index.document_label_count("a") == 2
        grammar.set_rule(A, parse_term("b(a(#,#),#)", alphabet, nts))
        # Changing the callee must evict the cached start census too.
        assert index.document_label_count("a") == 2
        assert index.document_label_count("b") == 2
        assert index.censuses_evicted == 2
        assert index.wholesale_invalidations == 0

    def test_label_counts_evicted_with_rule(self, figure1_grammar):
        index = GrammarIndex(figure1_grammar)
        S = figure1_grammar.start
        index.kernel.pack(S).label_counts(index, "a")
        figure1_grammar.notify_rule_changed(S)
        assert index.peek_census(S) is None
        assert index.kernel.peek(S) is None
        # Recomputed on demand, still correct.
        assert index.kernel.pack(S).label_counts(index, "a")[0] == 6

    def test_view_holds_nothing(self, figure1_grammar):
        index = GrammarIndex(figure1_grammar)
        observers = list(figure1_grammar._observers)
        view = LabelIndex(index)
        assert figure1_grammar._observers == observers
        index.document_label_count("a")
        figure1_grammar.notify_rule_changed(figure1_grammar.start)
        assert view.to_dict() == {
            "evicted_rules": 1, "wholesale_invalidations": 0,
            "cached_rules": index.censused_rule_count,
        }

    def test_updates_do_not_wholesale_invalidate(self):
        doc = CompressedXml.from_xml(
            "<log>" + "<entry><ip/><ts/></entry>" * 60 + "</log>"
        )
        index = doc.index
        assert_census_matches(doc, index)
        warmed = index.censused_rule_count
        assert warmed == len(doc.grammar.rules)
        censused_before = index.rules_censused
        doc.rename(5, "touched")
        # Per-rule eviction only: most of the grammar keeps its census.
        assert index.wholesale_invalidations == 0
        assert index.censused_rule_count > 0
        assert_census_matches(doc, index)
        # The lazy recompute re-censused the dirtied slice, not the world.
        assert index.rules_censused - censused_before < warmed

    def test_relabel_event_spares_structural_tables(self):
        """A pure relabel patches the label census -- by -old +new label
        along the spine -- instead of dropping it, and keeps the
        structural count tables: the pack is patched in place, the
        segments stay."""
        doc = CompressedXml.from_xml("<log>" + "<e/>" * 30 + "</log>")
        index = doc.index
        assert index.document_label_count("e") == 30
        doc.rename(5, "x")  # first rename may isolate (structural change)
        assert doc.tag_of(5) == "x"  # rebuild structural tables
        assert index.document_label_count("x") == 1
        structural_evictions = index.evicted_rules
        census_evictions = index.censuses_evicted
        censused = index.rules_censused
        doc.rename(5, "y")  # path already isolated: a pure relabel
        assert index.evicted_rules == structural_evictions
        assert index.censuses_evicted == census_evictions
        assert index.rules_censused == censused
        assert_censuses_equal_cold(index)
        assert doc.tag_of(5) == "y"
        assert index.document_label_count("y") == 1
        assert index.document_label_count("x") == 0

    def test_recompress_keeps_label_tables(self):
        doc = CompressedXml.from_xml(
            "<log>" + "<entry><ip/><ts/></entry>" * 60 + "</log>"
        )
        index = doc.index
        assert_census_matches(doc, index)
        for element in (3, 40, 80):
            doc.rename(element, f"t{element}")
        doc.recompress()
        assert index.wholesale_invalidations == 0
        assert_census_matches(doc, index)

    def test_wholesale_reset_recovers(self):
        """No document path resets wholesale any more; scrub's repair of
        last resort does, directly -- and the census recovers."""
        doc = CompressedXml.from_xml("<log>" + "<e/>" * 50 + "</log>")
        index = doc.index
        assert_census_matches(doc, index)
        doc.rename(3, "x")
        doc.recompress()
        assert index.wholesale_invalidations == 0
        index.invalidate_all()
        assert index.wholesale_invalidations == 1
        assert index.censused_rule_count == 0
        assert_census_matches(doc, index)


class TestCensusCounts:
    """Counts, not clocks: what one cache with one cascade costs."""

    def test_document_census_builds_no_pack(self):
        doc = CompressedXml.from_xml(
            "<log>" + "<entry><ip/><ts/></entry>" * 60 + "</log>")
        kernel = doc.index.kernel
        assert doc.element_count == 181  # segments (and packs) exist
        builds = kernel.builds
        assert doc.index.document_label_count("ip") == 60
        assert kernel.builds == builds
        # Segments without packs (a snapshot without censuses): the
        # census is read off the rule bodies, nothing is packed.
        state = doc.export_state()
        state.label_counts = None
        reloaded = CompressedXml.from_state(state)
        assert reloaded.index.document_label_count("ip") == 60
        assert reloaded.index.kernel.builds == 0
        assert reloaded.index.rules_censused == len(reloaded.grammar.rules)

    def test_relabel_recensuses_only_its_dependents(self):
        doc = CompressedXml.from_document(
            make_corpus("EXI-Weblog", 1500, seed=21), shard_width=8)
        index = doc.index
        doc.rename(700, "x")  # isolates the path into a shard
        assert index.document_label_count("x") == 1
        evicted = index.evicted_rules
        dropped, censused = index.censuses_evicted, index.rules_censused
        doc.rename(700, "y")  # a pure relabel
        # The shard holding the element and the spine above it move
        # their censuses by the delta: nothing is dropped or re-censused.
        assert_censuses_equal_cold(index)
        assert index.document_label_count("y") == 1
        assert index.evicted_rules == evicted
        assert index.censuses_evicted == dropped
        assert index.rules_censused == censused

    def test_reopened_snapshot_counts_without_a_census(self, tmp_path):
        doc = CompressedXml.from_xml(
            "<log>" + "<entry><ip/><ts/></entry>" * 60 + "</log>")
        doc.rename(2, "x")  # an ip
        path = str(tmp_path / "doc.snapshot")
        doc.save_snapshot(path)
        reloaded = CompressedXml.from_snapshot_file(path)
        assert reloaded.count("//ip") == 59
        assert reloaded.count("//x") == 1
        assert reloaded.index.rules_censused == 0
        assert reloaded.index.kernel.builds == 0

    def test_census_for_an_unknown_rule_is_rejected(self):
        grammar, alphabet, _A, _nts = two_rule_grammar()
        index = GrammarIndex(grammar)
        segments, censuses = index.export_segments()
        stranger = alphabet.nonterminal("Z", 0)
        censuses[stranger] = {"a": 1}
        with pytest.raises(GrammarError):
            GrammarIndex(grammar, register=False).import_segments(
                segments, censuses)


class TestUpdateInterleavings:
    @given(xml_documents(max_elements=20), update_scripts(max_ops=8))
    @settings(max_examples=20, deadline=None)
    def test_census_matches_stream_after_every_update(self, tree, script):
        doc = CompressedXml.from_document(tree)
        index = doc.index
        assert_census_matches(doc, index)
        for _ in replay_script(doc, script):
            assert_census_matches(doc, index)
        assert index.wholesale_invalidations == 0
