"""Tests for the persistent label census (repro.query.label_index).

Correctness bar: the census must equal a ``Counter`` over the streamed
tags of ``valG(S)`` -- after construction, after arbitrary update
interleavings, and after recompressions -- while the eviction counters
prove the maintenance is per-rule, never wholesale.
"""

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.api import CompressedXml
from repro.grammar.slcf import Grammar
from repro.query.label_index import LabelIndex
from repro.trees.builder import parse_term
from repro.trees.symbols import Alphabet
from repro.trees.unranked import XmlNode

from tests.strategies import update_scripts, xml_documents
from tests.grammar.test_index import replay_script


def naive_census(doc):
    return Counter(doc.tags())


def assert_census_matches(doc, lindex):
    census = dict(lindex.document_labels())
    assert census == dict(naive_census(doc))
    for label, count in census.items():
        assert lindex.document_label_count(label) == count
    assert lindex.document_label_count("never-a-tag") == 0


class TestCensus:
    def test_flat_document(self):
        doc = CompressedXml.from_xml("<log>" + "<e/>" * 40 + "</log>")
        lindex = LabelIndex(doc.grammar)
        assert lindex.document_label_count("e") == 40
        assert lindex.document_label_count("log") == 1
        assert_census_matches(doc, lindex)

    def test_figure1_grammar(self, figure1_grammar):
        lindex = LabelIndex(figure1_grammar)
        # valG(S) = f over six a-nodes (Figure 1: 7 elements in total).
        assert lindex.document_label_count("f") == 1
        assert lindex.document_label_count("a") == 6

    def test_rule_counts_exclude_parameters(self, figure1_grammar):
        lindex = LabelIndex(figure1_grammar)
        A = next(h for h in figure1_grammar.rules if h.name == "A")
        # A -> a(#, a(y1, y2)): two a's of its own, arguments excluded.
        assert lindex.rule_label_count(A, "a") == 2

    def test_node_table_segments(self, figure1_grammar):
        lindex = LabelIndex(figure1_grammar)
        S = figure1_grammar.start
        table = lindex.node_table(S, "a")
        rhs = figure1_grammar.rhs(S)
        # The whole start RHS generates all six a's; the ⊥ child none.
        assert table[id(rhs)][0] == 6
        assert table[id(rhs.children[1])][0] == 0

    @given(xml_documents(max_elements=30))
    @settings(max_examples=25, deadline=None)
    def test_census_matches_stream_property(self, tree):
        doc = CompressedXml.from_document(tree)
        assert_census_matches(doc, LabelIndex(doc.grammar))


class TestInvalidation:
    def test_set_rule_flows_to_document_census(self):
        alphabet = Alphabet()
        S = alphabet.nonterminal("S", 0)
        A = alphabet.nonterminal("A", 0)
        nts = frozenset({"S", "A"})
        grammar = Grammar(alphabet, S)
        grammar.set_rule(S, parse_term("f(A,A)", alphabet, nts))
        grammar.set_rule(A, parse_term("a(#,#)", alphabet, nts))
        lindex = LabelIndex(grammar)
        assert lindex.document_label_count("a") == 2
        grammar.set_rule(A, parse_term("b(a(#,#),#)", alphabet, nts))
        # Changing the callee must evict the cached start census too.
        assert lindex.document_label_count("a") == 2
        assert lindex.document_label_count("b") == 2
        assert lindex.evicted_rules >= 1
        assert lindex.wholesale_invalidations == 0

    def test_node_tables_evicted_with_rule(self, figure1_grammar):
        lindex = LabelIndex(figure1_grammar)
        S = figure1_grammar.start
        lindex.node_table(S, "a")
        figure1_grammar.notify_rule_changed(S)
        assert (S, "a") not in lindex._node_tables
        # Recomputed on demand, still correct.
        rhs = figure1_grammar.rhs(S)
        assert lindex.node_table(S, "a")[id(rhs)][0] == 6

    def test_detach_stops_notifications(self, figure1_grammar):
        lindex = LabelIndex(figure1_grammar)
        lindex.detach()
        assert lindex not in figure1_grammar._observers

    def test_updates_do_not_wholesale_invalidate(self):
        doc = CompressedXml.from_xml(
            "<log>" + "<entry><ip/><ts/></entry>" * 60 + "</log>"
        )
        lindex = doc.label_index
        assert_census_matches(doc, lindex)
        warmed = lindex.cached_rule_count
        assert warmed == len(doc.grammar.rules)
        censused_before = lindex.rules_censused
        doc.rename(5, "touched")
        # Per-rule eviction only: most of the grammar keeps its census.
        assert lindex.wholesale_invalidations == 0
        assert lindex.cached_rule_count > 0
        assert_census_matches(doc, lindex)
        # The lazy recompute re-censused the dirtied slice, not the world.
        assert lindex.rules_censused - censused_before < warmed

    def test_relabel_event_spares_structural_tables(self):
        """A pure relabel must evict the label census but *not* the
        structural count tables: GrammarIndex handles the
        ``rule_relabeled`` event as a keep-everything no-op."""
        doc = CompressedXml.from_xml("<log>" + "<e/>" * 30 + "</log>")
        lindex = doc.label_index
        assert lindex.document_label_count("e") == 30
        doc.rename(5, "x")  # first rename may isolate (structural change)
        assert doc.tag_of(5) == "x"  # rebuild structural tables
        assert lindex.document_label_count("x") == 1
        structural_evictions = doc.index.evicted_rules
        label_evictions = lindex.evicted_rules
        doc.rename(5, "y")  # path already isolated: a pure relabel
        assert doc.index.evicted_rules == structural_evictions
        assert lindex.evicted_rules > label_evictions
        assert doc.tag_of(5) == "y"
        assert lindex.document_label_count("y") == 1
        assert lindex.document_label_count("x") == 0

    def test_recompress_keeps_label_tables(self):
        doc = CompressedXml.from_xml(
            "<log>" + "<entry><ip/><ts/></entry>" * 60 + "</log>"
        )
        lindex = doc.label_index
        assert_census_matches(doc, lindex)
        for index in (3, 40, 80):
            doc.rename(index, f"t{index}")
        doc.recompress()
        assert lindex.wholesale_invalidations == 0
        assert_census_matches(doc, lindex)

    def test_wholesale_reset_recovers(self):
        """No document path resets wholesale any more; scrub's repair of
        last resort does, directly -- and the census recovers."""
        doc = CompressedXml.from_xml("<log>" + "<e/>" * 50 + "</log>")
        lindex = doc.label_index
        assert_census_matches(doc, lindex)
        doc.rename(3, "x")
        doc.recompress()
        assert lindex.wholesale_invalidations == 0
        lindex.invalidate_all()
        assert lindex.wholesale_invalidations == 1
        assert lindex.cached_rule_count == 0
        assert_census_matches(doc, lindex)


class TestUpdateInterleavings:
    @given(xml_documents(max_elements=20), update_scripts(max_ops=8))
    @settings(max_examples=20, deadline=None)
    def test_census_matches_stream_after_every_update(self, tree, script):
        doc = CompressedXml.from_document(tree)
        lindex = doc.label_index
        assert_census_matches(doc, lindex)
        for _ in replay_script(doc, script):
            assert_census_matches(doc, lindex)
        assert lindex.wholesale_invalidations == 0
