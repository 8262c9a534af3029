"""Tests for the persistent grammar index (repro.grammar.index).

The correctness bar is the naive recomputation on the streamed preorder of
``valG(S)``: after arbitrary interleavings of updates, every index answer
must match what a full ``stream_preorder`` walk reports.
"""

import pytest
from hypothesis import given, settings

from repro.api import CompressedXml
from repro.grammar.index import GrammarIndex
from repro.grammar.navigation import resolve_preorder_path, stream_preorder
from repro.grammar.properties import parameter_segments
from repro.grammar.sharding import DEFAULT_SHARD_WIDTH
from repro.grammar.slcf import Grammar
from repro.trees.builder import parse_term
from repro.trees.symbols import Alphabet
from repro.trees.unranked import XmlNode

from tests.strategies import slcf_grammars, update_scripts, xml_documents


# ----------------------------------------------------------------------
# naive reference implementations (the pre-index streaming code paths)
# ----------------------------------------------------------------------

def naive_element_count(grammar):
    return sum(1 for s in stream_preorder(grammar) if not s.is_bottom)


def naive_elements(grammar):
    """List of (binary preorder index, symbol) per element, in order."""
    return [
        (position, symbol)
        for position, symbol in enumerate(stream_preorder(grammar))
        if not symbol.is_bottom
    ]


def naive_end_of_children(grammar, element_index):
    """The old list-materializing child-list-terminator walk."""
    stream = list(stream_preorder(grammar))
    start = naive_elements(grammar)[element_index][0]

    def subtree_end(position):
        depth = 0
        index = position
        while True:
            depth += stream[index].rank - 1
            index += 1
            if depth < 0:
                return index

    position = start + 1
    while not stream[position].is_bottom:
        position = subtree_end(position + 1)
    return position


def assert_same_steps(ours, reference):
    """Two derivation paths name the same nodes, step for step."""
    assert len(ours) == len(reference)
    for step, expected in zip(ours, reference):
        assert step.node is expected.node
        assert step.enters_rule == expected.enters_rule


def assert_append_targets_match(doc):
    """Every element's append target -- position and derivation path --
    equals the naive terminator and the reference resolver's path."""
    grammar = doc.grammar
    for element_index in range(doc.element_count):
        position, steps = doc.index.end_of_children_position(element_index)
        assert position == naive_end_of_children(grammar, element_index)
        assert_same_steps(steps, resolve_preorder_path(grammar, position))


def assert_index_matches_stream(doc):
    """Every index answer equals the naive streamed recomputation."""
    grammar = doc.grammar
    index = doc.index
    elements = naive_elements(grammar)
    assert index.element_count == len(elements)
    assert index.node_count == sum(1 for _ in stream_preorder(grammar))
    for element_index, (position, symbol) in enumerate(elements):
        assert index.preorder_of_element(element_index) == position
        assert index.tag_of(element_index) == symbol.name
    with pytest.raises(IndexError):
        index.preorder_of_element(len(elements))
    with pytest.raises(IndexError):
        index.tag_of(len(elements))


# ----------------------------------------------------------------------
# static correctness on fixtures and random grammars
# ----------------------------------------------------------------------

class TestStaticQueries:
    def test_counts_on_figure1(self, figure1_grammar):
        index = GrammarIndex(figure1_grammar)
        assert index.node_count == sum(
            1 for _ in stream_preorder(figure1_grammar)
        )
        assert index.element_count == naive_element_count(figure1_grammar)

    def test_addressing_on_figure1(self, figure1_grammar):
        index = GrammarIndex(figure1_grammar)
        for i, (position, symbol) in enumerate(naive_elements(figure1_grammar)):
            assert index.preorder_of_element(i) == position
            assert index.tag_of(i) == symbol.name

    def test_negative_index_rejected(self, figure1_grammar):
        index = GrammarIndex(figure1_grammar)
        with pytest.raises(IndexError):
            index.preorder_of_element(-1)

    def test_node_segments_match_parameter_segments(self, figure1_grammar):
        index = GrammarIndex(figure1_grammar)
        expected = parameter_segments(figure1_grammar)
        for head in figure1_grammar.rules:
            assert index.node_segments(head) == expected[head]

    @given(slcf_grammars())
    @settings(max_examples=40, deadline=None)
    def test_random_grammars_match_stream(self, grammar):
        index = GrammarIndex(grammar)
        elements = naive_elements(grammar)
        assert index.element_count == len(elements)
        for i, (position, symbol) in enumerate(elements):
            assert index.preorder_of_element(i) == position
            assert index.tag_of(i) == symbol.name

    @given(slcf_grammars())
    @settings(max_examples=40, deadline=None)
    def test_resolve_element_steps_match_navigation(self, grammar):
        """The derivation path recorded during the element descent must be
        node-for-node the path resolve_preorder_path finds, so isolation
        can replay it without re-resolving."""
        index = GrammarIndex(grammar)
        for i in range(index.element_count):
            position, steps = index.resolve_element(i)
            assert_same_steps(steps, resolve_preorder_path(grammar, position))

    def test_append_target_leaves_a_rule_through_its_parameter(self):
        """``A(y1) -> a(b(⊥, y1), ⊥)`` under ``S -> r(A(c(⊥, ⊥)), ⊥)``:
        element ``a``'s descent enters ``A``, but its child list ends in
        the argument, on ``c``'s next-sibling ``⊥``.  The reference path
        descends into the argument without entering ``A``, so the walk
        that leaves ``A`` through ``y1`` must drop ``A``'s entry step."""
        alphabet = Alphabet()
        S = alphabet.nonterminal("S", 0)
        A = alphabet.nonterminal("A", 1)
        nts = frozenset({"S", "A"})
        grammar = Grammar(alphabet, S)
        grammar.set_rule(S, parse_term("r(A(c(#,#)),#)", alphabet, nts))
        grammar.set_rule(A, parse_term("a(b(#,y1),#)", alphabet, nts))
        grammar.validate()
        doc = CompressedXml(grammar)
        position, steps = doc.index.end_of_children_position(1)
        assert position == 6
        assert not any(step.enters_rule for step in steps)
        assert_append_targets_match(doc)
        doc.append_child(1, XmlNode("tail"))
        assert doc.to_xml() == "<r><a><b/><c/><tail/></a></r>"


# ----------------------------------------------------------------------
# invalidation: direct rule mutation through the observer channel
# ----------------------------------------------------------------------

class TestInvalidation:
    def test_set_rule_invalidates_dependents(self):
        alphabet = Alphabet()
        S = alphabet.nonterminal("S", 0)
        A = alphabet.nonterminal("A", 0)
        nts = frozenset({"S", "A"})
        grammar = Grammar(alphabet, S)
        grammar.set_rule(S, parse_term("f(A,A)", alphabet, nts))
        grammar.set_rule(A, parse_term("a(#,#)", alphabet, nts))
        index = GrammarIndex(grammar)
        assert index.element_count == 3
        # Growing A's rule must flow through to the cached start totals.
        grammar.set_rule(A, parse_term("a(a(#,#),#)", alphabet, nts))
        assert index.element_count == 5
        assert index.element_count == naive_element_count(grammar)

    def test_remove_rule_invalidates(self):
        alphabet = Alphabet()
        S = alphabet.nonterminal("S", 0)
        A = alphabet.nonterminal("A", 0)
        nts = frozenset({"S", "A"})
        grammar = Grammar(alphabet, S)
        grammar.set_rule(S, parse_term("f(A,#)", alphabet, nts))
        grammar.set_rule(A, parse_term("a(#,#)", alphabet, nts))
        index = GrammarIndex(grammar)
        assert index.element_count == 2
        grammar.set_rule(S, parse_term("f(a(#,#),#)", alphabet, nts))
        grammar.remove_rule(A)
        assert index.element_count == 2
        assert index.tag_of(1) == "a"

    def test_detach_stops_notifications(self, figure1_grammar):
        index = GrammarIndex(figure1_grammar)
        index.detach()
        assert index._grammar._observers == []


# ----------------------------------------------------------------------
# the paper's workload: random update interleavings on CompressedXml
# ----------------------------------------------------------------------

def replay_script(doc, script):
    """Apply one (kind, fraction, tag) script entry at a time, yielding
    after each so the caller can interpose checks."""
    for kind, fraction, tag in script:
        count = doc.element_count
        if kind == "rename":
            doc.rename(int(fraction * count), tag)
        elif kind == "insert" and count > 1:
            # Before the root would create a forest; stay below it.
            doc.insert(1 + int(fraction * (count - 1)), XmlNode(tag))
        elif kind == "append":
            doc.append_child(int(fraction * count),
                             XmlNode(tag, [XmlNode(tag)]))
        elif kind == "delete" and count > 1:
            doc.delete(1 + int(fraction * (count - 1)))
        elif kind == "recompress":
            doc.recompress()
        yield kind


class TestUpdateInterleavings:
    @given(xml_documents(max_elements=20), update_scripts(max_ops=8))
    @settings(max_examples=25, deadline=None)
    def test_index_matches_stream_after_every_update(self, tree, script):
        doc = CompressedXml.from_document(tree)
        assert_index_matches_stream(doc)
        for _ in replay_script(doc, script):
            assert_index_matches_stream(doc)

    @pytest.mark.parametrize("shard_width", [DEFAULT_SHARD_WIDTH, 8])
    @given(xml_documents(max_elements=30), update_scripts(max_ops=6))
    @settings(max_examples=15, deadline=None)
    def test_end_of_children_matches_naive(self, shard_width, tree, script):
        """An append's target is the parent's element descent continued
        down the last-child path of its first-child subtree: the naive
        terminator's position and, node for node, the steps of
        ``resolve_preorder_path`` -- after every write, at the default
        width and a small one, and after a recompression."""
        doc = CompressedXml.from_document(tree, shard_width=shard_width)
        assert_append_targets_match(doc)
        for _ in replay_script(doc, script):
            assert_append_targets_match(doc)
        doc.recompress()
        assert_append_targets_match(doc)

    @given(xml_documents(max_elements=20), update_scripts(max_ops=6))
    @settings(max_examples=15, deadline=None)
    def test_tag_windows_match_stream_after_updates(self, tree, script):
        """The indexed range iterator agrees with the full tag stream at
        every window, across arbitrary update interleavings."""
        doc = CompressedXml.from_document(tree)
        for _ in replay_script(doc, script):
            full = list(doc.tags())
            count = doc.element_count
            assert len(full) == count
            windows = [(0, count), (0, 1), (count - 1, count),
                       (count // 3, 2 * count // 3 + 1)]
            for start, stop in windows:
                assert list(doc.tags(start, stop)) == full[start:stop]
            assert list(doc.tags(count // 2)) == full[count // 2:]

    @given(xml_documents(max_elements=20), update_scripts(max_ops=8))
    @settings(max_examples=15, deadline=None)
    def test_updates_equal_reference_document(self, tree, script):
        """The indexed update path produces the same document as a plain
        XmlNode interpretation of the same script."""
        doc = CompressedXml.from_document(tree)
        for kind in replay_script(doc, script):
            pass
        # Round-trip through XML to confirm the grammar stayed coherent.
        assert doc.element_count == naive_element_count(doc.grammar)
        assert doc.to_xml()  # decompresses without error
