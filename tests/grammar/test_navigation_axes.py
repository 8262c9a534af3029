"""Tests for document-axis navigation: ``stream_elements`` and the
``GrammarIndex`` primitives (``parent_of`` / ``depth_of`` / ``first_child``
/ ``next_sibling`` / ``children``).

Ground truth is the decompressed tree; ``stream_elements`` is itself
validated against it, then serves as the streaming oracle the indexed
primitives (one O(depth) descent each) must agree with.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e.model import FlatDoc
from repro import api
from repro.api import CompressedXml
from repro.datasets.synthetic import make_corpus
from repro.grammar.navigation import (
    resolve_preorder_path,
    stream_elements,
    stream_preorder,
)
from repro.grammar.sharding import DEFAULT_SHARD_WIDTH
from repro.grammar.slcf import Grammar
from repro.trees.builder import parse_term
from repro.trees.node import Node, replace_node
from repro.trees.symbols import Alphabet
from repro.trees.unranked import XmlNode
from repro.updates.batch import BatchAppend, BatchInsert, BatchRename

from tests.strategies import shard_widths, update_scripts, xml_documents
from tests.grammar.test_index import replay_script


def naive_axes(root):
    """(tag, parent, depth) per element plus children lists, preorder."""
    rows = []
    children = []
    stack = [(root, None, 0)]
    # Explicit preorder with an index counter, children resolved after.
    order = []
    positions = {}
    walk = [(root, None, 0)]
    while walk:
        node, parent, depth = walk.pop()
        index = len(order)
        positions[id(node)] = index
        order.append(node)
        rows.append((node.tag, parent, depth))
        for child in reversed(node.children):
            walk.append((child, index, depth + 1))
    for node in order:
        children.append([positions[id(child)] for child in node.children])
    return rows, children


def assert_sampled_axes_match(surface, rows, children, sample):
    """The five axes of the ``sample`` elements of a read surface (a
    document, its index or a pinned view) against ``naive_axes``."""
    for element in sample:
        tag, parent, depth = rows[element]
        assert surface.tag_of(element) == tag
        assert surface.parent_of(element) == parent, element
        assert surface.depth_of(element) == depth, element
        kids = children[element]
        assert list(surface.children(element)) == kids, element
        assert surface.first_child(element) == (kids[0] if kids else None)
        siblings = children[parent] if parent is not None else [element]
        after = siblings[siblings.index(element) + 1:]
        assert surface.next_sibling(element) == (after[0] if after else None)


def assert_axes_match_naive(doc):
    plain = doc.to_document()
    rows, children = naive_axes(plain)
    assert list(stream_elements(doc.grammar)) == [
        (index, tag, parent, depth)
        for index, (tag, parent, depth) in enumerate(rows)
    ]
    index = doc.index
    for element, (tag, parent, depth) in enumerate(rows):
        assert index.parent_of(element) == parent
        assert index.depth_of(element) == depth
        kids = children[element]
        assert list(index.children(element)) == kids
        assert index.first_child(element) == (kids[0] if kids else None)
    # next_sibling: derived from the parent's child lists.
    for kids in children:
        for left, right in zip(kids, kids[1:]):
            assert index.next_sibling(left) == right
        if kids:
            assert index.next_sibling(kids[-1]) is None
    assert index.next_sibling(0) is None  # the root has no siblings


class TestFixtures:
    def test_small_document(self):
        doc = CompressedXml.from_xml(
            "<a><b><x/><y><z/></y></b><c/><d><e/></d></a>"
        )
        assert_axes_match_naive(doc)
        assert doc.parent_of(0) is None
        assert doc.depth_of(0) == 0
        assert doc.parent_of(4) == 3
        assert doc.depth_of(4) == 3
        assert doc.first_child(1) == 2
        assert doc.next_sibling(1) == 5
        assert list(doc.children(0)) == [1, 5, 6]

    def test_flat_list(self):
        doc = CompressedXml.from_xml("<log>" + "<e/>" * 100 + "</log>")
        assert list(doc.children(0)) == list(range(1, 101))
        assert doc.parent_of(57) == 0
        assert doc.next_sibling(57) == 58
        assert doc.first_child(57) is None

    def test_deep_chain(self):
        doc = CompressedXml.from_xml(
            "<a>" * 1 + "<b>" * 0 + "".join(f"<t{i}>" for i in range(30))
            + "".join(f"</t{i}>" for i in reversed(range(30))) + "</a>"
        )
        last = doc.element_count - 1
        assert doc.depth_of(last) == last
        assert doc.parent_of(last) == last - 1
        assert doc.first_child(last) is None

    def test_out_of_range_and_negative(self):
        doc = CompressedXml.from_xml("<a><b/></a>")
        for probe in (doc.parent_of, doc.depth_of, doc.first_child,
                      doc.next_sibling):
            with pytest.raises(IndexError):
                probe(2)
            with pytest.raises(IndexError):
                probe(-1)
        with pytest.raises(IndexError):
            list(doc.children(5))

    def test_stream_elements_rejects_non_binary_terminals(
        self, grammar1_fragment
    ):
        # grammar1_fragment generates g/1 and b/2-shaped terminals -- not
        # an FCNS document encoding.
        with pytest.raises(ValueError):
            list(stream_elements(grammar1_fragment))


class TestProperties:
    @given(xml_documents(max_elements=30))
    @settings(max_examples=30, deadline=None)
    def test_axes_match_naive(self, tree):
        assert_axes_match_naive(CompressedXml.from_document(tree))

    @given(xml_documents(max_elements=30), update_scripts(max_ops=6),
           st.one_of(st.just(DEFAULT_SHARD_WIDTH), shard_widths()))
    @settings(max_examples=25, deadline=None)
    def test_axes_match_naive_after_updates(self, tree, script, width):
        """Sharded documents grow the nested parameter routes the route
        summaries compose; a recompression and a batch take the cold
        build instead of the splice."""
        doc = CompressedXml.from_document(tree, shard_width=width)
        for _ in replay_script(doc, script):
            assert_axes_match_naive(doc)
        doc.recompress()
        assert_axes_match_naive(doc)
        last = doc.element_count - 1
        doc.apply_batch([BatchAppend(0, XmlNode("z")),
                         BatchRename(last, "batched"),
                         BatchInsert(1, XmlNode("x", [XmlNode("y")]))])
        assert_axes_match_naive(doc)

    @given(xml_documents(max_elements=30), update_scripts(max_ops=4),
           update_scripts(max_ops=4), shard_widths())
    @settings(max_examples=20, deadline=None)
    def test_pinned_view_answers_the_pre_write_axes(
            self, tree, before, after, width):
        doc = CompressedXml.from_document(tree, shard_width=width)
        for _ in replay_script(doc, before):
            pass
        rows, children = naive_axes(doc.to_document())
        with doc.snapshot() as view:
            for _ in replay_script(doc, after):
                pass
            assert_sampled_axes_match(view, rows, children, range(len(rows)))
            assert_axes_match_naive(doc)


def assert_targets_match(doc, model, sample, paths=1):
    """The one element descent behind every read and write target, for
    the ``sample`` elements: tag, parent and depth against the e2e
    benchmark's flat model, the element's preorder position against
    ``stream_preorder`` and, for every ``paths``-th, its and its
    child-list terminator's derivation path against
    ``resolve_preorder_path``."""
    grammar, index = doc.grammar, doc.index
    preorder = [at for at, symbol in enumerate(stream_preorder(grammar))
                if not symbol.is_bottom]
    assert len(preorder) == len(model)

    def path(steps):
        return [(step.node, step.enters_rule) for step in steps]

    for number, element in enumerate(sorted(sample)):
        assert (index.tag_of(element), index.parent_of(element),
                index.depth_of(element)) == (
            model.tags[element], model.parent(element),
            model.depths[element]), element
        position, steps = index.resolve_element(element)
        assert position == preorder[element], element
        if number % paths:
            continue
        for position, steps in ((position, steps),
                                index.end_of_children_position(element)):
            assert path(steps) == path(
                resolve_preorder_path(grammar, position)), element


class TestCorpusFuzz:
    """Corpus-shaped, sharded documents under single-op writes: after
    each write the axes of a sample -- always the written element, its
    parent and the last element -- equal the oracle.  At width 256 the
    spine bodies are sibling chains of ~100 links the descent jumps
    along (``RulePack.chains``), and writes splice them warm, under
    one-round recompression steps too."""

    @pytest.mark.parametrize("corpus, edges, width, factor", [
        ("Treebank", 1500, 64, None),
        ("XMark", 1500, 64, None),
        ("EXI-Weblog", 1500, 64, None),
        ("XMark", 6000, 256, None),
        ("EXI-Weblog", 6000, 256, None),
        ("EXI-Weblog", 6000, 256, 1.05),
    ])
    def test_axes_after_every_write(self, corpus, edges, width, factor,
                                    monkeypatch):
        monkeypatch.setattr(api, "STEP_SECONDS", 0.0)
        rng = random.Random(20)
        doc = CompressedXml.from_document(
            make_corpus(corpus, edges, seed=20), shard_width=width,
            auto_recompress_factor=factor)
        model = FlatDoc.from_xml(doc.to_xml())
        for _ in range(60):
            count = doc.element_count
            at = rng.randrange(1, count)
            kind = rng.choice(("rename", "insert", "append", "delete"))
            if kind == "rename":
                doc.rename(at, "renamed")
                model.rename(at, "renamed")
            elif kind == "insert":
                doc.insert(at, XmlNode("ins", [XmlNode("leaf")]))
                model.insert(at, (("ins", 0), ("leaf", 1)))
            elif kind == "append":
                doc.append_child(at, XmlNode("app"))
                model.append_child(at, (("app", 0),))
            else:
                doc.delete(at)
                model.delete(at)
            rows, children = naive_axes(doc.to_document())
            count = len(rows)
            at = min(at, count - 1)
            sample = {at, rows[at][1] or 0, count - 1}
            sample.update(rng.randrange(count) for _ in range(37))
            assert_sampled_axes_match(doc, rows, children, sample)
            assert_targets_match(doc, model, sample, paths=5)
        assert_axes_match_naive(doc)
        # Segments adopted from a snapshot come without packs: the
        # route summaries are then computed on first use, callees first.
        reloaded = CompressedXml.from_state(doc.export_state())
        assert reloaded.index.kernel.rules_packed == 0
        assert_sampled_axes_match(reloaded, rows, children, range(count))


def wrap(grammar, head, old, label, slot):
    """Rewrite ``old`` to ``label(old, ⊥)`` (``slot`` 1) or
    ``label(⊥, old)`` (``slot`` 2) -- or, for a nonterminal ``label`` of
    rank 1, to its application ``label(old)`` -- inside rule ``head``,
    reported as one local splice: the shape of an insert landing on a
    parameter route."""
    alphabet = grammar.alphabet
    grammar.preserve_for_write(head)
    symbol = alphabet.get(label) or alphabet.terminal(label, 2)
    new = Node(symbol, [Node(alphabet.bottom()) for _ in range(symbol.rank)])
    if old.parent is not None:
        replace_node(old, new)
    new.set_child(slot, old)
    grammar.notify_rule_spliced(head, old, new)


class TestRouteSummariesFollowDirectSurgery:
    """``S -> r(U(b),⊥)``, ``U -> u(V(y1),⊥)``, ``V -> c(y1,W(e))``,
    ``W -> w(⊥,y1)`` (and a spare ``K -> k(y1,⊥)``, applied by nobody
    yet): ``U``'s route to its parameter composes ``V``'s.
    A splice inside ``V`` that moves ``V``'s route reaches ``U`` only
    through ``_spine``, which patches ``U``'s pack in place -- so the
    summary cached on that pack must not outlive it."""

    @staticmethod
    def document(callee="c(y1,W(e(#,#)))", applier="u(V(y1),#)"):
        alphabet = Alphabet()
        names = {name: alphabet.nonterminal(name, rank)
                 for name, rank in (("S", 0), ("U", 1), ("V", 1), ("W", 1),
                                    ("K", 1))}
        grammar = Grammar(alphabet, names["S"])
        for name, body in (("K", "k(y1,#)"), ("W", "w(#,y1)"), ("V", callee),
                           ("U", applier), ("S", "r(U(b(#,#)),#)")):
            grammar.set_rule(names[name],
                             parse_term(body, alphabet, frozenset(names)))
        grammar.validate()
        return CompressedXml(grammar), names

    @pytest.mark.parametrize("pinned", [False, True], ids=["live", "pinned"])
    @pytest.mark.parametrize("surgery, resized", [
        # The parent point's offset grows: an element in front of ``c``,
        # all of it in front of the parameter -- the ``_spine`` path.
        (lambda body: (body, "x", 2), True),
        # The segment *behind* the parameter grows: no route moves.
        (lambda body: (body.children[1], "k", 1), True),
        # The first-child route to ``y1`` deepens by one.  A size lands
        # behind the parameter too, so this one is not local: eviction.
        (lambda body: (body.children[0], "d", 1), False),
    ], ids=["offset-grows", "behind-the-parameter", "route-deepens"])
    def test_applier_summary_does_not_outlive_the_write(
            self, surgery, resized, pinned):
        doc, names = self.document()
        assert doc.to_xml() == "<r><u><c><b/></c><w/><e/></u></r>"
        assert_axes_match_naive(doc)  # packs, summaries and the memo
        kernel = doc.index.kernel
        applier = kernel.peek(names["U"])
        assert applier.routes == [(2, (0, 1))]
        rows, children = naive_axes(doc.to_document())
        view = doc.snapshot() if pinned else None
        old, label, slot = surgery(doc.grammar.rhs(names["V"]))
        wrap(doc.grammar, names["V"], old, label, slot)
        # ``_spine`` patches the applier's pack in place; whatever it
        # cached about ``val(V)`` must have gone with the old sizes.
        assert (kernel.peek(names["U"]) is applier) == resized
        assert_axes_match_naive(doc)
        if view is not None:
            assert_sampled_axes_match(view, rows, children, range(len(rows)))
            view.close()

    @pytest.mark.parametrize("surgery, resized", [
        # A sibling in front of ``c``: the parameters stay on the
        # sibling chains of ``V`` and ``U`` -- both summaries survive.
        (lambda body: (body, "x", 2), True),
        # ``y1`` goes under an application of ``K``, whose own route
        # takes a first-child edge (and whose second segment lands
        # behind the parameter): fresh applications are not local.
        (lambda body: (body.children[1], "K", 1), False),
    ], ids=["sibling-in-front", "fresh-application"])
    def test_parentless_summaries_survive_local_growth_only(
            self, surgery, resized):
        doc, names = self.document(callee="c(#,y1)", applier="u(#,V(y1))")
        assert doc.to_xml() == "<r><u/><c/><b/></r>"
        assert_axes_match_naive(doc)
        kernel = doc.index.kernel
        applier = kernel.peek(names["U"])
        assert applier.routes == [(0, None)]
        assert doc.index.element_segments(names["K"]) == [1, 0]  # cached
        old, label, slot = surgery(doc.grammar.rhs(names["V"]))
        wrap(doc.grammar, names["V"], old, label, slot)
        assert (kernel.peek(names["U"]) is applier) == resized
        if resized:
            assert applier.routes == kernel.peek(names["V"]).routes \
                == [(0, None)]
        assert_axes_match_naive(doc)

    def test_same_size_rewrite_of_a_route_evicts_the_appliers(self):
        """``V -> c(⊥,y1)`` becomes ``c(y1,⊥)``: no size changes, so
        ``_spine`` never runs -- but it is no inline either, and the
        route turned from next-sibling to first-child."""
        doc, names = self.document(callee="c(#,y1)")
        assert doc.to_xml() == "<r><u><c/><b/></u></r>"
        assert_axes_match_naive(doc)
        grammar, head = doc.grammar, names["V"]
        assert doc.index.kernel.peek(names["U"]).routes == [(1, (0, 0))]
        old = grammar.rhs(head)
        grammar.preserve_for_write(head)
        new = Node(old.symbol, [Node(grammar.alphabet.bottom()),
                                Node(grammar.alphabet.bottom())])
        new.set_child(1, old.children[1])
        grammar.notify_rule_spliced(head, old, new)
        assert doc.to_xml() == "<r><u><c><b/></c></u></r>"
        assert_axes_match_naive(doc)
