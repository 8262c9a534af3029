"""Flat-kernel equivalence and lifecycle tests (repro.grammar.kernel).

The kernel is the only descent path, so the correctness bar is code in
``src/`` that shares no logic with it: ``navigation.stream_elements``
and ``stream_preorder`` (tags, parents, depths, node and element windows),
``derivation.expand`` via ``to_document()`` (the document and every
subtree) and ``repro.query.naive`` (``select`` / ``count``).  For random
documents, random update/batch scripts, and random shard widths, every
query the kernel serves must return exactly what that oracle returns --
before and after every single operation.  On top of parity, the
lifecycle counters are pinned: local writes splice the pack they land in
(and the result equals a cold build of the same body, column for
column), non-local rewrites evict individual packs, recompression never
triggers a wholesale kernel invalidation, and snapshot reloads start
with zero packed rules (packing is lazy).
"""

import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e.model import FlatDoc
from repro.api import CompressedXml
from repro.datasets.synthetic import make_corpus
from repro.grammar.index import (
    LABEL,
    PACK_COLUMNS,
    PARENT_POINT,
    RULE_FACTS,
    STRUCTURAL,
    GrammarIndex,
)
from repro.grammar.kernel import (
    CHAIN_MIN_NODES,
    ELEMENTS,
    NODES,
    SymbolTable,
    _continuation,
    global_symbol_table,
    kernel_window,
)
from repro.grammar.navigation import stream_elements, stream_preorder
from repro.grammar.properties import parameter_segments, references
from repro.grammar.sharding import DEFAULT_SHARD_WIDTH
from repro.grammar.slcf import Grammar
from repro.query.naive import naive_count, naive_select
from repro.storage.durable import DurableXml
from repro.trees.builder import parse_term
from repro.trees.symbols import Alphabet
from repro.trees.traversal import preorder
from repro.trees.unranked import XmlNode
from repro.trees.xml_io import serialize_xml
from repro.updates.batch import (
    BatchAppend,
    BatchDelete,
    BatchInsert,
    BatchRename,
)
from repro.updates.operations import rename_node

from tests.grammar.test_index import replay_script
from tests.grammar.test_navigation_axes import assert_targets_match, wrap
from tests.strategies import (
    batch_scripts,
    label_paths,
    shard_widths,
    update_scripts,
    xml_documents,
)

WEBLOG = (
    "<log>"
    + "".join(
        f"<entry><ip/><status/><agent{i % 3}/></entry>" for i in range(40)
    )
    + "</log>"
)

#: Paths whose result sets the parity properties compare on every step.
PARITY_PATHS = ("//a", "//b", "/a/b", "//c/d", "//*[2]", "//zz")


def windows(n):
    """The ``[lo, hi)`` windows of an ``n``-long sequence the parity
    checks compare: every one up to 100 long (the random documents, also
    after their update scripts), the three-wide ones beyond (the
    Treebank scenarios, where every window would take minutes)."""
    if n <= 100:
        return [(lo, hi) for lo in range(n) for hi in range(lo + 1, n + 1)]
    return [(lo, min(lo + 3, n)) for lo in range(n)]


def observe(doc, paths=PARITY_PATHS):
    """Everything the kernel serves, as one comparable value."""
    n = doc.element_count
    kernel = doc.index.kernel
    return {
        "xml": doc.to_xml(),
        "tags": list(doc.tags()),
        "select": {path: doc.select(path) for path in paths},
        "count": {path: doc.count(path) for path in paths},
        "parents": [doc.parent_of(i) for i in range(n)],
        "depths": [doc.depth_of(i) for i in range(n)],
        "children": [list(doc.children(i)) for i in range(n)],
        "subtrees": [doc.subtree_xml(i) for i in range(n)],
        "node_windows": [
            [symbol.name for symbol in kernel_window(kernel, lo, hi, NODES)]
            for lo, hi in windows(doc.index.node_count)],
        "element_windows": [list(doc.tags(lo, hi)) for lo, hi in windows(n)],
    }


def oracle(doc, paths=PARITY_PATHS):
    """The value :func:`observe` must produce, computed without the
    kernel: one ``stream_elements`` and one ``stream_preorder`` pass, the
    decompressed tree, and the naive path evaluator."""
    root = doc.to_document()
    stream = list(stream_elements(doc.grammar))
    symbols = [symbol.name for symbol in stream_preorder(doc.grammar)]
    n = len(stream)
    tags = [tag for _index, tag, _parent, _depth in stream]
    children = [[] for _ in range(n)]
    for index, _tag, parent, _depth in stream:
        if parent is not None:
            children[parent].append(index)
    return {
        "xml": serialize_xml(root),
        "tags": tags,
        "select": {path: naive_select(root, path) for path in paths},
        "count": {path: naive_count(root, path) for path in paths},
        "parents": [parent for _index, _tag, parent, _depth in stream],
        "depths": [depth for _index, _tag, _parent, depth in stream],
        "children": children,
        "subtrees": [serialize_xml(node) for node in root.preorder()],
        "node_windows": [symbols[lo:hi] for lo, hi in windows(len(symbols))],
        "element_windows": [tags[lo:hi] for lo, hi in windows(n)],
    }


def assert_step_parity(doc, paths=PARITY_PATHS[:3]):
    """The per-operation check of the script properties."""
    root = doc.to_document()
    for path in paths:
        assert doc.select(path) == naive_select(root, path), path
    assert list(doc.tags()) == [
        tag for _index, tag, _parent, _depth in stream_elements(doc.grammar)
    ]


class TestSymbolTable:
    def test_interning_is_identity_keyed_and_stable(self):
        alphabet = Alphabet()
        a = alphabet.terminal("a", 2)
        b = alphabet.terminal("b", 2)
        table = SymbolTable()
        ia, ib = table.id_of(a), table.id_of(b)
        assert ia != ib
        assert table.id_of(a) == ia  # stable on re-intern
        assert table.symbol_of(ia) is a
        assert table.symbol_of(ib) is b
        assert len(table) == 2

    def test_distinct_objects_get_distinct_ids(self):
        # Identity interning: equal-looking symbols from different
        # alphabets are different ids (packs never compare across docs).
        a1 = Alphabet().terminal("a", 2)
        a2 = Alphabet().terminal("a", 2)
        table = SymbolTable()
        assert table.id_of(a1) != table.id_of(a2)

    def test_global_table_is_a_singleton(self):
        assert global_symbol_table() is global_symbol_table()


class TestOnePath:
    def test_three_element_document_is_kernel_served(self):
        doc = CompressedXml.from_xml("<a><b/><c/></a>")
        kernel = doc.index.kernel
        paths = ("//b", "/a/c", "//*")
        assert observe(doc, paths) == oracle(doc, paths)
        assert kernel.rules_packed > 0
        assert kernel.hits > 0

    def test_large_documents_engage_the_kernel(self):
        doc = CompressedXml.from_xml(WEBLOG)
        kernel = doc.index.kernel
        doc.select("//status")
        assert kernel.rules_packed > 0
        assert kernel.builds > 0

    def test_reader_pins_keep_the_live_kernel_serving(self):
        doc = CompressedXml.from_xml(WEBLOG)
        kernel = doc.index.kernel
        with doc.snapshot() as view:
            before = view.select("//status")
            hits = kernel.hits
            assert doc.select("//status") == before
            assert doc.tag_of(2) == "ip"
            assert kernel.hits > hits
            doc.rename(2, "renamed")
            assert doc.select("//renamed") == [2]  # repacks the spine
            hits = kernel.hits
            assert doc.tag_of(6) == "ip"
            assert kernel.hits > hits
            # The view has its own index and kernel over frozen bodies.
            assert view._index.kernel is not kernel
            assert view.select("//status") == before

    def test_kernel_info_shape(self):
        doc = CompressedXml.from_xml(WEBLOG)
        doc.select("//ip")
        info = doc.index.kernel_info()
        assert set(info) == {
            "rules_packed", "bytes_packed", "builds", "evictions",
            "hits", "misses", "wholesale_invalidations",
        }
        assert info["bytes_packed"] > 0
        assert info["wholesale_invalidations"] == 0


class TestKernelWindow:
    def test_empty_whole_and_last_windows(self):
        """The window bounds the parity properties leave out on a large
        document: empty and inverted windows yield nothing, the window
        over everything is the plain stream, and the one-wide window at
        the end is the last terminal -- in either unit."""
        doc = CompressedXml.from_xml(WEBLOG)
        kernel = doc.index.kernel
        symbols = [symbol.name for symbol in stream_preorder(doc.grammar)]
        tags = list(doc.tags())
        for unit, names in ((NODES, symbols), (ELEMENTS, tags)):
            n = len(names)
            assert n > 100
            assert list(kernel_window(kernel, 7, 7, unit)) == []
            assert list(kernel_window(kernel, 7, 6, unit)) == []
            assert [symbol.name for symbol
                    in kernel_window(kernel, 0, n, unit)] == names
            assert [symbol.name for symbol
                    in kernel_window(kernel, n - 1, n, unit)] == names[-1:]


class TestKernelParity:
    @given(xml_documents(max_elements=25),
           st.one_of(st.just(DEFAULT_SHARD_WIDTH), shard_widths()))
    @settings(max_examples=40, deadline=None)
    def test_static_parity(self, tree, width):
        doc = CompressedXml.from_document(tree, shard_width=width)
        assert observe(doc) == oracle(doc)
        assert doc.index.kernel.rules_packed > 0

    @given(xml_documents(max_elements=25), label_paths())
    @settings(max_examples=40, deadline=None)
    def test_random_path_parity(self, tree, path):
        doc = CompressedXml.from_document(tree)
        assert doc.select(path) == naive_select(tree, path), path
        assert doc.count(path) == naive_count(tree, path), path

    @given(
        xml_documents(max_elements=20),
        update_scripts(max_ops=6),
        st.one_of(st.just(DEFAULT_SHARD_WIDTH), shard_widths()),
    )
    @settings(max_examples=25, deadline=None)
    def test_parity_after_update_scripts(self, tree, script, width):
        """Pack invalidation is exercised: the document is warmed, then
        queried after every operation of the script."""
        doc = CompressedXml.from_document(tree, shard_width=width)
        assert observe(doc) == oracle(doc)
        for _ in replay_script(doc, script):
            assert_step_parity(doc)
        assert observe(doc) == oracle(doc)
        # Eviction must be surgical: a script of point updates (and even
        # recompressions) never justifies dropping every pack at once.
        assert doc.index.kernel.wholesale_invalidations == 0
        assert doc.index.wholesale_invalidations == 0

    @given(xml_documents(max_elements=15), batch_scripts(max_ops=8))
    @settings(max_examples=20, deadline=None)
    def test_parity_after_batches(self, tree, script):
        doc = CompressedXml.from_document(tree)
        doc.count("//a")
        for kind, fraction, tag, wide in script:
            count = doc.element_count
            content = [XmlNode(tag), XmlNode(tag)] if wide else XmlNode(tag)
            if kind == "rename":
                op = BatchRename(int(fraction * count), tag)
            elif kind == "insert" and count > 1:
                op = BatchInsert(1 + int(fraction * (count - 1)), content)
            elif kind == "append":
                op = BatchAppend(int(fraction * count), content)
            elif kind == "delete" and count > 1:
                op = BatchDelete(1 + int(fraction * (count - 1)))
            else:
                continue
            doc.apply_batch([op])
            assert_step_parity(doc)
        assert observe(doc) == oracle(doc)
        assert doc.index.kernel.wholesale_invalidations == 0


class TestEvictionAccounting:
    def warmed(self):
        doc = CompressedXml.from_xml(WEBLOG)
        doc.select("//status")
        doc.select("//ip")
        list(doc.tags())
        return doc, doc.index.kernel

    def test_point_update_splices_the_touched_rule(self):
        doc, kernel = self.warmed()
        packed_before = kernel.rules_packed
        builds_before = kernel.builds
        assert packed_before > 1
        doc.rename(2, "ipaddr")
        # The write patches the one pack it lands in: nothing dies, and
        # the read after it finds every pack it needs.
        assert kernel.evictions == 0
        assert kernel.rules_packed == packed_before
        assert kernel.wholesale_invalidations == 0
        assert doc.select("//ipaddr") == [2]
        assert kernel.builds == builds_before

    def test_recompression_is_not_wholesale(self):
        doc, kernel = self.warmed()
        doc.rename(2, "needle")
        doc.append_child(0, XmlNode("trailer", [XmlNode("checksum")]))
        evictions_before = kernel.evictions
        doc.recompress()
        doc.select("//needle")
        list(doc.tags())
        assert kernel.evictions > evictions_before
        assert kernel.wholesale_invalidations == 0
        assert doc.index.wholesale_invalidations == 0

    def test_interleaved_traffic_never_goes_wholesale(self):
        doc, kernel = self.warmed()
        for step in range(12):
            doc.rename(2 + step * 3, f"t{step % 4}")
            doc.append_child(0, XmlNode(f"t{step % 4}"))
            if step % 5 == 4:
                doc.recompress()
            assert_step_parity(doc, ("//t1",))
        assert kernel.evictions > 0
        assert kernel.wholesale_invalidations == 0

    def test_bytes_packed_tracks_pack_population(self):
        doc, kernel = self.warmed()
        assert kernel.bytes_packed > 0
        assert kernel.to_dict()["bytes_packed"] == kernel.bytes_packed
        doc.index.invalidate_all()
        assert kernel.rules_packed == 0
        assert kernel.bytes_packed == 0
        assert kernel.wholesale_invalidations == 1


#: The columns a splice must leave exactly as a cold build would.
VALUE_COLUMNS = ("kind", "sym", "rank", "span", "nnodes", "nelems",
                 "params", "sym_objs", "sym_names", "calls")


def assert_packs_equal_cold_build(doc):
    """Every cached pack equals, column for column, a pack cold-built
    from the same live body into a throw-away index; every cached rule's
    segments equal the from-scratch ``parameter_segments`` and the cold
    index's element segments; every cached census and every label-count
    column attached to a pack equal the cold index's."""
    live = doc.index
    cold_index = GrammarIndex(doc.grammar, register=False)
    node_segments = parameter_segments(doc.grammar)
    assert set(live._censuses) <= set(live.cached_rules())
    for head in live.cached_rules():
        assert live._node_segments[head] == node_segments[head], head
        assert live._elem_segments[head] == \
            cold_index.element_segments(head), head
        census = live.peek_census(head)
        if census is not None:
            assert census == cold_index.label_census(head), head
        pack = live.kernel.peek(head)
        if pack is None:
            continue  # segments only (relabel-evicted or snapshot-loaded)
        cold = cold_index.kernel.pack(head)
        for column in VALUE_COLUMNS:
            assert getattr(pack, column) == getattr(cold, column), \
                (head, column)
        assert len(pack.node_objs) == len(cold.node_objs)
        assert all(a is b for a, b in zip(pack.node_objs, cold.node_objs))
        for a, b in zip(pack.steps, cold.steps):
            assert (a is None) == (b is None), head
            if a is not None:
                assert a.node is b.node, head
                assert a.enters_rule == b.enters_rule, head
        assert pack.node_segs is live._node_segments[head]
        assert pack.elem_segs is live._elem_segments[head]
        if pack.routes is not None:  # dropped by a write, not yet asked for
            assert pack.routes == cold.routes, head
        if pack._label_arrays:
            assert census is not None, head
        for label, counts in pack._label_arrays.items():
            assert counts == cold.label_counts(cold_index, label), \
                (head, label)


def warm(doc):
    """Give every rule every fact: packs, censuses, label counts for
    each label, route summaries."""
    for label in set(doc.tags()):
        doc.select(f"//{label}")
    for element in range(doc.element_count):
        doc.parent_of(element)


def spine_rules(doc):
    """The shard heads, in the grammar's (deterministic) rule order."""
    heads = doc.shard_manager.heads
    return [rule for rule in doc.grammar.rules if rule in heads]


def closure(grammar, head):
    """``head`` and every rule whose body applies it, transitively."""
    appliers = references(grammar)
    found = {head}
    stack = [head]
    while stack:
        for rule, _node in appliers[stack.pop()]:
            if rule not in found:
                found.add(rule)
                stack.append(rule)
    return found


def clobber(value):
    """Change one part of a cached fact in place (``False``: nothing
    to change)."""
    for part, held in value.items():
        if isinstance(held, int):
            value[part] = held + 1
        elif isinstance(held, dict):
            held["clobbered"] = 1
        elif isinstance(held, list) and held:
            first = held[0]
            held[0] = first + 1 if isinstance(first, int) else ("clobbered",)
        else:
            continue
        return True
    return False


#: The columns that say which node sits where: no write may change them
#: in a pack a walk can already stand in (a splice publishes a successor).
LAYOUT_COLUMNS = ("kind", "rank", "span", "params", "node_objs")


def published_layouts(doc):
    """Every cached pack with a copy of its layout columns."""
    return [(pack, [list(getattr(pack, column)) for column in LAYOUT_COLUMNS])
            for pack in doc.index.kernel._packs.values()]


def assert_layouts_unmoved(layouts):
    for pack, columns in layouts:
        for name, was in zip(LAYOUT_COLUMNS, columns):
            now = getattr(pack, name)
            assert len(now) == len(was), (pack.head, name)
            assert all(a is b or a == b for a, b in zip(now, was)), \
                (pack.head, name)


class TestSpliceEqualsRebuild:
    """The cold build is the reference; the write-point splice must
    reach the same columns from the other side, after every operation."""

    @given(xml_documents(max_elements=25), update_scripts(max_ops=8),
           st.one_of(st.just(DEFAULT_SHARD_WIDTH), shard_widths()))
    @settings(max_examples=40, deadline=None)
    def test_after_every_operation(self, tree, script, width):
        doc = CompressedXml.from_document(tree, shard_width=width)
        doc.tag_of(0)
        assert_packs_equal_cold_build(doc)
        layouts = published_layouts(doc)
        for _ in replay_script(doc, script):
            assert_packs_equal_cold_build(doc)
            assert_layouts_unmoved(layouts)
            # The reads a write is followed by in real traffic: they
            # pack what the write evicted, so the next splice has a pack,
            # and attach label counts for the next one to drop.
            doc.tag_of(doc.element_count - 1)
            doc.count("//a//b")
            doc.select("//c")
            layouts = published_layouts(doc)
        assert doc.index.wholesale_invalidations == 0

    @given(xml_documents(max_elements=20), update_scripts(max_ops=6),
           shard_widths())
    @settings(max_examples=25, deadline=None)
    def test_with_a_reader_pinned_throughout(self, tree, script, width):
        doc = CompressedXml.from_document(tree, shard_width=width)
        with doc.snapshot() as view:
            before = view.to_xml()
            for _ in replay_script(doc, script):
                assert_packs_equal_cold_build(doc)
                list(doc.tags())
            assert view.to_xml() == before
        assert observe(doc) == oracle(doc)

    def test_delete_consuming_a_continuation_takes_the_fallback(self):
        # <big>'s subtree spans several chunk shards: deleting it takes
        # their continuation parameters with it.  That is not a local
        # splice -- the packs involved go the evict-and-rebuild way, the
        # shard ranks are repaired, and everything still agrees.
        # (Distinct tags keep the start rule wide enough to be sharded.)
        big = XmlNode("big", [XmlNode(f"x{i}", [XmlNode(f"y{i}")])
                              for i in range(30)])
        tail = [XmlNode(f"z{i}") for i in range(6)]
        doc = CompressedXml.from_document(
            XmlNode("r", [XmlNode("a"), big] + tail), shard_width=8)
        list(doc.tags())
        assert_packs_equal_cold_build(doc)
        evicted = doc.index.evicted_rules
        doc.delete(2)
        assert any(action.startswith("demote")
                   for action in doc.shard_manager.stats.history)
        assert doc.index.evicted_rules > evicted
        assert_packs_equal_cold_build(doc)
        assert doc.to_xml() == \
            "<r><a/>" + "".join(f"<z{i}/>" for i in range(6)) + "</r>"
        assert observe(doc) == oracle(doc)
        assert doc.index.wholesale_invalidations == 0


def chain_positions(pack):
    """Every cached chain (``RulePack.chains``) of ``pack`` as the
    positions it holds: ``(positions, done)`` per head."""
    return [(tuple(head + offset for offset in offsets), done)
            for head, (offsets, done) in pack.chains.items()]


def assert_chains_hold(doc):
    """Every cached chain is one in its pack: each position is the
    continuation of the link before it, and a finished chain ends at a
    position that is no link."""
    index = doc.index
    for head in index.cached_rules():
        pack = index.peek(head)
        for links, done in chain_positions(pack) if pack else ():
            for at, follow in zip(links, links[1:]):
                assert _continuation(index, pack, at) == follow, head
            if done:
                assert _continuation(index, pack, links[-1]) == -1, head


def first_chain(doc):
    """The positions of the start pack's first chain."""
    return min(chain_positions(doc.index.peek(doc.grammar.start)))[0]


ENTRIES = 40
ENTRY_LIST = "".join(f"<e><x{i % 3}/></e>" for i in range(ENTRIES))
TWO_LISTS = f"<r><a>{ENTRY_LIST}</a><b>{ENTRY_LIST}</b></r>"


class TestChainJumps:
    """The element descent jumps along the sibling chains of wide packs
    (``RulePack.chains``); its answers -- tag, parent, depth, both write
    targets -- must equal the e2e model's and ``resolve_preorder_path``'s,
    and a splice must carry the chains it does not cut over."""

    # Element indices in TWO_LISTS: r 0, a 1, a's k-th entry 2 + 2k,
    # b 2 + 2n, b's k-th entry 3 + 2n + 2k.
    @pytest.mark.parametrize("where, write, chain", [
        # Below the first entry of a's list, in front of every head.
        ("before", ("append_child", 3, (("y", 0),)), 0),
        # Before the middle entry of a's list: the chain is cut there.
        ("inside", ("insert", 2 + ENTRIES, (("n", 0),)), -ENTRIES // 2 - 1),
        # At the terminator of a's list: its last position goes.
        ("end", ("append_child", 1, (("z", 0),)), -1),
        # In b's list, behind a's whole chain.
        ("after", ("insert", 3 + 3 * ENTRIES, (("n", 0),)), 0),
    ])
    def test_a_splice_carries_the_chains_over(self, where, write, chain):
        doc = CompressedXml.from_xml(TWO_LISTS, compress=False)
        model = FlatDoc.from_xml(TWO_LISTS)
        everything = range(doc.element_count)
        assert_targets_match(doc, model, everything, paths=7)
        start = doc.grammar.start
        pack = doc.index.peek(start)
        assert len(pack.kind) >= CHAIN_MIN_NODES
        before = first_chain(doc)
        assert len(before) == ENTRIES  # a's list: entries 1.. and its ⊥
        builds = doc.index.builds
        kind, at, fragment = write
        getattr(model, kind)(at, fragment)
        node = XmlNode(fragment[0][0])
        getattr(doc, kind)(at, node)
        successor = doc.index.peek(start)
        assert successor is not pack and doc.index.builds == builds
        assert_chains_hold(doc)
        after = first_chain(doc)
        assert len(after) == ENTRIES + chain
        if where == "before":  # shifted by the width change
            shift = after[0] - before[0]
            assert shift > 0 and after == tuple(q + shift for q in before)
        else:
            assert after == before[:len(after)]
        assert_targets_match(doc, model, range(len(model)), paths=7)
        assert_chains_hold(doc)
        assert doc.index.builds == builds

    def test_a_chain_passing_a_parameter_and_applications(self):
        """``A``'s chain holds ``y1`` in the front part of one link and
        applications of ``B(y1) -> h(⊥, y1)`` as links: the element
        counts in front of a position need the bound argument's size.
        It ends at an application of ``C(y1) -> k(y1, ⊥)``, whose
        argument is no continuation: it lies one level deeper."""
        alphabet = Alphabet()
        names = {name: alphabet.nonterminal(name, rank) for name, rank
                 in (("S", 0), ("A", 1), ("B", 1), ("C", 1))}
        grammar = Grammar(alphabet, names["S"])
        body = "C(e(#,e(#,#)))"
        for i in reversed(range(60)):
            if i == 30:
                body = f"f(y1,{body})"
            body = f"B({body})" if i % 4 == 1 else f"e{i % 3}(#,{body})"
        for name, rhs in (("B", "h(#,y1)"), ("C", "k(y1,#)"), ("A", body),
                          ("S", "r(A(x(#,x(#,x(#,#)))),#)")):
            grammar.set_rule(names[name],
                             parse_term(rhs, alphabet, frozenset(names)))
        grammar.validate()
        doc = CompressedXml(grammar)
        model = FlatDoc.from_xml(doc.to_xml())
        assert_targets_match(doc, model, range(len(model)), paths=3)
        pack = doc.index.peek(names["A"])
        assert len(pack.kind) >= CHAIN_MIN_NODES
        links = max((links for links, _done in chain_positions(pack)),
                    key=len)
        assert len(links) > 50 and pack.params[links[0]] == (1,)
        assert {pack.kind[at] for at in links} >= {1, 2}  # both link kinds
        assert_chains_hold(doc)

    def test_a_flat_list_of_chunk_shards(self):
        """3 000 children at width 256: chunk shards ending in ``y1``,
        each a chain of ~120 links under one binding."""
        tree = XmlNode("list", [XmlNode(f"c{i % 3}") for i in range(3000)])
        doc = CompressedXml.from_document(tree, compress=False)
        model = FlatDoc.from_xml(doc.to_xml())
        assert_targets_match(doc, model, range(len(model)), paths=50)
        rng = random.Random(7)
        for _ in range(12):
            at = rng.randrange(1, len(model))
            if rng.random() < 0.5:
                doc.insert(at, XmlNode("n"))
                model.insert(at, (("n", 0),))
            else:
                doc.delete(at)
                model.delete(at)
            sample = {min(k, len(model) - 1) for k in (at - 1, at, at + 1)}
            sample.update(rng.randrange(len(model)) for _ in range(40))
            assert_targets_match(doc, model, sample, paths=4)
        assert_chains_hold(doc)
        chained = [pack for pack in map(doc.index.peek,
                                        doc.shard_manager.heads)
                   if pack and pack.params[0] and pack.chains]
        assert chained


class TestSuspendedWalksSurviveWrites:
    """``tags()`` and ``children()`` are generators: their consumer may
    write between two ``next()`` calls.  A splice never moves an entry
    of a pack such a walk stands in, so a walk whose consumer edits the
    element it was just handed finishes on the document it started on
    -- what evict-and-rebuild gave for free (old packs were dropped,
    never touched)."""

    @staticmethod
    def treebank(edges=2000):
        return CompressedXml.from_document(
            make_corpus("Treebank", edges=edges, seed=42), shard_width=64)

    def test_renaming_every_match_of_a_tags_walk(self):
        doc = self.treebank()
        before = list(doc.tags())
        visited = []
        for index, tag in enumerate(doc.tags()):
            visited.append(tag)
            if tag == "NP":
                doc.rename(index, "X")
        assert visited == before
        assert list(doc.tags()) == \
            ["X" if tag == "NP" else tag for tag in before]
        assert observe(doc) == oracle(doc)

    @pytest.mark.parametrize(
        "kinds", [("rename",), ("insert",), ("append",), ("delete",),
                  ("rename", "insert", "append", "delete")],
        ids=lambda kinds: "+".join(kinds))
    def test_editing_the_element_a_tags_walk_just_yielded(self, kinds):
        doc = self.treebank(edges=800)
        before = list(doc.tags())
        rng = random.Random(7)
        visited = []
        writes = 0
        shift = 0  # just-yielded element: index now - index at the start
        for index, tag in enumerate(doc.tags()):
            visited.append(tag)
            here = index + shift
            if index == 0 or rng.random() >= 0.15:
                continue
            kind = rng.choice(kinds)
            if kind == "rename":
                doc.rename(here, "EDITED")
            elif kind == "insert":
                doc.insert(here, XmlNode("NEW", [XmlNode("LEAF")]))
                shift += 2
            elif kind == "append":
                doc.append_child(here, XmlNode("NEW"))
            elif doc.first_child(here) is None:
                doc.delete(here)
                shift -= 1
            else:
                continue
            writes += 1
        assert writes > 40
        assert visited == before
        assert observe(doc) == oracle(doc)
        assert_packs_equal_cold_build(doc)

    def test_children_walk_across_writes(self):
        doc = self.treebank(edges=800)
        before = list(doc.children(0))
        assert len(before) > 20
        visited = []
        for child in doc.children(0):
            visited.append(child)
            doc.rename(child, "EDITED")
            # Size-changing splices of the spine the children hang off
            # that leave every child's index where it was: in front of
            # the child and out again, then behind the last element.
            doc.insert(child, XmlNode("NEW", [XmlNode("LEAF")]))
            doc.delete(child)
            doc.append_child(doc.element_count - 1, XmlNode("NEW"))
        assert visited == before
        assert [doc.tag_of(child) for child in before] == \
            ["EDITED"] * len(before)
        assert observe(doc) == oracle(doc)


def index_resumed_children(doc, element):
    """``children_with_tags`` as specified, on the public axes: a
    child's sizes are read before it is handed out, the next child is
    found by index from the root after the consumer had its turn."""
    index = doc.index
    child = index.first_child(element)
    while child is not None:
        following = index.next_sibling(child)
        yield child, index.tag_of(child)
        child = following


class TestSuspendedChildrenWalksResumeByIndex:
    """A ``children()`` walk resumes from the binding of the child it
    just handed out -- unless its consumer wrote in between: then the
    next child is the element at the index the pre-write sizes name,
    exactly as when every child cost a root descent."""

    LOG = "<r><a/><b><b1/></b><c/><d/><e/></r>"

    def test_insert_before_the_current_child(self):
        doc = CompressedXml.from_xml(self.LOG)
        seen = []
        for child, tag in doc.index.children_with_tags(0):
            seen.append((child, tag))
            if tag == "b" and len(seen) == 2:
                doc.insert(child, XmlNode("new"))
        # The index the pre-write sizes name -- behind ``b``'s subtree
        # as it was -- now holds ``b1``, an only child: the walk ends.
        assert seen == [(1, "a"), (2, "b"), (4, "b1")]
        assert observe(doc) == oracle(doc)

    def test_delete_of_the_next_sibling(self):
        doc = CompressedXml.from_xml(self.LOG)
        seen = []
        for child, tag in doc.index.children_with_tags(0):
            seen.append((child, tag))
            if tag == "b":
                doc.delete(child + 2)  # ``c``
        assert seen == [(1, "a"), (2, "b"), (4, "d"), (5, "e")]
        assert observe(doc) == oracle(doc)

    @pytest.mark.parametrize("kind", ["insert-before", "delete-next"])
    def test_treebank_walk_equals_the_index_resumed_one(self, kind):
        docs = [TestSuspendedWalksSurviveWrites.treebank(edges=800)
                for _ in range(2)]
        walks = [docs[0].index.children_with_tags(0),
                 index_resumed_children(docs[1], 0)]
        rng = random.Random(3)
        writes = 0
        for got, expected in zip(*walks):
            assert got == expected
            if rng.random() < 0.5:
                continue
            child = got[0]
            for doc in docs:
                if kind == "insert-before":
                    doc.insert(child, XmlNode("NEW", [XmlNode("LEAF")]))
                else:
                    following = doc.next_sibling(child)
                    if following is not None and \
                            doc.next_sibling(following) is not None:
                        doc.delete(following)
            writes += 1
        # An insert in front of a child with descendants ends the walk
        # early (the resumed index lands inside its subtree).
        assert writes >= 1 if kind == "insert-before" else writes > 8
        assert all(next(walk, None) is None for walk in walks)
        assert docs[0].to_xml() == docs[1].to_xml()
        assert observe(docs[0]) == oracle(docs[0])


class TestNavigationPaysOneDescent:
    """Counts, not clocks: one descent answers every axis of an element,
    it enters no more rules than a plain ``tag_of`` descent, and a
    ``children()`` walk starts at the start rule once -- plus once per
    write its consumer makes."""

    @pytest.fixture
    def descents(self, monkeypatch):
        """Every ``kernel_locate_element`` call the index makes, as
        ``(started at the start rule, rules entered)``."""
        import repro.grammar.index as index_module

        calls = []
        real = index_module.kernel_locate_element

        def counting(kernel, element_index, start=None):
            located = real(kernel, element_index, start)
            calls.append((start is None, len(located[4]) - 1))
            return located

        monkeypatch.setattr(index_module, "kernel_locate_element", counting)
        return calls

    def test_all_axes_of_an_element_are_one_descent(self, descents):
        doc = CompressedXml.from_document(
            make_corpus("Treebank", edges=2000, seed=42), shard_width=64)
        target = doc.element_count * 2 // 3
        doc.insert(target, XmlNode("NEW", [XmlNode("LEAF")]))
        del descents[:]
        kernel = doc.index.kernel
        hits = kernel.hits
        parent = doc.parent_of(target)
        axis_hits = kernel.hits - hits
        assert (doc.tag_of(target), doc.depth_of(target)) == \
            ("NEW", doc.depth_of(parent) + 1)
        doc.first_child(target), doc.next_sibling(target)
        assert [from_root for from_root, _ in descents] == [True, True]
        # ... the second one being ``depth_of(parent)``.  A fresh
        # neighbour's plain descent costs as much as the axis one did.
        hits = kernel.hits
        assert doc.tag_of(target + 1) == "LEAF"
        assert axis_hits <= kernel.hits - hits + 2
        assert descents[0][1] <= descents[2][1] + 2

    def test_children_walk_descends_from_the_root_once(self, descents):
        def from_root():
            return sum(from_root for from_root, _ in descents)

        doc = CompressedXml.from_xml(
            "<log>" + "<entry><user/><ts/></entry>" * 2000 + "</log>")
        assert list(doc.children(0)) == list(range(1, 6001, 3))
        assert 1 <= from_root() <= 2  # the parent; not one per child
        assert len(descents) >= 2000
        walk = doc.children(0)
        assert [next(walk) for _ in range(1000)] == list(range(1, 3001, 3))
        doc.insert(4999, XmlNode("late"))  # a child further on
        before = from_root()
        assert list(walk) == list(range(3001, 4999, 3)) + [4999] + \
            list(range(5000, 6002, 3))
        # The bindings the walk held are stale: the next child is found
        # by index from the root, the ones after it from bindings again.
        assert from_root() == before + 1


class TestCountersProveTheCut:
    """A single-op write splices the rule it lands in instead of
    evicting it and its spine: on a fixed sharded Treebank document,
    200 seeded writes -- each followed by the read that used to pay the
    rebuild -- build and evict a small multiple of what the reshard
    splits and merges alone account for."""

    #: 54 builds / 51 evicted rules on this scenario (all from shard
    #: splits, merges and garbage collection); evicting the written
    #: shard and its spine dependents per write, the parent commit did
    #: 554 / 444.
    BUILDS_CEILING = 100
    EVICTED_CEILING = 100

    def test_single_op_traffic_builds_and_evicts_little(self):
        doc = CompressedXml.from_document(
            make_corpus("Treebank", edges=2000, seed=42), shard_width=64
        )
        rng = random.Random(42)
        kinds = ("rename", "rename", "rename", "insert", "insert",
                 "append", "delete")
        tags = ("NP", "VP", "NN", "JJ", "X", "EDITED")
        script = [(rng.choice(kinds), rng.random(), rng.choice(tags))
                  for _ in range(200)]
        doc.tag_of(1)
        index, kernel = doc.index, doc.index.kernel
        builds, evicted = kernel.builds, index.evicted_rules
        for _ in replay_script(doc, script):
            doc.tag_of(int(rng.random() * doc.element_count))
        assert 0 < kernel.builds - builds <= self.BUILDS_CEILING
        assert 0 < index.evicted_rules - evicted <= self.EVICTED_CEILING
        assert index.wholesale_invalidations == 0
        assert kernel.wholesale_invalidations == 0
        assert_packs_equal_cold_build(doc)


class TestFactLifecycle:
    """Every fact of ``RULE_FACTS`` follows its invalidation class, on a
    warmed sharded document: a fact added to the declaration is covered
    here without new test code."""

    @staticmethod
    def warmed():
        doc = CompressedXml.from_document(
            make_corpus("Treebank", edges=150, seed=3), shard_width=8)
        warm(doc)
        return doc

    @staticmethod
    def cached(index):
        """``{(fact, rule): cached value}`` of every fact held."""
        return {(fact, head): value for fact in RULE_FACTS
                for head in index.grammar.rules
                for value in [fact.peek(index, head)] if value is not None}

    @staticmethod
    def assert_dropped_along(index, before, closure, dropped_facts,
                             patched=()):
        """``dropped_facts`` went on every rule of ``closure``; every
        other held fact is still held, with its value unchanged unless
        it is a structural fact of the closure or one of ``patched``
        there (patched in place)."""
        for fact in dropped_facts:
            assert any(rule in closure for f, rule in before if f is fact), \
                fact.name  # it was there to drop
        for (fact, rule), value in before.items():
            now = fact.peek(index, rule)
            if rule in closure and fact in dropped_facts:
                assert now is None, (fact.name, rule)
            elif rule in closure and (fact.invalidation == STRUCTURAL
                                      or fact in patched):
                assert now is not None, (fact.name, rule)
            elif fact.invalidation == PARENT_POINT and now is None:
                # Dropped only where a parent point may have moved.
                assert rule in closure, (fact.name, rule)
                assert any(point for _delta, point in value["routes"]), rule
            else:
                assert now == value, (fact.name, rule)

    def test_every_declared_fact_follows_its_class(self, tmp_path):
        label_facts = tuple(fact for fact in RULE_FACTS
                            if fact.invalidation == LABEL)
        census = tuple(fact for fact in label_facts if fact.name == "census")
        # What a write along the spine drops: the census moves instead.
        spine_drops = tuple(set(label_facts) - set(census))
        doc = self.warmed()
        grammar, index = doc.grammar, doc.index
        assert {fact.invalidation for fact, _rule in self.cached(index)} \
            == {STRUCTURAL, LABEL, PARENT_POINT}
        # The scrub audits every column a splice must get right.
        assert set(VALUE_COLUMNS) <= set(PACK_COLUMNS)

        # ``rule_changed``: every fact of the rule and its dependents.
        head = max(grammar.rules, key=lambda rule: len(closure(grammar, rule)))
        before = self.cached(index)
        index.rule_changed(head)
        self.assert_dropped_along(index, before, closure(grammar, head),
                                  RULE_FACTS)

        # A relabel: only the label facts, along the spine above it (the
        # census moves by the delta, the others go).
        doc = self.warmed()
        grammar, index = doc.grammar, doc.index
        head, node = next(
            (rule, node) for rule in spine_rules(doc)
            for node in preorder(grammar.rhs(rule))
            if node.symbol.is_terminal and not node.symbol.is_bottom)
        before = self.cached(index)
        rename_node(node, grammar.alphabet.terminal(
            "relabeled", node.symbol.rank))
        grammar.notify_rule_relabeled(head, node)
        self.assert_dropped_along(index, before, closure(grammar, head),
                                  spine_drops, census)
        assert_packs_equal_cold_build(doc)

        # A local splice: the label facts along the spine, as for the
        # relabel; the structural ones patched in place; routes only
        # where ``_spine`` moves a parent point -- on this spine it does.
        doc = self.warmed()
        grammar, index = doc.grammar, doc.index
        head = next(rule for rule in spine_rules(doc)
                    if not rule.rank and any(
                        point for rule_above in closure(grammar, rule)
                        for _delta, point in index.peek(rule_above).routes))
        before = self.cached(index)
        evicted = index.evicted_rules
        wrap(grammar, head, grammar.rhs(head), "spliced", 2)
        assert index.evicted_rules == evicted  # local: nothing evicted
        self.assert_dropped_along(index, before, closure(grammar, head),
                                  spine_drops, census)
        assert any(value is not None and fact.peek(index, rule) is None
                   for (fact, rule), value in before.items()
                   if fact.invalidation == PARENT_POINT)
        assert_packs_equal_cold_build(doc)

        # ``invalidate_all``: every fact, counted once.
        assert index.wholesale_invalidations == 0
        index.invalidate_all()
        assert self.cached(index) == {}
        assert index.wholesale_invalidations == 1
        assert index.to_dict()["wholesale_invalidations"] == 1
        assert doc.label_index.to_dict()["wholesale_invalidations"] == 1

        # scrub names each fact when that fact is clobbered.
        store = DurableXml.create(str(tmp_path / "store"), self.warmed())
        try:
            index = store.document.index
            for fact in RULE_FACTS:
                warm(store.document)
                head = next(rule for rule in index.cached_rules()
                            for value in [fact.peek(index, rule)]
                            if value is not None and clobber(value))
                drift = [finding for finding in store.scrub().findings
                         if finding.kind == "grammar-index-drift"]
                assert [finding.subject for finding in drift
                        if finding.detail.startswith(
                            f"cached {fact.name} ")] == [str(head)]
                assert store.scrub(repair=True).repaired_count >= 1
                assert store.scrub().ok, fact.name
        finally:
            store.close()


class TestSnapshotReloadIsLazy:
    def test_snapshot_reload_starts_unpacked(self, tmp_path):
        doc = CompressedXml.from_xml(WEBLOG)
        doc.rename(2, "ipaddr")
        expected = doc.select("//status")
        doc.select("//status")  # warm: packs exist in the writer
        assert doc.index.kernel.rules_packed > 0

        path = str(tmp_path / "doc.snapshot")
        doc.save_snapshot(path)
        doc2 = CompressedXml.from_snapshot_file(path)

        # Mirrors the rules_censused == 0 guarantee: restoring segments
        # must not eagerly pack a single rule, nor count a wholesale
        # invalidation for the import.
        kernel = doc2.index.kernel
        assert kernel.rules_packed == 0
        assert kernel.wholesale_invalidations == 0

        assert doc2.select("//status") == expected
        assert kernel.rules_packed > 0
        assert kernel.wholesale_invalidations == 0

    def test_durable_open_starts_unpacked(self, tmp_path):
        store = str(tmp_path / "store")
        doc = CompressedXml.from_xml(WEBLOG)
        with DurableXml.create(store, doc) as durable:
            durable.document.rename(2, "ipaddr")
            expected = durable.document.select("//status")

        with DurableXml.open(store) as durable:
            kernel = durable.document.index.kernel
            assert kernel.rules_packed == 0
            assert durable.document.select("//status") == expected
            assert kernel.rules_packed > 0
            assert kernel.wholesale_invalidations == 0

    @given(xml_documents(max_elements=20))
    @settings(max_examples=15, deadline=None)
    def test_snapshot_round_trip_parity(self, tmp_path_factory, tree):
        doc = CompressedXml.from_document(tree)
        if doc.element_count > 2:
            doc.rename(1, "renamed")
        before = observe(doc)
        tmp = tmp_path_factory.mktemp("ksnap")
        path = str(tmp / "doc.snapshot")
        doc.save_snapshot(path)
        doc2 = CompressedXml.from_snapshot_file(path)
        kernel = doc2.index.kernel
        assert kernel.rules_packed == 0
        assert observe(doc2) == before
        assert kernel.wholesale_invalidations == 0


class TestKernelMetricsSurface:
    def test_metrics_source_and_counters(self):
        doc = CompressedXml.from_xml(WEBLOG)
        doc.select("//status")
        metrics = doc.metrics()
        source = metrics["sources"]["repro_kernel"]
        assert source == doc.index.kernel_info()
        assert source["rules_packed"] > 0
        assert source["bytes_packed"] > 0
        prom = doc.metrics_registry.render_prometheus()
        assert "repro_kernel_builds_total" in prom
        assert "repro_kernel_evictions_total" in prom
        assert "repro_kernel_rules_packed" in prom

    def test_fresh_document_reports_the_full_surface(self):
        # Declared-at-wiring counters and the gauge source appear in the
        # first scrape.  Construction packs nothing; the scrape's own
        # element count does (the packs are the count tables).
        doc = CompressedXml.from_xml(WEBLOG)
        assert doc.index.kernel_info()["rules_packed"] == 0
        assert doc.index.kernel_info()["builds"] == 0
        source = doc.metrics()["sources"]["repro_kernel"]
        assert source["rules_packed"] == source["builds"] > 0
        prom = doc.metrics_registry.render_prometheus()
        assert "repro_kernel_builds_total" in prom
        assert "repro_kernel_evictions_total" in prom
