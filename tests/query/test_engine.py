"""Property tests for the grammar-native query engine (repro.query.engine).

The correctness bar is :func:`repro.query.naive.naive_select` evaluated on
the decompressed tree: for random documents, random label paths, and
random update/batch scripts, ``select`` on the grammar must return exactly
the same element-index sets -- and the results must satisfy the same
index contract every update entry point enforces.
"""

import random
from itertools import zip_longest

import pytest
from hypothesis import given, settings

from benchmarks.e2e.model import FlatDoc
from repro.api import CompressedXml
from repro.datasets.synthetic import make_corpus
from repro.grammar.sharding import DEFAULT_SHARD_WIDTH
from repro.query.engine import (
    _walk, extract_subtree, iter_matching_elements, select,
)
from repro.query.parser import parse_path
from repro.grammar.kernel import RulePack
from repro.query.naive import naive_select
from repro.trees.unranked import XmlNode, xml_equal
from repro.trees.xml_io import serialize_xml
from repro.updates.batch import BatchAppend, BatchDelete, BatchInsert, BatchRename

from tests.strategies import (
    batch_scripts,
    label_paths,
    update_scripts,
    xml_documents,
)
from tests.grammar.test_index import replay_script
from tests.test_kernel import closure

LOG = (
    "<log>"
    "<entry><ip/><ts/></entry>"
    "<entry><ip/><status/></entry>"
    "<meta><status/></meta>"
    "</log>"
)

#: Paths covering every syntactic feature against the LOG fixture.
FIXED_PATHS = (
    "/log",
    "/log/entry",
    "/log/entry/ip",
    "//entry",
    "//status",
    "/log//status",
    "/log/entry[2]",
    "/log/entry[2]/status",
    "/log/*[1]",
    "//entry/*",
    "//entry//ip",
    "//*",
    "/nope",
    "//nope",
    "/log/entry[9]",
)


def assert_select_matches_naive(doc, paths):
    plain = doc.to_document()
    for path in paths:
        assert doc.select(path) == naive_select(plain, path), path
        assert doc.count(path) == len(naive_select(plain, path)), path


class TestSelectFixtures:
    def test_fixture_paths(self):
        doc = CompressedXml.from_xml(LOG)
        assert_select_matches_naive(doc, FIXED_PATHS)

    def test_results_are_update_ready_indices(self):
        """The advertised contract: select() results feed rename/delete."""
        doc = CompressedXml.from_xml(LOG)
        for index in doc.select("//status"):
            assert doc.tag_of(index) == "status"
        doc.apply_batch(
            [BatchRename(i, "code") for i in doc.select("//status")]
        )
        assert doc.select("//status") == []
        assert doc.count("//code") == 2

    def test_select_on_uncompressed_grammar(self):
        doc = CompressedXml.from_xml(LOG, compress=False)
        assert_select_matches_naive(doc, FIXED_PATHS)

    def test_census_pruning_skips_unlabeled_subtrees(self, monkeypatch):
        """The label censuses must make a selective descendant query visit
        far fewer derivation nodes than the element count."""
        doc = CompressedXml.from_xml(
            "<log>" + "<entry><ip/><ts/></entry>" * 500 + "</log>"
        )
        doc.rename(7, "needle")
        visited = []
        original = RulePack.label_counts

        def counting(self, index, label):
            visited.append(self.head)
            return original(self, index, label)

        monkeypatch.setattr(RulePack, "label_counts", counting)
        assert doc.select("//needle") == [7]
        # A decompress-then-walk would touch all 1501 elements.
        assert len(visited) < doc.element_count / 10


class TestSelectProperties:
    @given(xml_documents(max_elements=30), label_paths())
    @settings(max_examples=60, deadline=None)
    def test_select_matches_naive(self, tree, path):
        doc = CompressedXml.from_document(tree)
        assert doc.select(path) == naive_select(tree, path), path

    @given(
        xml_documents(max_elements=20),
        update_scripts(max_ops=6),
        label_paths(max_steps=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_select_matches_naive_after_update_scripts(
        self, tree, script, path
    ):
        """Census invalidation is exercised: the censuses are warmed
        before the script, queried after every operation."""
        doc = CompressedXml.from_document(tree)
        assert doc.select(path) == naive_select(doc.to_document(), path)
        for _ in replay_script(doc, script):
            assert doc.select(path) == \
                naive_select(doc.to_document(), path), path
        assert doc.index.wholesale_invalidations == 0

    @given(xml_documents(max_elements=15), batch_scripts(max_ops=8))
    @settings(max_examples=20, deadline=None)
    def test_select_matches_naive_after_batches(self, tree, script):
        """Batched updates (one observer epoch per group) keep the query
        indexes coherent too."""
        doc = CompressedXml.from_document(tree)
        doc.count("//a")  # warm the label censuses
        ops = []
        for kind, fraction, tag, wide in script:
            count = doc.element_count
            content = [XmlNode(tag), XmlNode(tag)] if wide else XmlNode(tag)
            if kind == "rename":
                ops.append(BatchRename(int(fraction * count), tag))
            elif kind == "insert" and count > 1:
                ops.append(BatchInsert(1 + int(fraction * (count - 1)),
                                       content))
            elif kind == "append":
                ops.append(BatchAppend(int(fraction * count), content))
            elif kind == "delete" and count > 1:
                ops.append(BatchDelete(1 + int(fraction * (count - 1))))
            else:
                continue
            doc.apply_batch(ops[-1:])
        for path in ("//a", "/a//b", "//*[2]", "//c/d"):
            assert doc.select(path) == \
                naive_select(doc.to_document(), path), path


class TestIterMatching:
    def test_range_and_label_windows(self):
        """Every window of ``LOG``; seeded windows of sharded corpus
        documents after a few writes, where a window cuts through
        applications of summarised rules."""
        doc = CompressedXml.from_xml(LOG)
        n = doc.element_count
        self.check_windows(doc, [
            (lo, hi, label) for lo in range(n + 1) for hi in range(lo, n + 1)
            for label in ("ip", "entry", "nope", None)])
        rng = random.Random(31)
        for corpus in ("XMark", "EXI-Weblog"):
            doc = CompressedXml.from_document(
                make_corpus(corpus, 1500, seed=31), shard_width=64)
            labels = sorted(set(doc.tags())) + [None, "nope"]
            for _ in range(3):
                doc.rename(rng.randrange(1, doc.element_count),
                           rng.choice(labels[:-2]))
                doc.insert(rng.randrange(1, doc.element_count),
                           XmlNode("ins", [XmlNode(rng.choice(labels[:-2]))]))
                doc.delete(rng.randrange(1, doc.element_count))
            n = doc.element_count
            windows = []
            for _ in range(150):
                lo = rng.randrange(n + 1)
                hi = rng.randrange(lo, n + 1)
                windows.append((lo, hi, rng.choice(labels)))
            self.check_windows(doc, windows)

    @staticmethod
    def check_windows(doc, windows):
        tags = list(doc.tags())
        for lo, hi, label in windows:
            expected = [i for i in range(lo, hi)
                        if label is None or tags[i] == label]
            got = list(iter_matching_elements(doc.index, lo, hi, label))
            assert got == expected, (lo, hi, label)

    def test_hi_none_means_document_end(self):
        doc = CompressedXml.from_xml(LOG)
        got = list(iter_matching_elements(doc.index, 0, None, "ip"))
        assert got == [2, 5]

    def test_absent_label_stops_at_the_document_census(self):
        doc = CompressedXml.from_xml(LOG)
        assert doc.tag_of(0) == "log"  # packs every rule
        kernel = doc.index.kernel
        builds = kernel.builds
        assert list(iter_matching_elements(doc.index, 0, None, "zz")) == []
        assert kernel.builds == builds
        assert doc.index.censused_rule_count == len(doc.grammar.rules)
        assert all(not pack._label_arrays
                   for pack in kernel._packs.values())

    def test_wildcard_needs_no_census(self):
        doc = CompressedXml.from_xml(LOG)
        got = list(iter_matching_elements(doc.index, 2, 6, None))
        assert got == [2, 3, 4, 5]
        assert doc.index.censused_rule_count == 0


class TestSubtreeExtraction:
    def test_extract_matches_decompressed_subtrees(self):
        doc = CompressedXml.from_xml(LOG)
        plain = doc.to_document()
        nodes = list(plain.preorder())
        for index in range(doc.element_count):
            assert xml_equal(extract_subtree(doc.index, index), nodes[index])

    def test_subtree_xml_of_root_is_whole_document(self):
        doc = CompressedXml.from_xml(LOG)
        assert doc.subtree_xml(0) == LOG

    def test_subtree_xml_leaf_and_indent(self):
        doc = CompressedXml.from_xml(LOG)
        assert doc.subtree_xml(2) == "<ip/>"
        assert doc.subtree_xml(1, indent=2) == (
            "<entry>\n  <ip/>\n  <ts/>\n</entry>\n"
        )

    def test_extract_out_of_range(self):
        doc = CompressedXml.from_xml(LOG)
        with pytest.raises(IndexError):
            extract_subtree(doc.index, doc.element_count)
        with pytest.raises(IndexError):
            doc.subtree_xml(-1)

    @given(xml_documents(max_elements=25), update_scripts(max_ops=5))
    @settings(max_examples=20, deadline=None)
    def test_extract_matches_decompressed_after_updates(self, tree, script):
        doc = CompressedXml.from_document(tree)
        for _ in replay_script(doc, script):
            pass
        plain = doc.to_document()
        nodes = list(plain.preorder())
        for index in range(doc.element_count):
            assert xml_equal(extract_subtree(doc.index, index), nodes[index])


class TestEngineLevelApi:
    def test_select_accepts_preparsed_paths(self):
        from repro.query.parser import parse_path

        doc = CompressedXml.from_xml(LOG)
        parsed = parse_path("//entry")
        assert select(doc.index, parsed) == [1, 4]


# ----------------------------------------------------------------------
# the one walk: corpus-shaped fuzz and the counters behind it
# ----------------------------------------------------------------------
def draw_path(rng, tags):
    """A path over ``tags``: a third of the draws are the shapes that
    drive positional state through parameter bindings -- nested contexts
    with a descendant positional (``//a//b[2]``) and a descendant
    positional that is not last (``//a[2]/b``, ``//a[2]//b``)."""
    def pick():
        return rng.choice(tags)

    shape = rng.random()
    if shape < 0.12:
        return f"//{pick()}//{pick()}[{rng.randint(1, 3)}]"
    if shape < 0.24:
        return f"//{pick()}[{rng.randint(1, 3)}]/{pick()}"
    if shape < 0.34:
        return f"//{pick()}[{rng.randint(1, 3)}]//{pick()}"
    parts = []
    for _ in range(rng.randint(1, 4)):
        predicate = f"[{rng.randint(1, 3)}]" if rng.random() < 0.3 else ""
        parts.append(rng.choice(("/", "/", "//", "//")) + pick() + predicate)
    return "".join(parts)


class TestCorpusPathFuzz:
    """Corpus-shaped documents, sharded and not, under single-op writes,
    a batch and a recompression: every drawn path answers as
    ``query.naive`` and the e2e benchmark's flat model do -- on the live
    document in each state, and on a view pinned before the writes."""

    @staticmethod
    def check(target, model, plain, rng, draws):
        tags = sorted(set(model.tags)) + ["*", "*", "zz"]
        for _ in range(draws):
            path = draw_path(rng, tags)
            got = target.select(path)
            assert got == model.select(path), path
            assert target.count(path) == len(got), path
            if plain is not None:
                assert got == naive_select(plain, path), path

    @pytest.mark.parametrize("width", [64, DEFAULT_SHARD_WIDTH],
                             ids=["width64", "default"])
    @pytest.mark.parametrize("corpus", ["Treebank", "XMark", "EXI-Weblog"])
    def test_paths_in_every_state(self, corpus, width):
        rng = random.Random(23)
        doc = CompressedXml.from_document(
            make_corpus(corpus, 1500, seed=23), shard_width=width)
        model = FlatDoc.from_xml(doc.to_xml())
        self.check(doc, model, doc.to_document(), rng, 40)
        pinned = FlatDoc(list(model.tags), list(model.depths))
        with doc.snapshot() as view:
            for _ in range(60):
                at = rng.randrange(1, doc.element_count)
                kind = rng.choice(("rename", "insert", "append", "delete"))
                if kind == "rename":
                    tag = rng.choice(model.tags)
                    doc.rename(at, tag)
                    model.rename(at, tag)
                elif kind == "insert":
                    doc.insert(at, XmlNode("ins", [XmlNode("leaf")]))
                    model.insert(at, [("ins", 0), ("leaf", 1)])
                elif kind == "append":
                    doc.append_child(at, XmlNode("app"))
                    model.append_child(at, [("app", 0)])
                else:
                    doc.delete(at)
                    model.delete(at)
                self.check(doc, model, None, rng, 4)
            self.check(doc, model, doc.to_document(), rng, 40)
            ops = []
            for _ in range(8):
                at, tag = rng.randrange(1, len(model)), rng.choice(model.tags)
                ops.append(BatchRename(at, tag))
                model.rename(at, tag)
            at = rng.randrange(1, len(model))
            ops.append(BatchAppend(at, XmlNode("app")))
            model.append_child(at, [("app", 0)])
            doc.apply_batch(ops)
            self.check(doc, model, doc.to_document(), rng, 40)
            doc.recompress()
            self.check(doc, model, doc.to_document(), rng, 40)
            self.check(view, pinned, None, rng, 40)


class TestSuspendedAndInterleavedWalks:
    """The automaton and its summaries are shared by every walk of a
    path; what a walk counts (``seen``) is its own, and a walk resumed
    after a write keeps nothing it saw.  The index keeps a bounded
    number of paths."""

    PATH = "//item//listitem"

    def test_a_walk_resumed_after_a_write_keeps_nothing(self):
        doc = CompressedXml.from_document(
            make_corpus("XMark", 3000, seed=5), shard_width=64)
        steps = parse_path(self.PATH).steps
        expected = doc.select(self.PATH)
        doc.index.invalidate_all()  # nothing kept: the walk records
        walk = _walk(doc.index, steps)
        halfway = [next(walk) for _ in range(len(expected) // 2)]
        assert halfway == expected[:len(halfway)]
        # Inside a later shard: an element of a later item's subtree.
        later = next(at for at in range(expected[-1], halfway[-1], -1)
                     if doc.tag_of(at) not in ("item", "listitem")
                     and doc.index._locate_element(at)[1].head
                     is not doc.grammar.start)
        doc.rename(later, "listitem")
        list(walk)
        assert doc.select(self.PATH) == \
            naive_select(doc.to_document(), self.PATH)

    def test_interleaved_positional_walks_count_apart(self):
        """Nested parlists nest the ``[2]`` contexts, so a context stays
        open across the yields of its inner ones: a shared count would
        take the other walk's elements."""
        doc = CompressedXml.from_document(
            make_corpus("XMark", 3000, seed=5), shard_width=64)
        path = "//parlist//listitem[2]"
        steps = parse_path(path).steps
        expected = naive_select(doc.to_document(), path)
        assert expected
        # ``zip_longest`` advances the two generators in turn.
        pairs = list(zip_longest(_walk(doc.index, steps),
                                 _walk(doc.index, steps)))
        assert [a for a, _b in pairs if a is not None] == expected
        assert [b for _a, b in pairs if b is not None] == expected


    def test_evicting_a_path_drops_its_summaries(self):
        from repro.grammar.index import _PATHS

        doc = CompressedXml.from_document(
            make_corpus("XMark", 3000, seed=5), shard_width=64)
        index = doc.index
        steps = parse_path(self.PATH).steps
        doc.select(self.PATH)
        states = {id(state) for state in index._paths[steps].interned.values()}

        def summarised():
            return {key for held in index._summaries.values() for key in held}

        assert states & summarised()
        for k in range(_PATHS):
            doc.select(f"/site/*[{k + 1}]")
        assert len(index._paths) == _PATHS and steps not in index._paths
        assert not states & summarised()


class CountingColumn(list):
    """A pack's ``kind`` column that counts its reads: the walk reads it
    exactly once per popped item."""

    reads = 0

    def __getitem__(self, index):
        CountingColumn.reads += 1
        return list.__getitem__(self, index)


class RecordingColumn(list):
    """A pack's ``kind`` column noting the rule of every pack read."""

    rules = set()

    def __init__(self, pack):
        super().__init__(pack.kind)
        self.head = pack.head

    def __getitem__(self, index):
        RecordingColumn.rules.add(self.head)
        return list.__getitem__(self, index)


class TestCountersProveTheCut:
    """Counts, not clocks: what the one walk no longer does."""

    @staticmethod
    def xmark_after_a_batch():
        doc = CompressedXml.from_document(
            make_corpus("XMark", 12_000, seed=1), shard_width=256)
        for path in ("/site/people/person/homepage", "//item//listitem"):
            doc.select(path)
        doc.apply_batch([BatchRename(at, "bold") for at in (40, 42, 44, 46)]
                        + [BatchAppend(40, XmlNode("bidder"))])
        return doc

    def test_no_element_is_located(self, monkeypatch):
        """No root descent per context element (391 and 559 of them)."""
        from repro.grammar.index import GrammarIndex

        doc = self.xmark_after_a_batch()
        calls = []
        original = GrammarIndex._locate_element

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(GrammarIndex, "_locate_element", counting)
        assert len(doc.select("/site/people/person/homepage")) > 50
        assert len(doc.select("//item//listitem")) > 500
        assert calls == []

    def test_child_only_path_builds_no_census_table(self, monkeypatch):
        doc = self.xmark_after_a_batch()

        def forbid(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("a child-only path consulted the census")

        monkeypatch.setattr(RulePack, "label_counts", forbid)
        assert len(doc.select("/site/people/person/homepage")) > 50
        assert doc.select("/site/regions/*/item[3]/name") != []
        with pytest.raises(AssertionError):
            doc.select("//item//listitem")  # a descendant step does

    @pytest.mark.parametrize("entries", [200, 2000])
    def test_child_positional_stops_at_the_kth_sibling(self, entries):
        """``/log/entry[7]/ip`` pops the items of seven entries and then
        skips the rest of the chain as one dead subtree per stack level,
        however long the log."""
        doc = CompressedXml.from_xml(
            "<log>" + "<entry><ip/><ts/></entry>" * entries + "</log>")
        assert doc.select("/log/entry[7]/ip") == [20]  # packs every rule
        for pack in doc.index.kernel._packs.values():
            pack.walk = (CountingColumn(pack.kind),) + pack.walk[1:]
        CountingColumn.reads = 0
        assert doc.select("/log/entry[7]/ip") == [20]
        assert 0 < CountingColumn.reads < 150

    @pytest.mark.parametrize("path, before", [
        ("//item//listitem", 28_130),
        ("//auction/bidder[2]", 8_181),
        ("/site/people/person/homepage", 9_300),
    ])
    def test_repeated_applications_reuse_their_summary(self, path, before):
        """Match summaries: a rule's body is walked at most twice per
        entry state -- as it is, then to record its summary -- and every
        later application emits the recorded offsets and walks only its
        arguments.  ``before`` is what the walk read when it re-derived
        every application; the summaries cut it at least fivefold."""
        doc = self.xmark_after_a_batch()
        expected = doc.select(path)  # packs every rule the walk enters
        for pack in doc.index.kernel._packs.values():
            pack.walk = (CountingColumn(pack.kind),) + pack.walk[1:]
        CountingColumn.reads = 0
        assert doc.select(path) == expected
        assert 0 < CountingColumn.reads <= before // 5

    @pytest.mark.parametrize("path", [
        "//auction/bidder[2]", "//homepage"])
    def test_a_path_asked_again_reads_a_tenth(self, path):
        """The index keeps a path's summaries across queries: asked again
        with no write between, the path replays them and re-walks no
        body -- at most a tenth of the first walk's reads."""
        doc = self.xmark_after_a_batch()
        list(doc.tags())  # packs every rule, records no summary
        for pack in doc.index.kernel._packs.values():
            pack.walk = (CountingColumn(pack.kind),) + pack.walk[1:]
        CountingColumn.reads = 0
        expected = doc.select(path)
        first, CountingColumn.reads = CountingColumn.reads, 0
        assert doc.select(path) == expected
        assert 0 < CountingColumn.reads <= first // 10

    def test_a_write_rereads_only_the_packs_it_changed(self):
        """After one rename inside one shard, a re-select reads the kind
        column of the written rule and of the spine above it, and of no
        pack the write left in place: their summaries survive."""
        doc = self.xmark_after_a_batch()
        path = "//item//listitem"
        doc.select(path)
        heads = doc.shard_manager.heads
        at = next(at for at in range(doc.element_count // 4,
                                     doc.element_count)
                  if doc.tag_of(at) == "text"  # off the path, in a shard
                  and any(step.node.symbol in heads
                          for step in doc.index.resolve_element(at)[1]))
        doc.rename(at, "keyword")
        written = doc.index._locate_element(at)[1].head
        assert written in doc.shard_manager.heads
        for pack in doc.index.kernel._packs.values():
            pack.walk = (RecordingColumn(pack),) + pack.walk[1:]
        RecordingColumn.rules = set()
        assert doc.select(path) == naive_select(doc.to_document(), path)
        assert written in RecordingColumn.rules
        assert RecordingColumn.rules <= closure(doc.grammar, written)

    def test_relabel_and_inline_splice_recensus_nothing(self):
        """A rename's isolation inlines (splices deriving the same tree)
        and its relabel moves the censuses by -old +new label: no rule
        is censused again, and ``count('//x')`` stays exact."""
        doc = self.xmark_after_a_batch()
        index = doc.index
        doc.count("//keyword")  # every rule censused
        censused, size = index.rules_censused, doc.compressed_size
        at = doc.element_count // 3
        doc.rename(at, "x")  # isolates: inline splices, then a relabel
        assert doc.compressed_size > size  # the path was inlined
        assert doc.count("//x") == 1
        doc.rename(at, "y")  # a pure relabel
        tags = list(doc.tags())
        assert doc.count("//x") == 0
        assert doc.count("//y") == tags.count("y") == 1
        assert doc.count("//keyword") == tags.count("keyword")
        assert index.rules_censused == censused

    def test_prunes_are_counted(self):
        from repro.query.engine import read_prune_counter, reset_prune_counter

        doc = CompressedXml.from_xml(LOG)
        for path in ("/log/meta/status", "//entry//ip", "//status"):
            reset_prune_counter()
            assert select(doc.index, path) != []
            assert read_prune_counter() > 0, path
