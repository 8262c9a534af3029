"""A batch is the sequential composition of single ops.

The contract under test: ``apply_batch(ops)`` leaves the document exactly
as the single-op API called once per operation would -- same tree, same
element count, same exception after the same prefix -- and with
``transactional=True`` a failing batch leaves the document untouched.
The oracles are the single-op loop and the frozen flat reference model
of the end-to-end benchmark (``benchmarks/e2e/model.py``).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e.model import FlatDoc
from repro.api import CompressedXml
from repro.datasets import make_corpus
from repro.grammar.navigation import grammar_generates_tree
from repro.grammar.sharding import DEFAULT_SHARD_WIDTH
from repro.trees.unranked import XmlNode
from repro.updates.batch import (
    BatchAppend,
    BatchDelete,
    BatchInsert,
    BatchRename,
)
from repro.updates.path_isolation import isolate_many

from tests.core.test_occurrence_index import RuleTouchRecorder
from tests.strategies import batch_scripts, xml_documents


def script_content(tag, wide):
    return ([XmlNode(tag), XmlNode("wide", [XmlNode("inner")])]
            if wide else XmlNode(tag))


def concretize(seq_doc, script):
    """Replay an abstract script on ``seq_doc`` (the sequential oracle),
    recording the concrete ops valid at each op's application time."""
    ops = []
    for kind, fraction, tag, wide in script:
        count = seq_doc.element_count
        content = script_content(tag, wide)
        if kind == "rename":
            index = int(fraction * count)
            seq_doc.rename(index, tag)
            ops.append(BatchRename(index, tag))
        elif kind == "insert":
            if count < 2:
                continue
            index = 1 + int(fraction * (count - 1))
            seq_doc.insert(index, content)
            ops.append(BatchInsert(index, content))
        elif kind == "append":
            index = int(fraction * count)
            seq_doc.append_child(index, content)
            ops.append(BatchAppend(index, content))
        else:
            if count < 3:
                continue
            index = 1 + int(fraction * (count - 1))
            seq_doc.delete(index)
            ops.append(BatchDelete(index))
    return ops


def model_fragment(tag, wide):
    """``script_content`` as the model's (tag, relative depth) pairs."""
    return [(tag, 0), ("wide", 0), ("inner", 1)] if wide else [(tag, 0)]


def concretize_on_model(model, script):
    """:func:`concretize` against the flat reference model."""
    ops = []
    for kind, fraction, tag, wide in script:
        count = len(model)
        content = script_content(tag, wide)
        if kind == "rename":
            index = int(fraction * count)
            model.rename(index, tag)
            ops.append(BatchRename(index, tag))
        elif kind == "insert":
            if count < 2:
                continue
            index = 1 + int(fraction * (count - 1))
            model.insert(index, model_fragment(tag, wide))
            ops.append(BatchInsert(index, content))
        elif kind == "append":
            index = int(fraction * count)
            model.append_child(index, model_fragment(tag, wide))
            ops.append(BatchAppend(index, content))
        else:
            if count < 3:
                continue
            index = 1 + int(fraction * (count - 1))
            model.delete(index)
            ops.append(BatchDelete(index))
    return ops


class TestBatchEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(xml_documents(max_elements=20), batch_scripts())
    def test_batch_equals_sequential(self, tree, script):
        """Full ``to_xml`` round-trip equality against the sequential loop,
        across random scripts with same/adjacent-target collisions."""
        sequential = CompressedXml.from_document(tree)
        batched = CompressedXml.from_document(tree)
        ops = concretize(sequential, script)
        stats = batched.apply_batch(ops)
        assert batched.to_xml() == sequential.to_xml()
        assert batched.element_count == sequential.element_count
        batched.grammar.validate()
        assert stats.operations == len(ops)
        assert stats.inlined_rules == batched.rules_inlined_total

    @settings(max_examples=15, deadline=None)
    @given(xml_documents(max_elements=20), batch_scripts())
    def test_batch_equals_sequential_under_auto_recompress(self, tree, script):
        """The same property with the maintenance policy enabled on both
        sides -- the batch settles once, the loop after every op, but the
        documents they maintain must be identical."""
        sequential = CompressedXml.from_document(
            tree, auto_recompress_factor=1.5)
        batched = CompressedXml.from_document(
            tree, auto_recompress_factor=1.5)
        ops = concretize(sequential, script)
        batched.apply_batch(ops)
        assert batched.to_xml() == sequential.to_xml()
        batched.grammar.validate()


class TestBatchAgainstModel:
    @settings(max_examples=45, deadline=None)
    @given(
        st.sampled_from(["Treebank", "XMark", "EXI-Weblog"]),
        st.integers(min_value=0, max_value=3),
        st.booleans(),
        st.sampled_from([8, 64, 256]),
        st.lists(batch_scripts(max_ops=16), min_size=1, max_size=3),
    )
    def test_batches_match_the_flat_model(
        self, corpus, seed, compress, width, scripts
    ):
        """Sharded batches against the independent flat model.  An
        uncompressed grammar starts with the whole tree in its start
        rule, so every width here begins with a real shard hierarchy."""
        doc = CompressedXml.from_document(
            make_corpus(corpus, 500, seed=seed), compress=compress,
            shard_width=width)
        model = FlatDoc.from_xml(doc.to_xml())
        for script in scripts:
            doc.apply_batch(concretize_on_model(model, script))
            assert doc.element_count == len(model)
        assert doc.to_xml() == model.to_xml()
        doc.grammar.validate()
        doc.shard_manager.check_invariants()


def loop(doc, ops):
    """The single-op API, one call per batch operation."""
    for op in ops:
        if isinstance(op, BatchRename):
            doc.rename(op.index, op.new_tag)
        elif isinstance(op, BatchInsert):
            doc.insert(op.index, list(op.content))
        elif isinstance(op, BatchAppend):
            doc.append_child(op.parent_index, list(op.content))
        else:
            doc.delete(op.index)


def outcome(doc, run):
    """(exception type or ``None``, XML, element count) after ``run(doc)``."""
    error = None
    try:
        run(doc)
    except (IndexError, ValueError) as exc:
        error = type(exc)
    return error, doc.to_xml(), doc.element_count


LOG = "<log>" + "<e><p/><q/></e>" * 8 + "</log>"

#: Same and adjacent targets, targets inside batch content, shifts by
#: whole subtrees, and failures after an applied prefix.
CASES = {
    "same-target renames": [BatchRename(4, "one"), BatchRename(4, "two")],
    "rename there and back": [BatchRename(4, "x"), BatchRename(4, "e")],
    "no-op renames": [BatchRename(1, "e"), BatchRename(2, "p")],
    "rename then delete": [BatchRename(4, "gone"), BatchDelete(4)],
    "same-position inserts": [BatchInsert(3, XmlNode("A")),
                              BatchInsert(3, XmlNode("B"))],
    "append chain": [BatchAppend(1, XmlNode("A")),
                     BatchAppend(1, XmlNode("B")),
                     BatchAppend(1, XmlNode("C"))],
    "rename inside inserted content": [
        BatchInsert(4, XmlNode("A", [XmlNode("inner")])),
        BatchRename(5, "xx")],
    "delete shifts by its subtree": [BatchDelete(1), BatchRename(1, "after"),
                                     BatchDelete(2)],
    "insert then delete the original": [BatchInsert(4, XmlNode("A")),
                                        BatchDelete(5)],
    "insert inside then delete the container": [
        BatchInsert(2, XmlNode("A")), BatchDelete(1),
        BatchRename(1, "next")],
    "append then delete the parent": [BatchAppend(1, XmlNode("A")),
                                      BatchDelete(1),
                                      BatchRename(1, "next")],
    "append to the last element": [BatchAppend(24, XmlNode("Z")),
                                   BatchRename(5, "rr")],
    "empty content": [BatchInsert(3, []), BatchAppend(3, [])],
    "root delete after a rename": [BatchRename(1, "pre"), BatchDelete(0)],
    "insert before the root": [BatchRename(1, "pre"),
                               BatchInsert(0, XmlNode("x"))],
    "out of range after a rename": [BatchRename(1, "pre"),
                                    BatchRename(10**6, "x")],
    "range shrunk by an earlier delete": [BatchDelete(1),
                                          BatchRename(23, "x")],
}


class TestDelegation:
    @pytest.mark.parametrize("width", [DEFAULT_SHARD_WIDTH, 8])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_batch_is_the_op_loop(self, name, width):
        """Batch == op loop, errors included; a transactional batch
        commits the same result or, failing, rolls back completely."""
        ops = CASES[name]
        original = CompressedXml.from_xml(LOG, shard_width=width)
        untouched = (None, original.to_xml(), original.element_count)
        expected = outcome(CompressedXml.from_xml(LOG, shard_width=width),
                           lambda doc: loop(doc, ops))
        batched = CompressedXml.from_xml(LOG, shard_width=width)
        assert outcome(batched, lambda doc: doc.apply_batch(ops)) == expected
        batched.grammar.validate()

        txn = CompressedXml.from_xml(LOG, shard_width=width)
        error, *state = outcome(
            txn, lambda doc: doc.apply_batch(ops, transactional=True))
        assert error is expected[0]
        assert tuple(state) == (expected if error is None else untouched)[1:]
        txn.grammar.validate()
        assert list(txn.tags()) == [txn.tag_of(i)
                                    for i in range(txn.element_count)]


class TestShardedBatchDelete:
    def test_deleting_a_chunk_shards_whole_body_in_a_batch(self):
        """The seeded run whose 95th delete empties a chunk shard's body:
        as a batch it must merge the shard as the single op does."""
        doc = CompressedXml.from_document(
            make_corpus("EXI-Weblog", 1500, seed=21), shard_width=8)
        rng = random.Random(2)
        for _ in range(94):
            doc.delete(rng.randrange(1, doc.element_count))
        expected = FlatDoc.from_xml(doc.to_xml())
        expected.delete(1049)
        doc.apply_batch([BatchDelete(1049)])
        doc.grammar.validate()
        assert doc.to_xml() == expected.to_xml()
        doc.shard_manager.check_invariants()


class TestValidation:
    def test_malformed_ops_rejected(self):
        doc = CompressedXml.from_xml(LOG)
        with pytest.raises(ValueError):
            doc.apply_batch(["rename"])
        with pytest.raises(ValueError):
            # Rejected up front: the valid op before it is not applied.
            doc.apply_batch([BatchRename(1, "pre"), "rename"])
        assert doc.tag_of(1) == "e"
        with pytest.raises(IndexError):
            # Error parity with doc.rename(-1, ...): IndexError.
            BatchRename(-1, "x")
        with pytest.raises(ValueError):
            BatchRename(1, "")
        with pytest.raises(ValueError):
            BatchInsert(1, ["not-a-node"])

    def test_empty_batch_is_a_noop(self):
        doc = CompressedXml.from_xml(LOG)
        before = doc.to_xml()
        stats = doc.apply_batch([])
        assert stats.operations == 0 and stats.inlined_rules == 0
        assert doc.to_xml() == before


class TestBatchMechanics:
    def test_shard_free_batch_touches_only_the_start_rule(self):
        """A document too small to hold a shard at the default width:
        every edit lands in the start rule (plus rules removed by gc)."""
        doc = CompressedXml.from_xml(LOG)
        recorder = RuleTouchRecorder()
        doc.grammar.register_observer(recorder)
        doc.apply_batch([BatchRename(2, "x"), BatchRename(9, "y"),
                         BatchAppend(5, XmlNode("z"))])
        assert recorder.changed == {doc.grammar.start}

    def test_counters_and_builder(self):
        doc = CompressedXml.from_xml(LOG)
        with doc.batch() as b:
            b.rename(1, "x").append_child(2, XmlNode("y")).delete(4)
        assert b.stats is not None
        assert doc.updates_applied == 3
        assert doc.batches_applied == 1
        assert doc.rules_inlined_total == b.stats.inlined_rules

    def test_builder_aborts_on_exception(self):
        doc = CompressedXml.from_xml(LOG)
        before = doc.to_xml()
        with pytest.raises(RuntimeError):
            with doc.batch() as b:
                b.rename(1, "x")
                raise RuntimeError("abort")
        assert doc.to_xml() == before
        assert b.stats is None

    def test_batch_settles_once_under_auto_policy(self):
        """One recompression check per batch: the loop recompresses per
        op, the batch at most once at the end."""
        doc = CompressedXml.from_xml(LOG, auto_recompress_factor=1.2)
        runs_before = doc.recompress_runs
        doc.apply_batch([BatchRename(i, f"t{i}") for i in range(1, 12)])
        assert doc.recompress_runs <= runs_before + 1


def test_isolate_many_isolates_each_index_in_turn(figure1_grammar):
    from repro.grammar.derivation import expand
    from repro.trees.traversal import preorder

    tree = expand(figure1_grammar)
    labels = [node.symbol.name for node in preorder(tree)]
    results = isolate_many(figure1_grammar, [4, 6, 4])
    assert [r.node.symbol.name for r in results] == \
        [labels[4], labels[6], labels[4]]
    assert results[0].inlined_rules > 0
    assert results[2].inlined_rules == 0  # index 4 is explicit already
    figure1_grammar.validate()
    assert grammar_generates_tree(figure1_grammar, tree)
