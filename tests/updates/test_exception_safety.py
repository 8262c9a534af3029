"""A raising update must leave the document exactly as it was.

The durability layer leans on this: a WAL record whose in-memory apply
fails is rolled back on disk, which is only sound if the failed apply
did not half-mutate the in-memory grammar either.  Each case below
drives an operation that fails *validation* (not crash-level faults)
and asserts full observational equality afterwards."""

import pytest

from repro.api import CompressedXml
from repro.trees.unranked import XmlNode
from repro.updates.operations import UpdateError

XML = "<log>" + "<entry><ip/><status/></entry>" * 4 + "</log>"


def fresh(**kwargs):
    return CompressedXml.from_xml(XML, **kwargs)


def observe(doc):
    return (
        doc.to_xml(),
        doc.element_count,
        doc.compressed_size,
        list(doc.tags()),
        doc.select("//status"),
    )


def assert_unchanged(doc, before, op):
    with pytest.raises((UpdateError, IndexError)):
        op(doc)
    assert observe(doc) == before
    doc.grammar.validate()
    # The document is not just unchanged but fully functional.
    doc.rename(1, "still-works")
    assert doc.tag_of(1) == "still-works"


FAILING_OPS = [
    pytest.param(lambda d: d.rename(10 ** 6, "x"),
                 id="rename-out-of-range"),
    pytest.param(lambda d: d.rename(2, "#"), id="rename-to-bottom"),
    pytest.param(lambda d: d.delete(10 ** 6), id="delete-out-of-range"),
    pytest.param(lambda d: d.delete(0), id="delete-root"),
    pytest.param(lambda d: d.insert(10 ** 6, XmlNode("x")),
                 id="insert-out-of-range"),
    pytest.param(lambda d: d.insert(0, XmlNode("x")),
                 id="insert-before-root"),
    pytest.param(lambda d: d.append_child(10 ** 6, XmlNode("x")),
                 id="append-out-of-range"),
]


class TestSingleOpExceptionSafety:
    @pytest.mark.parametrize("op", FAILING_OPS)
    def test_failing_op_leaves_document_unchanged(self, op):
        doc = fresh()
        assert_unchanged(doc, observe(doc), op)

    @pytest.mark.parametrize("op", FAILING_OPS)
    def test_failing_op_on_sharded_document(self, op):
        doc = fresh(shard_width=8)
        assert_unchanged(doc, observe(doc), op)

    def test_failing_op_after_history(self):
        doc = fresh(shard_width=8)
        doc.rename(1, "record")
        doc.append_child(0, XmlNode("extra", [XmlNode("x")]))
        doc.delete(5)
        before = observe(doc)
        assert_unchanged(doc, before, lambda d: d.rename(10 ** 6, "x"))

    def test_validation_happens_before_isolation(self):
        # A failing op must not even dirty the grammar: the compressed
        # size and the grammar's mutation epoch stay identical, proving
        # no path was isolated and later rolled back.
        doc = fresh()
        epoch_before = doc.grammar.epoch
        size_before = doc.compressed_size
        for op in (lambda d: d.rename(2, "#"),
                   lambda d: d.delete(10 ** 6)):
            with pytest.raises((UpdateError, IndexError)):
                op(doc)
        assert doc.grammar.epoch == epoch_before
        assert doc.compressed_size == size_before
