"""A GrammarRePair run paid in steps: pause, resume, and writes between.

``GrammarRePair.compress(budget=...)`` pauses a run at a round boundary
and keeps its occurrence index registered as a grammar observer; the
next call folds in what was written since and continues.  The document's
automatic policy pays one such step per write.  A budget of ``0.0`` is
the smallest: every step runs exactly one round, which makes the tests
below independent of the machine's speed.
"""

import importlib
import random

import pytest

from benchmarks.e2e.model import FlatDoc
from repro.api import CompressedXml, DurableXml
from repro.core.grammar_repair import GrammarRePair
from repro.datasets.synthetic import make_corpus
from repro.grammar.serialize import format_grammar
from repro.grammar.sharding import DEFAULT_SHARD_WIDTH
from repro.trees.unranked import XmlNode
from repro.updates.batch import BatchAppend, BatchRename

api = importlib.import_module("repro.api")


@pytest.fixture
def one_round_steps(monkeypatch):
    """Make the automatic policy pause after every round."""
    monkeypatch.setattr(api, "STEP_SECONDS", 0.0)


def edited(corpus, width=64):
    """A 3k-edge document after 80 inserts and 80 renames, no auto
    policy: a dirty grammar for one recompression."""
    doc = CompressedXml.from_document(
        make_corpus(corpus, edges=3000, seed=3), shard_width=width)
    rng = random.Random(9)
    for i in range(80):
        doc.insert(1 + rng.randrange(doc.element_count - 1),
                   XmlNode(f"n{i % 4}"))
    for i in range(80):
        doc.rename(rng.randrange(doc.element_count), f"r{i % 5}")
    return doc


def step_until_done(doc):
    """Drive ``doc``'s recompression one one-round step at a time, with
    nothing written in between; returns the number of steps.  A view
    pinned after the first step must answer as at its pin throughout:
    no write re-reads (and so preserves) a body before a step rewrites
    it."""
    doc._recompress_locked(budget=0.0)
    steps = 1
    pinned, expected = doc.snapshot(), doc.to_xml()
    while doc._repair is not None:
        doc._recompress_locked(budget=0.0)
        steps += 1
    with pinned:
        assert pinned.to_xml() == expected
    return steps


class TestPauseWithoutWrites:
    """Pausing a run changes nothing when no write comes between steps.
    (EXI-Weblog is left out: two uninterrupted runs on it already
    disagree, see ROADMAP finding 1.)"""

    @pytest.mark.parametrize("corpus", ["Treebank", "XMark"])
    def test_stepped_run_equals_uninterrupted_run(self, corpus):
        stepped, whole = edited(corpus), edited(corpus)
        whole.recompress()
        steps = step_until_done(stepped)
        # One round per step, plus the step that finds no digram left
        # and prunes.
        assert steps == whole.last_repair_stats.rounds + 1 > 100
        assert format_grammar(stepped.grammar) == \
            format_grammar(whole.grammar)
        assert stepped.recompress_runs == whole.recompress_runs == 1


class TestStepAccounting:
    def test_each_step_runs_one_round_and_the_steps_sum_to_the_run(self):
        # Two documents: a grammar copy shares its alphabet, and so the
        # counter that names fresh rules.
        grammar = edited("Treebank", DEFAULT_SHARD_WIDTH).grammar
        whole = GrammarRePair()
        expected = whole.compress(
            edited("Treebank", DEFAULT_SHARD_WIDTH).grammar)
        stepped = GrammarRePair()
        result = stepped.compress(grammar, budget=0.0)
        rounds = [stepped.stats.rounds]
        resolved = stepped.stats.generators_resolved
        while stepped.paused:
            assert stepped.compress(None, budget=0.0) is result
            rounds.append(stepped.stats.rounds)
            resolved += stepped.stats.generators_resolved
        assert rounds == [1] * whole.stats.rounds + [0]
        # stats describe one call, so summing them over a run's calls
        # (as the end-to-end tracer does) counts every round once.
        assert sum(rounds) == whole.stats.rounds
        assert resolved == whole.stats.generators_resolved
        assert stepped.stats.rules_pruned == whole.stats.rules_pruned
        assert format_grammar(result) == format_grammar(expected)
        assert format_grammar(grammar) != format_grammar(result)

    def test_runs_count_when_they_end(self, one_round_steps):
        doc = CompressedXml.from_document(
            make_corpus("Treebank", edges=1500, seed=5),
            shard_width=64, auto_recompress_factor=1.1)
        rng = random.Random(4)
        paused_writes = 0
        while doc.recompress_runs < 2:
            runs = doc.recompress_runs
            paused = doc._repair is not None
            doc.rename(rng.randrange(doc.element_count), "X")
            if doc._repair is not None:
                paused_writes += 1
                assert doc.recompress_runs == runs
            elif paused:
                assert doc.recompress_runs == runs + 1
        assert paused_writes > 20
        while doc._repair is None:
            doc.rename(rng.randrange(doc.element_count), "Y")
        runs, before = doc.recompress_runs, doc.last_repair_stats
        # recompress() finishes the paused run, unbudgeted, and starts
        # no second one.
        doc.recompress()
        assert doc._repair is None
        assert doc.recompress_runs == runs + 1
        assert doc.last_repair_stats is not before
        while doc._repair is None:
            doc.rename(rng.randrange(doc.element_count), "Z")
        doc.recompress()  # finishes the paused run ...
        assert doc._repair is None
        assert doc.recompress_runs == runs + 2
        doc.recompress()  # ... and the next call runs a whole one
        assert doc.recompress_runs == runs + 3
        assert doc.last_repair_stats.full_censuses == 1


class TestShardsChangeBetweenSteps:
    def test_heads_split_off_mid_run_are_barriers(self, one_round_steps):
        """A run that started with no shard head keeps the heads that
        writes split off between its steps out of its digrams."""
        doc = CompressedXml.from_xml(
            "<log>" + "<e><a/><b/></e>" * 64 + "</log>",
            shard_width=8, auto_recompress_factor=1.2)
        model = FlatDoc.from_xml(doc.to_xml())
        starts, split_while_paused = [], 0
        for i in range(150):
            running = doc._repair is not None
            heads = set(doc.shard_manager.heads)
            doc.append_child(0, XmlNode(f"t{i % 7}", [XmlNode("a")]))
            model.append_child(0, ((f"t{i % 7}", 0), ("a", 1)))
            if doc._repair is not None:
                if not running:
                    starts.append(set(doc._repair.barriers))
                elif doc.shard_manager.heads - heads:
                    split_while_paused += 1
            doc.shard_manager.check_invariants()
        assert starts[0] == set() and split_while_paused > 10
        doc.recompress()
        doc.shard_manager.check_invariants()
        assert doc.to_xml() == model.to_xml()


def to_nodes(fragment):
    """The ``XmlNode`` forest of a ``(tag, depth)`` preorder fragment."""
    roots, path = [], []
    for tag, depth in fragment:
        node = XmlNode(tag)
        del path[depth:]
        (path[-1].children if path else roots).append(node)
        path.append(node)
    return roots


FRAGMENTS = ((("n1", 0),), (("n2", 0), ("n1", 1), ("n3", 1)))


class TestInterleavingAgainstTheModel:
    """Writes, failing batches, pins and a durable checkpoint while a
    run is paused, checked against the end-to-end reference model after
    every write."""

    @pytest.mark.parametrize("corpus", ["EXI-Weblog", "Treebank", "XMark"])
    def test_writes_between_steps(self, corpus, one_round_steps, tmp_path):
        paused_ops = 0
        for width in (8, 64, DEFAULT_SHARD_WIDTH):
            for seed in range(3):
                paused_ops += self.fuzz(corpus, width, seed, tmp_path)
        assert paused_ops > 500

    def fuzz(self, corpus, width, seed, tmp_path):
        rng = random.Random(seed)
        doc = CompressedXml.from_document(
            make_corpus(corpus, edges=300, seed=seed),
            shard_width=width, auto_recompress_factor=1.3)
        model = FlatDoc.from_xml(doc.to_xml())
        common = max(set(model.tags[1:]), key=model.tags.count)
        paths = (f"/{model.tags[0]}/*", f"//{common}[2]", "//n1")
        target = doc
        directory = None
        if seed == 0:
            directory = str(tmp_path / f"{corpus}-{width}")
            target = DurableXml.create(directory, doc)
        view = expected = None
        failed_batch = checkpointed = False
        paused_ops = pins_checked = 0
        for step in range(80):
            paused = doc._repair is not None
            paused_ops += paused
            count = len(model)
            index = 1 + rng.randrange(count - 1)
            kind = rng.choice(("rename", "rename", "insert", "append",
                               "delete", "batch"))
            if paused and not failed_batch:
                failed_batch = True
                ops = [BatchRename(index, "gone"), BatchRename(count + 5, "x")]
                with pytest.raises(IndexError):
                    if target is doc:
                        doc.apply_batch(ops, transactional=True)
                    else:
                        target.apply_batch(ops)
            elif paused and directory and not checkpointed:
                checkpointed = True
                target.checkpoint()
            if kind == "rename" or (kind == "delete" and count < 50):
                tag = rng.choice(("n1", common, "n4"))
                target.rename(index, tag)
                model.rename(index, tag)
            elif kind == "insert":
                fragment = rng.choice(FRAGMENTS)
                target.insert(index, to_nodes(fragment))
                model.insert(index, fragment)
            elif kind == "append":
                fragment = rng.choice(FRAGMENTS)
                target.append_child(index, to_nodes(fragment))
                model.append_child(index, fragment)
            elif kind == "delete":
                target.delete(index)
                model.delete(index)
            else:
                target.apply_batch([BatchRename(index, "n1"),
                                    BatchAppend(index, to_nodes(FRAGMENTS[1]))])
                model.rename(index, "n1")
                model.append_child(index, FRAGMENTS[1])
            doc.grammar.validate()
            if width is not None:
                doc.shard_manager.check_invariants()
            for path in paths:
                assert doc.select(path) == model.select(path), (step, path)
            if view is None and doc._repair is not None:
                view = doc.snapshot()  # pinned while the run is paused
                expected = [model.to_xml()] + [model.select(p) for p in paths]
            elif view is not None and step % 10 == 0:
                assert [view.to_xml()] + [view.select(p) for p in paths] \
                    == expected
                view.close()
                view = None
                pins_checked += 1
        if view is not None:
            view.close()
        assert doc.to_xml() == model.to_xml()
        assert failed_batch and pins_checked
        if directory:
            assert checkpointed
            target = None  # abandoned: no close(), no final checkpoint
            reopened = DurableXml.open(directory, auto_recompress_factor=1.3)
            assert reopened.to_xml() == model.to_xml()
            for path in paths:
                assert reopened.select(path) == model.select(path)
            assert reopened.scrub().ok
            reopened.close()
        return paused_ops


class TestSizeProbeReadsPackedWidths:
    """The automatic policy's size probe reads a packed rule's width off
    its pack instead of walking the body; whatever a write, a paused
    run's step or a rolled-back batch did to the packs, it must still
    equal ``Grammar.size`` after every operation."""

    def test_probe_equals_grammar_size_after_every_operation(
            self, one_round_steps):
        doc = CompressedXml.from_document(
            make_corpus("EXI-Weblog", edges=1500, seed=5),
            shard_width=32, auto_recompress_factor=1.05)
        rng = random.Random(11)
        tags = ("ip", "user", "ts", "x")
        paused = rolled_back = packed = 0
        for _ in range(150):
            count, tag = doc.element_count, rng.choice(tags)
            kind = rng.choice(("rename", "insert", "append", "delete",
                               "read", "read", "batch"))
            if kind == "rename":
                doc.rename(rng.randrange(count), tag)
            elif kind == "insert":
                doc.insert(1 + rng.randrange(count - 1), XmlNode(tag))
            elif kind == "append":
                doc.append_child(rng.randrange(count),
                                 XmlNode(tag, [XmlNode(tag)]))
            elif kind == "delete":
                doc.delete(1 + rng.randrange(count - 1))
            elif kind == "read":
                doc.tag_of(rng.randrange(count))  # builds packs
            else:
                with pytest.raises(IndexError):
                    doc.apply_batch([
                        BatchRename(rng.randrange(count), tag),
                        BatchAppend(rng.randrange(count), XmlNode(tag)),
                        BatchRename(10 ** 6, tag),
                    ], transactional=True)
                rolled_back += 1
            paused += doc._repair is not None
            packed += len(doc._index._packs)
            assert doc.compressed_size == doc.grammar.size
        assert paused > 10 and rolled_back > 5 and packed > 0
