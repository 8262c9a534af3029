"""Tests for the incremental grammar occurrence index (PR 2 tentpole).

Three correctness bars:

* after every replacement round, the incrementally maintained digram
  weights must agree with a from-scratch ``retrieve_occurrences`` census
  (exactly for non-equal-label digrams; equal-label greedy sets may
  legitimately differ, see the module docstring of
  ``repro.core.occurrence_index``),
* the explicit touched-rule reports of the replacers must coincide with
  what the grammar's observer channel fires,
* a document's recompression must generate the same document as a
  never-recompressed replay, while performing exactly one census per run
  and preserving the structural index's cached tables for every rule
  whose derivation enters no rule the run rewrites.
"""

import hashlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings

from repro.api import CompressedXml
from repro.core import replace_optimized
from repro.core.grammar_repair import GrammarRePair, grammar_repair
from repro.core.occurrence_index import GrammarOccurrenceIndex
from repro.core.replace_optimized import replace_all_occurrences_optimized
from repro.core.replace_simple import replace_all_occurrences_simple
from repro.core.resolve import Resolver
from repro.core.retrieve import retrieve_occurrences
from repro.datasets.synthetic import make_corpus
from repro.grammar.navigation import generates_same_tree
from repro.grammar.properties import references
from repro.grammar.serialize import format_grammar
from repro.repair.digram import digram_pattern
from repro.trees.binary import encode_binary
from repro.trees.symbols import Alphabet
from repro.trees.unranked import XmlNode

from tests.grammar.test_index import replay_script
from tests.strategies import (
    shard_widths,
    slcf_grammars,
    update_scripts,
    xml_documents,
)


class RuleTouchRecorder:
    """Grammar observer collecting the rules mutations touch: ``changed``
    (a removed head leaves it again) and ``removed``."""

    def __init__(self):
        self.changed, self.removed = set(), set()

    def rule_changed(self, head):
        self.changed.add(head)

    def rule_removed(self, head):
        self.changed.discard(head)
        self.removed.add(head)


def census_agreement_hook(mismatches, barriers=None):
    """Round hook comparing the live index against a fresh census."""

    def hook(grammar, index, opaque):
        fresh = retrieve_occurrences(grammar, opaque, barriers=barriers).weights
        live = index.weights()
        for digram in set(fresh) | set(live):
            if digram.is_equal_label:
                # Greedy overlap suppression may pick a different (valid)
                # non-overlapping set when claims persist across rounds.
                continue
            fresh_weight = fresh.get(digram, 0)
            live_weight = live.get(digram, 0)
            if fresh_weight != live_weight:
                mismatches.append((digram, fresh_weight, live_weight))

    return hook


class TestIncrementalCensusAgreement:
    @settings(max_examples=40, deadline=None)
    @given(slcf_grammars())
    def test_agrees_on_random_grammars(self, grammar):
        reference = grammar.copy()
        mismatches = []
        compressor = GrammarRePair(round_hook=census_agreement_hook(mismatches))
        result = compressor.compress(grammar)
        result.validate()
        assert mismatches == []
        assert generates_same_tree(result, reference)

    @settings(max_examples=25, deadline=None)
    @given(slcf_grammars())
    def test_agrees_with_simple_replacer(self, grammar):
        reference = grammar.copy()
        mismatches = []
        compressor = GrammarRePair(
            optimized=False, round_hook=census_agreement_hook(mismatches)
        )
        result = compressor.compress(grammar)
        result.validate()
        assert mismatches == []
        assert generates_same_tree(result, reference)

    @settings(max_examples=15, deadline=None)
    @given(xml_documents(max_elements=35))
    def test_agrees_on_tree_compression(self, doc):
        alphabet = Alphabet()
        tree = encode_binary(doc, alphabet)
        mismatches = []
        compressor = GrammarRePair(round_hook=census_agreement_hook(mismatches))
        grammar = compressor.compress_tree(tree, alphabet)
        grammar.validate()
        assert mismatches == []

    @settings(max_examples=20, deadline=None)
    @given(xml_documents(max_elements=25), update_scripts(max_ops=8))
    def test_agrees_across_update_interleavings(self, tree, script):
        """Every recompression triggered while replaying a random update
        script keeps the index in sync with a fresh census."""
        mismatches = []
        hook = census_agreement_hook(mismatches)
        doc = CompressedXml.from_document(tree)
        for kind in replay_script(doc, script):
            pass
        compressor = GrammarRePair(round_hook=hook)
        result = compressor.compress(doc.grammar)
        result.validate()
        assert mismatches == []
        assert generates_same_tree(result, doc.grammar)


def freshness_hook(stale, barriers=None, check_weights=False):
    """Round hook: every *stored* resolution must still be what a fresh
    resolver answers.

    Weight agreement alone cannot see a stale endpoint or path that
    happens to keep its digram; the replacer, however, rewrites at the
    stored nodes.  So after every round each stored occurrence's
    generator must be attached under its rule, and its endpoints and
    resolution paths identity-equal to a new ``Resolver``'s.  With
    ``check_weights`` :func:`census_agreement_hook` runs too.
    """
    agreement = census_agreement_hook(stale, barriers)

    def same_nodes(left, right):
        return len(left) == len(right) and all(
            a is b for a, b in zip(left, right)
        )

    def hook(grammar, index, opaque):
        resolver = Resolver(grammar, opaque, barriers=barriers)
        for head, per_rule in index._by_rule.items():
            root = grammar.rules[head]
            for digram, occurrences in per_rule.items():
                for occ in occurrences.values():
                    node = occ.generator
                    while node.parent is not None:
                        slot = node.child_index()
                        if node.parent.children[slot - 1] is not node:
                            break
                        node = node.parent
                    if occ.rule is not head or node is not root:
                        stale.append(("detached", head, digram))
                        continue
                    parent_node, child_index, parent_path = \
                        resolver.tree_parent(occ.generator)
                    child_node, child_path = resolver.tree_child(occ.generator)
                    if not (
                        occ.parent_node is parent_node
                        and occ.child_index == child_index
                        and occ.child_node is child_node
                        and same_nodes(occ.parent_path, parent_path)
                        and same_nodes(occ.child_path, child_path)
                    ):
                        stale.append(("resolution", head, digram))
        if check_weights:
            agreement(grammar, index, opaque)

    return hook


class TestStoredResolutionFreshness:
    @settings(max_examples=40, deadline=None)
    @given(slcf_grammars())
    def test_fresh_on_random_grammars(self, grammar):
        stale = []
        GrammarRePair(
            round_hook=freshness_hook(stale, check_weights=True)
        ).compress(grammar)
        assert stale == []

    @settings(max_examples=30, deadline=None)
    @given(xml_documents(max_elements=40), shard_widths(),
           update_scripts(max_ops=10))
    def test_fresh_under_shard_barriers(self, tree, width, script):
        """Every recompression a sharded document runs -- mid-script and
        final, with its shard heads as barriers -- keeps its stored
        resolutions and its weights fresh."""
        stale = []

        def compressor(**kwargs):
            return GrammarRePair(
                round_hook=freshness_hook(stale, kwargs.get("barriers"),
                                          check_weights=True),
                **kwargs,
            )

        doc = CompressedXml.from_document(tree, shard_width=width)
        with mock.patch("repro.api.GrammarRePair", compressor):
            for _ in replay_script(doc, script):
                pass
            doc.recompress()
        doc.grammar.validate()
        assert stale == []


class TestStructureMapConsistency:
    """The cached callee histograms, reference counts, maintained usage,
    grammar size and topological levels must equal ground-truth
    recomputation after every round -- they replaced per-round
    full-grammar walks.  The usage map is never recomputed: each round
    pushes its recorded histogram deltas down the changed callees, so
    one lost delta (say, from the edge-local structure patch) leaves it
    wrong for good, or leaves a dead rule uncollected."""

    @staticmethod
    def structure_check_hook(errors):
        from repro.grammar.properties import reference_counts, usage

        def hook(grammar, index, opaque):
            true_usage = usage(grammar)
            live_usage = index._usage
            for head in set(true_usage) | set(live_usage):
                if true_usage.get(head, 0) != live_usage.get(head, 0):
                    errors.append(("usage", head))
            # The hook runs after collecting rounds only: every rule the
            # start no longer reaches must be gone.
            for head, count in true_usage.items():
                if count == 0 and head is not grammar.start:
                    errors.append(("unused survivor", head))
            true_refs = reference_counts(grammar)
            live_refs = index.reference_counts_live()
            for head in true_refs:
                if live_refs.get(head, 0) != true_refs[head]:
                    errors.append(("refs", head))
            if index.grammar_size() != grammar.size:
                errors.append(("size", index.grammar_size(), grammar.size))

        return hook

    @settings(max_examples=30, deadline=None)
    @given(slcf_grammars())
    def test_structure_maps_on_random_grammars(self, grammar):
        errors = []
        GrammarRePair(round_hook=self.structure_check_hook(errors)).compress(
            grammar
        )
        assert errors == []

    @settings(max_examples=15, deadline=None)
    @given(xml_documents(max_elements=25), update_scripts(max_ops=8))
    def test_structure_maps_across_updates(self, tree, script):
        doc = CompressedXml.from_document(tree)
        for _ in replay_script(doc, script):
            pass
        errors = []
        GrammarRePair(round_hook=self.structure_check_hook(errors)).compress(
            doc.grammar
        )
        assert errors == []


class TestCensusInstrumentation:
    def _updated_doc_grammar(self):
        doc = CompressedXml.from_xml(
            "<log>" + "<e><a/><b/></e>" * 120 + "</log>"
        )
        for step in range(6):
            doc.rename(1 + step * 40, f"t{step % 3}")
        return doc.grammar

    def test_exactly_one_full_census_per_compress(self):
        grammar = self._updated_doc_grammar()
        compressor = GrammarRePair()
        compressor.compress(grammar)
        stats = compressor.stats
        assert stats.full_censuses == 1
        # Entry 0 is the build: every rule of the input grammar scanned.
        assert stats.census_trace[0] == len(grammar)
        assert stats.rounds > 0
        # Later rounds rescan only touched rules, never the whole grammar
        # (rule_count_trace records the rule count each census ran over;
        # digram rules are opaque and never censused, so strictly fewer).
        assert all(
            censused < total
            for censused, total in zip(stats.census_trace[1:],
                                       stats.rule_count_trace[1:])
        )


def scripted_weblog_doc():
    """A sharded EXI-Weblog document after a fixed 60-op update script."""
    doc = CompressedXml.from_document(
        make_corpus("EXI-Weblog", edges=2000, seed=42), shard_width=64
    )
    rng = random.Random(42)
    kinds = ("rename", "rename", "rename", "insert", "insert",
             "append", "delete")
    tags = ("ip", "user", "ts", "request", "status", "bytes", "extra")
    script = [(rng.choice(kinds), rng.random(), rng.choice(tags))
              for _ in range(60)]
    for _ in replay_script(doc, script):
        pass
    return doc


class TestCountersProveTheCut:
    """A round pays per edited or closure-entering generator, not per
    rule that mentions a changed rule: on a fixed sharded document no
    large rule is re-censused inside a round (only non-locally rewritten
    rules are, and those are small), and the resolver round-trips of the
    whole run stay under a pinned ceiling."""

    #: 1109 on this scenario.  Re-walking each inlined region after the
    #: round -- through the argument interior behind a replaced argument
    #: root -- issued 1346; resolving every adapted generator, 3467; the
    #: "propagated => drop and re-census, rescan every crossing
    #: generator" loop before that, 4686 (and re-censused six rules of
    #: 50+ edges inside rounds).
    RESOLVED_CEILING = 1109

    def test_no_large_in_round_census_and_bounded_resolutions(self):
        doc = scripted_weblog_doc()

        in_round_census_edges = []
        census_rule = GrammarOccurrenceIndex._census_rule

        def recording(index, head, resolver):
            scanned = census_rule(index, head, resolver)
            if scanned and index.census_trace:  # empty until build() ends
                in_round_census_edges.append(index.rule_edges_live()[head])
            return scanned

        with mock.patch.object(
            GrammarOccurrenceIndex, "_census_rule", recording
        ):
            doc.recompress()
        stats = doc.last_repair_stats
        assert stats.rounds > 50
        assert stats.rules_adapted > stats.rounds  # the edge-local path ran
        assert stats.rules_partially_rescanned > 0
        assert [n for n in in_round_census_edges if n >= 50] == []
        assert 0 < stats.generators_resolved <= self.RESOLVED_CEILING
        assert stats.to_dict()["generators_resolved"] == \
            stats.generators_resolved

    #: The whole-grammar usage pass per round, and resolver round-trips
    #: for every adapted or rescanned generator, issued 8786 resolutions
    #: on this scenario; maintained usage plus the explicit-endpoint
    #: shortcut issued 6448, and adapting each inline from its recorded
    #: region 5869 -- all three over a census scoped to the rules
    #: written since the last run, which took 192 rounds to an 850-edge
    #: grammar.  One whole-grammar census takes 151 rounds and 4770
    #: resolutions to 765 edges, against a 764-edge rebuild; splitting
    #: each rule interface into a root side and a parameter side, so a
    #: crossing rescan re-resolves only the generators whose walk reads
    #: a changed side, takes the same rounds with 3957.
    PARENT_RESOLVED = 8786
    RESOLVED = 3957
    ROUNDS = 151
    FINAL_SIZE = 765
    REBUILD_SIZE = 764
    #: sha256 of ``format_grammar`` after the recompression (a
    #: deliberate change of the output must update it).
    GRAMMAR_SHA = "8a1b722735149531"

    def test_treebank_cut_keeps_rounds_and_grammar(self):
        doc = CompressedXml.from_document(
            make_corpus("Treebank", edges=2000, seed=7), shard_width=64
        )
        rng = random.Random(7)
        kinds = ("rename", "rename", "rename", "insert", "insert",
                 "append", "delete")
        tags = ("NP", "VP", "NN", "JJ", "X", "EDITED")
        script = [(rng.choice(kinds), rng.random(), rng.choice(tags))
                  for _ in range(60)]
        for _ in replay_script(doc, script):
            pass
        doc.recompress()
        stats = doc.last_repair_stats
        assert stats.full_censuses == 1
        assert stats.rounds == self.ROUNDS
        digest = hashlib.sha256(format_grammar(doc.grammar).encode())
        assert digest.hexdigest()[:16] == self.GRAMMAR_SHA
        assert stats.generators_resolved <= self.RESOLVED \
            < self.PARENT_RESOLVED
        assert stats.final_size == doc.compressed_size == self.FINAL_SIZE
        rebuild = CompressedXml.from_xml(doc.to_xml(), shard_width=64)
        assert rebuild.compressed_size == self.REBUILD_SIZE
        # A whole-grammar usage pass would touch every rule every round.
        assert 0 < 10 * stats.usage_updates < sum(stats.rule_count_trace[1:])
        assert stats.to_dict()["usage_updates"] == stats.usage_updates


class TestAdaptationRemovesOnce:
    """Adapting a rule removes each detached or re-generated generator
    once: the removals of one round's edit log go through one removal
    loop, and the store loop that follows does not remove again."""

    def test_each_generator_is_removed_at_most_once_per_adapted_rule(self):
        remove = GrammarOccurrenceIndex._remove
        adapt = GrammarOccurrenceIndex._adapt_rule
        inside, adapted = [], []  # node ids handed to _remove per call

        def recording_adapt(index, head, log, resolver):
            inside.append([])
            adapt(index, head, log, resolver)
            adapted.append(inside.pop())

        def recording_remove(index, head, nodes):
            nodes = list(nodes)
            if inside:
                inside[-1].extend(id(node) for node in nodes)
            return remove(index, head, nodes)

        with mock.patch.object(GrammarOccurrenceIndex, "_adapt_rule",
                               recording_adapt), \
                mock.patch.object(GrammarOccurrenceIndex, "_remove",
                                  recording_remove):
            CompressedXml.from_document(
                make_corpus("EXI-Weblog", edges=2000, seed=1))
        assert len(adapted) > 5 and sum(map(len, adapted)) > 1000
        assert [len(ids) - len(set(ids)) for ids in adapted] == \
            [0] * len(adapted)


class TestInlineAdaptationIsLocal:
    """A version inline is adapted from the region it copied.  When a
    later edge event of the same round replaces one of the region's
    argument roots by ``x``, the argument interior below ``x`` keeps its
    edges: adaptation stores at most the region (copy plus argument
    roots) and ``x`` with its children per edge event -- never the
    interior behind them."""

    def test_replaced_argument_root_does_not_reopen_its_interior(self):
        doc = scripted_weblog_doc()
        # id(inlined node) -> (node, |copy region| + |argument roots|),
        # measured on the pristine copy as inline_node returns it.
        regions = {}
        inline_node = replace_optimized.inline_node

        def recording_inline(grammar, head, node, **kwargs):
            argument_ids = {id(child) for child in node.children}
            new_root = inline_node(grammar, head, node, **kwargs)
            size, stack = 0, [new_root]
            while stack:
                current = stack.pop()
                size += 1
                if id(current) not in argument_ids:
                    stack.extend(current.children)
            regions[id(node)] = (node, size)
            return new_root

        stores = []
        store = GrammarOccurrenceIndex._store

        def counting_store(index, head, nodes, *args, **kwargs):
            stores.extend(nodes)
            return store(index, head, nodes, *args, **kwargs)

        adapted = []  # (stores, bound, argument roots replaced) per call
        adapt = GrammarOccurrenceIndex._adapt_rule

        def bounded_adapt(index, head, log, resolver):
            bound, replaced, argument_ids = 0, 0, set()
            for event in log:
                if event[0] == "edge":
                    _tag, parent, _slot, child, x = event
                    bound += 1 + x.symbol.rank
                    replaced += (id(parent) in argument_ids
                                 or id(child) in argument_ids)
                else:
                    bound += regions[id(event[1])][1]
                    argument_ids.update(id(root) for root in event[3])
            before = len(stores)
            adapt(index, head, log, resolver)
            adapted.append((len(stores) - before, bound, replaced))

        stale = []

        def compressor(**kwargs):
            return GrammarRePair(
                round_hook=freshness_hook(stale, kwargs.get("barriers"),
                                          check_weights=True),
                **kwargs,
            )

        with mock.patch.object(replace_optimized, "inline_node",
                               recording_inline), \
                mock.patch.object(GrammarOccurrenceIndex,
                                  "_store", counting_store), \
                mock.patch.object(GrammarOccurrenceIndex, "_adapt_rule",
                                  bounded_adapt), \
                mock.patch("repro.api.GrammarRePair", compressor):
            doc.recompress()
        doc.grammar.validate()
        assert stale == []
        # The scenario occurs: argument roots replaced in the same round.
        assert sum(replaced for _, _, replaced in adapted) > 0
        over = [(stored, bound) for stored, bound, _ in adapted
                if stored > bound]
        assert over == []


class TestTouchedRuleReporting:
    def _one_round(self, grammar, optimized):
        """Run one replacement round by hand, reporting touches both ways."""
        opaque = set()
        table = retrieve_occurrences(grammar, opaque)
        best = table.best(kin=4)
        if best is None:
            return None
        digram, _weight = best
        occurrences = table.occurrences(digram)
        replacement = grammar.alphabet.fresh_nonterminal(digram.rank, "X")
        grammar.set_rule(replacement, digram_pattern(digram))
        opaque.add(replacement)
        recorder = RuleTouchRecorder()
        grammar.register_observer(recorder)
        explicit = set()
        try:
            if optimized:
                replace_all_occurrences_optimized(
                    grammar, digram, replacement, occurrences, opaque,
                    touched=explicit,
                )
            else:
                replace_all_occurrences_simple(
                    grammar, digram, replacement, occurrences,
                    touched=explicit,
                )
        finally:
            grammar.unregister_observer(recorder)
        return explicit, recorder

    @settings(max_examples=40, deadline=None)
    @given(slcf_grammars())
    def test_optimized_reports_match_observer(self, grammar):
        outcome = self._one_round(grammar, optimized=True)
        if outcome is None:
            return
        explicit, recorder = outcome
        assert recorder.changed == explicit
        assert recorder.removed == set()

    @settings(max_examples=40, deadline=None)
    @given(slcf_grammars())
    def test_simple_reports_match_observer(self, grammar):
        outcome = self._one_round(grammar, optimized=False)
        if outcome is None:
            return
        explicit, recorder = outcome
        assert recorder.changed == explicit
        assert recorder.removed == set()


class TestQueueBackedTableBest:
    @staticmethod
    def _reference_best(table, kin, skip=None):
        """The historical linear scan over the weight table."""
        best_digram, best_weight = None, 0
        for digram, weight in table.weights.items():
            if skip and digram in skip:
                continue
            if not digram.is_appropriate(kin, weight):
                continue
            if (best_digram is None or weight > best_weight
                    or (weight == best_weight
                        and digram.sort_key() < best_digram.sort_key())):
                best_digram, best_weight = digram, weight
        return None if best_digram is None else (best_digram, best_weight)

    @settings(max_examples=40, deadline=None)
    @given(slcf_grammars())
    def test_best_matches_linear_scan(self, grammar):
        table = retrieve_occurrences(grammar)
        assert table.best(kin=4) == self._reference_best(table, 4)
        # Non-destructive: asking again gives the same answer.
        assert table.best(kin=4) == self._reference_best(table, 4)
        assert table.best(kin=2) == self._reference_best(table, 2)

    @settings(max_examples=25, deadline=None)
    @given(slcf_grammars())
    def test_best_honors_skip_sets(self, grammar):
        table = retrieve_occurrences(grammar)
        skip = set()
        while True:
            expected = self._reference_best(table, 4, skip=skip)
            assert table.best(kin=4, skip=skip) == expected
            if expected is None:
                break
            skip.add(expected[0])


class TestDocumentRecompression:
    @settings(max_examples=20, deadline=None)
    @given(xml_documents(max_elements=25), update_scripts(max_ops=10))
    def test_same_document_as_full_rescan(self, tree, script):
        """The oracle shares no GrammarRePair code: the same script on
        a document that is never compressed and never recompressed."""
        recompressed = CompressedXml.from_document(tree)
        oracle = CompressedXml.from_document(tree, compress=False)
        for _ in replay_script(recompressed, script):
            pass
        for _ in replay_script(
                oracle, [op for op in script if op[0] != "recompress"]):
            pass
        recompressed.recompress()
        assert oracle.recompress_runs == 0
        assert recompressed.element_count == oracle.element_count
        assert recompressed.to_xml() == oracle.to_xml()

    @settings(max_examples=20, deadline=None)
    @given(xml_documents(max_elements=25), update_scripts(max_ops=10))
    def test_queries_stay_correct_after_recompress(self, tree, script):
        doc = CompressedXml.from_document(tree)
        for _ in replay_script(doc, script):
            pass
        doc.recompress()
        doc.grammar.validate()
        tags = list(doc.tags())
        assert len(tags) == doc.element_count
        for i in (0, doc.element_count // 2, doc.element_count - 1):
            assert doc.tag_of(i) == tags[i]

    def test_preserves_index_tables_for_untouched_rules(self):
        """A run evicts only what it rewrites: a cached rule whose
        derivation enters no rewritten rule keeps its pack.  The shards
        over the unique tags hold no digram worth replacing, so they are
        such rules."""
        unique = "".join(f"<u{i}/>" for i in range(40))
        doc = CompressedXml.from_xml(
            "<log>" + unique + "<e><a/><b/><c/></e>" * 200 + "</log>",
            shard_width=8,
        )
        doc.rename(doc.element_count // 2, "first")
        # Warm the structural index over the whole grammar.
        for i in range(0, doc.element_count, 3):
            doc.tag_of(i)
        cached = set(doc.index.cached_rules())
        callers = references(doc.grammar)
        rewritten = RuleTouchRecorder()
        doc.grammar.register_observer(rewritten)
        doc.recompress()
        doc.grammar.unregister_observer(rewritten)
        assert doc.index.wholesale_invalidations == 0
        # The rewritten rules and everything deriving through them.
        stale, stack = set(), list(rewritten.changed | rewritten.removed)
        while stack:
            head = stack.pop()
            if head not in stale:
                stale.add(head)
                stack.extend(caller for caller, _ in callers.get(head, ()))
        untouched = cached - stale
        assert len(untouched) >= 10
        assert untouched <= set(doc.index.cached_rules())
        # ... and the index still answers correctly from them.
        assert doc.tag_of(doc.element_count // 2) == "first"
        assert doc.tag_of(1) == "u0"

    def test_uncompressed_grammar_gets_full_first_run(self):
        doc = CompressedXml.from_xml(
            "<log>" + "<e/>" * 80 + "</log>", compress=False
        )
        assert len(doc.grammar) == 1
        doc.recompress()
        # The first run on a never-compressed grammar compresses, and
        # every run censuses the whole grammar once.
        assert doc.last_repair_stats.full_censuses == 1
        assert doc.compressed_size < 80
        doc.rename(1, "x")
        doc.recompress()
        assert doc.last_repair_stats.full_censuses == 1

    def test_recompress_instrumentation(self):
        doc = CompressedXml.from_xml("<log>" + "<e/>" * 60 + "</log>")
        assert doc.recompress_runs == 0
        doc.rename(1, "x")
        doc.recompress()
        assert doc.recompress_runs == 1
        assert doc.recompress_seconds > 0.0
        assert doc.last_repair_stats.full_censuses == 1


class TestPruningRidesCachedStructure:
    """The recompression pruning phase must not re-walk the grammar.

    Historically ``prune_grammar`` recomputed reference counts, two
    anti-SL orders, and per-rule edge counts from scratch -- an O(|G|)
    setup per recompression even when nothing was prunable.  The loop
    now hands it the occurrence index's cached structure maps; the
    walks remain only in ``prune_grammar``'s self-contained mode."""

    XML = "<log>" + "<e><a/><b/><c/></e>" * 60 + "</log>"

    def _forbid_walks(self, monkeypatch):
        from repro.repair import pruning

        calls = {"reference_counts": 0, "anti_sl_order": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            pruning, "reference_counts",
            counting("reference_counts", pruning.reference_counts),
        )
        monkeypatch.setattr(
            pruning, "anti_sl_order",
            counting("anti_sl_order", pruning.anti_sl_order),
        )
        return calls

    def test_incremental_prune_does_no_setup_walks(self, monkeypatch):
        doc = CompressedXml.from_xml(self.XML, compress=False)
        calls = self._forbid_walks(monkeypatch)
        compressor = GrammarRePair()
        compressor.compress(doc.grammar, in_place=True)
        assert compressor.stats.rounds > 0
        assert calls["reference_counts"] == 0, (
            "incremental pruning re-walked the grammar for reference "
            "counts instead of using the occurrence index's cached maps"
        )
        assert calls["anti_sl_order"] == 0
        doc.grammar.validate()

    @settings(max_examples=30, deadline=None)
    @given(slcf_grammars())
    def test_hinted_prune_equals_historical_prune(self, grammar):
        """Cached-structure pruning and the self-contained walks remove
        the same rules and generate the same document."""
        from repro.core.occurrence_index import GrammarOccurrenceIndex
        from repro.repair.pruning import prune_grammar

        reference = grammar.copy()
        hinted = grammar.copy()
        index = GrammarOccurrenceIndex(hinted, opaque=set())
        index.build()
        hints = dict(
            counts=dict(index.reference_counts_live()),
            order=index.anti_sl_order_live(),
            referencers=index.referencers_live(),
            sizes=index.rule_edges_live(),
        )
        index.detach()
        removed_hinted = prune_grammar(hinted, **hints)
        removed_plain = prune_grammar(reference)
        assert removed_hinted == removed_plain
        assert generates_same_tree(hinted, reference)
        hinted.validate()

    @settings(max_examples=20, deadline=None)
    @given(xml_documents(max_elements=25), update_scripts(max_ops=8))
    def test_census_volume_drops_versus_rescan(self, tree, script):
        """End to end, the total per-rule scans (census entries) stay
        at or below what re-censusing every rule every round would scan
        (``rule_count_trace``: the rule count at each census) -- the
        pruning fold must not sneak whole-grammar work back in.  The
        document is checked against a never-recompressed replay."""
        recompressed = CompressedXml.from_document(tree)
        oracle = CompressedXml.from_document(tree, compress=False)
        for _ in replay_script(recompressed, script):
            pass
        for _ in replay_script(
                oracle, [op for op in script if op[0] != "recompress"]):
            pass
        recompressed.recompress()
        assert recompressed.to_xml() == oracle.to_xml()
        stats = recompressed.last_repair_stats
        assert len(stats.census_trace) == len(stats.rule_count_trace)
        assert sum(stats.census_trace) <= sum(stats.rule_count_trace)
