"""GrammarRePair (Algorithm 1): RePair compression directly on a grammar.

Given an SLCF grammar ``G``, produce a smaller grammar ``G'`` with
``valG'(S) = valG(S)`` *without decompressing*:

1. ``RETRIEVEOCCS`` counts usage-weighted, non-overlapping digram
   occurrences over the whole grammar,
2. a most frequent appropriate digram is replaced by a fresh nonterminal,
   using either the DependencyDAG (Algorithm 5) or the optimized
   ReplacementDAG with fragment export (Algorithms 6-8),
3. occurrence counts are refreshed and the loop continues,
4. the pruning phase removes unproductive rules.

Applied to the trivial grammar ``{S -> t}`` this is a tree compressor
(Section V-B); applied to an updated grammar it is the paper's incremental
recompressor (Section V-C).

Occurrence maintenance
----------------------
Step 3 does **not** rerun the census: a
:class:`~repro.core.occurrence_index.GrammarOccurrenceIndex` is built
with exactly one full-grammar pass and then, after every replacement,
adapts the edited rules edge by edge (from the replacer's event log),
re-resolves only the generators a changed rule interface can reach and
updates usage only where it changed -- a round costs O(what it changed).
``compress(dirty_rules=...)`` narrows even the initial census to a set of
dirty rules plus their digram frontier, which is what
:meth:`repro.api.CompressedXml.recompress` uses to recompress only the
part of the grammar mutated since its last run.
:func:`~repro.core.retrieve.retrieve_occurrences` (the from-scratch
RETRIEVEOCCS census) stays as the oracle the index is checked against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Set

from repro.core.occurrence_index import GrammarOccurrenceIndex
from repro.core.replace_optimized import replace_all_occurrences_optimized
from repro.core.replace_simple import replace_all_occurrences_simple
from repro.grammar.slcf import Grammar
from repro.repair.digram import Digram, digram_pattern
from repro.repair.pruning import prune_grammar
from repro.repair.tree_repair import DEFAULT_KIN, RULE_PREFIX
from repro.trees.node import Node
from repro.trees.symbols import Alphabet, Symbol

__all__ = ["GrammarRePair", "GrammarRePairStats", "grammar_repair"]


@dataclass
class GrammarRePairStats:
    """Trace of one recompression run (drives Figures 2 and 3).

    ``full_censuses`` counts full-grammar occurrence censuses;
    ``census_trace[i]`` is the number of rules censused by round ``i``
    (entry 0 is the initial build) and ``rule_count_trace[i]`` the number
    of grammar rules at that moment.  A run performs at most one full
    census; ``seed_rule_count`` is set when it was dirty-rule-scoped
    instead.
    """

    rounds: int = 0
    rules_created: int = 0
    rules_pruned: int = 0
    replacements: int = 0
    initial_size: int = 0
    final_size: int = 0
    max_intermediate_size: int = 0
    size_trace: List[int] = field(default_factory=list)
    full_censuses: int = 0
    census_trace: List[int] = field(default_factory=list)
    rule_count_trace: List[int] = field(default_factory=list)
    rules_censused: int = 0
    #: Rules brought up to date below census cost: event-log adaptation
    #: (O(edits)) and targeted re-resolutions (only the generators whose
    #: first hop enters a changed interface's closure); a rule may get
    #: both in one round.
    rules_adapted: int = 0
    rules_partially_rescanned: int = 0
    #: Resolver round-trip pairs (TREEPARENT + TREECHILD of one generator)
    #: the occurrence index issued: the unit of maintenance work.
    generators_resolved: int = 0
    #: Rules whose usage changed, summed over rounds: the reach of the
    #: per-round usage maintenance.
    usage_updates: int = 0
    seed_rule_count: Optional[int] = None
    #: Wall time spent maintaining occurrence counts: census/build, digram
    #: selection and per-round count upkeep (incl. garbage detection) --
    #: the occurrence index's share.  Replacement and pruning time is
    #: excluded.
    maintenance_seconds: float = 0.0
    #: Stage wall times of the run: the occurrence census (the index
    #: build), the replacement rounds (everything between census and
    #: prune), and the pruning phase.
    census_seconds: float = 0.0
    rounds_seconds: float = 0.0
    prune_seconds: float = 0.0

    @property
    def blow_up(self) -> float:
        """Figure 2: max intermediate grammar size over final size."""
        if self.final_size == 0:
            return 1.0
        return self.max_intermediate_size / self.final_size

    def to_dict(self) -> dict:
        """Flat numeric view (the shared stats-object protocol)."""
        return {
            "rounds": self.rounds,
            "rules_created": self.rules_created,
            "rules_pruned": self.rules_pruned,
            "replacements": self.replacements,
            "initial_size": self.initial_size,
            "final_size": self.final_size,
            "max_intermediate_size": self.max_intermediate_size,
            "blow_up": self.blow_up,
            "full_censuses": self.full_censuses,
            "rules_censused": self.rules_censused,
            "rules_adapted": self.rules_adapted,
            "rules_partially_rescanned": self.rules_partially_rescanned,
            "generators_resolved": self.generators_resolved,
            "usage_updates": self.usage_updates,
            "seed_rule_count": self.seed_rule_count or 0,
            "maintenance_seconds": self.maintenance_seconds,
            "census_seconds": self.census_seconds,
            "rounds_seconds": self.rounds_seconds,
            "prune_seconds": self.prune_seconds,
        }


class GrammarRePair:
    """Configurable GrammarRePair compressor.

    Parameters
    ----------
    kin:
        Maximum rank of replacement nonterminals.
    prune:
        Run the pruning phase (Section IV-D) at the end.
    optimized:
        Use the ReplacementDAG with fragment export (Algorithms 6-8)
        instead of plain DependencyDAG inlining (Algorithm 5).  The
        non-optimized variant is exponentially worse on some inputs
        (Figure 3) but useful as a reference.
    round_hook:
        Test/diagnostics callback invoked after every round
        with ``(grammar, occurrence_index, opaque)``.
    barriers:
        Spine shard heads (see :class:`repro.grammar.sharding.ShardManager`).
        Their reference edges are never censused or resolved through --
        the spine skeleton stays put while shard *bodies* compress like
        any rule -- and the pruning phase keeps them even though each is
        referenced exactly once.
    """

    def __init__(
        self,
        kin: int = DEFAULT_KIN,
        prune: bool = True,
        optimized: bool = True,
        round_hook: Optional[Callable] = None,
        barriers: Optional[Set[Symbol]] = None,
    ) -> None:
        self.kin = kin
        self.prune = prune
        self.optimized = optimized
        self.round_hook = round_hook
        self.barriers: Set[Symbol] = set(barriers) if barriers else set()
        self.stats = GrammarRePairStats()

    # ------------------------------------------------------------------
    def compress(
        self,
        grammar: Grammar,
        in_place: bool = False,
        dirty_rules: Optional[Iterable[Symbol]] = None,
    ) -> Grammar:
        """Recompress ``grammar``; returns the new grammar.

        With ``in_place=False`` (default) the input grammar is left
        untouched.  ``dirty_rules`` scopes the initial census to the
        given rules plus their digram frontier -- rules untouched since
        the last compression keep their digrams as they are.
        """
        working = grammar if in_place else grammar.copy()
        stats = self.stats = GrammarRePairStats()
        stats.initial_size = working.size
        stats.max_intermediate_size = stats.initial_size
        stats.size_trace.append(stats.initial_size)

        loop_started = time.perf_counter()
        prune_hints = self._run_rounds(working, stats, dirty_rules)
        loop_elapsed = time.perf_counter() - loop_started
        stats.rounds_seconds = max(0.0, loop_elapsed - stats.census_seconds)

        if self.prune:
            prune_started = time.perf_counter()
            stats.rules_pruned = prune_grammar(
                working, protected=self.barriers, **prune_hints
            )
            stats.prune_seconds = time.perf_counter() - prune_started
        stats.final_size = working.size
        stats.size_trace.append(stats.final_size)
        if stats.final_size > stats.max_intermediate_size:
            stats.max_intermediate_size = stats.final_size
        return working

    # ------------------------------------------------------------------
    def _replace(
        self,
        working: Grammar,
        digram: Digram,
        replacement: Symbol,
        occurrences,
        opaque: Set[Symbol],
        ref_counts: dict,
        rule_order: List[Symbol],
        clean_edits: dict,
    ) -> int:
        if self.optimized:
            return replace_all_occurrences_optimized(
                working, digram, replacement, occurrences, opaque,
                ref_counts=ref_counts, rule_order=rule_order,
                clean_edits=clean_edits,
            )
        return replace_all_occurrences_simple(
            working, digram, replacement, occurrences
        )

    def _run_rounds(
        self,
        working: Grammar,
        stats: GrammarRePairStats,
        dirty_rules: Optional[Iterable[Symbol]],
    ) -> dict:
        """One census, then touched-rules-only maintenance per round.

        Returns the structure maps the occurrence index maintained
        (reference counts, anti-SL order, referencers, sizes) as
        ``prune_grammar`` keywords, so the pruning phase runs without a
        single whole-grammar setup walk.
        """
        opaque: Set[Symbol] = set()
        index = GrammarOccurrenceIndex(
            working, opaque, barriers=self.barriers
        )
        seed = None
        if dirty_rules is not None:
            seed = set(dirty_rules)
            stats.seed_rule_count = len(seed)
        else:
            stats.full_censuses += 1
        clock = time.perf_counter
        started = clock()
        index.build(seed_rules=seed)
        elapsed = clock() - started
        stats.maintenance_seconds += elapsed
        stats.census_seconds += elapsed
        try:
            while True:
                started = clock()
                best = index.best(self.kin)
                stats.maintenance_seconds += clock() - started
                if best is None:
                    break
                digram, _weight = best
                occurrences = index.occurrences(digram)
                if not occurrences:
                    index.mark_dead(digram)
                    continue
                # The index's cached call graph supplies the round-start
                # reference counts and the bottom-up processing order that
                # the replacer would otherwise recompute with full-grammar
                # walks.
                rule_order = index.order_rules(
                    {occurrence.rule for occurrence in occurrences}
                )
                replacement = working.alphabet.fresh_nonterminal(
                    digram.rank, RULE_PREFIX
                )
                working.set_rule(replacement, digram_pattern(digram))
                opaque.add(replacement)
                index.note_new_rule(replacement)
                clean_edits: dict = {}
                replaced = self._replace(
                    working, digram, replacement, occurrences, opaque,
                    ref_counts=index.reference_counts_live(),
                    rule_order=rule_order,
                    clean_edits=clean_edits,
                )
                if replaced == 0:
                    # Defensive: never loop on an irreplaceable digram.
                    # The replacer may still have rewritten rules while
                    # isolating, so the round is folded in regardless.
                    working.remove_rule(replacement)
                    opaque.discard(replacement)
                    index.mark_dead(digram)
                    started = clock()
                    index.apply_round(collect_garbage=False)
                    stats.maintenance_seconds += clock() - started
                    continue
                # apply_round garbage-collects dead rules itself (the
                # usage table it needs for the weight refresh doubles as
                # the garbage detector) and adapts cleanly-edited rules
                # edge-locally instead of rescanning them.
                started = clock()
                index.apply_round(clean_edits=clean_edits)
                stats.maintenance_seconds += clock() - started
                stats.rounds += 1
                stats.rules_created += 1
                stats.replacements += replaced
                # The index tracks |G| at its structure refreshes; asking
                # the grammar would walk every rule each round.
                size = index.grammar_size()
                stats.size_trace.append(size)
                if size > stats.max_intermediate_size:
                    stats.max_intermediate_size = size
                if self.round_hook is not None:
                    self.round_hook(working, index, opaque)
            return dict(
                counts=dict(index.reference_counts_live()),
                order=index.anti_sl_order_live(),
                referencers=index.referencers_live(),
                sizes=index.rule_edges_live(),
            )
        finally:
            stats.census_trace = list(index.census_trace)
            stats.rule_count_trace = list(index.rule_count_trace)
            stats.rules_censused = index.rules_censused
            stats.rules_adapted = index.rules_adapted
            stats.rules_partially_rescanned = index.rules_partially_rescanned
            stats.generators_resolved = index.generators_resolved
            stats.usage_updates = index.usage_updates
            index.detach()

    # ------------------------------------------------------------------
    def compress_tree(
        self,
        root: Node,
        alphabet: Alphabet,
        copy_input: bool = True,
    ) -> Grammar:
        """GrammarRePair "applied to a tree": wrap in a trivial grammar.

        This is the configuration the paper calls *GrammarRePair applied to
        trees* in Section V-B.
        """
        from repro.trees.node import deep_copy

        working_tree = deep_copy(root) if copy_input else root
        trivial = Grammar.from_tree(working_tree, alphabet)
        return self.compress(trivial, in_place=True)


def grammar_repair(
    grammar: Grammar,
    kin: int = DEFAULT_KIN,
    prune: bool = True,
    optimized: bool = True,
) -> Grammar:
    """Convenience wrapper with default settings."""
    return GrammarRePair(
        kin=kin, prune=prune, optimized=optimized
    ).compress(grammar)
