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
Every run, a recompression of an updated document included, starts from
that one whole-grammar census: a census of only the rules written since
the previous run would miss the digrams that span written and unwritten
rules.
:func:`~repro.core.retrieve.retrieve_occurrences` (the from-scratch
RETRIEVEOCCS census) stays as the oracle the index is checked against.

Resumable runs
--------------
``compress(budget=...)`` is one *step*: the run pauses at the first round
boundary past ``budget`` seconds, its occurrence index still registered
as a grammar observer, so writes made before the next call reach it
through the dirty-set channel a replacement round uses.  That call folds
them in with one ``apply_round`` and continues; pruning runs once, at
the run's end.  The budget is a clock: at equal counted work
(resolutions, replaced occurrences, rounds) a step's p99 was 1.6-1.9x
its median on a sustained-update log, 1.1-1.5x under the clock -- at
the price that where a budgeted run pauses depends on the machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set

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

#: Wall time of one budgeted step.  Each step drops the read caches of the
#: rules it rewrites: 50 ms steps cost update and query p50s ~25 %.
STEP_SECONDS = 0.075

#: Occurrence-index counters ``stats`` report per call (per step).
_INDEX_COUNTERS = ("rules_censused", "rules_adapted",
                   "rules_partially_rescanned", "generators_resolved",
                   "usage_updates")


@dataclass
class GrammarRePairStats:
    """Trace of one ``compress`` call (drives Figures 2 and 3): a whole
    run, or one step of a budgeted run.

    ``full_censuses`` counts full-grammar occurrence censuses;
    ``census_trace[i]`` is the number of rules censused by round ``i``
    (entry 0 is the initial build) and ``rule_count_trace[i]`` the number
    of grammar rules at that moment.  A run performs exactly one full
    census, in its first step.
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
        referenced exactly once.  Held by reference, like the occurrence
        index holds it: a paused run sees the owner's later splits and
        merges.
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
        self.barriers: Set[Symbol] = set() if barriers is None else barriers
        self.stats = GrammarRePairStats()
        # A run paused between budgeted steps: (grammar, index, opaque).
        self._paused: Optional[tuple] = None

    @property
    def paused(self) -> bool:
        """True while a budgeted run waits for its next step."""
        return self._paused is not None

    # ------------------------------------------------------------------
    def compress(
        self,
        grammar: Grammar,
        in_place: bool = False,
        budget: Optional[float] = None,
    ) -> Grammar:
        """Recompress ``grammar``; returns the new grammar.

        With ``in_place=False`` (default) the input grammar is left
        untouched.

        With a ``budget`` the call is one step (at least one round) that
        may leave the run :attr:`paused`; the next call resumes it on its
        own grammar, other arguments unused.  ``stats`` describe a call.
        """
        stats = self.stats = GrammarRePairStats()
        working = self._paused[0] if self._paused else (
            grammar if in_place else grammar.copy())
        loop_started = time.perf_counter()
        prune_hints = self._run_rounds(
            working, stats, None if budget is None else loop_started + budget,
        )
        loop_elapsed = time.perf_counter() - loop_started
        stats.rounds_seconds = max(0.0, loop_elapsed - stats.census_seconds)
        if prune_hints is None:  # paused: pruning waits for the run's end
            stats.final_size = stats.size_trace[-1]
            return working

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
        deadline: Optional[float],
    ) -> Optional[dict]:
        """One census -- or, resuming a paused run, one fold of the rules
        written since the pause -- then touched-rules-only maintenance
        per round.

        Returns the structure maps the occurrence index maintained
        (reference counts, anti-SL order, referencers, sizes) as
        ``prune_grammar`` keywords, so the pruning phase runs without a
        single whole-grammar setup walk; or ``None`` when a round ended
        past ``deadline`` and paused the run, its index left registered
        as a grammar observer.
        """
        clock = time.perf_counter
        if self._paused is None:
            opaque: Set[Symbol] = set()
            index = GrammarOccurrenceIndex(
                working, opaque, barriers=self.barriers
            )
            stats.full_censuses += 1
        else:
            index, opaque = self._paused[1:]
            self._paused = None
        before = {name: getattr(index, name) for name in _INDEX_COUNTERS}
        traced = len(index.census_trace)
        started = clock()
        if index.builds:
            index.apply_round()  # what the observers reported since the pause
        else:
            index.build()
        elapsed = clock() - started
        stats.maintenance_seconds += elapsed
        stats.census_seconds += elapsed
        stats.initial_size = stats.max_intermediate_size = \
            index.grammar_size()
        stats.size_trace.append(stats.initial_size)
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
                if deadline is not None and clock() >= deadline:
                    self._paused = (working, index, opaque)
                    return None
            return dict(
                counts=dict(index.reference_counts_live()),
                order=index.anti_sl_order_live(),
                referencers=index.referencers_live(),
                sizes=index.rule_edges_live(),
            )
        finally:
            stats.census_trace = index.census_trace[traced:]
            stats.rule_count_trace = index.rule_count_trace[traced:]
            for name in _INDEX_COUNTERS:
                setattr(stats, name, getattr(index, name) - before[name])
            if self._paused is None:
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
