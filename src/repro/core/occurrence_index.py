"""A persistent, incrementally maintained digram index over a grammar.

:class:`GrammarOccurrenceIndex` mirrors
:class:`repro.repair.occurrences.TreeOccurrenceIndex` at the grammar
level: digram -> usage-weighted occurrence lists, with the most frequent
appropriate digram answered by a lazy max-heap
(:class:`~repro.repair.priority.DigramPriorityQueue`) in O(log n) instead
of a linear scan over every digram.

The index is built with one full ``RETRIEVEOCCS`` census (Algorithm 4)
over every rule, of a fresh tree grammar and of an updated one alike,
and then maintained *incrementally*: it registers as a grammar observer,
records the rules each replacement round mutates, and on
:meth:`apply_round` adapts exactly what changed.  This
realizes the paper's Section IV-C observation ("only the occurrences that
overlap with an occurrence of the replaced digram have to be adapted") on
the grammar, where before every round paid a full O(|G|) rescan.  A round
costs O(edits + references into changed rules + rules whose usage
changed) -- usage is maintained, not recomputed -- split three ways:

* **edge-local adaptation** for rules whose only mutations were intra-rule
  digram replacements and version inlines: the replacer reports them as
  an event log (:data:`~repro.core.rewrite.EdgeReplacement` deltas, and
  per inline the copied region as it was inlined), and only the
  occurrences incident to the replaced nodes and to the copied region are
  removed and re-resolved -- O(edits + copied nodes) instead of
  O(|rule|).  An argument subtree behind a replaced argument root is not
  revisited: its edges did not change.  This is what keeps rounds cheap
  when the start rule dominates the grammar (the sustained-update
  regime);
* **targeted re-resolution** for rules whose stored *resolutions* can pass
  through an interface that changed: only the generators whose first hop
  enters the closure of the changed interfaces re-resolve, every other
  occurrence of the rule stays as stored.  A rule that was edited *and*
  references such a closure gets both, adaptation first;
* **rule re-census** only for rules rewritten non-locally (fragment
  export), removed, or never censused before.

Affected-set propagation
------------------------
An occurrence stored for rule ``C`` resolves its endpoints through
transparent nonterminals, possibly in other rules.  A mutation of rule
``D`` therefore invalidates:

* ``D``'s own occurrences (its generators changed),
* occurrences of any rule *referencing* a transparent rule through whose
  right-hand side a resolution can now differ.

Resolutions enter a rule ``X`` only at its *interface*, which has two
sides: descending (``TREECHILD``), at ``X``'s root node (when the root is
a transparent nonterminal the walk continues into that rule); ascending
(``TREEPARENT``), at the parents of ``X``'s parameters.  A descent reads
roots only and an ascent parameter parents only.  Endpoints and
resolution paths recorded for other rules consist exactly of these
interface nodes, so a mutation of ``X`` only invalidates outside
occurrences when a side's *signature* -- the root's identity and symbol,
or the parameter parents' identities, symbols and slots -- changed; a
digram replaced in the interior of ``X`` stays ``X``'s private affair.
The index keeps, per rule, its referenced symbols, per side its boundary
symbols (the interface symbols through which walks continue onward) and
its signature.  Per side, the closure of the side-changed transparent
rules under that side's reverse-boundary edges (``through``) holds every
rule a walk of that direction can enter on its way to a changed side;
the affected rules are ``dirty`` plus the referencers of either closure,
and within such a referencer the affected generators are exactly those
whose own symbol is in the root closure (descending) or whose in-rule
parent symbol is in the parameter closure (ascending).  This is sound
because every hop of a TREECHILD/TREEPARENT walk follows a reference,
and hops beyond the first pass through interfaces of the walk's side
only -- so every resolution chain reaching a changed side has its
*first* hop in that side's closure.

One store loop
--------------
The census, the edge-local adaptation and the crossing rescan all store
through :meth:`GrammarOccurrenceIndex._store`, one loop over the
generators its caller hands it, and all removals go through one removal
loop.  Each caller keeps its order, which the equal-label claims depend
on: a census stores in rule preorder; an adaptation removes every
detached or re-generated generator once, then stores; a crossing rescan
removes and stores one generator at a time, in rule preorder.

Equal-label caveat
------------------
Stored equal-label occurrences carry per-digram *claims* (resolved child
endpoints) that suppress overlaps.  Claims persist across rounds, so
incremental maintenance may greedily pick a different -- equally valid,
non-overlapping -- occurrence set than a from-scratch census would (and
edge-local adaptation does not re-discover occurrences a removed claim
used to suppress).  Non-equal-label digram weights are maintained
exactly.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.resolve import Resolver
from repro.core.retrieve import NO_PATH, GrammarOccurrence
from repro.grammar.properties import anti_sl_order
from repro.grammar.slcf import Grammar
from repro.repair.digram import Digram
from repro.repair.priority import DigramPriorityQueue
from repro.trees.node import Node
from repro.trees.symbols import Symbol

__all__ = ["GrammarOccurrenceIndex"]

#: Per rule: digram -> {id(generator) -> occurrence}.  Generator-keyed so
#: edge-local adaptation can remove single occurrences in O(1); dicts
#: preserve insertion (preorder) order for the occurrence lists.
_RuleTable = Dict[Digram, Dict[int, GrammarOccurrence]]
#: rule -> interface symbols, or symbol -> rules, on one interface side.
_Sides = Dict[Symbol, Set[Symbol]]


class GrammarOccurrenceIndex:
    """Digram -> occurrences over one mutable grammar, kept correct
    across replacement rounds by adapting only what each round touched.

    Lifecycle (one instance per GrammarRePair run, which budgeted
    :meth:`GrammarRePair.compress` calls may split into steps)::

        index = GrammarOccurrenceIndex(grammar, opaque)
        index.build()                       # the run's one census
        while (best := index.best(kin)):
            ... replace best digram ...     # mutations reach the index
            index.apply_round(clean_edits)  # adapt/re-resolve what changed

    The instance registers as a grammar observer on construction; call
    :meth:`detach` when done (before pruning, which rewrites wholesale).
    """

    def __init__(
        self,
        grammar: Grammar,
        opaque: Set[Symbol],
        barriers: Optional[Set[Symbol]] = None,
    ) -> None:
        self._grammar = grammar
        self._opaque = opaque
        # Spine shard heads: never resolved through, never part of a
        # digram (the generators incident to their reference edges are
        # skipped) -- their bodies are ordinary compression material.
        # Held by reference: a paused run's owner re-syncs it in place.
        self._barriers = barriers if barriers is not None else set()
        self._by_rule: Dict[Symbol, _RuleTable] = {}
        # rule -> {id(generator) -> digram}: the reverse lookup removals
        # need.
        self._gen_digram: Dict[Symbol, Dict[int, Digram]] = {}
        # rule -> the usage weight folded into _weights for its occurrences.
        self._rule_usage: Dict[Symbol, int] = {}
        self._weights: Dict[Digram, int] = {}
        # Textual (unweighted) occurrence counts.  A digram stored exactly
        # once *that contains an opaque digram symbol* has nothing left to
        # share: replacing it wraps a single site in one more rule (net
        # growth), and on update-accumulated grammars chains of such
        # replacements feed each other into a blow-up the pruning phase
        # cannot recover.  ``best`` therefore rejects those; singleton
        # digrams over document symbols stay eligible -- they isolate
        # shared-rule interiors and enable later cross-rule sharing.
        self._counts: Dict[Digram, int] = {}
        # Equal-label claims: digram -> {id(child endpoint) -> refcount}.
        # Refcounted because distinct generators may resolve to the same
        # explicit child node (shared rules).
        self._claims: Dict[Digram, Dict[int, int]] = {}
        # Structure maps, maintained for *every* rule (cheap, no resolver):
        # per-rule callee histograms (symbol -> reference multiplicity)...
        self._callee_counts: Dict[Symbol, Dict[Symbol, int]] = {}
        self._referencers: Dict[Symbol, Set[Symbol]] = {}
        # Per interface side (0: the root, 1: the parameter parents):
        # rule -> the nonterminals there through which walks continue
        # onward, and the reverse map.
        self._boundary: Tuple[_Sides, _Sides] = ({}, {})
        self._boundary_refs: Tuple[_Sides, _Sides] = ({}, {})
        # ... and their aggregate: |refG(Q)| per rule head, kept exact by
        # folding histogram deltas at every structure refresh.  Replaces
        # the per-round full-grammar ``reference_counts`` walk.
        self._refs_total: Dict[Symbol, int] = {}
        # usageG per rule, brought up to date by _propagate_usage from the
        # histogram deltas recorded since; then rules that may be garbage.
        self._usage: Dict[Symbol, int] = {}
        self._count_delta: Dict[Symbol, Dict[Symbol, int]] = {}
        self._unused: Set[Symbol] = set()
        # rule -> interface signature, (root side, parameter side): the
        # root and the parameter-parent nodes by identity and symbol;
        # outside occurrences resolve through these nodes and only these,
        # so an unchanged side means no caller re-resolves through it.
        self._interface: Dict[Symbol, Tuple[Tuple, Tuple]] = {}
        # rule -> RHS edge count, and the grammar-wide total: lets the
        # compression loop trace |G| per round without an O(|G|) walk.
        self._rule_edges: Dict[Symbol, int] = {}
        self._total_edges = 0
        # rule -> topological level (every caller strictly above all its
        # callees); sorting by it yields an anti-SL order without a
        # per-round DFS over the whole call graph.
        self._topo: Dict[Symbol, int] = {}
        self.queue = DigramPriorityQueue()
        self._dead: Set[Digram] = set()
        # Intermediate-size ceiling for break-even replacements over
        # opaque rules (set at build time; see best()).
        self._blowup_budget = float("inf")
        self._dirty: Set[Symbol] = set()
        self._changed_digrams: Set[Digram] = set()
        # Instrumentation (asserted by tests and reported by benchmarks).
        self.builds = 0
        self.rules_censused = 0
        self.rules_adapted = 0
        self.rules_partially_rescanned = 0
        # One per tree_parent + tree_child round-trip pair issued.
        self.generators_resolved = 0
        # Rules whose usage changed, summed over apply_round calls.
        self.usage_updates = 0
        self.last_census_count = 0
        self.census_trace: List[int] = []
        # Grammar rule count at the time of each census, so the trace can
        # be judged against the grammar size it ran over.
        self.rule_count_trace: List[int] = []
        self._registered = True
        grammar.register_observer(self)

    # ------------------------------------------------------------------
    # grammar observer protocol
    # ------------------------------------------------------------------
    def rule_changed(self, head: Symbol) -> None:
        self._dirty.add(head)

    def rule_removed(self, head: Symbol) -> None:
        self._dirty.add(head)

    def detach(self) -> None:
        """Unregister from the grammar (the index goes stale after)."""
        if self._registered:
            self._grammar.unregister_observer(self)
            self._registered = False

    # ------------------------------------------------------------------
    # building and incremental maintenance
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Initial census: every (non-opaque) rule is censused -- the
        one full-grammar pass of a compression run.  Every later census
        is of a rule rewritten since.
        """
        self.builds += 1
        grammar = self._grammar
        for head in grammar.rules:
            self._refresh_structure(head)
        # Usage propagated from zero: the start rule's weight flows down.
        self._propagate_usage({grammar.start: 1})
        self._unused = set(grammar.rules).difference(self._usage)
        resolver = Resolver(grammar, self._opaque, barriers=self._barriers)
        census_count = 0
        for head in anti_sl_order(grammar):
            if self._census_rule(head, resolver):
                census_count += 1
        self.last_census_count = census_count
        self.census_trace.append(census_count)
        self.rule_count_trace.append(len(grammar.rules))
        self._blowup_budget = max(2 * self._total_edges,
                                  self._total_edges + 64)
        self._flush_queue()
        self._dirty.clear()

    def apply_round(
        self,
        clean_edits: Optional[Dict[Symbol, List]] = None,
        collect_garbage: bool = True,
    ) -> List[Symbol]:
        """Fold one replacement round's mutations into the index.

        ``clean_edits`` maps rules whose *only* mutations were intra-rule
        digram replacements to their ordered
        :data:`~repro.core.rewrite.EdgeReplacement` logs; those rules are
        adapted edge-locally.  Every other rule reported through the
        observer channel since the last call is dropped and re-censused.
        Rules whose resolutions can pass through a changed interface --
        adapted this round or untouched -- re-resolve just the generators
        whose first hop enters the changed interfaces' closure.  All
        other stored occurrences stay, with weights adjusted for usage
        shifts by plain dict arithmetic.  With
        ``collect_garbage`` (the default), rules whose usage dropped to
        zero are removed from the grammar first (the usage update needed
        for the weights doubles as the garbage detector).  Returns the
        removed rule heads.

        Nothing here walks the whole grammar: usage and reference counts
        come from the cached callee histograms, and usage deltas travel
        only as far as usage actually changes, so a round costs
        O(edits + the usage-changed closure) dictionary work plus one
        resolution per edited or closure-entering generator whose
        endpoints are not both explicit, instead of O(|G|) node visits.
        """
        grammar = self._grammar
        dirty = self._dirty
        self._dirty = set()
        # Rules whose root side / parameter side changed.
        interface_dirty: Tuple[Set[Symbol], Set[Symbol]] = (set(), set())

        def refresh(head: Symbol) -> None:
            for side, changed in zip(interface_dirty,
                                     self._refresh_structure(head)):
                if changed:
                    side.add(head)

        for head in dirty:
            log = clean_edits.get(head) if clean_edits else None
            if log and self._patch_structure_clean(head, log):
                continue  # interface provably unchanged
            refresh(head)
        usage = self._usage
        changed = self._propagate_usage({})
        self.usage_updates += len(changed)
        removed: List[Symbol] = []
        if collect_garbage and self._unused:
            unused = {head for head in self._unused
                      if not usage.get(head) and grammar.has_rule(head)}
            self._unused = set()
            # In rule-table order, as a whole-grammar scan lists them.
            removed = (list(unused) if len(unused) < 2 else
                       [head for head in grammar.rules if head in unused])
            for head in removed:
                grammar.remove_rule(head)  # notifies observers, incl. self
            if removed:
                dirty |= self._dirty
                self._dirty = set()
                for head in removed:
                    usage.pop(head, None)
                    refresh(head)
        propagated, through = self._propagated(interface_dirty)
        # Edge-local adaptation: rules with stored occurrences whose only
        # mutations were clean replacements/inlines.
        adapt: Dict[Symbol, List] = {}
        if clean_edits:
            for head, log in clean_edits.items():
                if (log and grammar.has_rule(head)
                        and head in self._by_rule):
                    adapt[head] = log
        # Re-census: whatever else changed (fragment export, removal,
        # never censused).
        rescan = dirty - set(adapt)
        # Targeted re-resolution: a rule referencing the closure of the
        # changed interfaces keeps every occurrence whose resolution
        # cannot enter that closure and re-resolves the rest -- on top of
        # its own edge-local adaptation when it was also edited.
        partial = {
            head for head in propagated
            if head not in rescan and head not in self._opaque
            and grammar.has_rule(head)
        }
        for head in rescan:
            self._drop_rule(head)
        # Usage refresh for censused rules whose usage changed: adjust
        # weights by the usage delta -- dict arithmetic only.  Runs before
        # adaptation so edge deltas apply at the new usage.
        for head in changed:
            old_weight = self._rule_usage.get(head)
            new_weight = usage.get(head, 0)
            if old_weight is None or new_weight == old_weight:
                continue
            delta = new_weight - old_weight
            for digram, occs in self._by_rule[head].items():
                self._weights[digram] = (
                    self._weights.get(digram, 0) + delta * len(occs)
                )
                self._changed_digrams.add(digram)
            self._rule_usage[head] = new_weight
        resolver = Resolver(grammar, self._opaque, barriers=self._barriers)
        for head, log in adapt.items():
            self._adapt_rule(head, log, resolver)
        census_count = 0
        for head in self._order_affected(rescan):
            if self._census_rule(head, resolver):
                census_count += 1
        for head in self._order_affected(partial):
            self._rescan_crossing(head, through, resolver)
            census_count += 1
        self.last_census_count = census_count
        self.census_trace.append(census_count)
        self.rule_count_trace.append(len(grammar.rules))
        self._flush_queue()
        return removed

    # ------------------------------------------------------------------
    # derived grammar properties from the cached structure maps
    # ------------------------------------------------------------------
    def reference_counts_live(self) -> Dict[Symbol, int]:
        """``|refG(Q)|`` per rule head, as of the last build/apply_round.

        This is exactly the round-start snapshot
        :class:`~repro.core.replace_optimized.OptimizedReplacer` expects
        (rules created mid-round are deliberately absent).  The returned
        dict is the live aggregate -- treat it as read-only.
        """
        return self._refs_total

    def note_new_rule(self, head: Symbol) -> None:
        """Expose a just-installed rule in :meth:`reference_counts_live`
        (zero references) before the next ``apply_round``.

        The replacement round's snapshot semantics require the fresh
        digram rule to be *cached at zero* -- exactly what the historical
        ``reference_counts(grammar)`` walk reported for it -- rather than
        tracked as a round-created rule.
        """
        self._refs_total.setdefault(head, 0)

    def order_rules(self, heads: Iterable[Symbol]) -> List[Symbol]:
        """Callees-first (anti-SL) order restricted to ``heads``, from the
        cached call graph -- the processing order a replacement round
        needs, without an O(|G|) ``anti_sl_order`` walk."""
        return self._order_affected(set(heads))

    def referencers_live(self) -> Dict[Symbol, Set[Symbol]]:
        """``symbol -> rule heads referencing it``, copied from the cached
        structure maps.  Together with :meth:`reference_counts_live`,
        :meth:`rule_edges_live` and :meth:`anti_sl_order_live` this is the
        whole setup the pruning phase historically recomputed with
        full-grammar walks (``reference_counts`` + two ``sl_order`` DFS
        passes + per-rule ``edge_count``); handing the cached maps over is
        what lets :func:`repro.repair.pruning.prune_grammar` run without
        a single whole-grammar scan per recompression."""
        return {
            symbol: set(heads)
            for symbol, heads in self._referencers.items()
            if heads
        }

    def rule_edges_live(self) -> Dict[Symbol, int]:
        """Per-rule RHS edge counts, as of the last build/apply_round."""
        return dict(self._rule_edges)

    def anti_sl_order_live(self) -> List[Symbol]:
        """A callees-first order over every current rule, derived from
        the maintained topological levels (no call-graph walk)."""
        return self._order_affected(set(self._grammar.rules))

    def grammar_size(self) -> int:
        """``|G|`` in edges, tracked incrementally at structure refreshes
        (equal to ``Grammar.size`` whenever the structure maps are
        current)."""
        return self._total_edges

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def best(self, kin: int) -> Optional[Tuple[Digram, int]]:
        """Pop the most frequent appropriate digram (or ``None``).

        Accept-and-discard: digrams marked dead (a failed replacement)
        are dropped at pop time -- the queue itself absorbs the old
        ``dead_digrams`` workaround.
        """
        def accept(digram: Digram, weight: int) -> bool:
            if digram in self._dead or not digram.is_appropriate(kin, weight):
                return False
            # |G| economics: each textual replacement removes one edge,
            # the fresh rule costs rank+1 edges.  Strictly profitable
            # digrams and digrams over document symbols (whose
            # replacement isolates shared-rule interiors and enables
            # later alignment) are always worth it.  Break-even-or-losing
            # digrams over already-opaque digram rules are accepted only
            # while the intermediate grammar stays inside the paper's
            # bounded blow-up: on update-accumulated grammars such
            # replacements can mint their own successors forever (each
            # wraps the same sites one level deeper), a ladder that blows
            # the grammar up without bound and that pruning cannot
            # recover from.  Budget rejection is deliberately permanent
            # (pop_best discards rejected entries): re-offering such a
            # digram after the grammar shrinks back under budget would
            # re-ignite the same ladder.
            if self._counts.get(digram, 0) >= digram.rank + 1:
                return True
            if not (digram.parent in self._opaque
                    or digram.child in self._opaque):
                return True
            return self._total_edges <= self._blowup_budget

        return self.queue.pop_best(accept)

    def occurrences(self, digram: Digram) -> List[GrammarOccurrence]:
        """Stored occurrences, preorder within each rule."""
        result: List[GrammarOccurrence] = []
        for per_rule in self._by_rule.values():
            occs = per_rule.get(digram)
            if occs:
                result.extend(occs.values())
        return result

    def weight(self, digram: Digram) -> int:
        return self._weights.get(digram, 0)

    def weights(self) -> Dict[Digram, int]:
        """Snapshot of the current usage-weighted digram counts."""
        return dict(self._weights)

    def mark_dead(self, digram: Digram) -> None:
        """Never offer ``digram`` again (its replacement failed)."""
        self._dead.add(digram)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _is_transparent(self, symbol: Symbol) -> bool:
        return (symbol.is_nonterminal and symbol not in self._opaque
                and symbol not in self._barriers)

    def _refresh_structure(self, head: Symbol) -> Tuple[bool, bool]:
        """Recompute ``head``'s reference/boundary sets and interface
        signature (or drop them if the rule is gone), keeping the reverse
        maps in sync.  Returns whether the root side and the parameter
        side of the interface changed -- the only cases in which other
        rules' stored occurrences can be affected."""
        refs_total = self._refs_total
        delta = self._count_delta.setdefault(head, {})
        for symbol, count in self._callee_counts.pop(head, {}).items():
            referencers = self._referencers.get(symbol)
            if referencers is not None:
                referencers.discard(head)
            refs_total[symbol] = refs_total.get(symbol, 0) - count
            delta[symbol] = delta.get(symbol, 0) - count
        for boundary, boundary_refs in zip(self._boundary,
                                           self._boundary_refs):
            for symbol in boundary.pop(head, ()):
                referencers = boundary_refs.get(symbol)
                if referencers is not None:
                    referencers.discard(head)
        old = self._interface.pop(head, (None, None))
        self._total_edges -= self._rule_edges.pop(head, 0)
        grammar = self._grammar
        if not grammar.has_rule(head):
            self._topo.pop(head, None)
            return old[0] is not None, old[1] is not None
        rhs = grammar.rules[head]
        callees: Dict[Symbol, int] = {}
        # Descending resolutions continue through the rule root,
        # ascending ones through parameter parents.
        sides: Tuple[Set[Symbol], Set[Symbol]] = (set(), set())
        param_parents: List[Tuple[int, int, Symbol, int]] = []
        node_total = 0
        if rhs.symbol.is_nonterminal:
            sides[0].add(rhs.symbol)
        stack = [rhs]
        while stack:
            node = stack.pop()
            node_total += 1
            symbol = node.symbol
            if symbol.is_nonterminal:
                callees[symbol] = callees.get(symbol, 0) + 1
            elif symbol.is_parameter:
                parent = node.parent
                if parent is not None:
                    param_parents.append((
                        symbol.param_index, id(parent), parent.symbol,
                        node.child_index(),
                    ))
                    if parent.symbol.is_nonterminal:
                        sides[1].add(parent.symbol)
            stack.extend(node.children)
        param_parents.sort()
        signature = ((id(rhs), rhs.symbol), tuple(param_parents))
        self._callee_counts[head] = callees
        self._interface[head] = signature
        self._rule_edges[head] = node_total - 1
        self._total_edges += node_total - 1
        for symbol, count in callees.items():
            self._referencers.setdefault(symbol, set()).add(head)
            refs_total[symbol] = refs_total.get(symbol, 0) + count
            delta[symbol] = delta.get(symbol, 0) + count
        refs_total.setdefault(head, 0)
        for side, boundary, boundary_refs in zip(sides, self._boundary,
                                                 self._boundary_refs):
            boundary[head] = side
            for symbol in side:
                boundary_refs.setdefault(symbol, set()).add(head)
        self._assign_topo(head, callees)
        return signature[0] != old[0], signature[1] != old[1]

    def _assign_topo(self, head: Symbol, callees: Iterable[Symbol]) -> None:
        """Keep every caller's topological level above all its callees,
        bumping referencers transitively when ``head``'s level rises."""
        topo = self._topo
        level = 0
        for callee in callees:
            callee_level = topo.get(callee, 0)
            if callee_level >= level:
                level = callee_level + 1
        current = topo.get(head)
        if current is not None and current >= level:
            return
        topo[head] = level
        stack = [head]
        while stack:
            node = stack.pop()
            base = topo[node]
            for referencer in self._referencers.get(node, ()):
                if (referencer in self._callee_counts
                        and topo.get(referencer, 0) <= base):
                    topo[referencer] = base + 1
                    stack.append(referencer)

    def _patch_structure_clean(self, head: Symbol, log: List) -> bool:
        """Fold a local-edit event log into ``head``'s structure maps in
        O(edits), when the edits provably left the interface alone (no
        root replacement, no parameter re-parenting).  Returns False when
        ineligible -- the caller falls back to the full walk."""
        callees = self._callee_counts.get(head)
        if callees is None:
            return False
        root = self._grammar.rules.get(head)
        for event in log:
            if event[0] == "edge":
                new_node = event[4]
                if new_node is root or new_node.parent is None:
                    return False  # root was replaced: interface changed
                for child in new_node.children:
                    if child.symbol.is_parameter:
                        return False  # parameter re-parented
            else:  # inline
                region, argument_roots = event[2], event[3]
                if region[0] is root:
                    return False  # inlined at the root: interface changed
                for argument in argument_roots:
                    if argument.symbol.is_parameter:
                        return False  # parameter re-parented under a copy

        refs_total = self._refs_total
        referencers = self._referencers
        recorded = self._count_delta.setdefault(head, {})

        def shift(symbol: Symbol, delta: int) -> None:
            if not symbol.is_nonterminal:
                return
            count = callees.get(symbol, 0) + delta
            if count:
                callees[symbol] = count
                if delta > 0:
                    referencers.setdefault(symbol, set()).add(head)
            else:
                callees.pop(symbol, None)
                refs = referencers.get(symbol)
                if refs is not None:
                    refs.discard(head)
            refs_total[symbol] = refs_total.get(symbol, 0) + delta
            recorded[symbol] = recorded.get(symbol, 0) + delta

        for event in log:
            if event[0] == "edge":
                _tag, old_parent, _slot, old_child, new_node = event
                shift(old_parent.symbol, -1)
                shift(old_child.symbol, -1)
                shift(new_node.symbol, 1)
                # Each replacement removes two nodes and adds one: -1 edge.
                self._rule_edges[head] = self._rule_edges.get(head, 0) - 1
                self._total_edges -= 1
            else:
                # The region was recorded pristine; later edge deltas of
                # the same round apply on top of it.
                _tag, inlined, region, arguments = event
                shift(inlined.symbol, -1)
                argument_ids = {id(argument) for argument in arguments}
                for node in region:
                    if id(node) not in argument_ids:
                        shift(node.symbol, 1)
                # One node replaced by the copied template nodes.
                grown = len(region) - len(arguments) - 1
                self._rule_edges[head] = self._rule_edges.get(head, 0) + grown
                self._total_edges += grown
        self._assign_topo(head, callees)
        return True

    def _propagate_usage(self, pending: Dict[Symbol, int]) -> List[Symbol]:
        """Fold the histogram deltas recorded since the last call, plus
        the usage deltas in ``pending``, into the maintained usage;
        returns the rules whose usage changed.

        ``usage(x) = sum over callers c of usage(c) * count(c, x)``, so
        caller ``c`` shifts callee ``x`` by ``dusage(c) * count_new(c, x)
        + usage_old(c) * dcount(c, x)``.  The second term needs only old
        usage and is folded first; the first is pushed down the current
        call graph in descending topological level, callers before
        callees, and stops wherever a rule's net delta is zero.
        """
        usage = self._usage
        counts = self._callee_counts
        for head, deltas in self._count_delta.items():
            weight = (usage.get(head, 0) if head in counts
                      else usage.pop(head, 0))
            if not weight:
                self._unused.add(head)  # new, or still awaiting collection
                continue
            for callee, delta in deltas.items():
                if delta:
                    pending[callee] = pending.get(callee, 0) + weight * delta
        self._count_delta = {}
        level = self._topo.get
        heap = [(-level(head, 0), head.name, head) for head in pending]
        heapify(heap)
        changed: List[Symbol] = []
        while heap:
            head = heappop(heap)[2]
            delta = pending.pop(head)
            if not delta or head not in counts:
                continue  # net zero, or the rule is gone
            weight = usage[head] = usage.get(head, 0) + delta
            changed.append(head)
            if not weight:
                self._unused.add(head)
            for callee, count in counts[head].items():
                if callee not in pending:
                    heappush(heap, (-level(callee, 0), callee.name, callee))
                pending[callee] = pending.get(callee, 0) + delta * count
        return changed

    def _propagated(
        self, interface_dirty: Tuple[Set[Symbol], Set[Symbol]]
    ) -> Tuple[Set[Symbol], List[Set[Symbol]]]:
        """Rules whose stored occurrences may have changed endpoints
        because a resolution chain out of them reaches a rule whose
        interface changed.  Per side, ``through`` is the closure of the
        transparent rules whose side changed under that side's reverse
        boundary edges -- descents read rule roots only, ascents
        parameter parents only.  Returns ``(referencers of either
        closure, [root closure, parameter closure])``; every affected
        chain has its *first* hop in the closure of its side."""
        result: Set[Symbol] = set()
        through: List[Set[Symbol]] = []
        for dirty, boundary_refs in zip(interface_dirty,
                                        self._boundary_refs):
            closure = {head for head in dirty if self._is_transparent(head)}
            stack = list(closure)
            while stack:
                for head in boundary_refs.get(stack.pop(), ()):
                    if head not in closure and self._is_transparent(head):
                        closure.add(head)
                        stack.append(head)
            for head in closure:
                result.update(self._referencers.get(head, ()))
            through.append(closure)
        return result, through

    def _order_affected(self, affected: Set[Symbol]) -> List[Symbol]:
        """Anti-SL (callees first) order restricted to ``affected``.

        Sorting by the maintained topological level costs
        O(k log k) in the size of the set -- no walk over the call graph.
        Ties are broken by name for determinism.
        """
        topo = self._topo
        return sorted(
            (head for head in affected if head in self._callee_counts),
            key=lambda head: (topo.get(head, 0), head.name),
        )

    def _release_claim(self, digram: Digram, occurrence: GrammarOccurrence) -> None:
        claimed = self._claims.get(digram)
        if not claimed:
            return
        key = id(occurrence.child_node)
        count = claimed.get(key, 0)
        if count <= 1:
            claimed.pop(key, None)
        else:
            claimed[key] = count - 1

    def _drop_rule(self, head: Symbol) -> None:
        """Forget ``head``'s stored occurrences, weights and claims."""
        per_rule = self._by_rule.pop(head, None)
        if per_rule is None:
            return
        self._gen_digram.pop(head, None)
        weight = self._rule_usage.pop(head)
        for digram, occs in per_rule.items():
            self._counts[digram] = self._counts.get(digram, 0) - len(occs)
            if weight:
                self._weights[digram] = (
                    self._weights.get(digram, 0) - weight * len(occs)
                )
            self._changed_digrams.add(digram)
            if digram.is_equal_label:
                for occ in occs.values():
                    self._release_claim(digram, occ)

    def _store(
        self,
        head: Symbol,
        nodes: Iterable[Node],
        resolver: Resolver,
        replace: bool = False,
    ) -> None:
        """Resolve and store the occurrences ``nodes`` generate, in the
        order given: the one store loop of the census, the adaptation and
        the crossing rescan.  With ``replace`` each generator's stored
        occurrence is removed right before it is stored afresh.  The
        equal-label claims make the order matter: a claim suppresses the
        overlapping occurrences stored after it."""
        per_rule = self._by_rule[head]
        gen_map = self._gen_digram[head]
        weight = self._rule_usage[head]
        claims, counts = self._claims, self._counts
        weights, changed = self._weights, self._changed_digrams
        opaque, barriers = self._opaque, self._barriers
        for node in nodes:
            parent = node.parent
            symbol = node.symbol
            if parent is None or symbol.is_parameter:
                continue
            if replace:
                self._remove(head, (node,))
            parent_symbol = parent.symbol
            if barriers and (symbol in barriers
                             or parent_symbol in barriers):
                # Shard reference edges are pinned: replacement must
                # never absorb, move, or duplicate them.
                continue
            descends = symbol.is_nonterminal and symbol not in opaque
            if descends or (parent_symbol.is_nonterminal
                            and parent_symbol not in opaque):
                self.generators_resolved += 1
                parent_node, child_index, parent_path = \
                    resolver.tree_parent(node)
                child_node, child_path = resolver.tree_child(node)
            else:
                # Both endpoints are explicit right here: no resolver
                # walk (the overwhelmingly common case in
                # update-dominated start rules).
                parent_node, child_index = parent, node.child_index()
                child_node, parent_path, child_path = node, NO_PATH, NO_PATH
            digram = Digram(parent_node.symbol, child_index, child_node.symbol)
            if digram.parent is digram.child:  # equal-label
                if descends:
                    continue  # equal-label digrams never cross a rule root
                claimed = claims.setdefault(digram, {})
                if id(parent_node) in claimed:
                    continue  # overlaps a stored occurrence
                key = id(child_node)
                claimed[key] = claimed.get(key, 0) + 1
            key = id(node)
            per_rule.setdefault(digram, {})[key] = GrammarOccurrence(
                head, node, parent_node, child_index, child_node,
                parent_path, child_path,
            )
            gen_map[key] = digram
            counts[digram] = counts.get(digram, 0) + 1
            if weight:
                weights[digram] = weights.get(digram, 0) + weight
            changed.add(digram)

    def _remove(self, head: Symbol, nodes: Iterable[Node]) -> None:
        """Forget the occurrences ``nodes`` generated in ``head`` (a node
        that generated none is skipped): the one removal loop."""
        per_rule = self._by_rule[head]
        gen_map = self._gen_digram[head]
        weight = self._rule_usage[head]
        counts, weights = self._counts, self._weights
        changed, claims = self._changed_digrams, self._claims
        for node in nodes:
            key = id(node)
            digram = gen_map.pop(key, None)
            if digram is None:
                continue
            occurrence = per_rule[digram].pop(key)
            # Stored means counted, and weighted once the rule is used.
            counts[digram] -= 1
            if weight:
                weights[digram] -= weight
            changed.add(digram)
            if digram in claims:  # equal-label
                self._release_claim(digram, occurrence)

    def _adapt_rule(self, head: Symbol, log: List, resolver: Resolver) -> None:
        """Apply one round's local-edit events to ``head``'s occurrences.

        ``("edge", v, i, w, x)``: every node the replacement detached is
        the ``v`` or ``w`` of some entry, and every fresh edge is incident
        to its ``x`` node -- the occurrences generated by
        ``{v, w} U children(x)`` die and ``{x} U children(x)`` generate
        afresh.

        ``("inline", n, region, argument_roots)``: the inlined node's
        occurrence dies; every node of ``region`` -- the template copy and
        the re-parented argument roots, as recorded when the version was
        inlined -- generates afresh (argument interiors are untouched
        originals).  A region node that a later edge event replaces (an
        argument root included) is detached; that event supplies ``x``
        and its children, and everything below them keeps its edges.

        Two passes: first every removal -- each detached node, then each
        node to (re)generate, once each in event order; then one store per
        collected node still attached to the post-round tree (a template
        copy consumed by a later replacement of the same round is not).
        This leaves exactly the occurrence set a rescan of the rule would
        produce (modulo re-discovery of previously claim-suppressed
        equal-label occurrences, see the module docstring) -- at O(edits)
        instead of O(|rule|) cost.
        """
        self.rules_adapted += 1
        # Insertion-ordered node sets (nodes hash by identity).
        detached: Dict[Node, None] = {}
        fresh: Dict[Node, None] = {}
        for event in log:
            if event[0] == "edge":
                _tag, old_parent, _slot, old_child, new_node = event
                detached[old_parent] = detached[old_child] = None
                fresh[new_node] = None
                for child in new_node.children:
                    fresh[child] = None
            else:
                detached[event[1]] = None
                for node in event[2]:
                    fresh[node] = None
        survivors = [
            node for node in fresh
            if node not in detached and node.parent is not None
            and not node.symbol.is_parameter
        ]
        self._remove(head, detached)
        self._remove(head, survivors)
        self._store(head, survivors, resolver)

    def _rescan_crossing(
        self,
        head: Symbol,
        through: List[Set[Symbol]],
        resolver: Resolver,
    ) -> None:
        """Re-resolve the generators of ``head`` whose resolution can
        enter ``through``: nodes whose own symbol is in the root closure
        (child side) or whose in-rule parent symbol is in the parameter
        closure (parent side).

        Used when ``head`` references a rule of either closure (whether
        or not ``head`` itself was edited this round).  Every other
        occurrence -- local, or crossing into rules outside the closures
        -- cannot be affected and keeps its storage, claims and pairing;
        the candidates -- stored *or* previously suppressed, they are the
        same node set -- are removed and stored one at a time, in rule
        preorder.
        """
        self.rules_partially_rescanned += 1
        self._scan(head, resolver, through)

    def _census_rule(self, head: Symbol, resolver: Resolver) -> bool:
        """RETRIEVEOCCS restricted to one rule (assumes it was dropped).

        Returns True when the rule was actually scanned (drives the
        instrumentation counters).
        """
        if head in self._opaque or not self._grammar.has_rule(head):
            return False
        self.rules_censused += 1
        self._scan(head, resolver)
        return True

    def _scan(
        self,
        head: Symbol,
        resolver: Resolver,
        through: Optional[List[Set[Symbol]]] = None,
    ) -> None:
        """Store ``head``'s generators in preorder: all of them (a census
        of a dropped rule), or, re-storing each, those ``through`` names
        (see :meth:`_rescan_crossing`)."""
        if head not in self._by_rule:
            self._by_rule[head] = {}
            self._gen_digram[head] = {}
            self._rule_usage[head] = self._usage.get(head, 0)
        order: List[Node] = []
        stack = [self._grammar.rules[head]]
        while stack:  # preorder
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(node.children))
        if through is not None:
            roots, params = through
            order = [
                node for node in order
                if node.symbol in roots or (
                    node.parent is not None and node.parent.symbol in params)
            ]
        self._store(head, order, resolver, replace=through is not None)
        if not any(self._by_rule[head].values()):
            del self._by_rule[head]
            del self._gen_digram[head]
            del self._rule_usage[head]

    def _flush_queue(self) -> None:
        for digram in self._changed_digrams:
            self.queue.update(digram, self._weights.get(digram, 0))
        self._changed_digrams.clear()
