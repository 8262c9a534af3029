"""The pruning phase shared by TreeRePair and GrammarRePair (Section IV-D).

A rule ``R -> tR`` is *unproductive* when

    ``savG(R) = |refG(R)| * (size(tR) - rank(R)) - size(tR) < 0``

with ``size`` counting edges.  Unproductive rules are removed by inlining,
and so are rules whose body has no edge at all (a rank-0 chain rule
``X -> Y`` or ``X -> a``): their ``savG`` is 0, but inlining one replaces
each reference node by one node and changes no size.
Following TreeRePair's greedy strategy, rules referenced exactly once are
inlined first, then the grammar is scanned in anti-SL order (callees first,
so a caller's size already reflects earlier inlinings when it is judged).

Historically the setup cost one ``reference_counts`` walk, two DFS passes
for the anti-SL order, and one ``edge_count`` walk per judged rule --
O(|G|) per recompression even when nothing is prunable.
:func:`prune_grammar` therefore accepts the cached structure maps of a
:class:`repro.core.occurrence_index.GrammarOccurrenceIndex` (reference
counts, referencer sets, per-rule edge counts, topological order): with
them, pruning performs **no whole-grammar walk at all** -- inlining is
scoped to the actual referencers, and counts/sizes are maintained by
dict arithmetic exactly as the occurrence index maintains them between
rounds.  Without hints the historical self-contained walks are used.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Set

from repro.grammar.derivation import inline_all_references, inline_at
from repro.grammar.properties import anti_sl_order, reference_counts
from repro.grammar.slcf import Grammar
from repro.trees.node import Node, edge_count
from repro.trees.symbols import Symbol

__all__ = ["saving", "prune_grammar"]


def saving(grammar: Grammar, head: Symbol, ref_count: int) -> int:
    """``savG(R)`` for the rule as it currently stands."""
    size = edge_count(grammar.rhs(head))
    return ref_count * (size - head.rank) - size


def _callee_histogram(rhs: Node) -> Counter:
    histogram: Counter = Counter()
    stack = [rhs]
    while stack:
        node = stack.pop()
        if node.symbol.is_nonterminal:
            histogram[node.symbol] += 1
        stack.extend(node.children)
    return histogram


def _inline_references_scoped(
    grammar: Grammar,
    nonterminal: Symbol,
    heads: Iterable[Symbol],
) -> Dict[Symbol, int]:
    """Inline ``nonterminal`` at its references inside ``heads`` only and
    drop its rule -- :func:`~repro.grammar.derivation.inline_all_references`
    without the full-grammar reference scan.  Returns the number of
    references inlined per head (for size maintenance)."""
    template = grammar.rhs(nonterminal)
    per_head: Dict[Symbol, int] = {}
    for head in heads:
        if head is nonterminal or not grammar.has_rule(head):
            continue
        rhs = grammar.rules[head]
        # Collect references first: inlining mutates the tree under us.
        targets = [
            candidate
            for candidate in _preorder(rhs)
            if candidate.symbol is nonterminal
        ]
        for target in targets:
            is_rule_root = target.parent is None
            new_root, _ = inline_at(grammar, target, rhs_override=template)
            if is_rule_root:
                grammar.set_rule(head, new_root)
        if targets:
            per_head[head] = len(targets)
            grammar.notify_rule_changed(head)
    grammar.remove_rule(nonterminal)
    return per_head


def _preorder(root: Node):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def prune_grammar(
    grammar: Grammar,
    protected: Iterable[Symbol] = (),
    counts: Optional[Dict[Symbol, int]] = None,
    order: Optional[List[Symbol]] = None,
    referencers: Optional[Dict[Symbol, Set[Symbol]]] = None,
    sizes: Optional[Dict[Symbol, int]] = None,
) -> int:
    """Remove unproductive rules by inlining; returns how many were removed.

    ``protected`` rules (besides the start rule, which is always kept) are
    never inlined away -- :class:`repro.api.CompressedXml` passes the
    spine shard heads here (a shard is referenced exactly once, which
    phase 1 would otherwise always inline).

    ``counts`` / ``order`` / ``referencers`` / ``sizes`` are the cached
    structure maps of a :class:`~repro.core.occurrence_index.GrammarOccurrenceIndex`
    (reference counts, anti-SL order, referencer sets, RHS edge counts).
    When *all four* are supplied, pruning performs no whole-grammar walks:
    counts and sizes are maintained by dict arithmetic across inlinings,
    and each inlining visits only the rules that actually reference the
    pruned head.  When any is missing, the historical self-contained
    recomputation runs instead (``TreeRePair`` and direct callers).
    """
    keep: Set[Symbol] = {grammar.start, *protected}
    hinted = (counts is not None and order is not None
              and referencers is not None and sizes is not None)
    if hinted:
        # Private copies, restricted to live rules: the maps are
        # maintained in place below.
        counts = {head: counts.get(head, 0) for head in grammar.rules}
        sizes = {head: sizes.get(head, 0) for head in grammar.rules}
        referencers = {
            symbol: set(heads) for symbol, heads in referencers.items()
        }
        order = list(order)
    else:
        counts = reference_counts(grammar)
    removed = 0

    def rule_size(head: Symbol) -> int:
        if hinted:
            return sizes[head]
        return edge_count(grammar.rhs(head))

    def inline_away(head: Symbol) -> None:
        nonlocal removed
        histogram = _callee_histogram(grammar.rhs(head))
        n = counts.pop(head)
        if n == 0:
            # Dead rule: just account for the disappearing references.
            for callee, occurrences in histogram.items():
                counts[callee] -= occurrences
            if hinted:
                for callee in histogram:
                    refs = referencers.get(callee)
                    if refs is not None:
                        refs.discard(head)
                sizes.pop(head, None)
            grammar.remove_rule(head)
        elif hinted:
            hosts = referencers.pop(head, set())
            body_edges = sizes.pop(head)
            per_head = _inline_references_scoped(grammar, head, hosts)
            # Every inlined reference replaces one reference node by the
            # body: the host gains ``body_edges - rank`` edges, and the
            # body's own references once per inline (minus the ones the
            # removed rule carried).
            for host, inlined in per_head.items():
                sizes[host] += inlined * (body_edges - head.rank)
            for callee, occurrences in histogram.items():
                counts[callee] += (n - 1) * occurrences
                refs = referencers.setdefault(callee, set())
                refs.discard(head)
                refs.update(per_head)
        else:
            inline_all_references(grammar, head)
            for callee, occurrences in histogram.items():
                counts[callee] += (n - 1) * occurrences
        removed += 1

    # Phase 0: drop rules unreachable via references (cascading).
    worklist: List[Symbol] = [
        head for head, count in counts.items()
        if count == 0 and head not in keep
    ]
    while worklist:
        head = worklist.pop()
        if not grammar.has_rule(head) or counts.get(head) != 0:
            continue
        inline_away(head)
        worklist.extend(
            callee for callee, count in counts.items()
            if count == 0 and callee not in keep and grammar.has_rule(callee)
        )

    if not hinted:
        order = anti_sl_order(grammar)

    # Phase 1: rules referenced exactly once never pay for themselves.
    for head in order:
        if head in keep or not grammar.has_rule(head):
            continue
        if counts.get(head) == 1:
            inline_away(head)

    # Phase 2: anti-SL saving scan.
    if not hinted:
        order = anti_sl_order(grammar)
    for head in order:
        if head in keep or not grammar.has_rule(head):
            continue
        size = rule_size(head)
        if size == 0 or counts[head] * (size - head.rank) - size < 0:
            inline_away(head)

    return removed
