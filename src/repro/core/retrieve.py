"""``RETRIEVEOCCS`` (Algorithm 4): one-pass digram census over a grammar.

Rules are traversed in anti-SL order (callees first), each rule in
preorder -- the "top-down greedy" pairing of equal-label digrams.  Every
non-root, non-parameter node is a potential occurrence generator; its tree
parent and tree child are resolved through transparent nonterminals.

An occurrence generated in rule ``C`` stands for ``usageG(C)`` occurrences
in the generated tree ``T``, so digram weights are usage-weighted.

Two suppression rules keep stored occurrences non-overlapping:

* equal-label digrams never cross a rule root (a nonterminal generator
  with ``label(parent) == label(child)`` is skipped),
* an equal-label occurrence whose tree parent is the tree child of an
  already stored occurrence is skipped (the anti-SL + preorder order makes
  this single check sufficient, Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.resolve import Resolver
from repro.grammar.properties import anti_sl_order, usage
from repro.grammar.slcf import Grammar
from repro.repair.digram import Digram
from repro.repair.priority import DigramPriorityQueue
from repro.trees.node import Node
from repro.trees.symbols import Symbol

__all__ = ["GrammarOccurrence", "NO_PATH", "OccurrenceTable", "retrieve_occurrences"]


@dataclass(slots=True)
class GrammarOccurrence:
    """One stored digram occurrence, described on the grammar.

    ``generator`` is the node ``(C, n)`` that generates the occurrence;
    ``parent_node`` / ``child_node`` are the resolved endpoints (terminal
    or opaque-nonterminal nodes, possibly in other rules);
    ``parent_path`` / ``child_path`` list the transparent nonterminal nodes
    that must be expanded to make the endpoints explicit (the
    DependencyDAG's raw material, Section IV-B).

    Slotted: an occurrence index holds one record per generator of the
    grammar.  An occurrence whose endpoints are both explicit shares the
    immutable :data:`NO_PATH` for both paths instead of two fresh lists.
    """

    rule: Symbol
    generator: Node
    parent_node: Node
    child_index: int
    child_node: Node
    parent_path: Sequence[Node] = field(default_factory=list)
    child_path: Sequence[Node] = field(default_factory=list)


#: The resolution path of an explicit endpoint, shared by every record.
NO_PATH: Tuple[Node, ...] = ()


class OccurrenceTable:
    """digram -> occurrences, with usage-weighted counts.

    ``best`` is answered by a lazy max-heap
    (:class:`~repro.repair.priority.DigramPriorityQueue`) instead of a
    linear scan over the weight table; the heap's ``(-weight, sort_key)``
    ordering reproduces the deterministic tie-break exactly.
    """

    def __init__(self) -> None:
        self.entries: Dict[Digram, List[GrammarOccurrence]] = {}
        self.weights: Dict[Digram, int] = {}
        self.queue = DigramPriorityQueue()

    def add(self, digram: Digram, occurrence: GrammarOccurrence, weight: int) -> None:
        self.entries.setdefault(digram, []).append(occurrence)
        total = self.weights.get(digram, 0) + weight
        self.weights[digram] = total
        if total > 0:
            self.queue.update(digram, total)

    def weight(self, digram: Digram) -> int:
        return self.weights.get(digram, 0)

    def occurrences(self, digram: Digram) -> List[GrammarOccurrence]:
        return self.entries.get(digram, [])

    def best(
        self,
        kin: int,
        skip: Optional[Set[Digram]] = None,
    ) -> Optional[Tuple[Digram, int]]:
        """Most frequent appropriate digram (deterministic tie-break).

        ``skip`` carries digrams the caller has already discarded (e.g.
        digrams whose replacement failed).  The peek is non-destructive:
        rejected and skipped digrams stay queued, so later calls with a
        different ``skip`` set still see them.
        """
        def accept(digram: Digram, weight: int) -> bool:
            if skip and digram in skip:
                return False
            return digram.is_appropriate(kin, weight)

        return self.queue.peek_best(accept)

    def __len__(self) -> int:
        return len(self.entries)


def retrieve_occurrences(
    grammar: Grammar,
    opaque: Optional[Set[Symbol]] = None,
    resolver: Optional[Resolver] = None,
    usage_map: Optional[Dict[Symbol, int]] = None,
    barriers: Optional[Set[Symbol]] = None,
) -> OccurrenceTable:
    """Run RETRIEVEOCCS over the whole grammar.

    ``barriers`` (spine shard heads) are never resolved through and the
    generators incident to their reference edges are skipped entirely:
    shard references must stay where they are, so no digram may contain
    them on either side.  Shard *bodies* are censused like any rule.
    """
    if resolver is None:
        resolver = Resolver(grammar, opaque, barriers=barriers)
    barrier_set = resolver.barriers
    if usage_map is None:
        usage_map = usage(grammar)
    table = OccurrenceTable()
    # Per digram: resolved tree-child nodes of stored occurrences; used for
    # the equal-label overlap check (ids, since nodes are unhashable by
    # structure on purpose).
    claimed_children: Dict[Digram, Set[int]] = {}

    for head in anti_sl_order(grammar):
        if head in resolver.opaque:
            # An opaque rule's body is the digram pattern itself; with X
            # "added to F" (Algorithm 1 line 5) the generated tree treats
            # X-nodes as atoms, so the pattern's interior is not part of T
            # and must not be counted.
            continue
        rule_weight = usage_map.get(head, 0)
        rhs = grammar.rules[head]
        stack = [rhs]
        order: List[Node] = []
        while stack:  # preorder
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(node.children))
        for node in order:
            if node.parent is None or node.symbol.is_parameter:
                continue
            if barrier_set and (node.symbol in barrier_set
                                or node.parent.symbol in barrier_set):
                # The edge above a shard reference / below a shard
                # application is pinned: no digram may absorb it.
                continue
            parent_node, child_index, parent_path = resolver.tree_parent(node)
            child_node, child_path = resolver.tree_child(node)
            digram = Digram(
                parent_node.symbol, child_index, child_node.symbol
            )
            if digram.is_equal_label:
                if resolver.is_transparent(node.symbol):
                    # Equal-label occurrences crossing a rule root are
                    # never collected (Algorithm 4's missing case).
                    continue
                claimed = claimed_children.setdefault(digram, set())
                if id(parent_node) in claimed:
                    continue  # overlaps a stored occurrence
                claimed.add(id(child_node))
            table.add(
                digram,
                GrammarOccurrence(
                    rule=head,
                    generator=node,
                    parent_node=parent_node,
                    child_index=child_index,
                    child_node=child_node,
                    parent_path=parent_path,
                    child_path=child_path,
                ),
                rule_weight,
            )
    return table
