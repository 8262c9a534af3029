"""TreeRePair: RePair compression of a ranked tree into an SLCF grammar.

This is the baseline the paper compares against (Lohrey, Maneth & Mennicke
[3]), reimplemented from its description:

1. count maximal non-overlapping digram occurrence sets bottom-up,
2. repeatedly replace a most frequent *appropriate* digram (rank bounded by
   ``kin``, at least two occurrences) by a fresh nonterminal,
3. update the occurrence lists around every replacement (incrementally --
   only edges overlapping the replaced one change),
4. prune unproductive rules.

The ``recount`` strategy re-counts from scratch after every round instead of
step 3; it is the obviously-correct reference implementation against which
the incremental strategy is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.grammar.slcf import Grammar
from repro.repair.digram import Digram, digram_pattern, replace_occurrence_in_tree
from repro.repair.occurrences import TreeOccurrenceIndex
from repro.repair.pruning import prune_grammar
from repro.trees.node import Node, deep_copy
from repro.trees.symbols import Alphabet

__all__ = ["TreeRePair", "RePairStats", "DEFAULT_KIN", "RULE_PREFIX"]

#: TreeRePair's default bound on the rank of replacement nonterminals.
DEFAULT_KIN = 4

#: Name prefix of the fresh digram nonterminals (``X1``, ``X2``, ...).
RULE_PREFIX = "X"


@dataclass
class RePairStats:
    """Bookkeeping of one compression run."""

    rounds: int = 0
    replaced_occurrences: int = 0
    rules_created: int = 0
    rules_pruned: int = 0
    max_intermediate_size: int = 0
    final_size: int = 0

    @property
    def blow_up(self) -> float:
        """Figure 2's measure: max intermediate size over final size."""
        if self.final_size == 0:
            return 1.0
        return self.max_intermediate_size / self.final_size


class TreeRePair:
    """Configurable TreeRePair compressor.

    Parameters
    ----------
    kin:
        Maximum rank of replacement nonterminals (the paper's ``kin``).
    prune:
        Run the pruning phase at the end (Section IV-D).
    strategy:
        ``"incremental"`` (default) maintains occurrence lists across
        rounds; ``"recount"`` rebuilds them after every round.
    """

    def __init__(
        self,
        kin: int = DEFAULT_KIN,
        prune: bool = True,
        strategy: str = "incremental",
    ) -> None:
        if strategy not in ("incremental", "recount"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.kin = kin
        self.prune = prune
        self.strategy = strategy
        self.stats = RePairStats()

    # ------------------------------------------------------------------
    def compress(
        self,
        root: Node,
        alphabet: Alphabet,
        copy_input: bool = True,
        start_name: str = "S",
    ) -> Grammar:
        """Compress ``root`` into a grammar with ``valG(S) == root``."""
        self.stats = RePairStats()
        working = deep_copy(root) if copy_input else root
        grammar = Grammar.from_tree(working, alphabet, start_name=start_name)
        if self.strategy == "incremental":
            working = self._run_incremental(grammar, working)
        else:
            working = self._run_recount(grammar, working)
        grammar.set_rule(grammar.start, working)
        if self.prune:
            self.stats.rules_pruned = prune_grammar(grammar)
        self.stats.final_size = grammar.size
        self.stats.max_intermediate_size = max(
            self.stats.max_intermediate_size, grammar.size
        )
        return grammar

    # ------------------------------------------------------------------
    def _record_size(self, grammar: Grammar, working: Node) -> None:
        # ``working`` is the start RHS; it is kept outside the grammar dict
        # during compression, so measure it explicitly.
        from repro.trees.node import edge_count

        size = edge_count(working) + sum(
            edge_count(rhs)
            for head, rhs in grammar.rules.items()
            if head is not grammar.start
        )
        if size > self.stats.max_intermediate_size:
            self.stats.max_intermediate_size = size

    def _run_incremental(self, grammar: Grammar, working: Node) -> Node:
        index = TreeOccurrenceIndex.build(working)
        root_holder = [working]
        while True:
            best = index.best(self.kin)
            if best is None:
                break
            digram, _weight = best
            occurrences = index.occurrences(digram)
            if len(occurrences) < 2:
                index.drop_digram(digram)
                continue
            replacement = grammar.alphabet.fresh_nonterminal(
                digram.rank, RULE_PREFIX
            )
            for occurrence in occurrences:
                self._replace_with_context_update(
                    index, occurrence, replacement, root_holder
                )
            grammar.set_rule(replacement, digram_pattern(digram))
            index.drop_digram(digram)
            self.stats.rounds += 1
            self.stats.rules_created += 1
            self.stats.replaced_occurrences += len(occurrences)
            self._record_size(grammar, root_holder[0])
        return root_holder[0]

    def _replace_with_context_update(
        self,
        index: TreeOccurrenceIndex,
        occurrence,
        replacement,
        root_holder: List[Node],
    ) -> None:
        parent_node, child_index, child_node = occurrence
        outer = parent_node.parent
        # 1. Remove every occurrence overlapping the replaced edge: the edge
        #    above v, the edges below v (including the replaced one), and
        #    the edges below w (Section IV-C).
        if outer is not None:
            index.remove_edge(outer, parent_node)
        for c in parent_node.children:
            index.remove_edge(parent_node, c)
        for c in child_node.children:
            index.remove_edge(child_node, c)
        # 2. Splice in the X-node.
        x = replace_occurrence_in_tree(
            parent_node, child_index, child_node, replacement
        )
        if outer is None:
            root_holder[0] = x
        else:
            index.add(outer, x.child_index(), x)
        # 3. Register the new context digrams.
        for position, c in enumerate(x.children, start=1):
            index.add(x, position, c)

    def _run_recount(self, grammar: Grammar, working: Node) -> Node:
        root_holder = [working]
        while True:
            index = TreeOccurrenceIndex.build(root_holder[0])
            best = index.best(self.kin)
            if best is None:
                break
            digram, _weight = best
            occurrences = index.occurrences(digram)
            if len(occurrences) < 2:
                break
            replacement = grammar.alphabet.fresh_nonterminal(
                digram.rank, RULE_PREFIX
            )
            for occurrence in occurrences:
                parent_node, child_index, child_node = occurrence
                x = replace_occurrence_in_tree(
                    parent_node, child_index, child_node, replacement
                )
                if parent_node is root_holder[0]:
                    root_holder[0] = x
            grammar.set_rule(replacement, digram_pattern(digram))
            self.stats.rounds += 1
            self.stats.rules_created += 1
            self.stats.replaced_occurrences += len(occurrences)
            self._record_size(grammar, root_holder[0])
        return root_holder[0]


def tree_repair(
    root: Node,
    alphabet: Alphabet,
    kin: int = DEFAULT_KIN,
    prune: bool = True,
    strategy: str = "incremental",
) -> Grammar:
    """Convenience wrapper: compress a tree with default settings."""
    return TreeRePair(kin=kin, prune=prune, strategy=strategy).compress(
        root, alphabet
    )
