"""``TREECHILD`` / ``TREEPARENT`` resolution on a grammar (Algorithms 2, 3).

A digram occurrence *generator* is any non-root, non-parameter node of a
right-hand side.  Its *tree child* is found by descending through rule
roots while they are (transparent) nonterminals; its *tree parent* by
ascending, jumping from a nonterminal's ``i``-th child slot to the parent
of parameter ``yi`` inside that nonterminal's rule.

"Transparent" means: a nonterminal of the *input* grammar, through which
digrams resolve.  Nonterminals freshly introduced for digrams during the
current GrammarRePair run are *opaque* -- they act as terminals (Algorithm
1 adds ``X`` to ``F``).

*Barrier* nonterminals (the spine shard heads of
:class:`repro.grammar.sharding.ShardManager`) are likewise not resolved
through: a shard reference pins down where a shard body is spliced into
the document, and replacement must never move or duplicate it.  Unlike
opaque rules, barrier rules' *bodies* are ordinary compression material
-- only the reference edge is out of bounds, and the census skips the
generators incident to it (see :func:`repro.core.retrieve.retrieve_occurrences`
and :class:`repro.core.occurrence_index.GrammarOccurrenceIndex`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.grammar.slcf import Grammar
from repro.trees.node import Node
from repro.trees.symbols import Symbol

__all__ = ["Resolver"]


class Resolver:
    """Cached resolution walks over one grammar snapshot.

    The caches (parameter locations, rule-root lookups, walk tails) are
    valid as long as the grammar's rules are not mutated; build a fresh
    resolver per read-only pass (one census, or one occurrence-index
    round after its garbage collection).

    A walk's first hop depends on the generator; everything after it
    depends only on where it entered: a descent on the transparent
    symbol it entered, an ascent on the transparent parent symbol and
    the slot it left.  Those tails are memoized, so within one pass each
    is walked once however many generators share it.  Every call still
    returns fresh path lists: the callers store them.
    """

    def __init__(
        self,
        grammar: Grammar,
        opaque: Optional[Set[Symbol]] = None,
        barriers: Optional[Set[Symbol]] = None,
    ):
        self.grammar = grammar
        self.opaque: Set[Symbol] = opaque if opaque is not None else set()
        self.barriers: Set[Symbol] = (
            barriers if barriers is not None else set()
        )
        self._param_nodes: Dict[Symbol, Dict[int, Node]] = {}
        # Built on first rule_of_node call: resolution walks never need
        # it, and per-round resolver rebuilds should not pay for it.
        self._rule_of_root: Optional[Dict[int, Symbol]] = None
        # symbol -> (resolved node, path below the entered root).
        self._descents: Dict[Symbol, Tuple[Node, List[Node]]] = {}
        # (symbol, slot) -> (parent node, child index, path above it).
        self._ascents: Dict[Tuple[Symbol, int],
                            Tuple[Node, int, List[Node]]] = {}

    # ------------------------------------------------------------------
    def is_transparent(self, symbol: Symbol) -> bool:
        """Digrams resolve *through* transparent nonterminals."""
        return (symbol.is_nonterminal and symbol not in self.opaque
                and symbol not in self.barriers)

    def rule_of_node(self, node: Node) -> Symbol:
        """The rule head whose right-hand side contains ``node``."""
        current = node
        while current.parent is not None:
            current = current.parent
        if self._rule_of_root is None:
            self._rule_of_root = {
                id(rhs): head for head, rhs in self.grammar.rules.items()
            }
        head = self._rule_of_root.get(id(current))
        if head is None:
            raise ValueError("node is not part of any rule of this grammar")
        return head

    def _param_node(self, head: Symbol, index: int) -> Node:
        per_rule = self._param_nodes.get(head)
        if per_rule is None:
            per_rule = {}
            stack = [self.grammar.rhs(head)]
            while stack:
                node = stack.pop()
                if node.symbol.is_parameter:
                    per_rule[node.symbol.param_index] = node
                stack.extend(node.children)
            self._param_nodes[head] = per_rule
        return per_rule[index]

    # ------------------------------------------------------------------
    def tree_child(self, node: Node) -> Tuple[Node, List[Node]]:
        """Algorithm 2: descend through rule roots to the explicit child.

        Returns ``(resolved node, visited)`` where ``visited`` lists the
        transparent nonterminal nodes that would have to be inlined to make
        the child explicit where the walk started (the descent path).
        """
        symbol = node.symbol
        if not self.is_transparent(symbol):
            return node, []
        tail = self._descents.get(symbol)
        if tail is None:
            visited: List[Node] = []
            current = self.grammar.rhs(symbol)
            while self.is_transparent(current.symbol):
                visited.append(current)
                current = self.grammar.rhs(current.symbol)
            tail = self._descents[symbol] = (current, visited)
        return tail[0], [node, *tail[1]]

    def tree_parent(self, node: Node) -> Tuple[Node, int, List[Node]]:
        """Algorithm 3: ascend to the explicit parent.

        ``node`` must not be the root of its rule.  Returns
        ``(parent node, child index, visited)`` with ``visited`` the
        transparent nonterminal nodes on the ascent (each is the in-rule
        parent through which the walk jumped into a callee rule).
        """
        parent = node.parent
        if parent is None:
            raise ValueError("tree_parent called on a rule root")
        index = node.child_index()
        if not self.is_transparent(parent.symbol):
            return parent, index, []
        key = (parent.symbol, index)
        tail = self._ascents.get(key)
        if tail is None:
            visited: List[Node] = []
            current = self._param_node(parent.symbol, index)
            while True:
                above = current.parent
                if above is None:
                    raise ValueError("tree_parent resolved to a rule root")
                slot = current.child_index()
                if not self.is_transparent(above.symbol):
                    break
                visited.append(above)
                current = self._param_node(above.symbol, slot)
            tail = self._ascents[key] = (above, slot, visited)
        return tail[0], tail[1], [parent, *tail[2]]
