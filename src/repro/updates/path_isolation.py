"""Path isolation (Section III-A), shard-aware.

To update the node at preorder index ``u`` of ``valG(S)``, the grammar is
partially unfolded until a terminal node *uniquely representing* ``u`` sits
in a mutable rule's right-hand side.  The derivation path is found with the
precomputed ``size(A, i)`` segments (no decompression), then replayed with
one inlining per entered rule -- which yields Lemma 1:
``|iso(G, u)| <= 2 * |G|``.

Without sharding, the mutable rule is the start rule and only it grows.
With a sharded spine (``spine=`` carries the shard heads of a
:class:`repro.grammar.sharding.ShardManager`), the replay *descends
through* shard rules instead of inlining them: a shard is referenced
exactly once, so making the target explicit inside the deepest shard on
the path is just as unique -- and only that shard's ``O(width)`` body is
rewritten, not an unboundedly grown start RHS.  Every shared
(multi-reference) rule entered below the deepest shard is inlined into
that shard's body exactly as before.
"""

from __future__ import annotations

from typing import Container, Dict, List, Optional

from repro.grammar.derivation import inline_at
from repro.grammar.navigation import PathStep, resolve_preorder_path
from repro.grammar.slcf import Grammar
from repro.trees.node import Node
from repro.trees.symbols import Symbol

__all__ = ["isolate", "isolate_many", "IsolationResult"]


class IsolationResult:
    """Outcome of a path isolation.

    ``node`` is the now-explicit terminal node corresponding to the
    requested preorder index; ``rule`` the head of the rule whose
    right-hand side contains it -- the start rule, or the deepest shard
    the derivation path descended into; ``inlined_rules`` counts the rule
    applications performed (at most one per rule, Lemma 1).
    """

    __slots__ = ("node", "inlined_rules", "rule")

    def __init__(self, node: Node, inlined_rules: int, rule: Symbol) -> None:
        self.node = node
        self.inlined_rules = inlined_rules
        self.rule = rule


def isolate(
    grammar: Grammar,
    index: int,
    steps: Optional[List[PathStep]] = None,
    spine: Optional[Container[Symbol]] = None,
) -> IsolationResult:
    """Make the node at preorder ``index`` of ``valG(S)`` explicit.

    Mutates only one spine rule: the start rule, or -- when ``spine``
    names shard heads and the path passes through them -- the deepest
    shard on the path.  Returns the isolated node, which after this call
    is a terminal node whose subtree generates exactly the subtree of
    ``valG(S)`` rooted at the target.

    ``steps`` is the derivation path to the target when the caller
    already descended to it (and has not mutated the grammar since): a
    document's writes pass the one element descent of its
    :class:`~repro.grammar.index.GrammarIndex`.  Without it the path is
    resolved by the reference :func:`resolve_preorder_path`, which
    rebuilds the segment tables.
    """
    if steps is None:
        steps = resolve_preorder_path(grammar, index)
    inlined = 0
    rule = grammar.start
    # The inlines nest -- each lands in the body copy the one before it
    # made -- so together they are one local rewrite of ``rule``: the
    # first application inlined gave way to the subtree at ``replacement``.
    replaced: Optional[Node] = None
    replacement: Optional[Node] = None
    # Replay: each "enter" step names a node inside the *rule template* of
    # the previously entered nonterminal; inlining copies templates, so the
    # concrete node to inline at is tracked through the copy maps.  Shard
    # entries reset the tracking: the walk continues directly on the
    # shard's own (mutable) right-hand side, no copy made.
    current: Optional[Dict[int, Node]] = None  # template id -> concrete node
    concrete_target: Optional[Node] = None
    for step in steps:
        node = step.node if current is None else current[id(step.node)]
        if not step.enters_rule:
            concrete_target = node
            break
        symbol = node.symbol
        if spine is not None and symbol in spine:
            # Descend into the shard instead of inlining it: the shard
            # is referenced exactly once, so its body is as unique a
            # place for the target as the start rule is.  All shard
            # entries precede all inlines on a resolved path (shared
            # rule bodies never reference shards), so the copy-map reset
            # is safe.
            rule = symbol
            current = None
            continue
        grammar.preserve_for_write(rule)
        new_root, current = inline_at(grammar, node)
        if replaced is None:
            replaced, replacement = node, new_root
        elif node is replacement:
            replacement = new_root  # the body copy's root was the next call
        inlined += 1
    assert concrete_target is not None
    assert concrete_target.symbol.is_terminal
    if replaced is not None:
        # Inlining splices nodes in place, bypassing set_rule: tell the
        # registered indexes where (this also installs the replacement
        # when the first application was the RHS root).
        grammar.notify_rule_spliced(rule, replaced, replacement)
    return IsolationResult(concrete_target, inlined, rule)


def isolate_many(
    grammar: Grammar,
    indexes: List[int],
    spine: Optional[Container[Symbol]] = None,
) -> List[IsolationResult]:
    """Isolate several preorder indices, one :func:`isolate` after another.

    Isolation leaves the derived tree unchanged, so every index stays
    valid; each is resolved against the grammar the previous isolations
    left.  Updates isolate one target per operation; this loop remains
    for callers that bind the name.
    """
    return [isolate(grammar, index, spine=spine)
            for index in indexes]
