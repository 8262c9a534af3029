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

from typing import TYPE_CHECKING, Container, Dict, List, Optional, Set, Tuple

from repro.grammar.derivation import inline_at
from repro.grammar.navigation import PathStep, resolve_preorder_path
from repro.grammar.slcf import Grammar
from repro.trees.node import Node
from repro.trees.symbols import Symbol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.grammar.index import GrammarIndex

__all__ = ["isolate", "isolate_many", "IsolationResult", "MultiIsolationResult"]


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
    segments: Optional[Dict[Symbol, List[int]]] = None,
    grammar_index: Optional["GrammarIndex"] = None,
    steps: Optional[List[PathStep]] = None,
    spine: Optional[Container[Symbol]] = None,
) -> IsolationResult:
    """Make the node at preorder ``index`` of ``valG(S)`` explicit.

    Mutates only one spine rule: the start rule, or -- when ``spine``
    names shard heads and the path passes through them -- the deepest
    shard on the path.  Returns the isolated node, which after this call
    is a terminal node whose subtree generates exactly the subtree of
    ``valG(S)`` rooted at the target.

    ``segments`` may be a precomputed ``parameter_segments`` table.  When a
    :class:`~repro.grammar.index.GrammarIndex` is passed instead, its lazy
    segment view is used, so nothing is rebuilt between updates.  ``steps``
    short-circuits path resolution entirely for callers that already ran
    :func:`resolve_preorder_path` (and have not mutated the grammar since).
    """
    if steps is None:
        if grammar_index is not None and segments is None:
            # The index's per-node subtree sizes resolve each descent
            # step in O(rule width); the segment walk below re-derives
            # subtree sizes by walking them.
            steps = grammar_index.resolve_preorder(index)
        else:
            steps = resolve_preorder_path(grammar, index, segments=segments)
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


class MultiIsolationResult:
    """Outcome of a multi-target isolation.

    ``nodes[i]`` is the explicit terminal node for the ``i``-th requested
    path (paths to the same target share one node) and ``rules[i]`` the
    head of the spine rule containing it; ``inlined_rules`` counts the
    rule applications performed over the whole union -- shared path
    prefixes are inlined exactly once.  ``roots`` maps every *mutated*
    spine rule to its (possibly replaced) right-hand-side root; the
    caller must install each via ``set_rule`` once its edits are applied
    (:func:`isolate_many` itself fires *no* observer notifications, so a
    batch of updates forms one mutation epoch per touched spine rule).
    With sharding, a burst of ``k`` clustered ops touches about
    ``k / width`` shards -- each of ``O(width)`` body -- instead of one
    unboundedly grown start RHS.

    ``mutated`` lists the spine rules an inline actually rewrote (a rule
    merely descended through stays clean); ``root`` is kept as the start
    rule's root for backward compatibility.
    """

    __slots__ = ("nodes", "inlined_rules", "rules", "roots", "mutated",
                 "root")

    def __init__(
        self,
        nodes: List[Node],
        inlined_rules: int,
        rules: List[Symbol],
        roots: Dict[Symbol, Node],
        mutated: Set[Symbol],
        root: Node,
    ) -> None:
        self.nodes = nodes
        self.inlined_rules = inlined_rules
        self.rules = rules
        self.roots = roots
        self.mutated = mutated
        self.root = root


def isolate_many(
    grammar: Grammar,
    paths: List[List[PathStep]],
    spine: Optional[Container[Symbol]] = None,
) -> MultiIsolationResult:
    """Make the targets of many derivation paths explicit in one pass.

    ``paths`` are derivation paths resolved against the *current* grammar
    (e.g. by :meth:`GrammarIndex.resolve_element` or
    :func:`resolve_preorder_path`) -- all of them before any mutation, so
    their steps reference live template nodes.  The union of the paths is
    replayed as a trie keyed on the referenced rule-template nodes: an
    "enter" step shared by several paths is inlined exactly **once** and
    every path below it continues through the same copy map.  This is how
    a batch of updates hitting nearby preorder indices shares the rule
    inlines of their common derivation prefix instead of re-isolating it
    per operation.  Steps entering a ``spine`` rule (a shard) are not
    inlined at all: every path through the shard continues inside its
    right-hand side, so the trie naturally groups the batch by shard.

    Sibling branches are independent even when one references a node
    inside another's argument subtree: :func:`inline_at` *moves* argument
    subtrees (it never copies them), so nodes referenced by other paths
    survive an adjacent inline by object identity.

    Unlike :func:`isolate`, no observer notifications are fired and no
    mutated rule is re-installed when its root is replaced -- the caller
    applies its edits against the returned ``roots`` and installs them
    with ``set_rule`` afterwards, producing one coherent mutation epoch
    per touched spine rule.
    """
    nodes: List[Optional[Node]] = [None] * len(paths)
    rules: List[Optional[Symbol]] = [None] * len(paths)
    # Every spine rule whose body the replay walked; a rule appears here
    # even when, in the end, only deeper shards were mutated -- the caller
    # filters by its own edits (see ``apply_isolated_batch``).
    roots: Dict[Symbol, Node] = {grammar.start: grammar.rhs(grammar.start)}
    mutated: Set[Symbol] = set()
    inlined = 0
    # Explicit stack of trie levels: (path indices at this level, depth,
    # copy map of the inline that produced this level -- None at the top
    # of a spine rule, where steps reference its RHS directly -- and the
    # spine rule being mutated).
    stack: List[
        Tuple[List[int], int, Optional[Dict[int, Node]], Symbol]
    ] = [(list(range(len(paths))), 0, None, grammar.start)]
    while stack:
        indices, depth, current, rule = stack.pop()
        # Group the paths by the template node their next step references:
        # identical targets collapse to one leaf, shared prefixes to one
        # branch (and hence one inline).
        branches: Dict[int, Tuple[PathStep, List[int]]] = {}
        for i in indices:
            step = paths[i][depth]
            node = step.node if current is None else current[id(step.node)]
            if not step.enters_rule:
                assert node.symbol.is_terminal
                nodes[i] = node
                rules[i] = rule
                continue
            entry = branches.get(id(step.node))
            if entry is None:
                branches[id(step.node)] = (step, [i])
            else:
                entry[1].append(i)
        for step, members in branches.values():
            node = step.node if current is None else current[id(step.node)]
            symbol = node.symbol
            if spine is not None and symbol in spine:
                # Enter the shard: all members continue on its RHS.
                if symbol not in roots:
                    roots[symbol] = grammar.rhs(symbol)
                stack.append((members, depth + 1, None, symbol))
                continue
            was_root = node is roots[rule]
            grammar.preserve_for_write(rule)
            new_root, copy_map = inline_at(grammar, node)
            if was_root:
                roots[rule] = new_root
            mutated.add(rule)
            inlined += 1
            stack.append((members, depth + 1, copy_map, rule))
    assert all(node is not None for node in nodes)
    return MultiIsolationResult(
        nodes, inlined, rules, roots, mutated, roots[grammar.start]
    )
