"""Navigation over the generated tree without decompression.

A grammar of size ``g`` may generate a tree of size ``2^g``; these helpers
iterate or probe ``valG(S)`` directly on the grammar:

* :func:`stream_preorder` -- the symbols of ``valG(S)`` in preorder, using a
  closure environment per nonterminal application (constant work per node),
* :func:`generates_same_tree` -- equality of two grammars' generated trees,
* :func:`grammar_generates_tree` -- equality against a plain tree,
* :func:`resolve_preorder_path` -- the derivation path to the node with a
  given preorder index, driven by the ``size(A,i)`` segments; this is the
  navigational core of path isolation (Section III-A).

Repeated-query workloads should not rebuild the segment tables per call:
:class:`repro.grammar.index.GrammarIndex` caches them (plus element-count
variants and per-node subtree sizes) persistently, invalidates per rule
through the grammar's observer channel, and serves the same answers on
its flat kernel (:mod:`repro.grammar.kernel`).  The functions here share
no logic with it: they are the streaming baseline and the correctness
oracle the index and the kernel are property-tested against.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Dict, Iterator, List, Optional, Tuple

from repro.grammar.properties import (
    generated_size_of_subtree,
    parameter_segments,
)
from repro.grammar.slcf import Grammar
from repro.trees.node import Node
from repro.trees.symbols import Symbol

__all__ = [
    "stream_preorder",
    "stream_elements",
    "generates_same_tree",
    "grammar_generates_tree",
    "resolve_preorder_path",
    "PathStep",
]


# An environment is a tuple of (node, env) closures, one per parameter of
# the nonterminal being expanded.
_Env = Tuple  # recursive type: Tuple[Tuple[Node, "_Env"], ...]


def stream_preorder(grammar: Grammar) -> Iterator[Symbol]:
    """Yield the terminal symbols of ``valG(S)`` in preorder.

    Memory use is bounded by the depth of the generated tree (times rule
    size); nothing is materialized.
    """
    empty: _Env = ()
    stack: List[Tuple[Node, _Env]] = [(grammar.rhs(grammar.start), empty)]
    while stack:
        node, env = stack.pop()
        symbol = node.symbol
        if symbol.is_terminal:
            yield symbol
            for child in reversed(node.children):
                stack.append((child, env))
        elif symbol.is_nonterminal:
            inner_env: _Env = tuple((child, env) for child in node.children)
            stack.append((grammar.rhs(symbol), inner_env))
        else:  # parameter: continue with the bound argument
            bound_node, bound_env = env[symbol.param_index - 1]
            stack.append((bound_node, bound_env))


def stream_elements(
    grammar: Grammar,
) -> Iterator[Tuple[int, str, Optional[int], int]]:
    """Stream ``(element_index, tag, parent_index, depth)`` in document order.

    The grammar must generate a first-child/next-sibling binary encoding
    (rank-2 element terminals, rank-0 ``⊥``); any other terminal raises
    :class:`ValueError`.  Parent/depth bookkeeping rides the walk itself:
    descending into an element's first-child slot makes that element the
    current parent (depth + 1), descending into the next-sibling slot keeps
    the parent -- the streaming ``O(N)`` ground truth the indexed axis
    primitives (:meth:`repro.grammar.index.GrammarIndex.parent_of` et al.)
    and the query engine are property-tested against, and the stream the
    storage scrub audits the indexes with.
    """
    index = 0
    # Items: (node, env, parent element index, depth); env as in
    # stream_preorder.
    stack: List[Tuple[Node, _Env, Optional[int], int]] = [
        (grammar.rhs(grammar.start), (), None, 0)
    ]
    while stack:
        node, env, parent, depth = stack.pop()
        symbol = node.symbol
        if symbol.is_terminal:
            if symbol.is_bottom:
                continue
            if symbol.rank != 2:
                raise ValueError(
                    f"terminal {symbol!r} is not a binary-encoded element "
                    "(rank 2) -- stream_elements requires an FCNS encoding"
                )
            yield index, symbol.name, parent, depth
            # Next sibling first (LIFO): the first-child subtree streams
            # before the sibling chain, i.e. in document order.
            stack.append((node.children[1], env, parent, depth))
            stack.append((node.children[0], env, index, depth + 1))
            index += 1
        elif symbol.is_nonterminal:
            inner_env: _Env = tuple((child, env) for child in node.children)
            stack.append((grammar.rhs(symbol), inner_env, parent, depth))
        else:  # parameter: continue with the bound argument
            bound_node, bound_env = env[symbol.param_index - 1]
            stack.append((bound_node, bound_env, parent, depth))


def generates_same_tree(a: Grammar, b: Grammar) -> bool:
    """True iff ``val_a(S_a)`` equals ``val_b(S_b)``.

    Symbols are compared by ``(name, rank)`` so grammars over different
    alphabet objects compare correctly.  Because ranks determine tree shape,
    equal preorder streams imply equal trees.
    """
    sentinel = object()
    for x, y in zip_longest(stream_preorder(a), stream_preorder(b), fillvalue=sentinel):
        if x is sentinel or y is sentinel:
            return False
        if x.name != y.name or x.rank != y.rank:
            return False
    return True


def grammar_generates_tree(grammar: Grammar, tree: Node) -> bool:
    """True iff ``valG(S)`` equals the given plain tree."""
    sentinel = object()

    def tree_symbols() -> Iterator[Symbol]:
        stack = [tree]
        while stack:
            node = stack.pop()
            yield node.symbol
            stack.extend(reversed(node.children))

    for x, y in zip_longest(stream_preorder(grammar), tree_symbols(), fillvalue=sentinel):
        if x is sentinel or y is sentinel:
            return False
        if x.name != y.name or x.rank != y.rank:
            return False
    return True


class PathStep:
    """One step of a derivation path towards a target node.

    ``node`` is a node within the rule identified by the previous step (or
    the start rule).  If ``enters_rule`` is set, the target lies inside the
    right-hand side of ``node``'s nonterminal and path isolation must inline
    here; otherwise the target *is* this (terminal) node.
    """

    __slots__ = ("node", "enters_rule")

    def __init__(self, node: Node, enters_rule: bool) -> None:
        self.node = node
        self.enters_rule = enters_rule

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "enter" if self.enters_rule else "target"
        return f"<PathStep {kind} {self.node.symbol!r}>"


def resolve_preorder_path(
    grammar: Grammar,
    index: int,
) -> List[PathStep]:
    """Locate the node of ``valG(S)`` with 0-based preorder ``index``.

    The result alternates between in-rule descents and rule entries: every
    :class:`PathStep` with ``enters_rule=True`` names a nonterminal node
    whose rule generates the target, and the walk continues inside that
    rule's right-hand side.  The final step is the terminal node of some
    rule that *generates* the target (it corresponds to the target in the
    sense of Section II's marking procedure).

    This performs no mutation -- path isolation replays the steps with
    inlining; tests replay them against a decompressed tree.
    """
    segments = parameter_segments(grammar)
    total = sum(segments[grammar.start])
    if index < 0 or index >= total:
        raise IndexError(
            f"preorder index {index} out of range for a tree of {total} nodes"
        )

    steps: List[PathStep] = []
    node = grammar.rhs(grammar.start)
    remaining = index
    # Bindings for parameters of the rule currently walked: param index ->
    # (node in the outer rule, its bindings).  Mirrors stream_preorder.
    bindings: Tuple = ()

    while True:
        symbol = node.symbol
        if symbol.is_parameter:
            node, bindings = bindings[symbol.param_index - 1]
            continue

        if symbol.is_terminal:
            if remaining == 0:
                steps.append(PathStep(node, enters_rule=False))
                return steps
            remaining -= 1  # the terminal itself
            for child in node.children:
                child_size = generated_size_of_subtree_with_env(
                    child, segments, bindings
                )
                if remaining < child_size:
                    node = child
                    break
                remaining -= child_size
            else:  # pragma: no cover - would mean inconsistent sizes
                raise AssertionError("offset beyond subtree")
            continue

        # Nonterminal application: its virtual preorder interleaves the rule
        # body's segments with the argument subtrees:
        #   seg0, arg1, seg1, arg2, ..., argk, segk.
        # If the target falls inside an argument we descend directly (no
        # inlining will be needed there); if it falls on a body segment we
        # record an "enter" step.  Entering keeps ``remaining`` unchanged:
        # walking the rule body with the bindings reproduces exactly the
        # interleaved sequence.
        rule_segments = segments[symbol]
        descend_to: Optional[Node] = None
        preceding = rule_segments[0]
        if remaining >= preceding:
            for child_pos, child in enumerate(node.children, start=1):
                child_size = generated_size_of_subtree_with_env(
                    child, segments, bindings
                )
                if remaining < preceding + child_size:
                    remaining -= preceding
                    descend_to = child
                    break
                preceding += child_size + rule_segments[child_pos]
                if remaining < preceding:
                    break  # a body segment after this argument: enter
        if descend_to is not None:
            node = descend_to
            continue
        steps.append(PathStep(node, enters_rule=True))
        bindings = tuple((child, bindings) for child in node.children)
        node = grammar.rhs(symbol)


def generated_size_of_subtree_with_env(
    node: Node,
    segments: Dict[Symbol, List[int]],
    bindings: Tuple,
) -> int:
    """Generated node count of a RHS subtree with parameters bound.

    Unlike :func:`repro.grammar.properties.generated_size_of_subtree`,
    parameters contribute the size of their bound argument (recursively
    through the binding environments).
    """
    total = 0
    stack: List[Tuple[Node, Tuple]] = [(node, bindings)]
    while stack:
        current, env = stack.pop()
        symbol = current.symbol
        if symbol.is_parameter:
            stack.append(env[symbol.param_index - 1])
            continue
        if symbol.is_terminal:
            total += 1
        else:
            total += sum(segments[symbol])
        for child in current.children:
            stack.append((child, env))
    return total
