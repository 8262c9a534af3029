"""Derived grammar properties used throughout the compressor.

* ``references`` -- the paper's ``refG(Q)``: every ``Q``-labeled node in any
  right-hand side, with the rule it occurs in.
* ``usage`` -- how many times each nonterminal contributes to ``valG(S)``:
  ``usage(S) = 1`` and ``usage(Q) = sum over (R,n) in refG(Q) of usage(R)``.
* ``sl_order`` / ``anti_sl_order`` -- topological orders of the call DAG.
  ``Q`` before ``R`` in anti-SL order iff ``R`` (transitively) calls ``Q``,
  i.e. anti-SL order processes callees first (bottom-up).
* ``parameter_segments`` -- the paper's ``size(A,0..k)``: node counts of
  ``valG(A)`` before ``y1``, between consecutive parameters, and after
  ``yk``, in preorder (Section III-A); the basis of path isolation.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from repro.grammar.slcf import Grammar, GrammarError
from repro.trees.node import Node
from repro.trees.symbols import Symbol

__all__ = [
    "references",
    "reference_counts",
    "usage",
    "sl_order",
    "anti_sl_order",
    "parameter_segments",
    "generated_node_count",
    "generated_size_of_subtree",
    "dead_nonterminals",
    "collect_garbage",
]


def references(grammar: Grammar) -> Dict[Symbol, List[Tuple[Symbol, Node]]]:
    """``refG``: nonterminal -> list of ``(containing rule, node)`` pairs.

    Every rule head gets an entry, possibly empty.
    """
    refs: Dict[Symbol, List[Tuple[Symbol, Node]]] = {
        head: [] for head in grammar.rules
    }
    for head, rhs in grammar.rules.items():
        stack = [rhs]
        while stack:
            node = stack.pop()
            if node.symbol.is_nonterminal:
                refs[node.symbol].append((head, node))
            stack.extend(node.children)
    return refs


def reference_counts(grammar: Grammar) -> Dict[Symbol, int]:
    """``|refG(Q)|`` for every rule head."""
    counts: Dict[Symbol, int] = {head: 0 for head in grammar.rules}
    for rhs in grammar.rules.values():
        stack = [rhs]
        while stack:
            node = stack.pop()
            if node.symbol.is_nonterminal:
                counts[node.symbol] += 1
            stack.extend(node.children)
    return counts


def sl_order(grammar: Grammar) -> List[Symbol]:
    """Topological order with callers before callees (start-ish first)."""
    callees: Dict[Symbol, List[Symbol]] = {}
    for head, rhs in grammar.rules.items():
        seen: List[Symbol] = []
        seen_set = set()
        stack = [rhs]
        while stack:
            node = stack.pop()
            symbol = node.symbol
            if symbol.is_nonterminal and symbol not in seen_set:
                seen_set.add(symbol)
                seen.append(symbol)
            stack.extend(node.children)
        callees[head] = seen

    order: List[Symbol] = []
    state: Dict[Symbol, int] = {}  # 0 visiting, 1 done

    for origin in grammar.rules:
        if origin in state:
            continue
        stack: List[Tuple[Symbol, int]] = [(origin, 0)]
        state[origin] = 0
        while stack:
            head, child_index = stack[-1]
            succ = callees[head]
            advanced = False
            while child_index < len(succ):
                nxt = succ[child_index]
                child_index += 1
                status = state.get(nxt)
                if status == 0:
                    raise GrammarError(
                        f"grammar is recursive: cycle through {nxt!r}"
                    )
                if status is None:
                    stack[-1] = (head, child_index)
                    state[nxt] = 0
                    stack.append((nxt, 0))
                    advanced = True
                    break
            if not advanced:
                state[head] = 1
                order.append(head)
                stack.pop()
    order.reverse()
    return order


def anti_sl_order(grammar: Grammar) -> List[Symbol]:
    """Bottom-up order: callees before callers (RETRIEVEOCCS order)."""
    order = sl_order(grammar)
    order.reverse()
    return order


def usage(grammar: Grammar) -> Dict[Symbol, int]:
    """``usageG``: how often each rule participates in generating ``valG(S)``.

    Rules unreachable from the start symbol get usage 0.
    """
    result: Dict[Symbol, int] = {head: 0 for head in grammar.rules}
    result[grammar.start] = 1
    for head in sl_order(grammar):
        weight = result[head]
        if weight == 0:
            continue
        stack = [grammar.rules[head]]
        while stack:
            node = stack.pop()
            if node.symbol.is_nonterminal:
                result[node.symbol] += weight
            stack.extend(node.children)
    return result


def parameter_segments(grammar: Grammar) -> Dict[Symbol, List[int]]:
    """``size(A, 0..k)`` for every rule head ``A`` of rank ``k``.

    Entry ``segments[A][i]`` is the number of nodes of ``valG(A)`` strictly
    between parameter ``yi`` and ``y(i+1)`` in preorder (with the usual
    boundary conventions); parameters themselves are not counted.  The sum
    of the segments is therefore ``|valG(A)|`` in nodes.
    """
    segments: Dict[Symbol, List[int]] = {}
    for head in anti_sl_order(grammar):
        segments[head] = _segments_of_rhs(grammar.rules[head], head, segments)
    return segments


def _segments_of_rhs(
    rhs: Node,
    head: Symbol,
    segments: Dict[Symbol, List[int]],
) -> List[int]:
    result: List[int] = []
    current = 0
    # Stack items: a Node still to visit, or an int to add to the running
    # segment (a callee's trailing segment after one of its arguments).
    stack: List[Union[Node, int]] = [rhs]
    while stack:
        item = stack.pop()
        if isinstance(item, int):
            current += item
            continue
        symbol = item.symbol
        if symbol.is_parameter:
            result.append(current)
            current = 0
        elif symbol.is_terminal:
            current += 1
            stack.extend(reversed(item.children))
        else:
            callee = segments.get(symbol)
            if callee is None:
                raise GrammarError(
                    f"rule {head!r} uses {symbol!r} before it is defined "
                    "(not in anti-SL order?)"
                )
            current += callee[0]
            interleaved: List[Union[Node, int]] = []
            for index, child in enumerate(item.children, start=1):
                interleaved.append(child)
                interleaved.append(callee[index])
            stack.extend(reversed(interleaved))
    result.append(current)
    if len(result) != head.rank + 1:
        raise GrammarError(
            f"rule {head!r}: found {len(result) - 1} parameters, "
            f"rank is {head.rank}"
        )
    return result


def generated_node_count(grammar: Grammar) -> int:
    """``|valG(S)|`` in nodes, computed without decompression."""
    segments = parameter_segments(grammar)
    return sum(segments[grammar.start])


def generated_size_of_subtree(
    node: Node,
    segments: Dict[Symbol, List[int]],
) -> int:
    """Nodes of the tree a RHS subtree generates (parameters count as 0).

    Parameters contribute nothing: the caller is responsible for whatever
    gets substituted.  Used by path isolation to steer towards a target
    preorder index.
    """
    total = 0
    stack = [node]
    while stack:
        current = stack.pop()
        symbol = current.symbol
        if symbol.is_parameter:
            continue
        if symbol.is_terminal:
            total += 1
        else:
            total += sum(segments[symbol])
        stack.extend(current.children)
    return total


def dead_nonterminals(grammar: Grammar) -> List[Symbol]:
    """Rule heads unreachable from the start rule -- exactly the heads
    of :func:`usage` 0, found by one mark-from-start walk: each
    reachable body is visited once, unreachable ones not at all."""
    rules = grammar.rules
    reached = {grammar.start}
    stack = [rules[grammar.start]]
    while stack:
        node = stack.pop()
        symbol = node.symbol
        if symbol.is_nonterminal and symbol not in reached:
            reached.add(symbol)
            stack.append(rules[symbol])
        stack.extend(node.children)
    return [head for head in rules if head not in reached]


def collect_garbage(grammar: Grammar) -> int:
    """Drop rules unreachable from the start symbol; return how many."""
    dead = dead_nonterminals(grammar)
    for head in dead:
        grammar.remove_rule(head)
    return len(dead)
