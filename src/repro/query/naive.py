"""Naive label-path evaluation on a decompressed tree.

This is the correctness oracle the grammar-native engine is
property-tested against -- the "decompress-then-walk" baseline: index
the plain :class:`~repro.trees.unranked.XmlNode` tree once (document
order, children lists, subtree extents), then evaluate the path
set-at-a-time with plain list scans.  Semantics are identical to
:func:`repro.query.engine.select` -- which runs the whole path as one
automaton walk instead -- both being defined over document-order element
indices.
"""

from __future__ import annotations

from typing import Dict, List

from repro.query.parser import CHILD, LabelPath, parse_path
from repro.trees.unranked import XmlNode

__all__ = ["naive_select", "naive_count"]

_VIRTUAL_ROOT = -1


def _index_tree(root: XmlNode):
    """One preorder pass: tags, children index lists, subtree extents."""
    tags: List[str] = []
    children: List[List[int]] = []
    extents: List[int] = []
    order: List[XmlNode] = []
    positions: Dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        positions[id(node)] = len(order)
        order.append(node)
        tags.append(node.tag)
        children.append([])
        extents.append(0)
        stack.extend(reversed(node.children))
    for position, node in enumerate(order):
        children[position] = [
            positions[id(child)] for child in node.children
        ]
    # Extents bottom-up: reversed preorder sees children before parents.
    for position in reversed(range(len(order))):
        extents[position] = 1 + sum(
            extents[child] for child in children[position]
        )
    return tags, children, extents


def naive_select(root: XmlNode, path: "LabelPath | str") -> List[int]:
    """Evaluate a label path on a plain tree; sorted element indices."""
    parsed = parse_path(path)
    tags, children, extents = _index_tree(root)
    contexts: List[int] = [_VIRTUAL_ROOT]
    for step in parsed:
        seen: set = set()
        for context in contexts:
            if step.axis == CHILD:
                candidates = [0] if context == _VIRTUAL_ROOT \
                    else children[context]
            elif context == _VIRTUAL_ROOT:
                candidates = range(len(tags))
            else:
                candidates = range(context + 1, context + extents[context])
            matches = [
                index
                for index in candidates
                if step.label is None or tags[index] == step.label
            ]
            if step.position is not None:
                matches = matches[step.position - 1:step.position]
            seen.update(matches)
        if not seen:
            return []
        contexts = sorted(seen)
    return contexts


def naive_count(root: XmlNode, path: "LabelPath | str") -> int:
    return len(naive_select(root, path))
