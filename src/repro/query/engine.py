"""Label-path evaluation directly on the grammar.

The evaluator is set-at-a-time: a context set of document-order element
indices is mapped through one :class:`~repro.query.parser.QueryStep` at a
time.  Child-axis steps ride the :class:`~repro.grammar.index.GrammarIndex`
navigation primitives (``children``/``tag_of``, one ``O(depth·rule-width)``
descent each); descendant-axis steps ride :func:`iter_matching_elements`,
a single derivation walk that skips a whole RHS/derivation subtree in O(1)
when

* it lies entirely outside the requested element range (structural index's
  cached subtree sizes), or
* its census for the queried label is zero
  (:class:`~repro.query.label_index.LabelIndex` count tables) --

so a selective query touches ``O(matches · depth)`` derivation nodes
instead of the ``O(N)`` elements a decompress-then-walk pays, which is the
whole point of querying in the compressed domain.

:func:`extract_subtree` serializes one element's subtree by *partial
derivation*: the binary-preorder window covering the element and its
first-child subtree is streamed off the grammar (again skipping derivation
subtrees before the window in O(1)), rebuilt into a ranked tree, and
decoded -- no full decompression, cost ``O(depth · rule-width + output)``.
"""

from __future__ import annotations

import threading
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

from repro.grammar.index import GrammarIndex, check_element_index
from repro.grammar.kernel import kernel_stream_preorder
from repro.query.label_index import LabelIndex
from repro.query.parser import CHILD, LabelPath, QueryStep, parse_path
from repro.trees.binary import decode_binary
from repro.trees.node import Node
from repro.trees.symbols import Symbol
from repro.trees.unranked import XmlNode

__all__ = [
    "select",
    "count_matches",
    "iter_matching_elements",
    "extract_subtree",
    "reset_prune_counter",
    "read_prune_counter",
]

#: Per-thread census-prune accounting for the observability layer: the
#: facade resets it before a query's walk and reads it after, feeding
#: the ``repro_query_pruned_subtrees_total`` counter.  Thread-local so
#: concurrent snapshot readers never see each other's prunes; the walk
#: itself accumulates into a local int and flushes once per generator
#: close, keeping the hot loop free of thread-local traffic.
_PRUNE_STATS = threading.local()


def reset_prune_counter() -> None:
    """Zero this thread's pruned-subtree count."""
    _PRUNE_STATS.pruned = 0


def read_prune_counter() -> int:
    """Derivation subtrees census-pruned on this thread since the reset."""
    return getattr(_PRUNE_STATS, "pruned", 0)

#: The virtual context above the document root: XPath's root node.  A
#: child step from here reaches element 0; a descendant step reaches every
#: element.
_VIRTUAL_ROOT = -1


# ----------------------------------------------------------------------
# pruned derivation walks
# ----------------------------------------------------------------------
def iter_matching_elements(
    gindex: GrammarIndex,
    lindex: Optional[LabelIndex],
    lo: int,
    hi: Optional[int],
    label: Optional[str] = None,
) -> Iterator[int]:
    """Element indices in ``[lo, hi)`` whose tag equals ``label``.

    ``label=None`` matches every element (then ``lindex`` may be ``None``).
    One preorder walk of the derivation over the per-rule
    :class:`~repro.grammar.kernel.RulePack` arrays; any subtree
    generating only elements before ``lo`` -- or none of the queried
    label -- is skipped in O(1) via the cached count tables, and the walk
    stops at the first subtree starting at or past ``hi``.
    """
    if label is not None and lindex is None:
        raise ValueError("a label test needs a LabelIndex")
    total = gindex.element_count
    if hi is None or hi > total:
        hi = total
    if lo >= hi:
        return
    # Stack items are ``(pack, pos, env, lc)`` with ``lc`` the pack's
    # per-position label-count list (``None`` when every element matches)
    # -- fetched once per rule entry, not per node.  Hop markers are
    # ``(None, skipped, None, None)``; env entries ``(pack, pos, env,
    # elements, matches, lc)`` with the counts precomputed at binding
    # time so parameter lookups stay O(1).
    kernel = gindex.kernel
    position = 0
    packs = kernel._packs
    root = kernel.pack(gindex.grammar.start)
    root_lc = root.label_counts(lindex, label) if label is not None else None
    # Consecutive stack items overwhelmingly share a pack (children are
    # pushed together), so the unpacked ``pack.walk`` columns are cached
    # across iterations and refreshed only when the popped pack changes.
    # ``bodies`` (the pack's zero-hop memo for this label) rides along,
    # with a walk-local cache so re-entering a pack after a callee
    # detour is a single dict probe rather than a node-table check.
    stack = [(root, 0, (), root_lc)]
    cur = None
    bodies: Optional[dict] = None
    hop_segs: dict = {}
    bodies_of: dict = {}
    pruned = 0
    try:
        while stack:
            pack, pos, env, lc = stack.pop()
            if pack is not cur:
                if pack is None:
                    position += pos  # a pre-counted body-segment hop
                    continue
                cur = pack
                (kind, sym, rank, span, _nn, nelems, all_params, _no,
                 sym_objs, sym_names, _steps) = pack.walk
                hop_segs = pack.hop_segs
                if label is not None:
                    bodies = bodies_of.get(pack)
                    if bodies is None:
                        bodies = pack.label_hop(lindex, label)[1]
                        bodies_of[pack] = bodies
            k = kind[pos]
            if k == 3:
                b = env[sym[pos] - 1]
                stack.append((b[0], b[1], b[2], b[5]))
                continue
            elems = nelems[pos]
            params = all_params[pos]
            if label is None:
                if params:
                    for p in params:
                        elems += env[p - 1][3]
                matches = elems
            else:
                matches = lc[pos]
                if params:
                    for p in params:
                        b = env[p - 1]
                        elems += b[3]
                        matches += b[4]
            if position + elems <= lo:
                position += elems  # entirely before the window
                continue
            if position >= hi:
                return  # preorder: everything later starts further right
            if matches == 0:
                position += elems  # census prune: nothing inside
                pruned += 1
                continue
            if k <= 1:
                if k == 1:
                    if position >= lo and (
                        label is None or sym_names[pos] == label
                    ):
                        yield position
                    position += 1
                r = rank[pos]
                if r == 2:
                    child = pos + 1
                    stack.append((pack, child + span[child], env, lc))
                    stack.append((pack, child, env, lc))
                elif r == 1:
                    stack.append((pack, pos + 1, env, lc))
                elif r:
                    child = pos + 1
                    kids = []
                    for _ in range(r):
                        kids.append(child)
                        child += span[child]
                    for c in reversed(kids):
                        stack.append((pack, c, env, lc))
                continue
            sym_obj = sym_objs[pos]
            if label is not None:
                body = bodies.get(pos)
                if body is None:
                    body = lindex.rule_label_count(sym_obj, label)
                    bodies[pos] = body
                if body == 0:
                    # Zero-census application: every match below it
                    # arrives through its arguments, so hop over the
                    # whole body via the cached element segments
                    # (virtual preorder: seg0, arg1, seg1, ..., argk,
                    # segk) and visit only the argument subtrees --
                    # deliberately *without* packing the callee, which
                    # the walk never enters.  This is what keeps a deep
                    # nested-application chain (the shape update traffic
                    # leaves sibling lists in) from being re-walked link
                    # by link.  Segments and child layout are memoised per
                    # position (both structural, so pack-versioned);
                    # the leading segment is added inline instead of
                    # via a hop marker.
                    pruned += 1
                    h = hop_segs.get(pos)
                    if h is None:
                        segments = gindex.element_segments(sym_obj)
                        kids = []
                        child = pos + 1
                        for _ in range(rank[pos]):
                            kids.append(child)
                            child += span[child]
                        h = (segments, kids)
                        hop_segs[pos] = h
                    segments, kids = h
                    r = len(kids)
                    if r == 1:
                        s1 = segments[1]
                        if s1:
                            stack.append((None, s1, None, None))
                        stack.append((pack, kids[0], env, lc))
                    else:
                        for child_pos in range(r, 0, -1):
                            if segments[child_pos]:
                                stack.append(
                                    (None, segments[child_pos], None, None)
                                )
                            stack.append((pack, kids[child_pos - 1], env, lc))
                    position += segments[0]
                    continue
            callee = packs.get(sym_obj)
            if callee is None:
                callee = kernel.pack(sym_obj)
            callee_lc = (
                callee.label_counts(lindex, label)
                if label is not None else None
            )
            r = rank[pos]
            if r:
                outer_env = env
                bindings = []
                child = pos + 1
                for _ in range(r):
                    ce = nelems[child]
                    if label is None:
                        pp = all_params[child]
                        if pp:
                            for p in pp:
                                ce += outer_env[p - 1][3]
                        cm = ce
                    else:
                        cm = lc[child]
                        pp = all_params[child]
                        if pp:
                            for p in pp:
                                b = outer_env[p - 1]
                                ce += b[3]
                                cm += b[4]
                    bindings.append((pack, child, outer_env, ce, cm, lc))
                    child += span[child]
                inner_env: Tuple = tuple(bindings)
            else:
                inner_env = ()
            stack.append((callee, 0, inner_env, callee_lc))
    finally:
        if pruned:
            _PRUNE_STATS.pruned = (
                getattr(_PRUNE_STATS, "pruned", 0) + pruned
            )


def _iter_window_symbols(
    gindex: GrammarIndex, lo: int, hi: int
) -> Iterator[Symbol]:
    """Terminal symbols of the *binary preorder* node window ``[lo, hi)``.

    The node-count analog of the element walk above: subtrees before the
    window are skipped in O(1), the walk returns at the first subtree
    starting past ``hi``.  This is the partial derivation behind
    :func:`extract_subtree`.
    """
    if lo >= hi:
        return
    # Items: (pack, pos, env); env entries are (pack, pos, env, nodes).
    kernel = gindex.kernel
    position = 0
    packs = kernel._packs
    stack = [(kernel.pack(gindex.grammar.start), 0, ())]
    cur = None
    while stack:
        pack, pos, env = stack.pop()
        if pack is not cur:
            cur = pack
            (kind, sym, rank, span, nnodes, _ne, all_params, _no,
             sym_objs, _names, _steps) = pack.walk
        k = kind[pos]
        if k == 3:
            b = env[sym[pos] - 1]
            stack.append((b[0], b[1], b[2]))
            continue
        nodes = nnodes[pos]
        pp = all_params[pos]
        if pp:
            for p in pp:
                nodes += env[p - 1][3]
        if position + nodes <= lo:
            position += nodes
            continue
        if position >= hi:
            return
        if k <= 1:
            if position >= lo:
                yield sym_objs[pos]
            position += 1
            r = rank[pos]
            if r == 2:
                child = pos + 1
                stack.append((pack, child + span[child], env))
                stack.append((pack, child, env))
            elif r == 1:
                stack.append((pack, pos + 1, env))
            elif r:
                child = pos + 1
                kids = []
                for _ in range(r):
                    kids.append(child)
                    child += span[child]
                for c in reversed(kids):
                    stack.append((pack, c, env))
        else:
            sobj = sym_objs[pos]
            callee = packs.get(sobj)
            if callee is None:
                callee = kernel.pack(sobj)
            r = rank[pos]
            if r:
                outer_env = env
                bindings = []
                child = pos + 1
                for _ in range(r):
                    cn = nnodes[child]
                    pp = all_params[child]
                    if pp:
                        for p in pp:
                            cn += outer_env[p - 1][3]
                    bindings.append((pack, child, outer_env, cn))
                    child += span[child]
                inner_env: Tuple = tuple(bindings)
            else:
                inner_env = ()
            stack.append((callee, 0, inner_env))


# ----------------------------------------------------------------------
# subtree extraction (partial derivation)
# ----------------------------------------------------------------------
def extract_subtree(gindex: GrammarIndex, element_index: int) -> XmlNode:
    """The unranked subtree rooted at an element, by partial derivation.

    Streams exactly the binary-preorder window covering the element and
    its first-child subtree (element + descendants in the FCNS encoding),
    rebuilds the ranked tree from the symbol ranks, and decodes it.  The
    element's next-sibling slot lies outside the window by construction;
    the reconstruction caps it (and nothing else) with ``⊥``.

    The document root (element 0) short-circuits: its subtree *is* the
    whole document, so there is no window to locate and nothing to skip
    -- the symbols come straight off :func:`kernel_stream_preorder` (constant
    work per node, no count-table lookups) instead of the full-window
    walk, which pays subtree-size arithmetic per streamed symbol just to
    skip nothing.
    """
    check_element_index(element_index)
    bottom = gindex.grammar.alphabet.bottom()
    if element_index == 0:
        if gindex.element_count == 0:  # pragma: no cover - no document
            raise IndexError("element index 0 out of range (0 elements)")
        return decode_binary(
            _rebuild_binary(kernel_stream_preorder(gindex.kernel), bottom)
        )
    start = gindex.preorder_of_element(element_index)
    terminator = gindex.end_of_children_position(element_index)
    symbols = _iter_window_symbols(gindex, start, terminator + 1)
    return decode_binary(_rebuild_binary(symbols, bottom))


def _rebuild_binary(symbols: Iterator[Symbol], bottom: Symbol) -> Node:
    """Rebuild a ranked tree from a preorder symbol stream.

    An exhausted stream caps the remaining open slot with ``⊥`` -- for a
    window this is the target's next-sibling slot, which lies outside the
    window by construction (and nothing else); for a whole-document
    stream it never triggers.
    """
    root: Optional[Node] = None
    # Frames: [symbol, collected children]; a frame closes when its child
    # list reaches the symbol's rank.
    frames: List[List[object]] = [[next(symbols), []]]
    while frames:
        symbol, kids = frames[-1]
        if len(kids) == symbol.rank:
            frames.pop()
            node = Node(symbol, kids)
            if frames:
                frames[-1][1].append(node)
            else:
                root = node
            continue
        next_symbol = next(symbols, None)
        if next_symbol is None:
            next_symbol = bottom  # the capped next-sibling slot
        frames.append([next_symbol, []])
    assert root is not None
    return root


# ----------------------------------------------------------------------
# path evaluation
# ----------------------------------------------------------------------
def _step_matches(
    gindex: GrammarIndex,
    lindex: Optional[LabelIndex],
    context: int,
    step: QueryStep,
) -> Iterator[int]:
    """Document-order matches of one step from one context element."""
    label = step.label
    if step.axis == CHILD:
        if context == _VIRTUAL_ROOT:
            if label is None or gindex.tag_of(0) == label:
                yield 0
            return
        for child, tag in gindex.children_with_tags(context):
            if label is None or tag == label:
                yield child
        return
    if context == _VIRTUAL_ROOT:
        lo, hi = 0, None  # descendants of the root node: every element
    else:
        lo = context + 1
        hi = context + gindex.element_subtree_extent(context)
    yield from iter_matching_elements(gindex, lindex, lo, hi, label)


def select(
    gindex: GrammarIndex,
    lindex: Optional[LabelIndex],
    path: "LabelPath | str",
) -> List[int]:
    """Evaluate a label path; returns sorted unique element indices.

    The results live in the same document-order coordinate space as every
    update operation, so they can be handed directly to
    ``rename``/``delete``/``apply_batch`` (subject to the usual sequential
    -semantics shifting between operations).
    """
    parsed = parse_path(path)
    contexts: List[int] = [_VIRTUAL_ROOT]
    for step in parsed:
        seen: set = set()
        for context in contexts:
            matches = _step_matches(gindex, lindex, context, step)
            if step.position is not None:
                # The n-th match of this context, document order.
                matches = islice(
                    matches, step.position - 1, step.position
                )
            seen.update(matches)
        if not seen:
            return []
        contexts = sorted(seen)
    return contexts


def count_matches(
    gindex: GrammarIndex,
    lindex: Optional[LabelIndex],
    path: "LabelPath | str",
) -> int:
    """Number of elements a path selects.

    ``//label`` -- one descendant step from the root, no positional
    predicate -- is answered in O(1) from the label index's start-rule
    census; everything else falls back to full evaluation.
    """
    parsed = parse_path(path)
    if (
        len(parsed) == 1
        and parsed.steps[0].axis != CHILD
        and parsed.steps[0].position is None
        and lindex is not None
    ):
        label = parsed.steps[0].label
        if label is not None:
            return lindex.document_label_count(label)
        return gindex.element_count
    return len(select(gindex, lindex, parsed))
