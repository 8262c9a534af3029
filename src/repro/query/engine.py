"""Label-path evaluation directly on the grammar.

A path query is *one* walk of the derivation: the path runs top-down as
an automaton (:class:`_PathStates`; Maneth & Sebastian's structural
self-indexes are the model), every item of the walk carrying the steps an
element found there may still match, so the cost follows the matches, not
contexts x depth.  :func:`select`, :func:`count_matches` and
:func:`iter_matching_elements` are that walk, which skips a whole
RHS/derivation subtree in O(1) when

* it lies entirely outside the requested element range (structural index's
  cached subtree sizes),
* its state is dead -- no step can match anywhere below -- or
* its census for the last step's label is zero (the per-rule censuses
  of :class:`~repro.grammar.index.GrammarIndex`, as per-position counts
  on the rule packs) --

so a selective query touches ``O(matches · depth)`` derivation nodes
instead of the ``O(N)`` elements a decompress-then-walk pays, which is the
whole point of querying in the compressed domain.  Within one query a
rule is not re-derived per application: its *match summary* in the
automaton state it is entered in -- the matches' offsets per element
segment and the state reaching each parameter -- is recorded once and
replayed, so the walk costs at most two body walks per distinct
summarisable (rule, entry state) -- the first application's and the
recording one -- plus the matches and the argument subtrees.

:func:`extract_subtree` serializes one element's subtree by *partial
derivation* of its binary-preorder window -- no full decompression, cost
``O(depth · rule-width + output)``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Tuple

from repro.grammar.index import GrammarIndex, check_element_index
from repro.grammar.kernel import NODES, kernel_window
from repro.query.parser import (
    CHILD, DESCENDANT, LabelPath, QueryStep, parse_path,
)
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

#: Per-thread pruned-subtree count for the observability layer: the facade
#: resets it before a query's walk and reads it after, feeding
#: ``repro_query_pruned_subtrees_total``.  Thread-local so concurrent
#: snapshot readers never see each other's prunes; the walk counts into a
#: local int and flushes once, when it ends.
_PRUNE_STATS = threading.local()


def reset_prune_counter() -> None:
    """Zero this thread's pruned-subtree count."""
    _PRUNE_STATS.pruned = 0


def read_prune_counter() -> int:
    """Derivation subtrees pruned on this thread since the reset."""
    return getattr(_PRUNE_STATS, "pruned", 0)


# ----------------------------------------------------------------------
# the path automaton and its walk
# ----------------------------------------------------------------------
class _PathStates:
    """The states of one query's path automaton.

    A state belongs to a slot of the first-child/next-sibling encoding:
    bit ``i`` of ``avail`` says step ``i``'s predecessor is satisfied at
    the slot's parent element (bit 0: at the virtual root).  An element
    there matches the available steps whose test it passes -- a result if
    the last is among them; its first-child slot gets their successors
    plus the available *descendant* steps, its next-sibling slot its own.

    ``extra`` has one entry per step, for the positional predicates.
    Child ``[k]``: how many siblings of this chain passed the test -- the
    ``k``-th matches and clears the bit for the rest of the chain; a
    first-child slot restarts at 0.  Descendant ``[k]``: per open context
    (contexts may nest) the value ``seen[i]`` had when it opened, where
    ``seen[i]`` counts in document order the elements passing the test
    under an open context -- the context's ``k``-th is where ``seen[i] -
    k`` is its offset; older offsets go, and the bit with the last.
    States are interned ``(transitions, avail, extra, summaries)``
    tuples, ``None`` the dead state; a transition is memoised unless it
    reads ``seen``.  ``summaries`` maps a rule to its match summary in
    the state (see :func:`_walk`); it is ``None`` where a summary would
    be wrong -- a descendant ``[k]`` step is available or can become so,
    and the rule's matches depend on ``seen`` -- or of no use: a child
    ``[k]`` count is running, which one sibling chain passes through once.
    """

    def __init__(self, steps: Tuple[QueryStep, ...]) -> None:
        self.steps = steps
        self.full = (1 << len(steps)) - 1
        self.inherited = self.counted = 0
        for i, step in enumerate(steps):
            if step.axis != CHILD:
                self.inherited |= 1 << i
                if step.position is not None:
                    self.counted |= 1 << i
        self.seen = [0] * len(steps)
        self._interned: Dict[tuple, tuple] = {}
        self.start = self._state(1, tuple(
            ((0,) if i == 0 else ()) if self.counted >> i & 1 else 0
            for i in range(len(steps))
        ))

    def _state(self, avail: int, extra: tuple) -> Optional[tuple]:
        if not avail:
            return None
        state = self._interned.get((avail, extra))
        if state is None:
            # No step at or after the lowest available one counts ``seen``.
            reuse = not self.counted & -(avail & -avail) and not any(extra)
            state = self._interned[avail, extra] = (
                {}, avail, extra, {} if reuse else None)
        return state

    def stable(self, state: tuple) -> bool:
        """Whether every element leaves ``state`` unchanged in both of
        its slots: only unpredicated descendant steps are available, each
        with its successor."""
        avail = state[1]
        return not (avail & (self.counted | ~self.inherited)
                    or avail << 1 & self.full & ~avail)

    def advance(self, state: tuple, name: str) -> tuple:
        """``(is a result, first-child state, next-sibling state)`` of an
        element labeled ``name`` found in ``state``."""
        memo, avail, extra, _ = state
        seen, matched, kept = self.seen, 0, list(extra)
        rest = avail  # what the next-sibling slot keeps
        for i, step in enumerate(self.steps):
            bit = 1 << i
            if not avail & bit:
                continue
            fits = step.label is None or step.label == name
            k = step.position
            if k is None:
                matched |= fits << i
            elif step.axis == CHILD:
                kept[i] += fits
                if fits and kept[i] == k:
                    matched |= bit
                    rest ^= bit
                    kept[i] = 0
            else:
                seen[i] += fits
                if fits and seen[i] - k in extra[i]:
                    matched |= bit
                kept[i] = tuple(o for o in extra[i] if seen[i] - o < k)
                if not kept[i]:
                    rest ^= bit
        opened = matched << 1
        below = (opened | rest & self.inherited) & self.full
        result = (
            matched > self.full >> 1,
            self._state(below, tuple(
                kept[i] + ((seen[i],) if opened >> i & 1 else ())
                if self.counted >> i & 1 else 0
                for i in range(len(kept))
            )) if below else None,
            self._state(rest, tuple(kept)),
        )
        if not (avail | opened) & self.counted:
            memo[name] = result
        return result


def _walk(
    gindex: GrammarIndex,
    steps: Tuple[QueryStep, ...],
    lo: int = 0,
    hi: Optional[int] = None,
) -> Iterator[int]:
    """Element indices in ``[lo, hi)`` that ``steps`` selects, in document
    order: one preorder walk of the derivation over the per-rule
    :class:`~repro.grammar.kernel.RulePack` arrays.  A subtree generating
    only elements before ``lo``, found in the dead state, or holding none
    of the last step's label is skipped in O(1) via the cached count
    tables; the walk stops at the first subtree at or past ``hi``.

    An application of rule ``A`` entered in a state that summarises
    reads ``A``'s *match summary* in that state: the offsets of the
    matches in each of ``A``'s element segments (virtual preorder
    ``seg0, arg1, seg1, ..., argk, segk``) and the state reaching each
    parameter.  It emits the offsets and walks only the arguments, each
    in its state.  The first application in a state is entered as any
    other -- a rule a query enters once costs nothing extra; the second
    walks ``A``'s body once on this same stack (positions count from the
    body's start, its parameters are leaves recording their states),
    stores the summary and re-enters the application as a hit.  A
    *stable* state (:meth:`_PathStates.stable`) where ``A`` holds none of
    the last step's label summarises at once, without packing ``A`` (the
    zero-census hop): no offsets, the state itself at every parameter."""
    total = gindex.element_count
    hi = total if hi is None else min(hi, total)
    if lo >= hi:
        return
    if not all(step.label is None or gindex.document_label_count(step.label)
               for step in steps):
        return  # a label the document does not hold
    states = _PathStates(steps)
    label = steps[-1].label
    # The last label's census prunes only a path with a descendant step
    # (dead states prune a child-only path; every write drops the
    # censuses along its spine) and no counting descendant step before
    # the last, which must see every element.
    census = (label is not None and states.inherited
              and not states.counted & states.full >> 1)
    # Stack items are ``(pack, pos, env, lc, state)`` with ``lc`` the
    # pack's per-position counts of the census label (of elements when
    # the census is off) -- fetched once per rule entry, not per node --
    # and ``state`` handed through parameter bindings and rule entries
    # unchanged.  Env entries are ``(pack, pos, env, elements, matches,
    # lc)``, counted at binding time so parameter lookups stay O(1); a
    # summarised body's parameter is ``(None, exit states, index, 0, 1,
    # None)`` -- one match, so no census prune drops its state.  Markers
    # are ``(None, width, offsets, 0, 0)``, a summarised segment, and
    # ``(None, None, (), 0, 0)``, the end of a summarised body.
    packs = gindex._packs
    root = gindex.pack(gindex.grammar.start)
    root_lc = root.label_counts(gindex, label) if census else root.nelems
    # Consecutive stack items overwhelmingly share a pack (children are
    # pushed together), so the unpacked ``pack.walk`` columns are kept
    # until the popped pack changes.
    stack = [(root, 0, (), root_lc, states.start)]
    window = (lo, hi)
    # Open body walks, innermost last: ``(pack, summaries, position,
    # offsets, parameter states)``; ``out`` is the innermost's offsets.
    frames: List[tuple] = []
    out: Optional[List[int]] = None
    position = 0
    cur = None
    pruned = 0
    while stack:
        pack, pos, env, lc, state = stack.pop()
        if pack is not cur:
            if pack is None:
                if pos is None:  # a body walk ended: store its summary
                    callee, summaries, position, found, exits = frames.pop()
                    segments = callee.elem_segs
                    split = [()] * len(segments)
                    i = at = 0
                    for seg, width in enumerate(segments if found else ()):
                        j = bisect_left(found, at + width, i)
                        split[seg] = [o - at for o in found[i:j]]
                        i, at = j, at + width
                    summaries[callee.head] = (segments, split, exits)
                    out = frames[-1][3] if frames else None
                    if not frames:
                        lo, hi = window
                elif out is not None:
                    out.extend([position + o for o in env])
                    position += pos
                else:
                    for o in env:
                        if position + o >= hi:
                            break
                        if position + o >= lo:
                            yield position + o
                    position += pos
                continue
            cur = pack
            (kind, sym, rank, span, _nn, nelems, all_params, _no,
             sym_objs, sym_names, _steps) = pack.walk
        k = kind[pos]
        if k == 3:
            b = env[sym[pos] - 1]
            if b[0] is None:
                b[1][b[2]] = state
            else:
                stack.append((b[0], b[1], b[2], b[5], state))
            continue
        if not k:
            continue  # a ⊥ generates nothing
        elems = nelems[pos]
        matches = lc[pos]
        for p in all_params[pos]:
            b = env[p - 1]
            elems += b[3]
            matches += b[4]
        if position >= hi:
            break  # preorder: everything later starts further right
        if state is None or not matches or position + elems <= lo:
            # Dead state, zero census, or entirely before the window.
            position += elems
            pruned += 1
            continue
        if k == 1:
            if rank[pos] != 2:
                raise ValueError(f"not an FCNS element: {sym_objs[pos]!r}")
            name = sym_names[pos]
            found = state[0].get(name)
            if found is None:
                found = states.advance(state, name)
            if found[0]:
                if out is not None:
                    out.append(position)
                elif position >= lo:
                    yield position
            position += 1
            child = pos + 1
            stack.append((pack, child + span[child], env, lc, found[2]))
            stack.append((pack, child, env, lc, found[1]))
            continue
        sym_obj = sym_objs[pos]
        summaries = state[3]
        summary = None
        if summaries is not None:
            summary = summaries.get(sym_obj)
            if summary is None and census and states.stable(state) \
                    and not gindex.rule_label_count(sym_obj, label):
                pruned += 1  # the zero-census hop
                summary = summaries[sym_obj] = (
                    gindex.element_segments(sym_obj),
                    [()] * (rank[pos] + 1), [state] * rank[pos])
            elif summary is None:
                summaries[sym_obj] = False  # entered once: as it is
            if summary:
                segments, split, exits = summary
                kids = []
                child = pos + 1
                for _ in range(rank[pos]):
                    kids.append(child)
                    child += span[child]
                for i in range(len(kids), 0, -1):
                    if segments[i]:
                        stack.append((None, segments[i], split[i], 0, 0))
                    stack.append((pack, kids[i - 1], env, lc, exits[i - 1]))
                if split[0]:
                    stack.append((None, segments[0], split[0], 0, 0))
                else:
                    position += segments[0]
                continue
        callee = packs.get(sym_obj)
        if callee is None:
            callee = gindex.pack(sym_obj)
        callee_lc = callee.label_counts(gindex, label) if census \
            else callee.nelems
        if summary is False and lo <= position and position + elems <= hi:
            exits = [None] * rank[pos]
            frames.append((callee, summaries, position, [], exits))
            out = frames[-1][3]
            stack.append((pack, pos, env, lc, state))  # then, as a hit
            stack.append((None, None, (), 0, 0))
            stack.append((callee, 0, tuple([
                (None, exits, i, 0, 1, None) for i in range(rank[pos])
            ]), callee_lc, state))
            # Positions count from the body's start, and no window
            # applies: no body generates more than the document.
            position, lo, hi = 0, -1, total + 1
            continue
        bindings = []
        child = pos + 1
        for _ in range(rank[pos]):
            if kind[child] == 3:  # a parameter handed on: its binding
                bindings.append(env[sym[child] - 1])
            else:
                ce = nelems[child]
                cm = lc[child]
                for p in all_params[child]:
                    b = env[p - 1]
                    ce += b[3]
                    cm += b[4]
                bindings.append((pack, child, env, ce, cm, lc))
            child += span[child]
        stack.append((callee, 0, tuple(bindings), callee_lc, state))
    _PRUNE_STATS.pruned = read_prune_counter() + pruned


def iter_matching_elements(
    gindex: GrammarIndex,
    lo: int,
    hi: Optional[int],
    label: Optional[str] = None,
) -> Iterator[int]:
    """Element indices in ``[lo, hi)`` tagged ``label`` (``None``: any
    tag): the walk over one descendant step, windowed."""
    return _walk(gindex, (QueryStep(DESCENDANT, label),), lo, hi)


def select(
    gindex: GrammarIndex,
    path: "LabelPath | str",
) -> List[int]:
    """Evaluate a label path; returns sorted unique element indices.

    The results live in the same document-order coordinate space as every
    update operation, so they can be handed directly to
    ``rename``/``delete``/``apply_batch`` (subject to the usual sequential
    -semantics shifting between operations).
    """
    return list(_walk(gindex, parse_path(path).steps))


def count_matches(
    gindex: GrammarIndex,
    path: "LabelPath | str",
) -> int:
    """Number of elements a path selects.

    ``//label`` -- one descendant step from the root, no positional
    predicate -- is answered in O(1) from the start rule's label census;
    everything else counts the walk.
    """
    steps = parse_path(path).steps
    step = steps[0]
    if len(steps) > 1 or step.axis == CHILD or step.position is not None:
        return sum(1 for _ in _walk(gindex, steps))
    if step.label is None:
        return gindex.element_count
    return gindex.document_label_count(step.label)


# ----------------------------------------------------------------------
# subtree extraction (partial derivation)
# ----------------------------------------------------------------------
def extract_subtree(gindex: GrammarIndex, element_index: int) -> XmlNode:
    """The unranked subtree rooted at an element, by partial derivation.

    Streams the binary-preorder node window of the element and its
    first-child subtree (element + descendants in the FCNS encoding) off
    :func:`~repro.grammar.kernel.kernel_window`, rebuilds the ranked tree
    from the symbol ranks, and decodes it.  The element's next-sibling
    slot lies outside the window by construction; the reconstruction
    caps it (and nothing else) with ``⊥``.  The root's window starts at
    0, so it skips nothing and streams at the cost of a plain stream.
    """
    check_element_index(element_index)
    start = gindex.preorder_of_element(element_index)
    terminator = gindex.end_of_children_position(element_index)
    symbols = kernel_window(gindex, start, terminator + 1, NODES)
    bottom = gindex.grammar.alphabet.bottom()
    return decode_binary(_rebuild_binary(symbols, bottom))


def _rebuild_binary(symbols: Iterator[Symbol], bottom: Symbol) -> Node:
    """Rebuild a ranked tree from a preorder symbol stream.

    An exhausted stream caps the remaining open slot with ``⊥``: the
    target's next-sibling slot, which lies outside the window by
    construction (and nothing else).
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
