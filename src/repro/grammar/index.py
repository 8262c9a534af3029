"""A persistent structural self-index over an SLCF grammar.

:class:`GrammarIndex` is the one owner of everything cached per rule
``A`` of rank ``k``.  Each fact is stored once and declared once, with
its invalidation class, in :data:`RULE_FACTS`:

============  ============  =============================================
fact          class         what it holds
============  ============  =============================================
segments      structural    ``size(A, 0..k)`` (Section III-A), in nodes
                            and in elements
pack          structural    the body as :class:`~repro.grammar.kernel.
                            RulePack` columns: the per-node size table
census        label         ``label -> count`` of the body's elements
                            (callees included, arguments not)
label_counts  label         a pack's per-position counts of a label
summaries     label         per path automaton state, the body's match
                            summary (:mod:`repro.query.engine`); what its
                            derivation enters holds a census (a labeled
                            walk censuses first): a relabel reaches it
routes        parent point  per parameter, the (depth gained, parent
                            element) of the body path a descent skips
============  ============  =============================================

That table drives the one dependents cascade (:meth:`GrammarIndex._drop`),
the one clear (snapshot import, :meth:`GrammarIndex.invalidate_all`) and
the storage scrub's audit of every cached fact against one cold index.
The pack counters (``builds`` / ``evictions`` / ``hits`` / ``misses``,
``rules_packed``, ``bytes_packed``) are the index's too, and
``GrammarIndex.kernel`` is the index itself: the name stays because the
reference benchmark's runner reads ``doc.index.kernel.to_dict()``, so
:meth:`GrammarIndex.to_dict` carries the index keys and the pack keys.

Together these answer the navigation queries every update needs --
``element_count``, ``preorder_of_element`` (the addressing step of
:class:`repro.api.CompressedXml`), ``tag_of``, the axes and
``end_of_children_position`` (the "insert on a null pointer" target of
Section V-C) -- by *descending the derivation* in ``O(depth ·
rule-width)`` per query instead of streaming the ``O(N)`` symbols of the
generated tree, and ``count('//x')`` in O(1).  This is the grammar-level
count-table idea of Maneth & Sebastian's structural self-indexes,
specialized to the update path of this reproduction -- and kept valid
*across* an edit instead of recomputed after it.

Invalidation contract
---------------------
The index registers itself as a grammar observer (see
:meth:`repro.grammar.slcf.Grammar.register_observer`):

* ``rule_spliced`` -- a *local* rewrite: one subtree of one rule gave way
  to another (path isolation's inlines; a single ``insert`` / ``delete``).
  The rule's pack gets a successor at the write point: adopted subtrees
  keep their entries, the fresh nodes get theirs, the ancestors' sizes
  follow; when the generated size changed, so do the rule's segment and
  -- along the shard spine, where each rule has one applier applying it
  once -- the application's ancestors and segment one rule up (a route
  summary with a parent point is dropped there, for ``_axes`` to
  recompute).  Nothing is evicted and no body is re-walked: the write
  pays ``O(depth + |edit|)`` Python steps plus C-level list copies.  A
  splice that is not local after all (it removed a parameter, the rule
  has no pack, the dependents are not a spine) takes the last path.
* ``rule_relabeled`` -- patches the label entries of the relabeled node.
  Both move the census of the rule and of the spine above it by the
  write's delta (-old +new label; the fresh entries minus the gone ones)
  and drop the other label facts there, and off the spine every label
  fact; an inline derives the same tree and does no label work at all.
* ``rule_changed`` / ``rule_removed`` -- anything else (``set_rule``,
  batches, recompression, reshard splits and merges): every fact of that
  rule *and of its transitive dependents along the call DAG* is dropped
  and cold-built lazily, bottom-up, on the next query.  The cold build is
  also the reference the splice is tested and scrubbed against.

No write moves an entry of a published pack: what shifts positions (a
splice) is made on copies of the columns, what keeps them (a relabel, a
size patch at an application's ancestors) is written in place.  So a
walk suspended across a write -- ``tags()`` and ``children()`` are
generators -- never loses its place, exactly as when packs were dropped
and rebuilt.

Callers that mutate rule bodies in place without going through
``set_rule`` must fire one of the ``Grammar.notify_rule_*`` events; the
update and compression layers of this code base all do.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple,
)

from repro.grammar.kernel import (
    KIND_ELEMENT,
    KIND_NONTERMINAL,
    ELEMENTS,
    RulePack,
    flatten,
    global_symbol_table,
    kernel_last_node,
    kernel_locate_element,
    kernel_window,
    measure,
)
from repro.grammar.navigation import PathStep
from repro.grammar.slcf import Grammar, GrammarError
from repro.obs.metrics import NULL_METRIC
from repro.trees.node import Node
from repro.trees.symbols import Symbol

__all__ = ["GrammarIndex", "RULE_FACTS", "check_element_index"]

_SYMBOLS = global_symbol_table()


def check_element_index(index: int, what: str = "element index") -> int:
    """Shared validation for document-order element indices.

    Every element-addressed entry point (``tag_of``/``rename``/``delete``/
    ``select`` results, batch operations, ``tags`` windows) funnels through
    this one contract: a non-``int`` (including ``bool`` -- almost always a
    bug, and batch ops already rejected it) raises ``TypeError``; a negative
    index raises ``IndexError``.  From-the-end indices are deliberately not
    supported -- under concurrent updates they are ambiguous.  The
    out-of-range check stays with the caller, who knows the element count.
    """
    if not isinstance(index, int) or isinstance(index, bool):
        raise TypeError(f"{what} must be an int, got {index!r}")
    if index < 0:
        raise IndexError(f"{what} must be >= 0, got {index}")
    return index


#: One binding of a rule parameter during a descent (the kernel's binding
#: tuples): ``(generated nodes, generated elements, the argument's own
#: environment, the pack holding the argument, its position there)``.
_Binding = Tuple[int, int, tuple, RulePack, int]


def _descend(columns: tuple, parent: Optional[Node], target: Node):
    """Find ``target``, the node below ``parent`` (``None``: the root),
    in a pack's ``columns`` by following its node path down from
    position 0: ``(position, ancestor positions root first, number of
    parameters in front of it)``.  Reads only entries in front of the
    target, so ``target``'s own subtree may already be rewritten."""
    path = [target]
    while parent is not None:
        path.append(parent)
        parent = parent.parent
    span, params, node_objs = columns[3], columns[6], columns[7]
    pos = before = 0
    ancestors: List[int] = []
    for depth in range(len(path) - 2, -1, -1):
        ancestors.append(pos)
        node = path[depth]
        pos += 1
        while node_objs[pos] is not node:
            before += len(params[pos])
            pos += span[pos]
    return pos, ancestors, before


def _segments(
    pack: RulePack,
    node_segments: Dict[Symbol, List[int]],
    elem_segments: Dict[Symbol, List[int]],
    packs: Dict[Symbol, RulePack],
) -> Tuple[List[int], List[int], Optional[list]]:
    """The rule's ``size(A, 0..k)`` in nodes and in elements and its
    route summaries (``RulePack.routes``; ``None`` while a callee on a
    route lacks its own), read off its finished columns in one forward
    scan that steps over every parameter-free subtree (one table read):
    only the paths to the parameters are walked.  An application on one
    contributes its callee's summary, and the callee's segments fall
    ``due`` where its argument subtrees end."""
    (kind, _sym, rank, span, nnodes, nelems, params, _nodes,
     sym_objs) = pack.walk[:9]
    node_segs: List[int] = []
    elem_segs: List[int] = []
    routes: List[tuple] = []
    complete = True
    nodes = elems = 0
    due: Dict[int, List[list]] = {}
    # How a route reaches a position: ``(depth delta, parent point)``;
    # into an argument also the callee's point and its segments' starts.
    reach: Dict[int, tuple] = {0: (0, None, None, None)}
    i, n = 0, len(kind)
    while True:
        # Segments due at one position: the inner application's first.
        for late in reversed(due.pop(i, ())):
            late[2] = (len(elem_segs), elems)
            nodes += late[0]
            elems += late[1]
        if i == n:
            break
        if not params[i]:
            nodes += nnodes[i]
            elems += nelems[i]
            i += span[i]
            continue
        k = kind[i]
        depth, point, inner, began = reach.pop(i)
        if inner is not None:
            segment, offset = began[inner[0]][2]
            point = (segment, offset + inner[1])
        child = i + 1
        if k == 3:
            node_segs.append(nodes)
            elem_segs.append(elems)
            routes.append((depth, point))
            nodes = elems = 0
        elif k == KIND_NONTERMINAL:
            callee = sym_objs[i]
            began = [[*sizes, None] for sizes in zip(
                node_segments[callee], elem_segments[callee])]
            began[0][2] = (len(elem_segs), elems)
            nodes += began[0][0]
            elems += began[0][1]
            via = packs[callee].routes if callee in packs else None
            if via is None:
                complete = False
                via = [(0, None)] * rank[i]
            for slot in range(1, rank[i] + 1):
                delta, inner = via[slot - 1]
                reach[child] = (depth + delta, point, inner, began)
                child += span[child]
                due.setdefault(child, []).append(began[slot])
        else:
            here = (depth, point, None, None)
            for _ in range(rank[i]):
                reach[child] = here
                child += span[child]
            if k == 1 and rank[i] == 2 and params[i + 1]:
                # An FCNS element's first-child edge: the parent below.
                reach[i + 1] = (depth + 1, (len(elem_segs), elems),
                                None, None)
            nodes += 1
            elems += k  # KIND_BOTTOM == 0, KIND_ELEMENT == 1
        i += 1
    node_segs.append(nodes)
    elem_segs.append(elems)
    head = pack.head
    if len(node_segs) != head.rank + 1:
        raise GrammarError(
            f"rule {head!r}: found {len(node_segs) - 1} parameters, "
            f"rank is {head.rank}"
        )
    return node_segs, elem_segs, routes if complete else None


# ----------------------------------------------------------------------
# the per-rule facts
# ----------------------------------------------------------------------
STRUCTURAL, LABEL, PARENT_POINT = "structural", "label", "parent point"


class RuleFact(NamedTuple):
    """One per-rule fact of :class:`GrammarIndex`.  ``peek(index, head)``
    is its cached value as a dict of named parts (``None``: absent) and
    computes nothing; ``drop(index, head)`` forgets it, saying whether it
    was there; ``build(index, head, parts)`` computes it, for the parts
    ``parts`` names where the fact is kept per query."""

    name: str
    invalidation: str
    peek: Callable[["GrammarIndex", Symbol], Optional[dict]]
    drop: Callable[["GrammarIndex", Symbol], bool]
    build: Callable[["GrammarIndex", Symbol, dict], object]


def _peek_segments(index, head):
    nodes = index._node_segments.get(head)
    return nodes and {"node_segments": nodes,
                      "elem_segments": index._elem_segments[head]}


def _drop_segments(index, head):
    if index._node_segments.pop(head, None) is None:
        return False
    del index._elem_segments[head]
    index.evicted_rules += 1
    return True


#: The pack columns a cold build determines: all but the live node and
#: step objects, which only an identity check can compare.
PACK_COLUMNS = ("kind", "sym", "rank", "span", "nnodes", "nelems",
                "params", "sym_objs", "sym_names", "calls")


def _peek_pack(index, head):
    pack = index._packs.get(head)
    return pack and {column: getattr(pack, column) for column in PACK_COLUMNS}


def _drop_pack(index, head):
    pack = index._packs.pop(head, None)
    if pack is None:
        return False
    index.evictions += 1
    index._m_evictions.inc()
    for callee in pack.calls:
        appliers = index._dependents.get(callee)
        if appliers:  # gone when the callee went first
            appliers.discard(head)
    return True


def _drop_census(index, head):
    if index._censuses.pop(head, None) is None:
        return False
    index.censuses_evicted += 1
    return True


def _peek_label_counts(index, head):
    return getattr(index._packs.get(head), "_label_arrays", None) or None


def _drop_label_counts(index, head):
    if _peek_label_counts(index, head) is None:
        return False
    index._packs[head]._label_arrays = {}
    return True


def _peek_summaries(index, head):
    """``{(path steps, avail, extra, exit states): offsets}``."""
    held = index._summaries.get(head)
    return held and {
        (steps, state[1], state[2], tuple(e and e[1:3] for e in exits)): split
        for steps, state in held.values()
        for _segments, split, exits in [state[3][head]]} or None


def _drop_summaries(index, head):
    held = index._summaries.pop(head, None)
    for _steps, state in (held or {}).values():
        del state[3][head]
    return held is not None


def _build_summaries(index, head, keys):
    from repro.query.engine import summarise  # the query layer's walk
    summarise(index, head, keys)


def _peek_routes(index, head):
    routes = getattr(index._packs.get(head), "routes", None)
    return None if routes is None else {"routes": routes}


def _drop_routes(index, head):
    if _peek_routes(index, head) is None:
        return False
    index._packs[head].routes = None
    return True


#: Every per-rule fact the index caches: the declaration the drop
#: cascade, the clear and the scrub audit iterate.
RULE_FACTS: Tuple[RuleFact, ...] = (
    RuleFact("segments", STRUCTURAL, _peek_segments, _drop_segments,
             lambda index, head, _parts: index._ensure(head)),
    RuleFact("pack", STRUCTURAL, _peek_pack, _drop_pack,
             lambda index, head, _parts: index.pack(head)),
    RuleFact("census", LABEL, lambda index, head: index._censuses.get(head),
             _drop_census,
             lambda index, head, _parts: index.label_census(head)),
    RuleFact("label_counts", LABEL, _peek_label_counts, _drop_label_counts,
             lambda index, head, labels: [index.pack(head).label_counts(
                 index, label) for label in labels]),
    RuleFact("summaries", LABEL, _peek_summaries, _drop_summaries,
             _build_summaries),
    RuleFact("routes", PARENT_POINT, _peek_routes, _drop_routes,
             lambda index, head, _parts: index._routes(index.pack(head))),
)
_LABEL_FACTS = tuple(fact for fact in RULE_FACTS
                     if fact.invalidation == LABEL)

#: Path automata an index keeps with their summaries: the latest used.
_PATHS = 64


class GrammarIndex:
    """Cached count tables over a grammar, kept correct across updates.

    One index should be owned per mutable grammar (e.g. by
    :class:`repro.api.CompressedXml`); it registers itself as an observer
    on construction and can be released with :meth:`detach`.
    """

    def __init__(self, grammar: Grammar, register: bool = True) -> None:
        self._grammar = grammar
        self._node_segments: Dict[Symbol, List[int]] = {}
        self._elem_segments: Dict[Symbol, List[int]] = {}
        # head -> {label: count}; only beside segments, callees first.
        self._censuses: Dict[Symbol, Dict[str, int]] = {}
        # Reverse call edges: callee -> the cached rules that apply it
        # (exact while the applier is packed -- ``RulePack.calls`` --,
        # a superset for segments adopted from a snapshot).
        self._dependents: Dict[Symbol, Set[Symbol]] = {}
        # Memoized ``_locate_element`` descents.  Relabels change neither
        # subtree sizes nor positions, so a located path stays valid
        # across in-place relabels; a structural change starts a new dict
        # (its identity tells a suspended ``children()`` walk to restart).
        self._locations: Dict[int, tuple] = {}
        # The per-rule column packs every descent below runs on (see
        # :mod:`repro.grammar.kernel`), the only per-node size table.
        self._packs: Dict[Symbol, RulePack] = {}
        # Path steps -> automaton; head -> {id(state): (steps, state)}.
        self._paths: Dict[tuple, object] = {}
        self._summaries: Dict[Symbol, Dict[int, tuple]] = {}
        # Eviction instrumentation: per-rule evictions through the observer
        # channel vs wholesale resets.  Recompression is asserted against
        # these (rules a run does not rewrite keep their tables).
        self.evicted_rules = 0
        self.wholesale_invalidations = 0
        # The same for the censuses, which writes drop off the spine.
        self.censuses_evicted = 0
        self.rules_censused = 0
        # The same for the packs; ``hits`` / ``misses`` count at walk
        # entry and cold build (:meth:`pack`), not per warm probe.
        self.builds = self.evictions = self.hits = self.misses = 0
        self._m_builds = self._m_evictions = NULL_METRIC
        self._registered = register
        if register:
            grammar.register_observer(self)

    @property
    def grammar(self) -> Grammar:
        return self._grammar

    def detach(self) -> None:
        """Unregister from the grammar; the index must not be used after."""
        if self._registered:
            self._grammar.unregister_observer(self)
            self._registered = False

    # ------------------------------------------------------------------
    # invalidation (grammar observer protocol)
    # ------------------------------------------------------------------
    def _drop(self, head: Symbol,
              facts: Tuple[RuleFact, ...] = RULE_FACTS) -> None:
        """Drop ``facts`` of ``head`` and of its transitive dependents:
        the one cascade every invalidation runs.  Every fact is computed
        after its callees' (anti-SL order), so a cached dependent always
        has its reverse edge registered here and the closure ends at the
        first rule that held none of ``facts``.  Dropping them all (the
        default) also takes the rule out of the reverse call edges and
        forgets the memoized descents."""
        every = facts is RULE_FACTS
        if every:
            self._locations = {}
        dependents = self._dependents
        stack = [head]
        while stack:
            current = stack.pop()
            held = False
            for fact in facts:
                held = fact.drop(self, current) or held
            if held:
                stack.extend(dependents.pop(current, ()) if every
                             else dependents.get(current, ()))

    # Anything not local (``set_rule``, batches, recompression, reshard
    # splits and merges): every fact along the dependents goes.
    rule_changed = rule_removed = _drop

    def rule_relabeled(self, head: Symbol, node: Node) -> None:
        """A relabel changes no size and moves no entry: patch the
        label entries of the relabeled ``node`` in the rule's pack, in
        place (no other pack caches them), and move the censuses up the
        spine by -old +new label (:meth:`_spine`).  The structural
        facts stay."""
        pack = self._packs.get(head)
        if pack is None:
            return self._spine(head, None)  # the old label is gone
        pos = _descend(pack.walk, node.parent, node)[0]
        delta = Counter({pack.sym_names[pos]: -1})
        symbol = node.symbol
        _kind, pack.sym[pos], _rank, pack.sym_names[pos] = \
            _SYMBOLS.describe(symbol)
        pack.sym_objs[pos] = symbol
        delta[symbol.name] += 1
        self._spine(head, delta)

    def rule_spliced(self, head: Symbol, old: Node, new: Node) -> None:
        """:meth:`~repro.grammar.slcf.Grammar.notify_rule_spliced`:
        publish a successor of the rule's pack whose column slice for
        ``old``'s subtree describes ``new``.  Without a pack, or when
        the splice is not local after all (it removed a parameter, moved
        a size across one, grew by an application in front of one, or
        rewrote -- no inline -- what holds one at the same sizes), evict
        as for ``rule_changed``: nothing is touched before that.  Else
        the censuses move up the spine (:meth:`_delta`) -- unless the
        splice is an inline, deriving the same tree: no label work.

        Subtrees ``new`` adopted from ``old`` keep their entries; the
        entries of the nodes that went, between them, are exchanged for
        those of the fresh nodes that came.  The exchange moves entries,
        so it is made on copies: the old pack -- which a suspended walk
        (a half-consumed ``tags()``) may still stand in -- keeps its
        layout.  ``O(depth + fresh + gone)`` plus C-level list copies.
        """
        pack = self._packs.get(head)
        if pack is None:
            return self._drop(head)
        old_columns = pack.walk
        kind, span, nnodes, nelems, params = (
            old_columns[0], old_columns[3], old_columns[4], old_columns[5],
            old_columns[6])
        p, ancestors, before = _descend(old_columns, new.parent, old)
        stop = p + span[p]
        # What ``new`` may have adopted: ``old`` itself, or its children.
        moved = {id(old): (p, stop)}
        c = p + 1
        for _ in range(old_columns[2][p]):
            moved[id(old_columns[7][c])] = (c, c + span[c])
            c += span[c]
        region, fresh, carried, calls = flatten(
            new, _SYMBOLS, moved, old_columns)
        measure(region, fresh, self._node_segments, self._elem_segments)
        if region[6][0] != params[p]:
            return self._drop(head)
        grown_nodes = region[4][0] - nnodes[p]
        grown_elems = region[5][0] - nelems[p]
        if (grown_nodes or grown_elems) and params[p]:
            # The change must sit wholly in front of the slice's
            # parameters: whatever holds them was adopted as the tail
            # of both the old and the new slice, below terminals only.
            entry, start, end = carried[-1] if carried else (-1, 0, 0)
            if entry != len(fresh) + len(carried) - 1 or end != stop \
                    or params[start] != params[p] or calls:
                return self._drop(head)
        elif params[p] and kind[p] != KIND_NONTERMINAL:
            # Same sizes but no inline: a parameter route may have turned.
            return self._drop(head)
        # Gaps of the old slice around the adopted subtrees, and the runs
        # of fresh entries that take their place (exchanged back to front).
        gaps = [p]
        runs = [0]
        for entry, start, end in carried:
            gaps += (start, end)
            runs += (entry, entry + 1)
        gaps.append(stop)
        runs.append(len(region[0]))
        counted = pack.calls
        sym_objs = old_columns[8]
        columns = tuple([column[:] for column in old_columns])
        for g in range(len(gaps) - 2, -1, -2):
            a, b, i, j = gaps[g], gaps[g + 1], runs[g], runs[g + 1]
            for at in range(a, b):
                if kind[at] == KIND_NONTERMINAL:  # an application went
                    callee = sym_objs[at]
                    counted[callee] -= 1
                    if not counted[callee]:
                        del counted[callee]
                        self._dependents[callee].discard(head)
            if a != b or i != j:
                for column, patch in zip(columns, region):
                    column[a:b] = patch[i:j]
        for callee, count in calls.items():  # applications that came
            if callee not in counted:
                self._dependents.setdefault(callee, set()).add(head)
            counted[callee] = counted.get(callee, 0) + count
        span, nnodes, nelems = columns[3], columns[4], columns[5]
        widened = region[3][0] - (stop - p)
        for a in ancestors:
            span[a] += widened
            nnodes[a] += grown_nodes
            nelems[a] += grown_elems
        successor = RulePack(head, columns, counted)
        successor.node_segs = pack.node_segs
        successor.elem_segs = pack.elem_segs
        successor.routes = pack.routes  # an inline keeps ``val(rule)``
        for first, (links, done) in tuple(pack.chains.items()):
            if first >= stop:  # see ``RulePack.chains``
                successor.chains[first + widened] = links, done
            elif first < p:
                kept = links[:bisect_left(links, p - first)]
                successor.chains[first] = kept, done and kept == links
        self._packs[head] = successor
        self._locations = {}
        # An application gone, at most its arguments adopted: an inline,
        # which derives the same tree and does no label work.
        if kind[p] != KIND_NONTERMINAL or carried and carried[0][1] == p:
            delta = head in self._censuses and self._delta(
                old_columns, gaps, region, fresh)
            self._spine(head, delta, before, grown_nodes, grown_elems)

    def _delta(self, old_columns: tuple, gaps: List[int], region: tuple,
               fresh: List[int]) -> Optional[Counter]:
        """A splice's census change: the fresh entries' labels and callee
        censuses minus the gone ones' (``None``: a callee has none)."""
        delta: Counter = Counter()
        gone = [i for a, b in zip(gaps[::2], gaps[1::2]) for i in range(a, b)]
        for sign, columns, entries in ((-1, old_columns, gone),
                                       (1, region, fresh)):
            kind, sym_objs, names = columns[0], columns[8], columns[9]
            for at in entries:
                if kind[at] == KIND_ELEMENT:
                    delta[names[at]] += sign
                elif kind[at] == KIND_NONTERMINAL:
                    census = self._censuses.get(sym_objs[at])
                    if census is None:
                        return None
                    (delta.update if sign > 0 else delta.subtract)(census)
        return delta

    def _spine(self, head: Symbol, delta: Optional[Counter],
               segment: int = 0, grown_nodes: int = 0,
               grown_elems: int = 0) -> None:
        """Carry a write to ``head`` up the spine (each rule's one cached
        applier applies it once): the census moves by ``delta`` (falsy:
        it goes), the other label facts go, a grown ``segment`` grows with
        the application's ancestors and the applier's segment, in place,
        and route summaries holding a parent point (which may shift) go.
        Other dependents lose the label facts, or all after a growth."""
        packs = self._packs
        grown = grown_nodes or grown_elems
        while True:
            census = self._censuses.get(head)
            if census is not None and delta:
                for label, change in delta.items():  # not a census scan
                    census[label] += change
                    if not census[label]:
                        del census[label]  # as a cold census has it
            elif census is not None:
                _drop_census(self, head)
            held = _drop_label_counts(self, head) | _drop_summaries(self, head)
            if not (held or grown or census is not None):
                return  # so no label fact above depends on this rule
            if grown:
                self._node_segments[head][segment] += grown_nodes
                self._elem_segments[head][segment] += grown_elems
                if any(point for _delta, point in packs[head].routes or ()):
                    packs[head].routes = None
            appliers = self._dependents.get(head)
            if not appliers:
                return
            pack = packs.get(next(iter(appliers)))
            if len(appliers) != 1 or pack is None \
                    or pack.calls.get(head) != 1:
                for applier in tuple(appliers):
                    self._drop(applier, RULE_FACTS if grown else _LABEL_FACTS)
                return
            if grown:
                columns = pack.walk
                span, nnodes, nelems, params = (
                    columns[3], columns[4], columns[5], columns[6])
                application = columns[7][columns[8].index(head)]
                pos, ancestors, before = _descend(
                    columns, application.parent, application)
                ancestors.append(pos)
                for a in ancestors:
                    nnodes[a] += grown_nodes
                    nelems[a] += grown_elems
                c = pos + 1
                for _ in range(segment):
                    before += len(params[c])
                    c += span[c]
                segment = before
            head = pack.head

    def _clear(self) -> None:
        """Forget every fact of every rule at once."""
        for table in (self._node_segments, self._elem_segments,
                      self._censuses, self._packs, self._dependents,
                      self._paths, self._summaries):
            table.clear()
        self._locations = {}

    def invalidate_all(self) -> None:
        """Drop every cache entry (scrub's repair of last resort; no
        update or recompression path calls it)."""
        self._clear()
        self.wholesale_invalidations += 1

    def to_dict(self) -> dict:
        """Flat numeric view (the shared stats-object protocol): the
        eviction counts and the pack counts of :meth:`kernel_info`."""
        return dict(self.kernel_info(), evicted_rules=self.evicted_rules,
                    cached_rules=len(self._node_segments))

    # ------------------------------------------------------------------
    # rule packs
    # ------------------------------------------------------------------
    def pack(self, head: Symbol) -> RulePack:
        """The rule's pack, building it (and its callees') lazily.  The
        walks' inner loops probe ``_packs`` directly and call this only
        on a miss, so warm per-step probes count no hit."""
        existing = self._packs.get(head)
        if existing is not None:
            self.hits += 1
            return existing
        self.misses += 1
        return self._build(head)

    def peek(self, head: Symbol) -> Optional[RulePack]:
        """The cached pack or ``None`` -- no build, no hit/miss count."""
        return self._packs.get(head)

    def bind_metrics(self, registry) -> None:
        """Count pack builds and evictions in ``registry`` too (hits and
        misses reach it through the ``repro_kernel`` gauge source)."""
        self._m_builds = registry.counter(
            "repro_kernel_builds_total", "Flat rule packs built")
        self._m_evictions = registry.counter(
            "repro_kernel_evictions_total",
            "Flat rule packs evicted through the observer channel")

    @property
    def rules_packed(self) -> int:
        return len(self._packs)

    @property
    def bytes_packed(self) -> int:
        """Packed bytes across every cached pack, summed on demand (the
        per-pack total moves when label counts attach lazily)."""
        return sum(pack.nbytes for pack in self._packs.values())

    def kernel_info(self) -> dict:
        """Pack stats for status surfaces (``durable status --json``,
        the ``repro_kernel`` gauge source)."""
        return {key: getattr(self, key) for key in (
            "rules_packed", "bytes_packed", "builds", "evictions", "hits",
            "misses", "wholesale_invalidations")}

    @property
    def kernel(self) -> "GrammarIndex":
        """The index itself, which owns the packs: the name the
        reference benchmark's runner reads the pack counts through."""
        return self

    @property
    def censused_rule_count(self) -> int:
        """How many rules currently have a label census."""
        return len(self._censuses)

    def peek_census(self, head: Symbol) -> Optional[Dict[str, int]]:
        """The rule's cached census or ``None`` -- nothing is computed
        (audits)."""
        return self._censuses.get(head)

    def rule_width(self, head: Symbol) -> int:
        """RHS nodes of the rule, like ``Grammar.rule_width`` -- read
        off the rule's pack when it has one instead of walking the body
        (the per-write probe of the shard policy)."""
        pack = self._packs.get(head)
        if pack is None:
            return self._grammar.rule_width(head)
        return len(pack.kind)

    def cached_rules(self) -> Tuple[Symbol, ...]:
        """The rules with materialized segments, for external audits
        (the storage scrub verifies exactly these against a fresh
        recomputation and evicts the ones that drifted)."""
        return tuple(self._node_segments)

    # ------------------------------------------------------------------
    # snapshot state (the serializable half of the cache)
    # ------------------------------------------------------------------
    def export_segments(self) -> Tuple[Dict[Symbol, tuple], Dict]:
        """Per-rule (node, element) segment lists and label censuses for
        every rule.

        Forces the whole reachable grammar first, so a snapshot built
        from this restores counting, addressing and label counts for
        *all* rules.  The rule packs are deliberately not exported --
        they reference live ``Node`` objects and rebuild lazily per rule
        on first descent.
        """
        for head in (self._grammar.start, *self._grammar.rules):
            self.label_census(head)  # unreachable-but-live rules, if any
        return {
            head: (list(self._node_segments[head]),
                   list(self._elem_segments[head]))
            for head in self._node_segments
        }, {head: dict(census) for head, census in self._censuses.items()}

    def import_segments(
        self, segments: Dict[Symbol, Tuple[List[int], List[int]]],
        censuses: Optional[Dict[Symbol, Dict[str, int]]] = None,
    ) -> None:
        """Adopt snapshot segment lists and censuses without
        recomputation (``rules_censused`` stays untouched).

        Rebuilds the reverse call edges from the grammar so per-rule
        observer evictions keep cascading correctly over imported
        entries.  Counting queries (``element_count``, segments, label
        counts) are answered straight from the imported tables; descents
        build the rule packs lazily, one rule at a time.
        """
        grammar = self._grammar
        # A fresh table generation, not an eviction event: packs
        # rebuild lazily per rule (no wholesale-invalidation count --
        # snapshot opens must report ``rules_packed == 0`` cleanly).
        self._clear()
        for head, (node_segs, elem_segs) in segments.items():
            if head not in grammar.rules:
                raise GrammarError(
                    f"segments for unknown rule {head!r}"
                )
            if len(node_segs) != head.rank + 1 or \
                    len(elem_segs) != head.rank + 1:
                raise GrammarError(
                    f"rule {head!r}: segment arity does not match rank "
                    f"{head.rank}"
                )
            self._node_segments[head] = list(node_segs)
            self._elem_segments[head] = list(elem_segs)
        for head, census in (censuses or {}).items():
            if head not in self._node_segments:
                raise GrammarError(f"label census for unknown rule {head!r}")
            self._censuses[head] = Counter(census)
        for head in self._node_segments:
            walk = [grammar.rhs(head)]
            seen: Set[Symbol] = set()
            while walk:
                node = walk.pop()
                symbol = node.symbol
                if symbol.is_nonterminal and symbol not in seen:
                    seen.add(symbol)
                    self._dependents.setdefault(symbol, set()).add(head)
                walk.extend(node.children)

    # ------------------------------------------------------------------
    # lazy cold build (bottom-up along the call DAG)
    # ------------------------------------------------------------------
    def _ensure(self, head: Symbol) -> None:
        """Make ``head``'s segments available (those adopted from a
        snapshot answer without a pack; descents ask the kernel)."""
        if head not in self._node_segments:
            self._build(head)

    def _build(self, head: Symbol) -> RulePack:
        """The cold builder: pack ``head`` -- after packing, bottom-up,
        every callee whose segments are missing -- and return its pack.
        Per rule: one preorder flatten, one reverse pass for the sizes,
        and the segments read off the finished columns."""
        grammar = self._grammar
        node_segments = self._node_segments
        elem_segments = self._elem_segments
        dependents = self._dependents
        # Flattened, waiting for callees: exactly the rules on the
        # current descent path, so meeting one again is a cycle.
        waiting: Dict[Symbol, tuple] = {}
        stack = [head]
        while stack:
            current = stack[-1]
            flat = waiting.get(current)
            if flat is None:
                if current is not head and current in node_segments:
                    stack.pop()  # reached twice; built the first time
                    continue
                flat = flatten(grammar.rhs(current), _SYMBOLS, {}, ())
                missing = [c for c in flat[3] if c not in node_segments]
                if missing:
                    for callee in missing:
                        if callee in waiting or callee is current:
                            raise GrammarError(
                                f"grammar is recursive: cycle through "
                                f"{callee!r}"
                            )
                    waiting[current] = flat
                    stack.extend(missing)
                    continue
            else:
                del waiting[current]
            stack.pop()
            columns, fresh, _carried, calls = flat
            measure(columns, fresh, node_segments, elem_segments)
            pack = RulePack(current, columns, calls)
            if current not in node_segments:  # else: a snapshot's
                (node_segments[current], elem_segments[current],
                 pack.routes) = _segments(
                    pack, node_segments, elem_segments, self._packs)
            pack.node_segs = node_segments[current]
            pack.elem_segs = elem_segments[current]
            for callee in calls:
                dependents.setdefault(callee, set()).add(current)
            self._packs[current] = pack
            self.builds += 1
            self._m_builds.inc()
        return pack

    def _routes(self, pack: RulePack) -> list:
        """``pack.routes``, computed -- callees first -- where a write
        dropped them or a snapshot supplied segments without packs."""
        stack = [pack]
        while stack:
            top = stack.pop()
            top.routes = _segments(top, self._node_segments,
                                   self._elem_segments, self._packs)[2]
            if top.routes is None:  # the callees' first, then again
                callees = map(self.pack, top.calls)
                stack += [top] + [c for c in callees if c.routes is None]
        return pack.routes

    # ------------------------------------------------------------------
    # label census (lazy, callees first, from the rule bodies) and the
    # match summaries of the query walk
    # ------------------------------------------------------------------
    def label_census(self, head: Symbol) -> Dict[str, int]:
        """Elements per label generated by ``head``'s body, callees
        included, parameters contributing 0 (read-only).  A missing
        census costs one walk of the body per rule without one -- no
        pack is built for it, only segments where they are missing."""
        censuses = self._censuses
        if head not in censuses:
            self._ensure(head)  # a census only beside segments
            stack = [head]
            while stack:
                current = stack.pop()
                if current in censuses:  # queued twice
                    continue
                census, missing = Counter(), []
                walk = [self._grammar.rhs(current)]
                while walk:
                    node = walk.pop()
                    symbol = node.symbol
                    if symbol.is_nonterminal:
                        below = censuses.get(symbol)
                        if below is None:
                            missing.append(symbol)
                        else:
                            census.update(below)
                    elif symbol.is_terminal and not symbol.is_bottom:
                        census[symbol.name] += 1
                    walk.extend(node.children)
                if missing:  # the callees first, then this rule again
                    stack += [current] + missing
                    continue
                censuses[current] = census
                self.rules_censused += 1
        return censuses[head]

    def rule_label_count(self, head: Symbol, label: str) -> int:
        """Elements labeled ``label`` generated by ``head``'s body."""
        return self.label_census(head).get(label, 0)

    def document_label_count(self, label: str) -> int:
        """Occurrences of ``label`` in the document -- ``O(1)`` after the
        start rule's census (the fast path behind ``count('//x')``)."""
        return self.rule_label_count(self._grammar.start, label)

    def automaton(self, steps: tuple, build: Callable) -> object:
        """The path's automaton, kept for the :data:`_PATHS` latest paths."""
        paths = self._paths
        states = paths.pop(steps, None)
        if states is None:
            states = build(steps)
            if len(paths) >= _PATHS:
                for state in paths.pop(next(iter(paths))).interned.values():
                    for head in state[3] or ():
                        del self._summaries[head][id(state)]
        paths[steps] = states
        return states

    def keep_summary(self, steps: tuple, state: tuple, head: Symbol,
                     summary: tuple) -> None:
        """Keep ``head``'s summary in the ``steps`` automaton's ``state``."""
        state[3][head] = summary
        self._summaries.setdefault(head, {})[id(state)] = (steps, state)

    # ------------------------------------------------------------------
    # whole-document totals
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """``|valG(S)|`` in nodes (including ``⊥``), without decompression."""
        start = self._grammar.start
        self._ensure(start)
        return sum(self._node_segments[start])

    @property
    def element_count(self) -> int:
        """Number of non-``⊥`` nodes of ``valG(S)``: the document's elements."""
        start = self._grammar.start
        self._ensure(start)
        return sum(self._elem_segments[start])

    # ------------------------------------------------------------------
    # element addressing
    # ------------------------------------------------------------------
    def _sizes(
        self, pack: RulePack, pos: int, env: Tuple[_Binding, ...]
    ) -> Tuple[int, int]:
        """Generated (nodes, elements) of the RHS subtree at ``pos`` of
        ``pack``, with the parameters below it bound by ``env``."""
        nodes = pack.nnodes[pos]
        elems = pack.nelems[pos]
        for param in pack.params[pos]:
            binding = env[param - 1]
            nodes += binding[0]
            elems += binding[1]
        return nodes, elems

    def _locate_element(
        self, element_index: int
    ) -> Tuple[int, RulePack, int, Tuple[_Binding, ...], List[PathStep]]:
        """Descend the derivation to the ``element_index``-th element.

        Returns ``(binary preorder index, pack and position of the
        generating terminal, binding environment, derivation path)``,
        and memoizes them with what :meth:`_axes` needs: everything the
        public queries ask about an element comes from this one
        ``O(depth · rule-width)`` walk.
        The recorded :class:`PathStep` list is exactly what
        :func:`repro.grammar.navigation.resolve_preorder_path` would
        produce for the resulting preorder index, so path isolation can
        replay it without a second descent.
        """
        check_element_index(element_index)
        total = self.element_count
        if element_index >= total:
            raise IndexError(
                f"element index {element_index} out of range "
                f"({total} elements)"
            )
        located = self._locations.get(element_index)
        if located is None:
            located = kernel_locate_element(self, element_index)
            if len(self._locations) >= 4096:
                self._locations.clear()
            self._locations[element_index] = located
        position, pack, pos, env, steps = located[:5]
        return position, pack, pos, env, list(steps)

    def _axes(self, element_index: int) -> Tuple[Optional[int], int]:
        """``(parent element index, document depth)`` off the element's
        memoized descent: the last element the walk left by a first-child
        (slot 1) edge -- next-sibling edges stay on one child list -- and
        the number of those edges.  For each recorded hop into an argument
        the callee's route summary (``RulePack.routes``) stands in for the
        body path skipped; candidates further down index higher."""
        self._locate_element(element_index)
        located = self._locations[element_index]
        parent, depth, hops = located[5:]
        for callee, slot, pack, pos, env, base in hops:
            delta, point = (callee.routes or self._routes(callee))[slot - 1]
            depth += delta
            if point is not None:
                # Add what the expansion holds in front of that segment.
                segment, offset = point
                child = pos + 1
                for t in range(segment):
                    base += callee.elem_segs[t] \
                        + self._sizes(pack, child, env)[1]
                    child += pack.span[child]
                if parent is None or base + offset > parent:
                    parent = base + offset
        self._locations[element_index] = located[:5] + (parent, depth, ())
        return parent, depth

    def preorder_of_element(self, element_index: int) -> int:
        """Binary preorder index of the ``element_index``-th element."""
        return self._locate_element(element_index)[0]

    def iter_element_symbols(
        self, start: int, stop: Optional[int] = None
    ) -> Iterator[Symbol]:
        """Element symbols ``start..stop-1`` in document order.

        The element window of :func:`~repro.grammar.kernel.kernel_window`:
        reaching ``start`` is one count-guided descent, O(depth ·
        rule-width), instead of streaming the ``start`` preceding
        elements -- the range iterator behind
        :meth:`repro.api.CompressedXml.tags`.
        """
        # From-the-end indices are ambiguous under concurrent updates;
        # reject negative bounds uniformly instead of silently yielding an
        # empty window for a negative ``stop`` (slicing-like callers
        # would misread that as "window past the end").
        check_element_index(start, "element window start")
        if stop is not None:
            check_element_index(stop, "element window stop")
        total = self.element_count
        if stop is None or stop > total:
            stop = total
        return kernel_window(self, start, stop, ELEMENTS)

    def resolve_element(
        self, element_index: int
    ) -> Tuple[int, List[PathStep]]:
        """One-descent combo for the update path: the element's binary
        preorder index *and* its derivation path, ready for
        :func:`repro.updates.path_isolation.isolate` to replay."""
        located = self._locate_element(element_index)
        return located[0], located[4]

    def tag_of(self, element_index: int) -> str:
        """Label of the ``element_index``-th element (document order)."""
        _pos, pack, pos, *_rest = self._locate_element(element_index)
        return pack.sym_names[pos]

    def _locate_fcns(self, element_index: int, start=None):
        """:meth:`_locate_element` -- or the kernel descent to the first
        element of the ``start`` binding -- for callers about to read the
        element's two binary slots (``pos + 1`` and, behind that subtree,
        ``pos + 1 + span[pos + 1]``): it must be a rank-2 FCNS element."""
        located = (self._locate_element(element_index) if start is None
                   else kernel_locate_element(self, 0, start)[:5])
        pack, pos = located[1], located[2]
        if pack.rank[pos] != 2:
            raise GrammarError(
                f"element {element_index} is generated by "
                f"{pack.sym_objs[pos]!r}; expected a binary-encoded "
                "element of rank 2"
            )
        return located

    def end_of_children_position(
        self, element_index: int
    ) -> Tuple[int, List[PathStep]]:
        """The ``⊥`` terminating an element's child list, as
        :meth:`resolve_element` gives any other write target: its binary
        preorder index and derivation path.

        In the first-child/next-sibling encoding the terminator is the
        preorder-last node of the element's first-child subtree, so it
        sits ``size(subtree(u.1))`` positions after the element ``u``,
        and its path is the element's own descent continued down that
        subtree's last-child path (:func:`kernel_last_node`).
        """
        position, pack, pos, env, steps = self._locate_fcns(element_index)
        first_child_nodes, _ = self._sizes(pack, pos + 1, env)
        steps.pop()  # the element's own terminal step
        return (position + first_child_nodes,
                kernel_last_node(self, pack, pos + 1, env, steps))

    # ------------------------------------------------------------------
    # document-tree navigation (axes over element indices)
    # ------------------------------------------------------------------
    def _child_slot_elements(self, element_index: int) -> Tuple[int, int]:
        """Elements generated below the element's two binary slots:
        ``(descendants, following siblings + their descendants)``."""
        _position, pack, pos, env, _steps = self._locate_fcns(element_index)
        _nodes, below = self._sizes(pack, pos + 1, env)
        _nodes, after = self._sizes(
            pack, pos + 1 + pack.span[pos + 1], env)
        return below, after

    def parent_of(self, element_index: int) -> Optional[int]:
        """Element index of the document parent (``None`` for the root):
        the last element its descent -- the one ``tag_of`` and every
        other axis share -- left by a first-child edge."""
        return self._axes(element_index)[0]

    def depth_of(self, element_index: int) -> int:
        """Document depth of an element (the root has depth 0)."""
        return self._axes(element_index)[1]

    def first_child(self, element_index: int) -> Optional[int]:
        """Element index of the first child, or ``None`` for a leaf.

        In document order the first child immediately follows its parent,
        so the answer is ``element_index + 1`` whenever the element's
        first-child slot generates any element at all.
        """
        below, _after = self._child_slot_elements(element_index)
        return element_index + 1 if below else None

    def next_sibling(self, element_index: int) -> Optional[int]:
        """Element index of the next sibling, or ``None`` for a last child.

        The next sibling follows the element's whole subtree in document
        order: ``element_index + 1 + #descendants``, provided the
        next-sibling slot generates any element.
        """
        below, after = self._child_slot_elements(element_index)
        return element_index + 1 + below if after else None

    def children_with_tags(self, element_index: int) -> Iterator[Tuple[int, str]]:
        """``(element index, tag)`` of the direct children, document order.

        One root descent for the parent; each child is located from the
        slot that holds it -- the parent's first-child slot, the previous
        child's next-sibling slot -- in ``O(nesting)`` steps, yielding its
        terminal (the tag for free) *and* the sizes that address the next
        sibling: the primitive child-axis query steps ride.  Past a
        structural write the next child is located by index from the root.
        """
        pack, pos, env = self._locate_fcns(element_index)[1:4]
        generation = self._locations
        slot = pos + 1
        child = element_index + 1
        more = self._sizes(pack, slot, env)[1]
        while more:
            start = (pack, slot, env) if generation is self._locations else None
            generation = self._locations
            pack, pos, env = self._locate_fcns(child, start)[1:4]
            # Both sizes are read before the yield: the consumer may
            # write before it resumes this walk.
            slot = pos + 1 + pack.span[pos + 1]
            more = self._sizes(pack, slot, env)[1]
            below = self._sizes(pack, pos + 1, env)[1]
            yield child, pack.sym_names[pos]
            child += 1 + below

    def children(self, element_index: int) -> Iterator[int]:
        """Element indices of the direct children, in document order: one
        descent plus ``O(nesting)`` per child, independent of the subtree
        sizes skipped between siblings."""
        for child, _tag in self.children_with_tags(element_index):
            yield child

    # ------------------------------------------------------------------
    # raw segment access (the query subsystem's substrate)
    # ------------------------------------------------------------------
    def node_segments(self, head: Symbol) -> List[int]:
        """The rule's node-count segments ``[n0, ..., nk]`` -- the
        paper's ``size(A, 0..k)`` (Section III-A); same caching and
        invalidation as :meth:`element_segments`."""
        self._ensure(head)
        return self._node_segments[head]

    def element_segments(self, head: Symbol) -> List[int]:
        """The rule's element-count segments ``[e0, ..., ek]``: elements
        generated by the body before the first parameter, between
        consecutive parameters (preorder), and after the last.

        The query engine uses them to hop over a rule body whose label
        census is zero without walking it: the virtual preorder is
        ``seg0, arg1, seg1, ..., argk, segk``, so the element cursor can
        advance by whole body segments while only the argument subtrees
        are visited.  Same caching/invalidation as every other table.
        """
        self._ensure(head)
        return self._elem_segments[head]
