"""Flat-column rule kernel for the descent/walk inner loops.

Every hot read path of this code base -- element addressing, write
targets, query walks, windowed serialization -- descends the derivation by
walking rule bodies.  Walking the ``Node`` graph directly pays, per step,
several attribute loads (``node.symbol``), property calls
(``symbol.is_parameter`` & friends) and a tree walk for every subtree
size.  This module packs each rule body once into parallel preorder
columns -- the integer-sequence representation of Maneth & Sebastian's
structural self-indexes -- so the same descents become integer compares
and list reads:

* :class:`SymbolTable` -- process-wide symbol interning (symbol object ->
  small int id, identity-keyed like the symbols themselves),
* :class:`RulePack` -- one rule body in preorder as parallel columns:
  ``(kind, symbol id, rank, subtree span, subtree-node-count,
  subtree-element-count, parameters below)`` per RHS node -- the rule's
  size table, the only one -- plus parallel object lists so kernel
  descents still return live ``Node``/``Symbol`` references and
  :class:`~repro.grammar.navigation.PathStep` paths; one of the per-rule
  facts :class:`~repro.grammar.index.GrammarIndex` owns, builds lazily,
  splices at the write point and drops with its one cascade,
* :func:`flatten` / :func:`measure` -- the two passes behind those
  columns, for a whole rule (cold build) or a spliced-in subtree,
* the kernel walks the index and query layers dispatch to:
  :func:`kernel_locate_element` -- the one element descent behind tag,
  axes, slots and every write target, from the start rule or a located
  binding, bisecting wide packs' sibling chains (``RulePack.chains``)
  --, :func:`kernel_last_node` -- its continuation to an
  element's child-list terminator, the target of an append -- and
  :func:`kernel_window` -- the one windowed walk, in nodes or in
  elements, behind ``tags`` windows and ``subtree_xml``; each takes the
  index and probes its pack dict directly.

Epoch/MVCC interplay
--------------------
Packs reference the live rule bodies, so they follow every mutation of
them: patched by a splice, dropped by an eviction.  A pinned
:class:`~repro.view.SnapshotView` owns its own :class:`GrammarIndex` over
a frozen grammar (private, stable copy-on-write bodies), hence its own
packs, which never change -- pinned readers keep their flat tables
exactly like the CoW rule tables.
The *live* document stays kernel-served while reader pins exist: the flat
walk performs no rule-body reads, and needs none, because *write points
preserve* -- every in-place rewrite calls
:meth:`~repro.grammar.slcf.Grammar.preserve_for_write` (or goes through
``set_rule``/``remove_rule``/``preserve_all``, which preserve directly)
before its first surgery on a rule, so a pinned overlay is complete
whether or not a hooked ``rhs()`` read preceded the rewrite.

One path
--------
The kernel is the only implementation of these walks; there is no
switch (:data:`CHAIN_MIN_NODES` picks where a descent bisects).  The
independent reference semantics tests compare against are
:mod:`repro.grammar.navigation` (``resolve_preorder_path``,
``stream_elements``, ``stream_preorder``),
:func:`repro.grammar.derivation.expand` and :mod:`repro.query.naive`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from repro.grammar.navigation import PathStep
from repro.trees.symbols import Symbol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.grammar.index import GrammarIndex

__all__ = [
    "SymbolTable",
    "RulePack",
    "flatten",
    "measure",
    "global_symbol_table",
    "kernel_locate_element",
    "kernel_last_node",
    "kernel_window",
    "NODES",
    "ELEMENTS",
]

#: RHS-node kind codes (the ``kind`` column): integer compares replace the
#: ``is_terminal``/``is_parameter``/``is_bottom`` property-call chain.
KIND_BOTTOM = 0
KIND_ELEMENT = 1
KIND_NONTERMINAL = 2
KIND_PARAMETER = 3


class SymbolTable:
    """Process-wide interning of :class:`Symbol` objects to small ints.

    Symbols are already interned per :class:`~repro.trees.symbols.Alphabet`
    and compared by identity, so the table is identity-keyed too: two
    alphabets (e.g. a live document and a snapshot reload) may both intern
    a ``"entry"/2`` terminal and receive distinct ids -- ids are stable
    per symbol *object*, which is exactly the equality the packs need.
    The table only ever grows (append-only), so ids never get reused and
    packs from different documents can safely coexist in one process.
    """

    __slots__ = ("_ids", "_symbols", "info")

    def __init__(self) -> None:
        self._ids: Dict[Symbol, int] = {}
        self._symbols: List[Symbol] = []
        #: pack-build memo: Symbol -> ``(kind, code, rank, name)``.
        #: Symbols are immutable (relabels intern fresh objects), so
        #: entries never go stale; the dict collapses the per-node
        #: property cascade of a pack build into one probe.
        self.info: Dict[Symbol, Tuple[int, int, int, str]] = {}

    def id_of(self, symbol: Symbol) -> int:
        """The interned id, assigning the next one on first sight."""
        sid = self._ids.get(symbol)
        if sid is None:
            sid = len(self._symbols)
            self._ids[symbol] = sid
            self._symbols.append(symbol)
        return sid

    def symbol_of(self, sid: int) -> Symbol:
        """Inverse lookup (debugging / introspection)."""
        return self._symbols[sid]

    def describe(self, symbol: Symbol) -> Tuple[int, int, int, str]:
        """``info[symbol]``, computing and memoising it on first sight."""
        inf = self.info.get(symbol)
        if inf is None:
            if symbol.is_parameter:
                kind, code = KIND_PARAMETER, symbol.param_index
            elif symbol.is_nonterminal:
                kind, code = KIND_NONTERMINAL, self.id_of(symbol)
            else:
                kind = KIND_BOTTOM if symbol.is_bottom else KIND_ELEMENT
                code = self.id_of(symbol)
            inf = self.info[symbol] = (kind, code, symbol.rank, symbol.name)
        return inf

    def __len__(self) -> int:
        return len(self._symbols)


_GLOBAL_SYMBOLS = SymbolTable()


def global_symbol_table() -> SymbolTable:
    """The one process-wide table every index packs with."""
    return _GLOBAL_SYMBOLS


class RulePack:
    """One rule body, flattened to parallel preorder columns.

    The columns *are* the rule's size table -- there is no second,
    node-keyed copy.  For RHS preorder position ``i``:

    * ``kind[i]`` -- :data:`KIND_BOTTOM` / :data:`KIND_ELEMENT` /
      :data:`KIND_NONTERMINAL` / :data:`KIND_PARAMETER`,
    * ``sym[i]`` -- interned symbol id; for parameters the 1-based
      parameter index (the binding-environment slot),
    * ``rank[i]`` -- child count; the first child sits at ``i + 1``,
    * ``span[i]`` -- RHS nodes of the subtree at ``i``; sibling subtrees
      are adjacent, so the next sibling sits at ``i + span[i]``,
    * ``nnodes[i]`` / ``nelems[i]`` -- generated subtree sizes *without*
      parameter contributions (bindings supply the argument sizes),
    * ``params[i]`` -- tuple of parameter indices occurring below ``i``,
    * ``node_objs[i]`` / ``sym_objs[i]`` / ``sym_names[i]`` -- the live
      ``Node``, its ``Symbol``, and the symbol's name, so kernel descents
      return live objects (the update layer replays ``PathStep.node``),
    * ``steps[i]`` -- one shared, immutable :class:`PathStep` per
      position (``enters_rule`` true at nonterminal positions, false at
      terminals; ``None`` at parameters).  Consumers only ever read
      ``.node`` / ``.enters_rule``, so every descent through a position
      can return the same step object instead of allocating one.

    All eleven are plain lists.  A pack is built once, *spliced* by local
    writes (:meth:`~repro.grammar.index.GrammarIndex.rule_spliced`
    exchanges the entries of the nodes that went for those of the nodes
    that came and patches the ancestors' sizes -- no entry holds an
    absolute position, so a subtree that merely moved keeps its entries)
    and evicted only by non-local rewrites.  The exchange is made on
    copies of the columns, published as a successor pack: no entry of a
    published pack ever moves, so a generator walk suspended across a
    write keeps its place (label and size entries are patched in place
    -- that moves nothing).  ``calls`` counts the applications per
    callee (the index's reverse call edges, kept exact; handed on to
    the successor); ``node_segs`` / ``elem_segs`` alias the index's
    segment lists of this rule, which writes patch in place.

    ``routes`` summarises, per parameter ``y_i``, the path from the
    rule's root to it as ``(depth delta, parent point)``: its first-child
    edges, and the ``(segment, element offset)`` -- in the expansion
    ``seg0 arg1 seg1 ... argk segk`` -- of the last element it leaves by
    one (``None``: ``y_i`` hangs on the root's sibling chain).  A fact
    about ``val(rule)``; ``None`` while unknown (``GrammarIndex._routes``).

    ``chains``: head position -> ``(offsets, done)``, the offsets from the
    head of itself and of each continuation while the position is a
    *link* -- an FCNS element (its next sibling) or an application whose
    callee's last node segment is empty (its last argument, generated
    last under the same parent: the route is ``(0, None)``) -- as far as
    a descent needed (``done``: to a non-link).  No invalidation: sizes
    are read live and only a rewrite, dropping this pack, changes a
    callee's last segment.  A splice of ``[p, stop)`` carries them on
    (``GrammarIndex.rule_spliced``): heads from ``stop`` shift, one
    before ``p`` keeps its offsets below ``p`` (not ``done`` if cut).

    ``walk`` is the tuple of the eleven columns in the order above (a
    pack switch inside a walk is one attribute load plus one unpack).
    """

    __slots__ = (
        "head", "kind", "sym", "rank", "span",
        "nnodes", "nelems", "params", "node_objs", "sym_objs", "sym_names",
        "steps", "calls", "node_segs", "elem_segs", "routes", "chains",
        "_label_arrays", "walk",
    )

    def __init__(self, head: Symbol, columns: tuple,
                 calls: Dict[Symbol, int]) -> None:
        self.head = head
        (self.kind, self.sym, self.rank, self.span, self.nnodes,
         self.nelems, self.params, self.node_objs, self.sym_objs,
         self.sym_names, self.steps) = columns
        self.walk = columns
        self.calls = calls
        self.routes: Optional[list] = None
        self.chains: Dict[int, Tuple[Tuple[int, ...], bool]] = {}
        #: per-label counts for the query walk, derived from this rule's
        #: census and its callees' and dropped with them (a label-class
        #: fact of ``GrammarIndex``: a census change below an application
        #: -- a callee relabel included -- changes this rule's counts
        #: though not its structure).
        self._label_arrays: Dict[str, list] = {}

    @property
    def nbytes(self) -> int:
        """Payload bytes (the memory-footprint gauge): eight per entry
        of the six integer columns and of the attached label counts."""
        return 8 * len(self.kind) * (6 + len(self._label_arrays))

    def label_counts(self, index: "GrammarIndex", label: str) -> list:
        """Per-position ``label`` occurrence counts (census substrate of
        the kernel query walk), aligned with the other columns.  Built in
        one pass over the columns: prefix sums of the per-position
        occurrences (an element's own label, an application's callee
        census), read off over each subtree's ``span``."""
        cached = self._label_arrays.get(label)
        if cached is not None:
            return cached
        index.label_census(self.head)  # counts only beside the census
        kind, span, sym_objs, names = \
            self.kind, self.span, self.sym_objs, self.sym_names
        before = [0] * (len(kind) + 1)
        total = 0
        for i, k in enumerate(kind):
            before[i] = total
            if k == KIND_ELEMENT:
                total += names[i] == label
            elif k == KIND_NONTERMINAL:
                total += index.rule_label_count(sym_objs[i], label)
        before[-1] = total
        counts = self._label_arrays[label] = [
            before[i + s] - before[i] for i, s in enumerate(span)]
        return counts


#: The label entries of a carried subtree's stand-in (never read).
_STAND_IN = (KIND_BOTTOM, 0, 0, None, None, "", None)


def flatten(root, symbols: SymbolTable,
            moved: Dict[int, Tuple[int, int]], old: tuple):
    """Columns for the subtree at ``root``: ``(columns, fresh, carried,
    calls)``.

    ``moved`` maps ``id(node)`` to the ``(start, stop)`` extent a subtree
    already occupies in the columns ``old``.  Such a subtree is not
    walked: it gets *one* stand-in entry holding its sizes, listed in
    ``carried`` as ``(entry, start, stop)``.  Every other node is
    *fresh*: it gets its label and identity entries here and its sizes
    in :func:`measure`, which takes their entry indices ``fresh``.
    ``calls`` counts the fresh applications per callee.  The cold build
    of a rule is the case ``moved == {}``.
    """
    rows: List[tuple] = []
    fresh: List[int] = []
    carried: List[Tuple[int, int, int]] = []
    calls: Dict[Symbol, int] = {}
    si = symbols.info
    stack = [root]
    pop = stack.pop
    while stack:
        node = pop()
        if moved:
            extent = moved.get(id(node))
            if extent is not None:
                carried.append((len(rows), extent[0], extent[1]))
                rows.append(_STAND_IN)
                continue
        symbol = node.symbol
        inf = si.get(symbol)
        if inf is None:
            inf = symbols.describe(symbol)
        k, code, r, name = inf
        step = None
        if k <= KIND_ELEMENT:
            step = PathStep(node, False)
        elif k == KIND_NONTERMINAL:
            step = PathStep(node, True)
            calls[symbol] = calls.get(symbol, 0) + 1
        fresh.append(len(rows))
        rows.append((k, code, r, node, symbol, name, step))
        if r:
            stack.extend(reversed(node.children))
    (kind, sym, rank, node_objs, sym_objs, sym_names,
     steps) = map(list, zip(*rows))
    n = len(rows)
    span = [1] * n
    nnodes = [0] * n
    nelems = [0] * n
    params: List[Tuple[int, ...]] = [()] * n
    for entry, start, stop in carried:
        span[entry] = stop - start
        nnodes[entry] = old[4][start]
        nelems[entry] = old[5][start]
        params[entry] = old[6][start]
    columns = (kind, sym, rank, span, nnodes, nelems, params, node_objs,
               sym_objs, sym_names, steps)
    return columns, fresh, carried, calls


def measure(columns: tuple, fresh: List[int],
            node_segments: Dict[Symbol, List[int]],
            elem_segments: Dict[Symbol, List[int]]) -> None:
    """Fill the size columns (``span``, ``nnodes``, ``nelems``,
    ``params``) of the ``fresh`` entries :func:`flatten` left open, in
    one reverse pass: every node is visited after its descendants, its
    first child is the next entry and sibling subtrees are adjacent.
    A carried subtree is one entry wide here whatever its ``span``, so
    the pass steps by entry count (``stride``) and sums the spans.  An
    application contributes its callee's whole body from the segment
    tables, which must hold every callee.
    """
    (kind, sym, rank, span, nnodes, nelems, params, _nodes, sym_objs,
     _names, _steps) = columns
    stride = [1] * len(kind)
    totals: Dict[Symbol, Tuple[int, int]] = {}
    for i in reversed(fresh):
        k = kind[i]
        if k == KIND_PARAMETER:
            params[i] = (sym[i],)
            continue
        if k == KIND_NONTERMINAL:
            symbol = sym_objs[i]
            own = totals.get(symbol)
            if own is None:
                own = totals[symbol] = (sum(node_segments[symbol]),
                                        sum(elem_segments[symbol]))
            nodes, elems = own
        else:
            nodes = 1
            elems = k  # KIND_BOTTOM == 0, KIND_ELEMENT == 1
        r = rank[i]
        if r:
            below: Tuple[int, ...] = ()
            width = 1
            c = i + 1
            for _ in range(r):
                nodes += nnodes[c]
                elems += nelems[c]
                if params[c]:
                    below += params[c]
                width += span[c]
                c += stride[c]
            span[i] = width
            stride[i] = c - i
            if below:
                params[i] = below
        nnodes[i] = nodes
        nelems[i] = elems


# ----------------------------------------------------------------------
# kernel walks
# ----------------------------------------------------------------------
# Binding environments during kernel descents are tuples of 5-tuples
#   (nodes, elems, outer_env, outer_pack, pos)
# -- the argument's generated sizes (what ``GrammarIndex._sizes`` and the
# extent/axis helpers add for a parameter below a located element) and
# where the flat walk continues when it reaches that parameter.
#
# Every walk below keeps the current pack's columns in locals via one
# ``pack.walk`` unpack per pack switch, probes the pack cache with an
# inlined ``index._packs.get`` (falling back to ``index.pack`` on a
# miss), and appends the pack's *shared* per-position PathStep objects
# instead of allocating steps -- the three constant-factor levers the
# bench gates are built on.

#: The narrowest pack whose descents jump along chains: narrower bodies
#: are compressed rules with chains a few links long, where a step costs
#: less than a chain lookup.  ``weblog_tail_durable`` (a binary-counter
#: hierarchy of tiny rules) read ``query_p50_ms`` 0.062 / 0.046 / 0.044 /
#: 0.048 ms at 0 / 16 / 64 / 256 nodes (2-core x86, two seeds each).
CHAIN_MIN_NODES = 64


def _bound(column: list, params: list, env: tuple, at: int, slot: int) -> int:
    """``column[at]`` plus ``env``'s bindings (``slot`` 0: nodes, 1:
    elements) of the parameters below ``at``."""
    total = column[at]
    for p in params[at]:
        total += env[p - 1][slot]
    return total


def _continuation(index: "GrammarIndex", pack: RulePack, at: int) -> int:
    """Where a descent passes the link at ``at`` to (``-1``: no link)."""
    rank = pack.rank[at]
    if pack.kind[at] == KIND_ELEMENT and rank == 2:
        return at + 1 + pack.span[at + 1]
    sobj = pack.sym_objs[at]
    if pack.kind[at] != KIND_NONTERMINAL or not rank \
            or (index._packs.get(sobj) or index.pack(sobj)).node_segs[-1]:
        return -1
    at += 1
    for _ in range(rank - 1):
        at += pack.span[at]
    return at


def _chain_jump(index: "GrammarIndex", pack: RulePack, head: int,
                env: tuple, remaining: int, position: int):
    """Pass every link from ``head`` on whose continuation holds the
    target, as the descent would one by one (parent, depth, steps and
    hops stay): ``(pos, remaining, position)`` there.  Along a chain the
    element count ``F`` does not increase and ``F(head) - F(q)`` lie in
    front of position ``q``: the target is below the last ``q`` with
    ``F(q) >= F(head) - remaining``.  The chain is extended only as far
    as the target needs, and published by one assignment."""
    nnodes, nelems, params = pack.nnodes, pack.nelems, pack.params
    links, done = pack.chains.get(head) or ((0,), False)
    floor = _bound(nelems, params, env, head, 1) - remaining
    last = bisect_right(links, -floor, 1, key=lambda q: -_bound(
        nelems, params, env, head + q, 1)) - 1
    at = head + links[last]
    if last == len(links) - 1 and not done:
        grown = []
        follow = _continuation(index, pack, at)
        while follow >= 0:
            grown.append(follow - head)
            if _bound(nelems, params, env, follow, 1) < floor:
                break
            at = follow
            follow = _continuation(index, pack, at)
        pack.chains[head] = (links + tuple(grown), follow < 0)
    if at == head:
        return head, remaining, position
    return (at, _bound(nelems, params, env, at, 1) - floor,
            position + _bound(nnodes, params, env, head, 0)
            - _bound(nnodes, params, env, at, 0))


def kernel_locate_element(
    index: "GrammarIndex",
    element_index: int,
    start: Optional[tuple] = None,
):
    """The descent behind ``GrammarIndex._locate_element`` (bounds
    pre-checked there): ``(preorder index, pack, position, environment,
    steps, parent, depth, hops)`` -- parent and depth as the entered
    bodies and parent-free routes show them, plus one ``(callee, slot,
    pack, position, environment, expansion's first element)`` per other
    hop into an argument for ``GrammarIndex._axes`` to add.  With a ``start``
    binding ``(pack, pos, env)`` in place of the start rule, all counts
    are relative to that subtree, which must hold the target."""
    packs = index._packs
    if start is None:
        start = (index.pack(index.grammar.start), 0, ())
    pack, pos, env = start
    (kind, sym, rank, span, nnodes, nelems, params, _nodes, sym_objs,
     _names, step_at) = pack.walk
    remaining = element_index
    position = 0
    parent: Optional[int] = None
    depth = 0
    steps: List[PathStep] = []
    hops: List[tuple] = []

    while True:
        k = kind[pos]
        if k <= 1:  # terminal
            if k == 1:
                if remaining == 0:
                    steps.append(step_at[pos])
                    return (position, pack, pos, env, steps, parent, depth,
                            hops)
                remaining -= 1
                position += 1
                if rank[pos] == 2:
                    # FCNS element: descend into the content subtree
                    # (first child -- then this element is the target's
                    # document parent so far) or, by the walk invariant
                    # (``remaining`` < the current subtree's element
                    # count), directly into the sibling subtree without
                    # computing its size.
                    child = pos + 1
                    ce = nelems[child]
                    cn = nnodes[child]
                    pp = params[child]
                    if pp:
                        for p in pp:
                            b = env[p - 1]
                            cn += b[0]
                            ce += b[1]
                    if remaining < ce:
                        parent = element_index - remaining - 1
                        depth += 1
                        pos = child
                    else:
                        remaining -= ce
                        position += cn
                        pos = child + span[child]
                        if len(kind) >= CHAIN_MIN_NODES:
                            pos, remaining, position = _chain_jump(
                                index, pack, pos, env, remaining, position)
                    continue
            else:
                position += 1
            # Non-FCNS terminal: scan the first r-1 children, the last
            # inherits the target by the same invariant.
            r = rank[pos]
            child = pos + 1
            for _ in range(r - 1):
                ce = nelems[child]
                cn = nnodes[child]
                pp = params[child]
                if pp:
                    for p in pp:
                        b = env[p - 1]
                        cn += b[0]
                        ce += b[1]
                if remaining < ce:
                    break
                remaining -= ce
                position += cn
                child += span[child]
            pos = child
            continue

        if k == 3:  # parameter: hop to the bound argument
            b = env[sym[pos] - 1]
            pack = b[3]
            pos = b[4]
            env = b[2]
            (kind, sym, rank, span, nnodes, nelems, params, _nodes,
             sym_objs, _names, step_at) = pack.walk
            continue

        # Nonterminal application: its virtual preorder interleaves the
        # rule body's segments with the argument subtrees (seg0, arg1,
        # seg1, ..., argk, segk).  An argument target is descended into
        # directly; the callee's route summary stands in for the skipped
        # body path -- at once where that holds no parent, else (or when
        # a write dropped the summary) as a hop for ``_axes`` to resolve.
        # A body-segment target enters the rule with both counters
        # unchanged -- walking the body under the bindings reproduces
        # exactly the interleaved sequence.
        sobj = sym_objs[pos]
        callee = packs.get(sobj)
        if callee is None:
            callee = index.pack(sobj)
        r = rank[pos]
        callee_nodes = callee.node_segs
        callee_elems = callee.elem_segs
        descend_to = -1
        preceding_nodes = callee_nodes[0]
        preceding_elems = callee_elems[0]
        if remaining >= preceding_elems:
            child = pos + 1
            for child_pos in range(1, r + 1):
                ce = nelems[child]
                cn = nnodes[child]
                pp = params[child]
                if pp:
                    for p in pp:
                        b = env[p - 1]
                        cn += b[0]
                        ce += b[1]
                if remaining < preceding_elems + ce:
                    remaining -= preceding_elems
                    position += preceding_nodes
                    descend_to = child
                    break
                preceding_elems += ce + callee_elems[child_pos]
                preceding_nodes += cn + callee_nodes[child_pos]
                if remaining < preceding_elems:
                    break  # a body segment after this arg: enter
                child += span[child]
        if descend_to >= 0:
            route = callee.routes and callee.routes[child_pos - 1]
            if route and route[1] is None:
                depth += route[0]
                if child_pos == r and len(kind) >= CHAIN_MIN_NODES:
                    pos, remaining, position = _chain_jump(
                        index, pack, descend_to, env, remaining, position)
                    continue
            else:
                hops.append((callee, child_pos, pack, pos, env,
                             element_index - remaining - preceding_elems))
            pos = descend_to
            continue
        steps.append(step_at[pos])
        if r:
            outer_env = env
            child = pos + 1
            ce = nelems[child]
            cn = nnodes[child]
            pp = params[child]
            if pp:
                for p in pp:
                    b = outer_env[p - 1]
                    cn += b[0]
                    ce += b[1]
            if r == 1:
                env = ((cn, ce, outer_env, pack, child),)
            else:
                bindings = [(cn, ce, outer_env, pack, child)]
                for _ in range(r - 1):
                    child += span[child]
                    ce = nelems[child]
                    cn = nnodes[child]
                    pp = params[child]
                    if pp:
                        for p in pp:
                            b = outer_env[p - 1]
                            cn += b[0]
                            ce += b[1]
                    bindings.append((cn, ce, outer_env, pack, child))
                env = tuple(bindings)
        else:
            env = ()
        pack = callee
        pos = 0
        (kind, sym, rank, span, nnodes, nelems, params, _nodes,
         sym_objs, _names, step_at) = pack.walk


def kernel_last_node(
    index: "GrammarIndex",
    pack: RulePack,
    pos: int,
    env: Tuple,
    steps: List[PathStep],
) -> List[PathStep]:
    """Extend ``steps`` -- a located descent's path into ``pack`` at
    ``pos`` under ``env`` -- to the preorder-last node the subtree there
    generates, down its last-child path.  Behind an element's first-child
    slot that node is the element's child-list terminator.

    An application generates its last node in its last argument when the
    callee's last node segment is empty: the walk passes into that
    argument without a step.  Any other application is entered, and its
    last node lies in the body, so an entered rule's bindings are never
    read.  A parameter leaves the current rule for the bound argument:
    a descent to a node inside an argument does not enter the rule, so
    the rule's entry step is dropped -- the last step, since a rule this
    walk entered is never left.
    """
    packs = index._packs
    (kind, sym, rank, span, _nn, _ne, _params, _nodes, sym_objs, _names,
     step_at) = pack.walk
    while True:
        k = kind[pos]
        if k == KIND_PARAMETER:
            b = env[sym[pos] - 1]
            steps.pop()
            env, pack, pos = b[2], b[3], b[4]
            (kind, sym, rank, span, _nn, _ne, _params, _nodes, sym_objs,
             _names, step_at) = pack.walk
            continue
        r = rank[pos]
        if k == KIND_NONTERMINAL:
            sobj = sym_objs[pos]
            callee = packs.get(sobj)
            if callee is None:
                callee = index.pack(sobj)
            if callee.node_segs[-1]:
                steps.append(step_at[pos])
                env = ()
                pack = callee
                pos = 0
                (kind, sym, rank, span, _nn, _ne, _params, _nodes,
                 sym_objs, _names, step_at) = pack.walk
                continue
        elif not r:
            steps.append(step_at[pos])
            return steps
        pos += 1
        for _ in range(r - 1):
            pos += span[pos]


#: Units of :func:`kernel_window`: the index in ``RulePack.walk`` of the
#: size column the window is counted in.
NODES = 4
ELEMENTS = 5


def kernel_window(
    index: "GrammarIndex",
    start: int,
    stop: int,
    unit: int,
) -> Iterator[Symbol]:
    """The terminal symbols of the window ``[start, stop)`` of ``unit``
    -- binary-preorder :data:`NODES`, every terminal, or document
    :data:`ELEMENTS`, element terminals only -- in preorder (bounds
    checked and clamped by the caller).  The one windowed walk: ``tags``
    windows and ``subtree_xml``, the root's included, ride it.

    *Skip phase*: the ``size(A, i)`` descent (Section III-A) to the
    window's first terminal of the unit.  At a terminal the children in
    front of the one holding it are passed whole on the unit's size
    column plus their bindings' counts, and the children behind it go
    onto the stack; an application is entered with its arguments' counts
    bound.  The subtree the descent stands in always holds more than
    ``to_skip`` terminals of the unit, so the last child needs no size.
    *Window phase*: the stack streams in preorder, counting ``stop -
    start`` terminals of the unit down.  It reads no size column, so a
    window from 0 costs what a plain stream costs.

    Bindings and stack items are both ``(pack, pos, env, count)``:
    where the walk continues, and the binding's argument size in
    ``unit`` -- read by the skip phase only, 0 when the window phase
    binds.
    """
    to_yield = stop - start
    if to_yield <= 0:
        return
    least = KIND_ELEMENT if unit == ELEMENTS else KIND_BOTTOM
    packs = index._packs
    pack = index.pack(index.grammar.start)
    pos = 0
    env: Tuple = ()
    stack: List[tuple] = []
    push = stack.append
    to_skip = start
    (kind, sym, rank, span, _nn, _ne, params, _nodes, sym_objs,
     _names, _steps) = pack.walk
    sizes = pack.walk[unit]
    while True:
        k = kind[pos]
        if k <= 1:  # terminal: the start, or the child holding it
            if k >= least:
                if not to_skip:
                    break
                to_skip -= 1
            r = rank[pos]
            child = pos + 1
            i = 1
            while i < r:
                size = sizes[child]
                pp = params[child]
                if pp:
                    for p in pp:
                        size += env[p - 1][3]
                if size <= to_skip:
                    to_skip -= size
                    child += span[child]
                    i += 1
                else:
                    break
            later = []
            behind = child
            for _ in range(r - i):
                behind += span[behind]
                later.append((pack, behind, env, 0))
            stack.extend(reversed(later))
            pos = child
            continue
        if k == 3:  # parameter: continue in the bound argument
            pack, pos, env, _count = env[sym[pos] - 1]
        else:  # application: enter the callee, argument counts bound
            sobj = sym_objs[pos]
            callee = packs.get(sobj)
            if callee is None:
                callee = index.pack(sobj)
            bindings = []
            child = pos + 1
            for _ in range(rank[pos]):
                size = sizes[child]
                pp = params[child]
                if pp:
                    for p in pp:
                        size += env[p - 1][3]
                bindings.append((pack, child, env, size))
                child += span[child]
            pack, pos, env = callee, 0, tuple(bindings)
        (kind, sym, rank, span, _nn, _ne, params, _nodes, sym_objs,
         _names, _steps) = pack.walk
        sizes = pack.walk[unit]
    push((pack, pos, env, 0))
    cur = None
    while stack:
        pack, pos, env, _count = stack.pop()
        if pack is not cur:
            cur = pack
            (kind, sym, rank, span, _nn, _ne, _pp, _nodes, sym_objs,
             _names, _steps) = pack.walk
        k = kind[pos]
        if k == 3:
            push(env[sym[pos] - 1])
            continue
        r = rank[pos]
        if k <= 1:
            if k >= least:
                yield sym_objs[pos]
                to_yield -= 1
                if not to_yield:
                    return
            if r == 2:
                child = pos + 1
                push((pack, child + span[child], env, 0))
                push((pack, child, env, 0))
            elif r:
                kids = []
                child = pos + 1
                for _ in range(r):
                    kids.append((pack, child, env, 0))
                    child += span[child]
                stack.extend(reversed(kids))
        else:
            sobj = sym_objs[pos]
            callee = packs.get(sobj)
            if callee is None:
                callee = index.pack(sobj)
            bindings = []
            child = pos + 1
            for _ in range(r):
                bindings.append((pack, child, env, 0))
                child += span[child]
            push((callee, 0, tuple(bindings), 0))
