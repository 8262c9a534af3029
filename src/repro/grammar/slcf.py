"""Straight-line linear context-free (SLCF) tree grammars.

This is the paper's formal model (Section II): a grammar
``G = (F, N, P, S)`` with ranked terminals ``F`` (including ``⊥``), ranked
nonterminals ``N``, exactly one rule ``R -> tR`` per nonterminal, parameters
``y1..ym`` each occurring exactly once in ``tR``, a start nonterminal ``S``
of rank 0 that no right-hand side references, and an acyclic
(*straight-line*) call relation.

One additional invariant is enforced throughout this code base: parameters
appear in *increasing order in preorder* within every right-hand side.  All
grammars produced by (Tree/Grammar)RePair satisfy it, and it makes the
``size(A, i)`` segment computation (Section III-A) well-defined.

Grammars support lightweight *observers* (see
:class:`repro.grammar.index.GrammarIndex`): objects registered via
:meth:`Grammar.register_observer` are told which rule changed whenever a
right-hand side is installed (:meth:`Grammar.set_rule`), removed
(:meth:`Grammar.remove_rule`), or mutated in place
(:meth:`Grammar.notify_rule_changed`, called by the mutation layer after
in-place rewrites such as digram replacement; the finer
:meth:`Grammar.notify_rule_spliced` / :meth:`Grammar.notify_rule_relabeled`
say *where*, for path isolation and single updates).  This is
the invalidation channel that lets per-rule caches survive updates -- and
that the spine-sharding policy (:class:`repro.grammar.sharding.ShardManager`)
rides to rebalance exactly the rules each mutation epoch touched:
splitting an oversized start rule into shard rules is just a sequence of
ordinary ``set_rule``/``notify_rule_changed`` events, so every registered
index treats it as a local change.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.trees.node import Node, deep_copy, edge_count, node_count
from repro.trees.symbols import Alphabet, Symbol

__all__ = ["Grammar", "GrammarError", "RuleTouchRecorder", "GrammarSizeTracker"]


class GrammarError(ValueError):
    """Raised when a grammar violates the SLCF model."""


class _Missing:
    """Overlay sentinel: the rule did not exist at the pinned epoch."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing-at-epoch>"


_MISSING = _Missing()


class _CowRuleTable(dict):
    """The grammar's rule ``dict`` with copy-on-write preservation hooks.

    Every in-place rewrite in this code base *reads* the rule body it is
    about to mutate -- through :meth:`Grammar.rhs` or through this
    mapping -- before the first surgery on it (path isolation descends
    via ``rhs``, digram replacement scans bodies it fetched here, the
    shard manager inspects ``rhs`` before splitting).  Hooking the reads
    therefore suffices to preserve the pre-image of a rule into every
    pinned epoch's overlay *before* it can change.  The one known
    violator -- GrammarRePair's warm occurrence lists, which let a later
    run mutate a body it only read in an earlier run -- is covered by an
    explicit :meth:`Grammar.preserve_all` barrier in ``recompress``.

    With no pins outstanding the hook is a single attribute check on
    top of the plain ``dict`` operation.
    """

    __slots__ = ("grammar",)

    def __getitem__(self, head):
        grammar = self.grammar
        if grammar._pins:
            grammar._preserve(head)
        return dict.__getitem__(self, head)

    def get(self, head, default=None):
        grammar = self.grammar
        if grammar._pins:
            grammar._preserve(head)
        return dict.get(self, head, default)


class RuleTouchRecorder:
    """Minimal grammar observer collecting the rules touched by mutations.

    ``changed`` accumulates every rule head reported through the observer
    channel (install, in-place mutation); ``removed`` the heads whose rules
    were dropped.  A removed head is taken out of ``changed`` again --
    consumers that rescan or recompress dirty rules must not chase rules
    that no longer exist, and the mutation that dropped the last reference
    dirtied the referencing rule already.

    This is the bookkeeping shared by the incremental recompressor (which
    rescans only touched rules between replacement rounds, see
    :mod:`repro.core.occurrence_index`) and by
    :class:`repro.api.CompressedXml` (which scopes recompression to the
    rules dirtied since the previous run).
    """

    __slots__ = ("changed", "removed")

    def __init__(self) -> None:
        self.changed: Set[Symbol] = set()
        self.removed: Set[Symbol] = set()

    def rule_changed(self, head: Symbol) -> None:
        self.changed.add(head)

    def rule_removed(self, head: Symbol) -> None:
        self.changed.discard(head)
        self.removed.add(head)

    def clear(self) -> None:
        self.changed.clear()
        self.removed.clear()


class GrammarSizeTracker:
    """Observer maintaining ``|G|`` (total RHS edges) incrementally.

    ``Grammar.size`` walks every right-hand side -- O(|G|) -- which is
    fine for one-off reports but not for a per-update maintenance policy
    (:meth:`repro.api.CompressedXml._maybe_auto_recompress` consults the
    size after *every* operation; with a sharded spine the operation
    itself only touches O(width) nodes, so the size probe must not
    reintroduce an O(|G|) walk).  The tracker recomputes lazily and only
    the rules reported changed since the last read: one ``edge_count``
    walk per dirtied rule, amortized over however many mutations the
    epoch batched.
    """

    __slots__ = ("_grammar", "_edges", "_dirty", "_total")

    def __init__(self, grammar: "Grammar") -> None:
        self._grammar = grammar
        self._edges: Dict[Symbol, int] = {}
        self._dirty: Set[Symbol] = set(grammar.rules)
        self._total = 0
        grammar.register_observer(self)

    def rule_changed(self, head: Symbol) -> None:
        self._dirty.add(head)

    def rule_relabeled(self, head: Symbol, node: Node) -> None:
        """Relabels change no edge count."""

    def rule_removed(self, head: Symbol) -> None:
        self._dirty.discard(head)
        self._total -= self._edges.pop(head, 0)

    @property
    def total(self) -> int:
        """``|G|`` in edges, equal to ``Grammar.size`` at all times."""
        if self._dirty:
            grammar = self._grammar
            for head in self._dirty:
                if not grammar.has_rule(head):
                    continue
                new = edge_count(grammar.rules[head])
                self._total += new - self._edges.get(head, 0)
                self._edges[head] = new
            self._dirty.clear()
        return self._total


class Grammar:
    """A mutable SLCF tree grammar.

    ``rules`` maps each nonterminal symbol to the root node of its
    right-hand side.  The grammar owns an :class:`Alphabet` from which all
    of its symbols (and fresh nonterminals created during compression) are
    drawn.
    """

    __slots__ = (
        "alphabet", "start", "rules", "_observers",
        "epoch", "_pins", "_overlays", "_pin_times", "_version_lock",
        "_reader_pins", "_reader_pins_at",
    )

    def __init__(self, alphabet: Alphabet, start: Symbol) -> None:
        if not start.is_nonterminal:
            raise GrammarError(f"start symbol {start!r} must be a nonterminal")
        if start.rank != 0:
            raise GrammarError(f"start symbol {start!r} must have rank 0")
        self.alphabet = alphabet
        self.start = start
        self.rules: Dict[Symbol, Node] = _CowRuleTable()
        self.rules.grammar = self
        self._observers: List[object] = []
        #: Monotone version counter, bumped on every mutation event
        #: (install, removal, in-place rewrite, relabel).  Pinning the
        #: current epoch freezes the grammar as observed *now*.
        self.epoch = 0
        self._pins: Dict[int, int] = {}
        self._overlays: Dict[int, Dict[Symbol, object]] = {}
        self._pin_times: Dict[int, float] = {}
        #: Pins held by reader snapshots (vs transaction-rollback pins),
        #: total and per epoch.  Resolution caches may be consulted only
        #: when no reader pins exist: a reader pin makes the resolution
        #: descent's ``rhs()`` reads load-bearing as copy-on-write
        #: preservation points.  Conversely, an overlay whose epoch has
        #: *only* rollback pins skips read-triggered preservation
        #: entirely -- the batch machinery preserves at its write points
        #: -- so the happy path of a transaction copies nothing.
        self._reader_pins = 0
        self._reader_pins_at: Dict[int, int] = {}
        self._version_lock = threading.RLock()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tree(cls, root: Node, alphabet: Alphabet, start_name: str = "S") -> "Grammar":
        """The trivial grammar ``{S -> t}`` generating exactly ``t``.

        This is how GrammarRePair doubles as a tree compressor (Section V-B):
        a tree is a one-rule grammar.  The tree is *not* copied.
        """
        start = alphabet.get(start_name)
        if start is None:
            start = alphabet.nonterminal(start_name, 0)
        elif not (start.is_nonterminal and start.rank == 0):
            # The requested name is taken by a document label (e.g. the
            # Penn-Treebank tag "S"): mint a fresh start symbol instead.
            start = alphabet.fresh_nonterminal(0, prefix=start_name)
        grammar = cls(alphabet, start)
        grammar.set_rule(start, root)
        return grammar

    def set_rule(self, nonterminal: Symbol, rhs: Node) -> None:
        """Install (or overwrite) the rule ``nonterminal -> rhs``."""
        if not nonterminal.is_nonterminal:
            raise GrammarError(f"{nonterminal!r} is not a nonterminal")
        self._install(nonterminal, rhs)
        self.epoch += 1
        for observer in self._observers:
            observer.rule_changed(nonterminal)

    def _install(self, nonterminal: Symbol, rhs: Node) -> None:
        """Make ``rhs`` the rule's root: :meth:`set_rule` without its
        notification (the one way a root is installed)."""
        if rhs.symbol.is_parameter:
            raise GrammarError(
                "a right-hand side must not be a single parameter node"
            )
        if self._pins:
            self._preserve(nonterminal, for_write=True)
        rhs.parent = None
        dict.__setitem__(self.rules, nonterminal, rhs)

    def remove_rule(self, nonterminal: Symbol) -> None:
        if nonterminal is self.start:
            raise GrammarError("cannot remove the start rule")
        if self._pins:
            self._preserve(nonterminal, for_write=True)
        del self.rules[nonterminal]
        self.epoch += 1
        for observer in self._observers:
            observer.rule_removed(nonterminal)

    # ------------------------------------------------------------------
    # observers (cache invalidation channel)
    # ------------------------------------------------------------------
    def register_observer(self, observer: object) -> None:
        """Register an observer with ``rule_changed``/``rule_removed`` hooks.

        Observers are notified with the affected rule head on every
        :meth:`set_rule`, :meth:`remove_rule`, and
        :meth:`notify_rule_changed` call; optional ``rule_spliced`` /
        ``rule_relabeled`` hooks receive the finer events (an observer
        without them gets ``rule_changed``).  Registration is idempotent.
        """
        if observer not in self._observers:
            self._observers.append(observer)

    def unregister_observer(self, observer: object) -> None:
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    def notify_rule_changed(self, nonterminal: Symbol) -> None:
        """Report an *in-place* mutation of ``nonterminal``'s right-hand side.

        :meth:`set_rule` notifies automatically; rewrites that splice nodes
        inside an installed RHS (path isolation, digram replacement,
        inlining) must call this so registered indexes stay correct.
        """
        self.epoch += 1
        for observer in self._observers:
            observer.rule_changed(nonterminal)

    def notify_rule_relabeled(self, nonterminal: Symbol, node: Node) -> None:
        """Report an in-place *relabel* of a terminal in the rule's RHS.

        A relabel changes no structural count, so observers that only
        cache sizes (e.g. :class:`repro.grammar.index.GrammarIndex`) may
        implement ``rule_relabeled`` as a no-op and keep their tables;
        observers without the hook get the coarse :meth:`rule_changed`
        instead -- label censuses, occurrence tables, and dirty-rule
        recorders must all still see the mutation (relabels do change
        digrams and label counts).  ``node`` names the relabeled node,
        so a cache of per-node labels can patch that entry.
        """
        self.epoch += 1
        for observer in self._observers:
            relabeled = getattr(observer, "rule_relabeled", None)
            if relabeled is not None:
                relabeled(nonterminal, node)
            else:
                observer.rule_changed(nonterminal)

    def notify_rule_spliced(
        self, nonterminal: Symbol, old: Node, new: Node
    ) -> None:
        """Report one *local* in-place rewrite of the rule's RHS: the
        subtree that was rooted at ``old`` gave way to the one at ``new``.

        ``new`` consists of fresh nodes plus any of ``old`` itself and
        ``old``'s child subtrees, *moved* (not copied) in their original
        order -- the shape of an inline (arguments move into the body
        copy), an insert (the target moves into the fragment) and a
        delete (the sibling chain moves up).  When ``old`` was the RHS
        root, ``new`` is installed as the root here.  The surgery is
        done by now, so the caller must have run
        :meth:`preserve_for_write` before it -- checked, while pins are
        outstanding.  Observers with a ``rule_spliced`` hook patch what
        they cache; the others get the coarse ``rule_changed`` this
        event stands in for.
        """
        if self._pins:
            with self._version_lock:  # readers unpin concurrently
                preserved = all(nonterminal in overlay
                                for overlay in self._overlays.values())
            if not preserved:
                raise GrammarError(
                    f"rule {nonterminal!r} was rewritten in place "
                    "without preserve_for_write"
                )
        if dict.get(self.rules, nonterminal) is old:
            self._install(nonterminal, new)
        self.epoch += 1
        for observer in self._observers:
            spliced = getattr(observer, "rule_spliced", None)
            if spliced is not None:
                spliced(nonterminal, old, new)
            else:
                observer.rule_changed(nonterminal)

    # ------------------------------------------------------------------
    # MVCC: pinned epochs and copy-on-write overlays
    # ------------------------------------------------------------------
    #
    # ``pin()`` freezes the grammar as of the current epoch.  Mutations
    # keep rewriting the live rule bodies in place (so node identities
    # -- the keys of every id()-keyed index table -- never change), but
    # before the *first* rewrite of a rule after a pin, the rule's
    # pristine body is deep-copied into the pinned epoch's overlay.  A
    # reader resolves a rule through ``rule_at``: overlay hit if the
    # rule changed since the pin, otherwise a lazily-made private copy
    # of the (still pristine) live body.  Readers therefore never hold
    # a reference to a body a writer may mutate.  When the last pin on
    # an epoch drops, its overlay is garbage.

    def pin(self, rollback: bool = False) -> int:
        """Pin the current epoch; returns the epoch number.

        Call only between operations (the document layer holds its
        write lock around this, so no mutation is mid-flight).
        ``rollback`` marks a transaction-rollback pin: it fills the same
        overlay, but does not count as a *reader* -- resolution caches
        stay consultable, because every mutation path preserves the
        rules it rewrites on its own (in-place splices call
        :meth:`preserve_for_write` first, ``set_rule``/``remove_rule``
        preserve directly).
        """
        with self._version_lock:
            epoch = self.epoch
            count = self._pins.get(epoch, 0)
            self._pins[epoch] = count + 1
            if not rollback:
                self._reader_pins += 1
                self._reader_pins_at[epoch] = \
                    self._reader_pins_at.get(epoch, 0) + 1
            if count == 0:
                self._overlays[epoch] = {}
                self._pin_times[epoch] = time.monotonic()
            return epoch

    def unpin(self, epoch: int, rollback: bool = False) -> None:
        """Drop one pin; the overlay is freed with the last pin."""
        with self._version_lock:
            count = self._pins.get(epoch)
            if count is None:
                raise GrammarError(f"epoch {epoch} is not pinned")
            if not rollback:
                self._reader_pins -= 1
                remaining = self._reader_pins_at.get(epoch, 0) - 1
                if remaining <= 0:
                    self._reader_pins_at.pop(epoch, None)
                else:
                    self._reader_pins_at[epoch] = remaining
            if count == 1:
                del self._pins[epoch]
                del self._overlays[epoch]
                del self._pin_times[epoch]
            else:
                self._pins[epoch] = count - 1

    def _preserve(self, head: Symbol, for_write: bool = False) -> None:
        """Copy ``head``'s pristine body into every overlay lacking it.

        An overlay lacking ``head`` means the rule has not changed since
        that epoch was pinned -- so one deep copy of the current live
        body serves every lacking overlay (they all pinned the same
        content).  First preservation wins; later calls are no-ops.

        Read-triggered calls (``for_write=False``) fill only overlays
        some *reader* pinned: reads are conservative (a descent touches
        every spine rule on its path, mutation or not), and an epoch
        pinned purely for transaction rollback would pay a deep copy
        per walked rule per batch for an overlay that is discarded
        unread on commit.  Write points pass ``for_write=True`` and
        fill every overlay -- rollback needs exactly the rules actually
        rewritten.
        """
        with self._version_lock:
            if for_write:
                lacking = [
                    overlay for overlay in self._overlays.values()
                    if head not in overlay
                ]
            else:
                readers = self._reader_pins_at
                lacking = [
                    overlay for epoch, overlay in self._overlays.items()
                    if head not in overlay and epoch in readers
                ]
            if not lacking:
                return
            live = dict.get(self.rules, head)
            preserved = _MISSING if live is None else deep_copy(live)
            for overlay in lacking:
                overlay[head] = preserved

    def preserve_for_write(self, head: Symbol) -> None:
        """Preserve ``head`` ahead of an in-place rewrite of its body.

        Mutation paths that splice or relabel inside an installed RHS
        (bypassing :meth:`set_rule`) must call this before the first
        rewrite: it is what makes a transaction-rollback overlay
        complete, and it backstops reader overlays when no hooked read
        preceded the rewrite.  No-op without pins; first call wins.
        """
        if self._pins:
            self._preserve(head, for_write=True)

    def preserve_all(self) -> None:
        """Preserve every rule into every lacking overlay.

        Barrier for mutation paths that do *not* re-read a body before
        rewriting it (GrammarRePair's warm occurrence lists); called by
        the recompressor before a run while snapshots are pinned.
        """
        if not self._pins:
            return
        with self._version_lock:
            for head in list(dict.keys(self.rules)):
                self._preserve(head, for_write=True)

    def rule_at(self, epoch: int, head: Symbol) -> Node:
        """``head``'s body as of pinned ``epoch`` (immutable to writers).

        Falls through to a private copy of the live body when the rule
        has not changed since the pin; the copy is cached in the overlay
        so repeated reads (and id()-keyed snapshot indexes) see one
        stable object.
        """
        with self._version_lock:
            try:
                overlay = self._overlays[epoch]
            except KeyError:
                raise GrammarError(f"epoch {epoch} is not pinned") from None
            body = overlay.get(head)
            if body is None and head not in overlay:
                live = dict.get(self.rules, head)
                body = _MISSING if live is None else deep_copy(live)
                overlay[head] = body
            if body is _MISSING:
                raise GrammarError(
                    f"no rule for nonterminal {head!r} at epoch {epoch}"
                )
            return body

    def has_rule_at(self, epoch: int, head: Symbol) -> bool:
        with self._version_lock:
            try:
                overlay = self._overlays[epoch]
            except KeyError:
                raise GrammarError(f"epoch {epoch} is not pinned") from None
            if head in overlay:
                return overlay[head] is not _MISSING
            return head in self.rules

    def heads_at(self, epoch: int) -> List[Symbol]:
        """Rule heads as of pinned ``epoch`` (live order, removed last)."""
        with self._version_lock:
            try:
                overlay = self._overlays[epoch]
            except KeyError:
                raise GrammarError(f"epoch {epoch} is not pinned") from None
            heads = [
                head for head in dict.keys(self.rules)
                if overlay.get(head) is not _MISSING
            ]
            live = self.rules
            heads.extend(
                head for head, body in overlay.items()
                if body is not _MISSING and head not in live
            )
            return heads

    def preserved_at(self, epoch: int) -> Dict[Symbol, Optional[Node]]:
        """The rules rewritten since ``epoch`` was pinned, with their
        pristine pinned bodies (``None`` for a rule that did not exist).

        This is the transaction-rollback surface: every mutation path
        preserves a rule before its first post-pin rewrite (reads
        through :meth:`rhs`/the rule table hook it, :meth:`set_rule` and
        :meth:`remove_rule` do it directly), so after a half-applied
        batch the overlay holds exactly the pre-batch bodies to restore.
        The returned bodies may be shared with concurrent reader
        snapshots of the same epoch -- callers reinstalling them must
        deep-copy.
        """
        with self._version_lock:
            try:
                overlay = self._overlays[epoch]
            except KeyError:
                raise GrammarError(f"epoch {epoch} is not pinned") from None
            return {
                head: (None if body is _MISSING else body)
                for head, body in overlay.items()
            }

    def pinned_epochs(self) -> Dict[int, int]:
        """Pinned epoch -> reference count (a copy)."""
        with self._version_lock:
            return dict(self._pins)

    def oldest_pin_age(self) -> Optional[float]:
        """Seconds since the oldest still-pinned epoch was pinned."""
        with self._version_lock:
            if not self._pin_times:
                return None
            return time.monotonic() - min(self._pin_times.values())

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def rhs(self, nonterminal: Symbol) -> Node:
        if self._pins:
            self._preserve(nonterminal)
        try:
            return dict.__getitem__(self.rules, nonterminal)
        except KeyError:
            raise GrammarError(f"no rule for nonterminal {nonterminal!r}") from None

    def has_rule(self, nonterminal: Symbol) -> bool:
        return nonterminal in self.rules

    def nonterminals(self) -> List[Symbol]:
        """Rule heads, in insertion order."""
        return list(self.rules.keys())

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Tuple[Symbol, Node]]:
        return iter(self.rules.items())

    @property
    def size(self) -> int:
        """``|G|`` = total number of edges over all right-hand sides."""
        return sum(edge_count(rhs) for rhs in self.rules.values())

    @property
    def node_size(self) -> int:
        """Total number of RHS nodes (size + number of rules)."""
        return sum(node_count(rhs) for rhs in self.rules.values())

    def rule_width(self, nonterminal: Symbol) -> int:
        """RHS node count of one rule -- the quantity the spine-sharding
        policy budgets (``O(width)`` isolation and recompute per rule)."""
        return node_count(self.rhs(nonterminal))

    def copy(self) -> "Grammar":
        """Deep copy: fresh rule trees, shared symbols/alphabet."""
        clone = Grammar(self.alphabet, self.start)
        for nonterminal, rhs in self.rules.items():
            clone.rules[nonterminal] = deep_copy(rhs)
        return clone

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every SLCF model invariant; raise :class:`GrammarError`.

        Intended for tests and debugging -- it walks the entire grammar.
        """
        if self.start not in self.rules:
            raise GrammarError("missing start rule")
        called: Dict[Symbol, Set[Symbol]] = {}
        for head, rhs in self.rules.items():
            if rhs.symbol.is_parameter:
                raise GrammarError(f"rule {head!r}: RHS is a bare parameter")
            if rhs.parent is not None:
                raise GrammarError(f"rule {head!r}: RHS root has a parent")
            seen_params: List[int] = []
            callees: Set[Symbol] = set()
            stack = [rhs]
            while stack:
                node = stack.pop()
                symbol = node.symbol
                if len(node.children) != symbol.rank:
                    raise GrammarError(
                        f"rule {head!r}: node {symbol!r} has "
                        f"{len(node.children)} children, rank is {symbol.rank}"
                    )
                for child in node.children:
                    if child.parent is not node:
                        raise GrammarError(
                            f"rule {head!r}: broken parent pointer at {symbol!r}"
                        )
                if symbol.is_parameter:
                    seen_params.append(symbol.param_index)
                elif symbol.is_nonterminal:
                    if symbol is self.start:
                        raise GrammarError(
                            f"rule {head!r} references the start symbol"
                        )
                    if symbol not in self.rules:
                        raise GrammarError(
                            f"rule {head!r} references undefined {symbol!r}"
                        )
                    callees.add(symbol)
                stack.extend(reversed(node.children))
            expected = list(range(1, head.rank + 1))
            if seen_params != expected:
                raise GrammarError(
                    f"rule {head!r}: parameters {seen_params} in preorder, "
                    f"expected exactly {expected} (linear, ordered)"
                )
            called[head] = callees
        self._check_acyclic(called)

    def _check_acyclic(self, called: Dict[Symbol, Set[Symbol]]) -> None:
        """Straight-line check: the call relation must be a DAG."""
        state: Dict[Symbol, int] = {}  # 0 = visiting, 1 = done

        for origin in self.rules:
            if origin in state:
                continue
            stack: List[Tuple[Symbol, Iterator[Symbol]]] = [
                (origin, iter(called[origin]))
            ]
            state[origin] = 0
            while stack:
                head, it = stack[-1]
                advanced = False
                for callee in it:
                    status = state.get(callee)
                    if status == 0:
                        raise GrammarError(
                            f"grammar is recursive: cycle through {callee!r}"
                        )
                    if status is None:
                        state[callee] = 0
                        stack.append((callee, iter(called[callee])))
                        advanced = True
                        break
                if not advanced:
                    state[head] = 1
                    stack.pop()
