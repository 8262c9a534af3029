"""A persistent per-rule label census over an SLCF grammar.

:class:`LabelIndex` is the query subsystem's analog of
:class:`repro.grammar.index.GrammarIndex`: where the structural index
caches per rule *how many* elements each right-hand side generates, the
label index caches *which labels* they carry --

* per rule ``A``: a ``label -> count`` census of the elements generated by
  ``A``'s right-hand side (callee counts included, parameters contribute
  0 -- the binding environment supplies the argument labels),
* per ``(rule, label)`` actually queried: a per-RHS-node table of
  ``(count of that label in the node's generated subtree, parameter
  indices below the node)``, the segment tables a descendant-axis walk
  prunes with: a derivation subtree whose census for the queried label is
  zero is skipped in O(1) -- advancing the element cursor by the
  structural index's cached subtree size -- instead of being enumerated.

Invalidation contract
---------------------
The index registers itself on the same grammar observer channel as
``GrammarIndex`` and ``GrammarOccurrenceIndex``: any rule installed,
removed, or mutated in place evicts that rule's census *and every cached
census computed from it* (the transitive dependents along the call DAG);
recomputation is lazy and bottom-up on the next query.  An isolated
update therefore costs the label index one start-rule eviction and one
``O(|start RHS| + alphabet)`` lazy recompute -- the maintenance story the
``bench_query`` eviction-counter assertions pin: recompression must
*not* wholesale-invalidate this index.

Per-label node tables are built only for labels a query actually asks
about, so the memory footprint follows the query workload, not the
alphabet.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.grammar.slcf import Grammar, GrammarError
from repro.trees.symbols import Symbol

__all__ = ["LabelIndex"]

#: Per-RHS-node entry of a per-label table: (elements with the queried
#: label generated by this subtree, parameter indices occurring below).
_LabelInfo = Tuple[int, Tuple[int, ...]]

_EMPTY: Dict[str, int] = {}


class LabelIndex:
    """Cached label-census tables, kept correct across updates.

    One index is owned per mutable grammar (lazily, by
    :class:`repro.api.CompressedXml`); it registers itself as a grammar
    observer on construction and can be released with :meth:`detach`.
    """

    def __init__(self, grammar: Grammar, register: bool = True) -> None:
        self._grammar = grammar
        # head -> {label: count} for the rule body (parameters excluded).
        self._rule_counts: Dict[Symbol, Dict[str, int]] = {}
        # (head, label) -> {id(rhs_node): (count, params)}.
        self._node_tables: Dict[Tuple[Symbol, str], Dict[int, _LabelInfo]] = {}
        # head -> labels with a materialized node table (for eviction).
        self._tabled_labels: Dict[Symbol, Set[str]] = {}
        # Reverse call edges registered at computation time.
        self._dependents: Dict[Symbol, Set[Symbol]] = {}
        # Eviction/recompute instrumentation, mirroring GrammarIndex:
        # bench_query asserts updates evict per rule (no wholesale resets)
        # and recompute only the touched slice of the grammar.
        self.evicted_rules = 0
        self.wholesale_invalidations = 0
        self.rules_censused = 0
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
    def rule_changed(self, head: Symbol) -> None:
        self._evict(head)

    def rule_removed(self, head: Symbol) -> None:
        self._evict(head)

    def _evict(self, head: Symbol) -> None:
        """Drop the census of ``head`` and of its transitive dependents.

        A rule is only cached after its callees (bottom-up), so a cached
        dependent always has its reverse edge registered -- walking the
        dependent closure is sound, exactly as in ``GrammarIndex``.
        """
        stack = [head]
        while stack:
            current = stack.pop()
            if current not in self._rule_counts:
                continue
            del self._rule_counts[current]
            for label in self._tabled_labels.pop(current, ()):
                del self._node_tables[(current, label)]
            self.evicted_rules += 1
            stack.extend(self._dependents.pop(current, ()))

    def invalidate_all(self) -> None:
        """Drop every cache entry (scrub's repair of last resort)."""
        self._rule_counts.clear()
        self._node_tables.clear()
        self._tabled_labels.clear()
        self._dependents.clear()
        self.wholesale_invalidations += 1

    @property
    def cached_rule_count(self) -> int:
        """How many rules currently have a computed census."""
        return len(self._rule_counts)

    def to_dict(self) -> dict:
        """Flat numeric view (the shared stats-object protocol)."""
        return {
            "evicted_rules": self.evicted_rules,
            "wholesale_invalidations": self.wholesale_invalidations,
            "cached_rules": len(self._rule_counts),
        }

    def is_cached(self, head: Symbol) -> bool:
        """True when ``head``'s census is currently materialized."""
        return head in self._rule_counts

    def cached_rules(self) -> Tuple[Symbol, ...]:
        """The rules with materialized censuses, for external audits
        (the storage scrub verifies exactly these against a fresh
        census and evicts the ones that drifted)."""
        return tuple(self._rule_counts)

    # ------------------------------------------------------------------
    # snapshot state (the serializable half of the cache)
    # ------------------------------------------------------------------
    def export_counts(self) -> Dict[Symbol, Dict[str, int]]:
        """Per-rule label censuses for every rule, forcing the full
        reachable grammar first.  Per-``(rule, label)`` node tables are
        not exported -- they key on live node identities and rebuild
        lazily per queried label."""
        self._ensure(self._grammar.start)
        for head in self._grammar.rules:
            if head not in self._rule_counts:
                self._ensure(head)
        return {
            head: dict(counts)
            for head, counts in self._rule_counts.items()
        }

    def import_counts(self, counts: Dict[Symbol, Dict[str, int]]) -> None:
        """Adopt snapshot censuses without re-censusing a single rule
        (``rules_censused`` stays untouched).  Reverse call edges are
        rebuilt from the grammar so per-rule evictions keep cascading
        over imported entries."""
        grammar = self._grammar
        self._rule_counts.clear()
        self._node_tables.clear()
        self._tabled_labels.clear()
        self._dependents.clear()
        for head, census in counts.items():
            if head not in grammar.rules:
                raise GrammarError(f"label census for unknown rule {head!r}")
            self._rule_counts[head] = dict(census)
        for head in self._rule_counts:
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
    # lazy recompute (bottom-up along the call DAG)
    # ------------------------------------------------------------------
    def _ensure(self, head: Symbol) -> None:
        if head in self._rule_counts:
            return
        pending: Set[Symbol] = set()
        stack = [head]
        while stack:
            current = stack[-1]
            if current in self._rule_counts:
                pending.discard(current)
                stack.pop()
                continue
            pending.add(current)
            rhs = self._grammar.rhs(current)
            callees: List[Symbol] = []
            seen: Set[Symbol] = set()
            walk = [rhs]
            while walk:
                node = walk.pop()
                symbol = node.symbol
                if symbol.is_nonterminal and symbol not in seen:
                    seen.add(symbol)
                    callees.append(symbol)
                walk.extend(node.children)
            missing = [c for c in callees if c not in self._rule_counts]
            if missing:
                for callee in missing:
                    if callee in pending:
                        raise GrammarError(
                            f"grammar is recursive: cycle through {callee!r}"
                        )
                stack.extend(missing)
                continue
            self._census(current, callees)
            pending.discard(current)
            stack.pop()

    def _census(self, head: Symbol, callees: List[Symbol]) -> None:
        """One O(|RHS| + Σ|callee alphabets|) walk of the rule body."""
        counts: Dict[str, int] = {}
        stack = [self._grammar.rhs(head)]
        while stack:
            node = stack.pop()
            symbol = node.symbol
            if symbol.is_terminal:
                if not symbol.is_bottom:
                    counts[symbol.name] = counts.get(symbol.name, 0) + 1
            elif symbol.is_nonterminal:
                for label, count in self._rule_counts[symbol].items():
                    counts[label] = counts.get(label, 0) + count
            stack.extend(node.children)
        self._rule_counts[head] = counts
        self.rules_censused += 1
        for callee in callees:
            self._dependents.setdefault(callee, set()).add(head)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def rule_counts(self, head: Symbol) -> Mapping[str, int]:
        """The rule body's full ``label -> count`` census (read-only)."""
        self._ensure(head)
        return self._rule_counts[head]

    def rule_label_count(self, head: Symbol, label: str) -> int:
        """Elements labeled ``label`` generated by ``head``'s body."""
        self._ensure(head)
        return self._rule_counts[head].get(label, 0)

    def document_label_count(self, label: str) -> int:
        """Occurrences of ``label`` in the whole document -- ``O(1)`` after
        the start rule's census (the fast path behind ``count('//x')``)."""
        return self.rule_label_count(self._grammar.start, label)

    def document_labels(self) -> Mapping[str, int]:
        """The whole document's ``label -> count`` census."""
        return self.rule_counts(self._grammar.start)

    def node_table(self, head: Symbol, label: str) -> Dict[int, _LabelInfo]:
        """The per-RHS-node table of ``label`` counts for one rule.

        Entries are keyed by ``id(rhs_node)`` -- valid only until the rule
        is mutated; ``RulePack.label_counts`` aligns them with the pack's
        columns.  Built lazily per queried label in one post-order walk
        of the rule body.
        """
        key = (head, label)
        table = self._node_tables.get(key)
        if table is not None:
            return table
        self._ensure(head)
        table = {}
        stack: List[Tuple[object, bool]] = [(self._grammar.rhs(head), False)]
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                stack.append((node, True))
                for child in node.children:
                    stack.append((child, False))
                continue
            symbol = node.symbol
            if symbol.is_parameter:
                table[id(node)] = (0, (symbol.param_index,))
                continue
            count = 0
            params: Tuple[int, ...] = ()
            for child in node.children:
                child_count, child_params = table[id(child)]
                count += child_count
                if child_params:
                    params += child_params
            if symbol.is_terminal:
                if symbol.name == label and not symbol.is_bottom:
                    count += 1
            else:
                count += self._rule_counts[symbol].get(label, 0)
            table[id(node)] = (count, params)
        self._node_tables[key] = table
        self._tabled_labels.setdefault(head, set()).add(label)
        return table
