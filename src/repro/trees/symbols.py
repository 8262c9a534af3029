"""Ranked alphabets and symbols.

The paper's formal model (Section II) works over *ranked alphabets*: every
symbol carries a natural number, its rank, and a node labeled by a symbol of
rank ``k`` has exactly ``k`` children.  Three kinds of symbols exist:

* **terminals** -- XML element labels (rank 2 in the binary encoding) and the
  empty node ``BOTTOM`` (rank 0) written ``⊥`` in the paper,
* **nonterminals** -- grammar rule heads of arbitrary rank,
* **parameters** -- the formal parameters ``y1, y2, ...`` (rank 0), a fixed
  set disjoint from every alphabet.

Symbols are interned per :class:`Alphabet` so identity comparison is safe
within one alphabet, and they are hashable so they can key digram tables.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Dict, Iterator, List, Optional

__all__ = [
    "SymbolKind",
    "Symbol",
    "Alphabet",
    "BOTTOM_NAME",
]

#: Conventional spelling of the empty-tree terminal (the paper's ``⊥``).
BOTTOM_NAME = "#"


class SymbolKind(Enum):
    """Classification of a symbol inside the grammar model."""

    TERMINAL = "terminal"
    NONTERMINAL = "nonterminal"
    PARAMETER = "parameter"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SymbolKind.{self.name}"


class Symbol:
    """An interned ranked symbol.

    Instances are created through :class:`Alphabet` (or
    :func:`parameter_symbol` for parameters) and compared by identity.  The
    ``rank`` of a symbol is the number of children every node labeled by it
    must have; parameters always have rank 0.
    """

    __slots__ = ("name", "rank", "kind", "param_index",
                 "is_terminal", "is_nonterminal", "is_parameter")

    def __init__(
        self,
        name: str,
        rank: int,
        kind: SymbolKind,
        param_index: int = 0,
    ) -> None:
        if rank < 0:
            raise ValueError(f"rank must be non-negative, got {rank}")
        if kind is SymbolKind.PARAMETER:
            if rank != 0:
                raise ValueError("parameters have rank 0")
            if param_index < 1:
                raise ValueError("parameter index must be >= 1")
        self.name = name
        self.rank = rank
        self.kind = kind
        self.param_index = param_index
        # Kind predicates as plain attributes: every layer's inner loops
        # read them, and a symbol's kind never changes.
        self.is_terminal = kind is SymbolKind.TERMINAL
        self.is_nonterminal = kind is SymbolKind.NONTERMINAL
        self.is_parameter = kind is SymbolKind.PARAMETER

    @property
    def is_bottom(self) -> bool:
        """True for the empty-node terminal ``⊥``."""
        return self.kind is SymbolKind.TERMINAL and self.name == BOTTOM_NAME

    def __repr__(self) -> str:
        return f"{self.name}/{self.rank}"

    def __str__(self) -> str:
        return self.name


# Parameters form one global, alphabet-independent family: the model fixes
# Y = {y1, y2, ...} once and demands it be disjoint from all alphabets.
_PARAMETERS: List[Symbol] = []


def parameter_symbol(index: int) -> Symbol:
    """Return the interned parameter symbol ``y<index>`` (1-based)."""
    if index < 1:
        raise ValueError(f"parameter index must be >= 1, got {index}")
    while len(_PARAMETERS) < index:
        i = len(_PARAMETERS) + 1
        _PARAMETERS.append(
            Symbol(f"y{i}", 0, SymbolKind.PARAMETER, param_index=i)
        )
    return _PARAMETERS[index - 1]


class Alphabet:
    """An interning factory for terminal and nonterminal symbols.

    One alphabet is shared by a tree/grammar and everything derived from it,
    so that symbol identity is meaningful across compression rounds.  Fresh
    nonterminal names for digram rules and exported fragments are drawn from
    per-prefix counters so they never collide with existing names.
    """

    def __init__(self) -> None:
        self._symbols: Dict[str, Symbol] = {}
        self._counters: Dict[str, itertools.count] = {}

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def terminal(self, name: str, rank: int) -> Symbol:
        """Intern (or fetch) the terminal ``name`` with the given rank."""
        return self._intern(name, rank, SymbolKind.TERMINAL)

    def nonterminal(self, name: str, rank: int) -> Symbol:
        """Intern (or fetch) the nonterminal ``name`` with the given rank."""
        return self._intern(name, rank, SymbolKind.NONTERMINAL)

    def bottom(self) -> Symbol:
        """The empty-node terminal ``⊥`` of rank 0."""
        return self.terminal(BOTTOM_NAME, 0)

    def _intern(self, name: str, rank: int, kind: SymbolKind) -> Symbol:
        existing = self._symbols.get(name)
        if existing is not None:
            if existing.rank != rank or existing.kind is not kind:
                raise ValueError(
                    f"symbol {name!r} already interned as {existing.kind.value}"
                    f"/{existing.rank}, requested {kind.value}/{rank}"
                )
            return existing
        symbol = Symbol(name, rank, kind)
        self._symbols[name] = symbol
        return symbol

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Symbol]:
        """Return the interned symbol called ``name``, or ``None``."""
        return self._symbols.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._symbols

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._symbols.values())

    def __len__(self) -> int:
        return len(self._symbols)

    def terminals(self) -> List[Symbol]:
        return [s for s in self._symbols.values() if s.is_terminal]

    def nonterminals(self) -> List[Symbol]:
        return [s for s in self._symbols.values() if s.is_nonterminal]

    # ------------------------------------------------------------------
    # fresh names
    # ------------------------------------------------------------------
    def fresh_nonterminal(self, rank: int, prefix: str = "X") -> Symbol:
        """Intern a nonterminal with a name unused so far.

        Names look like ``X_0, X_1, ...`` for the given prefix; the counter
        skips names that already exist (e.g. after deserialization).
        """
        counter = self._counters.setdefault(prefix, itertools.count())
        while True:
            name = f"{prefix}_{next(counter)}"
            if name not in self._symbols:
                return self.nonterminal(name, rank)

    def fresh_terminal(self, rank: int, prefix: str = "t") -> Symbol:
        """Intern a terminal with a fresh name (used by workload generators)."""
        counter = self._counters.setdefault(prefix, itertools.count())
        while True:
            name = f"{prefix}_{next(counter)}"
            if name not in self._symbols:
                return self.terminal(name, rank)

    def clone_namespace(self) -> "Alphabet":
        """Return a new alphabet pre-populated with the same symbols.

        The clone shares the *symbol objects* (identity is preserved), only
        the fresh-name counters are independent.
        """
        clone = Alphabet()
        clone._symbols = dict(self._symbols)
        return clone
