"""Crash-atomic binary snapshots of a compressed document.

A snapshot is one self-contained binary image of a
:class:`repro.api.CompressedXml`:

* the SLCF grammar (symbol table + preorder-encoded rule bodies),
* the shard hierarchy (width, shard-head -> parent edges), so a
  reload adopts the spine instead of re-sharding,
* the structural index's per-rule node/element segments and the label
  index's per-rule censuses, so a reload answers ``select``/``tags``/
  axis queries without re-censusing a single rule (the per-RHS-node
  tables are keyed by object identity and rebuild lazily per rule in
  O(rule width) from the imported segments),
* the grammar size after the last recompression, which the
  auto-recompress policy measures growth against.

Wire format (all integers LEB128 varints unless noted)::

    b"RXSNAP01"                                  8-byte magic
    body...
    u32le crc32(body)                            trailing checksum

    body := version(=1) kin element_count flags last_compressed_size
            symbol_table start_id rules [shards] segments [labels] dirty

``flags``: bit1 shard section present, bit2 label section present.
The shard section is ``width prefix parents``; ``prefix`` is always the
shard-rule name prefix ``"Sp"``, written and read but carrying nothing.
A state without one (an unsharded writer's) shards on import.
Rule bodies are preorder symbol-id streams; ids ``>= len(symbols)``
encode parameters ``y1, y2, ...`` (child counts are implied by symbol
ranks, so no structure bytes are needed).  Segments, censuses and each
census's labels are written in symbol-id order, so the bytes are a
function of the document, not of the order its caches were filled in.

Legacy: flag bit0 and the trailing ``dirty`` list (a symbol-id count,
then the ids) are always written 0 and empty.  They held the seed of a
recompression census scoped to the rules written since the last run;
the reader parses a list an older writer filled in and discards it.

Snapshots are written temp-file-then-``os.replace`` with fsyncs on both
the file and its directory, through the crash-point
:class:`~repro.storage.faults.StorageIO` layer; a reader either sees
the complete old image or the complete new one.  :func:`read_snapshot`
raises :class:`SnapshotError` on *any* corruption -- the recovery layer
turns that into generation degradation, never a crash.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.grammar.sharding import SHARD_PREFIX
from repro.grammar.slcf import Grammar, GrammarError
from repro.trees.node import Node
from repro.trees.symbols import Alphabet, Symbol, parameter_symbol

from repro.storage.faults import StorageIO

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "ShardState",
    "DocumentState",
    "write_snapshot",
    "read_snapshot",
    "document_element_count",
]

SNAPSHOT_MAGIC = b"RXSNAP01"
SNAPSHOT_VERSION = 1

_CRC = struct.Struct("<I")


class SnapshotError(ValueError):
    """Raised when a snapshot file is corrupt or malformed."""


@dataclass
class ShardState:
    """The spine-sharding policy's persistent state."""

    width: int
    #: shard head -> spine rule holding its single reference.
    parents: Dict[Symbol, Symbol]


@dataclass
class DocumentState:
    """Everything a :class:`CompressedXml` needs to resume exactly.

    Produced by ``CompressedXml.export_state`` and by
    :func:`read_snapshot`; consumed by ``CompressedXml.from_state``.
    """

    grammar: Grammar
    kin: int
    element_count: int
    last_compressed_size: int
    shard: Optional[ShardState] = None
    #: head -> (node segments, element segments), the GrammarIndex state.
    segments: Dict[Symbol, Tuple[List[int], List[int]]] = \
        field(default_factory=dict)
    #: head -> {label: count}, the LabelIndex censuses.
    label_counts: Optional[Dict[Symbol, Dict[str, int]]] = None


# ----------------------------------------------------------------------
# varints
# ----------------------------------------------------------------------
def _put_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise SnapshotError(f"cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _put_bytes(out: bytearray, data: bytes) -> None:
    _put_uvarint(out, len(data))
    out.extend(data)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def uvarint(self) -> int:
        result = shift = 0
        data, pos, total = self.data, self.pos, len(self.data)
        while True:
            if pos >= total:
                raise SnapshotError("truncated varint")
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self.pos = pos
                return result
            shift += 7
            if shift > 63:
                raise SnapshotError("varint overflow")

    def raw(self, length: int) -> bytes:
        end = self.pos + length
        if end > len(self.data):
            raise SnapshotError("truncated byte string")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def string(self) -> str:
        return self.raw(self.uvarint()).decode("utf-8")

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.data)


# ----------------------------------------------------------------------
# grammar body codec
# ----------------------------------------------------------------------
def _collect_symbols(grammar: Grammar) -> List[Symbol]:
    """Every non-parameter symbol occurring in the grammar, rule heads
    first (deterministic order for stable snapshots)."""
    ordered: List[Symbol] = []
    seen = set()
    for head in grammar.rules:
        if head not in seen:
            seen.add(head)
            ordered.append(head)
    for rhs in grammar.rules.values():
        stack = [rhs]
        while stack:
            node = stack.pop()
            symbol = node.symbol
            if not symbol.is_parameter and symbol not in seen:
                seen.add(symbol)
                ordered.append(symbol)
            stack.extend(node.children)
    return ordered

def _encode_body(out: bytearray, rhs: Node, ids: Dict[Symbol, int],
                 n_symbols: int) -> None:
    tokens: List[int] = []
    stack = [rhs]
    while stack:
        node = stack.pop()
        symbol = node.symbol
        if symbol.is_parameter:
            tokens.append(n_symbols + symbol.param_index - 1)
        else:
            tokens.append(ids[symbol])
        stack.extend(reversed(node.children))
    _put_uvarint(out, len(tokens))
    for token in tokens:
        _put_uvarint(out, token)


def _decode_body(reader: _Reader, symbols: List[Symbol]) -> Node:
    count = reader.uvarint()
    if count == 0:
        raise SnapshotError("empty rule body")
    n_symbols = len(symbols)

    def read_node() -> Node:
        token = reader.uvarint()
        if token < n_symbols:
            symbol = symbols[token]
        else:
            symbol = parameter_symbol(token - n_symbols + 1)
        node = Node.__new__(Node)
        node.symbol = symbol
        node.children = []
        node.parent = None
        return node

    consumed = 1
    root = read_node()
    stack = [root]
    while stack:
        node = stack[-1]
        if len(node.children) == node.symbol.rank:
            stack.pop()
            continue
        if consumed >= count:
            raise SnapshotError("rule body ends mid-tree")
        child = read_node()
        consumed += 1
        child.parent = node
        node.children.append(child)
        stack.append(child)
    if consumed != count:
        raise SnapshotError("rule body has trailing tokens")
    return root


# ----------------------------------------------------------------------
# encode
# ----------------------------------------------------------------------
def encode_state(state: DocumentState) -> bytes:
    """Serialize a :class:`DocumentState` to snapshot bytes."""
    grammar = state.grammar
    out = bytearray()
    _put_uvarint(out, SNAPSHOT_VERSION)
    _put_uvarint(out, state.kin)
    _put_uvarint(out, state.element_count)
    flags = 0
    if state.shard is not None:
        flags |= 2
    if state.label_counts is not None:
        flags |= 4
    out.append(flags)
    _put_uvarint(out, state.last_compressed_size)

    symbols = _collect_symbols(grammar)
    ids = {symbol: index for index, symbol in enumerate(symbols)}
    _put_uvarint(out, len(symbols))
    for symbol in symbols:
        _put_bytes(out, symbol.name.encode("utf-8"))
        _put_uvarint(out, symbol.rank)
        out.append(1 if symbol.is_nonterminal else 0)
    _put_uvarint(out, ids[grammar.start])

    _put_uvarint(out, len(grammar.rules))
    for head, rhs in grammar.rules.items():
        _put_uvarint(out, ids[head])
        _encode_body(out, rhs, ids, len(symbols))

    if state.shard is not None:
        shard = state.shard
        _put_uvarint(out, shard.width)
        _put_bytes(out, SHARD_PREFIX.encode("utf-8"))
        _put_uvarint(out, len(shard.parents))
        for head, parent in shard.parents.items():
            _put_uvarint(out, ids[head])
            _put_uvarint(out, ids[parent])

    def in_id_order(table):
        return sorted(table.items(), key=lambda item: ids[item[0]])

    _put_uvarint(out, len(state.segments))
    for head, (node_segs, elem_segs) in in_id_order(state.segments):
        if len(node_segs) != head.rank + 1 or \
                len(elem_segs) != head.rank + 1:
            raise SnapshotError(
                f"rule {head!r}: segment arity does not match rank"
            )
        _put_uvarint(out, ids[head])
        for value in node_segs:
            _put_uvarint(out, value)
        for value in elem_segs:
            _put_uvarint(out, value)

    if state.label_counts is not None:
        _put_uvarint(out, len(state.label_counts))
        for head, counts in in_id_order(state.label_counts):
            _put_uvarint(out, ids[head])
            _put_uvarint(out, len(counts))
            labels = {grammar.alphabet.get(label): count
                      for label, count in counts.items()}
            if not labels.keys() <= ids.keys():
                raise SnapshotError(f"census of {head!r}: a label has no symbol")
            for label_symbol, count in in_id_order(labels):
                _put_uvarint(out, ids[label_symbol])
                _put_uvarint(out, count)

    _put_uvarint(out, 0)  # the legacy dirty-rule list

    body = bytes(out)
    return SNAPSHOT_MAGIC + body + _CRC.pack(zlib.crc32(body))


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------
def decode_state(data: bytes) -> DocumentState:
    """Parse snapshot bytes back into a :class:`DocumentState`.

    The grammar is rebuilt over a fresh alphabet and fully validated;
    any structural problem raises :class:`SnapshotError`.
    """
    if len(data) < len(SNAPSHOT_MAGIC) + _CRC.size or \
            not data.startswith(SNAPSHOT_MAGIC):
        raise SnapshotError("not a snapshot file (bad magic)")
    body = data[len(SNAPSHOT_MAGIC):-_CRC.size]
    (expected,) = _CRC.unpack(data[-_CRC.size:])
    if zlib.crc32(body) != expected:
        raise SnapshotError("snapshot checksum mismatch")
    try:
        return _decode_body_sections(_Reader(body))
    except SnapshotError:
        raise
    except (GrammarError, ValueError, IndexError, KeyError) as exc:
        raise SnapshotError(f"malformed snapshot: {exc}") from exc


def _decode_body_sections(reader: _Reader) -> DocumentState:
    version = reader.uvarint()
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    kin = reader.uvarint()
    element_count = reader.uvarint()
    flags = reader.raw(1)[0]
    last_compressed_size = reader.uvarint()

    n_symbols = reader.uvarint()
    alphabet = Alphabet()
    symbols: List[Symbol] = []
    for _ in range(n_symbols):
        name = reader.string()
        rank = reader.uvarint()
        kind = reader.raw(1)[0]
        if kind == 1:
            symbols.append(alphabet.nonterminal(name, rank))
        else:
            symbols.append(alphabet.terminal(name, rank))

    def symbol_at(index: int) -> Symbol:
        if index >= n_symbols:
            raise SnapshotError(f"symbol id {index} out of range")
        return symbols[index]

    start = symbol_at(reader.uvarint())
    grammar = Grammar(alphabet, start)
    n_rules = reader.uvarint()
    for _ in range(n_rules):
        head = symbol_at(reader.uvarint())
        if head in grammar.rules:
            raise SnapshotError(f"duplicate rule for {head!r}")
        grammar.set_rule(head, _decode_body(reader, symbols))

    shard: Optional[ShardState] = None
    if flags & 2:
        width = reader.uvarint()
        reader.string()  # the shard-rule prefix, always SHARD_PREFIX
        parents: Dict[Symbol, Symbol] = {}
        for _ in range(reader.uvarint()):
            head = symbol_at(reader.uvarint())
            parents[head] = symbol_at(reader.uvarint())
        shard = ShardState(width=width, parents=parents)

    segments: Dict[Symbol, Tuple[List[int], List[int]]] = {}
    for _ in range(reader.uvarint()):
        head = symbol_at(reader.uvarint())
        node_segs = [reader.uvarint() for _ in range(head.rank + 1)]
        elem_segs = [reader.uvarint() for _ in range(head.rank + 1)]
        segments[head] = (node_segs, elem_segs)

    label_counts: Optional[Dict[Symbol, Dict[str, int]]] = None
    if flags & 4:
        label_counts = {}
        for _ in range(reader.uvarint()):
            head = symbol_at(reader.uvarint())
            counts: Dict[str, int] = {}
            for _ in range(reader.uvarint()):
                label = symbol_at(reader.uvarint())
                counts[label.name] = reader.uvarint()
            label_counts[head] = counts

    for _ in range(reader.uvarint()):  # the legacy dirty-rule list
        symbol_at(reader.uvarint())
    if not reader.exhausted:
        raise SnapshotError("trailing bytes after snapshot body")

    grammar.validate()
    return DocumentState(
        grammar=grammar,
        kin=kin,
        element_count=element_count,
        last_compressed_size=last_compressed_size,
        shard=shard,
        segments=segments,
        label_counts=label_counts,
    )


# ----------------------------------------------------------------------
# file IO (crash-atomic)
# ----------------------------------------------------------------------
def write_snapshot(
    path: str, state: DocumentState, io: Optional[StorageIO] = None
) -> None:
    """Write a snapshot crash-atomically (temp file + ``os.replace``).

    A crash at any point leaves either the previous file intact or the
    complete new image -- never a half-written snapshot under ``path``
    (a stray ``*.tmp`` is harmless and overwritten next time).
    """
    if io is None:
        io = StorageIO()
    data = encode_state(state)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        io.write(handle, data, "snapshot:write")
        io.fsync(handle, "snapshot:write")
    io.replace(tmp, path, "snapshot:commit")
    io.fsync_dir(os.path.dirname(os.path.abspath(path)),
                 "snapshot:commit")


def read_snapshot(path: str) -> DocumentState:
    """Read and fully validate a snapshot file.

    Raises :class:`SnapshotError` on any corruption (including a bad
    element-count cross-check, see :func:`document_element_count`);
    raises ``FileNotFoundError`` when the file does not exist.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    state = decode_state(data)
    # Independent invariant check: recount the document's elements from
    # the grammar alone (O(|G|), not O(N)) and compare with both the
    # stored count and the imported start-rule segments.  A snapshot
    # whose checksum collides into a consistent-looking but wrong image
    # is caught here instead of surfacing as query nonsense later.
    recounted = document_element_count(state.grammar)
    if recounted != state.element_count:
        raise SnapshotError(
            f"element count mismatch: snapshot says "
            f"{state.element_count}, grammar generates {recounted}"
        )
    start_segments = state.segments.get(state.grammar.start)
    if start_segments is not None and sum(start_segments[1]) != recounted:
        raise SnapshotError("start-rule element segments are inconsistent")
    return state


def document_element_count(grammar: Grammar) -> int:
    """Elements of ``valG(S)``, recounted bottom-up from rule bodies.

    Independent of any index state: per rule, count the non-``⊥``
    terminals of the body plus the callees' totals (arguments live in
    the caller's body and are counted there; parameters contribute 0).
    """
    totals: Dict[Symbol, int] = {}

    def resolve(head: Symbol) -> int:
        stack = [head]
        while stack:
            current = stack[-1]
            if current in totals:
                stack.pop()
                continue
            missing: List[Symbol] = []
            count = 0
            walk = [grammar.rhs(current)]
            while walk:
                node = walk.pop()
                symbol = node.symbol
                if symbol.is_terminal:
                    if not symbol.is_bottom:
                        count += 1
                elif symbol.is_nonterminal:
                    cached = totals.get(symbol)
                    if cached is None:
                        missing.append(symbol)
                    else:
                        count += cached
                walk.extend(node.children)
            if missing:
                stack.extend(missing)
                continue
            totals[current] = count
            stack.pop()
        return totals[head]

    return resolve(grammar.start)
