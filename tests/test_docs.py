"""README.md names only files -- and index attributes -- that exist.

Deleting a benchmark, a recorded result or a module must not leave the
README pointing at it: every ``BENCH_*.json``, ``benchmarks/**.py``,
``tests/**.py``, ``examples/*.py`` and ``src/repro/**.py`` path the
README mentions is resolved against the repository root.  Likewise the
"Flat kernel" section: every identifier it quotes in backticks must
still be an attribute of the index, a rule pack, the grammar or the
document (or a public name of the kernel module or of the oracle modules
it cites).  The pack cache has one owner, the index: neither the README
nor ``src/`` may name the separate pack-cache class it replaced.
"""

import os
import re

from repro.api import CompressedXml, DurableXml
from repro.grammar import derivation, navigation
from repro.grammar import kernel as kernel_module

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PATH_PATTERN = re.compile(
    r"(?<![\w/.-])"
    r"(BENCH_\w+\.json|(?:benchmarks|tests|examples|src/repro)/[\w/.-]+\.py)"
)


def readme_paths():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        return sorted(set(PATH_PATTERN.findall(handle.read())))


def test_readme_names_only_existing_files():
    paths = readme_paths()
    assert paths, "the README names no files at all -- pattern rotted?"
    missing = [
        path for path in paths
        if not os.path.isfile(os.path.join(ROOT, path))
    ]
    assert not missing, f"README.md names missing files: {missing}"


BACKTICKED = re.compile(r"`([^`\n]+)`")
#: A quoted name on its own -- optionally qualified, called or
#: subscripted -- or a subscripted column inside a quoted expression.
IDENTIFIER = re.compile(r"^(?:\w+\.)?([a-z_][a-z0-9_]*)(?:\(\)|\[\w+\])?$")
SUBSCRIPTED = re.compile(r"\b([a-z_][a-z0-9_]*)\[")


def flat_kernel_identifiers():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("### Flat kernel", 1)[1].split("\n## ", 1)[0]
    names = set()
    for quoted in BACKTICKED.findall(section):
        names.update(IDENTIFIER.findall(quoted))
        names.update(SUBSCRIPTED.findall(quoted))
    return sorted(names)


def test_flat_kernel_section_quotes_only_live_attributes():
    doc = CompressedXml.from_xml("<a><b/><c/></a>")
    index = doc.index
    pack = index.pack(doc.grammar.start)
    owners = (index, pack, doc, doc.grammar, DurableXml,
              kernel_module, navigation, derivation)
    # (``repro_*`` are metric names, not attributes.)
    names = [name for name in flat_kernel_identifiers()
             if not name.startswith("repro_")]
    # The gauge names of both classes are in there: the pattern works.
    assert {"evicted_rules", "wholesale_invalidations", "builds",
            "bytes_packed", "span", "nnodes"} <= set(names)
    dangling = [name for name in names
                if not any(hasattr(owner, name) for owner in owners)]
    assert not dangling, (
        f"README.md 'Flat kernel' quotes names that no longer exist on "
        f"GrammarIndex / RulePack: {dangling}"
    )


QUALIFIED = re.compile(r"\b(GrammarIndex|RulePack)\.([a-z_]\w*)")


def source_texts():
    """``(path relative to the root, text)`` of every ``src/`` module."""
    for folder, _dirs, files in os.walk(os.path.join(ROOT, "src", "repro")):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as handle:
                    yield os.path.relpath(path, ROOT), handle.read()


def test_source_docstrings_name_only_live_index_attributes():
    """``GrammarIndex.x`` / ``RulePack.x`` anywhere under ``src/``
    (docstrings and comments included) must resolve."""
    doc = CompressedXml.from_xml("<a><b/><c/></a>")
    owners = {"GrammarIndex": doc.index,
              "RulePack": doc.index.pack(doc.grammar.start)}
    dangling = [
        f"{path}: {owner}.{attribute}"
        for path, text in source_texts()
        for owner, attribute in QUALIFIED.findall(text)
        if not hasattr(owners[owner], attribute)
    ]
    assert not dangling, f"references to deleted attributes: {dangling}"


#: The pack-cache class the index absorbed, spelled in two pieces so
#: that this file does not name it either.
FOLDED = "Grammar" "Kernel"


def test_no_text_names_the_folded_pack_cache():
    """The index owns the packs: no second owner class may come back,
    not even by name."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        texts = [("README.md", handle.read()), *source_texts()]
    naming = [path for path, text in texts if FOLDED in text]
    assert not naming, f"{FOLDED} is named in {naming}"
