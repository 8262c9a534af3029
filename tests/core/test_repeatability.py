"""The same op stream yields the same grammar in every process.

Strings hash by ``PYTHONHASHSEED`` and symbols by address, so a set of
either iterates in an order of its own in every process; a
recompression whose outcome leaned on such an order would pin counts
and digests that hold in one process only.  Each case below replays one
fixed stream of writes in two interpreters with different hash seeds
and compares the ``format_grammar`` text byte for byte (a digram
tie-break by ``hash(name)`` fails it).
"""

import os
import random
import subprocess
import sys
from pathlib import Path

from repro import api
from repro.api import CompressedXml
from repro.datasets.synthetic import make_corpus
from repro.grammar.serialize import format_grammar
from repro.trees.unranked import XmlNode

ROOT = Path(__file__).resolve().parents[2]
CORPORA = ("EXI-Weblog", "XMark")


def write(doc, rng):
    """One rename, insert or delete at a random element."""
    kind = rng.choice(("rename", "rename", "insert", "delete"))
    at = rng.randrange(1, doc.element_count)
    if kind == "rename":
        doc.rename(at, f"r{rng.randrange(4)}")
    elif kind == "insert":
        doc.insert(at, XmlNode(f"n{rng.randrange(4)}"))
    else:
        doc.delete(at)


def grammars():
    """Per corpus (4k edges, shard width 64): the grammar after 120
    writes and one unbudgeted ``recompress()``, and after 150 writes
    under the automatic policy paying one-round steps, finished by
    ``recompress()``.  The paused-write count heads each stepped case,
    so a stream that never paused shows."""
    out = []
    for corpus in CORPORA:
        tree = make_corpus(corpus, edges=4000, seed=5)
        rng = random.Random(11)
        doc = CompressedXml.from_document(tree, shard_width=64)
        for _ in range(120):
            write(doc, rng)
        doc.recompress()
        out.append(format_grammar(doc.grammar))

        api.STEP_SECONDS = 0.0
        doc = CompressedXml.from_document(
            tree, shard_width=64, auto_recompress_factor=1.05)
        paused = 0
        for _ in range(150):
            write(doc, rng)
            paused += doc._repair is not None
        doc.recompress()
        out.append(f"paused writes: {paused}\n"
                   + format_grammar(doc.grammar))
    return "\n".join(out)


def test_grammars_do_not_depend_on_the_hash_seed():
    runs = []
    for seed in ("0", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                               str(ROOT)]))
        runs.append(subprocess.Popen(
            [sys.executable, "-c",
             "from tests.core.test_repeatability import grammars;"
             "print(grammars())"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True))
    outputs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    first, second = outputs
    assert first.count("paused writes: ") == len(CORPORA)
    assert "paused writes: 0\n" not in first
    assert first == second
