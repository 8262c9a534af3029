"""Self-test of ``bench_e2e`` (collected only when named explicitly:
``PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py``).

* the reference model against ``repro.query.naive`` and plain
  ``XmlNode`` surgery on small documents -- the model must be right
  before its verdict on the system means anything;
* the smoke set: every workload, untraced and traced, at 2k edges --
  every metric ``BENCHMARK.json`` names is printed with its unit, the
  budget sums to the traffic wall time, no wholesale index
  invalidation, and the model check passes.
"""

import json
import os
import random
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from benchmarks.e2e import workloads as wl  # noqa: E402
from benchmarks.e2e.compare import spread, verdict  # noqa: E402
from benchmarks.e2e.model import FlatDoc  # noqa: E402
from benchmarks.e2e.run import to_nodes  # noqa: E402
from repro.datasets.synthetic import make_corpus  # noqa: E402
from repro.query.naive import naive_select  # noqa: E402
from repro.trees.xml_io import serialize_xml  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

PATHS = ("/site", "//item", "//item//listitem", "/site/regions/*/item[3]/name",
         "//auction/bidder[2]", "/site/people/person/homepage", "//*",
         "/nothing", "//address/city", "/site/*[2]/*")


#: Fresh nodes per call: the tree under surgery must not share them.
fragment_nodes = to_nodes.__wrapped__


def surgery(root, kind, index, payload):
    """The op on a plain tree, by list surgery on ``children``."""
    order = list(root.preorder())
    parents = {id(c): n for n in order for c in n.children}
    node = order[index]
    if kind == "rename":
        node.tag = payload
    elif kind == "append_child":
        node.children.extend(fragment_nodes(payload))
    else:
        siblings = parents[id(node)].children
        at = next(i for i, s in enumerate(siblings) if s is node)
        if kind == "delete":
            del siblings[at]
        else:
            siblings[at:at] = fragment_nodes(payload)


@pytest.mark.parametrize("corpus", ["XMark", "Treebank", "EXI-Weblog"])
def test_model_parses_and_selects_like_the_naive_oracle(corpus):
    root = make_corpus(corpus, edges=300, seed=3)
    model = FlatDoc.from_xml(serialize_xml(root))
    assert model.to_xml() == serialize_xml(root)
    for path in PATHS + ("//S//VP", "/log/entry[2]/ip", "//NP/*[1]"):
        assert model.select(path) == naive_select(root, path), path


@pytest.mark.parametrize("seed", range(5))
def test_model_updates_match_tree_surgery(seed):
    rng = random.Random(seed)
    root = make_corpus("XMark", edges=120, seed=seed)
    model = FlatDoc.from_xml(serialize_xml(root))
    for _ in range(60):
        kind = rng.choice(wl.UPDATE_MIX)
        index = wl.resolve(rng.random(), len(model))
        payload = {"rename": "renamed", "delete": None}.get(
            kind, rng.choice(wl.CONSTITUENTS))
        surgery(root, kind, index, payload)
        model.apply(kind, index, payload)
        assert model.to_xml() == serialize_xml(root)
    order = list(root.preorder())
    for index in rng.sample(range(len(order)), 20):
        assert model.to_xml(index) == serialize_xml(order[index])
        assert [model.tags[c] for c in model.children(index)] == [
            c.tag for c in order[index].children]
        parent = model.parent(index)
        assert (parent is None) == (index == 0)
        if parent is not None:
            assert order[index] in order[parent].children
    assert model.select("//NP") == naive_select(root, "//NP")


def test_model_rejects_root_surgery_and_bad_paths():
    model = FlatDoc.from_xml("<a><b/></a>")
    with pytest.raises(ValueError):
        model.delete(0)
    with pytest.raises(ValueError):
        model.insert(0, wl.ENTRY)
    with pytest.raises(ValueError):
        model.select("a/b")


def test_streams_are_seeded_and_stratified():
    for workload in wl.WORKLOADS.values():
        assert workload.ops(5, 0) == workload.ops(5, 0)
        assert workload.ops(5, 0) != workload.ops(5, 1)
        assert workload.ops(5, 0) != workload.ops(6, 0)
    kinds = [op[0] for op in wl.WORKLOADS["xmark_reads"].ops(1, 0)]
    assert kinds.count("batch") * 100 == 8 * len(kinds)  # exactly 8%
    nested = [op for op in wl.WORKLOADS["xmark_reads"].ops(1, 0)
              if op[1] == "nested"]
    assert len(nested) * 200 == len(kinds)


def test_compare_verdicts():
    metric = {"bound": 0.1, "better": "lower"}
    def cell(*values):
        return {"value": sorted(values)[len(values) // 2],
                "values": list(values)}

    assert verdict(cell(1.0, 1.01, 0.99), cell(1.05, 1.04, 1.06),
                   metric)[1] == "ok"
    assert verdict(cell(1.0, 1.01, 0.99), cell(1.2, 1.21, 1.19),
                   metric)[1] == "worse"
    assert verdict(cell(1.0, 1.01, 0.99), cell(0.8, 0.81, 0.79),
                   metric)[1] == "better"
    assert verdict(cell(1.0, 1.3, 0.7), cell(1.2, 1.21, 1.19),
                   metric)[1] == "unresolved"
    higher = {"bound": 0.1, "better": "higher"}
    assert verdict(cell(100.0), cell(80.0), higher)[1] == "worse"
    assert spread([1.0]) == 0.0


def run_smoke(workload, traced):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--smoke", "--trace", str(traced), "--verbose"],
        capture_output=True, text=True, timeout=170)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return completed.stdout.splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_declared_metric(workload):
    assert workload in wl.WORKLOADS
    for traced, section in ((0, "end_to_end"), (1, "per_layer")):
        lines = run_smoke(workload, traced)
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert set(result["metrics"]) == set(declared)
        printed = {line.split()[0]: line.split()[-1]
                   for line in lines if line.startswith("  ")}
        for name, unit in declared.items():
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", name)
            assert result["metrics"][name]["unit"] == unit
            assert printed[name] == unit
        values = {n: m["value"] for n, m in result["metrics"].items()}
        if not traced:
            assert all(value > 0 for value in values.values()), values
            continue
        assert values["grammar.index.wholesale_invalidations"] == 0
        # The rows other than ``unaccounted`` sum to the traffic wall
        # time within 5%.
        assert abs(values["budget.unaccounted_pct"]) <= 5.0
        assert (values["budget.storage_pct"] > 0) == (
            workload == "weblog_tail_durable")
