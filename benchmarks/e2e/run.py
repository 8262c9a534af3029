"""``bench_e2e``: the repo's reference end-to-end benchmark.

One workload, one process (the driver contract in ``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload weblog_churn --seed 11 \\
        --seconds 20 --trace 0

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- every end-to-end metric with ``--trace
0``, every per-layer metric with ``--trace 1`` (the separate traced run
that also yields the time budget).  Without ``--workload`` the command
runs a *set*: every workload x ``--repeats`` seeds, each in its own
fresh subprocess, medians per metric, written to ``out/result.json``
(``--record`` appends it to ``history.jsonl``; ``--smoke`` shrinks it to
2k edges).  See README.md for the workloads, metrics and phases.

Phases of a run: ``setup`` (``from_xml`` [+ store create] + warm-up,
``SETUP_REPEATS`` times, median reported) -> ``traffic`` -> ``compact``
(one explicit ``recompress()``) -> ``reopen`` (durable only) ->
``verify`` (untimed: scratch rebuild, model replay, final checks).
"""

import argparse
import ctypes
import functools
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# Run as a script, sys.path[0] is HERE and our trace.py would shadow the
# stdlib module of that name; import the siblings through the package.
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from benchmarks.e2e import trace, workloads as wl  # noqa: E402
from benchmarks.e2e.model import FlatDoc  # noqa: E402

OUT = os.path.join(HERE, "out")
ADDR_NO_RANDOMIZE = 0x0040000
SETUP_REPEATS = 3
#: Every ``SELECT_CHECK_EVERY``-th in-traffic ``select`` (and non-``//x``
#: ``count``) is re-evaluated on the model; the model's path evaluator is
#: O(document) per call, and every distinct path is checked once more on
#: the final document anyway.
SELECT_CHECK_EVERY = 4


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# launch environment
# ----------------------------------------------------------------------
def pin_or_reexec():
    """Re-exec once with hash and address-space randomisation off.

    GrammarRePair breaks digram ties in ``id()`` order, so the same op
    stream ends at different grammars in different processes unless both
    are pinned.  Returns whether this process is pinned.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    aslr_off = persona != -1 and bool(persona & ADDR_NO_RANDOMIZE)
    hash_off = os.environ.get("PYTHONHASHSEED") == "0"
    if aslr_off and hash_off:
        return True
    if os.environ.get("BENCH_E2E_REEXEC") == "1":
        return False  # tried already; the platform refuses
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)
    env = dict(os.environ, PYTHONHASHSEED="0", BENCH_E2E_REEXEC="1")
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def fsync_probe_ms(directory):
    """Median of 50 x (4 KiB append + fsync) in the store's filesystem."""
    path = os.path.join(directory, "fsync_probe")
    samples = []
    with open(path, "ab") as handle:
        for _ in range(50):
            started = time.perf_counter()
            handle.write(b"\0" * 4096)
            handle.flush()
            os.fsync(handle.fileno())
            samples.append(time.perf_counter() - started)
    os.remove(path)
    return statistics.median(samples) * 1e3


def git_commit():
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


# ----------------------------------------------------------------------
# executing ops
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def to_nodes(fragment):
    """``XmlNode`` forest of a ``(tag, depth)`` preorder fragment; cached
    (the API copies what it is given), so building payloads stays out of
    the op latencies."""
    from repro.trees.unranked import XmlNode

    roots, path = [], []
    for tag, depth in fragment:
        node = XmlNode(tag)
        del path[depth:]
        (path[-1].children if path else roots).append(node)
        path.append(node)
    return roots


def resolve_op(op, element_count):
    """Bind an op's addresses to indices of the current document."""
    kind, address, payload = op
    if kind == "batch":
        return kind, None, tuple(
            (k, wl.resolve(a, element_count), p) for k, a, p in payload)
    if kind in ("select", "count"):
        return kind, None, payload
    return kind, wl.resolve(address, element_count), payload


def execute(target, kind, index, payload):
    """Run one resolved op through the public API; returns its answer."""
    if kind == "rename":
        return target.rename(index, payload)
    if kind == "insert":
        return target.insert(index, to_nodes(payload))
    if kind == "append_child":
        return target.append_child(index, to_nodes(payload))
    if kind == "delete":
        return target.delete(index)
    if kind == "batch":
        with target.batch() as batch:
            for sub_kind, sub_index, sub_payload in payload:
                if sub_kind == "rename":
                    batch.rename(sub_index, sub_payload)
                else:
                    batch.append_child(sub_index, to_nodes(sub_payload))
        return None
    if kind == "tag_of":
        return target.tag_of(index)
    if kind == "point":
        return (target.tag_of(index), target.parent_of(index),
                target.depth_of(index))
    if kind == "nav":
        return (target.tag_of(index), target.parent_of(index),
                target.depth_of(index), list(target.children(index)),
                target.next_sibling(index))
    if kind == "extract":
        return target.subtree_xml(index)
    if kind == "scan":
        return list(target.tags(index, index + 500))
    if kind == "select":
        return target.select(payload)
    if kind == "count":
        return target.count(payload)
    raise ValueError(f"unknown op kind {kind!r}")


def expected(model, kind, index, payload):
    """The model's answer to a read op."""
    if kind == "tag_of":
        return model.tags[index]
    if kind == "point":
        return model.tags[index], model.parent(index), model.depths[index]
    if kind == "nav":
        return (model.tags[index], model.parent(index), model.depths[index],
                model.children(index), model.next_sibling(index))
    if kind == "extract":
        return model.to_xml(index)
    if kind == "scan":
        return model.tags[index:index + 500]
    if kind == "select":
        return model.select(payload)
    return len(model.select(payload))


def api_row(op):
    """The ``api.*`` latency row an op's sample belongs to."""
    kind, address, _ = op
    if kind == "select":
        return f"select_{address}"
    if kind in ("tag_of", "point", "nav"):
        return "nav"
    return {"append_child": "append"}.get(kind, kind)


def percentile(ordered, share):
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


# ----------------------------------------------------------------------
# one episode: setup -> traffic -> compact -> reopen -> verify
# ----------------------------------------------------------------------
API_ROWS = ("rename", "insert", "append", "delete", "batch", "nav", "extract",
            "scan", "select_selective", "select_path", "select_nested",
            "count")
#: Span-name prefixes of the budget: the packages under ``src/repro``.
LAYERS = ("trees", "core", "updates", "grammar", "query", "storage", "api")
#: Span name -> the per-layer metric holding its inclusive traffic time.
TRAFFIC_SPANS = {
    "updates.single_op": "updates.single_op_s",
    "updates.isolate": "updates.isolate_s",
    "grammar.index.resolve": "grammar.index.resolve_s",
    "grammar.sharding.reshard": "grammar.sharding.reshard_s",
    "query.parse": "query.parse_s",
    "query.walk": "query.walk_s",
    "query.extract": "query.extract_s",
    "storage.wal_append": "storage.wal_append_s",
    "storage.fsync": "storage.fsync_s",
    "storage.checkpoint": "storage.checkpoint_s",
}


class Run:
    """One workload, one seed: the state shared by its episodes."""

    def __init__(self, workload, seed, edges, smoke, traced):
        from repro.datasets.synthetic import make_corpus
        from repro.trees.xml_io import serialize_xml

        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.xml = serialize_xml(
            make_corpus(workload.corpus, edges=edges, seed=wl.CORPUS_SEED))
        # Fixed-width pid: a path one character longer is a string one
        # size class larger, and every later address shifts with it.
        self.store_root = os.path.join(
            OUT, f"store_{workload.name}_{os.getpid():07d}")
        os.makedirs(self.store_root, exist_ok=True)
        self.stores = 0
        self.tracer = self.io = None
        if traced:
            self.tracer = trace.Tracer()
            self.io = trace.TimedIO(self.tracer)
        self.failures = []
        self.attempted = 0
        #: Additive seconds and counts, summed over the episodes.
        self.totals = {}
        #: Quantities combined by ``max``.
        self.peaks = {}
        self.setups = []
        #: ``(api row, is write, seconds)`` of every traffic op.
        self.samples = []
        #: Self seconds per span name over the traffic phases.
        self.budget = {}

    def add(self, **amounts):
        for key, amount in amounts.items():
            self.totals[key] = self.totals.get(key, 0) + amount

    def peak(self, **amounts):
        for key, amount in amounts.items():
            self.peaks[key] = max(self.peaks.get(key, 0), amount)

    def span_mark(self):
        return len(self.tracer.spans) if self.tracer else 0

    def build(self):
        """The timed ``setup`` phase: what a user writes to get a
        document (or a store) ready to serve its first request."""
        from repro.api import CompressedXml

        doc = CompressedXml.from_xml(
            self.xml, auto_recompress_factor=self.workload.auto_factor,
            shard_width=wl.SHARD_WIDTH)
        if self.workload.durable:
            from repro.api import DurableXml

            self.stores += 1
            doc = DurableXml.create(
                os.path.join(self.store_root, str(self.stores)), doc,
                io=self.io, checkpoint_wal_bytes=wl.CHECKPOINT_WAL_BYTES)
        doc.count("//alert")
        doc.tag_of(1)
        return doc

    def traffic(self, target, ops):
        """Closed loop, one client: (wall, latencies, answers, batch
        stage seconds)."""
        latencies, answers = [], []
        stages = dict.fromkeys(
            ("batch_plan_s", "batch_isolate_s", "batch_apply_s"), 0.0)
        tracer = self.tracer
        clock = time.perf_counter
        started = clock()
        for number, op in enumerate(ops):
            span = None
            if tracer is not None:
                tracer.op_id = number
                span = tracer.begin("api." + api_row(op))
            before = clock()
            # Asking the document its size is part of the request: after
            # a write it is the first read, and pays any index rebuild
            # the write deferred.
            kind, index, payload = resolved = resolve_op(
                op, target.element_count)
            try:
                answer = execute(target, kind, index, payload)
            except Exception as exc:  # a failed op is a result, not a crash
                answer = exc
            latencies.append(clock() - before)
            if span is not None:
                tracer.end(span)
            answers.append((resolved, answer))
            if kind == "batch" and answer is None:
                # Only the last batch's stage times are public; sum them
                # as they appear.
                stats = target.last_batch_stats
                stages["batch_plan_s"] += stats.plan_seconds
                stages["batch_isolate_s"] += stats.isolate_seconds
                stages["batch_apply_s"] += stats.apply_seconds
        return clock() - started, latencies, answers, stages

    def check(self, what, got, want):
        self.attempted += 1
        if got != want:
            self.failures.append(f"{what}: got {str(got)[:80]!r}, "
                                 f"model says {str(want)[:80]!r}")

    def replay_on_model(self, model, answers):
        """Apply the stream to the model, checking in-traffic answers."""
        selects = 0
        for number, ((kind, index, payload), answer) in enumerate(answers):
            self.attempted += 1
            if isinstance(answer, Exception):
                self.failures.append(f"op {number} {kind}: {answer!r}")
            elif kind == "batch":
                for sub_kind, sub_index, sub_payload in payload:
                    model.apply(sub_kind, sub_index, sub_payload)
            elif kind in wl.WRITE_KINDS:
                model.apply(kind, index, payload)
            else:
                if kind == "select" or (
                        kind == "count" and payload.count("/") > 2):
                    selects += 1
                    if selects % SELECT_CHECK_EVERY:
                        continue
                self.check(f"op {number} {kind}", answer,
                           expected(model, kind, index, payload))

    def episode(self, number):
        from repro.api import CompressedXml

        workload, tracer = self.workload, self.tracer
        clock = time.perf_counter
        ops = workload.ops(self.seed, number, self.smoke)
        if tracer is not None:
            # The untraced twin: same stream on a fresh document, for
            # the tracing overhead.
            twin = self.build()
            self.add(untraced_wall_s=self.traffic(twin, ops)[0])
            twin = None
            trace.install(tracer)

        # -- setup -----------------------------------------------------
        gc.collect()
        setup_mark = self.span_mark()
        started = clock()
        target = self.build()
        self.setups.append(clock() - started)
        doc = target.document if workload.durable else target

        # -- traffic ---------------------------------------------------
        traffic_mark = self.span_mark()
        if tracer is not None:
            tracer.repair = dict.fromkeys(tracer.repair, 0)  # drop builds
        queries_before = query_counters(doc)
        wall, latencies, answers, stages = self.traffic(target, ops)
        traffic_end = self.span_mark()
        self.add(**stages)
        repair = dict(tracer.repair) if tracer else None  # before compact
        self.add(**{key: count - queries_before[key]
                    for key, count in query_counters(doc).items()})
        self.samples.extend(
            (api_row(op), op[0] in wl.WRITE_KINDS, seconds)
            for op, seconds in zip(ops, latencies))
        self.add(
            ops=len(ops), traffic_wall_s=wall,
            recompress_runs=doc.recompress_runs,
            recompress_s=doc.recompress_seconds,
            occ_maintenance_s=doc.maintenance_seconds,
            rules_censused=doc.rules_censused_total,
            rules_adapted=doc.rules_adapted_total,
            rules_inlined=doc.rules_inlined_total,
        )

        # -- compact ---------------------------------------------------
        started = clock()
        target.recompress()
        if number == 0:
            # Before any verify phase has run: the system's own peak,
            # not the model's or the scratch rebuild's.
            self.peak(rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024)
        self.add(compact_s=clock() - started,
                 compact_rounds=doc.last_repair_stats.rounds,
                 final_size=doc.compressed_size,
                 final_edges=doc.edge_count,
                 final_rules=len(doc.grammar.rules))

        # -- reopen (durable): abandon the writer, recover from disk ---
        reopened_xml = reopened_alerts = None
        if workload.durable:
            from repro.api import DurableXml

            directory = target.directory
            self.add(disk_bytes=directory_bytes(directory),
                     checkpoints=target.generation)
            target = None  # no close(), no final checkpoint
            gc.collect()
            started = clock()
            reopened = DurableXml.open(
                directory, io=self.io,
                checkpoint_wal_bytes=wl.CHECKPOINT_WAL_BYTES,
                auto_recompress_factor=workload.auto_factor)
            reopened_alerts = reopened.count("//alert")
            self.add(reopen_s=clock() - started,
                     replayed_records=reopened.last_recovery.replayed)
            reopened_xml = reopened.to_xml()
            reopened.close()
        reopen_end = self.span_mark()
        if tracer is not None:
            self._collect_spans(setup_mark, traffic_mark, traffic_end,
                                reopen_end, repair)
            tracer.uninstall()

        # -- verify (untimed) ------------------------------------------
        final_xml = doc.to_xml()
        started = clock()
        scratch = CompressedXml.from_xml(
            doc.to_xml(), auto_recompress_factor=workload.auto_factor,
            shard_width=wl.SHARD_WIDTH)
        self.add(scratch_rebuild_s=clock() - started,
                 scratch_size=scratch.compressed_size,
                 xml_bytes=len(final_xml))
        scratch = None
        self._collect_counters(doc)

        model = FlatDoc.from_xml(self.xml)
        self.replay_on_model(model, answers)
        self.check("final to_xml", final_xml, model.to_xml())
        for path in sorted({p for k, _, p in ops if k in ("select", "count")}):
            self.check(f"final select {path}", doc.select(path),
                       model.select(path))
        if workload.durable:
            self.check("reopened to_xml", reopened_xml, model.to_xml())
            self.check("reopened count", reopened_alerts,
                       model.tags.count("alert"))

    def _collect_counters(self, doc):
        index, labels = doc.index.to_dict(), doc.label_index.to_dict()
        kernel = doc.index.kernel
        kernel = kernel.to_dict() if kernel is not None else {}
        shards = doc.shard_manager.stats.to_dict()
        self.add(
            index_evicted_rules=index["evicted_rules"],
            wholesale_invalidations=(index["wholesale_invalidations"]
                                     + labels["wholesale_invalidations"]),
            label_evicted_rules=labels["evicted_rules"],
            shard_splits=shards["splits"], shard_merges=shards["merges"],
            **{f"kernel_{key}": kernel.get(key, 0)
               for key in ("builds", "evictions", "hits", "misses",
                           "bytes_packed")})
        self.peak(max_width_seen=shards["max_width_seen"])

    def _collect_spans(self, setup, traffic, traffic_end, reopen_end,
                       repair):
        tracer = self.tracer
        self.add(
            parse_s=tracer.total("trees.parse", setup, traffic),
            encode_s=tracer.total("trees.encode", setup, traffic_end),
            build_compress_s=tracer.total(
                "core.build_compress", setup, traffic),
            recover_s=tracer.total("storage.recover", traffic_end,
                                   reopen_end),
            replay_s=tracer.total("storage.replay", traffic_end, reopen_end),
            **{f"repair_{key}": repair[key]
               for key in ("rounds", "census_s", "rounds_s", "prune_s")},
            **{key: tracer.total(name, traffic, traffic_end)
               for name, key in TRAFFIC_SPANS.items()})
        self.peak(recompress_max_s=repair["max_s"])
        for name, seconds in tracer.self_times(traffic, traffic_end).items():
            self.budget[name] = self.budget.get(name, 0.0) + seconds

    def close(self):
        if self.tracer is not None:
            self.tracer.uninstall()
        shutil.rmtree(self.store_root, ignore_errors=True)


def query_counters(doc):
    """The registry's query counters (process-wide, hence read as
    deltas around the traffic phase)."""
    counters = doc.metrics()["counters"]
    return {
        "pruned_subtrees": counters.get(
            "repro_query_pruned_subtrees_total", 0),
        "query_matches": counters.get("repro_query_matches_total", 0),
    }


def directory_bytes(directory):
    return sum(os.path.getsize(os.path.join(directory, name))
               for name in os.listdir(directory))


def run_workload(workload, seed, seconds, smoke, traced, pinned):
    """Run the episodes ``--seconds`` buys; returns the result record."""
    edges = wl.SMOKE_EDGES if smoke else workload.edges
    run = Run(workload, seed, edges, smoke, traced)
    try:
        probe_ms = fsync_probe_ms(run.store_root)
        episodes = workload.episodes(seconds)
        for number in range(episodes):
            run.episode(number)
        metrics, layers = summarize(run, episodes, probe_ms)
        budget = None
        if traced:
            budget = dict(sorted(run.budget.items(), key=lambda r: -r[1]))
            run.tracer.write_chrome(
                os.path.join(OUT, f"trace_{workload.name}.json"))
    finally:
        run.close()
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "edges": edges, "episodes": episodes, "ops": run.totals["ops"],
        "pinned": pinned, "correct": not run.failures,
        "attempted": run.attempted, "failed": len(run.failures),
        "failures": run.failures[:10],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "layers": {k: {"value": v, "unit": u}
                   for k, (v, u) in layers.items()},
        "budget": budget,
    }


def summarize(run, episodes, probe_ms):
    """End-to-end and per-layer metrics from the episodes' totals."""
    total, peaks = run.totals, run.peaks
    wall = total["traffic_wall_s"]
    writes = sorted(s for _, write, s in run.samples if write)
    reads = sorted(s for _, write, s in run.samples if not write)
    everything = sorted(s for _, _, s in run.samples)
    metrics = {
        "setup_s": (statistics.median(run.setups), "s"),
        "traffic_ops_per_s": (total["ops"] / wall, "1/s"),
        "apply_and_compact_s": (
            (wall + total["compact_s"]) / episodes, "s"),
        "update_p50_ms": (percentile(writes, 0.5) * 1e3, "ms"),
        "query_p50_ms": (percentile(reads, 0.5) * 1e3, "ms"),
        "op_p99_ms": (percentile(everything, 0.99) * 1e3, "ms"),
        "final_size_ratio": (
            total["final_size"] / total["final_edges"], "ratio"),
        "size_vs_scratch": (
            total["final_size"] / total["scratch_size"], "ratio"),
        "peak_rss_mb": (peaks["rss_mb"], "MiB"),
        "failed_ops_share": (len(run.failures) / run.attempted, "share"),
    }
    layers = {
        "episodes": (episodes, "count"),
        "traffic_wall_s": (wall, "s"),
        "core.recompress_runs": (total["recompress_runs"], "count"),
        "core.recompress_s": (total["recompress_s"], "s"),
        "core.occ_maintenance_s": (total["occ_maintenance_s"], "s"),
        "core.rules_censused": (total["rules_censused"], "count"),
        "core.rules_adapted": (total["rules_adapted"], "count"),
        "core.compact_s": (total["compact_s"], "s"),
        "core.compact_rounds": (total["compact_rounds"], "count"),
        "core.scratch_rebuild_s": (total["scratch_rebuild_s"], "s"),
        "updates.rules_inlined": (total["rules_inlined"], "count"),
        "updates.inlines_per_op": (
            total["rules_inlined"] / len(writes), "count"),
        "grammar.index.evicted_rules": (
            total["index_evicted_rules"], "count"),
        "grammar.index.wholesale_invalidations": (
            total["wholesale_invalidations"], "count"),
        "grammar.kernel.hit_ratio": (
            total["kernel_hits"]
            / max(1, total["kernel_hits"] + total["kernel_misses"]), "ratio"),
        "grammar.sharding.splits": (total["shard_splits"], "count"),
        "grammar.sharding.merges": (total["shard_merges"], "count"),
        "grammar.sharding.max_width_seen": (
            peaks["max_width_seen"], "count"),
        "grammar.rules_final": (total["final_rules"], "count"),
        "grammar.size_edges_final": (total["final_size"], "count"),
        "query.label_index.evicted_rules": (
            total["label_evicted_rules"], "count"),
        "query.pruned_subtrees": (total["pruned_subtrees"], "count"),
        "query.matches": (total["query_matches"], "count"),
        "updates.batch_plan_s": (total["batch_plan_s"], "s"),
        "updates.batch_isolate_s": (total["batch_isolate_s"], "s"),
        "updates.batch_apply_s": (total["batch_apply_s"], "s"),
        "storage.fsync_probe_ms": (probe_ms, "ms"),
        "api.update_p99_ms": (percentile(writes, 0.99) * 1e3, "ms"),
        "api.query_p99_ms": (percentile(reads, 0.99) * 1e3, "ms"),
        "api.update_max_ms": (writes[-1] * 1e3, "ms"),
        "api.stall_ops_over_100ms": (
            sum(1 for _, _, s in run.samples if s > 0.1), "ops"),
    }
    for key in ("builds", "evictions", "hits", "misses"):
        layers[f"grammar.kernel.{key}"] = (total[f"kernel_{key}"], "count")
    layers["grammar.kernel.bytes_packed"] = (
        total["kernel_bytes_packed"], "By")
    by_row = {}
    for row, _, seconds in run.samples:
        by_row.setdefault(row, []).append(seconds)
    for row in API_ROWS:
        samples = sorted(by_row.get(row, ()))
        layers[f"api.{row}_p50_ms"] = (
            percentile(samples, 0.5) * 1e3 if samples else 0.0, "ms")
        layers[f"api.{row}_n"] = (len(samples), "count")
    # Zero on the in-memory workloads: storage works only where a store is.
    disk_ratio = total.get("disk_bytes", 0) / total["xml_bytes"]
    layers.update({
        "storage.reopen_s": (total.get("reopen_s", 0.0), "s"),
        "storage.replayed_records": (
            total.get("replayed_records", 0), "count"),
        "storage.checkpoint_count": (total.get("checkpoints", 0), "count"),
        "storage.disk_bytes_per_xml_byte": (disk_ratio, "ratio"),
    })
    if run.tracer is not None:
        layers.update(traced_layers(run, len(writes)))
    return metrics, layers


def traced_layers(run, writes):
    """Per-layer times from the spans, and the traffic time budget."""
    total, io = run.totals, run.io
    wall = total["traffic_wall_s"]
    layers = {
        "trees.parse_s": (total["parse_s"], "s"),
        "trees.encode_s": (total["encode_s"], "s"),
        "core.build_compress_s": (total["build_compress_s"], "s"),
        "core.recompress_rounds": (total["repair_rounds"], "count"),
        "core.recompress_census_s": (total["repair_census_s"], "s"),
        "core.recompress_rounds_s": (total["repair_rounds_s"], "s"),
        "core.recompress_prune_s": (total["repair_prune_s"], "s"),
        "core.recompress_max_ms": (
            run.peaks["recompress_max_s"] * 1e3, "ms"),
        "storage.recover_s": (total["recover_s"], "s"),
        "storage.replay_s": (total["replay_s"], "s"),
        "storage.fsync_count": (io.fsync_count, "count"),
        "storage.bytes_written": (io.bytes_written, "By"),
        "storage.wal_bytes_per_op": (io.bytes_written / writes, "By"),
        "obs.trace_overhead_pct": (
            (wall / total["untraced_wall_s"] - 1) * 100, "%"),
    }
    for key in TRAFFIC_SPANS.values():
        layers[key] = (total[key], "s")
    # The budget: self time per span name over the traffic phases.  Every
    # span lies under an ``api.*`` op span, so the rows sum to the time
    # inside ops; the loop around them is the unaccounted remainder.
    rows = run.budget
    rows["unaccounted"] = wall - sum(rows.values())
    layers["budget.unaccounted_s"] = (rows["unaccounted"], "s")
    layers["budget.unaccounted_pct"] = (rows["unaccounted"] / wall * 100, "%")
    for layer in LAYERS:
        share = sum(seconds for name, seconds in rows.items()
                    if name.split(".")[0] == layer) / wall
        layers[f"budget.{layer}_pct"] = (share * 100, "%")
    return layers


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def print_result(result, cells):
    print(f"== {result['workload']} seed={result['seed']} "
          f"edges={result['edges']} episodes={result['episodes']} "
          f"ops={result['ops']} pinned={result['pinned']}")
    for name, cell in cells.items():
        print(f"  {name:42s} {cell['value']:>14.6g} {cell['unit']}")
    if result["budget"]:
        print("  -- traffic time budget (self seconds per span name)")
        for name, seconds in result["budget"].items():
            print(f"  {name:42s} {seconds:>14.4f} s")
    for failure in result["failures"]:
        print("  FAILED", failure)


def run_single(args, spec):
    """The driver contract: one workload, JSON on the last line."""
    pinned = pin_or_reexec()
    result = run_workload(wl.WORKLOADS[args.workload], args.seed,
                          args.seconds, args.smoke, bool(args.trace), pinned)
    merged = dict(result["layers"], **result["metrics"])
    # A metric a workload has no source for (none today) reads 0.
    declared = {
        metric["name"]: merged.get(
            metric["name"], {"value": 0, "unit": metric["unit"]})
        for metric in spec["per_layer" if args.trace else "end_to_end"]
    }
    print_result(result, merged if args.verbose else declared)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result, handle)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": declared,
    }))
    return 0 if result["correct"] else 1


def run_set(args, spec):
    """Every workload x ``--repeats`` seeds (+ one traced run each),
    each in a fresh subprocess; medians written to ``out/result.json``."""
    os.makedirs(OUT, exist_ok=True)
    seeds = [args.seed + k for k in range(args.repeats)]
    record = {
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "git_commit": git_commit(),
            "seeds": seeds,
            "seconds": args.seconds,
            "smoke": args.smoke,
        },
        "workloads": {},
    }
    status = 0
    for name in wl.WORKLOADS:
        runs = []
        for seed, traced in [(s, 0) for s in seeds] + [(seeds[0], 1)]:
            path = os.path.join(OUT, f"run_{name}_{seed}_{traced}.json")
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(traced), "--json", path, "--verbose"]
            if args.smoke:
                command.append("--smoke")
            completed = subprocess.run(command, stdout=subprocess.PIPE,
                                       text=True)
            status = status or completed.returncode
            # Everything but the driver's JSON line.
            print("\n".join(completed.stdout.splitlines()[:-1]), flush=True)
            with open(path) as handle:
                runs.append(json.load(handle))
            os.remove(path)
        untraced, traced_run = runs[:-1], runs[-1]
        entry = {
            "ops": untraced[0]["ops"],
            "edges": untraced[0]["edges"],
            "pinned": all(r["pinned"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {}, "per_layer": traced_run["layers"],
            "budget": traced_run["budget"],
        }
        for metric in untraced[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in untraced]
            entry["end_to_end"][metric] = {
                "value": statistics.median(values),
                "unit": untraced[0]["metrics"][metric]["unit"],
                "values": values,
            }
        record["workloads"][name] = entry
    record["environment"]["pinned"] = all(
        entry["pinned"] for entry in record["workloads"].values())
    record["environment"]["fsync_probe_ms"] = traced_run["layers"][
        "storage.fsync_probe_ms"]["value"]
    declared = [m["name"] for m in spec["end_to_end"]]
    print("\n== medians over seeds", seeds)
    for name, entry in record["workloads"].items():
        for metric, cell in entry["end_to_end"].items():
            flag = "" if metric in declared else "  (not declared)"
            print(f"  {name:22s} {metric:26s} {cell['value']:>12.5g} "
                  f"{cell['unit']}{flag}")
    with open(os.path.join(OUT, "result.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    if args.record:
        with open(os.path.join(HERE, "history.jsonl"), "a") as handle:
            handle.write(json.dumps(record) + "\n")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="2k-edge documents, for CI and the self-test")
    parser.add_argument("--repeats", type=int, default=3,
                        help="seeds per workload in a set")
    parser.add_argument("--record", action="store_true",
                        help="append the set's result to history.jsonl")
    parser.add_argument("--json", help="also write the full run record here")
    parser.add_argument("--verbose", action="store_true",
                        help="print every metric, declared or not")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = 0 if args.smoke else spec["run_seconds"]
    return (run_single if args.workload else run_set)(args, spec)


if __name__ == "__main__":
    sys.exit(main())
