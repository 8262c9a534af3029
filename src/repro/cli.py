"""``repro-xml``: command-line front end.

Subcommands::

    repro-xml compress  doc.xml -o doc.grammar      # XML -> grammar
    repro-xml decompress doc.grammar -o doc.xml     # grammar -> XML
    repro-xml stats     doc.xml | doc.grammar       # Table III-style row
    repro-xml query     doc.grammar '/log//status'  # grammar-native select
    repro-xml update    doc.grammar rename 3 newtag [-o out.grammar]
    repro-xml durable   init store/ --xml doc.xml   # crash-safe store
    repro-xml durable   update store/ rename 3 newtag
    repro-xml durable   metrics store/ --prometheus # scrape endpoint text
    repro-xml experiment table3 figure2 ...         # regenerate results
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import CompressedXml
from repro.trees.xml_io import parse_xml


def _load(path: str, **kwargs) -> CompressedXml:
    if path.endswith(".grammar"):
        return CompressedXml.from_grammar_file(path, **kwargs)
    return CompressedXml.from_file(path, **kwargs)


def _cmd_compress(args) -> int:
    doc = CompressedXml.from_file(args.input, kin=args.kin)
    output = args.output or (args.input + ".grammar")
    doc.save_grammar(output)
    print(
        f"{args.input}: {doc.edge_count} edges -> grammar of "
        f"{doc.compressed_size} edges "
        f"({100.0 * doc.compression_ratio:.2f}%) -> {output}"
    )
    return 0


def _cmd_decompress(args) -> int:
    doc = CompressedXml.from_grammar_file(args.input)
    xml = doc.to_xml(indent=2 if args.pretty else None)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(xml)
        print(f"wrote {args.output} ({doc.element_count} elements)")
    else:
        print(xml)
    return 0


def _cmd_stats(args) -> int:
    doc = _load(args.input)
    print(f"elements:    {doc.element_count}")
    print(f"edges:       {doc.edge_count}")
    print(f"c-edges:     {doc.compressed_size}")
    print(f"ratio:       {100.0 * doc.compression_ratio:.3f}%")
    return 0


def _cmd_query(args) -> int:
    doc = _load(args.input)
    if args.count:
        print(doc.count(args.path))
        return 0
    matches = doc.select(args.path)
    shown = matches if args.limit is None else matches[: args.limit]
    for index in shown:
        if args.extract:
            print(doc.subtree_xml(index))
        else:
            print(f"{index}\t{doc.tag_of(index)}")
    if len(shown) < len(matches):
        print(f"... {len(matches) - len(shown)} more", file=sys.stderr)
    print(f"{len(matches)} match(es)", file=sys.stderr)
    return 0


def _cmd_update(args) -> int:
    doc = _load(args.input)
    operation = args.operation
    if operation == "rename":
        doc.rename(int(args.args[0]), args.args[1])
    elif operation == "delete":
        doc.delete(int(args.args[0]))
    elif operation == "insert":
        fragment = parse_xml(args.args[1])
        doc.insert(int(args.args[0]), fragment)
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(operation)
    if not args.no_recompress:
        doc.recompress()
    output = args.output or args.input
    if output.endswith(".grammar"):
        doc.save_grammar(output)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(doc.to_xml())
    print(
        f"{operation} applied; grammar size {doc.compressed_size} "
        f"-> {output}"
    )
    return 0


def _cmd_durable(args) -> int:
    from repro.storage import (
        CheckpointError,
        DurableXml,
        RecoveryError,
        StoreDegraded,
        WalWriteError,
    )

    try:
        return _run_durable(args, DurableXml)
    except (StoreDegraded, RecoveryError, CheckpointError,
            WalWriteError) as exc:
        # Typed storage failures are operator-facing conditions, not
        # programming errors: one diagnostic line and a non-zero exit
        # instead of a traceback.
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, StoreDegraded):
            print(
                "the store is serving reads only; fix the disk and run "
                "'durable checkpoint' (or 'durable scrub --repair') to "
                "restore writes",
                file=sys.stderr,
            )
        return 1


def _run_durable(args, DurableXml) -> int:
    action = args.action
    if action == "init":
        if not args.xml:
            print("durable init needs --xml FILE", file=sys.stderr)
            return 2
        with open(args.xml, "r", encoding="utf-8") as handle:
            text = handle.read()
        with DurableXml.from_xml(
            args.store, text, overwrite=args.overwrite
        ) as store:
            print(
                f"initialized {args.store}: {store.element_count} elements, "
                f"grammar size {store.compressed_size}, generation 0"
            )
        return 0

    with DurableXml.open(args.store) as store:
        recovery = store.last_recovery
        if action == "status":
            if args.json:
                _print_json(_status_dict(store))
                return 0
            print(f"store:       {store.directory}")
            print(f"generation:  {store.generation}")
            print(f"wal bytes:   {store.wal_size}")
            print(
                f"wal chain:   {store.wal_segment_count} segment(s), "
                f"active segment {store._wal.active_segment} "
                f"({store._wal.active_segment_size} bytes)"
            )
            print(f"replayed:    {recovery.replayed} record(s)")
            if recovery.degraded:
                print("recovered:   degraded (previous snapshot generation)")
            if recovery.dropped_tail_record:
                print("recovered:   dropped unacknowledged tail record")
            print(f"degraded:    "
                  f"{'yes (read-only)' if store.degraded else 'no'}")
            print(f"elements:    {store.element_count}")
            print(f"c-edges:     {store.compressed_size}")
            mvcc = store.mvcc_info()
            print(f"epoch:       {mvcc['epoch']}")
            pins = mvcc["pinned_snapshots"]
            if pins:
                age = mvcc["oldest_pin_age_seconds"]
                print(f"snapshots:   {pins} pinned "
                      f"(oldest epoch {min(mvcc['pinned_epochs'])}, "
                      f"age {age:.1f}s)")
            else:
                print("snapshots:   0 pinned")
        elif action == "update":
            operation = args.args[0]
            if operation == "rename":
                store.rename(int(args.args[1]), args.args[2])
            elif operation == "insert":
                store.insert(int(args.args[1]), parse_xml(args.args[2]))
            elif operation == "append":
                store.append_child(int(args.args[1]), parse_xml(args.args[2]))
            elif operation == "delete":
                store.delete(int(args.args[1]))
            else:
                print(f"unknown durable update {operation!r}",
                      file=sys.stderr)
                return 2
            print(
                f"{operation} committed; generation {store.generation}, "
                f"wal {store.wal_size} bytes"
            )
        elif action == "query":
            matches = store.select(args.args[0])
            for index in matches:
                print(f"{index}\t{store.tag_of(index)}")
            print(f"{len(matches)} match(es)", file=sys.stderr)
        elif action == "checkpoint":
            generation = store.checkpoint()
            print(f"checkpointed: now at generation {generation}")
        elif action == "scrub":
            report = store.scrub(repair=args.repair)
            summary = report.summary()
            print(f"scrubbed:    {summary['checked']['snapshots']} "
                  f"snapshot(s), {summary['checked']['wal_files']} WAL "
                  f"file(s) ({summary['checked']['wal_records']} "
                  f"records), {summary['checked']['index_rules']} index "
                  f"rule(s), {summary['checked']['label_rules']} label "
                  f"census(es), {summary['checked']['elements']} "
                  f"element(s)")
            for finding in report.findings:
                state = "repaired" if finding.repaired else "FOUND"
                print(f"{state}:    [{finding.kind}] {finding.subject}: "
                      f"{finding.detail}")
            if report.repair_error:
                print(f"repair error: {report.repair_error}",
                      file=sys.stderr)
                return 1
            if report.ok:
                print("scrub:       clean")
            elif not args.repair:
                print("scrub:       findings above; re-run with "
                      "--repair to fix", file=sys.stderr)
                return 1
            return 0
        elif action == "health":
            health = store.health()
            if args.json:
                _print_json(health)
            else:
                _print_health_table(health)
        elif action == "metrics":
            registry = store.metrics_registry
            if args.prometheus:
                sys.stdout.write(registry.render_prometheus())
            else:
                sys.stdout.write(registry.render_table())
        else:  # pragma: no cover - argparse restricts choices
            raise AssertionError(action)
    return 0


def _status_dict(store) -> dict:
    """The pinned ``durable status --json`` schema."""
    wal = store._wal.to_dict()
    wal["segment_bytes_limit"] = store._wal_segment_bytes
    recovery = store.last_recovery
    return {
        "directory": store.directory,
        "generation": store.generation,
        "degraded": store.degraded,
        "element_count": store.element_count,
        "compressed_size": store.compressed_size,
        "wal": wal,
        "recovery": recovery.to_dict() if recovery is not None else None,
        "mvcc": store.mvcc_info(),
        "kernel": store.document.index.kernel_info(),
    }


def _print_json(payload: dict) -> None:
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))


def _print_health_table(health: dict) -> None:
    print(f"store:       {health['directory']}")
    print(f"generation:  {health['generation']}")
    print(f"elements:    {health['element_count']}")
    print(f"degraded:    "
          f"{'yes (read-only)' if health['degraded'] else 'no'}")
    if health["degraded_cause"]:
        print(f"cause:       {health['degraded_cause']}")
    wal = health["wal"]
    print(f"wal:         {wal['size_bytes']} bytes, "
          f"{wal['segment_count']} segment(s), "
          f"{wal['rotations']} rotation(s)")
    if wal["tail_error"]:
        print(f"wal tail:    {wal['tail_error']}")
    mvcc = health["mvcc"]
    print(f"mvcc:        epoch {mvcc['epoch']}, "
          f"{mvcc['pinned_snapshots']} pinned snapshot(s)")
    if health["last_checkpoint_error"]:
        print(f"checkpoint:  last error: "
              f"{health['last_checkpoint_error']}")
    scrub = health["last_scrub"]
    if scrub is not None:
        print(f"scrub:       {'clean' if scrub['ok'] else 'FINDINGS'} "
              f"({scrub['repaired']} repaired)")
    print("(full machine-readable report: durable health --json)")


def _cmd_experiment(args) -> int:
    from repro.experiments import EXPERIMENTS

    for name in args.names:
        module = EXPERIMENTS.get(name)
        if module is None:
            print(
                f"unknown experiment {name!r}; known: "
                f"{', '.join(EXPERIMENTS)}",
                file=sys.stderr,
            )
            return 2
        module.main()
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xml",
        description="Grammar-compressed XML with incremental updates "
        "(ICDE 2016 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress XML into a grammar")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.add_argument("--kin", type=int, default=4)
    p.set_defaults(handler=_cmd_compress)

    p = sub.add_parser("decompress", help="expand a grammar back to XML")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(handler=_cmd_decompress)

    p = sub.add_parser("stats", help="document/grammar statistics")
    p.add_argument("input")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser(
        "query",
        help="evaluate a label path on the grammar (no decompression)",
    )
    p.add_argument("input")
    p.add_argument(
        "path",
        help="label path, e.g. /log/entry, //status, /log/entry[3]/ip",
    )
    p.add_argument(
        "--count", action="store_true",
        help="print only the number of matches",
    )
    p.add_argument(
        "--extract", action="store_true",
        help="print each match's subtree XML (partial derivation) "
        "instead of index/tag lines",
    )
    p.add_argument(
        "--limit", type=int, default=None,
        help="print at most this many matches",
    )
    p.set_defaults(handler=_cmd_query)

    p = sub.add_parser("update", help="apply one update operation")
    p.add_argument("input")
    p.add_argument("operation", choices=("rename", "insert", "delete"))
    p.add_argument(
        "args",
        nargs="+",
        help="rename: INDEX NEWTAG | insert: INDEX XMLFRAGMENT | "
        "delete: INDEX (element indices in document order)",
    )
    p.add_argument("-o", "--output")
    p.add_argument("--no-recompress", action="store_true")
    p.set_defaults(handler=_cmd_update)

    p = sub.add_parser(
        "durable",
        help="crash-safe store: WAL-logged updates, snapshots, recovery",
    )
    p.add_argument(
        "action",
        choices=("init", "status", "update", "query", "checkpoint",
                 "scrub", "health", "metrics"),
    )
    p.add_argument("store", help="store directory")
    p.add_argument(
        "args",
        nargs="*",
        help="init: (with --xml) | update: rename I TAG / insert I XML / "
        "append I XML / delete I | query: LABELPATH",
    )
    p.add_argument("--xml", help="input XML file (init)")
    p.add_argument("--overwrite", action="store_true")
    p.add_argument(
        "--repair", action="store_true",
        help="scrub: rebuild drifted indexes and retire corrupt files",
    )
    p.add_argument(
        "--json", action="store_true",
        help="status/health: emit the machine-readable JSON report",
    )
    p.add_argument(
        "--prometheus", action="store_true",
        help="metrics: emit Prometheus text exposition instead of the "
        "human table",
    )
    p.set_defaults(handler=_cmd_durable)

    p = sub.add_parser("experiment", help="regenerate paper tables/figures")
    p.add_argument("names", nargs="+")
    p.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, IndexError) as exc:
        if args.handler not in (_cmd_query, _cmd_update, _cmd_durable):
            raise
        # Bad input is the operator's to fix: one line, nothing written.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
