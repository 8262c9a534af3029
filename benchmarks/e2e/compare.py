"""Compare two ``bench_e2e`` set results (``out/result.json`` files).

    python3 benchmarks/e2e/compare.py A.json B.json

Per workload x end-to-end metric: A's and B's median, B's relative
difference to A, the metric's regression bound from ``BENCHMARK.json``
and a verdict -- ``worse`` / ``better`` when B's median moved past the
bound in that direction, ``unresolved`` when either side's run-to-run
spread (quartile distance over median) is wider than the bound, ``ok``
otherwise.  Metrics the spec does not declare are listed without a
verdict.  Count metrics of the traced runs that differ are listed last:
under pinning they repeat exactly.  Exits 1 when any row is ``worse``.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def spread(values):
    """Quartile distance over the median (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(a, b, metric):
    """``(relative difference, verdict)`` of B against A."""
    base = a["value"]
    change = (b["value"] - base) / base if base else 0.0
    if metric is None:
        return change, "-"
    bound = metric["bound"]
    if max(spread(a["values"]), spread(b["values"])) > bound:
        return change, "unresolved"
    worsening = change if metric["better"] == "lower" else -change
    if worsening > bound:
        return change, "worse"
    return change, "better" if worsening < -bound else "ok"


def compare(first, second, spec):
    """Rows ``(workload, metric, a, b, change, bound, verdict)``."""
    declared = {metric["name"]: metric for metric in spec["end_to_end"]}
    rows = []
    for name, a_entry in first["workloads"].items():
        b_entry = second["workloads"].get(name)
        if b_entry is None:
            continue
        for metric, a in a_entry["end_to_end"].items():
            b = b_entry["end_to_end"].get(metric)
            if b is None:
                continue
            spec_metric = declared.get(metric)
            change, result = verdict(a, b, spec_metric)
            rows.append((name, metric, a["value"], b["value"], change,
                         spec_metric["bound"] if spec_metric else None,
                         result))
    return rows


def differing_counts(first, second):
    """``(workload, metric, a, b)`` of traced count metrics that differ."""
    rows = []
    for name, a_entry in first["workloads"].items():
        b_layers = second["workloads"].get(name, {}).get("per_layer", {})
        for metric, a in a_entry["per_layer"].items():
            b = b_layers.get(metric)
            if (b is not None and a["unit"] in ("count", "By")
                    and a["value"] != b["value"]):
                rows.append((name, metric, a["value"], b["value"]))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as handle:
        first = json.load(handle)
    with open(argv[1]) as handle:
        second = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    rows = compare(first, second, spec)
    print(f"{'workload':22s} {'metric':26s} {'A':>12s} {'B':>12s} "
          f"{'B vs A':>8s} {'bound':>6s}  verdict")
    for name, metric, a, b, change, bound, result in rows:
        bound_text = f"{bound:.0%}" if bound is not None else "-"
        print(f"{name:22s} {metric:26s} {a:12.5g} {b:12.5g} "
              f"{change:+8.1%} {bound_text:>6s}  {result}")
    for name, metric, a, b in differing_counts(first, second):
        print(f"count differs: {name} {metric}: {a} vs {b}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
