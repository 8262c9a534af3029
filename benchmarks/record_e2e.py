"""Append one row of ``bench_e2e`` end-to-end medians to ``BENCH_e2e.jsonl``.

The trajectory ROADMAP 5(d) asks for, kept outside the frozen
``benchmarks/e2e/`` directory: this script only *invokes* the frozen
runner, once per workload and seed, each in a fresh process --

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N \\
        --trace 0 --json <tmp>

-- and appends commit, python / platform, the fsync probe and the median
over the seeds of the nine end-to-end metrics per workload as one JSON
line of the root-level ``BENCH_e2e.jsonl``::

    python3 benchmarks/record_e2e.py --label "PR 23 change"
    python3 benchmarks/record_e2e.py --root /root/scratch/parent \\
        --label "PR 23 parent"          # another checkout's runner + src/
    python3 benchmarks/record_e2e.py --smoke --out /tmp/row.jsonl   # CI

Runs go one after the other (the box has two cores and a ~5 % noise
floor); a full row is four workloads x three seeds, about ten minutes.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
)


def git(root, *args):
    try:
        return subprocess.run(
            ["git", "-C", root, *args],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def run_once(root, workload, seed, seconds, smoke):
    """One frozen-runner process; returns its full ``--json`` record."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "run.json")
        command = [sys.executable,
                   os.path.join(root, "benchmarks", "e2e", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0", "--json", path]
        if smoke:
            command.append("--smoke")
        subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
        with open(path) as handle:
            return json.load(handle)


def record(root, seeds, smoke, label):
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = [metric["name"] for metric in spec["end_to_end"]]
    seconds = 0 if smoke else spec["run_seconds"]
    row = {
        "label": label,
        "commit": git(root, "rev-parse", "--short", "HEAD") or None,
        "dirty": bool(git(root, "status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "seeds": seeds,
        "seconds": seconds,
        "smoke": smoke,
        "workloads": {},
    }
    probes = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs = [run_once(root, workload, seed, seconds, smoke)
                for seed in seeds]
        probes += [run["layers"]["storage.fsync_probe_ms"]["value"]
                   for run in runs]
        row["workloads"][workload] = {
            "correct": all(run["correct"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "pinned": all(run["pinned"] for run in runs),
            "end_to_end": {
                name: statistics.median(
                    run["metrics"][name]["value"] for run in runs)
                for name in declared
            },
        }
        print(workload, json.dumps(row["workloads"][workload]), flush=True)
    row["fsync_probe_ms"] = statistics.median(probes)
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=REPO_ROOT,
                        help="checkout whose runner and src/ are measured")
    parser.add_argument("--seeds", default="11,12,13",
                        help="comma-separated op-stream seeds")
    parser.add_argument("--smoke", action="store_true",
                        help="2k-edge documents, one seed, no traffic timer")
    parser.add_argument("--label", default="",
                        help="free text stored with the row")
    parser.add_argument("--out",
                        default=os.path.join(REPO_ROOT, "BENCH_e2e.jsonl"))
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    if args.smoke:
        seeds = seeds[:1]
    row = record(os.path.abspath(args.root), seeds, args.smoke, args.label)
    with open(args.out, "a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    bad = [name for name, entry in row["workloads"].items()
           if not entry["correct"] or entry["failed"]]
    if bad:
        print("incorrect or failed operations on:", ", ".join(bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
