"""Shared helpers for the ``bench_*`` scripts.

One concern lives here: opt-in profiling.  Every benchmark's
``__main__`` block wraps its timed region in :func:`maybe_profile`, so

    PYTHONPATH=src python benchmarks/bench_obs.py --smoke --profile

additionally drives cProfile over the run and drops the stats next to
the ``BENCH_*.json`` artifacts as ``profile_<bench>.pstats`` -- ready
for ``python -m pstats`` or snakeviz.  Without ``--profile`` the
context manager is free: no profiler is constructed at all, so the
recorded timings stay honest.
"""

import contextlib
import cProfile
import os
import sys

#: Artifacts land next to the BENCH_*.json files, at the repo root.
REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
)


def profile_requested(argv=None):
    """True when the benchmark was invoked with ``--profile``."""
    return "--profile" in (sys.argv if argv is None else argv)


@contextlib.contextmanager
def maybe_profile(bench_name, argv=None):
    """Wrap a benchmark's timed region in cProfile when requested.

    ``bench_name`` is the module-ish name (``"bench_obs"``); the stats
    file is ``profile_<bench_name>.pstats`` at the repo root.  A no-op
    unless ``--profile`` is on the command line, so the flag can be
    adopted uniformly without taxing normal runs.
    """
    if not profile_requested(argv):
        yield None
        return
    profiler = cProfile.Profile()
    path = os.path.join(REPO_ROOT, f"profile_{bench_name}.pstats")
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        profiler.dump_stats(path)
        print(f"profile written to {os.path.normpath(path)} "
              f"(inspect with: python -m pstats {os.path.basename(path)})")
