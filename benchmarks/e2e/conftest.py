"""Keep the e2e self-test out of a bare ``pytest`` run.

``test_e2e.py`` launches the smoke set in subprocesses; like the
``bench_*`` scripts it is meant to be collected only when a path inside
``benchmarks/e2e`` is named on the command line.
"""

import os

HERE = os.path.dirname(os.path.abspath(__file__))


def pytest_ignore_collect(collection_path, config):
    named = [os.path.abspath(arg.split("::")[0]) for arg in config.args]
    if not any(path == HERE or path.startswith(HERE + os.sep)
               for path in named):
        return True
    return None
