"""README.md names only files that exist.

Deleting a benchmark, a recorded result or a module must not leave the
README pointing at it: every ``BENCH_*.json``, ``benchmarks/**.py``,
``tests/**.py``, ``examples/*.py`` and ``src/repro/**.py`` path the
README mentions is resolved against the repository root.
"""

import os
import re

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
