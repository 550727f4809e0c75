"""Self-tests of the end-to-end benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
SRC = E2E.parents[1] / "src"
for path in (str(SRC), str(E2E)):
    if path not in sys.path:
        sys.path.insert(0, path)
