"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables or figures at full
scale and prints it (run with ``-s`` or read the captured block).  The
pytest-benchmark timing is incidental — what matters is the printed
artifact and the shape assertions.
"""

import sys
from pathlib import Path

# Benchmarks share helpers with the tests (``tests.conftest``), so the
# repository root must be importable however pytest was launched.
_ROOT = str(Path(__file__).resolve().parents[1])
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)
