"""perfbench: cost-per-packet benchmark with a per-layer span ladder.

``python3 -m perfbench`` runs five workloads over simulated links (no real
link, no loopback socket) and prints every metric by name with its unit.
See ``perfbench/README.md`` for the glossary and the expected interactions,
``BENCHMARK.json`` at the repository root for the contract.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The measured program is the source tree beside this package; it is never
# installed, so every entry point (driver, tests, compare) needs it on the
# path before ``perfbench.rigs`` is imported.
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
