"""repro — a reproduction of "A Reliable and Scalable Striping Protocol".

Adiseshu, Parulkar & Varghese, ACM SIGCOMM 1996.

The library implements the paper's full system from scratch:

* :mod:`repro.core` — Surplus Round Robin striping, the causal-fair-queuing
  transformation, logical reception, and marker-based resynchronization.
* :mod:`repro.sim` — the discrete-event substrate (channels, loss models,
  host CPU / interrupt costs).
* :mod:`repro.net` — the strIPe architecture: a virtual IP interface that
  stripes IP packets across heterogeneous links (Ethernet + ATM).
* :mod:`repro.transport` — the striping endpoints: the sender and receiver
  pipelines, the ARQ / FEC layers and the multi-tenant fabric mounted on
  them, and the ports that carry them — simulated channels driven
  directly, or UDP flows (with credit-based flow control) and TCP
  connections through :mod:`repro.net`.
* :mod:`repro.baselines` — the comparison schemes of Table 1 (RR, GRR,
  shortest-queue-first, random, address hashing, BONDING, MPPP).
* :mod:`repro.workloads` — traffic generators, including the synthetic
  NV-video workload.
* :mod:`repro.analysis` — throughput / reordering / fairness metrics.
* :mod:`repro.experiments` — one module per paper table or figure.

Importing ``repro.sim``, ``repro.core``, ``repro.transport`` or
``repro.workloads`` loads only the striping stack a run executes (the
engine and channels, the SRR striper and receivers, the two endpoint
pipelines with ARQ, FEC, the fabric and the fast path, the packet
generators).  Every other name those packages export — the IP stack's
transports, fault injection, the session layer, the video model —
resolves on first attribute access through :func:`lazy_exports`.

Quickstart::

    from repro.core import SRR, TransformedLoadSharer, Resequencer, Packet
    srr = SRR(quanta=[1500, 1500])
    sender = TransformedLoadSharer(srr)
    receiver = Resequencer(srr)
    # ... see examples/quickstart.py
"""

import importlib
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple

__version__ = "1.0.0"


def lazy_exports(
    namespace: Dict[str, Any], table: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """A package's PEP 562 ``__getattr__`` and ``__dir__`` for ``table``.

    ``namespace`` is the package's ``globals()``; ``table`` maps each
    submodule, relative to the package, to the names it exports.  A name
    is imported on first access and stored in the package, so it costs
    one import once.  ``dir()`` lists the names before then, and
    ``from package import *`` resolves every one in ``__all__``.
    """
    package = namespace["__name__"]
    home = {
        name: f"{package}.{module}"
        for module, names in table.items()
        for name in names
    }

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = namespace[name] = getattr(
            importlib.import_module(module), name
        )
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | home.keys())

    return __getattr__, __dir__


# core and sim take lazy_exports from this module while it is still
# loading, so it is defined above this import.
from repro import core, sim  # noqa: E402

__all__ = ["core", "sim", "__version__"]
