"""Header and framing sizes of the simulated Ethernet / IP / UDP stack.

A leaf module: it imports nothing from :mod:`repro`, so the fast path
(:mod:`repro.transport.fast_path`) can charge the bytes the stack would
add without loading the stack.  :mod:`repro.net.ethernet`,
:mod:`repro.net.ip` and :mod:`repro.transport.udp` take their numbers
from here too.
"""

ETHERNET_OVERHEAD = 18  # 14-byte header + 4-byte FCS
ETHERNET_MIN_PAYLOAD = 46
IP_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
