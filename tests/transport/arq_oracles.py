"""From-scratch references for the ARQ layer's derived state.

:class:`~repro.transport.reliability.ReliableReceiver` keeps its SACK
blocks as an incrementally maintained interval set and
:class:`~repro.transport.reliability.ReliableSender` keeps an index of its
un-sacked records; both are derived from state the checkpoint already
holds.  These are the slow, obviously-right versions the tests compare
them with: recompute everything from ``_ooo`` / ``unacked`` on every call.
"""

from repro.transport.reliability import ReliableSender


def sack_blocks(ooo, last_ooo, max_blocks):
    """SACK blocks from the raw out-of-order buffer, in report order."""
    blocks = []
    for rseq in sorted(ooo):
        if blocks and blocks[-1][1] == rseq:
            blocks[-1] = (blocks[-1][0], rseq + 1)
        else:
            blocks.append((rseq, rseq + 1))
    blocks.reverse()  # newest edge first
    if len(blocks) > 1 and last_ooo is not None:
        for i, (start, end) in enumerate(blocks):
            if start <= last_ooo < end:
                blocks.insert(0, blocks.pop(i))  # last arrival's block first
                break
    return tuple(blocks[:max_blocks])


def receiver_blocks(receiver):
    """What ``(_starts, _ends)`` must be, rebuilt from ``_ooo``."""
    runs = sorted(sack_blocks(receiver._ooo, None, len(receiver._ooo)))
    return [s for s, _ in runs], [e for _, e in runs]


def unsacked_index(sender):
    """What ``_unsacked`` must be (items, in order), rebuilt from ``unacked``."""
    return [
        (rseq, record)
        for rseq, record in sender.unacked.items()
        if not record.sacked
    ]


class FullScanSender(ReliableSender):
    """The sender with every ack-path read done as a scan of ``unacked``.

    ``on_ack`` walks the whole window up to the newest acked rseq,
    ``reconcile`` tests every record against every block and the timer
    scans past the sacked prefix; the un-sacked index is never read.
    """

    def _absorb_cum_ack(self, cum_ack):
        # The base class retires records from the index too; hand it a
        # fresh rebuild so nothing here depends on the index being kept.
        self._unsacked = dict(unsacked_index(self))
        return super()._absorb_cum_ack(cum_ack)

    def on_ack(self, ack):
        sack = getattr(ack, "sack", ack)
        opened = self._absorb_cum_ack(sack.cum_ack)
        self.stats.sack_scans += 1
        newest = max(
            [sack.cum_ack - 1] + [end - 1 for _, end in sack.blocks]
        )
        holes = []
        for rseq, record in self.unacked.items():
            if rseq > newest:
                break
            self.stats.sack_visits += 1
            if any(start <= rseq < end for start, end in sack.blocks):
                if not record.sacked:
                    record.sacked = True
                    # Karn's rule: RTT only from packets transmitted once.
                    if record.transmissions == 1 and record.last_sent >= 0:
                        self.stats.rtt_samples += 1
                        self.rto.sample(self.sim.now - record.last_sent)
            elif rseq < newest and not record.sacked and (
                record.transmissions > 0
            ):
                holes.append(record)
        self._fast_retransmit(holes)
        opened = self._refill() or opened
        self._ensure_timer()
        if opened and self.on_window_open is not None:
            self.on_window_open()

    def reconcile(self, cum_ack, blocks):
        opened = self._absorb_cum_ack(cum_ack)
        live = []
        for rseq, record in self.unacked.items():
            record.sacked = any(start <= rseq < end for start, end in blocks)
            record.dup_hints = 0
            record.rtx_pending = False
            if not record.sacked:
                live.append(record)
        self.stats.replays += len(live)
        if live:
            self._retransmit_many(live)
        opened = self._refill() or opened
        self.rto.reset_backoff()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._ensure_timer()
        if opened and self.on_window_open is not None:
            self.on_window_open()
        return len(live)

    def _oldest_outstanding(self):
        for record in self.unacked.values():
            if not record.sacked and record.transmissions > 0:
                return record
        return None
